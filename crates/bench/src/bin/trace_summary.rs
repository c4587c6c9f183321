//! Routes a small generated circuit with the collecting probe and
//! renders both trace artifacts: the JSONL trace (machine-diffable) and
//! the human-readable summary (criterion-decision breakdown, per-phase
//! time/work profile). When a golden trace is present it also checks
//! the deterministic event prefix against it and reports the first
//! divergence.
//!
//! Usage: `trace_summary [out_dir] [--json]` — writes `trace.jsonl`,
//! `trace_summary.txt`, the hierarchical self-profile (`profile.txt`
//! ASCII call-tree + `profile.folded` flamegraph-collapsed stacks) and
//! `trace_stats.json` under `out_dir` (default `target/trace`). CI
//! uploads them, so every PR's routing behavior is diffable. `--json`
//! additionally prints the [`bgr_io::TraceStats`] object to stdout for
//! machine consumers.
//!
//! Golden check: the deterministic prefix (meta + event lines) is
//! compared against `tests/golden/trace.jsonl` (override the path with
//! `BGR_GOLDEN`); on divergence the first differing line is printed and
//! the process exits non-zero. Run with `BGR_BLESS=1` to rewrite the
//! golden after an intentional behavior change.
//!
//! Scoreboard check: the route's `stale_heap_pops` counter must be 0
//! (the scoreboard holds one current key per (net, heap)); otherwise
//! the process exits non-zero.

use bgr_bench::hypothetical_tree_work;
use bgr_core::{Counter, GlobalRouter, RouterConfig};
use bgr_gen::golden_instance;
use bgr_io::{deterministic_lines, trace_divergence, write_trace_jsonl, TraceStats};

fn main() {
    let mut out_dir = "target/trace".to_owned();
    let mut json = false;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            out_dir = arg;
        }
    }

    let ds = golden_instance();
    println!("{}: {} nets", ds.name, ds.design.circuit.nets().len());

    let (routed, trace, profile) = GlobalRouter::new(RouterConfig::default())
        .route_profiled(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("instance routes");
    assert_eq!(
        trace.deletions(),
        routed.result.stats.deletions,
        "event stream must account for every deletion"
    );

    // The per-net delay memo fronts the hypothetical-tree cache: a
    // hypothetical-tree lookup happens only on a memo miss, so the two layers
    // must tie out exactly, the memo must actually absorb traffic, and
    // delay work must stay a strict subset of key evaluations.
    let hyp_lookups = trace.counter(Counter::HypCacheHit) + trace.counter(Counter::HypCacheMiss);
    let memo_hits = trace.counter(Counter::DelayMemoHit);
    let memo_misses = trace.counter(Counter::DelayMemoMiss);
    let key_evals = trace.counter(Counter::KeyEval);
    assert_eq!(
        hyp_lookups, memo_misses,
        "every hypothetical-tree lookup must come from exactly one delay-memo miss"
    );
    assert!(
        memo_hits > 0,
        "the delay memo never hit on a constrained instance"
    );
    assert!(
        hyp_lookups < key_evals,
        "memoization must keep hypothetical-tree lookups ({hyp_lookups}) below key evaluations ({key_evals})"
    );
    println!("delay memo: {memo_hits} hits / {memo_misses} misses over {key_evals} key evals");
    println!("{}", hypothetical_tree_work(&trace));
    println!(
        "scoreboard: {} pushes, {} pops",
        trace.counter(Counter::HeapPush),
        trace.counter(Counter::HeapPop)
    );
    // The scoreboard keeps one current key per (net, heap), so nothing
    // it pops can be stale; a non-zero count means lazy deletion is back.
    let stale = trace.counter(Counter::StaleHeapPop);
    if stale != 0 {
        eprintln!("scoreboard popped {stale} stale entries; it holds only current keys");
        std::process::exit(1);
    }

    // Independent audit (DESIGN.md §12): recompute every claim of the
    // result from scratch. Runs *outside* the router, so it can never
    // perturb the traced decision stream it certifies.
    let audit = bgr_verify::audit(
        &routed.circuit,
        &routed.placement,
        &ds.design.constraints,
        &RouterConfig::default(),
        &routed.result,
    );
    println!("independent audit ({} checks):", audit.total_checks());
    print!("{}", audit.table());
    if !audit.is_clean() {
        eprintln!("audit FAILED — the trace below describes a corrupted route");
        std::process::exit(1);
    }

    let jsonl = write_trace_jsonl(&trace);
    let stats = TraceStats::from_jsonl(&jsonl).expect("own trace parses");
    let text = stats.to_ascii();
    print!("{text}");

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let jsonl_path = format!("{out_dir}/trace.jsonl");
    let text_path = format!("{out_dir}/trace_summary.txt");
    std::fs::write(&jsonl_path, &jsonl).expect("write trace.jsonl");
    std::fs::write(&text_path, &text).expect("write trace_summary.txt");
    println!(
        "wrote {jsonl_path} ({} records) and {text_path}",
        jsonl.lines().count()
    );

    // Hierarchical self-profile (DESIGN.md §14): where the route's wall
    // clock went, by phase and scope. Diagnostic only — the profiled
    // run's deterministic event stream is what the golden check below
    // certifies, so profiling demonstrably didn't perturb the route.
    print!("{}", profile.to_ascii());
    let profile_path = format!("{out_dir}/profile.txt");
    let folded_path = format!("{out_dir}/profile.folded");
    std::fs::write(&profile_path, profile.to_ascii()).expect("write profile.txt");
    std::fs::write(&folded_path, profile.to_folded()).expect("write profile.folded");
    println!("wrote {profile_path} and {folded_path}");

    let stats_path = format!("{out_dir}/trace_stats.json");
    std::fs::write(&stats_path, format!("{}\n", stats.to_json())).expect("write trace_stats.json");
    println!("wrote {stats_path}");
    if json {
        println!("{}", stats.to_json());
    }

    let golden_path =
        std::env::var("BGR_GOLDEN").unwrap_or_else(|_| "tests/golden/trace.jsonl".to_owned());
    if std::env::var("BGR_BLESS").is_ok_and(|v| v == "1") {
        let det = deterministic_lines(&jsonl);
        std::fs::write(&golden_path, &det).expect("write golden trace");
        // A bless is only as trustworthy as the route it freezes: record
        // that the independent audit certified it.
        println!(
            "blessed {golden_path} ({} deterministic lines, audit clean over {} checks)",
            det.lines().count(),
            audit.total_checks()
        );
        return;
    }
    match std::fs::read_to_string(&golden_path) {
        Ok(golden) => match trace_divergence(&golden, &jsonl) {
            None => println!(
                "golden: {golden_path} matches ({} deterministic lines)",
                deterministic_lines(&jsonl).lines().count()
            ),
            Some(diff) => {
                eprintln!("golden trace drift against {golden_path}:\n{diff}");
                eprintln!(
                    "independent audit of the drifted route: {}",
                    if audit.is_clean() {
                        "clean (behavior change, not corruption)"
                    } else {
                        "FAILED (see verdicts above)"
                    }
                );
                eprintln!("if the change is intentional, re-bless with BGR_BLESS=1");
                std::process::exit(1);
            }
        },
        Err(_) => println!("golden: {golden_path} not found, comparison skipped"),
    }
}
