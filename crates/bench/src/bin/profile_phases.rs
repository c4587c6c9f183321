//! Hierarchical self-profile of the paper-scale reconstructions: where
//! routing time goes, per phase, per deletion-loop scope, and per
//! [`RekeyCause`] (DESIGN.md §14).
//!
//! Routes `C2P1` and `C3P1` with the default configuration, then `C3P1`
//! once more under [`RouterConfig::unconstrained`] (the instance of the
//! benchmark's `route_c3_unconstrained` workload, where
//! `delete_modify` is a visible share), each under the
//! [`bgr_core::ProfilingProbe`], and prints each call-tree (total vs self time, call counts) plus the
//! rekey-cause breakdown of the deletion loop — the data behind the
//! scoreboard-vs-rescan tradeoff. Also writes flamegraph-collapsed
//! stacks (`<name>.folded` under the out dir, e.g.
//! `C3P1-unconstrained.folded`) for external flamegraph
//! tooling.
//!
//! The profiled run's deterministic observables are identical to an
//! unprofiled run's (asserted here against `route`), so the numbers
//! describe the production code path, not an instrumented variant.
//!
//! Next to the hypothetical-tree misses and the vertices re-settled per
//! miss, it prints the tree layer's time per miss: `rekey:graph` self
//! time over `hyp_cache_misses`.
//!
//! After each instance it prints the process's peak resident set
//! (`VmHWM`), the memory of the constrained C3P1 route included, and
//! before it, for the constrained routes, the timing layer's footprint:
//! terminals, constraints, the members and member arcs summed over every
//! constraint graph, and the time of `Sta::new`.
//!
//! Usage: `profile_phases [out_dir]` (default `target/profile`).

use std::time::{Duration, Instant};

use bgr_bench::hypothetical_tree_work;
use bgr_core::{Counter, GlobalRouter, RekeyCause, Routed, RouterConfig, Scope};
use bgr_gen::{c2_cached, c3_cached, DataSet};
use bgr_timing::Sta;

/// Profiles one route of `ds` under `config`, labelled with the data
/// set's name, suffixed `-unconstrained` without delay criteria.
fn profile(ds: &DataSet, config: RouterConfig, out_dir: &str) {
    let use_constraints = config.use_constraints;
    let name = if use_constraints {
        ds.name.clone()
    } else {
        format!("{}-unconstrained", ds.name)
    };
    println!("{name}: {} nets", ds.design.circuit.nets().len());
    let router = GlobalRouter::new(config);
    let (routed, trace, profile) = router
        .route_profiled(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("instance routes");
    let plain = router
        .route(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("instance routes");
    assert_eq!(
        routed.result.stats.selection_log, plain.result.stats.selection_log,
        "profiling changed the selection stream on {name}"
    );

    print!("{}", profile.to_ascii());
    if use_constraints {
        println!("  {}", timing_footprint(&router, &routed, ds));
    }
    let s = &routed.result.stats;
    println!(
        "  stats: deletions {} | reroutes {} | initial {:?} | improvement {:?}",
        s.deletions, s.reroutes, s.initial_routing, s.improvement
    );

    // Per-RekeyCause attribution: the rekey:* children of the profile
    // tree, tied back to the trace's per-cause re-key counters.
    let rekey_entries: Vec<_> = profile
        .entries()
        .into_iter()
        .filter(|e| e.path.last().is_some_and(|l| l.starts_with("rekey:")))
        .collect();
    if rekey_entries.is_empty() {
        println!("  (no per-cause rekey scopes — full-rescan strategy?)");
    } else {
        println!("  rekey time by cause:");
        for e in &rekey_entries {
            println!(
                "    {:<24} {:>10?} over {} rekeys",
                e.path.last().unwrap(),
                e.total,
                e.calls
            );
        }
    }
    for cause in RekeyCause::ALL {
        println!(
            "    trace counter: {:<16} {}",
            cause.label(),
            trace.counter(cause.counter())
        );
    }
    println!("  {}", hypothetical_tree_work(&trace));
    // The tree layer's cost per hypothetical-tree miss: `rekey:graph`
    // self time over every path it occurs on, per miss.
    let graph_label = Scope::RekeyFor(RekeyCause::Graph).label();
    let graph_self: Duration = rekey_entries
        .iter()
        .filter(|e| e.path.last() == Some(&graph_label))
        .map(|e| e.self_time)
        .sum();
    match trace.counter(Counter::HypCacheMiss) {
        0 => println!("  hypothetical trees: no hypothetical-tree misses"),
        misses => println!(
            "  hypothetical trees: {:.2} µs of {graph_label} self time per miss \
             ({graph_self:?} over {misses} misses)",
            graph_self.as_secs_f64() * 1e6 / misses as f64
        ),
    }

    std::fs::create_dir_all(out_dir).expect("create out dir");
    let folded_path = format!("{out_dir}/{name}.folded");
    std::fs::write(&folded_path, profile.to_folded()).expect("write folded stacks");
    println!("  wrote {folded_path}");
    println!("  process peak RSS so far (VmHWM): {}", peak_rss());
}

/// The timing layer's size on the routed circuit: terminals of `G_D`
/// against the members and member arcs summed over every `G_d(P)`, and
/// the median wall time of 21 `Sta::new` builds.
fn timing_footprint(router: &GlobalRouter, routed: &Routed, ds: &DataSet) -> String {
    let config = router.config();
    let build = || {
        Sta::new(
            &routed.circuit,
            ds.design.constraints.clone(),
            config.delay_model,
            config.wire,
        )
        .expect("constraints build")
    };
    let mut times: Vec<Duration> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(build());
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    let sta = build();
    let cons = (0..sta.num_constraints()).map(|c| sta.constraint(c));
    let members: usize = cons.clone().map(|cg| cg.topo().len()).sum();
    let arcs: usize = cons.map(|cg| cg.arcs().len()).sum();
    format!(
        "timing: {} terminals | {} constraints | Σ members {members} | Σ member arcs {arcs} | \
         Sta::new {:?} (median of 21)",
        routed.circuit.terms().len(),
        sta.num_constraints(),
        times[10]
    )
}

/// The `VmHWM` line of `/proc/self/status` (the process's peak resident
/// set since start, so later instances report the maximum over all
/// instances so far), or `n/a` where procfs is unavailable.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "n/a".to_owned())
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/profile".to_owned());
    profile(c2_cached(), RouterConfig::default(), &out_dir);
    profile(c3_cached(), RouterConfig::default(), &out_dir);
    profile(c3_cached(), RouterConfig::unconstrained(), &out_dir);
}
