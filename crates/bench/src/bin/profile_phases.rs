//! Hierarchical self-profile of the paper-scale reconstructions: where
//! routing time goes, per phase, per deletion-loop scope, and per
//! [`RekeyCause`] (DESIGN.md §14).
//!
//! Routes `C2P1` and `C3P1` under the [`bgr_core::ProfilingProbe`] and
//! prints each call-tree (total vs self time, call counts) plus the
//! rekey-cause breakdown of the deletion loop — the data behind the
//! scoreboard-vs-rescan tradeoff. Also writes flamegraph-collapsed
//! stacks (`<name>.folded` under the out dir) for external flamegraph
//! tooling.
//!
//! The profiled run's deterministic observables are identical to an
//! unprofiled run's (asserted here against `route`), so the numbers
//! describe the production code path, not an instrumented variant.
//!
//! Usage: `profile_phases [out_dir]` (default `target/profile`).

use bgr_bench::resettled_per_search;
use bgr_core::{GlobalRouter, RekeyCause, RouterConfig};
use bgr_gen::{c2_cached, c3_cached, DataSet};

fn profile(ds: &DataSet, out_dir: &str) {
    println!("{}: {} nets", ds.name, ds.design.circuit.nets().len());
    let router = GlobalRouter::new(RouterConfig::default());
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
        "profiling changed the selection stream on {}",
        ds.name
    );

    print!("{}", profile.to_ascii());
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
    println!("  {}", resettled_per_search(&trace));

    std::fs::create_dir_all(out_dir).expect("create out dir");
    let folded_path = format!("{out_dir}/{}.folded", ds.name);
    std::fs::write(&folded_path, profile.to_folded()).expect("write folded stacks");
    println!("  wrote {folded_path}");
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/profile".to_owned());
    profile(c2_cached(), &out_dir);
    profile(c3_cached(), &out_dir);
}
