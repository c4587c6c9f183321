//! Deletions-per-second: incremental scoreboard vs full-rescan oracle.
//!
//! Routes each instance under both [`SelectionStrategy`] variants,
//! reports the deletion throughput of each, the strategy speedup, and
//! the scoreboard's re-key breakdown by typed cause (read from the
//! counters of one extra, untimed traced route). All runs of an
//! instance are asserted to make identical selections, so every
//! comparison is work-for-work.
//!
//! Rows: a ~1400-cell `RATE` instance plus the paper-scale
//! `C2P1`/`C3P1` reconstructions.
//! The timings are a report, not a gate: regressions are judged by the
//! repository benchmark (`BENCHMARK.json`).
//!
//! Usage: `deletion_rate`.

use std::time::Instant;

use bgr_core::{GlobalRouter, RekeyCause, RouteStats, RouterConfig, SelectionStrategy};
use bgr_gen::{c2_cached, c3_cached, custom, DataSet, GenParams, PlacementStyle};

fn config(strategy: SelectionStrategy) -> RouterConfig {
    RouterConfig {
        selection: strategy,
        ..RouterConfig::default()
    }
}

fn run(ds: &DataSet, strategy: SelectionStrategy) -> (f64, RouteStats) {
    let config = config(strategy);
    let t = Instant::now();
    let routed = GlobalRouter::new(config)
        .route(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("instance routes");
    let secs = t.elapsed().as_secs_f64();
    let stats = routed.result.stats;
    println!(
        "  {strategy:?}: {} deletions in {secs:.3}s = {:.0} deletions/s",
        stats.deletions,
        stats.deletions as f64 / secs
    );
    (secs, stats)
}

/// Routes `ds` under the scoreboard and under the rescan oracle,
/// asserts both select identically, and prints the speedup.
fn bench_row(ds: &DataSet) {
    println!("{}: {} nets", ds.name, ds.design.circuit.nets().len());
    let (t_seq, seq) = run(ds, SelectionStrategy::Scoreboard);
    let (t_slow, slow) = run(ds, SelectionStrategy::FullRescan);
    assert_eq!(
        seq.selection_log, slow.selection_log,
        "strategies diverged on {}",
        ds.name
    );
    assert_eq!(seq.deletions, slow.deletions);
    let (traced, trace) = GlobalRouter::new(config(SelectionStrategy::Scoreboard))
        .route_traced(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("instance routes");
    assert_eq!(traced.result.stats.selection_log, seq.selection_log);
    let rekeys = RekeyCause::ALL.map(|cause| (cause, trace.counter(cause.counter())));
    let causes: Vec<String> = rekeys
        .iter()
        .map(|(cause, n)| format!("{} {n}", cause.label()))
        .collect();
    println!(
        "  re-keys: {} ({})",
        rekeys.iter().map(|(_, n)| n).sum::<u64>(),
        causes.join(", ")
    );
    println!("  speedup: {:.2}x vs rescan", t_slow / t_seq);
}

fn rate_dataset() -> DataSet {
    let params = GenParams {
        logic_cells: 1400,
        depth: 8,
        rows: 14,
        diff_pairs: 4,
        feeds_per_row: 6,
        num_constraints: 10,
        ..GenParams::small(0xDE1)
    };
    custom("RATE", params, PlacementStyle::EvenFeed)
}

fn main() {
    let ds = rate_dataset();
    let nets = ds.design.circuit.nets().len();
    assert!(nets >= 200, "instance too small: {nets} nets");
    bench_row(&ds);

    // Paper-scale rows (Table 1 reconstructions): the constraint
    // structure and density interactions differ from RATE.
    bench_row(c2_cached());
    bench_row(c3_cached());
}
