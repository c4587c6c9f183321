//! Deletions-per-second: incremental scoreboard vs full-rescan oracle,
//! single-thread vs multi-thread.
//!
//! Routes each instance under both [`SelectionStrategy`] variants and
//! under threads ∈ {1, N} for the scoreboard, reports the deletion
//! throughput of each, the strategy and thread speedups, and the
//! scoreboard's re-key breakdown by typed cause (read from the counters
//! of one extra, untimed traced route). All runs of an instance are
//! asserted to make identical selections, so every comparison is
//! work-for-work.
//!
//! Rows: a ~1400-cell `RATE` instance, swept across threads ∈
//! {1, 2, 4, 8}, plus the paper-scale `C2P1`/`C3P1` reconstructions.
//! The timings are a report, not a gate: regressions are judged by the
//! repository benchmark (`BENCHMARK.json`).
//!
//! Usage: `deletion_rate`.

use std::time::Instant;

use bgr_core::{GlobalRouter, RekeyCause, RouteStats, RouterConfig, SelectionStrategy};
use bgr_gen::{c2_cached, c3_cached, custom, DataSet, GenParams, PlacementStyle};

fn config(strategy: SelectionStrategy, threads: usize) -> RouterConfig {
    RouterConfig {
        selection: strategy,
        threads,
        ..RouterConfig::default()
    }
}

fn run(ds: &DataSet, strategy: SelectionStrategy, threads: usize) -> (f64, RouteStats) {
    let config = config(strategy, threads);
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
        "  {strategy:?} threads={threads}: {} deletions in {secs:.3}s = {:.0} deletions/s",
        stats.deletions,
        stats.deletions as f64 / secs
    );
    (secs, stats)
}

/// Routes `ds` under the scoreboard at 1 and `multi` threads and under
/// the rescan oracle, asserts all three select identically, and prints
/// the speedups. Returns the single-thread scoreboard's stats.
fn bench_row(ds: &DataSet, multi: usize) -> RouteStats {
    println!("{}: {} nets", ds.name, ds.design.circuit.nets().len());
    let (t_seq, seq) = run(ds, SelectionStrategy::Scoreboard, 1);
    let (t_par, par) = run(ds, SelectionStrategy::Scoreboard, multi);
    let (t_slow, slow) = run(ds, SelectionStrategy::FullRescan, 1);
    assert_eq!(
        seq.selection_log, slow.selection_log,
        "strategies diverged on {}",
        ds.name
    );
    assert_eq!(
        seq.selection_log, par.selection_log,
        "thread counts diverged on {}",
        ds.name
    );
    assert_eq!(seq.deletions, slow.deletions);
    let (traced, trace) = GlobalRouter::new(config(SelectionStrategy::Scoreboard, 1))
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
    println!(
        "  speedup: {:.2}x vs rescan, {:.2}x from {multi} threads",
        t_slow / t_seq,
        t_seq / t_par
    );
    seq
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The multi-thread configuration under test: BGR_THREADS when set,
    // else every core the host offers.
    let multi = RouterConfig::default().threads.max(cores).max(2);

    let ds = rate_dataset();
    let nets = ds.design.circuit.nets().len();
    assert!(nets >= 200, "instance too small: {nets} nets");
    let base = bench_row(&ds, multi);

    // Thread-scaling curve: the RATE instance at threads ∈ {1, 2, 4, 8}.
    // Threads 1 and `multi` are already measured above; the remaining
    // points fill the curve. All points must make identical selections,
    // so the curve is work-for-work.
    println!("{} thread-scaling sweep:", ds.name);
    for threads in [2usize, 4, 8] {
        if threads == multi {
            continue;
        }
        let (_, stats) = run(&ds, SelectionStrategy::Scoreboard, threads);
        assert_eq!(
            stats.selection_log, base.selection_log,
            "thread count changed the selection stream on {}",
            ds.name
        );
    }

    // Paper-scale rows (Table 1 reconstructions): the constraint
    // structure and density interactions differ from RATE.
    bench_row(c2_cached(), multi);
    bench_row(c3_cached(), multi);
}
