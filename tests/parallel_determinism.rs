//! Parallel-execution determinism: threads × shards never change the
//! route.
//!
//! The parallel subsystem (scoped-thread champion re-keying in
//! `bgr_core::par`, channel-region scoreboard shards in
//! `bgr_core::shard`) promises that worker threads and shard counts are
//! *pure performance knobs*: every deterministic observable — selection
//! log, routed trees, track counts, and the full `TraceEvent` stream —
//! is byte-identical for threads ∈ {1, 2, 8} × shards ∈ {1, 4}, and
//! identical to the `FullRescan` oracle. These tests prove it on the
//! same four generated circuit shapes as `tests/oracle_equivalence.rs`
//! (see DESIGN.md §10 for the structural argument the proof backs).

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::router::{
    GlobalRouter, RekeyCause, RouteTrace, Routed, RouterConfig, SelectionStrategy, TraceEvent,
};

/// The threads × shards matrix every shape is routed under.
const MATRIX: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 1), (2, 4), (8, 1), (8, 4)];

fn route_traced(params: &GenParams, config: RouterConfig) -> (Routed, RouteTrace) {
    let design = generate(params);
    let placement = place_design(&design, params, PlacementStyle::EvenFeed);
    GlobalRouter::new(config)
        .route_traced(
            design.circuit.clone(),
            placement,
            design.constraints.clone(),
        )
        .expect("generated designs route")
}

/// First index where two event streams diverge, for a readable failure.
fn first_divergence(a: &[TraceEvent], b: &[TraceEvent]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

fn assert_matrix_matches_oracle(params: &GenParams, base: RouterConfig) {
    let oracle_config = RouterConfig {
        selection: SelectionStrategy::FullRescan,
        threads: 1,
        shards: 1,
        ..base.clone()
    };
    let (oracle, oracle_trace) = route_traced(params, oracle_config);
    // Re-key attribution is scoreboard-only (the rescan derives no dirty
    // sets), so it lives in the trace counters; it must still be
    // invariant across the matrix.
    let mut rekey_reference = None;
    for (threads, shards) in MATRIX {
        let config = RouterConfig {
            selection: SelectionStrategy::Scoreboard,
            threads,
            shards,
            ..base.clone()
        };
        let (routed, trace) = route_traced(params, config);
        let tag = format!("seed {} threads {threads} shards {shards}", params.seed);
        assert_eq!(
            routed.result.stats.selection_log, oracle.result.stats.selection_log,
            "{tag}: deletion sequences diverge"
        );
        assert_eq!(
            routed.result.trees, oracle.result.trees,
            "{tag}: routed trees diverge"
        );
        assert_eq!(
            routed.result.channel_tracks, oracle.result.channel_tracks,
            "{tag}: channel track counts diverge"
        );
        assert_eq!(
            routed.result.total_length_um, oracle.result.total_length_um,
            "{tag}: total lengths diverge"
        );
        let rekeys = RekeyCause::ALL.map(|cause| trace.counter(cause.counter()));
        assert!(rekeys.iter().sum::<u64>() > 0, "{tag}: no re-keys counted");
        match rekey_reference {
            None => rekey_reference = Some(rekeys),
            Some(reference) => assert_eq!(
                rekeys, reference,
                "{tag}: rekey-cause attribution diverges across the matrix"
            ),
        }
        if let Some(i) = first_divergence(&trace.events, &oracle_trace.events) {
            panic!(
                "{tag}: trace streams diverge at event {i}: {:?} vs oracle {:?}",
                trace.events.get(i),
                oracle_trace.events.get(i)
            );
        }
    }
}

#[test]
fn small_constrained_circuit_is_thread_and_shard_invariant() {
    assert_matrix_matches_oracle(&GenParams::small(21), RouterConfig::default());
}

#[test]
fn wider_constrained_circuit_is_thread_and_shard_invariant() {
    let params = GenParams {
        logic_cells: 90,
        depth: 6,
        rows: 4,
        diff_pairs: 3,
        feeds_per_row: 4,
        num_constraints: 5,
        ..GenParams::small(22)
    };
    assert_matrix_matches_oracle(&params, RouterConfig::default());
}

#[test]
fn deep_tightly_constrained_circuit_is_thread_and_shard_invariant() {
    let params = GenParams {
        logic_cells: 70,
        depth: 9,
        rows: 3,
        global_fanin: 0.3,
        num_constraints: 6,
        wire_budget: 0.25,
        ..GenParams::small(23)
    };
    assert_matrix_matches_oracle(&params, RouterConfig::default());
}

#[test]
fn unconstrained_area_routing_is_thread_and_shard_invariant() {
    let params = GenParams {
        logic_cells: 60,
        rows: 3,
        ..GenParams::small(24)
    };
    assert_matrix_matches_oracle(&params, RouterConfig::unconstrained());
}

/// Deterministic budgets (DESIGN.md §11) are step counts, so exhaustion
/// — the `BudgetExhausted` event and the fallback completion path it
/// triggers — must land at the same stream position under every
/// threads × shards combination and match the oracle.
#[test]
fn budgeted_route_is_thread_and_shard_invariant() {
    use bgr::router::Budgets;
    let base = RouterConfig {
        budgets: Budgets {
            deletion_steps: Some(25),
            phase_reroutes: Some(2),
        },
        ..RouterConfig::default()
    };
    assert_matrix_matches_oracle(&GenParams::small(21), base);
}

/// Counters are diagnostics and *may* differ across configurations —
/// but the deterministic work counters (key evaluations, density
/// queries, memo traffic) must not: the same scans run in the same
/// order whatever the thread count. Only heap/shard/parallelism
/// bookkeeping is allowed to move, and with a fixed shard count even
/// heap traffic must match.
#[test]
fn scan_counters_are_thread_invariant() {
    use bgr::router::Counter;
    let params = GenParams::small(21);
    let reference = route_traced(
        &params,
        RouterConfig {
            threads: 1,
            shards: 4,
            ..RouterConfig::default()
        },
    )
    .1;
    assert!(
        reference.counter(Counter::HypResettled) > 0,
        "the instance exercises subtree re-settles"
    );
    for threads in [2, 8] {
        let trace = route_traced(
            &params,
            RouterConfig {
                threads,
                shards: 4,
                ..RouterConfig::default()
            },
        )
        .1;
        for c in [
            Counter::KeyEval,
            Counter::DensityWindowQuery,
            Counter::DensityAggregateQuery,
            Counter::HypCacheHit,
            Counter::HypCacheMiss,
            Counter::HypResettled,
            Counter::DelayMemoHit,
            Counter::DelayMemoMiss,
            Counter::HeapPush,
            Counter::HeapPop,
            Counter::StaleHeapPop,
            Counter::StaleHeapPurged,
        ] {
            assert_eq!(
                trace.counter(c),
                reference.counter(c),
                "threads {threads}: {} diverged",
                c.label()
            );
        }
    }
}
