//! Inert `threads`/`shards` settings: neither ever changes the route.
//!
//! The router runs on one thread and its scoreboard has one layout
//! (one cached top per channel heap, DESIGN.md §8). `RouterConfig`
//! still carries `threads` and `shards`, and checkpoints still write
//! and read their `config threads`/`config shards` lines, so any value
//! an older build or a portfolio arm set must leave every deterministic
//! observable — selection log, routed trees, track counts, re-key
//! attribution, work counters and the full `TraceEvent` stream —
//! byte-identical, and identical to the `FullRescan` oracle. These
//! tests check it on the same four generated circuit shapes as
//! `tests/oracle_equivalence.rs`.

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::router::{
    GlobalRouter, RekeyCause, RouteTrace, Routed, RouterConfig, SelectionStrategy, TraceEvent,
};

/// The threads × shards values every shape is routed under.
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

/// With both settings inert, every counter the engine keeps — the
/// scans' work counters and the scoreboard's heap traffic alike — must
/// match whatever `threads` and `shards` say.
#[test]
fn scan_counters_are_thread_invariant() {
    use bgr::router::Counter;
    let params = GenParams::small(21);
    let reference = route_traced(&params, RouterConfig::default()).1;
    for (threads, shards) in MATRIX {
        let trace = route_traced(
            &params,
            RouterConfig {
                threads,
                shards,
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
            Counter::HypRepatched,
            Counter::DelayMemoHit,
            Counter::DelayMemoMiss,
            Counter::HeapPush,
            Counter::HeapPop,
            Counter::StaleHeapPop,
            Counter::ShardRebuild,
        ] {
            assert_eq!(
                trace.counter(c),
                reference.counter(c),
                "threads {threads} shards {shards}: {} diverged",
                c.label()
            );
        }
    }
}
