//! Scoreboard vs full-rescan oracle equivalence.
//!
//! The incremental candidate scoreboard
//! (`bgr_core::SelectionStrategy::Scoreboard`) is defined to reproduce
//! the naive full-rescan selection **exactly** — same deletion sequence,
//! same trees, same track counts, same `TraceEvent` stream. These tests
//! route generated circuits of several shapes under both strategies and
//! compare every observable. Re-key attribution is scoreboard-only (the
//! rescan derives no dirty sets), so it is read from the scoreboard's
//! trace counters and must be non-zero.

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::router::{
    Budgets, Counter, GlobalRouter, RekeyCause, RouteTrace, Routed, RouterConfig,
    SelectionStrategy, TraceEvent,
};

fn route_with(
    params: &GenParams,
    selection: SelectionStrategy,
    base: RouterConfig,
) -> (Routed, RouteTrace) {
    let design = generate(params);
    let placement = place_design(&design, params, PlacementStyle::EvenFeed);
    let config = RouterConfig { selection, ..base };
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

/// Routes under both strategies, asserts every observable equal, and
/// returns the scoreboard's trace.
fn assert_equivalent(params: &GenParams, base: RouterConfig) -> RouteTrace {
    let (fast, trace) = route_with(params, SelectionStrategy::Scoreboard, base.clone());
    let (oracle, oracle_trace) = route_with(params, SelectionStrategy::FullRescan, base);
    let seed = params.seed;
    assert_eq!(
        fast.result.stats.selection_log, oracle.result.stats.selection_log,
        "seed {seed}: deletion sequences diverge"
    );
    assert_eq!(
        fast.result.stats.deletions, oracle.result.stats.deletions,
        "seed {seed}: deletion totals diverge"
    );
    assert_eq!(
        fast.result.stats.reroutes, oracle.result.stats.reroutes,
        "seed {seed}: reroute totals diverge"
    );
    assert_eq!(
        fast.result.trees, oracle.result.trees,
        "seed {seed}: routed trees diverge"
    );
    assert_eq!(
        fast.result.channel_tracks, oracle.result.channel_tracks,
        "seed {seed}: channel track counts diverge"
    );
    assert_eq!(
        fast.result.total_length_um, oracle.result.total_length_um,
        "seed {seed}: total lengths diverge"
    );
    if let Some(i) = first_divergence(&trace.events, &oracle_trace.events) {
        panic!(
            "seed {seed}: trace streams diverge at event {i}: {:?} vs oracle {:?}",
            trace.events.get(i),
            oracle_trace.events.get(i)
        );
    }
    let rekeys: u64 = RekeyCause::ALL
        .iter()
        .map(|cause| trace.counter(cause.counter()))
        .sum();
    assert!(rekeys > 0, "seed {seed}: no re-keys counted");
    trace
}

#[test]
fn small_constrained_circuit_matches_oracle() {
    let trace = assert_equivalent(&GenParams::small(21), RouterConfig::default());
    assert!(
        trace.counter(Counter::HypResettled) > 0,
        "the instance exercises subtree re-settles"
    );
    assert!(
        trace.counter(Counter::DelayPruned) > 0,
        "the instance exercises bound-first pruning"
    );
}

#[test]
fn wider_constrained_circuit_matches_oracle() {
    let params = GenParams {
        logic_cells: 90,
        depth: 6,
        rows: 4,
        diff_pairs: 3,
        feeds_per_row: 4,
        num_constraints: 5,
        ..GenParams::small(22)
    };
    assert_equivalent(&params, RouterConfig::default());
}

#[test]
fn deep_tightly_constrained_circuit_matches_oracle() {
    let params = GenParams {
        logic_cells: 70,
        depth: 9,
        rows: 3,
        global_fanin: 0.3,
        num_constraints: 6,
        wire_budget: 0.25,
        ..GenParams::small(23)
    };
    assert_equivalent(&params, RouterConfig::default());
}

#[test]
fn unconstrained_area_routing_matches_oracle() {
    let params = GenParams {
        logic_cells: 60,
        rows: 3,
        ..GenParams::small(24)
    };
    assert_equivalent(&params, RouterConfig::unconstrained());
}

/// Deterministic budgets (DESIGN.md §11) are step counts, so exhaustion
/// — the `BudgetExhausted` event and the fallback completion path it
/// triggers — must land at the same stream position as the oracle's.
#[test]
fn budgeted_route_matches_oracle() {
    let base = RouterConfig {
        budgets: Budgets {
            deletion_steps: Some(25),
            phase_reroutes: Some(2),
        },
        ..RouterConfig::default()
    };
    let trace = assert_equivalent(&GenParams::small(21), base);
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::BudgetExhausted { .. })),
        "a 25-selection ceiling must exhaust on this instance"
    );
}
