//! The observability determinism contract (see `bgr_core::probe`).
//!
//! The structured [`TraceEvent`] stream must be a pure function of the
//! router's inputs: identical across the `Scoreboard` and `FullRescan`
//! selection strategies (whose deletion sequences are already proven
//! equal by the oracle tests — here the *provenance and event structure*
//! must agree too), identical across repeated runs, and consistent with
//! the untraced route and its `RouteStats` accounting. Wall-clock may
//! only appear in phase spans; counters and histograms are
//! strategy-dependent diagnostics and are deliberately not compared.

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::router::probe::{RouteTrace, TraceEvent};
use bgr::router::{GlobalRouter, Routed, RouterConfig, SelectionStrategy};

fn route_traced(params: &GenParams, selection: SelectionStrategy) -> (Routed, RouteTrace) {
    let design = generate(params);
    let placement = place_design(&design, params, PlacementStyle::EvenFeed);
    let config = RouterConfig {
        selection,
        ..RouterConfig::default()
    };
    GlobalRouter::new(config)
        .route_traced(
            design.circuit.clone(),
            placement,
            design.constraints.clone(),
        )
        .expect("generated designs route")
}

fn instances() -> Vec<GenParams> {
    vec![
        GenParams::small(0x0B5),
        GenParams {
            logic_cells: 260,
            rows: 6,
            diff_pairs: 3,
            num_constraints: 8,
            ..GenParams::small(0x0B5E)
        },
    ]
}

#[test]
fn event_stream_is_strategy_independent() {
    for params in instances() {
        let (_, fast) = route_traced(&params, SelectionStrategy::Scoreboard);
        let (_, oracle) = route_traced(&params, SelectionStrategy::FullRescan);
        assert_eq!(
            fast.events, oracle.events,
            "seed {}: event streams diverge between strategies",
            params.seed
        );
    }
}

#[test]
fn event_stream_is_repeatable() {
    for params in instances() {
        let (_, a) = route_traced(&params, SelectionStrategy::Scoreboard);
        let (_, b) = route_traced(&params, SelectionStrategy::Scoreboard);
        assert_eq!(
            a.events, b.events,
            "seed {}: event stream not repeatable",
            params.seed
        );
    }
}

#[test]
fn provenance_breakdown_sums_to_selections() {
    for params in instances() {
        let (routed, trace) = route_traced(&params, SelectionStrategy::Scoreboard);
        let selections = trace.selections();
        assert!(selections > 0);
        let tier_total: usize = trace.tier_breakdown().iter().map(|&(_, n)| n).sum();
        assert_eq!(
            tier_total, selections,
            "seed {}: every selection must have exactly one deciding tier",
            params.seed
        );
        assert_eq!(
            selections,
            routed.result.stats.selection_log.len(),
            "seed {}: one DeletionSelected per logged selection",
            params.seed
        );
        assert_eq!(
            trace.deletions(),
            routed.result.stats.deletions,
            "seed {}: event stream must account for every deletion",
            params.seed
        );
    }
}

/// With budgets enabled the degradation events — `BudgetExhausted` and
/// the `FallbackDeleted` stream behind it — are part of the
/// deterministic contract: strategy-independent, repeatable, and still
/// summing to the stats accounting.
#[test]
fn budgeted_event_stream_is_strategy_independent_and_accounted() {
    use bgr::router::Budgets;
    let params = instances().remove(0);
    let design = generate(&params);
    let placement = place_design(&design, &params, PlacementStyle::EvenFeed);
    let route = |selection| {
        let config = RouterConfig {
            selection,
            budgets: Budgets {
                deletion_steps: Some(30),
                phase_reroutes: Some(2),
            },
            ..RouterConfig::default()
        };
        GlobalRouter::new(config)
            .route_traced(
                design.circuit.clone(),
                placement.clone(),
                design.constraints.clone(),
            )
            .expect("budgeted route completes")
    };
    let (routed, fast) = route(SelectionStrategy::Scoreboard);
    let (_, oracle) = route(SelectionStrategy::FullRescan);
    assert_eq!(
        fast.events, oracle.events,
        "budgeted event streams diverge between strategies"
    );
    let exhausted = fast
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::BudgetExhausted { .. }))
        .count();
    let fallbacks = fast
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FallbackDeleted { .. }))
        .count();
    assert!(
        exhausted >= 1,
        "a 30-selection ceiling must exhaust on this instance"
    );
    assert!(fallbacks >= 1, "exhaustion must trigger fallback deletions");
    assert_eq!(
        fast.deletions(),
        routed.result.stats.deletions,
        "fallback deletions must be accounted in the stream"
    );
}

#[test]
fn tracing_does_not_change_the_route() {
    let params = instances().remove(0);
    let design = generate(&params);
    let placement = place_design(&design, &params, PlacementStyle::EvenFeed);
    let router = GlobalRouter::new(RouterConfig::default());
    let plain = router
        .route(
            design.circuit.clone(),
            placement.clone(),
            design.constraints.clone(),
        )
        .expect("routes");
    let (traced, _) = router
        .route_traced(design.circuit.clone(), placement, design.constraints)
        .expect("routes");
    assert_eq!(plain.result.trees, traced.result.trees);
    assert_eq!(plain.result.channel_tracks, traced.result.channel_tracks);
    assert_eq!(
        plain.result.stats.selection_log,
        traced.result.stats.selection_log
    );
}

#[test]
fn phase_markers_bracket_the_route() {
    let params = instances().remove(0);
    let (_, trace) = route_traced(&params, SelectionStrategy::Scoreboard);
    let enters = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PhaseEnter { .. }))
        .count();
    let exits = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PhaseExit { .. }))
        .count();
    assert_eq!(enters, exits);
    assert_eq!(enters, trace.spans.len());
    // Self-audits (`BGR_VERIFY=phases` or `steps`) may follow a phase's
    // exit; the markers bracket the routing events.
    let mut routing = trace.events.iter().filter(|e| {
        !matches!(
            e,
            TraceEvent::AuditPassed { .. } | TraceEvent::AuditStep { .. }
        )
    });
    assert!(matches!(
        routing.next(),
        Some(TraceEvent::PhaseEnter { .. })
    ));
    assert!(matches!(
        routing.next_back(),
        Some(TraceEvent::PhaseExit { .. })
    ));
}
