//! `RouterConfig::verify` wiring: audit scheduling per [`VerifyLevel`]
//! and the §9/§10 determinism guarantee that `Off` and `Final` produce
//! byte-identical traces (DESIGN.md §12).

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::io::{deterministic_lines, write_trace_jsonl};
use bgr::router::{
    CollectingProbe, GlobalRouter, RouteTrace, Routed, RouterConfig, TraceEvent, VerifyLevel,
};

fn route_traced(verify: VerifyLevel) -> (Routed, RouteTrace) {
    let params = GenParams::small(3);
    let design = generate(&params);
    let placement = place_design(&design, &params, PlacementStyle::EvenFeed);
    let config = RouterConfig {
        verify,
        ..RouterConfig::default()
    };
    let (routed, probe) = GlobalRouter::new(config)
        .route_with_probe(
            design.circuit,
            placement,
            design.constraints,
            CollectingProbe::new(),
        )
        .expect("instance routes");
    (routed, probe.finish())
}

fn audit_events(trace: &RouteTrace) -> (usize, usize) {
    let passed = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::AuditPassed { .. }))
        .count();
    let steps = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::AuditStep { .. }))
        .count();
    (passed, steps)
}

#[test]
fn off_runs_no_audits() {
    let (routed, trace) = route_traced(VerifyLevel::Off);
    assert_eq!(routed.result.stats.audits_passed, 0);
    assert_eq!(routed.result.stats.audit_checks, 0);
    assert_eq!(audit_events(&trace), (0, 0));
}

#[test]
fn final_audits_once_and_silently() {
    let (routed, trace) = route_traced(VerifyLevel::Final);
    assert_eq!(routed.result.stats.audits_passed, 1);
    assert!(routed.result.stats.audit_checks > 0);
    // Final never emits trace events — that is what keeps it safe to
    // enable under golden-trace comparison.
    assert_eq!(audit_events(&trace), (0, 0));
}

#[test]
fn phases_audit_each_engine_phase_boundary() {
    let (routed, trace) = route_traced(VerifyLevel::Phases);
    let (passed, steps) = audit_events(&trace);
    // InitialRouting, RecoverViolate, ImproveDelay, ImproveArea.
    assert!(passed >= 2, "expected several phase audits, got {passed}");
    assert_eq!(steps, 0);
    assert_eq!(routed.result.stats.audits_passed as usize, passed);
    assert!(routed.result.stats.audit_checks > 0);
}

#[test]
fn steps_audit_inside_the_deletion_loop() {
    let (routed, trace) = route_traced(VerifyLevel::Steps(8));
    let (passed, steps) = audit_events(&trace);
    assert!(steps >= 1, "expected step audits every 8 selections");
    assert!(passed >= 2, "Steps includes the phase audits too");
    assert_eq!(routed.result.stats.audits_passed as usize, passed + steps);
}

#[test]
fn final_trace_is_byte_identical_to_off() {
    let (_, off) = route_traced(VerifyLevel::Off);
    let (_, fin) = route_traced(VerifyLevel::Final);
    assert_eq!(
        deterministic_lines(&write_trace_jsonl(&off)),
        deterministic_lines(&write_trace_jsonl(&fin)),
        "VerifyLevel::Final must not perturb the decision stream"
    );
}

#[test]
fn phases_catch_a_phantom_span_below_the_channel_peak() {
    use bgr::router::{Corruption, Fault, FaultProbe, RouteError};
    let params = GenParams::small(3);
    let design = generate(&params);
    let placement = place_design(&design, &params, PlacementStyle::EvenFeed);
    let route = |verify: VerifyLevel, fault: Option<Fault>| {
        let router = GlobalRouter::new(RouterConfig {
            verify,
            ..RouterConfig::default()
        });
        let (circuit, placement, constraints) = (
            design.circuit.clone(),
            placement.clone(),
            design.constraints.clone(),
        );
        match fault {
            None => router.route_checked(circuit, placement, constraints),
            Some(f) => router
                .route_checked_with_probe(circuit, placement, constraints, FaultProbe::new(f))
                .map(|(routed, _)| routed),
        }
    };
    // One phantom track over column 0 of channel 2, whose peak is far
    // higher: every channel aggregate stays what it would have been.
    let flip = Fault::Corrupt(Corruption::FlipDensitySpan {
        channel: 2,
        x1: 0,
        x2: 1,
        width: 1,
    });
    let clean = route(VerifyLevel::Off, None).expect("clean route");
    assert!(clean.result.channel_tracks[2] > 1);
    let blind = route(VerifyLevel::Off, Some(flip)).expect("unaudited corrupted route");
    assert_eq!(blind.result.channel_tracks, clean.result.channel_tracks);
    assert_eq!(
        blind.result.stats.selection_log,
        clean.result.stats.selection_log
    );
    // The profile compare still sees the phantom column.
    match route(VerifyLevel::Phases, Some(flip)) {
        Err(RouteError::Internal { message, .. }) => assert!(
            message.contains("density profile d_M of channel 2 diverged at column 0"),
            "{message}"
        ),
        other => panic!("sub-peak phantom span escaped the self-audit: {other:?}"),
    }
}
