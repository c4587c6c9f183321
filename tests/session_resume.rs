//! Resume-equivalence golden-trace harness (DESIGN.md §13).
//!
//! The sessionized core's contract:
//!
//! ```text
//! route(full)  ≡  route(slice) → snapshot → serialize → parse →
//!                 restore → route(rest)
//! ```
//!
//! with **byte-identical** deterministic observables on both sides:
//!
//! - the trace event stream — per-slice documents are serialized at the
//!   slice's global `seq` offset and their concatenated event lines must
//!   equal the uninterrupted run's, `seq` included;
//! - the selection log (every `(net, edge)` the deletion loop picked);
//! - the routing result (trees, channel tracks) and its independent
//!   `bgr::verify` audit on both endpoints.
//!
//! The matrix crosses worker threads {1, 8} × scoreboard shards {1, 4}
//! — the identity must survive any parallelism/sharding choice, and
//! every suspension passes through the *serialized* checkpoint codec
//! (`write_checkpoint` → `parse_checkpoint`), not an in-memory
//! snapshot. At every suspension the checkpoint a serve slice would
//! write — the previous checkpoint's design prefix spliced onto the new
//! state tail — must equal the full serialization byte for byte. The golden instance's sliced run is additionally pinned
//! against the checked-in `tests/golden/trace.jsonl`, and a
//! deletion-budgeted variant proves the fallback lands at the same
//! point with or without interruption.

use bgr::gen::golden_instance;
use bgr::io::{
    deterministic_event_lines, parse_checkpoint_with_prefix, splice_checkpoint, write_checkpoint,
    write_event_lines, write_trace_jsonl,
};
use bgr::layout::Placement;
use bgr::netlist::Circuit;
use bgr::router::{
    Budgets, CollectingProbe, GlobalRouter, RouteSession, Routed, RouterConfig, StepOutcome,
};
use bgr::timing::PathConstraint;
use bgr::verify::audit_parallel;

const MATRIX: [(usize, usize); 4] = [(1, 1), (1, 4), (8, 1), (8, 4)];

fn config(threads: usize, shards: usize) -> RouterConfig {
    RouterConfig {
        threads,
        shards,
        ..RouterConfig::default()
    }
}

/// Routes in `quota`-selection slices, round-tripping through the
/// serialized checkpoint codec at **every** suspension and checking the
/// spliced checkpoint against the full one, and the parsed design
/// against the written one, there. Returns the result,
/// the concatenated per-slice event lines, and the hop count.
fn sliced_route(
    config: &RouterConfig,
    circuit: &Circuit,
    placement: &Placement,
    constraints: &[PathConstraint],
    quota: u64,
) -> (Routed, String, usize) {
    let mut session = RouteSession::start(
        config.clone(),
        circuit.clone(),
        placement.clone(),
        constraints.to_vec(),
        CollectingProbe::new(),
    )
    .expect("session starts");
    let mut events = String::new();
    let mut start_events = 0u64;
    let mut hops = 0usize;
    // The design prefix of the checkpoint the session last resumed from.
    let mut prefix: Option<String> = None;
    loop {
        let outcome = session.step(Some(quota)).expect("step succeeds");
        if outcome == StepOutcome::Ready {
            break;
        }
        // Suspension: serialize, drop the live session, re-parse,
        // resume — the codec is on the hot path of every boundary.
        let (snapshot, probe) = session.into_snapshot();
        let text = write_checkpoint(&snapshot);
        if let Some(prefix) = &prefix {
            assert!(
                splice_checkpoint(prefix, &snapshot) == text,
                "spliced checkpoint differs from the full one after hop {hops}"
            );
        }
        events.push_str(&write_event_lines(&probe.finish(), start_events));
        let (reparsed, prefix_len) =
            parse_checkpoint_with_prefix(&text).expect("checkpoint parses");
        // The post-insertion design survives the codec exactly: what a
        // serve job keeps between slices is what its checkpoint embeds.
        assert!(
            reparsed.design == snapshot.design,
            "parse(write(design)) differs from the design after hop {hops}"
        );
        prefix = Some(text[..prefix_len].to_string());
        start_events = reparsed.events_emitted;
        session = RouteSession::resume(reparsed, CollectingProbe::new()).expect("resume succeeds");
        hops += 1;
    }
    let (routed, probe) = session.finish().expect("finish succeeds");
    let trace = probe.finish();
    events.push_str(&write_event_lines(&trace, start_events));
    (routed, events, hops)
}

#[test]
fn resume_equals_uninterrupted_across_threads_and_shards() {
    let ds = golden_instance();
    let mut event_streams: Vec<String> = Vec::new();
    for (threads, shards) in MATRIX {
        let config = config(threads, shards);
        let (full, trace) = GlobalRouter::new(config.clone())
            .route_traced(
                ds.design.circuit.clone(),
                ds.placement.clone(),
                ds.design.constraints.clone(),
            )
            .expect("full route succeeds");
        let full_events = deterministic_event_lines(&write_trace_jsonl(&trace));

        let (sliced, sliced_events, hops) = sliced_route(
            &config,
            &ds.design.circuit,
            &ds.placement,
            &ds.design.constraints,
            3,
        );
        assert!(hops > 3, "quota 3 must force several resumes (got {hops})");

        // Byte-identical observables on both sides of the interruption.
        assert_eq!(
            sliced_events, full_events,
            "event stream diverged at threads={threads} shards={shards}"
        );
        assert_eq!(sliced.result.trees, full.result.trees);
        assert_eq!(sliced.result.channel_tracks, full.result.channel_tracks);
        assert_eq!(
            sliced.result.stats.selection_log,
            full.result.stats.selection_log
        );
        assert_eq!(sliced.result.stats.deletions, full.result.stats.deletions);

        // Independent audit certifies both endpoints, identically.
        let audit_full = audit_parallel(
            threads,
            &full.circuit,
            &full.placement,
            &ds.design.constraints,
            &config,
            &full.result,
        );
        let audit_sliced = audit_parallel(
            threads,
            &sliced.circuit,
            &sliced.placement,
            &ds.design.constraints,
            &config,
            &sliced.result,
        );
        assert!(audit_full.is_clean(), "{:?}", audit_full.first_failure());
        assert_eq!(audit_full, audit_sliced);

        event_streams.push(sliced_events);
    }
    // The whole matrix agrees on the deterministic stream.
    for s in &event_streams[1..] {
        assert_eq!(*s, event_streams[0], "matrix entries disagree");
    }
}

#[test]
fn sliced_golden_instance_matches_checked_in_trace() {
    let golden = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join("trace.jsonl"),
    )
    .expect("golden trace checked in (bless via golden_trace test)");
    let ds = golden_instance();
    let (_, sliced_events, hops) = sliced_route(
        &RouterConfig::default(),
        &ds.design.circuit,
        &ds.placement,
        &ds.design.constraints,
        5,
    );
    assert!(hops > 0);
    assert_eq!(
        sliced_events,
        deterministic_event_lines(&golden),
        "sliced run drifted from the checked-in golden event lines"
    );
}

#[test]
fn budget_exhaustion_point_survives_interruption() {
    // A deletion budget makes initial routing stop early and emit the
    // budget-fallback event; the fallback must land at the same global
    // selection whether or not the run was checkpoint-interrupted.
    let ds = golden_instance();
    let base = RouterConfig {
        budgets: Budgets {
            deletion_steps: Some(7),
            phase_reroutes: None,
        },
        ..RouterConfig::default()
    };
    let (full, trace) = GlobalRouter::new(base.clone())
        .route_traced(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("budgeted route succeeds");
    let full_events = deterministic_event_lines(&write_trace_jsonl(&trace));
    let (sliced, sliced_events, hops) = sliced_route(
        &base,
        &ds.design.circuit,
        &ds.placement,
        &ds.design.constraints,
        2,
    );
    assert!(hops >= 3, "budget 7 at quota 2 must hop (got {hops})");
    assert_eq!(sliced_events, full_events);
    assert_eq!(sliced.result.trees, full.result.trees);
}
