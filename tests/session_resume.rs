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
//! Every suspension passes through the *serialized* checkpoint codec
//! (`write_checkpoint` → `parse_checkpoint`), not an in-memory
//! snapshot. At every suspension the checkpoint a serve slice would
//! write — the previous checkpoint's design prefix spliced onto the new
//! state tail — must equal the full serialization byte for byte. The
//! golden instance's sliced run is additionally pinned against the
//! checked-in `tests/golden/trace.jsonl`, a deletion-budgeted variant
//! proves the fallback lands at the same point with or without
//! interruption, and a checkpoint carrying other `config threads` /
//! `config shards` values (which have no effect) drains exactly like
//! the default one.

use bgr::gen::golden_instance;
use bgr::io::{
    deterministic_event_lines, parse_checkpoint_with_prefix, reconfigure_checkpoint,
    splice_checkpoint, write_checkpoint, write_event_lines, write_trace_jsonl,
};
use bgr::layout::Placement;
use bgr::netlist::Circuit;
use bgr::router::{
    Budgets, CollectingProbe, GlobalRouter, RouteSession, Routed, RouterConfig, StepOutcome,
};
use bgr::serve::{run_slice, FinishVerdict, SliceOutcome};
use bgr::timing::PathConstraint;
use bgr::verify::audit;

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

/// The default configuration sliced at quota 3. `threads` and `shards`
/// have no effect; `checkpoint_threads_and_shards_lines_have_no_effect`
/// drains a checkpoint carrying other values for them.
#[test]
fn resume_equals_uninterrupted_across_threads_and_shards() {
    let ds = golden_instance();
    let config = RouterConfig::default();
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
    assert_eq!(sliced_events, full_events, "event stream diverged");
    assert_eq!(sliced.result.trees, full.result.trees);
    assert_eq!(sliced.result.channel_tracks, full.result.channel_tracks);
    assert_eq!(
        sliced.result.stats.selection_log,
        full.result.stats.selection_log
    );
    assert_eq!(sliced.result.stats.deletions, full.result.stats.deletions);

    // Independent audit certifies both endpoints, identically.
    let audit_of = |routed: &Routed| {
        audit(
            &routed.circuit,
            &routed.placement,
            &ds.design.constraints,
            &config,
            &routed.result,
        )
    };
    let audit_full = audit_of(&full);
    assert!(audit_full.is_clean(), "{:?}", audit_full.first_failure());
    assert_eq!(audit_full, audit_of(&sliced));
}

/// Drains `checkpoint` through the serve slice executor in
/// `quota`-selection slices. Returns every suspended slice's checkpoint,
/// the concatenated event lines and the finish verdict.
fn drain(mut checkpoint: String, quota: u64) -> (Vec<String>, String, FinishVerdict) {
    let mut checkpoints = Vec::new();
    let mut events = String::new();
    loop {
        match run_slice(&checkpoint, Some(quota)) {
            SliceOutcome::Suspended {
                checkpoint: next,
                events_jsonl,
                ..
            } => {
                events.push_str(&events_jsonl);
                checkpoints.push(next.clone());
                checkpoint = next;
            }
            SliceOutcome::Finished {
                events_jsonl,
                verdict,
                ..
            } => {
                events.push_str(&events_jsonl);
                return (checkpoints, events, verdict);
            }
            SliceOutcome::Failed { error } => panic!("slice failed: {error}"),
        }
    }
}

/// `RouterConfig::{threads, shards}` have no effect. A checkpoint whose
/// `config threads`/`config shards` lines say 8 and 1 — as one written
/// by an earlier build or for a coordinator's portfolio arm may — drains
/// exactly like the default one: each spliced checkpoint differs from
/// the default drain's only in those two lines, and the event stream and
/// finish verdict are equal.
#[test]
fn checkpoint_threads_and_shards_lines_have_no_effect() {
    let ds = golden_instance();
    let session = RouteSession::start(
        RouterConfig::default(),
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
        CollectingProbe::new(),
    )
    .expect("session starts");
    let default = write_checkpoint(&session.into_snapshot().0);
    let other = RouterConfig {
        threads: 8,
        shards: 1,
        ..RouterConfig::default()
    };
    let rewritten = reconfigure_checkpoint(&default, &other).expect("checkpoint parses");
    assert!(
        rewritten.contains("\nconfig threads 8\n") && rewritten.contains("\nconfig shards 1\n")
    );

    let (want, want_events, want_verdict) = drain(default, 3);
    let (got, got_events, got_verdict) = drain(rewritten, 3);
    assert!(want.len() > 3, "quota 3 must force several slices");
    assert_eq!(
        got.len(),
        want.len(),
        "the drains took different slice counts"
    );
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        let want = reconfigure_checkpoint(want, &other).expect("checkpoint parses");
        assert!(
            *got == want,
            "checkpoint {i} differs beyond its config lines"
        );
    }
    assert_eq!(got_events, want_events);
    assert_eq!(got_verdict, want_verdict);
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
