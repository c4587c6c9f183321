//! Measures the sessionized-core overhead (DESIGN.md §13) and emits the
//! CI artifacts for the `serve` job: a sample mid-run checkpoint and a
//! per-session JSONL stream.
//!
//! Three costs are profiled on the golden instance, per suspension:
//! `snapshot()` (capture), `write_checkpoint` + `parse_checkpoint`
//! (codec round-trip), and `resume()` (graph/STA/engine rebuild). The
//! run then re-executes the same instance uninterrupted and asserts the
//! deterministic event streams are byte-identical — the bench refuses
//! to publish artifacts for a drifting build.
//!
//! Usage: `session_resume [out_dir]` — writes `sample.bgrc` and
//! `session.jsonl` under `out_dir` (default `target/serve`).

use std::time::{Duration, Instant};

use bgr_core::probe::CollectingProbe;
use bgr_core::session::{RouteSession, StepOutcome};
use bgr_core::{GlobalRouter, RouterConfig};
use bgr_gen::golden_instance;
use bgr_io::{
    deterministic_event_lines, parse_checkpoint, write_checkpoint, write_event_lines,
    write_trace_jsonl,
};
use bgr_serve::{JobQueue, SessionState};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/serve".to_owned());
    let ds = golden_instance();
    let config = RouterConfig::default();
    println!(
        "{}: {} nets, quota 4 selections/slice",
        ds.name,
        ds.design.circuit.nets().len()
    );

    // Sliced run, hand-driven so each stage can be timed.
    let t0 = Instant::now();
    let mut session = RouteSession::start(
        config.clone(),
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
        CollectingProbe::new(),
    )
    .expect("session starts");
    let t_start = t0.elapsed();

    let (mut t_snap, mut t_codec, mut t_resume) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut events = String::new();
    let mut start_events = 0u64;
    let mut sample_checkpoint: Option<String> = None;
    let mut hops = 0u32;
    let mut bytes = 0usize;
    loop {
        if session.step(Some(4)).expect("step succeeds") == StepOutcome::Ready {
            break;
        }
        let t = Instant::now();
        let snapshot = session.snapshot();
        t_snap += t.elapsed();

        let t = Instant::now();
        let text = write_checkpoint(&snapshot);
        let reparsed = parse_checkpoint(&text).expect("checkpoint parses");
        t_codec += t.elapsed();
        bytes += text.len();
        sample_checkpoint.get_or_insert(text);

        let trace = session.into_probe().finish();
        events.push_str(&write_event_lines(&trace, start_events));
        start_events = reparsed.events_emitted;

        let t = Instant::now();
        session = RouteSession::resume(reparsed, CollectingProbe::new()).expect("resume succeeds");
        t_resume += t.elapsed();
        hops += 1;
    }
    let (routed, probe) = session.finish().expect("finish succeeds");
    events.push_str(&write_event_lines(&probe.finish(), start_events));
    println!(
        "sliced route: {hops} suspensions, {} selections, start {:.2} ms",
        routed.result.stats.selection_log.len(),
        ms(t_start)
    );
    println!(
        "per suspension: snapshot {:.3} ms, codec round-trip {:.3} ms ({} B avg), resume {:.3} ms",
        ms(t_snap) / hops as f64,
        ms(t_codec) / hops as f64,
        bytes / hops as usize,
        ms(t_resume) / hops as f64
    );

    // Equivalence gate: artifacts are only published for a build whose
    // interrupted stream is byte-identical to the uninterrupted one.
    let (full, trace) = GlobalRouter::new(config.clone())
        .route_traced(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("full route succeeds");
    let full_events = deterministic_event_lines(&write_trace_jsonl(&trace));
    if events != full_events || routed.result.trees != full.result.trees {
        eprintln!("resume equivalence FAILED — not publishing artifacts");
        std::process::exit(1);
    }
    println!(
        "equivalence: {} event lines byte-identical to the uninterrupted run",
        full_events.lines().count()
    );

    // The session JSONL artifact comes from the real job layer.
    let mut queue = JobQueue::new();
    let id = queue.submit(
        ds.name.clone(),
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
        config,
        Some(4),
    );
    let rounds = queue.run(2);
    let job = queue.job(id);
    assert_eq!(job.state(), SessionState::Completed, "{:?}", job.error());
    assert!(job.audit().expect("audited").is_clean());
    println!(
        "job queue: {rounds} rounds, {} slices, audit clean",
        job.slices()
    );

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let ckpt_path = format!("{out_dir}/sample.bgrc");
    let jsonl_path = format!("{out_dir}/session.jsonl");
    std::fs::write(
        &ckpt_path,
        sample_checkpoint.expect("at least one suspension"),
    )
    .expect("write sample.bgrc");
    std::fs::write(&jsonl_path, job.stream()).expect("write session.jsonl");
    println!(
        "wrote {ckpt_path} and {jsonl_path} ({} records)",
        job.stream().lines().count()
    );
}
