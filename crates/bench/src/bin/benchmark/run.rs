//! The timed run: end-to-end metrics with tracing off, every output
//! checked.

use std::collections::BTreeMap;
use std::time::Instant;

use bgr_core::{GlobalRouter, NoopProbe, Routed, RouterConfig};
use bgr_serve::{Job, JobQueue, SessionState};

use crate::inputs::Design;
use crate::trace::{Owner, Tracer};
use crate::workload::{
    check, route, signoff, Quality, Workload, QUEUE_THREADS, SETUPS, SLICE_QUOTA,
};

/// End-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delay_ratio", "ratio"),
    ("area_mm2", "mm2"),
    ("length_mm", "mm"),
];

/// Timed repetitions per run, however short `--seconds` is, so every
/// latency median has at least this many samples.
const MIN_REPS: usize = 3;

/// End-to-end metrics that are a pure function of the inputs.
pub const DETERMINISTIC: [&str; 3] = ["delay_ratio", "area_mm2", "length_mm"];

/// Samples, operation counts and failures of one run.
#[derive(Debug, Default)]
pub struct Run {
    /// Routing operations performed (repetitions, jobs, references,
    /// replays).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Lines for the human-readable report (hashes, counts).
    pub notes: Vec<String>,
}

impl Run {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Counts one operation; a failure is recorded and yields `None`.
    pub fn op<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome.map_err(|e| self.failures.push(e)).ok()
    }

    fn quality(&mut self, q: Quality) {
        self.sample("delay_ratio", q.delay_ratio);
        self.sample("area_mm2", q.area_mm2);
        self.sample("length_mm", q.length_mm);
        self.notes.push(format!(
            "violations after channel routing: {}",
            q.violations
        ));
    }
}

/// Repeats `rep` at least `min` times, then while time remains: a
/// repetition starts only when one more of the last one's length still
/// fits in `seconds`.
pub fn repeat(min: usize, seconds: f64, mut rep: impl FnMut()) {
    let start = Instant::now();
    for done in 1.. {
        let t = Instant::now();
        rep();
        if done >= min && start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Builds the inputs [`SETUPS`] times (`setup_s` samples) and returns
/// the last build.
fn setup(run: &mut Run, workload: Workload, seed: u64) -> Vec<Design> {
    let mut designs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        designs = workload.designs(seed);
        run.sample("setup_s", t.elapsed().as_secs_f64());
    }
    designs
}

/// The timed run of `workload`.
pub fn timed(workload: Workload, seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let designs = setup(&mut run, workload, seed);
    let config = workload.config();
    let t = Instant::now();
    match workload {
        Workload::RouteC2 | Workload::RouteC3Unconstrained => {
            timed_route(&mut run, &config, &designs[0], seconds);
        }
        Workload::ServeC1Q16 => timed_serve(&mut run, &config, &designs, seconds),
    }
    run.notes
        .push(format!("measured for {:.1} s", t.elapsed().as_secs_f64()));
    if let Some(mb) = run.op(peak_rss_mb()) {
        run.sample("peak_rss_mb", mb);
    }
    run
}

/// Routes, audits and hashes one untraced repetition: the route, its
/// selection-log hash and the wall seconds of `start`→`finish`.
pub fn checked_route(config: &RouterConfig, design: &Design) -> Result<(Routed, u64, f64), String> {
    let (routed, _, wall) = route(
        config,
        design,
        NoopProbe,
        &mut Tracer::new(false),
        Owner::Rep(0),
    )
    .map_err(|e| format!("{}: {e}", design.name))?;
    let hash = check(config, design, &routed)?;
    Ok((routed, hash, wall))
}

/// Fails the operation when `hash` differs from the first one seen.
pub fn same_hash(first: &mut Option<u64>, hash: u64) -> Result<(), String> {
    match *first.get_or_insert(hash) {
        h if h == hash => Ok(()),
        h => Err(format!(
            "selection log hash {hash:016x} differs from {h:016x}"
        )),
    }
}

fn timed_route(run: &mut Run, config: &RouterConfig, design: &Design, seconds: f64) {
    let mut first = None;
    let mut quality = None;
    repeat(MIN_REPS, seconds, || {
        let rep = checked_route(config, design).and_then(|(routed, hash, wall)| {
            same_hash(&mut first, hash)?;
            if quality.is_none() {
                quality = Some(signoff(design, &routed)?);
            }
            Ok(wall)
        });
        if let Some(wall) = run.op(rep) {
            run.sample("latency_s", wall);
        }
    });
    if let Some(h) = first {
        run.notes.push(format!("selection-log hash {h:016x}"));
    }
    if let Some(q) = quality {
        run.quality(q);
    }
}

/// Untimed uninterrupted routes of every design: the serve oracle.
pub fn references(run: &mut Run, config: &RouterConfig, designs: &[Design]) -> Option<Vec<Routed>> {
    designs
        .iter()
        .map(|d| {
            let routed = GlobalRouter::new(config.clone())
                .route(
                    d.circuit.clone(),
                    d.placement.clone(),
                    d.constraints.clone(),
                )
                .map_err(|e| format!("{}: reference route: {e}", d.name));
            run.op(routed)
        })
        .collect()
}

/// A drained job must be `Completed` with a clean audit, and equal the
/// uninterrupted reference in selection log and trees.
fn check_job(job: &Job, reference: &Routed) -> Result<(), String> {
    let name = job.name();
    if job.state() != SessionState::Completed {
        return Err(format!(
            "{name}: ended {} ({:?})",
            job.state().label(),
            job.error()
        ));
    }
    if !job.audit().is_some_and(|a| a.is_clean()) {
        return Err(format!("{name}: completion audit not clean"));
    }
    let routed = job.routed().ok_or(format!("{name}: no routed result"))?;
    if routed.result.stats.selection_log != reference.result.stats.selection_log {
        return Err(format!(
            "{name}: selection log differs from the uninterrupted route"
        ));
    }
    if routed.result.trees != reference.result.trees {
        return Err(format!("{name}: trees differ from the uninterrupted route"));
    }
    Ok(())
}

/// Submits every design and drains the queue: the queue (job `i` is
/// design `i`), its rounds and the wall seconds.
pub fn drain(config: &RouterConfig, designs: &[Design]) -> (JobQueue, usize, f64) {
    let inputs = designs.to_vec();
    let t = Instant::now();
    let mut queue = JobQueue::new();
    for d in inputs {
        queue.submit(
            d.name,
            d.circuit,
            d.placement,
            d.constraints,
            config.clone(),
            Some(SLICE_QUOTA),
        );
    }
    let rounds = queue.run(QUEUE_THREADS);
    (queue, rounds, t.elapsed().as_secs_f64())
}

/// Checks every drained job; true when all pass.
pub fn check_drain(run: &mut Run, queue: &JobQueue, refs: &[Routed]) -> bool {
    let mut ok = true;
    for (job, reference) in queue.jobs().iter().zip(refs) {
        ok &= run.op(check_job(job, reference)).is_some();
    }
    ok
}

fn timed_serve(run: &mut Run, config: &RouterConfig, designs: &[Design], seconds: f64) {
    let Some(refs) = references(run, config, designs) else {
        return;
    };
    let mut quality: Option<Quality> = None;
    repeat(MIN_REPS, seconds, || {
        let (queue, _, wall) = drain(config, designs);
        if !check_drain(run, &queue, &refs) {
            return;
        }
        run.sample("latency_s", wall);
        if quality.is_none() {
            let signed: Result<Vec<Quality>, String> = queue
                .jobs()
                .iter()
                .zip(designs)
                .map(|(job, d)| signoff(d, job.routed().expect("checked above")))
                .collect();
            quality = run
                .op(signed)
                .and_then(|qs| qs.into_iter().reduce(Quality::merge));
        }
    });
    if let Some(q) = quality {
        run.quality(q);
    }
}
