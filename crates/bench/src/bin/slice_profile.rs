//! Per-stage wall time and heap allocations of a sliced serve drain: the
//! four C1-scale constrained designs of the `serve_c1_q16` benchmark
//! workload, each advanced 16 deletion-loop selections per slice on one
//! thread, with a counting global allocator.
//!
//! Two drains run back to back:
//!
//! 1. `JobQueue::run` itself — the headline wall time and allocations
//!    per drain.
//! 2. The same slices hand-driven through the public session API the
//!    queue's local slices use, split into stages: `setup` (start and
//!    the step-0 checkpoint), `parse` (the whole checkpoint, on each
//!    job's first slice), `resume`, `cold scan` (every scoreboard build
//!    of a step), `loop` (the rest of the step), `snapshot`
//!    (`into_snapshot` and the engine drop), `splice` (the outgoing
//!    checkpoint and the slice's event lines) and `finish` (result
//!    assembly and the completion audit). Each slice resumes from the
//!    snapshot the job's previous slice produced, as a local slice does.
//!
//! The hand-driven drain must reproduce the queue's job streams and
//! selection logs, or the profile refuses to print.
//!
//! Usage: `slice_profile [drains]` — repeats both drains (default 3) and
//! prints the per-drain median of each figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bgr_core::probe::{CollectingProbe, Counter, Hist, Phase, Probe, Scope, TraceEvent};
use bgr_core::session::{EngineSnapshot, RouteSession, StepOutcome};
use bgr_core::{Budgets, OnViolation, RouterConfig, SelectionStrategy, VerifyLevel};
use bgr_gen::circuits::c1_params;
use bgr_gen::{custom, DataSet, GenParams, PlacementStyle};
use bgr_io::{parse_checkpoint_with_prefix, splice_checkpoint, write_checkpoint, write_event_lines};
use bgr_netlist::NetId;
use bgr_serve::JobQueue;
use bgr_verify::audit;

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) since
/// the process started.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Selections per slice, as in the benchmark workload.
const QUOTA: u64 = 16;

/// The stages of a hand-driven slice, in report order.
const STAGES: [&str; 8] = [
    "setup",
    "parse",
    "resume",
    "cold scan",
    "loop",
    "snapshot",
    "splice",
    "finish",
];

/// Wall time and allocations per stage.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    wall: Duration,
    allocs: u64,
}

/// A running stage measurement.
struct Meter {
    at: Instant,
    allocs: u64,
}

impl Meter {
    fn start() -> Self {
        Self {
            at: Instant::now(),
            allocs: ALLOCS.load(Ordering::Relaxed),
        }
    }

    fn stop(self) -> Cost {
        Cost {
            wall: self.at.elapsed(),
            allocs: ALLOCS.load(Ordering::Relaxed) - self.allocs,
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.wall += other.wall;
        self.allocs += other.allocs;
    }
}

impl std::ops::SubAssign for Cost {
    fn sub_assign(&mut self, other: Cost) {
        self.wall = self.wall.saturating_sub(other.wall);
        self.allocs -= other.allocs;
    }
}

/// A [`CollectingProbe`] that also meters every scoreboard build (the
/// [`Scope::Rekey`] not preceded by [`Scope::DeriveDirty`]): the cold
/// lane scans of a step.
struct StageProbe {
    inner: CollectingProbe,
    last_exit: Option<Scope>,
    open: Option<Meter>,
    cold: Cost,
}

impl StageProbe {
    fn new() -> Self {
        Self {
            inner: CollectingProbe::new(),
            last_exit: None,
            open: None,
            cold: Cost::default(),
        }
    }
}

impl Probe for StageProbe {
    const PROFILING: bool = true;

    fn event(&mut self, ev: TraceEvent) {
        self.inner.event(ev);
    }

    fn events_len(&self) -> usize {
        self.inner.events_len()
    }

    fn count(&mut self, c: Counter, by: u64) {
        self.inner.count(c, by);
    }

    fn sample(&mut self, h: Hist, value: u64) {
        self.inner.sample(h, value);
    }

    fn phase_enter(&mut self, phase: Phase) {
        self.inner.phase_enter(phase);
    }

    fn phase_exit(&mut self, phase: Phase) {
        self.inner.phase_exit(phase);
    }

    fn scope_enter(&mut self, scope: Scope) {
        if scope == Scope::Rekey && self.last_exit != Some(Scope::DeriveDirty) {
            self.open = Some(Meter::start());
        }
    }

    fn scope_exit(&mut self, scope: Scope) {
        if scope == Scope::Rekey {
            if let Some(m) = self.open.take() {
                self.cold += m.stop();
            }
        }
        self.last_exit = Some(scope);
    }
}

/// The benchmark workload's router configuration.
fn config() -> RouterConfig {
    RouterConfig {
        threads: 1,
        shards: 4,
        verify: VerifyLevel::Off,
        selection: SelectionStrategy::Scoreboard,
        on_violation: OnViolation::BestEffort,
        budgets: Budgets::unlimited(),
        deadline: None,
        ..RouterConfig::default()
    }
}

/// The workload's four designs (the benchmark renames their
/// identifiers, which changes no route).
fn designs() -> Vec<DataSet> {
    (0..4u64)
        .map(|i| {
            let seed = 0xC1 ^ i;
            let params = GenParams {
                seed,
                ..c1_params()
            };
            custom(&format!("C1-{seed:x}"), params, PlacementStyle::EvenFeed)
        })
        .collect()
}

/// What a drain leaves to compare: per job, its stream and selection
/// log.
type Outcome = Vec<(String, Vec<(NetId, u32)>)>;

/// Drains the designs through `JobQueue::run` on one thread.
fn queue_drain(designs: &[DataSet]) -> (Cost, Outcome) {
    let inputs: Vec<DataSet> = designs.to_vec();
    let m = Meter::start();
    let mut queue = JobQueue::new();
    for ds in inputs {
        queue.submit(
            ds.name,
            ds.design.circuit,
            ds.placement,
            ds.design.constraints,
            config(),
            Some(QUOTA),
        );
    }
    queue.run(1);
    let cost = m.stop();
    let outcome = queue
        .jobs()
        .iter()
        .map(|j| {
            let log = j.routed().expect("job finished").result.stats.selection_log.clone();
            (j.stream().to_owned(), log)
        })
        .collect();
    (cost, outcome)
}

/// One job of the hand-driven drain.
struct Job {
    stream: String,
    checkpoint: String,
    /// The design prefix length of `checkpoint`.
    prefix_len: usize,
    /// The snapshot the last slice produced (`None` until the first
    /// slice parsed the step-0 checkpoint).
    kept: Option<EngineSnapshot>,
    log: Option<Vec<(NetId, u32)>>,
}

/// The hand-driven drain: per stage, its summed cost.
fn staged_drain(designs: &[DataSet]) -> ([Cost; STAGES.len()], Outcome) {
    let mut cost = [Cost::default(); STAGES.len()];
    let mut jobs: Vec<Job> = Vec::new();
    for ds in designs.iter().cloned() {
        let m = Meter::start();
        let session = RouteSession::start(
            config(),
            ds.design.circuit,
            ds.placement,
            ds.design.constraints,
            CollectingProbe::new(),
        )
        .expect("design routes");
        let (snap, probe) = session.into_snapshot();
        let checkpoint = write_checkpoint(&snap);
        let stream = write_event_lines(&probe.finish(), 0);
        cost[0] += m.stop();
        jobs.push(Job {
            stream,
            checkpoint,
            prefix_len: 0,
            kept: None,
            log: None,
        });
    }
    while jobs.iter().any(|j| j.log.is_none()) {
        for job in jobs.iter_mut().filter(|j| j.log.is_none()) {
            let snap = match job.kept.take() {
                Some(snap) => snap,
                None => {
                    let m = Meter::start();
                    let (snap, prefix_len) =
                        parse_checkpoint_with_prefix(&job.checkpoint).expect("checkpoint parses");
                    job.prefix_len = prefix_len;
                    cost[1] += m.stop();
                    snap
                }
            };
            let start_events = snap.events_emitted;
            let constraints = snap.design.constraints().to_vec();
            let m = Meter::start();
            let mut session = RouteSession::resume(snap, StageProbe::new()).expect("resumes");
            cost[2] += m.stop();
            let m = Meter::start();
            let outcome = session.step(Some(QUOTA)).expect("step runs");
            let mut step = m.stop();
            match outcome {
                StepOutcome::Suspended => {
                    let m = Meter::start();
                    let (snap, probe) = session.into_snapshot();
                    cost[5] += m.stop();
                    step -= probe.cold;
                    cost[3] += probe.cold;
                    cost[4] += step;
                    let m = Meter::start();
                    job.checkpoint = splice_checkpoint(&job.checkpoint[..job.prefix_len], &snap);
                    job.stream
                        .push_str(&write_event_lines(&probe.inner.finish(), start_events));
                    cost[6] += m.stop();
                    job.kept = Some(snap);
                }
                StepOutcome::Ready => {
                    let m = Meter::start();
                    let (routed, probe) = session.finish().expect("route finishes");
                    job.stream
                        .push_str(&write_event_lines(&probe.inner.finish(), start_events));
                    let report = audit(
                        &routed.circuit,
                        &routed.placement,
                        &constraints,
                        &config(),
                        &routed.result,
                    );
                    assert!(report.is_clean(), "completion audit failed: {report}");
                    cost[7] += m.stop();
                    step -= probe.cold;
                    cost[3] += probe.cold;
                    cost[4] += step;
                    job.log = Some(routed.result.stats.selection_log);
                }
            }
        }
    }
    let outcome = jobs
        .into_iter()
        .map(|j| (j.stream, j.log.expect("drained")))
        .collect();
    (cost, outcome)
}

/// The median of `xs`.
fn median<T: Copy + PartialOrd>(mut xs: Vec<T>) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    xs[xs.len() / 2]
}

/// The deterministic event lines of a job stream (its progress and
/// done records depend on the slicing, not on the route).
fn event_lines(stream: &str) -> String {
    stream
        .lines()
        .filter(|l| l.contains("\"type\":\"event\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn main() {
    let drains: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("drains is a count"))
        .unwrap_or(3)
        .max(1);
    let designs = designs();
    let mut queue: Vec<Cost> = Vec::new();
    let mut staged: Vec<[Cost; STAGES.len()]> = Vec::new();
    for _ in 0..drains {
        let (q, want) = queue_drain(&designs);
        let (s, got) = staged_drain(&designs);
        for ((ws, wl), (gs, gl)) in want.iter().zip(&got) {
            assert!(wl == gl, "hand-driven selection log differs from the queue's");
            assert!(
                event_lines(ws) == event_lines(gs),
                "hand-driven event stream differs from the queue's"
            );
        }
        queue.push(q);
        staged.push(s);
    }
    println!("serve_c1_q16 designs, quota {QUOTA}, 1 thread, median of {drains} drains");
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "JobQueue::run drain: {:.1} ms, {} allocations",
        median(queue.iter().map(|c| ms(c.wall)).collect()),
        median(queue.iter().map(|c| c.allocs).collect())
    );
    println!("{:<10} {:>10} {:>12}", "stage", "wall ms", "allocations");
    for (i, stage) in STAGES.iter().enumerate() {
        println!(
            "{stage:<10} {:>10.1} {:>12}",
            median(staged.iter().map(|c| ms(c[i].wall)).collect()),
            median(staged.iter().map(|c| c[i].allocs).collect())
        );
    }
    let totals: Vec<Cost> = staged
        .iter()
        .map(|c| {
            let mut t = Cost::default();
            c.iter().for_each(|&s| t += s);
            t
        })
        .collect();
    println!(
        "{:<10} {:>10.1} {:>12}",
        "total",
        median(totals.iter().map(|c| ms(c.wall)).collect()),
        median(totals.iter().map(|c| c.allocs).collect())
    );
}
