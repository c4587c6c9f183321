//! Sessionized job layer over the router: a [`JobQueue`] of routing
//! [`Job`]s, each advanced one budgeted slice at a time, suspended to a
//! real serialized checkpoint between slices, and audited by the
//! independent verifier on completion (DESIGN.md §13).
//!
//! # State machine
//!
//! ```text
//!            ┌─────── slice ───────┐
//!            ▼                     │
//! Created ──▶ Suspended(checkpoint) ┘
//!    │              │
//!    └──────────────┴──▶ Completed │ Failed
//! ```
//!
//! Every arrow is one slice, taken the same way in-process and on a
//! `bgr-net` worker: **lease** ([`JobQueue::lease_spec`] materializes
//! the step-0 checkpoint on demand and freezes the remaining deadline
//! budget), **run** ([`run_lease`], the one executor) and **apply**
//! ([`JobQueue::apply_remote`] validates the trace segment and folds
//! the [`SliceOutcome`]). [`JobQueue::run_round`] takes those steps for
//! every runnable job over `bgr_core::par::scoped_map`.
//! **No session outlives a slice:** every slice rebuilds its session
//! with `RouteSession::resume` and ends by writing a serialized
//! checkpoint, so a queue can in principle be drained by a different
//! process than the one that filled it. A slice re-encodes no design
//! either: the design never changes after the session starts, so the
//! outgoing checkpoint is the leased one's design prefix, byte for
//! byte, followed by a fresh state tail ([`run_slice`]). That is exact
//! because every checkpoint a queue holds is canonical
//! ([`JobQueue::submit_checkpoint`]). Only the snapshot outlives a
//! local slice: a job drained by
//! [`JobQueue::run_round`] keeps the [`EngineSnapshot`] its last slice
//! suspended at — the one its checkpoint serializes — and the next local
//! slice resumes from it without parsing the checkpoint at all. The
//! checkpoint is still written every slice: it is what a lease, a
//! cancelled job or a journal reads. Every path that hands the job's
//! next slice to text (a lease, cancellation, a replayed or submitted
//! checkpoint, a failure) drops the kept snapshot, so that slice parses
//! the checkpoint whole.
//!
//! # Streams
//!
//! Each job accumulates a JSONL stream: the deterministic trace-event
//! lines of every slice (serialized at the slice's global `seq` offset,
//! so the concatenation is byte-identical to an uninterrupted run's
//! event lines) interleaved with `{"type":"progress",...}` /
//! `{"type":"done",...}` records at slice boundaries.
//!
//! # Cancellation
//!
//! [`JobQueue::cancel`] is cooperative and lands at the next slice
//! boundary: the in-flight slice (if any) completes and checkpoints,
//! after which the job is skipped by subsequent rounds — parked as
//! `Suspended` with its checkpoint intact. [`JobQueue::reactivate`]
//! clears the flag and the job continues from exactly where it stopped.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bgr_core::probe::CollectingProbe;
use bgr_core::session::{EngineSnapshot, RouteSession, SessionStage, StepOutcome};
use bgr_core::{par, RouteError, Routed, RouterConfig};
use bgr_io::{
    escape_json, parse_checkpoint, parse_checkpoint_with_prefix, segment_seq_span,
    splice_checkpoint, write_checkpoint, write_checkpoint_with_prefix, write_event_lines,
};
use bgr_layout::Placement;
use bgr_metrics::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
use bgr_netlist::Circuit;
use bgr_timing::PathConstraint;
use bgr_verify::{audit, AuditReport};

/// Deterministic summary of a *finished* route slice: everything a
/// coordinator needs to build the job's `done` stream record and to
/// rank speculative-portfolio arms, with nothing non-serializable.
///
/// Every field is a pure function of the slice's inputs (checkpoint +
/// quota), so two workers finishing the same lease produce equal
/// verdicts — the property `bgr-net`'s deterministic result acceptance
/// rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishVerdict {
    /// Whether the independent completion audit found no divergence.
    pub audit_clean: bool,
    /// Comparisons the audit performed.
    pub audit_checks: u64,
    /// The audit report's stable one-line `Display`.
    pub audit_line: String,
    /// The residual-violation report's one-line `Display`, when the
    /// route finished best-effort with constraints still violated.
    pub violations_line: Option<String>,
    /// No residual violations (the portfolio's first-rank key).
    pub feasible: bool,
    /// Worst constraint margin in ps (`+∞` with no constraints) — the
    /// portfolio's delay key, larger is better.
    pub worst_margin_ps: f64,
    /// Sum of final channel track maxima — the portfolio's area key,
    /// smaller is better.
    pub area_tracks: u64,
    /// Total routed wirelength in µm (reporting only).
    pub total_length_um: f64,
}

impl FinishVerdict {
    /// Whether this verdict wins over `other` under the portfolio's
    /// total deterministic order: audited feasibility first, then worst
    /// margin (descending — more slack wins), then area tracks
    /// (ascending), then total length (ascending). Ties fall through to
    /// `false` so the caller's arm-index order (ascending) decides —
    /// completing the total order.
    pub fn beats(&self, other: &FinishVerdict) -> bool {
        let ok_self = self.audit_clean && self.feasible;
        let ok_other = other.audit_clean && other.feasible;
        if ok_self != ok_other {
            return ok_self;
        }
        match self.worst_margin_ps.total_cmp(&other.worst_margin_ps) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => {}
        }
        if self.area_tracks != other.area_tracks {
            return self.area_tracks < other.area_tracks;
        }
        self.total_length_um.total_cmp(&other.total_length_um) == std::cmp::Ordering::Less
    }
}

/// What one budgeted slice of a checkpointed session concluded — the
/// transport-agnostic result of [`run_slice`], applied to a [`Job`] by
/// the local queue and shipped over `bgr-net` by remote workers, in the
/// same form either way: every field is deterministic and serializable.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceOutcome {
    /// The session suspended again: a fresh checkpoint plus the slice's
    /// deterministic event lines (already serialized at the stream's
    /// global `seq` offset).
    Suspended {
        /// Serialized checkpoint of the suspension.
        checkpoint: String,
        /// Stable label of the stage the session parked at.
        stage: &'static str,
        /// Deterministic events emitted across the whole session.
        events_emitted: u64,
        /// Global selections performed across the whole session.
        selections_done: u64,
        /// The slice's `"type":"event"` lines, newline-terminated.
        events_jsonl: String,
    },
    /// The session finished and was audited.
    Finished {
        /// Deterministic events emitted across the whole session.
        events_emitted: u64,
        /// Global selections performed across the whole session.
        selections_done: u64,
        /// The slice's `"type":"event"` lines, newline-terminated.
        events_jsonl: String,
        /// The deterministic completion verdict.
        verdict: FinishVerdict,
    },
    /// The slice failed structurally.
    Failed {
        /// The structured error.
        error: RouteError,
    },
}

/// Runs one budgeted slice from a serialized checkpoint: parse →
/// resume → one [`RouteSession::step`] → re-checkpoint or finish +
/// independent audit. The serving path runs the same executor through
/// [`run_lease`] and [`JobQueue::run_round`].
///
/// Self-contained: the checkpoint embeds the design, configuration and
/// the global event offset, so `(checkpoint, quota)` fully determines
/// the outcome.
///
/// The outgoing checkpoint re-uses the incoming one's design prefix
/// byte for byte ([`splice_checkpoint`]) and re-encodes only the state
/// tail. That equals the full [`write_checkpoint`] because every
/// checkpoint a queue holds is canonical (see
/// [`JobQueue::submit_checkpoint`]); at [`bgr_core::VerifyLevel::Phases`]
/// and above the slice checks it, failing with
/// [`RouteError::Internal`] on any difference.
pub fn run_slice(checkpoint: &str, quota: Option<u64>) -> SliceOutcome {
    execute(checkpoint, None, quota, None).0
}

/// What a slice hands back beside its [`SliceOutcome`] to a job that
/// ran it in-process ([`Job::run_local`]). None of it leaves the
/// process: the outcome alone is what a remote worker ships.
enum Artifacts {
    /// A failed slice leaves nothing.
    None,
    /// The snapshot a suspended slice stopped at, for the job to keep.
    Snapshot(Box<Kept>),
    /// The route and completion audit of a finished slice.
    Finished(Box<Routed>, AuditReport),
}

/// The snapshot a job's last local slice (or its materialization)
/// suspended at, kept for the next local slice to resume from: the
/// job's checkpoint is its serialization, and the checkpoint's first
/// `prefix_len` bytes are the design prefix the next slice splices.
#[derive(Debug)]
struct Kept {
    snapshot: EngineSnapshot,
    prefix_len: usize,
}

/// The one slice executor behind [`run_slice`], [`run_lease`] and the
/// local slices of [`JobQueue::run_round`].
///
/// A spent budget (`deadline_ms == Some(0)`) abandons the slice unrun.
/// With `kept` — the snapshot `checkpoint` serializes, kept by its job —
/// nothing is parsed; without it the whole checkpoint is. A suspended
/// slice hands its snapshot back for the job to keep, a finished one its
/// route and audit ([`Artifacts`]). At
/// [`bgr_core::VerifyLevel::Phases`] and above the splice oracle
/// ([`check_splice`]) writes the full checkpoint from the outgoing
/// snapshot, so a kept snapshot whose design differs from the embedded
/// one fails the slice.
fn execute(
    checkpoint: &str,
    kept: Option<Kept>,
    quota: Option<u64>,
    deadline_ms: Option<u64>,
) -> (SliceOutcome, Artifacts) {
    let failed = |error| (SliceOutcome::Failed { error }, Artifacts::None);
    if deadline_ms == Some(0) {
        return failed(RouteError::DeadlineExpired {});
    }
    let (snap, prefix_len) = match kept {
        Some(Kept {
            snapshot,
            prefix_len,
        }) => (snapshot, prefix_len),
        None => match parse_checkpoint_with_prefix(checkpoint) {
            Ok(parsed) => parsed,
            Err(e) => {
                return failed(RouteError::Checkpoint {
                    message: e.to_string(),
                })
            }
        },
    };
    let start_events = snap.events_emitted;
    let constraints = snap.design.constraints().to_vec();
    let config = snap.config.clone();
    let mut session = match RouteSession::resume(snap, CollectingProbe::new()) {
        Ok(s) => s,
        Err(e) => return failed(e),
    };
    let outcome = match session.step(quota) {
        Ok(o) => o,
        Err(e) => return failed(e),
    };
    match outcome {
        StepOutcome::Suspended => {
            let selections_done = session.selections_done();
            let (snap, probe) = session.into_snapshot();
            let stage = snap.stage.label();
            let events_emitted = snap.events_emitted;
            let checkpoint = splice_checkpoint(&checkpoint[..prefix_len], &snap);
            if snap.config.verify.at_phases() {
                if let Err(error) = check_splice(&checkpoint, &snap) {
                    return failed(error);
                }
            }
            let trace = probe.finish();
            let out = SliceOutcome::Suspended {
                checkpoint,
                stage,
                events_emitted,
                selections_done,
                events_jsonl: write_event_lines(&trace, start_events),
            };
            let kept = Kept {
                snapshot: snap,
                prefix_len,
            };
            (out, Artifacts::Snapshot(Box::new(kept)))
        }
        StepOutcome::Ready => {
            let events_emitted = session.events_emitted();
            let selections_done = session.selections_done();
            match session.finish() {
                Ok((routed, probe)) => {
                    let trace = probe.finish();
                    let events_jsonl = write_event_lines(&trace, start_events);
                    let report = audit(
                        &routed.circuit,
                        &routed.placement,
                        &constraints,
                        &config,
                        &routed.result,
                    );
                    let verdict = FinishVerdict {
                        audit_clean: report.is_clean(),
                        audit_checks: report.total_checks(),
                        audit_line: report.to_string(),
                        violations_line: routed.result.violations.as_ref().map(|v| v.to_string()),
                        feasible: routed.result.violations.is_none(),
                        worst_margin_ps: routed.result.timing.worst_margin_ps(),
                        area_tracks: routed
                            .result
                            .channel_tracks
                            .iter()
                            .map(|&t| t.max(0) as u64)
                            .sum(),
                        total_length_um: routed.result.total_length_um,
                    };
                    let out = SliceOutcome::Finished {
                        events_emitted,
                        selections_done,
                        events_jsonl,
                        verdict,
                    };
                    (out, Artifacts::Finished(Box::new(routed), report))
                }
                Err(e) => failed(e),
            }
        }
    }
}

/// The splice oracle: `spliced` must equal the full serialization of
/// `snap`, byte for byte. For a slice that resumed from a kept snapshot
/// this is also the kept-design oracle: the prefix of `spliced` is the
/// checkpoint's embedded design and `snap` carries the kept one.
fn check_splice(spliced: &str, snap: &EngineSnapshot) -> Result<(), RouteError> {
    let full = write_checkpoint(snap);
    if spliced == full {
        return Ok(());
    }
    let at = spliced
        .bytes()
        .zip(full.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    Err(RouteError::Internal {
        phase: "serve",
        message: format!(
            "spliced checkpoint differs from write_checkpoint at byte {at} ({} vs {} bytes)",
            spliced.len(),
            full.len()
        ),
    })
}

/// Runs one leased slice on the single slice executor that local rounds
/// ([`JobQueue::run_round`]) run too, so a distributed drain is
/// byte-identical to a local one by construction, not by parallel
/// maintenance of two pipelines. A local slice differs only in its
/// inputs: it reads its job's own checkpoint and resumes from the
/// job's kept snapshot.
///
/// A lease whose frozen budget is spent (`deadline_ms == Some(0)`) is
/// abandoned unrun with [`RouteError::DeadlineExpired`]; any other
/// lease is [`run_slice`] from its checkpoint under its quota.
pub fn run_lease(spec: &LeaseSpec) -> SliceOutcome {
    execute(&spec.checkpoint, None, spec.quota, spec.deadline_ms).0
}

/// Admission limits for a [`JobQueue`] — the serve layer's half of the
/// overload-governance ladder (DESIGN.md §15).
///
/// Every field is `None` by default, which makes the policy **provably
/// inert**: an ungoverned queue accepts exactly what it always did and
/// produces byte-identical streams. Set a limit and the corresponding
/// intake check turns on; a trip is a structured [`Rejected`] verdict,
/// never a panic and never a silent drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Maximum live (non-terminal) jobs the queue will hold.
    pub max_jobs: Option<usize>,
    /// Maximum total serialized checkpoint bytes held by live jobs at
    /// admission time. A queue already holding this much parked state
    /// refuses new work until something drains.
    pub max_checkpoint_bytes: Option<u64>,
    /// Wall-clock budget per admitted job, in milliseconds, measured
    /// from its first slice materialization. Propagated into every
    /// [`LeaseSpec`] so remote workers abandon slices whose budget has
    /// already expired; an expired job fails with
    /// [`RouteError::DeadlineExpired`] instead of consuming more fleet.
    pub deadline_ms: Option<u64>,
}

impl QueuePolicy {
    /// The default no-limits policy.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Whether no limit is configured (the inert state).
    pub fn is_unbounded(&self) -> bool {
        self.max_jobs.is_none() && self.max_checkpoint_bytes.is_none() && self.deadline_ms.is_none()
    }
}

/// Structured admission verdict from [`JobQueue::try_submit`]: why the
/// queue refused a job. Callers (the serve binary, the coordinator)
/// surface the reason instead of crashing or blocking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The queue already holds [`QueuePolicy::max_jobs`] live jobs.
    QueueFull {
        /// The configured cap.
        max_jobs: usize,
        /// Live jobs at the moment of refusal.
        live: usize,
    },
    /// Live jobs already hold [`QueuePolicy::max_checkpoint_bytes`] of
    /// serialized checkpoint state.
    CheckpointBytes {
        /// The configured cap.
        max_bytes: u64,
        /// Bytes held at the moment of refusal.
        held: u64,
    },
}

impl Rejected {
    /// Stable kebab-case reason tag (metrics labels, wire details).
    pub fn code(&self) -> &'static str {
        match self {
            Self::QueueFull { .. } => "queue-full",
            Self::CheckpointBytes { .. } => "checkpoint-bytes",
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { max_jobs, live } => {
                write!(f, "queue full: {live} live jobs at cap {max_jobs}")
            }
            Self::CheckpointBytes { max_bytes, held } => {
                write!(
                    f,
                    "checkpoint budget exhausted: {held} bytes held at cap {max_bytes}"
                )
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// The serve layer's operational metrics, registered on a shared
/// [`MetricsRegistry`] and updated at slice boundaries.
///
/// Everything here is *diagnostic*: the registry observes the queue
/// from the outside and is never consulted by routing decisions, so
/// attaching one changes no deterministic observable — job streams,
/// checkpoints and audits are byte-identical with and without metrics
/// (asserted by `tests/metrics_determinism.rs`). Wall clock touches
/// exactly one cell, `slice_latency_us`.
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Runnable jobs at the start of the most recent round.
    pub queue_depth: GaugeHandle,
    /// Wall-clock of one job slice, µs (the only wall-clock metric).
    pub slice_latency_us: HistogramHandle,
    /// Slices executed across all jobs.
    pub slices_total: CounterHandle,
    /// Deletion-loop selections performed across all jobs.
    pub selections_total: CounterHandle,
    /// Deterministic trace events emitted across all jobs.
    pub events_total: CounterHandle,
    /// Serialized checkpoint bytes written at suspensions.
    pub checkpoint_bytes_total: CounterHandle,
    /// Completion audits where every invariant held.
    pub audit_clean_total: CounterHandle,
    /// Completion audits with at least one divergence.
    pub audit_failed_total: CounterHandle,
    /// Cooperative cancellation requests accepted.
    pub cancellations_total: CounterHandle,
    /// Jobs that reached `Completed`.
    pub jobs_completed_total: CounterHandle,
    /// Jobs that reached `Failed` (structural error or failed audit).
    pub jobs_failed_total: CounterHandle,
    /// Submissions refused by the admission policy: queue full.
    pub rejected_queue_full_total: CounterHandle,
    /// Submissions refused by the admission policy: checkpoint budget.
    pub rejected_checkpoint_bytes_total: CounterHandle,
    /// Jobs failed because their wall-clock deadline budget expired.
    pub deadline_missed_total: CounterHandle,
    /// Local slices that resumed from their job's kept snapshot (which
    /// carries the design) instead of parsing the checkpoint.
    pub design_reused_total: CounterHandle,
}

impl ServeMetrics {
    /// Registers the serve metric family on `registry`. Idempotent:
    /// registering twice attaches to the same underlying cells.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            queue_depth: registry.gauge(
                "bgr_queue_depth",
                "Runnable jobs at the start of the most recent round",
                &[],
            ),
            slice_latency_us: registry.histogram(
                "bgr_slice_latency_us",
                "Wall-clock latency of one job slice in microseconds",
                &[],
            ),
            slices_total: registry.counter("bgr_slices_total", "Job slices executed", &[]),
            selections_total: registry.counter(
                "bgr_selections_total",
                "Deletion-loop selections performed across all jobs",
                &[],
            ),
            events_total: registry.counter(
                "bgr_trace_events_total",
                "Deterministic trace events emitted across all jobs",
                &[],
            ),
            checkpoint_bytes_total: registry.counter(
                "bgr_checkpoint_bytes_total",
                "Serialized checkpoint bytes written at suspensions",
                &[],
            ),
            audit_clean_total: registry.counter(
                "bgr_audit_total",
                "Completion audits by verdict",
                &[("verdict", "clean")],
            ),
            audit_failed_total: registry.counter(
                "bgr_audit_total",
                "Completion audits by verdict",
                &[("verdict", "failed")],
            ),
            cancellations_total: registry.counter(
                "bgr_cancellations_total",
                "Cooperative cancellation requests accepted",
                &[],
            ),
            jobs_completed_total: registry.counter(
                "bgr_jobs_terminal_total",
                "Jobs that reached a terminal state",
                &[("state", "completed")],
            ),
            jobs_failed_total: registry.counter(
                "bgr_jobs_terminal_total",
                "Jobs that reached a terminal state",
                &[("state", "failed")],
            ),
            rejected_queue_full_total: registry.counter(
                "bgr_jobs_rejected_total",
                "Submissions refused by the admission policy, by reason",
                &[("reason", "queue-full")],
            ),
            rejected_checkpoint_bytes_total: registry.counter(
                "bgr_jobs_rejected_total",
                "Submissions refused by the admission policy, by reason",
                &[("reason", "checkpoint-bytes")],
            ),
            deadline_missed_total: registry.counter(
                "bgr_deadline_missed_total",
                "Jobs failed because their wall-clock deadline budget expired",
                &[],
            ),
            design_reused_total: registry.counter(
                "bgr_slice_design_reused_total",
                "Local slices that resumed from their job's kept design",
                &[],
            ),
        }
    }
}

/// Where a job stands in its lifecycle (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Submitted; no slice has run yet.
    Created,
    /// Parked at a checkpoint; the next round resumes it (unless
    /// cancelled).
    Suspended,
    /// Finished with a clean independent audit.
    Completed,
    /// A structured error ([`Job::error`]) or a failed audit
    /// ([`Job::audit`]) stopped the job.
    Failed,
}

impl SessionState {
    /// Stable snake_case label (used in stream records).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Created => "created",
            Self::Suspended => "suspended",
            Self::Completed => "completed",
            Self::Failed => "failed",
        }
    }

    /// Whether the job can never advance again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Self::Completed | Self::Failed)
    }
}

/// The raw design inputs of a job submitted by [`JobQueue::submit`],
/// kept only until its step-0 checkpoint exists (the checkpoint embeds
/// them).
#[derive(Debug)]
struct Design {
    circuit: Circuit,
    placement: Placement,
    constraints: Vec<PathConstraint>,
    config: RouterConfig,
}

/// One routing session managed by the queue.
#[derive(Debug)]
pub struct Job {
    name: String,
    /// Present from submission until materialization moves it into the
    /// session that writes the step-0 checkpoint.
    design: Option<Design>,
    /// The snapshot the checkpoint serializes, kept between local slices
    /// so they parse nothing: set by materialization and by every
    /// suspended local slice. Dropped when a slice is leased out
    /// ([`JobQueue::lease_spec`], so also by a replay), on cancellation
    /// and at a terminal state; a job submitted as a checkpoint
    /// ([`JobQueue::submit_checkpoint`]) starts without one.
    kept: Option<Kept>,
    /// Max deletion-loop selections per slice (`None` = run each stage
    /// to its natural end).
    slice_quota: Option<u64>,
    /// Wall-clock budget in ms from the governing [`QueuePolicy`]
    /// (`None` = no deadline — the inert default).
    deadline_ms: Option<u64>,
    /// When the budget runs out; armed at first materialization.
    deadline_at: Option<Instant>,
    /// Remaining-budget value frozen into the [`LeaseSpec`] of the
    /// current slice, keyed by slice index — expiry-driven re-grants
    /// must hand out the *identical* spec (DESIGN.md §15 rule 3), so
    /// the remaining budget is computed once per slice, not per grant.
    spec_deadline: Option<(u64, u64)>,
    state: SessionState,
    checkpoint: Option<String>,
    stream: String,
    cancelled: bool,
    stage: &'static str,
    slices: u64,
    events_emitted: u64,
    selections_done: u64,
    error: Option<RouteError>,
    audit: Option<AuditReport>,
    routed: Option<Routed>,
    verdict: Option<FinishVerdict>,
}

impl Job {
    /// The submitted name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The serialized checkpoint of the last suspension, if any.
    pub fn checkpoint(&self) -> Option<&str> {
        self.checkpoint.as_deref()
    }

    /// The accumulated JSONL stream (trace events + progress records).
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// Whether [`JobQueue::cancel`] parked this job.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Stable label of the pipeline stage the job is parked at.
    pub fn stage(&self) -> &'static str {
        self.stage
    }

    /// Slices executed so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Deterministic trace events emitted across all slices.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Deletion-loop selections performed across all slices.
    pub fn selections_done(&self) -> u64 {
        self.selections_done
    }

    /// The structured error that failed the job, if one did.
    pub fn error(&self) -> Option<&RouteError> {
        self.error.as_ref()
    }

    /// The completion audit (present on `Completed` and on `Failed`
    /// when the route finished but the audit flagged it). Absent, like
    /// [`Job::routed`], when the finishing slice ran on a remote worker.
    pub fn audit(&self) -> Option<&AuditReport> {
        self.audit.as_ref()
    }

    /// The finished route (present once the session completed, even if
    /// the audit then failed it). Absent when the finishing slice ran on
    /// a remote worker — the wire ships the [`FinishVerdict`] instead.
    pub fn routed(&self) -> Option<&Routed> {
        self.routed.as_ref()
    }

    /// The deterministic completion verdict (present once the session
    /// finished, locally or remotely).
    pub fn verdict(&self) -> Option<&FinishVerdict> {
        self.verdict.as_ref()
    }

    /// The job's wall-clock budget in milliseconds, when governed.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    fn runnable(&self) -> bool {
        !self.state.is_terminal() && !self.cancelled
    }

    fn fail(&mut self, err: RouteError) {
        self.kept = None;
        self.stream_record(&format!(
            "{{\"type\":\"done\",\"slice\":{},\"state\":\"failed\"}}",
            self.slices
        ));
        self.error = Some(err);
        self.state = SessionState::Failed;
    }

    /// Fails the job outside a slice and counts it in
    /// `bgr_jobs_terminal_total`.
    fn abort(&mut self, err: RouteError, metrics: Option<&ServeMetrics>) {
        self.fail(err);
        if let Some(m) = metrics {
            m.jobs_failed_total.inc();
        }
    }

    fn stream_record(&mut self, line: &str) {
        self.stream.push_str(line);
        self.stream.push('\n');
    }

    fn progress_record(&mut self) {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"type\":\"progress\",\"slice\":{},\"stage\":\"{}\",\"selections\":{},\"events\":{}}}",
            self.slices, self.stage, self.selections_done, self.events_emitted
        );
        self.stream_record(&line);
    }

    /// The checkpoint the next slice resumes from. A job that has none
    /// yet starts its session (moving the design into it) and parks it
    /// at a step-0 checkpoint without advancing, so *every* slice runs
    /// from a checkpoint through [`run_slice`]. Setup events (feed
    /// assignment, graph build) land in the stream at offset 0, exactly
    /// where the monolithic run puts them; the first real slice then
    /// continues at the checkpoint's embedded `seq` offset, keeping the
    /// concatenated stream byte-identical to the pre-distributed path.
    fn materialize_checkpoint(&mut self) -> Result<(), RouteError> {
        // The deadline clock starts at the job's first activity, not at
        // submission, so a job parked behind a long backlog gets its
        // full budget once it finally runs.
        if self.deadline_at.is_none() {
            if let Some(ms) = self.deadline_ms {
                self.deadline_at = Some(Instant::now() + Duration::from_millis(ms));
            }
        }
        if self.checkpoint.is_some() {
            return Ok(());
        }
        // A runnable job holds a design until its first checkpoint and a
        // checkpoint after it; losing both is an internal invariant
        // violation that degrades this one job, never the process.
        let Some(design) = self.design.take() else {
            return Err(RouteError::Internal {
                phase: "serve",
                message: "runnable job has neither a design nor a checkpoint".into(),
            });
        };
        let session = RouteSession::start(
            design.config,
            design.circuit,
            design.placement,
            design.constraints,
            CollectingProbe::new(),
        )?;
        self.selections_done = session.selections_done();
        let (snapshot, probe) = session.into_snapshot();
        self.stage = snapshot.stage.label();
        self.events_emitted = snapshot.events_emitted;
        let (checkpoint, prefix_len) = write_checkpoint_with_prefix(&snapshot);
        self.checkpoint = Some(checkpoint);
        self.kept = Some(Kept {
            snapshot,
            prefix_len,
        });
        self.stream.push_str(&write_event_lines(&probe.finish(), 0));
        Ok(())
    }

    /// Readies this job's next slice: materializes the step-0
    /// checkpoint when there is none yet and freezes the remaining
    /// deadline budget. Returns the slice index and that budget, or
    /// `None` for a job that cannot advance. Materialization counts its
    /// setup events and selections; a materialization failure fails the
    /// job and counts it in `bgr_jobs_terminal_total`, not as a slice.
    fn next_slice(
        &mut self,
        metrics: Option<&ServeMetrics>,
    ) -> Result<Option<(u64, Option<u64>)>, RouteError> {
        if !self.runnable() {
            return Ok(None);
        }
        let fresh = self.checkpoint.is_none();
        if let Err(e) = self.materialize_checkpoint() {
            self.abort(e.clone(), metrics);
            return Err(e);
        }
        if let (true, Some(m)) = (fresh, metrics) {
            // Step 0's setup work, counted from zero.
            m.selections_total.add(self.selections_done);
            m.events_total.add(self.events_emitted);
        }
        // Freeze the remaining deadline budget once per slice: an
        // expiry-driven re-grant of the same slice must hand out the
        // byte-identical spec (DESIGN.md §15 rule 3), so the wall clock
        // is consulted only when the slice index moves.
        let slice = self.slices;
        let deadline_ms = self.deadline_at.map(|at| match self.spec_deadline {
            Some((s, ms)) if s == slice => ms,
            _ => {
                let ms = at
                    .saturating_duration_since(Instant::now())
                    .as_millis()
                    .min(u128::from(u64::MAX)) as u64;
                self.spec_deadline = Some((slice, ms));
                ms
            }
        });
        Ok(Some((slice, deadline_ms)))
    }

    /// This job's next leasable slice, for the queue id `id` (see
    /// [`JobQueue::lease_spec`]). The lease carries its own copy of the
    /// checkpoint, and the job stops keeping its snapshot: a worker
    /// elsewhere runs the slice.
    fn lease(
        &mut self,
        id: usize,
        metrics: Option<&ServeMetrics>,
    ) -> Result<Option<LeaseSpec>, RouteError> {
        let Some((slice, deadline_ms)) = self.next_slice(metrics)? else {
            return Ok(None);
        };
        self.kept = None;
        Ok(Some(LeaseSpec {
            job: id,
            slice,
            quota: self.slice_quota,
            deadline_ms,
            checkpoint: self.checkpoint.clone().unwrap_or_default(),
        }))
    }

    /// Runs this job's next slice in-process and applies it: the slice
    /// executor of [`run_lease`], reading the job's own checkpoint
    /// instead of a copy and resuming from the kept snapshot when there
    /// is one. A suspended slice's snapshot is kept for the next; a
    /// finished slice's route and audit are stored ([`Job::routed`],
    /// [`Job::audit`]). Returns whether a slice ran.
    fn run_local(&mut self, metrics: Option<&ServeMetrics>) -> bool {
        let Ok(Some((slice, deadline_ms))) = self.next_slice(metrics) else {
            return false;
        };
        let kept = self.kept.take();
        if let (true, Some(m)) = (kept.is_some() && deadline_ms != Some(0), metrics) {
            m.design_reused_total.inc();
        }
        let checkpoint = self.checkpoint.as_deref().unwrap_or_default();
        let (out, artifacts) = execute(checkpoint, kept, self.slice_quota, deadline_ms);
        if !self.apply(slice, out, metrics) {
            // A local slice always continues its own job's stream, so
            // a rejection is an executor bug: fail the job rather than
            // re-run the slice forever.
            let message = "slice outcome does not continue the job's stream".into();
            self.abort(
                RouteError::Internal {
                    phase: "serve",
                    message,
                },
                metrics,
            );
        } else {
            match artifacts {
                Artifacts::Snapshot(kept) if self.runnable() => self.kept = Some(*kept),
                Artifacts::Finished(routed, audit) => {
                    self.routed = Some(*routed);
                    self.audit = Some(audit);
                }
                _ => {}
            }
        }
        true
    }

    /// Whether `out`'s trace segment contiguously continues this job's
    /// stream: every line a parsable `"type":"event"` record, `seq`
    /// running from [`Job::events_emitted`] to the outcome's
    /// `events_emitted` exclusive. Failures carry no segment.
    fn continues_stream(&self, out: &SliceOutcome) -> bool {
        let (SliceOutcome::Suspended {
            events_emitted,
            events_jsonl,
            ..
        }
        | SliceOutcome::Finished {
            events_emitted,
            events_jsonl,
            ..
        }) = out
        else {
            return true;
        };
        match segment_seq_span(events_jsonl) {
            Ok(Some((first, last))) => {
                first == self.events_emitted && last.checked_add(1) == Some(*events_emitted)
            }
            Ok(None) => *events_emitted == self.events_emitted,
            Err(_) => false,
        }
    }

    /// Applies the outcome of this job's lease for `slice` (see
    /// [`JobQueue::apply_remote`]) and counts it on `metrics` — the one
    /// place slice results become job state and slice metrics.
    fn apply(&mut self, slice: u64, out: SliceOutcome, metrics: Option<&ServeMetrics>) -> bool {
        if !self.runnable() || slice != self.slices || !self.continues_stream(&out) {
            return false;
        }
        let before_selections = self.selections_done;
        let before_events = self.events_emitted;
        self.fold(out);
        if let Some(m) = metrics {
            m.slices_total.inc();
            m.selections_total
                .add(self.selections_done.saturating_sub(before_selections));
            m.events_total
                .add(self.events_emitted.saturating_sub(before_events));
            if let Some(cp) = &self.checkpoint {
                m.checkpoint_bytes_total.add(cp.len() as u64);
            }
            // Only a runnable job applies, so a verdict here is the one
            // this slice just produced.
            if let Some(verdict) = &self.verdict {
                if verdict.audit_clean {
                    m.audit_clean_total.inc();
                } else {
                    m.audit_failed_total.inc();
                }
            }
            match self.state {
                SessionState::Completed => m.jobs_completed_total.inc(),
                SessionState::Failed => {
                    m.jobs_failed_total.inc();
                    if matches!(self.error, Some(RouteError::DeadlineExpired { .. })) {
                        m.deadline_missed_total.inc();
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Folds a validated [`SliceOutcome`] into the job's state and
    /// stream.
    fn fold(&mut self, out: SliceOutcome) {
        match out {
            SliceOutcome::Suspended {
                checkpoint,
                stage,
                events_emitted,
                selections_done,
                events_jsonl,
            } => {
                self.slices += 1;
                self.stage = stage;
                self.events_emitted = events_emitted;
                self.selections_done = selections_done;
                self.checkpoint = Some(checkpoint);
                self.stream.push_str(&events_jsonl);
                self.progress_record();
                self.state = SessionState::Suspended;
            }
            SliceOutcome::Finished {
                events_emitted,
                selections_done,
                events_jsonl,
                verdict,
            } => {
                self.slices += 1;
                self.stage = SessionStage::Finished.label();
                self.events_emitted = events_emitted;
                self.selections_done = selections_done;
                self.checkpoint = None;
                self.kept = None;
                self.stream.push_str(&events_jsonl);
                let clean = verdict.audit_clean;
                // One-line `Display`s of the audit and (when present)
                // the residual-violation report embed as single JSON
                // strings — both deterministic, so the stream stays
                // thread-count invariant, and both carried by the
                // verdict so a remotely finished job writes the same
                // bytes a local finish would.
                let mut line = format!(
                    "{{\"type\":\"done\",\"slice\":{},\"state\":\"{}\",\"audit_clean\":{clean},\"checks\":{},\"audit\":\"{}\"",
                    self.slices,
                    if clean { "completed" } else { "failed" },
                    verdict.audit_checks,
                    escape_json(&verdict.audit_line),
                );
                if let Some(v) = &verdict.violations_line {
                    let _ = write!(line, ",\"violations\":\"{}\"", escape_json(v));
                }
                line.push('}');
                self.stream_record(&line);
                self.verdict = Some(verdict);
                self.state = if clean {
                    SessionState::Completed
                } else {
                    SessionState::Failed
                };
            }
            SliceOutcome::Failed { error } => self.fail(error),
        }
    }
}

/// A leasable unit of work: everything a worker needs to run one slice
/// of a job, with no reference back to in-process state — the
/// checkpoint embeds the design and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseSpec {
    /// Queue id of the job this lease advances.
    pub job: usize,
    /// The slice index this lease will produce (the job's current
    /// [`Job::slices`] count). Results for any other index are stale
    /// and rejected by [`JobQueue::apply_remote`].
    pub slice: u64,
    /// The job's per-slice selection quota.
    pub quota: Option<u64>,
    /// Remaining wall-clock budget in ms under the queue's
    /// [`QueuePolicy::deadline_ms`], frozen per slice so re-grants are
    /// identical. `Some(0)` means the budget already expired, and
    /// [`run_lease`] abandons the slice with
    /// [`RouteError::DeadlineExpired`] instead of routing. `None` = no
    /// deadline governance (the inert default).
    pub deadline_ms: Option<u64>,
    /// The serialized checkpoint the slice resumes from.
    pub checkpoint: String,
}

/// A queue of routing jobs advanced in budgeted, checkpointed slices.
#[derive(Debug, Default)]
pub struct JobQueue {
    jobs: Vec<Job>,
    metrics: Option<ServeMetrics>,
    policy: QueuePolicy,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue reporting into `registry` (see [`ServeMetrics`]).
    pub fn with_metrics(registry: &MetricsRegistry) -> Self {
        Self {
            jobs: Vec::new(),
            metrics: Some(ServeMetrics::register(registry)),
            policy: QueuePolicy::default(),
        }
    }

    /// Attaches (or replaces) the queue's metrics sink.
    pub fn attach_metrics(&mut self, metrics: ServeMetrics) {
        self.metrics = Some(metrics);
    }

    /// Installs (or replaces) the queue's admission policy. Only
    /// [`JobQueue::try_submit`] consults it; jobs already admitted keep
    /// the deadline they were stamped with.
    pub fn set_policy(&mut self, policy: QueuePolicy) {
        self.policy = policy;
    }

    /// The governing admission policy (unbounded by default).
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Live (non-terminal) jobs currently held.
    pub fn live_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| !j.state.is_terminal()).count()
    }

    /// Serialized checkpoint bytes held by live jobs — the quantity
    /// [`QueuePolicy::max_checkpoint_bytes`] bounds.
    pub fn held_checkpoint_bytes(&self) -> u64 {
        self.jobs
            .iter()
            .filter(|j| !j.state.is_terminal())
            .filter_map(|j| j.checkpoint.as_ref())
            .map(|c| c.len() as u64)
            .sum()
    }

    fn admission_verdict(&self) -> Result<(), Rejected> {
        if let Some(max_jobs) = self.policy.max_jobs {
            let live = self.live_jobs();
            if live >= max_jobs {
                return Err(Rejected::QueueFull { max_jobs, live });
            }
        }
        if let Some(max_bytes) = self.policy.max_checkpoint_bytes {
            let held = self.held_checkpoint_bytes();
            if held >= max_bytes {
                return Err(Rejected::CheckpointBytes { max_bytes, held });
            }
        }
        Ok(())
    }

    fn count_rejection(&self, verdict: &Rejected) {
        if let Some(m) = &self.metrics {
            match verdict {
                Rejected::QueueFull { .. } => m.rejected_queue_full_total.inc(),
                Rejected::CheckpointBytes { .. } => m.rejected_checkpoint_bytes_total.inc(),
            }
        }
    }

    /// Submits a job; returns its id (stable index into the queue).
    /// `slice_quota` bounds the deletion-loop selections a single slice
    /// may perform (`None` = whole stages per slice).
    ///
    /// This is the ungoverned intake: the [`QueuePolicy`] is *not*
    /// consulted and no deadline is stamped, so pre-governance callers
    /// keep byte-identical behavior. Bounded intake goes through
    /// [`JobQueue::try_submit`].
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        circuit: Circuit,
        placement: Placement,
        constraints: Vec<PathConstraint>,
        config: RouterConfig,
        slice_quota: Option<u64>,
    ) -> usize {
        let design = Design {
            circuit,
            placement,
            constraints,
            config,
        };
        self.push_job(name.into(), Some(design), slice_quota, None)
    }

    /// Governed intake: checks the [`QueuePolicy`] and either admits
    /// the job (stamping the policy's deadline budget on it) or returns
    /// a structured [`Rejected`] verdict. With the default unbounded
    /// policy this is exactly [`JobQueue::submit`].
    ///
    /// # Errors
    ///
    /// [`Rejected`] when a configured limit is at capacity; the queue
    /// is unchanged and the refusal is counted in
    /// `bgr_jobs_rejected_total` when metrics are attached.
    pub fn try_submit(
        &mut self,
        name: impl Into<String>,
        circuit: Circuit,
        placement: Placement,
        constraints: Vec<PathConstraint>,
        config: RouterConfig,
        slice_quota: Option<u64>,
    ) -> Result<usize, Rejected> {
        if let Err(verdict) = self.admission_verdict() {
            self.count_rejection(&verdict);
            return Err(verdict);
        }
        let design = Design {
            circuit,
            placement,
            constraints,
            config,
        };
        Ok(self.push_job(
            name.into(),
            Some(design),
            slice_quota,
            self.policy.deadline_ms,
        ))
    }

    /// Appends a `Created` job and returns its id.
    fn push_job(
        &mut self,
        name: String,
        design: Option<Design>,
        slice_quota: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> usize {
        self.jobs.push(Job {
            name,
            design,
            kept: None,
            slice_quota,
            deadline_ms,
            deadline_at: None,
            spec_deadline: None,
            state: SessionState::Created,
            checkpoint: None,
            stream: String::new(),
            cancelled: false,
            stage: "setup",
            slices: 0,
            events_emitted: 0,
            selections_done: 0,
            error: None,
            audit: None,
            routed: None,
            verdict: None,
        });
        self.jobs.len() - 1
    }

    /// The job behind an id.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn job(&self, id: usize) -> &Job {
        &self.jobs[id]
    }

    /// All jobs, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Requests cooperative cancellation: the job stops at its next
    /// slice boundary and parks as `Suspended` with its checkpoint
    /// intact, dropping its kept snapshot (the first local slice after
    /// [`JobQueue::reactivate`] parses the checkpoint whole). No-op on
    /// terminal jobs.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn cancel(&mut self, id: usize) {
        if !self.jobs[id].state.is_terminal() {
            if !self.jobs[id].cancelled {
                if let Some(m) = &self.metrics {
                    m.cancellations_total.inc();
                }
            }
            self.jobs[id].cancelled = true;
            self.jobs[id].kept = None;
        }
    }

    /// Clears a cancellation; the job resumes from its checkpoint on
    /// the next round.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn reactivate(&mut self, id: usize) {
        self.jobs[id].cancelled = false;
    }

    /// Whether no job can advance (every job terminal or cancelled).
    pub fn settled(&self) -> bool {
        self.jobs.iter().all(|j| !j.runnable())
    }

    /// Advances every runnable job by one slice, fanning the slices
    /// over `threads` workers. Returns how many jobs advanced.
    ///
    /// Each slice readies, runs and applies its job's next slice on the
    /// executor [`run_lease`] runs and through the validation
    /// [`JobQueue::apply_remote`] applies, exactly what a `bgr-net`
    /// worker drives remotely, except that it reads the job's own
    /// checkpoint and resumes from the job's kept snapshot, parsing
    /// nothing (DESIGN.md §13); `bgr_slice_latency_us`,
    /// `bgr_queue_depth` and `bgr_slice_design_reused_total` are
    /// observed here alone. Slices are independent (each owns its job's
    /// state), and `scoped_map` preserves submission order, so round
    /// outcomes are deterministic for any thread count.
    pub fn run_round(&mut self, threads: usize) -> usize {
        let metrics = self.metrics.as_ref();
        let mut active: Vec<&mut Job> = self.jobs.iter_mut().filter(|j| j.runnable()).collect();
        if let Some(m) = metrics {
            m.queue_depth.set(active.len() as i64);
        }
        if active.is_empty() {
            return 0;
        }
        par::scoped_map(threads, &mut active, |job| {
            let start = Instant::now();
            if job.run_local(metrics) {
                if let Some(m) = metrics {
                    m.slice_latency_us
                        .observe(start.elapsed().as_micros() as u64);
                }
            }
        });
        active.len()
    }

    /// Rounds until the queue settles; returns the number of rounds.
    pub fn run(&mut self, threads: usize) -> usize {
        let mut rounds = 0;
        while self.run_round(threads) > 0 {
            rounds += 1;
        }
        rounds
    }

    /// Submits a job that starts from an existing serialized checkpoint
    /// instead of raw design inputs — the speculative-portfolio path:
    /// fan one suspended checkpoint under several configuration arms
    /// (see `bgr_io::reconfigure_checkpoint`) and race them.
    ///
    /// The checkpoint is parsed to validate it and to adopt its
    /// counters; the job keeps only its canonical re-serialization
    /// (`bgr_io::write_checkpoint` of the parsed snapshot), so comments,
    /// blank lines or any other valid variation in its design blocks do
    /// not reach the design prefix every later slice re-uses verbatim
    /// (see [`run_slice`]). It keeps no snapshot, so its first local
    /// slice parses the stored checkpoint. It parks `Suspended`, and its
    /// stream begins at the checkpoint (earlier slices belong to
    /// whichever job produced it).
    ///
    /// # Errors
    ///
    /// Structured [`RouteError::Checkpoint`] when `checkpoint` does not
    /// parse.
    pub fn submit_checkpoint(
        &mut self,
        name: impl Into<String>,
        checkpoint: &str,
        slice_quota: Option<u64>,
    ) -> Result<usize, RouteError> {
        let snap = parse_checkpoint(checkpoint).map_err(|e| RouteError::Checkpoint {
            message: e.to_string(),
        })?;
        let id = self.push_job(name.into(), None, slice_quota, None);
        let job = &mut self.jobs[id];
        job.state = SessionState::Suspended;
        job.checkpoint = Some(write_checkpoint(&snap));
        job.stage = snap.stage.label();
        job.events_emitted = snap.events_emitted;
        job.selections_done = snap.stats.selection_log.len() as u64;
        Ok(id)
    }

    /// The next leasable slice of job `id`, materializing the first
    /// checkpoint of a `Created` job on demand. Returns `Ok(None)` for
    /// terminal or cancelled jobs. A leased job keeps no snapshot: its
    /// next local slice, if any, parses the checkpoint whole.
    ///
    /// Leasing consumes nothing: the identical spec is returned until a
    /// result for it is applied, which is what makes expiry-driven
    /// re-leasing deterministic — every worker handed this lease
    /// computes the same [`SliceOutcome`].
    ///
    /// # Errors
    ///
    /// Propagates the structured error when materializing the first
    /// checkpoint fails. The job is failed as a side effect and counted
    /// in `bgr_jobs_terminal_total`, but not as a slice.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn lease_spec(&mut self, id: usize) -> Result<Option<LeaseSpec>, RouteError> {
        self.jobs[id].lease(id, self.metrics.as_ref())
    }

    /// Applies a slice outcome computed elsewhere (a worker draining a
    /// lease). Accepted only when `slice` equals the job's current
    /// [`Job::slices`] count and the job can still advance — duplicate
    /// results from expired-and-reassigned leases and stale
    /// re-deliveries return `false` and change nothing. Acceptance is
    /// deterministic despite racing workers because any worker's
    /// outcome for a given `(checkpoint, quota)` lease is
    /// byte-identical, so *which* duplicate lands first cannot matter.
    ///
    /// The outcome's trace segment is validated with
    /// [`bgr_io::segment_seq_span`] before splicing: every line must be
    /// a parsable `"type":"event"` record whose `seq` numbers
    /// contiguously continue the job's stream (first = the job's
    /// [`Job::events_emitted`], last + 1 = the outcome's
    /// `events_emitted`). A truncated, reordered, or otherwise damaged
    /// segment is rejected (`false`, job unchanged and still leasable)
    /// instead of silently corrupting the stream.
    ///
    /// Updates the queue's metrics exactly as a local round would,
    /// except `bgr_slice_latency_us`: a remote slice's wall clock is
    /// observed by the worker's own registry and folded in via
    /// snapshot merging, not re-measured here.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn apply_remote(&mut self, id: usize, slice: u64, out: SliceOutcome) -> bool {
        self.jobs[id].apply(slice, out, self.metrics.as_ref())
    }

    /// Replays journaled slice outcomes in order, applying each through
    /// [`JobQueue::apply_remote`]'s full validation — so a torn,
    /// duplicated, or stale record is counted and skipped, never
    /// spliced. The queue must hold the same jobs (same submission
    /// order) as the run that produced the journal; after replay it is
    /// in exactly the state the original coordinator had when it last
    /// journaled, and the drain can resume from there.
    pub fn replay(
        &mut self,
        outcomes: impl IntoIterator<Item = (usize, u64, SliceOutcome)>,
    ) -> ReplayStats {
        let mut stats = ReplayStats::default();
        for (id, slice, out) in outcomes {
            if id < self.jobs.len() {
                // The run that wrote the journal materialized the first
                // checkpoint (emitting the deterministic setup events)
                // before any slice executed; replay must do the same or
                // the first record's event span has nothing to anchor
                // to. A materialization failure fails the job exactly
                // as it would have live, and the record lands stale.
                let _ = self.lease_spec(id);
            }
            if id < self.jobs.len() && self.apply_remote(id, slice, out) {
                stats.applied += 1;
            } else {
                stats.stale += 1;
            }
        }
        stats
    }
}

/// What a journal replay applied (see [`JobQueue::replay`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records that advanced a job.
    pub applied: u64,
    /// Records rejected by validation (stale duplicates, unknown jobs).
    pub stale: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_core::session::SessionDesign;
    use bgr_core::GlobalRouter;
    use bgr_io::{deterministic_event_lines, write_trace_jsonl};

    fn small_case(seed: u64) -> (Circuit, Placement, Vec<PathConstraint>) {
        let params = bgr_gen::GenParams::small(seed);
        let design = bgr_gen::generate(&params);
        let placement = bgr_gen::place_design(&design, &params, bgr_gen::PlacementStyle::EvenFeed);
        (design.circuit, placement, design.constraints)
    }

    /// Event lines of the uninterrupted route of the same inputs.
    fn monolithic_events(
        circuit: &Circuit,
        placement: &Placement,
        cons: &[PathConstraint],
        config: &RouterConfig,
    ) -> String {
        let (_, trace) = GlobalRouter::new(config.clone())
            .route_traced(circuit.clone(), placement.clone(), cons.to_vec())
            .unwrap();
        deterministic_event_lines(&write_trace_jsonl(&trace))
    }

    #[test]
    fn queue_drains_jobs_to_audited_completion() {
        let mut q = JobQueue::new();
        let config = RouterConfig::default();
        let mut want = Vec::new();
        for (i, seed) in [3u64, 11, 42].iter().enumerate() {
            let (c, p, k) = small_case(*seed);
            want.push(monolithic_events(&c, &p, &k, &config));
            let quota = if i == 0 { None } else { Some(4 * i as u64) };
            q.submit(format!("job{i}"), c, p, k, config.clone(), quota);
        }
        let rounds = q.run(4);
        assert!(rounds > 1, "quota'd jobs must take multiple rounds");
        for (i, job) in q.jobs().iter().enumerate() {
            assert_eq!(job.state(), SessionState::Completed, "{:?}", job.error());
            assert!(job.audit().unwrap().is_clean());
            assert!(job.routed().is_some());
            assert!(
                job.checkpoint().is_none(),
                "completed job keeps no checkpoint"
            );
            // The concatenated per-slice event lines are byte-identical
            // to the uninterrupted run's — seq numbers included.
            assert_eq!(
                deterministic_event_lines(job.stream()),
                want[i],
                "job {i} stream diverged"
            );
            assert!(job.stream().contains("\"type\":\"done\""));
            // The audit's stable one-line `Display` is embedded in the
            // done record verbatim.
            let want_audit = format!(
                "\"audit\":\"{}\"",
                escape_json(&job.audit().unwrap().to_string())
            );
            assert!(job.stream().contains(&want_audit), "{}", job.stream());
            assert!(job.stream().contains("\"audit\":\"audit clean: "));
        }
        assert!(q.settled());
    }

    #[test]
    fn metrics_observe_the_queue_without_touching_streams() {
        let config = RouterConfig::default();
        let registry = MetricsRegistry::new();
        let mut plain = JobQueue::new();
        let mut metered = JobQueue::with_metrics(&registry);
        for seed in [3u64, 11] {
            let (c, p, k) = small_case(seed);
            plain.submit(
                format!("s{seed}"),
                c.clone(),
                p.clone(),
                k.clone(),
                config.clone(),
                Some(4),
            );
            metered.submit(format!("s{seed}"), c, p, k, config.clone(), Some(4));
        }
        metered.cancel(1);
        metered.reactivate(1);
        plain.run(2);
        metered.run(2);

        // Deterministic observables are byte-identical with and
        // without a registry attached.
        for (a, b) in plain.jobs().iter().zip(metered.jobs()) {
            assert_eq!(a.stream(), b.stream());
            assert_eq!(a.state(), b.state());
        }

        let m = ServeMetrics::register(&registry); // idempotent re-attach
        let slices: u64 = metered.jobs().iter().map(|j| j.slices()).sum();
        let selections: u64 = metered.jobs().iter().map(|j| j.selections_done()).sum();
        let events: u64 = metered.jobs().iter().map(|j| j.events_emitted()).sum();
        assert_eq!(m.slices_total.get(), slices);
        assert_eq!(m.selections_total.get(), selections);
        assert_eq!(m.events_total.get(), events);
        assert_eq!(m.slice_latency_us.count(), slices);
        assert_eq!(m.audit_clean_total.get(), 2);
        assert_eq!(m.audit_failed_total.get(), 0);
        assert_eq!(m.jobs_completed_total.get(), 2);
        assert_eq!(m.jobs_failed_total.get(), 0);
        assert_eq!(m.cancellations_total.get(), 1);
        assert!(m.checkpoint_bytes_total.get() > 0, "quota'd jobs suspend");
        assert_eq!(m.queue_depth.get(), 0, "settled queue reports empty");

        let text = registry.render_prometheus();
        for name in [
            "bgr_queue_depth",
            "bgr_slice_latency_us_bucket",
            "bgr_slices_total",
            "bgr_selections_total",
            "bgr_trace_events_total",
            "bgr_checkpoint_bytes_total",
            "bgr_audit_total{verdict=\"clean\"}",
            "bgr_jobs_terminal_total{state=\"completed\"}",
            "bgr_cancellations_total",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn round_outcomes_match_across_thread_counts() {
        let config = RouterConfig::default();
        let mut streams: Vec<Vec<String>> = Vec::new();
        for threads in [1, 4] {
            let mut q = JobQueue::new();
            for seed in [5u64, 9] {
                let (c, p, k) = small_case(seed);
                q.submit(format!("s{seed}"), c, p, k, config.clone(), Some(3));
            }
            q.run(threads);
            streams.push(q.jobs().iter().map(|j| j.stream().to_string()).collect());
        }
        assert_eq!(streams[0], streams[1]);
    }

    #[test]
    fn cancellation_parks_and_reactivation_continues_identically() {
        let config = RouterConfig::default();
        let (c, p, k) = small_case(17);
        let want = monolithic_events(&c, &p, &k, &config);

        let mut q = JobQueue::new();
        let id = q.submit("cancel-me", c, p, k, config, Some(2));
        assert_eq!(q.job(id).state(), SessionState::Created);
        q.run_round(2);
        assert_eq!(q.job(id).state(), SessionState::Suspended);
        q.cancel(id);
        assert_eq!(q.run(2), 0, "cancelled job must not advance");
        assert_eq!(q.job(id).state(), SessionState::Suspended);
        assert!(q.job(id).is_cancelled());
        let checkpoint = q.job(id).checkpoint().unwrap().to_string();
        let header = format!("bgr-checkpoint v{}\n", bgr_core::SNAPSHOT_VERSION);
        assert!(checkpoint.starts_with(&header));
        assert!(q.settled());

        q.reactivate(id);
        q.run(2);
        assert_eq!(q.job(id).state(), SessionState::Completed);
        assert_eq!(deterministic_event_lines(q.job(id).stream()), want);
    }

    #[test]
    fn apply_remote_rejects_damaged_trace_segments() {
        let config = RouterConfig::default();
        let (c, p, k) = small_case(29);
        let mut q = JobQueue::new();
        let id = q.submit("remote", c, p, k, config, Some(2));
        let spec = q.lease_spec(id).unwrap().unwrap();
        let out = run_slice(&spec.checkpoint, spec.quota);
        let SliceOutcome::Suspended {
            checkpoint,
            stage,
            events_emitted,
            selections_done,
            events_jsonl,
        } = out
        else {
            panic!("quota 2 must suspend");
        };
        assert!(
            events_jsonl.lines().count() >= 2,
            "damage variants below need at least two event lines"
        );
        let stream_before = q.job(id).stream().to_string();

        // Each damaged variant of the honest segment must be rejected
        // with the job unchanged and still leasable.
        let truncated = events_jsonl
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        let reordered = {
            let mut lines: Vec<&str> = events_jsonl.lines().collect();
            lines.reverse();
            lines.iter().map(|l| format!("{l}\n")).collect::<String>()
        };
        for damaged in [truncated, reordered, "not json\n".to_string()] {
            let out = SliceOutcome::Suspended {
                checkpoint: checkpoint.clone(),
                stage,
                events_emitted,
                selections_done,
                events_jsonl: damaged,
            };
            assert!(!q.apply_remote(id, spec.slice, out));
            assert_eq!(q.job(id).stream(), stream_before);
            assert_eq!(q.job(id).slices(), spec.slice);
        }

        // The honest segment is accepted.
        assert!(q.apply_remote(
            id,
            spec.slice,
            SliceOutcome::Suspended {
                checkpoint,
                stage,
                events_emitted,
                selections_done,
                events_jsonl,
            }
        ));
        assert_eq!(q.job(id).slices(), spec.slice + 1);
    }

    #[test]
    fn untripped_policy_is_byte_identical_to_no_policy() {
        let config = RouterConfig::default();
        let mut plain = JobQueue::new();
        let mut governed = JobQueue::new();
        governed.set_policy(QueuePolicy {
            max_jobs: Some(64),
            max_checkpoint_bytes: Some(u64::MAX),
            deadline_ms: Some(3_600_000),
        });
        assert!(!governed.policy().is_unbounded());
        for seed in [3u64, 11] {
            let (c, p, k) = small_case(seed);
            plain.submit(
                format!("s{seed}"),
                c.clone(),
                p.clone(),
                k.clone(),
                config.clone(),
                Some(4),
            );
            governed
                .try_submit(format!("s{seed}"), c, p, k, config.clone(), Some(4))
                .expect("generous limits admit everything");
        }
        plain.run(2);
        governed.run(2);
        for (a, b) in plain.jobs().iter().zip(governed.jobs()) {
            assert_eq!(a.stream(), b.stream(), "governance-on-untripped diverged");
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn admission_limits_trip_with_structured_verdicts() {
        let config = RouterConfig::default();
        let registry = MetricsRegistry::new();
        let mut q = JobQueue::with_metrics(&registry);
        q.set_policy(QueuePolicy {
            max_jobs: Some(2),
            max_checkpoint_bytes: None,
            deadline_ms: None,
        });
        for seed in [3u64, 11] {
            let (c, p, k) = small_case(seed);
            q.try_submit(format!("s{seed}"), c, p, k, config.clone(), Some(4))
                .expect("under the cap");
        }
        let (c, p, k) = small_case(42);
        match q.try_submit("over", c, p, k, config.clone(), Some(4)) {
            Err(Rejected::QueueFull {
                max_jobs: 2,
                live: 2,
            }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }

        // Terminal jobs release their admission slot.
        q.run(2);
        assert_eq!(q.live_jobs(), 0);
        let (c, p, k) = small_case(42);
        let id = q
            .try_submit("after-drain", c, p, k, config.clone(), Some(4))
            .expect("drained queue admits again");

        // The bytes cap counts live parked checkpoints.
        q.run_round(1);
        assert!(q.held_checkpoint_bytes() > 0);
        q.set_policy(QueuePolicy {
            max_jobs: None,
            max_checkpoint_bytes: Some(1),
            deadline_ms: None,
        });
        let (c, p, k) = small_case(7);
        match q.try_submit("bytes", c, p, k, config.clone(), None) {
            Err(v @ Rejected::CheckpointBytes { max_bytes: 1, .. }) => {
                assert_eq!(v.code(), "checkpoint-bytes");
                assert!(v.to_string().contains("checkpoint budget"));
            }
            other => panic!("expected CheckpointBytes, got {other:?}"),
        }
        let m = ServeMetrics::register(&registry);
        assert_eq!(m.rejected_queue_full_total.get(), 1);
        assert_eq!(m.rejected_checkpoint_bytes_total.get(), 1);
        q.reactivate(id); // quiet unused warnings: id stays live
        let _ = q.job(id);
    }

    #[test]
    fn expired_deadline_sheds_the_job_with_a_structured_error() {
        let config = RouterConfig::default();
        let registry = MetricsRegistry::new();
        let mut q = JobQueue::with_metrics(&registry);
        q.set_policy(QueuePolicy {
            max_jobs: None,
            max_checkpoint_bytes: None,
            deadline_ms: Some(0),
        });
        let (c, p, k) = small_case(13);
        let id = q
            .try_submit("doomed", c, p, k, config.clone(), Some(4))
            .expect("admission is separate from deadline");
        assert_eq!(q.job(id).deadline_ms(), Some(0));

        // The lease spec a worker would receive carries the exhausted
        // budget, and re-requesting it yields the identical spec.
        let spec = q.lease_spec(id).unwrap().unwrap();
        assert_eq!(spec.deadline_ms, Some(0));
        assert_eq!(q.lease_spec(id).unwrap().unwrap(), spec);

        q.run(1);
        assert_eq!(q.job(id).state(), SessionState::Failed);
        assert!(
            matches!(q.job(id).error(), Some(RouteError::DeadlineExpired { .. })),
            "{:?}",
            q.job(id).error()
        );
        assert!(q.job(id).stream().ends_with("\"state\":\"failed\"}\n"));
        let m = ServeMetrics::register(&registry);
        assert_eq!(m.deadline_missed_total.get(), 1);

        // An ungoverned job in the same queue is untouched.
        q.set_policy(QueuePolicy::unbounded());
        let (c, p, k) = small_case(13);
        let ok = q
            .try_submit("fine", c, p, k, config, Some(4))
            .expect("unbounded");
        q.run(1);
        assert_eq!(q.job(ok).state(), SessionState::Completed);
        assert_eq!(m.deadline_missed_total.get(), 1);
    }

    /// Fills a queue with the same jobs every time: two ungoverned ones
    /// (whole stages, quota 4) and one admitted under an already-spent
    /// deadline budget.
    fn submit_mixed_jobs(q: &mut JobQueue) {
        let config = RouterConfig::default();
        for (seed, quota) in [(3u64, None), (11, Some(4))] {
            let (c, p, k) = small_case(seed);
            q.submit(format!("s{seed}"), c, p, k, config.clone(), quota);
        }
        q.set_policy(QueuePolicy {
            deadline_ms: Some(0),
            ..QueuePolicy::default()
        });
        let (c, p, k) = small_case(13);
        q.try_submit("doomed", c, p, k, config, Some(4))
            .expect("admission is separate from deadline");
    }

    /// Rendered metrics minus the instruments only local rounds observe.
    fn shared_metrics(registry: &MetricsRegistry) -> String {
        registry
            .render_prometheus()
            .lines()
            .filter(|l| {
                !l.contains("bgr_slice_latency_us")
                    && !l.contains("bgr_queue_depth")
                    && !l.contains("bgr_slice_design_reused_total")
            })
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn local_rounds_and_leased_slices_are_indistinguishable() {
        let local_registry = MetricsRegistry::new();
        let mut local = JobQueue::with_metrics(&local_registry);
        submit_mixed_jobs(&mut local);
        local.run(1);

        let leased_registry = MetricsRegistry::new();
        let mut leased = JobQueue::with_metrics(&leased_registry);
        submit_mixed_jobs(&mut leased);
        loop {
            let mut advanced = false;
            for id in 0..leased.jobs().len() {
                if let Some(spec) = leased.lease_spec(id).unwrap() {
                    assert!(leased.apply_remote(id, spec.slice, run_lease(&spec)));
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }

        for (a, b) in local.jobs().iter().zip(leased.jobs()) {
            assert_eq!(a.stream(), b.stream(), "{}", a.name());
            assert_eq!(a.state(), b.state());
            assert_eq!(a.slices(), b.slices());
            assert_eq!(a.events_emitted(), b.events_emitted());
            assert_eq!(a.selections_done(), b.selections_done());
            assert_eq!(a.verdict(), b.verdict());
            assert_eq!(a.error(), b.error());
        }
        assert_eq!(local.job(0).state(), SessionState::Completed);
        assert!(matches!(
            local.job(2).error(),
            Some(RouteError::DeadlineExpired { .. })
        ));
        let text = shared_metrics(&local_registry);
        assert!(text.contains("bgr_deadline_missed_total 1"), "{text}");
        assert_eq!(text, shared_metrics(&leased_registry));
    }

    #[test]
    fn local_slice_that_breaks_the_stream_fails_the_job() {
        let config = RouterConfig::default();
        let (c, p, k) = small_case(23);
        let registry = MetricsRegistry::new();
        let mut q = JobQueue::with_metrics(&registry);
        let id = q.submit("shifted", c, p, k, config, Some(2));
        q.run_round(1);
        // A kept snapshot that claims a different event offset: the slice
        // it resumes emits a segment the job cannot splice.
        q.jobs[id].kept.as_mut().unwrap().snapshot.events_emitted += 1;
        let stream_before = q.job(id).stream().to_string();
        assert_eq!(q.run_round(1), 1);
        assert_eq!(q.job(id).state(), SessionState::Failed);
        assert!(
            matches!(q.job(id).error(), Some(RouteError::Internal { .. })),
            "{:?}",
            q.job(id).error()
        );
        assert_eq!(
            q.job(id).stream(),
            format!("{stream_before}{{\"type\":\"done\",\"slice\":1,\"state\":\"failed\"}}\n")
        );
        assert_eq!(q.run(1), 0, "a failed job is never re-run");
        assert_eq!(ServeMetrics::register(&registry).jobs_failed_total.get(), 1);
    }

    #[test]
    fn corrupt_checkpoint_fails_structurally() {
        let config = RouterConfig::default();
        let (c, p, k) = small_case(23);
        let mut q = JobQueue::new();
        let id = q.submit("corrupt", c, p, k, config, Some(2));
        q.run_round(1);
        assert_eq!(q.job(id).state(), SessionState::Suspended);
        // Sabotage the checkpoint text between rounds, and drop the kept
        // snapshot so that the next slice reads the text, as a lease does.
        let garbled = q.jobs[id].checkpoint.take().unwrap().replacen(
            &format!("bgr-checkpoint v{}", bgr_core::SNAPSHOT_VERSION),
            "bgr-checkpoint v9",
            1,
        );
        q.jobs[id].checkpoint = Some(garbled);
        q.jobs[id].kept = None;
        q.run(1);
        assert_eq!(q.job(id).state(), SessionState::Failed);
        assert!(
            matches!(q.job(id).error(), Some(RouteError::Checkpoint { .. })),
            "{:?}",
            q.job(id).error()
        );
    }

    /// A mid-run checkpoint of `small_case(seed)` under `config`, and the
    /// same checkpoint with a comment and a blank line inside its netlist
    /// block — valid, but not what `write_checkpoint` emits.
    fn canonical_and_annotated(seed: u64, config: RouterConfig) -> (String, String) {
        let (c, p, k) = small_case(seed);
        let mut session = RouteSession::start(config, c, p, k, CollectingProbe::new()).unwrap();
        session.step(Some(3)).unwrap();
        let canonical = write_checkpoint(&session.snapshot());
        let annotated = canonical.replacen(
            "begin netlist\nbgr-netlist v1\n",
            "begin netlist\nbgr-netlist v1\n# note\n\n",
            1,
        );
        assert_ne!(annotated, canonical);
        (canonical, annotated)
    }

    #[test]
    fn submitted_checkpoints_are_stored_canonical() {
        let (canonical, annotated) = canonical_and_annotated(29, RouterConfig::default());
        let mut plain = JobQueue::new();
        let mut noted = JobQueue::new();
        let a = plain.submit_checkpoint("arm", &canonical, Some(4)).unwrap();
        let b = noted.submit_checkpoint("arm", &annotated, Some(4)).unwrap();
        assert_eq!(noted.job(b).checkpoint(), Some(canonical.as_str()));
        plain.run(1);
        noted.run(1);
        assert_eq!(noted.job(b).state(), SessionState::Completed);
        assert_eq!(noted.job(b).stream(), plain.job(a).stream());
    }

    #[test]
    fn splice_oracle_rejects_a_non_canonical_prefix() {
        // Handed straight to `run_slice` (no queue canonicalizes it), a
        // non-canonical prefix is carried forward verbatim below
        // phase-level verification...
        let config = RouterConfig {
            verify: bgr_core::VerifyLevel::Off,
            ..RouterConfig::default()
        };
        let (_, annotated) = canonical_and_annotated(29, config);
        match run_slice(&annotated, Some(2)) {
            SliceOutcome::Suspended { checkpoint, .. } => assert!(checkpoint.contains("# note")),
            other => panic!("expected a suspension, got {other:?}"),
        }
        // ...and at phase-level verification the slice compares it with
        // the full serialization.
        let config = RouterConfig {
            verify: bgr_core::VerifyLevel::Phases,
            ..RouterConfig::default()
        };
        let (canonical, annotated) = canonical_and_annotated(29, config);
        assert!(matches!(
            run_slice(&canonical, Some(2)),
            SliceOutcome::Suspended { .. }
        ));
        match run_slice(&annotated, Some(2)) {
            SliceOutcome::Failed {
                error: RouteError::Internal { message, .. },
            } => assert!(message.contains("spliced checkpoint differs"), "{message}"),
            other => panic!("expected the splice oracle to fail the slice, got {other:?}"),
        }
    }

    /// Each job's checkpoint (`None` once terminal), keyed by its slice
    /// count; a job not yet materialized has no entry.
    type Checkpoints = std::collections::BTreeMap<u64, Option<String>>;

    fn record_checkpoints(q: &JobQueue, seen: &mut [Checkpoints]) {
        for (job, seen) in q.jobs().iter().zip(seen) {
            if job.checkpoint().is_some() || job.state().is_terminal() {
                seen.insert(job.slices(), job.checkpoint().map(str::to_owned));
            }
        }
    }

    fn submit_three(q: &mut JobQueue) {
        for (seed, quota) in [(3u64, Some(3)), (11, Some(4)), (42, Some(5))] {
            let (c, p, k) = small_case(seed);
            q.submit(format!("s{seed}"), c, p, k, RouterConfig::default(), quota);
        }
    }

    /// Submits the three `submit_three` jobs, a fourth with quota 3 and
    /// a fifth from `checkpoint`.
    fn submit_five(q: &mut JobQueue, checkpoint: &str) {
        submit_three(q);
        let (c, p, k) = small_case(7);
        q.submit("s7", c, p, k, RouterConfig::default(), Some(3));
        q.submit_checkpoint("arm", checkpoint, Some(4)).unwrap();
    }

    #[test]
    fn kept_snapshot_drain_equals_reparsing_drain() {
        let (checkpoint, _) = canonical_and_annotated(29, RouterConfig::default());
        // Reference: every slice leased out, so every slice parses its
        // whole checkpoint; job 2's first two outcomes are journaled.
        let mut reparsed = JobQueue::new();
        submit_five(&mut reparsed, &checkpoint);
        let mut want = vec![Checkpoints::new(); 5];
        let mut journal = Vec::new();
        record_checkpoints(&reparsed, &mut want);
        loop {
            let mut advanced = false;
            for id in 0..5 {
                if let Some(spec) = reparsed.lease_spec(id).unwrap() {
                    let out = run_lease(&spec);
                    if id == 2 && spec.slice < 2 {
                        journal.push((id, spec.slice, out.clone()));
                    }
                    assert!(reparsed.apply_remote(id, spec.slice, out));
                    advanced = true;
                }
            }
            record_checkpoints(&reparsed, &mut want);
            if !advanced {
                break;
            }
        }

        // Kept snapshots: job 0 keeps the one of its materialization, job
        // 1 is leased once and then run locally, job 2 is restored from
        // the journal and then run locally, job 3 is cancelled after its
        // first local slice and later reactivated, and job 4 starts from
        // a submitted checkpoint. Each path but job 0's leaves the job
        // without a snapshot, so its next local slice parses.
        let registry = MetricsRegistry::new();
        let mut kept = JobQueue::with_metrics(&registry);
        submit_five(&mut kept, &checkpoint);
        assert!(
            kept.jobs[4].kept.is_none(),
            "a submitted job keeps no snapshot"
        );
        let mut got = vec![Checkpoints::new(); 5];
        let spec = kept.lease_spec(1).unwrap().unwrap();
        assert!(
            kept.jobs[1].kept.is_none(),
            "a leased job keeps no snapshot"
        );
        assert!(kept.apply_remote(1, spec.slice, run_lease(&spec)));
        assert!(
            kept.jobs[1].kept.is_none(),
            "a remote slice leaves no snapshot"
        );
        let replayed = kept.replay(journal);
        assert_eq!(replayed.applied, 2);
        assert!(
            kept.jobs[2].kept.is_none(),
            "a replayed job keeps no snapshot"
        );
        record_checkpoints(&kept, &mut got);
        let mut rounds = 0;
        while kept.run_round(1) > 0 {
            rounds += 1;
            for job in kept.jobs().iter().filter(|j| j.runnable()) {
                assert!(job.kept.is_some(), "{} lost its snapshot", job.name());
            }
            record_checkpoints(&kept, &mut got);
            match rounds {
                1 => {
                    kept.cancel(3);
                    assert!(
                        kept.jobs[3].kept.is_none(),
                        "a cancelled job keeps no snapshot"
                    );
                }
                3 => kept.reactivate(3),
                _ => {}
            }
        }
        for (id, resumed_at) in [1, 1, 2, 1, 0].into_iter().enumerate() {
            assert_eq!(*got[id].keys().next().unwrap(), resumed_at, "job {id}");
            let tail: Checkpoints = want[id]
                .range(resumed_at..)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            assert_eq!(got[id], tail, "job {id}: checkpoints differ");
        }
        for id in 0..5 {
            let (a, b) = (kept.job(id), reparsed.job(id));
            assert_eq!(a.state(), SessionState::Completed, "{:?}", a.error());
            assert_eq!(a.stream(), b.stream(), "job {id}: streams differ");
            assert_eq!(a.verdict(), b.verdict());
            assert!(a.kept.is_none(), "a completed job keeps no snapshot");
        }
        // Every local slice resumed from a kept snapshot except four that
        // parsed their checkpoints whole: the first local slices of jobs
        // 1, 2 and 4, and job 3's first after its reactivation.
        let m = ServeMetrics::register(&registry);
        let slices: u64 = (0..5).map(|id| kept.job(id).slices()).sum();
        let local = slices - 3;
        assert_eq!(m.slices_total.get(), slices);
        assert_eq!(m.design_reused_total.get(), local - 4);
    }

    #[test]
    fn altered_kept_design_fails_the_slice_at_phases() {
        let config = RouterConfig {
            verify: bgr_core::VerifyLevel::Phases,
            ..RouterConfig::default()
        };
        let (c, p, k) = small_case(29);
        let mut q = JobQueue::new();
        let id = q.submit("altered", c, p, k, config, Some(2));
        q.run_round(1);
        assert_eq!(q.job(id).state(), SessionState::Suspended);
        let Kept {
            mut snapshot,
            prefix_len,
        } = q.jobs[id].kept.take().unwrap();
        let (c, p, mut k) = snapshot.design.into_parts();
        k[0].limit_ps += 1.0;
        snapshot.design = SessionDesign::new(c, p, k).unwrap();
        q.jobs[id].kept = Some(Kept {
            snapshot,
            prefix_len,
        });
        q.run_round(1);
        assert_eq!(q.job(id).state(), SessionState::Failed);
        match q.job(id).error() {
            Some(RouteError::Internal { message, .. }) => {
                assert!(message.contains("spliced checkpoint differs"), "{message}")
            }
            other => panic!("expected the kept-design oracle to fail the slice, got {other:?}"),
        }
        assert!(q.jobs[id].kept.is_none());
    }

    #[test]
    fn terminal_and_cancelled_jobs_hold_no_design() {
        let mut q = JobQueue::new();
        let (c, p, k) = small_case(3);
        let done = q.submit("done", c, p, k, RouterConfig::default(), Some(4));
        let (c, p, k) = small_case(11);
        let parked = q.submit("parked", c, p, k, RouterConfig::default(), Some(4));
        q.set_policy(QueuePolicy {
            deadline_ms: Some(0),
            ..QueuePolicy::default()
        });
        let (c, p, k) = small_case(13);
        let doomed = q
            .try_submit("doomed", c, p, k, RouterConfig::default(), Some(4))
            .unwrap();
        q.run_round(1);
        assert!(q.jobs[done].kept.is_some());
        assert!(q.jobs[parked].kept.is_some());
        assert_eq!(q.job(doomed).state(), SessionState::Failed);
        assert!(q.jobs[doomed].kept.is_none());

        q.cancel(parked);
        assert!(q.jobs[parked].kept.is_none());
        q.run(1);
        assert_eq!(q.job(done).state(), SessionState::Completed);
        assert!(q.jobs[done].kept.is_none());
        assert!(q.jobs[parked].kept.is_none());

        // Reactivated, it parses its checkpoint once and keeps a
        // snapshot again until it completes.
        q.reactivate(parked);
        q.run_round(1);
        assert!(q.jobs[parked].kept.is_some());
        q.run(1);
        assert_eq!(q.job(parked).state(), SessionState::Completed);
        assert!(q.jobs.iter().all(|j| j.kept.is_none()));
    }
}
