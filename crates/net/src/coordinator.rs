//! Lease-based drain coordination over a [`JobQueue`].
//!
//! The [`Coordinator`] owns the queue and a lease table. Workers pull:
//! each asks for a lease, runs it with the *same*
//! `bgr_serve::run_lease` the local rounds use, and returns the
//! outcome. Three rules keep a distributed drain byte-identical to a
//! local one (DESIGN.md §15):
//!
//! 1. **Leases are keyed by `(job, slice)`, never by arrival time.**
//!    The grant scan walks job ids ascending; which worker receives a
//!    lease is scheduling noise, because…
//! 2. **…a slice outcome is a pure function of `(checkpoint, quota)`.**
//!    Two workers handed the same lease return byte-identical results,
//!    so "first valid result wins" is deterministic no matter who wins.
//! 3. **Expiry only re-grants, it never mutates.** A lease that misses
//!    its deadline (worker died mid-slice) is handed to the next asker
//!    unchanged; if the presumed-dead worker answers anyway, the
//!    duplicate is stale by slice index and rejected.
//!
//! Speculative portfolios ride on the same machinery: one suspended
//! checkpoint is fanned under N configuration arms (differing only in
//! deterministically safe knobs — see `bgr_io::reconfigure_checkpoint`)
//! as N independent jobs, budgeted to `max_slices` each. Budgets are
//! enforced *before* any grant, so an arm runs exactly
//! `min(natural, max_slices)` slices regardless of worker timing, and
//! the winner is decided only once every arm has parked or finished —
//! by the total order ([`bgr_serve::FinishVerdict::beats`], then arm index), never
//! by which arm finished first on the wall clock.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bgr_core::{RouteError, RouterConfig};
use bgr_io::{read_journal, reconfigure_checkpoint, JournalWriter};
use bgr_metrics::{CounterHandle, MetricsRegistry, MetricsSnapshot};
use bgr_serve::{JobQueue, LeaseSpec, ReplayStats, SessionState, SliceOutcome};

use crate::frame::Frame;
use crate::proto::{result_payload, Message, ProtoError};

/// Diagnostic counters for the coordination layer, registered beside
/// the queue's [`bgr_serve::ServeMetrics`]. Observational only — no
/// routing decision reads them.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// Leases granted (including re-grants after expiry).
    pub leases_granted_total: CounterHandle,
    /// Grants that replaced an expired lease.
    pub leases_expired_total: CounterHandle,
    /// Results accepted and applied to the queue.
    pub results_applied_total: CounterHandle,
    /// Results rejected as stale (expired-lease duplicates, replays).
    pub results_stale_total: CounterHandle,
    /// Heartbeats that extended a live lease.
    pub heartbeats_total: CounterHandle,
    /// Connections shed at accept with `Nack(busy)` (concurrency cap).
    pub conns_shed_total: CounterHandle,
    /// Lease requests deferred because the live-lease table was at its
    /// configured depth limit.
    pub leases_deferred_total: CounterHandle,
    /// Journal append failures that degraded the coordinator to
    /// journal-less operation (at most 1 per attached journal).
    pub journal_degraded_total: CounterHandle,
}

impl NetMetrics {
    /// Registers the coordination metric family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            leases_granted_total: registry.counter(
                "bgr_net_leases_granted_total",
                "Slice leases granted to workers (re-grants included)",
                &[],
            ),
            leases_expired_total: registry.counter(
                "bgr_net_leases_expired_total",
                "Lease grants that replaced an expired lease",
                &[],
            ),
            results_applied_total: registry.counter(
                "bgr_net_results_applied_total",
                "Worker slice results accepted and applied",
                &[],
            ),
            results_stale_total: registry.counter(
                "bgr_net_results_stale_total",
                "Worker slice results rejected as stale",
                &[],
            ),
            heartbeats_total: registry.counter(
                "bgr_net_heartbeats_total",
                "Heartbeats that extended a live lease",
                &[],
            ),
            conns_shed_total: registry.counter(
                "bgr_net_conns_shed_total",
                "Connections shed at accept with Nack(busy)",
                &[],
            ),
            leases_deferred_total: registry.counter(
                "bgr_net_leases_deferred_total",
                "Lease requests deferred by the live-lease depth limit",
                &[],
            ),
            journal_degraded_total: registry.counter(
                "bgr_net_journal_degraded_total",
                "Journal failures that degraded to journal-less operation",
                &[],
            ),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    slice: u64,
    deadline: Instant,
}

/// One speculative portfolio: arm job ids plus its race state.
#[derive(Debug)]
pub struct Portfolio {
    /// Portfolio name (diagnostics).
    pub name: String,
    /// Queue ids of the arm jobs, in arm order (the final tiebreak).
    pub arms: Vec<usize>,
    /// Per-arm slice budget; arms are cancelled at this boundary.
    pub max_slices: u64,
    /// Winning arm *position* (index into `arms`), once decided.
    pub winner: Option<usize>,
    /// Whether the race has been decided (a decided race can still
    /// have no winner, when every arm was cancelled before finishing).
    pub decided: bool,
}

/// Coordinates a fleet of pull-based workers draining a [`JobQueue`].
/// Transport-free: the TCP layer in [`crate::drain`] and in-process
/// tests drive the same methods.
#[derive(Debug)]
pub struct Coordinator {
    queue: JobQueue,
    leases: HashMap<usize, Lease>,
    lease_timeout: Duration,
    max_live_leases: Option<usize>,
    portfolios: Vec<Portfolio>,
    metrics: Option<NetMetrics>,
    worker_snapshots: Vec<(String, MetricsSnapshot)>,
    journal: Option<JournalWriter>,
    journal_degraded: Option<String>,
}

impl Coordinator {
    /// Wraps `queue`; leases expire `lease_timeout` after grant unless
    /// extended by heartbeats.
    pub fn new(queue: JobQueue, lease_timeout: Duration) -> Self {
        Self {
            queue,
            leases: HashMap::new(),
            lease_timeout,
            max_live_leases: None,
            portfolios: Vec::new(),
            metrics: None,
            worker_snapshots: Vec::new(),
            journal: None,
            journal_degraded: None,
        }
    }

    /// Attaches coordination counters (see [`NetMetrics`]).
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(NetMetrics::register(registry));
        self
    }

    /// Caps the live (unexpired) lease table at `max` entries. A lease
    /// request arriving at the cap is deferred — answered `NoWork`
    /// rather than granted — until a lease completes or expires.
    /// Deferral throttles concurrency only; which slices run, and what
    /// they compute, is unchanged (rule 2: outcomes are pure functions
    /// of the spec). `None` (the default) grants without depth limit.
    pub fn with_max_live_leases(mut self, max: Option<usize>) -> Self {
        self.max_live_leases = max;
        self
    }

    /// Records a connection shed at accept by the serving loop's
    /// concurrency cap (see [`crate::drain::DrainOptions::max_conns`]).
    pub fn note_connection_shed(&mut self) {
        if let Some(m) = &self.metrics {
            m.conns_shed_total.inc();
        }
    }

    /// Attaches a write-ahead outcome journal: every applied `RESULT`
    /// is appended (as its wire payload) before it mutates the queue,
    /// so a killed coordinator can [`Self::replay_journal`] back to the
    /// exact queue state. Attach *after* replaying — replayed results
    /// go through [`JobQueue::replay`], which never journals, so a
    /// restart does not duplicate records.
    pub fn with_journal(mut self, writer: JournalWriter) -> Self {
        self.journal = Some(writer);
        self
    }

    /// The first journal-append failure, if any. Durability degrades
    /// (the drain itself continues); operators alert on this.
    pub fn journal_degradation(&self) -> Option<&str> {
        self.journal_degraded.as_deref()
    }

    /// The lease timeout this coordinator grants under.
    pub fn lease_timeout(&self) -> Duration {
        self.lease_timeout
    }

    /// Heartbeat cadence advertised in WELCOME: a quarter of the lease
    /// timeout (min 1 ms), so a slow-but-alive worker refreshes its
    /// lease several times per deadline window.
    pub fn heartbeat_cadence_ms(&self) -> u64 {
        (self.lease_timeout.as_millis() as u64 / 4).max(1)
    }

    /// Replays a journal's bytes into the queue via
    /// [`JobQueue::replay`], returning what was applied. Jobs (and any
    /// portfolio) must already be re-submitted in their original order;
    /// stale or duplicate records are rejected by the same slice-index
    /// validation as live results, so replaying a journal twice is
    /// harmless.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] when the journal itself is damaged
    /// mid-file or a record does not decode as a `RESULT` payload (a
    /// torn tail from a crash mid-append is tolerated, not an error).
    pub fn replay_journal(&mut self, bytes: &[u8]) -> Result<ReplayStats, ProtoError> {
        let (entries, _tail) = read_journal(bytes).map_err(|e| ProtoError::Malformed {
            message: format!("journal: {e}"),
        })?;
        let mut outcomes = Vec::with_capacity(entries.len());
        for entry in entries {
            if entry.kind != "result" {
                continue;
            }
            // Journal records carry the `RESULT` wire payload verbatim;
            // re-frame under its discriminant to reuse the decoder.
            let frame = Frame {
                kind: 6,
                payload: entry.payload,
            };
            match Message::decode(&frame)? {
                Message::Result {
                    job,
                    slice,
                    outcome,
                } => outcomes.push((job as usize, slice, outcome)),
                other => {
                    return Err(ProtoError::Malformed {
                        message: format!("journal result record decoded as kind {}", other.kind()),
                    })
                }
            }
        }
        Ok(self.queue.replay(outcomes))
    }

    /// The wrapped queue (streams, states, verdicts).
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// Mutable queue access (submission before the drain starts).
    pub fn queue_mut(&mut self) -> &mut JobQueue {
        &mut self.queue
    }

    /// Registers a speculative portfolio: `checkpoint` is fanned under
    /// every arm's configuration as an independent suspended job.
    /// Returns the portfolio id.
    ///
    /// # Errors
    ///
    /// Structured error when the checkpoint does not parse or an arm
    /// cannot be submitted.
    pub fn race_portfolio(
        &mut self,
        name: impl Into<String>,
        checkpoint: &str,
        arms: &[(String, RouterConfig)],
        quota: Option<u64>,
        max_slices: u64,
    ) -> Result<usize, RouteError> {
        let name = name.into();
        let mut ids = Vec::with_capacity(arms.len());
        for (arm_name, config) in arms {
            let armed =
                reconfigure_checkpoint(checkpoint, config).map_err(|e| RouteError::Checkpoint {
                    message: e.to_string(),
                })?;
            ids.push(
                self.queue
                    .submit_checkpoint(format!("{name}/{arm_name}"), &armed, quota)?,
            );
        }
        self.portfolios.push(Portfolio {
            name,
            arms: ids,
            max_slices,
            winner: None,
            decided: false,
        });
        Ok(self.portfolios.len() - 1)
    }

    /// The registered portfolios, in registration order.
    pub fn portfolios(&self) -> &[Portfolio] {
        &self.portfolios
    }

    /// Enforces portfolio budgets and decides finished races. Called
    /// before every grant, so no arm is ever leased past its budget —
    /// the cancellation boundary is a function of slice counts alone,
    /// not of worker timing.
    fn maintain(&mut self) {
        for p in &mut self.portfolios {
            for &id in &p.arms {
                let job = self.queue.job(id);
                if !job.state().is_terminal() && !job.is_cancelled() && job.slices() >= p.max_slices
                {
                    self.queue.cancel(id);
                }
            }
            if p.decided {
                continue;
            }
            let all_parked = p.arms.iter().all(|&id| {
                let job = self.queue.job(id);
                job.state().is_terminal() || (job.is_cancelled() && !self.leases.contains_key(&id))
            });
            if !all_parked {
                continue;
            }
            // Total order: audited feasibility, worst margin, area,
            // length ([`FinishVerdict::beats`]); ascending arm index
            // breaks exact ties because the scan keeps the incumbent.
            let mut winner: Option<usize> = None;
            for (pos, &id) in p.arms.iter().enumerate() {
                let Some(v) = self.queue.job(id).verdict() else {
                    continue;
                };
                match winner {
                    None => winner = Some(pos),
                    Some(best) => {
                        let best_v = self
                            .queue
                            .job(p.arms[best])
                            .verdict()
                            .expect("winner has a verdict");
                        if v.beats(best_v) {
                            winner = Some(pos);
                        }
                    }
                }
            }
            p.winner = winner;
            p.decided = true;
        }
    }

    /// Whether nothing is leasable anymore and every race is decided.
    pub fn settled(&mut self) -> bool {
        self.maintain();
        self.queue.settled() && self.portfolios.iter().all(|p| p.decided)
    }

    /// Grants the next lease by ascending job id, skipping jobs whose
    /// current lease has not expired. Re-granting an expired lease
    /// hands out the *identical* spec — reassignment changes nothing a
    /// worker computes.
    pub fn next_lease(&mut self, now: Instant) -> Option<LeaseSpec> {
        self.maintain();
        if let Some(cap) = self.max_live_leases {
            let live = self.leases.values().filter(|l| now < l.deadline).count();
            if live >= cap {
                if let Some(m) = &self.metrics {
                    m.leases_deferred_total.inc();
                }
                return None;
            }
        }
        for id in 0..self.queue.jobs().len() {
            match self.leases.get(&id) {
                Some(lease) if now < lease.deadline => continue,
                _ => {}
            }
            let expired = self.leases.contains_key(&id);
            // Nothing to lease: the job is terminal or cancelled, or it
            // failed to materialize (its structured error lives on it).
            let Ok(Some(spec)) = self.queue.lease_spec(id) else {
                self.leases.remove(&id);
                continue;
            };
            self.leases.insert(
                id,
                Lease {
                    slice: spec.slice,
                    deadline: now + self.lease_timeout,
                },
            );
            if let Some(m) = &self.metrics {
                m.leases_granted_total.inc();
                if expired {
                    m.leases_expired_total.inc();
                }
            }
            return Some(spec);
        }
        None
    }

    /// Extends the deadline of a live lease. Unknown or stale
    /// heartbeats are ignored.
    pub fn heartbeat(&mut self, job: usize, slice: u64, now: Instant) {
        if let Some(lease) = self.leases.get_mut(&job) {
            if lease.slice == slice {
                lease.deadline = now + self.lease_timeout;
                if let Some(m) = &self.metrics {
                    m.heartbeats_total.inc();
                }
            }
        }
    }

    /// Applies a worker's slice result. Returns `false` for stale
    /// results (wrong slice index, terminal job) — harmless duplicates
    /// by rule 2 above, never an error.
    pub fn apply_result(&mut self, job: usize, slice: u64, out: SliceOutcome) -> bool {
        if job >= self.queue.jobs().len() {
            if let Some(m) = &self.metrics {
                m.results_stale_total.inc();
            }
            return false;
        }
        // Write-ahead: journal the result before it mutates the queue.
        // Only plausibly applicable results are journaled (the replay
        // path re-validates through `apply_remote` anyway, so an
        // over-journaled stale record would merely be re-rejected).
        if self.journal.is_some() && self.queue.job(job).slices() == slice {
            let payload = result_payload(job as u64, slice, &out);
            let writer = self.journal.as_mut().expect("checked above");
            if let Err(e) = writer.append("result", &payload) {
                // Durability degrades loudly (metric + recorded cause);
                // the in-memory drain continues.
                self.journal_degraded
                    .get_or_insert_with(|| format!("journal append failed: {e}"));
                self.journal = None;
                if let Some(m) = &self.metrics {
                    m.journal_degraded_total.inc();
                }
            }
        }
        let applied = self.queue.apply_remote(job, slice, out);
        if applied {
            if let Some(lease) = self.leases.get(&job) {
                if lease.slice == slice {
                    self.leases.remove(&job);
                }
            }
        }
        if let Some(m) = &self.metrics {
            if applied {
                m.results_applied_total.inc();
            } else {
                m.results_stale_total.inc();
            }
        }
        applied
    }

    /// Stores a worker's end-of-drain metrics snapshot for fleet
    /// aggregation ([`MetricsRegistry::render_merged`]).
    pub fn add_worker_snapshot(&mut self, worker: impl Into<String>, snapshot: MetricsSnapshot) {
        self.worker_snapshots.push((worker.into(), snapshot));
    }

    /// Worker snapshots collected so far, in arrival order (arrival
    /// order is fine here: merged counters are commutative sums).
    pub fn worker_snapshots(&self) -> &[(String, MetricsSnapshot)] {
        &self.worker_snapshots
    }

    /// True once every job reached `Completed` (drain succeeded
    /// everywhere; portfolio losers excepted — they park cancelled).
    pub fn all_completed(&self) -> bool {
        let portfolio_jobs: std::collections::HashSet<usize> = self
            .portfolios
            .iter()
            .flat_map(|p| p.arms.iter().copied())
            .collect();
        self.queue
            .jobs()
            .iter()
            .enumerate()
            .filter(|(id, _)| !portfolio_jobs.contains(id))
            .all(|(_, j)| j.state() == SessionState::Completed)
    }
}
