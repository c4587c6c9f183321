//! The pull-based slice worker.
//!
//! [`run_worker`] connects to a coordinator, performs the
//! HELLO/WELCOME handshake (version check, optional auth token), then
//! loops: request a lease, execute it with the *same*
//! [`bgr_serve::run_lease`] the local queue uses, return the result,
//! repeat — until the coordinator reports the drain settled, at which
//! point the worker ships its metrics snapshot and disconnects. The
//! worker holds no routing state between leases: everything it needs is
//! in the checkpoint, everything it learned is in the result.
//!
//! # Fault tolerance
//!
//! Transport faults are survivable by construction (DESIGN.md §15
//! "Failure model"): [`ProtoError::is_retryable`] splits stream death
//! and in-flight damage from deterministic failures, and retryable
//! errors trigger a reconnect with bounded exponential backoff and a
//! fresh handshake. A result whose delivery was in doubt when the
//! stream died is *resent* on the new connection — safe because the
//! coordinator rejects duplicates by slice index. While a slice
//! computes, a scoped heartbeat loop keeps the lease alive on the
//! coordinator's advertised cadence, so a slow-but-alive worker never
//! forfeits its work.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bgr_core::RouteError;
use bgr_metrics::{CounterHandle, HistogramHandle, MetricsRegistry};
use bgr_serve::{run_lease, LeaseSpec, SliceOutcome};

use crate::frame::PROTO_VERSION;
use crate::proto::{recv, send, Message, ProtoError};

/// Per-worker operational counters, merged fleet-wide by the
/// coordinator via snapshot shipping.
#[derive(Debug, Clone)]
pub struct WorkerMetrics {
    /// Leases accepted.
    pub leases_total: CounterHandle,
    /// Wall-clock of one leased slice, µs.
    pub slice_latency_us: HistogramHandle,
    /// Leased slices that suspended again.
    pub suspended_total: CounterHandle,
    /// Leased slices that finished their session.
    pub finished_total: CounterHandle,
    /// Leased slices that failed structurally.
    pub failed_total: CounterHandle,
    /// Reconnects after a retryable transport fault.
    pub reconnects_total: CounterHandle,
    /// In-slice heartbeats acknowledged by the coordinator.
    pub heartbeats_total: CounterHandle,
    /// Leases abandoned unrun because their deadline budget had
    /// already expired when granted.
    pub deadline_abandoned_total: CounterHandle,
}

impl WorkerMetrics {
    /// Registers the worker metric family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            leases_total: registry.counter(
                "bgr_worker_leases_total",
                "Slice leases accepted by this worker",
                &[],
            ),
            slice_latency_us: registry.histogram(
                "bgr_worker_slice_latency_us",
                "Wall-clock latency of one leased slice in microseconds",
                &[],
            ),
            suspended_total: registry.counter(
                "bgr_worker_slices_suspended_total",
                "Leased slices that suspended at a new checkpoint",
                &[],
            ),
            finished_total: registry.counter(
                "bgr_worker_slices_finished_total",
                "Leased slices that finished their session",
                &[],
            ),
            failed_total: registry.counter(
                "bgr_worker_slices_failed_total",
                "Leased slices that failed structurally",
                &[],
            ),
            reconnects_total: registry.counter(
                "bgr_worker_reconnects_total",
                "Reconnects after a retryable transport fault",
                &[],
            ),
            heartbeats_total: registry.counter(
                "bgr_worker_heartbeats_total",
                "In-slice heartbeats acknowledged by the coordinator",
                &[],
            ),
            deadline_abandoned_total: registry.counter(
                "bgr_worker_deadline_abandoned_total",
                "Leases abandoned unrun because their deadline budget expired",
                &[],
            ),
        }
    }
}

/// How a worker runs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Self-chosen name, sent in HELLO (diagnostics only).
    pub name: String,
    /// Shared-secret auth token, sent in HELLO when the fleet runs
    /// with one.
    pub token: Option<String>,
    /// Crash injection for tests: accept the k-th lease (1-based) and
    /// drop the connection without replying, leaving the lease to
    /// expire and be reassigned. The worker exits.
    pub die_on_lease: Option<u64>,
    /// Crash injection for tests: after *submitting* the k-th result
    /// (1-based), sever the connection before reading the reply. The
    /// worker's own retry layer then reconnects, re-handshakes and
    /// resends — exercising the full recovery path in real binaries.
    /// Fires once.
    pub die_after_result: Option<u64>,
    /// Initial sleep between lease polls while the coordinator has no
    /// work; doubles per consecutive idle poll up to [`Self::poll_cap`]
    /// and resets when work is granted.
    pub poll: Duration,
    /// Ceiling of the idle-poll backoff.
    pub poll_cap: Duration,
    /// Heartbeat cadence override while a slice computes. `None` uses
    /// the cadence the coordinator advertises in WELCOME.
    pub heartbeat: Option<Duration>,
    /// Test support: sleep this long inside every lease (before
    /// [`run_lease`]) to simulate slow work. Wall clock only — never a
    /// determinism input.
    pub slice_delay: Option<Duration>,
    /// Reconnect attempts after a retryable fault before giving up.
    /// The counter resets whenever a connection makes progress (a
    /// lease is granted or the drain settles cleanly).
    pub retry_max: u32,
    /// First reconnect backoff delay; doubles per consecutive failed
    /// attempt.
    pub retry_base: Duration,
    /// Ceiling of the reconnect backoff.
    pub retry_cap: Duration,
}

impl WorkerOptions {
    /// Defaults: the given name, no token, no crash injection, 5 ms
    /// idle poll backing off to 160 ms, coordinator-advertised
    /// heartbeat cadence, 10 reconnect attempts from 15 ms up to 2 s.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            token: None,
            die_on_lease: None,
            die_after_result: None,
            poll: Duration::from_millis(5),
            poll_cap: Duration::from_millis(160),
            heartbeat: None,
            slice_delay: None,
            retry_max: 10,
            retry_base: Duration::from_millis(15),
            retry_cap: Duration::from_secs(2),
        }
    }
}

/// Doubles `base` per step, saturating at `cap`. The schedule is a pure
/// function of the step index — deterministic, no jitter (replayable
/// chaos runs need identical schedules).
fn backoff_delay(base: Duration, cap: Duration, step: u32) -> Duration {
    let factor = 1u32 << step.min(20);
    base.saturating_mul(factor).min(cap)
}

/// What a worker did over one drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Leases accepted.
    pub leases: u64,
    /// Slices executed to a result.
    pub slices: u64,
    /// Whether crash injection terminated the worker.
    pub died: bool,
    /// Reconnects performed after retryable transport faults
    /// (including those provoked by `die_after_result`).
    pub reconnects: u64,
}

/// One drain-side conversation's working state, shared across
/// reconnects of the same logical worker.
struct DrainState {
    report: WorkerReport,
    /// A result whose delivery is in doubt: set before the Result frame
    /// is sent, cleared once *any* reply arrives (strict
    /// request/response pairs them), resent first on a fresh
    /// connection. Duplicates are rejected stale by the coordinator.
    pending: Option<(u64, u64, SliceOutcome)>,
    /// Results submitted (send completed) — monotonic across
    /// reconnects, so `die_after_result`'s equality check fires once.
    submitted: u64,
}

/// Connects to the coordinator at `addr` and drains leases until the
/// coordinator settles (or crash injection fires). The worker's
/// metrics land in `registry` and are shipped to the coordinator as a
/// snapshot just before the clean disconnect. Retryable transport
/// faults (see [`ProtoError::is_retryable`]) are absorbed by
/// reconnecting with bounded exponential backoff.
///
/// # Errors
///
/// Structured [`ProtoError`]: fatal errors (version skew, auth or
/// other `Nack` refusals, schema violations) immediately, retryable
/// errors once `retry_max` consecutive reconnect attempts all failed.
/// Never hangs: every exit is a report or a classified error.
pub fn run_worker(
    addr: &str,
    opts: &WorkerOptions,
    registry: &MetricsRegistry,
) -> Result<WorkerReport, ProtoError> {
    let metrics = WorkerMetrics::register(registry);
    let mut state = DrainState {
        report: WorkerReport {
            leases: 0,
            slices: 0,
            died: false,
            reconnects: 0,
        },
        pending: None,
        submitted: 0,
    };
    let mut attempts: u32 = 0;
    loop {
        let progress_before = (state.report.leases, state.report.slices);
        match drain_connection(addr, opts, registry, &metrics, &mut state) {
            Ok(()) => return Ok(state.report),
            Err(e) if !e.is_retryable() => return Err(e),
            Err(e) => {
                // Progress on the dead connection proves the fault is
                // transient, not systemic: restart the budget.
                if (state.report.leases, state.report.slices) != progress_before {
                    attempts = 0;
                }
                if attempts >= opts.retry_max {
                    return Err(e);
                }
                // Honor the coordinator's retry hint: a busy-shed
                // connection sleeps at least `retry_after_ms` before
                // re-dialing, the deterministic ladder applying on top.
                let mut delay = backoff_delay(opts.retry_base, opts.retry_cap, attempts);
                if let ProtoError::Refused { retry_after_ms, .. } = &e {
                    delay = delay.max(Duration::from_millis(*retry_after_ms));
                }
                std::thread::sleep(delay);
                attempts += 1;
                state.report.reconnects += 1;
                metrics.reconnects_total.inc();
            }
        }
    }
}

/// Runs one connection's conversation to completion. `Ok(())` means the
/// worker is done (drain settled, or crash injection exited it); an
/// `Err` is classified by the caller into reconnect vs give-up.
fn drain_connection(
    addr: &str,
    opts: &WorkerOptions,
    registry: &MetricsRegistry,
    metrics: &WorkerMetrics,
    state: &mut DrainState,
) -> Result<(), ProtoError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| ProtoError::Connect {
        kind: e.kind(),
        message: format!("connect {addr}: {e}"),
    })?;
    let _ = stream.set_nodelay(true);
    send(
        &mut stream,
        &Message::Hello {
            version: PROTO_VERSION,
            worker: opts.name.clone(),
            token: opts.token.clone(),
        },
    )?;
    let cadence = match recv(&mut stream)? {
        Message::Welcome { heartbeat_ms, .. } => {
            opts.heartbeat
                .unwrap_or(Duration::from_millis(if heartbeat_ms == 0 {
                    1000
                } else {
                    heartbeat_ms
                }))
        }
        Message::Nack {
            code,
            detail,
            retry_after_ms,
        } => {
            return Err(ProtoError::Refused {
                code,
                detail,
                retry_after_ms,
            })
        }
        other => {
            return Err(ProtoError::Malformed {
                message: format!("expected WELCOME, got kind {}", other.kind()),
            })
        }
    };
    let mut idle: u32 = 0;
    loop {
        // One request per iteration: resend the in-doubt result if any,
        // otherwise ask for work.
        let was_result = state.pending.is_some();
        let req = match &state.pending {
            Some((job, slice, outcome)) => Message::Result {
                job: *job,
                slice: *slice,
                outcome: outcome.clone(),
            },
            None => Message::LeaseReq,
        };
        send(&mut stream, &req)?;
        if was_result {
            state.submitted += 1;
            if opts.die_after_result == Some(state.submitted) {
                // Crash injection: the result is on the wire, the reply
                // is not ours to see. Sever and let the retry layer
                // reconnect and resend (the duplicate lands stale).
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return Err(ProtoError::Connect {
                    kind: std::io::ErrorKind::ConnectionReset,
                    message: format!(
                        "crash injection: connection severed after result {}",
                        state.submitted
                    ),
                });
            }
        }
        let reply = recv(&mut stream)?;
        // A reply pairs with our request: the in-doubt result (if any)
        // has definitively been received (and applied or rejected).
        state.pending = None;
        match reply {
            Message::Lease(spec) => {
                idle = 0;
                state.report.leases += 1;
                metrics.leases_total.inc();
                if opts.die_on_lease == Some(state.report.leases) {
                    // Crash injection: vanish mid-slice. The dropped
                    // connection leaves the lease to expire; the
                    // coordinator reassigns the identical spec.
                    drop(stream);
                    state.report.died = true;
                    return Ok(());
                }
                let start = Instant::now();
                let (out, hb_err) =
                    run_lease_heartbeating(&mut stream, &spec, cadence, opts, metrics);
                if let SliceOutcome::Failed {
                    error: RouteError::DeadlineExpired { .. },
                } = &out
                {
                    // Abandoned unrun: `run_lease` returns at once for a
                    // spent budget, so no slice ran and no heartbeat fell
                    // due.
                    metrics.deadline_abandoned_total.inc();
                } else {
                    metrics
                        .slice_latency_us
                        .observe(start.elapsed().as_micros() as u64);
                    state.report.slices += 1;
                }
                match &out {
                    SliceOutcome::Suspended { .. } => metrics.suspended_total.inc(),
                    SliceOutcome::Finished { .. } => metrics.finished_total.inc(),
                    SliceOutcome::Failed { .. } => metrics.failed_total.inc(),
                }
                // The computed result must survive the connection: park
                // it as in-doubt *before* anything can fail, so a dead
                // stream (including one detected by the heartbeat loop)
                // resends it after reconnecting instead of wasting the
                // slice.
                state.pending = Some((spec.job as u64, spec.slice, out));
                if let Some(e) = hb_err {
                    return Err(e);
                }
            }
            Message::NoWork { settled: false } => {
                std::thread::sleep(backoff_delay(opts.poll, opts.poll_cap, idle));
                idle = idle.saturating_add(1);
            }
            Message::NoWork { settled: true } => {
                send(
                    &mut stream,
                    &Message::Metrics {
                        snapshot: registry.snapshot().to_text(),
                    },
                )?;
                match recv(&mut stream)? {
                    Message::Bye => {}
                    other => {
                        return Err(ProtoError::Malformed {
                            message: format!("expected BYE, got kind {}", other.kind()),
                        })
                    }
                }
                send(&mut stream, &Message::Bye)?;
                return Ok(());
            }
            Message::Nack {
                code,
                detail,
                retry_after_ms,
            } => {
                return Err(ProtoError::Refused {
                    code,
                    detail,
                    retry_after_ms,
                })
            }
            other => {
                return Err(ProtoError::Malformed {
                    message: format!("unexpected kind {}", other.kind()),
                })
            }
        }
    }
}

/// Executes one lease with [`run_lease`] on a scoped thread while
/// this thread heartbeats it on `cadence`. Returns the outcome plus the
/// first heartbeat error, if any — the slice always runs to completion
/// (the work is never wasted; a dead stream means the caller resends
/// the parked result after reconnecting).
fn run_lease_heartbeating(
    stream: &mut TcpStream,
    spec: &LeaseSpec,
    cadence: Duration,
    opts: &WorkerOptions,
    metrics: &WorkerMetrics,
) -> (SliceOutcome, Option<ProtoError>) {
    let done = AtomicBool::new(false);
    let mut hb_err: Option<ProtoError> = None;
    let out = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            if let Some(d) = opts.slice_delay {
                std::thread::sleep(d);
            }
            let out = run_lease(spec);
            done.store(true, Ordering::Release);
            out
        });
        let mut last = Instant::now();
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
            if hb_err.is_some() || last.elapsed() < cadence {
                continue;
            }
            let heartbeat = Message::Heartbeat {
                job: spec.job as u64,
                slice: spec.slice,
            };
            let echoed = send(&mut *stream, &heartbeat).and_then(|()| recv(&mut *stream));
            match echoed {
                Ok(Message::Heartbeat { .. }) => metrics.heartbeats_total.inc(),
                Ok(other) => {
                    hb_err = Some(ProtoError::Malformed {
                        message: format!("expected HEARTBEAT echo, got kind {}", other.kind()),
                    });
                }
                Err(e) => hb_err = Some(e),
            }
            last = Instant::now();
        }
        match handle.join() {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    (out, hb_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let base = Duration::from_millis(15);
        let cap = Duration::from_secs(2);
        assert_eq!(backoff_delay(base, cap, 0), Duration::from_millis(15));
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(30));
        assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(120));
        assert_eq!(backoff_delay(base, cap, 8), cap);
        // Far past the cap: no overflow, still the cap.
        assert_eq!(backoff_delay(base, cap, u32::MAX), cap);
    }

    #[test]
    fn exhausted_retries_surface_the_classified_error() {
        // Nothing listens on a fresh ephemeral port we bind then drop.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut opts = WorkerOptions::named("orphan");
        opts.retry_max = 2;
        opts.retry_base = Duration::from_millis(1);
        opts.retry_cap = Duration::from_millis(2);
        let registry = MetricsRegistry::new();
        let err = run_worker(&addr, &opts, &registry).unwrap_err();
        assert!(err.is_retryable(), "exhausted error keeps its class: {err}");
        assert!(matches!(err, ProtoError::Connect { .. }), "{err:?}");
    }
}
