//! The coordinator's TCP serving loop.
//!
//! One handler thread per worker connection; every worker frame gets
//! exactly one reply (strict request/response, no pipelining):
//!
//! | worker sends        | coordinator replies                        |
//! |---------------------|--------------------------------------------|
//! | `Hello`             | `Welcome`, or `Nack(version-skew)` + close |
//! | `LeaseReq`          | `Lease` or `NoWork{settled}`               |
//! | `Result`            | `Lease` or `NoWork{settled}` (next work)   |
//! | `Heartbeat`         | `Heartbeat` (echo)                         |
//! | `Metrics`           | `Bye`                                      |
//! | `Bye`               | (close)                                    |
//!
//! A dropped connection releases nothing: the worker's lease stays
//! until its deadline, then [`Coordinator::next_lease`] re-grants the
//! identical spec to the next asker. That is the crash-recovery path —
//! exercised by `tests/distributed_determinism.rs` with a worker that
//! takes a lease and dies.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgr_metrics::MetricsSnapshot;

use crate::coordinator::Coordinator;
use crate::frame::PROTO_VERSION;
use crate::proto::{recv, send, Message, ProtoError};

/// Serving policy knobs for [`serve_drain_with`].
#[derive(Debug, Clone)]
pub struct DrainOptions {
    /// Shared-secret auth token. When set, a HELLO must carry a
    /// matching token (compared constant-time) or the connection is
    /// answered `Nack(auth)` and closed. When `None`, any HELLO is
    /// accepted (loopback/dev topologies).
    pub token: Option<String>,
    /// Connection-concurrency cap. When set, an accepted connection
    /// that would exceed the cap is answered `Nack(busy)` carrying
    /// [`Self::retry_after_ms`] and closed — load is shed at the door
    /// instead of queueing unbounded handler threads. `None` (the
    /// default) accepts every connection, exactly as before the cap
    /// existed.
    pub max_conns: Option<usize>,
    /// Retry hint carried on `Nack(busy)` replies, in milliseconds.
    /// Workers sleep at least this long before reconnecting (their
    /// deterministic backoff ladder still applies on top).
    pub retry_after_ms: u64,
}

impl Default for DrainOptions {
    fn default() -> Self {
        Self {
            token: None,
            max_conns: None,
            retry_after_ms: 50,
        }
    }
}

/// Constant-time equality over secrets: the comparison's runtime
/// depends only on the *lengths*, never on where the bytes diverge, so
/// a remote cannot binary-search the token byte by byte off timing.
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

fn lease_or_nowork(coord: &Mutex<Coordinator>) -> Message {
    let mut c = coord.lock().expect("coordinator mutex");
    match c.next_lease(Instant::now()) {
        Some(spec) => Message::Lease(spec),
        None => Message::NoWork {
            settled: c.settled(),
        },
    }
}

fn nack(w: &mut TcpStream, code: &str, detail: String) -> Result<(), ProtoError> {
    nack_with_hint(w, code, detail, 0)
}

fn nack_with_hint(
    w: &mut TcpStream,
    code: &str,
    detail: String,
    retry_after_ms: u64,
) -> Result<(), ProtoError> {
    send(
        w,
        &Message::Nack {
            code: code.to_string(),
            detail,
            retry_after_ms,
        },
    )
}

/// Serves one worker connection until it disconnects.
fn handle_worker(
    mut stream: TcpStream,
    coord: &Mutex<Coordinator>,
    opts: &DrainOptions,
) -> Result<(), ProtoError> {
    let _ = stream.set_nodelay(true);
    let worker = match recv(&mut stream)? {
        Message::Hello {
            version,
            worker,
            token,
        } if version == PROTO_VERSION => {
            if let Some(want) = &opts.token {
                let got = token.unwrap_or_default();
                if !ct_eq(want.as_bytes(), got.as_bytes()) {
                    nack(
                        &mut stream,
                        "auth",
                        // Never echo what was presented.
                        "token mismatch".to_string(),
                    )?;
                    return Ok(());
                }
            }
            let heartbeat_ms = coord
                .lock()
                .expect("coordinator mutex")
                .heartbeat_cadence_ms();
            send(
                &mut stream,
                &Message::Welcome {
                    version: PROTO_VERSION,
                    heartbeat_ms,
                },
            )?;
            worker
        }
        Message::Hello { version, .. } => {
            nack(
                &mut stream,
                "version-skew",
                format!("peer v{version}, local v{PROTO_VERSION}"),
            )?;
            return Ok(());
        }
        other => {
            nack(
                &mut stream,
                "bad-request",
                format!("expected HELLO, got kind {}", other.kind()),
            )?;
            return Ok(());
        }
    };
    loop {
        let msg = match recv(&mut stream) {
            Ok(m) => m,
            // A vanished worker is the crash path, not an error: its
            // lease expires and is re-granted.
            Err(ProtoError::Frame(_)) => return Ok(()),
            // A well-framed but malformed payload is a protocol
            // violation: answer Nack and close. Connection-local —
            // the drain itself is unaffected.
            Err(e) => {
                let _ = nack(&mut stream, "bad-request", e.to_string());
                return Ok(());
            }
        };
        match msg {
            Message::LeaseReq => {
                let reply = lease_or_nowork(coord);
                send(&mut stream, &reply)?;
            }
            Message::Result {
                job,
                slice,
                outcome,
            } => {
                coord
                    .lock()
                    .expect("coordinator mutex")
                    .apply_result(job as usize, slice, outcome);
                // Stale results are harmless duplicates (the applied one
                // was byte-identical); either way the worker just needs
                // its next instruction.
                let reply = lease_or_nowork(coord);
                send(&mut stream, &reply)?;
            }
            Message::Heartbeat { job, slice } => {
                coord.lock().expect("coordinator mutex").heartbeat(
                    job as usize,
                    slice,
                    Instant::now(),
                );
                send(&mut stream, &Message::Heartbeat { job, slice })?;
            }
            Message::Metrics { snapshot } => match MetricsSnapshot::parse(&snapshot) {
                Ok(snap) => {
                    coord
                        .lock()
                        .expect("coordinator mutex")
                        .add_worker_snapshot(worker.clone(), snap);
                    send(&mut stream, &Message::Bye)?;
                }
                Err(e) => nack(&mut stream, "bad-request", e.to_string())?,
            },
            Message::Bye => {
                let _ = stream.flush();
                return Ok(());
            }
            other => nack(
                &mut stream,
                "bad-request",
                format!("unexpected kind {}", other.kind()),
            )?,
        }
    }
}

/// Decrements the live-connection counter on drop, so even a panicking
/// handler thread un-counts itself and cannot wedge the accept loop's
/// settle check.
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves `listener` until the coordinator settles *and* every worker
/// connection has closed, then returns the drained coordinator (queue
/// streams, portfolio decisions, collected worker snapshots).
///
/// # Errors
///
/// [`ProtoError::Frame`] when the listener cannot be polled. Anything a
/// single worker connection does wrong — malformed payloads, version
/// skew, vanishing mid-stream — is answered with `Nack` where the
/// stream still works and affects only that connection: the drained
/// coordinator is returned regardless.
///
/// # Panics
///
/// Panics if a handler thread panicked (nothing in the handler should;
/// the drain still settles first, because `ActiveGuard` un-counts the
/// dead connection).
pub fn serve_drain(
    listener: TcpListener,
    coordinator: Coordinator,
) -> Result<Coordinator, ProtoError> {
    serve_drain_with(listener, coordinator, &DrainOptions::default())
}

/// [`serve_drain`] with explicit [`DrainOptions`] (auth token,
/// connection-concurrency cap).
///
/// # Errors
///
/// As [`serve_drain`].
///
/// # Panics
///
/// As [`serve_drain`].
pub fn serve_drain_with(
    listener: TcpListener,
    coordinator: Coordinator,
    options: &DrainOptions,
) -> Result<Coordinator, ProtoError> {
    listener.set_nonblocking(true).map_err(|e| {
        ProtoError::Frame(crate::frame::FrameError::Io {
            message: e.to_string(),
        })
    })?;
    let coord = Arc::new(Mutex::new(coordinator));
    let active = Arc::new(AtomicUsize::new(0));
    let mut handlers = Vec::new();
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if let Some(cap) = options.max_conns {
                    if active.load(Ordering::SeqCst) >= cap {
                        // Shed at the door: one busy-Nack with the
                        // retry hint, then close. No handler thread is
                        // spawned, so the cap bounds live threads too.
                        coord
                            .lock()
                            .expect("coordinator mutex")
                            .note_connection_shed();
                        let _ = nack_with_hint(
                            &mut stream,
                            "busy",
                            format!("connection slots exhausted ({cap} max)"),
                            options.retry_after_ms,
                        );
                        let _ = stream.flush();
                        continue;
                    }
                }
                let coord = Arc::clone(&coord);
                let opts = options.clone();
                active.fetch_add(1, Ordering::SeqCst);
                let guard = ActiveGuard(Arc::clone(&active));
                handlers.push(std::thread::spawn(move || {
                    let _guard = guard;
                    handle_worker(stream, &coord, &opts)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let done = active.load(Ordering::SeqCst) == 0
                    && coord.lock().expect("coordinator mutex").settled();
                if done {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                return Err(ProtoError::Frame(crate::frame::FrameError::Io {
                    message: e.to_string(),
                }))
            }
        }
    }
    drop(listener);
    for h in handlers {
        // A handler's Err is a send failure to a worker that already
        // misbehaved or vanished — connection-local by design, never a
        // reason to discard the fully drained coordinator.
        let _ = h.join().expect("worker handler thread");
    }
    Ok(Arc::try_unwrap(coord)
        .expect("all handler threads joined")
        .into_inner()
        .expect("coordinator mutex"))
}

#[cfg(test)]
mod tests {
    use super::ct_eq;

    #[test]
    fn ct_eq_matches_plain_equality() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"secret", b"secret"));
        assert!(!ct_eq(b"secret", b"secreT"));
        assert!(!ct_eq(b"secret", b"secre"));
        assert!(!ct_eq(b"", b"x"));
        assert!(!ct_eq(b"short", b"a much longer presented token"));
    }
}
