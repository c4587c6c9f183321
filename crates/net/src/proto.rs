//! Typed messages atop the frame codec.
//!
//! Payloads are line-oriented text — `key value` lines plus
//! byte-length-prefixed blocks for multi-line text (checkpoints, trace
//! segments) — written and read through [`bgr_io::codec`], the kernel
//! the checkpoint and journal codecs share. Floats travel as
//! `f64::to_bits` hex, so a verdict survives the wire bit-identically.
//! Decoding never panics; every malformed payload maps to a structured
//! [`ProtoError`].

use std::fmt;

use bgr_core::session::SessionStage;
use bgr_core::RouteError;
use bgr_io::codec::{f64_hex, opt_u64, put_block, put_line, Reader};
use bgr_io::ParseError;
use bgr_serve::{FinishVerdict, LeaseSpec, SliceOutcome};

use crate::frame::{Frame, FrameError};

/// Why a payload failed to decode into a [`Message`] — or, for the
/// worker's retry layer, why a connection attempt or exchange failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The underlying frame was damaged.
    Frame(FrameError),
    /// The frame's kind byte names no known message.
    UnknownKind {
        /// The unknown discriminant.
        kind: u8,
    },
    /// The payload text does not parse as the kind's schema.
    Malformed {
        /// What went wrong, with field context.
        message: String,
    },
    /// A TCP connect failed, with its [`std::io::ErrorKind`] preserved
    /// so the retry layer can classify `ConnectionRefused`/`TimedOut`
    /// without string matching.
    Connect {
        /// The connect error's kind.
        kind: std::io::ErrorKind,
        /// The full error message, with the address.
        message: String,
    },
    /// The peer answered with a structured `Nack` refusal. Fatal for
    /// deterministic refusals (auth mismatch, version skew, ...);
    /// retryable for load shedding (`code == "busy"`), where
    /// `retry_after_ms` carries the coordinator's backoff hint.
    Refused {
        /// The Nack's stable machine-readable code.
        code: String,
        /// The Nack's human-readable detail.
        detail: String,
        /// The coordinator's retry-after hint in ms (0 = none given).
        retry_after_ms: u64,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "{e}"),
            Self::UnknownKind { kind } => write!(f, "unknown message kind {kind}"),
            Self::Malformed { message } => write!(f, "malformed payload: {message}"),
            Self::Connect { kind, message } => write!(f, "connect failed ({kind:?}): {message}"),
            Self::Refused { code, detail, .. } => write!(f, "peer refused [{code}]: {detail}"),
        }
    }
}

impl ProtoError {
    /// Whether reconnecting could plausibly clear this error.
    ///
    /// Retryable means the *transport* died or desynced — the stream
    /// was cut mid-frame, bytes were damaged in flight, or the peer was
    /// momentarily unreachable. A fresh connection re-handshakes and
    /// resumes; the coordinator's stale-slice rejection makes resent
    /// results harmless.
    ///
    /// Fatal means retrying reproduces the failure deterministically: a
    /// schema violation, an unknown message, a version skew, an
    /// oversize frame, or a deterministic refusal (wrong token). The
    /// one retryable refusal is `busy` — transient load shedding, where
    /// the coordinator explicitly invites a later retry.
    pub fn is_retryable(&self) -> bool {
        match self {
            Self::Refused { code, .. } => code == "busy",
            Self::Frame(e) => matches!(
                e,
                FrameError::Io { .. }
                    | FrameError::Truncated { .. }
                    | FrameError::ChecksumMismatch { .. }
                    | FrameError::BadMagic { .. }
            ),
            Self::Connect { kind, .. } => matches!(
                kind,
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::NotConnected
                    | std::io::ErrorKind::AddrNotAvailable
            ),
            Self::UnknownKind { .. } | Self::Malformed { .. } => false,
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

impl From<ParseError> for ProtoError {
    fn from(e: ParseError) -> Self {
        malformed(e.to_string())
    }
}

fn malformed(message: impl Into<String>) -> ProtoError {
    ProtoError::Malformed {
        message: message.into(),
    }
}

/// Every message of the `bgr-net` protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator: first frame of a connection.
    Hello {
        /// The worker's protocol version (checked against ours).
        version: u16,
        /// Self-chosen worker name (diagnostics and audit lines only —
        /// never a determinism input).
        worker: String,
        /// Shared-secret auth token, when the fleet runs with one. The
        /// frame checksum is integrity only; this is the authentication
        /// layer (compared constant-time on the coordinator).
        token: Option<String>,
    },
    /// Coordinator → worker: handshake accepted.
    Welcome {
        /// The coordinator's protocol version.
        version: u16,
        /// Heartbeat cadence the coordinator wants while a slice runs
        /// (derived from its lease timeout; 0 means "no preference").
        heartbeat_ms: u64,
    },
    /// Worker → coordinator: ready for a lease.
    LeaseReq,
    /// Coordinator → worker: one slice of work, the spec the worker
    /// hands to [`bgr_serve::run_lease`]. The job id travels as `u64`.
    Lease(LeaseSpec),
    /// Coordinator → worker: nothing leasable right now.
    NoWork {
        /// Whether the drain is over (workers should report metrics and
        /// disconnect) rather than momentarily idle (retry).
        settled: bool,
    },
    /// Worker → coordinator: a completed lease.
    Result {
        /// Queue id of the job.
        job: u64,
        /// Slice index the lease named.
        slice: u64,
        /// What the slice concluded. Decoded, a failure's error is
        /// [`RouteError::DeadlineExpired`] or [`RouteError::Internal`] in
        /// phase `"remote"` (see [`Message::decode`]).
        outcome: SliceOutcome,
    },
    /// Worker → coordinator: still computing a lease; extends its
    /// deadline.
    Heartbeat {
        /// Queue id of the leased job.
        job: u64,
        /// Slice index of the lease.
        slice: u64,
    },
    /// Either direction: a structured refusal.
    Nack {
        /// Stable machine-readable code (`version-skew`,
        /// `stale-result`, `bad-request`, `busy`, ...).
        code: String,
        /// Human-readable detail.
        detail: String,
        /// For transient refusals (`busy`): how long the peer suggests
        /// waiting before retrying, in ms. 0 = no hint (deterministic
        /// refusals always send 0).
        retry_after_ms: u64,
    },
    /// Worker → coordinator: the worker registry's snapshot for fleet
    /// aggregation, sent once when the drain settles.
    Metrics {
        /// `bgr-metrics-snapshot v1` wire text.
        snapshot: String,
    },
    /// Worker → coordinator: clean disconnect.
    Bye,
}

fn put_verdict(out: &mut Vec<u8>, v: &FinishVerdict) {
    put_line(out, "audit_clean", v.audit_clean);
    put_line(out, "audit_checks", v.audit_checks);
    put_block(out, "audit_line", &v.audit_line);
    match &v.violations_line {
        Some(line) => {
            put_line(out, "violations", "some");
            put_block(out, "violations_line", line);
        }
        None => put_line(out, "violations", "none"),
    }
    put_line(out, "feasible", v.feasible);
    put_line(out, "worst_margin_ps", f64_hex(v.worst_margin_ps));
    put_line(out, "area_tracks", v.area_tracks);
    put_line(out, "total_length_um", f64_hex(v.total_length_um));
}

fn read_verdict(r: &mut Reader<'_>) -> Result<FinishVerdict, ProtoError> {
    let audit_clean = r.get("audit_clean")?;
    let audit_checks = r.get("audit_checks")?;
    let audit_line = r.block("audit_line")?.to_owned();
    let violations_line = match r.value("violations")? {
        "some" => Some(r.block("violations_line")?.to_owned()),
        "none" => None,
        v => return Err(malformed(format!("violations marker {v:?}"))),
    };
    Ok(FinishVerdict {
        audit_clean,
        audit_checks,
        audit_line,
        violations_line,
        feasible: r.get("feasible")?,
        worst_margin_ps: r.f64_bits("worst_margin_ps")?,
        area_tracks: r.get("area_tracks")?,
        total_length_um: r.f64_bits("total_length_um")?,
    })
}

/// The phase of the [`RouteError::Internal`] a remote failure decodes to.
const REMOTE: &str = "remote";

/// The payload of `Message::Result { job, slice, outcome }`, written
/// from a borrowed outcome (the coordinator journals a result before
/// applying it).
pub(crate) fn result_payload(job: u64, slice: u64, outcome: &SliceOutcome) -> Vec<u8> {
    let mut out = Vec::new();
    put_line(&mut out, "job", job);
    put_line(&mut out, "slice", slice);
    match outcome {
        SliceOutcome::Suspended {
            checkpoint,
            stage,
            events_emitted,
            selections_done,
            events_jsonl,
        } => {
            put_line(&mut out, "outcome", "suspended");
            put_line(&mut out, "stage", stage);
            put_line(&mut out, "events_emitted", events_emitted);
            put_line(&mut out, "selections_done", selections_done);
            put_block(&mut out, "checkpoint", checkpoint);
            put_block(&mut out, "events_jsonl", events_jsonl);
        }
        SliceOutcome::Finished {
            events_emitted,
            selections_done,
            events_jsonl,
            verdict,
        } => {
            put_line(&mut out, "outcome", "finished");
            put_line(&mut out, "events_emitted", events_emitted);
            put_line(&mut out, "selections_done", selections_done);
            put_block(&mut out, "events_jsonl", events_jsonl);
            put_verdict(&mut out, verdict);
        }
        SliceOutcome::Failed { error } => {
            put_line(&mut out, "outcome", "failed");
            match error {
                RouteError::Internal {
                    phase: REMOTE,
                    message,
                } => put_block(&mut out, "message", message),
                error => put_block(&mut out, "message", &error.to_string()),
            }
        }
    }
    out
}

fn read_outcome(r: &mut Reader<'_>) -> Result<SliceOutcome, ProtoError> {
    Ok(match r.value("outcome")? {
        "suspended" => SliceOutcome::Suspended {
            stage: {
                let label = r.value("stage")?;
                SessionStage::from_label(label)
                    .ok_or_else(|| malformed(format!("unknown stage label {label:?}")))?
                    .label()
            },
            events_emitted: r.get("events_emitted")?,
            selections_done: r.get("selections_done")?,
            checkpoint: r.block("checkpoint")?.to_owned(),
            events_jsonl: r.block("events_jsonl")?.to_owned(),
        },
        "finished" => SliceOutcome::Finished {
            events_emitted: r.get("events_emitted")?,
            selections_done: r.get("selections_done")?,
            events_jsonl: r.block("events_jsonl")?.to_owned(),
            verdict: read_verdict(r)?,
        },
        "failed" => {
            let message = r.block("message")?;
            let error = if message.starts_with("slice deadline expired") {
                RouteError::DeadlineExpired {}
            } else {
                RouteError::Internal {
                    phase: REMOTE,
                    message: message.to_owned(),
                }
            };
            SliceOutcome::Failed { error }
        }
        v => return Err(malformed(format!("unknown outcome {v:?}"))),
    })
}

impl Message {
    /// The frame kind discriminant this message travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Self::Hello { .. } => 1,
            Self::Welcome { .. } => 2,
            Self::LeaseReq => 3,
            Self::Lease(_) => 4,
            Self::NoWork { .. } => 5,
            Self::Result { .. } => 6,
            Self::Heartbeat { .. } => 7,
            Self::Nack { .. } => 8,
            Self::Metrics { .. } => 9,
            Self::Bye => 10,
        }
    }

    /// Serializes the payload text for this message.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Hello {
                version,
                worker,
                token,
            } => {
                put_line(&mut out, "version", version);
                put_block(&mut out, "worker", worker);
                match token {
                    Some(t) => {
                        put_line(&mut out, "token", "some");
                        put_block(&mut out, "token_text", t);
                    }
                    None => put_line(&mut out, "token", "none"),
                }
            }
            Self::Welcome {
                version,
                heartbeat_ms,
            } => {
                put_line(&mut out, "version", version);
                put_line(&mut out, "heartbeat_ms", heartbeat_ms);
            }
            Self::LeaseReq | Self::Bye => {}
            Self::Lease(spec) => {
                put_line(&mut out, "job", spec.job as u64);
                put_line(&mut out, "slice", spec.slice);
                put_line(&mut out, "quota", opt_u64(spec.quota));
                put_line(&mut out, "deadline_ms", opt_u64(spec.deadline_ms));
                put_block(&mut out, "checkpoint", &spec.checkpoint);
            }
            Self::NoWork { settled } => put_line(&mut out, "settled", settled),
            Self::Result {
                job,
                slice,
                outcome,
            } => return result_payload(*job, *slice, outcome),
            Self::Heartbeat { job, slice } => {
                put_line(&mut out, "job", job);
                put_line(&mut out, "slice", slice);
            }
            Self::Nack {
                code,
                detail,
                retry_after_ms,
            } => {
                put_block(&mut out, "code", code);
                put_block(&mut out, "detail", detail);
                put_line(&mut out, "retry_after_ms", retry_after_ms);
            }
            Self::Metrics { snapshot } => put_block(&mut out, "snapshot", snapshot),
        }
        out
    }

    /// Decodes a frame into a typed message.
    ///
    /// A `Result`'s stage label must be one a suspended session can park
    /// at ([`SessionStage::from_label`]). A failed outcome carries only
    /// its error's message, which decodes to
    /// [`RouteError::DeadlineExpired`] when it starts "slice deadline
    /// expired" (the current `Display`, and the longer text of older
    /// journals), so coordinator-side deadline accounting matches the
    /// local path, and to [`RouteError::Internal`] in phase `"remote"`
    /// otherwise. Re-encoding such an `Internal` writes its message
    /// verbatim, so a decoded payload re-encodes to itself.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnknownKind`] on an unrecognized discriminant,
    /// [`ProtoError::Malformed`] on any schema violation — including
    /// an unknown stage label and trailing bytes after a complete
    /// message. Never panics.
    pub fn decode(frame: &Frame) -> Result<Self, ProtoError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            1 => {
                let version = r.get("version")?;
                let worker = r.block("worker")?.to_owned();
                let token = match r.value("token")? {
                    "some" => Some(r.block("token_text")?.to_owned()),
                    "none" => None,
                    v => return Err(malformed(format!("token marker {v:?}"))),
                };
                Self::Hello {
                    version,
                    worker,
                    token,
                }
            }
            2 => Self::Welcome {
                version: r.get("version")?,
                heartbeat_ms: r.get("heartbeat_ms")?,
            },
            3 => Self::LeaseReq,
            4 => {
                let job: u64 = r.get("job")?;
                Self::Lease(LeaseSpec {
                    job: usize::try_from(job)
                        .map_err(|_| malformed(format!("lease job id {job} exceeds usize")))?,
                    slice: r.get("slice")?,
                    quota: r.opt_u64("quota")?,
                    deadline_ms: r.opt_u64("deadline_ms")?,
                    checkpoint: r.block("checkpoint")?.to_owned(),
                })
            }
            5 => Self::NoWork {
                settled: r.get("settled")?,
            },
            6 => Self::Result {
                job: r.get("job")?,
                slice: r.get("slice")?,
                outcome: read_outcome(&mut r)?,
            },
            7 => Self::Heartbeat {
                job: r.get("job")?,
                slice: r.get("slice")?,
            },
            8 => Self::Nack {
                code: r.block("code")?.to_owned(),
                detail: r.block("detail")?.to_owned(),
                retry_after_ms: r.get("retry_after_ms")?,
            },
            9 => Self::Metrics {
                snapshot: r.block("snapshot")?.to_owned(),
            },
            10 => Self::Bye,
            kind => return Err(ProtoError::UnknownKind { kind }),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes `msg` as one frame.
///
/// # Errors
///
/// Propagates [`FrameError`] from the transport.
pub fn send(w: &mut impl std::io::Write, msg: &Message) -> Result<(), ProtoError> {
    crate::frame::write_frame(w, msg.kind(), &msg.encode_payload())?;
    Ok(())
}

/// Reads one frame and decodes it.
///
/// # Errors
///
/// Structured [`ProtoError`] on transport or schema damage.
pub fn recv(r: &mut impl std::io::Read) -> Result<Message, ProtoError> {
    let frame = crate::frame::read_frame(r)?;
    Message::decode(&frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};

    fn round_trip(msg: Message) {
        let bytes = encode_frame(msg.kind(), &msg.encode_payload());
        let (frame, _) = decode_frame(&bytes).unwrap();
        assert_eq!(Message::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Hello {
            version: 1,
            worker: "w0".into(),
            token: None,
        });
        round_trip(Message::Hello {
            version: 2,
            worker: "w1".into(),
            token: Some("hunter2".into()),
        });
        round_trip(Message::Welcome {
            version: 1,
            heartbeat_ms: 1250,
        });
        round_trip(Message::LeaseReq);
        round_trip(Message::Lease(LeaseSpec {
            job: 3,
            slice: 7,
            quota: Some(16),
            deadline_ms: Some(1500),
            checkpoint: "bgr-checkpoint v1\nfake\n".into(),
        }));
        round_trip(Message::Lease(LeaseSpec {
            job: 0,
            slice: 0,
            quota: None,
            deadline_ms: None,
            checkpoint: String::new(),
        }));
        round_trip(Message::Lease(LeaseSpec {
            job: 1,
            slice: 2,
            quota: Some(4),
            deadline_ms: Some(0), // expired budget: worker abandons
            checkpoint: "bgr-checkpoint v1\nfake\n".into(),
        }));
        round_trip(Message::NoWork { settled: true });
        round_trip(Message::Result {
            job: 2,
            slice: 4,
            outcome: SliceOutcome::Suspended {
                checkpoint: "cp\nwith\nlines".into(),
                stage: "improve_delay",
                events_emitted: 42,
                selections_done: 17,
                events_jsonl: "{\"type\":\"event\",\"seq\":41}\n".into(),
            },
        });
        round_trip(Message::Result {
            job: 2,
            slice: 5,
            outcome: SliceOutcome::Finished {
                events_emitted: 99,
                selections_done: 31,
                events_jsonl: String::new(),
                verdict: FinishVerdict {
                    audit_clean: true,
                    audit_checks: 120,
                    audit_line: "audit clean: 120 checks".into(),
                    violations_line: Some("2 nets violate".into()),
                    feasible: false,
                    worst_margin_ps: -3.25,
                    area_tracks: 44,
                    total_length_um: 1234.5678,
                },
            },
        });
        round_trip(Message::Result {
            job: 1,
            slice: 0,
            outcome: SliceOutcome::Failed {
                error: RouteError::Internal {
                    phase: "remote",
                    message: "checkpoint damaged".into(),
                },
            },
        });
        round_trip(Message::Result {
            job: 1,
            slice: 1,
            outcome: SliceOutcome::Failed {
                error: RouteError::DeadlineExpired {},
            },
        });
        round_trip(Message::Heartbeat { job: 1, slice: 2 });
        round_trip(Message::Nack {
            code: "stale-result".into(),
            detail: "slice 3 already applied".into(),
            retry_after_ms: 0,
        });
        round_trip(Message::Nack {
            code: "busy".into(),
            detail: "connection cap reached".into(),
            retry_after_ms: 250,
        });
        round_trip(Message::Metrics {
            snapshot: "bgr-metrics-snapshot v1\nend 0\n".into(),
        });
        round_trip(Message::Bye);
    }

    #[test]
    fn verdict_floats_survive_bit_identically() {
        for margin in [f64::INFINITY, -0.0, 1e-300, -17.125] {
            let msg = Message::Result {
                job: 0,
                slice: 0,
                outcome: SliceOutcome::Finished {
                    events_emitted: 0,
                    selections_done: 0,
                    events_jsonl: String::new(),
                    verdict: FinishVerdict {
                        audit_clean: true,
                        audit_checks: 1,
                        audit_line: "a".into(),
                        violations_line: None,
                        feasible: true,
                        worst_margin_ps: margin,
                        area_tracks: 0,
                        total_length_um: margin,
                    },
                },
            };
            let bytes = encode_frame(msg.kind(), &msg.encode_payload());
            let (frame, _) = decode_frame(&bytes).unwrap();
            let back = Message::decode(&frame).unwrap();
            let Message::Result {
                outcome: SliceOutcome::Finished { verdict, .. },
                ..
            } = back
            else {
                panic!("wrong shape");
            };
            assert_eq!(verdict.worst_margin_ps.to_bits(), margin.to_bits());
        }
    }

    #[test]
    fn unpadded_verdict_hex_from_older_writers_still_decodes() {
        // The pre-kernel writer emitted verdict floats as unpadded hex
        // (`{:x}`); journals holding such RESULT payloads must replay.
        let payload = b"job 3\nslice 9\noutcome finished\nevents_emitted 5\n\
            selections_done 2\nevents_jsonl 0\n\naudit_clean true\naudit_checks 1\n\
            audit_line 1\na\nviolations none\nfeasible true\nworst_margin_ps 0\n\
            area_tracks 4\ntotal_length_um 1a56e1fc2f8f359\n";
        let frame = Frame {
            kind: 6,
            payload: payload.to_vec(),
        };
        let msg = Message::decode(&frame).unwrap();
        let Message::Result {
            outcome: SliceOutcome::Finished { verdict, .. },
            ..
        } = &msg
        else {
            panic!("wrong shape: {msg:?}");
        };
        assert_eq!(verdict.worst_margin_ps.to_bits(), 0);
        assert_eq!(verdict.total_length_um.to_bits(), 0x01a5_6e1f_c2f8_f359);
        // Re-encoding pads; nothing else about the payload changes.
        let text = String::from_utf8(msg.encode_payload()).unwrap();
        let expected = String::from_utf8(payload.to_vec())
            .unwrap()
            .replace("worst_margin_ps 0\n", "worst_margin_ps 0000000000000000\n")
            .replace("total_length_um 1a5", "total_length_um 01a5");
        assert_eq!(text, expected);
    }

    #[test]
    fn lying_block_lengths_are_malformed_not_panics() {
        // A well-framed Hello whose block length lies: usize::MAX would
        // overflow a naive `len + 1` availability check, and the other
        // values claim more bytes than the payload carries.
        for len in [
            usize::MAX.to_string(),
            (usize::MAX - 1).to_string(),
            "4096".to_string(),
        ] {
            let payload = format!("version 1\nworker {len}\nw0\n");
            let bytes = encode_frame(1, payload.as_bytes());
            let (frame, _) = decode_frame(&bytes).unwrap();
            assert!(matches!(
                Message::decode(&frame),
                Err(ProtoError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn busy_refusals_are_retryable_and_map_their_hint() {
        let busy = ProtoError::Refused {
            code: "busy".into(),
            detail: "4 of 4 handler slots in use".into(),
            retry_after_ms: 50,
        };
        assert!(busy.is_retryable(), "load shedding invites a retry");
        let auth = ProtoError::Refused {
            code: "auth".into(),
            detail: "token mismatch".into(),
            retry_after_ms: 0,
        };
        assert!(!auth.is_retryable(), "deterministic refusals are fatal");
    }

    /// Encodes a worker's `Result` and decodes it, as the coordinator
    /// receives it.
    fn received(job: u64, slice: u64, outcome: SliceOutcome) -> (Vec<u8>, Message) {
        let payload = Message::Result {
            job,
            slice,
            outcome,
        }
        .encode_payload();
        let frame = Frame {
            kind: 6,
            payload: payload.clone(),
        };
        (payload, Message::decode(&frame).unwrap())
    }

    #[test]
    fn deadline_abandonment_maps_back_to_the_structured_error() {
        // The current message, and the one journals written before the
        // error lost its budget field carry.
        let legacy = b"job 0\nslice 0\noutcome failed\nmessage 36\n\
            slice deadline expired (budget 0 ms)\n";
        let frame = Frame {
            kind: 6,
            payload: legacy.to_vec(),
        };
        let (_, current) = received(
            0,
            0,
            SliceOutcome::Failed {
                error: RouteError::DeadlineExpired {},
            },
        );
        for msg in [Message::decode(&frame).unwrap(), current] {
            assert!(
                matches!(
                    msg,
                    Message::Result {
                        outcome: SliceOutcome::Failed {
                            error: RouteError::DeadlineExpired { .. }
                        },
                        ..
                    }
                ),
                "{msg:?}"
            );
        }
        let (_, msg) = received(
            0,
            0,
            SliceOutcome::Failed {
                error: RouteError::Checkpoint {
                    message: "boom".into(),
                },
            },
        );
        let Message::Result {
            outcome:
                SliceOutcome::Failed {
                    error: RouteError::Internal { phase, message },
                },
            ..
        } = msg
        else {
            panic!("wrong shape: {msg:?}");
        };
        assert_eq!(
            (phase, message.as_str()),
            ("remote", "checkpoint rejected: boom")
        );
    }

    #[test]
    fn decoded_results_re_encode_to_themselves() {
        // What the coordinator journals is the re-encoding of what it
        // decoded; it must be the payload the worker sent.
        let verdict = FinishVerdict {
            audit_clean: false,
            audit_checks: 3,
            audit_line: "audit FAILED: 1 of 3 checks".into(),
            violations_line: None,
            feasible: true,
            worst_margin_ps: 1.5,
            area_tracks: 7,
            total_length_um: 88.25,
        };
        for outcome in [
            SliceOutcome::Suspended {
                checkpoint: "cp\n".into(),
                stage: "initial_routing",
                events_emitted: 5,
                selections_done: 2,
                events_jsonl: "{\"type\":\"event\",\"seq\":4}\n".into(),
            },
            SliceOutcome::Finished {
                events_emitted: 9,
                selections_done: 4,
                events_jsonl: String::new(),
                verdict,
            },
            SliceOutcome::Failed {
                error: RouteError::Checkpoint {
                    message: "boom".into(),
                },
            },
            SliceOutcome::Failed {
                error: RouteError::Internal {
                    phase: "serve",
                    message: "spliced checkpoint differs".into(),
                },
            },
            SliceOutcome::Failed {
                error: RouteError::DeadlineExpired {},
            },
        ] {
            let (sent, msg) = received(3, 1, outcome);
            assert_eq!(
                String::from_utf8(msg.encode_payload()).unwrap(),
                String::from_utf8(sent).unwrap()
            );
        }
    }

    #[test]
    fn stage_labels_outside_a_suspension_are_malformed() {
        let frame = |label: &str| Frame {
            kind: 6,
            payload: format!(
                "job 0\nslice 0\noutcome suspended\nstage {label}\nevents_emitted 0\n\
                 selections_done 0\ncheckpoint 0\n\nevents_jsonl 0\n\n"
            )
            .into_bytes(),
        };
        assert!(Message::decode(&frame("improve_delay")).is_ok());
        for label in ["setup", "improvize_delay", "initial_routing 3"] {
            assert!(
                matches!(
                    Message::decode(&frame(label)),
                    Err(ProtoError::Malformed { .. })
                ),
                "{label:?}"
            );
        }
    }

    #[test]
    fn retryability_splits_transport_from_schema() {
        // Transport death and in-flight damage: reconnect can clear it.
        for e in [
            ProtoError::Frame(FrameError::Io {
                message: "broken pipe".into(),
            }),
            ProtoError::Frame(FrameError::Truncated { at: "payload" }),
            ProtoError::Frame(FrameError::ChecksumMismatch {
                computed: 1,
                carried: 2,
            }),
            ProtoError::Frame(FrameError::BadMagic { found: [0; 4] }),
            ProtoError::Connect {
                kind: std::io::ErrorKind::ConnectionRefused,
                message: "connect 127.0.0.1:9: refused".into(),
            },
            ProtoError::Connect {
                kind: std::io::ErrorKind::TimedOut,
                message: "connect: timed out".into(),
            },
        ] {
            assert!(e.is_retryable(), "{e}");
        }
        // Deterministic failures: retrying reproduces them.
        for e in [
            ProtoError::Frame(FrameError::VersionSkew { got: 9, want: 2 }),
            ProtoError::Frame(FrameError::Oversize { len: u32::MAX }),
            ProtoError::UnknownKind { kind: 200 },
            ProtoError::Malformed {
                message: "junk".into(),
            },
            ProtoError::Refused {
                code: "auth".into(),
                detail: "token mismatch".into(),
                retry_after_ms: 0,
            },
            ProtoError::Connect {
                kind: std::io::ErrorKind::PermissionDenied,
                message: "connect: eperm".into(),
            },
        ] {
            assert!(!e.is_retryable(), "{e}");
        }
    }

    #[test]
    fn bad_token_marker_is_malformed() {
        let payload = b"version 2\nworker 2\nw0\ntoken maybe\n";
        let bytes = encode_frame(1, payload);
        let (frame, _) = decode_frame(&bytes).unwrap();
        assert!(matches!(
            Message::decode(&frame),
            Err(ProtoError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Message::Heartbeat { job: 1, slice: 2 }.encode_payload();
        payload.extend_from_slice(b"junk\n");
        let bytes = encode_frame(7, &payload);
        let (frame, _) = decode_frame(&bytes).unwrap();
        assert!(matches!(
            Message::decode(&frame),
            Err(ProtoError::Malformed { .. })
        ));
    }
}
