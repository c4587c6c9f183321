//! Distributed slice draining for the `bgr` global router.
//!
//! The serve layer chops a route into budgeted, checkpointed slices;
//! this crate ships those slices across machine boundaries without
//! giving up a single deterministic byte. Four pieces (DESIGN.md §15):
//!
//! * [`frame`] — length-prefixed, checksummed, versioned frames over
//!   `std::net::TcpStream` (std-only, no serialization dependency);
//! * [`proto`] — typed messages: HELLO/WELCOME handshake, LEASE /
//!   RESULT / HEARTBEAT / NACK / METRICS / BYE;
//! * [`coordinator`] — wraps a [`bgr_serve::JobQueue`], leasing slices
//!   with deadline-based expiry and deterministic reassignment, plus
//!   speculative **portfolio racing**: one suspended checkpoint fanned
//!   under N configuration arms, losers cancelled at slice-budget
//!   boundaries, the winner picked by a total deterministic order;
//! * [`drain`] / [`worker`] — the TCP serving loop and the pull-based
//!   worker (binaries `bgr-coordinator`, `bgr-worker`).
//!
//! Robustness rides on top (DESIGN.md §15 "Failure model"):
//! [`chaos`] is a deterministic fault-injection proxy (binary
//! `bgr-chaos-proxy`) for resets, stalls, partial writes and duplicate
//! delivery; the worker reconnects through transport faults with
//! bounded backoff and heartbeats mid-slice; the coordinator can
//! journal every applied result ([`Coordinator::with_journal`]) and
//! replay the journal after a crash, and can require a shared-secret
//! auth token ([`drain::DrainOptions`]).
//!
//! The determinism claim, precisely: for the same submitted jobs, the
//! merged per-job streams (trace events with contiguous `seq`, progress
//! records, audited `done` records) after a distributed drain are
//! **byte-identical** to a single-process `JobQueue::run` — for any
//! worker count, any interleaving, and any number of worker crashes
//! with lease reassignment. `tests/distributed_determinism.rs` asserts
//! exactly this.
//!
//! # Example (in-process loopback)
//!
//! ```no_run
//! use std::net::TcpListener;
//! use std::time::Duration;
//! use bgr_metrics::MetricsRegistry;
//! use bgr_net::{run_worker, serve_drain, Coordinator, WorkerOptions};
//! use bgr_serve::JobQueue;
//!
//! let queue = JobQueue::new(); // submit jobs here
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap().to_string();
//! let server = std::thread::spawn(move || {
//!     serve_drain(listener, Coordinator::new(queue, Duration::from_secs(5))).unwrap()
//! });
//! let registry = MetricsRegistry::new();
//! run_worker(&addr, &WorkerOptions::named("w0"), &registry).unwrap();
//! let drained = server.join().unwrap();
//! assert!(drained.all_completed());
//! ```

pub mod chaos;
pub mod coordinator;
pub mod drain;
pub mod frame;
pub mod proto;
pub mod worker;

pub use chaos::{ChaosOptions, ChaosProxy, ChaosStats, ChaosUpstream, DiskFaults, FaultyDisk};
pub use coordinator::{Coordinator, NetMetrics, Portfolio};
pub use drain::{serve_drain, serve_drain_with, DrainOptions};
pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, FrameError, MAX_PAYLOAD,
    PROTO_VERSION,
};
pub use proto::{recv, send, Message, ProtoError};
pub use worker::{run_worker, WorkerMetrics, WorkerOptions, WorkerReport};
