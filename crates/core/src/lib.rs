//! The Harada–Kitazawa timing- and area-optimizing global router
//! (DAC 1994) — the paper's primary contribution.
//!
//! The router follows the ten-line outline of the paper's Fig. 2:
//!
//! ```text
//! 01  xpin & feedthrough assignment           (assign, feedcell)
//! 02  build routing graphs G_r(n)             (graph)
//! 03  build delay constraint graphs G_d(P)    (bgr-timing)
//! 04  N_b = non-bridge edges
//! 05  while N_b ≠ ∅:
//! 06      e = select_edge(N_b)                (criteria, select)
//! 07      delete_and_modify(e)                (engine, density)
//! 08  recover_violate()                       (improve)
//! 09  improve_delay()                         (improve)
//! 10  improve_area()                          (improve)
//! ```
//!
//! Interconnection wiring of *all nets is determined concurrently*: every
//! iteration picks the globally worst deletable edge across every net's
//! routing graph, ranked by the delay criteria `C_d / Gl / LD` derived
//! from local margins `LM(e, P)` (Eq. 2) and the channel-density criteria
//! of §3.3/Fig. 4. Bipolar-specific features — differential drive pairs,
//! multi-pitch wires and feed-cell insertion — are integrated as in §4.
//!
//! # Example
//!
//! Route a tiny circuit and inspect the result:
//!
//! ```
//! use bgr_core::{GlobalRouter, RouterConfig};
//! use bgr_layout::{Geometry, PlacementBuilder};
//! use bgr_netlist::{CellLibrary, CircuitBuilder};
//!
//! let lib = CellLibrary::ecl();
//! let inv = lib.kind_by_name("INV").unwrap();
//! let mut cb = CircuitBuilder::new(lib);
//! let a = cb.add_input_pad("a");
//! let y = cb.add_output_pad("y");
//! let u = cb.add_cell("u", inv);
//! cb.add_net("n1", cb.pad_term(a), [cb.cell_term(u, "A")?])?;
//! cb.add_net("n2", cb.cell_term(u, "Y")?, [cb.pad_term(y)])?;
//! let circuit = cb.finish()?;
//!
//! let mut pb = PlacementBuilder::new(Geometry::default(), 1);
//! pb.append_with_width(0, bgr_netlist::CellId::new(0), 3);
//! pb.place_pad_bottom(a, 0);
//! pb.place_pad_top(y, 2);
//! let placement = pb.finish(&circuit)?;
//!
//! let routed = GlobalRouter::new(RouterConfig::default())
//!     .route(circuit, placement, vec![])?;
//! assert_eq!(routed.result.trees.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod assign;
pub mod baseline;
pub mod config;
pub mod criteria;
pub mod density;
pub mod diffpair;
pub mod engine;
pub mod error;
pub mod feedcell;
pub mod graph;
pub mod improve;
pub mod par;
pub mod probe;
pub mod report;
pub mod result;
pub mod router;
pub mod scoreboard;
pub mod select;
pub mod session;
pub mod shard;
pub mod tentative;

pub use baseline::{SequentialConfig, SequentialRouter};
pub use config::{
    Budgets, CriteriaOrder, OnViolation, RouterConfig, SelectionStrategy, VerifyLevel,
};
pub use error::RouteError;
pub use graph::{REdge, REdgeKind, RVert, RVertKind, RoutingGraph};
pub use improve::{PhaseLimits, PhaseOutcome};
pub use probe::{
    CollectingProbe, Corruption, Counter, Fault, FaultProbe, Hist, NoopProbe, Phase, PhaseSpan,
    Probe, ProfileEntry, ProfileTree, ProfilingProbe, RekeyCause, RouteTrace, Scope, TraceEvent,
    FAULT_MARKER, HIST_BUCKETS,
};
pub use report::{ChannelCongestion, CongestionReport};
pub use result::{
    NetTree, RouteStats, RoutingResult, Segment, TimingReport, ViolationEntry, ViolationReport,
};
pub use router::{GlobalRouter, Routed};
pub use select::{deciding_tier, DecidingTier};
pub use session::{
    EngineSnapshot, RouteSession, SessionDesign, SessionStage, SnapshotStats, StepOutcome,
    SNAPSHOT_VERSION,
};
pub use shard::ShardMap;
