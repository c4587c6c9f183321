//! Static-timing substrate for the `bgr` global router.
//!
//! Implements §2 of Harada & Kitazawa (DAC 1994):
//!
//! * the **capacitance delay model** of Eq. (1) — and the RC (Elmore)
//!   extension the paper notes is a drop-in replacement ([`DelayModel`]),
//! * the **global delay graph** `G_D` ([`DelayGraph`]): one vertex per
//!   terminal, cell timing arcs whose delay is
//!   `T0(t_i,t_o) + (Σ F_in)·T_f(t_o) + CL(n)·T_d(t_o)`, and zero-delay
//!   net arcs from drivers to sinks,
//! * **critical path constraints** `P = (S_P, T_P, τ_P)`
//!   ([`PathConstraint`]) with their **delay constraint graphs** `G_d(P)`
//!   ([`ConstraintGraph`]) — the subgraph of `G_D` spanned by all paths
//!   from `S_P` to `T_P`,
//! * an incremental analyzer ([`Sta`]) that keeps longest-path values
//!   `lp(v)` and margins `M(P)` up to date as the router re-estimates net
//!   wire lengths, and
//! * the zero-wire-capacitance **slack analysis** used for net ordering in
//!   feedthrough assignment (§3.1) ([`net_ordering_slack`]).

pub mod constraint;
pub mod error;
pub mod graph;
pub mod model;
pub mod slack;
pub mod sta;

pub use constraint::{ConstraintGraph, MemberArc, PathConstraint};
pub use error::TimingError;
pub use graph::{ArcKind, DelayGraph};
pub use model::{rc_skew_ps, DelayModel, WireParams};
pub use slack::{net_ordering_slack, nets_by_ascending_slack};
pub use sta::{NetLengths, Sta};
