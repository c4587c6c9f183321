//! Error type for global routing.

use bgr_netlist::{NetId, NetlistError};
use bgr_timing::TimingError;

use crate::result::ViolationReport;

/// Errors produced by [`crate::GlobalRouter::route`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// A net's routing graph is disconnected even after feed-cell
    /// insertion — the placement offers no path between its terminals.
    DisconnectedNet(NetId),
    /// A net's routing graph totals 2⁴² µm or more, past which its
    /// length sums stop being exact (DESIGN.md §8).
    GraphTooLong(NetId),
    /// The circuit failed validation.
    Netlist(NetlistError),
    /// Constraint-graph construction failed.
    Timing(TimingError),
    /// The placement failed validation.
    Layout(bgr_layout::LayoutError),
    /// Feedthrough re-assignment failed after feed-cell insertion; this
    /// indicates an internal invariant violation (§4.3 guarantees
    /// success).
    ReassignFailed(NetId),
    /// Feed-cell insertion (§4.3) was needed but the circuit's cell
    /// library has no `FEED1` kind to insert. Reachable with a custom
    /// [`bgr_netlist::CellLibrary`]; the stock ECL library always
    /// provides it.
    MissingFeedKind,
    /// §3.5 phase-1 recovery exhausted its passes with constraints still
    /// violated and [`crate::config::OnViolation::Fail`] was requested.
    /// The report carries the full residual state; switching to
    /// [`crate::config::OnViolation::BestEffort`] returns the same
    /// report attached to a completed [`crate::Routed`] instead.
    ConstraintsUnsatisfied(ViolationReport),
    /// An internal invariant panicked inside
    /// [`crate::GlobalRouter::route_checked`]'s isolation boundary.
    /// `phase` names the pipeline phase that was active (or `"setup"`
    /// before the first phase marker); `message` is the panic payload.
    Internal {
        /// Stable label of the active phase (see `Phase::label`).
        phase: &'static str,
        /// The original panic message.
        message: String,
    },
    /// A serving-layer slice deadline expired before the slice could
    /// run (`bgr-serve`'s `QueuePolicy`): the slice's lease carried a
    /// spent budget, so the job is abandoned with this structured
    /// verdict instead of consuming further budget. The configured
    /// budget stays on the job (`bgr_serve::Job::deadline_ms`). Braced
    /// without fields, so `DeadlineExpired { .. }` patterns written when
    /// it carried a budget still match.
    DeadlineExpired {},
    /// A checkpoint could not be restored into a live session: version
    /// skew, a truncated or corrupted file, or serialized state
    /// inconsistent with the embedded design (wrong mask lengths, a
    /// disconnected alive set). Restoring never panics on bad input —
    /// it degrades to this variant (DESIGN.md §13).
    Checkpoint {
        /// What was wrong with the checkpoint.
        message: String,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DisconnectedNet(n) => write!(f, "routing graph of net {n} is disconnected"),
            Self::GraphTooLong(n) => write!(f, "routing graph of net {n} totals 2^42 um or more"),
            Self::Netlist(e) => write!(f, "netlist error: {e}"),
            Self::Timing(e) => write!(f, "timing error: {e}"),
            Self::Layout(e) => write!(f, "layout error: {e}"),
            Self::ReassignFailed(n) => {
                write!(f, "feedthrough re-assignment failed for net {n}")
            }
            Self::MissingFeedKind => {
                write!(
                    f,
                    "feed-cell insertion required but the library has no FEED1 kind"
                )
            }
            Self::ConstraintsUnsatisfied(report) => {
                write!(f, "recovery exhausted: {report}")
            }
            Self::Internal { phase, message } => {
                write!(f, "internal error during {phase}: {message}")
            }
            Self::DeadlineExpired {} => write!(f, "slice deadline expired"),
            Self::Checkpoint { message } => {
                write!(f, "checkpoint rejected: {message}")
            }
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Netlist(e) => Some(e),
            Self::Timing(e) => Some(e),
            Self::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for RouteError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

impl From<TimingError> for RouteError {
    fn from(e: TimingError) -> Self {
        Self::Timing(e)
    }
}

impl From<bgr_layout::LayoutError> for RouteError {
    fn from(e: bgr_layout::LayoutError) -> Self {
        Self::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_impl_and_source() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<RouteError>();
        let e = RouteError::from(NetlistError::EmptyNet(NetId::new(1)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("netlist error"));
    }

    #[test]
    fn internal_and_violation_variants_display() {
        let e = RouteError::Internal {
            phase: "initial_routing",
            message: "edge already dead".into(),
        };
        assert!(e.to_string().contains("initial_routing"));
        assert!(e.to_string().contains("edge already dead"));
        let e = RouteError::ConstraintsUnsatisfied(ViolationReport::default());
        assert!(e.to_string().contains("recovery exhausted"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
