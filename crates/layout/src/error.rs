//! Error type for placement construction and validation.

use bgr_netlist::{CellId, PadId};

/// Errors produced while building or validating a [`crate::Placement`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LayoutError {
    /// Two cells overlap in a row.
    Overlap(CellId, CellId),
    /// A circuit cell was never placed.
    Unplaced(CellId),
    /// A cell was placed twice.
    PlacedTwice(CellId),
    /// A row index out of range was referenced.
    BadRow(usize),
    /// A pad of the circuit was never positioned on the boundary.
    UnplacedPad(PadId),
    /// A pad was positioned twice.
    PadPlacedTwice(PadId),
    /// A cell has a negative x position.
    NegativeX(CellId),
    /// A geometry length is not finite and positive.
    BadGeometry {
        /// The [`crate::Geometry`] field (`pitch_um`, `row_height_um` or
        /// `track_pitch_um`).
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overlap(a, b) => write!(f, "cells {a} and {b} overlap in their row"),
            Self::Unplaced(c) => write!(f, "cell {c} was never placed"),
            Self::PlacedTwice(c) => write!(f, "cell {c} placed more than once"),
            Self::BadRow(r) => write!(f, "row index {r} out of range"),
            Self::UnplacedPad(p) => write!(f, "pad {p} was never positioned"),
            Self::PadPlacedTwice(p) => write!(f, "pad {p} positioned more than once"),
            Self::NegativeX(c) => write!(f, "cell {c} has a negative x position"),
            Self::BadGeometry { field, value } => {
                write!(
                    f,
                    "geometry {field} is {value}, not a finite positive length"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_error_impl() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<LayoutError>();
        assert!(LayoutError::BadRow(7).to_string().contains('7'));
    }
}
