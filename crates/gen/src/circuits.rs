//! Fixed-seed reconstructions of the paper's test circuits (Table 1).
//!
//! The paper's C1 is the regenerator-section overhead processing circuit
//! of a 10 Gbit/s transmission system; C2 and C3 are further
//! transmission-system circuits of growing size, each with tens of
//! designer constraints. The absolute cell/net counts did not survive
//! the text extraction, so these reconstructions target the magnitudes
//! typical of 1994 bipolar LSIs (hundreds to a few thousand cells) with
//! the same qualitative make-up.

use crate::constraints::harvest_between;
use crate::hpwl::hpwl_net_lengths_in_layout_um;
use crate::netgen::{generate, GenParams, GeneratedDesign};
use crate::placegen::{place_design, PlacementStyle};
use bgr_core::{GlobalRouter, RouterConfig};
use bgr_layout::Placement;

/// One "data set" of Table 1/2: a circuit plus one placement.
#[derive(Debug, Clone)]
pub struct DataSet {
    /// Data name (e.g. `"C1P1"`).
    pub name: String,
    /// Generation parameters used.
    pub params: GenParams,
    /// The design (circuit + constraints).
    pub design: GeneratedDesign,
    /// The placement.
    pub placement: Placement,
}

impl DataSet {
    /// Constraint position between the per-path lower bound (0) and the
    /// naively routed reference delay (1).
    const BETA: f64 = 0.5;

    fn build(name: &str, params: GenParams, style: PlacementStyle) -> Self {
        let mut design = generate(&params);
        // Constraints are a property of the *design*, so they are always
        // derived from the canonical P1 placement: limits sit halfway
        // between each path's half-perimeter lower bound and its delay in
        // a reference (unconstrained) route — the paper's layout-data-
        // analysis constraint provenance.
        let p1 = place_design(&design, &params, PlacementStyle::EvenFeed);
        let reference = GlobalRouter::new(RouterConfig::unconstrained())
            .route(design.circuit.clone(), p1.clone(), Vec::new())
            .expect("reference route succeeds");
        let detail = bgr_channel::route_channels(
            &reference.circuit,
            &reference.placement,
            &reference.result,
            &[],
            bgr_timing::DelayModel::Capacitance,
            bgr_timing::WireParams::default(),
        )
        .expect("reference detail route succeeds");
        // Lower bound in the *reference layout* geometry (channel heights
        // included): limits anchored to it are genuinely achievable.
        let lb =
            hpwl_net_lengths_in_layout_um(&reference.circuit, &reference.placement, &detail.tracks);
        // Feed cells added by the reference route have no nets, so the
        // net-length tables match the original circuit's net count.
        design.constraints = harvest_between(
            &design.circuit,
            params.num_constraints,
            Self::BETA,
            params.seed ^ 0x5bd1_e995,
            &lb,
            &detail.net_lengths_um,
        );
        let placement = if style == PlacementStyle::EvenFeed {
            p1
        } else {
            place_design(&design, &params, style)
        };
        Self {
            name: name.to_owned(),
            params,
            design,
            placement,
        }
    }
}

/// The generation parameters of C1: [`generate`] and
/// [`crate::placegen::place_design`] on them give the circuit and placement
/// of [`c1`] without its constraint-anchoring reference route.
pub fn c1_params() -> GenParams {
    GenParams {
        seed: 0xC1,
        logic_cells: 700,
        depth: 14,
        rows: 10,
        ff_fraction: 0.15,
        diff_pairs: 6,
        pads: 16,
        feeds_per_row: 10,
        global_fanin: 0.25,
        num_constraints: 18,
        wire_budget: 0.30,
        geometry: bgr_layout::Geometry {
            track_pitch_um: 4.0,
            ..bgr_layout::Geometry::default()
        },
    }
}

/// The generation parameters of C2: [`generate`] and
/// [`crate::placegen::place_design`] on them give the circuit and placement
/// of [`c2`] without its constraint-anchoring reference route.
pub fn c2_params() -> GenParams {
    GenParams {
        seed: 0xC2,
        logic_cells: 1400,
        depth: 18,
        rows: 14,
        ff_fraction: 0.15,
        diff_pairs: 10,
        pads: 24,
        feeds_per_row: 12,
        global_fanin: 0.25,
        num_constraints: 28,
        wire_budget: 0.30,
        geometry: bgr_layout::Geometry {
            track_pitch_um: 4.0,
            ..bgr_layout::Geometry::default()
        },
    }
}

/// The generation parameters of C3: [`generate`] and
/// [`crate::placegen::place_design`] on them give the circuit and placement
/// of [`c3`] without its constraint-anchoring reference route.
pub fn c3_params() -> GenParams {
    GenParams {
        seed: 0xC3,
        logic_cells: 2600,
        depth: 22,
        rows: 18,
        ff_fraction: 0.14,
        diff_pairs: 14,
        pads: 32,
        feeds_per_row: 14,
        global_fanin: 0.25,
        num_constraints: 40,
        wire_budget: 0.30,
        geometry: bgr_layout::Geometry {
            track_pitch_um: 4.0,
            ..bgr_layout::Geometry::default()
        },
    }
}

/// C1 with the requested placement style (`P1` = even, `P2` = aside).
pub fn c1(style: PlacementStyle) -> DataSet {
    let suffix = match style {
        PlacementStyle::EvenFeed => "P1",
        PlacementStyle::FeedAside => "P2",
    };
    DataSet::build(&format!("C1{suffix}"), c1_params(), style)
}

/// C2 with the requested placement style.
pub fn c2(style: PlacementStyle) -> DataSet {
    let suffix = match style {
        PlacementStyle::EvenFeed => "P1",
        PlacementStyle::FeedAside => "P2",
    };
    DataSet::build(&format!("C2{suffix}"), c2_params(), style)
}

/// C3 with the requested placement style (the paper only reports C3P1).
pub fn c3(style: PlacementStyle) -> DataSet {
    let suffix = match style {
        PlacementStyle::EvenFeed => "P1",
        PlacementStyle::FeedAside => "P2",
    };
    DataSet::build(&format!("C3{suffix}"), c3_params(), style)
}

/// Builds a data set from explicit parameters (for ablations/tuning).
pub fn custom(name: &str, params: GenParams, style: PlacementStyle) -> DataSet {
    DataSet::build(name, params, style)
}

/// The fixed instance behind the checked-in golden trace
/// (`tests/golden/trace.jsonl`). The `trace_summary` bin and the
/// `golden_trace` integration test must route byte-identical input, so
/// the definition lives here rather than in either consumer.
pub fn golden_instance() -> DataSet {
    let params = GenParams {
        logic_cells: 300,
        depth: 8,
        rows: 6,
        diff_pairs: 2,
        feeds_per_row: 6,
        num_constraints: 8,
        ..GenParams::small(0x7ACE)
    };
    custom("TRACE", params, PlacementStyle::EvenFeed)
}

/// `C1P1`, built once per process. `DataSet::build` runs a full
/// reference route to anchor the constraints, which dwarfs everything a
/// bench does with the result — harnesses comparing strategies or
/// configurations on the same data set must share one construction.
pub fn c1_cached() -> &'static DataSet {
    static DS: std::sync::OnceLock<DataSet> = std::sync::OnceLock::new();
    DS.get_or_init(|| c1(PlacementStyle::EvenFeed))
}

/// `C2P1`, built once per process (see [`c1_cached`]).
pub fn c2_cached() -> &'static DataSet {
    static DS: std::sync::OnceLock<DataSet> = std::sync::OnceLock::new();
    DS.get_or_init(|| c2(PlacementStyle::EvenFeed))
}

/// `C3P1`, built once per process (see [`c1_cached`]).
pub fn c3_cached() -> &'static DataSet {
    static DS: std::sync::OnceLock<DataSet> = std::sync::OnceLock::new();
    DS.get_or_init(|| c3(PlacementStyle::EvenFeed))
}

/// The paper's five Table 2 rows: C1P1, C1P2, C2P1, C2P2, C3P1.
pub fn table_data_sets() -> Vec<DataSet> {
    vec![
        c1(PlacementStyle::EvenFeed),
        c1(PlacementStyle::FeedAside),
        c2(PlacementStyle::EvenFeed),
        c2(PlacementStyle::FeedAside),
        c3(PlacementStyle::EvenFeed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::CircuitStats;

    #[test]
    fn c1_magnitudes() {
        let ds = c1(PlacementStyle::EvenFeed);
        let stats = CircuitStats::of(&ds.design.circuit);
        assert!(stats.logic_cells >= 500, "got {}", stats.logic_cells);
        assert!(stats.nets >= 500);
        assert!(ds.design.constraints.len() >= 10);
        ds.placement.validate(&ds.design.circuit).unwrap();
    }

    #[test]
    fn sizes_grow_c1_to_c3() {
        let s1 = CircuitStats::of(&c1(PlacementStyle::EvenFeed).design.circuit);
        let s2 = CircuitStats::of(&c2(PlacementStyle::EvenFeed).design.circuit);
        let s3 = CircuitStats::of(&c3(PlacementStyle::EvenFeed).design.circuit);
        assert!(s1.logic_cells < s2.logic_cells && s2.logic_cells < s3.logic_cells);
        assert!(s1.nets < s2.nets && s2.nets < s3.nets);
    }

    #[test]
    fn p1_p2_share_the_circuit() {
        let p1 = c1(PlacementStyle::EvenFeed);
        let p2 = c1(PlacementStyle::FeedAside);
        assert_eq!(
            p1.design.circuit.cells().len(),
            p2.design.circuit.cells().len()
        );
        assert_eq!(
            p1.design.circuit.nets().len(),
            p2.design.circuit.nets().len()
        );
    }
}
