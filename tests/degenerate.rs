//! Degenerate-input robustness: inputs at the boundary of the domain
//! must route — or error with a structured `RouteError` — cleanly in
//! both `OnViolation` modes, with no panic (DESIGN.md §11).

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::io::{parse_placement, write_netlist, write_placement};
use bgr::layout::{Geometry, Placement, PlacementBuilder};
use bgr::netlist::{CellLibrary, Circuit, CircuitBuilder};
use bgr::router::{GlobalRouter, OnViolation, RouteError, Routed, RouterConfig};
use bgr::timing::PathConstraint;

fn config(ov: OnViolation) -> RouterConfig {
    RouterConfig {
        on_violation: ov,
        ..RouterConfig::default()
    }
}

/// Routes in both modes behind the panic boundary; asserts both modes
/// produce the same class of outcome and returns the BestEffort one.
fn route_both_modes(
    circuit: &Circuit,
    placement: &Placement,
    constraints: &[PathConstraint],
) -> Result<Routed, bgr::router::RouteError> {
    let run = |ov| {
        GlobalRouter::new(config(ov)).route_checked(
            circuit.clone(),
            placement.clone(),
            constraints.to_vec(),
        )
    };
    let strict = run(OnViolation::Fail);
    let lax = run(OnViolation::BestEffort);
    match (&strict, &lax) {
        // Fail may reject what BestEffort degrades through; any other
        // disagreement between the modes is a bug.
        (Err(bgr::router::RouteError::ConstraintsUnsatisfied(_)), Ok(_)) => {}
        (Ok(a), Ok(b)) => assert_eq!(a.result.trees, b.result.trees),
        (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
        (a, b) => panic!("modes disagree: Fail={a:?} vs BestEffort={b:?}"),
    }
    lax
}

#[test]
fn empty_circuit_routes_to_empty_forest() {
    let lib = CellLibrary::ecl();
    let cb = CircuitBuilder::new(lib);
    let circuit = cb.finish().expect("empty circuit validates");
    let placement = PlacementBuilder::new(Geometry::default(), 1)
        .finish(&circuit)
        .expect("empty placement validates");
    match route_both_modes(&circuit, &placement, &[]) {
        Ok(routed) => {
            assert!(routed.result.trees.is_empty());
            assert_eq!(routed.result.total_length_um, 0.0);
            assert_eq!(routed.result.violations, None);
        }
        Err(e) => panic!("empty circuit must route trivially, got {e}"),
    }
}

#[test]
fn single_net_circuit_routes() {
    let lib = CellLibrary::ecl();
    let inv = lib.kind_by_name("INV").unwrap();
    let mut cb = CircuitBuilder::new(lib);
    let a = cb.add_input_pad("a");
    let u = cb.add_cell("u", inv);
    cb.add_net("n", cb.pad_term(a), [cb.cell_term(u, "A").unwrap()])
        .unwrap();
    let circuit = cb.finish().unwrap();
    let mut pb = PlacementBuilder::new(Geometry::default(), 1);
    pb.append_with_width(0, bgr::netlist::CellId::new(0), 3);
    pb.place_pad_bottom(a, 0);
    let placement = pb.finish(&circuit).unwrap();
    let routed = route_both_modes(&circuit, &placement, &[]).expect("single net routes");
    assert_eq!(routed.result.trees.len(), 1);
    assert!(!routed.result.trees[0].segments.is_empty());
}

#[test]
fn net_with_all_terminals_in_one_row_routes() {
    let lib = CellLibrary::ecl();
    let inv = lib.kind_by_name("INV").unwrap();
    let nor2 = lib.kind_by_name("NOR2").unwrap();
    let mut cb = CircuitBuilder::new(lib);
    let u0 = cb.add_cell("u0", inv);
    let u1 = cb.add_cell("u1", nor2);
    let u2 = cb.add_cell("u2", nor2);
    // One driver fanning out to two sinks, all three cells in row 0.
    cb.add_net(
        "n",
        cb.cell_term(u0, "Y").unwrap(),
        [
            cb.cell_term(u1, "A").unwrap(),
            cb.cell_term(u2, "B").unwrap(),
        ],
    )
    .unwrap();
    let a = cb.add_input_pad("a");
    cb.add_net("na", cb.pad_term(a), [cb.cell_term(u0, "A").unwrap()])
        .unwrap();
    let circuit = cb.finish().unwrap();
    let mut pb = PlacementBuilder::new(Geometry::default(), 1);
    pb.append_with_width(0, bgr::netlist::CellId::new(0), 3);
    pb.append_with_width(0, bgr::netlist::CellId::new(1), 4);
    pb.append_with_width(0, bgr::netlist::CellId::new(2), 4);
    pb.place_pad_bottom(a, 0);
    let placement = pb.finish(&circuit).unwrap();
    let routed = route_both_modes(&circuit, &placement, &[]).expect("same-row net routes");
    assert_eq!(routed.result.trees.len(), 2);
    for tree in &routed.result.trees {
        assert!(!tree.segments.is_empty());
    }
}

#[test]
fn zero_constraints_with_use_constraints_on_routes() {
    // `use_constraints = true` (the default) with an empty constraint
    // list: the delay criteria all collapse to zero, the recovery and
    // delay phases see no constraints, and nothing may divide by the
    // empty set.
    let lib = CellLibrary::ecl();
    let inv = lib.kind_by_name("INV").unwrap();
    let mut cb = CircuitBuilder::new(lib);
    let a = cb.add_input_pad("a");
    let y = cb.add_output_pad("y");
    let u = cb.add_cell("u", inv);
    cb.add_net("n1", cb.pad_term(a), [cb.cell_term(u, "A").unwrap()])
        .unwrap();
    cb.add_net("n2", cb.cell_term(u, "Y").unwrap(), [cb.pad_term(y)])
        .unwrap();
    let circuit = cb.finish().unwrap();
    let mut pb = PlacementBuilder::new(Geometry::default(), 1);
    pb.append_with_width(0, bgr::netlist::CellId::new(0), 3);
    pb.place_pad_bottom(a, 0);
    pb.place_pad_top(y, 2);
    let placement = pb.finish(&circuit).unwrap();
    let mut cfg = config(OnViolation::Fail);
    assert!(cfg.use_constraints, "default must exercise the phase code");
    let strict = GlobalRouter::new(cfg.clone())
        .route_checked(circuit.clone(), placement.clone(), vec![])
        .expect("zero constraints route in Fail mode");
    cfg.on_violation = OnViolation::BestEffort;
    let lax = GlobalRouter::new(cfg)
        .route_checked(circuit, placement, vec![])
        .expect("zero constraints route in BestEffort mode");
    assert_eq!(strict.result.trees, lax.result.trees);
    assert_eq!(strict.result.violations, None);
    assert_eq!(lax.result.violations, None);
    assert_eq!(strict.result.trees.len(), 2);
}

/// A placement whose geometry puts a negative length on routing-graph
/// edges (`pitch -8`) is refused when it is read, so `bgr route` fails
/// fast with the structured layout error instead of searching a graph
/// with negative weights forever.
#[test]
fn negative_pitch_placement_is_refused_by_route() {
    let p = GenParams::small(1);
    let design = generate(&p);
    let placement = place_design(&design, &p, PlacementStyle::EvenFeed);
    let good = write_placement(&design.circuit, &placement);
    assert!(good.contains("geometry pitch 8 "), "{good}");
    let bad = good.replacen("geometry pitch 8 ", "geometry pitch -8 ", 1);
    let err = parse_placement(&design.circuit, &bad).expect_err("negative pitch must not parse");
    assert!(
        err.to_string().contains("pitch_um is -8"),
        "unhelpful: {err}"
    );

    let dir = std::env::temp_dir().join(format!("bgr-negative-pitch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (netlist, placement) = (dir.join("d.bgrn"), dir.join("d.bgrp"));
    std::fs::write(&netlist, write_netlist(&design.circuit)).unwrap();
    std::fs::write(&placement, bad).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bgr"))
        .arg("route")
        .arg("--netlist")
        .arg(&netlist)
        .arg("--placement")
        .arg(&placement)
        .output()
        .expect("bgr runs");
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "route accepted a negative pitch");
    assert!(stderr.contains("pitch_um is -8"), "unhelpful: {stderr}");
}

/// A routing graph whose edges total 2⁴² µm or more cannot keep its
/// length sums exact, so the route refuses it with a structured error
/// in both modes rather than panicking.
#[test]
fn graph_over_the_length_cap_is_a_structured_error() {
    let p = GenParams {
        geometry: Geometry {
            pitch_um: 1e12,
            ..Geometry::default()
        },
        ..GenParams::small(1)
    };
    let design = generate(&p);
    let placement = place_design(&design, &p, PlacementStyle::EvenFeed);
    let err = route_both_modes(&design.circuit, &placement, &design.constraints)
        .expect_err("a graph over the cap must be refused");
    assert!(
        matches!(err, RouteError::GraphTooLong(_)),
        "wrong variant: {err}"
    );
}
