//! Zero-wire-capacitance slack analysis for net ordering (§3.1).
//!
//! The paper orders nets for feedthrough assignment "according to a static
//! delay analysis. By the forward and backward search of `G_d(P)` with
//! zero interconnection capacitance, slack values are obtained for each
//! vertex"; nets are then processed in ascending slack order.

use bgr_netlist::{Circuit, NetId};

use crate::constraint::{ConstraintGraph, PathConstraint};
use crate::graph::DelayGraph;

/// Per-net static slack in ps: the minimum, over all constraints and all
/// constraint-graph arcs loaded by the net, of
/// `τ_P − (lp(v) + d(e) + bp(w))` at zero wire capacitance.
///
/// Nets outside every constraint graph get `+∞` (routed last).
///
/// # Errors
///
/// Propagates [`ConstraintGraph::build`] failures.
pub fn net_ordering_slack(
    circuit: &Circuit,
    constraints: &[PathConstraint],
) -> Result<Vec<f64>, crate::TimingError> {
    let dg = DelayGraph::build(circuit);
    let cl = vec![0.0; dg.num_nets()];
    let rc = vec![0.0; dg.num_nets()];
    let mut slack = vec![f64::INFINITY; circuit.nets().len()];
    for c in constraints {
        let cg = ConstraintGraph::build(&dg, c.clone())?;
        let lp = cg.longest_paths(&dg, &cl, &rc);
        let bp = cg.longest_paths_to_sink(&dg, &cl, &rc);
        for &net in cg.nets() {
            for m in cg.arcs_for_net(net) {
                let d = dg.arc_delay_ps(m.arc, &cl, &rc);
                let s = c.limit_ps - (lp[m.from as usize] + d + bp[m.to as usize]);
                if s < slack[net.index()] {
                    slack[net.index()] = s;
                }
            }
        }
    }
    Ok(slack)
}

/// Net ids sorted by ascending static slack (ties by id for determinism).
///
/// # Errors
///
/// Propagates [`net_ordering_slack`] failures.
pub fn nets_by_ascending_slack(
    circuit: &Circuit,
    constraints: &[PathConstraint],
) -> Result<Vec<NetId>, crate::TimingError> {
    let slack = net_ordering_slack(circuit, constraints)?;
    let mut ids: Vec<NetId> = circuit.net_ids().collect();
    ids.sort_by(|&a, &b| {
        slack[a.index()]
            .partial_cmp(&slack[b.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::{CellLibrary, CircuitBuilder};

    /// Two parallel chains a→…→y (3 INVs) and b→…→z (1 INV) with separate
    /// constraints: the longer chain has less slack.
    fn two_chains() -> (bgr_netlist::Circuit, Vec<PathConstraint>) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let b = cb.add_input_pad("b");
        let y = cb.add_output_pad("y");
        let z = cb.add_output_pad("z");
        let mut prev = cb.pad_term(a);
        for i in 0..3 {
            let c = cb.add_cell(format!("ua{i}"), inv);
            cb.add_net(format!("na{i}"), prev, [cb.cell_term(c, "A").unwrap()])
                .unwrap();
            prev = cb.cell_term(c, "Y").unwrap();
        }
        cb.add_net("nay", prev, [cb.pad_term(y)]).unwrap();
        let c = cb.add_cell("ub0", inv);
        cb.add_net("nb0", cb.pad_term(b), [cb.cell_term(c, "A").unwrap()])
            .unwrap();
        cb.add_net("nbz", cb.cell_term(c, "Y").unwrap(), [cb.pad_term(z)])
            .unwrap();
        let cons = vec![
            PathConstraint::new("pa", cb.pad_term(a), cb.pad_term(y), 500.0),
            PathConstraint::new("pb", cb.pad_term(b), cb.pad_term(z), 500.0),
        ];
        (cb.finish().unwrap(), cons)
    }

    #[test]
    fn longer_chain_has_smaller_slack() {
        let (circuit, cons) = two_chains();
        let slack = net_ordering_slack(&circuit, &cons).unwrap();
        // Pad-driven nets (0 and 4) load no cell arc: infinite slack.
        assert!(slack[0].is_infinite() && slack[4].is_infinite());
        // Chain-a nets (1..=3) all share the a-path slack; the chain-b
        // net (5) has the larger b-path slack.
        assert!(slack[1] < slack[5]);
        assert!((slack[1] - slack[3]).abs() < 1e-9);
    }

    #[test]
    fn ordering_puts_tight_nets_first() {
        let (circuit, cons) = two_chains();
        let order = nets_by_ascending_slack(&circuit, &cons).unwrap();
        let pos = |n: usize| {
            order
                .iter()
                .position(|&id| id == bgr_netlist::NetId::new(n))
                .unwrap()
        };
        assert!(pos(1) < pos(5));
        assert!(pos(3) < pos(5));
    }

    #[test]
    fn unconstrained_nets_have_infinite_slack() {
        let (circuit, cons) = two_chains();
        let slack = net_ordering_slack(&circuit, &cons[..1]).unwrap();
        assert!(slack[4].is_infinite());
        assert!(slack[5].is_infinite());
    }

    #[test]
    fn slack_is_limit_minus_path_delay_for_single_path() {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u = cb.add_cell("u", inv);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u, "A").unwrap()])
            .unwrap();
        cb.add_net("n1", cb.cell_term(u, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        let cons = vec![PathConstraint::new(
            "p",
            cb.pad_term(a),
            cb.pad_term(y),
            100.0,
        )];
        let circuit = cb.finish().unwrap();
        let slack = net_ordering_slack(&circuit, &cons).unwrap();
        // Single INV driving a pad: path delay 60 ps, slack 40 on both
        // nets (TermId arcs: only the cell arc is "loaded", tied to n1;
        // n0 feeds the arc source).
        assert!((slack[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn net_zero_of_single_path_gets_no_loading_slack() {
        // n0 loads no cell arc (its only sink is the INV input; the arc it
        // influences is the *pad-to-input* hop, which has no cell arc), so
        // its slack is infinite — consistent with the paper, where only
        // nets appearing in G_d(P) via cell loading matter.
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u = cb.add_cell("u", inv);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u, "A").unwrap()])
            .unwrap();
        cb.add_net("n1", cb.cell_term(u, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        let cons = vec![PathConstraint::new(
            "p",
            cb.pad_term(a),
            cb.pad_term(y),
            100.0,
        )];
        let circuit = cb.finish().unwrap();
        let slack = net_ordering_slack(&circuit, &cons).unwrap();
        assert!(slack[0].is_infinite());
    }
}
