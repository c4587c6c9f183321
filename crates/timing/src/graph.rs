//! The global delay graph `G_D` (§2.1, Fig. 1).
//!
//! One vertex per circuit terminal. Two edge kinds:
//!
//! * **cell arcs** `t_i → t_o` with delay
//!   `T0(t_i,t_o) + (Σ F_in)·T_f(t_o) + CL(n)·T_d(t_o)`, where `n` is the
//!   net driven by `t_o`. The first two terms are static once the netlist
//!   is fixed; only `CL(n)` changes as the router re-estimates wire
//!   lengths, so each arc caches its static part and its `T_d`;
//! * **net arcs** `t_o → t_sink` with zero delay (the whole net delay is
//!   charged to the driving cell arc, as in the paper's Fig. 1).

use bgr_netlist::{Circuit, NetId, TermId};

/// What kind of `G_D` edge this is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArcKind {
    /// A cell timing arc; `net` is the net loading the output (if driven).
    Cell {
        /// Net driven by the arc's output terminal, if connected.
        net: Option<NetId>,
    },
    /// A driver-to-sink net hop (zero delay).
    Net {
        /// The net being traversed.
        net: NetId,
    },
}

/// One directed edge of `G_D`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayArc {
    /// Source terminal.
    pub from: TermId,
    /// Target terminal.
    pub to: TermId,
    /// Edge kind.
    pub kind: ArcKind,
    /// Static delay part in ps (`T0 + Σ F_in · T_f` for cell arcs, 0 for
    /// net arcs).
    pub static_ps: f64,
    /// Sensitivity to wiring capacitance `T_d` in ps/fF (0 for net arcs).
    pub td_ps_per_ff: f64,
}

impl DelayArc {
    /// The net whose wire delay contributes to this arc, if any.
    #[inline]
    pub fn loading_net(&self) -> Option<NetId> {
        match self.kind {
            ArcKind::Cell { net } => net,
            ArcKind::Net { .. } => None,
        }
    }
}

/// The global delay graph `G_D`, with its adjacency in compressed
/// sparse rows: a terminal's out-arcs (in-arcs) are one slice of a
/// single index vector, in ascending arc order.
#[derive(Debug, Clone)]
pub struct DelayGraph {
    arcs: Vec<DelayArc>,
    /// `out[out_start[t]..out_start[t + 1]]` are terminal `t`'s out-arcs.
    out_start: Vec<u32>,
    out: Vec<u32>,
    /// `rev[rev_start[t]..rev_start[t + 1]]` are terminal `t`'s in-arcs.
    rev_start: Vec<u32>,
    rev: Vec<u32>,
    num_nets: usize,
}

/// Compressed rows of `arcs` keyed by `key`: row starts (one per
/// terminal, plus the end) and the arc indices, ascending within a row.
fn csr(
    num_terms: usize,
    arcs: &[DelayArc],
    key: impl Fn(&DelayArc) -> TermId,
) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; num_terms + 1];
    for arc in arcs {
        start[key(arc).index() + 1] += 1;
    }
    for t in 0..num_terms {
        start[t + 1] += start[t];
    }
    let mut fill = start.clone();
    let mut idx = vec![0u32; arcs.len()];
    for (i, arc) in arcs.iter().enumerate() {
        let slot = &mut fill[key(arc).index()];
        idx[*slot as usize] = i as u32;
        *slot += 1;
    }
    (start, idx)
}

impl DelayGraph {
    /// Builds `G_D` from a circuit: the cell arcs of every cell in cell
    /// order, then the net arcs of every net in net order.
    pub fn build(circuit: &Circuit) -> Self {
        let library = circuit.library();
        let num_arcs = circuit
            .cells()
            .iter()
            .map(|cell| library.kind(cell.kind()).arcs().len())
            .sum::<usize>()
            + circuit
                .nets()
                .iter()
                .map(|n| n.sinks().len())
                .sum::<usize>();
        let mut arcs = Vec::with_capacity(num_arcs);
        for cell in circuit.cells() {
            let kind = library.kind(cell.kind());
            for arc in kind.arcs() {
                let from = cell.terms()[arc.from];
                let to = cell.terms()[arc.to];
                let net = circuit.term(to).net();
                let fanout_ff = net.map(|n| circuit.net_fanout_ff(n)).unwrap_or(0.0);
                arcs.push(DelayArc {
                    from,
                    to,
                    kind: ArcKind::Cell { net },
                    static_ps: arc.intrinsic_ps + fanout_ff * kind.fanin_delay_ps_per_ff(),
                    td_ps_per_ff: kind.load_delay_ps_per_ff(),
                });
            }
        }
        for (i, net) in circuit.nets().iter().enumerate() {
            let id = NetId::new(i);
            for &sink in net.sinks() {
                arcs.push(DelayArc {
                    from: net.driver(),
                    to: sink,
                    kind: ArcKind::Net { net: id },
                    static_ps: 0.0,
                    td_ps_per_ff: 0.0,
                });
            }
        }
        debug_assert_eq!(arcs.len(), num_arcs);
        let num_terms = circuit.terms().len();
        let (out_start, out) = csr(num_terms, &arcs, |a| a.from);
        let (rev_start, rev) = csr(num_terms, &arcs, |a| a.to);
        Self {
            arcs,
            out_start,
            out,
            rev_start,
            rev,
            num_nets: circuit.nets().len(),
        }
    }

    /// All arcs.
    pub fn arcs(&self) -> &[DelayArc] {
        &self.arcs
    }

    /// Number of terminals (vertices).
    pub fn num_terms(&self) -> usize {
        self.out_start.len() - 1
    }

    /// Number of nets in the underlying circuit.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Out-edge indices of a terminal, ascending.
    pub fn out_arcs(&self, term: TermId) -> &[u32] {
        let t = term.index();
        &self.out[self.out_start[t] as usize..self.out_start[t + 1] as usize]
    }

    /// In-edge indices of a terminal, ascending.
    pub fn in_arcs(&self, term: TermId) -> &[u32] {
        let t = term.index();
        &self.rev[self.rev_start[t] as usize..self.rev_start[t + 1] as usize]
    }

    /// Delay of arc `idx` in ps given the current per-net wire state.
    ///
    /// `cl_ff[net]` is the routed wiring capacitance estimate; `rc_ps[net]`
    /// is the model-dependent extra term (see
    /// [`crate::DelayModel::wire_rc_ps`]).
    #[inline]
    pub fn arc_delay_ps(&self, idx: u32, cl_ff: &[f64], rc_ps: &[f64]) -> f64 {
        let arc = &self.arcs[idx as usize];
        match arc.loading_net() {
            Some(net) => arc.static_ps + cl_ff[net.index()] * arc.td_ps_per_ff + rc_ps[net.index()],
            None => arc.static_ps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::{CellLibrary, CircuitBuilder};

    fn chain() -> (Circuit, Vec<TermId>) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        let terms = vec![
            cb.pad_term(a),
            cb.cell_term(u1, "A").unwrap(),
            cb.cell_term(u1, "Y").unwrap(),
            cb.cell_term(u2, "A").unwrap(),
            cb.cell_term(u2, "Y").unwrap(),
            cb.pad_term(y),
        ];
        cb.add_net("n1", terms[0], [terms[1]]).unwrap();
        cb.add_net("n2", terms[2], [terms[3]]).unwrap();
        cb.add_net("n3", terms[4], [terms[5]]).unwrap();
        (cb.finish().unwrap(), terms)
    }

    #[test]
    fn builds_cell_and_net_arcs() {
        let (circuit, terms) = chain();
        let dg = DelayGraph::build(&circuit);
        // 2 cell arcs + 3 net arcs.
        assert_eq!(dg.arcs().len(), 5);
        assert_eq!(dg.out_arcs(terms[0]).len(), 1);
        assert_eq!(dg.in_arcs(terms[5]).len(), 1);
    }

    #[test]
    fn adjacency_rows_list_each_arc_once_in_ascending_order() {
        let (circuit, _) = chain();
        let dg = DelayGraph::build(&circuit);
        type Row = fn(&DelayGraph, TermId) -> &[u32];
        type End = fn(&DelayArc) -> TermId;
        let rows: [(Row, End); 2] = [
            (DelayGraph::out_arcs, |a| a.from),
            (DelayGraph::in_arcs, |a| a.to),
        ];
        for (row, end) in rows {
            let mut seen = 0;
            for t in 0..dg.num_terms() {
                let term = TermId::new(t);
                let arcs = row(&dg, term);
                assert!(arcs.windows(2).all(|w| w[0] < w[1]), "{arcs:?}");
                assert!(arcs.iter().all(|&i| end(&dg.arcs()[i as usize]) == term));
                seen += arcs.len();
            }
            assert_eq!(seen, dg.arcs().len());
        }
    }

    #[test]
    fn static_part_includes_fanout_load() {
        let (circuit, terms) = chain();
        let dg = DelayGraph::build(&circuit);
        // u1's arc A->Y: T0 = 60, fanout = u2/A = 5 fF, Tf = 2.5.
        let arc_idx = dg.out_arcs(terms[1])[0];
        let arc = &dg.arcs()[arc_idx as usize];
        assert!((arc.static_ps - (60.0 + 5.0 * 2.5)).abs() < 1e-12);
        // u2's arc drives the pad: zero fanout capacitance.
        let arc_idx = dg.out_arcs(terms[3])[0];
        assert!((dg.arcs()[arc_idx as usize].static_ps - 60.0).abs() < 1e-12);
    }

    #[test]
    fn arc_delay_adds_wire_terms() {
        let (circuit, terms) = chain();
        let dg = DelayGraph::build(&circuit);
        let mut cl = vec![0.0; dg.num_nets()];
        let rc = vec![0.0; dg.num_nets()];
        let arc_idx = dg.out_arcs(terms[1])[0];
        let base = dg.arc_delay_ps(arc_idx, &cl, &rc);
        cl[1] = 10.0; // n2 is the net loading u1's output
        let loaded = dg.arc_delay_ps(arc_idx, &cl, &rc);
        // INV Td = 0.45 ps/fF.
        assert!((loaded - base - 4.5).abs() < 1e-12);
    }

    #[test]
    fn net_arcs_are_zero_delay() {
        let (circuit, _) = chain();
        let dg = DelayGraph::build(&circuit);
        let cl = vec![99.0; dg.num_nets()];
        let rc = vec![99.0; dg.num_nets()];
        for (i, arc) in dg.arcs().iter().enumerate() {
            if matches!(arc.kind, ArcKind::Net { .. }) {
                assert_eq!(dg.arc_delay_ps(i as u32, &cl, &rc), 0.0);
            }
        }
    }
}
