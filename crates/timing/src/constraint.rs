//! Critical path constraints and their delay constraint graphs `G_d(P)`
//! (§2.2).

use bgr_netlist::{NetId, TermId};

use crate::error::TimingError;
use crate::graph::{ArcKind, DelayGraph};

/// A critical path constraint `P = (S_P, T_P, τ_P)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathConstraint {
    /// Human-readable name.
    pub name: String,
    /// Signal source terminal `S_P`.
    pub source: TermId,
    /// Signal sink terminal `T_P`.
    pub sink: TermId,
    /// Delay limit `τ_P` in ps.
    pub limit_ps: f64,
}

impl PathConstraint {
    /// Creates a constraint.
    pub fn new(name: impl Into<String>, source: TermId, sink: TermId, limit_ps: f64) -> Self {
        Self {
            name: name.into(),
            source,
            sink,
            limit_ps,
        }
    }
}

/// One arc of `G_d(P)`: a `G_D` arc together with the member positions
/// (indices into [`ConstraintGraph::topo`]) of its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberArc {
    /// Index of the arc in [`DelayGraph::arcs`].
    pub arc: u32,
    /// Member position of the arc's source terminal.
    pub from: u32,
    /// Member position of the arc's target terminal.
    pub to: u32,
}

/// The delay constraint graph `G_d(P)`: the subgraph of `G_D` induced by
/// all vertices on some `S_P → T_P` path, in topological order.
///
/// Everything it holds is sized by the paths it describes, not by the
/// netlist: the member terminals, the member arcs with both endpoints as
/// member positions, and those arcs grouped by loading net.
#[derive(Debug, Clone)]
pub struct ConstraintGraph {
    constraint: PathConstraint,
    /// Member terminals in topological order: `S_P` first, `T_P` last.
    topo: Vec<TermId>,
    /// Arcs with both endpoints in the member set, ordered by the
    /// topological position of their source, then by `G_D` out-arc order.
    arcs: Vec<MemberArc>,
    /// The loaded arcs of `arcs`, stable-sorted by loading net, so each
    /// net's run keeps the order of `arcs`.
    by_net: Vec<MemberArc>,
    /// Nets with at least one loaded arc, ascending.
    nets: Vec<NetId>,
    /// `by_net[net_start[i]..net_start[i + 1]]` are the arcs of `nets[i]`.
    net_start: Vec<u32>,
}

/// Marks of the transient term-sized array in [`ConstraintGraph::build`];
/// any smaller value is a member position.
const OUTSIDE: u32 = u32::MAX;
const IN_CONE: u32 = u32::MAX - 1;

impl ConstraintGraph {
    /// Builds `G_d(P)` over the global delay graph.
    ///
    /// Walks the sink's fan-in cone, then walks forward from the source
    /// inside that cone; every vertex the second walk reaches lies on an
    /// `S_P → T_P` path, so it visits only the members.
    ///
    /// # Errors
    ///
    /// [`TimingError::Unreachable`] if no `S_P → T_P` path exists;
    /// [`TimingError::CyclicConstraint`] if the member subgraph is cyclic.
    pub fn build(dg: &DelayGraph, constraint: PathConstraint) -> Result<Self, TimingError> {
        let n = dg.num_terms();
        let (source, sink) = (constraint.source, constraint.sink);
        if source.index() >= n {
            return Err(TimingError::UnknownTerm(source));
        }
        if sink.index() >= n {
            return Err(TimingError::UnknownTerm(sink));
        }
        // The one term-sized array; it does not outlive this call.
        let mut mark = vec![OUTSIDE; n];
        mark[sink.index()] = IN_CONE;
        let mut stack = vec![sink];
        while let Some(v) = stack.pop() {
            for &e in dg.in_arcs(v) {
                let u = dg.arcs()[e as usize].from;
                if mark[u.index()] == OUTSIDE {
                    mark[u.index()] = IN_CONE;
                    stack.push(u);
                }
            }
        }
        if mark[source.index()] == OUTSIDE {
            return Err(TimingError::Unreachable { source, sink });
        }
        // Every vertex on a path from the source to a cone vertex is in
        // the cone, so this walk reaches exactly the members.
        let mut members = vec![source];
        mark[source.index()] = 0;
        let mut next = 0;
        while let Some(&v) = members.get(next) {
            next += 1;
            for &e in dg.out_arcs(v) {
                let w = dg.arcs()[e as usize].to;
                if mark[w.index()] == IN_CONE {
                    mark[w.index()] = members.len() as u32;
                    members.push(w);
                }
            }
        }
        let position = |mark: &[u32], t: TermId| Some(mark[t.index()]).filter(|&p| p < IN_CONE);

        // Kahn topological sort of the member subgraph. Every member but
        // the source was reached over a member arc, so the source is the
        // only possible seed and the order does not depend on the order
        // of `members`.
        let mut indeg = vec![0u32; members.len()];
        for &t in &members {
            for &e in dg.out_arcs(t) {
                if let Some(p) = position(&mark, dg.arcs()[e as usize].to) {
                    indeg[p as usize] += 1;
                }
            }
        }
        let mut queue = if indeg[0] == 0 { vec![source] } else { vec![] };
        let mut topo = Vec::with_capacity(members.len());
        while let Some(v) = queue.pop() {
            topo.push(v);
            for &e in dg.out_arcs(v) {
                let w = dg.arcs()[e as usize].to;
                if let Some(p) = position(&mark, w) {
                    let d = &mut indeg[p as usize];
                    *d -= 1;
                    if *d == 0 {
                        queue.push(w);
                    }
                }
            }
        }
        if topo.len() != members.len() {
            return Err(TimingError::CyclicConstraint { source, sink });
        }
        debug_assert!(topo[0] == source && topo[topo.len() - 1] == sink);
        // Re-number members by topological position so evaluation is a
        // single sweep.
        for (i, &t) in topo.iter().enumerate() {
            mark[t.index()] = i as u32;
        }
        let mut arcs = Vec::new();
        for (from, &t) in topo.iter().enumerate() {
            for &e in dg.out_arcs(t) {
                if let Some(to) = position(&mark, dg.arcs()[e as usize].to) {
                    arcs.push(MemberArc {
                        arc: e,
                        from: from as u32,
                        to,
                    });
                }
            }
        }
        let mut loaded: Vec<(NetId, MemberArc)> = arcs
            .iter()
            .filter_map(|&m| Some((dg.arcs()[m.arc as usize].loading_net()?, m)))
            .collect();
        loaded.sort_by_key(|&(net, _)| net);
        let mut nets = Vec::new();
        let mut net_start = Vec::new();
        for (i, &(net, _)) in loaded.iter().enumerate() {
            if nets.last() != Some(&net) {
                nets.push(net);
                net_start.push(i as u32);
            }
        }
        net_start.push(loaded.len() as u32);
        Ok(Self {
            constraint,
            topo,
            arcs,
            by_net: loaded.into_iter().map(|(_, m)| m).collect(),
            nets,
            net_start,
        })
    }

    /// The constraint this graph was built for.
    pub fn constraint(&self) -> &PathConstraint {
        &self.constraint
    }

    /// Member terminals in topological order: `S_P` first, `T_P` last.
    pub fn topo(&self) -> &[TermId] {
        &self.topo
    }

    /// Whether a terminal belongs to this constraint graph (a linear
    /// scan of the members).
    pub fn contains(&self, term: TermId) -> bool {
        self.topo.contains(&term)
    }

    /// Member position of a terminal (its index in [`Self::topo`]), by a
    /// linear scan of the members.
    pub fn dense_index(&self, term: TermId) -> Option<usize> {
        self.topo.iter().position(|&t| t == term)
    }

    /// The arcs of this graph, in topological source order and then `G_D`
    /// out-arc order.
    pub fn arcs(&self) -> &[MemberArc] {
        &self.arcs
    }

    /// Arcs of this graph whose delay depends on `net`'s wire length, in
    /// the order of [`Self::arcs`].
    pub fn arcs_for_net(&self, net: NetId) -> &[MemberArc] {
        match self.nets.binary_search(&net) {
            Ok(i) => &self.by_net[self.net_start[i] as usize..self.net_start[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Nets with at least one loading arc in this graph, ascending by
    /// [`NetId`] (the same order in every build from the same inputs).
    pub fn nets(&self) -> &[NetId] {
        &self.nets
    }

    /// Forward longest-path sweep: returns `lp(v)` per member position
    /// (ps from `S_P`) given the current wire state.
    ///
    /// Vertices that precede `S_P` in the member set cannot exist (the
    /// member set is exactly the S→T path union), so `lp(S_P) = 0` and
    /// every member is reachable.
    pub fn longest_paths(&self, dg: &DelayGraph, cl_ff: &[f64], rc_ps: &[f64]) -> Vec<f64> {
        let mut lp = vec![f64::NEG_INFINITY; self.topo.len()];
        lp[0] = 0.0;
        for m in &self.arcs {
            let cand = lp[m.from as usize] + dg.arc_delay_ps(m.arc, cl_ff, rc_ps);
            if cand > lp[m.to as usize] {
                lp[m.to as usize] = cand;
            }
        }
        lp
    }

    /// Backward longest-path sweep: `bp(v)` = longest delay from `v` to
    /// `T_P`.
    pub fn longest_paths_to_sink(&self, dg: &DelayGraph, cl_ff: &[f64], rc_ps: &[f64]) -> Vec<f64> {
        let mut bp = vec![f64::NEG_INFINITY; self.topo.len()];
        bp[self.topo.len() - 1] = 0.0;
        for m in self.arcs.iter().rev() {
            let cand = bp[m.to as usize] + dg.arc_delay_ps(m.arc, cl_ff, rc_ps);
            if cand > bp[m.from as usize] {
                bp[m.from as usize] = cand;
            }
        }
        bp
    }

    /// Critical path arrival at the sink: `lp(T_P)`.
    pub fn arrival_ps(&self, lp: &[f64]) -> f64 {
        lp[self.topo.len() - 1]
    }

    /// Margin `M(P) = τ_P − lp(T_P)`.
    pub fn margin_ps(&self, lp: &[f64]) -> f64 {
        self.constraint.limit_ps - self.arrival_ps(lp)
    }

    /// Nets on the critical path, in sink-to-source discovery order.
    ///
    /// Walks back from `T_P` choosing, at each vertex, the first
    /// predecessor arc in `G_D` in-arc order that achieves its `lp`
    /// value; collects the loading net of every cell arc and the
    /// traversed net of every net arc on the way.
    pub fn critical_nets(&self, dg: &DelayGraph, cl_ff: &[f64], rc_ps: &[f64]) -> Vec<NetId> {
        let lp = self.longest_paths(dg, cl_ff, rc_ps);
        let mut nets = Vec::new();
        let mut cur = self.constraint.sink;
        const EPS: f64 = 1e-9;
        while cur != self.constraint.source {
            let cur_lp = lp[self.dense_index(cur).expect("path vertex is a member")];
            let mut step = None;
            for &e in dg.in_arcs(cur) {
                let arc = &dg.arcs()[e as usize];
                let Some(from) = self.dense_index(arc.from) else {
                    continue;
                };
                if (lp[from] + dg.arc_delay_ps(e, cl_ff, rc_ps) - cur_lp).abs() <= EPS {
                    step = Some(e);
                    break;
                }
            }
            let e = step.expect("lp-consistent predecessor exists");
            let arc = &dg.arcs()[e as usize];
            nets.extend(match arc.kind {
                ArcKind::Cell { net } => net,
                ArcKind::Net { net } => Some(net),
            });
            cur = arc.from;
        }
        nets.dedup();
        nets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::{CellLibrary, Circuit, CircuitBuilder};

    /// a -> u1 -> {u2, u3} -> y (reconvergent through u2/u3? No: u2 -> y,
    /// u3 dangles into z). Gives a diamond-free graph with a side branch.
    fn fanout_circuit() -> (Circuit, TermId, TermId, TermId) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let nor2 = lib.kind_by_name("NOR2").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let b = cb.add_input_pad("b");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        let u3 = cb.add_cell("u3", nor2);
        // a -> u1.A; u1.Y -> u2.A and u3.A; b -> u3.B; u3.Y -> y.
        cb.add_net("na", cb.pad_term(a), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        cb.add_net(
            "n1",
            cb.cell_term(u1, "Y").unwrap(),
            [
                cb.cell_term(u2, "A").unwrap(),
                cb.cell_term(u3, "A").unwrap(),
            ],
        )
        .unwrap();
        cb.add_net("nb", cb.pad_term(b), [cb.cell_term(u3, "B").unwrap()])
            .unwrap();
        cb.add_net("ny", cb.cell_term(u3, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        let src = cb.pad_term(a);
        let src_b = cb.pad_term(b);
        let snk = cb.pad_term(y);
        (cb.finish().unwrap(), src, src_b, snk)
    }

    fn zeros(dg: &DelayGraph) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; dg.num_nets()], vec![0.0; dg.num_nets()])
    }

    #[test]
    fn membership_excludes_side_branches() {
        let (circuit, src, _, snk) = fanout_circuit();
        let dg = DelayGraph::build(&circuit);
        let cg = ConstraintGraph::build(&dg, PathConstraint::new("p", src, snk, 1000.0)).unwrap();
        // u2 (the dangling inverter) is not on any a->y path.
        let u2_a = circuit.cell(bgr_netlist::CellId::new(1)).terms()[0];
        assert!(!cg.contains(u2_a));
        assert!(cg.contains(src));
        assert!(cg.contains(snk));
    }

    #[test]
    fn longest_path_accumulates_arc_delays() {
        let (circuit, src, _, snk) = fanout_circuit();
        let dg = DelayGraph::build(&circuit);
        let cg = ConstraintGraph::build(&dg, PathConstraint::new("p", src, snk, 1000.0)).unwrap();
        let (cl, rc) = zeros(&dg);
        let lp = cg.longest_paths(&dg, &cl, &rc);
        // Path: INV arc (60 + (5+6)*2.5 = 87.5 for fanout u2.A+u3.A)
        //     + NOR2 A->Y arc (95 + 0 fanout to pad).
        let arrival = cg.arrival_ps(&lp);
        assert!((arrival - (60.0 + 11.0 * 2.5 + 95.0)).abs() < 1e-9);
        assert!((cg.margin_ps(&lp) - (1000.0 - arrival)).abs() < 1e-9);
    }

    #[test]
    fn wire_length_increases_arrival() {
        let (circuit, src, _, snk) = fanout_circuit();
        let dg = DelayGraph::build(&circuit);
        let cg = ConstraintGraph::build(&dg, PathConstraint::new("p", src, snk, 1000.0)).unwrap();
        let (mut cl, rc) = zeros(&dg);
        let lp0 = cg.arrival_ps(&cg.longest_paths(&dg, &cl, &rc));
        cl[1] = 20.0; // n1 loads u1's INV arc (Td = 0.45)
        let lp1 = cg.arrival_ps(&cg.longest_paths(&dg, &cl, &rc));
        assert!((lp1 - lp0 - 9.0).abs() < 1e-9);
    }

    #[test]
    fn arcs_for_net_selects_loading_arcs() {
        let (circuit, src, _, snk) = fanout_circuit();
        let dg = DelayGraph::build(&circuit);
        let cg = ConstraintGraph::build(&dg, PathConstraint::new("p", src, snk, 1000.0)).unwrap();
        // Net n1 (index 1) loads exactly u1's cell arc inside this graph.
        let arcs = cg.arcs_for_net(bgr_netlist::NetId::new(1));
        assert_eq!(arcs.len(), 1);
        assert!(matches!(
            dg.arcs()[arcs[0].arc as usize].kind,
            ArcKind::Cell { .. }
        ));
    }

    #[test]
    fn unreachable_is_an_error() {
        let (circuit, _, src_b, _) = fanout_circuit();
        let dg = DelayGraph::build(&circuit);
        // b -> a's pad is impossible.
        let a_term = circuit.pads()[0].term();
        let err =
            ConstraintGraph::build(&dg, PathConstraint::new("p", src_b, a_term, 1.0)).unwrap_err();
        assert!(matches!(err, TimingError::Unreachable { .. }));
    }

    #[test]
    fn critical_nets_walk_the_longest_path() {
        let (circuit, src, _, snk) = fanout_circuit();
        let dg = DelayGraph::build(&circuit);
        let cg = ConstraintGraph::build(&dg, PathConstraint::new("p", src, snk, 1000.0)).unwrap();
        let (cl, rc) = zeros(&dg);
        let mut nets = cg.critical_nets(&dg, &cl, &rc);
        nets.sort();
        // na (0), n1 (1), ny (3) are on the a->y path; nb (2) is not,
        // because the b->u3.B arc has no cell delay behind it greater than
        // the a-side path.
        assert_eq!(nets, vec![NetId::new(0), NetId::new(1), NetId::new(3)]);
    }

    #[test]
    fn backward_sweep_mirrors_forward() {
        let (circuit, src, _, snk) = fanout_circuit();
        let dg = DelayGraph::build(&circuit);
        let cg = ConstraintGraph::build(&dg, PathConstraint::new("p", src, snk, 1000.0)).unwrap();
        let (cl, rc) = zeros(&dg);
        let lp = cg.longest_paths(&dg, &cl, &rc);
        let bp = cg.longest_paths_to_sink(&dg, &cl, &rc);
        let src_i = cg.dense_index(src).unwrap();
        assert!((bp[src_i] - cg.arrival_ps(&lp)).abs() < 1e-9);
    }
}
