//! Critical path constraints and their delay constraint graphs `G_d(P)`
//! (§2.2).

use std::collections::HashMap;

use bgr_netlist::{NetId, TermId};

use crate::error::TimingError;
use crate::graph::DelayGraph;

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

/// The delay constraint graph `G_d(P)`: the subgraph of `G_D` induced by
/// all vertices on some `S_P → T_P` path, in topological order.
#[derive(Debug, Clone)]
pub struct ConstraintGraph {
    constraint: PathConstraint,
    /// Member terminals in topological order.
    topo: Vec<TermId>,
    /// Dense index of each member terminal (`usize::MAX` if absent),
    /// indexed by `TermId`.
    dense: Vec<u32>,
    /// `G_D` arc indices with both endpoints in the member set, ordered by
    /// the topological position of their source.
    arcs: Vec<u32>,
    /// Arc indices grouped by loading net: `net → arcs of this graph whose
    /// delay depends on that net's wire length`.
    arcs_by_net: HashMap<NetId, Vec<u32>>,
    /// The keys of `arcs_by_net`, ascending.
    nets: Vec<NetId>,
}

const ABSENT: u32 = u32::MAX;

impl ConstraintGraph {
    /// Builds `G_d(P)` over the global delay graph.
    ///
    /// # Errors
    ///
    /// [`TimingError::Unreachable`] if no `S_P → T_P` path exists;
    /// [`TimingError::CyclicConstraint`] if the member subgraph is cyclic.
    pub fn build(dg: &DelayGraph, constraint: PathConstraint) -> Result<Self, TimingError> {
        let n = dg.num_terms();
        if constraint.source.index() >= n {
            return Err(TimingError::UnknownTerm(constraint.source));
        }
        if constraint.sink.index() >= n {
            return Err(TimingError::UnknownTerm(constraint.sink));
        }
        // Forward reachability from S.
        let mut fwd = vec![false; n];
        let mut stack = vec![constraint.source];
        fwd[constraint.source.index()] = true;
        while let Some(v) = stack.pop() {
            for &e in dg.out_arcs(v) {
                let w = dg.arcs()[e as usize].to;
                if !fwd[w.index()] {
                    fwd[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        if !fwd[constraint.sink.index()] {
            return Err(TimingError::Unreachable {
                source: constraint.source,
                sink: constraint.sink,
            });
        }
        // Backward reachability from T.
        let mut bwd = vec![false; n];
        stack.push(constraint.sink);
        bwd[constraint.sink.index()] = true;
        while let Some(v) = stack.pop() {
            for &e in dg.in_arcs(v) {
                let w = dg.arcs()[e as usize].from;
                if !bwd[w.index()] {
                    bwd[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        let member = |t: TermId| fwd[t.index()] && bwd[t.index()];

        // Kahn topological sort of the member subgraph.
        let mut dense = vec![ABSENT; n];
        let members: Vec<TermId> = (0..n).map(TermId::new).filter(|&t| member(t)).collect();
        let mut indeg = vec![0u32; members.len()];
        for (i, &t) in members.iter().enumerate() {
            dense[t.index()] = i as u32;
        }
        for &t in &members {
            for &e in dg.out_arcs(t) {
                let to = dg.arcs()[e as usize].to;
                if member(to) {
                    indeg[dense[to.index()] as usize] += 1;
                }
            }
        }
        let mut queue: Vec<TermId> = members
            .iter()
            .copied()
            .filter(|&t| indeg[dense[t.index()] as usize] == 0)
            .collect();
        let mut topo = Vec::with_capacity(members.len());
        while let Some(v) = queue.pop() {
            topo.push(v);
            for &e in dg.out_arcs(v) {
                let w = dg.arcs()[e as usize].to;
                if member(w) {
                    let d = &mut indeg[dense[w.index()] as usize];
                    *d -= 1;
                    if *d == 0 {
                        queue.push(w);
                    }
                }
            }
        }
        if topo.len() != members.len() {
            return Err(TimingError::CyclicConstraint {
                source: constraint.source,
                sink: constraint.sink,
            });
        }
        // Re-densify in topological order so evaluation is a single sweep.
        for (i, &t) in topo.iter().enumerate() {
            dense[t.index()] = i as u32;
        }
        let mut arcs = Vec::new();
        let mut arcs_by_net: HashMap<NetId, Vec<u32>> = HashMap::new();
        for &t in &topo {
            for &e in dg.out_arcs(t) {
                let arc = &dg.arcs()[e as usize];
                if member(arc.to) {
                    arcs.push(e);
                    if let Some(net) = arc.loading_net() {
                        arcs_by_net.entry(net).or_default().push(e);
                    }
                }
            }
        }
        let mut nets: Vec<NetId> = arcs_by_net.keys().copied().collect();
        nets.sort_unstable();
        Ok(Self {
            constraint,
            topo,
            dense,
            arcs,
            arcs_by_net,
            nets,
        })
    }

    /// The constraint this graph was built for.
    pub fn constraint(&self) -> &PathConstraint {
        &self.constraint
    }

    /// Member terminals in topological order.
    pub fn topo(&self) -> &[TermId] {
        &self.topo
    }

    /// Whether a terminal belongs to this constraint graph.
    pub fn contains(&self, term: TermId) -> bool {
        self.dense
            .get(term.index())
            .map(|&d| d != ABSENT)
            .unwrap_or(false)
    }

    /// Dense index of a member terminal.
    pub fn dense_index(&self, term: TermId) -> Option<usize> {
        match self.dense.get(term.index()) {
            Some(&d) if d != ABSENT => Some(d as usize),
            _ => None,
        }
    }

    /// `G_D` arc indices of this graph (topological source order).
    pub fn arcs(&self) -> &[u32] {
        &self.arcs
    }

    /// Arcs of this graph whose delay depends on `net`'s wire length.
    pub fn arcs_for_net(&self, net: NetId) -> &[u32] {
        self.arcs_by_net.get(&net).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nets with at least one loading arc in this graph, ascending by
    /// [`NetId`] (the same order in every build from the same inputs).
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.nets.iter().copied()
    }

    /// Forward longest-path sweep: returns `lp(v)` per dense index (ps
    /// from `S_P`) given the current wire state.
    ///
    /// Vertices that precede `S_P` in the member set cannot exist (the
    /// member set is exactly the S→T path union), so `lp(S_P) = 0` and
    /// every member is reachable.
    pub fn longest_paths(&self, dg: &DelayGraph, cl_ff: &[f64], rc_ps: &[f64]) -> Vec<f64> {
        let mut lp = vec![f64::NEG_INFINITY; self.topo.len()];
        lp[self
            .dense_index(self.constraint.source)
            .expect("source is a member")] = 0.0;
        for &e in &self.arcs {
            let arc = &dg.arcs()[e as usize];
            let from = self.dense[arc.from.index()] as usize;
            let to = self.dense[arc.to.index()] as usize;
            let cand = lp[from] + dg.arc_delay_ps(e, cl_ff, rc_ps);
            if cand > lp[to] {
                lp[to] = cand;
            }
        }
        lp
    }

    /// Backward longest-path sweep: `bp(v)` = longest delay from `v` to
    /// `T_P`.
    pub fn longest_paths_to_sink(&self, dg: &DelayGraph, cl_ff: &[f64], rc_ps: &[f64]) -> Vec<f64> {
        let mut bp = vec![f64::NEG_INFINITY; self.topo.len()];
        bp[self
            .dense_index(self.constraint.sink)
            .expect("sink is a member")] = 0.0;
        for &e in self.arcs.iter().rev() {
            let arc = &dg.arcs()[e as usize];
            let from = self.dense[arc.from.index()] as usize;
            let to = self.dense[arc.to.index()] as usize;
            let cand = bp[to] + dg.arc_delay_ps(e, cl_ff, rc_ps);
            if cand > bp[from] {
                bp[from] = cand;
            }
        }
        bp
    }

    /// Critical path arrival at the sink: `lp(T_P)`.
    pub fn arrival_ps(&self, lp: &[f64]) -> f64 {
        lp[self
            .dense_index(self.constraint.sink)
            .expect("sink is a member")]
    }

    /// Margin `M(P) = τ_P − lp(T_P)`.
    pub fn margin_ps(&self, lp: &[f64]) -> f64 {
        self.constraint.limit_ps - self.arrival_ps(lp)
    }

    /// Nets on the critical path, in sink-to-source discovery order.
    ///
    /// Walks back from `T_P` choosing, at each vertex, a predecessor arc
    /// that achieves its `lp` value; collects the loading net of every
    /// cell arc and the traversed net of every net arc on the way.
    pub fn critical_nets(&self, dg: &DelayGraph, cl_ff: &[f64], rc_ps: &[f64]) -> Vec<NetId> {
        let lp = self.longest_paths(dg, cl_ff, rc_ps);
        let mut nets = Vec::new();
        let mut cur = self.constraint.sink;
        const EPS: f64 = 1e-9;
        while cur != self.constraint.source {
            let cur_lp = lp[self.dense[cur.index()] as usize];
            let mut step = None;
            for &e in dg.in_arcs(cur) {
                let arc = &dg.arcs()[e as usize];
                if !self.contains(arc.from) {
                    continue;
                }
                let from_lp = lp[self.dense[arc.from.index()] as usize];
                if (from_lp + dg.arc_delay_ps(e, cl_ff, rc_ps) - cur_lp).abs() <= EPS {
                    step = Some(e);
                    break;
                }
            }
            let e = step.expect("lp-consistent predecessor exists");
            let arc = &dg.arcs()[e as usize];
            match arc.kind {
                crate::graph::ArcKind::Cell { net } => {
                    if let Some(net) = net {
                        if nets.last() != Some(&net) {
                            nets.push(net);
                        }
                    }
                }
                crate::graph::ArcKind::Net { net } => {
                    if nets.last() != Some(&net) {
                        nets.push(net);
                    }
                }
            }
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
            dg.arcs()[arcs[0] as usize].kind,
            crate::graph::ArcKind::Cell { .. }
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
