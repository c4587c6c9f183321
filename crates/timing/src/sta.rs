//! Incremental static timing over a set of path constraints.

use bgr_netlist::{Circuit, NetId};

use crate::constraint::{ConstraintGraph, PathConstraint};
use crate::error::TimingError;
use crate::graph::DelayGraph;
use crate::model::{DelayModel, WireParams};

/// Per-net wire state: routed length estimates and the derived capacitance
/// / RC contributions consumed by [`DelayGraph::arc_delay_ps`].
#[derive(Debug, Clone)]
pub struct NetLengths {
    model: DelayModel,
    wire: WireParams,
    length_um: Vec<f64>,
    cl_ff: Vec<f64>,
    rc_ps: Vec<f64>,
    width: Vec<u32>,
    fanout_ff: Vec<f64>,
}

impl NetLengths {
    /// Creates the state with all lengths zero.
    pub fn new(circuit: &Circuit, model: DelayModel, wire: WireParams) -> Self {
        let n = circuit.nets().len();
        Self {
            model,
            wire,
            length_um: vec![0.0; n],
            cl_ff: vec![0.0; n],
            rc_ps: vec![0.0; n],
            width: circuit.nets().iter().map(|n| n.width_pitches()).collect(),
            fanout_ff: circuit
                .net_ids()
                .map(|n| circuit.net_fanout_ff(n))
                .collect(),
        }
    }

    /// The delay model in use.
    pub fn model(&self) -> DelayModel {
        self.model
    }

    /// The wire parasitics in use.
    pub fn wire(&self) -> &WireParams {
        &self.wire
    }

    /// Sets a net's estimated routed length in µm.
    pub fn set_length_um(&mut self, net: NetId, length_um: f64) {
        let i = net.index();
        self.length_um[i] = length_um;
        self.cl_ff[i] = self.model.wire_cap_ff(&self.wire, length_um, self.width[i]);
        self.rc_ps[i] =
            self.model
                .wire_rc_ps(&self.wire, length_um, self.width[i], self.fanout_ff[i]);
    }

    /// Current length of a net in µm.
    pub fn length_um(&self, net: NetId) -> f64 {
        self.length_um[net.index()]
    }

    /// Total length over all nets in µm.
    pub fn total_length_um(&self) -> f64 {
        self.length_um.iter().sum()
    }

    /// Wiring capacitance per net (fF), for [`DelayGraph::arc_delay_ps`].
    pub fn cl_ff(&self) -> &[f64] {
        &self.cl_ff
    }

    /// Model-dependent RC term per net (ps).
    pub fn rc_ps(&self) -> &[f64] {
        &self.rc_ps
    }

    /// What `(cl_ff, rc_ps)` a net *would* have at the given length —
    /// used by the router's local-margin estimation without committing.
    pub fn wire_terms_at(&self, net: NetId, length_um: f64) -> (f64, f64) {
        let i = net.index();
        (
            self.model.wire_cap_ff(&self.wire, length_um, self.width[i]),
            self.model
                .wire_rc_ps(&self.wire, length_um, self.width[i], self.fanout_ff[i]),
        )
    }
}

/// Static timing analyzer: constraint graphs plus cached longest-path
/// values and margins, refreshed incrementally as nets change length.
///
/// Each constraint's member nets and member arcs live in its
/// [`ConstraintGraph`] alone; the analyzer adds only the per-net inverse
/// ([`Sta::constraints_of_net`]) and the per-constraint `lp` vectors,
/// indexed by member position.
#[derive(Debug, Clone)]
pub struct Sta {
    graph: DelayGraph,
    lengths: NetLengths,
    cons: Vec<ConstraintGraph>,
    lp: Vec<Vec<f64>>,
    margin: Vec<f64>,
    /// Per net: constraint indices whose graph contains the net.
    net_to_cons: Vec<Vec<u32>>,
    /// Bumped whenever any cached `lp` / margin changes.
    generation: u64,
    /// Per constraint: bumped whenever its `lp` / margin is refreshed.
    cons_generation: Vec<u64>,
}

impl Sta {
    /// Builds the analyzer.
    ///
    /// # Errors
    ///
    /// Propagates [`ConstraintGraph::build`] failures (unreachable or
    /// cyclic constraints).
    pub fn new(
        circuit: &Circuit,
        constraints: Vec<PathConstraint>,
        model: DelayModel,
        wire: WireParams,
    ) -> Result<Self, TimingError> {
        let graph = DelayGraph::build(circuit);
        let lengths = NetLengths::new(circuit, model, wire);
        let mut cons = Vec::with_capacity(constraints.len());
        for c in constraints {
            cons.push(ConstraintGraph::build(&graph, c)?);
        }
        let mut net_to_cons = vec![Vec::new(); circuit.nets().len()];
        for (i, cg) in cons.iter().enumerate() {
            for net in cg.nets() {
                net_to_cons[net.index()].push(i as u32);
            }
        }
        let num_cons = cons.len();
        let mut sta = Self {
            graph,
            lengths,
            cons,
            lp: Vec::new(),
            margin: Vec::new(),
            net_to_cons,
            generation: 0,
            cons_generation: vec![0; num_cons],
        };
        sta.refresh_all();
        Ok(sta)
    }

    fn refresh_all(&mut self) {
        self.lp = self
            .cons
            .iter()
            .map(|cg| cg.longest_paths(&self.graph, self.lengths.cl_ff(), self.lengths.rc_ps()))
            .collect();
        self.margin = self
            .cons
            .iter()
            .zip(&self.lp)
            .map(|(cg, lp)| cg.margin_ps(lp))
            .collect();
        self.generation += 1;
        self.cons_generation.iter_mut().for_each(|g| *g += 1);
    }

    fn refresh_one(&mut self, cid: usize) {
        self.lp[cid] =
            self.cons[cid].longest_paths(&self.graph, self.lengths.cl_ff(), self.lengths.rc_ps());
        self.margin[cid] = self.cons[cid].margin_ps(&self.lp[cid]);
        self.generation += 1;
        self.cons_generation[cid] += 1;
    }

    /// The global delay graph.
    pub fn graph(&self) -> &DelayGraph {
        &self.graph
    }

    /// Current wire-length state.
    pub fn lengths(&self) -> &NetLengths {
        &self.lengths
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Constraint graph `cid`.
    pub fn constraint(&self, cid: usize) -> &ConstraintGraph {
        &self.cons[cid]
    }

    /// Current margin `M(P)` of constraint `cid` in ps.
    pub fn margin_ps(&self, cid: usize) -> f64 {
        self.margin[cid]
    }

    /// Current arrival `lp(T_P)` of constraint `cid` in ps.
    pub fn arrival_ps(&self, cid: usize) -> f64 {
        self.cons[cid].arrival_ps(&self.lp[cid])
    }

    /// Worst (minimum) margin over all constraints, or `+∞` if there are
    /// none.
    pub fn worst_margin_ps(&self) -> f64 {
        self.margin.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest critical-path arrival over all constraints, or 0.
    pub fn max_arrival_ps(&self) -> f64 {
        (0..self.cons.len())
            .map(|c| self.arrival_ps(c))
            .fold(0.0, f64::max)
    }

    /// Indices of constraints whose graph contains `net`.
    pub fn constraints_of_net(&self, net: NetId) -> &[u32] {
        &self.net_to_cons[net.index()]
    }

    /// Member nets of constraint `cid` (inverse of
    /// [`Sta::constraints_of_net`]), ascending by [`NetId`], so every
    /// analyzer built from the same inputs lists them in the same order
    /// ([`ConstraintGraph::nets`]). A net's length change perturbs the
    /// longest paths — and hence local margins — of *every* member net of
    /// each affected constraint; incremental consumers must re-evaluate
    /// all of them.
    pub fn nets_of_constraint(&self, cid: usize) -> &[NetId] {
        self.cons[cid].nets()
    }

    /// Global invalidation stamp: changes whenever any cached longest
    /// path or margin changes. Equal stamps guarantee identical
    /// `margin_ps` / `lp` / `lm_excess_ps` answers.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-constraint invalidation stamp (see [`Sta::generation`]).
    pub fn constraint_generation(&self, cid: usize) -> u64 {
        self.cons_generation[cid]
    }

    /// Sets a net's estimated length and refreshes affected constraints.
    ///
    /// Returns `true` when the length changed, by any amount (and margins
    /// were refreshed); an equal length leaves every cache and generation
    /// stamp untouched.
    pub fn set_net_length(&mut self, net: NetId, length_um: f64) -> bool {
        if self.lengths.length_um(net) == length_um {
            return false;
        }
        self.lengths.set_length_um(net, length_um);
        let affected: Vec<u32> = self.net_to_cons[net.index()].clone();
        for cid in affected {
            self.refresh_one(cid as usize);
        }
        true
    }

    /// The paper's local-margin core: the worst `lp(v) + d' − lp(w)`
    /// excess over the constraint-graph arcs loaded by `net`, if the net's
    /// wire terms were `(cl_ff, rc_ps)`. Non-negative; 0 means no arc gets
    /// ahead of its current longest-path slacklessness.
    ///
    /// `LM(e, P) = M(P) − lm_excess_ps(...)` (Eq. 2).
    pub fn lm_excess_ps(&self, cid: usize, net: NetId, cl_ff: f64, rc_ps: f64) -> f64 {
        let cg = &self.cons[cid];
        let lp = &self.lp[cid];
        let mut worst = 0.0f64;
        for m in cg.arcs_for_net(net) {
            let arc = &self.graph.arcs()[m.arc as usize];
            let d_new = arc.static_ps + cl_ff * arc.td_ps_per_ff + rc_ps;
            worst = worst.max(lp[m.from as usize] + d_new - lp[m.to as usize]);
        }
        worst
    }

    /// Sum of per-arc delay increases over the constraint-graph arcs
    /// loaded by `net` at the hypothetical wire terms — the `LD(e)`
    /// ingredient.
    pub fn delay_increase_sum_ps(&self, cid: usize, net: NetId, cl_ff: f64, rc_ps: f64) -> f64 {
        let cg = &self.cons[cid];
        let mut sum = 0.0;
        for m in cg.arcs_for_net(net) {
            let arc = &self.graph.arcs()[m.arc as usize];
            let d_new = arc.static_ps + cl_ff * arc.td_ps_per_ff + rc_ps;
            let d_old = self
                .graph
                .arc_delay_ps(m.arc, self.lengths.cl_ff(), self.lengths.rc_ps());
            sum += (d_new - d_old).max(0.0);
        }
        sum
    }

    /// Nets on the current critical path of constraint `cid`.
    pub fn critical_nets(&self, cid: usize) -> Vec<NetId> {
        self.cons[cid].critical_nets(&self.graph, self.lengths.cl_ff(), self.lengths.rc_ps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::{CellLibrary, Circuit, CircuitBuilder, TermId};

    fn chain3() -> (Circuit, TermId, TermId) {
        chain(3)
    }

    /// A pad-to-pad chain of `n` inverters (`n + 1` nets).
    fn chain(n: usize) -> (Circuit, TermId, TermId) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let cells: Vec<_> = (0..n).map(|i| cb.add_cell(format!("u{i}"), inv)).collect();
        let mut prev = cb.pad_term(a);
        for &c in &cells {
            cb.add_net(format!("n{c:?}"), prev, [cb.cell_term(c, "A").unwrap()])
                .unwrap();
            prev = cb.cell_term(c, "Y").unwrap();
        }
        cb.add_net("ny", prev, [cb.pad_term(y)]).unwrap();
        let (s, t) = (cb.pad_term(a), cb.pad_term(y));
        (cb.finish().unwrap(), s, t)
    }

    fn sta_for(limit: f64) -> (Sta, TermId, TermId) {
        let (circuit, s, t) = chain3();
        let sta = Sta::new(
            &circuit,
            vec![PathConstraint::new("p", s, t, limit)],
            DelayModel::Capacitance,
            WireParams::default(),
        )
        .unwrap();
        (sta, s, t)
    }

    #[test]
    fn zero_length_arrival_is_static_path() {
        let (sta, _, _) = sta_for(1000.0);
        // Three INV arcs: first two drive an INV input (5 fF × 2.5 ps/fF),
        // last drives the pad. 72.5 + 72.5 + 60.
        assert!((sta.arrival_ps(0) - 205.0).abs() < 1e-9);
        assert!((sta.margin_ps(0) - 795.0).abs() < 1e-9);
    }

    #[test]
    fn set_net_length_updates_margin() {
        let (mut sta, _, _) = sta_for(1000.0);
        let before = sta.margin_ps(0);
        // Net 1 (u0.Y -> u1.A) gets 500 µm: CL = 100 fF, Td = 0.45.
        sta.set_net_length(bgr_netlist::NetId::new(1), 500.0);
        let after = sta.margin_ps(0);
        assert!((before - after - 45.0).abs() < 1e-9);
        assert!((sta.lengths().total_length_um() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn lm_excess_matches_direct_recompute() {
        let (mut sta, _, _) = sta_for(1000.0);
        let net = bgr_netlist::NetId::new(1);
        sta.set_net_length(net, 100.0);
        let m0 = sta.margin_ps(0);
        // Hypothetically grow the net to 600 µm.
        let (cl, rc) = sta.lengths().wire_terms_at(net, 600.0);
        let excess = sta.lm_excess_ps(0, net, cl, rc);
        // LM = M - excess should equal the margin after actually setting
        // the length (single-path circuit: the pessimism is exact).
        sta.set_net_length(net, 600.0);
        assert!((sta.margin_ps(0) - (m0 - excess)).abs() < 1e-9);
    }

    #[test]
    fn delay_increase_sum_is_positive_for_growth_only() {
        let (mut sta, _, _) = sta_for(1000.0);
        let net = bgr_netlist::NetId::new(1);
        sta.set_net_length(net, 400.0);
        let (cl, rc) = sta.lengths().wire_terms_at(net, 100.0);
        // Shrinking yields zero (increases are clamped at 0).
        assert_eq!(sta.delay_increase_sum_ps(0, net, cl, rc), 0.0);
        let (cl, rc) = sta.lengths().wire_terms_at(net, 800.0);
        assert!(sta.delay_increase_sum_ps(0, net, cl, rc) > 0.0);
    }

    #[test]
    fn constraints_of_net_maps_membership() {
        let (sta, _, _) = sta_for(1000.0);
        // The pad-driven first net loads no cell arc, so it is not a
        // member; the three cell-driven nets are.
        assert!(sta
            .constraints_of_net(bgr_netlist::NetId::new(0))
            .is_empty());
        for n in 1..4 {
            assert_eq!(sta.constraints_of_net(bgr_netlist::NetId::new(n)), &[0]);
        }
    }

    #[test]
    fn generations_stamp_every_margin_change() {
        let (mut sta, _, _) = sta_for(1000.0);
        let g0 = sta.generation();
        let c0 = sta.constraint_generation(0);
        // A no-op length update must not bump anything.
        assert!(!sta.set_net_length(bgr_netlist::NetId::new(1), 0.0));
        assert_eq!(sta.generation(), g0);
        assert_eq!(sta.constraint_generation(0), c0);
        // A real update bumps both the global and the constraint stamp.
        assert!(sta.set_net_length(bgr_netlist::NetId::new(1), 250.0));
        assert!(sta.generation() > g0);
        assert!(sta.constraint_generation(0) > c0);
        // Net 0 is not a member, so its update touches no constraint.
        let g1 = sta.generation();
        assert!(sta.set_net_length(bgr_netlist::NetId::new(0), 100.0));
        assert_eq!(sta.generation(), g1);
    }

    #[test]
    fn any_length_change_refreshes() {
        let (mut sta, _, _) = sta_for(1000.0);
        let net = bgr_netlist::NetId::new(1);
        assert!(sta.set_net_length(net, 100.0));
        let c0 = sta.constraint_generation(0);
        assert!(sta.set_net_length(net, 100.0 + 1e-13));
        assert!(sta.constraint_generation(0) > c0);
        assert_eq!(sta.lengths().length_um(net), 100.0 + 1e-13);
    }

    #[test]
    fn nets_of_constraint_inverts_membership() {
        let (sta, _, _) = sta_for(1000.0);
        let members = sta.nets_of_constraint(0);
        for n in 0..4 {
            let net = bgr_netlist::NetId::new(n);
            assert_eq!(
                members.contains(&net),
                sta.constraints_of_net(net).contains(&0)
            );
        }
    }

    #[test]
    fn member_nets_are_ascending_in_every_analyzer() {
        let (circuit, s, t) = chain(24);
        let build = || {
            Sta::new(
                &circuit,
                vec![PathConstraint::new("p", s, t, 1000.0)],
                DelayModel::Capacitance,
                WireParams::default(),
            )
            .unwrap()
        };
        let (a, b) = (build(), build());
        let members = a.nets_of_constraint(0);
        assert_eq!(members.len(), 24);
        assert_eq!(members, b.nets_of_constraint(0));
        assert!(members.windows(2).all(|w| w[0] < w[1]), "{members:?}");
        assert_eq!(a.constraint(0).nets(), members);
    }

    #[test]
    fn elmore_model_adds_delay() {
        let (circuit, s, t) = chain3();
        let mut cap = Sta::new(
            &circuit,
            vec![PathConstraint::new("p", s, t, 1000.0)],
            DelayModel::Capacitance,
            WireParams::default(),
        )
        .unwrap();
        let mut elm = Sta::new(
            &circuit,
            vec![PathConstraint::new("p", s, t, 1000.0)],
            DelayModel::Elmore,
            WireParams::default(),
        )
        .unwrap();
        cap.set_net_length(bgr_netlist::NetId::new(1), 2000.0);
        elm.set_net_length(bgr_netlist::NetId::new(1), 2000.0);
        assert!(elm.arrival_ps(0) > cap.arrival_ps(0));
    }
}
