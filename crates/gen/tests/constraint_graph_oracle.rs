//! From-scratch oracle for `bgr_timing::ConstraintGraph`'s path-sized
//! tables.
//!
//! The reference below builds `G_d(P)` the direct way: full fan-out and
//! fan-in cones over every terminal, the members filtered from `0..n`,
//! Kahn's sort seeded in ascending `TermId` order, per-net arc lists in a
//! `BTreeMap`, and a term-sized dense index. Over generated designs with
//! harvested and random constraints, the fast build must agree with it on
//! the member order, the member arcs and their endpoints, the per-net
//! runs, every longest-path value bit for bit, the critical nets, the
//! error variant of every rejected constraint, and the analyzer's
//! local-margin ingredients at random wire lengths.

use std::collections::BTreeMap;

use bgr_gen::{generate, harvest_constraints, GenParams};
use bgr_netlist::{Circuit, NetId, SplitMix64, TermId};
use bgr_timing::{
    ArcKind, ConstraintGraph, DelayGraph, DelayModel, PathConstraint, Sta, TimingError, WireParams,
};

/// `(G_D arc, from position, to position)`.
type Arc3 = (u32, u32, u32);

/// The reference `G_d(P)`.
struct Naive {
    topo: Vec<TermId>,
    /// Topological position per terminal (`u32::MAX` outside).
    dense: Vec<u32>,
    arcs: Vec<Arc3>,
    by_net: BTreeMap<NetId, Vec<Arc3>>,
    /// Positions of `S_P` and `T_P`.
    source: usize,
    sink: usize,
}

fn cone(dg: &DelayGraph, root: TermId, forward: bool) -> Vec<bool> {
    let mut seen = vec![false; dg.num_terms()];
    seen[root.index()] = true;
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        let next = if forward {
            dg.out_arcs(v)
        } else {
            dg.in_arcs(v)
        };
        for &e in next {
            let arc = &dg.arcs()[e as usize];
            let w = if forward { arc.to } else { arc.from };
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen
}

fn naive_build(dg: &DelayGraph, c: &PathConstraint) -> Result<Naive, TimingError> {
    let n = dg.num_terms();
    let fwd = cone(dg, c.source, true);
    if !fwd[c.sink.index()] {
        return Err(TimingError::Unreachable {
            source: c.source,
            sink: c.sink,
        });
    }
    let bwd = cone(dg, c.sink, false);
    let member = |t: TermId| fwd[t.index()] && bwd[t.index()];
    let members: Vec<TermId> = (0..n).map(TermId::new).filter(|&t| member(t)).collect();
    let mut dense = vec![u32::MAX; n];
    for (i, &t) in members.iter().enumerate() {
        dense[t.index()] = i as u32;
    }
    let mut indeg = vec![0u32; members.len()];
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
    let mut topo = Vec::new();
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
            source: c.source,
            sink: c.sink,
        });
    }
    for (i, &t) in topo.iter().enumerate() {
        dense[t.index()] = i as u32;
    }
    let mut arcs = Vec::new();
    let mut by_net: BTreeMap<NetId, Vec<Arc3>> = BTreeMap::new();
    for &t in &topo {
        for &e in dg.out_arcs(t) {
            let arc = &dg.arcs()[e as usize];
            if member(arc.to) {
                let a = (e, dense[arc.from.index()], dense[arc.to.index()]);
                arcs.push(a);
                if let Some(net) = arc.loading_net() {
                    by_net.entry(net).or_default().push(a);
                }
            }
        }
    }
    Ok(Naive {
        source: dense[c.source.index()] as usize,
        sink: dense[c.sink.index()] as usize,
        topo,
        dense,
        arcs,
        by_net,
    })
}

impl Naive {
    fn longest_paths(&self, dg: &DelayGraph, cl: &[f64], rc: &[f64]) -> Vec<f64> {
        let mut lp = vec![f64::NEG_INFINITY; self.topo.len()];
        lp[self.source] = 0.0;
        for &(e, from, to) in &self.arcs {
            let cand = lp[from as usize] + dg.arc_delay_ps(e, cl, rc);
            if cand > lp[to as usize] {
                lp[to as usize] = cand;
            }
        }
        lp
    }

    fn longest_paths_to_sink(&self, dg: &DelayGraph, cl: &[f64], rc: &[f64]) -> Vec<f64> {
        let mut bp = vec![f64::NEG_INFINITY; self.topo.len()];
        bp[self.sink] = 0.0;
        for &(e, from, to) in self.arcs.iter().rev() {
            let cand = bp[to as usize] + dg.arc_delay_ps(e, cl, rc);
            if cand > bp[from as usize] {
                bp[from as usize] = cand;
            }
        }
        bp
    }

    fn critical_nets(
        &self,
        dg: &DelayGraph,
        c: &PathConstraint,
        cl: &[f64],
        rc: &[f64],
    ) -> Vec<NetId> {
        let lp = self.longest_paths(dg, cl, rc);
        let mut nets = Vec::new();
        let mut cur = c.sink;
        while cur != c.source {
            let cur_lp = lp[self.dense[cur.index()] as usize];
            let e = dg
                .in_arcs(cur)
                .iter()
                .copied()
                .find(|&e| {
                    let from = self.dense[dg.arcs()[e as usize].from.index()];
                    from != u32::MAX
                        && (lp[from as usize] + dg.arc_delay_ps(e, cl, rc) - cur_lp).abs() <= 1e-9
                })
                .expect("lp-consistent predecessor exists");
            let arc = &dg.arcs()[e as usize];
            let net = match arc.kind {
                ArcKind::Cell { net } => net,
                ArcKind::Net { net } => Some(net),
            };
            if let Some(net) = net {
                if nets.last() != Some(&net) {
                    nets.push(net);
                }
            }
            cur = arc.from;
        }
        nets.dedup();
        nets
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A length on the routed 2⁻¹⁰ µm grid, up to 2 mm.
fn grid_length(rng: &mut SplitMix64) -> f64 {
    rng.next_below(2_000 * 1024) as f64 / 1024.0
}

/// Compares one fast build against the reference at zero and at the
/// given wire terms.
fn check_graph(dg: &DelayGraph, c: &PathConstraint, cl: &[f64], rc: &[f64]) -> bool {
    let fast = ConstraintGraph::build(dg, c.clone());
    let naive = naive_build(dg, c);
    let (fast, naive) = match (fast, naive) {
        (Ok(f), Ok(n)) => (f, n),
        (Err(f), Err(n)) => {
            assert_eq!(f, n, "{c:?}");
            return false;
        }
        (f, n) => panic!("{c:?}: fast {:?} vs reference {:?}", f.err(), n.err()),
    };
    assert_eq!(fast.topo(), naive.topo, "{c:?}");
    let arcs: Vec<Arc3> = fast.arcs().iter().map(|m| (m.arc, m.from, m.to)).collect();
    assert_eq!(arcs, naive.arcs, "{c:?}");
    let nets: Vec<NetId> = naive.by_net.keys().copied().collect();
    assert_eq!(fast.nets(), nets, "{c:?}");
    for (&net, want) in &naive.by_net {
        let got: Vec<Arc3> = fast
            .arcs_for_net(net)
            .iter()
            .map(|m| (m.arc, m.from, m.to))
            .collect();
        assert_eq!(&got, want, "{c:?} net {net:?}");
    }
    for (i, &t) in naive.topo.iter().enumerate() {
        assert_eq!(fast.dense_index(t), Some(i));
        assert!(fast.contains(t));
    }
    let zero = vec![0.0; dg.num_nets()];
    for (cl, rc) in [(&zero[..], &zero[..]), (cl, rc)] {
        assert_eq!(
            bits(&fast.longest_paths(dg, cl, rc)),
            bits(&naive.longest_paths(dg, cl, rc)),
            "{c:?}"
        );
        assert_eq!(
            bits(&fast.longest_paths_to_sink(dg, cl, rc)),
            bits(&naive.longest_paths_to_sink(dg, cl, rc)),
            "{c:?}"
        );
        assert_eq!(
            fast.critical_nets(dg, cl, rc),
            naive.critical_nets(dg, c, cl, rc),
            "{c:?}"
        );
    }
    true
}

/// The analyzer's `lm_excess_ps` and `delay_increase_sum_ps` against a
/// direct recompute over the reference's per-net arcs.
fn check_sta(
    circuit: &Circuit,
    constraints: &[PathConstraint],
    model: DelayModel,
    rng: &mut SplitMix64,
) {
    let mut sta = Sta::new(circuit, constraints.to_vec(), model, WireParams::default())
        .expect("harvested constraints build");
    for net in circuit.net_ids() {
        sta.set_net_length(net, grid_length(rng));
    }
    let dg = sta.graph().clone();
    let (cl, rc) = (
        sta.lengths().cl_ff().to_vec(),
        sta.lengths().rc_ps().to_vec(),
    );
    for (cid, c) in constraints.iter().enumerate() {
        let naive = naive_build(&dg, c).expect("harvested constraints build");
        let lp = naive.longest_paths(&dg, &cl, &rc);
        let nets: Vec<NetId> = naive.by_net.keys().copied().collect();
        assert_eq!(sta.nets_of_constraint(cid), nets);
        for (&net, arcs) in &naive.by_net {
            assert!(sta.constraints_of_net(net).contains(&(cid as u32)));
            let (hcl, hrc) = sta.lengths().wire_terms_at(net, grid_length(rng));
            let mut worst = 0.0f64;
            let mut sum = 0.0;
            for &(e, from, to) in arcs {
                let arc = &dg.arcs()[e as usize];
                let d_new = arc.static_ps + hcl * arc.td_ps_per_ff + hrc;
                worst = worst.max(lp[from as usize] + d_new - lp[to as usize]);
                sum += (d_new - dg.arc_delay_ps(e, &cl, &rc)).max(0.0);
            }
            assert_eq!(
                sta.lm_excess_ps(cid, net, hcl, hrc).to_bits(),
                worst.to_bits(),
                "{c:?} net {net:?}"
            );
            assert_eq!(
                sta.delay_increase_sum_ps(cid, net, hcl, hrc).to_bits(),
                sum.to_bits(),
                "{c:?} net {net:?}"
            );
        }
    }
}

#[test]
fn path_sized_tables_match_the_reference_build() {
    let (mut built, mut rejected) = (0, 0);
    for seed in 0..72u64 {
        let mut rng = SplitMix64::new(seed ^ 0x6a09_e667);
        let mut params = GenParams::small(seed);
        params.logic_cells = rng.range_usize(20, 160);
        params.depth = rng.range_usize(2, 12);
        let design = generate(&params);
        let circuit = &design.circuit;
        let dg = DelayGraph::build(circuit);
        let (cl, rc): (Vec<f64>, Vec<f64>) = circuit
            .net_ids()
            .map(|n| {
                let len = grid_length(&mut rng);
                let w = &WireParams::default();
                let width = circuit.net(n).width_pitches();
                (
                    DelayModel::Elmore.wire_cap_ff(w, len, width),
                    DelayModel::Elmore.wire_rc_ps(w, len, width, circuit.net_fanout_ff(n)),
                )
            })
            .unzip();
        let mut constraints = design.constraints.clone();
        constraints.extend(harvest_constraints(circuit, 8, 0.35, seed + 1000));
        for c in &constraints {
            assert!(check_graph(&dg, c, &cl, &rc), "harvested {c:?} builds");
            built += 1;
        }
        // Random terminal pairs: mostly unreachable, some reachable.
        let n = dg.num_terms() as u64;
        for i in 0..24 {
            let s = TermId::new(rng.next_below(n) as usize);
            let t = TermId::new(rng.next_below(n) as usize);
            let c = PathConstraint::new(format!("r{i}"), s, t, 1.0);
            if check_graph(&dg, &c, &cl, &rc) {
                built += 1;
            } else {
                rejected += 1;
            }
        }
        let model = if seed % 2 == 0 {
            DelayModel::Capacitance
        } else {
            DelayModel::Elmore
        };
        check_sta(circuit, &constraints, model, &mut rng);
    }
    assert!(built >= 64 * 4, "{built} graphs built");
    assert!(rejected > 0, "no rejected constraint exercised");
}
