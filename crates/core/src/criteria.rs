//! The delay-side selection criteria `C_d(e)`, `Gl(e)`, `LD(e)` (§3.2).
//!
//! All three derive from the *local margin*
//! `LM(e, P) = M(P) − max_(v,w) max(0, lp(v) + d′ − lp(w))` (Eq. 2),
//! where `d′` is the new delay of the `G_d(P)` arcs loaded by the net if
//! the net were rerouted around the deleted edge `e` (the hypothetical
//! tentative-tree length).

use bgr_netlist::NetId;
use bgr_timing::Sta;

/// The paper's penalty function:
/// `pen(x, P) = 1 − x/τ_P` for `x ≥ 0`, `exp(−x/τ_P)` for `x < 0`.
///
/// Continuous at 0 (both give 1) and sharply increasing as the margin goes
/// negative.
#[inline]
pub fn pen(x_ps: f64, limit_ps: f64) -> f64 {
    if x_ps >= 0.0 {
        1.0 - x_ps / limit_ps
    } else {
        (-x_ps / limit_ps).exp()
    }
}

/// Hypothetical wire state of a net if one of its edges were deleted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypWire {
    /// Tentative-tree length assuming the deletion, µm.
    pub length_um: f64,
    /// Wiring capacitance at that length, fF.
    pub cl_ff: f64,
    /// Model-dependent RC term at that length, ps.
    pub rc_ps: f64,
}

/// The three delay criteria for one candidate edge.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayCriteria {
    /// `C_d(e)`: number of constraints with `LM(e, P) ≤ 0`.
    pub cd: u32,
    /// `Gl(e)`: `Σ pen(LM(e,P), P) − Σ pen(M(P), P)` — the global delay
    /// penalty increase. Non-negative.
    pub gl: f64,
    /// `LD(e)`: total delay increase over the `G_d(P)` arcs.
    pub ld: f64,
}

impl DelayCriteria {
    /// Evaluates the criteria for deleting an edge of `net`, whose
    /// hypothetical rerouted wire state is `hyp`.
    ///
    /// Nets outside every constraint graph yield all zeros (pure-density
    /// candidates).
    pub fn evaluate(sta: &Sta, net: NetId, hyp: &HypWire) -> Self {
        let mut out = Self::default();
        for &cid in sta.constraints_of_net(net) {
            let cid = cid as usize;
            let m = sta.margin_ps(cid);
            let limit = sta.constraint(cid).constraint().limit_ps;
            let excess = sta.lm_excess_ps(cid, net, hyp.cl_ff, hyp.rc_ps);
            let lm = m - excess;
            if lm <= 0.0 {
                out.cd += 1;
            }
            out.gl += pen(lm, limit) - pen(m, limit);
            out.ld += sta.delay_increase_sum_ps(cid, net, hyp.cl_ff, hyp.rc_ps);
        }
        out
    }

    /// The *floor* of `net`'s delay prefix: `(#{P : M(P) ≤ 0}, 0, 0)`,
    /// which ranks no later than [`DelayCriteria::evaluate`] at any
    /// hypothetical wire, and needs no tree. Each term of `evaluate`
    /// bounds it: [`Sta::lm_excess_ps`] starts its maximum at 0, so
    /// `LM ≤ M` and a constraint with `M ≤ 0` is counted in `C_d`; `pen`
    /// is non-increasing, so every `Gl` term is ≥ 0; and every `LD` term
    /// is clamped at 0 (DESIGN.md §8, "Bound-first lane scans").
    pub fn floor(sta: &Sta, net: NetId) -> Self {
        let cd = sta
            .constraints_of_net(net)
            .iter()
            .filter(|&&cid| sta.margin_ps(cid as usize) <= 0.0)
            .count();
        Self {
            cd: cd as u32,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::{CellLibrary, CircuitBuilder};
    use bgr_timing::{DelayModel, PathConstraint, WireParams};

    #[test]
    fn pen_is_continuous_and_monotone() {
        let tau = 100.0;
        assert!((pen(0.0, tau) - 1.0).abs() < 1e-12);
        assert!((pen(-1e-9, tau) - 1.0).abs() < 1e-6);
        // Decreasing in x.
        assert!(pen(50.0, tau) < pen(10.0, tau));
        assert!(pen(-50.0, tau) > pen(-10.0, tau));
        // Violation grows exponentially.
        assert!(pen(-200.0, tau) > std::f64::consts::E * pen(-100.0, tau) / 1.001);
    }

    fn sta_one_net(limit: f64) -> (Sta, NetId) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        let net = cb
            .add_net(
                "n1",
                cb.cell_term(u1, "Y").unwrap(),
                [cb.cell_term(u2, "A").unwrap()],
            )
            .unwrap();
        cb.add_net("n2", cb.cell_term(u2, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        let cons = vec![PathConstraint::new(
            "p",
            cb.pad_term(a),
            cb.pad_term(y),
            limit,
        )];
        let circuit = cb.finish().unwrap();
        let sta = Sta::new(
            &circuit,
            cons,
            DelayModel::Capacitance,
            WireParams::default(),
        )
        .unwrap();
        (sta, net)
    }

    fn hyp_at(sta: &Sta, net: NetId, len: f64) -> HypWire {
        let (cl_ff, rc_ps) = sta.lengths().wire_terms_at(net, len);
        HypWire {
            length_um: len,
            cl_ff,
            rc_ps,
        }
    }

    #[test]
    fn harmless_deletion_scores_zero() {
        let (sta, net) = sta_one_net(10_000.0);
        // Hypothetical length equal to current (0): nothing changes.
        let c = DelayCriteria::evaluate(&sta, net, &hyp_at(&sta, net, 0.0));
        assert_eq!(c.cd, 0);
        assert!(c.gl.abs() < 1e-12);
        assert!(c.ld.abs() < 1e-12);
    }

    #[test]
    fn growth_raises_gl_and_ld() {
        let (sta, net) = sta_one_net(10_000.0);
        let c1 = DelayCriteria::evaluate(&sta, net, &hyp_at(&sta, net, 500.0));
        let c2 = DelayCriteria::evaluate(&sta, net, &hyp_at(&sta, net, 2000.0));
        assert_eq!(c1.cd, 0);
        assert!(c2.gl > c1.gl && c1.gl > 0.0);
        assert!(c2.ld > c1.ld && c1.ld > 0.0);
    }

    #[test]
    fn violation_raises_cd() {
        // Tight limit: static path is ~132.5 ps; limit 140 ps. A 200 µm
        // growth on n1 adds 0.2*200*0.45 = 18 ps -> violation.
        let (sta, net) = sta_one_net(140.0);
        let ok = DelayCriteria::evaluate(&sta, net, &hyp_at(&sta, net, 10.0));
        assert_eq!(ok.cd, 0);
        let bad = DelayCriteria::evaluate(&sta, net, &hyp_at(&sta, net, 200.0));
        assert_eq!(bad.cd, 1);
    }

    #[test]
    fn unconstrained_net_scores_zero() {
        let (sta, _) = sta_one_net(10_000.0);
        // Net 0 (pad-driven) is in no constraint graph.
        let c = DelayCriteria::evaluate(
            &sta,
            NetId::new(0),
            &HypWire {
                length_um: 9999.0,
                cl_ff: 9999.0,
                rc_ps: 9999.0,
            },
        );
        assert_eq!(c, DelayCriteria::default());
    }
}
