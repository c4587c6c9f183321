//! The three rip-up-and-reroute improvement phases (§3.5).

use std::collections::HashSet;
use std::time::Instant;

use bgr_netlist::NetId;

use crate::config::CriteriaOrder;
use crate::engine::Engine;
use crate::probe::{Counter, Phase, Probe, Scope, TraceEvent};

const EPS: f64 = 1e-6;

/// Work ceilings one improvement phase runs under.
///
/// `max_reroutes` is deterministic (a pure step count — exhaustion emits
/// [`TraceEvent::BudgetExhausted`] at the same stream position in every
/// run); `deadline` is wall-clock and therefore reported only through
/// [`Counter::DeadlineStop`] on the diagnostics side (DESIGN.md §11).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseLimits {
    /// Ceiling on reroutes in this phase (`None` = unlimited).
    pub max_reroutes: Option<u64>,
    /// Absolute wall-clock deadline (`None` = none).
    pub deadline: Option<Instant>,
}

impl PhaseLimits {
    /// No limits (the pre-budget behaviour).
    pub fn none() -> Self {
        Self::default()
    }
}

/// What one improvement phase did and why it stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseOutcome {
    /// Nets ripped up and rerouted.
    pub reroutes: usize,
    /// Passes actually run (≤ the configured pass count).
    pub passes: usize,
    /// The deterministic reroute budget ran out mid-phase.
    pub budget_exhausted: bool,
    /// The wall-clock deadline stopped the phase.
    pub deadline_fired: bool,
}

/// Whether the phase may spend one more reroute; on the first refusal,
/// reports the reason (deterministic event for the step budget, the
/// diagnostics counter for the deadline) and latches it in `out`.
fn step_allowed<P: Probe>(
    engine: &mut Engine<P>,
    phase: Phase,
    limits: &PhaseLimits,
    out: &mut PhaseOutcome,
) -> bool {
    if out.budget_exhausted || out.deadline_fired {
        return false;
    }
    if limits
        .max_reroutes
        .is_some_and(|b| out.reroutes as u64 >= b)
    {
        engine.probe_mut().event(TraceEvent::BudgetExhausted {
            phase,
            steps: out.reroutes as u64,
        });
        out.budget_exhausted = true;
        return false;
    }
    if limits.deadline.is_some_and(|d| Instant::now() >= d) {
        engine.probe_mut().count(Counter::DeadlineStop, 1);
        out.deadline_fired = true;
        return false;
    }
    true
}

/// Timing score of the current state: `(total violation, total arrival)`
/// over all constraints — smaller is better. Summing (rather than taking
/// the worst) prevents a reroute from trading one constraint's slack for
/// another's violation.
fn timing_score<P: Probe>(engine: &Engine<P>) -> (f64, f64) {
    let sta = engine.sta();
    let mut violation = 0.0;
    let mut arrival = 0.0;
    for c in 0..sta.num_constraints() {
        violation += (-sta.margin_ps(c)).max(0.0);
        arrival += sta.arrival_ps(c);
    }
    (violation, arrival)
}

/// Reroutes one net, reverting if the timing score regresses (the
/// improvement phases must never make things worse).
fn reroute_guarded<P: Probe>(engine: &mut Engine<P>, net: NetId, order: CriteriaOrder) {
    if P::PROFILING {
        engine.probe_mut().scope_enter(Scope::Reroute);
    }
    let snap = engine.snapshot(net);
    let before = timing_score(engine);
    engine.reroute_net(net, order);
    let after = timing_score(engine);
    let worse = after.0 > before.0 + EPS || (after.0 > before.0 - EPS && after.1 > before.1 + EPS);
    if worse {
        engine.restore(&snap);
        engine
            .probe_mut()
            .event(TraceEvent::RerouteRejected { net });
    } else {
        engine
            .probe_mut()
            .event(TraceEvent::RerouteAccepted { net });
    }
    if P::PROFILING {
        engine.probe_mut().scope_exit(Scope::Reroute);
    }
}

/// Nets on the critical paths of the given constraints, in ascending
/// margin order, deduplicated.
fn critical_nets_by_margin<P: Probe>(engine: &Engine<P>, only_violated: bool) -> Vec<NetId> {
    let sta = engine.sta();
    let mut cids: Vec<usize> = (0..sta.num_constraints())
        .filter(|&c| !only_violated || sta.margin_ps(c) < 0.0)
        .collect();
    cids.sort_by(|&a, &b| sta.margin_ps(a).total_cmp(&sta.margin_ps(b)));
    let mut seen = HashSet::new();
    let mut nets = Vec::new();
    for cid in cids {
        for net in sta.critical_nets(cid) {
            if seen.insert(net) {
                nets.push(net);
            }
        }
    }
    nets
}

/// Constraint-violation recovery (§3.5 phase 1): reroutes the nets on the
/// critical paths of violated constraints until the violations are gone,
/// progress stalls, `passes` is exhausted, or `limits` stop the phase.
pub fn recover_violate<P: Probe>(
    engine: &mut Engine<P>,
    passes: usize,
    order: CriteriaOrder,
    limits: &PhaseLimits,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    for _ in 0..passes {
        if engine.sta().worst_margin_ps() >= 0.0 {
            break;
        }
        out.passes += 1;
        let before = engine.sta().worst_margin_ps();
        for net in critical_nets_by_margin(engine, true) {
            if !step_allowed(engine, Phase::RecoverViolate, limits, &mut out) {
                return out;
            }
            reroute_guarded(engine, net, order);
            out.reroutes += 1;
        }
        if engine.sta().worst_margin_ps() <= before + EPS {
            break;
        }
    }
    out
}

/// Delay improvement (§3.5 phase 2): reroutes critical-path nets of *all*
/// constraints, tightest first, until no margin progress or `limits`
/// stop the phase.
pub fn improve_delay<P: Probe>(
    engine: &mut Engine<P>,
    passes: usize,
    order: CriteriaOrder,
    limits: &PhaseLimits,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    for _ in 0..passes {
        if engine.sta().num_constraints() == 0 {
            break;
        }
        out.passes += 1;
        let worst_before = engine.sta().worst_margin_ps();
        let arrival_before = engine.sta().max_arrival_ps();
        for net in critical_nets_by_margin(engine, false) {
            if !step_allowed(engine, Phase::ImproveDelay, limits, &mut out) {
                return out;
            }
            reroute_guarded(engine, net, order);
            out.reroutes += 1;
        }
        let improved = engine.sta().worst_margin_ps() > worst_before + EPS
            || engine.sta().max_arrival_ps() < arrival_before - EPS;
        if !improved {
            break;
        }
    }
    out
}

/// Area improvement (§3.5 phase 3): reroutes nets running through the
/// most congested columns first, with the reordered (area) criteria.
pub fn improve_area<P: Probe>(
    engine: &mut Engine<P>,
    passes: usize,
    limits: &PhaseLimits,
) -> PhaseOutcome {
    let mut out = PhaseOutcome::default();
    for _ in 0..passes {
        out.passes += 1;
        let tracks_before: i32 = engine.density().channel_maxima().iter().sum();
        let hottest = engine
            .density()
            .channel_maxima()
            .into_iter()
            .max()
            .unwrap_or(0);
        if hottest == 0 {
            break;
        }
        // Score nets by the peak density their tree runs through.
        let density = engine.density();
        let mut scored: Vec<(i32, NetId)> = Vec::new();
        for (i, g) in engine.graphs().iter().enumerate() {
            let score = g
                .trunk_spans()
                .map(|(c, x1, x2, _)| density.edge_density(c, x1, x2).d_max)
                .fold(0, i32::max);
            if score >= hottest - 1 && score > 0 {
                scored.push((score, NetId::new(i)));
            }
        }
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, net) in scored {
            if !step_allowed(engine, Phase::ImproveArea, limits, &mut out) {
                return out;
            }
            let snap = engine.snapshot(net);
            let tracks_b: i32 = engine.density().channel_maxima().iter().sum();
            let timing_b = timing_score(engine);
            engine.reroute_net(net, CriteriaOrder::AreaFirst);
            let tracks_a: i32 = engine.density().channel_maxima().iter().sum();
            let timing_a = timing_score(engine);
            if tracks_a > tracks_b || timing_a.0 > timing_b.0 + EPS {
                engine.restore(&snap);
                engine
                    .probe_mut()
                    .event(TraceEvent::RerouteRejected { net });
            } else {
                engine
                    .probe_mut()
                    .event(TraceEvent::RerouteAccepted { net });
            }
            out.reroutes += 1;
        }
        let tracks_after: i32 = engine.density().channel_maxima().iter().sum();
        if tracks_after >= tracks_before {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoutingGraph;
    use bgr_layout::{Geometry, PlacementBuilder};
    use bgr_netlist::{CellLibrary, CircuitBuilder};
    use bgr_timing::{DelayModel, PathConstraint, Sta, WireParams};

    /// A chain with one cross-channel net under a tight constraint.
    fn engine_with_constraint(limit: f64) -> Engine {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        cb.add_net(
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
        let mut pb = PlacementBuilder::new(Geometry::default(), 1);
        pb.append_with_width(0, bgr_netlist::CellId::new(0), 3);
        pb.append_with_width(0, bgr_netlist::CellId::new(1), 3);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_top(y, 5);
        let placement = pb.finish(&circuit).unwrap();
        let graphs: Vec<RoutingGraph> = circuit
            .net_ids()
            .map(|n| RoutingGraph::build(&circuit, &placement, n, &[], 30.0))
            .collect();
        let sta = Sta::new(
            &circuit,
            cons,
            DelayModel::Capacitance,
            WireParams::default(),
        )
        .unwrap();
        let partner = vec![None; circuit.nets().len()];
        let width = placement.width_pitches() as usize;
        Engine::new(graphs, sta, partner, placement.num_channels(), width)
    }

    #[test]
    fn phases_run_and_preserve_trees() {
        let mut engine = engine_with_constraint(500.0);
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        assert!(engine.all_trees());
        let lim = PhaseLimits::none();
        recover_violate(&mut engine, 3, CriteriaOrder::DelayFirst, &lim);
        improve_delay(&mut engine, 2, CriteriaOrder::DelayFirst, &lim);
        improve_area(&mut engine, 1, &lim);
        assert!(engine.all_trees());
    }

    #[test]
    fn recover_is_noop_without_violation() {
        let mut engine = engine_with_constraint(10_000.0);
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        let out = recover_violate(
            &mut engine,
            3,
            CriteriaOrder::DelayFirst,
            &PhaseLimits::none(),
        );
        assert_eq!(out.reroutes, 0);
        assert_eq!(out.passes, 0);
        assert!(!out.budget_exhausted && !out.deadline_fired);
    }

    #[test]
    fn improve_delay_runs_on_constrained_design() {
        let mut engine = engine_with_constraint(500.0);
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        let arrival_before = engine.sta().max_arrival_ps();
        improve_delay(
            &mut engine,
            2,
            CriteriaOrder::DelayFirst,
            &PhaseLimits::none(),
        );
        assert!(engine.sta().max_arrival_ps() <= arrival_before + 1e-6);
    }

    #[test]
    fn zero_reroute_budget_stops_recovery_before_any_work() {
        // An infeasible limit forces violated constraints, so recovery
        // *wants* to reroute; the zero budget must stop it cold and
        // leave the trees intact.
        let mut engine = engine_with_constraint(1.0);
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        assert!(engine.sta().worst_margin_ps() < 0.0);
        let lim = PhaseLimits {
            max_reroutes: Some(0),
            deadline: None,
        };
        let out = recover_violate(&mut engine, 3, CriteriaOrder::DelayFirst, &lim);
        assert_eq!(out.reroutes, 0);
        assert!(out.budget_exhausted);
        assert!(!out.deadline_fired);
        assert!(engine.all_trees());
    }

    #[test]
    fn expired_deadline_stops_phase_via_diagnostics_only() {
        let mut engine = engine_with_constraint(1.0);
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        let lim = PhaseLimits {
            max_reroutes: None,
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        let out = recover_violate(&mut engine, 3, CriteriaOrder::DelayFirst, &lim);
        assert_eq!(out.reroutes, 0);
        assert!(out.deadline_fired);
        assert!(!out.budget_exhausted);
        assert!(engine.all_trees());
    }
}
