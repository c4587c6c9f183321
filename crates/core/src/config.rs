//! Router configuration.

use bgr_timing::{DelayModel, WireParams};

/// Order in which the edge-selection heuristics are compared (§3.4, §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CriteriaOrder {
    /// The initial-routing / delay-improvement order: delay criteria
    /// (`C_d`, `Gl`, `LD`) first, then the five density conditions.
    #[default]
    DelayFirst,
    /// The area-improvement order (§3.5): `C_d` first, then the density
    /// conditions, with `Gl` and `LD` compared last.
    AreaFirst,
    /// Density conditions only (ablation A1: what a conventional
    /// area-minimizing edge-deletion router would do).
    DensityOnly,
}

/// How `select_edge` (Fig. 2 line 06) finds the best deletable edge.
///
/// Both strategies are defined to produce the **same deletion sequence**;
/// [`SelectionStrategy::FullRescan`] exists as the executable oracle for
/// differential testing and for auditing suspected scoreboard bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Incremental candidate scoreboard: each net's best key per
    /// channel is held in an indexed heap and updated in place, and a
    /// deletion only re-keys the nets whose graph, partner, timing
    /// margins or touched channels actually changed.
    #[default]
    Scoreboard,
    /// The naive oracle: recompute every in-scope candidate key from
    /// scratch on every iteration (`O(nets × edges)` per selection).
    FullRescan,
}

/// What `route()` does when §3.5 phase-1 recovery exhausts its passes
/// with constraints still violated.
///
/// The paper's router never aborts — it always produces a routing and
/// reports whatever timing it achieved — so [`OnViolation::BestEffort`]
/// is the default: the route completes and carries a structured
/// [`crate::result::ViolationReport`]. [`OnViolation::Fail`] is the
/// strict opt-in for callers that treat residual violations as fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnViolation {
    /// Return [`crate::RouteError::ConstraintsUnsatisfied`] carrying the
    /// violation report.
    Fail,
    /// Finish the route and attach the report to the result
    /// (`RoutingResult::violations`).
    #[default]
    BestEffort,
}

/// Deterministic per-phase work ceilings.
///
/// Budgets are *step* counts — deletion-loop selections and
/// improvement-phase reroutes — never wall-clock, so exhaustion is a
/// pure function of the input and fires at the same point in every run:
/// the `BudgetExhausted` trace event stays in the deterministic
/// [`crate::TraceEvent`] stream without breaking the byte-identical
/// guarantee across selection strategies (DESIGN.md §9, §11). `None` means unlimited (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budgets {
    /// Ceiling on deletion-loop selections during initial routing. On
    /// exhaustion the engine switches to the deterministic fallback
    /// completion path (first-deletable-edge deletion per net), which
    /// still ends in a forest of spanning trees.
    pub deletion_steps: Option<u64>,
    /// Ceiling on reroutes per improvement phase (each of recovery,
    /// delay and area improvement gets this many). On exhaustion the
    /// phase stops at a consistent state and the route continues.
    pub phase_reroutes: Option<u64>,
}

impl Budgets {
    /// No ceilings anywhere (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether any ceiling is set.
    pub fn any(&self) -> bool {
        self.deletion_steps.is_some() || self.phase_reroutes.is_some()
    }
}

/// How much in-flight self-auditing the router performs
/// (`RouterConfig::verify`).
///
/// The engine's self-audit rebuilds the density map and tentative
/// lengths from scratch and compares them against the incremental
/// state; divergence panics with a descriptive message (which
/// `route_checked` converts into a structured
/// [`crate::RouteError::Internal`]). Audits emit deterministic
/// [`crate::TraceEvent::AuditPassed`] / [`crate::TraceEvent::AuditStep`]
/// events, which are a pure function of the configuration and input —
/// so any fixed level keeps the byte-identical trace guarantee, and
/// [`VerifyLevel::Off`] (the default) emits nothing, leaving pre-audit
/// golden traces untouched. The *independent* result auditor
/// (`bgr_verify::audit`) runs outside the engine on the finished
/// [`crate::RoutingResult`] and needs no level at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No in-flight audits (the default; zero overhead, unchanged
    /// traces).
    #[default]
    Off,
    /// One audit after the last routing phase.
    Final,
    /// An audit at every phase boundary.
    Phases,
    /// Phase-boundary audits plus one every `N` deletion-loop
    /// selections (`N` ≥ 1).
    Steps(u64),
}

impl VerifyLevel {
    /// Whether any auditing is enabled.
    pub fn enabled(&self) -> bool {
        !matches!(self, Self::Off)
    }

    /// Whether phase-boundary audits run (`Phases` and `Steps`).
    pub fn at_phases(&self) -> bool {
        matches!(self, Self::Phases | Self::Steps(_))
    }

    /// The deletion-step audit interval, if step audits are on.
    pub fn step_interval(&self) -> Option<u64> {
        match self {
            Self::Steps(n) => Some((*n).max(1)),
            _ => None,
        }
    }

    /// Parses the `BGR_VERIFY` grammar:
    /// `off` | `final` | `phases` | `steps[:N]` (default `N` = 32).
    /// Unparsable values fall back to `Off`.
    pub fn parse(raw: &str) -> Self {
        let v = raw.trim().to_ascii_lowercase();
        match v.as_str() {
            "final" => Self::Final,
            "phases" => Self::Phases,
            "steps" => Self::Steps(32),
            s => match s.strip_prefix("steps:") {
                Some(n) => match n.parse::<u64>() {
                    Ok(n) if n >= 1 => Self::Steps(n),
                    _ => Self::Off,
                },
                None => Self::Off,
            },
        }
    }

    /// [`VerifyLevel::parse`] of the `BGR_VERIFY` environment variable
    /// (`Off` when unset).
    fn from_env() -> Self {
        std::env::var("BGR_VERIFY")
            .map(|v| Self::parse(&v))
            .unwrap_or(Self::Off)
    }
}

/// Configuration for [`crate::GlobalRouter`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Whether the router *optimizes* under the given path constraints.
    /// When `false` (the paper's "without constraints" runs), routing uses
    /// density criteria only, but the result's timing report still
    /// evaluates the constraints for comparison.
    pub use_constraints: bool,
    /// Interconnect delay model.
    pub delay_model: DelayModel,
    /// Wire parasitics.
    pub wire: WireParams,
    /// Nominal vertical length in µm charged to a branch (pin-tap) edge.
    ///
    /// Detailed routing realizes each tap as a run from the row edge to
    /// the assigned track, so this should approximate *half the expected
    /// channel height*; an unrealistically small value makes the
    /// router's internal margins optimistic and de-fangs the timing
    /// criteria.
    pub branch_length_um: f64,
    /// Maximum passes of the constraint-violation recovery phase.
    pub recover_passes: usize,
    /// Maximum passes of the delay improvement phase.
    pub delay_passes: usize,
    /// Maximum passes of the area improvement phase.
    pub area_passes: usize,
    /// Criteria ordering for initial routing and delay phases.
    pub criteria_order: CriteriaOrder,
    /// Whether differential pairs are routed in lockstep (§4.1). Disabling
    /// routes the pair members independently (ablation A5).
    pub pair_differential: bool,
    /// Whether feedthrough assignment processes nets in ascending
    /// static-slack order (§3.1). Disabling falls back to netlist order
    /// (ablation A6); ignored when `use_constraints` is off.
    pub slack_ordering: bool,
    /// Candidate-selection implementation; the result is identical
    /// either way (see [`SelectionStrategy`]).
    pub selection: SelectionStrategy,
    /// Has no effect: the router re-keys on one thread. The field remains
    /// (default 1) only because the repository benchmark sets and prints
    /// it; checkpoints still carry it as their `config threads` line.
    pub threads: usize,
    /// Has no effect: the scoreboard keeps one cached top per channel
    /// heap. The field (default 4) remains only because the repository
    /// benchmark sets and prints it; checkpoints still carry it as their
    /// `config shards` line.
    pub shards: usize,
    /// Degradation policy when recovery leaves residual violations.
    pub on_violation: OnViolation,
    /// In-flight self-audit level (see [`VerifyLevel`]; the
    /// `BGR_VERIFY` environment variable overrides the default).
    pub verify: VerifyLevel,
    /// Deterministic per-phase step ceilings (see [`Budgets`]).
    pub budgets: Budgets,
    /// Optional wall-clock deadline for the whole route, measured from
    /// `route()` entry. Unlike [`Budgets`] this is inherently
    /// machine-dependent: firings are checked only between improvement
    /// reroutes, reported through the *diagnostics* side
    /// (`Counter::DeadlineStop`) and never through the deterministic
    /// event stream — a route where the deadline fires is explicitly
    /// outside the byte-identical-trace guarantee (DESIGN.md §11).
    pub deadline: Option<std::time::Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            use_constraints: true,
            delay_model: DelayModel::Capacitance,
            wire: WireParams::default(),
            branch_length_um: 30.0,
            recover_passes: 3,
            delay_passes: 2,
            area_passes: 1,
            criteria_order: CriteriaOrder::DelayFirst,
            pair_differential: true,
            slack_ordering: true,
            selection: SelectionStrategy::default(),
            threads: 1,
            shards: 4,
            on_violation: OnViolation::default(),
            verify: VerifyLevel::from_env(),
            budgets: Budgets::default(),
            deadline: None,
        }
    }
}

impl RouterConfig {
    /// The paper's "without constraints" configuration: pure
    /// area-minimizing routing (delay criteria all zero), improvement
    /// phases limited to the area phase.
    pub fn unconstrained() -> Self {
        Self {
            use_constraints: false,
            recover_passes: 0,
            delay_passes: 0,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_constraints_and_phases() {
        let c = RouterConfig::default();
        assert!(c.use_constraints);
        assert!(c.recover_passes > 0 && c.delay_passes > 0 && c.area_passes > 0);
        assert_eq!(c.criteria_order, CriteriaOrder::DelayFirst);
    }

    #[test]
    fn scoreboard_is_the_default_selection() {
        assert_eq!(
            RouterConfig::default().selection,
            SelectionStrategy::Scoreboard
        );
    }

    #[test]
    fn default_is_best_effort_with_unlimited_budgets() {
        let c = RouterConfig::default();
        assert_eq!(c.on_violation, OnViolation::BestEffort);
        assert!(!c.budgets.any());
        assert!(c.deadline.is_none());
        let b = Budgets {
            deletion_steps: Some(10),
            ..Budgets::unlimited()
        };
        assert!(b.any());
    }

    #[test]
    fn verify_level_parses_the_env_grammar() {
        assert_eq!(VerifyLevel::default(), VerifyLevel::Off);
        assert!(!VerifyLevel::Off.enabled());
        assert!(VerifyLevel::Final.enabled() && !VerifyLevel::Final.at_phases());
        assert!(VerifyLevel::Phases.at_phases());
        assert_eq!(VerifyLevel::Phases.step_interval(), None);
        assert_eq!(VerifyLevel::Steps(8).step_interval(), Some(8));
        assert_eq!(VerifyLevel::Steps(0).step_interval(), Some(1));
        for (raw, want) in [
            ("final", VerifyLevel::Final),
            (" Phases ", VerifyLevel::Phases),
            ("steps", VerifyLevel::Steps(32)),
            ("steps:7", VerifyLevel::Steps(7)),
            ("steps:0", VerifyLevel::Off),
            ("garbage", VerifyLevel::Off),
            ("off", VerifyLevel::Off),
        ] {
            assert_eq!(VerifyLevel::parse(raw), want, "input {raw:?}");
        }
    }

    #[test]
    fn unconstrained_disables_delay_phases() {
        let c = RouterConfig::unconstrained();
        assert!(!c.use_constraints);
        assert_eq!(c.recover_passes, 0);
        assert_eq!(c.delay_passes, 0);
        assert!(c.area_passes > 0);
    }
}
