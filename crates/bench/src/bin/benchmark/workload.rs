//! The three workloads, their pinned router configuration, and the
//! route / check / sign-off steps shared by the timed and traced runs.

use std::time::Instant;

use bgr_channel::route_channels;
use bgr_core::probe::Probe;
use bgr_core::session::{RouteSession, SessionStage, StepOutcome};
use bgr_core::{
    Budgets, OnViolation, RouteError, Routed, RouterConfig, SelectionStrategy, VerifyLevel,
};
use bgr_netlist::NetId;
use bgr_timing::{DelayModel, WireParams};
use bgr_verify::audit;

use crate::inputs::{self, Design, Scale};
use crate::trace::{Owner, Tracer};

/// Selections per serve slice.
pub const SLICE_QUOTA: u64 = 16;
/// Worker threads draining the serve queue. One: with two, each round
/// waits for the slower thread, and on a shared 2-core host that made the
/// drain time far noisier (interquartile spread ≈25% vs ≈7% over 8 runs).
pub const QUEUE_THREADS: usize = 1;
/// Input builds per timed run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// C2P1, constrained, one thread: the hypothetical-tree layer.
    RouteC2,
    /// C3P1, unconstrained, one thread: density windows and selection.
    RouteC3Unconstrained,
    /// Four C1-scale constrained jobs drained in 16-selection slices.
    ServeC1Q16,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RouteC2,
        Workload::RouteC3Unconstrained,
        Workload::ServeC1Q16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteC2 => "route_c2",
            Workload::RouteC3Unconstrained => "route_c3_unconstrained",
            Workload::ServeC1Q16 => "serve_c1_q16",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The router configuration, with every field a workload depends on
    /// set explicitly (`main` also clears the `BGR_*` overrides).
    pub fn config(self) -> RouterConfig {
        let base = match self {
            Workload::RouteC3Unconstrained => RouterConfig::unconstrained(),
            Workload::RouteC2 | Workload::ServeC1Q16 => RouterConfig::default(),
        };
        RouterConfig {
            threads: 1,
            shards: 4,
            verify: VerifyLevel::Off,
            selection: SelectionStrategy::Scoreboard,
            on_violation: OnViolation::BestEffort,
            budgets: Budgets::unlimited(),
            deadline: None,
            ..base
        }
    }

    /// Builds the workload's designs, renamed under `seed`, in serve
    /// submission order.
    pub fn designs(self, seed: u64) -> Vec<Design> {
        match self {
            Workload::RouteC2 => vec![inputs::build("C2P1", inputs::params(Scale::C2, 0xC2), seed)],
            Workload::RouteC3Unconstrained => {
                vec![inputs::build("C3P1", inputs::params(Scale::C3, 0xC3), seed)]
            }
            Workload::ServeC1Q16 => (0..4u64)
                .map(|i| {
                    let design_seed = 0xC1 ^ i;
                    let name = format!("C1-{design_seed:x}");
                    inputs::build(&name, inputs::params(Scale::C1, design_seed), seed)
                })
                .collect(),
        }
    }
}

/// Span name of the session step that runs `stage`.
fn step_span(stage: SessionStage) -> &'static str {
    match stage {
        SessionStage::InitialRouting { .. } => "core.session.initial_routing",
        SessionStage::RecoverViolate => "core.session.recover_violate",
        SessionStage::ImproveDelay => "core.session.improve_delay",
        SessionStage::ImproveArea => "core.session.improve_area",
        SessionStage::Finished => "core.session.finished",
    }
}

/// Routes `design` start to finish through the public session API,
/// with a span around `start`, each whole-stage `step` and `finish`.
/// Returns the route, the probe and the wall-clock seconds of
/// `start`→`finish` (input copies excluded).
pub fn route<P: Probe>(
    config: &RouterConfig,
    design: &Design,
    probe: P,
    tracer: &mut Tracer,
    owner: Owner,
) -> Result<(Routed, P, f64), RouteError> {
    let (circuit, placement, constraints) = (
        design.circuit.clone(),
        design.placement.clone(),
        design.constraints.clone(),
    );
    let t = Instant::now();
    let mut session = tracer.span("core.session.start", owner, || {
        RouteSession::start(config.clone(), circuit, placement, constraints, probe)
    })?;
    while tracer.span(step_span(session.stage()), owner, || session.step(None))?
        == StepOutcome::Suspended
    {}
    let (routed, probe) = tracer.span("core.session.finish", owner, || session.finish())?;
    Ok((routed, probe, t.elapsed().as_secs_f64()))
}

/// FNV-1a over a selection log, the fingerprint every repetition of a
/// design must reproduce.
pub fn log_hash(log: &[(NetId, u32)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(net, edge) in log {
        for b in (net.index() as u64)
            .to_le_bytes()
            .into_iter()
            .chain(edge.to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Independent audit of a finished route; on success, its selection-log
/// hash.
pub fn check(config: &RouterConfig, design: &Design, routed: &Routed) -> Result<u64, String> {
    let report = audit(
        &routed.circuit,
        &routed.placement,
        &design.constraints,
        config,
        &routed.result,
    );
    if report.is_clean() {
        Ok(log_hash(&routed.result.stats.selection_log))
    } else {
        Err(format!("{}: audit failed: {report}", design.name))
    }
}

/// Table 2 quality after channel routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Worst constrained-path arrival over its limit.
    pub delay_ratio: f64,
    pub area_mm2: f64,
    pub length_mm: f64,
    pub violations: usize,
}

impl Quality {
    /// Quality of several designs routed in one operation: worst delay
    /// ratio, summed area, length and violations.
    pub fn merge(self, other: Quality) -> Quality {
        Quality {
            delay_ratio: self.delay_ratio.max(other.delay_ratio),
            area_mm2: self.area_mm2 + other.area_mm2,
            length_mm: self.length_mm + other.length_mm,
            violations: self.violations + other.violations,
        }
    }
}

/// Channel-routes a finished global route and measures it (the paper's
/// protocol, §5).
pub fn signoff(design: &Design, routed: &Routed) -> Result<Quality, String> {
    let detail = route_channels(
        &routed.circuit,
        &routed.placement,
        &routed.result,
        &design.constraints,
        DelayModel::Capacitance,
        WireParams::default(),
    )
    .map_err(|e| format!("{}: channel routing failed: {e}", design.name))?;
    Ok(Quality {
        delay_ratio: detail
            .timing
            .constraints
            .iter()
            .map(|c| c.arrival_ps / c.limit_ps)
            .fold(0.0, f64::max),
        area_mm2: detail.area_mm2,
        length_mm: detail.total_length_mm(),
        violations: detail.timing.violations(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("route_c1"), None);
    }

    #[test]
    fn config_ignores_the_environment_defaults() {
        for w in Workload::ALL {
            let c = w.config();
            assert_eq!((c.threads, c.shards, c.verify), (1, 4, VerifyLevel::Off));
            assert_eq!(c.use_constraints, w != Workload::RouteC3Unconstrained);
        }
    }
}
