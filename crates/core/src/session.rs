//! Resumable route sessions: the pipeline of
//! [`crate::GlobalRouter::route`] sliced at deterministic boundaries,
//! with full mid-run state captured in an [`EngineSnapshot`]
//! (DESIGN.md §13).
//!
//! # Why a snapshot is small
//!
//! The deletion engine is *memoryless between selections*: the
//! scoreboard is rebuilt from the current graph/density/timing state at
//! every `run_deletion` entry, the density map is a pure function of
//! the alive trunk edges, and tentative lengths / timing margins are
//! recomputed from the graphs. So the only mutable state a mid-run
//! checkpoint must carry is
//!
//! * the post-insertion circuit and post-widening placement (feed-cell
//!   insertion mutates both, once, before the first deletion),
//! * the feedthrough assignment and estimated branch lengths (inputs
//!   to the graph rebuild),
//! * each net's **alive-edge mask**,
//! * the pipeline position ([`SessionStage`]) and the cumulative
//!   observable counters (selection log, stats, emitted-event count).
//!
//! [`RouteSession::resume`] rebuilds graphs exactly as the original
//! `GraphBuild` pass did, applies the masks, and reconstructs density,
//! bridges, lengths and margins from scratch — by construction equal to
//! the incrementally maintained state of the uninterrupted run, which
//! is precisely the invariant the engine's own self-audit
//! (`Engine::audit_state`) asserts. Diagnostics (cache stamps, graph
//! generations, wall-clock spans, heap-pop counters) are *not*
//! restored; they are outside the deterministic-observable contract.
//!
//! # Resume ≡ uninterrupted
//!
//! [`Engine::continue_deletion`] threads a global selection offset
//! through the loop, so budget stops and step audits land at the same
//! global positions whether the loop ran in one piece or many. Phase
//! markers are emitted exactly once (entry to `InitialRouting` only at
//! offset 0; improvement phases run whole-phase per step). Hence the
//! concatenation of per-slice deterministic event streams is
//! byte-identical to the uninterrupted stream — the golden-trace
//! resume harness (`tests/session_resume.rs`) proves it.

use std::time::{Duration, Instant};

use bgr_layout::Placement;
use bgr_netlist::{Circuit, NetId};
use bgr_timing::{nets_by_ascending_slack, PathConstraint, Sta};

use crate::config::{OnViolation, RouterConfig, VerifyLevel};
use crate::diffpair::{is_homogeneous, PairMap};
use crate::engine::Engine;
use crate::error::RouteError;
use crate::feedcell::assign_with_insertion;
use crate::graph::{GraphScratch, RoutingGraph};
use crate::improve::{improve_area, improve_delay, recover_violate, PhaseLimits, PhaseOutcome};
use crate::probe::{Phase, Probe};
use crate::result::{NetTree, RouteStats, RoutingResult, TimingReport, ViolationReport};
use crate::router::Routed;

/// Version tag of [`EngineSnapshot`] (and its serialized checkpoint
/// form in `bgr-io`). Bump on any change to the captured state set.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Where a session stands in the routing pipeline. Checkpoint
/// boundaries are exactly the values of this enum: mid-deletion-loop
/// (with a global selection offset) or between phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStage {
    /// Inside the Fig. 2 deletion loop, `done` global selections in.
    /// `done == 0` also means the phase marker has not been emitted yet.
    InitialRouting {
        /// Global selections performed so far.
        done: u64,
    },
    /// §3.5 phase 1 (constraint-violation recovery) has not run yet.
    RecoverViolate,
    /// §3.5 phase 2 (delay improvement) has not run yet.
    ImproveDelay,
    /// §3.5 phase 3 (area improvement) has not run yet.
    ImproveArea,
    /// Every phase ran; [`RouteSession::finish`] will assemble the
    /// result.
    Finished,
}

impl SessionStage {
    /// Stable label (used by the checkpoint codec and session streams).
    pub fn label(&self) -> &'static str {
        match self {
            Self::InitialRouting { .. } => "initial_routing",
            Self::RecoverViolate => "recover_violate",
            Self::ImproveDelay => "improve_delay",
            Self::ImproveArea => "improve_area",
            Self::Finished => "finished",
        }
    }

    /// The inverse of [`SessionStage::label`], with `done == 0` for
    /// `initial_routing` (the label does not carry the count).
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "initial_routing" => Self::InitialRouting { done: 0 },
            "recover_violate" => Self::RecoverViolate,
            "improve_delay" => Self::ImproveDelay,
            "improve_area" => Self::ImproveArea,
            "finished" => Self::Finished,
            _ => return None,
        })
    }
}

/// Cumulative deterministic counters carried across suspensions —
/// the pieces of [`RouteStats`] that accumulate over the route plus the
/// one-shot setup stats. They live in [`Engine::stats`] while a session
/// runs. Wall-clock durations and strategy-dependent diagnostics are
/// deliberately absent (those belong to the probe).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotStats {
    /// Every `(net, edge)` selection so far, in order.
    pub selection_log: Vec<(NetId, u32)>,
    /// Edges deleted (selected + cascaded + pruned).
    pub deletions: usize,
    /// Nets ripped up and rerouted.
    pub reroutes: usize,
    /// Engine self-audits passed.
    pub audits_passed: u64,
    /// Comparisons across passed self-audits.
    pub audit_checks: u64,
    /// Feed cells inserted during setup (§4.3).
    pub feed_cells_inserted: usize,
    /// Chip widening in pitches during setup.
    pub widened_pitches: i32,
    /// Differential pairs routed in lockstep.
    pub diff_pairs_locked: usize,
    /// Differential pairs routed independently.
    pub diff_pairs_independent: usize,
}

/// The design a session routes: the circuit *after* feed-cell
/// insertion, the placement *after* widening, and the *requested*
/// constraints (evaluated by the final report even when
/// `config.use_constraints` is off).
///
/// Valid by construction: [`SessionDesign::new`] runs
/// [`Circuit::validate`] and [`Placement::validate`], and the only other
/// source is a session handing back the design it routes
/// ([`RouteSession::snapshot`], [`RouteSession::into_snapshot`]), which
/// [`RouteSession::start`] validated. So [`RouteSession::resume`] never
/// validates, and a serve job that keeps its design between slices
/// validates it once.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDesign {
    circuit: Circuit,
    placement: Placement,
    constraints: Vec<PathConstraint>,
}

impl SessionDesign {
    /// Validates a design: the circuit, then the placement against it.
    ///
    /// # Errors
    ///
    /// [`RouteError::Checkpoint`] naming the part that failed
    /// validation.
    pub fn new(
        circuit: Circuit,
        placement: Placement,
        constraints: Vec<PathConstraint>,
    ) -> Result<Self, RouteError> {
        circuit.validate().map_err(|e| RouteError::Checkpoint {
            message: format!("embedded circuit invalid: {e}"),
        })?;
        placement
            .validate(&circuit)
            .map_err(|e| RouteError::Checkpoint {
                message: format!("embedded placement invalid: {e}"),
            })?;
        Ok(Self {
            circuit,
            placement,
            constraints,
        })
    }

    /// The circuit, after feed-cell insertion.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The placement, after widening.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The requested constraints.
    pub fn constraints(&self) -> &[PathConstraint] {
        &self.constraints
    }

    /// Moves the circuit, placement and constraints out.
    pub fn into_parts(self) -> (Circuit, Placement, Vec<PathConstraint>) {
        (self.circuit, self.placement, self.constraints)
    }
}

/// The full serializable mid-run state of a route session.
///
/// Everything needed to continue the route in a fresh process:
/// resolved configuration, the (post-insertion) design, the graph
/// rebuild inputs, per-net alive masks, the pipeline position, and the
/// cumulative observable counters. Serialized to the versioned text
/// checkpoint format by `bgr_io::write_checkpoint` /
/// `bgr_io::parse_checkpoint`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The resolved router configuration the session runs under.
    pub config: RouterConfig,
    /// The post-insertion design, validated.
    pub design: SessionDesign,
    /// Per net: assigned `(row, x)` feedthrough points.
    pub feeds: Vec<Vec<(usize, i32)>>,
    /// Per channel: estimated branch (pin-tap) length in µm.
    pub branch_lens: Vec<f64>,
    /// Per net: the alive-edge mask of its routing graph.
    pub alive: Vec<Vec<bool>>,
    /// Pipeline position.
    pub stage: SessionStage,
    /// Cumulative observable counters.
    pub stats: SnapshotStats,
    /// Outcome of the recovery phase (feeds the violation report).
    pub recovery: PhaseOutcome,
    /// Deterministic events emitted so far (phase markers included) —
    /// the `seq` offset at which a resumed session's trace continues.
    pub events_emitted: u64,
}

/// What one [`RouteSession::step`] call concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More work remains: step again, or take a checkpoint via
    /// [`RouteSession::snapshot`].
    Suspended,
    /// Every phase ran; call [`RouteSession::finish`].
    Ready,
}

/// A route in progress: the pipeline of
/// [`crate::GlobalRouter::route_with_probe`] with explicit suspension
/// points. Drive it with [`RouteSession::step`] until
/// [`StepOutcome::Ready`], then [`RouteSession::finish`]; at any
/// suspension, [`RouteSession::snapshot`] captures the state and
/// [`RouteSession::resume`] continues it — in this process or another.
#[derive(Debug)]
pub struct RouteSession<P: Probe> {
    config: RouterConfig,
    circuit: Circuit,
    placement: Placement,
    constraints: Vec<PathConstraint>,
    feeds: Vec<Vec<(usize, i32)>>,
    branch_lens: Vec<f64>,
    /// The engine; its `stats` hold the cumulative counters.
    engine: Engine<P>,
    stage: SessionStage,
    recovery: PhaseOutcome,
    /// Events emitted before this session's probe existed.
    events_base: u64,
    t_start: Instant,
    initial_elapsed: Duration,
    improve_elapsed: Duration,
}

impl<P: Probe> RouteSession<P> {
    /// Validates the inputs and runs the setup pipeline — net ordering,
    /// feedthrough assignment with §4.3 insertion, two-pass graph
    /// build, STA construction, differential-pair lockstep detection —
    /// leaving the session suspended at the start of initial routing.
    ///
    /// Emits exactly the `FeedAssign` / `GraphBuild` phase events of
    /// the monolithic route.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::GlobalRouter::route`] setup:
    /// validation, unreachable constraints, disconnected nets.
    pub fn start(
        config: RouterConfig,
        mut circuit: Circuit,
        mut placement: Placement,
        constraints: Vec<PathConstraint>,
        mut probe: P,
    ) -> Result<Self, RouteError> {
        let t_start = Instant::now();
        circuit.validate()?;
        placement.validate(&circuit)?;

        // §3.1: net ordering by ascending static slack (netlist order
        // when routing unconstrained or when the A6 ablation disables it).
        let order: Vec<NetId> = if config.use_constraints && config.slack_ordering {
            nets_by_ascending_slack(&circuit, &constraints)?
        } else {
            circuit.net_ids().collect()
        };

        // Fig. 2 line 01: feedthrough assignment with §4.3 insertion.
        probe.phase_enter(Phase::FeedAssign);
        let pairs = PairMap::build(&circuit);
        let plan =
            assign_with_insertion(&mut circuit, &mut placement, &order, &pairs, 8, &mut probe)?;
        probe.phase_exit(Phase::FeedAssign);
        // Insertion keeps the design valid; snapshots hand it out as a
        // `SessionDesign` without validating it again.
        debug_assert!(
            circuit.validate().is_ok() && placement.validate(&circuit).is_ok(),
            "feed-cell insertion broke the design"
        );
        probe.phase_enter(Phase::GraphBuild);

        // Fig. 2 line 02: routing graphs — two passes. The first pass uses
        // the nominal branch length and only serves to estimate each
        // channel's final density (full graphs hold both channel options,
        // roughly double the routed density); the second pass charges
        // each pin tap half the *expected* channel height so delay
        // estimates track what the channel router will realize.
        let nominal = vec![config.branch_length_um; placement.num_channels()];
        let mut scratch = GraphScratch::default();
        let est_graphs: Vec<RoutingGraph> = circuit
            .net_ids()
            .map(|n| {
                // Only a tentative tree is read off these graphs, never
                // their bridge flags.
                RoutingGraph::build_unbridged(
                    &circuit,
                    &placement,
                    n,
                    &plan.feeds[n.index()],
                    &nominal,
                    &mut scratch,
                )
            })
            .collect();
        let mut est = crate::density::DensityMap::new(
            placement.num_channels(),
            placement.width_pitches().max(1) as usize,
        );
        for g in &est_graphs {
            if !g.terminals_connected_in(&mut scratch) {
                continue; // reported as an error after the real build
            }
            // The tentative tree picks one channel per span, like the
            // final route will: its density is a realistic track estimate.
            let tree = crate::tentative::tentative_tree(g, None)
                .expect("connected probe graph has a tentative tree");
            for e in tree.edges {
                let edge = &g.edges()[e as usize];
                if let crate::graph::REdgeKind::Trunk { channel } = edge.kind {
                    est.add_span(channel, edge.x1, edge.x2, g.width() as i32, false);
                }
            }
        }
        let tp = placement.geometry().track_pitch_um;
        let branch_lens: Vec<f64> = est
            .channel_maxima()
            .iter()
            .map(|&tracks| (tracks as f64 / 2.0 * tp).max(config.branch_length_um))
            .collect();
        drop(est_graphs);

        // Fig. 2 lines 02–03: the routing graphs, §4.1 lockstep partners
        // and the delay constraint graphs.
        let mut engine = assemble_engine(
            &config,
            &circuit,
            &placement,
            &constraints,
            &plan.feeds,
            &branch_lens,
            None,
            probe,
        )?;
        engine.probe_mut().phase_exit(Phase::GraphBuild);
        engine.stats.feed_cells_inserted = plan.inserted_cells;
        engine.stats.widened_pitches = plan.widened;

        Ok(Self {
            config,
            circuit,
            placement,
            constraints,
            feeds: plan.feeds,
            branch_lens,
            engine,
            stage: SessionStage::InitialRouting { done: 0 },
            recovery: PhaseOutcome::default(),
            events_base: 0,
            t_start,
            initial_elapsed: Duration::ZERO,
            improve_elapsed: Duration::ZERO,
        })
    }

    /// Restores a session from a snapshot, continuing exactly where it
    /// left off.
    ///
    /// Graphs are rebuilt from the embedded design through the same
    /// constructor as the original `GraphBuild` pass, lockstep partners
    /// re-verified on the *fresh* graphs (homogeneity is a structural
    /// property, independent of deletions), the checkpointed alive
    /// masks applied, and the engine reconstructed — density, bridges,
    /// lengths and margins all recomputed from the masks, which equals
    /// the incrementally maintained state of the uninterrupted run (see
    /// the [module docs](self)).
    ///
    /// `probe` starts empty; the snapshot's `events_emitted` is the
    /// `seq` offset at which its events continue the original stream.
    ///
    /// The design is not validated again: a [`SessionDesign`] is valid
    /// by construction.
    ///
    /// # Errors
    ///
    /// [`RouteError::Checkpoint`] for any inconsistency — version
    /// skew, mask/feed/branch tables not matching the embedded design,
    /// a negative or non-finite branch length, a routing graph of 2⁴² µm
    /// or more, an alive set that disconnects a net. Never panics on bad
    /// input.
    pub fn resume(snapshot: EngineSnapshot, probe: P) -> Result<Self, RouteError> {
        fn bad(message: String) -> RouteError {
            RouteError::Checkpoint { message }
        }
        let EngineSnapshot {
            version,
            config,
            design,
            feeds,
            branch_lens,
            alive,
            stage,
            stats,
            recovery,
            events_emitted,
        } = snapshot;
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "snapshot version {version} unsupported (this build reads v{SNAPSHOT_VERSION})"
            )));
        }
        let (circuit, placement, constraints) = design.into_parts();
        let nets = circuit.nets().len();
        if feeds.len() != nets {
            return Err(bad(format!(
                "feed table covers {} nets, circuit has {nets}",
                feeds.len()
            )));
        }
        if alive.len() != nets {
            return Err(bad(format!(
                "alive masks cover {} nets, circuit has {nets}",
                alive.len()
            )));
        }
        if branch_lens.len() != placement.num_channels() {
            return Err(bad(format!(
                "branch lengths cover {} channels, placement has {}",
                branch_lens.len(),
                placement.num_channels()
            )));
        }
        if let Some(c) = branch_lens.iter().position(|l| !l.is_finite() || *l < 0.0) {
            return Err(bad(format!(
                "branch length of channel {c} is {} um, not a finite non-negative length",
                branch_lens[c]
            )));
        }
        let mut engine = assemble_engine(
            &config,
            &circuit,
            &placement,
            &constraints,
            &feeds,
            &branch_lens,
            Some(&alive),
            probe,
        )
        .map_err(|e| match e {
            RouteError::DisconnectedNet(n) => bad(format!(
                "rebuilt routing graph of net {} is disconnected \
                 (feed assignment does not fit the embedded design)",
                n.index()
            )),
            e @ RouteError::GraphTooLong(_) => bad(e.to_string()),
            e => e,
        })?;
        engine.stats = stats;
        Ok(Self {
            config,
            circuit,
            placement,
            constraints,
            feeds,
            branch_lens,
            engine,
            stage,
            recovery,
            events_base: events_emitted,
            t_start: Instant::now(),
            initial_elapsed: Duration::ZERO,
            improve_elapsed: Duration::ZERO,
        })
    }

    /// The session's pipeline position.
    pub fn stage(&self) -> SessionStage {
        self.stage
    }

    /// The resolved configuration the session runs under.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Deterministic events emitted across the session's whole history
    /// (checkpointed slices included).
    pub fn events_emitted(&self) -> u64 {
        self.events_base + self.engine.probe().events_len() as u64
    }

    /// Global selections performed across the session's whole history.
    pub fn selections_done(&self) -> u64 {
        self.engine.stats.selection_log.len() as u64
    }

    /// Per-phase limits, deadline re-anchored at this session's start
    /// (the wall-clock deadline is explicitly outside the deterministic
    /// contract — DESIGN.md §11).
    fn limits(&self) -> PhaseLimits {
        PhaseLimits {
            max_reroutes: self.config.budgets.phase_reroutes,
            deadline: self.config.deadline.map(|d| self.t_start + d),
        }
    }

    /// Advances the pipeline by one unit of work: a slice of up to
    /// `quota` deletion-loop selections (at least one; `None` runs the
    /// loop to its end or the configured budget), or one whole
    /// improvement phase. Returns [`StepOutcome::Ready`] once every
    /// phase ran.
    ///
    /// # Errors
    ///
    /// Currently none of the stepped phases error; the `Result` keeps
    /// the boundary uniform with [`RouteSession::start`] /
    /// [`RouteSession::finish`].
    pub fn step(&mut self, quota: Option<u64>) -> Result<StepOutcome, RouteError> {
        match self.stage {
            SessionStage::InitialRouting { done } => {
                // A quota of 0 still advances one selection: `done == 0`
                // doubles as "phase marker not yet emitted", so every
                // suspension must make progress.
                let quota = quota.map(|q| q.max(1));
                let budget = self.config.budgets.deletion_steps;
                let stop = match (budget, quota.map(|q| done + q)) {
                    (Some(b), Some(q)) => Some(b.min(q)),
                    (Some(b), None) => Some(b),
                    (None, q) => q,
                };
                let t0 = Instant::now();
                if done == 0 {
                    self.engine.probe_mut().phase_enter(Phase::InitialRouting);
                }
                let run =
                    self.engine
                        .continue_deletion(None, self.config.criteria_order, done, stop);
                let done = done + run.selections;
                let budget_hit = !run.complete && budget.is_some_and(|b| done >= b);
                if run.complete || budget_hit {
                    // Phase over. On budget exhaustion, the deterministic
                    // fallback completion path still ends in trees.
                    if budget_hit {
                        self.engine.fallback_complete(None, budget.unwrap_or(0));
                    }
                    self.engine.probe_mut().phase_exit(Phase::InitialRouting);
                    self.initial_elapsed += t0.elapsed();
                    debug_assert!(
                        self.engine.probe().corrupting() || self.engine.all_trees(),
                        "initial routing must reach trees"
                    );
                    if self.config.verify.at_phases() {
                        self.engine.audit_phase(Phase::InitialRouting);
                    }
                    self.stage = if self.config.use_constraints {
                        SessionStage::RecoverViolate
                    } else {
                        SessionStage::ImproveArea
                    };
                } else {
                    // Quota stop mid-loop: suspended inside the phase.
                    self.initial_elapsed += t0.elapsed();
                    self.stage = SessionStage::InitialRouting { done };
                }
                Ok(StepOutcome::Suspended)
            }
            SessionStage::RecoverViolate => {
                let t1 = Instant::now();
                let limits = self.limits();
                self.engine.probe_mut().phase_enter(Phase::RecoverViolate);
                self.recovery = recover_violate(
                    &mut self.engine,
                    self.config.recover_passes,
                    self.config.criteria_order,
                    &limits,
                );
                self.engine.probe_mut().phase_exit(Phase::RecoverViolate);
                if self.config.verify.at_phases() {
                    self.engine.audit_phase(Phase::RecoverViolate);
                }
                self.improve_elapsed += t1.elapsed();
                self.stage = SessionStage::ImproveDelay;
                Ok(StepOutcome::Suspended)
            }
            SessionStage::ImproveDelay => {
                let t1 = Instant::now();
                let limits = self.limits();
                self.engine.probe_mut().phase_enter(Phase::ImproveDelay);
                improve_delay(
                    &mut self.engine,
                    self.config.delay_passes,
                    self.config.criteria_order,
                    &limits,
                );
                self.engine.probe_mut().phase_exit(Phase::ImproveDelay);
                if self.config.verify.at_phases() {
                    self.engine.audit_phase(Phase::ImproveDelay);
                }
                self.improve_elapsed += t1.elapsed();
                self.stage = SessionStage::ImproveArea;
                Ok(StepOutcome::Suspended)
            }
            SessionStage::ImproveArea => {
                let t1 = Instant::now();
                let limits = self.limits();
                self.engine.probe_mut().phase_enter(Phase::ImproveArea);
                improve_area(&mut self.engine, self.config.area_passes, &limits);
                self.engine.probe_mut().phase_exit(Phase::ImproveArea);
                self.improve_elapsed += t1.elapsed();
                debug_assert!(
                    self.engine.probe().corrupting() || self.engine.all_trees(),
                    "improvement must preserve trees"
                );
                // `Final` audits once, silently (no trace event, so the
                // deterministic stream is identical to an unverified
                // run); `Phases`/`Steps` emit their last phase-boundary
                // event here.
                match self.config.verify {
                    VerifyLevel::Off => {}
                    VerifyLevel::Final => {
                        self.engine.audit_silent();
                    }
                    VerifyLevel::Phases | VerifyLevel::Steps(_) => {
                        self.engine.audit_phase(Phase::ImproveArea);
                    }
                }
                self.stage = SessionStage::Finished;
                Ok(StepOutcome::Ready)
            }
            SessionStage::Finished => Ok(StepOutcome::Ready),
        }
    }

    /// Captures the full session state (see [`EngineSnapshot`]). Valid
    /// at any suspension point; cheap — clones the design and the
    /// alive masks, nothing derived.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            design: SessionDesign {
                circuit: self.circuit.clone(),
                placement: self.placement.clone(),
                constraints: self.constraints.clone(),
            },
            feeds: self.feeds.clone(),
            branch_lens: self.branch_lens.clone(),
            alive: self
                .engine
                .graphs()
                .iter()
                .map(|g| g.alive_mask())
                .collect(),
            stage: self.stage,
            stats: self.engine.stats.clone(),
            recovery: self.recovery,
            events_emitted: self.events_emitted(),
        }
    }

    /// [`RouteSession::snapshot`] that consumes the session: the design,
    /// configuration, counters and alive masks move into the snapshot
    /// instead of being cloned. Also returns the probe, like
    /// [`RouteSession::into_probe`].
    pub fn into_snapshot(self) -> (EngineSnapshot, P) {
        let events_emitted = self.events_emitted();
        let mut engine = self.engine;
        let stats = std::mem::take(&mut engine.stats);
        let (graphs, _, _, probe) = engine.into_parts();
        let alive = graphs.into_iter().map(RoutingGraph::into_alive).collect();
        let snapshot = EngineSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config,
            design: SessionDesign {
                circuit: self.circuit,
                placement: self.placement,
                constraints: self.constraints,
            },
            feeds: self.feeds,
            branch_lens: self.branch_lens,
            alive,
            stage: self.stage,
            stats,
            recovery: self.recovery,
            events_emitted,
        };
        (snapshot, probe)
    }

    /// Consumes the session, returning the probe — the per-slice trace
    /// extraction path after a checkpoint was taken.
    pub fn into_probe(self) -> P {
        self.engine.into_parts().3
    }

    /// Assembles the final result: violation policy, cumulative stats,
    /// trees, lengths and the timing report against the *requested*
    /// constraints. Identical to the tail of the monolithic route.
    ///
    /// # Panics
    ///
    /// Panics if called before [`RouteSession::step`] returned
    /// [`StepOutcome::Ready`].
    ///
    /// # Errors
    ///
    /// [`RouteError::ConstraintsUnsatisfied`] under
    /// [`OnViolation::Fail`] with residual violations.
    pub fn finish(self) -> Result<(Routed, P), RouteError> {
        assert!(
            matches!(self.stage, SessionStage::Finished),
            "RouteSession::finish before every phase ran (stage {})",
            self.stage.label()
        );
        // §3.5 degradation: residual violations after recovery become a
        // structured report — fatal under `OnViolation::Fail`, attached
        // to the result under `BestEffort` (DESIGN.md §11). Only checked
        // when constraints actually drove the routing.
        let violations = if self.config.use_constraints && self.engine.sta().worst_margin_ps() < 0.0
        {
            Some(ViolationReport::from_sta(
                self.engine.sta(),
                self.recovery.reroutes,
                self.recovery.passes,
            ))
        } else {
            None
        };
        if let Some(report) = &violations {
            if self.config.on_violation == OnViolation::Fail {
                return Err(RouteError::ConstraintsUnsatisfied(report.clone()));
            }
        }

        let mut engine = self.engine;
        let SnapshotStats {
            selection_log,
            deletions,
            reroutes,
            audits_passed,
            audit_checks,
            feed_cells_inserted,
            widened_pitches,
            diff_pairs_locked,
            diff_pairs_independent,
        } = std::mem::take(&mut engine.stats);
        let stats = RouteStats {
            deletions,
            reroutes,
            feed_cells_inserted,
            widened_pitches,
            diff_pairs_locked,
            diff_pairs_independent,
            selection_log,
            audits_passed,
            audit_checks,
            initial_routing: self.initial_elapsed,
            improvement: self.improve_elapsed,
            total: self.t_start.elapsed(),
        };
        let (graphs, density, _sta, probe) = engine.into_parts();

        let trees: Vec<NetTree> = graphs.iter().map(NetTree::from_graph).collect();
        let net_lengths_um: Vec<f64> = graphs.iter().map(|g| g.alive_length_um()).collect();
        let total_length_um = net_lengths_um.iter().sum();
        // The report always evaluates the *requested* constraints.
        let timing = TimingReport::evaluate(
            &self.circuit,
            &self.constraints,
            self.config.delay_model,
            self.config.wire,
            &net_lengths_um,
        )?;
        let result = RoutingResult {
            trees,
            channel_tracks: density.channel_maxima(),
            net_lengths_um,
            total_length_um,
            timing,
            violations,
            stats,
        };
        Ok((
            Routed {
                circuit: self.circuit,
                placement: self.placement,
                result,
            },
            probe,
        ))
    }
}

/// The setup steps [`RouteSession::start`] and [`RouteSession::resume`]
/// share: per-net routing graphs built from the feed assignment and
/// branch lengths, the `alive` masks of a resumed session applied,
/// lockstep partners for homogeneous differential pairs (§4.1) decided
/// on the graphs' structure — homogeneity is independent of the alive
/// set — the timing analyzer built, and the engine set up
/// under the configured strategy and verify level. The
/// lockstep counts land in the engine's stats.
///
/// Each graph is settled once ([`RoutingGraph::settle`]): a routed tree
/// — at a resume, most nets — is proved a prune-closed tree spanning its
/// terminals by one walk, which is also its connectivity check and its
/// bridge pass; any other graph is pruned and bridged, then checked for
/// connectivity on its alive set. The masked graph is a subgraph of the
/// fresh one, so when it connects its terminals both do, and only a
/// failing net has its fresh graph tested too, to tell the two errors
/// apart. One [`GraphScratch`] serves every build and walk.
///
/// # Errors
///
/// [`RouteError::DisconnectedNet`] for the first fresh graph that does
/// not connect its terminals and [`RouteError::GraphTooLong`] for the
/// first whose total edge length reaches 2⁴² µm (each caller reports
/// them its own way),
/// [`RouteError::Checkpoint`] for an alive mask that does not fit its
/// graph or disconnects it, and analyzer construction errors.
#[allow(clippy::too_many_arguments)]
fn assemble_engine<P: Probe>(
    config: &RouterConfig,
    circuit: &Circuit,
    placement: &Placement,
    constraints: &[PathConstraint],
    feeds: &[Vec<(usize, i32)>],
    branch_lens: &[f64],
    alive: Option<&[Vec<bool>]>,
    probe: P,
) -> Result<Engine<P>, RouteError> {
    let mut scratch = GraphScratch::default();
    let alive = alive.unwrap_or_default();
    let mut graphs: Vec<RoutingGraph> = circuit
        .net_ids()
        .map(|n| {
            let mut g = RoutingGraph::build_unbridged(
                circuit,
                placement,
                n,
                &feeds[n.index()],
                branch_lens,
                &mut scratch,
            );
            if let Some(mask) = alive.get(n.index()).filter(|m| m.len() == g.edges().len()) {
                g.load_alive(Some(mask));
            }
            g
        })
        .collect();
    let trees: Vec<bool> = graphs.iter_mut().map(|g| g.settle(&mut scratch)).collect();
    let connected: Vec<bool> = graphs
        .iter()
        .zip(&trees)
        .map(|(g, &tree)| tree || g.terminals_connected_in(&mut scratch))
        .collect();
    if let Some(i) =
        (0..graphs.len()).position(|i| !connected[i] && !graphs[i].terminals_connectable())
    {
        return Err(RouteError::DisconnectedNet(NetId::new(i)));
    }
    if let Some(i) = graphs.iter().position(|g| !g.within_length_cap()) {
        return Err(RouteError::GraphTooLong(NetId::new(i)));
    }
    let mut partner = vec![None; graphs.len()];
    let mut locked = 0;
    if config.pair_differential {
        for &(a, b) in circuit.diff_pairs() {
            if is_homogeneous(&graphs[a.index()], &graphs[b.index()]) {
                partner[a.index()] = Some(b);
                partner[b.index()] = Some(a);
                locked += 1;
            }
        }
    }
    for (i, mask) in alive.iter().enumerate() {
        let bad = |message| RouteError::Checkpoint { message };
        if mask.len() != graphs[i].edges().len() {
            return Err(bad(format!(
                "alive mask of net {i} has {} bits, rebuilt graph has {} edges",
                mask.len(),
                graphs[i].edges().len()
            )));
        }
        if !connected[i] {
            return Err(bad(format!(
                "alive set of net {i} disconnects its terminals"
            )));
        }
    }
    let routing_constraints = if config.use_constraints {
        constraints.to_vec()
    } else {
        Vec::new()
    };
    let sta = Sta::new(
        circuit,
        routing_constraints,
        config.delay_model,
        config.wire,
    )?;
    let mut engine = Engine::from_settled(
        graphs,
        sta,
        partner,
        placement.num_channels(),
        placement.width_pitches().max(1) as usize,
        probe,
    );
    engine.set_selection(config.selection);
    engine.set_verify(config.verify);
    engine.stats.diff_pairs_locked = locked;
    engine.stats.diff_pairs_independent = circuit.diff_pairs().len() - locked;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::CollectingProbe;
    use crate::router::GlobalRouter;
    use bgr_layout::{Geometry, PlacementBuilder};
    use bgr_netlist::{CellId, CellLibrary, CircuitBuilder};

    #[test]
    fn stage_labels_invert() {
        for stage in [
            SessionStage::InitialRouting { done: 0 },
            SessionStage::RecoverViolate,
            SessionStage::ImproveDelay,
            SessionStage::ImproveArea,
            SessionStage::Finished,
        ] {
            assert_eq!(SessionStage::from_label(stage.label()), Some(stage));
        }
        for junk in ["setup", "initial_routing 3", "improvize_delay", ""] {
            assert_eq!(SessionStage::from_label(junk), None, "{junk:?}");
        }
    }

    /// The router test fixture: 2 rows, 6 nets, 2 constraints.
    fn testcase() -> (Circuit, Placement, Vec<PathConstraint>) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let nor2 = lib.kind_by_name("NOR2").unwrap();
        let feed = lib.kind_by_name("FEED1").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let b = cb.add_input_pad("b");
        let y = cb.add_output_pad("y");
        let u0 = cb.add_cell("u0", inv);
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", nor2);
        let u3 = cb.add_cell("u3", inv);
        let _f0 = cb.add_cell("f0", feed);
        let _f1 = cb.add_cell("f1", feed);
        cb.add_net("na", cb.pad_term(a), [cb.cell_term(u0, "A").unwrap()])
            .unwrap();
        cb.add_net("nb", cb.pad_term(b), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        cb.add_net(
            "n0",
            cb.cell_term(u0, "Y").unwrap(),
            [cb.cell_term(u2, "A").unwrap()],
        )
        .unwrap();
        cb.add_net(
            "n1",
            cb.cell_term(u1, "Y").unwrap(),
            [cb.cell_term(u2, "B").unwrap()],
        )
        .unwrap();
        cb.add_net(
            "n2",
            cb.cell_term(u2, "Y").unwrap(),
            [cb.cell_term(u3, "A").unwrap()],
        )
        .unwrap();
        cb.add_net("ny", cb.cell_term(u3, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        let cons = vec![
            PathConstraint::new("a2y", cb.pad_term(a), cb.pad_term(y), 600.0),
            PathConstraint::new("b2y", cb.pad_term(b), cb.pad_term(y), 600.0),
        ];
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 2);
        pb.append_with_width(0, CellId::new(0), 3);
        pb.append_with_width(0, CellId::new(1), 3);
        pb.append_with_width(0, CellId::new(4), 1);
        pb.append_with_width(1, CellId::new(2), 4);
        pb.append_with_width(1, CellId::new(3), 3);
        pb.append_with_width(1, CellId::new(5), 1);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_bottom(b, 4);
        pb.place_pad_top(y, 6);
        let placement = pb.finish(&circuit).unwrap();
        (circuit, placement, cons)
    }

    #[test]
    fn stepped_session_matches_monolithic_route() {
        let (circuit, placement, cons) = testcase();
        let config = RouterConfig::default();
        let (mono, mono_trace) = GlobalRouter::new(config.clone())
            .route_traced(circuit.clone(), placement.clone(), cons.clone())
            .unwrap();
        let mut session =
            RouteSession::start(config, circuit, placement, cons, CollectingProbe::new()).unwrap();
        let mut steps = 0;
        while session.step(Some(1)).unwrap() == StepOutcome::Suspended {
            steps += 1;
            assert!(steps < 10_000, "session failed to converge");
        }
        let (routed, probe) = session.finish().unwrap();
        assert_eq!(routed.result.trees, mono.result.trees);
        assert_eq!(
            routed.result.stats.selection_log,
            mono.result.stats.selection_log
        );
        assert_eq!(probe.finish().events, mono_trace.events);
    }

    /// `stats` without its three wall-clock durations.
    fn deterministic(stats: &RouteStats) -> RouteStats {
        RouteStats {
            initial_routing: Duration::ZERO,
            improvement: Duration::ZERO,
            total: Duration::ZERO,
            ..stats.clone()
        }
    }

    #[test]
    fn snapshot_resume_at_every_boundary_is_equivalent() {
        let (circuit, placement, cons) = testcase();
        // Phase audits make the audit counters non-zero, so their
        // carry across checkpoints is checked too.
        let config = RouterConfig {
            verify: VerifyLevel::Phases,
            ..RouterConfig::default()
        };
        let mono = GlobalRouter::new(config.clone())
            .route(circuit.clone(), placement.clone(), cons.clone())
            .unwrap();
        let mut session =
            RouteSession::start(config, circuit, placement, cons, CollectingProbe::new()).unwrap();
        let mut hops = 0;
        loop {
            if session.step(Some(2)).unwrap() == StepOutcome::Ready {
                break;
            }
            // Round-trip through the snapshot at every suspension.
            let snap = session.snapshot();
            session = RouteSession::resume(snap, CollectingProbe::new()).unwrap();
            hops += 1;
            assert!(hops < 10_000, "session failed to converge");
        }
        assert!(hops > 1, "test must exercise at least two resumes");
        let (routed, _) = session.finish().unwrap();
        assert_eq!(routed.result.trees, mono.result.trees);
        assert!(mono.result.stats.audits_passed > 0);
        assert_eq!(
            deterministic(&routed.result.stats),
            deterministic(&mono.result.stats)
        );
        assert_eq!(routed.result.channel_tracks, mono.result.channel_tracks);
    }

    #[test]
    fn resume_rejects_version_skew_and_bad_masks() {
        let (circuit, placement, cons) = testcase();
        let session = RouteSession::start(
            RouterConfig::default(),
            circuit,
            placement,
            cons,
            CollectingProbe::new(),
        )
        .unwrap();
        let snap = session.snapshot();

        let mut skewed = snap.clone();
        skewed.version = SNAPSHOT_VERSION + 1;
        let err = RouteSession::resume(skewed, CollectingProbe::new()).unwrap_err();
        assert!(matches!(err, RouteError::Checkpoint { .. }), "{err}");

        let mut short = snap.clone();
        short.alive.pop();
        let err = RouteSession::resume(short, CollectingProbe::new()).unwrap_err();
        assert!(matches!(err, RouteError::Checkpoint { .. }), "{err}");

        let mut wrong_len = snap.clone();
        wrong_len.alive[0].pop();
        let err = RouteSession::resume(wrong_len, CollectingProbe::new()).unwrap_err();
        assert!(matches!(err, RouteError::Checkpoint { .. }), "{err}");

        // Kill every edge of net 0: the alive set no longer connects it.
        let mut dead = snap;
        for b in dead.alive[0].iter_mut() {
            *b = false;
        }
        let err = RouteSession::resume(dead, CollectingProbe::new()).unwrap_err();
        assert!(matches!(err, RouteError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn budgeted_session_emits_fallback_at_the_same_point() {
        let (circuit, placement, cons) = testcase();
        let config = RouterConfig {
            budgets: crate::config::Budgets {
                deletion_steps: Some(2),
                phase_reroutes: None,
            },
            ..RouterConfig::default()
        };
        let (mono, mono_trace) = GlobalRouter::new(config.clone())
            .route_traced(circuit.clone(), placement.clone(), cons.clone())
            .unwrap();
        let mut session =
            RouteSession::start(config, circuit, placement, cons, CollectingProbe::new()).unwrap();
        while session.step(Some(1)).unwrap() == StepOutcome::Suspended {}
        let (routed, probe) = session.finish().unwrap();
        assert_eq!(routed.result.trees, mono.result.trees);
        assert_eq!(probe.finish().events, mono_trace.events);
    }
}
