//! Routing results: net trees, density profile, timing report, stats.

use bgr_layout::ChannelId;
use bgr_netlist::{Circuit, NetId, TermId};
use bgr_timing::{DelayModel, PathConstraint, Sta, TimingError, WireParams};

use crate::graph::{REdgeKind, RVertKind, RoutingGraph};
use crate::tentative::ShortestPaths;

/// One wiring piece of a routed net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// Horizontal channel wiring over `[x1, x2]`.
    Trunk {
        /// Channel.
        channel: ChannelId,
        /// Left end (pitches).
        x1: i32,
        /// Right end (pitches).
        x2: i32,
    },
    /// Vertical pin tap at `x` in `channel`.
    Branch {
        /// Channel.
        channel: ChannelId,
        /// Column (pitches).
        x: i32,
        /// The tapped terminal.
        term: TermId,
    },
    /// Row crossing at `x` through `row`.
    Feed {
        /// Crossed row.
        row: u32,
        /// Column (pitches).
        x: i32,
    },
}

/// The routed tree of one net.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetTree {
    /// Wiring pieces.
    pub segments: Vec<Segment>,
    /// Total length in µm.
    pub length_um: f64,
    /// Wire width in pitches.
    pub width_pitches: u32,
    /// Driver-to-terminal wire distances (µm), driver first with 0.
    pub terminal_dists_um: Vec<(TermId, f64)>,
}

impl NetTree {
    /// Extracts the tree from a routed (tree-state) graph.
    pub fn from_graph(graph: &RoutingGraph) -> Self {
        let mut segments = Vec::new();
        let mut feeds_seen: Vec<(u32, i32)> = Vec::new();
        for e in graph.alive_edges() {
            let edge = &graph.edges()[e as usize];
            match edge.kind {
                REdgeKind::Trunk { channel } => segments.push(Segment::Trunk {
                    channel,
                    x1: edge.x1,
                    x2: edge.x2,
                }),
                REdgeKind::Branch { channel } => {
                    let term = [edge.a, edge.b]
                        .into_iter()
                        .find_map(|v| match graph.verts()[v as usize].kind {
                            RVertKind::Terminal(t) | RVertKind::TermTap { term: t, .. } => Some(t),
                            _ => None,
                        })
                        .expect("branch edges touch a terminal");
                    segments.push(Segment::Branch {
                        channel,
                        x: edge.x1,
                        term,
                    });
                }
                REdgeKind::FeedHalf { row } => {
                    if !feeds_seen.contains(&(row, edge.x1)) {
                        feeds_seen.push((row, edge.x1));
                        segments.push(Segment::Feed { row, x: edge.x1 });
                    }
                }
            }
        }
        // On a routed tree the unique path lengths that determine
        // per-sink delay and skew (§4.2); `∞` for an unreachable terminal.
        let dist = ShortestPaths::search(graph, None).dist;
        Self {
            segments,
            length_um: graph.alive_length_um(),
            width_pitches: graph.width(),
            terminal_dists_um: graph
                .terminal_verts()
                .iter()
                .filter_map(|&t| match graph.verts()[t as usize].kind {
                    RVertKind::Terminal(term) => Some((term, dist[t as usize])),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Wire-length skew across the net's sinks: `max − min` of the
    /// driver-to-sink distances, in µm (0 for single-sink nets). The
    /// spread that §4.2's multi-pitch clock wires exist to keep from
    /// turning into delay skew.
    pub fn length_skew_um(&self) -> f64 {
        let sinks: Vec<f64> = self
            .terminal_dists_um
            .iter()
            .filter(|&&(_, d)| d > 0.0)
            .map(|&(_, d)| d)
            .collect();
        if sinks.len() < 2 {
            return 0.0;
        }
        let max = sinks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = sinks.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }

    /// Trunk spans of this tree within `channel`, as `(x1, x2, width)`.
    pub fn trunks_in_channel(&self, channel: ChannelId) -> Vec<(i32, i32, u32)> {
        self.segments
            .iter()
            .filter_map(|s| match *s {
                Segment::Trunk { channel: c, x1, x2 } if c == channel => {
                    Some((x1, x2, self.width_pitches))
                }
                _ => None,
            })
            .collect()
    }
}

/// Timing of one constraint in the final layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintTiming {
    /// Constraint name.
    pub name: String,
    /// Limit `τ_P` in ps.
    pub limit_ps: f64,
    /// Critical path arrival in ps.
    pub arrival_ps: f64,
    /// Margin `M(P)` in ps.
    pub margin_ps: f64,
}

/// Timing evaluation of a finished layout against a constraint set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingReport {
    /// Per-constraint results.
    pub constraints: Vec<ConstraintTiming>,
}

impl TimingReport {
    /// Evaluates `constraints` on a circuit whose nets have the given
    /// routed lengths (µm, indexed by net).
    ///
    /// # Errors
    ///
    /// Propagates constraint-graph construction failures.
    pub fn evaluate(
        circuit: &Circuit,
        constraints: &[PathConstraint],
        model: DelayModel,
        wire: WireParams,
        lengths_um: &[f64],
    ) -> Result<Self, TimingError> {
        let mut sta = Sta::new(circuit, constraints.to_vec(), model, wire)?;
        for (i, &len) in lengths_um.iter().enumerate() {
            sta.set_net_length(NetId::new(i), len);
        }
        let constraints = (0..sta.num_constraints())
            .map(|cid| ConstraintTiming {
                name: sta.constraint(cid).constraint().name.clone(),
                limit_ps: sta.constraint(cid).constraint().limit_ps,
                arrival_ps: sta.arrival_ps(cid),
                margin_ps: sta.margin_ps(cid),
            })
            .collect();
        Ok(Self { constraints })
    }

    /// The largest arrival over all constraints (the paper's reported
    /// "Delay"), or 0 with no constraints.
    pub fn max_arrival_ps(&self) -> f64 {
        self.constraints
            .iter()
            .map(|c| c.arrival_ps)
            .fold(0.0, f64::max)
    }

    /// The worst margin, or `+∞` with no constraints.
    pub fn worst_margin_ps(&self) -> f64 {
        self.constraints
            .iter()
            .map(|c| c.margin_ps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of violated constraints.
    pub fn violations(&self) -> usize {
        self.constraints
            .iter()
            .filter(|c| c.margin_ps < 0.0)
            .count()
    }
}

/// Residual state of one violated constraint after recovery gave up.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationEntry {
    /// Constraint name.
    pub name: String,
    /// Limit `τ_P` in ps.
    pub limit_ps: f64,
    /// Critical-path arrival in ps.
    pub arrival_ps: f64,
    /// Residual violation in ps (`arrival − limit`, always > 0 here).
    pub violation_ps: f64,
    /// Nets on the constraint's residual critical path, the set a later
    /// pass (or a human) would attack first.
    pub critical_nets: Vec<NetId>,
}

/// Structured account of why §3.5 phase-1 recovery stopped short: which
/// constraints still miss their limits, by how much, and how much work
/// the recovery phase spent before giving up.
///
/// Produced when [`crate::config::OnViolation::BestEffort`] lets a route
/// finish with residual violations; carried by
/// [`crate::RouteError::ConstraintsUnsatisfied`] when
/// [`crate::config::OnViolation::Fail`] turns the same state into an
/// error — the two modes report the identical facts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViolationReport {
    /// Per violated constraint, in constraint order.
    pub entries: Vec<ViolationEntry>,
    /// Recovery reroutes spent before exhaustion (§3.5 phase 1).
    pub recovery_reroutes: usize,
    /// Recovery passes actually run (≤ `RouterConfig::recover_passes`).
    pub recovery_passes: usize,
}

impl ViolationReport {
    /// Total residual violation over all entries, in ps.
    pub fn total_violation_ps(&self) -> f64 {
        self.entries.iter().map(|e| e.violation_ps).sum()
    }

    /// Whether any residual violation remains.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Extracts the report from the analyzer state after the improvement
    /// phases: one entry per constraint with a negative margin.
    pub fn from_sta(sta: &Sta, recovery_reroutes: usize, recovery_passes: usize) -> Self {
        let entries = (0..sta.num_constraints())
            .filter(|&cid| sta.margin_ps(cid) < 0.0)
            .map(|cid| {
                let c = sta.constraint(cid).constraint();
                ViolationEntry {
                    name: c.name.clone(),
                    limit_ps: c.limit_ps,
                    arrival_ps: sta.arrival_ps(cid),
                    violation_ps: -sta.margin_ps(cid),
                    critical_nets: sta.critical_nets(cid),
                }
            })
            .collect();
        Self {
            entries,
            recovery_reroutes,
            recovery_passes,
        }
    }
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} constraint(s) violated by {:.1} ps total after {} recovery reroutes",
            self.entries.len(),
            self.total_violation_ps(),
            self.recovery_reroutes
        )
    }
}

/// Router work counters and phase durations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteStats {
    /// Edges deleted (selected + cascaded + pruned).
    pub deletions: usize,
    /// Nets ripped up and rerouted across improvement phases.
    pub reroutes: usize,
    /// Feed cells inserted (§4.3).
    pub feed_cells_inserted: usize,
    /// Chip widening in pitches due to feed-cell insertion.
    pub widened_pitches: i32,
    /// Differential pairs routed in lockstep.
    pub diff_pairs_locked: usize,
    /// Differential pairs whose graphs were not homogeneous (routed
    /// independently).
    pub diff_pairs_independent: usize,
    /// Every `(net, edge)` selection made by the deletion loop, in
    /// order, across initial routing and every improvement reroute —
    /// the determinism audit trail compared between
    /// [`crate::SelectionStrategy`] variants by the oracle tests.
    pub selection_log: Vec<(bgr_netlist::NetId, u32)>,
    /// Engine self-audits passed (`RouterConfig::verify` levels above
    /// `Off`; each rebuilt the density profile and every net length
    /// from scratch and found the incremental state consistent).
    pub audits_passed: u64,
    /// Total comparisons performed across the passed self-audits.
    pub audit_checks: u64,
    /// Wall-clock of initial routing.
    pub initial_routing: std::time::Duration,
    /// Wall-clock of the three improvement phases.
    pub improvement: std::time::Duration,
    /// Total route wall-clock.
    pub total: std::time::Duration,
}

/// The global-routing result.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    /// Per-net routed trees.
    pub trees: Vec<NetTree>,
    /// Final per-channel density maxima (`C_M`) — the global-routing
    /// estimate of channel track counts.
    pub channel_tracks: Vec<i32>,
    /// Per-net routed lengths in µm.
    pub net_lengths_um: Vec<f64>,
    /// Total wire length in µm.
    pub total_length_um: f64,
    /// Timing vs the *requested* constraints (evaluated even when routing
    /// ran unconstrained).
    pub timing: TimingReport,
    /// Residual-violation account when best-effort degradation let the
    /// route finish despite exhausted recovery (`None` when recovery
    /// converged or routing ran unconstrained).
    pub violations: Option<ViolationReport>,
    /// Work counters.
    pub stats: RouteStats,
}

impl RoutingResult {
    /// Total wire length in mm (the paper's Table 2 unit).
    pub fn total_length_mm(&self) -> f64 {
        self.total_length_um / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::same_row_net;

    #[test]
    fn tree_extraction_after_routing() {
        let (circuit, placement, net) = same_row_net();
        let mut g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        // Route by hand: kill the channel-1 trunk, prune.
        let trunk = g
            .alive_edges()
            .find(|&e| {
                g.edges()[e as usize].kind
                    == (REdgeKind::Trunk {
                        channel: ChannelId::new(1),
                    })
            })
            .unwrap();
        g.delete_edge(trunk);
        g.prune_dangling();
        g.recompute_bridges();
        let tree = NetTree::from_graph(&g);
        assert_eq!(tree.segments.len(), 3);
        let trunks = tree.trunks_in_channel(ChannelId::new(0));
        assert_eq!(trunks, vec![(2, 3, 1)]);
        assert!(tree.trunks_in_channel(ChannelId::new(1)).is_empty());
        assert!((tree.length_um - 68.0).abs() < 1e-9);
    }

    #[test]
    fn violation_report_extracts_residuals_from_sta() {
        use bgr_timing::{DelayModel, PathConstraint, Sta, WireParams};
        let (circuit, _, _) = same_row_net();
        let src = circuit.pads()[0].term();
        let snk = circuit.pads()[1].term();
        // Two INVs give 132.5 ps of pure gate delay; a 50 ps limit is
        // unmeetable no matter how the net is routed.
        let sta = Sta::new(
            &circuit,
            vec![PathConstraint::new("tight", src, snk, 50.0)],
            DelayModel::Capacitance,
            WireParams::default(),
        )
        .unwrap();
        let report = ViolationReport::from_sta(&sta, 7, 3);
        assert_eq!(report.entries.len(), 1);
        assert!(!report.is_empty());
        let e = &report.entries[0];
        assert_eq!(e.name, "tight");
        assert!((e.violation_ps - (e.arrival_ps - e.limit_ps)).abs() < 1e-9);
        assert!(e.violation_ps > 0.0);
        assert!(!e.critical_nets.is_empty());
        assert_eq!(report.recovery_reroutes, 7);
        assert_eq!(report.recovery_passes, 3);
        assert!(report.total_violation_ps() > 0.0);
        assert!(report.to_string().contains("violated"));
    }

    #[test]
    fn timing_report_evaluates_constraints() {
        use bgr_timing::PathConstraint;
        let (circuit, _, _) = same_row_net();
        let src = circuit.pads()[0].term();
        let snk = circuit.pads()[1].term();
        let lengths = vec![0.0; circuit.nets().len()];
        let report = TimingReport::evaluate(
            &circuit,
            &[PathConstraint::new("p", src, snk, 500.0)],
            DelayModel::Capacitance,
            WireParams::default(),
            &lengths,
        )
        .unwrap();
        assert_eq!(report.constraints.len(), 1);
        // Two INVs: 60 + 5*2.5 + 60 = 132.5 ps.
        assert!((report.max_arrival_ps() - 132.5).abs() < 1e-9);
        assert_eq!(report.violations(), 0);
        assert!((report.worst_margin_ps() - 367.5).abs() < 1e-9);
    }
}
