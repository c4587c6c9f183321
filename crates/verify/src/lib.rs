//! Independent invariant verifier: audits a finished
//! [`RoutingResult`] against from-scratch oracles.
//!
//! The router maintains several *incremental* structures — a
//! diff-array density profile, memoized net lengths inside the static
//! timing analyzer, a candidate scoreboard with cached heap tops — whose
//! correctness rests on invalidation contracts (DESIGN.md §7–§8). A
//! bug in any contract produces a *silently* wrong result: the route
//! completes, every internal `debug_assert!` that happens to be
//! compiled in stays quiet, and the damage only shows at the channel
//! router or on silicon. This crate is the counterweight: it takes
//! only the **public inputs** (circuit, placement, constraints,
//! configuration) plus the result, recomputes every claim from
//! scratch, and returns a structured [`AuditReport`] with one verdict
//! per [`Invariant`] and first-divergence detail.
//!
//! **Zero shared state.** Nothing here reads the engine, the
//! scoreboard, the incremental density map or the memoized analyzer;
//! the only shared code is stateless public API (net-tree geometry,
//! `TimingReport::evaluate`, `SlotStore::from_placement`). An
//! incremental-state bug therefore cannot corrupt its own auditor.
//!
//! The oracles:
//!
//! * [`Invariant::Forest`] — every net's segments form a spanning
//!   tree over its coordinate graph, tapping exactly the net's
//!   terminals at their placed positions (§3.2's "delete until
//!   spanning tree" postcondition).
//! * [`Invariant::Density`] — a naive max-sweep over all trunk spans
//!   reproduces `channel_tracks` (the paper's `C_M` estimate,
//!   §3.3) channel by channel.
//! * [`Invariant::Timing`] — a fresh analyzer over the reported net
//!   lengths reproduces the timing report and the arrival times
//!   quoted by the violation report; reported lengths match the tree
//!   geometry.
//! * [`Invariant::Constraints`] — the violation report contains
//!   exactly the constraints a fresh analysis finds violated: no
//!   silent misses, no spurious entries (§3.5 recovery accounting).
//! * [`Invariant::Feedthrough`] — every row crossing sits on a
//!   feed-capable column of its row (§4.3 slot discipline).
//! * [`Invariant::DiffPair`] — at least `diff_pairs_locked` pairs
//!   are geometrically parallel, and the lock/independent counts
//!   cover every pair (§4.1 lockstep).

use bgr_core::{RouterConfig, RoutingResult, Segment, TimingReport};
use bgr_layout::{ChannelId, Placement, SlotId, SlotStore};
use bgr_netlist::{Circuit, NetId};
use bgr_timing::PathConstraint;

/// Float tolerance for recomputed lengths, arrivals and margins (µm /
/// ps) — generous against accumulation order, far below any real
/// divergence.
const EPS: f64 = 1e-6;

/// One independently checkable claim of a routing result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Per-net spanning-tree validity over the segment geometry.
    Forest,
    /// `channel_tracks` equals a from-scratch density sweep.
    Density,
    /// Timing report and violation arrivals match a fresh analysis.
    Timing,
    /// Violation report is complete and free of spurious entries.
    Constraints,
    /// Row crossings sit on feed-capable columns.
    Feedthrough,
    /// Differential-pair lockstep counts are consistent with geometry.
    DiffPair,
}

impl Invariant {
    /// Every invariant, in audit order.
    pub const ALL: [Invariant; 6] = [
        Invariant::Forest,
        Invariant::Density,
        Invariant::Timing,
        Invariant::Constraints,
        Invariant::Feedthrough,
        Invariant::DiffPair,
    ];

    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::Forest => "forest",
            Invariant::Density => "density",
            Invariant::Timing => "timing",
            Invariant::Constraints => "constraints",
            Invariant::Feedthrough => "feedthrough",
            Invariant::DiffPair => "diff_pair",
        }
    }
}

/// First divergence one oracle found.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFailure {
    /// The violated invariant.
    pub invariant: Invariant,
    /// The net the divergence localizes to, when one does.
    pub net: Option<NetId>,
    /// The channel the divergence localizes to, when one does.
    pub channel: Option<ChannelId>,
    /// The constraint (by name) the divergence localizes to.
    pub constraint: Option<String>,
    /// Human-readable first-divergence description.
    pub detail: String,
}

impl std::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant.label(), self.detail)?;
        if let Some(n) = self.net {
            write!(f, " [net {}]", n.index())?;
        }
        if let Some(c) = self.channel {
            write!(f, " [channel {}]", c.index())?;
        }
        if let Some(c) = &self.constraint {
            write!(f, " [constraint {c}]")?;
        }
        Ok(())
    }
}

/// One oracle's outcome: how many comparisons ran, and the first
/// divergence if any.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditVerdict {
    /// The audited invariant.
    pub invariant: Invariant,
    /// Comparisons performed (up to the first divergence).
    pub checks: u64,
    /// The first divergence, or `None` when the invariant held.
    pub failure: Option<AuditFailure>,
}

/// The full audit: one verdict per [`Invariant`], in
/// [`Invariant::ALL`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Per-invariant verdicts.
    pub verdicts: Vec<AuditVerdict>,
}

impl AuditReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|v| v.failure.is_none())
    }

    /// The first failed verdict's failure, in audit order.
    pub fn first_failure(&self) -> Option<&AuditFailure> {
        self.verdicts.iter().find_map(|v| v.failure.as_ref())
    }

    /// The verdict of one invariant.
    pub fn verdict(&self, inv: Invariant) -> &AuditVerdict {
        self.verdicts
            .iter()
            .find(|v| v.invariant == inv)
            .expect("report carries every invariant")
    }

    /// Total comparisons across all oracles.
    pub fn total_checks(&self) -> u64 {
        self.verdicts.iter().map(|v| v.checks).sum()
    }

    /// Multi-line per-invariant table (one verdict per line), for
    /// human-facing reports; the [`Display`](std::fmt::Display) impl
    /// stays one line for log streams.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.verdicts {
            match &v.failure {
                None => {
                    let _ = writeln!(out, "{:<12} ok ({} checks)", v.invariant.label(), v.checks);
                }
                Some(fail) => {
                    let _ = writeln!(out, "{:<12} FAIL: {fail}", v.invariant.label());
                }
            }
        }
        out
    }
}

/// Stable one-line summary, suitable for embedding in JSONL streams:
/// `audit clean: 6 invariants, N checks` when every oracle held, or
/// `audit FAILED (k/6 invariants): <first failure>` otherwise.
impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.verdicts.len();
        if self.is_clean() {
            write!(
                f,
                "audit clean: {} invariants, {} checks",
                total,
                self.total_checks()
            )
        } else {
            let failed = self.verdicts.iter().filter(|v| v.failure.is_some()).count();
            let first = self.first_failure().expect("not clean implies a failure");
            write!(f, "audit FAILED ({failed}/{total} invariants): {first}")
        }
    }
}

/// Audits `result` against the public inputs it was produced from.
///
/// `circuit` and `placement` must be the *post-route* pair returned in
/// [`bgr_core::Routed`] — feed-cell insertion (§4.3) may have extended
/// them, and the result's geometry refers to the extended chip.
/// `constraints` are the originally requested path constraints and
/// `config` the configuration the route ran under (the auditor needs
/// its delay model, wire parameters and `use_constraints` switch).
pub fn audit(
    circuit: &Circuit,
    placement: &Placement,
    constraints: &[PathConstraint],
    config: &RouterConfig,
    result: &RoutingResult,
) -> AuditReport {
    let verdicts = vec![
        forest_oracle(circuit, placement, result),
        density_oracle(placement, result),
        timing_oracle(circuit, constraints, config, result),
        constraints_oracle(circuit, constraints, config, result),
        feedthrough_oracle(circuit, placement, result),
        diff_pair_oracle(circuit, result),
    ];
    AuditReport { verdicts }
}

/// [`audit`] with the six oracles fanned over `threads` workers via
/// `bgr_core::par::scoped_map`.
///
/// The oracles are independent by design (zero shared mutable state —
/// see the crate docs), so they parallelize trivially; `scoped_map`
/// returns results in input order, so the merged report is identical
/// to the sequential [`audit`]'s for any thread count — asserted by
/// this crate's determinism test and cheap enough to rely on.
pub fn audit_parallel(
    threads: usize,
    circuit: &Circuit,
    placement: &Placement,
    constraints: &[PathConstraint],
    config: &RouterConfig,
    result: &RoutingResult,
) -> AuditReport {
    let mut oracles: Vec<Invariant> = Invariant::ALL.to_vec();
    let verdicts = bgr_core::par::scoped_map(threads, &mut oracles, |inv| match inv {
        Invariant::Forest => forest_oracle(circuit, placement, result),
        Invariant::Density => density_oracle(placement, result),
        Invariant::Timing => timing_oracle(circuit, constraints, config, result),
        Invariant::Constraints => constraints_oracle(circuit, constraints, config, result),
        Invariant::Feedthrough => feedthrough_oracle(circuit, placement, result),
        Invariant::DiffPair => diff_pair_oracle(circuit, result),
    });
    AuditReport { verdicts }
}

fn fail(
    invariant: Invariant,
    net: Option<NetId>,
    channel: Option<ChannelId>,
    constraint: Option<String>,
    detail: String,
) -> Option<AuditFailure> {
    Some(AuditFailure {
        invariant,
        net,
        channel,
        constraint,
        detail,
    })
}

/// Tiny union-find for the per-net coordinate graphs.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Rebuilds each net's coordinate graph from its segments — nodes are
/// `(channel, x)` wiring points plus tapped terminals — and checks it
/// is a spanning tree (`connected && edges == nodes - 1`) tapping
/// exactly the net's terminals at their placed positions.
fn forest_oracle(circuit: &Circuit, placement: &Placement, result: &RoutingResult) -> AuditVerdict {
    use std::collections::{BTreeMap, BTreeSet};
    let inv = Invariant::Forest;
    let num_rows = placement.num_rows();
    let num_channels = placement.num_channels();
    let mut checks = 0u64;
    let mut failure = None;
    'nets: for (i, tree) in result.trees.iter().enumerate() {
        let net = NetId::new(i);
        let netdef = circuit.net(net);
        checks += 1;
        if tree.width_pitches != netdef.width_pitches() {
            failure = fail(
                inv,
                Some(net),
                None,
                None,
                format!(
                    "tree width {} != net width {}",
                    tree.width_pitches,
                    netdef.width_pitches()
                ),
            );
            break;
        }
        // Pass 1: collect wiring points and validate per-segment facts.
        let mut points: BTreeSet<(usize, i32)> = BTreeSet::new();
        let mut tapped: BTreeMap<u32, usize> = BTreeMap::new(); // term -> node (assigned later)
        for seg in &tree.segments {
            checks += 1;
            match *seg {
                Segment::Trunk { channel, x1, x2 } => {
                    if channel.index() >= num_channels || x1 > x2 {
                        failure = fail(
                            inv,
                            Some(net),
                            Some(channel),
                            None,
                            format!(
                                "malformed trunk [{x1}, {x2}] in channel {}",
                                channel.index()
                            ),
                        );
                        break 'nets;
                    }
                    points.insert((channel.index(), x1));
                    points.insert((channel.index(), x2));
                }
                Segment::Branch { channel, x, term } => {
                    let pos = placement.term_pos(circuit, term);
                    let ok = pos.x == x
                        && pos.channels(num_rows).contains(&channel)
                        && netdef.terms().any(|t| t == term);
                    if !ok {
                        failure = fail(
                            inv,
                            Some(net),
                            Some(channel),
                            None,
                            format!(
                                "branch at x={x} channel {} does not match terminal {} \
                                 (placed at x={}) or terminal is not on this net",
                                channel.index(),
                                term.index(),
                                pos.x
                            ),
                        );
                        break 'nets;
                    }
                    points.insert((channel.index(), x));
                    tapped.insert(term.index() as u32, usize::MAX);
                }
                Segment::Feed { row, x } => {
                    if row as usize >= num_rows {
                        failure = fail(
                            inv,
                            Some(net),
                            None,
                            None,
                            format!("feed at x={x} crosses nonexistent row {row}"),
                        );
                        break 'nets;
                    }
                    points.insert((row as usize, x));
                    points.insert((row as usize + 1, x));
                }
            }
        }
        // Terminal coverage: tapped set == the net's terminal set.
        checks += 1;
        let want: BTreeSet<u32> = netdef.terms().map(|t| t.index() as u32).collect();
        let got: BTreeSet<u32> = tapped.keys().copied().collect();
        if got != want {
            failure = fail(
                inv,
                Some(net),
                None,
                None,
                format!(
                    "taps {} of {} terminals (missing or foreign taps)",
                    got.len(),
                    want.len()
                ),
            );
            break;
        }
        // Node numbering: wiring points then terminals.
        let index_of: BTreeMap<(usize, i32), usize> = points
            .iter()
            .enumerate()
            .map(|(idx, &p)| (p, idx))
            .collect();
        for (idx, (_, node)) in tapped.iter_mut().enumerate() {
            *node = points.len() + idx;
        }
        let num_nodes = points.len() + tapped.len();
        let mut dsu = Dsu::new(num_nodes);
        // Per-channel sorted point list for trunk subdivision.
        let mut by_channel: BTreeMap<usize, Vec<i32>> = BTreeMap::new();
        for &(c, x) in &points {
            by_channel.entry(c).or_default().push(x);
        }
        // Pass 2: count edges (trunks subdivided at every covered
        // point, so collinear elementary segments chain correctly).
        let mut edges = 0usize;
        for seg in &tree.segments {
            match *seg {
                Segment::Trunk { channel, x1, x2 } => {
                    let xs = &by_channel[&channel.index()];
                    let lo = xs.partition_point(|&x| x < x1);
                    let hi = xs.partition_point(|&x| x <= x2);
                    for w in xs[lo..hi].windows(2) {
                        edges += 1;
                        dsu.union(
                            index_of[&(channel.index(), w[0])],
                            index_of[&(channel.index(), w[1])],
                        );
                    }
                }
                Segment::Branch { channel, x, term } => {
                    edges += 1;
                    dsu.union(
                        index_of[&(channel.index(), x)],
                        tapped[&(term.index() as u32)],
                    );
                }
                Segment::Feed { row, x } => {
                    edges += 1;
                    dsu.union(
                        index_of[&(row as usize, x)],
                        index_of[&(row as usize + 1, x)],
                    );
                }
            }
        }
        checks += 2;
        if edges + 1 != num_nodes {
            failure = fail(
                inv,
                Some(net),
                None,
                None,
                format!(
                    "{edges} edges over {num_nodes} nodes — not a tree (want edges = nodes - 1)"
                ),
            );
            break;
        }
        let root = dsu.find(0);
        if (1..num_nodes).any(|n| dsu.find(n) != root) {
            failure = fail(
                inv,
                Some(net),
                None,
                None,
                format!("segments split into multiple components over {num_nodes} nodes"),
            );
            break;
        }
    }
    AuditVerdict {
        invariant: inv,
        checks,
        failure,
    }
}

/// Naive density sweep: per channel, a fresh diff array over every
/// trunk span of every tree, compared against `channel_tracks`.
fn density_oracle(placement: &Placement, result: &RoutingResult) -> AuditVerdict {
    let inv = Invariant::Density;
    let num_channels = placement.num_channels();
    let width = placement.width_pitches().max(1) as usize;
    let mut checks = 1u64;
    if result.channel_tracks.len() != num_channels {
        return AuditVerdict {
            invariant: inv,
            checks,
            failure: fail(
                inv,
                None,
                None,
                None,
                format!(
                    "channel_tracks has {} entries for {num_channels} channels",
                    result.channel_tracks.len()
                ),
            ),
        };
    }
    // Spans are half-open [x1, x2) over pitch columns, clamped to the
    // chip — the same geometry the incremental map integrates.
    let mut diff = vec![vec![0i64; width + 1]; num_channels];
    for tree in &result.trees {
        let w = tree.width_pitches as i64;
        for seg in &tree.segments {
            if let Segment::Trunk { channel, x1, x2 } = *seg {
                let a = x1.clamp(0, width as i32) as usize;
                let b = x2.clamp(0, width as i32) as usize;
                if a < b {
                    diff[channel.index()][a] += w;
                    diff[channel.index()][b] -= w;
                }
            }
        }
    }
    let mut failure = None;
    for (c, d) in diff.iter().enumerate() {
        checks += 1;
        let mut run = 0i64;
        let mut max = 0i64;
        for &v in d {
            run += v;
            max = max.max(run);
        }
        let got = result.channel_tracks[c] as i64;
        if got != max {
            failure = fail(
                inv,
                None,
                Some(ChannelId::new(c)),
                None,
                format!("channel_tracks[{c}] = {got}, from-scratch sweep = {max}"),
            );
            break;
        }
    }
    AuditVerdict {
        invariant: inv,
        checks,
        failure,
    }
}

/// Fresh timing analysis over the reported lengths, compared against
/// the timing report and the violation report's quoted arrivals; plus
/// length consistency between `net_lengths_um` and the tree geometry.
fn timing_oracle(
    circuit: &Circuit,
    constraints: &[PathConstraint],
    config: &RouterConfig,
    result: &RoutingResult,
) -> AuditVerdict {
    let inv = Invariant::Timing;
    let mut checks = 0u64;
    for (i, tree) in result.trees.iter().enumerate() {
        checks += 1;
        let reported = result.net_lengths_um.get(i).copied().unwrap_or(f64::NAN);
        let d = (reported - tree.length_um).abs();
        if d > EPS || d.is_nan() {
            return AuditVerdict {
                invariant: inv,
                checks,
                failure: fail(
                    inv,
                    Some(NetId::new(i)),
                    None,
                    None,
                    format!(
                        "net_lengths_um[{i}] = {reported} um but tree geometry sums to {} um",
                        tree.length_um
                    ),
                ),
            };
        }
    }
    checks += 1;
    let sum: f64 = result.net_lengths_um.iter().sum();
    let d = (sum - result.total_length_um).abs();
    if d > EPS * (result.net_lengths_um.len() + 1) as f64 || d.is_nan() {
        return AuditVerdict {
            invariant: inv,
            checks,
            failure: fail(
                inv,
                None,
                None,
                None,
                format!(
                    "total_length_um = {} but per-net lengths sum to {sum}",
                    result.total_length_um
                ),
            ),
        };
    }
    let fresh = match TimingReport::evaluate(
        circuit,
        constraints,
        config.delay_model,
        config.wire,
        &result.net_lengths_um,
    ) {
        Ok(r) => r,
        Err(e) => {
            return AuditVerdict {
                invariant: inv,
                checks,
                failure: fail(
                    inv,
                    None,
                    None,
                    None,
                    format!("fresh timing analysis failed: {e:?}"),
                ),
            };
        }
    };
    checks += 1;
    if fresh.constraints.len() != result.timing.constraints.len() {
        return AuditVerdict {
            invariant: inv,
            checks,
            failure: fail(
                inv,
                None,
                None,
                None,
                format!(
                    "timing report covers {} constraints, fresh analysis {}",
                    result.timing.constraints.len(),
                    fresh.constraints.len()
                ),
            ),
        };
    }
    for (got, want) in result.timing.constraints.iter().zip(&fresh.constraints) {
        checks += 1;
        let ok = got.name == want.name
            && (got.limit_ps - want.limit_ps).abs() <= EPS
            && (got.arrival_ps - want.arrival_ps).abs() <= EPS
            && (got.margin_ps - want.margin_ps).abs() <= EPS;
        if !ok {
            return AuditVerdict {
                invariant: inv,
                checks,
                failure: fail(
                    inv,
                    None,
                    None,
                    Some(want.name.clone()),
                    format!(
                        "timing report says arrival {:.3} ps / margin {:.3} ps, \
                         fresh analysis {:.3} ps / {:.3} ps",
                        got.arrival_ps, got.margin_ps, want.arrival_ps, want.margin_ps
                    ),
                ),
            };
        }
    }
    // The violation report quotes arrivals from the engine's memoized
    // analyzer — the surface where a skewed length memo shows up.
    if let Some(report) = &result.violations {
        for entry in &report.entries {
            checks += 1;
            let Some(want) = fresh.constraints.iter().find(|c| c.name == entry.name) else {
                return AuditVerdict {
                    invariant: inv,
                    checks,
                    failure: fail(
                        inv,
                        None,
                        None,
                        Some(entry.name.clone()),
                        "violation entry names a constraint absent from the fresh analysis"
                            .to_string(),
                    ),
                };
            };
            let ok = (entry.arrival_ps - want.arrival_ps).abs() <= EPS
                && (entry.violation_ps - (-want.margin_ps)).abs() <= EPS;
            if !ok {
                return AuditVerdict {
                    invariant: inv,
                    checks,
                    failure: fail(
                        inv,
                        None,
                        None,
                        Some(entry.name.clone()),
                        format!(
                            "violation entry quotes arrival {:.3} ps / violation {:.3} ps, \
                             fresh analysis {:.3} ps / {:.3} ps",
                            entry.arrival_ps, entry.violation_ps, want.arrival_ps, -want.margin_ps
                        ),
                    ),
                };
            }
        }
    }
    AuditVerdict {
        invariant: inv,
        checks,
        failure: None,
    }
}

/// Completeness of the violation report: every freshly violated
/// constraint appears, no satisfied constraint does, and an
/// unconstrained route carries no report at all.
fn constraints_oracle(
    circuit: &Circuit,
    constraints: &[PathConstraint],
    config: &RouterConfig,
    result: &RoutingResult,
) -> AuditVerdict {
    let inv = Invariant::Constraints;
    let mut checks = 1u64;
    if !config.use_constraints {
        // Pure-area mode never emits a violation report.
        let failure = if result.violations.is_some() {
            fail(
                inv,
                None,
                None,
                None,
                "unconstrained route carries a violation report".to_string(),
            )
        } else {
            None
        };
        return AuditVerdict {
            invariant: inv,
            checks,
            failure,
        };
    }
    let fresh = match TimingReport::evaluate(
        circuit,
        constraints,
        config.delay_model,
        config.wire,
        &result.net_lengths_um,
    ) {
        Ok(r) => r,
        Err(e) => {
            return AuditVerdict {
                invariant: inv,
                checks,
                failure: fail(
                    inv,
                    None,
                    None,
                    None,
                    format!("fresh timing analysis failed: {e:?}"),
                ),
            };
        }
    };
    let mut failure = None;
    for c in &fresh.constraints {
        checks += 1;
        let reported = result
            .violations
            .as_ref()
            .is_some_and(|r| r.entries.iter().any(|e| e.name == c.name));
        if c.margin_ps < -EPS && !reported {
            failure = fail(
                inv,
                None,
                None,
                Some(c.name.clone()),
                format!(
                    "constraint misses its limit by {:.3} ps but the violation report is silent",
                    -c.margin_ps
                ),
            );
            break;
        }
        if c.margin_ps > EPS && reported {
            failure = fail(
                inv,
                None,
                None,
                Some(c.name.clone()),
                format!(
                    "constraint holds with {:.3} ps margin but is reported violated",
                    c.margin_ps
                ),
            );
            break;
        }
    }
    AuditVerdict {
        invariant: inv,
        checks,
        failure,
    }
}

/// Every `Feed` segment must cross an existing row at a feed-capable
/// column — a slot the §4.3 assignment could actually have granted.
fn feedthrough_oracle(
    circuit: &Circuit,
    placement: &Placement,
    result: &RoutingResult,
) -> AuditVerdict {
    use std::collections::BTreeSet;
    let inv = Invariant::Feedthrough;
    let slots = SlotStore::from_placement(circuit, placement);
    let num_rows = placement.num_rows();
    let mut columns: Vec<BTreeSet<i32>> = vec![BTreeSet::new(); num_rows];
    for (row, cols) in columns.iter_mut().enumerate() {
        for idx in 0..slots.slots_in_row(row) {
            cols.insert(slots.x_of(SlotId {
                row: row as u32,
                idx: idx as u32,
            }));
        }
    }
    let mut checks = 0u64;
    let mut failure = None;
    'nets: for (i, tree) in result.trees.iter().enumerate() {
        for seg in &tree.segments {
            if let Segment::Feed { row, x } = *seg {
                checks += 1;
                let ok = (row as usize) < num_rows && columns[row as usize].contains(&x);
                if !ok {
                    failure = fail(
                        inv,
                        Some(NetId::new(i)),
                        None,
                        None,
                        format!("feed at x={x} of row {row} is not a feed-capable column"),
                    );
                    break 'nets;
                }
            }
        }
    }
    AuditVerdict {
        invariant: inv,
        checks,
        failure,
    }
}

/// Whether two trees are geometrically parallel — the §4.1 lockstep
/// postcondition: same segment sequence with equal kinds, channels,
/// rows and trunk lengths (x positions may be offset by the pair
/// spacing, terminals differ by construction).
fn parallel_trees(a: &bgr_core::NetTree, b: &bgr_core::NetTree) -> bool {
    a.segments.len() == b.segments.len()
        && a.segments
            .iter()
            .zip(&b.segments)
            .all(|(sa, sb)| match (*sa, *sb) {
                (
                    Segment::Trunk {
                        channel: ca,
                        x1: a1,
                        x2: a2,
                    },
                    Segment::Trunk {
                        channel: cb,
                        x1: b1,
                        x2: b2,
                    },
                ) => ca == cb && (a2 - a1) == (b2 - b1),
                (Segment::Branch { channel: ca, .. }, Segment::Branch { channel: cb, .. }) => {
                    ca == cb
                }
                (Segment::Feed { row: ra, .. }, Segment::Feed { row: rb, .. }) => ra == rb,
                _ => false,
            })
}

/// Lockstep accounting: `diff_pairs_locked + diff_pairs_independent`
/// covers every declared pair, and at least `diff_pairs_locked` pairs
/// are geometrically parallel (a tampered lockstep tree breaks this).
fn diff_pair_oracle(circuit: &Circuit, result: &RoutingResult) -> AuditVerdict {
    let inv = Invariant::DiffPair;
    let pairs = circuit.diff_pairs();
    let stats = &result.stats;
    let mut checks = 1u64;
    if stats.diff_pairs_locked + stats.diff_pairs_independent != pairs.len() {
        return AuditVerdict {
            invariant: inv,
            checks,
            failure: fail(
                inv,
                None,
                None,
                None,
                format!(
                    "{} locked + {} independent pairs reported for {} declared",
                    stats.diff_pairs_locked,
                    stats.diff_pairs_independent,
                    pairs.len()
                ),
            ),
        };
    }
    let mut parallel = 0usize;
    let mut first_unparallel: Option<(NetId, NetId)> = None;
    for &(a, b) in pairs {
        checks += 1;
        if parallel_trees(&result.trees[a.index()], &result.trees[b.index()]) {
            parallel += 1;
        } else if first_unparallel.is_none() {
            first_unparallel = Some((a, b));
        }
    }
    checks += 1;
    let failure = if parallel < stats.diff_pairs_locked {
        let culprit = first_unparallel.map(|(a, _)| a);
        fail(
            inv,
            culprit,
            None,
            None,
            format!(
                "{} pairs reported locked but only {parallel} are geometrically parallel",
                stats.diff_pairs_locked
            ),
        )
    } else {
        None
    };
    AuditVerdict {
        invariant: inv,
        checks,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_core::{GlobalRouter, VerifyLevel};

    fn route_tiny() -> (
        Circuit,
        Placement,
        Vec<PathConstraint>,
        RouterConfig,
        RoutingResult,
    ) {
        let params = bgr_gen::GenParams::small(7);
        let design = bgr_gen::generate(&params);
        let placement = bgr_gen::place_design(&design, &params, bgr_gen::PlacementStyle::EvenFeed);
        let config = RouterConfig {
            verify: VerifyLevel::Off,
            ..RouterConfig::default()
        };
        let routed = GlobalRouter::new(config.clone())
            .route(design.circuit, placement, design.constraints.clone())
            .unwrap();
        (
            routed.circuit,
            routed.placement,
            design.constraints,
            config,
            routed.result,
        )
    }

    #[test]
    fn parallel_audit_is_deterministic_and_matches_sequential() {
        let (circuit, placement, cons, config, result) = route_tiny();
        let sequential = audit(&circuit, &placement, &cons, &config, &result);
        for threads in [1, 2, 8] {
            let parallel = audit_parallel(threads, &circuit, &placement, &cons, &config, &result);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_audit_localizes_failures_like_sequential() {
        let (circuit, placement, cons, config, mut result) = route_tiny();
        result.channel_tracks[0] += 1;
        let sequential = audit(&circuit, &placement, &cons, &config, &result);
        let parallel = audit_parallel(8, &circuit, &placement, &cons, &config, &result);
        assert_eq!(parallel, sequential);
        assert!(!parallel.is_clean());
        assert!(parallel.verdict(Invariant::Density).failure.is_some());
    }

    #[test]
    fn healthy_route_audits_clean() {
        let (circuit, placement, cons, config, result) = route_tiny();
        let report = audit(&circuit, &placement, &cons, &config, &result);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.verdicts.len(), Invariant::ALL.len());
        assert!(report.total_checks() > 0);
        assert!(report.first_failure().is_none());
        let table = report.table();
        for inv in Invariant::ALL {
            assert!(table.contains(inv.label()), "{table}");
        }
    }

    #[test]
    fn display_is_one_stable_line() {
        let (circuit, placement, cons, config, mut result) = route_tiny();
        let clean = audit(&circuit, &placement, &cons, &config, &result);
        let line = clean.to_string();
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(
            line,
            format!(
                "audit clean: {} invariants, {} checks",
                Invariant::ALL.len(),
                clean.total_checks()
            )
        );

        result.channel_tracks[0] += 1;
        let failed = audit(&circuit, &placement, &cons, &config, &result);
        let line = failed.to_string();
        assert!(!line.contains('\n'), "{line:?}");
        assert!(line.starts_with("audit FAILED ("), "{line}");
        assert!(
            line.contains(&failed.first_failure().unwrap().to_string()),
            "{line}"
        );
    }

    #[test]
    fn dropped_trunk_segment_breaks_the_forest() {
        let (circuit, placement, cons, config, mut result) = route_tiny();
        // Remove the first trunk segment of the first net that has one.
        let (net, pos) = result
            .trees
            .iter()
            .enumerate()
            .find_map(|(i, t)| {
                t.segments
                    .iter()
                    .position(|s| matches!(s, Segment::Trunk { .. }))
                    .map(|p| (i, p))
            })
            .expect("routed instance has a trunk");
        result.trees[net].segments.remove(pos);
        let report = audit(&circuit, &placement, &cons, &config, &result);
        assert!(!report.is_clean());
        let forest = report.verdict(Invariant::Forest);
        let f = forest.failure.as_ref().expect("forest must fail");
        assert_eq!(f.net, Some(NetId::new(net)), "{f}");
    }

    #[test]
    fn inflated_channel_tracks_break_density() {
        let (circuit, placement, cons, config, mut result) = route_tiny();
        result.channel_tracks[0] += 1;
        let report = audit(&circuit, &placement, &cons, &config, &result);
        let f = report
            .verdict(Invariant::Density)
            .failure
            .as_ref()
            .expect("density must fail");
        assert_eq!(f.channel, Some(ChannelId::new(0)), "{f}");
        // The forest oracle is independent and still clean.
        assert!(report.verdict(Invariant::Forest).failure.is_none());
    }

    #[test]
    fn skewed_length_report_breaks_timing() {
        let (circuit, placement, cons, config, mut result) = route_tiny();
        result.net_lengths_um[0] += 500.0;
        let report = audit(&circuit, &placement, &cons, &config, &result);
        let f = report
            .verdict(Invariant::Timing)
            .failure
            .as_ref()
            .expect("timing must fail");
        assert_eq!(f.net, Some(NetId::new(0)), "{f}");
    }

    #[test]
    fn foreign_feed_column_breaks_feedthrough() {
        let (circuit, placement, cons, config, mut result) = route_tiny();
        result.trees[0]
            .segments
            .push(Segment::Feed { row: 0, x: -7 });
        let report = audit(&circuit, &placement, &cons, &config, &result);
        // Forest fails too (dangling feed), but feedthrough localizes
        // the illegal column independently.
        let f = report
            .verdict(Invariant::Feedthrough)
            .failure
            .as_ref()
            .expect("feedthrough must fail");
        assert_eq!(f.net, Some(NetId::new(0)), "{f}");
    }
}
