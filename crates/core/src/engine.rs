//! The deletion engine: global state and the `select_edge` /
//! `delete_and_modify` loop of Fig. 2 (lines 04–07).
//!
//! One [`Engine`] owns every net's routing graph, the channel-density
//! map, and the incremental timing analyzer. Each iteration selects the
//! best deletable (non-bridge) edge across every in-scope net, ranked by
//! [`crate::select::compare`], deletes the winner, and updates bridges,
//! densities, tentative lengths and margins — so the wiring of all nets
//! is determined *concurrently*, as the paper emphasizes.
//!
//! # Incremental selection
//!
//! Selection runs on a [`Scoreboard`] by
//! default: every deletable edge's **raw** [`EdgeKey`] — delay prefix
//! plus the edge's own density window, *without* the channel
//! aggregates — sits in its channel's heap, one key per (net, heap)
//! updated in place, and the aggregates are composed in at pop time
//! (see the scoreboard docs for why in-heap order is invariant under
//! composition). After a deletion only the *dirty* nets are re-keyed,
//! and only on the heaps whose keys can have moved; since aggregates
//! are not stored, aggregate motion dirties **no** net. Nor does it
//! need a hook of its own to recompose a heap's cached top: every span
//! that moves a channel's aggregates belongs to a trunk that was
//! deletable just before, in the lane of the deleted net (or its
//! partner) for that channel, and that net's graph re-key replaces or
//! removes its entry there, which dirties the heap (DESIGN.md §8). The
//! dirty set is derived from explicit invalidation hooks:
//!
//! * **graph** — the deleted net and its cascaded partner (their
//!   [`RoutingGraph::generation`] advanced: alive set, bridges,
//!   pruning), re-keyed on every heap;
//! * **density window** — nets whose *live trunk extent* in a channel
//!   (the interval over its still-deletable trunk edges there, taken at
//!   the lane's last scan) overlaps a *touched span* (removed, pruned or
//!   promoted; half-open, as the density map treats it) of that
//!   channel, found through a static channel → nets reverse index:
//!   their raw window terms read the density profile there. Only those
//!   channels' heaps are re-keyed, and within them only the windows a
//!   touched span overlaps are re-read (the rest come from the per-run
//!   window cache). Branch and feed keys carry no window terms and
//!   never go stale this way;
//! * **timing** — every member net of each constraint the analyzer
//!   refreshed ([`bgr_timing::Sta::nets_of_constraint`]), re-keyed on
//!   every heap: a length change moves that constraint's longest paths
//!   and margins, which feed the delay criteria of all member nets.
//!
//! A net dirty for several reasons at once is *counted* once, under a
//! deterministic precedence (graph > span-overlap > constraint — see
//! `derive_dirty` and DESIGN.md §9), but re-keyed on the union of the
//! heaps its causes reach; the dirty *set* is independent of the
//! attribution.
//!
//! Nets outside the dirty set, and the heaps a dirty net's causes do
//! not reach, provably keep their keys, so the scoreboard's pool always
//! equals what a full rescan would compute.
//! The rescan itself remains available as
//! [`SelectionStrategy::FullRescan`] — an executable oracle used by the
//! differential tests to prove byte-identical deletion sequences.
//! Every minimum either path takes — scan, cached heap tops, runner-up
//! — goes through `select::ranks_first` (strict-less: the first scanned
//! wins), and a rip-up and a snapshot restore are one operation,
//! `Engine::set_alive`.
//!
//! # Per-net scan state
//!
//! Each net carries a private `NetScanState`: its shortest-path search,
//! its current tentative tree, and the *hypothetical* trees (assuming one
//! edge deleted) of the tree edges whose keys were evaluated — every
//! other edge shares the current tree, and cached trees survive
//! deletions that miss them (exact rules in `tentative::ShortestPaths`)
//! — each with a *delay-prefix memo* (the `C_d/Gl/LD` triple, keyed on
//! the summed generations of the net's timing constraints, so
//! density-only invalidations skip the delay recomputation entirely) —
//! and its trunk edges' density windows, cached for one scoreboard run.
//!
//! A re-key scan builds a hypothetical tree only for an edge that can
//! still win its lane: every other tree edge keeps its *floor* key, whose
//! delay prefix ranks no later than the real one and needs no tree
//! ([`DelayCriteria::floor`], DESIGN.md §8 "Bound-first lane scans").
//!
//! After a deletion the dirty nets are re-keyed one at a time, in
//! ascending net-id order. A scan reads the graphs, the density map and
//! the timing analyzer, never the scoreboard, so re-keying the nets one
//! by one pushes exactly the keys a batch would.

use std::collections::BTreeMap;

use bgr_layout::ChannelId;
use bgr_netlist::NetId;
use bgr_timing::Sta;

use crate::config::{CriteriaOrder, SelectionStrategy, VerifyLevel};
use crate::criteria::{DelayCriteria, HypWire};
use crate::density::{DensityMap, EdgeDensity};
use crate::graph::{GraphScratch, REdgeKind, RoutingGraph};
use crate::probe::{
    Corruption, Counter, Hist, NoopProbe, Phase, Probe, RekeyCause, Scope, TraceEvent,
};
use crate::scoreboard::Scoreboard;
use crate::select::{compare, deciding_tier, ranks_first, DecidingTier, EdgeKey};
use crate::session::SnapshotStats;
use crate::tentative::{tentative_length_um, EdgeSet, ShortestPaths, TreeDeps};

/// One tentative tree cached for a net: its wire state, the edges it
/// depends on, and the delay prefix memoized for it.
#[derive(Debug, Clone)]
struct CachedTree {
    wire: HypWire,
    deps: EdgeSet,
    /// `C_d/Gl/LD` at [`NetScanState::sta_stamp`] (constrained nets
    /// only).
    delay: Option<DelayCriteria>,
}

impl CachedTree {
    fn new(sta: &Sta, net: NetId, tree: Option<TreeDeps>) -> Self {
        let tree =
            tree.expect("§3.2 invariant: deleting a non-bridge edge keeps the net connected");
        let (cl_ff, rc_ps) = sta.lengths().wire_terms_at(net, tree.length_um);
        Self {
            wire: HypWire {
                length_um: tree.length_um,
                cl_ff,
                rc_ps,
            },
            deps: tree.deps,
            delay: None,
        }
    }
}

/// The mutable state one champion scan needs, kept per net.
///
/// It holds the net's shortest-path search, its *current* tentative
/// tree and, per edge the current tree depends on, the *hypothetical*
/// tree assuming that edge deleted, found by re-settling only the
/// subtree the edge detaches ([`ShortestPaths::tree_without`]). Every
/// other edge's hypothetical tree is the current one, so its key needs
/// no search and shares the current tree's delay prefix. A deletion
/// keeps every cached tree that does not depend on a deleted edge
/// ([`NetScanState::retain_after`]); any other graph change (reroute,
/// snapshot restore) drops everything. The rules are exact — see
/// [`ShortestPaths`] — and [`Engine::audit_state`] checks them against
/// full searches. The search itself lives for one scan
/// ([`scan_raw_keys`]), which builds the hypothetical trees of only the
/// edges whose floor keys could still win their lane. A later scan that
/// must evaluate one of the others, or an edge whose tree a deletion
/// dropped, searches again and re-settles that edge's subtree: nothing
/// of a dropped tree is kept.
///
/// Delay prefixes are memoized per tree, stamped with the *sum* of
/// [`Sta::constraint_generation`] over the net's constraints: each
/// refresh strictly increases one term, so the sum is strictly
/// monotonic and can never alias a previous state. Density-only
/// invalidations move neither stamp, so their re-keys skip the delay
/// criteria entirely.
///
/// Trunk edges' density windows are cached for one scoreboard run
/// ([`NetScanState::window`]): a window is re-read only when a span the
/// current deletion touched overlaps it (DESIGN.md §8, "Density-window
/// reuse"). So are the lanes' live trunk extents, which decide whether
/// a touched span dirties a lane at all.
#[derive(Debug, Default)]
struct NetScanState {
    /// Graph generation the cached state was taken at.
    stamp: u64,
    /// Summed constraint generations the memoized delays belong to.
    sta_stamp: u64,
    /// The driver-rooted search of the current graph, kept for one scan
    /// of the net.
    paths: Option<ShortestPaths>,
    /// The net's current tentative tree.
    current: Option<CachedTree>,
    /// Per edge: the tentative tree assuming that edge deleted (empty
    /// until the net's first delay key).
    hyp: Vec<Option<Box<CachedTree>>>,
    /// The net's lanes ([`LaneIndex`]), built for its first scan
    /// (`Engine::index_lanes`): a net that is a tree whenever a run
    /// opens is never scanned.
    lanes: LaneIndex,
    /// Scoreboard run the cached windows belong to.
    window_run: u64,
    /// Per edge: its density window, cached during run `window_run`
    /// (trunk edges only).
    windows: Vec<Option<EdgeDensity>>,
    /// Per lane: the half-open extent `[lo, hi)` of its deletable
    /// (alive, non-bridge) trunk edges at its last scan during run
    /// `window_run`; the empty sentinel [`NO_EXTENT`] when it has none.
    extents: Vec<(i32, i32)>,
}

/// The empty extent `(MAX, MIN)`: overlaps no span.
const NO_EXTENT: (i32, i32) = (i32::MAX, i32::MIN);

/// A net's *lanes*: its edges grouped by the scoreboard heap they key
/// into (`None` = the channelless feed heap), heaps in order of first
/// appearance, edges ascending. One CSR array holds every lane's edges:
/// lane `l`'s run from `heads[l].1` to the next lane's start (the last
/// to the end). Static: edge sets never grow.
#[derive(Debug, Default)]
struct LaneIndex {
    /// Per lane: its heap and the start of its edges in `edges`.
    heads: Vec<(Option<ChannelId>, u32)>,
    edges: Vec<u32>,
}

impl LaneIndex {
    fn new(g: &RoutingGraph) -> Self {
        // Count each lane's edges into its head (heads in order of first
        // appearance), sum the counts into each lane's end, then fill
        // from the last edge down, which leaves every head at its lane's
        // start.
        let mut heads: Vec<(Option<ChannelId>, u32)> = Vec::new();
        for edge in g.edges() {
            let heap = edge.kind.channel();
            match heads.iter_mut().find(|(h, _)| *h == heap) {
                Some((_, n)) => *n += 1,
                None => heads.push((heap, 1)),
            }
        }
        let mut end = 0;
        for (_, n) in &mut heads {
            end += *n;
            *n = end;
        }
        let mut edges = vec![0; g.edges().len()];
        for (e, edge) in g.edges().iter().enumerate().rev() {
            let heap = edge.kind.channel();
            let (_, at) = heads
                .iter_mut()
                .find(|(h, _)| *h == heap)
                .expect("every heap was counted");
            *at -= 1;
            edges[*at as usize] = e as u32;
        }
        Self { heads, edges }
    }

    fn len(&self) -> usize {
        self.heads.len()
    }

    /// Every lane's heap and edges, in lane order.
    fn iter(&self) -> impl Iterator<Item = (Option<ChannelId>, &[u32])> {
        self.heads.iter().enumerate().map(|(l, &(heap, start))| {
            let end = self
                .heads
                .get(l + 1)
                .map_or(self.edges.len(), |&(_, s)| s as usize);
            (heap, &self.edges[start as usize..end])
        })
    }
}

impl NetScanState {
    /// A fresh state with `g`'s lanes built, for a one-off scan.
    fn new(g: &RoutingGraph) -> Self {
        Self {
            lanes: LaneIndex::new(g),
            ..Self::default()
        }
    }

    /// Drops every cached window and extent unless they were taken
    /// during `run`.
    fn sync_windows(&mut self, run: u64, edges: usize) {
        if self.window_run != run {
            self.windows.clear();
            self.extents.clear();
            self.window_run = run;
        }
        self.windows.resize(edges, None);
        self.extents.resize(self.lanes.len(), NO_EXTENT);
    }

    /// Trunk edge `e`'s density window over `[x1, x2)` of `channel`:
    /// the cached one unless a span in `touched` (the current
    /// deletion's) overlaps it. Exact: a range-add moves no column
    /// outside its range, and the lane of every deletable overlapped
    /// edge is re-keyed at that deletion (its live extent contains the
    /// edge), so no stale window survives a re-key.
    fn window(
        &mut self,
        density: &DensityMap,
        e: u32,
        (channel, x1, x2): (ChannelId, i32, i32),
        touched: &[(ChannelId, i32, i32)],
        probe: &mut impl Probe,
    ) -> EdgeDensity {
        let slot = &mut self.windows[e as usize];
        let moved = touched
            .iter()
            .any(|&(tc, a, b)| tc == channel && a < x2 && x1 < b);
        match slot {
            Some(w) if !moved => *w,
            _ => {
                probe.count(Counter::DensityWindowQuery, 1);
                let w = density.edge_density(channel, x1, x2);
                *slot = Some(w);
                w
            }
        }
    }

    /// Drops everything cached if the graph moved since it was taken.
    fn sync_graph(&mut self, g: &RoutingGraph) {
        if self.stamp != g.generation() {
            self.paths = None;
            self.current = None;
            self.hyp.fill(None);
            self.stamp = g.generation();
        }
    }

    /// The graph went from generation `before` to its current one by
    /// losing exactly the edges `deleted`: keeps the trees that provably
    /// did not change (see the type docs).
    fn retain_after(&mut self, g: &RoutingGraph, before: u64, deleted: &[u32]) {
        if self.stamp != before {
            self.sync_graph(g);
            return;
        }
        self.paths = None;
        let keep = |t: &CachedTree| !deleted.iter().any(|&e| t.deps.contains(e));
        if !self.current.as_ref().is_some_and(keep) {
            self.current = None;
        }
        for slot in &mut self.hyp {
            if !slot.as_deref().is_some_and(keep) {
                *slot = None;
            }
        }
        self.stamp = g.generation();
    }

    /// The net's current tentative tree, searched only if no cached one
    /// survived and the graph still has a deletable edge: a routed tree
    /// is its own tentative tree ([`TreeDeps::routed`]). The search is
    /// kept only for nets whose keys carry delay criteria (the first
    /// [`NetScanState::delay`] allocates `hyp`): other nets never ask for
    /// a hypothetical tree.
    fn current_tree(&mut self, g: &RoutingGraph, sta: &Sta, net: NetId) -> &CachedTree {
        self.sync_graph(g);
        if self.current.is_none() {
            let tree = if g.has_non_bridge() {
                let search = || ShortestPaths::search(g, None);
                let paths = self.paths.take().unwrap_or_else(search);
                let tree = paths.tree(g);
                if !self.hyp.is_empty() {
                    self.paths = Some(paths);
                }
                tree
            } else {
                Some(TreeDeps::routed(g))
            };
            self.current = Some(CachedTree::new(sta, net, tree));
        }
        self.current.as_ref().expect("filled above")
    }

    /// The delay prefix of deleting `e`, through the per-tree memo. Only
    /// called for constrained nets.
    fn delay(
        &mut self,
        g: &RoutingGraph,
        sta: &Sta,
        net: NetId,
        e: u32,
        probe: &mut impl Probe,
    ) -> DelayCriteria {
        self.alloc_hyp(g);
        let depends = self.current_tree(g, sta, net).deps.contains(e);
        let sta_stamp = net_timing_stamp(sta, net);
        if self.sta_stamp != sta_stamp {
            for t in self.hyp.iter_mut().flatten() {
                t.delay = None;
            }
            if let Some(t) = &mut self.current {
                t.delay = None;
            }
            self.sta_stamp = sta_stamp;
        }
        let own = depends || self.hyp[e as usize].is_some();
        let cached = if own {
            self.hyp[e as usize].as_deref()
        } else {
            self.current.as_ref()
        };
        if let Some(d) = cached.and_then(|t| t.delay) {
            probe.count(Counter::DelayMemoHit, 1);
            return d;
        }
        probe.count(Counter::DelayMemoMiss, 1);
        if cached.is_some() {
            probe.count(Counter::HypCacheHit, 1);
        } else {
            probe.count(Counter::HypCacheMiss, 1);
            self.sync_graph(g);
            let paths = self.paths.get_or_insert_with(|| {
                probe.count(Counter::HypSearch, 1);
                ShortestPaths::search(g, None)
            });
            let (tree, resettled) = paths.tree_without(g, e);
            probe.count(Counter::HypResettled, resettled.into());
            self.hyp[e as usize] = Some(Box::new(CachedTree::new(sta, net, tree)));
        }
        let tree = if own {
            self.hyp[e as usize].as_deref_mut()
        } else {
            self.current.as_mut()
        };
        let tree = tree.expect("filled above");
        let d = DelayCriteria::evaluate(sta, net, &tree.wire);
        tree.delay = Some(d);
        d
    }

    /// Marks the net as one whose keys carry delay criteria: sizes
    /// `hyp`, so [`NetScanState::current_tree`] keeps its search.
    fn alloc_hyp(&mut self, g: &RoutingGraph) {
        if self.hyp.is_empty() {
            self.hyp.resize(g.edges().len(), None);
        }
    }

    /// Whether the delay prefix of deleting `e` needs a hypothetical
    /// tree that is not cached: `e` is an edge of the current tree and
    /// its own tree was not kept. Only called for constrained nets.
    fn needs_tree(&mut self, g: &RoutingGraph, sta: &Sta, net: NetId, e: u32) -> bool {
        self.alloc_hyp(g);
        self.current_tree(g, sta, net).deps.contains(e) && self.hyp[e as usize].is_none()
    }

    /// The hypothetical length the scan uses for deleting `e` — cached,
    /// shared with the current tree, or re-settled from the current
    /// search — which [`Engine::audit_state`] checks against a full
    /// search.
    fn hyp_length_um(&self, g: &RoutingGraph, e: u32) -> Option<f64> {
        let synced = self.stamp == g.generation();
        if synced {
            if let Some(t) = self.hyp.get(e as usize).and_then(Option::as_ref) {
                return Some(t.wire.length_um);
            }
            if let Some(t) = self.current.as_ref().filter(|t| !t.deps.contains(e)) {
                return Some(t.wire.length_um);
            }
        }
        let mut paths = match &self.paths {
            Some(p) if synced => p.clone(),
            _ => ShortestPaths::search(g, None),
        };
        paths.tree_without(g, e).0.map(|t| t.length_um)
    }
}

/// The summed constraint-generation stamp of `net` (see
/// [`NetScanState`]).
fn net_timing_stamp(sta: &Sta, net: NetId) -> u64 {
    sta.constraints_of_net(net)
        .iter()
        .map(|&cid| sta.constraint_generation(cid as usize))
        .sum()
}

/// Builds the full comparison key for a deletable edge of `net`.
fn scan_edge_key(
    g: &RoutingGraph,
    density: &DensityMap,
    sta: &Sta,
    net: NetId,
    e: u32,
    state: &mut NetScanState,
    probe: &mut impl Probe,
) -> EdgeKey {
    probe.count(Counter::KeyEval, 1);
    let delay = if sta.constraints_of_net(net).is_empty() {
        DelayCriteria::default()
    } else {
        state.delay(g, sta, net, e, probe)
    };
    let edge = g.edges()[e as usize];
    let (is_trunk, f_min, n_min, f_max, n_max) = match edge.kind {
        REdgeKind::Trunk { channel } => {
            probe.count(Counter::DensityWindowQuery, 1);
            probe.count(Counter::DensityAggregateQuery, 1);
            let ed = density.edge_density(channel, edge.x1, edge.x2);
            (
                true,
                density.c_min(channel) - ed.d_min,
                density.nc_min(channel) - ed.nd_min,
                density.c_max(channel) - ed.d_max,
                density.nc_max(channel) - ed.nd_max,
            )
        }
        REdgeKind::Branch { channel } => {
            probe.count(Counter::DensityAggregateQuery, 1);
            (
                false,
                density.c_min(channel),
                density.nc_min(channel),
                density.c_max(channel),
                density.nc_max(channel),
            )
        }
        REdgeKind::FeedHalf { .. } => (false, 0, 0, 0, 0),
    };
    EdgeKey {
        delay,
        is_trunk,
        f_min,
        n_min,
        f_max,
        n_max,
        len_um: edge.len_um,
        net,
        edge: e,
    }
}

/// `net`'s *champion*: the minimum key over its deletable edges, found
/// with the first-wins linear scan ([`ranks_first`]) shared by both
/// selection strategies.
fn scan_champion(
    g: &RoutingGraph,
    density: &DensityMap,
    sta: &Sta,
    net: NetId,
    order: CriteriaOrder,
    state: &mut NetScanState,
    probe: &mut impl Probe,
) -> Option<EdgeKey> {
    let mut best: Option<EdgeKey> = None;
    for e in 0..g.edges().len() as u32 {
        if !g.is_alive(e) || g.is_bridge(e) {
            continue;
        }
        let key = scan_edge_key(g, density, sta, net, e, state, probe);
        if ranks_first(&key, best.as_ref(), order) {
            best = Some(key);
        }
    }
    // A full scan: every deletable edge's tree is cached now, so unlike
    // after a bound-first `scan_raw_keys` the next scan of the same graph
    // needs no search.
    state.paths = None;
    best
}

/// What every re-key scan of one deletion shares: the state read
/// immutably, the criteria order, the scoreboard run (for the window
/// cache), the spans the current deletion touched, and whether lane
/// scans are bound-first (`prune`; only the scoreboard audit scans
/// every edge exactly, so it does not check the pruning against itself).
struct RawScan<'a> {
    density: &'a DensityMap,
    sta: &'a Sta,
    order: CriteriaOrder,
    run: u64,
    touched: &'a [(ChannelId, i32, i32)],
    prune: bool,
}

/// Builds the **raw** (composition-free) key for a deletable edge of
/// `net` with the given delay prefix. Raw trunk keys carry the
/// *negated* own window terms, so adding the channel aggregates at pop
/// time yields exactly [`scan_edge_key`]'s composed values; branch and
/// feed keys carry zero density terms (see the scoreboard docs).
fn raw_key(
    g: &RoutingGraph,
    net: NetId,
    e: u32,
    delay: DelayCriteria,
    cx: &RawScan<'_>,
    state: &mut NetScanState,
    probe: &mut impl Probe,
) -> EdgeKey {
    let edge = g.edges()[e as usize];
    let (is_trunk, f_min, n_min, f_max, n_max) = match edge.kind {
        REdgeKind::Trunk { channel } => {
            let span = (channel, edge.x1, edge.x2);
            let ed = state.window(cx.density, e, span, cx.touched, probe);
            (true, -ed.d_min, -ed.nd_min, -ed.d_max, -ed.nd_max)
        }
        REdgeKind::Branch { .. } | REdgeKind::FeedHalf { .. } => (false, 0, 0, 0, 0),
    };
    EdgeKey {
        delay,
        is_trunk,
        f_min,
        n_min,
        f_max,
        n_max,
        len_um: edge.len_um,
        net,
        edge: e,
    }
}

/// A set of one net's lanes ([`NetScanState::lanes`]) as a bit mask.
/// Lanes from the 64th on share the top bit, which only ever re-keys
/// more heaps than needed — still exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lanes(u64);

impl Lanes {
    const ALL: Lanes = Lanes(u64::MAX);
    const NONE: Lanes = Lanes(0);

    fn bit(lane: usize) -> u64 {
        1 << lane.min(63)
    }

    fn with(self, lane: usize) -> Lanes {
        Lanes(self.0 | Self::bit(lane))
    }

    fn contains(self, lane: usize) -> bool {
        self.0 & Self::bit(lane) != 0
    }
}

/// The scoreboard re-key payload of `net` over the selected `lanes`:
/// per lane, its heap and the **minimum** raw key over its deletable
/// (alive, non-bridge) edges, `None` when it has none. Only one key per
/// heap is kept: composition adds the same aggregates to every key of a
/// heap, so a net's dominated raw keys there can never become its
/// champion — pushing them would only bloat the heaps (ties cannot
/// occur: [`crate::select::compare`] ends in a net/edge id tie-break).
///
/// For a constrained net the scan is *bound-first* (with `cx.prune`).
/// It keys exactly every edge whose delay prefix needs no new tree (off
/// the current tree, or with its tree cached) and gives every other edge
/// its floor key: the net's [`DelayCriteria::floor`] with the edge's own
/// density tail, which ranks no later than its real key. It then
/// evaluates those edges in floor-key order while the floor still ranks
/// strictly before the lane's best, and stops at the first that does
/// not: neither that edge nor any later one can displace the best
/// (DESIGN.md §8, "Bound-first lane scans"). The edges left at their
/// floor build no tree. Nets without constraints key every edge in one
/// pass.
///
/// `deferred` is the scratch for one lane's floor keys, empty between
/// scans; the engine reuses one for every net.
///
/// The same walk records each scanned lane's live trunk extent
/// ([`NetScanState::extents`]), which [`derive_dirty`] tests touched
/// spans against; it reads the window of every deletable trunk edge,
/// pruned or not. Non-deletable edges drop their cached windows: they
/// are never read again in this run, and dropping them keeps every
/// cached window exact for [`Engine::audit_state`].
fn scan_raw_keys(
    g: &RoutingGraph,
    net: NetId,
    lanes: Lanes,
    cx: &RawScan<'_>,
    state: &mut NetScanState,
    deferred: &mut Vec<EdgeKey>,
    probe: &mut impl Probe,
) -> Vec<(Option<ChannelId>, Option<EdgeKey>)> {
    debug_assert!(
        state.lanes.len() > 0 || g.edges().is_empty(),
        "scanning a net whose lanes are not built"
    );
    state.sync_windows(cx.run, g.edges().len());
    let constrained = !cx.sta.constraints_of_net(net).is_empty();
    let floor = (constrained && cx.prune).then(|| DelayCriteria::floor(cx.sta, net));
    let mut out = Vec::new();
    // The lane lists are static; take them out so the scan can borrow
    // the rest of the state mutably.
    let all = std::mem::take(&mut state.lanes);
    for (lane, (heap, edges)) in all.iter().enumerate() {
        if !lanes.contains(lane) {
            continue;
        }
        let mut best: Option<EdgeKey> = None;
        let (mut lo, mut hi) = NO_EXTENT;
        for &e in edges {
            if !g.is_alive(e) || g.is_bridge(e) {
                state.windows[e as usize] = None;
                continue;
            }
            let edge = &g.edges()[e as usize];
            if matches!(edge.kind, REdgeKind::Trunk { .. }) {
                lo = lo.min(edge.x1);
                hi = hi.max(edge.x2);
            }
            probe.count(Counter::KeyEval, 1);
            let bound = floor.filter(|_| state.needs_tree(g, cx.sta, net, e));
            let delay = match bound {
                Some(floor) => floor,
                None if constrained => state.delay(g, cx.sta, net, e, probe),
                None => DelayCriteria::default(),
            };
            let key = raw_key(g, net, e, delay, cx, state, probe);
            if bound.is_some() {
                deferred.push(key);
            } else if ranks_first(&key, best.as_ref(), cx.order) {
                best = Some(key);
            }
        }
        if floor.is_some() {
            deferred.sort_unstable_by(|a, b| compare(a, b, cx.order));
            let mut pruned = deferred.len() as u64;
            for mut key in deferred.drain(..) {
                if !ranks_first(&key, best.as_ref(), cx.order) {
                    break;
                }
                pruned -= 1;
                key.delay = state.delay(g, cx.sta, net, key.edge, probe);
                if ranks_first(&key, best.as_ref(), cx.order) {
                    best = Some(key);
                }
            }
            probe.count(Counter::DelayPruned, pruned);
        }
        state.extents[lane] = (lo, hi);
        out.push((heap, best));
    }
    state.lanes = all;
    // The search lives for one scan; a later scan that must evaluate an
    // edge this one left at its floor searches again.
    state.paths = None;
    out
}

/// One net's entry in a channel of [`Engine::channel_nets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChannelNet {
    net: NetId,
    /// The net's lane for the channel's heap.
    lane: usize,
}

/// One net of a deletion's dirty set: its attributed cause and the
/// lanes to re-key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dirty {
    net: NetId,
    cause: RekeyCause,
    lanes: Lanes,
}

/// Derives the dirty set of one deletion in one pass, with a
/// **deterministic per-net cause attribution**: a net dirty for several
/// reasons is returned once, attributed to the highest-precedence cause
/// — [`RekeyCause::Graph`] > [`RekeyCause::SpanOverlap`] >
/// [`RekeyCause::Constraint`] — independent of the order channels were
/// touched in (DESIGN.md §9). Returns the nets in ascending id order.
///
/// The lanes to re-key are the *union* over the causes: every lane of a
/// net whose graph or constraints moved, and for a net dirty by span
/// overlap alone only the lanes whose live trunk `extent` a touched
/// span overlaps — the other heaps' keys read nothing that moved.
///
/// The extent is the one a lane's last scan recorded. That is current
/// for every net a span can dirty: a lane's deletable set changes only
/// with its net's graph, which re-keys every lane of the net (the graph
/// clause), and each scoreboard run starts by re-keying every in-scope
/// lane of every net with a deletable edge. A tree's lanes, not scanned
/// in the run, have none, and the caller reads them as empty.
///
/// Aggregate motion is *not* a dirty cause: raw keys carry no
/// aggregates, so a channel whose aggregates moved only needs its
/// heap's cached top recomposed, which the graph clause's re-key of
/// the deleted net already forces (see the module docs).
///
/// Each argument is one clause of the dirty-set derivation (§8); they
/// stay separate so the signature reads as the specification.
fn derive_dirty<'a>(
    in_scope: &[bool],
    graph_nets: &[NetId],
    spans: &[(ChannelId, i32, i32)],
    channel_nets: &[Vec<ChannelNet>],
    extent: impl Fn(ChannelNet) -> (i32, i32),
    refreshed_constraints: &[u32],
    nets_of_constraint: impl Fn(usize) -> &'a [NetId],
) -> Vec<Dirty> {
    let mut dirty: BTreeMap<NetId, (RekeyCause, Lanes)> = BTreeMap::new();
    // Insertion passes run in precedence order; `or_insert` keeps the
    // first (highest-precedence) attribution.
    for &n in graph_nets {
        if in_scope[n.index()] {
            dirty.insert(n, (RekeyCause::Graph, Lanes::ALL));
        }
    }
    for &(c, x1, x2) in spans {
        // A touched span moves the density profile over `[x1, x2)`;
        // only deletable trunks overlapping it can have changed raw
        // window terms. Lanes without any carry the empty extent and
        // never match.
        for &cn in &channel_nets[c.index()] {
            if !in_scope[cn.net.index()] {
                continue;
            }
            let (lo, hi) = extent(cn);
            if lo < x2 && x1 < hi {
                let slot = dirty
                    .entry(cn.net)
                    .or_insert((RekeyCause::SpanOverlap, Lanes::NONE));
                slot.1 = slot.1.with(cn.lane);
            }
        }
    }
    for &cid in refreshed_constraints {
        for &n in nets_of_constraint(cid as usize) {
            if in_scope[n.index()] {
                dirty
                    .entry(n)
                    .or_insert((RekeyCause::Constraint, Lanes::ALL))
                    .1 = Lanes::ALL;
            }
        }
    }
    dirty
        .into_iter()
        .map(|(net, (cause, lanes))| Dirty { net, cause, lanes })
        .collect()
}

/// Outcome of one [`Engine::continue_deletion`] slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeletionRun {
    /// Selections performed by this slice (not counting the `start`
    /// offset).
    pub selections: u64,
    /// `true` when the in-scope candidate pool drained — every in-scope
    /// graph is all-bridges — rather than the slice stopping at `stop`.
    pub complete: bool,
}

/// Mutable routing state shared by the initial-routing and improvement
/// phases.
///
/// Generic over the [`Probe`] observing it; the default [`NoopProbe`]
/// compiles every instrumentation site away (see [`crate::probe`]).
#[derive(Debug)]
pub struct Engine<P: Probe = NoopProbe> {
    graphs: Vec<RoutingGraph>,
    density: DensityMap,
    sta: Sta,
    /// Per-net scan state (hyp cache + delay memo).
    scan: Vec<NetScanState>,
    partner: Vec<Option<NetId>>,
    /// Reverse index: per channel, every net owning at least one trunk
    /// or branch edge there, with its lane there — registered by the
    /// net's first scan, which builds its lanes. Edge sets never grow, so
    /// an entry needs no maintenance; whether a touched span dirties the
    /// lane is decided by its live extent ([`Engine::lane_extent`]). A
    /// net not registered yet has never been scanned, so it has been a
    /// tree at every run's start and since, and its extents read empty.
    channel_nets: Vec<Vec<ChannelNet>>,
    /// Scoreboard run counter, bumped on entry to and exit from every
    /// scoreboard run: cached density windows are valid only within the
    /// run they were read in, and none is current between runs.
    window_run: u64,
    selection: SelectionStrategy,
    /// Density spans touched during the current deletion (scratch,
    /// drained by the scoreboard loop).
    delta_spans: Vec<(ChannelId, i32, i32)>,
    /// Constraints the analyzer refreshed during the current deletion.
    delta_cons: Vec<u32>,
    /// Scratch of the bound-first lane scans ([`scan_raw_keys`]), shared
    /// by every net and empty between scans.
    deferred: Vec<EdgeKey>,
    /// Nets whose graph changed during the current deletion.
    delta_nets: Vec<NetId>,
    /// Work arrays of every graph walk the engine runs (deletions,
    /// rip-ups, restores).
    scratch: GraphScratch,
    /// The route's cumulative deterministic counters. The engine
    /// advances the work counters (the selection log — the audit trail
    /// compared across strategies by the oracle tests — deletions,
    /// reroutes, passed self-audits); a session fills in the setup
    /// counts at start and restores the whole record on resume.
    pub stats: SnapshotStats,
    /// Self-audit level ([`Engine::set_verify`]); `Off` emits nothing.
    verify: VerifyLevel,
    /// Injected [`Corruption::StaleChampion`] net: re-keying silently
    /// drops its fresh candidates. Always `None` outside fault tests.
    frozen: Option<NetId>,
    /// Injected [`Corruption::SkewDelay`] bias: `refresh_length` adds
    /// the extra to this net's memoized length. Always `None` outside
    /// fault tests.
    skew: Option<(NetId, f64)>,
    /// The instrumentation sink.
    probe: P,
}

impl<P: Probe> Engine<P> {
    /// Creates an engine over graphs already settled
    /// ([`RoutingGraph::settle`]: pruned, with current bridge flags),
    /// observed by `probe` (moved in; retrieve it with
    /// [`Engine::into_parts`] or borrow via [`Engine::probe_mut`]).
    ///
    /// `partner[net]` marks differential-pair lockstep partners whose
    /// graphs have been verified homogeneous (§4.1); deletions cascade to
    /// them.
    ///
    /// Every graph's total edge length must stay below 2⁴² µm, so that
    /// its length sums are exact (checked in debug builds; a session
    /// rejects a longer graph with [`crate::RouteError::GraphTooLong`]).
    /// The density map is built in bulk from every net's trunk spans, and
    /// every constrained net's length memoized; a net that already is a
    /// routed tree gets its length from its alive edges, with no search
    /// ([`NetScanState::current_tree`]).
    pub(crate) fn from_settled(
        graphs: Vec<RoutingGraph>,
        sta: Sta,
        partner: Vec<Option<NetId>>,
        num_channels: usize,
        chip_width: usize,
        probe: P,
    ) -> Self {
        debug_assert!(
            graphs.iter().all(RoutingGraph::within_length_cap),
            "a routing graph's total length reaches the 2^42 um cap"
        );
        let mut engine = Self {
            density: DensityMap::from_graphs(num_channels, chip_width, &graphs),
            scan: std::iter::repeat_with(NetScanState::default)
                .take(graphs.len())
                .collect(),
            graphs,
            sta,
            partner,
            channel_nets: vec![Vec::new(); num_channels],
            window_run: 0,
            selection: SelectionStrategy::default(),
            delta_spans: Vec::new(),
            delta_cons: Vec::new(),
            delta_nets: Vec::new(),
            deferred: Vec::new(),
            scratch: GraphScratch::default(),
            stats: SnapshotStats::default(),
            verify: VerifyLevel::Off,
            frozen: None,
            skew: None,
            probe,
        };
        for i in 0..engine.graphs.len() {
            engine.refresh_length(NetId::new(i));
        }
        engine.clear_delta();
        engine
    }

    /// The instrumentation sink (e.g. to emit phase markers).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// The instrumentation sink, immutably.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The routing graphs, indexed by net.
    pub fn graphs(&self) -> &[RoutingGraph] {
        &self.graphs
    }

    /// The density map.
    pub fn density(&self) -> &DensityMap {
        &self.density
    }

    /// The timing analyzer. Its wire lengths are tracked only for the
    /// nets some constraint graph loads ([`Sta::constraints_of_net`]
    /// non-empty); every other net keeps the length the analyzer was
    /// built with, which no margin, arrival or critical path reads. Take
    /// a net's length from its graph instead
    /// ([`tentative_length_um`], [`RoutingGraph::alive_length_um`]).
    pub(crate) fn sta(&self) -> &Sta {
        &self.sta
    }

    /// Lockstep partner of a net, if any.
    pub fn partner(&self, net: NetId) -> Option<NetId> {
        self.partner[net.index()]
    }

    /// Selects the candidate-selection strategy for subsequent
    /// [`Engine::run_deletion`] calls. Both strategies produce identical
    /// deletion sequences; `FullRescan` is the testing oracle.
    pub fn set_selection(&mut self, selection: SelectionStrategy) {
        self.selection = selection;
    }

    /// Selects the self-audit level. `Steps` audits inside the deletion
    /// loops; `Phases`/`Final` audits are driven by the router at phase
    /// boundaries. The default `Off` performs and emits nothing, so
    /// traces stay byte-identical to an unverified run.
    pub fn set_verify(&mut self, verify: VerifyLevel) {
        self.verify = verify;
    }

    fn clear_delta(&mut self) {
        self.delta_spans.clear();
        self.delta_cons.clear();
        self.delta_nets.clear();
    }

    /// Memoizes `net`'s current tentative length in the analyzer and
    /// records the constraints that refresh. A net no constraint graph
    /// loads returns at once: no analyzer read reaches its length, so
    /// it is never tracked and searches no current tree.
    fn refresh_length(&mut self, net: NetId) {
        if self.sta.constraints_of_net(net).is_empty() {
            return;
        }
        let ni = net.index();
        let mut len = self.scan[ni]
            .current_tree(&self.graphs[ni], &self.sta, net)
            .wire
            .length_um;
        if P::ENABLED {
            // SkewDelay injection lives *inside* the refresh so
            // improvement-phase snapshots/restores (which re-refresh)
            // cannot wash the corruption out.
            if let Some((n, extra)) = self.skew {
                if n == net {
                    len += extra;
                }
            }
        }
        if self.sta.set_net_length(net, len) {
            self.delta_cons
                .extend_from_slice(self.sta.constraints_of_net(net));
        }
    }

    /// Polls the probe for an injected state corruption and applies it
    /// to the incremental structures. Compiles away entirely under the
    /// default disabled probe; only fault-injection tests ever take the
    /// corruption branch.
    fn apply_corruption(&mut self) {
        if !P::ENABLED {
            return;
        }
        let Some(c) = self.probe.corruption() else {
            return;
        };
        match c {
            Corruption::FlipDensitySpan {
                channel,
                x1,
                x2,
                width,
            } => {
                // A phantom span added without logging it: no
                // re-keying — the incremental profile silently drifts
                // from what the alive trees imply.
                if (channel as usize) < self.density.num_channels() {
                    self.density
                        .add_span(ChannelId::new(channel as usize), x1, x2, width, false);
                }
            }
            Corruption::StaleChampion { net } => self.frozen = Some(net),
            Corruption::SkewDelay { net, extra_um } => {
                let first = self.skew.is_none();
                self.skew = Some((net, extra_um));
                if first {
                    self.refresh_length(net);
                }
            }
        }
    }

    /// Recomputes the density profile, every net's prune closure and
    /// bridge flags, the memoized length of every net a constraint loads
    /// and every deletable edge's hypothetical length from scratch and
    /// compares them against the incremental state. Returns the number
    /// of comparisons performed.
    ///
    /// The density check compares both whole profiles column by column
    /// (so a phantom span below the channel peak cannot hide behind
    /// unchanged aggregates) and asserts `0 ≤ d_m(x) ≤ d_M(x)`. Cached
    /// density windows of the current scoreboard run are checked against
    /// the map too, and every lane's live trunk extent against one
    /// recomputed from the graph (every in-scope net was scanned in the
    /// current run); those checks are not counted, because only the
    /// scoreboard path keeps them and the count must not depend on the
    /// selection strategy.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first divergence; under
    /// [`crate::GlobalRouter::route_checked`] the panic surfaces as
    /// [`crate::RouteError::Internal`].
    pub fn audit_state(&self) -> u64 {
        let mut checks = 0u64;
        let mut fresh = DensityMap::new(self.density.num_channels(), self.density.width());
        for g in &self.graphs {
            fresh.apply_net(g, 1);
        }
        let (got_max, want_max) = (self.density.snapshot_max(), fresh.snapshot_max());
        let (got_min, want_min) = (self.density.snapshot_min(), fresh.snapshot_min());
        for c in 0..self.density.num_channels() {
            let profiles = [
                ("d_M", &got_max[c], &want_max[c]),
                ("d_m", &got_min[c], &want_min[c]),
            ];
            for (name, got, want) in profiles {
                checks += got.len() as u64;
                if let Some(x) = (0..got.len()).find(|&x| got[x] != want[x]) {
                    panic!(
                        "self-audit: density profile {name} of channel {c} diverged at column \
                         {x}: incremental {}, from-scratch {}",
                        got[x], want[x]
                    );
                }
            }
            if let Some(x) =
                (0..got_max[c].len()).find(|&x| !(0..=got_max[c][x]).contains(&got_min[c][x]))
            {
                panic!(
                    "self-audit: density bounds of channel {c} broken at column {x}: \
                     d_m {} outside [0, d_M {}]",
                    got_min[c][x], got_max[c][x]
                );
            }
        }
        for (i, (g, state)) in self.graphs.iter().zip(&self.scan).enumerate() {
            if state.window_run != self.window_run {
                continue;
            }
            for ((heap, edges), &got) in state.lanes.iter().zip(&state.extents) {
                let want = edges
                    .iter()
                    .filter(|&&e| g.is_alive(e) && !g.is_bridge(e))
                    .map(|&e| &g.edges()[e as usize])
                    .filter(|edge| matches!(edge.kind, REdgeKind::Trunk { .. }))
                    .fold(NO_EXTENT, |(lo, hi), edge| {
                        (lo.min(edge.x1), hi.max(edge.x2))
                    });
                assert!(
                    got == want,
                    "self-audit: live trunk extent of net {i} in heap {heap:?} diverged: \
                     stored {got:?}, from-scratch {want:?}"
                );
            }
            for (e, w) in state.windows.iter().enumerate() {
                let (Some(w), REdgeKind::Trunk { channel }) = (w, g.edges()[e].kind) else {
                    continue;
                };
                let edge = &g.edges()[e];
                let want = self.density.edge_density(channel, edge.x1, edge.x2);
                assert!(
                    *w == want,
                    "self-audit: cached density window of net {i} edge {e} diverged: \
                     cached {w:?}, map {want:?}"
                );
            }
        }
        for (i, g) in self.graphs.iter().enumerate() {
            // The local prune and bridge pass of every deletion against
            // a whole-graph prune check and low-link.
            checks += 1;
            assert!(
                g.prune_closed(),
                "self-audit: net {i} keeps a dangling non-terminal vertex"
            );
            let mut fresh = g.clone();
            fresh.recompute_bridges();
            checks += 1;
            if let Some(e) = g
                .alive_edges()
                .find(|&e| g.is_bridge(e) != fresh.is_bridge(e))
            {
                panic!(
                    "self-audit: bridge flag of net {i} edge {e} diverged: \
                     incremental {}, whole-graph low-link {}",
                    g.is_bridge(e),
                    fresh.is_bridge(e)
                );
            }
            let net = NetId::new(i);
            if !self.sta.constraints_of_net(net).is_empty() {
                let want = tentative_length_um(g, None)
                    .expect("audited graphs stay connected (§3.2 invariant)");
                let got = self.sta.lengths().length_um(net);
                checks += 1;
                assert!(
                    got == want,
                    "self-audit: memoized length of net {i} diverged: \
                     incremental {got} um, from-scratch {want} um"
                );
            }
            // The hypothetical length of every deletable edge — cached,
            // shared with the current tree, or searched with dependency
            // tracking — must be bit-identical to a full search.
            for e in g.non_bridge_edges() {
                let want = tentative_length_um(g, Some(e));
                let got = self.scan[i].hyp_length_um(g, e);
                checks += 1;
                assert!(
                    got == want,
                    "self-audit: hypothetical length of net {i} without edge {e} diverged: \
                     incremental {got:?} um, full search {want:?} um"
                );
            }
        }
        checks
    }

    /// The step-level oracle of the scoreboard path: every in-scope net's
    /// entries in `sb` — one per heap it has a deletable edge in — must
    /// equal the per-heap minima a cache-free, unpruned [`scan_raw_keys`]
    /// computes from scratch (fresh scan state: no cached trees, delay
    /// prefixes or windows; every edge keyed exactly, so the bound-first
    /// scans are checked against a scan that skips nothing). The scoreboard's position map, heap order and clean
    /// heaps' cached tops are checked first ([`Scoreboard::audit`]).
    ///
    /// # Panics
    ///
    /// Panics naming the first net whose entries diverge, or the first
    /// slot, entry or heap whose position, order or cached top does.
    fn audit_scoreboard(&self, sb: &Scoreboard, nets: &[NetId]) {
        sb.audit(&self.density);
        let heap = |h: &Option<ChannelId>| h.map_or(usize::MAX, ChannelId::index);
        let mut held: Vec<Vec<(Option<ChannelId>, EdgeKey)>> = vec![Vec::new(); self.graphs.len()];
        for (h, key) in sb.entries() {
            held[key.net.index()].push((h, key));
        }
        let cx = RawScan {
            density: &self.density,
            sta: &self.sta,
            order: sb.order(),
            run: 0,
            touched: &[],
            prune: false,
        };
        for &net in nets {
            let g = &self.graphs[net.index()];
            let mut state = NetScanState::new(g);
            let mut want: Vec<(Option<ChannelId>, EdgeKey)> = scan_raw_keys(
                g,
                net,
                Lanes::ALL,
                &cx,
                &mut state,
                &mut Vec::new(),
                &mut NoopProbe,
            )
            .into_iter()
            .filter_map(|(h, key)| key.map(|k| (h, k)))
            .collect();
            let got = &mut held[net.index()];
            want.sort_by_key(|(h, _)| heap(h));
            got.sort_by_key(|(h, _)| heap(h));
            assert!(
                *got == want,
                "self-audit: scoreboard entries of net {} diverged from a cache-free scan: \
                 held {got:?}, from-scratch {want:?}",
                net.index()
            );
        }
    }

    /// [`Engine::audit_state`] recorded in the audit totals but emitting
    /// no trace event — the [`VerifyLevel::Final`] path, which must
    /// leave the deterministic event stream untouched.
    pub fn audit_silent(&mut self) -> u64 {
        let checks = self.audit_state();
        self.stats.audits_passed += 1;
        self.stats.audit_checks += checks;
        checks
    }

    /// [`Engine::audit_state`] at a phase boundary, emitting
    /// [`TraceEvent::AuditPassed`] — the [`VerifyLevel::Phases`] /
    /// [`VerifyLevel::Steps`] path, driven by the router after each
    /// engine phase.
    pub fn audit_phase(&mut self, phase: Phase) {
        let checks = self.audit_silent();
        self.probe.event(TraceEvent::AuditPassed { phase, checks });
    }

    /// Mid-loop audit hook: under [`VerifyLevel::Steps`], audits every
    /// N-th selection and emits [`TraceEvent::AuditStep`]. Called by
    /// both selection strategies at the same stream positions, so the
    /// events are strategy-independent. `step` is the *global* selection
    /// count (the loop's `start` offset plus this slice's selections) so
    /// a resumed run audits at the same stream positions as an
    /// uninterrupted one. The scoreboard path passes its `pool` (and
    /// the in-scope nets) for [`Engine::audit_scoreboard`]; those checks
    /// are not counted, so the event stays strategy-independent.
    fn maybe_step_audit(&mut self, step: u64, pool: Option<(&Scoreboard, &[NetId])>) {
        if let Some(n) = self.verify.step_interval() {
            if step.is_multiple_of(n) {
                if let Some((sb, nets)) = pool {
                    self.audit_scoreboard(sb, nets);
                }
                let checks = self.audit_silent();
                self.probe.event(TraceEvent::AuditStep { step, checks });
            }
        }
    }

    fn remove_density(&mut self, net: NetId, e: u32) {
        let g = &self.graphs[net.index()];
        let edge = g.edges()[e as usize];
        if let REdgeKind::Trunk { channel } = edge.kind {
            let (w, bridge) = (g.width() as i32, g.is_bridge(e));
            self.delta_spans.push((channel, edge.x1, edge.x2));
            self.density
                .remove_span(channel, edge.x1, edge.x2, w, bridge);
        }
    }

    /// Deletes one edge of one net and restores every invariant in one
    /// local pass (DESIGN.md §8, "One pass per deletion"): density spans,
    /// the dangling chains the deletion leaves (pruned from the edge's
    /// ends), bridge flags (re-computed only over the edge's old
    /// 2-edge-connected component, with `d_m` promotions), the net's
    /// cached tentative trees (kept only where they provably did not
    /// change), and — for a net some constraint loads — its tentative
    /// length and margins.
    ///
    /// Touched channels, refreshed constraints and the changed net are
    /// recorded in the engine's delta scratch for scoreboard re-keying.
    ///
    /// # Panics
    ///
    /// Panics if the edge is dead or a bridge.
    pub fn delete_one(&mut self, net: NetId, e: u32) {
        let ni = net.index();
        assert!(self.graphs[ni].is_alive(e), "edge already dead");
        assert!(!self.graphs[ni].is_bridge(e), "refusing to delete a bridge");
        let before = self.graphs[ni].generation();
        self.remove_density(net, e);
        let (pruned, promoted) = self.graphs[ni].delete_non_bridge(e, &mut self.scratch);
        self.stats.deletions += 1 + pruned.len();
        self.delta_nets.push(net);
        if !pruned.is_empty() {
            self.probe.event(TraceEvent::Pruned {
                net,
                count: pruned.len() as u32,
            });
        }
        for &pe in &pruned {
            // Density removal uses the pruned edge's bridge flag, which
            // the local pass leaves alone: exactly the status the span
            // was added/promoted under.
            self.remove_density(net, pe);
        }
        let g = &self.graphs[ni];
        for &i in &promoted {
            let edge = g.edges()[i as usize];
            if let REdgeKind::Trunk { channel } = edge.kind {
                let w = g.width() as i32;
                self.delta_spans.push((channel, edge.x1, edge.x2));
                self.density.promote_span(channel, edge.x1, edge.x2, w);
            }
        }
        let mut deleted = pruned;
        deleted.push(e);
        self.scan[ni].retain_after(&self.graphs[ni], before, &deleted);
        self.refresh_length(net);
        // Deletion always starts from a non-tree (a tree has only
        // bridges), so the transition fires exactly once per completion.
        if P::ENABLED && self.graphs[ni].is_tree() {
            self.probe.event(TraceEvent::NetBecameTree { net });
        }
    }

    /// Deletes an edge and cascades to the differential partner (§4.1):
    /// the homogeneous partner graph deletes the same edge index when it
    /// is still deletable there.
    pub fn delete_with_partner(&mut self, net: NetId, e: u32) {
        self.delete_one(net, e);
        if let Some(p) = self.partner[net.index()] {
            let pg = &self.graphs[p.index()];
            if pg.is_alive(e) && !pg.is_bridge(e) {
                self.probe
                    .event(TraceEvent::CascadeDeleted { net: p, edge: e });
                self.delete_one(p, e);
            }
        }
    }

    /// Carries out one selection: deletes `e` of `net` with its partner
    /// cascade, its effects recorded in a fresh delta, and appends it to
    /// the selection log.
    fn select(&mut self, net: NetId, e: u32) {
        self.clear_delta();
        self.delete_with_partner(net, e);
        self.stats.selection_log.push((net, e));
    }

    /// The nets of a deletion `scope`: all nets when `None`.
    fn scope_nets(&self, scope: Option<&[NetId]>) -> Vec<NetId> {
        match scope {
            Some(s) => s.to_vec(),
            None => (0..self.graphs.len()).map(NetId::new).collect(),
        }
    }

    /// Runs the deletion loop over `scope` (all nets when `None`) until no
    /// in-scope non-bridge edge remains. Returns the number of selections.
    pub fn run_deletion(&mut self, scope: Option<&[NetId]>, order: CriteriaOrder) -> usize {
        self.continue_deletion(scope, order, 0, None).selections as usize
    }

    /// One *slice* of the deletion loop: picks up at global selection
    /// count `start` and runs until the in-scope candidate pool drains
    /// or the global count reaches `stop`.
    ///
    /// This is the resumable core of [`Engine::run_deletion`] (which is
    /// `continue_deletion(scope, order, 0, None)`); `RouteSession::step`
    /// drives it with budgets and quotas. Because selection is
    /// memoryless — the scoreboard is rebuilt from the current
    /// graph/density/timing state at every entry, and that state is a
    /// pure function of the alive masks — running the loop in slices
    /// produces exactly the
    /// selections, trace events and step audits of one uninterrupted
    /// run: `start` only offsets the step counter fed to
    /// [`TraceEvent::AuditStep`] and the `stop` comparison, both of
    /// which are global positions (DESIGN.md §13).
    pub fn continue_deletion(
        &mut self,
        scope: Option<&[NetId]>,
        order: CriteriaOrder,
        start: u64,
        stop: Option<u64>,
    ) -> DeletionRun {
        match self.selection {
            SelectionStrategy::Scoreboard => {
                self.run_deletion_scoreboard(scope, order, start, stop)
            }
            SelectionStrategy::FullRescan => self.run_deletion_rescan(scope, order, start, stop),
        }
    }

    /// Post-budget completion: once the deletion budget ran out before
    /// every in-scope graph is a tree, emits
    /// [`TraceEvent::BudgetExhausted`] (attributed to
    /// [`Phase::InitialRouting`], the only budgeted phase) and, per net
    /// in ascending id order, deletes the first alive non-bridge edge
    /// until only bridges remain. It skips all key evaluation and is a
    /// pure function of the graph state at the stop point, which both
    /// strategies reach identically, so the trace stays byte-identical
    /// across them. Returns the number of fallback deletions; emits
    /// nothing when there was nothing left to do.
    pub(crate) fn fallback_complete(&mut self, scope: Option<&[NetId]>, steps_used: u64) -> usize {
        let nets = self.scope_nets(scope);
        let deletable = |g: &RoutingGraph| g.alive_edges().find(|&e| !g.is_bridge(e));
        if !nets
            .iter()
            .any(|&n| deletable(&self.graphs[n.index()]).is_some())
        {
            return 0;
        }
        self.probe.event(TraceEvent::BudgetExhausted {
            phase: crate::probe::Phase::InitialRouting,
            steps: steps_used,
        });
        let mut extra = 0;
        for &net in &nets {
            while let Some(e) = deletable(&self.graphs[net.index()]) {
                self.probe
                    .event(TraceEvent::FallbackDeleted { net, edge: e });
                self.select(net, e);
                extra += 1;
            }
        }
        extra
    }

    /// The naive oracle: recomputes every in-scope candidate key each
    /// iteration and linearly scans for the minimum. The scan runs
    /// per-net champion (min over champions == global min under the
    /// total selection order), which lets it track the *runner-up
    /// champion* — the same runner-up the scoreboard observes — for
    /// strategy-independent decision provenance.
    fn run_deletion_rescan(
        &mut self,
        scope: Option<&[NetId]>,
        order: CriteriaOrder,
        start: u64,
        stop: Option<u64>,
    ) -> DeletionRun {
        let nets = self.scope_nets(scope);
        let mut selections: u64 = 0;
        let complete = loop {
            if stop.is_some_and(|b| start + selections >= b) {
                break false;
            }
            let mut best: Option<EdgeKey> = None;
            // Runner-up tracking exists only to feed the probe.
            let mut second: Option<EdgeKey> = None;
            for &net in &nets {
                let Some(key) = self.champion(net, order) else {
                    continue;
                };
                if ranks_first(&key, best.as_ref(), order) {
                    if P::ENABLED {
                        second = best;
                    }
                    best = Some(key);
                } else if P::ENABLED && ranks_first(&key, second.as_ref(), order) {
                    second = Some(key);
                }
            }
            let Some(key) = best else { break true };
            if P::ENABLED {
                let tier = match &second {
                    Some(s) => deciding_tier(&key, s, order),
                    None => DecidingTier::OnlyCandidate,
                };
                self.probe.event(TraceEvent::DeletionSelected {
                    net: key.net,
                    edge: key.edge,
                    tier,
                });
            }
            self.select(key.net, key.edge);
            selections += 1;
            self.maybe_step_audit(start + selections, None);
        };
        DeletionRun {
            selections,
            complete,
        }
    }

    /// `net`'s *champion*: the minimum key over its deletable edges
    /// (see [`scan_champion`]).
    fn champion(&mut self, net: NetId, order: CriteriaOrder) -> Option<EdgeKey> {
        scan_champion(
            &self.graphs[net.index()],
            &self.density,
            &self.sta,
            net,
            order,
            &mut self.scan[net.index()],
            &mut self.probe,
        )
    }

    /// Builds `net`'s lanes before its first scan and registers them in
    /// [`Engine::channel_nets`].
    fn index_lanes(&mut self, net: NetId) {
        let (g, state) = (&self.graphs[net.index()], &mut self.scan[net.index()]);
        if state.lanes.len() > 0 || g.edges().is_empty() {
            return;
        }
        state.lanes = LaneIndex::new(g);
        for (lane, (heap, _)) in state.lanes.iter().enumerate() {
            if let Some(c) = heap {
                self.channel_nets[c.index()].push(ChannelNet { net, lane });
            }
        }
    }

    /// Re-keys the selected `lanes` of `net`: scans them
    /// ([`scan_raw_keys`]) and sets each lane's fresh minimum as the
    /// net's key in that heap, or removes the net from the heap when the
    /// lane has no deletable edge left. `touched` are the spans of the
    /// deletion being re-keyed for (empty for the initial build).
    fn rekey(
        &mut self,
        sb: &mut Scoreboard,
        net: NetId,
        lanes: Lanes,
        touched: &[(ChannelId, i32, i32)],
    ) {
        self.index_lanes(net);
        let cx = RawScan {
            density: &self.density,
            sta: &self.sta,
            order: sb.order(),
            run: self.window_run,
            touched,
            prune: true,
        };
        let ni = net.index();
        let keys = scan_raw_keys(
            &self.graphs[ni],
            net,
            lanes,
            &cx,
            &mut self.scan[ni],
            &mut self.deferred,
            &mut self.probe,
        );
        // StaleChampion injection: the net's keys are removed and the
        // fresh candidates silently dropped — the loop now believes the
        // net is finished.
        let frozen = P::ENABLED && self.frozen == Some(net);
        let mut pushes = 0u64;
        for (heap, key) in keys {
            let key = key.filter(|_| !frozen);
            pushes += u64::from(key.is_some());
            sb.set(net, heap, key);
        }
        if P::ENABLED && pushes > 0 {
            self.probe.count(Counter::HeapPush, pushes);
        }
    }

    /// The live trunk extent of a channel's lane, as the lane's last scan
    /// in the current scoreboard run recorded it, or empty when none did:
    /// an in-scope net this run never scanned was a tree when the run
    /// opened, and a tree stays one for the whole run (deletions take
    /// only non-bridges). See [`derive_dirty`].
    fn lane_extent(&self, cn: ChannelNet) -> (i32, i32) {
        let state = &self.scan[cn.net.index()];
        if state.window_run == self.window_run {
            state.extents[cn.lane]
        } else {
            NO_EXTENT
        }
    }

    /// The incremental path: scoreboard selection with dirty-set
    /// re-keying (see the [module docs](self) for the invalidation
    /// derivation).
    fn run_deletion_scoreboard(
        &mut self,
        scope: Option<&[NetId]>,
        order: CriteriaOrder,
        start: u64,
        stop: Option<u64>,
    ) -> DeletionRun {
        let nets = self.scope_nets(scope);
        let mut in_scope = vec![false; self.graphs.len()];
        for &n in &nets {
            in_scope[n.index()] = true;
        }
        let mut sb = Scoreboard::new(self.graphs.len(), self.channel_nets.len(), order);
        self.window_run += 1;
        self.apply_corruption();
        if P::PROFILING {
            self.probe.scope_enter(Scope::Rekey);
        }
        for &net in &nets {
            // A tree has no deletable edge: no key to push, and its lanes'
            // extents stay empty (the dirty derivation below reads every
            // extent not taken in this run as empty).
            if self.graphs[net.index()].has_non_bridge() {
                self.rekey(&mut sb, net, Lanes::ALL, &[]);
            }
        }
        if P::PROFILING {
            self.probe.scope_exit(Scope::Rekey);
        }
        let mut selections: u64 = 0;
        let complete = loop {
            // The budget check precedes the pop, so the stop point (and
            // the heap-pop diagnostics) is the same in every run.
            if stop.is_some_and(|b| start + selections >= b) {
                break false;
            }
            self.apply_corruption();
            if P::PROFILING {
                self.probe.scope_enter(Scope::Select);
            }
            let popped = sb.pop(&self.density, &mut self.probe);
            let Some(key) = popped else {
                if P::PROFILING {
                    self.probe.scope_exit(Scope::Select);
                }
                break true;
            };
            debug_assert!(
                self.graphs[key.net.index()].is_alive(key.edge)
                    && !self.graphs[key.net.index()].is_bridge(key.edge),
                "scoreboard returned a non-deletable edge"
            );
            if P::ENABLED {
                // Runner-up peek: the best composed key over every other
                // net's entries — the same runner-up champion the
                // rescan oracle tracks. Unprobed on purpose — provenance
                // peeking must not perturb the heap-pop diagnostics.
                let tier = match sb.runner_up(key.net, &self.density) {
                    Some(second) => deciding_tier(&key, &second, order),
                    None => DecidingTier::OnlyCandidate,
                };
                self.probe.event(TraceEvent::DeletionSelected {
                    net: key.net,
                    edge: key.edge,
                    tier,
                });
            }
            if P::PROFILING {
                self.probe.scope_exit(Scope::Select);
                self.probe.scope_enter(Scope::DeleteModify);
            }
            self.select(key.net, key.edge);
            selections += 1;
            if P::PROFILING {
                self.probe.scope_exit(Scope::DeleteModify);
                self.probe.scope_enter(Scope::DeriveDirty);
            }

            // Dirty set: changed nets ∪ window-affected nets ∪ nets of
            // refreshed constraints, restricted to the scope, each net
            // attributed to one cause under the deterministic precedence
            // of `derive_dirty` and re-keyed on the lanes its causes
            // reach. Channels whose aggregates moved dirty no net.
            let d_nets = std::mem::take(&mut self.delta_nets);
            let d_spans = std::mem::take(&mut self.delta_spans);
            let d_cons = std::mem::take(&mut self.delta_cons);
            let dirty = derive_dirty(
                &in_scope,
                &d_nets,
                &d_spans,
                &self.channel_nets,
                |cn| self.lane_extent(cn),
                &d_cons,
                |cid| self.sta.nets_of_constraint(cid),
            );
            self.probe.sample(Hist::DirtySetSize, dirty.len() as u64);
            if P::PROFILING {
                self.probe.scope_exit(Scope::DeriveDirty);
                self.probe.scope_enter(Scope::Rekey);
            }
            for d in &dirty {
                self.probe.rekey(d.net, d.cause);
                if P::PROFILING {
                    self.probe.scope_enter(Scope::RekeyFor(d.cause));
                }
                self.rekey(&mut sb, d.net, d.lanes, &d_spans);
                if P::PROFILING {
                    self.probe.scope_exit(Scope::RekeyFor(d.cause));
                }
            }
            // Every touched span is a trunk that was deletable just
            // before, so the deleted net's re-key dirtied its heap and
            // no cached top outlives an aggregate move (DESIGN.md §8).
            debug_assert!(
                self.frozen.is_some() || d_spans.iter().all(|&(c, ..)| sb.is_dirty(c)),
                "a touched channel's heap kept its cached top"
            );
            if P::PROFILING {
                self.probe.scope_exit(Scope::Rekey);
                self.probe.scope_enter(Scope::Audit);
            }
            // Hand the scratch buffers back for reuse.
            self.delta_nets = d_nets;
            self.delta_spans = d_spans;
            self.delta_cons = d_cons;
            self.maybe_step_audit(start + selections, Some((&sb, &nets)));
            if P::PROFILING {
                self.probe.scope_exit(Scope::Audit);
            }
        };
        self.window_run += 1;
        DeletionRun {
            selections,
            complete,
        }
    }

    /// Rips up a net (and its lockstep partner) and reroutes it with the
    /// given criteria order (§3.5 improvement phases). The rip-up is
    /// `Engine::set_alive` back to the full pruned graph, the same path
    /// [`Engine::restore`] takes to a snapshot.
    pub fn reroute_net(&mut self, net: NetId, order: CriteriaOrder) {
        let scope = self.with_partner(net);
        for &n in &scope {
            self.set_alive(n, None);
            self.stats.reroutes += 1;
        }
        self.run_deletion(Some(&scope), order);
    }

    /// Captures the alive-edge masks of a net and its partner, for
    /// revertible rerouting.
    pub fn snapshot(&self, net: NetId) -> Vec<(NetId, Vec<bool>)> {
        self.with_partner(net)
            .into_iter()
            .map(|n| (n, self.graphs[n.index()].alive_mask()))
            .collect()
    }

    /// Restores a snapshot taken with [`Engine::snapshot`], rebuilding
    /// density spans, lengths and margins.
    pub fn restore(&mut self, snapshot: &[(NetId, Vec<bool>)]) {
        for (net, mask) in snapshot {
            self.set_alive(*net, Some(mask));
        }
    }

    /// `net` followed by its lockstep partner, if any.
    fn with_partner(&self, net: NetId) -> Vec<NetId> {
        std::iter::once(net)
            .chain(self.partner[net.index()])
            .collect()
    }

    /// Sets `net`'s alive edges to `mask`, or with `None` to the whole
    /// graph minus its dangling chains (a rip-up), and rebuilds what
    /// depends on them: the net's bridge flags ([`RoutingGraph::settle`];
    /// a snapshot's mask is prune-closed, so only a rip-up prunes),
    /// density spans and memoized length (with the margins it feeds).
    fn set_alive(&mut self, net: NetId, mask: Option<&[bool]>) {
        let g = &mut self.graphs[net.index()];
        self.density.apply_net(g, -1);
        g.load_alive(mask);
        g.settle(&mut self.scratch);
        self.density.apply_net(g, 1);
        self.refresh_length(net);
    }

    /// Whether every net's graph is now a spanning tree.
    pub fn all_trees(&self) -> bool {
        self.graphs.iter().all(|g| g.is_tree())
    }

    /// Consumes the engine, returning graphs, density, analyzer and the
    /// probe (with everything it collected).
    pub fn into_parts(self) -> (Vec<RoutingGraph>, DensityMap, Sta, P) {
        (self.graphs, self.density, self.sta, self.probe)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::tests::same_row_net;
    use crate::graph::RoutingGraph;
    use bgr_timing::{DelayModel, Sta, WireParams};

    /// An unobserved engine over built graphs, settled first as a session
    /// settles its own.
    pub(crate) fn settled_engine(
        mut graphs: Vec<RoutingGraph>,
        sta: Sta,
        partner: Vec<Option<NetId>>,
        num_channels: usize,
        chip_width: usize,
    ) -> Engine {
        let mut scratch = GraphScratch::default();
        for g in &mut graphs {
            g.settle(&mut scratch);
        }
        Engine::from_settled(graphs, sta, partner, num_channels, chip_width, NoopProbe)
    }

    fn engine_for_same_row() -> Engine {
        let (circuit, placement, _net) = same_row_net();
        let graphs: Vec<RoutingGraph> = circuit
            .net_ids()
            .map(|n| RoutingGraph::build(&circuit, &placement, n, &[], 30.0))
            .collect();
        let sta = Sta::new(
            &circuit,
            vec![],
            DelayModel::Capacitance,
            WireParams::default(),
        )
        .unwrap();
        let partner = vec![None; circuit.nets().len()];
        let width = placement.width_pitches() as usize;
        settled_engine(graphs, sta, partner, placement.num_channels(), width)
    }

    #[test]
    fn initial_state_has_density_and_lengths() {
        let engine = engine_for_same_row();
        // Channel 0 and 1 both have trunk spans from net n1 plus branches
        // don't count; some density must exist.
        let total: i32 = (0..engine.density().num_channels())
            .map(|c| engine.density().c_max(bgr_layout::ChannelId::new(c)))
            .sum();
        assert!(total > 0);
        assert!(total_length_um(&engine) > 0.0);
    }

    /// The summed tentative length of every net, read off the graphs:
    /// an unconstrained engine tracks no length in its analyzer.
    fn total_length_um(engine: &Engine) -> f64 {
        engine
            .graphs()
            .iter()
            .map(|g| tentative_length_um(g, None).expect("connected"))
            .sum()
    }

    #[test]
    fn run_deletion_reaches_all_trees() {
        let mut engine = engine_for_same_row();
        assert!(!engine.all_trees());
        let selections = engine.run_deletion(None, CriteriaOrder::DelayFirst);
        assert!(selections > 0);
        assert!(engine.all_trees());
        // After routing, every alive edge is a bridge: d_m == d_M.
        for g in engine.graphs() {
            for e in g.alive_edges() {
                assert!(g.is_bridge(e));
            }
        }
    }

    #[test]
    fn deletion_reduces_density_upper_bound() {
        let mut engine = engine_for_same_row();
        let before: i32 = (0..engine.density().num_channels())
            .map(|c| engine.density().c_max(bgr_layout::ChannelId::new(c)))
            .sum();
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        let after: i32 = (0..engine.density().num_channels())
            .map(|c| engine.density().c_max(bgr_layout::ChannelId::new(c)))
            .sum();
        assert!(after <= before);
    }

    #[test]
    fn reroute_restores_and_resolves() {
        let mut engine = engine_for_same_row();
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        let len_before = total_length_um(&engine);
        engine.reroute_net(bgr_netlist::NetId::new(1), CriteriaOrder::AreaFirst);
        assert!(engine.all_trees());
        // Deterministic graphs: rerouting an optimal tree keeps length.
        let len_after = total_length_um(&engine);
        assert!((len_before - len_after).abs() < 1e-6);
    }

    #[test]
    fn reroute_then_restore_round_trips_exactly() {
        let mut engine = engine_for_same_row();
        let net = bgr_netlist::NetId::new(1);
        let masks = |e: &Engine| -> Vec<Vec<bool>> {
            e.graphs().iter().map(RoutingGraph::alive_mask).collect()
        };
        let lengths = |e: &Engine| -> Vec<u64> {
            e.graphs()
                .iter()
                .map(|g| tentative_length_um(g, None).expect("connected").to_bits())
                .collect()
        };
        let before = (
            masks(&engine),
            engine.density().snapshot_max(),
            engine.density().snapshot_min(),
            lengths(&engine),
        );
        let snap = engine.snapshot(net);
        engine.reroute_net(net, CriteriaOrder::AreaFirst);
        assert_ne!(masks(&engine), before.0, "the reroute must move the net");
        engine.restore(&snap);
        let after = (
            masks(&engine),
            engine.density().snapshot_max(),
            engine.density().snapshot_min(),
            lengths(&engine),
        );
        assert_eq!(after, before);
        engine.audit_state();
    }

    #[test]
    fn deletion_count_includes_prunes() {
        let mut engine = engine_for_same_row();
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        assert!(engine.stats.deletions > 0);
    }

    #[test]
    fn scoreboard_matches_full_rescan_sequence() {
        let mut fast = engine_for_same_row();
        let mut oracle = engine_for_same_row();
        oracle.set_selection(SelectionStrategy::FullRescan);
        let s1 = fast.run_deletion(None, CriteriaOrder::DelayFirst);
        let s2 = oracle.run_deletion(None, CriteriaOrder::DelayFirst);
        assert_eq!(s1, s2);
        assert_eq!(fast.stats.selection_log, oracle.stats.selection_log);
        for (gf, go) in fast.graphs().iter().zip(oracle.graphs()) {
            assert_eq!(gf.alive_mask(), go.alive_mask());
        }
    }

    #[test]
    fn empty_scope_run_deletion_is_a_no_op() {
        for strategy in [SelectionStrategy::Scoreboard, SelectionStrategy::FullRescan] {
            let mut engine = engine_for_same_row();
            engine.set_selection(strategy);
            let masks: Vec<_> = engine.graphs().iter().map(|g| g.alive_mask()).collect();
            assert_eq!(engine.run_deletion(Some(&[]), CriteriaOrder::DelayFirst), 0);
            assert!(engine.stats.selection_log.is_empty());
            let after: Vec<_> = engine.graphs().iter().map(|g| g.alive_mask()).collect();
            assert_eq!(masks, after, "{strategy:?} touched a graph");
        }
    }

    /// `(net, cause, lane mask)` triples of a derived dirty set.
    fn summary(dirty: &[Dirty]) -> Vec<(usize, RekeyCause, u64)> {
        dirty
            .iter()
            .map(|d| (d.net.index(), d.cause, d.lanes.0))
            .collect()
    }

    const ALL: u64 = u64::MAX;

    /// One entry of a test index: `(net, lane, live extent)`.
    type Row = (usize, usize, (i32, i32));

    /// A reverse index with one live extent per entry, built from rows
    /// per channel.
    struct Index {
        channel_nets: Vec<Vec<ChannelNet>>,
        extents: BTreeMap<(NetId, usize), (i32, i32)>,
    }

    impl Index {
        fn new(channels: &[&[Row]]) -> Self {
            let mut extents = BTreeMap::new();
            let channel_nets = channels
                .iter()
                .map(|rows| {
                    rows.iter()
                        .map(|&(net, lane, extent)| {
                            extents.insert((NetId::new(net), lane), extent);
                            ChannelNet {
                                net: NetId::new(net),
                                lane,
                            }
                        })
                        .collect()
                })
                .collect();
            Self {
                channel_nets,
                extents,
            }
        }

        /// [`derive_dirty`] over this index, summarized.
        fn derive(
            &self,
            in_scope: &[bool],
            graph_nets: &[usize],
            spans: &[(usize, i32, i32)],
            refreshed: &[u32],
            cons_nets: &[NetId],
        ) -> Vec<(usize, RekeyCause, u64)> {
            let graph_nets: Vec<NetId> = graph_nets.iter().map(|&n| NetId::new(n)).collect();
            let spans: Vec<(ChannelId, i32, i32)> = spans
                .iter()
                .map(|&(c, x1, x2)| (ChannelId::new(c), x1, x2))
                .collect();
            summary(&derive_dirty(
                in_scope,
                &graph_nets,
                &spans,
                &self.channel_nets,
                |cn| self.extents[&(cn.net, cn.lane)],
                refreshed,
                |_| cons_nets,
            ))
        }
    }

    /// Channel 0: nets 0, 1 (net 1's live trunks over [0, 10)).
    /// Channel 1: nets 1, 2 (live trunks over [0, 10) and [20, 30)),
    /// net 3 with no deletable trunk (empty extent). Net 1 keys into
    /// channel 1 through its lane 1.
    fn two_channel_index() -> Index {
        Index::new(&[
            &[(0, 0, (2, 6)), (1, 0, (0, 10))],
            &[(1, 1, (0, 10)), (2, 0, (20, 30)), (3, 0, NO_EXTENT)],
        ])
    }

    /// A net dirty for several reasons at once is attributed exactly
    /// once, under the fixed precedence Graph > SpanOverlap >
    /// Constraint, however the channels were touched; and aggregate
    /// motion is no dirty cause at all — only span overlap re-keys
    /// density readers now that raw keys carry no aggregates.
    #[test]
    fn derive_dirty_attributes_one_cause_with_fixed_precedence() {
        let index = two_channel_index();
        let cons_nets = [NetId::new(0), NetId::new(2)];
        // Net 0 changed its graph *and* belongs to a refreshed
        // constraint (Graph wins); net 1 overlaps the touched span of
        // c1 and re-keys only that channel's lane; net 2 is
        // constraint-dirty only.
        assert_eq!(
            index.derive(&[true; 4], &[0], &[(1, 5, 8)], &[0], &cons_nets),
            vec![
                (0, RekeyCause::Graph, ALL),
                (1, RekeyCause::SpanOverlap, 1 << 1),
                (2, RekeyCause::Constraint, ALL),
            ]
        );
        // Lanes with an empty extent never match a span overlap, and
        // out-of-scope nets are dropped entirely.
        let scoped = [false, true, true, true];
        assert_eq!(
            index.derive(&scoped, &[0], &[(1, 0, 40)], &[], &cons_nets),
            vec![
                (1, RekeyCause::SpanOverlap, 1 << 1),
                (2, RekeyCause::SpanOverlap, 1 << 0),
            ]
        );
    }

    /// One deletion makes net 2 both span-dirty and constraint-dirty:
    /// the attribution stays SpanOverlap, but the lanes are the union of
    /// the causes — every lane, since its delay prefix moved.
    #[test]
    fn derive_dirty_rekeys_every_lane_of_a_span_and_constraint_dirty_net() {
        let cons_nets = [NetId::new(0), NetId::new(2)];
        // Span [25, 28) overlaps net 2's trunk; net 1's extent misses
        // it and falls out of the density clause entirely.
        assert_eq!(
            two_channel_index().derive(&[true; 4], &[], &[(1, 25, 28)], &[0], &cons_nets),
            vec![
                (0, RekeyCause::Constraint, ALL),
                (2, RekeyCause::SpanOverlap, ALL),
            ]
        );
    }

    /// Spans and extents are half-open, as `add_span` and
    /// `edge_density` treat them: a net whose live trunks only abut a
    /// touched span reads no column it moved and is not dirtied.
    #[test]
    fn derive_dirty_skips_nets_that_only_abut_a_touched_span() {
        let index = Index::new(&[&[(0, 0, (0, 4)), (1, 0, (4, 9))]]);
        let derive = |x1, x2| index.derive(&[true; 2], &[], &[(0, x1, x2)], &[], &[]);
        assert_eq!(derive(0, 4), vec![(0, RekeyCause::SpanOverlap, 1)]);
        assert_eq!(derive(9, 12), vec![]);
        assert_eq!(
            derive(3, 5),
            vec![
                (0, RekeyCause::SpanOverlap, 1),
                (1, RekeyCause::SpanOverlap, 1)
            ]
        );
    }

    /// A lane whose remaining deletable trunks lie outside a touched
    /// span is not dirty, although trunks it lost (inside its old
    /// static bounding interval [0, 30)) did overlap the span.
    #[test]
    fn derive_dirty_skips_lanes_whose_live_trunks_miss_the_span() {
        let index = Index::new(&[&[(0, 0, (20, 30)), (1, 0, (0, 30))]]);
        let derive = |x1, x2| index.derive(&[true; 2], &[], &[(0, x1, x2)], &[], &[]);
        assert_eq!(derive(5, 8), vec![(1, RekeyCause::SpanOverlap, 1)]);
        assert_eq!(
            derive(19, 21),
            vec![
                (0, RekeyCause::SpanOverlap, 1),
                (1, RekeyCause::SpanOverlap, 1)
            ]
        );
    }

    #[test]
    fn derive_dirty_graph_beats_span_overlap_for_the_deleted_net() {
        // The deleted net's own span was touched: the net is both
        // graph-dirty and span-overlap-dirty; Graph wins, and the
        // neighbor whose trunk overlaps the span re-keys as
        // SpanOverlap, on its lane for the channel only.
        let index = Index::new(&[&[(0, 0, (0, 4)), (1, 2, (2, 9))]]);
        assert_eq!(
            index.derive(&[true; 2], &[0], &[(0, 0, 4)], &[], &[]),
            vec![
                (0, RekeyCause::Graph, ALL),
                (1, RekeyCause::SpanOverlap, 1 << 2)
            ]
        );
    }

    /// Opens a scoreboard run as `run_deletion_scoreboard` does: a new
    /// window run, with every lane of every net that has a deletable
    /// edge keyed.
    fn open_run<P: Probe>(engine: &mut Engine<P>) -> Scoreboard {
        let (nets, channels) = (engine.graphs.len(), engine.channel_nets.len());
        let mut sb = Scoreboard::new(nets, channels, CriteriaOrder::DelayFirst);
        engine.window_run += 1;
        for n in 0..nets {
            if engine.graphs[n].has_non_bridge() {
                engine.rekey(&mut sb, NetId::new(n), Lanes::ALL, &[]);
            }
        }
        sb
    }

    /// Once every net is a tree, every lane is all bridges: a run scans
    /// none of them, and their live extents read as empty, so no span
    /// dirties them — although a lane's static bounding interval over
    /// every trunk edge still overlaps the span. The lanes `LaneIndex`
    /// builds are the ones `channel_nets` numbers.
    #[test]
    fn derive_dirty_skips_all_bridge_lanes() {
        let mut engine = engine_for_same_row();
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        assert!(engine.all_trees());
        open_run(&mut engine);
        let in_scope = vec![true; engine.graphs.len()];
        let mut spans = 0;
        for (c, nets) in engine.channel_nets.iter().enumerate() {
            for cn in nets {
                let g = &engine.graphs[cn.net.index()];
                let lanes = LaneIndex::new(g);
                let (heap, edges) = lanes.iter().nth(cn.lane).unwrap();
                assert_eq!(heap, Some(ChannelId::new(c)));
                let trunks = edges
                    .iter()
                    .map(|&e| g.edges()[e as usize])
                    .filter(|edge| matches!(edge.kind, REdgeKind::Trunk { .. }));
                let Some((lo, hi)) = trunks
                    .map(|e| (e.x1, e.x2))
                    .reduce(|(a, b), (x1, x2)| (a.min(x1), b.max(x2)))
                else {
                    continue;
                };
                spans += 1;
                let dirty = derive_dirty(
                    &in_scope,
                    &[],
                    &[(ChannelId::new(c), lo, hi.max(lo + 1))],
                    &engine.channel_nets,
                    |cn| engine.lane_extent(cn),
                    &[],
                    |_| &[],
                );
                assert_eq!(summary(&dirty), vec![], "channel {c} net {:?}", cn.net);
            }
        }
        assert!(spans > 0, "the instance has trunk lanes");
    }

    /// The `Steps` oracle of the live extents: an untouched run passes
    /// the audit, and narrowing one stored extent fails it.
    #[test]
    fn audit_catches_a_narrowed_live_extent() {
        let mut engine = engine_for_same_row();
        open_run(&mut engine);
        engine.audit_state();
        let (net, lane) = (0..engine.scan.len())
            .flat_map(|n| (0..engine.scan[n].extents.len()).map(move |l| (n, l)))
            .find(|&(n, l)| engine.scan[n].extents[l] != NO_EXTENT)
            .expect("some lane has a deletable trunk");
        let (lo, hi) = engine.scan[net].extents[lane];
        engine.scan[net].extents[lane] = (lo, hi - 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.audit_state()))
            .expect_err("a narrowed extent must fail the audit");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("live trunk extent"), "{msg}");
    }

    #[test]
    fn scoreboard_matches_oracle_through_reroutes() {
        let mut fast = engine_for_same_row();
        let mut oracle = engine_for_same_row();
        oracle.set_selection(SelectionStrategy::FullRescan);
        for engine in [&mut fast, &mut oracle] {
            engine.run_deletion(None, CriteriaOrder::DelayFirst);
            engine.reroute_net(bgr_netlist::NetId::new(1), CriteriaOrder::AreaFirst);
            engine.reroute_net(bgr_netlist::NetId::new(0), CriteriaOrder::DelayFirst);
        }
        assert_eq!(fast.stats.selection_log, oracle.stats.selection_log);
        assert_eq!(fast.stats.deletions, oracle.stats.deletions);
    }

    /// A random constrained one-row instance: 3–9 gates (INV or NOR2)
    /// in topological order, each input driven by an input pad or an
    /// earlier gate, and an output pad on every gate without sinks. Each
    /// output pad is constrained from an input pad upstream of it, with
    /// a limit of its arrival on the unrouted graphs times a factor in
    /// `[0.8, 1.3)`, so some margins are negative from the start and
    /// more turn negative as deletions lengthen the nets.
    fn random_constrained(rng: &mut bgr_netlist::SplitMix64) -> Engine {
        use bgr_layout::{Geometry, PlacementBuilder};
        use bgr_netlist::{CellLibrary, CircuitBuilder, PadId};
        use bgr_timing::PathConstraint;

        let lib = CellLibrary::ecl();
        let kinds = [("INV", 3, &["A"][..]), ("NOR2", 4, &["A", "B"][..])];
        let kind = |name| lib.kind_by_name(name).expect("ECL library kind");
        let kinds = kinds.map(|(name, width, pins)| (kind(name), width, pins));
        let mut cb = CircuitBuilder::new(lib.clone());
        let mut in_pads: Vec<(PadId, Vec<bgr_netlist::TermId>)> = Vec::new();
        // Per gate: its width, the terminals it drives, and one input pad
        // upstream of it.
        let mut gates: Vec<(u32, Vec<bgr_netlist::TermId>, usize)> = Vec::new();
        for i in 0..rng.range_usize(3, 10) {
            let (kind, width, pins) = kinds[rng.range_usize(0, kinds.len())];
            let cell = cb.add_cell(format!("u{i}"), kind);
            let mut root = None;
            for pin in pins {
                let term = cb.cell_term(cell, pin).unwrap();
                let pad_root = if i == 0 || rng.next_bool(0.3) {
                    let p = if in_pads.is_empty() || rng.next_bool(0.5) {
                        in_pads.push((cb.add_input_pad(format!("i{}", in_pads.len())), vec![]));
                        in_pads.len() - 1
                    } else {
                        rng.range_usize(0, in_pads.len())
                    };
                    in_pads[p].1.push(term);
                    p
                } else {
                    let j = rng.range_usize(0, i);
                    gates[j].1.push(term);
                    gates[j].2
                };
                root.get_or_insert(pad_root);
            }
            gates.push((width, vec![], root.unwrap()));
        }
        let mut out_pads = Vec::new();
        for (i, (_, sinks, root)) in gates.iter_mut().enumerate() {
            if sinks.is_empty() || rng.next_bool(0.2) {
                let pad = cb.add_output_pad(format!("o{i}"));
                sinks.push(cb.pad_term(pad));
                out_pads.push((pad, *root));
            }
        }
        for (p, (pad, sinks)) in in_pads.iter().enumerate() {
            cb.add_net(format!("ni{p}"), cb.pad_term(*pad), sinks.iter().copied())
                .unwrap();
        }
        for (i, (_, sinks, _)) in gates.iter().enumerate() {
            let cell = bgr_netlist::CellId::new(i);
            cb.add_net(
                format!("n{i}"),
                cb.cell_term(cell, "Y").unwrap(),
                sinks.iter().copied(),
            )
            .unwrap();
        }
        let ends: Vec<_> = out_pads
            .iter()
            .map(|&(pad, root)| (cb.pad_term(in_pads[root].0), cb.pad_term(pad)))
            .collect();
        let constraints = |limits: &[f64]| -> Vec<PathConstraint> {
            ends.iter()
                .zip(limits)
                .enumerate()
                .map(|(c, (&(from, to), &limit))| {
                    PathConstraint::new(format!("c{c}"), from, to, limit)
                })
                .collect()
        };
        let loose = constraints(&vec![1e9; ends.len()]);
        let mut order: Vec<usize> = (0..gates.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(0, i + 1));
        }
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 1);
        for &i in &order {
            pb.append_with_width(0, bgr_netlist::CellId::new(i), gates[i].0);
        }
        let width: i32 = gates.iter().map(|g| g.0 as i32).sum();
        for p in 0..circuit.pads().len() {
            let x = rng.range_i32(0, width);
            if rng.next_bool(0.5) {
                pb.place_pad_bottom(PadId::new(p), x);
            } else {
                pb.place_pad_top(PadId::new(p), x);
            }
        }
        let placement = pb.finish(&circuit).unwrap();
        let build = |cons: Vec<PathConstraint>| {
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
            settled_engine(graphs, sta, partner, placement.num_channels(), width)
        };
        let arrivals: Vec<f64> = {
            let engine = build(loose);
            (0..ends.len())
                .map(|c| engine.sta().arrival_ps(c) * rng.range_f64(0.8, 1.3))
                .collect()
        };
        build(constraints(&arrivals))
    }

    /// A constrained net's memoized length is its tentative tree's length,
    /// bit for bit, after every deletion — the last one of a net, which
    /// makes it a routed tree, included — after a restore of the unrouted
    /// snapshot and after each restore of a routed one (the routed-tree
    /// rule of [`NetScanState::current_tree`]); the lengths of nets no
    /// constraint loads are never written.
    #[test]
    fn constrained_lengths_track_deletions_and_restores() {
        let mut rng = bgr_netlist::SplitMix64::new(0x1E_6A7E);
        let (mut moved, mut completed, mut restored) = (0, 0, 0);
        for _ in 0..16 {
            let mut engine = random_constrained(&mut rng);
            let nets: Vec<NetId> = (0..engine.graphs().len()).map(NetId::new).collect();
            let (constrained, free): (Vec<NetId>, Vec<NetId>) = nets
                .iter()
                .partition(|&&n| !engine.sta().constraints_of_net(n).is_empty());
            let check = |engine: &Engine| {
                for &net in &constrained {
                    let g = &engine.graphs()[net.index()];
                    let want = tentative_length_um(g, None).expect("connected");
                    let got = engine.sta().lengths().length_um(net);
                    assert_eq!(got.to_bits(), want.to_bits(), "{net:?}");
                }
                for &net in &free {
                    assert_eq!(engine.sta().lengths().length_um(net), 0.0, "{net:?}");
                }
            };
            check(&engine);
            let before: Vec<f64> = nets
                .iter()
                .map(|&n| engine.sta().lengths().length_um(n))
                .collect();
            let snap: Vec<(NetId, Vec<bool>)> =
                nets.iter().flat_map(|&n| engine.snapshot(n)).collect();
            for &net in &nets {
                let mut deleted = false;
                while let Some(e) = engine.graphs()[net.index()].non_bridge_edges().last() {
                    engine.delete_one(net, e);
                    check(&engine);
                    deleted = true;
                }
                assert!(engine.graphs()[net.index()].is_tree());
                completed += usize::from(deleted && constrained.contains(&net));
            }
            moved += nets
                .iter()
                .zip(&before)
                .filter(|&(&n, &b)| engine.sta().lengths().length_um(n) != b)
                .count();
            let routed: Vec<(NetId, Vec<bool>)> =
                nets.iter().flat_map(|&n| engine.snapshot(n)).collect();
            engine.restore(&snap);
            check(&engine);
            let after: Vec<f64> = nets
                .iter()
                .map(|&n| engine.sta().lengths().length_um(n))
                .collect();
            assert_eq!(after, before);
            for entry in &routed {
                engine.restore(std::slice::from_ref(entry));
                check(&engine);
                assert!(engine.graphs()[entry.0.index()].is_tree());
                restored += usize::from(constrained.contains(&entry.0));
            }
        }
        assert!(moved > 0, "no deletion ever moved a memoized length");
        assert!(
            completed > 10 && restored > 10,
            "{completed} completions, {restored} restores"
        );
    }

    /// The bound behind bound-first lane scans, on random constrained
    /// nets under every criteria order and along whole deletion runs:
    /// every deletable edge's floor key ranks no later than its real key,
    /// and a pruned scan on the engine's own cached state keeps the same
    /// lane minima, field for field, as an unpruned scan from scratch.
    #[test]
    fn pruned_lane_minima_equal_full_scans_on_random_constrained_nets() {
        use crate::probe::CollectingProbe;
        let mut rng = bgr_netlist::SplitMix64::new(0xF1_00_12);
        let orders = [
            CriteriaOrder::DelayFirst,
            CriteriaOrder::AreaFirst,
            CriteriaOrder::DensityOnly,
        ];
        let (mut pruned, mut violated, mut scans) = (0u64, 0u64, 0u64);
        for case in 0..60 {
            let order = orders[case % orders.len()];
            let mut engine = random_constrained(&mut rng);
            engine.set_verify(VerifyLevel::Steps(1));
            let mut done = 0;
            loop {
                for n in 0..engine.graphs.len() {
                    let net = NetId::new(n);
                    if engine.sta.constraints_of_net(net).is_empty() {
                        continue;
                    }
                    engine.index_lanes(net);
                    let g = &engine.graphs[n];
                    let floor = DelayCriteria::floor(&engine.sta, net);
                    violated += u64::from(floor.cd > 0);
                    let mut fresh = NetScanState::default();
                    for e in g.non_bridge_edges() {
                        let delay = fresh.delay(g, &engine.sta, net, e, &mut NoopProbe);
                        let real = EdgeKey {
                            delay,
                            is_trunk: false,
                            f_min: 0,
                            n_min: 0,
                            f_max: 0,
                            n_max: 0,
                            len_um: g.edges()[e as usize].len_um,
                            net,
                            edge: e,
                        };
                        let bound = EdgeKey {
                            delay: floor,
                            ..real
                        };
                        for o in orders {
                            assert_ne!(
                                compare(&bound, &real, o),
                                std::cmp::Ordering::Greater,
                                "case {case} net {n} edge {e}: floor {floor:?} ranks after \
                                 {delay:?} under {o:?}"
                            );
                        }
                    }
                    let scan = |prune, state: &mut NetScanState, probe: &mut CollectingProbe| {
                        let cx = RawScan {
                            density: &engine.density,
                            sta: &engine.sta,
                            order,
                            run: engine.window_run,
                            touched: &[],
                            prune,
                        };
                        scan_raw_keys(g, net, Lanes::ALL, &cx, state, &mut Vec::new(), probe)
                    };
                    let mut probe = CollectingProbe::new();
                    let want = scan(false, &mut NetScanState::new(g), &mut probe);
                    let got = scan(true, &mut engine.scan[n], &mut probe);
                    assert_eq!(got, want, "case {case} net {n} under {order:?}");
                    pruned += probe.finish().counter(Counter::DelayPruned);
                    scans += 1;
                }
                let run = engine.continue_deletion(None, order, done, Some(done + 3));
                if run.complete {
                    break;
                }
                done += run.selections;
            }
        }
        assert!(scans > 500, "only {scans} constrained scans");
        assert!(violated > 0, "no scan started from a violated constraint");
        assert!(pruned > 0, "no scan left an edge at its floor");
    }
}
