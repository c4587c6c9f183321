//! The per-net routing graph `G_r(n)` (§3.1, Fig. 3).
//!
//! Vertices correspond to circuit terminals, to physical tap positions in
//! channels, and to feedthrough points; edges are channel **trunks**
//! (horizontal wiring between consecutive tap x positions), **branches**
//! (vertical pin taps — the paper's zero-weight terminal-position
//! correspondence), and **feedthrough halves** (vertical row crossings).
//!
//! The interconnection wiring of the net must end up a tree over the
//! terminal vertices. Edges whose deletion disconnects the graph are
//! *bridges*; the router only ever deletes non-bridges, so connectivity is
//! invariant. Dangling non-terminal chains left behind by a deletion are
//! pruned immediately (they no longer represent candidate wiring).

use bgr_layout::{ChannelId, Placement};
use bgr_netlist::{Circuit, NetId, TermId};

/// The grid every edge length is rounded to when its graph is built.
pub(crate) const LEN_GRID_UM: f64 = 1.0 / 1024.0;

/// The bound a graph's total edge length must stay below, so that every
/// sum of its grid lengths is exact (see `tentative::ShortestPaths`).
pub(crate) const LEN_CAP_UM: f64 = (1u64 << 42) as f64;

/// What a routing-graph vertex stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RVertKind {
    /// A circuit terminal of the net (must stay connected).
    Terminal(TermId),
    /// A candidate tap position of a terminal in a channel.
    TermTap {
        /// The terminal.
        term: TermId,
        /// Channel of the tap.
        channel: ChannelId,
    },
    /// An assigned feedthrough point in a cell row.
    Feed {
        /// Row being crossed.
        row: u32,
    },
    /// The feedthrough's tap in one of its two adjacent channels.
    FeedTap {
        /// Row being crossed.
        row: u32,
        /// Channel of the tap.
        channel: ChannelId,
    },
}

/// A routing-graph vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RVert {
    /// Vertex kind.
    pub kind: RVertKind,
    /// Horizontal position in pitches.
    pub x: i32,
}

/// Edge kind of `G_r(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum REdgeKind {
    /// Horizontal channel wiring over `[x1, x2)`; contributes to channel
    /// density.
    Trunk {
        /// Channel the trunk runs in.
        channel: ChannelId,
    },
    /// Vertical pin tap (terminal ↔ tap position); no density interval.
    Branch {
        /// Channel the branch drops into.
        channel: ChannelId,
    },
    /// Half of a row crossing (feed point ↔ channel tap).
    FeedHalf {
        /// Row being crossed.
        row: u32,
    },
}

impl REdgeKind {
    /// Whether this is a trunk edge.
    #[inline]
    pub fn is_trunk(&self) -> bool {
        matches!(self, Self::Trunk { .. })
    }

    /// The channel of a trunk or branch edge.
    #[inline]
    pub fn channel(&self) -> Option<ChannelId> {
        match self {
            Self::Trunk { channel } | Self::Branch { channel } => Some(*channel),
            Self::FeedHalf { .. } => None,
        }
    }
}

/// A routing-graph edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct REdge {
    /// One endpoint (vertex index).
    pub a: u32,
    /// Other endpoint (vertex index).
    pub b: u32,
    /// Kind.
    pub kind: REdgeKind,
    /// Left end of the x interval (pitches).
    pub x1: i32,
    /// Right end of the x interval (pitches); `x1 == x2` for vertical
    /// edges.
    pub x2: i32,
    /// Physical length in µm charged to delay estimation: a multiple of
    /// 2⁻¹⁰ µm (the graph rounds the length it is given).
    pub len_um: f64,
}

/// The routing graph of one net, with alive/bridge bookkeeping.
#[derive(Debug, Clone)]
pub struct RoutingGraph {
    net: NetId,
    width: u32,
    verts: Vec<RVert>,
    edges: Vec<REdge>,
    /// Compressed-sparse-row adjacency: vertex `v`'s incident
    /// `(neighbour, edge)` pairs are `adj_list[adj_start[v]..adj_start[v + 1]]`,
    /// listed in ascending edge index. Edge sets never grow, so both
    /// arrays are built once, in `RoutingGraph::from_parts`.
    adj_start: Vec<u32>,
    /// The incidence pairs of every vertex, back to back (two per edge).
    adj_list: Vec<(u32, u32)>,
    alive: Vec<bool>,
    bridge: Vec<bool>,
    terminal_verts: Vec<u32>,
    driver_vert: u32,
    alive_count: usize,
    /// Invalidation stamp: bumped by every call that can change the alive
    /// set or bridge flags. Equal stamps guarantee an identical graph
    /// state, so derived caches (tentative lengths, hypothetical wires,
    /// selection keys) keyed on it can never go stale.
    generation: u64,
}

/// Reusable work arrays of the graph walks — the prune queue, the
/// low-link DFS, the tree proof and the connectivity walk — and the tap
/// list of the graph build, shared by every graph a caller walks, so
/// that once they have grown to the largest graph no walk allocates.
///
/// Between walks every `disc` entry is 0 and every list is empty: a walk
/// records each vertex it discovers in `reached` and clears exactly those
/// entries when it ends, never the whole array.
#[derive(Debug, Default)]
pub(crate) struct GraphScratch {
    /// Per vertex: its discovery time, 0 while undiscovered.
    disc: Vec<u32>,
    /// Per vertex: its low-link, read only where `disc` is set.
    low: Vec<u32>,
    /// The vertices the current walk discovered.
    reached: Vec<u32>,
    /// DFS frames: (vertex, incoming edge, adjacency cursor).
    stack: Vec<(u32, u32, usize)>,
    /// The prune queue.
    queue: Vec<u32>,
    /// The build's `(channel, x, vertex)` taps.
    taps: Vec<(ChannelId, i32, u32)>,
}

impl GraphScratch {
    /// Grows the per-vertex arrays to `nv` vertices.
    fn fit(&mut self, nv: usize) -> &mut Self {
        if self.disc.len() < nv {
            self.disc.resize(nv, 0);
            self.low.resize(nv, 0);
        }
        self
    }

    /// Clears the discovery marks of the walk that just ended.
    fn reset(&mut self) {
        for v in self.reached.drain(..) {
            self.disc[v as usize] = 0;
        }
    }
}

impl RoutingGraph {
    /// Builds `G_r(n)` for `net` given the feedthrough points assigned to
    /// it (`feeds` = `(row, x)` pairs, one per crossed row).
    ///
    /// `branch_length_um` is the nominal vertical length charged to pin
    /// taps; row crossings are charged the full row height.
    pub fn build(
        circuit: &Circuit,
        placement: &Placement,
        net: NetId,
        feeds: &[(usize, i32)],
        branch_length_um: f64,
    ) -> Self {
        let lens = vec![branch_length_um; placement.num_channels()];
        Self::build_with_channel_branches(circuit, placement, net, feeds, &lens)
    }

    /// Like [`RoutingGraph::build`], but with a per-channel branch length
    /// (the router auto-calibrates these to half the *expected* channel
    /// height, so tentative-tree delay estimates track the lengths the
    /// channel router will later realize).
    ///
    /// # Panics
    ///
    /// Panics if `branch_len_um.len() != placement.num_channels()`.
    pub fn build_with_channel_branches(
        circuit: &Circuit,
        placement: &Placement,
        net: NetId,
        feeds: &[(usize, i32)],
        branch_len_um: &[f64],
    ) -> Self {
        let mut graph = Self::build_unbridged(
            circuit,
            placement,
            net,
            feeds,
            branch_len_um,
            &mut GraphScratch::default(),
        );
        graph.recompute_bridges();
        graph
    }

    /// [`RoutingGraph::build_with_channel_branches`] without the bridge
    /// pass: every bridge flag reads `false` until
    /// [`RoutingGraph::recompute_bridges`] runs. For callers that change
    /// the alive set before anything reads the flags (a session's
    /// graphs get theirs once, from [`RoutingGraph::settle`]). The tap
    /// list lives in `scratch`.
    pub(crate) fn build_unbridged(
        circuit: &Circuit,
        placement: &Placement,
        net: NetId,
        feeds: &[(usize, i32)],
        branch_len_um: &[f64],
        scratch: &mut GraphScratch,
    ) -> Self {
        assert_eq!(
            branch_len_um.len(),
            placement.num_channels(),
            "one branch length per channel"
        );
        let num_rows = placement.num_rows();
        let pitch = placement.geometry().pitch_um;
        let row_height = placement.geometry().row_height_um;
        let n = circuit.net(net);

        // Sized for two taps per terminal and per feed: every vector is
        // allocated once.
        let (terms, taps_len) = (n.sinks().len() + 1, 2 * (n.sinks().len() + 1 + feeds.len()));
        let mut verts: Vec<RVert> = Vec::with_capacity(terms + feeds.len() + taps_len);
        let mut edges: Vec<REdge> = Vec::with_capacity(2 * taps_len);
        let mut terminal_verts = Vec::with_capacity(terms);
        let mut driver_vert = 0u32;
        // Taps per channel for trunk linking: (channel, x, vert).
        let taps = &mut scratch.taps;
        taps.clear();

        let add_vert = |verts: &mut Vec<RVert>, kind, x| -> u32 {
            verts.push(RVert { kind, x });
            (verts.len() - 1) as u32
        };

        for term in n.terms() {
            let pos = placement.term_pos(circuit, term);
            let tv = add_vert(&mut verts, RVertKind::Terminal(term), pos.x);
            terminal_verts.push(tv);
            if term == n.driver() {
                driver_vert = tv;
            }
            for channel in pos.channels(num_rows) {
                let tap = add_vert(&mut verts, RVertKind::TermTap { term, channel }, pos.x);
                edges.push(REdge {
                    a: tv,
                    b: tap,
                    kind: REdgeKind::Branch { channel },
                    x1: pos.x,
                    x2: pos.x,
                    len_um: branch_len_um[channel.index()],
                });
                taps.push((channel, pos.x, tap));
            }
        }
        for &(row, x) in feeds {
            let fv = add_vert(&mut verts, RVertKind::Feed { row: row as u32 }, x);
            for channel in [ChannelId::new(row), ChannelId::new(row + 1)] {
                let tap = add_vert(
                    &mut verts,
                    RVertKind::FeedTap {
                        row: row as u32,
                        channel,
                    },
                    x,
                );
                edges.push(REdge {
                    a: fv,
                    b: tap,
                    kind: REdgeKind::FeedHalf { row: row as u32 },
                    x1: x,
                    x2: x,
                    len_um: row_height / 2.0,
                });
                taps.push((channel, x, tap));
            }
        }
        // Trunk edges: link consecutive taps within each channel. The
        // keys are distinct (vertices are), so an unstable sort gives the
        // one order a stable sort would.
        taps.sort_unstable_by_key(|&(c, x, v)| (c, x, v));
        for pair in taps.windows(2) {
            let (c1, x1, v1) = pair[0];
            let (c2, x2, v2) = pair[1];
            if c1 == c2 {
                edges.push(REdge {
                    a: v1,
                    b: v2,
                    kind: REdgeKind::Trunk { channel: c1 },
                    x1,
                    x2,
                    len_um: (x2 - x1) as f64 * pitch,
                });
            }
        }
        Self::from_parts(
            net,
            n.width_pitches(),
            verts,
            edges,
            terminal_verts,
            driver_vert,
        )
    }

    /// A graph over arbitrary vertices and edges for unit tests: vertex
    /// `terminals[i]` is terminal `i` (the first drives), every other
    /// vertex a feed point, every edge a channel-0 trunk of the given
    /// length.
    #[cfg(test)]
    pub(crate) fn from_edges(nv: usize, edges: &[(u32, u32, f64)], terminals: &[u32]) -> Self {
        let mut verts = vec![
            RVert {
                kind: RVertKind::Feed { row: 0 },
                x: 0,
            };
            nv
        ];
        for (i, &t) in terminals.iter().enumerate() {
            verts[t as usize].kind = RVertKind::Terminal(TermId::new(i));
        }
        let edges = edges
            .iter()
            .map(|&(a, b, len_um)| REdge {
                a,
                b,
                kind: REdgeKind::Trunk {
                    channel: ChannelId::new(0),
                },
                x1: 0,
                x2: 0,
                len_um,
            })
            .collect();
        let mut graph = Self::from_parts(
            NetId::new(0),
            1,
            verts,
            edges,
            terminals.to_vec(),
            terminals[0],
        );
        graph.recompute_bridges();
        graph
    }

    /// Rounds every edge length to [`LEN_GRID_UM`] (on-grid lengths keep
    /// every bit), indexes adjacency and marks every edge alive; bridge
    /// flags are left `false` for the caller to compute.
    ///
    /// The CSR arrays are filled by a counting sort over the edges in
    /// reverse index order, each vertex's entries from the end of its
    /// range down, so each vertex lists its incident edges exactly as
    /// per-vertex pushes in edge order would: Dijkstra's tie-breaking
    /// and the reuse rules of `ShortestPaths` depend on that order.
    fn from_parts(
        net: NetId,
        width: u32,
        verts: Vec<RVert>,
        mut edges: Vec<REdge>,
        terminal_verts: Vec<u32>,
        driver_vert: u32,
    ) -> Self {
        for e in &mut edges {
            e.len_um = (e.len_um / LEN_GRID_UM).round() * LEN_GRID_UM;
        }
        // Counted into `adj_start[v]`, summed into the end of each
        // range, then decremented to its start by the fill.
        let mut adj_start = vec![0u32; verts.len() + 1];
        for e in &edges {
            adj_start[e.a as usize] += 1;
            adj_start[e.b as usize] += 1;
        }
        for v in 1..=verts.len() {
            adj_start[v] += adj_start[v - 1];
        }
        let mut adj_list = vec![(0u32, 0u32); 2 * edges.len()];
        for (i, e) in edges.iter().enumerate().rev() {
            for (v, w) in [(e.b, e.a), (e.a, e.b)] {
                adj_start[v as usize] -= 1;
                adj_list[adj_start[v as usize] as usize] = (w, i as u32);
            }
        }
        Self {
            net,
            width,
            alive: vec![true; edges.len()],
            bridge: vec![false; edges.len()],
            alive_count: edges.len(),
            verts,
            edges,
            adj_start,
            adj_list,
            terminal_verts,
            driver_vert,
            generation: 0,
        }
    }

    /// The net this graph routes.
    pub fn net(&self) -> NetId {
        self.net
    }

    /// Wire width in pitches (density weight of trunk edges).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// All vertices.
    pub fn verts(&self) -> &[RVert] {
        &self.verts
    }

    /// All edges (including deleted ones; check [`RoutingGraph::is_alive`]).
    pub fn edges(&self) -> &[REdge] {
        &self.edges
    }

    /// Adjacency `(neighbor vertex, edge index)` of a vertex, including
    /// dead edges.
    #[inline]
    pub fn adj(&self, v: u32) -> &[(u32, u32)] {
        let v = v as usize;
        &self.adj_list[self.adj_start[v] as usize..self.adj_start[v + 1] as usize]
    }

    /// Whether edge `e` is alive.
    #[inline]
    pub fn is_alive(&self, e: u32) -> bool {
        self.alive[e as usize]
    }

    /// Whether edge `e` is currently a bridge (only meaningful if alive).
    #[inline]
    pub fn is_bridge(&self, e: u32) -> bool {
        self.bridge[e as usize]
    }

    /// Number of alive edges.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Invalidation stamp: bumped by [`RoutingGraph::delete_edge`] (so by
    /// the engine's one-pass deletion),
    /// [`RoutingGraph::restore_all`], [`RoutingGraph::set_alive_mask`],
    /// [`RoutingGraph::prune_dangling`] and
    /// [`RoutingGraph::recompute_bridges`]; the engine's tree path, which
    /// settles a routed tree without those passes, bumps it once, as the
    /// bridge pass it replaces would. Caches derived from the alive
    /// subgraph or its bridge flags stay valid exactly while this value
    /// is unchanged.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Vertex indices of the net's terminals.
    pub fn terminal_verts(&self) -> &[u32] {
        &self.terminal_verts
    }

    /// Vertex index of the driving terminal.
    pub fn driver_vert(&self) -> u32 {
        self.driver_vert
    }

    /// Iterates over alive edge indices.
    pub fn alive_edges(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.edges.len() as u32).filter(|&e| self.alive[e as usize])
    }

    /// Iterates over alive non-bridge edge indices (the deletable set
    /// `N_b`).
    pub fn non_bridge_edges(&self) -> impl Iterator<Item = u32> + '_ {
        self.alive_edges().filter(|&e| !self.bridge[e as usize])
    }

    /// The net's density footprint: `(channel, x1, x2, bridge)` of every
    /// alive trunk edge, in edge order. A bridge span also counts in
    /// `d_m` (see [`crate::density`]).
    pub(crate) fn trunk_spans(&self) -> impl Iterator<Item = (ChannelId, i32, i32, bool)> + '_ {
        self.alive_edges().filter_map(|e| {
            let edge = &self.edges[e as usize];
            match edge.kind {
                REdgeKind::Trunk { channel } => {
                    Some((channel, edge.x1, edge.x2, self.bridge[e as usize]))
                }
                _ => None,
            }
        })
    }

    /// Whether any deletable edge remains.
    pub fn has_non_bridge(&self) -> bool {
        self.non_bridge_edges().next().is_some()
    }

    /// Alive degree of a vertex.
    pub fn degree(&self, v: u32) -> usize {
        self.adj(v)
            .iter()
            .filter(|&&(_, e)| self.alive[e as usize])
            .count()
    }

    /// Deletes a single edge (marks dead). Callers are responsible for
    /// only deleting non-bridges and for re-running
    /// [`RoutingGraph::prune_dangling`] / [`RoutingGraph::recompute_bridges`];
    /// the engine's deletions do all three in one local pass (DESIGN.md
    /// §8, "One pass per deletion").
    ///
    /// # Panics
    ///
    /// Panics if the edge is already dead.
    pub fn delete_edge(&mut self, e: u32) {
        assert!(self.alive[e as usize], "edge {e} deleted twice");
        self.alive[e as usize] = false;
        self.alive_count -= 1;
        self.generation += 1;
    }

    /// Restores every edge to alive (rip-up for rerouting) and recomputes
    /// bridges.
    pub fn restore_all(&mut self) {
        self.load_alive(None);
        self.recompute_bridges();
    }

    /// Snapshot of the alive mask (for revertible rerouting).
    pub fn alive_mask(&self) -> Vec<bool> {
        self.alive.clone()
    }

    /// Consumes the graph, returning its alive mask without a copy.
    pub(crate) fn into_alive(self) -> Vec<bool> {
        self.alive
    }

    /// Restores a previously captured alive mask and recomputes bridges.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match the edge count.
    pub fn set_alive_mask(&mut self, mask: &[bool]) {
        self.load_alive(Some(mask));
        self.recompute_bridges();
    }

    /// Sets the alive set to `mask`, or with `None` to every edge, and
    /// bumps the generation — *without* the bridge pass: the flags are
    /// stale until [`RoutingGraph::recompute_bridges`] or
    /// [`RoutingGraph::settle`] runs, so a caller that prunes first pays
    /// for one pass, not two.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match the edge count.
    pub(crate) fn load_alive(&mut self, mask: Option<&[bool]>) {
        match mask {
            Some(mask) => {
                assert_eq!(mask.len(), self.edges.len(), "mask length mismatch");
                self.alive.copy_from_slice(mask);
                self.alive_count = mask.iter().filter(|&&a| a).count();
            }
            None => {
                self.alive.iter_mut().for_each(|a| *a = true);
                self.alive_count = self.edges.len();
            }
        }
        self.generation += 1;
    }

    /// Prunes dangling chains: repeatedly removes the single alive edge of
    /// any degree-1 non-terminal vertex. Returns the pruned edge indices.
    pub fn prune_dangling(&mut self) -> Vec<u32> {
        self.prune_from(0..self.verts.len() as u32, &mut Vec::new())
    }

    /// The one prune loop: each seed in turn, from the last, is queued
    /// (`queue` is scratch, empty between calls) and the queue drained
    /// from its back. A degree-1 non-terminal vertex loses its one alive
    /// edge and the edge's other end is queued; any other vertex is
    /// skipped. Every dangling vertex must be seeded —
    /// [`RoutingGraph::prune_dangling`] seeds them all,
    /// [`RoutingGraph::delete_non_bridge`] only the ends of the deleted
    /// edge, the only vertices a deletion from a prune-closed graph can
    /// leave dangling. Skipped seeds change nothing, so ascending seeds
    /// prune the dangling ones in the order seeds of those alone would.
    fn prune_from(
        &mut self,
        seeds: impl DoubleEndedIterator<Item = u32>,
        queue: &mut Vec<u32>,
    ) -> Vec<u32> {
        let mut pruned = Vec::new();
        for seed in seeds.rev() {
            queue.push(seed);
            while let Some(v) = queue.pop() {
                if self.is_terminal(v) || self.degree(v) != 1 {
                    continue;
                }
                let &(w, e) = self
                    .adj(v)
                    .iter()
                    .find(|&&(_, e)| self.alive[e as usize])
                    .expect("§3.2 prune invariant: a degree-1 vertex has exactly one alive edge");
                self.alive[e as usize] = false;
                self.alive_count -= 1;
                pruned.push(e);
                if self.degree(w) == 1 {
                    queue.push(w);
                }
            }
        }
        if !pruned.is_empty() {
            self.generation += 1;
        }
        pruned
    }

    /// Whether vertex `v` is one of the net's terminals.
    fn is_terminal(&self, v: u32) -> bool {
        matches!(self.verts[v as usize].kind, RVertKind::Terminal(_))
    }

    /// Deletes the non-bridge edge `e` in one local pass (DESIGN.md §8,
    /// "One pass per deletion"): prunes the dangling chains it leaves,
    /// starting from its endpoints, and re-runs the bridge low-link only
    /// over `e`'s old 2-edge-connected component — the alive edges not
    /// flagged as bridges that the endpoints of `e` and of the pruned
    /// edges reach. Returns the pruned edges, in prune order, and the
    /// edges it promoted to bridges, ascending; pruned edges keep their
    /// flags. The graph must be prune-closed and its flags current, as
    /// every deletion leaves them.
    ///
    /// Equivalent to [`RoutingGraph::delete_edge`],
    /// [`RoutingGraph::prune_dangling`] and
    /// [`RoutingGraph::recompute_bridges`], with `promoted` the edges
    /// whose flag that sequence turns on.
    ///
    /// # Panics
    ///
    /// Panics if the edge is dead or a bridge.
    pub(crate) fn delete_non_bridge(
        &mut self,
        e: u32,
        scratch: &mut GraphScratch,
    ) -> (Vec<u32>, Vec<u32>) {
        assert!(!self.bridge[e as usize], "refusing to delete bridge {e}");
        self.delete_edge(e);
        let REdge { a, b, .. } = self.edges[e as usize];
        let pruned = self.prune_from([a.min(b), a.max(b)].into_iter(), &mut scratch.queue);
        let mut roots = std::mem::take(&mut scratch.queue);
        roots.extend(
            pruned
                .iter()
                .flat_map(|&p| [self.edges[p as usize].a, self.edges[p as usize].b])
                .chain([a, b]),
        );
        let mut promoted = Vec::new();
        self.mark_bridges(roots.iter().copied(), scratch, Some(&mut promoted));
        roots.clear();
        scratch.queue = roots;
        promoted.sort_unstable();
        (pruned, promoted)
    }

    /// Recomputes bridge flags over the alive subgraph: clears every flag,
    /// then runs the low-link DFS from every vertex.
    pub fn recompute_bridges(&mut self) {
        self.recompute_bridges_in(&mut GraphScratch::default());
    }

    /// [`RoutingGraph::recompute_bridges`] in `scratch`.
    fn recompute_bridges_in(&mut self, scratch: &mut GraphScratch) {
        self.generation += 1;
        self.bridge.iter_mut().for_each(|b| *b = false);
        self.mark_bridges(0..self.verts.len() as u32, scratch, None);
    }

    /// Prunes the dangling chains of a loaded alive set and computes its
    /// bridge flags — [`RoutingGraph::prune_dangling`] and
    /// [`RoutingGraph::recompute_bridges`] — with one walk instead when
    /// the set is already a routed tree (DESIGN.md §8, "The tree path"):
    /// when [`RoutingGraph::is_pruned_tree`] proves it, nothing dangles
    /// and every alive edge is a bridge, so the flags are copied from the
    /// alive set. Returns whether it was such a tree.
    pub(crate) fn settle(&mut self, scratch: &mut GraphScratch) -> bool {
        if self.is_pruned_tree(scratch) {
            self.bridge.copy_from_slice(&self.alive);
            self.generation += 1;
            return true;
        }
        self.prune_from(0..self.verts.len() as u32, &mut scratch.queue);
        self.recompute_bridges_in(scratch);
        false
    }

    /// Whether the alive subgraph is a prune-closed tree spanning the
    /// terminals, in one DFS from the driver: the walk must meet no alive
    /// edge twice (no cycle, parallel edge or self-loop), reach every
    /// alive edge (one component) and every terminal, and find no
    /// non-terminal vertex of alive degree 1. Stops at the first
    /// violation.
    fn is_pruned_tree(&self, scratch: &mut GraphScratch) -> bool {
        let GraphScratch {
            disc: seen,
            reached,
            stack,
            ..
        } = scratch.fit(self.verts.len());
        let root = self.driver_vert;
        seen[root as usize] = 1;
        reached.push(root);
        stack.push((root, u32::MAX, 0));
        let mut tree_edges = 0;
        let mut tree = true;
        'walk: while let Some((v, pe, _)) = stack.pop() {
            let mut degree = 0;
            for &(w, e) in self.adj(v) {
                if !self.alive[e as usize] {
                    continue;
                }
                degree += 1;
                if e == pe {
                    continue;
                }
                if seen[w as usize] != 0 {
                    tree = false;
                    break 'walk;
                }
                seen[w as usize] = 1;
                reached.push(w);
                stack.push((w, e, 0));
                tree_edges += 1;
            }
            if degree == 1 && !self.is_terminal(v) {
                tree = false;
                break;
            }
        }
        tree = tree
            && tree_edges == self.alive_count
            && self.terminal_verts.iter().all(|&t| seen[t as usize] != 0);
        stack.clear();
        scratch.reset();
        tree
    }

    /// The low-link DFS (iterative; parallel edges told apart by edge
    /// id) over the alive edges not flagged as bridges, from each root
    /// in `roots` not reached yet. Flags every bridge of that subgraph
    /// and pushes it onto `found`, if given, in discovery order.
    fn mark_bridges(
        &mut self,
        roots: impl IntoIterator<Item = u32>,
        scratch: &mut GraphScratch,
        mut found: Option<&mut Vec<u32>>,
    ) {
        let GraphScratch {
            disc,
            low,
            reached,
            stack,
            ..
        } = scratch.fit(self.verts.len());
        let mut time = 1u32;
        // Frame: (vertex, incoming edge id (u32::MAX for root), adj cursor)
        for root in roots {
            if disc[root as usize] != 0 {
                continue;
            }
            disc[root as usize] = time;
            low[root as usize] = time;
            time += 1;
            reached.push(root);
            stack.push((root, u32::MAX, 0));
            while let Some(&mut (v, pe, ref mut cur)) = stack.last_mut() {
                let vi = v as usize;
                let adj = self.adj(v);
                if *cur < adj.len() {
                    let (w, e) = adj[*cur];
                    *cur += 1;
                    // A flag set during this DFS is on a tree edge whose
                    // child is finished and whose parent's cursor is past
                    // it, so the filter only reads flags the DFS started
                    // with.
                    if !self.alive[e as usize] || self.bridge[e as usize] || e == pe {
                        continue;
                    }
                    let wi = w as usize;
                    if disc[wi] == 0 {
                        disc[wi] = time;
                        low[wi] = time;
                        time += 1;
                        reached.push(w);
                        stack.push((w, e, 0));
                    } else {
                        low[vi] = low[vi].min(disc[wi]);
                    }
                } else {
                    stack.pop();
                    if let Some(&mut (p, _, _)) = stack.last_mut() {
                        let pi = p as usize;
                        low[pi] = low[pi].min(low[vi]);
                        if low[vi] > disc[pi] {
                            // pe is the tree edge p -> v.
                            self.bridge[pe as usize] = true;
                            if let Some(found) = &mut found {
                                found.push(pe);
                            }
                        }
                    }
                }
            }
        }
        scratch.reset();
    }

    /// Whether the alive subgraph is prune-closed: no non-terminal vertex
    /// has alive degree 1.
    pub(crate) fn prune_closed(&self) -> bool {
        (0..self.verts.len() as u32).all(|v| self.is_terminal(v) || self.degree(v) != 1)
    }

    /// Whether all terminal vertices lie in one alive component.
    pub fn terminals_connected(&self) -> bool {
        self.terminals_connected_in(&mut GraphScratch::default())
    }

    /// [`RoutingGraph::terminals_connected`] in `scratch`.
    pub(crate) fn terminals_connected_in(&self, scratch: &mut GraphScratch) -> bool {
        self.terminals_connected_over(|e| self.alive[e as usize], scratch)
    }

    /// Whether the whole graph, dead edges included, connects the
    /// terminals: whether *some* alive set can.
    pub(crate) fn terminals_connectable(&self) -> bool {
        self.terminals_connected_over(|_| true, &mut GraphScratch::default())
    }

    /// Whether all terminal vertices lie in one component of the edges
    /// `usable` accepts.
    fn terminals_connected_over(
        &self,
        usable: impl Fn(u32) -> bool,
        scratch: &mut GraphScratch,
    ) -> bool {
        let Some(&start) = self.terminal_verts.first() else {
            return true;
        };
        let GraphScratch {
            disc: seen,
            reached,
            ..
        } = scratch.fit(self.verts.len());
        seen[start as usize] = 1;
        reached.push(start);
        // `reached` doubles as the stack: its entries from `next` on are
        // still to be expanded.
        let mut next = 0;
        while let Some(&v) = reached.get(next) {
            next += 1;
            for &(w, e) in self.adj(v) {
                if usable(e) && seen[w as usize] == 0 {
                    seen[w as usize] = 1;
                    reached.push(w);
                }
            }
        }
        let connected = self.terminal_verts.iter().all(|&t| seen[t as usize] != 0);
        scratch.reset();
        connected
    }

    /// Whether the alive subgraph is a tree spanning the terminals (no
    /// non-bridge edges left and still connected).
    pub fn is_tree(&self) -> bool {
        self.terminals_connected() && !self.has_non_bridge()
    }

    /// Total alive wire length in µm.
    pub fn alive_length_um(&self) -> f64 {
        self.alive_edges()
            .map(|e| self.edges[e as usize].len_um)
            .sum()
    }

    /// The tentative length of a graph [`RoutingGraph::settle`] found to
    /// be a routed tree: the sum of its alive edges, each of which lies
    /// on the driver's path to some terminal. Summed from +0 as a search
    /// sums a path (an empty `f64` sum is −0); the order does not matter,
    /// every length being on the [`LEN_GRID_UM`] grid and the total
    /// below [`LEN_CAP_UM`].
    pub(crate) fn tree_length_um(&self) -> f64 {
        self.alive_edges()
            .fold(0.0, |sum, e| sum + self.edges[e as usize].len_um)
    }

    /// Whether the total length of every edge, dead ones included, stays
    /// below [`LEN_CAP_UM`]. The float total is a sound test: rounding is
    /// monotone and the cap representable (a NaN total fails).
    pub(crate) fn within_length_cap(&self) -> bool {
        self.edges.iter().map(|e| e.len_um).sum::<f64>() < LEN_CAP_UM
    }

    /// Wire distance (µm) from the driver to every terminal over the
    /// alive subgraph — on a routed tree, the unique path lengths that
    /// determine per-sink delay and skew (§4.2).
    ///
    /// Unreachable terminals (never the case on a routed net) get `∞`.
    pub fn terminal_distances_um(&self) -> Vec<(TermId, f64)> {
        let nv = self.verts.len();
        let mut dist = vec![f64::INFINITY; nv];
        let src = self.driver_vert as usize;
        dist[src] = 0.0;
        // BFS-like relaxation: the alive subgraph is (close to) a tree,
        // so a simple stack pass suffices.
        let mut stack = vec![self.driver_vert];
        while let Some(v) = stack.pop() {
            for &(w, e) in self.adj(v) {
                if !self.alive[e as usize] {
                    continue;
                }
                let nd = dist[v as usize] + self.edges[e as usize].len_um;
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    stack.push(w);
                }
            }
        }
        self.terminal_verts
            .iter()
            .filter_map(|&t| match self.verts[t as usize].kind {
                RVertKind::Terminal(term) => Some((term, dist[t as usize])),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bgr_layout::{Geometry, PlacementBuilder};
    use bgr_netlist::{CellId, CellLibrary, CircuitBuilder};

    /// Two INVs in the same row, u1.Y -> u2.A, both pins Both-access.
    /// The routing graph is a 6-cycle: two branches per terminal plus one
    /// trunk per channel.
    pub(crate) fn same_row_net() -> (Circuit, Placement, NetId) {
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
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 1);
        pb.append_with_width(0, CellId::new(0), 3);
        pb.append_with_width(0, CellId::new(1), 3);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_top(y, 5);
        let placement = pb.finish(&circuit).unwrap();
        (circuit, placement, net)
    }

    #[test]
    fn same_row_graph_is_a_six_cycle() {
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        // 2 terminals + 4 taps; 4 branches + 2 trunks.
        assert_eq!(g.verts().len(), 6);
        assert_eq!(g.edges().len(), 6);
        // A cycle has no bridges.
        assert_eq!(g.non_bridge_edges().count(), 6);
        assert!(g.terminals_connected());
        assert!(!g.is_tree());
    }

    #[test]
    fn deleting_one_cycle_edge_leaves_tree_after_prune() {
        let (circuit, placement, net) = same_row_net();
        let mut g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        // Delete the channel-1 trunk.
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
        let pruned = g.prune_dangling();
        // The two channel-1 branches dangle and get pruned.
        assert_eq!(pruned.len(), 2);
        g.recompute_bridges();
        assert!(g.is_tree());
        assert!(g.terminals_connected());
        assert_eq!(g.alive_count(), 3);
    }

    #[test]
    fn generation_tracks_every_mutation() {
        let (circuit, placement, net) = same_row_net();
        let mut g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let g0 = g.generation();
        let e = g.non_bridge_edges().next().unwrap();
        g.delete_edge(e);
        let g1 = g.generation();
        assert!(g1 > g0, "delete_edge bumps");
        g.prune_dangling();
        g.recompute_bridges();
        let g2 = g.generation();
        assert!(g2 > g1, "prune/recompute bump");
        let mask = g.alive_mask();
        g.restore_all();
        assert!(g.generation() > g2, "restore_all bumps");
        let g3 = g.generation();
        g.set_alive_mask(&mask);
        assert!(g.generation() > g3, "set_alive_mask bumps");
    }

    #[test]
    fn trunk_lengths_use_pitch() {
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        // u1.Y at x=2, u2.A at x=3: trunk length = 1 pitch = 8 µm.
        let trunk = g
            .alive_edges()
            .find(|&e| g.edges()[e as usize].kind.is_trunk())
            .unwrap();
        let e = &g.edges()[trunk as usize];
        assert_eq!((e.x1, e.x2), (2, 3));
        assert!((e.len_um - 8.0).abs() < 1e-12);
    }

    /// u1 in row 0, u2 in row 2, feedthrough in row 1 at x = 4.
    pub(crate) fn cross_row_net() -> (Circuit, Placement, NetId) {
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
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 3);
        pb.append_with_width(0, CellId::new(0), 3);
        pb.append_with_width(2, CellId::new(1), 3);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_top(y, 5);
        let placement = pb.finish(&circuit).unwrap();
        (circuit, placement, net)
    }

    #[test]
    fn cross_row_graph_uses_feedthrough() {
        let (circuit, placement, net) = cross_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[(1, 4)], 30.0);
        assert!(g.terminals_connected());
        // Feed vertex present with two halves.
        let feed_halves = g
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, REdgeKind::FeedHalf { row: 1 }))
            .count();
        assert_eq!(feed_halves, 2);
        // Row height 160 µm: each half is 80.
        let half = g
            .edges()
            .iter()
            .find(|e| matches!(e.kind, REdgeKind::FeedHalf { .. }))
            .unwrap();
        assert!((half.len_um - 80.0).abs() < 1e-12);
    }

    #[test]
    fn without_feed_cross_row_net_is_disconnected() {
        let (circuit, placement, net) = cross_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        assert!(!g.terminals_connected());
    }

    #[test]
    fn restore_all_undoes_deletions() {
        let (circuit, placement, net) = same_row_net();
        let mut g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let e = g.non_bridge_edges().next().unwrap();
        g.delete_edge(e);
        g.prune_dangling();
        g.restore_all();
        assert_eq!(g.alive_count(), g.edges().len());
        assert_eq!(g.non_bridge_edges().count(), 6);
    }

    #[test]
    fn bridge_flags_match_structure() {
        let (circuit, placement, net) = cross_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[(1, 4)], 30.0);
        // The feed halves are the only connection between the two channel
        // groups... unless both terminals offer taps in shared channels.
        // u1 (row 0) taps channels 0,1; u2 (row 2) taps channels 2,3; the
        // feed links 1-2. Every feed-half edge must be a bridge.
        for (i, e) in g.edges().iter().enumerate() {
            if matches!(e.kind, REdgeKind::FeedHalf { .. }) {
                assert!(g.is_bridge(i as u32), "feed half should be a bridge");
            }
        }
    }

    #[test]
    fn alive_length_sums_edges() {
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        // 4 branches à 30 µm + 2 trunks à 8 µm.
        assert!((g.alive_length_um() - (4.0 * 30.0 + 2.0 * 8.0)).abs() < 1e-9);
    }

    /// Edge lengths land on the 2⁻¹⁰ µm grid: off-grid ones round to the
    /// nearest grid point, on-grid ones keep every bit.
    #[test]
    fn from_parts_snaps_lengths_to_the_grid() {
        let lengths = [0.1, 1e-17, 0.5, 8.0, 80.0];
        let edges: Vec<(u32, u32, f64)> = (0..lengths.len())
            .map(|i| (i as u32, i as u32 + 1, lengths[i]))
            .collect();
        let g = RoutingGraph::from_edges(lengths.len() + 1, &edges, &[0, 1]);
        let got: Vec<u64> = g.edges().iter().map(|e| e.len_um.to_bits()).collect();
        let want: Vec<u64> = [102.0 / 1024.0, 0.0, 0.5, 8.0, 80.0]
            .iter()
            .map(|l: &f64| l.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn csr_adjacency_lists_incident_edges_in_edge_order() {
        let mut rng = bgr_netlist::SplitMix64::new(0xC5A0_AD1C);
        for _ in 0..500 {
            let nv = rng.range_usize(1, 12);
            let edges: Vec<(u32, u32, f64)> = (0..rng.range_usize(0, 24))
                .map(|_| {
                    let a = rng.range_usize(0, nv) as u32;
                    (a, rng.range_usize(0, nv) as u32, 1.0)
                })
                .collect();
            let g = RoutingGraph::from_edges(nv, &edges, &[0]);
            let mut naive = vec![Vec::new(); nv];
            for (i, &(a, b, _)) in edges.iter().enumerate() {
                naive[a as usize].push((b, i as u32));
                naive[b as usize].push((a, i as u32));
            }
            for (v, want) in naive.iter().enumerate() {
                assert_eq!(g.adj(v as u32), &want[..], "vertex {v} of {edges:?}");
            }
        }
    }

    /// The one-pass deletion against the whole-graph sequence it
    /// replaces, on random multigraphs (parallel edges, self-loops,
    /// several components) with random terminals, along random runs of
    /// non-bridge deletions: the same alive mask, bridge flags of alive
    /// edges and pruned edges (in the same order), and `promoted` equal
    /// to the flags the whole-graph pass turns on.
    #[test]
    fn delete_non_bridge_matches_whole_graph_passes() {
        let mut rng = bgr_netlist::SplitMix64::new(0x0E_DE1E7E);
        let mut promotions = 0;
        for _ in 0..400 {
            let nv = rng.range_usize(2, 14);
            let edges: Vec<(u32, u32, f64)> = (0..rng.range_usize(1, 28))
                .map(|_| {
                    let a = rng.range_usize(0, nv) as u32;
                    (a, rng.range_usize(0, nv) as u32, 1.0)
                })
                .collect();
            let terminals: Vec<u32> = (0..nv as u32)
                .filter(|&v| v == 0 || rng.next_bool(0.3))
                .collect();
            let mut g = RoutingGraph::from_edges(nv, &edges, &terminals);
            g.prune_dangling();
            g.recompute_bridges();
            let mut scratch = GraphScratch::default();
            loop {
                let candidates: Vec<u32> = g.non_bridge_edges().collect();
                if candidates.is_empty() {
                    break;
                }
                let e = candidates[rng.range_usize(0, candidates.len())];
                let mut want = g.clone();
                want.delete_edge(e);
                let want_pruned = want.prune_dangling();
                want.recompute_bridges();
                let want_promoted: Vec<u32> = want
                    .alive_edges()
                    .filter(|&i| want.is_bridge(i) && !g.is_bridge(i))
                    .collect();
                let (pruned, promoted) = g.delete_non_bridge(e, &mut scratch);
                assert_eq!(g.alive_mask(), want.alive_mask(), "{edges:?} minus {e}");
                assert_eq!(pruned, want_pruned, "{edges:?} minus {e}");
                assert_eq!(promoted, want_promoted, "{edges:?} minus {e}");
                for i in g.alive_edges() {
                    assert_eq!(g.is_bridge(i), want.is_bridge(i), "edge {i} of {edges:?}");
                }
                assert!(g.prune_closed());
                promotions += promoted.len();
            }
        }
        assert!(promotions > 0, "no deletion ever promoted a bridge");
    }

    /// The tree path of `settle` against the whole-graph passes it
    /// replaces — `prune_dangling`, `recompute_bridges` and
    /// `terminals_connected` — on random multigraphs (parallel edges,
    /// self-loops, several components) with random terminals and grid
    /// lengths, over five kinds of alive mask: routed trees, prune-closed
    /// non-trees, trees with a dangling non-terminal leaf, disconnected
    /// masks and empty ones. Both must leave the same alive set, bridge
    /// flags and generation; the tree path must be taken exactly for a
    /// prune-closed tree spanning the terminals, whose alive-edge sum
    /// must equal its tentative length bit for bit.
    #[test]
    fn settle_tree_path_matches_whole_graph_passes() {
        const TREE: usize = 0;
        const NON_TREE: usize = 1;
        const LEAF: usize = 2;
        const CUT: usize = 3;
        const EMPTY: usize = 4;
        let mut rng = bgr_netlist::SplitMix64::new(0x5E_771E);
        let mut scratch = GraphScratch::default();
        // Per mask kind: how often the tree path was not / was taken.
        let mut seen = [[0u32; 2]; 5];
        for _ in 0..400 {
            let nv = rng.range_usize(2, 14);
            let edges: Vec<(u32, u32, f64)> = (0..rng.range_usize(1, 28))
                .map(|_| {
                    let a = rng.range_usize(0, nv) as u32;
                    let len = rng.range_usize(0, 1 << 14) as f64 / 1024.0;
                    (a, rng.range_usize(0, nv) as u32, len)
                })
                .collect();
            let terminals: Vec<u32> = (0..nv as u32)
                .filter(|&v| v == 0 || rng.next_bool(0.3))
                .collect();
            let mut g = RoutingGraph::from_edges(nv, &edges, &terminals);
            let random: Vec<bool> = edges.iter().map(|_| rng.next_bool(0.5)).collect();
            let mut masks = vec![(EMPTY, vec![false; edges.len()]), (CUT, random)];
            g.prune_dangling();
            g.recompute_bridges();
            let connected = g.terminals_connected();
            loop {
                let candidates: Vec<u32> = g.non_bridge_edges().collect();
                if candidates.is_empty() {
                    break;
                }
                if connected {
                    masks.push((NON_TREE, g.alive_mask()));
                }
                g.delete_edge(candidates[rng.range_usize(0, candidates.len())]);
                g.prune_dangling();
                g.recompute_bridges();
            }
            if connected {
                let tree = g.alive_mask();
                let in_tree = |v: u32| v == g.driver_vert() || g.degree(v) > 0;
                let pendant = (0..edges.len()).find(|&e| {
                    let (a, b, _) = edges[e];
                    !tree[e] && a != b && in_tree(a) != in_tree(b) && {
                        let outside = if in_tree(a) { b } else { a };
                        !terminals.contains(&outside)
                    }
                });
                if let Some(e) = pendant {
                    let mut leaf = tree.clone();
                    leaf[e] = true;
                    masks.push((LEAF, leaf));
                }
                if let Some(e) = g.alive_edges().next() {
                    let mut cut = tree.clone();
                    cut[e as usize] = false;
                    masks.push((CUT, cut));
                }
                masks.push((TREE, tree));
            }
            for (kind, mask) in masks {
                let mut got = g.clone();
                got.load_alive(Some(&mask));
                let mut want = got.clone();
                let tree = got.settle(&mut scratch);
                let pruned = want.prune_dangling();
                want.recompute_bridges();
                let case = format!("kind {kind}, {edges:?} over {terminals:?}, mask {mask:?}");
                assert_eq!(got.alive_mask(), want.alive_mask(), "{case}");
                for e in 0..edges.len() as u32 {
                    assert_eq!(got.is_bridge(e), want.is_bridge(e), "edge {e}: {case}");
                }
                assert_eq!(got.generation(), want.generation(), "{case}");
                let spanning =
                    pruned.is_empty() && !want.has_non_bridge() && want.terminals_connected();
                assert_eq!(tree, spanning, "{case}");
                if tree {
                    let len = crate::tentative::tentative_length_um(&want, None)
                        .expect("a spanning tree reaches every terminal");
                    assert_eq!(got.tree_length_um().to_bits(), len.to_bits(), "{case}");
                }
                seen[kind][usize::from(tree)] += 1;
            }
        }
        assert!(seen[TREE][1] > 100 && seen[TREE][0] == 0, "{seen:?}");
        for kind in [NON_TREE, LEAF, CUT] {
            assert!(seen[kind][0] > 100, "{seen:?}");
        }
        assert!(seen[NON_TREE][1] == 0 && seen[LEAF][1] == 0, "{seen:?}");
        // An empty mask is a tree exactly when the net has one terminal.
        assert!(seen[EMPTY][0] > 100 && seen[EMPTY][1] > 10, "{seen:?}");
    }

    use bgr_layout::Placement;
    use bgr_netlist::Circuit;
}
