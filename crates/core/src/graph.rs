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
    /// Physical length in µm charged to delay estimation.
    pub len_um: f64,
}

/// The routing graph of one net, with alive/bridge bookkeeping.
#[derive(Debug, Clone)]
pub struct RoutingGraph {
    net: NetId,
    width: u32,
    verts: Vec<RVert>,
    edges: Vec<REdge>,
    adj: Vec<Vec<(u32, u32)>>,
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
        assert_eq!(
            branch_len_um.len(),
            placement.num_channels(),
            "one branch length per channel"
        );
        let num_rows = placement.num_rows();
        let pitch = placement.geometry().pitch_um;
        let row_height = placement.geometry().row_height_um;
        let n = circuit.net(net);

        let mut verts: Vec<RVert> = Vec::new();
        let mut edges: Vec<REdge> = Vec::new();
        let mut terminal_verts = Vec::new();
        let mut driver_vert = 0u32;
        // Taps per channel for trunk linking: (channel, x, vert).
        let mut taps: Vec<(ChannelId, i32, u32)> = Vec::new();

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
        // Trunk edges: link consecutive taps within each channel.
        taps.sort_by_key(|&(c, x, v)| (c, x, v));
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
        Self::from_parts(
            NetId::new(0),
            1,
            verts,
            edges,
            terminals.to_vec(),
            terminals[0],
        )
    }

    /// Indexes adjacency, marks every edge alive and finds the bridges.
    fn from_parts(
        net: NetId,
        width: u32,
        verts: Vec<RVert>,
        edges: Vec<REdge>,
        terminal_verts: Vec<u32>,
        driver_vert: u32,
    ) -> Self {
        let mut adj = vec![Vec::new(); verts.len()];
        for (i, e) in edges.iter().enumerate() {
            adj[e.a as usize].push((e.b, i as u32));
            adj[e.b as usize].push((e.a, i as u32));
        }
        let mut graph = Self {
            net,
            width,
            alive: vec![true; edges.len()],
            bridge: vec![false; edges.len()],
            alive_count: edges.len(),
            verts,
            edges,
            adj,
            terminal_verts,
            driver_vert,
            generation: 0,
        };
        graph.recompute_bridges();
        graph
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
    pub fn adj(&self, v: u32) -> &[(u32, u32)] {
        &self.adj[v as usize]
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

    /// Invalidation stamp: bumped by [`RoutingGraph::delete_edge`],
    /// [`RoutingGraph::restore_all`], [`RoutingGraph::set_alive_mask`],
    /// [`RoutingGraph::prune_dangling`] and
    /// [`RoutingGraph::recompute_bridges`]. Caches derived from the alive
    /// subgraph or its bridge flags stay valid exactly while this value is
    /// unchanged.
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
        self.adj[v as usize]
            .iter()
            .filter(|&&(_, e)| self.alive[e as usize])
            .count()
    }

    /// Deletes a single edge (marks dead). Callers are responsible for
    /// only deleting non-bridges and for re-running
    /// [`RoutingGraph::prune_dangling`] / [`RoutingGraph::recompute_bridges`].
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
        self.alive.iter_mut().for_each(|a| *a = true);
        self.alive_count = self.edges.len();
        self.generation += 1;
        self.recompute_bridges();
    }

    /// Snapshot of the alive mask (for revertible rerouting).
    pub fn alive_mask(&self) -> Vec<bool> {
        self.alive.clone()
    }

    /// Restores a previously captured alive mask and recomputes bridges.
    ///
    /// # Panics
    ///
    /// Panics if the mask length does not match the edge count.
    pub fn set_alive_mask(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.edges.len(), "mask length mismatch");
        self.alive.copy_from_slice(mask);
        self.alive_count = mask.iter().filter(|&&a| a).count();
        self.generation += 1;
        self.recompute_bridges();
    }

    /// Prunes dangling chains: repeatedly removes the single alive edge of
    /// any degree-1 non-terminal vertex. Returns the pruned edge indices.
    pub fn prune_dangling(&mut self) -> Vec<u32> {
        let mut pruned = Vec::new();
        let mut queue: Vec<u32> = (0..self.verts.len() as u32)
            .filter(|&v| {
                !matches!(self.verts[v as usize].kind, RVertKind::Terminal(_))
                    && self.degree(v) == 1
            })
            .collect();
        while let Some(v) = queue.pop() {
            if matches!(self.verts[v as usize].kind, RVertKind::Terminal(_)) {
                continue;
            }
            if self.degree(v) != 1 {
                continue;
            }
            let &(w, e) = self.adj[v as usize]
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
        if !pruned.is_empty() {
            self.generation += 1;
        }
        pruned
    }

    /// Recomputes bridge flags over the alive subgraph (iterative DFS
    /// low-link; parallel edges handled via edge ids).
    pub fn recompute_bridges(&mut self) {
        self.generation += 1;
        let nv = self.verts.len();
        self.bridge.iter_mut().for_each(|b| *b = false);
        let mut disc = vec![0u32; nv];
        let mut low = vec![0u32; nv];
        let mut time = 1u32;
        // Frame: (vertex, incoming edge id (u32::MAX for root), adj cursor)
        let mut stack: Vec<(u32, u32, usize)> = Vec::new();
        for root in 0..nv as u32 {
            if disc[root as usize] != 0 {
                continue;
            }
            disc[root as usize] = time;
            low[root as usize] = time;
            time += 1;
            stack.push((root, u32::MAX, 0));
            while let Some(&mut (v, pe, ref mut cur)) = stack.last_mut() {
                let vi = v as usize;
                if *cur < self.adj[vi].len() {
                    let (w, e) = self.adj[vi][*cur];
                    *cur += 1;
                    if !self.alive[e as usize] || e == pe {
                        continue;
                    }
                    let wi = w as usize;
                    if disc[wi] == 0 {
                        disc[wi] = time;
                        low[wi] = time;
                        time += 1;
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
                        }
                    }
                }
            }
        }
    }

    /// Whether all terminal vertices lie in one alive component.
    pub fn terminals_connected(&self) -> bool {
        let Some(&start) = self.terminal_verts.first() else {
            return true;
        };
        let mut seen = vec![false; self.verts.len()];
        let mut stack = vec![start];
        seen[start as usize] = true;
        while let Some(v) = stack.pop() {
            for &(w, e) in &self.adj[v as usize] {
                if self.alive[e as usize] && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        self.terminal_verts.iter().all(|&t| seen[t as usize])
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
            for &(w, e) in &self.adj[v as usize] {
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

    use bgr_layout::Placement;
    use bgr_netlist::Circuit;
}
