//! Tentative-tree wire-length estimation (§3.2).
//!
//! "The shortest paths from the driving terminal vertex to all other
//! terminals are first obtained with Dijkstra's shortest-path algorithm.
//! The union of all paths is the tentative tree." The tentative tree's
//! total length is the net's wire-length estimate `CL(n)` feeding the
//! delay model; re-running it *assuming the deletion of `e`* yields the
//! hypothetical lengths behind `LM(e, P)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::RoutingGraph;

/// Min-heap entry: `(dist, vertex)` packed into one integer that orders
/// exactly like the pair. Distances are non-negative — a search starts
/// at `+0.0` and adds non-negative weights, and `+0.0 + x` is never
/// `-0.0` — and the bits of a non-negative `f64` order like its value,
/// so `dist.to_bits()` above the vertex compares like
/// `(dist.total_cmp, vertex)`. Ties by vertex keep pops deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapItem(Reverse<u128>);

impl HeapItem {
    #[inline]
    fn new(dist: f64, vert: u32) -> Self {
        debug_assert!(dist.is_sign_positive(), "negative distance {dist}");
        Self(Reverse(u128::from(dist.to_bits()) << 32 | u128::from(vert)))
    }

    #[inline]
    fn dist(self) -> f64 {
        f64::from_bits((self.0 .0 >> 32) as u64)
    }

    #[inline]
    fn vert(self) -> u32 {
        self.0 .0 as u32
    }
}

/// Result of a tentative-tree computation.
#[derive(Debug, Clone, PartialEq)]
pub struct TentativeTree {
    /// Total length of the union of driver-to-sink shortest paths, in µm.
    pub length_um: f64,
    /// Edge indices of the union.
    pub edges: Vec<u32>,
}

/// Computes the tentative tree of a net's routing graph, optionally
/// assuming one extra edge is deleted.
///
/// Returns `None` if some terminal is unreachable from the driver under
/// the assumption (never happens when `skip` is a non-bridge).
pub fn tentative_tree(graph: &RoutingGraph, skip: Option<u32>) -> Option<TentativeTree> {
    tentative_tree_with(graph, skip, |e| graph.edges()[e as usize].len_um)
}

/// Like [`tentative_tree`], but with a caller-supplied non-negative edge
/// weight for the shortest-path search (e.g. length plus a congestion
/// penalty, as the sequential baseline router uses). The returned
/// `length_um` is always the *physical* length of the union,
/// independent of the weights.
pub fn tentative_tree_with(
    graph: &RoutingGraph,
    skip: Option<u32>,
    weight: impl Fn(u32) -> f64,
) -> Option<TentativeTree> {
    let tree = ShortestPaths::search_with(graph, skip, weight).tree(graph)?;
    Some(TentativeTree {
        length_um: tree.length_um,
        edges: bits(&tree.deps.0).collect(),
    })
}

/// Tentative length only (µm); `None` on disconnection.
pub fn tentative_length_um(graph: &RoutingGraph, skip: Option<u32>) -> Option<f64> {
    tentative_tree(graph, skip).map(|t| t.length_um)
}

/// Union of the parent chains from every terminal back to the driver,
/// as bit words over the edges; `None` if some terminal is unreachable.
fn terminal_union(graph: &RoutingGraph, parent_edge: &[u32]) -> Option<Vec<u64>> {
    let src = graph.driver_vert();
    let mut union = vec![0u64; graph.edges().len().div_ceil(64)];
    for &t in graph.terminal_verts() {
        if t != src && parent_edge[t as usize] == u32::MAX {
            return None;
        }
        let mut cur = t;
        while cur != src {
            let e = parent_edge[cur as usize];
            let (word, bit) = (e as usize / 64, 1 << (e % 64));
            if union[word] & bit != 0 {
                break;
            }
            union[word] |= bit;
            cur = other_end(graph, e, cur);
        }
    }
    Some(union)
}

/// The endpoint of edge `e` that is not `v`.
fn other_end(graph: &RoutingGraph, e: u32, v: u32) -> u32 {
    let edge = &graph.edges()[e as usize];
    if edge.a == v {
        edge.b
    } else {
        edge.a
    }
}

/// Physical length of a union given as bit words. Exact in any order:
/// grid lengths below the cap sum exactly (see [`ShortestPaths`]).
fn union_length_um(graph: &RoutingGraph, words: &[u64]) -> f64 {
    bits(words).fold(0.0, |sum, e| sum + graph.edges()[e as usize].len_um)
}

/// The indices of the set bits of `words`, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        std::iter::successors(Some(word), |&w| Some(w & w.wrapping_sub(1)))
            .take_while(|&w| w != 0)
            .map(move |w| (i * 64) as u32 + w.trailing_zeros())
    })
}

/// A set of edge indices of one routing graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct EdgeSet(Box<[u64]>);

impl EdgeSet {
    /// Whether edge `e` is in the set.
    #[inline]
    pub(crate) fn contains(&self, e: u32) -> bool {
        self.0
            .get(e as usize / 64)
            .is_some_and(|w| (w >> (e % 64)) & 1 == 1)
    }
}

/// A tentative tree's length together with the edges it *depends on*:
/// deleting any alive edge outside `deps` leaves the tree, and so
/// `length_um`, exactly as it is (see [`ShortestPaths`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TreeDeps {
    /// Total length of the union of driver-to-sink shortest paths, in µm
    /// (bit-identical to [`tentative_length_um`]).
    pub(crate) length_um: f64,
    /// The edges the tree depends on: the tree's own.
    pub(crate) deps: EdgeSet,
}

impl TreeDeps {
    /// The tentative tree of a routed tree: `graph`'s alive set, which
    /// must be connected, prune-closed and free of deletable edges, as
    /// every engine graph with no deletable edge is. No search runs:
    /// every leaf of such a tree is a terminal, so each alive edge lies
    /// on the driver's only path to some terminal, and the union is the
    /// alive set. Its length, [`RoutingGraph::alive_length_um`], sums the
    /// same edges in the same order from +0 as [`ShortestPaths::tree`]
    /// (DESIGN.md §8, "The tree path").
    pub(crate) fn routed(graph: &RoutingGraph) -> Self {
        let mut words = vec![0u64; graph.edges().len().div_ceil(64)];
        for e in graph.alive_edges() {
            words[e as usize / 64] |= 1 << (e % 64);
        }
        Self {
            length_um: graph.alive_length_um(),
            deps: EdgeSet(words.into_boxed_slice()),
        }
    }
}

/// The driver-rooted shortest-path search behind a tentative tree:
/// Dijkstra over the alive edges with strict relaxation and pops ordered
/// by `(dist, vertex)`, kept whole (every vertex's distance and parent
/// edge) so that hypothetical deletions can be answered without a fresh
/// search.
///
/// # Exact reuse
///
/// Every edge length is a multiple of 2⁻¹⁰ µm
/// ([`LEN_GRID_UM`](crate::graph::LEN_GRID_UM)), and the engine admits
/// only graphs whose total length stays below 2⁴² µm
/// ([`LEN_CAP_UM`](crate::graph::LEN_CAP_UM)). Every distance a search
/// forms is a simple path's length plus at most one more edge, so a
/// multiple of 2⁻¹⁰ below 2⁴³, which an `f64` holds exactly: a
/// relaxation keeps the distance along a zero edge and strictly
/// increases it along any other, and every sum of distinct edges is
/// exact in any order.
///
/// Everything rests on one lemma. Let `X` be a set of vertices closed
/// under taking parents, and delete edges none of which is the parent
/// edge of a vertex in `X`. Then every vertex of `X` keeps its distance
/// and its parent edge.
///
/// *Proof.* Write `d` before and `d'` after. `X`'s tree paths survive
/// and distances never shrink, so `d' = d` on `X`; a predecessor tight
/// after is tight before. Vertices settle level by level (non-decreasing
/// `d`); within a level the search settles the smallest-index vertex
/// among those reached, a vertex being reached from a lower level before
/// the level starts or along a zero edge from a settled vertex of the
/// level; a vertex's parent is its first-settled tight predecessor
/// (first tight edge in adjacency order). So it suffices that `u ∈ X`
/// settled before a same-level `v` still is. If not, take the earliest
/// such `v` after. Since sums are exact, no zero edge joins a vertex
/// that rose into the level to one that did not (it would have carried
/// the old, lower distance), so `v` was reached from below — then also
/// before, and it would have preceded `u` — or along a zero edge from an
/// `a` settled earlier, which settled after `u` before: `(u, a)`
/// contradicts the choice of `v`. If `u` was not yet reached when `v`
/// settled, the same holds for its first reached ancestor on the level,
/// which keeps its reach because its lower parent is untouched. ∎
///
/// Two rules follow:
///
/// * **Off-tree deletions** (`X` = the tree's vertices): deleting edges
///   outside the tentative tree leaves it unchanged. So the tree
///   depends only on its own edges ([`ShortestPaths::tree`]), and a
///   tree found with one edge skipped stays valid while the graph loses
///   edges outside it.
/// * **Tree-edge deletions** (`X` = all but the detached subtree):
///   only the subtree hanging below a deleted parent edge needs
///   re-settling ([`ShortestPaths::tree_without`]).
///
/// The first hypothetical tree indexes the search once ([`Resettle`]);
/// the index lives as long as the search, which the engine keeps for
/// one scan of the net.
#[derive(Debug, Clone)]
pub(crate) struct ShortestPaths {
    /// Per vertex: its distance from the driver (`∞` if unreached).
    pub(crate) dist: Vec<f64>,
    parent_edge: Vec<u32>,
    resettle: Option<Box<Resettle>>,
}

impl ShortestPaths {
    /// Searches the alive edges of `graph` minus `skip` by edge length.
    pub(crate) fn search(graph: &RoutingGraph, skip: Option<u32>) -> Self {
        Self::search_with(graph, skip, |e| graph.edges()[e as usize].len_um)
    }

    fn search_with(graph: &RoutingGraph, skip: Option<u32>, weight: impl Fn(u32) -> f64) -> Self {
        let nv = graph.verts().len();
        let mut dist = vec![f64::INFINITY; nv];
        let mut parent_edge = vec![u32::MAX; nv];
        let src = graph.driver_vert();
        dist[src as usize] = 0.0;
        let mut heap = BinaryHeap::with_capacity(nv);
        heap.push(HeapItem::new(0.0, src));
        while let Some(item) = heap.pop() {
            let (d, v) = (item.dist(), item.vert());
            if d > dist[v as usize] {
                continue;
            }
            for &(w, e) in graph.adj(v) {
                if !graph.is_alive(e) || Some(e) == skip {
                    continue;
                }
                let we = weight(e);
                debug_assert!(we >= 0.0, "edge {e} weighs {we}");
                let nd = d + we;
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    parent_edge[w as usize] = e;
                    heap.push(HeapItem::new(nd, w));
                }
            }
        }
        Self {
            dist,
            parent_edge,
            resettle: None,
        }
    }

    /// The tentative tree of this search with its dependencies (the
    /// tree's own edges). `None` if some terminal is unreachable.
    pub(crate) fn tree(&self, graph: &RoutingGraph) -> Option<TreeDeps> {
        let union = terminal_union(graph, &self.parent_edge)?;
        Some(TreeDeps {
            length_um: union_length_um(graph, &union),
            deps: EdgeSet(union.into_boxed_slice()),
        })
    }

    /// The tentative tree assuming alive edge `e` deleted, bit-identical
    /// to `Self::search(graph, Some(e)).tree(graph)`, and the number of
    /// vertices re-settled to find it (none when `e` is not a parent
    /// edge: the tree is then this search's own).
    ///
    /// When `e` is a parent edge, only the subtree `S` below it is
    /// re-settled. Every other vertex keeps its distance and
    /// parent, so the search replays just the vertices that can affect
    /// `S`: the outside vertices adjacent to it, plus their ancestors on
    /// the same level, which reach them along zero edges. Each enters
    /// the heap when the full search would reach it — at the start if
    /// its parent is on a lower level, otherwise when its parent pops —
    /// so the relative `(dist, vertex)` pop order, and hence every
    /// parent chosen inside `S`, is the full search's. The work is
    /// proportional to `S`, its surroundings and the new tree, not to
    /// the graph: the search's [`Resettle`] index answers every
    /// search-tree question, neighbours are read from the graph's own
    /// adjacency (dead edges skipped, in the order the full search reads
    /// them), and all per-vertex and per-edge state lives in scratch
    /// buffers that are cleared entry by entry.
    ///
    /// The new union is the current one minus the edges only detached
    /// terminals used, plus their new chains; its length is the current
    /// length minus the unlinked edges plus the linked ones, exact like
    /// every sum of grid lengths.
    pub(crate) fn tree_without(&mut self, graph: &RoutingGraph, e: u32) -> (Option<TreeDeps>, u32) {
        let edge = &graph.edges()[e as usize];
        let Some(child) = [edge.a, edge.b]
            .into_iter()
            .find(|&v| self.parent_edge[v as usize] == e)
        else {
            return (self.tree(graph), 0);
        };
        let (dist, parent_edge) = (&self.dist, &self.parent_edge);
        let s = self
            .resettle
            .get_or_insert_with(|| Box::new(Resettle::index(graph, parent_edge)));
        let Resettle {
            index: ix,
            mark,
            dist: new_dist,
            parent_edge: new_parent_edge,
            members,
            replayed,
            next_union,
            heap,
        } = &mut **s;
        // S: `child` and its descendants, unsettled.
        mark[child as usize] = Mark::Detached;
        members.push(child);
        let mut i = 0;
        while i < members.len() {
            let v = members[i];
            new_dist[v as usize] = f64::INFINITY;
            new_parent_edge[v as usize] = u32::MAX;
            let mut w = ix.first_child[v as usize];
            while w != u32::MAX {
                mark[w as usize] = Mark::Detached;
                members.push(w);
                w = ix.next_sibling[w as usize];
            }
            i += 1;
        }
        // The replayed outside vertices; those reached from a lower level
        // (or the driver) start in the heap.
        for &v in members.iter() {
            for &(w, f) in graph.adj(v) {
                if f == e || !graph.is_alive(f) {
                    continue;
                }
                let mut u = w;
                while mark[u as usize] == Mark::Clear {
                    mark[u as usize] = Mark::Replayed;
                    replayed.push(u);
                    let p = ix.parent[u as usize];
                    let d = dist[u as usize];
                    if p != u32::MAX && dist[p as usize] == d {
                        u = p;
                    } else {
                        heap.push(HeapItem::new(d, u));
                        break;
                    }
                }
            }
        }
        while let Some(item) = heap.pop() {
            let (d, v) = (item.dist(), item.vert());
            let inside = mark[v as usize] == Mark::Detached;
            if inside && d > new_dist[v as usize] {
                continue;
            }
            for &(w, f) in graph.adj(v) {
                if f == e || !graph.is_alive(f) {
                    continue;
                }
                let wi = w as usize;
                match mark[wi] {
                    Mark::Detached => {
                        let nd = d + graph.edges()[f as usize].len_um;
                        if nd < new_dist[wi] {
                            new_dist[wi] = nd;
                            new_parent_edge[wi] = f;
                            heap.push(HeapItem::new(nd, w));
                        }
                    }
                    Mark::Replayed if !inside && parent_edge[wi] == f && dist[wi] == d => {
                        heap.push(HeapItem::new(d, w));
                    }
                    _ => {}
                }
            }
        }
        // The union: the current one, minus what only detached terminals
        // used — edges inside S, `e`, and the chain above `e` up to the
        // first edge that other terminals use too — plus their new
        // chains, which end on the first edge still in the union (its
        // chain to the driver is in it too).
        let src = graph.driver_vert();
        let len_of = |f: u32| graph.edges()[f as usize].len_um;
        next_union.clone_from(&ix.union);
        let mut length_um = ix.length_um;
        let mut unlink = |f: u32| {
            let (word, bit) = (f as usize / 64, 1 << (f % 64));
            if next_union[word] & bit != 0 {
                next_union[word] &= !bit;
                length_um -= len_of(f);
            }
        };
        let mut k = 0;
        for &v in members.iter() {
            unlink(parent_edge[v as usize]);
            k += ix.terminals[v as usize];
        }
        let mut cur = ix.parent[child as usize];
        while cur != src {
            let pe = parent_edge[cur as usize];
            if ix.uses[pe as usize] > k {
                break;
            }
            unlink(pe);
            cur = ix.parent[cur as usize];
        }
        let mut reachable = true;
        'terminals: for &t in members.iter().filter(|&&t| ix.terminals[t as usize] > 0) {
            let mut cur = t;
            while cur != src {
                let pe = match mark[cur as usize] {
                    Mark::Detached => new_parent_edge[cur as usize],
                    _ => parent_edge[cur as usize],
                };
                if pe == u32::MAX {
                    reachable = false;
                    break 'terminals;
                }
                let (word, bit) = (pe as usize / 64, 1 << (pe % 64));
                if next_union[word] & bit != 0 {
                    break;
                }
                next_union[word] |= bit;
                length_um += len_of(pe);
                cur = other_end(graph, pe, cur);
            }
        }
        let tree = reachable.then(|| TreeDeps {
            length_um,
            deps: EdgeSet(next_union.clone().into_boxed_slice()),
        });
        let resettled = members.len() as u32;
        s.clear();
        (tree, resettled)
    }
}

/// Per-vertex role in one [`ShortestPaths::tree_without`] replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Mark {
    #[default]
    Clear,
    /// In the detached subtree: re-settled.
    Detached,
    /// Outside it, replayed at its known distance.
    Replayed,
}

/// What every [`ShortestPaths::tree_without`] of one search reads,
/// built once before its first detach. The alive set, and so the search
/// tree, is fixed for the search's life: a deletion drops the search.
#[derive(Debug, Clone)]
struct SearchIndex {
    /// Per vertex: its parent in the search tree (`u32::MAX` for the
    /// driver and unreached vertices).
    parent: Vec<u32>,
    /// Per vertex: its first child in the search tree, then per child
    /// the next one (`u32::MAX` ends a list), so a detach walks the
    /// subtree without scanning neighbours.
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    /// Per vertex: how often it occurs in the graph's terminal list
    /// (repeats count, as in `uses`).
    terminals: Vec<u32>,
    /// The search's own union as bit words, and per edge how many
    /// terminal chains use it.
    union: Vec<u64>,
    uses: Vec<u32>,
    /// The union's length.
    length_um: f64,
}

/// State of [`ShortestPaths::tree_without`]: the search's [`SearchIndex`]
/// and scratch buffers that are clear between calls. `dist` and
/// `parent_edge` hold the re-settled values of detached vertices only.
#[derive(Debug, Clone)]
struct Resettle {
    index: SearchIndex,
    mark: Vec<Mark>,
    dist: Vec<f64>,
    parent_edge: Vec<u32>,
    members: Vec<u32>,
    replayed: Vec<u32>,
    next_union: Vec<u64>,
    heap: BinaryHeap<HeapItem>,
}

impl Resettle {
    /// Indexes the search with parent edges `parent_edge` of `graph`.
    fn index(graph: &RoutingGraph, parent_edge: &[u32]) -> Self {
        let (nv, ne) = (graph.verts().len(), graph.edges().len());
        let mut parent = vec![u32::MAX; nv];
        let mut first_child = vec![u32::MAX; nv];
        let mut next_sibling = vec![u32::MAX; nv];
        for (v, &pe) in parent_edge.iter().enumerate() {
            if pe != u32::MAX {
                let p = other_end(graph, pe, v as u32);
                parent[v] = p;
                next_sibling[v] = first_child[p as usize];
                first_child[p as usize] = v as u32;
            }
        }
        let mut terminals = vec![0; nv];
        let mut union = vec![0u64; ne.div_ceil(64)];
        let mut uses = vec![0; ne];
        for &t in graph.terminal_verts() {
            terminals[t as usize] += 1;
            let mut cur = t;
            while cur != graph.driver_vert() {
                let pe = parent_edge[cur as usize];
                if pe == u32::MAX {
                    break;
                }
                uses[pe as usize] += 1;
                union[pe as usize / 64] |= 1 << (pe % 64);
                cur = parent[cur as usize];
            }
        }
        let length_um = union_length_um(graph, &union);
        Self {
            index: SearchIndex {
                parent,
                first_child,
                next_sibling,
                terminals,
                union,
                uses,
                length_um,
            },
            mark: vec![Mark::Clear; nv],
            dist: vec![f64::INFINITY; nv],
            parent_edge: vec![u32::MAX; nv],
            members: Vec::new(),
            replayed: Vec::new(),
            next_union: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn clear(&mut self) {
        for v in self.members.drain(..).chain(self.replayed.drain(..)) {
            self.mark[v as usize] = Mark::Clear;
        }
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::{cross_row_net, same_row_net};
    use crate::graph::RoutingGraph;
    use bgr_netlist::SplitMix64;

    /// A random connected multigraph: a random spanning tree plus extra
    /// (possibly parallel) edges, lengths drawn from `lengths`, edges
    /// listed in random order, driver at vertex 0.
    fn random_graph(rng: &mut SplitMix64, lengths: &[f64]) -> RoutingGraph {
        let nv = rng.range_usize(3, 14);
        let mut edges = Vec::new();
        let len = |rng: &mut SplitMix64| lengths[rng.range_usize(0, lengths.len())];
        for v in 1..nv as u32 {
            let u = rng.range_usize(0, v as usize) as u32;
            edges.push((u, v, len(rng)));
        }
        for _ in 0..rng.range_usize(1, 14) {
            let (a, b) = (rng.range_usize(0, nv), rng.range_usize(0, nv));
            if a != b {
                edges.push((a as u32, b as u32, len(rng)));
            }
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.range_usize(0, i + 1));
        }
        let mut terminals = vec![0];
        for _ in 0..rng.range_usize(1, nv) {
            let t = rng.range_usize(1, nv) as u32;
            if !terminals.contains(&t) {
                terminals.push(t);
            }
        }
        RoutingGraph::from_edges(nv, &edges, &terminals)
    }

    /// Every reuse rule of [`ShortestPaths`] against full searches, on
    /// random multigraphs with zero lengths, rounding-prone lengths and
    /// sub-ulp lengths (both snapped to the grid when the graph is
    /// built), through whole random deletion sequences.
    #[test]
    fn reuse_rules_match_full_searches_on_random_graphs() {
        let length_sets: [&[f64]; 4] = [
            &[0.0, 8.0, 16.0, 30.0],
            &[0.0, 0.0, 1.0],
            &[0.0, 0.1, 0.2, 0.3, 0.7],
            &[0.0, 1e-17, 1.0, 3.0],
        ];
        let mut rng = SplitMix64::new(0x7E57_7EE5);
        let mut resettled = 0;
        for case in 0..4000 {
            let lengths = length_sets[case % length_sets.len()];
            let mut g = random_graph(&mut rng, lengths);
            // Hypothetical trees cached across the deletion sequence.
            let mut kept: Vec<(u32, TreeDeps)> = Vec::new();
            loop {
                let mut paths = ShortestPaths::search(&g, None);
                let full = tentative_tree(&g, None).expect("connected");
                let current = paths.tree(&g).expect("connected");
                assert_eq!(current.length_um.to_bits(), full.length_um.to_bits());
                for (skip, tree) in &kept {
                    let want = tentative_length_um(&g, Some(*skip)).expect("non-bridge");
                    assert_eq!(
                        tree.length_um.to_bits(),
                        want.to_bits(),
                        "case {case}: kept tree"
                    );
                }
                let deletable: Vec<u32> = g.non_bridge_edges().collect();
                if deletable.is_empty() {
                    break;
                }
                kept.clear();
                for &e in &deletable {
                    let want = tentative_tree(&g, Some(e)).expect("non-bridge");
                    let subtree = subtree_size(&g, &paths.parent_edge, e);
                    let (got, count) = paths.tree_without(&g, e);
                    let got = got.expect("non-bridge");
                    assert_eq!(
                        got.length_um.to_bits(),
                        want.length_um.to_bits(),
                        "case {case}"
                    );
                    // A search without `e` re-settles exactly the subtree
                    // `e` hangs, and a tentative-tree edge hangs one.
                    assert_eq!(count, subtree, "case {case}: edge {e}");
                    assert!(
                        count > 0 || !full.edges.contains(&e),
                        "case {case}: tree edge {e} re-settled nothing"
                    );
                    resettled += full.edges.contains(&e) as usize;
                    for x in 0..g.edges().len() as u32 {
                        assert_eq!(got.deps.contains(x), want.edges.contains(&x));
                    }
                    if !current.deps.contains(e) {
                        assert_eq!(want.edges, full.edges, "case {case}: off-tree edge {e}");
                    }
                    kept.push((e, got));
                }
                let doomed = deletable[rng.range_usize(0, deletable.len())];
                g.delete_edge(doomed);
                g.recompute_bridges();
                kept.retain(|(skip, t)| *skip != doomed && !t.deps.contains(doomed));
            }
        }
        assert!(
            resettled > 10_000,
            "only {resettled} subtree re-settles exercised"
        );
    }

    /// A random connected multigraph of 100–140 vertices: a random
    /// spanning tree plus about half as many extra (possibly parallel)
    /// edges, lengths drawn from `lengths`, a quarter of the vertices
    /// terminals, driver at vertex 0. Its non-terminal chains make many
    /// deletions prune.
    fn random_large_graph(rng: &mut SplitMix64, lengths: &[f64]) -> RoutingGraph {
        let nv = rng.range_usize(100, 141);
        let len = |rng: &mut SplitMix64| lengths[rng.range_usize(0, lengths.len())];
        let mut edges: Vec<(u32, u32, f64)> = (1..nv)
            .map(|v| (rng.range_usize(0, v) as u32, v as u32, len(rng)))
            .collect();
        for _ in 0..nv / 2 {
            let (a, b) = (rng.range_usize(0, nv), rng.range_usize(0, nv));
            if a != b {
                edges.push((a as u32, b as u32, len(rng)));
            }
        }
        let mut terminals = vec![0];
        for _ in 0..nv / 4 {
            let t = rng.range_usize(1, nv) as u32;
            if !terminals.contains(&t) {
                terminals.push(t);
            }
        }
        let mut g = RoutingGraph::from_edges(nv, &edges, &terminals);
        g.prune_dangling();
        g.recompute_bridges();
        g
    }

    /// Subtree re-settles against full searches on graphs of 100+
    /// vertices, through random deletion sequences that take turns
    /// deleting a tentative-tree edge, an edge off the tree and an edge
    /// whose deletion prunes a chain: every deletable edge's tree must
    /// equal a full search bit for bit, in length and in deps.
    #[test]
    fn resettles_match_full_searches_on_large_graphs() {
        let length_sets: [&[f64]; 3] =
            [&[0.0, 8.0, 16.0, 30.0], &[0.0, 0.0, 1.0], &[0.0, 0.1, 0.7]];
        let mut rng = SplitMix64::new(0xCA77_1ED5);
        let mut deletions = [0; 3];
        for case in 0..8 {
            let mut g = random_large_graph(&mut rng, length_sets[case % length_sets.len()]);
            for step in 0.. {
                let mut paths = ShortestPaths::search(&g, None);
                let current = paths.tree(&g).expect("connected");
                let deletable: Vec<u32> = g.non_bridge_edges().collect();
                if deletable.is_empty() {
                    break;
                }
                for &e in &deletable {
                    let want = tentative_tree(&g, Some(e)).expect("non-bridge");
                    let got = paths.tree_without(&g, e).0.expect("non-bridge");
                    assert_eq!(
                        got.length_um.to_bits(),
                        want.length_um.to_bits(),
                        "case {case} step {step}: edge {e}"
                    );
                    for x in 0..g.edges().len() as u32 {
                        assert_eq!(got.deps.contains(x), want.edges.contains(&x));
                    }
                }
                // Tree edge, off-tree edge, pruning edge in turn; any
                // deletable edge when the turn's kind has none.
                let prunes = |e: u32| {
                    let mut h = g.clone();
                    h.delete_edge(e);
                    !h.prune_dangling().is_empty()
                };
                let kind = step % 3;
                let of_kind: Vec<u32> = deletable
                    .iter()
                    .copied()
                    .filter(|&e| match kind {
                        0 => current.deps.contains(e),
                        1 => !current.deps.contains(e),
                        _ => prunes(e),
                    })
                    .collect();
                let pool = if of_kind.is_empty() {
                    &deletable
                } else {
                    &of_kind
                };
                let doomed = pool[rng.range_usize(0, pool.len())];
                deletions[kind] += usize::from(!of_kind.is_empty());
                g.delete_edge(doomed);
                g.prune_dangling();
                g.recompute_bridges();
            }
        }
        assert!(
            deletions.iter().all(|&n| n > 100),
            "deletions by kind (tree, off-tree, pruning): {deletions:?}"
        );
    }

    /// The number of vertices in the search-tree subtree below edge `e`
    /// (0 when `e` is no vertex's parent edge).
    fn subtree_size(graph: &RoutingGraph, parent_edge: &[u32], e: u32) -> u32 {
        let edge = &graph.edges()[e as usize];
        let Some(child) = [edge.a, edge.b]
            .into_iter()
            .find(|&v| parent_edge[v as usize] == e)
        else {
            return 0;
        };
        let below = |mut v: u32| loop {
            if v == child {
                return true;
            }
            match parent_edge[v as usize] {
                u32::MAX => return false,
                pe => v = other_end(graph, pe, v),
            }
        };
        (0..graph.verts().len() as u32)
            .filter(|&v| below(v))
            .count() as u32
    }

    /// Packed heap entries order like `(dist.total_cmp, vertex)`
    /// reversed (a min-heap), on non-negative distances with ties and
    /// zeros, and unpack to what they were built from.
    #[test]
    fn packed_heap_items_order_like_their_pairs() {
        let mut rng = SplitMix64::new(0x4EA9_17E5);
        let dists = [0.0, 0.5, 1.0, 30.0, 1e-300, 7.25e9, f64::MAX];
        let draw = |rng: &mut SplitMix64| {
            let d = match rng.range_usize(0, 3) {
                0 => dists[rng.range_usize(0, dists.len())],
                _ => rng.range_usize(0, 1 << 20) as f64 / 64.0,
            };
            (d, rng.range_usize(0, 6) as u32)
        };
        for _ in 0..20_000 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            let (x, y) = (HeapItem::new(a.0, a.1), HeapItem::new(b.0, b.1));
            let want = b.0.total_cmp(&a.0).then(b.1.cmp(&a.1));
            assert_eq!(x.cmp(&y), want, "{a:?} vs {b:?}");
            assert_eq!((x.dist().to_bits(), x.vert()), (a.0.to_bits(), a.1));
        }
        let mut heap: BinaryHeap<HeapItem> = [(1.0, 3), (0.0, 9), (1.0, 2), (0.0, 4)]
            .into_iter()
            .map(|(d, v)| HeapItem::new(d, v))
            .collect();
        let mut popped = Vec::new();
        while let Some(item) = heap.pop() {
            popped.push((item.dist(), item.vert()));
        }
        assert_eq!(popped, [(0.0, 4), (0.0, 9), (1.0, 2), (1.0, 3)]);
    }

    #[test]
    fn picks_shortest_side_of_cycle() {
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let t = tentative_tree(&g, None).unwrap();
        // Shortest driver->sink path: branch + trunk + branch = 30 + 8 + 30.
        assert!((t.length_um - 68.0).abs() < 1e-9);
        assert_eq!(t.edges.len(), 3);
    }

    #[test]
    fn skip_forces_detour() {
        let (circuit, placement, net) = same_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let base = tentative_tree(&g, None).unwrap();
        // Skipping an edge on the chosen path forces the same-cost other
        // channel (symmetric graph), so length is unchanged; skipping BOTH
        // is impossible with one skip, so check a used trunk.
        let used_trunk = base
            .edges
            .iter()
            .copied()
            .find(|&e| g.edges()[e as usize].kind.is_trunk())
            .unwrap();
        let alt = tentative_tree(&g, Some(used_trunk)).unwrap();
        assert!((alt.length_um - base.length_um).abs() < 1e-9);
        assert!(!alt.edges.contains(&used_trunk));
    }

    #[test]
    fn disconnection_returns_none() {
        let (circuit, placement, net) = cross_row_net();
        let g = RoutingGraph::build(&circuit, &placement, net, &[(1, 4)], 30.0);
        // The feed-half edges are bridges; skipping one disconnects.
        let feed_half = (0..g.edges().len() as u32)
            .find(|&e| {
                matches!(
                    g.edges()[e as usize].kind,
                    crate::graph::REdgeKind::FeedHalf { .. }
                )
            })
            .unwrap();
        assert!(tentative_tree(&g, Some(feed_half)).is_none());
        assert!(tentative_tree(&g, None).is_some());
    }

    #[test]
    fn multi_sink_union_shares_trunk() {
        // Three terminals in one row: driver at x=2 (u1.Y), sinks at x=6,
        // x=9; the union should share trunk segments, with total length
        // less than the sum of individual paths.
        use bgr_layout::{Geometry, PlacementBuilder};
        use bgr_netlist::{CellId, CellLibrary, CircuitBuilder};
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        let u3 = cb.add_cell("u3", inv);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        let net = cb
            .add_net(
                "n1",
                cb.cell_term(u1, "Y").unwrap(),
                [
                    cb.cell_term(u2, "A").unwrap(),
                    cb.cell_term(u3, "A").unwrap(),
                ],
            )
            .unwrap();
        cb.add_net("n2", cb.cell_term(u2, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        // u3.Y dangles (legal).
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 1);
        pb.append_with_width(0, CellId::new(0), 3);
        pb.append_with_width(0, CellId::new(1), 3);
        pb.append_with_width(0, CellId::new(2), 3);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_top(y, 8);
        let placement = pb.finish(&circuit).unwrap();
        let g = RoutingGraph::build(&circuit, &placement, net, &[], 30.0);
        let t = tentative_tree(&g, None).unwrap();
        // Driver u1.Y at x=2, sinks at x=3 and x=6 (pin offsets included):
        // one channel: branches 3×30 + trunk spans (2->3) + (3->6) =
        // 8 + 24 µm.
        assert!((t.length_um - (90.0 + 8.0 + 24.0)).abs() < 1e-9);
    }
}
