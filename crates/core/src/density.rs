//! Channel density bookkeeping (§3.3, Fig. 4), on segment trees.
//!
//! For every channel `c` and wiring-grid column `x`, the router tracks
//!
//! * `d_M(c,x)` — the number of *alive* trunk edges (weighted by net
//!   width) running over `x`: an **upper bound** on the final density;
//! * `d_m(c,x)` — the same count restricted to *bridge* trunk edges,
//!   i.e. wiring that can no longer be avoided: a **lower bound**.
//!
//! Channel aggregates `C_M, NC_M, C_m, NC_m` (the maxima and the number of
//! columns attaining them) and per-edge interval parameters
//! `D_M, ND_M, D_m, ND_m` feed the density conditions of §3.4.
//!
//! # Complexity
//!
//! Each channel keeps **one** segment tree over its columns, and every
//! node packs both profiles: `(max, count-of-max, pending add)` for
//! `d_M` and the same triple for `d_m` (one 24-byte node). A span
//! update adds `(w, w)` (a bridge), `(w, 0)` (a plain trunk) or `(0, w)`
//! (a promotion) in one descent, and [`DensityMap::edge_density`] reads
//! all four window terms `D_M, ND_M, D_m, ND_m` in one descent: it walks
//! to the node where `[x1, x2)` splits, then down the window's left and
//! right boundaries without recursion. Updates and queries are
//! O(log width); the channel aggregates are read off the root in O(1).
//! Nodes are heap-indexed (children `2i`, `2i + 1`, split at the
//! midpoint), so a tree over `n` columns needs `2 · n.next_power_of_two()`
//! slots. The seed implementation kept flat per-column vectors with a
//! dirty flag and rescanned the whole chip width per refresh — O(width)
//! on the engine's hottest path.
//!
//! # Zero-density convention
//!
//! A channel with no wiring has `d(c,x) = 0` everywhere; its maximum is
//! 0 at *every* column. The **channel aggregates** (`nc_max`, `nc_min`)
//! deliberately report the attained-count as **0** in that case, not
//! `width`: the selection criteria of §3.4 read `NC` as "columns of
//! *congestion* at the peak", and an empty channel exerts no pressure.
//! The **interval queries** ([`DensityMap::edge_density`]) do NOT apply
//! this convention — a window whose maximum is 0 reports how many of its
//! columns attain 0, because the per-edge terms `NC − ND` must stay
//! consistent for edges over empty regions. Both behaviors are pinned by
//! unit tests below.

use bgr_layout::ChannelId;

use crate::graph::RoutingGraph;

/// Per-edge density parameters over the edge's interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeDensity {
    /// `D_M(e)`: max of `d_M` over the interval.
    pub d_max: i32,
    /// `ND_M(e)`: columns of the interval attaining `D_M(e)`.
    pub nd_max: i32,
    /// `D_m(e)`: max of `d_m` over the interval.
    pub d_min: i32,
    /// `ND_m(e)`: columns of the interval attaining `D_m(e)`.
    pub nd_min: i32,
}

impl EdgeDensity {
    /// The identity of [`EdgeDensity::merge`]: no columns at all.
    const EMPTY: Self = Self {
        d_max: i32::MIN,
        nd_max: 0,
        d_min: i32::MIN,
        nd_min: 0,
    };

    /// The terms over the union of two disjoint column sets.
    #[inline]
    fn merge(self, o: Self) -> Self {
        let (d_max, nd_max) = merge_max(self.d_max, self.nd_max, o.d_max, o.nd_max);
        let (d_min, nd_min) = merge_max(self.d_min, self.nd_min, o.d_min, o.nd_min);
        Self {
            d_max,
            nd_max,
            d_min,
            nd_min,
        }
    }

    /// The terms with `om` added to every `d_M` column and `on` to every
    /// `d_m` column.
    #[inline]
    fn shifted(self, (om, on): (i32, i32)) -> Self {
        Self {
            d_max: self.d_max + om,
            d_min: self.d_min + on,
            ..self
        }
    }
}

/// `(max, count-of-max)` over the union of two disjoint column sets.
#[inline]
fn merge_max(a: i32, ac: i32, b: i32, bc: i32) -> (i32, i32) {
    if a == b {
        (a, ac + bc)
    } else if a > b {
        (a, ac)
    } else {
        (b, bc)
    }
}

/// One node of a channel's fused tree: both profiles' subtree maxima,
/// the leaves attaining them, and the pending adds. A pending add is
/// *already included* in this node's maxima but not in its children's;
/// it is never pushed down — reads carry the accumulated offset on the
/// way down instead, so they take `&self`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Node {
    /// `d_M` then `d_m` window terms of the subtree, offsets included.
    agg: EdgeDensity,
    /// Pending adds `(d_M, d_m)` for the whole subtree.
    lazy: (i32, i32),
}

/// Sums two `(d_M, d_m)` offsets.
#[inline]
fn add(a: (i32, i32), b: (i32, i32)) -> (i32, i32) {
    (a.0 + b.0, a.1 + b.1)
}

/// A channel's `d_M` and `d_m` profiles in one segment tree over `width`
/// columns, maintaining both `(max, count-of-max)` pairs under lazy
/// range-add updates (see the module docs for the layout).
#[derive(Debug, Clone)]
struct ChannelTree {
    width: usize,
    nodes: Vec<Node>,
}

impl ChannelTree {
    /// A tree over the per-column profiles `d_max` and `d_min` (equal
    /// lengths, at least one column), built bottom-up with no pending
    /// adds: O(width), where one [`ChannelTree::range_add`] per span
    /// would cost O(log width) each.
    fn from_profiles(d_max: &[i32], d_min: &[i32]) -> Self {
        let n = d_max.len();
        debug_assert!(n >= 1 && d_min.len() == n);
        let mut tree = Self {
            width: n,
            nodes: vec![Node::default(); 2 * n.next_power_of_two()],
        };
        tree.build_rec(1, 0, n, d_max, d_min);
        tree
    }

    fn build_rec(&mut self, node: usize, nl: usize, nr: usize, d_max: &[i32], d_min: &[i32]) {
        if nr - nl == 1 {
            self.nodes[node].agg = EdgeDensity {
                d_max: d_max[nl],
                nd_max: 1,
                d_min: d_min[nl],
                nd_min: 1,
            };
            return;
        }
        let m = nl + (nr - nl) / 2;
        self.build_rec(2 * node, nl, m, d_max, d_min);
        self.build_rec(2 * node + 1, m, nr, d_max, d_min);
        self.pull(node);
    }

    /// Adds `vm` to `d_M` and `vn` to `d_m` over `[l, r)` (caller clamps
    /// to `[0, width)`; `l < r`).
    fn range_add(&mut self, l: usize, r: usize, vm: i32, vn: i32) {
        self.add_rec(1, 0, self.width, l, r, vm, vn);
    }

    #[allow(clippy::too_many_arguments)]
    fn add_rec(&mut self, node: usize, nl: usize, nr: usize, l: usize, r: usize, vm: i32, vn: i32) {
        if l <= nl && nr <= r {
            let nd = &mut self.nodes[node];
            nd.agg = nd.agg.shifted((vm, vn));
            nd.lazy = add(nd.lazy, (vm, vn));
            return;
        }
        let m = nl + (nr - nl) / 2;
        if l < m {
            self.add_rec(2 * node, nl, m, l, r, vm, vn);
        }
        if m < r {
            self.add_rec(2 * node + 1, m, nr, l, r, vm, vn);
        }
        self.pull(node);
    }

    /// Recomputes an inner node's terms from its children and its own
    /// pending adds.
    #[inline]
    fn pull(&mut self, node: usize) {
        let merged = self.nodes[2 * node].agg.merge(self.nodes[2 * node + 1].agg);
        let nd = &mut self.nodes[node];
        nd.agg = merged.shifted(nd.lazy);
    }

    /// Both profiles' whole-channel terms.
    #[inline]
    fn root(&self) -> EdgeDensity {
        self.nodes[1].agg
    }

    /// The four terms over `[l, r)` (caller clamps; `l < r`) in one
    /// descent: down to the node where the window splits at its
    /// midpoint, then along the window's left boundary (a suffix of the
    /// left child) and its right boundary (a prefix of the right child).
    fn query(&self, l: usize, r: usize) -> EdgeDensity {
        let (mut node, mut nl, mut nr, mut off) = (1usize, 0usize, self.width, (0i32, 0i32));
        let m = loop {
            let nd = &self.nodes[node];
            if l <= nl && nr <= r {
                return nd.agg.shifted(off);
            }
            off = add(off, nd.lazy);
            let m = nl + (nr - nl) / 2;
            if r <= m {
                node *= 2;
                nr = m;
            } else if m <= l {
                node = 2 * node + 1;
                nl = m;
            } else {
                break m;
            }
        };
        // Left boundary: `[l, m)` is a suffix of the left child.
        let mut acc = EdgeDensity::EMPTY;
        let (mut n, mut a, mut b, mut o) = (2 * node, nl, m, off);
        while a < l {
            o = add(o, self.nodes[n].lazy);
            let mid = a + (b - a) / 2;
            if l < mid {
                acc = acc.merge(self.nodes[2 * n + 1].agg.shifted(o));
                n *= 2;
                b = mid;
            } else {
                n = 2 * n + 1;
                a = mid;
            }
        }
        acc = acc.merge(self.nodes[n].agg.shifted(o));
        // Right boundary: `[m, r)` is a prefix of the right child.
        let (mut n, mut a, mut b, mut o) = (2 * node + 1, m, nr, off);
        while r < b {
            o = add(o, self.nodes[n].lazy);
            let mid = a + (b - a) / 2;
            if mid < r {
                acc = acc.merge(self.nodes[2 * n].agg.shifted(o));
                n = 2 * n + 1;
                a = mid;
            } else {
                n *= 2;
                b = mid;
            }
        }
        acc.merge(self.nodes[n].agg.shifted(o))
    }

    /// Leftmost column attaining the whole-channel `d_M` maximum.
    fn first_max_column(&self) -> usize {
        let target = self.root().d_max;
        let (mut node, mut nl, mut nr, mut off) = (1usize, 0usize, self.width, 0i32);
        while nr - nl > 1 {
            off += self.nodes[node].lazy.0;
            let m = nl + (nr - nl) / 2;
            if self.nodes[2 * node].agg.d_max + off == target {
                node *= 2;
                nr = m;
            } else {
                node = 2 * node + 1;
                nl = m;
            }
        }
        nl
    }

    /// Reconstructs the flat per-column `(d_M, d_m)` profiles (O(width);
    /// reporting only).
    fn profiles(&self) -> (Vec<i32>, Vec<i32>) {
        let mut out = (vec![0; self.width], vec![0; self.width]);
        self.profiles_rec(1, 0, self.width, (0, 0), &mut out);
        out
    }

    fn profiles_rec(
        &self,
        node: usize,
        nl: usize,
        nr: usize,
        off: (i32, i32),
        out: &mut (Vec<i32>, Vec<i32>),
    ) {
        let nd = &self.nodes[node];
        if nr - nl == 1 {
            let v = nd.agg.shifted(off);
            out.0[nl] = v.d_max;
            out.1[nl] = v.d_min;
            return;
        }
        let off = add(off, nd.lazy);
        let m = nl + (nr - nl) / 2;
        self.profiles_rec(2 * node, nl, m, off, out);
        self.profiles_rec(2 * node + 1, m, nr, off, out);
    }
}

/// A span's columns `[x1, x2)` clamped to a chip of `width` columns.
fn clamp_span(width: usize, x1: i32, x2: i32) -> (usize, usize) {
    let clamp = |x: i32| x.clamp(0, width as i32) as usize;
    (clamp(x1), clamp(x2))
}

/// Density state over all channels.
#[derive(Debug, Clone)]
pub struct DensityMap {
    width: usize,
    channels: Vec<ChannelTree>,
}

impl DensityMap {
    /// Creates an all-zero map for `num_channels` channels over a chip of
    /// `width` pitch columns.
    pub fn new(num_channels: usize, width: usize) -> Self {
        let zeros = vec![0; width.max(1)];
        Self {
            width,
            channels: vec![ChannelTree::from_profiles(&zeros, &zeros); num_channels],
        }
    }

    /// A map holding `spans` — `(channel, x1, x2, weight, bridge)` — as if
    /// each were passed to [`DensityMap::add_span`] on a
    /// [`DensityMap::new`] map: every query answers the same, and later
    /// updates work alike. Built in bulk: per-column difference arrays,
    /// prefix sums, then each profile's tree bottom-up, in O(spans +
    /// channels × width).
    pub(crate) fn from_spans(
        num_channels: usize,
        width: usize,
        spans: impl IntoIterator<Item = (ChannelId, i32, i32, i32, bool)>,
    ) -> Self {
        // Per channel, the `d_M` then the `d_m` difference array, each
        // over the tree's columns plus one past the end.
        let cols = width.max(1);
        let stride = cols + 1;
        let mut diff = vec![0i32; 2 * num_channels * stride];
        for (channel, x1, x2, w, bridge) in spans {
            let (a, b) = clamp_span(width, x1, x2);
            if a >= b {
                continue;
            }
            let base = 2 * channel.index() * stride;
            diff[base + a] += w;
            diff[base + b] -= w;
            if bridge {
                diff[base + stride + a] += w;
                diff[base + stride + b] -= w;
            }
        }
        let (mut d_max, mut d_min) = (vec![0i32; cols], vec![0i32; cols]);
        let prefix_sums = |profile: &mut [i32], diff: &[i32]| {
            let mut sum = 0;
            for (v, d) in profile.iter_mut().zip(diff) {
                sum += d;
                *v = sum;
            }
        };
        let channels = diff
            .chunks_exact(2 * stride)
            .map(|ch| {
                prefix_sums(&mut d_max, &ch[..stride]);
                prefix_sums(&mut d_min, &ch[stride..]);
                ChannelTree::from_profiles(&d_max, &d_min)
            })
            .collect();
        Self { width, channels }
    }

    /// [`DensityMap::from_spans`] over the density footprint of every
    /// graph: its alive trunk spans, weighted by the net's width, each
    /// also in `d_m` while it is a bridge.
    pub(crate) fn from_graphs(num_channels: usize, width: usize, graphs: &[RoutingGraph]) -> Self {
        Self::from_spans(
            num_channels,
            width,
            graphs.iter().flat_map(|g| {
                let w = g.width() as i32;
                g.trunk_spans()
                    .map(move |(channel, x1, x2, bridge)| (channel, x1, x2, w, bridge))
            }),
        )
    }

    /// Chip width in columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Adds a trunk span of weight `w` over `[x1, x2)` to `d_M`; when
    /// `bridge`, also to `d_m`.
    pub fn add_span(&mut self, channel: ChannelId, x1: i32, x2: i32, w: i32, bridge: bool) {
        let (a, b) = clamp_span(self.width, x1, x2);
        if a >= b {
            return;
        }
        self.channels[channel.index()].range_add(a, b, w, if bridge { w } else { 0 });
    }

    /// Removes a span previously added with the given bridge status.
    pub fn remove_span(&mut self, channel: ChannelId, x1: i32, x2: i32, w: i32, was_bridge: bool) {
        let (a, b) = clamp_span(self.width, x1, x2);
        if a >= b {
            return;
        }
        self.channels[channel.index()].range_add(a, b, -w, if was_bridge { -w } else { 0 });
    }

    /// Adds (`sign = 1`) or removes (`sign = -1`) the whole density
    /// footprint of a net: every span of [`RoutingGraph::trunk_spans`],
    /// weighted by the net's width, under its current bridge status.
    pub(crate) fn apply_net(&mut self, g: &RoutingGraph, sign: i32) {
        let w = sign * g.width() as i32;
        for (channel, x1, x2, bridge) in g.trunk_spans() {
            self.add_span(channel, x1, x2, w, bridge);
        }
    }

    /// Promotes a span to bridge status (adds it to `d_m` only).
    pub fn promote_span(&mut self, channel: ChannelId, x1: i32, x2: i32, w: i32) {
        let (a, b) = clamp_span(self.width, x1, x2);
        if a >= b {
            return;
        }
        self.channels[channel.index()].range_add(a, b, 0, w);
    }

    /// `C_M(c)`: maximum of `d_M` in the channel.
    pub fn c_max(&self, channel: ChannelId) -> i32 {
        self.channels[channel.index()].root().d_max
    }

    /// `NC_M(c)`: number of columns attaining `C_M(c)`.
    ///
    /// Zero-density convention: reports 0 (not `width`) when `C_M` is 0.
    pub fn nc_max(&self, channel: ChannelId) -> i32 {
        let t = self.channels[channel.index()].root();
        if t.d_max == 0 {
            0
        } else {
            t.nd_max
        }
    }

    /// `C_m(c)`: maximum of `d_m` in the channel.
    pub fn c_min(&self, channel: ChannelId) -> i32 {
        self.channels[channel.index()].root().d_min
    }

    /// `NC_m(c)`: number of columns attaining `C_m(c)`.
    ///
    /// Zero-density convention: reports 0 (not `width`) when `C_m` is 0.
    pub fn nc_min(&self, channel: ChannelId) -> i32 {
        let t = self.channels[channel.index()].root();
        if t.d_min == 0 {
            0
        } else {
            t.nd_min
        }
    }

    /// Per-edge parameters `D_M, ND_M, D_m, ND_m` over `[x1, x2)`.
    ///
    /// An empty interval yields all zeros (vertical edges have no density
    /// footprint). A non-empty interval over an all-zero region reports
    /// its maximum (0) with the true attained-count — see the module docs
    /// on the zero-density convention.
    pub fn edge_density(&self, channel: ChannelId, x1: i32, x2: i32) -> EdgeDensity {
        let (a, b) = clamp_span(self.width, x1, x2);
        if a >= b {
            return EdgeDensity::default();
        }
        self.channels[channel.index()].query(a, b)
    }

    /// Column of the globally highest `d_M` and its channel.
    pub fn hottest_column(&self) -> Option<(ChannelId, usize, i32)> {
        let mut best: Option<(ChannelId, usize, i32)> = None;
        for (c, ch) in self.channels.iter().enumerate() {
            let m = ch.root().d_max;
            if m == 0 {
                continue;
            }
            if best.map(|(_, _, d)| m > d).unwrap_or(true) {
                best = Some((ChannelId::new(c), ch.first_max_column(), m));
            }
        }
        best
    }

    /// Snapshot of `d_M` per channel (for reporting and for the channel
    /// router's lower-bound checks).
    pub fn snapshot_max(&self) -> Vec<Vec<i32>> {
        self.channels.iter().map(|c| c.profiles().0).collect()
    }

    /// Snapshot of `d_m` per channel (for the engine's self-audit).
    pub fn snapshot_min(&self) -> Vec<Vec<i32>> {
        self.channels.iter().map(|c| c.profiles().1).collect()
    }

    /// Final per-channel density (`C_M`), the global-routing estimate of
    /// channel track counts.
    pub fn channel_maxima(&self) -> Vec<i32> {
        (0..self.channels.len())
            .map(|c| self.c_max(ChannelId::new(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut d = DensityMap::new(2, 10);
        let c = ChannelId::new(1);
        d.add_span(c, 2, 6, 1, false);
        d.add_span(c, 4, 8, 2, true);
        assert_eq!(d.c_max(c), 3);
        assert_eq!(d.c_min(c), 2);
        d.remove_span(c, 4, 8, 2, true);
        assert_eq!(d.c_max(c), 1);
        assert_eq!(d.c_min(c), 0);
        d.remove_span(c, 2, 6, 1, false);
        assert_eq!(d.c_max(c), 0);
    }

    #[test]
    fn nc_counts_columns_at_max() {
        let mut d = DensityMap::new(1, 10);
        let c = ChannelId::new(0);
        d.add_span(c, 0, 4, 1, false);
        d.add_span(c, 2, 8, 1, false);
        // d_max: 1 1 2 2 1 1 1 1 0 0 -> C_M = 2 at columns 2,3.
        assert_eq!(d.c_max(c), 2);
        assert_eq!(d.nc_max(c), 2);
    }

    #[test]
    fn zero_density_channel_reports_zero_counts() {
        // The documented convention: an empty channel has C = 0 attained
        // "nowhere that matters" — NC reports 0, not the chip width.
        let d = DensityMap::new(2, 16);
        for c in [ChannelId::new(0), ChannelId::new(1)] {
            assert_eq!(d.c_max(c), 0);
            assert_eq!(d.nc_max(c), 0);
            assert_eq!(d.c_min(c), 0);
            assert_eq!(d.nc_min(c), 0);
        }
        // And it re-enters that state after wiring is removed.
        let mut d = d;
        d.add_span(ChannelId::new(0), 3, 9, 2, true);
        assert_eq!(d.nc_max(ChannelId::new(0)), 6);
        assert_eq!(d.nc_min(ChannelId::new(0)), 6);
        d.remove_span(ChannelId::new(0), 3, 9, 2, true);
        assert_eq!(d.nc_max(ChannelId::new(0)), 0);
        assert_eq!(d.nc_min(ChannelId::new(0)), 0);
    }

    #[test]
    fn interval_query_keeps_true_zero_counts() {
        // Unlike the channel aggregates, edge_density over an all-zero
        // window reports the genuine attained-count of max 0.
        let d = DensityMap::new(1, 10);
        let e = d.edge_density(ChannelId::new(0), 2, 7);
        assert_eq!(e.d_max, 0);
        assert_eq!(e.nd_max, 5);
        assert_eq!(e.d_min, 0);
        assert_eq!(e.nd_min, 5);
    }

    #[test]
    fn promote_moves_lower_bound() {
        let mut d = DensityMap::new(1, 10);
        let c = ChannelId::new(0);
        d.add_span(c, 0, 5, 1, false);
        assert_eq!(d.c_min(c), 0);
        d.promote_span(c, 0, 5, 1);
        assert_eq!(d.c_min(c), 1);
        assert_eq!(d.nc_min(c), 5);
    }

    #[test]
    fn edge_density_over_interval() {
        let mut d = DensityMap::new(1, 10);
        let c = ChannelId::new(0);
        d.add_span(c, 0, 4, 1, true);
        d.add_span(c, 2, 8, 1, false);
        // d_max: 1 1 2 2 1 1 1 1 0 0 ; d_min: 1 1 1 1 0 0 0 0 0 0
        let e = d.edge_density(c, 1, 5);
        assert_eq!(e.d_max, 2);
        assert_eq!(e.nd_max, 2);
        assert_eq!(e.d_min, 1);
        assert_eq!(e.nd_min, 3);
        // Vertical edge: zero footprint.
        assert_eq!(d.edge_density(c, 3, 3), EdgeDensity::default());
    }

    #[test]
    fn width_weights_spans() {
        let mut d = DensityMap::new(1, 10);
        let c = ChannelId::new(0);
        d.add_span(c, 0, 3, 2, false);
        assert_eq!(d.c_max(c), 2);
    }

    #[test]
    fn hottest_column_finds_global_peak() {
        let mut d = DensityMap::new(3, 10);
        d.add_span(ChannelId::new(0), 0, 2, 1, false);
        d.add_span(ChannelId::new(2), 5, 7, 4, false);
        let (c, x, v) = d.hottest_column().unwrap();
        assert_eq!(c, ChannelId::new(2));
        assert_eq!(x, 5);
        assert_eq!(v, 4);
    }

    #[test]
    fn hottest_column_is_leftmost_at_peak() {
        let mut d = DensityMap::new(1, 12);
        d.add_span(ChannelId::new(0), 3, 6, 2, false);
        d.add_span(ChannelId::new(0), 8, 11, 2, false);
        let (_, x, v) = d.hottest_column().unwrap();
        assert_eq!((x, v), (3, 2));
    }

    #[test]
    fn spans_outside_chip_are_clamped() {
        let mut d = DensityMap::new(1, 4);
        let c = ChannelId::new(0);
        d.add_span(c, -3, 99, 1, false);
        assert_eq!(d.c_max(c), 1);
        assert_eq!(d.nc_max(c), 4);
        d.remove_span(c, -3, 99, 1, false);
        assert_eq!(d.c_max(c), 0);
    }

    #[test]
    fn width_one_chip_works() {
        let mut d = DensityMap::new(1, 1);
        let c = ChannelId::new(0);
        d.add_span(c, 0, 1, 3, true);
        assert_eq!(d.c_max(c), 3);
        assert_eq!(d.nc_max(c), 1);
        assert_eq!(d.edge_density(c, 0, 1).d_min, 3);
    }

    /// Everything a reader of the map can observe: per channel the four
    /// aggregates, both profiles, the leftmost `d_M` peak column, and
    /// every interval query over the chip (and a little beyond).
    fn observe(d: &DensityMap) -> Vec<i32> {
        let w = d.width() as i32;
        let mut out = Vec::new();
        for (c, ch) in d.channels.iter().enumerate() {
            let c = ChannelId::new(c);
            out.extend([d.c_max(c), d.nc_max(c), d.c_min(c), d.nc_min(c)]);
            let (d_max, d_min) = ch.profiles();
            out.extend(d_max);
            out.extend(d_min);
            out.push(ch.first_max_column() as i32);
            for x1 in -1..=w {
                for x2 in x1..=w + 1 {
                    let e = d.edge_density(c, x1, x2);
                    out.extend([e.d_max, e.nd_max, e.d_min, e.nd_min]);
                }
            }
        }
        out.extend(
            d.hottest_column()
                .map_or([-1; 3], |(c, x, v)| [c.index() as i32, x as i32, v]),
        );
        out
    }

    /// The bulk build answers every query exactly like span-by-span
    /// adds, before and after further random adds, removes and
    /// promotions applied to both.
    #[test]
    fn bulk_build_matches_incremental_adds() {
        let mut rng = bgr_netlist::SplitMix64::new(0xB01C_DE45);
        for _ in 0..300 {
            let channels = rng.range_usize(1, 4);
            let width = rng.range_usize(0, 24);
            let w = width as i32;
            let span = |rng: &mut bgr_netlist::SplitMix64| {
                let x1 = rng.range_i32(-3, w + 3);
                (
                    ChannelId::new(rng.range_usize(0, channels)),
                    x1,
                    x1 + rng.range_i32(0, w + 3),
                    rng.range_i32(1, 4),
                    rng.range_usize(0, 2) == 1,
                )
            };
            let mut live: Vec<(ChannelId, i32, i32, i32, bool)> = (0..rng.range_usize(0, 40))
                .map(|_| span(&mut rng))
                .collect();
            let mut bulk = DensityMap::from_spans(channels, width, live.iter().copied());
            let mut incr = DensityMap::new(channels, width);
            for &(c, x1, x2, wt, bridge) in &live {
                incr.add_span(c, x1, x2, wt, bridge);
            }
            assert_eq!(
                observe(&bulk),
                observe(&incr),
                "{live:?} over width {width}"
            );
            for _ in 0..20 {
                let op = rng.range_usize(0, 3);
                if op == 0 || live.is_empty() {
                    let s = span(&mut rng);
                    for d in [&mut bulk, &mut incr] {
                        d.add_span(s.0, s.1, s.2, s.3, s.4);
                    }
                    live.push(s);
                } else {
                    let i = rng.range_usize(0, live.len());
                    let (c, x1, x2, wt, bridge) = live[i];
                    if op == 1 {
                        live.swap_remove(i);
                        for d in [&mut bulk, &mut incr] {
                            d.remove_span(c, x1, x2, wt, bridge);
                        }
                    } else if !bridge {
                        live[i].4 = true;
                        for d in [&mut bulk, &mut incr] {
                            d.promote_span(c, x1, x2, wt);
                        }
                    }
                }
                assert_eq!(
                    observe(&bulk),
                    observe(&incr),
                    "{live:?} over width {width}"
                );
            }
        }
    }
}
