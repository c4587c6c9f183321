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
//! Each profile is a segment tree maintaining `(max, count-of-max)` under
//! lazy range-add. `add_span` / `remove_span` / `promote_span` and every
//! interval query run in O(log width); the channel aggregates are read
//! off the root in O(1). The seed implementation kept flat per-column
//! vectors with a dirty flag and rescanned the whole chip width per
//! refresh — O(width) on the engine's hottest path.
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

/// A segment tree over `width` columns maintaining `(max, count-of-max)`
/// under lazy range-add updates.
///
/// Nodes store the subtree maximum and the number of leaves attaining
/// it; pending adds are kept in `lazy` and never pushed down — queries
/// carry the accumulated offset on the way down instead, so reads take
/// `&self`.
#[derive(Debug, Clone)]
struct MaxCountTree {
    width: usize,
    /// Subtree max (including this node's own lazy offset).
    max: Vec<i32>,
    /// Leaves attaining `max` within the subtree.
    cnt: Vec<i32>,
    /// Pending add for the node's whole subtree, *already included* in
    /// `max` of this node but not in its children.
    lazy: Vec<i32>,
}

impl MaxCountTree {
    fn new(width: usize) -> Self {
        let n = width.max(1);
        Self {
            width: n,
            max: vec![0; 4 * n],
            cnt: Self::init_cnt(n),
            lazy: vec![0; 4 * n],
        }
    }

    fn init_cnt(n: usize) -> Vec<i32> {
        // Every leaf starts at 0, so every node's count is its span size.
        let mut cnt = vec![0; 4 * n];
        fn fill(cnt: &mut [i32], node: usize, l: usize, r: usize) {
            cnt[node] = (r - l) as i32;
            if r - l > 1 {
                let m = l + (r - l) / 2;
                fill(cnt, 2 * node, l, m);
                fill(cnt, 2 * node + 1, m, r);
            }
        }
        fill(&mut cnt, 1, 0, n);
        cnt
    }

    /// Adds `v` over `[l, r)` (caller clamps to `[0, width)`).
    fn range_add(&mut self, l: usize, r: usize, v: i32) {
        if l < r {
            self.add_rec(1, 0, self.width, l, r, v);
        }
    }

    fn add_rec(&mut self, node: usize, nl: usize, nr: usize, l: usize, r: usize, v: i32) {
        if r <= nl || nr <= l {
            return;
        }
        if l <= nl && nr <= r {
            self.max[node] += v;
            self.lazy[node] += v;
            return;
        }
        let m = nl + (nr - nl) / 2;
        self.add_rec(2 * node, nl, m, l, r, v);
        self.add_rec(2 * node + 1, m, nr, l, r, v);
        let off = self.lazy[node];
        let (a, b) = (self.max[2 * node], self.max[2 * node + 1]);
        self.max[node] = a.max(b) + off;
        self.cnt[node] = if a == b {
            self.cnt[2 * node] + self.cnt[2 * node + 1]
        } else if a > b {
            self.cnt[2 * node]
        } else {
            self.cnt[2 * node + 1]
        };
    }

    /// Maximum over the whole profile.
    #[inline]
    fn root_max(&self) -> i32 {
        self.max[1]
    }

    /// Columns attaining the whole-profile maximum.
    #[inline]
    fn root_cnt(&self) -> i32 {
        self.cnt[1]
    }

    /// `(max, count-of-max)` over `[l, r)` (caller clamps; `l < r`).
    fn query(&self, l: usize, r: usize) -> (i32, i32) {
        self.query_rec(1, 0, self.width, l, r, 0)
    }

    fn query_rec(
        &self,
        node: usize,
        nl: usize,
        nr: usize,
        l: usize,
        r: usize,
        off: i32,
    ) -> (i32, i32) {
        if l <= nl && nr <= r {
            return (self.max[node] + off, self.cnt[node]);
        }
        let m = nl + (nr - nl) / 2;
        let off = off + self.lazy[node];
        let left = if l < m {
            Some(self.query_rec(2 * node, nl, m, l, r, off))
        } else {
            None
        };
        let right = if r > m {
            Some(self.query_rec(2 * node + 1, m, nr, l, r, off))
        } else {
            None
        };
        match (left, right) {
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (Some((am, ac)), Some((bm, bc))) => {
                if am == bm {
                    (am, ac + bc)
                } else if am > bm {
                    (am, ac)
                } else {
                    (bm, bc)
                }
            }
            (None, None) => unreachable!("query range does not straddle node"),
        }
    }

    /// Leftmost column attaining the whole-profile maximum.
    fn first_max_column(&self) -> usize {
        let target = self.root_max();
        let (mut node, mut nl, mut nr, mut off) = (1usize, 0usize, self.width, 0i32);
        while nr - nl > 1 {
            off += self.lazy[node];
            let m = nl + (nr - nl) / 2;
            if self.max[2 * node] + off == target {
                node *= 2;
                nr = m;
            } else {
                node = 2 * node + 1;
                nl = m;
            }
        }
        nl
    }

    /// Reconstructs the flat per-column profile (O(width); reporting
    /// only).
    fn values(&self) -> Vec<i32> {
        let mut out = vec![0; self.width];
        self.values_rec(1, 0, self.width, 0, &mut out);
        out
    }

    fn values_rec(&self, node: usize, nl: usize, nr: usize, off: i32, out: &mut [i32]) {
        if nr - nl == 1 {
            out[nl] = self.max[node] + off;
            return;
        }
        let off = off + self.lazy[node];
        let m = nl + (nr - nl) / 2;
        self.values_rec(2 * node, nl, m, off, out);
        self.values_rec(2 * node + 1, m, nr, off, out);
    }
}

#[derive(Debug, Clone)]
struct Channel {
    d_max: MaxCountTree,
    d_min: MaxCountTree,
}

impl Channel {
    fn new(width: usize) -> Self {
        Self {
            d_max: MaxCountTree::new(width),
            d_min: MaxCountTree::new(width),
        }
    }
}

/// Density state over all channels.
#[derive(Debug, Clone)]
pub struct DensityMap {
    width: usize,
    channels: Vec<Channel>,
}

impl DensityMap {
    /// Creates an all-zero map for `num_channels` channels over a chip of
    /// `width` pitch columns.
    pub fn new(num_channels: usize, width: usize) -> Self {
        Self {
            width,
            channels: (0..num_channels).map(|_| Channel::new(width)).collect(),
        }
    }

    /// Chip width in columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    fn clamp(&self, x1: i32, x2: i32) -> (usize, usize) {
        let a = x1.clamp(0, self.width as i32) as usize;
        let b = x2.clamp(0, self.width as i32) as usize;
        (a, b)
    }

    /// Adds a trunk span of weight `w` over `[x1, x2)` to `d_M`; when
    /// `bridge`, also to `d_m`.
    pub fn add_span(&mut self, channel: ChannelId, x1: i32, x2: i32, w: i32, bridge: bool) {
        let (a, b) = self.clamp(x1, x2);
        if a >= b {
            return;
        }
        let ch = &mut self.channels[channel.index()];
        ch.d_max.range_add(a, b, w);
        if bridge {
            ch.d_min.range_add(a, b, w);
        }
    }

    /// Removes a span previously added with the given bridge status.
    pub fn remove_span(&mut self, channel: ChannelId, x1: i32, x2: i32, w: i32, was_bridge: bool) {
        let (a, b) = self.clamp(x1, x2);
        if a >= b {
            return;
        }
        let ch = &mut self.channels[channel.index()];
        ch.d_max.range_add(a, b, -w);
        if was_bridge {
            ch.d_min.range_add(a, b, -w);
        }
    }

    /// Promotes a span to bridge status (adds it to `d_m` only).
    pub fn promote_span(&mut self, channel: ChannelId, x1: i32, x2: i32, w: i32) {
        let (a, b) = self.clamp(x1, x2);
        if a >= b {
            return;
        }
        self.channels[channel.index()].d_min.range_add(a, b, w);
    }

    /// `C_M(c)`: maximum of `d_M` in the channel.
    pub fn c_max(&self, channel: ChannelId) -> i32 {
        self.channels[channel.index()].d_max.root_max()
    }

    /// `NC_M(c)`: number of columns attaining `C_M(c)`.
    ///
    /// Zero-density convention: reports 0 (not `width`) when `C_M` is 0.
    pub fn nc_max(&self, channel: ChannelId) -> i32 {
        let t = &self.channels[channel.index()].d_max;
        if t.root_max() == 0 {
            0
        } else {
            t.root_cnt()
        }
    }

    /// `C_m(c)`: maximum of `d_m` in the channel.
    pub fn c_min(&self, channel: ChannelId) -> i32 {
        self.channels[channel.index()].d_min.root_max()
    }

    /// `NC_m(c)`: number of columns attaining `C_m(c)`.
    ///
    /// Zero-density convention: reports 0 (not `width`) when `C_m` is 0.
    pub fn nc_min(&self, channel: ChannelId) -> i32 {
        let t = &self.channels[channel.index()].d_min;
        if t.root_max() == 0 {
            0
        } else {
            t.root_cnt()
        }
    }

    /// Per-edge parameters `D_M, ND_M, D_m, ND_m` over `[x1, x2)`.
    ///
    /// An empty interval yields all zeros (vertical edges have no density
    /// footprint). A non-empty interval over an all-zero region reports
    /// its maximum (0) with the true attained-count — see the module docs
    /// on the zero-density convention.
    pub fn edge_density(&self, channel: ChannelId, x1: i32, x2: i32) -> EdgeDensity {
        let (a, b) = self.clamp(x1, x2);
        if a >= b {
            return EdgeDensity::default();
        }
        let ch = &self.channels[channel.index()];
        let (d_max, nd_max) = ch.d_max.query(a, b);
        let (d_min, nd_min) = ch.d_min.query(a, b);
        EdgeDensity {
            d_max,
            nd_max,
            d_min,
            nd_min,
        }
    }

    /// Column of the globally highest `d_M` and its channel.
    pub fn hottest_column(&self) -> Option<(ChannelId, usize, i32)> {
        let mut best: Option<(ChannelId, usize, i32)> = None;
        for (c, ch) in self.channels.iter().enumerate() {
            let m = ch.d_max.root_max();
            if m == 0 {
                continue;
            }
            if best.map(|(_, _, d)| m > d).unwrap_or(true) {
                best = Some((ChannelId::new(c), ch.d_max.first_max_column(), m));
            }
        }
        best
    }

    /// Snapshot of `d_M` per channel (for reporting and for the channel
    /// router's lower-bound checks).
    pub fn snapshot_max(&self) -> Vec<Vec<i32>> {
        self.channels.iter().map(|c| c.d_max.values()).collect()
    }

    /// Snapshot of `d_m` per channel (for the engine's self-audit).
    pub fn snapshot_min(&self) -> Vec<Vec<i32>> {
        self.channels.iter().map(|c| c.d_min.values()).collect()
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
}
