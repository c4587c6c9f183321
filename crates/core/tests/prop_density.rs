//! Randomized differential tests: the incremental density map (one fused
//! segment tree per channel) must agree with a naive per-column
//! recomputation oracle under any sequence of add/remove/promote
//! operations — on every aggregate (`C_M`, `NC_M`, `C_m`, `NC_m`, with
//! the zero-density count convention), every interval query
//! (`edge_density`, clamped windows included), the hottest-column scan
//! and both profile snapshots, over chips from one column wide up.

use bgr_core::density::DensityMap;
use bgr_layout::ChannelId;
use bgr_netlist::SplitMix64;

const W: usize = 30;

/// Naive oracle: a flat span list, recomputed per column on demand.
struct Oracle {
    /// Chip width in columns.
    width: usize,
    /// `(channel, x1, x2, w, bridge)` for every live span.
    spans: Vec<(usize, i32, i32, i32, bool)>,
}

impl Oracle {
    fn new(width: usize) -> Self {
        Self {
            width,
            spans: Vec::new(),
        }
    }

    fn columns(&self, c: usize) -> (Vec<i32>, Vec<i32>) {
        let mut d_max = vec![0i32; self.width];
        let mut d_min = vec![0i32; self.width];
        for &(oc, x1, x2, w, bridge) in &self.spans {
            if oc != c {
                continue;
            }
            for x in x1.max(0)..x2.min(self.width as i32) {
                d_max[x as usize] += w;
                if bridge {
                    d_min[x as usize] += w;
                }
            }
        }
        (d_max, d_min)
    }
}

/// `(max, count-of-max)` with the 0-density convention: an all-zero
/// region reports count 0.
fn agg(cols: &[i32]) -> (i32, i32) {
    let m = cols.iter().copied().max().unwrap_or(0);
    if m == 0 {
        (0, 0)
    } else {
        (m, cols.iter().filter(|&&d| d == m).count() as i32)
    }
}

/// Every window `[x1, x2)` with both ends within two columns of the
/// chip, clamped the way `edge_density` clamps.
fn check_every_window(map: &DensityMap, oracle: &Oracle) {
    let w = oracle.width as i32;
    for c in 0..map.num_channels() {
        let ch = ChannelId::new(c);
        let (d_max, d_min) = oracle.columns(c);
        for x1 in -2..=w + 2 {
            for x2 in x1 - 1..=w + 2 {
                let ed = map.edge_density(ch, x1, x2);
                let (lo, hi) = (x1.clamp(0, w) as usize, x2.clamp(0, w) as usize);
                let want = if lo >= hi {
                    (0, 0, 0, 0)
                } else {
                    let window = |cols: &[i32]| {
                        let m = *cols[lo..hi].iter().max().unwrap();
                        (m, cols[lo..hi].iter().filter(|&&d| d == m).count() as i32)
                    };
                    let ((a, b), (e, f)) = (window(&d_max), window(&d_min));
                    (a, b, e, f)
                };
                assert_eq!(
                    (ed.d_max, ed.nd_max, ed.d_min, ed.nd_min),
                    want,
                    "window [{x1},{x2}) of channel {c} over width {w}"
                );
            }
        }
    }
}

fn check_all(map: &DensityMap, oracle: &Oracle, rng: &mut SplitMix64) {
    for c in 0..map.num_channels() {
        let ch = ChannelId::new(c);
        let (d_max, d_min) = oracle.columns(c);
        let (cm, ncm) = agg(&d_max);
        let (cn, ncn) = agg(&d_min);
        assert_eq!(map.c_max(ch), cm, "C_M channel {c}");
        assert_eq!(map.nc_max(ch), ncm, "NC_M channel {c}");
        assert_eq!(map.c_min(ch), cn, "C_m channel {c}");
        assert_eq!(map.nc_min(ch), ncn, "NC_m channel {c}");
        // A few random interval queries per channel, including clamps.
        for _ in 0..4 {
            let a = rng.range_i32(-5, W as i32 + 5);
            let b = rng.range_i32(-5, W as i32 + 5);
            let (x1, x2) = (a.min(b), a.max(b));
            let ed = map.edge_density(ch, x1, x2);
            let lo = x1.clamp(0, oracle.width as i32) as usize;
            let hi = x2.clamp(0, oracle.width as i32) as usize;
            if lo >= hi {
                assert_eq!((ed.d_max, ed.nd_max, ed.d_min, ed.nd_min), (0, 0, 0, 0));
                continue;
            }
            // `edge_density` counts columns attaining the window max even
            // when that max is 0 (the window genuinely has that many
            // zero-density columns); only the *channel* aggregates use
            // the count-0 convention.
            let wmax = *d_max[lo..hi].iter().max().unwrap();
            let wcnt = d_max[lo..hi].iter().filter(|&&d| d == wmax).count() as i32;
            assert_eq!((ed.d_max, ed.nd_max), (wmax, wcnt), "D_M over [{x1},{x2})");
            let nmax = *d_min[lo..hi].iter().max().unwrap();
            let ncnt = d_min[lo..hi].iter().filter(|&&d| d == nmax).count() as i32;
            assert_eq!((ed.d_min, ed.nd_min), (nmax, ncnt), "D_m over [{x1},{x2})");
        }
    }
    // Hottest column agrees with a full scan of the oracle.
    let mut best: Option<(usize, usize, i32)> = None;
    for c in 0..map.num_channels() {
        let (d_max, _) = oracle.columns(c);
        let (cm, _) = agg(&d_max);
        if cm == 0 {
            continue;
        }
        if best.map(|(_, _, d)| cm > d).unwrap_or(true) {
            let x = d_max.iter().position(|&d| d == cm).unwrap();
            best = Some((c, x, cm));
        }
    }
    let got = map.hottest_column();
    assert_eq!(
        got.map(|(c, x, d)| (c.index(), x, d)),
        best,
        "hottest column"
    );
    // Both snapshots reproduce the exact column vectors.
    let (snap_max, snap_min) = (map.snapshot_max(), map.snapshot_min());
    for c in 0..map.num_channels() {
        let (d_max, d_min) = oracle.columns(c);
        assert_eq!(snap_max[c], d_max, "d_M snapshot channel {c}");
        assert_eq!(snap_min[c], d_min, "d_m snapshot channel {c}");
    }
}

/// Random add/remove/promote sequences on chips 1 to 40 columns wide
/// (every tenth exactly one column), with spans reaching past both chip
/// edges and empty spans; after every operation the map must match the
/// oracle on every observable and every window. Each sequence ends by
/// removing every span, back to the zero-density counts.
#[test]
fn matches_naive_oracle_on_random_op_sequences() {
    for seed in 0..120u64 {
        let mut rng = SplitMix64::new(0xF05E ^ (seed << 9));
        let width = if seed % 10 == 0 {
            1
        } else {
            rng.range_usize(1, 41)
        };
        let channels = rng.range_usize(1, 4);
        let w = width as i32;
        let mut map = DensityMap::new(channels, width);
        let mut oracle = Oracle::new(width);
        for _ in 0..rng.range_usize(1, 50) {
            match rng.range_usize(0, 4) {
                0 | 1 => {
                    let c = rng.range_usize(0, channels);
                    let x1 = rng.range_i32(-4, w + 4);
                    let x2 = x1 + rng.range_i32(0, w + 4);
                    let wt = rng.range_i32(1, 4);
                    let bridge = rng.next_bool(0.5);
                    map.add_span(ChannelId::new(c), x1, x2, wt, bridge);
                    oracle.spans.push((c, x1, x2, wt, bridge));
                }
                2 => {
                    // Promote a random live non-bridge span.
                    let nb: Vec<usize> = (0..oracle.spans.len())
                        .filter(|&i| !oracle.spans[i].4)
                        .collect();
                    if nb.is_empty() {
                        continue;
                    }
                    let i = nb[rng.range_usize(0, nb.len())];
                    let (c, x1, x2, wt, _) = oracle.spans[i];
                    map.promote_span(ChannelId::new(c), x1, x2, wt);
                    oracle.spans[i].4 = true;
                }
                _ => {
                    if oracle.spans.is_empty() {
                        continue;
                    }
                    let i = rng.range_usize(0, oracle.spans.len());
                    let (c, x1, x2, wt, bridge) = oracle.spans.swap_remove(i);
                    map.remove_span(ChannelId::new(c), x1, x2, wt, bridge);
                }
            }
            check_all(&map, &oracle, &mut rng);
            check_every_window(&map, &oracle);
        }
        while let Some((c, x1, x2, wt, bridge)) = oracle.spans.pop() {
            map.remove_span(ChannelId::new(c), x1, x2, wt, bridge);
        }
        check_all(&map, &oracle, &mut rng);
        check_every_window(&map, &oracle);
        for c in 0..channels {
            let ch = ChannelId::new(c);
            let counts = (map.nc_max(ch), map.nc_min(ch));
            assert_eq!(counts, (0, 0), "emptied channel {c} reports count 0");
        }
    }
}

#[test]
fn spans_clamped_outside_chip_match_oracle() {
    let mut map = DensityMap::new(1, W);
    let mut oracle = Oracle::new(W);
    map.add_span(ChannelId::new(0), -10, W as i32 + 10, 2, true);
    oracle.spans.push((0, -10, W as i32 + 10, 2, true));
    map.add_span(ChannelId::new(0), 5, 9, 1, false);
    oracle.spans.push((0, 5, 9, 1, false));
    let ch = ChannelId::new(0);
    let (d_max, d_min) = oracle.columns(0);
    assert_eq!(map.c_max(ch), *d_max.iter().max().unwrap());
    assert_eq!(map.c_min(ch), *d_min.iter().max().unwrap());
    map.remove_span(ChannelId::new(0), -10, W as i32 + 10, 2, true);
    map.remove_span(ChannelId::new(0), 5, 9, 1, false);
    assert_eq!(map.c_max(ch), 0);
    assert_eq!(map.nc_max(ch), 0, "empty channel reports count 0");
}
