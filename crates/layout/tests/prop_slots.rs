//! Randomized tests for the feedthrough slot store: found windows are
//! always free, adjacent and flag-compatible, the outward search picks
//! exactly the window a full scan of the row picks, and occupancy
//! round-trips.

use bgr_layout::{FlagPolicy, SlotId, SlotRange, SlotStore};
use bgr_netlist::{NetId, SplitMix64};
use std::collections::BTreeSet;

#[test]
fn found_windows_are_free_adjacent_and_nearest() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(0x510 ^ (seed << 5));
        let mut set = BTreeSet::new();
        let n = rng.range_usize(1, 25);
        while set.len() < n {
            set.insert(rng.range_i32(0, 60));
        }
        let xs: Vec<i32> = set.into_iter().collect();
        let width = rng.range_i32(1, 4) as u32;
        let target = rng.range_i32(0, 60);

        let mut store = SlotStore::new(1);
        for &x in &xs {
            store.add_slot(0, x, None);
        }
        // Occupy a random subset.
        for i in 0..xs.len() {
            if rng.next_bool(0.5) {
                store.occupy(
                    SlotRange {
                        row: 0,
                        start: i as u32,
                        len: 1,
                    },
                    NetId::new(99),
                );
            }
        }
        if let Some(r) = store.find_adjacent_free(0, width, target, FlagPolicy::Ignore) {
            assert_eq!(r.len, width);
            let slots: Vec<SlotId> = r.iter().collect();
            for pair in slots.windows(2) {
                assert_eq!(store.x_of(pair[1]), store.x_of(pair[0]) + 1, "adjacent");
            }
            for s in &slots {
                assert!(store.occupant(*s).is_none(), "free");
            }
            // No strictly nearer eligible window exists (oracle scan).
            let found_center2 =
                store.x_of(slots[0]) as i64 + store.x_of(slots[slots.len() - 1]) as i64;
            let found_dist = (found_center2 - 2 * target as i64).abs();
            for start in 0..xs.len() {
                let end = start + width as usize;
                if end > xs.len() {
                    break;
                }
                let adjacent = (start..end - 1).all(|k| xs[k + 1] == xs[k] + 1);
                let free = (start..end).all(|k| {
                    store
                        .occupant(SlotId {
                            row: 0,
                            idx: k as u32,
                        })
                        .is_none()
                });
                if adjacent && free {
                    let c2 = xs[start] as i64 + xs[end - 1] as i64;
                    assert!(
                        (c2 - 2 * target as i64).abs() >= found_dist,
                        "nearest window returned"
                    );
                }
            }
        } else {
            // Oracle: no eligible window may exist.
            for start in 0..xs.len() {
                let end = start + width as usize;
                if end > xs.len() {
                    break;
                }
                let adjacent = (start..end - 1).all(|k| xs[k + 1] == xs[k] + 1);
                let free = (start..end).all(|k| {
                    store
                        .occupant(SlotId {
                            row: 0,
                            idx: k as u32,
                        })
                        .is_none()
                });
                assert!(!(adjacent && free), "window missed by find");
            }
        }
    }
}

/// Whether the window of `width` slots at `start` is free, has
/// consecutive x and suits `policy`'s width flags.
fn eligible(store: &SlotStore, start: usize, width: usize, policy: FlagPolicy) -> bool {
    let slot = |k: usize| SlotId {
        row: 0,
        idx: (start + k) as u32,
    };
    start + width <= store.slots_in_row(0)
        && (0..width).all(|k| {
            let flag = store.flag(slot(k));
            store.occupant(slot(k)).is_none()
                && (k == 0 || store.x_of(slot(k)) == store.x_of(slot(k - 1)) + 1)
                && match policy {
                    FlagPolicy::Ignore => true,
                    FlagPolicy::Respect if width > 1 => flag == Some(width as u32),
                    FlagPolicy::Respect => flag.is_none_or(|f| f <= 1),
                }
        })
}

/// Reference for `find_adjacent_free`: scans every start of the row and
/// keeps the first window of smallest distance between its doubled
/// center and `2 · target`. Returns the start and that distance.
fn full_scan(store: &SlotStore, width: u32, target: i32, policy: FlagPolicy) -> Option<(u32, i64)> {
    let w = width as usize;
    let x = |i: usize| {
        store.x_of(SlotId {
            row: 0,
            idx: i as u32,
        }) as i64
    };
    let mut best: Option<(u32, i64)> = None;
    for start in 0..store.slots_in_row(0) {
        if !eligible(store, start, w, policy) {
            continue;
        }
        let dist = (x(start) + x(start + w - 1) - 2 * target as i64).abs();
        if best.is_none_or(|(_, d)| dist < d) {
            best = Some((start as u32, dist));
        }
    }
    best
}

/// The outward search returns exactly the full scan's window — smallest
/// distance, then lowest start — over random rows (clustered x, some
/// repeated), occupancy and width flags, both policies, widths 1–4 and
/// every target from left of the row to right of it, which puts targets
/// midway between two eligible windows.
#[test]
fn outward_search_matches_the_full_scan() {
    let mut ties = 0;
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(0x5C4E ^ (seed << 7));
        let mut store = SlotStore::new(1);
        let mut x = rng.range_i32(0, 4);
        for _ in 0..rng.range_usize(1, 30) {
            let flag = match rng.range_usize(0, 4) {
                0 => Some(rng.range_i32(1, 5) as u32),
                _ => None,
            };
            store.add_slot(0, x, flag);
            // Mostly adjacent runs, sometimes a gap or a repeated x.
            x += [1, 1, 1, 2, 3, 0][rng.range_usize(0, 6)];
        }
        for i in 0..store.slots_in_row(0) {
            if rng.next_bool(0.3) {
                let one = SlotRange {
                    row: 0,
                    start: i as u32,
                    len: 1,
                };
                store.occupy(one, NetId::new(7));
            }
        }
        for policy in [FlagPolicy::Ignore, FlagPolicy::Respect] {
            for width in 1..=4u32 {
                for target in -3..x + 4 {
                    let want = full_scan(&store, width, target, policy);
                    let got = store.find_adjacent_free(0, width, target, policy);
                    assert_eq!(
                        got.map(|r| (r.row, r.start, r.len)),
                        want.map(|(start, _)| (0, start, width)),
                        "seed {seed} {policy:?} width {width} target {target}"
                    );
                    // A tie across the target: some window right of it is
                    // exactly as near as the (left) winner.
                    if let Some((start, dist)) = want {
                        let x0 = |i: usize| {
                            store.x_of(SlotId {
                                row: 0,
                                idx: i as u32,
                            }) as i64
                        };
                        let w = width as usize;
                        ties += usize::from(
                            dist > 0
                                && (start as usize + 1..store.slots_in_row(0)).any(|s| {
                                    eligible(&store, s, w, policy)
                                        && x0(s) + x0(s + w - 1) - 2 * target as i64 == dist
                                }),
                        );
                    }
                }
            }
        }
    }
    assert!(
        ties > 100,
        "only {ties} ties across the target were exercised"
    );
}

#[test]
fn release_net_frees_exactly_its_slots() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(0xF4EE ^ (seed << 3));
        let count = rng.range_usize(2, 20);
        let mut store = SlotStore::new(1);
        for x in 0..count as i32 {
            store.add_slot(0, x, None);
        }
        let mut owned = vec![None::<NetId>; count];
        let picks = rng.range_usize(1, 10);
        for turn in 0..picks {
            let idx = rng.range_usize(0, count);
            if owned[idx].is_none() {
                let net = NetId::new(turn % 3);
                store.occupy(
                    SlotRange {
                        row: 0,
                        start: idx as u32,
                        len: 1,
                    },
                    net,
                );
                owned[idx] = Some(net);
            }
        }
        store.release_net(NetId::new(0));
        for (i, o) in owned.iter().enumerate() {
            let slot = SlotId {
                row: 0,
                idx: i as u32,
            };
            match o {
                Some(n) if *n != NetId::new(0) => {
                    assert_eq!(store.occupant(slot), Some(*n))
                }
                _ => assert!(store.occupant(slot).is_none()),
            }
        }
    }
}
