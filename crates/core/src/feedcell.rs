//! Feed-cell insertion (§4.3).
//!
//! Bipolar standard cells leave no room for feedthroughs, so when the
//! first assignment pass runs out of positions the router inserts feed
//! cells: per row `r` and width `w`, the shortfall `F(w,r)` determines
//! how many `w`-wide flagged groups to insert; every row additionally
//! receives single-pitch feed cells up to the global maximum
//! `F = max_r Σ_w w·F(w,r)`, so the chip widens by `F` pitches and the
//! re-assignment pass (which respects width flags) is guaranteed to
//! succeed.

use std::collections::HashMap;

use bgr_layout::{FlagPolicy, Placement, SlotStore};
use bgr_netlist::{Circuit, NetId};

use crate::assign::{assign_feedthroughs, AssignOutcome};
use crate::diffpair::PairMap;
use crate::error::RouteError;
use crate::probe::{Probe, TraceEvent};

/// Result of assignment-with-insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedPlan {
    /// Final slot occupancy.
    pub slots: SlotStore,
    /// Per net: assigned `(row, x)` feedthrough points.
    pub feeds: Vec<Vec<(usize, i32)>>,
    /// Feed cells inserted.
    pub inserted_cells: usize,
    /// Chip widening in pitches (`F`).
    pub widened: i32,
}

/// Whether each cell of `row`, left to right, is a feed cell.
fn feed_flags(circuit: &Circuit, placement: &Placement, row: usize) -> Vec<bool> {
    placement.rows()[row]
        .cells()
        .iter()
        .map(|pc| {
            circuit
                .library()
                .kind(circuit.cell(pc.cell).kind())
                .is_feed()
        })
        .collect()
}

/// Gap indices eligible for insertion in a row whose cells' feed flags
/// are `is_feed`: between two cells where not both neighbors are feed
/// cells (so existing adjacent feed windows are never split), plus the
/// row ends.
fn eligible_gaps(is_feed: &[bool]) -> Vec<usize> {
    let mut gaps = vec![0];
    gaps.extend((1..is_feed.len()).filter(|&g| !(is_feed[g - 1] && is_feed[g])));
    gaps.push(is_feed.len());
    gaps.dedup();
    gaps
}

/// Inserts a group of `w` adjacent 1-pitch feed cells at gap `gap` of
/// `row`, keeping the row's feed flags `is_feed` in step; returns the
/// inserted cell ids.
#[allow(clippy::too_many_arguments)]
fn insert_group<P: Probe>(
    circuit: &mut Circuit,
    placement: &mut Placement,
    is_feed: &mut Vec<bool>,
    row: usize,
    gap: usize,
    w: u32,
    counter: &mut usize,
    probe: &mut P,
) -> Vec<bgr_netlist::CellId> {
    let feed_kind = circuit
        .library()
        .kind_by_name("FEED1")
        .expect("assign_with_insertion checked FEED1 exists before any §4.3 insertion");
    let cells = placement.rows()[row].cells();
    let x = if gap == 0 {
        0
    } else if gap < cells.len() {
        cells[gap].x
    } else {
        // Append after the last cell's right edge.
        cells
            .last()
            .map(|pc| {
                pc.x + circuit
                    .library()
                    .kind(circuit.cell(pc.cell).kind())
                    .width_pitches() as i32
            })
            .unwrap_or(0)
    };
    // `insert_cell_at_x` puts the cell at `x + k` just left of every
    // cell at or right of it, so the group lands at consecutive indices
    // from the first cell's.
    let at = cells.partition_point(|c| c.x < x);
    let flag = circuit.library().kind(feed_kind).is_feed();
    is_feed.splice(at..at, std::iter::repeat_n(flag, w as usize));
    let mut ids = Vec::with_capacity(w as usize);
    for k in 0..w {
        let id = circuit.add_feed_cell(format!("feedins{}", *counter), feed_kind);
        *counter += 1;
        placement.insert_cell_at_x(row, id, x + k as i32, 1);
        ids.push(id);
    }
    probe.event(TraceEvent::FeedCellsInserted {
        row: row as u32,
        x,
        width: w,
    });
    ids
}

/// Runs feedthrough assignment; on shortfall, inserts feed cells per
/// §4.3 and re-assigns with width flags. Iterates defensively until
/// success (the paper's construction succeeds on the first retry).
///
/// # Errors
///
/// [`RouteError::ReassignFailed`] if assignment still fails after
/// `max_iters` insertion rounds (an internal invariant violation).
pub fn assign_with_insertion<P: Probe>(
    circuit: &mut Circuit,
    placement: &mut Placement,
    order: &[NetId],
    pairs: &PairMap,
    max_iters: usize,
    probe: &mut P,
) -> Result<FeedPlan, RouteError> {
    let initial_width = placement.width_pitches();
    let mut inserted_cells = 0usize;
    let mut name_counter = 0usize;
    let mut slots = SlotStore::from_placement(circuit, placement);
    let mut outcome = assign_feedthroughs(
        circuit,
        placement,
        &mut slots,
        order,
        pairs,
        FlagPolicy::Ignore,
    );
    // Insertion is the only consumer of FEED1; a custom library without
    // it must fail structurally, not panic mid-insertion.
    if !outcome.failures.is_empty() && circuit.library().kind_by_name("FEED1").is_none() {
        return Err(RouteError::MissingFeedKind);
    }
    let mut iters = 0;
    while !outcome.failures.is_empty() {
        if iters >= max_iters {
            return Err(RouteError::ReassignFailed(outcome.failures[0].net));
        }
        iters += 1;
        // Record width flags of successful wide assignments by owning
        // feed cell, so they survive the x shifts of insertion.
        let mut flag_records: Vec<(usize, bgr_netlist::CellId, i32, u32)> = Vec::new();
        for (ni, ranges) in outcome.ranges.iter().enumerate() {
            let net = NetId::new(ni);
            let width = circuit.net(net).width_pitches()
                * if pairs.partner_of(net).is_some() {
                    2
                } else {
                    1
                };
            if width <= 1 {
                continue;
            }
            for range in ranges {
                for slot in range.iter() {
                    if let Some(owner) = slots.owner(slot) {
                        let offset = slots.x_of(slot) - placement.cell_loc(owner).x;
                        flag_records.push((slot.row as usize, owner, offset, width));
                    }
                }
            }
        }
        // Shortfalls per (row, width).
        let mut f_wr: HashMap<(usize, u32), u32> = HashMap::new();
        for s in &outcome.failures {
            *f_wr.entry((s.row, s.width)).or_default() += 1;
        }
        let mut f_r = vec![0u32; placement.num_rows()];
        for (&(row, w), &count) in &f_wr {
            f_r[row] += w * count;
        }
        let f_total = f_r.iter().copied().max().unwrap_or(0);
        // Insert per row: wide groups first (flagged w), then singles.
        let mut new_flags: Vec<(usize, bgr_netlist::CellId, u32)> = Vec::new();
        for row in 0..placement.num_rows() {
            let mut groups: Vec<u32> = Vec::new();
            let mut widths: Vec<u32> = f_wr
                .keys()
                .filter(|&&(r, w)| r == row && w > 1)
                .map(|&(_, w)| w)
                .collect();
            widths.sort_unstable_by(|a, b| b.cmp(a));
            for w in widths {
                for _ in 0..f_wr[&(row, w)] {
                    groups.push(w);
                }
            }
            let singles = f_wr.get(&(row, 1)).copied().unwrap_or(0) + f_total - f_r[row];
            groups.extend(std::iter::repeat_n(1u32, singles as usize));
            if groups.is_empty() {
                continue;
            }
            let total = groups.len();
            let mut is_feed = feed_flags(circuit, placement, row);
            for (k, w) in groups.into_iter().enumerate() {
                // Spread groups evenly over the currently eligible gaps.
                let gaps = eligible_gaps(&is_feed);
                let gi = ((k + 1) * gaps.len()) / (total + 1);
                let gap = gaps[gi.min(gaps.len() - 1)];
                let ids = insert_group(
                    circuit,
                    placement,
                    &mut is_feed,
                    row,
                    gap,
                    w,
                    &mut name_counter,
                    probe,
                );
                inserted_cells += ids.len();
                if w > 1 {
                    for id in ids {
                        new_flags.push((row, id, w));
                    }
                }
            }
        }
        // Rebuild slots; re-apply flags by owner identity.
        slots = SlotStore::from_placement(circuit, placement);
        for (row, owner, offset, w) in flag_records {
            let cell_x = placement.cell_loc(owner).x;
            if let Some(slot) = slots.slot_of_cell(row, owner, offset, cell_x) {
                slots.set_flag(
                    bgr_layout::SlotRange {
                        row: slot.row,
                        start: slot.idx,
                        len: 1,
                    },
                    w,
                );
            }
        }
        for (row, owner, w) in new_flags {
            let cell_x = placement.cell_loc(owner).x;
            if let Some(slot) = slots.slot_of_cell(row, owner, 0, cell_x) {
                slots.set_flag(
                    bgr_layout::SlotRange {
                        row: slot.row,
                        start: slot.idx,
                        len: 1,
                    },
                    w,
                );
            }
        }
        outcome = assign_feedthroughs(
            circuit,
            placement,
            &mut slots,
            order,
            pairs,
            FlagPolicy::Respect,
        );
    }
    let AssignOutcome { feeds, .. } = outcome;
    // Grow the per-net feed table in case nets were processed but the
    // vector is shorter than the net count (it never is, but be safe).
    let widened = placement.width_pitches() - initial_width;
    Ok(FeedPlan {
        slots,
        feeds,
        inserted_cells,
        widened,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_layout::{Geometry, PlacementBuilder};
    use bgr_netlist::{CellLibrary, CircuitBuilder};

    /// Two nets that must each cross row 1, but only one slot exists.
    fn scarce() -> (Circuit, Placement, Vec<NetId>) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let feed = lib.kind_by_name("FEED1").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let mut nets = Vec::new();
        let u_bot: Vec<_> = (0..2).map(|i| cb.add_cell(format!("b{i}"), inv)).collect();
        let u_mid = cb.add_cell("m0", inv);
        let u_top: Vec<_> = (0..2).map(|i| cb.add_cell(format!("t{i}"), inv)).collect();
        let f = cb.add_cell("f", feed);
        for i in 0..2 {
            nets.push(
                cb.add_net(
                    format!("n{i}"),
                    cb.cell_term(u_bot[i], "Y").unwrap(),
                    [cb.cell_term(u_top[i], "A").unwrap()],
                )
                .unwrap(),
            );
        }
        // A same-row net to keep u_mid connected (not strictly needed).
        cb.add_net(
            "nm",
            cb.cell_term(u_mid, "Y").unwrap(),
            [cb.cell_term(u_bot[0], "A").unwrap()],
        )
        .unwrap();
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 3);
        pb.place_at(0, u_bot[0], 0, 3).unwrap();
        pb.place_at(0, u_bot[1], 4, 3).unwrap();
        pb.place_at(1, u_mid, 0, 3).unwrap();
        pb.place_at(1, f, 4, 1).unwrap();
        pb.place_at(2, u_top[0], 0, 3).unwrap();
        pb.place_at(2, u_top[1], 4, 3).unwrap();
        let placement = pb.finish(&circuit).unwrap();
        (circuit, placement, nets)
    }

    #[test]
    fn insertion_resolves_shortfall() {
        let (mut circuit, mut placement, nets) = scarce();
        let pairs = PairMap::build(&circuit);
        let order: Vec<NetId> = circuit.net_ids().collect();
        let cells_before = circuit.cells().len();
        let width_before = placement.width_pitches();
        let plan = assign_with_insertion(
            &mut circuit,
            &mut placement,
            &order,
            &pairs,
            5,
            &mut crate::probe::NoopProbe,
        )
        .unwrap();
        // Both crossing nets got a feed in row 1.
        for &n in &nets {
            assert_eq!(plan.feeds[n.index()].len(), 1, "net {n} crossed row 1");
            assert_eq!(plan.feeds[n.index()][0].0, 1);
        }
        assert!(plan.inserted_cells >= 1);
        assert_eq!(circuit.cells().len(), cells_before + plan.inserted_cells);
        assert!(placement.width_pitches() > width_before);
        assert_eq!(plan.widened, placement.width_pitches() - width_before);
        // Placement still valid with the new cells.
        placement.validate(&circuit).unwrap();
    }

    #[test]
    fn no_shortfall_means_no_insertion() {
        let (mut circuit, mut placement, _) = scarce();
        // Only route one of the crossing nets: the single slot suffices.
        let pairs = PairMap::build(&circuit);
        let order = vec![NetId::new(0)];
        let plan = assign_with_insertion(
            &mut circuit,
            &mut placement,
            &order,
            &pairs,
            5,
            &mut crate::probe::NoopProbe,
        )
        .unwrap();
        assert_eq!(plan.inserted_cells, 0);
        assert_eq!(plan.widened, 0);
        assert_eq!(plan.feeds[0], vec![(1, 4)]);
    }

    #[test]
    fn missing_feed_kind_is_a_structured_error() {
        // The scarce topology again, but with a custom library that has
        // no FEED1 (and no pre-placed feed cell): insertion is needed
        // and must fail with MissingFeedKind rather than panic.
        let mut lib = CellLibrary::new();
        let inv = lib.add(
            bgr_netlist::CellKind::builder("INV", 3)
                .input("A", 5.0, 0)
                .output("Y", 2)
                .arc("A", "Y", 60.0)
                .fanin_delay(2.5)
                .load_delay(0.45)
                .build(),
        );
        let mut cb = CircuitBuilder::new(lib);
        let u_bot: Vec<_> = (0..2).map(|i| cb.add_cell(format!("b{i}"), inv)).collect();
        let u_mid = cb.add_cell("m0", inv);
        let u_top: Vec<_> = (0..2).map(|i| cb.add_cell(format!("t{i}"), inv)).collect();
        for i in 0..2 {
            cb.add_net(
                format!("n{i}"),
                cb.cell_term(u_bot[i], "Y").unwrap(),
                [cb.cell_term(u_top[i], "A").unwrap()],
            )
            .unwrap();
        }
        cb.add_net(
            "nm",
            cb.cell_term(u_mid, "Y").unwrap(),
            [cb.cell_term(u_bot[0], "A").unwrap()],
        )
        .unwrap();
        let mut circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 3);
        pb.place_at(0, u_bot[0], 0, 3).unwrap();
        pb.place_at(0, u_bot[1], 4, 3).unwrap();
        pb.place_at(1, u_mid, 0, 3).unwrap();
        pb.place_at(2, u_top[0], 0, 3).unwrap();
        pb.place_at(2, u_top[1], 4, 3).unwrap();
        let mut placement = pb.finish(&circuit).unwrap();
        let pairs = PairMap::build(&circuit);
        let order: Vec<NetId> = circuit.net_ids().collect();
        let err = assign_with_insertion(
            &mut circuit,
            &mut placement,
            &order,
            &pairs,
            5,
            &mut crate::probe::NoopProbe,
        )
        .unwrap_err();
        assert!(matches!(err, RouteError::MissingFeedKind), "{err:?}");
    }

    use bgr_layout::Placement;
    use bgr_netlist::Circuit;
}
