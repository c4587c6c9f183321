//! Feedthrough slot bookkeeping.
//!
//! Bipolar standard cells have no internal feedthrough space, so vertical
//! crossings of a cell row must use 1-pitch slots provided by feed cells
//! (§4.3 of the paper). A `w`-pitch net (§4.2) occupies `w` *adjacent*
//! slots. Slots can carry a *width flag*: during the re-assignment pass
//! after feed-cell insertion, a flagged slot is reserved for nets of
//! exactly that width, which is what makes the second assignment always
//! succeed.

use bgr_netlist::{CellId, Circuit, NetId};

use crate::placement::Placement;

/// Identifies one slot: `(row, index-within-row)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId {
    /// Row index.
    pub row: u32,
    /// Slot index within the row (slots sorted by x).
    pub idx: u32,
}

/// A run of `len` adjacent slots starting at `start` in `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRange {
    /// Row index.
    pub row: u32,
    /// First slot index.
    pub start: u32,
    /// Number of slots.
    pub len: u32,
}

impl SlotRange {
    /// Iterates the slot ids of the range.
    pub fn iter(&self) -> impl Iterator<Item = SlotId> + '_ {
        (self.start..self.start + self.len).map(|idx| SlotId { row: self.row, idx })
    }
}

/// Whether width flags restrict slot eligibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlagPolicy {
    /// First assignment pass: flags ignored.
    #[default]
    Ignore,
    /// Re-assignment after feed-cell insertion: a net of width `w > 1`
    /// may only use slots flagged `w`; a 1-pitch net may use unflagged or
    /// `1`-flagged slots.
    Respect,
}

#[derive(Debug, Clone, Default)]
struct RowSlots {
    /// Sorted x positions, one per slot.
    xs: Vec<i32>,
    occ: Vec<Option<NetId>>,
    flag: Vec<Option<u32>>,
    /// Feed cell providing the slot, if any (slots survive feed-cell
    /// insertion by cell identity even though x positions shift).
    owner: Vec<Option<CellId>>,
}

/// All feedthrough slots of a placement, with occupancy and width flags.
#[derive(Debug, Clone, Default)]
pub struct SlotStore {
    rows: Vec<RowSlots>,
}

impl SlotStore {
    /// Creates an empty store with `num_rows` rows.
    pub fn new(num_rows: usize) -> Self {
        Self {
            rows: vec![RowSlots::default(); num_rows],
        }
    }

    /// Builds the store from the feed cells of a placement: a feed cell of
    /// kind width `k` with `feed_slots() = k` at x contributes slots
    /// `x, x+1, …, x+k-1`.
    pub fn from_placement(circuit: &Circuit, placement: &Placement) -> Self {
        let mut store = Self::new(placement.num_rows());
        for (row_idx, row) in placement.rows().iter().enumerate() {
            for pc in row.cells() {
                let kind = circuit.library().kind(circuit.cell(pc.cell).kind());
                for s in 0..kind.feed_slots() {
                    store.add_owned_slot(row_idx, pc.x + s as i32, None, Some(pc.cell));
                }
            }
        }
        store
    }

    /// Adds a slot at x in the given row (keeps xs sorted).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn add_slot(&mut self, row: usize, x: i32, flag: Option<u32>) {
        self.add_owned_slot(row, x, flag, None);
    }

    /// Adds a slot with a known owning feed cell.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn add_owned_slot(&mut self, row: usize, x: i32, flag: Option<u32>, owner: Option<CellId>) {
        let r = &mut self.rows[row];
        let pos = r.xs.partition_point(|&v| v <= x);
        r.xs.insert(pos, x);
        r.occ.insert(pos, None);
        r.flag.insert(pos, flag);
        r.owner.insert(pos, owner);
    }

    /// The feed cell providing a slot, if known.
    pub fn owner(&self, slot: SlotId) -> Option<CellId> {
        self.rows[slot.row as usize].owner[slot.idx as usize]
    }

    /// Finds the slot provided by `cell` at relative offset `offset`
    /// within that cell (used to re-locate assignments after feed-cell
    /// insertion shifts x positions).
    pub fn slot_of_cell(
        &self,
        row: usize,
        cell: CellId,
        offset: i32,
        cell_x: i32,
    ) -> Option<SlotId> {
        let r = &self.rows[row];
        (0..r.xs.len())
            .find(|&i| r.owner[i] == Some(cell) && r.xs[i] == cell_x + offset)
            .map(|i| SlotId {
                row: row as u32,
                idx: i as u32,
            })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of slots in a row.
    pub fn slots_in_row(&self, row: usize) -> usize {
        self.rows[row].xs.len()
    }

    /// The x position of a slot.
    pub fn x_of(&self, slot: SlotId) -> i32 {
        self.rows[slot.row as usize].xs[slot.idx as usize]
    }

    /// The net occupying a slot, if any.
    pub fn occupant(&self, slot: SlotId) -> Option<NetId> {
        self.rows[slot.row as usize].occ[slot.idx as usize]
    }

    /// The width flag of a slot.
    pub fn flag(&self, slot: SlotId) -> Option<u32> {
        self.rows[slot.row as usize].flag[slot.idx as usize]
    }

    /// Sets the width flag on every slot of a range.
    pub fn set_flag(&mut self, range: SlotRange, width: u32) {
        for slot in range.iter().collect::<Vec<_>>() {
            self.rows[slot.row as usize].flag[slot.idx as usize] = Some(width);
        }
    }

    fn window_ok(&self, row: usize, start: usize, width: usize, policy: FlagPolicy) -> bool {
        let r = &self.rows[row];
        if start + width > r.xs.len() {
            return false;
        }
        for k in 0..width {
            if r.occ[start + k].is_some() {
                return false;
            }
            if k > 0 && r.xs[start + k] != r.xs[start + k - 1] + 1 {
                return false;
            }
            if policy == FlagPolicy::Respect {
                let flag = r.flag[start + k];
                if width > 1 {
                    // Wide nets only use windows reserved for their width.
                    if flag != Some(width as u32) {
                        return false;
                    }
                } else if flag.map(|f| f > 1).unwrap_or(false) {
                    // 1-pitch nets must not consume wide-reserved slots.
                    return false;
                }
            }
        }
        true
    }

    /// Finds `width` adjacent free slots in `row` whose center is nearest
    /// to `target_x` (the paper searches outward from the mean of the
    /// net's terminal x coordinates, §3.1).
    ///
    /// Returns `None` when no eligible window exists.
    pub fn find_adjacent_free(
        &self,
        row: usize,
        width: u32,
        target_x: i32,
        policy: FlagPolicy,
    ) -> Option<SlotRange> {
        let w = width as usize;
        let r = &self.rows[row];
        let mut best: Option<(i64, SlotRange)> = None;
        for start in 0..r.xs.len() {
            if !self.window_ok(row, start, w, policy) {
                continue;
            }
            let center2 = r.xs[start] as i64 + r.xs[start + w - 1] as i64;
            let dist = (center2 - 2 * target_x as i64).abs();
            if best.map(|(d, _)| dist < d).unwrap_or(true) {
                best = Some((
                    dist,
                    SlotRange {
                        row: row as u32,
                        start: start as u32,
                        len: width,
                    },
                ));
            }
        }
        best.map(|(_, r)| r)
    }

    /// Like [`SlotStore::find_adjacent_free`], but requires the window to
    /// start exactly at `x` (used to align multi-row assignments on one
    /// column).
    pub fn find_at_x(
        &self,
        row: usize,
        width: u32,
        x: i32,
        policy: FlagPolicy,
    ) -> Option<SlotRange> {
        let r = &self.rows[row];
        let start = r.xs.partition_point(|&v| v < x);
        if start < r.xs.len()
            && r.xs[start] == x
            && self.window_ok(row, start, width as usize, policy)
        {
            Some(SlotRange {
                row: row as u32,
                start: start as u32,
                len: width,
            })
        } else {
            None
        }
    }

    /// Marks a range as occupied by `net`.
    ///
    /// # Panics
    ///
    /// Panics if any slot of the range is already occupied.
    pub fn occupy(&mut self, range: SlotRange, net: NetId) {
        for slot in range.iter().collect::<Vec<_>>() {
            let occ = &mut self.rows[slot.row as usize].occ[slot.idx as usize];
            assert!(occ.is_none(), "slot {slot:?} already occupied");
            *occ = Some(net);
        }
    }

    /// Releases every slot occupied by `net`.
    pub fn release_net(&mut self, net: NetId) {
        for row in &mut self.rows {
            for occ in &mut row.occ {
                if *occ == Some(net) {
                    *occ = None;
                }
            }
        }
    }

    /// Number of free slots in a row.
    pub fn free_in_row(&self, row: usize) -> usize {
        self.rows[row].occ.iter().filter(|o| o.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(xs: &[i32]) -> SlotStore {
        let mut s = SlotStore::new(1);
        for &x in xs {
            s.add_slot(0, x, None);
        }
        s
    }

    #[test]
    fn finds_nearest_window() {
        let s = store_with(&[0, 1, 2, 10, 11]);
        let r = s.find_adjacent_free(0, 1, 9, FlagPolicy::Ignore).unwrap();
        assert_eq!(
            s.x_of(SlotId {
                row: 0,
                idx: r.start
            }),
            10
        );
        let r = s.find_adjacent_free(0, 2, 0, FlagPolicy::Ignore).unwrap();
        assert_eq!(r.start, 0);
        assert_eq!(r.len, 2);
    }

    #[test]
    fn adjacency_requires_consecutive_x() {
        let s = store_with(&[0, 2, 3]);
        // Window [0,2] is not adjacent; [2,3] is.
        let r = s.find_adjacent_free(0, 2, 0, FlagPolicy::Ignore).unwrap();
        assert_eq!(
            s.x_of(SlotId {
                row: 0,
                idx: r.start
            }),
            2
        );
        // No 3-wide adjacent run exists.
        assert!(s.find_adjacent_free(0, 3, 0, FlagPolicy::Ignore).is_none());
    }

    #[test]
    fn occupancy_blocks_and_releases() {
        let mut s = store_with(&[0, 1]);
        let r = s.find_adjacent_free(0, 2, 0, FlagPolicy::Ignore).unwrap();
        s.occupy(r, NetId::new(7));
        assert!(s.find_adjacent_free(0, 1, 0, FlagPolicy::Ignore).is_none());
        assert_eq!(s.occupant(SlotId { row: 0, idx: 0 }), Some(NetId::new(7)));
        s.release_net(NetId::new(7));
        assert_eq!(s.free_in_row(0), 2);
    }

    #[test]
    fn flag_policy_respects_widths() {
        let mut s = store_with(&[0, 1, 2, 3]);
        s.set_flag(
            SlotRange {
                row: 0,
                start: 0,
                len: 2,
            },
            2,
        );
        // Under Respect, a 1-pitch net must avoid the 2-flagged slots.
        let r = s.find_adjacent_free(0, 1, 0, FlagPolicy::Respect).unwrap();
        assert_eq!(
            s.x_of(SlotId {
                row: 0,
                idx: r.start
            }),
            2
        );
        // A 2-pitch net must use exactly the 2-flagged window.
        let r = s.find_adjacent_free(0, 2, 3, FlagPolicy::Respect).unwrap();
        assert_eq!(r.start, 0);
        // Under Ignore, the 1-pitch net may take slot 0.
        let r = s.find_adjacent_free(0, 1, 0, FlagPolicy::Ignore).unwrap();
        assert_eq!(r.start, 0);
    }

    #[test]
    fn find_at_x_exact() {
        let s = store_with(&[4, 5, 6]);
        assert!(s.find_at_x(0, 2, 5, FlagPolicy::Ignore).is_some());
        assert!(s.find_at_x(0, 2, 6, FlagPolicy::Ignore).is_none());
        assert!(s.find_at_x(0, 1, 3, FlagPolicy::Ignore).is_none());
    }

    #[test]
    fn from_placement_collects_feed_cells() {
        use bgr_netlist::{CellLibrary, CircuitBuilder};
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let feed2 = lib.kind_by_name("FEED2").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let u = cb.add_cell("u", inv);
        let f = cb.add_cell("f", feed2);
        let y = cb.add_output_pad("y");
        cb.add_net("n1", cb.pad_term(a), [cb.cell_term(u, "A").unwrap()])
            .unwrap();
        cb.add_net("n2", cb.cell_term(u, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        let circuit = cb.finish().unwrap();
        let mut pb = crate::PlacementBuilder::new(crate::Geometry::default(), 1);
        pb.append_with_width(0, u, 3);
        pb.append_with_width(0, f, 2);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_top(y, 4);
        let placement = pb.finish(&circuit).unwrap();
        let store = SlotStore::from_placement(&circuit, &placement);
        assert_eq!(store.slots_in_row(0), 2);
        assert_eq!(store.x_of(SlotId { row: 0, idx: 0 }), 3);
        assert_eq!(store.x_of(SlotId { row: 0, idx: 1 }), 4);
    }
}
