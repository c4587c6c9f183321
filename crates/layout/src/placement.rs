//! Cell rows, channels, pad positions and terminal localization.

use bgr_netlist::{define_id, AccessSide, CellId, Circuit, PadId, TermId, TermOwner};

use crate::error::LayoutError;
use crate::geometry::Geometry;

define_id!(
    /// Index of a routing channel.
    ///
    /// Channel `i` lies **below** cell row `i`; channel `num_rows` lies
    /// above the last row. A placement with `r` rows therefore has `r + 1`
    /// channels, and the chip's bottom/top boundaries (where external pads
    /// sit) are channels `0` and `r`.
    ChannelId
);

/// A cell with its x position (left edge) and width in pitch units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedCell {
    /// The placed cell instance.
    pub cell: CellId,
    /// Left edge in pitches.
    pub x: i32,
    /// Width in pitches.
    pub width: u32,
}

/// One horizontal cell row, cells ordered by x.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Row {
    cells: Vec<PlacedCell>,
}

impl Row {
    /// Cells in left-to-right order.
    pub fn cells(&self) -> &[PlacedCell] {
        &self.cells
    }
}

/// Which chip boundary a pad sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadSide {
    /// Below row 0 (channel 0).
    Bottom,
    /// Above the last row (channel `num_rows`).
    Top,
}

/// Location of a placed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellLoc {
    /// Row index.
    pub row: usize,
    /// Left edge in pitches.
    pub x: i32,
}

/// Where a terminal physically sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermSite {
    /// A cell pin in `row`, reachable from the given side(s).
    Cell {
        /// Row of the owning cell.
        row: usize,
        /// Channel access of the pin.
        access: AccessSide,
    },
    /// An external pad on the given boundary.
    Pad(PadSide),
}

/// Physical position of a terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermPos {
    /// Horizontal position in pitches.
    pub x: i32,
    /// Row/boundary the terminal belongs to.
    pub site: TermSite,
}

impl TermPos {
    /// Channels from which this terminal can be tapped.
    pub fn channels(&self, num_rows: usize) -> Vec<ChannelId> {
        match self.site {
            TermSite::Cell { row, access } => match access {
                AccessSide::Top => vec![ChannelId::new(row + 1)],
                AccessSide::Bottom => vec![ChannelId::new(row)],
                AccessSide::Both => vec![ChannelId::new(row), ChannelId::new(row + 1)],
            },
            TermSite::Pad(PadSide::Bottom) => vec![ChannelId::new(0)],
            TermSite::Pad(PadSide::Top) => vec![ChannelId::new(num_rows)],
        }
    }
}

/// A validated standard-cell placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    geometry: Geometry,
    rows: Vec<Row>,
    /// Per-cell location, indexed by `CellId`.
    locs: Vec<Option<CellLoc>>,
    /// Per-pad boundary position, indexed by `PadId`.
    pads: Vec<Option<(PadSide, i32)>>,
    width_pitches: i32,
}

impl Placement {
    /// The geometry the placement was built with.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Number of cell rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of channels (`num_rows + 1`).
    pub fn num_channels(&self) -> usize {
        self.rows.len() + 1
    }

    /// The rows in bottom-to-top order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Chip width in pitches.
    pub fn width_pitches(&self) -> i32 {
        self.width_pitches
    }

    /// Location of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not placed (placements are validated, so this
    /// only happens for cells added to the circuit afterwards).
    pub fn cell_loc(&self, cell: CellId) -> CellLoc {
        self.locs[cell.index()].expect("cell not placed")
    }

    /// Boundary position of a pad.
    ///
    /// # Panics
    ///
    /// Panics if the pad is not positioned.
    pub fn pad_loc(&self, pad: PadId) -> (PadSide, i32) {
        self.pads[pad.index()].expect("pad not placed")
    }

    /// Physical position of a terminal.
    pub fn term_pos(&self, circuit: &Circuit, term: TermId) -> TermPos {
        match circuit.term(term).owner() {
            TermOwner::Cell { cell, pin } => {
                let loc = self.cell_loc(cell);
                let kind = circuit.library().kind(circuit.cell(cell).kind());
                let spec = &kind.terms()[pin];
                TermPos {
                    x: loc.x + spec.offset_pitches as i32,
                    site: TermSite::Cell {
                        row: loc.row,
                        access: spec.access,
                    },
                }
            }
            TermOwner::Pad(pad) => {
                let (side, x) = self.pad_loc(pad);
                TermPos {
                    x,
                    site: TermSite::Pad(side),
                }
            }
        }
    }

    /// Inserts a (new) cell into `row` before gap index `gap`
    /// (`0..=row.cells.len()`), shifting every cell at or after the gap
    /// right by the cell's width. Used by feed-cell insertion (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `gap` is out of range.
    pub fn insert_cell_at_gap(&mut self, row: usize, gap: usize, cell: CellId, width: u32) {
        assert!(row < self.rows.len(), "row out of range");
        if self.locs.len() <= cell.index() {
            self.locs.resize(cell.index() + 1, None);
        }
        let row_end = self.row_end(row);
        let cells = &mut self.rows[row].cells;
        assert!(gap <= cells.len(), "gap out of range");
        let x = if gap == 0 {
            0
        } else {
            // Start at the left edge of the displaced cell (or row end).
            cells.get(gap).map(|c| c.x).unwrap_or(row_end)
        };
        self.shift_and_insert(row, gap, PlacedCell { cell, x, width });
    }

    /// Right edge (in pitches) of the rightmost cell in `row`, or 0 for an
    /// empty row.
    pub fn row_end(&self, row: usize) -> i32 {
        self.rows[row]
            .cells
            .last()
            .map(|c| c.x + c.width as i32)
            .unwrap_or(0)
    }

    /// Inserts a (new) cell at an explicit x in `row`, shifting every cell
    /// at or right of `x` further right by `width`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn insert_cell_at_x(&mut self, row: usize, cell: CellId, x: i32, width: u32) {
        assert!(row < self.rows.len(), "row out of range");
        if self.locs.len() <= cell.index() {
            self.locs.resize(cell.index() + 1, None);
        }
        let gap = self.rows[row].cells.partition_point(|c| c.x < x);
        self.shift_and_insert(row, gap, PlacedCell { cell, x, width });
    }

    /// Shifts the cells of `row` from gap index `gap` on right by the new
    /// cell's width and inserts it there. Only the shifted cells and the
    /// new one can end further right than before (cells left of the gap
    /// and pads never move), so the chip width grows to their furthest
    /// right end in the same pass: O(row), not a rescan of the chip.
    fn shift_and_insert(&mut self, row: usize, gap: usize, placed: PlacedCell) {
        let mut right = placed.x + placed.width as i32;
        let cells = &mut self.rows[row].cells;
        for moved in &mut cells[gap..] {
            moved.x += placed.width as i32;
            right = right.max(moved.x + moved.width as i32);
            self.locs[moved.cell.index()] = Some(CellLoc { row, x: moved.x });
        }
        cells.insert(gap, placed);
        self.locs[placed.cell.index()] = Some(CellLoc { row, x: placed.x });
        self.width_pitches = self.width_pitches.max(right);
    }

    /// Chip core area in mm² given per-channel track counts.
    ///
    /// Area = width × (Σ row heights + Σ channel heights), the measure the
    /// paper reports in Table 2.
    pub fn area_mm2(&self, channel_tracks: &[usize]) -> f64 {
        assert_eq!(
            channel_tracks.len(),
            self.num_channels(),
            "one track count per channel"
        );
        let width_um = self.geometry.pitches_to_um(self.width_pitches as f64);
        let rows_um = self.rows.len() as f64 * self.geometry.row_height_um;
        let channels_um: f64 = channel_tracks
            .iter()
            .map(|&t| self.geometry.channel_height_um(t))
            .sum();
        width_um * (rows_um + channels_um) / 1.0e6
    }

    /// Validates the placement against a circuit: finite positive
    /// geometry lengths, every cell placed once, no overlaps,
    /// non-negative coordinates, every pad positioned.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, circuit: &Circuit) -> Result<(), LayoutError> {
        let g = &self.geometry;
        for (field, value) in [
            ("pitch_um", g.pitch_um),
            ("row_height_um", g.row_height_um),
            ("track_pitch_um", g.track_pitch_um),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(LayoutError::BadGeometry { field, value });
            }
        }
        for id in circuit.cell_ids() {
            if self.locs.get(id.index()).copied().flatten().is_none() {
                return Err(LayoutError::Unplaced(id));
            }
        }
        for (i, pad) in self.pads.iter().enumerate() {
            if pad.is_none() && i < circuit.pads().len() {
                return Err(LayoutError::UnplacedPad(PadId::new(i)));
            }
        }
        if self.pads.len() < circuit.pads().len() {
            return Err(LayoutError::UnplacedPad(PadId::new(self.pads.len())));
        }
        for row in &self.rows {
            let mut prev: Option<(CellId, i32)> = None;
            for pc in &row.cells {
                if pc.x < 0 {
                    return Err(LayoutError::NegativeX(pc.cell));
                }
                let width = circuit
                    .library()
                    .kind(circuit.cell(pc.cell).kind())
                    .width_pitches() as i32;
                if let Some((prev_cell, prev_end)) = prev {
                    if pc.x < prev_end {
                        return Err(LayoutError::Overlap(prev_cell, pc.cell));
                    }
                }
                prev = Some((pc.cell, pc.x + width));
            }
        }
        Ok(())
    }
}

/// Builder for [`Placement`].
#[derive(Debug, Clone)]
pub struct PlacementBuilder {
    geometry: Geometry,
    rows: Vec<Row>,
    cursors: Vec<i32>,
    locs: Vec<Option<CellLoc>>,
    pads: Vec<Option<(PadSide, i32)>>,
}

impl PlacementBuilder {
    /// Starts a placement with `num_rows` empty rows.
    pub fn new(geometry: Geometry, num_rows: usize) -> Self {
        Self {
            geometry,
            rows: vec![Row::default(); num_rows],
            cursors: vec![0; num_rows],
            locs: Vec::new(),
            pads: Vec::new(),
        }
    }

    fn record(&mut self, cell: CellId, loc: CellLoc) -> Result<(), LayoutError> {
        if self.locs.len() <= cell.index() {
            self.locs.resize(cell.index() + 1, None);
        }
        if self.locs[cell.index()].is_some() {
            return Err(LayoutError::PlacedTwice(cell));
        }
        self.locs[cell.index()] = Some(loc);
        Ok(())
    }

    /// Appends a cell at the current row cursor; the cursor advances by the
    /// cell width at [`PlacementBuilder::finish`] time, so use
    /// [`PlacementBuilder::append_with_width`] when interleaving appends
    /// and explicit placements.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn append(&mut self, row: usize, cell: CellId) -> i32 {
        // Without the circuit we cannot know the cell width; default to
        // advancing by a conservative 1 pitch. Generators use
        // `append_with_width`.
        self.append_with_width(row, cell, 1)
    }

    /// Appends a cell of known width at the row cursor.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or the cell was placed twice
    /// (placement generators control both, so this is a programming error).
    pub fn append_with_width(&mut self, row: usize, cell: CellId, width: u32) -> i32 {
        assert!(row < self.rows.len(), "row {row} out of range");
        let x = self.cursors[row];
        self.record(cell, CellLoc { row, x })
            .unwrap_or_else(|e| panic!("{e}"));
        self.rows[row].cells.push(PlacedCell { cell, x, width });
        self.cursors[row] += width as i32;
        x
    }

    /// Places a cell of width `width` at an explicit x.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadRow`] or [`LayoutError::PlacedTwice`].
    pub fn place_at(
        &mut self,
        row: usize,
        cell: CellId,
        x: i32,
        width: u32,
    ) -> Result<(), LayoutError> {
        if row >= self.rows.len() {
            return Err(LayoutError::BadRow(row));
        }
        self.record(cell, CellLoc { row, x })?;
        let cells = &mut self.rows[row].cells;
        let pos = cells.partition_point(|c| c.x <= x);
        cells.insert(pos, PlacedCell { cell, x, width });
        self.cursors[row] = self.cursors[row].max(x + width as i32);
        Ok(())
    }

    /// Positions a pad on the bottom boundary.
    pub fn place_pad_bottom(&mut self, pad: PadId, x: i32) {
        self.set_pad(pad, PadSide::Bottom, x);
    }

    /// Positions a pad on the top boundary.
    pub fn place_pad_top(&mut self, pad: PadId, x: i32) {
        self.set_pad(pad, PadSide::Top, x);
    }

    fn set_pad(&mut self, pad: PadId, side: PadSide, x: i32) {
        if self.pads.len() <= pad.index() {
            self.pads.resize(pad.index() + 1, None);
        }
        self.pads[pad.index()] = Some((side, x));
    }

    /// Finishes and validates the placement against the circuit.
    ///
    /// # Errors
    ///
    /// Propagates any invariant violation from [`Placement::validate`].
    pub fn finish(self, circuit: &Circuit) -> Result<Placement, LayoutError> {
        let placement = self.finish_unvalidated();
        placement.validate(circuit)?;
        Ok(placement)
    }

    /// Finishes the placement without [`Placement::validate`], for a
    /// reader that validates the whole design once afterwards (a
    /// checkpoint's embedded design is validated by the session that
    /// takes it). The result must be validated against its circuit
    /// before anything routes it.
    pub fn finish_unvalidated(self) -> Placement {
        let mut width = 0;
        for row in &self.rows {
            for pc in &row.cells {
                width = width.max(pc.x + pc.width as i32);
            }
        }
        for &(_, x) in self.pads.iter().flatten() {
            width = width.max(x + 1);
        }
        Placement {
            geometry: self.geometry,
            rows: self.rows,
            locs: self.locs,
            pads: self.pads,
            width_pitches: width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::{CellLibrary, CircuitBuilder};

    fn small_circuit() -> (bgr_netlist::Circuit, Vec<CellId>, Vec<PadId>) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let cells: Vec<CellId> = (0..4).map(|i| cb.add_cell(format!("u{i}"), inv)).collect();
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(cells[0], "A").unwrap()])
            .unwrap();
        cb.add_net(
            "n1",
            cb.cell_term(cells[0], "Y").unwrap(),
            [
                cb.cell_term(cells[1], "A").unwrap(),
                cb.cell_term(cells[2], "A").unwrap(),
            ],
        )
        .unwrap();
        cb.add_net(
            "n2",
            cb.cell_term(cells[1], "Y").unwrap(),
            [cb.cell_term(cells[3], "A").unwrap()],
        )
        .unwrap();
        cb.add_net("n3", cb.cell_term(cells[3], "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        // u2/Y left dangling intentionally: unconnected outputs are legal.
        let circuit = cb.finish().unwrap();
        (circuit, cells, vec![a, y])
    }

    fn placed() -> (bgr_netlist::Circuit, Placement, Vec<CellId>) {
        let (circuit, cells, pads) = small_circuit();
        let mut pb = PlacementBuilder::new(Geometry::default(), 2);
        pb.append_with_width(0, cells[0], 3);
        pb.append_with_width(0, cells[1], 3);
        pb.append_with_width(1, cells[2], 3);
        pb.append_with_width(1, cells[3], 3);
        pb.place_pad_bottom(pads[0], 0);
        pb.place_pad_top(pads[1], 5);
        let placement = pb.finish(&circuit).unwrap();
        (circuit, placement, cells)
    }

    #[test]
    fn builder_places_and_validates() {
        let (_, placement, cells) = placed();
        assert_eq!(placement.num_rows(), 2);
        assert_eq!(placement.num_channels(), 3);
        assert_eq!(placement.cell_loc(cells[0]), CellLoc { row: 0, x: 0 });
        assert_eq!(placement.cell_loc(cells[1]), CellLoc { row: 0, x: 3 });
        assert_eq!(placement.width_pitches(), 6);
    }

    #[test]
    fn term_positions_use_pin_offsets() {
        let (circuit, placement, cells) = placed();
        // INV output pin "Y" has offset 2; u1 is at x=3 in row 0.
        let y_term = circuit.cell(cells[1]).terms()[1];
        let pos = placement.term_pos(&circuit, y_term);
        assert_eq!(pos.x, 5);
        assert!(matches!(pos.site, TermSite::Cell { row: 0, .. }));
        // Both-side access yields the two adjacent channels.
        assert_eq!(
            pos.channels(placement.num_rows()),
            vec![ChannelId::new(0), ChannelId::new(1)]
        );
    }

    #[test]
    fn pad_positions() {
        let (circuit, placement, _) = placed();
        let a_term = circuit.pads()[0].term();
        let pos = placement.term_pos(&circuit, a_term);
        assert_eq!(pos.site, TermSite::Pad(PadSide::Bottom));
        assert_eq!(pos.channels(2), vec![ChannelId::new(0)]);
        let y_term = circuit.pads()[1].term();
        let pos = placement.term_pos(&circuit, y_term);
        assert_eq!(pos.channels(2), vec![ChannelId::new(2)]);
    }

    #[test]
    fn rejects_non_positive_or_non_finite_geometry() {
        let (circuit, cells, pads) = small_circuit();
        let bad = [
            Geometry {
                pitch_um: -8.0,
                ..Geometry::default()
            },
            Geometry {
                row_height_um: 0.0,
                ..Geometry::default()
            },
            Geometry {
                track_pitch_um: f64::NAN,
                ..Geometry::default()
            },
            Geometry {
                pitch_um: f64::INFINITY,
                ..Geometry::default()
            },
        ];
        for (geometry, field) in
            bad.into_iter()
                .zip(["pitch_um", "row_height_um", "track_pitch_um", "pitch_um"])
        {
            let mut pb = PlacementBuilder::new(geometry, 1);
            for &c in &cells {
                pb.append_with_width(0, c, 3);
            }
            pb.place_pad_bottom(pads[0], 0);
            pb.place_pad_top(pads[1], 5);
            match pb.finish(&circuit) {
                Err(LayoutError::BadGeometry { field: f, .. }) => assert_eq!(f, field),
                other => panic!("{geometry:?} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn detects_overlap() {
        let (circuit, cells, pads) = small_circuit();
        let mut pb = PlacementBuilder::new(Geometry::default(), 1);
        pb.place_at(0, cells[0], 0, 3).unwrap();
        pb.place_at(0, cells[1], 1, 3).unwrap(); // INV is 3 wide: overlap
        pb.place_at(0, cells[2], 10, 3).unwrap();
        pb.place_at(0, cells[3], 20, 3).unwrap();
        pb.place_pad_bottom(pads[0], 0);
        pb.place_pad_top(pads[1], 5);
        let err = pb.finish(&circuit).unwrap_err();
        assert!(matches!(err, LayoutError::Overlap(..)));
    }

    #[test]
    fn detects_unplaced_cell_and_pad() {
        let (circuit, cells, pads) = small_circuit();
        let mut pb = PlacementBuilder::new(Geometry::default(), 1);
        for &c in &cells[..3] {
            pb.append_with_width(0, c, 3);
        }
        pb.place_pad_bottom(pads[0], 0);
        pb.place_pad_top(pads[1], 5);
        assert!(matches!(
            pb.clone().finish(&circuit).unwrap_err(),
            LayoutError::Unplaced(_)
        ));
        pb.append_with_width(0, cells[3], 3);
        let mut pb2 = pb.clone();
        pb2.pads.pop();
        // Dropping the last pad triggers the unplaced-pad check.
        assert!(matches!(
            pb2.finish(&circuit).unwrap_err(),
            LayoutError::UnplacedPad(_)
        ));
        assert!(pb.finish(&circuit).is_ok());
    }

    #[test]
    fn insert_cell_shifts_right() {
        let (circuit, mut placement, cells) = placed();
        // Simulate a feed cell appended to the circuit's cell list.
        let new_cell = CellId::new(circuit.cells().len());
        placement.insert_cell_at_gap(0, 1, new_cell, 2);
        assert_eq!(placement.cell_loc(new_cell), CellLoc { row: 0, x: 3 });
        assert_eq!(placement.cell_loc(cells[1]), CellLoc { row: 0, x: 5 });
        // Row 1 untouched.
        assert_eq!(placement.cell_loc(cells[2]).x, 0);
    }

    #[test]
    fn area_accounts_rows_and_channels() {
        let (_, placement, _) = placed();
        let g = *placement.geometry();
        let area = placement.area_mm2(&[2, 3, 1]);
        let width_um = g.pitches_to_um(placement.width_pitches() as f64);
        let expect = width_um * (2.0 * g.row_height_um + g.channel_height_um(6)) / 1.0e6;
        assert!((area - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one track count per channel")]
    fn area_requires_matching_channel_count() {
        let (_, placement, _) = placed();
        let _ = placement.area_mm2(&[1, 2]);
    }
}
