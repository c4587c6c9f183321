//! Circuit instances: cells, pads, terminals, nets, differential pairs.

use crate::error::NetlistError;
use crate::ids::{CellId, KindId, NetId, PadId, TermId};
use crate::library::{CellLibrary, TermDir};

/// A placed-able cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    name: String,
    kind: KindId,
    /// Terminal ids of this cell, indexed by pin index of the kind.
    terms: Vec<TermId>,
}

impl Cell {
    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell kind.
    pub fn kind(&self) -> KindId {
        self.kind
    }

    /// Terminal ids, indexed by pin index.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }
}

/// An external (chip-boundary) terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pad {
    name: String,
    dir: TermDir,
    term: TermId,
}

impl Pad {
    /// Pad name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Direction as seen by the chip core: an *input* pad drives a net,
    /// an *output* pad sinks one.
    pub fn dir(&self) -> TermDir {
        self.dir
    }

    /// The pad's terminal id.
    pub fn term(&self) -> TermId {
        self.term
    }
}

/// Who owns a terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermOwner {
    /// Pin `pin` of cell `cell`.
    Cell {
        /// Owning cell instance.
        cell: CellId,
        /// Pin index within the cell's kind.
        pin: usize,
    },
    /// An external pad.
    Pad(PadId),
}

/// A connectable point: a cell pin or an external pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Terminal {
    owner: TermOwner,
    net: Option<NetId>,
}

impl Terminal {
    /// The owner of this terminal.
    pub fn owner(&self) -> TermOwner {
        self.owner
    }

    /// The net connected to this terminal, if any.
    pub fn net(&self) -> Option<NetId> {
        self.net
    }
}

/// A signal net: one driver, one or more sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    name: String,
    driver: TermId,
    sinks: Vec<TermId>,
    width_pitches: u32,
}

impl Net {
    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Driving terminal (a cell output or input pad).
    pub fn driver(&self) -> TermId {
        self.driver
    }

    /// Sink terminals (cell inputs or output pads).
    pub fn sinks(&self) -> &[TermId] {
        &self.sinks
    }

    /// Wire width in pitches (§4.2 multi-pitch wires); 1 for ordinary nets.
    pub fn width_pitches(&self) -> u32 {
        self.width_pitches
    }

    /// Iterates over all terminals of the net, driver first.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        std::iter::once(self.driver).chain(self.sinks.iter().copied())
    }
}

/// A validated circuit: library + instances + connectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    library: CellLibrary,
    cells: Vec<Cell>,
    pads: Vec<Pad>,
    terms: Vec<Terminal>,
    nets: Vec<Net>,
    diff_pairs: Vec<(NetId, NetId)>,
}

impl Circuit {
    /// The cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Cell instances.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// External pads.
    pub fn pads(&self) -> &[Pad] {
        &self.pads
    }

    /// All terminals.
    pub fn terms(&self) -> &[Terminal] {
        &self.terms
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Differential drive pairs (§4.1). Each net appears at most once.
    pub fn diff_pairs(&self) -> &[(NetId, NetId)] {
        &self.diff_pairs
    }

    /// Looks up a cell.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks up a pad.
    pub fn pad(&self, id: PadId) -> &Pad {
        &self.pads[id.index()]
    }

    /// Looks up a terminal.
    pub fn term(&self, id: TermId) -> &Terminal {
        &self.terms[id.index()]
    }

    /// Looks up a net.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterates over net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len()).map(NetId::new)
    }

    /// Iterates over cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len()).map(CellId::new)
    }

    /// Returns the differential partner of a net, if it is paired.
    pub fn diff_partner(&self, net: NetId) -> Option<NetId> {
        self.diff_pairs.iter().find_map(|&(a, b)| {
            if a == net {
                Some(b)
            } else if b == net {
                Some(a)
            } else {
                None
            }
        })
    }

    /// The direction of a terminal as a net endpoint.
    ///
    /// An input *pad* acts as a driver (output direction into the core);
    /// an output pad acts as a sink.
    pub fn term_dir(&self, id: TermId) -> TermDir {
        match self.terms[id.index()].owner {
            TermOwner::Cell { cell, pin } => {
                self.library.kind(self.cells[cell.index()].kind()).terms()[pin].dir
            }
            TermOwner::Pad(pad) => match self.pads[pad.index()].dir() {
                TermDir::Input => TermDir::Output,
                TermDir::Output => TermDir::Input,
            },
        }
    }

    /// Fan-in capacitance `F_in(t)` of a terminal in fF (0 for pads).
    pub fn term_fanin_ff(&self, id: TermId) -> f64 {
        match self.terms[id.index()].owner {
            TermOwner::Cell { cell, pin } => {
                self.library.kind(self.cells[cell.index()].kind()).terms()[pin].fanin_ff
            }
            TermOwner::Pad(_) => 0.0,
        }
    }

    /// A short human-readable description of a terminal, for diagnostics.
    pub fn term_name(&self, id: TermId) -> String {
        match self.terms[id.index()].owner {
            TermOwner::Cell { cell, pin } => {
                let c = &self.cells[cell.index()];
                let kind = self.library.kind(c.kind());
                format!("{}/{}", c.name(), kind.terms()[pin].name)
            }
            TermOwner::Pad(pad) => self.pads[pad.index()].name().to_owned(),
        }
    }

    /// Total fan-out input capacitance of a net, `Σ F_in(t)` over sinks.
    pub fn net_fanout_ff(&self, net: NetId) -> f64 {
        self.nets[net.index()]
            .sinks()
            .iter()
            .map(|&s| self.term_fanin_ff(s))
            .sum()
    }

    /// Appends a feed cell to a validated circuit (feed-cell insertion,
    /// §4.3 of the paper). Feed cells have no terminals, so connectivity
    /// invariants are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a feed kind of this circuit's library.
    pub fn add_feed_cell(&mut self, name: impl Into<String>, kind: KindId) -> CellId {
        assert!(
            self.library.contains(kind) && self.library.kind(kind).is_feed(),
            "add_feed_cell requires a feed kind"
        );
        let id = CellId::new(self.cells.len());
        self.cells.push(Cell {
            name: name.into(),
            kind,
            terms: Vec::new(),
        });
        id
    }

    /// Validates structural invariants. Called by
    /// [`CircuitBuilder::finish`]; re-exposed for circuits modified by the
    /// router (e.g. after feed-cell insertion).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: driver/sink directions,
    /// terminal reuse, empty nets, differential-pair consistency and
    /// combinational acyclicity.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut used: Vec<Option<NetId>> = vec![None; self.terms.len()];
        for (i, net) in self.nets.iter().enumerate() {
            let id = NetId::new(i);
            if net.sinks().is_empty() {
                return Err(NetlistError::EmptyNet(id));
            }
            if net.width_pitches() == 0 {
                return Err(NetlistError::ZeroWidth(id));
            }
            if self.term_dir(net.driver()) != TermDir::Output {
                return Err(NetlistError::DriverNotOutput(id, net.driver()));
            }
            for &s in net.sinks() {
                if self.term_dir(s) != TermDir::Input {
                    return Err(NetlistError::SinkNotInput(id, s));
                }
            }
            for t in net.terms() {
                if let Some(prev) = used[t.index()] {
                    return Err(NetlistError::TerminalReused(t, prev, id));
                }
                used[t.index()] = Some(id);
            }
        }
        self.validate_diff_pairs()?;
        self.validate_acyclic()
    }

    fn validate_diff_pairs(&self) -> Result<(), NetlistError> {
        let mut seen = vec![false; self.nets.len()];
        for &(a, b) in &self.diff_pairs {
            if a == b {
                return Err(NetlistError::DiffPairSelf(a));
            }
            for n in [a, b] {
                if seen[n.index()] {
                    return Err(NetlistError::DiffPairReused(n));
                }
                seen[n.index()] = true;
            }
            let na = &self.nets[a.index()];
            let nb = &self.nets[b.index()];
            if na.sinks().len() != nb.sinks().len() || na.width_pitches() != nb.width_pitches() {
                return Err(NetlistError::DiffPairMismatch(a, b));
            }
        }
        Ok(())
    }

    /// DFS cycle check over the combinational cell graph.
    fn validate_acyclic(&self) -> Result<(), NetlistError> {
        // Adjacency: cell -> cells reachable through one combinational arc
        // + net hop.
        let n = self.cells.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (ci, cell) in self.cells.iter().enumerate() {
            let kind = self.library.kind(cell.kind());
            if kind.is_sequential() {
                continue;
            }
            for arc in kind.arcs() {
                let out_term = cell.terms()[arc.to];
                if let Some(net) = self.terms[out_term.index()].net() {
                    for &s in self.nets[net.index()].sinks() {
                        if let TermOwner::Cell { cell: dst, .. } = self.terms[s.index()].owner {
                            adj[ci].push(dst.index() as u32);
                        }
                    }
                }
            }
        }
        // Iterative coloring DFS.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; n];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            color[start] = GRAY;
            stack.push((start as u32, 0));
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                let vi = v as usize;
                if *next < adj[vi].len() {
                    let w = adj[vi][*next] as usize;
                    *next += 1;
                    match color[w] {
                        WHITE => {
                            color[w] = GRAY;
                            stack.push((w as u32, 0));
                        }
                        GRAY => return Err(NetlistError::CombinationalCycle(CellId::new(w))),
                        _ => {}
                    }
                } else {
                    color[vi] = BLACK;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

/// Incremental constructor for [`Circuit`] (Rust API guideline C-BUILDER).
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    library: CellLibrary,
    cells: Vec<Cell>,
    pads: Vec<Pad>,
    terms: Vec<Terminal>,
    nets: Vec<Net>,
    diff_pairs: Vec<(NetId, NetId)>,
}

impl CircuitBuilder {
    /// Starts a circuit over the given library.
    pub fn new(library: CellLibrary) -> Self {
        Self {
            library,
            cells: Vec::new(),
            pads: Vec::new(),
            terms: Vec::new(),
            nets: Vec::new(),
            diff_pairs: Vec::new(),
        }
    }

    /// The library the builder was created with.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Number of cells added so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets added so far.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Adds a cell instance; terminals for every pin are created eagerly.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in the library.
    pub fn add_cell(&mut self, name: impl Into<String>, kind: KindId) -> CellId {
        assert!(self.library.contains(kind), "unknown kind {kind}");
        let id = CellId::new(self.cells.len());
        let pin_count = self.library.kind(kind).terms().len();
        let terms = (0..pin_count)
            .map(|pin| {
                let t = TermId::new(self.terms.len());
                self.terms.push(Terminal {
                    owner: TermOwner::Cell { cell: id, pin },
                    net: None,
                });
                t
            })
            .collect();
        self.cells.push(Cell {
            name: name.into(),
            kind,
            terms,
        });
        id
    }

    /// Adds an external input pad (drives a net).
    pub fn add_input_pad(&mut self, name: impl Into<String>) -> PadId {
        self.add_pad(name, TermDir::Input)
    }

    /// Adds an external output pad (sinks a net).
    pub fn add_output_pad(&mut self, name: impl Into<String>) -> PadId {
        self.add_pad(name, TermDir::Output)
    }

    fn add_pad(&mut self, name: impl Into<String>, dir: TermDir) -> PadId {
        let id = PadId::new(self.pads.len());
        let term = TermId::new(self.terms.len());
        self.terms.push(Terminal {
            owner: TermOwner::Pad(id),
            net: None,
        });
        self.pads.push(Pad {
            name: name.into(),
            dir,
            term,
        });
        id
    }

    /// Terminal id of pin `pin_name` on `cell`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPin`] if the kind has no such pin.
    pub fn cell_term(&self, cell: CellId, pin_name: &str) -> Result<TermId, NetlistError> {
        let c = &self.cells[cell.index()];
        let kind = self.library.kind(c.kind());
        let pin = kind
            .pin(pin_name)
            .ok_or_else(|| NetlistError::UnknownPin(c.kind(), pin_name.to_owned()))?;
        Ok(c.terms()[pin])
    }

    /// Terminal id of a pad.
    pub fn pad_term(&self, pad: PadId) -> TermId {
        self.pads[pad.index()].term()
    }

    /// Terminal id of `cell`'s pin by index (see
    /// [`CircuitBuilder::cell_term`] for lookup by name).
    pub fn cell_term_at(&self, cell: CellId, pin: usize) -> TermId {
        self.cells[cell.index()].terms()[pin]
    }

    /// Adds a 1-pitch net.
    ///
    /// # Errors
    ///
    /// Returns an error if a terminal is already connected, the driver is
    /// not output-direction, a sink is not input-direction, or there are no
    /// sinks.
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        driver: TermId,
        sinks: impl IntoIterator<Item = TermId>,
    ) -> Result<NetId, NetlistError> {
        self.add_wide_net(name, driver, sinks, 1)
    }

    /// Adds a net with an explicit width in pitches (§4.2).
    ///
    /// # Errors
    ///
    /// As [`CircuitBuilder::add_net`]; additionally rejects zero width.
    pub fn add_wide_net(
        &mut self,
        name: impl Into<String>,
        driver: TermId,
        sinks: impl IntoIterator<Item = TermId>,
        width_pitches: u32,
    ) -> Result<NetId, NetlistError> {
        let id = NetId::new(self.nets.len());
        if width_pitches == 0 {
            return Err(NetlistError::ZeroWidth(id));
        }
        let sinks: Vec<TermId> = sinks.into_iter().collect();
        if sinks.is_empty() {
            return Err(NetlistError::EmptyNet(id));
        }
        for &t in std::iter::once(&driver).chain(&sinks) {
            if let Some(prev) = self.terms[t.index()].net {
                return Err(NetlistError::TerminalReused(t, prev, id));
            }
        }
        self.terms[driver.index()].net = Some(id);
        for &s in &sinks {
            self.terms[s.index()].net = Some(id);
        }
        self.nets.push(Net {
            name: name.into(),
            driver,
            sinks,
            width_pitches,
        });
        Ok(id)
    }

    /// Declares two nets a differential drive pair (§4.1).
    ///
    /// # Errors
    ///
    /// Returns an error if the nets are identical, mismatched in arity or
    /// width, or already paired.
    pub fn mark_diff_pair(&mut self, a: NetId, b: NetId) -> Result<(), NetlistError> {
        if a == b {
            return Err(NetlistError::DiffPairSelf(a));
        }
        for &(x, y) in &self.diff_pairs {
            for n in [a, b] {
                if n == x || n == y {
                    return Err(NetlistError::DiffPairReused(n));
                }
            }
        }
        let na = &self.nets[a.index()];
        let nb = &self.nets[b.index()];
        if na.sinks().len() != nb.sinks().len() || na.width_pitches() != nb.width_pitches() {
            return Err(NetlistError::DiffPairMismatch(a, b));
        }
        self.diff_pairs.push((a, b));
        Ok(())
    }

    /// Finishes and validates the circuit.
    ///
    /// # Errors
    ///
    /// Propagates any invariant violation from [`Circuit::validate`].
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        let circuit = self.finish_unvalidated();
        circuit.validate()?;
        Ok(circuit)
    }

    /// Finishes the circuit without [`Circuit::validate`], for a reader
    /// that validates the whole design once afterwards (a checkpoint's
    /// embedded design is validated by the session that takes it). The
    /// result must be validated before anything routes or times it.
    pub fn finish_unvalidated(self) -> Circuit {
        Circuit {
            library: self.library,
            cells: self.cells,
            pads: self.pads,
            terms: self.terms,
            nets: self.nets,
            diff_pairs: self.diff_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;

    fn two_inv_chain() -> CircuitBuilder {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        cb.add_net("n1", cb.pad_term(a), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        cb.add_net(
            "n2",
            cb.cell_term(u1, "Y").unwrap(),
            [cb.cell_term(u2, "A").unwrap()],
        )
        .unwrap();
        cb.add_net("n3", cb.cell_term(u2, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        cb
    }

    #[test]
    fn chain_builds_and_validates() {
        let circuit = two_inv_chain().finish().unwrap();
        assert_eq!(circuit.cells().len(), 2);
        assert_eq!(circuit.nets().len(), 3);
        assert_eq!(circuit.pads().len(), 2);
        // 2 cells × 2 pins + 2 pads.
        assert_eq!(circuit.terms().len(), 6);
    }

    #[test]
    fn term_dir_for_pads_flips() {
        let circuit = two_inv_chain().finish().unwrap();
        let in_pad = circuit.pads()[0].term();
        let out_pad = circuit.pads()[1].term();
        assert_eq!(circuit.term_dir(in_pad), TermDir::Output);
        assert_eq!(circuit.term_dir(out_pad), TermDir::Input);
    }

    #[test]
    fn net_fanout_sums_fanin_caps() {
        let circuit = two_inv_chain().finish().unwrap();
        // n2 sinks one INV input (5 fF).
        assert_eq!(circuit.net_fanout_ff(NetId::new(1)), 5.0);
        // n3 sinks a pad (0 fF).
        assert_eq!(circuit.net_fanout_ff(NetId::new(2)), 0.0);
    }

    #[test]
    fn rejects_terminal_reuse() {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let u1 = cb.add_cell("u1", inv);
        let sink = cb.cell_term(u1, "A").unwrap();
        cb.add_net("n1", cb.pad_term(a), [sink]).unwrap();
        let b = cb.add_input_pad("b");
        let err = cb.add_net("n2", cb.pad_term(b), [sink]).unwrap_err();
        assert!(matches!(err, NetlistError::TerminalReused(..)));
    }

    #[test]
    fn rejects_driver_that_is_an_input() {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        let bad_driver = cb.cell_term(u1, "A").unwrap();
        let sink = cb.cell_term(u2, "A").unwrap();
        let id = cb.add_net("n", bad_driver, [sink]).unwrap();
        // The direction error is caught at finish-time validation.
        let err = cb.finish().unwrap_err();
        assert_eq!(err, NetlistError::DriverNotOutput(id, bad_driver));
    }

    #[test]
    fn rejects_empty_net() {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let u1 = cb.add_cell("u1", inv);
        let drv = cb.cell_term(u1, "Y").unwrap();
        let err = cb.add_net("n", drv, []).unwrap_err();
        assert!(matches!(err, NetlistError::EmptyNet(_)));
    }

    #[test]
    fn detects_combinational_cycle() {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        cb.add_net(
            "n1",
            cb.cell_term(u1, "Y").unwrap(),
            [cb.cell_term(u2, "A").unwrap()],
        )
        .unwrap();
        cb.add_net(
            "n2",
            cb.cell_term(u2, "Y").unwrap(),
            [cb.cell_term(u1, "A").unwrap()],
        )
        .unwrap();
        let err = cb.finish().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle(_)));
    }

    #[test]
    fn dff_breaks_cycles() {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let dff = lib.kind_by_name("DFF").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let clk = cb.add_input_pad("clk");
        let u1 = cb.add_cell("u1", inv);
        let ff = cb.add_cell("ff", dff);
        cb.add_net("ck", cb.pad_term(clk), [cb.cell_term(ff, "CK").unwrap()])
            .unwrap();
        // inv -> dff.D, dff.Q -> inv: sequential loop, combinationally fine.
        cb.add_net(
            "d",
            cb.cell_term(u1, "Y").unwrap(),
            [cb.cell_term(ff, "D").unwrap()],
        )
        .unwrap();
        cb.add_net(
            "q",
            cb.cell_term(ff, "Q").unwrap(),
            [cb.cell_term(u1, "A").unwrap()],
        )
        .unwrap();
        assert!(cb.finish().is_ok());
    }

    #[test]
    fn diff_pair_checks() {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let u = [
            cb.add_cell("u0", inv),
            cb.add_cell("u1", inv),
            cb.add_cell("u2", inv),
            cb.add_cell("u3", inv),
        ];
        let n1 = cb
            .add_net(
                "p",
                cb.cell_term(u[0], "Y").unwrap(),
                [cb.cell_term(u[2], "A").unwrap()],
            )
            .unwrap();
        let n2 = cb
            .add_net(
                "n",
                cb.cell_term(u[1], "Y").unwrap(),
                [cb.cell_term(u[3], "A").unwrap()],
            )
            .unwrap();
        assert_eq!(
            cb.mark_diff_pair(n1, n1),
            Err(NetlistError::DiffPairSelf(n1))
        );
        cb.mark_diff_pair(n1, n2).unwrap();
        assert_eq!(
            cb.mark_diff_pair(n1, n2),
            Err(NetlistError::DiffPairReused(n1))
        );
        let circuit = cb.finish().unwrap();
        assert_eq!(circuit.diff_partner(n1), Some(n2));
        assert_eq!(circuit.diff_partner(n2), Some(n1));
    }

    #[test]
    fn wide_net_records_width() {
        let lib = CellLibrary::ecl();
        let drv = lib.kind_by_name("CLKDRV").unwrap();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let u1 = cb.add_cell("u1", drv);
        let u2 = cb.add_cell("u2", inv);
        let id = cb
            .add_wide_net(
                "clk",
                cb.cell_term(u1, "Y").unwrap(),
                [cb.cell_term(u2, "A").unwrap()],
                2,
            )
            .unwrap();
        let circuit = cb.finish().unwrap();
        assert_eq!(circuit.net(id).width_pitches(), 2);
    }

    #[test]
    fn term_name_is_readable() {
        let circuit = two_inv_chain().finish().unwrap();
        let n2 = circuit.net(NetId::new(1));
        assert_eq!(circuit.term_name(n2.driver()), "u1/Y");
        assert_eq!(circuit.term_name(n2.sinks()[0]), "u2/A");
    }
}
