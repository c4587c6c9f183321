//! Text interchange formats and SVG rendering for the `bgr` workspace.
//!
//! Three line-oriented text formats cover the router's inputs, plus an
//! SVG renderer for routed layouts:
//!
//! * **netlist** (`.bgrn`): cell library + circuit (cells, pads, nets,
//!   differential pairs, multi-pitch widths) —
//!   [`write_netlist`] / [`parse_netlist`];
//! * **placement** (`.bgrp`): geometry, rows, cell and pad positions —
//!   [`write_placement`] / [`parse_placement`];
//! * **constraints** (`.bgrt`): path constraints `(S, T, τ)` —
//!   [`write_constraints`] / [`parse_constraints`];
//! * **SVG**: [`render_svg`] draws rows, cells, feedthroughs and every
//!   routed trunk/branch of a [`bgr_core::RoutingResult`];
//! * **trace** (`.jsonl`): [`write_trace_jsonl`] serializes a
//!   [`bgr_core::RouteTrace`] one JSON record per line;
//! * **checkpoint** (`.bgrc`): versioned serialization of a suspended
//!   route session's [`bgr_core::EngineSnapshot`] —
//!   [`write_checkpoint`] / [`parse_checkpoint`].
//!
//! Checkpoints, the crash journal and the `bgr-net` wire payloads share
//! one set of byte-level conventions (FNV-1a 64, floats as `to_bits`
//! hex, `key value` lines, length-prefixed blocks, no trailing bytes),
//! kept in [`codec`].
//!
//! All writers round-trip: `parse(write(x))` reconstructs an equivalent
//! object (see the crate's property tests).
//!
//! # Example
//!
//! ```
//! use bgr_io::{parse_netlist, write_netlist};
//! use bgr_netlist::{CellLibrary, CircuitBuilder};
//!
//! let lib = CellLibrary::ecl();
//! let inv = lib.kind_by_name("INV").unwrap();
//! let mut cb = CircuitBuilder::new(lib);
//! let a = cb.add_input_pad("a");
//! let u = cb.add_cell("u1", inv);
//! let y = cb.add_output_pad("y");
//! cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u, "A")?])?;
//! cb.add_net("n1", cb.cell_term(u, "Y")?, [cb.pad_term(y)])?;
//! let circuit = cb.finish()?;
//!
//! let text = write_netlist(&circuit);
//! let back = parse_netlist(&text)?;
//! assert_eq!(back.cells().len(), 1);
//! assert_eq!(back.nets().len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checkpoint;
pub mod codec;
pub mod constraints;
pub mod error;
pub mod journal;
pub mod json;
pub mod netlist;
pub mod placement;
pub mod svg;
pub mod trace;

pub use checkpoint::{
    parse_checkpoint, parse_checkpoint_with_design, parse_checkpoint_with_prefix,
    reconfigure_checkpoint, splice_checkpoint, write_checkpoint,
};
pub use constraints::{parse_constraints, write_constraints};
pub use error::ParseError;
pub use journal::{
    encode_journal_record, read_journal, FileSink, JournalEntry, JournalError, JournalSink,
    JournalTail, JournalWriter, JOURNAL_MAGIC,
};
pub use json::{escape_json, Json, JsonError};
pub use netlist::{parse_netlist, write_netlist};
pub use placement::{parse_placement, write_placement};
pub use svg::render_svg;
pub use trace::{
    deterministic_event_lines, deterministic_lines, routing_event_lines, segment_seq_span,
    trace_divergence, write_event_lines, write_trace_jsonl, TraceStats,
};
