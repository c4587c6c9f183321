//! The `.bgrn` netlist format.
//!
//! Line-oriented, whitespace-separated, `#` comments:
//!
//! ```text
//! bgr-netlist v1
//! kind INV width 3 tf 2.5 td 0.45
//!   in A cap 5 offset 0 access both
//!   out Y offset 2
//!   arc A Y 60
//! end
//! kind FEED1 width 1 tf 0 td 0 feed 1
//! end
//! pad in a
//! pad out y
//! cell u1 INV
//! net n0 width 1 pad:a u1.A       # first terminal is the driver
//! net n1 width 1 u1.Y pad:y
//! pair n0 n1                      # differential pairs (optional)
//! ```
//!
//! Identifiers (kind/cell/pad/net/pin names) must not contain
//! whitespace, `.`, `:` or `#`.

use std::collections::HashMap;

use bgr_netlist::{
    AccessSide, CellId, CellKind, CellLibrary, Circuit, CircuitBuilder, NetId, PadId, TermDir,
    TermId, TermOwner,
};

use crate::error::ParseError;

fn check_name(name: &str) -> &str {
    assert!(
        !name.is_empty()
            && !name
                .chars()
                .any(|c| c.is_whitespace() || c == '.' || c == ':' || c == '#'),
        "identifier `{name}` contains characters the .bgrn format reserves"
    );
    name
}

fn access_str(a: AccessSide) -> &'static str {
    match a {
        AccessSide::Top => "top",
        AccessSide::Bottom => "bottom",
        AccessSide::Both => "both",
    }
}

/// Serializes a circuit (library + instances) to `.bgrn` text.
///
/// # Panics
///
/// Panics if any name contains characters the format reserves
/// (whitespace, `.`, `:`, `#`).
pub fn write_netlist(circuit: &Circuit) -> String {
    let mut out = String::from("bgr-netlist v1\n");
    for kind in circuit.library().kinds() {
        out.push_str(&format!(
            "kind {} width {} tf {} td {}",
            check_name(kind.name()),
            kind.width_pitches(),
            kind.fanin_delay_ps_per_ff(),
            kind.load_delay_ps_per_ff()
        ));
        if kind.is_sequential() {
            out.push_str(" sequential");
        }
        if kind.feed_slots() > 0 {
            out.push_str(&format!(" feed {}", kind.feed_slots()));
        }
        out.push('\n');
        for t in kind.terms() {
            match t.dir {
                TermDir::Input => out.push_str(&format!(
                    "  in {} cap {} offset {} access {}\n",
                    check_name(&t.name),
                    t.fanin_ff,
                    t.offset_pitches,
                    access_str(t.access)
                )),
                TermDir::Output => out.push_str(&format!(
                    "  out {} offset {} access {}\n",
                    check_name(&t.name),
                    t.offset_pitches,
                    access_str(t.access)
                )),
            }
        }
        for arc in kind.arcs() {
            out.push_str(&format!(
                "  arc {} {} {}\n",
                kind.terms()[arc.from].name,
                kind.terms()[arc.to].name,
                arc.intrinsic_ps
            ));
        }
        out.push_str("end\n");
    }
    for pad in circuit.pads() {
        let dir = match pad.dir() {
            TermDir::Input => "in",
            TermDir::Output => "out",
        };
        out.push_str(&format!("pad {dir} {}\n", check_name(pad.name())));
    }
    for cell in circuit.cells() {
        out.push_str(&format!(
            "cell {} {}\n",
            check_name(cell.name()),
            circuit.library().kind(cell.kind()).name()
        ));
    }
    let term_ref = |t: TermId| -> String {
        match circuit.term(t).owner() {
            TermOwner::Pad(p) => format!("pad:{}", circuit.pad(p).name()),
            TermOwner::Cell { cell, pin } => {
                let c = circuit.cell(cell);
                format!(
                    "{}.{}",
                    c.name(),
                    circuit.library().kind(c.kind()).terms()[pin].name
                )
            }
        }
    };
    for net in circuit.nets() {
        out.push_str(&format!(
            "net {} width {} {}",
            check_name(net.name()),
            net.width_pitches(),
            term_ref(net.driver())
        ));
        for &s in net.sinks() {
            out.push(' ');
            out.push_str(&term_ref(s));
        }
        out.push('\n');
    }
    for &(a, b) in circuit.diff_pairs() {
        out.push_str(&format!(
            "pair {} {}\n",
            circuit.net(a).name(),
            circuit.net(b).name()
        ));
    }
    out
}

struct Lines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines().enumerate(),
        }
    }

    /// Next non-empty, non-comment line as `(1-based line no, tokens)`.
    fn next_tokens(&mut self) -> Option<(usize, Vec<&'a str>)> {
        for (i, raw) in self.iter.by_ref() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            return Some((i + 1, line.split_whitespace().collect()));
        }
        None
    }
}

fn parse_f64(ln: usize, s: &str) -> Result<f64, ParseError> {
    s.parse()
        .map_err(|_| ParseError::new(ln, format!("expected a number, got `{s}`")))
}

fn parse_u32(ln: usize, s: &str) -> Result<u32, ParseError> {
    s.parse()
        .map_err(|_| ParseError::new(ln, format!("expected an integer, got `{s}`")))
}

fn parse_access(ln: usize, s: &str) -> Result<AccessSide, ParseError> {
    match s {
        "top" => Ok(AccessSide::Top),
        "bottom" => Ok(AccessSide::Bottom),
        "both" => Ok(AccessSide::Both),
        _ => Err(ParseError::new(ln, format!("unknown access side `{s}`"))),
    }
}

/// Keyword-value scanner over the tail of a token list.
fn kv<'a>(tokens: &[&'a str]) -> HashMap<&'a str, &'a str> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        map.insert(tokens[i], tokens[i + 1]);
        i += 2;
    }
    map
}

/// Parses `.bgrn` text back into a validated [`Circuit`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input,
/// unknown references, or netlist-validation failures.
pub fn parse_netlist(text: &str) -> Result<Circuit, ParseError> {
    let circuit = read_netlist(text)?;
    circuit
        .validate()
        .map_err(|e| ParseError::new(0, e.to_string()))?;
    Ok(circuit)
}

/// [`parse_netlist`] without the final [`Circuit::validate`]: for the
/// checkpoint reader, whose `SessionDesign::new` validates the design.
pub(crate) fn read_netlist(text: &str) -> Result<Circuit, ParseError> {
    let mut lines = Lines::new(text);
    match lines.next_tokens() {
        Some((_, t)) if t == ["bgr-netlist", "v1"] => {}
        Some((ln, _)) => return Err(ParseError::new(ln, "expected header `bgr-netlist v1`")),
        None => return Err(ParseError::new(0, "empty input")),
    }
    let mut library = CellLibrary::new();
    let mut builder: Option<CircuitBuilder> = None;
    let mut cells: HashMap<String, CellId> = HashMap::new();
    let mut pads: HashMap<String, PadId> = HashMap::new();
    let mut nets: HashMap<String, NetId> = HashMap::new();

    while let Some((ln, t)) = lines.next_tokens() {
        match t[0] {
            "kind" => {
                if builder.is_some() {
                    return Err(ParseError::new(ln, "kinds must precede cells/pads/nets"));
                }
                if t.len() < 8 {
                    return Err(ParseError::new(ln, "kind header too short"));
                }
                let name = t[1];
                let opts = kv(&t[2..]);
                let width = parse_u32(ln, opts.get("width").copied().unwrap_or("1"))?;
                let tf = parse_f64(ln, opts.get("tf").copied().unwrap_or("0"))?;
                let td = parse_f64(ln, opts.get("td").copied().unwrap_or("0"))?;
                let mut kb = CellKind::builder(name, width)
                    .fanin_delay(tf)
                    .load_delay(td);
                if t.contains(&"sequential") {
                    kb = kb.sequential();
                }
                if let Some(f) = opts.get("feed") {
                    kb = kb.feed(parse_u32(ln, f)?);
                }
                // Body lines until `end`.
                loop {
                    let Some((bln, bt)) = lines.next_tokens() else {
                        return Err(ParseError::new(
                            0,
                            format!("kind {name} not closed by `end`"),
                        ));
                    };
                    match bt[0] {
                        "end" => break,
                        "in" => {
                            if bt.len() < 2 {
                                return Err(ParseError::new(bln, "pin line too short"));
                            }
                            let opts = kv(&bt[2..]);
                            let cap = parse_f64(bln, opts.get("cap").copied().unwrap_or("0"))?;
                            let off = parse_u32(bln, opts.get("offset").copied().unwrap_or("0"))?;
                            kb = kb.input(bt[1], cap, off);
                            if let Some(a) = opts.get("access") {
                                kb = kb.access(parse_access(bln, a)?);
                            }
                        }
                        "out" => {
                            if bt.len() < 2 {
                                return Err(ParseError::new(bln, "pin line too short"));
                            }
                            let opts = kv(&bt[2..]);
                            let off = parse_u32(bln, opts.get("offset").copied().unwrap_or("0"))?;
                            kb = kb.output(bt[1], off);
                            if let Some(a) = opts.get("access") {
                                kb = kb.access(parse_access(bln, a)?);
                            }
                        }
                        "arc" => {
                            if bt.len() != 4 {
                                return Err(ParseError::new(bln, "arc takes `arc FROM TO T0`"));
                            }
                            kb = kb.arc(bt[1], bt[2], parse_f64(bln, bt[3])?);
                        }
                        other => {
                            return Err(ParseError::new(
                                bln,
                                format!("unexpected `{other}` inside kind body"),
                            ))
                        }
                    }
                }
                library.add(kb.build());
            }
            "pad" => {
                let cb = builder.get_or_insert_with(|| CircuitBuilder::new(library.clone()));
                if t.len() != 3 {
                    return Err(ParseError::new(ln, "pad takes `pad in|out NAME`"));
                }
                let id = match t[1] {
                    "in" => cb.add_input_pad(t[2]),
                    "out" => cb.add_output_pad(t[2]),
                    other => return Err(ParseError::new(ln, format!("unknown pad dir `{other}`"))),
                };
                if pads.insert(t[2].to_owned(), id).is_some() {
                    return Err(ParseError::new(ln, format!("duplicate pad `{}`", t[2])));
                }
            }
            "cell" => {
                let cb = builder.get_or_insert_with(|| CircuitBuilder::new(library.clone()));
                if t.len() != 3 {
                    return Err(ParseError::new(ln, "cell takes `cell NAME KIND`"));
                }
                let kind = cb
                    .library()
                    .kind_by_name(t[2])
                    .ok_or_else(|| ParseError::new(ln, format!("unknown kind `{}`", t[2])))?;
                let id = cb.add_cell(t[1], kind);
                if cells.insert(t[1].to_owned(), id).is_some() {
                    return Err(ParseError::new(ln, format!("duplicate cell `{}`", t[1])));
                }
            }
            "net" => {
                let cb = builder
                    .as_mut()
                    .ok_or_else(|| ParseError::new(ln, "net before any pad/cell"))?;
                if t.len() < 5 || t[2] != "width" {
                    return Err(ParseError::new(
                        ln,
                        "net takes `net NAME width W DRIVER SINK...`",
                    ));
                }
                let width = parse_u32(ln, t[3])?;
                let resolve =
                    |ln: usize, s: &str, cb: &CircuitBuilder| -> Result<TermId, ParseError> {
                        if let Some(p) = s.strip_prefix("pad:") {
                            let id = pads
                                .get(p)
                                .ok_or_else(|| ParseError::new(ln, format!("unknown pad `{p}`")))?;
                            Ok(cb.pad_term(*id))
                        } else {
                            let (cell, pin) = s.split_once('.').ok_or_else(|| {
                                ParseError::new(
                                    ln,
                                    format!("terminal `{s}` is not CELL.PIN or pad:NAME"),
                                )
                            })?;
                            let id = cells.get(cell).ok_or_else(|| {
                                ParseError::new(ln, format!("unknown cell `{cell}`"))
                            })?;
                            cb.cell_term(*id, pin)
                                .map_err(|e| ParseError::new(ln, e.to_string()))
                        }
                    };
                let driver = resolve(ln, t[4], cb)?;
                let mut sinks = Vec::new();
                for s in &t[5..] {
                    sinks.push(resolve(ln, s, cb)?);
                }
                let id = cb
                    .add_wide_net(t[1], driver, sinks, width)
                    .map_err(|e| ParseError::new(ln, e.to_string()))?;
                if nets.insert(t[1].to_owned(), id).is_some() {
                    return Err(ParseError::new(ln, format!("duplicate net `{}`", t[1])));
                }
            }
            "pair" => {
                let cb = builder
                    .as_mut()
                    .ok_or_else(|| ParseError::new(ln, "pair before any net"))?;
                if t.len() != 3 {
                    return Err(ParseError::new(ln, "pair takes `pair NETA NETB`"));
                }
                let a = nets
                    .get(t[1])
                    .ok_or_else(|| ParseError::new(ln, format!("unknown net `{}`", t[1])))?;
                let b = nets
                    .get(t[2])
                    .ok_or_else(|| ParseError::new(ln, format!("unknown net `{}`", t[2])))?;
                cb.mark_diff_pair(*a, *b)
                    .map_err(|e| ParseError::new(ln, e.to_string()))?;
            }
            other => return Err(ParseError::new(ln, format!("unknown directive `{other}`"))),
        }
    }
    Ok(builder
        .unwrap_or_else(|| CircuitBuilder::new(library))
        .finish_unvalidated())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_circuit() -> Circuit {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let dbuf = lib.kind_by_name("DBUF").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let b = cb.add_input_pad("b");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let tx = cb.add_cell("tx", dbuf);
        let rx = cb.add_cell("rx", dbuf);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(tx, "A").unwrap()])
            .unwrap();
        cb.add_net("nb", cb.pad_term(b), [cb.cell_term(tx, "AN").unwrap()])
            .unwrap();
        let p = cb
            .add_net(
                "pp",
                cb.cell_term(tx, "Y").unwrap(),
                [cb.cell_term(rx, "A").unwrap()],
            )
            .unwrap();
        let n = cb
            .add_net(
                "pn",
                cb.cell_term(tx, "YN").unwrap(),
                [cb.cell_term(rx, "AN").unwrap()],
            )
            .unwrap();
        cb.mark_diff_pair(p, n).unwrap();
        cb.add_wide_net(
            "w2",
            cb.cell_term(rx, "Y").unwrap(),
            [cb.cell_term(u1, "A").unwrap()],
            2,
        )
        .unwrap();
        cb.add_net("ny", cb.cell_term(u1, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        cb.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let circuit = demo_circuit();
        let text = write_netlist(&circuit);
        let back = parse_netlist(&text).unwrap();
        assert_eq!(back.cells().len(), circuit.cells().len());
        assert_eq!(back.nets().len(), circuit.nets().len());
        assert_eq!(back.pads().len(), circuit.pads().len());
        assert_eq!(back.diff_pairs().len(), 1);
        for (a, b) in circuit.nets().iter().zip(back.nets()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.width_pitches(), b.width_pitches());
            assert_eq!(a.sinks().len(), b.sinks().len());
        }
        // Library survives with timing parameters intact.
        let inv_a = circuit
            .library()
            .kind(circuit.library().kind_by_name("INV").unwrap());
        let inv_b = back
            .library()
            .kind(back.library().kind_by_name("INV").unwrap());
        assert_eq!(inv_a.fanin_delay_ps_per_ff(), inv_b.fanin_delay_ps_per_ff());
        assert_eq!(inv_a.arcs().len(), inv_b.arcs().len());
        // Second roundtrip is byte-identical (canonical form).
        assert_eq!(text, write_netlist(&back));
    }

    #[test]
    fn header_is_required() {
        let err = parse_netlist("cell u1 INV\n").unwrap_err();
        assert!(err.message.contains("header"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unknown_references_are_reported_with_lines() {
        let text = "bgr-netlist v1\nkind INV width 3 tf 1 td 1\n  in A cap 1 offset 0 access both\n  out Y offset 2\nend\ncell u1 NOPE\n";
        let err = parse_netlist(text).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("NOPE"));
    }

    #[test]
    fn bad_terminal_syntax_is_an_error() {
        let text = "bgr-netlist v1\nkind INV width 3 tf 1 td 1\n  in A cap 1 offset 0 access both\n  out Y offset 2\nend\ncell u1 INV\ncell u2 INV\nnet n width 1 u1Y u2.A\n";
        let err = parse_netlist(text).unwrap_err();
        assert!(err.message.contains("CELL.PIN"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let circuit = demo_circuit();
        let mut text = String::from("# a comment\n\n");
        text.push_str(&write_netlist(&circuit));
        text.push_str("\n# trailing\n");
        assert!(parse_netlist(&text).is_ok());
    }

    #[test]
    fn validation_failures_surface() {
        // Driver is an input pin -> netlist validation rejects at finish.
        let text = "bgr-netlist v1\nkind INV width 3 tf 1 td 1\n  in A cap 1 offset 0 access both\n  out Y offset 2\nend\ncell u1 INV\ncell u2 INV\nnet n width 1 u1.A u2.A\n";
        let err = parse_netlist(text).unwrap_err();
        assert!(err.message.contains("driven"));
    }
}
