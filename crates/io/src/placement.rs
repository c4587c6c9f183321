//! The `.bgrp` placement format.
//!
//! ```text
//! bgr-placement v1
//! geometry pitch 8 row_height 160 track_pitch 8
//! rows 2
//! place u1 row 0 x 0
//! place u2 row 1 x 4
//! pad a bottom 0
//! pad y top 6
//! ```
//!
//! Cells and pads are referenced by name, so a placement file is only
//! meaningful together with its circuit (`.bgrn`).

use std::collections::HashMap;

use bgr_layout::{Geometry, PadSide, Placement, PlacementBuilder};
use bgr_netlist::{CellId, Circuit, PadId};

use crate::error::ParseError;

/// Serializes a placement to `.bgrp` text (cells in row order).
pub fn write_placement(circuit: &Circuit, placement: &Placement) -> String {
    let g = placement.geometry();
    let mut out = String::from("bgr-placement v1\n");
    out.push_str(&format!(
        "geometry pitch {} row_height {} track_pitch {}\n",
        g.pitch_um, g.row_height_um, g.track_pitch_um
    ));
    out.push_str(&format!("rows {}\n", placement.num_rows()));
    for (r, row) in placement.rows().iter().enumerate() {
        for pc in row.cells() {
            out.push_str(&format!(
                "place {} row {} x {}\n",
                circuit.cell(pc.cell).name(),
                r,
                pc.x
            ));
        }
    }
    for (i, pad) in circuit.pads().iter().enumerate() {
        let (side, x) = placement.pad_loc(PadId::new(i));
        let side = match side {
            PadSide::Bottom => "bottom",
            PadSide::Top => "top",
        };
        out.push_str(&format!("pad {} {side} {x}\n", pad.name()));
    }
    out
}

/// Parses `.bgrp` text against its circuit.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, unknown cell/pad names,
/// or placement-validation failures (overlaps, unplaced cells).
pub fn parse_placement(circuit: &Circuit, text: &str) -> Result<Placement, ParseError> {
    let placement = read_placement(circuit, text)?;
    placement
        .validate(circuit)
        .map_err(|e| ParseError::new(0, e.to_string()))?;
    Ok(placement)
}

/// [`parse_placement`] without the final [`Placement::validate`]: for
/// the checkpoint reader, whose `SessionDesign::new` validates the
/// design.
pub(crate) fn read_placement(circuit: &Circuit, text: &str) -> Result<Placement, ParseError> {
    let cells: HashMap<&str, (CellId, u32)> = circuit
        .cell_ids()
        .map(|id| {
            let c = circuit.cell(id);
            (
                c.name(),
                (id, circuit.library().kind(c.kind()).width_pitches()),
            )
        })
        .collect();
    let pads: HashMap<&str, PadId> = circuit
        .pads()
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name(), PadId::new(i)))
        .collect();

    let mut geometry = Geometry::default();
    let mut builder: Option<PlacementBuilder> = None;
    let mut header_seen = false;
    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let t: Vec<&str> = line.split_whitespace().collect();
        if !header_seen {
            if t != ["bgr-placement", "v1"] {
                return Err(ParseError::new(ln, "expected header `bgr-placement v1`"));
            }
            header_seen = true;
            continue;
        }
        match t[0] {
            "geometry" => {
                for pair in t[1..].chunks(2) {
                    let [k, v] = pair else {
                        return Err(ParseError::new(ln, "geometry takes key/value pairs"));
                    };
                    let val: f64 = v
                        .parse()
                        .map_err(|_| ParseError::new(ln, format!("bad number `{v}`")))?;
                    match *k {
                        "pitch" => geometry.pitch_um = val,
                        "row_height" => geometry.row_height_um = val,
                        "track_pitch" => geometry.track_pitch_um = val,
                        other => {
                            return Err(ParseError::new(
                                ln,
                                format!("unknown geometry key `{other}`"),
                            ))
                        }
                    }
                }
            }
            "rows" => {
                let n: usize = t
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::new(ln, "rows takes a count"))?;
                builder = Some(PlacementBuilder::new(geometry, n));
            }
            "place" => {
                let pb = builder
                    .as_mut()
                    .ok_or_else(|| ParseError::new(ln, "place before `rows`"))?;
                if t.len() != 6 || t[2] != "row" || t[4] != "x" {
                    return Err(ParseError::new(ln, "place takes `place CELL row R x X`"));
                }
                let &(id, width) = cells
                    .get(t[1])
                    .ok_or_else(|| ParseError::new(ln, format!("unknown cell `{}`", t[1])))?;
                let row: usize = t[3]
                    .parse()
                    .map_err(|_| ParseError::new(ln, "bad row index"))?;
                let x: i32 = t[5]
                    .parse()
                    .map_err(|_| ParseError::new(ln, "bad x coordinate"))?;
                pb.place_at(row, id, x, width)
                    .map_err(|e| ParseError::new(ln, e.to_string()))?;
            }
            "pad" => {
                let pb = builder
                    .as_mut()
                    .ok_or_else(|| ParseError::new(ln, "pad before `rows`"))?;
                if t.len() != 4 {
                    return Err(ParseError::new(ln, "pad takes `pad NAME bottom|top X`"));
                }
                let id = pads
                    .get(t[1])
                    .ok_or_else(|| ParseError::new(ln, format!("unknown pad `{}`", t[1])))?;
                let x: i32 = t[3]
                    .parse()
                    .map_err(|_| ParseError::new(ln, "bad x coordinate"))?;
                match t[2] {
                    "bottom" => pb.place_pad_bottom(*id, x),
                    "top" => pb.place_pad_top(*id, x),
                    other => {
                        return Err(ParseError::new(ln, format!("unknown pad side `{other}`")))
                    }
                }
            }
            other => return Err(ParseError::new(ln, format!("unknown directive `{other}`"))),
        }
    }
    Ok(builder
        .ok_or_else(|| ParseError::new(0, "missing `rows` directive"))?
        .finish_unvalidated())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_netlist::{CellLibrary, CircuitBuilder};

    fn demo() -> (Circuit, Placement) {
        let lib = CellLibrary::ecl();
        let inv = lib.kind_by_name("INV").unwrap();
        let mut cb = CircuitBuilder::new(lib);
        let a = cb.add_input_pad("a");
        let y = cb.add_output_pad("y");
        let u1 = cb.add_cell("u1", inv);
        let u2 = cb.add_cell("u2", inv);
        cb.add_net("n0", cb.pad_term(a), [cb.cell_term(u1, "A").unwrap()])
            .unwrap();
        cb.add_net(
            "n1",
            cb.cell_term(u1, "Y").unwrap(),
            [cb.cell_term(u2, "A").unwrap()],
        )
        .unwrap();
        cb.add_net("n2", cb.cell_term(u2, "Y").unwrap(), [cb.pad_term(y)])
            .unwrap();
        let circuit = cb.finish().unwrap();
        let mut pb = PlacementBuilder::new(Geometry::default(), 2);
        pb.append_with_width(0, u1, 3);
        pb.append_with_width(1, u2, 3);
        pb.place_pad_bottom(a, 0);
        pb.place_pad_top(y, 5);
        let placement = pb.finish(&circuit).unwrap();
        (circuit, placement)
    }

    #[test]
    fn roundtrip_preserves_positions() {
        let (circuit, placement) = demo();
        let text = write_placement(&circuit, &placement);
        let back = parse_placement(&circuit, &text).unwrap();
        assert_eq!(back.num_rows(), placement.num_rows());
        assert_eq!(back.width_pitches(), placement.width_pitches());
        for id in circuit.cell_ids() {
            assert_eq!(back.cell_loc(id), placement.cell_loc(id));
        }
        for i in 0..circuit.pads().len() {
            assert_eq!(
                back.pad_loc(bgr_netlist::PadId::new(i)),
                placement.pad_loc(bgr_netlist::PadId::new(i))
            );
        }
        assert_eq!(text, write_placement(&circuit, &back));
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let (circuit, placement) = demo();
        let text = write_placement(&circuit, &placement).replace("place u2", "place zz");
        let err = parse_placement(&circuit, &text).unwrap_err();
        assert!(err.message.contains("zz"));
    }

    #[test]
    fn geometry_is_parsed() {
        let (circuit, placement) = demo();
        let mut text = write_placement(&circuit, &placement);
        text = text.replace("pitch 8", "pitch 10");
        let back = parse_placement(&circuit, &text).unwrap();
        assert_eq!(back.geometry().pitch_um, 10.0);
    }

    #[test]
    fn validation_failures_surface() {
        let (circuit, placement) = demo();
        // Move u2 onto u1: overlap.
        let text = write_placement(&circuit, &placement)
            .replace("place u2 row 1 x 0", "place u2 row 0 x 1");
        let err = parse_placement(&circuit, &text).unwrap_err();
        assert!(err.message.contains("overlap"));
    }
}
