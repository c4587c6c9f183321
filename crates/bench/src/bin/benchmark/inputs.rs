//! Input generation: the paper-scale reconstructions, passed to the
//! program as `.bgrn`/`.bgrp`/`.bgrt` text with every identifier renamed
//! from the run seed.
//!
//! The routing *problem* is fixed per design (the `bgr_gen` Table 1
//! reconstruction), because constrained route cost is chaotic in the
//! design: across five C2-scale generator seeds one route took 8–16 s,
//! and even permuting net order moved a C1-scale route by ±25%. Renaming
//! keeps ids, hence the route, unchanged, so timings stay comparable
//! across seeds while the program still reads seed-specific input, and
//! the selection-log hash doubles as a check that routing ignores names.

use std::collections::HashMap;

use bgr_gen::{custom, GenParams, PlacementStyle};
use bgr_io::{
    parse_constraints, parse_netlist, parse_placement, write_constraints, write_netlist,
    write_placement,
};
use bgr_layout::{Geometry, Placement};
use bgr_netlist::{Circuit, SplitMix64};
use bgr_timing::PathConstraint;

/// One routable design as the program receives it.
#[derive(Debug, Clone)]
pub struct Design {
    pub name: String,
    pub circuit: Circuit,
    pub placement: Placement,
    pub constraints: Vec<PathConstraint>,
}

/// Circuit scale of the Table 1 reconstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    C1,
    C2,
    C3,
}

/// The generator parameters of `bgr_gen::c1`/`c2`/`c3`, with the
/// generator seed exposed (those constructors fix it to `0xC1`/`0xC2`/
/// `0xC3`).
pub fn params(scale: Scale, design_seed: u64) -> GenParams {
    let geometry = Geometry {
        track_pitch_um: 4.0,
        ..Geometry::default()
    };
    let base = GenParams {
        seed: design_seed,
        logic_cells: 700,
        depth: 14,
        rows: 10,
        ff_fraction: 0.15,
        diff_pairs: 6,
        pads: 16,
        feeds_per_row: 10,
        global_fanin: 0.25,
        num_constraints: 18,
        wire_budget: 0.30,
        geometry,
    };
    match scale {
        Scale::C1 => base,
        Scale::C2 => GenParams {
            logic_cells: 1400,
            depth: 18,
            rows: 14,
            diff_pairs: 10,
            pads: 24,
            feeds_per_row: 12,
            num_constraints: 28,
            ..base
        },
        Scale::C3 => GenParams {
            logic_cells: 2600,
            depth: 22,
            rows: 18,
            ff_fraction: 0.14,
            diff_pairs: 14,
            pads: 32,
            feeds_per_row: 14,
            num_constraints: 40,
            ..base
        },
    }
}

/// Builds a design (P1 placement, constraints anchored by the reference
/// route) and hands it over as text renamed under `seed`.
pub fn build(name: &str, params: GenParams, seed: u64) -> Design {
    let ds = custom(name, params, PlacementStyle::EvenFeed);
    let circuit = &ds.design.circuit;
    let mut names = Renamer::new(seed);
    let netlist = names.netlist(&write_netlist(circuit));
    let placement = names.other(&write_placement(circuit, &ds.placement));
    let constraints = names.other(&write_constraints(circuit, &ds.design.constraints));
    let circuit = parse_netlist(&netlist).expect("renamed netlist parses");
    Design {
        name: name.to_owned(),
        placement: parse_placement(&circuit, &placement).expect("renamed placement parses"),
        constraints: parse_constraints(&circuit, &constraints).expect("renamed constraints parse"),
        circuit,
    }
}

/// Seed-keyed identifier renaming. Name `i` of a class becomes
/// `<class><hex(i·odd ⊕ key)>`: multiplication by an odd number and xor
/// are both bijections on `u64`, so new names are unique by construction.
struct Renamer {
    odd: u64,
    key: u64,
    map: HashMap<(char, String), String>,
}

impl Renamer {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self {
            odd: rng.next_u64() | 1,
            key: rng.next_u64(),
            map: HashMap::new(),
        }
    }

    /// Declares `old` (first sight) and returns its new name.
    fn declare(&mut self, class: char, old: &str) -> String {
        let i = self.map.len() as u64;
        let new = format!("{class}{:016x}", i.wrapping_mul(self.odd) ^ self.key);
        self.map.insert((class, old.to_owned()), new.clone());
        new
    }

    fn get(&self, class: char, old: &str) -> &str {
        self.map
            .get(&(class, old.to_owned()))
            .unwrap_or_else(|| panic!("identifier {old:?} used before declaration"))
    }

    /// `pad:<pad>` or `<cell>.<pin>`.
    fn term(&self, t: &str) -> String {
        match t.strip_prefix("pad:") {
            Some(pad) => format!("pad:{}", self.get('p', pad)),
            None => {
                let (cell, pin) = t.split_once('.').expect("cell terminal is cell.pin");
                format!("{}.{pin}", self.get('c', cell))
            }
        }
    }

    /// Renames pads, cells and nets where the netlist declares and
    /// references them; kind blocks pass through.
    fn netlist(&mut self, text: &str) -> String {
        self.rewrite(text, |r, tok| match tok[0].as_str() {
            "pad" => tok[2] = r.declare('p', &tok[2]),
            "cell" => tok[1] = r.declare('c', &tok[1]),
            "net" => {
                tok[1] = r.declare('n', &tok[1]);
                for t in &mut tok[4..] {
                    *t = r.term(t);
                }
            }
            "pair" => {
                for t in &mut tok[1..] {
                    *t = r.get('n', t).to_owned();
                }
            }
            _ => {}
        })
    }

    /// Renames references in placement and constraint text (constraint
    /// names are declared here).
    fn other(&mut self, text: &str) -> String {
        self.rewrite(text, |r, tok| match tok[0].as_str() {
            "place" => tok[1] = r.get('c', &tok[1]).to_owned(),
            "pad" => tok[1] = r.get('p', &tok[1]).to_owned(),
            "constraint" => {
                tok[1] = r.declare('k', &tok[1]);
                tok[3] = r.term(&tok[3]);
                tok[5] = r.term(&tok[5]);
            }
            _ => {}
        })
    }

    /// Applies `f` to the whitespace tokens of every non-blank line (the
    /// formats are token-based, so lines are re-joined with one space).
    fn rewrite(&mut self, text: &str, f: impl Fn(&mut Self, &mut Vec<String>)) -> String {
        let mut out = String::with_capacity(text.len() * 2);
        for line in text.lines() {
            let mut tok: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            if !tok.is_empty() {
                f(self, &mut tok);
            }
            out.push_str(&tok.join(" "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_the_design_and_changes_every_name() {
        let params = GenParams::small(5);
        let a = build("A", params.clone(), 1);
        let b = build("B", params, 2);
        assert_eq!(a.circuit.nets().len(), b.circuit.nets().len());
        assert_eq!(a.constraints.len(), b.constraints.len());
        for (na, nb) in a.circuit.nets().iter().zip(b.circuit.nets()) {
            assert_ne!(na.name(), nb.name());
            assert_eq!(na.sinks().len(), nb.sinks().len());
        }
        for (ca, cb) in a.constraints.iter().zip(&b.constraints) {
            assert_eq!(ca.limit_ps, cb.limit_ps);
        }
    }
}
