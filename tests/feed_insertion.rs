//! Differential test of §4.3 feed-cell insertion on the paper-scale
//! designs: `assign_with_insertion` against a from-scratch reference that
//! re-derives every row's insertion gaps from the cell library after each
//! group and picks every feedthrough window by scanning the whole row.
//! Circuit, placement, the returned `FeedPlan` and the
//! `FeedCellsInserted` events must all be equal, and the chip width must
//! equal the widest row (or pad) recounted from scratch.
//!
//! C3 takes a while in a debug build; run the whole file with
//! `cargo test --release --test feed_insertion`.

use std::collections::HashMap;

use bgr::gen::circuits::{c1_params, c2_params, c3_params};
use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::layout::{FlagPolicy, Placement, SlotId, SlotRange, SlotStore};
use bgr::netlist::{CellId, Circuit, NetId, PadId};
use bgr::router::assign::{mean_terminal_x, rows_to_cross, AssignOutcome, Shortfall};
use bgr::router::diffpair::PairMap;
use bgr::router::feedcell::{assign_with_insertion, FeedPlan};
use bgr::router::{CollectingProbe, TraceEvent};

/// Reference window search: every start of the row, first window of
/// smallest distance between its doubled center and `2 · target`.
fn full_scan(
    slots: &SlotStore,
    row: usize,
    width: u32,
    target: i32,
    policy: FlagPolicy,
) -> Option<SlotRange> {
    let w = width as usize;
    let slot = |i: usize| SlotId {
        row: row as u32,
        idx: i as u32,
    };
    let eligible = |start: usize| {
        start + w <= slots.slots_in_row(row)
            && (0..w).all(|k| {
                let flag = slots.flag(slot(start + k));
                slots.occupant(slot(start + k)).is_none()
                    && (k == 0
                        || slots.x_of(slot(start + k)) == slots.x_of(slot(start + k - 1)) + 1)
                    && match policy {
                        FlagPolicy::Ignore => true,
                        FlagPolicy::Respect if w > 1 => flag == Some(width),
                        FlagPolicy::Respect => flag.is_none_or(|f| f <= 1),
                    }
            })
    };
    let mut best: Option<(i64, usize)> = None;
    for start in (0..slots.slots_in_row(row)).filter(|&s| eligible(s)) {
        let center2 = slots.x_of(slot(start)) as i64 + slots.x_of(slot(start + w - 1)) as i64;
        let dist = (center2 - 2 * target as i64).abs();
        if best.is_none_or(|(d, _)| dist < d) {
            best = Some((dist, start));
        }
    }
    best.map(|(_, start)| SlotRange {
        row: row as u32,
        start: start as u32,
        len: width,
    })
}

/// Reference §3.1 assignment pass, with [`full_scan`] as the search.
fn assign(
    circuit: &Circuit,
    placement: &Placement,
    slots: &mut SlotStore,
    order: &[NetId],
    pairs: &PairMap,
    policy: FlagPolicy,
) -> AssignOutcome {
    let n = circuit.nets().len();
    let mut out = AssignOutcome {
        feeds: vec![Vec::new(); n],
        ranges: vec![Vec::new(); n],
        failures: Vec::new(),
    };
    for &net in order {
        if pairs.is_secondary(net) {
            continue;
        }
        let partner = pairs.partner_of(net);
        let mut rows = rows_to_cross(circuit, placement, net);
        if let Some(p) = partner {
            for r in rows_to_cross(circuit, placement, p) {
                if !rows.contains(&r) {
                    rows.push(r);
                }
            }
            rows.sort_unstable();
        }
        let own_width = circuit.net(net).width_pitches();
        let width = own_width * if partner.is_some() { 2 } else { 1 };
        let mut target = mean_terminal_x(circuit, placement, net);
        if let Some(p) = partner {
            target = (target + mean_terminal_x(circuit, placement, p)) / 2;
        }
        let mut aligned_x: Option<i32> = None;
        for row in rows {
            let range = aligned_x
                .and_then(|x| slots.find_at_x(row, width, x, policy))
                .or_else(|| full_scan(slots, row, width, target, policy));
            match range {
                Some(r) => {
                    slots.occupy(r, net);
                    let x = slots.x_of(SlotId {
                        row: r.row,
                        idx: r.start,
                    });
                    aligned_x.get_or_insert(x);
                    out.feeds[net.index()].push((row, x));
                    out.ranges[net.index()].push(r);
                    if let Some(p) = partner {
                        out.feeds[p.index()].push((row, x + own_width as i32));
                    }
                }
                None => out.failures.push(Shortfall { net, row, width }),
            }
        }
    }
    out
}

/// Reference gap list: looks every cell's kind up in the library.
fn eligible_gaps(circuit: &Circuit, placement: &Placement, row: usize) -> Vec<usize> {
    let cells = placement.rows()[row].cells();
    let is_feed = |i: usize| {
        circuit
            .library()
            .kind(circuit.cell(cells[i].cell).kind())
            .is_feed()
    };
    let mut gaps = vec![0];
    for g in 1..cells.len() {
        if !(is_feed(g - 1) && is_feed(g)) {
            gaps.push(g);
        }
    }
    gaps.push(cells.len());
    gaps.dedup();
    gaps
}

/// Reference insertion of one group; records `(row, x, width)`.
fn insert_group(
    circuit: &mut Circuit,
    placement: &mut Placement,
    row: usize,
    gap: usize,
    w: u32,
    counter: &mut usize,
    events: &mut Vec<(u32, i32, u32)>,
) -> Vec<CellId> {
    let feed_kind = circuit.library().kind_by_name("FEED1").unwrap();
    let cells = placement.rows()[row].cells();
    let x = if gap == 0 {
        0
    } else if gap < cells.len() {
        cells[gap].x
    } else {
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
    let mut ids = Vec::new();
    for k in 0..w {
        let id = circuit.add_feed_cell(format!("feedins{}", *counter), feed_kind);
        *counter += 1;
        placement.insert_cell_at_x(row, id, x + k as i32, 1);
        ids.push(id);
    }
    events.push((row as u32, x, w));
    ids
}

/// Reference assignment with insertion, one group at a time.
fn reference(
    circuit: &mut Circuit,
    placement: &mut Placement,
    order: &[NetId],
    pairs: &PairMap,
    max_iters: usize,
    events: &mut Vec<(u32, i32, u32)>,
) -> FeedPlan {
    let initial_width = placement.width_pitches();
    let mut inserted_cells = 0usize;
    let mut name_counter = 0usize;
    let mut slots = SlotStore::from_placement(circuit, placement);
    let mut outcome = assign(
        circuit,
        placement,
        &mut slots,
        order,
        pairs,
        FlagPolicy::Ignore,
    );
    let mut iters = 0;
    while !outcome.failures.is_empty() {
        assert!(iters < max_iters, "reference re-assignment failed");
        iters += 1;
        let mut flag_records = Vec::new();
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
        let mut f_wr: HashMap<(usize, u32), u32> = HashMap::new();
        for s in &outcome.failures {
            *f_wr.entry((s.row, s.width)).or_default() += 1;
        }
        let mut f_r = vec![0u32; placement.num_rows()];
        for (&(row, w), &count) in &f_wr {
            f_r[row] += w * count;
        }
        let f_total = f_r.iter().copied().max().unwrap_or(0);
        let mut new_flags = Vec::new();
        for row in 0..placement.num_rows() {
            let mut groups: Vec<u32> = Vec::new();
            let mut widths: Vec<u32> = f_wr
                .keys()
                .filter(|&&(r, w)| r == row && w > 1)
                .map(|&(_, w)| w)
                .collect();
            widths.sort_unstable_by(|a, b| b.cmp(a));
            for w in widths {
                groups.extend(std::iter::repeat_n(w, f_wr[&(row, w)] as usize));
            }
            let singles = f_wr.get(&(row, 1)).copied().unwrap_or(0) + f_total - f_r[row];
            groups.extend(std::iter::repeat_n(1u32, singles as usize));
            let total = groups.len();
            for (k, w) in groups.into_iter().enumerate() {
                let gaps = eligible_gaps(circuit, placement, row);
                let gi = ((k + 1) * gaps.len()) / (total + 1);
                let gap = gaps[gi.min(gaps.len() - 1)];
                let ids = insert_group(circuit, placement, row, gap, w, &mut name_counter, events);
                inserted_cells += ids.len();
                if w > 1 {
                    new_flags.extend(ids.into_iter().map(|id| (row, id, w)));
                }
            }
        }
        slots = SlotStore::from_placement(circuit, placement);
        let records = flag_records
            .into_iter()
            .chain(new_flags.into_iter().map(|(row, id, w)| (row, id, 0, w)));
        for (row, owner, offset, w) in records {
            let cell_x = placement.cell_loc(owner).x;
            if let Some(slot) = slots.slot_of_cell(row, owner, offset, cell_x) {
                let one = SlotRange {
                    row: slot.row,
                    start: slot.idx,
                    len: 1,
                };
                slots.set_flag(one, w);
            }
        }
        outcome = assign(
            circuit,
            placement,
            &mut slots,
            order,
            pairs,
            FlagPolicy::Respect,
        );
    }
    FeedPlan {
        slots,
        feeds: outcome.feeds,
        inserted_cells,
        widened: placement.width_pitches() - initial_width,
    }
}

fn check(params: GenParams, style: PlacementStyle) {
    let design = generate(&params);
    let placement = place_design(&design, &params, style);
    let circuit = design.circuit;
    let pairs = PairMap::build(&circuit);
    let forward: Vec<NetId> = circuit.net_ids().collect();
    let backward: Vec<NetId> = forward.iter().rev().copied().collect();
    for order in [forward, backward] {
        let (mut c_ref, mut p_ref) = (circuit.clone(), placement.clone());
        let mut events_ref = Vec::new();
        let plan_ref = reference(&mut c_ref, &mut p_ref, &order, &pairs, 8, &mut events_ref);
        let (mut c_new, mut p_new) = (circuit.clone(), placement.clone());
        let mut probe = CollectingProbe::new();
        let plan_new =
            assign_with_insertion(&mut c_new, &mut p_new, &order, &pairs, 8, &mut probe).unwrap();
        let events_new: Vec<(u32, i32, u32)> = probe
            .finish()
            .events
            .into_iter()
            .filter_map(|ev| match ev {
                TraceEvent::FeedCellsInserted { row, x, width } => Some((row, x, width)),
                _ => None,
            })
            .collect();
        let name = format!("seed {:#x} {style:?}", params.seed);
        assert!(
            plan_ref.inserted_cells > 0,
            "{name}: no insertion to compare"
        );
        assert_eq!(events_new, events_ref, "{name}: feed-cell events");
        assert!(c_new == c_ref, "{name}: circuits differ");
        assert!(p_new == p_ref, "{name}: placements differ");
        assert!(plan_new == plan_ref, "{name}: feed plans differ");
        let widest = p_new
            .rows()
            .iter()
            .flat_map(|r| r.cells())
            .map(|c| c.x + c.width as i32)
            .chain((0..c_new.pads().len()).map(|i| p_new.pad_loc(PadId::new(i)).1 + 1))
            .max()
            .unwrap();
        assert_eq!(
            p_new.width_pitches(),
            widest.max(placement.width_pitches()),
            "{name}: chip width"
        );
    }
}

#[test]
fn c1_insertion_matches_reference() {
    for style in [PlacementStyle::EvenFeed, PlacementStyle::FeedAside] {
        check(c1_params(), style);
    }
}

#[test]
fn c2_insertion_matches_reference() {
    for style in [PlacementStyle::EvenFeed, PlacementStyle::FeedAside] {
        check(c2_params(), style);
    }
}

#[test]
fn c3_insertion_matches_reference() {
    for style in [PlacementStyle::EvenFeed, PlacementStyle::FeedAside] {
        check(c3_params(), style);
    }
}
