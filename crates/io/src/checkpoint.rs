//! Versioned text serialization of [`EngineSnapshot`]s (`.bgrc`).
//!
//! A checkpoint is a single line-oriented text document embedding the
//! session's design in the existing interchange formats (netlist,
//! placement, constraints — between `begin X` / `end X` sentinels) plus
//! the sessionized router state: resolved configuration, pipeline
//! stage, per-net alive masks, feed assignment, branch lengths and the
//! cumulative observable counters (DESIGN.md §13).
//!
//! Floating-point values are written as `f64::to_bits` hex, so the
//! round-trip is *bit-exact* — a restored session computes with exactly
//! the numbers the suspended one held, which the resume-equivalence
//! guarantee requires.
//!
//! Sections appear in a fixed order, each length-prefixed where
//! variable, so truncation at any byte is detected as a structured
//! [`ParseError`] — never a panic (`tests/checkpoint_robustness.rs`
//! proves this under truncation, corruption and version-skew fuzzing).

use std::fmt::Write as _;

use bgr_core::session::{
    EngineSnapshot, SessionDesign, SessionStage, SnapshotStats, SNAPSHOT_VERSION,
};
use bgr_core::{
    Budgets, CriteriaOrder, OnViolation, PhaseOutcome, RouterConfig, SelectionStrategy, VerifyLevel,
};
use bgr_netlist::NetId;
use bgr_timing::{DelayModel, WireParams};

use crate::codec::{f64_hex, opt_u64, Reader};
use crate::constraints::{parse_constraints, write_constraints};
use crate::error::ParseError;
use crate::netlist::{read_netlist, write_netlist};
use crate::placement::{read_placement, write_placement};

/// The header line is this prefix followed by [`SNAPSHOT_VERSION`].
const MAGIC: &str = "bgr-checkpoint v";

fn verify_str(v: VerifyLevel) -> String {
    match v {
        VerifyLevel::Off => "off".into(),
        VerifyLevel::Final => "final".into(),
        VerifyLevel::Phases => "phases".into(),
        VerifyLevel::Steps(n) => format!("steps:{n}"),
    }
}

/// Re-serializes a checkpoint with its embedded [`RouterConfig`]
/// replaced — the speculative-portfolio helper: each arm races the
/// *same* suspended state under different knobs.
///
/// Only deterministically safe knobs should differ between arms:
/// `criteria_order` (changes future deletion decisions — the point of
/// racing), `selection` (proven observable-invariant), budgets and
/// verify level. The `threads` and `shards` fields have no effect: a
/// checkpoint carries them as its `config threads`/`config shards`
/// lines, and any values drain identically. Changing
/// `use_constraints` or the delay model mid-run re-interprets state the
/// suspended session already computed and is rejected by nothing here —
/// callers own that contract.
///
/// # Errors
///
/// A structured [`ParseError`] when `text` is not a valid checkpoint.
pub fn reconfigure_checkpoint(
    text: &str,
    config: &bgr_core::RouterConfig,
) -> Result<String, ParseError> {
    let mut snap = parse_checkpoint(text)?;
    snap.config = config.clone();
    Ok(write_checkpoint(&snap))
}

/// Serializes a snapshot to the checkpoint text format.
///
/// The text is the design prefix — the header and the three design
/// blocks — followed by the state tail. The prefix depends only on the
/// design, which a session never changes after it starts, so a serve
/// slice re-uses the one it parsed ([`splice_checkpoint`]).
pub fn write_checkpoint(snap: &EngineSnapshot) -> String {
    write_checkpoint_with_prefix(snap).0
}

/// [`write_checkpoint`] that also returns the byte length of the text's
/// design prefix, as [`parse_checkpoint_with_prefix`] would report it:
/// what a caller that keeps `snap` needs to splice the next checkpoint.
pub fn write_checkpoint_with_prefix(snap: &EngineSnapshot) -> (String, usize) {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}{SNAPSHOT_VERSION}");
    // The embedded design first: everything after it is interpreted
    // against these objects.
    let d = &snap.design;
    let _ = writeln!(out, "begin netlist");
    out.push_str(&write_netlist(d.circuit()));
    let _ = writeln!(out, "end netlist");
    let _ = writeln!(out, "begin placement");
    out.push_str(&write_placement(d.circuit(), d.placement()));
    let _ = writeln!(out, "end placement");
    let _ = writeln!(out, "begin constraints");
    out.push_str(&write_constraints(d.circuit(), d.constraints()));
    let _ = writeln!(out, "end constraints");
    let prefix_len = out.len();
    write_state(&mut out, snap);
    (out, prefix_len)
}

/// `prefix` followed by the state tail of `snap`: the checkpoint
/// [`write_checkpoint`] would emit, without re-encoding the design, when
/// `prefix` is the design prefix it would emit for `snap` — such as the
/// prefix of a canonical checkpoint `snap` was resumed from
/// ([`parse_checkpoint_with_prefix`], [`write_checkpoint_with_prefix`]).
pub fn splice_checkpoint(prefix: &str, snap: &EngineSnapshot) -> String {
    let mut tail = String::new();
    write_state(&mut tail, snap);
    let mut out = String::with_capacity(prefix.len() + tail.len());
    out.push_str(prefix);
    out.push_str(&tail);
    out
}

/// The design-independent tail of a checkpoint: config, stage, stats,
/// recovery, logs, masks.
fn write_state(out: &mut String, snap: &EngineSnapshot) {
    let c = &snap.config;
    let _ = writeln!(
        out,
        "config use_constraints {}",
        u8::from(c.use_constraints)
    );
    let _ = writeln!(
        out,
        "config delay_model {}",
        match c.delay_model {
            DelayModel::Capacitance => "capacitance",
            DelayModel::Elmore => "elmore",
        }
    );
    let _ = writeln!(
        out,
        "config wire {} {}",
        f64_hex(c.wire.cap_ff_per_um),
        f64_hex(c.wire.res_ohm_per_um)
    );
    let _ = writeln!(
        out,
        "config branch_length_um {}",
        f64_hex(c.branch_length_um)
    );
    let _ = writeln!(out, "config recover_passes {}", c.recover_passes);
    let _ = writeln!(out, "config delay_passes {}", c.delay_passes);
    let _ = writeln!(out, "config area_passes {}", c.area_passes);
    let _ = writeln!(
        out,
        "config criteria_order {}",
        match c.criteria_order {
            CriteriaOrder::DelayFirst => "delay_first",
            CriteriaOrder::AreaFirst => "area_first",
            CriteriaOrder::DensityOnly => "density_only",
        }
    );
    let _ = writeln!(
        out,
        "config pair_differential {}",
        u8::from(c.pair_differential)
    );
    let _ = writeln!(out, "config slack_ordering {}", u8::from(c.slack_ordering));
    let _ = writeln!(
        out,
        "config selection {}",
        match c.selection {
            SelectionStrategy::Scoreboard => "scoreboard",
            SelectionStrategy::FullRescan => "full_rescan",
        }
    );
    let _ = writeln!(out, "config threads {}", c.threads);
    let _ = writeln!(out, "config shards {}", c.shards);
    let _ = writeln!(
        out,
        "config on_violation {}",
        match c.on_violation {
            OnViolation::Fail => "fail",
            OnViolation::BestEffort => "best_effort",
        }
    );
    let _ = writeln!(out, "config verify {}", verify_str(c.verify));
    let _ = writeln!(
        out,
        "config deletion_steps {}",
        opt_u64(c.budgets.deletion_steps)
    );
    let _ = writeln!(
        out,
        "config phase_reroutes {}",
        opt_u64(c.budgets.phase_reroutes)
    );
    let _ = writeln!(
        out,
        "config deadline_ns {}",
        match c.deadline {
            Some(d) => d.as_nanos().to_string(),
            None => "none".into(),
        }
    );

    let _ = match snap.stage {
        SessionStage::InitialRouting { done } => writeln!(out, "stage initial_routing {done}"),
        stage => writeln!(out, "stage {}", stage.label()),
    };
    let _ = writeln!(out, "events_emitted {}", snap.events_emitted);

    let s = &snap.stats;
    let _ = writeln!(out, "stat deletions {}", s.deletions);
    let _ = writeln!(out, "stat reroutes {}", s.reroutes);
    let _ = writeln!(out, "stat audits_passed {}", s.audits_passed);
    let _ = writeln!(out, "stat audit_checks {}", s.audit_checks);
    let _ = writeln!(out, "stat feed_cells_inserted {}", s.feed_cells_inserted);
    let _ = writeln!(out, "stat widened_pitches {}", s.widened_pitches);
    let _ = writeln!(out, "stat diff_pairs_locked {}", s.diff_pairs_locked);
    let _ = writeln!(
        out,
        "stat diff_pairs_independent {}",
        s.diff_pairs_independent
    );
    let r = &snap.recovery;
    let _ = writeln!(
        out,
        "recovery {} {} {} {}",
        r.reroutes,
        r.passes,
        u8::from(r.budget_exhausted),
        u8::from(r.deadline_fired)
    );

    let _ = writeln!(out, "branch_lens {}", snap.branch_lens.len());
    for v in &snap.branch_lens {
        let _ = writeln!(out, "b {}", f64_hex(*v));
    }
    let _ = writeln!(out, "selection_log {}", snap.stats.selection_log.len());
    for (net, edge) in &snap.stats.selection_log {
        let _ = writeln!(out, "s {} {}", net.index(), edge);
    }
    let _ = writeln!(out, "feeds {}", snap.feeds.len());
    for per_net in &snap.feeds {
        let _ = write!(out, "f {}", per_net.len());
        for (row, x) in per_net {
            let _ = write!(out, " {row}:{x}");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "alive {}", snap.alive.len());
    for mask in &snap.alive {
        let bits: String = mask.iter().map(|&b| if b { '1' } else { '0' }).collect();
        let _ = writeln!(out, "a {bits}");
    }
    let _ = writeln!(out, "end checkpoint");
}

/// A `0`/`1` flag.
struct Flag(bool);

impl std::str::FromStr for Flag {
    type Err = ();

    fn from_str(raw: &str) -> Result<Self, ()> {
        match raw {
            "0" => Ok(Self(false)),
            "1" => Ok(Self(true)),
            _ => Err(()),
        }
    }
}

/// The body of a `begin name` .. `end name` block, borrowed from `text`
/// (the document `cur` reads).
fn design_block<'a>(
    cur: &mut Reader<'a>,
    text: &'a str,
    name: &str,
) -> Result<&'a str, ParseError> {
    let open = cur.line()?;
    if open.strip_prefix("begin ") != Some(name) {
        return Err(cur.err(format!("expected `begin {name}`, got {open:?}")));
    }
    let start = cur.offset();
    loop {
        let end = cur.offset();
        if cur.line()?.strip_prefix("end ") == Some(name) {
            // Both offsets sit just past a `\n`, so on char boundaries.
            return text
                .get(start..end)
                .ok_or_else(|| cur.err(format!("{name} block is not utf-8")));
        }
    }
}

/// Parses the checkpoint text format back into an [`EngineSnapshot`].
///
/// # Errors
///
/// A structured [`ParseError`] for version skew, truncation, trailing
/// bytes after `end checkpoint`, or any malformed line — by design this
/// function never panics on arbitrary input.
pub fn parse_checkpoint(text: &str) -> Result<EngineSnapshot, ParseError> {
    parse_checkpoint_with_prefix(text).map(|(snap, _)| snap)
}

/// [`parse_checkpoint`] that also returns the byte length of the text's
/// design prefix (the header and the three design blocks), for
/// [`splice_checkpoint`].
///
/// # Errors
///
/// Everything [`parse_checkpoint`] reports.
pub fn parse_checkpoint_with_prefix(text: &str) -> Result<(EngineSnapshot, usize), ParseError> {
    let mut cur = Reader::new(text.as_bytes());
    let [netlist, placement, constraints] = read_prefix(&mut cur, text)?;
    let prefix_len = cur.offset();
    // Read unvalidated: `SessionDesign::new` validates the design once.
    let circuit = read_netlist(netlist).map_err(|e| cur.err(format!("embedded netlist: {e}")))?;
    let placement = read_placement(&circuit, placement)
        .map_err(|e| cur.err(format!("embedded placement: {e}")))?;
    let constraints = parse_constraints(&circuit, constraints)
        .map_err(|e| cur.err(format!("embedded constraints: {e}")))?;
    let design =
        SessionDesign::new(circuit, placement, constraints).map_err(|e| cur.err(e.to_string()))?;
    Ok((parse_state(cur, design)?, prefix_len))
}

/// The design prefix of `text`: the header line, which must name
/// [`SNAPSHOT_VERSION`], then the netlist, placement and constraints
/// block bodies, leaving `cur` at the state tail.
fn read_prefix<'a>(cur: &mut Reader<'a>, text: &'a str) -> Result<[&'a str; 3], ParseError> {
    let header = cur.line()?;
    match header.strip_prefix(MAGIC) {
        Some(v) if v == SNAPSHOT_VERSION.to_string() => {}
        Some(v) => {
            return Err(cur.err(format!(
                "checkpoint version {v:?} unsupported (this build reads v{SNAPSHOT_VERSION})"
            )))
        }
        None => return Err(cur.err(format!("not a bgr checkpoint (header {header:?})"))),
    }
    Ok([
        design_block(cur, text, "netlist")?,
        design_block(cur, text, "placement")?,
        design_block(cur, text, "constraints")?,
    ])
}

/// The state tail (everything after the design prefix), read from `cur`
/// through `end checkpoint`, which must end the input.
// Config fields are parsed sequentially in the fixed emission order so
// errors point at the offending line; a struct literal can't do that.
#[allow(clippy::field_reassign_with_default)]
fn parse_state(mut cur: Reader, design: SessionDesign) -> Result<EngineSnapshot, ParseError> {
    // Config fields, in the fixed emission order.
    let mut config = RouterConfig::default();
    config.use_constraints = cur.get::<Flag>("config use_constraints")?.0;
    config.delay_model = match cur.value("config delay_model")? {
        "capacitance" => DelayModel::Capacitance,
        "elmore" => DelayModel::Elmore,
        other => return Err(cur.err(format!("unknown delay model {other:?}"))),
    };
    config.wire = {
        let raw = cur.value("config wire")?;
        let mut it = raw.split(' ');
        let cap = it.next().ok_or_else(|| cur.err("missing wire cap"))?;
        let res = it.next().ok_or_else(|| cur.err("missing wire res"))?;
        WireParams {
            cap_ff_per_um: cur.f64_token("wire cap", cap)?,
            res_ohm_per_um: cur.f64_token("wire res", res)?,
        }
    };
    config.branch_length_um = cur.f64_bits("config branch_length_um")?;
    config.recover_passes = cur.get("config recover_passes")?;
    config.delay_passes = cur.get("config delay_passes")?;
    config.area_passes = cur.get("config area_passes")?;
    config.criteria_order = match cur.value("config criteria_order")? {
        "delay_first" => CriteriaOrder::DelayFirst,
        "area_first" => CriteriaOrder::AreaFirst,
        "density_only" => CriteriaOrder::DensityOnly,
        other => return Err(cur.err(format!("unknown criteria order {other:?}"))),
    };
    config.pair_differential = cur.get::<Flag>("config pair_differential")?.0;
    config.slack_ordering = cur.get::<Flag>("config slack_ordering")?.0;
    config.selection = match cur.value("config selection")? {
        "scoreboard" => SelectionStrategy::Scoreboard,
        "full_rescan" => SelectionStrategy::FullRescan,
        other => return Err(cur.err(format!("unknown selection strategy {other:?}"))),
    };
    config.threads = cur.get("config threads")?;
    config.shards = cur.get("config shards")?;
    config.on_violation = match cur.value("config on_violation")? {
        "fail" => OnViolation::Fail,
        "best_effort" => OnViolation::BestEffort,
        other => return Err(cur.err(format!("unknown violation policy {other:?}"))),
    };
    config.verify = {
        let raw = cur.value("config verify")?;
        let level = VerifyLevel::parse(raw);
        // VerifyLevel::parse maps garbage to Off; reject it here instead.
        if level == VerifyLevel::Off && raw != "off" {
            return Err(cur.err(format!("unknown verify level {raw:?}")));
        }
        level
    };
    config.budgets = Budgets {
        deletion_steps: cur.opt_u64("config deletion_steps")?,
        phase_reroutes: cur.opt_u64("config phase_reroutes")?,
    };
    config.deadline = match cur.value("config deadline_ns")? {
        "none" => None,
        raw => {
            let ns: u128 = cur.parse("deadline", raw)?;
            let ns64 = u64::try_from(ns).map_err(|_| cur.err("deadline out of range"))?;
            Some(std::time::Duration::from_nanos(ns64))
        }
    };

    let stage = {
        // `initial_routing` alone carries its selection count.
        let raw = cur.value("stage")?;
        let (label, done) = match raw.split_once(' ') {
            Some((label, done)) => (label, Some(done)),
            None => (raw, None),
        };
        match (SessionStage::from_label(label), done) {
            (Some(SessionStage::InitialRouting { .. }), Some(done)) => {
                SessionStage::InitialRouting {
                    done: cur.parse("stage initial_routing", done)?,
                }
            }
            (Some(stage), None) if !matches!(stage, SessionStage::InitialRouting { .. }) => stage,
            _ => return Err(cur.err(format!("unknown stage {raw:?}"))),
        }
    };
    let events_emitted = cur.get("events_emitted")?;

    let mut stats = SnapshotStats {
        deletions: cur.get("stat deletions")?,
        reroutes: cur.get("stat reroutes")?,
        ..SnapshotStats::default()
    };
    stats.audits_passed = cur.get("stat audits_passed")?;
    stats.audit_checks = cur.get("stat audit_checks")?;
    stats.feed_cells_inserted = cur.get("stat feed_cells_inserted")?;
    stats.widened_pitches = cur.get("stat widened_pitches")?;
    stats.diff_pairs_locked = cur.get("stat diff_pairs_locked")?;
    stats.diff_pairs_independent = cur.get("stat diff_pairs_independent")?;

    let recovery = {
        let raw = cur.value("recovery")?;
        let mut it = raw.split(' ');
        let mut toks = [""; 4];
        for tok in &mut toks {
            *tok = it
                .next()
                .ok_or_else(|| cur.err("recovery wants 4 fields"))?;
        }
        PhaseOutcome {
            reroutes: cur.parse("recovery reroutes", toks[0])?,
            passes: cur.parse("recovery passes", toks[1])?,
            budget_exhausted: cur.parse::<Flag>("recovery budget_exhausted", toks[2])?.0,
            deadline_fired: cur.parse::<Flag>("recovery deadline_fired", toks[3])?.0,
        }
    };

    let n_branch: usize = cur.get("branch_lens")?;
    let mut branch_lens = Vec::with_capacity(n_branch.min(1 << 20));
    for _ in 0..n_branch {
        branch_lens.push(cur.f64_bits("b")?);
    }
    let n_sel: usize = cur.get("selection_log")?;
    let mut selection_log = Vec::with_capacity(n_sel.min(1 << 20));
    for _ in 0..n_sel {
        let raw = cur.value("s")?;
        let (net, edge) = raw
            .split_once(' ')
            .ok_or_else(|| cur.err("selection entry wants `net edge`"))?;
        let net = cur.parse("selection net", net)?;
        let edge: u32 = cur.parse("selection edge", edge)?;
        selection_log.push((NetId::new(net), edge));
    }
    stats.selection_log = selection_log;
    let n_feeds: usize = cur.get("feeds")?;
    let mut feeds = Vec::with_capacity(n_feeds.min(1 << 20));
    for _ in 0..n_feeds {
        let raw = cur.value("f")?;
        let mut it = raw.split(' ');
        let count: usize = cur.parse("feed count", it.next().unwrap_or(""))?;
        let mut per_net = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let tok = it.next().ok_or_else(|| cur.err("short feed list"))?;
            let (row, x) = tok
                .split_once(':')
                .ok_or_else(|| cur.err(format!("bad feed {tok:?} (want row:x)")))?;
            let row: usize = cur.parse("feed row", row)?;
            let x: i32 = cur.parse("feed x", x)?;
            per_net.push((row, x));
        }
        if it.next().is_some() {
            return Err(cur.err("trailing tokens after feed list"));
        }
        feeds.push(per_net);
    }
    let n_alive: usize = cur.get("alive")?;
    let mut alive = Vec::with_capacity(n_alive.min(1 << 20));
    for _ in 0..n_alive {
        let raw = cur.value("a")?;
        let mut mask = Vec::with_capacity(raw.len());
        for ch in raw.chars() {
            match ch {
                '0' => mask.push(false),
                '1' => mask.push(true),
                _ => return Err(cur.err(format!("bad mask bit {ch:?}"))),
            }
        }
        alive.push(mask);
    }
    let tail = cur.line()?;
    if tail != "end checkpoint" {
        return Err(cur.err(format!("expected `end checkpoint`, got {tail:?}")));
    }
    cur.finish()?;

    Ok(EngineSnapshot {
        version: SNAPSHOT_VERSION,
        config,
        design,
        feeds,
        branch_lens,
        alive,
        stage,
        stats,
        recovery,
        events_emitted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_core::probe::CollectingProbe;
    use bgr_core::session::RouteSession;
    use bgr_gen::circuits::golden_instance;

    fn sample_snapshot() -> EngineSnapshot {
        let ds = golden_instance();
        let (circuit, placement, cons) = (ds.design.circuit, ds.placement, ds.design.constraints);
        let mut session = RouteSession::start(
            RouterConfig {
                threads: 1,
                shards: 2,
                ..RouterConfig::default()
            },
            circuit,
            placement,
            cons,
            CollectingProbe::new(),
        )
        .unwrap();
        // Park mid-deletion-loop so the snapshot carries real state.
        for _ in 0..3 {
            session.step(Some(5)).unwrap();
        }
        session.snapshot()
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let snap = sample_snapshot();
        let text = write_checkpoint(&snap);
        let back = parse_checkpoint(&text).unwrap();
        assert_eq!(back.version, snap.version);
        assert_eq!(back.config, snap.config);
        assert_eq!(back.stage, snap.stage);
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.recovery, snap.recovery);
        assert_eq!(back.events_emitted, snap.events_emitted);
        assert_eq!(back.feeds, snap.feeds);
        assert_eq!(back.alive, snap.alive);
        // f64 bit-exactness, not just approximate equality.
        let a: Vec<u64> = back.branch_lens.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = snap.branch_lens.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        // And the re-serialization is byte-identical.
        assert_eq!(write_checkpoint(&back), text);
        // Nothing may follow `end checkpoint`.
        let garbage = format!("garbage\n{MAGIC}{SNAPSHOT_VERSION}\n");
        for tail in [garbage.as_str(), "\n", "x"] {
            let err = parse_checkpoint(&format!("{text}{tail}")).unwrap_err();
            assert!(err.message.contains("trailing bytes"), "{err}");
        }
    }

    #[test]
    fn written_and_parsed_prefixes_agree() {
        let snap = sample_snapshot();
        let (text, prefix_len) = write_checkpoint_with_prefix(&snap);
        let (back, parsed_prefix) = parse_checkpoint_with_prefix(&text).unwrap();
        assert_eq!(prefix_len, parsed_prefix);
        assert!(text[..prefix_len].ends_with("end constraints\n"));
        assert_eq!(splice_checkpoint(&text[..prefix_len], &back), text);
    }

    #[test]
    fn version_skew_is_a_parse_error() {
        let text = write_checkpoint(&sample_snapshot());
        let skewed = text.replacen(
            &format!("{MAGIC}{SNAPSHOT_VERSION}\n"),
            &format!("{MAGIC}{}\n", SNAPSHOT_VERSION + 1),
            1,
        );
        assert_ne!(skewed, text);
        let err = parse_checkpoint(&skewed).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
        let err = parse_checkpoint("hello world\n").unwrap_err();
        assert!(err.message.contains("not a bgr checkpoint"), "{err}");
    }

    #[test]
    fn truncation_is_a_parse_error_at_every_cut() {
        let text = write_checkpoint(&sample_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        for frac in [1, 3, 10, 30, 60, 95] {
            let cut = lines.len() * frac / 100;
            let truncated: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            assert!(
                parse_checkpoint(&truncated).is_err(),
                "cut at {cut}/{} lines parsed",
                lines.len()
            );
        }
    }
}
