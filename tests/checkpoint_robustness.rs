//! Checkpoint robustness: damaged checkpoints must surface as
//! structured errors — `bgr::io::ParseError` from the codec or
//! `RouteError::Checkpoint` from [`RouteSession::resume`] — and
//! **never** as a panic (DESIGN.md §13). Damage the restore path can't
//! see syntactically (a mutated statistic) must instead be caught by
//! the independent post-restore audit.
//!
//! Covered here:
//!
//! - truncation at every granularity (whole-line cuts across the file
//!   and mid-line byte cuts) → `ParseError`;
//! - token corruption (garbled hex, non-numeric counts, wrong
//!   keywords, bad mask characters) → `ParseError`;
//! - version skew → `ParseError` naming the version;
//! - bytes after `end checkpoint` → `ParseError`;
//! - a syntactically valid checkpoint whose alive-mask disconnects a
//!   net → `RouteError::Checkpoint` at resume, worded apart from a feed
//!   assignment whose rebuilt graph cannot connect the net at all;
//! - a syntactically valid step-0 checkpoint with a negative,
//!   non-finite or NaN branch length → `RouteError::Checkpoint` at
//!   resume (a negative edge length would spin the shortest-path
//!   search forever);
//! - branch lengths that push a net's routing graph to 2⁴² µm or more
//!   → `RouteError::Checkpoint` at resume;
//! - a hand-built snapshot design whose placement does not fit its
//!   circuit → `RouteError::Checkpoint` from `SessionDesign::new`, the
//!   only way to build the design a snapshot hands to resume;
//! - a checkpoint whose embedded placement overlaps two cells →
//!   `ParseError` from the one validation `SessionDesign::new` makes;
//! - a `diff_pairs_locked` stat bump — parses and resumes cleanly, but
//!   the finished result fails the differential-pair oracle of the
//!   independent audit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bgr::gen::golden_instance;
use bgr::io::{parse_checkpoint, write_checkpoint, ParseError};
use bgr::router::{
    CollectingProbe, RouteError, RouteSession, RouterConfig, SessionDesign, SNAPSHOT_VERSION,
};
use bgr::verify::{audit, Invariant};

/// A mid-run checkpoint of the golden instance (parked inside the
/// deletion loop, several suspensions in).
/// The checkpoint header line of format version `v`.
fn header(v: u32) -> String {
    format!("bgr-checkpoint v{v}\n")
}

fn mid_run_checkpoint() -> String {
    let ds = golden_instance();
    let mut session = RouteSession::start(
        RouterConfig::default(),
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
        CollectingProbe::new(),
    )
    .expect("session starts");
    for _ in 0..3 {
        session.step(Some(4)).expect("step succeeds");
    }
    write_checkpoint(&session.snapshot())
}

/// Asserts `parse_checkpoint(text)` errors structurally — and, via
/// `catch_unwind`, that it does not panic either. Returns the error.
fn assert_parse_rejects(text: &str, what: &str) -> ParseError {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_checkpoint(text).map(|_| ())));
    match outcome {
        Ok(Err(e)) => e,
        Ok(Ok(())) => panic!("{what}: damaged checkpoint parsed cleanly"),
        Err(_) => panic!("{what}: parser panicked instead of erroring"),
    }
}

#[test]
fn truncation_never_panics_and_always_errors() {
    let text = mid_run_checkpoint();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 40, "checkpoint too small to exercise cuts");
    // Whole-line cuts spread over the file (0 lines up to all-but-one).
    for keep in [0, 1, 2, lines.len() / 4, lines.len() / 2, lines.len() - 1] {
        let cut = lines[..keep].join("\n");
        assert_parse_rejects(&cut, &format!("cut after {keep} lines"));
    }
    // Cuts at a line end: running out of input is reported at the line
    // after the last one read, not at line 0.
    for keep in [1, 2, lines.len() / 4, lines.len() / 2, lines.len() - 1] {
        let cut = format!("{}\n", lines[..keep].join("\n"));
        let err = assert_parse_rejects(&cut, &format!("cut after line {keep}"));
        assert_eq!(err.line, keep + 1, "cut after line {keep}: {err}");
    }
    // Mid-line byte cuts (sliced at char boundaries).
    for frac in [1usize, 3, 7] {
        let mut cut = text.len() * frac / 8;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        assert_parse_rejects(&text[..cut], &format!("byte cut at {cut}"));
    }
}

#[test]
fn corrupted_tokens_are_parse_errors() {
    let text = mid_run_checkpoint();
    let cases: Vec<(String, &str)> = vec![
        (
            text.replacen(&header(SNAPSHOT_VERSION), &header(SNAPSHOT_VERSION + 1), 1),
            "version skew (newer)",
        ),
        (
            text.replacen(&header(SNAPSHOT_VERSION), &header(SNAPSHOT_VERSION - 1), 1),
            "version skew (older)",
        ),
        (
            text.replacen(&header(SNAPSHOT_VERSION), "some other file\n", 1),
            "foreign header",
        ),
        (text.replacen("stage", "stge", 1), "misspelled keyword"),
        (
            text.replacen("stat deletions ", "stat deletions x", 1),
            "non-numeric stat",
        ),
        (
            text.replacen("config wire ", "config wire zz", 1),
            "garbled hex",
        ),
        (
            format!("{text}garbage\n{}", header(SNAPSHOT_VERSION)),
            "bytes after end checkpoint",
        ),
    ];
    for (damaged, what) in &cases {
        assert_ne!(damaged, &text, "{what}: mutation did not apply");
        assert_parse_rejects(damaged, what);
    }
    // Bad alive-mask character.
    let masked = {
        let idx = text.find("\na ").expect("alive section present");
        let mut t = text.clone();
        t.replace_range(idx + 3..idx + 4, "2");
        t
    };
    assert_parse_rejects(&masked, "bad mask char");
}

#[test]
fn version_skew_error_names_the_version() {
    let text =
        mid_run_checkpoint().replacen(&header(SNAPSHOT_VERSION), &header(SNAPSHOT_VERSION + 6), 1);
    let err = parse_checkpoint(&text).expect_err("skewed version must not parse");
    assert!(
        err.to_string().contains("version"),
        "unhelpful version error: {err}"
    );
}

#[test]
fn disconnecting_alive_mask_is_a_checkpoint_error() {
    let text = mid_run_checkpoint();
    // Kill every edge of the first net: terminals can no longer connect.
    let idx = text.find("\na ").expect("alive section present") + 1;
    let end = text[idx..].find('\n').map(|e| idx + e).unwrap();
    let dead = "a ".to_string() + &"0".repeat(end - idx - 2);
    let damaged = format!("{}{}{}", &text[..idx], dead, &text[end..]);
    let snapshot = parse_checkpoint(&damaged).expect("mask damage is syntactically valid");
    let err = match RouteSession::resume(snapshot, CollectingProbe::new()) {
        Err(e) => e,
        Ok(_) => panic!("resume must reject a disconnecting mask"),
    };
    assert!(
        matches!(&err, RouteError::Checkpoint { .. }),
        "wrong variant: {err}"
    );
    assert!(err.to_string().contains("disconnect"), "unhelpful: {err}");
}

/// The `message` of a [`RouteError::Checkpoint`].
fn checkpoint_message(err: RouteError) -> String {
    match err {
        RouteError::Checkpoint { message } => message,
        other => panic!("wrong variant: {other}"),
    }
}

#[test]
fn disconnecting_alive_mask_keeps_its_exact_message() {
    let text = mid_run_checkpoint();
    let idx = text.find("\na ").expect("alive section present") + 1;
    let end = text[idx..].find('\n').map(|e| idx + e).unwrap();
    let dead = "a ".to_string() + &"0".repeat(end - idx - 2);
    let damaged = format!("{}{}{}", &text[..idx], dead, &text[end..]);
    let message = checkpoint_message(resume_error(&damaged, "dead net 0"));
    assert_eq!(message, "alive set of net 0 disconnects its terminals");
}

#[test]
fn unroutable_feed_assignment_keeps_its_exact_message() {
    // Move the first feed of the first net that has one into another
    // row: the rebuilt graph keeps its edge count, so the alive mask
    // still fits, but no alive set can connect the net any more.
    let text = step0_checkpoint();
    let rows: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("rows "))
        .expect("placement row count")
        .parse()
        .unwrap();
    assert!(rows > 2, "golden placement too small for a row move");
    let feeds: Vec<&str> = text.lines().filter(|l| l.starts_with("f ")).collect();
    let net = feeds
        .iter()
        .position(|l| !l.starts_with("f 0"))
        .expect("some net crosses a row");
    let line = feeds[net];
    let (row, x) = line
        .split(' ')
        .nth(2)
        .and_then(|t| t.split_once(':'))
        .expect("feed token row:x");
    let row: usize = row.parse().unwrap();
    let moved_row = if row + 2 < rows { row + 2 } else { row - 2 };
    let moved = line.replacen(&format!(" {row}:{x}"), &format!(" {moved_row}:{x}"), 1);
    let damaged = text.replacen(&format!("\n{line}\n"), &format!("\n{moved}\n"), 1);
    assert_ne!(damaged, text);
    let message = checkpoint_message(resume_error(&damaged, "moved feed"));
    assert_eq!(
        message,
        format!(
            "rebuilt routing graph of net {net} is disconnected \
             (feed assignment does not fit the embedded design)"
        )
    );
}

/// A checkpoint of the golden instance taken before its first step.
fn step0_checkpoint() -> String {
    let ds = golden_instance();
    let session = RouteSession::start(
        RouterConfig::default(),
        ds.design.circuit,
        ds.placement,
        ds.design.constraints,
        CollectingProbe::new(),
    )
    .expect("session starts");
    write_checkpoint(&session.snapshot())
}

/// `text` with its first `count` branch-length (`b`) lines set to `um`.
fn with_branch_lengths(text: &str, count: usize, um: f64) -> String {
    let mut set = 0;
    let lines: Vec<String> = text
        .lines()
        .map(|line| match line.strip_prefix("b ") {
            Some(_) if set < count => {
                set += 1;
                format!("b {:016x}", um.to_bits())
            }
            _ => line.to_string(),
        })
        .collect();
    assert_eq!(
        set, count,
        "checkpoint has fewer than {count} branch lengths"
    );
    lines.join("\n") + "\n"
}

/// Resumes `text`, which must parse, and returns the resume error.
fn resume_error(text: &str, what: &str) -> RouteError {
    let snapshot = parse_checkpoint(text).expect("the damage is syntactically valid");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        RouteSession::resume(snapshot, CollectingProbe::new()).map(|_| ())
    }));
    match outcome {
        Ok(Err(e)) => e,
        Ok(Ok(())) => panic!("{what}: resume accepted the checkpoint"),
        Err(_) => panic!("{what}: resume panicked instead of erroring"),
    }
}

#[test]
fn bad_branch_length_is_a_checkpoint_error() {
    let text = step0_checkpoint();
    for um in [-30.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = resume_error(&with_branch_lengths(&text, 1, um), &format!("b = {um}"));
        assert!(
            matches!(&err, RouteError::Checkpoint { .. }),
            "b = {um}: wrong variant: {err}"
        );
        assert!(
            err.to_string().contains("branch length"),
            "unhelpful: {err}"
        );
    }
}

#[test]
fn graph_over_the_length_cap_is_a_checkpoint_error() {
    let text = step0_checkpoint();
    let channels = text.lines().filter(|l| l.starts_with("b ")).count();
    let err = resume_error(&with_branch_lengths(&text, channels, 1e13), "b = 1e13");
    assert!(
        matches!(&err, RouteError::Checkpoint { .. }),
        "wrong variant: {err}"
    );
    assert!(err.to_string().contains("2^42"), "unhelpful: {err}");
}

#[test]
fn stat_mutation_is_caught_by_the_post_restore_audit() {
    let ds = golden_instance();
    let config = RouterConfig::default();
    let text = mid_run_checkpoint();

    // Bump `diff_pairs_locked`: syntactically fine, semantically a lie —
    // the restore path cannot see it, the independent audit can
    // (locked + independent must equal the circuit's pair count).
    let line_start = text
        .find("stat diff_pairs_locked ")
        .expect("stat line present");
    let val_start = line_start + "stat diff_pairs_locked ".len();
    let val_end = val_start + text[val_start..].find('\n').unwrap();
    let locked: usize = text[val_start..val_end].parse().unwrap();
    let damaged = format!("{}{}{}", &text[..val_start], locked + 1, &text[val_end..]);

    let snapshot = parse_checkpoint(&damaged).expect("stat lie parses");
    let mut session =
        RouteSession::resume(snapshot, CollectingProbe::new()).expect("stat lie resumes");
    while session.step(None).expect("step succeeds") != bgr::router::StepOutcome::Ready {}
    let (routed, _) = session.finish().expect("finish succeeds");

    let report = audit(
        &routed.circuit,
        &routed.placement,
        &ds.design.constraints,
        &config,
        &routed.result,
    );
    assert!(!report.is_clean(), "audit missed the corrupted statistic");
    assert!(
        report.verdict(Invariant::DiffPair).failure.is_some(),
        "corruption should fail the differential-pair oracle, got: {:?}",
        report.first_failure()
    );
}

/// `RouteSession::resume` takes the design as a `SessionDesign`, which
/// only validation or a running session produce: a hand-built snapshot
/// with an invalid design is rejected when its design is built.
#[test]
fn invalid_hand_built_design_is_a_checkpoint_error() {
    let text = mid_run_checkpoint();
    let snapshot = parse_checkpoint(&text).expect("checkpoint parses");
    let p = bgr::gen::GenParams::small(5);
    let other = bgr::gen::generate(&p);
    let placement = bgr::gen::place_design(&other, &p, bgr::gen::PlacementStyle::EvenFeed);
    let (circuit, _, constraints) = snapshot.design.into_parts();
    let message = checkpoint_message(
        SessionDesign::new(circuit.clone(), placement, constraints.clone())
            .expect_err("a placement of another circuit must not validate"),
    );
    assert!(message.contains("embedded placement invalid"), "{message}");

    // The same parts with their own placement rebuild a design that
    // resumes.
    let snapshot = parse_checkpoint(&text).expect("checkpoint parses");
    let design = SessionDesign::new(circuit, snapshot.design.placement().clone(), constraints)
        .expect("the checkpoint's own design validates");
    assert!(design == snapshot.design);
    let snapshot = bgr::router::EngineSnapshot { design, ..snapshot };
    assert!(RouteSession::resume(snapshot, CollectingProbe::new()).is_ok());
}

/// The checkpoint reader reads its embedded design unvalidated and
/// validates it once, in `SessionDesign::new`: a placement that stacks
/// two cells on one column is still refused, with that validation's
/// wording.
#[test]
fn overlapping_embedded_placement_is_a_parse_error() {
    let text = mid_run_checkpoint();
    // Move the second cell of some row onto the first's column.
    let lines: Vec<&str> = text.lines().collect();
    let place = |l: &str| {
        let t: Vec<&str> = l.split(' ').collect();
        (t.len() == 6 && t[0] == "place").then(|| (t[3].to_owned(), t[5].parse::<i32>().unwrap()))
    };
    let (i, first_x) = (1..lines.len())
        .find_map(|i| match (place(lines[i - 1]), place(lines[i])) {
            (Some((r0, x0)), Some((r1, x1))) if r0 == r1 && x0 < x1 => Some((i, x0)),
            _ => None,
        })
        .expect("a row with two placed cells");
    let mut moved: Vec<&str> = lines[i].split(' ').collect();
    let x = first_x.to_string();
    moved[5] = &x;
    let damaged = lines
        .iter()
        .enumerate()
        .map(|(j, l)| if j == i { moved.join(" ") } else { (*l).to_owned() } + "\n")
        .collect::<String>();
    let err = parse_checkpoint(&damaged).expect_err("overlapping placement must not parse");
    assert!(
        err.to_string().contains("embedded placement invalid"),
        "{err}"
    );
}
