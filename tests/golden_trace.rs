//! Golden-trace regression check (DESIGN.md §11).
//!
//! Routes the fixed [`bgr::gen::golden_instance`] and compares the
//! deterministic prefix of its trace (meta + event lines) against the
//! checked-in `tests/golden/trace.jsonl`. Counters, histograms and
//! spans are machine- and strategy-dependent diagnostics and are
//! excluded by [`bgr::io::trace_divergence`].
//!
//! On an intentional behavior change, re-bless with:
//!
//! ```text
//! BGR_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! The comparison holds at every `BGR_VERIFY` level. The routing
//! events — every event but the self-audits' `audit_passed` and
//! `audit_step`, renumbered — must match the golden's at any level; at
//! a level that emits no audit events (`off`, the default, and `final`)
//! the whole deterministic prefix, meta line included, must match too.
//! A bless refuses a route whose events include audits, so the golden
//! stays audit-free.
//!
//! The failure message quotes the first diverging deterministic line,
//! so behavioral drift (a different deletion pick, a new or missing
//! budget/degradation event) is caught at event granularity.

use std::path::PathBuf;

use bgr::gen::golden_instance;
use bgr::io::{
    deterministic_event_lines, deterministic_lines, routing_event_lines, trace_divergence,
    write_trace_jsonl,
};
use bgr::router::{GlobalRouter, RouterConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace.jsonl")
}

#[test]
fn deterministic_events_match_checked_in_golden() {
    let ds = golden_instance();
    let config = RouterConfig::default();
    // `off` and `final` emit no audit events.
    let emits_audits = config.verify.at_phases();
    let (routed, trace) = GlobalRouter::new(config)
        .route_traced(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("golden instance routes");
    assert_eq!(routed.result.trees.len(), ds.design.circuit.nets().len());

    let jsonl = write_trace_jsonl(&trace);
    let path = golden_path();
    if std::env::var("BGR_BLESS").is_ok_and(|v| v == "1") {
        assert!(
            routing_event_lines(&jsonl) == deterministic_event_lines(&jsonl),
            "refusing to bless a trace with audit events: bless at BGR_VERIFY=off or final"
        );
        let det = deterministic_lines(&jsonl);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &det).expect("write golden trace");
        println!(
            "blessed {} ({} deterministic lines)",
            path.display(),
            det.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read golden {}: {e} (bless with BGR_BLESS=1)",
            path.display()
        )
    });
    let routing = trace_divergence(&routing_event_lines(&golden), &routing_event_lines(&jsonl));
    let whole = (!emits_audits)
        .then(|| trace_divergence(&golden, &jsonl))
        .flatten();
    if let Some(diff) = routing.or(whole) {
        panic!(
            "golden trace drift against {}:\n{diff}\n\
             if the change is intentional, re-bless with BGR_BLESS=1",
            path.display()
        );
    }
}
