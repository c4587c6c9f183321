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
//! The failure message quotes the first diverging deterministic line,
//! so behavioral drift (a different deletion pick, a new or missing
//! budget/degradation event) is caught at event granularity.

use std::path::PathBuf;

use bgr::gen::golden_instance;
use bgr::io::{deterministic_lines, trace_divergence, write_trace_jsonl};
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
    let (routed, trace) = GlobalRouter::new(RouterConfig::default())
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
    if let Some(diff) = trace_divergence(&golden, &jsonl) {
        panic!(
            "golden trace drift against {}:\n{diff}\n\
             if the change is intentional, re-bless with BGR_BLESS=1",
            path.display()
        );
    }
}
