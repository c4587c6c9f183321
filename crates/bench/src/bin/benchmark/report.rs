//! Output: the human-readable table, the result files under
//! `target/benchmark/`, the one-line JSON summary, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use bgr_core::probe::{Counter, ProfileTree, RouteTrace};
use bgr_io::{escape_json, Json};

use crate::manifest::{Manifest, MetricDecl};
use crate::run::Run;
use crate::stats::Summary;
use crate::trace::Tracer;

/// Where result and trace files go, relative to the working directory.
pub const OUT_DIR: &str = "target/benchmark";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub deterministic: bool,
    pub samples: Vec<f64>,
    pub summary: Summary,
}

/// The metrics of `table` that `run` sampled, in table order.
///
/// # Panics
///
/// Panics if the run sampled a metric the table does not declare, or —
/// in a run without failures — left a declared one out or produced a
/// non-finite value: all bugs in this binary.
pub fn collect(
    run: &Run,
    table: &[(&'static str, &'static str)],
    deterministic: &[&str],
) -> Vec<Metric> {
    for name in run.samples.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "undeclared metric {name}"
        );
    }
    let mut out = Vec::new();
    for &(name, unit) in table {
        match run.samples.get(name) {
            Some(samples) => {
                assert!(
                    samples.iter().all(|v| v.is_finite()),
                    "{name}: non-finite sample"
                );
                out.push(Metric {
                    name,
                    unit,
                    deterministic: deterministic.contains(&name),
                    samples: samples.clone(),
                    summary: Summary::of(samples),
                });
            }
            None => assert!(!run.failures.is_empty(), "metric {name} was not measured"),
        }
    }
    out
}

/// Prints the metric table and notes.
pub fn print_table(metrics: &[Metric], run: &Run) {
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    for m in metrics {
        let s = &m.summary;
        println!(
            "{:<34} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            m.name, m.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    for note in &run.notes {
        println!("note: {note}");
    }
    for failure in &run.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "{} of {} operations failed",
        run.failures.len(),
        run.attempted
    );
}

/// `f` of every item, comma-separated.
fn joined<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(", ")
}

fn json_list<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    format!("[{}]", joined(items, f))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("[");
    for (i, m) in metrics.iter().enumerate() {
        let s = &m.summary;
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"unit\": \"{}\", \"deterministic\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"samples\": {}}}",
            if i > 0 { "," } else { "" },
            m.name,
            m.unit,
            m.deterministic,
            s.n,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            json_list(&m.samples, |v| v.to_string())
        );
    }
    out.push_str("\n  ]");
    out
}

/// Run identity written at the top of every result file.
pub struct Header<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub config: String,
}

/// Writes the run's result file (`<workload>.json`, or
/// `<workload>.trace.json` with spans, scope tree and counters) and
/// returns its path.
pub fn write_result(
    header: &Header,
    run: &Run,
    metrics: &[Metric],
    trace: Option<(&Tracer, Option<&(RouteTrace, ProfileTree)>)>,
) -> std::io::Result<String> {
    let mut out = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"config\": \"{}\",\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": {},\n  \"notes\": {},\n  \"metrics\": {}",
        header.workload,
        header.seed,
        header.seconds,
        nproc(),
        escape_json(&header.config),
        run.attempted,
        run.failures.len(),
        json_list(&run.failures, |f| format!("\"{}\"", escape_json(f))),
        json_list(&run.notes, |n| format!("\"{}\"", escape_json(n))),
        metrics_json(metrics)
    );
    let suffix = if let Some((tracer, profile)) = trace {
        let _ = write!(out, ",\n  \"spans\": {}", tracer.to_json());
        if let Some((counters, tree)) = profile {
            let entries = json_list(tree.entries(), |e| {
                format!(
                    "\n    {{\"path\": \"{}\", \"calls\": {}, \"total_us\": {}, \"self_us\": {}}}",
                    e.path.join(";"),
                    e.calls,
                    e.total.as_micros(),
                    e.self_time.as_micros()
                )
            });
            let counts = joined(Counter::ALL, |c| {
                format!("\"{}\": {}", c.label(), counters.counter(c))
            });
            let _ = write!(
                out,
                ",\n  \"profile\": {entries},\n  \"counters\": {{{counts}}}"
            );
        }
        ".trace.json"
    } else {
        ".json"
    };
    out.push_str("\n}\n");
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/{}{suffix}", header.workload);
    std::fs::write(&path, out)?;
    Ok(path)
}

/// The one-line summary: correctness, operation counts and each
/// metric's median.
pub fn summary_line(run: &Run, metrics: &[Metric]) -> String {
    let values = joined(metrics, |m| {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.summary.median, m.unit
        )
    });
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{values}}}}}",
        run.failures.is_empty(),
        run.attempted.max(1),
        run.failures.len(),
    )
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `compare` verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (deterministic metrics: identical).
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// A side's interquartile spread is wider than the bound.
    Unresolved,
    /// A deterministic metric moved, but not past its bound.
    Changed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// Judges `b` against baseline `a`: the relative change in the worse
/// direction (positive = worse) and the verdict.
pub fn judge(a: &Summary, b: &Summary, decl: &MetricDecl, deterministic: bool) -> (f64, Verdict) {
    let bound = decl.bound.unwrap_or(0.0);
    let worse = if decl.lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    let delta = if a.median != 0.0 {
        worse / a.median.abs()
    } else if worse == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(worse)
    };
    let verdict = if deterministic {
        if a.median == b.median {
            Verdict::Ok
        } else if delta > bound {
            Verdict::Regressed
        } else {
            Verdict::Changed
        }
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// One result file's metrics: `workload → metric → (summary,
/// deterministic)`.
type Results = BTreeMap<String, BTreeMap<String, (Summary, bool)>>;

fn load_file(path: &Path, into: &mut Results) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let root = Json::parse(&text).map_err(|e| bad(&format!("{e:?}")))?;
    let workload = root
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("no workload"))?;
    let entry = into.entry(workload.to_owned()).or_default();
    for m in root
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("no metrics"))?
    {
        let num = |k: &str| m.get(k).and_then(Json::as_f64).ok_or_else(|| bad(k));
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("metric name"))?;
        let summary = Summary {
            n: num("n")? as usize,
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
        };
        let deterministic = m.get("deterministic") == Some(&Json::Bool(true));
        entry.insert(name.to_owned(), (summary, deterministic));
    }
    Ok(())
}

/// Loads a result file, or every timed result file (`*.json` but not
/// `*.trace.json`) in a directory.
fn load(path: &str) -> Result<Results, String> {
    let mut out = Results::new();
    let path = Path::new(path);
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.to_string_lossy();
                name.ends_with(".json") && !name.ends_with(".trace.json")
            })
            .collect();
        files.sort();
        for f in files {
            load_file(&f, &mut out)?;
        }
    } else {
        load_file(path, &mut out)?;
    }
    Ok(out)
}

/// `benchmark compare <a> <b>`: judges every end-to-end metric present
/// on both sides. Returns whether anything regressed.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let manifest = Manifest::embedded();
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<24} {:<12} {:>5} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "a: median [q1, q3]", "b: median [q1, q3]", "delta", "bound"
    );
    let mut regressed = false;
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload:<24} (missing on the b side)");
            continue;
        };
        for decl in &manifest.end_to_end {
            let (Some((sa, det)), Some((sb, _))) =
                (metrics_a.get(&decl.name), metrics_b.get(&decl.name))
            else {
                continue;
            };
            let (delta, verdict) = judge(sa, sb, decl, *det);
            regressed |= verdict == Verdict::Regressed;
            let side = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<24} {:<12} {:>5} {:>32} {:>32} {:>+7.2}% {:>5.1}%  {}",
                decl.name,
                decl.unit,
                side(sa),
                side(sb),
                delta * 100.0,
                decl.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LAYERS;
    use crate::run::{DETERMINISTIC, END_TO_END};

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            n: 5,
            median,
            q1,
            q3,
            min: q1,
            max: q3,
        }
    }

    fn decl(bound: f64, lower_is_better: bool) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let tight = summary(10.0, 9.9, 10.1);
        let d = decl(0.10, true);
        assert_eq!(
            judge(&tight, &summary(10.5, 10.4, 10.6), &d, false).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight, &summary(9.0, 8.9, 9.1), &d, false).1,
            Verdict::Ok
        );
        let (delta, v) = judge(&tight, &summary(11.5, 11.4, 11.6), &d, false);
        assert_eq!(v, Verdict::Regressed);
        assert!((delta - 0.15).abs() < 1e-12);
        // Spread wider than the bound on either side cannot be resolved.
        assert_eq!(
            judge(&tight, &summary(11.5, 10.0, 12.5), &d, false).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&summary(10.0, 8.0, 10.5), &tight, &d, false).1,
            Verdict::Unresolved
        );
        // Higher-is-better flips the direction.
        let up = decl(0.10, false);
        assert_eq!(
            judge(&tight, &summary(11.5, 11.4, 11.6), &up, false).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight, &summary(8.5, 8.4, 8.6), &up, false).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn deterministic_metrics_must_match_exactly() {
        let d = decl(0.005, true);
        let a = summary(100.0, 100.0, 100.0);
        assert_eq!(judge(&a, &a, &d, true).1, Verdict::Ok);
        assert_eq!(
            judge(&a, &summary(100.1, 100.1, 100.1), &d, true).1,
            Verdict::Changed
        );
        assert_eq!(
            judge(&a, &summary(99.0, 99.0, 99.0), &d, true).1,
            Verdict::Changed
        );
        assert_eq!(
            judge(&a, &summary(101.0, 101.0, 101.0), &d, true).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let m = Manifest::embedded();
        let declared = |list: &[MetricDecl]| -> Vec<(String, String)> {
            list.iter()
                .map(|d| (d.name.clone(), d.unit.clone()))
                .collect()
        };
        let emitted = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&m.end_to_end), emitted(&END_TO_END));
        assert_eq!(declared(&m.per_layer), emitted(&LAYERS));
        for name in DETERMINISTIC {
            assert!(END_TO_END.iter().any(|(n, _)| *n == name));
        }
        let workloads: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(m.workloads, workloads);
    }

    #[test]
    fn summary_line_shape() {
        let mut run = Run::default();
        run.sample("latency_s", 1.5);
        run.sample("latency_s", 2.5);
        run.op(Ok(()));
        let table = [("latency_s", "s")];
        let line = summary_line(&run, &collect(&run, &table, &[]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(Json::parse(&line).is_ok());
    }
}
