//! The repository benchmark: three route/serve workloads measured end
//! to end, with a separate traced run for per-layer metrics. See
//! `README.md` beside this file for the workloads, metrics and bounds
//! (declared in the root `BENCHMARK.json`).
//!
//! ```text
//! benchmark run --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]]
//! benchmark compare <a> <b>
//! ```
//!
//! `run` prints every metric with its unit, median, quartiles, extremes
//! and sample count, writes them to `target/benchmark/<workload>.json`
//! (`.trace.json` for traced runs, with spans, scope tree and counters),
//! and ends with a one-line JSON summary. It exits nonzero when any
//! output fails its check. `compare` judges two result files (or two
//! directories of them) against the bounds in `BENCHMARK.json`.

mod inputs;
mod layers;
mod manifest;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::Workload;

const USAGE: &str =
    "usage: benchmark run --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]]
       benchmark compare <a.json|dir> <b.json|dir>";

/// Seconds a run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let raw = value("a seed")?;
                seed = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                }
                .map_err(|e| format!("--seed {raw:?}: {e}"))?;
            }
            "--seconds" => {
                let raw = value("a duration")?;
                seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {raw:?} is not a duration"))?;
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => {
                trace = args
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_options(args)?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    // Pin what the router would otherwise read from the environment.
    for var in ["BGR_THREADS", "BGR_SHARDS", "BGR_VERIFY"] {
        std::env::remove_var(var);
    }
    let config = opts.workload.config();
    let header = report::Header {
        workload: opts.workload.name(),
        seed: opts.seed,
        seconds: opts.seconds,
        config: format!(
            "use_constraints={} threads={} shards={} verify={:?} selection={:?} on_violation={:?}",
            config.use_constraints,
            config.threads,
            config.shards,
            config.verify,
            config.selection,
            config.on_violation
        ),
    };
    println!(
        "benchmark {} | seed {} | {} s | trace {} | nproc {}",
        header.workload,
        header.seed,
        header.seconds,
        if opts.trace { "on" } else { "off" },
        report::nproc()
    );
    println!("config: {}", header.config);
    let (run, metrics, path) = if opts.trace {
        let t = layers::traced(opts.workload, opts.seed, opts.seconds);
        let metrics = report::collect(&t.run, &layers::LAYERS, &[]);
        let path = report::write_result(
            &header,
            &t.run,
            &metrics,
            Some((&t.tracer, t.profile.as_ref())),
        );
        (t.run, metrics, path)
    } else {
        let run = run::timed(opts.workload, opts.seed, opts.seconds);
        let metrics = report::collect(&run, &run::END_TO_END, &run::DETERMINISTIC);
        let path = report::write_result(&header, &run, &metrics, None);
        (run, metrics, path)
    };
    report::print_table(&metrics, &run);
    match path {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write the result file: {e}"),
    }
    println!("{}", report::summary_line(&run, &metrics));
    Ok(if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") if args.len() == 3 => {
            report::compare(&args[1], &args[2]).map(|regressed| {
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
        }
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Options, String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
        parse_options(&args)
    }

    #[test]
    fn parses_the_run_command_line() {
        let o = parse("--workload route_c2 --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::RouteC2, 7, 12.0, true)
        );
        let o = parse("--workload serve_c1_q16 --trace 0 --seed 0x10").unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (16, DEFAULT_SECONDS, false));
        assert!(
            parse("--trace --workload route_c3_unconstrained")
                .unwrap()
                .trace
        );
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload route_c9").is_err());
        assert!(parse("--workload route_c2 --seconds -1").is_err());
        assert!(parse("--workload route_c2 --bogus").is_err());
    }
}
