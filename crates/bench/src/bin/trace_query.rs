//! `trace_query`: analytics over schema-v1 JSONL route traces
//! (DESIGN.md §14).
//!
//! Subcommands:
//!
//! * `stats <trace.jsonl> [--json]` — per-event-kind counts, selection
//!   and deletion totals, deciding-tier and counter breakdowns, and
//!   per-phase wall-clock, via [`bgr_io::TraceStats`]. `--json` prints
//!   one machine-readable object for CI.
//! * `diff <a.jsonl> <b.jsonl> [--json]` — first divergence of the
//!   deterministic prefixes via [`bgr_io::trace_divergence`]; exits 1
//!   when the traces diverge.
//!
//! Everything is read-side: this tool never routes, so it can analyze
//! traces from any producer (bench bins, `bgr-serve` job streams once
//! progress records are stripped, CI artifacts).

use std::process::ExitCode;

use bgr_io::{trace_divergence, TraceStats};

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace_query stats <trace.jsonl> [--json]\n\
         \x20      trace_query diff <a.jsonl> <b.jsonl> [--json]"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut pos = args.iter().filter(|a| !a.starts_with("--"));
    match args.first().map(String::as_str) {
        Some("stats") => {
            pos.next(); // the subcommand itself
            let Some(path) = pos.next() else {
                return usage();
            };
            let text = match read(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let stats = match TraceStats::from_jsonl(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if json {
                println!("{}", stats.to_json());
            } else {
                print!("{}", stats.to_ascii());
            }
            ExitCode::SUCCESS
        }
        Some("diff") => {
            pos.next();
            let (Some(a), Some(b)) = (pos.next(), pos.next()) else {
                return usage();
            };
            let (ta, tb) = match (read(a), read(b)) {
                (Ok(ta), Ok(tb)) => (ta, tb),
                (Err(c), _) | (_, Err(c)) => return c,
            };
            match trace_divergence(&ta, &tb) {
                None => {
                    if json {
                        println!("{{\"schema\":1,\"kind\":\"trace_diff\",\"diverged\":false}}");
                    } else {
                        println!("traces match on their deterministic prefix");
                    }
                    ExitCode::SUCCESS
                }
                Some(detail) => {
                    if json {
                        println!(
                            "{{\"schema\":1,\"kind\":\"trace_diff\",\"diverged\":true,\"detail\":\"{}\"}}",
                            bgr_io::escape_json(&detail)
                        );
                    } else {
                        println!("traces diverge:\n{detail}");
                    }
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
