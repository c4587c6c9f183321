//! `bgr-coordinator`: serve a fleet of `bgr-worker` processes draining
//! synthesized routing jobs over TCP (DESIGN.md §15).
//!
//! Synthesizes `--jobs` small designs (seeds `--seed ..`), submits them
//! under a per-slice selection quota, binds `--addr`, and serves leases
//! until the queue drains. `--portfolio N` additionally races the first
//! job's step-0 checkpoint under `N` configuration arms (cycling
//! criteria orders) with a per-arm slice budget.
//!
//! Fleet observability:
//!
//! * `--metrics-out PATH` — after the drain, writes the coordinator's
//!   registry merged with every worker's shipped snapshot
//!   (`MetricsRegistry::render_merged`);
//! * `--trace-out DIR` — writes each job's stream as `job<i>.jsonl`;
//! * `--addr-file PATH` — writes the actually-bound address (written
//!   atomically; lets CI bind port 0 and point workers at the file).
//!
//! Crash recovery and auth (DESIGN.md §15 "Failure model"):
//!
//! * `--journal PATH` — write-ahead outcome journal. Every applied
//!   RESULT is journaled before it mutates the queue; if PATH already
//!   exists (this process is a restart after a kill), the journal is
//!   replayed first — the queue resumes at the exact pre-crash state
//!   and the finished drain is byte-identical to an uninterrupted run;
//! * `--token SECRET` — require workers to present SECRET in HELLO
//!   (constant-time compare; mismatches are refused with `Nack`).
//!
//! Overload governance (DESIGN.md §15 "Overload & degradation
//! ladder") — every knob defaults off, and an un-tripped knob leaves
//! the drain byte-identical to an ungoverned one:
//!
//! * `--max-jobs N` — admission cap on live jobs; over-cap submissions
//!   are rejected up front with a structured verdict;
//! * `--max-conns N` — connection-concurrency cap; excess connections
//!   are answered `Nack(busy)` with a retry hint and closed;
//! * `--deadline-ms T` — per-job wall-clock slice budget; expired jobs
//!   fail with `DeadlineExpired` instead of consuming more fleet time;
//! * `--max-leases N` — live-lease table depth cap; lease requests at
//!   the cap are deferred (`NoWork`), throttling fleet concurrency.
//!
//! Exit code 1 if any non-portfolio job failed or a race ended with no
//! winner.
//!
//! Usage:
//!   bgr-coordinator [--addr HOST:PORT] [--addr-file PATH] [--jobs N]
//!                   [--quota Q] [--seed S] [--lease-timeout-ms T]
//!                   [--portfolio N] [--arm-slices K]
//!                   [--journal PATH] [--token SECRET]
//!                   [--max-jobs N] [--max-conns N] [--deadline-ms T]
//!                   [--max-leases N]
//!                   [--metrics-out PATH] [--trace-out DIR]

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use bgr_core::config::CriteriaOrder;
use bgr_io::JournalWriter;
use bgr_metrics::MetricsRegistry;
use bgr_net::{serve_drain_with, Coordinator, DrainOptions};
use bgr_serve::{JobQueue, QueuePolicy};

struct Args {
    addr: String,
    addr_file: Option<String>,
    jobs: u64,
    quota: Option<u64>,
    seed: u64,
    lease_timeout_ms: u64,
    portfolio: u64,
    arm_slices: u64,
    journal: Option<String>,
    token: Option<String>,
    max_jobs: Option<u64>,
    max_conns: Option<u64>,
    deadline_ms: Option<u64>,
    max_leases: Option<u64>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bgr-coordinator [--addr HOST:PORT] [--addr-file PATH] [--jobs N]\n\
         \x20                      [--quota Q] [--seed S] [--lease-timeout-ms T]\n\
         \x20                      [--portfolio N] [--arm-slices K]\n\
         \x20                      [--journal PATH] [--token SECRET]\n\
         \x20                      [--max-jobs N] [--max-conns N] [--deadline-ms T]\n\
         \x20                      [--max-leases N]\n\
         \x20                      [--metrics-out PATH] [--trace-out DIR]"
    );
    std::process::exit(2)
}

fn parse_num(flag: &str, v: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {v}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        jobs: 4,
        quota: Some(8),
        seed: 1,
        lease_timeout_ms: 5000,
        portfolio: 0,
        arm_slices: 64,
        journal: None,
        token: None,
        max_jobs: None,
        max_conns: None,
        deadline_ms: None,
        max_leases: None,
        metrics_out: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value(&flag),
            "--addr-file" => args.addr_file = Some(value(&flag)),
            "--jobs" => args.jobs = parse_num(&flag, &value(&flag)),
            "--quota" => {
                let v = value(&flag);
                args.quota = if v == "none" {
                    None
                } else {
                    Some(parse_num(&flag, &v))
                };
            }
            "--seed" => args.seed = parse_num(&flag, &value(&flag)),
            "--lease-timeout-ms" => args.lease_timeout_ms = parse_num(&flag, &value(&flag)),
            "--portfolio" => args.portfolio = parse_num(&flag, &value(&flag)),
            "--arm-slices" => args.arm_slices = parse_num(&flag, &value(&flag)),
            "--journal" => args.journal = Some(value(&flag)),
            "--token" => args.token = Some(value(&flag)),
            "--max-jobs" => args.max_jobs = Some(parse_num(&flag, &value(&flag))),
            "--max-conns" => args.max_conns = Some(parse_num(&flag, &value(&flag))),
            "--deadline-ms" => args.deadline_ms = Some(parse_num(&flag, &value(&flag))),
            "--max-leases" => args.max_leases = Some(parse_num(&flag, &value(&flag))),
            "--metrics-out" => args.metrics_out = Some(value(&flag)),
            "--trace-out" => args.trace_out = Some(value(&flag)),
            _ => usage(),
        }
    }
    args
}

/// The arm configurations a `--portfolio N` race cycles through:
/// different improvement-criteria orders are genuinely different
/// strategies. Arms after the third repeat an order (with a different
/// `threads` value, which has no effect), so they tie with that order's
/// first arm by construction, and the lower arm index wins.
fn arm_configs(n: u64) -> Vec<(String, bgr_core::RouterConfig)> {
    let orders = [
        CriteriaOrder::DelayFirst,
        CriteriaOrder::AreaFirst,
        CriteriaOrder::DensityOnly,
    ];
    (0..n)
        .map(|i| {
            let config = bgr_core::RouterConfig {
                criteria_order: orders[(i as usize) % orders.len()],
                threads: 1 + (i as usize) / orders.len(),
                ..bgr_core::RouterConfig::default()
            };
            (format!("arm{i}"), config)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut queue = JobQueue::new();
    let registry = MetricsRegistry::new();
    queue.attach_metrics(bgr_serve::ServeMetrics::register(&registry));
    queue.set_policy(QueuePolicy {
        max_jobs: args.max_jobs.map(|n| n as usize),
        max_checkpoint_bytes: None,
        deadline_ms: args.deadline_ms,
    });
    for i in 0..args.jobs {
        let params = bgr_gen::GenParams::small(args.seed + i);
        let design = bgr_gen::generate(&params);
        let placement = bgr_gen::place_design(&design, &params, bgr_gen::PlacementStyle::EvenFeed);
        match queue.try_submit(
            format!("job{i}"),
            design.circuit,
            placement,
            design.constraints,
            bgr_core::RouterConfig::default(),
            args.quota,
        ) {
            Ok(_) => {}
            Err(verdict) => {
                // Shed at admission: the structured verdict is the
                // whole story; the admitted jobs still drain.
                println!("job{i} rejected ({}): {verdict}", verdict.code());
            }
        }
    }
    let mut coordinator = Coordinator::new(queue, Duration::from_millis(args.lease_timeout_ms))
        .with_metrics(&registry)
        .with_max_live_leases(args.max_leases.map(|n| n as usize));
    if args.portfolio > 0 {
        let spec = match coordinator.queue_mut().lease_spec(0) {
            Ok(Some(spec)) => spec,
            other => {
                eprintln!("cannot materialize portfolio base checkpoint: {other:?}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = coordinator.race_portfolio(
            "race0",
            &spec.checkpoint,
            &arm_configs(args.portfolio),
            args.quota,
            args.arm_slices,
        ) {
            eprintln!("portfolio submission failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "racing {} arms of job 0 ({} slices budget each)",
            args.portfolio, args.arm_slices
        );
    }
    // Journal replay must happen after submission (same jobs, same
    // order as the run that wrote it) and before serving.
    if let Some(path) = &args.journal {
        let existing = std::path::Path::new(path).exists();
        if existing {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read journal {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match coordinator.replay_journal(&bytes) {
                Ok(stats) => println!(
                    "journal {path}: replayed {} result(s) ({} stale)",
                    stats.applied, stats.stale
                ),
                Err(e) => {
                    eprintln!("journal {path} is damaged: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let writer = if existing {
            // Crash-recovery attach: a kill mid-append leaves a torn
            // tail, which `recover` truncates so appends land on a
            // record boundary (`open_append` would refuse the tear).
            JournalWriter::recover(path).map(|(_, tail, w)| {
                if let bgr_io::JournalTail::Truncated { at } = tail {
                    println!("journal {path}: torn tail truncated at byte {at}");
                }
                w
            })
        } else {
            JournalWriter::create(path)
        };
        match writer {
            Ok(w) => coordinator = coordinator.with_journal(w),
            Err(e) => {
                eprintln!("cannot open journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let bound = listener.local_addr().expect("bound address").to_string();
    println!("coordinator serving on {bound}");
    if let Some(path) = &args.addr_file {
        // Write-then-rename so workers polling the file never read a
        // partial address.
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, &bound)
            .and_then(|()| std::fs::rename(&tmp, path))
            .is_err()
        {
            eprintln!("cannot write addr file {path}");
            return ExitCode::FAILURE;
        }
    }
    let drain_opts = DrainOptions {
        token: args.token.clone(),
        max_conns: args.max_conns.map(|n| n as usize),
        ..DrainOptions::default()
    };
    let coordinator = match serve_drain_with(listener, coordinator, &drain_opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("drain failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    if let Some(message) = coordinator.journal_degradation() {
        eprintln!("journal degraded mid-drain: {message}");
        ok = false;
    }
    for (i, job) in coordinator.queue().jobs().iter().enumerate() {
        println!(
            "job {i} [{}]: state={} slices={} selections={} events={}",
            job.name(),
            job.state().label(),
            job.slices(),
            job.selections_done(),
            job.events_emitted()
        );
    }
    if !coordinator.all_completed() {
        ok = false;
    }
    for p in coordinator.portfolios() {
        match p.winner {
            Some(pos) => {
                let id = p.arms[pos];
                let job = coordinator.queue().job(id);
                let verdict = job.verdict().expect("winner has a verdict");
                println!(
                    "portfolio {}: winner arm {pos} ({}) margin={}ps area={} tracks",
                    p.name,
                    job.name(),
                    verdict.worst_margin_ps,
                    verdict.area_tracks
                );
            }
            None => {
                println!("portfolio {}: no arm finished within budget", p.name);
                ok = false;
            }
        }
    }
    println!(
        "fleet: {} worker snapshot(s) merged",
        coordinator.worker_snapshots().len()
    );
    if let Some(path) = &args.metrics_out {
        let snaps: Vec<_> = coordinator
            .worker_snapshots()
            .iter()
            .map(|(_, s)| s.clone())
            .collect();
        if std::fs::write(path, registry.render_merged(&snaps)).is_err() {
            eprintln!("cannot write merged metrics to {path}");
            ok = false;
        }
    }
    if let Some(dir) = &args.trace_out {
        if std::fs::create_dir_all(dir).is_err() {
            eprintln!("cannot create trace dir {dir}");
            ok = false;
        } else {
            for (i, job) in coordinator.queue().jobs().iter().enumerate() {
                let path = format!("{dir}/job{i}.jsonl");
                if std::fs::write(&path, job.stream()).is_err() {
                    eprintln!("cannot write {path}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
