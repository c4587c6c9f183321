//! The traced run: per-layer metrics from benchmark spans around the
//! public calls, the router's `ProfilingProbe` scope tree and its
//! `RouteTrace` counters.

use bgr_core::probe::{CollectingProbe, Counter, ProfileTree, ProfilingProbe, RouteTrace};
use bgr_core::session::{RouteSession, StepOutcome};
use bgr_core::{RouteStats, Routed, RouterConfig};
use bgr_io::{parse_checkpoint, write_checkpoint};
use bgr_serve::{run_slice, SliceOutcome};

use crate::inputs::Design;
use crate::run::{check_drain, checked_route, drain, references, repeat, same_hash, Run};
use crate::trace::{Owner, Tracer};
use crate::workload::{check, route, signoff, Workload, SLICE_QUOTA};

/// Per-layer metrics and their units, in report order.
pub const LAYERS: [(&str, &str); 55] = [
    ("core.session.start_s", "s"),
    ("core.session.initial_routing_s", "s"),
    ("core.session.recover_violate_s", "s"),
    ("core.session.improve_delay_s", "s"),
    ("core.session.improve_area_s", "s"),
    ("core.session.finish_s", "s"),
    ("core.feed_assign_s", "s"),
    ("core.graph_build_s", "s"),
    ("core.rekey_graph.self_s", "s"),
    ("core.rekey_graph.calls", "count"),
    ("core.rekey_graph.share", "ratio"),
    ("core.hyp_cache_hits", "count"),
    ("core.hyp_cache_misses", "count"),
    ("core.hyp_hit_ratio", "ratio"),
    ("core.delay_memo_hits", "count"),
    ("core.delay_memo_misses", "count"),
    ("core.delay_memo_hit_ratio", "ratio"),
    ("core.rekey_span_overlap.self_s", "s"),
    ("core.rekey_span_overlap.calls", "count"),
    ("core.rekey_span_overlap.share", "ratio"),
    ("core.density_window_queries", "count"),
    ("core.density_aggregate_queries", "count"),
    ("core.select.self_s", "s"),
    ("core.select.calls", "count"),
    ("core.select.share", "ratio"),
    ("core.heap_pushes", "count"),
    ("core.heap_pops", "count"),
    ("core.stale_heap_pops", "count"),
    ("core.stale_pop_ratio", "ratio"),
    ("core.shard_rebuilds", "count"),
    ("core.delete_modify.self_s", "s"),
    ("core.derive_dirty.self_s", "s"),
    ("core.rekey.self_s", "s"),
    ("core.rekey_constraint.self_s", "s"),
    ("core.rekey_constraint.calls", "count"),
    ("core.key_evals", "count"),
    ("core.reroute.self_s", "s"),
    ("core.reroute.calls", "count"),
    ("core.selections", "count"),
    ("core.deletions", "count"),
    ("core.reroutes", "count"),
    ("channel.route_channels_s", "s"),
    ("channel.violations", "count"),
    ("verify.audit_s", "s"),
    ("io.parse_checkpoint_ms", "ms"),
    ("core.session.resume_ms", "ms"),
    ("core.session.step_ms", "ms"),
    ("core.session.snapshot_ms", "ms"),
    ("io.write_checkpoint_ms", "ms"),
    ("io.checkpoint_bytes", "bytes"),
    ("serve.run_slice_ms", "ms"),
    ("serve.slices", "count"),
    ("serve.rounds", "count"),
    ("serve.useful_fraction", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The layers only the serve workload exercises (0 elsewhere).
const SERVE_ONLY: [&str; 10] = [
    "io.parse_checkpoint_ms",
    "core.session.resume_ms",
    "core.session.step_ms",
    "core.session.snapshot_ms",
    "io.write_checkpoint_ms",
    "io.checkpoint_bytes",
    "serve.run_slice_ms",
    "serve.slices",
    "serve.rounds",
    "serve.useful_fraction",
];

/// Owner of the replay spans: the canonical first serve job.
const REPLAY: Owner = Owner::Job(0);

/// What a traced run leaves for the trace file.
pub struct Traced {
    pub run: Run,
    pub tracer: Tracer,
    /// Counters and scope tree of the last profiled route.
    pub profile: Option<(RouteTrace, ProfileTree)>,
}

/// The traced run of `workload`.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Traced {
    traced_on(workload, &workload.designs(seed), seconds)
}

fn traced_on(workload: Workload, designs: &[Design], seconds: f64) -> Traced {
    let mut t = Traced {
        run: Run::default(),
        tracer: Tracer::new(true),
        profile: None,
    };
    let config = workload.config();
    let start = std::time::Instant::now();
    if workload == Workload::ServeC1Q16 {
        serve_layers(&mut t, &config, designs);
    } else {
        for name in SERVE_ONLY {
            t.run.sample(name, 0.0);
        }
    }
    let left = seconds - start.elapsed().as_secs_f64();
    profile_pairs(&mut t, &config, &designs[0], left);
    t
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    crate::stats::Summary::of(values).median
}

/// Alternates untraced and profiled routes of `design` while time
/// remains; the profiled ones give the router layers, both together the
/// tracing overhead.
fn profile_pairs(t: &mut Traced, config: &RouterConfig, design: &Design, seconds: f64) {
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut rep = 0u64;
    repeat(1, seconds, || {
        let untraced = checked_route(config, design).and_then(|(_, hash, wall)| {
            same_hash(&mut first, hash)?;
            Ok(wall)
        });
        if let Some(wall) = t.run.op(untraced) {
            plain.push(wall);
        }
        let owner = Owner::Rep(rep);
        let root = t.tracer.enter("route", owner);
        let traced = route(config, design, ProfilingProbe::new(), &mut t.tracer, owner);
        t.tracer.exit(root);
        let traced = traced
            .map_err(|e| format!("{}: {e}", design.name))
            .and_then(|(routed, probe, wall)| {
                let hash = t
                    .tracer
                    .span("verify.audit", owner, || check(config, design, &routed))?;
                same_hash(&mut first, hash)?;
                let q = t
                    .tracer
                    .span("channel.route_channels", owner, || signoff(design, &routed))?;
                Ok((routed, probe, wall, q.violations))
            });
        if let Some((routed, probe, wall, violations)) = t.run.op(traced) {
            profiled.push(wall);
            let (trace, tree) = probe.finish();
            route_layers(t, owner, &trace, &tree, &routed.result.stats);
            t.run.sample("channel.violations", violations as f64);
            t.profile = Some((trace, tree));
        }
        rep += 1;
    });
    if !plain.is_empty() && !profiled.is_empty() {
        let overhead = median(&profiled) / median(&plain);
        t.run.sample("trace.overhead_ratio", overhead);
    }
}

/// Router layers of one profiled route.
fn route_layers(
    t: &mut Traced,
    owner: Owner,
    trace: &RouteTrace,
    tree: &ProfileTree,
    stats: &RouteStats,
) {
    let entries = tree.entries();
    let total = tree.total().as_secs_f64();
    // Self time and calls of a scope, summed over every phase it ran in.
    let scope = |label: &str| {
        entries
            .iter()
            .filter(|e| e.path.last() == Some(&label))
            .fold((0.0, 0.0), |(s, c), e| {
                (s + e.self_time.as_secs_f64(), c + e.calls as f64)
            })
    };
    let phase = |label: &str| {
        entries
            .iter()
            .filter(|e| e.path == [label])
            .fold(0.0, |sum, e| sum + e.total.as_secs_f64())
    };
    let count = |c: Counter| trace.counter(c) as f64;
    let run = &mut t.run;
    for (name, span) in [
        ("core.session.start_s", "core.session.start"),
        (
            "core.session.initial_routing_s",
            "core.session.initial_routing",
        ),
        (
            "core.session.recover_violate_s",
            "core.session.recover_violate",
        ),
        ("core.session.improve_delay_s", "core.session.improve_delay"),
        ("core.session.improve_area_s", "core.session.improve_area"),
        ("core.session.finish_s", "core.session.finish"),
        ("channel.route_channels_s", "channel.route_channels"),
        ("verify.audit_s", "verify.audit"),
    ] {
        run.sample(name, t.tracer.total(span, owner));
    }
    run.sample("core.feed_assign_s", phase("feed_assign"));
    run.sample("core.graph_build_s", phase("graph_build"));
    for (label, [s, c, share]) in [
        (
            "rekey:graph",
            [
                "core.rekey_graph.self_s",
                "core.rekey_graph.calls",
                "core.rekey_graph.share",
            ],
        ),
        (
            "rekey:span_overlap",
            [
                "core.rekey_span_overlap.self_s",
                "core.rekey_span_overlap.calls",
                "core.rekey_span_overlap.share",
            ],
        ),
        (
            "select",
            [
                "core.select.self_s",
                "core.select.calls",
                "core.select.share",
            ],
        ),
    ] {
        let (self_s, calls) = scope(label);
        run.sample(s, self_s);
        run.sample(c, calls);
        run.sample(share, ratio(self_s, total));
    }
    let (hits, misses) = (count(Counter::HypCacheHit), count(Counter::HypCacheMiss));
    run.sample("core.hyp_cache_hits", hits);
    run.sample("core.hyp_cache_misses", misses);
    run.sample("core.hyp_hit_ratio", ratio(hits, hits + misses));
    let (hits, misses) = (count(Counter::DelayMemoHit), count(Counter::DelayMemoMiss));
    run.sample("core.delay_memo_hits", hits);
    run.sample("core.delay_memo_misses", misses);
    run.sample("core.delay_memo_hit_ratio", ratio(hits, hits + misses));
    run.sample(
        "core.density_window_queries",
        count(Counter::DensityWindowQuery),
    );
    run.sample(
        "core.density_aggregate_queries",
        count(Counter::DensityAggregateQuery),
    );
    let (pops, stale) = (count(Counter::HeapPop), count(Counter::StaleHeapPop));
    run.sample("core.heap_pushes", count(Counter::HeapPush));
    run.sample("core.heap_pops", pops);
    run.sample("core.stale_heap_pops", stale);
    run.sample("core.stale_pop_ratio", ratio(stale, pops));
    run.sample("core.shard_rebuilds", count(Counter::ShardRebuild));
    run.sample("core.delete_modify.self_s", scope("delete_modify").0);
    run.sample("core.derive_dirty.self_s", scope("derive_dirty").0);
    run.sample("core.rekey.self_s", scope("rekey").0);
    let (self_s, calls) = scope("rekey:constraint");
    run.sample("core.rekey_constraint.self_s", self_s);
    run.sample("core.rekey_constraint.calls", calls);
    run.sample("core.key_evals", count(Counter::KeyEval));
    let (self_s, calls) = scope("reroute");
    run.sample("core.reroute.self_s", self_s);
    run.sample("core.reroute.calls", calls);
    run.sample("core.selections", stats.selection_log.len() as f64);
    run.sample("core.deletions", stats.deletions as f64);
    run.sample("core.reroutes", stats.reroutes as f64);
}

/// Serve layers: one drain for the queue counts, then the canonical
/// first job replayed slice by slice — once through `run_slice`, once
/// through the public calls it makes, each timed.
fn serve_layers(t: &mut Traced, config: &RouterConfig, designs: &[Design]) {
    let Some(refs) = references(&mut t.run, config, designs) else {
        return;
    };
    let (queue, rounds, _) = drain(config, designs);
    if check_drain(&mut t.run, &queue, &refs) {
        let slices: u64 = queue.jobs().iter().map(|job| job.slices()).sum();
        t.run.sample("serve.rounds", rounds as f64);
        t.run.sample("serve.slices", slices as f64);
    }
    let first = start_checkpoint(config, &designs[0]);
    let Some(first) = t.run.op(first) else {
        return;
    };
    let sliced = replay_run_slice(&mut t.tracer, first.clone());
    let Some(()) = t.run.op(sliced) else {
        return;
    };
    let replayed = replay_calls(&mut t.tracer, first, &refs[0]);
    let Some(bytes) = t.run.op(replayed) else {
        return;
    };
    let tr = &t.tracer;
    let mean_ms = |name: &str| {
        let d: Vec<f64> = tr.durations(name, REPLAY).collect();
        ratio(d.iter().sum::<f64>() * 1e3, d.len() as f64)
    };
    for (metric, span) in [
        ("io.parse_checkpoint_ms", "io.parse_checkpoint"),
        ("core.session.resume_ms", "core.session.resume"),
        ("core.session.step_ms", "core.session.step"),
        ("core.session.snapshot_ms", "core.session.snapshot"),
        ("io.write_checkpoint_ms", "io.write_checkpoint"),
        ("serve.run_slice_ms", "serve.run_slice"),
    ] {
        t.run.sample(metric, mean_ms(span));
    }
    t.run.sample(
        "io.checkpoint_bytes",
        ratio(bytes.iter().sum::<f64>(), bytes.len() as f64),
    );
    let useful = ratio(
        tr.total("core.session.step", REPLAY),
        tr.total("serve.run_slice", REPLAY),
    );
    t.run.sample("serve.useful_fraction", useful);
}

/// The step-0 checkpoint every serve job starts from (what the queue
/// materializes before its first slice).
fn start_checkpoint(config: &RouterConfig, design: &Design) -> Result<String, String> {
    let session = RouteSession::start(
        config.clone(),
        design.circuit.clone(),
        design.placement.clone(),
        design.constraints.clone(),
        CollectingProbe::new(),
    )
    .map_err(|e| format!("{}: {e}", design.name))?;
    Ok(write_checkpoint(&session.snapshot()))
}

/// Drives a job through `run_slice` to completion, one span per slice.
fn replay_run_slice(tracer: &mut Tracer, mut checkpoint: String) -> Result<(), String> {
    loop {
        let out = tracer.span("serve.run_slice", REPLAY, || {
            run_slice(&checkpoint, Some(SLICE_QUOTA))
        });
        match out {
            SliceOutcome::Suspended {
                checkpoint: next, ..
            } => checkpoint = next,
            SliceOutcome::Finished { verdict, .. } if verdict.audit_clean => return Ok(()),
            SliceOutcome::Finished { verdict, .. } => {
                return Err(format!("run_slice replay: {}", verdict.audit_line))
            }
            SliceOutcome::Failed { error } => return Err(format!("run_slice replay: {error}")),
        }
    }
}

/// Drives a job through the calls `run_slice` makes — parse, resume,
/// step, snapshot, write — one span each, and checks the finished route
/// against the uninterrupted reference. Returns the bytes of every
/// checkpoint written.
fn replay_calls(
    tracer: &mut Tracer,
    mut checkpoint: String,
    reference: &Routed,
) -> Result<Vec<f64>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("sliced replay: {e}");
    let mut bytes = Vec::new();
    loop {
        let slice = tracer.enter("serve.slice", REPLAY);
        let snap = tracer
            .span("io.parse_checkpoint", REPLAY, || {
                parse_checkpoint(&checkpoint)
            })
            .map_err(|e| fail(&e))?;
        let mut session = tracer
            .span("core.session.resume", REPLAY, || {
                RouteSession::resume(snap, CollectingProbe::new())
            })
            .map_err(|e| fail(&e))?;
        let outcome = tracer
            .span("core.session.step", REPLAY, || {
                session.step(Some(SLICE_QUOTA))
            })
            .map_err(|e| fail(&e))?;
        if outcome == StepOutcome::Ready {
            let (routed, _) = tracer
                .span("core.session.finish", REPLAY, || session.finish())
                .map_err(|e| fail(&e))?;
            tracer.exit(slice);
            return if routed.result.stats.selection_log == reference.result.stats.selection_log {
                Ok(bytes)
            } else {
                Err("sliced replay: selection log differs from the uninterrupted route".into())
            };
        }
        let snap = tracer.span("core.session.snapshot", REPLAY, || session.snapshot());
        checkpoint = tracer.span("io.write_checkpoint", REPLAY, || write_checkpoint(&snap));
        bytes.push(checkpoint.len() as f64);
        tracer.exit(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::build;
    use crate::report::collect;
    use bgr_gen::GenParams;

    /// Every traced workload emits exactly the declared layers, with
    /// every output check passing, on small stand-in designs.
    #[test]
    fn traced_runs_emit_every_layer() {
        let designs: Vec<Design> = (0..2)
            .map(|i| build(&format!("S{i}"), GenParams::small(40 + i), 9))
            .collect();
        for workload in Workload::ALL {
            let t = traced_on(workload, &designs, 0.0);
            assert!(t.run.failures.is_empty(), "{:?}", t.run.failures);
            let metrics = collect(&t.run, &LAYERS, &[]);
            assert_eq!(metrics.len(), LAYERS.len(), "{}", workload.name());
            assert!(t.profile.is_some());
        }
        assert!(SERVE_ONLY
            .iter()
            .all(|s| LAYERS.iter().any(|(n, _)| n == s)));
    }
}
