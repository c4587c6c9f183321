//! Observability must be free (DESIGN.md §14): attaching the
//! hierarchical self-profiler or a metrics registry changes no
//! deterministic observable.
//!
//! * [`ProfilingProbe`] vs [`CollectingProbe`]: identical `TraceEvent`
//!   streams and selection logs across threads ∈ {1, 8} × shards ∈
//!   {1, 4} — even though profiling restructures the deletion loop's
//!   rekey batches for per-cause attribution.
//! * The profile counts every guarded reroute, the area phase's
//!   included.
//! * `bgr-serve` job streams: byte-identical with and without a
//!   [`MetricsRegistry`] attached, across thread counts; every slice of
//!   a local drain resumes from its job's kept design
//!   (`bgr_slice_design_reused_total` equals `bgr_slices_total`).
//! * The Prometheus exposition itself renders the serve metric family
//!   deterministically (names, labels, ordering).

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::metrics::MetricsRegistry;
use bgr::router::{GlobalRouter, Phase, RouterConfig, TraceEvent};
use bgr::serve::JobQueue;

fn params() -> GenParams {
    GenParams {
        logic_cells: 220,
        rows: 6,
        diff_pairs: 2,
        num_constraints: 6,
        ..GenParams::small(0x0B5E7)
    }
}

#[test]
fn profiling_probe_changes_no_deterministic_observable() {
    let p = params();
    let design = generate(&p);
    let placement = place_design(&design, &p, PlacementStyle::EvenFeed);

    type DeterministicKey = (Vec<String>, Vec<(bgr::netlist::NetId, u32)>);
    let mut reference: Option<DeterministicKey> = None;
    for threads in [1usize, 8] {
        for shards in [1usize, 4] {
            let config = RouterConfig {
                threads,
                shards,
                ..RouterConfig::default()
            };
            let (traced, trace) = GlobalRouter::new(config.clone())
                .route_traced(
                    design.circuit.clone(),
                    placement.clone(),
                    design.constraints.clone(),
                )
                .expect("instance routes");
            let (profiled, profile_trace, profile) = GlobalRouter::new(config)
                .route_profiled(
                    design.circuit.clone(),
                    placement.clone(),
                    design.constraints.clone(),
                )
                .expect("instance routes");

            assert_eq!(
                trace.events, profile_trace.events,
                "threads={threads} shards={shards}: profiling changed the event stream"
            );
            assert_eq!(
                traced.result.stats.selection_log, profiled.result.stats.selection_log,
                "threads={threads} shards={shards}: profiling changed the selection log"
            );
            assert!(profile.total() > std::time::Duration::ZERO);
            assert!(!profile.entries().is_empty());

            // And every (threads, shards) cell agrees with the first.
            let key = (
                bgr::io::deterministic_lines(&bgr::io::write_trace_jsonl(&trace))
                    .lines()
                    .map(str::to_owned)
                    .collect::<Vec<_>>(),
                traced.result.stats.selection_log.clone(),
            );
            match &reference {
                None => reference = Some(key),
                Some(want) => assert_eq!(
                    want, &key,
                    "threads={threads} shards={shards}: deterministic stream drifted"
                ),
            }
        }
    }
}

/// Every improvement phase reroutes through the one guarded reroute, so
/// the profiler sees area-phase reroutes too: in an unconstrained route
/// (area phase only) the `improve_area` → `reroute` node counts exactly
/// the phase's accepted and rejected reroutes.
#[test]
fn area_phase_reroutes_appear_in_the_profile() {
    let p = params();
    let design = generate(&p);
    let placement = place_design(&design, &p, PlacementStyle::EvenFeed);
    let config = RouterConfig {
        use_constraints: false,
        ..RouterConfig::default()
    };
    let (_, trace, profile) = GlobalRouter::new(config)
        .route_profiled(design.circuit, placement, design.constraints)
        .expect("instance routes");
    let span = trace
        .spans
        .iter()
        .find(|s| s.phase == Phase::ImproveArea)
        .expect("the area phase ran");
    let reroutes = trace.events[span.events_start..span.events_start + span.events_len]
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::RerouteAccepted { .. } | TraceEvent::RerouteRejected { .. }
            )
        })
        .count() as u64;
    assert!(reroutes > 0, "the area phase rerouted nothing");
    let calls = profile
        .entries()
        .into_iter()
        .find(|e| e.path == ["improve_area", "reroute"])
        .map_or(0, |e| e.calls);
    assert_eq!(calls, reroutes);
}

#[test]
fn serve_streams_are_identical_with_and_without_metrics() {
    let p = params();
    let design = generate(&p);
    let placement = place_design(&design, &p, PlacementStyle::EvenFeed);

    let mut reference: Option<Vec<String>> = None;
    for threads in [1usize, 8] {
        for metered in [false, true] {
            let registry = MetricsRegistry::new();
            let mut q = if metered {
                JobQueue::with_metrics(&registry)
            } else {
                JobQueue::new()
            };
            for (i, quota) in [Some(3), None].iter().enumerate() {
                q.submit(
                    format!("job{i}"),
                    design.circuit.clone(),
                    placement.clone(),
                    design.constraints.clone(),
                    RouterConfig::default(),
                    *quota,
                );
            }
            q.run(threads);
            let streams: Vec<String> = q.jobs().iter().map(|j| j.stream().to_string()).collect();
            match &reference {
                None => reference = Some(streams),
                Some(want) => assert_eq!(
                    want, &streams,
                    "threads={threads} metered={metered}: job streams drifted"
                ),
            }
            if metered {
                // The exposition is live and renders every family.
                let text = registry.render_prometheus();
                for name in [
                    "bgr_slices_total",
                    "bgr_slice_latency_us_count",
                    "bgr_slice_design_reused_total",
                ] {
                    assert!(text.contains(name), "missing {name}");
                }
                // A local drain keeps each job's design from its step-0
                // checkpoint on, so every slice resumes from it, for any
                // thread count.
                let m = bgr::serve::ServeMetrics::register(&registry);
                let slices: u64 = q.jobs().iter().map(|j| j.slices()).sum();
                assert!(slices > 2, "the quota'd job takes several slices");
                assert_eq!(m.slices_total.get(), slices);
                assert_eq!(
                    m.design_reused_total.get(),
                    slices,
                    "threads={threads}: a local slice parsed its design"
                );
            }
        }
    }
}

/// The overload instruments (admission rejections, deadline misses,
/// connection sheds, lease deferrals, journal degradation) must be as
/// free as every other metric: a governed-but-untripped queue with the
/// full instrument set attached produces byte-identical job streams to
/// a bare ungoverned queue.
#[test]
fn overload_instruments_are_perturbation_free() {
    let p = params();
    let design = generate(&p);
    let placement = place_design(&design, &p, PlacementStyle::EvenFeed);

    let mut reference: Option<Vec<String>> = None;
    for governed in [false, true] {
        let registry = MetricsRegistry::new();
        let mut q = if governed {
            let mut q = JobQueue::with_metrics(&registry);
            q.set_policy(bgr::serve::QueuePolicy {
                max_jobs: Some(16),
                max_checkpoint_bytes: Some(1 << 30),
                deadline_ms: Some(3_600_000),
            });
            q
        } else {
            JobQueue::new()
        };
        for (i, quota) in [Some(3), None].iter().enumerate() {
            let submitted = if governed {
                q.try_submit(
                    format!("job{i}"),
                    design.circuit.clone(),
                    placement.clone(),
                    design.constraints.clone(),
                    RouterConfig::default(),
                    *quota,
                )
                .expect("generous limits admit everything")
            } else {
                q.submit(
                    format!("job{i}"),
                    design.circuit.clone(),
                    placement.clone(),
                    design.constraints.clone(),
                    RouterConfig::default(),
                    *quota,
                )
            };
            assert_eq!(submitted, i);
        }
        q.run(4);
        let streams: Vec<String> = q.jobs().iter().map(|j| j.stream().to_string()).collect();
        match &reference {
            None => reference = Some(streams),
            Some(want) => assert_eq!(
                want, &streams,
                "governed={governed}: untripped governance perturbed a stream"
            ),
        }
        if governed {
            // Nothing tripped, so every shed instrument reads zero.
            let m = bgr::serve::ServeMetrics::register(&registry);
            assert_eq!(m.rejected_queue_full_total.get(), 0);
            assert_eq!(m.rejected_checkpoint_bytes_total.get(), 0);
            assert_eq!(m.deadline_missed_total.get(), 0);
        }
    }
}

/// The new instruments render deterministically in the Prometheus
/// exposition — labeled rejection reasons included — and merge through
/// the fleet snapshot path like every other counter.
#[test]
fn overload_instruments_render_and_merge_deterministically() {
    let render = || {
        let registry = MetricsRegistry::new();
        let m = bgr::serve::ServeMetrics::register(&registry);
        m.rejected_queue_full_total.add(2);
        m.rejected_checkpoint_bytes_total.inc();
        m.deadline_missed_total.add(3);
        let n = bgr::net::NetMetrics::register(&registry);
        n.conns_shed_total.add(60);
        n.leases_deferred_total.add(4);
        n.journal_degraded_total.inc();
        registry
    };
    let a = render().render_prometheus();
    assert_eq!(a, render().render_prometheus());
    assert!(
        a.contains("bgr_jobs_rejected_total{reason=\"queue-full\"} 2"),
        "{a}"
    );
    assert!(
        a.contains("bgr_jobs_rejected_total{reason=\"checkpoint-bytes\"} 1"),
        "{a}"
    );
    assert!(a.contains("bgr_deadline_missed_total 3"), "{a}");
    assert!(a.contains("bgr_net_conns_shed_total 60"), "{a}");
    assert!(a.contains("bgr_net_leases_deferred_total 4"), "{a}");
    assert!(a.contains("bgr_net_journal_degraded_total 1"), "{a}");

    // Fleet merge: a worker snapshot carrying the same families sums
    // into the coordinator's exposition.
    let coordinator = render();
    let worker = render();
    let merged = coordinator.render_merged(&[worker.snapshot()]);
    assert!(
        merged.contains("bgr_jobs_rejected_total{reason=\"queue-full\"} 4"),
        "{merged}"
    );
    assert!(merged.contains("bgr_net_conns_shed_total 120"), "{merged}");
}

#[test]
fn serve_exposition_renders_deterministically() {
    // Two registries fed the same deterministic updates render
    // byte-identically — wall-clock lives only in values the test
    // doesn't exercise (the latency histogram stays empty here).
    let render = || {
        let registry = MetricsRegistry::new();
        let m = bgr::serve::ServeMetrics::register(&registry);
        m.slices_total.add(7);
        m.selections_total.add(41);
        m.queue_depth.set(3);
        m.audit_clean_total.inc();
        m.jobs_completed_total.inc();
        registry.render_prometheus()
    };
    let a = render();
    assert_eq!(a, render());
    assert!(a.contains("bgr_audit_total{verdict=\"clean\"} 1"), "{a}");
    assert!(a.contains("bgr_jobs_terminal_total{state=\"completed\"} 1"));
    assert!(a.contains("bgr_queue_depth 3"));
}
