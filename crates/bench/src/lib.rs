//! Experiment harness: reproduces the paper's Tables 1–3 and the
//! ablations listed in `DESIGN.md`.
//!
//! Each table has a binary (`cargo run -p bgr-bench --release --bin
//! table2`) that prints the same rows the paper reports; the library
//! holds the shared measurement pipeline so integration tests can assert
//! the *shape* of the results (who wins, by roughly what factor).

use bgr_channel::{route_channels, DetailedRoute};
use bgr_core::{Counter, GlobalRouter, RouteTrace, Routed, RouterConfig};
use bgr_gen::{arrival_with_lengths, hpwl_net_lengths_in_layout_um, DataSet};
use bgr_timing::{DelayModel, WireParams};

/// One measured routing run (one half of a Table 2 row).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Data set name (`C1P1` …).
    pub name: String,
    /// Largest constrained-path delay after channel routing, ps.
    pub delay_ps: f64,
    /// Chip core area, mm².
    pub area_mm2: f64,
    /// Total routed wire length, mm.
    pub length_mm: f64,
    /// Router wall-clock, seconds.
    pub cpu_s: f64,
    /// Violated constraints.
    pub violations: usize,
    /// Constraint count.
    pub constraints: usize,
    /// Per-constraint arrivals, ps.
    pub arrivals_ps: Vec<f64>,
    /// Per-constraint limits, ps.
    pub limits_ps: Vec<f64>,
}

/// Routes a data set with the given config and measures it after channel
/// routing (the paper's measurement protocol, §5).
pub fn measure(ds: &DataSet, config: RouterConfig) -> (Measurement, Routed, DetailedRoute) {
    let t = std::time::Instant::now();
    let routed = GlobalRouter::new(config)
        .route(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("benchmark circuits route");
    let cpu_s = t.elapsed().as_secs_f64();
    let detail = route_channels(
        &routed.circuit,
        &routed.placement,
        &routed.result,
        &ds.design.constraints,
        DelayModel::Capacitance,
        WireParams::default(),
    )
    .expect("benchmark circuits channel-route");
    let m = Measurement {
        name: ds.name.clone(),
        delay_ps: detail.timing.max_arrival_ps(),
        area_mm2: detail.area_mm2,
        length_mm: detail.total_length_mm(),
        cpu_s,
        violations: detail.timing.violations(),
        constraints: detail.timing.constraints.len(),
        arrivals_ps: detail
            .timing
            .constraints
            .iter()
            .map(|c| c.arrival_ps)
            .collect(),
        limits_ps: detail
            .timing
            .constraints
            .iter()
            .map(|c| c.limit_ps)
            .collect(),
    };
    (m, routed, detail)
}

/// Per-constraint lower-bound delays measured *in the routed layout*
/// (half-perimeter rectangles whose y spans include the routed channel
/// heights) — the geometry the paper's Table 3 rectangles live in. The
/// placement must be the routed one (possibly widened) and
/// `channel_tracks` its per-channel track counts.
pub fn lower_bound_delays_in_layout(
    ds: &DataSet,
    routed: &Routed,
    channel_tracks: &[usize],
) -> Vec<f64> {
    let lb = hpwl_net_lengths_in_layout_um(&routed.circuit, &routed.placement, channel_tracks);
    ds.design
        .constraints
        .iter()
        .map(|c| {
            arrival_with_lengths(&routed.circuit, c.source, c.sink, &lb)
                .expect("constraints are reachable")
        })
        .collect()
}

/// Table 3 statistic: mean percentage difference of the measured
/// arrivals from the lower bound, `mean((arrival − lb) / lb) × 100`.
pub fn mean_diff_from_lb_percent(arrivals: &[f64], lb: &[f64]) -> f64 {
    assert_eq!(arrivals.len(), lb.len());
    if arrivals.is_empty() {
        return 0.0;
    }
    let sum: f64 = arrivals
        .iter()
        .zip(lb)
        .map(|(a, l)| (a - l) / l * 100.0)
        .sum();
    sum / arrivals.len() as f64
}

/// The headline statistic: average critical-path delay reduction of the
/// constrained run relative to the unconstrained one, expressed as a
/// percentage of the lower bound (the paper reports 17.6%).
pub fn mean_reduction_of_lb_percent(con: &[f64], unc: &[f64], lb: &[f64]) -> f64 {
    assert!(con.len() == unc.len() && unc.len() == lb.len());
    if con.is_empty() {
        return 0.0;
    }
    let sum: f64 = con
        .iter()
        .zip(unc)
        .zip(lb)
        .map(|((c, u), l)| (u - c) / l * 100.0)
        .sum();
    sum / con.len() as f64
}

/// Formats one Table 2 row.
pub fn table2_row(m: &Measurement) -> String {
    format!(
        "{:<6} {:>9.0} {:>9.2} {:>9.1} {:>8.2} {:>6}/{}",
        m.name, m.delay_ps, m.area_mm2, m.length_mm, m.cpu_s, m.violations, m.constraints
    )
}

/// The tree layer's work per hypothetical-tree miss, as one line: the
/// misses, each of which re-settles a subtree, the vertices re-settled
/// (`hyp_resettled`) per miss, the full searches those misses started
/// (`hyp_searches`), and the candidate keys that bound-first lane scans
/// left at their floor without a tree (`delay_pruned`).
pub fn hypothetical_tree_work(trace: &RouteTrace) -> String {
    let misses = trace.counter(Counter::HypCacheMiss);
    let resettled = trace.counter(Counter::HypResettled);
    let per = resettled as f64 / misses.max(1) as f64;
    let searches = trace.counter(Counter::HypSearch);
    let pruned = trace.counter(Counter::DelayPruned);
    format!(
        "hypothetical trees: {misses} misses; {per:.1} re-settled vertices per miss \
         ({resettled} in all); {searches} full searches started by misses; \
         {pruned} keys left at their floor"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_from_lb_percent_math() {
        let lb = vec![100.0, 200.0];
        let arr = vec![110.0, 250.0];
        // (10% + 25%) / 2 = 17.5%.
        assert!((mean_diff_from_lb_percent(&arr, &lb) - 17.5).abs() < 1e-9);
    }

    #[test]
    fn reduction_of_lb_percent_math() {
        let lb = vec![100.0];
        let con = vec![110.0];
        let unc = vec![130.0];
        assert!((mean_reduction_of_lb_percent(&con, &unc, &lb) - 20.0).abs() < 1e-9);
    }
}
