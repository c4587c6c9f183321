//! Adversarial fault-injection / fuzz harness.
//!
//! Drives the router over a fixed 256-seed range of adversarial
//! instances (`bgr::gen::adversarial`) and asserts the fault-tolerance
//! contract (DESIGN.md §11):
//!
//! 1. no panic escapes `route_checked` — ever;
//! 2. every failure is a structured `RouteError`;
//! 3. `BestEffort` always returns `Routed` with a valid forest of trees;
//! 4. `Fail` and `BestEffort` agree: same trees, and `Fail` errors with
//!    exactly the report `BestEffort` attaches;
//! 5. the seed range contains over-constrained instances, and on every
//!    one of them `Fail` errors while `BestEffort` reports;
//! 6. budget-limited routes still end in trees;
//! 7. injected probe faults surface as `RouteError::Internal` carrying
//!    the fault marker.
//!
//! 8. every `BestEffort` result passes the full independent audit
//!    (`bgr::verify`, DESIGN.md §12) — all six from-scratch oracles.
//! 9. after every selection (`VerifyLevel::Steps(1)`, DESIGN.md §8),
//!    reused hypothetical tentative trees match full searches, every
//!    alive edge's bridge flag from the one-pass deletion matches a
//!    whole-graph low-link, and no dangling chain is left unpruned.
//!
//! On any violated expectation the failing seed is written to
//! `target/fuzz/failing_seed.txt` (the CI `fuzz-smoke` job uploads it as
//! a repro artifact) before the test panics. Differential failures are
//! first delta-debugged (`bgr::gen::shrink_case`): nets and constraints
//! are dropped while the check still fails, and the minimized shape —
//! counts plus the surviving constraint names — is appended to the
//! artifact so the repro starts small.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bgr::gen::{adversarial_case, shrink_case, AdversarialCase};
use bgr::netlist::NetId;
use bgr::router::{
    Budgets, Fault, FaultProbe, GlobalRouter, OnViolation, Phase, RouteError, Routed, RouterConfig,
    Segment, VerifyLevel, FAULT_MARKER,
};

const SEEDS: std::ops::Range<u64> = 0..256;

/// Records the first failing seed for the CI repro artifact.
fn record_failure(seed: u64, what: &str) {
    let dir = std::path::Path::new("target/fuzz");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join("failing_seed.txt"),
        format!("seed={seed}\nreason={what}\nrepro: adversarial_case({seed})\n"),
    );
}

/// As [`record_failure`], but first delta-debugs the case down to a
/// minimal repro (`bgr::gen::shrink_case`): nets and constraints are
/// dropped while the differential check still fails, and the minimized
/// shape is appended to the artifact. Shrinking re-routes many reduced
/// candidates, so this only runs on the (fatal) failure path.
fn record_shrunk_failure(seed: u64, what: &str, case: &AdversarialCase) {
    let report = shrink_case(case, |cand| {
        // Any outcome other than "the check fails" — including a panic
        // in the harness itself — rejects the candidate.
        matches!(
            catch_unwind(AssertUnwindSafe(|| check_seed(cand).is_err())),
            Ok(true)
        )
    });
    let dir = std::path::Path::new("target/fuzz");
    let _ = std::fs::create_dir_all(dir);
    let survivors: Vec<&str> = report
        .case
        .design
        .constraints
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    let _ = std::fs::write(
        dir.join("failing_seed.txt"),
        format!(
            "seed={seed}\nreason={what}\nrepro: adversarial_case({seed})\n\
             {}\nminimal constraints: {survivors:?}\n",
            report.summary()
        ),
    );
}

/// Asserts `routed` is a valid forest: one tree per net, every tree taps
/// exactly its net's terminals, and the widened placement still
/// validates.
fn assert_valid_forest(routed: &Routed) -> Result<(), String> {
    if routed.result.trees.len() != routed.circuit.nets().len() {
        return Err("tree count != net count".into());
    }
    for (i, tree) in routed.result.trees.iter().enumerate() {
        let net = routed.circuit.net(NetId::new(i));
        let mut tapped: Vec<_> = tree
            .segments
            .iter()
            .filter_map(|s| match s {
                Segment::Branch { term, .. } => Some(*term),
                _ => None,
            })
            .collect();
        tapped.sort();
        tapped.dedup();
        let mut wanted: Vec<_> = net.terms().collect();
        wanted.sort();
        if tapped != wanted {
            return Err(format!("net {i} tree taps wrong terminal set"));
        }
    }
    routed
        .placement
        .validate(&routed.circuit)
        .map_err(|e| format!("placement invalid after route: {e}"))
}

fn config(on_violation: OnViolation) -> RouterConfig {
    RouterConfig {
        on_violation,
        ..RouterConfig::default()
    }
}

/// The per-seed differential check. Returns whether the instance was
/// over-constrained (for the coverage assertion), or a description of
/// the violated expectation.
fn check_seed(case: &AdversarialCase) -> Result<bool, String> {
    let route = |ov: OnViolation| {
        GlobalRouter::new(config(ov)).route_checked(
            case.design.circuit.clone(),
            case.placement.clone(),
            case.design.constraints.clone(),
        )
    };
    let strict = route(OnViolation::Fail);
    let lax = route(OnViolation::BestEffort);

    // (3) BestEffort always completes with a valid forest.
    let lax = match lax {
        Ok(routed) => {
            assert_valid_forest(&routed)?;
            routed
        }
        Err(e) => return Err(format!("BestEffort failed: {e}")),
    };

    // (8) ... and the result is certified by the independent auditor.
    let report = bgr::verify::audit(
        &lax.circuit,
        &lax.placement,
        &case.design.constraints,
        &config(OnViolation::BestEffort),
        &lax.result,
    );
    if let Some(f) = report.first_failure() {
        return Err(format!("independent audit failed: {f}"));
    }

    // (4) Fail agrees with BestEffort.
    let overconstrained = match strict {
        Ok(routed) => {
            if lax.result.violations.is_some() {
                return Err("Fail succeeded but BestEffort reported violations".into());
            }
            if routed.result.trees != lax.result.trees {
                return Err("Fail and BestEffort disagree on trees".into());
            }
            false
        }
        Err(RouteError::ConstraintsUnsatisfied(report)) => {
            if report.is_empty() {
                return Err("Fail errored with an empty violation report".into());
            }
            match &lax.result.violations {
                Some(lax_report) if *lax_report == report => true,
                Some(_) => return Err("Fail and BestEffort reports differ".into()),
                None => return Err("Fail errored but BestEffort reported nothing".into()),
            }
        }
        Err(e) => return Err(format!("Fail errored non-structurally: {e}")),
    };

    // (5) By-construction infeasible instances must be caught.
    if case.expect_overconstrained && !overconstrained {
        return Err("expected over-constrained instance was not flagged".into());
    }
    Ok(overconstrained)
}

#[test]
fn fuzz_differential_over_adversarial_seeds() {
    let mut overconstrained = 0usize;
    for seed in SEEDS {
        // (1)+(2): nothing in case generation or the differential check
        // may panic; `route_checked` inside converts router panics to
        // structured errors, and this boundary catches harness bugs.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let case = adversarial_case(seed);
            check_seed(&case)
        }));
        match outcome {
            Ok(Ok(true)) => overconstrained += 1,
            Ok(Ok(false)) => {}
            Ok(Err(why)) => {
                record_shrunk_failure(seed, &why, &adversarial_case(seed));
                panic!("seed {seed}: {why}");
            }
            Err(_) => {
                record_failure(seed, "panic escaped the harness");
                panic!("seed {seed}: panic escaped");
            }
        }
    }
    // (5) The seed range must actually exercise the degradation path.
    assert!(
        overconstrained >= 1,
        "no over-constrained instance in {SEEDS:?}"
    );
}

#[test]
fn fuzz_budgeted_routes_still_yield_trees() {
    // A sparse subset (the full differential already covers the seeds):
    // tight deterministic budgets must degrade, never corrupt.
    for seed in SEEDS.filter(|s| s % 16 == 3) {
        let case = adversarial_case(seed);
        let config = RouterConfig {
            budgets: Budgets {
                deletion_steps: Some(1 + seed % 40),
                phase_reroutes: Some(seed % 4),
            },
            ..RouterConfig::default()
        };
        match GlobalRouter::new(config).route_checked(
            case.design.circuit.clone(),
            case.placement.clone(),
            case.design.constraints.clone(),
        ) {
            Ok(routed) => {
                if let Err(why) = assert_valid_forest(&routed) {
                    record_failure(seed, &why);
                    panic!("seed {seed} (budgeted): {why}");
                }
            }
            Err(e) => {
                record_failure(seed, &format!("budgeted route failed: {e}"));
                panic!("seed {seed} (budgeted): {e}");
            }
        }
    }
}

#[test]
fn fuzz_injected_faults_become_internal_errors() {
    // (7) Each fault either trips (Internal carrying the marker) or its
    // threshold is past the run's work (clean success) — nothing else.
    let mut tripped = 0usize;
    for seed in SEEDS.filter(|s| s % 32 == 5) {
        let case = adversarial_case(seed);
        let fault = match seed % 4 {
            0 => Fault::PanicAtEvent(seed % 200),
            1 => Fault::PanicAtRekey(seed % 100),
            2 => Fault::PanicAtDensityRead(seed % 5000),
            _ => Fault::PanicAtPhaseEnter(Phase::InitialRouting),
        };
        let outcome = GlobalRouter::new(RouterConfig::default()).route_checked_with_probe(
            case.design.circuit.clone(),
            case.placement.clone(),
            case.design.constraints.clone(),
            FaultProbe::new(fault),
        );
        match outcome {
            Ok(_) => {}
            Err(RouteError::Internal { phase, message }) => {
                if !message.contains(FAULT_MARKER) {
                    record_failure(seed, &format!("non-injected internal error: {message}"));
                    panic!("seed {seed}: Internal without marker: {message} (phase {phase})");
                }
                tripped += 1;
            }
            Err(e) => {
                record_failure(seed, &format!("fault surfaced as wrong variant: {e}"));
                panic!("seed {seed}: expected Internal, got {e}");
            }
        }
    }
    assert!(tripped >= 1, "no injected fault ever tripped");
}

#[test]
fn fuzz_hypothetical_trees_match_full_searches() {
    // (9) After every selection the engine's self-audit recomputes each
    // deletable edge's hypothetical tentative length with a full search
    // and compares it, bit for bit, with the one the scan uses (cached
    // across deletions, shared with the current tree, or re-settled
    // from the current search). A mismatch panics inside the router and
    // surfaces as `RouteError::Internal`.
    for seed in SEEDS.filter(|s| s % 8 == 1) {
        let case = adversarial_case(seed);
        let config = RouterConfig {
            verify: VerifyLevel::Steps(1),
            ..config(OnViolation::BestEffort)
        };
        if let Err(e) = GlobalRouter::new(config).route_checked(
            case.design.circuit.clone(),
            case.placement.clone(),
            case.design.constraints.clone(),
        ) {
            record_failure(seed, &format!("step-audited route failed: {e}"));
            panic!("seed {seed} (Steps(1)): {e}");
        }
    }
}
