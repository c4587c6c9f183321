//! Edge-selection comparison (§3.4 and the §3.5 area variant).
//!
//! Deletion candidates are compared lexicographically. The delay criteria
//! come first (an edge whose deletion hurts timing less is preferred);
//! when they tie, the five density conditions are examined in order:
//!
//! 1. a trunk edge is preferred over a branch edge (deleting a trunk
//!    directly reduces channel density),
//! 2. smaller `F_m(c,e) = C_m(c) − D_m(e)`,
//! 3. smaller `N_m(c,e) = NC_m(c) − ND_m(e)`,
//! 4. smaller `C_M(c) − D_M(e)`,
//! 5. smaller `NC_M(c) − ND_M(e)`;
//!
//! if still even, the **longer** edge is selected. A final id comparison
//! makes selection fully deterministic.

use std::cmp::Ordering;

use bgr_netlist::NetId;

use crate::config::CriteriaOrder;
use crate::criteria::DelayCriteria;

/// Everything the comparator needs about one candidate edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeKey {
    /// Delay criteria (`C_d`, `Gl`, `LD`).
    pub delay: DelayCriteria,
    /// Whether the edge is a trunk.
    pub is_trunk: bool,
    /// `C_m(c) − D_m(e)` (condition 2); 0 for edges without a channel.
    pub f_min: i32,
    /// `NC_m(c) − ND_m(e)` (condition 3).
    pub n_min: i32,
    /// `C_M(c) − D_M(e)` (condition 4).
    pub f_max: i32,
    /// `NC_M(c) − ND_M(e)` (condition 5).
    pub n_max: i32,
    /// Edge length in µm (final preference: longer wins).
    pub len_um: f64,
    /// Owning net (determinism tiebreak).
    pub net: NetId,
    /// Edge index within the net (determinism tiebreak).
    pub edge: u32,
}

/// The tolerance within which `Gl` and `LD` compare equal. Lengths need
/// none: they lie on a 2⁻¹⁰ µm grid, so two differ by at least that much
/// or not at all, and compare exactly.
const EPS: f64 = 1e-9;

fn cmp_f64(a: f64, b: f64) -> Ordering {
    if (a - b).abs() <= EPS {
        Ordering::Equal
    } else {
        a.total_cmp(&b)
    }
}

fn cmp_delay(a: &EdgeKey, b: &EdgeKey) -> Ordering {
    a.delay
        .cd
        .cmp(&b.delay.cd)
        .then_with(|| cmp_f64(a.delay.gl, b.delay.gl))
        .then_with(|| cmp_f64(a.delay.ld, b.delay.ld))
}

fn cmp_density(a: &EdgeKey, b: &EdgeKey) -> Ordering {
    // Trunk preferred: `true` should come first, i.e. compare !is_trunk.
    (!a.is_trunk)
        .cmp(&!b.is_trunk)
        .then_with(|| a.f_min.cmp(&b.f_min))
        .then_with(|| a.n_min.cmp(&b.n_min))
        .then_with(|| a.f_max.cmp(&b.f_max))
        .then_with(|| a.n_max.cmp(&b.n_max))
}

fn cmp_tail(a: &EdgeKey, b: &EdgeKey) -> Ordering {
    // Longer edge preferred -> reverse length comparison; then ids.
    b.len_um
        .total_cmp(&a.len_um)
        .then_with(|| a.net.cmp(&b.net))
        .then_with(|| a.edge.cmp(&b.edge))
}

/// Total order on candidates: `Less` means "select `a` before `b`".
pub fn compare(a: &EdgeKey, b: &EdgeKey, order: CriteriaOrder) -> Ordering {
    match order {
        CriteriaOrder::DelayFirst => cmp_delay(a, b)
            .then_with(|| cmp_density(a, b))
            .then_with(|| cmp_tail(a, b)),
        CriteriaOrder::AreaFirst => a
            .delay
            .cd
            .cmp(&b.delay.cd)
            .then_with(|| cmp_density(a, b))
            .then_with(|| cmp_f64(a.delay.gl, b.delay.gl))
            .then_with(|| cmp_f64(a.delay.ld, b.delay.ld))
            .then_with(|| cmp_tail(a, b)),
        CriteriaOrder::DensityOnly => cmp_density(a, b).then_with(|| cmp_tail(a, b)),
    }
}

/// The first-wins minimum rule every selection scan and tournament
/// shares: `key` displaces the running minimum `best` only when it
/// ranks strictly before it, so of two candidates [`compare`] cannot
/// separate the one scanned first wins (DESIGN.md §10).
pub(crate) fn ranks_first(key: &EdgeKey, best: Option<&EdgeKey>, order: CriteriaOrder) -> bool {
    best.is_none_or(|b| compare(key, b, order) == Ordering::Less)
}

/// Which comparison tier of [`compare`] decided a selection — the
/// *decision provenance* attached to every `DeletionSelected` trace
/// event. A selection's provenance is computed against the runner-up
/// **champion** (the best candidate of any other net), which both
/// selection strategies agree on, so provenance is deterministic and
/// strategy-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DecidingTier {
    /// `C_d(e)` — the count of constraints driven non-positive.
    Cd,
    /// `Gl(e)` — the global penalty increase.
    Gl,
    /// `LD(e)` — the total arc-delay increase.
    Ld,
    /// Trunk-over-branch preference (density condition 1).
    TrunkPref,
    /// `C_m(c) − D_m(e)` (density condition 2).
    DMin,
    /// `NC_m(c) − ND_m(e)` (density condition 3).
    NdMin,
    /// `C_M(c) − D_M(e)` (density condition 4).
    DMax,
    /// `NC_M(c) − ND_M(e)` (density condition 5).
    NdMax,
    /// Longer-edge preference.
    Length,
    /// Net/edge id tie-break (full criteria tie).
    IdTieBreak,
    /// No runner-up existed (last deletable candidate in scope).
    OnlyCandidate,
}

impl DecidingTier {
    /// Every tier, in `DelayFirst` comparison order.
    pub const ALL: [DecidingTier; 11] = [
        DecidingTier::Cd,
        DecidingTier::Gl,
        DecidingTier::Ld,
        DecidingTier::TrunkPref,
        DecidingTier::DMin,
        DecidingTier::NdMin,
        DecidingTier::DMax,
        DecidingTier::NdMax,
        DecidingTier::Length,
        DecidingTier::IdTieBreak,
        DecidingTier::OnlyCandidate,
    ];

    /// Stable snake_case label (used by the JSONL schema).
    pub fn label(self) -> &'static str {
        match self {
            DecidingTier::Cd => "cd",
            DecidingTier::Gl => "gl",
            DecidingTier::Ld => "ld",
            DecidingTier::TrunkPref => "trunk_pref",
            DecidingTier::DMin => "d_min",
            DecidingTier::NdMin => "nd_min",
            DecidingTier::DMax => "d_max",
            DecidingTier::NdMax => "nd_max",
            DecidingTier::Length => "length",
            DecidingTier::IdTieBreak => "id_tie_break",
            DecidingTier::OnlyCandidate => "only_candidate",
        }
    }
}

/// Attributes a comparison between `a` and `b` to the first tier of
/// [`compare`]'s lexicographic chain (under `order`) that returned a
/// non-`Equal` answer. Falls back to [`DecidingTier::IdTieBreak`] when
/// the keys are fully identical (unreachable for distinct candidates —
/// ids make the order total).
pub fn deciding_tier(a: &EdgeKey, b: &EdgeKey, order: CriteriaOrder) -> DecidingTier {
    let cd = (a.delay.cd.cmp(&b.delay.cd), DecidingTier::Cd);
    let gl = (cmp_f64(a.delay.gl, b.delay.gl), DecidingTier::Gl);
    let ld = (cmp_f64(a.delay.ld, b.delay.ld), DecidingTier::Ld);
    let trunk = ((!a.is_trunk).cmp(&!b.is_trunk), DecidingTier::TrunkPref);
    let d_min = (a.f_min.cmp(&b.f_min), DecidingTier::DMin);
    let nd_min = (a.n_min.cmp(&b.n_min), DecidingTier::NdMin);
    let d_max = (a.f_max.cmp(&b.f_max), DecidingTier::DMax);
    let nd_max = (a.n_max.cmp(&b.n_max), DecidingTier::NdMax);
    let len = (b.len_um.total_cmp(&a.len_um), DecidingTier::Length);
    let id = (
        a.net.cmp(&b.net).then_with(|| a.edge.cmp(&b.edge)),
        DecidingTier::IdTieBreak,
    );
    let chain: [(Ordering, DecidingTier); 10] = match order {
        CriteriaOrder::DelayFirst => [cd, gl, ld, trunk, d_min, nd_min, d_max, nd_max, len, id],
        CriteriaOrder::AreaFirst => [cd, trunk, d_min, nd_min, d_max, nd_max, gl, ld, len, id],
        // Delay tiers never decide: pad the chain with the id tie-break.
        CriteriaOrder::DensityOnly => [trunk, d_min, nd_min, d_max, nd_max, len, id, id, id, id],
    };
    chain
        .iter()
        .find(|(o, _)| *o != Ordering::Equal)
        .map(|&(_, t)| t)
        .unwrap_or(DecidingTier::IdTieBreak)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EdgeKey {
        EdgeKey {
            delay: DelayCriteria::default(),
            is_trunk: true,
            f_min: 0,
            n_min: 0,
            f_max: 0,
            n_max: 0,
            len_um: 10.0,
            net: NetId::new(0),
            edge: 0,
        }
    }

    #[test]
    fn smaller_cd_wins_first() {
        let mut a = base();
        let mut b = base();
        a.delay.cd = 0;
        b.delay.cd = 2;
        // Even if b is much better on density:
        b.f_max = -100;
        assert_eq!(compare(&a, &b, CriteriaOrder::DelayFirst), Ordering::Less);
    }

    #[test]
    fn gl_breaks_cd_ties() {
        let mut a = base();
        let mut b = base();
        a.delay.gl = 0.1;
        b.delay.gl = 0.5;
        assert_eq!(compare(&a, &b, CriteriaOrder::DelayFirst), Ordering::Less);
        assert_eq!(
            compare(&b, &a, CriteriaOrder::DelayFirst),
            Ordering::Greater
        );
    }

    #[test]
    fn trunk_preferred_over_branch_on_delay_tie() {
        let mut a = base();
        let mut b = base();
        a.is_trunk = false;
        b.is_trunk = true;
        assert_eq!(compare(&b, &a, CriteriaOrder::DelayFirst), Ordering::Less);
    }

    #[test]
    fn density_conditions_in_order() {
        let mut a = base();
        let mut b = base();
        a.f_min = 1;
        b.f_min = 2;
        assert_eq!(compare(&a, &b, CriteriaOrder::DelayFirst), Ordering::Less);
        // n_min only matters when f_min ties.
        a.f_min = 2;
        a.n_min = 0;
        b.n_min = 5;
        assert_eq!(compare(&a, &b, CriteriaOrder::DelayFirst), Ordering::Less);
    }

    #[test]
    fn longer_edge_wins_final_tie() {
        let mut a = base();
        let mut b = base();
        a.len_um = 50.0;
        b.len_um = 10.0;
        assert_eq!(compare(&a, &b, CriteriaOrder::DelayFirst), Ordering::Less);
    }

    #[test]
    fn ids_make_order_total() {
        let a = base();
        let mut b = base();
        b.edge = 1;
        assert_eq!(compare(&a, &b, CriteriaOrder::DelayFirst), Ordering::Less);
        assert_eq!(compare(&a, &a, CriteriaOrder::DelayFirst), Ordering::Equal);
    }

    #[test]
    fn area_order_checks_density_before_gl() {
        let mut a = base();
        let mut b = base();
        // a is worse on Gl but better on density.
        a.delay.gl = 5.0;
        a.f_max = -1;
        b.delay.gl = 0.0;
        b.f_max = 3;
        assert_eq!(compare(&a, &b, CriteriaOrder::AreaFirst), Ordering::Less);
        assert_eq!(
            compare(&a, &b, CriteriaOrder::DelayFirst),
            Ordering::Greater
        );
    }

    #[test]
    fn density_only_ignores_delay() {
        let mut a = base();
        let mut b = base();
        a.delay.cd = 9;
        b.delay.cd = 0;
        a.f_min = -1;
        assert_eq!(compare(&a, &b, CriteriaOrder::DensityOnly), Ordering::Less);
    }

    /// Hand-built pairs where each tier, in order, is the first
    /// discriminating criterion under `DelayFirst`.
    #[test]
    fn provenance_attributes_every_tier() {
        use DecidingTier as T;
        let order = CriteriaOrder::DelayFirst;
        // (mutator of the *winning* key, expected tier); each case also
        // perturbs a later tier to prove the earlier one is credited.
        type Mutator = Box<dyn Fn(&mut EdgeKey)>;
        let cases: Vec<(Mutator, T)> = vec![
            (
                Box::new(|k: &mut EdgeKey| {
                    k.delay.cd = 0;
                }),
                T::Cd,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.delay.gl = -1.0;
                }),
                T::Gl,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.delay.ld = -1.0;
                }),
                T::Ld,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.is_trunk = true;
                }),
                T::TrunkPref,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.f_min = -5;
                }),
                T::DMin,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.n_min = -5;
                }),
                T::NdMin,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.f_max = -5;
                }),
                T::DMax,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.n_max = -5;
                }),
                T::NdMax,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.len_um = 99.0;
                }),
                T::Length,
            ),
            (
                Box::new(|k: &mut EdgeKey| {
                    k.edge = 0;
                }),
                T::IdTieBreak,
            ),
        ];
        for (mutate, expected) in cases {
            // The loser is "worse from this tier down": cd=1 vs 0 keeps
            // earlier tiers tied in later cases because both start at 1.
            let mut loser = base();
            loser.delay.cd = 1;
            loser.is_trunk = false;
            loser.edge = 7;
            let mut winner = loser;
            mutate(&mut winner);
            assert_eq!(
                deciding_tier(&winner, &loser, order),
                expected,
                "expected {expected:?}"
            );
            assert_eq!(
                compare(&winner, &loser, order),
                Ordering::Less,
                "winner must win at {expected:?}"
            );
        }
    }

    #[test]
    fn provenance_respects_area_first_reordering() {
        // Better Gl but worse density: density decides under AreaFirst,
        // Gl under DelayFirst.
        let mut a = base();
        let mut b = base();
        a.delay.gl = 5.0;
        a.f_max = -1;
        b.delay.gl = 0.0;
        b.f_max = 3;
        assert_eq!(
            deciding_tier(&a, &b, CriteriaOrder::AreaFirst),
            DecidingTier::DMax
        );
        assert_eq!(
            deciding_tier(&a, &b, CriteriaOrder::DelayFirst),
            DecidingTier::Gl
        );
        // DensityOnly never attributes to a delay tier.
        let mut c = base();
        c.delay.cd = 9;
        assert_eq!(
            deciding_tier(&c, &base(), CriteriaOrder::DensityOnly),
            DecidingTier::IdTieBreak
        );
    }

    /// The attributed tier always agrees with `compare`: the ordering at
    /// the deciding tier *is* the comparison's result.
    #[test]
    fn provenance_is_consistent_with_compare() {
        let orders = [
            CriteriaOrder::DelayFirst,
            CriteriaOrder::AreaFirst,
            CriteriaOrder::DensityOnly,
        ];
        // Small cartesian sweep over discriminating fields.
        let mut keys = Vec::new();
        for cd in [0u32, 1] {
            for gl in [0.0, 0.5] {
                for trunk in [false, true] {
                    for f_min in [0, 2] {
                        for len in [10.0, 20.0] {
                            let mut k = base();
                            k.delay.cd = cd;
                            k.delay.gl = gl;
                            k.is_trunk = trunk;
                            k.f_min = f_min;
                            k.len_um = len;
                            k.edge = keys.len() as u32;
                            keys.push(k);
                        }
                    }
                }
            }
        }
        for order in orders {
            for a in &keys {
                for b in &keys {
                    let tier = deciding_tier(a, b, order);
                    let cmp = compare(a, b, order);
                    if std::ptr::eq(a, b) {
                        continue;
                    }
                    // Symmetry: swapping operands flips the ordering but
                    // keeps the attributed tier.
                    assert_eq!(deciding_tier(b, a, order), tier);
                    assert_eq!(compare(b, a, order), cmp.reverse());
                    // Ids differ, so some tier always decides.
                    assert_ne!(cmp, Ordering::Equal);
                }
            }
        }
    }
}
