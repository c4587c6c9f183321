//! Structured observability for the deletion engine.
//!
//! The router is a long sequence of heuristic decisions — ranked
//! criterion comparisons (§3.3–§3.4), three rip-up phases (§4.2),
//! feed-cell insertion (§4.3) — and every performance hypothesis about
//! it (cached heap tops, tighter density invalidation) is an argument about *which* of those decisions
//! dominate. This module defines the instrumentation contract that
//! makes them measurable without giving up the engine's two core
//! properties:
//!
//! * **Zero cost when off.** [`Probe`] is statically dispatched and the
//!   default [`NoopProbe`] has empty inline bodies plus
//!   [`Probe::ENABLED`]` == false`, so instrumented call sites (and any
//!   extra work done *only* to feed the probe, like runner-up tracking
//!   for decision provenance) compile away entirely.
//! * **Determinism.** The [`TraceEvent`] stream is a pure function of
//!   the inputs and the configuration: it contains no wall-clock, no
//!   allocation addresses, and nothing strategy-dependent — the
//!   [`crate::SelectionStrategy::FullRescan`] oracle and the default
//!   scoreboard emit **identical** event streams (proven by
//!   `tests/trace_determinism.rs`). Wall-clock lives only in
//!   [`PhaseSpan`]s, and strategy-dependent diagnostics (re-keys, heap
//!   pops, cache hits) live only in [`Counter`]s / [`Hist`]ograms.
//!
//! [`CollectingProbe`] records everything into a [`RouteTrace`];
//! `bgr_io::write_trace_jsonl` serializes it and `bgr_io::TraceStats`
//! digests the serialized document for humans and tools.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bgr_netlist::NetId;

use crate::select::DecidingTier;

/// The router's instrumented phases (Fig. 2 lines 01, 02, 04–07, 08,
/// 09, 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Feedthrough assignment with §4.3 feed-cell insertion (line 01).
    FeedAssign,
    /// Routing-graph construction, density probe pass and STA build
    /// (lines 02–03).
    GraphBuild,
    /// The main deletion loop (lines 04–07).
    InitialRouting,
    /// Constraint-violation recovery (§3.5 phase 1, line 08).
    RecoverViolate,
    /// Delay improvement (§3.5 phase 2, line 09).
    ImproveDelay,
    /// Area improvement (§3.5 phase 3, line 10).
    ImproveArea,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::FeedAssign,
        Phase::GraphBuild,
        Phase::InitialRouting,
        Phase::RecoverViolate,
        Phase::ImproveDelay,
        Phase::ImproveArea,
    ];

    /// Stable snake_case label (used by the JSONL schema).
    pub fn label(self) -> &'static str {
        match self {
            Phase::FeedAssign => "feed_assign",
            Phase::GraphBuild => "graph_build",
            Phase::InitialRouting => "initial_routing",
            Phase::RecoverViolate => "recover_violate",
            Phase::ImproveDelay => "improve_delay",
            Phase::ImproveArea => "improve_area",
        }
    }
}

/// Why the scoreboard re-keyed a net after a deletion (the dirty-set
/// clauses of the invalidation contract — see `Engine::run_deletion`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RekeyCause {
    /// The net's own graph changed (deleted net or cascaded partner).
    Graph,
    /// The net's trunk interval overlaps a touched density span (its
    /// window query reads the mutated profile).
    SpanOverlap,
    /// The net belongs to a constraint whose margins were refreshed.
    Constraint,
}

impl RekeyCause {
    /// Every cause, in dirty-set derivation order.
    pub const ALL: [RekeyCause; 3] = [
        RekeyCause::Graph,
        RekeyCause::SpanOverlap,
        RekeyCause::Constraint,
    ];

    /// Stable snake_case label (used by the JSONL schema).
    pub fn label(self) -> &'static str {
        match self {
            RekeyCause::Graph => "graph",
            RekeyCause::SpanOverlap => "span_overlap",
            RekeyCause::Constraint => "constraint",
        }
    }

    /// The aggregated counter this cause feeds.
    pub fn counter(self) -> Counter {
        match self {
            RekeyCause::Graph => Counter::RekeyGraph,
            RekeyCause::SpanOverlap => Counter::RekeySpan,
            RekeyCause::Constraint => Counter::RekeyConstraint,
        }
    }
}

/// A profiled sub-phase scope of the hot path.
///
/// Scopes are the profiler's vocabulary: nestable wall-clock brackets
/// *inside* a [`Phase`], emitted via [`Probe::scope_enter`] /
/// [`Probe::scope_exit`] only when [`Probe::PROFILING`] is on. Like
/// phase spans, scope timings are diagnostics — wall-clock stays
/// confined to the probe and never enters the deterministic
/// [`TraceEvent`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Selection: popping (and stale-draining) the next valid deletion
    /// candidate from the scoreboard.
    Select,
    /// Applying the selected deletion: edge removal, differential
    /// cascade, dangling-chain pruning and density mutation.
    DeleteModify,
    /// Deriving the dirty set from the invalidation contract's clauses.
    DeriveDirty,
    /// Re-keying champions over the dirty set (the dominant cost at
    /// paper scale: hypothetical tentative trees under `rekey:graph`).
    Rekey,
    /// Re-keying attributed to one [`RekeyCause`] — children of
    /// [`Scope::Rekey`] under a profiling probe.
    RekeyFor(RekeyCause),
    /// One guarded reroute attempt in an improvement phase.
    Reroute,
    /// An in-engine self-audit (`VerifyLevel::Phases`/`Steps`).
    Audit,
}

impl Scope {
    /// Stable label (used by the folded-stack output and the profile
    /// tree).
    pub fn label(self) -> &'static str {
        match self {
            Scope::Select => "select",
            Scope::DeleteModify => "delete_modify",
            Scope::DeriveDirty => "derive_dirty",
            Scope::Rekey => "rekey",
            Scope::RekeyFor(RekeyCause::Graph) => "rekey:graph",
            Scope::RekeyFor(RekeyCause::SpanOverlap) => "rekey:span_overlap",
            Scope::RekeyFor(RekeyCause::Constraint) => "rekey:constraint",
            Scope::Reroute => "reroute",
            Scope::Audit => "audit",
        }
    }
}

/// One deterministic, strategy-independent decision of the router.
///
/// Net/edge ids, counts and [`DecidingTier`]s only — never wall-clock,
/// never anything the selection strategy is free to vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A phase began (marker; the clock reading stays in the probe).
    PhaseEnter {
        /// The phase.
        phase: Phase,
    },
    /// A phase ended.
    PhaseExit {
        /// The phase.
        phase: Phase,
    },
    /// The deletion loop selected `(net, edge)`; `tier` is the decision
    /// provenance — the criterion that separated the winner from the
    /// runner-up champion (see [`crate::select::deciding_tier`]).
    DeletionSelected {
        /// Winning net.
        net: NetId,
        /// Winning edge index within the net.
        edge: u32,
        /// Which comparison tier decided the selection.
        tier: DecidingTier,
    },
    /// A selection cascaded to the differential partner (§4.1).
    CascadeDeleted {
        /// Partner net.
        net: NetId,
        /// Mirrored edge index.
        edge: u32,
    },
    /// Dangling-chain pruning removed `count` further edges of `net`.
    Pruned {
        /// Pruned net.
        net: NetId,
        /// Edges removed by the prune.
        count: u32,
    },
    /// A deletion left `net`'s routing graph a spanning tree.
    NetBecameTree {
        /// The finished net.
        net: NetId,
    },
    /// An improvement-phase reroute of `net` was kept.
    RerouteAccepted {
        /// Rerouted net.
        net: NetId,
    },
    /// An improvement-phase reroute of `net` regressed and was reverted.
    RerouteRejected {
        /// Reverted net.
        net: NetId,
    },
    /// Feed-cell insertion (§4.3) placed a group of `width` single-pitch
    /// feed cells at column `x` of `row`.
    FeedCellsInserted {
        /// Target row.
        row: u32,
        /// Insertion column in pitches.
        x: i32,
        /// Cells in the group (the flagged width).
        width: u32,
    },
    /// A deterministic step budget ([`crate::config::Budgets`]) ran out
    /// in `phase` after `steps` steps. Step counts are pure functions of
    /// the input, so this event fires at the same stream position in
    /// every run — unlike the wall-clock deadline, whose firings stay on
    /// the diagnostics side ([`Counter::DeadlineStop`]).
    BudgetExhausted {
        /// The phase whose budget ran out.
        phase: Phase,
        /// Steps spent when the ceiling was hit.
        steps: u64,
    },
    /// The post-budget fallback completion path deleted `(net, edge)` —
    /// the cheapest deterministic deletion (first alive non-bridge edge
    /// per net) that still drives every graph to a spanning tree.
    FallbackDeleted {
        /// Net being force-completed.
        net: NetId,
        /// Deleted edge index within the net.
        edge: u32,
    },
    /// An engine self-audit at a phase boundary
    /// ([`crate::config::VerifyLevel::Phases`] and up) recomputed the
    /// density profile and net lengths from scratch and found them
    /// consistent with the incremental state. Emitted only when
    /// verification is enabled, so [`crate::config::VerifyLevel::Off`]
    /// traces are byte-identical to pre-verifier ones.
    AuditPassed {
        /// The phase that just ended.
        phase: Phase,
        /// Individual comparisons performed (channels × aggregates +
        /// nets).
        checks: u64,
    },
    /// A mid-loop engine self-audit
    /// ([`crate::config::VerifyLevel::Steps`]) passed after `step`
    /// deletion selections.
    AuditStep {
        /// Deletion selections completed when the audit ran.
        step: u64,
        /// Individual comparisons performed.
        checks: u64,
    },
}

/// Monotonic work counters. Unlike [`TraceEvent`]s these are
/// *diagnostics*: they may legitimately differ between selection
/// strategies (the full rescan pushes no heap entries at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Candidate keys evaluated (one per deletable edge per champion
    /// scan).
    KeyEval,
    /// Scoreboard heap pushes.
    HeapPush,
    /// Scoreboard heap pops: one per selection the scoreboard makes.
    HeapPop,
    /// Always 0: the scoreboard holds one current key per (net, heap)
    /// and never discards a stale entry. Kept only for the benchmark's
    /// `core.stale_heap_pops` layer metric, until the benchmark stops
    /// reading it.
    StaleHeapPop,
    /// Re-keys caused by a changed graph (deleted net / partner).
    RekeyGraph,
    /// Re-keys caused by span overlap with a touched density span.
    RekeySpan,
    /// Re-keys caused by refreshed timing constraints.
    RekeyConstraint,
    /// Density window queries actually made (`edge_density` over a
    /// trunk interval); windows the scoreboard path reuses from its
    /// per-run cache are not counted.
    DensityWindowQuery,
    /// Density aggregate reads (`C_M/NC_M/C_m/NC_m` of a channel).
    DensityAggregateQuery,
    /// Hypothetical-wire cache hits.
    HypCacheHit,
    /// Hypothetical-wire cache misses (tentative-tree recomputations).
    HypCacheMiss,
    /// Vertices re-settled by those recomputations: the subtree each
    /// detached tree edge hangs, so `hyp_resettled / (hyp_cache_misses
    /// − hyp_repatched)` is the re-settled vertices per re-settle.
    /// Re-patched trees re-settle nothing.
    HypResettled,
    /// Delay-prefix memo hits: key evaluations that reused a memoized
    /// `C_d/Gl/LD` prefix and skipped the hypothetical-wire path
    /// entirely.
    DelayMemoHit,
    /// Delay-prefix memo misses (full delay-criteria evaluations). Every
    /// miss performs exactly one hypothetical-wire lookup, so
    /// `delay_memo_misses == hyp_cache_hits + hyp_cache_misses`.
    DelayMemoMiss,
    /// Scoreboard heap tops recomposed at pop time: one per heap whose
    /// cached top a stored key, a removal or the previous pop had
    /// dirtied. (The `shard_rebuilds` label predates the per-heap
    /// cache.)
    ShardRebuild,
    /// Improvement-phase stops forced by the wall-clock deadline
    /// (`RouterConfig::deadline`). Inherently machine-dependent, which
    /// is exactly why deadline firings are a counter and not a
    /// [`TraceEvent`].
    DeadlineStop,
    /// Of the hypothetical-wire cache misses, those answered from a
    /// carried detour by patching the union alone, re-settling nothing
    /// (`ShortestPaths::repatch`).
    HypRepatched,
}

impl Counter {
    /// Number of counters (array dimension).
    pub const COUNT: usize = 17;

    /// Every counter, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::KeyEval,
        Counter::HeapPush,
        Counter::HeapPop,
        Counter::StaleHeapPop,
        Counter::RekeyGraph,
        Counter::RekeySpan,
        Counter::RekeyConstraint,
        Counter::DensityWindowQuery,
        Counter::DensityAggregateQuery,
        Counter::HypCacheHit,
        Counter::HypCacheMiss,
        Counter::HypResettled,
        Counter::DelayMemoHit,
        Counter::DelayMemoMiss,
        Counter::ShardRebuild,
        Counter::DeadlineStop,
        Counter::HypRepatched,
    ];

    /// Dense index into counter arrays: the declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label (used by the JSONL schema).
    pub fn label(self) -> &'static str {
        match self {
            Counter::KeyEval => "key_evals",
            Counter::HeapPush => "heap_pushes",
            Counter::HeapPop => "heap_pops",
            Counter::StaleHeapPop => "stale_heap_pops",
            Counter::RekeyGraph => "rekeys_graph",
            Counter::RekeySpan => "rekeys_span_overlap",
            Counter::RekeyConstraint => "rekeys_constraint",
            Counter::DensityWindowQuery => "density_window_queries",
            Counter::DensityAggregateQuery => "density_aggregate_queries",
            Counter::HypCacheHit => "hyp_cache_hits",
            Counter::HypCacheMiss => "hyp_cache_misses",
            Counter::HypResettled => "hyp_resettled",
            Counter::DelayMemoHit => "delay_memo_hits",
            Counter::DelayMemoMiss => "delay_memo_misses",
            Counter::ShardRebuild => "shard_rebuilds",
            Counter::DeadlineStop => "deadline_stops",
            Counter::HypRepatched => "hyp_repatched",
        }
    }
}

/// Fixed-bucket histograms (diagnostics, like [`Counter`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Nets re-keyed per deletion (dirty-set size).
    DirtySetSize,
}

/// Bucket count of every [`Hist`]: powers of two —
/// `0, 1, 2–3, 4–7, 8–15, 16–31, 32–63, ≥64`.
pub const HIST_BUCKETS: usize = 8;

impl Hist {
    /// Number of histograms (array dimension).
    pub const COUNT: usize = 1;

    /// Every histogram, in declaration order.
    pub const ALL: [Hist; Hist::COUNT] = [Hist::DirtySetSize];

    /// Dense index into histogram arrays: the declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label (used by the JSONL schema).
    pub fn label(self) -> &'static str {
        match self {
            Hist::DirtySetSize => "dirty_set_size",
        }
    }

    /// The bucket a value falls into.
    pub fn bucket(value: u64) -> usize {
        match value {
            0 => 0,
            1 => 1,
            2..=3 => 2,
            4..=7 => 3,
            8..=15 => 4,
            16..=31 => 5,
            32..=63 => 6,
            _ => 7,
        }
    }

    /// Human-readable range label of bucket `i`.
    pub fn bucket_label(i: usize) -> &'static str {
        ["0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", ">=64"][i]
    }
}

/// The instrumentation sink threaded through the router.
///
/// All methods have empty default bodies so implementations opt into
/// what they care about and future hooks don't break them. Statically
/// dispatched: routing with [`NoopProbe`] (the default) compiles every
/// call site away.
///
/// # Contract
///
/// * [`Probe::event`] receives only deterministic, strategy-independent
///   facts; implementations must not feed timing back into routing.
/// * [`Probe::count`] / [`Probe::sample`] / [`Probe::rekey`] receive
///   diagnostics that may differ between selection strategies.
/// * [`Probe::phase_enter`] / [`Probe::phase_exit`] are where an
///   implementation may read the wall clock; the engine itself never
///   does on the probe's behalf.
pub trait Probe {
    /// Whether this probe observes anything. Call sites use this to
    /// skip work performed *only* to feed the probe (runner-up
    /// tracking for provenance, tree checks, …); with the default
    /// `false` of [`NoopProbe`] those branches constant-fold away.
    const ENABLED: bool = true;

    /// Whether this probe profiles sub-phase [`Scope`]s. Call sites use
    /// this to skip work done *only* for time attribution (opening and
    /// closing scopes around each re-key); with the default `false`
    /// those branches constant-fold away, so non-profiling runs keep
    /// the exact hot path.
    const PROFILING: bool = false;

    /// A deterministic decision event.
    fn event(&mut self, _ev: TraceEvent) {}

    /// Adds `by` to a work counter.
    fn count(&mut self, _c: Counter, _by: u64) {}

    /// Records one histogram observation.
    fn sample(&mut self, _h: Hist, _value: u64) {}

    /// A scoreboard re-key of `net`, attributed to `cause`. The default
    /// forwards to the per-cause counter.
    fn rekey(&mut self, _net: NetId, cause: RekeyCause) {
        self.count(cause.counter(), 1);
    }

    /// A router phase began (the one place a probe should read a clock).
    fn phase_enter(&mut self, _phase: Phase) {}

    /// A router phase ended.
    fn phase_exit(&mut self, _phase: Phase) {}

    /// A profiled sub-phase scope began (nestable; see [`Scope`]). Only
    /// called on hot paths when [`Probe::PROFILING`] is on.
    fn scope_enter(&mut self, _scope: Scope) {}

    /// A profiled sub-phase scope ended.
    fn scope_exit(&mut self, _scope: Scope) {}

    /// Deterministic events recorded so far (phase markers included).
    /// Non-recording probes report 0. Checkpointing reads this to carry
    /// the global event-sequence position across suspensions, so a
    /// resumed session's trace lines continue at the right `seq`.
    fn events_len(&self) -> usize {
        0
    }

    /// A silent state corruption the engine should apply *now*, or
    /// `None`. Polled at deletion-loop hook points; only
    /// [`FaultProbe`] ever returns `Some`. One-shot corruptions
    /// ([`Corruption::FlipDensitySpan`]) are returned once; persistent
    /// ones ([`Corruption::StaleChampion`], [`Corruption::SkewDelay`])
    /// are returned every poll so restores can't wash them out.
    fn corruption(&mut self) -> Option<Corruption> {
        None
    }

    /// Whether this probe injects state corruption — engine
    /// self-consistency `debug_assert!`s are relaxed under it, so the
    /// corruption survives to the verifier it is meant to exercise.
    fn corrupting(&self) -> bool {
        false
    }
}

/// The zero-cost default probe: observes nothing, enables nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

/// Wall-clock and work profile of one completed phase.
///
/// The only place wall-clock appears in a trace; never part of the
/// deterministic event stream.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// The phase.
    pub phase: Phase,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Index into [`RouteTrace::events`] of the span's first interior
    /// event (after its `PhaseEnter` marker).
    pub events_start: usize,
    /// Interior events emitted during the span (markers excluded).
    pub events_len: usize,
    /// Counter deltas accumulated during the span.
    pub counters: [u64; Counter::COUNT],
}

/// Everything a [`CollectingProbe`] observed over one route.
#[derive(Debug, Clone)]
pub struct RouteTrace {
    /// The deterministic decision stream, in emission order.
    pub events: Vec<TraceEvent>,
    /// Final counter totals, indexed by [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// Histograms, indexed by [`Hist::index`] then bucket.
    pub hists: [[u64; HIST_BUCKETS]; Hist::COUNT],
    /// Completed phase spans, in completion order.
    pub spans: Vec<PhaseSpan>,
}

impl RouteTrace {
    /// Final value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Buckets of one histogram.
    pub fn hist(&self, h: Hist) -> &[u64; HIST_BUCKETS] {
        &self.hists[h.index()]
    }

    /// Number of `DeletionSelected` events (loop selections).
    pub fn selections(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DeletionSelected { .. }))
            .count()
    }

    /// Total edges deleted according to the event stream: selections
    /// plus cascades, fallback deletions and pruned counts. Equals
    /// `RouteStats::deletions`.
    pub fn deletions(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::DeletionSelected { .. }
                | TraceEvent::CascadeDeleted { .. }
                | TraceEvent::FallbackDeleted { .. } => 1,
                TraceEvent::Pruned { count, .. } => *count as usize,
                _ => 0,
            })
            .sum()
    }

    /// Selections attributed to each deciding tier, in
    /// [`DecidingTier::ALL`] order. Sums to [`RouteTrace::selections`].
    pub fn tier_breakdown(&self) -> Vec<(DecidingTier, usize)> {
        DecidingTier::ALL
            .iter()
            .map(|&t| {
                let n = self
                    .events
                    .iter()
                    .filter(
                        |e| matches!(e, TraceEvent::DeletionSelected { tier, .. } if *tier == t),
                    )
                    .count();
                (t, n)
            })
            .collect()
    }
}

struct OpenSpan {
    phase: Phase,
    started: Instant,
    counters_at_enter: [u64; Counter::COUNT],
    events_at_enter: usize,
}

/// A [`Probe`] that records everything into a [`RouteTrace`].
pub struct CollectingProbe {
    events: Vec<TraceEvent>,
    counters: [u64; Counter::COUNT],
    hists: [[u64; HIST_BUCKETS]; Hist::COUNT],
    spans: Vec<PhaseSpan>,
    open: Vec<OpenSpan>,
}

impl CollectingProbe {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self {
            events: Vec::new(),
            counters: [0; Counter::COUNT],
            hists: [[0; HIST_BUCKETS]; Hist::COUNT],
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Consumes the collector into its trace. Unbalanced `phase_enter`s
    /// (a route that errored mid-phase) are dropped.
    pub fn finish(self) -> RouteTrace {
        RouteTrace {
            events: self.events,
            counters: self.counters,
            hists: self.hists,
            spans: self.spans,
        }
    }
}

impl Default for CollectingProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CollectingProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectingProbe")
            .field("events", &self.events.len())
            .field("spans", &self.spans.len())
            .field("open", &self.open.len())
            .finish()
    }
}

impl Probe for CollectingProbe {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn events_len(&self) -> usize {
        self.events.len()
    }

    fn count(&mut self, c: Counter, by: u64) {
        self.counters[c.index()] += by;
    }

    fn sample(&mut self, h: Hist, value: u64) {
        self.hists[h.index()][Hist::bucket(value)] += 1;
    }

    fn phase_enter(&mut self, phase: Phase) {
        self.events.push(TraceEvent::PhaseEnter { phase });
        self.open.push(OpenSpan {
            phase,
            started: Instant::now(),
            counters_at_enter: self.counters,
            events_at_enter: self.events.len(),
        });
    }

    fn phase_exit(&mut self, phase: Phase) {
        if let Some(open) = self.open.pop() {
            debug_assert_eq!(open.phase, phase, "unbalanced phase markers");
            let mut counters = [0u64; Counter::COUNT];
            for (i, d) in counters.iter_mut().enumerate() {
                *d = self.counters[i] - open.counters_at_enter[i];
            }
            self.spans.push(PhaseSpan {
                phase: open.phase,
                wall: open.started.elapsed(),
                events_start: open.events_at_enter,
                events_len: self.events.len() - open.events_at_enter,
                counters,
            });
        }
        self.events.push(TraceEvent::PhaseExit { phase });
    }
}

/// One aggregated node of a [`ProfileTree`]: a `(phase, scope…)` stack
/// position with call count and cumulative wall-clock.
#[derive(Debug, Clone)]
struct ProfileNode {
    label: &'static str,
    children: Vec<usize>,
    calls: u64,
    total: Duration,
}

/// One flattened profile-tree entry (for reports and machine output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Stack of labels from the root phase down to this node.
    pub path: Vec<&'static str>,
    /// Times the scope was entered.
    pub calls: u64,
    /// Cumulative wall-clock including children.
    pub total: Duration,
    /// Wall-clock excluding profiled children (`total − Σ children`).
    pub self_time: Duration,
}

/// Aggregated call-tree of profiled phases and scopes with self/total
/// wall-clock, produced by [`ProfilingProbe::finish`].
///
/// Pure diagnostics: built entirely from probe-side monotonic
/// timestamps, rendered as an ASCII tree ([`ProfileTree::to_ascii`])
/// or folded stacks ([`ProfileTree::to_folded`], the
/// "flamegraph-collapsed" format `inferno`/`flamegraph.pl` consume).
#[derive(Debug, Clone, Default)]
pub struct ProfileTree {
    nodes: Vec<ProfileNode>,
    roots: Vec<usize>,
}

impl ProfileTree {
    fn children_total(&self, idx: usize) -> Duration {
        self.nodes[idx]
            .children
            .iter()
            .map(|&c| self.nodes[c].total)
            .sum()
    }

    fn self_time(&self, idx: usize) -> Duration {
        self.nodes[idx]
            .total
            .saturating_sub(self.children_total(idx))
    }

    /// Depth-first flattening in recording order.
    pub fn entries(&self) -> Vec<ProfileEntry> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<(usize, Vec<&'static str>)> =
            self.roots.iter().rev().map(|&r| (r, Vec::new())).collect();
        while let Some((idx, prefix)) = stack.pop() {
            let node = &self.nodes[idx];
            let mut path = prefix.clone();
            path.push(node.label);
            out.push(ProfileEntry {
                path: path.clone(),
                calls: node.calls,
                total: node.total,
                self_time: self.self_time(idx),
            });
            for &child in node.children.iter().rev() {
                stack.push((child, path.clone()));
            }
        }
        out
    }

    /// Total profiled wall-clock (sum over root phases).
    pub fn total(&self) -> Duration {
        self.roots.iter().map(|&r| self.nodes[r].total).sum()
    }

    /// Indented tree: one line per node with total/self/calls columns.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>10}",
            "phase/scope", "total", "self", "calls"
        );
        for entry in self.entries() {
            let indent = "  ".repeat(entry.path.len() - 1);
            let label = entry.path.last().copied().unwrap_or("?");
            let _ = writeln!(
                out,
                "{:<44} {:>12} {:>12} {:>10}",
                format!("{indent}{label}"),
                format_duration(entry.total),
                format_duration(entry.self_time),
                entry.calls
            );
        }
        out
    }

    /// Folded-stack ("flamegraph-collapsed") output: one
    /// `phase;scope;… <self-µs>` line per node with nonzero self time.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for entry in self.entries() {
            let us = entry.self_time.as_micros();
            if us == 0 {
                continue;
            }
            let _ = writeln!(out, "{} {us}", entry.path.join(";"));
        }
        out
    }
}

fn format_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}us")
    }
}

/// A [`Probe`] that collects the full [`RouteTrace`] *and* aggregates
/// nestable phase/scope spans into a [`ProfileTree`].
///
/// `PROFILING == true` turns on the engine's scope hooks (and its
/// per-[`RekeyCause`] re-key attribution path); the deterministic
/// observables are still byte-identical to a [`CollectingProbe`] run —
/// proven by `tests/metrics_determinism.rs`.
pub struct ProfilingProbe {
    inner: CollectingProbe,
    tree: ProfileTree,
    /// Open stack: `(node index, enter timestamp)`.
    stack: Vec<(usize, Instant)>,
}

impl ProfilingProbe {
    /// Creates an empty profiling collector.
    pub fn new() -> Self {
        Self {
            inner: CollectingProbe::new(),
            tree: ProfileTree::default(),
            stack: Vec::new(),
        }
    }

    /// Consumes the probe into its trace and aggregated profile.
    /// Unbalanced opens (a route that errored mid-scope) are dropped,
    /// mirroring [`CollectingProbe::finish`].
    pub fn finish(self) -> (RouteTrace, ProfileTree) {
        (self.inner.finish(), self.tree)
    }

    fn open(&mut self, label: &'static str) {
        let parent = self.stack.last().map(|&(idx, _)| idx);
        let siblings: &[usize] = match parent {
            Some(p) => &self.tree.nodes[p].children,
            None => &self.tree.roots,
        };
        let existing = siblings
            .iter()
            .copied()
            .find(|&idx| self.tree.nodes[idx].label == label);
        let idx = match existing {
            Some(idx) => idx,
            None => {
                let idx = self.tree.nodes.len();
                self.tree.nodes.push(ProfileNode {
                    label,
                    children: Vec::new(),
                    calls: 0,
                    total: Duration::ZERO,
                });
                match parent {
                    Some(p) => self.tree.nodes[p].children.push(idx),
                    None => self.tree.roots.push(idx),
                }
                idx
            }
        };
        self.tree.nodes[idx].calls += 1;
        self.stack.push((idx, Instant::now()));
    }

    fn close(&mut self, label: &'static str) {
        if let Some((idx, started)) = self.stack.pop() {
            debug_assert_eq!(
                self.tree.nodes[idx].label, label,
                "unbalanced scope markers"
            );
            self.tree.nodes[idx].total += started.elapsed();
        }
    }
}

impl Default for ProfilingProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ProfilingProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilingProbe")
            .field("inner", &self.inner)
            .field("nodes", &self.tree.nodes.len())
            .field("open", &self.stack.len())
            .finish()
    }
}

impl Probe for ProfilingProbe {
    const PROFILING: bool = true;

    fn event(&mut self, ev: TraceEvent) {
        self.inner.event(ev);
    }

    fn count(&mut self, c: Counter, by: u64) {
        self.inner.count(c, by);
    }

    fn sample(&mut self, h: Hist, value: u64) {
        self.inner.sample(h, value);
    }

    fn rekey(&mut self, net: NetId, cause: RekeyCause) {
        self.inner.rekey(net, cause);
    }

    fn phase_enter(&mut self, phase: Phase) {
        self.inner.phase_enter(phase);
        self.open(phase.label());
    }

    fn phase_exit(&mut self, phase: Phase) {
        self.close(phase.label());
        self.inner.phase_exit(phase);
    }

    fn scope_enter(&mut self, scope: Scope) {
        self.open(scope.label());
    }

    fn scope_exit(&mut self, scope: Scope) {
        self.close(scope.label());
    }

    fn events_len(&self) -> usize {
        self.inner.events_len()
    }
}

/// A *silent* state corruption a [`FaultProbe`] can ask the engine to
/// apply to its incremental structures, for proving the independent
/// verifier (`bgr_verify`) has teeth.
///
/// Unlike a [`Fault`], a corruption does not panic: it leaves the
/// engine running on subtly wrong state — exactly the failure class no
/// panic-isolation boundary can catch and the from-scratch oracles
/// exist to localize. Each variant targets one incremental structure,
/// so a sensitivity test can assert the audit blames the *right*
/// invariant (see `tests/verifier_sensitivity.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// Silently add a phantom `width`-track span over `[x1, x2]` of
    /// `channel` to the incremental density map (one-shot, without the
    /// touch-tracking a real mutation performs). Drifts
    /// `channel_tracks` away from what the alive trees imply → the
    /// **density** oracle must flag `channel`.
    FlipDensitySpan {
        /// Corrupted channel.
        channel: u32,
        /// Span start (pitches).
        x1: i32,
        /// Span end (pitches).
        x2: i32,
        /// Phantom track count added.
        width: i32,
    },
    /// Freeze `net` in the scoreboard: invalidations drop its
    /// candidates but re-keying never pushes fresh ones, so the loop
    /// believes the net is finished while its graph still carries
    /// deletable edges (a stale champion left behind) → the **forest**
    /// oracle must flag `net`.
    StaleChampion {
        /// Frozen net.
        net: NetId,
    },
    /// Skew the memoized length of `net` by `extra_um` on every
    /// refresh, so the engine's incremental STA believes the net is
    /// shorter/longer than its tree → the **timing** oracle (full
    /// recompute from reported geometry) must flag the divergence.
    SkewDelay {
        /// Skewed net.
        net: NetId,
        /// Length bias in micrometres.
        extra_um: f64,
    },
}

/// A failure to inject through a [`FaultProbe`] hook point.
///
/// Each variant panics at a different layer of the engine, simulating
/// the internal-invariant failures the
/// [`crate::GlobalRouter::route_checked`] isolation boundary exists to
/// contain: a poisoned density read (the shared map returned garbage and
/// a consistency check tripped), a corrupted decision stream, a
/// mid-dirty-set scoreboard failure, and a phase that dies on entry.
/// Recovery *stalls* need no injection hook — the adversarial generator
/// (`bgr_gen::adversarial`) forces them with infeasible delay limits.
/// [`Fault::Corrupt`] is the exception: it panics nowhere and instead
/// silently corrupts engine state (see [`Corruption`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Panic when the `n`-th deterministic [`TraceEvent`] is observed
    /// (0-based), anywhere in the pipeline.
    PanicAtEvent(u64),
    /// Panic when the `n`-th scoreboard re-key is recorded — lands in
    /// the middle of a deletion's dirty-set processing, after density
    /// was mutated but before every champion is re-pushed.
    PanicAtRekey(u64),
    /// Panic when the `n`-th density read (window or aggregate query)
    /// is counted — models a poisoned density access detected by the
    /// reader.
    PanicAtDensityRead(u64),
    /// Panic on entering `phase`.
    PanicAtPhaseEnter(Phase),
    /// Silently corrupt incremental engine state instead of panicking.
    Corrupt(Corruption),
}

/// Marker every injected panic message carries, so tests can tell an
/// injected fault from a genuine invariant failure.
pub const FAULT_MARKER: &str = "injected fault";

/// A [`Probe`] that injects one [`Fault`] at its hook point, for the
/// fault-injection harness (`tests/fuzz_route.rs`).
///
/// `ENABLED` is `true`, so the engine performs all probe-feeding work
/// (provenance tracking, counter flushes) and every hook point is live.
#[derive(Debug, Clone)]
pub struct FaultProbe {
    fault: Fault,
    events: u64,
    rekeys: u64,
    density_reads: u64,
    corrupted: bool,
}

impl FaultProbe {
    /// Arms `fault`.
    pub fn new(fault: Fault) -> Self {
        Self {
            fault,
            events: 0,
            rekeys: 0,
            density_reads: 0,
            corrupted: false,
        }
    }

    /// The armed fault.
    pub fn fault(&self) -> Fault {
        self.fault
    }

    fn trip(&self, what: &str) -> ! {
        panic!("{FAULT_MARKER}: {what} ({:?})", self.fault);
    }
}

impl Probe for FaultProbe {
    fn event(&mut self, _ev: TraceEvent) {
        if let Fault::PanicAtEvent(n) = self.fault {
            if self.events == n {
                self.trip("event threshold reached");
            }
        }
        self.events += 1;
    }

    fn count(&mut self, c: Counter, by: u64) {
        if let Fault::PanicAtDensityRead(n) = self.fault {
            if matches!(
                c,
                Counter::DensityWindowQuery | Counter::DensityAggregateQuery
            ) {
                self.density_reads += by;
                if self.density_reads > n {
                    self.trip("poisoned density read");
                }
            }
        }
    }

    fn rekey(&mut self, _net: NetId, cause: RekeyCause) {
        if let Fault::PanicAtRekey(n) = self.fault {
            if self.rekeys == n {
                self.trip("re-key threshold reached");
            }
        }
        self.rekeys += 1;
        self.count(cause.counter(), 1);
    }

    fn phase_enter(&mut self, phase: Phase) {
        if self.fault == Fault::PanicAtPhaseEnter(phase) {
            self.trip("phase entered");
        }
    }

    fn corruption(&mut self) -> Option<Corruption> {
        let Fault::Corrupt(c) = self.fault else {
            return None;
        };
        match c {
            // One-shot: a second phantom span would double the drift
            // and muddy the "first divergence" the test asserts on.
            Corruption::FlipDensitySpan { .. } => {
                if self.corrupted {
                    return None;
                }
                self.corrupted = true;
                Some(c)
            }
            // Persistent: re-applied every poll so snapshots/restores
            // and re-keys cannot silently heal the corruption.
            Corruption::StaleChampion { .. } | Corruption::SkewDelay { .. } => Some(c),
        }
    }

    fn corrupting(&self) -> bool {
        matches!(self.fault, Fault::Corrupt(_))
    }
}

/// Probe adapter recording the most recently entered [`Phase`] into a
/// shared cell, so [`crate::GlobalRouter::route_checked`] can attribute
/// a caught panic to the phase that was active when it unwound. The
/// cell is read *after* `catch_unwind`, hence the `Arc`/atomic rather
/// than a plain field.
pub(crate) struct PhaseTracked<P> {
    inner: P,
    current: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl<P: Probe> PhaseTracked<P> {
    /// Sentinel for "no phase entered yet".
    const SETUP: usize = usize::MAX;

    pub(crate) fn new(inner: P) -> Self {
        Self {
            inner,
            current: std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(Self::SETUP)),
        }
    }

    /// Handle that survives the probe moving into (and unwinding out
    /// of) the engine.
    pub(crate) fn handle(&self) -> std::sync::Arc<std::sync::atomic::AtomicUsize> {
        self.current.clone()
    }

    /// Label of the phase index stored in a handle.
    pub(crate) fn label_of(raw: usize) -> &'static str {
        Phase::ALL.get(raw).map(|p| p.label()).unwrap_or("setup")
    }

    pub(crate) fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Probe> Probe for PhaseTracked<P> {
    const ENABLED: bool = P::ENABLED;
    const PROFILING: bool = P::PROFILING;

    fn event(&mut self, ev: TraceEvent) {
        self.inner.event(ev);
    }

    fn count(&mut self, c: Counter, by: u64) {
        self.inner.count(c, by);
    }

    fn sample(&mut self, h: Hist, value: u64) {
        self.inner.sample(h, value);
    }

    fn rekey(&mut self, net: NetId, cause: RekeyCause) {
        self.inner.rekey(net, cause);
    }

    fn phase_enter(&mut self, phase: Phase) {
        self.current
            .store(phase as usize, std::sync::atomic::Ordering::Relaxed);
        self.inner.phase_enter(phase);
    }

    fn phase_exit(&mut self, phase: Phase) {
        self.inner.phase_exit(phase);
    }

    fn scope_enter(&mut self, scope: Scope) {
        self.inner.scope_enter(scope);
    }

    fn scope_exit(&mut self, scope: Scope) {
        self.inner.scope_exit(scope);
    }

    fn events_len(&self) -> usize {
        self.inner.events_len()
    }

    fn corruption(&mut self) -> Option<Corruption> {
        self.inner.corruption()
    }

    fn corrupting(&self) -> bool {
        self.inner.corrupting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_tables_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        // `PhaseTracked` stores `phase as usize` and reads it back
        // through `Phase::ALL`.
        for (i, &p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p as usize, i);
        }
        // Labels are unique (the JSONL schema depends on it).
        let mut labels: Vec<&str> = Counter::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Counter::COUNT);
    }

    #[test]
    fn hist_buckets_cover_the_line() {
        assert_eq!(Hist::bucket(0), 0);
        assert_eq!(Hist::bucket(1), 1);
        assert_eq!(Hist::bucket(3), 2);
        assert_eq!(Hist::bucket(4), 3);
        assert_eq!(Hist::bucket(15), 4);
        assert_eq!(Hist::bucket(31), 5);
        assert_eq!(Hist::bucket(63), 6);
        assert_eq!(Hist::bucket(64), 7);
        assert_eq!(Hist::bucket(u64::MAX), 7);
    }

    #[test]
    fn collecting_probe_separates_events_counters_and_spans() {
        let mut p = CollectingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        p.event(TraceEvent::NetBecameTree { net: NetId::new(3) });
        p.count(Counter::HeapPop, 2);
        p.sample(Hist::DirtySetSize, 5);
        p.rekey(NetId::new(1), RekeyCause::SpanOverlap);
        p.phase_exit(Phase::InitialRouting);
        let trace = p.finish();
        // Stream: enter, net-tree, exit.
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.counter(Counter::HeapPop), 2);
        assert_eq!(trace.counter(Counter::RekeySpan), 1);
        assert_eq!(trace.hist(Hist::DirtySetSize)[Hist::bucket(5)], 1);
        assert_eq!(trace.spans.len(), 1);
        let span = &trace.spans[0];
        assert_eq!(span.phase, Phase::InitialRouting);
        assert_eq!(span.events_len, 1); // markers excluded
        assert_eq!(span.counters[Counter::HeapPop.index()], 2);
    }

    #[test]
    fn fault_probe_trips_on_its_threshold_only() {
        let mut p = FaultProbe::new(Fault::PanicAtEvent(2));
        p.event(TraceEvent::NetBecameTree { net: NetId::new(0) });
        p.event(TraceEvent::NetBecameTree { net: NetId::new(1) });
        // Non-matching hooks never trip.
        p.count(Counter::DensityWindowQuery, 100);
        p.rekey(NetId::new(0), RekeyCause::Graph);
        p.phase_enter(Phase::ImproveArea);
        let err = std::panic::catch_unwind(move || {
            p.event(TraceEvent::NetBecameTree { net: NetId::new(2) });
        })
        .expect_err("third event must trip");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(FAULT_MARKER), "{msg}");
    }

    #[test]
    fn fault_probe_density_fault_counts_by_amount() {
        let mut p = FaultProbe::new(Fault::PanicAtDensityRead(5));
        p.count(Counter::DensityWindowQuery, 3);
        p.count(Counter::KeyEval, 100); // not a density read
        let r = std::panic::catch_unwind(move || {
            p.count(Counter::DensityAggregateQuery, 10);
        });
        assert!(r.is_err());
    }

    #[test]
    fn phase_tracker_records_last_entered_phase() {
        let tracked = PhaseTracked::new(NoopProbe);
        let handle = tracked.handle();
        let mut tracked = tracked;
        assert_eq!(
            PhaseTracked::<NoopProbe>::label_of(handle.load(std::sync::atomic::Ordering::Relaxed)),
            "setup"
        );
        tracked.phase_enter(Phase::InitialRouting);
        tracked.phase_exit(Phase::InitialRouting);
        assert_eq!(
            PhaseTracked::<NoopProbe>::label_of(handle.load(std::sync::atomic::Ordering::Relaxed)),
            "initial_routing"
        );
        const { assert!(!PhaseTracked::<NoopProbe>::ENABLED) };
        let _ = tracked.into_inner();
    }

    #[test]
    fn corruption_polling_is_one_shot_or_persistent_by_variant() {
        // Panic faults never corrupt.
        let mut p = FaultProbe::new(Fault::PanicAtEvent(99));
        assert!(!p.corrupting());
        assert_eq!(p.corruption(), None);

        // One-shot: the phantom span is handed out exactly once.
        let flip = Corruption::FlipDensitySpan {
            channel: 2,
            x1: 10,
            x2: 20,
            width: 1,
        };
        let mut p = FaultProbe::new(Fault::Corrupt(flip));
        assert!(p.corrupting());
        assert_eq!(p.corruption(), Some(flip));
        assert_eq!(p.corruption(), None);
        assert!(p.corrupting(), "stays corrupting after the injection");

        // Persistent: returned on every poll.
        let skew = Corruption::SkewDelay {
            net: NetId::new(1),
            extra_um: -250.0,
        };
        let mut p = FaultProbe::new(Fault::Corrupt(skew));
        assert_eq!(p.corruption(), Some(skew));
        assert_eq!(p.corruption(), Some(skew));
    }

    #[test]
    fn profiling_probe_builds_an_aggregated_tree() {
        let mut p = ProfilingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        for _ in 0..3 {
            p.scope_enter(Scope::Select);
            p.scope_exit(Scope::Select);
            p.scope_enter(Scope::Rekey);
            p.scope_enter(Scope::RekeyFor(RekeyCause::Graph));
            p.scope_exit(Scope::RekeyFor(RekeyCause::Graph));
            p.scope_exit(Scope::Rekey);
        }
        p.event(TraceEvent::NetBecameTree { net: NetId::new(0) });
        p.phase_exit(Phase::InitialRouting);
        p.phase_enter(Phase::ImproveArea);
        p.scope_enter(Scope::Reroute);
        p.scope_exit(Scope::Reroute);
        p.phase_exit(Phase::ImproveArea);

        let (trace, tree) = p.finish();
        // The inner trace is a normal collecting trace.
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.events.len(), 5); // 2×(enter+exit) + net-tree

        let entries = tree.entries();
        let paths: Vec<String> = entries.iter().map(|e| e.path.join(";")).collect();
        assert_eq!(
            paths,
            [
                "initial_routing",
                "initial_routing;select",
                "initial_routing;rekey",
                "initial_routing;rekey;rekey:graph",
                "improve_area",
                "improve_area;reroute",
            ]
        );
        let select = &entries[1];
        assert_eq!(select.calls, 3, "repeated scopes aggregate");
        let rekey = &entries[2];
        assert!(rekey.total >= entries[3].total, "parent covers child");
        assert!(rekey.self_time <= rekey.total);
        // Root self-time excludes profiled children.
        let root = &entries[0];
        assert!(root.self_time <= root.total);
        assert!(tree.total() >= root.total);
    }

    #[test]
    fn profile_tree_renders_ascii_and_folded() {
        let mut p = ProfilingProbe::new();
        p.phase_enter(Phase::InitialRouting);
        p.scope_enter(Scope::Select);
        std::thread::sleep(Duration::from_millis(2));
        p.scope_exit(Scope::Select);
        p.phase_exit(Phase::InitialRouting);
        let (_, tree) = p.finish();

        let ascii = tree.to_ascii();
        assert!(ascii.contains("phase/scope"), "{ascii}");
        assert!(ascii.contains("initial_routing"), "{ascii}");
        assert!(ascii.contains("  select"), "{ascii}");

        let folded = tree.to_folded();
        let select_line = folded
            .lines()
            .find(|l| l.starts_with("initial_routing;select "))
            .expect("folded stack for the scope");
        let us: u64 = select_line
            .rsplit(' ')
            .next()
            .expect("self-time field")
            .parse()
            .expect("numeric self-time");
        assert!(us >= 2_000, "slept 2ms inside the scope: {us}µs");
    }

    #[test]
    fn scope_labels_are_stable_and_unique() {
        let all = [
            Scope::Select,
            Scope::DeleteModify,
            Scope::DeriveDirty,
            Scope::Rekey,
            Scope::RekeyFor(RekeyCause::Graph),
            Scope::RekeyFor(RekeyCause::SpanOverlap),
            Scope::RekeyFor(RekeyCause::Constraint),
            Scope::Reroute,
            Scope::Audit,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn noop_probe_is_disabled() {
        const { assert!(!NoopProbe::ENABLED) };
        const { assert!(CollectingProbe::ENABLED) };
        // All hooks are callable and inert.
        let mut p = NoopProbe;
        p.event(TraceEvent::PhaseEnter {
            phase: Phase::GraphBuild,
        });
        p.count(Counter::KeyEval, 1);
        p.rekey(NetId::new(0), RekeyCause::Graph);
    }
}
