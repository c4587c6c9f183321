//! The candidate scoreboard: an ordered pool of **raw** [`EdgeKey`]s
//! with generation-stamped lazy invalidation, one heap per channel,
//! channel aggregates composed in at pop time, and a cached composed
//! top per heap so selection recomposes only the heaps that changed.
//!
//! The deletion loop (Fig. 2 lines 04–07) needs the minimum-ranked
//! deletable edge across every in-scope net on every iteration. The
//! naive formulation recomputes every key per iteration —
//! `O(nets × edges)` key evaluations per selection, each one a Dijkstra
//! over the net's routing graph. The scoreboard instead keeps all
//! current keys in binary heaps and re-keys only *dirty* nets after a
//! deletion.
//!
//! # Raw keys and compose-at-pop
//!
//! A full [`EdgeKey`] mixes three ingredients with very different
//! lifetimes: the delay prefix (moves when the net's graph or
//! constraints move), the edge's **own density window** (moves when a
//! touched span overlaps the edge), and the channel **aggregates**
//! `C_M/NC_M/C_m/NC_m` (move on almost every deletion in the channel).
//! Storing composed keys therefore re-keys whole channels whenever an
//! aggregate moves. The scoreboard stores the *raw* part only — delay
//! prefix plus the **negated** window terms — and adds the owning
//! channel's aggregates at pop time:
//!
//! ```text
//! composed.f_min = C_m(channel) − window.d_min   (raw.f_min = −window.d_min)
//! composed.f_max = C_M(channel) − window.d_max   … and likewise NC_m/NC_M
//! ```
//!
//! Within one heap all entries share a channel, so composition adds the
//! *same* offsets to every entry: the heap order on raw keys equals the
//! order on composed keys (delay tiers and the trunk-preference bit are
//! compared before the density values and are composition-invariant;
//! the `i32` density tiers shift by a common addend, which `i32::cmp`
//! cancels exactly; the trailing `len/net/edge` tiebreaks are
//! untouched). Branch keys store zero window terms (they read
//! aggregates only) and feed-half keys — which read no density at all —
//! live in a trailing **channelless heap** composed with the identity.
//! Aggregate motion thus never invalidates a stored entry. Only the
//! heap's *cached top* below must be recomposed, and the re-keys that
//! follow a deletion already dirty every heap whose channel's
//! aggregates it can move (`Engine::run_deletion`).
//!
//! # Invalidation contract
//!
//! The scoreboard holds one generation counter per **(net, heap)**.
//! Re-keying a net's heap (or invalidating it) bumps that counter; heap
//! entries carry the counter value at push time and are discarded on pop
//! when they no longer match. Consequently:
//!
//! * callers must invalidate-and-re-key every (net, heap) whose **raw**
//!   minimum may have changed — every heap of a net whose graph or
//!   timing constraints moved, and the heaps of the channels where a
//!   touched span overlaps the net's trunks (see `Engine::run_deletion`)
//!   — and must have dirtied the heap of every channel whose aggregates
//!   moved;
//! * (net, heap) pairs outside that set keep their entries, which remain
//!   *exactly* the raw keys a full rescan would compute, because every
//!   raw-key input is covered by the dirty-set definition.
//!
//! # Memory bound and compaction
//!
//! Invalidation is lazy: a stale entry stays in its heap until it
//! surfaces at the top, where a pop drains it. Left at that, a heap
//! would keep every key ever pushed into it. Instead each (net, heap)
//! slot counts its *live* entries — pushed under the current generation
//! and not yet popped — and the scoreboard keeps their sum per heap. An
//! invalidation and a winning pop are the only operations that lower a
//! live count; after either, a heap whose length has reached
//! `2 × live + 64` is **compacted**: `BinaryHeap::retain` drops every
//! stale entry and re-heapifies the rest. Pushes raise the live count
//! with the length, and stale drains shorten the heap, so
//!
//! ```text
//! len(heap) < 2 × live(heap) + 64      for every heap, at all times
//! ```
//!
//! and the pool's memory is proportional to its live candidates, not to
//! the keys pushed over the run. A compaction scans `len` entries and
//! drops `len − live ≥ live + 64` of them — at least half of what it
//! scans — so its cost is amortised `O(1)` per push. It leaves the set
//! of live entries unchanged, so no cached top moves and no heap needs
//! to be dirtied. A push stays `O(log heap)`, and a pop amortizes over
//! the stale entries it drains.
//!
//! # Cached tops
//!
//! Each heap caches its *composed* top — its best live entry under the
//! current aggregates — and carries a dirty bit. The bit is set by
//! everything that could move the top: a push into the heap, a pop out
//! of it, and an [`Scoreboard::invalidate`] that kills live entries
//! there. A pop
//! recomposes only the dirty heaps (draining stale entries off the top,
//! one aggregate read per non-empty heap), then takes the strict-less
//! minimum over the cached tops in ascending heap index, the
//! channelless heap last (`select::ranks_first`). Ties under the EPS-fuzzy
//! [`compare`] therefore resolve to the lowest heap index holding the
//! minimum, and since every key ends in its `(net, edge)` identity the
//! result is a pure function of the live entries and the current
//! aggregates. DESIGN.md §8 gives the determinism argument.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bgr_layout::ChannelId;
use bgr_netlist::NetId;

use crate::config::CriteriaOrder;
use crate::density::DensityMap;
use crate::probe::{Counter, Hist, NoopProbe, Probe};
use crate::select::{compare, ranks_first, EdgeKey};

#[derive(Debug, Clone)]
struct Entry {
    key: EdgeKey,
    /// Generation of the entry's (net, heap) slot at push time.
    stamp: u64,
    /// Index of the entry's (net, heap) slot.
    slot: u32,
    /// Criteria order of the run (uniform across one scoreboard).
    order: CriteriaOrder,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; reverse the selection order so the
        // best (smallest) candidate surfaces at the top. Raw-key order
        // equals composed order within one heap (see the module docs).
        compare(&other.key, &self.key, self.order)
    }
}

/// Extra stale entries a heap may hold beyond its live count before it
/// is compacted: a heap is compacted once `len ≥ 2 × live +
/// COMPACT_SLACK` (see the module docs).
const COMPACT_SLACK: usize = 64;

/// Generation state of one (net, heap) pair.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    gen: u64,
    /// Entries pushed under the current generation and not yet popped
    /// (the slot's live entries): only while it is non-zero does an
    /// invalidation change the heap's live set and dirty its top.
    live: u32,
}

/// One heap of the pool with its live count and cached composed top.
#[derive(Debug, Default)]
struct Heap {
    entries: BinaryHeap<Entry>,
    /// Live entries: the sum of the heap's slots' live counts.
    live: usize,
    /// The composed key of the best live entry, under the aggregates of
    /// the last recomposition; `None` when the heap had no live entry.
    top: Option<EdgeKey>,
    /// Whether `top` may be out of date (see the module docs).
    dirty: bool,
}

/// Ordered candidate pool over every deletable edge of the in-scope
/// nets. See the [module docs](self) for raw keys, the invalidation
/// contract and the cached tops.
#[derive(Debug)]
pub struct Scoreboard {
    /// One heap per channel, plus the trailing channelless heap
    /// (feed-half candidates; composed with the identity).
    heaps: Vec<Heap>,
    /// Per net: `(heap, slot)` of every heap it ever pushed into.
    net_slots: Vec<Vec<(u32, u32)>>,
    slots: Vec<Slot>,
    order: CriteriaOrder,
}

impl Scoreboard {
    /// Creates an empty scoreboard for `num_nets` nets over
    /// `num_channels` channels (plus the channelless heap), comparing
    /// keys with `order`.
    pub fn new(num_nets: usize, num_channels: usize, order: CriteriaOrder) -> Self {
        Self {
            heaps: (0..=num_channels).map(|_| Heap::default()).collect(),
            net_slots: vec![Vec::new(); num_nets],
            slots: Vec::new(),
            order,
        }
    }

    /// Number of entries the heaps hold, live and stale: fewer than
    /// `2 × live + 64` per heap (see the [module docs](self)).
    pub fn len(&self) -> usize {
        self.heaps.iter().map(|h| h.entries.len()).sum()
    }

    /// Whether the heaps hold no entries at all, live or stale.
    pub fn is_empty(&self) -> bool {
        self.heaps.iter().all(|h| h.entries.is_empty())
    }

    /// The criteria order this scoreboard compares keys with.
    pub fn order(&self) -> CriteriaOrder {
        self.order
    }

    /// The index of the channelless heap (feed-half candidates).
    fn channelless(&self) -> usize {
        self.heaps.len() - 1
    }

    /// The heap a candidate of `channel` belongs to.
    fn heap_of(&self, channel: Option<ChannelId>) -> usize {
        match channel {
            Some(c) => c.index(),
            None => self.channelless(),
        }
    }

    /// Composes a raw key from `heap` with the current channel
    /// aggregates (identity for the channelless heap).
    fn compose(&self, heap: usize, key: EdgeKey, density: &DensityMap) -> EdgeKey {
        if heap == self.channelless() {
            return key;
        }
        let c = ChannelId::new(heap);
        let mut k = key;
        k.f_min += density.c_min(c);
        k.n_min += density.nc_min(c);
        k.f_max += density.c_max(c);
        k.n_max += density.nc_max(c);
        k
    }

    /// The slot of `(net, heap)`, if the net ever pushed there.
    fn slot_of(&self, net: NetId, heap: usize) -> Option<usize> {
        self.net_slots[net.index()]
            .iter()
            .find(|&&(h, _)| h as usize == heap)
            .map(|&(_, s)| s as usize)
    }

    /// Compacts heap `h` if its length has reached `2 × live +
    /// COMPACT_SLACK`: drops every stale entry and re-heapifies the live
    /// ones. Returns how many stale entries were dropped. The live set
    /// is unchanged, so the cached top is not dirtied.
    fn compact_if_due(&mut self, h: usize) -> u64 {
        let heap = &mut self.heaps[h];
        let before = heap.entries.len();
        if before < 2 * heap.live + COMPACT_SLACK {
            return 0;
        }
        let slots = &self.slots;
        heap.entries.retain(|e| is_live(slots, e));
        debug_assert_eq!(
            heap.entries.len(),
            heap.live,
            "heap {h}: live count diverged"
        );
        (before - heap.entries.len()) as u64
    }

    /// Invalidates every entry of `net` in `channel`'s heap (the
    /// channelless heap when `None`): bumps the (net, heap) generation
    /// so existing entries die lazily, and dirties the heap's top if the
    /// net had live entries there. The net's entries in other heaps
    /// stay live. Call before re-pushing the heap's current key.
    ///
    /// Returns the stale entries a compaction of the heap dropped (see
    /// the [module docs](self)), for [`Counter::StaleHeapPurged`].
    ///
    /// # Panics
    ///
    /// Panics if the generation counter would wrap. A `u64` bump per
    /// re-key cannot overflow in any real route (half a million re-keys
    /// per second for a million years), so wraparound could only mean
    /// memory corruption — and silently wrapping would resurrect every
    /// stale entry pushed under generation zero.
    pub fn invalidate(&mut self, net: NetId, channel: Option<ChannelId>) -> u64 {
        let heap = self.heap_of(channel);
        let Some(s) = self.slot_of(net, heap) else {
            return 0;
        };
        let slot = &mut self.slots[s];
        slot.gen = slot
            .gen
            .checked_add(1)
            .expect("scoreboard generation counter overflowed");
        let died = std::mem::take(&mut slot.live);
        if died == 0 {
            return 0;
        }
        self.heaps[heap].live -= died as usize;
        self.heaps[heap].dirty = true;
        self.compact_if_due(heap)
    }

    /// Whether `channel`'s heap will recompose its cached top at the
    /// next pop.
    pub(crate) fn is_dirty(&self, channel: ChannelId) -> bool {
        self.heaps[channel.index()].dirty
    }

    /// Pushes a raw candidate key into its channel's heap (the
    /// channelless heap when `channel` is `None`), stamped with the
    /// (net, heap) pair's current generation.
    pub fn push(&mut self, key: EdgeKey, channel: Option<ChannelId>) {
        let h = self.heap_of(channel);
        let s = match self.slot_of(key.net, h) {
            Some(s) => s,
            None => {
                let s = self.slots.len();
                self.slots.push(Slot::default());
                self.net_slots[key.net.index()].push((h as u32, s as u32));
                s
            }
        };
        self.slots[s].live += 1;
        let heap = &mut self.heaps[h];
        heap.live += 1;
        heap.entries.push(Entry {
            key,
            stamp: self.slots[s].gen,
            slot: s as u32,
            order: self.order,
        });
        heap.dirty = true;
        debug_assert!(
            heap.entries.len() < 2 * heap.live + COMPACT_SLACK,
            "heap {h} outgrew its compaction bound"
        );
    }

    /// Every live entry as `(channel, raw key)` (`None` = the
    /// channelless heap), heap by heap in unspecified order within a
    /// heap — the step-level oracle's view of the pool. `O(entries)`.
    pub(crate) fn live_entries(&self) -> Vec<(Option<ChannelId>, EdgeKey)> {
        let channelless = self.channelless();
        let mut out = Vec::new();
        for (h, heap) in self.heaps.iter().enumerate() {
            let channel = (h != channelless).then(|| ChannelId::new(h));
            out.extend(
                heap.entries
                    .iter()
                    .filter(|e| is_live(&self.slots, e))
                    .map(|e| (channel, e.key)),
            );
        }
        out
    }

    /// The step-level check of the pool's bookkeeping: recounts the
    /// live entries of every heap and slot against the maintained
    /// counts, checks every heap against the compaction bound
    /// `len < 2 × live + 64`, and recomposes every clean heap's top from
    /// a drained copy of the heap under `density`'s aggregates, which
    /// must equal the cached one. `O(entries)`.
    ///
    /// # Panics
    ///
    /// Panics naming the first heap or slot whose count diverges, the
    /// first heap over the bound, or the first clean heap whose cached
    /// top diverges.
    pub(crate) fn audit(&self, density: &DensityMap) {
        let mut slot_live = vec![0u32; self.slots.len()];
        for (h, heap) in self.heaps.iter().enumerate() {
            let mut live = 0;
            for e in heap.entries.iter().filter(|e| is_live(&self.slots, e)) {
                live += 1;
                slot_live[e.slot as usize] += 1;
            }
            assert!(
                live == heap.live,
                "self-audit: scoreboard heap {h} holds {live} live entries, \
                 its live count says {}",
                heap.live
            );
            assert!(
                heap.entries.len() < 2 * live + COMPACT_SLACK,
                "self-audit: scoreboard heap {h} holds {} entries, over the \
                 compaction bound 2 × {live} + {COMPACT_SLACK}",
                heap.entries.len()
            );
            if heap.dirty {
                continue;
            }
            let mut fresh = heap.entries.clone();
            drain_stale(&mut fresh, &self.slots);
            let want = fresh.peek().map(|e| self.compose(h, e.key, density));
            assert!(
                heap.top == want,
                "self-audit: cached top of clean scoreboard heap {h} diverged: \
                 cached {:?}, recomposed {want:?}",
                heap.top
            );
        }
        for (s, (slot, &live)) in self.slots.iter().zip(&slot_live).enumerate() {
            assert!(
                slot.live == live,
                "self-audit: scoreboard slot {s} holds {live} live entries, \
                 its live count says {}",
                slot.live
            );
        }
    }

    /// Recomposes heap `h`'s cached top: drains stale entries off the
    /// heap, then composes its live top under the current aggregates.
    /// Returns the stale-drain count.
    fn recompose<P: Probe>(&mut self, h: usize, density: &DensityMap, probe: &mut P) -> u64 {
        let stale = drain_stale(&mut self.heaps[h].entries, &self.slots);
        let raw = self.heaps[h].entries.peek().map(|e| e.key);
        if P::ENABLED {
            probe.count(Counter::ShardRebuild, 1);
            probe.count(Counter::DensityAggregateQuery, u64::from(raw.is_some()));
        }
        let top = raw.map(|raw| self.compose(h, raw, density));
        let heap = &mut self.heaps[h];
        heap.top = top;
        heap.dirty = false;
        stale
    }

    /// Pops the best *valid* candidate — the minimum **composed** key
    /// over all live entries under the current aggregates — discarding
    /// stale entries, or `None` when no valid candidate remains.
    pub fn pop_valid(&mut self, density: &DensityMap) -> Option<EdgeKey> {
        self.pop_valid_probed(density, &mut NoopProbe)
    }

    /// [`Scoreboard::pop_valid`] with instrumentation: every pop is
    /// counted ([`Counter::HeapPop`]), stale discards additionally as
    /// [`Counter::StaleHeapPop`], the discards preceding the answer are
    /// one [`Hist::StalePopsPerSelection`] observation, every dirty
    /// heap whose top is recomposed counts one [`Counter::ShardRebuild`]
    /// (clean heaps keep their cached top), and the stale entries a
    /// compaction of the winner's heap drops count as
    /// [`Counter::StaleHeapPurged`].
    ///
    /// The minimum scans the cached tops in ascending heap index and
    /// takes a candidate only when strictly less than the best so far,
    /// so the result is a pure function of the live entries and current
    /// aggregates (see the [module docs](self)).
    pub fn pop_valid_probed<P: Probe>(
        &mut self,
        density: &DensityMap,
        probe: &mut P,
    ) -> Option<EdgeKey> {
        let mut stale = 0u64;
        for h in 0..self.heaps.len() {
            if self.heaps[h].dirty {
                stale += self.recompose(h, density, probe);
            }
        }
        let mut best: Option<(usize, EdgeKey)> = None;
        for (h, heap) in self.heaps.iter().enumerate() {
            let Some(key) = &heap.top else { continue };
            if ranks_first(key, best.as_ref().map(|(_, b)| b), self.order) {
                best = Some((h, *key));
            }
        }
        let mut purged = 0;
        let out = best.map(|(h, key)| {
            let heap = &mut self.heaps[h];
            let popped = heap
                .entries
                .pop()
                .expect("the winning heap has a top entry");
            debug_assert!(
                popped.key.net == key.net && popped.key.edge == key.edge,
                "cached heap top diverged from the heap"
            );
            heap.live -= 1;
            heap.dirty = true;
            self.slots[popped.slot as usize].live -= 1;
            purged = self.compact_if_due(h);
            key
        });
        if P::ENABLED {
            probe.count(Counter::HeapPop, stale + u64::from(out.is_some()));
            probe.count(Counter::StaleHeapPop, stale);
            probe.count(Counter::StaleHeapPurged, purged);
            probe.sample(Hist::StalePopsPerSelection, stale);
        }
        out
    }

    /// The best composed key over the live entries of every net but
    /// `exclude` — the runner-up the decision-provenance probe compares
    /// the winner against, equal by construction to the full rescan's
    /// second-best champion.
    ///
    /// Excluded entries are popped and re-pushed verbatim (same stamp),
    /// so the live set — and with it every live count and every cached
    /// top — is unchanged; only stale entries are (harmlessly) drained.
    /// Unprobed on purpose: provenance peeking must not perturb the
    /// heap-pop diagnostics.
    pub fn runner_up(&mut self, exclude: NetId, density: &DensityMap) -> Option<EdgeKey> {
        let mut best: Option<EdgeKey> = None;
        let mut stash: Vec<(usize, Entry)> = Vec::new();
        for h in 0..self.heaps.len() {
            let entries = &mut self.heaps[h].entries;
            while let Some(e) = entries.peek() {
                if !is_live(&self.slots, e) {
                    entries.pop();
                } else if e.key.net == exclude {
                    let e = entries.pop().expect("peeked entry pops");
                    stash.push((h, e));
                } else {
                    break;
                }
            }
            let Some(raw) = entries.peek().map(|e| e.key) else {
                continue;
            };
            let composed = self.compose(h, raw, density);
            if ranks_first(&composed, best.as_ref(), self.order) {
                best = Some(composed);
            }
        }
        for (h, e) in stash {
            self.heaps[h].entries.push(e);
        }
        best
    }
}

/// Whether `e` is live: its slot's generation has not moved since the
/// push.
fn is_live(slots: &[Slot], e: &Entry) -> bool {
    e.stamp == slots[e.slot as usize].gen
}

/// Drains stale entries off the top of `entries`, returning how many
/// were discarded. Afterwards the top (if any) is live.
fn drain_stale(entries: &mut BinaryHeap<Entry>, slots: &[Slot]) -> u64 {
    let mut stale = 0u64;
    while entries.peek().is_some_and(|e| !is_live(slots, e)) {
        entries.pop();
        stale += 1;
    }
    stale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::DelayCriteria;

    fn key(net: usize, edge: u32, f_min: i32) -> EdgeKey {
        EdgeKey {
            delay: DelayCriteria::default(),
            is_trunk: true,
            f_min,
            n_min: 0,
            f_max: 0,
            n_max: 0,
            len_um: 10.0,
            net: NetId::new(net),
            edge,
        }
    }

    fn ch(c: usize) -> Option<ChannelId> {
        Some(ChannelId::new(c))
    }

    /// An empty 4-channel density map: all aggregates are zero, so
    /// composition is the identity and raw keys compare as-is.
    fn flat() -> DensityMap {
        DensityMap::new(4, 100)
    }

    #[test]
    fn pops_in_selection_order() {
        let d = flat();
        let mut sb = Scoreboard::new(3, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 5), ch(0));
        sb.push(key(1, 0, -2), ch(0));
        sb.push(key(2, 0, 1), ch(0));
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(1)));
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(2)));
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(0)));
        assert_eq!(sb.pop_valid(&d), None);
    }

    #[test]
    fn invalidation_kills_stale_entries_lazily() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, -10), ch(0)); // would win…
        sb.push(key(1, 0, 3), ch(0));
        sb.invalidate(NetId::new(0), ch(0)); // …but is now stale
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(1)));
        assert_eq!(sb.pop_valid(&d), None);
    }

    #[test]
    fn rekeying_after_invalidation_revives_a_net() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 0), ch(1));
        sb.invalidate(NetId::new(0), ch(1));
        sb.push(key(0, 1, 7), ch(1)); // fresh key under the new generation
        let k = sb.pop_valid(&d).unwrap();
        assert_eq!((k.net, k.edge), (NetId::new(0), 1));
        assert_eq!(sb.pop_valid(&d), None);
    }

    #[test]
    fn id_tiebreaks_keep_pops_deterministic() {
        let d = flat();
        let mut sb = Scoreboard::new(1, 4, CriteriaOrder::DelayFirst);
        // Identical criteria: net/edge ids decide.
        sb.push(key(0, 2, 0), ch(2));
        sb.push(key(0, 0, 0), ch(2));
        sb.push(key(0, 1, 0), ch(2));
        let order: Vec<u32> = std::iter::from_fn(|| sb.pop_valid(&d).map(|k| k.edge)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// The minimum over the cached tops is the global one, ties across
    /// heaps fall to the `(net, edge)` order of [`compare`] whatever the
    /// heap index, and a push dirties only its own heap: every other
    /// heap's cached top survives it untouched.
    #[test]
    fn pops_the_global_minimum_across_heaps_and_keeps_clean_tops() {
        use crate::probe::CollectingProbe;
        let d = flat();
        let mut sb = Scoreboard::new(6, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 4), ch(0));
        sb.push(key(2, 0, -1), ch(2)); // the global minimum
        sb.push(key(3, 0, 2), ch(3));
        sb.push(key(1, 0, 0), ch(1));
        // Ties: identical criteria in channels 3 and 0 — the lower net
        // id wins although its heap index is higher.
        sb.push(key(5, 0, 1), ch(0));
        sb.push(key(4, 0, 1), ch(3));
        let mut probe = CollectingProbe::new();
        let first = sb.pop_valid_probed(&d, &mut probe).map(|k| k.net.index());
        assert_eq!(first, Some(2));
        let clean = sb.heaps[3].top;
        assert_eq!(clean.map(|k| k.net.index()), Some(4));
        sb.push(key(1, 1, 7), ch(1));
        assert!(!sb.heaps[3].dirty, "a push into heap 1 dirtied heap 3");
        assert_eq!(sb.heaps[3].top, clean);
        let rest: Vec<usize> =
            std::iter::from_fn(|| sb.pop_valid_probed(&d, &mut probe).map(|k| k.net.index()))
                .collect();
        assert_eq!(rest, vec![1, 4, 5, 3, 0, 1]);
        assert!(sb.is_empty());
        // The first pop recomposes the four pushed heaps, the second the
        // first winner's heap and heap 1 (pushed into), and each of the
        // six calls after it only the previous winner's heap.
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::ShardRebuild), 4 + 2 + 6);
    }

    #[test]
    fn stale_champion_of_fully_bridged_net_is_skipped() {
        // A net whose last deletable edge became a bridge re-keys to *no*
        // entries: its generation bumps and nothing is re-pushed. The
        // pop must see through the stale top of its heap.
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, -5), ch(0)); // would win…
        sb.push(key(2, 0, 3), ch(2));
        sb.invalidate(NetId::new(0), ch(0)); // …but its net is now fully bridged
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(2)));
        assert_eq!(sb.pop_valid(&d), None);
        assert!(sb.is_empty(), "stale entries were drained, not leaked");
    }

    #[test]
    #[should_panic(expected = "scoreboard generation counter overflowed")]
    fn generation_wraparound_is_a_loud_failure() {
        let mut sb = Scoreboard::new(1, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 0), ch(0));
        sb.slots[0].gen = u64::MAX;
        sb.invalidate(NetId::new(0), ch(0));
    }

    #[test]
    fn invalidating_one_heap_keeps_the_nets_other_heaps_live() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, -5), ch(0));
        sb.push(key(0, 1, -4), ch(2));
        sb.push(key(0, 2, -3), None); // channelless heap
        sb.push(key(1, 0, 0), ch(2));
        // Re-key net 0's channel-0 heap only: its old entry dies, the
        // fresh one and the untouched heaps' entries stay live.
        sb.invalidate(NetId::new(0), ch(0));
        sb.push(key(0, 3, 2), ch(0));
        let mut live: Vec<(usize, u32)> = sb
            .live_entries()
            .into_iter()
            .map(|(_, k)| (k.net.index(), k.edge))
            .collect();
        live.sort_unstable();
        assert_eq!(live, vec![(0, 1), (0, 2), (0, 3), (1, 0)]);
        let pops: Vec<u32> = std::iter::from_fn(|| sb.pop_valid(&d).map(|k| k.edge)).collect();
        assert_eq!(pops, vec![1, 2, 0, 3]);
        // Invalidating a heap the net never pushed into is a no-op.
        sb.invalidate(NetId::new(1), ch(3));
        assert_eq!(sb.pop_valid(&d), None);
    }

    #[test]
    fn probed_pop_counts_stale_discards_and_recomposed_tops() {
        use crate::probe::CollectingProbe;
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0));
        sb.push(key(0, 1, 2), ch(0));
        sb.push(key(2, 0, 5), ch(2));
        sb.invalidate(NetId::new(0), ch(0)); // both channel-0 entries go stale
        let mut probe = CollectingProbe::new();
        let got = sb.pop_valid_probed(&d, &mut probe);
        assert_eq!(got.map(|k| k.net), Some(NetId::new(2)));
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::StaleHeapPop), 2);
        assert_eq!(trace.counter(Counter::HeapPop), 3);
        // Both heaps were dirty, so both tops were recomposed.
        assert_eq!(trace.counter(Counter::ShardRebuild), 2);
    }

    #[test]
    fn clean_heaps_skip_the_recompose() {
        use crate::probe::CollectingProbe;
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0));
        sb.push(key(2, 0, 2), ch(2));
        sb.push(key(3, 0, 3), ch(3));
        let mut probe = CollectingProbe::new();
        // First pop recomposes all three tops and takes net 0.
        assert_eq!(
            sb.pop_valid_probed(&d, &mut probe).map(|k| k.net),
            Some(NetId::new(0))
        );
        // Second pop: only heap 0 (the winner's) is dirty; the cached
        // tops of heaps 2 and 3 are reused untouched.
        assert_eq!(
            sb.pop_valid_probed(&d, &mut probe).map(|k| k.net),
            Some(NetId::new(2))
        );
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::ShardRebuild), 3 + 1);
    }

    #[test]
    fn compose_at_pop_applies_current_channel_aggregates() {
        // Identical raw keys in channels 1 and 2; channel 2 carries a
        // bridge span, so its aggregates lift every composed key there.
        let mut d = flat();
        d.add_span(ChannelId::new(2), 0, 10, 3, true);
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        sb.push(key(1, 0, 0), ch(2)); // lower net id, but composed f_min = 3
        sb.push(key(0, 0, 0), ch(1)); // composed f_min = 0: wins
        let first = sb.pop_valid(&d).unwrap();
        assert_eq!(first.net, NetId::new(0));
        assert_eq!(first.f_min, 0);
        let second = sb.pop_valid(&d).unwrap();
        assert_eq!(second.net, NetId::new(1));
        // The returned key is the *composed* one.
        assert_eq!(second.f_min, 3);
    }

    #[test]
    fn compaction_keeps_the_live_set_and_bounds_the_heap() {
        use crate::probe::CollectingProbe;
        use bgr_netlist::SplitMix64;
        let d = flat();
        let nets = 24;
        let mut sb = Scoreboard::new(nets, 4, CriteriaOrder::DelayFirst);
        let mut probe = CollectingProbe::new();
        let mut rng = SplitMix64::new(0x5C04_EB00);
        // The model: each net's one live key in channel 1's heap, if any.
        let mut live: Vec<Option<EdgeKey>> = vec![None; nets];
        let (mut pushes, mut winners, mut purged, mut compactions) = (0u64, 0u64, 0u64, 0);
        let check = |sb: &Scoreboard, live: &[Option<EdgeKey>], what: &str| {
            let n = live.iter().flatten().count();
            assert!(
                sb.len() < 2 * n + COMPACT_SLACK,
                "{what}: {} ≥ 2 × {n} + 64",
                sb.len()
            );
            sb.audit(&d);
        };
        for step in 0..600u32 {
            let net = rng.range_usize(0, nets);
            let dropped = sb.invalidate(NetId::new(net), ch(1));
            purged += dropped;
            compactions += usize::from(dropped > 0);
            live[net] = None;
            check(&sb, &live, "invalidate");
            if rng.range_usize(0, 8) > 0 {
                let k = key(net, step, rng.range_i32(-50, 50));
                sb.push(k, ch(1));
                pushes += 1;
                live[net] = Some(k);
                check(&sb, &live, "push");
            }
            if rng.range_usize(0, 16) == 0 {
                let won = sb.pop_valid_probed(&d, &mut probe).expect("a live key");
                winners += 1;
                assert_eq!(live[won.net.index()].take(), Some(won));
                check(&sb, &live, "pop");
            }
        }
        assert!(compactions >= 3, "only {compactions} compactions");
        let mut want: Vec<EdgeKey> = live.iter().flatten().copied().collect();
        want.sort_by(|a, b| compare(a, b, CriteriaOrder::DelayFirst));
        let got: Vec<EdgeKey> =
            std::iter::from_fn(|| sb.pop_valid_probed(&d, &mut probe)).collect();
        assert_eq!(got, want);
        assert!(sb.is_empty());
        // Every pushed entry was either a winner or went stale, and every
        // stale entry was either drained by a pop or purged.
        let trace = probe.finish();
        let stale = pushes - winners - got.len() as u64;
        purged += trace.counter(Counter::StaleHeapPurged);
        assert_eq!(trace.counter(Counter::StaleHeapPop) + purged, stale);
    }

    #[test]
    fn runner_up_excludes_one_net_and_leaves_the_pool_intact() {
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0));
        sb.push(key(0, 1, 2), ch(0));
        sb.push(key(1, 0, 5), ch(1));
        sb.push(key(2, 0, 3), ch(2));
        // Best of everything-but-net-0 is net 2, across both of net 0's
        // entries sitting above it in channel 0's heap.
        assert_eq!(
            sb.runner_up(NetId::new(0), &d).map(|k| k.net),
            Some(NetId::new(2))
        );
        // The peek left every entry in place: pops proceed as if it
        // never happened.
        let pops: Vec<(usize, u32)> =
            std::iter::from_fn(|| sb.pop_valid(&d).map(|k| (k.net.index(), k.edge))).collect();
        assert_eq!(pops, vec![(0, 0), (0, 1), (2, 0), (1, 0)]);
    }
}
