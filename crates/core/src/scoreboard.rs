//! The candidate scoreboard: an ordered pool of **raw** [`EdgeKey`]s
//! with generation-stamped lazy invalidation, one heap per channel,
//! channel aggregates composed in at pop time, and per-shard cached
//! minima so selection skips shards with no fresh entries.
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
//! Aggregate motion thus never invalidates a stored entry; the engine
//! only has to [`Scoreboard::refresh_channel`] the affected channel so
//! the *cached shard minimum* below is recomposed.
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
//!   — and call [`Scoreboard::refresh_channel`] for every channel whose
//!   aggregates moved;
//! * (net, heap) pairs outside that set keep their entries, which remain
//!   *exactly* the raw keys a full rescan would compute, because every
//!   raw-key input is covered by the dirty-set definition.
//!
//! Stale entries are never purged eagerly; the heaps are drained
//! lazily, so a push is `O(log heap)` and a pop amortizes over the
//! entries it discards.
//!
//! # Sharding, cached minima and the tournament
//!
//! The heaps are grouped into contiguous channel bands by a
//! [`ShardMap`], and each shard caches its minimum *composed* key. A
//! cache stays valid until something that could move it happens: a push
//! into the shard, a pop out of it, an [`Scoreboard::invalidate`]
//! touching a heap the net has entries in, or a
//! [`Scoreboard::refresh_channel`] on one of its channels. Selection
//! rebuilds only the invalid shards (draining stale heap tops,
//! composing each heap's live top — one aggregate read per heap — and
//! taking the strict-less minimum in ascending heap index), then runs a
//! **tournament** over the cached shard minima in ascending shard index
//! with a strict-less comparison — so ties (under the EPS-fuzzy
//! [`compare`]) resolve to the lowest heap index holding the minimum,
//! exactly as a single global heap would resolve them, because every
//! live entry's key carries its `(net, edge)` identity and [`compare`]
//! ends in that total tiebreak. DESIGN.md §10 gives the full
//! determinism argument, including why EPS-fuzziness does not perturb
//! it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bgr_layout::ChannelId;
use bgr_netlist::NetId;

use crate::config::CriteriaOrder;
use crate::density::DensityMap;
use crate::probe::{Counter, Hist, NoopProbe, Probe};
use crate::select::{compare, ranks_first, EdgeKey};
use crate::shard::ShardMap;

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

/// Generation state of one (net, heap) pair.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    gen: u64,
    /// Whether entries were pushed since the last invalidation: only
    /// then does an invalidation dirty the heap's shard.
    pushed: bool,
}

/// Cached minimum of one shard: the best composed key over its heaps,
/// valid until the shard receives a push / pop / invalidation /
/// aggregate refresh.
#[derive(Debug, Clone, Default)]
struct ShardCache {
    valid: bool,
    /// `(heap, composed key)` of the shard's best live entry, `None`
    /// when the shard is empty of live entries.
    min: Option<(u32, EdgeKey)>,
}

/// Ordered candidate pool over every deletable edge of the in-scope
/// nets. See the [module docs](self) for raw keys, the invalidation
/// contract and the sharded tournament.
#[derive(Debug)]
pub struct Scoreboard {
    /// One heap per channel, plus the trailing channelless heap
    /// (feed-half candidates; composed with the identity).
    heaps: Vec<BinaryHeap<Entry>>,
    map: ShardMap,
    /// Per net: `(heap, slot)` of every heap it ever pushed into.
    net_slots: Vec<Vec<(u32, u32)>>,
    slots: Vec<Slot>,
    cache: Vec<ShardCache>,
    /// Precomputed shard → heaps expansion of `map`.
    shard_heaps: Vec<Vec<u32>>,
    order: CriteriaOrder,
}

impl Scoreboard {
    /// Creates an empty single-shard scoreboard for `num_nets` nets
    /// over `num_channels` channels (plus the channelless heap),
    /// comparing keys with `order`.
    pub fn new(num_nets: usize, num_channels: usize, order: CriteriaOrder) -> Self {
        Self::with_shards(ShardMap::single(num_channels + 1), num_nets, order)
    }

    /// Creates an empty scoreboard sharded by `map` (which covers the
    /// channel heaps plus the trailing channelless heap), comparing
    /// keys with `order`.
    pub fn with_shards(map: ShardMap, num_nets: usize, order: CriteriaOrder) -> Self {
        let shards = map.count();
        let mut shard_heaps = vec![Vec::new(); shards];
        for h in 0..map.num_heaps() {
            shard_heaps[map.shard_of_heap(h)].push(h as u32);
        }
        Self {
            heaps: (0..map.num_heaps()).map(|_| BinaryHeap::new()).collect(),
            net_slots: vec![Vec::new(); num_nets],
            slots: Vec::new(),
            cache: vec![ShardCache::default(); shards],
            shard_heaps,
            map,
            order,
        }
    }

    /// Number of live (non-stale) entries is at most this; stale entries
    /// inflate it until they are popped.
    pub fn len(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum()
    }

    /// Whether the heaps hold no entries at all (stale or live).
    pub fn is_empty(&self) -> bool {
        self.heaps.iter().all(BinaryHeap::is_empty)
    }

    /// The criteria order this scoreboard compares keys with.
    pub fn order(&self) -> CriteriaOrder {
        self.order
    }

    /// Number of shards the heaps are grouped into.
    pub fn num_shards(&self) -> usize {
        self.cache.len()
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

    fn dirty_shard_of_heap(&mut self, heap: usize) {
        let s = self.map.shard_of_heap(heap);
        self.cache[s].valid = false;
    }

    /// The slot of `(net, heap)`, if the net ever pushed there.
    fn slot_of(&self, net: NetId, heap: usize) -> Option<usize> {
        self.net_slots[net.index()]
            .iter()
            .find(|&&(h, _)| h as usize == heap)
            .map(|&(_, s)| s as usize)
    }

    /// Whether `e` is live: its slot's generation has not moved since
    /// the push.
    fn is_live(&self, e: &Entry) -> bool {
        e.stamp == self.slots[e.slot as usize].gen
    }

    /// Invalidates every entry of `net` in `channel`'s heap (the
    /// channelless heap when `None`): bumps the (net, heap) generation
    /// so existing entries die lazily, and dirties the heap's shard if
    /// the net pushed there since its last invalidation. The net's
    /// entries in other heaps stay live. Call before re-pushing the
    /// heap's current key.
    ///
    /// # Panics
    ///
    /// Panics if the generation counter would wrap. A `u64` bump per
    /// re-key cannot overflow in any real route (half a million re-keys
    /// per second for a million years), so wraparound could only mean
    /// memory corruption — and silently wrapping would resurrect every
    /// stale entry pushed under generation zero.
    pub fn invalidate(&mut self, net: NetId, channel: Option<ChannelId>) {
        let heap = self.heap_of(channel);
        let Some(s) = self.slot_of(net, heap) else {
            return;
        };
        let slot = &mut self.slots[s];
        slot.gen = slot
            .gen
            .checked_add(1)
            .expect("scoreboard generation counter overflowed");
        if std::mem::take(&mut slot.pushed) {
            self.dirty_shard_of_heap(heap);
        }
    }

    /// Declares that `channel`'s aggregates moved: the raw entries of
    /// its heap are all still valid, but the shard's cached minimum was
    /// composed under the old aggregates and must be recomposed.
    pub fn refresh_channel(&mut self, channel: ChannelId) {
        self.dirty_shard_of_heap(channel.index());
    }

    /// Pushes a raw candidate key into its channel's heap (the
    /// channelless heap when `channel` is `None`), stamped with the
    /// (net, heap) pair's current generation.
    pub fn push(&mut self, key: EdgeKey, channel: Option<ChannelId>) {
        let heap = self.heap_of(channel);
        let s = match self.slot_of(key.net, heap) {
            Some(s) => s,
            None => {
                let s = self.slots.len();
                self.slots.push(Slot::default());
                self.net_slots[key.net.index()].push((heap as u32, s as u32));
                s
            }
        };
        self.slots[s].pushed = true;
        self.heaps[heap].push(Entry {
            key,
            stamp: self.slots[s].gen,
            slot: s as u32,
            order: self.order,
        });
        self.dirty_shard_of_heap(heap);
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
                heap.iter()
                    .filter(|e| self.is_live(e))
                    .map(|e| (channel, e.key)),
            );
        }
        out
    }

    /// Drains stale entries off the top of heap `h`, returning how many
    /// were discarded. Afterwards the heap's top (if any) is live.
    fn drain_stale_top(&mut self, h: usize) -> u64 {
        let mut stale = 0u64;
        while let Some(e) = self.heaps[h].peek() {
            if self.is_live(e) {
                break;
            }
            self.heaps[h].pop();
            stale += 1;
        }
        stale
    }

    /// Rebuilds the cached minimum of shard `s`: drains stale heap
    /// tops, composes each live top under the current aggregates (one
    /// aggregate read per non-empty heap) and takes the strict-less
    /// minimum in ascending heap index. Returns the stale-drain count.
    fn rebuild_shard<P: Probe>(&mut self, s: usize, density: &DensityMap, probe: &mut P) -> u64 {
        if P::ENABLED {
            probe.count(Counter::ShardRebuild, 1);
        }
        let mut stale = 0u64;
        let mut min: Option<(u32, EdgeKey)> = None;
        let heaps = std::mem::take(&mut self.shard_heaps[s]);
        for &h in &heaps {
            stale += self.drain_stale_top(h as usize);
            let Some(raw) = self.heaps[h as usize].peek().map(|e| e.key) else {
                continue;
            };
            if P::ENABLED {
                probe.count(Counter::DensityAggregateQuery, 1);
            }
            let composed = self.compose(h as usize, raw, density);
            if ranks_first(&composed, min.as_ref().map(|(_, b)| b), self.order) {
                min = Some((h, composed));
            }
        }
        self.shard_heaps[s] = heaps;
        self.cache[s] = ShardCache { valid: true, min };
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
    /// one [`Hist::StalePopsPerSelection`] observation, and every shard
    /// whose cached minimum had to be rebuilt counts one
    /// [`Counter::ShardRebuild`] (shards with no fresh entries are
    /// skipped — their cache is still valid).
    ///
    /// The tournament scans cached shard minima in ascending shard
    /// index and takes a candidate only when strictly less than the
    /// best so far, so the result is a pure function of the live
    /// entries and current aggregates (see the [module docs](self)).
    pub fn pop_valid_probed<P: Probe>(
        &mut self,
        density: &DensityMap,
        probe: &mut P,
    ) -> Option<EdgeKey> {
        let mut stale = 0u64;
        for s in 0..self.cache.len() {
            if !self.cache[s].valid {
                stale += self.rebuild_shard(s, density, probe);
            }
        }
        let mut best: Option<(usize, EdgeKey)> = None;
        for c in &self.cache {
            let Some((heap, key)) = c.min else { continue };
            if ranks_first(&key, best.as_ref().map(|(_, b)| b), self.order) {
                best = Some((heap as usize, key));
            }
        }
        let out = best.map(|(heap, key)| {
            let popped = self.heaps[heap]
                .pop()
                .expect("tournament winner heap has a top entry");
            debug_assert!(
                popped.key.net == key.net && popped.key.edge == key.edge,
                "cached shard minimum diverged from its heap top"
            );
            self.dirty_shard_of_heap(heap);
            key
        });
        if P::ENABLED {
            probe.count(Counter::HeapPop, stale + u64::from(out.is_some()));
            probe.count(Counter::StaleHeapPop, stale);
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
    /// so the live set — and with it every shard's cached minimum — is
    /// unchanged; only stale entries are (harmlessly) drained. Unprobed
    /// on purpose: provenance peeking must not perturb the heap-pop
    /// diagnostics.
    pub fn runner_up(&mut self, exclude: NetId, density: &DensityMap) -> Option<EdgeKey> {
        let mut best: Option<EdgeKey> = None;
        let mut stash: Vec<(usize, Entry)> = Vec::new();
        for h in 0..self.heaps.len() {
            while let Some(e) = self.heaps[h].peek() {
                if !self.is_live(e) {
                    self.heaps[h].pop();
                } else if e.key.net == exclude {
                    let e = self.heaps[h].pop().expect("peeked entry pops");
                    stash.push((h, e));
                } else {
                    break;
                }
            }
            let Some(raw) = self.heaps[h].peek().map(|e| e.key) else {
                continue;
            };
            let composed = self.compose(h, raw, density);
            if ranks_first(&composed, best.as_ref(), self.order) {
                best = Some(composed);
            }
        }
        for (h, e) in stash {
            self.heaps[h].push(e);
        }
        best
    }
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

    /// Four channel heaps in two shards: channels 0-1 in shard 0,
    /// channels 2-3 in shard 1 (the channelless heap rides in shard 0).
    fn two_shard_map() -> ShardMap {
        ShardMap::by_channel_bands(2, 4)
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

    #[test]
    fn tournament_pops_the_global_minimum_across_shards() {
        let d = flat();
        let mut sb = Scoreboard::with_shards(two_shard_map(), 4, CriteriaOrder::DelayFirst);
        assert_eq!(sb.num_shards(), 2);
        sb.push(key(0, 0, 4), ch(0)); // shard 0
        sb.push(key(2, 0, -1), ch(2)); // shard 1: global minimum
        sb.push(key(3, 0, 2), ch(3)); // shard 1
        sb.push(key(1, 0, 0), ch(1)); // shard 0
        let pops: Vec<usize> =
            std::iter::from_fn(|| sb.pop_valid(&d).map(|k| k.net.index())).collect();
        assert_eq!(pops, vec![2, 1, 3, 0]);
        assert!(sb.is_empty());
    }

    #[test]
    fn tournament_ties_resolve_by_total_key_order_not_shard_order() {
        // Identical criteria in both shards: the (net, edge) tiebreak of
        // `compare` decides, exactly as a single global heap would.
        let d = flat();
        let mut sb = Scoreboard::with_shards(two_shard_map(), 4, CriteriaOrder::DelayFirst);
        sb.push(key(2, 0, 0), ch(2)); // shard 1, lower net id than…
        sb.push(key(3, 0, 0), ch(3)); // …its shard 1 sibling
        sb.push(key(0, 1, 0), ch(0)); // shard 0, lowest net id of all
        let pops: Vec<usize> =
            std::iter::from_fn(|| sb.pop_valid(&d).map(|k| k.net.index())).collect();
        assert_eq!(pops, vec![0, 2, 3]);
    }

    #[test]
    fn stale_champion_of_fully_bridged_net_is_skipped_in_every_shard() {
        // A net whose last deletable edge became a bridge re-keys to *no*
        // entries: its generation bumps and nothing is re-pushed. The
        // tournament must see through the stale top of its heap.
        let d = flat();
        let mut sb = Scoreboard::with_shards(two_shard_map(), 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, -5), ch(0)); // shard 0: would win the tournament…
        sb.push(key(2, 0, 3), ch(2)); // shard 1
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
        let mut sb = Scoreboard::with_shards(two_shard_map(), 2, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, -5), ch(0)); // shard 0
        sb.push(key(0, 1, -4), ch(2)); // shard 1
        sb.push(key(0, 2, -3), None); // channelless heap, shard 0
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
    fn probed_pop_counts_stale_discards_and_shard_rebuilds() {
        use crate::probe::CollectingProbe;
        let d = flat();
        let mut sb = Scoreboard::with_shards(two_shard_map(), 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0));
        sb.push(key(0, 1, 2), ch(0));
        sb.push(key(2, 0, 5), ch(2));
        sb.invalidate(NetId::new(0), ch(0)); // both shard-0 entries go stale
        let mut probe = CollectingProbe::new();
        let got = sb.pop_valid_probed(&d, &mut probe);
        assert_eq!(got.map(|k| k.net), Some(NetId::new(2)));
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::StaleHeapPop), 2);
        assert_eq!(trace.counter(Counter::HeapPop), 3);
        // Both shards were fresh-dirty, so both rebuilt.
        assert_eq!(trace.counter(Counter::ShardRebuild), 2);
    }

    #[test]
    fn valid_shards_skip_the_rebuild() {
        use crate::probe::CollectingProbe;
        let d = flat();
        let mut sb = Scoreboard::with_shards(two_shard_map(), 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0)); // shard 0
        sb.push(key(2, 0, 2), ch(2)); // shard 1
        sb.push(key(3, 0, 3), ch(3)); // shard 1
        let mut probe = CollectingProbe::new();
        // First pop rebuilds both shards and takes net 0 from shard 0.
        assert_eq!(
            sb.pop_valid_probed(&d, &mut probe).map(|k| k.net),
            Some(NetId::new(0))
        );
        // Second pop: only shard 0 (the winner's) is dirty; shard 1's
        // cached minimum is reused untouched.
        assert_eq!(
            sb.pop_valid_probed(&d, &mut probe).map(|k| k.net),
            Some(NetId::new(2))
        );
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::ShardRebuild), 2 + 1);
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
    fn refresh_channel_recomposes_a_cached_shard_minimum() {
        let mut d = flat();
        let mut sb = Scoreboard::with_shards(two_shard_map(), 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 0), ch(0)); // shard 0
        sb.push(key(2, 0, 0), ch(2)); // shard 1
                                      // First pop caches shard 1's minimum under zero aggregates.
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(0)));
        // Channel 2's aggregates move (no push into shard 1), and a new
        // shard-0 entry arrives that beats the *new* composed value.
        d.add_span(ChannelId::new(2), 0, 10, 5, true);
        sb.refresh_channel(ChannelId::new(2));
        sb.push(key(1, 0, 3), ch(1));
        let k = sb.pop_valid(&d).unwrap();
        assert_eq!(k.net, NetId::new(1), "stale composed minimum won");
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(2)));
    }

    #[test]
    fn runner_up_excludes_one_net_and_leaves_the_pool_intact() {
        let d = flat();
        let mut sb = Scoreboard::with_shards(two_shard_map(), 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0));
        sb.push(key(0, 1, 2), ch(0));
        sb.push(key(1, 0, 5), ch(1));
        sb.push(key(2, 0, 3), ch(2));
        // Best of everything-but-net-0 is net 2, across both of net 0's
        // entries sitting above it in shard 0.
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
