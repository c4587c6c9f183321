//! The candidate scoreboard: an ordered pool of **raw** [`EdgeKey`]s
//! holding one key per (net, heap), one indexed heap per channel,
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
//! Aggregate motion thus never changes a stored entry. Only the heap's
//! *cached top* below must be recomposed, and the re-keys that follow a
//! deletion already dirty every heap whose channel's aggregates it can
//! move (`Engine::run_deletion`).
//!
//! # One key per (net, heap)
//!
//! A net holds at most one key in each heap: the minimum raw key over
//! its deletable edges in that heap's channel (a lane minimum of
//! `Engine::rekey`). Each heap is an indexed binary min-heap, and a
//! position map sends every (net, heap) *slot* to its entry's index, so
//! [`Scoreboard::set`] replaces a slot's key in place and sifts it, or
//! removes the entry when the net has no deletable edge left there. The
//! pool holds only current keys — its size is the number of (net, heap)
//! pairs with a deletable edge — and every push, update, removal and
//! pop is `O(log heap)`. Consequently:
//!
//! * callers must re-set every (net, heap) whose **raw** minimum may
//!   have changed — every heap of a net whose graph or timing
//!   constraints moved, and the heaps of the channels where a touched
//!   span overlaps the net's trunks (see `Engine::run_deletion`) — and
//!   must have dirtied the heap of every channel whose aggregates
//!   moved;
//! * (net, heap) pairs outside that set keep their entries, which remain
//!   *exactly* the raw keys a full rescan would compute, because every
//!   raw-key input is covered by the dirty-set definition.
//!
//! # Cached tops
//!
//! Each heap caches its *composed* top — its root under the current
//! aggregates — and carries a dirty bit. The bit is set whenever the
//! heap's entries change: a [`Scoreboard::set`] that stores a key or
//! removes one, and a pop out of the heap. A pop recomposes only the
//! dirty heaps (one aggregate read per non-empty heap), then takes the
//! strict-less minimum over the cached tops in ascending heap index,
//! the channelless heap last (`select::ranks_first`). Ties under the
//! EPS-fuzzy [`compare`] therefore resolve to the lowest heap index
//! holding the minimum, and since every key ends in its `(net, edge)`
//! identity the result is a pure function of the entries and the
//! current aggregates. DESIGN.md §8 gives the determinism argument.

use std::cmp::Ordering;

use bgr_layout::ChannelId;
use bgr_netlist::NetId;

use crate::config::CriteriaOrder;
use crate::density::DensityMap;
use crate::probe::{Counter, Probe};
use crate::select::{compare, ranks_first, EdgeKey};

/// The position of a (net, heap) slot that holds no entry.
const ABSENT: u32 = u32::MAX;

/// One heap entry: a raw key and the (net, heap) slot it belongs to.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: EdgeKey,
    slot: u32,
}

/// One heap of the pool with its cached composed top.
#[derive(Debug, Default)]
struct Heap {
    /// Binary min-heap under [`compare`]: no entry ranks before its
    /// parent `(i − 1) / 2`.
    entries: Vec<Entry>,
    /// The composed root, under the aggregates of the last
    /// recomposition; `None` when the heap was empty.
    top: Option<EdgeKey>,
    /// Whether `top` may be out of date (see the module docs).
    dirty: bool,
}

impl Heap {
    /// Whether entry `i` ranks strictly before entry `j`.
    fn before(&self, i: usize, j: usize, order: CriteriaOrder) -> bool {
        compare(&self.entries[i].key, &self.entries[j].key, order) == Ordering::Less
    }

    /// Swaps entries `i` and `j` and records their new positions.
    fn swap(&mut self, i: usize, j: usize, pos: &mut [u32]) {
        self.entries.swap(i, j);
        pos[self.entries[i].slot as usize] = i as u32;
        pos[self.entries[j].slot as usize] = j as u32;
    }

    /// Restores the heap order around entry `i`, whose key changed:
    /// sifts it up past every parent it ranks before, then down below
    /// every child that ranks before it.
    fn sift(&mut self, mut i: usize, pos: &mut [u32], order: CriteriaOrder) {
        while i > 0 && self.before(i, (i - 1) / 2, order) {
            self.swap(i, (i - 1) / 2, pos);
            i = (i - 1) / 2;
        }
        loop {
            let left = 2 * i + 1;
            if left >= self.entries.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.entries.len() && self.before(right, left, order) {
                right
            } else {
                left
            };
            if !self.before(child, i, order) {
                break;
            }
            self.swap(i, child, pos);
            i = child;
        }
    }

    /// Removes entry `i` and returns its key: the last entry takes its
    /// place and is sifted, and the removed slot's position is cleared.
    fn remove(&mut self, i: usize, pos: &mut [u32], order: CriteriaOrder) -> EdgeKey {
        let last = self.entries.len() - 1;
        self.swap(i, last, pos);
        let gone = self.entries.pop().expect("a heap entry to remove");
        pos[gone.slot as usize] = ABSENT;
        if i < last {
            self.sift(i, pos, order);
        }
        gone.key
    }
}

/// Ordered candidate pool over every deletable edge of the in-scope
/// nets. See the [module docs](self) for raw keys, the one-key-per-slot
/// contract and the cached tops.
#[derive(Debug)]
pub struct Scoreboard {
    /// One heap per channel, plus the trailing channelless heap
    /// (feed-half candidates; composed with the identity).
    heaps: Vec<Heap>,
    /// Per net: `(heap, slot)` of every heap it ever held a key in.
    net_slots: Vec<Vec<(u32, u32)>>,
    /// Per slot: its entry's index in its heap, or [`ABSENT`].
    pos: Vec<u32>,
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
            pos: Vec::new(),
            order,
        }
    }

    /// Number of keys the heaps hold: one per (net, heap) with a
    /// deletable edge.
    pub fn len(&self) -> usize {
        self.heaps.iter().map(|h| h.entries.len()).sum()
    }

    /// Whether the heaps hold no keys.
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

    /// The slot of `(net, heap)`, if the net ever held a key there.
    fn slot_of(&self, net: NetId, heap: usize) -> Option<usize> {
        self.net_slots[net.index()]
            .iter()
            .find(|&&(h, _)| h as usize == heap)
            .map(|&(_, s)| s as usize)
    }

    /// Sets `net`'s raw key in `channel`'s heap (the channelless heap
    /// when `None`): stores `key` in place of the net's previous key
    /// there, or removes that key when `key` is `None` (the net has no
    /// deletable edge left in the heap). The net's keys in other heaps
    /// are untouched. Dirties the heap's top whenever its entries
    /// change: on every stored key, and on a removal of a present one.
    pub fn set(&mut self, net: NetId, channel: Option<ChannelId>, key: Option<EdgeKey>) {
        debug_assert!(
            key.is_none_or(|k| k.net == net),
            "a key set for another net"
        );
        let h = self.heap_of(channel);
        let s = match self.slot_of(net, h) {
            Some(s) => s,
            None if key.is_none() => return,
            None => {
                self.pos.push(ABSENT);
                let s = self.pos.len() - 1;
                self.net_slots[net.index()].push((h as u32, s as u32));
                s
            }
        };
        let heap = &mut self.heaps[h];
        match (self.pos[s], key) {
            (ABSENT, None) => return,
            (ABSENT, Some(key)) => {
                self.pos[s] = heap.entries.len() as u32;
                heap.entries.push(Entry {
                    key,
                    slot: s as u32,
                });
                heap.sift(heap.entries.len() - 1, &mut self.pos, self.order);
            }
            (at, Some(key)) => {
                heap.entries[at as usize].key = key;
                heap.sift(at as usize, &mut self.pos, self.order);
            }
            (at, None) => {
                heap.remove(at as usize, &mut self.pos, self.order);
            }
        }
        heap.dirty = true;
    }

    /// Whether `channel`'s heap will recompose its cached top at the
    /// next pop.
    pub(crate) fn is_dirty(&self, channel: ChannelId) -> bool {
        self.heaps[channel.index()].dirty
    }

    /// Every entry as `(channel, raw key)` (`None` = the channelless
    /// heap), heap by heap in unspecified order within a heap — the
    /// step-level oracle's view of the pool. `O(entries)`.
    pub(crate) fn entries(&self) -> Vec<(Option<ChannelId>, EdgeKey)> {
        let channelless = self.channelless();
        let mut out = Vec::new();
        for (h, heap) in self.heaps.iter().enumerate() {
            let channel = (h != channelless).then(|| ChannelId::new(h));
            out.extend(heap.entries.iter().map(|e| (channel, e.key)));
        }
        out
    }

    /// The step-level check of the pool's bookkeeping: the position map
    /// against the heap arrays (every slot with a position points at an
    /// entry of its own net and slot in its own heap, and every entry's
    /// slot points back at it), the heap order (no entry ranks before
    /// its parent), and every clean heap's cached top, which must equal
    /// its root composed under `density`'s aggregates. `O(entries)`.
    ///
    /// # Panics
    ///
    /// Panics naming the first slot or entry whose position diverges,
    /// the first entry out of heap order, or the first clean heap whose
    /// cached top diverges.
    pub(crate) fn audit(&self, density: &DensityMap) {
        for (net, slots) in self.net_slots.iter().enumerate() {
            for &(h, s) in slots {
                let at = self.pos[s as usize];
                if at == ABSENT {
                    continue;
                }
                let entry = self.heaps[h as usize].entries.get(at as usize);
                assert!(
                    entry.is_some_and(|e| e.slot == s && e.key.net.index() == net),
                    "self-audit: scoreboard slot {s} (net {net}, heap {h}) is at \
                     position {at}, which holds {entry:?}"
                );
            }
        }
        for (h, heap) in self.heaps.iter().enumerate() {
            for (i, e) in heap.entries.iter().enumerate() {
                assert!(
                    self.pos[e.slot as usize] == i as u32,
                    "self-audit: scoreboard heap {h} holds slot {} at {i}, \
                     the position map says {}",
                    e.slot,
                    self.pos[e.slot as usize]
                );
                assert!(
                    i == 0 || !heap.before(i, (i - 1) / 2, self.order),
                    "self-audit: scoreboard heap {h} entry {i} ranks before its parent"
                );
            }
            if heap.dirty {
                continue;
            }
            let want = heap
                .entries
                .first()
                .map(|e| self.compose(h, e.key, density));
            assert!(
                heap.top == want,
                "self-audit: cached top of clean scoreboard heap {h} diverged: \
                 cached {:?}, recomposed {want:?}",
                heap.top
            );
        }
    }

    /// Recomposes heap `h`'s cached top: its root under the current
    /// aggregates.
    fn recompose<P: Probe>(&mut self, h: usize, density: &DensityMap, probe: &mut P) {
        let raw = self.heaps[h].entries.first().map(|e| e.key);
        if P::ENABLED {
            probe.count(Counter::ShardRebuild, 1);
            probe.count(Counter::DensityAggregateQuery, u64::from(raw.is_some()));
        }
        let top = raw.map(|raw| self.compose(h, raw, density));
        let heap = &mut self.heaps[h];
        heap.top = top;
        heap.dirty = false;
    }

    /// Pops the best candidate — the minimum **composed** key over all
    /// entries under the current aggregates — or `None` when the pool
    /// is empty. Every pop counts one [`Counter::HeapPop`], and every
    /// dirty heap whose top is recomposed one [`Counter::ShardRebuild`]
    /// (clean heaps keep their cached top).
    ///
    /// The minimum scans the cached tops in ascending heap index and
    /// takes a candidate only when strictly less than the best so far,
    /// so the result is a pure function of the entries and current
    /// aggregates (see the [module docs](self)).
    pub fn pop<P: Probe>(&mut self, density: &DensityMap, probe: &mut P) -> Option<EdgeKey> {
        for h in 0..self.heaps.len() {
            if self.heaps[h].dirty {
                self.recompose(h, density, probe);
            }
        }
        let mut best: Option<(usize, EdgeKey)> = None;
        for (h, heap) in self.heaps.iter().enumerate() {
            let Some(key) = &heap.top else { continue };
            if ranks_first(key, best.as_ref().map(|(_, b)| b), self.order) {
                best = Some((h, *key));
            }
        }
        let (h, key) = best?;
        let heap = &mut self.heaps[h];
        let raw = heap.remove(0, &mut self.pos, self.order);
        debug_assert!(
            raw.net == key.net && raw.edge == key.edge,
            "cached heap top diverged from the heap"
        );
        heap.dirty = true;
        if P::ENABLED {
            probe.count(Counter::HeapPop, 1);
        }
        Some(key)
    }

    /// The best composed key over the entries of every net but
    /// `exclude` — the runner-up the decision-provenance probe compares
    /// the winner against, equal by construction to the full rescan's
    /// second-best champion.
    ///
    /// A net holds at most one entry per heap, so where `exclude` holds
    /// a heap's root the heap's best other entry is the better of the
    /// root's two children. Reads the pool only, and is unprobed on
    /// purpose: provenance peeking must not perturb the heap-pop
    /// diagnostics.
    pub fn runner_up(&self, exclude: NetId, density: &DensityMap) -> Option<EdgeKey> {
        let mut best: Option<EdgeKey> = None;
        for (h, heap) in self.heaps.iter().enumerate() {
            let skip = usize::from(heap.entries.first().is_some_and(|e| e.key.net == exclude));
            for e in heap.entries.iter().skip(skip).take(1 + skip) {
                let composed = self.compose(h, e.key, density);
                if ranks_first(&composed, best.as_ref(), self.order) {
                    best = Some(composed);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::DelayCriteria;
    use crate::probe::{CollectingProbe, NoopProbe};

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

    /// Sets `k` as its net's key in `channel`'s heap.
    fn put(sb: &mut Scoreboard, k: EdgeKey, channel: Option<ChannelId>) {
        sb.set(k.net, channel, Some(k));
    }

    fn pop(sb: &mut Scoreboard, d: &DensityMap) -> Option<EdgeKey> {
        sb.pop(d, &mut NoopProbe)
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
        put(&mut sb, key(0, 0, 5), ch(0));
        put(&mut sb, key(1, 0, -2), ch(0));
        put(&mut sb, key(2, 0, 1), ch(0));
        assert_eq!(pop(&mut sb, &d).map(|k| k.net), Some(NetId::new(1)));
        assert_eq!(pop(&mut sb, &d).map(|k| k.net), Some(NetId::new(2)));
        assert_eq!(pop(&mut sb, &d).map(|k| k.net), Some(NetId::new(0)));
        assert_eq!(pop(&mut sb, &d), None);
    }

    #[test]
    fn removal_takes_the_net_out_of_its_heap() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, -10), ch(0)); // would win…
        put(&mut sb, key(1, 0, 3), ch(0));
        sb.set(NetId::new(0), ch(0), None); // …but is removed
        assert_eq!(sb.len(), 1);
        assert_eq!(pop(&mut sb, &d).map(|k| k.net), Some(NetId::new(1)));
        assert_eq!(pop(&mut sb, &d), None);
    }

    #[test]
    fn setting_a_removed_slot_again_revives_the_net() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, 0), ch(1));
        sb.set(NetId::new(0), ch(1), None);
        put(&mut sb, key(0, 1, 7), ch(1));
        let k = pop(&mut sb, &d).unwrap();
        assert_eq!((k.net, k.edge), (NetId::new(0), 1));
        assert_eq!(pop(&mut sb, &d), None);
    }

    #[test]
    fn an_update_in_place_replaces_the_key_and_moves_it() {
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        for (net, f) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            put(&mut sb, key(net, 0, f), ch(2));
        }
        // Net 0 falls behind everyone, net 3 overtakes everyone: one
        // entry per net, so the heap still holds four keys.
        put(&mut sb, key(0, 5, 9), ch(2));
        put(&mut sb, key(3, 6, -1), ch(2));
        assert_eq!(sb.len(), 4);
        sb.audit(&d);
        let pops: Vec<(usize, u32)> =
            std::iter::from_fn(|| pop(&mut sb, &d).map(|k| (k.net.index(), k.edge))).collect();
        assert_eq!(pops, vec![(3, 6), (1, 0), (2, 0), (0, 5)]);
    }

    #[test]
    fn id_tiebreaks_keep_pops_deterministic() {
        let d = flat();
        let mut sb = Scoreboard::new(3, 4, CriteriaOrder::DelayFirst);
        // Identical criteria: net ids decide.
        put(&mut sb, key(2, 0, 0), ch(2));
        put(&mut sb, key(0, 0, 0), ch(2));
        put(&mut sb, key(1, 0, 0), ch(2));
        let order: Vec<usize> =
            std::iter::from_fn(|| pop(&mut sb, &d).map(|k| k.net.index())).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// The minimum over the cached tops is the global one, ties across
    /// heaps fall to the `(net, edge)` order of [`compare`] whatever the
    /// heap index, and a set dirties only its own heap: every other
    /// heap's cached top survives it untouched.
    #[test]
    fn pops_the_global_minimum_across_heaps_and_keeps_clean_tops() {
        let d = flat();
        let mut sb = Scoreboard::new(7, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, 4), ch(0));
        put(&mut sb, key(2, 0, -1), ch(2)); // the global minimum
        put(&mut sb, key(3, 0, 2), ch(3));
        put(&mut sb, key(1, 0, 0), ch(1));
        // Ties: identical criteria in channels 3 and 0 — the lower net
        // id wins although its heap index is higher.
        put(&mut sb, key(5, 0, 1), ch(0));
        put(&mut sb, key(4, 0, 1), ch(3));
        let mut probe = CollectingProbe::new();
        let first = sb.pop(&d, &mut probe).map(|k| k.net.index());
        assert_eq!(first, Some(2));
        let clean = sb.heaps[3].top;
        assert_eq!(clean.map(|k| k.net.index()), Some(4));
        put(&mut sb, key(6, 0, 7), ch(1));
        assert!(!sb.heaps[3].dirty, "a set in heap 1 dirtied heap 3");
        assert_eq!(sb.heaps[3].top, clean);
        let rest: Vec<usize> =
            std::iter::from_fn(|| sb.pop(&d, &mut probe).map(|k| k.net.index())).collect();
        assert_eq!(rest, vec![1, 4, 5, 3, 0, 6]);
        assert!(sb.is_empty());
        // The first pop recomposes the four filled heaps, the second the
        // first winner's heap and heap 1 (set into), and each of the six
        // calls after it only the previous winner's heap.
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::ShardRebuild), 4 + 2 + 6);
    }

    #[test]
    fn fully_bridged_net_is_skipped() {
        // A net whose last deletable edge became a bridge re-keys to *no*
        // key: its entry is removed, and the pop sees the next heap's.
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, -5), ch(0)); // would win…
        put(&mut sb, key(2, 0, 3), ch(2));
        sb.set(NetId::new(0), ch(0), None); // …but its net is now fully bridged
        assert_eq!(pop(&mut sb, &d).map(|k| k.net), Some(NetId::new(2)));
        assert_eq!(pop(&mut sb, &d), None);
        assert!(sb.is_empty());
    }

    #[test]
    fn setting_one_heap_keeps_the_nets_other_heaps() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, -5), ch(0));
        put(&mut sb, key(0, 1, -4), ch(2));
        put(&mut sb, key(0, 2, -3), None); // channelless heap
        put(&mut sb, key(1, 0, 0), ch(2));
        // Re-key net 0's channel-0 heap only: its old key is replaced,
        // the untouched heaps keep theirs.
        put(&mut sb, key(0, 3, 2), ch(0));
        let mut live: Vec<(usize, u32)> = sb
            .entries()
            .into_iter()
            .map(|(_, k)| (k.net.index(), k.edge))
            .collect();
        live.sort_unstable();
        assert_eq!(live, vec![(0, 1), (0, 2), (0, 3), (1, 0)]);
        let pops: Vec<u32> = std::iter::from_fn(|| pop(&mut sb, &d).map(|k| k.edge)).collect();
        assert_eq!(pops, vec![1, 2, 0, 3]);
        // Removing from a heap the net never held a key in is a no-op.
        sb.set(NetId::new(1), ch(3), None);
        assert_eq!(pop(&mut sb, &d), None);
    }

    #[test]
    fn probed_pop_counts_winning_pops_and_recomposed_tops() {
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, 1), ch(0));
        put(&mut sb, key(1, 0, 2), ch(0));
        put(&mut sb, key(2, 0, 5), ch(2));
        sb.set(NetId::new(0), ch(0), None);
        sb.set(NetId::new(1), ch(0), None);
        let mut probe = CollectingProbe::new();
        let got = sb.pop(&d, &mut probe);
        assert_eq!(got.map(|k| k.net), Some(NetId::new(2)));
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::HeapPop), 1);
        assert_eq!(trace.counter(Counter::StaleHeapPop), 0);
        // Both heaps were dirty, so both tops were recomposed.
        assert_eq!(trace.counter(Counter::ShardRebuild), 2);
    }

    #[test]
    fn clean_heaps_skip_the_recompose() {
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, 1), ch(0));
        put(&mut sb, key(2, 0, 2), ch(2));
        put(&mut sb, key(3, 0, 3), ch(3));
        let mut probe = CollectingProbe::new();
        // First pop recomposes all three tops and takes net 0.
        assert_eq!(sb.pop(&d, &mut probe).map(|k| k.net), Some(NetId::new(0)));
        // Second pop: only heap 0 (the winner's) is dirty; the cached
        // tops of heaps 2 and 3 are reused untouched.
        assert_eq!(sb.pop(&d, &mut probe).map(|k| k.net), Some(NetId::new(2)));
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
        put(&mut sb, key(1, 0, 0), ch(2)); // lower net id, but composed f_min = 3
        put(&mut sb, key(0, 0, 0), ch(1)); // composed f_min = 0: wins
        let first = pop(&mut sb, &d).unwrap();
        assert_eq!(first.net, NetId::new(0));
        assert_eq!(first.f_min, 0);
        let second = pop(&mut sb, &d).unwrap();
        assert_eq!(second.net, NetId::new(1));
        // The returned key is the *composed* one.
        assert_eq!(second.f_min, 3);
    }

    #[test]
    fn runner_up_excludes_one_net_and_leaves_the_pool_intact() {
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        put(&mut sb, key(0, 0, 1), ch(0));
        put(&mut sb, key(0, 1, 2), ch(3));
        put(&mut sb, key(1, 0, 5), ch(1));
        put(&mut sb, key(2, 0, 3), ch(2));
        put(&mut sb, key(3, 0, 2), ch(0));
        // Net 0 holds the roots of heaps 0 and 3: the best of
        // everything else is net 3, a child of net 0's root in heap 0.
        let second = sb.runner_up(NetId::new(0), &d);
        assert_eq!(second.map(|k| k.net), Some(NetId::new(3)));
        assert_eq!(
            sb.runner_up(NetId::new(3), &d).map(|k| (k.net, k.edge)),
            Some((NetId::new(0), 0))
        );
        let pops: Vec<(usize, u32)> =
            std::iter::from_fn(|| pop(&mut sb, &d).map(|k| (k.net.index(), k.edge))).collect();
        assert_eq!(pops, vec![(0, 0), (0, 1), (3, 0), (2, 0), (1, 0)]);
    }

    /// Differential check of the indexed heaps: random sets, removals,
    /// pops and runner-up peeks over every heap, with channel
    /// aggregates moving under them, against a linear scan over a plain
    /// `(heap, net) → raw key` map in ascending heap order.
    #[test]
    fn indexed_heaps_match_a_linear_scan() {
        use bgr_netlist::SplitMix64;
        use std::collections::BTreeMap;
        let (nets, channels) = (16, 4);
        for order in [
            CriteriaOrder::DelayFirst,
            CriteriaOrder::AreaFirst,
            CriteriaOrder::DensityOnly,
        ] {
            let mut rng = SplitMix64::new(0x5C0_4EB0 + order as u64);
            let mut d = DensityMap::new(channels, 100);
            let mut sb = Scoreboard::new(nets, channels, order);
            let mut model: BTreeMap<(usize, usize), EdgeKey> = BTreeMap::new();
            let composed = |d: &DensityMap, h: usize, k: &EdgeKey| {
                let mut k = *k;
                if h < channels {
                    let c = ChannelId::new(h);
                    k.f_min += d.c_min(c);
                    k.n_min += d.nc_min(c);
                    k.f_max += d.c_max(c);
                    k.n_max += d.nc_max(c);
                }
                k
            };
            // The model's best composed key, optionally of another net.
            let scan = |model: &BTreeMap<(usize, usize), EdgeKey>,
                        d: &DensityMap,
                        exclude: Option<usize>| {
                let mut best: Option<(usize, EdgeKey)> = None;
                for (&(h, net), k) in model {
                    let k = composed(d, h, k);
                    if Some(net) != exclude && ranks_first(&k, best.map(|b| b.1).as_ref(), order) {
                        best = Some((h, k));
                    }
                }
                best
            };
            let heap_channel = |h: usize| (h < channels).then(|| ChannelId::new(h));
            for step in 0..4000u32 {
                let net = rng.range_usize(0, nets);
                let h = rng.range_usize(0, channels + 1);
                match rng.range_usize(0, 10) {
                    0..=5 => {
                        // Few distinct values, so ties reach every tier.
                        let k = EdgeKey {
                            delay: DelayCriteria {
                                cd: rng.range_usize(0, 2) as u32,
                                gl: f64::from(rng.range_i32(0, 3)) * 0.5,
                                ld: f64::from(rng.range_i32(0, 3)) * 0.25,
                            },
                            is_trunk: rng.next_bool(0.7),
                            f_min: rng.range_i32(-4, 4),
                            n_min: rng.range_i32(-2, 2),
                            f_max: rng.range_i32(-4, 4),
                            n_max: rng.range_i32(-2, 2),
                            len_um: f64::from(rng.range_i32(1, 4)) * 10.0,
                            net: NetId::new(net),
                            edge: step,
                        };
                        sb.set(k.net, heap_channel(h), Some(k));
                        model.insert((h, net), k);
                    }
                    6 | 7 => {
                        sb.set(NetId::new(net), heap_channel(h), None);
                        model.remove(&(h, net));
                    }
                    8 => {
                        let want = scan(&model, &d, None);
                        let got = sb.pop(&d, &mut NoopProbe);
                        assert_eq!(got, want.map(|w| w.1), "pop at step {step}");
                        if let Some((h, k)) = want {
                            model.remove(&(h, k.net.index()));
                        }
                    }
                    _ => {
                        // Aggregates move only with a dirtied heap, as
                        // the deleted net's re-key ensures in the engine.
                        let c = rng.range_usize(0, channels);
                        let x1 = rng.range_i32(0, 90);
                        let w = rng.range_i32(1, 4);
                        d.add_span(ChannelId::new(c), x1, x1 + 10, w, rng.next_bool(0.5));
                        sb.heaps[c].dirty = true;
                    }
                }
                let want = scan(&model, &d, Some(net)).map(|w| w.1);
                assert_eq!(
                    sb.runner_up(NetId::new(net), &d),
                    want,
                    "runner-up at step {step}"
                );
                assert_eq!(sb.len(), model.len(), "size at step {step}");
                if step % 64 == 0 {
                    sb.audit(&d);
                }
            }
            while let Some((h, k)) = scan(&model, &d, None) {
                assert_eq!(sb.pop(&d, &mut NoopProbe), Some(k));
                model.remove(&(h, k.net.index()));
            }
            assert!(sb.is_empty());
        }
    }
}
