//! Deterministic fork-join execution over disjoint items.
//!
//! The router itself runs on one thread; parallelism lives a level up,
//! across independent units of work whose results must be
//! *bit-identical* to a sequential run: the serve layer's jobs
//! (`JobQueue::run_round`).
//!
//! [`scoped_map`] is the whole subsystem: a `std::thread::scope`-based
//! map over a mutable slice that
//!
//! * partitions the slice into **contiguous chunks in input order** and
//!   concatenates the per-chunk results back **in chunk order**, so
//!   `scoped_map(t, items, f)[i] == f(&mut items[i])` for every `i`
//!   regardless of `threads` — the caller orders its work list and the
//!   merge order is then a pure function of the input;
//! * runs the **first chunk on the calling thread**, so small batches
//!   pay zero spawn cost beyond the `threads <= 1` early-out and large
//!   batches use the caller as one of the workers;
//! * spawns **scoped** threads (no `'static` bound, no channels, no
//!   shared queues — no new dependencies), joining them all before
//!   returning, so a worker panic propagates to the caller instead of
//!   being lost.
//!
//! Determinism argument: `f` receives `&mut T` for *disjoint* items and
//! whatever `Sync` environment it captures immutably. Which thread runs
//! which item affects neither the item's result nor any shared state,
//! and the concatenation order is fixed, so the output vector — and any
//! per-item side effect the caller later folds **in input order** — is
//! independent of the thread count.

/// Maps `f` over `items` using up to `threads` OS threads, returning
/// the results in input order.
///
/// `threads <= 1`, or fewer than two items, degrades to a plain
/// sequential loop with no thread machinery at all. More threads than
/// items never spawns idle workers.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn scoped_map<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let fr = &f;
    let mut chunks = items.chunks_mut(chunk);
    let first = chunks.next().expect("n >= 2 yields at least one chunk");
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .map(|c| s.spawn(move || c.iter_mut().map(fr).collect::<Vec<R>>()))
            .collect();
        // The calling thread is worker zero; its chunk is first in the
        // output, the joined chunks follow in spawn (= input) order.
        let mut out: Vec<R> = Vec::with_capacity(n);
        out.extend(first.iter_mut().map(fr));
        for h in handles {
            match h.join() {
                Ok(chunk) => out.extend(chunk),
                // Re-raise the worker's own payload so the caller sees
                // the original message (net id, assertion text) rather
                // than a generic join failure.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let mut items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = scoped_map(threads, &mut items, |&mut i| i * 2);
            let want: Vec<usize> = (0..103).map(|i| i * 2).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn mutations_land_on_the_right_items() {
        let mut items: Vec<(usize, u64)> = (0..50).map(|i| (i, 0)).collect();
        scoped_map(4, &mut items, |item| {
            item.1 = item.0 as u64 + 1;
        });
        for (i, state) in items {
            assert_eq!(state, i as u64 + 1);
        }
    }

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let mut base: Vec<u64> = (0..37).map(|i| i * 17 % 23).collect();
        let seq = scoped_map(1, &mut base.clone(), |&mut v| v.wrapping_mul(v) ^ 0x5bd1);
        for threads in 2..=10 {
            let par = scoped_map(threads, &mut base, |&mut v| v.wrapping_mul(v) ^ 0x5bd1);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_are_fine() {
        let mut empty: Vec<u32> = vec![];
        assert!(scoped_map(8, &mut empty, |&mut v| v).is_empty());
        let mut one = vec![7u32];
        assert_eq!(scoped_map(8, &mut one, |&mut v| v + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "boom in item 15")]
    fn worker_panics_propagate() {
        let mut items: Vec<usize> = (0..16).collect();
        // Panic on an item that lands in a spawned (non-first) chunk; the
        // worker's own payload must reach the caller intact.
        scoped_map(4, &mut items, |&mut i| {
            assert_ne!(i, 15, "boom in item {i}");
            i
        });
    }

    #[test]
    fn calling_thread_panics_propagate_too() {
        let caught = std::panic::catch_unwind(|| {
            let mut items: Vec<usize> = (0..16).collect();
            // Item 0 runs on the calling thread (worker zero).
            scoped_map(4, &mut items, |&mut i| {
                assert_ne!(i, 0, "boom in first chunk");
                i
            });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom in first chunk"), "{msg}");
    }
}
