//! A minimal deterministic worker pool shared by every layer that fans
//! simulation work out over OS threads.
//!
//! [`parallel_fold`] maps every item on a pool of OS threads — the calling
//! thread and up to `workers - 1` threads it starts for the call — and folds
//! each result into one accumulator *in index order*, as soon as every earlier
//! result is in. Whatever order the workers finish in, the fold sees results
//! `0, 1, 2, …`, one at a time, so a caller that combines floats in it
//! through the canonical reducers in `sim_stats::reduce` gets bit-identical
//! output for every worker count. A result that arrives ahead of an earlier
//! one waits in its slot until that one lands, so only results still out of
//! order are held: the fleet simulator folds each rack's day into a running
//! report and drops it, and its memory does not grow with the rack count.
//!
//! [`parallel_map`] is that fold pushing each result into a `Vec`, so there
//! is one pool loop. The experiment engine runs matrix cells through it.
//!
//! Both entry points are checked by the `rng-discipline` and
//! `reduction-order` simlint rules: the mapped closure is shard code, which
//! must not capture an RNG bound outside it, and the rest of the calling
//! function — a fold closure included — is merge code, whose float
//! accumulation must go through the canonical reducers.
//!
//! This lives in `sim_model` because the cluster simulator — a
//! *dependency* of the bench crate — shards through the same pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The fold's state, behind the pool's one lock: the accumulator, the fold
/// itself, the index of the next result to fold, and the results that
/// arrived before it.
struct Folding<A, F, R> {
    acc: A,
    fold: F,
    next: usize,
    early: Vec<Option<R>>,
}

/// Maps `map` over `items` on a pool of OS threads and folds the results
/// into `init` with `fold`, in input order.
///
/// The calling thread is one of the `workers`: the call starts
/// `min(workers, items) - 1` more threads and joins them before it returns,
/// so a one-worker call runs inline and a two-item call starts one thread.
/// Work is distributed by an atomic work-stealing index. A worker that has
/// mapped item `i` takes the pool's lock, parks the result, and folds every
/// parked result from the next unfolded index on, stopping at the first
/// that is still being mapped. So result `i` is folded right after result
/// `i - 1`, by whichever worker completes the run, and the fold order —
/// and with it the accumulator — never depends on the worker count or on
/// scheduling.
///
/// # Examples
///
/// A float sum folded in index order is the same at any worker count:
///
/// ```
/// use sim_model::parallel_fold;
///
/// let items: Vec<u64> = (1..=100).collect();
/// let harmonic =
///     |workers| parallel_fold(items.clone(), workers, 0.0, |&x| 1.0 / x as f64, |s, r| *s += r);
/// assert_eq!(harmonic(1).to_bits(), harmonic(8).to_bits());
/// ```
///
/// # Panics
///
/// Panics if `workers == 0`, and re-raises a panic of `map` or `fold`.
pub fn parallel_fold<T, R, A, M, F>(items: Vec<T>, workers: usize, init: A, map: M, fold: F) -> A
where
    T: Sync,
    R: Send,
    A: Send,
    M: Fn(&T) -> R + Sync,
    F: FnMut(&mut A, R) + Send,
{
    assert!(workers > 0, "need at least one worker");
    let n = items.len();
    let next = AtomicUsize::new(0);
    let early = std::iter::repeat_with(|| None).take(n).collect();
    let state = Mutex::new(Folding { acc: init, fold, next: 0, early });
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let result = map(&items[i]);
        let mut guard = state.lock().expect("a fold panicked while holding the lock");
        let s = &mut *guard;
        s.early[i] = Some(result);
        while let Some(result) = s.early.get_mut(s.next).and_then(Option::take) {
            (s.fold)(&mut s.acc, result);
            s.next += 1;
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(worker);
        }
        worker();
    });
    let done = state.into_inner().expect("scope joined every worker");
    assert_eq!(done.next, n, "every index was folded");
    done.acc
}

/// Runs `f` over `items` on a pool of OS threads, preserving input order:
/// [`parallel_fold`] pushing each result into a `Vec`.
///
/// # Examples
///
/// Results always come back in input order, whatever the worker count —
/// which is exactly why an index-order merge over them is deterministic:
///
/// ```
/// use sim_model::parallel_map;
///
/// let squares = parallel_map(vec![1u64, 2, 3, 4], 8, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
///
/// // One worker gives byte-for-byte the same result as eight.
/// assert_eq!(parallel_map(vec![1u64, 2, 3, 4], 1, |&x| x * x), squares);
/// ```
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    parallel_fold(items, workers, Vec::with_capacity(n), f, |out, r| out.push(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items, 7, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let items: Vec<u64> = (0..57).collect();
        let one = parallel_map(items.clone(), 1, |&i| i.wrapping_mul(0x9E37_79B9));
        let eight = parallel_map(items, 8, |&i| i.wrapping_mul(0x9E37_79B9));
        assert_eq!(one, eight);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        parallel_map(vec![1], 0, |&x: &i32| x);
    }

    #[test]
    fn folds_in_index_order_when_item_zero_finishes_last() {
        let n = 24;
        for workers in [2, 3, 8] {
            // Every item but 0 reports on the channel once mapped, and item
            // 0's map waits for all n - 1 reports, so it finishes last.
            let (tx, rx) = mpsc::channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let mapped_order = Mutex::new(Vec::new());
            let folded = parallel_fold(
                (0..n).collect(),
                workers,
                Vec::new(),
                |&i: &usize| {
                    if i == 0 {
                        let rx = rx.lock().expect("only item 0 receives");
                        for _ in 1..n {
                            rx.recv().expect("every other item reports");
                        }
                    }
                    mapped_order.lock().expect("no mapper panics").push(i);
                    if i != 0 {
                        tx.lock().expect("no sender panics").send(i).expect("item 0 listens");
                    }
                    i
                },
                |out: &mut Vec<usize>, i| out.push(i),
            );
            let mapped_order = mapped_order.into_inner().expect("no mapper panicked");
            assert_eq!(mapped_order.last(), Some(&0), "{workers} workers: item 0 maps last");
            assert_eq!(folded, (0..n).collect::<Vec<_>>(), "{workers} workers fold in order");
        }
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let on_caller = parallel_map(vec![(); 3], 1, |_| std::thread::current().id() == caller);
        assert_eq!(on_caller, [true; 3], "one worker maps every item on the calling thread");
        // Two items that each wait for the other must map side by side: one
        // on the calling thread, one on the one thread the call starts.
        let barrier = std::sync::Barrier::new(2);
        let ids = parallel_map(vec![(); 2], 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&caller), "the calling thread mapped one of the items");
    }

    #[test]
    fn one_worker_folds_in_index_order() {
        let folded =
            parallel_fold((0..10).collect(), 1, Vec::new(), |&i: &u32| i * i, |out, r| out.push(r));
        assert_eq!(folded, (0..10).map(|i| i * i).collect::<Vec<_>>());
        // An empty input folds nothing and returns the initial value.
        assert_eq!(parallel_fold(Vec::<u32>::new(), 3, 7u32, |&x| x, |a, r| *a += r), 7);
    }
}
