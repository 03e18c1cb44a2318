//! A minimal deterministic worker pool shared by every layer that fans
//! simulation work out over OS threads.
//!
//! [`parallel_map`] preserves input order regardless of scheduling, so a
//! caller that merges its results *in index order* (through the canonical
//! reducers in `sim_stats::reduce`) produces bit-identical output for every
//! worker count. The fleet simulator shards racks through this pool, and the
//! experiment engine runs matrix cells through it; both are checked by the
//! `reduction-order` simlint rule, which treats every `parallel_map` caller
//! as a merge function.
//!
//! This lives in `sim_model` because the cluster simulator — a
//! *dependency* of the bench crate — shards through the same pool.

use std::sync::Mutex;

/// Runs `f` over `items` on a pool of OS threads, preserving input order.
///
/// Work is distributed by an atomic work-stealing index; each worker
/// accumulates `(index, result)` pairs in a thread-local buffer and merges
/// them into the shared output exactly once when it runs out of work, so
/// result writes never contend per item.
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
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let n = items.len();
    let collected: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::with_capacity(workers));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let items_ref = &items;
    let f_ref = &f;
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n.max(1)) {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f_ref(&items_ref[i])));
                }
                if !local.is_empty() {
                    collected.lock().expect("no panics while holding the lock").push(local);
                }
            });
        }
    });
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    for chunk in collected.into_inner().expect("scope joined all workers") {
        for (i, r) in chunk {
            results[i] = Some(r);
        }
    }
    results.into_iter().map(|r| r.expect("every index was processed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
