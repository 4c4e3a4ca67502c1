//! A small order-preserving parallel map for scenario sweeps.
//!
//! Sweeps run hundreds of independent simulations; `std::thread::scope` is
//! all the machinery this needs (see DESIGN.md §4 — no external executor).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item on a pool of worker threads, returning results in
/// input order. Uses `std::thread::available_parallelism` workers (capped by
/// the item count) unless the `DB_THREADS` environment variable overrides the
/// count (`DB_THREADS=1` forces the sequential path — handy for profiling
/// and for bit-exact single-threaded repros).
///
/// Workers claim one item at a time from a shared cursor. Items are whole
/// simulations (milliseconds each), so one `fetch_add` per item costs
/// nothing measurable, while claiming in larger chunks unbalances short
/// lists: with chunks of 4, the 12 training scenarios of `prepare` split
/// 8/4 between two workers (DESIGN.md §9, "Cold prepare").
///
/// # Panics
///
/// If `f` panics for any item, the panic propagates to the caller once the
/// remaining workers have finished (the `std::thread::scope` join). No
/// partial results are returned and no worker deadlocks: each result slot
/// has its own lock, so a panicking worker can poison only the slot it was
/// filling, never one another worker still needs.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = match std::env::var("DB_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
    };
    par_map_with_workers(items, workers, f)
}

/// [`par_map`] with an explicit worker count (testing and benchmarks).
pub fn par_map_with_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *results[i].lock().expect("poisoned result slot") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("poisoned result slot")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1_000).collect();
        let out = par_map(items, |&x| x * 2);
        assert_eq!(out, (0..1_000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        // Silence the worker's panic backtrace; restore the hook after.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(|| {
            par_map((0..64).collect::<Vec<u32>>(), |&x| {
                if x == 33 {
                    panic!("worker failure");
                }
                x * 2
            })
        });
        std::panic::set_hook(prev);
        assert!(
            result.is_err(),
            "a panicking worker must fail the whole map"
        );
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<u32> = (0..37).collect();
        let seq = par_map_with_workers(items.clone(), 1, |&x| x * 3 + 1);
        for workers in [2, 3, 8, 64] {
            assert_eq!(
                par_map_with_workers(items.clone(), workers, |&x| x * 3 + 1),
                seq,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn every_slot_is_filled() {
        // Small item counts, fewer and more than the workers.
        for n in [1usize, 3, 4, 5, 7, 8, 9] {
            let out = par_map_with_workers((0..n as u64).collect(), 2, |&x| x + 1);
            assert_eq!(out, (1..=n as u64).collect::<Vec<u64>>(), "n = {n}");
        }
    }

    #[test]
    fn heavy_closure_runs_in_parallel() {
        // Not a strict timing test — just exercise the multi-worker path
        // with enough items to hit every worker.
        let items: Vec<u32> = (0..64).collect();
        let out = par_map(items, |&x| {
            let mut acc = x as u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        // Deterministic regardless of scheduling.
        let again = par_map((0..64).collect::<Vec<u32>>(), |&x| {
            let mut acc = x as u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        });
        assert_eq!(out, again);
    }
}
