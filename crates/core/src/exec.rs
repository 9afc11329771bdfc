//! Execution policy for the Monte-Carlo sampler.
//!
//! An [`Executor`] is a resolved thread count and nothing else. The chase
//! and the stable-model keying run on the calling thread whatever the
//! executor; the one parallel path is Monte-Carlo, which hands its chunks of
//! independent walks to the ordered `Executor::map`. Each `map` call runs on
//! threads scoped to that call ([`std::thread::scope`]): the calling thread
//! and its workers pull item indices from one shared counter, so no thread
//! outlives the call. Results are **bit-identical across executors** — `map`
//! returns results in input order and per-walk RNG streams derive from the
//! root seed — so the thread count is a pure throughput knob, never a
//! semantics knob. CI enforces this with a `GDLOG_THREADS` matrix.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted by [`Executor::from_env`] (and therefore
/// by every [`crate::Pipeline`] built without an explicit thread count).
pub const THREADS_ENV: &str = "GDLOG_THREADS";

/// The largest thread count an executor runs (`--threads` and
/// `GDLOG_THREADS` accept no more). Far above any core count, and far below
/// the point where the operating system refuses the threads' stacks and the
/// process aborts.
pub const MAX_THREADS: usize = 1024;

/// A sequential-or-parallel execution policy: the number of threads a
/// `map` call may run on.
#[derive(Debug)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// The sequential executor: everything runs on the calling thread.
    pub fn sequential() -> Self {
        Executor { threads: 1 }
    }

    /// An executor with the given parallelism, at most [`MAX_THREADS`]. `0`
    /// means one thread per available CPU; `1` is [`Executor::sequential`].
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            n => n,
        };
        Executor {
            threads: threads.min(MAX_THREADS),
        }
    }

    /// An executor configured from the `GDLOG_THREADS` environment variable
    /// (unset, empty, unparsable or above [`MAX_THREADS`] means sequential;
    /// `0` means one thread per available CPU).
    pub fn from_env() -> Self {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|value| parse_env_threads(&value))
            .map_or_else(Self::sequential, Self::new)
    }

    /// The configured number of threads (1 for the sequential executor).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Is this executor parallel?
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// `f` applied to every item, in input order. The calling thread and
    /// `min(threads, items) − 1` scoped workers claim item indices from one
    /// counter until none is left; with one thread or one item everything
    /// runs inline. Each result is tagged with its index and sorted back, so
    /// the order of the results never depends on scheduling. A panic in `f`
    /// resurfaces in the caller once the other threads have drained the
    /// remaining items.
    pub(crate) fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let threads = self.threads.min(items.len());
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        // `Relaxed` suffices: the counter publishes no data, and results
        // come back through `join`, which synchronizes.
        let next = AtomicUsize::new(0);
        let claim = || -> Vec<(usize, R)> {
            std::iter::from_fn(|| {
                let index = next.fetch_add(1, Ordering::Relaxed);
                items.get(index).map(|item| (index, f(item)))
            })
            .collect()
        };
        let mut done = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
            let mut done = claim();
            for worker in workers {
                done.extend(worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            done
        });
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

/// The thread count a `GDLOG_THREADS` value asks for, or `None` when the
/// value is unparsable or above [`MAX_THREADS`].
fn parse_env_threads(value: &str) -> Option<usize> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n <= MAX_THREADS)
}

impl Default for Executor {
    fn default() -> Self {
        Self::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_has_one_thread_and_no_pool() {
        let e = Executor::sequential();
        assert_eq!(e.threads(), 1);
        assert!(!e.is_parallel());
        assert_eq!(Executor::default().threads(), 1);
    }

    #[test]
    fn one_thread_collapses_to_sequential() {
        assert!(!Executor::new(1).is_parallel());
        let e = Executor::new(3);
        assert!(e.is_parallel());
        assert_eq!(e.threads(), 3);
    }

    #[test]
    fn zero_means_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Executor::new(0).threads(), available.min(MAX_THREADS));
    }

    #[test]
    fn thread_counts_above_the_cap_are_clamped() {
        // Resolving a count starts no thread; only `map` does.
        assert_eq!(Executor::new(MAX_THREADS).threads(), MAX_THREADS);
        assert_eq!(Executor::new(MAX_THREADS + 1).threads(), MAX_THREADS);
    }

    #[test]
    fn env_values_above_the_cap_read_as_unparsable() {
        assert_eq!(parse_env_threads(" 4 "), Some(4));
        assert_eq!(parse_env_threads("0"), Some(0));
        assert_eq!(
            parse_env_threads(&MAX_THREADS.to_string()),
            Some(MAX_THREADS)
        );
        assert_eq!(parse_env_threads(&(MAX_THREADS + 1).to_string()), None);
        assert_eq!(parse_env_threads("200000"), None);
        assert_eq!(parse_env_threads("two"), None);
        assert_eq!(parse_env_threads(""), None);
    }

    #[test]
    fn map_keeps_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven task lengths, so parallel tasks finish out of order.
        let work = |&n: &u64| (0..(n % 7) * 1000).fold(n, |acc, k| acc.wrapping_mul(31) ^ k);
        let sequential: Vec<u64> = items.iter().map(work).collect();
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads);
            assert_eq!(exec.map(&items, work), sequential, "{threads} threads");
            assert!(exec.map(&[] as &[u64], work).is_empty());
        }
    }

    #[test]
    fn map_with_more_threads_than_items_runs_each_item_once() {
        let calls = AtomicUsize::new(0);
        let items = [10u64, 20, 30];
        let doubled = Executor::new(8).map(&items, |&n| {
            calls.fetch_add(1, Ordering::Relaxed);
            n * 2
        });
        assert_eq!(doubled, vec![20, 40, 60]);
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
        assert_eq!(Executor::new(8).map(&[7u64], |&n| n + 1), vec![8]);
    }

    #[test]
    fn a_panicking_item_panics_the_call() {
        let items: Vec<u64> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            Executor::new(2).map(&items, |&n| {
                assert_ne!(n, 5, "item five fails");
                n
            })
        });
        let panic = result.expect_err("the failing item's panic reaches the caller");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("item five fails"), "{message}");
    }

    #[test]
    fn debug_shows_the_thread_count() {
        assert_eq!(format!("{:?}", Executor::new(2)), "Executor { threads: 2 }");
    }
}
