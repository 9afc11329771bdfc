//! Execution policy for the Monte-Carlo sampler.
//!
//! An [`Executor`] is either sequential or it owns a work-stealing
//! [`rayon::ThreadPool`]. The chase and the stable-model keying run on the
//! calling thread whatever the executor; the one parallel path is
//! Monte-Carlo, which hands its chunks of independent walks to the ordered
//! `Executor::map`. Results are **bit-identical across executors** — `map`
//! returns results in input order and per-walk RNG streams derive from the
//! root seed — so the thread count is a pure throughput knob, never a
//! semantics knob. CI enforces this with a `GDLOG_THREADS` matrix.

use rayon::{ThreadPool, ThreadPoolBuilder};
use std::fmt;

/// Environment variable consulted by [`Executor::from_env`] (and therefore
/// by every [`crate::Pipeline`] built without an explicit thread count).
pub const THREADS_ENV: &str = "GDLOG_THREADS";

/// The largest thread count the front-ends accept (`--threads`,
/// `GDLOG_THREADS`). Far above any core count, and far below the point where
/// the operating system refuses the pool's thread stacks and the process
/// aborts.
pub const MAX_THREADS: usize = 1024;

/// A sequential-or-parallel execution policy.
pub struct Executor {
    threads: usize,
    pool: Option<ThreadPool>,
}

impl Executor {
    /// The sequential executor: everything runs on the calling thread.
    pub fn sequential() -> Self {
        Executor {
            threads: 1,
            pool: None,
        }
    }

    /// An executor with the given parallelism. `0` means one thread per
    /// available CPU; `1` is [`Executor::sequential`].
    pub fn new(threads: usize) -> Self {
        // The builder owns the `0 → available parallelism` defaulting; read
        // the resolved count back from the pool so the two can never drift.
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction cannot fail");
        let threads = pool.current_num_threads();
        if threads <= 1 {
            return Self::sequential();
        }
        Executor {
            threads,
            pool: Some(pool),
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
        self.pool.is_some()
    }

    /// `f` applied to every item, in input order: inline on the calling
    /// thread when sequential, one pool task per item otherwise. Each task
    /// writes only its own result slot, so tasks share no mutable state and
    /// the order of the results never depends on scheduling.
    pub(crate) fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let Some(pool) = &self.pool else {
            return items.iter().map(f).collect();
        };
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        pool.scope(|scope| {
            let f = &f;
            for (item, result) in items.iter().zip(&mut results) {
                scope.spawn(move |_| *result = Some(f(item)));
            }
        });
        results
            .into_iter()
            .map(|result| result.expect("every task fills its slot"))
            .collect()
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

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish()
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
        let e = Executor::new(0);
        assert!(e.threads() >= 1);
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
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            assert_eq!(exec.map(&items, work), sequential, "{threads} threads");
        }
        assert!(Executor::new(2).map(&[] as &[u64], work).is_empty());
    }

    #[test]
    fn debug_shows_the_thread_count() {
        assert_eq!(format!("{:?}", Executor::new(2)), "Executor { threads: 2 }");
    }
}
