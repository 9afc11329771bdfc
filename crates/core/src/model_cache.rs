//! Memoization of stable-model computations across chase outcomes, kept
//! only for the benchmark's traced decomposition (`perfbench`), which
//! reports the counters. No product path builds a [`ModelSetCache`]: two
//! leaves of one chase always differ in their choices, so no two outcomes of
//! a solve share a program, and a [`crate::api::Solver`] entry never solves
//! twice — a table keyed by outcome program cannot hit.
//!
//! The cache key is a [`ProgramFingerprint`]: the canonical listing of the
//! outcome's choice set `Σ` plus the canonical listing of its grounder rules
//! `G(Σ)`. This encoding is *collision-free by construction* — it is not a
//! hash but the full, canonically ordered content of the program, so two
//! outcomes share a fingerprint exactly when they denote the same ground
//! program (set semantics). Equal programs have equal stable-model sets by
//! definition, so a cache hit can never change a result, at any thread
//! count.
//!
//! Hit/miss counters are counted once per outcome during the keying pass
//! of [`crate::OutputSpace::from_chase_with`], in outcome order, so they are
//! deterministic.

use crate::grounding::AtrRule;
use crate::outcome::ModelSetKey;
use gdlog_engine::GroundRule;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The canonical, collision-free identity of an outcome's ground program
/// `Σ ∪ G(Σ)`: its choice set and grounder rules in canonical order.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct ProgramFingerprint {
    choices: Vec<AtrRule>,
    rules: Vec<GroundRule>,
}

impl ProgramFingerprint {
    /// Assemble a fingerprint from canonical listings (callers should use
    /// [`crate::PossibleOutcome::program_fingerprint`]).
    pub(crate) fn new(choices: Vec<AtrRule>, rules: Vec<GroundRule>) -> Self {
        ProgramFingerprint { choices, rules }
    }

    /// Number of choices plus ground rules covered by the fingerprint.
    pub fn len(&self) -> usize {
        self.choices.len() + self.rules.len()
    }

    /// Is the fingerprint of the empty program?
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty() && self.rules.is_empty()
    }
}

/// Cache hit/miss counters of a [`ModelSetCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelCacheStats {
    /// Outcomes whose event key was served without a stable-model search
    /// (present in the cache, or a duplicate within the same call).
    pub hits: usize,
    /// Outcomes whose program had to be solved.
    pub misses: usize,
}

impl ModelCacheStats {
    /// Hits as a fraction of all lookups (zero when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe memo table from [`ProgramFingerprint`]s to the induced
/// [`ModelSetKey`]s, shared by every [`crate::OutputSpace::from_chase_with`]
/// call that is handed the same cache. See the module docs for why only the
/// benchmark's traced decomposition uses one.
///
/// Only successful searches are cached; [`gdlog_engine::StableError`]s
/// propagate to the caller untouched so limit changes take effect on retry.
///
/// Storing the full canonical program as the key is a deliberate
/// space-for-certainty tradeoff: a 64-bit hash key could alias two distinct
/// programs and silently corrupt a probability. The footprint is bounded by
/// the distinct programs of the pipeline's outcome space (not by the number
/// of solves — repeated solves re-derive fingerprints but insert nothing
/// new), which is itself bounded by the chase budget's `max_outcomes`.
#[derive(Default)]
pub struct ModelSetCache {
    map: Mutex<HashMap<ProgramFingerprint, ModelSetKey>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ModelSetCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached key for a fingerprint, if present (does not touch the
    /// hit/miss counters — callers account once per outcome).
    pub fn peek(&self, fingerprint: &ProgramFingerprint) -> Option<ModelSetKey> {
        self.map.lock().get(fingerprint).cloned()
    }

    /// Record a solved program.
    pub fn insert(&self, fingerprint: ProgramFingerprint, key: ModelSetKey) {
        self.map.lock().insert(fingerprint, key);
    }

    /// Number of distinct programs cached.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add to the hit/miss counters (called once per `from_chase_with`).
    pub(crate) fn record(&self, hits: usize, misses: usize) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// The accumulated hit/miss counters.
    pub fn stats(&self) -> ModelCacheStats {
        ModelCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for ModelSetCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ModelSetCache")
            .field("entries", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_and_stats() {
        let cache = ModelSetCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), ModelCacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!(cache.peek(&ProgramFingerprint::default()).is_none());
        assert!(ProgramFingerprint::default().is_empty());
        assert_eq!(ProgramFingerprint::default().len(), 0);
    }

    #[test]
    fn insert_peek_and_counters() {
        let cache = ModelSetCache::new();
        let fp = ProgramFingerprint::default();
        cache.insert(fp.clone(), ModelSetKey::empty());
        assert_eq!(cache.peek(&fp), Some(ModelSetKey::empty()));
        assert_eq!(cache.len(), 1);
        cache.record(3, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
        assert_eq!(stats.hit_rate(), 0.75);
        assert!(format!("{cache:?}").contains("hits"));
    }
}
