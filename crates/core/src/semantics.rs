//! The output probability space of a program (Definition 3.8, Theorem 3.9).
//!
//! The sample space consists of the possible outcomes; the σ-algebra is
//! generated by the countable partition whose cells are (i) the error event
//! (infinite possible outcomes — here, together with any mass the chase
//! budget left unexplored) and (ii) one event per induced *set of stable
//! models*: all finite outcomes `Σ` with the same `sms(Σ)` belong to the same
//! event. Probabilities follow by summing `Pr(Σ)` over each cell and by
//! countable additivity for unions.

use crate::chase::ChaseResult;
use crate::error::CoreError;
use crate::exec::Executor;
use crate::model_cache::{ModelSetCache, ProgramFingerprint};
use crate::outcome::{ModelSetKey, PossibleOutcome};
use gdlog_data::GroundAtom;
use gdlog_engine::{CancelToken, StableModelLimits};
use gdlog_prob::Prob;
use std::collections::HashMap;

/// The output of a GDatalog¬\[Δ\] program on a database relative to a
/// grounder: the explored finite outcomes, keyed by their induced set of
/// stable models, plus the residual (error / unexplored) mass.
#[derive(Clone, Debug)]
pub struct OutputSpace {
    outcomes: Vec<(PossibleOutcome, ModelSetKey)>,
    /// The cells of the event partition with their masses, in
    /// [`OutputSpace::events_by_mass`] order (sorted once, at construction).
    events: Vec<(ModelSetKey, Prob)>,
    /// The chase's own residual — authoritative over `1 − explored mass`,
    /// with which it agrees up to floating-point noise.
    residual: Prob,
    truncated: bool,
    interrupted: bool,
    nodes_visited: usize,
}

impl OutputSpace {
    /// Build the output space from a chase enumeration by computing the
    /// stable models of every explored outcome (sequentially; see
    /// [`OutputSpace::from_chase_cancellable`] for the parallel entry point
    /// used by [`crate::Pipeline::solve`]).
    pub fn from_chase(result: &ChaseResult, limits: &StableModelLimits) -> Result<Self, CoreError> {
        Self::from_chase_with(result.clone(), limits, &Executor::sequential(), None)
    }

    /// Build the output space from an owned chase enumeration, fanning the
    /// per-outcome stable-model searches out to `executor`.
    ///
    /// With `None` this is [`OutputSpace::from_chase_cancellable`] under a
    /// token that never fires. With `Some(cache)` the outcomes are first
    /// keyed by their [`ProgramFingerprint`] — outcomes inducing the same
    /// ground program, and entries of a warm cache, are solved once — and
    /// the cache counts one hit or miss per outcome. No product path passes
    /// a cache: two leaves of one chase always differ in their choices, so
    /// their programs differ too. The memo arm is kept only for the
    /// benchmark's traced decomposition, which reports its counters.
    ///
    /// Every field of the result is bit-identical across executors and with
    /// or without a cache.
    pub fn from_chase_with(
        result: ChaseResult,
        limits: &StableModelLimits,
        executor: &Executor,
        cache: Option<&ModelSetCache>,
    ) -> Result<Self, CoreError> {
        match cache {
            None => Self::from_chase_cancellable(result, limits, executor, &CancelToken::never()),
            Some(cache) => {
                let keys = memoized_keys(&result.outcomes, limits, executor, cache)?;
                Ok(Self::from_keys(result, keys))
            }
        }
    }

    /// Build the output space from an owned chase enumeration, one
    /// stable-model search per outcome fanned out to `executor`, observing a
    /// cooperative cancellation token in every search.
    ///
    /// Each outcome is its own task: its key is searched in place
    /// ([`PossibleOutcome::model_set_key_cancellable`]) and moves into the
    /// listing in chase order. Every field of the result, including
    /// [`OutputSpace::events_by_mass`] and the first error surfaced, is
    /// **bit-identical across executors**: the merge order and the partition
    /// aggregation never depend on task scheduling.
    ///
    /// Two regimes:
    ///
    /// * **Chase completed or hit its budget** (`result.interrupted` false):
    ///   the token is threaded into every stable-model search, and a firing
    ///   deadline surfaces as [`CoreError::Interrupted`] — keying is
    ///   exact-or-nothing.
    /// * **Chase was cut by the token** (`result.interrupted` true): the
    ///   enumeration is already a graceful partial result whose residual
    ///   accounts for the cut subtrees, so finalization deliberately *stops
    ///   observing* the (already fired) token and keys the explored outcomes
    ///   to completion. The cost is bounded by the outcomes explored before
    ///   the cut.
    pub fn from_chase_cancellable(
        result: ChaseResult,
        limits: &StableModelLimits,
        executor: &Executor,
        cancel: &CancelToken,
    ) -> Result<Self, CoreError> {
        let cancel = if result.interrupted {
            CancelToken::never()
        } else {
            cancel.clone()
        };
        // Errors surface in outcome order.
        let keys = executor
            .map(&result.outcomes, |outcome| {
                outcome.model_set_key_cancellable(limits, &cancel)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_keys(result, keys))
    }

    /// Deterministic merge: outcomes and their keys move (never clone) into
    /// the keyed listing in chase order; each event's mass aggregates in that
    /// same order, and the event list clones each distinct key once.
    fn from_keys(result: ChaseResult, keys: Vec<ModelSetKey>) -> Self {
        let ChaseResult {
            outcomes,
            residual_mass,
            truncated,
            interrupted,
            nodes_visited,
        } = result;
        let keyed: Vec<(PossibleOutcome, ModelSetKey)> = outcomes.into_iter().zip(keys).collect();
        let mut masses: HashMap<&ModelSetKey, Prob> = HashMap::new();
        for (outcome, key) in &keyed {
            let mass = masses.entry(key).or_insert(Prob::ZERO);
            *mass = mass.add(&outcome.probability);
        }
        let mut events: Vec<(ModelSetKey, Prob)> = masses
            .into_iter()
            .map(|(key, mass)| (key.clone(), mass))
            .collect();
        events.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        OutputSpace {
            outcomes: keyed,
            events,
            residual: residual_mass,
            truncated,
            interrupted,
            nodes_visited,
        }
    }

    /// The explored finite outcomes with their event keys.
    pub fn outcomes(&self) -> &[(PossibleOutcome, ModelSetKey)] {
        &self.outcomes
    }

    /// Number of explored finite outcomes.
    pub fn outcome_count(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of distinct events (distinct induced sets of stable models).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The probability mass of the event with the given key (zero if no
    /// outcome induces it).
    pub fn event_probability(&self, key: &ModelSetKey) -> Prob {
        self.events
            .iter()
            .find(|(k, _)| k == key)
            .map_or(Prob::ZERO, |(_, mass)| *mass)
    }

    /// The residual mass: the error event (infinite outcomes) plus any mass
    /// the exploration budget did not reach.
    pub fn residual_mass(&self) -> Prob {
        self.residual
    }

    /// Did the chase hit its budget? If not, [`OutputSpace::residual_mass`]
    /// is exactly the probability of the error event.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Was the chase cut short by a cancellation (deadline) rather than by
    /// its budget? The space is still an exact partial result — the residual
    /// accounts for every cut subtree — but it depends on *when* the token
    /// fired, so it is not reproducible and must never be treated as golden.
    pub fn is_interrupted(&self) -> bool {
        self.interrupted
    }

    /// Chase-tree nodes the enumeration behind this space visited.
    pub fn nodes_visited(&self) -> usize {
        self.nodes_visited
    }

    /// Total mass of the explored events.
    pub fn explored_mass(&self) -> Prob {
        Prob::sum(self.events.iter().map(|(_, mass)| *mass))
    }

    /// Probability of the (countable) union of the events selected by
    /// `predicate`.
    pub fn probability_where<F: Fn(&ModelSetKey) -> bool>(&self, predicate: F) -> Prob {
        Prob::sum(
            self.events
                .iter()
                .filter(|(key, _)| predicate(key))
                .map(|(_, mass)| *mass),
        )
    }

    /// Probability that the program has at least one stable model (the
    /// complement, within the explored mass, of the event `sms(Σ) = ∅`).
    pub fn has_stable_model_probability(&self) -> Prob {
        self.probability_where(|k| !k.is_empty())
    }

    /// Probability that `atom` holds *cautiously*: the union of the events
    /// whose (non-empty) set of stable models all contain `atom`.
    pub fn cautious_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_where(|k| k.cautious(atom))
    }

    /// Probability that `atom` holds *bravely*: the union of the events some
    /// of whose stable models contain `atom`.
    pub fn brave_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_where(|k| k.brave(atom))
    }

    /// The events with their masses, sorted by decreasing mass (ties broken
    /// by the key order) — convenient for reports.
    ///
    /// The sort uses the exact total order [`Prob::total_cmp`] — rational
    /// comparison for exact masses — so dyadic ties and masses that differ
    /// only past `f64` precision order identically on every platform and at
    /// every thread count (reports diff clean across CI legs).
    pub fn events_by_mass(&self) -> &[(ModelSetKey, Prob)] {
        &self.events
    }

    /// A deterministic fingerprint of the output space: FNV-1a over the
    /// [`OutputSpace::events_by_mass`] listing plus the outcome count — the
    /// exact scheme `bench stable` records per `GDLOG_THREADS` leg (see
    /// [`crate::fingerprint::fnv1a_fingerprint`]), so CLI reports, scenario
    /// goldens and the bench JSONs all diff against each other.
    pub fn fingerprint(&self) -> String {
        crate::fingerprint::fnv1a_fingerprint(
            self.events_by_mass()
                .iter()
                .map(|(key, mass)| format!("{key}@{mass};"))
                .chain(std::iter::once(format!(
                    "outcomes={};",
                    self.outcome_count()
                ))),
        )
    }
}

/// One key per outcome through `cache`: outcomes are keyed by their
/// [`ProgramFingerprint`] in outcome order, each distinct uncached program is
/// solved once (one task per program), and the hits and misses are counted
/// in that sequential pass, so they do not depend on the executor.
fn memoized_keys(
    outcomes: &[PossibleOutcome],
    limits: &StableModelLimits,
    executor: &Executor,
    cache: &ModelSetCache,
) -> Result<Vec<ModelSetKey>, CoreError> {
    enum Slot {
        Ready(ModelSetKey),
        Solved(usize),
    }
    let mut fingerprints: Vec<ProgramFingerprint> = outcomes
        .iter()
        .map(PossibleOutcome::program_fingerprint)
        .collect();
    let mut slots: Vec<Slot> = Vec::with_capacity(outcomes.len());
    let mut work: Vec<usize> = Vec::new(); // outcome index per distinct program
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut first_of: HashMap<&ProgramFingerprint, usize> = HashMap::new();
    for (i, fp) in fingerprints.iter().enumerate() {
        if let Some(key) = cache.peek(fp) {
            hits += 1;
            slots.push(Slot::Ready(key));
        } else if let Some(&slot) = first_of.get(fp) {
            hits += 1;
            slots.push(Slot::Solved(slot));
        } else {
            misses += 1;
            first_of.insert(fp, work.len());
            slots.push(Slot::Solved(work.len()));
            work.push(i);
        }
    }
    drop(first_of);
    cache.record(hits, misses);

    let keys = executor.map(&work, |&i| outcomes[i].model_set_key(limits));
    let mut solved: Vec<ModelSetKey> = Vec::with_capacity(work.len());
    for (&i, key) in work.iter().zip(keys) {
        let key = key?;
        cache.insert(std::mem::take(&mut fingerprints[i]), key.clone());
        solved.push(key);
    }
    Ok(slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Ready(key) => key,
            Slot::Solved(idx) => solved[idx].clone(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{enumerate_outcomes, ChaseBudget, TriggerOrder};
    use crate::program::{coin_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use std::sync::Arc;

    fn network_db() -> Database {
        let mut db = Database::new();
        for i in 1..=3i64 {
            db.insert_fact("Router", [Const::Int(i)]);
            for j in 1..=3i64 {
                if i != j {
                    db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
                }
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        db
    }

    fn output_for(program: &crate::Program, db: &Database) -> OutputSpace {
        let grounder = SimpleGrounder::new(Arc::new(SigmaPi::translate(program, db).unwrap()));
        let chase =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        OutputSpace::from_chase(&chase, &StableModelLimits::default()).unwrap()
    }

    #[test]
    fn coin_output_space_matches_section_3() {
        let space = output_for(&coin_program(), &Database::new());
        assert_eq!(space.outcome_count(), 2);
        // Two events: the empty set of stable models (heads, killed by the
        // constraint) and the two-model set (tails).
        assert_eq!(space.event_count(), 2);
        assert_eq!(space.residual_mass(), Prob::ZERO);
        assert!(!space.is_truncated());
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(1, 2));
        assert_eq!(space.explored_mass(), Prob::ONE);
        let empty_mass = space.event_probability(&ModelSetKey::empty());
        assert_eq!(empty_mass, Prob::ratio(1, 2));

        // Coin(1) holds cautiously (and bravely) exactly in the tails event.
        let coin1 = GroundAtom::make("Coin", vec![Const::Int(1)]);
        assert_eq!(space.cautious_probability(&coin1), Prob::ratio(1, 2));
        assert_eq!(space.brave_probability(&coin1), Prob::ratio(1, 2));
        // Aux1 holds bravely but not cautiously in the tails event.
        let aux1 = GroundAtom::make("Aux1", vec![]);
        assert_eq!(space.brave_probability(&aux1), Prob::ratio(1, 2));
        assert_eq!(space.cautious_probability(&aux1), Prob::ZERO);
    }

    #[test]
    fn network_domination_probability_is_0_19() {
        let space = output_for(&network_resilience_program(0.1), &network_db());
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(19, 100));
        assert_eq!(
            space.probability_where(|k| k.is_empty()),
            Prob::ratio(81, 100)
        );
        assert_eq!(space.explored_mass(), Prob::ONE);
        // Uninfected(2) and Uninfected(3) can never hold in a stable model:
        // two uninfected, connected routers violate the constraint.
        let u2 = GroundAtom::make("Uninfected", vec![Const::Int(2)]);
        let u3 = GroundAtom::make("Uninfected", vec![Const::Int(3)]);
        let both = space.probability_where(|k| k.brave(&u2) && k.brave(&u3));
        assert_eq!(both, Prob::ZERO);
    }

    #[test]
    fn fact_probabilities_agree_with_the_space() {
        let space = output_for(&network_resilience_program(0.1), &network_db());
        assert_eq!(space.has_stable_model_probability(), Prob::ratio(19, 100));
        // Infected(1,1) is a database fact: it holds in every stable model,
        // so its brave and cautious probabilities equal the domination
        // probability. A nonsense fact has probability zero.
        let infected =
            |x: i64, y: i64| GroundAtom::make("Infected", vec![Const::Int(x), Const::Int(y)]);
        assert_eq!(
            space.cautious_probability(&infected(1, 1)),
            Prob::ratio(19, 100)
        );
        assert_eq!(
            space.brave_probability(&infected(1, 1)),
            Prob::ratio(19, 100)
        );
        assert_eq!(space.brave_probability(&infected(9, 1)), Prob::ZERO);
        // Router 2 is infected in some dominated worlds but not all of them.
        let brave2 = space.brave_probability(&infected(2, 1));
        assert!(brave2.is_positive());
        assert!(space.cautious_probability(&infected(2, 1)).to_f64() <= brave2.to_f64());
    }

    #[test]
    fn parallel_and_cached_from_chase_match_sequential() {
        let program = network_resilience_program(0.1);
        let db = network_db();
        let grounder = SimpleGrounder::new(Arc::new(SigmaPi::translate(&program, &db).unwrap()));
        let chase =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let seq = OutputSpace::from_chase(&chase, &StableModelLimits::default()).unwrap();
        let cache = crate::ModelSetCache::new();
        for threads in [1, 2, 8] {
            let par = OutputSpace::from_chase_with(
                chase.clone(),
                &StableModelLimits::default(),
                &crate::Executor::new(threads),
                Some(&cache),
            )
            .unwrap();
            assert_eq!(par.events_by_mass(), seq.events_by_mass());
            assert_eq!(par.outcome_count(), seq.outcome_count());
            assert_eq!(par.residual_mass(), seq.residual_mass());
            for (a, b) in par.outcomes().iter().zip(seq.outcomes()) {
                assert_eq!(a.1, b.1, "per-outcome event keys must agree");
            }
        }
        // Deterministic accounting: every outcome was looked up once per
        // sweep, and after the cold first sweep everything was served warm.
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 3 * chase.outcomes.len());
        assert!(stats.hits >= 2 * chase.outcomes.len());
        assert!(stats.hit_rate() > 0.5);
        assert_eq!(cache.len(), stats.misses);
    }

    #[test]
    fn events_by_mass_is_sorted() {
        let space = output_for(&network_resilience_program(0.1), &network_db());
        let events = space.events_by_mass();
        assert_eq!(events.len(), space.event_count());
        for w in events.windows(2) {
            assert!(w[0].1.to_f64() >= w[1].1.to_f64());
        }
        // The heaviest event is "no stable model" with mass 0.81.
        assert!(events[0].0.is_empty());
        assert_eq!(events[0].1, Prob::ratio(81, 100));
    }
}
