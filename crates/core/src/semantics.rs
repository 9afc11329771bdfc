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
use crate::fingerprint::Fnv1a;
use crate::model_cache::{ModelSetCache, ProgramFingerprint};
use crate::outcome::{model_set_keys, share_table, KeyTable, ModelSetKey, PossibleOutcome};
use gdlog_data::GroundAtom;
use gdlog_engine::{CancelToken, StableModelLimits};
use gdlog_prob::Prob;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

/// The output of a GDatalog¬\[Δ\] program on a database relative to a
/// grounder: the explored finite outcomes, keyed by their induced set of
/// stable models, plus the residual (error / unexplored) mass.
#[derive(Clone, Debug)]
pub struct OutputSpace {
    /// The one table every key of the space is over.
    table: Arc<KeyTable>,
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
    /// stable models of every explored outcome.
    pub fn from_chase(result: &ChaseResult, limits: &StableModelLimits) -> Result<Self, CoreError> {
        Self::from_chase_cancellable(result.clone(), limits, &CancelToken::never())
    }

    /// Build the output space from an owned chase enumeration, with an
    /// execution policy it does not use: keying runs on the calling thread,
    /// so the result is the same for every [`Executor`]. The parameter is
    /// kept only because the benchmark (`perfbench`) names this signature;
    /// the benchmark PR of ROADMAP item 2 removes it.
    ///
    /// With `None` this is [`OutputSpace::from_chase_cancellable`] under a
    /// token that never fires, so a perfect-grounder chase is keyed from
    /// its outcomes' heads. With `Some(cache)` every outcome is searched,
    /// whatever the grounder: the outcomes are first
    /// keyed by their [`ProgramFingerprint`] — outcomes inducing the same
    /// ground program, and entries of a warm cache, are solved once — and
    /// the cache counts one hit or miss per outcome. No product path passes
    /// a cache: two leaves of one chase always differ in their choices, so
    /// their programs differ too. The memo arm is kept only for the
    /// benchmark's traced decomposition, which reports its counters.
    ///
    /// Every field of the result is the same with or without a cache.
    pub fn from_chase_with(
        result: ChaseResult,
        limits: &StableModelLimits,
        _executor: &Executor,
        cache: Option<&ModelSetCache>,
    ) -> Result<Self, CoreError> {
        match cache {
            None => Self::from_chase_cancellable(result, limits, &CancelToken::never()),
            Some(cache) => {
                let keys = memoized_keys(&result.outcomes, limits, cache)?;
                Ok(Self::from_keys(result, keys))
            }
        }
    }

    /// Build the output space from an owned chase enumeration, one
    /// stable-model search per outcome in chase order, observing a
    /// cooperative cancellation token in every search.
    ///
    /// The outcomes' atoms are interned into one atom table first, in one
    /// pass in chase order that encodes each grounding snapshot frame the
    /// leaves share once. Each outcome's key is then searched over the
    /// shared table and moves into the listing in chase order, so every
    /// field of the result, including [`OutputSpace::events_by_mass`] and
    /// the first error surfaced, is deterministic.
    ///
    /// When the chase's grounder decided its outcomes' models
    /// ([`ChaseResult::models_decided`], the perfect grounder), nothing is
    /// searched. Definition 5.1 grounds a rule only when no negative body
    /// atom is derivable from the complete lower strata, so each outcome's
    /// `G(Σ)` is in effect positive, and its one stable model is
    /// `heads(G(Σ))` plus the result of each choice whose `Active` atom is
    /// a head, which on a chase leaf is every choice. The pass interns just
    /// those atoms, and each key is that one model. It polls the token once
    /// per outcome, and no limit cuts the one model, as none cuts the
    /// search's total well-founded model.
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
        cancel: &CancelToken,
    ) -> Result<Self, CoreError> {
        let cancel = if result.interrupted {
            CancelToken::never()
        } else {
            cancel.clone()
        };
        let keys = model_set_keys(&result.outcomes, result.models_decided(), limits, &cancel)?;
        Ok(Self::from_keys(result, keys))
    }

    /// Deterministic merge: the keys are brought over one table (they
    /// already share it unless a cache served some), the outcomes are
    /// grouped by sorting their indices on the keys' ids, and outcomes and
    /// keys move into the keyed listing in chase order. The sort is stable,
    /// so each event's mass aggregates in chase order; the event list clones
    /// each distinct key's ids once.
    fn from_keys(result: ChaseResult, mut keys: Vec<ModelSetKey>) -> Self {
        let ChaseResult {
            outcomes,
            residual_mass,
            truncated,
            interrupted,
            nodes_visited,
            ..
        } = result;
        let table = share_table(&mut keys);
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let mut events: Vec<(ModelSetKey, Prob)> = order
            .chunk_by(|&a, &b| keys[a] == keys[b])
            .map(|group| {
                let mass = group
                    .iter()
                    .fold(Prob::ZERO, |mass, &i| mass.add(&outcomes[i].probability));
                (keys[group[0]].clone(), mass)
            })
            .collect();
        sort_events(&mut events);
        OutputSpace {
            table,
            outcomes: outcomes.into_iter().zip(keys).collect(),
            events,
            residual: residual_mass,
            truncated,
            interrupted,
            nodes_visited,
        }
    }

    /// A space of the given events and no outcomes, listed in
    /// [`OutputSpace::events_by_mass`] order: a fixture for event keys no
    /// chase builds.
    #[cfg(test)]
    pub(crate) fn from_events(mut events: Vec<(ModelSetKey, Prob)>) -> Self {
        let table = share_table(events.iter_mut().map(|(key, _)| key));
        sort_events(&mut events);
        OutputSpace {
            table,
            outcomes: Vec::new(),
            events,
            residual: Prob::ZERO,
            truncated: false,
            interrupted: false,
            nodes_visited: 0,
        }
    }

    /// The table every key of the space is over.
    pub(crate) fn table(&self) -> &Arc<KeyTable> {
        &self.table
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
    /// outcome induces it). A key over another table is translated into
    /// this space's ids once; one of its atoms missing from the table means
    /// no outcome induces it.
    pub fn event_probability(&self, key: &ModelSetKey) -> Prob {
        let Some(key) = key.over(&self.table) else {
            return Prob::ZERO;
        };
        self.events
            .iter()
            .find(|(k, _)| *k == *key)
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
        self.probability_all(&[atom], ModelSetKey::cautious_id)
    }

    /// Probability that `atom` holds *bravely*: the union of the events some
    /// of whose stable models contain `atom`.
    pub fn brave_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_all(&[atom], ModelSetKey::brave_id)
    }

    /// Probability of the union of the events in which `holds` passes for
    /// every listed atom. Each atom's id is found once, by binary search in
    /// the space's table; an atom the table lacks is in no model, and the
    /// probability is zero.
    pub(crate) fn probability_all(
        &self,
        atoms: &[&GroundAtom],
        holds: fn(&ModelSetKey, u32) -> bool,
    ) -> Prob {
        let Some(ids) = atoms
            .iter()
            .map(|atom| self.table.id(atom))
            .collect::<Option<Vec<u32>>>()
        else {
            return Prob::ZERO;
        };
        self.probability_where(|k| ids.iter().all(|&id| holds(k, id)))
    }

    /// [`Self::brave_probability`] and [`Self::cautious_probability`] of
    /// every listed atom, in one pass over the events: per event and atom,
    /// one walk over the models decides both whether some model holds the
    /// atom (brave) and whether every model does (cautious). Each atom's
    /// masses are added in event order, as the per-atom passes add them, so
    /// every sum is the same bit for bit.
    pub(crate) fn brave_and_cautious(&self, atoms: &[&GroundAtom]) -> Vec<(Prob, Prob)> {
        let ids: Vec<Option<u32>> = atoms.iter().map(|atom| self.table.id(atom)).collect();
        let mut masses = vec![(Prob::ZERO, Prob::ZERO); atoms.len()];
        for (key, mass) in &self.events {
            for (id, (brave, cautious)) in ids.iter().zip(&mut masses) {
                let Some(id) = id else { continue };
                let (mut some, mut every) = (false, true);
                for model in key.ids() {
                    if model.binary_search(id).is_ok() {
                        some = true;
                    } else {
                        every = false;
                    }
                    if some && !every {
                        break;
                    }
                }
                if some {
                    *brave = brave.add(mass);
                    if every {
                        *cautious = cautious.add(mass);
                    }
                }
            }
        }
        masses
    }

    /// The atoms of some stable model of some event, in ascending order: one
    /// scan of the table, keeping the atoms whose ids occur in a model.
    pub(crate) fn model_atoms(&self) -> impl Iterator<Item = &GroundAtom> {
        let mut occurs = vec![false; self.table.len()];
        for (key, _) in &self.events {
            for &id in key.ids().iter().flatten() {
                occurs[id as usize] = true;
            }
        }
        self.table
            .atoms()
            .iter()
            .zip(occurs)
            .filter_map(|(atom, occurs)| occurs.then_some(atom))
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
    /// goldens and the bench JSONs all diff against each other. The chunks
    /// `"{key}@{mass};"` stream into the hash, each key through its table's
    /// atom texts, rendered once per table.
    pub fn fingerprint(&self) -> String {
        let mut hash = Fnv1a::new();
        for (key, mass) in &self.events {
            write!(hash, "{key}@{mass};").expect("hashing cannot fail");
        }
        write!(hash, "outcomes={};", self.outcome_count()).expect("hashing cannot fail");
        hash.finish()
    }
}

/// Sort events by decreasing mass, ties by ascending key.
fn sort_events(events: &mut [(ModelSetKey, Prob)]) {
    events.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// One key per outcome through `cache`: outcomes are keyed by their
/// [`ProgramFingerprint`] in outcome order, each distinct uncached program is
/// solved once, and the hits and misses are counted in that pass.
fn memoized_keys(
    outcomes: &[PossibleOutcome],
    limits: &StableModelLimits,
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

    let keys = model_set_keys(
        work.iter().map(|&i| &outcomes[i]),
        false,
        limits,
        &CancelToken::never(),
    )?;
    let mut solved: Vec<ModelSetKey> = Vec::with_capacity(work.len());
    for (&i, key) in work.iter().zip(keys) {
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
    use crate::chase::{
        enumerate_outcomes, enumerate_outcomes_cancellable, ChaseBudget, TriggerOrder,
    };
    use crate::grounding::{AtrSet, GroundRuleSet, Grounder, Grounding};
    use crate::perfect_grounder::PerfectGrounder;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use std::sync::atomic::{AtomicUsize, Ordering};
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
        // The keying ignores the executor, so one parallel executor stands
        // for every thread count; the cache is read cold once, then warm
        // twice.
        let cache = crate::ModelSetCache::new();
        let exec = crate::Executor::new(8);
        for _pass in 0..3 {
            let par = OutputSpace::from_chase_with(
                chase.clone(),
                &StableModelLimits::default(),
                &exec,
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
        // pass, and after the cold first pass everything was served warm.
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

    /// The perfect grounder, firing `cancel` inside its incremental
    /// grounding number `fire_at`.
    struct FireAt {
        inner: PerfectGrounder,
        cancel: CancelToken,
        fire_at: usize,
        calls: AtomicUsize,
    }

    impl Grounder for FireAt {
        fn sigma(&self) -> &SigmaPi {
            self.inner.sigma()
        }
        fn name(&self) -> &'static str {
            "fire-at"
        }
        fn ground(&self, atr: &AtrSet) -> GroundRuleSet {
            self.inner.ground(atr)
        }
        fn decides_models(&self) -> bool {
            self.inner.decides_models()
        }
        fn ground_node(&self, atr: &AtrSet) -> Grounding {
            self.inner.ground_node(atr)
        }
        fn ground_from(
            &self,
            atr: &AtrSet,
            parent_atr: &AtrSet,
            parent: &mut Grounding,
        ) -> Grounding {
            if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.fire_at {
                self.cancel.cancel();
            }
            self.inner.ground_from(atr, parent_atr, parent)
        }
    }

    #[test]
    fn heads_keys_observe_the_token_and_limits_as_the_search_does() {
        let mut db = Database::new();
        for coin in 1..=4i64 {
            db.insert_fact(
                if coin < 4 { "Dime" } else { "Quarter" },
                [Const::Int(coin)],
            );
        }
        let sigma = Arc::new(SigmaPi::translate(&dime_quarter_program(), &db).unwrap());
        let grounder = PerfectGrounder::new(Arc::clone(&sigma)).unwrap();
        let (budget, order) = (ChaseBudget::default(), TriggerOrder::First);
        let chase = enumerate_outcomes(&grounder, &budget, order).unwrap();
        assert!(chase.models_decided());
        let limits = StableModelLimits::default();
        let never = CancelToken::never();
        let space = OutputSpace::from_chase(&chase, &limits).unwrap();
        assert_eq!(space.outcome_count(), 9);
        for (outcome, key) in space.outcomes() {
            assert_eq!(key, &outcome.model_set_key(&limits).unwrap());
        }

        // A token that fired before keying interrupts it: exact or nothing.
        let fired = CancelToken::new();
        fired.cancel();
        assert!(matches!(
            OutputSpace::from_chase_cancellable(chase.clone(), &limits, &fired),
            Err(CoreError::Interrupted(_))
        ));

        // No limit cuts the one model, as none cuts the search's total
        // well-founded model.
        let tight = StableModelLimits {
            max_branch_atoms: 0,
            max_models: 0,
        };
        let keyed = OutputSpace::from_chase_cancellable(chase.clone(), &tight, &never).unwrap();
        assert_eq!(keyed.fingerprint(), space.fingerprint());
        for (outcome, key) in keyed.outcomes() {
            assert_eq!(key, &outcome.model_set_key(&tight).unwrap());
        }

        // A chase the token cut keys its explored outcomes to completion
        // under the fired token.
        let cancel = CancelToken::new();
        let firing = FireAt {
            inner: PerfectGrounder::new(sigma).unwrap(),
            cancel: cancel.clone(),
            fire_at: 6,
            calls: AtomicUsize::new(0),
        };
        let cut = enumerate_outcomes_cancellable(&firing, &budget, order, &cancel).unwrap();
        assert!(cut.interrupted && cut.models_decided());
        assert!(!cut.outcomes.is_empty() && cut.outcomes.len() < chase.outcomes.len());
        let partial = OutputSpace::from_chase_cancellable(cut, &limits, &cancel).unwrap();
        assert!(partial.is_interrupted());
        for (outcome, key) in partial.outcomes() {
            let full = space.outcomes().iter().find(|(o, _)| o.atr == outcome.atr);
            assert_eq!(Some(key), full.map(|(_, key)| key));
        }
    }
}
