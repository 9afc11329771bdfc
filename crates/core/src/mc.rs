//! Monte-Carlo evaluation.
//!
//! For programs whose chase tree is too large to enumerate exhaustively, a
//! single chase path can be *sampled*: at every trigger one outcome is drawn
//! from `δ⟨p̄⟩` instead of branching over all of them. Repeating this yields
//! unbiased estimates of any event probability of the output space (the
//! sampling distribution over finite paths is exactly the chase-based
//! probability space of Section 4).
//!
//! Every walk starts from the root's expansion, the same for all paths
//! (Lemma 4.4), grounded once per estimate and frozen, and descends through
//! the chase's own node step (`Chase::expand`), drawing one outcome each.
//!
//! Sampled walks are independent by construction, so [`MonteCarlo`] draws
//! walk `i` from its own RNG stream derived from the root seed
//! ([`walk_rng`]) rather than from one sequentially advancing generator.
//! This makes every estimate a pure function of `(seed, walk index)` — the
//! walks can be dispatched to an [`Executor`]'s threads in any order and
//! still reproduce the sequential estimates bit for bit.

use crate::chase::{Chase, ChaseBudget, Expansion, TriggerOrder};
use crate::error::CoreError;
use crate::exec::Executor;
use crate::grounding::{AtrSet, Grounder};
use crate::outcome::PossibleOutcome;
use gdlog_engine::CancelToken;
use gdlog_prob::sampler::{sample_distribution, Estimate};
use gdlog_prob::Prob;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// The RNG for walk `index` of a run rooted at `seed`: the seed is combined
/// with the index through a SplitMix64-style finalizer (Steele, Lea &
/// Flood's mixer, the standard recommendation for splitting seeds), so
/// streams of different walks are statistically independent and a walk's
/// stream never depends on how many walks other threads have drawn.
pub fn walk_rng(seed: u64, index: u64) -> StdRng {
    let mut z = seed
        .rotate_left(17)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Summary statistics of a Monte-Carlo run.
#[derive(Clone, Debug)]
pub struct SampleStats {
    /// Estimate of the probability of the queried event.
    pub estimate: Estimate,
    /// Number of sampled paths that were abandoned (budget exhausted).
    pub abandoned: usize,
    /// Number of samples drawn in total.
    pub samples: usize,
}

/// A Monte-Carlo estimator bound to a grounder.
///
/// Walk `i` of the estimator's lifetime is drawn from [`walk_rng`]`(seed,
/// i)`, so the sampled paths depend only on the seed and the walk index —
/// never on the executor. [`MonteCarlo::estimate`] therefore produces
/// bit-identical statistics whether it runs sequentially or fans the walks
/// out to worker threads ([`MonteCarlo::with_executor`]).
pub struct MonteCarlo<'a> {
    grounder: &'a dyn Grounder,
    budget: ChaseBudget,
    seed: u64,
    next_walk: u64,
    executor: Option<&'a Executor>,
    cancel: CancelToken,
}

impl<'a> MonteCarlo<'a> {
    /// Create an estimator with a deterministic seed.
    pub fn new(grounder: &'a dyn Grounder, max_triggers: usize, seed: u64) -> Self {
        MonteCarlo {
            grounder,
            budget: ChaseBudget {
                max_depth: max_triggers,
                ..ChaseBudget::default()
            },
            seed,
            next_walk: 0,
            executor: None,
            cancel: CancelToken::never(),
        }
    }

    /// Fan [`MonteCarlo::estimate`]'s walks out to `executor`'s threads. The
    /// estimates are bit-identical to the sequential ones for every thread
    /// count; only wall-clock time changes.
    pub fn with_executor(mut self, executor: &'a Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Observe `cancel` after every grounding, where a cancelled grounder may
    /// have left a partial rule set. A cancelled estimate returns
    /// [`CoreError::Interrupted`] — a partial tally would not be an unbiased
    /// estimate of anything the caller asked for, so Monte-Carlo is
    /// exact-sample-count-or-nothing.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Estimate the probability of an event specified as a predicate over
    /// finite outcomes. Abandoned paths count as "event false" — estimates of
    /// events over finite outcomes are therefore lower bounds when abandoned
    /// paths occur (report `abandoned` to judge their impact).
    pub fn estimate<F>(&mut self, samples: usize, event: F) -> Result<SampleStats, CoreError>
    where
        F: Fn(&PossibleOutcome) -> bool + Sync,
    {
        let mut stats = self.estimate_each(samples, std::slice::from_ref(&event))?;
        Ok(stats.pop().expect("one event, one estimate"))
    }

    /// [`MonteCarlo::estimate`] of several events over one set of walks:
    /// each walk is drawn once and tested against every event. Estimate `i`
    /// is bit-identical to `estimate(samples, events[i])` on an estimator in
    /// the same state; the walks are drawn once instead of once per event.
    pub(crate) fn estimate_each<F>(
        &mut self,
        samples: usize,
        events: &[F],
    ) -> Result<Vec<SampleStats>, CoreError>
    where
        F: Fn(&PossibleOutcome) -> bool + Sync,
    {
        let first_walk = self.next_walk;
        self.next_walk += samples as u64;
        let root = self.root()?;
        // Contiguous chunks of the walk range: one when sequential, several
        // per thread when parallel, so a thread that drew short walks claims
        // another chunk while others finish long ones. Chunk tallies are
        // integers, so the merge is order-insensitive — except for errors,
        // which surface in walk order: each chunk stops at its first failing
        // walk, and chunks are merged lowest-first.
        let sequential = Executor::sequential();
        let executor = self.executor.unwrap_or(&sequential);
        let chunks = if executor.is_parallel() {
            executor.threads() * 4
        } else {
            1
        };
        let chunk = samples.div_ceil(chunks).max(1);
        let ranges: Vec<Range<u64>> = (0..samples)
            .step_by(chunk)
            .map(|start| {
                first_walk + start as u64..first_walk + (start + chunk).min(samples) as u64
            })
            .collect();
        // Per chunk and event, the finite paths on which it holds.
        let tallies = executor.map(&ranges, |walks| {
            let (mut hits, mut abandoned) = (vec![0usize; events.len()], 0usize);
            for walk in walks.clone() {
                match self.walk(&root, walk)? {
                    Some(outcome) => {
                        for (hits, event) in hits.iter_mut().zip(events) {
                            *hits += usize::from(event(&outcome));
                        }
                    }
                    None => abandoned += 1,
                }
            }
            Ok::<_, CoreError>((hits, abandoned))
        });
        let (mut hits, mut abandoned) = (vec![0usize; events.len()], 0usize);
        for tally in tallies {
            let (h, a) = tally?;
            hits.iter_mut().zip(h).for_each(|(total, h)| *total += h);
            abandoned += a;
        }
        Ok(hits
            .into_iter()
            .map(|hits| SampleStats {
                estimate: Estimate::from_bernoulli(hits, samples),
                abandoned,
                samples,
            })
            .collect())
    }

    /// The node step's inputs for this estimator's walks.
    fn chase(&self) -> Chase<'_> {
        Chase {
            grounder: self.grounder,
            budget: &self.budget,
            order: TriggerOrder::First,
            cancel: &self.cancel,
        }
    }

    /// The root's expansion, every walk's start, with `G(∅)` frozen so that a
    /// walk's copy is O(1). A token that fired while the root was saturating
    /// may have left it partial: no walk starts from it then.
    fn root(&self) -> Result<Expansion<'_>, CoreError> {
        let mut root = self.chase().expand(&AtrSet::new(), None, 0)?;
        match &mut root {
            Expansion::Cancelled => {
                return Err(CoreError::Interrupted("monte-carlo estimation".into()))
            }
            Expansion::Leaf(rules) => *rules = rules.snapshot(),
            Expansion::Trigger { grounding, .. } => *grounding = grounding.snapshot(),
            Expansion::DepthCut => {}
        }
        Ok(root)
    }

    /// Walk `index`: descend from `root` through the chase's node step,
    /// drawing each trigger's outcome from the walk's own stream. The
    /// finite possible outcome it reaches, or `None` when the trigger budget
    /// abandoned it (it belongs, statistically, to the error event or to a
    /// deeper finite outcome).
    fn walk(&self, root: &Expansion<'_>, index: u64) -> Result<Option<PossibleOutcome>, CoreError> {
        let chase = self.chase();
        let mut rng = walk_rng(self.seed, index);
        let (mut atr, mut probability) = (AtrSet::new(), Prob::ONE);
        let mut expansion = root.clone();
        while let Expansion::Trigger {
            mut grounding,
            trigger,
            schema,
        } = expansion
        {
            let (params, _) = schema.split_active(&trigger);
            let value = sample_distribution(schema.distribution, params, &mut rng)?;
            probability = probability.mul(&schema.outcome_probability(&trigger, &value)?);
            // A node's depth is its choice count: one per trigger.
            let child = chase.child(&atr, &trigger, value)?;
            expansion = chase.expand(&child, Some((&atr, &mut grounding)), child.len())?;
            atr = child;
        }
        match expansion {
            Expansion::Leaf(rules) => Ok(Some(PossibleOutcome::new(atr, rules, probability))),
            Expansion::DepthCut => Ok(None),
            Expansion::Cancelled => Err(CoreError::Interrupted("monte-carlo estimation".into())),
            Expansion::Trigger { .. } => unreachable!("the descent applies every trigger"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounding::Grounding;
    use crate::program::{coin_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use gdlog_engine::StableModelLimits;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn network_grounder(n: i64) -> SimpleGrounder {
        let mut db = Database::new();
        for i in 1..=n {
            db.insert_fact("Router", [Const::Int(i)]);
            for j in 1..=n {
                if i != j {
                    db.insert_fact("Connected", [Const::Int(i), Const::Int(j)]);
                }
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        SimpleGrounder::new(Arc::new(
            SigmaPi::translate(&network_resilience_program(0.1), &db).unwrap(),
        ))
    }

    #[test]
    fn sampled_paths_terminate_and_have_consistent_probability() {
        let grounder = network_grounder(3);
        let mc = MonteCarlo::new(&grounder, 100, 7);
        let root = mc.root().unwrap();
        for walk in 0..20 {
            let outcome = mc.walk(&root, walk).unwrap().expect("the walk terminates");
            // The path probability equals the product of its choices.
            assert_eq!(
                outcome.probability,
                outcome.atr.probability(grounder.sigma()).unwrap()
            );
        }
    }

    #[test]
    fn domination_probability_estimate_converges_to_0_19() {
        let grounder = network_grounder(3);
        let mut mc = MonteCarlo::new(&grounder, 100, 42);
        let limits = StableModelLimits::default();
        let stats = mc
            .estimate(4000, |outcome| {
                !outcome.stable_models(&limits).unwrap().is_empty()
            })
            .unwrap();
        assert_eq!(stats.abandoned, 0);
        assert_eq!(stats.samples, 4000);
        assert!(
            stats.estimate.consistent_with(0.19, 4.0),
            "estimate {:?} not consistent with 0.19",
            stats.estimate
        );
    }

    #[test]
    fn coin_sampling_hits_both_outcomes() {
        let sigma = SigmaPi::translate(&coin_program(), &Database::new()).unwrap();
        let grounder = SimpleGrounder::new(Arc::new(sigma));
        let mc = MonteCarlo::new(&grounder, 10, 3);
        let root = mc.root().unwrap();
        let mut tails = 0;
        let mut heads = 0;
        for walk in 0..200 {
            let outcome = mc.walk(&root, walk).unwrap().expect("the walk terminates");
            let coin1 = gdlog_data::GroundAtom::make("Coin", vec![Const::Int(1)]);
            if outcome.rules.heads().contains(&coin1) {
                tails += 1;
            } else {
                heads += 1;
            }
        }
        assert!(tails > 50 && heads > 50, "tails {tails}, heads {heads}");
    }

    #[test]
    fn deep_paths_survive_snapshot_flattening() {
        // 24 independent coins: one sampled path takes 24 trigger steps, so
        // the grounding snapshot chain exceeds the flattening threshold and
        // the collapsed frames must still carry the full rule log.
        use gdlog_data::Term;
        let n = 24i64;
        let mut db = Database::new();
        for i in 1..=n {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        let program = crate::ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![Term::Const(Const::real(0.5).unwrap())],
                    vec![Term::var("x")],
                )
            })
            .build()
            .unwrap();
        let sigma = SigmaPi::translate(&program, &db).unwrap();
        let grounder = SimpleGrounder::new(Arc::new(sigma));
        let mc = MonteCarlo::new(&grounder, 64, 9);
        let outcome = mc
            .walk(&mc.root().unwrap(), 0)
            .unwrap()
            .expect("path terminates");
        assert_eq!(outcome.choice_count(), n as usize);
        assert_eq!(outcome.probability, Prob::ratio(1, 1 << n));
        // The accumulated grounding saw every coin: n Coin facts, n Active
        // rules, n Result→Toss rules.
        assert_eq!(outcome.rule_count(), 3 * n as usize);
        assert_eq!(
            outcome.rules.canonical_rules(),
            grounder.ground(&outcome.atr).canonical_rules()
        );
    }

    #[test]
    fn walk_streams_are_independent_of_draw_order() {
        // Walk i's path is a pure function of (seed, i): drawing walks
        // 0..n backwards gives the same paths as drawing them forwards from
        // another estimator's root.
        let grounder = network_grounder(3);
        let label = |path: Option<PossibleOutcome>| match path {
            Some(o) => format!("{}@{}", o.atr, o.probability),
            None => "abandoned".to_owned(),
        };
        let mc = MonteCarlo::new(&grounder, 100, 42);
        let root = mc.root().unwrap();
        let mut paths: Vec<String> = (0..8u64)
            .rev()
            .map(|walk| label(mc.walk(&root, walk).unwrap()))
            .collect();
        paths.reverse();
        let mc = MonteCarlo::new(&grounder, 100, 42);
        let root = mc.root().unwrap();
        for (walk, expected) in (0..).zip(&paths) {
            assert_eq!(&label(mc.walk(&root, walk).unwrap()), expected);
        }
        // Distinct walks explore distinct paths with overwhelming
        // probability on this workload; a constant stream would betray a
        // broken splitter.
        assert!(
            paths
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn parallel_estimates_are_bit_identical_to_sequential() {
        let grounder = network_grounder(3);
        let limits = StableModelLimits::default();
        let event = |outcome: &PossibleOutcome| !outcome.stable_models(&limits).unwrap().is_empty();
        let mut sequential = MonteCarlo::new(&grounder, 100, 11);
        let base = sequential.estimate(500, event).unwrap();
        // `0` is one thread per available CPU.
        for threads in [0, 2, 3, 8] {
            let executor = crate::exec::Executor::new(threads);
            let mut parallel = MonteCarlo::new(&grounder, 100, 11).with_executor(&executor);
            let stats = parallel.estimate(500, event).unwrap();
            assert_eq!(stats.estimate.mean, base.estimate.mean, "x{threads}");
            assert_eq!(stats.abandoned, base.abandoned);
            assert_eq!(stats.samples, base.samples);
            // A second estimate continues the walk stream identically too.
            let base2 = sequential.estimate(250, event).unwrap();
            let stats2 = parallel.estimate(250, event).unwrap();
            assert_eq!(stats2.estimate.mean, base2.estimate.mean, "x{threads} cont");
            // Rewind the sequential estimator so every thread count sees the
            // same continuation window.
            sequential = MonteCarlo::new(&grounder, 100, 11);
            let _ = sequential.estimate(500, event).unwrap();
        }
    }

    #[test]
    fn trigger_budget_abandons_paths() {
        // With a zero trigger budget every probabilistic path is abandoned.
        let grounder = network_grounder(3);
        let mut mc = MonteCarlo::new(&grounder, 0, 1);
        assert!(mc.walk(&mc.root().unwrap(), 0).unwrap().is_none());
        let stats = mc.estimate(10, |_| true).unwrap();
        assert_eq!(stats.abandoned, 10);
        assert_eq!(stats.estimate.mean, 0.0);
    }

    /// A grounder that counts its root groundings (`ground_node` calls) and
    /// its incremental ones (`ground_from` calls), and fires `cancel` inside
    /// `ground_from` call number `fire_at` (never when 0). The inner grounder
    /// observes `cancel`, so the grounding it returns then is partial.
    struct Probe {
        inner: SimpleGrounder,
        cancel: CancelToken,
        fire_at: usize,
        roots: AtomicUsize,
        steps: AtomicUsize,
    }

    impl Probe {
        fn new(n: i64, fire_at: usize) -> Self {
            let cancel = CancelToken::new();
            let mut inner = network_grounder(n);
            inner.set_cancel(cancel.clone());
            Probe {
                inner,
                cancel,
                fire_at,
                roots: AtomicUsize::new(0),
                steps: AtomicUsize::new(0),
            }
        }
    }

    impl Grounder for Probe {
        fn sigma(&self) -> &SigmaPi {
            self.inner.sigma()
        }
        fn name(&self) -> &'static str {
            "probe"
        }
        fn ground(&self, atr: &AtrSet) -> crate::grounding::GroundRuleSet {
            self.inner.ground(atr)
        }
        fn ground_node(&self, atr: &AtrSet) -> Grounding {
            self.roots.fetch_add(1, Ordering::SeqCst);
            self.inner.ground_node(atr)
        }
        fn ground_from(
            &self,
            atr: &AtrSet,
            parent_atr: &AtrSet,
            parent: &mut Grounding,
        ) -> Grounding {
            if self.steps.fetch_add(1, Ordering::SeqCst) + 1 == self.fire_at {
                self.cancel.cancel();
            }
            self.inner.ground_from(atr, parent_atr, parent)
        }
    }

    #[test]
    fn the_root_is_grounded_once_per_estimate() {
        for threads in [1, 2, 8] {
            let executor = crate::exec::Executor::new(threads);
            for samples in [1, 7, 64] {
                let probe = Probe::new(3, 0);
                let mut mc = MonteCarlo::new(&probe, 100, 5).with_executor(&executor);
                mc.estimate(samples, |_| true).unwrap();
                assert_eq!(
                    probe.roots.load(Ordering::SeqCst),
                    1,
                    "x{threads}, {samples}"
                );
                mc.estimate(samples, |_| true).unwrap();
                assert_eq!(
                    probe.roots.load(Ordering::SeqCst),
                    2,
                    "x{threads}, {samples}"
                );
            }
        }
    }

    #[test]
    fn a_token_fired_inside_the_last_walk_interrupts_the_estimate() {
        // The incremental groundings of the first five walks, then of all
        // six: the sixth walk's are the calls in between.
        let count = |samples| {
            let probe = Probe::new(4, 0);
            let mut mc = MonteCarlo::new(&probe, 100, 3).with_cancel(probe.cancel.clone());
            mc.estimate(samples, |_| true).unwrap();
            probe.steps.load(Ordering::SeqCst)
        };
        let (before, all) = (count(5), count(6));
        assert!(all > before);
        for fire_at in before + 1..=all {
            let probe = Probe::new(4, fire_at);
            let mut mc = MonteCarlo::new(&probe, 100, 3).with_cancel(probe.cancel.clone());
            let result = mc.estimate(6, |_| true);
            assert!(
                matches!(result, Err(CoreError::Interrupted(_))),
                "fired in call {fire_at}: {result:?}"
            );
        }
    }

    #[test]
    fn a_cancelled_root_starts_no_walk() {
        let probe = Probe::new(3, 0);
        probe.cancel.cancel();
        let mut mc = MonteCarlo::new(&probe, 100, 3).with_cancel(probe.cancel.clone());
        let result = mc.estimate(10, |_| true);
        assert!(
            matches!(result, Err(CoreError::Interrupted(_))),
            "{result:?}"
        );
        assert_eq!(probe.steps.load(Ordering::SeqCst), 0);
    }
}
