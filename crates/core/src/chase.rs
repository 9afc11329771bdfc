//! The chase procedure for generative Datalog¬ (Section 4).
//!
//! The chase operates on configurations of probabilistic choices (ground AtR
//! sets). A *trigger* for `G(Σ)` on `Σ` is an `Active` atom occurring in
//! `heads(G(Σ))` on which `AtR_Σ` is not yet defined; applying it branches
//! over every outcome of positive probability (Definition 4.1). A chase tree
//! (Definition 4.2) applies triggers until none is left; the results of its
//! finite maximal paths are exactly the finite possible outcomes
//! (Lemma 4.5), independently of the order in which triggers are applied
//! (Lemma 4.4).
//!
//! [`enumerate_outcomes`] explores the chase tree exhaustively up to a
//! [`ChaseBudget`]; the probability mass of anything not fully explored
//! (paths that exceed the depth budget, tails of infinite supports, paths
//! whose probability falls below the cut-off) is accumulated in
//! [`ChaseResult::residual_mass`]. By Theorem 3.9 the explored mass plus the
//! residual equals one.
//!
//! There is one node step and one descent, on the calling thread.
//! `Chase::expand` does a node's order-independent work — ground, find the
//! triggers, decide leaf, depth cut or trigger — and `Chase::explore` walks
//! the tree depth-first in trigger order, branching over each trigger's
//! outcomes; it is the only code that counts nodes, applies the budget cuts
//! and adds residual mass. Monte-Carlo walks ([`crate::mc`]) take the same
//! step and draw one outcome.

use crate::error::CoreError;
use crate::exec::Executor;
use crate::grounding::{AtrRule, AtrSet, GroundRuleSet, Grounder, Grounding};
use crate::translate::AtrSchema;
use gdlog_data::{Const, GroundAtom};
use gdlog_engine::CancelToken;
use gdlog_prob::Prob;

use crate::outcome::PossibleOutcome;

/// How the chase selects which trigger to apply at a node. By Lemma 4.4 the
/// set of finite results is the same for every policy; exposing the policy
/// lets tests verify exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TriggerOrder {
    /// Apply the smallest trigger in the canonical atom order (deterministic
    /// default).
    #[default]
    First,
    /// Apply the largest trigger in the canonical atom order.
    Last,
    /// Apply the trigger at a pseudo-random position derived from the node's
    /// choice set (deterministic per node, but "shuffled" across the tree).
    Scrambled,
}

impl TriggerOrder {
    fn pick(&self, triggers: &[GroundAtom], depth: usize) -> usize {
        match self {
            TriggerOrder::First => 0,
            TriggerOrder::Last => triggers.len() - 1,
            TriggerOrder::Scrambled => {
                // A deterministic hash of the depth and the trigger atoms
                // themselves, so equal-depth siblings with equally many (but
                // different) triggers genuinely pick different positions.
                use std::hash::{Hash, Hasher};
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                depth.hash(&mut hasher);
                for trigger in triggers {
                    trigger.hash(&mut hasher);
                }
                (hasher.finish() as usize) % triggers.len()
            }
        }
    }
}

/// Exploration budget for the exact chase enumeration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaseBudget {
    /// Maximum number of finite outcomes to produce.
    pub max_outcomes: usize,
    /// Maximum number of trigger applications along a single path (chase
    /// depth). Paths that exceed it contribute to the residual mass.
    pub max_depth: usize,
    /// Outcomes of a single trigger application are enumerated up to this
    /// many branches (relevant for distributions with countably infinite
    /// support); the remaining tail contributes to the residual mass.
    pub max_branching: usize,
    /// Paths whose accumulated probability falls strictly below this bound
    /// are abandoned and contribute to the residual mass. Set to `0.0` to
    /// disable.
    pub min_path_probability: f64,
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_outcomes: 100_000,
            max_depth: 64,
            max_branching: 64,
            min_path_probability: 0.0,
        }
    }
}

impl ChaseBudget {
    /// A small budget suitable for unit tests and examples.
    pub fn small() -> Self {
        ChaseBudget {
            max_outcomes: 10_000,
            max_depth: 32,
            max_branching: 16,
            min_path_probability: 0.0,
        }
    }
}

/// The result of an exhaustive (budgeted) chase enumeration.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The finite possible outcomes explored, with their probabilities.
    pub outcomes: Vec<PossibleOutcome>,
    /// Probability mass of everything that was not fully explored: infinite
    /// paths (the error event) plus finite mass beyond the budget.
    pub residual_mass: Prob,
    /// Did the enumeration hit the budget anywhere? When `false`,
    /// `residual_mass` is exactly the error-event probability.
    pub truncated: bool,
    /// Number of chase-tree nodes visited.
    pub nodes_visited: usize,
    /// Did a [`CancelToken`] cut the enumeration short? The result is still
    /// exact — cancelled subtrees are accounted in `residual_mass` like any
    /// budget cut (and `truncated` is set alongside) — but *which* subtrees
    /// were cut depends on when the token fired, so an interrupted result is
    /// not reproducible and must never be treated as golden.
    pub interrupted: bool,
    /// Did the grounder decide every outcome's stable model
    /// ([`Grounder::decides_models`])? Only the enumeration sets it.
    models_decided: bool,
}

impl ChaseResult {
    /// Did the grounder that produced the outcomes decide each one's stable
    /// model ([`Grounder::decides_models`])? Then
    /// [`crate::OutputSpace::from_chase_cancellable`] keys every outcome
    /// from its heads instead of searching it.
    pub fn models_decided(&self) -> bool {
        self.models_decided
    }

    /// Total probability mass of the explored finite outcomes.
    pub fn explored_mass(&self) -> Prob {
        Prob::sum(self.outcomes.iter().map(|o| o.probability))
    }

    /// Explored plus residual mass (should always be ≈ 1; exactly 1 when all
    /// probabilities are exact rationals).
    pub fn total_mass(&self) -> Prob {
        self.explored_mass().add(&self.residual_mass)
    }

    /// The first difference from `other` under **strict** equality — outcome
    /// list in order (choice sets and exact probabilities), residual mass,
    /// truncation flag and visited-node count — or `None` when the results
    /// are bit-identical. This is *the* definition of "bit-identical" the
    /// chase guarantees at every thread count; the property tests (one
    /// chase per executor) and the chase benchmark (regrounding against the
    /// incremental descent) both compare through it, so the checked fields
    /// cannot drift apart.
    pub fn diff(&self, other: &ChaseResult) -> Option<String> {
        if self.outcomes.len() != other.outcomes.len() {
            return Some(format!(
                "outcome count: {} vs {}",
                self.outcomes.len(),
                other.outcomes.len()
            ));
        }
        for (i, (a, b)) in self.outcomes.iter().zip(&other.outcomes).enumerate() {
            if a.atr != b.atr {
                return Some(format!("outcome {i} choice set: {} vs {}", a.atr, b.atr));
            }
            if a.probability != b.probability {
                return Some(format!(
                    "outcome {i} probability: {} vs {}",
                    a.probability, b.probability
                ));
            }
        }
        if self.residual_mass.to_string() != other.residual_mass.to_string() {
            return Some(format!(
                "residual mass: {} vs {}",
                self.residual_mass, other.residual_mass
            ));
        }
        if self.truncated != other.truncated {
            return Some(format!(
                "truncated: {} vs {}",
                self.truncated, other.truncated
            ));
        }
        if self.nodes_visited != other.nodes_visited {
            return Some(format!(
                "nodes visited: {} vs {}",
                self.nodes_visited, other.nodes_visited
            ));
        }
        if self.interrupted != other.interrupted {
            return Some(format!(
                "interrupted: {} vs {}",
                self.interrupted, other.interrupted
            ));
        }
        None
    }
}

/// Exhaustively enumerate the finite possible outcomes of the translated
/// program relative to `grounder`, following the chase procedure
/// sequentially on the calling thread.
pub fn enumerate_outcomes(
    grounder: &dyn Grounder,
    budget: &ChaseBudget,
    order: TriggerOrder,
) -> Result<ChaseResult, CoreError> {
    enumerate_outcomes_cancellable(grounder, budget, order, &CancelToken::never())
}

/// [`enumerate_outcomes`] with an execution policy it does not use: the
/// chase always runs sequentially on the calling thread, so the result is
/// the same for every [`Executor`]. The parameter is kept only because the
/// benchmark (`perfbench`) names this signature; the benchmark PR of
/// ROADMAP item 2 removes it.
pub fn enumerate_outcomes_with(
    grounder: &dyn Grounder,
    budget: &ChaseBudget,
    order: TriggerOrder,
    _executor: &Executor,
) -> Result<ChaseResult, CoreError> {
    enumerate_outcomes_cancellable(grounder, budget, order, &CancelToken::never())
}

/// [`enumerate_outcomes`] under a cooperative [`CancelToken`].
///
/// The token is polled at every chase-node expansion (and re-checked after
/// each node's grounding, so a saturation the grounder broke out of early
/// can never masquerade as a terminal leaf). A cancelled subtree is cut
/// exactly like a budget cut: its path mass moves to `residual_mass`,
/// `truncated` is set, and additionally [`ChaseResult::interrupted`] records
/// that the cut was a cancellation — the invariant `explored + residual = 1`
/// holds for interrupted results too.
pub fn enumerate_outcomes_cancellable(
    grounder: &dyn Grounder,
    budget: &ChaseBudget,
    order: TriggerOrder,
    cancel: &CancelToken,
) -> Result<ChaseResult, CoreError> {
    if budget.max_outcomes == 0 {
        return Err(CoreError::Budget(
            "max_outcomes must be at least one".to_owned(),
        ));
    }
    let mut result = ChaseResult {
        outcomes: Vec::new(),
        residual_mass: Prob::ZERO,
        truncated: false,
        nodes_visited: 0,
        interrupted: false,
        models_decided: grounder.decides_models(),
    };
    let chase = Chase {
        grounder,
        budget,
        order,
        cancel,
    };
    chase.explore(&mut result, AtrSet::new(), None, Prob::ONE, 0)?;
    Ok(result)
}

/// The order-independent work at one chase node: its grounding and its
/// trigger. By Lemma 4.4 all of it depends only on the node; branching over
/// the trigger's outcomes (or drawing one, in a Monte-Carlo walk), budgets
/// and residual accounting, which depend on visit order, are the caller's.
#[derive(Clone)]
pub(crate) enum Expansion<'a> {
    /// The token fired while grounding: the rule set may be incomplete, so
    /// it must not decide whether the node is a leaf.
    Cancelled,
    /// A terminal configuration: `G(Σ)` of a finite possible outcome.
    Leaf(GroundRuleSet),
    /// A non-terminal node at the depth budget.
    DepthCut,
    /// A trigger to apply (Definition 4.1).
    Trigger {
        /// The node's grounding, which its children extend.
        grounding: Grounding,
        /// The trigger.
        trigger: GroundAtom,
        /// Its AtR schema.
        schema: &'a AtrSchema,
    },
}

/// One descent's fixed inputs: an enumeration's, or a Monte-Carlo walk's.
pub(crate) struct Chase<'a> {
    pub(crate) grounder: &'a dyn Grounder,
    pub(crate) budget: &'a ChaseBudget,
    pub(crate) order: TriggerOrder,
    pub(crate) cancel: &'a CancelToken,
}

impl<'a> Chase<'a> {
    /// Ground the node `atr` — incrementally from its parent's grounding
    /// when there is one — and decide what it is: cancelled, a leaf, cut at
    /// the depth budget, or a trigger to apply.
    pub(crate) fn expand(
        &self,
        atr: &AtrSet,
        parent: Option<(&AtrSet, &mut Grounding)>,
        depth: usize,
    ) -> Result<Expansion<'a>, CoreError> {
        // Each node extends its parent's configuration by one choice, so the
        // parent's grounding seeds an incremental saturation over a
        // structurally shared snapshot (all siblings share the parent's
        // rule-log prefix).
        let grounding = match parent {
            Some((parent_atr, parent_grounding)) => {
                self.grounder.ground_from(atr, parent_atr, parent_grounding)
            }
            None => self.grounder.ground_node(atr),
        };

        // Re-check after grounding, *before* the leaf decision: a cancelled
        // grounder may have broken out of saturation early, and an
        // incomplete rule set must never be recorded as a terminal outcome.
        if self.cancel.is_cancelled() {
            return Ok(Expansion::Cancelled);
        }
        let triggers = self.grounder.triggers(atr, grounding.rules());
        if triggers.is_empty() {
            // Σ is terminal; `Σ ∪ G(Σ)` is a finite possible outcome.
            return Ok(Expansion::Leaf(grounding.into_rules()));
        }
        if depth >= self.budget.max_depth {
            return Ok(Expansion::DepthCut);
        }
        let trigger = triggers[self.order.pick(&triggers, depth)].clone();
        let schema = self
            .grounder
            .sigma()
            .schema_for_active(&trigger.predicate)
            .ok_or_else(|| {
                CoreError::Validation(format!(
                    "trigger {trigger} does not use a generated Active predicate"
                ))
            })?;
        Ok(Expansion::Trigger {
            grounding,
            trigger,
            schema,
        })
    }

    /// The configuration of one branch: `atr` extended by the trigger's
    /// chosen outcome.
    pub(crate) fn child(
        &self,
        atr: &AtrSet,
        trigger: &GroundAtom,
        outcome: Const,
    ) -> Result<AtrSet, CoreError> {
        atr.extended(AtrRule::new(
            self.grounder.sigma(),
            trigger.clone(),
            outcome,
        )?)
    }

    /// The walk: visit the chase tree depth-first in trigger order, calling
    /// [`Chase::expand`] at each node and branching over every outcome of
    /// its trigger. It is the only place that counts nodes, applies the
    /// budget cuts and adds residual mass, so every accumulation happens in
    /// trigger order.
    fn explore(
        &self,
        result: &mut ChaseResult,
        atr: AtrSet,
        parent: Option<(&AtrSet, &mut Grounding)>,
        path_prob: Prob,
        depth: usize,
    ) -> Result<(), CoreError> {
        result.nodes_visited += 1;

        // Cancellation cuts exactly like a budget cut: the whole subtree's
        // mass is accounted in the residual, keeping explored + residual = 1.
        if self.cancel.is_cancelled() {
            result.residual_mass = result.residual_mass.add(&path_prob);
            result.truncated = true;
            result.interrupted = true;
            return Ok(());
        }

        // Once the outcome budget is full, no further node can contribute an
        // outcome: stop before doing any grounding work, so `max_outcomes`
        // bounds the number of nodes visited, not just the outcomes reported.
        // Paths below the probability cut-off are abandoned the same way.
        if result.outcomes.len() >= self.budget.max_outcomes
            || path_prob.to_f64() < self.budget.min_path_probability
        {
            result.residual_mass = result.residual_mass.add(&path_prob);
            result.truncated = true;
            return Ok(());
        }

        match self.expand(&atr, parent, depth)? {
            Expansion::Cancelled => {
                result.residual_mass = result.residual_mass.add(&path_prob);
                result.truncated = true;
                result.interrupted = true;
            }
            Expansion::Leaf(rules) => {
                result
                    .outcomes
                    .push(PossibleOutcome::new(atr, rules, path_prob));
            }
            Expansion::DepthCut => {
                // The path is cut: its mass is unexplored (it may correspond
                // to an infinite possible outcome, i.e. the error event, or
                // merely to a deeper finite one).
                result.residual_mass = result.residual_mass.add(&path_prob);
                result.truncated = true;
            }
            Expansion::Trigger {
                mut grounding,
                trigger,
                schema,
            } => {
                // Branch over every outcome with positive probability (one
                // past the budget detects a support cut). A cut tail is
                // accounted exactly in `Prob` — however small its float value
                // — so `total_mass()` stays 1 and `truncated` reflects it.
                let max_branching = self.budget.max_branching;
                let mut branches = schema.outcomes(&trigger, max_branching.saturating_add(1))?;
                let support_cut = branches.len() > max_branching;
                branches.truncate(max_branching);
                let branch_mass = Prob::sum(branches.iter().map(|(_, p)| *p));
                let tail = path_prob.mul(&Prob::ONE.sub(&branch_mass));
                if support_cut {
                    result.residual_mass = result.residual_mass.add(&tail);
                    result.truncated = true;
                } else if tail.is_positive() {
                    // Float dust from inexact parameters: keep the masses
                    // summing to ~1 without claiming a budget truncation.
                    result.residual_mass = result.residual_mass.add(&tail);
                }
                for (outcome, mass) in branches {
                    let child = self.child(&atr, &trigger, outcome)?;
                    self.explore(
                        result,
                        child,
                        Some((&atr, &mut grounding)),
                        path_prob.mul(&mass),
                        depth + 1,
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfect_grounder::PerfectGrounder;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database};
    use gdlog_engine::StableModelLimits;
    use std::sync::Arc;

    fn network_db(n: i64) -> Database {
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
        db
    }

    fn simple_for(program: &crate::Program, db: &Database) -> SimpleGrounder {
        SimpleGrounder::new(Arc::new(SigmaPi::translate(program, db).unwrap()))
    }

    #[test]
    fn coin_program_has_two_outcomes_of_probability_one_half() {
        let grounder = simple_for(&coin_program(), &Database::new());
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 2);
        assert!(!result.truncated);
        assert_eq!(result.residual_mass, Prob::ZERO);
        assert_eq!(result.total_mass(), Prob::ONE);
        for outcome in &result.outcomes {
            assert_eq!(outcome.probability, Prob::ratio(1, 2));
            assert_eq!(outcome.choice_count(), 1);
        }
        // One outcome (tails) has two stable models, the other (heads) none —
        // exactly the situation described in Section 3.
        let limits = StableModelLimits::default();
        let mut model_counts: Vec<usize> = result
            .outcomes
            .iter()
            .map(|o| o.stable_models(&limits).unwrap().len())
            .collect();
        model_counts.sort();
        assert_eq!(model_counts, vec![0, 2]);
    }

    #[test]
    fn network_example_3_10_outcome_structure() {
        let grounder = simple_for(&network_resilience_program(0.1), &network_db(3));
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert!(!result.truncated);
        assert_eq!(result.total_mass(), Prob::ONE);
        // The outcome where both neighbours resist infection has probability
        // 0.9² = 0.81 and no stable model (the network is not dominated ⇒ the
        // constraint kills every model ⇒ actually dominated-ness is the
        // *other* way round: no stable model means the malware failed).
        let limits = StableModelLimits::default();
        let no_model_mass = Prob::sum(
            result
                .outcomes
                .iter()
                .filter(|o| o.stable_models(&limits).unwrap().is_empty())
                .map(|o| o.probability),
        );
        // Probability that the network is dominated (has some stable model):
        let dominated = Prob::ONE.sub(&no_model_mass);
        assert_eq!(dominated, Prob::ratio(19, 100));
    }

    #[test]
    fn chase_is_order_independent() {
        // Lemma 4.4: the same set of finite results regardless of the trigger
        // selection policy.
        let grounder = simple_for(&network_resilience_program(0.1), &network_db(3));
        let budget = ChaseBudget::default();
        let canonical = |order: TriggerOrder| {
            let mut keys: Vec<(Vec<crate::grounding::AtrRule>, String)> =
                enumerate_outcomes(&grounder, &budget, order)
                    .unwrap()
                    .outcomes
                    .iter()
                    .map(|o| (o.atr.canonical(), o.probability.to_string()))
                    .collect();
            keys.sort();
            keys
        };
        let first = canonical(TriggerOrder::First);
        let last = canonical(TriggerOrder::Last);
        let scrambled = canonical(TriggerOrder::Scrambled);
        assert_eq!(first, last);
        assert_eq!(first, scrambled);
        assert!(!first.is_empty());
    }

    #[test]
    fn dime_quarter_with_perfect_grounder_has_six_outcomes() {
        // Two dimes: 4 configurations; the two configurations with no tail
        // each branch over the quarter (2 outcomes each): 3 + 1·... in fact
        // TT, TH, HT are terminal (3 outcomes) and HH splits into 2 → 5? No:
        // exactly one configuration (HH) requires the quarter toss, so
        // 3 + 2 = 5 outcomes for one quarter.
        let mut db = Database::new();
        db.insert_fact("Dime", [Const::Int(1)]);
        db.insert_fact("Dime", [Const::Int(2)]);
        db.insert_fact("Quarter", [Const::Int(3)]);
        let sigma = SigmaPi::translate(&dime_quarter_program(), &db).unwrap();
        let grounder = PerfectGrounder::new(Arc::new(sigma)).unwrap();
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 5);
        assert_eq!(result.total_mass(), Prob::ONE);
        assert!(!result.truncated);
        // The 3 dime-only outcomes have probability 1/4 each, the 2
        // quarter outcomes 1/8 each.
        let mut probs: Vec<String> = result
            .outcomes
            .iter()
            .map(|o| o.probability.to_string())
            .collect();
        probs.sort();
        assert_eq!(probs, vec!["1/4", "1/4", "1/4", "1/8", "1/8"]);
    }

    #[test]
    fn budget_truncation_is_accounted_in_residual_mass() {
        let grounder = simple_for(&network_resilience_program(0.5), &network_db(3));
        let tight = ChaseBudget {
            max_outcomes: 4,
            max_depth: 64,
            max_branching: 64,
            min_path_probability: 0.0,
        };
        let result = enumerate_outcomes(&grounder, &tight, TriggerOrder::First).unwrap();
        assert!(result.truncated);
        assert_eq!(result.outcomes.len(), 4);
        assert!(result.residual_mass.is_positive());
        assert!(result.total_mass().approx_eq(&Prob::ONE, 1e-9));
    }

    #[test]
    fn depth_budget_truncates_deep_paths() {
        let grounder = simple_for(&network_resilience_program(0.1), &network_db(3));
        let shallow = ChaseBudget {
            max_outcomes: 1000,
            max_depth: 1,
            max_branching: 64,
            min_path_probability: 0.0,
        };
        let result = enumerate_outcomes(&grounder, &shallow, TriggerOrder::First).unwrap();
        assert!(result.truncated);
        assert!(result.residual_mass.is_positive());
        assert!(result.total_mass().approx_eq(&Prob::ONE, 1e-9));
    }

    fn geometric_program() -> crate::Program {
        // → Steps(Geometric⟨1/2⟩): one trigger with countably infinite
        // support, so `max_branching` always cuts the support.
        crate::ProgramBuilder::new()
            .rule(|r| {
                r.head_with_delta(
                    "Steps",
                    vec![],
                    "Geometric",
                    vec![gdlog_data::Term::Const(Const::real(0.5).unwrap())],
                    vec![],
                )
            })
            .build()
            .unwrap()
    }

    #[test]
    fn branching_cut_tails_are_accounted_exactly_in_prob() {
        let grounder = simple_for(&geometric_program(), &Database::new());
        // A coarse cut: 4 of the countably many outcomes.
        let coarse = ChaseBudget {
            max_branching: 4,
            ..ChaseBudget::default()
        };
        let result = enumerate_outcomes(&grounder, &coarse, TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 4);
        assert!(result.truncated);
        assert_eq!(result.residual_mass, Prob::ratio(1, 16));
        assert_eq!(result.total_mass(), Prob::ONE);

        // Regression: with the default 64-way cut the tail mass 2⁻⁶⁴ is far
        // below any float threshold, but it is still support truncation —
        // `truncated` must say so and the tail must be accounted exactly, so
        // the total mass stays exactly one in `Prob`.
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 64);
        assert!(result.truncated);
        assert!(result.residual_mass.is_positive());
        assert_eq!(result.total_mass(), Prob::ONE);
    }

    /// `n` independent coins, each landing heads with probability `p`.
    fn coin_chain_program(n: i64, p: f64, db: &mut Database) -> crate::Program {
        use gdlog_data::Term;
        for i in 1..=n {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        crate::ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![Term::Const(Const::real(p).unwrap())],
                    vec![Term::var("x")],
                )
            })
            .build()
            .unwrap()
    }

    #[test]
    fn outcome_budget_stops_exploration_early() {
        // Six independent coins: the full chase tree has 2⁷ − 1 = 127 nodes
        // and 64 outcomes.
        let mut db = Database::new();
        let program = coin_chain_program(6, 0.5, &mut db);
        let grounder = simple_for(&program, &db);
        let full =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(full.outcomes.len(), 64);
        assert_eq!(full.nodes_visited, 127);

        // With max_outcomes = 1 the walk must stop after the first leaf:
        // only the leftmost path and its immediately abandoned siblings are
        // visited — O(depth), not the whole tree.
        let capped = ChaseBudget {
            max_outcomes: 1,
            ..ChaseBudget::default()
        };
        let result = enumerate_outcomes(&grounder, &capped, TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 1);
        assert!(result.truncated);
        assert_eq!(result.total_mass(), Prob::ONE);
        // Root-to-leaf path (7 nodes) plus one pruned sibling per level (6).
        assert_eq!(result.nodes_visited, 13);
    }

    #[test]
    fn pre_cancelled_chase_is_all_residual_and_interrupted() {
        let mut db = Database::new();
        let program = coin_chain_program(4, 0.5, &mut db);
        let grounder = simple_for(&program, &db);
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = enumerate_outcomes_cancellable(
            &grounder,
            &ChaseBudget::default(),
            TriggerOrder::First,
            &cancel,
        )
        .unwrap();
        // The root is cut before grounding anything: no outcomes, the whole
        // unit of mass is residual, and the accounting invariant holds.
        assert!(result.outcomes.is_empty());
        assert!(result.interrupted);
        assert!(result.truncated);
        assert_eq!(result.residual_mass, Prob::ONE);
        assert_eq!(result.total_mass(), Prob::ONE);
        assert_eq!(result.nodes_visited, 1);
    }

    #[test]
    fn never_token_reproduces_the_uncancelled_chase() {
        let mut db = Database::new();
        let program = coin_chain_program(4, 0.5, &mut db);
        let grounder = simple_for(&program, &db);
        let plain =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let never = enumerate_outcomes_cancellable(
            &grounder,
            &ChaseBudget::default(),
            TriggerOrder::First,
            &CancelToken::never(),
        )
        .unwrap();
        assert!(!never.interrupted);
        assert!(plain.diff(&never).is_none());
    }

    #[test]
    fn mid_flight_cancellation_keeps_mass_accounting_exact() {
        // Cancel after the chase is already running (from a second thread,
        // racing real exploration): whatever prefix was explored, the
        // explored + residual invariant must hold exactly and the result
        // must be flagged interrupted.
        let mut db = Database::new();
        let program = coin_chain_program(12, 0.5, &mut db);
        let grounder = simple_for(&program, &db);
        let cancel = CancelToken::new();
        let flag = cancel.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            flag.cancel();
        });
        let result = enumerate_outcomes_cancellable(
            &grounder,
            &ChaseBudget::default(),
            TriggerOrder::First,
            &cancel,
        )
        .unwrap();
        canceller.join().unwrap();
        assert_eq!(result.total_mass(), Prob::ONE);
        // 2^12 outcomes under a 2ms deadline: the cut must land mid-tree on
        // any realistic machine; if the walk somehow finished first, the
        // invariants above still validated the uncancelled path.
        if result.interrupted {
            assert!(result.truncated);
            assert!(result.residual_mass.is_positive());
        }
    }

    #[test]
    fn scrambled_order_depends_on_the_trigger_atoms() {
        // Equal depth, equally many triggers, different atoms: the pick must
        // be derived from the atoms themselves, not just the counts.
        let sets: Vec<Vec<GroundAtom>> = (0..16)
            .map(|i| {
                vec![
                    GroundAtom::make("Active_Flip_1_1", vec![Const::Int(i), Const::Int(0)]),
                    GroundAtom::make("Active_Flip_1_1", vec![Const::Int(i), Const::Int(1)]),
                    GroundAtom::make("Active_Flip_1_1", vec![Const::Int(i), Const::Int(2)]),
                ]
            })
            .collect();
        let picks: std::collections::BTreeSet<usize> = sets
            .iter()
            .map(|triggers| TriggerOrder::Scrambled.pick(triggers, 3))
            .collect();
        assert!(
            picks.len() > 1,
            "equal-depth sibling nodes all picked position {picks:?}"
        );
        // Still deterministic per node.
        assert_eq!(
            TriggerOrder::Scrambled.pick(&sets[0], 3),
            TriggerOrder::Scrambled.pick(&sets[0], 3)
        );
    }

    /// Strict equality of chase results through the shared
    /// [`ChaseResult::diff`] definition.
    fn assert_bit_identical(a: &ChaseResult, b: &ChaseResult, label: &str) {
        if let Some(diff) = a.diff(b) {
            panic!("{label}: results differ: {diff}");
        }
    }

    #[test]
    fn parallel_enumeration_is_bit_identical_to_sequential() {
        let mut db = Database::new();
        let program = coin_chain_program(6, 0.5, &mut db);
        let chain = simple_for(&program, &db);
        let ring = simple_for(&network_resilience_program(0.1), &network_db(3));
        let grounders: [&dyn crate::grounding::Grounder; 2] = [&chain, &ring];
        for grounder in grounders {
            for order in [
                TriggerOrder::First,
                TriggerOrder::Last,
                TriggerOrder::Scrambled,
            ] {
                let sequential =
                    enumerate_outcomes(grounder, &ChaseBudget::default(), order).unwrap();
                // The chase ignores the executor, so one call stands for
                // every thread count.
                let exec = crate::exec::Executor::new(8);
                let parallel =
                    enumerate_outcomes_with(grounder, &ChaseBudget::default(), order, &exec)
                        .unwrap();
                assert_bit_identical(&sequential, &parallel, &format!("{order:?}"));
            }
        }
    }

    #[test]
    fn parallel_enumeration_replays_outcome_budget_truncation_exactly() {
        // max_outcomes = 1 prunes almost the whole tree sequentially; every
        // executor must reproduce that pruning — outcomes, residual *and*
        // the visited-node count. The p = 1/3 chain has inexact
        // (`Prob::Approx`) masses, so the residual additions must also
        // happen in the sequential order.
        let mut exact_db = Database::new();
        let exact = simple_for(&coin_chain_program(6, 0.5, &mut exact_db), &exact_db);
        let mut approx_db = Database::new();
        let approx = simple_for(
            &coin_chain_program(6, 1.0 / 3.0, &mut approx_db),
            &approx_db,
        );
        let full = enumerate_outcomes(&approx, &ChaseBudget::default(), TriggerOrder::First);
        assert!(
            !full.unwrap().outcomes[0].probability.is_exact(),
            "the p = 1/3 chain must carry inexact masses"
        );
        let grounders: [&dyn crate::grounding::Grounder; 2] = [&exact, &approx];
        for grounder in grounders {
            for budget in [
                ChaseBudget {
                    max_outcomes: 1,
                    ..ChaseBudget::default()
                },
                ChaseBudget {
                    max_outcomes: 5,
                    max_depth: 3,
                    max_branching: 2,
                    min_path_probability: 0.0,
                },
                ChaseBudget {
                    min_path_probability: 0.2,
                    ..ChaseBudget::default()
                },
            ] {
                let sequential =
                    enumerate_outcomes(grounder, &budget, TriggerOrder::First).unwrap();
                assert!(sequential.residual_mass.is_positive());
                let exec = crate::exec::Executor::new(8);
                let parallel =
                    enumerate_outcomes_with(grounder, &budget, TriggerOrder::First, &exec).unwrap();
                assert_bit_identical(&sequential, &parallel, &format!("{budget:?}"));
            }
        }
    }

    #[test]
    fn parallel_enumeration_accounts_branching_cuts_exactly() {
        // Countably infinite support: the branch tail must be accounted in
        // `Prob` identically under every executor.
        let grounder = simple_for(&geometric_program(), &Database::new());
        let coarse = ChaseBudget {
            max_branching: 4,
            ..ChaseBudget::default()
        };
        let sequential = enumerate_outcomes(&grounder, &coarse, TriggerOrder::First).unwrap();
        let exec = crate::exec::Executor::new(4);
        let parallel =
            enumerate_outcomes_with(&grounder, &coarse, TriggerOrder::First, &exec).unwrap();
        assert_bit_identical(&sequential, &parallel, "geometric cut");
        assert_eq!(parallel.residual_mass, Prob::ratio(1, 16));
        assert_eq!(parallel.total_mass(), Prob::ONE);
    }

    #[test]
    fn zero_outcome_budget_is_rejected() {
        let grounder = simple_for(&coin_program(), &Database::new());
        let bad = ChaseBudget {
            max_outcomes: 0,
            ..ChaseBudget::default()
        };
        assert!(matches!(
            enumerate_outcomes(&grounder, &bad, TriggerOrder::First),
            Err(CoreError::Budget(_))
        ));
    }

    #[test]
    fn non_probabilistic_programs_have_a_single_certain_outcome() {
        // A plain Datalog¬ program: the chase terminates immediately with the
        // empty choice set and probability 1.
        let program = crate::Program::new(network_resilience_program(0.1).rules()[1..2].to_vec());
        let mut db = Database::new();
        db.insert_fact("Router", [Const::Int(1)]);
        let grounder = simple_for(&program, &db);
        let result =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0].probability, Prob::ONE);
        assert_eq!(result.outcomes[0].choice_count(), 0);
        assert_eq!(result.nodes_visited, 1);
    }
}
