//! The BCKOV semantics for positive generative Datalog (Appendix C).
//!
//! Bárány, ten Cate, Kimelfeld, Olteanu and Vagena \[3\] define the semantics
//! of *positive* GDatalog\[Δ\] programs directly over instances: a possible
//! outcome is a minimal model of the translated TGD program `Σ̃_Π` in which
//! every `Result` atom has positive probability. This module implements that
//! semantics as the **baseline** against which our grounder-based semantics
//! is compared: Theorem C.4 states that for positive programs whose simple
//! grounding is finite the two probability spaces are isomorphic, with the
//! isomorphism mapping a possible outcome to the unique stable model of its
//! ground program "modulo active" (i.e. after dropping the generated
//! `Active` atoms).

use crate::chase::{ChaseBudget, ChaseResult};
use crate::error::CoreError;
use crate::grounding::Grounder;
use crate::join::Bindings;
use crate::translate::SigmaPi;
use gdlog_data::{Database, GroundAtom};
use gdlog_engine::StableModelLimits;
use gdlog_prob::Prob;

/// A BCKOV possible outcome: an instance together with its probability.
#[derive(Clone, Debug)]
pub struct BckovOutcome {
    /// The minimal model (an instance over `sch(Π)` plus `Result` atoms).
    pub instance: Database,
    /// The product of the probabilities of its `Result` atoms.
    pub probability: Prob,
}

/// The output of the BCKOV semantics: the explored possible outcomes plus the
/// unexplored (residual) mass.
#[derive(Clone, Debug)]
pub struct BckovOutput {
    /// The explored possible outcomes.
    pub outcomes: Vec<BckovOutcome>,
    /// Mass of anything not explored within the budget.
    pub residual_mass: Prob,
    /// Did the enumeration hit the budget?
    pub truncated: bool,
}

impl BckovOutput {
    /// Total explored mass.
    pub fn explored_mass(&self) -> Prob {
        Prob::sum(self.outcomes.iter().map(|o| o.probability))
    }
}

/// Enumerate the BCKOV possible outcomes of a *positive* program.
///
/// The instance-level chase interleaves (i) saturating all existential-free
/// rules (a least-fixpoint step) and (ii) branching over the outcomes of an
/// unresolved `Active` requirement. Because the program is positive the
/// saturation is exactly the minimal-model construction of \[3\].
pub fn bckov_output(sigma: &SigmaPi, budget: &ChaseBudget) -> Result<BckovOutput, CoreError> {
    for rule in &sigma.rules {
        if !rule.neg.is_empty() {
            return Err(CoreError::Validation(
                "the BCKOV semantics is only defined for positive programs".to_owned(),
            ));
        }
    }
    let mut output = BckovOutput {
        outcomes: Vec::new(),
        residual_mass: Prob::ZERO,
        truncated: false,
    };
    explore_instance(sigma, budget, &Database::new(), Prob::ONE, 0, &mut output)?;
    Ok(output)
}

fn saturate_instance(sigma: &SigmaPi, start: &Database) -> Database {
    let mut instance = start.clone();
    let mut bindings = Bindings::default();
    let mut heads: Vec<GroundAtom> = Vec::new();
    loop {
        let mut added = false;
        for plan in sigma.plans() {
            plan.for_each_match(&mut bindings, &instance, None, |slots| {
                heads.push(plan.head(slots));
            });
            for head in heads.drain(..) {
                if instance.insert(head) {
                    added = true;
                }
            }
        }
        if !added {
            return instance;
        }
    }
}

fn unresolved_active(sigma: &SigmaPi, instance: &Database) -> Option<GroundAtom> {
    let mut candidates: Vec<GroundAtom> = instance
        .iter()
        .filter(|a| sigma.is_active_predicate(&a.predicate))
        .filter(|active| {
            let schema = sigma
                .schema_for_active(&active.predicate)
                .expect("registered");
            // Unresolved iff no Result atom with the same (p̄, q̄) prefix.
            !instance
                .atoms_of(&schema.result)
                .any(|r| r.args[..active.args.len()] == active.args[..])
        })
        .cloned()
        .collect();
    candidates.sort();
    candidates.into_iter().next()
}

fn explore_instance(
    sigma: &SigmaPi,
    budget: &ChaseBudget,
    start: &Database,
    path_prob: Prob,
    depth: usize,
    output: &mut BckovOutput,
) -> Result<(), CoreError> {
    let instance = saturate_instance(sigma, start);
    match unresolved_active(sigma, &instance) {
        None => {
            if output.outcomes.len() >= budget.max_outcomes {
                output.residual_mass = output.residual_mass.add(&path_prob);
                output.truncated = true;
                return Ok(());
            }
            // The BCKOV outcome is the instance *without* the auxiliary
            // Active atoms (they are an artefact of our shared translation;
            // the Σ̃ translation of Appendix C has no Active predicates).
            output.outcomes.push(BckovOutcome {
                instance: sigma.strip_active_only(&instance),
                probability: path_prob,
            });
            Ok(())
        }
        Some(active) => {
            if depth >= budget.max_depth {
                output.residual_mass = output.residual_mass.add(&path_prob);
                output.truncated = true;
                return Ok(());
            }
            let schema = sigma
                .schema_for_active(&active.predicate)
                .expect("registered");
            let branches = schema.outcomes(&active, budget.max_branching)?;
            let branch_mass = Prob::sum(branches.iter().map(|(_, p)| *p));
            let tail = path_prob.mul(&Prob::ONE.sub(&branch_mass));
            if tail.to_f64() > 1e-15 {
                output.residual_mass = output.residual_mass.add(&tail);
                output.truncated = true;
            }
            for (value, mass) in branches {
                let mut next = instance.clone();
                next.insert(schema.result_atom(&active, value));
                explore_instance(
                    sigma,
                    budget,
                    &next,
                    path_prob.mul(&mass),
                    depth + 1,
                    output,
                )?;
            }
            Ok(())
        }
    }
}

/// Check the isomorphism of Theorem C.4 between a grounder-based chase result
/// and the BCKOV output: the map sending a possible outcome `Σ ∪ G(Σ)` to its
/// unique stable model *modulo active* must be a probability-preserving
/// bijection onto the BCKOV possible outcomes.
pub fn isomorphic_to_bckov(
    grounder: &dyn Grounder,
    chase: &ChaseResult,
    bckov: &BckovOutput,
    limits: &StableModelLimits,
) -> Result<bool, CoreError> {
    let sigma = grounder.sigma();
    // Map each of our outcomes to (stable model modulo active, probability).
    let mut ours: Vec<(Vec<GroundAtom>, Prob)> = Vec::with_capacity(chase.outcomes.len());
    for outcome in &chase.outcomes {
        let models = outcome.stable_models(limits)?;
        if models.len() != 1 {
            return Ok(false);
        }
        let stripped = sigma.strip_active_only(&models[0]);
        ours.push((stripped.canonical_atoms(), outcome.probability));
    }
    let mut theirs: Vec<(Vec<GroundAtom>, Prob)> = bckov
        .outcomes
        .iter()
        .map(|o| (o.instance.canonical_atoms(), o.probability))
        .collect();
    if ours.len() != theirs.len() {
        return Ok(false);
    }
    ours.sort_by(|a, b| a.0.cmp(&b.0));
    theirs.sort_by(|a, b| a.0.cmp(&b.0));
    for ((m1, p1), (m2, p2)) in ours.iter().zip(theirs.iter()) {
        if m1 != m2 || !p1.approx_eq(p2, 1e-9) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{enumerate_outcomes, TriggerOrder};
    use crate::program::{network_resilience_program, Program};
    use crate::simple_grounder::SimpleGrounder;
    use gdlog_data::Const;
    use std::sync::Arc;

    /// The positive fragment of Example 3.1 (infection propagation only).
    fn positive_program() -> Program {
        Program::new(network_resilience_program(0.1).rules()[..1].to_vec())
    }

    fn line_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 1..=n {
            db.insert_fact("Router", [Const::Int(i)]);
        }
        for i in 1..n {
            db.insert_fact("Connected", [Const::Int(i), Const::Int(i + 1)]);
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        db
    }

    #[test]
    fn bckov_outcomes_of_a_line_network() {
        let sigma = SigmaPi::translate(&positive_program(), &line_db(3)).unwrap();
        let output = bckov_output(&sigma, &ChaseBudget::default()).unwrap();
        assert!(!output.truncated);
        assert_eq!(output.explored_mass(), Prob::ONE);
        // Outcomes: router 2 resists (0.9); router 2 infected & router 3
        // resists (0.1·0.9); both infected (0.1·0.1) → 3 outcomes.
        assert_eq!(output.outcomes.len(), 3);
        let mut probs: Vec<Prob> = output.outcomes.iter().map(|o| o.probability).collect();
        probs.sort_by(|a, b| a.to_f64().partial_cmp(&b.to_f64()).unwrap());
        assert_eq!(probs[0], Prob::ratio(1, 100));
        assert_eq!(probs[1], Prob::ratio(9, 100));
        assert_eq!(probs[2], Prob::ratio(9, 10));
    }

    #[test]
    fn bckov_rejects_programs_with_negation() {
        let sigma = SigmaPi::translate(&network_resilience_program(0.1), &line_db(2)).unwrap();
        assert!(bckov_output(&sigma, &ChaseBudget::default()).is_err());
    }

    #[test]
    fn theorem_c4_isomorphism_on_the_line_network() {
        let sigma = Arc::new(SigmaPi::translate(&positive_program(), &line_db(4)).unwrap());
        let grounder = SimpleGrounder::new(sigma.clone());
        let chase =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        let bckov = bckov_output(&sigma, &ChaseBudget::default()).unwrap();
        assert!(
            isomorphic_to_bckov(&grounder, &chase, &bckov, &StableModelLimits::default()).unwrap()
        );
        // Sanity: both sides explore the same number of outcomes and the same
        // total mass.
        assert_eq!(chase.outcomes.len(), bckov.outcomes.len());
        assert_eq!(chase.explored_mass(), bckov.explored_mass());
    }

    #[test]
    fn isomorphism_fails_when_probabilities_differ() {
        let sigma_01 = Arc::new(SigmaPi::translate(&positive_program(), &line_db(3)).unwrap());
        let grounder = SimpleGrounder::new(sigma_01.clone());
        let chase =
            enumerate_outcomes(&grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
        // BCKOV output of a *different* parameterisation (p = 0.5).
        let other_program = Program::new(network_resilience_program(0.5).rules()[..1].to_vec());
        let sigma_05 = SigmaPi::translate(&other_program, &line_db(3)).unwrap();
        let bckov = bckov_output(&sigma_05, &ChaseBudget::default()).unwrap();
        assert!(
            !isomorphic_to_bckov(&grounder, &chase, &bckov, &StableModelLimits::default()).unwrap()
        );
    }
}
