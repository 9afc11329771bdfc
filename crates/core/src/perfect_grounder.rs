//! The perfect grounder `GPerfect_Π` for stratified programs (Definition 5.1).
//!
//! For a GDatalog¬ₛ\[Δ\] program the predicates can be ordered into strata
//! `C₁, …, Cₙ` (a topological ordering of the SCCs of `dg(Π)`). The perfect
//! grounder processes the rules stratum by stratum with the `Perfect`
//! operator, which only instantiates a rule when its positive body is
//! derivable *and* none of its negative body atoms is derivable — negative
//! literals of a stratum-`i` rule only mention predicates of strictly lower
//! strata, whose extension is already complete, so the check is final.
//!
//! Compared to the simple grounder this avoids "superfluous" ground rules
//! (e.g. it never instantiates the quarter-tossing rule of Appendix E once
//! some dime shows tails), which is exactly why its semantics is *as good as*
//! any other grounder's on stratified programs (Theorem 5.3).

use crate::error::CoreError;
use crate::grounding::{AtrSet, GroundRuleSet, Grounder, Grounding};
use crate::simple_grounder::{saturate_cancellable, saturate_extending_cancellable};
use crate::translate::{SigmaPi, TgdRule};
use gdlog_data::{Database, Predicate};
use gdlog_engine::depgraph::{DependencyGraph, EdgeSign};
use gdlog_engine::CancelToken;
use std::collections::HashMap;
use std::sync::Arc;

/// Signature shared by the semi-naive saturation and the retained naive
/// reference, so the stratum loop is written once.
type SaturateFn<'a> =
    dyn Fn(&[&TgdRule], &AtrSet, GroundRuleSet, Option<&Database>) -> GroundRuleSet + 'a;

/// The perfect grounder. Construction fails if the program does not have
/// stratified negation.
#[derive(Clone)]
pub struct PerfectGrounder {
    sigma: Arc<SigmaPi>,
    /// Rule indices of `sigma.rules`, grouped by the stratum of the rule's
    /// originating head predicate, in bottom-up stratum order.
    rules_by_stratum: Vec<Vec<usize>>,
    /// Cooperative cancellation, polled per stratum and per saturation
    /// round; a cancelled grounding returns its partial rule set (the chase
    /// re-checks the token before trusting it).
    cancel: CancelToken,
}

impl PerfectGrounder {
    /// Build a perfect grounder for a translated program.
    pub fn new(sigma: Arc<SigmaPi>) -> Result<Self, CoreError> {
        // Reconstruct dg(Π[D]) over the *original* predicates: generated
        // Active/Result predicates are ignored (they are not part of sch(Π)).
        let mut graph = DependencyGraph::new();
        for p in sigma.original_schema() {
            graph.add_vertex(*p);
        }
        for rule in &sigma.rules {
            for a in &rule.pos {
                if sigma.original_schema().contains(&a.predicate) {
                    graph.add_edge(a.predicate, rule.origin_head, EdgeSign::Positive);
                }
            }
            for a in &rule.neg {
                graph.add_edge(a.predicate, rule.origin_head, EdgeSign::Negative);
            }
        }
        let stratification = graph.stratify()?;

        let stratum_of: HashMap<Predicate, usize> = stratification
            .strata()
            .iter()
            .enumerate()
            .flat_map(|(i, comp)| comp.iter().map(move |p| (*p, i)))
            .collect();
        let mut rules_by_stratum: Vec<Vec<usize>> = vec![Vec::new(); stratification.len()];
        for (idx, rule) in sigma.rules.iter().enumerate() {
            let stratum = *stratum_of
                .get(&rule.origin_head)
                .expect("every origin predicate is a vertex of dg(Π)");
            rules_by_stratum[stratum].push(idx);
        }
        Ok(PerfectGrounder {
            sigma,
            rules_by_stratum,
            cancel: CancelToken::never(),
        })
    }

    /// Number of strata.
    pub fn stratum_count(&self) -> usize {
        self.rules_by_stratum.len()
    }

    /// Ground with the retained naive saturation — the reference oracle kept
    /// for property tests and benchmarks; see [`crate::naive`].
    pub fn ground_naive(&self, atr: &AtrSet) -> GroundRuleSet {
        self.ground_strata(atr, GroundRuleSet::new(), 0, &crate::naive::saturate_naive)
            .into_rules()
    }

    /// The semi-naive per-stratum saturation, polling the grounder's cancel
    /// token once per round.
    fn saturate_stratum(
        &self,
        rules: &[&TgdRule],
        atr: &AtrSet,
        initial: GroundRuleSet,
        neg_reference: Option<&Database>,
    ) -> GroundRuleSet {
        saturate_cancellable(rules, atr, initial, neg_reference, &self.cancel)
    }

    /// The stratum-by-stratum grounding loop from stratum `from` on, over
    /// the rules `derived` of the strata below it. Returns the rules
    /// together with the *stratum cursor*: the number of strata whose
    /// saturation completed before `AtR_Σ` stopped being compatible (equal
    /// to the stratum count when the whole program was grounded).
    fn ground_strata(
        &self,
        atr: &AtrSet,
        mut derived: GroundRuleSet,
        from: usize,
        saturate_fn: &SaturateFn<'_>,
    ) -> Grounding {
        let mut cursor = from;
        for i in from..self.rules_by_stratum.len() {
            // Stratum boundaries are cancellation checkpoints too: stop with
            // the strata grounded so far (the chase re-checks the token).
            if self.cancel.is_cancelled() {
                break;
            }
            // Σ↑Cᵢ is only computed if AtR_Σ is compatible with Σ↑Cᵢ₋₁
            // (defined on every Active atom derived so far); otherwise the
            // grounding is stuck at the previous stratum.
            if !self.is_compatible(atr, &derived) {
                break;
            }
            cursor = i + 1;
            if self.rules_by_stratum[i].is_empty() {
                continue;
            }
            // Negative literals refer to strictly lower strata, whose
            // extension (the heads derived so far) is final. The snapshot is
            // an O(1) freeze, not a copy.
            let neg_reference = derived.heads_snapshot();
            derived = saturate_fn(&self.stratum_rules(i), atr, derived, Some(&neg_reference));
        }
        Grounding::with_cursor(derived, cursor)
    }

    fn stratum_rules(&self, stratum: usize) -> Vec<&TgdRule> {
        self.rules_by_stratum[stratum]
            .iter()
            .map(|&i| &self.sigma.rules[i])
            .collect()
    }
}

impl Grounder for PerfectGrounder {
    fn sigma(&self) -> &SigmaPi {
        &self.sigma
    }

    fn name(&self) -> &'static str {
        "perfect"
    }

    fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    fn ground(&self, atr: &AtrSet) -> GroundRuleSet {
        self.ground_node(atr).into_rules()
    }

    fn ground_node(&self, atr: &AtrSet) -> Grounding {
        self.ground_strata(atr, GroundRuleSet::new(), 0, &|r, a, i, n| {
            self.saturate_stratum(r, a, i, n)
        })
    }

    /// Incremental chase descent via the stratum cursor.
    ///
    /// `parent` must be `self.ground_node(parent_atr)` (or a snapshot of it)
    /// with `parent_atr ⊆ atr`, every choice in `atr \ parent_atr` being
    /// either a trigger of the parent or irrelevant (its `Active` atom not
    /// derivable) — exactly what the chase produces. Soundness of resuming at
    /// the last processed stratum `cursor - 1`:
    ///
    /// * every trigger of the parent was derived during its last processed
    ///   stratum (had it been derived earlier, the compatibility check would
    ///   have stopped the parent earlier), so the new choices can only
    ///   activate rules from that stratum upward;
    /// * strata below it are final: atoms of a predicate are only derived
    ///   while its own stratum is processed, so later activations cannot add
    ///   to them;
    /// * the parent's full head set is a valid negative reference for the
    ///   resumed stratum: its rules only negate predicates of strictly lower
    ///   strata, whose extension the head set carries completely and
    ///   finally.
    fn ground_from(&self, atr: &AtrSet, parent_atr: &AtrSet, parent: &mut Grounding) -> Grounding {
        let parent_cursor = parent.cursor();
        if parent_cursor == 0 {
            // The parent grounded nothing (no strata): nothing to resume.
            return self.ground_node(atr);
        }
        let snapshot = parent.snapshot();
        let mut derived = snapshot.into_rules();

        // Re-saturate the stratum the parent was stuck in, semi-naively:
        // only the Result atoms of the choices new to `atr` form the delta,
        // and the parent's head set (frozen, shared) is the fixed negative
        // reference.
        let resume = parent_cursor - 1;
        let neg_reference = derived.heads_snapshot();
        derived = saturate_extending_cancellable(
            &self.stratum_rules(resume),
            atr,
            derived,
            Some(&neg_reference),
            parent_atr,
            &self.cancel,
        );

        // Continue the normal stratum loop from where the parent stopped.
        self.ground_strata(atr, derived, parent_cursor, &|r, a, i, n| {
            self.saturate_stratum(r, a, i, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounding::AtrRule;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use crate::simple_grounder::SimpleGrounder;
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Database, GroundAtom, Predicate};
    use gdlog_prob::Prob;

    fn dime_db() -> Database {
        let mut db = Database::new();
        db.insert_fact("Dime", [Const::Int(1)]);
        db.insert_fact("Dime", [Const::Int(2)]);
        db.insert_fact("Quarter", [Const::Int(3)]);
        db
    }

    fn dime_grounder() -> PerfectGrounder {
        let sigma = SigmaPi::translate(&dime_quarter_program(), &dime_db()).unwrap();
        PerfectGrounder::new(Arc::new(sigma)).unwrap()
    }

    fn flip_active(sigma: &SigmaPi, id: i64) -> GroundAtom {
        let schema = &sigma.atr_schemas()[0];
        GroundAtom {
            predicate: schema.active,
            args: vec![Const::real(0.5).unwrap(), Const::Int(id)],
        }
    }

    #[test]
    fn non_stratified_programs_are_rejected() {
        let sigma = SigmaPi::translate(&coin_program(), &Database::new()).unwrap();
        assert!(matches!(
            PerfectGrounder::new(Arc::new(sigma)),
            Err(CoreError::NotStratified(_))
        ));
    }

    #[test]
    fn appendix_e_first_case_dime_one_tails() {
        // Σ: dime 1 shows tails (1), dime 2 shows heads (0).
        let grounder = dime_grounder();
        let sigma = grounder.sigma();
        let mut atr = AtrSet::new();
        atr.insert(AtrRule::new(sigma, flip_active(sigma, 1), Const::Int(1)).unwrap())
            .unwrap();
        atr.insert(AtrRule::new(sigma, flip_active(sigma, 2), Const::Int(0)).unwrap())
            .unwrap();

        let rules = grounder.ground(&atr);
        // The quarter rule is *not* instantiated: SomeDimeTail is derivable.
        let quarter_active: Vec<_> = rules
            .iter()
            .filter(|r| {
                r.head.predicate == sigma.atr_schemas()[0].active && r.head.args[1] == Const::Int(3)
            })
            .collect();
        assert!(quarter_active.is_empty(), "quarter must not be tossed");
        // SomeDimeTail is derived from DimeTail(1, 1).
        assert!(rules
            .iter()
            .any(|r| r.head.predicate == Predicate::new("SomeDimeTail", 0)));
        // Σ is terminal for the perfect grounder (Appendix E).
        assert!(grounder.is_terminal(&atr));

        // The simple grounder, in contrast, *does* instantiate the quarter
        // rule (negation is ignored), so the same Σ is not terminal for it.
        let simple = SimpleGrounder::new(Arc::new(sigma.clone()));
        assert!(!simple.is_terminal(&atr));
    }

    #[test]
    fn appendix_e_second_case_no_dime_tails() {
        // Σ: both dimes show heads — now the quarter must be tossed, so Σ is
        // not terminal (Active_Flip(0.5, 3) is an undefined trigger).
        let grounder = dime_grounder();
        let sigma = grounder.sigma();
        let mut atr = AtrSet::new();
        for d in [1i64, 2] {
            atr.insert(AtrRule::new(sigma, flip_active(sigma, d), Const::Int(0)).unwrap())
                .unwrap();
        }
        let rules = grounder.ground(&atr);
        assert!(!grounder.is_terminal(&atr));
        let triggers = grounder.triggers(&atr, &rules);
        assert_eq!(triggers, vec![flip_active(sigma, 3)]);

        // Extending with the quarter toss yields a terminal configuration of
        // probability 1/8.
        let full = atr
            .extended(AtrRule::new(sigma, flip_active(sigma, 3), Const::Int(1)).unwrap())
            .unwrap();
        assert!(grounder.is_terminal(&full));
        assert_eq!(full.probability(sigma).unwrap(), Prob::ratio(1, 8));
    }

    #[test]
    fn empty_choice_set_stops_at_the_dime_stratum() {
        // With no choices at all, the dime tosses are undefined triggers and
        // grounding stops before the SomeDimeTail / quarter strata.
        let grounder = dime_grounder();
        let rules = grounder.ground(&AtrSet::new());
        let triggers = grounder.triggers(&AtrSet::new(), &rules);
        assert_eq!(triggers.len(), 2);
        // No DimeTail rule can be instantiated yet.
        assert!(!rules
            .iter()
            .any(|r| r.head.predicate == Predicate::new("DimeTail", 2)));
    }

    #[test]
    fn perfect_produces_no_more_rules_than_simple() {
        let grounder = dime_grounder();
        let sigma = grounder.sigma();
        let simple = SimpleGrounder::new(Arc::new(sigma.clone()));
        let mut atr = AtrSet::new();
        atr.insert(AtrRule::new(sigma, flip_active(sigma, 1), Const::Int(1)).unwrap())
            .unwrap();
        atr.insert(AtrRule::new(sigma, flip_active(sigma, 2), Const::Int(0)).unwrap())
            .unwrap();
        let perfect_rules = grounder.ground(&atr);
        let simple_rules = simple.ground(&atr);
        assert!(perfect_rules.len() <= simple_rules.len());
        for rule in perfect_rules.iter() {
            assert!(simple_rules.contains(rule));
        }
    }

    #[test]
    fn perfect_grounder_is_monotone() {
        let grounder = dime_grounder();
        let sigma = grounder.sigma();
        let small = AtrSet::new()
            .extended(AtrRule::new(sigma, flip_active(sigma, 1), Const::Int(0)).unwrap())
            .unwrap();
        let large = small
            .extended(AtrRule::new(sigma, flip_active(sigma, 2), Const::Int(0)).unwrap())
            .unwrap();
        let g_small = grounder.ground(&small);
        let g_large = grounder.ground(&large);
        for rule in g_small.iter() {
            assert!(g_large.contains(rule));
        }
    }

    #[test]
    fn constraint_free_network_program_works_with_the_perfect_grounder() {
        // The full Example 3.1 program is not stratified because of the ⊥
        // desugaring; the propagation fragment (infection + Uninfected) is.
        let mut db = Database::new();
        for i in 1..=2i64 {
            db.insert_fact("Router", [Const::Int(i)]);
        }
        db.insert_fact("Connected", [Const::Int(1), Const::Int(2)]);
        db.insert_fact("Connected", [Const::Int(2), Const::Int(1)]);
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        let propagation =
            crate::program::Program::new(network_resilience_program(0.1).rules()[..2].to_vec());
        let sigma = SigmaPi::translate(&propagation, &db).unwrap();
        let grounder = PerfectGrounder::new(Arc::new(sigma)).unwrap();
        assert!(grounder.stratum_count() >= 4);
        let rules = grounder.ground(&AtrSet::new());
        assert_eq!(grounder.triggers(&AtrSet::new(), &rules).len(), 1);
    }
}
