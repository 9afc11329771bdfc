//! The retained **naive** saturation — the paper-literal reference oracle.
//!
//! Before the semi-naive refactor, the shared saturation loop of
//! `simple_grounder` executed Definition 3.4 verbatim: every round re-matched *all* rules
//! against the *entire* head set. That formulation is kept here, unchanged,
//! for two purposes:
//!
//! * **test oracle** — property tests assert that the semi-naive grounders
//!   produce exactly the same [`GroundRuleSet`] on random programs and AtR
//!   sets (see `tests/properties.rs` and the tests below), and
//! * **baseline** — `bench grounding` measures the speedup of the
//!   delta-driven loop against it.
//!
//! [`NaiveSimpleGrounder`] and [`NaivePerfectGrounder`] wrap the existing
//! grounders but route `ground` through the naive loop, so the whole chase /
//! output-space pipeline can be replayed against the oracle.

use crate::grounding::{AtrSet, GroundRuleSet, Grounder};
use crate::perfect_grounder::PerfectGrounder;
use crate::simple_grounder::SimpleGrounder;
use crate::translate::{SigmaPi, TgdRule};
use gdlog_data::{match_atoms, Database, GroundAtom};
use gdlog_engine::GroundRule;
use std::collections::HashSet;

/// The pre-refactor saturation loop: each round re-matches every rule
/// against the full head set, with candidate atoms filtered by predicate
/// only. Semantically identical to the semi-naive loop in
/// `simple_grounder`, asymptotically slower.
pub(crate) fn saturate_naive(
    rules: &[&TgdRule],
    atr: &AtrSet,
    initial: GroundRuleSet,
    neg_reference: Option<&Database>,
) -> GroundRuleSet {
    let mut derived = initial;
    let mut heads = derived.heads().clone();
    let mut included_atr: HashSet<GroundAtom> = HashSet::new();

    loop {
        let mut changed = false;

        // Activate AtR rules whose body is available.
        for atr_rule in atr.iter() {
            if !included_atr.contains(&atr_rule.active) && heads.contains(&atr_rule.active) {
                included_atr.insert(atr_rule.active.clone());
                if heads.insert(atr_rule.result.clone()) {
                    changed = true;
                }
            }
        }

        // One pass over the non-ground rules, against all heads.
        let mut new_rules: Vec<GroundRule> = Vec::new();
        for rule in rules {
            let homs = match_atoms(&rule.pos, |pattern| heads.candidates(pattern));
            for h in homs {
                let head = rule
                    .head
                    .apply_ground(&h)
                    .expect("safety guarantees the head grounds");
                let pos: Vec<GroundAtom> = rule
                    .pos
                    .iter()
                    .map(|a| a.apply_ground(&h).expect("matched atoms are ground"))
                    .collect();
                let neg: Vec<GroundAtom> = rule
                    .neg
                    .iter()
                    .map(|a| {
                        a.apply_ground(&h)
                            .expect("safety grounds negative literals")
                    })
                    .collect();
                if let Some(reference) = neg_reference {
                    if neg.iter().any(|a| reference.contains(a)) {
                        continue;
                    }
                }
                new_rules.push(GroundRule::new(head, pos, neg));
            }
        }
        for rule in new_rules {
            let head = rule.head.clone();
            if derived.push(rule) {
                heads.insert(head);
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }
    derived
}

/// [`SimpleGrounder`] with grounding routed through the naive loop.
#[derive(Clone)]
pub struct NaiveSimpleGrounder(pub SimpleGrounder);

impl Grounder for NaiveSimpleGrounder {
    fn sigma(&self) -> &SigmaPi {
        self.0.sigma()
    }

    fn name(&self) -> &'static str {
        "naive-simple"
    }

    fn ground(&self, atr: &AtrSet) -> GroundRuleSet {
        self.0.ground_naive(atr)
    }
}

/// [`PerfectGrounder`] with every stratum saturated by the naive loop.
#[derive(Clone)]
pub struct NaivePerfectGrounder(pub PerfectGrounder);

impl Grounder for NaivePerfectGrounder {
    fn sigma(&self) -> &SigmaPi {
        self.0.sigma()
    }

    fn name(&self) -> &'static str {
        "naive-perfect"
    }

    fn ground(&self, atr: &AtrSet) -> GroundRuleSet {
        self.0.ground_naive(atr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounding::AtrRule;
    use crate::join::JoinPlan;
    use crate::program::{dime_quarter_program, network_resilience_program};
    use crate::simple_grounder::saturate_cancellable;
    use crate::translate::SigmaPi;
    use gdlog_data::{Atom, Const, Predicate, Term};
    use gdlog_engine::CancelToken;
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

    #[test]
    fn seminaive_equals_naive_on_the_network_example() {
        let sigma =
            Arc::new(SigmaPi::translate(&network_resilience_program(0.1), &network_db(3)).unwrap());
        let grounder = SimpleGrounder::new(sigma.clone());

        // Empty choice set and a cascading one.
        let mut atr = AtrSet::new();
        assert_eq!(grounder.ground(&atr), grounder.ground_naive(&atr));
        let schema = &sigma.atr_schemas()[0];
        let p = Const::real(0.1).unwrap();
        for i in [2i64, 3] {
            let active = GroundAtom {
                predicate: schema.active,
                args: vec![p, Const::Int(1), Const::Int(i)],
            };
            atr.insert(AtrRule::new(&sigma, active, Const::Int(1)).unwrap())
                .unwrap();
        }
        assert_eq!(grounder.ground(&atr), grounder.ground_naive(&atr));
    }

    #[test]
    fn seminaive_equals_naive_on_the_stratified_example() {
        let mut db = Database::new();
        db.insert_fact("Dime", [Const::Int(1)]);
        db.insert_fact("Dime", [Const::Int(2)]);
        db.insert_fact("Quarter", [Const::Int(3)]);
        let sigma = Arc::new(SigmaPi::translate(&dime_quarter_program(), &db).unwrap());
        let grounder = PerfectGrounder::new(sigma.clone()).unwrap();

        let schema = &sigma.atr_schemas()[0];
        let mut atr = AtrSet::new();
        for (d, o) in [(1i64, 1i64), (2, 0)] {
            let active = GroundAtom {
                predicate: schema.active,
                args: vec![Const::real(0.5).unwrap(), Const::Int(d)],
            };
            atr.insert(AtrRule::new(&sigma, active, Const::Int(o)).unwrap())
                .unwrap();
        }
        assert_eq!(grounder.ground(&atr), grounder.ground_naive(&atr));
        assert_eq!(
            grounder.ground(&AtrSet::new()),
            grounder.ground_naive(&AtrSet::new())
        );
    }

    #[test]
    fn raw_saturation_loops_agree_on_handwritten_rules() {
        // A transitive-closure-style rule set exercised directly, including a
        // rule whose head feeds another rule (multi-round derivation).
        let fact = |a: i64, b: i64| TgdRule {
            pos: vec![],
            neg: vec![],
            head: Atom::make("E", vec![Term::int(a), Term::int(b)]),
            origin_head: Predicate::new("E", 2),
        };
        let rules_owned = [
            fact(1, 2),
            fact(2, 3),
            fact(3, 4),
            TgdRule {
                pos: vec![Atom::make("E", vec![Term::var("x"), Term::var("y")])],
                neg: vec![],
                head: Atom::make("T", vec![Term::var("x"), Term::var("y")]),
                origin_head: Predicate::new("T", 2),
            },
            TgdRule {
                pos: vec![
                    Atom::make("T", vec![Term::var("x"), Term::var("y")]),
                    Atom::make("E", vec![Term::var("y"), Term::var("z")]),
                ],
                neg: vec![],
                head: Atom::make("T", vec![Term::var("x"), Term::var("z")]),
                origin_head: Predicate::new("T", 2),
            },
        ];
        let rules: Vec<&TgdRule> = rules_owned.iter().collect();
        let plans: Vec<Arc<JoinPlan>> = rules_owned
            .iter()
            .map(|rule| Arc::new(JoinPlan::compile(rule)))
            .collect();
        let atr = AtrSet::new();
        let seminaive = saturate_cancellable(
            &plans,
            &atr,
            GroundRuleSet::new(),
            None,
            &CancelToken::never(),
        );
        let naive = saturate_naive(&rules, &atr, GroundRuleSet::new(), None);
        assert_eq!(seminaive, naive);
        // 3 E facts, 3 direct T rules, 2 + 1 transitive T rules.
        assert_eq!(seminaive.len(), 9);
    }
}
