//! The simple grounder `GSimple_Π` (Definition 3.4).
//!
//! `GSimple_Π(Σ) = Simple^∞_{Σ′}(∅) \ Σ` with `Σ′ = Σ∄_Π ∪ Σ`, where the
//! `Simple` operator extends a set of ground rules with every homomorphic
//! image `h(σ)` of a rule `σ` whose *positive* body atoms are matched by head
//! atoms derived so far. Negative literals are carried along but **not**
//! inspected — that is exactly what makes the simple grounder correct for
//! arbitrary programs (Proposition 3.5) at the price of producing superfluous
//! rules for stratified ones (Section 5).

use crate::grounding::{AtrRule, AtrSet, GroundRuleSet, Grounder};
use crate::translate::{SigmaPi, TgdRule};
use gdlog_data::{match_atoms_delta, match_atoms_indexed, Database, GroundAtom, Substitution};
use gdlog_engine::{CancelToken, GroundRule};
use std::sync::Arc;

/// The simple grounder.
#[derive(Clone)]
pub struct SimpleGrounder {
    sigma: Arc<SigmaPi>,
    /// Cooperative cancellation, polled once per saturation round. A
    /// cancelled saturation returns its partial rule set; the chase re-checks
    /// the token after grounding, so the partial set is never trusted.
    cancel: CancelToken,
}

impl SimpleGrounder {
    /// Build a simple grounder for a translated program.
    pub fn new(sigma: Arc<SigmaPi>) -> Self {
        SimpleGrounder {
            sigma,
            cancel: CancelToken::never(),
        }
    }

    /// Ground with the retained naive (non-semi-naive) saturation — the
    /// reference oracle kept for property tests and benchmarks; see
    /// [`crate::naive`].
    pub fn ground_naive(&self, atr: &AtrSet) -> GroundRuleSet {
        let rules: Vec<&TgdRule> = self.sigma.rules.iter().collect();
        crate::naive::saturate_naive(&rules, atr, GroundRuleSet::new(), None)
    }

    /// Incremental grounding for chase descent: `parent_rules` must be a
    /// snapshot of `self.ground(parent_atr)` with `parent_atr ⊆ atr`. By
    /// monotonicity of the simple grounder the result equals
    /// `self.ground(atr)`, but saturation starts from the parent's rules
    /// (shared structurally, not copied), whose head set already holds the
    /// `Result` atoms of the parent's activated choices; only the choices
    /// `parent_atr` does not define can seed the first delta, so the work is
    /// proportional to what the new choices unlock.
    pub fn ground_extending(
        &self,
        atr: &AtrSet,
        parent_atr: &AtrSet,
        parent_rules: GroundRuleSet,
    ) -> GroundRuleSet {
        let rules: Vec<&TgdRule> = self.sigma.rules.iter().collect();
        saturate_extending_cancellable(&rules, atr, parent_rules, None, parent_atr, &self.cancel)
    }
}

impl Grounder for SimpleGrounder {
    fn sigma(&self) -> &SigmaPi {
        &self.sigma
    }

    fn name(&self) -> &'static str {
        "simple"
    }

    fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    fn ground(&self, atr: &AtrSet) -> GroundRuleSet {
        let rules: Vec<&TgdRule> = self.sigma.rules.iter().collect();
        saturate_cancellable(&rules, atr, GroundRuleSet::new(), None, &self.cancel)
    }

    fn ground_from(
        &self,
        atr: &AtrSet,
        parent_atr: &AtrSet,
        parent: &mut crate::grounding::Grounding,
    ) -> crate::grounding::Grounding {
        let snapshot = parent.snapshot();
        crate::grounding::Grounding::new(self.ground_extending(
            atr,
            parent_atr,
            snapshot.into_rules(),
        ))
    }
}

/// Instantiate `rule` under the homomorphism `h` and add it to `new_rules`
/// unless a negative body atom is contradicted by `neg_reference`.
fn instantiate(
    rule: &TgdRule,
    h: &Substitution,
    neg_reference: Option<&Database>,
    new_rules: &mut Vec<GroundRule>,
) {
    let head = rule
        .head
        .apply_ground(h)
        .expect("safety guarantees the head grounds");
    let pos: Vec<GroundAtom> = rule
        .pos
        .iter()
        .map(|a| a.apply_ground(h).expect("matched atoms are ground"))
        .collect();
    let neg: Vec<GroundAtom> = rule
        .neg
        .iter()
        .map(|a| a.apply_ground(h).expect("safety grounds negative literals"))
        .collect();
    if let Some(reference) = neg_reference {
        if neg.iter().any(|a| reference.contains(a)) {
            return;
        }
    }
    new_rules.push(GroundRule::new(head, pos, neg));
}

/// Saturate `initial` under the choices of `atr` with the shared loop
/// [`saturate_impl`]; `initial` must be empty or the output of an earlier
/// saturation under `atr` (the perfect grounder's lower strata), whose
/// activated choices then already carry their `Result` atoms.
pub(crate) fn saturate_cancellable(
    rules: &[&TgdRule],
    atr: &AtrSet,
    initial: GroundRuleSet,
    neg_reference: Option<&Database>,
    cancel: &CancelToken,
) -> GroundRuleSet {
    saturate_impl(rules, initial, neg_reference, None, cancel, choices_of(atr))
}

/// [`saturate_cancellable`] for an `initial` set that is already saturated
/// under `parent_atr ⊆ atr`, with the `Result` atoms of the choices it
/// activated in its head set (as every saturation leaves them): the full
/// round 0 is skipped and only the `Result` atoms of the choices
/// `parent_atr` does not define, activated by `initial`'s heads, form the
/// first delta.
pub(crate) fn saturate_extending_cancellable(
    rules: &[&TgdRule],
    atr: &AtrSet,
    mut initial: GroundRuleSet,
    neg_reference: Option<&Database>,
    parent_atr: &AtrSet,
    cancel: &CancelToken,
) -> GroundRuleSet {
    let mut seed = Database::new();
    for choice in atr.iter().filter(|c| !parent_atr.is_defined_on(&c.active)) {
        if initial.heads().contains(&choice.active) && initial.insert_head(choice.result.clone()) {
            seed.insert(choice.result.clone());
        }
    }
    saturate_impl(
        rules,
        initial,
        neg_reference,
        Some(seed),
        cancel,
        choices_of(atr),
    )
}

/// The grounders' activation step: each new head atom is looked up in `atr`
/// (one lookup each), and the `Result` atoms of the choices found join in
/// `Active`-atom order.
fn choices_of(atr: &AtrSet) -> impl FnMut(&Database, &Database, &mut Vec<GroundAtom>) -> bool + '_ {
    move |_, new_heads, results| {
        let mut activated: Vec<&AtrRule> = new_heads.iter().filter_map(|h| atr.get(h)).collect();
        activated.sort();
        results.extend(activated.into_iter().map(|choice| choice.result.clone()));
        true
    }
}

/// The one saturation loop, shared by both grounders and by the factor
/// analysis's universe, evaluated **semi-naively**: after an initial full
/// round, a rule is only re-matched through body positions that can consume
/// an atom derived in the previous round (the *delta*), with the remaining
/// positions answered by the indexed head set. Instantiations whose body
/// atoms are all old are never re-derived, so the total matching work is
/// proportional to the newly derived facts rather than
/// `rounds × rules × |heads|^arity`.
///
/// Starting from `initial` (already-derived ground rules), repeatedly add
/// every ground instance `h(σ)` of a rule in `rules` whose positive body is
/// contained in the current head set; when `neg_reference` is `Some(db)` a
/// rule instance is only added if none of its (ground) negative body atoms
/// occurs in `db` (the `Perfect` operator), otherwise negative literals are
/// ignored (the `Simple` operator). A `Some(delta)` skips the full round 0:
/// `initial` is then already saturated apart from the atoms of `delta`.
///
/// Once per round, `activate(heads, new_heads, results)` sees the head set
/// and the round's new head atoms and appends to `results` the `Result`
/// atoms that the new `Active` atoms activate; those join the head set
/// itself (see [`GroundRuleSet::insert_head`]) and the next delta. The
/// grounders activate the choices of Σ ([`saturate_cancellable`]); the
/// factor analysis expands every `Active` atom to its outcomes. Returning
/// `false` stops the saturation with what it derived so far.
///
/// The retained naive formulation lives in [`crate::naive`]; property tests
/// assert both produce identical [`GroundRuleSet`]s.
///
/// The loop polls the [`CancelToken`] once per round; a cancelled saturation
/// breaks out early and returns whatever it derived so far, so callers (the
/// chase) must re-check the token before trusting the result. Pass
/// [`CancelToken::never`] for an uninterruptible saturation.
pub(crate) fn saturate_impl<A>(
    rules: &[&TgdRule],
    initial: GroundRuleSet,
    neg_reference: Option<&Database>,
    mut delta: Option<Database>,
    cancel: &CancelToken,
    mut activate: A,
) -> GroundRuleSet
where
    A: FnMut(&Database, &Database, &mut Vec<GroundAtom>) -> bool,
{
    let mut derived = initial;
    let mut results: Vec<GroundAtom> = Vec::new();
    loop {
        // A saturation round is the grounding checkpoint: break out with the
        // partial rule set; the chase re-checks the token and cuts the node.
        if cancel.is_cancelled() {
            break;
        }
        let heads = derived.heads();
        let mut new_rules: Vec<GroundRule> = Vec::new();
        match &delta {
            None => {
                for rule in rules {
                    for h in match_atoms_indexed(&rule.pos, heads) {
                        instantiate(rule, &h, neg_reference, &mut new_rules);
                    }
                }
            }
            Some(delta) => {
                for rule in rules {
                    // A new instantiation must consume at least one delta
                    // atom in some positive body position; enumerate each
                    // position as the delta-constrained one.
                    for delta_idx in 0..rule.pos.len() {
                        for h in match_atoms_delta(&rule.pos, delta_idx, heads, delta) {
                            instantiate(rule, &h, neg_reference, &mut new_rules);
                        }
                    }
                }
            }
        }

        // Integrate the round: new head atoms form the next delta, together
        // with the Result atoms they activate.
        let mut next_delta = Database::new();
        for rule in new_rules {
            if !derived.heads().contains(&rule.head) {
                next_delta.insert(rule.head.clone());
            }
            derived.push(rule);
        }
        if !activate(derived.heads(), &next_delta, &mut results) {
            break;
        }
        for result in results.drain(..) {
            if derived.insert_head(result.clone()) {
                next_delta.insert(result);
            }
        }

        if next_delta.is_empty() {
            break;
        }
        delta = Some(next_delta);
    }
    derived
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{coin_program, network_resilience_program};
    use crate::translate::SigmaPi;
    use gdlog_data::{Const, Predicate};

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

    fn network_grounder() -> SimpleGrounder {
        let sigma = SigmaPi::translate(&network_resilience_program(0.1), &network_db()).unwrap();
        SimpleGrounder::new(Arc::new(sigma))
    }

    #[test]
    fn example_3_6_empty_choice_set() {
        let grounder = network_grounder();
        let rules = grounder.ground(&AtrSet::new());
        let sigma = grounder.sigma();
        let active_pred = sigma.atr_schemas()[0].active;

        // GSimple(∅) contains the two Active rules for router 1's neighbours
        // (Example 3.6) and no Result-consuming Infected rules yet.
        let active_heads: Vec<_> = rules
            .iter()
            .filter(|r| r.head.predicate == active_pred)
            .collect();
        assert_eq!(active_heads.len(), 2);

        let infected_rules: Vec<_> = rules
            .iter()
            .filter(|r| r.head.predicate == Predicate::new("Infected", 2) && !r.pos.is_empty())
            .collect();
        assert!(infected_rules.is_empty());

        // The Uninfected rules for all three routers are present (negation is
        // not inspected by the simple grounder).
        let uninfected: Vec<_> = rules
            .iter()
            .filter(|r| r.head.predicate == Predicate::new("Uninfected", 1))
            .collect();
        assert_eq!(uninfected.len(), 3);

        // ∅ is not terminal: the two Active atoms are triggers.
        assert!(!grounder.is_terminal(&AtrSet::new()));
        assert_eq!(grounder.triggers(&AtrSet::new(), &rules).len(), 2);
    }

    #[test]
    fn example_3_6_full_choice_set_is_terminal() {
        let grounder = network_grounder();
        let sigma = grounder.sigma();
        let schema = &sigma.atr_schemas()[0];
        let p = Const::real(0.1).unwrap();

        // Both neighbours stay uninfected (outcome 0) — the Σ of Example 3.6.
        let mut atr = AtrSet::new();
        for i in [2i64, 3] {
            let active = GroundAtom {
                predicate: schema.active,
                args: vec![p, Const::Int(1), Const::Int(i)],
            };
            atr.insert(AtrRule::new(sigma, active, Const::Int(0)).unwrap())
                .unwrap();
        }
        let rules = grounder.ground(&atr);
        assert!(grounder.is_compatible(&atr, &rules));
        assert!(grounder.is_terminal(&atr));
        assert!(grounder.triggers(&atr, &rules).is_empty());

        // The grounding now contains the Result-consuming rules deriving
        // Infected(2, 0) and Infected(3, 0).
        let infected_rules: Vec<_> = rules
            .iter()
            .filter(|r| r.head.predicate == Predicate::new("Infected", 2) && !r.pos.is_empty())
            .collect();
        assert_eq!(infected_rules.len(), 2);

        // Pr(Σ) = 0.9² = 0.81 (Example 3.10).
        assert_eq!(
            atr.probability(sigma).unwrap(),
            gdlog_prob::Prob::ratio(81, 100)
        );
    }

    #[test]
    fn infection_cascade_extends_the_grounding() {
        // If router 2 becomes infected, new Active atoms for its neighbours
        // appear (monotonicity of the grounder).
        let grounder = network_grounder();
        let sigma = grounder.sigma();
        let schema = &sigma.atr_schemas()[0];
        let p = Const::real(0.1).unwrap();

        let active_12 = GroundAtom {
            predicate: schema.active,
            args: vec![p, Const::Int(1), Const::Int(2)],
        };
        let atr = AtrSet::new()
            .extended(AtrRule::new(sigma, active_12, Const::Int(1)).unwrap())
            .unwrap();
        let rules = grounder.ground(&atr);
        // Router 2 is now infected, so Active atoms for (2,1) and (2,3) are
        // derived; (2,1) and (2,3) are new triggers along with (1,3).
        let triggers = grounder.triggers(&atr, &rules);
        assert_eq!(triggers.len(), 3);
        assert!(!grounder.is_terminal(&atr));
    }

    #[test]
    fn grounder_is_monotone() {
        let grounder = network_grounder();
        let sigma = grounder.sigma();
        let schema = &sigma.atr_schemas()[0];
        let p = Const::real(0.1).unwrap();
        let active_12 = GroundAtom {
            predicate: schema.active,
            args: vec![p, Const::Int(1), Const::Int(2)],
        };

        let small = AtrSet::new();
        let large = AtrSet::new()
            .extended(AtrRule::new(sigma, active_12, Const::Int(1)).unwrap())
            .unwrap();
        let g_small = grounder.ground(&small);
        let g_large = grounder.ground(&large);
        for rule in g_small.iter() {
            assert!(g_large.contains(rule), "monotonicity violated for {rule}");
        }
        assert!(g_large.len() >= g_small.len());
    }

    #[test]
    fn coin_program_grounding() {
        let sigma = SigmaPi::translate(&coin_program(), &Database::new()).unwrap();
        let grounder = SimpleGrounder::new(Arc::new(sigma));
        let rules = grounder.ground(&AtrSet::new());
        // The bodyless Active rule is always present; the single trigger is
        // the coin flip itself.
        assert_eq!(grounder.triggers(&AtrSet::new(), &rules).len(), 1);

        let sigma = grounder.sigma();
        let schema = &sigma.atr_schemas()[0];
        let active = GroundAtom {
            predicate: schema.active,
            args: vec![Const::real(0.5).unwrap()],
        };
        let tails = AtrSet::new()
            .extended(AtrRule::new(sigma, active.clone(), Const::Int(1)).unwrap())
            .unwrap();
        let rules = grounder.ground(&tails);
        assert!(grounder.is_terminal(&tails));
        // Coin(1) is derivable, so the Aux1/Aux2 rules are instantiated.
        assert!(rules
            .iter()
            .any(|r| r.head.predicate == Predicate::new("Aux1", 0)));
        assert!(rules
            .iter()
            .any(|r| r.head.predicate == Predicate::new("Aux2", 0)));

        // Full program includes the AtR rule itself.
        let full = grounder.full_program(&tails);
        assert_eq!(full.len(), rules.len() + 1);
    }
}
