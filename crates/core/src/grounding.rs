//! Grounders for generative Datalog¬ (Definition 3.3).
//!
//! A *configuration of probabilistic choices* is a functionally consistent
//! set of ground active-to-result TGDs ([`AtrSet`]): for every ground
//! `Active` atom at most one outcome. A [`Grounder`] maps each such set `Σ`
//! to a set of ground, existential-free TGD¬ rules `G(Σ) ⊆ ground(Σ∄_Π)`
//! such that, whenever `AtR_Σ` is compatible with `G(Σ)` (defined on every
//! `Active` atom occurring in `heads(G(Σ))`), the stable models of
//! `G(Σ) ∪ Σ` are exactly those of `Σ∄_Π ∪ Σ′` for every totalizer `Σ′` of
//! `AtR_Σ`.

use crate::error::CoreError;
use crate::translate::SigmaPi;
use gdlog_data::{Const, Database, GroundAtom};
use gdlog_engine::{GroundProgram, GroundRule};
use gdlog_prob::Prob;
use std::fmt;
use std::sync::Arc;

/// The ground rules produced by a grounder: a subset of `ground(Σ∄_Π)`.
pub type GroundRuleSet = GroundProgram;

/// The grounding of one chase node: the rule set `G(Σ)` together with the
/// grounder-specific resumption state that makes descending to a child node
/// incremental.
///
/// For the perfect grounder the cursor is the number of strata whose
/// saturation completed; a child resumes at the stratum the parent was stuck
/// in (triggers are always derived in the last processed stratum, so a new
/// choice can only activate rules from that stratum upward — completed lower
/// strata are final by stratification). The simple grounder has a single
/// saturation and ignores the cursor.
#[derive(Clone, Debug)]
pub struct Grounding {
    rules: GroundRuleSet,
    cursor: usize,
}

impl Grounding {
    /// Wrap a rule set with no resumption state.
    pub fn new(rules: GroundRuleSet) -> Self {
        Grounding { rules, cursor: 0 }
    }

    /// Wrap a rule set with an explicit resumption cursor.
    pub fn with_cursor(rules: GroundRuleSet, cursor: usize) -> Self {
        Grounding { rules, cursor }
    }

    /// The ground rules `G(Σ)`.
    pub fn rules(&self) -> &GroundRuleSet {
        &self.rules
    }

    /// The grounder-specific resumption cursor.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Unwrap into the plain rule set.
    pub fn into_rules(self) -> GroundRuleSet {
        self.rules
    }

    /// An O(1) structurally shared copy: the rule log and head set are
    /// frozen into `Arc`-shared frames (see [`GroundProgram::snapshot`]) and
    /// the cursor is carried over. Every chase sibling extends such a
    /// snapshot instead of a deep clone of the parent's grounding.
    pub fn snapshot(&mut self) -> Grounding {
        Grounding {
            rules: self.rules.snapshot(),
            cursor: self.cursor,
        }
    }
}

/// A ground active-to-result TGD `Active(p̄, q̄) → Result(p̄, q̄, o)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AtrRule {
    /// The ground `Active` atom (the trigger).
    pub active: GroundAtom,
    /// The chosen outcome `o`.
    pub outcome: Const,
    /// The ground `Result` atom (`active`'s arguments followed by `outcome`).
    pub result: GroundAtom,
}

impl AtrRule {
    /// Build an AtR rule from an `Active` atom and an outcome, using the
    /// schema registry to produce the `Result` atom.
    pub fn new(sigma: &SigmaPi, active: GroundAtom, outcome: Const) -> Result<Self, CoreError> {
        let schema = sigma.schema_for_active(&active.predicate).ok_or_else(|| {
            CoreError::Validation(format!(
                "{} is not an Active predicate of this program",
                active.predicate
            ))
        })?;
        let result = schema.result_atom(&active, outcome);
        Ok(AtrRule {
            active,
            outcome,
            result,
        })
    }

    /// View the AtR rule as a ground rule `active → result` (used when
    /// assembling the full program `G(Σ) ∪ Σ` whose stable models are
    /// computed).
    pub fn to_ground_rule(&self) -> GroundRule {
        GroundRule::new(self.result.clone(), vec![self.active.clone()], vec![])
    }

    /// The probability `δ⟨p̄⟩(o)` of this choice.
    pub fn probability(&self, sigma: &SigmaPi) -> Result<Prob, CoreError> {
        let schema = sigma
            .schema_for_active(&self.active.predicate)
            .ok_or_else(|| {
                CoreError::Validation(format!(
                    "unknown Active predicate {}",
                    self.active.predicate
                ))
            })?;
        Ok(schema.outcome_probability(&self.active, &self.outcome)?)
    }
}

impl fmt::Display for AtrRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}.", self.active, self.result)
    }
}

/// A functionally consistent set of ground AtR TGDs — an element of
/// `[2^ground(Σ∃_Π)]^=` in the paper's notation.
///
/// The choices are kept sorted by their `Active` atom, each behind an
/// `Arc`: a chase child's set ([`AtrSet::extended`]) shares every choice of
/// its parent and copies pointers, not atoms.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct AtrSet {
    rules: Vec<Arc<AtrRule>>,
}

impl AtrSet {
    /// The empty choice set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the choice for `active` is, or would be inserted.
    fn find(&self, active: &GroundAtom) -> Result<usize, usize> {
        self.rules.binary_search_by(|r| r.active.cmp(active))
    }

    /// Insert a choice. Returns `Ok(true)` if it was new, `Ok(false)` if the
    /// identical choice was already present, and an error if a *different*
    /// outcome was already chosen for the same `Active` atom (which would
    /// violate functional consistency).
    pub fn insert(&mut self, rule: AtrRule) -> Result<bool, CoreError> {
        match self.find(&rule.active) {
            Ok(i) if self.rules[i].outcome == rule.outcome => Ok(false),
            Ok(i) => Err(CoreError::Validation(format!(
                "inconsistent choices for {}: {} vs {}",
                rule.active, self.rules[i].outcome, rule.outcome
            ))),
            Err(i) => {
                self.rules.insert(i, Arc::new(rule));
                Ok(true)
            }
        }
    }

    /// A copy of this set extended with one more choice; the copy shares
    /// this set's choices.
    pub fn extended(&self, rule: AtrRule) -> Result<AtrSet, CoreError> {
        let mut rules = Vec::with_capacity(self.rules.len() + 1);
        rules.extend(self.rules.iter().cloned());
        let mut next = AtrSet { rules };
        next.insert(rule)?;
        Ok(next)
    }

    /// Is the partial function `AtR_Σ` defined on this `Active` atom?
    pub fn is_defined_on(&self, active: &GroundAtom) -> bool {
        self.find(active).is_ok()
    }

    /// The outcome chosen for an `Active` atom, if any.
    pub fn outcome_of(&self, active: &GroundAtom) -> Option<&Const> {
        self.get(active).map(|r| &r.outcome)
    }

    /// The choice made for an `Active` atom, if any.
    pub fn get(&self, active: &GroundAtom) -> Option<&AtrRule> {
        self.find(active).ok().map(|i| &*self.rules[i])
    }

    /// Number of choices.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterate over the AtR rules in a canonical order (by `Active` atom).
    pub fn iter(&self) -> impl Iterator<Item = &AtrRule> {
        self.rules.iter().map(|r| &**r)
    }

    /// The `Result` atoms of the set (its head atoms).
    pub fn result_atoms(&self) -> Database {
        Database::from_atoms(self.iter().map(|r| r.result.clone()))
    }

    /// The set as ground rules `active → result`.
    pub fn to_ground_rules(&self) -> Vec<GroundRule> {
        self.iter().map(AtrRule::to_ground_rule).collect()
    }

    /// Is `self ⊆ other`?
    pub fn is_subset_of(&self, other: &AtrSet) -> bool {
        self.iter().all(|r| {
            other
                .outcome_of(&r.active)
                .map(|o| *o == r.outcome)
                .unwrap_or(false)
        })
    }

    /// The probability `Pr(Σ)` of the configuration: the product of the
    /// probabilities of its choices (Definition 3.7 / the probability measure
    /// of Definition 3.8).
    pub fn probability(&self, sigma: &SigmaPi) -> Result<Prob, CoreError> {
        let mut p = Prob::ONE;
        for r in self.iter() {
            p = p.mul(&r.probability(sigma)?);
        }
        Ok(p)
    }

    /// A canonical listing of the choices, usable as a hash/ordering key.
    pub fn canonical(&self) -> Vec<AtrRule> {
        self.iter().cloned().collect()
    }
}

impl fmt::Display for AtrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// A grounder of a program `Π[D]` (Definition 3.3).
///
/// `Send + Sync` is a supertrait: Monte-Carlo shares one grounder across
/// the worker threads of its walk chunks (grounders are immutable views of
/// an `Arc<SigmaPi>`; all per-node state lives in the [`Grounding`] values
/// they return, which are owned by exactly one walk or chase subtree each).
pub trait Grounder: Send + Sync {
    /// The translated program this grounder was built for.
    fn sigma(&self) -> &SigmaPi;

    /// A short human-readable name ("simple", "perfect").
    fn name(&self) -> &'static str;

    /// Install a cooperative [`gdlog_engine::CancelToken`] polled at
    /// saturation-round boundaries. A cancelled grounder may return
    /// *partial* rule sets from then on, so callers must re-check the token
    /// before trusting any grounding produced after installation. The
    /// default ignores the token (grounding stays uninterruptible).
    fn set_cancel(&mut self, cancel: gdlog_engine::CancelToken) {
        let _ = cancel;
    }

    /// Compute `G(Σ)`: the ground existential-free rules induced by the
    /// choice set `Σ`.
    fn ground(&self, atr: &AtrSet) -> GroundRuleSet;

    /// Compute `G(Σ)` as a chase node: the rules plus whatever resumption
    /// state the grounder needs to descend incrementally. The default wraps
    /// [`Grounder::ground`] with no state.
    fn ground_node(&self, atr: &AtrSet) -> Grounding {
        Grounding::new(self.ground(atr))
    }

    /// Compute `G(Σ)` given the grounding of a sub-configuration
    /// `parent_atr ⊆ Σ` (the chase descends by extending configurations one
    /// choice at a time, so the parent grounding is always at hand). The
    /// parent is borrowed mutably so implementations can take an O(1)
    /// structural snapshot ([`Grounding::snapshot`]) to extend — the
    /// parent's *contents* are never changed. The default recomputes from
    /// scratch; grounders with an incremental saturation override this.
    fn ground_from(&self, atr: &AtrSet, parent_atr: &AtrSet, parent: &mut Grounding) -> Grounding {
        let _ = (parent_atr, parent);
        self.ground_node(atr)
    }

    /// Is `AtR_Σ` compatible with `rules` (`AtR_Σ ↩→ rules`): defined on every
    /// `Active` atom occurring in `heads(rules)`?
    fn is_compatible(&self, atr: &AtrSet, rules: &GroundRuleSet) -> bool {
        active_atoms(self.sigma(), rules).all(|a| atr.is_defined_on(a))
    }

    /// Is `Σ` a terminal of this grounder (`Σ ∈ terminals(G)`)?
    fn is_terminal(&self, atr: &AtrSet) -> bool {
        let rules = self.ground(atr);
        self.is_compatible(atr, &rules)
    }

    /// The `Active` atoms occurring in `heads(rules)`, cloned. The default
    /// [`Grounder::is_compatible`] and [`Grounder::triggers`] borrow them
    /// instead and clone only the triggers they return.
    fn active_heads(&self, rules: &GroundRuleSet) -> Vec<GroundAtom> {
        active_atoms(self.sigma(), rules).cloned().collect()
    }

    /// The triggers for `rules` on `Σ` (Definition 4.1): `Active` atoms in
    /// `heads(rules)` on which `AtR_Σ` is not yet defined, in a canonical
    /// order.
    fn triggers(&self, atr: &AtrSet, rules: &GroundRuleSet) -> Vec<GroundAtom> {
        let mut out: Vec<&GroundAtom> = active_atoms(self.sigma(), rules)
            .filter(|a| !atr.is_defined_on(a))
            .collect();
        out.sort();
        out.dedup();
        out.into_iter().cloned().collect()
    }

    /// The full ground program `G(Σ) ∪ Σ` whose stable models define the
    /// outcome's semantics.
    fn full_program(&self, atr: &AtrSet) -> GroundProgram {
        let mut program = self.ground(atr);
        program.extend(atr.to_ground_rules());
        program
    }
}

/// The `Active` atoms in `heads(rules)`, borrowed: read from the head set's
/// per-predicate relations instead of scanning every head atom.
fn active_atoms<'a>(
    sigma: &'a SigmaPi,
    rules: &'a GroundRuleSet,
) -> impl Iterator<Item = &'a GroundAtom> {
    let heads = rules.heads();
    sigma
        .atr_schemas()
        .iter()
        .flat_map(move |schema| heads.atoms_of(&schema.active))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::coin_program;
    use crate::translate::SigmaPi;

    fn coin_sigma() -> SigmaPi {
        SigmaPi::translate(&coin_program(), &Database::new()).unwrap()
    }

    fn coin_active(sigma: &SigmaPi) -> GroundAtom {
        let schema = &sigma.atr_schemas()[0];
        GroundAtom {
            predicate: schema.active,
            args: vec![Const::real(0.5).unwrap()],
        }
    }

    #[test]
    fn atr_rule_construction_and_probability() {
        let sigma = coin_sigma();
        let active = coin_active(&sigma);
        let rule = AtrRule::new(&sigma, active.clone(), Const::Int(1)).unwrap();
        assert_eq!(rule.result.args.len(), 2);
        assert_eq!(rule.probability(&sigma).unwrap(), Prob::ratio(1, 2));
        let ground = rule.to_ground_rule();
        assert_eq!(ground.pos, vec![active]);
        assert!(ground.neg.is_empty());

        // Unknown active predicate is rejected.
        let bogus = GroundAtom::make("NotActive", vec![Const::Int(1)]);
        assert!(AtrRule::new(&sigma, bogus, Const::Int(1)).is_err());
    }

    #[test]
    fn atr_set_functional_consistency() {
        let sigma = coin_sigma();
        let active = coin_active(&sigma);
        let heads = AtrRule::new(&sigma, active.clone(), Const::Int(0)).unwrap();
        let tails = AtrRule::new(&sigma, active.clone(), Const::Int(1)).unwrap();

        let mut set = AtrSet::new();
        assert!(set.is_empty());
        assert!(set.insert(heads.clone()).unwrap());
        assert!(!set.insert(heads.clone()).unwrap());
        assert!(set.insert(tails.clone()).is_err());
        assert_eq!(set.len(), 1);
        assert!(set.is_defined_on(&active));
        assert_eq!(set.outcome_of(&active), Some(&Const::Int(0)));
        assert_eq!(set.result_atoms().len(), 1);
        assert_eq!(set.to_ground_rules().len(), 1);
        assert_eq!(set.probability(&sigma).unwrap(), Prob::ratio(1, 2));
        assert_eq!(set.canonical().len(), 1);
        assert!(set.to_string().contains("Active_Flip_1_0"));
    }

    #[test]
    fn subset_and_extension() {
        let sigma = coin_sigma();
        let active = coin_active(&sigma);
        let heads = AtrRule::new(&sigma, active.clone(), Const::Int(0)).unwrap();
        let tails = AtrRule::new(&sigma, active, Const::Int(1)).unwrap();

        let empty = AtrSet::new();
        let with_heads = empty.extended(heads.clone()).unwrap();
        assert!(empty.is_subset_of(&with_heads));
        assert!(!with_heads.is_subset_of(&empty));
        assert!(with_heads.is_subset_of(&with_heads));
        // A set choosing tails is not a superset of one choosing heads.
        let with_tails = empty.extended(tails).unwrap();
        assert!(!with_heads.is_subset_of(&with_tails));
        // Extending with a conflicting choice fails.
        assert!(with_heads
            .extended(AtrRule::new(&coin_sigma(), coin_active(&sigma), Const::Int(1)).unwrap())
            .is_err());
    }

    #[test]
    fn empty_set_probability_is_one() {
        let sigma = coin_sigma();
        assert_eq!(AtrSet::new().probability(&sigma).unwrap(), Prob::ONE);
    }
}
