//! Possible outcomes (Definition 3.7).
//!
//! A possible outcome of `D` w.r.t. `Π` relative to a grounder `G` is a
//! program `Σ ∪ G(Σ)` for a ⊆-minimal terminal `Σ` such that every chosen
//! outcome has strictly positive probability. A [`PossibleOutcome`] couples
//! the choice set `Σ` (an [`AtrSet`]), the grounder-produced rules `G(Σ)`,
//! and the probability `Pr(Σ)`; the induced set of stable models
//! `sms(Σ ∪ G(Σ))` is computed on demand through `gdlog-engine`.

use crate::error::CoreError;
use crate::exec::Executor;
use crate::grounding::{AtrSet, GroundRuleSet};
use gdlog_data::{Database, GroundAtom};
use gdlog_engine::{
    AtomTable, AtomTableBuilder, CancelToken, GroundProgram, RuleParts, StableModelLimits,
    TableProgram,
};
use gdlog_prob::Prob;
use std::fmt;

/// A canonical, hashable encoding of a *set of stable models* — the event key
/// of the output probability space (two finite possible outcomes belong to
/// the same event iff they induce the same set of stable models).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ModelSetKey(Vec<Vec<GroundAtom>>);

impl ModelSetKey {
    /// Build a key from a set of stable models.
    pub fn from_models(models: &[Database]) -> Self {
        let mut encoded: Vec<Vec<GroundAtom>> =
            models.iter().map(Database::canonical_atoms).collect();
        encoded.sort();
        encoded.dedup();
        ModelSetKey(encoded)
    }

    /// The key of models given as sorted id vectors of `table`, in ascending
    /// order ([`AtomTable::stable_models`]): ids ascend with the atoms, so
    /// the resolved key is already canonical.
    fn from_ids(table: &AtomTable, models: Vec<Vec<u32>>) -> Self {
        ModelSetKey(
            models
                .into_iter()
                .map(|model| model.into_iter().map(|id| table.atom(id).clone()).collect())
                .collect(),
        )
    }

    /// The empty set of stable models (the event "no stable model").
    pub fn empty() -> Self {
        ModelSetKey(Vec::new())
    }

    /// Number of stable models in the set.
    pub fn model_count(&self) -> usize {
        self.0.len()
    }

    /// Is this the empty set of stable models?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over the models as sorted atom lists.
    pub fn models(&self) -> impl Iterator<Item = &Vec<GroundAtom>> {
        self.0.iter()
    }

    /// Does the atom hold in *every* stable model of the set (cautiously)?
    /// Returns `false` for the empty set.
    pub fn cautious(&self, atom: &GroundAtom) -> bool {
        !self.0.is_empty() && self.0.iter().all(|m| m.binary_search(atom).is_ok())
    }

    /// Does the atom hold in *some* stable model of the set (bravely)?
    pub fn brave(&self, atom: &GroundAtom) -> bool {
        self.0.iter().any(|m| m.binary_search(atom).is_ok())
    }

    /// The event key of a union of programs over disjoint atom sets: by the
    /// splitting theorem, `sms(P₁ ⊎ … ⊎ Pₘ)` is the set of unions of one
    /// stable model per part, so the joint key is the cross product of the
    /// per-part keys with each joint model the (sorted, deduplicated) union
    /// of its parts. Any empty part makes the whole product empty — a union
    /// has a stable model only if every part does.
    pub fn product(keys: &[&ModelSetKey]) -> ModelSetKey {
        if keys.iter().any(|k| k.is_empty()) {
            return ModelSetKey::empty();
        }
        // One model per key, chosen by an odometer whose last digit turns
        // fastest; each joint model is concatenated once, cloning every atom
        // once, instead of re-cloning a growing prefix per key.
        let mut choice = vec![0usize; keys.len()];
        let mut encoded: Vec<Vec<GroundAtom>> = Vec::new();
        loop {
            let parts = || keys.iter().zip(&choice).map(|(key, &c)| &key.0[c]);
            let mut joined = Vec::with_capacity(parts().map(Vec::len).sum());
            for model in parts() {
                joined.extend(model.iter().cloned());
            }
            joined.sort();
            joined.dedup();
            encoded.push(joined);
            let Some(digit) = (0..keys.len())
                .rev()
                .find(|&d| choice[d] + 1 < keys[d].0.len())
            else {
                break;
            };
            choice[digit] += 1;
            choice[digit + 1..].fill(0);
        }
        encoded.sort();
        encoded.dedup();
        ModelSetKey(encoded)
    }

    /// Restrict every model to the given predicate filter, re-canonicalising
    /// the key (used to compare outcomes "modulo active").
    pub fn filter_atoms<F: Fn(&GroundAtom) -> bool>(&self, keep: F) -> ModelSetKey {
        let mut encoded: Vec<Vec<GroundAtom>> = self
            .0
            .iter()
            .map(|m| m.iter().filter(|a| keep(a)).cloned().collect())
            .collect();
        encoded.sort();
        encoded.dedup();
        ModelSetKey(encoded)
    }
}

impl fmt::Display for ModelSetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, a) in m.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

/// A finite possible outcome together with its probability.
#[derive(Clone, Debug)]
pub struct PossibleOutcome {
    /// The configuration of probabilistic choices `Σ`.
    pub atr: AtrSet,
    /// The grounder-produced rules `G(Σ)`.
    pub rules: GroundRuleSet,
    /// The probability `Pr(Σ) = ∏ δ⟨p̄⟩(o)`.
    pub probability: Prob,
}

impl PossibleOutcome {
    /// Assemble a possible outcome.
    pub fn new(atr: AtrSet, rules: GroundRuleSet, probability: Prob) -> Self {
        PossibleOutcome {
            atr,
            rules,
            probability,
        }
    }

    /// The full ground program `Σ ∪ G(Σ)` whose stable models this outcome
    /// induces. A copy: the solve path searches the outcome's rules in place
    /// ([`Self::model_set_key`]); this is the reference the oracles and the
    /// tests compare against.
    pub fn full_program(&self) -> GroundProgram {
        let mut p = self.rules.clone();
        p.extend(self.atr.to_ground_rules());
        p
    }

    /// Compute `sms(Σ ∪ G(Σ))`.
    pub fn stable_models(&self, limits: &StableModelLimits) -> Result<Vec<Database>, CoreError> {
        self.stable_models_cancellable(limits, &CancelToken::never())
    }

    /// [`Self::stable_models`] with a cooperative cancellation token. A
    /// cancelled search returns [`CoreError::Interrupted`] — stable-model
    /// enumeration is exact-or-nothing, so there is no partial result to
    /// degrade to.
    pub fn stable_models_cancellable(
        &self,
        limits: &StableModelLimits,
        cancel: &CancelToken,
    ) -> Result<Vec<Database>, CoreError> {
        Ok(self
            .model_set_key_cancellable(limits, cancel)?
            .models()
            .map(|model| Database::from_atoms(model.iter().cloned()))
            .collect())
    }

    /// Compute the event key of the outcome (its set of stable models).
    pub fn model_set_key(&self, limits: &StableModelLimits) -> Result<ModelSetKey, CoreError> {
        self.model_set_key_cancellable(limits, &CancelToken::never())
    }

    /// [`Self::model_set_key`] with a cooperative cancellation token: the
    /// keying pass of [`crate::OutputSpace::from_chase_cancellable`] over
    /// this one outcome, on an atom table of its own.
    pub fn model_set_key_cancellable(
        &self,
        limits: &StableModelLimits,
        cancel: &CancelToken,
    ) -> Result<ModelSetKey, CoreError> {
        let mut keys = model_set_keys([self], limits, &Executor::sequential(), cancel)?;
        Ok(keys.pop().expect("one key per outcome"))
    }

    /// Encode `Σ ∪ G(Σ)` into `builder`, in place: the rules `G(Σ)` (each
    /// snapshot frame they share with other outcomes encoded once per
    /// builder) followed by each choice of `Σ` borrowed as `result ←
    /// active`, with no [`Self::full_program`] copy.
    fn encode<'a>(&'a self, builder: &mut AtomTableBuilder<'a>) -> TableProgram {
        let chosen = self
            .atr
            .iter()
            .map(|c| -> RuleParts<'_> { (&c.result, std::slice::from_ref(&c.active), &[]) });
        builder.program(&self.rules, chosen)
    }

    /// The canonical, collision-free identity of the outcome's ground
    /// program `Σ ∪ G(Σ)` — the memoization key of
    /// [`crate::ModelSetCache`]. Outcomes with equal fingerprints denote the
    /// same program and therefore the same [`ModelSetKey`]. Kept only for
    /// the benchmark's traced decomposition; no solve path fingerprints.
    pub fn program_fingerprint(&self) -> crate::model_cache::ProgramFingerprint {
        crate::model_cache::ProgramFingerprint::new(
            self.atr.canonical(),
            self.rules.canonical_rules(),
        )
    }

    /// Number of probabilistic choices made in this outcome.
    pub fn choice_count(&self) -> usize {
        self.atr.len()
    }

    /// Number of ground rules produced by the grounder.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

/// The event key of every outcome, in outcome order, over one atom table.
///
/// One sequential pass in outcome order interns every atom of every outcome
/// into an [`AtomTableBuilder`], encoding each snapshot frame the outcomes
/// share once, and ranks the table. The per-outcome searches then fan out
/// to `executor`, reading the table immutably, so ids, ranks and keys never
/// depend on scheduling. Errors surface in outcome order.
pub(crate) fn model_set_keys<'a>(
    outcomes: impl IntoIterator<Item = &'a PossibleOutcome>,
    limits: &StableModelLimits,
    executor: &Executor,
    cancel: &CancelToken,
) -> Result<Vec<ModelSetKey>, CoreError> {
    let mut builder = AtomTableBuilder::new();
    let programs: Vec<TableProgram> = outcomes
        .into_iter()
        .map(|o| o.encode(&mut builder))
        .collect();
    let table = builder.finish();
    executor
        .map(&programs, |program| {
            let models = table.stable_models(program, limits, cancel)?;
            Ok(ModelSetKey::from_ids(&table, models))
        })
        .into_iter()
        .collect()
}

impl fmt::Display for PossibleOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "outcome(Pr = {}, {} choices, {} ground rules)",
            self.probability,
            self.choice_count(),
            self.rule_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdlog_data::Const;

    fn atom(name: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::make(name, args.iter().map(|&i| Const::Int(i)).collect())
    }

    fn db(atoms: &[GroundAtom]) -> Database {
        Database::from_atoms(atoms.iter().cloned())
    }

    #[test]
    fn key_is_order_insensitive_and_deduplicated() {
        let m1 = db(&[atom("A", &[1]), atom("B", &[2])]);
        let m2 = db(&[atom("C", &[3])]);
        let k1 = ModelSetKey::from_models(&[m1.clone(), m2.clone()]);
        let k2 = ModelSetKey::from_models(&[m2.clone(), m1.clone(), m2]);
        assert_eq!(k1, k2);
        assert_eq!(k1.model_count(), 2);
        assert!(!k1.is_empty());
        assert_eq!(ModelSetKey::empty().model_count(), 0);
        assert!(ModelSetKey::empty().is_empty());
        assert_eq!(k1.models().count(), 2);
    }

    #[test]
    fn cautious_and_brave_reasoning() {
        let m1 = db(&[atom("A", &[1]), atom("B", &[2])]);
        let m2 = db(&[atom("A", &[1]), atom("C", &[3])]);
        let k = ModelSetKey::from_models(&[m1, m2]);
        assert!(k.cautious(&atom("A", &[1])));
        assert!(!k.cautious(&atom("B", &[2])));
        assert!(k.brave(&atom("B", &[2])));
        assert!(k.brave(&atom("C", &[3])));
        assert!(!k.brave(&atom("D", &[4])));
        // The empty set is cautious about nothing and brave about nothing.
        assert!(!ModelSetKey::empty().cautious(&atom("A", &[1])));
        assert!(!ModelSetKey::empty().brave(&atom("A", &[1])));
    }

    #[test]
    fn filtering_atoms_re_canonicalises() {
        let m1 = db(&[atom("A", &[1]), atom("Hidden", &[9])]);
        let m2 = db(&[atom("A", &[1])]);
        let k = ModelSetKey::from_models(&[m1, m2]);
        assert_eq!(k.model_count(), 2);
        let filtered = k.filter_atoms(|a| a.predicate.name() != "Hidden");
        // After dropping the Hidden atom both models coincide.
        assert_eq!(filtered.model_count(), 1);
    }

    #[test]
    fn product_is_the_cross_product_of_model_unions() {
        let left = ModelSetKey::from_models(&[db(&[atom("A", &[1])]), db(&[atom("A", &[2])])]);
        let right = ModelSetKey::from_models(&[db(&[atom("B", &[1])])]);
        let joint = ModelSetKey::product(&[&left, &right]);
        assert_eq!(joint.model_count(), 2);
        assert!(joint.brave(&atom("A", &[1])));
        assert!(joint.cautious(&atom("B", &[1])));
        assert!(!joint.cautious(&atom("A", &[1])));
        // Projecting back onto the factor's atoms recovers the factor key.
        assert_eq!(joint.filter_atoms(|a| a.predicate.name() == "A"), left);
        assert_eq!(joint.filter_atoms(|a| a.predicate.name() == "B"), right);
        // Any empty part collapses the whole product.
        assert!(ModelSetKey::product(&[&left, &ModelSetKey::empty()]).is_empty());
        // The empty product is the key with one empty model (the union of no
        // programs has exactly one stable model: the empty database).
        let unit = ModelSetKey::product(&[]);
        assert_eq!(unit.model_count(), 1);
        assert_eq!(ModelSetKey::product(&[&left, &unit]), left);

        // Three keys, two of them with two models: four joint models, each
        // sorted and free of the atom two parts share.
        let third = ModelSetKey::from_models(&[
            db(&[atom("C", &[1])]),
            db(&[atom("B", &[1]), atom("C", &[2])]),
        ]);
        let (a1, a2, b1) = (atom("A", &[1]), atom("A", &[2]), atom("B", &[1]));
        let (c1, c2) = (atom("C", &[1]), atom("C", &[2]));
        assert_eq!(
            ModelSetKey::product(&[&left, &right, &third]),
            ModelSetKey(vec![
                vec![a1.clone(), b1.clone(), c1.clone()],
                vec![a1.clone(), b1.clone(), c2.clone()],
                vec![a2.clone(), b1.clone(), c1],
                vec![a2, b1.clone(), c2],
            ])
        );

        // Joint models that coincide collapse to one: {A1} ∪ {S1} and
        // {A1, S1} ∪ {S1} are the same model.
        let overlapping = ModelSetKey::from_models(&[
            db(&[atom("A", &[1])]),
            db(&[atom("A", &[1]), atom("S", &[1])]),
        ]);
        let shared = ModelSetKey::from_models(&[db(&[atom("S", &[1])]), db(&[atom("B", &[1])])]);
        let s1 = atom("S", &[1]);
        assert_eq!(
            ModelSetKey::product(&[&overlapping, &shared]),
            ModelSetKey(vec![
                vec![a1.clone(), b1.clone()],
                vec![a1.clone(), b1, s1.clone()],
                vec![a1, s1],
            ])
        );
    }

    #[test]
    fn display_is_readable() {
        let k = ModelSetKey::from_models(&[db(&[atom("A", &[1])])]);
        assert_eq!(k.to_string(), "{{A(1)}}");
    }

    #[test]
    fn in_place_key_matches_the_full_program_key() {
        use crate::grounding::AtrRule;
        use gdlog_engine::{stable_models, GroundRule, StableError};
        // G(Σ) is an Aux1/Aux2 even loop over Coin(1), which only the choice
        // Toss → Coin(1) derives.
        let (toss, coin) = (atom("Toss", &[]), atom("Coin", &[1]));
        let (aux1, aux2) = (atom("Aux1", &[]), atom("Aux2", &[]));
        let mut atr = AtrSet::new();
        atr.insert(AtrRule {
            active: toss.clone(),
            outcome: Const::Int(1),
            result: coin.clone(),
        })
        .unwrap();
        let rules = GroundRuleSet::from_rules(vec![
            GroundRule::fact(toss),
            GroundRule::new(aux1.clone(), vec![coin.clone()], vec![aux2.clone()]),
            GroundRule::new(aux2, vec![coin.clone()], vec![aux1]),
        ]);
        let outcome = PossibleOutcome::new(atr, rules, Prob::ONE);
        let limits = StableModelLimits::default();
        let key = outcome.model_set_key(&limits).unwrap();
        let full = stable_models(&outcome.full_program(), &limits).unwrap();
        assert_eq!(key, ModelSetKey::from_models(&full));
        assert_eq!(outcome.stable_models(&limits).unwrap(), full);
        assert_eq!(key.model_count(), 2);
        assert!(key.cautious(&coin));

        let tight = StableModelLimits {
            max_models: 1,
            ..limits
        };
        assert_eq!(
            outcome.model_set_key(&tight),
            Err(CoreError::Stable(StableError::TooManyModels { limit: 1 }))
        );
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            outcome.model_set_key_cancellable(&limits, &cancel),
            Err(CoreError::Interrupted(_))
        ));
    }

    #[test]
    fn outcome_accessors() {
        let outcome = PossibleOutcome::new(AtrSet::new(), GroundRuleSet::new(), Prob::ratio(1, 2));
        assert_eq!(outcome.choice_count(), 0);
        assert_eq!(outcome.rule_count(), 0);
        assert_eq!(outcome.full_program().len(), 0);
        let models = outcome
            .stable_models(&StableModelLimits::default())
            .unwrap();
        assert_eq!(models, vec![Database::new()]);
        let key = outcome
            .model_set_key(&StableModelLimits::default())
            .unwrap();
        assert_eq!(key.model_count(), 1);
        assert!(outcome.to_string().contains("Pr = 1/2"));
    }
}
