//! Possible outcomes (Definition 3.7).
//!
//! A possible outcome of `D` w.r.t. `Π` relative to a grounder `G` is a
//! program `Σ ∪ G(Σ)` for a ⊆-minimal terminal `Σ` such that every chosen
//! outcome has strictly positive probability. A [`PossibleOutcome`] couples
//! the choice set `Σ` (an [`AtrSet`]), the grounder-produced rules `G(Σ)`,
//! and the probability `Pr(Σ)`; the induced set of stable models
//! `sms(Σ ∪ G(Σ))` is computed on demand through `gdlog-engine`.

use crate::error::CoreError;
use crate::grounding::{AtrSet, GroundRuleSet};
use gdlog_data::{Database, GroundAtom};
use gdlog_engine::{
    AtomTableBuilder, CancelToken, GroundProgram, RuleParts, StableError, StableModelLimits,
    TableProgram,
};
use gdlog_prob::Prob;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The atoms the ids of [`ModelSetKey`]s index: strictly ascending in
/// `GroundAtom` order, so an id is its atom's rank and id vectors compare
/// like the atom lists they stand for. All the keys of one solve share one
/// table through an `Arc`.
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    atoms: Vec<GroundAtom>,
    /// The atoms' `Display` texts, rendered once, back to back: atom `id`'s
    /// text is `text[bounds[id]..bounds[id + 1]]`.
    text: String,
    bounds: Vec<usize>,
}

impl KeyTable {
    /// The table of `atoms`, which must be strictly ascending.
    pub(crate) fn new(atoms: Vec<GroundAtom>) -> Arc<Self> {
        debug_assert!(atoms.windows(2).all(|w| w[0] < w[1]));
        let mut text = String::new();
        let mut bounds = vec![0];
        for atom in &atoms {
            write!(text, "{atom}").expect("writing to a string cannot fail");
            bounds.push(text.len());
        }
        Arc::new(KeyTable {
            atoms,
            text,
            bounds,
        })
    }

    /// The sorted, deduplicated merge of `tables`, with one id remap per
    /// table into it. A remap ascends, so remapped models stay sorted.
    pub(crate) fn merge(tables: &[&KeyTable]) -> (Arc<KeyTable>, Vec<Vec<u32>>) {
        let mut atoms: Vec<&GroundAtom> = tables.iter().flat_map(|t| &t.atoms).collect();
        atoms.sort_unstable();
        atoms.dedup();
        let remaps = tables
            .iter()
            .map(|t| {
                let mut joint = 0;
                t.atoms
                    .iter()
                    .map(|atom| {
                        while atoms[joint] != atom {
                            joint += 1;
                        }
                        joint as u32
                    })
                    .collect()
            })
            .collect();
        let table = KeyTable::new(atoms.into_iter().cloned().collect());
        (table, remaps)
    }

    /// Number of atoms.
    pub(crate) fn len(&self) -> usize {
        self.atoms.len()
    }

    /// The atoms, in id order.
    pub(crate) fn atoms(&self) -> &[GroundAtom] {
        &self.atoms
    }

    /// The id of `atom`, if the table holds it.
    pub(crate) fn id(&self, atom: &GroundAtom) -> Option<u32> {
        self.atoms.binary_search(atom).ok().map(|id| id as u32)
    }

    fn text(&self, id: u32) -> &str {
        let id = id as usize;
        &self.text[self.bounds[id]..self.bounds[id + 1]]
    }
}

/// A canonical encoding of a *set of stable models* — the event key of the
/// output probability space (two finite possible outcomes belong to the
/// same event iff they induce the same set of stable models).
///
/// Each model is a sorted vector of ids into a shared table of atoms, and the
/// models are sorted and distinct. Keys over one table compare on their ids
/// alone. Keys over different tables (two grounders' spaces, oracle keys,
/// factor projections) compare, and hash, as the sorted atom lists they
/// resolve to, so equality, order and hash never depend on the table.
#[derive(Clone)]
pub struct ModelSetKey {
    table: Arc<KeyTable>,
    models: Vec<Vec<u32>>,
}

impl ModelSetKey {
    /// Build a key from a set of stable models.
    pub fn from_models(models: &[Database]) -> Self {
        let mut atoms: Vec<GroundAtom> = models.iter().flat_map(Database::iter).cloned().collect();
        atoms.sort_unstable();
        atoms.dedup();
        let table = KeyTable::new(atoms);
        let mut encoded: Vec<Vec<u32>> = models
            .iter()
            .map(|model| {
                let mut ids: Vec<u32> = model
                    .iter()
                    .map(|atom| table.id(atom).expect("collected"))
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        encoded.sort();
        encoded.dedup();
        ModelSetKey {
            table,
            models: encoded,
        }
    }

    /// The key of models given as sorted id vectors of `table`, in ascending
    /// order ([`gdlog_engine::AtomTable::stable_models`] over the table
    /// `table` was cloned from): moved in as they are.
    pub(crate) fn from_ids(table: &Arc<KeyTable>, models: Vec<Vec<u32>>) -> Self {
        ModelSetKey {
            table: Arc::clone(table),
            models,
        }
    }

    /// The empty set of stable models (the event "no stable model").
    pub fn empty() -> Self {
        ModelSetKey::from_ids(&Arc::default(), Vec::new())
    }

    /// Number of stable models in the set.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// Is this the empty set of stable models?
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Iterate over the models, each as its atoms in ascending order.
    pub fn models(
        &self,
    ) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = &GroundAtom> + Clone + '_> + '_
    {
        self.models
            .iter()
            .map(move |model| model.iter().map(move |&id| &self.table.atoms[id as usize]))
    }

    /// The models as sorted id vectors of the key's table, in ascending
    /// order.
    pub(crate) fn ids(&self) -> &[Vec<u32>] {
        &self.models
    }

    /// Does the atom hold in *every* stable model of the set (cautiously)?
    /// Returns `false` for the empty set.
    pub fn cautious(&self, atom: &GroundAtom) -> bool {
        self.table.id(atom).is_some_and(|id| self.cautious_id(id))
    }

    /// Does the atom hold in *some* stable model of the set (bravely)?
    pub fn brave(&self, atom: &GroundAtom) -> bool {
        self.table.id(atom).is_some_and(|id| self.brave_id(id))
    }

    /// [`Self::cautious`] for the atom of id `id` in the key's table.
    pub(crate) fn cautious_id(&self, id: u32) -> bool {
        !self.models.is_empty() && self.models.iter().all(|m| m.binary_search(&id).is_ok())
    }

    /// [`Self::brave`] for the atom of id `id` in the key's table.
    pub(crate) fn brave_id(&self, id: u32) -> bool {
        self.models.iter().any(|m| m.binary_search(&id).is_ok())
    }

    /// The event key of a union of programs over disjoint atom sets: by the
    /// splitting theorem, `sms(P₁ ⊎ … ⊎ Pₘ)` is the set of unions of one
    /// stable model per part, so the joint key is the cross product of the
    /// per-part keys with each joint model the (sorted, deduplicated) union
    /// of its parts. Any empty part makes the whole product empty — a union
    /// has a stable model only if every part does.
    pub fn product(keys: &[&ModelSetKey]) -> ModelSetKey {
        let tables: Vec<&KeyTable> = keys.iter().map(|k| &*k.table).collect();
        let (table, remaps) = KeyTable::merge(&tables);
        let parts: Vec<(&ModelSetKey, &[u32])> = keys
            .iter()
            .zip(&remaps)
            .map(|(&key, remap)| (key, remap.as_slice()))
            .collect();
        ModelSetKey::product_in(&table, &parts)
    }

    /// [`Self::product`] over `table`, each part with the ascending remap of
    /// its table's ids into `table`: a joint model concatenates its parts'
    /// remapped ids and sorts them.
    pub(crate) fn product_in(table: &Arc<KeyTable>, parts: &[(&ModelSetKey, &[u32])]) -> Self {
        if parts.iter().any(|(key, _)| key.is_empty()) {
            return ModelSetKey::from_ids(table, Vec::new());
        }
        // One model per part, chosen by an odometer whose last digit turns
        // fastest.
        let mut choice = vec![0usize; parts.len()];
        let mut encoded: Vec<Vec<u32>> = Vec::new();
        loop {
            let chosen = || {
                parts
                    .iter()
                    .zip(&choice)
                    .map(|((key, remap), &c)| (&key.models[c], *remap))
            };
            let mut joined = Vec::with_capacity(chosen().map(|(model, _)| model.len()).sum());
            for (model, remap) in chosen() {
                joined.extend(model.iter().map(|&id| remap[id as usize]));
            }
            joined.sort_unstable();
            joined.dedup();
            encoded.push(joined);
            let Some(digit) = (0..parts.len())
                .rev()
                .find(|&d| choice[d] + 1 < parts[d].0.models.len())
            else {
                break;
            };
            choice[digit] += 1;
            choice[digit + 1..].fill(0);
        }
        encoded.sort();
        encoded.dedup();
        ModelSetKey::from_ids(table, encoded)
    }

    /// The projection of this key onto the atoms of `table`, given the
    /// ascending `remap` of `table`'s ids into this key's table: each model
    /// keeps the ids `remap` holds, renumbered to `table`'s.
    pub(crate) fn project(&self, table: &Arc<KeyTable>, remap: &[u32]) -> ModelSetKey {
        let mut encoded: Vec<Vec<u32>> = self
            .models
            .iter()
            .map(|model| {
                model
                    .iter()
                    .filter_map(|id| remap.binary_search(id).ok().map(|local| local as u32))
                    .collect()
            })
            .collect();
        encoded.sort();
        encoded.dedup();
        ModelSetKey::from_ids(table, encoded)
    }

    /// This key over `table`: itself when it is already over `table`,
    /// otherwise its ids translated atom by atom; `None` when `table` lacks
    /// one of its atoms. Tables ascend, so translated models stay sorted.
    pub(crate) fn over(&self, table: &Arc<KeyTable>) -> Option<Cow<'_, ModelSetKey>> {
        if Arc::ptr_eq(&self.table, table) {
            return Some(Cow::Borrowed(self));
        }
        let models = self
            .models()
            .map(|model| model.map(|atom| table.id(atom)).collect())
            .collect::<Option<_>>()?;
        Some(Cow::Owned(ModelSetKey::from_ids(table, models)))
    }

    /// Restrict every model to the given predicate filter, re-canonicalising
    /// the key (used to compare outcomes "modulo active").
    pub fn filter_atoms<F: Fn(&GroundAtom) -> bool>(&self, keep: F) -> ModelSetKey {
        let kept: Vec<bool> = self.table.atoms.iter().map(keep).collect();
        let mut encoded: Vec<Vec<u32>> = self
            .models
            .iter()
            .map(|m| m.iter().copied().filter(|&id| kept[id as usize]).collect())
            .collect();
        encoded.sort();
        encoded.dedup();
        ModelSetKey::from_ids(&self.table, encoded)
    }

    /// Compare as the sorted atom lists the two keys resolve to.
    fn cmp_atoms(&self, other: &Self) -> Ordering {
        for (a, b) in self.models().zip(other.models()) {
            match Iterator::cmp(a, b) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        self.models.len().cmp(&other.models.len())
    }
}

/// Re-key `keys` over one table and return it: the table they all share,
/// or else the merge of theirs.
pub(crate) fn share_table<'k>(
    keys: impl IntoIterator<Item = &'k mut ModelSetKey>,
) -> Arc<KeyTable> {
    let mut keys: Vec<&mut ModelSetKey> = keys.into_iter().collect();
    let mut tables: Vec<Arc<KeyTable>> = Vec::new();
    for key in &keys {
        if !tables.iter().any(|t| Arc::ptr_eq(t, &key.table)) {
            tables.push(Arc::clone(&key.table));
        }
    }
    if tables.len() <= 1 {
        return tables.pop().unwrap_or_default();
    }
    let refs: Vec<&KeyTable> = tables.iter().map(|t| &**t).collect();
    let (joint, remaps) = KeyTable::merge(&refs);
    for key in &mut keys {
        let t = tables.iter().position(|t| Arc::ptr_eq(t, &key.table));
        let remap = &remaps[t.expect("listed")];
        for model in &mut key.models {
            for id in model.iter_mut() {
                *id = remap[*id as usize];
            }
        }
        key.table = Arc::clone(&joint);
    }
    joint
}

impl PartialEq for ModelSetKey {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.table, &other.table) {
            return self.models == other.models;
        }
        self.models.len() == other.models.len() && self.cmp_atoms(other).is_eq()
    }
}

impl Eq for ModelSetKey {}

impl PartialOrd for ModelSetKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ModelSetKey {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.table, &other.table) {
            return self.models.cmp(&other.models);
        }
        self.cmp_atoms(other)
    }
}

impl Hash for ModelSetKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.models.len());
        for model in self.models() {
            state.write_usize(model.len());
            model.for_each(|atom| atom.hash(state));
        }
    }
}

impl fmt::Display for ModelSetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, model) in self.models.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str("{")?;
            for (j, &id) in model.iter().enumerate() {
                if j > 0 {
                    f.write_str(", ")?;
                }
                f.write_str(self.table.text(id))?;
            }
            f.write_str("}")?;
        }
        f.write_str("}")
    }
}

impl fmt::Debug for ModelSetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModelSetKey({self})")
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
            .map(|model| Database::from_atoms(model.cloned()))
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
        let mut keys = model_set_keys([self], false, limits, cancel)?;
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

    /// Encode the model the grounder decided for `Σ ∪ G(Σ)` into
    /// `builder`: the heads of `G(Σ)` (each shared snapshot frame once per
    /// builder) and the results of `Σ`, all as facts. Every result holds:
    /// the chase chose each choice's `Active` atom as a trigger of an
    /// ancestor node, a head of that node's grounding, which `G(Σ)`
    /// extends. That is asserted, not filtered: a membership test walks
    /// every snapshot layer of the head set, which cost more than the rest
    /// of the pass on dimes and quarters.
    fn encode_heads<'a>(&'a self, builder: &mut AtomTableBuilder<'a>) -> TableProgram {
        debug_assert!(self
            .atr
            .iter()
            .all(|c| self.rules.heads().contains(&c.active)));
        builder.heads(&self.rules, self.atr.iter().map(|c| &c.result))
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
/// One pass in outcome order interns every atom of every outcome into an
/// [`AtomTableBuilder`], encoding each snapshot frame the outcomes share
/// once, and ranks the table. The per-outcome searches then run in outcome
/// order on the calling thread, reading the table immutably; each key moves
/// the searched id vectors in over one [`KeyTable`] of the table's atoms,
/// cloned once. The first error, in outcome order, ends the pass.
///
/// With `heads` the outcomes are a chase's over a grounder that decided
/// their models ([`crate::Grounder::decides_models`]): the pass interns
/// only each outcome's heads and the results of its choices, and each key
/// is that one sorted, deduplicated id vector, with no body literal
/// encoded and no search. It polls `cancel` once per outcome, and returns
/// the one model whatever the limits, as the search does for a total
/// well-founded model.
pub(crate) fn model_set_keys<'a>(
    outcomes: impl IntoIterator<Item = &'a PossibleOutcome>,
    heads: bool,
    limits: &StableModelLimits,
    cancel: &CancelToken,
) -> Result<Vec<ModelSetKey>, CoreError> {
    let mut builder = AtomTableBuilder::new();
    let programs: Vec<TableProgram> = outcomes
        .into_iter()
        .map(|o| {
            if heads {
                o.encode_heads(&mut builder)
            } else {
                o.encode(&mut builder)
            }
        })
        .collect();
    let table = builder.finish();
    let atoms = KeyTable::new(table.atoms().iter().map(|&atom| atom.clone()).collect());
    programs
        .iter()
        .map(|program| {
            let models = if heads {
                if cancel.is_cancelled() {
                    return Err(StableError::Interrupted.into());
                }
                vec![table.heads(program)]
            } else {
                table.stable_models(program, limits, cancel)?
            };
            Ok(ModelSetKey::from_ids(&atoms, models))
        })
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
    use std::collections::BTreeSet;

    fn atom(name: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::make(name, args.iter().map(|&i| Const::Int(i)).collect())
    }

    fn db(atoms: &[GroundAtom]) -> Database {
        Database::from_atoms(atoms.iter().cloned())
    }

    /// The key of the given models, each a list of atoms.
    fn key(models: &[&[GroundAtom]]) -> ModelSetKey {
        let models: Vec<Database> = models.iter().map(|m| db(m)).collect();
        ModelSetKey::from_models(&models)
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
            key(&[
                &[a1.clone(), b1.clone(), c1.clone()],
                &[a1.clone(), b1.clone(), c2.clone()],
                &[a2.clone(), b1.clone(), c1],
                &[a2, b1.clone(), c2],
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
            key(&[
                &[a1.clone(), b1.clone()],
                &[a1.clone(), b1, s1.clone()],
                &[a1, s1],
            ])
        );
    }

    /// The key's models as sorted atom lists.
    fn resolved(key: &ModelSetKey) -> Vec<Vec<GroundAtom>> {
        key.models().map(|m| m.cloned().collect()).collect()
    }

    fn hash_of(key: &ModelSetKey) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn keys_over_different_tables_are_equal_as_atoms() {
        let (a1, b2) = (atom("A", &[1]), atom("B", &[2]));
        let small = key(&[&[a1.clone(), b2.clone()], std::slice::from_ref(&b2)]);
        // The same two models over a table with atoms no model holds: other
        // ids for the same atoms.
        let wide = KeyTable::new(vec![
            atom("A", &[0]),
            a1.clone(),
            atom("A", &[5]),
            b2.clone(),
            atom("C", &[9]),
        ]);
        let big = ModelSetKey::from_ids(&wide, vec![vec![1, 3], vec![3]]);
        assert_ne!(small.ids(), big.ids());
        assert_eq!(small, big);
        assert_eq!(small.cmp(&big), Ordering::Equal);
        assert_eq!(hash_of(&small), hash_of(&big));
        assert_eq!(small.to_string(), big.to_string());
        assert_eq!(big.to_string(), "{{A(1), B(2)}, {B(2)}}");
        assert_eq!(resolved(&small), resolved(&big));
        // Translated over the wide table, the small key has the wide ids.
        assert_eq!(small.over(&wide).unwrap().ids(), big.ids());
        assert!(big.over(&small.table).is_some());
        assert!(ModelSetKey::from_ids(&wide, vec![vec![0]])
            .over(&small.table)
            .is_none());
        // One model fewer is another key, whichever the tables.
        let fewer = ModelSetKey::from_ids(&wide, vec![vec![1, 3]]);
        assert_ne!(small, fewer);
        assert_eq!(small.cmp(&fewer), Ordering::Greater);
    }

    #[test]
    fn mixed_table_keys_sort_as_their_atom_lists() {
        let (a1, b1, c1) = (atom("A", &[1]), atom("B", &[1]), atom("C", &[1]));
        // Two tables whose ids disagree on the atoms' order across tables:
        // C(1) is id 1 in the first, B(1) is id 0 in the second.
        let first = KeyTable::new(vec![a1.clone(), c1.clone()]);
        let second = KeyTable::new(vec![b1.clone(), c1.clone()]);
        let keys = [
            ModelSetKey::from_ids(&first, vec![vec![1]]),
            ModelSetKey::from_ids(&first, vec![vec![0], vec![1]]),
            ModelSetKey::from_ids(&first, vec![vec![0, 1]]),
            ModelSetKey::from_ids(&second, vec![vec![0]]),
            ModelSetKey::from_ids(&second, vec![vec![0, 1]]),
            ModelSetKey::from_ids(&second, vec![vec![1]]),
            ModelSetKey::from_ids(&second, vec![]),
            key(&[std::slice::from_ref(&a1), &[b1.clone(), c1.clone()]]),
            key(&[std::slice::from_ref(&c1)]),
        ];
        let set: BTreeSet<ModelSetKey> = keys.iter().cloned().collect();
        // {C(1)} is in both tables and once in the set, twice in the keys.
        assert_eq!(set.len(), keys.len() - 2);
        let iterated: Vec<Vec<Vec<GroundAtom>>> = set.iter().map(resolved).collect();
        let mut expected: Vec<Vec<Vec<GroundAtom>>> = keys.iter().map(resolved).collect();
        expected.sort();
        expected.dedup();
        assert_eq!(iterated, expected);
    }

    /// The product on atoms: every choice of one model per key, each joint
    /// model the sorted union of its parts.
    fn atom_product(keys: &[&ModelSetKey]) -> Vec<Vec<GroundAtom>> {
        let mut joint: Vec<Vec<GroundAtom>> = vec![Vec::new()];
        for key in keys {
            let mut next = Vec::new();
            for prefix in &joint {
                for model in resolved(key) {
                    let mut union: Vec<GroundAtom> = prefix.iter().cloned().chain(model).collect();
                    union.sort();
                    union.dedup();
                    next.push(union);
                }
            }
            joint = next;
        }
        joint.sort();
        joint.dedup();
        joint
    }

    #[test]
    fn product_over_remapped_factor_ids_is_the_atom_product() {
        let level = |pred: &str, levels: &[i64]| -> Vec<GroundAtom> {
            levels.iter().map(|&l| atom(pred, &[l])).collect()
        };
        // Three factors whose atoms interleave in the global order, so each
        // remap into the joint table spreads its ids apart.
        let factors = [
            key(&[&level("L", &[0, 3]), &level("L", &[3, 6])]),
            key(&[&level("L", &[1]), &level("L", &[4, 7]), &level("L", &[])]),
            key(&[&level("L", &[2, 5, 8])]),
        ];
        let tables: Vec<&KeyTable> = factors.iter().map(|k| &*k.table).collect();
        let (joint, remaps) = KeyTable::merge(&tables);
        assert_eq!(joint.len(), 9);
        assert!(remaps.iter().all(|r| r.windows(2).all(|w| w[0] < w[1])));
        let parts: Vec<(&ModelSetKey, &[u32])> = factors
            .iter()
            .zip(&remaps)
            .map(|(k, r)| (k, r.as_slice()))
            .collect();
        let product = ModelSetKey::product_in(&joint, &parts);
        let refs: Vec<&ModelSetKey> = factors.iter().collect();
        assert_eq!(product.model_count(), 6);
        assert_eq!(resolved(&product), atom_product(&refs));
        assert_eq!(product, ModelSetKey::product(&refs));
        // Projecting onto each factor's table recovers the factor key.
        for (factor, remap) in factors.iter().zip(&remaps) {
            assert_eq!(product.project(&factor.table, remap), *factor);
        }
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
