//! Chase-independence analysis and factored output spaces.
//!
//! The flat pipeline enumerates every joint configuration of probabilistic
//! choices — `2^n` outcomes for `n` independent coins. But when the ground
//! program splits into sub-programs with disjoint atom dependencies, the
//! chase itself factorizes: choices in one component can never influence
//! rule firings, constraints or stable models in another, so the output
//! space is exactly the *product* of the per-component output spaces
//! (the chase analogue of the SCC split the stable-model search already
//! performs per outcome).
//!
//! The analysis proceeds in three steps:
//!
//! 1. **Universe saturation** (`universe_of_group`): a least fixpoint over
//!    `Σ∄_Π[D]` that over-approximates every ground atom derivable in *any*
//!    chase branch, run on the grounders' own semi-naive loop. Negative
//!    literals are ignored (deriving more atoms only merges components —
//!    always sound) and every reachable `Active` atom is expanded to all of
//!    its budget-capped outcomes, exactly the branches the real chase would
//!    explore.
//! 2. **Component partition** ([`analyze_with`]): every ground rule instance
//!    contributes star edges `head — body atom` (negative atoms only when
//!    they are derivable, i.e. in the universe; underivable negative
//!    literals are vacuously true everywhere and carry no dependency), and
//!    every AtR pair contributes `active — result` edges. Connected
//!    components of this graph are chase-independent sub-programs.
//! 3. **Per-component slices** ([`ChaseComponent::slice`]): one pass over
//!    Σ routes every rule with an empty positive body (facts, the `Active`
//!    rules of Δ-facts, constraints with only negative literals — all ground
//!    by safety) to the component holding its head. A component's slice is
//!    those rules plus every rule with a positive body, sharing the parent's
//!    AtR schemas (`SigmaPi::slice`). Each factor is then chased, solved and
//!    Monte-Carlo sampled as a program of its own, by a plain simple
//!    grounder over its slice: seeded only with its own component's atoms,
//!    the slice grounds exactly the component's share of every chase node,
//!    and its triggers are exactly the component's. Walks draw from whole
//!    supports, so when `max_branching` cut one in the universe
//!    ([`ChaseComponent::support_cut`]) Monte-Carlo walks the whole program.
//!
//! Soundness of the product measure: every ground rule instance has its full
//! footprint (head, positive body, derivable negative body) inside one
//! component, so each flat outcome's program is the disjoint union of the
//! per-component programs, its probability is the product of the component
//! probabilities (choices are independent), and by the splitting theorem
//! its stable models are exactly the unions of per-component stable models.
//! Budget interaction: each component is explored under the full
//! [`ChaseBudget`], so the joint explored mass is the *product* of the
//! per-component explored masses and the joint residual is
//! `1 − ∏ exploredᵢ` — a factored run can be exact (residual zero) where
//! the flat enumeration would blow `max_outcomes` long before finishing.
//! `min_path_probability` cuts are *joint*-mass cuts and do not factorize;
//! the analysis falls back to the flat path when one is set.

use crate::analyze::{certainly_single_trigger, StaticComponents};
use crate::chase::ChaseBudget;
use crate::error::CoreError;
use crate::grounding::{AtrSet, GroundRuleSet, Grounder, Grounding};
use crate::outcome::ModelSetKey;
use crate::semantics::OutputSpace;
use crate::simple_grounder::saturate_impl;
use crate::translate::{AtrSchema, SigmaPi, TgdRule};
use gdlog_data::GroundAtom;
use gdlog_engine::{connected_components, CancelToken};
use gdlog_prob::Prob;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};

/// Safety valve for the universe fixpoint: programs whose over-approximated
/// atom universe exceeds this bound fall back to the flat path rather than
/// spend unbounded analysis time.
const UNIVERSE_ATOM_CAP: usize = 200_000;

/// Extra joint events fetched beyond `k` by [`FactoredOutputSpace::events_by_mass_top`]
/// so equal-mass ties at the cut can be re-sorted into the flat
/// (mass-descending, key-ascending) order.
const TOP_K_TIE_SLACK: usize = 64;

/// One chase-independent component: the ground atoms that can only be
/// derived inside it, the `Active` atoms (triggers) among them, and the
/// slice of Σ_Π its chase runs on.
#[derive(Clone, Debug)]
pub struct ChaseComponent {
    /// Every universe atom of the component.
    pub atoms: BTreeSet<GroundAtom>,
    /// The component's `Active` atoms — the only triggers its chase applies.
    pub triggers: BTreeSet<GroundAtom>,
    /// The component's share of Σ_Π: the bodiless rules whose heads lie in
    /// the component, plus every rule with a positive body, in Σ's order.
    pub slice: Arc<SigmaPi>,
    /// Did `max_branching` cut the support of some `Active` atom of the
    /// universe, in any component? The universe, and so every slice, covers
    /// only the explored outcomes, while a Monte-Carlo walk draws from the
    /// whole support and can leave it; only a whole-program walk is then
    /// sound.
    pub support_cut: bool,
}

/// A component before slicing: its atoms and triggers.
type Part = (BTreeSet<GroundAtom>, BTreeSet<GroundAtom>);

/// The `active → results` expansions recorded while saturating a universe.
type AtrPairs = Vec<(GroundAtom, Vec<GroundAtom>)>;

/// A saturated universe: its rule set, its AtR expansions, and whether
/// `max_branching` cut the support of any expanded `Active` atom.
struct Universe {
    rules: GroundRuleSet,
    pairs: AtrPairs,
    support_cut: bool,
}

/// The over-approximated derivable universe of a group of `sigma.rules`
/// (facts are bodyless rules, so they are covered): the `Simple` operator's
/// fixpoint on the shared semi-naive loop [`saturate_impl`], ignoring
/// negative bodies and expanding every reachable `Active` atom to its first
/// `budget.max_branching` outcomes — the same truncation the chase applies,
/// so the universe covers every explored branch. Returns the saturated rule
/// set (its heads are the universe's atoms), the recorded
/// `active → results` pairs, and whether any support was cut (one outcome
/// past the budget is enumerated to tell, as the chase does).
///
/// The caller passes the rules and AtR schemas of one *static* predicate
/// component (see [`StaticComponents`]); a rule can only match and derive
/// atoms whose predicates lie in its own component, so per-group fixpoints
/// produce exactly the same universe as one global fixpoint — the static
/// analysis *seeds* the dynamic one.
///
/// Returns `Ok(None)` (flat fallback) when a distribution errors (the flat
/// path will surface it) or the universe passes `cap` atoms; the cap is
/// checked once per round. Saturation rounds are cancellation checkpoints; a
/// cancelled analysis cannot fall back to the flat path (the flat chase
/// would just burn the rest of the deadline), so it surfaces as a typed
/// interruption.
fn universe_of_group(
    rules: &[&TgdRule],
    schemas: &[&AtrSchema],
    budget: &ChaseBudget,
    cap: usize,
    cancel: &CancelToken,
) -> Result<Option<Universe>, CoreError> {
    let mut pairs: AtrPairs = Vec::new();
    let mut complete = true;
    let mut support_cut = false;
    let max_branching = budget.max_branching;
    let rules = saturate_impl(
        rules,
        GroundRuleSet::new(),
        None,
        None,
        cancel,
        |heads, new_heads, results| {
            if heads.len() > cap {
                complete = false;
                return false;
            }
            for schema in schemas {
                for active in new_heads.atoms_of(&schema.active) {
                    let Ok(outcomes) = schema.outcomes(active, max_branching.saturating_add(1))
                    else {
                        complete = false;
                        return false;
                    };
                    support_cut |= outcomes.len() > max_branching;
                    let first = results.len();
                    results.extend(
                        outcomes
                            .into_iter()
                            .take(max_branching)
                            .map(|(outcome, _)| schema.result_atom(active, outcome)),
                    );
                    pairs.push((active.clone(), results[first..].to_vec()));
                }
            }
            true
        },
    );
    if cancel.is_cancelled() {
        return Err(CoreError::Interrupted("factor analysis".into()));
    }
    Ok(complete.then_some(Universe {
        rules,
        pairs,
        support_cut,
    }))
}

/// Partition a universe into connected components of the dependency
/// graph: star edges `head — footprint atom` per rule instance plus
/// `active — result` edges per AtR expansion.
fn partition(sigma: &SigmaPi, universe: &GroundRuleSet, pairs: &AtrPairs) -> Vec<Part> {
    let atoms: Vec<GroundAtom> = universe.heads().canonical_atoms();
    let index: HashMap<&GroundAtom, usize> =
        atoms.iter().enumerate().map(|(i, a)| (a, i)).collect();
    let index = &index;
    // Negative atoms outside the universe can never be derived: the literal
    // is vacuously true in every component, no dependency.
    let rule_edges = universe.iter().flat_map(|rule| {
        let hub = index[&rule.head];
        let footprint = rule.pos.iter().chain(&rule.neg);
        footprint.filter_map(move |atom| index.get(atom).map(|&i| (hub, i)))
    });
    let pair_edges = pairs.iter().flat_map(|(active, results)| {
        let hub = index[active];
        results.iter().map(move |result| (hub, index[result]))
    });
    connected_components(atoms.len(), rule_edges.chain(pair_edges))
        .into_iter()
        .map(|vs| {
            let set: BTreeSet<GroundAtom> = vs.iter().map(|&v| atoms[v].clone()).collect();
            let triggers = set
                .iter()
                .filter(|a| sigma.is_active_predicate(&a.predicate))
                .cloned()
                .collect();
            (set, triggers)
        })
        .collect()
}

/// Cut Σ into one slice per part, in one pass over its rules. A rule with
/// an empty positive body is ground by safety and fires unconditionally in
/// the universe, so its head is an atom of exactly one part, whose slice
/// gets it; every other rule goes to every slice. A slice's chase therefore
/// starts from its own part's atoms only, and every rule instance it fires
/// has its whole footprint in that part.
fn slice(sigma: &SigmaPi, parts: Vec<Part>, support_cut: bool) -> Vec<ChaseComponent> {
    let owner: HashMap<&GroundAtom, usize> = parts
        .iter()
        .enumerate()
        .flat_map(|(i, (atoms, _))| atoms.iter().map(move |a| (a, i)))
        .collect();
    let mut rules: Vec<Vec<TgdRule>> = vec![Vec::new(); parts.len()];
    for rule in &sigma.rules {
        let head = if rule.pos.is_empty() {
            rule.head.to_ground().ok()
        } else {
            None
        };
        match head {
            Some(head) => rules[owner[&head]].push(rule.clone()),
            None => rules.iter_mut().for_each(|r| r.push(rule.clone())),
        }
    }
    parts
        .into_iter()
        .zip(rules)
        .map(|((atoms, triggers), rules)| ChaseComponent {
            atoms,
            triggers,
            slice: Arc::new(sigma.slice(rules)),
            support_cut,
        })
        .collect()
}

/// How [`analyze_with`] reached its verdict: `Static` means the static
/// predicate-level analysis alone decided (no universe saturation ran at
/// all), `Dynamic` means saturation ran (seeded per static component).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactorAnalysis {
    /// Decided without any saturation: a `min_path_probability` cut is set,
    /// or [`certainly_single_trigger`] proved the flat fallback.
    Static,
    /// The saturation-based analysis ran, seeded by the static components.
    Dynamic,
}

impl FactorAnalysis {
    /// Lowercase label for reports (`static` / `dynamic`).
    pub fn label(&self) -> &'static str {
        match self {
            FactorAnalysis::Static => "static",
            FactorAnalysis::Dynamic => "dynamic",
        }
    }
}

/// The chase-independence analysis: the components an independent
/// per-component chase would run, or `None` when the program should take
/// the flat path — fewer than two trigger-bearing components, a positive
/// `min_path_probability` (joint-mass cuts do not factorize), a
/// distribution error, or a universe beyond the analysis cap — plus the
/// [`FactorAnalysis`] verdict describing how it was reached.
///
/// Trigger-free components (the deterministic skeleton: facts and atoms
/// derivable without any choice) are merged into one final factor so that
/// every rule of every outcome lands in exactly one factor.
///
/// Static short-circuits (no saturation): a positive `min_path_probability`
/// (joint-mass cuts never factorize) or the [`certainly_single_trigger`]
/// certificate (at most one trigger means at most one trigger-bearing
/// component, which is exactly the dynamic analysis's flat-fallback
/// condition — skipping saturation cannot change the outcome).
///
/// Otherwise the saturation fixpoint runs once per *static* component
/// (rules and AtR schemas grouped by [`StaticComponents`]; every rule's
/// predicates share one static component by construction, so the grouped
/// fixpoints reproduce the global universe exactly), the per-group ground
/// partitions are concatenated and re-sorted into the canonical
/// smallest-atom order, and the usual trigger-bearing/base split applies —
/// byte-identical components to the unseeded global analysis.
pub fn analyze_with(
    sigma: &SigmaPi,
    budget: &ChaseBudget,
) -> Result<(Option<Vec<ChaseComponent>>, FactorAnalysis), CoreError> {
    analyze_cancellable(sigma, budget, &CancelToken::never())
}

/// [`analyze_with`] with a cooperative cancellation token checked once per
/// universe-saturation round. A cancelled analysis returns
/// [`CoreError::Interrupted`] rather than silently taking the flat fallback
/// (which would start a full flat chase against an already-expired deadline).
pub fn analyze_cancellable(
    sigma: &SigmaPi,
    budget: &ChaseBudget,
    cancel: &CancelToken,
) -> Result<(Option<Vec<ChaseComponent>>, FactorAnalysis), CoreError> {
    if budget.min_path_probability > 0.0 {
        return Ok((None, FactorAnalysis::Static));
    }
    if certainly_single_trigger(sigma) {
        return Ok((None, FactorAnalysis::Static));
    }

    // Seed the dynamic analysis: group Σ∄ rules and AtR schemas by static
    // predicate component and saturate each group independently.
    let statics = StaticComponents::of_sigma(sigma);
    let mut groups: BTreeMap<usize, (Vec<&TgdRule>, Vec<&AtrSchema>)> = BTreeMap::new();
    for rule in &sigma.rules {
        let c = statics
            .component_of(&rule.head.predicate)
            .expect("every rule head is a static-graph vertex");
        groups.entry(c).or_default().0.push(rule);
    }
    for schema in sigma.atr_schemas() {
        let c = statics
            .component_of(&schema.active)
            .expect("every Active predicate is a static-graph vertex");
        groups.entry(c).or_default().1.push(schema);
    }

    let mut raw: Vec<Part> = Vec::new();
    let mut cap = UNIVERSE_ATOM_CAP;
    let mut support_cut = false;
    for (rules, schemas) in groups.values() {
        let Some(universe) = universe_of_group(rules, schemas, budget, cap, cancel)? else {
            return Ok((None, FactorAnalysis::Dynamic));
        };
        cap = cap.saturating_sub(universe.rules.heads().len());
        support_cut |= universe.support_cut;
        raw.extend(partition(sigma, &universe.rules, &universe.pairs));
    }
    // Canonical order: by smallest atom, as the global partition produces.
    raw.sort_by(|a, b| a.0.first().cmp(&b.0.first()));

    let (with_triggers, without): (Vec<_>, Vec<_>) = raw
        .into_iter()
        .partition(|(_, triggers)| !triggers.is_empty());
    if with_triggers.len() <= 1 {
        return Ok((None, FactorAnalysis::Dynamic));
    }
    let mut parts = with_triggers;
    if !without.is_empty() {
        let base = without.into_iter().flat_map(|(atoms, _)| atoms).collect();
        parts.push((base, BTreeSet::new()));
    }
    Ok((
        Some(slice(sigma, parts, support_cut)),
        FactorAnalysis::Dynamic,
    ))
}

/// A grounder restricted to one chase component: grounding delegates to the
/// inner grounder unchanged, but only the component's own `Active` atoms
/// count as triggers — the chase branches over this component's choices and
/// terminates with every other component's `Active` atoms left undefined.
///
/// The solve path no longer uses it: each factor is chased over its own
/// [`ChaseComponent::slice`]. It stays public only because the benchmark's
/// layer-by-layer decomposition (`perfbench`) names it, and it is the
/// whole-program reference the slice-equivalence tests compare against;
/// it goes with that decomposition.
pub struct ComponentGrounder<'a> {
    inner: &'a dyn Grounder,
    triggers: &'a BTreeSet<GroundAtom>,
}

impl<'a> ComponentGrounder<'a> {
    /// Restrict `inner` to the given trigger set.
    ///
    /// `inner` must saturate past undefined triggers (the simple grounder
    /// does; the perfect grounder intentionally stalls at the stratum of an
    /// undefined trigger and would never derive later strata of this
    /// component).
    pub fn new(inner: &'a dyn Grounder, triggers: &'a BTreeSet<GroundAtom>) -> Self {
        ComponentGrounder { inner, triggers }
    }
}

impl Grounder for ComponentGrounder<'_> {
    fn sigma(&self) -> &SigmaPi {
        self.inner.sigma()
    }

    fn name(&self) -> &'static str {
        "component"
    }

    fn ground(&self, atr: &AtrSet) -> GroundRuleSet {
        self.inner.ground(atr)
    }

    fn ground_node(&self, atr: &AtrSet) -> Grounding {
        self.inner.ground_node(atr)
    }

    fn ground_from(&self, atr: &AtrSet, parent_atr: &AtrSet, parent: &mut Grounding) -> Grounding {
        self.inner.ground_from(atr, parent_atr, parent)
    }

    fn triggers(&self, atr: &AtrSet, rules: &GroundRuleSet) -> Vec<GroundAtom> {
        self.inner
            .triggers(atr, rules)
            .into_iter()
            .filter(|a| self.triggers.contains(a))
            .collect()
    }
}

/// One solved factor: the component's atoms and its output space.
pub struct Factor {
    /// The component's universe atoms, for routing query atoms to factors.
    /// A product of one factor routes every atom to it, so the flat path
    /// leaves this empty.
    pub atoms: BTreeSet<GroundAtom>,
    /// The component's own output probability space.
    pub space: OutputSpace,
}

/// The output space every solve answers from: the product of per-component
/// output spaces, never materialized into a flat cross product. All queries
/// answer by per-factor lookup and exact [`Prob`] factor multiplication.
///
/// A flat solve is the product of one factor, and such a product answers
/// byte-for-byte as that factor's [`OutputSpace`]: the same fingerprint,
/// the chase's own residual, the same event listing and masses.
pub struct FactoredOutputSpace {
    factors: Vec<Factor>,
    /// Per factor: `P(sms ≠ ∅)` within the explored mass.
    nonempty: Vec<Prob>,
    /// Per factor: explored mass.
    explored: Vec<Prob>,
    /// Per factor: does the "no stable model" event occur?
    has_empty: Vec<bool>,
    /// Per factor, the Σ_Π slice it was chased over, which Monte-Carlo
    /// walks of its atoms sample; empty when the product keeps none (a
    /// one-factor product, or a cut support: walks cover the whole program).
    slices: Vec<Arc<SigmaPi>>,
    /// Input of the lazy top-k merge ([`top_k_tuples`]), built on first
    /// use: per factor, the `(index, mass)` pairs of its nonempty events in
    /// its [`OutputSpace::events_by_mass`] listing order.
    nonempty_events: OnceLock<Vec<Vec<(usize, Prob)>>>,
    /// Computed on first use, then shared by every query.
    fingerprint: OnceLock<String>,
}

impl FactoredOutputSpace {
    /// Assemble the product space, computing once the per-factor values
    /// every query reads.
    pub fn new(factors: Vec<Factor>) -> Self {
        let nonempty = factors
            .iter()
            .map(|f| f.space.has_stable_model_probability())
            .collect();
        let explored = factors.iter().map(|f| f.space.explored_mass()).collect();
        let has_empty = factors
            .iter()
            .map(|f| f.space.events_by_mass().iter().any(|(k, _)| k.is_empty()))
            .collect();
        FactoredOutputSpace {
            factors,
            nonempty,
            explored,
            has_empty,
            slices: Vec::new(),
            nonempty_events: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Attach the slice each factor was chased over, one per factor.
    pub(crate) fn with_slices(mut self, slices: Vec<Arc<SigmaPi>>) -> Self {
        debug_assert_eq!(slices.len(), self.factors.len());
        self.slices = slices;
        self
    }

    /// The Σ_Π slice each factor was chased over, if the product keeps them.
    pub(crate) fn slices(&self) -> Option<&[Arc<SigmaPi>]> {
        (!self.slices.is_empty()).then_some(self.slices.as_slice())
    }

    /// The space of a product of one factor.
    fn only(&self) -> Option<&OutputSpace> {
        match self.factors.as_slice() {
            [only] => Some(&only.space),
            _ => None,
        }
    }

    /// Number of factors.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// The factors.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Joint outcomes the flat chase would have enumerated: the product of
    /// the per-factor outcome counts, saturating at `u128::MAX`.
    pub fn combined_outcomes(&self) -> u128 {
        self.factors.iter().fold(1u128, |acc, f| {
            acc.saturating_mul(f.space.outcome_count() as u128)
        })
    }

    /// Outcomes actually stored: the *sum* of the per-factor counts.
    pub fn stored_outcomes(&self) -> usize {
        self.factors.iter().map(|f| f.space.outcome_count()).sum()
    }

    /// Chase-tree nodes visited, summed over the factors' chases.
    pub fn nodes_visited(&self) -> usize {
        self.factors.iter().map(|f| f.space.nodes_visited()).sum()
    }

    /// Distinct joint events. Nonempty joint keys are in bijection with
    /// tuples of nonempty per-factor keys (projecting onto the disjoint atom
    /// sets recovers the tuple); every tuple with at least one empty key
    /// collapses into the single "no stable model" event.
    pub fn combined_events(&self) -> u128 {
        let mut nonempty_product = 1u128;
        for (f, &has_empty) in self.factors.iter().zip(&self.has_empty) {
            let events = f.space.event_count() - usize::from(has_empty);
            nonempty_product = nonempty_product.saturating_mul(events as u128);
        }
        let any_empty = self.has_empty.iter().any(|&e| e);
        nonempty_product.saturating_add(u128::from(any_empty))
    }

    /// Explored joint mass: the product of the per-factor explored masses.
    pub fn explored_mass(&self) -> Prob {
        Prob::product(self.explored.iter().copied())
    }

    /// Joint residual: the chase's own residual for one factor, otherwise
    /// `1 − ∏ exploredᵢ`, clamped at zero against float dust.
    pub fn residual_mass(&self) -> Prob {
        match self.only() {
            Some(space) => space.residual_mass(),
            None => clamp_at_zero(Prob::ONE.sub(&self.explored_mass())),
        }
    }

    /// Did any factor's chase hit its budget?
    pub fn is_truncated(&self) -> bool {
        self.factors.iter().any(|f| f.space.is_truncated())
    }

    /// Was any factor's chase cut short by cancellation? Interrupted results
    /// are timing-dependent and must never be treated as golden.
    pub fn is_interrupted(&self) -> bool {
        self.factors.iter().any(|f| f.space.is_interrupted())
    }

    /// `P(sms ≠ ∅)` of the joint program: a union of disjoint programs has a
    /// stable model iff every part does, so the per-factor probabilities
    /// multiply.
    pub fn has_stable_model_probability(&self) -> Prob {
        Prob::product(self.nonempty.iter().copied())
    }

    /// The factor whose atom set contains `atom`, if any; the only factor
    /// of a one-factor product. An atom no factor holds is underivable.
    pub(crate) fn factor_of(&self, atom: &GroundAtom) -> Option<usize> {
        if self.factors.len() == 1 {
            return Some(0);
        }
        self.factors.iter().position(|f| f.atoms.contains(atom))
    }

    /// `P(every listed atom is brave in the joint key)`: a joint model is a
    /// union of per-factor models, so atom `a` of factor `j` is in some
    /// joint model iff it is in some factor-`j` model *and* every other
    /// factor is nonempty. Atoms sharing a factor must be witnessed jointly
    /// within it; an atom in no factor is underivable and the probability is
    /// zero.
    pub fn probability_brave_all(&self, atoms: &[GroundAtom]) -> Prob {
        self.probability_grouped(atoms, |key, group| group.iter().all(|a| key.brave(a)))
    }

    /// `P(every listed atom is cautious in the joint key)` — the same
    /// factor-wise decomposition with the cautious test per factor.
    pub fn probability_cautious_all(&self, atoms: &[GroundAtom]) -> Prob {
        self.probability_grouped(atoms, |key, group| group.iter().all(|a| key.cautious(a)))
    }

    fn probability_grouped<F>(&self, atoms: &[GroundAtom], test: F) -> Prob
    where
        F: Fn(&ModelSetKey, &[&GroundAtom]) -> bool,
    {
        let mut by_factor: BTreeMap<usize, Vec<&GroundAtom>> = BTreeMap::new();
        for atom in atoms {
            match self.factor_of(atom) {
                Some(j) => by_factor.entry(j).or_default().push(atom),
                None => return Prob::ZERO,
            }
        }
        let mut p = Prob::ONE;
        for (i, f) in self.factors.iter().enumerate() {
            let factor_mass = match by_factor.get(&i) {
                Some(group) => f.space.probability_where(|k| test(k, group)),
                None => self.nonempty[i],
            };
            p = p.mul(&factor_mass);
        }
        p
    }

    /// `P(atom ∈ some joint stable model)`.
    pub fn brave_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_brave_all(std::slice::from_ref(atom))
    }

    /// `P(atom ∈ every joint stable model, and one exists)`.
    pub fn cautious_probability(&self, atom: &GroundAtom) -> Prob {
        self.probability_cautious_all(std::slice::from_ref(atom))
    }

    /// Probability mass of one joint event: a one-factor product reads it
    /// off its factor. Otherwise the empty key is the union of every tuple
    /// with at least one empty factor: `∏ exploredᵢ − ∏ nonemptyᵢ`. A
    /// nonempty key is a product event iff the product of its per-factor
    /// projections reconstructs it, with mass the product of the projection
    /// masses; any other key has mass zero.
    pub fn event_probability(&self, key: &ModelSetKey) -> Prob {
        if let Some(space) = self.only() {
            return space.event_probability(key);
        }
        if key.is_empty() {
            return clamp_at_zero(
                self.explored_mass()
                    .sub(&self.has_stable_model_probability()),
            );
        }
        let mut mass = Prob::ONE;
        let mut projections: Vec<ModelSetKey> = Vec::with_capacity(self.factors.len());
        for f in &self.factors {
            let projection = key.filter_atoms(|a| f.atoms.contains(a));
            mass = mass.mul(&f.space.event_probability(&projection));
            projections.push(projection);
        }
        let refs: Vec<&ModelSetKey> = projections.iter().collect();
        if ModelSetKey::product(&refs) != *key {
            return Prob::ZERO;
        }
        mass
    }

    /// The `k` heaviest joint events in the flat (mass-descending,
    /// key-ascending) order: a one-factor product lists its factor's
    /// events; otherwise a lazy k-way product merge runs over the
    /// per-factor *nonempty* events, plus the single collapsed "no stable
    /// model" event with its closed-form mass.
    ///
    /// Equal-mass ties are normalized by fetching `TOP_K_TIE_SLACK` extra
    /// candidates and re-sorting; the listing matches the flat
    /// `events_by_mass` prefix exactly whenever the tie class crossing the
    /// cut fits in the slack (always true when `k` covers all events).
    pub fn events_by_mass_top(&self, k: usize) -> Vec<(ModelSetKey, Prob)> {
        if let Some(space) = self.only() {
            return space.events_by_mass().iter().take(k).cloned().collect();
        }
        if k == 0 {
            return Vec::new();
        }
        let nonempty_events = self.nonempty_events.get_or_init(|| {
            self.factors
                .iter()
                .map(|f| {
                    f.space
                        .events_by_mass()
                        .iter()
                        .enumerate()
                        .filter(|(_, (key, _))| !key.is_empty())
                        .map(|(i, (_, mass))| (i, *mass))
                        .collect()
                })
                .collect()
        });
        let mut out: Vec<(ModelSetKey, Prob)> =
            top_k_tuples(nonempty_events, k.saturating_add(TOP_K_TIE_SLACK))
                .into_iter()
                .map(|(indices, mass)| {
                    let parts: Vec<&ModelSetKey> = self
                        .factors
                        .iter()
                        .zip(indices)
                        .map(|(f, i)| &f.space.events_by_mass()[i].0)
                        .collect();
                    (ModelSetKey::product(&parts), mass)
                })
                .collect();
        let empty_mass = self.event_probability(&ModelSetKey::empty());
        if empty_mass.is_positive() {
            out.push((ModelSetKey::empty(), empty_mass));
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Every atom with the given predicate name occurring in any factor's
    /// stable models (for marginal reports).
    pub fn atoms_with_predicate(&self, name: &str) -> BTreeSet<GroundAtom> {
        let mut atoms = BTreeSet::new();
        for f in &self.factors {
            for (key, _) in f.space.events_by_mass() {
                for model in key.models() {
                    for atom in model {
                        if atom.predicate.name() == name {
                            atoms.insert(atom.clone());
                        }
                    }
                }
            }
        }
        atoms
    }

    /// A deterministic fingerprint of the product space, computed once: a
    /// one-factor product has its factor's [`OutputSpace::fingerprint`];
    /// otherwise FNV-1a over the per-factor fingerprints plus the factor
    /// count.
    pub fn fingerprint(&self) -> String {
        self.fingerprint
            .get_or_init(|| match self.only() {
                Some(space) => space.fingerprint(),
                None => crate::fingerprint::fnv1a_fingerprint(
                    self.factors
                        .iter()
                        .map(|f| format!("factor={};", f.space.fingerprint()))
                        .chain(std::iter::once(format!("factors={};", self.factors.len()))),
                ),
            })
            .clone()
    }
}

/// Zero for negative float dust, the value otherwise.
fn clamp_at_zero(p: Prob) -> Prob {
    if p.to_f64() < 0.0 {
        Prob::ZERO
    } else {
        p
    }
}

/// A heap entry of the lazy product merge: a joint position tuple and its
/// mass. Ordered by mass (descending pops first), ties broken toward the
/// lexicographically smallest tuple so the listing is deterministic.
struct Candidate {
    mass: Prob,
    /// The tuple's nonzero coordinates as `(factor, position)` pairs in
    /// ascending factor order; every other coordinate is zero.
    nonzero: Vec<(usize, usize)>,
    /// The masses of the coordinates before the last nonzero one, folded
    /// in factor order (`Prob::ONE` for the all-zeros tuple).
    head: Prob,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: larger mass wins; among equal masses the
        // smaller position tuple must pop first, so reverse the tuple order.
        self.mass
            .total_cmp(&other.mass)
            .then_with(|| tuple_cmp(&other.nonzero, &self.nonzero))
    }
}

/// Lexicographic order of two position tuples given by their nonzero
/// coordinates. At the first differing entry, the tuple whose nonzero
/// coordinate sits at the smaller factor is larger there (the other tuple
/// holds a zero); a tuple that runs out first has zeros where the other
/// still has nonzero coordinates.
fn tuple_cmp(a: &[(usize, usize)], b: &[(usize, usize)]) -> Ordering {
    for (&(fa, ia), &(fb, ib)) in a.iter().zip(b) {
        match fb.cmp(&fa).then(ia.cmp(&ib)) {
            Ordering::Equal => {}
            unequal => return unequal,
        }
    }
    a.len().cmp(&b.len())
}

/// The `k` heaviest joint tuples of a product of independent mass
/// listings, without materializing the cross product. Each listing holds
/// one factor's `(index, mass)` pairs sorted by descending mass (ties in
/// ascending index order), as [`OutputSpace::events_by_mass`] lists them.
/// A joint tuple comes back as one index per factor with the product mass
/// folded in factor order, in (mass-descending, position-tuple-ascending)
/// order. Returns fewer than `k` tuples only when the whole product has
/// fewer; an empty listing makes the product empty.
///
/// A lazy best-first merge over per-factor position tuples (a k-way
/// generalization of pairwise merge). The listings are sorted, so the
/// all-zeros tuple is the joint maximum. Every other tuple has one
/// *canonical parent*: the tuple with its last nonzero coordinate
/// decremented. That parent is at least as heavy and lexicographically
/// smaller, so it precedes the child in the listing order. A pop therefore
/// pushes only its canonical children — `t + e_f` for every factor `f` at
/// or after its last nonzero coordinate — and the heap still pops exactly
/// that order: each tuple is pushed once, by its parent, and no visited
/// set is needed. A child's mass extends its parent's folded prefix
/// instead of refolding all `m` factors, so a pop costs at most `m`
/// pushes, however large the full product is.
fn top_k_tuples(listings: &[Vec<(usize, Prob)>], k: usize) -> Vec<(Vec<usize>, Prob)> {
    if k == 0 || listings.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    // The mass of a tuple whose coordinates from `from` on are all zero,
    // given the fold of the ones before: `prefix` folded on through each
    // later factor's heaviest entry, in the order `Prob::product` over the
    // whole tuple would use.
    let zeros: Vec<Prob> = listings.iter().map(|l| l[0].1).collect();
    let fold_zeros =
        |prefix: Prob, from: usize| zeros[from..].iter().fold(prefix, |acc, z| acc.mul(z));

    let mut heap = BinaryHeap::new();
    heap.push(Candidate {
        mass: fold_zeros(Prob::ONE, 0),
        nonzero: Vec::new(),
        head: Prob::ONE,
    });
    let size = listings
        .iter()
        .fold(1usize, |acc, l| acc.saturating_mul(l.len()));
    let mut out = Vec::with_capacity(k.min(size));
    while out.len() < k {
        let Some(Candidate {
            mass,
            nonzero,
            head,
        }) = heap.pop()
        else {
            break;
        };
        // The canonical children: bump the last nonzero coordinate
        // (coordinate 0 for the all-zeros tuple), or set a later one to 1.
        // `prefix` is the fold of the coordinates before `f`.
        let (last, at) = nonzero.last().copied().unwrap_or((0, 0));
        let mut prefix = head;
        for (f, l) in listings.iter().enumerate().skip(last) {
            let i = if f == last { at } else { 0 };
            if let Some(next) = l.get(i + 1) {
                let mut child = Vec::with_capacity(nonzero.len() + 1);
                child.extend_from_slice(&nonzero);
                match child.last_mut() {
                    Some(entry) if f == last => entry.1 += 1,
                    _ => child.push((f, 1)),
                }
                heap.push(Candidate {
                    mass: fold_zeros(prefix.mul(&next.1), f + 1),
                    nonzero: child,
                    head: prefix,
                });
            }
            prefix = prefix.mul(&l[i].1);
        }
        let mut indices: Vec<usize> = listings.iter().map(|l| l[0].0).collect();
        for &(f, i) in &nonzero {
            indices[f] = listings[f][i].0;
        }
        out.push((indices, mass));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::chase::ChaseBudget;
    use crate::pipeline::Pipeline;
    use crate::program::{coin_program, Program};
    use gdlog_data::{Const, Database, Term};
    use gdlog_prob::Prob;

    /// `n` independent coins: `Coin(i)` facts, `Coin(x) → Toss(x, Flip⟨p⟩[x])`,
    /// `Toss(x, 1) → Tails(x)`. With `gadget`, an even-loop on tails gives
    /// each tails factor two stable models — use only at small `n`: a joint
    /// outcome with `k` tails genuinely has `2^k` stable models, so *flat*
    /// solving (and materializing joint keys) is exponential in `k`.
    fn coin_farm(n: i64, gadget: bool) -> (Program, Database) {
        let half = Term::Const(Const::real(0.5).expect("finite"));
        let mut builder = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![half],
                    vec![Term::var("x")],
                )
            })
            .rule(|r| {
                r.body("Toss", vec![Term::var("x"), Term::int(1)])
                    .head("Tails", vec![Term::var("x")])
            });
        if gadget {
            builder = builder
                .rule(|r| {
                    r.body("Tails", vec![Term::var("x")])
                        .not_body("Odd", vec![Term::var("x")])
                        .head("Even", vec![Term::var("x")])
                })
                .rule(|r| {
                    r.body("Tails", vec![Term::var("x")])
                        .not_body("Even", vec![Term::var("x")])
                        .head("Odd", vec![Term::var("x")])
                });
        }
        let program = builder.build().expect("valid program");
        let mut db = Database::new();
        for i in 1..=n {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        (program, db)
    }

    fn atom(name: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::make(name, args.iter().map(|&i| Const::Int(i)).collect())
    }

    #[test]
    fn independent_coins_split_into_one_component_each() {
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let components = pipeline
            .factor_components()
            .unwrap()
            .expect("four independent coins must factor");
        assert_eq!(components.len(), 4);
        for c in &components {
            assert_eq!(c.triggers.len(), 1, "one Flip choice per coin");
            assert!(c.atoms.len() >= 5, "Coin, Active, Results, Tosses, Tails");
        }
        // Component atoms partition the universe.
        let mut seen: BTreeSet<GroundAtom> = BTreeSet::new();
        for c in &components {
            for a in &c.atoms {
                assert!(seen.insert(a.clone()), "components must be disjoint");
            }
        }
    }

    #[test]
    fn coupled_programs_fall_back_to_flat() {
        // The coin program has a single choice: nothing to factor.
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        assert!(pipeline.factor_components().unwrap().is_none());

        // A zero-arity coupler welds all coins into one component.
        let half = Term::Const(Const::real(0.5).expect("finite"));
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![half],
                    vec![Term::var("x")],
                )
            })
            .rule(|r| {
                r.body("Toss", vec![Term::var("x"), Term::int(1)])
                    .head("SomeTails", vec![])
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        for i in 1..=3 {
            db.insert_fact("Coin", [Const::Int(i)]);
        }
        let pipeline = Pipeline::new(&program, &db).unwrap();
        assert!(pipeline.factor_components().unwrap().is_none());

        // Joint-mass cuts do not factorize.
        let (program, db) = coin_farm(3, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let budget = ChaseBudget {
            min_path_probability: 0.01,
            ..ChaseBudget::default()
        };
        assert!(pipeline
            .budget(budget)
            .factor_components()
            .unwrap()
            .is_none());
    }

    #[test]
    fn analysis_verdicts_static_vs_dynamic() {
        // Coin program: one ground Δ-fact, so the static certificate decides
        // without any saturation.
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        let (components, verdict) =
            analyze_with(pipeline.sigma(), &ChaseBudget::default()).unwrap();
        assert!(components.is_none());
        assert_eq!(verdict, FactorAnalysis::Static);
        assert_eq!(verdict.label(), "static");

        // Coin farm: per-coin event variables defeat the certificate; the
        // seeded dynamic analysis finds the four components.
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let (components, verdict) =
            analyze_with(pipeline.sigma(), &ChaseBudget::default()).unwrap();
        assert_eq!(verdict, FactorAnalysis::Dynamic);
        assert_eq!(verdict.label(), "dynamic");
        assert_eq!(components.expect("factors").len(), 4);

        // A joint-mass cut is decided statically too.
        let budget = ChaseBudget {
            min_path_probability: 0.01,
            ..ChaseBudget::default()
        };
        let (components, verdict) = analyze_with(pipeline.sigma(), &budget).unwrap();
        assert!(components.is_none());
        assert_eq!(verdict, FactorAnalysis::Static);
    }

    #[test]
    fn cancelled_analysis_is_interrupted_not_flat() {
        let (program, db) = coin_farm(4, true);
        let cancel = CancelToken::new();
        cancel.cancel();
        let pipeline = Pipeline::new(&program, &db).unwrap().with_cancel(cancel);
        match pipeline.factor_analysis() {
            Err(CoreError::Interrupted(what)) => assert_eq!(what, "factor analysis"),
            other => panic!("expected an interruption, got {:?}", other.map(|r| r.1)),
        }
        // The component listing and count poll the same token.
        assert!(matches!(
            pipeline.factor_components(),
            Err(CoreError::Interrupted(_))
        ));
        assert!(matches!(
            pipeline.factor_count(),
            Err(CoreError::Interrupted(_))
        ));
    }

    #[test]
    fn data_driven_distribution_error_falls_back_to_flat() {
        // `Flip⟨p⟩` with p read from the data: 2 and 3 are out of range, which
        // only the universe expansion discovers.
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x"), Term::var("p")])
                    .head_with_delta(
                        "Toss",
                        vec![Term::var("x")],
                        "Flip",
                        vec![Term::var("p")],
                        vec![Term::var("x")],
                    )
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        db.insert_fact("Coin", [Const::Int(1), Const::Int(2)]);
        db.insert_fact("Coin", [Const::Int(2), Const::Int(3)]);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let (components, verdict) = pipeline.factor_analysis().unwrap();
        assert!(components.is_none());
        assert_eq!(verdict, FactorAnalysis::Dynamic);

        let Err(flat) = pipeline.solve() else {
            panic!("the flat chase must fail");
        };
        let Err(factored) = pipeline.solve_with(crate::api::SolveStrategy::Factored) else {
            panic!("the factored solve must fail");
        };
        assert!(
            flat.to_string().contains("Flip: invalid parameter"),
            "{flat}"
        );
        assert_eq!(factored.to_string(), flat.to_string());
    }

    #[test]
    fn universe_past_the_cap_falls_back_to_flat() {
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let sigma = pipeline.sigma();
        let rules: Vec<&TgdRule> = sigma.rules.iter().collect();
        let schemas: Vec<&AtrSchema> = sigma.atr_schemas().iter().collect();
        let budget = ChaseBudget::default();
        let never = CancelToken::never();
        assert!(universe_of_group(&rules, &schemas, &budget, 5, &never)
            .unwrap()
            .is_none());
        assert!(universe_of_group(&rules, &schemas, &budget, 1_000, &never)
            .unwrap()
            .is_some());
    }

    #[test]
    fn factored_solve_matches_flat_exactly() {
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let flat = pipeline.solve().unwrap();
        let factored = pipeline.solve_factored().unwrap();
        assert_eq!(factored.factor_count(), 4);
        assert_eq!(factored.combined_outcomes(), 16);
        assert_eq!(
            factored.has_stable_model_probability(),
            flat.has_stable_model_probability()
        );
        assert_eq!(factored.explored_mass(), flat.explored_mass());
        assert_eq!(factored.residual_mass(), flat.residual_mass());
        assert_eq!(factored.is_truncated(), flat.is_truncated());
        assert_eq!(factored.combined_events() as usize, flat.event_count());

        for i in 1..=4 {
            for name in ["Coin", "Tails", "Even", "Odd"] {
                let a = atom(name, &[i]);
                assert_eq!(
                    factored.brave_probability(&a),
                    flat.brave_probability(&a),
                    "brave({name}({i}))"
                );
                assert_eq!(
                    factored.cautious_probability(&a),
                    flat.cautious_probability(&a),
                    "cautious({name}({i}))"
                );
            }
        }

        // Joint (conditional-style) queries decompose across factors.
        let t1 = atom("Tails", &[1]);
        let t2 = atom("Tails", &[2]);
        assert_eq!(
            factored.probability_brave_all(&[t1.clone(), t2.clone()]),
            flat.probability_where(|k| k.brave(&t1) && k.brave(&t2))
        );

        // Full event listings agree (k covers all events, so the tie
        // normalization is total).
        let flat_events = flat.events_by_mass();
        let factored_events = factored.events_by_mass_top(flat_events.len() + 8);
        assert_eq!(factored_events, flat_events);
        // Per-event masses agree through the product projection.
        for (key, mass) in flat_events {
            assert_eq!(factored.event_probability(key), *mass, "mass of {key}");
        }
        // An unrelated key has zero joint mass.
        let bogus = ModelSetKey::from_models(&[Database::from_atoms([atom("Nope", &[1])])]);
        assert_eq!(factored.event_probability(&bogus), Prob::ZERO);
        // An underivable atom is never brave.
        assert_eq!(factored.brave_probability(&atom("Nope", &[9])), Prob::ZERO);
    }

    #[test]
    fn factored_top_k_is_the_flat_prefix_at_every_cut() {
        // Four coins of unequal bias, each its own factor; a constraint
        // forbids coin 1's tails, so that factor has a "no stable model"
        // event and the closed-form ∅ mass (1/10) lands mid-listing. The
        // fair coin's even loop gives its tails event two stable models.
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x"), Term::var("p")])
                    .head_with_delta(
                        "Toss",
                        vec![Term::var("x")],
                        "Flip",
                        vec![Term::var("p")],
                        vec![Term::var("x")],
                    )
            })
            .rule(|r| {
                r.body("Toss", vec![Term::var("x"), Term::int(1)])
                    .head("Tails", vec![Term::var("x")])
            })
            .constraint(|c| c.body("Toss", vec![Term::int(1), Term::int(1)]))
            .rule(|r| {
                r.body("Tails", vec![Term::int(4)])
                    .not_body("Odd", vec![])
                    .head("Even", vec![])
            })
            .rule(|r| {
                r.body("Tails", vec![Term::int(4)])
                    .not_body("Even", vec![])
                    .head("Odd", vec![])
            })
            .build()
            .expect("valid program");
        let mut db = Database::new();
        for (i, p) in [(1, 0.1), (2, 0.3), (3, 0.4), (4, 0.5)] {
            db.insert_fact("Coin", [Const::Int(i), Const::real(p).expect("finite")]);
        }
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let flat = pipeline.solve().unwrap();
        let factored = pipeline.solve_factored().unwrap();
        assert_eq!(factored.factor_count(), 4);
        let flat_events = flat.events_by_mass();
        let empty = ModelSetKey::empty();
        let empty_rank = flat_events.iter().position(|(k, _)| *k == empty);
        assert!(
            matches!(empty_rank, Some(r) if r > 0 && r + 1 < flat_events.len()),
            "the ∅ event must sit strictly inside the listing: {empty_rank:?}"
        );
        let size = factored.combined_events() as usize;
        assert!(size >= flat_events.len());
        for k in 0..=size + 1 {
            assert_eq!(
                factored.events_by_mass_top(k),
                flat_events[..k.min(flat_events.len())],
                "top {k}"
            );
        }
    }

    #[test]
    fn single_component_is_byte_for_byte_flat() {
        let pipeline = Pipeline::new(&coin_program(), &Database::new()).unwrap();
        let flat = pipeline.solve().unwrap();
        let solved = pipeline.solve_factored().unwrap();
        assert_eq!(solved.factor_count(), 1);
        let space = &solved.factors()[0].space;
        assert_eq!(space.events_by_mass(), flat.events_by_mass());
        assert_eq!(space.fingerprint(), flat.fingerprint());
        assert_eq!(solved.fingerprint(), flat.fingerprint());
        assert_eq!(solved.events_by_mass_top(usize::MAX), flat.events_by_mass());
        assert_eq!(
            solved.nodes_visited(),
            pipeline.chase().unwrap().nodes_visited
        );
    }

    /// `→ Steps(Geometric⟨1/2⟩)` cut at four branches, a fair coin per step
    /// count, a constraint killing `Toss(1, 1)` and an even loop on
    /// `Steps(0)`: a truncated space with a residual, an empty event,
    /// multi-model keys and equal-mass ties.
    fn truncated_walk() -> OutputSpace {
        let half = || Term::Const(Const::real(0.5).expect("finite"));
        let program = ProgramBuilder::new()
            .rule(|r| r.head_with_delta("Steps", vec![], "Geometric", vec![half()], vec![]))
            .rule(|r| {
                r.body("Steps", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![half()],
                    vec![Term::var("x")],
                )
            })
            .constraint(|c| c.body("Toss", vec![Term::int(1), Term::int(1)]))
            .rule(|r| {
                r.body("Steps", vec![Term::int(0)])
                    .not_body("B", vec![])
                    .head("A", vec![])
            })
            .rule(|r| {
                r.body("Steps", vec![Term::int(0)])
                    .not_body("A", vec![])
                    .head("B", vec![])
            })
            .build()
            .expect("valid program");
        let budget = ChaseBudget {
            max_branching: 4,
            ..ChaseBudget::default()
        };
        Pipeline::new(&program, &Database::new())
            .unwrap()
            .budget(budget)
            .solve()
            .unwrap()
    }

    #[test]
    fn one_factor_product_answers_exactly_as_its_space() {
        let space = truncated_walk();
        assert!(space.is_truncated());
        assert!(space.residual_mass().is_positive());
        let empty = ModelSetKey::empty();
        assert!(space.event_probability(&empty).is_positive());

        let product = FactoredOutputSpace::new(vec![Factor {
            atoms: BTreeSet::new(),
            space: space.clone(),
        }]);
        assert_eq!(product.factor_count(), 1);
        assert_eq!(product.residual_mass(), space.residual_mass());
        assert_eq!(product.explored_mass(), space.explored_mass());
        assert_eq!(product.fingerprint(), space.fingerprint());
        assert_eq!(product.combined_events(), space.event_count() as u128);
        assert_eq!(product.combined_outcomes(), space.outcome_count() as u128);
        assert_eq!(product.nodes_visited(), space.nodes_visited());
        assert_eq!(
            product.has_stable_model_probability(),
            space.has_stable_model_probability()
        );
        assert_eq!(
            product.event_probability(&empty),
            space.event_probability(&empty)
        );

        let events = space.events_by_mass();
        for k in 0..=events.len() {
            assert_eq!(product.events_by_mass_top(k), events[..k], "top {k}");
        }
        let mut atoms = BTreeSet::new();
        for (key, mass) in events {
            assert_eq!(product.event_probability(key), *mass, "mass of {key}");
            atoms.extend(key.models().flatten().cloned());
        }
        // Every atom routes to the only factor, alone and in conjunctions.
        let atoms: Vec<GroundAtom> = atoms.into_iter().collect();
        for atom in &atoms {
            assert_eq!(
                product.probability_brave_all(std::slice::from_ref(atom)),
                space.brave_probability(atom),
                "brave({atom})"
            );
            assert_eq!(
                product.cautious_probability(atom),
                space.cautious_probability(atom),
                "cautious({atom})"
            );
        }
        for pair in atoms.windows(2) {
            assert_eq!(
                product.probability_brave_all(pair),
                space.probability_where(|k| pair.iter().all(|a| k.brave(a)))
            );
        }
    }

    #[test]
    fn factored_beats_the_flat_budget_wall() {
        // 20 coins: 2^20 joint outcomes — far beyond a 10k-outcome budget
        // flat, exactly solved factored (40 stored outcomes).
        let (program, db) = coin_farm(20, false);
        let budget = ChaseBudget {
            max_outcomes: 10_000,
            ..ChaseBudget::default()
        };
        let pipeline = Pipeline::new(&program, &db).unwrap().budget(budget);
        let flat = pipeline.solve().unwrap();
        assert!(flat.is_truncated(), "flat must hit the budget");
        assert!(flat.residual_mass().is_positive());

        let factored = pipeline.solve_factored().unwrap();
        assert_eq!(factored.factor_count(), 20);
        assert_eq!(factored.combined_outcomes(), 1u128 << 20);
        assert!(!factored.is_truncated(), "factored is exact");
        assert_eq!(factored.explored_mass(), Prob::ONE);
        assert_eq!(factored.residual_mass(), Prob::ZERO);
        assert_eq!(factored.has_stable_model_probability(), Prob::ONE);
        assert_eq!(factored.stored_outcomes(), 40);
        // Exact per-coin marginals at full depth.
        assert_eq!(
            factored.brave_probability(&atom("Tails", &[20])),
            Prob::ratio(1, 2)
        );
        // Top events of 2^20 equally heavy outcomes: each joint event has
        // mass 1/2^20 exactly.
        let top = factored.events_by_mass_top(3);
        assert_eq!(top.len(), 3);
        for (_, mass) in &top {
            assert_eq!(*mass, Prob::ratio(1, 1 << 20));
        }
    }

    #[test]
    fn deterministic_skeleton_lands_in_a_base_factor() {
        // Facts plus a deterministic rule chain with no choices attached,
        // alongside two independent coins.
        let half = Term::Const(Const::real(0.5).expect("finite"));
        let program = ProgramBuilder::new()
            .rule(|r| {
                r.body("Coin", vec![Term::var("x")]).head_with_delta(
                    "Toss",
                    vec![Term::var("x")],
                    "Flip",
                    vec![half],
                    vec![Term::var("x")],
                )
            })
            .rule(|r| {
                r.body("Edge", vec![Term::var("x"), Term::var("y")])
                    .head("Reach", vec![Term::var("y")])
            })
            .build()
            .unwrap();
        let mut db = Database::new();
        db.insert_fact("Coin", [Const::Int(1)]);
        db.insert_fact("Coin", [Const::Int(2)]);
        db.insert_fact("Edge", [Const::Int(7), Const::Int(8)]);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let factored = pipeline.solve_factored().unwrap();
        // Two coin factors plus the deterministic base factor.
        assert_eq!(factored.factor_count(), 3);
        assert_eq!(factored.has_stable_model_probability(), Prob::ONE);
        // The deterministic atom is certain — witnessed through the base
        // factor times the other factors' nonempty mass (all one).
        assert_eq!(factored.brave_probability(&atom("Reach", &[8])), Prob::ONE);
        assert_eq!(
            factored.cautious_probability(&atom("Reach", &[8])),
            Prob::ONE
        );
        // And it matches the flat answer.
        let flat = pipeline.solve().unwrap();
        assert_eq!(flat.brave_probability(&atom("Reach", &[8])), Prob::ONE);
        assert_eq!(factored.events_by_mass_top(16), flat.events_by_mass());
    }

    /// A factor's mass listing in [`OutputSpace::events_by_mass`] order:
    /// entry `i` of `masses` gets index `i`, sorted by descending mass with
    /// ties in ascending index order.
    fn listing(masses: &[Prob]) -> Vec<(usize, Prob)> {
        let mut listing: Vec<(usize, Prob)> = masses.iter().copied().enumerate().collect();
        listing.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        listing
    }

    const H: usize = 0;
    const T: usize = 1;

    /// A coin's listing: heads has index `H`, tails index `T`.
    fn coin(head_mass: Prob) -> Vec<(usize, Prob)> {
        listing(&[head_mass, head_mass.complement()])
    }

    #[test]
    fn top_k_is_the_lazy_joint_maximum_walk() {
        // Listed T 3/4, H 1/4 and T 9/10, H 1/10.
        let listings = [coin(Prob::ratio(1, 4)), coin(Prob::ratio(1, 10))];
        let top = top_k_tuples(&listings, 4);
        assert_eq!(
            top,
            vec![
                (vec![T, T], Prob::ratio(27, 40)),
                (vec![H, T], Prob::ratio(9, 40)),
                (vec![T, H], Prob::ratio(3, 40)),
                (vec![H, H], Prob::ratio(1, 40)),
            ]
        );
    }

    #[test]
    fn top_k_stops_at_the_product_size_and_handles_empties() {
        let one = [coin(Prob::ratio(1, 2))];
        assert_eq!(top_k_tuples(&one, 10).len(), 2);
        assert!(top_k_tuples(&one, 0).is_empty());
        let empty = [coin(Prob::ratio(1, 2)), Vec::new()];
        assert!(top_k_tuples(&empty, 3).is_empty());
    }

    #[test]
    fn huge_products_never_materialize() {
        // 100 fair coins: 2^100 joint tuples; the top 5 must answer
        // instantly with exact dyadic masses.
        let listings: Vec<_> = (0..100).map(|_| coin(Prob::ratio(1, 2))).collect();
        let top = top_k_tuples(&listings, 5);
        assert_eq!(top.len(), 5);
        for (_, mass) in &top {
            assert!(mass.is_exact(), "dyadic product degraded to float");
        }
        // All 2^100 joint tuples are equally likely: each mass is 1/2^100.
        assert_eq!(top[0].1, top[4].1);
    }

    #[test]
    fn ties_resolve_toward_the_smaller_index_tuple() {
        // Two identical fair coins: four equal-mass joint tuples; the
        // listing must be in index order, deterministically.
        let listings = [coin(Prob::ratio(1, 2)), coin(Prob::ratio(1, 2))];
        let tuples: Vec<Vec<usize>> = top_k_tuples(&listings, 4)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(tuples, vec![vec![H, H], vec![H, T], vec![T, H], vec![T, T]]);
    }

    #[test]
    fn top_k_past_the_product_size_returns_the_whole_product() {
        let listings = [
            coin(Prob::ratio(1, 3)),
            coin(Prob::ratio(1, 2)),
            coin(Prob::ratio(1, 5)),
        ];
        let all = top_k_tuples(&listings, usize::MAX);
        assert_eq!(all.len(), 8);
        assert_eq!(all, top_k_tuples(&listings, 8));
        assert_eq!(Prob::sum(all.iter().map(|(_, m)| *m)), Prob::ONE);
    }

    /// Every joint tuple of the product, sorted by (mass descending,
    /// position tuple ascending) with each mass folded in factor order: the
    /// listing `top_k_tuples` must reproduce prefix by prefix.
    fn brute_force(listings: &[Vec<(usize, Prob)>]) -> Vec<(Vec<usize>, Prob)> {
        let mut tuples: Vec<Vec<usize>> = vec![Vec::new()];
        for l in listings {
            tuples = tuples
                .into_iter()
                .flat_map(|t| {
                    (0..l.len()).map(move |i| {
                        let mut t = t.clone();
                        t.push(i);
                        t
                    })
                })
                .collect();
        }
        let mut joint: Vec<(Vec<usize>, Prob)> = tuples
            .into_iter()
            .map(|t| {
                let mass = Prob::product(t.iter().enumerate().map(|(f, &i)| listings[f][i].1));
                (t, mass)
            })
            .collect();
        joint.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        joint
            .into_iter()
            .map(|(t, mass)| {
                let indices = t.iter().enumerate().map(|(f, &i)| listings[f][i].0);
                (indices.collect(), mass)
            })
            .collect()
    }

    #[test]
    fn top_k_matches_the_sorted_cross_product() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Few distinct masses, so equal-mass ties are common; two of them
        // are not short decimals and stay approximate.
        let masses = [
            Prob::ratio(1, 2),
            Prob::ratio(1, 4),
            Prob::ratio(1, 4),
            Prob::ratio(3, 10),
            Prob::ratio(1, 5),
            Prob::from_f64(1.0 / 3.0),
            Prob::from_f64(std::f64::consts::FRAC_1_SQRT_2),
        ];
        assert!(!masses[5].is_exact() && !masses[6].is_exact());
        let mut rng = StdRng::seed_from_u64(14);
        for case in 0..300 {
            let listings: Vec<Vec<(usize, Prob)>> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    let n = rng.gen_range(1..=4);
                    let drawn: Vec<Prob> = (0..n)
                        .map(|_| masses[rng.gen_range(0..masses.len())])
                        .collect();
                    listing(&drawn)
                })
                .collect();
            let expected = brute_force(&listings);
            let size = expected.len();
            // Every prefix up to the product size; past a few hundred
            // tuples a stride keeps the sweep fast.
            let step = if size <= 256 { 1 } else { 37 };
            let ks = (0..=size).step_by(step).chain([size, size + 1, usize::MAX]);
            for k in ks {
                let top = top_k_tuples(&listings, k);
                let want = &expected[..k.min(size)];
                assert_eq!(top.len(), want.len(), "case {case}, k = {k}");
                for (j, (got, want)) in top.iter().zip(want).enumerate() {
                    assert_eq!(got.0, want.0, "case {case}, k = {k}, rank {j}");
                    // `Prob`'s `==` compares an exact and an approximate
                    // value by rounding; the fold must match variant too.
                    assert_eq!(
                        (got.1.is_exact(), got.1),
                        (want.1.is_exact(), want.1),
                        "case {case}, k = {k}, rank {j}"
                    );
                }
            }
        }
    }
}
