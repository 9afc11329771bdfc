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
use crate::join::JoinPlan;
use crate::outcome::{KeyTable, ModelSetKey};
use crate::semantics::OutputSpace;
use crate::simple_grounder::saturate_impl;
use crate::translate::{AtrSchema, SigmaPi};
use gdlog_data::{GroundAtom, WordMap};
use gdlog_engine::{connected_components, CancelToken};
use gdlog_prob::{Prob, Rational};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::{Arc, OnceLock};

/// Safety valve for the universe fixpoint: programs whose over-approximated
/// atom universe exceeds this bound fall back to the flat path rather than
/// spend unbounded analysis time.
const UNIVERSE_ATOM_CAP: usize = 200_000;

/// Largest tie class crossing a `--top` cut that
/// [`FactoredOutputSpace::events_by_mass_top`] orders by building every
/// member's joint key, which it must do when some candidate event has
/// several stable models. It covers `bench factor`'s full-scale
/// `coin_game_n10`, a class of 2^10 equally heavy events; a larger class of
/// that kind is refused.
const MULTI_MODEL_TIE_BOUND: usize = 1 << 10;

/// Branch nodes the key-order search of one crossing tie class may visit
/// before it gives up and the class is collected whole instead (see
/// [`TieSearch`]).
const TIE_SEARCH_NODES: usize = 1 << 18;

/// Slack, in log2 units, of the tie search's floating-point mass pruning: a
/// branch is cut only when its heaviest tuple is lighter than the cut mass
/// by more than this, so float rounding never cuts a tuple of the class.
/// Each listed tuple's mass is then checked exactly.
const PRUNE_SLACK: f64 = 1e-6;

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
    plans: &[Arc<JoinPlan>],
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
        plans,
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
    let index: WordMap<&GroundAtom, usize> =
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
    let owner: WordMap<&GroundAtom, usize> = parts
        .iter()
        .enumerate()
        .flat_map(|(i, (atoms, _))| atoms.iter().map(move |a| (a, i)))
        .collect();
    let mut rules: Vec<Vec<usize>> = vec![Vec::new(); parts.len()];
    for (i, rule) in sigma.rules.iter().enumerate() {
        let head = if rule.pos.is_empty() {
            rule.head.to_ground().ok()
        } else {
            None
        };
        match head {
            Some(head) => rules[owner[&head]].push(i),
            None => rules.iter_mut().for_each(|r| r.push(i)),
        }
    }
    parts
        .into_iter()
        .zip(rules)
        .map(|((atoms, triggers), rules)| ChaseComponent {
            atoms,
            triggers,
            slice: Arc::new(sigma.slice(&rules)),
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
    let mut groups: BTreeMap<usize, (Vec<Arc<JoinPlan>>, Vec<&AtrSchema>)> = BTreeMap::new();
    for (rule, plan) in sigma.rules.iter().zip(sigma.plans()) {
        let c = statics
            .component_of(&rule.head.predicate)
            .expect("every rule head is a static-graph vertex");
        groups.entry(c).or_default().0.push(Arc::clone(plan));
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
    for (plans, schemas) in groups.values() {
        let Some(universe) = universe_of_group(plans, schemas, budget, cap, cancel)? else {
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
    /// Which factor holds each universe atom, built on first use.
    factor_index: OnceLock<WordMap<GroundAtom, usize>>,
    /// The joint atom table of a multi-factor product, built on first use:
    /// the merge of the factors' tables, with each factor's id remap into
    /// it. Joint keys are built over it.
    joint: OnceLock<(Arc<KeyTable>, Vec<Vec<u32>>)>,
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
            factor_index: OnceLock::new(),
            joint: OnceLock::new(),
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
        let index = self.factor_index.get_or_init(|| {
            let mut index = WordMap::default();
            for (i, f) in self.factors.iter().enumerate() {
                for atom in &f.atoms {
                    index.entry(atom.clone()).or_insert(i);
                }
            }
            index
        });
        index.get(atom).copied()
    }

    /// `P(every listed atom is brave in the joint key)`: a joint model is a
    /// union of per-factor models, so atom `a` of factor `j` is in some
    /// joint model iff it is in some factor-`j` model *and* every other
    /// factor is nonempty. Atoms sharing a factor must be witnessed jointly
    /// within it; an atom in no factor is underivable and the probability is
    /// zero.
    pub fn probability_brave_all(&self, atoms: &[GroundAtom]) -> Prob {
        self.probability_grouped(atoms, ModelSetKey::brave_id)
    }

    /// `P(every listed atom is cautious in the joint key)` — the same
    /// factor-wise decomposition with the cautious test per factor.
    pub fn probability_cautious_all(&self, atoms: &[GroundAtom]) -> Prob {
        self.probability_grouped(atoms, ModelSetKey::cautious_id)
    }

    fn probability_grouped(
        &self,
        atoms: &[GroundAtom],
        holds: fn(&ModelSetKey, u32) -> bool,
    ) -> Prob {
        let mut by_factor: BTreeMap<usize, Vec<&GroundAtom>> = BTreeMap::new();
        for atom in atoms {
            match self.factor_of(atom) {
                Some(j) => by_factor.entry(j).or_default().push(atom),
                None => return Prob::ZERO,
            }
        }
        self.joint_mass(|i| {
            by_factor
                .get(&i)
                .map(|group| self.factors[i].space.probability_all(group, holds))
        })
    }

    /// The product over the factors, in factor order, of `factor_mass(i)`,
    /// or of factor `i`'s nonempty mass where that is `None`.
    fn joint_mass(&self, factor_mass: impl Fn(usize) -> Option<Prob>) -> Prob {
        let mut p = Prob::ONE;
        for (i, nonempty) in self.nonempty.iter().enumerate() {
            let mass = match factor_mass(i) {
                Some(mass) => mass,
                // x·1 = x bit for bit, exact or approximate.
                None if nonempty.as_exact() == Some(Rational::ONE) => continue,
                None => *nonempty,
            };
            p = p.mul(&mass);
        }
        p
    }

    /// `(brave, cautious)` probability of every listed atom, equal bit for
    /// bit to [`Self::brave_probability`] and [`Self::cautious_probability`]
    /// per atom, with each factor's events scanned once for all its atoms
    /// ([`OutputSpace::brave_and_cautious`]) instead of twice per atom.
    pub(crate) fn brave_and_cautious(&self, atoms: &[GroundAtom]) -> Vec<(Prob, Prob)> {
        let owners: Vec<Option<usize>> = atoms.iter().map(|atom| self.factor_of(atom)).collect();
        // The asked atoms that some factor holds, grouped by factor.
        let mut held: Vec<usize> = (0..atoms.len()).filter(|&k| owners[k].is_some()).collect();
        held.sort_by_key(|&k| owners[k]);
        let mut in_factor = vec![(Prob::ZERO, Prob::ZERO); atoms.len()];
        for group in held.chunk_by(|&a, &b| owners[a] == owners[b]) {
            let space = &self.factors[owners[group[0]].expect("held")].space;
            let asked: Vec<&GroundAtom> = group.iter().map(|&k| &atoms[k]).collect();
            for (&k, masses) in group.iter().zip(space.brave_and_cautious(&asked)) {
                in_factor[k] = masses;
            }
        }
        owners
            .iter()
            .zip(in_factor)
            .map(|(owner, (brave, cautious))| match *owner {
                Some(j) => (
                    self.joint_mass(|i| (i == j).then_some(brave)),
                    self.joint_mass(|i| (i == j).then_some(cautious)),
                ),
                None => (Prob::ZERO, Prob::ZERO),
            })
            .collect()
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
    /// masses; any other key has mass zero. The key is translated into the
    /// joint table once, and projected and rebuilt on ids.
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
        let (table, remaps) = self.joint();
        let Some(key) = key.over(table) else {
            return Prob::ZERO;
        };
        let mut mass = Prob::ONE;
        let mut projections: Vec<ModelSetKey> = Vec::with_capacity(self.factors.len());
        for (f, remap) in self.factors.iter().zip(remaps) {
            let projection = key.project(f.space.table(), remap);
            mass = mass.mul(&f.space.event_probability(&projection));
            projections.push(projection);
        }
        let parts: Vec<(&ModelSetKey, &[u32])> = projections
            .iter()
            .zip(remaps)
            .map(|(projection, remap)| (projection, remap.as_slice()))
            .collect();
        if ModelSetKey::product_in(table, &parts) != *key {
            return Prob::ZERO;
        }
        mass
    }

    /// The joint table and the factors' remaps into it, built on first use.
    fn joint(&self) -> &(Arc<KeyTable>, Vec<Vec<u32>>) {
        self.joint.get_or_init(|| {
            let tables: Vec<&KeyTable> = self.factors.iter().map(|f| &**f.space.table()).collect();
            KeyTable::merge(&tables)
        })
    }

    /// Per factor, the `(index, mass)` pairs of its nonempty events in
    /// listing order, built on first use.
    fn nonempty_events(&self) -> &[Vec<(usize, Prob)>] {
        self.nonempty_events.get_or_init(|| {
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
        })
    }

    /// The joint key of a tuple of per-factor event indices, over the
    /// joint table: each joint model concatenates remapped ids.
    fn joint_key(&self, indices: &[usize]) -> ModelSetKey {
        let (table, remaps) = self.joint();
        let parts: Vec<(&ModelSetKey, &[u32])> = self
            .factors
            .iter()
            .zip(indices)
            .zip(remaps)
            .map(|((f, &i), remap)| (&f.space.events_by_mass()[i].0, remap.as_slice()))
            .collect();
        ModelSetKey::product_in(table, &parts)
    }

    /// The `k` heaviest joint events in the flat (mass-descending,
    /// key-ascending) order, exactly the prefix of the flat
    /// [`OutputSpace::events_by_mass`] listing. A one-factor product lists
    /// its factor's events. Otherwise a lazy k-way merge runs over the
    /// per-factor *nonempty* events; the single collapsed "no
    /// stable model" event joins with its closed-form mass and, its key
    /// being the smallest, leads its mass class.
    ///
    /// Let m\* be the k-th heaviest mass. The merge yields every tuple
    /// heavier than m\* (fewer than `k`); their joint keys are built and
    /// each mass class is sorted by key. Of the class of mass exactly m\*,
    /// which may be astronomically large, only the key-smallest members that
    /// fill the listing are wanted, and joint keys are built for those alone:
    ///
    /// * when every candidate event of the class has one stable model, a
    ///   depth-first search (`TieSearch`) enumerates the class in key
    ///   order without building any key;
    /// * otherwise the class is collected whole through the merge and
    ///   sorted by its built keys, if it has at most
    ///   `MULTI_MODEL_TIE_BOUND` (1024) members, or no more than are listed
    ///   (also the fallback should the search exhaust its node budget).
    ///
    /// A class past that bound is refused with [`CoreError::Refused`]
    /// rather than listed in a wrong order.
    pub fn events_by_mass_top(&self, k: usize) -> Result<Vec<(ModelSetKey, Prob)>, CoreError> {
        if let Some(space) = self.only() {
            return Ok(space.events_by_mass().iter().take(k).cloned().collect());
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let listings = self.nonempty_events();
        let empty_mass = self.event_probability(&ModelSetKey::empty());
        let empty = empty_mass.is_positive().then_some(empty_mass);
        let by_mass_then_key = |a: &(ModelSetKey, Prob), b: &(ModelSetKey, Prob)| {
            b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
        };
        let tuples = top_k_tuples(listings, k);
        if tuples.len() < k {
            // The merge ran out: every event is listed, every class whole.
            let mut out: Vec<(ModelSetKey, Prob)> = tuples
                .iter()
                .map(|(t, mass)| (self.joint_key(t), *mass))
                .chain(empty.map(|mass| (ModelSetKey::empty(), mass)))
                .collect();
            out.sort_by(by_mass_then_key);
            return Ok(out);
        }
        // The k-th mass of the merged listing, where ∅ precedes the tuples
        // of its own mass.
        let cut = match empty {
            Some(e) => match tuples.partition_point(|(_, m)| m.total_cmp(&e).is_gt()) {
                above if above >= k => tuples[k - 1].1,
                above if above == k - 1 => e,
                _ => tuples[k - 2].1,
            },
            None => tuples[k - 1].1,
        };
        let heavier = tuples.partition_point(|(_, m)| m.total_cmp(&cut).is_gt());
        let mut out: Vec<(ModelSetKey, Prob)> = tuples[..heavier]
            .iter()
            .map(|(t, mass)| (self.joint_key(t), *mass))
            .collect();
        let empty_cmp = empty.map(|e| (e, e.total_cmp(&cut)));
        if let Some((e, Ordering::Greater)) = empty_cmp {
            out.push((ModelSetKey::empty(), e));
        }
        out.sort_by(by_mass_then_key);
        if let Some((e, Ordering::Equal)) = empty_cmp {
            out.push((ModelSetKey::empty(), e));
        }
        let want = k - out.len();
        for key in self.tie_class_in_key_order(listings, cut, heavier, want, k)? {
            out.push((key, cut));
        }
        Ok(out)
    }

    /// The `want` key-smallest joint keys among the nonempty tuples of mass
    /// exactly `cut`, in key order, given that `heavier` tuples are heavier.
    fn tie_class_in_key_order(
        &self,
        listings: &[Vec<(usize, Prob)>],
        cut: Prob,
        heavier: usize,
        want: usize,
        k: usize,
    ) -> Result<Vec<ModelSetKey>, CoreError> {
        if want == 0 {
            return Ok(Vec::new());
        }
        let searched = TieSearch::new(self, listings, cut).and_then(|search| search.run(want));
        if let Some(tuples) = searched {
            return Ok(tuples.iter().map(|t| self.joint_key(t)).collect());
        }
        // A class no larger than `want` is listed whole, so its keys are
        // built for the listing anyway.
        let room = MULTI_MODEL_TIE_BOUND.max(want);
        let class: Vec<Vec<usize>> = top_k_tuples(listings, heavier.saturating_add(room + 1))
            .into_iter()
            .skip(heavier)
            .take_while(|(_, mass)| mass.total_cmp(&cut).is_eq())
            .map(|(t, _)| t)
            .collect();
        if class.len() > room {
            return Err(CoreError::Refused(format!(
                "top {k}: more than {MULTI_MODEL_TIE_BOUND} events tie at mass {cut} across \
                 the cut, and they cannot be put in key order without building every key"
            )));
        }
        let mut keys: Vec<ModelSetKey> = class.iter().map(|t| self.joint_key(t)).collect();
        keys.sort();
        keys.truncate(want);
        Ok(keys)
    }

    /// Every atom with the given predicate name occurring in any factor's
    /// stable models (for marginal reports): one scan of each factor's
    /// table.
    pub fn atoms_with_predicate(&self, name: &str) -> BTreeSet<GroundAtom> {
        self.factors
            .iter()
            .flat_map(|f| f.space.model_atoms())
            .filter(|atom| atom.predicate.name() == name)
            .cloned()
            .collect()
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

/// A branch the tie search has yet to take: restrict `factor` to `set`
/// (the candidates without the atom of rank `rank`) once the trail is
/// rewound to `trail` entries.
struct Branch {
    trail: usize,
    rank: u32,
    factor: usize,
    set: Vec<u32>,
    bound: f64,
}

/// The key-order enumeration of one tie class of a product whose candidate
/// events each have a single stable model.
///
/// Such a joint key holds one model, the disjoint union of its parts, and
/// keys compare as sorted atom lists. Every atom of a candidate model is
/// ranked by its id in the product's joint table, which ascends with the
/// atoms. A search node holds a set of
/// candidate events per factor, all agreeing on the atoms below the node's
/// rank, so its tuples differ first at or after it. Walking up the ranks,
/// an atom the owning factor's candidates all hold (or all lack) is shared
/// by every tuple and passed; at the first atom they disagree on, the node
/// branches: tuples with the atom come before tuples without it, save one.
/// A sorted list that ends early sorts first, so the one tuple with no atom
/// at or past the node's rank (the *end tuple*, if its factors all have
/// such a candidate) precedes both branches. Chase-built spaces never have
/// one: two outcomes always differ in a choice's result atom, so no model
/// of one is a subset of another's.
///
/// A branch is pruned when the product of its factors' heaviest candidate
/// masses falls below the cut (in log2 floats with [`PRUNE_SLACK`]); a
/// listed tuple's mass is folded exactly, in factor order as the merge
/// folds it, and must equal the cut.
struct TieSearch<'a> {
    listings: &'a [Vec<(usize, Prob)>],
    cut: Prob,
    /// `log2` of the cut mass, less [`PRUNE_SLACK`].
    floor: f64,
    /// Per factor, `log2` of each candidate's mass; the candidates are a
    /// prefix of the factor's listing.
    logs: Vec<Vec<f64>>,
    /// Per factor, each candidate's model as ascending atom ranks.
    models: Vec<Vec<Vec<u32>>>,
    /// The factor holding the atom of each rank, if a candidate model does.
    owner: Vec<Option<usize>>,
}

impl<'a> TieSearch<'a> {
    /// The search over the tuples of mass `cut`, or `None` when a candidate
    /// event (one that could be part of such a tuple) has several stable
    /// models, or two factors share an atom.
    fn new(
        space: &FactoredOutputSpace,
        listings: &'a [Vec<(usize, Prob)>],
        cut: Prob,
    ) -> Option<Self> {
        let log = |p: &Prob| p.to_f64().log2();
        let floor = log(&cut) - PRUNE_SLACK;
        let best: f64 = listings.iter().map(|l| log(&l[0].1)).sum();
        let (table, remaps) = space.joint();
        let mut logs = Vec::with_capacity(listings.len());
        let mut models = Vec::with_capacity(listings.len());
        let mut owner: Vec<Option<usize>> = vec![None; table.len()];
        let factors = space.factors.iter().zip(listings).zip(remaps);
        for (f, ((factor, listing), remap)) in factors.enumerate() {
            let others = best - log(&listing[0].1);
            let candidates: Vec<f64> = listing
                .iter()
                .map(|(_, mass)| log(mass))
                .take_while(|l| l + others >= floor)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let mut ranked = Vec::with_capacity(candidates.len());
            for (i, _) in &listing[..candidates.len()] {
                let [model] = factor.space.events_by_mass()[*i].0.ids() else {
                    return None;
                };
                let ranks: Vec<u32> = model.iter().map(|&id| remap[id as usize]).collect();
                for &rank in &ranks {
                    match &mut owner[rank as usize] {
                        Some(g) if *g != f => return None,
                        slot => *slot = Some(f),
                    }
                }
                ranked.push(ranks);
            }
            models.push(ranked);
            logs.push(candidates);
        }
        Some(TieSearch {
            listings,
            cut,
            floor,
            logs,
            models,
            owner,
        })
    }

    /// The first `want` tuples of the class in joint-key order, as one
    /// event index per factor (fewer if the class is smaller); `None` once
    /// the search passes [`TIE_SEARCH_NODES`] branch nodes.
    ///
    /// Depth-first with an explicit stack: a node's "without" branch waits
    /// on `pending` while its "with" branch runs, and `trail` records every
    /// candidate set a branch replaced, so popping a branch rewinds to its
    /// node's state.
    fn run(&self, want: usize) -> Option<Vec<Vec<usize>>> {
        let mut sets: Vec<Vec<u32>> = self
            .logs
            .iter()
            .map(|l| (0..l.len() as u32).collect())
            .collect();
        let mut bound: f64 = self.logs.iter().map(|l| l[0]).sum();
        let mut trail: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut pending: Vec<Branch> = Vec::new();
        let mut found: Vec<Vec<usize>> = Vec::new();
        let mut nodes = 0usize;
        let ranks = self.owner.len() as u32;
        // The node to walk from: its rank, and whether its end tuple may be
        // listed (false on a "without" branch, whose node listed it).
        let mut next = Some((0u32, true));
        while found.len() < want {
            let (mut rank, mut allow_end) = match next.take() {
                Some(node) => node,
                None => {
                    let Some(branch) = pending.pop() else {
                        break;
                    };
                    for (f, set) in trail.drain(branch.trail..).rev() {
                        sets[f] = set;
                    }
                    let replaced = std::mem::replace(&mut sets[branch.factor], branch.set);
                    trail.push((branch.factor, replaced));
                    bound = branch.bound;
                    (branch.rank + 1, false)
                }
            };
            loop {
                if rank == ranks {
                    if allow_end {
                        self.list_end_tuple(&sets, rank, &mut found);
                    }
                    break;
                }
                let Some(f) = self.owner[rank as usize] else {
                    rank += 1;
                    continue;
                };
                let holds = |c: &u32| self.models[f][*c as usize].binary_search(&rank).is_ok();
                let with = sets[f].iter().filter(|c| holds(c)).count();
                if with == 0 {
                    rank += 1;
                    continue;
                }
                if with == sets[f].len() {
                    allow_end = true;
                    rank += 1;
                    continue;
                }
                nodes += 1;
                if nodes > TIE_SEARCH_NODES {
                    return None;
                }
                if allow_end {
                    self.list_end_tuple(&sets, rank, &mut found);
                    if found.len() == want {
                        break;
                    }
                }
                let (holding, lacking): (Vec<u32>, Vec<u32>) =
                    sets[f].iter().partition(|c| holds(c));
                let heaviest = self.logs[f][sets[f][0] as usize];
                let lacking_bound = bound - heaviest + self.logs[f][lacking[0] as usize];
                if lacking_bound >= self.floor {
                    pending.push(Branch {
                        trail: trail.len(),
                        rank,
                        factor: f,
                        set: lacking,
                        bound: lacking_bound,
                    });
                }
                let holding_bound = bound - heaviest + self.logs[f][holding[0] as usize];
                if holding_bound < self.floor {
                    break;
                }
                trail.push((f, std::mem::replace(&mut sets[f], holding)));
                bound = holding_bound;
                allow_end = true;
                rank += 1;
            }
        }
        Some(found)
    }

    /// List the node's end tuple, the candidates with no atom at or past
    /// `rank` (at most one per factor, as candidates agree below it), if
    /// every factor has one and the tuple's mass is exactly the cut.
    fn list_end_tuple(&self, sets: &[Vec<u32>], rank: u32, found: &mut Vec<Vec<usize>>) {
        let mut tuple = Vec::with_capacity(sets.len());
        for (f, set) in sets.iter().enumerate() {
            let ends_before = |c: &&u32| self.models[f][**c as usize].last() < Some(&rank);
            match set.iter().find(ends_before) {
                Some(&c) => tuple.push(&self.listings[f][c as usize]),
                None => return,
            }
        }
        if Prob::product(tuple.iter().map(|(_, mass)| *mass)).total_cmp(&self.cut)
            == Ordering::Equal
        {
            found.push(tuple.iter().map(|(i, _)| *i).collect());
        }
    }
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
        let plans = sigma.plans();
        let schemas: Vec<&AtrSchema> = sigma.atr_schemas().iter().collect();
        let budget = ChaseBudget::default();
        let never = CancelToken::never();
        assert!(universe_of_group(plans, &schemas, &budget, 5, &never)
            .unwrap()
            .is_none());
        assert!(universe_of_group(plans, &schemas, &budget, 1_000, &never)
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
        let factored_events = factored.events_by_mass_top(flat_events.len() + 8).unwrap();
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

    /// The one-pass answers against the per-atom ones, bit for bit: `==`
    /// and the same `Debug` text, which tells an exact mass from an
    /// approximate one and prints every `f64` bit.
    fn assert_one_pass_answers_per_atom(space: &FactoredOutputSpace, atoms: &[GroundAtom]) {
        let bits = |p: Prob| format!("{p:?}");
        for (atom, (brave, cautious)) in atoms.iter().zip(space.brave_and_cautious(atoms)) {
            assert_eq!(
                bits(brave),
                bits(space.brave_probability(atom)),
                "brave {atom}"
            );
            assert_eq!(
                bits(cautious),
                bits(space.cautious_probability(atom)),
                "cautious {atom}"
            );
        }
    }

    #[test]
    fn one_pass_marginals_equal_the_per_atom_answers() {
        // Solved spaces, factored and flat, with an atom asked twice and
        // one that no factor holds.
        let (program, db) = coin_farm(4, true);
        let pipeline = Pipeline::new(&program, &db).unwrap();
        let mut atoms: Vec<GroundAtom> = ["Coin", "Tails", "Even", "Odd"]
            .iter()
            .flat_map(|name| (1..=4).map(move |i| atom(name, &[i])))
            .collect();
        atoms.push(atom("Tails", &[2]));
        atoms.push(atom("Nope", &[9]));
        assert_one_pass_answers_per_atom(&pipeline.solve_factored().unwrap(), &atoms);
        let flat = pipeline
            .solve_with(crate::api::SolveStrategy::Flat)
            .unwrap()
            .0;
        assert_eq!(flat.factor_count(), 1);
        assert_one_pass_answers_per_atom(&flat, &atoms);

        // Approximate masses, multi-model events (brave without cautious)
        // and a factor with a "no stable model" event.
        let tenth = Prob::Approx(0.1);
        let rest = Prob::Approx(0.9);
        let factors = vec![
            synthetic_factor(
                0,
                &[
                    (vec![vec![0, 1], vec![0, 2]], tenth),
                    (vec![vec![1]], Prob::Approx(0.7)),
                    (vec![], Prob::Approx(0.2)),
                ],
            ),
            synthetic_factor(1, &[(vec![vec![0]], rest), (vec![vec![0, 1]], tenth)]),
            synthetic_factor(2, &[(vec![vec![3]], Prob::ratio(1, 3))]),
        ];
        let atoms: Vec<GroundAtom> = (0..3)
            .flat_map(|f| (0..4).map(move |level| level_atom(level, f)))
            .collect();
        assert_one_pass_answers_per_atom(&FactoredOutputSpace::new(factors), &atoms);
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
                factored.events_by_mass_top(k).unwrap(),
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
        assert_eq!(
            solved.events_by_mass_top(usize::MAX).unwrap(),
            flat.events_by_mass()
        );
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
            assert_eq!(
                product.events_by_mass_top(k).unwrap(),
                events[..k],
                "top {k}"
            );
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
        let top = factored.events_by_mass_top(3).unwrap();
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
        assert_eq!(
            factored.events_by_mass_top(16).unwrap(),
            flat.events_by_mass()
        );
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

    /// `L(level, factor)`: atoms sort by level first, so the factors' atoms
    /// interleave in the global atom order.
    fn level_atom(level: i64, factor: i64) -> GroundAtom {
        atom("L", &[level, factor])
    }

    /// A factor of synthetic events, each a set of models given as level
    /// sets (no models: the "no stable model" event); a repeated key keeps
    /// its first mass.
    fn synthetic_factor(f: i64, events: &[(Vec<Vec<i64>>, Prob)]) -> Factor {
        let mut keyed: Vec<(ModelSetKey, Prob)> = Vec::new();
        for (models, mass) in events {
            let models: Vec<Database> = models
                .iter()
                .map(|m| Database::from_atoms(m.iter().map(|&l| level_atom(l, f))))
                .collect();
            let key = ModelSetKey::from_models(&models);
            if keyed.iter().all(|(k, _)| *k != key) {
                keyed.push((key, *mass));
            }
        }
        let events = keyed;
        let atoms = events
            .iter()
            .flat_map(|(key, _)| key.models().flatten().cloned().collect::<Vec<_>>())
            .collect();
        Factor {
            atoms,
            space: OutputSpace::from_events(events),
        }
    }

    /// The flat listing of a product: every joint tuple's key and mass
    /// (folded in factor order), equal keys merged, sorted by mass
    /// descending, then key ascending.
    fn flat_listing(factors: &[Factor]) -> Vec<(ModelSetKey, Prob)> {
        let mut tuples: Vec<(Vec<&ModelSetKey>, Prob)> = vec![(Vec::new(), Prob::ONE)];
        for f in factors {
            let mut next = Vec::new();
            for (keys, mass) in &tuples {
                for (key, m) in f.space.events_by_mass() {
                    let mut keys = keys.clone();
                    keys.push(key);
                    next.push((keys, mass.mul(m)));
                }
            }
            tuples = next;
        }
        let mut events: BTreeMap<ModelSetKey, Prob> = BTreeMap::new();
        for (keys, mass) in tuples {
            let total = events
                .entry(ModelSetKey::product(&keys))
                .or_insert(Prob::ZERO);
            *total = total.add(&mass);
        }
        let mut listing: Vec<(ModelSetKey, Prob)> = events.into_iter().collect();
        listing.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        listing
    }

    fn assert_prefix_at_every_cut(factors: Vec<Factor>, what: &str) {
        let flat = flat_listing(&factors);
        let product = FactoredOutputSpace::new(factors);
        for k in 0..=flat.len() + 1 {
            assert_eq!(
                product.events_by_mass_top(k).unwrap(),
                flat[..k.min(flat.len())],
                "{what}: top {k}"
            );
        }
    }

    #[test]
    fn a_model_that_ends_early_sorts_first() {
        // Joint models over L(0,0) < L(1,1) < L(2,1) < L(3,0): the tuples
        // come out of the merge as {0,1}, {0,1,2}, {0,1,3}, {0,1,2,3}, but
        // in key order {0,1} and {0,1,2} are prefixes of the models after
        // them, and {0,1,2,3} precedes {0,1,3}.
        let half = Prob::ratio(1, 2);
        let factors = vec![
            synthetic_factor(0, &[(vec![vec![0]], half), (vec![vec![0, 3]], half)]),
            synthetic_factor(1, &[(vec![vec![1]], half), (vec![vec![1, 2]], half)]),
        ];
        let levels = |listing: Vec<(ModelSetKey, Prob)>| -> Vec<Vec<i64>> {
            listing
                .iter()
                .map(|(key, _)| {
                    let model = key.models().next().expect("one model");
                    model.map(|a| a.args[0].as_int().unwrap()).collect()
                })
                .collect()
        };
        let product = FactoredOutputSpace::new(factors);
        assert_eq!(
            levels(product.events_by_mass_top(4).unwrap()),
            vec![vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3], vec![0, 1, 3]]
        );
    }

    #[test]
    fn factored_top_k_is_the_flat_prefix_on_random_products() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Few distinct masses, so classes tie often; models are random
        // level sets, so keys interleave across factors, end early and
        // differ at any depth. Some events have two models, some none.
        let masses = [
            Prob::ratio(1, 2),
            Prob::ratio(1, 4),
            Prob::ratio(1, 3),
            Prob::ratio(1, 6),
        ];
        let mut rng = StdRng::seed_from_u64(22);
        for case in 0..200 {
            let multi = case % 3 == 0;
            let factors: Vec<Factor> = (0..rng.gen_range(2..=4))
                .map(|f| {
                    let events: Vec<(Vec<Vec<i64>>, Prob)> = (0..rng.gen_range(1..=4))
                        .map(|_| {
                            let count = match rng.gen_range(0..10) {
                                0 => 0,
                                1 | 2 if multi => 2,
                                _ => 1,
                            };
                            let models = (0..count)
                                .map(|_| (0..6).filter(|_| rng.gen_bool(0.5)).collect())
                                .collect();
                            (models, masses[rng.gen_range(0..masses.len())])
                        })
                        .collect();
                    synthetic_factor(f, &events)
                })
                .collect();
            assert_prefix_at_every_cut(factors, &format!("case {case}"));
        }
    }

    /// `n` factors of two equally heavy single-model events, the first
    /// factor's second event with two models when `looped`: one tie class
    /// of `2^n` events.
    fn tied_coins(n: i64, looped: bool) -> Vec<Factor> {
        let half = Prob::ratio(1, 2);
        (0..n)
            .map(|f| {
                let second = if looped && f == 0 {
                    vec![vec![1], vec![2]]
                } else {
                    vec![vec![1]]
                };
                synthetic_factor(f, &[(vec![vec![0]], half), (second, half)])
            })
            .collect()
    }

    #[test]
    fn multi_model_ties_are_sorted_whole_up_to_the_bound_then_refused() {
        // 2^10 tied events, one factor with a two-model event: the class is
        // at the bound, collected whole and sorted by key.
        let factors = tied_coins(10, true);
        let flat = flat_listing(&factors);
        let product = FactoredOutputSpace::new(factors);
        for k in [1, 5, 512, 1024] {
            assert_eq!(product.events_by_mass_top(k).unwrap(), flat[..k], "top {k}");
        }

        // 2^11 such events pass the bound: a cut inside the class is refused.
        let looped = FactoredOutputSpace::new(tied_coins(11, true));
        match looped.events_by_mass_top(5) {
            Err(CoreError::Refused(why)) => assert!(why.contains("1024"), "{why}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        // A listing that takes the whole class builds every key anyway.
        assert_eq!(looped.events_by_mass_top(2048).unwrap().len(), 2048);
        // Single-model events are searched in key order at any class size.
        let factors = tied_coins(11, false);
        let flat = flat_listing(&factors);
        let plain = FactoredOutputSpace::new(factors);
        assert_eq!(plain.events_by_mass_top(5).unwrap(), flat[..5]);
    }
}
