//! Stable model checking and enumeration.
//!
//! An interpretation `I` is a stable model of a ground program Σ iff `I` is
//! the least model of the Gelfond–Lifschitz reduct `Σ^I` — the ground special
//! case of the second-order sentence `SM[Σ]` recalled in Section 2 of the
//! paper. `sms(Σ)` is the set of all stable models.
//!
//! The enumerator is a component-split, propagating branch-and-prune search
//! (the decomposition playbook of Brik & Remmel's *Characterizing and
//! computing stable models of logic programs*, specialised to ground
//! programs):
//!
//! 1. **Well-founded core.** Atoms decided by the well-founded model have the
//!    same value in every stable model. The program is simplified to its
//!    *residual*: only rules whose head is WFM-undecided survive, with
//!    decided literals evaluated away. `sms(Σ) = { T ∪ S }` where `T` is the
//!    WFM-true core and `S` ranges over the stable models of the residual
//!    (see `ARCHITECTURE.md`, "Stable-model back-end", for the argument).
//!    The well-founded model is computed on dense atom ids: the program
//!    arrives as id rules of a per-solve [`AtomTable`], is remapped onto
//!    dense ids by one array lookup per literal, and every
//!    alternating-fixpoint step `Γ(I) = lm(Σ^I)` is counter-based forward
//!    chaining over flat index arrays it shares with the other steps; the
//!    residual is built straight from those ids.
//!    [`well_founded`](crate::wellfounded::well_founded),
//!    [`reduct`] and [`least_model`] stay off this path: they remain the
//!    `Database`-level reference that [`crate::naive_stable`],
//!    [`is_stable_model`] and the tests compare against.
//! 2. **Component split.** The connected components of the residual's
//!    ground-atom dependency graph ([`crate::depgraph::connected_components`],
//!    the union-find kernel the factor analysis partitions with too) are
//!    independent *solve units* that share no atoms. The stable models of the
//!    residual are exactly the cross products of the units' stable models, so
//!    one `2^k` search becomes a product of `2^kᵢ` searches.
//! 3. **Propagating search.** Within a unit, the search branches on the
//!    negative signature in bottom-up SCC order ([`crate::depgraph::sccs_of`],
//!    the same Tarjan kernel as stratification) and, after every decision,
//!    runs Fitting/unit propagation to fixpoint: a rule whose body is
//!    certainly satisfied forces its head true, an atom all of whose rules
//!    are blocked is forced false, and contradictions prune the subtree
//!    immediately. The reduct is maintained incrementally (per-rule blocked
//!    counters with O(1) push/pop backtracking); only the surviving leaves
//!    pay for a least-model computation, on dense local indexes.
//!
//! The search reads a program of an [`AtomTable`] and returns each model as
//! a sorted vector of the table's atom ids ([`AtomTable::stable_models`]).
//! Ids ascend with the atoms, so sorting a model or ordering the residual's
//! atoms compares `u32`s, never atoms. [`stable_model_atoms`] runs the same
//! search on a one-shot table over borrowed [`RuleParts`] and returns each
//! model as a sorted list of borrowed atoms, so a caller holding its rules in
//! pieces builds no [`GroundProgram`] and no model [`Database`].
//! [`stable_models`] is the `Database`-level adapter over the same search.
//! The original exhaustive enumerator is retained verbatim as the
//! equivalence oracle in [`crate::naive_stable`].
//!
//! The search is exact; [`StableModelLimits`] only guards against
//! pathological inputs (it returns an error instead of silently truncating).
//! [`StableModelLimits::max_branch_atoms`] now bounds the branching atoms of
//! the *largest solve unit* — programs made of many small independent
//! components solve comfortably even when their total negative signature is
//! large (that is the point of the split).

use crate::atoms::{AtomTable, AtomTableBuilder, IdRules, TableProgram};
use crate::cancel::CancelToken;
use crate::depgraph::{connected_components, sccs_of};
use crate::ground::{GroundProgram, GroundRule};
use crate::least_model::least_model;
use crate::reduct::reduct;
use gdlog_data::{Database, GroundAtom};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;

/// Guard rails for the stable-model search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StableModelLimits {
    /// Maximum number of branching atoms (atoms occurring in negative body
    /// literals and undecided by the well-founded model) in any single
    /// independent component of the residual program. The per-component
    /// search space is `2^branching`, so this effectively bounds the
    /// worst-case work.
    pub max_branch_atoms: usize,
    /// Maximum number of stable models to return.
    pub max_models: usize,
}

impl Default for StableModelLimits {
    fn default() -> Self {
        StableModelLimits {
            max_branch_atoms: 26,
            max_models: 100_000,
        }
    }
}

/// Errors raised by the stable-model enumerator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StableError {
    /// The program has more undecided negatively-occurring atoms (in one
    /// independent component) than [`StableModelLimits::max_branch_atoms`].
    TooManyBranchAtoms {
        /// Number of branching atoms found (in the largest component).
        found: usize,
        /// The configured limit.
        limit: usize,
    },
    /// More than [`StableModelLimits::max_models`] stable models exist.
    TooManyModels {
        /// The configured limit.
        limit: usize,
    },
    /// The caller's [`CancelToken`] fired mid-search. The enumeration is
    /// exact-or-nothing, so a cancelled search reports this typed error
    /// rather than a silently incomplete model set.
    Interrupted,
}

impl fmt::Display for StableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StableError::TooManyBranchAtoms { found, limit } => write!(
                f,
                "stable-model search would branch on {found} atoms (limit {limit})"
            ),
            StableError::TooManyModels { limit } => {
                write!(f, "program has more than {limit} stable models")
            }
            StableError::Interrupted => {
                write!(f, "stable-model search interrupted by cancellation")
            }
        }
    }
}

impl std::error::Error for StableError {}

/// Is `interpretation` a stable model of `program`?
pub fn is_stable_model(program: &GroundProgram, interpretation: &Database) -> bool {
    least_model(&reduct(program, interpretation)) == *interpretation
}

/// Enumerate all stable models of `program`.
///
/// The result is returned in a canonical (sorted) order so that callers can
/// compare sets of stable models structurally.
pub fn stable_models(
    program: &GroundProgram,
    limits: &StableModelLimits,
) -> Result<Vec<Database>, StableError> {
    stable_models_with_cancel(program, limits, &CancelToken::never())
}

/// [`stable_models`] with a cooperative [`CancelToken`]. A thin adapter over
/// [`stable_model_atoms`] that wraps each model in a [`Database`]: it stays
/// the `Database`-level reference the naive-parity tests compare against.
pub fn stable_models_with_cancel(
    program: &GroundProgram,
    limits: &StableModelLimits,
    cancel: &CancelToken,
) -> Result<Vec<Database>, StableError> {
    Ok(
        stable_model_atoms(program.iter().map(GroundRule::parts), limits, cancel)?
            .into_iter()
            .map(|model| Database::from_atoms(model.into_iter().cloned()))
            .collect(),
    )
}

/// One ground rule `pos, ¬neg → head`, borrowed as `(head, pos, neg)`.
pub type RuleParts<'p> = (&'p GroundAtom, &'p [GroundAtom], &'p [GroundAtom]);

/// Enumerate the stable models of the ground program whose rules `rules`
/// yields, without building a [`GroundProgram`] or any model [`Database`]:
/// [`AtomTable::stable_models`] over a table of this one program.
///
/// Each model is a sorted, duplicate-free list of atoms borrowed from the
/// rules, and the list of models is itself sorted and duplicate-free. Rules
/// may repeat; a repeated rule changes no stable model.
///
/// The token is polled once per alternating round of the well-founded
/// fixpoint, per branch decision, per component, and per cross-product step,
/// so a cancellation request surfaces as [`StableError::Interrupted`] within
/// one unit of search work. The enumeration stays exact-or-nothing — a
/// cancelled search never returns a partial model set.
pub fn stable_model_atoms<'p, I>(
    rules: I,
    limits: &StableModelLimits,
    cancel: &CancelToken,
) -> Result<Vec<Vec<&'p GroundAtom>>, StableError>
where
    I: IntoIterator<Item = RuleParts<'p>>,
{
    let mut builder = AtomTableBuilder::new();
    let program = builder.rules(rules);
    let table = builder.finish();
    Ok(table
        .stable_models(&program, limits, cancel)?
        .into_iter()
        .map(|model| model.into_iter().map(|id| table.atom(id)).collect())
        .collect())
}

/// [`AtomTable::stable_models`]: the search itself, over table ids.
pub(crate) fn stable_model_ids(
    table: &AtomTable,
    program: &TableProgram,
    limits: &StableModelLimits,
    cancel: &CancelToken,
) -> Result<Vec<Vec<u32>>, StableError> {
    if cancel.is_cancelled() {
        return Err(StableError::Interrupted);
    }
    let dense = DenseProgram::new(table, program);
    let value = dense.well_founded(cancel)?;

    // Fast path: a total well-founded model is the unique stable model
    // (provided it actually is one — odd loops can make it non-stable, but a
    // total WFM is always stable).
    if !value.contains(&Val::Unknown) {
        let mut model = dense.atoms_with(&value, Val::True);
        model.sort_unstable();
        return Ok(vec![model]);
    }

    let residual = Residual::build(&dense, &value);
    let components = residual.split();

    // Enforce the branch limit over every component before solving any, so
    // the error does not depend on how far the search got.
    let worst = components.iter().map(|c| c.branch.len()).max().unwrap_or(0);
    if worst > limits.max_branch_atoms {
        return Err(StableError::TooManyBranchAtoms {
            found: worst,
            limit: limits.max_branch_atoms,
        });
    }

    // Solve each component independently, capping the per-component model
    // count at max_models + 1: the cap only has to distinguish "within
    // budget" from "over budget", and an empty component empties the whole
    // cross product regardless of the other components' sizes.
    let cap = limits.max_models.saturating_add(1);
    let mut solved: Vec<Vec<Vec<u32>>> = Vec::with_capacity(components.len());
    let mut capped = false;
    for comp in &components {
        let (mut models, hit_cap) = Solver::new(comp).solve(cap, cancel)?;
        if models.is_empty() {
            // No stable model for this component ⇒ none for the program
            // (matches the naive enumerator, which never reports
            // TooManyModels when the true count is zero).
            return Ok(Vec::new());
        }
        models.sort_unstable();
        capped |= hit_cap;
        solved.push(models);
    }
    let mut product: usize = 1;
    for m in &solved {
        product = product.saturating_mul(m.len());
    }
    if capped || product > limits.max_models {
        return Err(StableError::TooManyModels {
            limit: limits.max_models,
        });
    }

    // Cross product of the per-component model sets, each completed with the
    // well-founded core.
    let core: Vec<u32> = dense.atoms_with(&value, Val::True);
    let mut out: BTreeSet<Vec<u32>> = BTreeSet::new();
    let mut pick = vec![0usize; solved.len()];
    loop {
        if cancel.is_cancelled() {
            return Err(StableError::Interrupted);
        }
        let mut model: Vec<u32> = core.clone();
        for (ci, comp) in components.iter().enumerate() {
            for &local in &solved[ci][pick[ci]] {
                model.push(comp.atoms[local as usize]);
            }
        }
        model.sort_unstable();
        out.insert(model);

        // Mixed-radix increment over the component choices.
        let mut ci = 0;
        loop {
            if ci == pick.len() {
                return Ok(out.into_iter().collect());
            }
            pick[ci] += 1;
            if pick[ci] < solved[ci].len() {
                break;
            }
            pick[ci] = 0;
            ci += 1;
        }
    }
}

/// A rule over dense atom ids; `pos` and `neg` are sorted and duplicate-free
/// so per-literal counters are exact.
struct LocalRule {
    head: u32,
    pos: Vec<u32>,
    neg: Vec<u32>,
}

thread_local! {
    /// Table id → dense id while [`DenseProgram::new`] runs, `u32::MAX` when
    /// unmapped. It grows to the largest table this thread has seen and is
    /// reset entry by entry, so a program's remap costs O(its literals), not
    /// O(table). It is taken out while in use: a panic mid-remap leaves an
    /// empty scratch behind, never a dirty one.
    static DENSE_IDS: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// One program of an [`AtomTable`] on dense atom ids `0..n`: its id rules
/// remapped, and their positive occurrence lists, shared by every
/// alternating-fixpoint step.
struct DenseProgram {
    /// Dense id → table id (the atom's rank).
    ids: Vec<u32>,
    rules: IdRules,
    /// The rules with dense atom `a` in their positive body are
    /// `pos_occ[pos_start[a]..pos_start[a + 1]]`.
    pos_start: Vec<u32>,
    pos_occ: Vec<u32>,
}

impl DenseProgram {
    fn new(table: &AtomTable, program: &TableProgram) -> Self {
        let mut dense_of = DENSE_IDS.take();
        if dense_of.len() < table.len() {
            dense_of.resize(table.len(), u32::MAX);
        }
        let mut ids: Vec<u32> = Vec::new();
        let mut rules = IdRules::default();
        for rule in table.rules(program).flat_map(IdRules::iter) {
            rules.push_with(rule, |id| {
                let dense = &mut dense_of[id as usize];
                if *dense == u32::MAX {
                    *dense = ids.len() as u32;
                    ids.push(id);
                }
                *dense
            });
        }
        for &id in &ids {
            dense_of[id as usize] = u32::MAX;
        }
        DENSE_IDS.set(dense_of);

        let mut pos_start = vec![0u32; ids.len() + 1];
        for (_, pos, _) in rules.iter() {
            for &a in pos {
                pos_start[a as usize + 1] += 1;
            }
        }
        for a in 0..ids.len() {
            pos_start[a + 1] += pos_start[a];
        }
        let mut fill = pos_start.clone();
        let mut pos_occ = vec![0u32; pos_start[ids.len()] as usize];
        for (r, (_, pos, _)) in rules.iter().enumerate() {
            for &a in pos {
                pos_occ[fill[a as usize] as usize] = r as u32;
                fill[a as usize] += 1;
            }
        }
        DenseProgram {
            ids,
            rules,
            pos_start,
            pos_occ,
        }
    }

    /// The rules with dense atom `a` in their positive body.
    fn pos_occ(&self, a: u32) -> &[u32] {
        &self.pos_occ[self.pos_start[a as usize] as usize..self.pos_start[a as usize + 1] as usize]
    }

    /// The table ids of the atoms whose value is `val`, in dense order.
    fn atoms_with(&self, value: &[Val], val: Val) -> Vec<u32> {
        self.ids
            .iter()
            .zip(value)
            .filter(|&(_, &v)| v == val)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The well-founded model, one [`Val`] per atom id, by Van Gelder's
    /// alternating fixpoint `T₀ = ∅, U_i = Γ(T_i), T_{i+1} = Γ(U_i)` (the
    /// same sequence as [`crate::wellfounded::well_founded`]). The token is
    /// polled once per alternating round: a negation chain needs a round per
    /// two links, each linear in the program.
    fn well_founded(&self, cancel: &CancelToken) -> Result<Vec<Val>, StableError> {
        let mut gamma = Gamma::new(self);
        let mut t = vec![false; self.ids.len()];
        let mut u = vec![false; self.ids.len()];
        let mut t_next = t.clone();
        let mut u_next = u.clone();
        gamma.apply(self, &t, &mut u);
        loop {
            if cancel.is_cancelled() {
                return Err(StableError::Interrupted);
            }
            gamma.apply(self, &u, &mut t_next);
            gamma.apply(self, &t_next, &mut u_next);
            if t_next == t && u_next == u {
                break;
            }
            std::mem::swap(&mut t, &mut t_next);
            std::mem::swap(&mut u, &mut u_next);
        }
        Ok(t.iter()
            .zip(&u)
            .map(|(&t, &u)| match (t, u) {
                (true, _) => Val::True,
                (false, true) => Val::Unknown,
                (false, false) => Val::False,
            })
            .collect())
    }
}

/// Scratch for `Γ(I) = lm(Σ^I)` on a [`DenseProgram`]: per-rule counters of
/// underived positive body atoms, reused by every step.
struct Gamma {
    counts: Vec<u32>,
    stack: Vec<u32>,
}

impl Gamma {
    fn new(dense: &DenseProgram) -> Self {
        Gamma {
            counts: vec![0; dense.rules.len()],
            stack: Vec::with_capacity(dense.ids.len()),
        }
    }

    /// Write `Γ(interpretation)` into `model`: the least model of the rules
    /// no negated atom of which is in `interpretation`, by counter-based
    /// forward chaining.
    fn apply(&mut self, dense: &DenseProgram, interpretation: &[bool], model: &mut [bool]) {
        model.fill(false);
        self.stack.clear();
        for (r, (head, pos, neg)) in dense.rules.iter().enumerate() {
            if neg.iter().any(|&a| interpretation[a as usize]) {
                self.counts[r] = u32::MAX; // not in the reduct
                continue;
            }
            self.counts[r] = pos.len() as u32;
            if pos.is_empty() && !model[head as usize] {
                model[head as usize] = true;
                self.stack.push(head);
            }
        }
        while let Some(a) = self.stack.pop() {
            for &r in dense.pos_occ(a) {
                let count = &mut self.counts[r as usize];
                if *count == u32::MAX {
                    continue;
                }
                *count -= 1;
                if *count == 0 {
                    let head = dense.rules.heads[r as usize];
                    if !model[head as usize] {
                        model[head as usize] = true;
                        self.stack.push(head);
                    }
                }
            }
        }
    }
}

/// The residual program: the WFM-undecided part of the input, with decided
/// literals evaluated away. Every atom it mentions is WFM-unknown.
struct Residual {
    /// Local id → table id, ascending.
    atoms: Vec<u32>,
    rules: Vec<LocalRule>,
}

impl Residual {
    /// Build the residual of `dense` under its well-founded model `value`.
    /// Residual atoms are the unknown ones in canonical order: by table id,
    /// which is the atom's rank.
    fn build(dense: &DenseProgram, value: &[Val]) -> Residual {
        let mut unknown: Vec<u32> = (0..dense.ids.len() as u32)
            .filter(|&a| value[a as usize] == Val::Unknown)
            .collect();
        unknown.sort_unstable_by_key(|&a| dense.ids[a as usize]);
        let mut local = vec![u32::MAX; dense.ids.len()];
        for (i, &a) in unknown.iter().enumerate() {
            local[a as usize] = i as u32;
        }

        let mut rules = Vec::new();
        'rules: for (head, rule_pos, rule_neg) in dense.rules.iter() {
            // Only rules for undecided heads survive: WFM-true heads are in
            // every stable model already, WFM-false heads can never fire.
            if value[head as usize] != Val::Unknown {
                continue;
            }
            let mut pos = Vec::new();
            for &a in rule_pos {
                match value[a as usize] {
                    Val::Unknown => pos.push(local[a as usize]),
                    // A WFM-false positive literal: the body is never
                    // satisfied in any stable model.
                    Val::False => continue 'rules,
                    // WFM-true positive literals are simply satisfied.
                    Val::True => {}
                }
            }
            let mut neg = Vec::new();
            for &a in rule_neg {
                match value[a as usize] {
                    Val::Unknown => neg.push(local[a as usize]),
                    // A WFM-true negated atom blocks the rule in every
                    // stable model.
                    Val::True => continue 'rules,
                    // WFM-false negated atoms are simply satisfied.
                    Val::False => {}
                }
            }
            pos.sort_unstable();
            neg.sort_unstable();
            // `α ∧ ¬α` in one body can never be satisfied by the candidate
            // the rule's reduct would have to reproduce; drop it eagerly so
            // it does not feign support for its head.
            if pos.iter().any(|p| neg.binary_search(p).is_ok()) {
                continue;
            }
            rules.push(LocalRule {
                head: local[head as usize],
                pos,
                neg,
            });
        }
        Residual {
            atoms: unknown.iter().map(|&a| dense.ids[a as usize]).collect(),
            rules,
        }
    }

    /// Split into independent solve units: the connected components of the
    /// SCC condensation of the atom dependency graph (equivalently, of its
    /// undirected view). Units share no atoms, so `sms` factors as their
    /// cross product. They come ordered by smallest atom, each with its
    /// atoms ascending, so the split is fully deterministic.
    fn split(&self) -> Vec<Component> {
        let n = self.atoms.len();
        let members = connected_components(
            n,
            self.rules.iter().flat_map(|rule| {
                let head = rule.head as usize;
                rule.pos
                    .iter()
                    .chain(&rule.neg)
                    .map(move |&b| (head, b as usize))
            }),
        );

        let mut local_of = vec![(0u32, 0u32); n]; // (component, local index)
        for (ci, group) in members.iter().enumerate() {
            for (li, &a) in group.iter().enumerate() {
                local_of[a] = (ci as u32, li as u32);
            }
        }

        let mut components: Vec<Component> = members
            .iter()
            .map(|group| Component {
                atoms: group.iter().map(|&a| self.atoms[a]).collect(),
                rules: Vec::new(),
                branch: Vec::new(),
            })
            .collect();
        for rule in &self.rules {
            let (ci, head) = local_of[rule.head as usize];
            let remap = |lits: &[u32]| -> Vec<u32> {
                lits.iter().map(|&a| local_of[a as usize].1).collect()
            };
            components[ci as usize].rules.push(LocalRule {
                head,
                pos: remap(&rule.pos),
                neg: remap(&rule.neg),
            });
        }
        for comp in &mut components {
            comp.order_branch_atoms();
        }
        components
    }
}

/// One independent solve unit of the residual program.
struct Component {
    /// Local index → table id.
    atoms: Vec<u32>,
    rules: Vec<LocalRule>,
    /// Local indexes of the negatively-occurring atoms (the negative
    /// signature of the unit), in bottom-up SCC order: branching on the
    /// dependency-wise lowest atoms first lets propagation cascade through
    /// everything that depends on them.
    branch: Vec<u32>,
}

impl Component {
    fn order_branch_atoms(&mut self) {
        let n = self.atoms.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut negative: Vec<bool> = vec![false; n];
        for rule in &self.rules {
            for &b in rule.pos.iter().chain(rule.neg.iter()) {
                succ[b as usize].push(rule.head as usize);
            }
            for &b in &rule.neg {
                negative[b as usize] = true;
            }
        }
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
        }
        let mut scc_pos = vec![0usize; n];
        for (i, scc) in sccs_of(n, &succ).into_iter().enumerate() {
            for a in scc {
                scc_pos[a] = i;
            }
        }
        let mut branch: Vec<u32> = (0..n as u32).filter(|&a| negative[a as usize]).collect();
        branch.sort_by_key(|&a| (scc_pos[a as usize], a));
        self.branch = branch;
    }
}

/// Three-valued assignment state of one atom during the search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Val {
    Unknown,
    True,
    False,
}

/// The propagating branch-and-prune search over one component.
///
/// All state is indexed by dense local atom/rule ids; decisions and their
/// propagated consequences are recorded on a trail and undone by reversing
/// the per-rule counter updates, so backtracking is O(consequences), with no
/// allocation and no `Database` rebuilds.
struct Solver<'a> {
    comp: &'a Component,
    value: Vec<Val>,
    /// Has this assigned atom's counter effects been applied yet? (Assigned
    /// atoms whose effects were still queued when a conflict surfaced must
    /// not be reverse-applied on undo.)
    applied: Vec<bool>,
    trail: Vec<u32>,
    pending: Vec<u32>,
    conflict: bool,

    // Per-rule counters.
    /// Positive literals not yet assigned true.
    unsat_pos: Vec<u32>,
    /// Negative literals not yet assigned false.
    unfalse_neg: Vec<u32>,
    /// Literals contradicting the body: positives assigned false plus
    /// negatives assigned true. A rule with `blocked > 0` can never fire.
    blocked: Vec<u32>,
    /// Negative literals assigned true — the incremental reduct: at a leaf
    /// the Gelfond–Lifschitz reduct is exactly the rules with
    /// `neg_true == 0`, with their negative bodies deleted.
    neg_true: Vec<u32>,
    /// Per-atom count of unblocked rules with that head; at zero the atom is
    /// unfounded and forced false.
    support: Vec<u32>,

    // Occurrence lists (atom → rules).
    pos_occ: Vec<Vec<u32>>,
    neg_occ: Vec<Vec<u32>>,

    // Scratch for the leaf least-model computation.
    lm_counts: Vec<u32>,
    lm_stack: Vec<u32>,
    in_model: Vec<bool>,

    models: Vec<Vec<u32>>,
    /// Set when the cancel token fired mid-search (the search unwinds via
    /// the same early-stop path as the model cap).
    interrupted: bool,
}

impl<'a> Solver<'a> {
    fn new(comp: &'a Component) -> Self {
        let n = comp.atoms.len();
        let m = comp.rules.len();
        let mut pos_occ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut neg_occ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut support = vec![0u32; n];
        let mut unsat_pos = vec![0u32; m];
        let mut unfalse_neg = vec![0u32; m];
        for (r, rule) in comp.rules.iter().enumerate() {
            for &a in &rule.pos {
                pos_occ[a as usize].push(r as u32);
            }
            for &a in &rule.neg {
                neg_occ[a as usize].push(r as u32);
            }
            unsat_pos[r] = rule.pos.len() as u32;
            unfalse_neg[r] = rule.neg.len() as u32;
            support[rule.head as usize] += 1;
        }
        Solver {
            comp,
            value: vec![Val::Unknown; n],
            applied: vec![false; n],
            trail: Vec::with_capacity(n),
            pending: Vec::new(),
            conflict: false,
            unsat_pos,
            unfalse_neg,
            blocked: vec![0; m],
            neg_true: vec![0; m],
            support,
            pos_occ,
            neg_occ,
            lm_counts: vec![0; m],
            lm_stack: Vec::with_capacity(n),
            in_model: vec![false; n],
            models: Vec::new(),
            interrupted: false,
        }
    }

    /// Enumerate the component's stable models, stopping after `cap` of them
    /// (returns whether the cap was hit). Errors with
    /// [`StableError::Interrupted`] if `cancel` fires mid-search.
    fn solve(
        mut self,
        cap: usize,
        cancel: &CancelToken,
    ) -> Result<(Vec<Vec<u32>>, bool), StableError> {
        // Root propagation: rules with (residually) empty bodies fire, atoms
        // with no rules are unfounded. A root conflict means no stable model.
        self.conflict = false;
        self.pending.clear();
        for r in 0..self.comp.rules.len() {
            if self.fireable(r) {
                self.enqueue(self.comp.rules[r].head, Val::True);
            }
        }
        for a in 0..self.comp.atoms.len() as u32 {
            if self.support[a as usize] == 0 {
                self.enqueue(a, Val::False);
            }
        }
        if !self.run_queue() {
            return Ok((Vec::new(), false));
        }
        let hit_cap = !self.search(0, cap, cancel);
        if self.interrupted {
            return Err(StableError::Interrupted);
        }
        Ok((self.models, hit_cap))
    }

    fn fireable(&self, r: usize) -> bool {
        self.blocked[r] == 0 && self.unsat_pos[r] == 0 && self.unfalse_neg[r] == 0
    }

    /// Record an assignment without applying its effects yet. Assigning an
    /// atom against its current value raises the conflict flag instead (the
    /// caller finishes applying the current effect batch — plain counter
    /// arithmetic — so undo stays exact).
    fn enqueue(&mut self, atom: u32, val: Val) {
        match self.value[atom as usize] {
            Val::Unknown => {
                self.value[atom as usize] = val;
                self.trail.push(atom);
                self.pending.push(atom);
            }
            v if v == val => {}
            _ => self.conflict = true,
        }
    }

    /// Apply pending assignment effects to fixpoint. Returns `false` on
    /// conflict (the trail still records every assignment made, applied or
    /// not, so [`Solver::undo_to`] restores the exact prior state).
    fn run_queue(&mut self) -> bool {
        let mut qi = 0;
        while qi < self.pending.len() && !self.conflict {
            let a = self.pending[qi] as usize;
            qi += 1;
            self.applied[a] = true;
            match self.value[a] {
                Val::True => {
                    for i in 0..self.pos_occ[a].len() {
                        let r = self.pos_occ[a][i] as usize;
                        self.unsat_pos[r] -= 1;
                        if self.fireable(r) {
                            self.enqueue(self.comp.rules[r].head, Val::True);
                        }
                    }
                    for i in 0..self.neg_occ[a].len() {
                        let r = self.neg_occ[a][i] as usize;
                        self.neg_true[r] += 1;
                        self.block(r);
                    }
                }
                Val::False => {
                    for i in 0..self.pos_occ[a].len() {
                        let r = self.pos_occ[a][i] as usize;
                        self.block(r);
                    }
                    for i in 0..self.neg_occ[a].len() {
                        let r = self.neg_occ[a][i] as usize;
                        self.unfalse_neg[r] -= 1;
                        if self.fireable(r) {
                            self.enqueue(self.comp.rules[r].head, Val::True);
                        }
                    }
                }
                Val::Unknown => unreachable!("pending atoms are assigned"),
            }
        }
        let ok = !self.conflict;
        self.pending.clear();
        ok
    }

    fn block(&mut self, r: usize) {
        self.blocked[r] += 1;
        if self.blocked[r] == 1 {
            let head = self.comp.rules[r].head as usize;
            self.support[head] -= 1;
            if self.support[head] == 0 {
                self.enqueue(head as u32, Val::False);
            }
        }
    }

    fn unblock(&mut self, r: usize) {
        self.blocked[r] -= 1;
        if self.blocked[r] == 0 {
            self.support[self.comp.rules[r].head as usize] += 1;
        }
    }

    /// Decide `atom = val` and propagate. Returns `false` on conflict.
    fn decide(&mut self, atom: u32, val: Val) -> bool {
        self.conflict = false;
        self.pending.clear();
        self.enqueue(atom, val);
        self.run_queue()
    }

    /// Undo every assignment made after `mark`, reversing applied effects.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let a = self.trail.pop().expect("trail is non-empty") as usize;
            if self.applied[a] {
                self.applied[a] = false;
                match self.value[a] {
                    Val::True => {
                        for i in 0..self.pos_occ[a].len() {
                            let r = self.pos_occ[a][i] as usize;
                            self.unsat_pos[r] += 1;
                        }
                        for i in 0..self.neg_occ[a].len() {
                            let r = self.neg_occ[a][i] as usize;
                            self.neg_true[r] -= 1;
                            self.unblock(r);
                        }
                    }
                    Val::False => {
                        for i in 0..self.pos_occ[a].len() {
                            let r = self.pos_occ[a][i] as usize;
                            self.unblock(r);
                        }
                        for i in 0..self.neg_occ[a].len() {
                            let r = self.neg_occ[a][i] as usize;
                            self.unfalse_neg[r] += 1;
                        }
                    }
                    Val::Unknown => unreachable!("trail atoms are assigned"),
                }
            }
            self.value[a] = Val::Unknown;
        }
    }

    /// Branch on the remaining unassigned negative-signature atoms. Returns
    /// `false` as soon as `cap` models have been collected (or the cancel
    /// token fires — distinguished by the `interrupted` flag).
    fn search(&mut self, mut bi: usize, cap: usize, cancel: &CancelToken) -> bool {
        if cancel.is_cancelled() {
            self.interrupted = true;
            return false;
        }
        while bi < self.comp.branch.len()
            && self.value[self.comp.branch[bi] as usize] != Val::Unknown
        {
            bi += 1;
        }
        if bi == self.comp.branch.len() {
            return self.leaf(cap);
        }
        let atom = self.comp.branch[bi];
        // False first, matching the naive enumerator's small-models-first
        // exploration (the final order is canonicalised anyway).
        for val in [Val::False, Val::True] {
            let mark = self.trail.len();
            let ok = self.decide(atom, val);
            if ok && !self.search(bi + 1, cap, cancel) {
                self.undo_to(mark);
                return false;
            }
            self.undo_to(mark);
        }
        true
    }

    /// All negative-signature atoms are assigned: the reduct is fully
    /// determined (`neg_true == 0` rules, negative bodies deleted). Compute
    /// its least model over the local indexes and keep it if it reproduces
    /// the branch assignment — then it is a stable model by construction.
    fn leaf(&mut self, cap: usize) -> bool {
        self.in_model.iter_mut().for_each(|b| *b = false);
        self.lm_stack.clear();
        for (r, rule) in self.comp.rules.iter().enumerate() {
            if self.neg_true[r] > 0 {
                self.lm_counts[r] = u32::MAX; // not in the reduct
            } else {
                self.lm_counts[r] = rule.pos.len() as u32;
                if rule.pos.is_empty() && !self.in_model[rule.head as usize] {
                    self.in_model[rule.head as usize] = true;
                    self.lm_stack.push(rule.head);
                }
            }
        }
        while let Some(a) = self.lm_stack.pop() {
            for i in 0..self.pos_occ[a as usize].len() {
                let r = self.pos_occ[a as usize][i] as usize;
                if self.lm_counts[r] == u32::MAX {
                    continue;
                }
                self.lm_counts[r] -= 1;
                if self.lm_counts[r] == 0 {
                    let head = self.comp.rules[r].head;
                    if !self.in_model[head as usize] {
                        self.in_model[head as usize] = true;
                        self.lm_stack.push(head);
                    }
                }
            }
        }
        // The candidate must agree with the branch assignment on the whole
        // negative signature, otherwise the reduct we used was not the
        // candidate's own reduct.
        for &b in &self.comp.branch {
            if self.in_model[b as usize] != (self.value[b as usize] == Val::True) {
                return true;
            }
        }
        let model: Vec<u32> = (0..self.comp.atoms.len() as u32)
            .filter(|&a| self.in_model[a as usize])
            .collect();
        self.models.push(model);
        self.models.len() < cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_stable::naive_stable_models;
    use crate::wellfounded::{well_founded, WellFounded};
    use gdlog_data::Const;
    use std::time::{Duration, Instant};

    fn atom(name: &str) -> GroundAtom {
        GroundAtom::make(name, vec![])
    }

    fn atom1(name: &str, arg: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(arg)])
    }

    fn atom2(name: &str, a: i64, b: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(a), Const::Int(b)])
    }

    fn models(p: &GroundProgram) -> Vec<Database> {
        let ms = stable_models(p, &StableModelLimits::default()).unwrap();
        // Every path through the new enumerator is cross-checked against the
        // retained naive oracle.
        assert_eq!(
            ms,
            naive_stable_models(p, &StableModelLimits::default()).unwrap(),
            "component search diverged from the naive oracle"
        );
        ms
    }

    #[test]
    fn positive_program_has_its_least_model_as_unique_stable_model() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A")),
            GroundRule::new(atom("B"), vec![atom("A")], vec![]),
        ]);
        let ms = models(&p);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0], least_model(&p));
        assert!(is_stable_model(&p, &ms[0]));
    }

    #[test]
    fn even_loop_has_two_stable_models() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::new(atom("a"), vec![], vec![atom("b")]),
            GroundRule::new(atom("b"), vec![], vec![atom("a")]),
        ]);
        let ms = models(&p);
        assert_eq!(ms.len(), 2);
        assert!(ms.contains(&Database::from_atoms(vec![atom("a")])));
        assert!(ms.contains(&Database::from_atoms(vec![atom("b")])));
        assert!(!is_stable_model(&p, &Database::new()));
        assert!(!is_stable_model(
            &p,
            &Database::from_atoms(vec![atom("a"), atom("b")])
        ));
    }

    #[test]
    fn odd_loop_has_no_stable_model() {
        let p =
            GroundProgram::from_rules(vec![GroundRule::new(atom("a"), vec![], vec![atom("a")])]);
        assert!(models(&p).is_empty());
    }

    #[test]
    fn constraint_encoding_via_fail_aux() {
        // The paper's ⊥ encoding: Fail, ¬Aux → Aux kills every model with
        // Fail. Program: Fail ← ¬G.  G ← ¬F.  F ← ¬G.  plus the constraint.
        let p = GroundProgram::from_rules(vec![
            GroundRule::new(atom("Fail"), vec![], vec![atom("G")]),
            GroundRule::new(atom("G"), vec![], vec![atom("F")]),
            GroundRule::new(atom("F"), vec![], vec![atom("G")]),
            GroundRule::new(atom("Aux"), vec![atom("Fail")], vec![atom("Aux")]),
        ]);
        let ms = models(&p);
        // Without the constraint there would be two stable models ({G} and
        // {F, Fail}); the constraint eliminates the one containing Fail.
        assert_eq!(ms.len(), 1);
        assert!(ms[0].contains(&atom("G")));
        assert!(!ms[0].contains(&atom("Fail")));
    }

    #[test]
    fn coin_program_stable_models_match_paper() {
        // Π_coin for the configuration Coin(1): two stable models
        // {Coin(1), Aux1} and {Coin(1), Aux2} (§3 of the paper).
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom1("Coin", 1)),
            GroundRule::new(atom("Aux2"), vec![atom1("Coin", 1)], vec![atom("Aux1")]),
            GroundRule::new(atom("Aux1"), vec![atom1("Coin", 1)], vec![atom("Aux2")]),
        ]);
        let ms = models(&p);
        assert_eq!(ms.len(), 2);
        assert!(ms.contains(&Database::from_atoms(vec![atom1("Coin", 1), atom("Aux1")])));
        assert!(ms.contains(&Database::from_atoms(vec![atom1("Coin", 1), atom("Aux2")])));

        // For the configuration Coin(0) with the constraint Coin(0) → ⊥
        // (encoded via Fail/Aux) there is no stable model.
        let p0 = GroundProgram::from_rules(vec![
            GroundRule::fact(atom1("Coin", 0)),
            GroundRule::new(atom("Fail"), vec![atom1("Coin", 0)], vec![]),
            GroundRule::new(atom("Aux"), vec![atom("Fail")], vec![atom("Aux")]),
            GroundRule::new(atom("Aux2"), vec![atom1("Coin", 1)], vec![atom("Aux1")]),
            GroundRule::new(atom("Aux1"), vec![atom1("Coin", 1)], vec![atom("Aux2")]),
        ]);
        assert!(models(&p0).is_empty());
    }

    #[test]
    fn stable_models_are_minimal_models() {
        // Every stable model is a minimal (classical) model of the program.
        let p = GroundProgram::from_rules(vec![
            GroundRule::new(atom("a"), vec![], vec![atom("b")]),
            GroundRule::new(atom("b"), vec![], vec![atom("a")]),
            GroundRule::new(atom("c"), vec![atom("a")], vec![]),
        ]);
        for m in models(&p) {
            assert!(p.is_model(&m));
            for a in m.iter() {
                let smaller = Database::from_atoms(m.iter().filter(|x| *x != a).cloned());
                assert!(
                    !p.is_model(&smaller) || !is_stable_model(&p, &smaller),
                    "proper subset is also a model and stable"
                );
            }
        }
    }

    #[test]
    fn three_independent_choices_give_eight_models() {
        let mut p = GroundProgram::new();
        for i in 1..=3 {
            p.push(GroundRule::new(
                atom1("In", i),
                vec![],
                vec![atom1("Out", i)],
            ));
            p.push(GroundRule::new(
                atom1("Out", i),
                vec![],
                vec![atom1("In", i)],
            ));
        }
        let ms = models(&p);
        assert_eq!(ms.len(), 8);
        // All models are distinct and each picks exactly one of In(i)/Out(i).
        for m in &ms {
            for i in 1..=3 {
                assert!(m.contains(&atom1("In", i)) ^ m.contains(&atom1("Out", i)));
            }
        }
    }

    #[test]
    fn limits_are_enforced() {
        // One big negative cycle X(0) ← ¬X(1) ← … ← ¬X(0): a single
        // component with six branching atoms.
        let mut chained = GroundProgram::new();
        for i in 0..6 {
            chained.push(GroundRule::new(
                atom1("X", i),
                vec![],
                vec![atom1("X", (i + 1) % 6)],
            ));
        }
        let tight = StableModelLimits {
            max_branch_atoms: 4,
            max_models: 100,
        };
        assert!(matches!(
            stable_models(&chained, &tight),
            Err(StableError::TooManyBranchAtoms { found: 6, limit: 4 })
        ));

        // Six independent even loops: 64 stable models exceed a model cap of
        // ten even though every component is tiny.
        let mut p = GroundProgram::new();
        for i in 0..6 {
            p.push(GroundRule::new(
                atom1("In", i),
                vec![],
                vec![atom1("Out", i)],
            ));
            p.push(GroundRule::new(
                atom1("Out", i),
                vec![],
                vec![atom1("In", i)],
            ));
        }
        let tight_models = StableModelLimits {
            max_branch_atoms: 64,
            max_models: 10,
        };
        assert!(matches!(
            stable_models(&p, &tight_models),
            Err(StableError::TooManyModels { limit: 10 })
        ));
    }

    #[test]
    fn component_split_beats_the_naive_branch_limit() {
        // Thirty independent even loops: 60 branching atoms in total, but
        // two per component — far past the naive enumerator's global limit,
        // yet trivial for the split search under a tight model cap check.
        let mut p = GroundProgram::new();
        for i in 0..30 {
            p.push(GroundRule::new(
                atom1("In", i),
                vec![],
                vec![atom1("Out", i)],
            ));
            p.push(GroundRule::new(
                atom1("Out", i),
                vec![],
                vec![atom1("In", i)],
            ));
        }
        let limits = StableModelLimits {
            max_branch_atoms: 4,
            max_models: 100,
        };
        // 2^30 models overflow max_models — reported as such, not as a
        // branching failure, and without enumerating 2^30 leaves.
        assert!(matches!(
            stable_models(&p, &limits),
            Err(StableError::TooManyModels { limit: 100 })
        ));
        assert!(matches!(
            naive_stable_models(&p, &limits),
            Err(StableError::TooManyBranchAtoms { .. })
        ));

        // With an odd loop welded onto one of the components the whole
        // program collapses to zero models — detected without enumerating
        // the other components' cross product.
        p.push(GroundRule::new(
            atom1("Boom", 0),
            vec![atom1("In", 0)],
            vec![atom1("Boom", 0)],
        ));
        p.push(GroundRule::new(
            atom1("Boom", 0),
            vec![atom1("Out", 0)],
            vec![atom1("Boom", 0)],
        ));
        assert_eq!(stable_models(&p, &limits).unwrap(), Vec::<Database>::new());
    }

    #[test]
    fn cross_component_programs_match_oracle() {
        // Two components with asymmetric model counts (2 × 1), linked only
        // through WFM-decided atoms which must not merge them.
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("Seed")),
            GroundRule::new(atom("a"), vec![atom("Seed")], vec![atom("b")]),
            GroundRule::new(atom("b"), vec![atom("Seed")], vec![atom("a")]),
            GroundRule::new(atom("G"), vec![atom("Seed")], vec![atom("F")]),
            GroundRule::new(atom("F"), vec![], vec![atom("G")]),
            GroundRule::new(atom("Fail"), vec![atom("F"), atom("Seed")], vec![]),
            GroundRule::new(atom("Aux"), vec![atom("Fail")], vec![atom("Aux")]),
        ]);
        let ms = models(&p);
        // a/b is a free even loop; the F/G loop is constrained to G.
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert!(m.contains(&atom("G")));
            assert!(!m.contains(&atom("Fail")));
        }
    }

    #[test]
    fn error_display() {
        let e = StableError::TooManyBranchAtoms {
            found: 40,
            limit: 26,
        };
        assert!(e.to_string().contains("40"));
        let e = StableError::TooManyModels { limit: 5 };
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn stable_model_check_rejects_non_models() {
        let p = GroundProgram::from_rules(vec![GroundRule::fact(atom("A"))]);
        assert!(!is_stable_model(&p, &Database::new()));
        assert!(is_stable_model(&p, &Database::from_atoms(vec![atom("A")])));
        assert!(!is_stable_model(
            &p,
            &Database::from_atoms(vec![atom("A"), atom("B")])
        ));
    }

    #[test]
    fn duplicate_and_contradictory_body_literals() {
        // Duplicate literals must not double-count in the propagation
        // counters; `a ∧ ¬a` bodies can never fire.
        let p = GroundProgram::from_rules(vec![
            GroundRule::new(atom("a"), vec![], vec![atom("b"), atom("b")]),
            GroundRule::new(atom("b"), vec![], vec![atom("a"), atom("a")]),
            GroundRule::new(atom("c"), vec![atom("a"), atom("a")], vec![atom("a")]),
        ]);
        let ms = models(&p);
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert!(!m.contains(&atom("c")));
        }
    }

    /// The dense kernel's true / unknown / false split as a [`WellFounded`].
    fn dense_well_founded(p: &GroundProgram) -> WellFounded {
        let mut builder = AtomTableBuilder::new();
        let program = builder.rules(p.iter().map(GroundRule::parts));
        let table = builder.finish();
        let dense = DenseProgram::new(&table, &program);
        let value = dense.well_founded(&CancelToken::never()).unwrap();
        let set = |val| {
            Database::from_atoms(
                dense
                    .atoms_with(&value, val)
                    .into_iter()
                    .map(|id| table.atom(id).clone()),
            )
        };
        WellFounded {
            true_atoms: set(Val::True),
            false_atoms: set(Val::False),
            unknown_atoms: set(Val::Unknown),
        }
    }

    /// `a(i) ← ¬a(i − 1)` for `i = 1..=n`: the alternating fixpoint decides
    /// two links per round, so the chain needs about `n / 2` rounds.
    fn negation_chain(n: i64) -> GroundProgram {
        (1..=n)
            .map(|i| GroundRule::new(atom1("a", i), vec![], vec![atom1("a", i - 1)]))
            .collect()
    }

    /// A seeded random program over propositional and first-order atoms.
    /// Bodies draw with replacement (repeated positive atoms), negative
    /// bodies also draw from atoms that head no rule, and some bodies are
    /// forced to contain `α ∧ ¬α`.
    fn random_program(seed: u64) -> GroundProgram {
        let mut state = seed;
        let mut next = move |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let head_pool: Vec<GroundAtom> = (0..4)
            .map(|i| atom(&format!("p{i}")))
            .chain((0..4).map(|i| atom1("q", i)))
            .chain((0..2).map(|i| GroundAtom::make("e", vec![Const::Int(i), Const::Int(i + 1)])))
            .collect();
        let neg_only: Vec<GroundAtom> = (0..2).map(|i| atom1("n", i)).collect();
        let rules = next(12);
        let mut p = GroundProgram::new();
        for _ in 0..rules {
            let head = head_pool[next(head_pool.len() as u64) as usize].clone();
            let mut pos: Vec<GroundAtom> = (0..next(4))
                .map(|_| head_pool[next(head_pool.len() as u64) as usize].clone())
                .collect();
            let mut neg: Vec<GroundAtom> = (0..next(3))
                .map(|_| {
                    let k = next((head_pool.len() + neg_only.len()) as u64) as usize;
                    head_pool.iter().chain(&neg_only).nth(k).unwrap().clone()
                })
                .collect();
            if next(8) == 0 {
                let alpha = head_pool[next(head_pool.len() as u64) as usize].clone();
                pos.push(alpha.clone());
                neg.push(alpha);
            }
            p.push(GroundRule::new(head, pos, neg));
        }
        p
    }

    #[test]
    fn dense_well_founded_matches_the_reference() {
        let mut cases: Vec<GroundProgram> = vec![
            GroundProgram::new(),
            GroundProgram::from_rules((0..5).map(|i| GroundRule::fact(atom1("F", i)))),
            negation_chain(41),
            GroundProgram::from_rules(vec![
                GroundRule::fact(atom("s")),
                GroundRule::new(atom("b"), vec![atom("s"), atom("s")], vec![atom("n")]),
                GroundRule::new(atom("c"), vec![atom("b")], vec![atom("b")]),
                GroundRule::new(atom("d"), vec![atom("s")], vec![atom("d"), atom("d")]),
            ]),
        ];
        cases.extend((0..2_000).map(random_program));
        let mut partial = 0;
        for (i, p) in cases.iter().enumerate() {
            let reference = well_founded(p);
            assert_eq!(dense_well_founded(p), reference, "case {i}:\n{p}");
            partial += usize::from(!reference.is_total());
        }
        // The sweep exercises the residual path, not only total models.
        assert!(partial > 100, "only {partial} programs with unknown atoms");
        let chain = dense_well_founded(&negation_chain(41));
        assert!(chain.unknown_atoms.is_empty());
        assert_eq!(chain.true_atoms.len(), 21);
    }

    #[test]
    fn long_negation_chain_is_interrupted_by_a_deadline() {
        // 20 000 links: about 10 000 alternating rounds of two linear-time
        // Γ steps each. The whole fixpoint runs for seconds even in an
        // optimised build, far beyond 100× the 5 ms deadline.
        let p = negation_chain(20_000);
        let cancel = CancelToken::new();
        let started = Instant::now();
        let _deadline = cancel.cancel_after(Duration::from_millis(5));
        assert_eq!(
            stable_models_with_cancel(&p, &StableModelLimits::default(), &cancel),
            Err(StableError::Interrupted)
        );
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    // Stratified programs have exactly one stable model (Corollary 1 of
    // Gelfond & Lifschitz, used by Proposition 5.2 of the paper).

    #[test]
    fn two_strata_with_negation() {
        // Reachable/unreachable: U(x) ← V(x), ¬R(x).
        let mut p = GroundProgram::new();
        for i in 1..=3 {
            p.push(GroundRule::fact(atom1("V", i)));
        }
        p.push(GroundRule::fact(atom2("E", 1, 2)));
        p.push(GroundRule::fact(atom1("R", 1)));
        for i in 1..=3 {
            for j in 1..=3 {
                p.push(GroundRule::new(
                    atom1("R", j),
                    vec![atom1("R", i), atom2("E", i, j)],
                    vec![],
                ));
            }
        }
        for i in 1..=3 {
            p.push(GroundRule::new(
                atom1("U", i),
                vec![atom1("V", i)],
                vec![atom1("R", i)],
            ));
        }
        let expected = Database::from_atoms([
            atom1("V", 1),
            atom1("V", 2),
            atom1("V", 3),
            atom2("E", 1, 2),
            atom1("R", 1),
            atom1("R", 2),
            atom1("U", 3),
        ]);
        assert_eq!(models(&p), vec![expected]);
    }

    #[test]
    fn three_strata_chain() {
        // C ← ¬B. B ← ¬A. A is a fact ⇒ B false, C true.
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A")),
            GroundRule::new(atom("B"), vec![], vec![atom("A")]),
            GroundRule::new(atom("C"), vec![], vec![atom("B")]),
        ]);
        let expected = Database::from_atoms([atom("A"), atom("C")]);
        assert_eq!(models(&p), vec![expected]);
    }

    #[test]
    fn dime_quarter_scenario_from_appendix_e() {
        // Ground instance of the Appendix E example for the configuration
        // "dime 1 tails, dime 2 heads": the quarter is not tossed.
        let facts = [
            atom1("Dime", 1),
            atom1("Dime", 2),
            atom1("Quarter", 3),
            atom2("DimeTail", 1, 1),
            atom2("DimeTail", 2, 0),
        ];
        let mut p = GroundProgram::from_rules(facts.iter().cloned().map(GroundRule::fact));
        p.extend([
            GroundRule::new(atom("SomeDimeTail"), vec![atom2("DimeTail", 1, 1)], vec![]),
            GroundRule::new(atom("SomeDimeTail"), vec![atom2("DimeTail", 2, 1)], vec![]),
            GroundRule::new(
                atom1("TossQuarter", 3),
                vec![atom1("Quarter", 3)],
                vec![atom("SomeDimeTail")],
            ),
        ]);
        let expected = Database::from_atoms(facts.into_iter().chain([atom("SomeDimeTail")]));
        assert_eq!(models(&p), vec![expected]);
    }

    #[test]
    fn small_stratified_programs_have_one_stable_model() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom1("P", 1)),
            GroundRule::new(atom1("Q", 1), vec![atom1("P", 1)], vec![atom1("R", 1)]),
            GroundRule::new(atom1("S", 1), vec![atom1("Q", 1)], vec![]),
        ]);
        let expected = Database::from_atoms([atom1("P", 1), atom1("Q", 1), atom1("S", 1)]);
        assert_eq!(models(&p), vec![expected]);

        let p = GroundProgram::from_rules(vec![
            GroundRule::new(atom("X"), vec![], vec![atom("Y")]),
            GroundRule::new(atom("Z"), vec![atom("X")], vec![]),
        ]);
        assert_eq!(
            models(&p),
            vec![Database::from_atoms([atom("X"), atom("Z")])]
        );
    }
}
