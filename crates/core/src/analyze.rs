//! Static program analysis (`gdlog lint`): safety, chase termination,
//! stratifiability, independence prediction and hygiene — all at the
//! rule/predicate level, before any grounding.
//!
//! The analyses:
//!
//! 1. **Safety / range restriction** ([`validate_all`]): every variable of
//!    the negative body and of the head (including Δ-term parameters and
//!    event signatures) must be bound by a positive body atom. Unlike
//!    [`Program::validate_rules`], *all* violations are collected, each with
//!    a [`RuleLocus`] naming the offending literal or variable so the CLI
//!    can place the caret on it.
//! 2. **Chase termination via weak acyclicity** ([`weak_cycles`]): the
//!    classical existential-rules criterion applied to `Σ_Π[D]`'s only
//!    existential rules — the AtR TGDs `Active → ∃y Result`. The position
//!    graph is built directly on the *surface* program: for a rule with a
//!    Δ-term at head position `j`, the fresh `∃y` value flows from the
//!    positions of the Δ-term's variables into `(head, j)` (a *special*
//!    edge); an ordinary head variable copies its body positions into its
//!    head position (a normal edge). Body→`Active`→`Result`→head paths in
//!    the translated program exist exactly for the variables of that
//!    Δ-term, and `Active`/`Result` positions are never rule-body sources,
//!    so a special edge inside a cycle at the surface level is equivalent
//!    to one in the translated graph. A cycle through a special edge means
//!    the chase may generate fresh values forever — reported as a "chase
//!    may not terminate" warning (the budgets then act as the safety net).
//! 3. **Non-stratifiability** ([`lint`]): a negative edge on a cycle of
//!    `dg(Π)` (the Tarjan kernel of [`gdlog_engine::depgraph`]), reported
//!    as a note — stable-model semantics still applies, but the perfect
//!    grounder is unavailable.
//! 4. **Static independence prediction** ([`StaticComponents`]): connected
//!    components of the predicate-level dependency graph of `Σ_Π[D]`,
//!    extended with `Active — Result` edges. Every ground star edge of the
//!    dynamic analysis (`factor::analyze_with`) projects onto a predicate-level
//!    edge of this graph, so every dynamic chase component lies inside one
//!    static component: the static partition *over-approximates*
//!    dependence. [`crate::Pipeline::solve_factored`] uses it two ways —
//!    [`certainly_single_trigger`] skips universe saturation outright when
//!    the program provably has at most one probabilistic trigger, and
//!    otherwise the saturation fixpoint is seeded per static component.
//! 5. **Hygiene** ([`lint`]): head predicates never read by any body
//!    (query-only outputs or dead code), rules that can never fire because
//!    a positive body predicate is underivable, always-true negative
//!    literals, variables mentioned exactly once, and all-constant
//!    distribution parameters that are statically out of range.

use crate::depgraph::stratification;
use crate::error::CoreError;
use crate::program::{Program, AUX_PREDICATE, FAIL_PREDICATE};
use crate::rule::{HeadTerm, Rule};
use crate::translate::SigmaPi;
use gdlog_data::{Atom, Database, Predicate, Schema, Term, Var};
use gdlog_engine::depgraph::{connected_components, sccs_of};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Severity of a lint [`Finding`]. Ordered `Note < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: intentional patterns worth knowing about.
    Note,
    /// Suspicious: very likely a mistake, but evaluation still works.
    Warning,
    /// The program is invalid and cannot be evaluated.
    Error,
}

impl Severity {
    /// The lowercase label used in rendered diagnostics (`error:`, …).
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where inside a rule a finding points. The parser resolves a locus to a
/// source span (with graceful fallback to the rule's own span), so core
/// stays span-free while the CLI gets precise carets.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleLocus {
    /// The whole rule (its first token).
    Rule,
    /// The head atom.
    Head,
    /// Head argument `j` (0-based).
    HeadArg(usize),
    /// Positive body literal `i` (0-based).
    Pos(usize),
    /// Negative body literal `i` (0-based).
    Neg(usize),
    /// The named variable's occurrence in the head (including Δ-terms).
    HeadVar(String),
    /// The named variable's occurrence in negative literal `i`.
    NegVar(usize, String),
    /// The named variable's first occurrence anywhere in the rule.
    Var(String),
}

/// One validation problem: the rule index, the locus inside it, and the
/// error. [`Program::validate_rules`] reports the first of these;
/// [`validate_all`] collects them all.
#[derive(Clone, Debug)]
pub struct RuleIssue {
    /// Index into [`Program::rules`].
    pub rule: usize,
    /// Where inside the rule.
    pub locus: RuleLocus,
    /// The validation error.
    pub error: CoreError,
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Index into [`Program::rules`] when the finding is rule-local.
    pub rule: Option<usize>,
    /// Where inside the rule (ignored when `rule` is `None`).
    pub locus: RuleLocus,
}

impl Finding {
    fn rule_local(
        severity: Severity,
        code: &'static str,
        message: String,
        rule: usize,
        locus: RuleLocus,
    ) -> Self {
        Finding {
            severity,
            code,
            message,
            rule: Some(rule),
            locus,
        }
    }
}

/// The full lint report of a program.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Findings, in deterministic (rule-order, analysis-order) sequence;
    /// the CLI re-sorts them by source span.
    pub findings: Vec<Finding>,
    /// Number of static predicate components of `Σ_Π[D]` (see
    /// [`StaticComponents`]); `None` when validation errors prevented
    /// translation.
    pub static_components: Option<usize>,
}

impl LintReport {
    /// Count findings of one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Any error-severity findings?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Any warning-severity findings?
    pub fn has_warnings(&self) -> bool {
        self.count(Severity::Warning) > 0
    }
}

/// Safety and well-formedness issues of a single rule, in the same order
/// [`Rule::validate`] checks them (so the first issue is the error that
/// function reports).
fn rule_issues(rule: &Rule) -> Vec<(RuleLocus, CoreError)> {
    let positive: BTreeSet<Var> = rule.positive_variables();
    let mut out = Vec::new();
    for (i, atom) in rule.neg.iter().enumerate() {
        for v in atom.variables() {
            if !positive.contains(&v) {
                out.push((
                    RuleLocus::NegVar(i, v.to_string()),
                    CoreError::Validation(format!(
                        "unsafe variable {v} in negative literal not {atom} of rule `{rule}`"
                    )),
                ));
            }
        }
    }
    for v in rule.head.variables() {
        if !positive.contains(&v) {
            out.push((
                RuleLocus::HeadVar(v.to_string()),
                CoreError::Validation(format!(
                    "unsafe variable {v} in head {} of rule `{rule}`",
                    rule.head
                )),
            ));
        }
    }
    for (j, d) in rule.head.delta_terms() {
        if d.params.is_empty() {
            out.push((
                RuleLocus::HeadArg(j),
                CoreError::Validation(format!(
                    "Δ-term {d} has an empty parameter tuple in rule `{rule}`"
                )),
            ));
        }
    }
    out
}

/// The locus of a predicate occurrence inside a rule: the first positive
/// literal using it, else the first negative literal, else the head.
fn predicate_locus(rule: &Rule, p: &Predicate) -> RuleLocus {
    if let Some(i) = rule.pos.iter().position(|a| a.predicate == *p) {
        return RuleLocus::Pos(i);
    }
    if let Some(i) = rule.neg.iter().position(|a| a.predicate == *p) {
        return RuleLocus::Neg(i);
    }
    RuleLocus::Head
}

/// Collect *every* validation issue of the program (safety, arity
/// consistency, Δ-term well-formedness), each with the rule index and the
/// locus of the offending literal/term. [`Program::validate_rules`] is the
/// first-issue view of this list.
pub fn validate_all(program: &Program) -> Vec<RuleIssue> {
    let mut issues = Vec::new();
    let mut schema = Schema::new();
    for (index, rule) in program.rules().iter().enumerate() {
        for (locus, error) in rule_issues(rule) {
            issues.push(RuleIssue {
                rule: index,
                locus,
                error,
            });
        }
        for p in rule.predicates() {
            if let Err(e) = schema.add(p) {
                issues.push(RuleIssue {
                    rule: index,
                    locus: predicate_locus(rule, &p),
                    error: e.into(),
                });
            }
        }
        for (j, d) in rule.head.delta_terms() {
            match program.delta().get(&d.distribution) {
                Err(e) => issues.push(RuleIssue {
                    rule: index,
                    locus: RuleLocus::HeadArg(j),
                    error: e.into(),
                }),
                Ok(dist) => {
                    if let Some(k) = dist.param_dim() {
                        if d.params.len() != k {
                            issues.push(RuleIssue {
                                rule: index,
                                locus: RuleLocus::HeadArg(j),
                                error: CoreError::Validation(format!(
                                    "Δ-term {d} supplies {} parameter(s) but {} expects {k}",
                                    d.params.len(),
                                    d.distribution
                                )),
                            });
                        }
                    } else if d.params.is_empty() {
                        issues.push(RuleIssue {
                            rule: index,
                            locus: RuleLocus::HeadArg(j),
                            error: CoreError::Validation(format!(
                                "Δ-term {d} must supply at least one parameter"
                            )),
                        });
                    }
                }
            }
        }
    }
    issues
}

/// A weak-acyclicity violation: the special (fresh-value) edge contributed
/// by the Δ-term at head position `head_arg` of rule `rule` lies on a cycle
/// of the position graph.
#[derive(Clone, Debug)]
pub struct WeakCycle {
    /// Index of the rule contributing the special edge.
    pub rule: usize,
    /// Head argument position (0-based) of the Δ-term.
    pub head_arg: usize,
    /// The cycle as a closed position walk `p₀ → p₁ → … → p₀`, starting at
    /// the special edge's target position. Positions are `(predicate,
    /// 0-based argument index)`.
    pub cycle: Vec<(Predicate, usize)>,
}

impl WeakCycle {
    /// Render the cycle as `P[1] -> Q[2] -> P[1]` (1-based positions).
    pub fn cycle_display(&self) -> String {
        self.cycle
            .iter()
            .map(|(p, i)| format!("{}[{}]", p.name(), i + 1))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Weak-acyclicity check over the surface position graph (see the module
/// docs for why the surface graph is equivalent to the translated one).
/// Returns one [`WeakCycle`] per Δ-term whose special edge sits inside a
/// strongly connected component, in (rule, head-argument) order.
pub fn weak_cycles(program: &Program) -> Vec<WeakCycle> {
    // Positions: (predicate, argument index) of every atom of every rule.
    let mut position_set: BTreeSet<(Predicate, usize)> = BTreeSet::new();
    let add_atom = |set: &mut BTreeSet<(Predicate, usize)>, a: &Atom| {
        for i in 0..a.args.len() {
            set.insert((a.predicate, i));
        }
    };
    for rule in program.rules() {
        for a in rule.pos.iter().chain(rule.neg.iter()) {
            add_atom(&mut position_set, a);
        }
        for j in 0..rule.head.args.len() {
            position_set.insert((rule.head.predicate, j));
        }
    }
    let positions: Vec<(Predicate, usize)> = position_set.into_iter().collect();
    let index: BTreeMap<(Predicate, usize), usize> =
        positions.iter().enumerate().map(|(i, p)| (*p, i)).collect();

    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); positions.len()];
    // (source, target, rule, head_arg) per special edge.
    let mut special: Vec<(usize, usize, usize, usize)> = Vec::new();
    for (r, rule) in program.rules().iter().enumerate() {
        // Positions at which each variable occurs in the positive body.
        let mut body_positions: BTreeMap<Var, Vec<usize>> = BTreeMap::new();
        for a in &rule.pos {
            for (i, t) in a.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    body_positions
                        .entry(*v)
                        .or_default()
                        .push(index[&(a.predicate, i)]);
                }
            }
        }
        for (j, arg) in rule.head.args.iter().enumerate() {
            let target = index[&(rule.head.predicate, j)];
            match arg {
                HeadTerm::Term(Term::Var(v)) => {
                    for &src in body_positions.get(v).into_iter().flatten() {
                        succ[src].push(target);
                    }
                }
                HeadTerm::Term(_) => {}
                HeadTerm::Delta(d) => {
                    for v in d.variables() {
                        for &src in body_positions.get(&v).into_iter().flatten() {
                            succ[src].push(target);
                            special.push((src, target, r, j));
                        }
                    }
                }
            }
        }
    }
    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }

    let sccs = sccs_of(positions.len(), &succ);
    let mut component_of = vec![usize::MAX; positions.len()];
    for (c, comp) in sccs.iter().enumerate() {
        for &v in comp {
            component_of[v] = c;
        }
    }

    let mut out: Vec<WeakCycle> = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    special.sort_by_key(|&(_, _, r, j)| (r, j));
    for (src, target, r, j) in special {
        if component_of[src] != component_of[target] || !seen.insert((r, j)) {
            continue;
        }
        // Close the cycle: walk target →* src inside the component, then the
        // special edge src → target closes it.
        let walk = shortest_path_within(&succ, &component_of, target, src);
        let mut cycle: Vec<(Predicate, usize)> = walk.iter().map(|&v| positions[v]).collect();
        cycle.push(positions[target]);
        out.push(WeakCycle {
            rule: r,
            head_arg: j,
            cycle,
        });
    }
    out
}

/// Shortest directed path `from →* to` using only vertices of `from`'s
/// component (both endpoints are in one SCC, so a path always exists; when
/// `from == to` the path is the single vertex).
fn shortest_path_within(
    succ: &[Vec<usize>],
    component_of: &[usize],
    from: usize,
    to: usize,
) -> Vec<usize> {
    if from == to {
        return vec![from];
    }
    let comp = component_of[from];
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for &w in &succ[v] {
            if component_of[w] != comp || w == from || prev.contains_key(&w) {
                continue;
            }
            prev.insert(w, v);
            if w == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
            queue.push_back(w);
        }
    }
    // Unreachable for vertices of one SCC; degrade gracefully.
    vec![from, to]
}

/// The full static lint: validation errors, weak-acyclicity warnings, the
/// non-stratifiability note, hygiene lints, and the static component count
/// (when the program translates).
pub fn lint(program: &Program, facts: &Database) -> LintReport {
    let mut findings: Vec<Finding> = validate_all(program)
        .into_iter()
        .map(|issue| Finding {
            severity: Severity::Error,
            code: "validation",
            message: issue.error.to_string(),
            rule: Some(issue.rule),
            locus: issue.locus,
        })
        .collect();
    let valid = findings.is_empty();

    for cycle in weak_cycles(program) {
        let head = &program.rules()[cycle.rule].head;
        findings.push(Finding::rule_local(
            Severity::Warning,
            "chase-may-not-terminate",
            format!(
                "chase may not terminate: the Δ-term at argument {} of {} feeds a cycle through positions {}",
                cycle.head_arg + 1,
                head.predicate,
                cycle.cycle_display()
            ),
            cycle.rule,
            RuleLocus::HeadArg(cycle.head_arg),
        ));
    }

    if let Err(ns) = stratification(program) {
        let locus = program.rules().iter().enumerate().find_map(|(r, rule)| {
            if rule.head.predicate != ns.to {
                return None;
            }
            rule.neg
                .iter()
                .position(|a| a.predicate == ns.from)
                .map(|i| (r, RuleLocus::Neg(i)))
        });
        let (rule, locus) = locus.unwrap_or((0, RuleLocus::Rule));
        findings.push(Finding::rule_local(
            Severity::Note,
            "non-stratified",
            format!("{ns}; the perfect grounder is unavailable for this program"),
            rule,
            locus,
        ));
    }

    findings.extend(hygiene(program, facts));

    let static_components = if valid {
        SigmaPi::translate(program, facts)
            .ok()
            .map(|sigma| StaticComponents::of_sigma(&sigma).count())
    } else {
        None
    };

    LintReport {
        findings,
        static_components,
    }
}

/// Hygiene lints: unread head predicates, underivable body predicates
/// (unfirable rules and vacuous negations), singleton variables, and
/// statically invalid distribution parameters.
fn hygiene(program: &Program, facts: &Database) -> Vec<Finding> {
    let mut out = Vec::new();
    let idb = program.idb();
    let read: BTreeSet<Predicate> = program
        .rules()
        .iter()
        .flat_map(|r| r.pos.iter().chain(r.neg.iter()).map(|a| a.predicate))
        .collect();
    let reserved = |p: &Predicate| p.name() == FAIL_PREDICATE || p.name() == AUX_PREDICATE;
    let derivable = |p: &Predicate| idb.contains(p) || facts.atoms_of(p).next().is_some();

    // Head predicates no body ever reads.
    for p in &idb {
        if read.contains(p) || reserved(p) {
            continue;
        }
        let rule = program
            .rules()
            .iter()
            .position(|r| r.head.predicate == *p)
            .unwrap_or(0);
        out.push(Finding::rule_local(
            Severity::Note,
            "unused-predicate",
            format!("head predicate {p} is never read by any rule body (query-only output, or dead code)"),
            rule,
            RuleLocus::Head,
        ));
    }

    for (r, rule) in program.rules().iter().enumerate() {
        // Underivable body predicates.
        for (i, atom) in rule.pos.iter().enumerate() {
            if !derivable(&atom.predicate) {
                out.push(Finding::rule_local(
                    Severity::Warning,
                    "unfirable-rule",
                    format!(
                        "rule can never fire: no rule derives {} and the database has no {} facts",
                        atom.predicate,
                        atom.predicate.name()
                    ),
                    r,
                    RuleLocus::Pos(i),
                ));
            }
        }
        for (i, atom) in rule.neg.iter().enumerate() {
            if !derivable(&atom.predicate) {
                out.push(Finding::rule_local(
                    Severity::Note,
                    "vacuous-negation",
                    format!(
                        "negative literal not {atom} is always true: nothing derives {}",
                        atom.predicate
                    ),
                    r,
                    RuleLocus::Neg(i),
                ));
            }
        }

        // Singleton variables (only safe ones: unsafe variables already
        // carry a validation error).
        let positive = rule.positive_variables();
        let mut counts: Vec<(Var, usize)> = Vec::new();
        let bump = |v: Var, counts: &mut Vec<(Var, usize)>| {
            if let Some(entry) = counts.iter_mut().find(|(u, _)| *u == v) {
                entry.1 += 1;
            } else {
                counts.push((v, 1));
            }
        };
        for a in rule.pos.iter().chain(rule.neg.iter()) {
            for t in &a.args {
                if let Term::Var(v) = t {
                    bump(*v, &mut counts);
                }
            }
        }
        for arg in &rule.head.args {
            match arg {
                HeadTerm::Term(Term::Var(v)) => bump(*v, &mut counts),
                HeadTerm::Term(_) => {}
                HeadTerm::Delta(d) => {
                    for t in d.params.iter().chain(d.event.iter()) {
                        if let Term::Var(v) = t {
                            bump(*v, &mut counts);
                        }
                    }
                }
            }
        }
        for (v, n) in counts {
            if n == 1 && positive.contains(&v) {
                out.push(Finding::rule_local(
                    Severity::Note,
                    "singleton-variable",
                    format!("variable {v} occurs only once in rule `{rule}`"),
                    r,
                    RuleLocus::Var(v.to_string()),
                ));
            }
        }

        // Statically invalid distribution parameters (all-constant tuples
        // with the right dimension that the distribution itself rejects).
        for (j, d) in rule.head.delta_terms() {
            let consts: Option<Vec<gdlog_data::Const>> = d
                .params
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Some(*c),
                    _ => None,
                })
                .collect();
            let Some(consts) = consts else { continue };
            let Ok(dist) = program.delta().get(&d.distribution) else {
                continue;
            };
            if dist.param_dim().is_some_and(|k| consts.len() != k) || consts.is_empty() {
                continue; // dimension problems are validation errors
            }
            if let Err(e) = dist.validate_params(&consts) {
                out.push(Finding::rule_local(
                    Severity::Warning,
                    "invalid-distribution-params",
                    format!("Δ-term {d} has statically invalid parameters: {e}"),
                    r,
                    RuleLocus::HeadArg(j),
                ));
            }
        }
    }
    out
}

/// The static independence prediction: connected components of the
/// predicate-level dependency graph of `Σ_Π[D]` (head — body edges per TGD¬
/// rule, `Active — Result` edges per AtR schema).
///
/// Soundness (over-approximation): every edge of the dynamic ground
/// dependency graph (`factor::partition`) connects two ground atoms whose
/// predicates are joined by an edge here — a star edge `head — body atom`
/// instantiates a rule with exactly those predicates, and an AtR pair edge
/// instantiates a schema's `Active — Result` pair. Connectivity is monotone
/// under graph projection, so every dynamic component's predicate set lies
/// inside one static component.
#[derive(Clone, Debug)]
pub struct StaticComponents {
    component_of: BTreeMap<Predicate, usize>,
    count: usize,
}

impl StaticComponents {
    /// Compute the static components of a translated program.
    pub fn of_sigma(sigma: &SigmaPi) -> Self {
        let mut vertex_set: BTreeSet<Predicate> = BTreeSet::new();
        for rule in &sigma.rules {
            vertex_set.insert(rule.head.predicate);
            for a in rule.pos.iter().chain(rule.neg.iter()) {
                vertex_set.insert(a.predicate);
            }
        }
        for schema in sigma.atr_schemas() {
            vertex_set.insert(schema.active);
            vertex_set.insert(schema.result);
        }
        let vertices: Vec<Predicate> = vertex_set.into_iter().collect();
        let index: BTreeMap<Predicate, usize> =
            vertices.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let index = &index;
        let rule_edges = sigma.rules.iter().flat_map(|rule| {
            let hub = index[&rule.head.predicate];
            let body = rule.pos.iter().chain(&rule.neg);
            body.map(move |a| (hub, index[&a.predicate]))
        });
        let atr_edges = sigma
            .atr_schemas()
            .iter()
            .map(|schema| (index[&schema.active], index[&schema.result]));
        let comps = connected_components(vertices.len(), rule_edges.chain(atr_edges));
        let mut component_of = BTreeMap::new();
        for (c, comp) in comps.iter().enumerate() {
            for &v in comp {
                component_of.insert(vertices[v], c);
            }
        }
        StaticComponents {
            component_of,
            count: comps.len(),
        }
    }

    /// Number of static components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The component index of a predicate, if it occurs in `Σ_Π[D]`.
    pub fn component_of(&self, p: &Predicate) -> Option<usize> {
        self.component_of.get(p).copied()
    }
}

/// Static certificate that the program has at most one probabilistic
/// trigger, i.e. the dynamic independence analysis would necessarily fall
/// back to the flat path (fewer than two trigger-bearing components) — so
/// [`crate::Pipeline::solve_factored`] can skip universe saturation
/// entirely.
///
/// The certificate holds when every rule deriving an `Active` atom has a
/// fully ground `Active` head (no variables in the Δ-term's parameters or
/// event signature) and at most one distinct ground `Active` atom exists
/// across all such rules: the chase can then see at most one trigger, and
/// one trigger always lands in one component.
pub fn certainly_single_trigger(sigma: &SigmaPi) -> bool {
    let mut actives: Vec<&Atom> = Vec::new();
    for rule in &sigma.rules {
        if !sigma.is_active_predicate(&rule.head.predicate) {
            continue;
        }
        if rule.head.args.iter().any(|t| matches!(t, Term::Var(_))) {
            return false;
        }
        if !actives.contains(&&rule.head) {
            actives.push(&rule.head);
        }
    }
    actives.len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{coin_program, dime_quarter_program, network_resilience_program};
    use gdlog_data::Const;

    fn parseless_rule(pos: Vec<Atom>, neg: Vec<Atom>, head: crate::rule::Head) -> Rule {
        Rule::new(pos, neg, head)
    }

    #[test]
    fn validate_all_collects_every_issue_with_loci() {
        use crate::rule::{Head, HeadTerm};
        // Two unsafe rules plus an arity conflict: three issues in order.
        let program = Program::new(vec![
            parseless_rule(
                vec![Atom::make("A", vec![Term::var("x")])],
                vec![Atom::make("B", vec![Term::var("w")])],
                Head::make("C", vec![HeadTerm::var("z")]),
            ),
            parseless_rule(
                vec![Atom::make("A", vec![Term::var("x"), Term::var("y")])],
                vec![],
                Head::make("D", vec![HeadTerm::var("x")]),
            ),
        ]);
        let issues = validate_all(&program);
        assert_eq!(issues.len(), 3);
        assert_eq!(issues[0].rule, 0);
        assert_eq!(issues[0].locus, RuleLocus::NegVar(0, "w".into()));
        assert_eq!(issues[1].rule, 0);
        assert_eq!(issues[1].locus, RuleLocus::HeadVar("z".into()));
        assert_eq!(issues[2].rule, 1);
        assert_eq!(issues[2].locus, RuleLocus::Pos(0));
        // validate_rules reports exactly the first issue.
        let (rule, err) = program.validate_rules().unwrap_err();
        assert_eq!(rule, 0);
        assert_eq!(err.to_string(), issues[0].error.to_string());
    }

    #[test]
    fn weak_acyclicity_flags_a_delta_self_feed() {
        use crate::delta::DeltaTerm;
        use crate::rule::{Head, HeadTerm};
        let half = Term::Const(Const::real(0.5).unwrap());
        // Val(v) → Val(Flip⟨0.5⟩[v]): the fresh value at Val[1] feeds itself.
        let program = Program::new(vec![
            parseless_rule(
                vec![Atom::make("Seed", vec![Term::var("x")])],
                vec![],
                Head::make(
                    "Val",
                    vec![HeadTerm::Delta(DeltaTerm::new(
                        "Flip",
                        vec![half],
                        vec![Term::var("x")],
                    ))],
                ),
            ),
            parseless_rule(
                vec![Atom::make("Val", vec![Term::var("v")])],
                vec![],
                Head::make(
                    "Val",
                    vec![HeadTerm::Delta(DeltaTerm::new(
                        "Flip",
                        vec![half],
                        vec![Term::var("v")],
                    ))],
                ),
            ),
        ]);
        let cycles = weak_cycles(&program);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].rule, 1);
        assert_eq!(cycles[0].head_arg, 0);
        assert_eq!(cycles[0].cycle_display(), "Val[1] -> Val[1]");
    }

    #[test]
    fn constant_guarded_recursion_is_weakly_acyclic() {
        // The corpus cascade/epidemic shape: recursion reads the Δ position
        // through a constant (`Reach(x, 1)`), so no position feeds itself.
        let program = network_resilience_program(0.1);
        assert!(weak_cycles(&program).is_empty());
        assert!(weak_cycles(&coin_program()).is_empty());
        assert!(weak_cycles(&dime_quarter_program()).is_empty());
    }

    #[test]
    fn lint_severity_classes_on_the_stock_programs() {
        // Dime/quarter: stratified, safe, but SomeDimeTail's projection
        // leaves x a singleton and nothing reads QuarterTail.
        let report = lint(&dime_quarter_program(), &Database::new());
        assert!(!report.has_errors());
        assert!(report.static_components.is_some());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "singleton-variable"));
        assert!(report.findings.iter().any(|f| f.code == "unused-predicate"));
        // Dime and Quarter have no facts in an empty database.
        assert!(report.findings.iter().any(|f| f.code == "unfirable-rule"));

        // The coin program is intentionally non-stratified.
        let report = lint(&coin_program(), &Database::new());
        assert!(!report.has_errors());
        assert!(report.findings.iter().any(|f| f.code == "non-stratified"));
    }

    #[test]
    fn out_of_range_parameters_are_a_static_warning() {
        use crate::delta::DeltaTerm;
        use crate::rule::{Head, HeadTerm};
        let bad = Term::Const(Const::real(1.5).unwrap());
        let program = Program::new(vec![Rule::fact(Head::make(
            "Coin",
            vec![HeadTerm::Delta(DeltaTerm::simple("Flip", vec![bad]))],
        ))]);
        assert!(
            program.validate().is_ok(),
            "range is not a validation error"
        );
        let report = lint(&program, &Database::new());
        assert!(report.has_warnings());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "invalid-distribution-params"
                && f.severity == Severity::Warning
                && f.locus == RuleLocus::HeadArg(0)));
    }

    #[test]
    fn static_components_and_single_trigger_certificates() {
        // Coin: one ground Δ-fact → certainly a single trigger.
        let sigma = SigmaPi::translate(&coin_program(), &Database::new()).unwrap();
        assert!(certainly_single_trigger(&sigma));

        // Dime/quarter: Δ-terms with event variables → no certificate.
        let mut db = Database::new();
        db.insert_fact("Dime", [Const::Int(1)]);
        let sigma = SigmaPi::translate(&dime_quarter_program(), &db).unwrap();
        assert!(!certainly_single_trigger(&sigma));
        let statics = StaticComponents::of_sigma(&sigma);
        // Everything is welded together through SomeDimeTail.
        assert_eq!(statics.count(), 1);
        assert_eq!(
            statics.component_of(&Predicate::new("DimeTail", 2)),
            statics.component_of(&Predicate::new("QuarterTail", 2))
        );
        assert_eq!(statics.component_of(&Predicate::new("Nope", 3)), None);
    }
}
