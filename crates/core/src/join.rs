//! Join plans: each rule of Σ_Π compiled once, at translation, into the
//! orders its positive body is matched in.
//!
//! Grounding a rule means enumerating the homomorphisms of its positive body
//! into the head set (Definition 3.4). A [`JoinPlan`] fixes everything about
//! that enumeration that does not depend on the data:
//!
//! * the rule's variables are numbered into *slots*, so a match is a plain
//!   array of constants rather than a map from variable names;
//! * the literal order is fixed per round kind — once for the full round and
//!   once per body position the semi-naive loop forces into the delta. The
//!   rule is greedy: the literal with the most determined argument positions
//!   (constants, or variables an earlier literal binds) comes next, ties to
//!   the lower body index. Which positions are determined depends only on
//!   which literals came before, never on the atoms matched, so the order is
//!   decided once, here;
//! * per literal, the determined `(position, slot or constant)` pairs that
//!   [`Database::select`] is asked with, and per argument whether it checks
//!   a constant or binds a slot;
//! * the head, positive and negative atoms as templates over the slots, so a
//!   ground rule is built straight from a match, each atom once.
//!
//! Matching walks a plan's literals depth-first, binding each literal's new
//! slots in place; a literal's slots are always the same ones, so
//! backtracking needs no undo: the next candidate overwrites them.
//! Candidates come out in the order the relations hold them, exactly as the
//! substitution-based matcher that plans replaced produced them.

use crate::translate::TgdRule;
use gdlog_data::{Atom, Const, Database, GroundAtom, Predicate, Term, Var};
use gdlog_engine::GroundRule;

/// Where a constant comes from when a plan runs: the rule itself, or a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arg {
    Const(Const),
    Slot(usize),
}

impl Arg {
    fn value(self, slots: &[Const]) -> Const {
        match self {
            Arg::Const(c) => c,
            Arg::Slot(s) => slots[s],
        }
    }
}

/// An atom of the rule with its variables replaced by slots.
#[derive(Debug)]
struct Template {
    predicate: Predicate,
    args: Vec<Arg>,
}

impl Template {
    fn ground(&self, slots: &[Const]) -> GroundAtom {
        GroundAtom {
            predicate: self.predicate,
            args: self.args.iter().map(|arg| arg.value(slots)).collect(),
        }
    }
}

/// What one argument of a literal does with a candidate's constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unify {
    /// The constant must equal this one.
    Equals(Arg),
    /// The constant binds this slot (the variable's first occurrence).
    Bind(usize),
}

/// One literal of a join order.
#[derive(Debug)]
struct Step {
    predicate: Predicate,
    /// The positions determined before this literal is matched, in position
    /// order: the pairs the relation's index is asked with.
    keys: Vec<(usize, Arg)>,
    /// Per argument position.
    args: Vec<Unify>,
}

impl Step {
    /// Check `atom` against this literal, binding its new slots.
    fn unify(&self, atom: &GroundAtom, slots: &mut [Const]) -> bool {
        for (unify, &c) in self.args.iter().zip(&atom.args) {
            match *unify {
                Unify::Equals(arg) => {
                    if arg.value(slots) != c {
                        return false;
                    }
                }
                Unify::Bind(slot) => slots[slot] = c,
            }
        }
        true
    }
}

/// A rule of Σ_Π compiled for matching and instantiation.
#[derive(Debug)]
pub(crate) struct JoinPlan {
    slots: usize,
    head: Template,
    pos: Vec<Template>,
    neg: Vec<Template>,
    /// The full round's literal order.
    full: Vec<Step>,
    /// `delta[d]`: the order with body atom `d` first, matched in the delta.
    delta: Vec<Vec<Step>>,
    /// Index keys one match holds at once (the most over all orders).
    keys: usize,
}

/// A match's scratch space: one constant per slot and room for every
/// literal's index keys. One is reused across the rules and rounds of a
/// saturation.
#[derive(Default)]
pub(crate) struct Bindings {
    slots: Vec<Const>,
    keys: Vec<(usize, Const)>,
}

impl JoinPlan {
    /// Compile `rule`. Safety (every variable of the head and of a negative
    /// literal occurs in the positive body) is checked by the program's
    /// validation before translation; a rule violating it panics here.
    pub(crate) fn compile(rule: &TgdRule) -> JoinPlan {
        let mut vars: Vec<Var> = Vec::new();
        for atom in &rule.pos {
            for term in &atom.args {
                if let Term::Var(v) = term {
                    if !vars.contains(v) {
                        vars.push(*v);
                    }
                }
            }
        }
        let template = |atom: &Atom| Template {
            predicate: atom.predicate,
            args: atom
                .args
                .iter()
                .map(|term| match term {
                    Term::Const(c) => Arg::Const(*c),
                    Term::Var(v) => Arg::Slot(
                        vars.iter()
                            .position(|u| u == v)
                            .expect("safety binds every variable in the positive body"),
                    ),
                })
                .collect(),
        };
        let pos: Vec<Template> = rule.pos.iter().map(template).collect();
        let full = order(&pos, None, vars.len());
        let delta: Vec<Vec<Step>> = (0..pos.len())
            .map(|d| order(&pos, Some(d), vars.len()))
            .collect();
        let keys = std::iter::once(&full)
            .chain(&delta)
            .map(|steps| steps.iter().map(|step| step.keys.len()).sum())
            .max()
            .unwrap_or(0);
        JoinPlan {
            slots: vars.len(),
            head: template(&rule.head),
            neg: rule.neg.iter().map(template).collect(),
            pos,
            full,
            delta,
            keys,
        }
    }

    /// The predicate of positive body atom `d`.
    pub(crate) fn body_predicate(&self, d: usize) -> Predicate {
        self.pos[d].predicate
    }

    /// The number of positive body atoms.
    pub(crate) fn body_len(&self) -> usize {
        self.pos.len()
    }

    /// Call `emit` with the slots of every homomorphism of the positive body
    /// into `total`. With `delta = Some((d, new))` body atom `d` is matched
    /// first and only against `new`: enumerating this for every `d` yields
    /// exactly the homomorphisms that use at least one atom of `new`.
    pub(crate) fn for_each_match<F: FnMut(&[Const])>(
        &self,
        bindings: &mut Bindings,
        total: &Database,
        delta: Option<(usize, &Database)>,
        mut emit: F,
    ) {
        let (steps, first) = match delta {
            Some((d, new)) => (&self.delta[d], new),
            None => (&self.full, total),
        };
        if bindings.slots.len() < self.slots {
            bindings.slots.resize(self.slots, Const::Int(0));
        }
        if bindings.keys.len() < self.keys {
            bindings.keys.resize(self.keys, (0, Const::Int(0)));
        }
        descend(
            steps,
            first,
            total,
            &mut bindings.slots,
            &mut bindings.keys,
            &mut emit,
        );
    }

    /// The head atom under a match.
    pub(crate) fn head(&self, slots: &[Const]) -> GroundAtom {
        self.head.ground(slots)
    }

    /// The ground rule of a match, or `None` when a negative body atom occurs
    /// in `neg_reference` (the `Perfect` operator; `None` for the reference
    /// ignores negation, the `Simple` operator).
    pub(crate) fn instantiate(
        &self,
        slots: &[Const],
        neg_reference: Option<&Database>,
    ) -> Option<GroundRule> {
        let neg: Vec<GroundAtom> = self.neg.iter().map(|a| a.ground(slots)).collect();
        if neg_reference.is_some_and(|reference| neg.iter().any(|a| reference.contains(a))) {
            return None;
        }
        let pos = self.pos.iter().map(|a| a.ground(slots)).collect();
        Some(GroundRule::new(self.head.ground(slots), pos, neg))
    }
}

/// Match `steps` in order, the first against `first` and the rest against
/// `total`, calling `emit` once per complete match.
fn descend<F: FnMut(&[Const])>(
    steps: &[Step],
    first: &Database,
    total: &Database,
    slots: &mut [Const],
    keys: &mut [(usize, Const)],
    emit: &mut F,
) {
    let Some((step, rest)) = steps.split_first() else {
        emit(slots);
        return;
    };
    let (mine, deeper) = keys.split_at_mut(step.keys.len());
    for (key, &(position, arg)) in mine.iter_mut().zip(&step.keys) {
        *key = (position, arg.value(slots));
    }
    for atom in first.select(&step.predicate, mine) {
        if step.unify(atom, slots) {
            descend(rest, total, total, slots, deeper, emit);
        }
    }
}

/// The greedy literal order over the body templates `pos`, with `first`
/// (if any) forced to the front.
fn order(pos: &[Template], first: Option<usize>, slots: usize) -> Vec<Step> {
    let mut bound = vec![false; slots];
    let mut used = vec![false; pos.len()];
    let determined = |arg: &Arg, bound: &[bool]| match *arg {
        Arg::Const(_) => true,
        Arg::Slot(s) => bound[s],
    };
    let mut steps = Vec::with_capacity(pos.len());
    for depth in 0..pos.len() {
        let body = match (depth, first) {
            (0, Some(d)) => d,
            _ => {
                let mut best: Option<(usize, usize)> = None;
                for (i, atom) in pos.iter().enumerate().filter(|(i, _)| !used[*i]) {
                    let score = atom.args.iter().filter(|a| determined(a, &bound)).count();
                    if best.is_none_or(|(_, best_score)| score > best_score) {
                        best = Some((i, score));
                    }
                }
                best.expect("an unmatched literal is left").0
            }
        };
        used[body] = true;
        let atom = &pos[body];
        let keys = atom
            .args
            .iter()
            .enumerate()
            .filter(|(_, arg)| determined(arg, &bound))
            .map(|(position, arg)| (position, *arg))
            .collect();
        let mut args = Vec::with_capacity(atom.args.len());
        for arg in &atom.args {
            args.push(match *arg {
                Arg::Slot(s) if !bound[s] => {
                    bound[s] = true;
                    Unify::Bind(s)
                }
                arg => Unify::Equals(arg),
            });
        }
        steps.push(Step {
            predicate: atom.predicate,
            keys,
            args,
        });
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdlog_data::{match_atoms, Substitution};

    fn edge(a: Term, b: Term) -> Atom {
        Atom::make("E", vec![a, b])
    }

    fn gedge(a: i64, b: i64) -> GroundAtom {
        GroundAtom::make("E", vec![Const::Int(a), Const::Int(b)])
    }

    fn rule(pos: Vec<Atom>, neg: Vec<Atom>, head: Atom) -> TgdRule {
        TgdRule {
            origin_head: head.predicate,
            pos,
            neg,
            head,
        }
    }

    /// The body's matches as substitutions over its variables, in
    /// enumeration order.
    fn matches(rule: &TgdRule, total: &Database, delta: Option<(usize, &Database)>) -> Vec<String> {
        let plan = JoinPlan::compile(rule);
        let vars: Vec<Var> = rule.pos.iter().flat_map(|a| a.variables()).collect();
        let mut out = Vec::new();
        plan.for_each_match(&mut Bindings::default(), total, delta, |slots| {
            let h: Substitution = rule
                .pos
                .iter()
                .zip(&plan.pos)
                .flat_map(|(atom, template)| atom.args.iter().zip(&template.args))
                .filter_map(|(term, arg)| match term {
                    Term::Var(v) => Some((*v, arg.value(slots))),
                    Term::Const(_) => None,
                })
                .collect();
            assert!(vars.iter().all(|v| h.get(v).is_some()));
            out.push(h.to_string());
        });
        out
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    fn triangle_rule() -> TgdRule {
        rule(
            vec![
                edge(Term::var("x"), Term::var("y")),
                edge(Term::var("y"), Term::var("z")),
                edge(Term::var("z"), Term::var("x")),
            ],
            vec![],
            Atom::make("T", vec![Term::var("x")]),
        )
    }

    #[test]
    fn indexed_matching_agrees_with_scan_matching() {
        let facts = [gedge(1, 2), gedge(2, 3), gedge(3, 1), gedge(2, 1)];
        let db = Database::from_atoms(facts.iter().cloned());
        let rule = triangle_rule();
        let scanned: Vec<String> = match_atoms(&rule.pos, |_| facts.iter())
            .iter()
            .map(Substitution::to_string)
            .collect();
        let planned = matches(&rule, &db, None);
        assert!(!planned.is_empty());
        assert_eq!(sorted(scanned), sorted(planned));
    }

    #[test]
    fn indexed_matching_handles_constants_and_empty_patterns() {
        let db = Database::from_atoms(vec![gedge(1, 2), gedge(1, 3)]);
        let head = Atom::make("H", vec![]);
        let from_one = rule(
            vec![edge(Term::int(1), Term::var("y"))],
            vec![],
            head.clone(),
        );
        assert_eq!(matches(&from_one, &db, None).len(), 2);
        // A bodiless rule matches once, with nothing bound.
        assert_eq!(
            matches(&rule(vec![], vec![], head.clone()), &db, None),
            ["{}"]
        );
        let missing = rule(vec![edge(Term::int(7), Term::var("y"))], vec![], head);
        assert!(matches(&missing, &db, None).is_empty());
    }

    #[test]
    fn delta_matching_only_yields_homomorphisms_through_the_delta() {
        let total = Database::from_atoms(vec![gedge(1, 2), gedge(2, 3)]);
        let delta = Database::from_atoms(vec![gedge(2, 3)]);
        let path = rule(
            vec![
                edge(Term::var("x"), Term::var("y")),
                edge(Term::var("y"), Term::var("z")),
            ],
            vec![],
            Atom::make("P", vec![Term::var("x"), Term::var("z")]),
        );
        // Forcing position 0 into the delta: only E(2,3), E(3,?) — no match.
        assert!(matches(&path, &total, Some((0, &delta))).is_empty());
        // Forcing position 1 into the delta: E(1,2), E(2,3) — one match.
        assert_eq!(
            matches(&path, &total, Some((1, &delta))),
            ["{x -> 1, y -> 2, z -> 3}"]
        );
    }

    #[test]
    fn repeated_variables_and_constants_compile_to_checks() {
        // E(x, x), F(x, 3, y) -> H(y, 5)
        let f = |a: Term, b: Term, c: Term| Atom::make("F", vec![a, b, c]);
        let r = rule(
            vec![
                edge(Term::var("x"), Term::var("x")),
                f(Term::var("x"), Term::int(3), Term::var("y")),
            ],
            vec![],
            Atom::make("H", vec![Term::var("y"), Term::int(5)]),
        );
        let plan = JoinPlan::compile(&r);
        assert_eq!(plan.slots, 2);
        // Forcing E(x, x) first: its second `x` checks the slot its first
        // one binds, and nothing is determined for the index.
        let e = &plan.delta[0][0];
        assert_eq!((e.predicate.name(), e.keys.as_slice()), ("E", &[][..]));
        assert_eq!(e.args, [Unify::Bind(0), Unify::Equals(Arg::Slot(0))]);
        // F then looks up its bound `x` and its constant.
        let f_step = &plan.delta[0][1];
        assert_eq!(f_step.predicate.name(), "F");
        assert_eq!(
            f_step.keys,
            [(0, Arg::Slot(0)), (1, Arg::Const(Const::Int(3)))]
        );
        assert_eq!(
            f_step.args,
            [
                Unify::Equals(Arg::Slot(0)),
                Unify::Equals(Arg::Const(Const::Int(3))),
                Unify::Bind(1)
            ]
        );
        // The full round starts at F: its constant beats E's nothing.
        assert_eq!(plan.full[0].predicate.name(), "F");
        assert_eq!(plan.full[0].keys, [(1, Arg::Const(Const::Int(3)))]);
        assert_eq!(plan.full[1].keys, [(0, Arg::Slot(0)), (1, Arg::Slot(0))]);
        assert_eq!(plan.head.args, [Arg::Slot(1), Arg::Const(Const::Int(5))]);

        let db = Database::from_atoms(vec![
            gedge(1, 1),
            gedge(1, 2),
            gedge(2, 2),
            GroundAtom::make("F", vec![Const::Int(1), Const::Int(3), Const::Int(7)]),
            GroundAtom::make("F", vec![Const::Int(1), Const::Int(4), Const::Int(8)]),
            GroundAtom::make("F", vec![Const::Int(2), Const::Int(3), Const::Int(9)]),
        ]);
        let mut heads = Vec::new();
        plan.for_each_match(&mut Bindings::default(), &db, None, |slots| {
            heads.push(plan.head(slots).to_string())
        });
        assert_eq!(heads, ["H(7, 5)", "H(9, 5)"]);
    }

    #[test]
    fn a_forced_delta_position_goes_first_then_the_greedy_order() {
        // A(x), B(x, y), C(y, z): greedily A(x) goes first in the full round
        // (ties at 0 go to index 0), then B (x determined), then C.
        let r = rule(
            vec![
                Atom::make("A", vec![Term::var("x")]),
                Atom::make("B", vec![Term::var("x"), Term::var("y")]),
                Atom::make("C", vec![Term::var("y"), Term::var("z")]),
            ],
            vec![],
            Atom::make("H", vec![Term::var("z")]),
        );
        let plan = JoinPlan::compile(&r);
        let bodies = |steps: &[Step]| steps.iter().map(|s| s.predicate.name()).collect::<Vec<_>>();
        assert_eq!(bodies(&plan.full), ["A", "B", "C"]);
        // Forcing C (not the greedy first) binds y and z, so B (one
        // determined position) beats A (none).
        assert_eq!(bodies(&plan.delta[2]), ["C", "B", "A"]);
        assert_eq!(plan.delta[2][1].keys, [(1, Arg::Slot(1))]);
        assert_eq!(plan.delta[2][2].keys, [(0, Arg::Slot(0))]);
        assert_eq!(bodies(&plan.delta[1]), ["B", "A", "C"]);

        let total = Database::from_atoms(vec![
            GroundAtom::make("A", vec![Const::Int(1)]),
            GroundAtom::make("B", vec![Const::Int(1), Const::Int(2)]),
            GroundAtom::make("C", vec![Const::Int(2), Const::Int(3)]),
            GroundAtom::make("C", vec![Const::Int(2), Const::Int(4)]),
        ]);
        let delta = Database::from_atoms(vec![GroundAtom::make(
            "C",
            vec![Const::Int(2), Const::Int(4)],
        )]);
        assert_eq!(
            matches(&r, &total, Some((2, &delta))),
            ["{x -> 1, y -> 2, z -> 4}"]
        );
        assert_eq!(matches(&r, &total, None).len(), 2);
    }

    #[test]
    fn bodiless_rules_compile_to_their_ground_head() {
        let fact = rule(
            vec![],
            vec![],
            Atom::make("E", vec![Term::int(1), Term::int(2)]),
        );
        let plan = JoinPlan::compile(&fact);
        assert!(plan.full.is_empty() && plan.delta.is_empty());
        assert_eq!((plan.slots, plan.keys), (0, 0));
        let ground = plan.instantiate(&[], None).unwrap();
        assert_eq!(ground, GroundRule::fact(gedge(1, 2)));
    }

    #[test]
    fn instantiation_drops_rules_whose_negative_atom_is_derived() {
        // E(x, y), not E(y, x) -> H(x)
        let r = rule(
            vec![edge(Term::var("x"), Term::var("y"))],
            vec![edge(Term::var("y"), Term::var("x"))],
            Atom::make("H", vec![Term::var("x")]),
        );
        let plan = JoinPlan::compile(&r);
        let db = Database::from_atoms(vec![gedge(1, 2), gedge(2, 1), gedge(2, 3)]);
        let mut simple = Vec::new();
        let mut perfect = Vec::new();
        plan.for_each_match(&mut Bindings::default(), &db, None, |slots| {
            simple.extend(plan.instantiate(slots, None));
            perfect.extend(plan.instantiate(slots, Some(&db)));
        });
        assert_eq!(simple.len(), 3);
        assert_eq!(perfect.len(), 1);
        assert_eq!(perfect[0].to_string(), "E(2, 3), not E(3, 2) -> H(2).");
    }
}
