//! Substitutions and homomorphism-style matching.
//!
//! The grounders of the paper (`Simple_Σ`, `Perfect_Σ`) extend ground
//! programs by matching the positive body literals of a rule against the set
//! of head atoms derived so far; formally this is a homomorphism from a set
//! of atoms to a set of ground atoms. [`Substitution`] implements the
//! variable assignment and [`match_atoms`] enumerates all homomorphisms by
//! scanning, left to right: the reference the naive oracle grounds with. The
//! grounders themselves join through plans compiled once per rule, which ask
//! [`crate::Database::select`] for candidates.

use crate::atom::{Atom, GroundAtom};
use crate::term::{Term, Var};
use crate::value::Const;
use std::collections::BTreeMap;
use std::fmt;

/// A (partial) assignment of constants to variables.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Substitution {
    map: BTreeMap<Var, Const>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `var` to `value`, overwriting any previous binding.
    pub fn bind(&mut self, var: Var, value: Const) {
        self.map.insert(var, value);
    }

    /// Look up the binding of `var`.
    pub fn get(&self, var: &Var) -> Option<&Const> {
        self.map.get(var)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the substitution empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Apply to a term: bound variables are replaced by their constants,
    /// unbound variables and constants are left untouched.
    pub fn apply_term(&self, term: &Term) -> Term {
        match term {
            Term::Const(c) => Term::Const(*c),
            Term::Var(v) => match self.map.get(v) {
                Some(c) => Term::Const(*c),
                None => Term::Var(*v),
            },
        }
    }

    /// Try to extend the substitution so that `pattern` maps to `target`.
    ///
    /// Returns `false` (leaving bindings possibly partially extended in a
    /// scratch copy discarded by the caller) if the match is impossible. Use
    /// [`Substitution::matched`] for a non-destructive variant.
    pub fn match_atom(&mut self, pattern: &Atom, target: &GroundAtom) -> bool {
        if pattern.predicate != target.predicate {
            return false;
        }
        for (t, c) in pattern.args.iter().zip(target.args.iter()) {
            match t {
                Term::Const(pc) => {
                    if pc != c {
                        return false;
                    }
                }
                Term::Var(v) => match self.map.get(v) {
                    Some(bound) => {
                        if bound != c {
                            return false;
                        }
                    }
                    None => {
                        self.map.insert(*v, *c);
                    }
                },
            }
        }
        true
    }

    /// Non-destructive matching: returns the extended substitution if
    /// `pattern` can be mapped onto `target` consistently with `self`.
    pub fn matched(&self, pattern: &Atom, target: &GroundAtom) -> Option<Substitution> {
        let mut next = self.clone();
        if next.match_atom(pattern, target) {
            Some(next)
        } else {
            None
        }
    }

    /// Iterate over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Const)> {
        self.map.iter()
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, c)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} -> {c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Var, Const)> for Substitution {
    fn from_iter<I: IntoIterator<Item = (Var, Const)>>(iter: I) -> Self {
        Substitution {
            map: iter.into_iter().collect(),
        }
    }
}

/// Enumerate all homomorphisms `h` with `h(patterns) ⊆ targets`, i.e. every
/// substitution that maps each pattern atom onto *some* atom of `targets`.
///
/// `targets` is accessed through the `candidates` closure so callers can use
/// an index (for example a per-predicate index of a [`crate::Database`]); the
/// closure receives a pattern atom and must return the ground atoms of the
/// target set with the same predicate.
pub fn match_atoms<'a, F, I>(patterns: &[Atom], candidates: F) -> Vec<Substitution>
where
    F: Fn(&Atom) -> I,
    I: IntoIterator<Item = &'a GroundAtom>,
{
    let mut results = Vec::new();
    let mut current = Substitution::new();
    match_rec(patterns, 0, &candidates, &mut current, &mut results);
    results
}

fn match_rec<'a, F, I>(
    patterns: &[Atom],
    idx: usize,
    candidates: &F,
    current: &mut Substitution,
    out: &mut Vec<Substitution>,
) where
    F: Fn(&Atom) -> I,
    I: IntoIterator<Item = &'a GroundAtom>,
{
    if idx == patterns.len() {
        out.push(current.clone());
        return;
    }
    let pattern = &patterns[idx];
    for target in candidates(pattern) {
        if let Some(mut extended) = current.matched(pattern, target) {
            std::mem::swap(current, &mut extended);
            match_rec(patterns, idx + 1, candidates, current, out);
            std::mem::swap(current, &mut extended);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: Term, b: Term) -> Atom {
        Atom::make("E", vec![a, b])
    }

    fn gedge(a: i64, b: i64) -> GroundAtom {
        GroundAtom::make("E", vec![Const::Int(a), Const::Int(b)])
    }

    #[test]
    fn binding_and_lookup() {
        let mut s = Substitution::new();
        assert!(s.is_empty());
        s.bind(Var::new("x"), Const::Int(1));
        assert_eq!(s.get(&Var::new("x")), Some(&Const::Int(1)));
        assert_eq!(s.get(&Var::new("y")), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn match_atom_consistency() {
        let mut s = Substitution::new();
        assert!(s.match_atom(&edge(Term::var("x"), Term::var("y")), &gedge(1, 2)));
        assert_eq!(s.get(&Var::new("x")), Some(&Const::Int(1)));
        // y already bound to 2; matching E(y, y) against E(2, 3) must fail.
        assert!(!s
            .clone()
            .match_atom(&edge(Term::var("y"), Term::var("y")), &gedge(2, 3)));
        // ... but E(y, y) against E(2, 2) succeeds.
        assert!(s
            .clone()
            .match_atom(&edge(Term::var("y"), Term::var("y")), &gedge(2, 2)));
    }

    #[test]
    fn match_atom_respects_constants_and_predicates() {
        let mut s = Substitution::new();
        assert!(!s.match_atom(&edge(Term::int(5), Term::var("y")), &gedge(1, 2)));
        let other = GroundAtom::make("F", vec![Const::Int(1), Const::Int(2)]);
        assert!(!s.match_atom(&edge(Term::var("x"), Term::var("y")), &other));
    }

    #[test]
    fn matched_is_non_destructive() {
        let s = Substitution::new();
        let extended = s.matched(&edge(Term::var("x"), Term::var("y")), &gedge(4, 5));
        assert!(extended.is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn enumerate_homomorphisms_path_of_length_two() {
        // Patterns: E(x, y), E(y, z) over the triangle {E(1,2), E(2,3), E(3,1)}.
        let facts = [gedge(1, 2), gedge(2, 3), gedge(3, 1)];
        let patterns = vec![
            edge(Term::var("x"), Term::var("y")),
            edge(Term::var("y"), Term::var("z")),
        ];
        let homs = match_atoms(&patterns, |_| facts.iter());
        // Every edge has exactly one successor edge in the triangle.
        assert_eq!(homs.len(), 3);
        for h in &homs {
            let x = h.get(&Var::new("x")).unwrap().as_int().unwrap();
            let y = h.get(&Var::new("y")).unwrap().as_int().unwrap();
            let z = h.get(&Var::new("z")).unwrap().as_int().unwrap();
            assert!(facts.contains(&gedge(x, y)));
            assert!(facts.contains(&gedge(y, z)));
        }
    }

    #[test]
    fn empty_pattern_list_yields_the_empty_substitution() {
        let facts: Vec<GroundAtom> = vec![];
        let homs = match_atoms(&[], |_| facts.iter());
        assert_eq!(homs.len(), 1);
        assert!(homs[0].is_empty());
    }

    #[test]
    fn display_and_from_iterator() {
        let s: Substitution = vec![
            (Var::new("a"), Const::Int(1)),
            (Var::new("b"), Const::Int(2)),
        ]
        .into_iter()
        .collect();
        let shown = s.to_string();
        assert!(shown.contains("a -> 1"));
        assert!(shown.contains("b -> 2"));
        assert_eq!(s.iter().count(), 2);
    }
}
