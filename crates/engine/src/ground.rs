//! Ground rules and ground programs.
//!
//! After translation and grounding, every object the semantics manipulates is
//! a ground, existential-free TGD¬ — i.e. a rule `B⁺, ¬B⁻ → H` where `B⁺`,
//! `B⁻` are sets of ground atoms and `H` is a ground atom. Facts are rules
//! with an empty body (`→ α`, as in the paper's `Σ[D] = {True → α | α ∈ D}`).

use crate::stable::RuleParts;
use gdlog_data::{word_hash, Database, GroundAtom, Predicate, WordMap};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A ground TGD¬ without existential quantification: `pos, ¬neg → head`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GroundRule {
    /// The head atom.
    pub head: GroundAtom,
    /// Positive body atoms `B⁺(σ)`.
    pub pos: Vec<GroundAtom>,
    /// Atoms appearing in negative body literals `B⁻(σ)`.
    pub neg: Vec<GroundAtom>,
}

impl GroundRule {
    /// A rule with positive and negative body atoms.
    pub fn new(head: GroundAtom, pos: Vec<GroundAtom>, neg: Vec<GroundAtom>) -> Self {
        GroundRule { head, pos, neg }
    }

    /// A fact `→ head`.
    pub fn fact(head: GroundAtom) -> Self {
        GroundRule {
            head,
            pos: Vec::new(),
            neg: Vec::new(),
        }
    }

    /// Is this rule a fact (empty body)?
    pub fn is_fact(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// Is the rule positive (no negative body literals)?
    pub fn is_positive(&self) -> bool {
        self.neg.is_empty()
    }

    /// Is the rule's positive body satisfied by `interpretation`?
    pub fn pos_satisfied(&self, interpretation: &Database) -> bool {
        self.pos.iter().all(|a| interpretation.contains(a))
    }

    /// Is the rule's negative body satisfied by `interpretation` (i.e. no
    /// negated atom is present)?
    pub fn neg_satisfied(&self, interpretation: &Database) -> bool {
        self.neg.iter().all(|a| !interpretation.contains(a))
    }

    /// Is the whole rule body satisfied by `interpretation`?
    pub fn body_satisfied(&self, interpretation: &Database) -> bool {
        self.pos_satisfied(interpretation) && self.neg_satisfied(interpretation)
    }

    /// Is the rule (classically) satisfied by `interpretation`?
    pub fn satisfied(&self, interpretation: &Database) -> bool {
        !self.body_satisfied(interpretation) || interpretation.contains(&self.head)
    }

    /// The rule borrowed as `(head, pos, neg)`, the input of
    /// [`crate::AtomTableBuilder`] and [`crate::stable::stable_model_atoms`].
    pub fn parts(&self) -> RuleParts<'_> {
        (&self.head, &self.pos, &self.neg)
    }

    /// All atoms mentioned by the rule (head, positive and negative body).
    pub fn atoms(&self) -> impl Iterator<Item = &GroundAtom> {
        std::iter::once(&self.head)
            .chain(self.pos.iter())
            .chain(self.neg.iter())
    }
}

impl fmt::Display for GroundRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fact() {
            return write!(f, "-> {}.", self.head);
        }
        let mut first = true;
        for a in &self.pos {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        for a in &self.neg {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "not {a}")?;
            first = false;
        }
        write!(f, " -> {}.", self.head)
    }
}

/// A ground program: a (possibly large) set of ground rules.
///
/// The rule list preserves insertion order but equality and the
/// [`GroundProgram::canonical_rules`] listing are order-insensitive, matching
/// the paper's treatment of programs as *sets* of rules.
///
/// The head set `heads(Σ)` is maintained incrementally in an indexed
/// [`Database`] as rules are pushed, so the grounders' inner loops can borrow
/// it instead of rebuilding a fresh set per saturation round. Each rule is
/// stored once: duplicate detection goes through a map from rule hashes to
/// rows of the dense rule table (the same technique as
/// `gdlog_data::Relation`), not a second full copy of every rule.
///
/// # Snapshots
///
/// [`GroundProgram::snapshot`] freezes the rules appended so far into an
/// `Arc`-shared, append-only log of immutable `Frame`s and returns a new
/// program sharing that log; both sides keep growing independently in their
/// own mutable tails. The chase uses this so every sibling of a chase node
/// shares the parent's grounding prefix structurally instead of deep-cloning
/// the rule table, the dedup buckets and the head set (the head set rides
/// along via [`Database::snapshot`]).
#[derive(Clone, Default, Debug)]
pub struct GroundProgram {
    /// Frozen shared prefix of the rule log (newest frame first).
    base: Option<Arc<Frame>>,
    /// Number of rules in the frozen prefix.
    base_len: usize,
    /// Number of frames in the frozen prefix.
    depth: usize,
    /// Rules appended since the last snapshot.
    rules: Vec<GroundRule>,
    /// Rule hash → rows of `rules` with that hash (collision chain; covers
    /// the mutable tail only — frozen frames carry their own buckets).
    buckets: WordMap<u64, Vec<u32>>,
    heads: Database,
}

/// One immutable segment of a [`GroundProgram`]'s shared rule log.
#[derive(Debug)]
struct Frame {
    prev: Option<Arc<Frame>>,
    rules: Vec<GroundRule>,
    buckets: WordMap<u64, Vec<u32>>,
}

impl Frame {
    fn contains(&self, hash: u64, rule: &GroundRule) -> bool {
        self.buckets
            .get(&hash)
            .is_some_and(|rows| rows.iter().any(|&r| &self.rules[r as usize] == rule))
    }
}

/// Snapshot chains longer than this are flattened on the next
/// [`GroundProgram::snapshot`] call, bounding the per-`contains` frame walk
/// while keeping the amortized snapshot cost O(tail).
const MAX_FRAME_DEPTH: usize = 16;

fn hash_rule(rule: &GroundRule) -> u64 {
    word_hash(rule)
}

impl GroundProgram {
    /// The empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze the rules appended so far into the shared, append-only log and
    /// return a new program sharing the frozen prefix (rules, dedup buckets
    /// and head set are shared structurally, not copied). Both `self` and
    /// the returned snapshot keep growing independently.
    pub fn snapshot(&mut self) -> GroundProgram {
        // Flatten *before* freezing: the collapsed frame is then frozen and
        // shared like any other, so the returned snapshot always has the
        // full rule log behind its base pointer.
        if self.depth >= MAX_FRAME_DEPTH {
            self.flatten();
        }
        if !self.rules.is_empty() {
            self.base_len += self.rules.len();
            self.depth += 1;
            self.base = Some(Arc::new(Frame {
                prev: self.base.take(),
                rules: std::mem::take(&mut self.rules),
                buckets: std::mem::take(&mut self.buckets),
            }));
        }
        GroundProgram {
            base: self.base.clone(),
            base_len: self.base_len,
            depth: self.depth,
            rules: Vec::new(),
            buckets: WordMap::default(),
            heads: self.heads.snapshot(),
        }
    }

    /// Collapse the frame chain into a single owned frame (no snapshot is
    /// invalidated: each keeps its own view of the shared log).
    fn flatten(&mut self) {
        let rules: Vec<GroundRule> = self.iter().cloned().collect();
        let heads = std::mem::take(&mut self.heads);
        let mut flat = GroundProgram::new();
        for rule in rules {
            let hash = hash_rule(&rule);
            flat.buckets
                .entry(hash)
                .or_default()
                .push(flat.rules.len() as u32);
            flat.rules.push(rule);
        }
        // The head set is already correct; reattach it instead of re-deriving.
        flat.heads = heads;
        *self = flat;
    }

    /// A snapshot of the head set alone (freezes the head set's tail; the
    /// program itself is left fully usable). Used by grounders that need an
    /// owned, cheap copy of `heads(Σ)` as a fixed reference.
    pub fn heads_snapshot(&mut self) -> Database {
        self.heads.snapshot()
    }

    /// All frozen frames of the rule log, newest first.
    fn frames(&self) -> impl Iterator<Item = &Frame> {
        std::iter::successors(self.base.as_deref(), |frame| frame.prev.as_deref())
    }

    /// The frozen frames, oldest first, each with its identity (its
    /// address, stable while the program is borrowed), and then the mutable
    /// tail: the pieces [`crate::AtomTableBuilder`] encodes, each shared
    /// frame once per solve.
    pub(crate) fn pieces(&self) -> (Vec<(usize, &[GroundRule])>, &[GroundRule]) {
        let mut frames: Vec<(usize, &[GroundRule])> = self
            .frames()
            .map(|frame| (std::ptr::from_ref(frame) as usize, frame.rules.as_slice()))
            .collect();
        frames.reverse();
        (frames, &self.rules)
    }

    /// Build a program from rules.
    pub fn from_rules<I: IntoIterator<Item = GroundRule>>(rules: I) -> Self {
        let mut p = GroundProgram::new();
        for r in rules {
            p.push(r);
        }
        p
    }

    /// Build a program whose only rules are the facts of a database
    /// (`Σ[D]` in the paper, for the database part).
    pub fn from_database(db: &Database) -> Self {
        Self::from_rules(db.iter().cloned().map(GroundRule::fact))
    }

    /// Add a rule (set semantics: duplicates are ignored, across all
    /// snapshot frames). Returns whether the rule was new.
    pub fn push(&mut self, rule: GroundRule) -> bool {
        self.add(rule).is_some()
    }

    /// [`Self::push`], reporting the head instead: the rule's head when the
    /// rule was new and its head was not yet in [`Self::heads`], otherwise
    /// `None`. The grounders' saturation collects its next delta from this,
    /// with no second head-set lookup.
    pub fn push_new_head(&mut self, rule: GroundRule) -> Option<&GroundAtom> {
        match self.add(rule) {
            Some(true) => self.rules.last().map(|rule| &rule.head),
            _ => None,
        }
    }

    /// Append `rule` unless it is a duplicate (`None`); otherwise report
    /// whether its head was new to the head set.
    fn add(&mut self, rule: GroundRule) -> Option<bool> {
        let hash = hash_rule(&rule);
        if self.frames().any(|f| f.contains(hash, &rule)) {
            return None;
        }
        let rows = self.buckets.entry(hash).or_default();
        if rows.iter().any(|&r| self.rules[r as usize] == rule) {
            return None;
        }
        rows.push(self.rules.len() as u32);
        let new_head = self.heads.insert_ref(&rule.head);
        self.rules.push(rule);
        Some(new_head)
    }

    /// Add many rules.
    pub fn extend<I: IntoIterator<Item = GroundRule>>(&mut self, rules: I) {
        for r in rules {
            self.push(r);
        }
    }

    /// Union of two programs.
    pub fn union(&self, other: &GroundProgram) -> GroundProgram {
        let mut out = self.clone();
        out.extend(other.iter().cloned());
        out
    }

    /// Does the program contain this exact rule (in any snapshot frame)?
    pub fn contains(&self, rule: &GroundRule) -> bool {
        let hash = hash_rule(rule);
        self.buckets
            .get(&hash)
            .is_some_and(|rows| rows.iter().any(|&r| &self.rules[r as usize] == rule))
            || self.frames().any(|f| f.contains(hash, rule))
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.base_len + self.rules.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over the rules in insertion order (oldest snapshot frame
    /// first, then the mutable tail).
    pub fn iter(&self) -> impl Iterator<Item = &GroundRule> {
        let frames: Vec<&Frame> = self.frames().collect();
        frames
            .into_iter()
            .rev()
            .flat_map(|f| f.rules.iter())
            .chain(self.rules.iter())
    }

    /// Are all rules positive?
    pub fn is_positive(&self) -> bool {
        self.iter().all(GroundRule::is_positive)
    }

    /// The set of head atoms, `heads(Σ)` in the paper, plus any atom added
    /// with [`GroundProgram::insert_head`] (maintained incrementally; this is
    /// a borrow, not a rebuild).
    pub fn heads(&self) -> &Database {
        &self.heads
    }

    /// Add `atom` to the head set without a rule; returns whether it was new.
    /// The grounders record here the `Result` atoms of the choices their
    /// saturation activated, so a snapshot hands those to the next
    /// saturation along with the rules.
    pub fn insert_head(&mut self, atom: GroundAtom) -> bool {
        self.heads.insert(atom)
    }

    /// All atoms mentioned anywhere in the program (its Herbrand base
    /// restricted to mentioned atoms).
    pub fn atoms(&self) -> Database {
        Database::from_atoms(self.iter().flat_map(|r| r.atoms().cloned()))
    }

    /// The predicates mentioned by the program.
    pub fn predicates(&self) -> BTreeSet<Predicate> {
        self.iter()
            .flat_map(|r| r.atoms().map(|a| a.predicate))
            .collect()
    }

    /// Is `interpretation` a classical model of the program?
    pub fn is_model(&self, interpretation: &Database) -> bool {
        self.iter().all(|r| r.satisfied(interpretation))
    }

    /// A canonical, sorted listing of the rules (deterministic across
    /// insertion orders).
    pub fn canonical_rules(&self) -> Vec<GroundRule> {
        let mut v: Vec<GroundRule> = self.iter().cloned().collect();
        v.sort();
        v
    }
}

impl PartialEq for GroundProgram {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|r| other.contains(r))
    }
}

impl Eq for GroundProgram {}

impl FromIterator<GroundRule> for GroundProgram {
    fn from_iter<I: IntoIterator<Item = GroundRule>>(iter: I) -> Self {
        GroundProgram::from_rules(iter)
    }
}

impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.canonical_rules() {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdlog_data::Const;

    fn atom(name: &str, args: &[i64]) -> GroundAtom {
        GroundAtom::make(name, args.iter().map(|&i| Const::Int(i)).collect())
    }

    #[test]
    fn facts_and_rules() {
        let f = GroundRule::fact(atom("Router", &[1]));
        assert!(f.is_fact());
        assert!(f.is_positive());
        let r = GroundRule::new(
            atom("Uninfected", &[1]),
            vec![atom("Router", &[1])],
            vec![atom("Infected", &[1, 1])],
        );
        assert!(!r.is_fact());
        assert!(!r.is_positive());
        assert_eq!(r.atoms().count(), 3);
    }

    #[test]
    fn satisfaction() {
        let r = GroundRule::new(
            atom("Uninfected", &[1]),
            vec![atom("Router", &[1])],
            vec![atom("Infected", &[1, 1])],
        );
        let mut i = Database::new();
        // Body not satisfied: rule trivially satisfied.
        assert!(r.satisfied(&i));
        i.insert(atom("Router", &[1]));
        // Body satisfied (Router present, Infected absent) but head missing.
        assert!(r.body_satisfied(&i));
        assert!(!r.satisfied(&i));
        i.insert(atom("Infected", &[1, 1]));
        // Negative literal now blocks the body.
        assert!(!r.body_satisfied(&i));
        assert!(r.satisfied(&i));
    }

    #[test]
    fn program_set_semantics() {
        let mut p = GroundProgram::new();
        assert!(p.is_empty());
        let r = GroundRule::fact(atom("A", &[]));
        assert!(p.push(r.clone()));
        assert!(!p.push(r.clone()));
        assert_eq!(p.len(), 1);
        assert!(p.contains(&r));

        let q = GroundProgram::from_rules(vec![r.clone(), r.clone()]);
        assert_eq!(p, q);
    }

    #[test]
    fn heads_atoms_predicates() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A", &[1])),
            GroundRule::new(
                atom("B", &[1]),
                vec![atom("A", &[1])],
                vec![atom("C", &[2])],
            ),
        ]);
        assert_eq!(p.heads().len(), 2);
        // The incremental head set matches a from-scratch rebuild.
        let rebuilt = Database::from_atoms(p.iter().map(|r| r.head.clone()));
        assert_eq!(p.heads(), &rebuilt);
        assert_eq!(p.atoms().len(), 3);
        assert_eq!(p.predicates().len(), 3);
        assert!(!p.is_positive());
    }

    #[test]
    fn from_database_wraps_facts() {
        let mut db = Database::new();
        db.insert(atom("Router", &[1]));
        db.insert(atom("Router", &[2]));
        let p = GroundProgram::from_database(&db);
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(GroundRule::is_fact));
        assert_eq!(p.heads(), &db);
    }

    #[test]
    fn is_model_checks_all_rules() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A", &[])),
            GroundRule::new(atom("B", &[]), vec![atom("A", &[])], vec![]),
        ]);
        let mut m = Database::new();
        assert!(!p.is_model(&m));
        m.insert(atom("A", &[]));
        assert!(!p.is_model(&m));
        m.insert(atom("B", &[]));
        assert!(p.is_model(&m));
    }

    #[test]
    fn union_and_equality_are_order_insensitive() {
        let a = GroundRule::fact(atom("A", &[]));
        let b = GroundRule::fact(atom("B", &[]));
        let p1 = GroundProgram::from_rules(vec![a.clone(), b.clone()]);
        let p2 = GroundProgram::from_rules(vec![b, a]);
        assert_eq!(p1, p2);
        assert_eq!(p1.union(&p2), p1);
        assert_eq!(p1.canonical_rules(), p2.canonical_rules());
    }

    #[test]
    fn display_is_readable() {
        let r = GroundRule::new(
            atom("B", &[1]),
            vec![atom("A", &[1])],
            vec![atom("C", &[1])],
        );
        assert_eq!(r.to_string(), "A(1), not C(1) -> B(1).");
        assert_eq!(GroundRule::fact(atom("A", &[1])).to_string(), "-> A(1).");
        let p = GroundProgram::from_rules(vec![r]);
        assert!(p.to_string().contains("-> B(1)."));
    }

    #[test]
    fn snapshots_share_the_rule_log_and_diverge_independently() {
        let mut p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A", &[1])),
            GroundRule::new(atom("B", &[1]), vec![atom("A", &[1])], vec![]),
        ]);
        let mut snap = p.snapshot();
        assert_eq!(snap, p);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.heads(), p.heads());

        // Divergent growth.
        assert!(p.push(GroundRule::fact(atom("C", &[1]))));
        assert!(snap.push(GroundRule::fact(atom("D", &[1]))));
        assert!(p.contains(&GroundRule::fact(atom("C", &[1]))));
        assert!(!p.contains(&GroundRule::fact(atom("D", &[1]))));
        assert!(snap.contains(&GroundRule::fact(atom("D", &[1]))));
        assert_eq!(p.len(), 3);
        assert_eq!(snap.len(), 3);
        assert_eq!(p.iter().count(), 3);

        // Duplicates across the frame boundary are rejected, and the head
        // sets track each side independently.
        assert!(!snap.push(GroundRule::fact(atom("A", &[1]))));
        assert!(p.heads().contains(&atom("C", &[1])));
        assert!(!p.heads().contains(&atom("D", &[1])));
        assert!(snap.heads().contains(&atom("D", &[1])));

        // Equality and canonical listings behave like flat programs.
        let flat = GroundProgram::from_rules(snap.iter().cloned());
        assert_eq!(snap, flat);
        assert_eq!(snap.canonical_rules(), flat.canonical_rules());
    }

    #[test]
    fn push_new_head_reports_only_new_heads_across_snapshots() {
        let a1 = GroundRule::fact(atom("A", &[1]));
        let b_from_a = GroundRule::new(atom("B", &[1]), vec![atom("A", &[1])], vec![]);
        let b_from_c = GroundRule::new(atom("B", &[1]), vec![atom("C", &[1])], vec![]);
        let mut p = GroundProgram::new();
        assert_eq!(p.push_new_head(a1.clone()), Some(&atom("A", &[1])));
        assert_eq!(p.push_new_head(b_from_a.clone()), Some(&atom("B", &[1])));
        // A duplicate rule, and a new rule with an existing head: no new head.
        assert_eq!(p.push_new_head(a1.clone()), None);
        assert_eq!(p.push_new_head(b_from_c.clone()), None);
        assert_eq!(p.len(), 3);

        // The same across a snapshot: the frozen prefix's rules and heads
        // count as present on both sides.
        let mut snap = p.snapshot();
        for side in [&mut p, &mut snap] {
            assert_eq!(side.push_new_head(a1.clone()), None);
            assert_eq!(side.push_new_head(b_from_c.clone()), None);
            let b_from_d = GroundRule::new(atom("B", &[1]), vec![atom("D", &[1])], vec![]);
            assert_eq!(side.push_new_head(b_from_d), None);
            let c1 = GroundRule::fact(atom("C", &[1]));
            assert_eq!(side.push_new_head(c1.clone()), Some(&atom("C", &[1])));
            assert_eq!(side.push_new_head(c1), None);
            assert_eq!(side.len(), 5);
            assert_eq!(side.heads().len(), 3);
        }
    }

    #[test]
    fn deep_snapshot_chains_are_flattened() {
        let mut p = GroundProgram::new();
        let mut last = GroundProgram::new();
        for i in 0..100 {
            p.push(GroundRule::fact(atom("A", &[i])));
            last = p.snapshot();
        }
        assert_eq!(p.len(), 100);
        assert_eq!(p.iter().count(), 100);
        assert_eq!(p.heads().len(), 100);
        let rebuilt = Database::from_atoms(p.iter().map(|r| r.head.clone()));
        assert_eq!(p.heads(), &rebuilt);
        // The *returned* snapshots survive flattening rounds too: the
        // collapsed frame is frozen and shared, never dropped.
        assert_eq!(last, p);
        assert_eq!(last.iter().count(), 100);
        assert_eq!(last.heads().len(), 100);
        assert!(last.contains(&GroundRule::fact(atom("A", &[0]))));
    }
}
