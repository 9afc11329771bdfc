//! Databases and instances.
//!
//! A *database* of a schema **S** is a finite set of ground atoms over **S**
//! (§2 of the paper); an *instance* may be infinite in the paper but is, of
//! course, always finite in memory — [`Instance`] is simply a growable
//! database used for fixpoint computations.
//!
//! Storage is one [`Relation`] per predicate: each atom is kept exactly once
//! (the old layout cloned every atom into both a `HashSet` and a
//! per-predicate `Vec`, doubling resident memory), and every argument
//! position of a relation past a handful of atoms carries a hash index from
//! constants to rows. The index powers [`Database::select`], the lookup the
//! grounders use to join rule bodies without scanning whole relations.
//!
//! # Snapshots
//!
//! [`Database::snapshot`] freezes the current contents into an `Arc`-shared
//! immutable *base layer* and returns a new database that shares it; both the
//! original and the snapshot can keep growing independently, each in its own
//! mutable tail layer. This is what lets chase siblings share their parent's
//! head set structurally instead of deep-cloning it (see `ARCHITECTURE.md`).
//! All lookups (`contains`, `select`, iteration) see the union of every
//! layer; an atom is stored in exactly one layer. Long chains are flattened
//! transparently so lookup cost stays bounded.
//!
//! # Hashing
//!
//! Every map here is a [`WordMap`] (see [`crate::hash`]). [`Database::contains`]
//! and [`Database::insert`] hash an atom's arguments once and probe each
//! layer's relation with that one hash; only the predicate lookup is
//! repeated per layer.

use crate::atom::{Atom, GroundAtom};
use crate::hash::{word_hash, WordMap};
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Const;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Snapshot chains longer than this are flattened into a single layer on the
/// next [`Database::snapshot`] call, bounding per-lookup layer walks while
/// keeping the amortized snapshot cost O(tail). A database therefore has at
/// most `MAX_SNAPSHOT_DEPTH + 1` layers.
const MAX_SNAPSHOT_DEPTH: usize = 16;

/// A finite set of ground atoms stored as per-predicate indexed relations,
/// with O(1) structural-sharing snapshots.
#[derive(Clone, Default, Debug)]
pub struct Database {
    /// Frozen shared prefix (itself possibly layered), never mutated again.
    base: Option<Arc<Database>>,
    /// Number of frozen layers below this one.
    depth: usize,
    /// The mutable tail layer: atoms inserted since the last snapshot.
    relations: WordMap<Predicate, Relation>,
    /// Total number of atoms across all layers.
    len: usize,
}

/// An instance is a database that is conventionally used as the *output* of a
/// fixpoint computation; structurally the two are identical.
pub type Instance = Database;

impl Database {
    /// The empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a database from an iterator of ground atoms.
    pub fn from_atoms<I: IntoIterator<Item = GroundAtom>>(atoms: I) -> Self {
        let mut db = Database::new();
        for a in atoms {
            db.insert(a);
        }
        db
    }

    /// Insert a ground atom. Returns `true` if the atom was not already
    /// present (in any snapshot layer).
    pub fn insert(&mut self, atom: GroundAtom) -> bool {
        self.insert_cow(Cow::Owned(atom))
    }

    /// [`Self::insert`] of a borrowed atom, cloned only when it is new.
    pub fn insert_ref(&mut self, atom: &GroundAtom) -> bool {
        self.insert_cow(Cow::Borrowed(atom))
    }

    fn insert_cow(&mut self, atom: Cow<'_, GroundAtom>) -> bool {
        let hash = word_hash(&atom.args);
        if let Some(base) = &self.base {
            if base.contains_hashed(hash, &atom) {
                return false;
            }
        }
        let relation = self
            .relations
            .entry(atom.predicate)
            .or_insert_with(|| Relation::new(atom.predicate.arity()));
        if relation.insert_hashed(hash, atom) {
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Freeze the current contents into an immutable shared base layer and
    /// return a new database sharing it. O(1) apart from amortized
    /// flattening: no atom is copied; both `self` and the returned snapshot
    /// keep growing independently in fresh tail layers.
    pub fn snapshot(&mut self) -> Database {
        // Flatten *before* freezing: the collapsed layer is then frozen and
        // shared like any other, so the returned snapshot always has the
        // full contents behind its base pointer.
        if self.depth >= MAX_SNAPSHOT_DEPTH {
            self.flatten();
        }
        if !self.relations.is_empty() {
            let frozen = Database {
                base: self.base.take(),
                depth: self.depth,
                relations: std::mem::take(&mut self.relations),
                len: self.len,
            };
            self.depth += 1;
            self.base = Some(Arc::new(frozen));
        }
        Database {
            base: self.base.clone(),
            depth: self.depth,
            relations: WordMap::default(),
            len: self.len,
        }
    }

    /// Collapse all snapshot layers into a single owned layer (invalidates no
    /// snapshot: they keep their own view of the shared prefix).
    fn flatten(&mut self) {
        let atoms: Vec<GroundAtom> = self.iter().cloned().collect();
        *self = Database::from_atoms(atoms);
    }

    /// Number of snapshot layers below the mutable tail (0 for a database
    /// that was never snapshot).
    pub fn snapshot_depth(&self) -> usize {
        self.depth
    }

    /// Insert the fact `name(args...)`.
    pub fn insert_fact<I, C>(&mut self, name: &str, args: I) -> bool
    where
        I: IntoIterator<Item = C>,
        C: Into<Const>,
    {
        let atom = GroundAtom::make(name, args.into_iter().map(Into::into).collect());
        self.insert(atom)
    }

    /// All snapshot layers, newest first (the mutable tail layer included).
    fn layers(&self) -> impl Iterator<Item = &Database> {
        std::iter::successors(Some(self), |layer| layer.base.as_deref())
    }

    /// All snapshot layers, oldest first, without allocating: a layer's
    /// `depth` counts the layers below it, so it is the layer's place in
    /// the chain.
    fn layers_oldest_first(&self) -> impl Iterator<Item = &Database> {
        let mut chain = [None; MAX_SNAPSHOT_DEPTH + 1];
        for layer in self.layers() {
            chain[layer.depth] = Some(layer);
        }
        chain.into_iter().take(self.depth + 1).flatten()
    }

    /// Does the database contain `atom` (in any snapshot layer)?
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.contains_hashed(word_hash(&atom.args), atom)
    }

    /// [`Self::contains`] given `hash`, `word_hash(&atom.args)`.
    fn contains_hashed(&self, hash: u64, atom: &GroundAtom) -> bool {
        self.layers().any(|layer| {
            layer
                .relations
                .get(&atom.predicate)
                .is_some_and(|r| r.contains_hashed(hash, atom))
        })
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over all atoms (in unspecified order), across all snapshot
    /// layers.
    pub fn iter(&self) -> Iter<'_> {
        // Newest base layer first in the vec; `Iter` pops from the back, so
        // older layers drain before newer ones (after the mutable tail).
        Iter {
            layers: self.layers().skip(1).collect(),
            relations: self.relations.values(),
            current: [].iter(),
        }
    }

    /// Iterate over the atoms of a given predicate, across all snapshot
    /// layers (oldest layer first, each in insertion order).
    pub fn atoms_of(&self, predicate: &Predicate) -> impl Iterator<Item = &GroundAtom> {
        let predicate = *predicate;
        self.layers_oldest_first()
            .flat_map(move |l| l.relations.get(&predicate).into_iter().flatten())
    }

    /// The candidate atoms an [`Atom`] pattern can match: the atoms of the
    /// pattern's predicate. Designed to plug into
    /// [`crate::substitution::match_atoms`]. Prefer [`Database::select`]
    /// when some argument positions are already determined.
    pub fn candidates(&self, pattern: &Atom) -> impl Iterator<Item = &GroundAtom> {
        self.atoms_of(&pattern.predicate)
    }

    /// The candidate atoms of `predicate` that can agree with `determined`,
    /// a list of `(position, constant)` pairs in position order: in every
    /// snapshot layer, oldest first, the per-position hash index is consulted
    /// and the smallest applicable posting list of that layer is yielded (see
    /// [`Relation::select`]; the layer's whole relation when nothing is
    /// determined). Callers re-verify every position of a candidate.
    pub fn select<'a>(
        &'a self,
        predicate: &Predicate,
        determined: &'a [(usize, Const)],
    ) -> impl Iterator<Item = &'a GroundAtom> {
        let predicate = *predicate;
        self.layers_oldest_first().flat_map(move |layer| {
            layer
                .relations
                .get(&predicate)
                .into_iter()
                .flat_map(|relation| relation.select(determined))
        })
    }

    /// The predicates occurring in the database (across all snapshot layers,
    /// in sorted order).
    pub fn predicates(&self) -> impl Iterator<Item = &Predicate> {
        let mut seen: BTreeSet<&Predicate> = BTreeSet::new();
        for layer in self.layers() {
            seen.extend(layer.relations.keys());
        }
        seen.into_iter()
    }

    /// The schema induced by the database (all predicates occurring in it).
    pub fn schema(&self) -> Schema {
        Schema::from_predicates(self.predicates().copied())
    }

    /// The active domain: all constants occurring in the database
    /// (`dom(I)` in the paper).
    pub fn domain(&self) -> BTreeSet<Const> {
        self.iter().flat_map(|a| a.args.iter().copied()).collect()
    }

    /// Union with another database (set union of atoms).
    pub fn union(&self, other: &Database) -> Database {
        let mut out = self.clone();
        for a in other.iter() {
            out.insert(a.clone());
        }
        out
    }

    /// Set-difference: the atoms of `self` that are not in `other`.
    pub fn difference(&self, other: &Database) -> Database {
        Database::from_atoms(self.iter().filter(|a| !other.contains(a)).cloned())
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset_of(&self, other: &Database) -> bool {
        self.iter().all(|a| other.contains(a))
    }

    /// A canonical, deterministic listing of the atoms (sorted), useful for
    /// hashing/keying sets of stable models.
    pub fn canonical_atoms(&self) -> Vec<GroundAtom> {
        let mut v: Vec<GroundAtom> = self.iter().cloned().collect();
        v.sort();
        v
    }
}

/// Iterator over all atoms of a [`Database`], across all snapshot layers.
pub struct Iter<'a> {
    /// Base layers still to visit, newest first (popped from the back, so
    /// older layers drain before newer ones).
    layers: Vec<&'a Database>,
    relations: std::collections::hash_map::Values<'a, Predicate, Relation>,
    current: std::slice::Iter<'a, GroundAtom>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a GroundAtom;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(atom) = self.current.next() {
                return Some(atom);
            }
            match self.relations.next() {
                Some(relation) => self.current = relation.iter(),
                None => {
                    let layer = self.layers.pop()?;
                    self.relations = layer.relations.values();
                }
            }
        }
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|a| other.contains(a))
    }
}

impl Eq for Database {}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.canonical_atoms().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<GroundAtom> for Database {
    fn from_iter<I: IntoIterator<Item = GroundAtom>>(iter: I) -> Self {
        Database::from_atoms(iter)
    }
}

impl<'a> IntoIterator for &'a Database {
    type Item = &'a GroundAtom;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn router(i: i64) -> GroundAtom {
        GroundAtom::make("Router", vec![Const::Int(i)])
    }

    fn connected(i: i64, j: i64) -> GroundAtom {
        GroundAtom::make("Connected", vec![Const::Int(i), Const::Int(j)])
    }

    fn example_db() -> Database {
        // The database of Example 3.6: three routers, fully connected, the
        // first initially infected.
        let mut db = Database::new();
        for i in 1..=3i64 {
            db.insert(router(i));
        }
        for i in 1..=3i64 {
            for j in 1..=3i64 {
                if i != j {
                    db.insert(connected(i, j));
                }
            }
        }
        db.insert_fact("Infected", [Const::Int(1), Const::Int(1)]);
        db
    }

    #[test]
    fn insertion_and_membership() {
        let mut db = Database::new();
        assert!(db.is_empty());
        assert!(db.insert(router(1)));
        assert!(!db.insert(router(1)));
        assert!(db.contains(&router(1)));
        assert!(!db.contains(&router(2)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn len_and_iteration_agree_with_duplicates_dropped() {
        // Regression for the old double-storage layout: each atom is stored
        // once, so `len()`, full iteration and the per-predicate sums must
        // all agree — also after duplicate insertions.
        let mut db = example_db();
        for a in example_db().canonical_atoms() {
            assert!(!db.insert(a), "re-inserting must report a duplicate");
        }
        assert_eq!(db.len(), 10);
        assert_eq!(db.iter().count(), db.len());
        let per_predicate: usize = db
            .predicates()
            .copied()
            .collect::<Vec<_>>()
            .iter()
            .map(|p| db.atoms_of(p).count())
            .sum();
        assert_eq!(per_predicate, db.len());
        assert_eq!(db.canonical_atoms().len(), db.len());
    }

    #[test]
    fn example_3_6_database_has_expected_size() {
        let db = example_db();
        // 3 routers + 6 connections + 1 infected fact.
        assert_eq!(db.len(), 10);
        assert_eq!(db.atoms_of(&Predicate::new("Connected", 2)).count(), 6);
        assert_eq!(db.atoms_of(&Predicate::new("Router", 1)).count(), 3);
    }

    #[test]
    fn domain_collects_all_constants() {
        let db = example_db();
        let dom = db.domain();
        assert!(dom.contains(&Const::Int(1)));
        assert!(dom.contains(&Const::Int(2)));
        assert!(dom.contains(&Const::Int(3)));
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn union_difference_subset() {
        let db = example_db();
        let small = Database::from_atoms(vec![router(1), router(2)]);
        assert!(small.is_subset_of(&db));
        assert!(!db.is_subset_of(&small));
        let u = small.union(&db);
        assert_eq!(u, db);
        let d = db.difference(&small);
        assert_eq!(d.len(), db.len() - 2);
        assert!(!d.contains(&router(1)));
    }

    #[test]
    fn candidates_are_indexed_by_predicate() {
        let db = example_db();
        let pattern = Atom::make("Connected", vec![Term::var("x"), Term::var("y")]);
        assert_eq!(db.candidates(&pattern).count(), 6);
        let pattern = Atom::make("Missing", vec![Term::var("x")]);
        assert_eq!(db.candidates(&pattern).count(), 0);
    }

    #[test]
    fn candidates_bound_consults_the_positional_index() {
        let db = example_db();
        let connected_pred = Predicate::new("Connected", 2);
        let hits: Vec<_> = db.select(&connected_pred, &[(0, Const::Int(1))]).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|a| a.args[0] == Const::Int(1)));

        // Any determined position narrows the same way.
        assert_eq!(db.select(&connected_pred, &[(1, Const::Int(3))]).count(), 2);

        // Unknown predicate or absent constant: empty without scanning.
        let missing = Predicate::new("Missing", 1);
        assert_eq!(db.select(&missing, &[]).count(), 0);
        assert_eq!(
            db.select(&connected_pred, &[(0, Const::Int(99))]).count(),
            0
        );
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = Database::from_atoms(vec![router(1), router(2)]);
        let b = Database::from_atoms(vec![router(2), router(1)]);
        assert_eq!(a, b);
        // Differing contents with equal sizes are unequal.
        let c = Database::from_atoms(vec![router(1), router(3)]);
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_atoms_are_sorted_and_stable() {
        let db = example_db();
        let c1 = db.canonical_atoms();
        let c2 = db.canonical_atoms();
        assert_eq!(c1, c2);
        assert_eq!(c1.len(), db.len());
        let mut sorted = c1.clone();
        sorted.sort();
        assert_eq!(c1, sorted);
    }

    #[test]
    fn schema_and_predicates() {
        let db = example_db();
        let schema = db.schema();
        assert!(schema.contains(&Predicate::new("Router", 1)));
        assert!(schema.contains(&Predicate::new("Connected", 2)));
        assert!(schema.contains(&Predicate::new("Infected", 2)));
        assert_eq!(db.predicates().count(), 3);
    }

    #[test]
    fn display_lists_atoms() {
        let db = Database::from_atoms(vec![router(1)]);
        assert_eq!(db.to_string(), "{Router(1)}");
    }

    #[test]
    fn from_iterator_collects() {
        let db: Database = vec![router(1), router(2)].into_iter().collect();
        assert_eq!(db.len(), 2);
        assert_eq!((&db).into_iter().count(), 2);
    }

    #[test]
    fn snapshots_share_the_prefix_and_diverge_independently() {
        let mut db = example_db();
        let before = db.canonical_atoms();
        let mut snap = db.snapshot();
        assert_eq!(snap, db);
        assert_eq!(snap.canonical_atoms(), before);

        // Divergent growth: neither side sees the other's insertions.
        assert!(db.insert(router(10)));
        assert!(snap.insert(router(20)));
        assert!(db.contains(&router(10)) && !db.contains(&router(20)));
        assert!(snap.contains(&router(20)) && !snap.contains(&router(10)));
        assert_eq!(db.len(), before.len() + 1);
        assert_eq!(snap.len(), before.len() + 1);
        assert_eq!(db.iter().count(), db.len());

        // Duplicate insertion across the layer boundary is detected.
        assert!(!db.insert(router(1)));
        assert!(!snap.insert(router(1)));
    }

    #[test]
    fn layered_lookups_agree_with_a_flat_database() {
        let mut db = example_db();
        let mut snap = db.snapshot();
        snap.insert(connected(1, 1));
        snap.insert(router(4));
        let mut deeper = snap.snapshot();
        deeper.insert(connected(4, 1));
        let flat = Database::from_atoms(deeper.iter().cloned());
        assert_eq!(deeper, flat);
        assert_eq!(deeper.snapshot_depth(), 2);

        // select chains posting lists across layers, oldest layer first.
        let connected_pred = Predicate::new("Connected", 2);
        let layered: Vec<_> = deeper
            .select(&connected_pred, &[(0, Const::Int(1))])
            .cloned()
            .collect();
        let mut flat_hits: Vec<_> = flat
            .select(&connected_pred, &[(0, Const::Int(1))])
            .cloned()
            .collect();
        assert_eq!(
            layered,
            vec![connected(1, 2), connected(1, 3), connected(1, 1)]
        );
        let mut sorted = layered.clone();
        sorted.sort();
        flat_hits.sort();
        assert_eq!(sorted, flat_hits);

        // atoms_of / predicates / schema see every layer; atoms_of yields
        // the oldest layer first.
        let layered: Vec<_> = deeper.atoms_of(&connected_pred).cloned().collect();
        assert_eq!(layered.len(), flat.atoms_of(&connected_pred).count());
        assert_eq!(
            layered[layered.len() - 2..],
            [connected(1, 1), connected(4, 1)]
        );
        assert_eq!(deeper.predicates().count(), flat.predicates().count());
        assert_eq!(deeper.schema(), flat.schema());
    }

    #[test]
    fn indexed_layers_agree_with_a_flat_database() {
        // Three frozen layers and a tail, each holding more than SCAN_ROWS
        // `Connected` atoms, so every layer answers through its hash maps
        // with the one hash `Database` computes per lookup.
        let rows = crate::relation::SCAN_ROWS as i64 + 4;
        let connected_pred = Predicate::new("Connected", 2);
        let mut db = Database::new();
        for layer in 0..4i64 {
            for j in 0..rows {
                assert!(db.insert(connected(layer, j)));
                // Duplicates across every layer boundary below are refused.
                for older in 0..layer {
                    assert!(!db.insert(connected(older, j)));
                }
            }
            let tail = &db.relations[&connected_pred];
            assert!(tail.len() > crate::relation::SCAN_ROWS);
            if layer < 3 {
                db.snapshot();
            }
        }
        assert_eq!(db.snapshot_depth(), 3);
        let flat = Database::from_atoms(db.iter().cloned());
        assert_eq!(db.len(), flat.len());
        assert_eq!(db.len(), 4 * rows as usize);

        for i in -1..=4i64 {
            for j in -1..=rows {
                let atom = connected(i, j);
                assert_eq!(db.contains(&atom), flat.contains(&atom), "{atom}");
            }
            let determined = [(0, Const::Int(i))];
            let mut layered: Vec<_> = db.select(&connected_pred, &determined).collect();
            let mut flat_hits: Vec<_> = flat.select(&connected_pred, &determined).collect();
            layered.sort();
            flat_hits.sort();
            assert_eq!(layered, flat_hits);
            let determined = [(1, Const::Int(i))];
            assert_eq!(
                db.select(&connected_pred, &determined).count(),
                flat.select(&connected_pred, &determined).count()
            );
        }

        // Re-inserting every atom, owned or by reference, is refused on both
        // sides; a new one is taken by both (by reference on the layered
        // side).
        let mut flat = flat;
        for atom in flat.canonical_atoms() {
            assert!(!db.insert_ref(&atom) && !db.insert(atom.clone()) && !flat.insert(atom));
        }
        assert!(db.insert_ref(&connected(9, 9)) && flat.insert(connected(9, 9)));
        assert_eq!(db.len(), flat.len());
        assert_eq!(db, flat);
    }

    #[test]
    fn deep_snapshot_chains_are_flattened() {
        let mut db = Database::new();
        let mut last = Database::new();
        for i in 0..100i64 {
            db.insert(router(i));
            last = db.snapshot();
        }
        assert!(db.snapshot_depth() <= super::MAX_SNAPSHOT_DEPTH + 1);
        assert_eq!(db.len(), 100);
        assert_eq!(db.iter().count(), 100);
        // The *returned* snapshots survive flattening rounds too: the
        // collapsed layer is frozen and shared, never dropped.
        assert_eq!(last, db);
        assert_eq!(last.iter().count(), 100);
        assert!(last.contains(&router(0)));
    }
}
