//! Per-predicate indexed atom stores.
//!
//! A [`Relation`] holds the ground atoms of one predicate exactly once, in a
//! dense insertion-ordered table, together with
//!
//! * a duplicate-detection map from the hash of an argument tuple to the rows
//!   carrying that hash (so membership tests never need a second copy of the
//!   atom, unlike the old `HashSet<GroundAtom>` + `Vec<GroundAtom>` layout
//!   which stored every atom twice), and
//! * one hash index per argument position, mapping a constant to the rows
//!   holding it at that position.
//!
//! Both maps are only built once the relation outgrows `SCAN_ROWS` atoms.
//! Below that, membership and lookups scan the table: a chase node's layer
//! of the head set holds a handful of atoms per predicate, and there the
//! maps would cost more memory than the atoms and more time than the scan.
//! Both are [`WordMap`]s, and an argument tuple hashes with [`word_hash`]:
//! a [`crate::Database`] hashes an atom once and probes every snapshot
//! layer's relation with that hash (`contains_hashed`, `insert_hashed`).
//!
//! [`Relation::select`] is the index-aware lookup used by the grounders: it
//! takes the argument positions a join has already determined, each with its
//! constant, and returns the smallest matching posting list — the caller's
//! matcher re-verifies all positions, so `select` only has to be sound, never
//! complete per position.

use crate::atom::GroundAtom;
use crate::hash::{word_hash, WordMap};
use crate::value::Const;

/// Relations with at most this many atoms are scanned, not indexed (at most
/// 64: [`Candidates::Masked`] holds a row set as a `u64`).
pub(crate) const SCAN_ROWS: usize = 8;
const _: () = assert!(SCAN_ROWS < 64);

/// The atoms of a single predicate, stored once and indexed by argument
/// position.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    atoms: Vec<GroundAtom>,
    /// Argument-tuple hash → rows with that hash (collision chain). Empty
    /// while the relation is scanned.
    buckets: WordMap<u64, Vec<u32>>,
    /// `index[i]`: constant at position `i` → rows holding it there. Empty
    /// while the relation is scanned.
    index: Vec<WordMap<Const, Vec<u32>>>,
}

impl Relation {
    /// An empty relation for a predicate of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            ..Relation::default()
        }
    }

    /// Is the relation past `SCAN_ROWS`, with its maps built?
    fn is_indexed(&self) -> bool {
        !self.buckets.is_empty()
    }

    /// Insert an atom; returns `true` if it was not already present.
    pub fn insert(&mut self, atom: GroundAtom) -> bool {
        self.insert_hashed(word_hash(&atom.args), atom)
    }

    /// [`Self::insert`] given `hash`, `word_hash(&atom.args)`.
    pub(crate) fn insert_hashed(&mut self, hash: u64, atom: GroundAtom) -> bool {
        debug_assert_eq!(atom.args.len(), self.arity);
        if !self.is_indexed() {
            if self.atoms.contains(&atom) {
                return false;
            }
            self.atoms.push(atom);
            if self.atoms.len() > SCAN_ROWS {
                self.index = vec![WordMap::default(); self.arity];
                for row in 0..self.atoms.len() {
                    self.index_row(row, word_hash(&self.atoms[row].args));
                }
            }
            return true;
        }
        // Compare whole atoms: a standalone Relation may legitimately be fed
        // several same-arity predicates (the Database wrapper never does).
        if self.bucket_contains(hash, &atom) {
            return false;
        }
        self.atoms.push(atom);
        self.index_row(self.atoms.len() - 1, hash);
        true
    }

    /// Record row `row`, whose arguments hash to `hash`, in both maps.
    fn index_row(&mut self, row: usize, hash: u64) {
        self.buckets.entry(hash).or_default().push(row as u32);
        for (position, constant) in self.atoms[row].args.iter().enumerate() {
            self.index[position]
                .entry(*constant)
                .or_default()
                .push(row as u32);
        }
    }

    fn bucket_contains(&self, hash: u64, atom: &GroundAtom) -> bool {
        self.buckets
            .get(&hash)
            .is_some_and(|rows| rows.iter().any(|&r| &self.atoms[r as usize] == atom))
    }

    /// Membership test (a scan of a small relation, otherwise a hash lookup
    /// plus a collision-chain scan).
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.contains_hashed(word_hash(&atom.args), atom)
    }

    /// [`Self::contains`] given `hash`, `word_hash(&atom.args)` (unread
    /// while the relation is scanned).
    pub(crate) fn contains_hashed(&self, hash: u64, atom: &GroundAtom) -> bool {
        if self.is_indexed() {
            self.bucket_contains(hash, atom)
        } else {
            self.atoms.contains(atom)
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterate over the atoms in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, GroundAtom> {
        self.atoms.iter()
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a GroundAtom;
    type IntoIter = std::slice::Iter<'a, GroundAtom>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Relation {
    /// The candidate atoms that can agree with `determined`, a list of
    /// `(position, constant)` pairs in position order: the shortest posting
    /// list among the determined positions (the first of equally short
    /// ones), or the whole relation when none is determined. Returns an empty
    /// iterator as soon as some determined position has a constant that
    /// occurs nowhere in the relation at that position. A scanned relation
    /// returns exactly its rows that agree on every determined position.
    pub fn select(&self, determined: &[(usize, Const)]) -> Candidates<'_> {
        debug_assert!(determined
            .iter()
            .all(|&(position, _)| position < self.arity));
        if !self.is_indexed() {
            // Scan: keep the rows that agree on every determined position.
            let mut mask = (1u64 << self.atoms.len()) - 1;
            for &(position, c) in determined {
                for (row, atom) in self.atoms.iter().enumerate() {
                    if atom.args[position] != c {
                        mask &= !(1 << row);
                    }
                }
            }
            return match mask {
                0 => Candidates::Empty,
                _ => Candidates::Masked {
                    atoms: &self.atoms,
                    mask,
                },
            };
        }
        let mut best: Option<&[u32]> = None;
        for &(position, c) in determined {
            match self.index[position].get(&c) {
                None => return Candidates::Empty,
                Some(rows) => {
                    if best.is_none_or(|b| rows.len() < b.len()) {
                        best = Some(rows);
                    }
                }
            }
        }
        match best {
            Some(rows) => Candidates::Rows {
                atoms: &self.atoms,
                rows: rows.iter(),
            },
            None => Candidates::All(self.atoms.iter()),
        }
    }
}

/// Iterator returned by [`Relation::select`].
#[derive(Debug)]
pub enum Candidates<'a> {
    /// No atom can match (a determined position is absent from the index).
    Empty,
    /// Every atom of the relation (no position was determined).
    All(std::slice::Iter<'a, GroundAtom>),
    /// The rows of the shortest applicable posting list.
    Rows {
        /// The relation's dense atom table.
        atoms: &'a [GroundAtom],
        /// Row ids to yield.
        rows: std::slice::Iter<'a, u32>,
    },
    /// The rows of a scanned relation that agree on every determined
    /// position, as a bit set over its rows (yielded in row order).
    Masked {
        /// The relation's dense atom table.
        atoms: &'a [GroundAtom],
        /// Bit `r` set: row `r` is yielded.
        mask: u64,
    },
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a GroundAtom;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Candidates::Empty => None,
            Candidates::All(iter) => iter.next(),
            Candidates::Rows { atoms, rows } => rows.next().map(|&r| &atoms[r as usize]),
            Candidates::Masked { atoms, mask } => {
                let row = (*mask != 0).then(|| mask.trailing_zeros() as usize)?;
                *mask &= *mask - 1;
                Some(&atoms[row])
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Candidates::Empty => (0, Some(0)),
            Candidates::All(iter) => iter.size_hint(),
            Candidates::Rows { rows, .. } => (0, Some(rows.len())),
            Candidates::Masked { mask, .. } => {
                let n = mask.count_ones() as usize;
                (n, Some(n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: i64, b: i64) -> GroundAtom {
        GroundAtom::make("E", vec![Const::Int(a), Const::Int(b)])
    }

    fn triangle() -> Relation {
        let mut r = Relation::new(2);
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            assert!(r.insert(edge(a, b)));
        }
        r
    }

    #[test]
    fn insert_deduplicates_without_second_copy() {
        let mut r = triangle();
        assert!(!r.insert(edge(1, 2)));
        assert_eq!(r.len(), 3);
        assert!(r.contains(&edge(2, 3)));
        assert!(!r.contains(&edge(3, 2)));
        assert_eq!(r.iter().count(), r.len());
    }

    #[test]
    fn select_uses_positional_index() {
        let r = triangle();
        let hits: Vec<_> = r.select(&[(0, Const::Int(2))]).collect();
        assert_eq!(hits, vec![&edge(2, 3)]);
        let hits: Vec<_> = r.select(&[(1, Const::Int(1))]).collect();
        assert_eq!(hits, vec![&edge(3, 1)]);

        // Nothing determined: the whole relation.
        assert_eq!(r.select(&[]).count(), 3);

        // A constant outside the index short-circuits to empty.
        assert_eq!(r.select(&[(0, Const::Int(9))]).count(), 0);
    }

    #[test]
    fn select_prefers_the_shortest_posting_list() {
        let mut r = Relation::new(2);
        for b in 1..=10 {
            r.insert(edge(1, b));
        }
        r.insert(edge(2, 1));
        // Position 0 bound to 1 has 10 rows; position 1 bound to 5 has one.
        let candidates = r.select(&[(0, Const::Int(1)), (1, Const::Int(5))]);
        assert!(matches!(&candidates, Candidates::Rows { rows, .. } if rows.len() == 1));
        assert_eq!(candidates.count(), 1);
    }

    #[test]
    fn scanned_and_indexed_relations_answer_alike() {
        // Grow one relation past SCAN_ROWS: at every size, a lookup on one
        // determined position yields exactly the matching rows, in order.
        let mut r = Relation::new(2);
        for i in 0..2 * SCAN_ROWS as i64 {
            assert!(r.insert(edge(i % 3, i)));
            assert!(!r.insert(edge(i % 3, i)));
            assert!(r.contains(&edge(0, 0)) && !r.contains(&edge(1, 0)));
            for a in 0..3 {
                let hits: Vec<_> = r.select(&[(0, Const::Int(a))]).collect();
                let expected: Vec<_> = r.iter().filter(|e| e.args[0] == Const::Int(a)).collect();
                assert_eq!(hits, expected);
            }
        }
    }

    #[test]
    fn same_args_different_predicates_are_distinct() {
        let mut r = Relation::new(2);
        assert!(r.insert(edge(1, 2)));
        let other = GroundAtom::make("F", vec![Const::Int(1), Const::Int(2)]);
        assert!(r.insert(other.clone()));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&other));
    }

    #[test]
    fn zero_arity_relations_work() {
        let mut r = Relation::new(0);
        let fact = GroundAtom::prop("Fail");
        assert!(r.insert(fact.clone()));
        assert!(!r.insert(fact.clone()));
        assert!(r.contains(&fact));
        assert_eq!(r.select(&[]).count(), 1);
    }

    #[test]
    fn size_hints_are_sane() {
        let r = triangle();
        let all = r.select(&[]);
        assert_eq!(all.size_hint(), (3, Some(3)));
        assert_eq!(Candidates::Empty.size_hint(), (0, Some(0)));
    }
}
