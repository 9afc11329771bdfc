//! One atom table per solve.
//!
//! The stable layer searches every chase leaf on dense `u32` atom ids. An
//! [`AtomTableBuilder`] interns the atoms of all the programs of one solve
//! into one table: it encodes each program's rules into id rules, and each
//! frozen [`GroundProgram`] snapshot frame only once, however many leaves
//! share it. [`AtomTableBuilder::finish`] then sorts the table by
//! `GroundAtom`'s `Ord` and renumbers every id to its rank, so ascending ids
//! are ascending atoms: models come back as sorted id vectors and compare
//! like the sorted atom lists they stand for.
//!
//! A program whose one stable model its grounder has already decided is
//! encoded by its rule heads alone ([`AtomTableBuilder::heads`]), and its
//! model read off the table with no search ([`AtomTable::heads`]).
//!
//! The finished [`AtomTable`] is immutable, so the per-program searches
//! ([`AtomTable::stable_models`]) read it from any number of threads. Ids
//! and ranks come from one sequential pass in the order the programs were
//! encoded, never from scheduling.

use crate::cancel::CancelToken;
use crate::ground::{GroundProgram, GroundRule};
use crate::stable::{self, RuleParts, StableError, StableModelLimits};
use gdlog_data::{GroundAtom, WordMap};

/// Ground rules over atom ids in flat arrays. Rule `r`'s literals are
/// `lits[start..end]` with its positive ones first, up to `pos_end`, where
/// `(pos_end, end) = ends[r]` and `start` is the previous rule's `end`. A
/// rule's positive ids and its negative ids are each duplicate-free, so
/// per-literal counters over them are exact.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdRules {
    pub(crate) heads: Vec<u32>,
    ends: Vec<(u32, u32)>,
    lits: Vec<u32>,
}

impl IdRules {
    /// Number of rules.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Append `head ← pos, ¬neg`, every id passed through `id`, which must
    /// keep each list duplicate-free.
    pub(crate) fn push_with(
        &mut self,
        (head, pos, neg): (u32, &[u32], &[u32]),
        mut id: impl FnMut(u32) -> u32,
    ) {
        self.heads.push(id(head));
        self.lits.extend(pos.iter().map(|&a| id(a)));
        let pos_end = self.lits.len() as u32;
        self.lits.extend(neg.iter().map(|&a| id(a)));
        self.ends.push((pos_end, self.lits.len() as u32));
    }

    /// The rules as `(head, pos, neg)`, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &[u32], &[u32])> + '_ {
        let mut start = 0;
        self.heads
            .iter()
            .zip(&self.ends)
            .map(move |(&head, &(pos_end, end))| {
                let (pos_end, end) = (pos_end as usize, end as usize);
                let rule = (head, &self.lits[start..pos_end], &self.lits[pos_end..end]);
                start = end;
                rule
            })
    }
}

/// Sort and deduplicate `ids[start..]` in place.
fn dedup_from(ids: &mut Vec<u32>, start: usize) {
    ids[start..].sort_unstable();
    let mut kept = start;
    for i in start..ids.len() {
        if kept == start || ids[i] != ids[kept - 1] {
            ids[kept] = ids[i];
            kept += 1;
        }
    }
    ids.truncate(kept);
}

/// `atom` as a bodiless rule.
fn fact(atom: &GroundAtom) -> RuleParts<'_> {
    (atom, &[], &[])
}

/// One program of an [`AtomTable`]: the table segments holding its rules,
/// in rule order.
#[derive(Clone, Debug)]
pub struct TableProgram {
    segments: Vec<u32>,
}

/// Interns the atoms of one solve's programs and encodes their rules; see
/// the [module documentation](self).
#[derive(Debug, Default)]
pub struct AtomTableBuilder<'a> {
    atoms: Vec<&'a GroundAtom>,
    ids: WordMap<&'a GroundAtom, u32>,
    segments: Vec<IdRules>,
    /// Snapshot frame (by address) and whether only its heads were encoded
    /// → its segment. Every frame outlives the builder's borrow, so no
    /// address is reused while the builder lives.
    frames: WordMap<(usize, bool), u32>,
}

impl<'a> AtomTableBuilder<'a> {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `program` followed by the `extra` rules. Each frozen snapshot
    /// frame of `program` is encoded on its first sight only; the mutable
    /// tail and `extra` form one new segment.
    pub fn program<I>(&mut self, program: &'a GroundProgram, extra: I) -> TableProgram
    where
        I: IntoIterator<Item = RuleParts<'a>>,
    {
        self.pieces(program, false, extra)
    }

    /// Encode the heads of `program` followed by the `extra` atoms, each as
    /// a fact: the positive program `heads(program) ∪ extra`, whose one
    /// model [`AtomTable::heads`] reads off. No body atom is interned. Each
    /// frozen snapshot frame is encoded on its first sight only, apart from
    /// the frame's encoding by [`Self::program`].
    pub fn heads<I>(&mut self, program: &'a GroundProgram, extra: I) -> TableProgram
    where
        I: IntoIterator<Item = &'a GroundAtom>,
    {
        self.pieces(program, true, extra.into_iter().map(fact))
    }

    /// [`Self::program`], or with `heads_only` [`Self::heads`].
    fn pieces<I>(&mut self, program: &'a GroundProgram, heads_only: bool, extra: I) -> TableProgram
    where
        I: IntoIterator<Item = RuleParts<'a>>,
    {
        let parts = move |rule: &'a GroundRule| {
            if heads_only {
                fact(&rule.head)
            } else {
                rule.parts()
            }
        };
        let (frames, tail) = program.pieces();
        let mut segments = Vec::with_capacity(frames.len() + 1);
        for (frame, rules) in frames {
            let segment = match self.frames.get(&(frame, heads_only)) {
                Some(&segment) => segment,
                None => {
                    let segment = self.encode(rules.iter().map(parts));
                    self.frames.insert((frame, heads_only), segment);
                    segment
                }
            };
            segments.push(segment);
        }
        segments.push(self.encode(tail.iter().map(parts).chain(extra)));
        TableProgram { segments }
    }

    /// Encode the program whose rules `rules` yields.
    pub fn rules<I>(&mut self, rules: I) -> TableProgram
    where
        I: IntoIterator<Item = RuleParts<'a>>,
    {
        TableProgram {
            segments: vec![self.encode(rules)],
        }
    }

    fn encode<I>(&mut self, rules: I) -> u32
    where
        I: IntoIterator<Item = RuleParts<'a>>,
    {
        let mut segment = IdRules::default();
        for (head, pos, neg) in rules {
            segment.heads.push(self.intern(head));
            let start = segment.lits.len();
            segment.lits.extend(pos.iter().map(|a| self.intern(a)));
            dedup_from(&mut segment.lits, start);
            let pos_end = segment.lits.len();
            segment.lits.extend(neg.iter().map(|a| self.intern(a)));
            dedup_from(&mut segment.lits, pos_end);
            segment
                .ends
                .push((pos_end as u32, segment.lits.len() as u32));
        }
        self.segments.push(segment);
        self.segments.len() as u32 - 1
    }

    fn intern(&mut self, atom: &'a GroundAtom) -> u32 {
        *self.ids.entry(atom).or_insert_with(|| {
            self.atoms.push(atom);
            self.atoms.len() as u32 - 1
        })
    }

    /// Rank the atoms by `GroundAtom`'s `Ord` and renumber every encoded id
    /// to its rank.
    pub fn finish(self) -> AtomTable<'a> {
        let AtomTableBuilder {
            atoms,
            mut segments,
            ..
        } = self;
        let mut order: Vec<u32> = (0..atoms.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| atoms[a as usize].cmp(atoms[b as usize]));
        let mut rank = vec![0u32; atoms.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        for segment in &mut segments {
            for id in segment.heads.iter_mut().chain(&mut segment.lits) {
                *id = rank[*id as usize];
            }
        }
        AtomTable {
            atoms: order.iter().map(|&id| atoms[id as usize]).collect(),
            segments,
        }
    }
}

/// The ranked, immutable atom table of one solve: atom ids are ranks in
/// `GroundAtom` order. See the [module documentation](self).
#[derive(Debug)]
pub struct AtomTable<'a> {
    atoms: Vec<&'a GroundAtom>,
    segments: Vec<IdRules>,
}

impl<'a> AtomTable<'a> {
    /// Number of distinct atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The atom with id `id`.
    pub fn atom(&self, id: u32) -> &'a GroundAtom {
        self.atoms[id as usize]
    }

    /// Every atom, in id order: strictly ascending.
    pub fn atoms(&self) -> &[&'a GroundAtom] {
        &self.atoms
    }

    /// The id rules of `program`, segment by segment in rule order.
    pub(crate) fn rules<'s>(
        &'s self,
        program: &'s TableProgram,
    ) -> impl Iterator<Item = &'s IdRules> + 's {
        program
            .segments
            .iter()
            .map(|&segment| &self.segments[segment as usize])
    }

    /// The heads of `program`'s rules as one sorted, deduplicated id vector:
    /// the one model of a program [`AtomTableBuilder::heads`] encoded.
    pub fn heads(&self, program: &TableProgram) -> Vec<u32> {
        let len = self.rules(program).map(IdRules::len).sum();
        let mut heads = Vec::with_capacity(len);
        for rules in self.rules(program) {
            heads.extend_from_slice(&rules.heads);
        }
        dedup_from(&mut heads, 0);
        heads
    }

    /// The stable models of `program`, each a sorted vector of atom ids, in
    /// ascending order, by the search of [`crate::stable`]. Ids ascend with
    /// the atoms, so [`Self::atom`] maps each model to a sorted atom list
    /// and the model list stays sorted.
    pub fn stable_models(
        &self,
        program: &TableProgram,
        limits: &StableModelLimits,
        cancel: &CancelToken,
    ) -> Result<Vec<Vec<u32>>, StableError> {
        stable::stable_model_ids(self, program, limits, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdlog_data::Const;

    fn atom(name: &str, arg: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(arg)])
    }

    #[test]
    fn ids_are_ranks_and_rules_are_deduplicated() {
        let (b, a, c) = (atom("B", 1), atom("A", 2), atom("A", 1));
        let rules = [GroundRule::new(
            b.clone(),
            vec![a.clone(), a.clone()],
            vec![c.clone(), b.clone(), c.clone()],
        )];
        let mut builder = AtomTableBuilder::new();
        let program = builder.rules(rules.iter().map(GroundRule::parts));
        let table = builder.finish();
        assert_eq!(table.len(), 3);
        let sorted: Vec<&GroundAtom> = (0..3).map(|id| table.atom(id)).collect();
        assert_eq!(sorted, vec![&c, &a, &b]);
        let encoded: Vec<(u32, Vec<u32>, Vec<u32>)> = table
            .rules(&program)
            .flat_map(IdRules::iter)
            .map(|(head, pos, neg)| {
                let mut neg = neg.to_vec();
                neg.sort_unstable();
                (head, pos.to_vec(), neg)
            })
            .collect();
        assert_eq!(encoded, vec![(2, vec![1], vec![0, 2])]);
    }

    #[test]
    fn shared_snapshot_frames_are_encoded_once() {
        let mut root = GroundProgram::from_rules([GroundRule::fact(atom("A", 1))]);
        let mut left = root.snapshot();
        let mut right = root.snapshot();
        left.push(GroundRule::fact(atom("L", 1)));
        right.push(GroundRule::fact(atom("R", 1)));
        let mut builder = AtomTableBuilder::new();
        let choice = atom("C", 1);
        let l = builder.program(&left, []);
        let r = builder.program(&right, [(&choice, &[][..], &[][..])]);
        assert_eq!(l.segments.len(), 2);
        assert_eq!(l.segments[0], r.segments[0], "the root frame is shared");
        assert_eq!(builder.segments.len(), 3);
        let table = builder.finish();
        let heads = |p: &TableProgram| -> Vec<&GroundAtom> {
            table
                .rules(p)
                .flat_map(|rules| rules.heads.iter().map(|&id| table.atom(id)))
                .collect()
        };
        assert_eq!(heads(&l), vec![&atom("A", 1), &atom("L", 1)]);
        assert_eq!(heads(&r), vec![&atom("A", 1), &atom("R", 1), &choice]);
    }

    #[test]
    fn frame_encodings_survive_the_snapshot_flatten() {
        // A chain of 40 snapshots, one rule per level: past 16 frames the
        // chain collapses into one new frame, which the builder must encode
        // as a frame of its own while the programs above it still share
        // their older frames.
        let mut chain = GroundProgram::new();
        let mut programs = Vec::new();
        for i in 0..40 {
            chain.push(GroundRule::new(
                atom("A", i),
                vec![atom("A", i - 1)],
                vec![],
            ));
            let mut leaf = chain.snapshot();
            leaf.push(GroundRule::fact(atom("Leaf", i)));
            programs.push(leaf);
        }
        let mut builder = AtomTableBuilder::new();
        let encoded: Vec<TableProgram> = programs.iter().map(|p| builder.program(p, [])).collect();
        let listed: usize = encoded.iter().map(|p| p.segments.len()).sum();
        assert!(
            2 * builder.segments.len() < listed,
            "{} segments encoded for {listed} listed",
            builder.segments.len()
        );
        let table = builder.finish();
        for (program, encoded) in programs.iter().zip(&encoded) {
            let rules: Vec<GroundRule> = table
                .rules(encoded)
                .flat_map(IdRules::iter)
                .map(|(head, pos, neg)| {
                    let atoms =
                        |ids: &[u32]| ids.iter().map(|&id| table.atom(id).clone()).collect();
                    GroundRule::new(table.atom(head).clone(), atoms(pos), atoms(neg))
                })
                .collect();
            assert_eq!(rules, program.iter().cloned().collect::<Vec<_>>());
        }
    }
}
