//! The naive stable-model enumerator, retained as the equivalence oracle.
//!
//! This is the original back-end of [`crate::stable`]: compute the
//! well-founded model, branch on the full *negative signature* (undecided
//! atoms occurring in negative body literals) and, for every complete
//! assignment, rebuild the Gelfond–Lifschitz reduct and its least model from
//! scratch. The search space is a single `2^k` sweep over all `k` branching
//! atoms of the whole program.
//!
//! The production enumerator ([`crate::stable::stable_models`]) replaces this
//! with a component-split, propagating branch-and-prune search; this module
//! keeps the slow-but-obviously-faithful enumeration around as an oracle —
//! the same pattern as `gdlog-core`'s `naive` grounding module. Property
//! tests and the `bench stable` suite assert that the two agree (model sets
//! and error behaviour) on random and benchmark programs.
//!
//! The only change from the seed implementation is the backtracking
//! representation: the assumption set is a plain push/pop stack instead of a
//! `Database` rebuilt via `from_atoms` + filter on every undo (which made
//! each backtrack O(assumed atoms) in allocations for no semantic gain).

use crate::ground::GroundProgram;
use crate::least_model::least_model;
use crate::reduct::reduct;
use crate::stable::{is_stable_model, StableError, StableModelLimits};
use crate::wellfounded::{well_founded, WellFounded};
use gdlog_data::{Database, GroundAtom};
use std::collections::BTreeSet;

/// Enumerate all stable models of `program` by the naive `2^k` sweep over the
/// negative signature.
///
/// Same contract as [`crate::stable::stable_models`] (canonically sorted
/// result), but [`StableModelLimits::max_branch_atoms`] is applied to the
/// *total* number of branching atoms, since this enumerator cannot split
/// independent components.
pub fn naive_stable_models(
    program: &GroundProgram,
    limits: &StableModelLimits,
) -> Result<Vec<Database>, StableError> {
    let wf = well_founded(program);

    // Fast path: a total well-founded model is the unique stable model
    // (provided it actually is one — odd loops can make it non-stable, but a
    // total WFM is always stable).
    if wf.is_total() {
        return Ok(vec![wf.true_atoms.clone()]);
    }

    let branch_atoms = branching_atoms(program, &wf);
    if branch_atoms.len() > limits.max_branch_atoms {
        return Err(StableError::TooManyBranchAtoms {
            found: branch_atoms.len(),
            limit: limits.max_branch_atoms,
        });
    }

    let mut found: BTreeSet<Vec<GroundAtom>> = BTreeSet::new();
    let mut assumed_true: Vec<GroundAtom> = Vec::new();
    search(
        program,
        &wf,
        &branch_atoms,
        0,
        &mut assumed_true,
        &mut found,
        limits,
    )?;

    Ok(found.into_iter().map(Database::from_atoms).collect())
}

/// The atoms the search must branch on: undecided atoms that occur in a
/// negative body literal of some rule.
fn branching_atoms(program: &GroundProgram, wf: &WellFounded) -> Vec<GroundAtom> {
    let mut set: BTreeSet<GroundAtom> = BTreeSet::new();
    for rule in program.iter() {
        for a in &rule.neg {
            if wf.unknown_atoms.contains(a) {
                set.insert(a.clone());
            }
        }
    }
    set.into_iter().collect()
}

fn search(
    program: &GroundProgram,
    wf: &WellFounded,
    branch: &[GroundAtom],
    idx: usize,
    assumed_true: &mut Vec<GroundAtom>,
    found: &mut BTreeSet<Vec<GroundAtom>>,
    limits: &StableModelLimits,
) -> Result<(), StableError> {
    if idx == branch.len() {
        // The reduct only depends on the truth of negatively-occurring atoms.
        // Atoms decided true by the WFM are in every stable model; assumed
        // atoms complete the negative signature.
        let mut guess = wf
            .true_atoms
            .union(&Database::from_atoms(assumed_true.iter().cloned()));
        // Branch atoms not assumed true are assumed false — they are simply
        // absent from `guess`.
        let candidate = least_model(&reduct(program, &guess));
        // The candidate must agree with the guess on the negative signature,
        // otherwise the reduct we used was not the candidate's own reduct.
        for a in branch {
            let guessed = assumed_true.contains(a);
            if candidate.contains(a) != guessed {
                return Ok(());
            }
        }
        guess = candidate;
        if is_stable_model(program, &guess) {
            if found.len() >= limits.max_models {
                return Err(StableError::TooManyModels {
                    limit: limits.max_models,
                });
            }
            found.insert(guess.canonical_atoms());
        }
        return Ok(());
    }

    // Branch: atom false first (keeps models small/minimal-ish early).
    search(program, wf, branch, idx + 1, assumed_true, found, limits)?;
    assumed_true.push(branch[idx].clone());
    search(program, wf, branch, idx + 1, assumed_true, found, limits)?;
    // Backtrack: pop the assumption (O(1); the stack mirrors the branch
    // prefix exactly).
    assumed_true.pop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundRule;
    use gdlog_data::Const;

    fn atom(name: &str) -> GroundAtom {
        GroundAtom::make(name, vec![])
    }

    fn atom1(name: &str, arg: i64) -> GroundAtom {
        GroundAtom::make(name, vec![Const::Int(arg)])
    }

    fn models(p: &GroundProgram) -> Vec<Database> {
        naive_stable_models(p, &StableModelLimits::default()).unwrap()
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
    }

    #[test]
    fn odd_loop_has_no_stable_model() {
        let p =
            GroundProgram::from_rules(vec![GroundRule::new(atom("a"), vec![], vec![atom("a")])]);
        assert!(models(&p).is_empty());
    }

    #[test]
    fn total_wfm_fast_path() {
        let p = GroundProgram::from_rules(vec![
            GroundRule::fact(atom("A")),
            GroundRule::new(atom("B"), vec![atom("A")], vec![]),
        ]);
        let ms = models(&p);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0], least_model(&p));
    }

    #[test]
    fn naive_limits_apply_to_the_total_branch_count() {
        // Six *independent* even loops: the naive enumerator counts all
        // twelve branching atoms against the limit (the component-split
        // search in `crate::stable` does not — that is its point).
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
        let tight = StableModelLimits {
            max_branch_atoms: 4,
            max_models: 100,
        };
        assert!(matches!(
            naive_stable_models(&p, &tight),
            Err(StableError::TooManyBranchAtoms {
                found: 12,
                limit: 4
            })
        ));
        let tight_models = StableModelLimits {
            max_branch_atoms: 64,
            max_models: 10,
        };
        assert!(matches!(
            naive_stable_models(&p, &tight_models),
            Err(StableError::TooManyModels { limit: 10 })
        ));
    }
}
