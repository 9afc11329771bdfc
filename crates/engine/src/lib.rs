//! # gdlog-engine — ground Datalog¬ programs and stable models
//!
//! This crate implements the model-theoretic machinery of Section 2 ("TGDs
//! with Stable Negation") of *Generative Datalog with Stable Negation*, for
//! the ground, existential-free programs the generative layer produces:
//!
//! * [`GroundRule`] / [`GroundProgram`] — ground TGD¬ rules
//!   `B⁺, ¬B⁻ → H` and (possibly large) sets thereof,
//! * [`least_model()`](least_model::least_model) — the minimal model of a ground *positive* program
//!   (semi-naive fixpoint),
//! * [`reduct()`](reduct::reduct) — the Gelfond–Lifschitz reduct of a ground program w.r.t. an
//!   interpretation,
//! * [`AtomTable`] — one solve's ground atoms interned once, ranked in
//!   atom order, with every program's rules encoded as id rules and each
//!   shared snapshot frame encoded once,
//! * [`is_stable_model`] / [`stable_model_atoms`] — checking and
//!   enumerating the stable models `sms(Σ)` (the classical models of
//!   `SM[Σ]`) with a component-split, propagating branch-and-prune search
//!   over an atom table's id rules ([`AtomTable::stable_models`]);
//!   [`stable_models`] wraps its models in databases,
//! * [`naive_stable_models`] — the original exhaustive `2^k` enumerator,
//!   retained as the equivalence oracle for the search above,
//! * [`well_founded`] — the well-founded (alternating fixpoint) approximation
//!   used to prune the stable-model search,
//! * [`DependencyGraph`] — predicate-level dependency graphs, strongly
//!   connected components and topological strata (Figure 1 / Section 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atoms;
pub mod cancel;
pub mod depgraph;
pub mod ground;
pub mod least_model;
pub mod naive_stable;
pub mod reduct;
pub mod stable;
pub mod wellfounded;

pub use atoms::{AtomTable, AtomTableBuilder, TableProgram};
pub use cancel::{CancelToken, DeadlineGuard};
pub use depgraph::{connected_components, sccs_of, DependencyGraph, EdgeSign, Stratification};
pub use ground::{GroundProgram, GroundRule};
pub use least_model::least_model;
pub use naive_stable::naive_stable_models;
pub use reduct::reduct;
pub use stable::{
    is_stable_model, stable_model_atoms, stable_models, stable_models_with_cancel, RuleParts,
    StableError, StableModelLimits,
};
pub use wellfounded::{well_founded, WellFounded};

#[cfg(test)]
mod send_sync_audit {
    //! Chase siblings extend `Arc`-shared `GroundProgram` snapshot frames
    //! from different worker threads; this is the compile-time audit that
    //! the engine layer is (and stays) `Send + Sync`.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn ground_programs_and_models_are_send_and_sync() {
        assert_send_sync::<GroundRule>();
        assert_send_sync::<GroundProgram>();
        assert_send_sync::<AtomTable<'static>>();
        assert_send_sync::<TableProgram>();
        assert_send_sync::<StableModelLimits>();
        assert_send_sync::<WellFounded>();
        assert_send_sync::<DependencyGraph>();
        assert_send_sync::<Stratification>();
    }
}
