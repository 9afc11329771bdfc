//! # gdlog-data — relational substrate
//!
//! This crate provides the relational machinery required by the rest of the
//! `gdlog` workspace, mirroring Section 2 ("Relational Databases") of
//! *Generative Datalog with Stable Negation*:
//!
//! * [`Symbol`] / [`Interner`] — cheap interned identifiers for predicate and
//!   constant names,
//! * [`Const`] — constants (the paper assumes constants are translatable into
//!   real numbers; we additionally keep integers, booleans and symbols),
//! * [`Term`] — constants or variables,
//! * [`Predicate`] — relation names with an associated arity,
//! * [`Atom`], [`GroundAtom`], [`Literal`] — (possibly negated) relational
//!   atoms,
//! * [`Substitution`] — assignments of constants to variables, including the
//!   homomorphism-style matching used by the grounders of the paper,
//! * [`Database`] / instances — finite and growable sets of ground atoms with
//!   per-predicate indexes,
//! * [`Schema`] — finite sets of predicates,
//! * [`WordMap`] — the `HashMap` of the grounding path, on one seeded
//!   multiply-rotate word hasher.
//!
//! Everything is deliberately engine-agnostic: `gdlog-engine` layers the
//! stable-model machinery on top and `gdlog-core` layers the generative
//! (probabilistic) constructs on top of that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod database;
pub mod error;
pub mod hash;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod substitution;
pub mod symbol;
pub mod term;
pub mod value;

pub use atom::{Atom, GroundAtom, GroundLiteral, Literal, Polarity};
pub use database::{Database, Instance};
pub use error::DataError;
pub use hash::{word_hash, WordMap};
pub use predicate::Predicate;
pub use relation::{Candidates, Relation};
pub use schema::Schema;
pub use substitution::{match_atoms, Substitution};
pub use symbol::{Interner, Symbol};
pub use term::{Term, Var};
pub use value::Const;

#[cfg(test)]
mod send_sync_audit {
    //! The parallel chase shares snapshots of these types across worker
    //! threads; this module is the compile-time audit that they are (and
    //! stay) `Send + Sync`. `Symbol` resolution goes through the global
    //! `RwLock`ed interner; `Database`/`Relation` snapshots share frozen
    //! layers behind `Arc`s and mutate only their owned tails.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn relational_substrate_is_send_and_sync() {
        assert_send_sync::<Symbol>();
        assert_send_sync::<Interner>();
        assert_send_sync::<Predicate>();
        assert_send_sync::<Const>();
        assert_send_sync::<Term>();
        assert_send_sync::<Atom>();
        assert_send_sync::<GroundAtom>();
        assert_send_sync::<Relation>();
        assert_send_sync::<Database>();
        assert_send_sync::<Substitution>();
        assert_send_sync::<Candidates<'static>>();
    }
}
