//! # gdlog-core — Generative Datalog with Stable Negation
//!
//! The paper's primary contribution: GDatalog¬\[Δ\] programs — Datalog rules
//! with stable negation whose heads may *sample* from parameterized discrete
//! probability distributions — and their probabilistic semantics.
//!
//! The pipeline mirrors the paper:
//!
//! 1. **Syntax** ([`rule`], [`program`], [`delta`]): rules
//!    `R₁(ū₁), …, ¬P₁(v̄₁), … → R₀(w̄)` whose head tuples may contain Δ-terms
//!    `δ⟨p̄⟩[q̄]` (Section 3, "Syntax").
//! 2. **Translation** ([`translate`]): each rule becomes existential-free
//!    TGD¬ rules plus *active-to-result* (AtR) rules
//!    `Activeᵟ(p̄,q̄) → ∃y Resultᵟ(p̄,q̄,y)` that encode the probabilistic
//!    choices (Section 3, "From GDatalog¬\[Δ\] to TGD¬").
//! 3. **Grounding** ([`grounding`], [`simple_grounder`], [`perfect_grounder`]):
//!    a [`Grounder`] maps every functionally consistent set of ground AtR
//!    rules to the ground rules consistent with those choices
//!    (Definition 3.3); the simple grounder (Definition 3.4) and, for
//!    stratified programs, the perfect grounder (Definition 5.1) are provided.
//! 4. **Chase** ([`chase`]): the fixpoint procedure of Section 4 — triggers,
//!    trigger applications and chase trees — which enumerates the possible
//!    outcomes together with their probabilities, or samples a single
//!    outcome ([`mc`]).
//! 5. **Semantics** ([`outcome`], [`semantics`]): possible outcomes, the
//!    error event, the event partition by induced sets of stable models, and
//!    the output probability space `Π_G(D)` (Definitions 3.7–3.8,
//!    Theorem 3.9).
//! 6. **Comparison** ([`compare`], [`bckov`]): the "as good as" relation of
//!    Definition 3.11, and the BCKOV semantics of positive generative Datalog
//!    from Appendix C used as the baseline (Theorem C.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod api;
pub mod bckov;
pub mod builder;
pub mod chase;
pub mod compare;
pub mod delta;
pub mod depgraph;
pub mod error;
pub mod exec;
pub mod factor;
pub mod fingerprint;
pub mod grounding;
mod join;
pub mod mc;
pub mod model_cache;
pub mod naive;
pub mod outcome;
pub mod perfect_grounder;
pub mod pipeline;
pub mod program;
pub mod rule;
pub mod semantics;
pub mod simple_grounder;
pub mod translate;

pub use analyze::{
    certainly_single_trigger, lint, validate_all, weak_cycles, Finding, LintReport, RuleIssue,
    RuleLocus, Severity, StaticComponents, WeakCycle,
};
pub use api::{
    EventReport, Json, McReport, McRequest, QueryReport, QueryRequest, QueryResponse, SolveKey,
    SolveStrategy, Solver,
};
pub use bckov::{bckov_output, isomorphic_to_bckov, BckovOutcome, BckovOutput};
pub use builder::{ProgramBuilder, RuleBuilder};
pub use chase::{
    enumerate_outcomes, enumerate_outcomes_cancellable, enumerate_outcomes_with, ChaseBudget,
    ChaseResult, TriggerOrder,
};
pub use compare::{as_good_as, compare_outputs, SemanticsComparison};
pub use delta::DeltaTerm;
pub use depgraph::{dependency_graph, stratification, DependencyGraph, Stratification};
pub use error::CoreError;
pub use exec::{Executor, MAX_THREADS, THREADS_ENV};
pub use factor::{ChaseComponent, ComponentGrounder, Factor, FactorAnalysis, FactoredOutputSpace};
pub use fingerprint::fnv1a_fingerprint;
pub use gdlog_engine::{CancelToken, DeadlineGuard};
pub use grounding::{AtrRule, AtrSet, GroundRuleSet, Grounder, Grounding};
pub use mc::{sample_outcome, walk_rng, MonteCarlo, SampleStats, SampledPath};
pub use model_cache::{ModelCacheStats, ModelSetCache, ProgramFingerprint};
pub use naive::{NaivePerfectGrounder, NaiveSimpleGrounder};
pub use outcome::{ModelSetKey, PossibleOutcome};
pub use perfect_grounder::PerfectGrounder;
pub use pipeline::{GrounderChoice, McParams, Pipeline};
pub use program::{
    coin_program, dime_quarter_program, network_resilience_program, Program, AUX_PREDICATE,
    FAIL_PREDICATE,
};
pub use rule::{Head, HeadTerm, Rule};
pub use semantics::OutputSpace;
pub use simple_grounder::SimpleGrounder;
pub use translate::{AtrSchema, SigmaPi, TgdRule};

#[cfg(test)]
mod send_sync_audit {
    //! Monte-Carlo hands a shared `&dyn Grounder` to the pool tasks of
    //! `Executor::map`, each of which walks its own `AtrSet`s and
    //! `Grounding` snapshots into `PossibleOutcome`s, and the resident
    //! server moves chase results, errors and pipelines between session
    //! threads; this is the compile-time audit that the whole surface is
    //! (and stays) `Send + Sync`. `Grounder` itself has `Send + Sync` as a
    //! supertrait, so every implementor is covered by construction.
    use super::*;

    fn assert_send_sync<T: Send + Sync + ?Sized>() {}

    #[test]
    fn chase_surface_is_send_and_sync() {
        assert_send_sync::<SigmaPi>();
        assert_send_sync::<SimpleGrounder>();
        assert_send_sync::<PerfectGrounder>();
        assert_send_sync::<NaiveSimpleGrounder>();
        assert_send_sync::<NaivePerfectGrounder>();
        assert_send_sync::<dyn Grounder>();
        assert_send_sync::<Grounding>();
        assert_send_sync::<AtrRule>();
        assert_send_sync::<AtrSet>();
        assert_send_sync::<PossibleOutcome>();
        assert_send_sync::<ChaseResult>();
        assert_send_sync::<CoreError>();
        assert_send_sync::<Executor>();
        assert_send_sync::<Pipeline>();
        // The resident server shares one `Solver` across session threads.
        assert_send_sync::<Solver>();
        assert_send_sync::<QueryRequest>();
        assert_send_sync::<QueryResponse>();
    }
}
