//! # gdlog-bench — workloads, experiments and benchmarks
//!
//! The paper *Generative Datalog with Stable Negation* is a semantics paper
//! with no experimental section; the workloads here are synthetic
//! equivalents of its worked examples and theorems. The crate provides:
//!
//! * [`workloads`] — generators for the paper's worked examples (network
//!   resilience, the coin program, dimes & quarters) and parameterised
//!   families of them (ring/grid/clique/Erdős–Rényi networks, coin chains,
//!   random stratified programs),
//! * [`experiments`] — the per-claim experiment runners (`e1`–`e10`) that
//!   print a paper-vs-measured report,
//! * the `bench_*` perf trackers under `src/bin/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

pub use experiments::{run_all, run_experiment, ExperimentOutcome};
pub use report::{fnv1a_fingerprint, Report, Row};
