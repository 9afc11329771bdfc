//! The five perf-tracker suites of the `bench` driver. Each measures one
//! layer of the pipeline against its baseline, asserts in-process that both
//! agree before timing anything, and returns its JSON summary fields and its
//! acceptance floor (see [`crate::harness`]).

pub mod chase;
pub mod factor;
pub mod grounding;
pub mod serve;
pub mod stable;
