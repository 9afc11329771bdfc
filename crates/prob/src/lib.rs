//! # gdlog-prob — probability substrate
//!
//! Implements Section 2 ("Probability Spaces") and Appendix B of *Generative
//! Datalog with Stable Negation*:
//!
//! * [`Rational`] — exact rational arithmetic over `i128` with checked
//!   operations,
//! * [`Prob`] — probability values that stay exact whenever possible and
//!   degrade explicitly to `f64`,
//! * [`Distribution`] — the parameterized numerical discrete probability
//!   distributions `δ⟨p̄⟩` of the paper (Flip, the biased Die of Appendix B,
//!   Categorical, UniformInt, Geometric),
//! * [`DeltaRegistry`] — the finite set Δ of distributions a program may use,
//! * [`sampler`] — random sampling from parameterized distributions.
//!
//! A program's output probability space (Definition 3.8) and its factored
//! product are built in `gdlog-core` on top of these values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod probability;
pub mod rational;
pub mod registry;
pub mod sampler;

pub use distribution::{DistError, Distribution, Support};
pub use probability::Prob;
pub use rational::Rational;
pub use registry::DeltaRegistry;
pub use sampler::sample_distribution;
