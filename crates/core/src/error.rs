//! Error type of the generative layer.

use gdlog_data::DataError;
use gdlog_engine::depgraph::NotStratified;
use gdlog_engine::stable::StableError;
use gdlog_prob::DistError;
use std::fmt;

/// Errors raised by `gdlog-core`.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A rule violates a syntactic restriction (safety, arity, reserved
    /// names).
    Validation(String),
    /// A distribution was used incorrectly.
    Dist(DistError),
    /// A relational-layer error.
    Data(DataError),
    /// The perfect grounder requires stratified negation.
    NotStratified(NotStratified),
    /// The stable-model engine hit a guard rail.
    Stable(StableError),
    /// The chase exceeded its budget in a way that prevents producing a
    /// meaningful result (e.g. zero explored outcomes requested).
    Budget(String),
    /// A [`crate::api::QueryRequest`] is malformed (e.g. Monte-Carlo
    /// estimation without any query atoms).
    Request(String),
    /// A cooperative [`gdlog_engine::CancelToken`] fired mid-solve in a
    /// phase that cannot degrade to an exact partial result (stable-model
    /// search, factor analysis, Monte-Carlo estimation, space
    /// finalization). The payload names the interrupted phase.
    Interrupted(String),
    /// The query asks for an answer the solver cannot produce exactly
    /// within one of its fixed bounds, so it refuses rather than answer
    /// approximately (e.g. a `--top` cut through a tie class of
    /// multi-model events too large to order by key). The payload says
    /// which bound was hit.
    Refused(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Validation(msg) => write!(f, "invalid program: {msg}"),
            CoreError::Dist(e) => write!(f, "distribution error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::NotStratified(e) => write!(f, "{e}"),
            CoreError::Stable(e) => write!(f, "stable model search: {e}"),
            CoreError::Budget(msg) => write!(f, "chase budget: {msg}"),
            CoreError::Request(msg) => write!(f, "invalid request: {msg}"),
            CoreError::Interrupted(phase) => write!(f, "query interrupted during {phase}"),
            CoreError::Refused(msg) => write!(f, "query refused: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DistError> for CoreError {
    fn from(e: DistError) -> Self {
        CoreError::Dist(e)
    }
}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<NotStratified> for CoreError {
    fn from(e: NotStratified) -> Self {
        CoreError::NotStratified(e)
    }
}

impl From<StableError> for CoreError {
    fn from(e: StableError) -> Self {
        match e {
            StableError::Interrupted => CoreError::Interrupted("stable-model search".into()),
            other => CoreError::Stable(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: CoreError = DistError::UnknownDistribution("Gauss".into()).into();
        assert!(e.to_string().contains("Gauss"));
        let e: CoreError = DataError::NonFiniteReal(f64::NAN).into();
        assert!(e.to_string().contains("non-finite"));
        let e = CoreError::Validation("unsafe variable x".into());
        assert!(e.to_string().contains("unsafe variable"));
        let e = CoreError::Budget("no outcomes".into());
        assert!(e.to_string().contains("budget"));
        let e: CoreError = StableError::TooManyModels { limit: 1 }.into();
        assert!(e.to_string().contains("stable"));
        let e = CoreError::Refused("tie class too large".into());
        assert_eq!(e.to_string(), "query refused: tie class too large");
    }
}
