//! Typed engine errors.
//!
//! Planning and execution failures used to surface as panics
//! (`expect("group relation must exist")`) or as silently-empty results (the
//! old `IncomingData::Missing` path that treated an uncomputed dependency
//! view as empty). Both are now typed [`EngineError`]s surfaced through
//! [`crate::engine::Engine::prepare`] / [`crate::prepared::PreparedBatch::execute`]
//! and through the maintenance API ([`crate::snapshot::Maintainer::commit`]).

use crate::view::ViewId;
use lmfao_data::DataError;
use std::fmt;

/// Errors raised by the planning, execution and maintenance layers.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A join-tree node references a relation the database does not have.
    UnknownRelation(String),
    /// A plan could not be lowered against the database schema.
    InvalidPlan(String),
    /// Execution needed a view that has not been computed — a dependency
    /// scheduling bug, no longer masked as an empty view.
    ViewNotComputed(ViewId),
    /// A delta could not be applied (unknown target, unmatched delete, …).
    Data(DataError),
    /// A result lookup named a query the batch does not contain. Callers that
    /// serve user-supplied query names (the serving loop) get a typed error
    /// instead of a panic or a silent `None`.
    UnknownQuery(String),
    /// `commit` was handed a transaction recording no change at all. A commit
    /// always publishes a generation; an empty one would publish a phantom.
    /// Coalesce buffered streams first (a fully cancelling stream flushes to
    /// `None`, not to an empty transaction).
    EmptyTransaction,
    /// One transaction records both an insert and a delete of the same row.
    /// A transaction is an unordered changeset, so the pair is ambiguous —
    /// resolve it by stream order (`Transaction::coalesce`) before committing.
    ConflictingDelta {
        /// Relation whose delta contains the conflicting pair.
        relation: String,
        /// The conflicting row, debug-printed.
        row: String,
    },
    /// A group scan panicked — one of an execution, on any worker of the DAG
    /// scheduler, or one of a commit's refresh, on the writer's thread — at
    /// any thread count. The panic payload (when it was a string) is carried
    /// here instead of aborting the whole process out of `join().unwrap()`.
    WorkerPanicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownRelation(name) => {
                write!(f, "unknown relation `{name}` referenced by the plan")
            }
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::ViewNotComputed(id) => {
                write!(f, "view {} required before it was computed", id.0)
            }
            EngineError::Data(e) => write!(f, "data error: {e}"),
            EngineError::UnknownQuery(name) => {
                write!(f, "no query named `{name}` in the batch")
            }
            EngineError::EmptyTransaction => {
                write!(f, "cannot commit an empty transaction")
            }
            EngineError::ConflictingDelta { relation, row } => {
                write!(
                    f,
                    "transaction both inserts and deletes row {row} of `{relation}`; \
                     coalesce the stream before committing"
                )
            }
            EngineError::WorkerPanicked(payload) => {
                write!(f, "executor worker thread panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for EngineError {
    fn from(e: DataError) -> Self {
        EngineError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(EngineError::UnknownRelation("Sales".into())
            .to_string()
            .contains("Sales"));
        assert!(EngineError::ViewNotComputed(ViewId(7))
            .to_string()
            .contains('7'));
        assert!(EngineError::UnknownQuery("rev".into())
            .to_string()
            .contains("rev"));
        assert!(EngineError::EmptyTransaction.to_string().contains("empty"));
        let conflict = EngineError::ConflictingDelta {
            relation: "Sales".into(),
            row: "[Int(3)]".into(),
        };
        assert!(conflict.to_string().contains("Sales"));
        assert!(conflict.to_string().contains("[Int(3)]"));
        let panicked = EngineError::WorkerPanicked("index out of bounds".into());
        assert!(panicked.to_string().contains("panicked"));
        assert!(panicked.to_string().contains("index out of bounds"));
        let e: EngineError = DataError::UnknownRelation("R".into()).into();
        assert!(matches!(e, EngineError::Data(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&EngineError::InvalidPlan("x".into())).is_none());
    }
}
