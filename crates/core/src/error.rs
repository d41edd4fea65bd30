//! Typed errors for the engine API.
//!
//! Malformed input never panics somewhere inside the index or matcher
//! internals: the engine API validates at the boundary —
//! [`crate::Engine::builder`] checks the object set before paying for a
//! bulk load, and [`crate::MatchRequest::evaluate`] checks the request
//! against the prepared engine — and reports what is wrong with a
//! [`MpqError`].

use mpq_ta::WeightError;

/// Why an engine could not be built or a match request not evaluated.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MpqError {
    /// The object set contains no points; there is nothing to index.
    EmptyObjects,
    /// The function set contains no alive functions; there is nobody to
    /// match.
    EmptyFunctions,
    /// The object set is larger than one bulk load can index.
    TooManyObjects {
        /// Number of objects offered.
        got: usize,
        /// Most objects one engine can be built over.
        max: usize,
    },
    /// An object coordinate is NaN or infinite.
    NonFiniteCoordinate {
        /// Object id (point index) of the offending point.
        oid: u64,
        /// Dimension of the offending coordinate.
        dim: usize,
        /// The offending value.
        value: f64,
    },
    /// An object coordinate lies outside the `[0, 1]` preference space
    /// the skyline and ranked-search bounds assume.
    CoordinateOutOfRange {
        /// Object id (point index) of the offending point.
        oid: u64,
        /// Dimension of the offending coordinate.
        dim: usize,
        /// The offending value.
        value: f64,
    },
    /// The request's functions do not share the engine's dimensionality.
    DimensionMismatch {
        /// Dimensionality the engine was built with.
        engine: usize,
        /// Dimensionality of the request's functions.
        functions: usize,
    },
    /// A weight row was rejected while assembling a function set.
    InvalidFunction {
        /// Row index of the offending function.
        index: usize,
        /// What was wrong with the row.
        source: WeightError,
    },
    /// The capacity vector does not cover every object exactly once.
    CapacityMismatch {
        /// Number of objects in the engine.
        expected: usize,
        /// Length of the provided capacity vector.
        got: usize,
    },
    /// The request combines options the engine cannot serve together
    /// (e.g. capacities on a harness [`Variant`](crate::Variant)).
    UnsupportedRequest(&'static str),
    /// The service's submission queue is full of live jobs, even after
    /// sweeping out the ones no submitter waits for any more. The
    /// request was not enqueued; back off and resubmit.
    Overloaded,
    /// The request's deadline passed before a worker could start it.
    /// The evaluation was never run.
    DeadlineExceeded,
    /// The request was cancelled via [`crate::service::Ticket::cancel`]
    /// before its result was delivered.
    Cancelled,
    /// The service has begun shutting down and no longer accepts
    /// submissions (already-queued requests still drain to completion).
    ServiceStopped,
    /// A service worker panicked while evaluating this request. The
    /// worker survives and keeps serving; only this request is lost.
    WorkerPanicked,
    /// A mutation named an object id the engine does not hold.
    UnknownObject {
        /// The missing object id.
        oid: u64,
    },
    /// A mutation's point does not share the engine's dimensionality.
    PointDimensionMismatch {
        /// Dimensionality the engine was built with.
        engine: usize,
        /// Dimensionality of the mutation's point.
        point: usize,
    },
    /// A persistence (disk) operation failed; carries the OS error text.
    /// The engine's in-memory state is unchanged — a failed mutation was
    /// not applied.
    Io(String),
    /// The engine's storage is degraded: a WAL append failed and so did
    /// its rollback, so the log may hold an unacknowledged record (see
    /// [`HealthState`](crate::HealthState)). Reads keep serving from the
    /// last committed snapshot; mutations are refused until a checkpoint
    /// repairs the log. Back off for
    /// [`Engine::retry_after`](crate::Engine::retry_after) and retry.
    StorageDegraded,
}

impl From<std::io::Error> for MpqError {
    fn from(e: std::io::Error) -> MpqError {
        MpqError::Io(e.to_string())
    }
}

impl std::fmt::Display for MpqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpqError::EmptyObjects => write!(f, "object set is empty"),
            MpqError::EmptyFunctions => write!(f, "function set is empty"),
            MpqError::TooManyObjects { got, max } => write!(
                f,
                "object set holds {got} objects, one index takes at most {max}"
            ),
            MpqError::NonFiniteCoordinate { oid, dim, value } => write!(
                f,
                "object {oid} has non-finite coordinate {value} at dimension {dim}"
            ),
            MpqError::CoordinateOutOfRange { oid, dim, value } => write!(
                f,
                "object {oid} has coordinate {value} at dimension {dim} outside [0, 1]; \
                 normalize attributes to larger-is-better unit scale first"
            ),
            MpqError::DimensionMismatch { engine, functions } => write!(
                f,
                "functions have dimensionality {functions}, engine was built with {engine}"
            ),
            MpqError::InvalidFunction { index, source } => {
                write!(f, "function row {index}: {source}")
            }
            MpqError::CapacityMismatch { expected, got } => write!(
                f,
                "capacity vector has {got} entries, engine holds {expected} objects"
            ),
            MpqError::UnsupportedRequest(msg) => write!(f, "unsupported request: {msg}"),
            MpqError::Overloaded => write!(f, "service queue is full; back off and resubmit"),
            MpqError::DeadlineExceeded => {
                write!(f, "request deadline passed before evaluation started")
            }
            MpqError::Cancelled => write!(f, "request was cancelled"),
            MpqError::ServiceStopped => {
                write!(f, "service is shutting down and no longer accepts requests")
            }
            MpqError::WorkerPanicked => {
                write!(f, "a service worker panicked while evaluating this request")
            }
            MpqError::UnknownObject { oid } => {
                write!(f, "engine holds no object with id {oid}")
            }
            MpqError::PointDimensionMismatch { engine, point } => write!(
                f,
                "point has dimensionality {point}, engine was built with {engine}"
            ),
            MpqError::Io(msg) => write!(f, "persistence error: {msg}"),
            MpqError::StorageDegraded => write!(
                f,
                "storage is degraded after a durability failure; mutations are \
                 refused until a checkpoint repairs the log (reads still serve \
                 the last committed snapshot)"
            ),
        }
    }
}

impl std::error::Error for MpqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpqError::InvalidFunction { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = MpqError::CoordinateOutOfRange {
            oid: 7,
            dim: 2,
            value: 1.5,
        };
        let msg = e.to_string();
        assert!(msg.contains("object 7"), "{msg}");
        assert!(msg.contains("1.5"), "{msg}");
        assert!(msg.contains("normalize"), "{msg}");
    }

    #[test]
    fn invalid_function_carries_source() {
        use std::error::Error;
        let e = MpqError::InvalidFunction {
            index: 3,
            source: WeightError::AllZero,
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("row 3"));
    }
}
