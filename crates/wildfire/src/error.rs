//! Error type for the Wildfire substrate.

use std::fmt;

/// Errors from the Wildfire engine.
#[derive(Debug)]
pub enum WildfireError {
    /// Index failure.
    Index(umzi_core::UmziError),
    /// Storage failure.
    Storage(umzi_storage::StorageError),
    /// Run-format failure.
    Run(umzi_run::RunError),
    /// Encoding failure.
    Encoding(umzi_encoding::EncodingError),
    /// Invalid table definition.
    InvalidTable(String),
    /// A row does not match the table schema.
    RowMismatch(String),
    /// An RID referenced a block or row that does not exist.
    DanglingRid(String),
    /// The write path stalled on the ingest backpressure gate past the
    /// configured stall timeout — maintenance is not draining level 0.
    /// The writer gets this error instead of hanging forever; retrying later
    /// (or checking [`crate::WildfireEngine::health`]) is the caller's call.
    Backpressure {
        /// How long the writer waited before giving up.
        waited: std::time::Duration,
        /// The level-0 run count that kept the gate closed.
        l0_runs: usize,
        /// Whether maintenance is degraded (quarantined jobs) — i.e. the
        /// stall is unlikely to clear on its own soon.
        degraded: bool,
    },
    /// The engine is shutting down.
    ShuttingDown,
}

impl WildfireError {
    /// The underlying storage error, however deeply wrapped (directly, via
    /// the run layer, or via the index layer).
    pub fn storage_cause(&self) -> Option<&umzi_storage::StorageError> {
        match self {
            WildfireError::Storage(e) => Some(e),
            WildfireError::Run(umzi_run::RunError::Storage(e)) => Some(e),
            WildfireError::Index(umzi_core::UmziError::Storage(e)) => Some(e),
            WildfireError::Index(umzi_core::UmziError::Run(umzi_run::RunError::Storage(e))) => {
                Some(e)
            }
            _ => None,
        }
    }

    /// Whether the query failed because its deadline expired.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(
            self.storage_cause(),
            Some(umzi_storage::StorageError::DeadlineExceeded { .. })
        )
    }

    /// Whether the query was cooperatively cancelled.
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self.storage_cause(),
            Some(umzi_storage::StorageError::Cancelled { .. })
        )
    }

    /// Whether the error is an SLO give-up — deadline expiry or
    /// cancellation — rather than an engine/storage failure.
    pub fn is_query_abort(&self) -> bool {
        self.storage_cause().is_some_and(|e| e.is_query_abort())
    }
}

impl fmt::Display for WildfireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WildfireError::Index(e) => write!(f, "index error: {e}"),
            WildfireError::Storage(e) => write!(f, "storage error: {e}"),
            WildfireError::Run(e) => write!(f, "run error: {e}"),
            WildfireError::Encoding(e) => write!(f, "encoding error: {e}"),
            WildfireError::InvalidTable(m) => write!(f, "invalid table: {m}"),
            WildfireError::RowMismatch(m) => write!(f, "row mismatch: {m}"),
            WildfireError::DanglingRid(m) => write!(f, "dangling RID: {m}"),
            WildfireError::Backpressure {
                waited,
                l0_runs,
                degraded,
            } => write!(
                f,
                "ingest stalled on backpressure for {waited:?} ({l0_runs} level-0 runs{})",
                if *degraded {
                    ", maintenance degraded"
                } else {
                    ""
                }
            ),
            WildfireError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for WildfireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WildfireError::Index(e) => Some(e),
            WildfireError::Storage(e) => Some(e),
            WildfireError::Run(e) => Some(e),
            WildfireError::Encoding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<umzi_core::UmziError> for WildfireError {
    fn from(e: umzi_core::UmziError) -> Self {
        WildfireError::Index(e)
    }
}

impl From<umzi_storage::StorageError> for WildfireError {
    fn from(e: umzi_storage::StorageError) -> Self {
        WildfireError::Storage(e)
    }
}

impl From<umzi_run::RunError> for WildfireError {
    fn from(e: umzi_run::RunError) -> Self {
        WildfireError::Run(e)
    }
}

impl From<umzi_encoding::EncodingError> for WildfireError {
    fn from(e: umzi_encoding::EncodingError) -> Self {
        WildfireError::Encoding(e)
    }
}
