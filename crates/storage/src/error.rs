//! Error type for the storage hierarchy.

use std::fmt;

/// Errors from object stores and tiered storage.
#[derive(Debug)]
pub enum StorageError {
    /// The named object does not exist.
    NotFound {
        /// Object name.
        name: String,
    },
    /// Attempted to create an object that already exists (objects are
    /// immutable / create-once, matching append-only shared storage).
    AlreadyExists {
        /// Object name.
        name: String,
    },
    /// A read range extended past the end of the object.
    RangeOutOfBounds {
        /// Object name.
        name: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Actual object size.
        size: u64,
    },
    /// A non-persisted object's data was lost (e.g. after a simulated crash);
    /// it cannot be re-read from shared storage because it was never written
    /// there (§6.1).
    LostObject {
        /// Object name.
        name: String,
    },
    /// An object handle was used after the object was deleted or the handle
    /// never existed.
    StaleHandle {
        /// The numeric handle value.
        handle: u64,
    },
    /// Underlying filesystem error (filesystem-backed object store).
    Io(std::io::Error),
    /// A transient fault: the operation failed but left no side effects and
    /// may succeed if retried (network hiccup, throttling, injected fault).
    Transient {
        /// The operation that failed (`put`, `get`, ...).
        op: &'static str,
        /// Object name the operation targeted.
        name: String,
        /// Human-readable fault detail.
        detail: String,
    },
    /// The store is unavailable and every operation fails — e.g. a
    /// fault-injected crash point poisoned it to simulate process death,
    /// or an open circuit breaker failing the op class fast.
    /// Permanent until the store is revived; retrying is pointless.
    Unavailable {
        /// Why the store went away.
        reason: String,
    },
    /// The query's deadline expired before the operation completed. The
    /// operation left no side effects; retrying under a fresh deadline is
    /// safe but pointless under the current one.
    DeadlineExceeded {
        /// The operation (or checkpoint) at which the budget ran out.
        op: &'static str,
    },
    /// The query was cooperatively cancelled via its
    /// [`CancelToken`](crate::context::CancelToken).
    Cancelled {
        /// The operation (or checkpoint) at which cancellation was observed.
        op: &'static str,
    },
}

impl StorageError {
    /// Whether the error is transient: the operation had no side effects and
    /// a bounded retry with backoff is worthwhile. Permanent errors (missing
    /// objects, stale handles, corruption, an unavailable store) are not.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Transient { .. } => true,
            // Interrupted syscalls and timeouts are the classic retryable
            // IO failures; everything else (ENOSPC, EACCES, ...) is not.
            StorageError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }

    /// Whether the error means the *query* gave up (deadline expiry or
    /// cooperative cancellation) rather than storage failing. Callers must
    /// not count these against store health (circuit breaker, retry
    /// exhaustion) and must not retry them.
    pub fn is_query_abort(&self) -> bool {
        matches!(
            self,
            StorageError::DeadlineExceeded { .. } | StorageError::Cancelled { .. }
        )
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound { name } => write!(f, "object not found: {name}"),
            StorageError::AlreadyExists { name } => {
                write!(f, "object already exists (objects are immutable): {name}")
            }
            StorageError::RangeOutOfBounds {
                name,
                offset,
                len,
                size,
            } => write!(
                f,
                "range [{offset}, {offset}+{len}) out of bounds for {name} (size {size})"
            ),
            StorageError::LostObject { name } => {
                write!(
                    f,
                    "non-persisted object lost (not in shared storage): {name}"
                )
            }
            StorageError::StaleHandle { handle } => write!(f, "stale object handle {handle}"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Transient { op, name, detail } => {
                write!(f, "transient {op} failure on {name}: {detail}")
            }
            StorageError::Unavailable { reason } => {
                write!(f, "object store unavailable: {reason}")
            }
            StorageError::DeadlineExceeded { op } => {
                write!(f, "query deadline exceeded at {op}")
            }
            StorageError::Cancelled { op } => write!(f, "query cancelled at {op}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
