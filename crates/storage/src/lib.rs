//! Multi-tier storage hierarchy for the Umzi index.
//!
//! Umzi targets distributed HTAP clusters with three storage tiers (§1, §6):
//!
//! 1. **Shared storage** (HDFS / GlusterFS / S3 / COS): durable and highly
//!    available, but append-only, block-oriented, and slow to reach over the
//!    network. Modeled by [`ObjectStore`] implementations wrapped in
//!    [`SharedStorage`], which adds an explicit [`LatencyModel`] and
//!    operation statistics.
//! 2. **Local SSD cache**: block-granularity cache of run data; also the
//!    *only* home of runs in non-persisted levels (§6.1).
//! 3. **Local memory cache**: the fastest tier.
//!
//! [`TieredStorage`] composes the three. Objects (index runs, groomed blocks,
//! manifests) are immutable once created — mirroring the append-only nature
//! of shared storage — and are read in fixed-size *chunks* that map 1:1 to
//! the run format's blocks. Reads walk memory → SSD → shared, promoting on
//! miss on a block-by-block basis, exactly as §7 describes (*"we first
//! transfer runs from shared storage to the SSD cache on a block-basis"*).
//!
//! Every tier records hit/miss/byte counters and accumulates a *virtual
//! latency charge* so benchmarks can report storage-hierarchy effects
//! deterministically; the latency model can also physically sleep to make
//! end-to-end experiments (Figures 12–15) behave like a real hierarchy.
//!
//! ```
//! use bytes::Bytes;
//! use umzi_storage::{Durability, TieredStorage};
//!
//! let ts = TieredStorage::in_memory();
//! // An immutable object with one pinned header chunk, written through.
//! let h = ts
//!     .create_object("runs/r1", Bytes::from(vec![7u8; 64 << 10]), Durability::Persisted, 1, true)
//!     .unwrap();
//! assert!(ts.is_fully_cached(h).unwrap());
//!
//! // Purge drops data chunks from the local tiers; the next read promotes
//! // them back from shared storage block-by-block (§7).
//! ts.purge_object(h).unwrap();
//! let block = ts.read_chunk(h, 3).unwrap();
//! assert_eq!(block.len(), ts.chunk_size());
//! assert!(ts.stats().shared.reads >= 1);
//! ```

pub mod block_cache;
pub mod breaker;
pub mod cache;
pub mod context;
pub mod error;
pub mod fault;
pub mod latency;
pub mod lru;
pub mod object_store;
pub mod shared;
mod sketch;
pub mod stats;
pub mod tiered;

pub use block_cache::{AccessPattern, DecodedBlockCache, DecodedCacheConfig};
pub use breaker::{
    BreakerState, CircuitBreaker, BREAKER_COOLDOWN, BREAKER_FAILURE_THRESHOLD,
    BREAKER_HALF_OPEN_PROBES, BREAKER_WINDOW,
};
pub use cache::CacheTier;
pub use context::{CancelToken, ContextGuard, OpClass, Priority, QueryContext};
pub use error::StorageError;
pub use fault::{FaultEvent, FaultInjectingStore, FaultOp, FaultPlan, FaultStats};
pub use latency::{LatencyMode, LatencyModel, TierLatency};
pub use object_store::{FsObjectStore, InMemoryObjectStore, ObjectStore};
pub use shared::SharedStorage;
pub use stats::{
    DecodedCacheStats, PatternCounters, SharedStats, StorageStats, TierStats, TraceProbe,
};
pub use tiered::{
    Durability, ObjectHandle, RetryConfig, TieredConfig, TieredStorage, READAHEAD_DEPTH,
    READAHEAD_MAX_INFLIGHT_BYTES,
};

// Re-exported so upstream layers (core, wildfire) reach the telemetry types
// through the storage handle they already hold.
pub use umzi_telemetry as telemetry;
pub use umzi_telemetry::{Telemetry, TelemetryConfig};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
