//! # Umzi — unified multi-zone indexing for large-scale HTAP
//!
//! This crate implements the Umzi index of *"Umzi: Unified Multi-Zone
//! Indexing for Large-Scale HTAP"* (Luo et al., EDBT 2019): a multi-version,
//! multi-zone, LSM-like index that provides one consistent view over data
//! that continuously evolves from a transaction-friendly zone to an
//! analytics-friendly zone.
//!
//! Highlights, mapped to the paper:
//!
//! * **Multi-run, multi-zone structure** (§4.3): per-zone lock-free run
//!   lists ([`runlist::RunList`]) over the run format of the `umzi-run`
//!   crate; level→zone assignment is configurable ([`UmziConfig`]).
//! * **Index build** (§5.2): [`UmziIndex::build_groomed_run`].
//! * **Hybrid merge policy** (§5.3): [`UmziIndex::merge_at`], parameters
//!   [`MergePolicy`].
//! * **Index evolve** (§5.4): [`UmziIndex::evolve`] — three atomic
//!   sub-operations, PSN ordering, watermark, GC.
//! * **Recovery** (§5.5): [`UmziIndex::recover`] — run-list reconstruction
//!   with overlap resolution, manifest state, torn-object cleanup.
//! * **Multi-tier storage** (§6): non-persisted levels with ancestor
//!   tracking, SSD cache management with a current cached level
//!   ([`UmziIndex::cache_maintain`]).
//! * **Background maintenance** (§5.1): [`MaintenanceDaemon`], a
//!   prioritized job queue drained by worker threads. The embedder's
//!   [`JobExecutor`] runs each [`Job`], and a job's
//!   [`JobOutcome::follow_ups`] are the only way one job schedules another:
//!   index operations call back into no daemon.
//! * **Queries** (§7): [`UmziIndex::range_scan`],
//!   [`UmziIndex::point_lookup`], [`UmziIndex::batch_lookup`], with set- and
//!   priority-queue reconciliation ([`ReconcileStrategy`]).
//!
//! ```
//! use std::sync::Arc;
//! use umzi_core::{UmziConfig, UmziIndex};
//! use umzi_encoding::{ColumnType, Datum, IndexDef};
//! use umzi_run::{IndexEntry, Rid, ZoneId};
//! use umzi_storage::TieredStorage;
//!
//! let storage = Arc::new(TieredStorage::in_memory());
//! let def = Arc::new(
//!     IndexDef::builder("iot")
//!         .equality("device", ColumnType::Int64)
//!         .sort("msg", ColumnType::Int64)
//!         .build()
//!         .unwrap(),
//! );
//! let index = UmziIndex::create(storage, def, UmziConfig::two_zone("demo")).unwrap();
//!
//! // One groom cycle produces index entries → a level-0 run.
//! let entry = IndexEntry::new(
//!     index.layout(),
//!     &[Datum::Int64(4)],
//!     &[Datum::Int64(1)],
//!     100,
//!     Rid::new(ZoneId::GROOMED, 0, 0),
//!     &[],
//! )
//! .unwrap();
//! index.build_groomed_run(vec![entry], 0, 0).unwrap();
//!
//! let hit = index.point_lookup(&[Datum::Int64(4)], &[Datum::Int64(1)], 100).unwrap();
//! assert!(hit.is_some());
//! ```

pub mod build;
pub mod cache_mgr;
pub mod config;
pub mod daemon;
pub mod error;
pub mod evolve;
pub mod index;
pub mod manifest;
pub mod merge;
pub mod query;
pub mod reconcile;
pub mod recovery;
pub mod runlist;
pub mod stats;

pub use cache_mgr::CacheMaintainReport;
pub use config::{CacheConfig, MaintenanceConfig, MergePolicy, UmziConfig, ZoneConfig};
pub use daemon::{
    Backpressure, BackpressureStats, Job, JobExecutor, JobKind, JobKindStats, JobOutcome,
    JobResult, MaintenanceDaemon, MaintenanceStats, Tick, JOB_RETRIES, JOB_RETRY_BACKOFF,
    QUARANTINE_PROBE_INTERVAL, STALL_TIMEOUT,
};
pub use error::UmziError;
pub use evolve::{EvolveNotice, EvolveReport};
pub use index::{IndexCounters, UmziIndex, ZoneState};
pub use manifest::Manifest;
pub use merge::MergeReport;
pub use query::{QueryOutput, RangeQuery};
pub use reconcile::ReconcileStrategy;
pub use runlist::RunList;
pub use stats::IndexStats;

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, UmziError>;
