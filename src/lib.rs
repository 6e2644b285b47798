//! # Umzi — Unified Multi-Zone Indexing for Large-Scale HTAP
//!
//! A from-scratch Rust reproduction of *"Umzi: Unified Multi-Zone Indexing
//! for Large-Scale HTAP"* (Luo, Tözün, Tian, Barber, Raman, Sidle — EDBT
//! 2019), the multi-version, multi-zone LSM-like index behind IBM's Wildfire
//! HTAP prototype (and Db2 Event Store).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`encoding`] | `umzi-encoding` | datums, memcmp-comparable key codec, 64-bit hash, index definitions |
//! | [`storage`] | `umzi-storage` | object stores, memory/SSD/shared tiers, latency model |
//! | [`run`] | `umzi-run` | the index-run format: header, synopsis, offset array, search |
//! | [`core`] | `umzi-core` | the Umzi index: zones, merge, evolve, recovery, queries |
//! | [`wildfire`] | `umzi-wildfire` | the HTAP substrate: live zone, groomer, post-groomer, engine |
//! | [`workload`] | `umzi-workload` | the paper's synthetic workloads (I1/I2/I3, key dists, IoT updates) |
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use umzi::prelude::*;
//!
//! // An IoT table sharded by device and partitioned by date (§2.1).
//! let storage = Arc::new(TieredStorage::in_memory());
//! let engine = WildfireEngine::create(
//!     storage,
//!     Arc::new(iot_table()),
//!     EngineConfig { maintenance: None, ..EngineConfig::default() },
//! )
//! .unwrap();
//!
//! // Ingest, then drive the groom → post-groom → evolve pipeline.
//! engine
//!     .upsert(vec![
//!         Datum::Int64(4),   // device  (sharding + index equality)
//!         Datum::Int64(1),   // msg     (index sort)
//!         Datum::Int64(319), // date    (partition key)
//!         Datum::Int64(42),  // payload (index included)
//!     ])
//!     .unwrap();
//! engine.quiesce().unwrap();
//!
//! let rec = engine
//!     .get(&[Datum::Int64(4)], &[Datum::Int64(1)], Freshness::Latest)
//!     .unwrap()
//!     .expect("indexed after grooming");
//! assert_eq!(rec.row[3], Datum::Int64(42));
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses regenerating every figure of the paper's evaluation.

pub use umzi_core as core;
pub use umzi_encoding as encoding;
pub use umzi_run as run;
pub use umzi_storage as storage;
pub use umzi_wildfire as wildfire;
pub use umzi_workload as workload;

/// Commonly used items in one import.
pub mod prelude {
    pub use umzi_core::{
        EvolveNotice, Job, JobKind, MaintenanceConfig, MaintenanceDaemon, MaintenanceStats,
        MergePolicy, QueryOutput, RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex,
    };
    pub use umzi_encoding::{ColumnType, Datum, DatumKind, IndexDef};
    pub use umzi_run::{IndexEntry, Rid, Run, SortBound, ZoneId};
    pub use umzi_storage::{
        Durability, LatencyMode, SharedStorage, TierLatency, TieredConfig, TieredStorage,
    };
    pub use umzi_wildfire::{
        iot_table, EngineConfig, Freshness, ShardConfig, TableDef, WildfireEngine,
    };
    pub use umzi_workload::{IndexPreset, IotUpdateModel, KeyDist, KeyGen};
}
