//! # Wildfire substrate — the HTAP engine Umzi indexes
//!
//! A faithful single-node reproduction of the Wildfire HTAP engine
//! (Barber et al., CIDR 2017) as described in §2 of the Umzi paper: the
//! substrate whose data lifecycle (Figure 1) Umzi indexes.
//!
//! * **Tables** (§2.1): primary key, sharding key (⊆ primary), optional
//!   partition key; all writes are upserts with last-writer-wins semantics —
//!   [`TableDef`].
//! * **Live zone**: per-transaction side-logs appended to an in-memory
//!   committed log — [`CommittedLog`].
//! * **Groomed zone**: the groomer drains the log every cycle, assigns
//!   monotonic `beginTS` (groom epoch ∥ commit sequence), writes columnar
//!   groomed blocks, and builds level-0 index runs — [`Shard::groom`].
//! * **Post-groomed zone**: the post-groomer re-organizes groomed blocks by
//!   partition key into larger blocks, sets `prevRID`/`endTS` version
//!   chains, and publishes PSN-ordered evolve notices — [`Shard::post_groom`].
//! * **Indexer**: polls MaxPSN and applies evolve operations in order —
//!   [`Shard::apply_pending_evolves`] (Figure 5).
//! * **Engine**: shard routing, freshness levels (snapshot / latest /
//!   freshest-with-live-zone), background daemons — [`WildfireEngine`].
//! * **Secondary indexes** (§10 future work): PK-suffixed keys reuse the
//!   whole index machinery; a table's and a shard's indexes are one list
//!   with the primary at 0 ([`TableDef::indexes`]), maintained by one
//!   pipeline and validated against the primary on scan —
//!   [`TableDefBuilder::secondary_index`], [`WildfireEngine::scan_secondary`].
//!
//! Documented substitutions vs. the real Wildfire (see DESIGN.md): columnar
//! blocks use a self-contained format instead of Parquet; log replication
//! across replicas is out of scope; `endTS` closures are persisted as
//! sidecar delta objects because shared storage forbids in-place updates.

pub mod colblock;
pub mod engine;
pub mod error;
pub mod livezone;
mod maintenance;
pub mod shard;
pub mod table;
pub mod telemetry;
pub mod timestamps;

pub use colblock::{ColumnBlock, EndTsDelta};
pub use engine::{
    EngineConfig, EngineDaemons, EngineHealth, Freshness, RecordView, WildfireEngine,
};
pub use error::WildfireError;
pub use livezone::{CommittedLog, LogRecord};
pub use shard::{FetchedRow, GroomReport, PostGroomReport, Shard, ShardConfig};
pub use table::{iot_table, IndexShape, TableDef, TableDefBuilder};
pub use telemetry::TelemetrySnapshot;
pub use timestamps::{compose_begin_ts, decompose_begin_ts, OPEN_END_TS};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, WildfireError>;
