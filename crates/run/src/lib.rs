//! The Umzi index-run format (§4.2 of the paper).
//!
//! A run is a sorted table of index entries, physically stored as one
//! *header block* plus one or more *fixed-size data blocks*:
//!
//! ```text
//! object = [ header (padded to chunk boundary) ][ data block 0 ][ data block 1 ] …
//! ```
//!
//! Each entry is a memcmp-comparable key plus a value:
//!
//! ```text
//! key   = hash(equality cols)   8 bytes, iff the index has equality columns
//!       ∥ enc(equality cols)    order-preserving
//!       ∥ enc(sort cols)        order-preserving
//!       ∥ ¬beginTS              8 bytes — DESCENDING, newest version first
//! value = RID (13 bytes) ∥ enc(included cols)
//! ```
//!
//! The header carries (§4.2): the number of data blocks, the merge level and
//! zone, the covered groomed-block-ID range, a per-key-column min/max
//! *synopsis* used to prune runs during queries, and — when equality columns
//! exist — an *offset array* of `2^n` entry ordinals mapping the most
//! significant `n` bits of the hash to a narrowed binary-search range
//! (Figure 2). It also records *ancestor runs* for the non-persisted-level
//! recovery protocol (§6.1), and a *key filter* ([`KeyFilter`]): a blocked
//! Bloom filter over the run's distinct logical keys, which every exact-key
//! probe checks before any fence search or block read.
//!
//! Data blocks are sized to the storage chunk so cache residency is decided
//! block-by-block, and each carries an offset trailer for O(1) in-block slot
//! addressing; the header's per-block entry-count prefix sums map a global
//! entry ordinal to `(block, slot)` in `O(log #blocks)`.
//!
//! ```
//! use std::sync::Arc;
//! use umzi_encoding::{ColumnType, Datum, IndexDef};
//! use umzi_run::{IndexEntry, KeyLayout, Rid, RunBuilder, RunParams, RunSearcher, ZoneId};
//! use umzi_storage::{Durability, TieredStorage};
//!
//! let storage = Arc::new(TieredStorage::in_memory());
//! let def = IndexDef::builder("iot")
//!     .equality("device", ColumnType::Int64)
//!     .sort("msg", ColumnType::Int64)
//!     .build()
//!     .unwrap();
//! let layout = KeyLayout::new(Arc::new(def));
//!
//! let mut entries: Vec<IndexEntry> = (0..100)
//!     .map(|i| {
//!         IndexEntry::new(
//!             &layout,
//!             &[Datum::Int64(i % 4)],
//!             &[Datum::Int64(i)],
//!             100 + i as u64,
//!             Rid::new(ZoneId::GROOMED, 1, i as u32),
//!             &[],
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! entries.sort_by(|a, b| a.key.cmp(&b.key));
//!
//! let params = RunParams {
//!     run_id: 1, zone: ZoneId::GROOMED, level: 0,
//!     groomed_lo: 1, groomed_hi: 1, psn: 0, offset_bits: 4, ancestors: vec![],
//! };
//! let mut builder = RunBuilder::new(layout.clone(), params, storage.chunk_size());
//! for e in &entries { builder.push(e).unwrap(); }
//! let run = builder.finish(&storage, "runs/demo", Durability::Persisted, true).unwrap();
//!
//! // Point lookup for (device = 2, msg = 6) at snapshot 200.
//! let prefix = {
//!     let mut p = layout.equality_prefix(&[Datum::Int64(2)]).unwrap();
//!     umzi_encoding::encode_datum(&Datum::Int64(6), &mut p);
//!     p
//! };
//! let hit = RunSearcher::new(&run).lookup(&prefix, None, 200).unwrap().unwrap();
//! assert_eq!(hit.begin_ts, 106);
//! ```

pub mod builder;
pub mod entry;
pub mod error;
pub mod filter;
pub mod format;
pub mod key;
pub mod reader;
pub mod rid;
pub mod search;
pub mod synopsis;

pub use builder::{RunBuilder, RunParams};
pub use entry::{EntryRef, IndexEntry};
pub use error::RunError;
pub use filter::KeyFilter;
pub use format::{RunHeader, FORMAT_VERSION};
pub use key::{KeyLayout, SortBound};
pub use reader::{DataBlock, Run};
pub use rid::{Rid, ZoneId, RID_LEN};
pub use search::{FilterCounts, ProbeCursor, ProbeKey, RunRangeIter, RunSearcher, SearchHit};
pub use synopsis::Synopsis;
pub use umzi_storage::AccessPattern;

/// Result alias for run-format operations.
pub type Result<T> = std::result::Result<T, RunError>;
