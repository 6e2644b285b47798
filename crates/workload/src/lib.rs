//! Synthetic workloads matching the Umzi paper's experiment setup (§8.1,
//! §8.4).
//!
//! * [`IndexPreset`] — the paper's three index definitions I1/I2/I3, each
//!   over 8-byte `long` columns.
//! * [`KeyGen`] — sequential keys (time-correlated) and random keys
//!   (uniform, no temporal correlation), for both ingestion and query
//!   batches.
//! * [`IotUpdateModel`] — §8.4's realistic IoT update mix: per groom cycle,
//!   the new batch updates `p%` of the previous cycle, `0.1·p%` of the last
//!   50 cycles and `0.01·p%` of the last 100 cycles.

pub mod iot;
pub mod keys;
pub mod presets;

pub use iot::{IotUpdateModel, UpdateMix};
pub use keys::{KeyDist, KeyGen};
pub use presets::IndexPreset;
