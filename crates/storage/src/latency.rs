//! Configurable latency model for storage tiers.
//!
//! The paper's end-to-end experiments depend on the memory ≪ SSD ≪ shared
//! latency ordering (Figure 14 shows purged runs costing orders of magnitude
//! more than SSD-cached ones). Since this reproduction simulates the
//! hierarchy, latencies are explicit and configurable rather than emergent.
//!
//! Each tier charge is always *accounted* (a virtual clock accumulates
//! nanoseconds), and in [`LatencyMode::Sleep`] it is also *enforced* by
//! sleeping, which makes end-to-end harnesses behave like a real hierarchy.
//! Unit tests and CPU-bound microbenchmarks use [`LatencyMode::Accounting`].
//!
//! One operation pays one [`TierLatency::charge`]. Two batch operations
//! are one operation each, charged by different rules:
//!
//! * a batched shared-storage read (`SharedStorage::get_ranges`) is charged
//!   for its **largest** range: the backend issues the ranges concurrently,
//!   so the caller waits for the slowest one, not the sum;
//! * a batched SSD-tier write (`CacheTier::insert_batch`) is charged for
//!   its **total** bytes: it is one sequential write, so it pays one fixed
//!   cost, but every byte at the per-KiB rate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How latency charges are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyMode {
    /// Only accumulate the virtual-clock charge; never sleep.
    Accounting,
    /// Accumulate the charge *and* sleep for its duration.
    Sleep,
}

/// Latency parameters of a single tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierLatency {
    /// Fixed cost per operation.
    pub base: Duration,
    /// Additional cost per KiB transferred.
    pub per_kib: Duration,
}

impl TierLatency {
    /// Zero-cost tier (e.g. local memory).
    pub const fn free() -> Self {
        TierLatency {
            base: Duration::ZERO,
            per_kib: Duration::ZERO,
        }
    }

    /// Construct from microsecond figures.
    pub const fn micros(base_us: u64, per_kib_us: u64) -> Self {
        TierLatency {
            base: Duration::from_micros(base_us),
            per_kib: Duration::from_micros(per_kib_us),
        }
    }

    /// The charge for transferring `bytes` bytes.
    pub fn charge(&self, bytes: usize) -> Duration {
        let kib = (bytes as u64).div_ceil(1024);
        self.base + self.per_kib * (kib as u32)
    }

    fn is_free(&self) -> bool {
        self.base.is_zero() && self.per_kib.is_zero()
    }
}

/// A latency model shared by the components of one tier.
///
/// Cloning is cheap; clones share the same virtual clock.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    latency: TierLatency,
    mode: LatencyMode,
    /// Virtual clock: total nanoseconds charged.
    charged_nanos: Arc<AtomicU64>,
}

impl LatencyModel {
    /// A model with the given parameters and mode.
    pub fn new(latency: TierLatency, mode: LatencyMode) -> Self {
        Self {
            latency,
            mode,
            charged_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A free (zero-latency) model; used for unit tests.
    pub fn off() -> Self {
        Self::new(TierLatency::free(), LatencyMode::Accounting)
    }

    /// Apply the charge for an operation moving `bytes` bytes.
    pub fn apply(&self, bytes: usize) {
        if self.latency.is_free() {
            return;
        }
        let d = self.latency.charge(bytes);
        self.charged_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        if self.mode == LatencyMode::Sleep && !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    /// Total virtual time charged so far.
    pub fn charged(&self) -> Duration {
        Duration::from_nanos(self.charged_nanos.load(Ordering::Relaxed))
    }

    /// The configured mode.
    pub fn mode(&self) -> LatencyMode {
        self.mode
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_computation() {
        let l = TierLatency::micros(100, 10);
        assert_eq!(l.charge(0), Duration::from_micros(100));
        assert_eq!(l.charge(1), Duration::from_micros(110));
        assert_eq!(l.charge(1024), Duration::from_micros(110));
        assert_eq!(l.charge(1025), Duration::from_micros(120));
        assert_eq!(l.charge(4096), Duration::from_micros(140));
    }

    #[test]
    fn accounting_accumulates_without_sleeping() {
        let m = LatencyModel::new(TierLatency::micros(1_000, 0), LatencyMode::Accounting);
        let t0 = std::time::Instant::now();
        for _ in 0..100 {
            m.apply(512);
        }
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "accounting mode must not sleep"
        );
        assert_eq!(m.charged(), Duration::from_millis(100));
    }

    #[test]
    fn clones_share_the_clock() {
        let m = LatencyModel::new(TierLatency::micros(10, 0), LatencyMode::Accounting);
        let m2 = m.clone();
        m.apply(1);
        m2.apply(1);
        assert_eq!(m.charged(), Duration::from_micros(20));
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = LatencyModel::off();
        m.apply(1 << 20);
        assert_eq!(m.charged(), Duration::ZERO);
    }

    #[test]
    fn sleep_mode_sleeps() {
        let m = LatencyModel::new(TierLatency::micros(2_000, 0), LatencyMode::Sleep);
        let t0 = std::time::Instant::now();
        m.apply(1);
        assert!(t0.elapsed() >= Duration::from_micros(1_800));
    }
}
