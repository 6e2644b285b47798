//! Unified telemetry for Umzi: a lock-free metrics registry with
//! log-bucketed latency histograms, per-query trace contexts, a slow-query
//! log, and Prometheus/JSON exporters.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost when disabled is one relaxed atomic load.** Every
//!    instrumentation site goes through [`Telemetry::start`], which answers
//!    `None` without reading the clock when telemetry is off. The enabled
//!    path measured within a few percent of disabled (the retired
//!    `telemetry_overhead` A/B; last ratio archived in CHANGES.md PR 19).
//! 2. **No locks while recording.** Handles ([`Histogram`], [`Counter`],
//!    [`Gauge`]) are resolved once at construction ([`OpMetrics`]) and are
//!    plain atomics; only registration and snapshotting lock.
//! 3. **No dependencies.** This crate sits below `umzi-storage` in the
//!    graph, so every layer (storage, core, wildfire) can record into the
//!    same handle without circular imports. The engine-level snapshot that
//!    folds the domain stats structs together lives upstream in
//!    `umzi-wildfire`.
//!
//! Metric naming: `umzi_<domain>_<quantity>_<unit>` with Prometheus-style
//! inline labels for the operation class, e.g.
//! `umzi_query_duration_nanos{op="point_lookup"}` and
//! `umzi_job_duration_nanos{kind="groom"}`.

mod export;
mod hist;
mod registry;
mod trace;

pub use export::{escape_json, escape_label_value, to_json, to_prometheus, traces_to_json};
pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricsSnapshot, Registry};
pub use trace::{QueryTrace, SlowQueryLog, TraceRecord};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of daemon job kinds with a dedicated latency histogram
/// (groom / merge / evolve / retire_deprecated, in stats-reporting order).
pub const JOB_KINDS: usize = 4;

/// Labels of the per-job-kind histograms, in [`OpMetrics::jobs`] order.
pub const JOB_LABELS: [&str; JOB_KINDS] = ["groom", "merge", "evolve", "retire_deprecated"];

/// Tuning knobs for the telemetry subsystem, applied to a live handle with
/// [`Telemetry::configure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch: when false, instrumentation sites skip clock reads and
    /// histogram records entirely.
    pub enabled: bool,
    /// Queries at least this slow land in the slow-query log.
    pub slow_query_threshold: Duration,
    /// Ring capacity of the slow-query log (newest records win).
    pub slow_query_log_len: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            slow_query_threshold: Duration::from_millis(100),
            slow_query_log_len: 128,
        }
    }
}

/// Pre-resolved histogram handles for every instrumented operation class.
/// Resolving by name on the hot path would take the registry lock; these are
/// looked up exactly once when the [`Telemetry`] handle is built.
#[derive(Debug)]
pub struct OpMetrics {
    /// Point-lookup latency (`umzi_query_duration_nanos{op="point_lookup"}`).
    pub point_lookup: Arc<Histogram>,
    /// Batched-lookup latency (per batch, not per key).
    pub batch_lookup: Arc<Histogram>,
    /// Range-scan latency, exported as `op="range_scan_seq"` (the merge is
    /// sequential; the label is what existing dashboards select).
    pub range_scan_seq: Arc<Histogram>,
    /// Ingest/upsert latency (per batch).
    pub ingest: Arc<Histogram>,
    /// Daemon job execution latency, indexed by [`JOB_LABELS`] order.
    pub jobs: [Arc<Histogram>; JOB_KINDS],
    /// One shared-storage block fetch inside `TieredStorage`.
    pub block_fetch: Arc<Histogram>,
    /// One batched readahead fetch (all ranges of the batch together).
    pub prefetch_batch: Arc<Histogram>,
    /// Blocks per readahead batch (a depth distribution, not a latency).
    pub readahead_depth: Arc<Histogram>,
    /// One manifest persist/load/gc round trip.
    pub manifest_io: Arc<Histogram>,
}

impl OpMetrics {
    fn new(registry: &Registry) -> Self {
        let q = |op: &str| registry.histogram(&format!("umzi_query_duration_nanos{{op=\"{op}\"}}"));
        Self {
            point_lookup: q("point_lookup"),
            batch_lookup: q("batch_lookup"),
            range_scan_seq: q("range_scan_seq"),
            ingest: registry.histogram("umzi_ingest_duration_nanos"),
            jobs: std::array::from_fn(|i| {
                registry.histogram(&format!(
                    "umzi_job_duration_nanos{{kind=\"{}\"}}",
                    JOB_LABELS[i]
                ))
            }),
            block_fetch: registry.histogram("umzi_storage_block_fetch_duration_nanos"),
            prefetch_batch: registry.histogram("umzi_storage_prefetch_batch_duration_nanos"),
            readahead_depth: registry.histogram("umzi_storage_readahead_depth_blocks"),
            manifest_io: registry.histogram("umzi_storage_manifest_io_duration_nanos"),
        }
    }
}

/// The telemetry handle one storage hierarchy (and everything stacked on it)
/// shares. Cheap to clone via `Arc`; reconfigurable in place so applying a
/// config never resets accumulated counters.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    slow_threshold_nanos: AtomicU64,
    registry: Registry,
    ops: OpMetrics,
    slow: SlowQueryLog,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An enabled handle with default thresholds.
    pub fn new() -> Self {
        Self::with_config(&TelemetryConfig::default())
    }

    /// A handle with instrumentation switched off (the cheapest possible
    /// configuration).
    pub fn disabled() -> Self {
        Self::with_config(&TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        })
    }

    /// A handle from an explicit configuration.
    pub fn with_config(config: &TelemetryConfig) -> Self {
        let registry = Registry::new();
        let ops = OpMetrics::new(&registry);
        Self {
            enabled: AtomicBool::new(config.enabled),
            slow_threshold_nanos: AtomicU64::new(config.slow_query_threshold.as_nanos() as u64),
            registry,
            ops,
            slow: SlowQueryLog::new(config.slow_query_log_len),
        }
    }

    /// Apply a configuration to the live handle. Counters and histograms
    /// are preserved — only the switch, threshold, and ring capacity move —
    /// so re-applying the same config is idempotent.
    pub fn configure(&self, config: &TelemetryConfig) {
        self.enabled.store(config.enabled, Ordering::Relaxed);
        self.slow_threshold_nanos.store(
            config.slow_query_threshold.as_nanos() as u64,
            Ordering::Relaxed,
        );
        self.slow.set_capacity(config.slow_query_log_len);
    }

    /// Whether instrumentation is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip the master switch.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Start timing an operation: `Some(now)` when enabled, `None` (no
    /// clock read) when disabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the time since `start` into `hist`; returns the measured
    /// nanoseconds (0 when the timer was off).
    #[inline]
    pub fn record_since(&self, hist: &Histogram, start: Option<Instant>) -> u64 {
        match start {
            Some(t0) => {
                let nanos = t0.elapsed().as_nanos() as u64;
                hist.record(nanos);
                nanos
            }
            None => 0,
        }
    }

    /// The slow-query latency threshold in nanoseconds.
    #[inline]
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos.load(Ordering::Relaxed)
    }

    /// Log `record` if it crossed the slow-query threshold.
    pub fn maybe_log_slow(&self, record: TraceRecord) {
        if record.total_nanos >= self.slow_threshold_nanos() {
            self.slow.push(record);
        }
    }

    /// The pre-resolved operation histograms.
    #[inline]
    pub fn ops(&self) -> &OpMetrics {
        &self.ops
    }

    /// The underlying registry (for layer-specific ad-hoc metrics).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Oldest-first copy of the slow-query log.
    pub fn slow_queries(&self) -> Vec<TraceRecord> {
        self.slow.snapshot()
    }

    /// Records evicted from the slow-query ring so far.
    pub fn slow_queries_evicted(&self) -> u64 {
        self.slow.evicted()
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_record(nanos: u64) -> TraceRecord {
        let mut t = QueryTrace::begin("range_scan_seq");
        t.blocks_read = 7;
        let mut r = t.finish();
        r.total_nanos = nanos;
        r
    }

    #[test]
    fn disabled_handle_skips_clock_and_records_nothing() {
        let t = Telemetry::disabled();
        assert!(t.start().is_none());
        assert_eq!(t.record_since(&t.ops().point_lookup, None), 0);
        assert_eq!(t.ops().point_lookup.count(), 0);
    }

    #[test]
    fn enabled_handle_records_latency() {
        let t = Telemetry::new();
        let t0 = t.start();
        assert!(t0.is_some());
        let nanos = t.record_since(&t.ops().point_lookup, t0);
        assert!(nanos > 0);
        assert_eq!(t.ops().point_lookup.count(), 1);
        assert!(t.snapshot().histograms.len() >= 9, "ops pre-registered");
    }

    #[test]
    fn slow_query_threshold_gates_the_log() {
        let t = Telemetry::with_config(&TelemetryConfig {
            enabled: true,
            slow_query_threshold: Duration::from_nanos(1000),
            slow_query_log_len: 8,
        });
        t.maybe_log_slow(slow_record(999));
        assert!(t.slow_queries().is_empty());
        t.maybe_log_slow(slow_record(1000));
        assert_eq!(t.slow_queries().len(), 1);
        assert_eq!(t.slow_queries()[0].blocks_read, 7);
    }

    #[test]
    fn configure_preserves_history() {
        let t = Telemetry::new();
        t.ops().ingest.record(42);
        t.configure(&TelemetryConfig {
            enabled: false,
            slow_query_threshold: Duration::from_millis(5),
            slow_query_log_len: 4,
        });
        assert!(!t.is_enabled());
        assert_eq!(t.ops().ingest.count(), 1, "history survives reconfigure");
        assert_eq!(t.slow_threshold_nanos(), 5_000_000);
    }
}
