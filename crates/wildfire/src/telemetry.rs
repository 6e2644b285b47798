//! The unified telemetry surface: one snapshot, one fold, two renderers.
//!
//! The lower layers each keep their own counters — the metrics registry and
//! operation histograms live on the shared [`umzi_storage::Telemetry`]
//! handle, the storage hierarchy snapshots [`StorageStats`] (tiers, decoded
//! cache, retries), each shard's index snapshots [`IndexStats`], the daemon
//! snapshots [`MaintenanceStats`], and [`WildfireEngine::health`] distills
//! the fault-and-recovery view. [`WildfireEngine::telemetry`] captures all of
//! them at once as typed fields.
//!
//! For export there is exactly one path: [`TelemetrySnapshot::folded`]
//! copies the registry snapshot and appends every domain value to it as a
//! `umzi_*` series — this module is the only caller of
//! [`MetricsSnapshot::push_counter`] / [`MetricsSnapshot::push_gauge`] and
//! the only place a series name is spelled. Prometheus text
//! ([`TelemetrySnapshot::to_prometheus`]) and JSON
//! ([`TelemetrySnapshot::to_json`]) are the telemetry crate's two renderers
//! applied to that one list, so they cannot disagree. There is deliberately
//! no network server — embedders scrape the strings.
//!
//! Every stats struct is destructured exhaustively by [`fold!`] (no `..`
//! rest pattern), so a field added below without a decision here — a series
//! name, a hand fold, or an explicit `field: _` — does not compile.
//!
//! Naming follows the registry's convention (`umzi_<domain>_<quantity>`
//! with inline labels): `_total` marks a monotonic counter, anything else is
//! a gauge; per-class, per-kind, per-zone and per-level vectors become one
//! series per element under an `op` / `kind` / `zone` / `level` label.

use umzi_core::{BackpressureStats, IndexStats, JobKind, JobKindStats, MaintenanceStats};
use umzi_storage::telemetry::{self, HistogramSnapshot, MetricsSnapshot, TraceRecord};
use umzi_storage::{
    DecodedCacheStats, FaultOp, FaultStats, OpClass, PatternCounters, SharedStats, StorageStats,
    TierStats,
};

use crate::{EngineHealth, WildfireEngine};

/// Everything the engine knows about itself, captured at one instant
/// (per-field atomic reads; cross-field consistency is best-effort, which
/// is fine for observability).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// The metrics registry: operation latency histograms plus any ad-hoc
    /// counters and gauges layers registered.
    pub metrics: MetricsSnapshot,
    /// Slow-query trace records, oldest first.
    pub slow_queries: Vec<TraceRecord>,
    /// Slow-query records evicted from the ring so far.
    pub slow_queries_evicted: u64,
    /// Storage hierarchy: tiers, shared storage, decoded cache, retries.
    pub storage: StorageStats,
    /// Per-shard primary-index structure and operation counters.
    pub shards: Vec<IndexStats>,
    /// Maintenance daemon, when one is running.
    pub maintenance: Option<MaintenanceStats>,
    /// The fault-and-recovery health distillation.
    pub health: EngineHealth,
}

impl WildfireEngine {
    /// Capture the unified telemetry snapshot. Takes exactly one
    /// [`umzi_storage::TieredStorage::stats`] snapshot (it locks both chunk
    /// tiers and every decoded-cache shard); health is distilled from it.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let tel = self.storage().telemetry();
        let storage = self.storage().stats();
        let maintenance = self.maintenance_stats();
        TelemetrySnapshot {
            metrics: tel.snapshot(),
            slow_queries: tel.slow_queries(),
            slow_queries_evicted: tel.slow_queries_evicted(),
            health: self.health_from(&storage, maintenance.as_ref()),
            storage,
            shards: self.shards().iter().map(|s| s.index().stats()).collect(),
            maintenance,
        }
    }
}

/// Destructure `$val` (a reference to a `$ty`) exhaustively and push one
/// series per row as `umzi_<prefix><metric><labels>`. Row forms:
/// `field => "metric"` pushes a scalar; `field => "metric" .method()` pushes
/// `field.method()` (durations, as nanos); `field => "metric" per labels`
/// pushes one series per element of a vector-valued field, labelled in
/// order; a bare `field` binds it for a hand fold right after the invocation
/// (leaving it unused is a compile error under `-D warnings`); `field: _`
/// names a field that deliberately has no series.
macro_rules! fold {
    ($out:expr, $prefix:literal, $l:expr, $ty:ident { $(
        $field:ident $(: $pat:pat)? $(=> $metric:literal $(. $conv:ident ())? $(per $each:expr)?)?
    ),* $(,)? } = $val:expr) => {
        let $ty { $($field $(: $pat)?),* } = $val;
        $($( fold!(@row $out, concat!($prefix, $metric), $l, $field $(, . $conv)? $(, $each)?); )?)*
    };
    (@row $out:expr, $stem:expr, $l:expr, $field:ident) => { put($out, $stem, $l, *$field) };
    (@row $out:expr, $stem:expr, $l:expr, $field:ident, . $conv:ident) => {
        put($out, $stem, $l, $field.$conv())
    };
    (@row $out:expr, $stem:expr, $l:expr, $field:ident, $each:expr) => {
        for (labels, v) in $each.iter().zip($field) {
            put($out, $stem, labels, *v);
        }
    };
}

/// A rendered one-label set, `{key="value"}`.
fn label(key: &str, value: impl std::fmt::Display) -> String {
    format!("{{{key}=\"{value}\"}}")
}

/// Push `umzi_<stem><labels>` into the snapshot being extended. The naming
/// rule is the typing rule: a stem ending in `_total` is a counter, anything
/// else a gauge.
fn put(out: &mut MetricsSnapshot, stem: &str, labels: &str, v: impl TryInto<u64>) {
    let name = format!("umzi_{stem}{labels}");
    let v = v.try_into().unwrap_or(u64::MAX);
    if stem.ends_with("_total") {
        out.push_counter(name, v);
    } else {
        out.push_gauge(name, v.min(i64::MAX as u64) as i64);
    }
}

fn fold_storage(out: &mut MetricsSnapshot, s: &StorageStats) {
    // Per-op-class series: retry breakdown and circuit-breaker state
    // (0=closed, 1=open, 2=half-open).
    let ops = OpClass::ALL.map(|c| label("op", c.label()));
    fold!(out, "storage_", "", StorageStats {
        mem,
        ssd,
        shared,
        decoded,
        chunk_reads => "chunk_reads_total",
        ssd_charged_latency => "ssd_charged_latency_nanos_total" .as_nanos(),
        retries => "retries_total",
        retries_exhausted => "retries_exhausted_total",
        retries_by_class => "class_retries_total" per &ops,
        retries_exhausted_by_class => "class_retries_exhausted_total" per &ops,
        deadline_aborted_retries => "deadline_aborted_retries_total",
        cancelled_retries => "cancelled_retries_total",
        gc_delete_failures => "gc_delete_failures_total",
        gc_leaked_outstanding => "gc_leaked_outstanding",
        gc_leaked_reclaimed => "gc_leaked_reclaimed_total",
        breaker_state => "breaker_state" per &ops,
        breaker_transitions => "breaker_transitions_total" per &ops,
        breaker_rejections => "breaker_rejections_total" per &ops,
        corruption_refetches => "corruption_refetches_total",
        blocks_prefetched => "blocks_prefetched_total",
        prefetch_hits => "prefetch_hits_total",
        prefetch_wasted => "prefetch_wasted_total",
    } = s);
    for (tier, t) in [("mem", mem), ("ssd", ssd)] {
        fold!(out, "storage_tier_", &label("tier", tier), TierStats {
            hits => "hits_total",
            misses => "misses_total",
            insertions => "insertions_total",
            evictions => "evictions_total",
            bytes_read => "bytes_read_total",
            bytes_written => "bytes_written_total",
            used_bytes => "used_bytes",
            pinned_bytes => "pinned_bytes",
            entries => "entries",
        } = t);
    }
    fold!(out, "storage_shared_", "", SharedStats {
        reads => "reads_total",
        writes => "writes_total",
        deletes => "deletes_total",
        bytes_read => "bytes_read_total",
        bytes_written => "bytes_written_total",
        charged_latency => "charged_latency_nanos_total" .as_nanos(),
    } = shared);
    // `hits` / `misses` are the sums of the per-pattern series.
    fold!(out, "cache_", "", DecodedCacheStats {
        hits: _, misses: _,
        point,
        scan,
        maintenance: maint,
        insertions => "insertions_total",
        evictions => "evictions_total",
        // Always 0 (see `DecodedCacheStats`): no series.
        admission_rejected: _,
        promotions => "promotions_total",
        demotions => "demotions_total",
        bypassed_inserts => "bypassed_inserts_total",
        entries => "entries",
        used_bytes => "used_bytes",
        probation_bytes => "probation_bytes",
        protected_bytes => "protected_bytes",
        decoded_bytes => "decoded_bytes_total",
    } = decoded);
    for (pattern, c) in [("point", point), ("scan", scan), ("maintenance", maint)] {
        fold!(out, "cache_", &label("pattern", pattern), PatternCounters {
            hits => "hits_total",
            misses => "misses_total",
        } = c);
    }
}

fn fold_shard(out: &mut MetricsSnapshot, shard: usize, s: &IndexStats) {
    // `watermarks[z]` is the boundary above zone `z`, so it zips one
    // short of the zone list.
    let zones: Vec<String> = (0..s.runs_per_zone.len())
        .map(|zone| format!("{{shard=\"{shard}\",zone=\"{zone}\"}}"))
        .collect();
    fold!(out, "index_", &label("shard", shard), IndexStats {
        runs_per_zone => "runs" per &zones,
        runs_per_level,
        entries_per_zone => "zone_entries" per &zones,
        total_entries => "entries",
        builds => "builds_total",
        merges => "merges_total",
        evolves => "evolves_total",
        gc_runs => "gc_runs_total",
        merge_conflicts => "merge_conflicts_total",
        // Always 0 (see `IndexStats`): no series.
        parallel_scans: _, scan_partitions: _,
        watermarks => "watermark" per &zones,
        indexed_psn => "indexed_psn",
        cached_level => "cached_level",
        graveyard => "graveyard",
    } = s);
    for (level, runs) in runs_per_level {
        let labels = format!("{{shard=\"{shard}\",level=\"{level}\"}}");
        put(out, "index_level_runs", &labels, *runs);
    }
}

fn fold_maintenance(out: &mut MetricsSnapshot, m: &MaintenanceStats) {
    let kinds = JobKind::ALL.map(|k| label("kind", k.label()));
    // `degraded` is exported once, as `umzi_health_degraded`.
    fold!(out, "daemon_", "", MaintenanceStats {
        per_kind,
        queue_depth => "queue_depth",
        peak_queue_depth => "peak_queue_depth",
        dedup_hits => "dedup_hits_total",
        enqueued => "enqueued_total",
        workers => "workers",
        backpressure,
        quarantined_now => "quarantined_now",
        degraded: _,
        quarantined_jobs: _,
        peak_dequeue_age => "job_peak_dequeue_age" per &kinds,
    } = m);
    for (kind, k) in per_kind {
        fold!(out, "daemon_job_", &label("kind", kind.label()), JobKindStats {
            runs => "runs_total",
            no_work => "no_work_total",
            failures => "failures_total",
            retries => "retries_total",
            quarantined => "quarantined_total",
            items_moved => "items_moved_total",
            bytes_moved => "bytes_moved_total",
            busy_nanos => "busy_nanos_total",
        } = k);
    }
    fold!(out, "backpressure_", "", BackpressureStats {
        stalls => "stalls_total",
        stall_nanos => "stall_nanos_total",
        stalled => "stalled",
        timeouts => "timeouts_total",
    } = backpressure);
}

fn fold_health(out: &mut MetricsSnapshot, h: &EngineHealth) {
    // Ten fields restate a number another struct already exports; two
    // names for one number is what this module exists to prevent.
    fold!(out, "health_", "", EngineHealth {
        // = umzi_storage_{retries,retries_exhausted,corruption_refetches,
        //   gc_delete_failures}_total and umzi_storage_gc_leaked_outstanding
        storage_retries: _, storage_retries_exhausted: _, corruption_refetches: _,
        gc_delete_failures: _, gc_leaked_outstanding: _,
        // = the registry's own umzi_query_{timeouts,cancellations}_total
        query_timeouts: _, query_cancellations: _,
        // Always 0 (see `EngineHealth`): no series.
        query_sheds: _,
        // = umzi_daemon_quarantined_now, umzi_backpressure_{timeouts_total,stalled}
        quarantined_jobs: _, backpressure_timeouts: _, ingest_stalled: _,
        maintenance_retries => "maintenance_retries_total",
        degraded => "degraded",
        breaker_tripped => "breaker_tripped",
        fault,
    } = h);
    let Some(fault) = fault else { return };
    let classes = FaultOp::ALL.map(|op| label("op", op.label()));
    fold!(out, "fault_", "", FaultStats {
        ops => "class_ops_total" per &classes,
        injected => "class_injected_total" per &classes,
        torn_writes => "torn_writes_total",
        bit_flips => "bit_flips_total",
        rejected_while_crashed => "rejected_while_crashed_total",
        crashed => "crashed",
    } = fault);
    put(out, "fault_injected_total", "", fault.total_injected());
}

impl TelemetrySnapshot {
    /// The single export form: the registry snapshot plus every domain
    /// value (storage, shards, daemon, health, fault injection)
    /// as `umzi_*` counters and gauges, sorted by name.
    pub fn folded(&self) -> MetricsSnapshot {
        let mut out = self.metrics.clone();
        put(&mut out, "slow_queries", "", self.slow_queries.len());
        let evicted = self.slow_queries_evicted;
        put(&mut out, "slow_queries_evicted_total", "", evicted);
        fold_storage(&mut out, &self.storage);
        for (i, s) in self.shards.iter().enumerate() {
            fold_shard(&mut out, i, s);
        }
        if let Some(m) = &self.maintenance {
            fold_maintenance(&mut out, m);
        }
        fold_health(&mut out, &self.health);
        out.sort();
        out
    }

    /// Render [`Self::folded`] in the Prometheus text exposition format
    /// (histograms in the summary convention).
    pub fn to_prometheus(&self) -> String {
        telemetry::to_prometheus(&self.folded())
    }

    /// Render the snapshot as one JSON object:
    /// `{"metrics":{"counters":{…},"gauges":{…},"histograms":{…}},
    /// "slow_queries":[…],"slow_queries_evicted":n}`. `metrics` is
    /// [`Self::folded`], keyed by the same series names Prometheus shows.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"metrics\":{},\"slow_queries\":{},\"slow_queries_evicted\":{}}}",
            telemetry::to_json(&self.folded()),
            telemetry::traces_to_json(&self.slow_queries),
            self.slow_queries_evicted
        )
    }

    /// The histogram snapshot registered under `name` (exact registry key,
    /// including inline labels), if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.histogram(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Freshness};
    use crate::table::iot_table;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use umzi_core::ReconcileStrategy;
    use umzi_encoding::Datum;
    use umzi_run::SortBound;
    use umzi_storage::TieredStorage;

    fn loaded_engine() -> Arc<WildfireEngine> {
        let storage = Arc::new(TieredStorage::in_memory());
        let e = WildfireEngine::create(
            storage,
            Arc::new(iot_table()),
            EngineConfig {
                n_shards: 2,
                maintenance: None,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for d in 0..6i64 {
            for m in 0..40i64 {
                e.upsert(vec![
                    Datum::Int64(d),
                    Datum::Int64(m),
                    Datum::Int64(100),
                    Datum::Int64(d * 100 + m),
                ])
                .unwrap();
            }
        }
        e.quiesce().unwrap();
        for d in 0..6i64 {
            e.get(&[Datum::Int64(d)], &[Datum::Int64(3)], Freshness::Latest)
                .unwrap()
                .unwrap();
        }
        e.scan_index(
            vec![Datum::Int64(1)],
            SortBound::Unbounded,
            SortBound::Unbounded,
            Freshness::Latest,
            ReconcileStrategy::PriorityQueue,
        )
        .unwrap();
        e
    }

    #[test]
    fn snapshot_covers_every_domain() {
        let e = loaded_engine();
        let snap = e.telemetry();

        // Query domain: the instrumented paths recorded latencies.
        let point = snap
            .histogram("umzi_query_duration_nanos{op=\"point_lookup\"}")
            .expect("point-lookup histogram registered");
        assert!(point.count() >= 6, "one sample per get: {}", point.count());
        assert!(point.p50() > 0 && point.p99() >= point.p50());
        let scan = snap
            .histogram("umzi_query_duration_nanos{op=\"range_scan_seq\"}")
            .expect("range-scan histogram registered");
        assert!(scan.count() >= 1);
        let ingest = snap
            .histogram("umzi_ingest_duration_nanos")
            .expect("ingest histogram registered");
        assert!(ingest.count() >= 240, "one sample per upsert");

        // Storage and cache domains.
        assert!(snap.storage.chunk_reads > 0);
        assert!(snap.storage.decoded.decoded_bytes > 0);
        // Index domain: both shards report structure.
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(
            snap.shards.iter().map(|s| s.total_entries).sum::<u64>(),
            240
        );
        // No daemon in this configuration.
        assert!(snap.maintenance.is_none());
    }

    /// An engine whose snapshot has every optional domain populated: a
    /// running daemon and a fault-injecting (but fault-free) store.
    fn fully_equipped_engine() -> (Arc<WildfireEngine>, crate::EngineDaemons) {
        use umzi_storage::{
            FaultInjectingStore, FaultPlan, InMemoryObjectStore, LatencyModel, ObjectStore,
            SharedStorage, TieredConfig,
        };
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryObjectStore::new());
        let faulty: Arc<dyn ObjectStore> =
            Arc::new(FaultInjectingStore::new(inner, FaultPlan::none()));
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::new(faulty, LatencyModel::off()),
            TieredConfig::default(),
        ));
        let config = EngineConfig {
            n_shards: 1,
            ..EngineConfig::default()
        };
        let e = WildfireEngine::create(storage, Arc::new(iot_table()), config).unwrap();
        let daemons = e.start_daemons();
        e.upsert(vec![
            Datum::Int64(1),
            Datum::Int64(1),
            Datum::Int64(100),
            Datum::Int64(7),
        ])
        .unwrap();
        e.quiesce().unwrap();
        (e, daemons)
    }

    /// The series names of a Prometheus rendering (labels kept), checking
    /// on the way that every line is `name[{labels}] value`.
    fn series_names(prom: &str) -> Vec<String> {
        prom.lines()
            .map(|line| {
                let (name, value) = line.rsplit_once(' ').expect("name value");
                value.parse::<i64>().expect("integer sample");
                name.to_string()
            })
            .collect()
    }

    /// Collapse the summary expansion back to registry keys: drop the
    /// `quantile` label, and fold `x_sum` / `x_count` into `x` when `x` is a
    /// histogram (i.e. has quantile series).
    fn collapse_histograms(series: &[String]) -> BTreeSet<String> {
        let strip_quantile = |s: &str| -> Option<String> {
            let q = s.find("quantile=\"")?;
            let end = q + s[q..].find("\"}").expect("quantile is the last label") + 1;
            let mut out = format!("{}{}", &s[..q], &s[end..]);
            out = out.replace(",}", "}").replace("{}", "");
            Some(out)
        };
        let hists: BTreeSet<String> = series.iter().filter_map(|s| strip_quantile(s)).collect();
        let mut out = hists.clone();
        for s in series.iter().filter(|s| !s.contains("quantile=\"")) {
            let (base, labels) = s.split_at(s.find('{').unwrap_or(s.len()));
            let folded = ["_sum", "_count"]
                .iter()
                .filter_map(|suffix| base.strip_suffix(suffix))
                .map(|b| format!("{b}{labels}"))
                .find(|name| hists.contains(name));
            out.insert(folded.unwrap_or_else(|| s.clone()));
        }
        out
    }

    /// The keys of `{"metrics":{"counters":{..},"gauges":{..},"histograms":{..}}`
    /// in a `to_json()` rendering, unescaped. A deliberately small scanner:
    /// a key is a string at object depth 3 followed by `:`.
    fn metric_keys_in_json(json: &str) -> Vec<String> {
        let metrics_end = json
            .find(",\"slow_queries\":")
            .expect("slow_queries member");
        let body = &json[..metrics_end];
        assert!(body.starts_with("{\"metrics\":{\"counters\":{"));
        let (mut keys, mut depth, mut chars) = (Vec::new(), 0usize, body.chars().peekable());
        while let Some(c) = chars.next() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                '"' => {
                    let mut s = String::new();
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => s.push(chars.next().expect("escaped char")),
                            '"' => break,
                            c => s.push(c),
                        }
                    }
                    if depth == 3 && chars.peek() == Some(&':') {
                        keys.push(s);
                    }
                }
                _ => {}
            }
        }
        keys
    }

    fn assert_no_repeats(what: &str, names: &[String]) {
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{what} repeats a series name");
    }

    /// Prometheus/JSON parity by construction: both renderings carry the
    /// same set of series (summary expansions collapsed), each exactly once.
    #[test]
    fn renderings_carry_the_same_series() {
        let (e, daemons) = fully_equipped_engine();
        let snap = e.telemetry();
        daemons.shutdown();

        let prom_text = snap.to_prometheus();
        let prom = series_names(&prom_text);
        assert_no_repeats("to_prometheus()", &prom);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        let keys = metric_keys_in_json(&json);
        assert_no_repeats("to_json()", &keys);
        let keys: BTreeSet<String> = keys.into_iter().collect();
        assert_eq!(collapse_histograms(&prom), keys);

        // Fields no exporter carried before this fold existed now appear
        // (in both renderings, by the equality above).
        for name in [
            "umzi_storage_tier_insertions_total{tier=\"mem\"}",
            "umzi_storage_tier_pinned_bytes{tier=\"ssd\"}",
            "umzi_storage_tier_entries{tier=\"mem\"}",
            "umzi_storage_shared_deletes_total",
            "umzi_storage_shared_charged_latency_nanos_total",
            "umzi_storage_ssd_charged_latency_nanos_total",
            "umzi_index_level_runs{shard=\"0\",level=\"",
            "umzi_index_zone_entries{shard=\"0\",zone=\"0\"}",
            "umzi_index_watermark{shard=\"0\",zone=\"0\"}",
            "umzi_index_cached_level{shard=\"0\"}",
            "umzi_daemon_job_peak_dequeue_age{kind=\"groom\"}",
            "umzi_fault_class_ops_total{op=\"put\"}",
            "umzi_fault_class_injected_total{op=\"get\"}",
        ] {
            assert!(keys.iter().any(|k| k.starts_with(name)), "missing {name}");
        }
        // Typed fields and rendered series are the same numbers.
        let rendered = |name: &str| {
            let value = prom_text.lines().find_map(|l| l.strip_prefix(name));
            value.unwrap().parse::<u64>().unwrap()
        };
        assert_eq!(
            rendered("umzi_storage_chunk_reads_total "),
            snap.storage.chunk_reads
        );
        assert_eq!(
            rendered("umzi_index_entries{shard=\"0\"} "),
            snap.shards[0].total_entries
        );
        assert_eq!(rendered("umzi_health_degraded "), 0);
    }

    /// The compatibility promise: every series in the golden list is still
    /// emitted under the same name and labels. The list is what the exporter
    /// emitted at `fe07704` minus the six series of the deleted read
    /// admission and the three of the deleted cache admission filter;
    /// those, the series of the deleted partitioned scan and the ten
    /// `umzi_health_*` aliases of numbers exported elsewhere must stay
    /// gone.
    #[test]
    fn parent_series_names_survive() {
        let (e, daemons) = fully_equipped_engine();
        let prom = series_names(&e.telemetry().to_prometheus());
        daemons.shutdown();
        let prom: BTreeSet<&str> = prom.iter().map(String::as_str).collect();

        let golden = include_str!("../tests/data/series_at_fe07704.txt");
        assert_eq!(golden.lines().count(), 237, "golden list truncated");
        for name in golden.lines() {
            assert!(prom.contains(name), "series {name} disappeared");
        }
        for alias in [
            "umzi_query_sheds_total",
            "umzi_admission_admitted_total",
            "umzi_admission_shed_total",
            "umzi_admission_running",
            "umzi_admission_queued",
            "umzi_admission_avg_scan_nanos",
            "umzi_cache_admission_rejected_total",
            "umzi_cache_sketch_halvings_total",
            "umzi_cache_sketch_occupancy",
            "umzi_query_duration_nanos_count{op=\"range_scan_partitioned\"}",
            "umzi_index_parallel_scans_total{shard=\"0\"}",
            "umzi_index_scan_partitions_total{shard=\"0\"}",
            "umzi_health_storage_retries_total",
            "umzi_health_storage_retries_exhausted_total",
            "umzi_health_corruption_refetches_total",
            "umzi_health_gc_delete_failures_total",
            "umzi_health_gc_leaked_outstanding",
            "umzi_health_query_timeouts_total",
            "umzi_health_query_cancellations_total",
            "umzi_health_query_sheds_total",
            "umzi_health_quarantined_jobs",
            "umzi_health_ingest_stalled",
        ] {
            assert!(!prom.contains(alias), "series {alias} is back");
        }
    }

    #[test]
    fn disabled_telemetry_records_nothing_new() {
        let storage = Arc::new(TieredStorage::in_memory());
        storage.telemetry().set_enabled(false);
        let e = WildfireEngine::create(
            storage,
            Arc::new(iot_table()),
            EngineConfig {
                n_shards: 1,
                maintenance: None,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        e.upsert(vec![
            Datum::Int64(1),
            Datum::Int64(1),
            Datum::Int64(100),
            Datum::Int64(7),
        ])
        .unwrap();
        e.quiesce().unwrap();
        e.get(&[Datum::Int64(1)], &[Datum::Int64(1)], Freshness::Latest)
            .unwrap()
            .unwrap();
        let snap = e.telemetry();
        for (name, h) in &snap.metrics.histograms {
            assert_eq!(h.count(), 0, "{name} recorded while disabled");
        }
        // Domain stats still fold: counters are orthogonal to the switch.
        assert!(snap.storage.chunk_reads > 0);
    }
}
