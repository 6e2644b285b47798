//! Telemetry coverage: drive every instrumented operation class through a
//! real engine under daemon churn, then require that every registered
//! latency histogram recorded samples — the regression this guards against
//! is an instrumentation site silently falling off a refactored code path —
//! and that the Prometheus rendering names no series twice.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use umzi::prelude::*;
use umzi::storage::{context, DecodedCacheConfig, QueryContext, TelemetryConfig};

const INGEST_CYCLES: u64 = 40;
const INGEST_BATCH: u64 = 500;

fn key_row(k: u64) -> Vec<Datum> {
    vec![
        Datum::Int64((k % 100) as i64),
        Datum::Int64((k / 100) as i64),
        Datum::Int64(20190326 + (k % 7) as i64),
        Datum::Int64(k as i64),
    ]
}

fn key_probe(k: u64) -> (Vec<Datum>, Vec<Datum>) {
    (
        vec![Datum::Int64((k % 100) as i64)],
        vec![Datum::Int64((k / 100) as i64)],
    )
}

/// Drive the readahead path on an auxiliary index sharing the engine's
/// storage (and therefore its telemetry handle): a cold multi-block scan
/// off shared storage is what fills `prefetch_batch` and `readahead_depth`,
/// and the engine's own per-device scans are too short to be sure of one.
fn drive_cold_readahead_scan(storage: &Arc<TieredStorage>) {
    let mut config = UmziConfig::two_zone("telemetry-coverage-scan");
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    let preset = IndexPreset::I1;
    let idx = UmziIndex::create(Arc::clone(storage), preset.def(), config).unwrap();
    // Four runs of 2000 keys, all under one equality value, so the
    // whole-range scan below covers every block of every run.
    for r in 0..4u64 {
        let ts_base = (r + 1) * 2_000;
        let entries = (0..2_000u32)
            .map(|i| {
                let k = r * 2_000 + i as u64;
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(0)],
                    &[Datum::Int64(k as i64)],
                    ts_base + i as u64,
                    Rid::new(ZoneId::GROOMED, ts_base, i),
                    &preset.included_of(k),
                )
                .unwrap()
            })
            .collect();
        idx.build_groomed_run(entries, r + 1, r + 1).unwrap();
    }
    // Drop every run's data chunks from the local tiers, so the scan pays
    // the shared-storage path.
    for zone in idx.zones() {
        for run in zone.list.snapshot() {
            idx.storage().purge_object(run.handle()).unwrap();
        }
    }
    let whole = RangeQuery {
        equality: vec![Datum::Int64(0)],
        lower: SortBound::Unbounded,
        upper: SortBound::Unbounded,
        query_ts: u64::MAX,
    };
    let rows = idx
        .range_scan(&whole, ReconcileStrategy::PriorityQueue)
        .unwrap();
    assert_eq!(rows.len(), 8_000);
}

/// A `scan_records` pinned to one shard takes its RIDs straight from the
/// merge, with no index outputs built; it must still be traced as the one
/// range scan it is: one `range_scan_seq` duration and one slow-query
/// record (the threshold is zero). Run with the daemons stopped, so no
/// other operation lands in the log.
fn scan_records_is_traced_once_per_shard_scanned(engine: &WildfireEngine) {
    let traced = || {
        let snap = engine.telemetry();
        let scans = snap
            .histogram("umzi_query_duration_nanos{op=\"range_scan_seq\"}")
            .map_or(0, |h| h.count());
        let logged = snap.slow_queries.len() as u64 + snap.slow_queries_evicted;
        (scans, logged, snap.slow_queries.last().map(|r| r.op))
    };
    let (scans, logged, _) = traced();
    let rows = engine
        .scan_records(
            vec![Datum::Int64(7)],
            SortBound::Unbounded,
            SortBound::Unbounded,
            Freshness::Latest,
        )
        .unwrap();
    assert!(!rows.is_empty(), "device 7 has rows");
    let (scans_after, logged_after, last) = traced();
    assert_eq!(
        scans_after - scans,
        1,
        "one range_scan_seq per shard scanned"
    );
    assert_eq!(
        logged_after - logged,
        1,
        "one slow-query record per shard scanned"
    );
    assert_eq!(last, Some("range_scan_seq"));
}

#[test]
fn every_histogram_is_fed_and_every_series_named_once() {
    // Tiers small enough that reads spill past RAM and SSD to shared
    // storage — otherwise `block_fetch` never fires on an in-memory run.
    // The RAM tier's budget is both fields' sum: 256 KiB.
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            mem_capacity: 256 << 10,
            ssd_capacity: 512 << 10,
            decoded_cache: DecodedCacheConfig { capacity_bytes: 0 },
            ..TieredConfig::default()
        },
    ));
    // Threshold zero: every query lands in the slow-query log.
    storage.telemetry().configure(&TelemetryConfig {
        enabled: true,
        slow_query_threshold: Duration::ZERO,
        slow_query_log_len: 64,
    });

    let mut shard = ShardConfig::default();
    shard.umzi.merge = MergePolicy { k: 4, t: 4 };
    let engine = WildfireEngine::create(
        Arc::clone(&storage),
        Arc::new(iot_table()),
        EngineConfig {
            n_shards: 2,
            shard,
            groom_interval: Duration::from_millis(10),
            post_groom_interval: Duration::from_millis(30),
            groom_trigger_rows: 500,
            maintenance: Some(MaintenanceConfig {
                workers: 2,
                janitor_interval: Duration::from_millis(25),
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            }),
        },
    )
    .unwrap();
    let daemons = engine.start_daemons();

    // Churn: ingest batches alternating with a per-device scan or a batch
    // lookup over the keys so far, and a point get every cycle, while the
    // daemon grooms/merges/evolves/retires underneath.
    let mut rng = StdRng::seed_from_u64(42);
    for cycle in 0..INGEST_CYCLES {
        let keys = cycle * INGEST_BATCH..(cycle + 1) * INGEST_BATCH;
        engine
            .upsert_many(keys.clone().map(key_row).collect())
            .unwrap();
        if cycle % 2 == 0 {
            std::hint::black_box(
                engine
                    .scan_index(
                        vec![Datum::Int64(rng.random_range(0..100))],
                        SortBound::Unbounded,
                        SortBound::Unbounded,
                        Freshness::Latest,
                        ReconcileStrategy::PriorityQueue,
                    )
                    .unwrap(),
            );
        } else {
            let probes: Vec<_> = (0..64)
                .map(|_| key_probe(rng.random_range(0..keys.end)))
                .collect();
            for s in engine.shards() {
                std::hint::black_box(s.index().batch_lookup(&probes, s.read_ts()).unwrap());
            }
        }
        let (eq, sort) = key_probe(keys.end - 1);
        std::hint::black_box(engine.get(&eq, &sort, Freshness::Latest).unwrap());
    }

    drive_cold_readahead_scan(&storage);

    // Let the daemon drain so every job kind has executed (idle retire and
    // evolve pokes are recorded too), then snapshot while it is still
    // attached.
    if let Some(d) = daemons.daemon() {
        d.wait_idle(Duration::from_secs(30));
    }
    std::thread::sleep(Duration::from_millis(100)); // one more janitor tick

    // One lookup under an already-expired deadline, for the overshoot
    // histogram: the engine's entry checkpoint turns the dead deadline into
    // the typed error.
    let (eq, sort) = key_probe(0);
    let expired = {
        let _g = context::enter(QueryContext::with_deadline(Duration::ZERO));
        engine.get(&eq, &sort, Freshness::Latest)
    };
    assert!(
        matches!(&expired, Err(e) if e.is_deadline_exceeded()),
        "get under an expired deadline: expected DeadlineExceeded, got {expired:?}"
    );
    let snap = engine.telemetry();
    daemons.shutdown();
    scan_records_is_traced_once_per_shard_scanned(&engine);

    let mut empty = Vec::new();
    for (name, h) in &snap.metrics.histograms {
        eprintln!(
            "{:<55} count={:<7} p50={:<9} p99={}",
            name,
            h.count(),
            h.p50(),
            h.p99()
        );
        if h.count() == 0 {
            empty.push(name);
        }
    }
    assert!(empty.is_empty(), "histograms with zero samples: {empty:?}");
    for name in [
        "umzi_query_duration_nanos{op=\"point_lookup\"}",
        "umzi_query_duration_nanos{op=\"range_scan_seq\"}",
        "umzi_job_duration_nanos{kind=\"groom\"}",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name}: not registered"));
        assert!(
            h.p50() > 0 && h.p99() >= h.p50(),
            "{name}: degenerate quantiles p50={} p99={}",
            h.p50(),
            h.p99()
        );
    }
    assert!(
        !snap.slow_queries.is_empty(),
        "slow-query log empty despite zero threshold"
    );

    let prom = snap.to_prometheus();
    assert!(
        prom.contains("umzi_query_duration_nanos{op=\"point_lookup\",quantile=\"0.5\"}"),
        "prometheus export missing point-lookup quantiles"
    );
    // One name, one number: the fold must never say a series twice.
    let mut seen = BTreeSet::new();
    for line in prom.lines() {
        let name = line.rsplit_once(' ').map_or(line, |(name, _)| name);
        assert!(seen.insert(name), "prometheus export repeats series {name}");
    }
}
