//! Telemetry smoke check: drive every instrumented operation class through
//! a real engine under daemon churn, dump the unified snapshot as a JSON
//! artifact, and fail loudly if any registered latency histogram recorded
//! zero samples — the regression this guards against is an instrumentation
//! site silently falling off a refactored code path — or if the Prometheus
//! rendering names the same series twice.
//!
//! Run with `cargo run --release -p umzi-bench --bin telemetry_smoke`.
//! Writes `TELEMETRY_smoke.json` (override with `UMZI_TELEMETRY_SMOKE_OUT`).
//! Exits non-zero when coverage is incomplete.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use umzi_core::{
    MaintenanceConfig, MergePolicy, RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex,
};
use umzi_encoding::Datum;
use umzi_run::SortBound;
use umzi_storage::{
    context, QueryContext, SharedStorage, TelemetryConfig, TieredConfig, TieredStorage,
};
use umzi_wildfire::{iot_table, EngineConfig, Freshness, ShardConfig, WildfireEngine};
use umzi_workload::{IndexPreset, MixedConfig, MixedOp, MixedWorkload};

const INGEST_CYCLES: usize = 40;

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

/// Drop every run of `idx` from the local tiers and the decoded cache, so
/// the next read of its data pays the shared-storage path.
fn purge_runs(idx: &UmziIndex) {
    for zone in idx.zones() {
        for run in zone.list.snapshot() {
            // Non-persisted runs have no other home and refuse the purge.
            let _ = idx.storage().purge_object(run.handle());
        }
    }
}

/// Drive the readahead path on an auxiliary index sharing the engine's
/// storage (and therefore its telemetry handle): a cold multi-block scan
/// off shared storage is what fills `prefetch_batch` and `readahead_depth`,
/// and the engine's own per-device scans are too short to be sure of one.
fn drive_cold_readahead_scan(storage: &Arc<TieredStorage>) {
    let mut config = UmziConfig::two_zone("telemetry-smoke-scan");
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    let idx = UmziIndex::create(Arc::clone(storage), IndexPreset::I1.def(), config)
        .expect("create aux index");
    // `scan_workload: true` puts every key under one device, so the
    // whole-range scan below covers all 4 runs × 2000 rows.
    umzi_bench::ingest_runs(
        &idx,
        IndexPreset::I1,
        umzi_workload::KeyDist::Random,
        4,
        2_000,
        true,
        3,
    );
    let whole = RangeQuery {
        equality: vec![Datum::Int64(0)],
        lower: SortBound::Unbounded,
        upper: SortBound::Unbounded,
        query_ts: u64::MAX,
    };
    purge_runs(&idx);
    std::hint::black_box(
        idx.range_scan(&whole, ReconcileStrategy::PriorityQueue)
            .expect("cold readahead scan"),
    );
}

fn main() {
    // Tiers small enough that reads spill past memory and SSD to shared
    // storage — otherwise `block_fetch` never fires on an in-memory run.
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            mem_capacity: 256 << 10,
            ssd_capacity: 512 << 10,
            ..TieredConfig::default()
        },
    ));

    // Threshold zero: every query lands in the slow-query log, so the
    // artifact demonstrates trace capture without needing a slow machine.
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
    .expect("create engine");
    let daemons = engine.start_daemons();

    // Mixed churn: ingest batches interleaved with per-device scans, batch
    // lookups, and point gets, while the daemon grooms/merges/evolves/
    // retires underneath.
    let mut stream = MixedWorkload::new(
        MixedConfig {
            ingest_batch: 500,
            lookup_batch: 64,
            scans_per_ingest: 0.5,
            lookups_per_ingest: 0.5,
            ..MixedConfig::default()
        },
        42,
    );
    let mut ingests = 0usize;
    let mut first_key = None;
    let mut last_key = 0u64;
    while ingests < INGEST_CYCLES {
        match stream.next_op() {
            MixedOp::IngestBatch(batch) => {
                first_key = first_key.or(batch.first().map(|&(k, _)| k));
                last_key = batch.last().map(|&(k, _)| k).unwrap_or(last_key);
                let rows: Vec<Vec<Datum>> = batch.iter().map(|&(k, _)| key_row(k)).collect();
                engine.upsert_many(rows).expect("upsert");
                ingests += 1;
            }
            MixedOp::ScanDevice(d) => {
                std::hint::black_box(
                    engine
                        .scan_index(
                            vec![Datum::Int64((d % 100) as i64)],
                            SortBound::Unbounded,
                            SortBound::Unbounded,
                            Freshness::Latest,
                            ReconcileStrategy::PriorityQueue,
                        )
                        .expect("scan"),
                );
            }
            MixedOp::LookupBatch(keys) => {
                let probes: Vec<_> = keys.iter().map(|&k| key_probe(k)).collect();
                for s in engine.shards() {
                    std::hint::black_box(
                        s.index()
                            .batch_lookup(&probes, s.read_ts())
                            .expect("batch lookup"),
                    );
                }
            }
        }
        // Point gets ride along every cycle.
        let (eq, sort) = key_probe(last_key);
        std::hint::black_box(engine.get(&eq, &sort, Freshness::Latest).expect("get"));
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
    let mut failures: Vec<String> = Vec::new();
    let (eq, sort) = key_probe(first_key.expect("at least one ingest batch"));
    let expired = {
        let _g = context::enter(QueryContext::with_deadline(Duration::ZERO));
        engine.get(&eq, &sort, Freshness::Latest)
    };
    match expired {
        Err(e) if e.is_deadline_exceeded() => {}
        other => failures.push(format!(
            "get under an expired deadline: expected DeadlineExceeded, got {other:?}"
        )),
    }
    let snap = engine.telemetry();
    daemons.shutdown();

    let out_path = std::env::var("UMZI_TELEMETRY_SMOKE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../TELEMETRY_smoke.json").to_string()
    });
    std::fs::write(&out_path, snap.to_json()).expect("write telemetry artifact");
    eprintln!("wrote {out_path}");

    // Coverage gate: every registered histogram must have samples.
    eprintln!("\n== telemetry_smoke coverage ==");
    for (name, h) in &snap.metrics.histograms {
        eprintln!(
            "{:<55} count={:<7} p50={:<9} p99={}",
            name,
            h.count(),
            h.p50(),
            h.p99()
        );
        if h.count() == 0 {
            failures.push(format!("histogram {name} recorded zero samples"));
        }
    }
    for name in [
        "umzi_query_duration_nanos{op=\"point_lookup\"}",
        "umzi_query_duration_nanos{op=\"range_scan_seq\"}",
        "umzi_job_duration_nanos{kind=\"groom\"}",
    ] {
        match snap.histogram(name) {
            Some(h) if h.p50() > 0 && h.p99() >= h.p50() => {}
            Some(h) => failures.push(format!(
                "{name}: degenerate quantiles p50={} p99={}",
                h.p50(),
                h.p99()
            )),
            None => failures.push(format!("{name}: not registered")),
        }
    }
    if snap.slow_queries.is_empty() {
        failures.push("slow-query log empty despite zero threshold".into());
    }
    let prom = snap.to_prometheus();
    if !prom.contains("umzi_query_duration_nanos{op=\"point_lookup\",quantile=\"0.5\"}") {
        failures.push("prometheus export missing point-lookup quantiles".into());
    }
    // One name, one number: the fold must never say a series twice.
    let mut seen = BTreeSet::new();
    for line in prom.lines() {
        let name = line.rsplit_once(' ').map_or(line, |(name, _)| name);
        if !seen.insert(name) {
            failures.push(format!("prometheus export repeats series {name}"));
        }
    }

    if failures.is_empty() {
        eprintln!(
            "\ntelemetry smoke OK: {} histograms, {} slow-query records",
            snap.metrics.histograms.len(),
            snap.slow_queries.len()
        );
    } else {
        eprintln!("\ntelemetry smoke FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
