//! Maintenance-daemon stress: concurrent ingest and scans while the worker
//! pool grooms, merges, evolves and retires behind the scenes.
//!
//! Asserts the ISSUE's acceptance properties: (a) queries never surface a
//! dangling RID across evolve, (b) write-path backpressure stalls and then
//! resumes ingest, (c) a graceful shutdown leaves the job queue empty, and
//! full data integrity at the end. (The janitor's retire-without-evolve
//! guarantee is covered deterministically in the shard unit tests.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use umzi::prelude::*;
use umzi_core::ReconcileStrategy;
use umzi_storage::{context, QueryContext};
use umzi_wildfire::WildfireError;

const DEVICES: i64 = 16;

fn row(device: i64, msg: i64) -> Vec<Datum> {
    vec![
        Datum::Int64(device),
        Datum::Int64(msg),
        Datum::Int64(100 + msg % 3),
        Datum::Int64(device * 1_000_000 + msg),
    ]
}

fn stress_config() -> EngineConfig {
    let mut shard = ShardConfig::default();
    // Small K so level-0 merges fire often; the low watermark must stay
    // reachable (K − 1 = 1 runs can remain unmerged).
    shard.umzi.merge = MergePolicy { k: 2, t: 4 };
    EngineConfig {
        n_shards: 2,
        shard,
        groom_interval: Duration::from_millis(10),
        post_groom_interval: Duration::from_millis(50),
        groom_trigger_rows: 32,
        maintenance: Some(MaintenanceConfig {
            workers: 2,
            l0_high_watermark: 6,
            l0_low_watermark: 2,
            throttle: None,
            janitor_interval: Duration::from_millis(15),
            adaptive_cache: false,
        }),
    }
}

/// Readers race the full groom → merge → evolve → retire pipeline and must
/// always see a clean, duplicate-free, ordered view; afterwards a graceful
/// shutdown drains the queue and every committed row is accounted for.
#[test]
fn concurrent_ingest_and_scans_survive_maintenance() {
    let storage = Arc::new(TieredStorage::in_memory());
    let engine = WildfireEngine::create(storage, Arc::new(iot_table()), stress_config()).unwrap();
    let daemons = engine.start_daemons();
    let daemon = Arc::clone(daemons.daemon().expect("maintenance configured"));

    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicU64::new(0));

    let writer = {
        let engine = Arc::clone(&engine);
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            for batch in 0..150i64 {
                let rows: Vec<Vec<Datum>> = (0..20)
                    .map(|i| {
                        let k = batch * 20 + i;
                        row(k % DEVICES, k / DEVICES)
                    })
                    .collect();
                engine.upsert_many(rows).unwrap();
                written.fetch_add(20, Ordering::Release);
                if batch % 8 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
    };

    let mut readers = Vec::new();
    for r in 0..3u64 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Acquire) {
                let device = ((checks + r) % DEVICES as u64) as i64;
                // (a) Full record resolution across evolve: every RID the
                // index hands out must resolve (bounded retry inside).
                let recs = engine
                    .scan_records(
                        vec![Datum::Int64(device)],
                        SortBound::Unbounded,
                        SortBound::Unbounded,
                        Freshness::Latest,
                    )
                    .expect("scan never surfaces a dangling RID");
                // Ordered, duplicate-free view.
                for pair in recs.windows(2) {
                    let (a, b) = (&pair[0].row[1], &pair[1].row[1]);
                    assert!(a < b, "duplicate or out-of-order msg for device {device}");
                }
                // Point path too.
                if let Some(rec) = recs.last() {
                    let msg = rec.row[1].clone();
                    let hit = engine
                        .get(&[Datum::Int64(device)], &[msg], Freshness::Latest)
                        .expect("get never surfaces a dangling RID");
                    assert!(hit.is_some(), "just-scanned record must resolve");
                }
                checks += 1;
            }
            checks
        }));
    }

    writer.join().unwrap();
    // Let the pipeline work a little longer under read load.
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made no progress");
    }

    // (c) Graceful shutdown drains the queue completely.
    daemons.shutdown();
    assert!(daemon.is_idle(), "clean shutdown leaves the queue empty");
    let stats = daemon.stats();
    assert_eq!(stats.queue_depth, 0);
    assert!(
        stats.kind(JobKind::Groom).runs > 0
            && stats.kind(JobKind::Merge).runs > 0
            && stats.kind(JobKind::Evolve).runs > 0,
        "daemon workers did the maintenance: {stats:?}"
    );

    // Integrity: drain the tail synchronously and count everything.
    engine.quiesce().unwrap();
    let total: u64 = (0..DEVICES)
        .map(|d| {
            engine
                .scan_index(
                    vec![Datum::Int64(d)],
                    SortBound::Unbounded,
                    SortBound::Unbounded,
                    Freshness::Latest,
                    ReconcileStrategy::PriorityQueue,
                )
                .unwrap()
                .len() as u64
        })
        .sum();
    assert_eq!(total, written.load(Ordering::Acquire), "no row lost");
}

/// Large scans on two reader threads racing the full groom → merge →
/// evolve → retire pipeline: every iteration must observe a sorted,
/// duplicate-free view with no dangling RIDs.
#[test]
fn parallel_scans_survive_concurrent_maintenance() {
    const SCAN_DEVICES: i64 = 4;
    let mut config = stress_config();
    config.n_shards = 2;
    let storage = Arc::new(TieredStorage::in_memory());
    let engine = WildfireEngine::create(storage, Arc::new(iot_table()), config).unwrap();
    let daemons = engine.start_daemons();

    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicU64::new(0));

    // Few devices × many msgs: every per-device scan merges several runs.
    let writer = {
        let engine = Arc::clone(&engine);
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            for batch in 0..120i64 {
                let rows: Vec<Vec<Datum>> = (0..25)
                    .map(|i| {
                        let k = batch * 25 + i;
                        row(k % SCAN_DEVICES, k / SCAN_DEVICES)
                    })
                    .collect();
                engine.upsert_many(rows).unwrap();
                written.fetch_add(25, Ordering::Release);
                if batch % 10 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
    };

    let mut readers = Vec::new();
    for r in 0..2u64 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Acquire) {
                let device = ((checks + r) % SCAN_DEVICES as u64) as i64;
                // Index-only scan: sorted, duplicate-free logical keys.
                let out = engine
                    .scan_index(
                        vec![Datum::Int64(device)],
                        SortBound::Unbounded,
                        SortBound::Unbounded,
                        Freshness::Latest,
                        ReconcileStrategy::PriorityQueue,
                    )
                    .expect("scan never fails under maintenance");
                for pair in out.windows(2) {
                    assert!(
                        pair[0].key < pair[1].key,
                        "duplicate or unsorted logical key for device {device}"
                    );
                }
                // Full record resolution: every RID the merge hands out
                // must resolve (no dangling RIDs across evolve).
                let recs = engine
                    .scan_records(
                        vec![Datum::Int64(device)],
                        SortBound::Unbounded,
                        SortBound::Unbounded,
                        Freshness::Latest,
                    )
                    .expect("record scan never surfaces a dangling RID");
                for pair in recs.windows(2) {
                    assert!(
                        pair[0].row[1] < pair[1].row[1],
                        "duplicate or out-of-order msg for device {device}"
                    );
                }
                checks += 1;
            }
            checks
        }));
    }

    writer.join().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made no progress");
    }
    daemons.shutdown();

    // Integrity: drain the tail and account for every committed row.
    engine.quiesce().unwrap();
    let total: u64 = (0..SCAN_DEVICES)
        .map(|d| {
            engine
                .scan_index(
                    vec![Datum::Int64(d)],
                    SortBound::Unbounded,
                    SortBound::Unbounded,
                    Freshness::Latest,
                    ReconcileStrategy::PriorityQueue,
                )
                .unwrap()
                .len() as u64
        })
        .sum();
    assert_eq!(total, written.load(Ordering::Acquire), "no row lost");
}

/// Maintenance fairness under a 10x ingest skew: one hot shard keeps a
/// single slowed worker under sustained level-0 merge pressure (its runs
/// are built inline, so real merge work — which outranks grooms — arrives
/// faster than the worker drains it) while the cold shard takes a trickle.
/// The weighted-aging dequeue must still get the cold shard's groom served
/// while the pressure is on, with the level-0 run-count gate armed and each
/// write bounded by a 2 s ambient deadline; no acked row may be lost under
/// it.
#[test]
fn cold_shard_groom_completes_under_hot_merge_pressure() {
    let table = iot_table();
    let shard_of = |device: i64| {
        table.shard_of(
            &[
                Datum::Int64(device),
                Datum::Int64(0),
                Datum::Int64(0),
                Datum::Int64(0),
            ],
            2,
        )
    };
    let hot_dev = (0..100).find(|&d| shard_of(d) == 0).unwrap();
    let cold_dev = (0..100).find(|&d| shard_of(d) == 1).unwrap();

    let mut config = stress_config();
    config.groom_trigger_rows = 64;
    config.groom_interval = Duration::from_millis(10);
    config.maintenance = Some(MaintenanceConfig {
        workers: 1,
        // The inline hot grooms can pile level 0 up faster than the slowed
        // worker merges it; the gate then stalls writers until merges bring
        // it back to K − 1 = 1 runs above the low watermark.
        l0_high_watermark: 8,
        l0_low_watermark: 2,
        // One slowed worker: merge arrivals outpace it, which is exactly
        // the backlog the aging dequeue must let the cold groom overtake.
        throttle: Some(Duration::from_millis(2)),
        janitor_interval: Duration::from_millis(15),
        adaptive_cache: false,
    });
    let storage = Arc::new(TieredStorage::in_memory());
    let engine = WildfireEngine::create(storage, Arc::new(table), config).unwrap();
    let daemons = engine.start_daemons();
    let daemon = Arc::clone(daemons.daemon().expect("maintenance configured"));

    // Hot flood: 10x the cold rate, groomed inline each round, each groom
    // followed by the level-0 merge the daemon's groom job would schedule,
    // so the daemon queue always holds fresh merge work for the hot shard.
    let stop = Arc::new(AtomicBool::new(false));
    let hot_acked = Arc::new(AtomicU64::new(0));
    // A stall that outlives the writer's 2 s budget rejects the batch;
    // rejected rows are not acked and not expected back.
    let upsert_within_2s = |engine: &WildfireEngine, rows| {
        let _g = context::enter(QueryContext::with_deadline(Duration::from_secs(2)));
        engine.upsert_many(rows)
    };
    let flood = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let hot_acked = Arc::clone(&hot_acked);
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            let mut msg = 0i64;
            while !stop.load(Ordering::Acquire) {
                let rows: Vec<Vec<Datum>> = (0..80).map(|i| row(hot_dev, msg + i)).collect();
                match upsert_within_2s(&engine, rows) {
                    Ok(()) => {
                        hot_acked.fetch_add(80, Ordering::Release);
                        msg += 80;
                    }
                    Err(WildfireError::Backpressure { .. }) => {}
                    Err(e) => panic!("hot ingest failed: {e}"),
                }
                if engine.shards()[0]
                    .groom()
                    .expect("inline hot groom")
                    .is_some()
                {
                    daemon.enqueue(Job::Merge { shard: 0, level: 0 });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Cold trickle, polling for the cold shard's groom to land while the
    // flood is still running. FIFO dequeue would leave it behind the hot
    // merge backlog; the aging dequeue must serve it within the deadline.
    // Keep the flood alive until a hot merge has actually *run* — on a
    // fast machine the cold groom can land before the first merge job
    // completes, which would make the pressure assertion below vacuous.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut cold_acked = 0u64;
    let mut cold_msg = 0i64;
    let cold_shard = &engine.shards()[1];
    while cold_shard.groomed_hi() == 0 || daemon.stats().kind(JobKind::Merge).runs == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "cold shard groom starved behind hot merge pressure: {:?}",
            daemon.stats()
        );
        let rows: Vec<Vec<Datum>> = (0..8).map(|i| row(cold_dev, cold_msg + i)).collect();
        match upsert_within_2s(&engine, rows) {
            Ok(()) => {
                cold_acked += 8;
                cold_msg += 8;
            }
            Err(WildfireError::Backpressure { .. }) => {}
            Err(e) => panic!("cold ingest failed: {e}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // The cold groom landed while the flood was live — now wind down.
    stop.store(true, Ordering::Release);
    flood.join().unwrap();
    daemons.shutdown();

    let stats = daemon.stats();
    assert!(
        stats.peak_dequeue_age(JobKind::Groom) > 0,
        "aging dequeue never recorded a groom waiting in the queue: {stats:?}"
    );
    assert!(
        stats.kind(JobKind::Merge).runs > 0,
        "hot flood generated no merge work: {stats:?}"
    );

    // Integrity under the ingest gate: every acked row is countable,
    // whether or not the gate ever stalled (rejected batches were not
    // acked and are excluded above).
    engine.quiesce().unwrap();
    let count = |device: i64| {
        engine
            .scan_index(
                vec![Datum::Int64(device)],
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
                ReconcileStrategy::PriorityQueue,
            )
            .unwrap()
            .len() as u64
    };
    assert_eq!(
        count(hot_dev) + count(cold_dev),
        hot_acked.load(Ordering::Acquire) + cold_acked,
        "acked rows lost under the ingest gate"
    );
}

/// (b) Sustained ingest against a deliberately slowed worker pool must hit
/// the level-0 high watermark, stall, and then resume once merges catch up
/// — and lose nothing in the process.
#[test]
fn backpressure_stalls_and_resumes_ingest() {
    let mut config = stress_config();
    config.groom_trigger_rows = 8;
    // Small groom batches: every groom job produces a run and leaves
    // backlog behind, so level-0 runs keep appearing while the writer is
    // still live.
    config.shard.groom_batch_limit = 64;
    config.maintenance = Some(MaintenanceConfig {
        workers: 1,
        // K = 2 merges fire exactly at 2 sealed runs, so a high watermark
        // of 2 is the tightest reachable stall point (low = K − 1 stays
        // reachable too — the gate can always be relieved).
        l0_high_watermark: 2,
        l0_low_watermark: 1,
        // Slow the lone worker so grooming outruns merging.
        throttle: Some(Duration::from_millis(2)),
        janitor_interval: Duration::from_millis(20),
        adaptive_cache: false,
    });
    config.n_shards = 1;
    let storage = Arc::new(TieredStorage::in_memory());
    let engine = WildfireEngine::create(storage, Arc::new(iot_table()), config).unwrap();
    let daemons = engine.start_daemons();
    let daemon = Arc::clone(daemons.daemon().unwrap());

    // Sustained ingest: keep writing until the gate has demonstrably
    // engaged. A fixed row count would race the throttled worker — job
    // dedup admits at most one queued groom per shard, so a fast writer
    // can finish before two level-0 runs ever coexist. The deadline only
    // bounds a broken gate; a healthy one engages within milliseconds.
    let mut rows: u64 = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while daemon.stats().backpressure.stalls == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "sustained ingest must hit the watermark: {:?}",
            daemon.stats()
        );
        for _ in 0..64 {
            engine
                .upsert(row(rows as i64 % DEVICES, rows as i64 / DEVICES))
                .unwrap();
            rows += 1;
        }
    }
    // Write on through the stall so the resume path is exercised too.
    for _ in 0..10_000 {
        engine
            .upsert(row(rows as i64 % DEVICES, rows as i64 / DEVICES))
            .unwrap();
        rows += 1;
    }
    let stats = daemon.stats();
    assert!(stats.backpressure.stalls > 0, "stall engaged: {stats:?}");
    assert!(stats.backpressure.stall_nanos > 0, "stall time accounted");
    // Every upsert returned, so each stall was followed by a resume.

    daemons.shutdown();
    engine.quiesce().unwrap();
    let total: u64 = (0..DEVICES)
        .map(|d| {
            engine
                .scan_index(
                    vec![Datum::Int64(d)],
                    SortBound::Unbounded,
                    SortBound::Unbounded,
                    Freshness::Latest,
                    ReconcileStrategy::PriorityQueue,
                )
                .unwrap()
                .len() as u64
        })
        .sum();
    assert_eq!(total, rows, "backpressure must not drop writes");
}
