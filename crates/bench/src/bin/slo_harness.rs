//! Multi-tenant SLO harness: tail-latency percentiles per tenant and
//! operation class, plus a maintenance-fairness scenario: a cold shard
//! sharing one slowed daemon worker with a hot one.
//!
//! Three scenarios, one artifact:
//!
//! 1. **SLO mix** — a seeded [`TenantMix`] (zipf-skewed tenants, bursty
//!    open-loop arrivals) drives a two-shard engine while the maintenance
//!    daemon grooms/merges/evolves/retires underneath. Every operation is
//!    timed in the driver into per-`(tenant, class)` histograms; the
//!    engine's own per-op-class telemetry histograms ride along so the
//!    driver-side and engine-side views can be cross-checked.
//! 2. **Fairness** — one slowed worker serves a hot shard under
//!    continuous ingest (an endless groom→merge cascade) and a cold shard
//!    taking light ingest plus freshest-point reads. A groom starved behind
//!    the hot merge stream would let the cold shard's un-groomed live zone
//!    — which freshest reads scan linearly — grow without bound; the
//!    weighted-aging dequeue lets the aged groom overtake. Cold-shard point
//!    p99 lands in the artifact as a scalar.
//! 3. **Brownout degradation** — the shared store turns sick mid-run while
//!    deadline-bounded scans and interactive point reads keep arriving.
//!    Deadline-expired queries die typed with bounded overshoot, the
//!    storage circuit breaker trips and then recovers, and interactive point
//!    p99 stays bounded throughout. See [`run_brownout`].
//!
//! Run with `cargo run --release -p umzi-bench --bin slo_harness`.
//! Writes its report to `SLO_harness.json` at the repo root (gitignored;
//! override with `UMZI_SLO_OUT`) and exits non-zero on a failed invariant
//! or on a percentile it reports from a histogram with no samples — there
//! is no committed baseline to diff against. `UMZI_SLO_OPS` /
//! `UMZI_SLO_CYCLES` scale the scenarios (defaults are the CI-sized small
//! preset).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use umzi_core::{JobKind, MaintenanceConfig, MergePolicy, ReconcileStrategy};
use umzi_encoding::Datum;
use umzi_run::SortBound;
use umzi_storage::telemetry::{Histogram, HistogramSnapshot};
use umzi_storage::{
    context, DecodedCacheConfig, FaultInjectingStore, FaultOp, FaultPlan, InMemoryObjectStore,
    LatencyModel, ObjectStore, QueryContext, RetryConfig, SharedStorage, TelemetryConfig,
    TieredConfig, TieredStorage,
};
use umzi_wildfire::{iot_table, EngineConfig, Freshness, ShardConfig, WildfireEngine};
use umzi_workload::{
    BurstModel, OpClass, OpMix, TenantMix, TenantMixConfig, TenantOpKind, TenantProfile,
};

/// Devices per tenant: tenant-relative keys map onto `device = tenant·32 +
/// key % 32`, `msg = key / 32`, so tenants never collide and every tenant
/// spreads over both shards.
const DEVS_PER_TENANT: u64 = 32;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn row_of(tenant: usize, key: u64) -> Vec<Datum> {
    let device = tenant as u64 * DEVS_PER_TENANT + key % DEVS_PER_TENANT;
    let msg = key / DEVS_PER_TENANT;
    vec![
        Datum::Int64(device as i64),
        Datum::Int64(msg as i64),
        Datum::Int64(20190326 + (key % 7) as i64),
        Datum::Int64(key as i64),
    ]
}

fn probe_of(tenant: usize, key: u64) -> (Vec<Datum>, Vec<Datum>) {
    let device = tenant as u64 * DEVS_PER_TENANT + key % DEVS_PER_TENANT;
    (
        vec![Datum::Int64(device as i64)],
        vec![Datum::Int64((key / DEVS_PER_TENANT) as i64)],
    )
}

fn quantile_fields(h: &HistogramSnapshot) -> String {
    format!(
        "\"count\": {}, \"p50_nanos\": {}, \"p90_nanos\": {}, \"p99_nanos\": {}, \"p999_nanos\": {}",
        h.count(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999()
    )
}

/// The tenants: an OLTP-shaped point reader, an analytics scanner and an
/// ingest-heavy feed, weighted 3:1:2 on the shared arrival process.
fn slo_tenants() -> TenantMixConfig {
    let base = TenantProfile {
        zipf_exponent: 0.9,
        key_space: 20_000,
        batch_size: 32,
        scan_span: 128,
        ingest_batch: 200,
        ..TenantProfile::default()
    };
    TenantMixConfig {
        tenants: vec![
            TenantProfile {
                weight: 3.0,
                mix: OpMix {
                    point: 0.70,
                    batch: 0.10,
                    range_scan: 0.05,
                    ingest: 0.15,
                },
                ..base.clone()
            },
            TenantProfile {
                weight: 1.0,
                mix: OpMix {
                    point: 0.10,
                    batch: 0.20,
                    range_scan: 0.60,
                    ingest: 0.10,
                },
                ..base.clone()
            },
            TenantProfile {
                weight: 2.0,
                mix: OpMix {
                    point: 0.20,
                    batch: 0.10,
                    range_scan: 0.10,
                    ingest: 0.60,
                },
                ..base
            },
        ],
        burst: BurstModel {
            base_ops_per_tick: 2.0,
            burst_period: 64,
            burst_len: 8,
            burst_multiplier: 8.0,
        },
    }
}

struct SloOutcome {
    /// `hists[tenant][class]` in [`OpClass::ALL`] order.
    hists: Vec<[HistogramSnapshot; 4]>,
    /// Engine-side op histograms `(label, snapshot)`; a series the engine
    /// never registered reads as empty and fails the sample gate.
    engine_ops: Vec<(&'static str, HistogramSnapshot)>,
    elapsed: Duration,
    ops: usize,
}

/// Scenario 1: drive the seeded tenant mix under daemon churn.
fn run_slo_mix(ops_target: usize) -> SloOutcome {
    let storage = Arc::new(TieredStorage::in_memory());
    storage.telemetry().configure(&TelemetryConfig {
        enabled: true,
        slow_query_threshold: Duration::from_millis(50),
        slow_query_log_len: 32,
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
            groom_trigger_rows: 400,
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

    let config = slo_tenants();
    let n_tenants = config.tenants.len();
    let mut mix = TenantMix::new(config, 42).expect("valid tenant mix");
    let hists: Vec<[Histogram; 4]> = (0..n_tenants)
        .map(|_| std::array::from_fn(|_| Histogram::new()))
        .collect();

    let started = Instant::now();
    for _ in 0..ops_target {
        let op = mix.next_op();
        let class = OpClass::ALL
            .iter()
            .position(|c| *c == op.class())
            .expect("class in ALL");
        let tenant = op.tenant;
        let t0 = Instant::now();
        match op.kind {
            TenantOpKind::Point { key } => {
                let (eq, sort) = probe_of(tenant, key);
                std::hint::black_box(engine.get(&eq, &sort, Freshness::Latest).expect("point"));
            }
            TenantOpKind::Batch { keys } => {
                let probes: Vec<_> = keys.iter().map(|&k| probe_of(tenant, k)).collect();
                for s in engine.shards() {
                    std::hint::black_box(
                        s.index()
                            .batch_lookup(&probes, s.read_ts())
                            .expect("batch lookup"),
                    );
                }
            }
            TenantOpKind::RangeScan { start, span } => {
                let (eq, sort) = probe_of(tenant, start);
                let lo = sort[0].clone();
                let hi = Datum::Int64(match lo {
                    Datum::Int64(m) => m + (span / DEVS_PER_TENANT).max(1) as i64,
                    _ => unreachable!("msg is Int64"),
                });
                std::hint::black_box(
                    engine
                        .scan_index(
                            eq,
                            SortBound::Included(vec![lo]),
                            SortBound::Excluded(vec![hi]),
                            Freshness::Latest,
                            ReconcileStrategy::PriorityQueue,
                        )
                        .expect("range scan"),
                );
            }
            TenantOpKind::Ingest { mut keys } => {
                // Zipf batches repeat hot keys; one upsert transaction wants
                // each primary key at most once.
                keys.sort_unstable();
                keys.dedup();
                let rows: Vec<_> = keys.iter().map(|&k| row_of(tenant, k)).collect();
                engine.upsert_many(rows).expect("ingest");
            }
        }
        hists[tenant][class].record(t0.elapsed().as_nanos() as u64);
    }
    let elapsed = started.elapsed();

    if let Some(d) = daemons.daemon() {
        d.wait_idle(Duration::from_secs(30));
    }
    let snap = engine.telemetry();
    daemons.shutdown();

    let engine_ops = [
        (
            "point_lookup",
            "umzi_query_duration_nanos{op=\"point_lookup\"}",
        ),
        (
            "batch_lookup",
            "umzi_query_duration_nanos{op=\"batch_lookup\"}",
        ),
        (
            "range_scan_seq",
            "umzi_query_duration_nanos{op=\"range_scan_seq\"}",
        ),
        ("ingest", "umzi_ingest_duration_nanos"),
    ]
    .into_iter()
    .map(|(label, name)| (label, snap.histogram(name).cloned().unwrap_or_default()))
    .collect();

    SloOutcome {
        hists: hists
            .iter()
            .map(|per_class| std::array::from_fn(|i| per_class[i].snapshot()))
            .collect(),
        engine_ops,
        elapsed,
        ops: ops_target,
    }
}

struct FairnessOutcome {
    cold_point: HistogramSnapshot,
    groom_peak_dequeue_age: u64,
    rows_written: u64,
    rows_counted: u64,
}

/// Shards in the fairness scenario: seven hot, one cold, one slowed worker.
const FAIR_SHARDS: usize = 8;

/// Scenario 2: seven hot shards keep one slowed worker under sustained
/// merge pressure (the flood thread grooms them inline, so every round
/// hands the daemon fresh level-0 runs to merge) while a cold shard takes a
/// trickle of ingest plus freshest-point reads. Those reads overlay the
/// cold shard's un-groomed live zone linearly, so a starved cold groom
/// shows up directly as read latency. By priority class alone merges always
/// beat grooms and the cold groom would wait out the entire hot backlog; the
/// weighted-aging dequeue lets it overtake once its queue age exceeds the
/// priority gap.
fn run_fairness(cycles: usize) -> FairnessOutcome {
    let table = Arc::new(iot_table());
    // Partition the device space by the engine's own routing so "hot" and
    // "cold" mean actual shards, not a guess about the hash.
    let devices_of = |shard: usize| -> Vec<u64> {
        (0u64..4000)
            .filter(|&d| {
                table.shard_of(
                    &[
                        Datum::Int64(d as i64),
                        Datum::Int64(0),
                        Datum::Int64(0),
                        Datum::Int64(0),
                    ],
                    FAIR_SHARDS,
                ) == shard
            })
            .take(2)
            .collect()
    };
    let cold = devices_of(FAIR_SHARDS - 1);
    let hot: Vec<u64> = (0..FAIR_SHARDS - 1).flat_map(devices_of).collect();

    let storage = Arc::new(TieredStorage::in_memory());
    let mut shard = ShardConfig::default();
    shard.umzi.merge = MergePolicy { k: 2, t: 4 };
    let engine = WildfireEngine::create(
        Arc::clone(&storage),
        Arc::clone(&table),
        EngineConfig {
            n_shards: FAIR_SHARDS,
            shard,
            groom_interval: Duration::from_millis(15),
            post_groom_interval: Duration::from_millis(40),
            groom_trigger_rows: 128,
            maintenance: Some(MaintenanceConfig {
                workers: 1,
                // One slowed worker against seven shards' worth of merge
                // arrivals: the higher-priority classes never drain, which
                // is the regime the aging dequeue exists for. Watermarks
                // are lifted so the deliberately-unmerged hot backlog
                // doesn't stall ingest and pace the scenario instead.
                throttle: Some(Duration::from_millis(2)),
                l0_high_watermark: 1_000_000,
                l0_low_watermark: 500_000,
                janitor_interval: Duration::from_millis(25),
                adaptive_cache: false,
            }),
        },
    )
    .expect("create engine");
    let daemons = engine.start_daemons();
    let daemon = Arc::clone(daemons.daemon().expect("maintenance configured"));

    // Background flood: round-robin batches across the hot shards at 10x
    // the cold shard's rate, groomed inline each round. The inline groom
    // stands in for foreground grooming under pressure: it keeps the
    // daemon's queue stocked with real level-0 merge work (priority above
    // grooms) faster than the slowed worker drains it.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hot_written = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let flood = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let hot_written = Arc::clone(&hot_written);
        let hot = hot.clone();
        std::thread::spawn(move || {
            let mut msg = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let rows: Vec<Vec<Datum>> = (0..hot.len() as i64 * 20)
                    .map(|i| fair_row(hot[i as usize % hot.len()], msg + i / hot.len() as i64))
                    .collect();
                msg += 20;
                hot_written.fetch_add(rows.len() as u64, std::sync::atomic::Ordering::Release);
                engine.upsert_many(rows).expect("hot ingest");
                for s in 0..FAIR_SHARDS - 1 {
                    engine.shards()[s].groom().expect("inline hot groom");
                }
                std::thread::sleep(Duration::from_millis(3));
            }
        })
    };

    let cold_hist = Histogram::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut cold_msg = 0i64;
    for _ in 0..cycles {
        let cold_rows: Vec<Vec<Datum>> = (0..100)
            .map(|i| {
                let d = cold[(cold_msg as usize + i) % cold.len()];
                fair_row(d, cold_msg + i as i64)
            })
            .collect();
        cold_msg += 100;
        engine.upsert_many(cold_rows).expect("cold ingest");

        // The cold tenant's reads: freshest-point lookups that must overlay
        // the un-groomed live zone — exactly what a starved groom inflates.
        for _ in 0..10 {
            let m = rng.random_range(0..cold_msg);
            let d = cold[m as usize % cold.len()];
            let t0 = Instant::now();
            std::hint::black_box(
                engine
                    .get(
                        &[Datum::Int64(d as i64)],
                        &[Datum::Int64(m)],
                        Freshness::Freshest,
                    )
                    .expect("cold point read"),
            );
            cold_hist.record(t0.elapsed().as_nanos() as u64);
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let cold_live_at_end = engine.shards()[FAIR_SHARDS - 1].live().len();
    stop.store(true, std::sync::atomic::Ordering::Release);
    flood.join().expect("flood thread");
    let rows_written = hot_written.load(std::sync::atomic::Ordering::Acquire) + cold_msg as u64;
    // Graceful shutdown drains the queue, so a groom starved through the
    // whole measured window still pops — and records its dequeue age.
    daemons.shutdown();
    let groom_peak_dequeue_age = daemon.stats().peak_dequeue_age(JobKind::Groom);

    // Integrity: every acked row is countable.
    engine.quiesce().expect("quiesce");
    let rows_counted: u64 = hot
        .iter()
        .chain(cold.iter())
        .map(|&d| {
            engine
                .scan_index(
                    vec![Datum::Int64(d as i64)],
                    SortBound::Unbounded,
                    SortBound::Unbounded,
                    Freshness::Latest,
                    ReconcileStrategy::PriorityQueue,
                )
                .expect("integrity scan")
                .len() as u64
        })
        .sum();

    eprintln!(
        "  cold live zone at end of window = {} rows, groom peak dequeue age = {}",
        cold_live_at_end, groom_peak_dequeue_age
    );

    FairnessOutcome {
        cold_point: cold_hist.snapshot(),
        groom_peak_dequeue_age,
        rows_written,
        rows_counted,
    }
}

/// Rows for the fairness scenario: distinct `(device, msg)` per call.
fn fair_row(device: u64, msg: i64) -> Vec<Datum> {
    vec![
        Datum::Int64(device as i64),
        Datum::Int64(msg),
        Datum::Int64(20190326 + (msg % 7)),
        Datum::Int64(msg),
    ]
}

struct BrownoutOutcome {
    /// Driver-side latency of every interactive point read across the whole
    /// window (healthy → sick → healed), successes and failures alike.
    point: HistogramSnapshot,
    /// The engine's `umzi_query_deadline_overshoot_nanos` histogram: how far
    /// past its deadline any query was allowed to run.
    overshoot: HistogramSnapshot,
    timeouts: u64,
    breaker_transitions: u64,
    breaker_rejections: u64,
    /// Whether the block-fetch breaker closed again after the store healed.
    breaker_recovered: bool,
    degraded_hits: u64,
    point_failures: u64,
}

const BROWNOUT_DEVICES: i64 = 24;
const BROWNOUT_MSGS: i64 = 200;

/// Scenario 3: brownout degradation. The engine runs on a fault-injectable
/// shared store with starved warm tiers (every read goes back to shared
/// storage) and the storage tier's circuit breaker on its shipped constants.
/// Three scanner threads hammer deadline-bounded range scans while the driver
/// issues interactive point reads; one third of the way in the store turns
/// *sick* (every shared get faults), and two thirds in it heals.
///
/// The claims under test, asserted below and exported as scalars:
/// deadline-expired queries die **typed and promptly** (overshoot p99 stays
/// within one clamped backoff step plus one block fetch), the breaker **trips
/// and recovers** (nonzero transitions, fast rejections while open), and
/// interactive point p99 over the whole window — sick phase included —
/// stays bounded instead of inheriting the storage outage.
fn run_brownout(cycles: usize) -> BrownoutOutcome {
    let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryObjectStore::new());
    let faults = Arc::new(FaultInjectingStore::new(
        inner,
        FaultPlan::none()
            .with_transient(FaultOp::Get, 1.0)
            .with_transient(FaultOp::GetRange, 1.0),
    ));
    faults.set_armed(false);
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::new(
            Arc::clone(&faults) as Arc<dyn ObjectStore>,
            LatencyModel::off(),
        ),
        TieredConfig {
            chunk_size: 1024,
            // Starve the warm tiers and decoded cache so reads keep going
            // back to (fault-injectable) shared storage — the brownout has
            // to be survived, not dodged by a cache.
            mem_capacity: 2048,
            ssd_capacity: 4096,
            decoded_cache: DecodedCacheConfig {
                capacity_bytes: 0,
                ..DecodedCacheConfig::default()
            },
            retry: RetryConfig {
                max_retries: 2,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(5),
            },
            ..TieredConfig::default()
        },
    ));
    let engine = WildfireEngine::create(
        Arc::clone(&storage),
        Arc::new(iot_table()),
        EngineConfig {
            n_shards: 2,
            maintenance: None,
            ..EngineConfig::default()
        },
    )
    .expect("create engine");

    // Preload and groom while the store is healthy.
    for device in 0..BROWNOUT_DEVICES {
        let rows: Vec<Vec<Datum>> = (0..BROWNOUT_MSGS)
            .map(|m| fair_row(device as u64, m))
            .collect();
        engine.upsert_many(rows).expect("brownout preload");
    }
    engine.quiesce().expect("brownout quiesce");

    // One read whose deadline passed before it arrived: it dies typed at the
    // engine's entry checkpoint and must leave an overshoot sample. Retry
    // backoff is clamped to return *before* a deadline, so a well-behaved
    // run has a late query only when the scheduler hiccups (0-3 samples,
    // none in a tenth of runs); with this probe the "no samples" gate below
    // tests the instrument instead. Its overshoot is nanoseconds, so the
    // p99 bound still reads the worst real straggler.
    {
        let _g = context::enter(QueryContext::with_deadline(Duration::ZERO));
        let _ = engine.get(&[Datum::Int64(0)], &[Datum::Int64(0)], Freshness::Latest);
    }

    // Three scanner threads under a 4 ms budget each: scans contend all
    // window long, and deadline expiry inside retry backoff is exercised the
    // moment the store turns sick.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scanners: Vec<_> = (0..3)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut device = i as i64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    {
                        let budget = QueryContext::with_deadline(Duration::from_millis(4));
                        let _g = context::enter(budget);
                        let _ = std::hint::black_box(engine.scan_index(
                            vec![Datum::Int64(device % BROWNOUT_DEVICES)],
                            SortBound::Unbounded,
                            SortBound::Unbounded,
                            Freshness::Latest,
                            ReconcileStrategy::PriorityQueue,
                        ));
                    }
                    device += 3;
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        })
        .collect();

    let point_hist = Histogram::new();
    let mut point_failures = 0u64;
    let mut rng = StdRng::seed_from_u64(99);
    let sick_from = cycles / 3;
    let heal_from = cycles - cycles / 3;
    for cycle in 0..cycles {
        if cycle == sick_from {
            faults.set_armed(true);
        }
        if cycle == heal_from {
            faults.set_armed(false);
        }
        // Interactive points: indexed reads under a deadline generous
        // enough to absorb one retry cycle but far below the outage length.
        for _ in 0..16 {
            let device = rng.random_range(0..BROWNOUT_DEVICES);
            let msg = rng.random_range(0..BROWNOUT_MSGS);
            let _g = context::enter(QueryContext::with_deadline(Duration::from_millis(20)));
            let t0 = Instant::now();
            let out = engine.get(
                &[Datum::Int64(device)],
                &[Datum::Int64(msg)],
                Freshness::Latest,
            );
            point_hist.record(t0.elapsed().as_nanos() as u64);
            if out.is_err() {
                point_failures += 1;
            }
        }
        // Freshest reads of just-ingested rows: served straight from the
        // live zone, these are the point lookups that keep answering — and
        // get counted as degraded hits — while the block-fetch breaker is
        // open.
        let device = (cycle as i64) % BROWNOUT_DEVICES;
        let fresh_msg = BROWNOUT_MSGS + cycle as i64;
        engine
            .upsert(fair_row(device as u64, fresh_msg))
            .expect("fresh ingest");
        let out = {
            let _g = context::enter(QueryContext::with_deadline(Duration::from_millis(20)));
            let t0 = Instant::now();
            let out = engine.get(
                &[Datum::Int64(device)],
                &[Datum::Int64(fresh_msg)],
                Freshness::Freshest,
            );
            point_hist.record(t0.elapsed().as_nanos() as u64);
            out
        };
        if out.is_err() {
            point_failures += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Recovery: the store is healed, but a tripped breaker only closes
    // after its cooldown elapses and a half-open probe succeeds. Keep
    // traffic flowing (the scanners are still running) until the
    // block-fetch breaker closes, bounded so a broken recovery path fails
    // the harness instead of hanging it.
    let recover_deadline = Instant::now() + Duration::from_secs(5);
    let block_fetch_state = || storage.breaker().state(umzi_storage::OpClass::BlockFetch);
    while block_fetch_state() != umzi_storage::BreakerState::Closed
        && Instant::now() < recover_deadline
    {
        let _ = engine.get(&[Datum::Int64(0)], &[Datum::Int64(0)], Freshness::Latest);
        std::thread::sleep(Duration::from_millis(10));
    }
    let breaker_recovered = block_fetch_state() == umzi_storage::BreakerState::Closed;

    stop.store(true, std::sync::atomic::Ordering::Release);
    for s in scanners {
        s.join().expect("scanner thread");
    }

    let health = engine.health();
    let st = storage.stats();
    let snap = engine.telemetry();
    let overshoot = snap
        .histogram("umzi_query_deadline_overshoot_nanos")
        .cloned()
        .expect("overshoot histogram is registered at engine construction");
    let degraded_hits = snap
        .metrics
        .counters
        .iter()
        .find(|(n, _)| n == "umzi_query_degraded_hits_total")
        .map(|(_, v)| *v)
        .unwrap_or(0);

    eprintln!(
        "  brownout: point p99={} overshoot p99={} timeouts={} \
         breaker transitions={} rejections={} recovered={} degraded hits={} \
         point failures={}",
        point_hist.snapshot().p99(),
        overshoot.p99(),
        health.query_timeouts,
        st.breaker_transitions.iter().sum::<u64>(),
        st.breaker_rejections.iter().sum::<u64>(),
        breaker_recovered,
        degraded_hits,
        point_failures
    );

    BrownoutOutcome {
        point: point_hist.snapshot(),
        overshoot,
        timeouts: health.query_timeouts,
        breaker_transitions: st.breaker_transitions.iter().sum(),
        breaker_rejections: st.breaker_rejections.iter().sum(),
        breaker_recovered,
        degraded_hits,
        point_failures,
    }
}

fn main() {
    let ops = env_usize("UMZI_SLO_OPS", 4000);
    let cycles = env_usize("UMZI_SLO_CYCLES", 60);

    eprintln!("== slo_harness: tenant mix ({ops} ops) ==");
    let slo = run_slo_mix(ops);
    for (t, per_class) in slo.hists.iter().enumerate() {
        for (ci, h) in per_class.iter().enumerate() {
            eprintln!(
                "tenant{t}/{:<10} n={:<6} p50={:<9} p99={:<10} p999={}",
                OpClass::ALL[ci].label(),
                h.count(),
                h.p50(),
                h.p99(),
                h.p999()
            );
        }
    }

    eprintln!("== slo_harness: fairness ({cycles} cycles) ==");
    let fair = run_fairness(cycles);
    eprintln!(
        "cold point p99: {}  groom peak dequeue age: {}",
        fair.cold_point.p99(),
        fair.groom_peak_dequeue_age
    );

    eprintln!("== slo_harness: brownout degradation ({cycles} cycles) ==");
    let brownout = run_brownout(cycles.max(30));

    let mut failures: Vec<String> = Vec::new();
    for (t, per_class) in slo.hists.iter().enumerate() {
        for (ci, h) in per_class.iter().enumerate() {
            if h.count() == 0 {
                failures.push(format!(
                    "tenant{t}/{} recorded zero samples — the mix must reach every class",
                    OpClass::ALL[ci].label()
                ));
            }
        }
    }
    // A percentile over zero samples reads 0 and would pass for a perfect
    // tail: every histogram the report quotes must have recorded something.
    for (label, h) in &slo.engine_ops {
        if h.count() == 0 {
            failures.push(format!(
                "engine-side {label} histogram is missing or empty — its percentiles mean nothing"
            ));
        }
    }
    if fair.cold_point.count() == 0 {
        failures.push("fairness: no cold-shard point samples".into());
    }
    if fair.rows_counted != fair.rows_written {
        failures.push(format!(
            "fairness: acked rows lost under the ingest gate: wrote {} counted {}",
            fair.rows_written, fair.rows_counted
        ));
    }

    // Brownout acceptance: the degradation has to be *graceful*, with
    // receipts. Overshoot is bounded by construction — retry backoff is
    // clamped to the remaining budget — so its p99 must fit in one clamped
    // backoff step (≤ 5ms max_backoff) plus one in-memory block fetch, with
    // slack for CI schedulers.
    let overshoot_bound = Duration::from_millis(25).as_nanos() as u64;
    if brownout.timeouts == 0 {
        failures.push("brownout: no queries died on their deadline".into());
    }
    if brownout.breaker_transitions == 0 {
        failures.push("brownout: the storage circuit breaker never tripped".into());
    }
    if brownout.breaker_rejections == 0 {
        failures.push("brownout: an open breaker never failed an op fast".into());
    }
    if !brownout.breaker_recovered {
        failures.push("brownout: the breaker never closed again after the store healed".into());
    }
    if brownout.degraded_hits == 0 {
        failures
            .push("brownout: no point lookup was answered (degraded) under an open breaker".into());
    }
    if brownout.overshoot.count() == 0 {
        failures.push("brownout: overshoot histogram recorded no samples".into());
    } else if brownout.overshoot.p99() > overshoot_bound {
        failures.push(format!(
            "brownout: deadline overshoot p99 {}ns exceeds the {}ns bound \
             (one clamped backoff step + one block fetch)",
            brownout.overshoot.p99(),
            overshoot_bound
        ));
    }
    if brownout.point.count() == 0 {
        failures.push("brownout: no interactive point samples".into());
    }
    // Point reads during a full storage outage must stay *bounded* —
    // answered, degraded, or failed fast, never hung. 100ms is five point
    // deadlines of slack; an unclamped backoff chain or a queued-to-death
    // read would blow through it.
    if brownout.point.p99() > Duration::from_millis(100).as_nanos() as u64 {
        failures.push(format!(
            "brownout: interactive point p99 {}ns not bounded under brownout",
            brownout.point.p99()
        ));
    }

    // The report: one row per (tenant, class) with an ops_per_sec figure;
    // the percentile fields and scalars are the SLO surface proper.
    let secs = slo.elapsed.as_secs_f64().max(1e-9);
    let mut json = String::from("{\n  \"bench\": \"slo_harness\",\n");
    let _ = writeln!(json, "  \"ops\": {}, \"secs\": {:.3},", slo.ops, secs);
    json.push_str("  \"results\": [\n");
    let mut rows: Vec<String> = Vec::new();
    for (t, per_class) in slo.hists.iter().enumerate() {
        for (ci, h) in per_class.iter().enumerate() {
            rows.push(format!(
                "    {{\"workload\": \"tenant{t}/{}\", \"runs\": 1, \"ops_per_sec\": {:.1}, {}}}",
                OpClass::ALL[ci].label(),
                h.count() as f64 / secs,
                quantile_fields(h)
            ));
        }
    }
    let _ = writeln!(json, "{}\n  ],", rows.join(",\n"));
    let engine_rows: Vec<String> = slo
        .engine_ops
        .iter()
        .map(|(label, h)| format!("    \"{label}\": {{{}}}", quantile_fields(h)))
        .collect();
    let _ = writeln!(
        json,
        "  \"engine_op_nanos\": {{\n{}\n  }},",
        engine_rows.join(",\n")
    );
    let _ = writeln!(
        json,
        "  \"fairness_fair\": {{{}, \"groom_peak_dequeue_age\": {}, \"rows\": {}}},",
        quantile_fields(&fair.cold_point),
        fair.groom_peak_dequeue_age,
        fair.rows_written
    );
    let _ = writeln!(
        json,
        "  \"brownout\": {{\"point\": {{{}}}, \"overshoot\": {{{}}}, \
         \"timeouts\": {}, \"breaker_transitions\": {}, \
         \"breaker_rejections\": {}, \"breaker_recovered\": {}, \
         \"degraded_hits\": {}, \"point_failures\": {}}},",
        quantile_fields(&brownout.point),
        quantile_fields(&brownout.overshoot),
        brownout.timeouts,
        brownout.breaker_transitions,
        brownout.breaker_rejections,
        brownout.breaker_recovered,
        brownout.degraded_hits,
        brownout.point_failures
    );
    let _ = writeln!(
        json,
        "  \"brownout_point_p99_nanos\": {},",
        brownout.point.p99()
    );
    let _ = writeln!(
        json,
        "  \"deadline_overshoot_p99_nanos\": {},",
        brownout.overshoot.p99()
    );
    let _ = writeln!(
        json,
        "  \"cold_shard_point_p99_nanos_fair\": {},",
        fair.cold_point.p99()
    );
    let _ = writeln!(
        json,
        "  \"cold_shard_point_p999_nanos_fair\": {}",
        fair.cold_point.p999()
    );
    json.push_str("}\n");

    let out_path = std::env::var("UMZI_SLO_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../SLO_harness.json").to_string()
    });
    std::fs::write(&out_path, json).expect("write the SLO report");
    eprintln!("wrote {out_path}");

    if !failures.is_empty() {
        eprintln!("\nslo harness FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
