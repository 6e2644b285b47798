//! Brownout degradation: the shared store turns sick mid-run while
//! deadline-bounded scans and interactive point reads keep arriving.
//!
//! The engine runs on a fault-injectable shared store with starved warm
//! tiers (every read goes back to shared storage) and the storage tier's
//! circuit breaker on its shipped constants. Three scanner threads hammer
//! deadline-bounded range scans while the test issues interactive point
//! reads; one third of the way in the store turns *sick* (every shared get
//! faults), and two thirds in it heals.
//!
//! The claims under test: deadline-expired queries die **typed and
//! promptly** (overshoot p99 stays within one clamped backoff step plus one
//! block fetch), the breaker **trips, fails ops fast and closes again**,
//! freshest point reads keep answering from the live zone while it is open,
//! interactive point p99 over the whole window — sick phase included —
//! stays bounded instead of inheriting the storage outage, and once healed
//! the engine answers exactly and has lost no acked row.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use umzi::prelude::*;
use umzi::storage::telemetry::Histogram;
use umzi::storage::{
    context, BreakerState, DecodedCacheConfig, FaultInjectingStore, FaultOp, FaultPlan,
    InMemoryObjectStore, LatencyModel, ObjectStore, OpClass, QueryContext, RetryConfig,
};

const DEVICES: i64 = 24;
const MSGS: i64 = 200;
const CYCLES: usize = 60;

fn row(device: i64, msg: i64) -> Vec<Datum> {
    vec![
        Datum::Int64(device),
        Datum::Int64(msg),
        Datum::Int64(20190326 + msg % 7),
        Datum::Int64(msg),
    ]
}

#[test]
fn brownout_is_typed_bounded_and_heals() {
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
    .unwrap();

    // Preload and groom while the store is healthy.
    for device in 0..DEVICES {
        engine
            .upsert_many((0..MSGS).map(|m| row(device, m)).collect())
            .unwrap();
    }
    engine.quiesce().unwrap();

    // One read whose deadline passed before it arrived: it dies typed at the
    // engine's entry checkpoint and must leave an overshoot sample. Retry
    // backoff is clamped to return *before* a deadline, so a well-behaved
    // run has a late query only when the scheduler hiccups; with this probe
    // the "no samples" check below tests the instrument instead. Its
    // overshoot is nanoseconds, so the p99 bound still reads the worst real
    // straggler.
    {
        let _g = context::enter(QueryContext::with_deadline(Duration::ZERO));
        let _ = engine.get(&[Datum::Int64(0)], &[Datum::Int64(0)], Freshness::Latest);
    }

    // Three scanner threads under a 4 ms budget each: scans contend all
    // window long, and deadline expiry inside retry backoff is exercised the
    // moment the store turns sick.
    let stop = Arc::new(AtomicBool::new(false));
    let scanners: Vec<_> = (0..3)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut device = i as i64;
                while !stop.load(Ordering::Acquire) {
                    {
                        let _g =
                            context::enter(QueryContext::with_deadline(Duration::from_millis(4)));
                        let _ = std::hint::black_box(engine.scan_index(
                            vec![Datum::Int64(device % DEVICES)],
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

    // Driver-side latency of every interactive point read across the whole
    // window (healthy → sick → healed), successes and failures alike.
    let point_hist = Histogram::new();
    let mut point_failures = 0u64;
    let mut rng = StdRng::seed_from_u64(99);
    let timed_get = |eq: i64, sort: i64, freshness: Freshness| {
        let _g = context::enter(QueryContext::with_deadline(Duration::from_millis(20)));
        let t0 = Instant::now();
        let out = engine.get(&[Datum::Int64(eq)], &[Datum::Int64(sort)], freshness);
        point_hist.record(t0.elapsed().as_nanos() as u64);
        out
    };
    for cycle in 0..CYCLES {
        if cycle == CYCLES / 3 {
            faults.set_armed(true);
        }
        if cycle == CYCLES - CYCLES / 3 {
            faults.set_armed(false);
        }
        // Interactive points: indexed reads under a deadline generous
        // enough to absorb one retry cycle but far below the outage length.
        for _ in 0..16 {
            let (device, msg) = (rng.random_range(0..DEVICES), rng.random_range(0..MSGS));
            if timed_get(device, msg, Freshness::Latest).is_err() {
                point_failures += 1;
            }
        }
        // Freshest reads of just-ingested rows: served straight from the
        // live zone, these are the point lookups that keep answering — and
        // get counted as degraded hits — while the block-fetch breaker is
        // open.
        let device = cycle as i64 % DEVICES;
        let fresh_msg = MSGS + cycle as i64;
        engine.upsert(row(device, fresh_msg)).unwrap();
        if timed_get(device, fresh_msg, Freshness::Freshest).is_err() {
            point_failures += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Recovery: the store is healed, but a tripped breaker only closes
    // after its cooldown elapses and a half-open probe succeeds. Keep
    // traffic flowing (the scanners are still running) until the
    // block-fetch breaker closes, bounded so a broken recovery path fails
    // the test instead of hanging it.
    let recover_deadline = Instant::now() + Duration::from_secs(5);
    let block_fetch_state = || storage.breaker().state(OpClass::BlockFetch);
    while block_fetch_state() != BreakerState::Closed && Instant::now() < recover_deadline {
        let _ = engine.get(&[Datum::Int64(0)], &[Datum::Int64(0)], Freshness::Latest);
        std::thread::sleep(Duration::from_millis(10));
    }
    let breaker_recovered = block_fetch_state() == BreakerState::Closed;

    stop.store(true, Ordering::Release);
    for s in scanners {
        s.join().unwrap();
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
        .map_or(0, |(_, v)| *v);
    let point = point_hist.snapshot();
    let transitions: u64 = st.breaker_transitions.iter().sum();
    let rejections: u64 = st.breaker_rejections.iter().sum();
    eprintln!(
        "brownout: point p99={} overshoot p99={} timeouts={} breaker transitions={} \
         rejections={} recovered={} degraded hits={} point failures={}",
        point.p99(),
        overshoot.p99(),
        health.query_timeouts,
        transitions,
        rejections,
        breaker_recovered,
        degraded_hits,
        point_failures
    );

    assert!(health.query_timeouts > 0, "no query died on its deadline");
    assert!(transitions > 0, "the storage circuit breaker never tripped");
    assert!(rejections > 0, "an open breaker never failed an op fast");
    assert!(
        breaker_recovered,
        "the breaker never closed again after the store healed"
    );
    assert!(
        degraded_hits > 0,
        "no point lookup was answered (degraded) under an open breaker"
    );
    // Overshoot is bounded by construction — retry backoff is clamped to the
    // remaining budget — so its p99 must fit in one clamped backoff step
    // (≤ 5 ms max_backoff) plus one in-memory block fetch, with slack for
    // loaded schedulers.
    assert!(
        overshoot.count() > 0,
        "overshoot histogram recorded no samples"
    );
    assert!(
        overshoot.p99() <= Duration::from_millis(25).as_nanos() as u64,
        "deadline overshoot p99 {}ns exceeds one clamped backoff step + one block fetch",
        overshoot.p99()
    );
    // Point reads during a full storage outage must stay *bounded* —
    // answered, degraded, or failed fast, never hung. 100 ms is five point
    // deadlines of slack; an unclamped backoff chain or a queued-to-death
    // read would blow through it.
    assert!(point.count() > 0, "no interactive point samples");
    assert!(
        point.p99() <= Duration::from_millis(100).as_nanos() as u64,
        "interactive point p99 {}ns not bounded under brownout",
        point.p99()
    );

    // Healed means answering: one more round of interactive points all
    // return the preloaded row.
    for _ in 0..16 {
        let (device, msg) = (rng.random_range(0..DEVICES), rng.random_range(0..MSGS));
        let rec = timed_get(device, msg, Freshness::Latest)
            .unwrap_or_else(|e| panic!("healed get ({device}, {msg}): {e}"))
            .unwrap_or_else(|| panic!("healed get ({device}, {msg}) found nothing"));
        assert_eq!(rec.row, row(device, msg));
    }

    // No acked row lost: every device holds its preload plus the fresh rows
    // upserted into it during the window.
    engine.quiesce().unwrap();
    for device in 0..DEVICES {
        let fresh = (0..CYCLES as i64).filter(|c| c % DEVICES == device).count();
        let counted = engine
            .scan_index(
                vec![Datum::Int64(device)],
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
                ReconcileStrategy::PriorityQueue,
            )
            .unwrap()
            .len();
        assert_eq!(
            counted,
            MSGS as usize + fresh,
            "device {device} lost acked rows"
        );
    }
}
