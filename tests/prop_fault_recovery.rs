//! Property: for ANY seeded fault plan — transient noise on every op class,
//! bit flips, a torn write, a crash point — driving the engine until storage
//! dies and then recovering must either produce a consistent snapshot or a
//! clean typed error. Never a panic, never a hang.
//!
//! Two recovery attempts are exercised per case:
//! 1. with the faults **still armed** (storage still flaky while the new
//!    process comes up) — any outcome is fine as long as it's `Ok` or a
//!    typed `Err`;
//! 2. after revive + disarm (storage healed) — this one must succeed, and
//!    full scans over the recovered index must resolve every record.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use umzi::prelude::*;
use umzi_run::{IndexEntry, KeyLayout, Rid, RunBuilder, RunParams, RunSearcher, ZoneId};
use umzi_storage::{
    Durability, FaultEvent, FaultInjectingStore, FaultPlan, InMemoryObjectStore, ObjectStore,
    RetryConfig, SharedStorage, TieredStorage as Tiered,
};

const DEVICES: i64 = 3;

fn row(device: i64, msg: i64, payload: i64) -> Vec<Datum> {
    vec![
        Datum::Int64(device),
        Datum::Int64(msg),
        Datum::Int64(0),
        Datum::Int64(payload),
    ]
}

/// Harsher than the torture harness: reads fault too, and bit flips are on.
fn plan_for(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_C3C3_3C3C);
    let mut plan = FaultPlan::transient_only(seed, rng.random_range(0..80) as f64 / 1000.0);
    plan.bit_flip_prob = rng.random_range(0..20) as f64 / 1000.0;
    if rng.random_bool(0.6) {
        plan = plan.with_event(FaultEvent::TornWriteAt {
            nth: rng.random_range(2..30),
        });
    }
    if rng.random_bool(0.8) {
        plan = plan.with_event(FaultEvent::CrashAt {
            nth: rng.random_range(40..400),
        });
    }
    plan
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        n_shards: 1,
        maintenance: None,
        ..EngineConfig::default()
    }
}

fn recover(storage: &Arc<TieredStorage>) -> umzi_wildfire::Result<Arc<WildfireEngine>> {
    WildfireEngine::recover(Arc::clone(storage), Arc::new(iot_table()), engine_config())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_fault_plan_recovers_or_errors_cleanly(seed in any::<u64>()) {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryObjectStore::new());
        let faulty = Arc::new(FaultInjectingStore::new(Arc::clone(&inner), plan_for(seed)));
        faulty.set_armed(false);
        let tc = umzi_storage::TieredConfig {
            retry: RetryConfig {
                max_retries: 2,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            ..Default::default()
        };
        let storage = Arc::new(Tiered::new(
            SharedStorage::new(
                Arc::clone(&faulty) as Arc<dyn ObjectStore>,
                umzi_storage::LatencyModel::off(),
            ),
            tc,
        ));
        let engine = WildfireEngine::create(
            Arc::clone(&storage),
            Arc::new(iot_table()),
            engine_config(),
        )
        .unwrap();
        faulty.set_armed(true);

        // Drive ingest + the whole maintenance pipeline until something
        // breaks (or the budget runs out). Errors are expected; panics are
        // the bug being hunted.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut msg = 0i64;
        'drive: for _ in 0..25 {
            for _ in 0..8 {
                let d = rng.random_range(0..DEVICES);
                if engine.upsert(row(d, msg, msg)).is_err() {
                    break 'drive;
                }
                msg += 1;
            }
            let shard = &engine.shards()[0];
            let broke = engine.groom_all().is_err()
                || match rng.random_range(0..4) {
                    0 => engine.post_groom_all().is_err(),
                    1 => engine.evolve_all().is_err(),
                    2 => shard.index().drain_merges().is_err(),
                    _ => shard.index().collect_garbage().is_err(),
                };
            if broke {
                break 'drive;
            }
        }
        drop(engine);

        // Attempt 1: recovery races the still-flaky storage. Ok or typed
        // Err are both acceptable — the property is "no panic".
        storage.simulate_crash();
        let first = recover(&storage);
        prop_assert!(
            first.is_ok() || !format!("{}", first.as_ref().unwrap_err()).is_empty(),
            "seed {seed}: recovery error must render cleanly"
        );
        drop(first);

        // Attempt 2: the storage heals; recovery must now succeed and the
        // index must be fully scannable (every RID resolves).
        faulty.revive();
        faulty.set_armed(false);
        storage.simulate_crash();
        let engine = recover(&storage).unwrap_or_else(|e| {
            panic!(
                "seed {seed}: recovery on healed storage failed: {e}\n  {}",
                faulty.stats().summary()
            )
        });
        for d in 0..DEVICES {
            let recs = engine.scan_records(
                vec![Datum::Int64(d)],
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
            );
            prop_assert!(
                recs.is_ok(),
                "seed {seed}: post-heal scan failed: {:?}\n  {}",
                recs.err(),
                faulty.stats().summary()
            );
        }
        // And the write path still works.
        engine.upsert(row(0, i64::MAX, 1)).unwrap();
        engine.quiesce().unwrap();
    }

    /// Transient faults racing the pipelined prefetcher surface as retries
    /// (or a silent fallback to the synchronous path) — never as iterator
    /// errors, and never as anything but the rows that were written.
    #[test]
    fn prefetch_under_transient_faults_retries_not_errors(
        seed in any::<u64>(),
    ) {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryObjectStore::new());
        let mut rng = StdRng::seed_from_u64(seed);
        // Up to 20% per-op fault rate; with 8 retries a single op fails for
        // good with probability ≤ 0.2^9 ≈ 5e-7, so the scan cannot flake.
        let prob = rng.random_range(0..=200) as f64 / 1000.0;
        let faulty = Arc::new(FaultInjectingStore::new(
            Arc::clone(&inner),
            FaultPlan::transient_only(seed, prob),
        ));
        faulty.set_armed(false);
        let storage = Arc::new(Tiered::new(
            SharedStorage::new(
                Arc::clone(&faulty) as Arc<dyn ObjectStore>,
                umzi_storage::LatencyModel::off(),
            ),
            umzi_storage::TieredConfig {
                // Small chunks: the scanned range spans many blocks, so the
                // readahead batches do real work under fire.
                chunk_size: 256,
                retry: RetryConfig {
                    max_retries: 8,
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                },
                ..Default::default()
            },
        ));

        // Build a multi-block run while the storage is healthy.
        let def = umzi_encoding::IndexDef::builder("pf")
            .equality("d", umzi_encoding::ColumnType::Int64)
            .sort("m", umzi_encoding::ColumnType::Int64)
            .build()
            .unwrap();
        let l = KeyLayout::new(Arc::new(def));
        let mut entries: Vec<IndexEntry> = (0..300i64)
            .map(|i| {
                IndexEntry::new(
                    &l,
                    &[Datum::Int64(i % 3)],
                    &[Datum::Int64(i)],
                    1 + (i as u64 % 20),
                    Rid::new(ZoneId::GROOMED, i as u64, 0),
                    &[],
                )
                .unwrap()
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut b = RunBuilder::new(
            l.clone(),
            RunParams {
                run_id: 1,
                zone: ZoneId::GROOMED,
                level: 0,
                groomed_lo: 0,
                groomed_hi: 0,
                psn: 0,
                offset_bits: 0,
                ancestors: vec![],
            },
            storage.chunk_size(),
        );
        for e in &entries {
            b.push(e).unwrap();
        }
        let run = b
            .finish(&storage, "runs/pf", Durability::Persisted, true)
            .unwrap();

        let (lower, upper) = l
            .query_range(
                &[Datum::Int64(1)],
                &SortBound::Unbounded,
                &SortBound::Unbounded,
            )
            .unwrap();
        let cold_scan = || -> umzi_run::Result<Vec<(Vec<u8>, u64)>> {
            storage.purge_object(run.handle())?;
            storage.decoded_cache().clear();
            RunSearcher::new(&run)
                .scan(&lower, upper.as_deref(), None, u64::MAX)?
                .map(|r| r.map(|h| (h.key.to_vec(), h.begin_ts)))
                .collect()
        };
        // Device 1 holds msgs 1, 4, 7, …, one version each.
        let mut want: Vec<(Vec<u8>, u64)> = (0..300i64)
            .filter(|i| i % 3 == 1)
            .map(|i| {
                let ts = 1 + (i as u64 % 20);
                let key = l.build_key(&[Datum::Int64(1)], &[Datum::Int64(i)], ts);
                (key.unwrap(), ts)
            })
            .collect();
        want.sort();
        prop_assert_eq!(&cold_scan().unwrap(), &want);

        // Same cold scan with the faults armed: every read — including the
        // batched prefetches — may fail transiently, yet the iterator must
        // deliver exactly those rows.
        faulty.set_armed(true);
        let under_fault = cold_scan();
        prop_assert!(
            under_fault.is_ok(),
            "seed {seed}: cold scan under transient faults errored: {:?}\n  {}",
            under_fault.err(),
            faulty.stats().summary()
        );
        prop_assert_eq!(under_fault.unwrap(), want);
        if faulty.stats().total_injected() > 0 {
            prop_assert!(
                storage.stats().retries > 0,
                "seed {seed}: faults were injected but no retry was recorded\n  {}",
                faulty.stats().summary()
            );
        }
    }
}
