//! Shared driver for the end-to-end experiments (§8.4, Figures 12–15).
//!
//! *"We ingest roughly 100000 random records per second. The groomer runs
//! every second, and the post-groomer runs every 20 seconds. We also submit
//! batches of 1000 random index lookup queries continuously."* Updates
//! follow the IoT model (p% of the last cycle, 0.1·p% of 50 cycles,
//! 0.01·p% of 100 cycles).
//!
//! The driver runs a writer, the engine daemons, optional cache purging,
//! and N reader threads; it reports the average batched-lookup latency per
//! time window — the y-axis of every §8.4 figure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use umzi_core::MaintenanceConfig;
use umzi_encoding::Datum;
use umzi_storage::{LatencyMode, SharedStorage, TierLatency, TieredConfig, TieredStorage};
use umzi_wildfire::{iot_table, EngineConfig, ShardConfig, WildfireEngine};
use umzi_workload::IotUpdateModel;

/// Manual purge mode for Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurgeMode {
    /// No runs purged (all SSD-cached).
    None,
    /// Roughly half of the levels purged.
    Half,
    /// Every run purged (headers only in the cache).
    All,
}

impl PurgeMode {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            PurgeMode::None => "none",
            PurgeMode::Half => "half",
            PurgeMode::All => "all",
        }
    }
}

/// End-to-end run parameters.
#[derive(Debug, Clone)]
pub struct E2eConfig {
    /// Total run length.
    pub seconds: u64,
    /// Ingest rate (records/second).
    pub rate: usize,
    /// Update fraction `p` (§8.4; default 0.10).
    pub p_update: f64,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Lookup batch size (paper: 1000).
    pub batch: usize,
    /// Manual purge mode (Figure 14); applied each window.
    pub purge: PurgeMode,
    /// Whether the post-groomer (and thus evolve) runs (Figure 15).
    pub post_groom: bool,
    /// Storage latencies `(ssd, shared)` in Sleep mode; `None` = free.
    pub latency: Option<(TierLatency, TierLatency)>,
    /// Groom period.
    pub groom_every: Duration,
    /// Post-groom period.
    pub post_groom_every: Duration,
    /// Reporting window.
    pub window: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for E2eConfig {
    fn default() -> Self {
        Self {
            seconds: 15,
            rate: 20_000,
            p_update: 0.10,
            readers: 1,
            batch: 1000,
            purge: PurgeMode::None,
            post_groom: true,
            latency: None,
            groom_every: Duration::from_millis(200),
            post_groom_every: Duration::from_secs(4),
            window: Duration::from_secs(1),
            seed: 42,
        }
    }
}

/// Result: average batched-lookup latency (seconds) per window, plus totals.
#[derive(Debug, Clone)]
pub struct E2eOutcome {
    /// Mean per-batch lookup latency per window (empty windows are `NaN`).
    pub window_latency: Vec<f64>,
    /// Total records ingested.
    pub ingested: u64,
    /// Total lookup batches executed.
    pub batches: u64,
}

/// Map a workload key to an IoT row: 1000 devices, `msg = k / 1000`.
fn key_row(k: u64) -> Vec<Datum> {
    vec![
        Datum::Int64((k % 1000) as i64),
        Datum::Int64((k / 1000) as i64),
        Datum::Int64(20190326 + (k % 7) as i64),
        Datum::Int64(k as i64),
    ]
}

/// The index probe for a workload key.
fn key_probe(k: u64) -> (Vec<Datum>, Vec<Datum>) {
    (
        vec![Datum::Int64((k % 1000) as i64)],
        vec![Datum::Int64((k / 1000) as i64)],
    )
}

/// Run one end-to-end experiment.
pub fn run_e2e(cfg: &E2eConfig) -> E2eOutcome {
    let tiered = match cfg.latency {
        Some((ssd, shared)) => TieredConfig {
            mem_capacity: 64 << 20, // small memory tier: the SSD matters
            ssd_capacity: 32 << 30,
            ssd_latency: ssd,
            shared_latency: shared,
            latency_mode: LatencyMode::Sleep,
            ..TieredConfig::default()
        },
        None => TieredConfig {
            mem_capacity: 2 << 30,
            ssd_capacity: 32 << 30,
            ..TieredConfig::default()
        },
    };
    let storage = Arc::new(TieredStorage::new(SharedStorage::in_memory(), tiered));
    let engine = WildfireEngine::create(
        storage,
        Arc::new(iot_table()),
        EngineConfig {
            n_shards: 1,
            shard: ShardConfig::default(),
            groom_interval: cfg.groom_every,
            post_groom_interval: if cfg.post_groom {
                cfg.post_groom_every
            } else {
                Duration::from_secs(86_400) // §8.4.4: post-groomer disabled
            },
            groom_trigger_rows: 4096,
            maintenance: Some(MaintenanceConfig {
                workers: 2,
                janitor_interval: Duration::from_millis(100),
                // Figure 14 controls purging manually.
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            }),
        },
    )
    .expect("create engine");
    let daemons = engine.start_daemons();

    let stop = Arc::new(AtomicBool::new(false));
    let keys_created = Arc::new(AtomicU64::new(0));
    let ingested = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();

    // Writer: `rate` records/second in 100 ms ticks, IoT update mix.
    let writer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let keys_created = Arc::clone(&keys_created);
        let ingested = Arc::clone(&ingested);
        let per_tick = cfg.rate / 10;
        let p = cfg.p_update;
        let seed = cfg.seed;
        std::thread::spawn(move || {
            let mut model = IotUpdateModel::new(p, per_tick.max(1), seed);
            while !stop.load(Ordering::Relaxed) {
                let tick_start = Instant::now();
                let batch = model.next_cycle();
                let rows: Vec<Vec<Datum>> = batch.iter().map(|&(k, _)| key_row(k)).collect();
                let n = rows.len() as u64;
                engine.upsert_many(rows).expect("upsert");
                ingested.fetch_add(n, Ordering::Relaxed);
                keys_created.store(model.keys_created(), Ordering::Release);
                if let Some(rest) = Duration::from_millis(100).checked_sub(tick_start.elapsed()) {
                    std::thread::sleep(rest);
                }
            }
        })
    };

    // Purger (Figure 14): re-apply the purge mode every window, because the
    // pipeline keeps producing freshly cached runs.
    let purger = (cfg.purge != PurgeMode::None).then(|| {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let mode = cfg.purge;
        let window = cfg.window;
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let idx = engine.shards()[0].index();
                let max = idx.config().max_level();
                let target = match mode {
                    PurgeMode::None => max,
                    PurgeMode::Half => max / 2,
                    PurgeMode::All => 0,
                };
                for level in (target..=max).rev() {
                    let _ = idx.purge_level(level);
                }
                if mode == PurgeMode::All {
                    let _ = idx.purge_level(0);
                }
                std::thread::sleep(window / 2);
            }
        })
    });

    // Readers: continuous random batched lookups; samples = (elapsed-at,
    // batch latency).
    let samples: Arc<Mutex<Vec<(f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut readers = Vec::new();
    for r in 0..cfg.readers {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let keys_created = Arc::clone(&keys_created);
        let samples = Arc::clone(&samples);
        let batch = cfg.batch;
        let seed = cfg.seed + 1000 + r as u64;
        readers.push(std::thread::spawn(move || {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut local = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let domain = keys_created.load(Ordering::Acquire);
                if domain == 0 {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                let probes: Vec<(Vec<Datum>, Vec<Datum>)> = (0..batch)
                    .map(|_| key_probe(rng.random_range(0..domain)))
                    .collect();
                let shard = &engine.shards()[0];
                let ts = shard.read_ts();
                let q0 = Instant::now();
                let out = shard
                    .index()
                    .batch_lookup(&probes, ts)
                    .expect("batch lookup");
                let dt = q0.elapsed();
                std::hint::black_box(&out);
                local.push((t0.elapsed().as_secs_f64(), dt.as_secs_f64()));
            }
            samples.lock().extend(local);
        }));
    }

    std::thread::sleep(Duration::from_secs(cfg.seconds));
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer");
    if let Some(p) = purger {
        p.join().expect("purger");
    }
    for r in readers {
        r.join().expect("reader");
    }
    daemons.shutdown();

    // Aggregate into windows.
    let samples = samples.lock();
    let n_windows = (cfg.seconds as f64 / cfg.window.as_secs_f64()).ceil() as usize;
    let mut sums = vec![0.0f64; n_windows];
    let mut counts = vec![0u64; n_windows];
    for &(at, lat) in samples.iter() {
        let w = ((at / cfg.window.as_secs_f64()) as usize).min(n_windows - 1);
        sums[w] += lat;
        counts[w] += 1;
    }
    let window_latency = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { f64::NAN })
        .collect();

    E2eOutcome {
        window_latency,
        ingested: ingested.load(Ordering::Relaxed),
        batches: samples.len() as u64,
    }
}
