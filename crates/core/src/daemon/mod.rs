//! The background maintenance daemon (§5.1, generalized).
//!
//! The paper dedicates one thread per level plus a janitor; this subsystem
//! generalizes that into a **prioritized job scheduler**: maintenance work
//! is described as [`Job`]s (groom, merge, evolve, retire-deprecated-blocks)
//! enqueued by the embedder's ingest path and by periodic ticks,
//! deduplicated against the pending queue, and drained by a configurable
//! pool of worker threads. A finished job's [`JobOutcome::follow_ups`] (a
//! groom's level-0 merge, a merge the next level's merge, an evolve the
//! janitor) are the only way one job schedules another, so work chains
//! event-driven instead of polling. The janitor thread is the daemon's one
//! clock: it enqueues every periodic tick — its own retire tick and the
//! embedder's (the Wildfire groom and post-groom cadence) — and pumps due
//! retries.
//!
//! The daemon also owns the **write-path backpressure gate**
//! ([`Backpressure`]): ingest stalls when the level-0 run count reaches a
//! configurable high watermark and resumes at the low watermark, so
//! sustained writes cannot outrun grooming (the HTAP-survey "throttling"
//! ingredient).
//!
//! Embedders supply a [`JobExecutor`]: the Wildfire engine installs one
//! covering the full groom → merge → evolve → retire pipeline across
//! shards, and its synchronous `quiesce` runs the same executor's jobs
//! inline.

mod job;
mod retry;
mod scheduler;
mod stats;
mod throttle;

pub use job::{Job, JobExecutor, JobKind, JobOutcome, JobResult};
pub use retry::{QuarantinedJob, JOB_RETRIES, JOB_RETRY_BACKOFF, QUARANTINE_PROBE_INTERVAL};
pub use stats::{JobKindStats, MaintenanceStats};
pub use throttle::{Backpressure, BackpressureStats, STALL_TIMEOUT};

use std::sync::atomic::Ordering;
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::MaintenanceConfig;
use retry::{FailureDecision, RetryTracker};
use scheduler::JobQueue;
use stats::DaemonCounters;

/// A periodic tick the janitor enqueues: every `.0`, the job `.1(shard)`
/// for every shard.
pub type Tick = (Duration, fn(usize) -> Job);

/// Longest the janitor sleeps between retry-pump passes: retry backoffs
/// ([`JOB_RETRY_BACKOFF`] doubling) are much shorter than any tick interval,
/// so due retries must not wait for the next tick.
const RETRY_PUMP: Duration = Duration::from_millis(10);

/// The maintenance daemon: a job queue, a worker pool, the janitor clock
/// and the ingest backpressure gate. Shuts down gracefully (drains the
/// queue) on [`MaintenanceDaemon::shutdown`] or drop.
pub struct MaintenanceDaemon {
    queue: Arc<JobQueue>,
    counters: Arc<DaemonCounters>,
    gate: Arc<Backpressure>,
    retry: Arc<RetryTracker>,
    config: MaintenanceConfig,
    /// Dropping the sender wakes and stops the janitor.
    stop_janitor: parking_lot::Mutex<Option<Sender<()>>>,
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl MaintenanceDaemon {
    /// Spawn `config.workers` worker threads plus the janitor. Besides its
    /// own retire tick (`config.janitor_interval`), the janitor enqueues
    /// `job(shard)` for every shard each `interval` of `ticks`; every tick
    /// first fires at spawn.
    pub fn spawn(
        executor: Arc<dyn JobExecutor>,
        config: MaintenanceConfig,
        ticks: &[Tick],
    ) -> Arc<MaintenanceDaemon> {
        let retry = RetryTracker::new(JOB_RETRIES, JOB_RETRY_BACKOFF, QUARANTINE_PROBE_INTERVAL);
        Self::with_timing(executor, config, ticks, retry)
    }

    /// [`Self::spawn`] with the retry budget, backoff and quarantine probe
    /// interval spelled out, so unit tests can quarantine and release a job
    /// without sleeping out the shipped second.
    pub(crate) fn with_timing(
        executor: Arc<dyn JobExecutor>,
        config: MaintenanceConfig,
        ticks: &[Tick],
        retry: RetryTracker,
    ) -> Arc<MaintenanceDaemon> {
        let queue = Arc::new(JobQueue::new());
        let counters = Arc::new(DaemonCounters::default());
        let gate = Arc::new(Backpressure::new(
            config.l0_high_watermark,
            config.l0_low_watermark,
        ));
        gate.set_enabled(true);
        let retry = Arc::new(retry);
        let mut threads = Vec::with_capacity(config.workers + 1);

        for w in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let counters = Arc::clone(&counters);
            let executor = Arc::clone(&executor);
            let gate = Arc::clone(&gate);
            let retry = Arc::clone(&retry);
            let telemetry = executor.telemetry();
            let throttle = config.throttle;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("umzi-maint-{w}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let kind = counters.kind(job.kind());
                            let t0 = Instant::now();
                            let mut worked = false;
                            match executor.execute(job) {
                                Ok(outcome) => {
                                    retry.on_success(job);
                                    if outcome.did_work {
                                        worked = true;
                                        kind.runs.fetch_add(1, Ordering::Relaxed);
                                        kind.items_moved
                                            .fetch_add(outcome.items_moved, Ordering::Relaxed);
                                        kind.bytes_moved
                                            .fetch_add(outcome.bytes_moved, Ordering::Relaxed);
                                    } else {
                                        kind.no_work.fetch_add(1, Ordering::Relaxed);
                                    }
                                    for f in outcome.follow_ups {
                                        queue.push_follow_up(f);
                                    }
                                    if let Some(l0_runs) = outcome.l0_runs {
                                        gate.update(l0_runs);
                                    }
                                }
                                Err(e) => {
                                    // Never fatal: the job is re-enqueued
                                    // with backoff until its retry budget
                                    // runs out, then quarantined for slow
                                    // janitor re-probes.
                                    kind.failures.fetch_add(1, Ordering::Relaxed);
                                    match retry.on_failure(job, &e.to_string(), Instant::now()) {
                                        FailureDecision::Retry { .. } => {
                                            kind.retries.fetch_add(1, Ordering::Relaxed);
                                        }
                                        FailureDecision::Quarantined { newly } => {
                                            if newly {
                                                kind.quarantined.fetch_add(1, Ordering::Relaxed);
                                            }
                                        }
                                    }
                                }
                            }
                            let elapsed = t0.elapsed().as_nanos() as u64;
                            kind.busy_nanos.fetch_add(elapsed, Ordering::Relaxed);
                            if let Some(tel) = &telemetry {
                                if tel.is_enabled() {
                                    tel.ops().jobs[job.kind().index()].record(elapsed);
                                }
                            }
                            queue.done();
                            if worked {
                                if let Some(pause) = throttle {
                                    std::thread::sleep(pause);
                                }
                            }
                        }
                    })
                    .expect("spawn maintenance worker"),
            );
        }

        // The janitor: every tick due — its own retire tick, which catches
        // deferred deprecated blocks whose covering runs were GC'd since the
        // last evolve, then the embedder's — enqueues its job for every
        // shard. Between ticks it is the retry pump: it moves failed jobs
        // whose backoff has elapsed (and quarantined jobs due a slow
        // re-probe) back into the queue, so no worker ever sleeps out a
        // backoff.
        let (stop_janitor, stopped) = std::sync::mpsc::channel::<()>();
        {
            let queue = Arc::clone(&queue);
            let retry = Arc::clone(&retry);
            let shards = executor.shard_count();
            let retire: Tick = (config.janitor_interval, |shard| {
                Job::RetireDeprecatedBlocks { shard }
            });
            let start = Instant::now();
            let mut ticks: Vec<_> = std::iter::once(retire)
                .chain(ticks.iter().copied())
                .map(|(every, job)| (every, job, start))
                .collect();
            threads.push(
                std::thread::Builder::new()
                    .name("umzi-janitor".into())
                    .spawn(move || loop {
                        let now = Instant::now();
                        for (every, job, due) in &mut ticks {
                            if now >= *due {
                                for shard in 0..shards {
                                    queue.push(job(shard));
                                }
                                *due = now + *every;
                            }
                        }
                        for job in retry.due(now) {
                            queue.push(job);
                        }
                        let next_tick = ticks.iter().map(|t| t.2).min().expect("retire tick");
                        let wait = next_tick.saturating_duration_since(Instant::now());
                        if stopped.recv_timeout(wait.min(RETRY_PUMP))
                            != Err(RecvTimeoutError::Timeout)
                        {
                            break;
                        }
                    })
                    .expect("spawn janitor"),
            );
        }

        Arc::new(MaintenanceDaemon {
            queue,
            counters,
            gate,
            retry,
            config,
            stop_janitor: parking_lot::Mutex::new(Some(stop_janitor)),
            threads: parking_lot::Mutex::new(threads),
        })
    }

    /// Enqueue a job; returns `false` if it was deduplicated against an
    /// equal pending job or the daemon is shutting down.
    pub fn enqueue(&self, job: Job) -> bool {
        self.queue.push(job)
    }

    /// The ingest backpressure gate.
    pub fn backpressure(&self) -> &Arc<Backpressure> {
        &self.gate
    }

    /// The configuration the daemon was spawned with.
    pub fn config(&self) -> &MaintenanceConfig {
        &self.config
    }

    /// Whether no job is pending or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_idle()
    }

    /// Block until the queue is idle or `timeout` elapses; returns whether
    /// idleness was reached. (Quiesce points in tests and benchmarks.)
    pub fn wait_idle(&self, timeout: std::time::Duration) -> bool {
        self.queue.wait_idle(timeout)
    }

    /// Snapshot the daemon's statistics.
    pub fn stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            per_kind: JobKind::ALL
                .iter()
                .map(|k| (*k, self.counters.snapshot(*k)))
                .collect(),
            queue_depth: self.queue.depth(),
            peak_queue_depth: self.queue.peak_depth.load(Ordering::Relaxed),
            dedup_hits: self.queue.dedup_hits.load(Ordering::Relaxed),
            enqueued: self.queue.enqueued.load(Ordering::Relaxed),
            workers: self.config.workers.max(1),
            backpressure: self.gate.stats(),
            quarantined_now: self.retry.quarantined_count(),
            degraded: self.retry.quarantined_count() > 0,
            quarantined_jobs: self.retry.quarantined_jobs(),
            peak_dequeue_age: std::array::from_fn(|i| {
                self.queue.peak_dequeue_age[i].load(Ordering::Relaxed)
            }),
        }
    }

    /// Whether any job is quarantined (failed past its retry budget); the
    /// write path uses this to label backpressure errors.
    pub fn is_degraded(&self) -> bool {
        self.retry.quarantined_count() > 0
    }

    /// Graceful shutdown: stop the janitor, stop accepting new jobs, let the
    /// workers drain the queue, then join everything. The queue is empty
    /// afterwards.
    pub fn shutdown(&self) {
        self.stop_janitor.lock().take();
        // Writers must not stay stalled with no one left to relieve them.
        self.gate.set_enabled(false);
        self.queue.close();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for MaintenanceDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MergePolicy, UmziConfig};
    use crate::index::UmziIndex;
    use std::time::Duration;
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_run::{IndexEntry, Rid, ZoneId};
    use umzi_storage::TieredStorage;

    fn test_index(k: usize, t: u64) -> Arc<UmziIndex> {
        let storage = Arc::new(TieredStorage::in_memory());
        let def = Arc::new(
            IndexDef::builder("t")
                .equality("k", ColumnType::Int64)
                .sort("s", ColumnType::Int64)
                .build()
                .unwrap(),
        );
        let mut cfg = UmziConfig::two_zone("idx");
        cfg.merge = MergePolicy { k, t };
        UmziIndex::create(storage, def, cfg).unwrap()
    }

    /// Build a level-0 run over `n` entries of `block`, then enqueue the
    /// level-0 merge, as an embedder's groom job returns it as a follow-up.
    fn add_groom(daemon: &MaintenanceDaemon, idx: &UmziIndex, block: u64, n: i64) {
        let es: Vec<IndexEntry> = (0..n)
            .map(|i| {
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(i)],
                    &[Datum::Int64(block as i64)],
                    block * 100 + i as u64,
                    Rid::new(ZoneId::GROOMED, block, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        idx.build_groomed_run(es, block, block).unwrap();
        daemon.enqueue(Job::Merge { shard: 0, level: 0 });
    }

    /// The merge arm of an embedder's executor over one bare index; every
    /// other kind is idle.
    struct MergeExecutor(Arc<UmziIndex>);

    impl JobExecutor for MergeExecutor {
        fn shard_count(&self) -> usize {
            1
        }

        fn execute(&self, job: Job) -> JobResult {
            let Job::Merge { level, .. } = job else {
                return Ok(JobOutcome::idle());
            };
            match self.0.merge_at(level) {
                Ok(Some(report)) => Ok(JobOutcome {
                    follow_ups: vec![
                        Job::Merge { shard: 0, level },
                        Job::Merge {
                            shard: 0,
                            level: level + 1,
                        },
                    ],
                    items_moved: report.output_entries,
                    bytes_moved: report.output_bytes,
                    did_work: true,
                    ..JobOutcome::default()
                }),
                Ok(None) | Err(crate::error::UmziError::MergeConflict) => Ok(JobOutcome::idle()),
                Err(e) => Err(e.into()),
            }
        }
    }

    /// A daemon merging `index` in the background: each merge enqueues the
    /// next, and [`add_groom`] pokes level 0.
    fn spawn_merging(index: &Arc<UmziIndex>, config: MaintenanceConfig) -> Arc<MaintenanceDaemon> {
        MaintenanceDaemon::spawn(Arc::new(MergeExecutor(Arc::clone(index))), config, &[])
    }

    /// Ported from the old `Maintainer` test: builds trigger background
    /// merges on worker threads, nothing is lost, and shutdown drains the
    /// graveyard work.
    #[test]
    fn background_merges_happen() {
        let idx = test_index(2, 1000);
        let daemon = spawn_merging(
            &idx,
            MaintenanceConfig {
                workers: 2,
                janitor_interval: Duration::from_millis(5),
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            },
        );

        for b in 1..=8u64 {
            add_groom(&daemon, &idx, b, 20);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if idx.counters().merges.load(Ordering::Relaxed) >= 3 && daemon.is_idle() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = daemon.stats();
        daemon.shutdown();

        let s = idx.stats();
        assert!(s.merges >= 3, "background merges: {}", s.merges);
        assert_eq!(s.total_entries, 160, "no entries lost");
        assert!(stats.kind(JobKind::Merge).runs >= 3);
        assert!(stats.kind(JobKind::Merge).items_moved > 0);
        // With every thread stopped one collection drains the graveyard.
        idx.collect_garbage().unwrap();
        assert_eq!(idx.graveyard_len(), 0);
    }

    #[test]
    fn shutdown_drains_queue() {
        let idx = test_index(2, 2);
        let daemon = spawn_merging(
            &idx,
            MaintenanceConfig {
                workers: 1,
                janitor_interval: Duration::from_secs(3600),
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            },
        );
        for b in 1..=12u64 {
            add_groom(&daemon, &idx, b, 10);
        }
        daemon.shutdown();
        assert!(daemon.is_idle(), "graceful shutdown leaves the queue empty");
        assert!(
            !daemon.enqueue(Job::Groom { shard: 0 }),
            "closed after shutdown"
        );
        // Drained queue ⇒ all triggered merges actually ran.
        assert!(idx.stats().merges >= 4);
    }

    /// Fails each job a fixed number of times before succeeding; a
    /// negative-testing executor for the retry/quarantine pipeline.
    struct FlakyExecutor {
        failures_per_job: u64,
        attempts: AtomicU64,
        successes: AtomicU64,
    }

    use std::sync::atomic::AtomicU64;

    impl JobExecutor for FlakyExecutor {
        fn shard_count(&self) -> usize {
            1
        }

        fn execute(&self, job: Job) -> JobResult {
            // The janitor tick enqueues retire jobs on its own; keep the
            // flakiness (and the counters) scoped to the groom under test.
            if job.kind() != JobKind::Groom {
                return Ok(JobOutcome::idle());
            }
            let n = self.attempts.fetch_add(1, Ordering::SeqCst);
            if n < self.failures_per_job {
                Err(format!("injected failure #{n}").into())
            } else {
                self.successes.fetch_add(1, Ordering::SeqCst);
                Ok(JobOutcome {
                    did_work: true,
                    ..JobOutcome::default()
                })
            }
        }
    }

    /// A one-worker daemon over `executor` with a retry budget of 2, 1 ms
    /// backoff and a 200 ms quarantine probe: far longer than the test
    /// thread can plausibly be descheduled between observing the quarantine
    /// and asserting on it, so no probe can release the job in between.
    fn spawn_flaky(executor: &Arc<FlakyExecutor>) -> Arc<MaintenanceDaemon> {
        let config = MaintenanceConfig {
            workers: 1,
            janitor_interval: Duration::from_secs(3600),
            adaptive_cache: false,
            ..MaintenanceConfig::default()
        };
        let retry = RetryTracker::new(2, Duration::from_millis(1), Duration::from_millis(200));
        MaintenanceDaemon::with_timing(Arc::clone(executor) as _, config, &[], retry)
    }

    #[test]
    fn failed_jobs_retry_with_backoff_then_succeed() {
        let executor = Arc::new(FlakyExecutor {
            failures_per_job: 2,
            attempts: AtomicU64::new(0),
            successes: AtomicU64::new(0),
        });
        let daemon = spawn_flaky(&executor);
        daemon.enqueue(Job::Groom { shard: 0 });

        let deadline = Instant::now() + Duration::from_secs(5);
        while executor.successes.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = daemon.stats();
        daemon.shutdown();

        assert_eq!(executor.successes.load(Ordering::SeqCst), 1);
        let groom = stats.kind(JobKind::Groom);
        assert_eq!(groom.failures, 2);
        assert_eq!(groom.retries, 2, "both failures were within the budget");
        assert_eq!(groom.quarantined, 0);
        assert!(!stats.degraded);
        assert_eq!(stats.quarantined_now, 0);
    }

    #[test]
    fn persistent_failure_quarantines_then_probe_recovers() {
        // Fail far past the retry budget (2), so the job quarantines; the
        // janitor's slow probe eventually hits the success threshold and
        // releases it.
        let executor = Arc::new(FlakyExecutor {
            failures_per_job: 5,
            attempts: AtomicU64::new(0),
            successes: AtomicU64::new(0),
        });
        let daemon = spawn_flaky(&executor);
        daemon.enqueue(Job::Groom { shard: 0 });

        // Phase 1: the job must land in quarantine (3 attempts: initial +
        // 2 retries, all failing).
        let deadline = Instant::now() + Duration::from_secs(5);
        while !daemon.is_degraded() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(daemon.is_degraded(), "job should quarantine");
        let mid = daemon.stats();
        assert_eq!(mid.quarantined_now, 1);
        assert_eq!(mid.kind(JobKind::Groom).quarantined, 1);
        assert_eq!(mid.quarantined_jobs.len(), 1);
        assert_eq!(mid.quarantined_jobs[0].job, Job::Groom { shard: 0 });
        assert!(mid.quarantined_jobs[0].last_error.contains("injected"));

        // Phase 2: quarantine probes keep re-running the job; once the
        // executor starts succeeding (the third probe) the daemon recovers.
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.is_degraded() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = daemon.stats();
        daemon.shutdown();

        assert_eq!(executor.successes.load(Ordering::SeqCst), 1);
        assert!(!stats.degraded, "probe success releases the quarantine");
        assert_eq!(stats.quarantined_now, 0);
        assert_eq!(
            stats.kind(JobKind::Groom).quarantined,
            1,
            "the quarantine transition is counted once"
        );
    }

    #[test]
    fn stats_surface_queue_and_dedup() {
        let idx = test_index(100, 1000); // merges never fire
        let daemon = spawn_merging(
            &idx,
            MaintenanceConfig {
                workers: 1,
                janitor_interval: Duration::from_secs(3600),
                adaptive_cache: false,
                ..MaintenanceConfig::default()
            },
        );
        for b in 1..=4u64 {
            add_groom(&daemon, &idx, b, 5);
        }
        assert!(daemon.wait_idle(Duration::from_secs(5)));
        let s = daemon.stats();
        assert!(s.enqueued > 0);
        assert_eq!(s.queue_depth, 0);
        assert!(s.peak_queue_depth >= 1);
        daemon.shutdown();
    }
}
