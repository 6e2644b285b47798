//! The engine's maintenance-job executor: how each [`Job`] kind maps onto
//! the Wildfire pipeline (Figure 1 + §5), and what each job schedules next.
//! The daemon's workers and [`crate::WildfireEngine::quiesce`] both run
//! jobs through [`EngineExecutor::run`]; a job's `follow_ups` are the only
//! way one job schedules another.
//!
//! | job | work | typical trigger |
//! |-----|------|-----------------|
//! | `Groom` | [`Shard::groom`] — drain the live zone into a groomed block + L0 run | upsert backlog, groom tick |
//! | `Merge` | [`umzi_core::UmziIndex::merge_at`] on every index of the shard | groom, evolve or merge follow-up, backpressure relief |
//! | `Evolve` | apply pending evolves, then [`Shard::post_groom`] + apply again | post-groom tick, backpressure relief |
//! | `RetireDeprecatedBlocks` | graveyard GC on every index, janitor block retirement, parked-delete retry, adaptive cache maintenance | janitor tick, merge or evolve follow-up |
//!
//! Every job but the janitor reports the shard-max level-0 run count back
//! to the daemon so the ingest backpressure gate tracks reality without
//! polling.

use std::sync::Arc;

use umzi_core::{Job, JobExecutor, JobOutcome, JobResult, UmziError};

use crate::shard::Shard;
use crate::Result;

/// The level-0 run count the backpressure gate watches: the worst shard
/// (queries against that shard pay for every one of its runs). The ingest
/// path and the executor both read the gate's load here.
pub(crate) fn max_l0_runs(shards: &[Arc<Shard>]) -> usize {
    shards
        .iter()
        .map(|s| s.index().level0_run_count())
        .max()
        .unwrap_or(0)
}

pub(crate) struct EngineExecutor {
    shards: Vec<Arc<Shard>>,
    /// Re-groom immediately (without waiting for the tick) while the live
    /// zone holds at least this many records — the same threshold at which
    /// an upsert enqueues a groom.
    groom_trigger_rows: usize,
    adaptive_cache: bool,
}

impl EngineExecutor {
    pub(crate) fn new(
        shards: Vec<Arc<Shard>>,
        groom_trigger_rows: usize,
        adaptive_cache: bool,
    ) -> EngineExecutor {
        EngineExecutor {
            shards,
            groom_trigger_rows,
            adaptive_cache,
        }
    }

    /// Run one job on the calling thread and report what it did and what
    /// should run next.
    pub(crate) fn run(&self, job: Job) -> Result<JobOutcome> {
        let shard = &self.shards[job.shard()];
        match job {
            Job::Groom { shard: si } => {
                let Some(report) = shard.groom()? else {
                    return Ok(JobOutcome::idle());
                };
                let mut follow_ups = vec![Job::Merge {
                    shard: si,
                    level: 0,
                }];
                if shard.live().len() >= self.groom_trigger_rows {
                    follow_ups.push(Job::Groom { shard: si });
                }
                Ok(JobOutcome {
                    follow_ups,
                    items_moved: report.rows as u64,
                    bytes_moved: report.block_bytes,
                    did_work: true,
                    l0_runs: Some(max_l0_runs(&self.shards)),
                })
            }
            Job::Merge { shard: si, level } => {
                let mut entries = 0u64;
                let mut bytes = 0u64;
                let mut merged = false;
                for idx in shard.indexes() {
                    match idx.merge_at(level) {
                        Ok(Some(report)) => {
                            merged = true;
                            entries += report.output_entries;
                            bytes += report.output_bytes;
                        }
                        Ok(None) => {}
                        // Inputs changed concurrently; the next trigger
                        // retries.
                        Err(UmziError::MergeConflict) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                if !merged {
                    return Ok(JobOutcome::idle());
                }
                Ok(JobOutcome {
                    follow_ups: vec![
                        Job::Merge { shard: si, level },
                        Job::Merge {
                            shard: si,
                            level: level + 1,
                        },
                        // Merged-away runs land in the graveyard; let the
                        // janitor reclaim them (and any groomed blocks they
                        // were covering) promptly.
                        Job::RetireDeprecatedBlocks { shard: si },
                    ],
                    items_moved: entries,
                    bytes_moved: bytes,
                    did_work: true,
                    l0_runs: Some(max_l0_runs(&self.shards)),
                })
            }
            Job::Evolve { shard: si } => {
                // Catch up on notices published earlier, post-groom once,
                // then apply what that published (Figure 5's indexer loop,
                // compressed into one job).
                let mut applied = shard.apply_pending_evolves()?;
                let mut rows = 0u64;
                let mut bytes = 0u64;
                if let Some(report) = shard.post_groom()? {
                    rows = report.rows as u64;
                    bytes = report.block_bytes;
                    applied += shard.apply_pending_evolves()?;
                }
                if applied == 0 && rows == 0 {
                    return Ok(JobOutcome::idle());
                }
                let pg_level = shard
                    .index()
                    .zones()
                    .get(1)
                    .map(|z| z.config.min_level)
                    .unwrap_or(0);
                Ok(JobOutcome {
                    follow_ups: vec![
                        Job::RetireDeprecatedBlocks { shard: si },
                        Job::Merge {
                            shard: si,
                            level: pg_level,
                        },
                    ],
                    items_moved: rows,
                    bytes_moved: bytes,
                    did_work: true,
                    l0_runs: Some(max_l0_runs(&self.shards)),
                })
            }
            Job::RetireDeprecatedBlocks { .. } => {
                let mut reclaimed = 0u64;
                for idx in shard.indexes() {
                    reclaimed += idx.collect_garbage()? as u64;
                }
                reclaimed += shard.retire_deprecated_blocks()? as u64;
                // Re-attempt GC deletes that previously exhausted their
                // retries — leaked run/delta objects parked by
                // `note_gc_delete_failure` are eventually reclaimed here.
                let (leaked_reclaimed, _outstanding) =
                    shard.index().storage().retry_leaked_deletes(64);
                reclaimed += leaked_reclaimed as u64;
                if self.adaptive_cache {
                    shard.index().cache_maintain()?;
                }
                Ok(JobOutcome {
                    follow_ups: Vec::new(),
                    items_moved: reclaimed,
                    bytes_moved: 0,
                    did_work: reclaimed > 0,
                    l0_runs: None,
                })
            }
        }
    }
}

impl JobExecutor for EngineExecutor {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn telemetry(&self) -> Option<Arc<umzi_storage::Telemetry>> {
        // Every shard stacks on the same storage hierarchy; the first
        // shard's handle is the engine-wide one.
        self.shards
            .first()
            .map(|s| Arc::clone(s.index().storage().telemetry()))
    }

    fn execute(&self, job: Job) -> JobResult {
        Ok(self.run(job)?)
    }
}
