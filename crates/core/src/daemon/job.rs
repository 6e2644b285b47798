//! Maintenance job types and the executor contract.
//!
//! A [`Job`] names one unit of background maintenance against one shard.
//! Jobs are *descriptions*, not closures: the scheduler can deduplicate,
//! prioritize and account for them, and the embedder (the Wildfire engine)
//! supplies the [`JobExecutor`] that knows how to run each kind.
//!
//! Every job must be safe to run concurrently with itself and with any other
//! job: the underlying operations (`groom`, `merge_at`, `evolve`,
//! `collect_garbage`, deprecated-block retirement) already serialize on
//! their own fine-grained locks and tolerate losing races.

/// Result type for job execution: embedders (the Wildfire engine, external
/// users) have their own error types, so the contract is any boxed error.
pub type JobResult = std::result::Result<JobOutcome, Box<dyn std::error::Error + Send + Sync>>;

/// The kind of one maintenance job (the per-kind stats axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Drain the live zone into a groomed block + level-0 run.
    Groom,
    /// One merge attempt at a level (§5.3).
    Merge,
    /// Post-groom (when due) and apply pending evolve notices (§5.4).
    Evolve,
    /// Janitor: GC unreferenced runs and retire deferred deprecated
    /// groomed blocks whose covering runs are gone.
    RetireDeprecatedBlocks,
}

impl JobKind {
    /// All kinds, in stats-reporting order.
    pub const ALL: [JobKind; 4] = [
        JobKind::Groom,
        JobKind::Merge,
        JobKind::Evolve,
        JobKind::RetireDeprecatedBlocks,
    ];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Groom => "groom",
            JobKind::Merge => "merge",
            JobKind::Evolve => "evolve",
            JobKind::RetireDeprecatedBlocks => "retire_deprecated",
        }
    }

    /// Position in [`JobKind::ALL`]; also the index into the telemetry
    /// per-job-kind histogram array (`JOB_LABELS` follows the same order).
    pub fn index(self) -> usize {
        match self {
            JobKind::Groom => 0,
            JobKind::Merge => 1,
            JobKind::Evolve => 2,
            JobKind::RetireDeprecatedBlocks => 3,
        }
    }
}

/// One maintenance job. `shard` selects the executor's target (always 0 for
/// a standalone index daemon). Equality is identity for queue deduplication:
/// enqueueing a job equal to one already *pending* is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Job {
    /// Groom the shard's live zone once.
    Groom {
        /// Target shard.
        shard: usize,
    },
    /// Attempt one merge of `level` into `level + 1`.
    Merge {
        /// Target shard.
        shard: usize,
        /// Source level.
        level: u32,
    },
    /// Post-groom (if data is waiting) and apply pending evolves in PSN
    /// order.
    Evolve {
        /// Target shard.
        shard: usize,
    },
    /// Run the janitor: graveyard GC plus deferred deprecated-block
    /// retirement.
    RetireDeprecatedBlocks {
        /// Target shard.
        shard: usize,
    },
}

impl Job {
    /// The job's kind.
    pub fn kind(self) -> JobKind {
        match self {
            Job::Groom { .. } => JobKind::Groom,
            Job::Merge { .. } => JobKind::Merge,
            Job::Evolve { .. } => JobKind::Evolve,
            Job::RetireDeprecatedBlocks { .. } => JobKind::RetireDeprecatedBlocks,
        }
    }

    /// The target shard.
    pub fn shard(self) -> usize {
        match self {
            Job::Groom { shard }
            | Job::Merge { shard, .. }
            | Job::Evolve { shard }
            | Job::RetireDeprecatedBlocks { shard } => shard,
        }
    }

    /// Scheduling priority; lower runs first. Ordered to relieve write-path
    /// backpressure: the janitor is nearly free and unblocks deferred
    /// deletions, merges shrink the level-0 run count the ingest gate
    /// watches (lower levels first), evolve empties the groomed zone, and
    /// grooming — which *creates* level-0 runs — yields to all of them.
    pub(crate) fn priority(self) -> (u8, u32) {
        match self {
            Job::RetireDeprecatedBlocks { .. } => (0, 0),
            Job::Merge { level, .. } => (1, level),
            Job::Evolve { .. } => (2, 0),
            Job::Groom { .. } => (3, 0),
        }
    }
}

impl std::fmt::Display for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Job::Merge { shard, level } => write!(f, "merge(s{shard}, L{level})"),
            other => write!(f, "{}(s{})", other.kind().label(), other.shard()),
        }
    }
}

/// What one executed job reports back to the scheduler.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// Jobs to enqueue next (deduplicated against the pending queue).
    pub follow_ups: Vec<Job>,
    /// Logical items moved (rows groomed, entries merged/evolved, blocks
    /// retired).
    pub items_moved: u64,
    /// Bytes written or freed by the job.
    pub bytes_moved: u64,
    /// Whether the job found any work at all (idle pokes are not counted
    /// as completed work in the stats).
    pub did_work: bool,
    /// The level-0 run count observed after the job, if it may have changed
    /// it — the worker forwards this to the ingest backpressure gate.
    pub l0_runs: Option<usize>,
}

impl JobOutcome {
    /// An outcome for a job that found nothing to do.
    pub fn idle() -> JobOutcome {
        JobOutcome::default()
    }
}

/// The embedder-supplied strategy that runs jobs.
pub trait JobExecutor: Send + Sync + 'static {
    /// Number of shards jobs may target; every janitor tick enqueues its
    /// job once per shard.
    fn shard_count(&self) -> usize;

    /// Execute one job. Errors are counted and swallowed by the worker (a
    /// failed maintenance job is retried by the next trigger, never fatal
    /// to the daemon).
    fn execute(&self, job: Job) -> JobResult;

    /// Telemetry sink for per-job-kind latency histograms. Executors backed
    /// by a [`umzi_storage::TieredStorage`] return its handle so job timings
    /// land on the same surface as query and storage metrics; the default
    /// (`None`) keeps bare executors — tests, external embedders — free of
    /// any instrumentation cost.
    fn telemetry(&self) -> Option<std::sync::Arc<umzi_storage::Telemetry>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order_maintenance_before_grooming() {
        let retire = Job::RetireDeprecatedBlocks { shard: 0 };
        let merge0 = Job::Merge { shard: 0, level: 0 };
        let merge3 = Job::Merge { shard: 0, level: 3 };
        let evolve = Job::Evolve { shard: 0 };
        let groom = Job::Groom { shard: 0 };
        assert!(retire.priority() < merge0.priority());
        assert!(merge0.priority() < merge3.priority());
        assert!(merge3.priority() < evolve.priority());
        assert!(evolve.priority() < groom.priority());
    }

    #[test]
    fn kind_index_matches_all_order_and_telemetry_labels() {
        for (i, k) in JobKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(k.label(), umzi_storage::telemetry::JOB_LABELS[i]);
        }
    }

    #[test]
    fn jobs_are_identity_deduplicable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        assert!(set.insert(Job::Merge { shard: 1, level: 2 }));
        assert!(!set.insert(Job::Merge { shard: 1, level: 2 }));
        assert!(set.insert(Job::Merge { shard: 1, level: 3 }));
        assert!(set.insert(Job::Groom { shard: 1 }));
    }
}
