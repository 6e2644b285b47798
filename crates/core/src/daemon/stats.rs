//! Per-job-type maintenance counters and their snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::daemon::job::JobKind;
use crate::daemon::throttle::BackpressureStats;

/// Atomic counters for one job kind.
#[derive(Debug, Default)]
pub(crate) struct KindCounters {
    pub runs: AtomicU64,
    pub no_work: AtomicU64,
    pub failures: AtomicU64,
    pub retries: AtomicU64,
    pub quarantined: AtomicU64,
    pub items_moved: AtomicU64,
    pub bytes_moved: AtomicU64,
    pub busy_nanos: AtomicU64,
}

/// Point-in-time statistics for one job kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobKindStats {
    /// Jobs executed that found work.
    pub runs: u64,
    /// Jobs executed that found nothing to do (redundant triggers).
    pub no_work: u64,
    /// Jobs that returned an error (each failure also either schedules a
    /// retry or lands/keeps the job in quarantine).
    pub failures: u64,
    /// Failed executions re-enqueued with backoff (within the retry budget).
    pub retries: u64,
    /// Jobs moved into quarantine after exhausting the retry budget.
    pub quarantined: u64,
    /// Logical items moved (rows groomed, entries merged/evolved, blocks
    /// retired).
    pub items_moved: u64,
    /// Bytes written or freed.
    pub bytes_moved: u64,
    /// Wall-clock worker time spent in this kind.
    pub busy_nanos: u64,
}

/// All counters the daemon keeps, indexed by [`JobKind::ALL`] order.
#[derive(Debug, Default)]
pub(crate) struct DaemonCounters {
    kinds: [KindCounters; 4],
}

impl DaemonCounters {
    pub(crate) fn kind(&self, kind: JobKind) -> &KindCounters {
        let i = JobKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        &self.kinds[i]
    }

    pub(crate) fn snapshot(&self, kind: JobKind) -> JobKindStats {
        let c = self.kind(kind);
        JobKindStats {
            runs: c.runs.load(Ordering::Relaxed),
            no_work: c.no_work.load(Ordering::Relaxed),
            failures: c.failures.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            items_moved: c.items_moved.load(Ordering::Relaxed),
            bytes_moved: c.bytes_moved.load(Ordering::Relaxed),
            busy_nanos: c.busy_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the maintenance daemon for dashboards, benchmarks and
/// tests.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceStats {
    /// Per-kind counters, in [`JobKind::ALL`] order.
    pub per_kind: Vec<(JobKind, JobKindStats)>,
    /// Jobs currently pending in the queue.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub peak_queue_depth: u64,
    /// Enqueue attempts rejected because an equal job was already pending.
    pub dedup_hits: u64,
    /// Accepted enqueues.
    pub enqueued: u64,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Ingest-gate counters.
    pub backpressure: BackpressureStats,
    /// Jobs currently quarantined (failed past their retry budget and now
    /// only re-probed slowly by the janitor).
    pub quarantined_now: usize,
    /// Whether the daemon is degraded: at least one job is quarantined.
    pub degraded: bool,
    /// The quarantined jobs themselves, for diagnostics.
    pub quarantined_jobs: Vec<crate::daemon::retry::QuarantinedJob>,
    /// Per-kind high-water mark of dequeue age — how many enqueues a job of
    /// that kind waited through before a worker picked it up, in
    /// [`JobKind::ALL`] order. The starvation observable: under a fair
    /// scheduler every kind's peak stays bounded even when one shard floods
    /// the queue.
    pub peak_dequeue_age: [u64; 4],
}

impl MaintenanceStats {
    /// The stats for one kind.
    pub fn kind(&self, kind: JobKind) -> JobKindStats {
        self.per_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Peak dequeue age (enqueues waited through) for one kind.
    pub fn peak_dequeue_age(&self, kind: JobKind) -> u64 {
        self.peak_dequeue_age[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_index_by_kind() {
        let c = DaemonCounters::default();
        c.kind(JobKind::Merge).runs.fetch_add(3, Ordering::Relaxed);
        c.kind(JobKind::Groom)
            .items_moved
            .fetch_add(10, Ordering::Relaxed);
        assert_eq!(c.snapshot(JobKind::Merge).runs, 3);
        assert_eq!(c.snapshot(JobKind::Groom).items_moved, 10);
        assert_eq!(c.snapshot(JobKind::Evolve).runs, 0);
    }
}
