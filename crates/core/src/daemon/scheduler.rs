//! The prioritized, deduplicating, shard-fair job queue.
//!
//! Jobs live in one mutex-protected heap *per shard* with a shared condvar:
//! workers block on [`JobQueue::pop`] until a job or shutdown arrives.
//! Enqueueing a job equal to one already pending is a counted no-op
//! (redundant triggers are the common case — every upsert may poke `Groom`,
//! every build may poke `Merge`), so the queue depth stays proportional to
//! the *distinct* outstanding work, not the trigger rate.
//!
//! # Weighted-aging dequeue
//!
//! A strict global (priority, seq) order lets one hot shard starve the rest:
//! its merge chain re-enqueues level-0 merges forever, and a cold shard's
//! `Groom` (the lowest priority) never runs even though its live zone keeps
//! growing. `pop` instead scores each shard's head job as
//!
//! ```text
//! score = priority_class * AGE_WEIGHT - age        (saturating at 0)
//! ```
//!
//! where `age` is the number of enqueues that happened since the job was
//! queued (a virtual clock — no wall time), and takes the minimum
//! `(score, priority, seq)` across shard heads. A freshly queued job keeps
//! its class order, but every [`AGE_WEIGHT`] enqueues a waiting job
//! effectively climbs one priority class, so a starved groom overtakes a
//! stream of fresh merges after a bounded number of pushes.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::daemon::job::Job;

/// Enqueues a job must wait through to gain one priority class (see the
/// module docs). Small enough that starvation is bounded by tens of pushes,
/// large enough that the class order holds under ordinary interleaving.
pub(crate) const AGE_WEIGHT: u64 = 32;

struct QueuedJob {
    job: Job,
    priority: (u8, u32),
    seq: u64,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Max-heap: smaller (priority, seq) must compare greater.
        other
            .priority
            .cmp(&self.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct QueueState {
    /// Per-shard pending heaps; `BTreeMap` so candidate iteration (and thus
    /// equal-score tie-breaking) is deterministic.
    shards: BTreeMap<usize, BinaryHeap<QueuedJob>>,
    pending: HashSet<Job>,
    /// Jobs popped but not yet reported done (drain waits on these too).
    in_flight: usize,
    /// Once set, `push` rejects new work; workers drain what remains.
    closing: bool,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.shards.values().map(BinaryHeap::len).sum()
    }
}

/// The shared scheduler state between enqueuers and the worker pool.
pub(crate) struct JobQueue {
    state: std::sync::Mutex<QueueState>,
    cv: std::sync::Condvar,
    seq: AtomicU64,
    /// Deduplicated enqueue attempts (observability).
    pub(crate) dedup_hits: AtomicU64,
    /// Accepted enqueues.
    pub(crate) enqueued: AtomicU64,
    /// High-water mark of the pending-queue depth.
    pub(crate) peak_depth: AtomicU64,
    /// Per-kind high-water mark of dequeue age (enqueues waited through
    /// before being popped), indexed by [`crate::daemon::JobKind::index`].
    /// The starvation observable: a starved kind's age grows without bound.
    pub(crate) peak_dequeue_age: [AtomicU64; 4],
}

impl JobQueue {
    pub(crate) fn new() -> JobQueue {
        JobQueue {
            state: std::sync::Mutex::new(QueueState::default()),
            cv: std::sync::Condvar::new(),
            seq: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            peak_depth: AtomicU64::new(0),
            peak_dequeue_age: [const { AtomicU64::new(0) }; 4],
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueue a job unless an equal one is already pending or the queue is
    /// shutting down. Returns whether the job was accepted.
    pub(crate) fn push(&self, job: Job) -> bool {
        self.push_inner(job, false)
    }

    /// Worker-side enqueue for follow-ups: still accepted while the
    /// shutdown drain is in progress (maintenance chains are finite — every
    /// merge strictly shrinks the structure — so the drain converges).
    pub(crate) fn push_follow_up(&self, job: Job) -> bool {
        self.push_inner(job, true)
    }

    fn push_inner(&self, job: Job, follow_up: bool) -> bool {
        let mut s = self.lock();
        if s.closing && !follow_up {
            return false;
        }
        if !s.pending.insert(job) {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        s.shards.entry(job.shard()).or_default().push(QueuedJob {
            job,
            priority: job.priority(),
            seq,
        });
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.peak_depth
            .fetch_max(s.depth() as u64, Ordering::Relaxed);
        drop(s);
        // notify_all, not notify_one: pop() workers and wait_idle() waiters
        // share this condvar, and a single wakeup could land on an
        // idle-waiter (which just re-waits) while the job sat unexecuted
        // until the next push.
        self.cv.notify_all();
        true
    }

    /// Pick the shard whose head job wins the (score, priority, seq) race.
    fn select_shard(&self, s: &QueueState) -> Option<usize> {
        let now = self.seq.load(Ordering::Relaxed);
        let mut best: Option<(u64, (u8, u32), u64, usize)> = None;
        for (&shard, heap) in &s.shards {
            let Some(head) = heap.peek() else { continue };
            let score = (u64::from(head.priority.0) * AGE_WEIGHT).saturating_sub(now - head.seq);
            let key = (score, head.priority, head.seq, shard);
            if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
                best = Some(key);
            }
        }
        best.map(|(_, _, _, shard)| shard)
    }

    /// Block until a job is available (returning it) or until shutdown with
    /// an empty queue (returning `None`). The caller must
    /// pair every `Some` with a later [`JobQueue::done`].
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut s = self.lock();
        loop {
            if let Some(shard) = self.select_shard(&s) {
                let heap = s.shards.get_mut(&shard).expect("selected shard exists");
                let q = heap.pop().expect("selected head exists");
                if heap.is_empty() {
                    s.shards.remove(&shard);
                }
                s.pending.remove(&q.job);
                s.in_flight += 1;
                let age = self.seq.load(Ordering::Relaxed).saturating_sub(q.seq);
                self.peak_dequeue_age[q.job.kind().index()].fetch_max(age, Ordering::Relaxed);
                return Some(q.job);
            }
            if s.closing {
                return None;
            }
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Report a popped job finished (after its follow-ups were pushed).
    pub(crate) fn done(&self) {
        let mut s = self.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        let idle = s.in_flight == 0 && s.shards.is_empty();
        drop(s);
        if idle {
            self.cv.notify_all();
        }
    }

    /// Pending jobs (not counting in-flight).
    pub(crate) fn depth(&self) -> usize {
        self.lock().depth()
    }

    /// Whether nothing is pending or in flight.
    pub(crate) fn is_idle(&self) -> bool {
        let s = self.lock();
        s.shards.is_empty() && s.in_flight == 0
    }

    /// Block until the queue is idle (pending and in-flight both empty) or
    /// `timeout` elapses. Returns whether idleness was reached.
    pub(crate) fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if s.shards.is_empty() && s.in_flight == 0 {
                return true;
            }
            let Some(rest) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .cv
                .wait_timeout(s, rest.min(Duration::from_millis(20)))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
        }
    }

    /// Stop accepting new jobs; workers drain the remaining queue (and the
    /// follow-ups it enqueues), then exit.
    pub(crate) fn close(&self) {
        self.lock().closing = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Without pending-time aging the order is strict (priority, FIFO).
    #[test]
    fn pops_in_priority_then_fifo_order() {
        let q = JobQueue::new();
        q.push(Job::Groom { shard: 0 });
        q.push(Job::Merge { shard: 0, level: 2 });
        q.push(Job::Merge { shard: 0, level: 0 });
        q.push(Job::RetireDeprecatedBlocks { shard: 0 });
        q.push(Job::Evolve { shard: 0 });
        q.push(Job::Groom { shard: 1 });

        let order: Vec<Job> = std::iter::from_fn(|| {
            let j = if q.is_idle() { None } else { q.pop() };
            if j.is_some() {
                q.done();
            }
            j
        })
        .take(6)
        .collect();
        assert_eq!(
            order,
            vec![
                Job::RetireDeprecatedBlocks { shard: 0 },
                Job::Merge { shard: 0, level: 0 },
                Job::Merge { shard: 0, level: 2 },
                Job::Evolve { shard: 0 },
                Job::Groom { shard: 0 },
                Job::Groom { shard: 1 },
            ]
        );
    }

    #[test]
    fn aged_groom_overtakes_fresh_merges_in_fair_mode() {
        let q = JobQueue::new();
        q.push(Job::Groom { shard: 1 });
        // A hot shard keeps producing fresh merges; each pop sees one merge
        // and the ever-older groom.
        let mut groom_at = None;
        for i in 0..200u32 {
            q.push(Job::Merge { shard: 0, level: i });
            let job = q.pop().expect("queue is non-empty");
            q.done();
            if matches!(job, Job::Groom { .. }) {
                groom_at = Some(i);
                break;
            }
        }
        let at = groom_at.expect("weighted aging must surface the groom");
        // Groom (class 3) starts AGE_WEIGHT * (3 - 1) enqueues behind a
        // fresh merge (class 1) and gains one enqueue per iteration.
        assert!(
            u64::from(at) <= 2 * AGE_WEIGHT + 2,
            "groom surfaced only at iteration {at}"
        );
        let groom_age =
            q.peak_dequeue_age[crate::daemon::JobKind::Groom.index()].load(Ordering::Relaxed);
        assert!(
            groom_age >= 2 * AGE_WEIGHT,
            "dequeue-age stat must record the wait ({groom_age})"
        );
    }

    #[test]
    fn duplicate_pending_jobs_dedup() {
        let q = JobQueue::new();
        assert!(q.push(Job::Groom { shard: 0 }));
        assert!(!q.push(Job::Groom { shard: 0 }));
        assert_eq!(q.depth(), 1);
        assert_eq!(q.dedup_hits.load(Ordering::Relaxed), 1);
        // Once popped, the same job may be enqueued again.
        assert_eq!(q.pop(), Some(Job::Groom { shard: 0 }));
        assert!(q.push(Job::Groom { shard: 0 }));
        q.done();
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobQueue::new();
        q.push(Job::Groom { shard: 0 });
        q.close();
        assert!(!q.push(Job::Groom { shard: 1 }), "closed queue rejects");
        assert_eq!(q.pop(), Some(Job::Groom { shard: 0 }), "drain continues");
        q.done();
        assert_eq!(q.pop(), None, "empty + closed terminates workers");
    }
}
