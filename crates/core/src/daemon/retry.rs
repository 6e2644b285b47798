//! Failed-job retry and quarantine bookkeeping.
//!
//! A maintenance job that errors is not dropped on the floor: the daemon
//! re-enqueues it with exponential backoff up to a per-job budget. A job
//! that exhausts the budget lands in a **quarantine** list, which the
//! janitor re-probes on a slow cadence — so a persistently failing groom
//! (e.g. shared storage down) keeps getting a chance to recover without
//! hammering the store, and the daemon reports itself *degraded* while any
//! job is quarantined. A quarantined job that finally succeeds is released.
//!
//! Backoff is implemented by deferral, not by sleeping a worker: the tracker
//! records when each retry becomes due and the janitor tick moves due jobs
//! back into the queue, so a burst of failures never parks the worker pool.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::daemon::job::Job;

/// Retries a failed job gets before it is quarantined. With
/// [`JOB_RETRY_BACKOFF`] doubling, the three retries land within ~70 ms of
/// the first failure: enough to ride out a transient store hiccup, short
/// enough that a store that is down is reported (`degraded`) promptly
/// instead of being hammered.
pub const JOB_RETRIES: u32 = 3;

/// Backoff before a failed job's first retry; doubles per attempt. Equal
/// to the janitor's retry-pump period, so the pump at most doubles the
/// first retry's wait.
pub const JOB_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// How often the janitor re-probes a quarantined job: one attempt per
/// second against a sick store, and a healed store is noticed within a
/// second — the same order as the §2.1 groom cadence.
pub const QUARANTINE_PROBE_INTERVAL: Duration = Duration::from_secs(1);

/// What the daemon should do about one failed execution.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FailureDecision {
    /// Budget remains: the job will be re-enqueued once its backoff elapses.
    Retry {
        /// 1-based retry ordinal.
        attempt: u32,
    },
    /// Budget exhausted (or already quarantined): the job sits in
    /// quarantine and is only re-probed slowly.
    Quarantined {
        /// Whether this failure moved the job into quarantine (as opposed
        /// to a failed re-probe of an already-quarantined job).
        newly: bool,
    },
}

#[derive(Debug)]
struct QuarantineEntry {
    failures: u32,
    last_error: String,
    next_probe: Instant,
}

#[derive(Debug, Default)]
struct TrackerState {
    /// Consecutive failures per job still within its retry budget.
    attempts: HashMap<Job, u32>,
    /// Retries waiting out their backoff: `(due, job)`.
    deferred: Vec<(Instant, Job)>,
    quarantine: HashMap<Job, QuarantineEntry>,
}

/// One quarantined job, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedJob {
    /// The job.
    pub job: Job,
    /// Consecutive failures, including re-probes.
    pub failures: u32,
    /// Message of the most recent failure.
    pub last_error: String,
}

pub(crate) struct RetryTracker {
    state: Mutex<TrackerState>,
    /// Retries before quarantine.
    budget: u32,
    /// First-retry backoff; doubles per attempt.
    base_backoff: Duration,
    /// Cadence of quarantine re-probes.
    probe_interval: Duration,
}

impl RetryTracker {
    pub(crate) fn new(budget: u32, base_backoff: Duration, probe_interval: Duration) -> Self {
        Self {
            state: Mutex::new(TrackerState::default()),
            budget,
            base_backoff,
            probe_interval,
        }
    }

    /// Record a failed execution and decide the job's fate.
    pub(crate) fn on_failure(&self, job: Job, error: &str, now: Instant) -> FailureDecision {
        let mut s = self.state.lock();
        if let Some(entry) = s.quarantine.get_mut(&job) {
            entry.failures += 1;
            entry.last_error = error.to_owned();
            entry.next_probe = now + self.probe_interval;
            return FailureDecision::Quarantined { newly: false };
        }
        let attempts = s.attempts.entry(job).or_insert(0);
        *attempts += 1;
        let attempt = *attempts;
        if attempt <= self.budget {
            // Exponential backoff: base × 2^(attempt−1), deferred rather
            // than slept so the worker stays free.
            let delay = self
                .base_backoff
                .saturating_mul(1u32 << (attempt - 1).min(16));
            s.deferred.push((now + delay, job));
            FailureDecision::Retry { attempt }
        } else {
            s.attempts.remove(&job);
            // Drop any stale deferred retries: once quarantined, the job is
            // only re-probed on the slow cadence.
            s.deferred.retain(|(_, j)| *j != job);
            s.quarantine.insert(
                job,
                QuarantineEntry {
                    failures: attempt,
                    last_error: error.to_owned(),
                    next_probe: now + self.probe_interval,
                },
            );
            FailureDecision::Quarantined { newly: true }
        }
    }

    /// Record a successful execution; returns whether the job had been
    /// quarantined (i.e. this success is a recovery).
    pub(crate) fn on_success(&self, job: Job) -> bool {
        let mut s = self.state.lock();
        s.attempts.remove(&job);
        s.deferred.retain(|(_, j)| *j != job);
        s.quarantine.remove(&job).is_some()
    }

    /// Jobs whose backoff has elapsed plus quarantined jobs due a re-probe.
    /// Re-probed jobs get their next probe pushed out immediately, so a slow
    /// executor is not flooded with duplicates.
    pub(crate) fn due(&self, now: Instant) -> Vec<Job> {
        let mut s = self.state.lock();
        let mut out = Vec::new();
        let mut still_waiting = Vec::new();
        for (when, job) in s.deferred.drain(..) {
            if when <= now {
                out.push(job);
            } else {
                still_waiting.push((when, job));
            }
        }
        s.deferred = still_waiting;
        for (job, entry) in s.quarantine.iter_mut() {
            if entry.next_probe <= now {
                entry.next_probe = now + self.probe_interval;
                out.push(*job);
            }
        }
        out
    }

    /// Number of currently quarantined jobs.
    pub(crate) fn quarantined_count(&self) -> usize {
        self.state.lock().quarantine.len()
    }

    /// Snapshot of the quarantine list.
    pub(crate) fn quarantined_jobs(&self) -> Vec<QuarantinedJob> {
        let s = self.state.lock();
        let mut out: Vec<QuarantinedJob> = s
            .quarantine
            .iter()
            .map(|(job, e)| QuarantinedJob {
                job: *job,
                failures: e.failures,
                last_error: e.last_error.clone(),
            })
            .collect();
        out.sort_by_key(|q| q.job.shard());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: Job = Job::Groom { shard: 0 };

    fn tracker() -> RetryTracker {
        RetryTracker::new(2, Duration::from_millis(10), Duration::from_millis(100))
    }

    #[test]
    fn retries_until_budget_then_quarantines() {
        let t = tracker();
        let now = Instant::now();
        assert_eq!(
            t.on_failure(JOB, "e1", now),
            FailureDecision::Retry { attempt: 1 }
        );
        assert_eq!(
            t.on_failure(JOB, "e2", now),
            FailureDecision::Retry { attempt: 2 }
        );
        assert_eq!(
            t.on_failure(JOB, "e3", now),
            FailureDecision::Quarantined { newly: true }
        );
        assert_eq!(t.quarantined_count(), 1);
        assert_eq!(
            t.on_failure(JOB, "e4", now),
            FailureDecision::Quarantined { newly: false },
            "re-probe failures stay quarantined"
        );
        let q = t.quarantined_jobs();
        assert_eq!(q[0].failures, 4);
        assert_eq!(q[0].last_error, "e4");
    }

    #[test]
    fn backoff_defers_and_due_releases() {
        let t = tracker();
        let now = Instant::now();
        t.on_failure(JOB, "e", now);
        assert!(t.due(now).is_empty(), "10ms backoff not yet elapsed");
        let later = now + Duration::from_millis(11);
        assert_eq!(t.due(later), vec![JOB]);
        assert!(t.due(later).is_empty(), "drained");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let t = tracker();
        let now = Instant::now();
        t.on_failure(JOB, "e", now);
        t.due(now + Duration::from_millis(11));
        t.on_failure(JOB, "e", now);
        assert!(
            t.due(now + Duration::from_millis(11)).is_empty(),
            "second retry waits 20ms"
        );
        assert_eq!(t.due(now + Duration::from_millis(21)), vec![JOB]);
    }

    #[test]
    fn quarantine_probes_slowly_and_success_releases() {
        let t = tracker();
        let now = Instant::now();
        for _ in 0..3 {
            t.on_failure(JOB, "e", now);
        }
        assert!(t.due(now + Duration::from_millis(50)).is_empty());
        assert_eq!(t.due(now + Duration::from_millis(101)), vec![JOB]);
        assert!(
            t.due(now + Duration::from_millis(102)).is_empty(),
            "probe interval re-armed"
        );
        assert!(t.on_success(JOB), "success counts as recovery");
        assert_eq!(t.quarantined_count(), 0);
        assert!(!t.on_success(JOB));
    }

    #[test]
    fn success_resets_the_attempt_counter() {
        let t = tracker();
        let now = Instant::now();
        t.on_failure(JOB, "e", now);
        t.on_failure(JOB, "e", now);
        t.on_success(JOB);
        assert_eq!(
            t.on_failure(JOB, "e", now),
            FailureDecision::Retry { attempt: 1 },
            "budget restored after a success"
        );
    }

    #[test]
    fn zero_budget_quarantines_immediately() {
        let t = RetryTracker::new(0, Duration::ZERO, Duration::from_secs(1));
        assert_eq!(
            t.on_failure(JOB, "e", Instant::now()),
            FailureDecision::Quarantined { newly: true }
        );
    }
}
