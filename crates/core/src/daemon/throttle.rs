//! Write-path backpressure and worker throttling.
//!
//! Sustained ingest must not outrun grooming: every groom cycle adds a
//! level-0 run, and queries pay per live run. The [`Backpressure`] gate
//! watches the level-0 run count — writers stall when it reaches the high
//! watermark and resume once maintenance has merged it down to the low
//! watermark (classic hysteresis, the same shape as the §6.2 SSD
//! watermarks). Maintenance itself is never gated.
//!
//! The gate is self-releasing: stalled writers re-evaluate the load on a
//! short timeout as well as on explicit [`Backpressure::update`] pokes
//! from completing jobs, so a missed wakeup degrades to polling instead of
//! a deadlock. A disabled gate (no daemon running) admits everything.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest a writer waits behind a stalled gate before it gets a typed
/// backpressure error. A healthy daemon relieves a stall in milliseconds
/// (one level-0 merge); ten seconds only runs out when maintenance is not
/// progressing at all — e.g. its jobs are quarantined behind a dead store —
/// and then a writer must not hang forever. A caller with a shorter budget
/// bounds its own stall with an ambient deadline
/// (`umzi_storage::context::enter`).
pub const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Point-in-time backpressure statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackpressureStats {
    /// Times the gate transitioned clear → stalled.
    pub stalls: u64,
    /// Total wall-clock time writers spent stalled.
    pub stall_nanos: u64,
    /// Whether the gate is currently stalled.
    pub stalled: bool,
    /// Admissions abandoned because the stall outlived the configured
    /// timeout (the writer got an error instead of blocking forever).
    pub timeouts: u64,
}

/// The ingest gate.
pub struct Backpressure {
    high: usize,
    low: usize,
    /// Writers stall while set; maintenance completions and the timeout
    /// poll clear it. Source of truth, coordinated with `cv`.
    stalled: std::sync::Mutex<bool>,
    /// Lock-free shadow of `stalled`, updated under the mutex — the
    /// un-stalled writer fast path reads only this, so concurrent writers
    /// never serialize on the mutex while the gate is clear.
    stalled_flag: AtomicBool,
    cv: std::sync::Condvar,
    /// Gate only engages while a daemon that can relieve it is running.
    enabled: AtomicBool,
    stalls: AtomicU64,
    stall_nanos: AtomicU64,
    timeouts: AtomicU64,
}

impl Backpressure {
    /// A gate with the given level-0 run-count watermarks (`low ≤ high`).
    pub fn new(high: usize, low: usize) -> Backpressure {
        assert!(
            low <= high,
            "backpressure watermarks: low {low} > high {high}"
        );
        Backpressure {
            high,
            low,
            stalled: std::sync::Mutex::new(false),
            stalled_flag: AtomicBool::new(false),
            cv: std::sync::Condvar::new(),
            enabled: AtomicBool::new(false),
            stalls: AtomicU64::new(0),
            stall_nanos: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        }
    }

    /// Whether `l0_runs` is at/above the high watermark — the stall-engage
    /// condition. Public so writers can run the same predicate on their
    /// lock-free fast path.
    pub fn over_high(&self, l0_runs: usize) -> bool {
        l0_runs >= self.high
    }

    /// Whether `l0_runs` is at/below the low watermark — the resume
    /// condition (hysteresis: strictly lower than the engage threshold).
    pub fn under_low(&self, l0_runs: usize) -> bool {
        l0_runs <= self.low
    }

    /// Set the stall state; callers must hold the `stalled` mutex guard.
    fn set_stalled(&self, guard: &mut bool, value: bool) {
        *guard = value;
        self.stalled_flag.store(value, Ordering::Release);
        if value {
            self.stalls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Arm or disarm the gate. Disarming releases any stalled writer — a
    /// gate without running maintenance would never clear.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
        if !enabled {
            let mut stalled = self.lock();
            *stalled = false;
            self.stalled_flag.store(false, Ordering::Release);
            drop(stalled);
            self.cv.notify_all();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.stalled
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Writer-side admission: blocks while the gate is stalled, engaging it
    /// first when `current()` (the live level-0 run count) has reached the
    /// high watermark, and returns the time spent stalled, if any. If the
    /// gate stays stalled for `timeout`, stop waiting and return
    /// `Err(waited)` so the writer can surface a typed backpressure error
    /// instead of hanging forever behind quarantined maintenance. The gate
    /// itself stays stalled — the condition has not cleared — so later
    /// writers fail fast along the same path until maintenance catches up.
    pub fn admit_timeout(
        &self,
        current: &dyn Fn() -> usize,
        timeout: Duration,
    ) -> Result<Option<Duration>, Duration> {
        if !self.enabled.load(Ordering::Acquire) {
            return Ok(None);
        }
        // Lock-free fast path: while the gate is clear and the backlog is
        // below the high watermark, writers never touch the mutex.
        if !self.stalled_flag.load(Ordering::Acquire) && !self.over_high(current()) {
            return Ok(None);
        }
        let mut stalled = self.lock();
        if !*stalled {
            if !self.over_high(current()) {
                return Ok(None);
            }
            self.set_stalled(&mut stalled, true);
        }
        let t0 = Instant::now();
        let deadline = t0 + timeout;
        while *stalled && self.enabled.load(Ordering::Acquire) {
            if self.under_low(current()) {
                self.set_stalled(&mut stalled, false);
                self.cv.notify_all();
                break;
            }
            let Some(rest) = deadline.checked_duration_since(Instant::now()) else {
                drop(stalled);
                let waited = t0.elapsed();
                self.stall_nanos
                    .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(waited);
            };
            let (guard, _) = self
                .cv
                .wait_timeout(stalled, rest.min(Duration::from_millis(5)))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            stalled = guard;
        }
        drop(stalled);
        let waited = t0.elapsed();
        self.stall_nanos
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        Ok(Some(waited))
    }

    /// Maintenance-side poke after work that changed the level-0 run count:
    /// engages the gate at the high watermark, releases it at the low one,
    /// and wakes stalled writers either way.
    pub fn update(&self, l0_runs: usize) {
        if !self.enabled.load(Ordering::Acquire) {
            return;
        }
        let mut stalled = self.lock();
        if *stalled && self.under_low(l0_runs) {
            self.set_stalled(&mut stalled, false);
        } else if !*stalled && self.over_high(l0_runs) {
            self.set_stalled(&mut stalled, true);
        }
        drop(stalled);
        self.cv.notify_all();
    }

    /// Whether the gate is currently stalled (lock-free).
    pub fn is_stalled(&self) -> bool {
        self.stalled_flag.load(Ordering::Acquire)
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BackpressureStats {
        BackpressureStats {
            stalls: self.stalls.load(Ordering::Relaxed),
            stall_nanos: self.stall_nanos.load(Ordering::Relaxed),
            stalled: self.is_stalled(),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn disabled_gate_admits_everything() {
        let g = Backpressure::new(2, 1);
        assert_eq!(g.admit_timeout(&|| 1000, STALL_TIMEOUT), Ok(None));
        assert!(!g.is_stalled());
    }

    #[test]
    fn below_high_watermark_is_free() {
        let g = Backpressure::new(4, 2);
        g.set_enabled(true);
        assert_eq!(
            g.admit_timeout(&|| 3, STALL_TIMEOUT),
            Ok(None),
            "no stall below high watermark"
        );
        assert_eq!(g.stats().stalls, 0);
    }

    #[test]
    fn stalls_until_low_watermark() {
        let g = Arc::new(Backpressure::new(4, 2));
        g.set_enabled(true);
        let count = Arc::new(AtomicUsize::new(8));
        // "Maintenance": drop the count below low after a delay.
        let relief = {
            let count = Arc::clone(&count);
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                count.store(1, Ordering::Release);
                g.update(1);
            })
        };
        let count2 = Arc::clone(&count);
        let waited = g
            .admit_timeout(&move || count2.load(Ordering::Acquire), STALL_TIMEOUT)
            .expect("relieved before the stall timeout")
            .expect("must stall at count 8");
        relief.join().unwrap();
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
        let s = g.stats();
        assert_eq!(s.stalls, 1);
        assert!(s.stall_nanos > 0);
        assert!(!s.stalled);
    }

    #[test]
    fn stall_timeout_returns_error_instead_of_hanging() {
        let g = Backpressure::new(1, 0);
        g.set_enabled(true);
        // No maintenance will ever relieve the gate; the writer must get
        // its time back after the deadline.
        let t0 = Instant::now();
        let waited = g
            .admit_timeout(&|| 100, Duration::from_millis(30))
            .expect_err("must time out");
        assert!(waited >= Duration::from_millis(30), "waited {waited:?}");
        assert!(t0.elapsed() < Duration::from_secs(5));
        let s = g.stats();
        assert_eq!(s.timeouts, 1);
        assert!(s.stalled, "the stall condition itself has not cleared");
        // A second writer fails fast along the same path.
        assert!(g.admit_timeout(&|| 100, Duration::from_millis(1)).is_err());
    }

    #[test]
    fn timeout_not_charged_when_relieved_in_time() {
        let g = Arc::new(Backpressure::new(4, 2));
        g.set_enabled(true);
        let count = Arc::new(AtomicUsize::new(8));
        let relief = {
            let count = Arc::clone(&count);
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                count.store(1, Ordering::Release);
                g.update(1);
            })
        };
        let count2 = Arc::clone(&count);
        let out = g.admit_timeout(&move || count2.load(Ordering::Acquire), STALL_TIMEOUT);
        relief.join().unwrap();
        assert!(out.expect("relieved before deadline").is_some());
        assert_eq!(g.stats().timeouts, 0);
    }

    #[test]
    fn disarming_releases_stalled_writers() {
        let g = Arc::new(Backpressure::new(1, 0));
        g.set_enabled(true);
        let writer = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.admit_timeout(&|| 100, STALL_TIMEOUT))
        };
        std::thread::sleep(Duration::from_millis(20));
        g.set_enabled(false);
        assert!(matches!(writer.join().unwrap(), Ok(Some(_))));
        assert!(!g.is_stalled());
    }
}
