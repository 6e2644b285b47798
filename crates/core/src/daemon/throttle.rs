//! Write-path backpressure and worker throttling.
//!
//! Sustained ingest must not outrun grooming: every groom cycle adds a
//! level-0 run, and queries pay per live run. The [`Backpressure`] gate
//! watches the level-0 backlog — writers stall when it reaches the high
//! watermark and resume once maintenance has merged it down to the low
//! watermark (classic hysteresis, the same shape as the §6.2 SSD
//! watermarks). Maintenance itself is never gated.
//!
//! The backlog is measured on two axes, folded into one [`GateLoad`]:
//! **bytes outstanding** in level-0 runs (the primary signal — run count is
//! blind to run size, bytes track the actual work maintenance still has to
//! chew through) and the **run count** (a secondary bound on per-query run
//! fan-out). The gate stalls when *either* axis reaches its high watermark
//! and resumes only once *both* are back at their low watermarks. A zero
//! byte watermark disables that axis (run count alone governs).
//!
//! The gate is self-releasing: stalled writers re-evaluate the load on a
//! short timeout as well as on explicit [`Backpressure::update`] pokes
//! from completing jobs, so a missed wakeup degrades to polling instead of
//! a deadlock. A disabled gate (no daemon running) admits everything.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A point-in-time reading of the level-0 backlog the gate watches: both
/// axes sampled together so stall/resume decisions are consistent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateLoad {
    /// Live level-0 run count (worst shard).
    pub l0_runs: usize,
    /// Serialized bytes outstanding in level-0 runs (worst shard).
    pub l0_bytes: u64,
}

impl GateLoad {
    /// A run-count-only reading (byte axis zero) — callers without byte
    /// accounting, and tests of the run-count axis.
    pub fn runs(l0_runs: usize) -> GateLoad {
        GateLoad {
            l0_runs,
            l0_bytes: 0,
        }
    }
}

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
    /// Byte-axis watermarks; `bytes_high == 0` disables the byte axis.
    bytes_high: u64,
    bytes_low: u64,
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
    /// A gate with the given level-0 run-count watermarks (`low ≤ high`)
    /// and the byte axis disabled; chain
    /// [`Backpressure::with_byte_watermarks`] to arm it.
    pub fn new(high: usize, low: usize) -> Backpressure {
        assert!(
            low <= high,
            "backpressure watermarks: low {low} > high {high}"
        );
        Backpressure {
            high,
            low,
            bytes_high: 0,
            bytes_low: 0,
            stalled: std::sync::Mutex::new(false),
            stalled_flag: AtomicBool::new(false),
            cv: std::sync::Condvar::new(),
            enabled: AtomicBool::new(false),
            stalls: AtomicU64::new(0),
            stall_nanos: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        }
    }

    /// Arm the bytes-outstanding axis (`low ≤ high`; `high == 0` leaves it
    /// disabled).
    pub fn with_byte_watermarks(mut self, high: u64, low: u64) -> Backpressure {
        assert!(
            low <= high,
            "backpressure byte watermarks: low {low} > high {high}"
        );
        self.bytes_high = high;
        self.bytes_low = low;
        self
    }

    /// Whether `load` is at/above a high watermark on either axis — the
    /// stall-engage condition. Public so writers can run the same predicate
    /// on their lock-free fast path.
    pub fn over_high(&self, load: GateLoad) -> bool {
        load.l0_runs >= self.high || (self.bytes_high > 0 && load.l0_bytes >= self.bytes_high)
    }

    /// Whether `load` is at/below the low watermark on *both* axes — the
    /// resume condition (hysteresis: strictly lower than the engage
    /// threshold on each axis).
    pub fn under_low(&self, load: GateLoad) -> bool {
        load.l0_runs <= self.low && (self.bytes_high == 0 || load.l0_bytes <= self.bytes_low)
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
    /// first when `current()` (the live level-0 backlog) has reached a high
    /// watermark on either axis. Returns the time spent stalled, if any.
    pub fn admit(&self, current: &dyn Fn() -> GateLoad) -> Option<Duration> {
        self.admit_timeout(current, None).unwrap_or_else(Some)
    }

    /// [`Backpressure::admit`] with a stall deadline: if the gate stays
    /// stalled for `timeout`, stop waiting and return `Err(waited)` so the
    /// writer can surface a typed backpressure error instead of hanging
    /// forever behind quarantined maintenance. The gate itself stays
    /// stalled — the condition has not cleared — so later writers fail fast
    /// along the same path until maintenance catches up.
    pub fn admit_timeout(
        &self,
        current: &dyn Fn() -> GateLoad,
        timeout: Option<Duration>,
    ) -> Result<Option<Duration>, Duration> {
        if !self.enabled.load(Ordering::Acquire) {
            return Ok(None);
        }
        // Lock-free fast path: while the gate is clear and the backlog is
        // below every high watermark, writers never touch the mutex.
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
        let deadline = timeout.map(|t| t0 + t);
        while *stalled && self.enabled.load(Ordering::Acquire) {
            if self.under_low(current()) {
                self.set_stalled(&mut stalled, false);
                self.cv.notify_all();
                break;
            }
            let mut wait = Duration::from_millis(5);
            if let Some(deadline) = deadline {
                let Some(rest) = deadline.checked_duration_since(Instant::now()) else {
                    drop(stalled);
                    let waited = t0.elapsed();
                    self.stall_nanos
                        .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(waited);
                };
                wait = wait.min(rest);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(stalled, wait)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            stalled = guard;
        }
        drop(stalled);
        let waited = t0.elapsed();
        self.stall_nanos
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        Ok(Some(waited))
    }

    /// Maintenance-side poke after work that changed the level-0 backlog:
    /// engages the gate when either axis reaches its high watermark, releases
    /// it once every axis is back at its low one, and wakes stalled writers
    /// either way.
    pub fn update(&self, load: GateLoad) {
        if !self.enabled.load(Ordering::Acquire) {
            return;
        }
        let mut stalled = self.lock();
        if *stalled && self.under_low(load) {
            self.set_stalled(&mut stalled, false);
        } else if !*stalled && self.over_high(load) {
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
        assert_eq!(g.admit(&|| GateLoad::runs(1000)), None);
        assert!(!g.is_stalled());
    }

    #[test]
    fn below_high_watermark_is_free() {
        let g = Backpressure::new(4, 2);
        g.set_enabled(true);
        assert_eq!(
            g.admit(&|| GateLoad::runs(3)),
            None,
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
                g.update(GateLoad::runs(1));
            })
        };
        let count2 = Arc::clone(&count);
        let waited = g
            .admit(&move || GateLoad::runs(count2.load(Ordering::Acquire)))
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
            .admit_timeout(&|| GateLoad::runs(100), Some(Duration::from_millis(30)))
            .expect_err("must time out");
        assert!(waited >= Duration::from_millis(30), "waited {waited:?}");
        assert!(t0.elapsed() < Duration::from_secs(5));
        let s = g.stats();
        assert_eq!(s.timeouts, 1);
        assert!(s.stalled, "the stall condition itself has not cleared");
        // A second writer fails fast along the same path.
        assert!(g
            .admit_timeout(&|| GateLoad::runs(100), Some(Duration::from_millis(1)))
            .is_err());
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
                g.update(GateLoad::runs(1));
            })
        };
        let count2 = Arc::clone(&count);
        let out = g.admit_timeout(
            &move || GateLoad::runs(count2.load(Ordering::Acquire)),
            Some(Duration::from_secs(10)),
        );
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
            std::thread::spawn(move || g.admit(&|| GateLoad::runs(100)))
        };
        std::thread::sleep(Duration::from_millis(20));
        g.set_enabled(false);
        assert!(writer.join().unwrap().is_some());
        assert!(!g.is_stalled());
    }

    #[test]
    fn byte_watermarks_stall_and_resume_with_hysteresis() {
        let g = Backpressure::new(1000, 500).with_byte_watermarks(1 << 20, 512 << 10);
        g.set_enabled(true);
        // Run count is far below its watermark; bytes alone drive the gate.
        let load = |bytes: u64| GateLoad {
            l0_runs: 1,
            l0_bytes: bytes,
        };
        g.update(load(1 << 20));
        assert!(g.is_stalled(), "bytes at high watermark must engage");
        // Between low and high: hysteresis keeps the gate stalled.
        g.update(load(700 << 10));
        assert!(g.is_stalled(), "above low watermark the gate stays engaged");
        g.update(load(512 << 10));
        assert!(!g.is_stalled(), "bytes at low watermark must release");
        // Re-engaging needs the high watermark again, not just above-low.
        g.update(load(700 << 10));
        assert!(!g.is_stalled(), "below high watermark the gate stays clear");
    }

    #[test]
    fn either_axis_over_high_stalls_both_must_clear() {
        let g = Backpressure::new(4, 2).with_byte_watermarks(1 << 20, 512 << 10);
        g.set_enabled(true);
        // Runs over high, bytes fine: stalled.
        g.update(GateLoad {
            l0_runs: 4,
            l0_bytes: 0,
        });
        assert!(g.is_stalled());
        // Runs recover but bytes are still above their low: still stalled.
        g.update(GateLoad {
            l0_runs: 1,
            l0_bytes: 800 << 10,
        });
        assert!(g.is_stalled(), "resume requires BOTH axes at their low");
        // Both at/below low: released.
        g.update(GateLoad {
            l0_runs: 1,
            l0_bytes: 100 << 10,
        });
        assert!(!g.is_stalled());
    }

    #[test]
    fn byte_stall_times_out_like_run_stall() {
        let g = Backpressure::new(1000, 500).with_byte_watermarks(1 << 20, 512 << 10);
        g.set_enabled(true);
        let waited = g
            .admit_timeout(
                &|| GateLoad {
                    l0_runs: 0,
                    l0_bytes: 2 << 20,
                },
                Some(Duration::from_millis(20)),
            )
            .expect_err("byte-driven stall must honor the deadline");
        assert!(waited >= Duration::from_millis(20), "waited {waited:?}");
        assert_eq!(g.stats().timeouts, 1);
    }

    #[test]
    fn zero_byte_watermark_disables_byte_axis() {
        let g = Backpressure::new(4, 2).with_byte_watermarks(0, 0);
        g.set_enabled(true);
        assert_eq!(
            g.admit(&|| GateLoad {
                l0_runs: 1,
                l0_bytes: u64::MAX,
            }),
            None,
            "byte axis disabled: any byte load admits"
        );
        // Run axis still works as before.
        g.update(GateLoad {
            l0_runs: 10,
            l0_bytes: 0,
        });
        assert!(g.is_stalled());
        g.update(GateLoad {
            l0_runs: 1,
            l0_bytes: u64::MAX,
        });
        assert!(
            !g.is_stalled(),
            "release must ignore the disabled byte axis"
        );
    }

    #[test]
    #[should_panic(expected = "byte watermarks")]
    fn byte_low_above_high_panics() {
        let _ = Backpressure::new(4, 2).with_byte_watermarks(1 << 10, 2 << 10);
    }
}
