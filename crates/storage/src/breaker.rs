//! Per-op-class circuit breaker for the shared storage tier.
//!
//! When shared storage goes sick, every operation burns its full
//! retry-with-backoff budget before failing — under load that multiplies a
//! single slow dependency into thousands of queued, sleeping queries. The
//! breaker watches *retry exhaustions* (and hard `Unavailable` results) per
//! [`OpClass`] in a rolling window; past a threshold it **opens** and fails
//! subsequent operations of that class immediately with a typed
//! [`StorageError::Unavailable`], letting callers degrade (serve from local
//! tiers, fail the scan typed) instead of piling up. After a cooldown the breaker
//! goes **half-open** and admits a bounded number of probe operations; one
//! success closes it, one failure re-opens it.
//!
//! Classes are independent: a sick manifest prefix does not stop block
//! fetches, and GC delete failures never block the read path.
//!
//! The breaker is always on and has no configuration: its four numbers are
//! the constants below. It changes nothing while the store is healthy — a
//! closed class costs one atomic load per operation — and the fault-injection
//! and crash-recovery suites pass with it armed, because an exhausted retry
//! still surfaces as its original error; only the operations *after* the
//! fifth exhaustion in ten seconds see `Unavailable` instead.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::context::OpClass;
use crate::error::StorageError;

/// Retry exhaustions (or hard `Unavailable` results) of one op class inside
/// [`BREAKER_WINDOW`] that open its breaker. Five is the number the brownout
/// scenario (`tests/brownout.rs`) gates. On that scenario, as measured when
/// the breaker became always-on (the brownout table in CHANGES.md), a sick
/// store with no breaker makes every interactive point read burn its whole
/// retry budget (point p99 12.6 ms, ~2 360 deadline timeouts per run);
/// opening after five exhaustions holds point p99 at 25–49 µs with ~30
/// timeouts, and a healthy store — the whole test suite, fault-injection and
/// crash-recovery runs included — never reaches five inside one window.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 5;

/// Rolling window over which failures are counted. Long enough that a store
/// failing one operation in a few hundred still trips (a brownout is not
/// always an outage), short enough that unrelated failures minutes apart
/// never add up.
pub const BREAKER_WINDOW: Duration = Duration::from_secs(10);

/// How long an open breaker rejects before admitting a half-open probe:
/// about one full default retry cycle (3 retries, 1–50 ms backoff), so the
/// probe is not simply the next retry, yet recovery after the store heals
/// is sub-second.
pub const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);

/// Concurrent probe operations admitted while half-open. One: a single
/// answered operation is all the evidence closing needs, and every extra
/// probe is one more caller stalled on a store that may still be sick.
pub const BREAKER_HALF_OPEN_PROBES: u32 = 1;

/// Breaker state of one op class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all operations admitted.
    Closed,
    /// Tripped: operations fail fast with `Unavailable`.
    Open,
    /// Cooldown elapsed: a bounded number of probes admitted; one success
    /// closes, one failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric encoding (exported as a telemetry gauge).
    pub fn as_u8(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Metric-label spelling.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug, Default)]
struct ClassInner {
    /// Timestamps of failures inside the rolling window (pruned lazily).
    failures: VecDeque<Instant>,
    /// When the breaker last opened.
    opened_at: Option<Instant>,
    /// Probes admitted and not yet resolved while half-open.
    probes_inflight: u32,
}

#[derive(Debug, Default)]
struct ClassBreaker {
    /// `BreakerState` encoding; the closed-state fast path is one relaxed
    /// load with no lock.
    state: AtomicU8,
    transitions: AtomicU64,
    rejections: AtomicU64,
    inner: Mutex<ClassInner>,
}

/// Independent per-[`OpClass`] circuit breakers over shared storage.
#[derive(Debug)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown: Duration,
    classes: [ClassBreaker; OpClass::COUNT],
}

impl CircuitBreaker {
    /// A closed breaker per op class, on the shipped constants.
    pub(crate) fn new() -> Self {
        Self::with_timing(BREAKER_FAILURE_THRESHOLD, BREAKER_COOLDOWN)
    }

    /// [`Self::new`] with the threshold and cooldown spelled out, so unit
    /// tests can trip a class in a call or two and watch it recover without
    /// sleeping out the shipped half second.
    pub(crate) fn with_timing(failure_threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            failure_threshold,
            cooldown,
            classes: Default::default(),
        }
    }

    /// Admit or reject an operation of `class`. Rejection is the typed
    /// fail-fast path: `Unavailable` without touching shared storage.
    pub fn admit(&self, class: OpClass) -> Result<(), StorageError> {
        let cb = &self.classes[class.index()];
        match BreakerState::from_u8(cb.state.load(Ordering::Acquire)) {
            BreakerState::Closed => Ok(()),
            BreakerState::Open => {
                let mut inner = cb.inner.lock().unwrap();
                // Re-check under the lock: another thread may have moved us.
                match BreakerState::from_u8(cb.state.load(Ordering::Acquire)) {
                    BreakerState::Closed => Ok(()),
                    BreakerState::HalfOpen => self.try_probe(cb, &mut inner, class),
                    BreakerState::Open => {
                        let elapsed = inner
                            .opened_at
                            .map(|t| t.elapsed())
                            .unwrap_or(Duration::MAX);
                        if elapsed >= self.cooldown {
                            self.transition(cb, BreakerState::HalfOpen);
                            inner.probes_inflight = 0;
                            self.try_probe(cb, &mut inner, class)
                        } else {
                            cb.rejections.fetch_add(1, Ordering::Relaxed);
                            Err(Self::rejection(class))
                        }
                    }
                }
            }
            BreakerState::HalfOpen => {
                let mut inner = cb.inner.lock().unwrap();
                if BreakerState::from_u8(cb.state.load(Ordering::Acquire)) == BreakerState::Closed {
                    return Ok(());
                }
                self.try_probe(cb, &mut inner, class)
            }
        }
    }

    fn try_probe(
        &self,
        cb: &ClassBreaker,
        inner: &mut ClassInner,
        class: OpClass,
    ) -> Result<(), StorageError> {
        if inner.probes_inflight < BREAKER_HALF_OPEN_PROBES {
            inner.probes_inflight += 1;
            Ok(())
        } else {
            cb.rejections.fetch_add(1, Ordering::Relaxed);
            Err(Self::rejection(class))
        }
    }

    fn rejection(class: OpClass) -> StorageError {
        StorageError::Unavailable {
            reason: format!("circuit breaker open for {class} operations"),
        }
    }

    fn transition(&self, cb: &ClassBreaker, to: BreakerState) {
        cb.state.store(to.as_u8(), Ordering::Release);
        cb.transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a healthy completion. In half-open state one success closes
    /// the breaker and clears the failure window.
    pub fn record_success(&self, class: OpClass) {
        let cb = &self.classes[class.index()];
        if BreakerState::from_u8(cb.state.load(Ordering::Acquire)) == BreakerState::Closed {
            return;
        }
        let mut inner = cb.inner.lock().unwrap();
        match BreakerState::from_u8(cb.state.load(Ordering::Acquire)) {
            BreakerState::HalfOpen => {
                inner.failures.clear();
                inner.probes_inflight = 0;
                inner.opened_at = None;
                self.transition(cb, BreakerState::Closed);
            }
            // A straggler admitted before the breaker opened — ignore.
            BreakerState::Open | BreakerState::Closed => {}
        }
    }

    /// Record a breaker-relevant failure (retry exhaustion or hard
    /// `Unavailable`). May trip the breaker open.
    pub fn record_failure(&self, class: OpClass) {
        let cb = &self.classes[class.index()];
        let mut inner = cb.inner.lock().unwrap();
        let now = Instant::now();
        while let Some(front) = inner.failures.front() {
            if now.duration_since(*front) > BREAKER_WINDOW {
                inner.failures.pop_front();
            } else {
                break;
            }
        }
        inner.failures.push_back(now);
        match BreakerState::from_u8(cb.state.load(Ordering::Acquire)) {
            BreakerState::Closed => {
                if inner.failures.len() >= self.failure_threshold as usize {
                    inner.opened_at = Some(now);
                    self.transition(cb, BreakerState::Open);
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: back to open, restart the cooldown.
                inner.probes_inflight = inner.probes_inflight.saturating_sub(1);
                inner.opened_at = Some(now);
                self.transition(cb, BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }

    /// Release an admitted slot with no health verdict (the *query* gave up
    /// — deadline or cancellation — which says nothing about the store).
    pub fn record_neutral(&self, class: OpClass) {
        let cb = &self.classes[class.index()];
        if BreakerState::from_u8(cb.state.load(Ordering::Acquire)) == BreakerState::Closed {
            return;
        }
        let mut inner = cb.inner.lock().unwrap();
        inner.probes_inflight = inner.probes_inflight.saturating_sub(1);
    }

    /// Current state of one class.
    pub fn state(&self, class: OpClass) -> BreakerState {
        BreakerState::from_u8(self.classes[class.index()].state.load(Ordering::Acquire))
    }

    /// All class states, encoded per [`BreakerState::as_u8`], in
    /// [`OpClass::ALL`] order.
    pub fn states(&self) -> [u8; OpClass::COUNT] {
        let mut out = [0u8; OpClass::COUNT];
        for (i, cb) in self.classes.iter().enumerate() {
            out[i] = cb.state.load(Ordering::Acquire);
        }
        out
    }

    /// Cumulative state transitions per class, in [`OpClass::ALL`] order.
    pub fn transitions(&self) -> [u64; OpClass::COUNT] {
        let mut out = [0u64; OpClass::COUNT];
        for (i, cb) in self.classes.iter().enumerate() {
            out[i] = cb.transitions.load(Ordering::Relaxed);
        }
        out
    }

    /// Cumulative fail-fast rejections per class, in [`OpClass::ALL`] order.
    pub fn rejections(&self) -> [u64; OpClass::COUNT] {
        let mut out = [0u64; OpClass::COUNT];
        for (i, cb) in self.classes.iter().enumerate() {
            out[i] = cb.rejections.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(threshold: u32) -> CircuitBreaker {
        CircuitBreaker::with_timing(threshold, Duration::from_millis(10))
    }

    #[test]
    fn opens_after_threshold_and_rejects_typed() {
        let b = fast(3);
        for _ in 0..2 {
            b.record_failure(OpClass::BlockFetch);
            b.admit(OpClass::BlockFetch).unwrap();
        }
        b.record_failure(OpClass::BlockFetch);
        assert_eq!(b.state(OpClass::BlockFetch), BreakerState::Open);
        match b.admit(OpClass::BlockFetch) {
            Err(StorageError::Unavailable { reason }) => {
                assert!(reason.contains("block_fetch"), "{reason}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // Other classes unaffected.
        b.admit(OpClass::Manifest).unwrap();
        assert_eq!(b.state(OpClass::Manifest), BreakerState::Closed);
        assert_eq!(b.rejections()[OpClass::BlockFetch.index()], 1);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let b = fast(1);
        b.record_failure(OpClass::Manifest);
        assert_eq!(b.state(OpClass::Manifest), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        // Cooldown elapsed: first admit becomes the probe…
        b.admit(OpClass::Manifest).unwrap();
        assert_eq!(b.state(OpClass::Manifest), BreakerState::HalfOpen);
        // …and the probe budget rejects a second concurrent operation.
        assert!(b.admit(OpClass::Manifest).is_err());
        b.record_success(OpClass::Manifest);
        assert_eq!(b.state(OpClass::Manifest), BreakerState::Closed);
        b.admit(OpClass::Manifest).unwrap();
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = fast(1);
        b.record_failure(OpClass::Gc);
        std::thread::sleep(Duration::from_millis(15));
        b.admit(OpClass::Gc).unwrap();
        assert_eq!(b.state(OpClass::Gc), BreakerState::HalfOpen);
        b.record_failure(OpClass::Gc);
        assert_eq!(b.state(OpClass::Gc), BreakerState::Open);
        assert!(b.admit(OpClass::Gc).is_err());
    }

    #[test]
    fn neutral_releases_probe_slot() {
        let b = fast(1);
        b.record_failure(OpClass::Delta);
        std::thread::sleep(Duration::from_millis(15));
        b.admit(OpClass::Delta).unwrap();
        assert!(b.admit(OpClass::Delta).is_err());
        // Query gave up (deadline) — slot released, still half-open.
        b.record_neutral(OpClass::Delta);
        assert_eq!(b.state(OpClass::Delta), BreakerState::HalfOpen);
        b.admit(OpClass::Delta).unwrap();
    }
}
