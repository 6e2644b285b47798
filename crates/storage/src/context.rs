//! Query deadlines, cooperative cancellation, and priority classes.
//!
//! A [`QueryContext`] (deadline + shared [`CancelToken`] + [`Priority`]) has
//! exactly one carrier: a thread-local stack. The caller of an engine or
//! index operation installs its context with [`enter`] and holds the guard
//! for the duration of the call; every layer below — engine entry points,
//! reconcile loops, run cursors, `with_retry_as` backoff, readahead staging
//! — consults the innermost installed context and none takes one as an
//! argument. [`fan_out`] is the one way a query spreads over threads (a
//! batch lookup's claims, a staging round's objects): its workers
//! re-install the parent's context with [`enter`] before doing any IO;
//! maintenance daemons never install one, so background IO keeps its full
//! retry budget.
//!
//! Checks are *cooperative checkpoints*: hot loops call
//! [`QueryContext::check`] (or [`check_current`]) at block boundaries and
//! retry-sleep decisions, which observes the cancellation token exactly
//! once per call. [`CancelToken::trip_after`] arms a deterministic
//! countdown over those observations so tests can fire cancellation at the
//! N-th checkpoint instead of relying on wall-clock races.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::StorageError;

/// Shared-storage operation classes, used to attribute retries and to give
/// the circuit breaker independent per-class state (a sick manifest prefix
/// must not trip the breaker for block fetches, and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Run/groomed-block data reads and run object creation.
    BlockFetch,
    /// Manifest log records (put/list/get/delete) and recovery listings.
    Manifest,
    /// Live-zone delta objects (shard WAL-ish state).
    Delta,
    /// Garbage-collection deletes of retired runs/blocks/deltas.
    Gc,
}

impl OpClass {
    /// Number of classes (array-index space).
    pub const COUNT: usize = 4;

    /// All classes in index order.
    pub const ALL: [OpClass; Self::COUNT] = [
        OpClass::BlockFetch,
        OpClass::Manifest,
        OpClass::Delta,
        OpClass::Gc,
    ];

    /// Stable dense index for per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::BlockFetch => 0,
            OpClass::Manifest => 1,
            OpClass::Delta => 2,
            OpClass::Gc => 3,
        }
    }

    /// Metric-label spelling.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::BlockFetch => "block_fetch",
            OpClass::Manifest => "manifest",
            OpClass::Delta => "delta",
            OpClass::Gc => "gc",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// When positive, each observed checkpoint decrements this; the
    /// observation that drives it to zero trips the token. Zero or negative
    /// means the countdown is disarmed.
    countdown: AtomicI64,
    /// Total checkpoints observed (test introspection: "how many
    /// cancellation points does this query pass through?").
    observed: AtomicU64,
}

/// A shareable cancellation flag. Cloning is cheap (one `Arc`); all clones
/// observe the same flag, so the engine can hand one token to a query and
/// keep a clone to cancel it from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips itself at the `n`-th observed checkpoint
    /// (1-based). `trip_after(1)` cancels at the very first cooperative
    /// check; `trip_after(0)` behaves like an already-cancelled token.
    /// Deterministic: no timing involved.
    pub fn trip_after(n: u64) -> Self {
        let t = Self::new();
        if n == 0 {
            t.cancel();
        } else {
            t.inner
                .countdown
                .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::SeqCst);
        }
        t
    }

    /// Trip the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has tripped. Pure observer — does not count as a
    /// checkpoint and never advances a [`trip_after`](Self::trip_after)
    /// countdown.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Checkpoints observed so far across all clones.
    pub fn checkpoints_observed(&self) -> u64 {
        self.inner.observed.load(Ordering::SeqCst)
    }

    /// Record one cooperative checkpoint and report whether the token is
    /// (now) cancelled. Drives the `trip_after` countdown.
    fn observe_checkpoint(&self) -> bool {
        self.inner.observed.fetch_add(1, Ordering::SeqCst);
        if self.inner.countdown.load(Ordering::SeqCst) > 0
            && self.inner.countdown.fetch_sub(1, Ordering::SeqCst) == 1
        {
            self.cancel();
        }
        self.is_cancelled()
    }
}

/// Scheduling class of the work a context covers: background work never
/// fans a query out over worker threads, nor stages blocks ahead of demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Priority {
    /// Queries issued by a caller (point lookups and scans alike).
    #[default]
    Interactive,
    /// Background/maintenance work.
    Background,
}

/// Per-query deadline + cancellation + priority bundle.
///
/// Cheap to clone (`Option<Instant>` + one `Arc`). The default context is
/// unbounded: no deadline, no cancellation, interactive priority — exactly
/// what a caller that installs nothing runs under.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    priority: Priority,
}

impl QueryContext {
    /// No deadline, no cancellation, interactive priority.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A context whose deadline is `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self::deadline_at(Instant::now() + budget)
    }

    /// A context with an absolute deadline.
    pub fn deadline_at(deadline: Instant) -> Self {
        QueryContext {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Set the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Whether this context can never expire or be cancelled.
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Remaining budget until the deadline (`None` = no deadline;
    /// `Some(ZERO)` = already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed.
    pub fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the cancellation token has tripped (pure observer).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Cooperative checkpoint: observe the cancellation token once, then
    /// the deadline. Returns the typed error naming the operation at which
    /// the query gave up. Cancellation wins over expiry when both hold.
    pub fn check(&self, op: &'static str) -> Result<(), StorageError> {
        if let Some(t) = &self.cancel {
            if t.observe_checkpoint() {
                return Err(StorageError::Cancelled { op });
            }
        }
        if self.is_expired() {
            return Err(StorageError::DeadlineExceeded { op });
        }
        Ok(())
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<QueryContext>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard that pops the ambient context installed by [`enter`].
#[derive(Debug)]
pub struct ContextGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        AMBIENT.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install `ctx` as this thread's ambient query context until the returned
/// guard drops. Nests: an inner `enter` shadows the outer context.
pub fn enter(ctx: QueryContext) -> ContextGuard {
    AMBIENT.with(|s| s.borrow_mut().push(ctx));
    ContextGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// The ambient context installed on this thread, or an unbounded one.
/// Use this to capture the caller's context before handing work to a
/// worker thread (which then [`enter`]s the clone).
pub fn current() -> QueryContext {
    AMBIENT.with(|s| s.borrow().last().cloned().unwrap_or_default())
}

/// Cooperative checkpoint against the ambient context. Free (two
/// thread-local reads) when no context is installed — the hot-path cost of
/// every unbounded call. `op` names the operation for the typed error.
pub fn check_current(op: &'static str) -> Result<(), StorageError> {
    AMBIENT.with(|s| match s.borrow().last() {
        Some(ctx) => ctx.check(op),
        None => Ok(()),
    })
}

/// Remaining deadline budget of the ambient context (`None` = unbounded).
pub fn current_remaining() -> Option<Duration> {
    AMBIENT.with(|s| s.borrow().last().and_then(QueryContext::remaining))
}

/// Whether the ambient context is already cancelled or expired. Pure
/// observer — records no checkpoint. The gate for advisory work (prefetch
/// refills) that should be skipped, not failed, when the query is done.
pub fn current_aborted() -> bool {
    AMBIENT.with(|s| {
        s.borrow()
            .last()
            .is_some_and(|c| c.is_cancelled() || c.is_expired())
    })
}

/// Run `per_item` over `items`, each claimed from a shared cursor by up to
/// `threads` workers (the calling thread is one of them), and return the
/// results **in input order**. No worker owns a fixed share: when per-item
/// cost is skewed (one item waiting on a fetch among warm ones), fast
/// workers keep claiming items instead of idling behind the slow one.
/// Spawned workers re-enter the caller's [`QueryContext`], so deadline and
/// cancellation reach every item. One worker, or a single item, runs
/// inline. A worker stops at its first error, and the call then fails
/// with one of the errors met.
pub fn fan_out<'a, T, R, E, F>(items: &'a [T], threads: usize, per_item: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&'a T) -> Result<R, E> + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(per_item).collect();
    }
    let cursor = AtomicUsize::new(0);
    let ctx = current();
    let worker = || -> Result<Vec<(usize, R)>, E> {
        let _g = enter(ctx.clone());
        let mut claimed = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return Ok(claimed);
            };
            claimed.push((i, per_item(item)?));
        }
    };
    let mut results = std::thread::scope(|s| -> Result<_, E> {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(worker)).collect();
        let mut results = worker()?;
        for h in handles {
            results.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))?);
        }
        Ok(results)
    })?;
    results.sort_unstable_by_key(|(i, _)| *i);
    Ok(results.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_context_never_trips() {
        let ctx = QueryContext::unbounded();
        assert!(ctx.is_unbounded());
        for _ in 0..1000 {
            ctx.check("op").unwrap();
        }
        assert!(!ctx.is_expired());
        assert!(!ctx.is_cancelled());
    }

    #[test]
    fn deadline_expiry_is_typed() {
        let ctx = QueryContext::deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(ctx.is_expired());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
        match ctx.check("fetch") {
            Err(StorageError::DeadlineExceeded { op }) => assert_eq!(op, "fetch"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_shared_across_clones() {
        let t = CancelToken::new();
        let ctx = QueryContext::unbounded().with_cancel(t.clone());
        ctx.check("op").unwrap();
        t.cancel();
        match ctx.check("op") {
            Err(StorageError::Cancelled { op }) => assert_eq!(op, "op"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn trip_after_counts_checkpoints_deterministically() {
        let t = CancelToken::trip_after(3);
        let ctx = QueryContext::unbounded().with_cancel(t.clone());
        ctx.check("a").unwrap();
        ctx.check("b").unwrap();
        // Pure observers do not advance the countdown.
        assert!(!t.is_cancelled());
        assert!(ctx.check("c").is_err());
        assert_eq!(t.checkpoints_observed(), 3);

        let zero = CancelToken::trip_after(0);
        assert!(zero.is_cancelled());
    }

    #[test]
    fn ambient_stack_nests_and_restores() {
        assert!(current().is_unbounded());
        check_current("noctx").unwrap();
        let outer = QueryContext::with_deadline(Duration::from_secs(60));
        {
            let _g = enter(outer.clone());
            assert_eq!(current().deadline(), outer.deadline());
            assert!(current_remaining().is_some());
            {
                let cancelled = QueryContext::unbounded().with_cancel(CancelToken::trip_after(0));
                let _g2 = enter(cancelled);
                assert!(check_current("inner").is_err());
            }
            // Outer context restored.
            check_current("outer").unwrap();
        }
        assert!(current().is_unbounded());
    }

    #[test]
    fn op_class_index_roundtrip() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.label().is_empty());
        }
    }

    proptest::proptest! {
        /// `fan_out` is a parallel `map` that keeps input order: whatever
        /// the worker count and per-item cost skew, every item comes back
        /// exactly once and in place. With the ambient context cancelled at
        /// an arbitrary checkpoint mid-flight, the call is the typed abort —
        /// never a short or reordered result.
        #[test]
        fn fan_out_keeps_order_and_completeness_under_skew_and_cancel(
            costs in proptest::collection::vec(0u64..40, 0..120),
            threads in 1usize..6,
            trip in 0u64..200,
        ) {
            // One checkpoint per item; item `i` costs `costs[i]` µs, so a
            // few expensive items leave their worker far behind the rest.
            let work = |&(i, cost): &(usize, u64)| -> Result<usize, StorageError> {
                check_current("fan_out_item")?;
                std::thread::sleep(Duration::from_micros(cost));
                Ok(i)
            };
            let items: Vec<(usize, u64)> = costs.iter().copied().enumerate().collect();
            let want: Vec<usize> = (0..items.len()).collect();
            proptest::prop_assert_eq!(&fan_out(&items, threads, work).unwrap(), &want);

            // The token trips at the `trip`-th of the `items.len()` checks
            // (0 = tripped from the start).
            let reached = !items.is_empty() && trip <= items.len() as u64;
            let token = CancelToken::trip_after(trip);
            let _g = enter(QueryContext::unbounded().with_cancel(token));
            match fan_out(&items, threads, work) {
                Ok(got) => {
                    proptest::prop_assert!(!reached, "cancel at check {} ignored", trip);
                    proptest::prop_assert_eq!(&got, &want);
                }
                Err(e) => {
                    proptest::prop_assert!(reached && e.is_query_abort(), "{}", e);
                }
            }
        }
    }
}
