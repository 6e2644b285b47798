//! Per-query trace contexts and the slow-query log.
//!
//! A [`QueryTrace`] is a plain mutable struct owned by the querying thread —
//! the read path fills in phase timings and storage-counter deltas as it
//! goes, then [`QueryTrace::finish`] seals it into a [`TraceRecord`]. The
//! deltas are read from shared atomic counters, so under concurrent queries
//! they attribute *approximately*: a trace may absorb a neighbour's block
//! fetch. That is the documented trade-off for keeping the read path free of
//! per-query plumbing through every storage layer.
//!
//! Records whose total latency crosses the configured threshold land in the
//! ring-buffered [`SlowQueryLog`]; the newest `capacity` records survive.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A finished query trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Operation class (`point_lookup`, `range_scan_seq`, …).
    pub op: &'static str,
    /// End-to-end latency.
    pub total_nanos: u64,
    /// Planning: bound encoding, candidate-run selection, synopsis pruning.
    pub plan_nanos: u64,
    /// Iterator positioning (fence search, first block fetch per run).
    pub position_nanos: u64,
    /// K-way merge / reconcile.
    pub merge_nanos: u64,
    /// Chunk reads through the tier hierarchy (any tier).
    pub blocks_read: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Bytes of blocks decoded (parsed) on behalf of this query.
    pub bytes_decoded: u64,
    /// Shared-storage retries absorbed.
    pub retries: u64,
}

/// An in-flight query trace. Thread-local by construction: the query layer
/// creates one per instrumented query and mutates it without synchronization.
#[derive(Debug)]
pub struct QueryTrace {
    /// Operation class.
    pub op: &'static str,
    start: Instant,
    /// See [`TraceRecord::plan_nanos`].
    pub plan_nanos: u64,
    /// See [`TraceRecord::position_nanos`].
    pub position_nanos: u64,
    /// See [`TraceRecord::merge_nanos`].
    pub merge_nanos: u64,
    /// See [`TraceRecord::blocks_read`].
    pub blocks_read: u64,
    /// See [`TraceRecord::cache_hits`].
    pub cache_hits: u64,
    /// See [`TraceRecord::bytes_decoded`].
    pub bytes_decoded: u64,
    /// See [`TraceRecord::retries`].
    pub retries: u64,
}

impl QueryTrace {
    /// Start a trace now.
    pub fn begin(op: &'static str) -> Self {
        Self {
            op,
            start: Instant::now(),
            plan_nanos: 0,
            position_nanos: 0,
            merge_nanos: 0,
            blocks_read: 0,
            cache_hits: 0,
            bytes_decoded: 0,
            retries: 0,
        }
    }

    /// Nanoseconds since the trace began.
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Seal the trace with its end-to-end latency.
    pub fn finish(self) -> TraceRecord {
        TraceRecord {
            op: self.op,
            total_nanos: self.elapsed_nanos(),
            plan_nanos: self.plan_nanos,
            position_nanos: self.position_nanos,
            merge_nanos: self.merge_nanos,
            blocks_read: self.blocks_read,
            cache_hits: self.cache_hits,
            bytes_decoded: self.bytes_decoded,
            retries: self.retries,
        }
    }
}

/// Ring buffer of the most recent slow queries.
#[derive(Debug)]
pub struct SlowQueryLog {
    ring: Mutex<VecDeque<TraceRecord>>,
    capacity: AtomicUsize,
    evicted: AtomicU64,
}

impl SlowQueryLog {
    /// A log keeping the newest `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: AtomicUsize::new(capacity),
            evicted: AtomicU64::new(0),
        }
    }

    /// Append a record, evicting the oldest once full. A zero-capacity log
    /// drops everything.
    pub fn push(&self, record: TraceRecord) {
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap == 0 {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.ring.lock().expect("slow-query log poisoned");
        while ring.len() >= cap {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Change the capacity in place; excess oldest records are evicted.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("slow-query log poisoned");
        while ring.len() > capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Oldest-first copy of the retained records.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.ring
            .lock()
            .expect("slow-query log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Records dropped to make room (ring evictions).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: &'static str, total: u64) -> TraceRecord {
        TraceRecord {
            op,
            total_nanos: total,
            plan_nanos: 0,
            position_nanos: 0,
            merge_nanos: 0,
            blocks_read: 0,
            cache_hits: 0,
            bytes_decoded: 0,
            retries: 0,
        }
    }

    #[test]
    fn ring_keeps_newest_records() {
        let log = SlowQueryLog::new(3);
        for i in 0..5 {
            log.push(rec("scan", i));
        }
        let snap = log.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.total_nanos).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest two evicted, newest three kept in order"
        );
        assert_eq!(log.evicted(), 2);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let log = SlowQueryLog::new(4);
        for i in 0..4 {
            log.push(rec("q", i));
        }
        log.set_capacity(2);
        assert_eq!(
            log.snapshot()
                .iter()
                .map(|r| r.total_nanos)
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        // The shrunk capacity also bounds future pushes.
        log.push(rec("q", 9));
        assert_eq!(log.snapshot().len(), 2);
    }

    #[test]
    fn zero_capacity_log_is_inert() {
        let log = SlowQueryLog::new(0);
        log.push(rec("q", 1));
        assert!(log.snapshot().is_empty());
        assert_eq!(log.evicted(), 1);
    }

    #[test]
    fn trace_finish_seals_fields() {
        let mut t = QueryTrace::begin("range_scan_seq");
        t.plan_nanos = 10;
        t.blocks_read = 4;
        let r = t.finish();
        assert_eq!(r.op, "range_scan_seq");
        assert_eq!(r.plan_nanos, 10);
        assert_eq!(r.blocks_read, 4);
    }
}
