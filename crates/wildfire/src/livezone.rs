//! The live zone (§2.1): transaction side-logs and the committed log.
//!
//! *"A transaction in Wildfire first appends uncommitted changes in a
//! transaction local side-log. Upon commit, the transaction ... appends its
//! side-log to the committed transaction log."* The committed log is kept in
//! memory for fast access and drained by the groomer. Umzi deliberately does
//! not index the live zone (§3): the groomer runs every second or so, so the
//! live zone stays small and is scanned directly by freshest-read queries.
//!
//! Substitution note (documented in DESIGN.md): log replication across
//! replicas and Parquet persistence of the committed log are out of scope —
//! grooming, which is what the index consumes, behaves identically.

use std::collections::VecDeque;

use parking_lot::Mutex;
use umzi_encoding::Datum;

/// One committed upsert awaiting grooming.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Global commit sequence (monotonic per shard); the groomer folds the
    /// within-cycle part into `beginTS`.
    pub commit_seq: u64,
    /// The upserted row.
    pub row: Vec<Datum>,
}

#[derive(Debug, Default)]
struct LogInner {
    records: VecDeque<LogRecord>,
    next_commit_seq: u64,
}

/// The in-memory committed transaction log of one shard.
#[derive(Debug, Default)]
pub struct CommittedLog {
    inner: Mutex<LogInner>,
}

impl CommittedLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically commit a side-log: all rows receive consecutive commit
    /// sequences with no interleaving from other transactions
    /// (last-writer-wins is decided by this order, §2.1).
    pub fn commit(&self, rows: Vec<Vec<Datum>>) -> u64 {
        let mut inner = self.inner.lock();
        let first = inner.next_commit_seq;
        for row in rows {
            let commit_seq = inner.next_commit_seq;
            inner.next_commit_seq += 1;
            inner.records.push_back(LogRecord { commit_seq, row });
        }
        first
    }

    /// Drain up to `limit` oldest records for grooming (commit order).
    pub fn drain(&self, limit: usize) -> Vec<LogRecord> {
        let mut inner = self.inner.lock();
        let n = inner.records.len().min(limit);
        inner.records.drain(..n).collect()
    }

    /// Put a drained batch back at the head of the log with its commit
    /// sequences: a groom that failed hands its rows back, so the next
    /// groom sees them again, ahead of anything committed since.
    pub(crate) fn requeue_front(&self, batch: Vec<LogRecord>) {
        let mut inner = self.inner.lock();
        for record in batch.into_iter().rev() {
            inner.records.push_front(record);
        }
    }

    /// Records waiting to be groomed.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scan the live zone newest-to-oldest, returning the first row matching
    /// `pred` (freshest-read point lookups over un-groomed data).
    pub fn find_latest(&self, mut pred: impl FnMut(&[Datum]) -> bool) -> Option<Vec<Datum>> {
        let inner = self.inner.lock();
        inner
            .records
            .iter()
            .rev()
            .find(|r| pred(&r.row))
            .map(|r| r.row.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, v: i64) -> Vec<Datum> {
        vec![Datum::Int64(k), Datum::Int64(v)]
    }

    #[test]
    fn commit_assigns_consecutive_sequences() {
        let log = CommittedLog::new();
        let first = log.commit(vec![row(1, 1), row(2, 2)]);
        assert_eq!(first, 0);
        let second = log.commit(vec![row(3, 3)]);
        assert_eq!(second, 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn drain_is_fifo_and_bounded() {
        let log = CommittedLog::new();
        log.commit((0..10).map(|i| row(i, i)).collect());
        let batch = log.drain(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].commit_seq, 0);
        assert_eq!(batch[3].commit_seq, 3);
        assert_eq!(log.len(), 6);
        assert_eq!(log.drain(100).len(), 6);
        assert!(log.is_empty());
    }

    #[test]
    fn requeued_batch_precedes_later_commits() {
        let log = CommittedLog::new();
        log.commit((0..4).map(|i| row(i, i)).collect());
        let batch = log.drain(3);
        log.commit(vec![row(9, 9)]);
        log.requeue_front(batch);
        let seqs: Vec<u64> = log.drain(100).iter().map(|r| r.commit_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn find_latest_sees_newest_version() {
        let log = CommittedLog::new();
        log.commit(vec![row(1, 10)]);
        log.commit(vec![row(1, 20)]);
        let found = log.find_latest(|r| r[0] == Datum::Int64(1)).unwrap();
        assert_eq!(found[1], Datum::Int64(20));
        assert!(log.find_latest(|r| r[0] == Datum::Int64(9)).is_none());
    }

    #[test]
    fn interleaved_transactions_keep_atomic_order() {
        // Two "transactions" committing concurrently never interleave rows.
        let log = std::sync::Arc::new(CommittedLog::new());
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    log.commit(vec![row(t, 0), row(t, 1), row(t, 2)]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = log.drain(usize::MAX);
        assert_eq!(all.len(), 4 * 50 * 3);
        // Every chunk of 3 consecutive commit seqs belongs to one txn.
        for chunk in all.chunks(3) {
            assert_eq!(chunk[0].row[0], chunk[1].row[0]);
            assert_eq!(chunk[1].row[0], chunk[2].row[0]);
        }
    }
}
