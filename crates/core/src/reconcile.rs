//! Reconciling results from multiple runs (§7.1.2).
//!
//! Each run's search already yields at most one (the newest visible) version
//! per logical key *within that run*; reconciliation keeps, per logical key,
//! only the hit from the newest run. Two strategies, as in the paper:
//!
//! * **Set approach** — search runs sequentially from newest to oldest and
//!   remember which keys were already returned. Cheap for small ranges; the
//!   set of intermediate keys must fit in memory.
//! * **Priority-queue approach** — merge all runs' sorted streams through a
//!   heap (the merge step of merge sort); the first entry of each logical
//!   key group is the newest version, so no intermediate set is needed.
//!
//! Correctness of the set approach relies on the candidate-run ordering
//! established by the query layer: runs are processed in descending
//! `groomed_hi` order, and the zone invariant guarantees a newer run can
//! never hold an *older* newest-visible version than an overlapping older
//! run.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use umzi_run::{Result, SearchHit};

/// How multi-run results are reconciled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconcileStrategy {
    /// Remember returned keys in a hash set (good for small ranges).
    Set,
    /// K-way merge through a priority queue (bounded memory).
    #[default]
    PriorityQueue,
}

/// Set approach: `streams` must be ordered newest run first. Returns hits
/// sorted by full key (for deterministic output).
pub fn reconcile_set<I>(streams: Vec<I>) -> Result<Vec<SearchHit>>
where
    I: Iterator<Item = Result<SearchHit>>,
{
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut out = Vec::new();
    for stream in streams {
        for hit in stream {
            let hit = hit?;
            let logical = hit.logical_key().to_vec();
            if seen.insert(logical) {
                out.push(hit);
            }
        }
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
}

struct HeapEntry {
    hit: SearchHit,
    /// Stream rank: lower = newer run; breaks ties between identical
    /// versions that appear in two zones during an evolve window.
    rank: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.hit.key == other.hit.key && self.rank == other.rank
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for ascending key order. Full keys
        // order versions of one logical key newest-first (¬beginTS).
        other
            .hit
            .key
            .cmp(&self.hit.key)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

/// Priority-queue approach: merges the streams, emitting the first (newest
/// visible) entry of every logical-key group. `streams` ordered newest run
/// first. Output is sorted by full key.
pub fn reconcile_pq<I>(streams: Vec<I>) -> Result<Vec<SearchHit>>
where
    I: Iterator<Item = Result<SearchHit>>,
{
    let mut streams: Vec<I> = streams;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(streams.len());
    for (rank, s) in streams.iter_mut().enumerate() {
        if let Some(hit) = s.next().transpose()? {
            heap.push(HeapEntry { hit, rank });
        }
    }

    let mut out: Vec<SearchHit> = Vec::new();
    let mut last_logical: Option<Vec<u8>> = None;
    // The streams check their query context at block boundaries; this
    // periodic check also bounds cancellation latency for merges running
    // entirely out of the decoded cache.
    let mut since_check = 0u32;
    while let Some(HeapEntry { hit, rank }) = heap.pop() {
        since_check += 1;
        if since_check >= 256 {
            since_check = 0;
            umzi_storage::context::check_current("reconcile")?;
        }
        if let Some(next) = streams[rank].next().transpose()? {
            heap.push(HeapEntry { hit: next, rank });
        }
        let logical = hit.logical_key();
        if last_logical.as_deref() != Some(logical) {
            last_logical = Some(logical.to_vec());
            out.push(hit);
        }
        // Else: an older version (or a cross-zone duplicate of the same
        // version) of an already-emitted key — discard, exactly the paper's
        // "select the most recent version for each key and discard the rest".
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Fabricate a hit with `key = logical ∥ ¬ts` like the run format.
    fn hit(logical: &[u8], ts: u64) -> SearchHit {
        let mut key = logical.to_vec();
        key.extend_from_slice(&(!ts).to_be_bytes());
        SearchHit {
            key: Bytes::from(key),
            value: Bytes::from_static(b"v"),
            begin_ts: ts,
        }
    }

    fn ok_stream(hits: Vec<SearchHit>) -> impl Iterator<Item = Result<SearchHit>> {
        hits.into_iter().map(Ok)
    }

    fn pairs(hits: &[SearchHit]) -> Vec<(Vec<u8>, u64)> {
        hits.iter()
            .map(|h| (h.logical_key().to_vec(), h.begin_ts))
            .collect()
    }

    #[test]
    fn set_prefers_newer_runs() {
        // Run 0 (newest) has k1@20; run 1 has k1@10 and k2@5.
        let s0 = ok_stream(vec![hit(b"k1", 20)]);
        let s1 = ok_stream(vec![hit(b"k1", 10), hit(b"k2", 5)]);
        let out = reconcile_set(vec![s0, s1]).unwrap();
        assert_eq!(pairs(&out), vec![(b"k1".to_vec(), 20), (b"k2".to_vec(), 5)]);
    }

    #[test]
    fn pq_matches_set() {
        let runs = [
            vec![hit(b"a", 30), hit(b"c", 10)],
            vec![hit(b"a", 20), hit(b"b", 15)],
            vec![hit(b"b", 5), hit(b"c", 8), hit(b"d", 1)],
        ];
        let set_out = reconcile_set(runs.iter().cloned().map(ok_stream).collect()).unwrap();
        let pq_out = reconcile_pq(runs.iter().cloned().map(ok_stream).collect()).unwrap();
        assert_eq!(pairs(&set_out), pairs(&pq_out));
        assert_eq!(
            pairs(&pq_out),
            vec![
                (b"a".to_vec(), 30),
                (b"b".to_vec(), 15),
                (b"c".to_vec(), 10),
                (b"d".to_vec(), 1),
            ]
        );
    }

    #[test]
    fn pq_dedupes_cross_zone_duplicates() {
        // The same version (key, ts) present in two runs — the evolve window
        // of §5.4. Exactly one copy must be emitted.
        let s0 = ok_stream(vec![hit(b"k", 9)]);
        let s1 = ok_stream(vec![hit(b"k", 9)]);
        let out = reconcile_pq(vec![s0, s1]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].begin_ts, 9);

        let s0 = ok_stream(vec![hit(b"k", 9)]);
        let s1 = ok_stream(vec![hit(b"k", 9)]);
        assert_eq!(reconcile_set(vec![s0, s1]).unwrap().len(), 1);
    }

    #[test]
    fn empty_streams() {
        let out = reconcile_pq(vec![ok_stream(vec![]), ok_stream(vec![])]).unwrap();
        assert!(out.is_empty());
        let out: Vec<SearchHit> = reconcile_set(Vec::<std::vec::IntoIter<_>>::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let make = || {
            vec![
                Ok(hit(b"a", 1)),
                Err(umzi_run::RunError::Corrupt {
                    context: "boom".into(),
                }),
            ]
        };
        assert!(reconcile_pq(vec![make().into_iter()]).is_err());
        assert!(reconcile_set(vec![make().into_iter()]).is_err());
    }

    #[test]
    fn outputs_sorted_by_key() {
        let s0 = ok_stream(vec![hit(b"m", 1), hit(b"z", 1)]);
        let s1 = ok_stream(vec![hit(b"a", 1)]);
        let out = reconcile_set(vec![s0, s1]).unwrap();
        let keys: Vec<_> = out.iter().map(|h| h.logical_key().to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"m".to_vec(), b"z".to_vec()]);
    }
}
