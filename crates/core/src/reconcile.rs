//! Reconciling results from multiple runs (§7.1.2), and the one k-way merge
//! that range scans and run merges (§5.3) share.
//!
//! Each run's search already yields at most one (the newest visible) version
//! per logical key *within that run*; reconciliation keeps, per logical key,
//! only the hit from the newest run. Two strategies, as in the paper:
//!
//! * **Set approach** — search runs sequentially from newest to oldest and
//!   remember which keys were already returned. Cheap for small ranges; the
//!   set of intermediate keys must fit in memory.
//! * **Priority-queue approach** — merge all runs' sorted streams (the merge
//!   step of merge sort, [`merge_streams`]); the first entry of each logical
//!   key group is the newest version, so no intermediate set is needed.
//!
//! [`merge_streams`] orders items by (full key, stream rank) and touches its
//! heap only when the lead changes: after it pops the least head, it keeps
//! taking from that stream while the stream's next item still sorts before
//! the heap's top, at one key comparison per item. D1-like data takes this
//! streak path almost always: a device's `msg` grows with time, so one
//! device's keys in different runs barely overlap, and a scan or a merge
//! reads each run's share as one streak (90–93 % of merged items, scans
//! and run merges alike, on the benchmark's D1 workloads).
//!
//! Correctness of the set approach relies on the candidate-run ordering
//! established by the query layer: runs are processed in descending
//! `groomed_hi` order, and the zone invariant guarantees a newer run can
//! never hold an *older* newest-visible version than an overlapping older
//! run.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use umzi_run::{EntryRef, Result, SearchHit};

/// How multi-run results are reconciled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconcileStrategy {
    /// Remember returned keys in a hash set (good for small ranges).
    Set,
    /// K-way merge through a priority queue (bounded memory).
    #[default]
    PriorityQueue,
}

/// An item of a sorted stream [`merge_streams`] merges: its full key.
pub trait Keyed {
    /// The full key the stream is sorted by.
    fn sort_key(&self) -> &[u8];
}

impl Keyed for SearchHit {
    fn sort_key(&self) -> &[u8] {
        &self.key
    }
}

impl Keyed for EntryRef {
    fn sort_key(&self) -> &[u8] {
        &self.key
    }
}

/// A stream's head in the merge heap. `rank` is the stream's position
/// (lower = newer run); it breaks ties between equal keys, such as the
/// identical versions two zones hold during an evolve window (§5.4).
struct Head<T> {
    item: T,
    rank: usize,
}

impl<T: Keyed> Head<T> {
    /// The merge order, ascending.
    fn order(&self) -> (&[u8], usize) {
        (self.item.sort_key(), self.rank)
    }
}

impl<T: Keyed> PartialEq for Head<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Keyed> Eq for Head<T> {}
impl<T: Keyed> PartialOrd for Head<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Keyed> Ord for Head<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: the head that leaves first is greatest.
        other.order().cmp(&self.order())
    }
}

/// K-way merge of sorted `streams`: hands `sink` every item in (full key,
/// stream rank) order, i.e. a stable sort of all items by key with earlier
/// streams first among equal keys. While one stream leads, its items cost
/// one key comparison against the heap's top each and no heap traffic; the
/// heap is touched only when the lead changes. Stops at the first error of
/// a stream or of `sink`.
pub fn merge_streams<T, E, I>(
    mut streams: Vec<I>,
    mut sink: impl FnMut(T) -> std::result::Result<(), E>,
) -> std::result::Result<(), E>
where
    T: Keyed,
    I: Iterator<Item = std::result::Result<T, E>>,
{
    let mut heap = BinaryHeap::with_capacity(streams.len());
    for (rank, s) in streams.iter_mut().enumerate() {
        if let Some(item) = s.next().transpose()? {
            heap.push(Head { item, rank });
        }
    }
    let Some(mut lead) = heap.pop() else {
        return Ok(());
    };
    loop {
        let rank = lead.rank;
        sink(lead.item)?;
        lead = match streams[rank].next().transpose()? {
            Some(item) => {
                let next = Head { item, rank };
                match heap.peek_mut() {
                    // The lead changes: `next` takes the top's place, one
                    // sift instead of a push and a pop.
                    Some(mut top) if top.order() < next.order() => {
                        std::mem::replace(&mut *top, next)
                    }
                    _ => next,
                }
            }
            None => match heap.pop() {
                Some(head) => head,
                None => return Ok(()),
            },
        };
    }
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

/// Priority-queue approach: merges the streams ([`merge_streams`]) and hands
/// `emit` the first (newest visible) entry of every logical-key group, in
/// full-key order. `streams` ordered newest run first. The last emitted
/// logical key lives in one reused buffer, so a key costs no allocation.
pub fn reconcile_pq<I>(streams: Vec<I>, mut emit: impl FnMut(SearchHit) -> Result<()>) -> Result<()>
where
    I: Iterator<Item = Result<SearchHit>>,
{
    let mut last_logical: Option<Vec<u8>> = None;
    // The streams check their query context at block boundaries; this
    // check every 256 consumed entries (emitted or discarded, inside a
    // streak too) also bounds cancellation latency for merges running
    // entirely out of the decoded cache.
    let mut since_check = 0u32;
    merge_streams(streams, |hit| {
        since_check += 1;
        if since_check >= 256 {
            since_check = 0;
            umzi_storage::context::check_current("reconcile")?;
        }
        let logical = hit.logical_key();
        match &mut last_logical {
            // An older version (or a cross-zone duplicate of the same
            // version) of an already-emitted key — discard, exactly the
            // paper's "select the most recent version for each key and
            // discard the rest".
            Some(last) if last.as_slice() == logical => return Ok(()),
            Some(last) => {
                last.clear();
                last.extend_from_slice(logical);
            }
            None => last_logical = Some(logical.to_vec()),
        }
        emit(hit)
    })
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

    fn reconcile_pq_vec<I>(streams: Vec<I>) -> Result<Vec<SearchHit>>
    where
        I: Iterator<Item = Result<SearchHit>>,
    {
        let mut out = Vec::new();
        reconcile_pq(streams, |hit| {
            out.push(hit);
            Ok(())
        })?;
        Ok(out)
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
        let pq_out = reconcile_pq_vec(runs.iter().cloned().map(ok_stream).collect()).unwrap();
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
        let out = reconcile_pq_vec(vec![s0, s1]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].begin_ts, 9);

        let s0 = ok_stream(vec![hit(b"k", 9)]);
        let s1 = ok_stream(vec![hit(b"k", 9)]);
        assert_eq!(reconcile_set(vec![s0, s1]).unwrap().len(), 1);
    }

    #[test]
    fn empty_streams() {
        let out = reconcile_pq_vec(vec![ok_stream(vec![]), ok_stream(vec![])]).unwrap();
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
        assert!(reconcile_pq_vec(vec![make().into_iter()]).is_err());
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
