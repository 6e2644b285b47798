//! Run lists with wait-free reads (§5.1).
//!
//! *"Umzi relies on atomic pointers and chains runs in each zone together
//! into a linked list, where the header points to the most recent run. All
//! maintenance operations are carefully designed so that each index
//! modification, i.e., a pointer modification, always results in a valid
//! state of the index. As a result, queries can always traverse run lists
//! sequentially without locking."*
//!
//! The list is a *persistent* (immutable-node) singly-linked list: nodes are
//! `Arc`s and never mutated after publication, so a reader that grabbed the
//! head keeps walking a valid chain no matter what writers do afterwards —
//! exactly the paper's *"it sees correct results no matter whether the old
//! runs or the new run are accessed"*. Readers take one brief head-pointer
//! load (an uncontended `RwLock` read of a single `Option<Arc>`); writers
//! (index build, merge, evolve, GC) serialize on one mutex per list and
//! publish every structural change as a single head store:
//!
//! * **prepend** (§5.2): a new node pointing at the current head;
//! * **splice** (§5.3, Figure 4): the prefix up to the merged runs is
//!   rebuilt (structure-shared tail), the replacement node points at the
//!   node after the last merged run;
//! * **unlink** (§5.4 step 3): the chain is rebuilt without the removed
//!   nodes.
//!
//! Reclamation is pure `Arc` reference counting: snapshots keep unlinked
//! runs alive until the last reader drops them, which the graveyard's
//! `strong_count` check in [`crate::index::UmziIndex::collect_garbage`]
//! observes directly — no epoch machinery needed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use umzi_run::Run;

struct Node {
    run: Arc<Run>,
    next: Option<Arc<Node>>,
}

/// A list of runs, newest first, with wait-free snapshot reads.
pub struct RunList {
    head: RwLock<Option<Arc<Node>>>,
    write_lock: Mutex<()>,
    len: AtomicUsize,
}

impl Default for RunList {
    fn default() -> Self {
        Self::new()
    }
}

impl RunList {
    /// An empty list.
    pub fn new() -> Self {
        Self {
            head: RwLock::new(None),
            write_lock: Mutex::new(()),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of runs (approximate under concurrent mutation).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn load_head(&self) -> Option<Arc<Node>> {
        self.head.read().clone()
    }

    fn store_head(&self, head: Option<Arc<Node>>) {
        let old = std::mem::replace(&mut *self.head.write(), head);
        Self::drain_chain(old);
    }

    /// Tear down a node chain iteratively, stopping at the first node still
    /// shared (with the new head's tail or a snapshot in progress) — a long
    /// replaced prefix must not recurse one stack frame per node.
    fn drain_chain(mut cur: Option<Arc<Node>>) {
        while let Some(node) = cur {
            cur = match Arc::try_unwrap(node) {
                Ok(mut n) => n.next.take(),
                Err(_) => None, // shared: its (non-recursive) drop happens later
            };
        }
    }

    /// Snapshot of the current runs, newest first.
    ///
    /// This is the query-side entry point: one head load, then a walk over
    /// immutable nodes — writers can never invalidate a snapshot in
    /// progress.
    pub fn snapshot(&self) -> Vec<Arc<Run>> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.load_head();
        while let Some(node) = cur {
            out.push(Arc::clone(&node.run));
            cur = node.next.clone();
        }
        out
    }

    /// Count the runs matching `pred` — same lock-free walk as
    /// [`RunList::snapshot`] but with a single `Arc` clone (the head) and
    /// no `Vec`, for hot-path callers like the ingest backpressure gate.
    pub fn count_matching(&self, mut pred: impl FnMut(&Run) -> bool) -> usize {
        let head = self.load_head();
        let mut n = 0;
        let mut cur = head.as_deref();
        while let Some(node) = cur {
            if pred(&node.run) {
                n += 1;
            }
            cur = node.next.as_deref();
        }
        n
    }

    /// Prepend a run (index build, §5.2; evolve step 1, §5.4).
    pub fn push_front(&self, run: Arc<Run>) {
        let _w = self.write_lock.lock();
        let node = Arc::new(Node {
            run,
            next: self.load_head(),
        });
        self.store_head(Some(node));
        self.len.fetch_add(1, Ordering::AcqRel);
    }

    /// Replace the consecutive nodes carrying `old_ids` (in list order) with
    /// a single node for `new_run` (merge, §5.3 / Figure 4). Returns the
    /// replaced runs, or `None` — with the list unchanged — if the expected
    /// sequence is no longer present (a concurrent GC won the race).
    pub fn replace_consecutive(&self, old_ids: &[u64], new_run: Arc<Run>) -> Option<Vec<Arc<Run>>> {
        assert!(
            !old_ids.is_empty(),
            "replace_consecutive requires at least one run"
        );
        let _w = self.write_lock.lock();

        // Walk to the first old node, remembering the prefix to rebuild.
        let mut prefix: Vec<Arc<Run>> = Vec::new();
        let mut cur = self.load_head();
        loop {
            let node = cur?;
            if node.run.run_id() == old_ids[0] {
                cur = Some(node);
                break;
            }
            prefix.push(Arc::clone(&node.run));
            cur = node.next.clone();
        }

        // Verify the full consecutive sequence and find the node after it.
        let mut removed = Vec::with_capacity(old_ids.len());
        let mut walk = cur;
        for &expected in old_ids {
            let node = walk?;
            if node.run.run_id() != expected {
                return None;
            }
            removed.push(Arc::clone(&node.run));
            walk = node.next.clone();
        }
        let after = walk;

        // Figure 4: the replacement node points at the next run of the last
        // merged run; the rebuilt prefix structure-shares everything past it.
        let mut chain = Some(Arc::new(Node {
            run: new_run,
            next: after,
        }));
        for run in prefix.into_iter().rev() {
            chain = Some(Arc::new(Node { run, next: chain }));
        }
        self.store_head(chain);
        self.len.fetch_sub(old_ids.len() - 1, Ordering::AcqRel);
        Some(removed)
    }

    /// Unlink every run for which `pred` returns true (evolve step 3 GC,
    /// §5.4). Returns the removed runs (callers decide when the backing
    /// objects can actually be deleted).
    pub fn remove_matching(&self, mut pred: impl FnMut(&Run) -> bool) -> Vec<Arc<Run>> {
        let _w = self.write_lock.lock();
        let mut removed = Vec::new();
        let mut kept: Vec<Arc<Run>> = Vec::new();
        let mut cur = self.load_head();
        while let Some(node) = cur {
            if pred(&node.run) {
                removed.push(Arc::clone(&node.run));
            } else {
                kept.push(Arc::clone(&node.run));
            }
            cur = node.next.clone();
        }
        if !removed.is_empty() {
            let mut chain = None;
            for run in kept.into_iter().rev() {
                chain = Some(Arc::new(Node { run, next: chain }));
            }
            self.store_head(chain);
            self.len.fetch_sub(removed.len(), Ordering::AcqRel);
        }
        removed
    }
}

impl Drop for RunList {
    fn drop(&mut self) {
        Self::drain_chain(self.head.get_mut().take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use umzi_encoding::{ColumnType, IndexDef};
    use umzi_run::{KeyLayout, RunBuilder, RunParams, ZoneId};
    use umzi_storage::{Durability, TieredStorage};

    fn test_run(storage: &Arc<TieredStorage>, run_id: u64, lo: u64, hi: u64) -> Arc<Run> {
        let def = IndexDef::builder("t")
            .equality("k", ColumnType::Int64)
            .build()
            .unwrap();
        let layout = KeyLayout::new(Arc::new(def));
        let b = RunBuilder::new(
            layout,
            RunParams {
                run_id,
                zone: ZoneId::GROOMED,
                level: 0,
                groomed_lo: lo,
                groomed_hi: hi,
                psn: 0,
                offset_bits: 0,
                ancestors: vec![],
            },
            storage.chunk_size(),
        );
        Arc::new(
            b.finish(
                storage,
                &format!("runs/{run_id}"),
                Durability::Persisted,
                false,
            )
            .unwrap(),
        )
    }

    fn ids(list: &RunList) -> Vec<u64> {
        list.snapshot().iter().map(|r| r.run_id()).collect()
    }

    #[test]
    fn push_front_orders_newest_first() {
        let storage = Arc::new(TieredStorage::in_memory());
        let list = RunList::new();
        for i in 1..=4 {
            list.push_front(test_run(&storage, i, i, i));
        }
        assert_eq!(ids(&list), vec![4, 3, 2, 1]);
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn replace_consecutive_splices() {
        let storage = Arc::new(TieredStorage::in_memory());
        let list = RunList::new();
        for i in 1..=5 {
            list.push_front(test_run(&storage, i, i, i));
        }
        // List: 5 4 3 2 1. Merge 4,3,2 → 9.
        let removed = list
            .replace_consecutive(&[4, 3, 2], test_run(&storage, 9, 2, 4))
            .unwrap();
        assert_eq!(
            removed.iter().map(|r| r.run_id()).collect::<Vec<_>>(),
            vec![4, 3, 2]
        );
        assert_eq!(ids(&list), vec![5, 9, 1]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn replace_at_head_and_tail() {
        let storage = Arc::new(TieredStorage::in_memory());
        let list = RunList::new();
        for i in 1..=3 {
            list.push_front(test_run(&storage, i, i, i));
        }
        // Head replace: 3,2 → 10 ⇒ [10, 1]
        list.replace_consecutive(&[3, 2], test_run(&storage, 10, 2, 3))
            .unwrap();
        assert_eq!(ids(&list), vec![10, 1]);
        // Tail replace: 1 → 11 ⇒ [10, 11]
        list.replace_consecutive(&[1], test_run(&storage, 11, 1, 1))
            .unwrap();
        assert_eq!(ids(&list), vec![10, 11]);
    }

    #[test]
    fn replace_fails_on_stale_sequence() {
        let storage = Arc::new(TieredStorage::in_memory());
        let list = RunList::new();
        for i in 1..=3 {
            list.push_front(test_run(&storage, i, i, i));
        }
        // Non-consecutive or missing sequences must leave the list intact.
        assert!(list
            .replace_consecutive(&[3, 1], test_run(&storage, 9, 0, 0))
            .is_none());
        assert!(list
            .replace_consecutive(&[7], test_run(&storage, 10, 0, 0))
            .is_none());
        assert!(list
            .replace_consecutive(&[2, 1, 99], test_run(&storage, 11, 0, 0))
            .is_none());
        assert_eq!(ids(&list), vec![3, 2, 1]);
    }

    #[test]
    fn remove_matching_unlinks() {
        let storage = Arc::new(TieredStorage::in_memory());
        let list = RunList::new();
        for i in 1..=6 {
            list.push_front(test_run(&storage, i, i, i));
        }
        // GC runs whose groomed_hi ≤ 3 (evolve watermark semantics).
        let removed = list.remove_matching(|r| r.groomed_range().1 <= 3);
        assert_eq!(removed.len(), 3);
        assert_eq!(ids(&list), vec![6, 5, 4]);
        assert_eq!(list.len(), 3);
        // Removing nothing is a no-op.
        assert!(list.remove_matching(|_| false).is_empty());
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn snapshot_survives_concurrent_unlink() {
        // A snapshot taken before a splice keeps the old runs alive and
        // walkable after the splice retires them.
        let storage = Arc::new(TieredStorage::in_memory());
        let list = RunList::new();
        for i in 1..=4 {
            list.push_front(test_run(&storage, i, i, i));
        }
        let snap = list.snapshot();
        list.replace_consecutive(&[3, 2], test_run(&storage, 9, 2, 3))
            .unwrap();
        assert_eq!(
            snap.iter().map(|r| r.run_id()).collect::<Vec<_>>(),
            vec![4, 3, 2, 1]
        );
        assert_eq!(ids(&list), vec![4, 9, 1]);
    }

    #[test]
    fn readers_survive_concurrent_maintenance() {
        // Readers continuously snapshot while a writer churns the list with
        // pushes, splices and removals; every snapshot must be internally
        // consistent (walkable, no duplicates, non-empty).
        let storage = Arc::new(TieredStorage::in_memory());
        let list = Arc::new(RunList::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        for i in 1..=8 {
            list.push_front(test_run(&storage, i, i, i));
        }

        let mut readers = Vec::new();
        for _ in 0..4 {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut snaps = 0u64;
                // Snapshot-then-check so every reader validates at least one
                // snapshot even if the writer finishes before this thread is
                // first scheduled.
                loop {
                    let snap = list.snapshot();
                    assert!(!snap.is_empty());
                    let mut seen = std::collections::HashSet::new();
                    for r in &snap {
                        assert!(seen.insert(r.run_id()), "duplicate run in snapshot");
                    }
                    snaps += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                snaps
            }));
        }

        let mut next_id = 100u64;
        for round in 0..200 {
            list.push_front(test_run(&storage, next_id, next_id, next_id));
            next_id += 1;
            if round % 3 == 0 {
                // Merge the two oldest runs into one.
                let snap = list.snapshot();
                if snap.len() >= 4 {
                    let a = snap[snap.len() - 2].run_id();
                    let b = snap[snap.len() - 1].run_id();
                    list.replace_consecutive(&[a, b], test_run(&storage, next_id, 0, next_id));
                    next_id += 1;
                }
            }
            if round % 7 == 0 {
                let snap = list.snapshot();
                if snap.len() > 6 {
                    let victim = snap[3].run_id();
                    list.remove_matching(|r| r.run_id() == victim);
                }
            }
        }

        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let snaps = r.join().unwrap();
            assert!(snaps > 0, "reader made no progress");
        }
    }
}
