//! Index merge (§5.3).
//!
//! The hybrid merge policy: each level `L` holds one *active* run plus up to
//! `K` *inactive* (sealed) runs. When `K` inactive runs accumulate at `L`,
//! they are merged together with the active run of `L+1` into a new active
//! run at `L+1`; that run is sealed once its size reaches `T×` the size of
//! an inactive `L` run. Runs entering a zone (groom builds, evolve builds)
//! are sealed at birth. The top level of each zone never merges further —
//! groomed-zone top runs leave via evolve GC (§5.4).
//!
//! A merge publishes its result with the two-step pointer splice of
//! Figure 4, implemented by [`crate::runlist::RunList::replace_consecutive`];
//! queries racing with the splice correctly see either the old runs or the
//! new run.
//!
//! Non-persisted target levels (§6.1): merged-away *persisted* inputs are
//! not deleted — they are recorded as the new run's ancestors and parked in
//! the ancestor pool until the chain re-enters a persisted level.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use umzi_run::{DataBlock, EntryRef, Run};

use crate::error::UmziError;
use crate::index::UmziIndex;
use crate::reconcile::merge_streams;
use crate::Result;

/// Outcome of one completed merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// Source level.
    pub level: u32,
    /// Number of input runs (K from the source level, plus the target's
    /// active run when present).
    pub inputs: usize,
    /// ID of the produced run.
    pub output_run_id: u64,
    /// Entries in the produced run.
    pub output_entries: u64,
    /// Size of the produced run object in bytes.
    pub output_bytes: u64,
    /// Whether the produced run was immediately sealed.
    pub sealed: bool,
}

/// Every entry of a run in key order, stepping through its data blocks
/// one after another.
struct RunCursor<'a> {
    run: &'a Run,
    block: Option<DataBlock>,
    /// Next slot of `block`.
    slot: u16,
    /// Next block to fetch.
    next_block: u32,
}

impl<'a> RunCursor<'a> {
    fn new(run: &'a Run) -> Self {
        Self {
            run,
            block: None,
            slot: 0,
            next_block: 0,
        }
    }
}

impl Iterator for RunCursor<'_> {
    type Item = umzi_run::Result<EntryRef>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(block) = &self.block {
                if self.slot < block.entry_count() {
                    self.slot += 1;
                    return Some(block.entry(self.slot - 1));
                }
            }
            if self.next_block >= self.run.data_block_count() {
                return None;
            }
            // Merges sweep every input block exactly once: maintenance
            // traffic, never admitted to the decoded cache.
            let fetched = self
                .run
                .data_block_as(self.next_block, umzi_run::AccessPattern::Maintenance);
            self.next_block += 1;
            self.slot = 0;
            match fetched {
                Ok(block) => self.block = Some(block),
                Err(e) => {
                    self.next_block = self.run.data_block_count();
                    return Some(Err(e));
                }
            }
        }
    }
}

impl UmziIndex {
    /// Attempt one merge of level `level` into `level + 1` (same zone).
    /// Returns `Ok(None)` when the merge condition is not met, `Ok(Some)`
    /// on success, and [`UmziError::MergeConflict`] if the input runs were
    /// concurrently removed (e.g. by evolve GC) — simply retry later.
    pub fn merge_at(&self, level: u32) -> Result<Option<MergeReport>> {
        let Some(zone_idx) = self.config.zone_of_level(level) else {
            return Ok(None);
        };
        if self.config.zone_of_level(level + 1) != Some(zone_idx) {
            return Ok(None); // zone-top level: merges never cross zones (§4.3)
        }
        let _level_guard = self.level_locks[level as usize].lock();

        let snapshot = self.zones[zone_idx].list.snapshot();
        let at_level: Vec<&Arc<Run>> = snapshot.iter().filter(|r| r.level() == level).collect();
        let sealed_count = at_level.iter().filter(|r| r.is_sealed()).count();
        let k = self.config.merge.k;
        if sealed_count < k {
            return Ok(None);
        }

        // Oldest K sealed runs = the tail of the level's segment (only the
        // newest run of a level can be unsealed).
        let inputs_l: Vec<Arc<Run>> = at_level[at_level.len() - k..]
            .iter()
            .map(|r| Arc::clone(r))
            .collect();
        debug_assert!(inputs_l.iter().all(|r| r.is_sealed()));

        // The target level's active run, if any, joins the merge.
        let target_active: Option<Arc<Run>> = snapshot
            .iter()
            .find(|r| r.level() == level + 1)
            .filter(|r| !r.is_sealed())
            .map(Arc::clone);

        let mut inputs: Vec<Arc<Run>> = inputs_l.clone();
        if let Some(t) = &target_active {
            inputs.push(Arc::clone(t));
        }
        let input_ids: Vec<u64> = inputs.iter().map(|r| r.run_id()).collect();

        let groomed_lo = inputs
            .iter()
            .map(|r| r.groomed_range().0)
            .min()
            .expect("inputs");
        let groomed_hi = inputs
            .iter()
            .map(|r| r.groomed_range().1)
            .max()
            .expect("inputs");
        let target_persisted = self.config.is_persisted_level(level + 1);

        // Ancestor bookkeeping (§6.1).
        let ancestors = if target_persisted {
            Vec::new()
        } else {
            let mut out = Vec::new();
            for r in &inputs {
                if self.config.is_persisted_level(r.level()) {
                    out.push(r.name().to_owned());
                } else {
                    out.extend(r.header().ancestors.iter().cloned());
                }
            }
            out
        };

        // K-way merge of all versions — Umzi is a multi-version index, so
        // merges combine runs without dropping older versions (time travel
        // needs them; version GC is endTS-driven in the data zones).
        let cursors: Vec<RunCursor> = inputs.iter().map(|r| RunCursor::new(r)).collect();
        let new_run = self.build_run_sorted(
            zone_idx,
            level + 1,
            groomed_lo,
            groomed_hi,
            0,
            ancestors,
            |builder| {
                merge_streams(cursors, |e| builder.push_raw(&e.key, &e.value))?;
                Ok(())
            },
        )?;

        // Seal once the active run is T× an inactive input from level L.
        let max_input_l = inputs_l
            .iter()
            .map(|r| r.entry_count())
            .max()
            .unwrap_or(0)
            .max(1);
        let sealed = new_run.entry_count() >= self.config.merge.t * max_input_l;
        if sealed {
            new_run.seal();
        }

        // Publish with the Figure 4 splice; on conflict drop the orphan run.
        let Some(removed) = self.zones[zone_idx]
            .list
            .replace_consecutive(&input_ids, Arc::clone(&new_run))
        else {
            self.storage.delete_object(new_run.handle())?;
            self.counters
                .merge_conflicts
                .fetch_add(1, Ordering::Relaxed);
            return Err(UmziError::MergeConflict);
        };

        // Dispose of the replaced runs.
        if target_persisted {
            for r in &removed {
                for ancestor in &r.header().ancestors {
                    if let Some(a) = self.ancestor_pool.lock().remove(ancestor) {
                        self.bury([a]);
                    } else {
                        // Post-recovery ancestor without a live handle. GC
                        // must not fail the merge; a failed delete is
                        // parked for the janitor.
                        self.storage.delete_or_park(ancestor);
                    }
                }
            }
            self.bury(removed);
        } else {
            for r in removed {
                if self.config.is_persisted_level(r.level()) {
                    // Kept as an ancestor: object stays in shared storage.
                    self.ancestor_pool.lock().insert(r.name().to_owned(), r);
                } else {
                    self.bury([r]);
                }
            }
        }

        self.counters.merges.fetch_add(1, Ordering::Relaxed);
        Ok(Some(MergeReport {
            level,
            inputs: input_ids.len(),
            output_run_id: new_run.run_id(),
            output_entries: new_run.entry_count(),
            output_bytes: new_run.size_bytes(),
            sealed,
        }))
    }

    /// Run merges at every level until the structure is quiescent. Returns
    /// the number of merges performed. (Tests and synchronous callers; the
    /// background [`crate::daemon::MaintenanceDaemon`] drives `merge_at`
    /// job-by-job instead.)
    pub fn drain_merges(&self) -> Result<usize> {
        let mut total = 0;
        loop {
            let mut progressed = false;
            for level in 0..=self.config.max_level() {
                loop {
                    match self.merge_at(level) {
                        Ok(Some(_)) => {
                            total += 1;
                            progressed = true;
                        }
                        Ok(None) => break,
                        Err(UmziError::MergeConflict) => break,
                        Err(e) => return Err(e),
                    }
                }
            }
            if !progressed {
                return Ok(total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MergePolicy, UmziConfig};
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_run::{IndexEntry, Rid, ZoneId};
    use umzi_storage::TieredStorage;

    fn setup(k: usize, t: u64, non_persisted: Vec<u32>) -> Arc<UmziIndex> {
        let storage = Arc::new(TieredStorage::in_memory());
        let def = Arc::new(
            IndexDef::builder("t")
                .equality("device", ColumnType::Int64)
                .sort("msg", ColumnType::Int64)
                .build()
                .unwrap(),
        );
        let mut cfg = UmziConfig::two_zone("idx");
        cfg.merge = MergePolicy { k, t };
        cfg.non_persisted_levels = non_persisted;
        UmziIndex::create(storage, def, cfg).unwrap()
    }

    fn add_groom(idx: &UmziIndex, block: u64, n: i64) {
        let entries: Vec<IndexEntry> = (0..n)
            .map(|i| {
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(i % 5)],
                    &[Datum::Int64(i + block as i64 * 10_000)],
                    block * 100 + i as u64,
                    Rid::new(ZoneId::GROOMED, block, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        idx.build_groomed_run(entries, block, block).unwrap();
    }

    fn levels(idx: &UmziIndex) -> Vec<u32> {
        idx.zones()[0]
            .list
            .snapshot()
            .iter()
            .map(|r| r.level())
            .collect()
    }

    #[test]
    fn no_merge_below_k() {
        let idx = setup(4, 4, vec![]);
        for b in 1..=3 {
            add_groom(&idx, b, 10);
        }
        assert_eq!(idx.merge_at(0).unwrap(), None);
        assert_eq!(idx.run_count(), 3);
    }

    #[test]
    fn k_runs_trigger_merge_preserving_entries() {
        let idx = setup(4, 100, vec![]);
        for b in 1..=4 {
            add_groom(&idx, b, 10);
        }
        let report = idx.merge_at(0).unwrap().expect("merge must fire");
        assert_eq!(report.level, 0);
        assert_eq!(report.inputs, 4);
        assert_eq!(
            report.output_entries, 40,
            "multi-version merge keeps all entries"
        );
        assert!(!report.sealed, "T=100 keeps the new run active");
        assert_eq!(levels(&idx), vec![1]);
        // Covered groomed range spans all inputs.
        let run = &idx.zones()[0].list.snapshot()[0];
        assert_eq!(run.groomed_range(), (1, 4));
    }

    #[test]
    fn incoming_runs_merge_into_active_target() {
        let idx = setup(2, 1000, vec![]);
        for b in 1..=2 {
            add_groom(&idx, b, 10);
        }
        idx.merge_at(0).unwrap().unwrap(); // → level-1 active (20 entries)
        for b in 3..=4 {
            add_groom(&idx, b, 10);
        }
        let report = idx.merge_at(0).unwrap().unwrap();
        assert_eq!(report.inputs, 3, "2 level-0 runs + level-1 active");
        assert_eq!(report.output_entries, 40);
        assert_eq!(levels(&idx), vec![1]);
    }

    #[test]
    fn seal_threshold_respects_t() {
        // T = 2: after merging 2 runs of 10 into 20 entries, 20 ≥ 2×10 seals.
        let idx = setup(2, 2, vec![]);
        for b in 1..=2 {
            add_groom(&idx, b, 10);
        }
        let report = idx.merge_at(0).unwrap().unwrap();
        assert!(report.sealed);
        // Next pair creates a NEW active run instead of growing the sealed one.
        for b in 3..=4 {
            add_groom(&idx, b, 10);
        }
        let report = idx.merge_at(0).unwrap().unwrap();
        assert_eq!(report.inputs, 2, "sealed target must not participate");
        assert_eq!(levels(&idx), vec![1, 1]);
    }

    #[test]
    fn cascades_to_higher_levels() {
        let idx = setup(2, 2, vec![]);
        // Enough grooms to push data through levels 0 → 1 → 2.
        for b in 1..=8 {
            add_groom(&idx, b, 10);
        }
        let merges = idx.drain_merges().unwrap();
        assert!(merges >= 4, "expected cascading merges, got {merges}");
        let max_level = levels(&idx).into_iter().max().unwrap();
        assert!(max_level >= 2, "data must have reached level 2");
        // All 80 entries survive, wherever they live.
        let total: u64 = idx.zones()[0]
            .list
            .snapshot()
            .iter()
            .map(|r| r.entry_count())
            .sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn merged_inputs_are_buried_and_collectable() {
        let idx = setup(2, 100, vec![]);
        for b in 1..=2 {
            add_groom(&idx, b, 10);
        }
        idx.merge_at(0).unwrap().unwrap();
        assert_eq!(idx.graveyard_len(), 2);
        let deleted = idx.collect_garbage().unwrap();
        assert_eq!(deleted, 2);
        assert_eq!(idx.graveyard_len(), 0);
        // Their objects are gone from shared storage.
        let runs = idx.storage().shared().list("idx/runs/").unwrap();
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn readers_delay_garbage_deletion() {
        let idx = setup(2, 100, vec![]);
        for b in 1..=2 {
            add_groom(&idx, b, 10);
        }
        let held = idx.zones()[0].list.snapshot(); // a "query" holding runs
        idx.merge_at(0).unwrap().unwrap();
        assert_eq!(
            idx.collect_garbage().unwrap(),
            0,
            "reader still holds the runs"
        );
        drop(held);
        assert_eq!(idx.collect_garbage().unwrap(), 2);
    }

    #[test]
    fn non_persisted_target_records_ancestors() {
        let idx = setup(2, 1000, vec![1]);
        for b in 1..=2 {
            add_groom(&idx, b, 10);
        }
        let shared_before = idx.storage().shared().list("idx/runs/").unwrap().len();
        idx.merge_at(0).unwrap().unwrap();
        let snap = idx.zones()[0].list.snapshot();
        assert_eq!(snap.len(), 1);
        let run = &snap[0];
        assert_eq!(run.level(), 1);
        assert_eq!(
            run.header().ancestors.len(),
            2,
            "both persisted inputs recorded"
        );
        // §6.1: old runs are NOT deleted from shared storage.
        idx.collect_garbage().unwrap();
        let shared_after = idx.storage().shared().list("idx/runs/").unwrap().len();
        assert_eq!(
            shared_after, shared_before,
            "ancestors must survive in shared storage"
        );
    }

    #[test]
    fn ancestors_deleted_when_reaching_persisted_level() {
        // Levels: 1 non-persisted; level 2 persisted. K=2, T=2 so merges
        // cascade 0→1→2.
        let idx = setup(2, 2, vec![1]);
        for b in 1..=4 {
            add_groom(&idx, b, 10);
        }
        idx.drain_merges().unwrap();
        idx.collect_garbage().unwrap();
        let snap = idx.zones()[0].list.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].level(), 2);
        assert!(snap[0].header().ancestors.is_empty());
        // Everything obsolete is gone from shared storage: only the final
        // persisted run remains under the runs prefix.
        let runs = idx.storage().shared().list("idx/runs/").unwrap();
        assert_eq!(runs.len(), 1, "ancestors cleaned up: {runs:?}");
    }

    #[test]
    fn merge_is_sorted_and_loses_nothing() {
        let idx = setup(3, 100, vec![]);
        for b in 1..=3 {
            add_groom(&idx, b, 50);
        }
        idx.merge_at(0).unwrap().unwrap();
        let run = idx.zones()[0].list.snapshot()[0].clone();
        assert_eq!(run.entry_count(), 150);
        let mut last: Option<Vec<u8>> = None;
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            if let Some(p) = &last {
                assert!(
                    p.as_slice() <= &e.key[..],
                    "merge output out of order at {ord}"
                );
            }
            last = Some(e.key.to_vec());
        }
    }
}
