//! Index evolve (§5.4).
//!
//! When the post-groomer moves groomed data blocks to the post-groomed zone,
//! the indexer must migrate the affected index entries so deprecated groomed
//! blocks stop being referenced. Evolve is performed *asynchronously* — the
//! indexer polls the post-groomer's published MaxPSN and applies evolve
//! operations strictly in PSN order — and is decomposed into three atomic
//! sub-operations, each leaving the index in a valid state for concurrent
//! lock-free queries:
//!
//! 1. build an index run for the post-groomed blocks and atomically add it
//!    to the post-groomed run list (the run still carries the groomed-block
//!    ID range it covers);
//! 2. atomically advance the *maximum groomed block ID covered by the
//!    post-groomed run list* — the watermark. Groomed runs whose end ID is
//!    ≤ the watermark are ignored by queries from this instant;
//! 3. garbage-collect those obsolete runs from the groomed run list.
//!
//! Between the steps the index may contain cross-zone duplicates; queries
//! remove them during reconciliation (§7), so no step blocks anything.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use umzi_run::{IndexEntry, Run};

use crate::error::UmziError;
use crate::index::UmziIndex;
use crate::Result;

/// What the post-groomer publishes for one post-groom operation: the new
/// zone's index entries (with their new RIDs) and the covered groomed range.
#[derive(Debug)]
pub struct EvolveNotice {
    /// Post-groom sequence number; must be `IndexedPSN + 1`.
    pub psn: u64,
    /// First groomed-block ID consumed by this post-groom.
    pub groomed_lo: u64,
    /// Last groomed-block ID consumed by this post-groom.
    pub groomed_hi: u64,
    /// Index entries over the post-groomed blocks (RIDs point into the
    /// post-groomed zone). Need not be sorted.
    pub entries: Vec<IndexEntry>,
}

/// Outcome of one evolve operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolveReport {
    /// The PSN that was applied.
    pub psn: u64,
    /// ID of the post-groomed run that was built.
    pub new_run_id: u64,
    /// Entries in the new run.
    pub new_run_entries: u64,
    /// Size of the new run object in bytes.
    pub new_run_bytes: u64,
    /// The maximum groomed block ID covered after step 2 (inclusive).
    pub watermark: u64,
    /// Groomed runs garbage-collected in step 3.
    pub gc_runs: usize,
}

impl UmziIndex {
    /// Apply one evolve operation moving entries from zone `from_zone` to
    /// `from_zone + 1`. With the paper's two zones this is always
    /// groomed → post-groomed (`from_zone = 0`).
    pub fn evolve(&self, notice: EvolveNotice) -> Result<EvolveReport> {
        self.evolve_between(0, notice)
    }

    /// Generalized evolve between adjacent zones (§3's N-zone extension).
    pub fn evolve_between(
        &self,
        from_zone: usize,
        mut notice: EvolveNotice,
    ) -> Result<EvolveReport> {
        let to_zone = from_zone + 1;
        assert!(to_zone < self.zones.len(), "no zone after {from_zone}");

        // PSN ordering guarantee: "the indexer process performs an index
        // evolve operation for IndexedPSN+1, which guarantees the index
        // evolves in a correct order".
        let expected = self.indexed_psn.load(Ordering::Acquire) + 1;
        if notice.psn != expected {
            return Err(UmziError::PsnOutOfOrder {
                expected,
                got: notice.psn,
            });
        }

        // Step 1: build the post-groomed run and atomically prepend it.
        notice.entries.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let level = self.zones[to_zone].config.min_level;
        let run: Arc<Run> = self.build_run_sorted(
            to_zone,
            level,
            notice.groomed_lo,
            notice.groomed_hi,
            notice.psn,
            Vec::new(),
            |b| {
                for e in &notice.entries {
                    b.push(e)?;
                }
                Ok(())
            },
        )?;
        run.seal();
        self.zones[to_zone].list.push_front(Arc::clone(&run));

        // Step 2: advance the watermark (a single atomic store as far as
        // queries are concerned), then persist it with the new IndexedPSN.
        // Watermarks are stored as *exclusive* bounds (covered IDs are
        // strictly below), so block 0 is coverable.
        self.watermarks[from_zone].fetch_max(notice.groomed_hi + 1, Ordering::AcqRel);
        let watermark = self.watermarks[from_zone].load(Ordering::Acquire);
        self.indexed_psn.store(notice.psn, Ordering::Release);
        self.persist_manifest()?;

        // Step 3: GC groomed runs fully covered by the post-groomed list.
        let removed = self.zones[from_zone]
            .list
            .remove_matching(|r| r.groomed_range().1 < watermark);
        let gc_runs = removed.len();
        // Covered runs may have non-persisted ancestors parked in the pool.
        for r in &removed {
            for ancestor in &r.header().ancestors {
                if let Some(a) = self.ancestor_pool.lock().remove(ancestor) {
                    self.bury([a]);
                } else {
                    // Never fail the evolve over GC; a failed delete is
                    // parked for the janitor's re-delete pass.
                    self.storage.delete_or_park(ancestor);
                }
            }
        }
        self.bury(removed);

        self.counters.evolves.fetch_add(1, Ordering::Relaxed);
        Ok(EvolveReport {
            psn: notice.psn,
            new_run_id: run.run_id(),
            new_run_entries: run.entry_count(),
            new_run_bytes: run.size_bytes(),
            watermark: watermark - 1, // report the inclusive covered maximum
            gc_runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UmziConfig;
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_run::{Rid, ZoneId};
    use umzi_storage::TieredStorage;

    fn setup() -> Arc<UmziIndex> {
        let storage = Arc::new(TieredStorage::in_memory());
        let def = Arc::new(
            IndexDef::builder("t")
                .equality("device", ColumnType::Int64)
                .sort("msg", ColumnType::Int64)
                .build()
                .unwrap(),
        );
        UmziIndex::create(storage, def, UmziConfig::two_zone("idx")).unwrap()
    }

    fn groom_entries(idx: &UmziIndex, block: u64, n: i64) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(i % 3)],
                    &[Datum::Int64(i)],
                    block * 100 + i as u64,
                    Rid::new(ZoneId::GROOMED, block, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect()
    }

    fn pg_entries(idx: &UmziIndex, pg_block: u64, n: i64) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(i % 3)],
                    &[Datum::Int64(i)],
                    100 + i as u64,
                    Rid::new(ZoneId::POST_GROOMED, pg_block, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect()
    }

    /// Reproduces the Figure 6 walk-through: groomed runs 0-5, 6-10, 11-15,
    /// 16-20, 21-22, 23-24; post-groom consumes blocks 11–18; after the
    /// evolve, run 11-15 is gone and the watermark is 18.
    #[test]
    fn figure_6_example() {
        let idx = setup();
        for (lo, hi) in [(0, 5), (6, 10), (11, 15), (16, 20), (21, 22), (23, 24)] {
            let entries = groom_entries(&idx, lo, 5);
            // Build then fake the covered range by merging never happens here;
            // build_groomed_run takes the range directly.
            idx.build_groomed_run(entries, lo, hi).unwrap();
        }
        assert_eq!(idx.zones()[0].list.len(), 6);

        let report = idx
            .evolve(EvolveNotice {
                psn: 1,
                groomed_lo: 11,
                groomed_hi: 18,
                entries: pg_entries(&idx, 1, 10),
            })
            .unwrap();

        assert_eq!(report.watermark, 18);
        assert_eq!(
            report.gc_runs, 3,
            "runs 0-5, 6-10 and 11-15 are ≤ watermark"
        );
        assert_eq!(idx.zones()[1].list.len(), 1, "post-groomed run added");
        let remaining: Vec<(u64, u64)> = idx.zones()[0]
            .list
            .snapshot()
            .iter()
            .map(|r| r.groomed_range())
            .collect();
        assert_eq!(remaining, vec![(23, 24), (21, 22), (16, 20)]);
        assert_eq!(idx.indexed_psn(), 1);
    }

    #[test]
    fn psn_order_enforced() {
        let idx = setup();
        let notice = |psn| EvolveNotice {
            psn,
            groomed_lo: 0,
            groomed_hi: 1,
            entries: pg_entries(&idx, psn, 3),
        };
        assert!(matches!(
            idx.evolve(notice(2)),
            Err(UmziError::PsnOutOfOrder {
                expected: 1,
                got: 2
            })
        ));
        idx.evolve(notice(1)).unwrap();
        assert!(matches!(
            idx.evolve(notice(1)),
            Err(UmziError::PsnOutOfOrder {
                expected: 2,
                got: 1
            })
        ));
        idx.evolve(notice(2)).unwrap();
        assert_eq!(idx.indexed_psn(), 2);
    }

    #[test]
    fn watermark_persisted_across_manifest() {
        let idx = setup();
        idx.build_groomed_run(groom_entries(&idx, 1, 5), 1, 4)
            .unwrap();
        idx.evolve(EvolveNotice {
            psn: 1,
            groomed_lo: 1,
            groomed_hi: 4,
            entries: pg_entries(&idx, 1, 5),
        })
        .unwrap();
        let m =
            crate::manifest::Manifest::load_latest(idx.storage(), &idx.config().manifest_prefix())
                .unwrap()
                .unwrap();
        assert_eq!(m.watermarks, vec![5], "exclusive bound: blocks < 5 covered");
        assert_eq!(m.indexed_psn, 1);
    }

    #[test]
    fn partially_covered_runs_survive() {
        let idx = setup();
        idx.build_groomed_run(groom_entries(&idx, 0, 5), 0, 10)
            .unwrap();
        // Post-groom only covers up to block 7: run [0,10] has hi=10 > 7.
        let report = idx
            .evolve(EvolveNotice {
                psn: 1,
                groomed_lo: 0,
                groomed_hi: 7,
                entries: pg_entries(&idx, 1, 5),
            })
            .unwrap();
        assert_eq!(report.gc_runs, 0);
        assert_eq!(idx.zones()[0].list.len(), 1, "partially covered run stays");
        // Duplicates between the zones are allowed; queries reconcile.
    }
}
