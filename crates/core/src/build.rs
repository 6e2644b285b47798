//! Index build (§5.2).
//!
//! *"After a groom operation is completed, Umzi builds an index run over the
//! newly groomed data block. This is done by simply scanning the data block
//! and sorting index entries ... Finally, the new run becomes the new header
//! of the run list for the groomed zone."*

use std::sync::atomic::Ordering;
use std::sync::Arc;

use umzi_run::{IndexEntry, Run, RunBuilder, RunParams};
use umzi_storage::Durability;

use crate::index::UmziIndex;
use crate::Result;

impl UmziIndex {
    /// Build a level-0 run in the first zone from one groom operation's
    /// index entries (unsorted; this sorts them) and publish it at the head
    /// of the zone's run list. `groomed_lo..=groomed_hi` is the range of
    /// groomed-block IDs the entries came from.
    pub fn build_groomed_run(
        &self,
        mut entries: Vec<IndexEntry>,
        groomed_lo: u64,
        groomed_hi: u64,
    ) -> Result<Arc<Run>> {
        entries.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let level = self.zones[0].config.min_level;
        let run = self.build_run_sorted(0, level, groomed_lo, groomed_hi, 0, Vec::new(), |b| {
            for e in &entries {
                b.push(e)?;
            }
            Ok(())
        })?;
        // Zone-entry runs are complete groom outputs: sealed at birth, so the
        // merge policy counts them toward the level's K inactive runs.
        run.seal();
        self.zones[0].list.push_front(Arc::clone(&run));
        self.counters.builds.fetch_add(1, Ordering::Relaxed);
        Ok(run)
    }

    /// Shared run-construction path for build, merge and evolve. The `fill`
    /// closure pushes entries in ascending key order; durability and
    /// write-through policy are derived from the target level (§6.1, §6.2).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_run_sorted(
        &self,
        zone_idx: usize,
        level: u32,
        groomed_lo: u64,
        groomed_hi: u64,
        psn: u64,
        ancestors: Vec<String>,
        fill: impl FnOnce(&mut RunBuilder) -> Result<()>,
    ) -> Result<Arc<Run>> {
        let run_id = self.alloc_run_id();
        let name = self.config.run_object_name(run_id);
        let durability = if self.config.is_persisted_level(level) {
            Durability::Persisted
        } else {
            Durability::NonPersisted
        };
        // §6.2: "a new run is directly written to the SSD cache if it is
        // below (lower than) the current cache level".
        let write_through = level <= self.cached_level.load(Ordering::Acquire);

        let params = RunParams {
            run_id,
            zone: self.zones[zone_idx].config.zone,
            level,
            groomed_lo,
            groomed_hi,
            psn,
            offset_bits: self.config.offset_bits,
            ancestors,
        };
        let mut builder = RunBuilder::new(self.layout.clone(), params, self.storage.chunk_size());
        fill(&mut builder)?;
        let run = builder.finish(&self.storage, &name, durability, write_through)?;
        Ok(Arc::new(run))
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

    fn entries(idx: &UmziIndex, block: u64, n: i64) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| {
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(i % 7)],
                    &[Datum::Int64(i)],
                    block * 1000 + i as u64,
                    Rid::new(ZoneId::GROOMED, block, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn build_publishes_at_head() {
        let idx = setup();
        let r1 = idx.build_groomed_run(entries(&idx, 1, 100), 1, 1).unwrap();
        let r2 = idx.build_groomed_run(entries(&idx, 2, 100), 2, 2).unwrap();
        let snap = idx.zones()[0].list.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].run_id(), r2.run_id(), "newest run at head");
        assert_eq!(snap[1].run_id(), r1.run_id());
        assert!(r1.is_sealed() && r2.is_sealed());
        assert_eq!(
            idx.counters()
                .builds
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn build_sorts_unsorted_input() {
        let idx = setup();
        let mut es = entries(&idx, 1, 50);
        es.reverse();
        let run = idx.build_groomed_run(es, 1, 1).unwrap();
        assert_eq!(run.entry_count(), 50);
        let mut last: Option<Vec<u8>> = None;
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            if let Some(p) = &last {
                assert!(p.as_slice() <= &e.key[..]);
            }
            last = Some(e.key.to_vec());
        }
    }

    #[test]
    fn empty_build_is_fine() {
        let idx = setup();
        let run = idx.build_groomed_run(vec![], 1, 1).unwrap();
        assert_eq!(run.entry_count(), 0);
        assert_eq!(idx.run_count(), 1);
    }
}
