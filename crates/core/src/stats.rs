//! Observability: a point-in-time snapshot of index structure and counters.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use crate::index::UmziIndex;

/// A snapshot of index state for dashboards, benchmarks and tests. The
/// storage hierarchy is shared by every index stacked on it and is
/// snapshotted separately (`idx.storage().stats()`).
#[derive(Debug, Clone)]
pub struct IndexStats {
    /// Live runs per zone (zone order as configured).
    pub runs_per_zone: Vec<usize>,
    /// Live runs per level.
    pub runs_per_level: BTreeMap<u32, usize>,
    /// Index entries per zone.
    pub entries_per_zone: Vec<u64>,
    /// Total index entries across zones.
    pub total_entries: u64,
    /// Completed build operations.
    pub builds: u64,
    /// Completed merges.
    pub merges: u64,
    /// Completed evolve operations.
    pub evolves: u64,
    /// Runs garbage-collected.
    pub gc_runs: u64,
    /// Abandoned merges.
    pub merge_conflicts: u64,
    /// Exact-key probes (point and batch lookups) that a run's key filter
    /// rejected, each without a fence search or a block read.
    pub filter_rejects: u64,
    /// Exact-key probes a run's key filter passed that found no version of
    /// their key in the run: the filters' false positives.
    pub filter_false_passes: u64,
    /// Always 0: the partitioned parallel reconcile is gone (every range
    /// scan merges sequentially behind readahead). The field stays, without
    /// a counter or an exported series, only because `benchmark/src/sut.rs`
    /// reads it.
    pub parallel_scans: u64,
    /// Always 0, kept for the same reason as [`Self::parallel_scans`].
    pub scan_partitions: u64,
    /// Current watermarks (one per zone boundary).
    pub watermarks: Vec<u64>,
    /// Last evolved PSN.
    pub indexed_psn: u64,
    /// Cache-manager cached level.
    pub cached_level: u32,
    /// Runs awaiting deferred deletion.
    pub graveyard: usize,
}

impl UmziIndex {
    /// Capture a consistent-enough snapshot of stats (individual counters
    /// are read atomically; cross-counter consistency is best-effort, which
    /// is fine for observability).
    pub fn stats(&self) -> IndexStats {
        let mut runs_per_zone = Vec::with_capacity(self.zones.len());
        let mut entries_per_zone = Vec::with_capacity(self.zones.len());
        let mut runs_per_level: BTreeMap<u32, usize> = BTreeMap::new();
        for zone in &self.zones {
            let snap = zone.list.snapshot();
            runs_per_zone.push(snap.len());
            entries_per_zone.push(snap.iter().map(|r| r.entry_count()).sum());
            for r in &snap {
                *runs_per_level.entry(r.level()).or_insert(0) += 1;
            }
        }
        IndexStats {
            total_entries: entries_per_zone.iter().sum(),
            runs_per_zone,
            runs_per_level,
            entries_per_zone,
            builds: self.counters.builds.load(Ordering::Relaxed),
            merges: self.counters.merges.load(Ordering::Relaxed),
            evolves: self.counters.evolves.load(Ordering::Relaxed),
            gc_runs: self.counters.gc_runs.load(Ordering::Relaxed),
            merge_conflicts: self.counters.merge_conflicts.load(Ordering::Relaxed),
            filter_rejects: self.counters.filter_rejects.load(Ordering::Relaxed),
            filter_false_passes: self.counters.filter_false_passes.load(Ordering::Relaxed),
            parallel_scans: 0,
            scan_partitions: 0,
            watermarks: (0..self.watermarks.len())
                .map(|i| self.watermark(i))
                .collect(),
            indexed_psn: self.indexed_psn(),
            cached_level: self.current_cached_level(),
            graveyard: self.graveyard_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::UmziConfig;
    use crate::index::UmziIndex;
    use std::sync::Arc;
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_run::{IndexEntry, Rid, ZoneId};
    use umzi_storage::TieredStorage;

    #[test]
    fn stats_reflect_structure() {
        let storage = Arc::new(TieredStorage::in_memory());
        let def = Arc::new(
            IndexDef::builder("t")
                .equality("k", ColumnType::Int64)
                .build()
                .unwrap(),
        );
        let idx = UmziIndex::create(storage, def, UmziConfig::two_zone("idx")).unwrap();
        for b in 1..=3u64 {
            let es = (0..10)
                .map(|i| {
                    IndexEntry::new(
                        idx.layout(),
                        &[Datum::Int64(i)],
                        &[],
                        b * 10 + i as u64,
                        Rid::new(ZoneId::GROOMED, b, i as u32),
                        &[],
                    )
                    .unwrap()
                })
                .collect();
            idx.build_groomed_run(es, b, b).unwrap();
        }
        let s = idx.stats();
        assert_eq!(s.runs_per_zone, vec![3, 0]);
        assert_eq!(s.total_entries, 30);
        assert_eq!(s.builds, 3);
        assert_eq!(s.runs_per_level.get(&0), Some(&3));
        assert_eq!(s.watermarks, vec![0]);
    }
}
