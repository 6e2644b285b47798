//! The Umzi index instance — one per table shard (§3).
//!
//! Owns the multi-zone run lists, the evolve watermarks, run-ID allocation,
//! manifest persistence and the deferred-deletion graveyard. The maintenance
//! operations live in sibling modules as `impl UmziIndex` blocks:
//! [`crate::build`], [`crate::merge`], [`crate::evolve`],
//! [`crate::recovery`], [`crate::query`], [`crate::cache_mgr`].

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use umzi_encoding::IndexDef;
use umzi_run::{KeyLayout, Run, ZoneId};
use umzi_storage::TieredStorage;

use crate::config::{UmziConfig, ZoneConfig};
use crate::manifest::Manifest;
use crate::runlist::RunList;
use crate::Result;

/// A zone's state: its configuration and lock-free run list.
pub struct ZoneState {
    /// Level range and identity.
    pub config: ZoneConfig,
    /// The zone's run list, newest first.
    pub list: RunList,
}

/// Operation counters (monotonic).
#[derive(Debug, Default)]
pub struct IndexCounters {
    /// Index-build operations (level-0 runs created).
    pub builds: AtomicU64,
    /// Merge operations completed.
    pub merges: AtomicU64,
    /// Evolve operations completed.
    pub evolves: AtomicU64,
    /// Runs garbage-collected (unlinked and eventually deleted).
    pub gc_runs: AtomicU64,
    /// Merge conflicts (abandoned merges).
    pub merge_conflicts: AtomicU64,
    /// Exact-key probes a run's key filter rejected.
    pub filter_rejects: AtomicU64,
    /// Exact-key probes a run's key filter passed that found no version of
    /// their key (false positives).
    pub filter_false_passes: AtomicU64,
}

/// The Umzi unified multi-zone index.
pub struct UmziIndex {
    pub(crate) config: UmziConfig,
    pub(crate) def: Arc<IndexDef>,
    pub(crate) layout: KeyLayout,
    pub(crate) storage: Arc<TieredStorage>,
    pub(crate) zones: Vec<ZoneState>,
    /// `watermarks[i]`: *exclusive* upper bound of groomed-block IDs covered
    /// by zones `> i` (0 = nothing evolved yet). Stored exclusive so that a
    /// legitimate groomed block 0 is representable; the paper's "maximum
    /// groomed block ID covered" is `watermarks[i] − 1`.
    pub(crate) watermarks: Vec<AtomicU64>,
    pub(crate) indexed_psn: AtomicU64,
    pub(crate) next_run_id: AtomicU64,
    pub(crate) manifest_seq: AtomicU64,
    /// Cache-manager state (§6.2): runs at levels ≤ this are kept in the
    /// SSD cache.
    pub(crate) cached_level: AtomicU32,
    /// Unlinked runs awaiting deletion once no reader holds them.
    pub(crate) graveyard: Mutex<Vec<Arc<Run>>>,
    /// Persisted runs that became merge *ancestors* of non-persisted runs
    /// (§6.1): unlinked from the lists but kept alive (and in shared
    /// storage) until the chain re-enters a persisted level.
    pub(crate) ancestor_pool: Mutex<std::collections::HashMap<String, Arc<Run>>>,
    /// One lock per level serializing that level's maintenance (§5.1:
    /// "each level is assigned a dedicated index maintenance thread").
    pub(crate) level_locks: Vec<Mutex<()>>,
    pub(crate) counters: IndexCounters,
}

impl std::fmt::Debug for UmziIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UmziIndex")
            .field("name", &self.config.name)
            .field("zones", &self.zones.len())
            .field(
                "runs",
                &self.zones.iter().map(|z| z.list.len()).sum::<usize>(),
            )
            .finish()
    }
}

impl UmziIndex {
    /// Create a fresh index instance, writing its initial manifest.
    pub fn create(
        storage: Arc<TieredStorage>,
        def: Arc<IndexDef>,
        config: UmziConfig,
    ) -> Result<Arc<UmziIndex>> {
        config.validate()?;
        let index = Self::empty(storage, def, config);
        index.persist_manifest()?;
        Ok(Arc::new(index))
    }

    pub(crate) fn empty(
        storage: Arc<TieredStorage>,
        def: Arc<IndexDef>,
        config: UmziConfig,
    ) -> UmziIndex {
        let zones: Vec<ZoneState> = config
            .zones
            .iter()
            .map(|z| ZoneState {
                config: z.clone(),
                list: RunList::new(),
            })
            .collect();
        let n_boundaries = zones.len().saturating_sub(1);
        let max_level = config.max_level();
        UmziIndex {
            layout: KeyLayout::new(Arc::clone(&def)),
            def,
            storage,
            watermarks: (0..n_boundaries).map(|_| AtomicU64::new(0)).collect(),
            indexed_psn: AtomicU64::new(0),
            next_run_id: AtomicU64::new(1),
            manifest_seq: AtomicU64::new(0),
            cached_level: AtomicU32::new(max_level),
            graveyard: Mutex::new(Vec::new()),
            ancestor_pool: Mutex::new(std::collections::HashMap::new()),
            level_locks: (0..=max_level).map(|_| Mutex::new(())).collect(),
            counters: IndexCounters::default(),
            zones,
            config,
        }
    }

    /// The index definition.
    pub fn def(&self) -> &Arc<IndexDef> {
        &self.def
    }

    /// The key layout.
    pub fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    /// The configuration.
    pub fn config(&self) -> &UmziConfig {
        &self.config
    }

    /// The storage hierarchy.
    pub fn storage(&self) -> &Arc<TieredStorage> {
        &self.storage
    }

    /// The zones (ordered by data age; index 0 receives fresh builds).
    pub fn zones(&self) -> &[ZoneState] {
        &self.zones
    }

    /// The *exclusive* evolve watermark for zone boundary `i` (zone `i` →
    /// zone `i+1`): groomed blocks with ID `< watermark` are covered by
    /// later zones; `0` means nothing has evolved yet.
    pub fn watermark(&self, boundary: usize) -> u64 {
        self.watermarks
            .get(boundary)
            .map(|w| w.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    /// The paper's "maximum groomed block ID covered by the post-groomed run
    /// list": `None` before the first evolve.
    pub fn covered_groomed_hi(&self, boundary: usize) -> Option<u64> {
        let w = self.watermark(boundary);
        (w > 0).then(|| w - 1)
    }

    /// The last evolved post-groom sequence number (IndexedPSN, §5.4).
    pub fn indexed_psn(&self) -> u64 {
        self.indexed_psn.load(Ordering::Acquire)
    }

    /// Operation counters.
    pub fn counters(&self) -> &IndexCounters {
        &self.counters
    }

    /// Allocate the next run ID.
    pub(crate) fn alloc_run_id(&self) -> u64 {
        self.next_run_id.fetch_add(1, Ordering::AcqRel)
    }

    /// Persist the current durable state as a new manifest and GC old ones.
    pub fn persist_manifest(&self) -> Result<()> {
        let seq = self.manifest_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let manifest = Manifest {
            seq,
            indexed_psn: self.indexed_psn.load(Ordering::Acquire),
            next_run_id: self.next_run_id.load(Ordering::Acquire),
            current_cached_level: self.cached_level.load(Ordering::Acquire),
            watermarks: self
                .watermarks
                .iter()
                .map(|w| w.load(Ordering::Acquire))
                .collect(),
        };
        manifest.persist(&self.storage, &self.config.manifest_object_name(seq))?;
        Manifest::gc(&self.storage, &self.config.manifest_prefix(), 2)?;
        Ok(())
    }

    /// Move unlinked runs to the graveyard for deferred deletion.
    pub(crate) fn bury(&self, runs: impl IntoIterator<Item = Arc<Run>>) {
        let mut g = self.graveyard.lock();
        for r in runs {
            self.counters.gc_runs.fetch_add(1, Ordering::Relaxed);
            g.push(r);
        }
    }

    /// Delete graveyard runs that no reader references any more. Returns the
    /// number of run objects deleted. Runs still referenced by in-flight
    /// queries stay buried — the paper's non-blocking guarantee means a
    /// query may keep reading a replaced run after a merge or evolve.
    pub fn collect_garbage(&self) -> Result<usize> {
        // Run-list nodes hold `Arc<Run>` clones only while linked or while a
        // snapshot is alive, so the strong-count check below observes
        // ownership directly.
        let candidates: Vec<Arc<Run>> = {
            let mut g = self.graveyard.lock();
            let (free, busy): (Vec<_>, Vec<_>) =
                g.drain(..).partition(|r| Arc::strong_count(r) == 1);
            *g = busy;
            free
        };
        let mut deleted = 0;
        for run in candidates {
            self.storage.delete_object(run.handle())?;
            deleted += 1;
        }
        Ok(deleted)
    }

    /// Number of runs currently buried (observability / tests).
    pub fn graveyard_len(&self) -> usize {
        self.graveyard.lock().len()
    }

    /// Total number of live runs across all zones.
    pub fn run_count(&self) -> usize {
        self.zones.iter().map(|z| z.list.len()).sum()
    }

    /// Live level-0 runs — the quantity the ingest backpressure gate
    /// watches (every groom adds one; merges and evolve GC remove them).
    /// Allocation-free: this runs on the upsert hot path.
    pub fn level0_run_count(&self) -> usize {
        self.zones[0].list.count_matching(|r| r.level() == 0)
    }

    /// Groomed-block ranges still covered by *unlinked but undeleted* runs
    /// in the graveyard. The janitor must treat these as live coverage: an
    /// in-flight query holding a pre-GC run list can still hand out RIDs
    /// into the groomed blocks such a run spans.
    pub fn graveyard_groomed_ranges(&self) -> Vec<(u64, u64)> {
        self.graveyard
            .lock()
            .iter()
            .filter(|r| r.zone() == ZoneId::GROOMED)
            .map(|r| r.groomed_range())
            .collect()
    }

    /// Snapshot of every live run, zone by zone (newest first within each).
    pub fn all_runs(&self) -> Vec<Vec<Arc<Run>>> {
        self.zones.iter().map(|z| z.list.snapshot()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umzi_encoding::ColumnType;

    fn def() -> Arc<IndexDef> {
        Arc::new(
            IndexDef::builder("t")
                .equality("device", ColumnType::Int64)
                .sort("msg", ColumnType::Int64)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn create_writes_manifest() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(storage.clone(), def(), UmziConfig::two_zone("i")).unwrap();
        assert_eq!(idx.run_count(), 0);
        assert_eq!(idx.indexed_psn(), 0);
        assert_eq!(idx.watermark(0), 0);
        let manifests = storage.shared().list("i/manifest/").unwrap();
        assert_eq!(manifests.len(), 1);
    }

    #[test]
    fn invalid_config_rejected() {
        let storage = Arc::new(TieredStorage::in_memory());
        let mut cfg = UmziConfig::two_zone("i");
        cfg.non_persisted_levels = vec![0];
        assert!(UmziIndex::create(storage, def(), cfg).is_err());
    }

    #[test]
    fn run_ids_are_unique() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(storage, def(), UmziConfig::two_zone("i")).unwrap();
        let a = idx.alloc_run_id();
        let b = idx.alloc_run_id();
        assert!(b > a);
    }

    #[test]
    fn manifest_sequence_advances() {
        let storage = Arc::new(TieredStorage::in_memory());
        let idx = UmziIndex::create(storage.clone(), def(), UmziConfig::two_zone("i")).unwrap();
        idx.persist_manifest().unwrap();
        idx.persist_manifest().unwrap();
        // GC keeps 2.
        assert_eq!(storage.shared().list("i/manifest/").unwrap().len(), 2);
    }
}
