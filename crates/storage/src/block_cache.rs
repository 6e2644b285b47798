//! A sharded, scan-resistant cache of *decoded* data blocks.
//!
//! The tiered chunk caches hold raw bytes; every block access on top of
//! them still pays a parse (offset-trailer validation + `Bytes` slicing).
//! For index-structure-aware read paths that re-visit the same block many
//! times — binary-search probes, adjacent range-scan positions, batched
//! lookups with sorted keys — caching the *parsed* representation removes
//! that repeated work entirely (the MV-PBT observation that structure-aware
//! block caching, not raw-byte caching, is the decisive read-path lever).
//!
//! HTAP mixes two access patterns over the same blocks, and a plain LRU
//! serves them badly: one analytical range scan touches every block of a
//! run exactly once and sweeps the point-lookup working set out of the
//! cache. This cache defends the working set with one mechanism, a
//! **segmented LRU** per shard steered by the caller's access-pattern hint:
//! a *probation* segment absorbs new and once-seen blocks, a *protected*
//! segment ([`PROTECTED_FRACTION`] of capacity) holds blocks re-referenced
//! by point lookups, and overflow demotes the protected tail back to
//! probation. Under pressure the probation tail goes first, the protected
//! tail only once probation is empty. Scans flow through probation and
//! evict only each other.
//!
//! Callers label traffic [`AccessPattern::PointLookup`] (may promote into
//! protected), [`AccessPattern::RangeScan`] (probation-only) or
//! [`AccessPattern::Maintenance`] (groom/merge sweeps — never admitted).
//! Every block that is not bypassed is admitted, so replacement is a
//! deterministic function of the operation sequence.
//!
//! The cache is value-type-agnostic (`Arc<dyn Any + Send + Sync>`) because
//! the decoded block type lives upstream of this crate; `umzi-run` stores
//! its `DataBlock` here keyed by `(object handle, data block number)`.
//! Sharding keeps lock hold times negligible when concurrent queries (and
//! one query's per-run positioning or batch-probe workers) hit the cache
//! at once; the shard count follows from capacity ([`SHARD_BYTES`]).

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cache::ChunkKey;
use crate::lru::LruMap;
use crate::stats::{DecodedCacheStats, PatternCounters};

/// What kind of access a block fetch serves. Plumbed from the query layer
/// down to the cache so replacement can tell the hot point working set from
/// one-pass analytical and maintenance sweeps. The discriminant indexes
/// the per-pattern hit and miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPattern {
    /// Point or batched lookup: re-reference promotes into the protected
    /// segment.
    #[default]
    PointLookup,
    /// Range-scan iteration: admitted to probation only; never promotes.
    RangeScan,
    /// Background maintenance (merge/groom sweeps): one-pass
    /// traffic, never inserted.
    Maintenance,
}

/// Fraction of each shard's capacity reserved for the protected segment
/// (blocks re-referenced by point lookups); the rest is probation.
pub const PROTECTED_FRACTION: f64 = 0.8;

/// Cache bytes per shard: the shard count is `capacity / SHARD_BYTES`,
/// clamped to `1..=`[`MAX_SHARDS`]. Each shard runs its own segmented LRU
/// over its share of the capacity, so a shard must hold hundreds of
/// blocks for replacement to see the working set; a small
/// cache stays one shard (and one lock) instead of being cut into shards
/// of a couple of blocks each.
pub const SHARD_BYTES: u64 = 4 << 20;

/// The most shards any cache is split into (lock granularity under
/// concurrent readers): reached at 64 MiB, the default capacity.
pub const MAX_SHARDS: usize = 16;

/// Configuration of the decoded-block cache, fixed at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedCacheConfig {
    /// Total capacity in (raw-block) bytes, split evenly across the
    /// shards it derives ([`SHARD_BYTES`]); 0 disables the cache.
    pub capacity_bytes: u64,
}

impl Default for DecodedCacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A decoded block, type-erased.
type Value = Arc<dyn Any + Send + Sync>;

/// A decoded block plus its accounting weight (the raw block size).
type Slot = (Value, u64);

#[derive(Default)]
struct Shard {
    /// New and once-seen blocks; scans live and die here.
    probation: LruMap<ChunkKey, Slot>,
    /// Blocks re-referenced by point lookups.
    protected: LruMap<ChunkKey, Slot>,
    probation_bytes: u64,
    protected_bytes: u64,
}

impl Shard {
    fn used_bytes(&self) -> u64 {
        self.probation_bytes + self.protected_bytes
    }

    /// Demote protected-tail entries to probation until the protected
    /// segment respects its cap; returns how many moved. Total bytes are
    /// unchanged.
    fn rebalance_protected(&mut self, protected_cap: u64) -> u64 {
        let mut demotions = 0;
        while self.protected_bytes > protected_cap {
            let Some((k, (v, w))) = self.protected.pop_lru() else {
                break;
            };
            self.protected_bytes -= w;
            self.probation.insert(k, (v, w));
            self.probation_bytes += w;
            demotions += 1;
        }
        demotions
    }

    /// Evict one entry to relieve capacity pressure: the probation tail,
    /// else the protected tail. Only called on an over-full shard.
    fn evict_one(&mut self) {
        if let Some((_, (_, w))) = self.probation.pop_lru() {
            self.probation_bytes -= w;
        } else {
            let (_, (_, w)) = self.protected.pop_lru().expect("over-full shard");
            self.protected_bytes -= w;
        }
    }
}

/// Sharded scan-resistant cache over decoded blocks. All operations are
/// O(1) per shard.
pub struct DecodedBlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Total capacity in (raw-block) bytes; 0 disables the cache.
    capacity: u64,
    /// Each shard's even share of `capacity`.
    shard_capacity: u64,
    /// Each shard's protected-segment cap.
    protected_cap: u64,
    hits: [AtomicU64; 3],
    misses: [AtomicU64; 3],
    insertions: AtomicU64,
    bypassed_inserts: AtomicU64,
    /// Cumulative bytes of blocks handed to `insert` — each call follows
    /// one decode upstream, so this approximates total bytes parsed (the
    /// per-query trace reads its delta).
    decoded_bytes: AtomicU64,
    evictions: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl std::fmt::Debug for DecodedBlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedBlockCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DecodedBlockCache {
    /// Create a cache from its configuration.
    pub fn new(config: DecodedCacheConfig) -> Self {
        let capacity = config.capacity_bytes;
        let shards = ((capacity / SHARD_BYTES) as usize).clamp(1, MAX_SHARDS);
        Self::with_geometry(capacity, shards, PROTECTED_FRACTION)
    }

    /// [`Self::new`] with the shard count and protected fraction spelled
    /// out, so unit tests can pick a geometry whose byte arithmetic is
    /// readable.
    fn with_geometry(capacity: u64, shards: usize, protected_fraction: f64) -> Self {
        let shard_capacity = capacity / shards as u64;
        Self {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            capacity,
            shard_capacity,
            protected_cap: (shard_capacity as f64 * protected_fraction) as u64,
            hits: Default::default(),
            misses: Default::default(),
            insertions: AtomicU64::new(0),
            bypassed_inserts: AtomicU64::new(0),
            decoded_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: ChunkKey) -> &Mutex<Shard> {
        // Fibonacci-hash the (handle, block) pair so consecutive blocks of
        // one object spread across shards.
        let h = (key.0 ^ (u64::from(key.1) << 32)).wrapping_mul(0x9E3779B97F4A7C15);
        &self.shards[(h >> 48) as usize % self.shards.len()]
    }

    /// Whether the cache is disabled (zero capacity).
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Whether a key is resident (no recency effect, no statistics).
    pub fn contains(&self, key: ChunkKey) -> bool {
        if self.is_disabled() {
            return false;
        }
        let shard = self.shard_of(key).lock();
        shard.probation.contains(&key) || shard.protected.contains(&key)
    }

    /// Look up a decoded block, refreshing recency. A `PointLookup` hit in
    /// probation promotes the block into the protected segment; scan and
    /// maintenance hits refresh recency only. A disabled cache answers
    /// `None` without touching shard locks or counters.
    pub fn get(&self, key: ChunkKey, pattern: AccessPattern) -> Option<Value> {
        if self.is_disabled() {
            return None;
        }
        let found = {
            let mut shard = self.shard_of(key).lock();
            if let Some((v, _)) = shard.protected.get(&key) {
                Some(v.clone())
            } else if shard.probation.contains(&key) {
                if pattern == AccessPattern::PointLookup {
                    // Second touch by a point lookup: promote.
                    let (v, w) = shard.probation.remove(&key).expect("present");
                    shard.probation_bytes -= w;
                    let out = v.clone();
                    shard.protected.insert(key, (v, w));
                    shard.protected_bytes += w;
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                    let demos = shard.rebalance_protected(self.protected_cap);
                    self.demotions.fetch_add(demos, Ordering::Relaxed);
                    Some(out)
                } else {
                    shard.probation.get(&key).map(|(v, _)| v.clone())
                }
            } else {
                None
            }
        };
        match &found {
            Some(_) => self.hits[pattern as usize].fetch_add(1, Ordering::Relaxed),
            None => self.misses[pattern as usize].fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a decoded block with its accounting weight.
    ///
    /// `Maintenance` traffic and blocks larger than a shard are never
    /// admitted; every other new block enters probation, and the shard
    /// evicts from its tails until it fits again.
    pub fn insert(&self, key: ChunkKey, value: Value, weight: u64, pattern: AccessPattern) {
        // The block was decoded upstream whether or not it is admitted (or
        // the cache is even enabled) — count it before any early return.
        self.decoded_bytes.fetch_add(weight, Ordering::Relaxed);
        if self.is_disabled() {
            return;
        }
        let cap = self.shard_capacity;
        if weight > cap {
            // Would immediately evict everything; not cacheable.
            self.bypassed_inserts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut shard = self.shard_of(key).lock();

        // Replace in place when already resident (weight may change).
        if shard.protected.contains(&key) {
            let (_, old_w) = shard
                .protected
                .insert(key, (value, weight))
                .expect("present");
            shard.protected_bytes = shard.protected_bytes - old_w + weight;
            let demos = shard.rebalance_protected(self.protected_cap);
            self.demotions.fetch_add(demos, Ordering::Relaxed);
        } else if shard.probation.contains(&key) {
            let (_, old_w) = shard
                .probation
                .insert(key, (value, weight))
                .expect("present");
            shard.probation_bytes = shard.probation_bytes - old_w + weight;
        } else {
            if pattern == AccessPattern::Maintenance {
                // One-pass background sweeps never pollute the cache.
                self.bypassed_inserts.fetch_add(1, Ordering::Relaxed);
                return;
            }
            shard.probation.insert(key, (value, weight));
            shard.probation_bytes += weight;
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }

        while shard.used_bytes() > cap {
            shard.evict_one();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop every cached block of one object (purge / delete).
    pub fn invalidate_object(&self, handle: u64) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut s = shard.lock();
            let gone = s.probation.drain_filter(|&(h, _), _| h == handle);
            s.probation_bytes -= gone.iter().map(|(_, (_, w))| w).sum::<u64>();
            dropped += gone.len();
            let gone = s.protected.drain_filter(|&(h, _), _| h == handle);
            s.protected_bytes -= gone.iter().map(|(_, (_, w))| w).sum::<u64>();
            dropped += gone.len();
        }
        dropped
    }

    /// Drop everything (simulated crash).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.probation.clear();
            s.protected.clear();
            s.probation_bytes = 0;
            s.protected_bytes = 0;
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> DecodedCacheStats {
        let (mut entries, mut probation, mut protected) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let s = shard.lock();
            entries += (s.probation.len() + s.protected.len()) as u64;
            probation += s.probation_bytes;
            protected += s.protected_bytes;
        }
        let pat = |i: usize| PatternCounters {
            hits: self.hits[i].load(Ordering::Relaxed),
            misses: self.misses[i].load(Ordering::Relaxed),
        };
        let (point, scan, maintenance) = (pat(0), pat(1), pat(2));
        DecodedCacheStats {
            hits: point.hits + scan.hits + maintenance.hits,
            misses: point.misses + scan.misses + maintenance.misses,
            point,
            scan,
            maintenance,
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admission_rejected: 0,
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            bypassed_inserts: self.bypassed_inserts.load(Ordering::Relaxed),
            entries,
            used_bytes: probation + protected,
            probation_bytes: probation,
            protected_bytes: protected,
            decoded_bytes: self.decoded_bytes.load(Ordering::Relaxed),
        }
    }

    /// Resident keys of each segment, `(probation, protected)`, shard by
    /// shard and least-recently-used first — replacement order, for
    /// checking the cache against a model.
    pub fn segment_keys(&self) -> (Vec<ChunkKey>, Vec<ChunkKey>) {
        let (mut probation, mut protected) = (Vec::new(), Vec::new());
        for shard in &self.shards {
            let s = shard.lock();
            probation.extend(s.probation.iter_lru().map(|(k, _)| *k));
            protected.extend(s.protected.iter_lru().map(|(k, _)| *k));
        }
        (probation, protected)
    }

    /// Total hits across all access patterns — a cheap (lock-free) read for
    /// the per-query trace probes, unlike [`Self::stats`] which walks every
    /// shard.
    pub fn hits_total(&self) -> u64 {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative decoded bytes handed to the cache (see
    /// [`DecodedCacheStats::decoded_bytes`]); cheap, for trace probes.
    pub fn decoded_bytes(&self) -> u64 {
        self.decoded_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PT: AccessPattern = AccessPattern::PointLookup;
    const SC: AccessPattern = AccessPattern::RangeScan;
    const MT: AccessPattern = AccessPattern::Maintenance;

    fn val(n: u32) -> Arc<dyn Any + Send + Sync> {
        Arc::new(n)
    }

    /// One-shard cache with half its capacity protected.
    fn cache(capacity: u64) -> DecodedBlockCache {
        DecodedBlockCache::with_geometry(capacity, 1, 0.5)
    }

    /// A cache built the way `TieredStorage` builds one.
    fn configured(capacity_bytes: u64) -> DecodedBlockCache {
        DecodedBlockCache::new(DecodedCacheConfig { capacity_bytes })
    }

    #[test]
    fn get_insert_downcast_roundtrip() {
        let c = configured(1 << 20);
        c.insert((1, 0), val(42), 100, PT);
        let got = c.get((1, 0), PT).unwrap().downcast::<u32>().unwrap();
        assert_eq!(*got, 42);
        assert!(c.get((1, 1), PT).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.used_bytes), (1, 1, 1, 100));
        assert_eq!((s.point.hits, s.point.misses), (1, 1));
    }

    #[test]
    fn eviction_under_pressure_is_lru() {
        let c = cache(250);
        c.insert((1, 0), val(0), 100, PT);
        c.insert((1, 1), val(1), 100, PT);
        c.get((1, 0), PT); // (1,1) becomes LRU; (1,0) promotes
        c.insert((1, 2), val(2), 100, PT);
        assert!(c.get((1, 0), PT).is_some());
        assert!(c.get((1, 1), PT).is_none(), "LRU entry must be evicted");
        assert!(c.get((1, 2), PT).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().used_bytes <= 250);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c = cache(100);
        c.insert((1, 0), val(1), 200, PT);
        assert!(c.get((1, 0), PT).is_none());
        assert_eq!(c.stats().used_bytes, 0);
        assert_eq!(c.stats().bypassed_inserts, 1, "the refusal is counted");
    }

    #[test]
    fn invalidate_object_drops_all_its_blocks() {
        let c = DecodedBlockCache::with_geometry(1 << 20, 8, PROTECTED_FRACTION);
        for b in 0..32 {
            c.insert((7, b), val(b), 10, PT);
            c.insert((8, b), val(b), 10, PT);
        }
        // Promote a few of object 7's blocks so both segments are hit.
        for b in 0..8 {
            c.get((7, b), PT);
        }
        assert_eq!(c.invalidate_object(7), 32);
        assert!(c.get((7, 3), PT).is_none());
        assert!(c.get((8, 3), PT).is_some());
        assert_eq!(c.stats().used_bytes, 320);
        c.clear();
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn replacing_a_key_accounts_weight_once() {
        let c = cache(1000);
        c.insert((1, 0), val(1), 100, PT);
        c.insert((1, 0), val(2), 300, PT);
        assert_eq!(c.stats().used_bytes, 300);
        assert_eq!(*c.get((1, 0), PT).unwrap().downcast::<u32>().unwrap(), 2);
    }

    /// The headline property: a scan sweep evicts only probation; the
    /// point-lookup working set in the protected segment survives.
    #[test]
    fn scan_sweep_does_not_evict_protected_working_set() {
        let c = cache(1000); // protected cap 500
                             // Warm 4 point blocks (2 touches each → protected).
        for b in 0..4 {
            c.insert((1, b), val(b), 100, PT);
            c.get((1, b), PT);
        }
        assert_eq!(c.stats().protected_bytes, 400);
        // A "table scan" 10× the cache size flows through probation.
        for b in 0..100 {
            c.insert((2, b), val(b), 100, SC);
        }
        for b in 0..4 {
            assert!(
                c.get((1, b), PT).is_some(),
                "protected block (1,{b}) must survive the scan"
            );
        }
        assert_eq!(c.stats().protected_bytes, 400);
    }

    #[test]
    fn scan_hits_do_not_promote() {
        let c = cache(1000);
        c.insert((1, 0), val(0), 100, SC);
        c.get((1, 0), SC);
        c.get((1, 0), SC);
        assert_eq!(c.stats().protected_bytes, 0, "scan touches stay probation");
        c.get((1, 0), PT);
        assert_eq!(c.stats().protected_bytes, 100, "point touch promotes");
    }

    #[test]
    fn maintenance_inserts_bypass() {
        let c = cache(1000);
        c.insert((1, 0), val(0), 100, MT);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().bypassed_inserts, 1);
    }

    /// One shard per `SHARD_BYTES` of capacity, at least one, at most
    /// `MAX_SHARDS`: a small cache is never cut into shards of a few blocks.
    #[test]
    fn shard_count_derives_from_capacity() {
        for (capacity, shards) in [
            (0, 1),
            (1000, 1),
            (256 << 10, 1),
            (8 << 20, 2),
            (64 << 20, 16),
            (1 << 30, 16),
        ] {
            assert_eq!(configured(capacity).shards.len(), shards, "{capacity}");
        }
        let c = configured(1000);
        c.insert((1, 0), val(0), 100, PT);
        assert!(c.contains((1, 0)));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = configured(0);
        assert!(c.is_disabled());
        c.insert((1, 0), val(1), 10, PT);
        assert!(c.get((1, 0), PT).is_none());
        assert!(!c.contains((1, 0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }
}
