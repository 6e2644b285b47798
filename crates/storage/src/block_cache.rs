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
//! cache. This cache defends the working set with two mechanisms, steered
//! by the caller's access-pattern hint:
//!
//! 1. **Segmented LRU** per shard: a *probation* segment absorbs new and
//!    once-seen blocks, a *protected* segment ([`PROTECTED_FRACTION`] of
//!    capacity) holds blocks re-referenced by point lookups. Scans flow
//!    through probation and evict only each other.
//! 2. **Frequency-sketch admission** (TinyLFU): a 4-bit count–min sketch
//!    with periodic halving estimates each block's recent popularity. When
//!    the shard is full, a cold candidate is admitted only if its estimate
//!    at least matches the probation victim's, and a block evicted from
//!    probation displaces the protected tail only if its estimated
//!    frequency strictly wins.
//!
//! Callers label traffic [`AccessPattern::PointLookup`] (may promote into
//! protected), [`AccessPattern::RangeScan`] (probation-only) or
//! [`AccessPattern::Maintenance`] (groom/merge sweeps — never admitted).
//!
//! The cache is value-type-agnostic (`Arc<dyn Any + Send + Sync>`) because
//! the decoded block type lives upstream of this crate; `umzi-run` stores
//! its `DataBlock` here keyed by `(object handle, data block number)`.
//! Sharding keeps lock hold times negligible when concurrent queries (and
//! one query's per-run positioning or batch-probe workers) hit the cache
//! at once; the shard count follows from capacity ([`SHARD_BYTES`]).

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::cache::ChunkKey;
use crate::lru::LruMap;
use crate::sketch::FrequencySketch;
use crate::stats::{DecodedCacheStats, PatternCounters};

/// What kind of access a block fetch serves. Plumbed from the query layer
/// down to the cache so replacement can tell the hot point working set from
/// one-pass analytical and maintenance sweeps.
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

impl AccessPattern {
    pub(crate) fn idx(self) -> usize {
        match self {
            AccessPattern::PointLookup => 0,
            AccessPattern::RangeScan => 1,
            AccessPattern::Maintenance => 2,
        }
    }
}

/// Fraction of each shard's capacity reserved for the protected segment
/// (blocks re-referenced by point lookups); the rest is probation.
pub const PROTECTED_FRACTION: f64 = 0.8;

/// Cache bytes per frequency-sketch counter (one sketch shared by all
/// shards): ~8 counters per KiB ⇒ dozens per typical 4–8 KiB block, keeping
/// count–min aliasing (which inflates estimates and can displace
/// legitimately-protected blocks) rare at working-set scale. The resulting
/// count is clamped to `1024..=1 << 22`.
pub const SKETCH_BYTES_PER_COUNTER: u64 = 128;

/// The sketch halves its counters after this many recorded accesses per
/// counter (aging horizon).
pub const SKETCH_SAMPLE_FACTOR: u32 = 8;

/// Cache bytes per shard: the shard count is `capacity / SHARD_BYTES`,
/// clamped to `1..=`[`MAX_SHARDS`]. Each shard runs its own segmented LRU
/// and admission duel over its share of the capacity, so a shard must hold
/// hundreds of blocks for replacement to see the working set; a small
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

/// A decoded block plus its accounting weight (the raw block size).
type Slot = (std::sync::Arc<dyn Any + Send + Sync>, u64);

struct Shard {
    /// New and once-seen blocks; scans live and die here.
    probation: LruMap<ChunkKey, Slot>,
    /// Blocks re-referenced by point lookups.
    protected: LruMap<ChunkKey, Slot>,
    probation_bytes: u64,
    protected_bytes: u64,
}

impl Shard {
    fn new() -> Self {
        Self {
            probation: LruMap::new(),
            protected: LruMap::new(),
            probation_bytes: 0,
            protected_bytes: 0,
        }
    }

    fn used_bytes(&self) -> u64 {
        self.probation_bytes + self.protected_bytes
    }

    /// Demote protected-tail entries to probation until the protected
    /// segment respects its cap. Total bytes are unchanged.
    fn rebalance_protected(&mut self, protected_cap: u64, demotions: &mut u64) {
        while self.protected_bytes > protected_cap {
            let Some((k, (v, w))) = self.protected.pop_lru() else {
                break;
            };
            self.protected_bytes -= w;
            self.probation.insert(k, (v, w));
            self.probation_bytes += w;
            *demotions += 1;
        }
    }

    /// Evict one entry to relieve capacity pressure. Probation's tail goes
    /// first; if its sketch frequency strictly beats the protected tail's,
    /// it earned protection and displaces that tail instead of dying.
    /// Returns `false` when the shard is empty.
    fn evict_one(
        &mut self,
        protected_cap: u64,
        sketch: &FrequencySketch,
        c: &EvictCounters,
    ) -> bool {
        if let Some((vk, (vv, vw))) = self.probation.pop_lru() {
            self.probation_bytes -= vw;
            let vfreq = sketch.estimate(sketch_hash(vk));
            let tail_freq = self
                .protected
                .peek_lru()
                .map(|(k, _)| sketch.estimate(sketch_hash(*k)));
            if let Some(tf) = tail_freq {
                if vfreq > tf {
                    // Frequency wins: the probation victim displaces the
                    // protected tail.
                    let (_, (_, pw)) = self.protected.pop_lru().expect("tail exists");
                    self.protected_bytes -= pw;
                    self.protected.insert(vk, (vv, vw));
                    self.protected_bytes += vw;
                    let mut demos = 0;
                    self.rebalance_protected(protected_cap, &mut demos);
                    c.demotions.fetch_add(demos, Ordering::Relaxed);
                    c.promotions.fetch_add(1, Ordering::Relaxed);
                    c.evictions.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
            c.evictions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if let Some((_, (_, pw))) = self.protected.pop_lru() {
            self.protected_bytes -= pw;
            c.evictions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Eviction-related counters passed into the shard helpers.
struct EvictCounters {
    evictions: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

fn sketch_hash(key: ChunkKey) -> u64 {
    (key.0 ^ (u64::from(key.1) << 32)).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Sharded scan-resistant cache over decoded blocks. All operations are
/// O(1) per shard.
pub struct DecodedBlockCache {
    shards: Vec<Mutex<Shard>>,
    /// One frequency sketch shared by every shard (striped-atomic, so no
    /// shard lock is needed to record or estimate).
    sketch: FrequencySketch,
    /// Total capacity in (raw-block) bytes; 0 disables the cache.
    capacity: u64,
    /// Each shard's even share of `capacity`.
    shard_capacity: u64,
    /// Each shard's protected-segment cap.
    protected_cap: u64,
    hits: [AtomicU64; 3],
    misses: [AtomicU64; 3],
    insertions: AtomicU64,
    admission_rejected: AtomicU64,
    bypassed_inserts: AtomicU64,
    /// Cumulative bytes of blocks handed to `insert` — each call follows
    /// one decode upstream, so this approximates total bytes parsed (the
    /// per-query trace reads its delta).
    decoded_bytes: AtomicU64,
    evict: EvictCounters,
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
        let counters = (capacity / SKETCH_BYTES_PER_COUNTER).clamp(1024, 1 << 22);
        Self::with_geometry(capacity, shards, PROTECTED_FRACTION, counters as usize)
    }

    /// [`Self::new`] with the shard count, protected fraction and sketch
    /// size spelled out, so unit tests can pick a geometry whose byte
    /// arithmetic is readable and whose sketch cannot alias.
    fn with_geometry(
        capacity: u64,
        shards: usize,
        protected_fraction: f64,
        sketch_counters: usize,
    ) -> Self {
        let shard_capacity = capacity / shards as u64;
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            sketch: FrequencySketch::new(sketch_counters, SKETCH_SAMPLE_FACTOR),
            capacity,
            shard_capacity,
            protected_cap: (shard_capacity as f64 * protected_fraction) as u64,
            hits: Default::default(),
            misses: Default::default(),
            insertions: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            bypassed_inserts: AtomicU64::new(0),
            decoded_bytes: AtomicU64::new(0),
            evict: EvictCounters {
                evictions: AtomicU64::new(0),
                promotions: AtomicU64::new(0),
                demotions: AtomicU64::new(0),
            },
        }
    }

    fn shard_of(&self, key: ChunkKey) -> &Mutex<Shard> {
        // Fibonacci-hash the (handle, block) pair so consecutive blocks of
        // one object spread across shards.
        let h = sketch_hash(key);
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
    pub fn get(
        &self,
        key: ChunkKey,
        pattern: AccessPattern,
    ) -> Option<std::sync::Arc<dyn Any + Send + Sync>> {
        if self.is_disabled() {
            return None;
        }
        let found = {
            let mut shard = self.shard_of(key).lock();
            self.sketch.increment(sketch_hash(key));
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
                    self.evict.promotions.fetch_add(1, Ordering::Relaxed);
                    let mut demos = 0;
                    shard.rebalance_protected(self.protected_cap, &mut demos);
                    self.evict.demotions.fetch_add(demos, Ordering::Relaxed);
                    Some(out)
                } else {
                    shard.probation.get(&key).map(|(v, _)| v.clone())
                }
            } else {
                None
            }
        };
        match &found {
            Some(_) => self.hits[pattern.idx()].fetch_add(1, Ordering::Relaxed),
            None => self.misses[pattern.idx()].fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a decoded block with its accounting weight.
    ///
    /// `Maintenance` traffic is never admitted; new blocks enter probation,
    /// but when the shard is full a candidate whose sketch frequency is
    /// below the probation victim's is rejected instead of churning the
    /// cache.
    pub fn insert(
        &self,
        key: ChunkKey,
        value: std::sync::Arc<dyn Any + Send + Sync>,
        weight: u64,
        pattern: AccessPattern,
    ) {
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
        let (sketch, protected_cap) = (&self.sketch, self.protected_cap);
        // Armed on a fresh admission: (candidate key, its sketch frequency
        // at insert time). See the eviction loop below.
        let mut duel: Option<(ChunkKey, u64)> = None;

        // Replace in place when already resident (weight may change).
        if shard.protected.contains(&key) {
            let (_, old_w) = shard
                .protected
                .insert(key, (value, weight))
                .expect("present");
            shard.protected_bytes = shard.protected_bytes - old_w + weight;
            let mut demos = 0;
            shard.rebalance_protected(protected_cap, &mut demos);
            self.evict.demotions.fetch_add(demos, Ordering::Relaxed);
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
            // No sketch increment here: every fetch path records its
            // access in get() before inserting on a miss, so counting the
            // insert too would double-bill miss-served blocks relative to
            // hit-served ones (TinyLFU records one increment per access).
            // Admission filter: only gate when the insert would force
            // evictions, and compare the candidate against **every**
            // probation victim that would have to die to make room — a
            // heavy candidate must beat (or tie; recency breaks ties,
            // preserving LRU semantics for equal-frequency flows) each
            // of them, not just the first, so admitting one big cold
            // block cannot silently evict a pile of warm small ones.
            let cfreq = sketch.estimate(sketch_hash(key));
            if shard.used_bytes() + weight > cap {
                let mut to_free = (shard.used_bytes() + weight).saturating_sub(cap);
                for (vk, (_, vw)) in shard.probation.iter_lru() {
                    if to_free == 0 {
                        break;
                    }
                    if sketch.estimate(sketch_hash(*vk)) > cfreq {
                        self.admission_rejected.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    to_free = to_free.saturating_sub(*vw);
                }
            }
            // The walk above assumes each inspected victim frees its full
            // weight, but evict_one may displace a victim into protected
            // and free only the (smaller) protected tail instead, pulling
            // eviction past the inspected prefix. Arm a late duel so each
            // *actual* victim is still compared against the candidate.
            duel = Some((key, cfreq));
            shard.probation.insert(key, (value, weight));
            shard.probation_bytes += weight;
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }

        while shard.used_bytes() > cap {
            if let Some((ck, cfreq)) = duel {
                if !shard.probation.contains(&ck) {
                    // The candidate left probation mid-loop — either evicted
                    // (nothing to back out) or displaced into protected by
                    // winning a frequency duel (it earned its place). Either
                    // way the duel is over and eviction proceeds normally.
                    duel = None;
                } else {
                    let hotter_victim = shard.probation.peek_lru().is_some_and(|(vk, _)| {
                        *vk != ck && sketch.estimate(sketch_hash(*vk)) > cfreq
                    });
                    if hotter_victim {
                        // A block hotter than the candidate would die next:
                        // back the admission out instead of evicting it.
                        let (_, w) = shard.probation.remove(&ck).expect("checked above");
                        shard.probation_bytes -= w;
                        // The entry never became resident: it counts as a
                        // rejected admission, not an insertion.
                        self.insertions.fetch_sub(1, Ordering::Relaxed);
                        self.admission_rejected.fetch_add(1, Ordering::Relaxed);
                        duel = None;
                        continue;
                    }
                }
            }
            if !shard.evict_one(protected_cap, sketch, &self.evict) {
                break;
            }
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
            evictions: self.evict.evictions.load(Ordering::Relaxed),
            admission_rejected: self.admission_rejected.load(Ordering::Relaxed),
            promotions: self.evict.promotions.load(Ordering::Relaxed),
            demotions: self.evict.demotions.load(Ordering::Relaxed),
            bypassed_inserts: self.bypassed_inserts.load(Ordering::Relaxed),
            entries,
            used_bytes: probation + protected,
            probation_bytes: probation,
            protected_bytes: protected,
            sketch_occupancy: self.sketch.occupancy(),
            sketch_halvings: self.sketch.halvings(),
            decoded_bytes: self.decoded_bytes.load(Ordering::Relaxed),
        }
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
    use std::sync::Arc;

    const PT: AccessPattern = AccessPattern::PointLookup;
    const SC: AccessPattern = AccessPattern::RangeScan;
    const MT: AccessPattern = AccessPattern::Maintenance;

    fn val(n: u32) -> Arc<dyn Any + Send + Sync> {
        Arc::new(n)
    }

    /// One-shard cache with deterministic behaviour; the oversized sketch
    /// makes count–min aliasing impossible at unit-test key counts.
    fn cache(capacity: u64) -> DecodedBlockCache {
        geometry(capacity, 0.5)
    }

    fn geometry(capacity: u64, protected_fraction: f64) -> DecodedBlockCache {
        DecodedBlockCache::with_geometry(capacity, 1, protected_fraction, 1 << 16)
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
        let c = DecodedBlockCache::with_geometry(1 << 20, 8, PROTECTED_FRACTION, 1 << 16);
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

    #[test]
    fn cold_candidate_is_rejected_against_frequent_victim() {
        let c = cache(200);
        c.insert((1, 0), val(0), 100, PT);
        c.insert((1, 1), val(1), 100, PT);
        // Bump (1,0)'s frequency with scan touches (no promotion), then
        // refresh (1,1) so (1,0) is the probation LRU victim — frequent but
        // not recent, exactly what the admission filter protects.
        for _ in 0..4 {
            c.get((1, 0), SC);
        }
        c.get((1, 1), SC);
        let before = c.stats().admission_rejected;
        c.insert((2, 0), val(9), 100, SC);
        assert_eq!(c.stats().admission_rejected, before + 1);
        assert!(c.get((2, 0), SC).is_none(), "cold block was not admitted");
        assert!(c.get((1, 0), SC).is_some());
    }

    /// The displacement rule: a block evicted from probation displaces the
    /// protected tail only when its estimated frequency strictly wins.
    #[test]
    fn frequent_probation_victim_displaces_protected_tail() {
        let c = cache(400); // protected cap 200
                            // (1,0) promoted once → protected, then left idle (freq 2).
        c.insert((1, 0), val(0), 100, PT);
        c.get((1, 0), PT);
        // (1,1) hammered by scans in probation (high freq, no promotion),
        // then two quiet blocks fill the shard; (1,1) ends up probation LRU.
        c.insert((1, 1), val(1), 100, SC);
        for _ in 0..10 {
            c.get((1, 1), SC);
        }
        c.insert((1, 2), val(2), 100, SC);
        c.insert((1, 3), val(3), 100, SC);
        // A similarly hot newcomer passes admission (≥ victim), forcing one
        // eviction: probation victim (1,1) beats the idle protected tail
        // (1,0) and takes its slot instead of dying.
        for _ in 0..11 {
            c.get((2, 0), SC); // misses still record frequency
        }
        c.insert((2, 0), val(9), 100, SC);
        assert!(c.get((1, 0), PT).is_none(), "idle protected tail displaced");
        assert!(
            c.get((1, 1), SC).is_some(),
            "hot victim got a second chance"
        );
        assert!(c.contains((2, 0)), "the newcomer was admitted");
        assert!(c.stats().used_bytes <= 400);
        let s = c.stats();
        assert!(s.promotions >= 1 && s.evictions >= 1);
    }

    /// Weighted admission: a heavy cold candidate must beat every victim
    /// its admission would evict, not just the first one.
    #[test]
    fn heavy_candidate_must_beat_every_victim_it_would_evict() {
        let c = cache(400);
        // Four warm small blocks; the *first* victim is cold but the ones
        // behind it are warm.
        c.insert((1, 0), val(0), 100, SC); // stays cold (freq 1)
        for b in 1..4 {
            c.insert((1, b), val(b), 100, SC);
            for _ in 0..4 {
                c.get((1, b), SC);
            }
        }
        // A 300-byte cold candidate ties the cold first victim but would
        // also have to evict two warm blocks — rejected.
        let before = c.stats().admission_rejected;
        c.insert((2, 0), val(9), 300, SC);
        assert_eq!(c.stats().admission_rejected, before + 1);
        assert!(!c.contains((2, 0)));
        assert!(c.contains((1, 1)) && c.contains((1, 2)) && c.contains((1, 3)));
    }

    /// Displacement-cascade guard: when an inspected victim displaces the
    /// protected tail instead of dying, eviction frees fewer bytes than the
    /// admission walk assumed and reaches victims the filter never compared.
    /// The late duel must then back the candidate out rather than evict a
    /// block hotter than it.
    #[test]
    fn admission_backs_out_when_displacement_reaches_hotter_victims() {
        let c = cache(400); // protected cap 200
                            // Idle protected tail P: small (40 B), freq 2.
        c.insert((1, 9), val(9), 40, PT);
        c.get((1, 9), PT);
        // Probation LRU order [A, B]: A warm (freq 3), B hot (freq 9).
        c.insert((1, 0), val(0), 100, SC);
        for _ in 0..2 {
            c.get((1, 0), SC);
        }
        c.insert((1, 1), val(1), 100, SC);
        for _ in 0..8 {
            c.get((1, 1), SC);
        }
        // Candidate ties A (freq 3) and needs 90 B freed, so the filter
        // inspects only A — but A displaces P (freeing just 40 B) and the
        // old loop would go on to disturb B (freq 9).
        for _ in 0..2 {
            c.get((2, 0), SC);
        }
        let before = c.stats().admission_rejected;
        c.insert((2, 0), val(7), 250, SC);
        assert_eq!(c.stats().admission_rejected, before + 1);
        assert!(!c.contains((2, 0)), "candidate backed out mid-eviction");
        assert!(c.contains((1, 1)), "hot block B must not be disturbed");
        assert!(c.contains((1, 0)), "A earned protection via displacement");
        assert!(c.stats().used_bytes <= 400);
    }

    /// If evict_one displaces the candidate itself into protected while the
    /// duel is armed, the back-out must become a no-op (the candidate earned
    /// its place) instead of decrementing `insertions` and counting a
    /// spurious `admission_rejected` for a resident entry.
    #[test]
    fn duel_disarms_when_candidate_is_displaced_into_protected() {
        let c = geometry(1000, 0.75);
        // Protected: idle tail e1 (40 B, freq 1) and hot e2 (400 B, freq 7).
        c.insert((1, 1), val(1), 40, PT);
        c.get((1, 1), PT);
        c.insert((1, 2), val(2), 400, PT);
        for _ in 0..7 {
            c.get((1, 2), PT);
        }
        // One cold probation block, then a hot heavy candidate: the filter
        // inspects only the cold block, the candidate displaces e1 (probation
        // drains to it alone), and rebalance demotes hot e2 into probation
        // while the duel is still armed.
        c.insert((2, 1), val(3), 100, SC);
        for _ in 0..3 {
            c.get((3, 0), SC);
        }
        let before = c.stats();
        c.insert((3, 0), val(4), 650, SC);
        let after = c.stats();
        assert_eq!(
            after.admission_rejected, before.admission_rejected,
            "no spurious rejection for an admitted candidate"
        );
        assert_eq!(after.insertions, before.insertions + 1);
        assert!(c.contains((1, 2)), "hot e2 survives via its own duel");
        assert!(!c.contains((3, 0)), "candidate lost to the hotter e2");
        assert!(after.used_bytes <= 1000);
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
