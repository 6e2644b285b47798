//! The RAM tier: one sharded, scan-resistant cache of raw chunks, each
//! marked with whether a block read has verified its checksum.
//!
//! Every chunk the hierarchy lands in RAM — a demand miss from shared
//! storage, a promotion from the SSD, a window staged ahead of demand —
//! enters *unverified*: it serves [`RamTier::read`] (the memory step of a
//! chunk read) but not a block read. The first block read of it verifies
//! the bytes against the run header's checksum and marks the entry
//! verified ([`RamTier::verify`]); from then on [`RamTier::get`] serves it
//! with no checksum and no tier walk. One entry per chunk, charged once to
//! one budget: the index-structure-aware read path re-visits the same
//! blocks many times (binary-search probes, adjacent range-scan
//! positions, sorted batch probes), and caching what that path consumes in
//! one structure-aware buffer is the MV-PBT observation.
//!
//! HTAP mixes two access patterns over the same blocks, and a plain LRU
//! serves them badly: one analytical range scan touches every block of a
//! run exactly once and sweeps the point-lookup working set out of the
//! cache. The tier defends the working set with one mechanism, a
//! **segmented LRU** per shard steered by the caller's access-pattern hint:
//! a *probation* segment absorbs new, once-seen and unverified chunks, a
//! *protected* segment ([`PROTECTED_FRACTION`] of the decoded share of the
//! budget) holds verified blocks re-referenced by point lookups, and
//! overflow demotes the protected tail back to probation. Under pressure the probation tail
//! goes first, the protected tail only once probation is empty. Scans and
//! landings flow through probation and evict only each other.
//!
//! Callers label block reads [`AccessPattern::PointLookup`] (may promote
//! into protected), [`AccessPattern::RangeScan`] (probation-only) or
//! [`AccessPattern::Maintenance`] (groom/merge sweeps — never verified
//! into the tier). A landing is not a reference and never promotes.
//! Replacement is a deterministic function of the operation sequence.
//!
//! Sharding keeps lock hold times negligible when concurrent queries (and
//! one query's per-run positioning or batch-probe workers) hit the tier at
//! once; the shard count follows from capacity ([`SHARD_BYTES`]).

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::cache::ChunkKey;
use crate::lru::LruMap;
use crate::stats::{DecodedCacheStats, PatternCounters, TierCounters, TierStats};

/// What kind of access a block read serves. Plumbed from the query layer
/// down to the RAM tier so replacement can tell the hot point working set
/// from one-pass analytical and maintenance sweeps. The discriminant
/// indexes the per-pattern hit and miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPattern {
    /// Point or batched lookup: re-reference promotes into the protected
    /// segment.
    #[default]
    PointLookup,
    /// Range-scan iteration: verified into probation only; never promotes.
    RangeScan,
    /// Background maintenance (merge/groom sweeps): one-pass
    /// traffic, never verified into the tier.
    Maintenance,
}

/// Fraction of the decoded share of the RAM budget
/// ([`DecodedCacheConfig::capacity_bytes`]) the protected segment may hold
/// (verified blocks re-referenced by point lookups); the rest of the
/// budget is probation's. Capping it by that share, not by the whole
/// budget, leaves probation the room a cold reader's staged windows need
/// until their reads consume them.
pub const PROTECTED_FRACTION: f64 = 0.8;

/// Tier bytes per shard: the shard count is `capacity / SHARD_BYTES`,
/// clamped to `1..=`[`MAX_SHARDS`]. Each shard runs its own segmented LRU
/// over its share of the capacity, so a shard must hold hundreds of
/// blocks for replacement to see the working set; a small
/// tier stays one shard (and one lock) instead of being cut into shards
/// of a couple of blocks each.
pub const SHARD_BYTES: u64 = 4 << 20;

/// The most shards any tier is split into (lock granularity under
/// concurrent readers): reached at 64 MiB, a fifth of the default budget.
pub const MAX_SHARDS: usize = 16;

/// The decoded share of the RAM budget, fixed at construction: the RAM
/// tier's capacity is `TieredConfig::mem_capacity` plus
/// [`Self::capacity_bytes`], and its protected segment may hold
/// [`PROTECTED_FRACTION`] of this share. Kept as its own type because
/// `benchmark/src/sut.rs` names it.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedCacheConfig {
    /// Bytes added to the RAM tier's budget.
    pub capacity_bytes: u64,
}

impl Default for DecodedCacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A resident chunk and whether a block read has verified it.
type Slot = (Bytes, bool);

fn weight((data, _): &Slot) -> u64 {
    data.len() as u64
}

#[derive(Default)]
struct Shard {
    /// New, once-seen and unverified chunks; scans live and die here.
    probation: LruMap<ChunkKey, Slot>,
    /// Verified blocks re-referenced by point lookups.
    protected: LruMap<ChunkKey, Slot>,
    probation_bytes: u64,
    protected_bytes: u64,
    /// Bytes and entries of the unverified chunks, all in probation.
    unverified_bytes: u64,
    unverified_entries: u64,
}

impl Shard {
    /// Account for a probation entry leaving (removed or evicted).
    fn left_probation(&mut self, slot: &Slot) {
        self.probation_bytes -= weight(slot);
        if !slot.1 {
            self.unverified_bytes -= weight(slot);
            self.unverified_entries -= 1;
        }
    }

    /// Enter probation at its most recent end.
    fn enter_probation(&mut self, key: ChunkKey, slot: Slot) {
        self.probation_bytes += weight(&slot);
        if !slot.1 {
            self.unverified_bytes += weight(&slot);
            self.unverified_entries += 1;
        }
        self.probation.insert(key, slot);
    }

    /// Demote protected-tail entries to probation until the protected
    /// segment respects its cap; returns how many moved. Total bytes are
    /// unchanged.
    fn rebalance_protected(&mut self, protected_cap: u64) -> u64 {
        let mut demotions = 0;
        while self.protected_bytes > protected_cap {
            let Some((k, slot)) = self.protected.pop_lru() else {
                break;
            };
            self.protected_bytes -= weight(&slot);
            self.enter_probation(k, slot);
            demotions += 1;
        }
        demotions
    }

    /// Evict one entry to relieve capacity pressure: the probation tail,
    /// else the protected tail. Only called on an over-full shard. Returns
    /// whether the evicted entry was verified.
    fn evict_one(&mut self) -> bool {
        if let Some((_, slot)) = self.probation.pop_lru() {
            self.left_probation(&slot);
            slot.1
        } else {
            let (_, slot) = self.protected.pop_lru().expect("over-full shard");
            self.protected_bytes -= weight(&slot);
            true
        }
    }
}

/// The RAM tier: sharded segmented LRU over chunks, verified or not. All
/// operations are O(1) per shard.
pub struct RamTier {
    shards: Vec<Mutex<Shard>>,
    /// Each shard's even share of the capacity.
    shard_capacity: u64,
    /// Each shard's protected-segment cap.
    protected_cap: u64,
    /// Chunk-read traffic ([`Self::read`]) and every entry in or out, as a
    /// chunk tier counts them.
    chunk: TierCounters,
    /// Verified lookups ([`Self::get`]) per access pattern.
    hits: [AtomicU64; 3],
    misses: [AtomicU64; 3],
    /// Entries that became verified.
    admissions: AtomicU64,
    bypassed_inserts: AtomicU64,
    /// Cumulative bytes handed to [`Self::verify`] — each call follows one
    /// decode upstream, so this approximates total bytes parsed (the
    /// per-query trace reads its delta).
    decoded_bytes: AtomicU64,
    verified_evictions: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl RamTier {
    /// A tier of `mem_bytes + decoded_bytes` whose protected segment holds
    /// at most [`PROTECTED_FRACTION`] of `decoded_bytes`; the shard count
    /// follows from the total.
    pub fn new(mem_bytes: u64, decoded_bytes: u64) -> Self {
        let capacity = mem_bytes + decoded_bytes;
        let shards = ((capacity / SHARD_BYTES) as usize).clamp(1, MAX_SHARDS);
        let protected = (decoded_bytes as f64 * PROTECTED_FRACTION) as u64;
        Self::with_geometry(capacity, protected, shards)
    }

    /// [`Self::new`] with the protected bytes and the shard count spelled
    /// out, so unit tests can pick a geometry whose byte arithmetic is
    /// readable.
    fn with_geometry(capacity: u64, protected: u64, shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            shard_capacity: capacity / shards as u64,
            protected_cap: protected / shards as u64,
            chunk: TierCounters::default(),
            hits: Default::default(),
            misses: Default::default(),
            admissions: AtomicU64::new(0),
            bypassed_inserts: AtomicU64::new(0),
            decoded_bytes: AtomicU64::new(0),
            verified_evictions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: ChunkKey) -> &Mutex<Shard> {
        // Fibonacci-hash the (handle, chunk) pair so consecutive chunks of
        // one object spread across shards.
        let h = (key.0 ^ (u64::from(key.1) << 32)).wrapping_mul(0x9E3779B97F4A7C15);
        &self.shards[(h >> 48) as usize % self.shards.len()]
    }

    /// Whether a chunk is resident, verified or not (no recency effect, no
    /// statistics).
    pub fn contains(&self, key: ChunkKey) -> bool {
        let shard = self.shard_of(key).lock();
        shard.probation.contains(&key) || shard.protected.contains(&key)
    }

    /// A block read: the chunk if it is resident *and verified*,
    /// refreshing recency. A `PointLookup` hit in probation promotes the
    /// entry into the protected segment; scan and maintenance hits refresh
    /// recency only. An unverified entry is a miss and is left as it is.
    pub fn get(&self, key: ChunkKey, pattern: AccessPattern) -> Option<Bytes> {
        let found = {
            let mut shard = self.shard_of(key).lock();
            if let Some((data, _)) = shard.protected.get(&key) {
                Some(data.clone())
            } else if !shard.probation.peek(&key).is_some_and(|s| s.1) {
                None
            } else if pattern == AccessPattern::PointLookup {
                // Second touch by a point lookup: promote.
                let slot = shard.probation.remove(&key).expect("present");
                let (w, out) = (weight(&slot), slot.0.clone());
                shard.probation_bytes -= w;
                shard.protected.insert(key, slot);
                shard.protected_bytes += w;
                self.promotions.fetch_add(1, Ordering::Relaxed);
                let demos = shard.rebalance_protected(self.protected_cap);
                self.demotions.fetch_add(demos, Ordering::Relaxed);
                Some(out)
            } else {
                shard.probation.get(&key).map(|s| s.0.clone())
            }
        };
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter[pattern as usize].fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The memory step of a chunk read: the chunk, verified or not,
    /// refreshing its recency within its segment (never promoting).
    pub fn read(&self, key: ChunkKey) -> Option<Bytes> {
        let found = {
            let mut shard = self.shard_of(key).lock();
            let data = shard.protected.get(&key).map(|s| s.0.clone());
            data.or_else(|| shard.probation.get(&key).map(|s| s.0.clone()))
        };
        let c = &self.chunk;
        let counter = if found.is_some() { &c.hits } else { &c.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        let n = found.as_ref().map_or(0, |d| d.len() as u64);
        c.bytes_read.fetch_add(n, Ordering::Relaxed);
        found
    }

    /// Land a chunk fetched from a slower tier: it enters probation
    /// unverified. A resident chunk is left as it is (a landing is not a
    /// reference), and a chunk larger than a shard is not cached.
    pub fn land(&self, key: ChunkKey, data: Bytes) {
        let w = data.len() as u64;
        if w > self.shard_capacity {
            return;
        }
        let mut shard = self.shard_of(key).lock();
        if shard.probation.contains(&key) || shard.protected.contains(&key) {
            return;
        }
        shard.enter_probation(key, (data, false));
        self.note_insert(w);
        self.evict_to_fit(&mut shard);
    }

    /// Record that a block read verified `data` as chunk `key`: the entry
    /// holds these bytes, verified, from now on.
    ///
    /// A verified entry is replaced in its segment. Otherwise this is the
    /// block's admission: it enters (or, if it landed unverified, moves to)
    /// probation's most recent end — unless the read is `Maintenance`
    /// traffic, which never admits, or the block is larger than a shard.
    pub fn verify(&self, key: ChunkKey, data: Bytes, pattern: AccessPattern) {
        let w = data.len() as u64;
        // The block was decoded upstream whether or not it is admitted —
        // count it before any early return.
        self.decoded_bytes.fetch_add(w, Ordering::Relaxed);
        if w > self.shard_capacity {
            // Would immediately evict everything; not cacheable.
            self.bypassed_inserts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = (data, true);
        let mut shard = self.shard_of(key).lock();
        if shard.protected.contains(&key) {
            let old = shard.protected.insert(key, slot).expect("present");
            shard.protected_bytes = shard.protected_bytes - weight(&old) + w;
            let demos = shard.rebalance_protected(self.protected_cap);
            self.demotions.fetch_add(demos, Ordering::Relaxed);
        } else if shard.probation.peek(&key).is_some_and(|s| s.1) {
            let old = shard.probation.insert(key, slot).expect("present");
            shard.probation_bytes = shard.probation_bytes - weight(&old) + w;
        } else if pattern == AccessPattern::Maintenance {
            // One-pass background sweeps never pollute the tier.
            self.bypassed_inserts.fetch_add(1, Ordering::Relaxed);
            return;
        } else {
            match shard.probation.remove(&key) {
                Some(old) => shard.left_probation(&old),
                None => self.note_insert(w),
            }
            shard.enter_probation(key, slot);
            self.admissions.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_to_fit(&mut shard);
    }

    fn note_insert(&self, w: u64) {
        self.chunk.insertions.fetch_add(1, Ordering::Relaxed);
        self.chunk.bytes_written.fetch_add(w, Ordering::Relaxed);
    }

    fn evict_to_fit(&self, shard: &mut Shard) {
        while shard.probation_bytes + shard.protected_bytes > self.shard_capacity {
            if shard.evict_one() {
                self.verified_evictions.fetch_add(1, Ordering::Relaxed);
            }
            self.chunk.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop one chunk. Returns whether it was resident.
    pub fn remove(&self, key: ChunkKey) -> bool {
        let mut s = self.shard_of(key).lock();
        if let Some(slot) = s.probation.remove(&key) {
            s.left_probation(&slot);
        } else if let Some(slot) = s.protected.remove(&key) {
            s.protected_bytes -= weight(&slot);
        } else {
            return false;
        }
        true
    }

    /// Drop every chunk of an object with chunk number ≥ `from_chunk`
    /// (purge keeps the header chunks, delete drops all). Returns how many
    /// were dropped.
    pub fn remove_object_chunks(&self, handle: u64, from_chunk: u32) -> usize {
        let doomed = |&(h, c): &ChunkKey, _: &Slot| h == handle && c >= from_chunk;
        let mut dropped = 0;
        for shard in &self.shards {
            let mut s = shard.lock();
            for (_, slot) in s.probation.drain_filter(doomed) {
                s.left_probation(&slot);
                dropped += 1;
            }
            for (_, slot) in s.protected.drain_filter(doomed) {
                s.protected_bytes -= weight(&slot);
                dropped += 1;
            }
        }
        dropped
    }

    /// Drop everything (simulated crash).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock() = Shard::default();
        }
    }

    /// Current statistics: the tier as a chunk tier sees it (every entry),
    /// and its verified entries as a decoded-block cache sees them.
    pub fn stats(&self) -> (TierStats, DecodedCacheStats) {
        let (mut entries, mut probation, mut protected) = (0u64, 0u64, 0u64);
        let (mut unverified, mut unverified_entries) = (0u64, 0u64);
        for shard in &self.shards {
            let s = shard.lock();
            entries += (s.probation.len() + s.protected.len()) as u64;
            probation += s.probation_bytes;
            protected += s.protected_bytes;
            unverified += s.unverified_bytes;
            unverified_entries += s.unverified_entries;
        }
        let pat = |i: usize| PatternCounters {
            hits: self.hits[i].load(Ordering::Relaxed),
            misses: self.misses[i].load(Ordering::Relaxed),
        };
        let (point, scan, maintenance) = (pat(0), pat(1), pat(2));
        let decoded = DecodedCacheStats {
            hits: point.hits + scan.hits + maintenance.hits,
            misses: point.misses + scan.misses + maintenance.misses,
            point,
            scan,
            maintenance,
            insertions: self.admissions.load(Ordering::Relaxed),
            evictions: self.verified_evictions.load(Ordering::Relaxed),
            admission_rejected: 0,
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            bypassed_inserts: self.bypassed_inserts.load(Ordering::Relaxed),
            entries: entries - unverified_entries,
            used_bytes: probation + protected - unverified,
            probation_bytes: probation - unverified,
            protected_bytes: protected,
            decoded_bytes: self.decoded_bytes.load(Ordering::Relaxed),
        };
        (
            self.chunk.snapshot(probation + protected, 0, entries),
            decoded,
        )
    }

    /// Resident keys of each segment, `(probation, protected)`, shard by
    /// shard and least-recently-used first — replacement order, for
    /// checking the tier against a model. Each probation key carries
    /// whether it is verified (protected keys all are).
    pub fn segment_keys(&self) -> (Vec<(ChunkKey, bool)>, Vec<ChunkKey>) {
        let (mut probation, mut protected) = (Vec::new(), Vec::new());
        for shard in &self.shards {
            let s = shard.lock();
            probation.extend(s.probation.iter_lru().map(|(k, v)| (*k, v.1)));
            protected.extend(s.protected.iter_lru().map(|(k, _)| *k));
        }
        (probation, protected)
    }

    /// Total verified hits across all access patterns — a cheap
    /// (lock-free) read for the per-query trace probes, unlike
    /// [`Self::stats`] which walks every shard.
    pub fn hits_total(&self) -> u64 {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative bytes handed to [`Self::verify`] (see
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

    /// `len` bytes, each `fill`.
    fn val(fill: u8, len: usize) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    /// One-shard tier with half its capacity protected.
    fn tier(capacity: u64) -> RamTier {
        RamTier::with_geometry(capacity, capacity / 2, 1)
    }

    #[test]
    fn verify_get_roundtrip() {
        let c = RamTier::new(0, 1 << 20);
        c.verify((1, 0), val(42, 100), PT);
        assert_eq!(c.get((1, 0), PT).unwrap(), val(42, 100));
        assert!(c.get((1, 1), PT).is_none());
        let (_, s) = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.used_bytes), (1, 1, 1, 100));
        assert_eq!((s.point.hits, s.point.misses), (1, 1));
    }

    /// A landed chunk serves chunk reads but not block reads until it is
    /// verified; a landing never replaces or promotes a resident entry.
    #[test]
    fn landed_chunk_is_unverified_until_verified() {
        let c = tier(1000);
        c.land((1, 0), val(1, 100));
        assert!(c.contains((1, 0)));
        assert!(c.get((1, 0), PT).is_none(), "unverified is a block miss");
        assert_eq!(c.read((1, 0)).unwrap(), val(1, 100));
        let (mem, dec) = c.stats();
        assert_eq!((mem.hits, mem.entries, mem.used_bytes), (1, 1, 100));
        assert_eq!((dec.entries, dec.used_bytes, dec.point.misses), (0, 0, 1));

        c.verify((1, 0), val(2, 100), PT);
        assert_eq!(c.get((1, 0), PT).unwrap(), val(2, 100));
        let (mem, dec) = c.stats();
        assert_eq!((mem.entries, mem.insertions), (1, 1), "one entry");
        assert_eq!((dec.entries, dec.insertions), (1, 1));
        assert_eq!(dec.protected_bytes, 100, "the verified hit promoted");

        c.land((1, 0), val(3, 100));
        assert_eq!(c.get((1, 0), PT).unwrap(), val(2, 100));
        assert_eq!(c.stats().0.insertions, 1);
        c.land((1, 1), val(3, 100));
        c.land((1, 1), val(4, 100));
        assert_eq!(c.segment_keys(), (vec![((1, 1), false)], vec![(1, 0)]));
    }

    #[test]
    fn eviction_under_pressure_is_lru() {
        let c = tier(250);
        c.verify((1, 0), val(0, 100), PT);
        c.verify((1, 1), val(1, 100), PT);
        c.get((1, 0), PT); // (1,1) becomes LRU; (1,0) promotes
        c.land((1, 2), val(2, 100));
        assert!(c.get((1, 0), PT).is_some());
        assert!(c.get((1, 1), PT).is_none(), "LRU entry must be evicted");
        assert!(c.read((1, 2)).is_some());
        let (mem, dec) = c.stats();
        assert_eq!((mem.evictions, dec.evictions), (1, 1));
        assert!(mem.used_bytes <= 250);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c = tier(100);
        c.verify((1, 0), val(1, 200), PT);
        c.land((1, 1), val(1, 200));
        assert!(c.get((1, 0), PT).is_none());
        assert!(!c.contains((1, 1)));
        let (mem, dec) = c.stats();
        assert_eq!(mem.used_bytes, 0);
        assert_eq!(dec.bypassed_inserts, 1, "the refusal is counted");
    }

    #[test]
    fn invalidate_object_drops_all_its_blocks() {
        let c = RamTier::new(1 << 20, 1 << 20);
        for b in 0..32 {
            c.verify((7, b), val(0, 10), PT);
            c.verify((8, b), val(0, 10), PT);
        }
        c.land((7, 40), val(0, 10));
        // Promote a few of object 7's blocks so both segments are hit.
        for b in 0..8 {
            c.get((7, b), PT);
        }
        assert_eq!(c.remove_object_chunks(7, 1), 32, "chunk 0 is kept");
        assert_eq!(c.remove_object_chunks(7, 0), 1);
        assert!(c.get((7, 3), PT).is_none() && !c.contains((7, 0)));
        assert!(c.get((8, 3), PT).is_some());
        assert_eq!(c.stats().0.used_bytes, 320);
        assert!(c.remove((8, 0)) && !c.remove((8, 0)));
        c.clear();
        assert_eq!(c.stats().0.entries, 0);
    }

    #[test]
    fn replacing_a_key_accounts_weight_once() {
        let c = tier(1000);
        c.verify((1, 0), val(1, 100), PT);
        c.verify((1, 0), val(2, 300), PT);
        assert_eq!(c.stats().1.used_bytes, 300);
        assert_eq!(c.get((1, 0), PT).unwrap(), val(2, 300));
    }

    /// The headline property: a scan sweep, or a stream of landings,
    /// evicts only probation; the point-lookup working set in the
    /// protected segment survives.
    #[test]
    fn scan_sweep_does_not_evict_protected_working_set() {
        let c = tier(1000); // protected cap 500
                            // Warm 4 point blocks (2 touches each → protected).
        for b in 0..4 {
            c.verify((1, b), val(0, 100), PT);
            c.get((1, b), PT);
        }
        assert_eq!(c.stats().1.protected_bytes, 400);
        // A "table scan" 10× the tier size flows through probation.
        for b in 0..100 {
            c.verify((2, b), val(0, 100), SC);
            c.land((3, b), val(0, 100));
        }
        for b in 0..4 {
            assert!(
                c.get((1, b), PT).is_some(),
                "protected block (1,{b}) must survive the scan"
            );
        }
        assert_eq!(c.stats().1.protected_bytes, 400);
    }

    #[test]
    fn scan_hits_do_not_promote() {
        let c = tier(1000);
        c.verify((1, 0), val(0, 100), SC);
        c.get((1, 0), SC);
        c.read((1, 0));
        assert_eq!(
            c.stats().1.protected_bytes,
            0,
            "scan touches stay probation"
        );
        c.get((1, 0), PT);
        assert_eq!(c.stats().1.protected_bytes, 100, "point touch promotes");
    }

    /// Maintenance reads never admit: a landed chunk they verify stays
    /// unverified, an absent one stays absent.
    #[test]
    fn maintenance_inserts_bypass() {
        let c = tier(1000);
        c.verify((1, 0), val(0, 100), MT);
        c.land((1, 1), val(0, 100));
        c.verify((1, 1), val(0, 100), MT);
        let (mem, dec) = c.stats();
        assert_eq!((mem.entries, dec.entries), (1, 0));
        assert_eq!(dec.bypassed_inserts, 2);
    }

    /// One shard per `SHARD_BYTES` of capacity, at least one, at most
    /// `MAX_SHARDS`: a small tier is never cut into shards of a few blocks.
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
            let c = RamTier::new(capacity / 2, capacity - capacity / 2);
            assert_eq!(c.shards.len(), shards, "{capacity}");
        }
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = RamTier::new(0, 0);
        c.verify((1, 0), val(1, 10), PT);
        c.land((1, 1), val(1, 10));
        assert!(c.get((1, 0), PT).is_none());
        assert!(c.read((1, 1)).is_none());
        let (mem, dec) = c.stats();
        assert_eq!((mem.entries, dec.entries, dec.hits), (0, 0, 0));
    }
}
