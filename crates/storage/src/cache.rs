//! A capacity-bounded, block-granularity cache tier: the SSD.
//!
//! Entries are chunks of immutable objects, keyed by `(object handle, chunk
//! number)`. Two residency classes exist:
//!
//! * **unpinned** — ordinary cached chunks, evicted LRU under pressure;
//! * **pinned** — never evicted. Used for run *header* blocks (§6.2: purging
//!   *"drops all data blocks from the SSD while only keeps the header block
//!   for queries to locate data blocks"*) and for all chunks of runs in
//!   non-persisted levels (§6.1), whose only copy lives in this tier.

use bytes::Bytes;
use parking_lot::Mutex;

use crate::latency::LatencyModel;
use crate::lru::LruMap;
use crate::stats::{TierCounters, TierStats};

/// Cache key: `(object handle, chunk number)`.
pub type ChunkKey = (u64, u32);

#[derive(Debug)]
struct TierInner {
    unpinned: LruMap<ChunkKey, Bytes>,
    pinned: std::collections::HashMap<ChunkKey, Bytes>,
    used_bytes: u64,
    pinned_bytes: u64,
}

/// One cache tier of the storage hierarchy.
pub struct CacheTier {
    capacity: u64,
    latency: LatencyModel,
    inner: Mutex<TierInner>,
    counters: TierCounters,
}

impl std::fmt::Debug for CacheTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheTier")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheTier {
    /// Create a tier with a byte capacity and latency model.
    ///
    /// Pinned insertions may exceed capacity (the alternative — refusing to
    /// hold a non-persisted run — would lose data); only unpinned entries
    /// are evicted to make room.
    pub fn new(capacity: u64, latency: LatencyModel) -> Self {
        Self {
            capacity,
            latency,
            inner: Mutex::new(TierInner {
                unpinned: LruMap::new(),
                pinned: std::collections::HashMap::new(),
                used_bytes: 0,
                pinned_bytes: 0,
            }),
            counters: TierCounters::default(),
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Look up a chunk; charges read latency on hit and refreshes recency.
    pub fn get(&self, key: ChunkKey) -> Option<Bytes> {
        let mut inner = self.inner.lock();
        let found = inner
            .pinned
            .get(&key)
            .cloned()
            .or_else(|| inner.unpinned.get(&key).cloned());
        drop(inner);
        match found {
            Some(data) => {
                self.counters
                    .hits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.counters
                    .bytes_read
                    .fetch_add(data.len() as u64, std::sync::atomic::Ordering::Relaxed);
                self.latency.apply(data.len());
                Some(data)
            }
            None => {
                self.counters
                    .misses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a chunk is resident (no latency charge, no recency effect).
    pub fn contains(&self, key: ChunkKey) -> bool {
        let inner = self.inner.lock();
        inner.pinned.contains_key(&key) || inner.unpinned.contains(&key)
    }

    /// Insert one chunk: [`Self::insert_batch`] with one item, so it is
    /// charged one write of its own bytes.
    pub fn insert(&self, key: ChunkKey, data: Bytes, pinned: bool) {
        self.insert_batch([(key, data, pinned)]);
    }

    /// Insert a batch of `(key, data, pinned)` chunks under one lock, in
    /// order. Each item replaces any resident copy of its key and evicts
    /// LRU unpinned entries until it fits, exactly as inserting the items
    /// one by one would: an earlier member may be evicted by a later one, a
    /// repeated key keeps its last copy, and pinned items may overflow the
    /// capacity. The counters count every item.
    ///
    /// The latency model is charged **once**, for the batch's total bytes:
    /// the batch is one sequential write of all of them, so it pays one
    /// operation's fixed cost, and every byte at the per-KiB rate. An empty
    /// batch charges and counts nothing.
    pub fn insert_batch(&self, items: impl IntoIterator<Item = (ChunkKey, Bytes, bool)>) {
        let (mut inserted, mut evicted, mut total) = (0u64, 0u64, 0u64);
        {
            let mut inner = self.inner.lock();
            for (key, data, pinned) in items {
                let len = data.len() as u64;
                // Replace any existing entry for this key first.
                if let Some(old) = inner.unpinned.remove(&key) {
                    inner.used_bytes -= old.len() as u64;
                } else if let Some(old) = inner.pinned.remove(&key) {
                    inner.used_bytes -= old.len() as u64;
                    inner.pinned_bytes -= old.len() as u64;
                }
                // Evict unpinned LRU entries until the new chunk fits.
                while inner.used_bytes + len > self.capacity {
                    match inner.unpinned.pop_lru() {
                        Some((_, old)) => {
                            inner.used_bytes -= old.len() as u64;
                            evicted += 1;
                        }
                        None => break, // only pinned remain; allow overflow
                    }
                }
                inner.used_bytes += len;
                if pinned {
                    inner.pinned_bytes += len;
                    inner.pinned.insert(key, data);
                } else {
                    inner.unpinned.insert(key, data);
                }
                inserted += 1;
                total += len;
            }
        }
        if inserted == 0 {
            return;
        }
        self.counters
            .insertions
            .fetch_add(inserted, std::sync::atomic::Ordering::Relaxed);
        self.counters
            .evictions
            .fetch_add(evicted, std::sync::atomic::Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(total, std::sync::atomic::Ordering::Relaxed);
        self.latency.apply(total as usize);
    }

    /// Remove one chunk (pinned or not). Returns whether it was resident.
    pub fn remove(&self, key: ChunkKey) -> bool {
        let mut inner = self.inner.lock();
        if let Some(old) = inner.unpinned.remove(&key) {
            inner.used_bytes -= old.len() as u64;
            true
        } else if let Some(old) = inner.pinned.remove(&key) {
            inner.used_bytes -= old.len() as u64;
            inner.pinned_bytes -= old.len() as u64;
            true
        } else {
            false
        }
    }

    /// Remove all chunks of an object with chunk number ≥ `from_chunk`.
    /// Returns the number of chunks dropped. This implements run *purging*:
    /// `from_chunk` is the first data chunk, so headers stay resident.
    pub fn remove_object_chunks(&self, handle: u64, from_chunk: u32) -> usize {
        let mut inner = self.inner.lock();
        let dropped_unpinned = inner
            .unpinned
            .drain_filter(|&(h, c), _| h == handle && c >= from_chunk);
        let mut freed: u64 = dropped_unpinned.iter().map(|(_, b)| b.len() as u64).sum();
        let mut count = dropped_unpinned.len();

        let pinned_keys: Vec<ChunkKey> = inner
            .pinned
            .keys()
            .filter(|&&(h, c)| h == handle && c >= from_chunk)
            .copied()
            .collect();
        for k in pinned_keys {
            if let Some(old) = inner.pinned.remove(&k) {
                freed += old.len() as u64;
                inner.pinned_bytes -= old.len() as u64;
                count += 1;
            }
        }
        inner.used_bytes -= freed;
        count
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used_bytes
    }

    /// Drop everything (simulated node crash: local tiers are lost).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.unpinned.clear();
        inner.pinned.clear();
        inner.used_bytes = 0;
        inner.pinned_bytes = 0;
    }

    /// Current statistics.
    pub fn stats(&self) -> TierStats {
        let inner = self.inner.lock();
        self.counters.snapshot(
            inner.used_bytes,
            inner.pinned_bytes,
            (inner.unpinned.len() + inner.pinned.len()) as u64,
        )
    }

    /// The tier's latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;
    use crate::latency::{LatencyMode, TierLatency};

    fn chunk(n: usize) -> Bytes {
        Bytes::from(vec![0xCD; n])
    }

    #[test]
    fn insert_get_roundtrip() {
        let tier = CacheTier::new(1024, LatencyModel::off());
        tier.insert((1, 0), chunk(100), false);
        assert_eq!(tier.get((1, 0)).unwrap().len(), 100);
        assert!(tier.get((1, 1)).is_none());
        let s = tier.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.used_bytes, 100);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let tier = CacheTier::new(300, LatencyModel::off());
        tier.insert((1, 0), chunk(100), false);
        tier.insert((1, 1), chunk(100), false);
        tier.insert((1, 2), chunk(100), false);
        // Touch (1,0) so (1,1) is LRU.
        tier.get((1, 0));
        tier.insert((1, 3), chunk(100), false);
        assert!(tier.contains((1, 0)));
        assert!(!tier.contains((1, 1)), "LRU chunk must have been evicted");
        assert!(tier.contains((1, 2)));
        assert!(tier.contains((1, 3)));
        assert_eq!(tier.stats().evictions, 1);
        assert!(tier.used_bytes() <= 300);
    }

    #[test]
    fn pinned_chunks_survive_pressure() {
        let tier = CacheTier::new(250, LatencyModel::off());
        tier.insert((7, 0), chunk(100), true); // header, pinned
        tier.insert((7, 1), chunk(100), false);
        tier.insert((7, 2), chunk(100), false); // forces eviction of (7,1)
        assert!(tier.contains((7, 0)), "pinned chunk must never be evicted");
        assert!(!tier.contains((7, 1)));
        assert_eq!(tier.stats().pinned_bytes, 100);
    }

    #[test]
    fn pinned_overflow_is_allowed() {
        let tier = CacheTier::new(100, LatencyModel::off());
        tier.insert((1, 0), chunk(80), true);
        tier.insert((2, 0), chunk(80), true);
        // Over capacity, but both pinned chunks are resident.
        assert!(tier.contains((1, 0)));
        assert!(tier.contains((2, 0)));
        assert_eq!(tier.used_bytes(), 160);
    }

    #[test]
    fn purge_keeps_header_chunks() {
        let tier = CacheTier::new(10_000, LatencyModel::off());
        tier.insert((3, 0), chunk(10), true); // header
        for c in 1..=5u32 {
            tier.insert((3, c), chunk(10), false);
        }
        tier.insert((4, 1), chunk(10), false); // other object untouched
        let dropped = tier.remove_object_chunks(3, 1);
        assert_eq!(dropped, 5);
        assert!(tier.contains((3, 0)));
        assert!(!tier.contains((3, 3)));
        assert!(tier.contains((4, 1)));
        assert_eq!(tier.used_bytes(), 20);
    }

    #[test]
    fn replace_same_key_accounts_bytes_once() {
        let tier = CacheTier::new(1000, LatencyModel::off());
        tier.insert((1, 0), chunk(100), false);
        tier.insert((1, 0), chunk(200), true); // replace + pin
        assert_eq!(tier.used_bytes(), 200);
        assert_eq!(tier.stats().pinned_bytes, 200);
        tier.remove((1, 0));
        assert_eq!(tier.used_bytes(), 0);
        assert_eq!(tier.stats().pinned_bytes, 0);
    }

    /// Everything a batch must leave as sequential inserts would: the
    /// unpinned chunks in LRU order, the pinned ones, and the byte totals
    /// and write counters.
    type TierImage = (Vec<(ChunkKey, usize)>, BTreeMap<ChunkKey, usize>, [u64; 5]);

    fn image(tier: &CacheTier) -> TierImage {
        let inner = tier.inner.lock();
        let lru = inner
            .unpinned
            .iter_lru()
            .map(|(k, v)| (*k, v.len()))
            .collect();
        let pinned = inner.pinned.iter().map(|(k, v)| (*k, v.len())).collect();
        drop(inner);
        let s = tier.stats();
        let totals = [
            s.used_bytes,
            s.pinned_bytes,
            s.insertions,
            s.evictions,
            s.bytes_written,
        ];
        (lru, pinned, totals)
    }

    /// A `(key, length, pinned)` item of a batch.
    type Item = (ChunkKey, usize, bool);

    /// Insert `batch` into a tier as one batch and into its twin one item
    /// at a time, both after the same `setup`. The twins must agree, and
    /// the batch must be charged once, for its total bytes (nothing when
    /// empty). Returns the batched tier.
    fn batch_vs_sequential(capacity: u64, setup: &[Item], batch: &[Item]) -> CacheTier {
        let lat = TierLatency::micros(100, 1);
        let tier = || CacheTier::new(capacity, LatencyModel::new(lat, LatencyMode::Accounting));
        let (batched, sequential) = (tier(), tier());
        for t in [&batched, &sequential] {
            for &(key, n, pinned) in setup {
                t.insert(key, chunk(n), pinned);
            }
        }
        let charged = batched.latency().charged();
        batched.insert_batch(
            batch
                .iter()
                .map(|&(key, n, pinned)| (key, chunk(n), pinned)),
        );
        for &(key, n, pinned) in batch {
            sequential.insert(key, chunk(n), pinned);
        }
        assert_eq!(
            image(&batched),
            image(&sequential),
            "{setup:?} then {batch:?}"
        );
        let total: usize = batch.iter().map(|&(_, n, _)| n).sum();
        let want = if batch.is_empty() {
            Duration::ZERO
        } else {
            lat.charge(total)
        };
        assert_eq!(batched.latency().charged() - charged, want);
        batched
    }

    #[test]
    fn batch_over_capacity_evicts_its_own_earlier_members() {
        let batch: Vec<Item> = (0..4).map(|c| ((1, c), 100, false)).collect();
        let tier = batch_vs_sequential(250, &[((2, 0), 100, false)], &batch);
        assert!(!tier.contains((2, 0)) && !tier.contains((1, 0)) && !tier.contains((1, 1)));
        assert!(tier.contains((1, 2)) && tier.contains((1, 3)));
        assert_eq!(tier.stats().evictions, 3);
    }

    #[test]
    fn batch_repeating_a_key_keeps_its_last_copy() {
        let batch = [
            ((1, 0), 100, false),
            ((1, 1), 50, false),
            ((1, 0), 30, true),
        ];
        let tier = batch_vs_sequential(1000, &[], &batch);
        assert_eq!(tier.used_bytes(), 80);
        assert_eq!(tier.stats().pinned_bytes, 30);
        assert_eq!(tier.stats().insertions, 3);
    }

    #[test]
    fn pinned_batch_overflows_capacity() {
        let batch = [((1, 0), 80, true), ((1, 1), 80, true)];
        let tier = batch_vs_sequential(100, &[((2, 0), 50, false)], &batch);
        assert!(
            !tier.contains((2, 0)),
            "the unpinned chunk makes room first"
        );
        assert_eq!(tier.used_bytes(), 160);
        assert_eq!(tier.stats().pinned_bytes, 160);
    }

    #[test]
    fn empty_batch_charges_and_counts_nothing() {
        let tier = batch_vs_sequential(1000, &[((1, 0), 10, false)], &[]);
        assert_eq!(tier.stats().insertions, 1);
    }

    /// One key from a small domain, so batches repeat keys, with a length
    /// and whether it is pinned (one in four).
    fn item() -> impl Strategy<Value = Item> {
        ((0u64..3, 0u32..6), 1usize..200, 0u8..4).prop_map(|(k, n, p)| (k, n, p == 0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn batch_insert_equals_sequential_inserts(
            capacity in 0u64..1200,
            setup in proptest::collection::vec(item(), 0..8),
            batch in proptest::collection::vec(item(), 0..12),
        ) {
            batch_vs_sequential(capacity, &setup, &batch);
        }
    }

    #[test]
    fn clear_simulates_crash() {
        let tier = CacheTier::new(1000, LatencyModel::off());
        tier.insert((1, 0), chunk(10), true);
        tier.insert((1, 1), chunk(10), false);
        tier.clear();
        assert_eq!(tier.used_bytes(), 0);
        assert!(!tier.contains((1, 0)));
    }
}
