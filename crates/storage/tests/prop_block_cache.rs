//! Property tests for the RAM tier.
//!
//! Structural invariants must hold at any shard count: capacity is never
//! exceeded, byte accounting matches residency, a block read hits exactly
//! the resident verified chunks, and a hit always returns the bytes of the
//! last operation that stored its key. On one shard, replacement is checked
//! exactly against a model segmented LRU whose entries carry the verified
//! bit: a landing enters probation unverified and never promotes, and a
//! block read misses it until a verify marks it.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use proptest::prelude::*;
use umzi_storage::block_cache::{MAX_SHARDS, PROTECTED_FRACTION, SHARD_BYTES};
use umzi_storage::{AccessPattern, RamTier};

/// Weights are drawn in `20..260` units of `shard_capacity / 500`: one
/// heavy block fits a shard, two usually do not.
const UNITS_PER_SHARD: u64 = 500;

/// Operations: `0..3` verify, `3..6` block read (verified lookup), `6`
/// landing, `7` chunk read (any entry); the pattern is `op % 3`.
const OPS: u8 = 8;

fn pattern_of(op: u8) -> AccessPattern {
    match op % 3 {
        0 => AccessPattern::PointLookup,
        1 => AccessPattern::RangeScan,
        _ => AccessPattern::Maintenance,
    }
}

/// Chunk bytes that name the operation that made them: op `i`'s chunk of
/// `w` bytes is `pool[i..i + w]`, so a hit's start offset is its op.
struct Values(Bytes);

impl Values {
    fn new(max_weight: u64, ops: usize) -> Self {
        Self(Bytes::from(vec![0u8; max_weight as usize + ops]))
    }

    fn of(&self, i: usize, w: u64) -> Bytes {
        self.0.slice(i..i + w as usize)
    }

    fn op_of(&self, b: &Bytes) -> usize {
        b.as_ptr() as usize - self.0.as_ptr() as usize
    }
}

type Key = (u64, u32);

/// A segment as a byte-weighted LRU list of `(key, weight, verified)`,
/// least recently used first.
type Segment = Vec<(Key, u64, bool)>;

fn take(seg: &mut Segment, key: Key) -> Option<(u64, bool)> {
    let i = seg.iter().position(|&(k, _, _)| k == key)?;
    let (_, w, v) = seg.remove(i);
    Some((w, v))
}

fn bytes(seg: &Segment, verified_only: bool) -> u64 {
    let counted = seg.iter().filter(|&&(_, _, v)| v || !verified_only);
    counted.map(|&(_, w, _)| w).sum()
}

/// The segmented LRU the tier documents, for one shard of `cap` bytes.
struct Model {
    cap: u64,
    protected_cap: u64,
    probation: Segment,
    protected: Segment,
}

impl Model {
    fn resident(&self, key: Key) -> bool {
        let has = |seg: &Segment| seg.iter().any(|&(k, _, _)| k == key);
        has(&self.probation) || has(&self.protected)
    }

    /// Overflow demotes the protected tail to probation's most recent end.
    fn rebalance(&mut self) {
        while bytes(&self.protected, false) > self.protected_cap {
            let tail = self.protected.remove(0);
            self.probation.push(tail);
        }
    }

    /// Tails go, probation's first, until the shard fits.
    fn evict(&mut self) {
        while bytes(&self.probation, false) + bytes(&self.protected, false) > self.cap {
            let seg = if self.probation.is_empty() {
                &mut self.protected
            } else {
                &mut self.probation
            };
            seg.remove(0);
        }
    }

    /// A block read: hits only a verified entry. A point re-touch
    /// promotes; any other hit refreshes in place; a miss changes nothing.
    fn get(&mut self, key: Key, pattern: AccessPattern) -> bool {
        if let Some((w, v)) = take(&mut self.protected, key) {
            self.protected.push((key, w, v));
            return true;
        }
        if !self.probation.iter().any(|&(k, _, v)| k == key && v) {
            return false;
        }
        let (w, v) = take(&mut self.probation, key).expect("verified entry");
        if pattern == AccessPattern::PointLookup {
            self.protected.push((key, w, v));
            self.rebalance();
        } else {
            self.probation.push((key, w, v));
        }
        true
    }

    /// A chunk read: hits any entry and refreshes it in its segment.
    fn read(&mut self, key: Key) -> bool {
        for seg in [&mut self.protected, &mut self.probation] {
            if let Some((w, v)) = take(seg, key) {
                seg.push((key, w, v));
                return true;
            }
        }
        false
    }

    /// A landing enters probation unverified, unless the key is resident.
    fn land(&mut self, key: Key, w: u64) {
        if w > self.cap || self.resident(key) {
            return;
        }
        self.probation.push((key, w, false));
        self.evict();
    }

    /// A verified entry is replaced in its segment; otherwise the key is
    /// admitted to probation unless the read is maintenance traffic.
    fn verify(&mut self, key: Key, w: u64, pattern: AccessPattern) {
        if w > self.cap {
            return;
        }
        if take(&mut self.protected, key).is_some() {
            self.protected.push((key, w, true));
            self.rebalance();
        } else if self.probation.iter().any(|&(k, _, v)| k == key && v) {
            take(&mut self.probation, key);
            self.probation.push((key, w, true));
        } else if pattern == AccessPattern::Maintenance {
            return;
        } else {
            take(&mut self.probation, key);
            self.probation.push((key, w, true));
        }
        self.evict();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Capacity never exceeded, accounting consistent, block reads hit
    /// exactly the resident verified keys, and hits return the latest
    /// stored bytes — at a capacity that derives one shard (every key
    /// contends) and at one that derives the most shards.
    #[test]
    fn scan_resistant_structural_invariants(
        ops in proptest::collection::vec((0u8..OPS, 0u32..24, 20u64..260), 1..200),
    ) {
        let most = MAX_SHARDS as u64;
        for (capacity, shards) in [(SHARD_BYTES, 1), (SHARD_BYTES * most, most)] {
            let shard_cap = capacity / shards;
            let unit = shard_cap / UNITS_PER_SHARD;
            let values = Values::new(260 * unit, ops.len());
            let tier = RamTier::new(0, capacity);
            let mut latest: HashMap<Key, usize> = HashMap::new();
            let mut verified: HashSet<Key> = HashSet::new();
            for (i, &(op, key, weight)) in ops.iter().enumerate() {
                let (key, weight, pattern) = ((3, key), weight * unit, pattern_of(op));
                let fits = weight <= shard_cap;
                let stored = match op {
                    0..=2 => {
                        let stores = fits
                            && (pattern != AccessPattern::Maintenance || verified.contains(&key));
                        tier.verify(key, values.of(i, weight), pattern);
                        if stores {
                            verified.insert(key);
                        }
                        stores
                    }
                    3..=5 => {
                        let hit = tier.get(key, pattern);
                        prop_assert_eq!(hit.is_some(), verified.contains(&key),
                            "block read of {:?} at op {}", key, i);
                        if let Some(v) = hit {
                            prop_assert_eq!(Some(&values.op_of(&v)), latest.get(&key),
                                "block read of {:?} returned stale bytes at op {}", key, i);
                        }
                        false
                    }
                    6 => {
                        let stores = fits && !tier.contains(key);
                        tier.land(key, values.of(i, weight));
                        stores
                    }
                    _ => {
                        if let Some(v) = tier.read(key) {
                            prop_assert_eq!(Some(&values.op_of(&v)), latest.get(&key),
                                "chunk read of {:?} returned stale bytes at op {}", key, i);
                        }
                        false
                    }
                };
                if stored {
                    latest.insert(key, i);
                }
                // Eviction may drop any entry; prune the shadows accordingly.
                latest.retain(|k, _| tier.contains(*k));
                verified.retain(|k| tier.contains(*k));
                let (mem, dec) = tier.stats();
                prop_assert!(mem.used_bytes <= capacity, "over capacity at op {}: {:?}", i, mem);
                prop_assert_eq!(mem.entries, latest.len() as u64, "op {}", i);
                prop_assert_eq!(dec.entries, verified.len() as u64, "op {}", i);
                prop_assert_eq!(dec.used_bytes, dec.probation_bytes + dec.protected_bytes);
                prop_assert!(dec.used_bytes <= mem.used_bytes, "op {}", i);
            }
        }
    }

    /// On one shard, every op leaves each segment holding exactly the
    /// model's keys, verified bits and recency order, with the model's
    /// bytes, and every read hits exactly when the model's does.
    #[test]
    fn one_shard_matches_model_segmented_lru(
        ops in proptest::collection::vec((0u8..OPS, 0u32..24, 20u64..260), 1..200),
    ) {
        let cap = SHARD_BYTES;
        let unit = cap / UNITS_PER_SHARD;
        let values = Values::new(260 * unit, ops.len());
        let tier = RamTier::new(0, cap);
        let mut model = Model {
            cap,
            protected_cap: (cap as f64 * PROTECTED_FRACTION) as u64,
            probation: Vec::new(),
            protected: Vec::new(),
        };
        for (i, &(op, key, weight)) in ops.iter().enumerate() {
            let (key, weight, pattern) = ((3, key), weight * unit, pattern_of(op));
            match op {
                0..=2 => {
                    tier.verify(key, values.of(i, weight), pattern);
                    model.verify(key, weight, pattern);
                }
                3..=5 => {
                    let hit = tier.get(key, pattern).is_some();
                    prop_assert_eq!(hit, model.get(key, pattern), "get of {:?} at op {}", key, i);
                }
                6 => {
                    tier.land(key, values.of(i, weight));
                    model.land(key, weight);
                }
                _ => {
                    let hit = tier.read(key).is_some();
                    prop_assert_eq!(hit, model.read(key), "read of {:?} at op {}", key, i);
                }
            }
            let (probation, protected) = tier.segment_keys();
            let want = model.probation.iter().map(|&(k, _, v)| (k, v)).collect::<Vec<_>>();
            prop_assert_eq!(probation, want, "probation at op {}", i);
            let want = model.protected.iter().map(|&(k, _, _)| k).collect::<Vec<_>>();
            prop_assert_eq!(protected, want, "protected at op {}", i);
            let (mem, dec) = tier.stats();
            let total = bytes(&model.probation, false) + bytes(&model.protected, false);
            prop_assert_eq!(mem.used_bytes, total, "op {}", i);
            prop_assert_eq!(dec.probation_bytes, bytes(&model.probation, true), "op {}", i);
            prop_assert_eq!(dec.protected_bytes, bytes(&model.protected, true), "op {}", i);
        }
    }
}
