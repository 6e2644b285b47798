//! Property tests for the decoded-block cache.
//!
//! Structural invariants must hold at any shard count: capacity is never
//! exceeded, byte accounting matches residency, and a hit always returns
//! the most recently inserted value for its key. On one shard, replacement
//! is checked exactly against a model segmented LRU.

use std::any::Any;
use std::sync::Arc;

use proptest::prelude::*;
use umzi_storage::block_cache::{MAX_SHARDS, PROTECTED_FRACTION, SHARD_BYTES};
use umzi_storage::{AccessPattern, DecodedBlockCache, DecodedCacheConfig};

/// Weights are drawn in `20..260` units of `shard_capacity / 500`: one
/// heavy block fits a shard, two usually do not.
const UNITS_PER_SHARD: u64 = 500;

fn value_of(n: u32) -> Arc<dyn Any + Send + Sync> {
    Arc::new(n)
}

fn pattern_of(op: u8) -> AccessPattern {
    match op % 3 {
        0 => AccessPattern::PointLookup,
        1 => AccessPattern::RangeScan,
        _ => AccessPattern::Maintenance,
    }
}

type Key = (u64, u32);

/// A segment as a byte-weighted LRU list, least recently used first.
type Segment = Vec<(Key, u64)>;

fn take(seg: &mut Segment, key: Key) -> Option<u64> {
    let i = seg.iter().position(|&(k, _)| k == key)?;
    Some(seg.remove(i).1)
}

fn bytes(seg: &Segment) -> u64 {
    seg.iter().map(|&(_, w)| w).sum()
}

/// The segmented LRU the cache documents, for one shard of `cap` bytes.
struct Model {
    cap: u64,
    protected_cap: u64,
    probation: Segment,
    protected: Segment,
}

impl Model {
    /// Overflow demotes the protected tail to probation's most recent end.
    fn rebalance(&mut self) {
        while bytes(&self.protected) > self.protected_cap {
            let tail = self.protected.remove(0);
            self.probation.push(tail);
        }
    }

    /// A point re-touch promotes; any other touch refreshes in place.
    fn get(&mut self, key: Key, pattern: AccessPattern) -> bool {
        if let Some(w) = take(&mut self.protected, key) {
            self.protected.push((key, w));
        } else if let Some(w) = take(&mut self.probation, key) {
            if pattern == AccessPattern::PointLookup {
                self.protected.push((key, w));
                self.rebalance();
            } else {
                self.probation.push((key, w));
            }
        } else {
            return false;
        }
        true
    }

    /// Resident keys are replaced in their segment; new keys enter
    /// probation unless bypassed; then tails go, probation's first.
    fn insert(&mut self, key: Key, w: u64, pattern: AccessPattern) {
        if w > self.cap {
            return;
        }
        if take(&mut self.protected, key).is_some() {
            self.protected.push((key, w));
            self.rebalance();
        } else if take(&mut self.probation, key).is_some() || pattern != AccessPattern::Maintenance
        {
            self.probation.push((key, w));
        }
        while bytes(&self.probation) + bytes(&self.protected) > self.cap {
            let seg = if self.probation.is_empty() {
                &mut self.protected
            } else {
                &mut self.probation
            };
            seg.remove(0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Capacity never exceeded, accounting consistent, hits return the
    /// latest value, and the two segments sum to the total — at a capacity
    /// that derives one shard (every key contends) and at one that derives
    /// the most shards.
    #[test]
    fn scan_resistant_structural_invariants(
        ops in proptest::collection::vec(
            (0u8..6, 0u32..24, 20u64..260), 1..200),
    ) {
        let most = MAX_SHARDS as u64;
        for (capacity, shards) in [(SHARD_BYTES, 1), (SHARD_BYTES * most, most)] {
            let unit = capacity / shards / UNITS_PER_SHARD;
            let cache = DecodedBlockCache::new(DecodedCacheConfig { capacity_bytes: capacity });
            let mut latest: std::collections::HashMap<(u64, u32), u32> = Default::default();
            for (i, &(op, key, weight)) in ops.iter().enumerate() {
                let (key, weight) = ((3, key), weight * unit);
                let pattern = pattern_of(op);
                if op < 3 {
                    cache.insert(key, value_of(i as u32), weight, pattern);
                    // The insert may be bypassed; only a *resident* key
                    // is guaranteed to carry the new value.
                    if cache.contains(key) {
                        latest.insert(key, i as u32);
                    } else {
                        latest.remove(&key);
                    }
                } else if let Some(v) = cache.get(key, pattern) {
                    let got = *v.downcast::<u32>().expect("u32 payload");
                    prop_assert_eq!(Some(&got), latest.get(&key),
                        "hit on {:?} returned a stale value at op {}", key, i);
                }
                let s = cache.stats();
                prop_assert!(s.used_bytes <= capacity, "over capacity at op {}: {:?}", i, s);
                prop_assert_eq!(s.used_bytes, s.probation_bytes + s.protected_bytes);
                // Eviction may drop any entry; prune the shadow map accordingly.
                latest.retain(|k, _| cache.contains(*k));
            }
        }
    }

    /// On one shard, every op leaves each segment holding exactly the
    /// model's keys in the model's recency order, with the model's bytes,
    /// and every get hits exactly when the model's does.
    #[test]
    fn one_shard_matches_model_segmented_lru(
        ops in proptest::collection::vec(
            (0u8..6, 0u32..24, 20u64..260), 1..200),
    ) {
        let cap = SHARD_BYTES;
        let unit = cap / UNITS_PER_SHARD;
        let cache = DecodedBlockCache::new(DecodedCacheConfig { capacity_bytes: cap });
        let mut model = Model {
            cap,
            protected_cap: (cap as f64 * PROTECTED_FRACTION) as u64,
            probation: Vec::new(),
            protected: Vec::new(),
        };
        for (i, &(op, key, weight)) in ops.iter().enumerate() {
            let (key, weight, pattern) = ((3, key), weight * unit, pattern_of(op));
            if op < 3 {
                cache.insert(key, value_of(i as u32), weight, pattern);
                model.insert(key, weight, pattern);
            } else {
                let hit = cache.get(key, pattern).is_some();
                prop_assert_eq!(hit, model.get(key, pattern), "get of {:?} at op {}", key, i);
            }
            let keys = |seg: &Segment| seg.iter().map(|&(k, _)| k).collect::<Vec<_>>();
            let (probation, protected) = cache.segment_keys();
            prop_assert_eq!(probation, keys(&model.probation), "probation at op {}", i);
            prop_assert_eq!(protected, keys(&model.protected), "protected at op {}", i);
            let s = cache.stats();
            prop_assert_eq!(s.probation_bytes, bytes(&model.probation), "op {}", i);
            prop_assert_eq!(s.protected_bytes, bytes(&model.protected), "op {}", i);
        }
    }
}
