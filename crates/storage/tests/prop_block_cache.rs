//! Property tests for the decoded-block cache.
//!
//! Admission and promotion may reorder and reject, but structural
//! invariants must hold: capacity is never exceeded, byte accounting
//! matches residency, and a hit always returns the most recently inserted
//! value for its key.

use std::any::Any;
use std::sync::Arc;

use proptest::prelude::*;
use umzi_storage::block_cache::{MAX_SHARDS, SHARD_BYTES};
use umzi_storage::{AccessPattern, DecodedBlockCache, DecodedCacheConfig};

/// Weights are drawn in `20..260` units of `shard_capacity / 500`: one
/// heavy block fits a shard, two usually do not.
const UNITS_PER_SHARD: u64 = 500;

fn value_of(n: u32) -> Arc<dyn Any + Send + Sync> {
    Arc::new(n)
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
                let pattern = match op % 3 {
                    0 => AccessPattern::PointLookup,
                    1 => AccessPattern::RangeScan,
                    _ => AccessPattern::Maintenance,
                };
                if op < 3 {
                    cache.insert(key, value_of(i as u32), weight, pattern);
                    // The insert may be rejected/bypassed; only a *resident* key
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
}
