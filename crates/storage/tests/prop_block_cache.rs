//! Property tests for the decoded-block cache.
//!
//! Admission and promotion may reorder and reject, but structural
//! invariants must hold: capacity is never exceeded, byte accounting
//! matches residency, and a hit always returns the most recently inserted
//! value for its key.

use std::any::Any;
use std::sync::Arc;

use proptest::prelude::*;
use umzi_storage::{AccessPattern, DecodedBlockCache, DecodedCacheConfig};

/// Per-shard capacity: one heavy block fits, two usually do not.
const SHARD_CAPACITY: u64 = 500;

fn value_of(n: u32) -> Arc<dyn Any + Send + Sync> {
    Arc::new(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Capacity never exceeded, accounting consistent, hits return the
    /// latest value, and the two segments sum to the total — on one shard
    /// (every key contends) and at the default shard count.
    #[test]
    fn scan_resistant_structural_invariants(
        ops in proptest::collection::vec(
            (0u8..6, 0u32..24, 20u64..260), 1..200),
    ) {
        for shards in [1, DecodedCacheConfig::default().shards] {
            let capacity = SHARD_CAPACITY * shards as u64;
            let cache = DecodedBlockCache::with_capacity(capacity, shards);
            let mut latest: std::collections::HashMap<(u64, u32), u32> = Default::default();
            for (i, &(op, key, weight)) in ops.iter().enumerate() {
                let key = (3, key);
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
