//! Scan-washout regression test (the HTAP interference problem).
//!
//! Scenario: a point-lookup working set is warmed into the RAM tier as
//! verified blocks, then a full-table analytical scan sweeps through. The warmed
//! working set sits in the protected segment and must keep hitting
//! afterwards, both after a sweep of ≥ 4× the cache capacity and after one
//! of ≥ 32× (over 8 MiB): probation-only scan admission alone holds
//! however long the sweep. The negative control runs the
//! identical scenario with the cache disabled and must score zero, so the
//! measure cannot pass by counting something other than cache residency.

use std::sync::Arc;

use umzi_core::{RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, Rid, SortBound, ZoneId};
use umzi_storage::{DecodedCacheConfig, SharedStorage, TieredConfig, TieredStorage};

/// RAM-tier capacity for the experiment (it derives one shard).
const CACHE_BYTES: u64 = 256 << 10;
/// Entries per run; two runs make the dataset ≥ 4× the cache.
const PER_RUN: i64 = 16_000;
/// Hot point-lookup keys (each maps to one or two distinct blocks).
const HOT_KEYS: i64 = 8;

/// One-device dataset (all keys share the hash bucket, like an analytical
/// fact table): `runs` full-range runs, newest first.
fn build_index(name: &str, cache_bytes: u64, runs: u64) -> Arc<UmziIndex> {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            // The RAM tier is the cache alone.
            mem_capacity: 0,
            decoded_cache: DecodedCacheConfig {
                capacity_bytes: cache_bytes,
            },
            ..TieredConfig::default()
        },
    ));
    let def = Arc::new(
        IndexDef::builder("washout")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap(),
    );
    let idx = UmziIndex::create(storage, def, UmziConfig::two_zone(name)).unwrap();
    for r in 0..runs {
        let entries: Vec<IndexEntry> = (0..PER_RUN)
            .map(|m| {
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(0)],
                    &[Datum::Int64(m)],
                    10 + r,
                    Rid::new(ZoneId::GROOMED, r + 1, m as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        idx.build_groomed_run(entries, r + 1, r + 1).unwrap();
    }
    idx
}

fn hot_keys() -> Vec<(Vec<Datum>, Vec<Datum>)> {
    (0..HOT_KEYS)
        .map(|j| {
            (
                vec![Datum::Int64(0)],
                vec![Datum::Int64(j * (PER_RUN / HOT_KEYS))],
            )
        })
        .collect()
}

/// Run the warm → scan → re-measure scenario, returning the post-scan
/// point-lookup hit rate at *lookup granularity* — a lookup counts as a hit
/// only when verified RAM entries serve it entirely (zero chunk reads) — and
/// the block bytes the scan decoded. Per-access counters would flatter the
/// washed-out cache — the first miss of a lookup re-warms the block for its
/// own later touches — so this is the honest measure of "did the warmed
/// working set survive".
fn post_scan_point_hit_rate(idx: &UmziIndex) -> (f64, u64) {
    let hot = hot_keys();
    // Warm: repeated passes promote the working set (second touch moves a
    // block from probation into the protected segment).
    for _ in 0..3 {
        for (eq, sort) in &hot {
            idx.point_lookup(eq, sort, u64::MAX).unwrap().unwrap();
        }
    }
    // The analytical sweep: a full-table scan over every run.
    let decoded0 = idx.storage().mem_tier().decoded_bytes();
    let scanned = idx
        .range_scan(
            &RangeQuery {
                equality: vec![Datum::Int64(0)],
                lower: SortBound::Unbounded,
                upper: SortBound::Unbounded,
                query_ts: u64::MAX,
            },
            ReconcileStrategy::PriorityQueue,
        )
        .unwrap();
    assert_eq!(scanned.len() as i64, PER_RUN, "scan must cover the table");
    let streamed = idx.storage().mem_tier().decoded_bytes() - decoded0;

    // Re-measure the warmed lookups.
    let mut served_cached = 0;
    for (eq, sort) in &hot {
        let before = idx.storage().stats().chunk_reads;
        idx.point_lookup(eq, sort, u64::MAX).unwrap().unwrap();
        if idx.storage().stats().chunk_reads == before {
            served_cached += 1;
        }
    }
    (served_cached as f64 / hot.len() as f64, streamed)
}

#[test]
fn scan_resistant_cache_survives_full_table_scan() {
    // (runs, sweep size in cache capacities).
    for (runs, sweep) in [(2, 4), (12, 32)] {
        let sr = build_index("washout-sr", CACHE_BYTES, runs);
        let (sr_rate, streamed) = post_scan_point_hit_rate(&sr);
        let (off_rate, _) = post_scan_point_hit_rate(&build_index("washout-off", 0, runs));
        eprintln!(
            "{runs} runs, sweep of {streamed} B: post-scan point hit rate \
             scan-resistant {sr_rate:.3}, cache off {off_rate:.3}"
        );
        assert!(
            streamed >= sweep * CACHE_BYTES,
            "the sweep must stream ≥ {sweep}× the cache: {streamed} B"
        );

        // The warmed working set stays essentially resident.
        assert!(
            sr_rate >= 0.6,
            "warmed working set must survive the scan: hit rate {sr_rate:.3}"
        );
        // Negative control: without a RAM tier every lookup reads chunks.
        assert_eq!(off_rate, 0.0, "a disabled cache cannot serve lookups");

        // The scan itself must have been admitted probation-only: the
        // protected segment still holds (only) the point working set.
        let d = sr.storage().stats().decoded;
        assert!(
            d.protected_bytes <= (CACHE_BYTES as f64 * 0.8) as u64,
            "protected segment exceeded its cap: {d:?}"
        );
        assert!(d.scan.hits + d.scan.misses > 0, "scan traffic was labelled");
        assert!(d.point.hits > 0, "lookups were labelled point traffic");
    }
}
