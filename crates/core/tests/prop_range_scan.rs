//! A cold range scan answers exactly as the same scan over resident runs
//! does, over a hierarchy too small to hold what it stages.
//!
//! Before positioning, `range_scan` stages every candidate run's bound
//! blocks — from the block its lower bound lands in through the block its
//! upper bound lands in, at most `READAHEAD_DEPTH` per run — in one round.
//! Here the RAM and SSD tiers together hold fewer chunks than one run's
//! window (the RAM budget has no decoded share), so a staged chunk is often evicted
//! before positioning or the iterator reads it, and the read falls back to
//! a demand fetch. Staging is advisory: the rows must not notice. The
//! bounds include empty ranges, bounds on a fence key's columns and
//! unbounded sides, over an index with equality columns (whose unbounded
//! upper side is the equality prefix's successor) and one without (whose
//! unbounded upper side is no bound at all).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use umzi_core::{MergePolicy, RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, Rid, SortBound, ZoneId};
use umzi_storage::{
    DecodedCacheConfig, SharedStorage, TieredConfig, TieredStorage, READAHEAD_DEPTH,
};

const CHUNK: usize = 256;
/// Chunks the RAM tier of the cold hierarchy holds, and as many again
/// its SSD tier.
const TIER_CHUNKS: u64 = 4;

/// Snapshot-timestamp span of one run: run `r` holds the versions of
/// `beginTS` in `r * TS_SPAN + 1 .. (r + 1) * TS_SPAN`, so a newer run
/// holds newer versions, as groomed runs do, and the set reconcile's
/// newest-run-first rule holds.
const TS_SPAN: u64 = 40;

/// One `(device, msg, beginTS - r * TS_SPAN)` version per element of run
/// `r`.
type RawRuns = Vec<Vec<(i64, i64, u64)>>;

/// The index's key columns for `(device, msg)`: device is the equality
/// column of a hashed index and the leading sort column otherwise.
fn columns(hashed: bool, d: i64, m: i64) -> (Vec<Datum>, Vec<Datum>) {
    let (d, m) = (Datum::Int64(d), Datum::Int64(m));
    if hashed {
        (vec![d], vec![m])
    } else {
        (Vec::new(), vec![d, m])
    }
}

/// One level-0 run per element of `raw_runs`, oldest first (duplicates
/// collapse). `cold` picks the hierarchy: RAM and SSD tiers of
/// `2 * TIER_CHUNKS` chunks in all, or the default one, which keeps
/// every run resident.
fn fixture(raw_runs: &RawRuns, hashed: bool, cold: bool) -> (Arc<TieredStorage>, Arc<UmziIndex>) {
    let config = if cold {
        TieredConfig {
            chunk_size: CHUNK,
            mem_capacity: TIER_CHUNKS * CHUNK as u64,
            ssd_capacity: TIER_CHUNKS * CHUNK as u64,
            decoded_cache: DecodedCacheConfig { capacity_bytes: 0 },
            ..TieredConfig::default()
        }
    } else {
        TieredConfig {
            chunk_size: CHUNK,
            ..TieredConfig::default()
        }
    };
    let storage = Arc::new(TieredStorage::new(SharedStorage::in_memory(), config));
    let builder = IndexDef::builder("t");
    let builder = if hashed {
        builder.equality("device", ColumnType::Int64)
    } else {
        builder.sort("device", ColumnType::Int64)
    };
    let def = Arc::new(builder.sort("msg", ColumnType::Int64).build().unwrap());
    let mut config = UmziConfig::two_zone("prop-scan");
    // The run structure is the experiment: nothing merges.
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    let index = UmziIndex::create(Arc::clone(&storage), def, config).unwrap();
    for (r, versions) in raw_runs.iter().enumerate() {
        let block = r as u64 + 1;
        let entries: Vec<IndexEntry> = versions
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|&(d, m, ts)| {
                let (eq, sort) = columns(hashed, d, m);
                IndexEntry::new(
                    index.layout(),
                    &eq,
                    &sort,
                    r as u64 * TS_SPAN + ts,
                    Rid::new(ZoneId::GROOMED, block, (d * 64 + m) as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        index.build_groomed_run(entries, block, block).unwrap();
    }
    (storage, index)
}

/// One side of a scan: `kind` 0 is unbounded, 1 includes and 2 excludes
/// the message `m` (of the scanned device, for an index without equality
/// columns).
fn bound(hashed: bool, d: i64, (kind, m): (u8, i64)) -> SortBound {
    let values = columns(hashed, d, m).1;
    match kind {
        0 => SortBound::Unbounded,
        1 => SortBound::Included(values),
        _ => SortBound::Excluded(values),
    }
}

/// The `(device, msg)` of fence `pick` of one of `index`'s runs, both
/// picked modulo their count.
fn fence_columns(index: &UmziIndex, pick: usize) -> (i64, i64) {
    let runs = index.candidate_runs();
    let run = &runs[pick % runs.len()];
    let fences = run.fence_keys().unwrap();
    let fence = &fences[(pick / runs.len()) % fences.len()];
    let cols = index.layout().decode_key_columns(fence).unwrap();
    (cols[0].as_i64().unwrap(), cols[1].as_i64().unwrap())
}

type Row = (Vec<u8>, u64, Vec<u8>);

fn scan(index: &UmziIndex, query: &RangeQuery, strategy: ReconcileStrategy) -> Vec<Row> {
    index
        .range_scan(query, strategy)
        .unwrap()
        .into_iter()
        .map(|o| (o.key.to_vec(), o.begin_ts, o.value.to_vec()))
        .collect()
}

fn purge_all(storage: &TieredStorage, index: &UmziIndex) {
    for run in index.candidate_runs() {
        storage.purge_object(run.handle()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random bounds at random snapshots: each is scanned as given,
    /// reversed (empty unless a side is unbounded or they meet), with the
    /// lower side moved onto a fence key's columns, and unbounded on both
    /// sides. The cold scan's rows, under either reconcile strategy, are
    /// the resident scan's.
    #[test]
    fn cold_range_scan_equals_resident_range_scan(
        raw_runs in vec(vec((0i64..4, 0i64..64, 1..TS_SPAN), 20..300), 1..5),
        hashed in any::<bool>(),
        queries in vec(
            ((0i64..5, 0u64..5 * TS_SPAN), (0u8..3, 0i64..70), (0u8..3, 0i64..70), 0usize..1000),
            1..5,
        ),
    ) {
        prop_assert!(2 * TIER_CHUNKS < u64::from(READAHEAD_DEPTH));
        let (cold_storage, cold) = fixture(&raw_runs, hashed, true);
        let (_, resident) = fixture(&raw_runs, hashed, false);
        for ((d, query_ts), lo, hi, pick) in queries {
            let (fence_d, fence_m) = fence_columns(&cold, pick);
            let equality = |d: i64| columns(hashed, d, 0).0;
            let shapes = [
                (d, bound(hashed, d, lo), bound(hashed, d, hi)),
                (d, bound(hashed, d, hi), bound(hashed, d, lo)),
                (
                    fence_d,
                    bound(hashed, fence_d, (1 + lo.0 % 2, fence_m)),
                    bound(hashed, fence_d, hi),
                ),
                (d, SortBound::Unbounded, SortBound::Unbounded),
            ];
            for (d, lower, upper) in shapes {
                let query = RangeQuery {
                    equality: equality(d),
                    lower,
                    upper,
                    query_ts,
                };
                let want = scan(&resident, &query, ReconcileStrategy::PriorityQueue);
                for strategy in [ReconcileStrategy::Set, ReconcileStrategy::PriorityQueue] {
                    purge_all(&cold_storage, &cold);
                    prop_assert_eq!(&scan(&cold, &query, strategy), &want, "{:?} {:?}", query, strategy);
                }
            }
        }
    }
}
