//! A batch lookup answers every key exactly as a point lookup of that key
//! does, over cold runs and a hierarchy too small to hold what it stages.
//!
//! `batch_lookup` cuts each run's sorted probes into claims of up to
//! `READAHEAD_DEPTH` target blocks and stages a claim's blocks in one
//! batched read; `point_lookup` searches run by run with its own staging.
//! Here the memory and SSD tiers together hold fewer chunks than one claim
//! window and the decoded cache is off, so a staged chunk can be evicted
//! before its probe reaches it and the probe falls back to a demand fetch.
//! Staging is advisory: the answers must not notice.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use umzi_core::{MergePolicy, QueryOutput, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, Rid, ZoneId};
use umzi_storage::{
    DecodedCacheConfig, SharedStorage, TieredConfig, TieredStorage, READAHEAD_DEPTH,
};

const CHUNK: usize = 256;
/// Chunks the memory tier holds, and as many again the SSD tier.
const TIER_CHUNKS: u64 = 4;

/// One level-0 run per element of `raw_runs`, run `r` holding its
/// `(device, msg, beginTS)` versions (duplicates collapse), over a
/// hierarchy whose chunk tiers hold `2 * TIER_CHUNKS` chunks in all.
fn fixture(raw_runs: &[Vec<(i64, i64, u64)>]) -> (Arc<TieredStorage>, Arc<UmziIndex>) {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            chunk_size: CHUNK,
            mem_capacity: TIER_CHUNKS * CHUNK as u64,
            ssd_capacity: TIER_CHUNKS * CHUNK as u64,
            decoded_cache: DecodedCacheConfig { capacity_bytes: 0 },
            ..TieredConfig::default()
        },
    ));
    let def = Arc::new(
        IndexDef::builder("t")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap(),
    );
    let mut config = UmziConfig::two_zone("prop-batch");
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
                IndexEntry::new(
                    index.layout(),
                    &[Datum::Int64(d)],
                    &[Datum::Int64(m)],
                    ts,
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

fn purge_all(storage: &TieredStorage, index: &UmziIndex) {
    for run in index.candidate_runs() {
        storage.purge_object(run.handle()).unwrap();
    }
}

type Answer = Option<(Vec<u8>, u64, Vec<u8>)>;

fn answer(o: Option<QueryOutput>) -> Answer {
    o.map(|o| (o.key.to_vec(), o.begin_ts, o.value.to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random key sets — absent keys and duplicates included — at a random
    /// snapshot: the cold batch's answer for every key is the cold point
    /// lookup's.
    #[test]
    fn cold_batch_lookup_equals_point_lookups(
        raw_runs in vec(vec((0i64..4, 0i64..64, 1u64..40), 20..300), 1..5),
        probes in vec((0i64..5, 0i64..70), 1..200),
        query_ts in 0u64..45,
    ) {
        prop_assert!(2 * TIER_CHUNKS < u64::from(READAHEAD_DEPTH));
        let (storage, index) = fixture(&raw_runs);
        let keys: Vec<(Vec<Datum>, Vec<Datum>)> = probes
            .iter()
            .map(|&(d, m)| (vec![Datum::Int64(d)], vec![Datum::Int64(m)]))
            .collect();

        purge_all(&storage, &index);
        let batch: Vec<Answer> = index
            .batch_lookup(&keys, query_ts)
            .unwrap()
            .into_iter()
            .map(answer)
            .collect();

        purge_all(&storage, &index);
        let points: Vec<Answer> = keys
            .iter()
            .map(|(eq, sort)| answer(index.point_lookup(eq, sort, query_ts).unwrap()))
            .collect();
        prop_assert_eq!(batch, points);
    }
}
