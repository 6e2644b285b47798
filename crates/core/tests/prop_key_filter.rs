//! Every run's key filter passes every key the run holds: no false
//! negatives, whichever path built the run — groom, merge or evolve — and
//! after the filter's round trip through the run header on recovery. A
//! filter that dropped a key would turn a present key into a silent miss,
//! so the lookups are checked against a model as well.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use umzi_core::{EvolveNotice, MergePolicy, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, KeyLayout, ProbeKey, Rid, ZoneId};
use umzi_storage::{SharedStorage, TieredConfig, TieredStorage};

/// A `(device, msg, beginTS)` version.
type Version = (i64, i64, u64);

fn def() -> Arc<IndexDef> {
    Arc::new(
        IndexDef::builder("filter")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap(),
    )
}

fn config() -> UmziConfig {
    let mut config = UmziConfig::two_zone("prop-filter");
    // Merge early and often: two sealed runs per level.
    config.merge = MergePolicy { k: 2, t: 2 };
    config
}

fn entry(index: &UmziIndex, zone: ZoneId, block: u64, (d, m, ts): Version) -> IndexEntry {
    IndexEntry::new(
        index.layout(),
        &[Datum::Int64(d)],
        &[Datum::Int64(m)],
        ts,
        Rid::new(zone, block, (d * 64 + m) as u32),
        &[],
    )
    .unwrap()
}

/// Every entry of every live run passes that run's filter. Returns how
/// many entries were checked.
fn assert_no_false_negatives(index: &UmziIndex, when: &str) -> u64 {
    let mut checked = 0;
    for run in index.candidate_runs() {
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            let key = ProbeKey::new(KeyLayout::logical_key(&e.key));
            assert!(
                run.may_hold(&key),
                "{when}: run {} rejects its own entry {ord}",
                run.name()
            );
            checked += 1;
        }
    }
    checked
}

/// Every modelled key answers with its newest version at or below
/// `query_ts`, through point and batch lookups alike.
fn assert_lookups(
    index: &UmziIndex,
    model: &BTreeMap<(i64, i64), BTreeSet<u64>>,
    query_ts: u64,
    when: &str,
) {
    let keys: Vec<(Vec<Datum>, Vec<Datum>)> = model
        .keys()
        .map(|&(d, m)| (vec![Datum::Int64(d)], vec![Datum::Int64(m)]))
        .collect();
    let batch = index.batch_lookup(&keys, query_ts).unwrap();
    for ((versions, (eq, sort)), batched) in model.values().zip(&keys).zip(batch) {
        let want = versions.range(..=query_ts).next_back().copied();
        let got = index.point_lookup(eq, sort, query_ts).unwrap();
        assert_eq!(got.map(|o| o.begin_ts), want, "{when}: {sort:?}");
        assert_eq!(batched.map(|o| o.begin_ts), want, "{when}: batch {sort:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Groom batches of random versions, merge, evolve a prefix of the
    /// groomed blocks, and recover: every run the index holds at each step
    /// passes each of its keys, and every key answers as the model says.
    #[test]
    fn key_filters_have_no_false_negatives(
        batches in vec(vec((0i64..6, 0i64..48, 1u64..64), 1..60), 2..9),
        evolve_frac in 0usize..=100,
        query_ts in 1u64..1000,
    ) {
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::in_memory(),
            TieredConfig { chunk_size: 512, ..TieredConfig::default() },
        ));
        let index = UmziIndex::create(Arc::clone(&storage), def(), config()).unwrap();
        let mut model: BTreeMap<(i64, i64), BTreeSet<u64>> = BTreeMap::new();
        let mut groomed: Vec<Vec<Version>> = Vec::new();
        for (b, raw) in batches.iter().enumerate() {
            let block = b as u64 + 1;
            // Versions grow newer with the groomed block, as ingest makes
            // them: a lookup stops at the newest run holding the key.
            let versions: Vec<Version> = raw
                .iter()
                .map(|&(d, m, t)| (d, m, block * 100 + t))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            for &(d, m, ts) in &versions {
                model.entry((d, m)).or_default().insert(ts);
            }
            let entries = versions.iter().map(|&v| entry(&index, ZoneId::GROOMED, block, v));
            index.build_groomed_run(entries.collect(), block, block).unwrap();
            groomed.push(versions);
        }
        assert_no_false_negatives(&index, "groomed");
        let merges = index.drain_merges().unwrap();
        prop_assert!(merges > 0 || groomed.len() < 4, "{} runs never merged", groomed.len());
        assert_no_false_negatives(&index, "merged");

        let evolved = (groomed.len() * evolve_frac / 100).max(1);
        let entries = groomed[..evolved]
            .iter()
            .enumerate()
            .flat_map(|(b, vs)| vs.iter().map(move |&v| (b as u64 + 1, v)))
            .map(|(block, v)| entry(&index, ZoneId::POST_GROOMED, block, v))
            .collect();
        index
            .evolve(EvolveNotice { psn: 1, groomed_lo: 1, groomed_hi: evolved as u64, entries })
            .unwrap();
        assert_no_false_negatives(&index, "evolved");
        assert_lookups(&index, &model, query_ts, "evolved");

        let recovered = UmziIndex::recover(Arc::clone(&storage), def(), config()).unwrap();
        let checked = assert_no_false_negatives(&recovered, "recovered");
        prop_assert!(checked > 0);
        assert_lookups(&recovered, &model, query_ts, "recovered");
    }
}
