//! Property-based tests of the run format: build → search must agree with a
//! naive in-memory oracle for arbitrary entry sets, bounds and snapshots.

use std::sync::Arc;

use proptest::prelude::*;
use umzi_encoding::{hash_prefix, ColumnType, Datum, IndexDef};
use umzi_run::{
    AccessPattern, IndexEntry, KeyLayout, ProbeCursor, ProbeKey, Rid, Run, RunBuilder, RunParams,
    RunSearcher, SortBound, ZoneId,
};
use umzi_storage::{Durability, SharedStorage, TieredConfig, TieredStorage};

fn layout() -> KeyLayout {
    let def = IndexDef::builder("prop")
        .equality("d", ColumnType::Int64)
        .sort("m", ColumnType::Int64)
        .build()
        .unwrap();
    KeyLayout::new(Arc::new(def))
}

fn build_run(rows: &[(i64, i64, u64)], offset_bits: u8) -> (Arc<TieredStorage>, Run) {
    build_run_on(Arc::new(TieredStorage::in_memory()), rows, offset_bits)
}

fn build_run_on(
    storage: Arc<TieredStorage>,
    rows: &[(i64, i64, u64)],
    offset_bits: u8,
) -> (Arc<TieredStorage>, Run) {
    let l = layout();
    let mut entries: Vec<IndexEntry> = rows
        .iter()
        .enumerate()
        .map(|(i, &(d, m, ts))| {
            IndexEntry::new(
                &l,
                &[Datum::Int64(d)],
                &[Datum::Int64(m)],
                ts,
                Rid::new(ZoneId::GROOMED, i as u64, 0),
                &[],
            )
            .unwrap()
        })
        .collect();
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    let mut b = RunBuilder::new(
        l,
        RunParams {
            run_id: 1,
            zone: ZoneId::GROOMED,
            level: 0,
            groomed_lo: 0,
            groomed_hi: 0,
            psn: 0,
            offset_bits,
            ancestors: vec![],
        },
        storage.chunk_size(),
    );
    for e in &entries {
        b.push(e).unwrap();
    }
    let run = b
        .finish(&storage, "runs/prop", Durability::Persisted, true)
        .unwrap();
    (storage, run)
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, u64)>> {
    proptest::collection::vec((0i64..6, -5i64..10, 1u64..40), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-run scan ≡ oracle: per logical key, the newest version with
    /// beginTS ≤ queryTS inside the bounds.
    #[test]
    fn scan_equals_oracle(
        rows in arb_rows(),
        device in 0i64..6,
        lo in -6i64..11,
        len in 0i64..8,
        query_ts in 0u64..45,
        offset_bits in 0u8..6,
    ) {
        let hi = lo + len;
        let (_storage, run) = build_run(&rows, offset_bits);
        let l = layout();

        let (lower, upper) = l
            .query_range(
                &[Datum::Int64(device)],
                &SortBound::Included(vec![Datum::Int64(lo)]),
                &SortBound::Included(vec![Datum::Int64(hi)]),
            )
            .unwrap();
        let bucket = (offset_bits > 0).then(|| {
            hash_prefix(l.hash_equality(&[Datum::Int64(device)]).unwrap(), offset_bits)
        });
        let searcher = RunSearcher::new(&run);
        let got: Vec<(i64, u64)> = searcher
            .scan(&lower, upper.as_deref(), bucket, query_ts)
            .unwrap()
            .map(|r| {
                let hit = r.unwrap();
                let cols = l.decode_key_columns(&hit.key).unwrap();
                (cols[1].as_i64().unwrap(), hit.begin_ts)
            })
            .collect();

        // Oracle.
        let mut best: std::collections::BTreeMap<i64, u64> = Default::default();
        for &(d, m, ts) in &rows {
            if d == device && (lo..=hi).contains(&m) && ts <= query_ts {
                let e = best.entry(m).or_insert(0);
                *e = (*e).max(ts);
            }
        }
        let expect: Vec<(i64, u64)> = best.into_iter().collect();
        prop_assert_eq!(got, expect);
    }

    /// Point lookups agree with the oracle for present and absent keys.
    #[test]
    fn lookup_equals_oracle(
        rows in arb_rows(),
        device in 0i64..7,
        msg in -6i64..11,
        query_ts in 0u64..45,
    ) {
        let (_storage, run) = build_run(&rows, 4);
        let l = layout();
        let mut prefix = l.equality_prefix(&[Datum::Int64(device)]).unwrap();
        umzi_encoding::encode_datum(&Datum::Int64(msg), &mut prefix);
        let bucket = Some(hash_prefix(
            l.hash_equality(&[Datum::Int64(device)]).unwrap(),
            run.header().offset_bits,
        ));
        let got = RunSearcher::new(&run)
            .lookup(&prefix, bucket, query_ts)
            .unwrap()
            .map(|h| h.begin_ts);

        let expect = rows
            .iter()
            .filter(|&&(d, m, ts)| d == device && m == msg && ts <= query_ts)
            .map(|&(_, _, ts)| ts)
            .max();
        prop_assert_eq!(got, expect);
    }

    /// Reopening a run from storage yields a byte-identical header, and the
    /// offset array always brackets every entry.
    #[test]
    fn reopen_and_offset_array_invariants(rows in arb_rows(), offset_bits in 1u8..8) {
        let (storage, run) = build_run(&rows, offset_bits);
        let l = layout();
        let reopened = Run::open(storage, "runs/prop", l.clone()).unwrap();
        prop_assert_eq!(reopened.header(), run.header());

        let oa = &run.header().offset_array;
        prop_assert_eq!(oa.len(), 1usize << offset_bits);
        prop_assert!(oa.windows(2).all(|w| w[0] <= w[1]));
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            let bucket = l.bucket_of(&e.key, offset_bits).unwrap();
            let (lo, hi) = run.bucket_range(Some(bucket));
            prop_assert!((lo..hi).contains(&ord));
        }
    }

    /// Pipelined readahead is invisible in results: a cold scan is
    /// byte-for-byte what reading the run entry by entry through
    /// `Run::entry` yields, and a cold multi-block scan actually stages
    /// blocks.
    #[test]
    fn cold_readahead_scan_equals_entry_oracle(
        rows in proptest::collection::vec((0i64..3, -20i64..40, 1u64..40), 1..300),
        device in 0i64..3,
        lo in -21i64..41,
        len in 0i64..40,
        query_ts in 0u64..45,
    ) {
        let hi = lo + len;
        // Small chunks force multi-block runs so readahead has work to do.
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::in_memory(),
            TieredConfig {
                chunk_size: 256,
                ..TieredConfig::default()
            },
        ));
        let l = layout();
        let mut entries: Vec<IndexEntry> = rows
            .iter()
            .enumerate()
            .map(|(i, &(d, m, ts))| {
                IndexEntry::new(
                    &l,
                    &[Datum::Int64(d)],
                    &[Datum::Int64(m)],
                    ts,
                    Rid::new(ZoneId::GROOMED, i as u64, 0),
                    &[],
                )
                .unwrap()
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut b = RunBuilder::new(
            l.clone(),
            RunParams {
                run_id: 1,
                zone: ZoneId::GROOMED,
                level: 0,
                groomed_lo: 0,
                groomed_hi: 0,
                psn: 0,
                offset_bits: 0,
                ancestors: vec![],
            },
            storage.chunk_size(),
        );
        for e in &entries {
            b.push(e).unwrap();
        }
        let run = b
            .finish(&storage, "runs/prefetch", Durability::Persisted, true)
            .unwrap();

        let (lower, upper) = l
            .query_range(
                &[Datum::Int64(device)],
                &SortBound::Included(vec![Datum::Int64(lo)]),
                &SortBound::Included(vec![Datum::Int64(hi)]),
            )
            .unwrap();
        // Oracle: walk every ordinal; entries are sorted by full key, so the
        // first visible entry of each logical-key group is its newest.
        let mut want: Vec<(Vec<u8>, Vec<u8>, u64)> = Vec::new();
        let mut emitted: Option<Vec<u8>> = None;
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            let in_range = e.key.as_ref() >= lower.as_slice()
                && upper.as_deref().is_none_or(|u| e.key.as_ref() < u);
            let ts = e.begin_ts().unwrap();
            if !in_range || ts > query_ts || emitted.as_deref() == Some(e.logical_key()) {
                continue;
            }
            emitted = Some(e.logical_key().to_vec());
            want.push((e.key.to_vec(), e.value.to_vec(), ts));
        }

        storage.purge_object(run.handle()).unwrap();
        let staged0 = storage.stats().blocks_prefetched;
        let got: Vec<(Vec<u8>, Vec<u8>, u64)> = RunSearcher::new(&run)
            .scan(&lower, upper.as_deref(), None, query_ts)
            .unwrap()
            .map(|r| {
                let h = r.unwrap();
                (h.key.to_vec(), h.value.to_vec(), h.begin_ts)
            })
            .collect();
        prop_assert_eq!(&got, &want);
        // ≥ 30 result rows at 256-byte chunks means the scanned range covers
        // several data blocks, so at least one readahead trigger fires
        // inside it.
        if want.len() >= 30 {
            prop_assert!(
                storage.stats().blocks_prefetched > staged0,
                "multi-block cold scan staged nothing"
            );
        }
    }

    /// A forward cursor fed any ascending probe set — present keys, absent
    /// keys inside the key range, probes below the first fence and past the
    /// last key, duplicates, keys whose versions straddle a block boundary,
    /// a snapshot below every version — returns exactly what a brute-force
    /// `Run::entry` walk returns, and so does a fresh cursor per probe.
    #[test]
    fn probe_cursor_equals_entry_walk(
        rows in proptest::collection::vec((0i64..3, 0i64..40, 1u64..40), 0..300),
        msg_span in 1i64..40,
        probes in proptest::collection::vec((-1i64..4, -3i64..43), 0..80),
        query_ts in 0u64..45,
    ) {
        // A narrow msg domain piles many versions on few keys; at 256-byte
        // chunks (about five entries a block) their versions straddle blocks.
        let rows: Vec<(i64, i64, u64)> =
            rows.into_iter().map(|(d, m, ts)| (d, m % msg_span, ts)).collect();
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::in_memory(),
            TieredConfig {
                chunk_size: 256,
                ..TieredConfig::default()
            },
        ));
        let (_storage, run) = build_run_on(storage, &rows, 0);
        let l = layout();
        let mut prefixes: Vec<Vec<u8>> = probes
            .iter()
            .map(|&(d, m)| {
                let mut p = l.equality_prefix(&[Datum::Int64(d)]).unwrap();
                umzi_encoding::encode_datum(&Datum::Int64(m), &mut p);
                p
            })
            .collect();
        // Below every possible key and past every possible key.
        prefixes.push(vec![0u8; 4]);
        prefixes.push(vec![0xFF; 40]);
        prefixes.sort();

        let flat = |h: Option<umzi_run::SearchHit>| {
            h.map(|h| (h.key.to_vec(), h.value.to_vec(), h.begin_ts))
        };
        let mut cursor = ProbeCursor::new(&run, query_ts, AccessPattern::PointLookup);
        for prefix in &prefixes {
            // Entries are sorted newest version first within a logical key.
            let want = (0..run.entry_count())
                .map(|ord| run.entry(ord).unwrap())
                .find(|e| e.logical_key() == prefix.as_slice() && e.begin_ts().unwrap() <= query_ts)
                .map(|e| (e.key.to_vec(), e.value.to_vec(), e.begin_ts().unwrap()));
            prop_assert_eq!(&flat(cursor.probe(ProbeKey::new(prefix)).unwrap()), &want);
            let fresh = RunSearcher::new(&run).lookup(prefix, None, query_ts).unwrap();
            prop_assert_eq!(&flat(fresh), &want);
        }
        // Ascending order is what makes the cursor cheap, not what makes it
        // right: probes behind it fall back to a full fence search.
        for prefix in prefixes.iter().rev() {
            let fresh = RunSearcher::new(&run).lookup(prefix, None, query_ts).unwrap();
            prop_assert_eq!(flat(cursor.probe(ProbeKey::new(prefix)).unwrap()), flat(fresh));
        }
    }

    /// The synopsis never prunes a run that holds a matching entry.
    #[test]
    fn synopsis_is_sound(
        rows in arb_rows(),
        device in 0i64..6,
        lo in -6i64..11,
        len in 0i64..8,
        query_ts in 0u64..45,
    ) {
        let hi = lo + len;
        let (_storage, run) = build_run(&rows, 4);
        let has_match = rows
            .iter()
            .any(|&(d, m, ts)| d == device && (lo..=hi).contains(&m) && ts <= query_ts);
        if has_match {
            let eq = umzi_run::synopsis::encode_eq_values(&[Datum::Int64(device)]);
            prop_assert!(run.header().synopsis.may_match(
                &eq,
                &SortBound::Included(vec![Datum::Int64(lo)]),
                &SortBound::Included(vec![Datum::Int64(hi)]),
                query_ts,
            ));
        }
    }
}
