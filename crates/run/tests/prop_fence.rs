//! Property test: the fence-index search must be byte-for-byte equivalent
//! to the brute-force per-entry binary search — across random runs, random
//! targets and every offset-array bucket — and the persisted fences must be
//! exactly the first key of each data block.

use std::sync::Arc;

use proptest::prelude::*;
use umzi_encoding::{hash_prefix, ColumnType, Datum, IndexDef};
use umzi_run::{
    IndexEntry, KeyLayout, Rid, Run, RunBuilder, RunParams, RunSearcher, SortBound, ZoneId,
};
use umzi_storage::{Durability, SharedStorage, TieredConfig, TieredStorage};

fn layout() -> KeyLayout {
    let def = IndexDef::builder("fence")
        .equality("d", ColumnType::Int64)
        .sort("m", ColumnType::Int64)
        .build()
        .unwrap();
    KeyLayout::new(Arc::new(def))
}

/// Small chunks so even modest runs span many data blocks.
fn storage() -> Arc<TieredStorage> {
    Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            chunk_size: 512,
            ..TieredConfig::default()
        },
    ))
}

fn build_run(
    storage: &Arc<TieredStorage>,
    rows: &[(i64, i64, u64)],
    offset_bits: u8,
    name: &str,
) -> Run {
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
    b.finish(storage, name, Durability::Persisted, true)
        .unwrap()
}

/// Targets worth probing: exact entry keys, query-range bounds, and
/// neighbors on both sides of every block boundary.
fn targets(run: &Run, device: i64, msg: i64) -> Vec<Vec<u8>> {
    let l = layout();
    let mut out = Vec::new();
    let (lower, upper) = l
        .query_range(
            &[Datum::Int64(device)],
            &SortBound::Included(vec![Datum::Int64(msg)]),
            &SortBound::Included(vec![Datum::Int64(msg)]),
        )
        .unwrap();
    out.push(lower);
    if let Some(u) = upper {
        out.push(u);
    }
    // An existing key, a mutation just below and above it.
    if run.entry_count() > 0 {
        let ord = (device.unsigned_abs().wrapping_mul(31) ^ msg.unsigned_abs()) % run.entry_count();
        let key = run.entry(ord).unwrap().key.to_vec();
        let mut below = key.clone();
        if let Some(last) = below.last_mut() {
            *last = last.wrapping_sub(1);
        }
        let mut above = key.clone();
        above.push(0xFF);
        out.push(key);
        out.push(below);
        out.push(above);
    }
    out.push(vec![]); // below everything
    out.push(vec![0xFF; 24]); // above everything
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fence_search_equals_bruteforce(
        rows in proptest::collection::vec((0i64..6, -8i64..12, 1u64..40), 0..160),
        device in 0i64..6,
        msg in -9i64..13,
        offset_bits in 0u8..5,
    ) {
        let storage = storage();
        let run = build_run(&storage, &rows, offset_bits, "runs/fprop");
        let searcher = RunSearcher::new(&run);
        let l = layout();
        for target in targets(&run, device, msg) {
            // Every bucket, plus no bucket: the narrowed result must
            // match the brute force probe-by-probe search exactly.
            let mut buckets: Vec<Option<u32>> = vec![None];
            if offset_bits > 0 {
                buckets.extend((0..(1u32 << offset_bits)).map(Some));
                let h = l.hash_equality(&[Datum::Int64(device)]).unwrap();
                buckets.push(Some(hash_prefix(h, offset_bits)));
            }
            for bucket in buckets {
                let fast = searcher.find_first_geq(&target, bucket).unwrap();
                let slow = searcher.find_first_geq_scalar(&target, bucket).unwrap();
                prop_assert_eq!(fast, slow, "target {:?} bucket {:?}", target, bucket);
            }
        }
    }

    #[test]
    fn persisted_fences_are_block_first_keys(
        rows in proptest::collection::vec((0i64..4, -4i64..8, 1u64..30), 1..120),
    ) {
        let storage = storage();
        let run = build_run(&storage, &rows, 3, "runs/fagree");
        let fences = run.fence_keys().unwrap();
        prop_assert_eq!(fences.len(), run.data_block_count() as usize);
        for (b, fence) in fences.iter().enumerate() {
            let block = run.data_block(b as u32).unwrap();
            prop_assert_eq!(fence.as_slice(), block.key_at(0).unwrap());
        }
    }
}
