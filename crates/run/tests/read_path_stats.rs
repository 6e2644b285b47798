//! Read-path cost accounting: the fence index must cut the block reads a
//! point lookup performs by ≥ 4× versus the pre-fence per-entry binary
//! search, observed through the storage layer's counters: every block
//! access is a chunk read or a verified RAM hit.

use std::sync::Arc;

use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{
    AccessPattern, IndexEntry, KeyLayout, ProbeCursor, Rid, RunBuilder, RunParams, RunSearcher,
    ZoneId,
};
use umzi_storage::{Durability, SharedStorage, TieredConfig, TieredStorage};

fn layout() -> KeyLayout {
    let def = IndexDef::builder("stats")
        .equality("d", ColumnType::Int64)
        .sort("m", ColumnType::Int64)
        .build()
        .unwrap();
    KeyLayout::new(Arc::new(def))
}

/// A storage hierarchy with 1 KiB blocks.
fn small_block_storage() -> Arc<TieredStorage> {
    Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            chunk_size: 1024,
            ..TieredConfig::default()
        },
    ))
}

/// Block accesses so far, wherever they were served: every `data_block`
/// call is one chunk read or one verified RAM hit — isolating what the
/// fence index alone saves.
fn block_accesses(storage: &TieredStorage) -> u64 {
    let s = storage.stats();
    s.chunk_reads + s.decoded.hits
}

fn build_multi_block_run(storage: &Arc<TieredStorage>, n: i64) -> umzi_run::Run {
    build_run_with_id(storage, n, 1)
}

fn build_run_with_id(storage: &Arc<TieredStorage>, n: i64, run_id: u64) -> umzi_run::Run {
    let l = layout();
    let mut entries: Vec<IndexEntry> = (0..n)
        .map(|i| {
            IndexEntry::new(
                &l,
                &[Datum::Int64(i % 8)],
                &[Datum::Int64(i)],
                100 + i as u64,
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
            run_id,
            zone: ZoneId::GROOMED,
            level: 0,
            groomed_lo: 0,
            groomed_hi: 0,
            psn: 0,
            offset_bits: 0, // whole-run binary search: the worst case
            ancestors: vec![],
        },
        storage.chunk_size(),
    );
    for e in &entries {
        b.push(e).unwrap();
    }
    b.finish(
        storage,
        &format!("runs/stats{run_id}"),
        Durability::Persisted,
        true,
    )
    .unwrap()
}

#[test]
fn fence_lookup_reads_4x_fewer_blocks_than_scalar() {
    let storage = small_block_storage();
    let run = build_multi_block_run(&storage, 4000);
    assert!(
        run.data_block_count() >= 16,
        "need a multi-block run, got {} blocks",
        run.data_block_count()
    );

    let l = layout();
    let searcher = RunSearcher::new(&run);
    let target = {
        let mut p = l.equality_prefix(&[Datum::Int64(3)]).unwrap();
        umzi_encoding::encode_datum(&Datum::Int64(1999), &mut p);
        p
    };

    // Warm nothing block-specific; fences are persisted in the header.
    let probes = 32;
    let before = block_accesses(&storage);
    for _ in 0..probes {
        searcher.find_first_geq(&target, None).unwrap();
    }
    let fence_reads = block_accesses(&storage) - before;

    let before = block_accesses(&storage);
    for _ in 0..probes {
        searcher.find_first_geq_scalar(&target, None).unwrap();
    }
    let scalar_reads = block_accesses(&storage) - before;

    assert_eq!(
        fence_reads, probes,
        "fence search must read exactly one block per lookup"
    );
    assert!(
        scalar_reads >= 4 * fence_reads,
        "expected ≥4x fewer block reads: fence={fence_reads} scalar={scalar_reads}"
    );
}

/// Logical key of `(d = m % 8, m)`, as [`build_run_with_id`] lays rows out.
fn prefix_of(m: i64) -> Vec<u8> {
    let mut p = layout().equality_prefix(&[Datum::Int64(m % 8)]).unwrap();
    umzi_encoding::encode_datum(&Datum::Int64(m), &mut p);
    p
}

#[test]
fn point_lookup_reads_exactly_one_block() {
    // Every block access is counted: a point lookup — hit or miss — is one fence search and one
    // block, not a lower-bound block plus an upper-bound block. The one
    // exception is a key that opens a block other than the first: its
    // prefix sorts below that fence, and only the block before can say
    // whether newer versions of it end there.
    let storage = small_block_storage();
    let run = build_multi_block_run(&storage, 4000);
    assert!(run.data_block_count() >= 16);
    let searcher = RunSearcher::new(&run);
    let fences = run.fence_keys().unwrap();
    let before = block_accesses(&storage);
    for m in 0..4200 {
        let prefix = prefix_of(m);
        let reads0 = block_accesses(&storage);
        let hit = searcher.lookup(&prefix, None, u64::MAX).unwrap();
        assert_eq!(hit.is_some(), m < 4000, "m = {m}");
        let opens_block = fences[1..].iter().any(|f| f.starts_with(&prefix));
        let reads = block_accesses(&storage) - reads0;
        assert_eq!(reads, 1 + u64::from(opens_block), "m = {m}");
    }
    let blocks = u64::from(run.data_block_count());
    assert_eq!(block_accesses(&storage) - before, 4200 + blocks - 1);
}

#[test]
fn sorted_batch_reads_each_block_at_most_once() {
    // 256 ascending probes (two in three absent) through one cursor over
    // a 4-block run: a merge-join against the fences, so each block is
    // fetched once however many probes land in it.
    let storage = small_block_storage();
    let run = build_multi_block_run(&storage, 80);
    assert_eq!(run.data_block_count(), 4);
    let mut prefixes: Vec<(Vec<u8>, bool)> = (0..256).map(|m| (prefix_of(m), m < 80)).collect();
    prefixes.sort();
    let before = block_accesses(&storage);
    let mut cursor = ProbeCursor::new(&run, u64::MAX, AccessPattern::PointLookup);
    for (prefix, present) in &prefixes {
        assert_eq!(cursor.probe(prefix).unwrap().is_some(), *present);
    }
    let reads = block_accesses(&storage) - before;
    assert!(reads <= 4, "256 sorted probes read {reads} blocks of 4");
}

#[test]
fn bounded_scan_touches_only_spanned_blocks() {
    // The fence-aware iterator resolves both bounds to ordinals up front,
    // so a narrow bounded scan reads only the blocks the range spans plus
    // the two positioning probes — never a trailing block just to discover
    // the upper bound was passed.
    let storage = small_block_storage();
    let run = build_multi_block_run(&storage, 4000);
    let entries_per_block = 4000 / run.data_block_count() as i64;
    let l = layout();
    let searcher = RunSearcher::new(&run);

    // Keys sort as (d, m); device 3 holds every msg with m % 8 == 3, as a
    // contiguous ordinal range. Scan a window holding about half a block's
    // worth of its entries.
    let key_of = |m: i64| {
        let mut p = l.equality_prefix(&[Datum::Int64(3)]).unwrap();
        umzi_encoding::encode_datum(&Datum::Int64(m), &mut p);
        p
    };
    let width = (entries_per_block / 2).max(1) * 8; // msg span ⇒ width/8 entries
    let (lo_m, hi_m) = (200, 200 + width);
    let expected = (lo_m..hi_m).filter(|m| m % 8 == 3).count();
    let (lower, upper) = (key_of(lo_m), key_of(hi_m));

    let before = block_accesses(&storage);
    let hits: Vec<_> = searcher
        .scan(&lower, Some(&upper), None, u64::MAX)
        .unwrap()
        .collect::<umzi_run::Result<Vec<_>>>()
        .unwrap();
    let reads = block_accesses(&storage) - before;

    assert_eq!(hits.len(), expected, "every key in range, exactly once");
    // Two positioning reads (lower + upper fence jumps) plus at most the
    // two blocks a half-block window can straddle.
    assert!(
        reads <= 4,
        "bounded half-block scan must not sweep blocks: {reads} reads"
    );

    // An empty range costs only the positioning probes, not a discarded
    // data fetch.
    let before = block_accesses(&storage);
    let n = searcher
        .scan(&key_of(401), Some(&key_of(401)), None, u64::MAX)
        .unwrap()
        .count();
    let reads = block_accesses(&storage) - before;
    assert_eq!(n, 0);
    assert!(reads <= 2, "empty range read {reads} blocks");
}

#[test]
fn decoded_cache_eliminates_repeat_reads() {
    // Repeated probes of the same key stop issuing chunk reads entirely
    // after the first: the block is served verified from RAM.
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            chunk_size: 1024,
            ..TieredConfig::default()
        },
    ));
    let run = build_multi_block_run(&storage, 4000);
    let l = layout();
    let searcher = RunSearcher::new(&run);
    let target = {
        let mut p = l.equality_prefix(&[Datum::Int64(5)]).unwrap();
        umzi_encoding::encode_datum(&Datum::Int64(777), &mut p);
        p
    };

    searcher.find_first_geq(&target, None).unwrap(); // populate
    let before = storage.stats().chunk_reads;
    for _ in 0..100 {
        searcher.find_first_geq(&target, None).unwrap();
    }
    assert_eq!(
        storage.stats().chunk_reads,
        before,
        "all repeat probes served decoded"
    );
    let d = storage.stats().decoded;
    assert!(d.hits >= 100, "decoded-cache hits must be counted: {d:?}");
    assert!(d.hit_ratio().unwrap() > 0.9);
}
