//! A range scan is classified (sequential vs partitioned histogram, and the
//! `partitions` field of its trace) by what *that scan* did — not by whether
//! the index-global `parallel_scans` counter moved while it ran. A one-row
//! scan overlapping a neighbour's partitioned scan on the same index must
//! still be recorded as sequential with zero partitions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use umzi_core::{RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, Rid, SortBound, ZoneId};
use umzi_storage::{SharedStorage, TelemetryConfig, TieredConfig, TieredStorage};

const RUNS: u64 = 4;
const ROWS_PER_RUN: i64 = 500;
const SINGLE_ROW_SCANS: u64 = 2_000;
const MIN_PARTITIONED_SCANS: u64 = 50;

fn scan(lower: SortBound, upper: SortBound) -> RangeQuery {
    RangeQuery {
        equality: vec![Datum::Int64(0)],
        lower,
        upper,
        query_ts: u64::MAX,
    }
}

#[test]
fn concurrent_partitioned_scans_do_not_reclassify_sequential_ones() {
    // Small chunks so the planner finds interior fences to cut at.
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            chunk_size: 512,
            ..TieredConfig::default()
        },
    ));
    // Every scan lands in the slow-query log; the ring is large enough that
    // none is evicted, so the log is the complete per-scan record.
    storage.telemetry().configure(&TelemetryConfig {
        enabled: true,
        slow_query_threshold: Duration::ZERO,
        slow_query_log_len: 1 << 20,
    });
    let def = Arc::new(
        IndexDef::builder("t")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap(),
    );
    let mut cfg = UmziConfig::two_zone("scan-classification");
    cfg.scan.max_scan_partitions = 4;
    cfg.scan.parallel_row_threshold = 1;
    cfg.scan.min_partition_rows = 1;
    let idx = UmziIndex::create(Arc::clone(&storage), def, cfg).unwrap();
    for r in 0..RUNS {
        let entries = (0..ROWS_PER_RUN)
            .map(|i| {
                let msg = r as i64 * ROWS_PER_RUN + i;
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(0)],
                    &[Datum::Int64(msg)],
                    msg as u64 + 1,
                    Rid::new(ZoneId::GROOMED, r + 1, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        idx.build_groomed_run(entries, r + 1, r + 1).unwrap();
    }

    let done = AtomicBool::new(false);
    let partitioned = AtomicU64::new(0);
    let mut single = 0u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            let whole = scan(SortBound::Unbounded, SortBound::Unbounded);
            while !done.load(Ordering::Relaxed) {
                let rows = idx
                    .range_scan(&whole, ReconcileStrategy::PriorityQueue)
                    .unwrap();
                assert_eq!(rows.len() as i64, RUNS as i64 * ROWS_PER_RUN);
                partitioned.fetch_add(1, Ordering::Relaxed);
            }
        });
        while single < SINGLE_ROW_SCANS
            || partitioned.load(Ordering::Relaxed) < MIN_PARTITIONED_SCANS
        {
            let k = vec![Datum::Int64(
                (single as i64 * 7) % (RUNS as i64 * ROWS_PER_RUN),
            )];
            let one = scan(SortBound::Included(k.clone()), SortBound::Included(k));
            let rows = idx
                .range_scan(&one, ReconcileStrategy::PriorityQueue)
                .unwrap();
            assert_eq!(rows.len(), 1);
            single += 1;
        }
        done.store(true, Ordering::Relaxed);
    });
    let partitioned = partitioned.load(Ordering::Relaxed);

    let tel = storage.telemetry();
    let ops = tel.ops();
    assert_eq!(
        ops.range_scan_seq.count(),
        single,
        "every one-row scan is a sequential sample"
    );
    assert_eq!(ops.range_scan_partitioned.count(), partitioned);
    // The index-level counters keep counting partitioned scans only.
    assert_eq!(idx.stats().parallel_scans, partitioned);

    assert_eq!(tel.slow_queries_evicted(), 0);
    let log = tel.slow_queries();
    assert_eq!(log.len() as u64, single + partitioned);
    for r in &log {
        match r.op {
            "range_scan_seq" => assert_eq!(r.partitions, 0, "{r:?}"),
            "range_scan_partitioned" => assert!((2..=4).contains(&r.partitions), "{r:?}"),
            other => panic!("unexpected op {other}"),
        }
    }
    let seq_records = log.iter().filter(|r| r.partitions == 0).count() as u64;
    assert_eq!(seq_records, single, "no one-row scan was billed partitions");
}
