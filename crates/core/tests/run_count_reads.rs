//! What a lookup costs as the run count grows, as exact block counts.
//!
//! Every block access is counted: a chunk read or a verified RAM hit.
//! Runs are searched newest to oldest and nothing skips a run that cannot
//! hold the key: the synopsis keeps per-column min/max, and every run here
//! spans the same dense key domain. So a hit in the newest run costs one
//! block, a hit in the oldest run or a miss costs one block per run — plus
//! one where the key opens a block other than the run's first (the
//! exception `point_lookup_reads_exactly_one_block` documents).

use std::sync::Arc;

use umzi_core::{MergePolicy, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, KeyLayout, Rid, Run, ZoneId};
use umzi_storage::{SharedStorage, TieredConfig, TieredStorage, READAHEAD_DEPTH};

const DEVICES: i64 = 64;
/// Messages per device in each run.
const MSGS_PER_RUN: i64 = 32;

/// `n_runs` level-0 runs striped over one key domain: run `r` holds, for
/// every device, the messages `m ≡ r (mod n_runs + 1)`; the last residue is
/// in no run. Run `n_runs − 1` is the newest. A data block is one chunk.
fn striped_index(n_runs: i64, chunk_size: usize) -> (Arc<TieredStorage>, Arc<UmziIndex>) {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            chunk_size,
            ..TieredConfig::default()
        },
    ));
    let def = Arc::new(
        IndexDef::builder("striped")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap(),
    );
    let mut config = UmziConfig::two_zone("striped");
    // The run structure is the experiment: nothing merges.
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    let idx = UmziIndex::create(Arc::clone(&storage), def, config).unwrap();
    let stripe = n_runs + 1;
    for r in 0..n_runs {
        let block = r as u64 + 1;
        let entries: Vec<IndexEntry> = (0..DEVICES * MSGS_PER_RUN)
            .map(|i| {
                let (d, m) = (i % DEVICES, (i / DEVICES) * stripe + r);
                IndexEntry::new(
                    idx.layout(),
                    &[Datum::Int64(d)],
                    &[Datum::Int64(m)],
                    block,
                    Rid::new(ZoneId::GROOMED, block, i as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        idx.build_groomed_run(entries, block, block).unwrap();
    }
    (storage, idx)
}

/// Block accesses so far, wherever they were served: a chunk read or a
/// verified RAM hit each.
fn block_accesses(storage: &TieredStorage) -> u64 {
    let s = storage.stats();
    s.chunk_reads + s.decoded.hits
}

/// How many of `runs` have a block other than their first opening on
/// `prefix`: each costs a lookup one extra block.
fn blocks_opened_by(runs: &[Arc<Run>], prefix: &[u8]) -> u64 {
    runs.iter()
        .filter(|run| {
            run.fence_keys().unwrap()[1..]
                .iter()
                .any(|fence| fence.starts_with(prefix))
        })
        .count() as u64
}

#[test]
fn lookup_block_reads_grow_with_the_runs_searched() {
    for n_runs in [1i64, 8, 32] {
        let (storage, idx) = striped_index(n_runs, 1024);
        let runs = idx.candidate_runs(); // newest first
        assert_eq!(runs.len() as i64, n_runs);
        let stripe = n_runs + 1;
        // (residue of the probed message, runs a lookup has to search)
        let cases = [
            ("newest-run hit", n_runs - 1, 1),
            ("oldest-run hit", 0, n_runs as usize),
            ("absent key", n_runs, n_runs as usize),
        ];
        for (what, residue, searched) in cases {
            // Interior messages only: inside every run's min/max, so the
            // synopsis has no say.
            for i in 1..MSGS_PER_RUN - 1 {
                let (d, m) = ((i * 7) % DEVICES, i * stripe + residue);
                let (eq, sort) = ([Datum::Int64(d)], [Datum::Int64(m)]);
                let key = idx.layout().build_key(&eq, &sort, 0).unwrap();
                let opened = blocks_opened_by(&runs[..searched], KeyLayout::logical_key(&key));
                let before = block_accesses(&storage);
                let hit = idx.point_lookup(&eq, &sort, u64::MAX).unwrap();
                let reads = block_accesses(&storage) - before;
                assert_eq!(hit.is_some(), residue != n_runs, "{what}, {n_runs} runs");
                assert_eq!(
                    reads,
                    searched as u64 + opened,
                    "{what}, {n_runs} runs, key ({d}, {m})"
                );
            }
        }
    }
}

#[test]
fn batch_lookup_reads_no_block_twice_per_run() {
    for n_runs in [1i64, 8, 32] {
        // Few blocks per run, so the probes of a run share blocks and a
        // probe that restarted from the top of the run would show.
        let (storage, idx) = striped_index(n_runs, 16 << 10);
        let runs = idx.candidate_runs(); // newest first
        let stripe = n_runs + 1;
        // 256 distinct keys spread evenly over the stripes, the absent one
        // included: run `r` holds the keys whose message has residue `r`.
        let keys: Vec<(Vec<Datum>, Vec<Datum>)> = (0..256i64)
            .map(|i| {
                let m = (1 + i / DEVICES) * stripe + i % stripe;
                (vec![Datum::Int64(i % DEVICES)], vec![Datum::Int64(m)])
            })
            .collect();
        let held_by = |r: i64| (0..256).filter(|i| i % stripe == r).count();

        // Newest first, each run sees the probes no newer run resolved. A
        // run's probes are cut into claims at block boundaries, and a
        // claim's cursor only moves forward, so a run reads each block its
        // probes need once: the blocks they read first, and the blocks that
        // keys opening a block read on into.
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        let mut bound = 0;
        for (run, r) in runs.iter().zip((0..n_runs).rev()) {
            let fences = run.fence_keys().unwrap();
            let mut blocks = std::collections::BTreeSet::new();
            for &i in &pending {
                let (eq, sort) = &keys[i];
                let key = idx.layout().build_key(eq, sort, 0).unwrap();
                let prefix = KeyLayout::logical_key(&key);
                blocks.insert(run.probe_block(prefix).unwrap());
                blocks.extend(
                    (1..fences.len())
                        .filter(|&b| KeyLayout::logical_key(&fences[b]) == prefix)
                        .map(|b| b as u32),
                );
            }
            // One claim per run: a key opening the next claim's first block
            // would read it in both claims.
            assert!(
                (2..=READAHEAD_DEPTH as usize).contains(&blocks.len()),
                "a run's probes must span blocks, in one claim"
            );
            bound += blocks.len();
            pending.retain(|&i| i as i64 % stripe != r);
        }
        assert_eq!(
            pending.len(),
            held_by(n_runs),
            "only the absent stripe is left"
        );

        let before = block_accesses(&storage);
        let out = idx.batch_lookup(&keys, u64::MAX).unwrap();
        let reads = block_accesses(&storage) - before;
        let found = out.iter().filter(|o| o.is_some()).count();
        assert_eq!(found, keys.len() - pending.len(), "{n_runs} runs");
        assert!(
            reads <= bound as u64,
            "{n_runs} runs: 256 keys read {reads} blocks, bound {bound}"
        );
        eprintln!("{n_runs} runs: batch of 256 read {reads} blocks (bound {bound})");
    }
}
