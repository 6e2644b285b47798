//! The one k-way merge, checked against a trivially correct reference.
//!
//! `merge_streams` must hand out every item of its sorted streams in (full
//! key, stream rank) order — a stable sort of all items by key, earlier
//! streams first — and `reconcile_pq` must keep the first item of every
//! logical key of that order. The cases cover the shapes the merge's streak
//! path (one stream leading, no heap traffic) and its heap path see:
//! range-disjoint streams, fully interleaved ones, one stream, empty ones,
//! randomly overlapping ones, and the same version in two streams (the §5.4
//! evolve window, where the lower rank must win). Every item's value names
//! the stream it came from, so a tie resolved the wrong way shows.
//!
//! `merge_at` over overlapping runs must write exactly the sorted union of
//! its inputs, entry for entry; and reconcile's cancellation checkpoint must
//! fire every 256 consumed entries inside a streak too.

use std::collections::BTreeSet;
use std::sync::Arc;

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use umzi_core::reconcile::{merge_streams, reconcile_pq};
use umzi_core::{MergePolicy, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, Rid, RunError, SearchHit, ZoneId};
use umzi_storage::{
    context, CancelToken, QueryContext, SharedStorage, TieredConfig, TieredStorage,
};

/// A stream item with `key = logical ∥ ¬ts`, as in the run format, whose
/// value names its stream and its position there.
fn item(logical: u16, ts: u64, rank: usize, pos: usize) -> SearchHit {
    let mut key = logical.to_be_bytes().to_vec();
    key.extend_from_slice(&(!ts).to_be_bytes());
    SearchHit {
        key: Bytes::from(key),
        value: Bytes::from(format!("{rank}/{pos}").into_bytes()),
        begin_ts: ts,
    }
}

type Raw = Vec<Vec<(u16, u64)>>;

/// Shape the generated `(logical, ts)` streams by `kind`, then sort each
/// stream by full key (duplicates collapse within a stream).
fn shape(kind: usize, raw: &Raw) -> Vec<Vec<(u16, u64)>> {
    let n = raw.len() as u16;
    let shaped: Vec<Vec<(u16, u64)>> = match kind {
        // Range-disjoint: stream r owns logical keys r*64 .. r*64+48.
        0 => raw
            .iter()
            .enumerate()
            .map(|(r, s)| s.iter().map(|&(l, ts)| (r as u16 * 64 + l, ts)).collect())
            .collect(),
        // Fully interleaved: stream r owns the keys ≡ r mod n.
        1 => raw
            .iter()
            .enumerate()
            .map(|(r, s)| s.iter().map(|&(l, ts)| (l * n + r as u16, ts)).collect())
            .collect(),
        // One stream.
        2 => raw[..1].to_vec(),
        // Every other stream empty.
        3 => raw
            .iter()
            .enumerate()
            .map(|(r, s)| if r % 2 == 0 { Vec::new() } else { s.clone() })
            .collect(),
        // The same versions in two streams: stream 1 repeats stream 0.
        4 => {
            let mut out = raw.clone();
            if out.len() > 1 {
                let first = out[0].clone();
                out[1].extend(first);
            } else {
                out.push(out[0].clone());
            }
            out
        }
        // As generated: random overlap.
        _ => raw.clone(),
    };
    shaped
        .into_iter()
        .map(|s| {
            let set: BTreeSet<(u16, std::cmp::Reverse<u64>)> = s
                .into_iter()
                .map(|(l, ts)| (l, std::cmp::Reverse(ts)))
                .collect();
            set.into_iter().map(|(l, ts)| (l, ts.0)).collect()
        })
        .collect()
}

fn streams_of(shaped: &[Vec<(u16, u64)>]) -> Vec<Vec<SearchHit>> {
    shaped
        .iter()
        .enumerate()
        .map(|(r, s)| {
            s.iter()
                .enumerate()
                .map(|(p, &(l, ts))| item(l, ts, r, p))
                .collect()
        })
        .collect()
}

/// A stream as a run's search hands it to reconcile: one (the newest)
/// version per logical key.
fn newest_per_key(stream: &[SearchHit]) -> Vec<SearchHit> {
    let mut out: Vec<SearchHit> = Vec::new();
    for h in stream {
        if out
            .last()
            .is_none_or(|l| l.logical_key() != h.logical_key())
        {
            out.push(h.clone());
        }
    }
    out
}

fn iters(streams: &[Vec<SearchHit>]) -> Vec<impl Iterator<Item = umzi_run::Result<SearchHit>>> {
    streams
        .iter()
        .map(|s| s.clone().into_iter().map(Ok))
        .collect()
}

/// The reference: stable-sort every item by key (items listed stream by
/// stream, so earlier streams stay first among equal keys).
fn reference_merge(streams: &[Vec<SearchHit>]) -> Vec<SearchHit> {
    let mut all: Vec<SearchHit> = streams.iter().flatten().cloned().collect();
    all.sort_by(|a, b| a.key.cmp(&b.key));
    all
}

/// The reference reconcile: the first item of every logical key.
fn reference_reconcile(streams: &[Vec<SearchHit>]) -> Vec<SearchHit> {
    let mut out: Vec<SearchHit> = Vec::new();
    for h in reference_merge(streams) {
        if out
            .last()
            .is_none_or(|l| l.logical_key() != h.logical_key())
        {
            out.push(h);
        }
    }
    out
}

fn flat(hits: &[SearchHit]) -> Vec<(Vec<u8>, Vec<u8>)> {
    hits.iter()
        .map(|h| (h.key.to_vec(), h.value.to_vec()))
        .collect()
}

fn merged(streams: &[Vec<SearchHit>]) -> Vec<SearchHit> {
    let mut out = Vec::new();
    merge_streams(iters(streams), |h| {
        out.push(h);
        Ok::<_, RunError>(())
    })
    .unwrap();
    out
}

fn reconciled(streams: &[Vec<SearchHit>]) -> Vec<SearchHit> {
    let mut out = Vec::new();
    reconcile_pq(iters(streams), |h| {
        out.push(h);
        Ok(())
    })
    .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both merges agree with the reference on every stream shape.
    #[test]
    fn merge_and_reconcile_match_a_stable_sort(
        kind in 0usize..6,
        raw in vec(vec((0u16..48, 1u64..6), 0..40), 1..6),
    ) {
        let streams = streams_of(&shape(kind, &raw));
        prop_assert_eq!(flat(&merged(&streams)), flat(&reference_merge(&streams)));

        let per_key: Vec<Vec<SearchHit>> = streams.iter().map(|s| newest_per_key(s)).collect();
        prop_assert_eq!(
            flat(&reconciled(&per_key)),
            flat(&reference_reconcile(&per_key))
        );
    }

    /// `merge_at` over overlapping runs writes the sorted union of its
    /// inputs, entry for entry. A version may sit in several inputs (as in
    /// the evolve window), with identical bytes, so the union is a multiset.
    #[test]
    fn merge_at_writes_the_sorted_union_of_its_inputs(
        runs in vec(vec((0i64..4, 0i64..64, 1u64..8), 0..60), 2..5),
    ) {
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::in_memory(),
            TieredConfig {
                chunk_size: 256,
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
        let mut config = UmziConfig::two_zone("prop-merge");
        config.merge = MergePolicy { k: runs.len(), t: 1000 };
        let index = UmziIndex::create(storage, def, config).unwrap();
        let mut union: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (r, versions) in runs.iter().enumerate() {
            let versions: BTreeSet<(i64, i64, u64)> = versions.iter().copied().collect();
            let entries: Vec<IndexEntry> = versions
                .iter()
                .map(|&(d, m, ts)| {
                    // The RID depends on the version alone: a version two
                    // runs hold is the same bytes in both.
                    let rid = Rid::new(ZoneId::GROOMED, ts, (d * 64 + m) as u32);
                    IndexEntry::new(
                        index.layout(),
                        &[Datum::Int64(d)],
                        &[Datum::Int64(m)],
                        ts,
                        rid,
                        &[],
                    )
                    .unwrap()
                })
                .collect();
            union.extend(entries.iter().map(|e| (e.key.clone(), e.value.clone())));
            index.build_groomed_run(entries, r as u64 + 1, r as u64 + 1).unwrap();
        }
        union.sort();

        let report = index.merge_at(0).unwrap().expect("K sealed runs merge");
        prop_assert_eq!(report.output_entries, union.len() as u64);
        let run = Arc::clone(&index.zones()[0].list.snapshot()[0]);
        let got: Vec<(Vec<u8>, Vec<u8>)> = (0..run.entry_count())
            .map(|o| {
                let e = run.entry(o).unwrap();
                (e.key.to_vec(), e.value.to_vec())
            })
            .collect();
        prop_assert_eq!(got, union);
    }
}

/// Reconcile checks its query context every 256 consumed entries, emitted
/// or discarded, also while one stream leads: the newest stream holds 600
/// keys, the second stream copies of its first 100 (consumed in turn with
/// them and discarded), the third one key past them all. From the 201st
/// entry on the newest stream leads alone, each entry one comparison
/// against the heap's top, and both checks fall in that streak.
#[test]
fn reconcile_checks_its_context_every_256_consumed_entries_inside_a_streak() {
    let lead: Vec<SearchHit> = (0..600).map(|l| item(l, 1, 0, l as usize)).collect();
    let copies: Vec<SearchHit> = (0..100).map(|l| item(l, 1, 1, l as usize)).collect();
    let streams = vec![lead, copies, vec![item(1000, 1, 2, 0)]];

    let counting = CancelToken::new();
    let out = {
        let _g = context::enter(QueryContext::unbounded().with_cancel(counting.clone()));
        reconciled(&streams)
    };
    assert_eq!(out.len(), 601);
    assert!(
        out[..600].iter().all(|h| h.value.starts_with(b"0/")),
        "the newer copy wins"
    );
    assert_eq!(counting.checkpoints_observed(), 701 / 256);

    // A trip at the second check fires at the 512th consumed entry: the
    // 100 copies are behind it, so 411 entries were emitted.
    let token = CancelToken::trip_after(2);
    let mut emitted = 0;
    let out = {
        let _g = context::enter(QueryContext::unbounded().with_cancel(token.clone()));
        reconcile_pq(iters(&streams), |_| {
            emitted += 1;
            Ok(())
        })
    };
    match out {
        Err(RunError::Storage(e)) => assert!(e.is_query_abort(), "untyped abort: {e}"),
        other => panic!("expected a typed abort, got {other:?}"),
    }
    assert_eq!(emitted, 411);
}
