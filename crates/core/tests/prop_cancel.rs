//! Cancellation-safety property harness: a query aborted at an *arbitrary*
//! cooperative checkpoint — mid-positioning, mid-merge, mid-readahead
//! batch, even mid-retry backoff against a faulted store — must come back as
//! a typed query-abort error (`Cancelled` / `DeadlineExceeded`), never a
//! panic and never a partial result presented as complete. And the very next
//! uncancelled query over the same index must return exactly the rows a
//! brute-force pass over the generated input predicts: an abort may leave
//! caches warm or cold, but never wrong.
//!
//! The trip point is deterministic: [`CancelToken::trip_after`] counts
//! cooperative checkpoints (block positioning, block advance, reconcile
//! ticks, retry pre/post-sleep checks) and fires on the n-th observation, so
//! proptest shrinking walks the abort backward through the read path one
//! checkpoint at a time.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use umzi_core::{RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, Rid, SortBound, ZoneId};
use umzi_storage::{
    context, CancelToken, FaultInjectingStore, FaultOp, FaultPlan, InMemoryObjectStore,
    LatencyModel, ObjectStore, QueryContext, RetryConfig, SharedStorage, StorageError,
    TieredConfig, TieredStorage,
};

/// A query abort (deadline / cancellation) surfaced through the core error
/// chain, however deeply wrapped.
fn is_query_abort(e: &umzi_core::UmziError) -> bool {
    let storage: Option<&StorageError> = match e {
        umzi_core::UmziError::Storage(s) => Some(s),
        umzi_core::UmziError::Run(umzi_run::RunError::Storage(s)) => Some(s),
        _ => None,
    };
    storage.is_some_and(|s| s.is_query_abort())
}

struct Fixture {
    index: Arc<UmziIndex>,
    faults: Arc<FaultInjectingStore>,
}

/// An index over a fault-injectable store with tiny chunks (multi-block
/// runs, so readahead has batches to stage) — every cooperative checkpoint
/// class is reachable.
fn fixture(raw_runs: &[Vec<(i64, i64, u64)>]) -> Fixture {
    let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryObjectStore::new());
    let faults = Arc::new(FaultInjectingStore::new(
        inner,
        // Chunked reads go through `get_range`; fault both read ops so the
        // armed store is sick for every read path.
        FaultPlan::none()
            .with_transient(FaultOp::Get, 1.0)
            .with_transient(FaultOp::GetRange, 1.0),
    ));
    faults.set_armed(false);
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::new(
            Arc::clone(&faults) as Arc<dyn ObjectStore>,
            LatencyModel::off(),
        ),
        TieredConfig {
            chunk_size: 256,
            // Starve the warm tiers and disable the decoded cache so scans
            // keep going back to (fault-injectable) shared storage — every
            // checkpoint class stays reachable on every scan, without
            // invalidating live object handles.
            mem_capacity: 1024,
            ssd_capacity: 1024,
            decoded_cache: umzi_storage::DecodedCacheConfig { capacity_bytes: 0 },
            retry: RetryConfig {
                max_retries: 2,
                base_backoff: std::time::Duration::from_millis(5),
                max_backoff: std::time::Duration::from_millis(10),
            },
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
    let index = UmziIndex::create(storage, def, UmziConfig::two_zone("prop-cancel")).unwrap();
    for (r, entries) in raw_runs.iter().enumerate() {
        let specs: BTreeSet<(i64, i64, u64)> = entries.iter().cloned().collect();
        let run_entries: Vec<IndexEntry> = specs
            .iter()
            .map(|&(d, m, ts)| {
                IndexEntry::new(
                    index.layout(),
                    &[Datum::Int64(d)],
                    &[Datum::Int64(m)],
                    ts,
                    Rid::new(ZoneId::GROOMED, r as u64 + 1, (d * 16 + m) as u32),
                    &[],
                )
                .unwrap()
            })
            .collect();
        index
            .build_groomed_run(run_entries, r as u64 + 1, r as u64 + 1)
            .unwrap();
    }
    Fixture { index, faults }
}

/// `(msg, beginTS, RID block)` of every returned row. The fixture stamps
/// run `r`'s entries with RID block `r + 1`, so the last element says which
/// run's copy won.
fn flat(index: &UmziIndex, o: &[umzi_core::QueryOutput]) -> Vec<(i64, u64, u64)> {
    o.iter()
        .map(|x| {
            let cols = x.key_columns(index.layout()).unwrap();
            (
                cols[1].as_i64().unwrap(),
                x.begin_ts,
                x.rid().unwrap().block_id,
            )
        })
        .collect()
}

/// What a whole-device scan at `query_ts = MAX` must return, straight from
/// the generated input: per msg the largest beginTS, and of the runs holding
/// that version the newest (highest-numbered) one.
fn oracle(raw_runs: &[Vec<(i64, i64, u64)>], device: i64) -> Vec<(i64, u64, u64)> {
    let mut best: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
    for (r, entries) in raw_runs.iter().enumerate() {
        for &(_, m, ts) in entries.iter().filter(|e| e.0 == device) {
            let v = best.entry(m).or_insert((0, 0));
            *v = (*v).max((ts, r as u64 + 1));
        }
    }
    best.into_iter()
        .map(|(m, (ts, run))| (m, ts, run))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cancel at the n-th cooperative checkpoint of a cold scan: either
    /// the scan finished before the trip (exactly the oracle's rows) or it
    /// aborted with a typed `Cancelled` error. The follow-up uncancelled
    /// scan returns the oracle's rows either way.
    #[test]
    fn cancel_at_arbitrary_checkpoint_is_typed_and_leaves_no_residue(
        raw_runs in vec(vec((0i64..3, 0i64..16, 1u64..40), 8..40), 1..4),
        trip in 0u32..64,
        device in 0i64..3,
    ) {
        let fx = fixture(&raw_runs);
        let query = RangeQuery {
            equality: vec![Datum::Int64(device)],
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: u64::MAX,
        };
        let want = oracle(&raw_runs, device);

        let token = CancelToken::trip_after(trip as u64);
        let out = {
            let _g = context::enter(
                QueryContext::unbounded().with_cancel(token.clone()),
            );
            fx.index.range_scan(&query, ReconcileStrategy::PriorityQueue)
        };
        match out {
            Ok(hits) => prop_assert_eq!(&flat(&fx.index, &hits), &want),
            Err(e) => {
                prop_assert!(is_query_abort(&e), "untyped abort: {e}");
                prop_assert!(token.is_cancelled());
            }
        }

        // The immediately following uncancelled query sees the exact same
        // data, whatever state the abort left caches and readahead in.
        let again = fx.index.range_scan(&query, ReconcileStrategy::PriorityQueue).unwrap();
        prop_assert_eq!(&flat(&fx.index, &again), &want);
    }

    /// Cancel a sorted batch probe at its n-th checkpoint. The batch holds
    /// all 48 keys, so the newest run alone takes 48 probe checkpoints (plus
    /// one per block load): a trip at or before the 48th fires mid-run and
    /// must surface the typed abort — a `Result`, so no half-filled result
    /// vector can escape — and a later trip either finishes exactly or
    /// aborts typed. The follow-up uncancelled batch is exact either way.
    #[test]
    fn cancel_mid_batch_probe_is_typed_with_no_partial_result(
        raw_runs in vec(vec((0i64..3, 0i64..16, 1u64..40), 8..40), 1..4),
        trip in 0u64..160,
    ) {
        let fx = fixture(&raw_runs);
        let keys: Vec<(Vec<Datum>, Vec<Datum>)> = (0..48)
            .map(|i| (vec![Datum::Int64(i / 16)], vec![Datum::Int64(i % 16)]))
            .collect();
        // Runs are searched newest first and the first run holding the key
        // answers with its newest version.
        let want: Vec<Option<(u64, u64)>> = (0..48)
            .map(|i| {
                raw_runs.iter().enumerate().rev().find_map(|(r, entries)| {
                    let versions = entries.iter().filter(|e| (e.0, e.1) == (i / 16, i % 16));
                    versions.map(|e| e.2).max().map(|ts| (ts, r as u64 + 1))
                })
            })
            .collect();
        let flat = |outs: Vec<Option<umzi_core::QueryOutput>>| -> Vec<Option<(u64, u64)>> {
            outs.into_iter()
                .map(|o| o.map(|o| (o.begin_ts, o.rid().unwrap().block_id)))
                .collect()
        };

        let token = CancelToken::trip_after(trip);
        let out = {
            let _g = context::enter(QueryContext::unbounded().with_cancel(token.clone()));
            fx.index.batch_lookup(&keys, u64::MAX)
        };
        match out {
            Ok(outs) => {
                prop_assert!(trip > 48, "trip at checkpoint {} of a 48-probe run ignored", trip);
                prop_assert_eq!(&flat(outs), &want);
            }
            Err(e) => {
                prop_assert!(is_query_abort(&e), "untyped abort: {e}");
                prop_assert!(token.is_cancelled());
            }
        }
        prop_assert_eq!(&flat(fx.index.batch_lookup(&keys, u64::MAX).unwrap()), &want);
    }

    /// Deadline expiry against a *sick* store: every shared get faults, so
    /// a cold scan lives inside retry backoff — the deadline must abort the
    /// sleep (typed, promptly), and healing the store restores exact
    /// results.
    #[test]
    fn deadline_mid_retry_backoff_is_typed_and_recoverable(
        raw_runs in vec(vec((0i64..3, 0i64..16, 1u64..40), 8..30), 1..3),
        budget_micros in 0u64..3000,
    ) {
        let fx = fixture(&raw_runs);
        let query = RangeQuery {
            equality: vec![Datum::Int64(0)],
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: u64::MAX,
        };
        let want = oracle(&raw_runs, 0);

        fx.faults.set_armed(true);
        let out = {
            let _g = context::enter(QueryContext::with_deadline(
                std::time::Duration::from_micros(budget_micros),
            ));
            fx.index.range_scan(&query, ReconcileStrategy::PriorityQueue)
        };
        // With every get faulting, a scan that touches storage either dies
        // on its deadline inside/around backoff (typed) or exhausts retries
        // (also typed, but a storage failure, not an abort). A scan that
        // needed no storage at all may still succeed.
        match out {
            Ok(hits) => prop_assert_eq!(&flat(&fx.index, &hits), &want),
            Err(e) => {
                // No panic, and the failure shape is from the known
                // taxonomy: a query abort (deadline killed the backoff) or
                // a storage/run error (the sick store exhausted retries
                // before the deadline fired).
                let typed = is_query_abort(&e)
                    || matches!(
                        &e,
                        umzi_core::UmziError::Storage(_) | umzi_core::UmziError::Run(_)
                    );
                prop_assert!(typed, "unexpected failure shape: {e}");
            }
        }

        fx.faults.set_armed(false);
        let healed = fx.index.range_scan(&query, ReconcileStrategy::PriorityQueue).unwrap();
        prop_assert_eq!(&flat(&fx.index, &healed), &want);
    }
}
