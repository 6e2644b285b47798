//! Cold lookups and scans stage their block fetches instead of chaining
//! them.
//!
//! Runs are searched newest to oldest and the search stops at the first
//! match (§7.2), so over runs purged to shared storage a lookup used to be a
//! chain of dependent fetches. A run whose key filter rejects the key is
//! skipped without a block. On its first verified-lookup miss a point
//! lookup now fetches the target block of every remaining candidate run
//! whose filter passes the key at once; a batch lookup cuts each run's sorted probes into claims of at
//! most `READAHEAD_DEPTH` target blocks and fetches a claim's blocks in one
//! batched read. A range scan fetches every candidate run's bound blocks in
//! one round before it positions any run. The reads that follow find their
//! blocks landed unverified in RAM, and verify and decode them there. These
//! tests pin the overlap and the request count, that a warm lookup or scan
//! never stages and a warm lookup counts each verified-lookup miss once,
//! that a staged block is decoded only by the read that consumes it (and a
//! flipped bit in it is caught there), and that faults, cancellation,
//! background priority and an open breaker keep their meaning for every
//! read shape.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;
use umzi_core::{MergePolicy, RangeQuery, ReconcileStrategy, UmziConfig, UmziError, UmziIndex};
use umzi_encoding::{ColumnType, Datum, IndexDef};
use umzi_run::{IndexEntry, KeyLayout, ProbeKey, Rid, Run, RunSearcher, SortBound, ZoneId};
use umzi_storage::{
    context, BreakerState, CancelToken, Durability, FaultEvent, FaultInjectingStore, FaultOp,
    FaultPlan, InMemoryObjectStore, LatencyModel, ObjectStore, OpClass, Priority, QueryContext,
    RetryConfig, SharedStorage, StorageError, TierLatency, TieredConfig, TieredStorage,
    BREAKER_FAILURE_THRESHOLD, READAHEAD_DEPTH,
};

/// Level-0 runs of every index here; run `RUNS - 1` is the newest.
const RUNS: i64 = 4;
const DEVICES: i64 = 4;
/// Messages per device in each run.
const MSGS_PER_RUN: i64 = 16;
/// Run `r` holds the messages `m ≡ r (mod STRIPE)`; residue `RUNS` is in no
/// run.
const STRIPE: i64 = RUNS + 1;

/// The SSD tier's latency in every index here. The latency mode is
/// `Accounting`, so a write is charged but never slept on, and the SSD
/// pins below compare charges exactly.
const SSD_LATENCY: TierLatency = TierLatency::micros(100, 1);

/// `beginTS` base of the shadow versions in [`shadowed_index`]: above
/// [`SNAPSHOT`], so a lookup at the snapshot sees none of them.
const SHADOW_TS: u64 = 1000;
/// The snapshot lookups over [`shadowed_index`] read at.
const SNAPSHOT: u64 = SHADOW_TS - 1;

/// `RUNS` striped runs over `store`. Every run spans the same key domain, so
/// no synopsis prunes an interior key and a key of residue 0 is held only
/// by the oldest run: every newer run's key filter rejects it (but for a
/// false positive). With 8 KiB chunks a run is one data block; with 256 B
/// chunks it is several, and the fences pick the block a probe reads.
fn striped_index(
    store: Arc<dyn ObjectStore>,
    chunk_size: usize,
    retry: RetryConfig,
) -> (Arc<TieredStorage>, Arc<UmziIndex>) {
    build_index(store, chunk_size, retry, false)
}

/// [`striped_index`], where every run newer than the oldest also holds a
/// version of every residue-0 key, written after [`SNAPSHOT`]. At the
/// snapshot a residue-0 key is still answered by the oldest run alone, but
/// every run's filter passes it, so a lookup probes a block in every run.
fn shadowed_index(
    store: Arc<dyn ObjectStore>,
    chunk_size: usize,
    retry: RetryConfig,
) -> (Arc<TieredStorage>, Arc<UmziIndex>) {
    build_index(store, chunk_size, retry, true)
}

fn build_index(
    store: Arc<dyn ObjectStore>,
    chunk_size: usize,
    retry: RetryConfig,
    shadowed: bool,
) -> (Arc<TieredStorage>, Arc<UmziIndex>) {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::new(store, LatencyModel::off()),
        TieredConfig {
            chunk_size,
            retry,
            ssd_latency: SSD_LATENCY,
            ..TieredConfig::default()
        },
    ));
    let def = Arc::new(
        IndexDef::builder("staging")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap(),
    );
    let mut config = UmziConfig::two_zone("staging");
    // The run structure is the experiment: nothing merges.
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    let idx = UmziIndex::create(Arc::clone(&storage), def, config).unwrap();
    for r in 0..RUNS {
        let block = r as u64 + 1;
        let entry = |i: i64, residue: i64, ts: u64| {
            let (d, m) = (i % DEVICES, (i / DEVICES) * STRIPE + residue);
            IndexEntry::new(
                idx.layout(),
                &[Datum::Int64(d)],
                &[Datum::Int64(m)],
                ts,
                Rid::new(ZoneId::GROOMED, block, i as u32),
                &[],
            )
            .unwrap()
        };
        let mut entries: Vec<IndexEntry> = (0..DEVICES * MSGS_PER_RUN)
            .map(|i| entry(i, r, block))
            .collect();
        if shadowed && r > 0 {
            let shadow_ts = SHADOW_TS + block;
            entries.extend((0..DEVICES * MSGS_PER_RUN).map(|i| entry(i, 0, shadow_ts)));
        }
        idx.build_groomed_run(entries, block, block).unwrap();
    }
    assert_eq!(idx.candidate_runs().len() as i64, RUNS);
    (storage, idx)
}

/// An interior key of device `d` with message residue `residue`.
fn key(i: i64, d: i64, residue: i64) -> (Vec<Datum>, Vec<Datum>) {
    let j = 1 + i % (MSGS_PER_RUN - 2);
    (
        vec![Datum::Int64(d)],
        vec![Datum::Int64(j * STRIPE + residue)],
    )
}

type Answer = Option<(Bytes, u64, Bytes)>;

fn lookup(idx: &UmziIndex, key: &(Vec<Datum>, Vec<Datum>)) -> Result<Answer, UmziError> {
    lookup_at(idx, key, u64::MAX)
}

fn lookup_at(
    idx: &UmziIndex,
    (eq, sort): &(Vec<Datum>, Vec<Datum>),
    query_ts: u64,
) -> Result<Answer, UmziError> {
    Ok(idx
        .point_lookup(eq, sort, query_ts)?
        .map(|o| (o.key, o.begin_ts, o.value)))
}

/// The logical key of `key`, as the runs' filters and fences see it.
fn prefix_of(idx: &UmziIndex, (eq, sort): &(Vec<Datum>, Vec<Datum>)) -> Vec<u8> {
    let full = idx.layout().build_key(eq, sort, 0).unwrap();
    KeyLayout::logical_key(&full).to_vec()
}

/// A key paired with its message residue.
type ResidueKey = (i64, (Vec<Datum>, Vec<Datum>));

/// Every interior key of every device, for every residue (the absent one
/// included): `RUNS + 1` keys per (device, message slot), in no particular
/// order.
fn all_keys() -> Vec<ResidueKey> {
    let mut keys = Vec::new();
    for residue in 0..STRIPE {
        for i in 0..MSGS_PER_RUN - 2 {
            for d in 0..DEVICES {
                keys.push((residue, key(i, d, residue)));
            }
        }
    }
    keys
}

fn batch(idx: &UmziIndex, keys: &[ResidueKey]) -> Result<Vec<Answer>, UmziError> {
    let keys: Vec<_> = keys.iter().map(|(_, k)| k.clone()).collect();
    Ok(idx
        .batch_lookup(&keys, u64::MAX)?
        .into_iter()
        .map(|o| o.map(|o| (o.key, o.begin_ts, o.value)))
        .collect())
}

/// The newest visible version of every message of device `d` between the
/// bounds, under the priority-queue reconcile.
fn scan(
    idx: &UmziIndex,
    d: i64,
    lower: SortBound,
    upper: SortBound,
) -> Result<Vec<(Bytes, u64, Bytes)>, UmziError> {
    let query = RangeQuery {
        equality: vec![Datum::Int64(d)],
        lower,
        upper,
        query_ts: u64::MAX,
    };
    Ok(idx
        .range_scan(&query, ReconcileStrategy::PriorityQueue)?
        .into_iter()
        .map(|o| (o.key, o.begin_ts, o.value))
        .collect())
}

/// Every message of device `d`.
fn device_scan(idx: &UmziIndex, d: i64) -> Result<Vec<(Bytes, u64, Bytes)>, UmziError> {
    scan(idx, d, SortBound::Unbounded, SortBound::Unbounded)
}

/// The one message `key(5, d, 0)` names, which only the oldest run holds:
/// a range of at most one row per run, so no iterator reads past the block
/// it is positioned in and the scan's own readahead stages nothing.
fn one_row_scan(idx: &UmziIndex, d: i64) -> Result<Vec<(Bytes, u64, Bytes)>, UmziError> {
    let (_, sort) = key(5, d, 0);
    scan(
        idx,
        d,
        SortBound::Included(sort.clone()),
        SortBound::Included(sort),
    )
}

/// Every row of device `d` that `run` holds, read through the run's own
/// iterator: no positioning round stages its blocks, so past the blocks
/// its bound locates read, its range arrives as readahead.
fn run_device_scan(idx: &UmziIndex, run: &Run, d: i64) -> usize {
    let all = SortBound::Unbounded;
    let (lower, upper) = idx
        .layout()
        .query_range(&[Datum::Int64(d)], &all, &all)
        .unwrap();
    let rows = RunSearcher::new(run).scan(&lower, upper.as_deref(), None, u64::MAX);
    rows.unwrap().map(Result::unwrap).count()
}

/// Drop every run's data blocks from the RAM and SSD tiers.
fn purge_all(storage: &TieredStorage, idx: &UmziIndex) {
    for run in idx.candidate_runs() {
        storage.purge_object(run.handle()).unwrap();
    }
}

fn storage_error(e: &UmziError) -> Option<&StorageError> {
    match e {
        UmziError::Storage(s) | UmziError::Run(umzi_run::RunError::Storage(s)) => Some(s),
        _ => None,
    }
}

/// How many `get_range` calls were in flight at once, at most.
#[derive(Default)]
struct Flight {
    now: usize,
    peak: usize,
}

/// An object store that, while armed, holds each `get_range` until
/// `RUNS` of them are in flight at once — or 2 s pass — and records the
/// peak. A lookup that fetches one run at a time waits out the timeout on
/// every fetch and peaks at 1.
#[derive(Default)]
struct OverlapGate {
    inner: InMemoryObjectStore,
    armed: AtomicBool,
    flight: Mutex<Flight>,
    arrived: Condvar,
}

impl OverlapGate {
    fn hold(&self) {
        let mut f = self.flight.lock().unwrap();
        f.now += 1;
        f.peak = f.peak.max(f.now);
        self.arrived.notify_all();
        let (mut f, _) = self
            .arrived
            .wait_timeout_while(f, Duration::from_secs(2), |f| f.peak < RUNS as usize)
            .unwrap();
        f.now -= 1;
    }
}

impl ObjectStore for OverlapGate {
    fn put(&self, name: &str, data: Bytes) -> umzi_storage::Result<()> {
        self.inner.put(name, data)
    }
    fn get(&self, name: &str) -> umzi_storage::Result<Bytes> {
        self.inner.get(name)
    }
    fn get_range(&self, name: &str, offset: u64, len: usize) -> umzi_storage::Result<Bytes> {
        if self.armed.load(Ordering::SeqCst) {
            self.hold();
        }
        self.inner.get_range(name, offset, len)
    }
    fn len(&self, name: &str) -> umzi_storage::Result<u64> {
        self.inner.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn list(&self, prefix: &str) -> umzi_storage::Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, name: &str) -> umzi_storage::Result<()> {
        self.inner.delete(name)
    }
}

/// A key every run's filter passes but only the oldest of four purged runs
/// answers at the snapshot: the lookup's fetches of the four runs' blocks
/// are in flight at once, and the answer is the one the resident runs give.
#[test]
fn cold_lookup_overlaps_its_run_fetches() {
    let gate = Arc::new(OverlapGate::default());
    let (storage, idx) = shadowed_index(
        Arc::clone(&gate) as Arc<dyn ObjectStore>,
        256,
        RetryConfig::default(),
    );
    let k = key(5, 2, 0);
    let resident = lookup_at(&idx, &k, SNAPSHOT).unwrap();
    assert_eq!(
        resident.as_ref().map(|r| r.1),
        Some(1),
        "the oldest run's version"
    );
    purge_all(&storage, &idx);

    gate.armed.store(true, Ordering::SeqCst);
    let cold = lookup_at(&idx, &k, SNAPSHOT).unwrap();
    gate.armed.store(false, Ordering::SeqCst);
    assert_eq!(cold, resident);
    assert_eq!(gate.flight.lock().unwrap().peak, RUNS as usize);
    let s = storage.stats();
    assert_eq!(s.blocks_prefetched, RUNS as u64, "{s:?}");
    assert_eq!(
        s.prefetch_hits, RUNS as u64,
        "every staged block was probed"
    );
}

/// Over runs whose chunks are all local, lookups never stage, and each
/// block's first touch is the one verified-lookup miss it ever counts. With
/// one block per run, a lookup for residue `r` searches runs `RUNS - 1`
/// down to `r` (all of them for the absent residue) and reads the block of
/// each whose filter passes the key, so the hits are those blocks minus
/// one miss per run.
#[test]
fn warm_lookups_never_stage_and_count_each_miss_once() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        8 << 10,
        RetryConfig::default(),
    );
    for run in idx.candidate_runs() {
        assert_eq!(run.data_block_count(), 1);
        assert!(storage.is_fully_cached(run.handle()).unwrap());
    }
    let runs = idx.candidate_runs(); // newest first
    let before = storage.stats();
    let mut searched = 0;
    // The newest run's residue first, so the first lookups touch the runs
    // one at a time; every residue, the absent one included, after that.
    for (i, residue) in [RUNS - 1, 0, RUNS, 2, 1, 0, RUNS - 1]
        .into_iter()
        .cycle()
        .take(28)
        .enumerate()
    {
        let k = key(i as i64, i as i64 % DEVICES, residue);
        let hit = lookup(&idx, &k).unwrap();
        assert_eq!(hit.is_some(), residue != RUNS, "residue {residue}");
        let probe = prefix_of(&idx, &k);
        let probe = ProbeKey::new(&probe);
        let searched_runs = if residue == RUNS {
            RUNS
        } else {
            RUNS - residue
        } as usize;
        searched += runs[..searched_runs]
            .iter()
            .filter(|run| run.may_hold(&probe))
            .count() as u64;
    }
    let after = storage.stats();
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
    assert_eq!(after.shared.reads, before.shared.reads);
    let (hits, misses) = (
        after.decoded.point.hits - before.decoded.point.hits,
        after.decoded.point.misses - before.decoded.point.misses,
    );
    assert_eq!(misses, RUNS as u64, "one miss per block, counted once");
    assert_eq!(hits, searched - RUNS as u64);
}

/// With every `get_range` failing transiently half the time, cold lookups
/// retry — in the staging round and on demand alike — and still return
/// the resident answer.
#[test]
fn cold_lookup_under_transient_faults_returns_the_resident_answer() {
    let faults = Arc::new(FaultInjectingStore::new(
        Arc::new(InMemoryObjectStore::new()),
        FaultPlan::none().with_transient(FaultOp::GetRange, 0.5),
    ));
    faults.set_armed(false);
    let retry = RetryConfig {
        max_retries: 16,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let (storage, idx) = striped_index(Arc::clone(&faults) as Arc<dyn ObjectStore>, 256, retry);
    let keys: Vec<_> = (0..8).map(|i| key(i, i % DEVICES, i % STRIPE)).collect();
    let resident: Vec<Answer> = keys.iter().map(|k| lookup(&idx, k).unwrap()).collect();

    for (k, want) in keys.iter().zip(&resident) {
        purge_all(&storage, &idx);
        faults.set_armed(true);
        let got = lookup(&idx, k);
        faults.set_armed(false);
        assert_eq!(&got.unwrap(), want);
    }
    let s = storage.stats();
    assert!(faults.stats().injected[FaultOp::GetRange.index()] > 0);
    assert!(s.retries > 0 && s.blocks_prefetched > 0, "{s:?}");
    assert_eq!(s.retries_exhausted, 0);
}

/// Cancelled at its `n`-th cooperative checkpoint — for every `n` up to
/// one past the last — a cold lookup returns either the resident answer or
/// the typed `Cancelled`, and the next uncancelled lookup is exact.
#[test]
fn cancelled_cold_lookup_is_exact_or_typed_at_every_checkpoint() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    let k = key(3, 1, 0);
    let want = lookup(&idx, &k).unwrap();
    let mut finished = false;
    for n in 0..=64 {
        purge_all(&storage, &idx);
        let token = CancelToken::trip_after(n);
        let got = {
            let _g = context::enter(QueryContext::unbounded().with_cancel(token.clone()));
            lookup(&idx, &k)
        };
        match got {
            Ok(got) => {
                assert_eq!(got, want, "trip at checkpoint {n}");
                finished = !token.is_cancelled();
            }
            Err(e) => {
                let cancelled = matches!(storage_error(&e), Some(StorageError::Cancelled { .. }));
                assert!(cancelled, "trip at checkpoint {n}: untyped {e}");
            }
        }
        assert_eq!(lookup(&idx, &k).unwrap(), want, "after a trip at {n}");
        if finished {
            break;
        }
    }
    assert!(finished, "64 checkpoints never let the lookup finish");
}

/// Background work — the post-groomer's predecessor probe — never stages:
/// its cold lookup fetches one run at a time, as before.
#[test]
fn background_lookup_stages_nothing() {
    let (storage, idx) = shadowed_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    let k = key(5, 2, 0);
    let want = lookup_at(&idx, &k, SNAPSHOT).unwrap();
    purge_all(&storage, &idx);
    let before = storage.stats();
    let got = {
        let _g = context::enter(QueryContext::unbounded().with_priority(Priority::Background));
        lookup_at(&idx, &k, SNAPSHOT).unwrap()
    };
    assert_eq!(got, want);
    let after = storage.stats();
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
    assert!(after.shared.reads >= before.shared.reads + RUNS as u64);
}

/// A cold lookup stages, and reads, blocks only of runs whose key filter
/// passes the key: for a key held only by the oldest run, the newer runs
/// cost nothing but their false positives. Each run read costs its target
/// block, plus the next one where the key opens it.
#[test]
fn cold_lookup_fetches_only_runs_whose_filter_passes() {
    let store = Arc::new(RequestCounter::default());
    let (storage, idx) = striped_index(
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        256,
        RetryConfig::default(),
    );
    let runs = idx.candidate_runs(); // newest first
    let mut skipped = 0;
    for i in 0..MSGS_PER_RUN - 2 {
        let k = key(i, i % DEVICES, 0);
        let want = lookup(&idx, &k).unwrap();
        assert!(want.is_some());
        let prefix = prefix_of(&idx, &k);
        let probe = ProbeKey::new(&prefix);
        let passing: Vec<_> = runs.iter().filter(|run| run.may_hold(&probe)).collect();
        assert!(passing
            .last()
            .is_some_and(|run| Arc::ptr_eq(run, &runs[RUNS as usize - 1])));
        skipped += RUNS as usize - passing.len();
        let blocks: usize = passing
            .iter()
            .map(|run| {
                let fences = run.fence_keys().unwrap();
                let opens = fences[1..].iter().any(|f| f.starts_with(&prefix));
                1 + usize::from(opens)
            })
            .sum();

        purge_all(&storage, &idx);
        store.sizes.lock().unwrap().clear();
        assert_eq!(lookup(&idx, &k).unwrap(), want);
        let fetched: usize = store.sizes.lock().unwrap().iter().map(|&(r, _)| r).sum();
        assert_eq!(fetched, blocks, "key {i}: {passing:?}");
    }
    // Nearly every newer run is skipped (the filters pass ~2.5 % of keys
    // they do not hold).
    let newer = (RUNS as usize - 1) * (MSGS_PER_RUN - 2) as usize;
    assert!(
        skipped * 10 >= newer * 9,
        "{skipped} of {newer} runs skipped"
    );
}

/// With the block-fetch breaker open, a cold lookup stages nothing: it
/// issues no store operation and is refused exactly once, on its demand
/// fetch, as it was before staging existed.
#[test]
fn open_breaker_stages_nothing() {
    let faults = Arc::new(FaultInjectingStore::new(
        Arc::new(InMemoryObjectStore::new()),
        FaultPlan::none().with_transient(FaultOp::GetRange, 1.0),
    ));
    faults.set_armed(false);
    let retry = RetryConfig {
        max_retries: 0,
        ..RetryConfig::default()
    };
    let (storage, idx) = striped_index(Arc::clone(&faults) as Arc<dyn ObjectStore>, 256, retry);
    purge_all(&storage, &idx);
    faults.set_armed(true);
    let oldest = idx.candidate_runs().pop().unwrap();
    // The chunk of the oldest run's first data block.
    let chunk = oldest.header().header_chunks;
    for _ in 0..BREAKER_FAILURE_THRESHOLD {
        assert!(storage.read_chunk(oldest.handle(), chunk).is_err());
    }
    let breaker = storage.breaker();
    assert_eq!(breaker.state(OpClass::BlockFetch), BreakerState::Open);

    let (ops, before) = (faults.stats().ops, storage.stats());
    let err = lookup(&idx, &key(5, 2, 0)).unwrap_err();
    assert!(
        matches!(storage_error(&err), Some(StorageError::Unavailable { .. })),
        "{err}"
    );
    let after = storage.stats();
    let class = OpClass::BlockFetch.index();
    assert_eq!(faults.stats().ops, ops, "no store operation");
    assert_eq!(
        after.breaker_rejections[class] - before.breaker_rejections[class],
        1,
        "only the demand fetch reached the breaker"
    );
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
}

/// An object store that counts shared-store read requests: one per
/// `get_range`, and one per `get_ranges` batch however many ranges it
/// holds — the unit a latency model charges. `singles` counts the
/// `get_range` calls alone, and `sizes` logs each request's range count
/// and bytes.
#[derive(Default)]
struct RequestCounter {
    inner: InMemoryObjectStore,
    requests: AtomicUsize,
    singles: AtomicUsize,
    sizes: Mutex<Vec<(usize, usize)>>,
}

impl RequestCounter {
    fn log(&self, ranges: usize, bytes: usize) {
        self.requests.fetch_add(1, Ordering::SeqCst);
        self.sizes.lock().unwrap().push((ranges, bytes));
    }
}

impl ObjectStore for RequestCounter {
    fn put(&self, name: &str, data: Bytes) -> umzi_storage::Result<()> {
        self.inner.put(name, data)
    }
    fn get(&self, name: &str) -> umzi_storage::Result<Bytes> {
        self.inner.get(name)
    }
    fn get_range(&self, name: &str, offset: u64, len: usize) -> umzi_storage::Result<Bytes> {
        self.singles.fetch_add(1, Ordering::SeqCst);
        let data = self.inner.get_range(name, offset, len)?;
        self.log(1, data.len());
        Ok(data)
    }
    fn get_ranges(&self, name: &str, ranges: &[(u64, usize)]) -> umzi_storage::Result<Vec<Bytes>> {
        let data = self.inner.get_ranges(name, ranges)?;
        self.log(ranges.len(), data.iter().map(Bytes::len).sum());
        Ok(data)
    }
    fn len(&self, name: &str) -> umzi_storage::Result<u64> {
        self.inner.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn list(&self, prefix: &str) -> umzi_storage::Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, name: &str) -> umzi_storage::Result<()> {
        self.inner.delete(name)
    }
}

/// A batch over purged multi-block runs fetches each claim's blocks in one
/// request. Newest first, run `r` sees the keys no newer run holds and its
/// filter passes. They read first `K` distinct blocks of it, and a key that
/// opens a block reads on into it; a claim stages both kinds, so if the
/// keys read `B` distinct blocks in all, the run's claims are at most
/// ⌈B / 16⌉ requests. A batch fetching block by block costs at least `K`
/// requests per run.
#[test]
fn cold_batch_fetches_each_claim_window_in_one_request() {
    let store = Arc::new(RequestCounter::default());
    let (storage, idx) = striped_index(
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        128,
        RetryConfig::default(),
    );
    let keys = all_keys();
    let resident = batch(&idx, &keys).unwrap();
    assert_eq!(
        resident.iter().filter(|a| a.is_some()).count(),
        keys.iter().filter(|(r, _)| *r != RUNS).count()
    );

    let (mut bound, mut block_by_block) = (0, 0);
    for (run, r) in idx.candidate_runs().iter().zip((0..RUNS).rev()) {
        // The probes no newer run resolved and this run's filter passes.
        let prefixes: Vec<Vec<u8>> = keys
            .iter()
            .filter(|(residue, _)| *residue <= r || *residue == RUNS)
            .map(|(_, k)| prefix_of(&idx, k))
            .filter(|p| run.may_hold(&ProbeKey::new(p)))
            .collect();
        let targets: BTreeSet<u32> = prefixes
            .iter()
            .map(|p| run.probe_block(p).unwrap())
            .collect();
        let fences = run.fence_keys().unwrap();
        let opened: BTreeSet<u32> = (1..fences.len() as u32)
            .filter(|&b| {
                let logical = KeyLayout::logical_key(&fences[b as usize]);
                prefixes.iter().any(|p| p.as_slice() == logical)
            })
            .collect();
        bound += targets
            .union(&opened)
            .count()
            .div_ceil(READAHEAD_DEPTH as usize);
        block_by_block += targets.len();
    }
    assert!(
        2 * bound < block_by_block,
        "the fixture must tell claims from single-block fetches: {bound} vs {block_by_block}"
    );

    purge_all(&storage, &idx);
    let before = store.requests.load(Ordering::SeqCst);
    let cold = batch(&idx, &keys).unwrap();
    let requests = store.requests.load(Ordering::SeqCst) - before;
    assert_eq!(cold, resident);
    assert!(
        requests <= bound,
        "{requests} shared-store requests, bound {bound} ({block_by_block} target blocks)"
    );
    assert!(storage.stats().blocks_prefetched > 0);
    eprintln!("{requests} requests, bound {bound}, {block_by_block} target blocks");
}

/// Run `f` over purged runs and check that every shared-store request it
/// issues lands in the SSD tier as one write: the tier is charged
/// `SSD_LATENCY.charge(bytes)` once per request, for the request's bytes,
/// and `f` reads nothing from it. Returns the requests as `(ranges,
/// bytes)`. A tier written a chunk at a time is charged `n` writes for a
/// request of `n` ranges, so a request of two or more tells them apart.
fn one_ssd_write_per_request(
    storage: &TieredStorage,
    store: &RequestCounter,
    f: impl FnOnce(),
) -> Vec<(usize, usize)> {
    store.sizes.lock().unwrap().clear();
    let before = storage.stats();
    f();
    let after = storage.stats();
    let sizes = store.sizes.lock().unwrap().clone();
    assert_eq!(
        after.ssd.hits, before.ssd.hits,
        "an SSD read is charged too"
    );
    let want = sizes
        .iter()
        .map(|&(_, bytes)| SSD_LATENCY.charge(bytes))
        .sum();
    assert_eq!(
        after.ssd_charged_latency - before.ssd_charged_latency,
        want,
        "one SSD write per request: {sizes:?}"
    );
    sizes
}

/// A cold batch writes each claim's staged blocks to the SSD tier in one
/// write, as it fetched them in one request.
#[test]
fn cold_batch_writes_each_claim_window_to_ssd_once() {
    let store = Arc::new(RequestCounter::default());
    let (storage, idx) = striped_index(
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        128,
        RetryConfig::default(),
    );
    let keys = all_keys();
    let resident = batch(&idx, &keys).unwrap();
    purge_all(&storage, &idx);
    let sizes = one_ssd_write_per_request(&storage, &store, || {
        assert_eq!(batch(&idx, &keys).unwrap(), resident);
    });
    assert!(
        sizes.iter().any(|&(ranges, _)| ranges > 1),
        "no claim staged two blocks: {sizes:?}"
    );
}

/// A cold scan writes each staged window to the SSD tier in one write:
/// each run's positioning window, and each readahead window of its
/// iterator. A run scanned on its own, without the index's positioning
/// round, fetches the blocks its bound locates read on demand, and the rest
/// of its range arrives as one readahead window. Under
/// `Priority::Background` nothing is staged: each block is a request, and
/// a write, of its own.
#[test]
fn cold_scan_writes_each_readahead_window_to_ssd_once() {
    let store = Arc::new(RequestCounter::default());
    let (storage, idx) = striped_index(
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        128,
        RetryConfig::default(),
    );
    let resident = device_scan(&idx, 2).unwrap();
    let windows = |sizes: &[(usize, usize)]| sizes.iter().filter(|&&(r, _)| r > 1).count();
    for priority in [Priority::Interactive, Priority::Background] {
        purge_all(&storage, &idx);
        let sizes = one_ssd_write_per_request(&storage, &store, || {
            let _g = context::enter(QueryContext::unbounded().with_priority(priority));
            assert_eq!(device_scan(&idx, 2).unwrap(), resident);
        });
        let want = if priority == Priority::Interactive {
            RUNS as usize
        } else {
            0
        };
        assert_eq!(windows(&sizes), want, "{priority:?}: {sizes:?}");
    }

    purge_all(&storage, &idx);
    let sizes = one_ssd_write_per_request(&storage, &store, || {
        for run in idx.candidate_runs() {
            assert_eq!(run_device_scan(&idx, &run, 2) as i64, MSGS_PER_RUN);
        }
    });
    assert_eq!(windows(&sizes), RUNS as usize, "readahead: {sizes:?}");
}

/// A staged block lands unverified, and the read that consumes it is the
/// one place it is verified, parsed and admitted as a verified block. So a
/// cold scan admits each block once, each admission on a verified-lookup
/// miss of its own read, and consumes every block it staged through a
/// chunk read.
#[test]
fn staged_blocks_are_decoded_only_by_the_read_that_consumes_them() {
    let store = Arc::new(RequestCounter::default());
    let (storage, idx) = striped_index(
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        128,
        RetryConfig::default(),
    );
    let resident = device_scan(&idx, 2).unwrap();
    purge_all(&storage, &idx);
    let before = storage.stats();
    for run in idx.candidate_runs() {
        assert_eq!(run_device_scan(&idx, &run, 2) as i64, MSGS_PER_RUN);
    }
    let after = storage.stats();
    let (staged, decoded) = (
        after.blocks_prefetched - before.blocks_prefetched,
        &after.decoded,
    );
    assert!(staged >= RUNS as u64 * 2, "readahead staged: {after:?}");
    assert_eq!(after.prefetch_hits - before.prefetch_hits, staged);
    let admitted = decoded.insertions - before.decoded.insertions;
    assert_eq!(decoded.entries, admitted, "a block admitted twice");
    assert_eq!(
        decoded.scan.misses - before.decoded.scan.misses,
        admitted,
        "a block admitted without a read of its own"
    );
    assert_eq!(device_scan(&idx, 2).unwrap(), resident);
}

/// A staged chunk lands unverified, so a bit flipped in its batched fetch
/// is caught by the first read of it: that read re-fetches the chunk once,
/// and the rows come out right. The block is verified from then on, and a
/// second scan issues no chunk read at all.
#[test]
fn flipped_bit_in_a_staged_chunk_is_caught_by_its_first_read() {
    let faults = Arc::new(FaultInjectingStore::new(
        Arc::new(InMemoryObjectStore::new()),
        FaultPlan::none().with_event(FaultEvent::BitFlipAt { nth: 1 }),
    ));
    let (storage, idx) = striped_index(
        Arc::clone(&faults) as Arc<dyn ObjectStore>,
        128,
        RetryConfig::default(),
    );
    let resident = device_scan(&idx, 2).unwrap();
    purge_all(&storage, &idx);
    assert_eq!(
        faults.stats().bit_flips,
        0,
        "no shared read before the scan"
    );

    let before = storage.stats();
    assert_eq!(device_scan(&idx, 2).unwrap(), resident);
    let after = storage.stats();
    assert_eq!(faults.stats().bit_flips, 1, "the first shared read flipped");
    assert!(
        after.blocks_prefetched > before.blocks_prefetched,
        "{after:?}"
    );
    assert_eq!(after.corruption_refetches - before.corruption_refetches, 1);

    assert_eq!(device_scan(&idx, 2).unwrap(), resident);
    let again = storage.stats();
    assert_eq!(again.chunk_reads, after.chunk_reads, "{again:?}");
    assert_eq!(again.corruption_refetches, after.corruption_refetches);
}

/// Over runs whose chunks are all local, a batch never stages and issues
/// no shared-store read.
#[test]
fn warm_batch_stages_nothing() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    for run in idx.candidate_runs() {
        assert!(run.data_block_count() > 1);
        assert!(storage.is_fully_cached(run.handle()).unwrap());
    }
    let keys = all_keys();
    let before = storage.stats();
    let first = batch(&idx, &keys).unwrap();
    assert_eq!(batch(&idx, &keys).unwrap(), first);
    let after = storage.stats();
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
    assert_eq!(after.shared.reads, before.shared.reads);
}

/// Background work — the post-groomer's predecessor probes — never stages:
/// its cold batch fetches block by block, as before.
#[test]
fn background_batch_stages_nothing() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    let keys = all_keys();
    let want = batch(&idx, &keys).unwrap();
    purge_all(&storage, &idx);
    let before = storage.stats();
    let got = {
        let _g = context::enter(QueryContext::unbounded().with_priority(Priority::Background));
        batch(&idx, &keys).unwrap()
    };
    assert_eq!(got, want);
    let after = storage.stats();
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
    assert!(after.shared.reads >= before.shared.reads + RUNS as u64);
}

/// With the block-fetch breaker open, a cold batch stages nothing: it
/// issues no store operation and is refused on its demand fetches.
#[test]
fn open_breaker_batch_stages_nothing() {
    let faults = Arc::new(FaultInjectingStore::new(
        Arc::new(InMemoryObjectStore::new()),
        FaultPlan::none().with_transient(FaultOp::GetRange, 1.0),
    ));
    faults.set_armed(false);
    let retry = RetryConfig {
        max_retries: 0,
        ..RetryConfig::default()
    };
    let (storage, idx) = striped_index(Arc::clone(&faults) as Arc<dyn ObjectStore>, 256, retry);
    purge_all(&storage, &idx);
    faults.set_armed(true);
    let oldest = idx.candidate_runs().pop().unwrap();
    let chunk = oldest.header().header_chunks;
    for _ in 0..BREAKER_FAILURE_THRESHOLD {
        assert!(storage.read_chunk(oldest.handle(), chunk).is_err());
    }
    assert_eq!(
        storage.breaker().state(OpClass::BlockFetch),
        BreakerState::Open
    );

    let (ops, before) = (faults.stats().ops, storage.stats());
    let err = batch(&idx, &all_keys()).unwrap_err();
    assert!(
        matches!(storage_error(&err), Some(StorageError::Unavailable { .. })),
        "{err}"
    );
    let after = storage.stats();
    let class = OpClass::BlockFetch.index();
    assert_eq!(faults.stats().ops, ops, "no store operation");
    assert!(after.breaker_rejections[class] > before.breaker_rejections[class]);
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
}

/// With `get_range` failing transiently, cold batches retry — their staged
/// reads and demand fetches alike — and still return the resident answers.
/// A staged read fails if any of its ranges does, so the fault rate is low
/// enough that a sixteen-range read gets through within its retries.
#[test]
fn cold_batch_under_transient_faults_returns_the_resident_answers() {
    let faults = Arc::new(FaultInjectingStore::new(
        Arc::new(InMemoryObjectStore::new()),
        FaultPlan::none().with_transient(FaultOp::GetRange, 0.03),
    ));
    faults.set_armed(false);
    let retry = RetryConfig {
        max_retries: 16,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let (storage, idx) = striped_index(Arc::clone(&faults) as Arc<dyn ObjectStore>, 256, retry);
    let keys = all_keys();
    let resident = batch(&idx, &keys).unwrap();
    for _ in 0..6 {
        purge_all(&storage, &idx);
        faults.set_armed(true);
        let got = batch(&idx, &keys);
        faults.set_armed(false);
        assert_eq!(got.unwrap(), resident);
    }
    let s = storage.stats();
    assert!(faults.stats().injected[FaultOp::GetRange.index()] > 0);
    assert!(s.retries > 0 && s.blocks_prefetched > 0, "{s:?}");
    assert_eq!(s.retries_exhausted, 0);
}

/// Cancelled at its `n`-th cooperative checkpoint — for every `n` until it
/// finishes — a cold batch returns either the resident answers or the
/// typed `Cancelled`, and the next uncancelled batch is exact.
#[test]
fn cancelled_cold_batch_is_exact_or_typed_at_every_checkpoint() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    let keys = all_keys();
    let want = batch(&idx, &keys).unwrap();
    let mut finished = false;
    for n in 0..=4096 {
        purge_all(&storage, &idx);
        let token = CancelToken::trip_after(n);
        let got = {
            let _g = context::enter(QueryContext::unbounded().with_cancel(token.clone()));
            batch(&idx, &keys)
        };
        match got {
            Ok(got) => {
                assert_eq!(got, want, "trip at checkpoint {n}");
                finished = !token.is_cancelled();
            }
            Err(e) => {
                let cancelled = matches!(storage_error(&e), Some(StorageError::Cancelled { .. }));
                assert!(cancelled, "trip at checkpoint {n}: untyped {e}");
            }
        }
        assert_eq!(batch(&idx, &keys).unwrap(), want, "after a trip at {n}");
        if finished {
            break;
        }
    }
    assert!(finished, "4096 checkpoints never let the batch finish");
}

/// A one-device scan over four purged runs: the fetches of the four runs'
/// bound blocks are in flight at once, the answer is the resident one, and
/// every staged block is read.
#[test]
fn cold_scan_overlaps_its_run_fetches() {
    let gate = Arc::new(OverlapGate::default());
    let (storage, idx) = striped_index(
        Arc::clone(&gate) as Arc<dyn ObjectStore>,
        256,
        RetryConfig::default(),
    );
    let resident = device_scan(&idx, 2).unwrap();
    assert_eq!(resident.len() as i64, RUNS * MSGS_PER_RUN);
    purge_all(&storage, &idx);

    gate.armed.store(true, Ordering::SeqCst);
    let cold = device_scan(&idx, 2).unwrap();
    gate.armed.store(false, Ordering::SeqCst);
    assert_eq!(cold, resident);
    assert_eq!(gate.flight.lock().unwrap().peak, RUNS as usize);
    let s = storage.stats();
    assert!(s.blocks_prefetched >= RUNS as u64, "{s:?}");
    assert_eq!(
        s.blocks_prefetched, s.prefetch_hits,
        "every staged block was read"
    );
}

/// A cold one-device scan positions without a single-block fetch: each
/// run's bound blocks, and with them every block its iterator reads, arrive
/// in one batched request per run.
#[test]
fn cold_scan_positions_each_run_in_one_request() {
    let store = Arc::new(RequestCounter::default());
    let (storage, idx) = striped_index(
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        256,
        RetryConfig::default(),
    );
    for run in idx.candidate_runs() {
        assert!(run.data_block_count() > 1);
    }
    let resident = device_scan(&idx, 2).unwrap();
    purge_all(&storage, &idx);
    let (requests, singles) = (
        store.requests.load(Ordering::SeqCst),
        store.singles.load(Ordering::SeqCst),
    );
    assert_eq!(device_scan(&idx, 2).unwrap(), resident);
    assert_eq!(
        store.singles.load(Ordering::SeqCst) - singles,
        0,
        "a positioning get_range"
    );
    assert_eq!(
        store.requests.load(Ordering::SeqCst) - requests,
        RUNS as usize
    );
    let s = storage.stats();
    assert_eq!(s.blocks_prefetched, s.prefetch_hits, "{s:?}");
}

/// Over runs whose chunks are all local, scans never stage and issue no
/// shared-store read.
#[test]
fn warm_scan_stages_nothing() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    for run in idx.candidate_runs() {
        assert!(storage.is_fully_cached(run.handle()).unwrap());
    }
    let before = storage.stats();
    for d in 0..DEVICES {
        let first = device_scan(&idx, d).unwrap();
        assert_eq!(device_scan(&idx, d).unwrap(), first);
        assert_eq!(one_row_scan(&idx, d).unwrap().len(), 1);
    }
    let after = storage.stats();
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
    assert_eq!(after.shared.reads, before.shared.reads);
}

/// Background work never stages: neither a cold scan's positioning — a
/// scan of one row per run fetches each run's block on demand, one at a
/// time — nor the readahead of a scan whose rows span several blocks of
/// each run.
#[test]
fn background_scan_stages_nothing() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    let want = one_row_scan(&idx, 2).unwrap();
    assert_eq!(want.len(), 1);
    let device = device_scan(&idx, 2).unwrap();
    purge_all(&storage, &idx);
    let before = storage.stats();
    let got = {
        let _g = context::enter(QueryContext::unbounded().with_priority(Priority::Background));
        one_row_scan(&idx, 2).unwrap()
    };
    assert_eq!(got, want);
    let after = storage.stats();
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
    assert!(after.shared.reads >= before.shared.reads + RUNS as u64);

    purge_all(&storage, &idx);
    let got = {
        let _g = context::enter(QueryContext::unbounded().with_priority(Priority::Background));
        device_scan(&idx, 2).unwrap()
    };
    assert_eq!(got, device);
    let after = storage.stats();
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);

    // The same scan in the foreground stages one block per run.
    purge_all(&storage, &idx);
    assert_eq!(one_row_scan(&idx, 2).unwrap(), want);
    assert!(storage.stats().blocks_prefetched >= after.blocks_prefetched + RUNS as u64);
}

/// With the block-fetch breaker open, a cold scan stages nothing: it
/// issues no store operation and is refused with the typed `Unavailable`.
#[test]
fn open_breaker_scan_stages_nothing() {
    let faults = Arc::new(FaultInjectingStore::new(
        Arc::new(InMemoryObjectStore::new()),
        FaultPlan::none().with_transient(FaultOp::GetRange, 1.0),
    ));
    faults.set_armed(false);
    let retry = RetryConfig {
        max_retries: 0,
        ..RetryConfig::default()
    };
    let (storage, idx) = striped_index(Arc::clone(&faults) as Arc<dyn ObjectStore>, 256, retry);
    purge_all(&storage, &idx);
    faults.set_armed(true);
    let oldest = idx.candidate_runs().pop().unwrap();
    let chunk = oldest.header().header_chunks;
    for _ in 0..BREAKER_FAILURE_THRESHOLD {
        assert!(storage.read_chunk(oldest.handle(), chunk).is_err());
    }
    assert_eq!(
        storage.breaker().state(OpClass::BlockFetch),
        BreakerState::Open
    );

    let (ops, before) = (faults.stats().ops, storage.stats());
    let err = device_scan(&idx, 2).unwrap_err();
    assert!(
        matches!(storage_error(&err), Some(StorageError::Unavailable { .. })),
        "{err}"
    );
    let after = storage.stats();
    let class = OpClass::BlockFetch.index();
    assert_eq!(faults.stats().ops, ops, "no store operation");
    assert!(after.breaker_rejections[class] > before.breaker_rejections[class]);
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
}

/// With the block-fetch breaker open, a scan over runs whose blocks are
/// verified in RAM but whose chunks have left the SSD is served from RAM:
/// neither its positioning nor its readahead stages, issues a store
/// operation or spends a breaker rejection.
#[test]
fn open_breaker_decoded_scan_stages_nothing() {
    let faults = Arc::new(FaultInjectingStore::new(
        Arc::new(InMemoryObjectStore::new()),
        FaultPlan::none().with_transient(FaultOp::GetRange, 1.0),
    ));
    faults.set_armed(false);
    let retry = RetryConfig {
        max_retries: 0,
        ..RetryConfig::default()
    };
    let (storage, idx) = striped_index(Arc::clone(&faults) as Arc<dyn ObjectStore>, 256, retry);
    let want = device_scan(&idx, 2).unwrap();
    for run in idx.candidate_runs() {
        let (h, data) = (run.handle().raw(), run.header().header_chunks);
        storage.ssd_tier().remove_object_chunks(h, data);
    }
    // The breaker trips on a cold object of its own: every block the scan
    // reads is resident.
    let bytes = Bytes::from(vec![0u8; 512]);
    let cold = storage
        .create_object("cold", bytes, Durability::Persisted, 1, false)
        .unwrap();
    faults.set_armed(true);
    for _ in 0..BREAKER_FAILURE_THRESHOLD {
        assert!(storage.read_chunk(cold, 1).is_err());
    }
    assert_eq!(
        storage.breaker().state(OpClass::BlockFetch),
        BreakerState::Open
    );

    let (ops, before) = (faults.stats().ops, storage.stats());
    assert_eq!(device_scan(&idx, 2).unwrap(), want);
    let after = storage.stats();
    assert_eq!(faults.stats().ops, ops, "no store operation");
    assert_eq!(after.breaker_rejections, before.breaker_rejections);
    assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
}

/// A cold scan whose query is already cancelled, or past its deadline,
/// stages nothing — no positioning round, no readahead — issues no shared
/// read, and fails with the typed abort.
#[test]
fn aborted_cold_scan_stages_nothing() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    let aborted = [
        QueryContext::unbounded().with_cancel(CancelToken::trip_after(0)),
        QueryContext::deadline_at(std::time::Instant::now()),
    ];
    for ctx in aborted {
        purge_all(&storage, &idx);
        let before = storage.stats();
        let err = {
            let _g = context::enter(ctx);
            device_scan(&idx, 2).unwrap_err()
        };
        assert!(
            storage_error(&err).is_some_and(StorageError::is_query_abort),
            "{err}"
        );
        let after = storage.stats();
        assert_eq!(after.shared.reads, before.shared.reads);
        assert_eq!(after.blocks_prefetched, before.blocks_prefetched);
    }
}

/// Cancelled at its `n`-th cooperative checkpoint — for every `n` until it
/// finishes — a cold scan returns either the resident rows or the typed
/// `Cancelled`, and the next uncancelled scan is exact.
#[test]
fn cancelled_cold_scan_is_exact_or_typed_at_every_checkpoint() {
    let (storage, idx) = striped_index(
        Arc::new(InMemoryObjectStore::new()),
        256,
        RetryConfig::default(),
    );
    let want = device_scan(&idx, 1).unwrap();
    let mut finished = false;
    for n in 0..=256 {
        purge_all(&storage, &idx);
        let token = CancelToken::trip_after(n);
        let got = {
            let _g = context::enter(QueryContext::unbounded().with_cancel(token.clone()));
            device_scan(&idx, 1)
        };
        match got {
            Ok(got) => {
                assert_eq!(got, want, "trip at checkpoint {n}");
                finished = !token.is_cancelled();
            }
            Err(e) => {
                let cancelled = matches!(storage_error(&e), Some(StorageError::Cancelled { .. }));
                assert!(cancelled, "trip at checkpoint {n}: untyped {e}");
            }
        }
        assert_eq!(device_scan(&idx, 1).unwrap(), want, "after a trip at {n}");
        if finished {
            break;
        }
    }
    assert!(finished, "256 checkpoints never let the scan finish");
}
