//! The system under test. Every engine, index, run and storage call the
//! benchmark makes is in this file; the rest of the benchmark sees keys,
//! payloads, counters and `Timed` results only. `README.md` lists the
//! entry points used, so a PR that changes one of them knows what to follow.
//!
//! Each operation builds its arguments first and reads the clock right
//! around the engine call, so a latency never includes the benchmark's own
//! row building or checking.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use umzi::core::{
    JobKind, MaintenanceDaemon, QueryOutput, RangeQuery, ReconcileStrategy, UmziIndex,
};
use umzi::encoding::{hash_prefix, Datum};
use umzi::run::synopsis::encode_eq_values;
use umzi::run::{
    IndexEntry, KeyLayout, Rid, Run, RunBuilder, RunParams, RunSearcher, SortBound, ZoneId,
};
use umzi::storage::{
    DecodedCacheConfig, Durability, InMemoryObjectStore, LatencyMode, LatencyModel, SharedStorage,
    TierLatency, TieredConfig, TieredStorage,
};
use umzi::wildfire::{
    iot_table, EngineConfig, EngineDaemons, Freshness, RecordView, Shard, WildfireEngine,
};

use crate::gen::{key_of, key_parts, payload, payload_parts, MSG_STRIDE};

/// The `date` partition column is constant: the benchmark has one partition.
const DATE: i64 = 20_190_326;

/// One call into the engine: when it started, when it returned, and what it
/// returned. An `Err` is a typed engine error, kept as text.
pub struct Timed<T> {
    pub t0: Instant,
    pub t1: Instant,
    pub out: Result<T, String>,
}

fn timed<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Timed<T> {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    Timed {
        t0,
        t1,
        out: out.map_err(|e| e.to_string()),
    }
}

impl<T> Timed<T> {
    pub fn ns(&self) -> u64 {
        (self.t1 - self.t0).as_nanos() as u64
    }

    fn map<U>(self, f: impl FnOnce(T) -> Result<U, String>) -> Timed<U> {
        Timed {
            t0: self.t0,
            t1: self.t1,
            out: self.out.and_then(f),
        }
    }
}

/// Cache sizes of the cold hierarchy (`read_cold`).
#[derive(Clone, Copy, Debug)]
pub struct ColdSizes {
    pub mem_bytes: u64,
    pub ssd_bytes: u64,
    pub decoded_bytes: u64,
}

/// How the storage hierarchy over the object store is configured. Fields
/// not named keep the shipped defaults, so a changed default is measured.
#[derive(Clone, Copy, Debug)]
pub enum Hierarchy {
    /// Default `TieredConfig`: zero latency, caches larger than the data.
    Warm,
    /// Sleeping latency model and caches smaller than the data.
    Cold(ColdSizes),
}

impl Hierarchy {
    fn config(self) -> TieredConfig {
        match self {
            Hierarchy::Warm => TieredConfig::default(),
            Hierarchy::Cold(s) => TieredConfig {
                shared_latency: TierLatency::micros(2000, 20),
                ssd_latency: TierLatency::micros(100, 1),
                latency_mode: LatencyMode::Sleep,
                mem_capacity: s.mem_bytes,
                ssd_capacity: s.ssd_bytes,
                decoded_cache: DecodedCacheConfig {
                    capacity_bytes: s.decoded_bytes,
                    ..DecodedCacheConfig::default()
                },
                ..TieredConfig::default()
            },
        }
    }

    fn storage(self, store: &Arc<InMemoryObjectStore>) -> Arc<TieredStorage> {
        let cfg = self.config();
        let shared = SharedStorage::new(
            Arc::clone(store) as Arc<_>,
            LatencyModel::new(cfg.shared_latency, cfg.latency_mode),
        );
        Arc::new(TieredStorage::new(shared, cfg))
    }
}

/// Who drives groom, merge, post-groom and evolve.
#[derive(Clone, Copy, Debug)]
pub enum Maintenance {
    /// Nobody in the background: the benchmark calls each step itself.
    Inline,
    /// The engine's daemons, with this post-groom period.
    Daemons { post_groom_interval: Duration },
}

impl Maintenance {
    fn config(self) -> EngineConfig {
        match self {
            Maintenance::Inline => EngineConfig {
                maintenance: None,
                ..EngineConfig::default()
            },
            Maintenance::Daemons {
                post_groom_interval,
            } => EngineConfig {
                post_groom_interval,
                ..EngineConfig::default()
            },
        }
    }
}

/// The bytes that reached shared storage: all that survives dropping an
/// engine.
pub struct DurableStore(Arc<InMemoryObjectStore>);

/// Monotonic counters of every layer, flattened from `StorageStats`,
/// `IndexStats` and `EngineHealth`. Phases report differences of two.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub chunk_reads: u64,
    pub mem_hits: u64,
    pub mem_misses: u64,
    pub ssd_hits: u64,
    pub ssd_misses: u64,
    pub shared_reads: u64,
    pub shared_puts: u64,
    pub shared_deletes: u64,
    pub shared_bytes_read: u64,
    pub shared_bytes_written: u64,
    pub shared_wait_ns: u64,
    pub ssd_wait_ns: u64,
    pub decoded_hits: u64,
    pub decoded_point_hits: u64,
    pub decoded_point_misses: u64,
    pub decoded_scan_hits: u64,
    pub decoded_scan_misses: u64,
    pub decoded_evictions: u64,
    pub admission_rejected: u64,
    pub retries: u64,
    pub retries_exhausted: u64,
    pub blocks_prefetched: u64,
    pub prefetch_hits: u64,
    pub prefetch_wasted: u64,
    pub merges: u64,
    pub evolves: u64,
    pub parallel_scans: u64,
    pub scan_partitions: u64,
    pub sheds: u64,
    pub timeouts: u64,
}

impl Counters {
    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, |a, b| a - b)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        macro_rules! zip {
            ($($f:ident),*) => { Counters { $($f: f(self.$f, other.$f)),* } };
        }
        zip!(
            chunk_reads,
            mem_hits,
            mem_misses,
            ssd_hits,
            ssd_misses,
            shared_reads,
            shared_puts,
            shared_deletes,
            shared_bytes_read,
            shared_bytes_written,
            shared_wait_ns,
            ssd_wait_ns,
            decoded_hits,
            decoded_point_hits,
            decoded_point_misses,
            decoded_scan_hits,
            decoded_scan_misses,
            decoded_evictions,
            admission_rejected,
            retries,
            retries_exhausted,
            blocks_prefetched,
            prefetch_hits,
            prefetch_wasted,
            merges,
            evolves,
            parallel_scans,
            scan_partitions,
            sheds,
            timeouts
        )
    }
}

/// The index's run structure at one moment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunShape {
    pub runs_groomed: u64,
    pub runs_post_groomed: u64,
    pub entries: u64,
    pub bytes: u64,
    /// `(level, runs)` pairs, ascending.
    pub levels: Vec<(u32, u64)>,
}

/// What the maintenance daemon did, read when it is shut down.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonReport {
    pub workers: u64,
    pub busy_ns: u64,
    pub groom_busy_ns: u64,
    pub groom_rows: u64,
    pub groom_bytes: u64,
    pub merge_busy_ns: u64,
    pub merge_bytes: u64,
    pub evolve_busy_ns: u64,
    pub gc_busy_ns: u64,
    pub stalls: u64,
    pub stall_ns: u64,
    pub queue_peak_depth: u64,
    pub groom_peak_dequeue_age: u64,
}

/// One returned row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    pub device: i64,
    pub msg: i64,
    pub payload: i64,
}

/// What a `scan_records` returned, reduced to what the oracle checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanDigest {
    pub rows: u64,
    /// All rows on the scanned device, `msg` rising by exactly one per row,
    /// and every payload carrying its own row's key.
    pub well_formed: bool,
    pub first_msg: i64,
    /// Wrapping sum of payloads.
    pub payload_sum: u64,
    pub max_version: u16,
}

/// A probe key encoded once, so that run-level spans exclude encoding.
pub struct Probe {
    prefix: Vec<u8>,
    hash: u64,
    eq_encoded: Vec<Vec<u8>>,
    bound: SortBound,
}

/// An opaque record ID from a lookup, to hand back to `fetch_row`.
#[derive(Clone, Copy)]
pub struct RidToken(Rid);

/// An opaque handle on one index run.
#[derive(Clone)]
pub struct RunRef(Arc<Run>);

impl RunRef {
    pub fn entries(&self) -> u64 {
        self.0.entry_count()
    }
}

/// Index-only scan output, to hand back to `decode_outputs` / `fetch_rows`.
pub struct ScanOutputs(Vec<QueryOutput>);

impl ScanOutputs {
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }
}

pub struct Sut {
    hierarchy: Hierarchy,
    store: Arc<InMemoryObjectStore>,
    storage: Arc<TieredStorage>,
    engine: Arc<WildfireEngine>,
    daemons: Option<(EngineDaemons, Arc<MaintenanceDaemon>)>,
}

fn int(d: &Datum) -> Result<i64, String> {
    match d {
        Datum::Int64(v) => Ok(*v),
        other => Err(format!("expected Int64, got {other:?}")),
    }
}

fn row_of(view: &RecordView) -> Result<Row, String> {
    match view.row.as_slice() {
        [device, msg, _date, payload] => Ok(Row {
            device: int(device)?,
            msg: int(msg)?,
            payload: int(payload)?,
        }),
        other => Err(format!("row of {} columns", other.len())),
    }
}

/// The single equality value (`device`) or sort value (`msg`) of a key.
fn one(v: i64) -> Vec<Datum> {
    vec![Datum::Int64(v)]
}

impl Sut {
    /// A fresh, empty engine on a fresh object store.
    pub fn create(hierarchy: Hierarchy, maintenance: Maintenance) -> Result<Sut, String> {
        let store = Arc::new(InMemoryObjectStore::new());
        let storage = hierarchy.storage(&store);
        let engine = WildfireEngine::create(
            Arc::clone(&storage),
            Arc::new(iot_table()),
            maintenance.config(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Sut {
            hierarchy,
            store,
            storage,
            engine,
            daemons: None,
        })
    }

    /// Drop the engine and every local tier; keep the shared-store bytes.
    pub fn into_durable(mut self) -> DurableStore {
        self.shutdown_daemons();
        DurableStore(Arc::clone(&self.store))
    }

    /// `WildfireEngine::recover` over a new hierarchy on the surviving bytes.
    pub fn recover(durable: DurableStore, hierarchy: Hierarchy) -> Timed<Sut> {
        let store = durable.0;
        let storage = hierarchy.storage(&store);
        timed(|| {
            WildfireEngine::recover(
                Arc::clone(&storage),
                Arc::new(iot_table()),
                Maintenance::Inline.config(),
            )
        })
        .map(|engine| {
            Ok(Sut {
                hierarchy,
                store,
                storage,
                engine,
                daemons: None,
            })
        })
    }

    fn shard(&self) -> &Arc<Shard> {
        &self.engine.shards()[0]
    }

    fn index(&self) -> &Arc<UmziIndex> {
        self.shard().index()
    }

    // ---- engine operations (end-to-end) --------------------------------

    pub fn get(&self, device: i64, msg: i64) -> Timed<Option<Row>> {
        let (eq, sort) = (one(device), one(msg));
        timed(|| self.engine.get(&eq, &sort, Freshness::Latest))
            .map(|view| view.as_ref().map(row_of).transpose())
    }

    /// `UmziIndex::batch_lookup` at `read_ts()`; one payload (from the
    /// included column) per key, `None` where the key is absent.
    pub fn batch_lookup(&self, keys: &[u64]) -> Timed<Vec<Option<i64>>> {
        let probes: Vec<_> = keys
            .iter()
            .map(|k| {
                let (device, msg) = key_parts(*k);
                (one(device), one(msg))
            })
            .collect();
        let index = self.index();
        timed(|| index.batch_lookup(&probes, self.engine.read_ts())).map(|outs| {
            outs.iter()
                .map(|o| match o {
                    None => Ok(None),
                    Some(o) => match o.included(index.def()) {
                        Ok(cols) => cols.first().map(int).transpose(),
                        Err(e) => Err(e.to_string()),
                    },
                })
                .collect()
        })
    }

    /// `scan_records` over `msg` in `lo..=hi` of one device (`None`: the
    /// whole device).
    pub fn scan_records(&self, device: i64, range: Option<(i64, i64)>) -> Timed<ScanDigest> {
        let (lower, upper) = Self::bounds(range);
        timed(|| {
            self.engine
                .scan_records(one(device), lower, upper, Freshness::Latest)
        })
        .map(|views| {
            let mut d = ScanDigest {
                rows: views.len() as u64,
                well_formed: true,
                ..ScanDigest::default()
            };
            for (i, view) in views.iter().enumerate() {
                let row = row_of(view)?;
                if i == 0 {
                    d.first_msg = row.msg;
                }
                let (k, version) = payload_parts(row.payload);
                d.well_formed &= row.device == device
                    && row.msg == d.first_msg + i as i64 * MSG_STRIDE
                    && k == key_of(row.device, row.msg);
                d.payload_sum = d.payload_sum.wrapping_add(row.payload as u64);
                d.max_version = d.max_version.max(version);
            }
            Ok(d)
        })
    }

    /// Index-only `scan_index` (priority-queue reconcile) over a device.
    pub fn scan_index(&self, device: i64, range: Option<(i64, i64)>) -> Timed<u64> {
        let (lower, upper) = Self::bounds(range);
        timed(|| {
            self.engine.scan_index(
                one(device),
                lower,
                upper,
                Freshness::Latest,
                ReconcileStrategy::PriorityQueue,
            )
        })
        .map(|outs| Ok(outs.len() as u64))
    }

    fn bounds(range: Option<(i64, i64)>) -> (SortBound, SortBound) {
        match range {
            None => (SortBound::Unbounded, SortBound::Unbounded),
            Some((lo, hi)) => (SortBound::Included(one(lo)), SortBound::Included(one(hi))),
        }
    }

    pub fn upsert_many(&self, keys: impl Iterator<Item = u64>, version: u16) -> Timed<()> {
        let rows: Vec<Vec<Datum>> = keys
            .map(|k| {
                let (device, msg) = key_parts(k);
                vec![
                    Datum::Int64(device),
                    Datum::Int64(msg),
                    Datum::Int64(DATE),
                    Datum::Int64(payload(k, version)),
                ]
            })
            .collect();
        timed(|| self.engine.upsert_many(rows))
    }

    /// Groom the shard; `(rows, column-block bytes)`.
    pub fn groom(&self) -> Timed<(u64, u64)> {
        timed(|| self.shard().groom())
            .map(|r| Ok(r.map_or((0, 0), |r| (r.rows as u64, r.block_bytes))))
    }

    pub fn drain_merges(&self) -> Timed<u64> {
        timed(|| self.index().drain_merges()).map(|n| Ok(n as u64))
    }

    pub fn collect_garbage(&self) -> Timed<u64> {
        timed(|| self.index().collect_garbage()).map(|n| Ok(n as u64))
    }

    /// Post-groom the shard; rows moved.
    pub fn post_groom(&self) -> Timed<u64> {
        timed(|| self.shard().post_groom()).map(|r| Ok(r.map_or(0, |r| r.rows as u64)))
    }

    pub fn evolve(&self) -> Timed<u64> {
        timed(|| self.engine.evolve_all()).map(|n| Ok(n as u64))
    }

    pub fn quiesce(&self) -> Timed<()> {
        timed(|| self.engine.quiesce())
    }

    pub fn start_daemons(&mut self) {
        let daemons = self.engine.start_daemons();
        let daemon = Arc::clone(daemons.daemon().expect("maintenance is configured"));
        self.daemons = Some((daemons, daemon));
    }

    /// Stop the tickers, drain the job queue, join the workers.
    pub fn shutdown_daemons(&mut self) -> Option<DaemonReport> {
        let (daemons, daemon) = self.daemons.take()?;
        daemons.shutdown();
        let s = daemon.stats();
        let (groom, merge, evolve, gc) = (
            s.kind(JobKind::Groom),
            s.kind(JobKind::Merge),
            s.kind(JobKind::Evolve),
            s.kind(JobKind::RetireDeprecatedBlocks),
        );
        Some(DaemonReport {
            workers: s.workers as u64,
            busy_ns: s.per_kind.iter().map(|(_, k)| k.busy_nanos).sum(),
            groom_busy_ns: groom.busy_nanos,
            groom_rows: groom.items_moved,
            groom_bytes: groom.bytes_moved,
            merge_busy_ns: merge.busy_nanos,
            merge_bytes: merge.bytes_moved,
            evolve_busy_ns: evolve.busy_nanos,
            gc_busy_ns: gc.busy_nanos,
            stalls: s.backpressure.stalls,
            stall_ns: s.backpressure.stall_nanos,
            queue_peak_depth: s.peak_queue_depth,
            groom_peak_dequeue_age: s.peak_dequeue_age(JobKind::Groom),
        })
    }

    // ---- public counter snapshots ---------------------------------------

    pub fn counters(&self) -> Counters {
        let st = self.storage.stats();
        let ix = self.index().stats();
        let health = self.engine.health();
        Counters {
            chunk_reads: st.chunk_reads,
            mem_hits: st.mem.hits,
            mem_misses: st.mem.misses,
            ssd_hits: st.ssd.hits,
            ssd_misses: st.ssd.misses,
            shared_reads: st.shared.reads,
            shared_puts: st.shared.writes,
            shared_deletes: st.shared.deletes,
            shared_bytes_read: st.shared.bytes_read,
            shared_bytes_written: st.shared.bytes_written,
            shared_wait_ns: st.shared.charged_latency.as_nanos() as u64,
            ssd_wait_ns: st.ssd_charged_latency.as_nanos() as u64,
            decoded_hits: st.decoded.hits,
            decoded_point_hits: st.decoded.point.hits,
            decoded_point_misses: st.decoded.point.misses,
            decoded_scan_hits: st.decoded.scan.hits,
            decoded_scan_misses: st.decoded.scan.misses,
            decoded_evictions: st.decoded.evictions,
            admission_rejected: st.decoded.admission_rejected,
            retries: st.retries,
            retries_exhausted: st.retries_exhausted,
            blocks_prefetched: st.blocks_prefetched,
            prefetch_hits: st.prefetch_hits,
            prefetch_wasted: st.prefetch_wasted,
            merges: ix.merges,
            evolves: ix.evolves,
            parallel_scans: ix.parallel_scans,
            scan_partitions: ix.scan_partitions,
            sheds: health.query_sheds,
            timeouts: health.query_timeouts,
        }
    }

    pub fn run_shape(&self) -> RunShape {
        let zones = self.index().all_runs();
        let mut shape = RunShape::default();
        let mut levels = std::collections::BTreeMap::new();
        for (z, runs) in zones.iter().enumerate() {
            for run in runs {
                if z == 0 {
                    shape.runs_groomed += 1;
                } else {
                    shape.runs_post_groomed += 1;
                }
                shape.entries += run.entry_count();
                shape.bytes += run.size_bytes();
                *levels.entry(run.level()).or_insert(0) += 1;
            }
        }
        shape.levels = levels.into_iter().collect();
        shape
    }

    /// Rows committed but not yet groomed.
    pub fn live_zone_rows(&self) -> u64 {
        self.shard().live().len() as u64
    }

    /// Bytes the shared store holds now.
    pub fn store_bytes(&self) -> u64 {
        self.store.total_bytes()
    }

    // ---- layer probes (the traced pass) ---------------------------------

    fn layout(&self) -> &KeyLayout {
        self.index().layout()
    }

    pub fn probe(&self, device: i64, msg: i64) -> Result<Probe, String> {
        let (eq, sort) = (one(device), one(msg));
        let full = self
            .layout()
            .build_key(&eq, &sort, 0)
            .map_err(|e| e.to_string())?;
        Ok(Probe {
            prefix: full[..full.len() - 8].to_vec(),
            hash: self
                .layout()
                .hash_equality(&eq)
                .map_err(|e| e.to_string())?,
            eq_encoded: encode_eq_values(&eq),
            bound: SortBound::Included(sort),
        })
    }

    /// `encoding`: build one probe's logical-key prefix and its hash.
    pub fn encode_key(&self, device: i64, msg: i64) -> Timed<()> {
        let (eq, sort) = (one(device), one(msg));
        let layout = self.layout();
        timed(|| {
            let full = layout.build_key(&eq, &sort, 0)?;
            black_box(&full[..full.len() - 8]);
            black_box(layout.hash_equality(&eq)?);
            Ok::<_, umzi::run::RunError>(())
        })
    }

    /// `encoding`: decode key columns and included values of every output.
    pub fn decode_outputs(&self, outs: &ScanOutputs) -> Timed<u64> {
        let index = self.index();
        timed(|| {
            for o in &outs.0 {
                black_box(o.key_columns(index.layout())?);
                black_box(o.included(index.def())?);
            }
            Ok::<_, umzi::core::UmziError>(outs.len())
        })
    }

    /// `IndexEntry::new` for keys `0..n`, timed; the entries.
    fn new_entries(&self, n: u64) -> Timed<Vec<IndexEntry>> {
        let layout = self.layout();
        let inputs: Vec<_> = (0..n)
            .map(|k| {
                let (device, msg) = key_parts(k);
                (
                    one(device),
                    one(msg),
                    [Datum::Int64(payload(k, 1))],
                    Rid::new(ZoneId::GROOMED, 1, k as u32),
                )
            })
            .collect();
        timed(|| {
            inputs
                .iter()
                .map(|(eq, sort, included, rid)| {
                    IndexEntry::new(layout, eq, sort, 100, *rid, included)
                })
                .collect::<Result<Vec<_>, _>>()
        })
    }

    /// `encoding`: `IndexEntry::new` for keys `0..n`.
    pub fn build_entries(&self, n: u64) -> Timed<u64> {
        self.new_entries(n).map(|e| Ok(black_box(e).len() as u64))
    }

    /// `run`: push `n` sorted entries through a `RunBuilder` and `finish`
    /// on a scratch in-memory hierarchy.
    pub fn build_run(&self, n: u64) -> Timed<u64> {
        let mut entries = match self.new_entries(n).out {
            Ok(entries) => entries,
            Err(e) => return timed(|| Err::<u64, _>(e)),
        };
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let layout = self.layout().clone();
        let scratch = Arc::new(TieredStorage::in_memory());
        let params = RunParams {
            run_id: 1,
            zone: ZoneId::GROOMED,
            level: 0,
            groomed_lo: 1,
            groomed_hi: 1,
            psn: 0,
            offset_bits: self.index().config().offset_bits,
            ancestors: vec![],
        };
        timed(|| {
            let mut b = RunBuilder::new(layout, params, scratch.chunk_size());
            for e in &entries {
                b.push(e)?;
            }
            let run = b.finish(&scratch, "probe/run", Durability::Persisted, true)?;
            Ok::<_, umzi::run::RunError>(run.entry_count())
        })
    }

    /// The runs a query must consider, newest first.
    pub fn candidate_runs(&self) -> Vec<RunRef> {
        self.index()
            .candidate_runs()
            .into_iter()
            .map(RunRef)
            .collect()
    }

    /// `run`: the synopsis check of one run against one probe.
    pub fn run_may_match(&self, run: &RunRef, p: &Probe) -> Timed<bool> {
        let ts = self.engine.read_ts();
        let synopsis = &run.0.header().synopsis;
        timed(|| Ok::<_, String>(synopsis.may_match(&p.eq_encoded, &p.bound, &p.bound, ts)))
    }

    /// `run`: `RunSearcher::lookup` of one probe in one run; whether it hit.
    pub fn run_lookup(&self, run: &RunRef, p: &Probe) -> Timed<bool> {
        let ts = self.engine.read_ts();
        let bits = run.0.header().offset_bits;
        let bucket = (bits > 0).then(|| hash_prefix(p.hash, bits));
        timed(|| RunSearcher::new(&run.0).lookup(&p.prefix, bucket, ts)).map(|h| Ok(h.is_some()))
    }

    /// `run`: drain `RunSearcher::scan` over one device (`None`: the whole
    /// run); entries yielded.
    pub fn run_scan(&self, run: &RunRef, device: Option<i64>) -> Timed<u64> {
        let ts = self.engine.read_ts();
        let (lower, upper) = match device {
            None => (Vec::new(), None),
            Some(d) => match self.layout().query_range(
                &one(d),
                &SortBound::Unbounded,
                &SortBound::Unbounded,
            ) {
                Ok(r) => r,
                Err(e) => return timed(|| Err::<u64, _>(e)),
            },
        };
        timed(|| {
            let mut n = 0u64;
            for hit in RunSearcher::new(&run.0).scan(&lower, upper.as_deref(), None, ts)? {
                black_box(hit?);
                n += 1;
            }
            Ok::<_, umzi::run::RunError>(n)
        })
    }

    /// `run`: `Run::open` of every live run through a fresh hierarchy of
    /// this one's configuration, so nothing is resident.
    pub fn open_runs(&self) -> Vec<Timed<()>> {
        let fresh = self.hierarchy.storage(&self.store);
        let layout = self.layout().clone();
        self.index()
            .all_runs()
            .iter()
            .flatten()
            .map(|run| {
                timed(|| Run::open(Arc::clone(&fresh), run.name(), layout.clone())).map(|_| Ok(()))
            })
            .collect()
    }

    /// `storage`: `TieredStorage::read_chunk` of one data chunk of a run.
    pub fn read_chunk(&self, run: &RunRef, chunk: u32) -> Timed<usize> {
        let handle = run.0.handle();
        timed(|| self.storage.read_chunk(handle, chunk)).map(|b| Ok(b.len()))
    }

    /// Number of chunks in a run's object.
    pub fn chunk_count(&self, run: &RunRef) -> Result<u32, String> {
        self.storage
            .chunk_count(run.0.handle())
            .map_err(|e| e.to_string())
    }

    /// `core`: `UmziIndex::point_lookup`, no RID resolution.
    pub fn point_lookup(&self, device: i64, msg: i64) -> Timed<Option<RidToken>> {
        let (eq, sort) = (one(device), one(msg));
        let ts = self.engine.read_ts();
        timed(|| self.index().point_lookup(&eq, &sort, ts)).map(|o| match o {
            None => Ok(None),
            Some(o) => o
                .rid()
                .map(|r| Some(RidToken(r)))
                .map_err(|e| e.to_string()),
        })
    }

    /// `core`: index-only `UmziIndex::range_scan` over a whole device.
    pub fn range_scan(&self, device: i64) -> Timed<ScanOutputs> {
        let query = RangeQuery {
            equality: one(device),
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: self.engine.read_ts(),
        };
        timed(|| {
            self.index()
                .range_scan(&query, ReconcileStrategy::PriorityQueue)
        })
        .map(|outs| Ok(ScanOutputs(outs)))
    }

    /// `wildfire`: `Shard::fetch_row` of one RID; the payload.
    pub fn fetch_row(&self, rid: RidToken) -> Timed<i64> {
        timed(|| self.shard().fetch_row(rid.0)).map(|(row, ..)| match row.get(3) {
            Some(p) => int(p),
            None => Err("short row".into()),
        })
    }

    /// `wildfire`: `Shard::fetch_row` of every output of a scan.
    pub fn fetch_rows(&self, outs: &ScanOutputs) -> Timed<u64> {
        let shard = self.shard();
        timed(|| {
            for o in &outs.0 {
                black_box(shard.fetch_row(o.rid()?)?);
            }
            Ok::<_, umzi::wildfire::WildfireError>(outs.len())
        })
    }
}
