//! The multi-shard Wildfire engine with its background maintenance daemon.
//!
//! Ties the substrate together (Figure 1): transactions append to per-shard
//! committed logs (live zone); a [`umzi_core::MaintenanceDaemon`] worker
//! pool drains a prioritized job queue of groom / merge / evolve / janitor
//! work, fed from the **ingest path** (upserts poke `Groom` once a backlog
//! accumulates, a stalled writer pokes level-0 merges and evolves), from
//! the follow-ups each finished job returns (a groom its level-0 merge, an
//! evolve its merge and the janitor), and from the daemon's janitor, which
//! ticks the paper's cadence (groomer every second, §2.1; post-groomer
//! every 20 s, §8.4). The daemon's backpressure gate stalls ingest when the
//! level-0 run count reaches the configured high watermark and resumes at
//! the low watermark, so sustained writes cannot outrun grooming.
//! [`WildfireEngine::quiesce`] runs the same executor's jobs inline.
//!
//! Queries route by sharding key when it is bound, otherwise fan out; shard
//! key spaces are disjoint, so cross-shard results concatenate without
//! reconciliation.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use umzi_core::{
    Job, MaintenanceConfig, MaintenanceDaemon, MaintenanceStats, QueryOutput, RangeQuery,
    ReconcileStrategy, Tick, UmziError, STALL_TIMEOUT,
};
use umzi_encoding::Datum;
use umzi_run::{Rid, SortBound};
use umzi_storage::telemetry::{Counter, Histogram, Registry};
use umzi_storage::{context, AccessPattern, BreakerState, OpClass, StorageStats, TieredStorage};

use crate::maintenance::{max_l0_runs, EngineExecutor};
use crate::shard::{Shard, ShardConfig};
use crate::table::TableDef;
use crate::Result;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of table shards.
    pub n_shards: usize,
    /// Per-shard configuration template (index names are derived per shard).
    pub shard: ShardConfig,
    /// Groomer tick period (§2.1 suggests every second). Upserts also
    /// enqueue groom jobs directly once `groom_trigger_rows` accumulate, so
    /// the tick is a latency bound, not the throughput path.
    pub groom_interval: Duration,
    /// Post-groomer tick period (§8.4 uses 20 seconds).
    pub post_groom_interval: Duration,
    /// Live-zone backlog at which an upsert enqueues a groom job without
    /// waiting for the tick.
    pub groom_trigger_rows: usize,
    /// Background maintenance daemon (worker pool, backpressure watermarks,
    /// janitor); `None` disables all background work (manual
    /// [`WildfireEngine::quiesce`]).
    pub maintenance: Option<MaintenanceConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            n_shards: 1,
            shard: ShardConfig::default(),
            groom_interval: Duration::from_secs(1),
            post_groom_interval: Duration::from_secs(20),
            groom_trigger_rows: 4096,
            maintenance: Some(MaintenanceConfig::default()),
        }
    }
}

/// Read-freshness levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Snapshot at an explicit timestamp (time travel).
    Snapshot(u64),
    /// Latest indexed (groomed) data — the engine's default read view.
    Latest,
    /// Latest indexed data overlaid with the un-groomed live zone.
    Freshest,
}

/// A resolved record: full row plus version metadata. Live-zone rows have
/// no `beginTS`/RID yet (those are assigned at groom time, §2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordView {
    /// The row.
    pub row: Vec<Datum>,
    /// Version timestamp (`None` for live-zone rows).
    pub begin_ts: Option<u64>,
    /// Record ID (`None` for live-zone rows).
    pub rid: Option<Rid>,
}

/// A point-in-time fault-and-recovery health snapshot of the whole engine:
/// IO retry pressure on the storage path, maintenance retry/quarantine
/// state, and write-path backpressure. The one-stop answer to "is this
/// engine struggling, and where".
#[derive(Debug, Clone, Default)]
pub struct EngineHealth {
    /// Transient storage IO errors that were retried (and may have
    /// succeeded on a later attempt).
    pub storage_retries: u64,
    /// Storage operations that failed even after exhausting the retry
    /// budget.
    pub storage_retries_exhausted: u64,
    /// Data blocks whose checksum failed and were re-fetched from shared
    /// storage for corruption containment.
    pub corruption_refetches: u64,
    /// Failed maintenance jobs re-enqueued with backoff, across all kinds.
    pub maintenance_retries: u64,
    /// Maintenance jobs currently quarantined (failed past their retry
    /// budget; re-probed slowly).
    pub quarantined_jobs: usize,
    /// Whether maintenance is degraded (at least one quarantined job).
    pub degraded: bool,
    /// Writers that hit the backpressure stall timeout and got an error.
    pub backpressure_timeouts: u64,
    /// Whether the ingest gate is currently stalled.
    pub ingest_stalled: bool,
    /// GC deletes that exhausted their retry budget and parked the object
    /// name for janitor re-attempt.
    pub gc_delete_failures: u64,
    /// Leaked GC objects still awaiting reclamation.
    pub gc_leaked_outstanding: u64,
    /// Queries that failed with a deadline-exceeded error.
    pub query_timeouts: u64,
    /// Queries that ended by cooperative cancellation.
    pub query_cancellations: u64,
    /// Always 0: the engine has no read admission and sheds nothing — a
    /// scan that cannot finish dies typed on its deadline and counts under
    /// `query_timeouts`. No counter stands behind this field; it exists only
    /// because `benchmark/src/sut.rs` reads it (ROADMAP direction 5, dead
    /// probes).
    pub query_sheds: u64,
    /// Whether any storage circuit breaker is currently not closed (open or
    /// half-open) — reads are failing fast or probing.
    pub breaker_tripped: bool,
    /// Fault-injection counters, when the engine runs on a
    /// [`umzi_storage::FaultInjectingStore`] (torture harnesses); `None` on
    /// production storage. Folding them here puts injected faults next to
    /// the retry pressure they caused.
    pub fault: Option<umzi_storage::FaultStats>,
}

/// Pre-resolved handles for the query SLO metrics, looked up once at engine
/// construction (registering by name per query would take the registry
/// lock on the hot path).
#[derive(Debug)]
struct QueryMetrics {
    /// `umzi_query_timeouts_total` — queries that died on their deadline.
    timeouts: Arc<Counter>,
    /// `umzi_query_cancellations_total` — cooperative cancellations.
    cancellations: Arc<Counter>,
    /// `umzi_query_degraded_hits_total` — point lookups answered from the
    /// warm tiers/cache while the block-fetch breaker was tripped.
    degraded_hits: Arc<Counter>,
    /// `umzi_query_deadline_overshoot_nanos` — how far past its deadline a
    /// query ran before the cooperative checks caught it (recorded for both
    /// aborted and late-succeeding queries).
    overshoot: Arc<Histogram>,
}

impl QueryMetrics {
    fn new(reg: &Registry) -> Self {
        QueryMetrics {
            timeouts: reg.counter("umzi_query_timeouts_total"),
            cancellations: reg.counter("umzi_query_cancellations_total"),
            degraded_hits: reg.counter("umzi_query_degraded_hits_total"),
            overshoot: reg.histogram("umzi_query_deadline_overshoot_nanos"),
        }
    }
}

/// The Wildfire engine.
pub struct WildfireEngine {
    table: Arc<TableDef>,
    shards: Vec<Arc<Shard>>,
    storage: Arc<TieredStorage>,
    config: EngineConfig,
    /// The one maintenance executor: the daemon's workers and
    /// [`WildfireEngine::quiesce`] run every job through it.
    executor: Arc<EngineExecutor>,
    /// The running maintenance daemon, set by [`WildfireEngine::start_daemons`];
    /// the ingest path reads it to enqueue jobs and pass the backpressure
    /// gate.
    daemon: RwLock<Option<Arc<MaintenanceDaemon>>>,
    /// SLO counters and the deadline-overshoot histogram.
    qmetrics: QueryMetrics,
}

impl std::fmt::Debug for WildfireEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WildfireEngine")
            .field("table", &self.table.name())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl WildfireEngine {
    /// Create a fresh engine (one set of Umzi indexes per shard).
    pub fn create(
        storage: Arc<TieredStorage>,
        table: Arc<TableDef>,
        config: EngineConfig,
    ) -> Result<Arc<WildfireEngine>> {
        Self::open(storage, table, config, false)
    }

    /// Recover an engine after a crash (per-shard index + block recovery).
    pub fn recover(
        storage: Arc<TieredStorage>,
        table: Arc<TableDef>,
        config: EngineConfig,
    ) -> Result<Arc<WildfireEngine>> {
        Self::open(storage, table, config, true)
    }

    /// The one open path of [`Self::create`] and [`Self::recover`]:
    /// validate the configuration, then open (or `recover`) every shard.
    fn open(
        storage: Arc<TieredStorage>,
        table: Arc<TableDef>,
        config: EngineConfig,
        recover: bool,
    ) -> Result<Arc<WildfireEngine>> {
        if config.n_shards == 0 {
            return Err(UmziError::Config("an engine needs at least one shard".into()).into());
        }
        if let Some(mc) = &config.maintenance {
            mc.validate()?;
        }
        let mut shards = Vec::with_capacity(config.n_shards);
        for i in 0..config.n_shards {
            let mut sc = config.shard.clone();
            sc.umzi.name = String::new(); // derived per shard
            shards.push(Shard::open(
                Arc::clone(&storage),
                Arc::clone(&table),
                i,
                sc,
                recover,
            )?);
        }
        let qmetrics = QueryMetrics::new(storage.telemetry().registry());
        let executor = Arc::new(EngineExecutor::new(
            shards.clone(),
            config.groom_trigger_rows,
            config
                .maintenance
                .as_ref()
                .is_some_and(|mc| mc.adaptive_cache),
        ));
        Ok(Arc::new(WildfireEngine {
            table,
            shards,
            storage,
            config,
            executor,
            daemon: RwLock::new(None),
            qmetrics,
        }))
    }

    /// The table definition.
    pub fn table(&self) -> &Arc<TableDef> {
        &self.table
    }

    /// The shards.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The storage hierarchy.
    pub fn storage(&self) -> &Arc<TieredStorage> {
        &self.storage
    }

    /// The current engine-wide read snapshot (max assigned `beginTS`).
    pub fn read_ts(&self) -> u64 {
        self.shards.iter().map(|s| s.read_ts()).max().unwrap_or(0)
    }

    /// The running maintenance daemon, if any.
    fn daemon(&self) -> Option<Arc<MaintenanceDaemon>> {
        self.daemon.read().clone()
    }

    /// Maintenance-daemon statistics, when daemons are running.
    pub fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.daemon().map(|d| d.stats())
    }

    /// Statistics of the RAM tier's verified blocks (shared across all
    /// shards' indexes), including the per-access-pattern counters that
    /// show whether scan and groom traffic is staying out of the
    /// point-lookup working set.
    pub fn decoded_cache_stats(&self) -> umzi_storage::DecodedCacheStats {
        self.storage.stats().decoded
    }

    /// Fault-and-recovery health snapshot: storage retry pressure,
    /// maintenance quarantine state and write-path backpressure in one
    /// struct. Daemon-related fields are zero when no daemon is running.
    pub fn health(&self) -> EngineHealth {
        self.health_from(&self.storage.stats(), self.maintenance_stats().as_ref())
    }

    /// [`Self::health`] distilled from snapshots the caller already holds,
    /// so [`Self::telemetry`] pays for one storage snapshot, not two.
    pub(crate) fn health_from(
        &self,
        st: &StorageStats,
        ms: Option<&MaintenanceStats>,
    ) -> EngineHealth {
        let mut h = EngineHealth {
            storage_retries: st.retries,
            storage_retries_exhausted: st.retries_exhausted,
            corruption_refetches: st.corruption_refetches,
            fault: self.storage.fault_stats(),
            gc_delete_failures: st.gc_delete_failures,
            gc_leaked_outstanding: st.gc_leaked_outstanding,
            query_timeouts: self.qmetrics.timeouts.get(),
            query_cancellations: self.qmetrics.cancellations.get(),
            breaker_tripped: st
                .breaker_state
                .iter()
                .any(|s| *s != BreakerState::Closed.as_u8()),
            ..EngineHealth::default()
        };
        if let Some(ms) = ms {
            h.maintenance_retries = ms.per_kind.iter().map(|(_, s)| s.retries).sum();
            h.quarantined_jobs = ms.quarantined_now;
            h.degraded = ms.degraded;
            h.backpressure_timeouts = ms.backpressure.timeouts;
            h.ingest_stalled = ms.backpressure.stalled;
        }
        h
    }

    /// Write-path admission: when the level-0 run count has piled up to the
    /// high watermark, poke relief jobs (level-0 merges and evolve) and
    /// stall on the backpressure gate until maintenance brings it back to
    /// the low watermark — or until [`STALL_TIMEOUT`] or the caller's
    /// ambient deadline, whichever is sooner, elapses; then the writer gets
    /// [`WildfireError::Backpressure`] instead of hanging on maintenance
    /// that is not making progress. Free when no daemon is running.
    fn admit_ingest(&self) -> Result<()> {
        let Some(daemon) = self.daemon() else {
            return Ok(());
        };
        let gate = Arc::clone(daemon.backpressure());
        let current = || max_l0_runs(&self.shards);
        // Fast path: gate clear and backlog healthy — one lock-free list
        // walk per shard, no relief enqueue, no mutex.
        if !gate.is_stalled() && !gate.over_high(current()) {
            return Ok(());
        }
        // Pressure: poke the jobs that shrink level 0 before (possibly)
        // blocking on the gate.
        for si in 0..self.shards.len() {
            daemon.enqueue(Job::Merge {
                shard: si,
                level: 0,
            });
            daemon.enqueue(Job::Evolve { shard: si });
        }
        let timeout = context::current_remaining().map_or(STALL_TIMEOUT, |r| r.min(STALL_TIMEOUT));
        match gate.admit_timeout(&current, timeout) {
            Ok(_) => Ok(()),
            Err(waited) => Err(crate::error::WildfireError::Backpressure {
                waited,
                l0_runs: current(),
                degraded: daemon.is_degraded(),
            }),
        }
    }

    /// Ingest-path groom trigger: enqueue a groom job once the shard's
    /// live-zone backlog warrants one (the periodic tick catches
    /// stragglers).
    fn maybe_trigger_groom(&self, shard: usize) {
        if self.shards[shard].live().len() >= self.config.groom_trigger_rows {
            if let Some(daemon) = self.daemon() {
                daemon.enqueue(Job::Groom { shard });
            }
        }
    }

    /// Upsert one row (routed by sharding key). Under an ambient deadline
    /// ([`context::enter`]) shorter than [`STALL_TIMEOUT`] the writer blocks
    /// on the backpressure gate only that long, and
    /// cancellation / expiry abort storage retry backoff inside the write
    /// path.
    pub fn upsert(&self, row: Vec<Datum>) -> Result<()> {
        let tel = self.storage.telemetry();
        let t0 = tel.start();
        let out = self.observed("upsert", || {
            self.admit_ingest()?;
            let shard = self.table.shard_of(&row, self.shards.len());
            self.shards[shard].upsert(vec![row])?;
            self.maybe_trigger_groom(shard);
            Ok(())
        });
        tel.record_since(&tel.ops().ingest, t0);
        out
    }

    /// Upsert a batch, grouped per shard (each shard's group commits as one
    /// transaction). The ingest histogram records one sample per batch. An
    /// ambient deadline caps the backpressure stall as in [`Self::upsert`].
    pub fn upsert_many(&self, rows: Vec<Vec<Datum>>) -> Result<()> {
        let tel = self.storage.telemetry();
        let t0 = tel.start();
        let out = self.observed("upsert_many", || {
            self.admit_ingest()?;
            let mut per_shard: Vec<Vec<Vec<Datum>>> =
                (0..self.shards.len()).map(|_| Vec::new()).collect();
            for row in rows {
                per_shard[self.table.shard_of(&row, self.shards.len())].push(row);
            }
            for (i, group) in per_shard.into_iter().enumerate() {
                if !group.is_empty() {
                    self.shards[i].upsert(group)?;
                    self.maybe_trigger_groom(i);
                }
            }
            Ok(())
        });
        tel.record_since(&tel.ops().ingest, t0);
        out
    }

    /// Groom every shard once (manual ticking; the daemon's groom job calls
    /// [`Shard::groom`] through the executor).
    pub fn groom_all(&self) -> Result<usize> {
        let mut n = 0;
        for s in &self.shards {
            if s.groom()?.is_some() {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Post-groom every shard once.
    pub fn post_groom_all(&self) -> Result<usize> {
        let mut n = 0;
        for s in &self.shards {
            if s.post_groom()?.is_some() {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Apply pending evolve operations on every shard.
    pub fn evolve_all(&self) -> Result<usize> {
        let mut n = 0;
        for s in &self.shards {
            n += s.apply_pending_evolves()?;
        }
        Ok(n)
    }

    /// Drain the whole pipeline synchronously on the calling thread, through
    /// the daemon's executor: rounds in which every shard runs a `Groom`, an
    /// `Evolve` (post-groom included), each level's `Merge` until idle, in
    /// ascending level order, and the janitor, until a round grooms, evolves
    /// and merges nothing. Every index is merged and collected, as under
    /// the daemon. Deterministic tests and examples.
    pub fn quiesce(&self) -> Result<()> {
        let worked = |job| self.executor.run(job).map(|outcome| outcome.did_work);
        loop {
            let mut progressed = false;
            for (shard, s) in self.shards.iter().enumerate() {
                progressed |= worked(Job::Groom { shard })?;
                progressed |= worked(Job::Evolve { shard })?;
                for level in 0..=s.index().config().max_level() {
                    while worked(Job::Merge { shard, level })? {
                        progressed = true;
                    }
                }
                worked(Job::RetireDeprecatedBlocks { shard })?;
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    fn resolve_ts(&self, freshness: Freshness) -> u64 {
        match freshness {
            Freshness::Snapshot(ts) => ts,
            Freshness::Latest | Freshness::Freshest => self.read_ts(),
        }
    }

    /// The shard owning the given sharding-key values.
    fn shard_for(&self, vals: &[Datum]) -> &Arc<Shard> {
        &self.shards[self.table.shard_of_sharding_values(vals, self.shards.len())]
    }

    /// The one shard a scan touches when its equality values bind the whole
    /// sharding key; `None` for a scan that fans out.
    fn pinned_shard(&self, eq: &[Datum]) -> Option<&Arc<Shard>> {
        if !self.table.sharding_within_equality() {
            return None;
        }
        let vals = self.table.sharding_values_from_index(eq, &[])?;
        Some(self.shard_for(&vals))
    }

    /// Bounded retry for the §5.4 evolve window: between an index snapshot
    /// and RID resolution, an evolve may deprecate the groomed block a RID
    /// points into. The evolved copy is already indexed by then, so
    /// re-running `op` against a fresh run-list snapshot resolves the same
    /// versions in the post-groomed zone.
    fn retry_dangling<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut last_err = None;
        for _ in 0..8 {
            match op() {
                Err(e @ crate::error::WildfireError::DanglingRid(_)) => last_err = Some(e),
                other => return other,
            }
        }
        Err(last_err.expect("loop only exhausts after a dangling RID"))
    }

    /// Resolve RIDs of `shard` to records, in RID order: one
    /// [`Shard::fetch_rows`] batch for all of them. The one RID → record
    /// step of `get`, `scan_records` and `scan_secondary`.
    fn resolve<'r>(
        shard: &Shard,
        rids: &'r [Rid],
    ) -> Result<impl Iterator<Item = RecordView> + 'r> {
        let rows = shard.fetch_rows(rids)?;
        let view = |(&rid, (row, begin_ts, _, _))| RecordView {
            row,
            begin_ts: Some(begin_ts),
            rid: Some(rid),
        };
        Ok(rids.iter().zip(rows).map(view))
    }

    /// Run one engine operation under the caller's ambient query context —
    /// the one installed with [`context::enter`], unbounded when there is
    /// none. The engine installs nothing itself. `op` opens with a
    /// cooperative checkpoint, so a context that is already expired or
    /// cancelled fails typed even where the operation would touch no
    /// storage (a live-zone upsert, a fully cached get); the finished
    /// operation is folded into the SLO metrics: deadline overshoot (how far
    /// past the deadline the cooperative checks let it run, recorded whether
    /// it aborted or squeaked through late) and the typed-abort counters.
    fn observed<T>(&self, op: &'static str, run: impl FnOnce() -> Result<T>) -> Result<T> {
        let ctx = context::current();
        let out = ctx.check(op).map_err(Into::into).and_then(|()| run());
        if let Some(deadline) = ctx.deadline() {
            let now = std::time::Instant::now();
            if now > deadline {
                self.qmetrics
                    .overshoot
                    .record((now - deadline).as_nanos() as u64);
            }
        }
        if let Err(e) = &out {
            if e.is_cancelled() {
                self.qmetrics.cancellations.inc();
            } else if e.is_deadline_exceeded() {
                self.qmetrics.timeouts.inc();
            }
        }
        out
    }

    /// Point lookup by full index key (equality + sort values), resolving
    /// the record row. The caller's ambient deadline and cancellation token
    /// reach every layer the lookup touches (index search, block fetches,
    /// retry backoff). Over runs purged to shared storage the index search
    /// waits for one concurrent round of fetches, not one fetch per run
    /// probed: see [`UmziIndex::point_lookup`](umzi_core::UmziIndex::point_lookup),
    /// which may also fetch blocks of runs older than the one that answers.
    /// Under an open block-fetch circuit breaker a lookup stages nothing and
    /// degrades gracefully: it answers from the RAM and SSD tiers (counted
    /// as a degraded hit) and fails fast only when
    /// the answer truly needs shared storage.
    pub fn get(
        &self,
        eq: &[Datum],
        sort: &[Datum],
        freshness: Freshness,
    ) -> Result<Option<RecordView>> {
        let out = self.observed("get", || self.get_inner(eq, sort, freshness));
        if out.is_ok() && self.storage.breaker().state(OpClass::BlockFetch) != BreakerState::Closed
        {
            self.qmetrics.degraded_hits.inc();
        }
        out
    }

    fn get_inner(
        &self,
        eq: &[Datum],
        sort: &[Datum],
        freshness: Freshness,
    ) -> Result<Option<RecordView>> {
        // Freshest reads consult the live zone first (§3: the live zone is
        // small and un-indexed; queries scan it directly).
        let shard = self
            .table
            .sharding_values_from_index(eq, sort)
            .map(|vals| self.shard_for(&vals));

        if freshness == Freshness::Freshest {
            let probe = |s: &Arc<Shard>| {
                s.live().find_latest(|row| {
                    let (req, rsort, _) = self.table.groups(0, row);
                    req == eq && rsort == sort
                })
            };
            let live = match shard {
                Some(s) => probe(s),
                None => self.shards.iter().find_map(probe),
            };
            if let Some(row) = live {
                return Ok(Some(RecordView {
                    row,
                    begin_ts: None,
                    rid: None,
                }));
            }
        }

        let ts = self.resolve_ts(freshness);
        let lookup = |s: &Arc<Shard>| -> Result<Option<RecordView>> {
            Self::retry_dangling(|| match s.index().point_lookup(eq, sort, ts)? {
                Some(out) => Ok(Self::resolve(s, &[out.rid()?])?.next()),
                None => Ok(None),
            })
        };
        match shard {
            Some(s) => lookup(s),
            None => {
                for s in &self.shards {
                    if let Some(v) = lookup(s)? {
                        return Ok(Some(v));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Index-only range scan (§4.1's index-only plans): returns index
    /// entries without fetching rows. Fans out unless the equality values
    /// pin the shard. The caller's ambient deadline / cancellation token is
    /// honored at every block boundary of the reconcile, in readahead
    /// refills, and inside storage retry backoff.
    pub fn scan_index(
        &self,
        eq: Vec<Datum>,
        lower: SortBound,
        upper: SortBound,
        freshness: Freshness,
        strategy: ReconcileStrategy,
    ) -> Result<Vec<QueryOutput>> {
        self.observed("scan_index", || {
            self.scan_index_inner(eq, lower, upper, freshness, strategy)
        })
    }

    fn scan_index_inner(
        &self,
        eq: Vec<Datum>,
        lower: SortBound,
        upper: SortBound,
        freshness: Freshness,
        strategy: ReconcileStrategy,
    ) -> Result<Vec<QueryOutput>> {
        let ts = self.resolve_ts(freshness);
        let query = RangeQuery {
            equality: eq,
            lower,
            upper,
            query_ts: ts,
        };
        match self.pinned_shard(&query.equality) {
            Some(shard) => Ok(shard.index().range_scan(&query, strategy)?),
            None => {
                let mut out = Vec::new();
                for s in &self.shards {
                    out.extend(s.index().range_scan(&query, strategy)?);
                }
                // Shards hold disjoint keys; merge for deterministic order.
                out.sort_by(|a, b| a.key.cmp(&b.key));
                Ok(out)
            }
        }
    }

    /// Range scan resolving full records: each shard's RIDs in one
    /// [`Shard::fetch_rows`] batch, which reads a post-groomed block front
    /// to back (ambient deadline / cancellation as in [`Self::scan_index`]).
    pub fn scan_records(
        &self,
        eq: Vec<Datum>,
        lower: SortBound,
        upper: SortBound,
        freshness: Freshness,
    ) -> Result<Vec<RecordView>> {
        self.observed("scan_records", || {
            self.scan_records_inner(eq, lower, upper, freshness)
        })
    }

    fn scan_records_inner(
        &self,
        eq: Vec<Datum>,
        lower: SortBound,
        upper: SortBound,
        freshness: Freshness,
    ) -> Result<Vec<RecordView>> {
        // The whole scan retries on a dangling RID: the index snapshot and
        // the RID resolutions must come from the same side of an evolve.
        let query = RangeQuery {
            equality: eq,
            lower,
            upper,
            query_ts: self.resolve_ts(freshness),
        };
        // RIDs are shard-local: each shard resolves its own outputs in one
        // batch. A pinned scan takes its RIDs straight from the merge; a
        // fan-out scan keeps the keys to merge the shards by.
        if let Some(shard) = self.pinned_shard(&query.equality) {
            return Self::retry_dangling(|| {
                let rids = shard.index().range_scan_rids(&query)?;
                let views = Self::resolve(shard, &rids)?.collect();
                Ok(views)
            });
        }
        Self::retry_dangling(|| {
            let mut keyed = Vec::new();
            for shard in &self.shards {
                let outs = shard
                    .index()
                    .range_scan(&query, ReconcileStrategy::PriorityQueue)?;
                let rids = outs
                    .iter()
                    .map(QueryOutput::rid)
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                let views = Self::resolve(shard, &rids)?;
                keyed.extend(outs.into_iter().map(|out| out.key).zip(views));
            }
            // Shards hold disjoint keys, each shard's in order.
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(keyed.into_iter().map(|(_, view)| view).collect())
        })
    }

    /// Scan a secondary index (§10 future work) by name: equality values
    /// plus bounds over the *user* sort columns (the primary-key suffix that
    /// makes logical keys unique is internal). Results resolve to full
    /// records and are **validated against the primary index**: a version
    /// whose secondary-key value was later updated still matches its old
    /// key in the secondary index, so each hit is kept only if it is the
    /// record's newest visible version. All of a shard's hits validate
    /// through **one** [`UmziIndex::batch_lookup`](umzi_core::UmziIndex::batch_lookup)
    /// — sorted probes, one synopsis check per run, shared block reads —
    /// instead of a full point lookup per hit. Ambient deadline /
    /// cancellation as in [`Self::scan_index`].
    pub fn scan_secondary(
        &self,
        index_name: &str,
        eq: Vec<Datum>,
        lower: SortBound,
        upper: SortBound,
        freshness: Freshness,
    ) -> Result<Vec<RecordView>> {
        self.observed("scan_secondary", || {
            self.scan_secondary_inner(index_name, eq, lower, upper, freshness)
        })
    }

    fn scan_secondary_inner(
        &self,
        index_name: &str,
        eq: Vec<Datum>,
        lower: SortBound,
        upper: SortBound,
        freshness: Freshness,
    ) -> Result<Vec<RecordView>> {
        let ts = self.resolve_ts(freshness);
        let query = RangeQuery {
            equality: eq,
            lower,
            upper,
            query_ts: ts,
        };
        Self::retry_dangling(|| {
            let mut views = Vec::new();
            for shard in &self.shards {
                let Some(sidx) = shard.secondary_index(index_name) else {
                    return Err(crate::error::WildfireError::InvalidTable(format!(
                        "no secondary index named {index_name:?}"
                    )));
                };
                let rids = sidx.range_scan_rids(&query)?;
                if rids.is_empty() {
                    continue;
                }
                // Resolve every candidate row in one batch (RIDs come in
                // secondary-key order), collecting its primary key.
                let resolved: Vec<RecordView> = Self::resolve(shard, &rids)?.collect();
                let probes: Vec<_> = resolved
                    .iter()
                    .map(|view| {
                        let (peq, psort, _) = self.table.groups(0, &view.row);
                        (peq, psort)
                    })
                    .collect();
                // One batched validation pass against the primary index,
                // labelled as scan traffic: these probes serve an analytical
                // scan and must not promote one-pass blocks into the cache's
                // protected segment.
                let current =
                    shard
                        .index()
                        .batch_lookup_as(&probes, ts, AccessPattern::RangeScan)?;
                for (view, newest) in resolved.into_iter().zip(current) {
                    if newest.is_some_and(|o| Some(o.begin_ts) == view.begin_ts) {
                        views.push(view);
                    }
                }
            }
            Ok(views)
        })
    }

    /// Spawn the background maintenance (when `config.maintenance` is set):
    /// the daemon's worker pool and its janitor, which also ticks the groom
    /// (`groom_interval`) and post-groom (`post_groom_interval`) jobs at the
    /// paper's cadence. Background work stops when the returned handle is
    /// shut down or dropped.
    pub fn start_daemons(self: &Arc<Self>) -> EngineDaemons {
        let daemon = self.config.maintenance.clone().map(|mc| {
            let ticks: [Tick; 2] = [
                (self.config.groom_interval, |shard| Job::Groom { shard }),
                (self.config.post_groom_interval, |shard| Job::Evolve {
                    shard,
                }),
            ];
            let daemon = MaintenanceDaemon::spawn(Arc::clone(&self.executor) as _, mc, &ticks);
            *self.daemon.write() = Some(Arc::clone(&daemon));
            daemon
        });

        EngineDaemons {
            engine: Arc::clone(self),
            daemon,
        }
    }
}

/// Handle owning the engine's background maintenance.
pub struct EngineDaemons {
    engine: Arc<WildfireEngine>,
    daemon: Option<Arc<MaintenanceDaemon>>,
}

impl EngineDaemons {
    /// The maintenance daemon, when one is running.
    pub fn daemon(&self) -> Option<&Arc<MaintenanceDaemon>> {
        self.daemon.as_ref()
    }

    /// Stop the janitor, drain the job queue, and join everything.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            // Detach the ingest path from this daemon only: a later
            // `start_daemons` may have put another one in the slot. Then
            // drain and join the workers.
            {
                let mut slot = self.engine.daemon.write();
                if slot.as_ref().is_some_and(|d| Arc::ptr_eq(d, &daemon)) {
                    *slot = None;
                }
            }
            daemon.shutdown();
        }
    }
}

impl Drop for EngineDaemons {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WildfireError;
    use crate::table::iot_table;

    fn row(device: i64, msg: i64, date: i64, payload: i64) -> Vec<Datum> {
        vec![
            Datum::Int64(device),
            Datum::Int64(msg),
            Datum::Int64(date),
            Datum::Int64(payload),
        ]
    }

    /// One shard, no daemon: tests drive maintenance themselves.
    fn inline_config() -> EngineConfig {
        EngineConfig {
            maintenance: None,
            ..EngineConfig::default()
        }
    }

    fn engine(n_shards: usize) -> Arc<WildfireEngine> {
        let storage = Arc::new(TieredStorage::in_memory());
        let config = EngineConfig {
            n_shards,
            ..inline_config()
        };
        WildfireEngine::create(storage, Arc::new(iot_table()), config).unwrap()
    }

    /// Inverted watermarks and zero shards fail `create` and `recover` alike
    /// with a typed configuration error: no panic, and no engine whose first
    /// upsert divides by zero.
    #[test]
    fn invalid_maintenance_config_is_an_error_not_a_panic() {
        let inverted = EngineConfig {
            maintenance: Some(MaintenanceConfig {
                l0_high_watermark: 2,
                l0_low_watermark: 8,
                ..MaintenanceConfig::default()
            }),
            ..EngineConfig::default()
        };
        let no_shards = EngineConfig {
            n_shards: 0,
            ..EngineConfig::default()
        };
        for (what, config) in [
            ("inverted watermarks", inverted),
            ("zero shards", no_shards),
        ] {
            for open in [WildfireEngine::create, WildfireEngine::recover] {
                let storage = Arc::new(TieredStorage::in_memory());
                let out = open(storage, Arc::new(iot_table()), config.clone());
                let err = out.expect_err(what);
                assert!(
                    matches!(err, WildfireError::Index(UmziError::Config(_))),
                    "{what}: {err}"
                );
            }
        }
    }

    /// A crash after a post-groom, when its evolve failed at any one of the
    /// shared-storage puts it makes, recovers into a pipeline that drains:
    /// recovery deletes the endTS delta the re-run post-groom writes again,
    /// and every secondary index answers what the primary does. Secondaries
    /// evolve before the primary, so at every fault point they are at or
    /// ahead of it.
    #[test]
    fn crash_at_each_evolve_put_recovers_a_draining_pipeline() {
        use umzi_encoding::ColumnType;
        use umzi_storage::{
            FaultEvent, FaultInjectingStore, FaultOp, FaultPlan, InMemoryObjectStore, LatencyModel,
            ObjectStore, RetryConfig, SharedStorage, TieredConfig,
        };
        let table = Arc::new(
            TableDef::builder("two")
                .column("device", ColumnType::Int64)
                .column("msg", ColumnType::Int64)
                .column("date", ColumnType::Int64)
                .column("payload", ColumnType::Int64)
                .primary_key(&["device", "msg"])
                .sharding_key(&["device"])
                .partition_key("date")
                .secondary_index("by_date", &["date"], &[], &[])
                .secondary_index("by_date_payload", &["date"], &["payload"], &[])
                .build()
                .unwrap(),
        );
        let config = EngineConfig {
            maintenance: None,
            ..EngineConfig::default()
        };
        let puts = |store: &FaultInjectingStore| store.stats().ops[FaultOp::Put.index()];
        // Upsert version `v` of each message; an update may move its date.
        let batch = |e: &WildfireEngine, msgs: std::ops::Range<i64>, v: i64| {
            let rows = msgs.map(|m| row(m % 4, m, 100 + (m * v) % 3, v * 1000 + m));
            e.upsert_many(rows.collect()).unwrap();
        };
        // Ingest a first batch through the whole pipeline, then a second
        // (updating the first when `updates`) up to a published post-groom.
        // Put number `fail_at` fails, with retries off so that it fails the
        // operation. Returns the store, its engine and the setup's puts.
        let setup = |updates: bool, fail_at: Option<u64>| {
            let plan = match fail_at {
                Some(nth) => FaultPlan::none().with_event(FaultEvent::TransientAt {
                    op: FaultOp::Put,
                    nth,
                }),
                None => FaultPlan::none(),
            };
            let store = Arc::new(FaultInjectingStore::new(
                Arc::new(InMemoryObjectStore::new()),
                plan,
            ));
            let tiered = TieredConfig {
                retry: RetryConfig::disabled(),
                ..TieredConfig::default()
            };
            let shared = SharedStorage::new(
                Arc::clone(&store) as Arc<dyn ObjectStore>,
                LatencyModel::off(),
            );
            let storage = Arc::new(TieredStorage::new(shared, tiered));
            let e = WildfireEngine::create(storage, Arc::clone(&table), config.clone()).unwrap();
            batch(&e, 0..40, 1);
            e.quiesce().unwrap();
            batch(&e, if updates { 20..60 } else { 40..80 }, 2);
            e.groom_all().unwrap();
            assert_eq!(e.post_groom_all().unwrap(), 1);
            let setup_puts = puts(&store);
            (store, e, setup_puts)
        };
        // Every row through the primary, and each secondary's answer for
        // every date, as sorted rows.
        let answers = |e: &WildfireEngine| {
            let ints = |view: &RecordView| -> Vec<i64> {
                view.row.iter().map(|d| d.as_i64().unwrap()).collect()
            };
            let (lo, hi, latest) = (
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
            );
            let mut rows: Vec<Vec<i64>> = Vec::new();
            for device in 0..4 {
                let eq = vec![Datum::Int64(device)];
                let recs = e.scan_records(eq, lo.clone(), hi.clone(), latest).unwrap();
                rows.extend(recs.iter().map(ints));
            }
            rows.sort();
            for name in ["by_date", "by_date_payload"] {
                for date in 100..103 {
                    let eq = vec![Datum::Int64(date)];
                    let hits = e.scan_secondary(name, eq, lo.clone(), hi.clone(), latest);
                    let mut got: Vec<Vec<i64>> = hits.unwrap().iter().map(ints).collect();
                    got.sort();
                    let want: Vec<Vec<i64>> =
                        rows.iter().filter(|r| r[2] == date).cloned().collect();
                    assert_eq!(got, want, "{name} at date {date}");
                }
            }
            rows
        };

        // Drain, then ingest and drain one more post-groom: a secondary that
        // missed a PSN would fail its next evolve.
        let finish = |e: &WildfireEngine| -> Result<()> {
            e.quiesce()?;
            batch(e, 30..50, 3);
            e.quiesce()
        };
        for updates in [false, true] {
            // A healthy run counts the evolve's puts and gives the answer.
            let (store, e, setup_puts) = setup(updates, None);
            e.evolve_all().unwrap();
            let evolve_puts = puts(&store) - setup_puts;
            assert!(evolve_puts >= 6, "a run and a manifest per index");
            finish(&e).unwrap();
            let want = answers(&e);
            assert_eq!(want.len(), if updates { 60 } else { 80 });

            for nth in 1..=evolve_puts {
                let case = format!("updates {updates}, evolve put {nth} of {evolve_puts}");
                let (_store, e, _) = setup(updates, Some(setup_puts + nth));
                assert!(e.evolve_all().is_err(), "{case}: the put did not fail");
                let storage = Arc::clone(e.storage());
                drop(e);
                storage.simulate_crash();
                let e = WildfireEngine::recover(storage, Arc::clone(&table), config.clone())
                    .unwrap_or_else(|err| panic!("{case}: recover: {err}"));
                finish(&e).unwrap_or_else(|err| panic!("{case}: quiesce: {err}"));
                assert_eq!(answers(&e), want, "{case}");
            }
        }
    }

    /// A groom that lands between a failed evolve and a crash makes the
    /// recovered shard's re-run post-groom span one more groomed block, so
    /// its endTS delta differs from the one stored under the same PSN.
    /// Recovery deletes every delta above the primary's IndexedPSN, so the
    /// re-run and every later post-groom write theirs, and all updates are
    /// visible.
    #[test]
    fn a_groom_between_a_failed_evolve_and_a_crash_does_not_block_post_groom() {
        use umzi_storage::{
            FaultInjectingStore, FaultPlan, InMemoryObjectStore, LatencyModel, ObjectStore,
            RetryConfig, SharedStorage, TieredConfig,
        };
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(InMemoryObjectStore::new()),
            FaultPlan::none(),
        ));
        let shared = SharedStorage::new(
            Arc::clone(&store) as Arc<dyn ObjectStore>,
            LatencyModel::off(),
        );
        let tiered = TieredConfig {
            retry: RetryConfig::disabled(),
            ..TieredConfig::default()
        };
        let storage = Arc::new(TieredStorage::new(shared, tiered));
        let (table, config) = (Arc::new(iot_table()), inline_config());
        // Upsert version `v` of each message.
        let batch = |e: &WildfireEngine, msgs: std::ops::Range<i64>, v: i64| {
            let rows = msgs.map(|m| row(m % 4, m, 100, v * 1000 + m));
            e.upsert_many(rows.collect()).unwrap();
        };
        let e = WildfireEngine::create(Arc::clone(&storage), Arc::clone(&table), config.clone())
            .unwrap();
        batch(&e, 0..40, 1);
        e.quiesce().unwrap();
        // Updates across batches: the post-groom stores an endTS delta.
        batch(&e, 0..20, 2);
        e.groom_all().unwrap();
        assert_eq!(e.post_groom_all().unwrap(), 1);
        store.crash();
        assert!(e.evolve_all().is_err(), "the evolve did not fail");
        store.revive();
        // More cross-batch updates, groomed before the crash.
        batch(&e, 20..30, 3);
        assert_eq!(e.groom_all().unwrap(), 1);
        drop(e);
        storage.simulate_crash();

        let e = WildfireEngine::recover(storage, table, config).unwrap();
        e.quiesce().unwrap();
        batch(&e, 30..35, 4);
        e.quiesce().unwrap();
        let version = |m: i64| match m {
            0..20 => 2,
            20..30 => 3,
            30..35 => 4,
            _ => 1,
        };
        for device in 0..4 {
            let recs = e
                .scan_records(
                    vec![Datum::Int64(device)],
                    SortBound::Unbounded,
                    SortBound::Unbounded,
                    Freshness::Latest,
                )
                .unwrap();
            let got: Vec<(i64, i64)> = recs
                .iter()
                .map(|r| (r.row[1].as_i64().unwrap(), r.row[3].as_i64().unwrap()))
                .collect();
            let want: Vec<(i64, i64)> = (0..40)
                .filter(|m| m % 4 == device)
                .map(|m| (m, version(m) * 1000 + m))
                .collect();
            assert_eq!(got, want, "device {device}");
        }
    }

    /// `quiesce` merges and collects every index, not only the primary: a
    /// secondary's runs stay within the merge policy's bound and its
    /// graveyard empties, round after round.
    #[test]
    fn quiesce_keeps_secondary_indexes_merged_and_collected() {
        use umzi_encoding::ColumnType;
        let table = TableDef::builder("orders")
            .column("customer", ColumnType::Int64)
            .column("order", ColumnType::Int64)
            .column("day", ColumnType::Int64)
            .column("amount", ColumnType::Int64)
            .primary_key(&["customer", "order"])
            .sharding_key(&["customer"])
            .partition_key("day")
            .secondary_index("by_day", &["day"], &[], &[])
            .build()
            .unwrap();
        let e = WildfireEngine::create(
            Arc::new(TieredStorage::in_memory()),
            Arc::new(table),
            inline_config(),
        )
        .unwrap();
        for round in 0..40 {
            let orders = (round * 50..(round + 1) * 50).map(|o| row(o % 7, o, o % 3, o));
            e.upsert_many(orders.collect()).unwrap();
            e.quiesce().unwrap();
        }
        let shard = &e.shards()[0];
        let merge = shard.index().config().merge;
        let bound = (shard.index().config().max_level() as usize + 1) * merge.k;
        let primary_runs = shard.index().run_count();
        assert!(primary_runs <= bound, "primary: {primary_runs} runs");
        for idx in shard.indexes() {
            let name = &idx.config().name;
            assert_eq!(idx.graveyard_len(), 0, "{name}: buried runs never deleted");
            assert_eq!(idx.run_count(), primary_runs, "{name}: runs");
        }
    }

    /// Dropping the handle of an earlier `start_daemons` leaves the newer
    /// daemon attached: the ingest path still reaches it.
    #[test]
    fn a_stale_daemon_handle_does_not_detach_a_newer_daemon() {
        let e = WildfireEngine::create(
            Arc::new(TieredStorage::in_memory()),
            Arc::new(iot_table()),
            EngineConfig::default(),
        )
        .unwrap();
        let first = e.start_daemons();
        let second = e.start_daemons();
        drop(first);
        assert!(
            e.maintenance_stats().is_some(),
            "the newer daemon was detached"
        );
        drop(second);
        assert!(e.maintenance_stats().is_none());
    }

    #[test]
    fn freshest_reads_see_live_zone() {
        let e = engine(1);
        e.upsert(row(1, 1, 100, 7)).unwrap();
        // Not groomed yet: Latest misses, Freshest hits.
        assert!(e
            .get(&[Datum::Int64(1)], &[Datum::Int64(1)], Freshness::Latest)
            .unwrap()
            .is_none());
        let live = e
            .get(&[Datum::Int64(1)], &[Datum::Int64(1)], Freshness::Freshest)
            .unwrap()
            .unwrap();
        assert_eq!(live.begin_ts, None);
        assert_eq!(live.row[3], Datum::Int64(7));

        e.groom_all().unwrap();
        let indexed = e
            .get(&[Datum::Int64(1)], &[Datum::Int64(1)], Freshness::Latest)
            .unwrap()
            .unwrap();
        assert!(indexed.begin_ts.is_some());
    }

    #[test]
    fn multi_shard_routing_and_fanout() {
        let e = engine(4);
        let rows: Vec<_> = (0..40).map(|d| row(d, 1, 100, d)).collect();
        e.upsert_many(rows).unwrap();
        e.groom_all().unwrap();
        // Every device resolves through its own shard.
        for d in 0..40 {
            let v = e
                .get(&[Datum::Int64(d)], &[Datum::Int64(1)], Freshness::Latest)
                .unwrap()
                .unwrap();
            assert_eq!(v.row[0], Datum::Int64(d));
        }
        // Device-pinned scan (equality binds the sharding key).
        let out = e
            .scan_index(
                vec![Datum::Int64(3)],
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
                ReconcileStrategy::PriorityQueue,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    /// A scan whose equality values do not bind the sharding key fans out:
    /// each shard resolves its own RIDs, in both zones, and the shards
    /// merge into one key-ordered answer, the same as `scan_index`'s.
    #[test]
    fn fan_out_scan_records_resolves_per_shard_and_merges_by_key() {
        use umzi_encoding::ColumnType;
        let table = TableDef::builder("fan")
            .column("device", ColumnType::Int64)
            .column("msg", ColumnType::Int64)
            .column("date", ColumnType::Int64)
            .column("payload", ColumnType::Int64)
            .primary_key(&["device", "msg"])
            .sharding_key(&["msg"])
            .partition_key("date")
            .index_equality(&["device"])
            .index_sort(&["msg"])
            .build()
            .unwrap();
        let e = WildfireEngine::create(
            Arc::new(TieredStorage::in_memory()),
            Arc::new(table),
            EngineConfig {
                n_shards: 3,
                maintenance: None,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let rows = |msgs: std::ops::Range<i64>, v: i64| {
            let rows = msgs.flat_map(|m| (0..3).map(move |d| row(d, m, 100 + m % 2, v * 1000 + m)));
            e.upsert_many(rows.collect()).unwrap();
        };
        rows(0..30, 1);
        rows(10..20, 2); // updates
        e.quiesce().unwrap();
        rows(25..40, 3); // groomed, not post-groomed
        e.groom_all().unwrap();

        let (lo, hi) = (SortBound::Unbounded, SortBound::Unbounded);
        let eq = vec![Datum::Int64(1)];
        let recs = e
            .scan_records(eq.clone(), lo.clone(), hi.clone(), Freshness::Latest)
            .unwrap();
        let msgs: Vec<i64> = (0..40).collect();
        let got: Vec<(i64, i64)> = recs
            .iter()
            .map(|r| match (&r.row[1], &r.row[3]) {
                (Datum::Int64(m), Datum::Int64(p)) => (*m, *p),
                _ => panic!("bad row {:?}", r.row),
            })
            .collect();
        let version = |m: i64| {
            if m >= 25 {
                3
            } else if (10..20).contains(&m) {
                2
            } else {
                1
            }
        };
        let want: Vec<(i64, i64)> = msgs.iter().map(|&m| (m, version(m) * 1000 + m)).collect();
        assert_eq!(got, want);
        let outs = e
            .scan_index(
                eq,
                lo,
                hi,
                Freshness::Latest,
                ReconcileStrategy::PriorityQueue,
            )
            .unwrap();
        let rids: Vec<Option<Rid>> = outs.iter().map(|o| Some(o.rid().unwrap())).collect();
        assert_eq!(recs.iter().map(|r| r.rid).collect::<Vec<_>>(), rids);
        let shards_hit = e
            .shards()
            .iter()
            .filter(|s| s.index().run_count() > 0)
            .count();
        assert_eq!(shards_hit, 3, "the scan spans every shard");
    }

    #[test]
    fn full_pipeline_quiesce() {
        let e = engine(2);
        for d in 0..10 {
            for m in 0..5 {
                e.upsert(row(d, m, 100 + m % 2, d * 10 + m)).unwrap();
            }
        }
        e.quiesce().unwrap();
        // Everything evolved into the post-groomed zone.
        for s in e.shards() {
            assert_eq!(s.index().zones()[0].list.len(), 0, "groomed zone drained");
            assert!(!s.index().zones()[1].list.is_empty());
        }
        // Unified view intact.
        for d in 0..10 {
            let recs = e
                .scan_records(
                    vec![Datum::Int64(d)],
                    SortBound::Unbounded,
                    SortBound::Unbounded,
                    Freshness::Latest,
                )
                .unwrap();
            assert_eq!(recs.len(), 5, "device {d}");
        }
    }

    #[test]
    fn daemons_drive_pipeline() {
        let storage = Arc::new(TieredStorage::in_memory());
        let e = WildfireEngine::create(
            storage,
            Arc::new(iot_table()),
            EngineConfig {
                n_shards: 1,
                groom_interval: Duration::from_millis(10),
                post_groom_interval: Duration::from_millis(40),
                maintenance: Some(MaintenanceConfig {
                    workers: 2,
                    janitor_interval: Duration::from_millis(20),
                    adaptive_cache: false,
                    ..MaintenanceConfig::default()
                }),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let daemons = e.start_daemons();
        for m in 0..50 {
            e.upsert(row(1, m, 100, m)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        // Wait for the pipeline to ingest everything.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let out = e
                .scan_index(
                    vec![Datum::Int64(1)],
                    SortBound::Unbounded,
                    SortBound::Unbounded,
                    Freshness::Latest,
                    ReconcileStrategy::PriorityQueue,
                )
                .unwrap();
            if out.len() == 50 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "pipeline stalled at {}",
                out.len()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        daemons.shutdown();
    }

    /// ROADMAP "Wildfire groom bytes": the daemon's `bytes_moved` counter
    /// must advance for groom and evolve jobs now that the shard reports
    /// serialized block sizes.
    #[test]
    fn daemon_accounts_groom_and_evolve_bytes() {
        use umzi_core::JobKind;
        let storage = Arc::new(TieredStorage::in_memory());
        let e = WildfireEngine::create(
            storage,
            Arc::new(iot_table()),
            EngineConfig {
                n_shards: 1,
                groom_interval: Duration::from_millis(5),
                post_groom_interval: Duration::from_millis(15),
                maintenance: Some(MaintenanceConfig {
                    workers: 1,
                    janitor_interval: Duration::from_millis(20),
                    adaptive_cache: false,
                    ..MaintenanceConfig::default()
                }),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let daemons = e.start_daemons();
        for m in 0..40 {
            e.upsert(row(2, m, 100, m)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = e.maintenance_stats().expect("daemon running");
            let groom = stats.kind(JobKind::Groom);
            let evolve = stats.kind(JobKind::Evolve);
            if groom.runs > 0 && evolve.runs > 0 {
                assert!(
                    groom.bytes_moved > 0,
                    "groom jobs must account block bytes: {groom:?}"
                );
                assert!(
                    evolve.bytes_moved > 0,
                    "evolve jobs must account post-groomed block bytes: {evolve:?}"
                );
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "pipeline never groomed+evolved: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        daemons.shutdown();
    }

    /// Column blocks live in the shard registry and on shared storage only:
    /// after a full drain the SSD tier holds exactly the live index runs —
    /// the occupancy §6.2's cache manager weighs when it purges runs.
    #[test]
    fn ssd_tier_holds_only_index_runs() {
        let e = WildfireEngine::create(
            Arc::new(TieredStorage::in_memory()),
            Arc::new(iot_table()),
            EngineConfig::default(),
        )
        .unwrap();
        e.upsert_many((0..2000).map(|m| row(m % 8, m, 100 + m % 3, m)).collect())
            .unwrap();
        e.quiesce().unwrap();
        let runs: u64 = e
            .shards()
            .iter()
            .flat_map(|s| s.indexes())
            .flat_map(|idx| idx.all_runs().into_iter().flatten())
            .map(|run| run.size_bytes())
            .sum();
        assert!(runs > 0);
        assert_eq!(e.storage().ssd_tier().used_bytes(), runs);
    }

    /// The access-pattern hints must survive the whole engine stack: point
    /// gets label decoded-cache traffic as point lookups, analytic scans as
    /// range scans, and merge/groom maintenance never pollutes the cache.
    #[test]
    fn access_pattern_hints_flow_through_engine() {
        let e = engine(1);
        for d in 0..8 {
            for m in 0..200 {
                e.upsert(row(d, m, 100, d * 200 + m)).unwrap();
            }
        }
        e.quiesce().unwrap();

        let before = e.decoded_cache_stats();
        for d in 0..8 {
            e.get(&[Datum::Int64(d)], &[Datum::Int64(3)], Freshness::Latest)
                .unwrap()
                .unwrap();
        }
        let after_points = e.decoded_cache_stats();
        assert!(
            after_points.point.hits + after_points.point.misses
                > before.point.hits + before.point.misses,
            "point gets must be labelled PointLookup: {after_points:?}"
        );

        e.scan_index(
            vec![Datum::Int64(2)],
            SortBound::Unbounded,
            SortBound::Unbounded,
            Freshness::Latest,
            ReconcileStrategy::PriorityQueue,
        )
        .unwrap();
        let after_scan = e.decoded_cache_stats();
        assert!(
            after_scan.scan.hits + after_scan.scan.misses
                > after_points.scan.hits + after_points.scan.misses,
            "index scans must be labelled RangeScan: {after_scan:?}"
        );
    }

    /// With a groom job quarantined (storage puts failing) and level 0 at
    /// the high watermark, a writer must get a [`WildfireError::Backpressure`]
    /// error once its own ambient deadline is spent — not hang on a gate no
    /// one will ever open. Runs on the shipped retry/quarantine constants.
    #[test]
    fn stalled_writers_error_instead_of_hanging() {
        use std::time::Instant;
        use umzi_core::MergePolicy;
        use umzi_storage::{
            FaultInjectingStore, FaultOp, FaultPlan, InMemoryObjectStore, LatencyModel,
            ObjectStore, QueryContext, SharedStorage, TieredConfig,
        };

        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryObjectStore::new());
        let faulty = Arc::new(FaultInjectingStore::new(
            inner,
            FaultPlan::none().with_transient(FaultOp::Put, 1.0),
        ));
        faulty.set_armed(false); // healthy until the setup is in place
        let mut tc = TieredConfig::default();
        tc.retry.base_backoff = Duration::ZERO; // fast exhaustion in-test
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::new(
                Arc::clone(&faulty) as Arc<dyn ObjectStore>,
                LatencyModel::off(),
            ),
            tc,
        ));

        let mut cfg = EngineConfig {
            n_shards: 1,
            // Manual grooming only: upserts never auto-trigger, and the
            // janitor's ticks are parked far out so only their startup pokes
            // fire.
            groom_trigger_rows: usize::MAX,
            groom_interval: Duration::from_secs(3600),
            post_groom_interval: Duration::from_secs(3600),
            maintenance: Some(MaintenanceConfig {
                workers: 1,
                janitor_interval: Duration::from_secs(3600),
                adaptive_cache: false,
                l0_high_watermark: 2,
                l0_low_watermark: 1,
                ..MaintenanceConfig::default()
            }),
            ..EngineConfig::default()
        };
        // Merges must not relieve level 0 behind the test's back.
        cfg.shard.umzi.merge = MergePolicy {
            k: 100,
            t: u64::MAX,
        };
        let e = WildfireEngine::create(storage, Arc::new(iot_table()), cfg).unwrap();
        let daemons = e.start_daemons();
        // Wait for the janitor's startup pokes (retire + groom + evolve, all
        // no-ops on an empty engine) to be enqueued AND drained, so a
        // late-popping Evolve can't post-groom a level-0 run away mid-fill.
        // (`wait_idle` alone races with the janitor still starting.)
        {
            let d = daemons.daemon().unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !(d.stats().enqueued >= 3 && d.is_idle()) {
                assert!(
                    Instant::now() < deadline,
                    "startup pokes never drained: {:?}",
                    d.stats()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        // Fill level 0 to the high watermark with healthy storage.
        for m in 0..2 {
            e.upsert(row(1, m, 100, m)).unwrap();
            e.groom_all().unwrap();
        }
        assert_eq!(max_l0_runs(e.shards()), 2);

        // Park rows in the live zone (shard-direct, bypassing admission),
        // then break storage and let the daemon quarantine the groom.
        e.shards()[0]
            .upsert((0..10).map(|m| row(1, 500 + m, 100, m)).collect())
            .unwrap();
        faulty.set_armed(true);
        daemons.daemon().unwrap().enqueue(Job::Groom { shard: 0 });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !e.health().degraded {
            assert!(
                Instant::now() < deadline,
                "groom job never quarantined: {:?}",
                e.maintenance_stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // The writer must come back with an error once its 100 ms budget is
        // spent.
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(100);
        let err = {
            let _g = context::enter(QueryContext::deadline_at(deadline));
            e.upsert(row(1, 999, 100, 0)).unwrap_err()
        };
        assert!(Instant::now() >= deadline, "writer gave up early");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "writer did not return promptly"
        );
        match err {
            crate::error::WildfireError::Backpressure {
                waited,
                l0_runs,
                degraded,
            } => {
                assert!(waited > Duration::ZERO, "waited {waited:?}");
                assert_eq!(l0_runs, 2);
                assert!(degraded, "quarantined groom must mark the stall degraded");
            }
            other => panic!("expected Backpressure, got {other}"),
        }

        let h = e.health();
        assert!(h.storage_retries > 0, "failing puts were retried: {h:?}");
        assert!(h.storage_retries_exhausted > 0, "{h:?}");
        let f = h
            .fault
            .expect("fault-injecting store surfaces its counters");
        assert!(f.total_injected() > 0, "injected faults folded in: {f:?}");
        assert!(h.degraded);
        // The groom is quarantined for sure; the relief evolve job enqueued
        // by admission may have failed on the same broken storage and joined
        // it.
        assert!(h.quarantined_jobs >= 1, "{h:?}");
        let stats = e.maintenance_stats().unwrap();
        assert_eq!(stats.kind(umzi_core::JobKind::Groom).quarantined, 1);
        assert!(h.backpressure_timeouts >= 1, "{h:?}");
        assert!(h.ingest_stalled, "timed-out gate stays stalled");
        daemons.shutdown();
    }

    /// The ambient context is the only carrier: a deadline or cancel token
    /// the caller installed with `context::enter` reaches each of the six
    /// operations, surfaces as the typed error (never a panic or a partial
    /// result), advances the SLO counters by one per call, and leaves no
    /// residue for the next, unbounded call.
    #[test]
    fn caller_context_reaches_every_operation() {
        use umzi_encoding::ColumnType;
        use umzi_storage::{CancelToken, QueryContext};

        let table = TableDef::builder("iot")
            .column("device", ColumnType::Int64)
            .column("msg", ColumnType::Int64)
            .column("date", ColumnType::Int64)
            .column("payload", ColumnType::Int64)
            .primary_key(&["device", "msg"])
            .sharding_key(&["device"])
            .secondary_index("by_date", &["date"], &[], &[])
            .build()
            .unwrap();
        let e = WildfireEngine::create(
            Arc::new(TieredStorage::in_memory()),
            Arc::new(table),
            EngineConfig {
                maintenance: None,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        e.upsert_many((0..300).map(|m| row(1, m, 100, m)).collect())
            .unwrap();
        e.quiesce().unwrap();

        const OPS: [&str; 6] = [
            "get",
            "scan_index",
            "scan_records",
            "scan_secondary",
            "upsert",
            "upsert_many",
        ];
        // Run one operation by name; the count is its result size.
        let call = |op: &str| -> Result<usize> {
            let eq = vec![Datum::Int64(1)];
            let (lo, hi, latest) = (
                SortBound::Unbounded,
                SortBound::Unbounded,
                Freshness::Latest,
            );
            Ok(match op {
                "get" => e.get(&eq, &[Datum::Int64(3)], latest)?.iter().len(),
                "scan_index" => e
                    .scan_index(eq, lo, hi, latest, ReconcileStrategy::PriorityQueue)?
                    .len(),
                "scan_records" => e.scan_records(eq, lo, hi, latest)?.len(),
                "scan_secondary" => {
                    let date = vec![Datum::Int64(100)];
                    e.scan_secondary("by_date", date, lo, hi, latest)?.len()
                }
                "upsert" => e.upsert(row(1, 1000, 100, 0)).map(|()| 1)?,
                "upsert_many" => e.upsert_many(vec![row(1, 1001, 100, 0)]).map(|()| 1)?,
                other => unreachable!("{other}"),
            })
        };
        let healthy = || -> Vec<usize> {
            let answer = |op| call(op).unwrap_or_else(|err| panic!("{op}: {err}"));
            OPS.iter().copied().map(answer).collect()
        };
        // Nothing installed: every operation answers (and the two upserts
        // land in the live zone, where `Latest` reads do not see them).
        assert_eq!(healthy(), [1, 300, 300, 300, 1, 1]);

        for (n, name) in OPS.into_iter().enumerate() {
            let n = n as u64 + 1;
            // A deadline that was already over when the call arrived.
            let err = {
                let past = std::time::Instant::now() - Duration::from_millis(1);
                let _g = context::enter(QueryContext::deadline_at(past));
                call(name).expect_err(name)
            };
            assert!(err.is_deadline_exceeded(), "{name}: got {err}");
            // A token tripped before the very first cooperative checkpoint.
            let token = CancelToken::trip_after(0);
            let err = {
                let _g = context::enter(QueryContext::unbounded().with_cancel(token));
                call(name).expect_err(name)
            };
            assert!(err.is_cancelled(), "{name}: got {err}");
            assert!(err.is_query_abort());
            let h = e.health();
            assert_eq!((h.query_timeouts, h.query_cancellations), (n, n), "{name}");
        }

        // The aborted calls left no residue: same answers, no shed, and a
        // get under a healthy breaker is not a degraded hit.
        assert_eq!(healthy(), [1, 300, 300, 300, 1, 1]);
        assert_eq!(e.health().query_sheds, 0);
        let snap = e.telemetry();
        let overshoot = snap
            .histogram("umzi_query_deadline_overshoot_nanos")
            .expect("overshoot histogram registered");
        assert_eq!(overshoot.count(), 6, "one sample per expired call");
        let prom = snap.to_prometheus();
        assert!(prom.contains("umzi_query_timeouts_total 6"));
        assert!(prom.contains("umzi_query_cancellations_total 6"));
        assert!(prom.contains("umzi_query_degraded_hits_total 0"));
    }

    #[test]
    fn engine_recovery() {
        let storage = Arc::new(TieredStorage::in_memory());
        let table = Arc::new(iot_table());
        let cfg = EngineConfig {
            n_shards: 2,
            maintenance: None,
            ..EngineConfig::default()
        };
        let e =
            WildfireEngine::create(Arc::clone(&storage), Arc::clone(&table), cfg.clone()).unwrap();
        for d in 0..10 {
            e.upsert(row(d, 1, 100, d)).unwrap();
        }
        e.quiesce().unwrap();
        drop(e);
        storage.simulate_crash();

        let e = WildfireEngine::recover(storage, table, cfg).unwrap();
        for d in 0..10 {
            let v = e
                .get(&[Datum::Int64(d)], &[Datum::Int64(1)], Freshness::Latest)
                .unwrap()
                .unwrap();
            assert_eq!(v.row[3], Datum::Int64(d));
        }
    }
}
