//! The composed storage hierarchy: RAM ← SSD ← shared storage.
//!
//! Objects are immutable and read in fixed-size chunks. The read path walks
//! RAM → SSD → shared, promoting chunks downward on miss (§7: purged runs
//! are *"transferred from shared storage to the SSD cache on a block-basis"*).
//! RAM is one tier ([`RamTier`]) holding each chunk once, with a bit saying
//! whether a block read has verified it; the SSD is a [`CacheTier`].
//! Objects come in two durabilities (§6.1):
//!
//! * [`Durability::Persisted`] — written to shared storage; local tiers are
//!   pure caches. The leading *header* chunks are pinned in the SSD tier so
//!   purging a run never evicts the metadata queries need to locate blocks.
//! * [`Durability::NonPersisted`] — never written to shared storage; all
//!   chunks are pinned in the SSD tier (the run's only home). A simulated
//!   crash loses them, which is exactly the recovery scenario §6.1 designs
//!   for via ancestor-run tracking.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use umzi_telemetry::Telemetry;

use crate::block_cache::{DecodedCacheConfig, RamTier};
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::cache::CacheTier;
use crate::context::{self, OpClass, Priority};
use crate::error::StorageError;
use crate::latency::{LatencyMode, LatencyModel, TierLatency};
use crate::shared::SharedStorage;
use crate::stats::{StorageStats, TraceProbe};
use crate::Result;

/// Opaque handle to a registered object; cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectHandle(pub(crate) u64);

impl ObjectHandle {
    /// The raw handle value (diagnostics only).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Whether an object is backed by shared storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Durable in shared storage; local tiers are caches.
    Persisted,
    /// Lives only in the local SSD tier (non-persisted levels, §6.1).
    NonPersisted,
}

/// Bounded retry with decorrelated-jitter backoff for shared-storage IO.
///
/// Applied to every shared-storage read and write issued by
/// [`TieredStorage`] when the error is transient
/// ([`StorageError::is_transient`]). Each attempt's delay is drawn uniformly
/// from `[base_backoff, 3 × previous_delay]` and capped at `max_backoff`
/// (decorrelated jitter), so concurrent retriers spread out instead of
/// thundering in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// First-retry backoff and the jitter floor.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub max_backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryConfig {
    /// No retrying at all: transient errors propagate immediately.
    pub fn disabled() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }
}

/// Readahead for sequential block IO: how many blocks a range scan keeps
/// staged ahead of its consumer.
///
/// A range scan's future block sequence is fully predictable from the fence
/// index, so instead of demand-fetching one chunk per stall, the run layer
/// asks the hierarchy to stage the next `READAHEAD_DEPTH` chunks in **one**
/// batched shared-storage read ([`crate::SharedStorage::get_ranges`]) while
/// the merge consumes the current block. Readahead is advisory: a failed
/// batch is dropped (and retried synchronously by the demand path), never
/// surfaced to the iterator. Depth 16 is where `scan_long_rows_per_s` on the
/// benchmark's `read_cold` workload flattens out (4 / 8 / 16: 97k / 125k /
/// 132k rows/s against 48k with no readahead).
///
/// It is also the claim window of a batch lookup: each run's sorted probes
/// are cut into claims whose target blocks span at most this many distinct
/// blocks, and a cold claim stages them in one batched read.
pub const READAHEAD_DEPTH: u32 = 16;

/// Upper bound on the bytes one readahead batch may put in flight; a batch
/// is truncated (never split) to stay under it.
pub const READAHEAD_MAX_INFLIGHT_BYTES: u64 = 4 << 20;

/// The thread cap [`TieredStorage::prefetch_objects`] hands the shared
/// [`context::fan_out`] pool: a staging round runs on at most this many
/// threads, the calling thread included, one object at a time each. A cold
/// point lookup stages one block per candidate run, and the benchmark's
/// cold dataset has seven runs; past eight, the threads claim the remaining
/// objects in turn.
pub const PREFETCH_MAX_THREADS: usize = 8;

/// Configuration of the tiered hierarchy.
#[derive(Debug, Clone)]
pub struct TieredConfig {
    /// Chunk (block) size in bytes; the run format aligns its data blocks to
    /// this. Default 8 KiB.
    pub chunk_size: usize,
    /// RAM-tier capacity in bytes, less [`Self::decoded_cache`]: the RAM
    /// tier ([`RamTier`]) is one budget of both fields' sum, shared by
    /// chunks not yet verified and blocks a read has verified.
    pub mem_capacity: u64,
    /// SSD-tier capacity in bytes.
    pub ssd_capacity: u64,
    /// SSD access latency.
    pub ssd_latency: TierLatency,
    /// Shared-storage access latency.
    pub shared_latency: TierLatency,
    /// Whether latencies sleep or only account.
    pub latency_mode: LatencyMode,
    /// The rest of the RAM tier's budget: its capacity is
    /// [`Self::mem_capacity`] plus this, and its shard count follows from
    /// the sum. Point lookups' re-referenced blocks may hold
    /// [`crate::block_cache::PROTECTED_FRACTION`] of this share. A verified
    /// block is served from RAM without a chunk read or a checksum.
    pub decoded_cache: DecodedCacheConfig,
    /// Bounded retry with backoff for transient shared-storage failures.
    pub retry: RetryConfig,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self {
            chunk_size: 8 * 1024,
            mem_capacity: 256 * 1024 * 1024,
            ssd_capacity: 4 * 1024 * 1024 * 1024,
            ssd_latency: TierLatency::free(),
            shared_latency: TierLatency::free(),
            latency_mode: LatencyMode::Accounting,
            decoded_cache: DecodedCacheConfig::default(),
            retry: RetryConfig::default(),
        }
    }
}

impl TieredConfig {
    /// A config with realistic (accounting-mode) tier latencies.
    pub fn with_default_latencies(mut self) -> Self {
        self.ssd_latency = TierLatency::micros(100, 1);
        self.shared_latency = TierLatency::micros(2_000, 20);
        self
    }
}

#[derive(Debug, Clone)]
struct ObjectMeta {
    name: Arc<str>,
    len: u64,
    durability: Durability,
    header_chunks: u32,
}

#[derive(Debug, Default)]
struct Registry {
    by_name: HashMap<Arc<str>, u64>,
    by_handle: HashMap<u64, ObjectMeta>,
    next_handle: u64,
}

/// The storage hierarchy used by every Umzi component.
pub struct TieredStorage {
    config: TieredConfig,
    shared: SharedStorage,
    /// Chunks in RAM, verified by a block read or not.
    ram: RamTier,
    ssd: CacheTier,
    /// Total `read_chunk` calls, regardless of which tier served them.
    chunk_reads: AtomicU64,
    registry: RwLock<Registry>,
    /// Jitter source for retry backoff. Seeded deterministically so tests
    /// replay the same delays.
    retry_rng: Mutex<StdRng>,
    /// Retries and retry exhaustions per op class, indexed by
    /// [`OpClass::index`]; the totals are their sums.
    retries_by_class: [AtomicU64; OpClass::COUNT],
    retries_exhausted_by_class: [AtomicU64; OpClass::COUNT],
    /// Retry sleeps clamped by a query deadline (returned
    /// `DeadlineExceeded` instead of sleeping past the budget).
    deadline_aborted_retries: AtomicU64,
    /// Retry loops abandoned at a cancellation checkpoint.
    cancelled_retries: AtomicU64,
    /// Per-op-class circuit breaker over shared storage.
    breaker: CircuitBreaker,
    /// GC deletes that exhausted retries; names parked in `leaked_gc`.
    gc_delete_failures: AtomicU64,
    /// Parked deletes the janitor later completed (or found already gone).
    gc_leaked_reclaimed: AtomicU64,
    /// Object names whose GC delete failed — awaiting janitor re-attempt.
    leaked_gc: Mutex<BTreeSet<String>>,
    corruption_refetches: AtomicU64,
    /// Chunks staged ahead of demand that no read has consumed yet. Bounded
    /// FIFO window: keys that age out unconsumed count as wasted readahead.
    prefetched: Mutex<PrefetchWindow>,
    /// Fast-path guard for `prefetched`: number of unconsumed tracked keys.
    /// `read_chunk` only takes the window lock when this is non-zero, so a
    /// point read with no scan in flight costs one relaxed load.
    prefetch_outstanding: AtomicU64,
    blocks_prefetched: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
    /// Telemetry handle shared with every layer stacked on this hierarchy
    /// (the index and engine record their own operation classes into it).
    telemetry: Arc<Telemetry>,
}

/// Tracking window for outstanding prefetched chunks: a FIFO of keys plus a
/// membership set for O(1) consume-on-read. The deque may briefly hold keys
/// whose set entry was already consumed (lazy removal); trimming skips them.
#[derive(Debug, Default)]
struct PrefetchWindow {
    set: std::collections::HashSet<(u64, u32)>,
    order: std::collections::VecDeque<(u64, u32)>,
}

/// Keys the tracking window retains before the oldest unconsumed entry is
/// aged out and counted as wasted readahead. Sized to cover several deep
/// scans' worth of in-flight blocks; an approximation knob, not a cache.
const PREFETCH_WINDOW: usize = 4096;

/// Total of a per-op-class counter array.
fn sum(by_class: &[AtomicU64; OpClass::COUNT]) -> u64 {
    by_class.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

impl std::fmt::Debug for TieredStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStorage")
            .field("chunk_size", &self.config.chunk_size)
            .field("stats", &self.stats())
            .finish()
    }
}

impl TieredStorage {
    /// Build a hierarchy over the given shared storage.
    pub fn new(shared: SharedStorage, config: TieredConfig) -> Self {
        let ram = RamTier::new(config.mem_capacity, config.decoded_cache.capacity_bytes);
        let ssd = CacheTier::new(
            config.ssd_capacity,
            LatencyModel::new(config.ssd_latency, config.latency_mode),
        );
        Self {
            config,
            shared,
            ram,
            ssd,
            chunk_reads: AtomicU64::new(0),
            registry: RwLock::new(Registry::default()),
            retry_rng: Mutex::new(StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15)),
            retries_by_class: Default::default(),
            retries_exhausted_by_class: Default::default(),
            deadline_aborted_retries: AtomicU64::new(0),
            cancelled_retries: AtomicU64::new(0),
            breaker: CircuitBreaker::new(),
            gc_delete_failures: AtomicU64::new(0),
            gc_leaked_reclaimed: AtomicU64::new(0),
            leaked_gc: Mutex::new(BTreeSet::new()),
            corruption_refetches: AtomicU64::new(0),
            prefetched: Mutex::new(PrefetchWindow::default()),
            prefetch_outstanding: AtomicU64::new(0),
            blocks_prefetched: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            telemetry: Arc::new(Telemetry::new()),
        }
    }

    /// An all-in-memory hierarchy with zero latencies (tests, microbenches).
    pub fn in_memory() -> Self {
        Self::new(SharedStorage::in_memory(), TieredConfig::default())
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.config.chunk_size
    }

    /// The shared-storage layer (manifests, listing, recovery).
    pub fn shared(&self) -> &SharedStorage {
        &self.shared
    }

    /// The telemetry handle of this hierarchy. Every layer stacked on the
    /// storage records into this one handle, so the engine snapshot sees
    /// query, storage, and daemon metrics in a single registry.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Fault-injection statistics of the backing store, if it injects any.
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.shared.fault_stats()
    }

    /// Sample the counters a per-query trace attributes by delta. Four
    /// relaxed atomic loads — safe on the query hot path, unlike
    /// [`Self::stats`].
    pub fn trace_probe(&self) -> TraceProbe {
        TraceProbe {
            chunk_reads: self.chunk_reads.load(Ordering::Relaxed),
            cache_hits: self.ram.hits_total(),
            decoded_bytes: self.ram.decoded_bytes(),
            retries: sum(&self.retries_by_class),
        }
    }

    /// Stage chunks ahead of demand — the one way any read fetches a block
    /// before it needs it. Each batch names an object and the chunks wanted
    /// of it. Nothing is staged, and no thread spawned or request issued,
    /// when
    /// * the block-fetch breaker is not closed — a round would fire doomed
    ///   requests, or spend the half-open probe;
    /// * the ambient context is [`Priority::Background`]:
    ///   maintenance is throughput work and waits on its own reads;
    /// * the query is cancelled or past its deadline;
    /// * fewer than two of the chunks are not yet local: one fetch is no
    ///   slower on demand.
    ///
    /// Otherwise each object's non-local chunks, sorted and deduplicated,
    /// are read in one batched
    /// fetch, the objects spread over at most [`PREFETCH_MAX_THREADS`]
    /// [`context::fan_out`] workers (a single object runs inline). Staged
    /// chunks land unverified; the read that consumes one verifies and
    /// decodes it. This is the one residency check of every staging
    /// planner. Advisory: an object whose fetch fails stages nothing, and
    /// its reader fetches on demand. Returns the number of chunks staged.
    pub fn prefetch_objects(&self, batches: &[(ObjectHandle, Vec<u32>)]) -> usize {
        if self.breaker.state(OpClass::BlockFetch) != BreakerState::Closed
            || context::current().priority() == Priority::Background
            || context::current_aborted()
        {
            return 0;
        }
        let wanted: Vec<(ObjectHandle, Vec<u32>)> = batches
            .iter()
            .filter_map(|&(h, ref chunks)| {
                let cold = chunks.iter().copied();
                let mut cold: Vec<u32> = cold.filter(|&c| !self.is_chunk_local(h, c)).collect();
                cold.sort_unstable();
                cold.dedup();
                (!cold.is_empty()).then_some((h, cold))
            })
            .collect();
        if wanted.iter().map(|(_, c)| c.len()).sum::<usize>() < 2 {
            return 0;
        }
        let staged = context::fan_out(&wanted, PREFETCH_MAX_THREADS, |(h, chunks)| {
            Ok::<_, StorageError>(self.prefetch_chunks(*h, chunks).unwrap_or(0))
        });
        staged.map_or(0, |n| n.iter().sum())
    }

    /// One object's step of [`Self::prefetch_objects`]: `chunk_nos` (none of
    /// them local) are read from shared storage in **one** batched
    /// [`SharedStorage::get_ranges`] call (telemetry-timed, under the retry
    /// policy) and land in the SSD tier as **one** write
    /// ([`CacheTier::insert_batch`], charged once for the batch's bytes),
    /// then in the RAM tier, through the same path a demand miss takes
    /// with a batch of one. The batch is truncated at
    /// [`READAHEAD_MAX_INFLIGHT_BYTES`]. Returns the number of chunks staged.
    fn prefetch_chunks(&self, handle: ObjectHandle, chunk_nos: &[u32]) -> Result<usize> {
        let meta = self.meta(handle)?;
        if meta.durability == Durability::NonPersisted {
            // Fully resident by definition; nothing to stage.
            return Ok(0);
        }
        let cs = self.config.chunk_size as u64;
        let mut wanted: Vec<u32> = Vec::new();
        let mut ranges: Vec<(u64, usize)> = Vec::new();
        let mut inflight = 0u64;
        for &c in chunk_nos {
            let offset = u64::from(c) * cs;
            if offset >= meta.len {
                // Past the end: the caller's block math is off, but a
                // readahead guess is not worth an error — just stop.
                break;
            }
            let len = cs.min(meta.len - offset) as usize;
            if !wanted.is_empty() && inflight + len as u64 > READAHEAD_MAX_INFLIGHT_BYTES {
                break;
            }
            inflight += len as u64;
            wanted.push(c);
            ranges.push((offset, len));
        }
        if wanted.is_empty() {
            return Ok(0);
        }
        let t0 = self.telemetry.start();
        let fetched = self.with_retry_as(OpClass::BlockFetch, || {
            self.shared.get_ranges(&meta.name, &ranges)
        });
        self.telemetry
            .record_since(&self.telemetry.ops().prefetch_batch, t0);
        let fetched = fetched?;
        if self.telemetry.is_enabled() {
            self.telemetry
                .ops()
                .readahead_depth
                .record(wanted.len() as u64);
        }
        let out: Vec<(u32, Bytes)> = wanted.into_iter().zip(fetched).collect();
        self.fill_tiers(handle, &meta, &out);
        for &(c, _) in &out {
            self.track_prefetched((handle.0, c));
        }
        self.blocks_prefetched
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out.len())
    }

    /// Land chunks fetched from shared storage in the local tiers: one SSD
    /// write for the whole batch (the object's header chunks pinned), then
    /// each chunk into the RAM tier, unverified. A demand miss is a batch
    /// of one.
    fn fill_tiers(&self, handle: ObjectHandle, meta: &ObjectMeta, chunks: &[(u32, Bytes)]) {
        let key = |c: u32| (handle.0, c);
        let items = chunks.iter();
        self.ssd
            .insert_batch(items.map(|(c, d)| (key(*c), d.clone(), *c < meta.header_chunks)));
        for (c, data) in chunks {
            self.ram.land(key(*c), data.clone());
        }
    }

    /// Whether a chunk is resident in RAM (verified or not) or on the SSD
    /// tier (no latency charge, no recency effect, no statistics).
    pub fn is_chunk_local(&self, handle: ObjectHandle, chunk_no: u32) -> bool {
        let key = (handle.0, chunk_no);
        self.ram.contains(key) || self.ssd.contains(key)
    }

    /// Record a freshly staged chunk in the tracking window, aging out the
    /// oldest unconsumed keys past the window bound as wasted readahead. A
    /// key still tracked was evicted before any read consumed it, so that
    /// earlier staging is wasted now; the new one takes its place.
    fn track_prefetched(&self, key: (u64, u32)) {
        let mut w = self.prefetched.lock();
        if !w.set.insert(key) {
            self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        w.order.push_back(key);
        self.prefetch_outstanding.fetch_add(1, Ordering::Relaxed);
        while w.order.len() > PREFETCH_WINDOW {
            let old = w.order.pop_front().expect("len > bound implies non-empty");
            if w.set.remove(&old) {
                self.prefetch_outstanding.fetch_sub(1, Ordering::Relaxed);
                self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// If `key` is an unconsumed staged chunk, stop tracking it and count
    /// it: a prefetch hit when a read found it in a tier (`hit`), wasted
    /// when the read missed both tiers and goes to shared storage again.
    /// Cheap when no prefetch is outstanding.
    fn settle_prefetched(&self, key: (u64, u32), hit: bool) {
        if self.prefetch_outstanding.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut w = self.prefetched.lock();
        if w.set.remove(&key) {
            self.prefetch_outstanding.fetch_sub(1, Ordering::Relaxed);
            let counter = if hit {
                &self.prefetch_hits
            } else {
                &self.prefetch_wasted
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run a shared-storage operation under the retry policy: transient
    /// failures are re-attempted with decorrelated-jitter backoff up to the
    /// budget; permanent failures propagate immediately. Retries and breaker
    /// state are attributed to `class`.
    ///
    /// Public so callers that go to [`Self::shared`] directly (manifest IO,
    /// sidecar delta objects, recovery listings) stay under the same policy
    /// and counters as the chunk paths. On top of retrying:
    ///
    /// * An **open circuit breaker** for `class` fails fast with
    ///   [`StorageError::Unavailable`] before touching shared storage.
    /// * The **ambient query context** ([`crate::context`]) is checked
    ///   before the first attempt and after every backoff sleep; a sleep
    ///   that would overrun the remaining deadline budget is never taken —
    ///   the op returns [`StorageError::DeadlineExceeded`] immediately, so
    ///   deadline overshoot is bounded by one attempt plus one backoff step.
    /// * Retry **exhaustion** (and hard `Unavailable` from the store)
    ///   counts as a breaker failure; any answered operation — success or
    ///   permanent error like `NotFound` — counts as breaker success.
    ///   Query aborts (deadline/cancel) are neutral: they say nothing
    ///   about store health.
    pub fn with_retry_as<T>(&self, class: OpClass, op: impl Fn() -> Result<T>) -> Result<T> {
        self.breaker.admit(class)?;
        if let Err(e) = context::check_current(class.label()) {
            self.breaker.record_neutral(class);
            return Err(e);
        }
        let retry = self.config.retry;
        let mut prev = retry.base_backoff;
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if e.is_transient() && attempt < retry.max_retries => {
                    attempt += 1;
                    self.retries_by_class[class.index()].fetch_add(1, Ordering::Relaxed);
                    // Decorrelated jitter: uniform in [base, 3 × previous],
                    // capped. Degenerates to the base when base is 0.
                    let base = retry.base_backoff.as_nanos() as u64;
                    let ceiling = (prev.as_nanos() as u64).saturating_mul(3).max(base + 1);
                    let jittered = self.retry_rng.lock().random_range(base..ceiling);
                    let delay = Duration::from_nanos(jittered).min(retry.max_backoff);
                    // Never sleep past the remaining deadline budget.
                    if let Some(remaining) = context::current_remaining() {
                        if delay >= remaining {
                            self.deadline_aborted_retries
                                .fetch_add(1, Ordering::Relaxed);
                            self.breaker.record_neutral(class);
                            return Err(StorageError::DeadlineExceeded { op: class.label() });
                        }
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    // Cancellation fired mid-backoff: abandon the loop here
                    // instead of issuing another attempt.
                    if let Err(e) = context::check_current(class.label()) {
                        if matches!(e, StorageError::Cancelled { .. }) {
                            self.cancelled_retries.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.deadline_aborted_retries
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        self.breaker.record_neutral(class);
                        return Err(e);
                    }
                    prev = delay.max(retry.base_backoff);
                }
                Err(e) if e.is_transient() => {
                    self.retries_exhausted_by_class[class.index()].fetch_add(1, Ordering::Relaxed);
                    self.breaker.record_failure(class);
                    return Err(e);
                }
                Err(e) => {
                    if matches!(e, StorageError::Unavailable { .. }) {
                        // The store itself is gone — breaker-relevant even
                        // without burning the retry budget.
                        self.breaker.record_failure(class);
                    } else if e.is_query_abort() {
                        self.breaker.record_neutral(class);
                    } else {
                        // The store answered (NotFound, AlreadyExists, …):
                        // healthy as far as the breaker is concerned.
                        self.breaker.record_success(class);
                    }
                    return Err(e);
                }
                Ok(v) => {
                    self.breaker.record_success(class);
                    return Ok(v);
                }
            }
        }
    }

    /// The per-op-class circuit breaker (state inspection / telemetry).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Record a GC delete whose retries exhausted: counts the failure and
    /// parks `name` in the leaked-object registry so the janitor's next
    /// pass can re-attempt it ([`Self::retry_leaked_deletes`]). Leaked
    /// runs/deltas are thereby observable and eventually reclaimed instead
    /// of silently orphaned on shared storage.
    pub fn note_gc_delete_failure(&self, name: &str) {
        self.gc_delete_failures.fetch_add(1, Ordering::Relaxed);
        self.leaked_gc.lock().insert(name.to_owned());
    }

    /// Object names currently parked for janitor re-delete.
    pub fn leaked_gc_objects(&self) -> Vec<String> {
        self.leaked_gc.lock().iter().cloned().collect()
    }

    /// Re-attempt up to `max` parked GC deletes (oldest names first, in
    /// lexicographic order). `NotFound` counts as reclaimed — someone else
    /// already deleted it. Returns `(reclaimed, still_outstanding)`.
    pub fn retry_leaked_deletes(&self, max: usize) -> (usize, usize) {
        let batch: Vec<String> = self.leaked_gc.lock().iter().take(max).cloned().collect();
        let mut reclaimed = 0usize;
        for name in &batch {
            match self.with_retry_as(OpClass::Gc, || self.shared.delete(name)) {
                Ok(()) | Err(StorageError::NotFound { .. }) => {
                    self.leaked_gc.lock().remove(name);
                    self.gc_leaked_reclaimed.fetch_add(1, Ordering::Relaxed);
                    reclaimed += 1;
                }
                // Still sick (or breaker open): stays parked for the next
                // janitor pass.
                Err(_) => {}
            }
        }
        (reclaimed, self.leaked_gc.lock().len())
    }

    /// Create an immutable object and register it.
    ///
    /// * `header_chunks` — number of leading chunks pinned in the SSD tier.
    /// * `write_through` — for persisted objects, whether to also populate
    ///   the SSD tier with all data chunks (§6.2's write-through policy for
    ///   new runs below the current cached level).
    pub fn create_object(
        &self,
        name: &str,
        data: Bytes,
        durability: Durability,
        header_chunks: u32,
        write_through: bool,
    ) -> Result<ObjectHandle> {
        if durability == Durability::Persisted {
            self.with_retry_as(OpClass::BlockFetch, || self.shared.put(name, data.clone()))?;
        } else if self.registry.read().by_name.contains_key(name) {
            return Err(StorageError::AlreadyExists {
                name: name.to_owned(),
            });
        }

        let handle = self.register(name, data.len() as u64, durability, header_chunks);
        let n_chunks = self.chunk_count_for_len(data.len() as u64);
        for c in 0..n_chunks {
            let chunk = self.slice_chunk(&data, c);
            let is_header = c < header_chunks;
            match durability {
                Durability::NonPersisted => {
                    // Only home of the data: pin everything in the SSD tier.
                    self.ssd.insert((handle.0, c), chunk, true);
                }
                Durability::Persisted => {
                    if is_header {
                        self.ssd.insert((handle.0, c), chunk, true);
                    } else if write_through {
                        self.ssd.insert((handle.0, c), chunk, false);
                    }
                }
            }
        }
        Ok(handle)
    }

    /// Open an existing persisted object (e.g. during recovery), pinning its
    /// header chunks into the SSD tier.
    pub fn open_object(&self, name: &str, header_chunks: u32) -> Result<ObjectHandle> {
        if let Some(&h) = self.registry.read().by_name.get(name) {
            return Ok(ObjectHandle(h));
        }
        let len = self.with_retry_as(OpClass::BlockFetch, || self.shared.len(name))?;
        let handle = self.register(name, len, Durability::Persisted, header_chunks);
        let meta = self.meta(handle)?;
        for c in 0..header_chunks.min(self.chunk_count_for_len(len)) {
            let chunk = self.fetch_from_shared(&meta, c)?;
            self.ssd.insert((handle.0, c), chunk, true);
        }
        Ok(handle)
    }

    fn register(
        &self,
        name: &str,
        len: u64,
        durability: Durability,
        header_chunks: u32,
    ) -> ObjectHandle {
        let mut reg = self.registry.write();
        let h = reg.next_handle;
        reg.next_handle += 1;
        let name: Arc<str> = Arc::from(name);
        reg.by_name.insert(name.clone(), h);
        reg.by_handle.insert(
            h,
            ObjectMeta {
                name,
                len,
                durability,
                header_chunks,
            },
        );
        ObjectHandle(h)
    }

    fn meta(&self, handle: ObjectHandle) -> Result<ObjectMeta> {
        self.registry
            .read()
            .by_handle
            .get(&handle.0)
            .cloned()
            .ok_or(StorageError::StaleHandle { handle: handle.0 })
    }

    /// Object length in bytes.
    pub fn object_len(&self, handle: ObjectHandle) -> Result<u64> {
        Ok(self.meta(handle)?.len)
    }

    /// Number of chunks in an object.
    pub fn chunk_count(&self, handle: ObjectHandle) -> Result<u32> {
        Ok(self.chunk_count_for_len(self.meta(handle)?.len))
    }

    fn chunk_count_for_len(&self, len: u64) -> u32 {
        len.div_ceil(self.config.chunk_size as u64) as u32
    }

    fn slice_chunk(&self, data: &Bytes, chunk_no: u32) -> Bytes {
        let cs = self.config.chunk_size;
        let start = chunk_no as usize * cs;
        let end = (start + cs).min(data.len());
        data.slice(start..end)
    }

    fn fetch_from_shared(&self, meta: &ObjectMeta, chunk_no: u32) -> Result<Bytes> {
        if meta.durability == Durability::NonPersisted {
            return Err(StorageError::LostObject {
                name: meta.name.to_string(),
            });
        }
        let cs = self.config.chunk_size as u64;
        let offset = u64::from(chunk_no) * cs;
        // A chunk past the object's end means the object is shorter than its
        // header claims (torn write that recovery did not catch) — surface a
        // typed error instead of underflowing.
        if offset >= meta.len {
            return Err(StorageError::RangeOutOfBounds {
                name: meta.name.to_string(),
                offset,
                len: cs as usize,
                size: meta.len,
            });
        }
        let len = cs.min(meta.len - offset) as usize;
        let t0 = self.telemetry.start();
        let out = self.with_retry_as(OpClass::BlockFetch, || {
            self.shared.get_range(&meta.name, offset, len)
        });
        self.telemetry
            .record_since(&self.telemetry.ops().block_fetch, t0);
        out
    }

    /// Read one chunk through the hierarchy (RAM → SSD → shared),
    /// landing it in RAM on a miss there.
    pub fn read_chunk(&self, handle: ObjectHandle, chunk_no: u32) -> Result<Bytes> {
        self.chunk_reads.fetch_add(1, Ordering::Relaxed);
        let key = (handle.0, chunk_no);
        if let Some(data) = self.ram.read(key) {
            self.settle_prefetched(key, true);
            return Ok(data);
        }
        if let Some(data) = self.ssd.get(key) {
            self.settle_prefetched(key, true);
            self.ram.land(key, data.clone());
            return Ok(data);
        }
        // Miss in both local tiers: go to shared storage (block-basis
        // transfer into the SSD cache, then RAM).
        self.settle_prefetched(key, false);
        self.fetch_and_fill(handle, chunk_no)
    }

    /// A demand fetch from shared storage, landed in the tiers as a batch
    /// of one.
    fn fetch_and_fill(&self, handle: ObjectHandle, chunk_no: u32) -> Result<Bytes> {
        let meta = self.meta(handle)?;
        let data = self.fetch_from_shared(&meta, chunk_no)?;
        self.fill_tiers(handle, &meta, &[(chunk_no, data.clone())]);
        Ok(data)
    }

    /// Drop one chunk from the local tiers and re-fetch it from shared
    /// storage, re-populating the tiers. Used by corruption containment: a
    /// checksum mismatch may be a bit flip in transit (the copy on shared
    /// storage is fine) rather than at-rest damage, so the reader evicts the
    /// poisoned copy and retries the fetch once before failing the query.
    pub fn reread_chunk_from_shared(&self, handle: ObjectHandle, chunk_no: u32) -> Result<Bytes> {
        self.corruption_refetches.fetch_add(1, Ordering::Relaxed);
        let key = (handle.0, chunk_no);
        self.ram.remove(key);
        self.ssd.remove(key);
        self.fetch_and_fill(handle, chunk_no)
    }

    /// Read an arbitrary byte range, assembled from chunks.
    pub fn read_range(&self, handle: ObjectHandle, offset: u64, len: usize) -> Result<Bytes> {
        let meta = self.meta(handle)?;
        if offset + len as u64 > meta.len {
            return Err(StorageError::RangeOutOfBounds {
                name: meta.name.to_string(),
                offset,
                len,
                size: meta.len,
            });
        }
        let cs = self.config.chunk_size as u64;
        let first = (offset / cs) as u32;
        let last = ((offset + len as u64 - 1) / cs) as u32;
        if first == last {
            let chunk = self.read_chunk(handle, first)?;
            let start = (offset - u64::from(first) * cs) as usize;
            return Ok(chunk.slice(start..start + len));
        }
        let mut out = Vec::with_capacity(len);
        for c in first..=last {
            let chunk = self.read_chunk(handle, c)?;
            let chunk_start = u64::from(c) * cs;
            let s = offset.max(chunk_start) - chunk_start;
            let e = (offset + len as u64).min(chunk_start + chunk.len() as u64) - chunk_start;
            out.extend_from_slice(&chunk[s as usize..e as usize]);
        }
        Ok(Bytes::from(out))
    }

    /// Drop an object's *data* chunks from the local tiers, keeping its
    /// header chunks (run purge, §6.2). Non-persisted objects cannot be
    /// purged — their data has no other home.
    pub fn purge_object(&self, handle: ObjectHandle) -> Result<usize> {
        let meta = self.meta(handle)?;
        if meta.durability == Durability::NonPersisted {
            return Err(StorageError::LostObject {
                name: meta.name.to_string(),
            });
        }
        // A purge must make the next read pay the hierarchy walk again
        // (§6.2 semantics), so RAM drops the data chunks too.
        self.ram.remove_object_chunks(handle.0, meta.header_chunks);
        Ok(self.ssd.remove_object_chunks(handle.0, meta.header_chunks))
    }

    /// Load all of an object's chunks into the SSD tier (cache warm-up /
    /// §6.2 "load" direction). Returns the number of chunks fetched from
    /// shared storage.
    pub fn load_object(&self, handle: ObjectHandle) -> Result<usize> {
        let n = self.chunk_count(handle)?;
        let meta = self.meta(handle)?;
        let mut fetched = 0;
        for c in 0..n {
            if !self.ssd.contains((handle.0, c)) {
                let data = self.fetch_from_shared(&meta, c)?;
                self.ssd.insert((handle.0, c), data, c < meta.header_chunks);
                fetched += 1;
            }
        }
        Ok(fetched)
    }

    /// Whether every chunk of the object is resident in the SSD tier.
    pub fn is_fully_cached(&self, handle: ObjectHandle) -> Result<bool> {
        let n = self.chunk_count(handle)?;
        Ok((0..n).all(|c| self.ssd.contains((handle.0, c))))
    }

    /// Delete an object everywhere: local tiers, registry, and shared
    /// storage (if persisted).
    pub fn delete_object(&self, handle: ObjectHandle) -> Result<()> {
        let meta = self.meta(handle)?;
        self.ram.remove_object_chunks(handle.0, 0);
        self.ssd.remove_object_chunks(handle.0, 0);
        {
            let mut reg = self.registry.write();
            reg.by_handle.remove(&handle.0);
            reg.by_name.remove(&meta.name);
        }
        if meta.durability == Durability::Persisted {
            if let Err(e) = self.with_retry_as(OpClass::Gc, || self.shared.delete(&meta.name)) {
                // The registry entry is already gone, so nothing will retry
                // this name through the normal path — park it for the
                // janitor unless the query merely gave up.
                if !e.is_query_abort() && !matches!(e, StorageError::NotFound { .. }) {
                    self.note_gc_delete_failure(&meta.name);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Simulate a node crash: all local state (caches, registry) is lost;
    /// shared storage survives. Recovery re-opens objects from shared.
    pub fn simulate_crash(&self) {
        self.ram.clear();
        self.ssd.clear();
        // Tracked prefetches died with the caches; a simulated crash is not
        // wasted readahead, so the window resets without counting.
        {
            let mut w = self.prefetched.lock();
            w.set.clear();
            w.order.clear();
            self.prefetch_outstanding.store(0, Ordering::Relaxed);
        }
        let mut reg = self.registry.write();
        reg.by_name.clear();
        reg.by_handle.clear();
        // Handles are not reused even across the crash, so stale handles
        // held by survivors fail loudly instead of aliasing new objects.
    }

    /// Statistics across all tiers.
    pub fn stats(&self) -> StorageStats {
        let (mem, decoded) = self.ram.stats();
        StorageStats {
            mem,
            ssd: self.ssd.stats(),
            shared: self.shared.stats(),
            decoded,
            chunk_reads: self.chunk_reads.load(Ordering::Relaxed),
            ssd_charged_latency: self.ssd.latency().charged(),
            retries: sum(&self.retries_by_class),
            retries_exhausted: sum(&self.retries_exhausted_by_class),
            retries_by_class: std::array::from_fn(|i| {
                self.retries_by_class[i].load(Ordering::Relaxed)
            }),
            retries_exhausted_by_class: std::array::from_fn(|i| {
                self.retries_exhausted_by_class[i].load(Ordering::Relaxed)
            }),
            deadline_aborted_retries: self.deadline_aborted_retries.load(Ordering::Relaxed),
            cancelled_retries: self.cancelled_retries.load(Ordering::Relaxed),
            gc_delete_failures: self.gc_delete_failures.load(Ordering::Relaxed),
            gc_leaked_outstanding: self.leaked_gc.lock().len() as u64,
            gc_leaked_reclaimed: self.gc_leaked_reclaimed.load(Ordering::Relaxed),
            breaker_state: self.breaker.states(),
            breaker_transitions: self.breaker.transitions(),
            breaker_rejections: self.breaker.rejections(),
            corruption_refetches: self.corruption_refetches.load(Ordering::Relaxed),
            blocks_prefetched: self.blocks_prefetched.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
        }
    }

    /// The RAM tier: chunks keyed by `(object handle, chunk number)`, each
    /// marked verified once a block read has checked it.
    pub fn mem_tier(&self) -> &RamTier {
        &self.ram
    }

    /// Direct access to the SSD tier (tests / cache manager).
    pub fn ssd_tier(&self) -> &CacheTier {
        &self.ssd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    fn small_config() -> TieredConfig {
        TieredConfig {
            chunk_size: 64,
            mem_capacity: 10_000,
            ssd_capacity: 100_000,
            ..TieredConfig::default()
        }
    }

    #[test]
    fn create_and_read_chunks() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let data = payload(200); // 4 chunks of 64 (last = 8 bytes)
        let h = ts
            .create_object("runs/r1", data.clone(), Durability::Persisted, 1, false)
            .unwrap();
        assert_eq!(ts.chunk_count(h).unwrap(), 4);
        assert_eq!(ts.read_chunk(h, 0).unwrap(), data.slice(0..64));
        assert_eq!(ts.read_chunk(h, 3).unwrap(), data.slice(192..200));
        assert_eq!(ts.read_range(h, 60, 10).unwrap(), data.slice(60..70));
        assert_eq!(ts.read_range(h, 0, 200).unwrap(), data);
    }

    #[test]
    fn read_path_promotes_through_tiers() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("r", payload(128), Durability::Persisted, 0, false)
            .unwrap();
        // Nothing cached: first read goes to shared.
        let before = ts.stats().shared.reads;
        ts.read_chunk(h, 1).unwrap();
        assert_eq!(ts.stats().shared.reads, before + 1);
        // Second read is a memory hit.
        ts.read_chunk(h, 1).unwrap();
        assert_eq!(ts.stats().shared.reads, before + 1);
        assert!(ts.stats().mem.hits >= 1);
    }

    #[test]
    fn write_through_populates_ssd() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("r", payload(256), Durability::Persisted, 1, true)
            .unwrap();
        assert!(ts.is_fully_cached(h).unwrap());
        // Reads never touch shared.
        for c in 0..4 {
            ts.read_chunk(h, c).unwrap();
        }
        assert_eq!(ts.stats().shared.reads, 0);
    }

    #[test]
    fn purge_then_read_refetches_from_shared() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("r", payload(256), Durability::Persisted, 1, true)
            .unwrap();
        let dropped = ts.purge_object(h).unwrap();
        assert_eq!(dropped, 3, "3 data chunks dropped, header kept");
        assert!(
            ts.ssd_tier().contains((h.raw(), 0)),
            "header survives purge"
        );
        assert!(!ts.is_fully_cached(h).unwrap());

        let before = ts.stats().shared.reads;
        ts.read_chunk(h, 2).unwrap();
        assert_eq!(ts.stats().shared.reads, before + 1);
        // Promoted back on block basis.
        assert!(ts.ssd_tier().contains((h.raw(), 2)));
    }

    #[test]
    fn load_warms_the_ssd_cache() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("r", payload(256), Durability::Persisted, 1, false)
            .unwrap();
        assert!(!ts.is_fully_cached(h).unwrap());
        let fetched = ts.load_object(h).unwrap();
        assert_eq!(fetched, 3, "header was already pinned");
        assert!(ts.is_fully_cached(h).unwrap());
    }

    #[test]
    fn non_persisted_objects_never_touch_shared() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("np", payload(128), Durability::NonPersisted, 1, false)
            .unwrap();
        assert_eq!(ts.stats().shared.writes, 0);
        assert_eq!(ts.read_chunk(h, 1).unwrap().len(), 64);
        assert!(
            ts.purge_object(h).is_err(),
            "purging a non-persisted run loses data"
        );
        // Crash loses it entirely.
        ts.simulate_crash();
        assert!(matches!(
            ts.read_chunk(h, 0),
            Err(StorageError::StaleHandle { .. })
        ));
    }

    #[test]
    fn crash_then_reopen_persisted_object() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let data = payload(256);
        ts.create_object("r", data.clone(), Durability::Persisted, 1, true)
            .unwrap();
        ts.simulate_crash();
        let h = ts.open_object("r", 1).unwrap();
        assert_eq!(ts.read_range(h, 0, 256).unwrap(), data);
        // Header re-pinned on open.
        assert!(ts.ssd_tier().contains((h.raw(), 0)));
    }

    #[test]
    fn delete_removes_everywhere() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("r", payload(128), Durability::Persisted, 1, true)
            .unwrap();
        ts.delete_object(h).unwrap();
        assert!(!ts.shared().exists("r"));
        assert!(matches!(
            ts.read_chunk(h, 0),
            Err(StorageError::StaleHandle { .. })
        ));
        // Name can be reused after deletion.
        ts.create_object("r", payload(64), Durability::Persisted, 0, false)
            .unwrap();
    }

    #[test]
    fn duplicate_create_rejected_for_both_durabilities() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        ts.create_object("p", payload(10), Durability::Persisted, 0, false)
            .unwrap();
        assert!(ts
            .create_object("p", payload(10), Durability::Persisted, 0, false)
            .is_err());
        ts.create_object("n", payload(10), Durability::NonPersisted, 0, false)
            .unwrap();
        assert!(ts
            .create_object("n", payload(10), Durability::NonPersisted, 0, false)
            .is_err());
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        use crate::fault::{FaultEvent, FaultInjectingStore, FaultOp, FaultPlan};
        // Every first attempt of the first two puts fails transiently.
        let plan = FaultPlan::none()
            .with_event(FaultEvent::TransientAt {
                op: FaultOp::Put,
                nth: 1,
            })
            .with_event(FaultEvent::TransientAt {
                op: FaultOp::GetRange,
                nth: 1,
            });
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(crate::object_store::InMemoryObjectStore::new()),
            plan,
        ));
        let mut cfg = small_config();
        cfg.retry.base_backoff = Duration::ZERO;
        let ts = TieredStorage::new(SharedStorage::new(store, LatencyModel::off()), cfg);
        let h = ts
            .create_object("r", payload(128), Durability::Persisted, 0, false)
            .unwrap();
        assert_eq!(ts.read_chunk(h, 0).unwrap(), payload(128).slice(0..64));
        let s = ts.stats();
        assert_eq!(s.retries, 2, "one retry per faulted op");
        assert_eq!(s.retries_exhausted, 0);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(crate::object_store::InMemoryObjectStore::new()),
            FaultPlan::transient_only(1, 1.0),
        ));
        let mut cfg = small_config();
        cfg.retry.max_retries = 2;
        cfg.retry.base_backoff = Duration::ZERO;
        let ts = TieredStorage::new(SharedStorage::new(store, LatencyModel::off()), cfg);
        let err = ts
            .create_object("r", payload(64), Durability::Persisted, 0, false)
            .unwrap_err();
        assert!(err.is_transient());
        let s = ts.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.retries_exhausted, 1);
    }

    #[test]
    fn reread_chunk_replaces_cached_copy() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let data = payload(128);
        let h = ts
            .create_object("r", data.clone(), Durability::Persisted, 0, true)
            .unwrap();
        ts.read_chunk(h, 1).unwrap();
        let before = ts.stats().shared.reads;
        let fresh = ts.reread_chunk_from_shared(h, 1).unwrap();
        assert_eq!(fresh, data.slice(64..128));
        assert_eq!(ts.stats().shared.reads, before + 1, "went back to shared");
        assert_eq!(ts.stats().corruption_refetches, 1);
    }

    #[test]
    fn open_is_idempotent() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h1 = ts
            .create_object("r", payload(64), Durability::Persisted, 0, false)
            .unwrap();
        let h2 = ts.open_object("r", 0).unwrap();
        assert_eq!(h1, h2);
    }

    #[test]
    fn prefetch_stages_cold_chunks_and_counts_hits() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let data = payload(256); // 4 chunks
        let h = ts
            .create_object("r", data.clone(), Durability::Persisted, 0, false)
            .unwrap();
        // One batched read stages chunks 1..=3.
        let reads_before = ts.stats().shared.reads;
        assert_eq!(ts.prefetch_objects(&[(h, vec![1, 2, 3])]), 3);
        assert!((1..4).all(|c| ts.is_chunk_local(h, c)));
        assert_eq!(ts.stats().shared.reads, reads_before + 3);
        // Consuming the staged chunks never goes back to shared and is
        // attributed to the readahead.
        for c in 1..4 {
            assert_eq!(ts.read_chunk(h, c).unwrap(), ts.slice_chunk(&data, c));
        }
        let s = ts.stats();
        assert_eq!(s.shared.reads, reads_before + 3);
        assert_eq!(s.blocks_prefetched, 3);
        assert_eq!(s.prefetch_hits, 3);
        assert_eq!(s.prefetch_wasted, 0);
        // Re-prefetching resident chunks is a no-op batch.
        assert_eq!(ts.prefetch_objects(&[(h, vec![1, 2, 3])]), 0);
        assert_eq!(ts.stats().shared.reads, reads_before + 3);
    }

    #[test]
    fn prefetch_respects_inflight_budget_and_object_end() {
        // 1 MiB chunks: four fill READAHEAD_MAX_INFLIGHT_BYTES exactly.
        let cfg = TieredConfig {
            chunk_size: 1 << 20,
            ..TieredConfig::default()
        };
        let ts = TieredStorage::new(SharedStorage::in_memory(), cfg);
        let h = ts
            .create_object("r", payload(6 << 20), Durability::Persisted, 0, false)
            .unwrap();
        let local = |ts: &TieredStorage| -> Vec<u32> {
            (0..6).filter(|&c| ts.is_chunk_local(h, c)).collect()
        };
        assert_eq!(ts.prefetch_chunks(h, &[0, 1, 2, 3, 4, 5]).unwrap(), 4);
        assert_eq!(
            local(&ts),
            vec![0, 1, 2, 3],
            "batch truncated at READAHEAD_MAX_INFLIGHT_BYTES"
        );
        // Chunk numbers past the object end stop the batch, not the caller.
        assert_eq!(ts.prefetch_chunks(h, &[4, 9]).unwrap(), 1);
        assert_eq!(local(&ts), vec![0, 1, 2, 3, 4]);
        // Non-persisted objects are fully resident: nothing to stage.
        let np = ts
            .create_object("np", payload(64), Durability::NonPersisted, 0, false)
            .unwrap();
        assert_eq!(ts.prefetch_chunks(np, &[0]).unwrap(), 0);
    }

    #[test]
    fn prefetch_failure_leaves_demand_path_healthy() {
        use crate::fault::{FaultInjectingStore, FaultPlan};
        // Every get_range attempt fails transiently; retries exhaust.
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(crate::object_store::InMemoryObjectStore::new()),
            FaultPlan::transient_only(u64::MAX, 1.0),
        ));
        let mut cfg = small_config();
        cfg.retry.max_retries = 1;
        cfg.retry.base_backoff = Duration::ZERO;
        let ts = TieredStorage::new(SharedStorage::new(store.clone(), LatencyModel::off()), cfg);
        let data = payload(128);
        store.set_armed(false);
        let h = ts
            .create_object("r", data.clone(), Durability::Persisted, 0, false)
            .unwrap();
        store.set_armed(true);
        assert!(ts.prefetch_chunks(h, &[0, 1]).is_err());
        let s = ts.stats();
        assert_eq!(s.blocks_prefetched, 0, "failed batch stages nothing");
        // Demand path still works once the faults stop.
        store.set_armed(false);
        assert_eq!(ts.read_chunk(h, 0).unwrap(), data.slice(0..64));
        assert_eq!(ts.stats().prefetch_hits, 0);
    }

    /// The multi-object round stages every object's chunks through
    /// `prefetch_chunks`, and runs each worker under the caller's context:
    /// a cancelled caller stages nothing and issues no shared read.
    #[test]
    fn prefetch_objects_stages_each_object_under_the_callers_context() {
        use crate::context::{self, CancelToken, QueryContext};
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let handles: Vec<ObjectHandle> = (0..PREFETCH_MAX_THREADS + 2)
            .map(|i| {
                ts.create_object(
                    &format!("r{i}"),
                    payload(128),
                    Durability::Persisted,
                    0,
                    false,
                )
                .unwrap()
            })
            .collect();
        let batches: Vec<(ObjectHandle, Vec<u32>)> =
            handles.iter().map(|&h| (h, vec![1])).collect();

        let reads_before = ts.stats().shared.reads;
        {
            let _g =
                context::enter(QueryContext::unbounded().with_cancel(CancelToken::trip_after(0)));
            assert_eq!(ts.prefetch_objects(&batches), 0);
        }
        assert_eq!(ts.stats().shared.reads, reads_before, "never issued");

        assert_eq!(ts.prefetch_objects(&batches), batches.len());
        for &h in &handles {
            assert!(ts.is_chunk_local(h, 1) && !ts.is_chunk_local(h, 0));
            assert_eq!(ts.read_chunk(h, 1).unwrap(), payload(128).slice(64..128));
        }
        let s = ts.stats();
        assert_eq!(s.shared.reads, reads_before + batches.len() as u64);
        assert_eq!(s.blocks_prefetched, batches.len() as u64);
        assert_eq!(s.prefetch_hits, batches.len() as u64);
    }

    /// A staged batch lands in the SSD tier as one write, charged once for
    /// all its bytes; a demand miss is one write of its one chunk.
    #[test]
    fn prefetch_is_one_ssd_write_and_a_demand_miss_one_per_chunk() {
        let cfg = TieredConfig {
            ssd_latency: TierLatency::micros(100, 1),
            ..small_config()
        };
        let ts = TieredStorage::new(SharedStorage::in_memory(), cfg.clone());
        let h = ts
            .create_object("r", payload(200), Durability::Persisted, 1, false)
            .unwrap();
        let charged = || ts.stats().ssd_charged_latency;

        let before = charged();
        // The header chunk is resident: chunks 1..=3 (64 + 64 + 8 bytes).
        assert_eq!(ts.prefetch_objects(&[(h, vec![0, 1, 2, 3])]), 3);
        assert_eq!(charged() - before, cfg.ssd_latency.charge(136));
        assert_eq!(ts.stats().ssd.insertions, 1 + 3);

        ts.purge_object(h).unwrap();
        let before = charged();
        ts.read_chunk(h, 2).unwrap();
        assert_eq!(charged() - before, cfg.ssd_latency.charge(64));
    }

    /// Every staged chunk is settled exactly once, as a hit or as wasted,
    /// or is still outstanding — also when it is evicted before any read
    /// and then staged again, or re-fetched by a demand miss.
    #[test]
    fn prefetch_accounting_is_exact_across_evictions_and_demand_misses() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("r", payload(128), Durability::Persisted, 0, false)
            .unwrap();
        let balanced = |step: &str| {
            let s = ts.stats();
            let outstanding = ts.prefetch_outstanding.load(Ordering::Relaxed);
            assert_eq!(
                s.blocks_prefetched,
                s.prefetch_hits + s.prefetch_wasted + outstanding,
                "{step}: {s:?}"
            );
            (s.prefetch_hits, s.prefetch_wasted, outstanding)
        };
        let stage = || assert_eq!(ts.prefetch_objects(&[(h, vec![0, 1])]), 2);
        let evict = || assert_eq!(ts.purge_object(h).unwrap(), 2);

        stage();
        assert_eq!(balanced("stage"), (0, 0, 2));
        evict();
        stage();
        assert_eq!(balanced("re-stage"), (0, 2, 2));
        evict();
        ts.read_chunk(h, 0).unwrap();
        assert_eq!(balanced("demand miss"), (0, 3, 1));
        ts.read_chunk(h, 0).unwrap();
        assert_eq!(balanced("read of the demand-fetched chunk"), (0, 3, 1));
        ts.read_chunk(h, 1).unwrap();
        assert_eq!(balanced("demand miss"), (0, 4, 0));
    }

    #[test]
    fn unconsumed_prefetches_age_out_as_wasted() {
        let ts = TieredStorage::new(SharedStorage::in_memory(), small_config());
        let h = ts
            .create_object("r", payload(128), Durability::Persisted, 0, false)
            .unwrap();
        ts.prefetch_chunks(h, &[0, 1]).unwrap();
        // Roll the FIFO window over with distinct synthetic keys: the two
        // real staged chunks (oldest, never read) age out as wasted.
        for i in 0..PREFETCH_WINDOW as u32 {
            ts.track_prefetched((u64::MAX, i));
        }
        let s = ts.stats();
        assert_eq!(s.prefetch_wasted, 2);
        assert_eq!(s.prefetch_hits, 0);
        // An aged-out chunk read later is just a normal cache hit.
        ts.read_chunk(h, 0).unwrap();
        assert_eq!(ts.stats().prefetch_hits, 0);
    }

    #[test]
    fn retry_sleep_never_overruns_deadline() {
        use crate::context::{self, QueryContext};
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(crate::object_store::InMemoryObjectStore::new()),
            FaultPlan::transient_only(u64::MAX, 1.0),
        ));
        let mut cfg = small_config();
        cfg.retry.max_retries = 100;
        cfg.retry.base_backoff = Duration::from_millis(20);
        cfg.retry.max_backoff = Duration::from_millis(40);
        let ts = TieredStorage::new(SharedStorage::new(store, LatencyModel::off()), cfg);
        let _g = context::enter(QueryContext::with_deadline(Duration::from_millis(5)));
        let t0 = std::time::Instant::now();
        let err = ts
            .create_object("r", payload(64), Durability::Persisted, 0, false)
            .unwrap_err();
        assert!(
            matches!(err, StorageError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
        // The first 20ms+ backoff exceeded the 5ms budget, so the loop
        // returned instead of sleeping — not even one full backoff elapsed.
        assert!(
            t0.elapsed() < Duration::from_millis(20),
            "slept past budget"
        );
        let s = ts.stats();
        assert_eq!(s.deadline_aborted_retries, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(
            s.retries_by_class[crate::OpClass::BlockFetch.index()],
            1,
            "attributed to block_fetch"
        );
    }

    #[test]
    fn cancelled_context_aborts_before_first_attempt() {
        use crate::context::{self, CancelToken, QueryContext};
        let ts = TieredStorage::in_memory();
        let _g = context::enter(QueryContext::unbounded().with_cancel(CancelToken::trip_after(0)));
        let writes_before = ts.stats().shared.writes;
        let err = ts
            .create_object("r", payload(64), Durability::Persisted, 0, false)
            .unwrap_err();
        assert!(matches!(err, StorageError::Cancelled { .. }), "got {err:?}");
        assert_eq!(ts.stats().shared.writes, writes_before, "never issued");
    }

    #[test]
    fn gc_delete_failure_parks_object_and_janitor_reclaims() {
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(crate::object_store::InMemoryObjectStore::new()),
            FaultPlan::transient_only(u64::MAX, 1.0),
        ));
        let mut cfg = small_config();
        cfg.retry.max_retries = 1;
        cfg.retry.base_backoff = Duration::ZERO;
        let ts = TieredStorage::new(SharedStorage::new(store.clone(), LatencyModel::off()), cfg);
        store.set_armed(false);
        let h = ts
            .create_object("runs/leaky", payload(64), Durability::Persisted, 0, false)
            .unwrap();
        store.set_armed(true);
        assert!(ts.delete_object(h).is_err());
        let s = ts.stats();
        assert_eq!(s.gc_delete_failures, 1);
        assert_eq!(s.gc_leaked_outstanding, 1);
        assert_eq!(
            s.retries_exhausted_by_class[crate::OpClass::Gc.index()],
            1,
            "exhaustion attributed to the gc class"
        );
        assert_eq!(ts.leaked_gc_objects(), vec!["runs/leaky".to_string()]);
        // Store heals: the janitor pass reclaims the parked name.
        store.set_armed(false);
        assert_eq!(ts.retry_leaked_deletes(16), (1, 0));
        assert!(!ts.shared().exists("runs/leaky"));
        let s = ts.stats();
        assert_eq!(s.gc_leaked_outstanding, 0);
        assert_eq!(s.gc_leaked_reclaimed, 1);
    }

    /// The breaker a default hierarchy ships with: five retry exhaustions
    /// inside the window open the class, and from then on an operation is
    /// refused before it reaches the store.
    #[test]
    fn default_config_breaker_opens_after_five_exhaustions() {
        use crate::breaker::BreakerState;
        use crate::context::{self, QueryContext};
        use crate::fault::{FaultInjectingStore, FaultPlan};
        use crate::OpClass;
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(crate::object_store::InMemoryObjectStore::new()),
            FaultPlan::transient_only(u64::MAX, 1.0),
        ));
        let ts = TieredStorage::new(
            SharedStorage::new(store.clone(), LatencyModel::off()),
            TieredConfig::default(),
        );
        store.set_armed(false);
        let h = ts
            .create_object("r", payload(64 << 10), Durability::Persisted, 0, false)
            .unwrap();
        ts.purge_object(h).unwrap();
        store.set_armed(true);

        // A query that gives up on its deadline mid-retry says nothing about
        // the store: any number of them leaves the class closed.
        for _ in 0..2 * crate::BREAKER_FAILURE_THRESHOLD {
            let _g = context::enter(QueryContext::with_deadline(Duration::from_micros(200)));
            let err = ts.read_chunk(h, 1).unwrap_err();
            assert!(err.is_query_abort(), "got {err:?}");
        }
        assert_eq!(ts.stats().retries_exhausted, 0);
        assert_eq!(
            ts.breaker().state(OpClass::BlockFetch),
            BreakerState::Closed
        );

        for n in 1..=crate::BREAKER_FAILURE_THRESHOLD {
            assert_eq!(
                ts.breaker().state(OpClass::BlockFetch),
                BreakerState::Closed
            );
            assert!(ts.read_chunk(h, 1).unwrap_err().is_transient());
            assert_eq!(ts.stats().retries_exhausted, u64::from(n));
        }
        assert_eq!(ts.breaker().state(OpClass::BlockFetch), BreakerState::Open);
        assert_eq!(ts.breaker().state(OpClass::Manifest), BreakerState::Closed);

        let ops_before = store.stats().ops;
        let err = ts.read_chunk(h, 1).unwrap_err();
        assert!(matches!(err, StorageError::Unavailable { .. }), "{err:?}");
        assert_eq!(store.stats().ops, ops_before, "refused before the store");
        assert_eq!(
            ts.stats().breaker_rejections[OpClass::BlockFetch.index()],
            1
        );
    }

    #[test]
    fn breaker_fails_fast_then_recovers_via_probe() {
        use crate::breaker::BreakerState;
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(crate::object_store::InMemoryObjectStore::new()),
            FaultPlan::transient_only(u64::MAX, 1.0),
        ));
        let mut cfg = small_config();
        cfg.retry.max_retries = 0;
        cfg.retry.base_backoff = Duration::ZERO;
        let mut ts =
            TieredStorage::new(SharedStorage::new(store.clone(), LatencyModel::off()), cfg);
        // The cooldown must comfortably outlast the trip → fail-fast
        // assertion gap (a few statements), or a scheduler stall lets the
        // "open" read through as an early half-open probe.
        ts.breaker = CircuitBreaker::with_timing(2, Duration::from_millis(150));
        store.set_armed(false);
        let h = ts
            .create_object("r", payload(128), Durability::Persisted, 0, false)
            .unwrap();
        ts.purge_object(h).unwrap();
        store.set_armed(true);
        // Two exhaustions trip the block-fetch breaker.
        assert!(ts.read_chunk(h, 1).unwrap_err().is_transient());
        assert!(ts.read_chunk(h, 1).unwrap_err().is_transient());
        assert_eq!(
            ts.breaker().state(crate::OpClass::BlockFetch),
            BreakerState::Open
        );
        // Open: fails fast without touching the store, even once healthy.
        store.set_armed(false);
        let reads_before = ts.stats().shared.reads;
        let err = ts.read_chunk(h, 1).unwrap_err();
        assert!(matches!(err, StorageError::Unavailable { .. }), "{err:?}");
        assert_eq!(ts.stats().shared.reads, reads_before, "no store traffic");
        assert!(ts.stats().breaker_rejections[crate::OpClass::BlockFetch.index()] >= 1);
        // Cooldown elapses; the half-open probe succeeds and closes it.
        std::thread::sleep(Duration::from_millis(200));
        ts.read_chunk(h, 1).unwrap();
        assert_eq!(
            ts.breaker().state(crate::OpClass::BlockFetch),
            BreakerState::Closed
        );
        assert!(ts.stats().breaker_transitions[crate::OpClass::BlockFetch.index()] >= 3);
    }
}
