//! Multi-run index queries (§7).
//!
//! A query specifies a timestamp (`queryTS`) and returns, per matching key,
//! only the most recent version with `beginTS ≤ queryTS`. Candidate runs are
//! collected by walking the lock-free run lists — groomed runs whose end
//! groomed-block ID is ≤ the evolve watermark are ignored (§5.4) — and
//! pruned by their synopses (§4.2). Per-run results are reconciled with the
//! set or priority-queue strategy (§7.1.2).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use umzi_encoding::{encode_datum, hash_prefix, Datum, IndexDef};
use umzi_run::synopsis::encode_eq_values;
use umzi_run::{
    AccessPattern, FilterCounts, KeyLayout, ProbeCursor, ProbeKey, Rid, Run, RunSearcher,
    SearchHit, SortBound,
};
use umzi_storage::context::{self, fan_out};
use umzi_storage::telemetry::QueryTrace;
use umzi_storage::{ObjectHandle, Priority, READAHEAD_DEPTH};

use crate::index::UmziIndex;
use crate::reconcile::{reconcile_pq, reconcile_set, ReconcileStrategy};
use crate::Result;

/// A range-scan query (§7.1): values for all equality columns, bounds for
/// the sort columns, and a snapshot timestamp.
#[derive(Debug, Clone)]
pub struct RangeQuery {
    /// Values for every equality column.
    pub equality: Vec<Datum>,
    /// Lower bound over (a prefix of) the sort columns.
    pub lower: SortBound,
    /// Upper bound over (a prefix of) the sort columns.
    pub upper: SortBound,
    /// Snapshot timestamp: only versions with `beginTS ≤ query_ts` are
    /// visible.
    pub query_ts: u64,
}

/// One query result: the newest visible version of one key.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Full index key.
    pub key: Bytes,
    /// Version timestamp.
    pub begin_ts: u64,
    /// Entry value (`RID ∥ included columns`).
    pub value: Bytes,
}

impl QueryOutput {
    fn from_hit(hit: SearchHit) -> Self {
        Self {
            key: hit.key,
            begin_ts: hit.begin_ts,
            value: hit.value,
        }
    }

    /// The record's RID.
    pub fn rid(&self) -> Result<Rid> {
        Ok(Rid::decode(&self.value)?)
    }

    /// Decode the key columns (equality then sort).
    pub fn key_columns(&self, layout: &KeyLayout) -> Result<Vec<Datum>> {
        Ok(layout.decode_key_columns(&self.key)?)
    }

    /// Decode the included columns (index-only access, §4.1).
    pub fn included(&self, def: &Arc<IndexDef>) -> Result<Vec<Datum>> {
        Ok(umzi_run::entry::decode_included_values(def, &self.value)?)
    }
}

/// Worker threads a batch lookup may spread its claims over with
/// [`fan_out`]: what the OS grants the *calling* thread (so a pinned caller
/// gets 1 and runs inline), capped at 8. The call walks cgroup files on
/// Linux — tens of microseconds — so a batch asks at most once, and only
/// after a size guard says fan-out could pay. Not cached process-wide:
/// affinity differs per caller. Background work gets 1: fan-out buys
/// latency, and a maintenance job is throughput work that already has its
/// worker. (A staging round fans out over its objects under its own cap,
/// [`umzi_storage::PREFETCH_MAX_THREADS`].)
fn thread_budget() -> usize {
    if context::current().priority() == Priority::Background {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// A claim of one run's batch probes: a run of consecutive pending probes
/// (`probes`, positions in the run's pending list) and the distinct blocks
/// they read (`blocks`, ascending; empty when the claim never stages).
struct Claim {
    probes: std::ops::Range<usize>,
    blocks: Vec<u32>,
}

/// Cut a run's pending probe keys, in ascending order, into claims of at
/// most [`READAHEAD_DEPTH`] distinct target blocks each, in one pass that
/// gallops over the run's in-RAM fences ([`Run::probe_block_from`]). A claim
/// boundary is a block boundary, so no two claims read first the same
/// block. A key that opens the block after its target reads on into it, so
/// that block joins the key's claim too (and may take it one past the
/// depth). The run must have data blocks.
fn plan_claims<'p>(run: &Run, prefixes: impl Iterator<Item = &'p [u8]>) -> Vec<Claim> {
    let fences = &run.header().fence_keys;
    let mut claims: Vec<Claim> = Vec::new();
    for (i, prefix) in prefixes.enumerate() {
        let from = claims
            .last()
            .and_then(|c| c.blocks.last())
            .map_or(0, |&b| b);
        let b = run
            .probe_block_from(from, prefix)
            .expect("the run has data blocks");
        match claims.last_mut() {
            Some(c) if c.blocks.last() == Some(&b) => {}
            Some(c) if c.blocks.len() < READAHEAD_DEPTH as usize => c.blocks.push(b),
            _ => claims.push(Claim {
                probes: i..i,
                blocks: vec![b],
            }),
        }
        let claim = claims.last_mut().expect("pushed above");
        claim.probes.end = i + 1;
        let next = fences.get(b as usize + 1);
        if next.is_some_and(|f| KeyLayout::logical_key(f) == prefix) {
            claim.blocks.push(b + 1);
        }
    }
    claims
}

/// The data blocks a scan of `run` over `[lower, upper)` positions in, from
/// the in-RAM fences: from the block [`Run::locate_first_geq_as`] answers
/// `lower` from through the one it answers `upper` from (the run's last
/// block when `upper` is unbounded), at most [`READAHEAD_DEPTH`] of them.
/// As in the locate, a bound below every fence lands in block 0 and a bound
/// equal to fence `pb` in block `pb`. An upper bound below the lower one
/// swaps the ends. The run must have data blocks.
fn scan_bound_blocks(
    run: &Run,
    lower: &[u8],
    upper: Option<&[u8]>,
) -> std::ops::RangeInclusive<u32> {
    let fences = &run.header().fence_keys;
    let block = |target: &[u8]| {
        let pb = fences.partition_point(|f| f.as_slice() < target);
        let exact = fences.get(pb).is_some_and(|f| f.as_slice() == target);
        (if exact { pb } else { pb.saturating_sub(1) }) as u32
    };
    let lo = block(lower);
    let hi = upper.map_or(run.data_block_count() - 1, block);
    let (first, last) = (lo.min(hi), lo.max(hi));
    first..=last.min(first + READAHEAD_DEPTH - 1)
}

impl UmziIndex {
    /// Collect the runs a query must consider, newest data first: all zone
    /// lists are walked lock-free; zone-`i` runs already covered by later
    /// zones (end groomed ID ≤ watermark `i`) are skipped (§5.4); the
    /// combined list is ordered by descending end-groomed-block ID so the
    /// set-reconciliation approach sees newer data first.
    pub fn candidate_runs(&self) -> Vec<Arc<Run>> {
        let n_boundaries = self.watermarks.len();
        let mut out = Vec::new();
        for (i, zone) in self.zones.iter().enumerate() {
            let watermark = if i < n_boundaries {
                self.watermark(i)
            } else {
                0
            };
            for run in zone.list.snapshot() {
                // Exclusive watermark: IDs < watermark are covered (§5.4).
                if i < n_boundaries && run.groomed_range().1 < watermark {
                    continue;
                }
                out.push(run);
            }
        }
        // Stable: zone order breaks ties (earlier zone = fresher copy).
        out.sort_by_key(|r| std::cmp::Reverse(r.groomed_range().1));
        out
    }

    /// The offset-array bucket for this run, given the query's hash.
    fn bucket_for(run: &Run, hash: Option<u64>) -> Option<u32> {
        match (hash, run.header().offset_bits) {
            (Some(h), bits) if bits > 0 => Some(hash_prefix(h, bits)),
            _ => None,
        }
    }

    /// Range scan (§7.1): returns the newest visible version of every
    /// matching key, sorted by key.
    ///
    /// Iterator *positioning* — each candidate run's two bound locates —
    /// is one staged round: the in-RAM fences name the blocks from the one
    /// the lower bound lands in through the one the upper bound lands in
    /// (at most [`READAHEAD_DEPTH`] per run), and those not yet local are
    /// fetched for every run at once ([`Self::stage`], as for a lookup). The
    /// runs are then positioned one after another on the calling thread,
    /// from local blocks. The trade: a run's window is fetched before the
    /// merge reaches it, so a staged block the tiers evict first is
    /// fetched again, and counted in `StorageStats::prefetch_wasted`. The
    /// merge itself is one sequential reconcile whose per-run iterators
    /// keep [`READAHEAD_DEPTH`] blocks staged ahead of it, so a cold scan
    /// pays one batched fetch per sixteen blocks, not one stall per block.
    pub fn range_scan(
        &self,
        query: &RangeQuery,
        strategy: ReconcileStrategy,
    ) -> Result<Vec<QueryOutput>> {
        let tel = self.storage.telemetry();
        if !tel.is_enabled() {
            return self.range_scan_impl(query, strategy, None);
        }
        // Storage-counter deltas attribute block/cache/retry activity to
        // this scan only approximately: the counters are hierarchy-global,
        // so a concurrent neighbour's IO lands in this trace too.
        let probe0 = self.storage.trace_probe();
        let mut trace = QueryTrace::begin("range_scan_seq");
        let out = self.range_scan_impl(query, strategy, Some(&mut trace));
        let probe = self.storage.trace_probe().since(&probe0);
        trace.blocks_read = probe.chunk_reads;
        trace.cache_hits = probe.cache_hits;
        trace.bytes_decoded = probe.decoded_bytes;
        trace.retries = probe.retries;
        let record = trace.finish();
        tel.ops().range_scan_seq.record(record.total_nanos);
        tel.maybe_log_slow(record);
        out
    }

    fn range_scan_impl(
        &self,
        query: &RangeQuery,
        strategy: ReconcileStrategy,
        mut trace: Option<&mut QueryTrace>,
    ) -> Result<Vec<QueryOutput>> {
        let (lower, upper) =
            self.layout
                .query_range(&query.equality, &query.lower, &query.upper)?;
        let hash = if self.def.has_hash() {
            Some(self.layout.hash_equality(&query.equality)?)
        } else {
            None
        };
        let eq_encoded = encode_eq_values(&query.equality);

        let candidates: Vec<Arc<Run>> = self
            .candidate_runs()
            .into_iter()
            .filter(|r| {
                r.header().synopsis.may_match(
                    &eq_encoded,
                    &query.lower,
                    &query.upper,
                    query.query_ts,
                )
            })
            .collect();
        if let Some(t) = trace.as_deref_mut() {
            t.plan_nanos = t.elapsed_nanos();
        }

        // Positioning reads only staged or local blocks, so it runs on the
        // calling thread, in candidate order.
        self.stage(
            candidates
                .iter()
                .filter(|r| r.data_block_count() > 0)
                .map(|r| (&**r, scan_bound_blocks(r, &lower, upper.as_deref()))),
        );
        let iters = candidates
            .iter()
            .map(|run| {
                let bucket = Self::bucket_for(run, hash);
                RunSearcher::new(run).scan(&lower, upper.as_deref(), bucket, query.query_ts)
            })
            .collect::<umzi_run::Result<Vec<_>>>()?;
        if let Some(t) = trace.as_deref_mut() {
            t.position_nanos = t.elapsed_nanos() - t.plan_nanos;
        }

        let hits = match strategy {
            ReconcileStrategy::Set => reconcile_set(iters)?,
            ReconcileStrategy::PriorityQueue => reconcile_pq(iters)?,
        };
        if let Some(t) = trace {
            t.merge_nanos = t.elapsed_nanos() - t.plan_nanos - t.position_nanos;
        }
        Ok(hits.into_iter().map(QueryOutput::from_hit).collect())
    }

    /// Point lookup (§7.2): the full key (all equality and sort columns) is
    /// specified; runs are searched newest→oldest and the search stops at
    /// the first match. The key is hashed once, and each run's key filter
    /// skips, from one cache line, a run that holds no version of it.
    ///
    /// Over runs purged to shared storage that search would be a chain of
    /// dependent fetches, although the in-RAM fences already name the one
    /// block each run would need. So the first probe whose block has no
    /// verified RAM entry stages, in one concurrent round, that block and
    /// the target block of every candidate run not yet searched whose
    /// filter passes the key ([`Self::stage`]); the probes that follow find
    /// their blocks local. The trade: a lookup may fetch blocks of runs
    /// older than the one that answers it. A lookup whose blocks are all
    /// verified in RAM stages nothing and does no extra work.
    pub fn point_lookup(
        &self,
        equality: &[Datum],
        sort_values: &[Datum],
        query_ts: u64,
    ) -> Result<Option<QueryOutput>> {
        // Histogram-only instrumentation: a point lookup runs in ~1–2 µs
        // when cached, so even the pair of counter probes a full trace takes
        // would be a measurable fraction of the operation.
        let tel = self.storage.telemetry();
        let t0 = tel.start();
        let out = self.point_lookup_impl(equality, sort_values, query_ts);
        tel.record_since(&tel.ops().point_lookup, t0);
        out
    }

    fn point_lookup_impl(
        &self,
        equality: &[Datum],
        sort_values: &[Datum],
        query_ts: u64,
    ) -> Result<Option<QueryOutput>> {
        // Build a full key and strip the timestamp to get the exact logical
        // prefix (also validates arity and kinds).
        let full = self.layout.build_key(equality, sort_values, 0)?;
        let key = ProbeKey::new(KeyLayout::logical_key(&full));
        let eq_encoded = encode_eq_values(equality);
        // The first sort value bounds the lookup on both sides; encoded once.
        let sort0 = sort_values.first().map(|v| {
            let mut out = Vec::with_capacity(9);
            encode_datum(v, &mut out);
            out
        });
        let may_match = |run: &Run| {
            let s0 = sort0.as_deref();
            run.header()
                .synopsis
                .may_match_encoded(&eq_encoded, s0, s0, query_ts)
        };

        let candidates = self.candidate_runs();
        let mut staged = false;
        let mut filter = FilterCounts::default();
        let mut found = None;
        for (i, run) in candidates.iter().enumerate() {
            if !may_match(run) {
                continue;
            }
            let mut cursor = ProbeCursor::new(run, query_ts, AccessPattern::PointLookup);
            let hit = cursor.probe_staging(key, |missed| {
                if !std::mem::replace(&mut staged, true) {
                    let rest = candidates[i + 1..]
                        .iter()
                        .filter(|r| may_match(r) && r.may_hold(&key));
                    let targets = rest.map(|r| (&**r, r.probe_block(key.prefix())));
                    self.stage(std::iter::once((&**run, Some(missed))).chain(targets));
                }
            });
            filter += cursor.filter_counts();
            if let Some(hit) = hit? {
                found = Some(QueryOutput::from_hit(hit));
                break;
            }
        }
        self.count_filter(filter);
        Ok(found)
    }

    /// Add what runs' key filters did for a lookup to the index counters.
    fn count_filter(&self, filter: FilterCounts) {
        let c = &self.counters;
        for (counter, n) in [
            (&c.filter_rejects, filter.rejected),
            (&c.filter_false_passes, filter.false_passes),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Stage, ahead of the reads that need them, the `blocks` of each run in
    /// `wanted` — the one planner behind a cold point lookup, batch claim
    /// and scan positioning. The blocks go to one
    /// [`TieredStorage::prefetch_objects`](umzi_storage::TieredStorage::prefetch_objects)
    /// round, which drops the ones already local and whose guards
    /// (breaker, priority, abort, at least two blocks) decide whether
    /// anything is fetched. Staged blocks land unverified; each demand read
    /// verifies its block and admits it under its own access pattern, as
    /// it would have anyway.
    fn stage<'r, B: IntoIterator<Item = u32>>(
        &self,
        wanted: impl IntoIterator<Item = (&'r Run, B)>,
    ) {
        let chunks =
            |run: &Run, blocks: B| blocks.into_iter().map(|b| run.block_chunk(b)).collect();
        let batches: Vec<(ObjectHandle, Vec<u32>)> = wanted
            .into_iter()
            .map(|(run, blocks)| (run.handle(), chunks(run, blocks)))
            .collect();
        self.storage.prefetch_objects(&batches);
    }

    /// Batched point lookups (§7.2): input keys are sorted by
    /// `(hash, equality, sort)` and searched against each run sequentially
    /// from newest to oldest, one run at a time, until all keys are found or
    /// the runs are exhausted. Results are positionally aligned with `keys`.
    ///
    /// The sort is what makes a run cheap to search. One gallop over the
    /// run's in-RAM fences cuts its unresolved probes into *claims*: runs
    /// of consecutive probes whose target blocks span at most
    /// [`READAHEAD_DEPTH`] distinct blocks. Each claim feeds its probes, in
    /// order, to one forward [`ProbeCursor`] — a merge-join against the
    /// fence index, so a block is fetched once however many probes land in
    /// it — and the claims are taken by the [`fan_out`] workers. On a
    /// claim's first verified-lookup miss its target blocks that are not yet
    /// local are staged in one batched read, so a cold run costs one fetch
    /// wait per sixteen blocks instead of one per block; a warm claim
    /// stages nothing. Under [`Priority::Background`](umzi_storage::Priority)
    /// nothing is staged and a run's probes stay one claim. Runs stay
    /// sequential so the paper's newest-first early exit is preserved.
    /// Each key is hashed once per batch, and a run's probes its key filter
    /// rejects are dropped before the claims are cut, so no claim stages a
    /// block that no probe reads.
    pub fn batch_lookup(
        &self,
        keys: &[(Vec<Datum>, Vec<Datum>)],
        query_ts: u64,
    ) -> Result<Vec<Option<QueryOutput>>> {
        self.batch_lookup_as(keys, query_ts, AccessPattern::PointLookup)
    }

    /// Like [`Self::batch_lookup`] with an explicit cache hint. Validation
    /// probes issued on behalf of an analytical secondary-index scan should
    /// pass [`AccessPattern::RangeScan`]: the batch touches one-pass blocks
    /// in bulk, and labelling them point traffic would promote them into
    /// the protected segment and wash out the real point working set.
    pub fn batch_lookup_as(
        &self,
        keys: &[(Vec<Datum>, Vec<Datum>)],
        query_ts: u64,
        pattern: AccessPattern,
    ) -> Result<Vec<Option<QueryOutput>>> {
        // Per batch, not per key: batch latency is what the caller observes.
        let tel = self.storage.telemetry();
        let t0 = tel.start();
        let out = self.batch_lookup_as_impl(keys, query_ts, pattern);
        tel.record_since(&tel.ops().batch_lookup, t0);
        out
    }

    fn batch_lookup_as_impl(
        &self,
        keys: &[(Vec<Datum>, Vec<Datum>)],
        query_ts: u64,
        pattern: AccessPattern,
    ) -> Result<Vec<Option<QueryOutput>>> {
        /// Below this many pending probes, thread spawn overhead beats the
        /// fan-out win and the run is searched on the calling thread.
        const PARALLEL_THRESHOLD: usize = 32;

        let n_key_cols = self.def.key_column_count();
        let mut col_mins: Vec<Vec<u8>> = vec![Vec::new(); n_key_cols];
        let mut col_maxs: Vec<Vec<u8>> = vec![Vec::new(); n_key_cols];
        let mut probes = Vec::with_capacity(keys.len());
        for (pos, (eq, sort)) in keys.iter().enumerate() {
            let mut prefix = self.layout.build_key(eq, sort, 0)?;
            prefix.truncate(KeyLayout::logical_key(&prefix).len());
            // Fold this key into the batch's per-column bounding box; the
            // synopsis is checked once per batch (§7), not per key. A column
            // is cloned only when it seeds both bounds (first key); after
            // that it moves into whichever bound it improves.
            let mut encoded = encode_eq_values(eq);
            encoded.extend(encode_eq_values(sort));
            for (i, col) in encoded.into_iter().enumerate() {
                if pos == 0 {
                    col_mins[i] = col.clone();
                    col_maxs[i] = col;
                } else if col < col_mins[i] {
                    col_mins[i] = col;
                } else if col > col_maxs[i] {
                    col_maxs[i] = col;
                }
            }
            probes.push((prefix, pos));
        }
        // "We first sort the input keys by the hash value, equality column
        // values, and sort column values, to improve search efficiency."
        probes.sort_unstable();
        let probes: Vec<(ProbeKey<'_>, usize)> = probes
            .iter()
            .map(|(prefix, pos)| (ProbeKey::new(prefix), *pos))
            .collect();

        let mut results: Vec<Option<QueryOutput>> = vec![None; keys.len()];
        let mut remaining = probes.len();
        // Asked of the OS by the first run with enough pending probes.
        let mut budget: Option<usize> = None;
        let background = context::current().priority() == Priority::Background;
        let mut filter = FilterCounts::default();

        // "The sorted input keys are searched against each run sequentially
        // from newest to oldest, one run at a time, until all keys are found
        // or all runs to be searched are exhausted."
        for run in self.candidate_runs() {
            if remaining == 0 {
                break;
            }
            if !run
                .header()
                .synopsis
                .may_match_box(&col_mins, &col_maxs, query_ts)
            {
                continue;
            }
            let unresolved = probes.iter().filter(|(_, pos)| results[*pos].is_none());
            let pending: Vec<&(ProbeKey, usize)> =
                unresolved.filter(|(key, _)| run.may_hold(key)).collect();
            filter.rejected += (remaining - pending.len()) as u64;
            if pending.is_empty() {
                continue;
            }
            let claims = if background {
                vec![Claim {
                    probes: 0..pending.len(),
                    blocks: Vec::new(),
                }]
            } else {
                plan_claims(&run, pending.iter().map(|(key, _)| key.prefix()))
            };
            // One forward cursor per claim: the claim's probes ascend.
            type Found = (Vec<(usize, SearchHit)>, FilterCounts);
            let probe_claim = |claim: &Claim| -> umzi_run::Result<Found> {
                let mut cursor = ProbeCursor::new(&run, query_ts, pattern);
                let mut staged = false;
                let mut found = Vec::new();
                for &&(key, pos) in &pending[claim.probes.clone()] {
                    let hit = cursor.probe_staging(key, |missed| {
                        if !std::mem::replace(&mut staged, true) {
                            let blocks = claim.blocks.iter().copied().chain([missed]);
                            self.stage([(&*run, blocks)]);
                        }
                    })?;
                    if let Some(hit) = hit {
                        found.push((pos, hit));
                    }
                }
                Ok((found, cursor.filter_counts()))
            };
            let threads = if pending.len() < PARALLEL_THRESHOLD || claims.len() < 2 {
                1
            } else {
                *budget.get_or_insert_with(thread_budget)
            };
            for (found, counts) in fan_out(&claims, threads, probe_claim)? {
                filter += counts;
                for (pos, hit) in found {
                    results[pos] = Some(QueryOutput::from_hit(hit));
                    remaining -= 1;
                }
            }
        }
        self.count_filter(filter);
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UmziConfig;
    use crate::evolve::EvolveNotice;
    use umzi_encoding::ColumnType;
    use umzi_run::{IndexEntry, ZoneId};
    use umzi_storage::TieredStorage;

    fn setup() -> Arc<UmziIndex> {
        let storage = Arc::new(TieredStorage::in_memory());
        let def = Arc::new(
            IndexDef::builder("t")
                .equality("device", ColumnType::Int64)
                .sort("msg", ColumnType::Int64)
                .included("val", ColumnType::Int64)
                .build()
                .unwrap(),
        );
        UmziIndex::create(storage, def, UmziConfig::two_zone("idx")).unwrap()
    }

    fn entry(idx: &UmziIndex, zone: ZoneId, d: i64, m: i64, ts: u64, val: i64) -> IndexEntry {
        IndexEntry::new(
            idx.layout(),
            &[Datum::Int64(d)],
            &[Datum::Int64(m)],
            ts,
            Rid::new(zone, ts, 0),
            &[Datum::Int64(val)],
        )
        .unwrap()
    }

    fn scan(
        idx: &UmziIndex,
        d: i64,
        lo: i64,
        hi: i64,
        ts: u64,
        s: ReconcileStrategy,
    ) -> Vec<(i64, i64, u64, i64)> {
        let out = idx
            .range_scan(
                &RangeQuery {
                    equality: vec![Datum::Int64(d)],
                    lower: SortBound::Included(vec![Datum::Int64(lo)]),
                    upper: SortBound::Included(vec![Datum::Int64(hi)]),
                    query_ts: ts,
                },
                s,
            )
            .unwrap();
        out.iter()
            .map(|o| {
                let cols = o.key_columns(idx.layout()).unwrap();
                let inc = o.included(idx.def()).unwrap();
                (
                    cols[0].as_i64().unwrap(),
                    cols[1].as_i64().unwrap(),
                    o.begin_ts,
                    inc[0].as_i64().unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn scan_across_runs_reconciles_versions() {
        let idx = setup();
        // Older run: (1,1)@10 val=100, (1,2)@11 val=200.
        idx.build_groomed_run(
            vec![
                entry(&idx, ZoneId::GROOMED, 1, 1, 10, 100),
                entry(&idx, ZoneId::GROOMED, 1, 2, 11, 200),
            ],
            1,
            1,
        )
        .unwrap();
        // Newer run updates (1,1)@20 val=101.
        idx.build_groomed_run(vec![entry(&idx, ZoneId::GROOMED, 1, 1, 20, 101)], 2, 2)
            .unwrap();

        for s in [ReconcileStrategy::Set, ReconcileStrategy::PriorityQueue] {
            assert_eq!(
                scan(&idx, 1, 0, 9, 100, s),
                vec![(1, 1, 20, 101), (1, 2, 11, 200)],
                "{s:?}"
            );
            // Time travel to before the update.
            assert_eq!(
                scan(&idx, 1, 0, 9, 15, s),
                vec![(1, 1, 10, 100), (1, 2, 11, 200)],
                "{s:?}"
            );
        }
    }

    #[test]
    fn watermark_hides_evolved_groomed_runs() {
        let idx = setup();
        idx.build_groomed_run(vec![entry(&idx, ZoneId::GROOMED, 1, 1, 10, 1)], 1, 1)
            .unwrap();
        idx.build_groomed_run(vec![entry(&idx, ZoneId::GROOMED, 1, 2, 20, 2)], 2, 2)
            .unwrap();
        assert_eq!(idx.candidate_runs().len(), 2);

        // Evolve covering block 1 only; the groomed run for block 2 stays.
        idx.evolve(EvolveNotice {
            psn: 1,
            groomed_lo: 1,
            groomed_hi: 1,
            entries: vec![entry(&idx, ZoneId::POST_GROOMED, 1, 1, 10, 1)],
        })
        .unwrap();

        let cands = idx.candidate_runs();
        assert_eq!(cands.len(), 2, "one groomed (block 2) + one post-groomed");
        // Query still sees both keys, exactly once each.
        let got = scan(&idx, 1, 0, 9, 100, ReconcileStrategy::PriorityQueue);
        assert_eq!(got, vec![(1, 1, 10, 1), (1, 2, 20, 2)]);
    }

    #[test]
    fn cross_zone_duplicates_deduplicated() {
        let idx = setup();
        // Groomed run covers blocks 1-2; evolve only covers block 1, so the
        // groomed run survives the watermark and the version exists in BOTH
        // zones (the §5.4 duplicate window).
        idx.build_groomed_run(vec![entry(&idx, ZoneId::GROOMED, 1, 1, 10, 1)], 1, 2)
            .unwrap();
        idx.evolve(EvolveNotice {
            psn: 1,
            groomed_lo: 1,
            groomed_hi: 1,
            entries: vec![entry(&idx, ZoneId::POST_GROOMED, 1, 1, 10, 1)],
        })
        .unwrap();
        assert_eq!(idx.candidate_runs().len(), 2);
        for s in [ReconcileStrategy::Set, ReconcileStrategy::PriorityQueue] {
            let got = scan(&idx, 1, 0, 9, 100, s);
            assert_eq!(got.len(), 1, "{s:?}: duplicate must collapse");
            assert_eq!(got[0], (1, 1, 10, 1));
        }
    }

    #[test]
    fn point_lookup_early_exit() {
        let idx = setup();
        idx.build_groomed_run(vec![entry(&idx, ZoneId::GROOMED, 1, 1, 10, 1)], 1, 1)
            .unwrap();
        idx.build_groomed_run(vec![entry(&idx, ZoneId::GROOMED, 1, 1, 20, 2)], 2, 2)
            .unwrap();
        let hit = idx
            .point_lookup(&[Datum::Int64(1)], &[Datum::Int64(1)], 100)
            .unwrap()
            .unwrap();
        assert_eq!(hit.begin_ts, 20);
        assert!(idx
            .point_lookup(&[Datum::Int64(9)], &[Datum::Int64(1)], 100)
            .unwrap()
            .is_none());
        // Snapshot in the past.
        let hit = idx
            .point_lookup(&[Datum::Int64(1)], &[Datum::Int64(1)], 15)
            .unwrap()
            .unwrap();
        assert_eq!(hit.begin_ts, 10);
    }

    #[test]
    fn batch_lookup_positional() {
        let idx = setup();
        idx.build_groomed_run(
            (0..50)
                .map(|i| entry(&idx, ZoneId::GROOMED, i % 5, i, 10 + i as u64, i))
                .collect(),
            1,
            1,
        )
        .unwrap();
        let keys: Vec<(Vec<Datum>, Vec<Datum>)> = vec![
            (vec![Datum::Int64(3)], vec![Datum::Int64(3)]),
            (vec![Datum::Int64(4)], vec![Datum::Int64(999)]), // miss
            (vec![Datum::Int64(0)], vec![Datum::Int64(45)]),
        ];
        let out = idx.batch_lookup(&keys, 1000).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].as_ref().unwrap().begin_ts, 13);
        assert!(out[1].is_none());
        assert_eq!(out[2].as_ref().unwrap().begin_ts, 55);
    }

    /// Skewed batches (every probe in one hot hash bucket, interleaved with
    /// misses) exercise the cursor-claiming fan-out; results must stay
    /// positionally correct.
    #[test]
    fn batch_lookup_skewed_batch_over_steal_threshold() {
        let idx = setup();
        idx.build_groomed_run(
            (0..2000)
                .map(|i| entry(&idx, ZoneId::GROOMED, 7, i, 10 + i as u64, i))
                .collect(),
            1,
            1,
        )
        .unwrap();
        // 300 probes, all on device 7 (one hash bucket), every third a miss.
        let keys: Vec<(Vec<Datum>, Vec<Datum>)> = (0..300)
            .map(|i| {
                let m = if i % 3 == 2 { 100_000 + i } else { i * 6 };
                (vec![Datum::Int64(7)], vec![Datum::Int64(m)])
            })
            .collect();
        let out = idx.batch_lookup(&keys, u64::MAX).unwrap();
        for (i, got) in out.iter().enumerate() {
            if i % 3 == 2 {
                assert!(got.is_none(), "probe {i} must miss");
            } else {
                let hit = got.as_ref().expect("probe must hit");
                assert_eq!(hit.begin_ts, 10 + (i as u64) * 6, "probe {i}");
            }
        }
    }

    #[test]
    fn synopsis_prunes_candidates() {
        let idx = setup();
        // Two runs with disjoint device ranges.
        idx.build_groomed_run(
            (0..10)
                .map(|i| entry(&idx, ZoneId::GROOMED, 100 + i, i, 10, i))
                .collect(),
            1,
            1,
        )
        .unwrap();
        idx.build_groomed_run(
            (0..10)
                .map(|i| entry(&idx, ZoneId::GROOMED, 200 + i, i, 10, i))
                .collect(),
            2,
            2,
        )
        .unwrap();
        // Query for device 105 — only the first run can match; verify via
        // storage read counters that only one run was searched.
        let before = idx.storage().stats().mem.hits + idx.storage().stats().mem.misses;
        let got = scan(&idx, 105, 0, 9, 100, ReconcileStrategy::PriorityQueue);
        assert_eq!(got.len(), 1);
        let after = idx.storage().stats().mem.hits + idx.storage().stats().mem.misses;
        assert!(after > before, "sanity: some blocks were read");
        // Device 300 matches neither synopsis: no block reads at all.
        let before = idx.storage().stats().mem.hits + idx.storage().stats().mem.misses;
        let got = scan(&idx, 300, 0, 9, 100, ReconcileStrategy::PriorityQueue);
        assert!(got.is_empty());
        let after = idx.storage().stats().mem.hits + idx.storage().stats().mem.misses;
        assert_eq!(after, before, "fully pruned query must read nothing");
    }

    /// A maintenance job (the post-groomer's predecessor probe) installs a
    /// background-priority context and must not spawn query workers.
    #[test]
    fn background_priority_never_fans_out() {
        use umzi_storage::{context, Priority, QueryContext};
        let _g = context::enter(QueryContext::unbounded().with_priority(Priority::Background));
        assert_eq!(thread_budget(), 1);
    }
}
