//! Multi-run index queries (§7).
//!
//! A query specifies a timestamp (`queryTS`) and returns, per matching key,
//! only the most recent version with `beginTS ≤ queryTS`. Candidate runs are
//! collected by walking the lock-free run lists — groomed runs whose end
//! groomed-block ID is ≤ the evolve watermark are ignored (§5.4) — and
//! pruned by their synopses (§4.2). Per-run results are reconciled with the
//! set or priority-queue strategy (§7.1.2).

use std::sync::Arc;

use bytes::Bytes;
use umzi_encoding::{hash_prefix, Datum, IndexDef};
use umzi_run::synopsis::encode_eq_values;
use umzi_run::{AccessPattern, KeyLayout, Rid, Run, RunSearcher, SearchHit, SortBound};
use umzi_storage::telemetry::QueryTrace;

use crate::index::UmziIndex;
use crate::reconcile::{
    plan_scan_partitions, reconcile_partitioned, reconcile_pq, reconcile_set, ReconcileStrategy,
};
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

    /// Run `per_chunk` over contiguous chunks of `items` on at most
    /// `min(available_parallelism, 8)` scoped threads, concatenating the
    /// chunk results in order (so callers' ordering guarantees hold).
    /// Falls back to the calling thread when `items` has fewer than
    /// `min_items` elements or only one thread is available.
    fn fan_out_chunks<'a, T, R, F>(
        items: &'a [T],
        min_items: usize,
        per_chunk: F,
    ) -> umzi_run::Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a [T]) -> umzi_run::Result<Vec<R>> + Sync,
    {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
            .min(items.len().max(1));
        if threads <= 1 || items.len() < min_items {
            return per_chunk(items);
        }
        let chunk = items.len().div_ceil(threads);
        // Propagate the caller's deadline/cancellation to the workers.
        let ctx = umzi_storage::context::current();
        std::thread::scope(|s| {
            let (per_chunk, ctx) = (&per_chunk, &ctx);
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|c| {
                    s.spawn(move || {
                        let _g = umzi_storage::context::enter(ctx.clone());
                        per_chunk(c)
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(items.len());
            for h in handles {
                all.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))?);
            }
            Ok(all)
        })
    }

    /// Run `per_chunk` over small chunks of `items` claimed from a shared
    /// atomic cursor by up to `min(available_parallelism, 8)` scoped
    /// threads. Unlike [`Self::fan_out_chunks`], no thread owns a fixed
    /// slice: when per-item cost is skewed (e.g. probes hitting one hot
    /// hash bucket), fast threads keep stealing chunks instead of idling
    /// behind the slow one. Results concatenate in claim order, which is
    /// **not** the input order — use only when the caller doesn't rely on
    /// ordering (batch-lookup results are positional).
    fn steal_chunks<'a, T, R, F>(
        items: &'a [T],
        chunk: usize,
        min_items: usize,
        per_chunk: F,
    ) -> umzi_run::Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a [T]) -> umzi_run::Result<Vec<R>> + Sync,
    {
        let chunk = chunk.max(1);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
            .min(items.len().div_ceil(chunk).max(1));
        if threads <= 1 || items.len() < min_items {
            return per_chunk(items);
        }
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        // Propagate the caller's deadline/cancellation to the stealers.
        let ctx = umzi_storage::context::current();
        std::thread::scope(|s| {
            let (cursor, per_chunk, ctx) = (&cursor, &per_chunk, &ctx);
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(move || -> umzi_run::Result<Vec<R>> {
                        let _g = umzi_storage::context::enter(ctx.clone());
                        let mut out = Vec::new();
                        loop {
                            let start =
                                cursor.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                            if start >= items.len() {
                                return Ok(out);
                            }
                            let end = (start + chunk).min(items.len());
                            out.extend(per_chunk(&items[start..end])?);
                        }
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(items.len());
            for h in handles {
                all.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))?);
            }
            Ok(all)
        })
    }

    /// Reconcile positioned per-run iterators, taking the partitioned
    /// parallel path when the scan is large enough (§7.1.2 merge, split by
    /// key range): plan boundaries from the merged block fences of every
    /// candidate run, resolve each boundary to a per-run ordinal through the
    /// fence index (one cheap, usually-cached lookup per run × boundary),
    /// split every iterator with
    /// [`umzi_run::RunRangeIter::sub_range_seeded`], and merge the
    /// partitions on scoped threads. Boundary resolution decodes the block
    /// containing each cut; that decoded block is handed to the partition
    /// that *starts* at the cut, so adjacent partitions sharing a boundary
    /// block don't each fetch it again. Output is byte-for-byte the
    /// sequential [`reconcile_pq`] result — partitions are key-disjoint,
    /// cut at logical-key granularity, and concatenated in ascending order.
    ///
    /// Returns the hits and the number of partitions merged (0 = the
    /// sequential path), which is what classifies this scan in telemetry.
    fn reconcile_pq_maybe_parallel(
        &self,
        iters: Vec<umzi_run::RunRangeIter<'_>>,
        lower: &[u8],
        upper: Option<&Bytes>,
        candidates: &[Arc<Run>],
    ) -> umzi_run::Result<(Vec<SearchHit>, u64)> {
        let scan = &self.config.scan;
        let estimated_rows: u64 = iters.iter().map(|it| it.remaining_entries()).sum();
        // Adaptive fan-out: never cut the scan into partitions smaller than
        // min_partition_rows — a tiny partition wastes its thread spawn.
        let target = scan.adaptive_partitions(estimated_rows);
        if target <= 1 || estimated_rows < scan.parallel_row_threshold.max(1) {
            return Ok((reconcile_pq(iters)?, 0));
        }
        let boundaries =
            plan_scan_partitions(candidates, lower, upper.map(|u| u.as_ref()), target)?;
        if boundaries.is_empty() {
            return Ok((reconcile_pq(iters)?, 0));
        }
        // Resolve every run's boundary ordinals on scoped threads — each
        // resolution may cost a block read, and they are the only
        // sequential I/O left in front of the parallel merge. Exact cuts:
        // no logical-key group straddles a boundary (prefix-free logical
        // keys), so every version of a group lands on one side. The decoded
        // block each resolution already paid for rides along as a seed.
        type Cut = (u64, Option<(u32, umzi_run::DataBlock, u64)>);
        let cuts: Vec<Vec<Cut>> = Self::fan_out_chunks(&iters, 2, |chunk| {
            chunk
                .iter()
                .map(|it| {
                    let (start, end) = it.ordinal_bounds();
                    let mut prev = start;
                    boundaries
                        .iter()
                        .map(|boundary| {
                            let (ord, seed) = it
                                .run()
                                .locate_first_geq_with_block(boundary, AccessPattern::RangeScan)?;
                            prev = ord.clamp(prev, end);
                            Ok((prev, seed))
                        })
                        .collect()
                })
                .collect()
        })?;
        let mut partitions: Vec<Vec<umzi_run::RunRangeIter<'_>>> = (0..=boundaries.len())
            .map(|_| Vec::with_capacity(iters.len()))
            .collect();
        for (it, run_cuts) in iters.iter().zip(cuts) {
            let (start, end) = it.ordinal_bounds();
            let mut prev = start;
            // A mid-block cut's decoded block holds the last entries of the
            // partition ending at the cut AND the first entries of the one
            // starting there — seed both sides (the clone is a refcount
            // bump, not a byte copy). Fence-aligned cuts carry no block.
            let mut carry: Option<(u32, umzi_run::DataBlock, u64)> = None;
            for (p, (cut, seed)) in run_cuts.into_iter().enumerate() {
                let mut seeds: Vec<_> = carry.take().into_iter().collect();
                if let Some(s) = &seed {
                    if seeds.first().map(|c: &(u32, _, _)| c.0) != Some(s.0) {
                        seeds.push(s.clone());
                    }
                }
                partitions[p].push(it.sub_range_seeded(prev, cut, seeds));
                prev = cut;
                carry = seed;
            }
            partitions[boundaries.len()].push(it.sub_range_seeded(
                prev,
                end,
                carry.take().into_iter().collect(),
            ));
        }
        let n_partitions = partitions.len() as u64;
        self.counters
            .parallel_scans
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.counters
            .scan_partitions
            .fetch_add(n_partitions, std::sync::atomic::Ordering::Relaxed);
        Ok((reconcile_partitioned(partitions)?, n_partitions))
    }

    /// Range scan (§7.1): returns the newest visible version of every
    /// matching key, sorted by key.
    ///
    /// Iterator *positioning* — the per-run `find_first_geq`, which is where
    /// the block fetches happen — fans out across candidate runs on scoped
    /// threads (runs are `Arc`s and reads are lock-free). Large
    /// priority-queue scans then also *merge* in parallel: the key range is
    /// partitioned at block-fence boundaries and each partition merges on
    /// its own thread ([`Self::reconcile_pq_maybe_parallel`]); small scans
    /// and the set strategy reconcile sequentially. Results are identical
    /// and deterministic either way.
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
        // so a concurrent neighbour's IO lands in this trace too. The
        // partition count (and with it seq vs partitioned) is exact — the
        // reconcile path reports what this scan did.
        let probe0 = self.storage.trace_probe();
        let mut trace = QueryTrace::begin("range_scan_seq");
        let out = self.range_scan_impl(query, strategy, Some(&mut trace));
        let probe = self.storage.trace_probe().since(&probe0);
        trace.blocks_read = probe.chunk_reads;
        trace.cache_hits = probe.cache_hits;
        trace.bytes_decoded = probe.decoded_bytes;
        trace.retries = probe.retries;
        let partitioned = trace.partitions > 0;
        if partitioned {
            trace.op = "range_scan_partitioned";
        }
        let record = trace.finish();
        let hist = if partitioned {
            &tel.ops().range_scan_partitioned
        } else {
            &tel.ops().range_scan_seq
        };
        hist.record(record.total_nanos);
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
        // One shared allocation for the upper bound across all per-run
        // iterators (refcounted clones, not byte copies).
        let upper: Option<Bytes> = upper.map(Bytes::from);
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

        // A named fn (not a closure) so the iterator's borrow is tied to the
        // run reference, not to the closure's environment.
        fn position<'r>(
            run: &'r Arc<Run>,
            lower: &[u8],
            upper: Option<Bytes>,
            bucket: Option<u32>,
            query_ts: u64,
            budget: Arc<std::sync::atomic::AtomicU64>,
        ) -> umzi_run::Result<umzi_run::RunRangeIter<'r>> {
            RunSearcher::new(run).scan_shared_with_budget(
                lower,
                upper,
                bucket,
                query_ts,
                AccessPattern::RangeScan,
                Some(budget),
            )
        }
        // One streamed-bytes counter for the whole query: every per-run
        // iterator draws from the same scan-bypass budget, so a multi-run
        // scan stops churning the decoded cache after the *query* (not each
        // run) crosses the threshold.
        let scan_budget = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // Bounded fan-out over candidate runs; chunk results concatenate in
        // order, so the reconcile order is unchanged.
        let iters = Self::fan_out_chunks(&candidates, 2, |runs| {
            runs.iter()
                .map(|run| {
                    position(
                        run,
                        &lower,
                        upper.clone(),
                        Self::bucket_for(run, hash),
                        query.query_ts,
                        Arc::clone(&scan_budget),
                    )
                })
                .collect()
        })?;
        if let Some(t) = trace.as_deref_mut() {
            t.position_nanos = t.elapsed_nanos() - t.plan_nanos;
        }

        let (hits, partitions) = match strategy {
            ReconcileStrategy::Set => (reconcile_set(iters)?, 0),
            ReconcileStrategy::PriorityQueue => {
                self.reconcile_pq_maybe_parallel(iters, &lower, upper.as_ref(), &candidates)?
            }
        };
        if let Some(t) = trace {
            t.merge_nanos = t.elapsed_nanos() - t.plan_nanos - t.position_nanos;
            t.partitions = partitions;
        }
        Ok(hits.into_iter().map(QueryOutput::from_hit).collect())
    }

    /// Point lookup (§7.2): the full key (all equality and sort columns) is
    /// specified; runs are searched newest→oldest and the search stops at
    /// the first match.
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
        let prefix = &full[..full.len() - 8];
        let hash = if self.def.has_hash() {
            Some(self.layout.hash_equality(equality)?)
        } else {
            None
        };
        let eq_encoded = encode_eq_values(equality);
        let bound = SortBound::Included(sort_values.to_vec());

        for run in self.candidate_runs() {
            if !run
                .header()
                .synopsis
                .may_match(&eq_encoded, &bound, &bound, query_ts)
            {
                continue;
            }
            let searcher = RunSearcher::new(&run);
            if let Some(hit) = searcher.lookup(prefix, Self::bucket_for(&run, hash), query_ts)? {
                return Ok(Some(QueryOutput::from_hit(hit)));
            }
        }
        Ok(None)
    }

    /// Batched point lookups (§7.2): input keys are sorted by
    /// `(hash, equality, sort)` and searched against each run sequentially
    /// from newest to oldest, one run at a time, until all keys are found or
    /// the runs are exhausted. Results are positionally aligned with `keys`.
    ///
    /// Within each run, unresolved probes are partitioned into contiguous
    /// (still sorted) slices and looked up on scoped threads; runs stay
    /// sequential so the paper's newest-first early exit is preserved.
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
        struct Probe {
            prefix: Vec<u8>,
            hash: Option<u64>,
            pos: usize,
        }

        /// Below this many pending probes, thread spawn overhead beats the
        /// fan-out win and the run is searched on the calling thread.
        const PARALLEL_THRESHOLD: usize = 32;
        /// Probes claimed per steal: small enough that a skewed batch (one
        /// hot hash bucket) re-balances, large enough that the shared
        /// cursor isn't contended.
        const STEAL_CHUNK: usize = 16;

        let n_key_cols = self.def.key_column_count();
        let mut col_mins: Vec<Vec<u8>> = vec![Vec::new(); n_key_cols];
        let mut col_maxs: Vec<Vec<u8>> = vec![Vec::new(); n_key_cols];
        let mut probes = Vec::with_capacity(keys.len());
        for (pos, (eq, sort)) in keys.iter().enumerate() {
            let full = self.layout.build_key(eq, sort, 0)?;
            let prefix = full[..full.len() - 8].to_vec();
            let hash = if self.def.has_hash() {
                Some(self.layout.hash_equality(eq)?)
            } else {
                None
            };
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
            probes.push(Probe { prefix, hash, pos });
        }
        // "We first sort the input keys by the hash value, equality column
        // values, and sort column values, to improve search efficiency."
        probes.sort_by(|a, b| a.prefix.cmp(&b.prefix));

        let mut results: Vec<Option<QueryOutput>> = vec![None; keys.len()];
        let mut remaining = probes.len();

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
            let pending: Vec<&Probe> = probes.iter().filter(|p| results[p.pos].is_none()).collect();
            let probe_slice = |slice: &[&Probe]| -> umzi_run::Result<Vec<(usize, SearchHit)>> {
                let searcher = RunSearcher::new(&run);
                let mut found = Vec::new();
                for probe in slice {
                    if let Some(hit) = searcher.lookup_as(
                        &probe.prefix,
                        Self::bucket_for(&run, probe.hash),
                        query_ts,
                        pattern,
                    )? {
                        found.push((probe.pos, hit));
                    }
                }
                Ok(found)
            };
            // Work stealing: skewed batches (hot hash buckets make some
            // probes far costlier than others) no longer leave threads idle
            // behind one overloaded equal-size slice. Found hits are
            // positional, so the claim order doesn't matter.
            let found = Self::steal_chunks(&pending, STEAL_CHUNK, PARALLEL_THRESHOLD, probe_slice)?;
            for (pos, hit) in found {
                results[pos] = Some(QueryOutput::from_hit(hit));
                remaining -= 1;
            }
        }
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

    /// The partitioned parallel merge must return byte-for-byte what the
    /// sequential merge returns, and the fan-out must be visible in the
    /// index counters.
    #[test]
    fn parallel_reconcile_matches_sequential_and_counts() {
        let build = |name: &str, partitions: usize, threshold: u64| {
            let storage = Arc::new(TieredStorage::in_memory());
            let def = Arc::new(
                IndexDef::builder("t")
                    .equality("device", ColumnType::Int64)
                    .sort("msg", ColumnType::Int64)
                    .included("val", ColumnType::Int64)
                    .build()
                    .unwrap(),
            );
            let mut cfg = UmziConfig::two_zone(name);
            cfg.scan.max_scan_partitions = partitions;
            cfg.scan.parallel_row_threshold = threshold;
            let idx = UmziIndex::create(storage, def, cfg).unwrap();
            // Overlapping runs: every run rewrites a sliding window of msgs.
            for r in 0..4u64 {
                let entries = (0..3000i64)
                    .map(|m| {
                        entry(
                            &idx,
                            ZoneId::GROOMED,
                            1,
                            (m + r as i64 * 500) % 3500,
                            10 + r * 100 + (m % 7) as u64,
                            m,
                        )
                    })
                    .collect();
                idx.build_groomed_run(entries, r + 1, r + 1).unwrap();
            }
            idx
        };
        let seq = build("q-seq", 1, u64::MAX);
        let par = build("q-par", 4, 1);

        for (lo, hi, ts) in [
            (0i64, 3499i64, u64::MAX),
            (0, 3499, 215),
            (100, 100, u64::MAX), // single-key range
            (700, 2600, 330),
        ] {
            let q = RangeQuery {
                equality: vec![Datum::Int64(1)],
                lower: SortBound::Included(vec![Datum::Int64(lo)]),
                upper: SortBound::Included(vec![Datum::Int64(hi)]),
                query_ts: ts,
            };
            let a = seq
                .range_scan(&q, ReconcileStrategy::PriorityQueue)
                .unwrap();
            let b = par
                .range_scan(&q, ReconcileStrategy::PriorityQueue)
                .unwrap();
            let flat = |o: &[QueryOutput]| -> Vec<(Vec<u8>, Vec<u8>, u64)> {
                o.iter()
                    .map(|x| (x.key.to_vec(), x.value.to_vec(), x.begin_ts))
                    .collect()
            };
            assert_eq!(flat(&a), flat(&b), "range [{lo},{hi}] ts={ts}");
        }
        assert_eq!(seq.stats().parallel_scans, 0, "P=1 keeps the oracle path");
        let pstats = par.stats();
        assert!(pstats.parallel_scans > 0, "forced config must fan out");
        assert!(pstats.scan_partitions >= 2 * pstats.parallel_scans);
    }

    /// PR 9 boundary over-fetch regression: adjacent partitions of a
    /// parallel scan share their boundary blocks, and the cut resolution
    /// already decodes each of them — the partitioned path must reuse those
    /// decoded blocks instead of fetching once per side. A tiny decoded
    /// cache keeps cache hits from masking a refetch; the partitioned scan
    /// may then read at most one extra block per partition (the
    /// fence-resolution reads) over the sequential scan.
    #[test]
    fn partitioned_scan_does_not_refetch_boundary_blocks() {
        let build = |name: &str, partitions: usize, threshold: u64| {
            // Effectively no decoded cache: every block fetch must hit the
            // chunk tiers, so a boundary-block refetch is visible in
            // `chunk_reads` instead of being absorbed as a cache hit.
            let storage = Arc::new(TieredStorage::new(
                umzi_storage::SharedStorage::in_memory(),
                umzi_storage::TieredConfig {
                    decoded_cache: umzi_storage::DecodedCacheConfig {
                        capacity_bytes: 1,
                        ..umzi_storage::DecodedCacheConfig::default()
                    },
                    ..umzi_storage::TieredConfig::default()
                },
            ));
            let def = Arc::new(
                IndexDef::builder("t")
                    .equality("device", ColumnType::Int64)
                    .sort("msg", ColumnType::Int64)
                    .included("val", ColumnType::Int64)
                    .build()
                    .unwrap(),
            );
            let mut cfg = UmziConfig::two_zone(name);
            cfg.scan.max_scan_partitions = partitions;
            cfg.scan.parallel_row_threshold = threshold;
            cfg.scan.min_partition_rows = 1;
            let idx = UmziIndex::create(storage, def, cfg).unwrap();
            // Overlapping runs so merged-fence boundaries land mid-block in
            // most runs — the shape that over-fetched before the fix.
            for r in 0..4u64 {
                let entries = (0..3000i64)
                    .map(|m| {
                        entry(
                            &idx,
                            ZoneId::GROOMED,
                            1,
                            (m + r as i64 * 500) % 3500,
                            10 + r * 100 + (m % 7) as u64,
                            m,
                        )
                    })
                    .collect();
                idx.build_groomed_run(entries, r + 1, r + 1).unwrap();
            }
            idx
        };
        let seq = build("q-reads-seq", 1, u64::MAX);
        let par = build("q-reads-par", 4, 1);
        let q = RangeQuery {
            equality: vec![Datum::Int64(1)],
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: u64::MAX,
        };
        let reads = |idx: &Arc<UmziIndex>| {
            let p0 = idx.storage().trace_probe();
            let out = idx
                .range_scan(&q, ReconcileStrategy::PriorityQueue)
                .unwrap();
            assert_eq!(out.len(), 3500);
            idx.storage().trace_probe().since(&p0).chunk_reads
        };
        let seq_reads = reads(&seq);
        let par_reads = reads(&par);
        let pstats = par.stats();
        assert!(pstats.parallel_scans > 0, "forced config must fan out");
        assert!(
            par_reads <= seq_reads + pstats.scan_partitions,
            "partitioned scan refetches boundary blocks: \
             {par_reads} reads > {seq_reads} sequential + {} partitions",
            pstats.scan_partitions
        );
    }

    /// PR 9 planner-skew regression: partition boundaries must be planned
    /// from the merged fences of every candidate run, not any single run —
    /// with two same-size runs over disjoint key ranges, a single-run plan
    /// clusters every boundary inside that run's half and leaves the other
    /// half as one giant partition.
    #[test]
    fn partition_planner_spans_all_candidate_runs() {
        let idx = setup();
        idx.build_groomed_run(
            (0..3000i64)
                .map(|m| entry(&idx, ZoneId::GROOMED, 1, m, 10, 0))
                .collect(),
            1,
            1,
        )
        .unwrap();
        idx.build_groomed_run(
            (0..3000i64)
                .map(|m| entry(&idx, ZoneId::GROOMED, 1, 100_000 + m, 11, 0))
                .collect(),
            2,
            2,
        )
        .unwrap();
        let runs = idx.candidate_runs();
        assert_eq!(runs.len(), 2);
        let boundaries = plan_scan_partitions(&runs, &[], None, 4).unwrap();
        assert!(boundaries.len() >= 2, "two 3000-row runs must yield cuts");
        // Any key of the low run sorts strictly below this split key (the
        // largest possible key for msg = 100_000).
        let split = idx
            .layout()
            .build_key(&[Datum::Int64(1)], &[Datum::Int64(100_000)], 0)
            .unwrap();
        assert!(
            boundaries.iter().any(|b| b.as_slice() < split.as_slice()),
            "no boundary in the low run's range — planned from one run only"
        );
        assert!(
            boundaries.iter().any(|b| b.as_slice() > split.as_slice()),
            "no boundary in the high run's range — planned from one run only"
        );
    }

    /// ROADMAP "adaptive partition counts": the parallel fan-out must not
    /// cut a scan into partitions smaller than `min_partition_rows`.
    #[test]
    fn partition_count_adapts_to_row_estimate() {
        let build = |name: &str, min_rows: u64| {
            let storage = Arc::new(TieredStorage::in_memory());
            let def = Arc::new(
                IndexDef::builder("t")
                    .equality("device", ColumnType::Int64)
                    .sort("msg", ColumnType::Int64)
                    .included("val", ColumnType::Int64)
                    .build()
                    .unwrap(),
            );
            let mut cfg = UmziConfig::two_zone(name);
            cfg.scan.max_scan_partitions = 8;
            cfg.scan.parallel_row_threshold = 1;
            cfg.scan.min_partition_rows = min_rows;
            let idx = UmziIndex::create(storage, def, cfg).unwrap();
            for r in 0..2u64 {
                let entries = (0..6000i64)
                    .map(|m| entry(&idx, ZoneId::GROOMED, 1, m, 10 + r, 0))
                    .collect();
                idx.build_groomed_run(entries, r + 1, r + 1).unwrap();
            }
            idx
        };
        let q = RangeQuery {
            equality: vec![Datum::Int64(1)],
            lower: SortBound::Unbounded,
            upper: SortBound::Unbounded,
            query_ts: u64::MAX,
        };
        // ~12k estimated rows, floor 100k ⇒ adaptive target 1 ⇒ sequential.
        let coarse = build("q-adapt-seq", 100_000);
        coarse
            .range_scan(&q, ReconcileStrategy::PriorityQueue)
            .unwrap();
        assert_eq!(
            coarse.stats().parallel_scans,
            0,
            "tiny scans stay sequential"
        );
        // Floor 3000 ⇒ at most 4 partitions despite the 8-way cap.
        let adaptive = build("q-adapt-4", 3000);
        adaptive
            .range_scan(&q, ReconcileStrategy::PriorityQueue)
            .unwrap();
        let s = adaptive.stats();
        assert_eq!(s.parallel_scans, 1);
        assert!(
            (2..=4).contains(&s.scan_partitions),
            "12k rows / 3k floor must cap fan-out at 4, got {}",
            s.scan_partitions
        );
    }

    /// Skewed batches (every probe in one hot hash bucket, interleaved with
    /// misses) exercise the work-stealing fan-out; results must stay
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
}
