//! Searching a single run (§7.1.1).
//!
//! *"The query first locates the first matching key using binary search with
//! the concatenated lower bound ... If the offset array is available, the
//! initial search range can be narrowed down by computing the most
//! significant n bits of the hash value ... index entries are then iterated
//! until the concatenated upper bound is reached. During the iteration, we
//! further filter out entries failing the timestamp predicate beginTS ≤
//! queryTS. For the remaining entries, we simply return for each key the
//! entry with the largest beginTS, which is straightforward since entries
//! are sorted on the index key and descending order of beginTS."*

use bytes::Bytes;
use umzi_storage::{AccessPattern, READAHEAD_DEPTH};

use crate::entry::EntryRef;
use crate::key::KeyLayout;
use crate::reader::{DataBlock, Run};
use crate::rid::Rid;
use crate::Result;

/// One query result from a single run: the newest visible version of one
/// logical key within that run.
#[derive(Debug, Clone)]
pub struct SearchHit {
    /// Full entry key.
    pub key: Bytes,
    /// Entry value (`RID ∥ included`).
    pub value: Bytes,
    /// The version timestamp.
    pub begin_ts: u64,
}

impl SearchHit {
    /// The logical key (shared by all versions of one record).
    pub fn logical_key(&self) -> &[u8] {
        KeyLayout::logical_key(&self.key)
    }

    /// Decode the RID.
    pub fn rid(&self) -> Result<Rid> {
        Rid::decode(&self.value)
    }
}

/// Search operations over one opened run.
pub struct RunSearcher<'a> {
    run: &'a Run,
}

impl<'a> RunSearcher<'a> {
    /// Wrap a run.
    pub fn new(run: &'a Run) -> Self {
        Self { run }
    }

    /// Ordinal of the first entry whose key is ≥ `target`, within the
    /// offset-array bucket if a hint is given (the hint must be the bucket
    /// of the *query's hash value*; see [`Run::bucket_range`]). Returns
    /// `entry_count` when no such entry exists.
    ///
    /// Fast path: the run's in-memory fence index picks the single data
    /// block that can hold the answer, and the block's offset trailer is
    /// binary-searched in place — at most one block fetch, versus one per
    /// probe for [`Self::find_first_geq_scalar`]. Because the run is sorted
    /// on full keys, the bucket-narrowed answer is the global answer clamped
    /// into the bucket's ordinal range.
    pub fn find_first_geq(&self, target: &[u8], bucket: Option<u32>) -> Result<u64> {
        let (lo, hi) = self.run.bucket_range(bucket);
        Ok(self.run.locate_first_geq(target)?.clamp(lo, hi))
    }

    /// Reference implementation of [`Self::find_first_geq`]: binary search
    /// over entry ordinals, fetching a data block per probe. Kept as the
    /// brute-force reference of `prop_fence.rs` and `read_path_stats.rs`.
    pub fn find_first_geq_scalar(&self, target: &[u8], bucket: Option<u32>) -> Result<u64> {
        let (mut lo, mut hi) = self.run.bucket_range(bucket);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let e = self.run.entry(mid)?;
            if e.key.as_ref() < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Stream the newest visible version of each logical key in
    /// `[lower, upper)` (byte bounds from [`KeyLayout::query_range`]),
    /// every block fetch — positioning included — labelled as range-scan
    /// traffic for the RAM tier's scan-resistant replacement.
    ///
    /// Both bounds resolve to *ordinals* up front through the fence index —
    /// one block fetch each — so iteration advances block-by-block with no
    /// per-entry `locate()` binary search and no per-entry upper-bound key
    /// comparison, and an empty range is detected without fetching any
    /// block beyond the positioning ones. The iterator keeps neither bound.
    pub fn scan(
        &self,
        lower: &[u8],
        upper: Option<&[u8]>,
        bucket: Option<u32>,
        query_ts: u64,
    ) -> Result<RunRangeIter<'a>> {
        let (blo, bhi) = self.run.bucket_range(bucket);
        let start = self
            .run
            .locate_first_geq_as(lower, AccessPattern::RangeScan)?
            .clamp(blo, bhi);
        // Keys are globally sorted, so every entry below the upper bound
        // sits below its first-geq ordinal: the key comparison the iterator
        // used to do per entry collapses into this single fence jump.
        // Unbounded scans stop at the bucket (or run) end as before.
        let end = match upper {
            Some(u) if start < self.run.entry_count() => {
                self.run.locate_first_geq_as(u, AccessPattern::RangeScan)?
            }
            Some(_) => start,
            None => bhi,
        };
        Ok(RunRangeIter {
            run: self.run,
            ordinal: start,
            end,
            query_ts,
            cur_block: None,
            block_base: 0,
            last_group: Vec::new(),
            group_done: false,
            done: false,
            prefetched_until: 0,
        })
    }

    /// Point lookup: the newest visible version of one logical key.
    /// `logical_prefix` is the full `hash ∥ eq ∥ sort` prefix. A fresh
    /// [`ProbeCursor`] and one probe: the fence index picks the one block
    /// that can hold the key's newest version, so a lookup fetches **one**
    /// block (a second only when the key's versions run on into the next
    /// block, which includes a key that opens a block). `_bucket` is
    /// accepted for callers that have it at hand and is not consulted — the
    /// fence index is already finer than the offset array.
    pub fn lookup(
        &self,
        logical_prefix: &[u8],
        _bucket: Option<u32>,
        query_ts: u64,
    ) -> Result<Option<SearchHit>> {
        ProbeCursor::new(self.run, query_ts, AccessPattern::PointLookup).probe(logical_prefix)
    }
}

/// Forward cursor for exact-key probes in one run — the only place an exact
/// key's versions are walked. It holds the data block the last probe ended
/// in, so a batch of probes fed in ascending key order (§7.2: *"we first
/// sort the input keys ... to improve search efficiency"*) is one pass over
/// the run: a probe whose key still falls in the held block costs no fetch
/// and two fence comparisons; otherwise the fence index is galloped forward
/// from the held block ([`Run::probe_block_from`]) and **one** block is
/// fetched. A probe behind the cursor is still answered correctly, by a
/// full fence search.
pub struct ProbeCursor<'a> {
    run: &'a Run,
    query_ts: u64,
    /// Cache hint for every block this cursor fetches.
    pattern: AccessPattern,
    /// The held block and its number.
    cur: Option<(u32, DataBlock)>,
}

impl<'a> ProbeCursor<'a> {
    /// A cursor before the run's first block, answering at snapshot
    /// `query_ts`.
    pub fn new(run: &'a Run, query_ts: u64, pattern: AccessPattern) -> Self {
        Self {
            run,
            query_ts,
            pattern,
            cur: None,
        }
    }

    /// Block loads are cooperative cancellation checkpoints. A block with no
    /// verified RAM entry is reported to `on_miss` before the tier read
    /// ([`Run::decoded_block`], then [`Run::fetch_block`]).
    fn load(&mut self, b: u32, on_miss: &mut impl FnMut(u32)) -> Result<&DataBlock> {
        umzi_storage::context::check_current("run_probe_block")?;
        let block = match self.run.decoded_block(b, self.pattern) {
            Some(block) => block,
            None => {
                on_miss(b);
                self.run.fetch_block(b, self.pattern)?
            }
        };
        Ok(&self.cur.insert((b, block)).1)
    }

    /// The newest version of the logical key `prefix` (the full
    /// `hash ∥ eq ∥ sort` bytes) with `beginTS ≤ queryTS`, if this run holds
    /// one.
    pub fn probe(&mut self, prefix: &[u8]) -> Result<Option<SearchHit>> {
        self.probe_staging(prefix, |_| {})
    }

    /// [`Self::probe`], calling `on_miss(b)` whenever block `b` has no
    /// verified RAM entry, just before the block is read from the tiers:
    /// the one point where a caller learns, at no extra cache lookup, that
    /// this probe may wait on IO, and can stage other blocks to share the
    /// wait.
    pub fn probe_staging(
        &mut self,
        prefix: &[u8],
        mut on_miss: impl FnMut(u32),
    ) -> Result<Option<SearchHit>> {
        umzi_storage::context::check_current("run_probe")?;
        let (fences, query_ts) = (self.run.fence_keys()?, self.query_ts);
        if fences.is_empty() {
            return Ok(None);
        }
        // The first entry ≥ `prefix` lies in the last block whose fence is
        // < `prefix` (block 0 when there is none) or opens the block after.
        // An ascending probe gallops forward from the held block.
        let target = match &self.cur {
            Some((c, _)) => self.run.probe_block_from(*c, prefix),
            None => self.run.probe_block(prefix),
        }
        .expect("fences are non-empty");
        let mut block = match &self.cur {
            Some((c, block)) if *c == target => block,
            _ => self.load(target, &mut on_miss)?,
        };
        let mut b = target;
        let mut slot = block.partition_point_geq(prefix)?;
        loop {
            if slot == block.entry_count() {
                // Versions may straddle the block boundary; the next fence
                // says so from memory, so a miss never costs a second fetch.
                b += 1;
                match fences.get(b as usize) {
                    Some(f) if KeyLayout::logical_key(f) == prefix => {
                        block = self.load(b, &mut on_miss)?;
                        slot = 0;
                    }
                    _ => return Ok(None),
                }
            }
            let key = block.key_at(slot)?;
            if KeyLayout::logical_key(key) != prefix {
                return Ok(None);
            }
            let begin_ts = KeyLayout::begin_ts_of(key)?;
            if begin_ts <= query_ts {
                let entry = block.entry(slot)?;
                return Ok(Some(SearchHit {
                    key: entry.key,
                    value: entry.value,
                    begin_ts,
                }));
            }
            // Newer than the snapshot: try the next (older) version.
            slot += 1;
        }
    }
}

/// Streaming iterator over one run's matches; yields at most one (the
/// newest visible) version per logical key. Both range bounds were resolved
/// to ordinals at construction, so iteration is pure forward movement: the
/// current block is held and advanced block-by-block, with no per-entry
/// `locate()` and no per-entry bound comparison.
pub struct RunRangeIter<'a> {
    run: &'a Run,
    ordinal: u64,
    /// First ordinal past the range (upper bound resolved via the fence
    /// index, or the bucket/run end for unbounded scans).
    end: u64,
    query_ts: u64,
    cur_block: Option<(u32, DataBlock)>,
    /// Ordinal of `cur_block`'s first entry.
    block_base: u64,
    last_group: Vec<u8>,
    group_done: bool,
    done: bool,
    /// First block number not yet requested for readahead, so overlapping
    /// triggers never re-request a block this iterator already asked for.
    prefetched_until: u32,
}

impl<'a> RunRangeIter<'a> {
    /// Refill the readahead pipeline when it has drained: stage the next
    /// [`READAHEAD_DEPTH`] blocks past `cur` in one batch, never past the
    /// scan's last block. Refilling only on a drained pipeline keeps every
    /// batch at full depth — one batched (concurrently issued) fetch per
    /// `depth` consumed blocks, instead of degrading to one single-block
    /// batch per step once primed. The window goes to
    /// [`TieredStorage::prefetch_objects`](umzi_storage::TieredStorage::prefetch_objects),
    /// which drops its local blocks and whose guards decide whether
    /// anything is staged. Advisory: a failed
    /// batch is dropped — the demand path fetches (and retries)
    /// synchronously — so readahead can never poison the iterator.
    fn maybe_readahead(&mut self, cur: u32) {
        if self.end == 0 {
            return;
        }
        let next = cur.saturating_add(1);
        if next < self.prefetched_until {
            return; // staged blocks remain ahead of the consumer
        }
        // Last block the scan can touch, from the in-memory prefix counts.
        let Ok((last, _)) = self.run.locate(self.end - 1) else {
            return;
        };
        let from = next.max(self.prefetched_until);
        let to = last.min(cur.saturating_add(READAHEAD_DEPTH));
        if from > to {
            return;
        }
        self.prefetched_until = to + 1;
        let run = self.run;
        let chunks = (from..=to).map(|b| run.block_chunk(b)).collect();
        run.storage().prefetch_objects(&[(run.handle(), chunks)]);
    }

    fn fetch(&mut self, ordinal: u64) -> Result<EntryRef> {
        loop {
            if let Some((b, block)) = &self.cur_block {
                let n_in_block = u64::from(block.entry_count());
                if (self.block_base..self.block_base + n_in_block).contains(&ordinal) {
                    return block.entry((ordinal - self.block_base) as u16);
                }
                if ordinal == self.block_base + n_in_block && b + 1 < self.run.data_block_count() {
                    // Sequential advance: step into the next block without
                    // re-deriving the position. Block boundaries are the
                    // scan's cooperative cancellation checkpoints.
                    umzi_storage::context::check_current("run_block_advance")?;
                    // Top the readahead pipeline up first so the fetch
                    // below finds its block staged.
                    let next = b + 1;
                    self.block_base += n_in_block;
                    self.maybe_readahead(next);
                    let block = self.run.data_block_as(next, AccessPattern::RangeScan)?;
                    self.cur_block = Some((next, block));
                    continue;
                }
            }
            // First positioning (or a non-sequential jump): one locate().
            umzi_storage::context::check_current("run_block_position")?;
            let (b, slot) = self.run.locate(ordinal)?;
            self.block_base = ordinal - u64::from(slot);
            self.maybe_readahead(b);
            let block = self.run.data_block_as(b, AccessPattern::RangeScan)?;
            self.cur_block = Some((b, block));
        }
    }
}

impl Iterator for RunRangeIter<'_> {
    type Item = Result<SearchHit>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if self.ordinal >= self.end || self.ordinal >= self.run.entry_count() {
                self.done = true;
                return None;
            }
            let entry = match self.fetch(self.ordinal) {
                Ok(e) => e,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            self.ordinal += 1;

            let logical = entry.logical_key();
            if logical == self.last_group.as_slice() {
                if self.group_done {
                    continue; // newest visible version already emitted
                }
            } else {
                self.last_group.clear();
                self.last_group.extend_from_slice(logical);
                self.group_done = false;
            }

            let begin_ts = match entry.begin_ts() {
                Ok(ts) => ts,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            if begin_ts <= self.query_ts {
                self.group_done = true;
                return Some(Ok(SearchHit {
                    key: entry.key,
                    value: entry.value,
                    begin_ts,
                }));
            }
            // Version newer than the snapshot: try the next (older) version
            // of the same logical key.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RunBuilder, RunParams};
    use crate::entry::IndexEntry;
    use crate::key::SortBound;
    use crate::rid::{Rid, ZoneId};
    use std::sync::Arc;
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_storage::{Durability, TieredStorage};

    fn layout() -> KeyLayout {
        let def = IndexDef::builder("iot")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap();
        KeyLayout::new(Arc::new(def))
    }

    /// Build a run from (device, msg, beginTS) rows.
    fn build(storage: &Arc<TieredStorage>, rows: &[(i64, i64, u64)], name: &str) -> Run {
        let l = layout();
        let mut entries: Vec<IndexEntry> = rows
            .iter()
            .enumerate()
            .map(|(i, &(d, m, ts))| {
                IndexEntry::new(
                    &l,
                    &[Datum::Int64(d)],
                    &[Datum::Int64(m)],
                    ts,
                    Rid::new(ZoneId::GROOMED, i as u64, 0),
                    &[],
                )
                .unwrap()
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut b = RunBuilder::new(
            l,
            RunParams {
                run_id: 1,
                zone: ZoneId::GROOMED,
                level: 0,
                groomed_lo: 0,
                groomed_hi: 0,
                psn: 0,
                offset_bits: 3, // as in Figure 2
                ancestors: vec![],
            },
            storage.chunk_size(),
        );
        for e in &entries {
            b.push(e).unwrap();
        }
        b.finish(storage, name, Durability::Persisted, true)
            .unwrap()
    }

    fn scan_pairs(run: &Run, device: i64, lo: i64, hi: i64, ts: u64) -> Vec<(i64, i64, u64)> {
        let l = layout();
        let (lower, upper) = l
            .query_range(
                &[Datum::Int64(device)],
                &SortBound::Included(vec![Datum::Int64(lo)]),
                &SortBound::Included(vec![Datum::Int64(hi)]),
            )
            .unwrap();
        let bucket = l
            .hash_equality(&[Datum::Int64(device)])
            .map(|h| umzi_encoding::hash_prefix(h, run.header().offset_bits))
            .ok();
        let searcher = RunSearcher::new(run);
        searcher
            .scan(&lower, upper.as_deref(), bucket, ts)
            .unwrap()
            .map(|r| {
                let hit = r.unwrap();
                let cols = l.decode_key_columns(&hit.key).unwrap();
                (
                    cols[0].as_i64().unwrap(),
                    cols[1].as_i64().unwrap(),
                    hit.begin_ts,
                )
            })
            .collect()
    }

    /// The paper's §7.1.1 worked example (Figure 2): device = 4,
    /// 1 ≤ msg ≤ 3, queryTS = 100 returns exactly the (4, 1, 97) version.
    #[test]
    fn figure_2_example() {
        let storage = Arc::new(TieredStorage::in_memory());
        let rows = [
            (1, 1, 100),
            (8, 2, 101),
            (4, 1, 97),
            (4, 1, 94),
            (4, 2, 102),
            (5, 1, 97),
            (3, 0, 103),
            (3, 1, 104),
        ];
        let run = build(&storage, &rows, "runs/fig2");
        assert_eq!(scan_pairs(&run, 4, 1, 3, 100), vec![(4, 1, 97)]);
        // With queryTS = 102 the (4,2) version becomes visible.
        assert_eq!(
            scan_pairs(&run, 4, 1, 3, 102),
            vec![(4, 1, 97), (4, 2, 102)]
        );
        // queryTS below every version: nothing.
        assert_eq!(scan_pairs(&run, 4, 1, 3, 90), vec![]);
    }

    #[test]
    fn newest_visible_version_wins() {
        let storage = Arc::new(TieredStorage::in_memory());
        let rows = [(7, 1, 10), (7, 1, 20), (7, 1, 30)];
        let run = build(&storage, &rows, "runs/v");
        assert_eq!(scan_pairs(&run, 7, 0, 9, 100), vec![(7, 1, 30)]);
        assert_eq!(scan_pairs(&run, 7, 0, 9, 25), vec![(7, 1, 20)]);
        assert_eq!(scan_pairs(&run, 7, 0, 9, 10), vec![(7, 1, 10)]);
        assert_eq!(scan_pairs(&run, 7, 0, 9, 9), vec![]);
    }

    #[test]
    fn point_lookup() {
        let storage = Arc::new(TieredStorage::in_memory());
        let rows = [(4, 1, 97), (4, 1, 94), (4, 2, 102), (5, 1, 97)];
        let run = build(&storage, &rows, "runs/pl");
        let l = layout();
        let searcher = RunSearcher::new(&run);

        let prefix = {
            let mut p = l.equality_prefix(&[Datum::Int64(4)]).unwrap();
            umzi_encoding::encode_datum(&Datum::Int64(1), &mut p);
            p
        };
        let bucket = l
            .hash_equality(&[Datum::Int64(4)])
            .map(|h| umzi_encoding::hash_prefix(h, run.header().offset_bits))
            .ok();
        let hit = searcher.lookup(&prefix, bucket, 100).unwrap().unwrap();
        assert_eq!(hit.begin_ts, 97);

        // Missing key.
        let missing = {
            let mut p = l.equality_prefix(&[Datum::Int64(4)]).unwrap();
            umzi_encoding::encode_datum(&Datum::Int64(99), &mut p);
            p
        };
        assert!(searcher.lookup(&missing, bucket, 100).unwrap().is_none());
    }

    /// Exhaustive comparison against a naive oracle across range and ts.
    #[test]
    fn scan_matches_oracle() {
        let storage = Arc::new(TieredStorage::in_memory());
        // Deterministic pseudo-random rows: 40 devices × versions.
        let mut rows = Vec::new();
        let mut x = 12345u64;
        for i in 0..800i64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let device = (x >> 33) as i64 % 8;
            let msg = (x >> 17) as i64 % 10;
            let ts = 1 + (i as u64 % 50);
            rows.push((device, msg, ts));
        }
        let run = build(&storage, &rows, "runs/oracle");

        for device in 0..8i64 {
            for ts in [0u64, 10, 25, 50, 100] {
                let got = scan_pairs(&run, device, 2, 7, ts);
                // Oracle: group by (device, msg), max beginTS ≤ ts.
                let mut best: std::collections::BTreeMap<i64, u64> = Default::default();
                for &(d, m, t) in &rows {
                    if d == device && (2..=7).contains(&m) && t <= ts {
                        let e = best.entry(m).or_insert(0);
                        *e = (*e).max(t);
                    }
                }
                let want: Vec<(i64, i64, u64)> =
                    best.into_iter().map(|(m, t)| (device, m, t)).collect();
                assert_eq!(got, want, "device={device} ts={ts}");
            }
        }
    }

    /// The newest visible version of every logical key in device `device`
    /// with `lo ≤ msg ≤ hi`, read entry by entry through [`Run::entry`] —
    /// no iterator, no readahead, no bound resolution.
    fn brute_force(run: &Run, device: i64, lo: i64, hi: i64, ts: u64) -> Vec<(i64, i64, u64)> {
        let l = layout();
        let mut best: std::collections::BTreeMap<i64, u64> = Default::default();
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            let cols = l.decode_key_columns(&e.key).unwrap();
            let (d, m) = (cols[0].as_i64().unwrap(), cols[1].as_i64().unwrap());
            let t = e.begin_ts().unwrap();
            if d == device && (lo..=hi).contains(&m) && t <= ts {
                let v = best.entry(m).or_insert(0);
                *v = (*v).max(t);
            }
        }
        best.into_iter().map(|(m, t)| (device, m, t)).collect()
    }

    /// A cold scan — served by batched readahead instead of one stall per
    /// block — returns exactly what reading the run entry by entry returns,
    /// and the storage counters attribute the staged blocks.
    #[test]
    fn readahead_scan_is_equivalent_and_attributed() {
        let cfg = umzi_storage::TieredConfig {
            chunk_size: 256,
            ..umzi_storage::TieredConfig::default()
        };
        let storage = Arc::new(TieredStorage::new(
            umzi_storage::SharedStorage::in_memory(),
            cfg,
        ));
        let rows: Vec<(i64, i64, u64)> = (0..400).map(|m| (3, m, 10 + (m as u64 % 3))).collect();
        let run = build(&storage, &rows, "runs/ra");
        assert!(run.data_block_count() > 6, "need several blocks");
        let want = brute_force(&run, 3, 0, 399, 11);
        assert_eq!(want.len(), 267, "msgs with beginTS 12 are invisible");

        // Purge drops the local copies; the cold scan streams batched
        // prefetches back in instead of stalling per block.
        storage.purge_object(run.handle()).unwrap();
        assert_eq!(scan_pairs(&run, 3, 0, 399, 11), want);
        let s = storage.stats();
        assert!(s.blocks_prefetched > 0, "scan staged blocks: {s:?}");
        assert!(s.prefetch_hits > 0, "staged blocks served reads: {s:?}");
    }

    /// Readahead is on for every range scan: a cold scan over a hierarchy
    /// built from `TieredConfig::default()` stages blocks ahead of demand.
    #[test]
    fn default_config_cold_scan_prefetches() {
        let storage = Arc::new(TieredStorage::new(
            umzi_storage::SharedStorage::in_memory(),
            umzi_storage::TieredConfig::default(),
        ));
        let rows: Vec<(i64, i64, u64)> = (0..3000).map(|m| (3, m, 10)).collect();
        let run = build(&storage, &rows, "runs/default-ra");
        assert!(run.data_block_count() > 6, "need several blocks");
        storage.purge_object(run.handle()).unwrap();
        assert_eq!(scan_pairs(&run, 3, 0, 2999, 100).len(), 3000);
        let s = storage.stats();
        assert!(
            s.blocks_prefetched > 0,
            "default config must read ahead: {s:?}"
        );
        assert_eq!(s.prefetch_hits, s.blocks_prefetched, "{s:?}");
    }

    /// A bounded cold scan reads ahead only inside its own range: every
    /// staged block is consumed and nothing past the scan's last block is
    /// brought into the local tiers.
    #[test]
    fn bounded_cold_scan_never_reads_past_its_last_block() {
        let cfg = umzi_storage::TieredConfig {
            chunk_size: 256,
            ..umzi_storage::TieredConfig::default()
        };
        let storage = Arc::new(TieredStorage::new(
            umzi_storage::SharedStorage::in_memory(),
            cfg,
        ));
        let rows: Vec<(i64, i64, u64)> = (0..2000).map(|m| (3, m, 10)).collect();
        let run = build(&storage, &rows, "runs/bounded-ra");
        let want = brute_force(&run, 3, 500, 599, 100);
        assert_eq!(want.len(), 100);
        // Ordinal of the scan's last entry: rows are one device, msg-ordered.
        let (last_block, _) = run.locate(599).unwrap();
        assert!(
            last_block + READAHEAD_DEPTH < run.data_block_count(),
            "the run must extend a full readahead batch past the scan"
        );

        storage.purge_object(run.handle()).unwrap();
        assert_eq!(scan_pairs(&run, 3, 500, 599, 100), want);
        let s = storage.stats();
        assert!(s.blocks_prefetched > 0, "{s:?}");
        assert_eq!(
            s.prefetch_hits, s.blocks_prefetched,
            "unused readahead: {s:?}"
        );
        assert_eq!(s.prefetch_wasted, 0);
        let first_chunk_past = run.header().header_chunks + last_block + 1;
        let chunks = storage.chunk_count(run.handle()).unwrap();
        for chunk in first_chunk_past..chunks {
            let key = (run.handle().raw(), chunk);
            assert!(
                !storage.ssd_tier().contains(key) && !storage.mem_tier().contains(key),
                "chunk {chunk} lies past the scan's last block {last_block}"
            );
        }
    }

    #[test]
    fn empty_run_scans_empty() {
        let storage = Arc::new(TieredStorage::in_memory());
        let run = build(&storage, &[], "runs/empty");
        assert_eq!(scan_pairs(&run, 1, 0, 100, u64::MAX), vec![]);
        let searcher = RunSearcher::new(&run);
        assert_eq!(searcher.find_first_geq(b"anything", None).unwrap(), 0);
    }
}
