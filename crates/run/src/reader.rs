//! Opening and reading index runs.
//!
//! A [`Run`] is an immutable, opened view of one run object. Entry access is
//! by *ordinal*: the header's per-block entry-count prefix sums map an
//! ordinal to `(block, slot)`, the block's offset trailer maps the slot to
//! the entry bytes. All block reads go through the tiered storage, so cache
//! residency (memory / SSD / shared) is transparent here and visible only in
//! latency and statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use umzi_encoding::hash64;
use umzi_storage::{AccessPattern, ObjectHandle, TieredStorage};

use crate::entry::EntryRef;
use crate::error::RunError;
use crate::format::RunHeader;
use crate::key::KeyLayout;
use crate::rid::ZoneId;
use crate::Result;

/// An opened, immutable index run.
pub struct Run {
    storage: Arc<TieredStorage>,
    handle: ObjectHandle,
    header: RunHeader,
    layout: KeyLayout,
    name: String,
    /// Merge-policy state (§5.3): the most recent run of a level is *active*
    /// until it grows past the seal threshold. Not persisted — re-derived on
    /// recovery from run sizes.
    sealed: AtomicBool,
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("name", &self.name)
            .field("run_id", &self.header.run_id)
            .field("zone", &self.header.zone)
            .field("level", &self.header.level)
            .field(
                "groomed",
                &(self.header.groomed_lo..=self.header.groomed_hi),
            )
            .field("entries", &self.header.entry_count)
            .field("sealed", &self.sealed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Run {
    /// Open a run by object name, validating the header and definition
    /// fingerprint. The parsed header — fence index, block prefix counts,
    /// checksums, synopsis, offset array — lives in RAM for the run's
    /// lifetime, so no read after this one touches a header chunk.
    pub fn open(storage: Arc<TieredStorage>, name: &str, layout: KeyLayout) -> Result<Run> {
        // Opening pins the first chunk only. It tells the full header size;
        // a longer header is read once through the tiers and then parsed.
        let handle = storage.open_object(name, 1)?;
        let first = storage.read_chunk(handle, 0)?;
        let header_len = RunHeader::peek_len(&first)?;
        let header = if header_len <= first.len() {
            RunHeader::deserialize(&first)?
        } else {
            let full = storage.read_range(handle, 0, header_len)?;
            RunHeader::deserialize(&full)?
        };
        if header.index_fingerprint != layout.def().fingerprint() {
            return Err(RunError::DefinitionMismatch {
                stored: header.index_fingerprint,
                opened_with: layout.def().fingerprint(),
            });
        }
        Ok(Run {
            storage,
            handle,
            header,
            layout,
            name: name.to_owned(),
            sealed: AtomicBool::new(false),
        })
    }

    /// Construct from already-known parts (builder fast path).
    pub(crate) fn from_parts(
        storage: Arc<TieredStorage>,
        handle: ObjectHandle,
        header: RunHeader,
        layout: KeyLayout,
        name: &str,
    ) -> Run {
        Run {
            storage,
            handle,
            header,
            layout,
            name: name.to_owned(),
            sealed: AtomicBool::new(false),
        }
    }

    /// The parsed header.
    pub fn header(&self) -> &RunHeader {
        &self.header
    }

    /// Object name in storage.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Storage handle.
    pub fn handle(&self) -> ObjectHandle {
        self.handle
    }

    /// The key layout / index definition this run serves.
    pub fn layout(&self) -> &KeyLayout {
        &self.layout
    }

    /// Run ID.
    pub fn run_id(&self) -> u64 {
        self.header.run_id
    }

    /// Zone.
    pub fn zone(&self) -> ZoneId {
        self.header.zone
    }

    /// Merge level.
    pub fn level(&self) -> u32 {
        self.header.level
    }

    /// Covered groomed-block-ID range `(lo, hi)`.
    pub fn groomed_range(&self) -> (u64, u64) {
        (self.header.groomed_lo, self.header.groomed_hi)
    }

    /// Number of entries.
    pub fn entry_count(&self) -> u64 {
        self.header.entry_count
    }

    /// Number of data blocks.
    pub fn data_block_count(&self) -> u32 {
        self.header.n_data_blocks
    }

    /// Total object size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.storage.object_len(self.handle).unwrap_or(0)
    }

    /// Whether this run is sealed (inactive) for merge-policy purposes.
    pub fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }

    /// Seal the run (it stops being the level's active run).
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Release);
    }

    /// The storage hierarchy.
    pub fn storage(&self) -> &Arc<TieredStorage> {
        &self.storage
    }

    /// Fetch data block `b` (0-based) for point-lookup traffic. See
    /// [`Self::data_block_as`] for the general, hinted form.
    pub fn data_block(&self, b: u32) -> Result<DataBlock> {
        self.data_block_as(b, AccessPattern::PointLookup)
    }

    /// Verify that the run's object actually holds every data block the
    /// header promises. A torn put lands a strict prefix of the object: the
    /// header (written first) can deserialize cleanly while the data tail is
    /// missing or truncated. Since a tear only ever removes a suffix,
    /// checking that the chunk count matches and that the **last** block
    /// parses (and passes its checksum, when present) is a complete
    /// tear-detection probe. Recovery calls this before trusting a run.
    pub fn verify_tail(&self) -> Result<()> {
        let n = self.header.n_data_blocks;
        if n == 0 {
            return Ok(());
        }
        let expected = self.header.header_chunks + n;
        let actual = self.storage.chunk_count(self.handle)?;
        if actual < expected {
            return Err(RunError::Corrupt {
                context: format!(
                    "run {}: object truncated to {actual} chunks, header requires {expected} \
                     ({} header + {n} data blocks)",
                    self.name, self.header.header_chunks
                ),
            });
        }
        self.data_block_as(n - 1, AccessPattern::Maintenance)
            .map(|_| ())
    }

    /// Fetch data block `b` (0-based): a verified RAM entry first, then the
    /// chunk hierarchy plus a checksum and a parse (marking the entry
    /// verified). The access-pattern hint steers the RAM tier's
    /// scan-resistant replacement: point lookups may promote into the
    /// protected segment, range scans stay probation-only, maintenance
    /// sweeps are never admitted.
    pub fn data_block_as(&self, b: u32, pattern: AccessPattern) -> Result<DataBlock> {
        self.decoded_block(b, pattern)
            .map_or_else(|| self.fetch_block(b, pattern), Ok)
    }

    /// The RAM half of a block read: block `b` if RAM holds it verified.
    /// One [`umzi_storage::RamTier::get`], so a hit or miss is counted
    /// exactly once and a hit costs no checksum; on `None` the caller
    /// completes the read with [`Self::fetch_block`].
    pub(crate) fn decoded_block(&self, b: u32, pattern: AccessPattern) -> Option<DataBlock> {
        let key = (self.handle.raw(), self.block_chunk(b));
        let data = self.storage.mem_tier().get(key, pattern)?;
        // Verified bytes parsed once already, before they were marked.
        DataBlock::parse(data).ok()
    }

    /// The chunk number of data block `b` within the run's object.
    pub fn block_chunk(&self, b: u32) -> u32 {
        self.header.header_chunks + b
    }

    /// The data block a probe for the logical key `prefix` reads first: the
    /// last block whose fence is below `prefix` (block 0 when none is), from
    /// the in-memory fence index. `None` for a run with no data blocks.
    pub fn probe_block(&self, prefix: &[u8]) -> Option<u32> {
        let fences = &self.header.fence_keys;
        (!fences.is_empty()).then(|| {
            fences
                .partition_point(|f| f.as_slice() < prefix)
                .saturating_sub(1) as u32
        })
    }

    /// [`Self::probe_block`] for a probe at or past block `from` (`from` is
    /// 0, or its fence is below `prefix`), galloped forward from `from`:
    /// doubling steps while the fence is still below the probe, then a
    /// binary search in the gap. A probe `d` blocks ahead costs `O(log d)`
    /// fence comparisons, so a stream of ascending probes is one pass over
    /// the fences. A probe behind `from` gets the full search.
    pub fn probe_block_from(&self, from: u32, prefix: &[u8]) -> Option<u32> {
        let fences = &self.header.fence_keys;
        let mut lo = from as usize;
        if lo >= fences.len() || (lo > 0 && fences[lo].as_slice() >= prefix) {
            return self.probe_block(prefix);
        }
        let mut step = 1;
        while lo + step < fences.len() && fences[lo + step].as_slice() < prefix {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step).min(fences.len());
        Some((lo + fences[lo + 1..hi].partition_point(|f| f.as_slice() < prefix)) as u32)
    }

    /// The tier half of a block read: block `b` through
    /// [`TieredStorage::read_chunk`] (an unverified RAM copy, the SSD, then
    /// shared storage), checksum-verified, parsed, and marked verified in
    /// RAM under `pattern`. Never asks for a verified entry. The one place
    /// a block is verified: a block staged ahead of demand
    /// ([`TieredStorage::prefetch_objects`]) waits unverified until this
    /// read consumes it.
    pub(crate) fn fetch_block(&self, b: u32, pattern: AccessPattern) -> Result<DataBlock> {
        if b >= self.header.n_data_blocks {
            return Err(RunError::Corrupt {
                context: format!(
                    "block {b} out of range ({} blocks)",
                    self.header.n_data_blocks
                ),
            });
        }
        let chunk_no = self.block_chunk(b);
        let chunk = self.storage.read_chunk(self.handle, chunk_no)?;
        let chunk = self.verify_block_checksum(b, chunk_no, chunk)?;
        let block = DataBlock::parse(chunk)?;
        let ram = self.storage.mem_tier();
        ram.verify((self.handle.raw(), chunk_no), block.data.clone(), pattern);
        Ok(block)
    }

    /// Corruption containment for one fetched data block: verify the raw
    /// bytes against the header's persisted `hash64`. On a mismatch the
    /// poisoned chunk is evicted from every cache tier and re-fetched from
    /// shared storage **once** — a flipped bit in a cache or on the local
    /// SSD heals transparently — before the read fails as
    /// [`RunError::Corrupt`] with the run name and block number.
    fn verify_block_checksum(&self, b: u32, chunk_no: u32, chunk: Bytes) -> Result<Bytes> {
        let expected = self.header.block_checksums[b as usize];
        if hash64(&chunk) == expected {
            return Ok(chunk);
        }
        let reread = self
            .storage
            .reread_chunk_from_shared(self.handle, chunk_no)?;
        if hash64(&reread) == expected {
            return Ok(reread);
        }
        Err(RunError::Corrupt {
            context: format!(
                "run {} data block {b}: checksum mismatch persists after refetch \
                 (expected {expected:#018x}, got {:#018x})",
                self.name,
                hash64(&reread)
            ),
        })
    }

    /// Map an entry ordinal to `(block index, slot within block)`.
    pub fn locate(&self, ordinal: u64) -> Result<(u32, u16)> {
        if ordinal >= self.header.entry_count {
            return Err(RunError::Corrupt {
                context: format!(
                    "ordinal {ordinal} out of range ({} entries)",
                    self.header.entry_count
                ),
            });
        }
        let counts = &self.header.block_prefix_counts;
        let b = counts.partition_point(|&c| c <= ordinal);
        let base = if b == 0 { 0 } else { counts[b - 1] };
        Ok((b as u32, (ordinal - base) as u16))
    }

    /// Read the entry at `ordinal`.
    pub fn entry(&self, ordinal: u64) -> Result<EntryRef> {
        let (b, slot) = self.locate(ordinal)?;
        let block = self.data_block(b)?;
        block.entry(slot)
    }

    /// The fence index: `fence_keys()[b]` is the full key of the first
    /// entry in block `b`, served from the header.
    pub fn fence_keys(&self) -> Result<&[Vec<u8>]> {
        Ok(&self.header.fence_keys)
    }

    /// Ordinal of the first entry whose key is ≥ `target` across the whole
    /// run (`entry_count` when none), as point-lookup traffic. See
    /// [`Self::locate_first_geq_as`].
    pub fn locate_first_geq(&self, target: &[u8]) -> Result<u64> {
        self.locate_first_geq_as(target, AccessPattern::PointLookup)
    }

    /// Ordinal of the first entry whose key is ≥ `target` across the whole
    /// run (`entry_count` when none). Touches at most **one** data block:
    /// the fence index selects the candidate block, then the block's offset
    /// trailer is binary-searched in place. The pattern hint labels that
    /// block fetch for the RAM tier.
    pub fn locate_first_geq_as(&self, target: &[u8], pattern: AccessPattern) -> Result<u64> {
        if self.header.entry_count == 0 {
            return Ok(0);
        }
        let fences = self.fence_keys()?;
        // First block whose first key is ≥ target; the answer is either the
        // start of that block or inside the block before it.
        let pb = fences.partition_point(|f| f.as_slice() < target);
        if pb == 0 {
            return Ok(0);
        }
        // Exact fence hit: the answer is the start of block `pb`, already
        // known from the in-memory prefix counts — no block read.
        if pb < fences.len() && fences[pb].as_slice() == target {
            return Ok(self.header.block_prefix_counts[pb - 1]);
        }
        let b = (pb - 1) as u32;
        let base = if b == 0 {
            0
        } else {
            self.header.block_prefix_counts[b as usize - 1]
        };
        let block = self.data_block_as(b, pattern)?;
        Ok(base + u64::from(block.partition_point_geq(target)?))
    }

    /// The binary-search range `[lo, hi)` for a hash bucket, from the offset
    /// array; the whole run when there is no offset array.
    pub fn bucket_range(&self, bucket: Option<u32>) -> (u64, u64) {
        match (bucket, self.header.offset_bits) {
            (Some(bkt), bits) if bits > 0 => {
                let oa = &self.header.offset_array;
                let lo = oa[bkt as usize];
                let hi = oa
                    .get(bkt as usize + 1)
                    .copied()
                    .unwrap_or(self.header.entry_count);
                (lo, hi)
            }
            _ => (0, self.header.entry_count),
        }
    }
}

/// A parsed data block: entries at the front, `u16` offset trailer at the
/// back.
#[derive(Debug, Clone)]
pub struct DataBlock {
    data: Bytes,
    n_entries: u16,
}

impl DataBlock {
    /// Parse a raw block.
    pub fn parse(data: Bytes) -> Result<DataBlock> {
        if data.len() < 2 {
            return Err(RunError::Corrupt {
                context: "block shorter than trailer".into(),
            });
        }
        let n = u16::from_le_bytes(data[data.len() - 2..].try_into().expect("2 bytes"));
        let trailer = n as usize * 2 + 2;
        if data.len() < trailer {
            return Err(RunError::Corrupt {
                context: "block trailer truncated".into(),
            });
        }
        Ok(DataBlock { data, n_entries: n })
    }

    /// Entries in this block.
    pub fn entry_count(&self) -> u16 {
        self.n_entries
    }

    /// Byte offset of the entry in `slot`, from the offset trailer.
    fn slot_offset(&self, slot: u16) -> Result<usize> {
        if slot >= self.n_entries {
            return Err(RunError::Corrupt {
                context: format!("slot {slot} out of range ({} entries)", self.n_entries),
            });
        }
        let off_pos = self.trailer_start() + slot as usize * 2;
        Ok(
            u16::from_le_bytes(self.data[off_pos..off_pos + 2].try_into().expect("2 bytes"))
                as usize,
        )
    }

    fn trailer_start(&self) -> usize {
        self.data.len() - 2 - self.n_entries as usize * 2
    }

    fn read_u16(&self, at: usize) -> Result<usize> {
        self.data
            .get(at..at + 2)
            .map(|s| u16::from_le_bytes(s.try_into().expect("2 bytes")) as usize)
            .ok_or_else(|| RunError::Corrupt {
                context: "entry frame truncated".into(),
            })
    }

    /// Zero-copy view of the entry in `slot`.
    pub fn entry(&self, slot: u16) -> Result<EntryRef> {
        let entry_off = self.slot_offset(slot)?;
        let key_len = self.read_u16(entry_off)?;
        let key_start = entry_off + 2;
        let val_len = self.read_u16(key_start + key_len)?;
        let val_start = key_start + key_len + 2;
        if val_start + val_len > self.trailer_start() {
            return Err(RunError::Corrupt {
                context: "entry overruns trailer".into(),
            });
        }
        Ok(EntryRef {
            key: self.data.slice(key_start..key_start + key_len),
            value: self.data.slice(val_start..val_start + val_len),
        })
    }

    /// Borrowed view of the key in `slot` (no value frame parsing, no
    /// refcount traffic — the unit of work inside in-block binary search).
    pub fn key_at(&self, slot: u16) -> Result<&[u8]> {
        let entry_off = self.slot_offset(slot)?;
        let key_len = self.read_u16(entry_off)?;
        let key_start = entry_off + 2;
        self.data
            .get(key_start..key_start + key_len)
            .ok_or_else(|| RunError::Corrupt {
                context: "entry key truncated".into(),
            })
    }

    /// First slot whose key is ≥ `target` (`entry_count` when none): a
    /// binary search over the block's offset trailer, entirely in memory.
    pub fn partition_point_geq(&self, target: &[u8]) -> Result<u16> {
        let (mut lo, mut hi) = (0u16, self.n_entries);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid)? < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RunBuilder, RunParams};
    use crate::entry::IndexEntry;
    use crate::rid::Rid;
    use umzi_encoding::{ColumnType, Datum, IndexDef};
    use umzi_storage::Durability;

    fn layout() -> KeyLayout {
        let def = IndexDef::builder("iot")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .included("val", ColumnType::Int64)
            .build()
            .unwrap();
        KeyLayout::new(Arc::new(def))
    }

    fn build_run(storage: &Arc<TieredStorage>, n: i64) -> Run {
        let l = layout();
        let mut entries: Vec<IndexEntry> = (0..n)
            .map(|i| {
                IndexEntry::new(
                    &l,
                    &[Datum::Int64(i % 10)],
                    &[Datum::Int64(i / 10)],
                    1000 + i as u64,
                    Rid::new(ZoneId::GROOMED, i as u64, 0),
                    &[Datum::Int64(i * 2)],
                )
                .unwrap()
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut b = RunBuilder::new(
            l,
            RunParams {
                run_id: 9,
                zone: ZoneId::GROOMED,
                level: 0,
                groomed_lo: 3,
                groomed_hi: 5,
                psn: 0,
                offset_bits: 6,
                ancestors: vec![],
            },
            storage.chunk_size(),
        );
        for e in &entries {
            b.push(e).unwrap();
        }
        b.finish(storage, "runs/t", Durability::Persisted, true)
            .unwrap()
    }

    #[test]
    fn entries_are_sorted_and_complete() {
        let storage = Arc::new(TieredStorage::in_memory());
        let run = build_run(&storage, 5000);
        assert_eq!(run.entry_count(), 5000);
        let mut last: Option<Vec<u8>> = None;
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            if let Some(prev) = &last {
                assert!(prev.as_slice() <= &e.key[..], "ordinal {ord} out of order");
            }
            last = Some(e.key.to_vec());
        }
    }

    #[test]
    fn locate_roundtrips_prefix_counts() {
        let storage = Arc::new(TieredStorage::in_memory());
        let run = build_run(&storage, 3000);
        let mut total = 0u64;
        for b in 0..run.data_block_count() {
            let blk = run.data_block(b).unwrap();
            for s in 0..blk.entry_count() {
                let (lb, ls) = run.locate(total).unwrap();
                assert_eq!((lb, ls), (b, s));
                total += 1;
            }
        }
        assert_eq!(total, run.entry_count());
        assert!(run.locate(total).is_err());
    }

    #[test]
    fn values_decode() {
        let storage = Arc::new(TieredStorage::in_memory());
        let run = build_run(&storage, 100);
        let l = layout();
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            let cols = l.decode_key_columns(&e.key).unwrap();
            let inc = e.included_values(l.def()).unwrap();
            let (device, msg) = (cols[0].as_i64().unwrap(), cols[1].as_i64().unwrap());
            let i = msg * 10 + device;
            assert_eq!(inc, vec![Datum::Int64(i * 2)]);
            assert_eq!(e.begin_ts().unwrap(), 1000 + i as u64);
            assert_eq!(e.rid().unwrap().block_id, i as u64);
        }
    }

    #[test]
    fn open_with_wrong_definition_fails() {
        let storage = Arc::new(TieredStorage::in_memory());
        build_run(&storage, 10);
        let other = IndexDef::builder("other")
            .equality("x", ColumnType::Int64)
            .build()
            .unwrap();
        let err = Run::open(storage, "runs/t", KeyLayout::new(Arc::new(other)));
        assert!(matches!(err, Err(RunError::DefinitionMismatch { .. })));
    }

    #[test]
    fn bucket_range_covers_all_entries() {
        let storage = Arc::new(TieredStorage::in_memory());
        let run = build_run(&storage, 1000);
        let l = layout();
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            let bucket = l.bucket_of(&e.key, run.header().offset_bits).unwrap();
            let (lo, hi) = run.bucket_range(Some(bucket));
            assert!((lo..hi).contains(&ord));
        }
        // No hint ⇒ whole run.
        assert_eq!(run.bucket_range(None), (0, 1000));
    }

    #[test]
    fn block_access_out_of_range() {
        let storage = Arc::new(TieredStorage::in_memory());
        let run = build_run(&storage, 10);
        assert!(run.data_block(run.data_block_count()).is_err());
    }

    use umzi_storage::{
        FaultEvent, FaultInjectingStore, FaultPlan, InMemoryObjectStore, LatencyModel, ObjectStore,
        SharedStorage, TieredConfig,
    };

    /// Build a run on a clean store, then reopen it through a
    /// fault-injecting wrapper over the same backing objects (fresh caches,
    /// so the header read is shared-read #1 and the first data-block fetch
    /// is shared-read #2).
    fn reopen_with_faults(plan: FaultPlan) -> (Arc<FaultInjectingStore>, Arc<TieredStorage>, Run) {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryObjectStore::new());
        let clean = Arc::new(TieredStorage::new(
            SharedStorage::new(Arc::clone(&inner), LatencyModel::off()),
            TieredConfig::default(),
        ));
        build_run(&clean, 100);

        let faulty = Arc::new(FaultInjectingStore::new(inner, plan));
        let storage = Arc::new(TieredStorage::new(
            SharedStorage::new(
                Arc::clone(&faulty) as Arc<dyn ObjectStore>,
                LatencyModel::off(),
            ),
            TieredConfig::default(),
        ));
        let run = Run::open(Arc::clone(&storage), "runs/t", layout()).unwrap();
        (faulty, storage, run)
    }

    #[test]
    fn transient_block_corruption_heals_by_refetch() {
        // Flip a bit in shared-read #2 — the first data-block fetch. The
        // checksum catches it, the poisoned chunk is evicted and re-fetched
        // (read #3, clean), and the read succeeds.
        let plan = FaultPlan::none().with_event(FaultEvent::BitFlipAt { nth: 2 });
        let (faulty, storage, run) = reopen_with_faults(plan);
        let e = run.entry(0).unwrap();
        assert!(!e.key.is_empty());
        assert_eq!(faulty.stats().bit_flips, 1, "the flip really happened");
        assert_eq!(storage.stats().corruption_refetches, 1);
        // The healed chunk is cached: further reads stay clean and cheap.
        run.entry(1).unwrap();
        assert_eq!(storage.stats().corruption_refetches, 1);
    }

    #[test]
    fn persistent_block_corruption_surfaces_as_corrupt() {
        // Both the original fetch and the containment refetch come back
        // flipped: the read must fail as Corrupt naming the run and block,
        // not return garbage entries.
        let plan = FaultPlan::none()
            .with_event(FaultEvent::BitFlipAt { nth: 2 })
            .with_event(FaultEvent::BitFlipAt { nth: 3 });
        let (faulty, storage, run) = reopen_with_faults(plan);
        let err = run.entry(0).unwrap_err();
        match err {
            RunError::Corrupt { context } => {
                assert!(context.contains("runs/t"), "{context}");
                assert!(context.contains("data block 0"), "{context}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        assert_eq!(faulty.stats().bit_flips, 2);
        assert_eq!(storage.stats().corruption_refetches, 1);
    }
}
