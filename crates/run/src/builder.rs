//! Building index runs (§5.2).
//!
//! *"This is done by simply scanning the data block and sorting index
//! entries ... Along with writing sorted index entries back to data blocks,
//! the offset array can be computed on-the-fly."*
//!
//! [`RunBuilder`] accepts entries in ascending key order (callers sort; the
//! builder verifies) and streams them into fixed-size data blocks while
//! accumulating the offset array, per-block entry counts, the synopsis and
//! the key filter's hashes (one per distinct logical key) in one pass.
//! `finish` builds the key filter, assembles `header ∥ blocks` and writes
//! the object through [`TieredStorage`] with the durability the level
//! requires.

use std::sync::Arc;

use bytes::Bytes;
use umzi_encoding::{hash64, hash_prefix};
use umzi_storage::{Durability, TieredStorage};

use crate::entry::IndexEntry;
use crate::error::RunError;
use crate::filter::KeyFilter;
use crate::format::RunHeader;
use crate::key::KeyLayout;
use crate::reader::Run;
use crate::rid::ZoneId;
use crate::synopsis::Synopsis;
use crate::Result;

/// Identity and placement of the run being built.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Unique run ID within the index instance.
    pub run_id: u64,
    /// Zone the run belongs to.
    pub zone: ZoneId,
    /// Merge level within the zone.
    pub level: u32,
    /// Smallest covered groomed-block ID.
    pub groomed_lo: u64,
    /// Largest covered groomed-block ID.
    pub groomed_hi: u64,
    /// Post-groom sequence number (post-groomed runs; 0 otherwise).
    pub psn: u64,
    /// Offset-array width in bits; forced to 0 for indexes without equality
    /// columns.
    pub offset_bits: u8,
    /// Persisted ancestor runs to record (§6.1); empty for ordinary runs.
    pub ancestors: Vec<String>,
}

/// Framing overhead per entry inside a data block: two u16 length fields.
const ENTRY_FRAME: usize = 4;
/// Per-entry trailer cost (one u16 offset) plus the block's u16 count field.
const TRAILER_SLOT: usize = 2;

/// Streaming builder for one index run.
pub struct RunBuilder {
    layout: KeyLayout,
    params: RunParams,
    chunk_size: usize,
    /// Finished data blocks (each exactly `chunk_size` bytes).
    blocks: Vec<Bytes>,
    /// Cumulative entry counts per finished block.
    prefix_counts: Vec<u64>,
    /// First key of each finished block (the fence index).
    fence_keys: Vec<Vec<u8>>,
    /// `hash64` of each finished block, for read-path integrity checks.
    block_checksums: Vec<u64>,
    cur_data: Vec<u8>,
    cur_offsets: Vec<u16>,
    /// First key of the block currently being filled.
    cur_first_key: Vec<u8>,
    /// Entries per offset-array bucket.
    bucket_counts: Vec<u64>,
    synopsis: Synopsis,
    /// [`KeyFilter::hash`] of each distinct logical key, in key order. The
    /// filter is sized by their number, so it is built in `finish`.
    key_hashes: Vec<u32>,
    last_key: Vec<u8>,
    count: u64,
}

impl RunBuilder {
    /// Start building a run. `chunk_size` must match the storage hierarchy's
    /// chunk size (data blocks are cache-residency units).
    pub fn new(layout: KeyLayout, mut params: RunParams, chunk_size: usize) -> Self {
        if !layout.def().has_hash() {
            params.offset_bits = 0; // no hash column ⇒ no offset array
        }
        let buckets = if params.offset_bits > 0 {
            1usize << params.offset_bits
        } else {
            0
        };
        let n_key_cols = layout.def().key_column_count();
        Self {
            layout,
            params,
            chunk_size,
            blocks: Vec::new(),
            prefix_counts: Vec::new(),
            fence_keys: Vec::new(),
            block_checksums: Vec::new(),
            cur_data: Vec::with_capacity(chunk_size),
            cur_offsets: Vec::new(),
            cur_first_key: Vec::new(),
            bucket_counts: vec![0; buckets],
            synopsis: Synopsis::empty(n_key_cols),
            key_hashes: Vec::new(),
            last_key: Vec::new(),
            count: 0,
        }
    }

    /// Number of entries pushed so far.
    pub fn entry_count(&self) -> u64 {
        self.count
    }

    /// Push a fully-encoded entry. Keys must arrive in ascending order
    /// (equal keys are tolerated: identical versions may legitimately meet
    /// in cross-zone merges).
    pub fn push_raw(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.count > 0 && key < self.last_key.as_slice() {
            return Err(RunError::OutOfOrder {
                ordinal: self.count,
            });
        }

        let need = ENTRY_FRAME + key.len() + value.len();
        let trailer = (self.cur_offsets.len() + 1) * TRAILER_SLOT + 2;
        if self.cur_data.len() + need + trailer > self.chunk_size {
            if self.cur_offsets.is_empty() {
                return Err(RunError::EntryTooLarge {
                    size: need,
                    capacity: self.chunk_size - TRAILER_SLOT - 2,
                });
            }
            self.seal_block();
        }

        if self.cur_offsets.is_empty() {
            self.cur_first_key.clear();
            self.cur_first_key.extend_from_slice(key);
        }
        self.cur_offsets.push(self.cur_data.len() as u16);
        self.cur_data
            .extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.cur_data.extend_from_slice(key);
        self.cur_data
            .extend_from_slice(&(value.len() as u16).to_le_bytes());
        self.cur_data.extend_from_slice(value);

        // Offset array, synopsis and timestamp range, all on the fly.
        if self.params.offset_bits > 0 {
            let bucket = self
                .layout
                .bucket_of(key, self.params.offset_bits)
                .expect("hash present when offset_bits > 0");
            self.bucket_counts[bucket as usize] += 1;
        }
        let ranges = self.layout.split_key_columns(key)?;
        let col_slices: Vec<&[u8]> = ranges.iter().map(|r| &key[r.clone()]).collect();
        let begin_ts = KeyLayout::begin_ts_of(key)?;
        self.synopsis.observe(&col_slices, begin_ts);
        // Keys ascend, so a key's versions are adjacent and hash once.
        let logical = KeyLayout::logical_key(key);
        if self.count == 0 || logical != KeyLayout::logical_key(&self.last_key) {
            self.key_hashes.push(KeyFilter::hash(logical));
        }

        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count += 1;
        Ok(())
    }

    /// Push an owned [`IndexEntry`].
    pub fn push(&mut self, entry: &IndexEntry) -> Result<()> {
        self.push_raw(&entry.key, &entry.value)
    }

    fn seal_block(&mut self) {
        let mut block = std::mem::replace(&mut self.cur_data, Vec::with_capacity(self.chunk_size));
        let offsets = std::mem::take(&mut self.cur_offsets);
        let trailer_len = offsets.len() * TRAILER_SLOT + 2;
        // Entries at the front, trailer at the back, zero padding between.
        block.resize(self.chunk_size - trailer_len, 0);
        for &o in &offsets {
            block.extend_from_slice(&o.to_le_bytes());
        }
        block.extend_from_slice(&(offsets.len() as u16).to_le_bytes());
        debug_assert_eq!(block.len(), self.chunk_size);

        let prev = self.prefix_counts.last().copied().unwrap_or(0);
        self.prefix_counts.push(prev + offsets.len() as u64);
        self.fence_keys
            .push(std::mem::take(&mut self.cur_first_key));
        self.block_checksums.push(hash64(&block));
        self.blocks.push(Bytes::from(block));
    }

    /// Finalize: write the run object named `name` and return an opened
    /// [`Run`]. `write_through` populates the SSD cache with the data blocks
    /// (§6.2 write-through policy below the current cached level).
    pub fn finish(
        mut self,
        storage: &Arc<TieredStorage>,
        name: &str,
        durability: Durability,
        write_through: bool,
    ) -> Result<Run> {
        if !self.cur_offsets.is_empty() {
            self.seal_block();
        }

        // Offset array: bucket_counts → first-ordinal-per-bucket, i.e.
        // offset[i] = #entries with bucket < i (cf. Figure 2b).
        let offset_array = if self.params.offset_bits > 0 {
            let mut out = Vec::with_capacity(self.bucket_counts.len());
            let mut acc = 0u64;
            for &c in &self.bucket_counts {
                out.push(acc);
                acc += c;
            }
            out
        } else {
            Vec::new()
        };

        let header = RunHeader {
            run_id: self.params.run_id,
            index_fingerprint: self.layout.def().fingerprint(),
            zone: self.params.zone,
            level: self.params.level,
            groomed_lo: self.params.groomed_lo,
            groomed_hi: self.params.groomed_hi,
            psn: self.params.psn,
            entry_count: self.count,
            data_block_size: self.chunk_size as u32,
            n_data_blocks: self.blocks.len() as u32,
            header_chunks: 0, // computed during serialization
            offset_bits: self.params.offset_bits,
            offset_array,
            block_prefix_counts: self.prefix_counts.clone(),
            fence_keys: std::mem::take(&mut self.fence_keys),
            block_checksums: std::mem::take(&mut self.block_checksums),
            key_filter: KeyFilter::build(&std::mem::take(&mut self.key_hashes)),
            synopsis: self.synopsis.clone(),
            ancestors: self.params.ancestors.clone(),
        };

        let header_bytes = header.serialize(self.chunk_size);
        let header_chunks = (header_bytes.len() / self.chunk_size) as u32;
        let mut object =
            Vec::with_capacity(header_bytes.len() + self.blocks.len() * self.chunk_size);
        object.extend_from_slice(&header_bytes);
        for b in &self.blocks {
            object.extend_from_slice(b);
        }

        let handle = storage.create_object(
            name,
            Bytes::from(object),
            durability,
            header_chunks,
            write_through,
        )?;

        // Re-parse so the opened header carries the computed header_chunks.
        let mut final_header = header;
        final_header.header_chunks = header_chunks;
        Ok(Run::from_parts(
            Arc::clone(storage),
            handle,
            final_header,
            self.layout,
            name,
        ))
    }
}

#[allow(unused_imports)]
use hash_prefix as _; // hash_prefix is used via KeyLayout::bucket_of

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rid::Rid;
    use umzi_encoding::{ColumnType, Datum, IndexDef};

    fn layout() -> KeyLayout {
        let def = IndexDef::builder("iot")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .build()
            .unwrap();
        KeyLayout::new(Arc::new(def))
    }

    fn params() -> RunParams {
        RunParams {
            run_id: 1,
            zone: ZoneId::GROOMED,
            level: 0,
            groomed_lo: 0,
            groomed_hi: 0,
            psn: 0,
            offset_bits: 4,
            ancestors: Vec::new(),
        }
    }

    fn entry(l: &KeyLayout, device: i64, msg: i64, ts: u64) -> IndexEntry {
        IndexEntry::new(
            l,
            &[Datum::Int64(device)],
            &[Datum::Int64(msg)],
            ts,
            Rid::new(ZoneId::GROOMED, 0, 0),
            &[],
        )
        .unwrap()
    }

    fn sorted_entries(l: &KeyLayout, n: i64) -> Vec<IndexEntry> {
        let mut es: Vec<IndexEntry> = (0..n)
            .map(|i| entry(l, i % 16, i / 16, 100 + i as u64))
            .collect();
        es.sort_by(|a, b| a.key.cmp(&b.key));
        es
    }

    #[test]
    fn build_and_reopen() {
        let storage = Arc::new(TieredStorage::in_memory());
        let l = layout();
        let mut b = RunBuilder::new(l.clone(), params(), storage.chunk_size());
        for e in sorted_entries(&l, 1000) {
            b.push(&e).unwrap();
        }
        assert_eq!(b.entry_count(), 1000);
        let run = b
            .finish(&storage, "runs/r1", Durability::Persisted, true)
            .unwrap();
        assert_eq!(run.entry_count(), 1000);
        assert!(run.data_block_count() >= 1);

        // Reopen from storage and compare headers.
        let reopened = Run::open(Arc::clone(&storage), "runs/r1", l).unwrap();
        assert_eq!(reopened.header(), run.header());
    }

    #[test]
    fn rejects_out_of_order() {
        let storage = Arc::new(TieredStorage::in_memory());
        let l = layout();
        let mut b = RunBuilder::new(l.clone(), params(), storage.chunk_size());
        b.push(&entry(&l, 5, 5, 1)).unwrap();
        let smaller = entry(&l, 5, 4, 1);
        // Only fails if the key actually sorts lower (hash order), so force
        // a guaranteed-lower key: same entry with higher beginTS sorts lower,
        // so pushing the SAME entry again after it must fail.
        let first = entry(&l, 5, 5, 2); // newer ts ⇒ sorts before ts=1
        let err = b.push(&first);
        assert!(matches!(err, Err(RunError::OutOfOrder { .. })));
        let _ = smaller;
    }

    #[test]
    fn equal_keys_tolerated() {
        let storage = Arc::new(TieredStorage::in_memory());
        let l = layout();
        let mut b = RunBuilder::new(l.clone(), params(), storage.chunk_size());
        let e = entry(&l, 1, 1, 7);
        b.push(&e).unwrap();
        b.push(&e).unwrap();
        assert_eq!(b.entry_count(), 2);
    }

    #[test]
    fn entry_too_large_rejected() {
        let def = IndexDef::builder("s")
            .sort("blob", ColumnType::Bytes)
            .build()
            .unwrap();
        let l = KeyLayout::new(Arc::new(def));
        let storage = Arc::new(TieredStorage::in_memory());
        let mut b = RunBuilder::new(l.clone(), params(), storage.chunk_size());
        let huge = vec![1u8; storage.chunk_size()];
        let key = l.build_key(&[], &[Datum::Bytes(huge)], 1).unwrap();
        assert!(matches!(
            b.push_raw(&key, b"v"),
            Err(RunError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn empty_run_is_valid() {
        let storage = Arc::new(TieredStorage::in_memory());
        let l = layout();
        let b = RunBuilder::new(l.clone(), params(), storage.chunk_size());
        let run = b
            .finish(&storage, "runs/empty", Durability::Persisted, false)
            .unwrap();
        assert_eq!(run.entry_count(), 0);
        assert_eq!(run.data_block_count(), 0);
    }

    #[test]
    fn offset_array_is_cumulative() {
        let storage = Arc::new(TieredStorage::in_memory());
        let l = layout();
        let mut b = RunBuilder::new(l.clone(), params(), storage.chunk_size());
        for e in sorted_entries(&l, 256) {
            b.push(&e).unwrap();
        }
        let run = b
            .finish(&storage, "runs/oa", Durability::Persisted, true)
            .unwrap();
        let oa = &run.header().offset_array;
        assert_eq!(oa.len(), 16);
        assert_eq!(oa[0], 0);
        assert!(oa.windows(2).all(|w| w[0] <= w[1]), "monotonic");
        // Every entry's bucket range must contain its ordinal.
        for ord in 0..run.entry_count() {
            let e = run.entry(ord).unwrap();
            let bucket = l.bucket_of(&e.key, 4).unwrap() as usize;
            let lo = oa[bucket];
            let hi = if bucket + 1 < oa.len() {
                oa[bucket + 1]
            } else {
                run.entry_count()
            };
            assert!(
                (lo..hi).contains(&ord),
                "ordinal {ord} outside bucket {bucket} range [{lo},{hi})"
            );
        }
    }

    #[test]
    fn non_persisted_run_never_hits_shared() {
        let storage = Arc::new(TieredStorage::in_memory());
        let l = layout();
        let mut b = RunBuilder::new(l.clone(), params(), storage.chunk_size());
        for e in sorted_entries(&l, 100) {
            b.push(&e).unwrap();
        }
        let run = b
            .finish(&storage, "runs/np", Durability::NonPersisted, false)
            .unwrap();
        assert_eq!(storage.stats().shared.writes, 0);
        assert!(!run.entry(0).unwrap().key.is_empty());
    }
}
