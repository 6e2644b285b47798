//! On-disk run header serialization.
//!
//! Hand-rolled little-endian binary format — self-describing (magic +
//! version), checksummed, and stable. Layout:
//!
//! ```text
//! magic "UMZIRN02"            8 B
//! header_len                  u32   total header bytes incl. checksum
//! version                     u16
//! flags                       u16   bit 0: has offset array
//! index_fingerprint           u64
//! run_id                      u64
//! zone                        u8
//! level                       u32
//! groomed_lo, groomed_hi      u64 × 2   covered groomed-block-ID range
//! psn                         u64   post-groom sequence number (PG runs)
//! entry_count                 u64
//! data_block_size             u32
//! n_data_blocks               u32
//! header_chunks               u32   chunks occupied by this header
//! offset_bits                 u8
//! offset_array                u64 × 2^offset_bits (if flag set)
//! block_prefix_counts         u64 × n_data_blocks (cumulative entries)
//! fence_keys                  len-prefixed bytes × n_data_blocks (flag bit
//!                             1): the first key of each data block
//! block_checksums             u64 × n_data_blocks (flag bit 2): hash64 of
//!                             each raw data block, for read-path integrity
//! key_filter_blocks           u32   512-bit blocks of the key filter
//! key_filter                  64 B × key_filter_blocks: blocked Bloom filter
//!                             over the distinct logical keys, ≤ 8 bits per
//!                             key (`crate::filter`)
//! synopsis                    min/max beginTS + per-column byte ranges
//! ancestors                   persisted ancestor run names (§6.1)
//! checksum                    u64   hash64 of all preceding bytes
//! ```
//!
//! The fence index lets a searcher pick the one data block that can contain
//! the first key ≥ a bound without touching storage, and the key filter
//! lets an exact-key probe skip a run that holds no version of its key.
//! Every run with data blocks carries the fence index and the block
//! checksums; a header missing either section is rejected as corrupt. A
//! header of an earlier format (magic `UMZIRN01`, no key filter) is
//! rejected as corrupt too: there is no fallback.

use umzi_encoding::hash64;

use crate::error::RunError;
use crate::filter::KeyFilter;
use crate::rid::ZoneId;
use crate::synopsis::{ColumnRange, Synopsis};
use crate::Result;

/// Current run-format version.
pub const FORMAT_VERSION: u16 = 2;

const MAGIC: &[u8; 8] = b"UMZIRN02";
const FLAG_HAS_OFFSET_ARRAY: u16 = 1;
const FLAG_HAS_FENCE_INDEX: u16 = 2;
const FLAG_HAS_BLOCK_CHECKSUMS: u16 = 4;
/// Byte offset of the `header_len` field.
const HEADER_LEN_OFFSET: usize = 8;

/// Parsed run header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHeader {
    /// Unique run ID within the index instance.
    pub run_id: u64,
    /// Fingerprint of the index definition the run was built with.
    pub index_fingerprint: u64,
    /// Zone the run belongs to.
    pub zone: ZoneId,
    /// Merge level within the zone.
    pub level: u32,
    /// Smallest groomed-block ID covered.
    pub groomed_lo: u64,
    /// Largest groomed-block ID covered.
    pub groomed_hi: u64,
    /// Post-groom sequence number that produced this run (post-groomed runs
    /// only; 0 for groomed-zone runs).
    pub psn: u64,
    /// Number of entries.
    pub entry_count: u64,
    /// Data-block size in bytes (== the storage chunk size).
    pub data_block_size: u32,
    /// Number of data blocks.
    pub n_data_blocks: u32,
    /// Number of leading storage chunks occupied by this header.
    pub header_chunks: u32,
    /// Offset-array width in bits (0 = none).
    pub offset_bits: u8,
    /// Offset array: entry ordinal of the first key whose hash prefix is
    /// ≥ the bucket index; length `2^offset_bits` (empty when no hash).
    pub offset_array: Vec<u64>,
    /// `block_prefix_counts[b]` = total entries in blocks `0..=b`.
    pub block_prefix_counts: Vec<u64>,
    /// `fence_keys[b]` = full key of the first entry in block `b`; length
    /// `n_data_blocks`.
    pub fence_keys: Vec<Vec<u8>>,
    /// `block_checksums[b]` = `hash64` of raw data block `b`, verified on
    /// every cache-miss block read; length `n_data_blocks`.
    pub block_checksums: Vec<u64>,
    /// Blocked Bloom filter over the run's distinct logical keys.
    pub key_filter: KeyFilter,
    /// Key-column min/max synopsis.
    pub synopsis: Synopsis,
    /// Persisted ancestor runs (non-persisted-level recovery, §6.1).
    pub ancestors: Vec<String>,
}

impl RunHeader {
    /// Serialize, computing `header_chunks` for the given chunk size and
    /// padding the output to a chunk boundary.
    pub fn serialize(&self, chunk_size: usize) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes_raw(MAGIC);
        w.u32(0); // header_len patched below
        w.u16(FORMAT_VERSION);
        let mut flags = if self.offset_bits > 0 {
            FLAG_HAS_OFFSET_ARRAY
        } else {
            0
        };
        if !self.fence_keys.is_empty() {
            flags |= FLAG_HAS_FENCE_INDEX;
        }
        if !self.block_checksums.is_empty() {
            flags |= FLAG_HAS_BLOCK_CHECKSUMS;
        }
        w.u16(flags);
        w.u64(self.index_fingerprint);
        w.u64(self.run_id);
        w.u8(self.zone.0);
        w.u32(self.level);
        w.u64(self.groomed_lo);
        w.u64(self.groomed_hi);
        w.u64(self.psn);
        w.u64(self.entry_count);
        w.u32(self.data_block_size);
        w.u32(self.n_data_blocks);
        let header_chunks_at = w.len();
        w.u32(0); // header_chunks patched below
        w.u8(self.offset_bits);
        if self.offset_bits > 0 {
            debug_assert_eq!(self.offset_array.len(), 1usize << self.offset_bits);
            for &o in &self.offset_array {
                w.u64(o);
            }
        }
        debug_assert_eq!(self.block_prefix_counts.len(), self.n_data_blocks as usize);
        for &c in &self.block_prefix_counts {
            w.u64(c);
        }
        if !self.fence_keys.is_empty() {
            debug_assert_eq!(self.fence_keys.len(), self.n_data_blocks as usize);
            for k in &self.fence_keys {
                w.bytes(k);
            }
        }
        if !self.block_checksums.is_empty() {
            debug_assert_eq!(self.block_checksums.len(), self.n_data_blocks as usize);
            for &c in &self.block_checksums {
                w.u64(c);
            }
        }
        w.u32(self.key_filter.block_count() as u32);
        self.key_filter.write_to(&mut w.buf);
        // Synopsis.
        w.u64(self.synopsis.min_begin_ts());
        w.u64(self.synopsis.max_begin_ts());
        w.u64(self.synopsis.entry_count());
        w.u16(self.synopsis.columns().len() as u16);
        for col in self.synopsis.columns() {
            w.bytes(&col.min);
            w.bytes(&col.max);
        }
        // Ancestors.
        w.u32(self.ancestors.len() as u32);
        for a in &self.ancestors {
            w.bytes(a.as_bytes());
        }

        let mut buf = w.finish();
        let total_len = buf.len() + 8; // + checksum
        let header_chunks = total_len.div_ceil(chunk_size) as u32;
        buf[HEADER_LEN_OFFSET..HEADER_LEN_OFFSET + 4]
            .copy_from_slice(&(total_len as u32).to_le_bytes());
        buf[header_chunks_at..header_chunks_at + 4].copy_from_slice(&header_chunks.to_le_bytes());
        let checksum = hash64(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        // Pad to the chunk boundary so data block 0 starts on a chunk.
        buf.resize(header_chunks as usize * chunk_size, 0);
        buf
    }

    /// Peek at the total header length (pre-padding) from the first bytes of
    /// an object, so callers know how many chunks to fetch before parsing.
    pub fn peek_len(first_chunk: &[u8]) -> Result<usize> {
        if first_chunk.len() < HEADER_LEN_OFFSET + 4 {
            return Err(RunError::Corrupt {
                context: "object shorter than magic".into(),
            });
        }
        if &first_chunk[..8] != MAGIC {
            return Err(RunError::Corrupt {
                context: "bad magic".into(),
            });
        }
        let len = u32::from_le_bytes(
            first_chunk[HEADER_LEN_OFFSET..HEADER_LEN_OFFSET + 4]
                .try_into()
                .expect("4 bytes"),
        );
        Ok(len as usize)
    }

    /// Parse a header from `buf` (which must contain at least `peek_len`
    /// bytes).
    pub fn deserialize(buf: &[u8]) -> Result<RunHeader> {
        let total_len = Self::peek_len(buf)?;
        if buf.len() < total_len || total_len < 8 + 4 + 8 {
            return Err(RunError::Corrupt {
                context: "truncated header".into(),
            });
        }
        let body = &buf[..total_len - 8];
        let stored_checksum =
            u64::from_le_bytes(buf[total_len - 8..total_len].try_into().expect("8 bytes"));
        if hash64(body) != stored_checksum {
            return Err(RunError::Corrupt {
                context: "header checksum mismatch".into(),
            });
        }

        let mut r = Reader { buf: body, pos: 8 };
        let _header_len = r.u32()?;
        let version = r.u16()?;
        if version != FORMAT_VERSION {
            return Err(RunError::Corrupt {
                context: format!("unsupported run format version {version}"),
            });
        }
        let flags = r.u16()?;
        let index_fingerprint = r.u64()?;
        let run_id = r.u64()?;
        let zone = ZoneId(r.u8()?);
        let level = r.u32()?;
        let groomed_lo = r.u64()?;
        let groomed_hi = r.u64()?;
        let psn = r.u64()?;
        let entry_count = r.u64()?;
        let data_block_size = r.u32()?;
        let n_data_blocks = r.u32()?;
        let header_chunks = r.u32()?;
        if n_data_blocks > 0 {
            for (flag, section) in [
                (FLAG_HAS_FENCE_INDEX, "fence index"),
                (FLAG_HAS_BLOCK_CHECKSUMS, "block checksums"),
            ] {
                if flags & flag == 0 {
                    return Err(RunError::Corrupt {
                        context: format!("header with data blocks lacks its {section}"),
                    });
                }
            }
        }
        let offset_bits = r.u8()?;
        let offset_array = if flags & FLAG_HAS_OFFSET_ARRAY != 0 {
            if offset_bits == 0 || offset_bits > 24 {
                return Err(RunError::Corrupt {
                    context: format!("implausible offset_bits {offset_bits}"),
                });
            }
            let n = 1usize << offset_bits;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u64()?);
            }
            v
        } else {
            Vec::new()
        };
        let mut block_prefix_counts = Vec::with_capacity(n_data_blocks as usize);
        for _ in 0..n_data_blocks {
            block_prefix_counts.push(r.u64()?);
        }
        let fence_keys = if flags & FLAG_HAS_FENCE_INDEX != 0 {
            let mut v = Vec::with_capacity(n_data_blocks as usize);
            for _ in 0..n_data_blocks {
                v.push(r.bytes()?.to_vec());
            }
            v
        } else {
            Vec::new()
        };
        let block_checksums = if flags & FLAG_HAS_BLOCK_CHECKSUMS != 0 {
            let mut v = Vec::with_capacity(n_data_blocks as usize);
            for _ in 0..n_data_blocks {
                v.push(r.u64()?);
            }
            v
        } else {
            Vec::new()
        };
        let filter_blocks = r.u32()? as usize;
        let key_filter = filter_blocks
            .checked_mul(crate::filter::BLOCK_BYTES)
            .and_then(|len| r.take(len).ok())
            .map(KeyFilter::from_bytes)
            .ok_or_else(|| RunError::Corrupt {
                context: format!("key filter of {filter_blocks} blocks truncated"),
            })?;
        let min_begin_ts = r.u64()?;
        let max_begin_ts = r.u64()?;
        let syn_count = r.u64()?;
        let n_cols = r.u16()? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let min = r.bytes()?.to_vec();
            let max = r.bytes()?.to_vec();
            columns.push(ColumnRange { min, max });
        }
        let synopsis = Synopsis::from_parts(columns, min_begin_ts, max_begin_ts, syn_count);
        let n_ancestors = r.u32()? as usize;
        let mut ancestors = Vec::with_capacity(n_ancestors);
        for _ in 0..n_ancestors {
            let name = std::str::from_utf8(r.bytes()?)
                .map_err(|_| RunError::Corrupt {
                    context: "ancestor name not UTF-8".into(),
                })?
                .to_owned();
            ancestors.push(name);
        }

        Ok(RunHeader {
            run_id,
            index_fingerprint,
            zone,
            level,
            groomed_lo,
            groomed_hi,
            psn,
            entry_count,
            data_block_size,
            n_data_blocks,
            header_chunks,
            offset_bits,
            offset_array,
            block_prefix_counts,
            fence_keys,
            block_checksums,
            key_filter,
            synopsis,
            ancestors,
        })
    }
}

/// Little-endian byte writer.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn len(&self) -> usize {
        self.buf.len()
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Length-prefixed byte string.
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    /// Raw bytes, no prefix.
    fn bytes_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(RunError::Corrupt {
                context: "header field truncated".into(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-block filter (128 keys at 8 bits each).
    fn sample_filter() -> KeyFilter {
        let hashes: Vec<u32> = (0..128u64)
            .map(|i| KeyFilter::hash(&i.to_be_bytes()))
            .collect();
        KeyFilter::build(&hashes)
    }

    fn sample_header() -> RunHeader {
        let mut synopsis = Synopsis::empty(2);
        synopsis.observe(&[b"aa".as_slice(), b"x".as_slice()], 100);
        synopsis.observe(&[b"zz".as_slice(), b"y".as_slice()], 200);
        RunHeader {
            run_id: 7,
            index_fingerprint: 0xABCD,
            zone: ZoneId::GROOMED,
            level: 2,
            groomed_lo: 11,
            groomed_hi: 15,
            psn: 0,
            entry_count: 1234,
            data_block_size: 4096,
            n_data_blocks: 3,
            header_chunks: 0, // computed by serialize
            offset_bits: 3,
            offset_array: vec![0, 1, 2, 2, 2, 6, 6, 6],
            block_prefix_counts: vec![500, 1000, 1234],
            fence_keys: vec![b"aaa".to_vec(), b"mmm".to_vec(), b"zzz".to_vec()],
            block_checksums: vec![0x1111, 0x2222, 0x3333],
            key_filter: sample_filter(),
            synopsis,
            ancestors: vec!["runs/old-1".into(), "runs/old-2".into()],
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample_header();
        let buf = h.serialize(4096);
        assert_eq!(buf.len() % 4096, 0, "padded to chunk boundary");
        let parsed = RunHeader::deserialize(&buf).unwrap();
        assert_eq!(parsed.run_id, 7);
        assert_eq!(parsed.offset_array, h.offset_array);
        assert_eq!(parsed.block_prefix_counts, h.block_prefix_counts);
        assert_eq!(parsed.fence_keys, h.fence_keys);
        assert_eq!(parsed.block_checksums, h.block_checksums);
        assert_eq!(parsed.key_filter.block_count(), 2);
        assert_eq!(parsed.key_filter, h.key_filter);
        assert_eq!(parsed.synopsis, h.synopsis);
        assert_eq!(parsed.ancestors, h.ancestors);
        assert_eq!(parsed.header_chunks, 1);
        assert_eq!(parsed.groomed_lo, 11);
        assert_eq!(parsed.groomed_hi, 15);
    }

    #[test]
    fn header_spanning_multiple_chunks() {
        let mut h = sample_header();
        h.offset_bits = 12; // 4096 × 8 B = 32 KiB offset array
        h.offset_array = (0..4096u64).collect();
        let chunk = 4096;
        let buf = h.serialize(chunk);
        let parsed = RunHeader::deserialize(&buf).unwrap();
        assert!(parsed.header_chunks > 1);
        assert_eq!(buf.len(), parsed.header_chunks as usize * chunk);
        assert_eq!(parsed.offset_array.len(), 4096);
    }

    /// Headers from before the fence index or the block checksums existed
    /// (flag bit clear, section absent) are rejected, naming the section.
    #[test]
    fn legacy_header_is_rejected_with_corrupt() {
        type Strip = fn(&mut RunHeader);
        let cases: [(Strip, &str); 2] = [
            (|h| h.fence_keys = Vec::new(), "fence index"),
            (|h| h.block_checksums = Vec::new(), "block checksums"),
        ];
        for (strip, section) in cases {
            let mut h = sample_header();
            strip(&mut h);
            match RunHeader::deserialize(&h.serialize(4096)) {
                Err(RunError::Corrupt { context }) => {
                    assert!(context.contains(section), "{context}")
                }
                other => panic!("header without {section} must be Corrupt, got {other:?}"),
            }
        }
        // A run without data blocks has nothing to fence or checksum.
        let mut empty = sample_header();
        empty.n_data_blocks = 0;
        empty.block_prefix_counts = Vec::new();
        empty.fence_keys = Vec::new();
        empty.block_checksums = Vec::new();
        RunHeader::deserialize(&empty.serialize(4096)).unwrap();
    }

    #[test]
    fn peek_len_matches() {
        let h = sample_header();
        let buf = h.serialize(4096);
        let len = RunHeader::peek_len(&buf).unwrap();
        assert!(len <= buf.len());
        // The checksum sits at the end of the unpadded header.
        assert!(RunHeader::deserialize(&buf[..len]).is_ok());
    }

    #[test]
    fn corruption_detected() {
        let h = sample_header();
        let mut buf = h.serialize(4096);
        // Flip a byte inside the synopsis region.
        buf[200] ^= 0xFF;
        assert!(matches!(
            RunHeader::deserialize(&buf),
            Err(RunError::Corrupt { .. })
        ));
    }

    /// Byte offset of the key filter's bits in a serialized header.
    fn filter_offset(h: &RunHeader, buf: &[u8]) -> usize {
        let mut bits = Vec::new();
        h.key_filter.write_to(&mut bits);
        let at = buf
            .windows(bits.len())
            .position(|w| w == bits.as_slice())
            .expect("the filter's bits are in the header");
        let count = &buf[at - 4..at];
        assert_eq!(count, (h.key_filter.block_count() as u32).to_le_bytes());
        at
    }

    /// A flipped bit anywhere in the filter fails the header checksum: the
    /// header is `Corrupt`, never a filter that rejects present keys.
    #[test]
    fn flipped_filter_byte_is_corrupt() {
        let h = sample_header();
        let clean = h.serialize(4096);
        let at = filter_offset(&h, &clean);
        for i in [0, 1, 63, 64, h.key_filter.byte_len() - 1] {
            let mut buf = clean.clone();
            buf[at + i] ^= 0x10;
            match RunHeader::deserialize(&buf) {
                Err(RunError::Corrupt { context }) => assert!(context.contains("checksum")),
                other => panic!("flipped filter byte {i} must be Corrupt, got {other:?}"),
            }
        }
    }

    /// A filter block count that overruns the header is `Corrupt` even when
    /// the checksum is recomputed to match.
    #[test]
    fn overlong_filter_is_corrupt() {
        let h = sample_header();
        let mut buf = h.serialize(4096);
        let at = filter_offset(&h, &buf);
        buf[at - 4..at].copy_from_slice(&u32::MAX.to_le_bytes());
        let len = RunHeader::peek_len(&buf).unwrap();
        let sum = hash64(&buf[..len - 8]);
        buf[len - 8..len].copy_from_slice(&sum.to_le_bytes());
        match RunHeader::deserialize(&buf) {
            Err(RunError::Corrupt { context }) => assert!(context.contains("key filter")),
            other => panic!("overlong filter must be Corrupt, got {other:?}"),
        }
    }

    /// A header of the format before the key filter (magic `UMZIRN01`) is
    /// `Corrupt`: there is no fallback reader.
    #[test]
    fn old_magic_header_is_corrupt() {
        let mut buf = sample_header().serialize(4096);
        buf[..8].copy_from_slice(b"UMZIRN01");
        let len = RunHeader::peek_len(&sample_header().serialize(4096)).unwrap();
        let sum = hash64(&buf[..len - 8]);
        buf[len - 8..len].copy_from_slice(&sum.to_le_bytes());
        for result in [
            RunHeader::peek_len(&buf).map(|_| ()),
            RunHeader::deserialize(&buf).map(|_| ()),
        ] {
            match result {
                Err(RunError::Corrupt { context }) => assert!(context.contains("magic")),
                other => panic!("old magic must be Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = sample_header().serialize(4096);
        buf[0] = b'X';
        assert!(RunHeader::peek_len(&buf).is_err());
    }

    #[test]
    fn version_check() {
        let mut buf = sample_header().serialize(4096);
        // version field at offset 12; bump it and fix checksum so only the
        // version check can fire.
        buf[12] = 99;
        let len = RunHeader::peek_len(&buf).unwrap();
        let body_len = len - 8;
        let sum = hash64(&buf[..body_len]);
        buf[body_len..len].copy_from_slice(&sum.to_le_bytes());
        let err = RunHeader::deserialize(&buf).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
