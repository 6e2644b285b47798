//! Columnar data blocks — the Parquet stand-in.
//!
//! Wildfire stores groomed and post-groomed data as columnar blocks in open
//! format (Parquet) on shared storage (§1, §2.1). This reproduction uses a
//! self-contained columnar format with the same relevant properties:
//! column-major layout, immutable once written, self-describing, and
//! carrying Wildfire's three hidden columns (`beginTS`, `endTS`, `prevRID`,
//! §2.1). `endTS` is *logically* mutable (the post-groomer closes replaced
//! versions) — since shared storage forbids in-place updates, closures are
//! recorded in the in-memory image and persisted as sidecar delta objects,
//! which recovery replays.
//!
//! A groomed block holds its rows in commit (`beginTS`) order. A
//! post-groomed block — one per partition — is clustered on the primary
//! index: its rows sit in entry-key order (`hash ∥ eq ∥ sort ∥ ¬beginTS`),
//! so an index range scan resolves its RIDs front to back through the
//! block.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use umzi_encoding::{decode_datum, encode_datum, hash64, Datum, DatumKind};
use umzi_run::{Rid, ZoneId};

use crate::error::WildfireError;
use crate::timestamps::OPEN_END_TS;
use crate::Result;

const MAGIC: &[u8; 8] = b"UMZICOL1";
/// `prevRID` zone sentinel for "no previous version".
const NO_PREV_ZONE: u8 = 0xFF;

/// An immutable columnar block plus its mutable `endTS` image.
pub struct ColumnBlock {
    kinds: Vec<DatumKind>,
    /// Column-major user data.
    columns: Vec<Vec<Datum>>,
    begin_ts: Vec<u64>,
    /// Mutable in memory; persisted via delta objects.
    end_ts: Vec<AtomicU64>,
    prev_rid: Vec<Option<Rid>>,
    n_rows: usize,
}

impl std::fmt::Debug for ColumnBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnBlock")
            .field("rows", &self.n_rows)
            .field("cols", &self.kinds.len())
            .finish()
    }
}

impl ColumnBlock {
    /// Build a block from row-major input. `prev_rid[i]` is the RID of the
    /// previous version of row `i` (post-groomed blocks); groomed blocks
    /// pass `None`s — the post-groomer fills prevRID later (§2.1).
    pub fn build(
        kinds: Vec<DatumKind>,
        rows: &[impl AsRef<[Datum]>],
        begin_ts: Vec<u64>,
        prev_rid: Vec<Option<Rid>>,
    ) -> Result<ColumnBlock> {
        let n_rows = rows.len();
        if begin_ts.len() != n_rows || prev_rid.len() != n_rows {
            return Err(WildfireError::RowMismatch(
                "hidden-column vectors must match row count".into(),
            ));
        }
        let mut columns: Vec<Vec<Datum>> =
            kinds.iter().map(|_| Vec::with_capacity(n_rows)).collect();
        for row in rows {
            let row = row.as_ref();
            if row.len() != kinds.len() {
                return Err(WildfireError::RowMismatch(format!(
                    "row has {} columns, block has {}",
                    row.len(),
                    kinds.len()
                )));
            }
            for ((col, kind), v) in columns.iter_mut().zip(&kinds).zip(row) {
                if v.kind() != *kind {
                    return Err(WildfireError::RowMismatch(format!(
                        "expected {kind:?}, got {:?}",
                        v.kind()
                    )));
                }
                col.push(v.clone());
            }
        }
        Ok(ColumnBlock {
            kinds,
            columns,
            begin_ts,
            end_ts: (0..n_rows).map(|_| AtomicU64::new(OPEN_END_TS)).collect(),
            prev_rid,
            n_rows,
        })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column kinds.
    pub fn kinds(&self) -> &[DatumKind] {
        &self.kinds
    }

    /// Clone out one row (row-major view).
    pub fn row(&self, i: usize) -> Result<Vec<Datum>> {
        if i >= self.n_rows {
            return Err(WildfireError::DanglingRid(format!(
                "row {i} of {}",
                self.n_rows
            )));
        }
        Ok(self.columns.iter().map(|c| c[i].clone()).collect())
    }

    /// One column value without materializing the row.
    pub fn value(&self, row: usize, col: usize) -> Option<&Datum> {
        self.columns.get(col)?.get(row)
    }

    /// Hidden column: version creation timestamp.
    pub fn begin_ts(&self, i: usize) -> u64 {
        self.begin_ts[i]
    }

    /// Hidden column: version end timestamp (`OPEN_END_TS` while current).
    pub fn end_ts(&self, i: usize) -> u64 {
        self.end_ts[i].load(Ordering::Acquire)
    }

    /// Close a version (post-groom sets `endTS` of replaced records, §2.1).
    pub fn set_end_ts(&self, i: usize, ts: u64) {
        self.end_ts[i].store(ts, Ordering::Release);
    }

    /// Hidden column: RID of the previous version with the same key.
    pub fn prev_rid(&self, i: usize) -> Option<Rid> {
        self.prev_rid[i]
    }

    /// Serialize the immutable image (current `endTS` values included; later
    /// closures go to delta objects).
    pub fn serialize(&self) -> Bytes {
        let mut buf = Vec::with_capacity(64 + self.n_rows * 16);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&(self.n_rows as u32).to_le_bytes());
        buf.extend_from_slice(&(self.kinds.len() as u16).to_le_bytes());
        for (kind, col) in self.kinds.iter().zip(&self.columns) {
            buf.push(kind_tag(*kind));
            for v in col {
                encode_datum(v, &mut buf);
            }
        }
        for ts in &self.begin_ts {
            buf.extend_from_slice(&ts.to_le_bytes());
        }
        for ts in &self.end_ts {
            buf.extend_from_slice(&ts.load(Ordering::Acquire).to_le_bytes());
        }
        for prev in &self.prev_rid {
            match prev {
                Some(rid) => rid.encode_into(&mut buf),
                None => {
                    buf.push(NO_PREV_ZONE);
                    buf.extend_from_slice(&[0u8; 12]);
                }
            }
        }
        let checksum = hash64(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        Bytes::from(buf)
    }

    /// Parse a serialized block.
    pub fn deserialize(buf: &[u8]) -> Result<ColumnBlock> {
        let corrupt = |m: &str| WildfireError::RowMismatch(format!("corrupt column block: {m}"));
        if buf.len() < 8 + 2 + 4 + 2 + 8 || &buf[..8] != MAGIC {
            return Err(corrupt("bad magic or truncated"));
        }
        let body = &buf[..buf.len() - 8];
        let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
        if hash64(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        let n_rows = u32::from_le_bytes(buf[10..14].try_into().expect("4 bytes")) as usize;
        let n_cols = u16::from_le_bytes(buf[14..16].try_into().expect("2 bytes")) as usize;
        let mut pos = 16;
        let mut kinds = Vec::with_capacity(n_cols);
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let kind = kind_from_tag(*body.get(pos).ok_or_else(|| corrupt("truncated column"))?)
                .ok_or_else(|| corrupt("unknown column kind"))?;
            pos += 1;
            let mut col = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let (d, used) = decode_datum(kind, &body[pos..])
                    .map_err(|e| corrupt(&format!("column value: {e}")))?;
                col.push(d);
                pos += used;
            }
            kinds.push(kind);
            columns.push(col);
        }
        let read_u64 = |pos: &mut usize| -> Result<u64> {
            let v = body
                .get(*pos..*pos + 8)
                .ok_or_else(|| corrupt("truncated hidden column"))?;
            *pos += 8;
            Ok(u64::from_le_bytes(v.try_into().expect("8 bytes")))
        };
        let mut begin_ts = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            begin_ts.push(read_u64(&mut pos)?);
        }
        let mut end_ts = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            end_ts.push(AtomicU64::new(read_u64(&mut pos)?));
        }
        let mut prev_rid = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let raw = body
                .get(pos..pos + 13)
                .ok_or_else(|| corrupt("truncated prevRID"))?;
            pos += 13;
            if raw[0] == NO_PREV_ZONE {
                prev_rid.push(None);
            } else {
                prev_rid.push(Some(Rid::decode(raw).map_err(|_| corrupt("bad prevRID"))?));
            }
        }
        Ok(ColumnBlock {
            kinds,
            columns,
            begin_ts,
            end_ts,
            prev_rid,
            n_rows,
        })
    }
}

fn kind_tag(kind: DatumKind) -> u8 {
    match kind {
        DatumKind::Int64 => 0,
        DatumKind::UInt64 => 1,
        DatumKind::Float64 => 2,
        DatumKind::Str => 3,
        DatumKind::Bytes => 4,
        DatumKind::Bool => 5,
        DatumKind::Timestamp => 6,
    }
}

fn kind_from_tag(tag: u8) -> Option<DatumKind> {
    Some(match tag {
        0 => DatumKind::Int64,
        1 => DatumKind::UInt64,
        2 => DatumKind::Float64,
        3 => DatumKind::Str,
        4 => DatumKind::Bytes,
        5 => DatumKind::Bool,
        6 => DatumKind::Timestamp,
        _ => return None,
    })
}

/// One `endTS` closure, persisted in sidecar delta objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndTsDelta {
    /// The record whose version was replaced.
    pub rid: Rid,
    /// The replacing version's `beginTS`.
    pub end_ts: u64,
}

/// Serialize a batch of `endTS` closures as one delta object.
pub fn serialize_deltas(deltas: &[EndTsDelta]) -> Bytes {
    let mut buf = Vec::with_capacity(16 + deltas.len() * 21);
    buf.extend_from_slice(b"UMZIDEL1");
    buf.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for d in deltas {
        d.rid.encode_into(&mut buf);
        buf.extend_from_slice(&d.end_ts.to_le_bytes());
    }
    let checksum = hash64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Bytes::from(buf)
}

/// Parse a delta object.
pub fn deserialize_deltas(buf: &[u8]) -> Result<Vec<EndTsDelta>> {
    let corrupt = |m: &str| WildfireError::RowMismatch(format!("corrupt endTS delta object: {m}"));
    if buf.len() < 20 || &buf[..8] != b"UMZIDEL1" {
        return Err(corrupt("bad magic"));
    }
    let body = &buf[..buf.len() - 8];
    let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
    if hash64(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let n = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 12;
    for _ in 0..n {
        let raw = body
            .get(pos..pos + 21)
            .ok_or_else(|| corrupt("truncated"))?;
        let rid = Rid::decode(&raw[..13]).map_err(|_| corrupt("bad rid"))?;
        let end_ts = u64::from_le_bytes(raw[13..21].try_into().expect("8 bytes"));
        out.push(EndTsDelta { rid, end_ts });
        pos += 21;
    }
    Ok(out)
}

#[allow(unused_imports)]
use ZoneId as _ZoneIdUsedInDocs;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ColumnBlock {
        let kinds = vec![DatumKind::Int64, DatumKind::Str];
        let rows = vec![
            vec![Datum::Int64(1), Datum::Str("a".into())],
            vec![Datum::Int64(2), Datum::Str("b\0c".into())],
            vec![Datum::Int64(3), Datum::Str("".into())],
        ];
        ColumnBlock::build(
            kinds,
            &rows,
            vec![10, 11, 12],
            vec![None, Some(Rid::new(ZoneId::GROOMED, 7, 1)), None],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let b = sample();
        b.set_end_ts(0, 99);
        let bytes = b.serialize();
        let back = ColumnBlock::deserialize(&bytes).unwrap();
        assert_eq!(back.n_rows(), 3);
        assert_eq!(
            back.row(1).unwrap(),
            vec![Datum::Int64(2), Datum::Str("b\0c".into())]
        );
        assert_eq!(back.begin_ts(2), 12);
        assert_eq!(
            back.end_ts(0),
            99,
            "endTS closures captured at serialization"
        );
        assert_eq!(back.end_ts(1), OPEN_END_TS);
        assert_eq!(back.prev_rid(1), Some(Rid::new(ZoneId::GROOMED, 7, 1)));
        assert_eq!(back.prev_rid(0), None);
    }

    #[test]
    fn mismatched_rows_rejected() {
        let kinds = vec![DatumKind::Int64];
        assert!(ColumnBlock::build(
            kinds.clone(),
            &[vec![Datum::Str("x".into())]],
            vec![1],
            vec![None]
        )
        .is_err());
        assert!(ColumnBlock::build(kinds, &[vec![Datum::Int64(1)]], vec![], vec![None]).is_err());
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().serialize().to_vec();
        bytes[20] ^= 0x55;
        assert!(ColumnBlock::deserialize(&bytes).is_err());
    }

    #[test]
    fn row_out_of_range() {
        assert!(sample().row(3).is_err());
    }

    #[test]
    fn delta_roundtrip() {
        let deltas = vec![
            EndTsDelta {
                rid: Rid::new(ZoneId::POST_GROOMED, 3, 9),
                end_ts: 77,
            },
            EndTsDelta {
                rid: Rid::new(ZoneId::GROOMED, 1, 0),
                end_ts: 78,
            },
        ];
        let bytes = serialize_deltas(&deltas);
        assert_eq!(deserialize_deltas(&bytes).unwrap(), deltas);
        let mut bad = bytes.to_vec();
        bad[14] ^= 1;
        assert!(deserialize_deltas(&bad).is_err());
    }
}
