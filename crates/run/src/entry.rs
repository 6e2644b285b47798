//! Index entries: the `(key, value)` pairs stored in runs.

use std::sync::Arc;

use bytes::Bytes;
use umzi_encoding::{decode_datum, encode_datum, Datum, IndexDef};

use crate::key::KeyLayout;
use crate::rid::{Rid, RID_LEN};
use crate::Result;

/// An owned index entry, as produced by index build and consumed by
/// [`crate::builder::RunBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Full memcmp-comparable key (`hash ∥ eq ∥ sort ∥ ¬beginTS`).
    pub key: Vec<u8>,
    /// Value bytes (`RID ∥ enc(included cols)`).
    pub value: Vec<u8>,
}

impl IndexEntry {
    /// Build an entry from typed column values.
    pub fn new(
        layout: &KeyLayout,
        eq_values: &[Datum],
        sort_values: &[Datum],
        begin_ts: u64,
        rid: Rid,
        included_values: &[Datum],
    ) -> Result<Self> {
        let def = layout.def();
        def.check_values(def.included_columns(), included_values, "included")?;
        let key = layout.build_key(eq_values, sort_values, begin_ts)?;
        let mut value = Vec::with_capacity(RID_LEN + included_values.len() * 9);
        rid.encode_into(&mut value);
        for v in included_values {
            encode_datum(v, &mut value);
        }
        Ok(Self { key, value })
    }

    /// The entry's `beginTS`.
    pub fn begin_ts(&self) -> Result<u64> {
        KeyLayout::begin_ts_of(&self.key)
    }

    /// The entry's RID.
    pub fn rid(&self) -> Result<Rid> {
        Rid::decode(&self.value)
    }

    /// Overwrite the entry's RID in place (the value keeps its length).
    pub fn set_rid(&mut self, rid: Rid) {
        rid.encode_to(&mut self.value[..RID_LEN]);
    }
}

/// A borrowed view of an entry inside a fetched data block. Zero-copy:
/// `key`/`value` are slices of the block's [`Bytes`].
#[derive(Debug, Clone)]
pub struct EntryRef {
    /// Backing block (held to keep the slices alive cheaply).
    pub key: Bytes,
    /// Value bytes.
    pub value: Bytes,
}

impl EntryRef {
    /// The entry's `beginTS`.
    pub fn begin_ts(&self) -> Result<u64> {
        KeyLayout::begin_ts_of(&self.key)
    }

    /// The logical key (key minus the version timestamp).
    pub fn logical_key(&self) -> &[u8] {
        KeyLayout::logical_key(&self.key)
    }

    /// The entry's RID.
    pub fn rid(&self) -> Result<Rid> {
        Rid::decode(&self.value)
    }

    /// Decode the included-column values using the index definition.
    pub fn included_values(&self, def: &Arc<IndexDef>) -> Result<Vec<Datum>> {
        decode_included_values(def, &self.value)
    }

    /// Convert to an owned [`IndexEntry`].
    pub fn to_owned_entry(&self) -> IndexEntry {
        IndexEntry {
            key: self.key.to_vec(),
            value: self.value.to_vec(),
        }
    }
}

/// Decode the included-column values from raw entry value bytes
/// (`RID ∥ enc(included cols)`) without materializing an [`EntryRef`].
pub fn decode_included_values(def: &Arc<IndexDef>, value: &[u8]) -> Result<Vec<Datum>> {
    let mut pos = RID_LEN;
    let mut out = Vec::with_capacity(def.included_columns().len());
    for col in def.included_columns() {
        let (d, used) = decode_datum(col.ty, &value[pos..])?;
        out.push(d);
        pos += used;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rid::ZoneId;
    use umzi_encoding::ColumnType;

    fn layout() -> KeyLayout {
        let def = IndexDef::builder("iot")
            .equality("device", ColumnType::Int64)
            .sort("msg", ColumnType::Int64)
            .included("val", ColumnType::Int64)
            .build()
            .unwrap();
        KeyLayout::new(Arc::new(def))
    }

    #[test]
    fn entry_roundtrip() {
        let l = layout();
        let rid = Rid::new(ZoneId::GROOMED, 12, 3);
        let e = IndexEntry::new(
            &l,
            &[Datum::Int64(4)],
            &[Datum::Int64(1)],
            100,
            rid,
            &[Datum::Int64(-7)],
        )
        .unwrap();
        assert_eq!(e.begin_ts().unwrap(), 100);
        assert_eq!(e.rid().unwrap(), rid);

        let r = EntryRef {
            key: Bytes::from(e.key.clone()),
            value: Bytes::from(e.value.clone()),
        };
        assert_eq!(r.begin_ts().unwrap(), 100);
        assert_eq!(r.rid().unwrap(), rid);
        assert_eq!(r.included_values(l.def()).unwrap(), vec![Datum::Int64(-7)]);
        assert_eq!(r.to_owned_entry(), e);
    }

    #[test]
    fn included_arity_enforced() {
        let l = layout();
        let rid = Rid::new(ZoneId::GROOMED, 0, 0);
        assert!(IndexEntry::new(&l, &[Datum::Int64(4)], &[Datum::Int64(1)], 1, rid, &[]).is_err());
    }
}
