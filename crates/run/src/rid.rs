//! Record identifiers.
//!
//! Footnote 2 of the paper: *"In Wildfire, an RID is identified by the
//! combination of zone, block ID, and record offset."* RIDs are **not**
//! stable across zones — when data evolves from the groomed to the
//! post-groomed zone it gets a new RID, which is precisely why Umzi cannot
//! use a WiscKey-style fixed-RID design and needs the evolve operation (§3).

use crate::error::RunError;
use crate::Result;

/// The zone a record (or index run) belongs to.
///
/// The paper presents two indexed zones; the representation supports up to
/// 256 so Umzi can be configured for *"other HTAP systems with arbitrary
/// number of zones"* (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u8);

impl ZoneId {
    /// The groomed zone (transaction-friendly organization).
    pub const GROOMED: ZoneId = ZoneId(0);
    /// The post-groomed zone (analytics-friendly organization).
    pub const POST_GROOMED: ZoneId = ZoneId(1);
}

impl std::fmt::Display for ZoneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ZoneId::GROOMED => write!(f, "groomed"),
            ZoneId::POST_GROOMED => write!(f, "post-groomed"),
            ZoneId(n) => write!(f, "zone-{n}"),
        }
    }
}

/// Encoded length of a [`Rid`].
pub const RID_LEN: usize = 13;

/// A record identifier: `(zone, data block ID, record offset within block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Zone holding the data block.
    pub zone: ZoneId,
    /// Data-block ID within the zone.
    pub block_id: u64,
    /// Record offset (row number) within the block.
    pub offset: u32,
}

impl Rid {
    /// Construct a RID.
    pub fn new(zone: ZoneId, block_id: u64, offset: u32) -> Self {
        Self {
            zone,
            block_id,
            offset,
        }
    }

    /// Serialize into exactly [`RID_LEN`] bytes appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + RID_LEN, 0);
        self.encode_to(&mut out[start..]);
    }

    /// Serialize over exactly [`RID_LEN`] existing bytes.
    pub fn encode_to(&self, out: &mut [u8]) {
        out[0] = self.zone.0;
        out[1..9].copy_from_slice(&self.block_id.to_le_bytes());
        out[9..RID_LEN].copy_from_slice(&self.offset.to_le_bytes());
    }

    /// Deserialize from the front of `input`.
    pub fn decode(input: &[u8]) -> Result<Rid> {
        if input.len() < RID_LEN {
            return Err(RunError::Corrupt {
                context: "truncated RID".into(),
            });
        }
        Ok(Rid {
            zone: ZoneId(input[0]),
            block_id: u64::from_le_bytes(input[1..9].try_into().expect("8 bytes")),
            offset: u32::from_le_bytes(input[9..13].try_into().expect("4 bytes")),
        })
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.zone, self.block_id, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rid = Rid::new(ZoneId::POST_GROOMED, 0xDEAD_BEEF_CAFE, 42);
        let mut buf = Vec::new();
        rid.encode_into(&mut buf);
        assert_eq!(buf.len(), RID_LEN);
        assert_eq!(Rid::decode(&buf).unwrap(), rid);
    }

    #[test]
    fn truncated_rid_rejected() {
        assert!(Rid::decode(&[0u8; RID_LEN - 1]).is_err());
    }

    #[test]
    fn zone_display() {
        assert_eq!(ZoneId::GROOMED.to_string(), "groomed");
        assert_eq!(ZoneId::POST_GROOMED.to_string(), "post-groomed");
        assert_eq!(ZoneId(5).to_string(), "zone-5");
    }
}
