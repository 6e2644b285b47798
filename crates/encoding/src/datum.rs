//! Typed values indexed by Umzi.
//!
//! The paper's experiments use 8-byte `long` columns (§8.1); a production
//! index additionally needs strings, floats, booleans and timestamps, all of
//! which are supported by the order-preserving codec in [`crate::keycodec`].

use std::cmp::Ordering;
use std::fmt;

/// The type of a column value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatumKind {
    /// Signed 64-bit integer (the paper's `long`).
    Int64,
    /// Unsigned 64-bit integer.
    UInt64,
    /// IEEE-754 double. Total order with NaN sorted last (like `f64::total_cmp`).
    Float64,
    /// UTF-8 string.
    Str,
    /// Raw byte string.
    Bytes,
    /// Boolean.
    Bool,
    /// Microseconds since the Unix epoch; distinct from `Int64` only for
    /// self-documentation in table schemas.
    Timestamp,
}

impl DatumKind {
    /// Whether values of this kind have a fixed-width encoding.
    pub fn is_fixed_width(self) -> bool {
        !matches!(self, DatumKind::Str | DatumKind::Bytes)
    }

    /// The encoded width in bytes for fixed-width kinds.
    pub fn fixed_width(self) -> Option<usize> {
        match self {
            DatumKind::Int64 | DatumKind::UInt64 | DatumKind::Float64 | DatumKind::Timestamp => {
                Some(8)
            }
            DatumKind::Bool => Some(1),
            DatumKind::Str | DatumKind::Bytes => None,
        }
    }
}

/// A single column value.
///
/// `Datum` implements a *total* order consistent with the order-preserving
/// byte encoding: integers numerically, floats via `total_cmp`, strings and
/// bytes lexicographically. Values of different kinds are ordered by kind —
/// this situation never arises inside a single column but keeps the `Ord`
/// impl total, which `sort` and `BTreeMap`-based test oracles rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Signed 64-bit integer.
    Int64(i64),
    /// Unsigned 64-bit integer.
    UInt64(u64),
    /// IEEE-754 double.
    Float64(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Boolean.
    Bool(bool),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Datum {
    /// The kind of this datum.
    pub fn kind(&self) -> DatumKind {
        match self {
            Datum::Int64(_) => DatumKind::Int64,
            Datum::UInt64(_) => DatumKind::UInt64,
            Datum::Float64(_) => DatumKind::Float64,
            Datum::Str(_) => DatumKind::Str,
            Datum::Bytes(_) => DatumKind::Bytes,
            Datum::Bool(_) => DatumKind::Bool,
            Datum::Timestamp(_) => DatumKind::Timestamp,
        }
    }

    /// Convenience accessor for `Int64`/`Timestamp` payloads.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Datum::Int64(v) | Datum::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor for string payloads.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used to order datums of *different* kinds (never compared in
    /// well-formed columns, but keeps `Ord` total).
    fn kind_rank(&self) -> u8 {
        match self {
            Datum::Bool(_) => 0,
            Datum::Int64(_) => 1,
            Datum::UInt64(_) => 2,
            Datum::Float64(_) => 3,
            Datum::Timestamp(_) => 4,
            Datum::Str(_) => 5,
            Datum::Bytes(_) => 6,
        }
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    fn cmp(&self, other: &Self) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Int64(a), Int64(b)) => a.cmp(b),
            (UInt64(a), UInt64(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl std::hash::Hash for Datum {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind_rank().hash(state);
        match self {
            Datum::Int64(v) | Datum::Timestamp(v) => v.hash(state),
            Datum::UInt64(v) => v.hash(state),
            // total_cmp-consistent hashing: hash the bit pattern.
            Datum::Float64(v) => v.to_bits().hash(state),
            Datum::Str(s) => s.hash(state),
            Datum::Bytes(b) => b.hash(state),
            Datum::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int64(v) => write!(f, "{v}"),
            Datum::UInt64(v) => write!(f, "{v}"),
            Datum::Float64(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "{s:?}"),
            Datum::Bytes(b) => write!(f, "0x{}", hex(b)),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Timestamp(v) => write!(f, "ts:{v}"),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int64(v)
    }
}

impl From<u64> for Datum {
    fn from(v: u64) -> Self {
        Datum::UInt64(v)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float64(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Str(v.to_owned())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Str(v)
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

impl From<Vec<u8>> for Datum {
    fn from(v: Vec<u8>) -> Self {
        Datum::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_reporting() {
        assert_eq!(Datum::Int64(3).kind(), DatumKind::Int64);
        assert_eq!(Datum::Str("a".into()).kind(), DatumKind::Str);
        assert_eq!(Datum::Timestamp(9).kind(), DatumKind::Timestamp);
    }

    #[test]
    fn ordering_within_kind() {
        assert!(Datum::Int64(-5) < Datum::Int64(3));
        assert!(Datum::UInt64(1) < Datum::UInt64(u64::MAX));
        assert!(Datum::Str("abc".into()) < Datum::Str("abd".into()));
        assert!(Datum::Bool(false) < Datum::Bool(true));
    }

    #[test]
    fn float_total_order_handles_nan_and_zero() {
        assert!(Datum::Float64(f64::NEG_INFINITY) < Datum::Float64(-0.0));
        assert!(Datum::Float64(-0.0) < Datum::Float64(0.0));
        assert!(Datum::Float64(f64::INFINITY) < Datum::Float64(f64::NAN));
        assert_eq!(
            Datum::Float64(f64::NAN).cmp(&Datum::Float64(f64::NAN)),
            Ordering::Equal
        );
    }

    #[test]
    fn fixed_width_reporting() {
        assert_eq!(DatumKind::Int64.fixed_width(), Some(8));
        assert_eq!(DatumKind::Bool.fixed_width(), Some(1));
        assert_eq!(DatumKind::Str.fixed_width(), None);
        assert!(!DatumKind::Bytes.is_fixed_width());
    }

    #[test]
    fn conversions() {
        assert_eq!(Datum::from(42i64), Datum::Int64(42));
        assert_eq!(Datum::from("x"), Datum::Str("x".into()));
        assert_eq!(Datum::from(true), Datum::Bool(true));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Datum::Int64(7).to_string(), "7");
        assert_eq!(Datum::Bytes(vec![0xab, 0x01]).to_string(), "0xab01");
    }
}
