//! Order-preserving ("memcmp-comparable") byte encoding of datums.
//!
//! §4.2 of the paper: *"All ordering columns ... are stored in
//! lexicographically comparable formats, similar to LevelDB, so that keys can
//! be compared by simply using memory compare operations."*
//!
//! Encodings, all chosen so unsigned byte-wise comparison of the encodings
//! matches the natural value order, and so every column encoding is
//! prefix-free *within its type* (required for composite keys):
//!
//! | type     | encoding |
//! |----------|----------|
//! | `UInt64` | 8 bytes big-endian |
//! | `Int64` / `Timestamp` | sign bit flipped, then 8 bytes big-endian |
//! | `Float64`| if sign bit set flip all bits, else flip sign bit; big-endian |
//! | `Bool`   | one byte, 0 or 1 |
//! | `Str` / `Bytes` | `0x00` escaped as `0x00 0xFF`, terminated by `0x00 0x00` |
//!
//! Descending order (used for `beginTS`, §4.2: *"We sort the beginTS column
//! in descending order to facilitate the access of more recent versions"*) is
//! obtained by complementing every encoded byte.

use crate::datum::{Datum, DatumKind};
use crate::error::EncodingError;
use crate::Result;

/// Escape byte for embedded zeros in byte-string encodings.
const ESCAPE: u8 = 0x00;
/// Marker following an escape byte for a literal `0x00`.
const ESCAPED_00: u8 = 0xFF;
/// Marker following an escape byte that terminates the byte string.
const TERMINATOR: u8 = 0x00;

/// Append the order-preserving encoding of `datum` to `out`.
pub fn encode_datum(datum: &Datum, out: &mut Vec<u8>) {
    match datum {
        Datum::UInt64(v) => out.extend_from_slice(&v.to_be_bytes()),
        Datum::Int64(v) | Datum::Timestamp(v) => {
            out.extend_from_slice(&((*v as u64) ^ (1 << 63)).to_be_bytes())
        }
        Datum::Float64(v) => out.extend_from_slice(&order_f64(*v).to_be_bytes()),
        Datum::Bool(v) => out.push(*v as u8),
        Datum::Str(s) => encode_bytes(s.as_bytes(), out),
        Datum::Bytes(b) => encode_bytes(b, out),
    }
}

/// Append the *descending* order-preserving encoding of `datum` to `out`
/// (every byte complemented).
pub fn encode_datum_desc(datum: &Datum, out: &mut Vec<u8>) {
    let start = out.len();
    encode_datum(datum, out);
    for b in &mut out[start..] {
        *b = !*b;
    }
}

/// Encode a slice of datums as one concatenated composite key fragment.
pub fn encode_datums(datums: &[Datum]) -> Vec<u8> {
    let mut out = Vec::with_capacity(datums.len() * 9);
    for d in datums {
        encode_datum(d, &mut out);
    }
    out
}

/// Map an `f64` onto a `u64` whose unsigned order equals `total_cmp` order.
fn order_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        // Negative: flip everything so more-negative sorts lower.
        !bits
    } else {
        // Positive: set the sign bit so positives sort above negatives.
        bits ^ (1 << 63)
    }
}

fn unorder_f64(enc: u64) -> f64 {
    if enc >> 63 == 1 {
        f64::from_bits(enc ^ (1 << 63))
    } else {
        f64::from_bits(!enc)
    }
}

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        if b == ESCAPE {
            out.push(ESCAPE);
            out.push(ESCAPED_00);
        } else {
            out.push(b);
        }
    }
    out.push(ESCAPE);
    out.push(TERMINATOR);
}

/// Decode a single datum of the given kind from the front of `input`,
/// returning the datum and the number of bytes consumed.
pub fn decode_datum(kind: DatumKind, input: &[u8]) -> Result<(Datum, usize)> {
    match kind {
        DatumKind::UInt64 => {
            let v = take8(input, "u64")?;
            Ok((Datum::UInt64(u64::from_be_bytes(v)), 8))
        }
        DatumKind::Int64 => {
            let v = take8(input, "i64")?;
            Ok((Datum::Int64((u64::from_be_bytes(v) ^ (1 << 63)) as i64), 8))
        }
        DatumKind::Timestamp => {
            let v = take8(input, "timestamp")?;
            Ok((
                Datum::Timestamp((u64::from_be_bytes(v) ^ (1 << 63)) as i64),
                8,
            ))
        }
        DatumKind::Float64 => {
            let v = take8(input, "f64")?;
            Ok((Datum::Float64(unorder_f64(u64::from_be_bytes(v))), 8))
        }
        DatumKind::Bool => {
            let b = *input
                .first()
                .ok_or(EncodingError::UnexpectedEof { context: "bool" })?;
            match b {
                0 => Ok((Datum::Bool(false), 1)),
                1 => Ok((Datum::Bool(true), 1)),
                _ => Err(EncodingError::Corrupt {
                    context: "bool byte out of range",
                }),
            }
        }
        DatumKind::Str => {
            let (raw, used) = decode_bytes(input)?;
            let s = String::from_utf8(raw).map_err(|_| EncodingError::InvalidUtf8)?;
            Ok((Datum::Str(s), used))
        }
        DatumKind::Bytes => {
            let (raw, used) = decode_bytes(input)?;
            Ok((Datum::Bytes(raw), used))
        }
    }
}

fn take8(input: &[u8], context: &'static str) -> Result<[u8; 8]> {
    input
        .get(..8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .ok_or(EncodingError::UnexpectedEof { context })
}

fn decode_bytes(input: &[u8]) -> Result<(Vec<u8>, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let b = *input.get(i).ok_or(EncodingError::UnexpectedEof {
            context: "byte string",
        })?;
        if b != ESCAPE {
            out.push(b);
            i += 1;
            continue;
        }
        let marker = *input.get(i + 1).ok_or(EncodingError::UnexpectedEof {
            context: "byte string escape",
        })?;
        match marker {
            TERMINATOR => return Ok((out, i + 2)),
            ESCAPED_00 => {
                out.push(0x00);
                i += 2;
            }
            _ => {
                return Err(EncodingError::Corrupt {
                    context: "bad escape marker",
                })
            }
        }
    }
}

/// Incremental writer for composite keys.
///
/// Collects per-column encodings into one memcmp-comparable buffer. Used by
/// the run format to build `hash ∥ equality ∥ sort ∥ ¬beginTS` keys.
#[derive(Debug, Default)]
pub struct KeyWriter {
    buf: Vec<u8>,
}

impl KeyWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Create a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append an ascending-encoded datum.
    pub fn put(&mut self, datum: &Datum) -> &mut Self {
        encode_datum(datum, &mut self.buf);
        self
    }

    /// Append a big-endian `u64` (already order-preserving).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a `u64` encoded so the byte order is *descending* in `v`.
    pub fn put_u64_desc(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&(!v).to_be_bytes());
        self
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the key bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Incremental reader over a composite key produced by [`KeyWriter`].
#[derive(Debug)]
pub struct KeyReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> KeyReader<'a> {
    /// Wrap a key byte slice.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Decode the next datum of the given kind.
    pub fn read(&mut self, kind: DatumKind) -> Result<Datum> {
        let (d, used) = decode_datum(kind, &self.input[self.pos..])?;
        self.pos += used;
        Ok(d)
    }

    /// Read a raw big-endian `u64` (e.g. the hash column).
    pub fn read_u64(&mut self) -> Result<u64> {
        let v = take8(&self.input[self.pos..], "raw u64")?;
        self.pos += 8;
        Ok(u64::from_be_bytes(v))
    }

    /// Read a `u64` written with [`KeyWriter::put_u64_desc`].
    pub fn read_u64_desc(&mut self) -> Result<u64> {
        Ok(!self.read_u64()?)
    }

    /// Current byte offset within the key.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> &'a [u8] {
        &self.input[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(d: &Datum) -> Vec<u8> {
        let mut v = Vec::new();
        encode_datum(d, &mut v);
        v
    }

    #[test]
    fn u64_order_preserved() {
        let vals = [0u64, 1, 255, 256, u64::MAX / 2, u64::MAX];
        for a in vals {
            for b in vals {
                assert_eq!(
                    enc(&Datum::UInt64(a)).cmp(&enc(&Datum::UInt64(b))),
                    a.cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn i64_order_preserved_across_sign() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 7, i64::MAX];
        for a in vals {
            for b in vals {
                assert_eq!(
                    enc(&Datum::Int64(a)).cmp(&enc(&Datum::Int64(b))),
                    a.cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn f64_order_preserved_including_nan() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            1.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in vals {
            for b in vals {
                assert_eq!(
                    enc(&Datum::Float64(a)).cmp(&enc(&Datum::Float64(b))),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn strings_with_embedded_zeros_order_and_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x00],
            vec![0x00, 0x00],
            vec![0x00, 0x01],
            vec![0x01],
            vec![0x01, 0x00],
            vec![0xFF],
            b"hello".to_vec(),
            b"hello world".to_vec(),
        ];
        for a in &cases {
            for b in &cases {
                assert_eq!(
                    enc(&Datum::Bytes(a.clone())).cmp(&enc(&Datum::Bytes(b.clone()))),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
            let e = enc(&Datum::Bytes(a.clone()));
            let (d, used) = decode_datum(DatumKind::Bytes, &e).unwrap();
            assert_eq!(used, e.len());
            assert_eq!(d, Datum::Bytes(a.clone()));
        }
    }

    #[test]
    fn bytes_prefix_free_in_composites() {
        // "a" ∥ "b" must not be confusable with "ab" ∥ "".
        let k1 = encode_datums(&[Datum::Str("a".into()), Datum::Str("b".into())]);
        let k2 = encode_datums(&[Datum::Str("ab".into()), Datum::Str("".into())]);
        assert_ne!(k1, k2);
        // And ordering of composites must follow tuple ordering.
        assert!(k1 < k2); // ("a","b") < ("ab","")
    }

    #[test]
    fn roundtrip_all_kinds() {
        let datums = vec![
            Datum::Int64(-42),
            Datum::UInt64(42),
            Datum::Float64(-2.75),
            Datum::Str("héllo".into()),
            Datum::Bytes(vec![1, 0, 2]),
            Datum::Bool(true),
            Datum::Timestamp(1_700_000_000_000),
        ];
        for d in datums {
            let e = enc(&d);
            let (back, used) = decode_datum(d.kind(), &e).unwrap();
            assert_eq!(used, e.len());
            assert_eq!(back, d);
        }
    }

    #[test]
    fn descending_encoding_reverses_order() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_datum_desc(&Datum::Int64(1), &mut a);
        encode_datum_desc(&Datum::Int64(2), &mut b);
        assert!(a > b, "descending: enc(1) must sort after enc(2)");
    }

    #[test]
    fn key_writer_reader_roundtrip() {
        let mut w = KeyWriter::new();
        w.put_u64(0xDEAD_BEEF)
            .put(&Datum::Int64(-3))
            .put(&Datum::Str("k".into()))
            .put_u64_desc(100);
        let key = w.finish();

        let mut r = KeyReader::new(&key);
        assert_eq!(r.read_u64().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read(DatumKind::Int64).unwrap(), Datum::Int64(-3));
        assert_eq!(r.read(DatumKind::Str).unwrap(), Datum::Str("k".into()));
        assert_eq!(r.read_u64_desc().unwrap(), 100);
        assert!(r.remaining().is_empty());
    }

    #[test]
    fn u64_desc_ordering() {
        let mut w1 = KeyWriter::new();
        let mut w2 = KeyWriter::new();
        w1.put_u64_desc(5);
        w2.put_u64_desc(9);
        // Larger timestamps must sort FIRST (descending).
        assert!(w2.finish() < w1.finish());
    }

    #[test]
    fn decode_errors() {
        assert!(matches!(
            decode_datum(DatumKind::Int64, &[1, 2, 3]),
            Err(EncodingError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            decode_datum(DatumKind::Bool, &[9]),
            Err(EncodingError::Corrupt { .. })
        ));
        // Unterminated byte string.
        assert!(matches!(
            decode_datum(DatumKind::Bytes, b"ab"),
            Err(EncodingError::UnexpectedEof { .. })
        ));
        // Bad escape marker.
        assert!(matches!(
            decode_datum(DatumKind::Bytes, &[0x00, 0x42]),
            Err(EncodingError::Corrupt { .. })
        ));
    }
}
