//! Per-run key filter: a blocked Bloom filter over the run's distinct
//! logical keys (`hash ∥ eq ∥ sort`, without `¬beginTS`).
//!
//! The paper's point lookup (§7.2) searches runs newest to oldest, and its
//! only pruning is the per-run min/max synopsis (§4.2), which prunes nothing
//! once every run spans the key domain. The filter answers "this run holds
//! no version of the key" from one cache line, before any fence search or
//! block read, in the manner of MV-PBT's partition filters.
//!
//! Layout: `⌊8n / 512⌋` blocks of 512 bits (at least one) for `n` distinct
//! keys, so at most 8 bits per key once a run holds 64 keys. One
//! [`hash64`] of the logical key, folded to 32 bits, picks the block
//! (scaled onto the block count) and, through one multiply, the six bits
//! set inside it. Every version of a key hashes alike, so a
//! key's versions count once; a run builder keeps 4 bytes per distinct key
//! until the filter, sized by their number, is built.

use umzi_encoding::hash64;

/// Filter bits per distinct logical key (a constant, not a knob).
const BITS_PER_KEY: usize = 8;
/// Bits set per key, all inside the key's one block.
const PROBES: u32 = 6;
/// Bits per filter block: one 64-byte cache line.
const BLOCK_BITS: usize = 512;
/// Bytes per filter block, as stored in the run header.
pub(crate) const BLOCK_BYTES: usize = BLOCK_BITS / 8;
/// Bits that address one bit inside a block.
const BIT_INDEX_BITS: u32 = BLOCK_BITS.trailing_zeros();

/// One 512-bit block, aligned to a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, align(64))]
struct Block([u64; BLOCK_BITS / 64]);

/// A blocked Bloom filter over a run's distinct logical keys. No false
/// negatives: every key that was inserted passes. An empty filter (a run
/// with no entries) passes nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeyFilter {
    blocks: Vec<Block>,
}

/// The positions of the [`PROBES`] bits a key hash sets in its block: nine
/// bits each from the top of one odd multiple of the hash, which mixes every
/// hash bit into them (the block index is the hash's own high bits).
fn bit_positions(hash: u32) -> impl Iterator<Item = usize> {
    let mixed = u64::from(hash).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (1..=PROBES).map(move |i| (mixed >> (64 - i * BIT_INDEX_BITS)) as usize & (BLOCK_BITS - 1))
}

impl KeyFilter {
    /// The filter hash of a logical key. Hash a probe key once and test it
    /// against every run.
    pub fn hash(logical_key: &[u8]) -> u32 {
        let h = hash64(logical_key);
        (h ^ (h >> 32)) as u32
    }

    /// A filter over the distinct keys whose [`Self::hash`]es are `hashes`:
    /// one cache-line write per key.
    pub fn build(hashes: &[u32]) -> KeyFilter {
        let n_blocks = if hashes.is_empty() {
            0
        } else {
            (hashes.len() * BITS_PER_KEY / BLOCK_BITS).max(1)
        };
        let mut filter = KeyFilter {
            blocks: vec![Block::default(); n_blocks],
        };
        for &hash in hashes {
            let b = filter.block_of(hash);
            let block = &mut filter.blocks[b].0;
            for bit in bit_positions(hash) {
                block[bit / 64] |= 1 << (bit % 64);
            }
        }
        filter
    }

    /// Block index of a hash: the hash scaled onto the block count.
    fn block_of(&self, hash: u32) -> usize {
        ((u64::from(hash) * self.blocks.len() as u64) >> 32) as usize
    }

    /// Whether the run may hold a key with this [`Self::hash`]. `false` is
    /// exact: the run holds no version of the key.
    pub fn may_contain(&self, hash: u32) -> bool {
        if self.blocks.is_empty() {
            return false;
        }
        let block = &self.blocks[self.block_of(hash)].0;
        bit_positions(hash).all(|bit| block[bit / 64] & (1 << (bit % 64)) != 0)
    }

    /// Number of 512-bit blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Size of the filter's bits in bytes.
    pub fn byte_len(&self) -> usize {
        self.blocks.len() * BLOCK_BYTES
    }

    /// Append the filter's bits, little-endian words, block after block.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.byte_len());
        for block in &self.blocks {
            for word in block.0 {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }

    /// Reassemble a filter from [`Self::write_to`]'s bytes, a whole number
    /// of blocks.
    pub(crate) fn from_bytes(bytes: &[u8]) -> KeyFilter {
        debug_assert!(bytes.len().is_multiple_of(BLOCK_BYTES));
        let blocks = bytes
            .chunks_exact(BLOCK_BYTES)
            .map(|b| {
                let mut words = [0u64; BLOCK_BITS / 64];
                for (w, raw) in words.iter_mut().zip(b.chunks_exact(8)) {
                    *w = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
                }
                Block(words)
            })
            .collect();
        KeyFilter { blocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        let mut k = b"device-".to_vec();
        k.extend_from_slice(&i.to_be_bytes());
        k
    }

    #[test]
    fn every_inserted_key_passes() {
        for n in [1u64, 5, 63, 64, 65, 1000, 20_000] {
            let hashes: Vec<u32> = (0..n).map(|i| KeyFilter::hash(&key(i))).collect();
            let f = KeyFilter::build(&hashes);
            assert!(f.byte_len() * 8 <= (n as usize * BITS_PER_KEY).max(BLOCK_BITS));
            assert!(hashes.iter().all(|&h| f.may_contain(h)), "n = {n}");
        }
    }

    /// At 8 bits per key the false-positive rate stays at or below 4 % (a
    /// standard Bloom filter's optimum is ~2.2 %; blocking costs a little).
    #[test]
    fn false_positive_rate_at_eight_bits_per_key() {
        let n = 50_000u64;
        let hashes: Vec<u32> = (0..n).map(|i| KeyFilter::hash(&key(i))).collect();
        let f = KeyFilter::build(&hashes);
        assert!(f.byte_len() * 8 <= n as usize * BITS_PER_KEY);
        let trials = 200_000u64;
        let passed = (n..n + trials)
            .filter(|&i| f.may_contain(KeyFilter::hash(&key(i))))
            .count();
        let rate = passed as f64 / trials as f64;
        eprintln!("false-positive rate {rate:.4}");
        assert!(rate <= 0.04, "false-positive rate {rate:.4}");
    }

    #[test]
    fn empty_filter_passes_nothing() {
        let f = KeyFilter::build(&[]);
        assert_eq!(f.block_count(), 0);
        assert!(!f.may_contain(KeyFilter::hash(b"anything")));
    }

    #[test]
    fn bytes_roundtrip() {
        let hashes: Vec<u32> = (0..300).map(|i| KeyFilter::hash(&key(i))).collect();
        let f = KeyFilter::build(&hashes);
        let mut bytes = Vec::new();
        f.write_to(&mut bytes);
        assert_eq!(bytes.len(), f.byte_len());
        assert_eq!(KeyFilter::from_bytes(&bytes), f);
    }
}
