//! Input generation: everything the engine is fed derives from `--seed`
//! here, so one seed gives one input stream on every commit.

/// Devices the key space is spread over (`device = k % DEVICES`).
pub const DEVICES: u64 = 64;
/// Bytes of user data in one row (four `Int64` columns).
pub const ROW_BYTES: u64 = 32;

/// xoshiro256** seeded through splitmix64; `stream` separates independent
/// sequences of one seed (one per write batch, one per read phase).
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// key counts used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Distance between the `msg` values of a device's consecutive keys. Only
/// every second `msg` exists, so an odd `msg` is an absent key that lies
/// inside every run's key range: no synopsis can prune it, each run must be
/// searched.
pub const MSG_STRIDE: i64 = 2;

/// Key `k` as the table's primary key `(device, msg)`.
pub fn key_parts(k: u64) -> (i64, i64) {
    ((k % DEVICES) as i64, (k / DEVICES) as i64 * MSG_STRIDE)
}

/// The key a present `(device, msg)` pair came from.
pub fn key_of(device: i64, msg: i64) -> u64 {
    (msg / MSG_STRIDE) as u64 * DEVICES + device as u64
}

/// The payload written for key `k` by write batch `version`.
pub fn payload(k: u64, version: u16) -> i64 {
    ((k << 16) | u64::from(version)) as i64
}

/// Split a payload back into `(key, version)`.
pub fn payload_parts(p: i64) -> (u64, u16) {
    ((p as u64) >> 16, p as u16)
}

/// Number of keys `0..n_keys` that live on `device`.
pub fn keys_on_device(n_keys: u64, device: u64) -> u64 {
    (n_keys + DEVICES - 1 - device) / DEVICES
}

/// One stretch of write batches of the same shape. Versions are numbered
/// from 1 across all segments of a [`Schedule`].
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub batches: u64,
    pub new_per_batch: u64,
    pub updates_per_batch: u64,
}

/// The keys of one write batch: a contiguous range of new keys plus updates
/// of keys that existed before the batch.
pub struct Batch {
    pub new_lo: u64,
    pub new_hi: u64,
    pub updates: Vec<u64>,
}

impl Batch {
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (self.new_lo..self.new_hi).chain(self.updates.iter().copied())
    }

    pub fn rows(&self) -> u64 {
        self.new_hi - self.new_lo + self.updates.len() as u64
    }
}

/// The whole write history of a workload as a pure function of the seed:
/// any batch can be regenerated from its version, which is how the oracle
/// checks a version read under concurrent writes without keeping history.
#[derive(Clone, Debug)]
pub struct Schedule {
    seed: u64,
    segments: Vec<Segment>,
}

impl Schedule {
    pub fn new(seed: u64, segments: Vec<Segment>) -> Self {
        let s = Schedule { seed, segments };
        assert!(s.versions() < u64::from(u16::MAX), "versions fit 16 bits");
        s
    }

    /// Number of batches (the last version).
    pub fn versions(&self) -> u64 {
        self.segments.iter().map(|s| s.batches).sum()
    }

    /// Keys that exist once batches `1..=version` are applied.
    pub fn keys_after(&self, version: u64) -> u64 {
        let mut left = version;
        let mut keys = 0;
        for s in &self.segments {
            let n = left.min(s.batches);
            keys += n * s.new_per_batch;
            left -= n;
        }
        keys
    }

    /// `(new_lo, rows)` of batch `version`. The very first batch has no
    /// earlier key to update.
    fn batch_shape(&self, version: u64) -> (u64, u64) {
        let seg = self.segment_of(version);
        let new_lo = self.keys_after(version - 1);
        let updates = if new_lo == 0 {
            0
        } else {
            seg.updates_per_batch
        };
        (new_lo, seg.new_per_batch + updates)
    }

    fn segment_of(&self, version: u64) -> Segment {
        let mut first = 1;
        for s in &self.segments {
            if version < first + s.batches {
                return *s;
            }
            first += s.batches;
        }
        panic!("version {version} beyond the schedule");
    }

    /// Regenerate batch `version` (1-based).
    pub fn batch(&self, version: u64) -> Batch {
        let seg = self.segment_of(version);
        let (new_lo, rows) = self.batch_shape(version);
        let mut rng = Rng::new(self.seed, version);
        let updates = (0..rows - seg.new_per_batch)
            .map(|_| rng.below(new_lo))
            .collect();
        Batch {
            new_lo,
            new_hi: new_lo + seg.new_per_batch,
            updates,
        }
    }

    /// The version that first wrote key `k`.
    pub fn created_at(&self, k: u64) -> u64 {
        let mut first_version = 1;
        let mut first_key = 0;
        for s in &self.segments {
            let keys = s.batches * s.new_per_batch;
            if k < first_key + keys {
                return first_version + (k - first_key) / s.new_per_batch;
            }
            first_version += s.batches;
            first_key += keys;
        }
        panic!("key {k} beyond the schedule");
    }

    /// Whether batch `version` wrote key `k`.
    pub fn wrote(&self, version: u64, k: u64) -> bool {
        if version == 0 || version > self.versions() {
            return false;
        }
        let b = self.batch(version);
        (b.new_lo..b.new_hi).contains(&k) || b.updates.contains(&k)
    }
}

/// Zipf(theta) over ranks `0..n` by inverse CDF (exact, table of `n`
/// doubles; sampling is one binary search).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        (self.cdf.partition_point(|c| *c <= u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// A fixed bijection of `0..n` that scatters Zipf ranks over the key space,
/// so hot keys do not share blocks: `rank → (rank · A + B) mod n`.
pub struct Scatter {
    n: u64,
}

const SCATTER_A: u64 = 2_654_435_761; // prime, so coprime to any smaller-factored n
const SCATTER_B: u64 = 1_013_904_223;

impl Scatter {
    pub fn new(n: u64) -> Self {
        assert!(n > 0 && gcd(SCATTER_A, n) == 1, "multiplier coprime to n");
        Scatter { n }
    }

    pub fn key(&self, rank: u64) -> u64 {
        ((u128::from(rank) * u128::from(SCATTER_A) + u128::from(SCATTER_B)) % u128::from(self.n))
            as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// How a read phase picks its keys among `0..n`.
pub enum KeyDist {
    Uniform(u64),
    Zipf { zipf: Zipf, scatter: Scatter },
}

impl KeyDist {
    /// Zipf(0.99) over `0..n`, ranks scattered over the key space.
    pub fn zipf(n: u64) -> Self {
        KeyDist::Zipf {
            zipf: Zipf::new(n, 0.99),
            scatter: Scatter::new(n),
        }
    }

    /// A key in `0..n`.
    pub fn key(&self, rng: &mut Rng) -> u64 {
        match self {
            KeyDist::Uniform(n) => rng.below(*n),
            KeyDist::Zipf { zipf, scatter } => scatter.key(zipf.sample(rng)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_streams() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        assert!((0..10_000).all(|_| r.below(37) < 37));
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(10_000, 0.99);
        let draw = |seed| {
            let mut r = Rng::new(seed, 0);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let d = draw(3);
        assert!(d.iter().all(|r| *r < 10_000));
        let top10 = d.iter().filter(|r| **r < 10).count();
        // Zipf(0.99) over 10k ranks puts ~30 % of the mass on the first 10.
        assert!((4_000..8_000).contains(&top10), "top10 = {top10}");
    }

    #[test]
    fn scatter_is_a_bijection() {
        for n in [1u64, 64, 1000, 380_000] {
            let s = Scatter::new(n);
            let mut seen = vec![false; n as usize];
            for r in 0..n {
                let k = s.key(r) as usize;
                assert!(!seen[k], "collision at rank {r}");
                seen[k] = true;
            }
        }
    }

    #[test]
    fn schedule_regenerates_batches_and_answers_membership() {
        let seg = |batches, new_per_batch, updates_per_batch| Segment {
            batches,
            new_per_batch,
            updates_per_batch,
        };
        let s = Schedule::new(9, vec![seg(3, 100, 10), seg(5, 45, 5)]);
        assert_eq!(s.versions(), 8);
        assert_eq!(s.keys_after(3), 300);
        assert_eq!(s.keys_after(8), 300 + 5 * 45);
        assert_eq!(
            (1..=8).map(|v| s.batch(v).rows()).sum::<u64>(),
            100 + 2 * 110 + 5 * 50
        );
        assert!(s.batch(1).updates.is_empty());
        let b = s.batch(5);
        assert_eq!((b.new_lo, b.new_hi, b.updates.len()), (345, 390, 5));
        assert!(b.updates.iter().all(|k| *k < 345));
        assert_eq!(b.updates, s.batch(5).updates);
        assert_eq!(s.created_at(0), 1);
        assert_eq!(s.created_at(299), 3);
        assert_eq!(s.created_at(300), 4);
        assert_eq!(s.created_at(389), 5);
        for k in b.keys() {
            assert!(s.wrote(5, k));
        }
        assert!(!s.wrote(5, 390));
        assert!(!s.wrote(0, 0) && !s.wrote(9, 0));
    }

    #[test]
    fn key_mapping_round_trips() {
        for k in [0u64, 63, 64, 65, 1_000_003] {
            let (d, m) = key_parts(k);
            assert_eq!(key_of(d, m), k);
            assert_eq!(payload_parts(payload(k, 517)), (k, 517));
        }
        assert_eq!(
            (0..DEVICES).map(|d| keys_on_device(1000, d)).sum::<u64>(),
            1000
        );
        assert_eq!(keys_on_device(65, 0), 2);
        assert_eq!(keys_on_device(65, 1), 1);
    }
}
