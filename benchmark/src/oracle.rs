//! The oracle: the last version written to every key the benchmark
//! generated, and the checks that compare the engine's answers with it.

use crate::gen::{
    key_of, key_parts, keys_on_device, payload, payload_parts, Batch, DEVICES, MSG_STRIDE,
};
use crate::sut::{Row, ScanDigest, Timed};

/// Operations attempted, operations that returned a typed error, and
/// answers that were wrong. A wrong answer fails the whole run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub wrong: u64,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

const KEPT_MESSAGES: usize = 8;

impl Tally {
    /// Count one operation; returns its value when the engine answered.
    pub fn take<T>(&mut self, what: &str, t: Timed<T>) -> Option<T> {
        self.attempted += 1;
        match t.out {
            Ok(v) => Some(v),
            Err(e) => {
                self.errors += 1;
                self.note(format!("{what}: error: {e}"));
                None
            }
        }
    }

    pub fn wrong(&mut self, msg: String) {
        self.wrong += 1;
        self.note(msg);
    }

    /// Count a wrong answer unless `ok`.
    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.wrong(msg());
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
        for m in other.messages {
            self.note(m);
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

/// `latest[k]` is the version of the last batch that wrote key `k`.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    latest: Vec<u16>,
}

impl Oracle {
    pub fn apply(&mut self, version: u64, batch: &Batch) {
        let version = u16::try_from(version).expect("schedule keeps versions in 16 bits");
        if self.latest.len() < batch.new_hi as usize {
            self.latest.resize(batch.new_hi as usize, 0);
        }
        for k in batch.keys() {
            self.latest[k as usize] = version;
        }
    }

    /// Keys written so far (they are `0..keys()`).
    pub fn keys(&self) -> u64 {
        self.latest.len() as u64
    }

    pub fn payload(&self, k: u64) -> i64 {
        payload(k, self.latest[k as usize])
    }

    /// Make one entry wrong, to show that the checks notice.
    pub fn corrupt(&mut self, k: u64) {
        self.latest[k as usize] ^= 1;
    }

    /// `(rows, wrapping payload sum)` of the keys of `device` whose `msg`
    /// index (`msg / MSG_STRIDE`) lies in `lo..hi`.
    pub fn expect_scan(&self, device: u64, lo: u64, hi: u64) -> (u64, u64) {
        let hi = hi.min(keys_on_device(self.keys(), device));
        let sum = (lo..hi).fold(0u64, |acc, i| {
            acc.wrapping_add(self.payload(i * DEVICES + device) as u64)
        });
        (hi.saturating_sub(lo), sum)
    }

    /// A `get` of a key that exists must return its latest payload.
    pub fn check_get(&self, tally: &mut Tally, k: u64, got: Option<Row>) {
        let (device, msg) = key_parts(k);
        let want = Row {
            device,
            msg,
            payload: self.payload(k),
        };
        tally.expect(got == Some(want), || {
            format!("get key {k}: want {want:?}, got {got:?}")
        });
    }

    /// A scan over `msg` indices `lo..hi` of `device` must return exactly
    /// the oracle's rows, in order.
    pub fn check_scan(&self, tally: &mut Tally, device: u64, lo: u64, hi: u64, got: &ScanDigest) {
        let (rows, sum) = self.expect_scan(device, lo, hi);
        let ok = got.rows == rows
            && got.well_formed
            && got.payload_sum == sum
            && (rows == 0 || got.first_msg == lo as i64 * MSG_STRIDE);
        tally.expect(ok, || {
            format!("scan device {device} msgs {lo}..{hi}: want {rows} rows sum {sum}, got {got:?}")
        });
    }
}

/// What can be said about a row read while writes go on: it carries its own
/// key and a version some batch no newer than `issued` wrote to that key.
pub fn plausible(schedule: &crate::gen::Schedule, row: Row, issued: u64) -> bool {
    let (k, version) = payload_parts(row.payload);
    let version = u64::from(version);
    k == key_of(row.device, row.msg)
        && row.msg % MSG_STRIDE == 0
        && version <= issued
        && (version == schedule.created_at(k) || schedule.wrote(version, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Schedule, Segment};
    use crate::reads::Reader;
    use crate::sut::{Hierarchy, Maintenance, Sut};
    use crate::trace::Tracer;

    /// The full-scan check the workloads run.
    fn full_scan(sut: &Sut, oracle: &Oracle, tally: &mut Tally) {
        Reader {
            sut,
            oracle,
            tally,
            tracer: &mut Tracer::new(false, std::time::Instant::now()),
            seed: 0,
        }
        .full_scan();
    }

    fn small_schedule() -> Schedule {
        Schedule::new(
            5,
            vec![Segment {
                batches: 3,
                new_per_batch: 500,
                updates_per_batch: 50,
            }],
        )
    }

    /// Three cycles through the real engine: the oracle agrees with it, and
    /// a corrupted entry is caught by a get, a short scan and the full scan.
    #[test]
    fn oracle_matches_the_engine_on_three_cycles_and_catches_corruption() {
        let schedule = small_schedule();
        let sut = Sut::create(Hierarchy::Warm, Maintenance::Inline).unwrap();
        let mut oracle = Oracle::default();
        for v in 1..=3 {
            let batch = schedule.batch(v);
            sut.upsert_many(batch.keys(), v as u16).out.unwrap();
            sut.groom().out.unwrap();
            oracle.apply(v, &batch);
        }
        sut.quiesce().out.unwrap();
        assert_eq!(oracle.keys(), 1500);
        let updated = schedule.batch(3).updates[0];
        assert_eq!(oracle.payload(updated), payload(updated, 3));

        let mut tally = Tally::default();
        full_scan(&sut, &oracle, &mut tally);
        for k in [0, updated, 1499] {
            let (d, m) = key_parts(k);
            let got = tally.take("get", sut.get(d, m)).unwrap();
            oracle.check_get(&mut tally, k, got);
        }
        let absent = tally.take("get", sut.get(3, 1)).unwrap();
        assert_eq!(absent, None, "odd msgs are never written");
        assert_eq!((tally.attempted, tally.failed()), (DEVICES + 4, 0));

        let mut bad = oracle.clone();
        bad.corrupt(updated);
        let (d, m) = key_parts(updated);
        let mut tally = Tally::default();
        let got = tally.take("get", sut.get(d, m)).unwrap();
        bad.check_get(&mut tally, updated, got);
        assert_eq!(tally.wrong, 1);
        let i = updated / DEVICES;
        let got = tally
            .take("scan", sut.scan_records(d, Some((m, m))))
            .unwrap();
        bad.check_scan(&mut tally, d as u64, i, i + 1, &got);
        assert_eq!(tally.wrong, 2);
        full_scan(&sut, &bad, &mut tally);
        assert_eq!(tally.wrong, 3);
        assert!(tally.messages[0].contains("want"));
    }

    #[test]
    fn plausible_accepts_only_versions_that_wrote_the_key() {
        let s = small_schedule();
        // An update of batch 3 that some earlier batch did not write.
        let (k, never) = s
            .batch(3)
            .updates
            .iter()
            .find_map(|k| (1..=3).find(|v| !s.wrote(*v, *k)).map(|v| (*k, v)))
            .expect("some batch skipped some updated key");
        let (device, msg) = key_parts(k);
        let row = |version| Row {
            device,
            msg,
            payload: payload(k, version),
        };
        let created = s.created_at(k) as u16;
        assert!(plausible(&s, row(created), 3));
        assert!(plausible(&s, row(3), 3));
        assert!(!plausible(&s, row(3), 2), "newer than anything issued");
        assert!(!plausible(&s, row(never as u16), 3));
        let mut other = row(3);
        other.msg += MSG_STRIDE;
        assert!(!plausible(&s, other, 3), "payload names another key");
    }
}
