//! The four read operations and their timed phases over a dataset that
//! does not change: closed loop, one client, every answer checked.

use std::time::{Duration, Instant};

use crate::gen::{key_parts, keys_on_device, KeyDist, Rng, DEVICES, MSG_STRIDE};
use crate::oracle::{Oracle, Tally};
use crate::stats::Sample;
use crate::sut::{Counters, Sut, Timed};
use crate::trace::{Tracer, NO_PARENT};

/// Keys per `batch_lookup`, as in the paper's §8.4 query.
pub const BATCH_KEYS: u64 = 1000;
/// Rows a short scan returns.
pub const SHORT_SCAN_ROWS: u64 = 100;
/// Share of `get`s that ask for an absent key.
const ABSENT_SHARE: f64 = 0.10;
/// Seconds of one round of the four phases by default: a phase is cut into
/// slices and the phases' slices interleave, so that every metric samples
/// the whole run; each metric is taken per slice and summarised over the
/// slices (see `stats::summarise`). Short slices, so that a quiet stretch of
/// the host holds a few whole ones.
const ROUND_SECONDS: f64 = 0.5;

/// Latency samples of one operation type, in the slices of the run they
/// were taken in.
#[derive(Debug, Default)]
pub struct OpAcc {
    pub samples: Vec<Sample>,
    /// Index of the first sample of each slice.
    starts: Vec<usize>,
}

impl OpAcc {
    /// The samples that follow belong to a new slice.
    pub fn begin_slice(&mut self) {
        if self.starts.last() != Some(&self.samples.len()) {
            self.starts.push(self.samples.len());
        }
    }

    pub fn push<T>(&mut self, t: &Timed<T>, units: u64) {
        self.push_ns(t.ns(), units);
    }

    pub fn push_ns(&mut self, ns: u64, units: u64) {
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        self.samples.push(Sample { ns, units });
    }

    /// One value per non-empty slice.
    pub fn per_slice(&self, stat: fn(&[Sample]) -> f64) -> Vec<f64> {
        self.slices().into_iter().map(stat).collect()
    }

    /// The non-empty slices, in order.
    pub fn slices(&self) -> Vec<&[Sample]> {
        let ends = self
            .starts
            .iter()
            .skip(1)
            .copied()
            .chain([self.samples.len()]);
        self.starts
            .iter()
            .zip(ends)
            .map(|(a, b)| &self.samples[*a..b])
            .filter(|s| !s.is_empty())
            .collect()
    }

    /// Time spent inside the engine.
    pub fn busy_ns(&self) -> u64 {
        self.samples.iter().map(|s| s.ns).sum()
    }

    pub fn units(&self) -> u64 {
        self.samples.iter().map(|s| s.units).sum()
    }
}

/// What the slices of one phase did to the layers' counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCounters {
    pub delta: Counters,
    pub ops: u64,
    pub busy_ns: u64,
}

#[derive(Debug, Default)]
pub struct ReadAcc {
    pub get: OpAcc,
    pub batch: OpAcc,
    pub scan_short: OpAcc,
    pub scan_long: OpAcc,
    pub get_counters: PhaseCounters,
    pub scan_long_counters: PhaseCounters,
    /// Over all four phases.
    pub all_counters: Counters,
}

/// Seconds given to each of the four phases; 0 skips a phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSeconds {
    pub get: f64,
    pub batch: f64,
    pub scan_short: f64,
    pub scan_long: f64,
    /// Slices each phase is cut into; every slice runs at least one
    /// operation.
    pub rounds: u32,
}

impl PhaseSeconds {
    /// `total` seconds split over the phases in fixed shares.
    pub fn split(total: f64) -> Self {
        PhaseSeconds {
            get: total * 0.30,
            batch: total * 0.20,
            scan_short: total * 0.20,
            scan_long: total * 0.30,
            rounds: ((total / ROUND_SECONDS).round() as u32).max(4),
        }
    }
}

/// One reader over a fixed dataset.
pub struct Reader<'a> {
    pub sut: &'a Sut,
    pub oracle: &'a Oracle,
    pub tally: &'a mut Tally,
    pub tracer: &'a mut Tracer,
    pub seed: u64,
}

/// Streams of the seed, one per phase (write batches use their versions,
/// which stay far below these).
const STREAM_GET: u64 = 1 << 32;
const STREAM_BATCH: u64 = 2 << 32;
const STREAM_SCAN_SHORT: u64 = 3 << 32;
pub const STREAM_PROBE: u64 = 4 << 32;
pub const STREAM_HTAP_READER: u64 = 5 << 32;

impl Reader<'_> {
    /// One `get`: a present key drawn from `dist`, or (one in ten) an
    /// absent `msg` of a live device that lies inside the key range.
    pub fn get(&mut self, rng: &mut Rng, dist: &KeyDist, acc: &mut OpAcc, op_id: u32) {
        let absent = rng.unit() < ABSENT_SHARE;
        let k = dist.key(rng);
        let (device, msg) = key_parts(k);
        let t = self.sut.get(device, msg + i64::from(absent));
        self.tracer.record("op.get", op_id, NO_PARENT, &t);
        acc.push(&t, 1);
        if let Some(got) = self.tally.take("get", t) {
            if absent {
                self.tally.expect(got.is_none(), || {
                    format!("get absent ({device}, {}): got {got:?}", msg + 1)
                });
            } else {
                self.oracle.check_get(self.tally, k, got);
            }
        }
    }

    /// One `batch_lookup` of [`BATCH_KEYS`] uniformly random present keys.
    pub fn batch(&mut self, rng: &mut Rng, acc: &mut OpAcc, op_id: u32) {
        let n = self.oracle.keys();
        let keys: Vec<u64> = (0..BATCH_KEYS).map(|_| rng.below(n)).collect();
        let t = self.sut.batch_lookup(&keys);
        self.tracer.record("op.batch", op_id, NO_PARENT, &t);
        acc.push(&t, BATCH_KEYS);
        if let Some(got) = self.tally.take("batch", t) {
            let ok = got.len() == keys.len()
                && keys
                    .iter()
                    .zip(&got)
                    .all(|(k, p)| *p == Some(self.oracle.payload(*k)));
            self.tally.expect(ok, || {
                format!("batch of {} keys: wrong payloads", keys.len())
            });
        }
    }

    /// One scan of [`SHORT_SCAN_ROWS`] consecutive keys of a random device.
    pub fn scan_short(&mut self, rng: &mut Rng, acc: &mut OpAcc, op_id: u32) {
        let device = rng.below(DEVICES);
        let on_device = keys_on_device(self.oracle.keys(), device);
        let lo = rng.below(on_device - SHORT_SCAN_ROWS);
        let hi = lo + SHORT_SCAN_ROWS;
        let range = (lo as i64 * MSG_STRIDE, (hi as i64 - 1) * MSG_STRIDE);
        let t = self.sut.scan_records(device as i64, Some(range));
        self.tracer.record("op.scan_short", op_id, NO_PARENT, &t);
        acc.push(&t, SHORT_SCAN_ROWS);
        if let Some(got) = self.tally.take("scan_short", t) {
            self.oracle.check_scan(self.tally, device, lo, hi, &got);
        }
    }

    /// One scan of a whole device.
    pub fn scan_long(&mut self, device: u64, acc: &mut OpAcc, op_id: u32) {
        let on_device = keys_on_device(self.oracle.keys(), device);
        let t = self.sut.scan_records(device as i64, None);
        self.tracer.record("op.scan_long", op_id, NO_PARENT, &t);
        acc.push(&t, on_device);
        if let Some(got) = self.tally.take("scan_long", t) {
            self.oracle
                .check_scan(self.tally, device, 0, on_device, &got);
        }
    }

    /// Scan every device in full: the row-for-row check of the whole
    /// dataset against the oracle, and 64 `scan_long` samples.
    pub fn full_scan(&mut self) -> (OpAcc, PhaseCounters) {
        let mut acc = OpAcc::default();
        let before = self.sut.counters();
        for device in 0..DEVICES {
            self.scan_long(device, &mut acc, device as u32);
        }
        let counters = PhaseCounters {
            delta: self.sut.counters().since(&before),
            ops: acc.units(),
            busy_ns: acc.busy_ns(),
        };
        (acc, counters)
    }

    /// The four phases, interleaved in `secs.rounds` slices each. Results
    /// are added to `acc`.
    pub fn phases(&mut self, get_dist: &KeyDist, secs: PhaseSeconds, acc: &mut ReadAcc) {
        let start = self.sut.counters();
        let mut get_rng = Rng::new(self.seed, STREAM_GET);
        let mut batch_rng = Rng::new(self.seed, STREAM_BATCH);
        let mut short_rng = Rng::new(self.seed, STREAM_SCAN_SHORT);
        // Devices round-robin from one the seed picks.
        let mut device = self.seed % DEVICES;
        let mut op = 0u32;
        let rounds = secs.rounds;

        // Run `f` for one slice of a phase of `secs` (at least once; not at
        // all for a phase of 0 s) and return what it did to the counters.
        let mut slice = |me: &mut Self, secs: f64, f: &mut dyn FnMut(&mut Self, u32)| {
            let before = me.sut.counters();
            if secs > 0.0 {
                let deadline = Instant::now() + Duration::from_secs_f64(secs / f64::from(rounds));
                loop {
                    f(me, op);
                    op += 1;
                    if Instant::now() >= deadline {
                        break;
                    }
                }
            }
            me.sut.counters().since(&before)
        };

        for _ in 0..rounds {
            let ReadAcc {
                get,
                batch,
                scan_short,
                scan_long,
                get_counters,
                scan_long_counters,
                ..
            } = &mut *acc;
            for op_acc in [&mut *get, &mut *batch, &mut *scan_short, &mut *scan_long] {
                op_acc.begin_slice();
            }
            let delta = slice(self, secs.get, &mut |me, op| {
                me.get(&mut get_rng, get_dist, get, op)
            });
            get_counters.delta = get_counters.delta.plus(&delta);
            slice(self, secs.batch, &mut |me, op| {
                me.batch(&mut batch_rng, batch, op)
            });
            slice(self, secs.scan_short, &mut |me, op| {
                me.scan_short(&mut short_rng, scan_short, op)
            });
            let delta = slice(self, secs.scan_long, &mut |me, op| {
                me.scan_long(device, scan_long, op);
                device = (device + 1) % DEVICES;
            });
            scan_long_counters.delta = scan_long_counters.delta.plus(&delta);
        }
        acc.get_counters.ops = acc.get.samples.len() as u64;
        acc.get_counters.busy_ns = acc.get.busy_ns();
        if secs.scan_long > 0.0 {
            acc.scan_long_counters.ops = acc.scan_long.units();
            acc.scan_long_counters.busy_ns = acc.scan_long.busy_ns();
        }
        acc.all_counters = self.sut.counters().since(&start);
    }
}
