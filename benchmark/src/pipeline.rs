//! The write path driven inline, one step at a time: `upsert_many`, groom,
//! merges, garbage collection and, every few cycles, post-groom and evolve.
//! Building the datasets and the `ingest_pipeline` workload both run this,
//! so every step is timed the same way in both.

use std::time::Instant;

use crate::gen::{key_parts, Schedule};
use crate::oracle::{Oracle, Tally};
use crate::stats::{best_per_index, median};
use crate::sut::{Hierarchy, Maintenance, Sut, Timed};
use crate::trace::{Tracer, NO_PARENT};

/// What the write path cost. Times are nanoseconds inside engine calls.
#[derive(Clone, Debug, Default)]
pub struct WriteAcc {
    pub rows: u64,
    pub upsert_ns: Vec<u64>,
    pub groom_ns: u64,
    pub groom_rows: u64,
    pub groom_bytes: u64,
    pub merge_ns: u64,
    /// Bytes put to the shared store while merges ran.
    pub merge_bytes: u64,
    pub gc_ns: u64,
    pub post_groom_ns: u64,
    pub evolve_ns: u64,
    pub quiesce_ns: u64,
    /// Commit ack → first `get` that sees the batch, per batch.
    pub freshness_ns: Vec<u64>,
    pub live_zone_peak_rows: u64,
    /// `(rows, ns inside the engine)` of every cycle of every complete
    /// post-groom period: the cycles after one post-groom up to and
    /// including the next.
    pub period_cycles: Vec<(u64, u64)>,
}

impl WriteAcc {
    /// Time inside the engine for the whole pipeline.
    pub fn busy_ns(&self) -> u64 {
        self.upsert_ns.iter().sum::<u64>() + self.maintenance_ns()
    }

    /// Time inside groom, merge, GC, post-groom, evolve and quiesce.
    pub fn maintenance_ns(&self) -> u64 {
        self.groom_ns
            + self.merge_ns
            + self.gc_ns
            + self.post_groom_ns
            + self.evolve_ns
            + self.quiesce_ns
    }
}

/// The end-to-end write metrics of an inline pipeline that ran several
/// times over the same schedule, so that cycle `i` of one pass did exactly
/// the work of cycle `i` of another: every cycle counts with the fastest of
/// its passes, which only interference that hit that cycle in every pass
/// moves (see `stats::best_per_index`).
#[derive(Clone, Copy, Debug)]
pub struct IngestSummary {
    /// Rows made fully indexed per second: rows over time inside the
    /// engine, over the complete post-groom periods (every one holds the
    /// same steps; a partial one would weigh its post-groom wrongly).
    pub rows_per_s: f64,
    /// Median commit-ack → visible lag over the batches, in ns.
    pub freshness_p50_ns: f64,
    pub period_cycles: usize,
}

impl IngestSummary {
    pub fn of(passes: &[WriteAcc]) -> Result<Self, String> {
        let column = |f: fn(&WriteAcc) -> Vec<f64>| passes.iter().map(f).collect::<Vec<_>>();
        let cycle_ns = best_per_index(
            &column(|w| w.period_cycles.iter().map(|c| c.1 as f64).collect()),
            true,
        );
        let freshness = best_per_index(
            &column(|w| w.freshness_ns.iter().map(|ns| *ns as f64).collect()),
            true,
        );
        if cycle_ns.is_empty() || freshness.is_empty() {
            return Err("the pipeline completed no post-groom period".into());
        }
        let rows: u64 = passes[0].period_cycles[..cycle_ns.len()]
            .iter()
            .map(|c| c.0)
            .sum();
        Ok(IngestSummary {
            rows_per_s: rows as f64 / (cycle_ns.iter().sum::<f64>() / 1e9),
            freshness_p50_ns: median(&freshness),
            period_cycles: cycle_ns.len(),
        })
    }
}

/// Drives one engine through write cycles, keeping the oracle in step.
pub struct Pipeline<'a> {
    pub sut: &'a Sut,
    pub schedule: &'a Schedule,
    /// Post-groom and evolve after every cycle whose version this divides.
    pub post_groom_every: u64,
    pub oracle: &'a mut Oracle,
    pub tally: &'a mut Tally,
    pub tracer: &'a mut Tracer,
    pub acc: WriteAcc,
    /// `(rows, ns)` of the cycles of the post-groom period being filled.
    pub open_period: Vec<(u64, u64)>,
}

impl Pipeline<'_> {
    fn step<T>(&mut self, name: &'static str, version: u64, t: Timed<T>) -> (u64, Option<T>) {
        self.tracer.record(name, version as u32, NO_PARENT, &t);
        (t.ns(), self.tally.take(name, t))
    }

    /// One cycle: write batch `version`, groom it, let merges and GC run
    /// dry, and (every `post_groom_every`-th) post-groom and evolve.
    pub fn cycle(&mut self, version: u64) {
        let busy_before = self.acc.busy_ns();
        let batch = self.schedule.batch(version);
        self.oracle.apply(version, &batch);
        let probe_key = batch.new_hi - 1;

        let t = self.sut.upsert_many(batch.keys(), version as u16);
        let acked = t.t1;
        let (ns, _) = self.step("wildfire.upsert_many", version, t);
        self.acc.upsert_ns.push(ns);
        self.acc.rows += batch.rows();
        self.acc.live_zone_peak_rows = self.acc.live_zone_peak_rows.max(self.sut.live_zone_rows());

        let (ns, groomed) = self.step("wildfire.groom", version, self.sut.groom());
        self.acc.groom_ns += ns;
        let (rows, bytes) = groomed.unwrap_or_default();
        self.acc.groom_rows += rows;
        self.acc.groom_bytes += bytes;

        // Under `Latest` a batch is visible once it is groomed.
        let (device, msg) = key_parts(probe_key);
        let t = self.sut.get(device, msg);
        let seen = t.t1;
        if let (_, Some(got)) = self.step("op.get", version, t) {
            self.oracle.check_get(self.tally, probe_key, got);
            self.acc.freshness_ns.push((seen - acked).as_nanos() as u64);
        }

        let written = self.sut.counters().shared_bytes_written;
        let (ns, _) = self.step("core.drain_merges", version, self.sut.drain_merges());
        self.acc.merge_ns += ns;
        self.acc.merge_bytes += self.sut.counters().shared_bytes_written - written;
        let (ns, _) = self.step("core.collect_garbage", version, self.sut.collect_garbage());
        self.acc.gc_ns += ns;

        let post_groom = version.is_multiple_of(self.post_groom_every);
        if post_groom {
            let (ns, _) = self.step("wildfire.post_groom", version, self.sut.post_groom());
            self.acc.post_groom_ns += ns;
            let (ns, _) = self.step("core.evolve", version, self.sut.evolve());
            self.acc.evolve_ns += ns;
        }

        let busy = self.acc.busy_ns() - busy_before;
        self.open_period.push((batch.rows(), busy));
        if post_groom {
            // A period cut short (the pipeline did not start right after a
            // post-groom) is not comparable with the others and is dropped.
            if self.open_period.len() as u64 == self.post_groom_every {
                self.acc.period_cycles.append(&mut self.open_period);
            }
            self.open_period.clear();
        }
    }

    /// Drain whatever is left in the pipeline.
    pub fn quiesce(&mut self) {
        let (ns, _) = self.step("wildfire.quiesce", 0, self.sut.quiesce());
        self.acc.quiesce_ns += ns;
    }
}

/// A built dataset: the engine holding it, what the oracle expects of it,
/// what building it cost, and how long the build took on the wall clock.
pub struct Dataset {
    pub sut: Sut,
    pub oracle: Oracle,
    pub write: WriteAcc,
    pub wall_ns: u64,
}

/// Build a dataset on a fresh warm engine: batches `1..=cycles` of
/// `schedule`, then (when `quiesce`) drain the pipeline, which post-grooms
/// everything.
pub fn build_dataset(
    schedule: &Schedule,
    cycles: u64,
    post_groom_every: u64,
    quiesce: bool,
    maintenance: Maintenance,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Dataset, String> {
    let start = Instant::now();
    let sut = Sut::create(Hierarchy::Warm, maintenance)?;
    let mut oracle = Oracle::default();
    let mut p = Pipeline {
        sut: &sut,
        schedule,
        post_groom_every,
        oracle: &mut oracle,
        tally,
        tracer,
        acc: WriteAcc::default(),
        open_period: Vec::new(),
    };
    for version in 1..=cycles {
        p.cycle(version);
    }
    if quiesce {
        p.quiesce();
    }
    let write = p.acc;
    Ok(Dataset {
        sut,
        oracle,
        write,
        wall_ns: start.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_summary_takes_each_cycle_from_its_fastest_pass() {
        let pass = |ns: [u64; 4], freshness: [u64; 4]| WriteAcc {
            period_cycles: ns.iter().map(|ns| (100, *ns)).collect(),
            freshness_ns: freshness.to_vec(),
            ..WriteAcc::default()
        };
        // Each pass was disturbed in different cycles.
        let a = pass([1_000, 9_000, 1_000, 1_000], [5, 50, 5, 7]);
        let b = pass([3_000, 1_000, 1_000, 4_000], [15, 6, 5, 70]);
        let s = IngestSummary::of(&[a, b]).unwrap();
        assert_eq!(s.period_cycles, 4);
        // 400 rows in 4 x 1000 ns.
        assert_eq!(s.rows_per_s, 1e8);
        // The best lags are 5, 6, 5 and 7 ns.
        assert_eq!(s.freshness_p50_ns, 5.5);
        assert!(IngestSummary::of(&[WriteAcc::default()]).is_err());
    }
}
