//! The four workloads. Each sets up (several times, for a steady
//! `setup_s`), measures for about `--seconds`, checks every answer against
//! the oracle, and reports every metric of both tables.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::affinity::pin_current_thread;
use crate::gen::{KeyDist, Schedule, Segment, ROW_BYTES};
use crate::htap;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::oracle::{Oracle, Tally};
use crate::pipeline::{build_dataset, Dataset, IngestSummary, Pipeline, WriteAcc};
use crate::probe;
use crate::reads::{OpAcc, PhaseCounters, PhaseSeconds, ReadAcc, Reader};
use crate::stats::{
    median, median_rate, p50_ns, p99_ns, percentile, quantile, sorted_ns, summarise, Sample,
    Slicing, P99_SLICE_SAMPLES,
};
use crate::sut::{ColdSizes, Counters, DaemonReport, Hierarchy, Maintenance, Sut};
use crate::trace::{LayerTime, Tracer};

#[derive(Clone, Debug)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Falsify one oracle entry, to show that a wrong answer fails the run.
    pub corrupt_oracle: bool,
    pub out_dir: PathBuf,
}

/// Every size the workloads use. `--smoke` shrinks the datasets and the
/// probe samples; phase lengths follow `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Rows of one write cycle: new keys and updates of earlier keys.
    pub cycle_new: u64,
    pub cycle_updates: u64,
    /// Post-groom and evolve after every this-many-th cycle.
    pub post_groom_every: u64,
    /// Cycles of dataset `D1`, which every workload starts from.
    pub d1_cycles: u64,
    /// `htap_mixed` writer: rows per batch and batches per second.
    pub htap_batch_new: u64,
    pub htap_batch_updates: u64,
    pub htap_batches_per_s: u64,
    pub htap_post_groom_interval: Duration,
    /// `htap_mixed`: windows an episode is cut into.
    pub htap_windows: u32,
    /// `ingest_pipeline`: timed cycles of one pass per second of
    /// `--seconds`, and the share of `--seconds` its read phases get.
    pub ingest_cycles_per_s: f64,
    pub ingest_read_share: f64,
    pub cold: ColdSizes,
    /// Times a workload sets up; `setup_s` is their median. Also the
    /// episodes of `htap_mixed` and the passes of `ingest_pipeline`: each
    /// starts from a set-up of its own.
    pub setups: usize,
    /// Operations the layer probes decompose, on warm and on cold data.
    pub probe_gets_warm: u64,
    pub probe_gets_cold: u64,
    pub probe_scans_warm: u64,
    pub probe_scans_cold: u64,
}

impl Sizes {
    pub fn new(smoke: bool) -> Self {
        let full = Sizes {
            cycle_new: 5_000,
            cycle_updates: 500,
            post_groom_every: 10,
            d1_cycles: 76,
            htap_batch_new: 450,
            htap_batch_updates: 50,
            htap_batches_per_s: 100,
            // Not a divisor of an episode (`run_seconds` / 3), so that no
            // tick races its end.
            htap_post_groom_interval: Duration::from_secs(2),
            htap_windows: 6,
            ingest_cycles_per_s: 4.0,
            ingest_read_share: 0.5,
            // About a tenth of D1's 25 MB of runs fits the three caches.
            cold: ColdSizes {
                mem_bytes: 512 << 10,
                ssd_bytes: 1536 << 10,
                decoded_bytes: 256 << 10,
            },
            setups: 3,
            probe_gets_warm: 20_000,
            probe_gets_cold: 200,
            probe_scans_warm: 64,
            probe_scans_cold: 6,
        };
        if !smoke {
            return full;
        }
        Sizes {
            d1_cycles: 20,
            cold: ColdSizes {
                mem_bytes: 128 << 10,
                ssd_bytes: 512 << 10,
                decoded_bytes: 128 << 10,
            },
            setups: 1,
            probe_gets_warm: 2_000,
            probe_gets_cold: 100,
            probe_scans_warm: 8,
            probe_scans_cold: 2,
            ..full
        }
    }

    /// `cycles` write cycles of the `D1` shape.
    pub fn cycle_segment(&self, cycles: u64) -> Segment {
        Segment {
            batches: cycles,
            new_per_batch: self.cycle_new,
            updates_per_batch: self.cycle_updates,
        }
    }

    pub fn to_json(self) -> Json {
        let n = |v: u64| Json::from(v);
        Json::obj([
            ("cycle_new", n(self.cycle_new)),
            ("cycle_updates", n(self.cycle_updates)),
            ("post_groom_every", n(self.post_groom_every)),
            ("d1_cycles", n(self.d1_cycles)),
            ("htap_batch_new", n(self.htap_batch_new)),
            ("htap_batch_updates", n(self.htap_batch_updates)),
            ("htap_batches_per_s", n(self.htap_batches_per_s)),
            (
                "htap_post_groom_interval_s",
                Json::Num(self.htap_post_groom_interval.as_secs_f64()),
            ),
            ("htap_windows", n(u64::from(self.htap_windows))),
            ("ingest_cycles_per_s", Json::Num(self.ingest_cycles_per_s)),
            ("ingest_read_share", Json::Num(self.ingest_read_share)),
            ("cold_mem_bytes", n(self.cold.mem_bytes)),
            ("cold_ssd_bytes", n(self.cold.ssd_bytes)),
            ("cold_decoded_bytes", n(self.cold.decoded_bytes)),
            ("setups", n(self.setups as u64)),
            ("probe_gets_warm", n(self.probe_gets_warm)),
            ("probe_gets_cold", n(self.probe_gets_cold)),
            ("probe_scans_warm", n(self.probe_scans_warm)),
            ("probe_scans_cold", n(self.probe_scans_cold)),
        ])
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Sizes, phase lengths and the sample count behind every percentile.
    pub record: Vec<(String, Json)>,
    /// Self time per span name (traced pass only).
    pub layer_times: BTreeMap<&'static str, LayerTime>,
}

/// State every workload threads through its steps.
pub struct Ctx<'a> {
    pub p: &'a Params,
    pub sizes: Sizes,
    pub epoch: Instant,
    pub tally: Tally,
    pub tracer: Tracer,
    pub m: Metrics,
    pub record: Vec<(String, Json)>,
}

impl Ctx<'_> {
    /// Record `key` in the run file; a later note of the same key replaces
    /// an earlier one.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        match self.record.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value.into(),
            None => self.record.push((key.to_owned(), value.into())),
        }
    }

    fn reader<'a>(&'a mut self, sut: &'a Sut, oracle: &'a Oracle) -> Reader<'a> {
        Reader {
            sut,
            oracle,
            tally: &mut self.tally,
            tracer: &mut self.tracer,
            seed: self.p.seed,
        }
    }

    /// Set up `sizes.setups` times, dropping each result before the next
    /// is built; keeps the last and reports the median duration.
    pub fn set_up<T>(
        &mut self,
        mut build: impl FnMut(&mut Self) -> Result<(T, u64), String>,
    ) -> Result<T, String> {
        let mut last = None;
        let mut walls = Vec::new();
        for _ in 0..self.sizes.setups {
            drop(last.take());
            let (t, wall_ns) = build(self)?;
            walls.push(wall_ns as f64 / 1e9);
            last = Some(t);
        }
        self.m.set("setup_s", median(&walls));
        self.note(
            "setup_s_samples",
            Json::Arr(walls.into_iter().map(Json::Num).collect()),
        );
        Ok(last.expect("at least one set-up"))
    }

    /// Scan every device in full and compare it with the oracle row for
    /// row; the scans are `scan_long` samples. With `--corrupt-oracle`,
    /// against an oracle with one entry falsified.
    pub fn verify(&mut self, sut: &Sut, oracle: &Oracle) -> (OpAcc, PhaseCounters) {
        if self.p.corrupt_oracle {
            let mut bad = oracle.clone();
            bad.corrupt(oracle.keys() / 2);
            self.reader(sut, &bad).full_scan()
        } else {
            self.reader(sut, oracle).full_scan()
        }
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut ctx = Ctx {
        p,
        sizes: Sizes::new(p.smoke),
        epoch,
        tally: Tally::default(),
        tracer: Tracer::new(p.trace, epoch),
        m: Metrics::default(),
        record: Vec::new(),
    };
    match p.workload.as_str() {
        "read_warm" => read_warm(&mut ctx)?,
        "read_cold" => read_cold(&mut ctx)?,
        "htap_mixed" => htap::run(&mut ctx)?,
        "ingest_pipeline" => ingest_pipeline(&mut ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    if ctx.m.get("peak_rss_mb").is_none() {
        ctx.m.set("peak_rss_mb", peak_rss_mb()?);
    }
    if p.trace {
        std::fs::create_dir_all(&p.out_dir).map_err(|e| e.to_string())?;
        let path = p.out_dir.join(format!("trace-{}.json", p.workload));
        ctx.tracer.write_json(&path).map_err(|e| e.to_string())?;
        ctx.note("trace_file", Json::str(path.display().to_string()));
        ctx.note("trace_spans", ctx.tracer.spans().len() as u64);
    }
    Ok(Outcome {
        layer_times: ctx.tracer.layer_times(),
        metrics: ctx.m,
        tally: ctx.tally,
        record: ctx.record,
    })
}

/// Restart the kernel's high-water mark of this process's resident set at
/// its present size. `false` where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Pin the calling thread, on which the workload's queries run, to one CPU
/// (see `affinity`). Where the kernel refuses, the run goes on unpinned and
/// its record says so.
pub fn pin(ctx: &mut Ctx) {
    match pin_current_thread() {
        Ok(cpu) => ctx.note("pinned_to_cpu", cpu as u64),
        Err(e) => ctx.note("not_pinned", Json::str(e)),
    }
}

/// `VmHWM` of this process: each workload runs in a process of its own.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

// ---- shared metric arithmetic --------------------------------------------

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// End-to-end read metrics and the per-phase storage ratios. `repeats` are
/// the read phases of every repeat of the workload (one, where the dataset
/// does not change); counters come from the last.
pub fn read_metrics(ctx: &mut Ctx, repeats: &[ReadAcc], slicing: Slicing) -> Result<(), String> {
    let r = repeats.last().ok_or("no read phase ran")?;
    type Op = fn(&ReadAcc) -> &OpAcc;
    let ops: [(&str, Op); 4] = [
        ("get", |r| &r.get),
        ("batch", |r| &r.batch),
        ("scan_short", |r| &r.scan_short),
        ("scan_long", |r| &r.scan_long),
    ];
    for (name, op) in ops {
        let samples: usize = repeats.iter().map(|r| op(r).samples.len()).sum();
        if repeats.iter().any(|r| op(r).samples.is_empty()) {
            return Err(format!("no {name} completed in its phase"));
        }
        ctx.note(&format!("samples_{name}"), samples as u64);
        ctx.note(
            &format!("slices_{name}"),
            repeats
                .iter()
                .map(|r| op(r).slices().len() as u64)
                .sum::<u64>(),
        );
    }
    ctx.note("repeats", repeats.len() as u64);
    // One value per slice of every repeat, summarised.
    let sliced = |op: Op, stat: fn(&[Sample]) -> f64, lower_is_better: bool| {
        let grid: Vec<Vec<f64>> = repeats.iter().map(|r| op(r).per_slice(stat)).collect();
        summarise(&grid, lower_is_better, slicing)
    };
    // A slice too small for a p99 of its own: the p99 of each repeat's
    // samples together.
    let p99_sliced = repeats
        .iter()
        .flat_map(|r| r.get.slices())
        .all(|s| s.len() >= P99_SLICE_SAMPLES);
    let get_p99 = if p99_sliced {
        sliced(|r| &r.get, p99_ns, true)
    } else {
        let pooled: Vec<Vec<f64>> = repeats
            .iter()
            .map(|r| vec![p99_ns(&r.get.samples)])
            .collect();
        summarise(&pooled, true, slicing)
    };
    ctx.note("get_p99_per_slice", Json::Bool(p99_sliced));
    // The median of every slice of the last repeat: shows how the machine
    // drifted, or the dataset grew.
    ctx.note(
        "get_p50_us_by_slice",
        Json::Arr(
            r.get
                .per_slice(p50_ns)
                .into_iter()
                .map(|ns| Json::Num(ns / 1e3))
                .collect(),
        ),
    );
    let get = sorted_ns(&r.get.samples);
    // Where the latency modes (cache hit, SSD, shared fetch) lie.
    ctx.note(
        "get_us_deciles",
        Json::Arr(
            (1..10)
                .map(|d| Json::Num(percentile(&get, f64::from(d) / 10.0) as f64 / 1e3))
                .collect(),
        ),
    );
    let m = &mut ctx.m;
    m.set("get_p50_us", sliced(|r| &r.get, p50_ns, true) / 1e3);
    m.set("get_p99_us", get_p99 / 1e3);
    m.set(
        "wildfire.get_max_ms",
        *get.last().expect("non-empty") as f64 / 1e6,
    );
    m.set("batch_keys_per_s", sliced(|r| &r.batch, median_rate, false));
    m.set(
        "core.batch_lookup_ns_per_key",
        ratio(r.batch.busy_ns(), r.batch.units()),
    );
    m.set(
        "scan_short_p50_us",
        sliced(|r| &r.scan_short, p50_ns, true) / 1e3,
    );
    m.set(
        "scan_long_rows_per_s",
        sliced(|r| &r.scan_long, median_rate, false),
    );

    let g = &r.get_counters;
    m.set(
        "storage.chunk_reads_per_get",
        ratio(g.delta.chunk_reads, g.ops),
    );
    m.set(
        "storage.shared_reads_per_get",
        ratio(g.delta.shared_reads, g.ops),
    );
    m.set(
        "storage.decoded_point_hit_ratio",
        ratio(
            g.delta.decoded_point_hits,
            g.delta.decoded_point_hits + g.delta.decoded_point_misses,
        ),
    );
    m.set(
        "storage.shared_wait_share_get",
        ratio(g.delta.shared_wait_ns, g.busy_ns),
    );
    let s = &r.scan_long_counters;
    m.set(
        "storage.chunk_reads_per_scan_row",
        ratio(s.delta.chunk_reads, s.ops),
    );
    m.set(
        "storage.shared_bytes_per_scan_row",
        ratio(s.delta.shared_bytes_read, s.ops),
    );
    m.set(
        "storage.decoded_scan_hit_ratio",
        ratio(
            s.delta.decoded_scan_hits,
            s.delta.decoded_scan_hits + s.delta.decoded_scan_misses,
        ),
    );
    m.set(
        "storage.shared_wait_share_scan",
        ratio(s.delta.shared_wait_ns, s.busy_ns),
    );
    let a = &r.all_counters;
    let busy = r.get.busy_ns() + r.batch.busy_ns() + r.scan_short.busy_ns() + r.scan_long.busy_ns();
    m.set("storage.ssd_wait_share", ratio(a.ssd_wait_ns, busy));
    m.set(
        "storage.mem_hit_ratio",
        ratio(a.mem_hits, a.mem_hits + a.mem_misses),
    );
    m.set(
        "storage.ssd_hit_ratio",
        ratio(a.ssd_hits, a.ssd_hits + a.ssd_misses),
    );
    m.set(
        "storage.prefetch_hit_ratio",
        ratio(a.prefetch_hits, a.blocks_prefetched),
    );
    m.set("storage.prefetch_wasted", a.prefetch_wasted as f64);
    m.set("storage.decoded_evictions", a.decoded_evictions as f64);
    m.set("storage.admission_rejected", a.admission_rejected as f64);
    m.set("core.parallel_scans", a.parallel_scans as f64);
    m.set("core.scan_partitions", a.scan_partitions as f64);
    Ok(())
}

/// Write-path metrics of an inline pipeline: `passes` are all the times it
/// ran (the end-to-end metrics come from all of them, see `IngestSummary`;
/// the per-layer ones from the last) and `delta` the counters over the last.
pub fn inline_write_metrics(
    ctx: &mut Ctx,
    passes: &[WriteAcc],
    delta: &Counters,
) -> Result<(), String> {
    let ingest = IngestSummary::of(passes)?;
    let w = passes.last().ok_or("the pipeline never ran")?;
    ctx.note("samples_freshness", w.freshness_ns.len() as u64);
    ctx.note("samples_upsert_batch", w.upsert_ns.len() as u64);
    ctx.note("ingest_period_cycles", ingest.period_cycles as u64);
    ctx.note("ingest_rows", w.rows);
    ctx.note("ingest_passes", passes.len() as u64);
    let m = &mut ctx.m;
    m.set("ingest_rows_per_s", ingest.rows_per_s);
    m.set("freshness_p50_ms", ingest.freshness_p50_ns / 1e6);
    m.set(
        "wildfire.freshness_p99_ms",
        quantile(&w.freshness_ns, 0.99) as f64 / 1e6,
    );
    m.set(
        "wildfire.upsert_batch_p50_us",
        quantile(&w.upsert_ns, 0.5) as f64 / 1e3,
    );
    m.set(
        "wildfire.upsert_batch_p99_us",
        quantile(&w.upsert_ns, 0.99) as f64 / 1e3,
    );
    m.set("wildfire.groom_busy_ms", w.groom_ns as f64 / 1e6);
    m.set(
        "wildfire.groom_rows_per_s",
        w.groom_rows as f64 / (w.groom_ns.max(1) as f64 / 1e9),
    );
    m.set("wildfire.post_groom_busy_ms", w.post_groom_ns as f64 / 1e6);
    m.set(
        "wildfire.colblock_bytes_per_row",
        ratio(w.groom_bytes, w.groom_rows),
    );
    m.set("wildfire.live_zone_peak_rows", w.live_zone_peak_rows as f64);
    m.set("core.merge_busy_ms", w.merge_ns as f64 / 1e6);
    m.set("core.merge_bytes_moved", w.merge_bytes as f64);
    m.set("core.evolve_busy_ms", w.evolve_ns as f64 / 1e6);
    m.set("core.gc_busy_ms", w.gc_ns as f64 / 1e6);
    m.set(
        "core.maint_busy_share",
        ratio(w.maintenance_ns(), w.busy_ns()),
    );
    m.set(
        "write_amp",
        delta.shared_bytes_written as f64 / (w.rows * ROW_BYTES) as f64,
    );
    write_counter_metrics(m, delta);
    Ok(())
}

/// The shared-store and maintenance counts over a stretch of writing.
pub fn write_counter_metrics(m: &mut Metrics, delta: &Counters) {
    m.set("storage.shared_puts", delta.shared_puts as f64);
    m.set("storage.shared_deletes", delta.shared_deletes as f64);
    m.set(
        "storage.shared_bytes_written",
        delta.shared_bytes_written as f64,
    );
    m.set("core.merge_count", delta.merges as f64);
    m.set("core.evolve_count", delta.evolves as f64);
}

/// What the daemons report at shutdown (`htap_mixed`).
pub fn daemon_metrics(m: &mut Metrics, d: &DaemonReport, wall_ns: u64) {
    m.set("core.merge_busy_ms", d.merge_busy_ns as f64 / 1e6);
    m.set("core.merge_bytes_moved", d.merge_bytes as f64);
    m.set("core.evolve_busy_ms", d.evolve_busy_ns as f64 / 1e6);
    m.set("core.gc_busy_ms", d.gc_busy_ns as f64 / 1e6);
    m.set(
        "core.maint_busy_share",
        ratio(d.busy_ns, d.workers * wall_ns),
    );
    m.set("core.backpressure_stalls", d.stalls as f64);
    m.set("core.backpressure_stall_ms", d.stall_ns as f64 / 1e6);
    m.set("core.queue_peak_depth", d.queue_peak_depth as f64);
    m.set(
        "core.groom_peak_dequeue_age",
        d.groom_peak_dequeue_age as f64,
    );
    m.set("wildfire.groom_busy_ms", d.groom_busy_ns as f64 / 1e6);
    m.set(
        "wildfire.groom_rows_per_s",
        d.groom_rows as f64 / (d.groom_busy_ns.max(1) as f64 / 1e9),
    );
    m.set(
        "wildfire.colblock_bytes_per_row",
        ratio(d.groom_bytes, d.groom_rows),
    );
}

/// Space metrics and the run structure of the engine as it stands.
pub fn shape_metrics(ctx: &mut Ctx, sut: &Sut, live_keys: u64) {
    let shape = sut.run_shape();
    ctx.note(
        "run_levels",
        Json::Arr(
            shape
                .levels
                .iter()
                .map(|(l, n)| Json::Arr(vec![Json::from(u64::from(*l)), Json::from(*n)]))
                .collect(),
        ),
    );
    ctx.note("index_entries", shape.entries);
    ctx.note("live_keys", live_keys);
    let m = &mut ctx.m;
    m.set(
        "space_amp",
        sut.store_bytes() as f64 / (live_keys * ROW_BYTES) as f64,
    );
    m.set("storage.live_bytes", sut.store_bytes() as f64);
    m.set("run.bytes_per_entry", ratio(shape.bytes, shape.entries));
    m.set(
        "core.runs_total",
        (shape.runs_groomed + shape.runs_post_groomed) as f64,
    );
    m.set("core.runs_groomed_zone", shape.runs_groomed as f64);
    m.set(
        "core.runs_post_groomed_zone",
        shape.runs_post_groomed as f64,
    );
}

/// The fault counters, which should stay 0; read when the workload ends.
pub fn fault_metrics(m: &mut Metrics, sut: &Sut) {
    let c = sut.counters();
    m.set("storage.retries", c.retries as f64);
    m.set("storage.retries_exhausted", c.retries_exhausted as f64);
    m.set("wildfire.sheds", c.sheds as f64);
    m.set("wildfire.timeouts", c.timeouts as f64);
}

// ---- the workloads ---------------------------------------------------------

/// `D1`'s cycles followed by `extra_cycles` more of the same shape.
fn d1_schedule(ctx: &Ctx, extra_cycles: u64) -> Schedule {
    Schedule::new(
        ctx.p.seed,
        vec![ctx.sizes.cycle_segment(ctx.sizes.d1_cycles + extra_cycles)],
    )
}

/// Build `D1` once: one set-up, or part of one.
pub fn build_d1(
    ctx: &mut Ctx,
    schedule: &Schedule,
    quiesce: bool,
    maintenance: Maintenance,
) -> Result<Dataset, String> {
    build_dataset(
        schedule,
        ctx.sizes.d1_cycles,
        ctx.sizes.post_groom_every,
        quiesce,
        maintenance,
        &mut ctx.tally,
        &mut ctx.tracer,
    )
}

/// Set up by building `D1` and nothing else; also what every build cost.
fn set_up_d1(ctx: &mut Ctx, schedule: &Schedule) -> Result<(Dataset, Vec<WriteAcc>), String> {
    let mut builds = Vec::new();
    let data = ctx.set_up(|ctx| {
        let d = build_d1(ctx, schedule, false, Maintenance::Inline)?;
        builds.push(d.write.clone());
        let wall = d.wall_ns;
        Ok((d, wall))
    })?;
    Ok((data, builds))
}

/// Record how `--seconds` was split over the read phases.
fn note_phases(ctx: &mut Ctx, secs: PhaseSeconds) {
    ctx.note(
        "phase_seconds",
        Json::obj([
            ("get", Json::Num(secs.get)),
            ("batch", Json::Num(secs.batch)),
            ("scan_short", Json::Num(secs.scan_short)),
            ("scan_long", Json::Num(secs.scan_long)),
            ("slices", Json::from(u64::from(secs.rounds))),
        ]),
    );
}

fn read_warm(ctx: &mut Ctx) -> Result<(), String> {
    pin(ctx);
    let schedule = d1_schedule(ctx, 0);
    let (data, builds) = set_up_d1(ctx, &schedule)?;
    let Dataset { sut, oracle, .. } = data;
    inline_write_metrics(ctx, &builds, &sut.counters())?;
    shape_metrics(ctx, &sut, oracle.keys());
    // The full scan is the correctness check and fills the caches.
    ctx.verify(&sut, &oracle);

    let dist = KeyDist::Uniform(oracle.keys());
    let mut reads = ReadAcc::default();
    let secs = PhaseSeconds::split(ctx.p.seconds);
    note_phases(ctx, secs);
    ctx.reader(&sut, &oracle).phases(&dist, secs, &mut reads);
    read_metrics(ctx, &[reads], Slicing::Alike)?;
    if ctx.p.trace {
        let n = (ctx.sizes.probe_gets_warm, ctx.sizes.probe_scans_warm);
        probe::layers(ctx, &sut, &dist, n);
    }
    fault_metrics(&mut ctx.m, &sut);
    Ok(())
}

fn read_cold(ctx: &mut Ctx) -> Result<(), String> {
    let schedule = d1_schedule(ctx, 0);
    let cold = Hierarchy::Cold(ctx.sizes.cold);
    let mut builds = Vec::new();
    let mut recover_ns = Vec::new();
    // Build fast on a warm engine, then recover cold from the bytes that
    // reached the shared store: only those may survive.
    let (sut, oracle, built) = ctx.set_up(|ctx| {
        let d = build_d1(ctx, &schedule, false, Maintenance::Inline)?;
        builds.push(d.write);
        let built = d.sut.counters();
        let start = Instant::now();
        let recovered = Sut::recover(d.sut.into_durable(), cold);
        ctx.tracer
            .record("wildfire.recover", 0, crate::trace::NO_PARENT, &recovered);
        recover_ns.push(recovered.ns() as f64 / 1e6);
        let sut = recovered.out?;
        let wall = d.wall_ns + start.elapsed().as_nanos() as u64;
        Ok(((sut, d.oracle, built), wall))
    })?;
    inline_write_metrics(ctx, &builds, &built)?;
    ctx.m.set("wildfire.recover_ms", median(&recover_ns));
    shape_metrics(ctx, &sut, oracle.keys());

    // Durability: after recovery every row the oracle knows must be there.
    // These 64 whole-device scans are also the workload's `scan_long`
    // samples; the other three phases follow.
    let (scan_long, scan_long_counters) = ctx.verify(&sut, &oracle);
    let mut reads = ReadAcc {
        scan_long,
        scan_long_counters,
        ..ReadAcc::default()
    };
    let dist = KeyDist::zipf(oracle.keys());
    let secs = PhaseSeconds {
        get: ctx.p.seconds * 0.45,
        batch: ctx.p.seconds * 0.15,
        scan_short: ctx.p.seconds * 0.15,
        scan_long: 0.0,
        // Sleeps, not the host, set these times, and the latencies come in
        // steps of one fetch: one slice, so that no median is taken over
        // too few samples to stay on its step.
        rounds: 1,
    };
    note_phases(ctx, secs);
    ctx.reader(&sut, &oracle).phases(&dist, secs, &mut reads);
    read_metrics(ctx, &[reads], Slicing::Alike)?;
    if ctx.p.trace {
        let n = (ctx.sizes.probe_gets_cold, ctx.sizes.probe_scans_cold);
        probe::layers(ctx, &sut, &dist, n);
    }
    fault_metrics(&mut ctx.m, &sut);
    Ok(())
}

fn ingest_pipeline(ctx: &mut Ctx) -> Result<(), String> {
    pin(ctx);
    // The same `--seconds` always gives the same cycles, so byte and run
    // counts repeat exactly.
    let read_secs = ctx.p.seconds * ctx.sizes.ingest_read_share;
    let cycles = (ctx.p.seconds * ctx.sizes.ingest_cycles_per_s).round() as u64;
    // At least one complete post-groom period.
    let cycles = cycles.max(2 * ctx.sizes.post_groom_every);
    ctx.note("ingest_cycles", cycles);
    let schedule = d1_schedule(ctx, cycles);
    let first = ctx.sizes.d1_cycles + 1;

    // One pass per set-up: build `D1` (the set-up), then time `cycles` more
    // cycles on top of it. Every pass does the same work cycle for cycle.
    let mut passes = Vec::new();
    let (sut, oracle, delta) = ctx.set_up(|ctx| {
        let d = build_d1(ctx, &schedule, false, Maintenance::Inline)?;
        let Dataset {
            sut,
            mut oracle,
            wall_ns,
            ..
        } = d;
        let before = sut.counters();
        let mut p = Pipeline {
            sut: &sut,
            schedule: &schedule,
            post_groom_every: ctx.sizes.post_groom_every,
            oracle: &mut oracle,
            tally: &mut ctx.tally,
            tracer: &mut ctx.tracer,
            acc: WriteAcc::default(),
            open_period: Vec::new(),
        };
        for version in first..first + cycles {
            p.cycle(version);
        }
        p.quiesce();
        passes.push(p.acc);
        let delta = sut.counters().since(&before);
        Ok(((sut, oracle, delta), wall_ns))
    })?;
    inline_write_metrics(ctx, &passes, &delta)?;
    shape_metrics(ctx, &sut, oracle.keys());
    ctx.verify(&sut, &oracle);

    // What the runs the pipeline left behind cost a reader.
    let dist = KeyDist::Uniform(oracle.keys());
    let mut reads = ReadAcc::default();
    let secs = PhaseSeconds::split(read_secs);
    note_phases(ctx, secs);
    ctx.reader(&sut, &oracle).phases(&dist, secs, &mut reads);
    read_metrics(ctx, &[reads], Slicing::Alike)?;
    if ctx.p.trace {
        let n = (ctx.sizes.probe_gets_warm, ctx.sizes.probe_scans_warm);
        probe::layers(ctx, &sut, &dist, n);
    }
    fault_metrics(&mut ctx.m, &sut);
    Ok(())
}
