//! `htap_mixed`: writes beside reads. An open-loop writer sends a batch
//! every 10 ms whether or not the engine keeps up, and times each batch from
//! when it was due; a closed-loop reader cycles through the four read
//! operations; the engine's daemons groom, merge, post-groom and evolve in
//! the background. Two generator threads, on two cores.
//!
//! The dataset grows while the reader runs, so one stretch of a run is not
//! comparable with another. The workload therefore runs as several
//! episodes, each from a freshly built and quiesced `D1` (the set-up) and
//! each cut into the same windows: window `j` of one episode measures what
//! window `j` of another does (see `stats::Slicing::Aligned`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::affinity::pin_current_thread;
use crate::gen::{
    key_parts, keys_on_device, payload_parts, KeyDist, Rng, Schedule, Segment, DEVICES, MSG_STRIDE,
    ROW_BYTES,
};
use crate::json::Json;
use crate::oracle::{plausible, Oracle, Tally};
use crate::pipeline::Dataset;
use crate::probe;
use crate::reads::{OpAcc, ReadAcc, BATCH_KEYS, SHORT_SCAN_ROWS, STREAM_HTAP_READER};
use crate::stats::{median, p50_ns, quantile, summarise, Slicing};
use crate::sut::{Counters, DaemonReport, Maintenance, Sut};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{
    build_d1, daemon_metrics, fault_metrics, peak_rss_mb, read_metrics, reset_peak_rss,
    shape_metrics, write_counter_metrics, Ctx,
};

/// One reader round: this many of each operation, then the next round.
const GETS_PER_ROUND: u32 = 64;
const SHORT_SCANS_PER_ROUND: u32 = 4;

/// A batch the writer got acknowledged and the reader has not yet seen.
struct Acked {
    version: u64,
    probe_key: u64,
    at: Instant,
}

/// What the two generator threads share.
struct Shared {
    /// Last version whose `upsert_many` has been started.
    issued: AtomicU64,
    /// Acknowledged batches, oldest first, waiting to become visible.
    acked: Mutex<VecDeque<Acked>>,
    writer_done: AtomicBool,
}

struct WriterOut {
    oracle: Oracle,
    tally: Tally,
    tracer: Tracer,
    rows: u64,
    /// Per batch: due time → acknowledged.
    latency_ns: Vec<u64>,
    /// Per batch: due time → `upsert_many` called.
    late_ns: Vec<u64>,
}

struct ReaderOut {
    reads: ReadAcc,
    tally: Tally,
    tracer: Tracer,
    /// Commit ack → visible, one sample per batch, in the reads' windows.
    freshness: OpAcc,
    live_zone_peak_rows: u64,
    pinned_to_cpu: Result<usize, String>,
}

/// What one episode measured.
struct Episode {
    reads: ReadAcc,
    freshness: OpAcc,
    rows: u64,
    /// First batch due → daemons shut down and the rest quiesced.
    wall_ns: u64,
    latency_ns: Vec<u64>,
    late_ns: Vec<u64>,
    live_zone_peak_rows: u64,
    delta: Counters,
    report: DaemonReport,
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let s = ctx.sizes;
    let episode_secs = ctx.p.seconds / s.setups as f64;
    let batches = ((episode_secs * s.htap_batches_per_s as f64).round() as u64).max(1);
    let schedule = Schedule::new(
        ctx.p.seed,
        vec![
            s.cycle_segment(s.d1_cycles),
            Segment {
                batches,
                new_per_batch: s.htap_batch_new,
                updates_per_batch: s.htap_batch_updates,
            },
        ],
    );
    ctx.note("htap_episodes", s.setups as u64);
    ctx.note("htap_episode_seconds", Json::Num(episode_secs));
    ctx.note("htap_batches_per_episode", batches);
    let maintenance = Maintenance::Daemons {
        post_groom_interval: s.htap_post_groom_interval,
    };
    let mut episodes = Vec::new();
    let mut peaks_mb = Vec::new();
    let (sut, oracle) = ctx.set_up(|ctx| {
        let peak_restarted = reset_peak_rss();
        // Preload `D1` inline and quiesce it: a fixed state to start from.
        let d = build_d1(ctx, &schedule, true, maintenance)?;
        let Dataset {
            mut sut,
            oracle,
            write,
            wall_ns,
        } = d;
        // Space, write amplification and run structure are read here, where
        // they repeat exactly; at the end they depend on which merges the
        // daemons got to (the episode's own bytes and merges are per-layer
        // metrics).
        shape_metrics(ctx, &sut, oracle.keys());
        let preload_bytes = sut.counters().shared_bytes_written;
        ctx.m.set(
            "write_amp",
            preload_bytes as f64 / (write.rows * ROW_BYTES) as f64,
        );
        let (episode, oracle) = run_episode(ctx, &mut sut, &schedule, oracle, episode_secs);
        episodes.push(episode);
        ctx.verify(&sut, &oracle);
        if peak_restarted {
            peaks_mb.push(peak_rss_mb()?);
        }
        Ok(((sut, oracle), wall_ns))
    })?;
    // How much the daemons had in flight at the worst moment differs from
    // episode to episode: the median episode counts, where the kernel lets
    // the high-water mark be restarted; else the whole process's.
    if peaks_mb.len() == episodes.len() {
        ctx.m.set("peak_rss_mb", median(&peaks_mb));
    }
    let last = episodes.last().expect("at least one episode");
    if episodes.iter().any(|e| e.freshness.samples.is_empty()) {
        return Err("no batch became visible while the reader ran".into());
    }
    ctx.note(
        "samples_freshness",
        episodes
            .iter()
            .map(|e| e.freshness.samples.len() as u64)
            .sum::<u64>(),
    );
    ctx.note("samples_upsert_batch", last.latency_ns.len() as u64);
    ctx.note("ingest_rows", last.rows);
    let over_episodes = |f: fn(&Episode) -> f64| episodes.iter().map(f).collect::<Vec<f64>>();
    let freshness: Vec<Vec<f64>> = episodes
        .iter()
        .map(|e| e.freshness.per_slice(p50_ns))
        .collect();
    let m = &mut ctx.m;
    write_counter_metrics(m, &last.delta);
    // The writer is paced: the episode that was drained soonest counts.
    m.set(
        "ingest_rows_per_s",
        over_episodes(|e| e.rows as f64 / (e.wall_ns as f64 / 1e9))
            .into_iter()
            .fold(0.0, f64::max),
    );
    m.set(
        "freshness_p50_ms",
        summarise(&freshness, true, Slicing::Aligned) / 1e6,
    );
    let ns = |acc: &OpAcc| acc.samples.iter().map(|s| s.ns).collect::<Vec<u64>>();
    m.set(
        "wildfire.freshness_p99_ms",
        quantile(&ns(&last.freshness), 0.99) as f64 / 1e6,
    );
    m.set(
        "wildfire.upsert_batch_p50_us",
        quantile(&last.latency_ns, 0.5) as f64 / 1e3,
    );
    m.set(
        "wildfire.upsert_batch_p99_us",
        quantile(&last.latency_ns, 0.99) as f64 / 1e3,
    );
    m.set(
        "wildfire.writer_late_p99_ms",
        quantile(&last.late_ns, 0.99) as f64 / 1e6,
    );
    m.set(
        "wildfire.live_zone_peak_rows",
        last.live_zone_peak_rows as f64,
    );
    daemon_metrics(m, &last.report, last.wall_ns);
    fault_metrics(m, &sut);
    let reads: Vec<ReadAcc> = episodes.into_iter().map(|e| e.reads).collect();
    read_metrics(ctx, &reads, Slicing::Aligned)?;
    if ctx.p.trace {
        let n = (ctx.sizes.probe_gets_warm, ctx.sizes.probe_scans_warm);
        probe::layers(ctx, &sut, &KeyDist::Uniform(oracle.keys()), n);
    }
    Ok(())
}

/// One episode on a quiesced `sut`: start the daemons, run the writer and
/// the reader for `secs`, shut the daemons down and quiesce what they left.
/// Returns the oracle as the writer left it.
fn run_episode(
    ctx: &mut Ctx,
    sut: &mut Sut,
    schedule: &Schedule,
    oracle: Oracle,
    secs: f64,
) -> (Episode, Oracle) {
    let s = ctx.sizes;
    sut.start_daemons();
    let shared = Shared {
        issued: AtomicU64::new(s.d1_cycles),
        acked: Mutex::new(VecDeque::new()),
        writer_done: AtomicBool::new(false),
    };
    let interval = Duration::from_secs(1) / s.htap_batches_per_s as u32;
    let window = Duration::from_secs_f64(secs / f64::from(s.htap_windows));
    let before = sut.counters();
    let start = Instant::now();
    let (shared_ctx, shared_sut): (&Ctx, &Sut) = (ctx, sut);
    let (w, r) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let out = write_loop(
                shared_ctx, shared_sut, schedule, oracle, &shared, start, interval,
            );
            shared.writer_done.store(true, Ordering::SeqCst);
            out
        });
        let reader =
            scope.spawn(|| read_loop(shared_ctx, shared_sut, schedule, &shared, start, window));
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    // Rows count as ingested once they are fully indexed: the daemons'
    // queue is drained and whatever they left is quiesced inline.
    let report = sut.shutdown_daemons().expect("daemons were started");
    let quiesced = sut.quiesce();
    ctx.tracer
        .record("wildfire.quiesce", 0, NO_PARENT, &quiesced);
    let wall_ns = start.elapsed().as_nanos() as u64;
    ctx.tally.take("quiesce", quiesced);
    let delta = sut.counters().since(&before);
    ctx.tally.absorb(w.tally);
    ctx.tally.absorb(r.tally);
    ctx.tracer.absorb(w.tracer);
    ctx.tracer.absorb(r.tracer);
    match r.pinned_to_cpu {
        Ok(cpu) => ctx.note("reader_pinned_to_cpu", cpu as u64),
        Err(e) => ctx.note("reader_not_pinned", Json::str(e)),
    }
    let episode = Episode {
        reads: r.reads,
        freshness: r.freshness,
        rows: w.rows,
        wall_ns,
        latency_ns: w.latency_ns,
        late_ns: w.late_ns,
        live_zone_peak_rows: r.live_zone_peak_rows,
        delta,
        report,
    };
    (episode, w.oracle)
}

fn write_loop(
    ctx: &Ctx,
    sut: &Sut,
    schedule: &Schedule,
    oracle: Oracle,
    shared: &Shared,
    start: Instant,
    interval: Duration,
) -> WriterOut {
    let mut out = WriterOut {
        oracle,
        tally: Tally::default(),
        tracer: Tracer::new(ctx.p.trace, ctx.epoch),
        rows: 0,
        latency_ns: Vec::new(),
        late_ns: Vec::new(),
    };
    let first = ctx.sizes.d1_cycles + 1;
    for (i, version) in (first..=schedule.versions()).enumerate() {
        let batch = schedule.batch(version);
        out.oracle.apply(version, &batch);
        let due = start + interval * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        shared.issued.store(version, Ordering::SeqCst);
        let t = sut.upsert_many(batch.keys(), version as u16);
        out.tracer
            .record("wildfire.upsert_many", version as u32, NO_PARENT, &t);
        out.latency_ns
            .push(t.t1.saturating_duration_since(due).as_nanos() as u64);
        out.late_ns
            .push(t.t0.saturating_duration_since(due).as_nanos() as u64);
        let acked_at = t.t1;
        if out.tally.take("upsert_many", t).is_some() {
            out.rows += batch.rows();
            shared.acked.lock().expect("queue lock").push_back(Acked {
                version,
                probe_key: batch.new_hi - 1,
                at: acked_at,
            });
        }
    }
    out
}

/// The reader's view of how far visibility has come.
struct Visible {
    /// Every batch up to this version has been seen under `Latest`.
    version: u64,
    /// Keys those batches created: the reader draws from `0..keys`.
    keys: u64,
    /// Newest version read of each key; a later read may not be older.
    seen: Vec<u16>,
}

fn read_loop(
    ctx: &Ctx,
    sut: &Sut,
    schedule: &Schedule,
    shared: &Shared,
    start: Instant,
    window: Duration,
) -> ReaderOut {
    let mut out = ReaderOut {
        reads: ReadAcc::default(),
        tally: Tally::default(),
        tracer: Tracer::new(ctx.p.trace, ctx.epoch),
        freshness: OpAcc::default(),
        live_zone_peak_rows: 0,
        pinned_to_cpu: Err("not tried".into()),
    };
    // The reader's queries run on this thread alone (see `affinity`); the
    // writer and the daemons go wherever the kernel puts them.
    out.pinned_to_cpu = pin_current_thread();
    let preload = ctx.sizes.d1_cycles;
    let mut vis = Visible {
        version: preload,
        keys: schedule.keys_after(preload),
        seen: vec![0; schedule.keys_after(schedule.versions()) as usize],
    };
    let mut rng = Rng::new(ctx.p.seed, STREAM_HTAP_READER);
    let mut op = 0u32;
    let mut device = ctx.p.seed % DEVICES;
    let counters_before = sut.counters();
    let mut r = ReaderState {
        sut,
        schedule,
        shared,
        out: &mut out,
        vis: &mut vis,
    };
    // A new slice at every window boundary; the last window takes whatever
    // runs past the end.
    let mut windows = 0;
    while !shared.writer_done.load(Ordering::SeqCst) {
        if windows < ctx.sizes.htap_windows && Instant::now() >= start + window * windows {
            windows += 1;
            let ReaderOut {
                reads, freshness, ..
            } = &mut *r.out;
            for acc in [
                &mut reads.get,
                &mut reads.batch,
                &mut reads.scan_short,
                &mut reads.scan_long,
                freshness,
            ] {
                acc.begin_slice();
            }
        }
        for _ in 0..GETS_PER_ROUND {
            r.get(&mut rng, op);
            op += 1;
            r.probe_freshness(op);
        }
        for _ in 0..SHORT_SCANS_PER_ROUND {
            r.scan_short(&mut rng, op);
            op += 1;
            r.probe_freshness(op);
        }
        r.batch(&mut rng, op);
        op += 1;
        r.probe_freshness(op);
        r.scan_long(device, op);
        device = (device + 1) % DEVICES;
        op += 1;
        r.probe_freshness(op);
        r.out.live_zone_peak_rows = r.out.live_zone_peak_rows.max(sut.live_zone_rows());
    }
    // The four operations, the writer and the daemons interleave, so the
    // storage counters cannot be split per operation here: the per-get and
    // per-scan-row ratios stay 0 on this workload.
    out.reads.all_counters = sut.counters().since(&counters_before);
    out
}

struct ReaderState<'a> {
    sut: &'a Sut,
    schedule: &'a Schedule,
    shared: &'a Shared,
    out: &'a mut ReaderOut,
    vis: &'a mut Visible,
}

impl ReaderState<'_> {
    fn issued(&self) -> u64 {
        self.shared.issued.load(Ordering::SeqCst)
    }

    /// While the oldest acknowledged batch is visible, record how long it
    /// took to become so and move on to the next.
    fn probe_freshness(&mut self, op: u32) {
        loop {
            let Some((version, probe_key, at)) = self
                .shared
                .acked
                .lock()
                .expect("queue lock")
                .front()
                .map(|a| (a.version, a.probe_key, a.at))
            else {
                return;
            };
            let (device, msg) = key_parts(probe_key);
            let t = self.sut.get(device, msg);
            self.out
                .tracer
                .record("op.freshness_probe", op, NO_PARENT, &t);
            let seen_at = t.t1;
            match self.out.tally.take("freshness probe", t) {
                Some(Some(row)) => {
                    let issued = self.issued();
                    self.out
                        .tally
                        .expect(plausible(self.schedule, row, issued), || {
                            format!("freshness probe of key {probe_key}: implausible {row:?}")
                        });
                    self.out
                        .freshness
                        .push_ns(seen_at.saturating_duration_since(at).as_nanos() as u64, 1);
                    // The groomer drains the log in commit order, so every
                    // earlier batch is visible too.
                    self.vis.version = version;
                    self.vis.keys = self.schedule.keys_after(version);
                    self.shared.acked.lock().expect("queue lock").pop_front();
                }
                _ => return,
            }
        }
    }

    fn get(&mut self, rng: &mut Rng, op: u32) {
        let k = rng.below(self.vis.keys);
        let (device, msg) = key_parts(k);
        let t = self.sut.get(device, msg);
        self.out.tracer.record("op.get", op, NO_PARENT, &t);
        self.out.reads.get.push(&t, 1);
        let Some(got) = self.out.tally.take("get", t) else {
            return;
        };
        let issued = self.issued();
        let ok = got.is_some_and(|row| {
            let (pk, version) = payload_parts(row.payload);
            let monotone = version >= self.vis.seen[k as usize];
            self.vis.seen[k as usize] = self.vis.seen[k as usize].max(version);
            pk == k && monotone && plausible(self.schedule, row, issued)
        });
        self.out.tally.expect(ok, || {
            format!("get visible key {k} with {issued} issued: got {got:?}")
        });
    }

    fn batch(&mut self, rng: &mut Rng, op: u32) {
        let keys: Vec<u64> = (0..BATCH_KEYS).map(|_| rng.below(self.vis.keys)).collect();
        let t = self.sut.batch_lookup(&keys);
        self.out.tracer.record("op.batch", op, NO_PARENT, &t);
        self.out.reads.batch.push(&t, BATCH_KEYS);
        if let Some(got) = self.out.tally.take("batch", t) {
            let issued = self.issued();
            let ok = got.len() == keys.len()
                && keys.iter().zip(&got).all(|(k, p)| {
                    p.is_some_and(|p| {
                        let (pk, version) = payload_parts(p);
                        pk == *k && u64::from(version) <= issued
                    })
                });
            self.out.tally.expect(ok, || {
                format!("batch of {} visible keys: wrong payloads", keys.len())
            });
        }
    }

    fn scan_short(&mut self, rng: &mut Rng, op: u32) {
        let device = rng.below(DEVICES);
        let on_device = keys_on_device(self.vis.keys, device);
        let lo = rng.below(on_device - SHORT_SCAN_ROWS) as i64;
        let range = (
            lo * MSG_STRIDE,
            (lo + SHORT_SCAN_ROWS as i64 - 1) * MSG_STRIDE,
        );
        let t = self.sut.scan_records(device as i64, Some(range));
        self.out.tracer.record("op.scan_short", op, NO_PARENT, &t);
        self.out.reads.scan_short.push(&t, SHORT_SCAN_ROWS);
        if let Some(got) = self.out.tally.take("scan_short", t) {
            let ok = got.rows == SHORT_SCAN_ROWS
                && got.well_formed
                && got.first_msg == range.0
                && u64::from(got.max_version) <= self.issued();
            self.out.tally.expect(ok, || {
                format!(
                    "scan_short device {device} from msg {}: got {got:?}",
                    range.0
                )
            });
        }
    }

    fn scan_long(&mut self, device: u64, op: u32) {
        let at_least = keys_on_device(self.vis.keys, device);
        let t = self.sut.scan_records(device as i64, None);
        self.out.tracer.record("op.scan_long", op, NO_PARENT, &t);
        let rows = t.out.as_ref().map_or(0, |d| d.rows);
        let acc: &mut OpAcc = &mut self.out.reads.scan_long;
        acc.push(&t, rows);
        if let Some(got) = self.out.tally.take("scan_long", t) {
            let ok = got.rows >= at_least
                && got.well_formed
                && got.first_msg == 0
                && u64::from(got.max_version) <= self.issued();
            self.out.tally.expect(ok, || {
                format!("scan_long device {device}: want at least {at_least} rows, got {got:?}")
            });
        }
    }
}
