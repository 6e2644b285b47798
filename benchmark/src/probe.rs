//! Layer probes of the traced pass. After the timed phases, a fixed sample
//! of operations is taken apart: the harness calls each layer's public
//! functions itself, one span per call under one root per operation. Each
//! child call takes the *next* key of the stream, never the key a sibling
//! just touched, so on cold data no probe is flattered by a block its
//! sibling pulled in.

use crate::gen::{key_parts, KeyDist, Rng, DEVICES};
use crate::reads::STREAM_PROBE;
use crate::stats::{median, quantile};
use crate::sut::{RunRef, Sut, Timed};
use crate::trace::{SpanId, NO_PARENT};
use crate::workloads::Ctx;

/// Entries of the run built for `run.build_entries_per_s`.
const BUILD_RUN_ENTRIES: u64 = 100_000;
/// `IndexEntry::new` calls timed for `encoding.entry_build_ns`.
const BUILD_ENTRIES: u64 = 20_000;
/// The whole-run scan and the resident-run lookups use the largest run of
/// at most this many entries, so that on cold data they end in seconds.
const PROBE_RUN_MAX_ENTRIES: u64 = 100_000;

fn median_of(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        quantile(ns, 0.5) as f64
    }
}

struct Probes<'a, 'c> {
    ctx: &'a mut Ctx<'c>,
    op: u32,
}

impl Probes<'_, '_> {
    /// Record a child span; count the call; return its time and value.
    fn call<T>(&mut self, name: &'static str, parent: SpanId, t: Timed<T>) -> (u64, Option<T>) {
        self.ctx.tracer.record(name, self.op, parent, &t);
        (t.ns(), self.ctx.tally.take(name, t))
    }
}

/// Run every layer probe and set the per-layer metrics they measure.
/// `samples` is `(gets, long scans)` to take apart.
pub fn layers(ctx: &mut Ctx, sut: &Sut, dist: &KeyDist, samples: (u64, u64)) {
    let mut rng = Rng::new(ctx.p.seed, STREAM_PROBE);
    let mut next_key = move || key_parts(dist.key(&mut rng));
    let runs = sut.candidate_runs();
    let mut p = Probes { ctx, op: 0 };

    // ---- one `get`, layer by layer -------------------------------------
    let (mut enc, mut lookup, mut fetch) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pairs, mut pruned, mut probed) = (0u64, 0u64, 0u64);
    for _ in 0..samples.0 {
        p.op += 1;
        let root = p.ctx.tracer.open("probe.get", p.op, NO_PARENT);
        let (d, m) = next_key();
        enc.push(p.call("encoding.encode_key", root, sut.encode_key(d, m)).0);
        let (d, m) = next_key();
        let (ns, rid) = p.call("core.point_lookup", root, sut.point_lookup(d, m));
        lookup.push(ns);
        let (d, m) = next_key();
        if let Ok(probe) = sut.probe(d, m) {
            for run in &runs {
                pairs += 1;
                let (_, may) = p.call("run.may_match", root, sut.run_may_match(run, &probe));
                if may != Some(true) {
                    pruned += 1;
                    continue;
                }
                probed += 1;
                let (_, hit) = p.call("run.lookup", root, sut.run_lookup(run, &probe));
                if hit == Some(true) {
                    break;
                }
            }
        }
        if let Some(Some(rid)) = rid {
            fetch.push(p.call("wildfire.fetch_row", root, sut.fetch_row(rid)).0);
        }
        p.ctx.tracer.close(root);
    }
    let m = &mut p.ctx.m;
    m.set("encoding.encode_key_ns", median_of(&enc));
    m.set("core.point_lookup_ns", median_of(&lookup));
    m.set("wildfire.fetch_row_ns", median_of(&fetch));
    m.set_ratio("run.synopsis_prune_ratio", pruned as f64, pairs as f64);
    m.set_ratio("core.runs_probed_per_get", probed as f64, samples.0 as f64);

    // ---- one whole-device scan, layer by layer ---------------------------
    let mut device = p.ctx.p.seed % DEVICES;
    let mut next_device = move || {
        device = (device + 1) % DEVICES;
        device as i64
    };
    let (mut scan_ns, mut scan_rows) = (0u64, 0u64);
    let (mut decode_ns, mut decoded) = (0u64, 0u64);
    let (mut index_ns, mut index_rows, mut records_ns, mut records_rows) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..samples.1 {
        p.op += 1;
        let root = p.ctx.tracer.open("probe.scan_long", p.op, NO_PARENT);
        let (ns, outs) = p.call("core.range_scan", root, sut.range_scan(next_device()));
        let d = next_device();
        for run in &runs {
            p.call("run.scan", root, sut.run_scan(run, Some(d)));
        }
        if let Some(outs) = outs {
            scan_ns += ns;
            scan_rows += outs.len();
            p.call("wildfire.fetch_rows", root, sut.fetch_rows(&outs));
            let (ns, n) = p.call("encoding.decode_key", root, sut.decode_outputs(&outs));
            decode_ns += ns;
            decoded += n.unwrap_or(0);
        }
        p.ctx.tracer.close(root);

        // The same query with and without RID resolution, on two devices.
        let (ns, rows) = p.call(
            "wildfire.scan_index",
            NO_PARENT,
            sut.scan_index(next_device(), None),
        );
        index_ns += ns;
        index_rows += rows.unwrap_or(0);
        let (ns, digest) = p.call(
            "wildfire.scan_records",
            NO_PARENT,
            sut.scan_records(next_device(), None),
        );
        records_ns += ns;
        records_rows += digest.map_or(0, |d| d.rows);
    }
    let m = &mut p.ctx.m;
    m.set_ratio(
        "core.range_scan_rows_per_s",
        scan_rows as f64,
        scan_ns as f64 / 1e9,
    );
    m.set_ratio("encoding.decode_key_ns", decode_ns as f64, decoded as f64);
    let per_row = |ns: u64, rows: u64| {
        if rows == 0 {
            0.0
        } else {
            ns as f64 / rows as f64
        }
    };
    let (idx, rec) = (
        per_row(index_ns, index_rows),
        per_row(records_ns, records_rows),
    );
    m.set(
        "wildfire.rid_resolve_share",
        if rec == 0.0 { 0.0 } else { 1.0 - idx / rec },
    );

    // ---- single calls into one layer --------------------------------------
    p.op += 1;
    let (ns, n) = p.call(
        "encoding.entry_build",
        NO_PARENT,
        sut.build_entries(BUILD_ENTRIES),
    );
    p.ctx
        .m
        .set_ratio("encoding.entry_build_ns", ns as f64, n.unwrap_or(0) as f64);
    let (ns, n) = p.call("run.build", NO_PARENT, sut.build_run(BUILD_RUN_ENTRIES));
    p.ctx.m.set_ratio(
        "run.build_entries_per_s",
        n.unwrap_or(0) as f64,
        ns as f64 / 1e9,
    );

    let opens: Vec<f64> = sut
        .open_runs()
        .into_iter()
        .filter_map(|t| {
            let (ns, ok) = p.call("run.open", NO_PARENT, t);
            ok.map(|()| ns as f64 / 1e3)
        })
        .collect();
    if !opens.is_empty() {
        p.ctx.m.set("run.open_us", median(&opens));
    }

    if let Some(run) = probe_run(&runs) {
        let (ns, n) = p.call("run.scan_all", NO_PARENT, sut.run_scan(run, None));
        p.ctx.m.set_ratio(
            "run.scan_entries_per_s",
            n.unwrap_or(0) as f64,
            ns as f64 / 1e9,
        );

        // Lookups in one run that the scan above has just made resident.
        let before = sut.counters();
        let mut ns = Vec::new();
        for _ in 0..samples.0 {
            let (d, m) = next_key();
            if let Ok(probe) = sut.probe(d, m) {
                ns.push(
                    p.call(
                        "run.lookup_resident",
                        NO_PARENT,
                        sut.run_lookup(run, &probe),
                    )
                    .0,
                );
            }
        }
        let delta = sut.counters().since(&before);
        let m = &mut p.ctx.m;
        m.set("run.lookup_ns", median_of(&ns));
        m.set_ratio(
            "run.blocks_per_lookup",
            (delta.chunk_reads + delta.decoded_hits) as f64,
            ns.len() as f64,
        );

        // One data chunk, read until it sits in the memory tier.
        if let Ok(chunks) = sut.chunk_count(run) {
            let chunk = chunks / 2;
            let ns: Vec<u64> = (0..samples.0 + 1)
                .map(|_| {
                    p.call("storage.read_chunk", NO_PARENT, sut.read_chunk(run, chunk))
                        .0
                })
                .skip(1)
                .collect();
            p.ctx.m.set("storage.read_chunk_mem_ns", median_of(&ns));
        }
    }
}

/// The largest run of at most [`PROBE_RUN_MAX_ENTRIES`], else the smallest.
fn probe_run(runs: &[RunRef]) -> Option<&RunRef> {
    runs.iter()
        .filter(|r| r.entries() <= PROBE_RUN_MAX_ENTRIES)
        .max_by_key(|r| r.entries())
        .or_else(|| runs.iter().min_by_key(|r| r.entries()))
}
