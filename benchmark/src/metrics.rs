//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and (end to end) the bound by which it may worsen. These are
//! the tables of `BENCHMARK.json`; a unit test keeps the two in step.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine sees. Every workload reports every one. The
/// timing bounds are the 0.25 the contract allows at most: this is a shared
/// VM, and what ten runs spread by depends on the hour (README, Caveats).
/// The exact counts keep tight bounds.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("get_p50_us", "us", Lower, 0.25),
    e2e("get_p99_us", "us", Lower, 0.25),
    e2e("batch_keys_per_s", "keys/s", Higher, 0.25),
    e2e("scan_short_p50_us", "us", Lower, 0.25),
    e2e("scan_long_rows_per_s", "rows/s", Higher, 0.25),
    e2e("ingest_rows_per_s", "rows/s", Higher, 0.25),
    e2e("freshness_p50_ms", "ms", Lower, 0.25),
    e2e("write_amp", "ratio", Lower, 0.02),
    e2e("space_amp", "ratio", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single layers, measured from outside: timed calls into a layer's public
/// functions and differences of its public counters. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("encoding.encode_key_ns", "ns", Lower),
    layer("encoding.decode_key_ns", "ns", Lower),
    layer("encoding.entry_build_ns", "ns", Lower),
    layer("run.lookup_ns", "ns", Lower),
    layer("run.blocks_per_lookup", "count", Lower),
    layer("run.scan_entries_per_s", "1/s", Higher),
    layer("run.build_entries_per_s", "1/s", Higher),
    layer("run.bytes_per_entry", "B", Lower),
    layer("run.synopsis_prune_ratio", "ratio", Higher),
    layer("run.open_us", "us", Lower),
    layer("storage.chunk_reads_per_get", "count", Lower),
    layer("storage.chunk_reads_per_scan_row", "count", Lower),
    layer("storage.decoded_point_hit_ratio", "ratio", Higher),
    layer("storage.decoded_scan_hit_ratio", "ratio", Higher),
    layer("storage.mem_hit_ratio", "ratio", Higher),
    layer("storage.ssd_hit_ratio", "ratio", Higher),
    layer("storage.shared_reads_per_get", "count", Lower),
    layer("storage.shared_bytes_per_scan_row", "B", Lower),
    layer("storage.shared_wait_share_get", "ratio", Lower),
    layer("storage.shared_wait_share_scan", "ratio", Lower),
    layer("storage.ssd_wait_share", "ratio", Lower),
    layer("storage.prefetch_hit_ratio", "ratio", Higher),
    layer("storage.prefetch_wasted", "count", Lower),
    layer("storage.decoded_evictions", "count", Lower),
    layer("storage.admission_rejected", "count", Lower),
    layer("storage.retries", "count", Lower),
    layer("storage.retries_exhausted", "count", Lower),
    layer("storage.read_chunk_mem_ns", "ns", Lower),
    layer("storage.shared_puts", "count", Lower),
    layer("storage.shared_deletes", "count", Lower),
    layer("storage.shared_bytes_written", "B", Lower),
    layer("storage.live_bytes", "B", Lower),
    layer("core.point_lookup_ns", "ns", Lower),
    layer("core.batch_lookup_ns_per_key", "ns", Lower),
    layer("core.range_scan_rows_per_s", "rows/s", Higher),
    layer("core.runs_total", "count", Lower),
    layer("core.runs_groomed_zone", "count", Lower),
    layer("core.runs_post_groomed_zone", "count", Lower),
    layer("core.runs_probed_per_get", "count", Lower),
    layer("core.merge_busy_ms", "ms", Lower),
    layer("core.merge_count", "count", Lower),
    layer("core.merge_bytes_moved", "B", Lower),
    layer("core.evolve_busy_ms", "ms", Lower),
    layer("core.evolve_count", "count", Lower),
    layer("core.gc_busy_ms", "ms", Lower),
    layer("core.parallel_scans", "count", Higher),
    layer("core.scan_partitions", "count", Higher),
    layer("core.maint_busy_share", "ratio", Lower),
    layer("core.backpressure_stalls", "count", Lower),
    layer("core.backpressure_stall_ms", "ms", Lower),
    layer("core.queue_peak_depth", "count", Lower),
    layer("core.groom_peak_dequeue_age", "count", Lower),
    layer("wildfire.fetch_row_ns", "ns", Lower),
    layer("wildfire.rid_resolve_share", "ratio", Lower),
    layer("wildfire.upsert_batch_p50_us", "us", Lower),
    layer("wildfire.upsert_batch_p99_us", "us", Lower),
    layer("wildfire.writer_late_p99_ms", "ms", Lower),
    layer("wildfire.groom_busy_ms", "ms", Lower),
    layer("wildfire.groom_rows_per_s", "rows/s", Higher),
    layer("wildfire.post_groom_busy_ms", "ms", Lower),
    layer("wildfire.colblock_bytes_per_row", "B", Lower),
    layer("wildfire.recover_ms", "ms", Lower),
    layer("wildfire.live_zone_peak_rows", "count", Lower),
    layer("wildfire.get_max_ms", "ms", Lower),
    layer("wildfire.freshness_p99_ms", "ms", Lower),
    layer("wildfire.sheds", "count", Lower),
    layer("wildfire.timeouts", "count", Lower),
];

/// The four workloads and why each is here.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "read_warm",
        "D1 fits the default caches: encoding, run search, core reconcile and RID resolution do all the work, storage IO none",
    ),
    (
        "read_cold",
        "D1 recovered over a sleeping latency model with caches a tenth of the runs: a get is a chain of fetches, CPU layers barely register",
    ),
    (
        "htap_mixed",
        "paced open-loop writer beside a closed-loop reader with the daemons running, in three episodes from a fresh D1: interference and freshness",
    ),
    (
        "ingest_pipeline",
        "the write path alone and inline, three passes with every step timed, then reads over the runs it leaves: build-time cost of read-side gains",
    ),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values of one run, by name. Setting a name the tables do not
/// have is a bug in the benchmark.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(def.name, value);
    }

    /// `num / den`, or 0 when nothing was counted.
    pub fn set_ratio(&mut self, name: &str, num: f64, den: f64) {
        self.set(name, if den == 0.0 { 0.0 } else { num / den });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for every metric of `defs`,
    /// in table order; unset per-layer metrics read 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut out = Vec::new();
        for d in defs {
            let value = match (self.get(d.name), d.bound) {
                (Some(v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => {
                    return Err(format!("end-to-end metric {} not measured", d.name))
                }
            };
            out.push((
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            ));
        }
        Ok(Json::obj(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root says what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |o: &Json, k: &str| o.get(k).unwrap().as_str().unwrap().to_owned();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name"), d.name);
                assert_eq!(field(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(j, "better"), d.better.as_str(), "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        assert_eq!(
            doc.get("paths").unwrap().as_arr().unwrap(),
            &[Json::str("benchmark")]
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(d.name, "_.-", 64), "{}", d.name);
            assert!(ok(d.unit, "_/%.-", 16), "{}", d.unit);
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
