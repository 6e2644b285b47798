//! Harness for the `figures` binary, which reproduces §8 of the Umzi paper.
//!
//! `cargo run --release -p umzi-bench --bin figures` prints the normalized
//! series of Figures 8–15 (`-- 10 11` for a subset). Timings that judge a
//! change live in the repo's `benchmark/`.
//!
//! The paper normalizes every figure (absolute numbers were unpublishable);
//! these harnesses do the same, so results are comparable in *shape* — who
//! wins, by what factor, where crossovers fall — not absolute time.
//!
//! Scale: `UMZI_BENCH_SCALE=full` runs paper-scale parameters (up to 100 M
//! entries per run, 100-second end-to-end windows); the default "quick"
//! scale keeps `figures` in the minutes range.

use std::sync::Arc;
use std::time::{Duration, Instant};

use umzi_core::{MergePolicy, RangeQuery, ReconcileStrategy, UmziConfig, UmziIndex};
use umzi_encoding::Datum;
use umzi_run::{IndexEntry, Rid, SortBound, ZoneId};
use umzi_storage::{SharedStorage, TieredConfig, TieredStorage};
use umzi_workload::{IndexPreset, KeyDist, KeyGen};

/// Benchmark scale, selected by `UMZI_BENCH_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters; minutes of total runtime.
    Quick,
    /// The paper's parameters (hours; needs tens of GiB of memory).
    Full,
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("UMZI_BENCH_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Run-size sweep for Figures 8 and 9.
    pub fn run_sizes(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1_000, 10_000, 100_000, 1_000_000],
            Scale::Full => vec![
                1_000,
                10_000,
                100_000,
                1_000_000,
                10_000_000,
                20_000_000,
                40_000_000,
                60_000_000,
                80_000_000,
                100_000_000,
            ],
        }
    }

    /// Entries per run in the multi-run experiments (paper: 100 000).
    pub fn entries_per_run(self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }

    /// Run-count sweep for Figures 10b/11b (paper: 1–100).
    pub fn run_counts(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 10, 20, 40, 60],
            Scale::Full => vec![1, 10, 20, 40, 60, 80, 100],
        }
    }

    /// Scan-range sweep for Figures 10c/11c (paper: 1–1 000 000).
    pub fn scan_ranges(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1, 10, 100, 1_000, 10_000, 100_000],
            Scale::Full => vec![1, 10, 100, 1_000, 10_000, 100_000, 1_000_000],
        }
    }

    /// End-to-end experiment duration (paper: 100 s).
    pub fn e2e_seconds(self) -> u64 {
        match self {
            Scale::Quick => 15,
            Scale::Full => 100,
        }
    }

    /// End-to-end ingest rate per second (paper: ~100 000).
    pub fn e2e_rate(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }
}

/// Sort-column span per equality value in point-lookup workloads: keys map
/// to `(device = k / SPAN, msg = k % SPAN)`, so sequentially ingested keys
/// produce runs covering *disjoint device ranges* — which is exactly what
/// makes the synopsis prune runs for sequential query batches (§8.3.2).
pub const POINT_SPAN: u64 = 100;

/// Map a scalar key to the preset's (equality, sort) groups for point
/// workloads.
pub fn point_groups(preset: IndexPreset, k: u64) -> (Vec<Datum>, Vec<Datum>) {
    let d = (k / POINT_SPAN) as i64;
    let m = (k % POINT_SPAN) as i64;
    match preset {
        IndexPreset::I1 => (vec![Datum::Int64(d)], vec![Datum::Int64(m)]),
        IndexPreset::I2 => (vec![Datum::Int64(d), Datum::Int64(m)], vec![]),
        IndexPreset::I3 => (vec![Datum::Int64(k as i64)], vec![]),
    }
}

/// A fresh zero-latency in-memory index for the index-level figures.
pub fn bench_index(preset: IndexPreset, name: &str) -> Arc<UmziIndex> {
    let storage = Arc::new(TieredStorage::new(
        SharedStorage::in_memory(),
        TieredConfig {
            mem_capacity: 8 << 30,
            ssd_capacity: 64 << 30,
            ..TieredConfig::default()
        },
    ));
    let mut config = UmziConfig::two_zone(name);
    // The figures control the run structure explicitly: disable merging.
    config.merge = MergePolicy {
        k: usize::MAX / 2,
        t: 4,
    };
    UmziIndex::create(storage, preset.def(), config).expect("create index")
}

/// Build index entries for a slice of scalar keys (point workload).
pub fn point_entries(
    idx: &UmziIndex,
    preset: IndexPreset,
    keys: &[u64],
    ts_base: u64,
) -> Vec<IndexEntry> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            let (eq, sort) = point_groups(preset, k);
            IndexEntry::new(
                idx.layout(),
                &eq,
                &sort,
                ts_base + i as u64,
                Rid::new(ZoneId::GROOMED, ts_base, i as u32),
                &preset.included_of(k),
            )
            .expect("valid entry")
        })
        .collect()
}

/// Build index entries for the scan workload: one device, `msg = k`, so
/// ranges of any size stay within one equality value (Figures 10c/11c).
pub fn scan_entries(idx: &UmziIndex, keys: &[u64], ts_base: u64) -> Vec<IndexEntry> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            IndexEntry::new(
                idx.layout(),
                &[Datum::Int64(0)],
                &[Datum::Int64(k as i64)],
                ts_base + i as u64,
                Rid::new(ZoneId::GROOMED, ts_base, i as u32),
                &IndexPreset::I1.included_of(k),
            )
            .expect("valid entry")
        })
        .collect()
}

/// Ingest `n_runs` level-0 runs of `per_run` keys each with the given
/// distribution; returns total keys ingested.
pub fn ingest_runs(
    idx: &UmziIndex,
    preset: IndexPreset,
    dist: KeyDist,
    n_runs: usize,
    per_run: u64,
    scan_workload: bool,
    seed: u64,
) -> u64 {
    let domain = (n_runs as u64 * per_run).max(1);
    let mut gen = KeyGen::new(dist, domain, seed);
    for r in 0..n_runs {
        let keys = gen.batch(per_run as usize);
        let ts_base = (r as u64 + 1) * per_run;
        let entries = if scan_workload {
            scan_entries(idx, &keys, ts_base)
        } else {
            point_entries(idx, preset, &keys, ts_base)
        };
        idx.build_groomed_run(entries, r as u64 + 1, r as u64 + 1)
            .expect("build run");
    }
    domain
}

/// Execute one batched point lookup and return the elapsed wall time.
pub fn lookup_batch(idx: &UmziIndex, preset: IndexPreset, keys: &[u64], query_ts: u64) -> Duration {
    let probes: Vec<(Vec<Datum>, Vec<Datum>)> =
        keys.iter().map(|&k| point_groups(preset, k)).collect();
    let t0 = Instant::now();
    let out = idx.batch_lookup(&probes, query_ts).expect("batch lookup");
    let dt = t0.elapsed();
    std::hint::black_box(out);
    dt
}

/// Execute one range scan over the scan workload and return `(elapsed,
/// result count)`.
pub fn scan_range(
    idx: &UmziIndex,
    start: u64,
    len: u64,
    query_ts: u64,
    strategy: ReconcileStrategy,
) -> (Duration, usize) {
    let query = RangeQuery {
        equality: vec![Datum::Int64(0)],
        lower: SortBound::Included(vec![Datum::Int64(start as i64)]),
        upper: SortBound::Excluded(vec![Datum::Int64((start + len) as i64)]),
        query_ts,
    };
    let t0 = Instant::now();
    let out = idx.range_scan(&query, strategy).expect("range scan");
    let dt = t0.elapsed();
    let n = out.len();
    std::hint::black_box(out);
    (dt, n)
}

/// Median wall time of `reps` executions of `f`.
pub fn median_time(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..reps.max(1)).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A normalized series: the paper's figure lines.
#[derive(Debug, Clone)]
pub struct Series {
    /// Line label (e.g. "I1", "sequential query").
    pub label: String,
    /// `(x-label, value)` points.
    pub points: Vec<(String, f64)>,
}

/// Print a figure as an aligned table, normalizing every value by `base`.
pub fn print_figure(title: &str, xlabel: &str, series: &[Series], base: f64) {
    println!("\n## {title}");
    println!("(values normalized by {base:.3e} s, as in the paper)\n");
    let xs: Vec<&String> = series[0].points.iter().map(|(x, _)| x).collect();
    print!("{xlabel:>14}");
    for s in series {
        print!(" {:>14}", s.label);
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>14}");
        for s in series {
            match s.points.get(i) {
                Some((_, v)) => print!(" {:>14.3}", v / base),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Pretty seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_builds_and_queries() {
        let idx = bench_index(IndexPreset::I1, "h1");
        let total = ingest_runs(
            &idx,
            IndexPreset::I1,
            KeyDist::Sequential,
            3,
            1000,
            false,
            1,
        );
        assert_eq!(total, 3000);
        assert_eq!(idx.zones()[0].list.len(), 3);
        let keys: Vec<u64> = (0..100).collect();
        let d = lookup_batch(&idx, IndexPreset::I1, &keys, u64::MAX);
        assert!(d > Duration::ZERO);
        // All looked-up keys exist.
        let probes: Vec<_> = keys
            .iter()
            .map(|&k| point_groups(IndexPreset::I1, k))
            .collect();
        let out = idx.batch_lookup(&probes, u64::MAX).unwrap();
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn scan_workload_ranges() {
        let idx = bench_index(IndexPreset::I1, "h2");
        ingest_runs(&idx, IndexPreset::I1, KeyDist::Sequential, 2, 1000, true, 1);
        let (_, n) = scan_range(&idx, 100, 50, u64::MAX, ReconcileStrategy::PriorityQueue);
        assert_eq!(n, 50);
    }

    #[test]
    fn point_groups_respect_presets() {
        let (eq, sort) = point_groups(IndexPreset::I1, 1234);
        assert_eq!((eq.len(), sort.len()), (1, 1));
        let (eq, sort) = point_groups(IndexPreset::I2, 1234);
        assert_eq!((eq.len(), sort.len()), (2, 0));
        let (eq, sort) = point_groups(IndexPreset::I3, 1234);
        assert_eq!((eq.len(), sort.len()), (1, 0));
    }
}

pub mod e2e;
pub mod figures;
