//! One function per figure of the paper's evaluation (§8). Each prints the
//! figure's normalized series; the `figures` binary picks which to run.

use std::time::Duration;

use umzi_core::ReconcileStrategy;
use umzi_storage::TierLatency;
use umzi_workload::{IndexPreset, KeyDist, KeyGen};

use crate::e2e::{run_e2e, E2eConfig, PurgeMode};
use crate::{
    bench_index, ingest_runs, lookup_batch, median_time, point_entries, print_figure, scan_range,
    secs, Scale, Series,
};

fn reps_for(size: u64) -> usize {
    match size {
        0..=100_000 => 5,
        100_001..=1_000_000 => 3,
        _ => 1,
    }
}

/// Figure 8: index-building time vs run size, for I1/I2/I3.
pub fn fig08(scale: Scale) {
    let mut series = Vec::new();
    let mut base = None;
    for preset in IndexPreset::ALL {
        let mut points = Vec::new();
        for &size in &scale.run_sizes() {
            let t = median_time(reps_for(size), || {
                let idx = bench_index(preset, &format!("f8-{}-{size}", preset.label()));
                let mut gen = KeyGen::new(KeyDist::Sequential, size.max(1), 7);
                let keys = gen.batch(size as usize);
                let entries = point_entries(&idx, preset, &keys, 1);
                let t0 = std::time::Instant::now();
                idx.build_groomed_run(entries, 1, 1).expect("build");
                t0.elapsed()
            });
            if base.is_none() {
                base = Some(secs(t)); // I1 @ smallest size, as in the paper
            }
            points.push((size.to_string(), secs(t)));
        }
        series.push(Series {
            label: preset.label().into(),
            points,
        });
    }
    print_figure(
        "Figure 8: index building performance (normalized time)",
        "#tuples",
        &series,
        base.expect("at least one point"),
    );
}

/// Figure 9: single-run query performance — (a) sequential and (b) random
/// query batches vs run size, for I1/I2/I3.
pub fn fig09(scale: Scale) {
    let batch = 1000usize;
    let mut base = None;
    for (panel, qdist) in [("a", KeyDist::Sequential), ("b", KeyDist::Random)] {
        let mut series = Vec::new();
        for preset in IndexPreset::ALL {
            let mut points = Vec::new();
            for &size in &scale.run_sizes() {
                let idx = bench_index(preset, &format!("f9{panel}-{}-{size}", preset.label()));
                // §8.3.1 ingests sequential keys (order in a run is by hash
                // anyway).
                ingest_runs(&idx, preset, KeyDist::Sequential, 1, size, false, 7);
                let mut qgen = KeyGen::new(qdist, size.max(1), 99);
                let t = median_time(3, || {
                    let keys = qgen.query_batch(batch, size);
                    lookup_batch(&idx, preset, &keys, u64::MAX)
                });
                if base.is_none() {
                    base = Some(secs(t)); // sequential I1 @ 1K (§8.3.1)
                }
                points.push((size.to_string(), secs(t)));
            }
            series.push(Series {
                label: preset.label().into(),
                points,
            });
        }
        print_figure(
            &format!(
                "Figure 9{panel}: single-run lookups, {} queries",
                qdist.label()
            ),
            "#tuples",
            &series,
            base.expect("base set"),
        );
    }
}

/// Figures 10 (sequentially ingested keys) and 11 (randomly ingested keys):
/// multi-run query performance — (a) batch size, (b) number of runs,
/// (c) scan range.
pub fn fig10_11(scale: Scale, ingest: KeyDist) {
    let fig = if ingest == KeyDist::Sequential {
        "10"
    } else {
        "11"
    };
    let per_run = scale.entries_per_run();

    // Panel (a): per-key lookup time vs batch size, 20 runs.
    {
        let n_runs = 20;
        let mut series = Vec::new();
        let mut base = None;
        for qdist in [KeyDist::Sequential, KeyDist::Random] {
            let idx = bench_index(IndexPreset::I1, &format!("f{fig}a-{}", qdist.label()));
            let total = ingest_runs(&idx, IndexPreset::I1, ingest, n_runs, per_run, false, 7);
            let mut points = Vec::new();
            for batch in [1usize, 10, 100, 1_000, 10_000] {
                let mut qgen = KeyGen::new(qdist, total, 99);
                let reps = if batch <= 100 { 9 } else { 3 };
                let t = median_time(reps, || {
                    let keys = qgen.query_batch(batch, total);
                    lookup_batch(&idx, IndexPreset::I1, &keys, u64::MAX)
                });
                let per_key = secs(t) / batch as f64;
                if base.is_none() {
                    base = Some(per_key); // sequential @ batch 1
                }
                points.push((batch.to_string(), per_key));
            }
            series.push(Series {
                label: format!("{} query", qdist.label()),
                points,
            });
        }
        print_figure(
            &format!(
                "Figure {fig}a: time per key vs batch size ({} ingestion)",
                ingest.label()
            ),
            "batch size",
            &series,
            base.expect("base"),
        );
    }

    // Panel (b): batch-1000 lookup time vs number of runs.
    {
        let mut series = Vec::new();
        let mut base = None;
        for qdist in [KeyDist::Sequential, KeyDist::Random] {
            let mut points = Vec::new();
            for &n_runs in &scale.run_counts() {
                let idx = bench_index(
                    IndexPreset::I1,
                    &format!("f{fig}b-{}-{n_runs}", qdist.label()),
                );
                let total = ingest_runs(&idx, IndexPreset::I1, ingest, n_runs, per_run, false, 7);
                let mut qgen = KeyGen::new(qdist, total, 99);
                let t = median_time(3, || {
                    let keys = qgen.query_batch(1000, total);
                    lookup_batch(&idx, IndexPreset::I1, &keys, u64::MAX)
                });
                if base.is_none() {
                    base = Some(secs(t)); // sequential @ 1 run
                }
                points.push((n_runs.to_string(), secs(t)));
            }
            series.push(Series {
                label: format!("{} query", qdist.label()),
                points,
            });
        }
        print_figure(
            &format!(
                "Figure {fig}b: lookup time vs #runs ({} ingestion)",
                ingest.label()
            ),
            "#index runs",
            &series,
            base.expect("base"),
        );
    }

    // Panel (c): range scans (priority-queue reconciliation, §8.3.2) vs
    // range size, 20 runs over the scan workload.
    {
        let n_runs = 20;
        let mut series = Vec::new();
        let mut base = None;
        for qdist in [KeyDist::Sequential, KeyDist::Random] {
            let idx = bench_index(IndexPreset::I1, &format!("f{fig}c-{}", qdist.label()));
            let total = ingest_runs(&idx, IndexPreset::I1, ingest, n_runs, per_run, true, 7);
            let mut starts = KeyGen::new(qdist, total, 99);
            let mut points = Vec::new();
            for &range in &scale.scan_ranges() {
                let t = median_time(3, || {
                    let start = starts.query_batch(1, total.saturating_sub(range).max(1))[0];
                    let (dt, _) = scan_range(
                        &idx,
                        start,
                        range,
                        u64::MAX,
                        ReconcileStrategy::PriorityQueue,
                    );
                    dt
                });
                if base.is_none() {
                    base = Some(secs(t)); // sequential @ range 1
                }
                points.push((range.to_string(), secs(t)));
            }
            series.push(Series {
                label: format!("{} query", qdist.label()),
                points,
            });
        }
        print_figure(
            &format!(
                "Figure {fig}c: scan time vs range size ({} ingestion)",
                ingest.label()
            ),
            "scan range",
            &series,
            base.expect("base"),
        );
    }
}

fn windows_series(label: &str, outcome: &[f64]) -> Series {
    Series {
        label: label.to_owned(),
        points: outcome
            .iter()
            .enumerate()
            .map(|(i, &v)| (i.to_string(), if v.is_nan() { 0.0 } else { v }))
            .collect(),
    }
}

fn first_finite(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .find(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(1.0)
}

/// Figure 12: lookup latency over time with varying concurrent readers.
pub fn fig12(scale: Scale) {
    let readers: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Full => vec![1, 4, 16, 28, 40, 52],
    };
    let mut series = Vec::new();
    let mut base = None;
    for &r in &readers {
        let outcome = run_e2e(&E2eConfig {
            seconds: scale.e2e_seconds(),
            rate: scale.e2e_rate(),
            readers: r,
            ..E2eConfig::default()
        });
        if base.is_none() {
            base = Some(first_finite(&outcome.window_latency));
        }
        series.push(windows_series(
            &format!("{r} readers"),
            &outcome.window_latency,
        ));
    }
    print_figure(
        "Figure 12: lookup latency under concurrent readers (lock-free reads ⇒ flat)",
        "time (windows)",
        &series,
        base.expect("base"),
    );
}

/// Figure 13: varying update percentage p.
pub fn fig13(scale: Scale) {
    let ps = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut series = Vec::new();
    let mut base = None;
    for &p in &ps {
        let outcome = run_e2e(&E2eConfig {
            seconds: scale.e2e_seconds(),
            rate: scale.e2e_rate(),
            p_update: p,
            readers: 2,
            ..E2eConfig::default()
        });
        if base.is_none() {
            base = Some(first_finite(&outcome.window_latency));
        }
        series.push(windows_series(
            &format!("{}%", (p * 100.0) as u32),
            &outcome.window_latency,
        ));
    }
    print_figure(
        "Figure 13: lookup latency vs update rate (limited impact)",
        "time (windows)",
        &series,
        base.expect("base"),
    );
}

/// Figure 14: impact of purged runs (SSD cache) with a realistic latency gap
/// between the SSD tier and shared storage.
pub fn fig14(scale: Scale) {
    let latency = Some((
        TierLatency::micros(50, 1),     // SSD ≈ 50 µs + 1 µs/KiB
        TierLatency::micros(2_000, 20), // shared ≈ 2 ms + 20 µs/KiB
    ));
    let mut series = Vec::new();
    let mut base = None;
    for purge in [PurgeMode::None, PurgeMode::Half, PurgeMode::All] {
        let outcome = run_e2e(&E2eConfig {
            seconds: scale.e2e_seconds(),
            rate: scale.e2e_rate() / 4, // latency-bound run: lighter ingest
            readers: 1,
            purge,
            latency,
            ..E2eConfig::default()
        });
        if base.is_none() {
            base = Some(first_finite(&outcome.window_latency)); // "none" at t0
        }
        series.push(windows_series(purge.label(), &outcome.window_latency));
    }
    print_figure(
        "Figure 14: lookup latency vs purge level (SSD cache matters)",
        "time (windows)",
        &series,
        base.expect("base"),
    );
}

/// Figure 15: impact of index evolve (post-groomer on/off).
pub fn fig15(scale: Scale) {
    let mut series = Vec::new();
    let mut base = None;
    for post_groom in [true, false] {
        let outcome = run_e2e(&E2eConfig {
            seconds: scale.e2e_seconds(),
            rate: scale.e2e_rate(),
            readers: 2,
            post_groom,
            post_groom_every: Duration::from_secs(3),
            ..E2eConfig::default()
        });
        if base.is_none() {
            base = Some(first_finite(&outcome.window_latency)); // post-groom on, t0
        }
        series.push(windows_series(
            if post_groom {
                "post-groom"
            } else {
                "no post-groom"
            },
            &outcome.window_latency,
        ));
    }
    print_figure(
        "Figure 15: lookup latency with/without index evolve",
        "time (windows)",
        &series,
        base.expect("base"),
    );
}
