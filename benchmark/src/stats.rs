//! Order statistics on raw samples. Latencies are kept as `u64` nanoseconds
//! and every percentile is an exact order statistic of them.

/// One latency sample: how long the operation took and how many units
/// (keys, rows) it returned.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ns: u64,
    pub units: u64,
}

/// Units per second of the median operation: the median over samples of
/// `units / time`. A stall that slows a minority of operations does not
/// move it, as it would a total over a total.
pub fn median_rate(samples: &[Sample]) -> f64 {
    let rates: Vec<f64> = samples
        .iter()
        .map(|s| s.units as f64 / (s.ns.max(1) as f64 / 1e9))
        .collect();
    median(&rates)
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of an ascending slice: the
/// smallest sample with at least `p·n` samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank `p`-quantile of values in any order.
pub fn quantile(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, p)
}

/// The durations of `samples`, ascending.
pub fn sorted_ns(samples: &[Sample]) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    v.sort_unstable();
    v
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a slice needs for its p99 to have ten samples beyond it.
pub const P99_SLICE_SAMPLES: usize = 1000;

/// The median latency of one slice, in ns.
pub fn p50_ns(slice: &[Sample]) -> f64 {
    percentile(&sorted_ns(slice), 0.5) as f64
}

/// The p99 latency of one slice, in ns.
pub fn p99_ns(slice: &[Sample]) -> f64 {
    percentile(&sorted_ns(slice), 0.99) as f64
}

/// Summarise one value per slice of a run by the decile on the fast side
/// (nearest rank): the first decile where lower is better, the last where
/// higher is. The host's interference comes in stretches and only ever
/// slows a slice down, so the slow slices say more about the host than
/// about the engine; the fast-side decile stays put while up to nine slices
/// in ten are disturbed, and a slower engine still moves every slice.
pub fn quiet(per_slice: &[f64], lower_is_better: bool) -> f64 {
    assert!(!per_slice.is_empty(), "no slice to summarise");
    let mut v = per_slice.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    let rank = (0.1 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How the slices of a workload relate to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slicing {
    /// The dataset does not change: every slice measures the same thing.
    Alike,
    /// The dataset grows the same way in every repeat: slice `j` of one
    /// repeat measures what slice `j` of another does, and nothing else.
    Aligned,
}

/// Summarise `per_slice[repeat][slice]`. [`Slicing::Alike`]: the quiet
/// decile of all slices of all repeats. [`Slicing::Aligned`]: for every
/// slice index (that all repeats reached) the best value over the repeats,
/// which only interference that hit that slice in every repeat moves, then
/// the median over the indices.
pub fn summarise(per_slice: &[Vec<f64>], lower_is_better: bool, slicing: Slicing) -> f64 {
    match slicing {
        Slicing::Alike => {
            let all: Vec<f64> = per_slice.iter().flatten().copied().collect();
            quiet(&all, lower_is_better)
        }
        Slicing::Aligned => median(&best_per_index(per_slice, lower_is_better)),
    }
}

/// For every index all `repeats` have, the best value over the repeats.
pub fn best_per_index(repeats: &[Vec<f64>], lower_is_better: bool) -> Vec<f64> {
    let n = repeats.iter().map(Vec::len).min().unwrap_or(0);
    let best = if lower_is_better { f64::min } else { f64::max };
    (0..n)
        .map(|j| repeats.iter().map(|r| r[j]).reduce(best).expect("a repeat"))
        .collect()
}

/// The quartiles of `values` as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default, exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        // No interpolation and no bucketing: the answer is always a sample.
        let odd = [3u64, 7, 7, 1000, 1_000_000];
        assert_eq!(percentile(&odd, 0.5), 7);
        assert_eq!(percentile(&odd, 0.8), 1000);
        assert_eq!(percentile(&odd, 0.81), 1_000_000);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_rate_ignores_a_stalled_minority() {
        // 1000 units per millisecond, except two operations that stalled.
        let sample = |ns| Sample { ns, units: 1000 };
        let samples = [1_000_000, 1_000_000, 50_000_000, 1_000_000, 90_000_000].map(sample);
        assert_eq!(median_rate(&samples), 1e6);
    }

    fn slice_of(n: u64, scale: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                ns: (i + 1) * scale,
                units: 1000,
            })
            .collect()
    }

    #[test]
    fn quiet_is_the_fast_side_decile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&v, true), 2.0);
        assert_eq!(quiet(&v, false), 19.0);
        // Up to ten slices: the best one.
        assert_eq!(quiet(&[5.0, 1.0, 3.0], true), 1.0);
        assert_eq!(quiet(&[5.0, 1.0, 3.0], false), 5.0);
        assert_eq!(quiet(&[4.0], true), 4.0);
    }

    #[test]
    fn slices_alike_ignore_disturbed_slices() {
        // Twenty slices of 1000 samples with latency 1..=1000; in thirteen
        // of them the host made everything 100x slower.
        let slices: Vec<Vec<Sample>> = (0..20)
            .map(|w| slice_of(1000, if w % 3 == 0 { 1 } else { 100 }))
            .collect();
        let grid = |stat: fn(&[Sample]) -> f64| vec![slices.iter().map(|s| stat(s)).collect()];
        assert_eq!(summarise(&grid(p50_ns), true, Slicing::Alike), 500.0);
        assert_eq!(summarise(&grid(p99_ns), true, Slicing::Alike), 990.0);
        // 1000 units in the median 500 (or 501) ns.
        let rate = summarise(&grid(median_rate), false, Slicing::Alike);
        assert!((1.99e9..2.01e9).contains(&rate), "{rate}");
        // The plain p99 over all samples is dragged up by the slow slices.
        let all: Vec<Sample> = slices.iter().flatten().copied().collect();
        assert!(p99_ns(&all) > 10_000.0);
    }

    #[test]
    fn aligned_slices_take_the_best_repeat_of_each_index() {
        // Three repeats over a dataset that grows: slice j costs 10(j+1),
        // and each repeat was disturbed (x3) in different slices.
        let repeats = vec![
            vec![30.0, 20.0, 30.0, 40.0, 150.0],
            vec![10.0, 60.0, 30.0, 120.0, 50.0],
            vec![10.0, 20.0, 90.0, 40.0, 50.0, 60.0],
        ];
        assert_eq!(
            best_per_index(&repeats, true),
            [10.0, 20.0, 30.0, 40.0, 50.0]
        );
        assert_eq!(summarise(&repeats, true, Slicing::Aligned), 30.0);
        assert_eq!(
            best_per_index(&repeats, false),
            [30.0, 60.0, 90.0, 120.0, 150.0]
        );
        // Slices alike would have picked the small dataset's slices.
        assert_eq!(summarise(&repeats, true, Slicing::Alike), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
