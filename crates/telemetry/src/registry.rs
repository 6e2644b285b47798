//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration (name interning) takes a lock; the returned handles are
//! plain `Arc`s over atomics, so the *recording* hot path is lock-free.
//! Callers resolve their handles once at construction and never look a
//! metric up by name per operation.
//!
//! Metric names follow the Prometheus convention and may carry a label set
//! inline: `umzi_query_duration_nanos{op="point_lookup"}`. The registry
//! treats names as opaque strings; the exporters split base name and labels
//! at render time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Registry of named metrics. Cheap to snapshot, lock-free to record into.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// An owned copy of a registry's state, extendable with derived values
/// before export. The one caller of [`Self::push_counter`] /
/// [`Self::push_gauge`] is `umzi_wildfire::TelemetrySnapshot`'s fold, which
/// appends every domain stats struct (storage, index, daemon, admission,
/// health) as `umzi_*` series and then [`Self::sort`]s, so both renderers in
/// this crate see one flat, ordered list.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name at capture.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name at capture.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, sorted by name at capture.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Append a derived gauge (not range-checked against existing names).
    pub fn push_gauge(&mut self, name: impl Into<String>, value: i64) {
        self.gauges.push((name.into(), value));
    }

    /// Append a derived counter value.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Re-establish name order after pushes, so rendered output does not
    /// depend on the order derived values were appended in.
    pub fn sort(&mut self) {
        self.counters.sort();
        self.gauges.sort();
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_interned_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.counter("y").get(), 0);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(-7);
        r.histogram("h").record(100);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("c".to_string(), 5)]);
        assert_eq!(s.gauges, vec![("g".to_string(), -7)]);
        assert_eq!(s.histogram("h").unwrap().count(), 1);
        assert!(s.histogram("nope").is_none());
    }

    #[test]
    fn pushed_values_sort_in_with_registered_ones() {
        let r = Registry::new();
        r.counter("b_total").add(1);
        r.gauge("y").set(1);
        let mut s = r.snapshot();
        s.push_counter("a_total", 2);
        s.push_gauge("x", -3);
        s.sort();
        let names = |v: &[(String, u64)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(names(&s.counters), ["a_total", "b_total"]);
        assert_eq!(s.gauges, vec![("x".to_string(), -3), ("y".to_string(), 1)]);
    }
}
