//! Exporters: Prometheus text exposition and JSON.
//!
//! There is deliberately no network server here — callers scrape the
//! rendered string and ship it however they like (HTTP handler, log line,
//! file artifact). Histograms are rendered in the Prometheus *summary*
//! convention (`{quantile="0.5"}` series plus `_sum`/`_count`) because the
//! geometric buckets already did the aggregation; JSON additionally carries
//! the non-empty buckets for offline analysis.

use crate::hist::{bucket_bounds, HistogramSnapshot, BUCKETS};
use crate::registry::MetricsSnapshot;
use crate::trace::TraceRecord;

/// Escape a Prometheus label *value*: backslash, double quote, and newline
/// must be backslash-escaped per the text exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            other => out.push(other),
        }
    }
    out
}

/// Split a metric name into its base and the inner label list, if any:
/// `foo{a="b"}` → `("foo", Some("a=\"b\""))`.
fn split_name(name: &str) -> (&str, Option<&str>) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(i), true) => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Build one series name: `base` + optional suffix + merged label list.
fn series(base: &str, suffix: &str, labels: Option<&str>, extra: Option<&str>) -> String {
    let inner = match (labels, extra) {
        (Some(l), Some(e)) => format!("{l},{e}"),
        (Some(l), None) => l.to_string(),
        (None, Some(e)) => e.to_string(),
        (None, None) => String::new(),
    };
    if inner.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{suffix}{{{inner}}}")
    }
}

/// Render a metrics snapshot in the Prometheus text exposition format.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let (base, labels) = split_name(name);
        out.push_str(&format!("{} {}\n", series(base, "", labels, None), v));
    }
    for (name, v) in &snap.gauges {
        let (base, labels) = split_name(name);
        out.push_str(&format!("{} {}\n", series(base, "", labels, None), v));
    }
    for (name, h) in &snap.histograms {
        let (base, labels) = split_name(name);
        for (q, label) in [
            (h.p50(), "0.5"),
            (h.p90(), "0.9"),
            (h.p99(), "0.99"),
            (h.p999(), "0.999"),
        ] {
            let extra = format!("quantile=\"{label}\"");
            out.push_str(&format!(
                "{} {}\n",
                series(base, "", labels, Some(&extra)),
                q
            ));
        }
        out.push_str(&format!(
            "{} {}\n",
            series(base, "_sum", labels, None),
            h.sum
        ));
        out.push_str(&format!(
            "{} {}\n",
            series(base, "_count", labels, None),
            h.count()
        ));
    }
    out
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = (0..BUCKETS)
        .filter(|&i| h.counts[i] > 0)
        .map(|i| format!("[{},{}]", bucket_bounds(i).0, h.counts[i]))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[{}]}}",
        h.count(),
        h.sum,
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999(),
        buckets.join(",")
    )
}

/// Render a metrics snapshot as a JSON object with `counters`, `gauges`,
/// and `histograms` maps (histograms keep quantiles plus non-empty buckets
/// as `[lower_bound, count]` pairs).
pub fn to_json(snap: &MetricsSnapshot) -> String {
    let counters: Vec<String> = snap
        .counters
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v))
        .collect();
    let gauges: Vec<String> = snap
        .gauges
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v))
        .collect();
    let hists: Vec<String> = snap
        .histograms
        .iter()
        .map(|(k, h)| format!("\"{}\":{}", escape_json(k), histogram_json(h)))
        .collect();
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        hists.join(",")
    )
}

/// Render slow-query trace records as a JSON array (oldest first).
pub fn traces_to_json(records: &[TraceRecord]) -> String {
    let items: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"op\":\"{}\",\"total_nanos\":{},\"plan_nanos\":{},\"position_nanos\":{},\
                 \"merge_nanos\":{},\"blocks_read\":{},\"cache_hits\":{},\"bytes_decoded\":{},\
                 \"retries\":{}}}",
                escape_json(r.op),
                r.total_nanos,
                r.plan_nanos,
                r.position_nanos,
                r.merge_nanos,
                r.blocks_read,
                r.cache_hits,
                r.bytes_decoded,
                r.retries
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // Composed: a label value with every special character survives the
        // exposition round trip as one line.
        let v = escape_label_value("x\"\\\ny");
        let r = Registry::new();
        r.counter(&format!("m{{k=\"{v}\"}}")).inc();
        let text = to_prometheus(&r.snapshot());
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("m{k=\"x\\\"\\\\\\ny\"} 1"));
    }

    #[test]
    fn prometheus_renders_all_kinds() {
        let r = Registry::new();
        r.counter("umzi_ops_total{op=\"get\"}").add(3);
        r.gauge("umzi_entries").set(42);
        let h = r.histogram("umzi_latency{op=\"get\"}");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("umzi_ops_total{op=\"get\"} 3\n"));
        assert!(text.contains("umzi_entries 42\n"));
        assert!(text.contains("umzi_latency{op=\"get\",quantile=\"0.5\"}"));
        assert!(text.contains("umzi_latency_sum{op=\"get\"} 600\n"));
        assert!(text.contains("umzi_latency_count{op=\"get\"} 3\n"));
    }

    #[test]
    fn json_is_parseable_shape() {
        let r = Registry::new();
        r.counter("c\"tricky").add(1);
        r.histogram("h").record(5);
        let json = to_json(&r.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c\\\"tricky\":1"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"buckets\":[[4,1]]"));
    }
}
