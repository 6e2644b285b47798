//! Spans recorded by the harness around its calls into each layer. They are
//! kept in memory and written out when the workload ends; a layer's self
//! time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::sut::Timed;

/// Index of a span in its tracer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one operation share this.
    pub op_id: u32,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Disabled (the untraced pass), `record` is one
/// branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per span name: how many, their total time, and their self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record the span of one timed call.
    pub fn record<T>(&mut self, name: &'static str, op_id: u32, parent: SpanId, t: &Timed<T>) {
        if self.enabled {
            self.push(name, op_id, parent, t.t0, t.t1);
        }
    }

    /// Open a span that encloses later ones; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, op_id: u32, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = Instant::now();
        self.push(name, op_id, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: SpanId,
        t0: Instant,
        t1: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        });
        id
    }

    /// Move another thread's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Write `{"names": [...], "spans": [[name, op_id, parent, start_ns,
    /// end_ns], ...]}`; `parent` is an index into `spans` or -1.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"names\": [")?;
        for (i, n) in names.iter().enumerate() {
            write!(w, "{}\"{n}\"", if i == 0 { "" } else { ", " })?;
        }
        write!(w, "],\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name was collected");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{}[{name},{},{parent},{},{}]",
                if i == 0 { "\n" } else { ",\n" },
                s.op_id,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Self time per span name. Children of one parent are recorded one after
/// another by a single thread, so the part of the parent they cover is the
/// sum of their durations, each clipped to the parent's interval.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("op.get", NO_PARENT, 0, 100),
            span("core.point_lookup", 0, 10, 60),
            span("run.lookup", 1, 20, 50),
            span("wildfire.fetch_row", 0, 60, 90),
            // A child that outlives its parent is clipped to it.
            span("late", 0, 95, 140),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["op.get"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 50 - 30 - 5
            }
        );
        assert_eq!(t["core.point_lookup"].self_ns, 50 - 30);
        assert_eq!(t["run.lookup"].self_ns, 30);
        assert_eq!(t["wildfire.fetch_row"].self_ns, 30);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.open("a.root", 1, NO_PARENT);
        a.close(root);
        let mut b = Tracer::new(true, epoch);
        let root = b.open("b.root", 2, NO_PARENT);
        let child = b.open("b.child", 2, root);
        b.close(child);
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", 0, NO_PARENT);
        t.close(id);
        assert!(t.spans().is_empty());
    }
}
