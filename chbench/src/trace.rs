//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Each client thread owns a [`Tracer`]; spans stay in memory until the
//! run ends, when the per-thread buffers are merged and written out. With
//! tracing off, `begin`/`end` only test a flag.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// A fresh request id, shared by every span of one transaction or query.
pub fn next_request() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Request id shared by all spans of one transaction or query.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `on` false every call is a no-op.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (and any left open inside it).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = now;
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = now;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread buffers, rebasing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for buf in buffers {
        let base = out.len();
        out.extend(buf.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span), so overlapping children are
/// not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total ns, self ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// Durations in microseconds of the spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Children [10,40) and [30,60) overlap: union is 50, not 60.
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // A disjoint child and one sticking out past the parent.
            span("c", 70, 80, Some(0)),
            span("d", 95, 120, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10 - 5);
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[5], 8);
        let names = by_name(&spans);
        assert_eq!(names["root"], (1, 100, 35));
    }

    #[test]
    fn nested_begin_end_sets_parents_and_requests() {
        let mut t = Tracer::new(true, Instant::now());
        let r = next_request();
        let outer = t.begin("txn", r);
        let inner = t.begin("sql.parse", r);
        t.end(inner);
        let second = t.begin("core.dml", r);
        t.end(second);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == r && s.end_ns >= s.start_ns));
        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[4].parent, Some(3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("txn", 1);
        t.end(id);
        assert!(id.is_none());
        assert!(t.into_spans().is_empty());
    }
}
