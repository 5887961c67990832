//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end in host ns
//! since the tracer was made, its parent span, and optionally the request
//! id of a served request and the modeled µs the call returned. Spans stay
//! in memory; [`Tracer::write_chrome`] writes them out at exit. An
//! untraced [`Tracer`] records nothing and hands out span id 0.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recording thread: 0 for the main thread, 1 + connection index for
    /// client threads.
    pub tid: u32,
    pub request_id: Option<u64>,
    pub modeled_us: Option<f64>,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span opened by [`Tracer::open`], closed by [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    tid: u32,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Host ns since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<SpanId>, tid: u32) -> Open {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            start_ns: if self.on { self.now_ns() } else { 0 },
            tid,
        }
    }

    pub fn close(&self, open: Open, request_id: Option<u64>, modeled_us: Option<f64>) {
        if self.on {
            let end_ns = self.now_ns();
            self.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                tid: open.tid,
                request_id,
                modeled_us,
            });
        }
    }

    /// Record a span whose interval was measured by the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        request_id: Option<u64>,
        modeled_us: Option<f64>,
    ) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                tid,
                request_id,
                modeled_us,
            });
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Write every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
                s.name,
                s.layer(),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent.unwrap_or(0),
            ));
            if let Some(r) = s.request_id {
                out.push_str(&format!(",\"request_id\":{r}"));
            }
            if let Some(m) = s.modeled_us {
                out.push_str(&format!(",\"modeled_us\":{m}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Self time per layer, ns: the wall time during which some span of the
/// layer was open and none of that span's children was. Concurrent spans
/// of one layer (requests in flight together) count once.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut own: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let kids = union(children.remove(&s.id).unwrap_or_default());
        let layer = own.entry(s.layer()).or_default();
        // The gaps between the children's union are the span's own time.
        let mut at = s.start_ns;
        for (a, b) in kids {
            let (a, b) = (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns));
            if a > at {
                layer.push((at, a));
            }
            at = at.max(b);
        }
        if s.end_ns > at {
            layer.push((at, s.end_ns));
        }
    }
    own.into_iter()
        .map(|(layer, iv)| (layer, union(iv).iter().map(|(a, b)| b - a).sum()))
        .collect()
}

/// Sorted, disjoint union of `intervals`.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            tid: 0,
            request_id: None,
            modeled_us: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "bench.run", 0, 100),
            // Two overlapping children (two connections in flight).
            span(2, Some(1), "server.request", 10, 50),
            span(3, Some(1), "server.request", 30, 60),
            span(4, Some(1), "core.solo", 70, 90),
            span(5, Some(4), "gcd_sim.upload", 75, 80),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 100 - 50 - 20);
        // The two requests overlap in 30..50: their union is 10..60.
        assert_eq!(t["server"], 50);
        assert_eq!(t["core"], 20 - 5);
        assert_eq!(t["gcd_sim"], 5);
    }

    #[test]
    fn untraced_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        let o = t.open("core.solo", None, 0);
        assert_eq!(o.id, 0);
        t.close(o, None, Some(1.0));
        t.record("server.request", None, 1, 0, 5, Some(7), None);
        assert!(t.spans().is_empty());
    }
}
