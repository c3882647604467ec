//! In-memory span recorder for the traced runs.
//!
//! A span is a name, a start and an end (nanoseconds since the recorder was
//! created), the index of the span that caused it, and the id of the
//! operation it belongs to (every span of one ingested file, one replayed
//! commit or one restore shares the id). Spans are recorded from the
//! benchmark's own code around calls into each layer, kept in memory and
//! written out once at the end. A span's self time is its duration minus the
//! part of it its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration.
    pub fn close(&mut self, span: usize) -> Duration {
        let end = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end;
        Duration::from_nanos(s.duration_ns())
    }

    /// Record `f` as a leaf span; returns its result and duration.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, op, parent);
        let out = f();
        let d = self.close(span);
        (out, d)
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Write every span, then the per-name totals, as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut s = String::from("{\"spans\": [\n");
        for (i, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            s.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{}\n",
                span.name,
                span.op,
                span.start_ns,
                span.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        s.push_str("],\n\"totals\": {\n");
        let totals = self.totals();
        let rows: Vec<String> = totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n}}\n");
        std::fs::write(path, s)
    }

    /// Per-name self-time table for the console.
    pub fn render_totals(&self) -> String {
        let mut s = String::from("  span                       count     total ms      self ms\n");
        for (name, t) in self.totals() {
            s.push_str(&format!(
                "  {:<24} {:>7} {:>12.3} {:>12.3}\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        s
    }
}
