//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span: a name
//! (`<layer>.<what>`), a start and end relative to the tracer's epoch, and
//! the span that caused it. Spans are kept in memory and written out once,
//! when the benchmark ends. Nothing is recorded when tracing is off: an
//! untraced [`Scope`] just runs the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span list poisoned by a panic")[id].end = end;
    }

    /// Run `f` inside a root span.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce(Scope<'_>) -> R) -> R {
        let id = self.open(name, None);
        let out = f(Scope(Some((self, id))));
        self.close(id);
        out
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span list poisoned by a panic")
    }
}

/// Where new spans attach: a tracer and the enclosing span, or nothing
/// when tracing is off.
#[derive(Clone, Copy)]
pub struct Scope<'a>(Option<(&'a Tracer, usize)>);

impl<'a> Scope<'a> {
    pub const OFF: Scope<'static> = Scope(None);

    /// Run `f` inside a child span of this scope.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> R) -> R {
        match self.0 {
            None => f(self),
            Some((tracer, parent)) => {
                let id = tracer.open(name, Some(parent));
                let out = f(Scope(Some((tracer, id))));
                tracer.close(id);
                out
            }
        }
    }
}

/// Total duration of the spans called `name` (summed over threads).
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Wall-clock self time per layer. Every instant inside a root span is
/// charged to the innermost spans open at that instant: spans with no
/// open child. When spans on different threads overlap, the instant is
/// split evenly between them. On one thread this is the usual definition
/// (duration minus the part the children cover); with the split, the
/// layer self times add up to the root spans' wall time exactly.
pub fn self_secs(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    let mut cuts: Vec<u64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut open = vec![false; spans.len()];
    let mut innermost: Vec<usize> = Vec::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        for (id, s) in spans.iter().enumerate() {
            open[id] = s.start <= a && s.end >= b;
        }
        innermost.clear();
        innermost.extend(
            (0..spans.len()).filter(|&id| open[id] && !children[id].iter().any(|&c| open[c])),
        );
        let share = (b - a) as f64 * 1e-9 / innermost.len().max(1) as f64;
        for &id in &innermost {
            *out.entry(spans[id].layer()).or_insert(0.0) += share;
        }
    }
    out
}

/// Write named groups of spans (each from its own tracer) as one JSON
/// document.
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    groups: &[(&str, &[Span])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}")?;
    for (group, spans) in groups {
        writeln!(out, ",\n\"{group}\": [")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{workload}\"}}{comma}",
                s.name, s.start, s.end
            )?;
        }
        write!(out, "]")?;
    }
    writeln!(out, "}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_splits_overlap() {
        // Root 0..100; two overlapping children on different threads
        // (10..60 and 20..90) and a sequential tail child 90..95.
        let spans = [
            span("bench.pass", 0, 100, None),
            span("invoker.a", 10, 60, Some(0)),
            span("invoker.b", 20, 90, Some(0)),
            span("metrics.c", 90, 95, Some(0)),
        ];
        let t = self_secs(&spans);
        let ns = |layer: &str| (t[layer] * 1e9).round() as u64;
        assert_eq!(ns("bench"), 10 + 5);
        assert_eq!(ns("invoker"), 80);
        assert_eq!(ns("metrics"), 5);
        assert!((t.values().sum::<f64>() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn untraced_scope_records_nothing() {
        let x = Scope::OFF.span("bench.x", |s| s.span("bench.y", |_| 7));
        assert_eq!(x, 7);
        let tracer = Tracer::new();
        tracer.root("bench.pass", |s| s.span("invoker.run", |_| ()));
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
