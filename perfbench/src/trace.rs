//! In-memory spans around calls into the program's layers.
//!
//! The benchmark records a span (name, start, end, parent, unit id) around
//! each public layer call it makes; nothing inside the program is
//! instrumented. Spans stay in memory and are written as JSONL when the run
//! ends, followed by one summary line per layer with its self time: a span's
//! duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `ddnnf` or `serve.count`.
    pub name: &'static str,
    /// The cell, request or shared input the span worked for.
    pub unit: String,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A single-threaded span recorder. A disabled tracer runs the same code
/// and records nothing, which is how the tracing overhead is measured.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for `unit`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        unit: impl FnOnce() -> String,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            unit: unit(),
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records an already-timed span with no children.
    pub fn record(&mut self, name: &'static str, unit: String, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                unit,
                start: start.duration_since(self.origin).as_secs_f64(),
                end: end.duration_since(self.origin).as_secs_f64(),
                parent: self.open.last().copied(),
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Summed self time per layer name.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }

    /// Summed self time of layer `name` (0 when it never ran).
    pub fn busy(&self, name: &str) -> f64 {
        self.layer_self_times().get(name).copied().unwrap_or(0.0)
    }

    /// Writes every span, then one summary line per layer, as JSONL.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for ((id, s), own) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"unit\": \"{}\", \"parent\": {parent}, \
                 \"start_s\": {:?}, \"end_s\": {:?}, \"self_s\": {:?}}}",
                s.name, s.unit, s.start, s.end, own
            );
        }
        for (layer, own) in self.layer_self_times() {
            let spans = self.spans.iter().filter(|s| s.name == layer).count();
            let _ = writeln!(
                out,
                "{{\"layer\": \"{layer}\", \"spans\": {spans}, \"self_s\": {own:?}}}"
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span(
            "cell",
            || "c0".into(),
            |t| {
                t.span(
                    "encode",
                    || "c0".into(),
                    |_| std::thread::sleep(std::time::Duration::from_millis(20)),
                );
            },
        );
        let own = t.self_times();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own[1] >= 0.019, "child self time {}", own[1]);
        assert!(
            own[0] < own[1],
            "parent self time {} not below child {}",
            own[0],
            own[1]
        );
        let layers = t.layer_self_times();
        assert!(
            (layers["cell"] + layers["encode"] - (t.spans()[0].end - t.spans()[0].start)).abs()
                < 1e-9
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("cell", || unreachable!("unit ids are not built"), |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.busy("cell"), 0.0);
    }
}
