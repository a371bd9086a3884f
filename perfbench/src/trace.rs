//! Spans recorded by the benchmark around its calls into each crate.
//! A disabled tracer records nothing; an enabled one keeps every span
//! in memory (name, start, end, parent) and writes them out at the end
//! of the run. Per-layer timings are aggregates of span durations.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl SpanRec {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    /// Adds spans timed elsewhere (on client threads, with the same
    /// origin) under the innermost open span.
    pub fn absorb(&mut self, spans: impl IntoIterator<Item = (String, u64, u64)>) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        for (name, start_ns, end_ns) in spans {
            self.spans.push(SpanRec {
                name,
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::micros)
            .collect()
    }

    /// Writes the spans as TSV: id, parent, name, start and end in µs
    /// since the run began, self time in µs.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.micros();
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_us\tend_us\tself_us")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{:.3}\t{:.3}\t{:.3}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                (s.micros() - child_us[id]).max(0.0)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("a", |t| t.span("b", |_| ()));
        assert!(t.durations_us("a").is_empty());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.absorb([("client".to_string(), 0, 1000)]);
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.durations_us("outer")[0] >= t.durations_us("inner")[0]);
        assert_eq!(t.durations_us("client"), vec![1.0]);
    }
}
