//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its own calls into each
//! layer's public functions; nothing inside the compiler is
//! instrumented. Every span of one circuit or request carries that
//! operation's id, and nesting is recorded through the parent index.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    /// The circuit or request the span belongs to.
    pub id: u64,
    /// Layer-qualified name, e.g. `core.map`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Collects spans; `end` closes what `begin` opened.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index for [`Tracer::end`] and as the
    /// parent of nested spans.
    pub fn begin(&mut self, id: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `index` and returns its duration in microseconds.
    pub fn end(&mut self, index: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e3
    }

    /// Records a span measured elsewhere (e.g. on another thread) from
    /// its start and end instants; returns its index.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in microseconds.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.begin(id, name, parent);
        let out = std::hint::black_box(f());
        (out, self.end(span))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name in microseconds: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin(1, "root", None);
        let (_, child_us) = t.time(1, "child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_us = t.end(root);
        let self_us = t.self_time_us();
        assert!((self_us["child"] - child_us).abs() < 1e-9);
        assert!((self_us["root"] - (root_us - child_us)).abs() < 1e-3);
        assert_eq!(t.len(), 2);
    }
}
