//! In-memory spans recorded by the benchmark around its calls into the
//! crates, written out when the run ends.
//!
//! A span has an id, a parent, a request id, a name and a start and end
//! offset from the tracer's origin. The per-call cost of a layer the
//! benchmark calls itself (parse, apply, emit) is its spans' mean
//! duration, [`Tracer::mean_us`].

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    parent: Option<usize>,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. Spans are pushed after the fact from `Instant`s the
/// benchmark takes anyway, so recording costs one `Vec` push per span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]` and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.span_ns(name, parent, req, self.offset(start), self.offset(end))
    }

    /// Records a span from raw offsets (for durations reported by the
    /// server, placed inside the client's window).
    pub fn span_ns(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            req,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Start offset of span `id` in nanoseconds.
    pub fn start_ns(&self, id: usize) -> u64 {
        self.spans[id].start_ns
    }

    fn duration(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Mean duration of the spans named `name`, in microseconds; 0 when
    /// there are none.
    pub fn mean_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.duration(id) as f64 / 1e3)
            .collect();
        crate::stats::mean(&durations)
    }

    /// Writes every span as one JSON line
    /// (`{"id","parent","req","name","start_ns","end_ns"}`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where a run's spans are written: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_over_the_spans_of_one_name() {
        let mut t = Tracer::new(Instant::now());
        let root = t.span_ns("pass", None, 0, 0, 10_000);
        t.span_ns("ir.parse", Some(root), 0, 0, 3_000);
        t.span_ns("ir.parse", Some(root), 0, 3_000, 4_000);
        t.span_ns("driver.run_batch", Some(root), 0, 4_000, 9_000);
        assert_eq!(t.mean_us("ir.parse"), 2.0);
        assert_eq!(t.mean_us("core.apply"), 0.0);
    }
}
