//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around the calls it makes
//! into each layer's public functions; nothing inside the program is
//! instrumented. Spans stay in memory until the run ends and are then written
//! out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The traced pass the span belongs to.
    pub run: u64,
    /// Index of the span within the recorder.
    pub id: usize,
    /// The span that caused this one (the pass it ran in), if any.
    pub parent: Option<usize>,
    /// Layer call name, e.g. `store.get` or `core.flywheel`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// Spans plus the counts recorded at the same boundaries.
pub struct Tracer {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// The instant span times are measured from (for spans recorded on
    /// worker threads and added afterwards with [`Tracer::record`]).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// ns since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans recorded from now on with pass `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span that encloses the spans recorded until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now_ns();
        let id = self.record(name, start, start);
        self.open.push(id);
        id
    }

    /// Closes the span `id` opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.open.retain(|&o| o != id);
    }

    /// Records a finished span as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            run: self.run,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.record(name, start, end);
        r
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_default() += n;
    }

    /// Counter `name` (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total duration of the spans named `name`, in ns.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Mean duration of one `name` span in ns (0 when there was none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.busy_ns(name) as f64 / n as f64,
        }
    }

    /// Writes every span, then every counter, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span_and_sum_by_name() {
        let mut t = Tracer::default();
        t.set_run(3);
        let pass = t.open("pass");
        t.span("store.get", || ());
        t.span("store.get", || ());
        t.close(pass);
        t.span("store.get", || ());
        assert_eq!(t.calls("store.get"), 3);
        assert_eq!(t.spans[1].parent, Some(pass));
        assert_eq!(t.spans[3].parent, None);
        assert!(t.spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.mean_ns("absent"), 0.0);
        t.add("store.hits", 2);
        t.add("store.hits", 1);
        assert_eq!(t.counter("store.hits"), 3);
    }
}
