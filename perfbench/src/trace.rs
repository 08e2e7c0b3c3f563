//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each call into a
//! layer of the pipeline; nothing inside the program under test is
//! instrumented. A disabled tracer records nothing and costs one branch
//! per call, so the untraced run executes the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span opened around every job.
pub const JOB: &str = "job";

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `compiler.lower`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Id of the job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<u32>);

/// Records spans while enabled; a no-op otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A disabled tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            on: false,
            epoch,
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (between jobs only).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Tags the spans that follow with `job`.
    pub fn begin_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(i), "spans must close innermost first");
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name over `spans[from..]`, in nanoseconds: each
/// span's duration minus the durations of its direct children. Spans of
/// one job never overlap except by nesting, because jobs run one at a
/// time on one thread.
pub fn self_times(spans: &[Span], from: usize) -> BTreeMap<&'static str, u64> {
    let tail = &spans[from..];
    let mut child = vec![0u64; tail.len()];
    for s in tail {
        if let Some(p) = s.parent {
            let p = p as usize;
            assert!(p >= from, "span parent precedes the window");
            child[p - from] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in tail.iter().zip(child) {
        *out.entry(s.name).or_insert(0) += s.dur_ns() - c;
    }
    out
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start_ns, s.end_ns, s.job
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        };
        let spans = [
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 50, 60, Some(0)),
        ];
        let t = self_times(&spans, 0);
        assert_eq!(t["job"], 60);
        assert_eq!(t["a"], 30);
        assert_eq!(t["b"], 10);
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now());
        assert_eq!(tr.layer("x", || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
