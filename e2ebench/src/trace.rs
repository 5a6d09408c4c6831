//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own code, around calls into each layer's public
//! functions, and written out once when the run ends.

use crate::stats::Span;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Collects spans relative to one origin instant.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// A fresh span id (for parents whose span is recorded after their
    /// children).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(&self, id: u64, parent: Option<u64>, name: &str, job: u64, start: f64, end: f64) {
        let span = Span { id, parent, name: name.to_string(), job, start, end };
        self.spans.lock().expect("span list poisoned by a panicking recorder").push(span);
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn span<T>(&self, parent: Option<u64>, name: &str, job: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(self.reserve(), parent, name, job, start, end);
        out
    }

    /// Every span recorded, sorted by start time.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans =
            self.spans.into_inner().expect("span list poisoned by a panicking recorder");
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Measured cost of recording one span (two clock reads, an id and a
/// push under the lock), seconds: the mean over a burst into a
/// throwaway tracer.
pub fn span_cost() -> f64 {
    const BURST: u32 = 20_000;
    let probe = Tracer::new();
    let t0 = Instant::now();
    for i in 0..BURST {
        probe.span(None, "probe", u64::from(i), || std::hint::black_box(i));
    }
    t0.elapsed().as_secs_f64() / f64::from(BURST)
}

/// Writes `spans` as JSON lines to `path` (parent directories created).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":{},"job":{},"start_s":{:.9},"end_s":{:.9}}}"#,
            s.id,
            parent,
            crate::json_str(&s.name),
            s.job,
            s.start,
            s.end
        )?;
    }
    out.flush()
}
