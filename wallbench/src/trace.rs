//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the durations of its children
//! (children of one log never overlap: each log belongs to one thread).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished or open span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer call name.
    pub name: &'static str,
    /// Request unit the span belongs to.
    pub request: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Start, µs since the log's epoch.
    pub start_us: f64,
    /// End, µs since the log's epoch (equal to start while open).
    pub end_us: f64,
}

/// An in-memory span log for one thread.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.us(Instant::now());
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            request,
            parent: self.open.last().copied(),
            start_us: now,
            end_us: now,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// Record a finished span from instants taken at its boundaries.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(SpanRec { name, request, parent, start_us, end_us });
        self.spans.len() - 1
    }

    /// Duration of span `id`, ms.
    pub fn total_ms(&self, id: usize) -> f64 {
        (self.spans[id].end_us - self.spans[id].start_us) / 1e3
    }

    /// Self time of every span (duration minus its children), ms.
    pub fn self_ms_all(&self) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                children[p] += self.total_ms(i);
            }
        }
        (0..self.spans.len()).map(|i| self.total_ms(i) - children[i]).collect()
    }

    /// Self times of every span named `name`, ms.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        let all = self.self_ms_all();
        (0..self.spans.len()).filter(|&i| self.spans[i].name == name).map(|i| all[i]).collect()
    }

    /// Durations of every span named `name`, ms.
    pub fn total_ms_of(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.total_ms(i))
            .collect()
    }

    /// Append the spans as JSON lines (`log` tags the thread).
    pub fn append_jsonl(&self, log: &str, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"log\":\"{log}\",\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.request, s.start_us, s.end_us
            );
        }
    }
}

/// Write span logs to `path` as JSON lines, one span a line.
pub fn write_spans(path: &Path, logs: &[(&str, &SpanLog)]) -> Result<(), String> {
    let mut out = String::new();
    for (tag, log) in logs {
        log.append_jsonl(tag, &mut out);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
