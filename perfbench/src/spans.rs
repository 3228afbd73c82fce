//! In-memory spans for the traced run: opened by the benchmark around each
//! call into a layer, kept in a `Vec`, written out once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder: spans nest by call order (the open span is the parent
/// of the next one opened).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, job: usize) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, job, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in reverse order of opening");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `work` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, job: usize, work: impl FnOnce() -> R) -> R {
        let id = self.open(name, job);
        let result = work();
        self.close(id);
        result
    }

    /// Each span's own time: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_s();
            }
        }
        own
    }

    /// Self time summed per span name, per job: `totals[job][name]`.
    pub fn self_by_job(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let mut totals: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *totals.entry(span.job).or_default().entry(span.name).or_default() += own;
        }
        totals
    }

    /// For every root span named `root`: its duration, and the share of it
    /// that the self times of the spans below it account for.
    pub fn roots(&self, root: &str) -> Vec<(f64, f64)> {
        let own = self.self_times();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.parent.is_none() && span.name == root)
            .map(|(id, span)| {
                let duration = span.duration_s();
                (duration, (duration - own[id]) / duration)
            })
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |parent| parent.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.job, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}
