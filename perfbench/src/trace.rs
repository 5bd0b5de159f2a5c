//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each crate's
//! public functions. Every span has a name, a start, an end and a parent;
//! the spans of one cell or request share that cell's or request's id. A
//! layer's self time is its span's duration minus its children's. A
//! disabled recorder never reads the clock, so the same harness code runs
//! traced and untraced and the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span: its slot in the recorder. `None` while disabled.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of cell or request `id`; its name is given on close,
    /// once the callee's route is known.
    pub fn begin(&mut self, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let slot = self.spans.len();
        self.spans.push(Span {
            name: "",
            id,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(slot);
        Open(Some(slot))
    }

    pub fn end(&mut self, open: Open, name: &'static str) {
        let Some(slot) = open.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[slot];
        span.name = name;
        span.end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(slot), "spans close in LIFO order");
    }

    /// Index of the next span to be recorded: the start of a pass.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, nanoseconds, over the spans recorded
    /// since `mark`.
    pub fn self_ns_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0) += (span.end_ns - span.start_ns) - children;
        }
        out
    }

    /// Durations of every span named `name` since `mark`, nanoseconds.
    pub fn durations_since(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Appends every recorded span as one JSON line to `out`; `thread`
    /// tells apart the recorders of concurrent client threads.
    pub fn write_jsonl(&self, thread: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\": {thread}, \"span\": {i}, \"name\": \"{}\", \"id\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
    }
}
