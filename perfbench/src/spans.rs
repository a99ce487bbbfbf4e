//! In-memory spans around the benchmark's own calls into the library.
//!
//! Each span has a name, a start, an end and the span that opened it. They
//! are kept in memory while the benchmark runs and written out with the
//! result, so no I/O lands inside a measured interval.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran inside the interval.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (`None` while open).
    pub end_ns: Option<u64>,
}

/// Handle to an open span, returned by [`Spans::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: None,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`. Closing a span twice is a bug in the caller.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        assert!(span.end_ns.is_none(), "span {} closed twice", span.name);
        span.end_ns = Some(end);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Start of `id`, ns since the origin.
    pub fn start_ns(&self, id: SpanId) -> u64 {
        self.spans[id.0].start_ns
    }

    /// End of the closed span `id`, ns since the origin.
    pub fn end_ns(&self, id: SpanId) -> u64 {
        self.spans[id.0].end_ns.expect("span is closed")
    }

    /// Duration of the closed span `id`, in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        (self.end_ns(id) - self.start_ns(id)) as f64 / 1e9
    }

    /// Every span recorded so far, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus the time its direct
    /// children cover. Children of one span never overlap here (the
    /// benchmark opens them one after another), so their durations add.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let total = span.end_ns.unwrap_or(span.start_ns) - span.start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns.unwrap_or(s.start_ns) - s.start_ns)
            .sum();
        total.saturating_sub(children)
    }

    /// The spans as a JSON array of
    /// `{"id", "parent", "name", "start_ns", "end_ns", "self_ns"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n    ");
            }
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let end = span.end_ns.map_or("null".to_owned(), |e| e.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {end}, \"self_ns\": {}}}",
                span.name,
                span.start_ns,
                self.self_ns(i)
            );
        }
        out.push(']');
        out
    }
}
