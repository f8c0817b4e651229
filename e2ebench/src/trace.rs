//! In-memory spans for the traced pass, written out once at exit.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer. A span's *self time* is its duration minus the part of it its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One span. `parent` is the `id` of the span that caused it (0 for a root);
/// spans of one op share `op`. `count` is the work the span covered (probes,
/// observations, bytes — whatever its layer counts).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `stream.epoch`.
    pub name: &'static str,
    /// 1-based identifier, unique within a recorder.
    pub id: u32,
    /// The enclosing span, 0 for none.
    pub parent: u32,
    /// The op the span belongs to.
    pub op: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Work covered.
    pub count: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span store: a flat list plus the stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    /// Start the next op: spans recorded from here on carry its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Record `body` as a span named `name`, child of whatever span is open.
    /// `body` returns its result and the span's count.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> T {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.op,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        let (result, count) = body(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
        result
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record an interval timed elsewhere as a child of the open span.
    pub fn interval(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) {
        self.spans.push(Span {
            name,
            id: self.spans.len() as u32 + 1,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.op,
            start_ns,
            end_ns,
            count,
        });
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.count
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_op_and_count() {
        let mut rec = Recorder::default();
        rec.next_op();
        rec.span("outer", |rec| {
            rec.span("inner", |_| ((), 3));
            let now = rec.now_ns();
            rec.interval("timed elsewhere", now, now + 10, 7);
            ((), 1)
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));
        assert_eq!((spans[1].count, spans[2].count, spans[0].op), (3, 7, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(crate::json::parse(&rec.to_json()).is_ok());
    }
}
