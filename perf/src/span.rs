//! Harness-side spans: one per call (or per loop of identical
//! sub-microsecond calls) into a layer's public function.
//!
//! Spans are kept in memory and written as JSON lines when the run ends.
//! A disabled tracer records nothing, which is how the untraced run
//! (the source of every end-to-end number) stays free of this bookkeeping.

use std::io::Write;
use std::time::Instant;

use serde::Serialize;

use crate::alloc;

/// One recorded span. `parent` is the id of the enclosing span (0 = none);
/// `pass` is the pass the span belongs to (0 = set-up or a layer driver).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub parent: u64,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans relative to its creation instant.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, innermost last.
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Spans opened from now on belong to `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. With the tracer disabled this
    /// is exactly `f(self)`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        self.spans.push(Span {
            id: index as u64 + 1,
            name: name.to_string(),
            parent,
            pass: self.pass,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push(index);
        // Read the clock and the counter last, so the span excludes its
        // own bookkeeping.
        let allocs = alloc::allocs();
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = alloc::allocs() - allocs;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            let line = serde_json::to_string(span)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != 0 {
            let parent = (span.parent - 1) as usize;
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Total duration of the spans selected by `pick`.
pub fn total_ns(spans: &[Span], pick: impl Fn(&Span) -> bool) -> u64 {
    spans
        .iter()
        .filter(|s| pick(s))
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            parent,
            pass: 1,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, 0, 100), // root: children cover 30 + 50
            span(2, 1, 10, 40), // child with its own child
            span(3, 2, 15, 25), // grandchild: charged to span 2 only
            span(4, 1, 45, 95), // second child
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
    }

    #[test]
    fn tracer_nests_and_numbers_spans() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let out = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].id, s[0].parent, s[0].pass), (1, 0, 3));
        assert_eq!((s[1].id, s[1].parent), (2, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 1), 1);
        assert!(t.spans().is_empty());
    }
}
