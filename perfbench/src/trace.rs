//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions. The serve path replays one request sequence once
//! per layer boundary, each pass entering one layer lower, so a layer's
//! self time is its pass's span minus the next pass's span for the same
//! request id.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the call crossed (e.g. `"tcp"`, `"proto"`).
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or cycle, or epoch) the call served.
    pub req: u64,
    /// Heap allocations made during the call (0 where not counted).
    pub allocs: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An append-only span log.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its index
    /// for use as a child's parent.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        allocs: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
            allocs,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now(), 0);
        out
    }

    /// Times `f` as a span and counts its allocations.
    pub fn time_counted<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let (out, allocs) = crate::alloc::counted(f);
        self.record(name, req, parent, start, Instant::now(), allocs);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'static str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (µs) of spans named `name`, in recording order.
    pub fn us_of(&self, name: &'static str) -> Vec<f64> {
        self.named(name).map(Span::us).collect()
    }

    /// Writes every span as tab-separated text, one per line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\tallocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.req, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Total span duration (µs) per request id over spans named `name`.
pub fn per_req_us<'a>(spans: impl Iterator<Item = &'a Span>) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.req).or_insert(0.0) += s.us();
    }
    out
}

/// Self time of a layer per request: its pass's time minus the next
/// lower pass's time for the same request id. A request the lower pass
/// never entered keeps its whole time.
pub fn self_us(outer: &BTreeMap<u64, f64>, inner: &BTreeMap<u64, f64>) -> Vec<f64> {
    outer
        .iter()
        .map(|(req, &t)| t - inner.get(req).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, req: u64, start_us: u64, end_us: u64) -> Span {
        Span {
            name,
            start_ns: start_us * 1000,
            end_ns: end_us * 1000,
            parent: None,
            req,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_pass_minus_next_pass_per_request() {
        // Pass "tcp" and pass "proto" replay the same three requests; the
        // proto pass never entered request 2 (say it was served from a
        // front-end shortcut), so request 2 keeps its whole time.
        let spans = [
            span("tcp", 0, 0, 50),
            span("tcp", 1, 60, 130),
            span("tcp", 2, 140, 150),
            span("proto", 0, 1000, 1030),
            span("proto", 1, 1040, 1100),
            // Two proto spans for one request add up.
            span("proto", 0, 1100, 1105),
        ];
        let outer = per_req_us(spans.iter().filter(|s| s.name == "tcp"));
        let inner = per_req_us(spans.iter().filter(|s| s.name == "proto"));
        assert_eq!(inner[&0], 35.0);
        assert_eq!(self_us(&outer, &inner), vec![15.0, 10.0, 10.0]);
    }

    #[test]
    fn recorded_spans_keep_parent_and_request() {
        let mut t = Trace::new();
        let start = t.epoch + Duration::from_micros(10);
        let outer = t.record(
            "engine",
            7,
            None,
            start,
            start + Duration::from_micros(40),
            3,
        );
        let inner = t.time("kernel", 7, Some(outer), || 1 + 1);
        assert_eq!(inner, 2);
        assert_eq!(t.spans()[0].us(), 40.0);
        assert_eq!(t.spans()[0].allocs, 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
        assert_eq!(t.us_of("engine"), vec![40.0]);
    }
}
