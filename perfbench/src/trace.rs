//! Spans recorded from outside the program, around each call into a
//! layer: name, start, end, parent, the request they belong to, and the
//! bytes allocated while they were open. Spans stay in memory and are
//! written out with the result.

use std::time::Instant;

use ffm_core::Json;

use crate::alloc;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Recording thread (0 = main, 1.. = load-generator clients).
    pub track: u32,
    /// Request the span belongs to (serve jobs: job index + 1; 0 = none).
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn alloc_mib(&self) -> f64 {
        self.alloc_bytes as f64 / (1u64 << 20) as f64
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    track: u32,
    trace: u64,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, track: u32) -> Tracer {
        Tracer { enabled: true, origin, track, trace: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing (untraced runs share the code path).
    pub fn disabled(origin: Instant) -> Tracer {
        Tracer { enabled: false, ..Tracer::new(origin, 0) }
    }

    /// Tag the spans opened from now on with a request id.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns `f`'s result and the span's index.
    /// Spans of a disabled tracer get index `usize::MAX`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, usize) {
        if !self.enabled {
            return (f(self), usize::MAX);
        }
        let idx = self.spans.len();
        let (b0, c0) = alloc::snapshot();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            track: self.track,
            trace: self.trace,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            alloc_bytes: 0,
            allocs: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let (b1, c1) = alloc::snapshot();
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.alloc_bytes = b1 - b0;
        s.allocs = c1 - c0;
        (out, idx)
    }

    /// Rename a span once its outcome is known.
    pub fn rename(&mut self, idx: usize, name: &str) {
        if let Some(s) = self.spans.get_mut(idx) {
            s.name = name.to_string();
        }
    }

    /// Share of span `root`'s duration covered by its direct children.
    pub fn coverage(&self, root: usize) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        covered as f64 / (self.spans[root].end_ns - self.spans[root].start_ns).max(1) as f64
    }

    /// Append another tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("track", Json::Int(s.track as i128)),
                ("trace", Json::Int(s.trace as i128)),
                ("start_ns", Json::Int(s.start_ns as i128)),
                ("end_ns", Json::Int(s.end_ns as i128)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as i128))),
                ("alloc_bytes", Json::Int(s.alloc_bytes as i128)),
                ("allocs", Json::Int(s.allocs as i128)),
            ])
        }))
    }
}
