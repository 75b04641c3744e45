//! Ground-truth recording of host-side activity.
//!
//! The timeline is the simulator's omniscient record: every nanosecond of
//! host time is attributable to work, driver-call overhead, waiting on the
//! device, launching, or instrumentation overhead. Measurement tools in
//! this repository (CUPTI-sim, the profiler models, the FFM stages) do
//! *not* read the timeline — they observe the system through their own
//! restricted interfaces — but tests and the experiment harness use it to
//! establish actual execution times and actual benefit.

use std::collections::HashMap;

use crate::clock::{Ns, Span};
use crate::device::OpId;
use crate::stack::FxBuildHasher;

/// Why the host blocked in the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitReason {
    /// An explicit synchronization API (`cuCtxSynchronize`, ...).
    Explicit,
    /// A side effect of another operation (`cuMemFree`, sync `cuMemcpy`).
    Implicit,
    /// A synchronization that occurs only under certain argument
    /// conditions (`cuMemcpyAsync` D2H to pageable memory, `cuMemsetD8` on
    /// unified memory).
    Conditional,
    /// A wait issued from the driver's private (non-public) API.
    Private,
}

impl WaitReason {
    const ALL: [WaitReason; 4] =
        [WaitReason::Explicit, WaitReason::Implicit, WaitReason::Conditional, WaitReason::Private];

    pub fn label(&self) -> &'static str {
        match self {
            WaitReason::Explicit => "explicit",
            WaitReason::Implicit => "implicit",
            WaitReason::Conditional => "conditional",
            WaitReason::Private => "private",
        }
    }
}

/// What the host was doing during an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEventKind {
    /// Application compute.
    Work { label: &'static str },
    /// Time inside a driver API call, excluding any blocking wait.
    DriverCall { api: &'static str },
    /// Blocked waiting for device progress.
    Wait { api: &'static str, reason: WaitReason, op: Option<OpId> },
    /// CPU-side cost of launching asynchronous device work.
    Launch { api: &'static str, op: Option<OpId> },
    /// Virtual time injected by the measurement infrastructure itself.
    Overhead { what: &'static str },
}

impl CpuEventKind {
    /// The API name for driver-related events.
    pub fn api(&self) -> Option<&'static str> {
        match self {
            CpuEventKind::DriverCall { api }
            | CpuEventKind::Wait { api, .. }
            | CpuEventKind::Launch { api, .. } => Some(api),
            _ => None,
        }
    }

    pub fn is_wait(&self) -> bool {
        matches!(self, CpuEventKind::Wait { .. })
    }

    pub fn is_overhead(&self) -> bool {
        matches!(self, CpuEventKind::Overhead { .. })
    }
}

/// One contiguous interval of host activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuEvent {
    pub kind: CpuEventKind,
    pub span: Span,
}

/// Events per storage chunk. 1024 records of 32 B are 32 KiB, well under
/// glibc's mmap threshold, so chunks come from the heap arena and a long
/// run never reallocates (or frees) a multi-MiB buffer.
const CHUNK: usize = 1024;

/// The stored form of a [`CpuEvent`]: every field of the event, with its
/// one name (`label`, `api` or `what`) replaced by an index into the
/// timeline's name table. 32 bytes, against 56 for a `CpuEvent`.
#[derive(Debug, Clone, Copy)]
struct Record {
    start: Ns,
    end: Ns,
    /// The device operation; meaningful only when `has_op` is set.
    op: u64,
    name: u32,
    kind: u8,
    /// Index into [`WaitReason::ALL`]; meaningful only for waits.
    reason: u8,
    has_op: bool,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 32);

const WORK: u8 = 0;
const DRIVER_CALL: u8 = 1;
const WAIT: u8 = 2;
const LAUNCH: u8 = 3;
const OVERHEAD: u8 = 4;

/// The full host-side record of a run.
///
/// Events are stored compactly ([`Record`]) in fixed-size chunks and
/// decoded on access, so [`Timeline::events`] yields `CpuEvent`s by value.
/// The total of `Overhead` events is kept as a running sum, making
/// [`Timeline::total_overhead_ns`] O(1): measurement layers read it on
/// every traced call to compensate their timestamps.
#[derive(Debug, Default)]
pub struct Timeline {
    chunks: Vec<Vec<Record>>,
    len: usize,
    names: Vec<&'static str>,
    name_ids: HashMap<&'static str, u32, FxBuildHasher>,
    overhead_ns: Ns,
}

impl Timeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event. Events are expected in nondecreasing start order
    /// (the machine generates them that way); this is asserted in debug
    /// builds.
    pub fn push(&mut self, kind: CpuEventKind, span: Span) {
        debug_assert!(
            self.chunks.last().and_then(|c| c.last()).is_none_or(|r| r.start <= span.start),
            "timeline events out of order"
        );
        let (tag, name, reason, op) = match kind {
            CpuEventKind::Work { label } => (WORK, label, 0, None),
            CpuEventKind::DriverCall { api } => (DRIVER_CALL, api, 0, None),
            CpuEventKind::Wait { api, reason, op } => (WAIT, api, reason as u8, op),
            CpuEventKind::Launch { api, op } => (LAUNCH, api, 0, op),
            CpuEventKind::Overhead { what } => {
                self.overhead_ns += span.duration();
                (OVERHEAD, what, 0, None)
            }
        };
        let record = Record {
            start: span.start,
            end: span.end,
            op: op.map_or(0, |o| o.0),
            name: self.name_id(name),
            kind: tag,
            reason,
            has_op: op.is_some(),
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    fn name_id(&mut self, name: &'static str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 event names");
        self.names.push(name);
        self.name_ids.insert(name, id);
        id
    }

    fn decode(&self, r: &Record) -> CpuEvent {
        let name = self.names[r.name as usize];
        let op = r.has_op.then_some(OpId(r.op));
        let kind = match r.kind {
            WORK => CpuEventKind::Work { label: name },
            DRIVER_CALL => CpuEventKind::DriverCall { api: name },
            WAIT => {
                CpuEventKind::Wait { api: name, reason: WaitReason::ALL[r.reason as usize], op }
            }
            LAUNCH => CpuEventKind::Launch { api: name, op },
            _ => CpuEventKind::Overhead { what: name },
        };
        CpuEvent { kind, span: Span { start: r.start, end: r.end } }
    }

    /// Every event in recording order, decoded.
    pub fn events(&self) -> Events<'_> {
        Events { timeline: self, next: 0 }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// End of the last recorded event.
    pub fn end_ns(&self) -> Ns {
        self.events().map(|e| e.span.end).max().unwrap_or(0)
    }

    /// Total host time spent blocked on the device.
    pub fn total_wait_ns(&self) -> Ns {
        self.sum_where(|e| e.kind.is_wait())
    }

    /// Total instrumentation-injected time (a running total, O(1)).
    pub fn total_overhead_ns(&self) -> Ns {
        self.overhead_ns
    }

    /// Total time attributed to a given driver API (call + wait + launch).
    pub fn api_total_ns(&self, api: &str) -> Ns {
        self.sum_where(|e| e.kind.api() == Some(api))
    }

    /// Sum of event durations matching a predicate.
    pub fn sum_where(&self, pred: impl Fn(&CpuEvent) -> bool) -> Ns {
        self.events().filter(|e| pred(e)).map(|e| e.span.duration()).sum()
    }

    /// The event active at time `t`, if any (events never overlap).
    pub fn event_at(&self, t: Ns) -> Option<CpuEvent> {
        // Events are sorted by start: find the last chunk starting at or
        // before `t`, then the last event in it that does.
        let c = self.chunks.partition_point(|c| c[0].start <= t).checked_sub(1)?;
        let chunk = &self.chunks[c];
        let i = chunk.partition_point(|r| r.start <= t) - 1;
        let event = self.decode(&chunk[i]);
        event.span.contains(t).then_some(event)
    }

    /// Iterate waits with their reasons, for tests and the harness.
    pub fn waits(&self) -> impl Iterator<Item = (&'static str, WaitReason, Span)> + '_ {
        self.events().filter_map(|e| match e.kind {
            CpuEventKind::Wait { api, reason, .. } => Some((api, reason, e.span)),
            _ => None,
        })
    }
}

/// Iterator over a [`Timeline`]'s events, in recording order.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    timeline: &'a Timeline,
    next: usize,
}

impl Iterator for Events<'_> {
    type Item = CpuEvent;

    fn next(&mut self) -> Option<CpuEvent> {
        if self.next == self.timeline.len {
            return None;
        }
        let r = &self.timeline.chunks[self.next / CHUNK][self.next % CHUNK];
        self.next += 1;
        Some(self.timeline.decode(r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.timeline.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Events<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(label: &'static str) -> CpuEventKind {
        CpuEventKind::Work { label }
    }

    #[test]
    fn totals_by_category() {
        let mut t = Timeline::new();
        t.push(work("w"), Span::new(0, 100));
        t.push(CpuEventKind::DriverCall { api: "cuMemcpy" }, Span::new(100, 120));
        t.push(
            CpuEventKind::Wait { api: "cuMemcpy", reason: WaitReason::Implicit, op: None },
            Span::new(120, 220),
        );
        t.push(CpuEventKind::Overhead { what: "probe" }, Span::new(220, 230));
        assert_eq!(t.total_wait_ns(), 100);
        assert_eq!(t.total_overhead_ns(), 10);
        assert_eq!(t.api_total_ns("cuMemcpy"), 120);
        assert_eq!(t.end_ns(), 230);
    }

    #[test]
    fn event_at_finds_the_active_event() {
        let mut t = Timeline::new();
        t.push(work("a"), Span::new(0, 10));
        t.push(work("b"), Span::new(10, 30));
        assert!(matches!(t.event_at(5).unwrap().kind, CpuEventKind::Work { label: "a" }));
        assert!(matches!(t.event_at(10).unwrap().kind, CpuEventKind::Work { label: "b" }));
        assert!(t.event_at(30).is_none());
    }

    #[test]
    fn event_at_handles_gaps() {
        let mut t = Timeline::new();
        t.push(work("a"), Span::new(0, 10));
        t.push(work("b"), Span::new(20, 30));
        assert!(t.event_at(15).is_none());
    }

    #[test]
    fn waits_iterator_reports_reasons() {
        let mut t = Timeline::new();
        t.push(
            CpuEventKind::Wait { api: "cuCtxSynchronize", reason: WaitReason::Explicit, op: None },
            Span::new(0, 5),
        );
        t.push(
            CpuEventKind::Wait { api: "cuMemFree", reason: WaitReason::Implicit, op: None },
            Span::new(5, 9),
        );
        let v: Vec<_> = t.waits().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].1, WaitReason::Explicit);
        assert_eq!(v[1].0, "cuMemFree");
        assert_eq!(v[1].2.duration(), 4);
    }

    #[test]
    fn lookups_span_chunk_boundaries() {
        let mut t = Timeline::new();
        let n = 3 * CHUNK as u64 + 7;
        for i in 0..n {
            // Every third slot is a gap, so some instants have no event.
            if i % 3 != 2 {
                t.push(CpuEventKind::Overhead { what: "probe" }, Span::new(10 * i, 10 * i + 10));
            }
        }
        assert_eq!(t.len(), t.events().len());
        assert_eq!(t.total_overhead_ns(), t.sum_where(|e| e.kind.is_overhead()));
        for i in 0..n {
            let hit = t.event_at(10 * i + 5);
            assert_eq!(hit.is_some(), i % 3 != 2, "instant {}", 10 * i + 5);
            if let Some(e) = hit {
                assert_eq!(e.span, Span::new(10 * i, 10 * i + 10));
            }
        }
        assert!(t.event_at(10 * n).is_none());
    }

    #[test]
    fn events_decode_every_field() {
        let mut t = Timeline::new();
        let kinds = [
            work("w"),
            CpuEventKind::DriverCall { api: "cuMemcpy" },
            CpuEventKind::Wait {
                api: "cuMemFree",
                reason: WaitReason::Private,
                op: Some(OpId(u64::MAX)),
            },
            CpuEventKind::Launch { api: "cuLaunchKernel", op: Some(OpId(0)) },
            CpuEventKind::Launch { api: "cuLaunchKernel", op: None },
            CpuEventKind::Overhead { what: "stackwalk" },
        ];
        for (i, kind) in kinds.iter().enumerate() {
            t.push(*kind, Span::new(i as Ns, i as Ns + 1));
        }
        let got: Vec<CpuEventKind> = t.events().map(|e| e.kind).collect();
        assert_eq!(got, kinds);
    }

    #[test]
    fn empty_timeline_is_harmless() {
        let t = Timeline::new();
        assert_eq!(t.end_ns(), 0);
        assert_eq!(t.total_wait_ns(), 0);
        assert!(t.event_at(0).is_none());
        assert!(t.is_empty());
    }
}
