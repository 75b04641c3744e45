//! Property-based tests for the simulator's core invariants.

// Gated: run with `--features extern-testing` (see workspace README).
#![cfg(feature = "extern-testing")]

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_sim::clock::{merged_duration, Span};
use gpu_sim::{
    AddressSpace, CostModel, CpuEvent, CpuEventKind, Device, Direction, Frame, GpuOpKind,
    HostAllocKind, Machine, MemError, Ns, OpId, SourceLoc, StackTrace, StreamId, Timeline,
    WaitReason,
};
use proptest::prelude::*;

/// Eager reference model of [`AddressSpace`]: every allocation is backed
/// by a zeroed `Vec<u8>` from the moment it is made, and bounds are
/// checked in `u128` so no length can wrap.
struct EagerSpace {
    next: u64,
    allocs: BTreeMap<u64, (Vec<u8>, HostAllocKind)>,
}

impl EagerSpace {
    fn new(base: u64) -> Self {
        Self { next: base.max(0x1000), allocs: BTreeMap::new() }
    }

    fn alloc(&mut self, size: u64, kind: HostAllocKind) -> u64 {
        let size = size.max(1);
        let base = self.next;
        self.next += size.div_ceil(256) * 256 + 256;
        self.allocs.insert(base, (vec![0; size as usize], kind));
        base
    }

    fn free(&mut self, addr: u64) -> Result<(), MemError> {
        self.allocs.remove(&addr).map(|_| ()).ok_or(MemError::BadFree { addr })
    }

    fn base_of(&self, addr: u64) -> Option<u64> {
        let (&base, (data, _)) = self.allocs.range(..=addr).next_back()?;
        (addr - base < data.len() as u64).then_some(base)
    }

    /// `(base, off, end)` of an access, or the error the space must give.
    fn span(&self, addr: u64, len: u64) -> Result<(u64, usize, usize), MemError> {
        let base = self.base_of(addr).ok_or(MemError::Unmapped { addr })?;
        let size = self.allocs[&base].0.len() as u64;
        let off = addr - base;
        if off as u128 + len as u128 > size as u128 {
            return Err(MemError::OutOfBounds { addr, len, alloc_size: size });
        }
        Ok((base, off as usize, (off + len) as usize))
    }

    fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        let (base, off, end) = self.span(addr, len)?;
        Ok(self.allocs[&base].0[off..end].to_vec())
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let (base, off, end) = self.span(addr, bytes.len() as u64)?;
        self.allocs.get_mut(&base).unwrap().0[off..end].copy_from_slice(bytes);
        Ok(())
    }

    fn fill(&mut self, addr: u64, len: u64, value: u8) -> Result<(), MemError> {
        let (base, off, end) = self.span(addr, len)?;
        self.allocs.get_mut(&base).unwrap().0[off..end].fill(value);
        Ok(())
    }

    fn set_kind(&mut self, addr: u64, kind: HostAllocKind) -> Result<(), MemError> {
        let base = self.base_of(addr).ok_or(MemError::Unmapped { addr })?;
        self.allocs.get_mut(&base).unwrap().1 = kind;
        Ok(())
    }

    fn kind_of(&self, addr: u64) -> Option<HostAllocKind> {
        self.base_of(addr).map(|b| self.allocs[&b].1)
    }

    fn size_of(&self, addr: u64) -> Option<u64> {
        self.allocs.get(&addr).map(|(d, _)| d.len() as u64)
    }

    fn live_bytes(&self) -> u64 {
        self.allocs.values().map(|(d, _)| d.len() as u64).sum()
    }
}

/// An arbitrary address-space operation: (op, pick, offset, length
/// selector, value). `pick` chooses a target among every base ever
/// returned (freed ones included) or a raw address; `offset` may land
/// past the allocation's end, in padding or in the next allocation.
fn mem_op_strategy() -> impl Strategy<Value = (u8, u64, u64, u8, u8)> {
    (0u8..7, any::<u64>(), 0u64..2_200, 0u8..10, any::<u8>())
}

/// Eager reference model of [`Timeline`]: every event kept as a
/// `CpuEvent` in one `Vec`, every query a scan (or, for `event_at`, a
/// binary search) over it.
struct EagerTimeline {
    events: Vec<CpuEvent>,
}

impl EagerTimeline {
    fn sum_where(&self, pred: impl Fn(&CpuEvent) -> bool) -> Ns {
        self.events.iter().filter(|e| pred(e)).map(|e| e.span.duration()).sum()
    }

    fn event_at(&self, t: Ns) -> Option<CpuEvent> {
        let idx = self.events.partition_point(|e| e.span.start <= t);
        idx.checked_sub(1).map(|i| self.events[i]).filter(|e| e.span.contains(t))
    }

    fn waits(&self) -> Vec<(&'static str, WaitReason, Span)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                CpuEventKind::Wait { api, reason, .. } => Some((api, reason, e.span)),
                _ => None,
            })
            .collect()
    }
}

const EVENT_NAMES: [&str; 5] = ["cuMemcpy", "cuMemFree", "probe", "stackwalk", "solve"];

/// An arbitrary event request: (kind, name, gap before it, duration,
/// reason/op selector).
fn event_strategy() -> impl Strategy<Value = (u8, u8, u64, u64, u64)> {
    (0u8..5, 0u8..5, 0u64..4, 0u64..40, any::<u64>())
}

/// An arbitrary shadow-stack op: (push/pop/capture, frame selector).
fn stack_op_strategy() -> impl Strategy<Value = (u8, u8)> {
    (0u8..3, 0u8..4)
}

/// An arbitrary op request: (delay before enqueue, stream, is_copy, duration).
fn op_strategy() -> impl Strategy<Value = (u64, u32, bool, u64)> {
    (0u64..1_000, 0u32..4, any::<bool>(), 1u64..500)
}

proptest! {
    /// Ops on the same engine never overlap, and ops on the same stream
    /// start only after their predecessor ends.
    #[test]
    fn device_scheduling_invariants(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut d = Device::new();
        let mut now = 0u64;
        for (delay, stream, is_copy, dur) in ops {
            now += delay;
            let kind = if is_copy {
                GpuOpKind::Transfer { dir: Direction::HtoD, bytes: dur }
            } else {
                GpuOpKind::Kernel { name: "k" }
            };
            d.enqueue(now, StreamId(stream), kind, dur);
        }
        let all = d.ops();
        for (i, a) in all.iter().enumerate() {
            // starts never precede enqueue
            prop_assert!(a.start_ns >= a.enqueue_ns);
            for b in &all[i + 1..] {
                if a.kind.engine() == b.kind.engine() {
                    // serial engines: no overlap
                    prop_assert!(b.start_ns >= a.end_ns || a.start_ns >= b.end_ns,
                        "engine overlap: {a:?} vs {b:?}");
                }
                if a.stream == b.stream {
                    // in-order streams: later enqueue finishes later
                    prop_assert!(b.start_ns >= a.end_ns,
                        "stream order violated: {a:?} vs {b:?}");
                }
            }
        }
        // busy time can never exceed makespan
        let makespan = d.device_completion();
        prop_assert!(d.busy_ns() <= makespan);
    }

    /// merged_duration is bounded by the sum of durations and by the hull.
    #[test]
    fn merged_duration_bounds(spans in proptest::collection::vec((0u64..10_000, 1u64..500), 0..40)) {
        let spans: Vec<Span> = spans.into_iter().map(|(s, d)| Span::new(s, s + d)).collect();
        let sum: u64 = spans.iter().map(|s| s.duration()).sum();
        let hull = spans.iter().map(|s| s.end).max().unwrap_or(0)
            .saturating_sub(spans.iter().map(|s| s.start).min().unwrap_or(0));
        let merged = merged_duration(spans.clone());
        prop_assert!(merged <= sum);
        prop_assert!(merged <= hull);
        if let Some(m) = spans.iter().map(|s| s.duration()).max() {
            prop_assert!(merged >= m);
        }
    }

    /// Address-space writes read back exactly, and distinct allocations
    /// never alias.
    #[test]
    fn address_space_roundtrip(
        sizes in proptest::collection::vec(1u64..2_048, 1..12),
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut m = AddressSpace::new(0x1000);
        let ptrs: Vec<u64> = sizes.iter().map(|&s| m.alloc(s, HostAllocKind::Pageable)).collect();
        for (&p, &s) in ptrs.iter().zip(&sizes) {
            let n = payload.len().min(s as usize);
            m.write(p, &payload[..n]).unwrap();
        }
        for (&p, &s) in ptrs.iter().zip(&sizes) {
            let n = payload.len().min(s as usize);
            prop_assert_eq!(m.read(p, n as u64).unwrap(), payload[..n].to_vec());
        }
        // free everything; space must be empty
        for &p in &ptrs {
            m.free(p).unwrap();
        }
        prop_assert_eq!(m.live_bytes(), 0);
        prop_assert_eq!(m.live_allocs(), 0);
    }

    /// Lazily backed allocations are indistinguishable from eagerly
    /// zero-filled ones: every operation, valid or not, gives the same
    /// result or error as the eager model, and so do the accounting
    /// queries after it.
    #[test]
    fn lazy_address_space_matches_eager_model(
        ops in proptest::collection::vec(mem_op_strategy(), 1..120),
    ) {
        const KINDS: [HostAllocKind; 3] =
            [HostAllocKind::Pageable, HostAllocKind::Pinned, HostAllocKind::Unified];
        let mut lazy = AddressSpace::new(0x1000);
        let mut eager = EagerSpace::new(0x1000);
        let mut bases: Vec<u64> = Vec::new();
        for (op, pick, off, len_sel, value) in ops {
            let (base, target) = match pick as usize % (bases.len() + 1) {
                i if i < bases.len() => (bases[i], bases[i] + off),
                _ => (pick >> (pick % 64), pick >> (pick % 64)),
            };
            let len = match len_sel {
                8 => u64::MAX - (pick & 0xff),
                9 => 0,
                _ => (pick >> 32) % 300,
            };
            // Half the fills and writes use zero, to cover the no-op path.
            let value = if value < 128 { 0 } else { value };
            let kind = KINDS[(pick % 3) as usize];
            match op {
                0 => {
                    let size = off % 2_100;
                    let p = lazy.alloc(size, kind);
                    prop_assert_eq!(p, eager.alloc(size, kind));
                    bases.push(p);
                }
                1 => {
                    let bytes: Vec<u8> =
                        (0..len.min(300)).map(|i| value.wrapping_mul(i as u8 | 1)).collect();
                    prop_assert_eq!(lazy.write(target, &bytes), eager.write(target, &bytes));
                }
                2 => prop_assert_eq!(lazy.fill(target, len, value), eager.fill(target, len, value)),
                3 => prop_assert_eq!(lazy.read(target, len), eager.read(target, len)),
                4 => {
                    let addr = if len_sel < 5 { base } else { target };
                    prop_assert_eq!(lazy.free(addr), eager.free(addr));
                }
                5 => prop_assert_eq!(lazy.set_kind(target, kind), eager.set_kind(target, kind)),
                _ => prop_assert_eq!(lazy.kind_of(target), eager.kind_of(target)),
            }
            prop_assert_eq!(lazy.live_bytes(), eager.live_bytes());
            prop_assert_eq!(lazy.live_allocs(), eager.allocs.len());
            prop_assert_eq!(lazy.is_mapped(target), eager.base_of(target).is_some());
            for &b in &bases {
                prop_assert_eq!(lazy.size_of(b), eager.size_of(b));
                prop_assert_eq!(lazy.is_mapped(b), eager.size_of(b).is_some());
            }
        }
        for (&b, (data, _)) in &eager.allocs {
            prop_assert_eq!(&lazy.read(b, data.len() as u64).unwrap(), data);
        }
    }

    /// Transfer cost is monotone in size for every direction/pinnedness.
    #[test]
    fn transfer_cost_monotone(a in 0u64..1_000_000, b in 0u64..1_000_000, pinned in any::<bool>()) {
        let c = gpu_sim::CostModel::pascal_like();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for dir in [Direction::HtoD, Direction::DtoH, Direction::DtoD] {
            prop_assert!(c.transfer_ns(lo, dir, pinned) <= c.transfer_ns(hi, dir, pinned));
        }
    }

    /// The chunked, compact event log answers every query exactly like an
    /// eager `Vec<CpuEvent>`, across chunk boundaries; in particular the
    /// running overhead total always equals the full re-sum, which is what
    /// overhead compensation relies on.
    #[test]
    fn timeline_matches_eager_event_log(
        reqs in proptest::collection::vec(event_strategy(), 0..2_600),
    ) {
        const REASONS: [WaitReason; 4] = [
            WaitReason::Explicit,
            WaitReason::Implicit,
            WaitReason::Conditional,
            WaitReason::Private,
        ];
        let mut t = Timeline::new();
        let mut eager = EagerTimeline { events: Vec::new() };
        let mut now: Ns = 0;
        for (kind, name, gap, dur, sel) in reqs {
            let name = EVENT_NAMES[name as usize];
            let op = (sel % 3 != 0).then_some(OpId(sel >> 2));
            let kind = match kind {
                0 => CpuEventKind::Work { label: name },
                1 => CpuEventKind::DriverCall { api: name },
                2 => CpuEventKind::Wait { api: name, reason: REASONS[(sel % 4) as usize], op },
                3 => CpuEventKind::Launch { api: name, op },
                _ => CpuEventKind::Overhead { what: name },
            };
            let span = Span::new(now + gap, now + gap + dur);
            now = span.end;
            t.push(kind, span);
            eager.events.push(CpuEvent { kind, span });
            prop_assert_eq!(
                t.total_overhead_ns(),
                eager.sum_where(|e| e.kind.is_overhead()),
                "running overhead total after {} events",
                eager.events.len()
            );
        }
        prop_assert_eq!(t.len(), eager.events.len());
        prop_assert_eq!(t.is_empty(), eager.events.is_empty());
        let events = t.events();
        prop_assert_eq!(events.len(), eager.events.len());
        prop_assert_eq!(events.collect::<Vec<_>>(), eager.events.clone());
        prop_assert_eq!(t.waits().collect::<Vec<_>>(), eager.waits());
        prop_assert_eq!(t.total_wait_ns(), eager.sum_where(|e| e.kind.is_wait()));
        prop_assert_eq!(t.end_ns(), eager.events.iter().map(|e| e.span.end).max().unwrap_or(0));
        for api in EVENT_NAMES {
            prop_assert_eq!(t.api_total_ns(api), eager.sum_where(|e| e.kind.api() == Some(api)));
        }
        for e in &eager.events {
            let mid = e.span.start + e.span.duration() / 2;
            for at in [e.span.start, mid, e.span.end, e.span.end + 1] {
                prop_assert_eq!(t.event_at(at), eager.event_at(at), "event_at({})", at);
            }
        }
        prop_assert_eq!(t.event_at(now + 1), None);
    }

    /// `capture_stack` returns exactly the shadow stack, and every
    /// capture of an identical stack shares one frame allocation.
    #[test]
    fn captured_stacks_are_exact_and_interned(
        ops in proptest::collection::vec(stack_op_strategy(), 1..200),
    ) {
        let frames = [
            Frame::new("main", SourceLoc::new("app.cpp", 1)),
            Frame::new("solve<float>", SourceLoc::new("app.cpp", 20)),
            Frame::new("solve<double>", SourceLoc::new("app.cpp", 20)),
            Frame::new("cudaFree", SourceLoc::new("solver.cu", 7)),
        ];
        let mut m = Machine::new(CostModel::unit());
        let mut shadow: Vec<Frame> = Vec::new();
        let mut seen: Vec<StackTrace> = Vec::new();
        for (op, pick) in ops {
            match op {
                0 => {
                    m.push_frame(frames[pick as usize].clone());
                    shadow.push(frames[pick as usize].clone());
                }
                1 => {
                    m.pop_frame();
                    shadow.pop();
                }
                _ => {
                    let st = m.capture_stack();
                    prop_assert_eq!(&st.frames[..], &shadow[..]);
                    prop_assert_eq!(st.depth(), m.stack_depth());
                    for prior in &seen {
                        prop_assert_eq!(
                            Arc::ptr_eq(&prior.frames, &st.frames),
                            prior.frames[..] == st.frames[..],
                            "identical stacks must share frames, distinct ones must not"
                        );
                    }
                    if !seen.iter().any(|p| p.frames[..] == st.frames[..]) {
                        seen.push(st);
                    }
                    prop_assert_eq!(m.stacks_interned(), seen.len());
                }
            }
        }
    }
}
