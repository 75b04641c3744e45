//! The [`Machine`]: one simulated host thread plus one GPU.
//!
//! `Machine` ties the clock, cost model, device, address spaces, shadow
//! stack and timeline together. The simulated CUDA driver is built on top
//! of it (in the `cuda-driver` crate) and simulated applications interact
//! with it only through that driver plus the host-compute helpers here
//! ([`Machine::cpu_work`], [`Machine::host_read_app`], ...).

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use crate::clock::{Ns, Span, VirtualClock};
use crate::cost::CostModel;
use crate::device::Device;
use crate::memory::{Access, AccessKind, AddressSpace, HostAllocKind, HostPtr, MemError};
use crate::rng::SplitMix64;
use crate::stack::{Frame, FxBuildHasher, SourceLoc, StackTrace};
use crate::timeline::{CpuEventKind, Timeline};

/// Receives application load/store accesses when memory tracing is armed.
///
/// The sink gets mutable access to the machine so it can capture the
/// shadow stack and charge instrumentation overhead
/// ([`Machine::charge_overhead`]). Sinks must not perform *application*
/// accesses (`host_read_app`/`host_write_app`) from inside `on_access`;
/// use the raw accessors instead, or the sink cell will already be
/// borrowed.
pub trait AccessSink {
    fn on_access(&mut self, access: &Access, machine: &mut Machine);
}

/// A shared handle to an access sink.
pub type SharedAccessSink = Rc<RefCell<dyn AccessSink>>;

/// One simulated host thread and its GPU.
pub struct Machine {
    pub clock: VirtualClock,
    pub cost: CostModel,
    pub device: Device,
    /// Host virtual address space (pageable/pinned/unified allocations).
    pub host: AddressSpace,
    /// Device global-memory address space.
    pub dev: AddressSpace,
    pub timeline: Timeline,
    callstack: Vec<Frame>,
    /// Every distinct stack [`Machine::capture_stack`] has returned.
    stacks: HashSet<Arc<[Frame]>, FxBuildHasher>,
    access_sink: Option<SharedAccessSink>,
    rng: SplitMix64,
    /// Count of application load/store accesses issued (watched or not).
    pub app_accesses: u64,
    /// Slowdown applied to application CPU work while full-program
    /// load/store instrumentation is armed, in percent (100 = none).
    /// The extra time is recorded as measurement overhead.
    cpu_dilation_pct: u32,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.clock.now())
            .field("gpu_ops", &self.device.op_count())
            .field("stack_depth", &self.callstack.len())
            .finish()
    }
}

impl Machine {
    /// A machine with the given cost model and a fixed RNG seed (the seed
    /// only matters when `cost.jitter_ppm > 0`).
    pub fn new(cost: CostModel) -> Self {
        Self::with_seed(cost, 0x00D1_0955)
    }

    pub fn with_seed(cost: CostModel, seed: u64) -> Self {
        Self {
            clock: VirtualClock::new(),
            cost,
            device: Device::new(),
            host: AddressSpace::new(0x7f00_0000_0000),
            dev: AddressSpace::new(0x0a00_0000_0000),
            timeline: Timeline::new(),
            callstack: Vec::new(),
            stacks: HashSet::default(),
            access_sink: None,
            rng: SplitMix64::new(seed),
            app_accesses: 0,
            cpu_dilation_pct: 100,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Ns {
        self.clock.now()
    }

    /// Apply configured run-to-run jitter to a CPU work duration.
    fn jitter(&mut self, ns: Ns) -> Ns {
        let ppm = self.cost.jitter_ppm;
        if ppm == 0 || ns == 0 {
            return ns;
        }
        let delta = self.rng.range_i64(-(ppm as i64), ppm as i64);
        let adjusted = ns as i128 + (ns as i128 * delta as i128) / 1_000_000;
        adjusted.max(0) as Ns
    }

    /// Spend `ns` of application CPU time, recorded as a work event.
    ///
    /// When CPU-work dilation is armed (full-program load/store
    /// instrumentation, see [`Machine::set_cpu_work_dilation_pct`]), the
    /// work takes proportionally longer and the extra time is recorded as
    /// measurement overhead.
    pub fn cpu_work(&mut self, ns: Ns, label: &'static str) {
        let ns = self.jitter(ns);
        let start = self.now();
        let end = self.clock.advance(ns);
        self.timeline.push(CpuEventKind::Work { label }, Span::new(start, end));
        if self.cpu_dilation_pct > 100 {
            let extra = ns * (self.cpu_dilation_pct as Ns - 100) / 100;
            self.charge_overhead(extra, "loadstore-dilation");
        }
    }

    /// Arm (or disarm) full-program load/store instrumentation dilation:
    /// application CPU work runs at `pct`% of its natural speed
    /// (e.g. 600 = 6x slower). Instrumenting every load and store in the
    /// application — which stage 3 must do, since it cannot know in
    /// advance which instructions touch GPU-writable ranges — is the
    /// dominant cost of the paper's most expensive stage.
    pub fn set_cpu_work_dilation_pct(&mut self, pct: u32) {
        self.cpu_dilation_pct = pct.max(100);
    }

    /// Spend `ns` recorded as measurement overhead (used by probes,
    /// stackwalks, load/store tracing and payload hashing).
    pub fn charge_overhead(&mut self, ns: Ns, what: &'static str) {
        if ns == 0 {
            return;
        }
        let start = self.now();
        let end = self.clock.advance(ns);
        self.timeline.push(CpuEventKind::Overhead { what }, Span::new(start, end));
    }

    /// Record an arbitrary timeline event spanning the clock advance of
    /// `ns`. Used by the driver crate.
    pub fn record(&mut self, kind: CpuEventKind, ns: Ns) -> Span {
        let start = self.now();
        let end = self.clock.advance(ns);
        let span = Span::new(start, end);
        self.timeline.push(kind, span);
        span
    }

    /// Record an event covering an absolute advance *to* time `t` (used
    /// for waits ending at a device completion time). No event is recorded
    /// if `t` is not in the future.
    pub fn record_until(&mut self, kind: CpuEventKind, t: Ns) -> Span {
        let start = self.now();
        if t <= start {
            return Span::new(start, start);
        }
        self.clock.advance_to(t);
        let span = Span::new(start, t);
        self.timeline.push(kind, span);
        span
    }

    // ----- shadow call stack -------------------------------------------------

    /// Execute `body` with `frame` pushed on the shadow stack.
    pub fn in_frame<R>(&mut self, frame: Frame, body: impl FnOnce(&mut Machine) -> R) -> R {
        self.callstack.push(frame);
        let r = body(self);
        self.callstack.pop();
        r
    }

    /// Push a frame without scoping (callers must pop). Prefer
    /// [`Machine::in_frame`].
    pub fn push_frame(&mut self, frame: Frame) {
        self.callstack.push(frame);
    }

    pub fn pop_frame(&mut self) {
        self.callstack.pop();
    }

    /// Depth of the shadow stack.
    pub fn stack_depth(&self) -> usize {
        self.callstack.len()
    }

    /// Snapshot the shadow stack. Snapshots are interned: a stack seen
    /// before is returned as a shared reference to the same frames, so
    /// only the first capture of each distinct stack allocates.
    pub fn capture_stack(&mut self) -> StackTrace {
        if let Some(frames) = self.stacks.get(self.callstack.as_slice()) {
            return StackTrace { frames: frames.clone() };
        }
        let frames: Arc<[Frame]> = self.callstack.as_slice().into();
        self.stacks.insert(frames.clone());
        StackTrace { frames }
    }

    /// Number of distinct stacks captured so far.
    pub fn stacks_interned(&self) -> usize {
        self.stacks.len()
    }

    // ----- instrumented host memory access -----------------------------------

    /// Install (or replace) the load/store access sink. Returns the old one.
    pub fn set_access_sink(&mut self, sink: Option<SharedAccessSink>) -> Option<SharedAccessSink> {
        std::mem::replace(&mut self.access_sink, sink)
    }

    fn fire_access(&mut self, addr: u64, len: u64, kind: AccessKind, site: SourceLoc) {
        self.app_accesses += 1;
        if let Some(sink) = self.access_sink.clone() {
            sink.borrow_mut().on_access(&Access { addr, len, kind, site }, self);
        }
    }

    /// Application-level read of host memory: visible to load/store
    /// instrumentation. `site` identifies the accessing "instruction".
    pub fn host_read_app(
        &mut self,
        ptr: HostPtr,
        len: u64,
        site: SourceLoc,
    ) -> Result<Vec<u8>, MemError> {
        let data = self.host.read(ptr.0, len)?;
        self.fire_access(ptr.0, len, AccessKind::Read, site);
        Ok(data)
    }

    /// Application-level write of host memory: visible to load/store
    /// instrumentation.
    pub fn host_write_app(
        &mut self,
        ptr: HostPtr,
        bytes: &[u8],
        site: SourceLoc,
    ) -> Result<(), MemError> {
        self.host.write(ptr.0, bytes)?;
        self.fire_access(ptr.0, bytes.len() as u64, AccessKind::Write, site);
        Ok(())
    }

    /// Raw host read used by the driver and the measurement stack; never
    /// reported as an application access.
    pub fn host_read_raw(&self, ptr: HostPtr, len: u64) -> Result<Vec<u8>, MemError> {
        self.host.read(ptr.0, len)
    }

    /// Raw host write (driver-internal; not an application access).
    pub fn host_write_raw(&mut self, ptr: HostPtr, bytes: &[u8]) -> Result<(), MemError> {
        self.host.write(ptr.0, bytes)
    }

    /// Allocate host memory of the given kind.
    pub fn host_alloc(&mut self, size: u64, kind: HostAllocKind) -> HostPtr {
        HostPtr(self.host.alloc(size, kind))
    }

    /// Free a host allocation.
    pub fn host_free(&mut self, ptr: HostPtr) -> Result<(), MemError> {
        self.host.free(ptr.0)
    }

    /// Application execution time so far: simply the current virtual time
    /// (runs start at t=0).
    pub fn exec_time_ns(&self) -> Ns {
        self.now()
    }

    /// Total virtual time injected by measurement infrastructure so far
    /// (probe trampolines, stack walks, load/store snippets, payload
    /// hashing). Every `Overhead` timeline event is by definition
    /// tool-injected, so this is the tool's *own* bookkeeping — reading
    /// it models a measurement layer that self-times its instrumentation
    /// to compensate collected timestamps, not a peek at application
    /// ground truth.
    pub fn measurement_overhead_ns(&self) -> Ns {
        self.timeline.total_overhead_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingSink {
        hits: Vec<Access>,
        charge: Ns,
    }

    impl AccessSink for CountingSink {
        fn on_access(&mut self, access: &Access, machine: &mut Machine) {
            self.hits.push(*access);
            machine.charge_overhead(self.charge, "loadstore");
        }
    }

    fn mach() -> Machine {
        Machine::new(CostModel::unit())
    }

    #[test]
    fn cpu_work_advances_clock_and_records() {
        let mut m = mach();
        m.cpu_work(100, "loop");
        assert_eq!(m.now(), 100);
        assert_eq!(m.timeline.events().len(), 1);
    }

    #[test]
    fn frames_nest_and_capture() {
        let mut m = mach();
        let loc = SourceLoc::new("a.cpp", 1);
        m.in_frame(Frame::new("main", loc), |m| {
            m.in_frame(Frame::new("inner", SourceLoc::new("a.cpp", 2)), |m| {
                let st = m.capture_stack();
                assert_eq!(st.depth(), 2);
                assert_eq!(st.leaf().unwrap().function, "inner");
                let again = m.capture_stack();
                assert!(Arc::ptr_eq(&st.frames, &again.frames), "repeat capture is shared");
                assert_eq!(m.stacks_interned(), 1);
            });
            assert_eq!(m.stack_depth(), 1);
        });
        assert_eq!(m.stack_depth(), 0);
    }

    #[test]
    fn app_accesses_fire_sink_and_charge_overhead() {
        let mut m = mach();
        let p = m.host_alloc(16, HostAllocKind::Pageable);
        let sink = Rc::new(RefCell::new(CountingSink { hits: vec![], charge: 7 }));
        m.set_access_sink(Some(sink.clone()));
        let before = m.now();
        m.host_read_app(p, 4, SourceLoc::new("x.rs", 1)).unwrap();
        assert_eq!(m.now() - before, 7, "overhead charged");
        m.host_write_app(p, &[1, 2], SourceLoc::new("x.rs", 2)).unwrap();
        let sink = sink.borrow();
        assert_eq!(sink.hits.len(), 2);
        assert_eq!(sink.hits[0].kind, AccessKind::Read);
        assert_eq!(sink.hits[1].kind, AccessKind::Write);
        assert_eq!(m.app_accesses, 2);
    }

    #[test]
    fn raw_accesses_do_not_fire_sink() {
        let mut m = mach();
        let p = m.host_alloc(16, HostAllocKind::Pageable);
        let sink = Rc::new(RefCell::new(CountingSink { hits: vec![], charge: 7 }));
        m.set_access_sink(Some(sink.clone()));
        m.host_write_raw(p, &[1]).unwrap();
        m.host_read_raw(p, 1).unwrap();
        assert!(sink.borrow().hits.is_empty());
        assert_eq!(m.app_accesses, 0);
    }

    #[test]
    fn record_until_skips_past_times() {
        let mut m = mach();
        m.cpu_work(50, "w");
        let s = m.record_until(
            CpuEventKind::Wait {
                api: "x",
                reason: crate::timeline::WaitReason::Explicit,
                op: None,
            },
            20,
        );
        assert_eq!(s.duration(), 0);
        assert_eq!(m.now(), 50);
        let s2 = m.record_until(
            CpuEventKind::Wait {
                api: "x",
                reason: crate::timeline::WaitReason::Explicit,
                op: None,
            },
            80,
        );
        assert_eq!(s2.duration(), 30);
        assert_eq!(m.now(), 80);
    }

    #[test]
    fn jitter_perturbs_but_stays_close() {
        let mut cost = CostModel::unit();
        cost.jitter_ppm = 10_000; // 1%
        let mut m = Machine::with_seed(cost, 42);
        let mut total = 0;
        for _ in 0..100 {
            let before = m.now();
            m.cpu_work(1_000_000, "w");
            total += m.now() - before;
        }
        let expected: i128 = 100 * 1_000_000;
        let diff = (total as i128 - expected).unsigned_abs();
        assert!(diff > 0, "jitter should perturb");
        assert!(diff < expected as u128 / 50, "within 2%");
    }

    #[test]
    fn jitter_zero_is_exact_and_deterministic() {
        let mut a = mach();
        let mut b = mach();
        a.cpu_work(123, "w");
        b.cpu_work(123, "w");
        assert_eq!(a.now(), b.now());
        assert_eq!(a.now(), 123);
    }

    #[test]
    fn charge_overhead_zero_records_nothing() {
        let mut m = mach();
        m.charge_overhead(0, "noop");
        assert!(m.timeline.is_empty());
    }
}
