//! The simulated CUDA driver.
//!
//! [`Cuda`] exposes a runtime-API-shaped surface (`cudaMalloc`,
//! `cudaMemcpy`, `cudaFree`, ...) over a [`gpu_sim::Machine`]. The
//! behaviours that matter to the paper are faithfully modeled:
//!
//! * **Implicit synchronization** — `cudaFree` waits for the whole device;
//!   synchronous `cudaMemcpy` waits for its transfer.
//! * **Conditional synchronization** — `cudaMemcpyAsync` D2H into pageable
//!   memory secretly blocks; `cudaMemset` on unified memory blocks.
//! * **Private API** — vendor libraries (see [`crate::cublas`]) call
//!   non-public entry points that the vendor collection framework never
//!   reports.
//! * **The internal sync funnel** (paper Fig. 3) — every one of those
//!   waits goes through [`InternalFn::SyncWait`], which is what Diogenes
//!   instruments directly.
//!
//! Every API method takes the application call-site as a
//! [`SourceLoc`], standing in for the return address a binary
//! instrumenter would capture.

use gpu_sim::{
    CostModel, CpuEventKind, DevPtr, Direction, Frame, GpuOpKind, HostAllocKind, HostPtr, Machine,
    Ns, OpId, SourceLoc, StreamId, WaitReason,
};

use crate::api::{ApiFn, InternalFn};
use crate::config::DriverConfig;
use crate::error::{CudaError, CudaResult};
use crate::fixpolicy::{FixPolicy, FixStats};
use crate::hooks::{CallInfo, DriverHook, HookEvent, HookRegistry};
use crate::kernels::KernelDesc;

/// Handle to a CUDA event (like `cudaEvent_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub u32);

/// The simulated driver: one context on one device.
pub struct Cuda {
    /// The underlying machine. Public so applications can perform CPU
    /// work and instrumented host accesses; measurement code must go
    /// through hooks instead.
    pub machine: Machine,
    config: DriverConfig,
    hooks: HookRegistry,
    next_call_id: u64,
    next_stream: u32,
    created_streams: Vec<StreamId>,
    kernel_launches: u64,
    api_names: Vec<&'static str>,
    vendor_depth: u32,
    api_call_count: u64,
    fix_policy: Option<FixPolicy>,
    fix_stats: FixStats,
    next_event: u32,
    /// Event id -> recorded completion time (None = created, unrecorded).
    events: std::collections::HashMap<u32, Option<Ns>>,
    /// Size-keyed pool of device buffers diverted from patched frees.
    alloc_pool: std::collections::HashMap<u64, Vec<DevPtr>>,
    /// Content digests of the last bytes uploaded to each destination
    /// (only maintained for deduplicated sites).
    upload_cache: std::collections::HashMap<u64, gpu_sim::Digest>,
}

impl std::fmt::Debug for Cuda {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cuda")
            .field("now", &self.machine.now())
            .field("api_calls", &self.api_call_count)
            .finish()
    }
}

impl Cuda {
    /// A fresh context with the given cost model and default driver
    /// behaviour.
    pub fn new(cost: CostModel) -> Self {
        Self::with_config(cost, DriverConfig::default())
    }

    /// A fresh context with explicit driver behaviour switches.
    pub fn with_config(cost: CostModel, config: DriverConfig) -> Self {
        Self {
            machine: Machine::new(cost),
            config,
            hooks: HookRegistry::new(),
            next_call_id: 0,
            next_stream: 1,
            created_streams: vec![StreamId::DEFAULT],
            kernel_launches: 0,
            api_names: Vec::new(),
            vendor_depth: 0,
            api_call_count: 0,
            fix_policy: None,
            fix_stats: FixStats::default(),
            next_event: 1,
            events: std::collections::HashMap::new(),
            alloc_pool: std::collections::HashMap::new(),
            upload_cache: std::collections::HashMap::new(),
        }
    }

    /// Install an auto-correction policy (see [`crate::fixpolicy`]). The
    /// shim intercepts patched call sites before they reach the driver.
    pub fn set_fix_policy(&mut self, policy: FixPolicy) {
        self.fix_policy = Some(policy);
    }

    /// What the auto-correction shim intercepted so far.
    pub fn fix_stats(&self) -> FixStats {
        self.fix_stats
    }

    /// Fixed CPU cost of one shim interception (a patched branch).
    const SHIM_NS: Ns = 80;

    fn policy_has(
        &self,
        which: fn(&FixPolicy) -> &std::collections::HashSet<u64>,
        site: SourceLoc,
    ) -> bool {
        self.fix_policy.as_ref().map(|p| which(p).contains(&site.addr())).unwrap_or(false)
    }

    /// The hook registry measurement layers attach to.
    pub fn hooks(&self) -> &HookRegistry {
        &self.hooks
    }

    /// Install a measurement hook.
    pub fn install_hook(&mut self, hook: std::rc::Rc<std::cell::RefCell<dyn DriverHook>>) {
        self.hooks.install(hook);
    }

    /// Active driver configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Total driver API calls made so far (public + private).
    pub fn api_call_count(&self) -> u64 {
        self.api_call_count
    }

    /// Application execution time so far.
    pub fn exec_time_ns(&self) -> Ns {
        self.machine.exec_time_ns()
    }

    // ---- plumbing -----------------------------------------------------------

    fn emit(&mut self, ev: HookEvent) {
        let hooks = self.hooks.clone();
        hooks.emit(&ev, &mut self.machine);
    }

    fn current_api(&self) -> &'static str {
        self.api_names.last().copied().unwrap_or("<app>")
    }

    /// Wrap an API call body with enter/exit hook events and a shadow
    /// frame for the API function itself.
    fn api_call<R>(
        &mut self,
        api: ApiFn,
        info: CallInfo,
        site: SourceLoc,
        body: impl FnOnce(&mut Self, u64) -> CudaResult<R>,
    ) -> CudaResult<R> {
        self.next_call_id += 1;
        self.api_call_count += 1;
        let call_id = self.next_call_id;
        let vendor_ctx = self.vendor_depth > 0;
        self.machine.push_frame(Frame::new(api.name(), site));
        self.api_names.push(api.name());
        self.emit(HookEvent::ApiEnter { call_id, api, info: info.clone(), vendor_ctx });
        let r = body(self, call_id);
        self.emit(HookEvent::ApiExit { call_id, api, info, vendor_ctx });
        self.api_names.pop();
        self.machine.pop_frame();
        r
    }

    /// Run an internal driver function that never blocks, charging `cost`.
    fn internal(&mut self, func: InternalFn, call_id: u64, cost: Ns) {
        self.emit(HookEvent::InternalEnter { call_id, func });
        if cost > 0 {
            let api = self.current_api();
            self.machine.record(CpuEventKind::DriverCall { api }, cost);
        }
        self.emit(HookEvent::InternalExit { call_id, func, waited_ns: 0, reason: None });
    }

    /// The internal synchronization funnel (paper Fig. 3): block until
    /// `target`, reporting the wait through hook events.
    fn sync_wait(&mut self, call_id: u64, target: Ns, reason: WaitReason, op: Option<OpId>) -> Ns {
        let api = self.current_api();
        self.emit(HookEvent::InternalEnter { call_id, func: InternalFn::SyncWait });
        let entry_cost = self.machine.cost.sync_entry_ns;
        self.machine.record(CpuEventKind::DriverCall { api }, entry_cost);
        let span = self.machine.record_until(CpuEventKind::Wait { api, reason, op }, target);
        self.emit(HookEvent::InternalExit {
            call_id,
            func: InternalFn::SyncWait,
            waited_ns: span.duration(),
            reason: Some(reason),
        });
        span.duration()
    }

    fn charge_driver_entry(&mut self) {
        let api = self.current_api();
        let cost = self.machine.cost.driver_call_ns;
        self.machine.record(CpuEventKind::DriverCall { api }, cost);
    }

    fn check_stream(&self, stream: StreamId) -> CudaResult<()> {
        if self.created_streams.contains(&stream) {
            Ok(())
        } else {
            Err(CudaError::InvalidStream { stream: stream.0 })
        }
    }

    /// Execute `body` with an application frame on the shadow call stack
    /// (the simulated equivalent of being inside a source-level function).
    pub fn in_frame<R>(
        &mut self,
        function: impl Into<std::borrow::Cow<'static, str>>,
        site: SourceLoc,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.machine.push_frame(Frame::new(function, site));
        let r = body(self);
        self.machine.pop_frame();
        r
    }

    /// Execute `body` with the driver flagged as running inside a vendor
    /// library; public API calls made within carry `vendor_ctx = true`.
    pub fn vendor_scope<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
        self.vendor_depth += 1;
        let r = body(self);
        self.vendor_depth -= 1;
        r
    }

    // ---- memory management --------------------------------------------------

    /// `cudaMalloc`: allocate device global memory. Does not synchronize.
    pub fn malloc(&mut self, bytes: u64, site: SourceLoc) -> CudaResult<DevPtr> {
        if bytes == 0 {
            return Err(CudaError::InvalidValue { what: "cudaMalloc of 0 bytes" });
        }
        // Auto-correction: satisfy from the pool when a patched free has
        // parked a buffer of this size.
        if self.fix_policy.is_some() {
            if let Some(ptr) = self.alloc_pool.get_mut(&bytes).and_then(Vec::pop) {
                self.machine.cpu_work(Self::SHIM_NS, "autofix_shim");
                self.fix_stats.mallocs_reused += 1;
                return Ok(ptr);
            }
        }
        let live = self.machine.dev.live_bytes();
        if live + bytes > self.config.device_memory_bytes {
            return Err(CudaError::OutOfMemory {
                requested: bytes,
                available: self.config.device_memory_bytes - live,
            });
        }
        let ptr = DevPtr(self.machine.dev.alloc(bytes, HostAllocKind::Pageable));
        self.api_call(ApiFn::CudaMalloc, CallInfo::Alloc { bytes, ptr }, site, |s, id| {
            s.charge_driver_entry();
            let cost = s.machine.cost.alloc_ns(bytes);
            s.internal(InternalFn::AllocDevice, id, cost);
            Ok(ptr)
        })
    }

    /// `cudaFree`: release device memory. **Implicitly synchronizes the
    /// whole device first** (when so configured, as real drivers do).
    pub fn free(&mut self, ptr: DevPtr, site: SourceLoc) -> CudaResult<()> {
        // Auto-correction: divert patched frees into the pool — no driver
        // call, no implicit synchronization.
        if self.policy_has(|p| &p.pool_free_sites, site) {
            let size = self
                .machine
                .dev
                .size_of(ptr.0)
                .ok_or(CudaError::InvalidDevicePointer { addr: ptr.0 })?;
            self.machine.cpu_work(Self::SHIM_NS, "autofix_shim");
            self.alloc_pool.entry(size).or_default().push(ptr);
            self.fix_stats.frees_pooled += 1;
            return Ok(());
        }
        self.api_call(ApiFn::CudaFree, CallInfo::Free { ptr }, site, |s, id| {
            s.charge_driver_entry();
            s.emit(HookEvent::InternalEnter { call_id: id, func: InternalFn::FreeDevice });
            if s.config.free_implicit_sync {
                let target = s.machine.device.device_completion();
                s.sync_wait(id, target, WaitReason::Implicit, None);
            }
            let cost = s.machine.cost.free_base_ns;
            let api = s.current_api();
            s.machine.record(CpuEventKind::DriverCall { api }, cost);
            let r = s.machine.dev.free(ptr.0).map_err(CudaError::from);
            s.emit(HookEvent::InternalExit {
                call_id: id,
                func: InternalFn::FreeDevice,
                waited_ns: 0,
                reason: None,
            });
            r
        })
    }

    /// `cudaMallocHost`: allocate pinned host memory.
    pub fn malloc_host(&mut self, bytes: u64, site: SourceLoc) -> CudaResult<HostPtr> {
        if bytes == 0 {
            return Err(CudaError::InvalidValue { what: "cudaMallocHost of 0 bytes" });
        }
        let ptr = self.machine.host_alloc(bytes, HostAllocKind::Pinned);
        self.api_call(
            ApiFn::CudaMallocHost,
            CallInfo::HostAlloc { bytes, ptr, unified: false },
            site,
            |s, id| {
                s.charge_driver_entry();
                // Pinning pages is expensive: twice the device-alloc cost.
                let cost = s.machine.cost.alloc_ns(bytes) * 2;
                s.internal(InternalFn::AllocDevice, id, cost);
                Ok(ptr)
            },
        )
    }

    /// `cudaFreeHost`: release pinned host memory.
    pub fn free_host(&mut self, ptr: HostPtr, site: SourceLoc) -> CudaResult<()> {
        self.api_call(ApiFn::CudaFreeHost, CallInfo::HostFree { ptr }, site, |s, id| {
            s.charge_driver_entry();
            let cost = s.machine.cost.free_base_ns;
            s.internal(InternalFn::AllocDevice, id, cost);
            s.machine.host_free(ptr).map_err(CudaError::from)
        })
    }

    /// `cudaMallocManaged`: allocate unified (managed) memory, addressable
    /// from both processors.
    pub fn malloc_managed(&mut self, bytes: u64, site: SourceLoc) -> CudaResult<HostPtr> {
        if bytes == 0 {
            return Err(CudaError::InvalidValue { what: "cudaMallocManaged of 0 bytes" });
        }
        let ptr = HostPtr(self.machine.host.alloc(bytes, HostAllocKind::Unified));
        self.api_call(
            ApiFn::CudaMallocManaged,
            CallInfo::HostAlloc { bytes, ptr, unified: true },
            site,
            |s, id| {
                s.charge_driver_entry();
                let cost = s.machine.cost.alloc_ns(bytes);
                s.internal(InternalFn::AllocDevice, id, cost);
                Ok(ptr)
            },
        )
    }

    // ---- transfers ----------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn do_transfer(
        &mut self,
        api: ApiFn,
        call_id: u64,
        dir: Direction,
        host: HostPtr,
        dev: DevPtr,
        bytes: u64,
        stream: StreamId,
        sync_reason: Option<WaitReason>,
    ) -> CudaResult<OpId> {
        let pinned = matches!(
            self.machine.host.kind_of(host.0),
            Some(HostAllocKind::Pinned) | Some(HostAllocKind::Unified)
        );
        // CPU-side setup.
        let setup = self.machine.cost.transfer_setup_ns;
        let api_name = self.current_api();
        self.machine.record(CpuEventKind::DriverCall { api: api_name }, setup);
        if !pinned {
            // Pageable transfers go through a staging path.
            self.internal(InternalFn::StageTransfer, call_id, setup / 2);
        }
        // Enqueue the DMA op.
        self.internal(InternalFn::Enqueue, call_id, 0);
        let dur = self.machine.cost.transfer_ns(bytes, dir, pinned);
        let now = self.machine.now();
        let op = self.machine.device.enqueue(now, stream, GpuOpKind::Transfer { dir, bytes }, dur);
        let launch_span_kind = CpuEventKind::Launch { api: api_name, op: Some(op) };
        self.machine.record(launch_span_kind, 0);
        // Expose the payload to interceptors (stage 3 hashing) before any
        // wait, mirroring entry-point interception of the source buffer.
        self.emit(HookEvent::TransferPayload { call_id, api, dir, bytes, host, dev });
        // Hidden synchronization, when the semantics call for it.
        if let Some(reason) = sync_reason {
            let target = self.machine.device.op(op).end_ns;
            self.sync_wait(call_id, target, reason, Some(op));
        }
        // Move the actual bytes.
        match dir {
            Direction::HtoD => {
                let data = self.machine.host_read_raw(host, bytes)?;
                self.machine.dev.write(dev.0, &data)?;
            }
            Direction::DtoH => {
                let data = self.machine.dev.read(dev.0, bytes)?;
                self.machine.host_write_raw(host, &data)?;
            }
            Direction::DtoD => {
                let data = self.machine.dev.read(dev.0, bytes)?;
                self.machine.dev.write(host.0, &data)?;
            }
        }
        Ok(op)
    }

    /// Synchronous `cudaMemcpy` host-to-device. Implicitly waits for the
    /// copy (and everything ahead of it on the default stream).
    pub fn memcpy_htod(
        &mut self,
        dst: DevPtr,
        src: HostPtr,
        bytes: u64,
        site: SourceLoc,
    ) -> CudaResult<()> {
        // Auto-correction: skip uploads whose content already lives at
        // the destination (hash check is the correctness guard standing
        // in for the paper's const + mprotect).
        if self.policy_has(|p| &p.dedup_transfer_sites, site) {
            let payload = self.machine.host_read_raw(src, bytes)?;
            let digest = gpu_sim::Digest::of(&payload);
            // The production shim hashes at memory bandwidth (~10 GB/s),
            // unlike stage 3's recording instrumentation.
            let hash_ns = bytes / 10 + 200;
            self.machine.cpu_work(hash_ns + Self::SHIM_NS, "autofix_shim");
            if self.upload_cache.get(&dst.0) == Some(&digest) {
                self.fix_stats.transfers_deduped += 1;
                return Ok(());
            }
            self.upload_cache.insert(dst.0, digest);
        }
        let pinned = matches!(self.machine.host.kind_of(src.0), Some(HostAllocKind::Pinned));
        let info = CallInfo::Transfer {
            dir: Direction::HtoD,
            bytes,
            host: Some(src),
            dev: Some(dst),
            stream: StreamId::DEFAULT,
            is_async: false,
            pinned,
        };
        self.api_call(ApiFn::CudaMemcpy, info, site, |s, id| {
            s.charge_driver_entry();
            let reason = s.config.memcpy_implicit_sync.then_some(WaitReason::Implicit);
            s.do_transfer(
                ApiFn::CudaMemcpy,
                id,
                Direction::HtoD,
                src,
                dst,
                bytes,
                StreamId::DEFAULT,
                reason,
            )?;
            Ok(())
        })
    }

    /// Synchronous `cudaMemcpy` device-to-host.
    pub fn memcpy_dtoh(
        &mut self,
        dst: HostPtr,
        src: DevPtr,
        bytes: u64,
        site: SourceLoc,
    ) -> CudaResult<()> {
        let pinned = matches!(self.machine.host.kind_of(dst.0), Some(HostAllocKind::Pinned));
        let info = CallInfo::Transfer {
            dir: Direction::DtoH,
            bytes,
            host: Some(dst),
            dev: Some(src),
            stream: StreamId::DEFAULT,
            is_async: false,
            pinned,
        };
        self.api_call(ApiFn::CudaMemcpy, info, site, |s, id| {
            s.charge_driver_entry();
            let reason = s.config.memcpy_implicit_sync.then_some(WaitReason::Implicit);
            s.do_transfer(
                ApiFn::CudaMemcpy,
                id,
                Direction::DtoH,
                dst,
                src,
                bytes,
                StreamId::DEFAULT,
                reason,
            )?;
            Ok(())
        })
    }

    /// `cudaMemcpyAsync` host-to-device on a stream. Never blocks in this
    /// direction.
    pub fn memcpy_htod_async(
        &mut self,
        dst: DevPtr,
        src: HostPtr,
        bytes: u64,
        stream: StreamId,
        site: SourceLoc,
    ) -> CudaResult<OpId> {
        self.check_stream(stream)?;
        let pinned = matches!(self.machine.host.kind_of(src.0), Some(HostAllocKind::Pinned));
        let info = CallInfo::Transfer {
            dir: Direction::HtoD,
            bytes,
            host: Some(src),
            dev: Some(dst),
            stream,
            is_async: true,
            pinned,
        };
        self.api_call(ApiFn::CudaMemcpyAsync, info, site, |s, id| {
            s.charge_driver_entry();
            s.do_transfer(
                ApiFn::CudaMemcpyAsync,
                id,
                Direction::HtoD,
                src,
                dst,
                bytes,
                stream,
                None,
            )
        })
    }

    /// `cudaMemcpyAsync` device-to-host on a stream.
    ///
    /// **Conditional synchronization**: when `dst` is pageable (not
    /// allocated via `cudaMallocHost`), the call secretly blocks until
    /// the transfer completes — the paper's canonical example of an
    /// unreported synchronization.
    pub fn memcpy_dtoh_async(
        &mut self,
        dst: HostPtr,
        src: DevPtr,
        bytes: u64,
        stream: StreamId,
        site: SourceLoc,
    ) -> CudaResult<OpId> {
        self.check_stream(stream)?;
        // Auto-correction: pin the destination in place on first use at a
        // patched site (the cudaHostRegister remedy for the hidden
        // conditional sync), then proceed as a genuinely async copy.
        if self.policy_has(|p| &p.pin_on_first_use_sites, site)
            && matches!(self.machine.host.kind_of(dst.0), Some(HostAllocKind::Pageable))
        {
            let size = self
                .machine
                .host
                .size_of(dst.0)
                .ok_or(CudaError::InvalidHostPointer { addr: dst.0 })?;
            let cost = self.machine.cost.alloc_ns(size) * 2 + Self::SHIM_NS;
            self.machine.cpu_work(cost, "autofix_shim");
            self.machine.host.set_kind(dst.0, HostAllocKind::Pinned)?;
            self.fix_stats.buffers_pinned += 1;
        }
        let pinned = matches!(self.machine.host.kind_of(dst.0), Some(HostAllocKind::Pinned));
        let info = CallInfo::Transfer {
            dir: Direction::DtoH,
            bytes,
            host: Some(dst),
            dev: Some(src),
            stream,
            is_async: true,
            pinned,
        };
        self.api_call(ApiFn::CudaMemcpyAsync, info, site, |s, id| {
            s.charge_driver_entry();
            let reason =
                (!pinned && s.config.async_dtoh_pageable_sync).then_some(WaitReason::Conditional);
            s.do_transfer(
                ApiFn::CudaMemcpyAsync,
                id,
                Direction::DtoH,
                dst,
                src,
                bytes,
                stream,
                reason,
            )
        })
    }

    /// `cudaMemset` on a device or unified address.
    ///
    /// **Conditional synchronization**: when the destination is unified
    /// (managed) memory the call blocks until the device-side set
    /// completes — the pathology Diogenes found in AMG.
    pub fn memset(&mut self, dst: u64, value: u8, bytes: u64, site: SourceLoc) -> CudaResult<()> {
        let unified = matches!(self.machine.host.kind_of(dst), Some(HostAllocKind::Unified));
        let is_device = self.machine.dev.is_mapped(dst);
        if !unified && !is_device {
            return Err(CudaError::InvalidDevicePointer { addr: dst });
        }
        // Auto-correction: patched unified-memory memsets run on the CPU.
        if unified && self.policy_has(|p| &p.host_memset_sites, site) {
            self.machine.cpu_work(Self::SHIM_NS, "autofix_shim");
            self.fix_stats.memsets_replaced += 1;
            return self.host_memset(HostPtr(dst), value, bytes);
        }
        let info = CallInfo::Memset { dst, bytes, value, stream: StreamId::DEFAULT, unified };
        self.api_call(ApiFn::CudaMemset, info, site, |s, id| {
            s.charge_driver_entry();
            s.internal(InternalFn::Enqueue, id, 0);
            let mut dur = s.machine.cost.memset_ns(bytes);
            if unified {
                dur *= s.config.unified_memset_penalty.max(1);
            }
            let now = s.machine.now();
            let op =
                s.machine.device.enqueue(now, StreamId::DEFAULT, GpuOpKind::Memset { bytes }, dur);
            let api = s.current_api();
            s.machine.record(CpuEventKind::Launch { api, op: Some(op) }, 0);
            if unified && s.config.memset_unified_sync {
                let target = s.machine.device.op(op).end_ns;
                s.sync_wait(id, target, WaitReason::Conditional, Some(op));
            }
            if unified {
                s.machine.host.fill(dst, bytes, value)?;
            } else {
                s.machine.dev.fill(dst, bytes, value)?;
            }
            Ok(())
        })
    }

    // ---- synchronization ----------------------------------------------------

    /// `cudaDeviceSynchronize`: explicit full-device synchronization.
    pub fn device_synchronize(&mut self, site: SourceLoc) -> CudaResult<()> {
        self.explicit_sync(ApiFn::CudaDeviceSynchronize, site)
    }

    /// `cudaThreadSynchronize`: deprecated alias used by older codes.
    pub fn thread_synchronize(&mut self, site: SourceLoc) -> CudaResult<()> {
        self.explicit_sync(ApiFn::CudaThreadSynchronize, site)
    }

    fn explicit_sync(&mut self, api: ApiFn, site: SourceLoc) -> CudaResult<()> {
        if self.policy_has(|p| &p.skip_sync_sites, site) {
            self.machine.cpu_work(Self::SHIM_NS, "autofix_shim");
            self.fix_stats.syncs_skipped += 1;
            return Ok(());
        }
        self.api_call(api, CallInfo::Sync { stream: None }, site, |s, id| {
            s.charge_driver_entry();
            let target = s.machine.device.device_completion();
            s.sync_wait(id, target, WaitReason::Explicit, None);
            Ok(())
        })
    }

    /// `cudaStreamSynchronize`: explicit synchronization with one stream.
    pub fn stream_synchronize(&mut self, stream: StreamId, site: SourceLoc) -> CudaResult<()> {
        self.check_stream(stream)?;
        if self.policy_has(|p| &p.skip_sync_sites, site) {
            self.machine.cpu_work(Self::SHIM_NS, "autofix_shim");
            self.fix_stats.syncs_skipped += 1;
            return Ok(());
        }
        self.api_call(
            ApiFn::CudaStreamSynchronize,
            CallInfo::Sync { stream: Some(stream) },
            site,
            |s, id| {
                s.charge_driver_entry();
                let target = s.machine.device.stream_completion(stream);
                s.sync_wait(id, target, WaitReason::Explicit, None);
                Ok(())
            },
        )
    }

    // ---- streams & kernels ----------------------------------------------------

    /// `cudaStreamCreate`.
    pub fn stream_create(&mut self, site: SourceLoc) -> CudaResult<StreamId> {
        let stream = StreamId(self.next_stream);
        self.next_stream += 1;
        self.created_streams.push(stream);
        self.api_call(ApiFn::CudaStreamCreate, CallInfo::StreamCreate { stream }, site, |s, _id| {
            s.charge_driver_entry();
            Ok(stream)
        })
    }

    /// `cudaLaunchKernel`: asynchronous kernel launch.
    pub fn launch_kernel(
        &mut self,
        desc: &KernelDesc,
        stream: StreamId,
        site: SourceLoc,
    ) -> CudaResult<OpId> {
        self.check_stream(stream)?;
        self.launch_impl(ApiFn::CudaLaunchKernel, desc, stream, site)
    }

    fn launch_impl(
        &mut self,
        api: ApiFn,
        desc: &KernelDesc,
        stream: StreamId,
        site: SourceLoc,
    ) -> CudaResult<OpId> {
        // Validate buffers up front (launch would fault on the device).
        for b in desc.writes.iter().chain(&desc.reads) {
            if !self.machine.dev.is_mapped(b.ptr.0) && !self.machine.host.is_mapped(b.ptr.0) {
                return Err(CudaError::InvalidDevicePointer { addr: b.ptr.0 });
            }
        }
        let launch_index = self.kernel_launches;
        self.kernel_launches += 1;
        let info = CallInfo::Launch { kernel: desc.name, stream, op: None };
        let name = desc.name;
        let dur = desc.duration_ns;
        self.api_call(api, info, site, |s, id| {
            s.charge_driver_entry();
            s.internal(InternalFn::Enqueue, id, 0);
            let launch_cost = s.machine.cost.kernel_launch_ns;
            let now = s.machine.now();
            let op = s.machine.device.enqueue(now, stream, GpuOpKind::Kernel { name }, dur);
            let api_name = s.current_api();
            s.machine.record(CpuEventKind::Launch { api: api_name, op: Some(op) }, launch_cost);
            // Materialize output contents ("the GPU computed new data").
            for b in &desc.writes {
                let data = desc.output_bytes(launch_index, b.bytes);
                if s.machine.dev.is_mapped(b.ptr.0) {
                    s.machine.dev.write(b.ptr.0, &data)?;
                } else {
                    s.machine.host_write_raw(HostPtr(b.ptr.0), &data)?;
                }
            }
            Ok(op)
        })
    }

    /// `cudaFuncGetAttributes`: a pure host-side query (appears heavily in
    /// cuIBM's profile).
    pub fn func_get_attributes(&mut self, site: SourceLoc) -> CudaResult<()> {
        self.api_call(ApiFn::CudaFuncGetAttributes, CallInfo::Query, site, |s, _id| {
            let cost = s.machine.cost.query_call_ns;
            let api = s.current_api();
            s.machine.record(CpuEventKind::DriverCall { api }, cost);
            Ok(())
        })
    }

    /// `cudaHostRegister`: page-lock existing pageable memory so that
    /// async transfers involving it become truly asynchronous.
    pub fn host_register(&mut self, ptr: HostPtr, site: SourceLoc) -> CudaResult<()> {
        let Some(size) = self.machine.host.size_of(ptr.0) else {
            return Err(CudaError::InvalidHostPointer { addr: ptr.0 });
        };
        self.api_call(
            ApiFn::CudaHostRegister,
            CallInfo::HostAlloc { bytes: size, ptr, unified: false },
            site,
            |s, id| {
                s.charge_driver_entry();
                // Pinning walks and locks the pages: same cost as a fresh
                // pinned allocation.
                let cost = s.machine.cost.alloc_ns(size) * 2;
                s.internal(InternalFn::AllocDevice, id, cost);
                s.machine.host.set_kind(ptr.0, HostAllocKind::Pinned)?;
                Ok(())
            },
        )
    }

    /// `cudaHostUnregister`.
    pub fn host_unregister(&mut self, ptr: HostPtr, site: SourceLoc) -> CudaResult<()> {
        if self.machine.host.size_of(ptr.0).is_none() {
            return Err(CudaError::InvalidHostPointer { addr: ptr.0 });
        }
        self.api_call(ApiFn::CudaHostUnregister, CallInfo::HostFree { ptr }, site, |s, _id| {
            s.charge_driver_entry();
            s.machine.host.set_kind(ptr.0, HostAllocKind::Pageable)?;
            Ok(())
        })
    }

    // ---- events ----------------------------------------------------------------

    /// `cudaEventCreate`.
    pub fn event_create(&mut self, site: SourceLoc) -> CudaResult<EventId> {
        let event = EventId(self.next_event);
        self.next_event += 1;
        self.events.insert(event.0, None);
        self.api_call(
            ApiFn::CudaEventCreate,
            CallInfo::Event { event: event.0, stream: None },
            site,
            |s, _id| {
                s.charge_driver_entry();
                Ok(event)
            },
        )
    }

    /// `cudaEventRecord`: the event completes when everything currently
    /// enqueued on `stream` has completed.
    pub fn event_record(
        &mut self,
        event: EventId,
        stream: StreamId,
        site: SourceLoc,
    ) -> CudaResult<()> {
        self.check_stream(stream)?;
        if !self.events.contains_key(&event.0) {
            return Err(CudaError::InvalidValue { what: "unknown event" });
        }
        self.api_call(
            ApiFn::CudaEventRecord,
            CallInfo::Event { event: event.0, stream: Some(stream) },
            site,
            |s, _id| {
                s.charge_driver_entry();
                let t = s.machine.device.stream_completion(stream);
                s.events.insert(event.0, Some(t));
                Ok(())
            },
        )
    }

    /// `cudaEventSynchronize`: explicit CPU wait for an event.
    pub fn event_synchronize(&mut self, event: EventId, site: SourceLoc) -> CudaResult<()> {
        let Some(&recorded) = self.events.get(&event.0) else {
            return Err(CudaError::InvalidValue { what: "unknown event" });
        };
        self.api_call(
            ApiFn::CudaEventSynchronize,
            CallInfo::Event { event: event.0, stream: None },
            site,
            |s, id| {
                s.charge_driver_entry();
                if let Some(t) = recorded {
                    s.sync_wait(id, t, WaitReason::Explicit, None);
                }
                Ok(())
            },
        )
    }

    /// `cudaStreamWaitEvent`: device-side ordering — subsequent work on
    /// `stream` waits for the event, with **no CPU synchronization**
    /// (this is the tool-recommended replacement for many explicit
    /// host syncs).
    pub fn stream_wait_event(
        &mut self,
        stream: StreamId,
        event: EventId,
        site: SourceLoc,
    ) -> CudaResult<()> {
        self.check_stream(stream)?;
        let Some(&recorded) = self.events.get(&event.0) else {
            return Err(CudaError::InvalidValue { what: "unknown event" });
        };
        self.api_call(
            ApiFn::CudaStreamWaitEvent,
            CallInfo::Event { event: event.0, stream: Some(stream) },
            site,
            |s, _id| {
                s.charge_driver_entry();
                if let Some(t) = recorded {
                    s.machine.device.fence_stream(stream, t);
                }
                Ok(())
            },
        )
    }

    // ---- private (non-public) API --------------------------------------------

    /// Private kernel launch used by vendor libraries. Invisible to the
    /// vendor collection framework.
    pub fn private_launch(
        &mut self,
        desc: &KernelDesc,
        stream: StreamId,
        site: SourceLoc,
    ) -> CudaResult<OpId> {
        self.check_stream(stream)?;
        self.launch_impl(ApiFn::PrivateLaunch, desc, stream, site)
    }

    /// Private synchronization used by vendor libraries: waits on one
    /// stream like `cudaStreamSynchronize` but through the non-public
    /// entry point. The wait reason is [`WaitReason::Private`].
    pub fn private_sync(&mut self, stream: StreamId, site: SourceLoc) -> CudaResult<()> {
        self.check_stream(stream)?;
        self.api_call(ApiFn::PrivateSync, CallInfo::Sync { stream: Some(stream) }, site, |s, id| {
            let cost = if s.config.private_api_discount {
                s.machine.cost.driver_call_ns / 2
            } else {
                s.machine.cost.driver_call_ns
            };
            let api = s.current_api();
            s.machine.record(CpuEventKind::DriverCall { api }, cost);
            let target = s.machine.device.stream_completion(stream);
            s.sync_wait(id, target, WaitReason::Private, None);
            Ok(())
        })
    }

    /// Private device-to-host copy used by vendor libraries. Synchronous,
    /// like `cuMemcpy` through the private interface.
    pub fn private_memcpy_dtoh(
        &mut self,
        dst: HostPtr,
        src: DevPtr,
        bytes: u64,
        site: SourceLoc,
    ) -> CudaResult<()> {
        let pinned = matches!(self.machine.host.kind_of(dst.0), Some(HostAllocKind::Pinned));
        let info = CallInfo::Transfer {
            dir: Direction::DtoH,
            bytes,
            host: Some(dst),
            dev: Some(src),
            stream: StreamId::DEFAULT,
            is_async: false,
            pinned,
        };
        self.api_call(ApiFn::PrivateMemcpy, info, site, |s, id| {
            s.charge_driver_entry();
            s.do_transfer(
                ApiFn::PrivateMemcpy,
                id,
                Direction::DtoH,
                dst,
                src,
                bytes,
                StreamId::DEFAULT,
                Some(WaitReason::Private),
            )?;
            Ok(())
        })
    }

    // ---- host-side conveniences (not driver calls) ----------------------------

    /// Plain `malloc` on the host (pageable). Not a driver call; no hook
    /// events fire.
    pub fn host_malloc(&mut self, bytes: u64) -> HostPtr {
        self.machine.host_alloc(bytes, HostAllocKind::Pageable)
    }

    /// Plain host `free`.
    pub fn host_free_mem(&mut self, ptr: HostPtr) -> CudaResult<()> {
        self.machine.host_free(ptr).map_err(CudaError::from)
    }

    /// Host-side `memset` (the AMG fix replaces `cudaMemset` with this).
    pub fn host_memset(&mut self, ptr: HostPtr, value: u8, bytes: u64) -> CudaResult<()> {
        // Cost: ordinary CPU store bandwidth, much cheaper than a driver
        // round-trip; modeled at 20 GB/s.
        let ns = bytes / 20 + 50;
        self.machine.cpu_work(ns, "memset");
        self.machine.host.fill(ptr.0, bytes, value).map_err(CudaError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Span;

    fn site() -> SourceLoc {
        SourceLoc::new("test.cpp", 1)
    }

    fn cuda() -> Cuda {
        Cuda::new(CostModel::unit())
    }

    #[test]
    fn malloc_free_roundtrip() {
        let mut c = cuda();
        let p = c.malloc(1024, site()).unwrap();
        assert!(c.machine.dev.is_mapped(p.0));
        c.free(p, site()).unwrap();
        assert!(!c.machine.dev.is_mapped(p.0));
    }

    #[test]
    fn malloc_zero_and_oom_are_errors() {
        let mut c = Cuda::with_config(
            CostModel::unit(),
            DriverConfig { device_memory_bytes: 1000, ..DriverConfig::default() },
        );
        assert!(matches!(c.malloc(0, site()), Err(CudaError::InvalidValue { .. })));
        assert!(matches!(c.malloc(2000, site()), Err(CudaError::OutOfMemory { .. })));
    }

    #[test]
    fn memcpy_moves_real_bytes_both_ways() {
        let mut c = cuda();
        let h = c.host_malloc(8);
        let h2 = c.host_malloc(8);
        let d = c.malloc(8, site()).unwrap();
        c.machine.host_write_raw(h, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        c.memcpy_htod(d, h, 8, site()).unwrap();
        c.memcpy_dtoh(h2, d, 8, site()).unwrap();
        assert_eq!(c.machine.host_read_raw(h2, 8).unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn sync_memcpy_waits_implicitly() {
        let mut c = cuda();
        let h = c.host_malloc(1_000_000);
        let d = c.malloc(1_000_000, site()).unwrap();
        c.memcpy_htod(d, h, 1_000_000, site()).unwrap();
        let waits: Vec<_> = c.machine.timeline.waits().collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].0, "cudaMemcpy");
        assert_eq!(waits[0].1, gpu_sim::WaitReason::Implicit);
        assert!(waits[0].2.duration() > 0);
    }

    #[test]
    fn free_synchronizes_with_pending_kernels() {
        let mut c = cuda();
        let d = c.malloc(64, site()).unwrap();
        let k = KernelDesc::compute("busy", 100_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        let before = c.machine.now();
        c.free(d, site()).unwrap();
        let after = c.machine.now();
        assert!(after - before >= 90_000, "free must wait for the kernel");
        let waits: Vec<_> = c.machine.timeline.waits().collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].0, "cudaFree");
        assert_eq!(waits[0].1, gpu_sim::WaitReason::Implicit);
    }

    #[test]
    fn free_without_implicit_sync_config_does_not_wait() {
        let mut c = Cuda::with_config(CostModel::unit(), DriverConfig::fully_async());
        let d = c.malloc(64, site()).unwrap();
        let k = KernelDesc::compute("busy", 100_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        c.free(d, site()).unwrap();
        assert_eq!(c.machine.timeline.waits().count(), 0);
        assert!(c.machine.now() < 100_000);
    }

    #[test]
    fn async_dtoh_to_pageable_secretly_syncs_but_pinned_does_not() {
        let mut c = cuda();
        let stream = c.stream_create(site()).unwrap();
        let d = c.malloc(100_000, site()).unwrap();
        let pageable = c.host_malloc(100_000);
        let pinned = c.malloc_host(100_000, site()).unwrap();
        c.memcpy_dtoh_async(pageable, d, 100_000, stream, site()).unwrap();
        let conditional_waits =
            c.machine.timeline.waits().filter(|w| w.1 == gpu_sim::WaitReason::Conditional).count();
        assert_eq!(conditional_waits, 1, "pageable D2H async must hide a sync");
        c.memcpy_dtoh_async(pinned, d, 100_000, stream, site()).unwrap();
        let conditional_waits =
            c.machine.timeline.waits().filter(|w| w.1 == gpu_sim::WaitReason::Conditional).count();
        assert_eq!(conditional_waits, 1, "pinned D2H async must not sync");
    }

    #[test]
    fn memset_on_unified_syncs_on_device_does_not() {
        let mut c = cuda();
        let man = c.malloc_managed(4096, site()).unwrap();
        let dev = c.malloc(4096, site()).unwrap();
        c.memset(man.0, 0, 4096, site()).unwrap();
        assert_eq!(
            c.machine.timeline.waits().filter(|w| w.1 == gpu_sim::WaitReason::Conditional).count(),
            1
        );
        c.memset(dev.0, 0, 4096, site()).unwrap();
        assert_eq!(
            c.machine.timeline.waits().filter(|w| w.1 == gpu_sim::WaitReason::Conditional).count(),
            1,
            "device memset must not synchronize"
        );
        // contents really were set
        assert_eq!(c.machine.host_read_raw(man, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn explicit_syncs_wait_for_device_completion() {
        let mut c = cuda();
        let k = KernelDesc::compute("w", 50_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        c.device_synchronize(site()).unwrap();
        assert!(c.machine.now() >= 50_000);
        let w: Vec<_> = c.machine.timeline.waits().collect();
        assert_eq!(w.last().unwrap().1, gpu_sim::WaitReason::Explicit);
    }

    #[test]
    fn stream_sync_only_waits_for_its_stream() {
        let mut c = cuda();
        let s1 = c.stream_create(site()).unwrap();
        let s2 = c.stream_create(site()).unwrap();
        // Copy ops so the two streams use different engines... both are
        // kernels here, so use one kernel and one transfer.
        let k = KernelDesc::compute("long", 1_000_000);
        c.launch_kernel(&k, s1, site()).unwrap();
        let d = c.malloc(10, site()).unwrap();
        let h = c.malloc_host(10, site()).unwrap();
        c.memcpy_dtoh_async(h, d, 10, s2, site()).unwrap();
        c.stream_synchronize(s2, site()).unwrap();
        assert!(c.machine.now() < 1_000_000, "s2 sync must not wait for s1 kernel");
        c.stream_synchronize(s1, site()).unwrap();
        assert!(c.machine.now() >= 1_000_000);
    }

    #[test]
    fn kernel_writes_produce_fresh_device_data() {
        let mut c = cuda();
        let d = c.malloc(16, site()).unwrap();
        let k = KernelDesc::compute("gen", 10).writing(d, 16);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        let first = c.machine.dev.read(d.0, 16).unwrap();
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        let second = c.machine.dev.read(d.0, 16).unwrap();
        assert_ne!(first, second, "unique_output kernels regenerate data");
        assert_ne!(first, vec![0u8; 16]);
    }

    #[test]
    fn launch_validates_buffers() {
        let mut c = cuda();
        let k = KernelDesc::compute("bad", 10).writing(DevPtr(0xdead), 4);
        assert!(matches!(
            c.launch_kernel(&k, StreamId::DEFAULT, site()),
            Err(CudaError::InvalidDevicePointer { .. })
        ));
    }

    #[test]
    fn unknown_stream_is_rejected() {
        let mut c = cuda();
        let k = KernelDesc::compute("k", 10);
        assert!(matches!(
            c.launch_kernel(&k, StreamId(99), site()),
            Err(CudaError::InvalidStream { stream: 99 })
        ));
        assert!(c.stream_synchronize(StreamId(99), site()).is_err());
    }

    #[test]
    fn hook_sees_internal_sync_funnel_for_all_sync_classes() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct SyncSpy {
            reasons: Vec<gpu_sim::WaitReason>,
        }
        impl DriverHook for SyncSpy {
            fn on_event(&mut self, ev: &HookEvent, _m: &mut Machine) {
                if let HookEvent::InternalExit {
                    func: InternalFn::SyncWait, reason: Some(r), ..
                } = ev
                {
                    self.reasons.push(*r);
                }
            }
        }

        let mut c = cuda();
        let spy = Rc::new(RefCell::new(SyncSpy::default()));
        c.install_hook(spy.clone());

        let h = c.host_malloc(1000);
        let d = c.malloc(1000, site()).unwrap();
        let man = c.malloc_managed(1000, site()).unwrap();
        let k = KernelDesc::compute("k", 1000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        c.memcpy_htod(d, h, 1000, site()).unwrap(); // implicit
        c.device_synchronize(site()).unwrap(); // explicit
        c.memset(man.0, 1, 1000, site()).unwrap(); // conditional
        c.private_sync(StreamId::DEFAULT, site()).unwrap(); // private
        c.free(d, site()).unwrap(); // implicit

        let reasons = spy.borrow().reasons.clone();
        use gpu_sim::WaitReason::*;
        assert_eq!(reasons, vec![Implicit, Explicit, Conditional, Private, Implicit]);
    }

    #[test]
    fn vendor_scope_marks_api_events() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct VendorSpy {
            flags: Vec<bool>,
        }
        impl DriverHook for VendorSpy {
            fn on_event(&mut self, ev: &HookEvent, _m: &mut Machine) {
                if let HookEvent::ApiEnter { vendor_ctx, .. } = ev {
                    self.flags.push(*vendor_ctx);
                }
            }
        }
        let mut c = cuda();
        let spy = Rc::new(RefCell::new(VendorSpy::default()));
        c.install_hook(spy.clone());
        c.func_get_attributes(site()).unwrap();
        c.vendor_scope(|c| c.func_get_attributes(site()).unwrap());
        assert_eq!(spy.borrow().flags, vec![false, true]);
    }

    #[test]
    fn api_frame_appears_on_shadow_stack_during_call() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct StackSpy {
            leaf: Option<String>,
        }
        impl DriverHook for StackSpy {
            fn on_event(&mut self, ev: &HookEvent, m: &mut Machine) {
                if matches!(ev, HookEvent::InternalEnter { func: InternalFn::SyncWait, .. }) {
                    self.leaf = m.capture_stack().leaf().map(|f| f.function.clone().into_owned());
                }
            }
        }
        let mut c = cuda();
        let spy = Rc::new(RefCell::new(StackSpy::default()));
        c.install_hook(spy.clone());
        c.device_synchronize(SourceLoc::new("app.cpp", 42)).unwrap();
        assert_eq!(spy.borrow().leaf.as_deref(), Some("cudaDeviceSynchronize"));
        // Stack is clean after the call.
        assert_eq!(c.machine.stack_depth(), 0);
    }

    #[test]
    fn timeline_attribution_sums_to_exec_time() {
        let mut c = cuda();
        let h = c.host_malloc(10_000);
        let d = c.malloc(10_000, site()).unwrap();
        c.machine.cpu_work(5_000, "setup");
        c.memcpy_htod(d, h, 10_000, site()).unwrap();
        let k = KernelDesc::compute("k", 2_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        c.device_synchronize(site()).unwrap();
        c.free(d, site()).unwrap();
        let t = &c.machine.timeline;
        let covered: u64 = t.events().map(|e| e.span.duration()).sum();
        assert_eq!(covered, c.exec_time_ns(), "every ns is attributed");
        // events must tile the run: no overlaps
        for w in t.events().collect::<Vec<_>>().windows(2) {
            assert!(w[1].span.start >= w[0].span.end, "overlap: {w:?}");
        }
        let _ = Span::new(0, 1);
    }

    #[test]
    fn host_memset_is_much_cheaper_than_unified_cudamemset() {
        let mut c = Cuda::new(CostModel::pascal_like());
        let man = c.malloc_managed(1 << 20, site()).unwrap();
        let k = KernelDesc::compute("k", 500_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        let t0 = c.machine.now();
        c.memset(man.0, 0, 1 << 20, site()).unwrap();
        let cuda_cost = c.machine.now() - t0;
        let t1 = c.machine.now();
        c.host_memset(man, 0, 1 << 20).unwrap();
        let host_cost = c.machine.now() - t1;
        assert!(host_cost * 5 < cuda_cost, "host {host_cost} vs cuda {cuda_cost}");
    }

    #[test]
    fn api_call_count_counts_everything() {
        let mut c = cuda();
        let d = c.malloc(8, site()).unwrap();
        c.free(d, site()).unwrap();
        c.func_get_attributes(site()).unwrap();
        assert_eq!(c.api_call_count(), 3);
    }
}

#[cfg(test)]
mod fixpolicy_tests {
    use super::*;
    use crate::fixpolicy::FixPolicy;

    fn site(line: u32) -> SourceLoc {
        SourceLoc::new("patched.cpp", line)
    }

    fn policy_for(f: impl FnOnce(&mut FixPolicy)) -> FixPolicy {
        let mut p = FixPolicy::default();
        f(&mut p);
        p
    }

    #[test]
    fn patched_explicit_sync_never_waits() {
        let mut c = Cuda::new(CostModel::pascal_like());
        c.set_fix_policy(policy_for(|p| {
            p.skip_sync_sites.insert(site(10).addr());
        }));
        let k = KernelDesc::compute("busy", 1_000_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site(1)).unwrap();
        c.device_synchronize(site(10)).unwrap(); // patched
        assert!(c.machine.now() < 1_000_000, "no wait happened");
        c.device_synchronize(site(11)).unwrap(); // not patched
        assert!(c.machine.now() >= 1_000_000);
        assert_eq!(c.fix_stats().syncs_skipped, 1);
    }

    #[test]
    fn pooled_free_skips_the_implicit_sync_and_reuses_memory() {
        let mut c = Cuda::new(CostModel::pascal_like());
        c.set_fix_policy(policy_for(|p| {
            p.pool_free_sites.insert(site(20).addr());
        }));
        let k = KernelDesc::compute("busy", 500_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site(1)).unwrap();
        let a = c.malloc(4096, site(2)).unwrap();
        c.free(a, site(20)).unwrap(); // patched: pooled, no sync
        assert!(c.machine.now() < 500_000);
        let b = c.malloc(4096, site(3)).unwrap();
        assert_eq!(a, b, "pool returns the same buffer");
        assert_eq!(c.fix_stats().frees_pooled, 1);
        assert_eq!(c.fix_stats().mallocs_reused, 1);
        // different size misses the pool
        let d = c.malloc(8192, site(4)).unwrap();
        assert_ne!(d, a);
    }

    #[test]
    fn deduped_upload_skips_identical_payloads_but_not_changed_ones() {
        let mut c = Cuda::new(CostModel::pascal_like());
        c.set_fix_policy(policy_for(|p| {
            p.dedup_transfer_sites.insert(site(30).addr());
        }));
        let h = c.host_malloc(1024);
        let d = c.malloc(1024, site(1)).unwrap();
        c.machine.host_write_raw(h, &[7u8; 1024]).unwrap();
        c.memcpy_htod(d, h, 1024, site(30)).unwrap(); // first: real upload
        c.memcpy_htod(d, h, 1024, site(30)).unwrap(); // dup: skipped
        assert_eq!(c.fix_stats().transfers_deduped, 1);
        // changed content must go through
        c.machine.host_write_raw(h, &[9u8; 1024]).unwrap();
        c.memcpy_htod(d, h, 1024, site(30)).unwrap();
        assert_eq!(c.fix_stats().transfers_deduped, 1);
        assert_eq!(c.machine.dev.read(d.0, 4).unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn patched_unified_memset_runs_on_the_host() {
        let mut c = Cuda::new(CostModel::pascal_like());
        c.set_fix_policy(policy_for(|p| {
            p.host_memset_sites.insert(site(40).addr());
        }));
        let man = c.malloc_managed(4096, site(1)).unwrap();
        let k = KernelDesc::compute("busy", 300_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site(2)).unwrap();
        c.memset(man.0, 5, 4096, site(40)).unwrap(); // patched
        assert!(c.machine.now() < 300_000, "no conditional sync");
        assert_eq!(c.fix_stats().memsets_replaced, 1);
        assert_eq!(c.machine.host_read_raw(man, 2).unwrap(), vec![5, 5]);
        assert_eq!(c.machine.timeline.waits().count(), 0);
    }

    #[test]
    fn unpatched_sites_are_untouched_by_an_active_policy() {
        let mut c = Cuda::new(CostModel::pascal_like());
        c.set_fix_policy(policy_for(|p| {
            p.skip_sync_sites.insert(site(99).addr());
        }));
        let a = c.malloc(64, site(1)).unwrap();
        c.free(a, site(2)).unwrap(); // real free
        assert!(!c.machine.dev.is_mapped(a.0));
        assert_eq!(c.fix_stats().total(), 0);
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;

    fn site() -> SourceLoc {
        SourceLoc::new("events.cu", 1)
    }

    #[test]
    fn event_synchronize_waits_for_recorded_work() {
        let mut c = Cuda::new(CostModel::unit());
        let ev = c.event_create(site()).unwrap();
        let k = KernelDesc::compute("k", 50_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        c.event_record(ev, StreamId::DEFAULT, site()).unwrap();
        // Work launched AFTER the record is not covered by the event.
        let k2 = KernelDesc::compute("k2", 500_000);
        c.launch_kernel(&k2, StreamId::DEFAULT, site()).unwrap();
        c.event_synchronize(ev, site()).unwrap();
        assert!(c.machine.now() >= 50_000);
        assert!(c.machine.now() < 500_000, "event sync must not wait for k2");
        let w: Vec<_> = c.machine.timeline.waits().collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, "cudaEventSynchronize");
        assert_eq!(w[0].1, gpu_sim::WaitReason::Explicit);
    }

    #[test]
    fn stream_wait_event_orders_without_blocking_the_cpu() {
        let mut c = Cuda::new(CostModel::unit());
        let s1 = c.stream_create(site()).unwrap();
        let s2 = c.stream_create(site()).unwrap();
        let ev = c.event_create(site()).unwrap();
        // Producer on s2 (copy engine so the streams don't serialize on
        // the compute engine).
        let d = c.malloc(100_000, site()).unwrap();
        let h = c.malloc_host(100_000, site()).unwrap();
        c.memcpy_htod_async(d, h, 100_000, s2, site()).unwrap();
        c.event_record(ev, s2, site()).unwrap();
        // Consumer on s1 waits device-side.
        c.stream_wait_event(s1, ev, site()).unwrap();
        let before = c.machine.now();
        let k = KernelDesc::compute("consume", 10).reading(d, 64);
        let op = c.launch_kernel(&k, s1, site()).unwrap();
        // CPU never blocked...
        assert!(c.machine.timeline.waits().count() == 0);
        assert!(c.machine.now() - before < 10_000);
        // ...but the consumer kernel started only after the transfer.
        let xfer_end = c.machine.device.stream_completion(s2);
        assert!(c.machine.device.op(op).start_ns >= xfer_end);
    }

    #[test]
    fn unrecorded_event_synchronize_returns_immediately() {
        let mut c = Cuda::new(CostModel::unit());
        let ev = c.event_create(site()).unwrap();
        let k = KernelDesc::compute("k", 100_000);
        c.launch_kernel(&k, StreamId::DEFAULT, site()).unwrap();
        c.event_synchronize(ev, site()).unwrap();
        assert!(c.machine.now() < 100_000, "nothing recorded, nothing waited");
    }

    #[test]
    fn unknown_event_is_an_error() {
        let mut c = Cuda::new(CostModel::unit());
        assert!(c.event_record(EventId(99), StreamId::DEFAULT, site()).is_err());
        assert!(c.event_synchronize(EventId(99), site()).is_err());
        assert!(c.stream_wait_event(StreamId::DEFAULT, EventId(99), site()).is_err());
    }

    #[test]
    fn event_sync_is_visible_to_cupti_and_the_funnel() {
        // Explicit event syncs are among the documented sync APIs.
        assert!(ApiFn::CudaEventSynchronize.documented_sync());
        assert_eq!(ApiFn::from_name("cudaStreamWaitEvent"), Some(ApiFn::CudaStreamWaitEvent));
    }
}

#[cfg(test)]
mod host_register_tests {
    use super::*;
    use crate::fixpolicy::FixPolicy;

    fn site(line: u32) -> SourceLoc {
        SourceLoc::new("pin.cpp", line)
    }

    #[test]
    fn host_register_makes_async_copies_truly_async() {
        let mut c = Cuda::new(CostModel::pascal_like());
        let s = c.stream_create(site(1)).unwrap();
        let d = c.malloc(64 * 1024, site(2)).unwrap();
        let h = c.host_malloc(64 * 1024);
        // Pageable: hidden sync.
        c.memcpy_dtoh_async(h, d, 64 * 1024, s, site(3)).unwrap();
        assert_eq!(
            c.machine.timeline.waits().filter(|w| w.1 == WaitReason::Conditional).count(),
            1
        );
        // Register, then the same copy no longer blocks.
        c.host_register(h, site(4)).unwrap();
        c.memcpy_dtoh_async(h, d, 64 * 1024, s, site(5)).unwrap();
        assert_eq!(
            c.machine.timeline.waits().filter(|w| w.1 == WaitReason::Conditional).count(),
            1,
            "no new hidden sync after pinning"
        );
        // Unregister restores pageable behaviour.
        c.host_unregister(h, site(6)).unwrap();
        c.memcpy_dtoh_async(h, d, 64 * 1024, s, site(7)).unwrap();
        assert_eq!(
            c.machine.timeline.waits().filter(|w| w.1 == WaitReason::Conditional).count(),
            2
        );
    }

    #[test]
    fn register_rejects_unknown_pointers() {
        let mut c = Cuda::new(CostModel::unit());
        assert!(c.host_register(HostPtr(0xbad), site(1)).is_err());
        assert!(c.host_unregister(HostPtr(0xbad), site(1)).is_err());
    }

    #[test]
    fn pin_on_first_use_shim_removes_the_hidden_sync() {
        let mut c = Cuda::new(CostModel::pascal_like());
        let mut p = FixPolicy::default();
        p.pin_on_first_use_sites.insert(site(30).addr());
        c.set_fix_policy(p);
        let s = c.stream_create(site(1)).unwrap();
        let d = c.malloc(32 * 1024, site(2)).unwrap();
        let h = c.host_malloc(32 * 1024);
        for _ in 0..4 {
            c.memcpy_dtoh_async(h, d, 32 * 1024, s, site(30)).unwrap();
        }
        assert_eq!(
            c.machine.timeline.waits().filter(|w| w.1 == WaitReason::Conditional).count(),
            0,
            "patched site never hides a sync"
        );
        assert_eq!(c.fix_stats().buffers_pinned, 1, "pinned once, reused after");
    }
}
