//! The four data-collection stages of the feed-forward model.
//!
//! Each stage runs the application in a **fresh driver context** with its
//! own instrumentation configuration (the multi-run design of §3): the
//! output of one stage decides what the next stage instruments. No stage
//! reads the simulator's ground truth; everything flows through probes
//! and load/store watches, with the modeled overhead charged to the run.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use cuda_driver::{ApiFn, CallInfo, Cuda, CudaResult, DriverConfig, GpuApp, HookEvent, InternalFn};
use gpu_sim::{CostModel, Direction, Ns, SourceLoc, StackTrace, WaitReason};
use instrument::{Digest, FunctionProbe, LoadStoreWatcher, ProbeSpec};

use crate::records::{
    DuplicateTransfer, OpInstance, ProtectedAccess, Stage1Result, Stage2Result, Stage3Result,
    Stage4Result, TracedCall, TransferRec,
};
use crate::telemetry;

fn fresh_context(cost: &CostModel, cfg: &DriverConfig) -> Cuda {
    Cuda::with_config(cost.clone(), cfg.clone())
}

/// Count what one app run cost the simulator, so `--profile` shows it.
fn count_sim_cost(cuda: &Cuda) {
    telemetry::counter_add("sim.timeline_events", cuda.machine.timeline.len() as u64);
    telemetry::counter_add("sim.stacks_interned", cuda.machine.stacks_interned() as u64);
    telemetry::counter_add("sim.dev_materialized_bytes", cuda.machine.dev.materialized_bytes());
}

/// Identity bits extracted from a captured stack.
fn stack_identity(stack: &StackTrace) -> (u64, u64, SourceLoc) {
    let sig = stack.address_signature();
    let folded = stack.folded_signature();
    let site = stack.leaf().map(|f| f.callsite).unwrap_or(SourceLoc::new("<unknown>", 0));
    (sig, folded, site)
}

// ---------------------------------------------------------------------------
// Stage 1 — baseline measurement
// ---------------------------------------------------------------------------

/// Run stage 1: wrap only the internal synchronization funnel, record
/// which API functions synchronize and the application execution time.
pub fn run_stage1(
    app: &dyn GpuApp,
    cost: &CostModel,
    cfg: &DriverConfig,
) -> CudaResult<Stage1Result> {
    #[derive(Default)]
    struct S1 {
        sync_apis: HashMap<ApiFn, u64>,
        pending_leaf: Option<ApiFn>,
        total_wait_ns: Ns,
        hits: u64,
    }
    let mut cuda = fresh_context(cost, cfg);
    let state = Rc::new(RefCell::new(S1::default()));
    let s2 = state.clone();
    FunctionProbe::install(
        &mut cuda,
        ProbeSpec::sync_funnel_only(),
        Box::new(move |hit, _m| {
            let mut st = s2.borrow_mut();
            match hit.event {
                HookEvent::InternalEnter { func: InternalFn::SyncWait, .. } => {
                    st.pending_leaf = hit
                        .stack
                        .as_ref()
                        .and_then(|s| s.leaf())
                        .and_then(|f| ApiFn::from_name(&f.function));
                }
                HookEvent::InternalExit { func: InternalFn::SyncWait, waited_ns, .. } => {
                    st.hits += 1;
                    st.total_wait_ns += waited_ns;
                    if let Some(api) = st.pending_leaf.take() {
                        *st.sync_apis.entry(api).or_insert(0) += 1;
                    }
                }
                _ => {}
            }
        }),
    );
    app.run(&mut cuda)?;
    count_sim_cost(&cuda);
    // Report the run time with the tool's own injected overhead
    // compensated out: the baseline stage is designed to match the
    // uninstrumented application closely (paper §3.1).
    let exec_time_ns = cuda.exec_time_ns() - cuda.machine.measurement_overhead_ns();
    let st = state.borrow();
    Ok(Stage1Result {
        exec_time_ns,
        sync_apis: st.sync_apis.clone(),
        total_wait_ns: st.total_wait_ns,
        sync_hits: st.hits,
    })
}

// ---------------------------------------------------------------------------
// Stage 2 — detailed tracing
// ---------------------------------------------------------------------------

/// Run stage 2: entry/exit-trace the synchronizing functions found in
/// stage 1 plus the documented transfer functions; record per call the
/// stack, total driver time and time spent in the sync funnel.
pub fn run_stage2(
    app: &dyn GpuApp,
    cost: &CostModel,
    cfg: &DriverConfig,
    s1: &Stage1Result,
) -> CudaResult<Stage2Result> {
    struct Pending {
        call_id: u64,
        api: ApiFn,
        stack: StackTrace,
        enter_ns: Ns,
        info: CallInfo,
        wait_ns: Ns,
        wait_reason: Option<WaitReason>,
    }
    #[derive(Default)]
    struct S2 {
        current: Option<Pending>,
        calls: Vec<TracedCall>,
        occ: HashMap<u64, u64>,
    }

    let mut cuda = fresh_context(cost, cfg);
    let state = Rc::new(RefCell::new(S2::default()));
    let s2 = state.clone();
    FunctionProbe::install(
        &mut cuda,
        ProbeSpec::apis_and_funnel(s1.trace_set()),
        Box::new(move |hit, m| {
            let mut st = s2.borrow_mut();
            match hit.event {
                HookEvent::ApiEnter { call_id, api, info, .. } => {
                    st.current = Some(Pending {
                        call_id: *call_id,
                        api: *api,
                        stack: hit.stack.clone().unwrap_or_default(),
                        // All timestamps are overhead-compensated: the
                        // tracer subtracts the overhead it knows it has
                        // injected so far, so graph durations reflect the
                        // uninstrumented application.
                        enter_ns: m.now() - m.measurement_overhead_ns(),
                        info: info.clone(),
                        wait_ns: 0,
                        wait_reason: None,
                    });
                }
                HookEvent::InternalExit {
                    call_id,
                    func: InternalFn::SyncWait,
                    waited_ns,
                    reason,
                } => {
                    if let Some(cur) = st.current.as_mut() {
                        if cur.call_id == *call_id {
                            cur.wait_ns += waited_ns;
                            if cur.wait_reason.is_none() {
                                cur.wait_reason = *reason;
                            }
                        }
                    }
                }
                HookEvent::ApiExit { call_id, .. } => {
                    let Some(cur) = st.current.take() else { return };
                    if cur.call_id != *call_id {
                        st.current = Some(cur);
                        return;
                    }
                    let (sig, folded_sig, site) = stack_identity(&cur.stack);
                    let occ_ref = st.occ.entry(sig).or_insert(0);
                    let occ = *occ_ref;
                    *occ_ref += 1;
                    let transfer = match &cur.info {
                        CallInfo::Transfer { dir, bytes, host, dev, is_async, pinned, .. } => {
                            Some(TransferRec {
                                dir: *dir,
                                bytes: *bytes,
                                host: host.map(|h| h.0).unwrap_or(0),
                                dev: dev.map(|d| d.0).unwrap_or(0),
                                pinned: *pinned,
                                is_async: *is_async,
                            })
                        }
                        _ => None,
                    };
                    let is_launch = matches!(
                        cur.info,
                        CallInfo::Launch { .. }
                            | CallInfo::Memset { .. }
                            | CallInfo::Transfer { .. }
                    );
                    let seq = st.calls.len();
                    st.calls.push(TracedCall {
                        seq,
                        api: cur.api,
                        site,
                        stack: cur.stack,
                        sig,
                        folded_sig,
                        occ,
                        enter_ns: cur.enter_ns,
                        exit_ns: m.now() - m.measurement_overhead_ns(),
                        wait_ns: cur.wait_ns,
                        wait_reason: cur.wait_reason,
                        transfer,
                        is_launch,
                    });
                }
                _ => {}
            }
        }),
    );
    app.run(&mut cuda)?;
    count_sim_cost(&cuda);
    let exec_time_ns = cuda.exec_time_ns() - cuda.machine.measurement_overhead_ns();
    // The probe (owned by `cuda`) still holds a clone of the state; drop
    // the context first so the trace can be moved out without cloning.
    drop(cuda);
    let st = Rc::try_unwrap(state)
        .map(RefCell::into_inner)
        .unwrap_or_else(|_| panic!("stage 2 state still shared"));
    // The result outlives the run (reports and the store keep it): drop
    // the push-doubling slack.
    let mut calls = st.calls;
    calls.shrink_to_fit();
    Ok(Stage2Result { exec_time_ns, calls })
}

// ---------------------------------------------------------------------------
// Stage 3 — memory tracing and data hashing
// ---------------------------------------------------------------------------

fn stage3_spec(s1: &Stage1Result, payloads: bool) -> ProbeSpec {
    let mut apis = s1.trace_set();
    // Also intercept the calls that allocate CPU/GPU-shared pages.
    apis.insert(ApiFn::CudaMallocManaged);
    apis.insert(ApiFn::CudaMallocHost);
    ProbeSpec {
        apis: Some(apis),
        internals: [InternalFn::SyncWait].into_iter().collect(),
        capture_stacks: true,
        capture_internal_stacks: false,
        payloads,
        ..Default::default()
    }
}

/// Stage 3, run A — memory tracing: track GPU-writable host ranges and
/// watch loads/stores to them to learn which synchronizations protect
/// data the CPU actually uses.
pub fn run_stage3_sync(
    app: &dyn GpuApp,
    cost: &CostModel,
    cfg: &DriverConfig,
    s1: &Stage1Result,
) -> CudaResult<Stage3Result> {
    struct Cur {
        call_id: u64,
        inst: OpInstance,
        synced: bool,
    }
    #[derive(Default)]
    struct S3 {
        current: Option<Cur>,
        occ: HashMap<u64, u64>,
        pending_sync: Option<(OpInstance, Ns)>,
        required: HashSet<OpInstance>,
        observed: HashSet<OpInstance>,
        accesses: Vec<ProtectedAccess>,
        first_use_sites: HashSet<SourceLoc>,
    }

    let mut cuda = fresh_context(cost, cfg);
    let state = Rc::new(RefCell::new(S3::default()));

    // Load/store watcher: consumes the pending sync on first access.
    let s_access = state.clone();
    let watcher = LoadStoreWatcher::install(
        &mut cuda,
        true, // stage 3 instruments every load/store in the program
        Box::new(move |access, m| {
            let mut st = s_access.borrow_mut();
            if let Some((inst, sync_end)) = st.pending_sync.take() {
                st.required.insert(inst);
                st.first_use_sites.insert(access.site);
                st.accesses.push(ProtectedAccess {
                    sync: inst,
                    access_site: access.site,
                    rough_gap_ns: m.now().saturating_sub(sync_end),
                });
            }
        }),
    );

    let s_probe = state.clone();
    let w_probe = watcher;
    FunctionProbe::install(
        &mut cuda,
        stage3_spec(s1, false),
        Box::new(move |hit, m| {
            let mut st = s_probe.borrow_mut();
            match hit.event {
                HookEvent::ApiEnter { call_id, info, .. } => {
                    let stack = hit.stack.clone().unwrap_or_default();
                    let (sig, _folded, _site) = stack_identity(&stack);
                    let occ_ref = st.occ.entry(sig).or_insert(0);
                    let occ = *occ_ref;
                    *occ_ref += 1;
                    st.current = Some(Cur {
                        call_id: *call_id,
                        inst: OpInstance { sig, occ },
                        synced: false,
                    });
                    // Unified allocations are CPU/GPU shared from birth.
                    if let CallInfo::HostAlloc { bytes, ptr, unified: true } = info {
                        w_probe.borrow_mut().watch_range(ptr.0, *bytes);
                    }
                }
                HookEvent::InternalExit { call_id, func: InternalFn::SyncWait, .. } => {
                    if let Some(cur) = st.current.as_mut() {
                        if cur.call_id == *call_id {
                            cur.synced = true;
                        }
                    }
                }
                HookEvent::ApiExit { call_id, info, .. } => {
                    let Some(cur) = st.current.take() else { return };
                    if cur.call_id != *call_id {
                        st.current = Some(cur);
                        return;
                    }
                    // Device-to-host destinations become GPU-writable
                    // ranges once the data lands.
                    if let CallInfo::Transfer {
                        dir: Direction::DtoH, bytes, host: Some(h), ..
                    } = info
                    {
                        w_probe.borrow_mut().watch_range(h.0, *bytes);
                    }
                    if cur.synced {
                        st.observed.insert(cur.inst);
                        st.pending_sync = Some((cur.inst, m.now()));
                    }
                }
                _ => {}
            }
        }),
    );

    app.run(&mut cuda)?;
    count_sim_cost(&cuda);
    let exec_time_ns = cuda.exec_time_ns();
    cuda.machine.set_access_sink(None);
    let st = state.borrow();
    Ok(Stage3Result {
        required_syncs: st.required.clone(),
        observed_syncs: st.observed.clone(),
        accesses: st.accesses.clone(),
        duplicates: Vec::new(),
        first_use_sites: st.first_use_sites.clone(),
        hashed_bytes: 0,
        exec_time_sync_ns: exec_time_ns,
        exec_time_hash_ns: 0,
        exec_time_ns,
    })
}

/// Stage 3, run B — data hashing: digest every transfer payload and flag
/// retransmissions of already-resident data.
pub fn run_stage3_hash(
    app: &dyn GpuApp,
    cost: &CostModel,
    cfg: &DriverConfig,
    s1: &Stage1Result,
) -> CudaResult<Stage3Result> {
    #[derive(Default)]
    struct S3 {
        current: Option<(u64, OpInstance, SourceLoc)>,
        occ: HashMap<u64, u64>,
        // digest -> list of (destination address, first site)
        digests: HashMap<Digest, Vec<(u64, SourceLoc)>>,
        duplicates: Vec<DuplicateTransfer>,
        hashed_bytes: u64,
    }

    let mut cuda = fresh_context(cost, cfg);
    let state = Rc::new(RefCell::new(S3::default()));
    let s_probe = state.clone();
    FunctionProbe::install(
        &mut cuda,
        stage3_spec(s1, true),
        Box::new(move |hit, m| {
            let mut st = s_probe.borrow_mut();
            match hit.event {
                HookEvent::ApiEnter { call_id, .. } => {
                    let stack = hit.stack.clone().unwrap_or_default();
                    let (sig, _folded, site) = stack_identity(&stack);
                    let occ_ref = st.occ.entry(sig).or_insert(0);
                    let occ = *occ_ref;
                    *occ_ref += 1;
                    st.current = Some((*call_id, OpInstance { sig, occ }, site));
                }
                HookEvent::TransferPayload { dir, bytes, host, dev, .. } => {
                    let payload = match dir {
                        Direction::HtoD => m.host_read_raw(*host, *bytes).ok(),
                        Direction::DtoH | Direction::DtoD => m.dev.read(dev.0, *bytes).ok(),
                    };
                    let Some(payload) = payload else { return };
                    let cost_ns = m.cost.hash_ns(*bytes);
                    m.charge_overhead(cost_ns, "hashing");
                    st.hashed_bytes += bytes;
                    let digest = Digest::of(&payload);
                    let dst = match dir {
                        Direction::HtoD => dev.0,
                        Direction::DtoH | Direction::DtoD => host.0,
                    };
                    let (inst, site) = match st.current.as_ref() {
                        Some((_, i, s)) => (*i, *s),
                        None => return,
                    };
                    let entry = st.digests.entry(digest).or_default();
                    if let Some((_, first_site)) = entry.iter().find(|(d, _)| *d == dst) {
                        let first_site = *first_site;
                        st.duplicates.push(DuplicateTransfer {
                            op: inst,
                            site,
                            first_site,
                            bytes: *bytes,
                            digest,
                        });
                    } else {
                        entry.push((dst, site));
                    }
                }
                HookEvent::ApiExit { call_id, .. }
                    if st.current.as_ref().map(|(id, _, _)| id) == Some(call_id) =>
                {
                    st.current = None;
                }
                _ => {}
            }
        }),
    );

    app.run(&mut cuda)?;
    count_sim_cost(&cuda);
    let exec_time_ns = cuda.exec_time_ns();
    let st = state.borrow();
    Ok(Stage3Result {
        required_syncs: HashSet::new(),
        observed_syncs: HashSet::new(),
        accesses: Vec::new(),
        duplicates: st.duplicates.clone(),
        first_use_sites: HashSet::new(),
        hashed_bytes: st.hashed_bytes,
        exec_time_sync_ns: 0,
        exec_time_hash_ns: exec_time_ns,
        exec_time_ns,
    })
}

/// Merge the evidence of the two stage 3 collection runs. The runs are
/// independent complete executions, so the merge is a pure field union —
/// which is also what lets the pipeline run them concurrently.
pub fn merge_stage3(sync: Stage3Result, hash: Stage3Result) -> Stage3Result {
    Stage3Result {
        required_syncs: sync.required_syncs,
        observed_syncs: sync.observed_syncs,
        accesses: sync.accesses,
        duplicates: hash.duplicates,
        first_use_sites: sync.first_use_sites,
        hashed_bytes: hash.hashed_bytes,
        exec_time_sync_ns: sync.exec_time_sync_ns,
        exec_time_hash_ns: hash.exec_time_hash_ns,
        exec_time_ns: sync.exec_time_sync_ns + hash.exec_time_hash_ns,
    }
}

/// Run both stage 3 collections (memory tracing, then data hashing — two
/// separate runs, as Diogenes performs them) and merge the evidence.
pub fn run_stage3(
    app: &dyn GpuApp,
    cost: &CostModel,
    cfg: &DriverConfig,
    s1: &Stage1Result,
) -> CudaResult<Stage3Result> {
    let sync = run_stage3_sync(app, cost, cfg, s1)?;
    let hash = run_stage3_hash(app, cost, cfg, s1)?;
    Ok(merge_stage3(sync, hash))
}

// ---------------------------------------------------------------------------
// Stage 4 — sync-use analysis
// ---------------------------------------------------------------------------

/// Run stage 4: re-run with load/store instrumentation restricted to the
/// first-use instructions found in stage 3 and measure the time between
/// each synchronization's completion and the first use of its protected
/// data.
pub fn run_stage4(
    app: &dyn GpuApp,
    cost: &CostModel,
    cfg: &DriverConfig,
    s1: &Stage1Result,
    s3: &Stage3Result,
) -> CudaResult<Stage4Result> {
    #[derive(Default)]
    struct S4 {
        current: Option<(u64, OpInstance, bool)>,
        occ: HashMap<u64, u64>,
        pending_sync: Option<(OpInstance, Ns)>,
        first_use_ns: HashMap<OpInstance, Ns>,
    }

    let mut cuda = fresh_context(cost, cfg);
    let state = Rc::new(RefCell::new(S4::default()));

    let s_access = state.clone();
    let watcher = LoadStoreWatcher::install(
        &mut cuda,
        false, // stage 4 instruments only the first-use instructions
        Box::new(move |_access, m| {
            let mut st = s_access.borrow_mut();
            if let Some((inst, sync_end)) = st.pending_sync.take() {
                // Overhead-compensated gap (both endpoints subtract the
                // tool's cumulative injected time).
                let now = m.now() - m.measurement_overhead_ns();
                let gap = now.saturating_sub(sync_end);
                st.first_use_ns.entry(inst).or_insert(gap);
            }
        }),
    );
    watcher.borrow_mut().set_site_filter(s3.first_use_sites.iter().copied().collect());

    let s_probe = state.clone();
    let w_probe = watcher;
    FunctionProbe::install(
        &mut cuda,
        stage3_spec(s1, false), // same interception set, minus hashing work
        Box::new(move |hit, m| {
            let mut st = s_probe.borrow_mut();
            match hit.event {
                HookEvent::ApiEnter { call_id, info, .. } => {
                    let stack = hit.stack.clone().unwrap_or_default();
                    let (sig, _folded, _site) = stack_identity(&stack);
                    let occ_ref = st.occ.entry(sig).or_insert(0);
                    let occ = *occ_ref;
                    *occ_ref += 1;
                    st.current = Some((*call_id, OpInstance { sig, occ }, false));
                    if let CallInfo::HostAlloc { bytes, ptr, unified: true } = info {
                        w_probe.borrow_mut().watch_range(ptr.0, *bytes);
                    }
                }
                HookEvent::InternalExit { call_id, func: InternalFn::SyncWait, .. } => {
                    if let Some((id, _, synced)) = st.current.as_mut() {
                        if id == call_id {
                            *synced = true;
                        }
                    }
                }
                HookEvent::ApiExit { call_id, info, .. } => {
                    let Some((id, inst, synced)) = st.current.take() else { return };
                    if id != *call_id {
                        st.current = Some((id, inst, synced));
                        return;
                    }
                    if let CallInfo::Transfer {
                        dir: Direction::DtoH, bytes, host: Some(h), ..
                    } = info
                    {
                        w_probe.borrow_mut().watch_range(h.0, *bytes);
                    }
                    if synced {
                        st.pending_sync = Some((inst, m.now() - m.measurement_overhead_ns()));
                    }
                }
                _ => {}
            }
        }),
    );

    app.run(&mut cuda)?;
    count_sim_cost(&cuda);
    let exec_time_ns = cuda.exec_time_ns();
    cuda.machine.set_access_sink(None);
    let st = state.borrow();
    Ok(Stage4Result { first_use_ns: st.first_use_ns.clone(), exec_time_ns })
}
