//! Retained-heap gate: what a finished pipeline run keeps alive.
//!
//! A long-lived process (`perfbench` windows, `diogenes serve`) holds one
//! finished result while the next run builds, so the bytes a result
//! retains set the process's steady-state footprint. This binary counts
//! live heap bytes with its own global allocator and pins two budgets at
//! cuIBM paper scale (24,302 traced calls): the whole `DiogenesResult`,
//! and the stage 2 trace per traced call, as recorded and as decoded
//! from its FFB artifact (the store's disk cache and `diogenes serve`
//! hold decoded ones).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use diogenes::{build_app, run_diogenes, DiogenesConfig};
use ffm_core::stages::{run_stage1, run_stage2};
use ffm_core::{decode_artifact, encode_artifact, Artifact, ArtifactKind, FfmConfig};

/// Forwards to `System` and keeps a running count of live bytes.
struct Live;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

/// The live-byte counter is process-wide: measure one thing at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Live heap bytes that `make` allocates and its result keeps. `make`
/// runs twice and the second run is measured, so one-time lazy state
/// (interned names, pool threads, telemetry registries) is not charged
/// to the result.
fn retained<T>(make: impl Fn() -> T) -> (T, usize) {
    drop(make());
    let before = LIVE.load(Relaxed);
    let value = make();
    let after = LIVE.load(Relaxed);
    (value, after.saturating_sub(before))
}

const MIB: usize = 1 << 20;

#[test]
fn paper_scale_cuibm_result_retains_at_most_8_mib() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let app = build_app("cuibm", true).expect("cuibm is a known app");
    let (result, bytes) =
        retained(|| run_diogenes(app.as_ref(), DiogenesConfig::new().with_jobs(1)).unwrap());
    assert_eq!(result.report.stage2.calls.len(), 24_302, "paper-scale cuIBM trace");
    eprintln!("DiogenesResult retains {:.2} MiB", bytes as f64 / MIB as f64);
    assert!(
        bytes <= 8 * MIB,
        "DiogenesResult retains {:.2} MiB of live heap (budget 8 MiB)",
        bytes as f64 / MIB as f64
    );
}

#[test]
fn stage2_trace_retains_at_most_160_bytes_per_call() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let app = build_app("cuibm", true).expect("cuibm is a known app");
    let cfg = FfmConfig::default();
    let s1 = run_stage1(app.as_ref(), &cfg.cost, &cfg.driver).unwrap();
    let (s2, bytes) = retained(|| run_stage2(app.as_ref(), &cfg.cost, &cfg.driver, &s1).unwrap());
    let per_call = bytes / s2.calls.len();
    eprintln!("stage 2 retains {per_call} B per traced call");
    assert!(
        per_call <= 160,
        "stage 2 retains {per_call} B per traced call ({} calls, {bytes} B; budget 160)",
        s2.calls.len()
    );

    let calls = s2.calls.len();
    let ffb = encode_artifact(&Artifact::Stage2(s2.into())).expect("stage 2 has an FFB encoding");
    let (decoded, bytes) = retained(|| decode_artifact(&ffb, ArtifactKind::Stage2).unwrap());
    let Artifact::Stage2(decoded) = decoded else { panic!("decoded a stage 2 artifact") };
    assert_eq!(decoded.calls.len(), calls);
    let per_call = bytes / calls;
    eprintln!("decoded stage 2 retains {per_call} B per traced call");
    assert!(
        per_call <= 160,
        "decoded stage 2 retains {per_call} B per traced call ({calls} calls; budget 160)"
    );
}
