//! Throughput and size harness for the FFB binary artifact codec.
//!
//! Encodes and decodes the three artifact shapes on the multi-run hot
//! path — Stage 2 call traces, Stage 4 sync-use gap tables, and sweep
//! matrices — in both serializations: the FFB container
//! (`ffm_core::codec`) and the pretty JSON the artifacts used to
//! round-trip through. Writes `results/BENCH_codec.json` with
//! encode/decode wall time, bytes on disk, and heap-allocation counts
//! from a counting global allocator local to this binary.
//!
//! Every row decodes through the path production runs: stage artifacts
//! through the owned `decode_artifact` (store cache hits, serve), sweep
//! shards through the reusable [`SweepCellCols`] reader (the `--merge`
//! fold). The owned decode may allocate at most once per record plus a
//! small constant; the sweep reader must not touch the heap at all once
//! its scratch is warm.
//!
//! `--smoke` runs reduced sizes and asserts the contracts instead of
//! publishing numbers: round-trip identity, the allocation bounds, and
//! FFB decode beating JSON parse. CI runs this mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cuda_driver::ApiFn;
use ffm_core::{
    decode_artifact, decode_sweep, encode_artifact, encode_sweep, sweep_to_json, Artifact,
    ArtifactKind, Axis, Json, OpInstance, Stage2Result, Stage4Result, SweepCell, SweepCellCols,
    SweepMatrix, TracedCall, TransferRec,
};
use gpu_sim::{Direction, Frame, SourceLoc, StackTrace, WaitReason};

// ---------------------------------------------------------------------------
// Counting allocator (this binary only)
// ---------------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations (calls, bytes) performed by `f`.
fn count_allocs(mut f: impl FnMut()) -> (u64, u64) {
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - calls, ALLOC_BYTES.load(Ordering::Relaxed) - bytes)
}

// ---------------------------------------------------------------------------
// Synthetic artifacts
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A Stage 2 trace with realistic shape: ~200 distinct call sites, 2–4
/// frame stacks over a small function vocabulary, a transfer record on
/// roughly a third of the calls.
fn synthetic_stage2(n: usize, seed: u64) -> Stage2Result {
    let mut rng = Rng(seed | 1);
    let apis =
        [ApiFn::CudaFree, ApiFn::CudaMemcpy, ApiFn::CudaMalloc, ApiFn::CudaDeviceSynchronize];
    let funcs = ["solve_iter", "update_theta<float>", "transfer_block", "checkpoint", "main"];
    let files = ["als.cu", "solver.cpp", "driver.cpp"];
    let calls: Vec<TracedCall> = (0..n)
        .map(|i| {
            let api = apis[(rng.next() % apis.len() as u64) as usize];
            let site = SourceLoc::new(
                files[(rng.next() % files.len() as u64) as usize],
                (rng.next() % 200) as u32 + 1,
            );
            let depth = 2 + (rng.next() % 3) as usize;
            let stack = StackTrace {
                frames: (0..depth)
                    .map(|d| {
                        Frame::new(
                            funcs[(rng.next() % funcs.len() as u64) as usize],
                            SourceLoc::new(
                                files[(rng.next() % files.len() as u64) as usize],
                                (d as u32 + 1) * 10,
                            ),
                        )
                    })
                    .collect(),
            };
            let enter = i as u64 * 1_000;
            let transfer = (rng.next().is_multiple_of(3)).then(|| TransferRec {
                dir: if rng.next().is_multiple_of(2) { Direction::HtoD } else { Direction::DtoH },
                bytes: 4096 + rng.next() % 1_000_000,
                host: rng.next(),
                dev: rng.next(),
                pinned: rng.next().is_multiple_of(2),
                is_async: rng.next().is_multiple_of(4),
            });
            TracedCall {
                seq: i,
                api,
                site,
                sig: stack.address_signature(),
                folded_sig: stack.folded_signature(),
                stack,
                occ: rng.next() % 64,
                enter_ns: enter,
                exit_ns: enter + 200 + rng.next() % 5_000,
                wait_ns: rng.next() % 2_000,
                wait_reason: match rng.next() % 4 {
                    0 => Some(WaitReason::Explicit),
                    1 => Some(WaitReason::Implicit),
                    2 => Some(WaitReason::Conditional),
                    _ => None,
                },
                transfer,
                is_launch: rng.next().is_multiple_of(5),
            }
        })
        .collect();
    Stage2Result { exec_time_ns: n as u64 * 6_000, calls }
}

/// A Stage 4 gap table: `n` distinct sync instances with first-use gaps.
fn synthetic_stage4(n: usize, seed: u64) -> Stage4Result {
    let mut rng = Rng(seed | 1);
    let first_use_ns: HashMap<OpInstance, u64> = (0..n as u64)
        .map(|occ| (OpInstance { sig: rng.next() % 50_000, occ }, rng.next() % 1_000_000))
        .collect();
    Stage4Result { first_use_ns, exec_time_ns: n as u64 * 1_000 }
}

/// A sweep matrix with two axes and `n` cells, summary made consistent
/// with the decoder by round-tripping once.
fn synthetic_sweep(n: usize, seed: u64) -> SweepMatrix {
    let mut rng = Rng(seed | 1);
    let axes = vec![
        Axis::new("cost.free_base_ns", (0..n as u64).collect()),
        Axis::new("driver.unified_memset_penalty", (0..n as u64).collect()),
    ];
    let cells: Vec<SweepCell> = (0..n)
        .map(|i| {
            let benefit = rng.next() % 4_000_000;
            let baseline = 8_000_000 + rng.next() % 4_000_000;
            SweepCell {
                index: i,
                assignment: vec![
                    ("cost.free_base_ns".to_string(), i as u64),
                    ("driver.unified_memset_penalty".to_string(), i as u64),
                ],
                baseline_exec_ns: baseline,
                total_benefit_ns: benefit,
                benefit_pct: benefit as f64 * 100.0 / baseline as f64,
                problem_count: (rng.next() % 40) as usize,
                sync_issues: (rng.next() % 30) as usize,
                transfer_issues: (rng.next() % 10) as usize,
                sequence_count: (rng.next() % 5) as usize,
                collection_overhead_factor: 1.0 + (rng.next() % 300) as f64 / 100.0,
            }
        })
        .collect();
    let mut m = SweepMatrix {
        app_name: "synthetic".to_string(),
        workload: "bench_codec".to_string(),
        axes,
        layout: ffm_core::AxisLayout::Paired,
        total_cells: n,
        shard: None,
        cells,
        summary: Default::default(),
        cache_stats: None,
    };
    // The decoder recomputes the summary; take its word so renders match.
    m.summary = decode_sweep(&encode_sweep(&m).expect("encodes")).expect("decodes").summary;
    m
}

// ---------------------------------------------------------------------------
// JSON counterparts (the pre-FFB serialization of the same content)
// ---------------------------------------------------------------------------

fn stage2_to_json(s: &Stage2Result) -> Json {
    let call_json = |c: &TracedCall| {
        Json::obj([
            ("seq", Json::Int(c.seq as i128)),
            ("api", Json::Static(c.api.name())),
            ("file", Json::Static(c.site.file)),
            ("line", Json::Int(c.site.line as i128)),
            (
                "stack",
                Json::Arr(
                    c.stack
                        .frames
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("function", Json::Str(f.function.to_string())),
                                ("file", Json::Static(f.callsite.file)),
                                ("line", Json::Int(f.callsite.line as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("sig", Json::Int(c.sig as i128)),
            ("folded_sig", Json::Int(c.folded_sig as i128)),
            ("occ", Json::Int(c.occ as i128)),
            ("enter_ns", Json::Int(c.enter_ns as i128)),
            ("exit_ns", Json::Int(c.exit_ns as i128)),
            ("wait_ns", Json::Int(c.wait_ns as i128)),
            (
                "transfer",
                match &c.transfer {
                    None => Json::Null,
                    Some(t) => Json::obj([
                        ("bytes", Json::Int(t.bytes as i128)),
                        ("pinned", Json::Bool(t.pinned)),
                        ("async", Json::Bool(t.is_async)),
                    ]),
                },
            ),
            ("is_launch", Json::Bool(c.is_launch)),
        ])
    };
    Json::obj([
        ("exec_time_ns", Json::Int(s.exec_time_ns as i128)),
        ("calls", Json::Arr(s.calls.iter().map(call_json).collect())),
    ])
}

fn stage4_to_json(s: &Stage4Result) -> Json {
    let mut gaps: Vec<(&OpInstance, &u64)> = s.first_use_ns.iter().collect();
    gaps.sort_by_key(|(op, _)| (op.sig, op.occ));
    Json::obj([
        (
            "gaps",
            Json::Arr(
                gaps.iter()
                    .map(|(op, ns)| {
                        Json::obj([
                            ("sig", Json::Int(op.sig as i128)),
                            ("occ", Json::Int(op.occ as i128)),
                            ("first_use_ns", Json::Int(**ns as i128)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("exec_time_ns", Json::Int(s.exec_time_ns as i128)),
    ])
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const ITERS: usize = 5;

/// Run `f` once to warm up, then `ITERS` timed iterations; seconds, median.
fn time_median(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct Measurement {
    name: &'static str,
    records: usize,
    ffb_encode_s: f64,
    ffb_decode_s: f64,
    json_encode_s: f64,
    json_parse_s: f64,
    ffb_bytes: usize,
    json_bytes: usize,
    decode_allocs: (u64, u64),
}

impl Measurement {
    fn decode_speedup(&self) -> f64 {
        self.json_parse_s / self.ffb_decode_s
    }

    fn to_json(&self) -> Json {
        eprintln!(
            "  {:<14} {:>8} records  ffb {:>9} B / json {:>9} B ({:.2}x smaller)  decode \
             {:>7.3} ms vs parse {:>8.3} ms ({:.1}x faster, {} allocs)",
            self.name,
            self.records,
            self.ffb_bytes,
            self.json_bytes,
            self.json_bytes as f64 / self.ffb_bytes as f64,
            self.ffb_decode_s * 1e3,
            self.json_parse_s * 1e3,
            self.decode_speedup(),
            self.decode_allocs.0,
        );
        Json::obj([
            ("name", Json::Static(self.name)),
            ("records", Json::Int(self.records as i128)),
            ("ffb_encode_s", Json::Float(self.ffb_encode_s)),
            ("ffb_decode_s", Json::Float(self.ffb_decode_s)),
            ("json_encode_s", Json::Float(self.json_encode_s)),
            ("json_parse_s", Json::Float(self.json_parse_s)),
            ("ffb_bytes", Json::Int(self.ffb_bytes as i128)),
            ("json_bytes", Json::Int(self.json_bytes as i128)),
            ("size_ratio", Json::Float(self.json_bytes as f64 / self.ffb_bytes as f64)),
            ("decode_speedup", Json::Float(self.decode_speedup())),
            ("decode_allocs", Json::Int(self.decode_allocs.0 as i128)),
            ("decode_alloc_bytes", Json::Int(self.decode_allocs.1 as i128)),
        ])
    }
}

/// Allocations the owned decode may make beyond one per record: the
/// record vector, the string table, and the container bookkeeping.
const OWNED_DECODE_SLACK: u64 = 16;

/// Time one scenario — FFB encode/decode against JSON render/parse of
/// the same content — and count the heap traffic of one warm decode.
fn measure(
    name: &'static str,
    records: usize,
    (ffb, json): (&[u8], &str),
    mut encode: impl FnMut(),
    mut decode: impl FnMut(&[u8]),
    mut render: impl FnMut(),
) -> Measurement {
    let ffb_encode_s = time_median(&mut encode);
    let ffb_decode_s = time_median(|| decode(std::hint::black_box(ffb)));
    let json_encode_s = time_median(&mut render);
    let json_parse_s = time_median(|| {
        std::hint::black_box(Json::parse(json).expect("parses"));
    });
    let decode_allocs = count_allocs(|| decode(std::hint::black_box(ffb)));
    Measurement {
        name,
        records,
        ffb_encode_s,
        ffb_decode_s,
        json_encode_s,
        json_parse_s,
        ffb_bytes: ffb.len(),
        json_bytes: json.len(),
        decode_allocs,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n2, n4, ncells) = if smoke { (8_000, 20_000, 300) } else { (60_000, 200_000, 2_000) };

    let stage2 = synthetic_stage2(n2, 0xd10_9e2e5);
    let stage4 = synthetic_stage4(n4, 0xc0dec);
    let sweep = synthetic_sweep(ncells, 0x5eed);

    let stage2_art = Artifact::Stage2(Arc::new(stage2.clone()));
    let stage4_art = Artifact::Stage4(Arc::new(stage4.clone()));
    let stage2_ffb = encode_artifact(&stage2_art).expect("stage2 encodes");
    let stage2_json = stage2_to_json(&stage2).to_string_pretty();
    let stage4_ffb = encode_artifact(&stage4_art).expect("stage4 encodes");
    let stage4_json = stage4_to_json(&stage4).to_string_pretty();
    let sweep_ffb = encode_sweep(&sweep).expect("sweep encodes");
    let sweep_json = sweep_to_json(&sweep).to_string_pretty();

    // Contracts first: identity round trips.
    // The records lack PartialEq, but the encoder is deterministic, so
    // decode∘encode being identity is equivalent to the re-encoded bytes
    // matching the originals.
    for (name, ffb, kind) in [
        ("stage2", &stage2_ffb, ArtifactKind::Stage2),
        ("stage4", &stage4_ffb, ArtifactKind::Stage4),
    ] {
        let back = decode_artifact(ffb, kind).expect("decodes");
        assert_eq!(
            &encode_artifact(&back).expect("re-encodes"),
            ffb,
            "{name} round trip must be identity"
        );
    }
    let decoded_sweep = decode_sweep(&sweep_ffb).expect("sweep decodes");
    assert_eq!(
        sweep_to_json(&decoded_sweep).to_string_pretty(),
        sweep_json,
        "sweep round trip must render byte-identically"
    );

    if !smoke {
        eprintln!("bench_codec: {n2} calls / {n4} gaps / {ncells} cells, {ITERS} iterations each");
    }
    let decode_owned = |kind: ArtifactKind| {
        move |b: &[u8]| {
            std::hint::black_box(decode_artifact(b, kind).expect("decodes"));
        }
    };
    let mut cells = SweepCellCols::new();
    let rows = [
        // Stage 2 call traces: one owned `TracedCall` + stack per record,
        // as a store cache hit materializes them.
        measure(
            "stage2_calls",
            n2,
            (&stage2_ffb, &stage2_json),
            || {
                std::hint::black_box(encode_artifact(&stage2_art).expect("encodes"));
            },
            decode_owned(ArtifactKind::Stage2),
            || {
                std::hint::black_box(stage2_to_json(&stage2).to_string_pretty());
            },
        ),
        // Stage 4 gap tables: three column copies into the owned map.
        measure(
            "stage4_gaps",
            n4,
            (&stage4_ffb, &stage4_json),
            || {
                std::hint::black_box(encode_artifact(&stage4_art).expect("encodes"));
            },
            decode_owned(ArtifactKind::Stage4),
            || {
                std::hint::black_box(stage4_to_json(&stage4).to_string_pretty());
            },
        ),
        // Sweep matrix: the shard-merge ingestion path, reused scratch.
        measure(
            "sweep_matrix",
            ncells,
            (&sweep_ffb, &sweep_json),
            || {
                std::hint::black_box(encode_sweep(&sweep).expect("encodes"));
            },
            |b| cells.read(b).expect("reads"),
            || {
                std::hint::black_box(sweep_to_json(&sweep).to_string_pretty());
            },
        ),
    ];

    for row in &rows {
        let speedup = row.decode_speedup();
        if smoke {
            // Smoke sizes are too small for a stable ratio; the binary
            // path must still beat the parser.
            assert!(speedup > 1.0, "smoke: {} FFB decode must beat JSON parse", row.name);
        } else {
            assert!(
                speedup >= 5.0,
                "{}: FFB decode must be >= 5x faster than JSON parse (got {speedup:.2}x)",
                row.name
            );
        }
    }
    // The owned decodes allocate at most once per record (one frame
    // list per distinct stack, none per gap); the sweep reader
    // allocates nothing once its scratch is warm.
    for row in &rows[..2] {
        assert!(
            row.decode_allocs.0 <= row.records as u64 + OWNED_DECODE_SLACK,
            "{}: owned decode made {} allocations for {} records",
            row.name,
            row.decode_allocs.0,
            row.records
        );
    }
    assert_eq!(rows[2].decode_allocs, (0, 0), "sweep_matrix: steady-state read must not allocate");
    if smoke {
        eprintln!(
            "bench_codec --smoke: ok ({n2}/{n4}/{ncells} records, FFB decode beats JSON parse on \
             every kind, owned decodes within one allocation per record, zero steady-state \
             sweep-merge allocations)"
        );
        return;
    }

    let doc = Json::obj([
        ("bench", Json::Static("ffb-codec")),
        ("meta", diogenes_bench::bench_meta(1, "synthetic")),
        ("iterations", Json::Int(ITERS as i128)),
        ("scenarios", Json::Arr(rows.iter().map(Measurement::to_json).collect())),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_codec.json";
    std::fs::write(path, doc.to_string_pretty()).expect("write results");
    eprintln!("bench_codec: wrote {path}");
}
