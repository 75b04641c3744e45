//! Timing and allocation harness for the stage 5 analysis core.
//!
//! Runs the grouping and expected-benefit hot paths over a large
//! synthetic execution graph twice: once with the reference shapes (the
//! clone-and-mutate Fig. 5 walk, `HashMap<String, _>` grouping with
//! per-node `format!` labels — the "before" baseline) and once with the
//! paths stage 5 runs (`expected_benefit`, the [`BenefitFold`] over a
//! CPU prefix column, and `GroupScratch` `begin`/`absorb`/`seal` dense
//! tables). Writes `results/BENCH_analysis.json` with per-pass wall
//! time, `ns_per_node`, and heap-allocation counts from a counting
//! global allocator local to this binary.
//!
//! `--smoke` runs a reduced graph and asserts instead of timing: after
//! one warmup pass, a reused `BenefitFold` (reset/extend/finalize) and
//! a reused `GroupScratch` must allocate nothing, and the fold must
//! match the reference per node. CI runs this mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cuda_driver::ApiFn;
use diogenes_bench::reference::expected_benefit_reference;
use ffm_core::{
    expected_benefit, BenefitFold, BenefitOptions, BenefitReport, ExecGraph, GroupScratch, Json,
    NType, Node, Problem,
};
use gpu_sim::{Ns, SourceLoc};

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
// Synthetic workload
// ---------------------------------------------------------------------------

/// A large classified graph with the statistics the analysis cares
/// about: a mix of problematic syncs/transfers and plain work, ~1000
/// distinct call sites so the grouping tables have realistic fan-in.
fn synthetic_graph(len: usize, seed: u64) -> ExecGraph {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let apis =
        [ApiFn::CudaFree, ApiFn::CudaMemcpy, ApiFn::CudaMalloc, ApiFn::CudaDeviceSynchronize];
    let nodes: Vec<Node> = (0..len)
        .map(|i| {
            let (ntype, problem) = match next() % 6 {
                0 => (NType::CWait, Problem::UnnecessarySync),
                1 => (NType::CWait, Problem::None),
                2 => (NType::CWait, Problem::MisplacedSync),
                3 => (NType::CLaunch, Problem::UnnecessaryTransfer),
                4 => (NType::CWork, Problem::None),
                _ => (NType::CWork, Problem::MisplacedSync),
            };
            let sig = next() % 1_000;
            Node {
                ntype,
                stime: 0,
                duration: 5 + next() % 50,
                problem,
                first_use_ns: Some(next() % 40),
                call_seq: None,
                instance: Some(ffm_core::OpInstance { sig, occ: i as u64 }),
                api: Some(apis[(next() % apis.len() as u64) as usize]),
                site: Some(SourceLoc::new("synthetic.cpp", (sig % 900) as u32 + 1)),
                is_transfer: problem == Problem::UnnecessaryTransfer,
            }
        })
        .collect();
    let exec = nodes.iter().map(|n| n.duration).sum();
    ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
}

// ---------------------------------------------------------------------------
// The "before" grouping: HashMap<String, _> keyed by composed labels
// ---------------------------------------------------------------------------

struct LegacyGroup {
    label: String,
    benefit_ns: Ns,
    nodes: Vec<usize>,
    sync_issues: usize,
    transfer_issues: usize,
}

fn legacy_site_label(graph: &ExecGraph, node: usize) -> String {
    let n = &graph.nodes[node];
    match (n.api, n.site) {
        (Some(api), Some(s)) => format!("{} in {} at line {}", api.name(), s.file, s.line),
        (Some(api), None) => api.name().to_string(),
        _ => "<unknown>".to_string(),
    }
}

/// The retired grouping shape: a `String`-keyed map, an insertion-order
/// log of cloned keys, a composed label per *node* (not per group), and
/// a stable sort through a merge buffer.
fn legacy_groups(
    graph: &ExecGraph,
    benefit: &BenefitReport,
    key: impl Fn(usize) -> Option<String>,
) -> Vec<LegacyGroup> {
    let mut map: HashMap<String, LegacyGroup> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for nb in &benefit.per_node {
        let Some(k) = key(nb.node) else { continue };
        if !map.contains_key(&k) {
            order.push(k.clone());
        }
        let e = map.entry(k).or_insert_with(|| LegacyGroup {
            label: legacy_site_label(graph, nb.node),
            benefit_ns: 0,
            nodes: Vec::new(),
            sync_issues: 0,
            transfer_issues: 0,
        });
        e.benefit_ns += nb.benefit_ns;
        e.nodes.push(nb.node);
        if nb.problem.is_sync() {
            e.sync_issues += 1;
        } else if nb.problem == Problem::UnnecessaryTransfer {
            e.transfer_issues += 1;
        }
    }
    let mut out: Vec<LegacyGroup> =
        order.into_iter().map(|k| map.remove(&k).expect("ordered key")).collect();
    out.sort_by_key(|g| std::cmp::Reverse(g.benefit_ns));
    out
}

/// One legacy pass over both groupings stage 5 runs (single-point and
/// per-API fold).
fn legacy_grouping_pass(graph: &ExecGraph, benefit: &BenefitReport) -> usize {
    let sp = legacy_groups(graph, benefit, |n| {
        graph.nodes[n].instance.map(|i| legacy_site_label(graph, n) + &i.sig.to_string())
    });
    let api = legacy_groups(graph, benefit, |n| {
        graph.nodes[n].api.map(|a| format!("Fold on {}", a.name()))
    });
    // Consume the labels so the compiler can't discard their construction.
    [&sp, &api].iter().flat_map(|v| v.iter()).map(|g| g.label.len() + g.nodes.len()).sum()
}

/// One pass over the same two groupings on reused scratch.
fn scratch_grouping_pass(
    scratch: &mut GroupScratch,
    graph: &ExecGraph,
    benefit: &BenefitReport,
) -> usize {
    let keys: [fn(&Node) -> Option<u64>; 2] =
        [|n| n.instance.map(|i| i.sig), |n| n.api.map(|a| a.index() as u64)];
    let mut total = 0;
    for key in keys {
        scratch.begin();
        scratch.absorb(&benefit.per_node, |i| key(&graph.nodes[i]));
        scratch.seal();
        total += scratch.len();
    }
    total
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

fn scenario(
    name: &str,
    n: usize,
    ref_s: f64,
    after_s: f64,
    ref_allocs: (u64, u64),
    after_allocs: (u64, u64),
) -> Json {
    eprintln!(
        "  {name:<22} reference {:>9.1} ns/node ({} allocs)  after {:>9.1} ns/node \
         ({} allocs)  speedup {:.2}x",
        ref_s * 1e9 / n as f64,
        ref_allocs.0,
        after_s * 1e9 / n as f64,
        after_allocs.0,
        ref_s / after_s
    );
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("reference_s", Json::Float(ref_s)),
        ("after_s", Json::Float(after_s)),
        ("reference_ns_per_node", Json::Float(ref_s * 1e9 / n as f64)),
        ("ns_per_node", Json::Float(after_s * 1e9 / n as f64)),
        ("speedup", Json::Float(ref_s / after_s)),
        ("reference_allocs", Json::Int(ref_allocs.0 as i128)),
        ("reference_alloc_bytes", Json::Int(ref_allocs.1 as i128)),
        ("allocs", Json::Int(after_allocs.0 as i128)),
        ("alloc_bytes", Json::Int(after_allocs.1 as i128)),
    ])
}

/// The steady-state allocation contract `--smoke` (and CI) asserts:
/// after a warmup pass, a reused fold and reused grouping scratch must
/// not touch the heap.
fn assert_zero_steady_state(graph: &ExecGraph) {
    let opts = BenefitOptions::default();
    let prefix = graph.cpu_prefix();
    let mut fold = BenefitFold::new();
    let run_fold = |fold: &mut BenefitFold| {
        fold.reset();
        fold.extend(graph, &prefix, &opts);
        fold.finalize(graph, &prefix, &opts);
        fold.total_ns()
    };
    let total = run_fold(&mut fold); // warmup sizes the buffers
    let (benefit_allocs, _) = count_allocs(|| {
        std::hint::black_box(run_fold(&mut fold));
    });
    assert_eq!(
        benefit_allocs, 0,
        "steady-state BenefitFold reset/extend/finalize must not allocate"
    );

    let benefit = expected_benefit(graph, &opts);
    assert_eq!(benefit.total_ns, total, "wrapper and reused fold agree");
    let mut scratch = GroupScratch::new();
    scratch_grouping_pass(&mut scratch, graph, &benefit); // warmup
    let (group_allocs, _) = count_allocs(|| {
        std::hint::black_box(scratch_grouping_pass(&mut scratch, graph, &benefit));
    });
    assert_eq!(group_allocs, 0, "steady-state grouping absorb must not allocate");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 20_000 } else { 200_000 };
    let graph = synthetic_graph(n, 0xd10_9e2e5);
    let opts = BenefitOptions::default();

    if smoke {
        assert_zero_steady_state(&graph);
        // The two implementations must agree before their speeds are
        // worth comparing.
        let reference = expected_benefit_reference(&graph, &opts);
        let fold = expected_benefit(&graph, &opts);
        assert_eq!(reference.total_ns, fold.total_ns, "smoke: benefit totals diverge");
        assert_eq!(reference.per_node, fold.per_node, "smoke: per-node benefits diverge");
        eprintln!("bench_analysis --smoke: ok ({n} nodes, zero steady-state allocations)");
        return;
    }

    eprintln!("bench_analysis: {n}-node synthetic graph, {ITERS} iterations per scenario");
    assert_zero_steady_state(&graph);
    let mut scenarios = Vec::new();

    // 1. Expected benefit (Fig. 5): the clone-and-mutate reference walk
    //    vs the fold (one CPU prefix column + `BenefitFold` per call).
    let ref_s = time_median(|| {
        std::hint::black_box(expected_benefit_reference(&graph, &opts));
    });
    let after_s = time_median(|| {
        std::hint::black_box(expected_benefit(&graph, &opts));
    });
    let ref_allocs = count_allocs(|| {
        std::hint::black_box(expected_benefit_reference(&graph, &opts));
    });
    let after_allocs = count_allocs(|| {
        std::hint::black_box(expected_benefit(&graph, &opts));
    });
    scenarios.push(scenario("expected_benefit", n, ref_s, after_s, ref_allocs, after_allocs));

    // 2. Grouping: both passes, String-keyed maps vs dense tables
    //    on reused scratch.
    let benefit = expected_benefit(&graph, &opts);
    let ref_s = time_median(|| {
        std::hint::black_box(legacy_grouping_pass(&graph, &benefit));
    });
    let mut scratch = GroupScratch::new();
    let after_s = time_median(|| {
        std::hint::black_box(scratch_grouping_pass(&mut scratch, &graph, &benefit));
    });
    let ref_allocs = count_allocs(|| {
        std::hint::black_box(legacy_grouping_pass(&graph, &benefit));
    });
    let after_allocs = count_allocs(|| {
        std::hint::black_box(scratch_grouping_pass(&mut scratch, &graph, &benefit));
    });
    scenarios.push(scenario("grouping_2pass", n, ref_s, after_s, ref_allocs, after_allocs));

    let doc = Json::obj([
        ("bench", Json::Str("stage5-analysis-core".to_string())),
        ("meta", diogenes_bench::bench_meta(1, "synthetic")),
        ("nodes", Json::Int(n as i128)),
        ("iterations", Json::Int(ITERS as i128)),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_analysis.json";
    std::fs::write(path, doc.to_string_pretty()).expect("write results");
    eprintln!("bench_analysis: wrote {path}");
}
