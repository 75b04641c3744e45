//! Wall-clock timing harness for the parallel FFM execution layer.
//!
//! Times the same work at `jobs = 1` (the classic sequential path) and
//! `jobs = auto` (the concurrent stage DAG plus the parallel app fleet)
//! and writes `results/BENCH_pipeline.json`. No statistics framework:
//! each scenario is a warmup run followed by a fixed number of timed
//! iterations, reporting the median.
//!
//! The emitted document records the machine's core count. On a 1-core
//! machine the parallel numbers are expected to be a few percent *worse*
//! than sequential (thread setup with nothing to overlap); the speedup
//! acceptance claim only applies at >= 4 cores.
//!
//! The `cuibm_paper` scenario times the whole pipeline on cuIBM at paper
//! scale (24,302 traced calls) and the wall time per traced call of
//! stages 2 and 4 at paper and at test scale. Per-call cost must not
//! grow with trace length: `--smoke` measures only that ratio, asserts
//! it stays within [`MAX_PER_CALL_SCALING`] for both stages, and writes
//! nothing (a full run records the ratio without asserting, so it can
//! also measure a build that fails the gate). A `baseline` block already in the results file (the same
//! scenario measured by this binary on an earlier commit, with that
//! commit's `meta`) is carried over when the file is regenerated.

use std::time::Instant;

use diogenes::build_app;
use diogenes::experiments::{paper_subjects, table1_rows};
use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::stages::{run_stage1, run_stage2, run_stage3_sync, run_stage4};
use ffm_core::{effective_jobs, run_ffm, FfmConfig, Json};
use gpu_sim::{CostModel, Digest};

const ITERS: usize = 5;
/// Timed iterations of the cuIBM paper-scale scenario.
const CUIBM_ITERS: usize = 3;
/// Largest allowed ratio of paper-scale to test-scale wall time per
/// traced call, for stages 2 and 4.
const MAX_PER_CALL_SCALING: f64 = 4.0;
const RESULTS: &str = "results/BENCH_pipeline.json";

/// Run `f` once to warm up, then `ITERS` timed iterations; seconds, median.
fn time_median(f: impl FnMut()) -> f64 {
    time_median_n(ITERS, f)
}

/// [`time_median`] with `iters` timed iterations.
fn time_median_n(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn scenario(name: &str, seq_s: f64, par_s: f64, jobs: usize) -> Json {
    eprintln!(
        "  {name:<28} sequential {seq_s:.4}s  parallel({jobs}) {par_s:.4}s  speedup {:.2}x",
        seq_s / par_s
    );
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("sequential_s", Json::Float(seq_s)),
        ("parallel_s", Json::Float(par_s)),
        ("parallel_jobs", Json::Int(jobs as i128)),
        ("speedup", Json::Float(seq_s / par_s)),
    ])
}

/// Median wall time per traced call of stages 2 and 4 of cuIBM at one
/// scale, in microseconds, and the number of traced calls.
fn cuibm_stage_us_per_call(paper: bool) -> (f64, f64, usize) {
    let app = build_app("cuibm", paper).expect("cuibm is a known app");
    let cfg = FfmConfig::default();
    let (cost, driver) = (&cfg.cost, &cfg.driver);
    let s1 = run_stage1(app.as_ref(), cost, driver).expect("stage 1 runs");
    let s3a = run_stage3_sync(app.as_ref(), cost, driver, &s1).expect("stage 3a runs");
    let calls = run_stage2(app.as_ref(), cost, driver, &s1).expect("stage 2 runs").calls.len();
    let stage2 = time_median_n(CUIBM_ITERS, || {
        std::hint::black_box(run_stage2(app.as_ref(), cost, driver, &s1).expect("stage 2 runs"));
    });
    let stage4 = time_median_n(CUIBM_ITERS, || {
        std::hint::black_box(
            run_stage4(app.as_ref(), cost, driver, &s1, &s3a).expect("stage 4 runs"),
        );
    });
    let per_call = |s: f64| s * 1e6 / calls.max(1) as f64;
    (per_call(stage2), per_call(stage4), calls)
}

/// The `cuibm_paper` stage-scaling measurements, including the
/// paper-to-test ratios of per-call cost for stages 2 and 4
/// (`stage{2,4}_per_call_scaling`).
fn cuibm_stage_scaling() -> Vec<(&'static str, Json)> {
    let (paper2, paper4, calls) = cuibm_stage_us_per_call(true);
    let (test2, test4, test_calls) = cuibm_stage_us_per_call(false);
    let (scale2, scale4) = (paper2 / test2, paper4 / test4);
    eprintln!(
        "  cuibm stage2 per call        paper {paper2:.2}us ({calls} calls)  \
         test {test2:.2}us ({test_calls} calls)  scaling {scale2:.2}x"
    );
    eprintln!(
        "  cuibm stage4 per call        paper {paper4:.2}us  test {test4:.2}us  scaling {scale4:.2}x"
    );
    vec![
        ("traced_calls", Json::Int(calls as i128)),
        ("test_traced_calls", Json::Int(test_calls as i128)),
        ("stage2_us_per_call", Json::Float(paper2)),
        ("stage4_us_per_call", Json::Float(paper4)),
        ("test_stage2_us_per_call", Json::Float(test2)),
        ("test_stage4_us_per_call", Json::Float(test4)),
        ("stage2_per_call_scaling", Json::Float(scale2)),
        ("stage4_per_call_scaling", Json::Float(scale4)),
    ]
}

/// The `baseline` block of the results file already on disk, if any.
fn existing_baseline() -> Json {
    std::fs::read_to_string(RESULTS)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("baseline").cloned())
        .unwrap_or(Json::Null)
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        eprintln!("bench_pipeline --smoke: cuIBM stage 2/4 wall time per traced call");
        let row = cuibm_stage_scaling();
        for key in ["stage2_per_call_scaling", "stage4_per_call_scaling"] {
            let scaling = row
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.as_f64())
                .expect("the scaling row carries both ratios");
            assert!(
                scaling <= MAX_PER_CALL_SCALING,
                "{key} = {scaling:.1}x: wall time per traced call grows from test to paper \
                 scale (limit {MAX_PER_CALL_SCALING}x), so per-call cost depends on trace length"
            );
        }
        eprintln!(
            "bench_pipeline --smoke: ok (per-call cost within {MAX_PER_CALL_SCALING}x of test scale)"
        );
        return;
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Force at least 2 jobs so the concurrent code path runs even on a
    // 1-core machine (where it can only lose — that loss is the honest
    // number to record).
    let jobs = effective_jobs(0).max(2);
    eprintln!(
        "bench_pipeline: {cores} cores, parallel jobs = {jobs}, {ITERS} iterations per scenario"
    );

    let mut scenarios = Vec::new();

    // 1. Stage-level: one full five-stage pipeline on a single app. The
    //    concurrent DAG overlaps stage 2, memory tracing and data
    //    hashing, and starts stage 4 as soon as the sync trace lands.
    let app = CumfAls::new(AlsConfig::test_scale());
    let run = |jobs: usize| {
        run_ffm(&app, &FfmConfig::default().with_jobs(jobs)).expect("pipeline runs");
    };
    let seq = time_median(|| run(1));
    let par = time_median(|| run(jobs));
    scenarios.push(scenario("stage_dag_single_app", seq, par, jobs));

    // 2. Fleet-level: Table 1 regeneration — the five-stage pipeline
    //    plus a fixed-build baseline for every evaluation application,
    //    fanned out with par_map.
    let cost = CostModel::pascal_like();
    let fleet = |jobs: usize| {
        table1_rows(paper_subjects(false), &cost, jobs).expect("pipeline runs");
    };
    let seq = time_median(|| fleet(1));
    let par = time_median(|| fleet(jobs));
    scenarios.push(scenario("fleet_table1_regeneration", seq, par, jobs));

    // 3. Data-level: digest throughput over a transfer-sized buffer
    //    (word-wise FNV vs. the former byte-at-a-time loop; the old code
    //    is gone, so this records absolute rate, not a ratio).
    let buf: Vec<u8> = (0..8 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let digest_s = time_median(|| {
        std::hint::black_box(Digest::of(std::hint::black_box(&buf)));
    });
    let rate = buf.len() as f64 / digest_s / 1e9;
    eprintln!("  digest_8MiB                  {digest_s:.4}s  ({rate:.2} GB/s)");
    scenarios.push(Json::obj([
        ("name", Json::Str("digest_8MiB".to_string())),
        ("elapsed_s", Json::Float(digest_s)),
        ("throughput_gb_s", Json::Float(rate)),
    ]));

    // 4. cuIBM at paper scale: the whole pipeline, sequential and
    //    parallel, plus the per-call cost of the two tracing stages.
    let app = build_app("cuibm", true).expect("cuibm is a known app");
    let run = |jobs: usize| {
        run_ffm(app.as_ref(), &FfmConfig::default().with_jobs(jobs)).expect("pipeline runs");
    };
    let seq = time_median_n(CUIBM_ITERS, || run(1));
    let par = time_median_n(CUIBM_ITERS, || run(jobs));
    let Json::Obj(mut row) = scenario("cuibm_paper", seq, par, jobs) else {
        unreachable!("scenario rows are objects")
    };
    row.extend(cuibm_stage_scaling().into_iter().map(|(k, v)| (k.to_string(), v)));
    row.push(("iterations".to_string(), Json::Int(CUIBM_ITERS as i128)));
    scenarios.push(Json::Obj(row));

    let doc = Json::obj([
        ("bench", Json::Str("pipeline-parallelism".to_string())),
        ("meta", diogenes_bench::bench_meta(jobs, "pascal_like")),
        ("cores", Json::Int(cores as i128)),
        ("parallel_jobs", Json::Int(jobs as i128)),
        ("iterations", Json::Int(ITERS as i128)),
        ("scenarios", Json::Arr(scenarios)),
        ("baseline", existing_baseline()),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(RESULTS, doc.to_string_pretty()).expect("write results");
    eprintln!("bench_pipeline: wrote {RESULTS}");
}
