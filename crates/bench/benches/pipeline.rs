//! Criterion benches over the measurement pipeline itself — one per
//! reproduced table/figure, each exercising the code path its regenerator
//! binary drives, at reduced scale so `cargo bench` stays fast.

use criterion::{criterion_group, criterion_main, Criterion};
use cuda_driver::{uninstrumented_exec_time, ApiFn, DriverConfig};
use diogenes::experiments::{cupti_sync_gap, table2_for};
use diogenes::{run_diogenes, DiogenesConfig};
use diogenes_apps::*;
use ffm_core::stages;
use gpu_sim::CostModel;

fn tiny_als() -> CumfAls {
    let mut cfg = AlsConfig::test_scale();
    cfg.iters = 3;
    CumfAls::new(cfg)
}

fn tiny_gaussian() -> Gaussian {
    let mut cfg = GaussianConfig::test_scale();
    cfg.n = 16;
    Gaussian::new(cfg)
}

/// Table 1 path: the full five-stage pipeline plus the fixed build.
fn bench_table1_path(c: &mut Criterion) {
    let cost = CostModel::pascal_like();
    c.bench_function("table1/pipeline_plus_fix/als_3iter", |b| {
        b.iter(|| {
            let broken = tiny_als();
            let r = run_diogenes(&broken, DiogenesConfig::new()).unwrap();
            let fixed = CumfAls::new(AlsConfig {
                fixes: AlsFixes::all(),
                iters: 3,
                ..AlsConfig::test_scale()
            });
            let t = uninstrumented_exec_time(&fixed, cost.clone()).unwrap();
            (r.report.analysis.total_benefit_ns(), t)
        })
    });
}

/// Table 2 path: three tools on one application.
fn bench_table2_path(c: &mut Criterion) {
    let cost = CostModel::pascal_like();
    c.bench_function("table2/three_tools/gaussian_n16", |b| {
        b.iter(|| table2_for(&tiny_gaussian(), &cost).unwrap())
    });
}

/// Figures 6/8 path: sequence + subsequence evaluation.
fn bench_figure6_8_path(c: &mut Criterion) {
    let r = run_diogenes(&tiny_als(), DiogenesConfig::new()).unwrap();
    let graph = r.graph();
    let prefix = graph.cpu_prefix();
    c.bench_function("figure6_8/sequence_family_merge_and_subsequence", |b| {
        b.iter(|| {
            let fams = diogenes::merge_sequences(&r.report.analysis);
            fams.first().map(|f| {
                diogenes::family_subsequence_benefit(&graph, &prefix, f, 1, f.entries.len())
            })
        })
    });
}

/// CUPTI-gap experiment path.
fn bench_cupti_gap_path(c: &mut Criterion) {
    let cost = CostModel::pascal_like();
    c.bench_function("cupti_gaps/als_3iter", |b| {
        b.iter(|| cupti_sync_gap(&tiny_als(), &cost).unwrap())
    });
}

/// Individual stages (the overhead figure's constituents).
fn bench_stages(c: &mut Criterion) {
    let cost = CostModel::pascal_like();
    let driver = DriverConfig::default();
    let app = tiny_als();
    let s1 = stages::run_stage1(&app, &cost, &driver).unwrap();
    c.bench_function("stages/stage1_baseline/als_3iter", |b| {
        b.iter(|| stages::run_stage1(&app, &cost, &driver).unwrap())
    });
    c.bench_function("stages/stage2_tracing/als_3iter", |b| {
        b.iter(|| stages::run_stage2(&app, &cost, &driver, &s1).unwrap())
    });
    c.bench_function("stages/stage3_mem_and_hash/als_3iter", |b| {
        b.iter(|| stages::run_stage3(&app, &cost, &driver, &s1).unwrap())
    });
    let s3 = stages::run_stage3(&app, &cost, &driver, &s1).unwrap();
    c.bench_function("stages/stage4_sync_use/als_3iter", |b| {
        b.iter(|| stages::run_stage4(&app, &cost, &driver, &s1, &s3).unwrap())
    });
    assert!(s1.sync_apis.contains_key(&ApiFn::CudaFree));
}

/// Discovery probe (figure 3's funnel identification).
fn bench_discovery(c: &mut Criterion) {
    c.bench_function("discovery/identify_sync_function", |b| {
        b.iter(|| instrument::identify_sync_function(CostModel::pascal_like()).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1_path, bench_table2_path, bench_figure6_8_path,
              bench_cupti_gap_path, bench_stages, bench_discovery
}
criterion_main!(benches);
