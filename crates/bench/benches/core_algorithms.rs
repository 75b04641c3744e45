//! Criterion benches for the analysis-side algorithms: the Fig. 5
//! estimator, the carry-forward sequence evaluator, groupings, content
//! digests, and stack signatures. These bound the cost of stage 5 as
//! trace sizes grow.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ffm_core::{
    carry_forward, expected_benefit, BenefitOptions, ExecGraph, GroupScratch, NType, Node,
    OpInstance, Problem,
};
use gpu_sim::{Frame, SourceLoc, StackTrace};
use instrument::Digest;

/// A synthetic loop-shaped graph: `iters` repetitions of
/// [CWait(problem), CWork, CLaunch(transfer dup), CWait(necessary)].
fn loop_graph(iters: usize) -> ExecGraph {
    let mut nodes = Vec::with_capacity(iters * 4);
    let mut t = 0;
    for i in 0..iters {
        let mk = |ntype, dur: u64, problem, sig: u64, t: &mut u64, is_transfer| {
            let n = Node {
                ntype,
                stime: *t,
                duration: dur,
                problem,
                first_use_ns: None,
                call_seq: Some(i),
                instance: Some(OpInstance { sig, occ: i as u64 }),
                api: None,
                site: Some(SourceLoc::new("bench.cu", sig as u32)),
                is_transfer,
            };
            *t += dur;
            n
        };
        nodes.push(mk(NType::CWait, 120, Problem::UnnecessarySync, 1, &mut t, false));
        nodes.push(mk(NType::CWork, 100, Problem::None, 2, &mut t, false));
        nodes.push(mk(NType::CLaunch, 40, Problem::UnnecessaryTransfer, 3, &mut t, true));
        nodes.push(mk(NType::CWait, 30, Problem::None, 4, &mut t, false));
    }
    ExecGraph { nodes, exec_time_ns: t, baseline_exec_ns: t }
}

fn bench_expected_benefit(c: &mut Criterion) {
    let mut g = c.benchmark_group("expected_benefit");
    for iters in [100usize, 1_000, 10_000] {
        let graph = loop_graph(iters);
        g.bench_with_input(BenchmarkId::from_parameter(iters * 4), &graph, |b, graph| {
            b.iter(|| expected_benefit(black_box(graph), &BenefitOptions::default()))
        });
    }
    g.finish();
}

fn bench_carry_forward(c: &mut Criterion) {
    let graph = loop_graph(5_000);
    let prefix = graph.cpu_prefix();
    c.bench_function("carry_forward/20k_nodes", |b| {
        b.iter(|| carry_forward(black_box(&graph), &prefix, 0, graph.nodes.len(), |_| true))
    });
}

fn bench_grouping(c: &mut Criterion) {
    let graph = loop_graph(5_000);
    let benefit = expected_benefit(&graph, &BenefitOptions::default());
    let mut scratch = GroupScratch::new();
    c.bench_function("single_point_groups/10k_problems", |b| {
        b.iter(|| {
            scratch.begin();
            scratch
                .absorb(black_box(&benefit.per_node), |n| graph.nodes[n].instance.map(|i| i.sig));
            scratch.seal();
            scratch.len()
        })
    });
}

fn bench_digest(c: &mut Criterion) {
    let mut g = c.benchmark_group("digest");
    for size in [1usize << 10, 64 << 10, 1 << 20] {
        let payload = vec![0xA5u8; size];
        g.throughput(criterion::Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &payload, |b, p| {
            b.iter(|| Digest::of(black_box(p)))
        });
    }
    g.finish();
}

fn bench_stack_signatures(c: &mut Criterion) {
    let stack = StackTrace {
        frames: (0..12)
            .map(|i| {
                Frame::new(
                    "thrust::detail::contiguous_storage<float, alloc<float>>::allocate",
                    SourceLoc::new("solver.cu", i),
                )
            })
            .collect(),
    };
    c.bench_function("stack/address_signature/12_frames", |b| {
        b.iter(|| black_box(&stack).address_signature())
    });
    c.bench_function("stack/folded_signature/12_frames", |b| {
        b.iter(|| black_box(&stack).folded_signature())
    });
}

criterion_group!(
    benches,
    bench_expected_benefit,
    bench_carry_forward,
    bench_grouping,
    bench_digest,
    bench_stack_signatures
);
criterion_main!(benches);
