//! The `run` workloads (`cuibm_paper`, `als_paper`) and the traced layer
//! walk every workload's traced run is built on.
//!
//! Untraced, a workload repeats the CLI's `diogenes <app> --scale paper
//! --jobs 2 --json` path in-process (pipeline, sequence families, report
//! export) for the measured window. Traced, it calls each public layer
//! entry point in sequence under a span: a bare `app.run`, discovery,
//! stages 1-4, the stage 3 merge, the analysis, the report export and
//! the stage 2 artifact codec, at paper and at test scale.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use cuda_driver::{uninstrumented_exec_time, Cuda, GpuApp};
use diogenes::experiments::paper_subjects;
use diogenes::{build_app, run_diogenes, write_doc, DiogenesConfig, OutFormat};
use ffm_core::stages::{
    merge_stage3, run_stage1, run_stage2, run_stage3_hash, run_stage3_sync, run_stage4,
};
use ffm_core::{
    analyze, decode_artifact, encode_artifact, overhead_factor, report_to_json, run_ffm_with_store,
    Artifact, ArtifactKind, ArtifactStore, FfmConfig, FfmReport, Json, Pool, Stage4Result,
    StageStats,
};
use instrument::identify_sync_function;

use crate::serve_mix::{self, Plan, Spec};
use crate::stats::{median, peak_rss_mib, percentile};
use crate::trace::{Span, Tracer};
use crate::{alloc, Ctx, Outcome};

/// Worker threads of the measured pipeline (`--jobs 2`).
pub const JOBS: usize = 2;
/// Fresh processes timed per run for `setup_s`.
pub const SETUP_SAMPLES: usize = 21;
/// Poll interval of the small serve session in a `run` workload's traced
/// run, whose single job takes seconds.
const RUN_SESSION_POLL_MS: u64 = 20;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Export a report the way `diogenes <app> --json <path>` does.
pub fn export(report: &FfmReport, path: &Path) -> Result<(), String> {
    write_doc(&path.to_string_lossy(), &report_to_json(report), OutFormat::Json)
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(err(&path.display().to_string()))
}

/// Child-process body of one `setup_s` sample: what a fresh `diogenes`
/// process does before its first stage can start.
pub fn setup_probe(app: &str, paper: bool) -> Result<(), String> {
    let app = build_app(app, paper).ok_or_else(|| format!("unknown app {app:?}"))?;
    let workers = Pool::global().workers();
    // The first FFB encode pays the lazy build-tag digest of the binary.
    let probe = encode_artifact(&Artifact::Stage4(Arc::new(Stage4Result::default())));
    std::hint::black_box((app.workload(), workers, probe));
    println!("ready");
    Ok(())
}

/// Time `SETUP_SAMPLES` fresh setup processes, spawn to "ready".
fn setup_samples(app: &str, paper: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(err("locating the benchmark binary"))?;
    let scale = if paper { "paper" } else { "test" };
    let mut samples = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", app, scale])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(err("spawning a setup probe"))?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        let ready = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(err("waiting for a setup probe"))?;
        if read.is_err() || line.trim() != "ready" || !status.success() {
            return Err(format!("setup probe failed ({status})"));
        }
        samples.push(ready);
    }
    Ok(samples)
}

/// Diogenes' estimate and the fixed build's realized saving for an app's
/// Table 1 subject, in virtual ns; `None` for apps without a subject.
pub fn estimate_vs_actual(report: &FfmReport, paper: bool) -> Result<Option<(u64, u64)>, String> {
    let Some(subject) =
        paper_subjects(paper).into_iter().find(|s| s.broken.name() == report.app_name)
    else {
        return Ok(None);
    };
    let estimated: u64 = report
        .analysis
        .by_api
        .iter()
        .filter(|(api, _)| subject.fix_targets.contains(api))
        .map(|(_, ns)| *ns)
        .sum();
    let cost = FfmConfig::default().cost;
    let broken = uninstrumented_exec_time(subject.broken.as_ref(), cost.clone())
        .map_err(err("broken build"))?;
    let fixed =
        uninstrumented_exec_time(subject.fixed.as_ref(), cost).map_err(err("fixed build"))?;
    Ok(Some((estimated, broken.saturating_sub(fixed))))
}

/// `100 * sum |estimate - actual| / sum actual` over some subjects.
pub fn estimate_error_pct(pairs: &[(u64, u64)]) -> f64 {
    let gap: f64 = pairs.iter().map(|&(e, a)| (e as f64 - a as f64).abs()).sum();
    let actual: f64 = pairs.iter().map(|&(_, a)| a as f64).sum();
    100.0 * gap / actual
}

/// Untraced run of `cuibm_paper` / `als_paper`.
pub fn run_untraced(ctx: &Ctx, app_name: &str, out: &mut Outcome) -> Result<(), String> {
    let setup = setup_samples(app_name, true)?;
    let app = build_app(app_name, true).ok_or("unknown app")?;
    let path = ctx.out.join(format!("{}-report.json", ctx.workload));

    let mut walls = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let mut last = None;
    let t_start = Instant::now();
    // Start another run only while it should still end inside the window.
    while walls.is_empty() || t_start.elapsed().as_secs_f64() + median(&walls) <= ctx.seconds {
        let t0 = Instant::now();
        let result = run_diogenes(app.as_ref(), DiogenesConfig::new().with_jobs(JOBS))
            .map_err(err("pipeline"))?;
        export(&result.report, &path)?;
        walls.push(t0.elapsed().as_secs_f64());
        let bytes = read(&path)?;
        match &reference {
            None => {
                out.check(true, "");
                reference = Some(bytes);
            }
            Some(r) => out.check(&bytes == r, "report differs between repeated --jobs 2 runs"),
        }
        last = Some(result.report);
    }
    let report = last.expect("at least one sample");
    let reference = reference.expect("at least one sample");
    let peak = peak_rss_mib(None).ok_or("cannot read VmHWM")?;

    // Correctness: the sequential schedule exports the same bytes.
    let seq =
        run_diogenes(app.as_ref(), DiogenesConfig::new().with_jobs(1)).map_err(err("pipeline"))?;
    export(&seq.report, &path)?;
    out.check(read(&path)? == reference, "report differs between --jobs 1 and --jobs 2");

    let pair = estimate_vs_actual(&report, true)?.ok_or("app has no Table 1 subject")?;
    let n = walls.len();
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("run_wall_s", median(&walls), "s", n);
    out.metric("job_latency_p50_s", median(&walls), "s", n);
    out.metric("job_latency_p95_s", percentile(&walls, 0.95), "s", n);
    out.metric("jobs_per_s", n as f64 / walls.iter().sum::<f64>(), "1/s", n);
    out.metric("peak_rss_mb", peak, "MiB", 1);
    out.metric("collection_overhead_x", report.collection_overhead_factor(), "x", 1);
    out.metric("estimate_error_pct", estimate_error_pct(&[pair]), "%", 1);
    out.meta("jobs", Json::Int(JOBS as i128));
    out.meta("run_samples", Json::Int(n as i128));
    out.meta("setup_samples", Json::Int(setup.len() as i128));
    out.detail("run_walls_s", Json::arr(walls.iter().map(|&w| Json::Float(w))));
    out.detail(
        "estimate_vs_actual_ns",
        Json::arr([Json::Int(pair.0 as i128), Json::Int(pair.1 as i128)]),
    );
    Ok(())
}

/// One traced walk through the layers for one app.
pub struct Walk {
    pub root: usize,
    calls: Vec<(&'static str, usize)>,
    pub stage2_calls: usize,
    pub timeline_events: usize,
    pub dev_allocs: u64,
    pub problems: usize,
    pub stage2_bytes: usize,
    pub report_bytes: Vec<u8>,
}

impl Walk {
    fn span<'a>(&self, t: &'a Tracer, name: &str) -> &'a Span {
        let idx = self.calls.iter().find(|(n, _)| *n == name).expect("walk records every call").1;
        &t.spans[idx]
    }
}

/// Run `f` under a span named `name` and remember the span as `name`.
fn call<R>(
    t: &mut Tracer,
    calls: &mut Vec<(&'static str, usize)>,
    name: &'static str,
    f: impl FnOnce() -> Result<R, String>,
) -> Result<R, String> {
    let (r, idx) = t.span(name, |_| f());
    calls.push((name, idx));
    r
}

/// Call every public layer entry point of the pipeline once, in the
/// sequential stage order, each under its own span, and export the
/// report to `path`. The report bytes equal an untraced `--jobs 1` run's.
pub fn walk(t: &mut Tracer, app: &dyn GpuApp, label: &str, path: &Path) -> Result<Walk, String> {
    let cfg = FfmConfig::default().with_jobs(1);
    let (cost, driver) = (&cfg.cost, &cfg.driver);
    let mut calls = Vec::new();
    let c = &mut calls;
    let (res, root) = t.span(&format!("walk {} {label}", app.name()), |t| {
        let (events, dev_allocs) = call(t, c, "gpu-sim.bare_run", || {
            let mut cuda = Cuda::with_config(cost.clone(), driver.clone());
            app.run(&mut cuda).map_err(err("bare run"))?;
            Ok((cuda.machine.timeline.events().len(), cuda.machine.dev.total_allocs()))
        })?;
        let discovery = call(t, c, "instrument.identify_sync_function", || {
            identify_sync_function(cost.clone()).map_err(err("discovery"))
        })?;
        let s1 = call(t, c, "stages.run_stage1", || {
            run_stage1(app, cost, driver).map_err(err("stage 1"))
        })?;
        let s2 = call(t, c, "stages.run_stage2", || {
            run_stage2(app, cost, driver, &s1).map_err(err("stage 2"))
        })?;
        let s3a = call(t, c, "stages.run_stage3_sync", || {
            run_stage3_sync(app, cost, driver, &s1).map_err(err("stage 3a"))
        })?;
        let s3b = call(t, c, "stages.run_stage3_hash", || {
            run_stage3_hash(app, cost, driver, &s1).map_err(err("stage 3b"))
        })?;
        let s3 = call(t, c, "stages.merge_stage3", || Ok(merge_stage3(s3a.clone(), s3b)))?;
        let s4 = call(t, c, "stages.run_stage4", || {
            run_stage4(app, cost, driver, &s1, &s3a).map_err(err("stage 4"))
        })?;
        let analysis =
            call(t, c, "analysis.analyze", || Ok(analyze(&s1, &s2, &s3, &s4, &cfg.analysis, 1)))?;
        let report = assemble(app, discovery, s1, s2, s3, s4, analysis);
        let doc = call(t, c, "export.report_to_json", || Ok(report_to_json(&report)))?;
        call(t, c, "export.write", || write_doc(&path.to_string_lossy(), &doc, OutFormat::Json))?;
        let artifact = Artifact::Stage2(report.stage2.clone());
        let encoded = call(t, c, "codec.encode_artifact", || {
            encode_artifact(&artifact).ok_or_else(|| "stage 2 has no FFB encoding".to_string())
        })?;
        call(t, c, "codec.decode_artifact", || {
            match decode_artifact(&encoded, ArtifactKind::Stage2)? {
                Artifact::Stage2(s) if s.calls.len() == report.stage2.calls.len() => Ok(()),
                _ => Err("stage 2 artifact did not round-trip".to_string()),
            }
        })?;
        Ok::<_, String>((report, events, dev_allocs, encoded.len()))
    });
    let (report, timeline_events, dev_allocs, stage2_bytes) = res?;
    Ok(Walk {
        root,
        calls,
        stage2_calls: report.stage2.calls.len(),
        timeline_events,
        dev_allocs,
        problems: report.analysis.problems.len(),
        stage2_bytes,
        report_bytes: read(path)?,
    })
}

/// The report `run_ffm` assembles from the stage outputs (the pipeline
/// keeps that step private, so the walk repeats it).
fn assemble(
    app: &dyn GpuApp,
    discovery: instrument::Discovery,
    s1: ffm_core::Stage1Result,
    s2: ffm_core::Stage2Result,
    s3: ffm_core::Stage3Result,
    s4: ffm_core::Stage4Result,
    analysis: ffm_core::Analysis,
) -> FfmReport {
    let base = s1.exec_time_ns;
    let stages: Vec<StageStats> = [
        ("stage1-baseline", s1.exec_time_ns),
        ("stage2-detailed-tracing", s2.exec_time_ns),
        ("stage3a-memory-tracing", s3.exec_time_sync_ns),
        ("stage3b-data-hashing", s3.exec_time_hash_ns),
        ("stage4-sync-use", s4.exec_time_ns),
    ]
    .into_iter()
    .map(|(name, exec_ns)| StageStats {
        name,
        exec_ns,
        overhead_factor: overhead_factor(exec_ns, base),
    })
    .collect();
    let collection_total_ns = stages.iter().map(|s| s.exec_ns).sum();
    FfmReport {
        app_name: app.name(),
        workload: app.workload(),
        discovery: Arc::new(discovery),
        stage1: Arc::new(s1),
        stage2: Arc::new(s2),
        stage3: Arc::new(s3),
        stage4: Arc::new(s4),
        analysis: Arc::new(analysis),
        stages,
        collection_total_ns,
    }
}

/// Stage name in metric names, and the span of the call that runs it.
const STAGES: [(&str, &str); 6] = [
    ("discovery", "instrument.identify_sync_function"),
    ("stage1", "stages.run_stage1"),
    ("stage2", "stages.run_stage2"),
    ("stage3a", "stages.run_stage3_sync"),
    ("stage3b", "stages.run_stage3_hash"),
    ("stage4", "stages.run_stage4"),
];

/// Per-layer metrics summed over the walks of one traced run. `paper`
/// walks are at the workload's own scale, `test` walks the same apps at
/// test scale; `untraced_s` is the wall time of untraced `--jobs 1` runs
/// of the `paper` apps.
pub fn layer_metrics(
    t: &Tracer,
    paper: &[Walk],
    test: &[Walk],
    untraced_s: f64,
    out: &mut Outcome,
) {
    let ms = |walks: &[Walk], name: &str| walks.iter().map(|w| w.span(t, name).ms()).sum::<f64>();
    let mib = |name: &str| paper.iter().map(|w| w.span(t, name).alloc_mib()).sum::<f64>();
    let n = paper.len();
    let bare = ms(paper, "gpu-sim.bare_run");
    let events: usize = paper.iter().map(|w| w.timeline_events).sum();
    out.metric("gpu-sim.bare_run_ms", bare, "ms", n);
    out.metric("gpu-sim.alloc_mb", mib("gpu-sim.bare_run"), "MiB", n);
    out.metric("gpu-sim.ns_per_event", bare * 1e6 / events.max(1) as f64, "ns", n);
    out.metric("gpu-sim.timeline_events", events as f64, "count", n);
    out.metric(
        "gpu-sim.dev_allocs",
        paper.iter().map(|w| w.dev_allocs).sum::<u64>() as f64,
        "count",
        n,
    );
    for (stage, span) in STAGES {
        let stage_ms = ms(paper, span);
        // Discovery runs its own probe program, not the app.
        let excess = if stage == "discovery" { stage_ms } else { stage_ms - bare };
        out.metric_owned(format!("stages.{stage}_ms"), stage_ms, "ms", n);
        out.metric_owned(format!("stages.{stage}_alloc_mb"), mib(span), "MiB", n);
        out.metric_owned(format!("stages.{stage}_excess_ms"), excess, "ms", n);
    }
    let calls = |walks: &[Walk]| walks.iter().map(|w| w.stage2_calls).sum::<usize>().max(1) as f64;
    let per_call = |walks: &[Walk], span| ms(walks, span) * 1e3 / calls(walks);
    out.metric("stages.stage2_traced_calls", calls(paper), "count", n);
    out.metric("stages.stage2_us_per_call", per_call(paper, "stages.run_stage2"), "us", n);
    out.metric("stages.stage4_us_per_call", per_call(paper, "stages.run_stage4"), "us", n);
    out.metric(
        "stages.stage2_per_call_scaling",
        per_call(paper, "stages.run_stage2") / per_call(test, "stages.run_stage2"),
        "x",
        n + test.len(),
    );
    out.metric("analysis.analyze_ms", ms(paper, "analysis.analyze"), "ms", n);
    out.metric("analysis.alloc_mb", mib("analysis.analyze"), "MiB", n);
    out.metric(
        "analysis.problems",
        paper.iter().map(|w| w.problems).sum::<usize>() as f64,
        "count",
        n,
    );
    out.metric("codec.stage2_encode_ms", ms(paper, "codec.encode_artifact"), "ms", n);
    out.metric("codec.stage2_decode_ms", ms(paper, "codec.decode_artifact"), "ms", n);
    out.metric(
        "codec.stage2_bytes",
        paper.iter().map(|w| w.stage2_bytes).sum::<usize>() as f64,
        "bytes",
        n,
    );
    out.metric(
        "export.report_json_ms",
        ms(paper, "export.report_to_json") + ms(paper, "export.write"),
        "ms",
        n,
    );
    out.metric(
        "export.report_bytes",
        paper.iter().map(|w| w.report_bytes.len()).sum::<usize>() as f64,
        "bytes",
        n,
    );
    // Accounting: how much of the traced wall time the layer spans
    // cover, and what tracing cost over the untraced sequential run
    // (calls the pipeline does not make are taken out first).
    let roots: f64 = paper.iter().map(|w| t.spans[w.root].ms()).sum();
    let covered: f64 = paper.iter().map(|w| t.coverage(w.root) * t.spans[w.root].ms()).sum();
    let extra = bare + ms(paper, "codec.encode_artifact") + ms(paper, "codec.decode_artifact");
    out.metric("trace.span_coverage", covered / roots, "ratio", n);
    out.metric("trace.overhead_ms", roots - extra - untraced_s * 1e3, "ms", n);
    out.metric("trace.traced_wall_ms", roots, "ms", n);
    out.metric("trace.untraced_wall_ms", untraced_s * 1e3, "ms", n);
}

/// Untraced sequential run used for the tracing-overhead baseline and as
/// the correctness reference; it also fills `store`. Returns the
/// exported bytes and the wall time.
pub fn untraced_sequential(
    app: &dyn GpuApp,
    store: &ArtifactStore,
    path: &Path,
) -> Result<(Vec<u8>, f64), String> {
    let t0 = Instant::now();
    let report = run_ffm_with_store(app, &FfmConfig::default().with_jobs(1), Some(store))
        .map_err(err("pipeline"))?;
    export(&report, path)?;
    let wall = t0.elapsed().as_secs_f64();
    Ok((read(path)?, wall))
}

/// Traced run of `cuibm_paper` / `als_paper`.
pub fn run_traced(ctx: &Ctx, app_name: &str, out: &mut Outcome) -> Result<(), String> {
    let paper = build_app(app_name, true).ok_or("unknown app")?;
    let test = build_app(app_name, false).ok_or("unknown app")?;
    let path = ctx.out.join(format!("{}-report.json", ctx.workload));
    let mut t = Tracer::new(Instant::now(), 0);

    // Lazy set-up (the build-tag digest of the first FFB encode) is
    // measured by `setup_s`, not inside the codec spans.
    ffm_core::build_tag();
    alloc::set_counting(true);
    let wp = walk(&mut t, paper.as_ref(), "paper", &path)?;
    let wt = walk(&mut t, test.as_ref(), "test", &path)?;
    alloc::set_counting(false);

    let store = ArtifactStore::in_memory();
    let (bytes, untraced_s) = untraced_sequential(paper.as_ref(), &store, &path)?;
    out.check(bytes == wp.report_bytes, "traced report differs from the untraced --jobs 1 report");
    let (test_bytes, _) = untraced_sequential(test.as_ref(), &ArtifactStore::in_memory(), &path)?;
    out.check(test_bytes == wt.report_bytes, "traced test-scale report differs from untraced");
    layer_metrics(&t, &[wp], &[wt], untraced_s, out);

    // The same app through `diogenes serve`: the run, an exact repeat
    // (attaches to the finished job), and a two-cell analysis sweep
    // whose cells reuse the run's stage 1-4 artifacts from the store.
    let run = Spec::Run { app: app_name.to_string(), paper: true, jobs: Some(1), stream: None };
    let sweep = Spec::Sweep {
        app: app_name.to_string(),
        paper: true,
        jobs: Some(1),
        axes: vec![("analysis.misplaced_threshold_ns".to_string(), vec![2_000, 8_000])],
    };
    let plans = vec![
        Plan { spec: run.clone(), family: "run", repeat_of: None },
        Plan { spec: run.clone(), family: "repeat", repeat_of: Some(0) },
        Plan { spec: sweep, family: "analysis", repeat_of: None },
    ];
    let mut known = serve_mix::Expected::default();
    known.insert(&run, &bytes, untraced_s);
    let session = serve_mix::Session::run(ctx, &plans, 1, 1, None, RUN_SESSION_POLL_MS, true)?;
    let replay = serve_mix::verify(&plans, &session.served, &mut known, &store, out)?;
    session.metrics(&plans, &replay, out);
    for tr in session.tracers {
        t.absorb(tr);
    }
    out.meta("poll_interval_ms", Json::Int(RUN_SESSION_POLL_MS as i128));
    out.meta("jobs", Json::Int(1));
    out.detail("spans", t.to_json());
    Ok(())
}
