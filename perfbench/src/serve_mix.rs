//! The `serve_mix` workload: a fresh `diogenes serve` per run, driven in
//! a closed loop (submit, poll, fetch, then the next job) by up to two
//! keep-alive client connections over a seeded job list. Every served
//! document is checked afterwards against an in-process export of the
//! same spec.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use diogenes::build_app;
use ffm_core::{
    report_to_json, run_ffm, run_ffm_streaming_with_store, run_ffm_with_store,
    run_sweep_with_store, sweep_to_json, ArtifactStore, Axis, CacheMode, FfmConfig, Json,
};

use crate::client::{Conn, Daemon};
use crate::pipeline::{self, estimate_error_pct, estimate_vs_actual, Walk};
use crate::stats::{fnv64, median, peak_rss_mib, percentile, Rng};
use crate::trace::Tracer;
use crate::{alloc, Ctx, Outcome};

/// Client connections of the load generator: one per core of the
/// two-core machine the benchmark was tuned on.
pub const CLIENTS: usize = 2;
/// Poll interval while a job is pending.
pub const POLL_MS: u64 = 2;
/// Jobs generated per seed; a run uses as many as its window completes.
pub const PLANNED_JOBS: usize = 3_000;
/// `--jobs` and `--executors` of the daemon under test.
pub const DAEMON_JOBS: usize = 2;
pub const DAEMON_EXECUTORS: usize = 2;

/// The apps of the mix, with their scale (`true` = paper).
pub const MIX: [(&str, bool); 4] =
    [("amg", true), ("gaussian", true), ("pipelined", true), ("cuibm", false)];

/// One submission, as the daemon's `POST /run` and `POST /sweep` take it.
#[derive(Debug, Clone)]
pub enum Spec {
    /// `stream` is the `?stream=1` window, if streamed.
    Run {
        app: String,
        paper: bool,
        jobs: Option<usize>,
        stream: Option<usize>,
    },
    Sweep {
        app: String,
        paper: bool,
        jobs: Option<usize>,
        axes: Vec<(String, Vec<u64>)>,
    },
}

impl Spec {
    pub fn path(&self) -> &'static str {
        match self {
            Spec::Run { stream: None, .. } => "/run",
            Spec::Run { stream: Some(_), .. } => "/run?stream=1",
            Spec::Sweep { .. } => "/sweep",
        }
    }

    pub fn body(&self) -> Json {
        let (app, paper, jobs) = match self {
            Spec::Run { app, paper, jobs, .. } | Spec::Sweep { app, paper, jobs, .. } => {
                (app, paper, jobs)
            }
        };
        let mut fields = vec![
            ("app".to_string(), Json::Str(app.clone())),
            ("scale".to_string(), Json::Static(if *paper { "paper" } else { "test" })),
        ];
        if let Some(j) = jobs {
            fields.push(("jobs".to_string(), Json::Int(*j as i128)));
        }
        match self {
            Spec::Run { stream: Some(w), .. } => {
                fields.push(("stream_window".to_string(), Json::Int(*w as i128)));
            }
            Spec::Run { .. } => {}
            Spec::Sweep { axes, .. } => fields.push((
                "axes".to_string(),
                Json::arr(axes.iter().map(|(field, values)| {
                    Json::obj([
                        ("field", Json::Str(field.clone())),
                        ("values", Json::arr(values.iter().map(|&v| Json::Int(v as i128)))),
                    ])
                })),
            )),
        }
        Json::Obj(fields)
    }

    /// Identity of the submission (what the daemon dedupes on, plus jobs).
    pub fn key(&self) -> String {
        format!("{} {}", self.path(), self.body().to_string_compact())
    }

    /// Pipelines the job runs (sweep cells; 1 for a run).
    pub fn cells(&self) -> usize {
        match self {
            Spec::Run { .. } => 1,
            Spec::Sweep { axes, .. } => axes.iter().map(|(_, v)| v.len()).product(),
        }
    }

    /// Render the document the daemon serves for this spec, in-process,
    /// through the same library calls; returns the bytes and wall time.
    fn replay(&self, store: &ArtifactStore) -> Result<(Vec<u8>, f64), String> {
        let t0 = Instant::now();
        let (app, paper, jobs) = match self {
            Spec::Run { app, paper, jobs, .. } | Spec::Sweep { app, paper, jobs, .. } => {
                (app, *paper, jobs.unwrap_or(DAEMON_JOBS))
            }
        };
        let app = build_app(app, paper).ok_or_else(|| format!("unknown app {app:?}"))?;
        let cfg = FfmConfig::default().with_jobs(jobs);
        let doc = match self {
            Spec::Run { stream: None, .. } => report_to_json(
                &run_ffm_with_store(app.as_ref(), &cfg, Some(store)).map_err(|e| e.to_string())?,
            ),
            Spec::Run { stream: Some(w), .. } => report_to_json(
                &run_ffm_streaming_with_store(app.as_ref(), &cfg, *w, Some(store), |_| {})
                    .map_err(|e| e.to_string())?,
            ),
            Spec::Sweep { axes, .. } => {
                let axes = axes.iter().map(|(f, v)| Axis::new(f.clone(), v.clone())).collect();
                let mut spec = diogenes::sweep::build_spec(axes, false, jobs);
                spec.cache = CacheMode::Off;
                sweep_to_json(&run_sweep_with_store(app.as_ref(), &spec, Some(store))?)
            }
        };
        let mut bytes = Vec::new();
        doc.write_pretty(&mut bytes).map_err(|e| format!("render: {e}"))?;
        Ok((bytes, t0.elapsed().as_secs_f64()))
    }
}

/// One entry of the job list.
#[derive(Debug, Clone)]
pub struct Plan {
    pub spec: Spec,
    /// `run`, `stream`, `analysis` (only stage 5 reruns), `hash` (only
    /// stage 3b reruns), `cost` (everything reruns) or `repeat`.
    pub family: &'static str,
    /// For repeats, the job list index of the original.
    pub repeat_of: Option<usize>,
}

impl Plan {
    fn to_json(&self, idx: usize) -> Json {
        Json::obj([
            ("index", Json::Int(idx as i128)),
            ("family", Json::Static(self.family)),
            ("repeat_of", self.repeat_of.map_or(Json::Null, |r| Json::Int(r as i128))),
            ("path", Json::Static(self.spec.path())),
            ("body", self.spec.body()),
        ])
    }
}

/// Families of the mix. Every block of forty jobs holds each entry once
/// per app of [`MIX`], shuffled by the seed, which also draws the axes,
/// values and repeat targets; so the mix has the same make-up for every
/// seed and only its order and values change.
const FAMILIES: [&str; 10] =
    ["run", "run", "stream", "analysis", "analysis", "hash", "hash", "cost", "repeat", "repeat"];

/// `k` distinct values of `pool`, in drawn order.
fn draw(rng: &mut Rng, pool: &[u64], k: usize) -> Vec<u64> {
    let mut v = pool.to_vec();
    rng.shuffle(&mut v);
    v.truncate(k);
    v
}

/// The seeded job list: the same seed always gives the same list.
pub fn generate(seed: u64, n: usize) -> Vec<Plan> {
    let mut rng = Rng::new(seed);
    let mut plans: Vec<Plan> = Vec::with_capacity(n);
    while plans.len() < n {
        let mut block: Vec<(&'static str, (&str, bool))> =
            FAMILIES.iter().flat_map(|&f| MIX.iter().map(move |&a| (f, a))).collect();
        rng.shuffle(&mut block);
        for (family, (app, paper)) in block {
            let app = app.to_string();
            let sweep = |axes| Spec::Sweep { app: app.clone(), paper, jobs: None, axes };
            let plan = match family {
                "repeat" if !plans.is_empty() => {
                    let j = rng.below(plans.len());
                    let orig = plans[j].repeat_of.unwrap_or(j);
                    Plan { spec: plans[orig].spec.clone(), family, repeat_of: Some(orig) }
                }
                "stream" => {
                    let window = *rng.pick(&[64, 256]);
                    let spec = Spec::Run { app, paper, jobs: None, stream: Some(window) };
                    Plan { spec, family, repeat_of: None }
                }
                "analysis" => {
                    let k = 2 + rng.below(2);
                    let mut axes = vec![(
                        "analysis.misplaced_threshold_ns".to_string(),
                        draw(&mut rng, &[500, 1_000, 2_000, 4_000, 8_000, 16_000], k),
                    )];
                    if rng.below(2) == 0 {
                        axes.push(("analysis.clamp_misplaced".to_string(), vec![0, 1]));
                    }
                    Plan { spec: sweep(axes), family, repeat_of: None }
                }
                "hash" => {
                    let k = 2 + rng.below(2);
                    let mut axes = vec![(
                        "cost.hash_bw_bytes_per_us".to_string(),
                        draw(&mut rng, &[200, 400, 800, 1_600], k),
                    )];
                    if rng.below(2) == 0 {
                        let base = draw(&mut rng, &[1_000, 2_000, 4_000], 2);
                        axes.push(("cost.hash_base_ns".to_string(), base));
                    }
                    Plan { spec: sweep(axes), family, repeat_of: None }
                }
                "cost" => {
                    let (field, pool) = *rng.pick(&[
                        ("cost.free_base_ns", [1_000, 2_000, 4_000]),
                        ("cost.driver_call_ns", [300, 600, 1_200]),
                        ("cost.sync_entry_ns", [200, 400, 800]),
                        ("cost.kernel_launch_ns", [650, 1_300, 2_600]),
                    ]);
                    let axes = vec![(field.to_string(), draw(&mut rng, &pool, 2))];
                    Plan { spec: sweep(axes), family, repeat_of: None }
                }
                // "run", and a "repeat" with nothing before it.
                _ => Plan {
                    spec: Spec::Run { app, paper, jobs: None, stream: None },
                    family: "run",
                    repeat_of: None,
                },
            };
            plans.push(plan);
        }
    }
    plans.truncate(n);
    plans
}

/// One served job, as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    pub idx: usize,
    pub latency_s: f64,
    pub submit_ms: f64,
    pub fetch_ms: f64,
    pub polls: u32,
    /// Digest and length of the fetched document, or what went wrong.
    pub result: Result<(u64, usize), String>,
}

/// `/stats` counters the session reports as deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnap {
    hits: i128,
    misses: i128,
    deduped: i128,
    rejected: i128,
}

impl StatsSnap {
    fn fetch(conn: &mut Conn) -> Result<StatsSnap, String> {
        let resp = conn.request("GET", "/stats", b"")?;
        let text = String::from_utf8(resp.body).map_err(|_| "/stats is not UTF-8")?;
        let doc = Json::parse(&text)?;
        let int = |a: &str, b: &str| {
            doc.get(a)
                .and_then(|o| o.get(b))
                .and_then(Json::as_i128)
                .ok_or_else(|| format!("/stats has no {a}.{b}"))
        };
        Ok(StatsSnap {
            hits: int("cache", "mem_hits")? + int("cache", "disk_hits")?,
            misses: int("cache", "misses")?,
            deduped: int("jobs", "deduped")?,
            rejected: int("jobs", "rejected")?,
        })
    }
}

/// Submit one job, poll until it is done, fetch it.
fn serve_one(conn: &mut Conn, t: &mut Tracer, spec: &Spec, poll: Duration) -> Served {
    let start = Instant::now();
    let mut submit_ms = 0.0;
    let mut fetch_ms = 0.0;
    let mut polls = 0;
    let mut result = || -> Result<(u64, usize), String> {
        let body = spec.body().to_string_compact();
        let (resp, _) =
            t.span("http.submit", |_| conn.request("POST", spec.path(), body.as_bytes()));
        let resp = resp?;
        submit_ms = start.elapsed().as_secs_f64() * 1e3;
        if resp.status != 200 {
            return Err(format!("{} answered {}", spec.path(), resp.status));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&resp.body))?;
        let location =
            doc.get("location").and_then(Json::as_str).ok_or("submission reply has no location")?;
        loop {
            let t_get = Instant::now();
            let (resp, idx) = t.span("http.fetch", |_| conn.request("GET", location, b""));
            let resp = resp?;
            match resp.status {
                200 => {
                    fetch_ms = t_get.elapsed().as_secs_f64() * 1e3;
                    return Ok((fnv64(&resp.body), resp.body.len()));
                }
                202 => {
                    t.rename(idx, "http.poll");
                    polls += 1;
                    t.span("serve.poll_interval", |_| std::thread::sleep(poll));
                }
                s => return Err(format!("{location} answered {s}")),
            }
        }
    }();
    let latency_s = start.elapsed().as_secs_f64();
    if let Err(e) = &mut result {
        e.insert_str(0, &format!("{}: ", spec.key()));
    }
    Served { idx: 0, latency_s, submit_ms, fetch_ms, polls, result }
}

/// A finished client session against one fresh daemon.
pub struct Session {
    pub served: Vec<Served>,
    pub tracers: Vec<Tracer>,
    /// Spawn-to-accept seconds of each daemon started.
    pub ready_s: Vec<f64>,
    pub peak_rss_mib: f64,
    before: StatsSnap,
    after: StatsSnap,
    /// First submission to last completion.
    pub window_s: f64,
}

impl Session {
    /// Start `daemons` fresh daemons one after another (timing each one's
    /// set-up; all but the last are shut down at once), then drive the
    /// last with `clients` closed-loop connections over `plans` until
    /// `seconds` have passed (or the list is exhausted).
    pub fn run(
        ctx: &Ctx,
        plans: &[Plan],
        clients: usize,
        daemons: usize,
        seconds: Option<f64>,
        poll_ms: u64,
        traced: bool,
    ) -> Result<Session, String> {
        let mut ready_s = Vec::new();
        let mut daemon = None;
        for k in 0..daemons {
            let cache = ctx.out.join(format!("serve-cache-{}-{k}", std::process::id()));
            let d = Daemon::spawn(&ctx.diogenes, &cache, DAEMON_JOBS, DAEMON_EXECUTORS)?;
            ready_s.push(d.ready_s);
            if k + 1 < daemons {
                d.shutdown()?;
            } else {
                daemon = Some(d);
            }
        }
        let d = daemon.ok_or("no daemon started")?;
        let mut conn = Conn::new(d.addr);
        let before = StatsSnap::fetch(&mut conn)?;
        let origin = Instant::now();
        let deadline = seconds.map(|s| origin + Duration::from_secs_f64(s));
        let poll = Duration::from_millis(poll_ms);
        let next = AtomicUsize::new(0);
        let per_client: Vec<(Vec<Served>, Tracer)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let next = &next;
                    let addr = d.addr;
                    sc.spawn(move || {
                        let mut conn = Conn::new(addr);
                        let mut t = if traced {
                            Tracer::new(origin, c as u32 + 1)
                        } else {
                            Tracer::disabled(origin)
                        };
                        let mut served = Vec::new();
                        while deadline.is_none_or(|dl| Instant::now() < dl) {
                            let idx = next.fetch_add(1, Ordering::SeqCst);
                            let Some(plan) = plans.get(idx) else { break };
                            t.set_trace(idx as u64 + 1);
                            let (mut s, _) =
                                t.span("serve.job", |t| serve_one(&mut conn, t, &plan.spec, poll));
                            s.idx = idx;
                            served.push(s);
                        }
                        (served, t)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let window_s = origin.elapsed().as_secs_f64();
        let after = StatsSnap::fetch(&mut conn)?;
        let peak_rss_mib = peak_rss_mib(Some(d.pid())).ok_or("cannot read the daemon's VmHWM")?;
        d.shutdown()?;
        let mut served = Vec::new();
        let mut tracers = Vec::new();
        for (s, t) in per_client {
            served.extend(s);
            tracers.push(t);
        }
        served.sort_by_key(|s| s.idx);
        Ok(Session { served, tracers, ready_s, peak_rss_mib, before, after, window_s })
    }

    fn ok(&self) -> impl Iterator<Item = &Served> {
        self.served.iter().filter(|s| s.result.is_ok())
    }

    /// Per-layer metrics of the serve path.
    pub fn metrics(&self, plans: &[Plan], replay: &Replay, out: &mut Outcome) {
        let n = self.served.len();
        let hits = (self.after.hits - self.before.hits) as f64;
        let misses = (self.after.misses - self.before.misses) as f64;
        out.metric("store.hits", hits, "count", n);
        out.metric("store.misses", misses, "count", n);
        out.metric("store.hit_rate", hits / (hits + misses).max(1.0), "ratio", n);
        out.metric(
            "serve.dedup_attached",
            (self.after.deduped - self.before.deduped) as f64,
            "count",
            n,
        );
        out.metric(
            "serve.rejected_429",
            (self.after.rejected - self.before.rejected) as f64,
            "count",
            n,
        );
        let col = |f: fn(&Served) -> f64| self.ok().map(f).collect::<Vec<f64>>();
        out.metric("http.submit_ms", median(&col(|s| s.submit_ms)), "ms", n);
        out.metric("http.fetch_ms", median(&col(|s| s.fetch_ms)), "ms", n);
        out.metric(
            "serve.wait_ms",
            median(&col(|s| s.latency_s * 1e3 - s.submit_ms - s.fetch_ms)),
            "ms",
            n,
        );
        let polls = col(|s| s.polls as f64);
        out.metric(
            "serve.polls_per_job",
            polls.iter().sum::<f64>() / polls.len().max(1) as f64,
            "count",
            n,
        );
        // Served latency against the in-process replay of the same specs
        // (first completion of each distinct spec).
        let served: f64 = replay.first.iter().map(|&(i, _)| self.served[i].latency_s).sum();
        let inproc: f64 = replay.first.iter().map(|&(_, w)| w).sum();
        out.metric("serve.overhead_share", 1.0 - inproc / served, "ratio", replay.first.len());
        let sweeps: Vec<usize> = replay
            .first
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| matches!(plans[self.served[i].idx].spec, Spec::Sweep { .. }))
            .collect();
        let cells: usize = sweeps.iter().map(|&i| plans[self.served[i].idx].spec.cells()).sum();
        let secs: f64 = sweeps.iter().map(|&i| self.served[i].latency_s).sum();
        out.metric("sweep.cells_per_s", cells as f64 / secs, "1/s", sweeps.len());
    }
}

/// Expected documents by spec key: digest, length, in-process seconds.
#[derive(Default)]
pub struct Expected(HashMap<String, (u64, usize, f64)>);

impl Expected {
    pub fn insert(&mut self, spec: &Spec, bytes: &[u8], wall_s: f64) {
        self.0.insert(spec.key(), (fnv64(bytes), bytes.len(), wall_s));
    }
}

/// In-process replay of a session, in job-list order.
pub struct Replay {
    /// (index into `served`, in-process seconds) for the first completion
    /// of each distinct spec.
    pub first: Vec<(usize, f64)>,
}

/// Check every served document against the in-process export of its
/// spec (replayed through `store` when not already known); a failed
/// request or a mismatch counts as a failed operation.
pub fn verify(
    plans: &[Plan],
    served: &[Served],
    known: &mut Expected,
    store: &ArtifactStore,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let mut first = Vec::new();
    let mut seen = HashSet::new();
    for (i, s) in served.iter().enumerate() {
        let spec = &plans[s.idx].spec;
        let (digest, len) = match &s.result {
            Ok(r) => *r,
            Err(e) => {
                out.check(false, e);
                continue;
            }
        };
        let key = spec.key();
        if !known.0.contains_key(&key) {
            let (bytes, wall) = spec.replay(store)?;
            known.insert(spec, &bytes, wall);
        }
        let (want, want_len, wall) = known.0[&key];
        out.check(
            digest == want && len == want_len,
            &format!("served document differs from the in-process export of {key}"),
        );
        if seen.insert(key) {
            first.push((i, wall));
        }
    }
    Ok(Replay { first })
}

/// The serve_mix workload, untraced or traced.
pub fn run(ctx: &Ctx, out: &mut Outcome, traced: bool) -> Result<(), String> {
    let plans = generate(ctx.seed, PLANNED_JOBS);
    let list = ctx.out.join(format!("serve_mix-seed{}-jobs.json", ctx.seed));
    let doc = Json::arr(plans.iter().enumerate().map(|(i, p)| p.to_json(i)));
    diogenes::write_json_doc(&list.to_string_lossy(), &doc)?;

    let daemons = if traced { 1 } else { pipeline::SETUP_SAMPLES };
    let session = Session::run(ctx, &plans, CLIENTS, daemons, Some(ctx.seconds), POLL_MS, traced)?;
    let store = ArtifactStore::in_memory();
    let replay = verify(&plans, &session.served, &mut Expected::default(), &store, out)?;

    if traced {
        let mut t = Tracer::new(Instant::now(), 0);
        ffm_core::build_tag();
        alloc::set_counting(true);
        let mut walks = |paper_scale: bool| -> Result<Vec<Walk>, String> {
            MIX.iter()
                .map(|&(name, paper)| {
                    let app = build_app(name, paper && paper_scale).ok_or("unknown app")?;
                    let path = ctx.out.join(format!("serve_mix-{name}-report.json"));
                    pipeline::walk(
                        &mut t,
                        app.as_ref(),
                        if paper_scale { "mix" } else { "test" },
                        &path,
                    )
                })
                .collect()
        };
        let mix = walks(true)?;
        let test = walks(false)?;
        alloc::set_counting(false);
        let mut untraced_s = 0.0;
        for (&(name, paper), w) in MIX.iter().zip(&mix) {
            let app = build_app(name, paper).ok_or("unknown app")?;
            let path = ctx.out.join(format!("serve_mix-{name}-report.json"));
            let (bytes, wall) =
                pipeline::untraced_sequential(app.as_ref(), &ArtifactStore::in_memory(), &path)?;
            out.check(
                bytes == w.report_bytes,
                &format!("traced {name} report differs from untraced"),
            );
            untraced_s += wall;
        }
        pipeline::layer_metrics(&t, &mix, &test, untraced_s, out);
        session.metrics(&plans, &replay, out);
        for tr in session.tracers {
            t.absorb(tr);
        }
        out.detail("spans", t.to_json());
    } else {
        let lat: Vec<f64> = session.ok().map(|s| s.latency_s).collect();
        // A served plain `POST /run`: one pipeline plus report export.
        let runs: Vec<f64> =
            session.ok().filter(|s| plans[s.idx].family == "run").map(|s| s.latency_s).collect();
        // Simulated properties of the mix's apps, outside any timing.
        let mut log_overhead = 0.0;
        let mut pairs = Vec::new();
        for &(name, paper) in &MIX {
            let app = build_app(name, paper).ok_or("unknown app")?;
            let cfg = FfmConfig::default().with_jobs(DAEMON_JOBS);
            let report = run_ffm(app.as_ref(), &cfg).map_err(|e| e.to_string())?;
            log_overhead += report.collection_overhead_factor().ln();
            pairs.extend(estimate_vs_actual(&report, paper)?);
        }
        let n = lat.len();
        out.metric("setup_s", median(&session.ready_s), "s", session.ready_s.len());
        out.metric("run_wall_s", median(&runs), "s", runs.len());
        out.metric("job_latency_p50_s", median(&lat), "s", n);
        out.metric("job_latency_p95_s", percentile(&lat, 0.95), "s", n);
        out.metric("jobs_per_s", n as f64 / session.window_s, "1/s", n);
        out.metric("peak_rss_mb", session.peak_rss_mib, "MiB", 1);
        out.metric(
            "collection_overhead_x",
            (log_overhead / MIX.len() as f64).exp(),
            "x",
            MIX.len(),
        );
        out.metric("estimate_error_pct", estimate_error_pct(&pairs), "%", pairs.len());
        out.meta("setup_samples", Json::Int(session.ready_s.len() as i128));
    }
    out.meta("jobs", Json::Int(DAEMON_JOBS as i128));
    out.meta("executors", Json::Int(DAEMON_EXECUTORS as i128));
    out.meta("clients", Json::Int(CLIENTS as i128));
    out.meta("poll_interval_ms", Json::Int(POLL_MS as i128));
    out.meta("jobs_completed", Json::Int(session.served.len() as i128));
    out.meta("distinct_specs", Json::Int(replay.first.len() as i128));
    out.meta("job_list", Json::Str(list.to_string_lossy().into_owned()));
    out.detail(
        "served",
        Json::arr(session.served.iter().map(|s| {
            Json::obj([
                ("index", Json::Int(s.idx as i128)),
                ("latency_s", Json::Float(s.latency_s)),
                ("polls", Json::Int(s.polls as i128)),
                ("ok", Json::Bool(s.result.is_ok())),
            ])
        })),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(plans: &[Plan]) -> Vec<String> {
        plans.iter().map(|p| format!("{} {:?} {}", p.family, p.repeat_of, p.spec.key())).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_job_list() {
        assert_eq!(keys(&generate(7, 200)), keys(&generate(7, 200)));
        assert_ne!(keys(&generate(7, 200)), keys(&generate(8, 200)));
    }

    #[test]
    fn every_block_holds_each_family_once_per_app() {
        let block = FAMILIES.len() * MIX.len();
        for seed in [1, 2718] {
            let plans = generate(seed, 3 * block);
            for chunk in plans.chunks(block).skip(1) {
                for family in ["stream", "analysis", "hash", "cost", "repeat"] {
                    let want = FAMILIES.iter().filter(|&&f| f == family).count() * MIX.len();
                    let got = chunk.iter().filter(|p| p.family == family).count();
                    assert_eq!(got, want, "seed {seed}, family {family}");
                }
            }
            for (i, p) in plans.iter().enumerate() {
                if let Some(orig) = p.repeat_of {
                    assert!(orig < i && plans[orig].repeat_of.is_none());
                    assert_eq!(plans[orig].spec.key(), p.spec.key());
                }
            }
        }
    }

    #[test]
    fn sweeps_use_only_sweepable_fields_and_count_cells() {
        for p in generate(3, 400) {
            if let Spec::Sweep { axes, .. } = &p.spec {
                for (field, values) in axes {
                    assert!(ffm_core::SWEEPABLE_FIELDS.contains(&field.as_str()), "{field}");
                    assert!(values.len() >= 2);
                }
                assert!((2..=6).contains(&p.spec.cells()));
            }
        }
    }
}
