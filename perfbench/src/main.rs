//! perfbench — end-to-end and per-layer benchmark of the diogenes
//! pipeline and daemon (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <cuibm_paper|als_paper|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> --diogenes <serve binary> --out <dir>
//! ```
//!
//! Prints every metric by name, unit and sample count, writes the full
//! result (with its `meta` block) to `<out>/<workload>-seed<n>-trace<t>.json`
//! and ends stdout with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics`.

mod alloc;
mod client;
mod pipeline;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;

use ffm_core::Json;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 3] = ["cuibm_paper", "als_paper", "serve_mix"];

/// What one invocation measures.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `diogenes` binary whose `serve` subcommand is under test.
    pub diogenes: PathBuf,
    /// Scratch and result directory.
    pub out: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics, correctness tally and provenance of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    meta: Vec<(String, Json)>,
    detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric_owned(name.to_string(), value, unit, samples);
    }

    pub fn metric_owned(&mut self, name: String, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Count one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
    }

    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> --diogenes <path> --out <dir>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn bad_value(flag: &str, value: &str) -> ! {
    usage(&format!("bad value {value:?} for {flag}"))
}

fn parse_args(args: &[String]) -> Ctx {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        diogenes: PathBuf::new(),
        out: PathBuf::new(),
    };
    let mut seen = 0u32;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| bad_value(flag, value)),
            "--seconds" => {
                ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .unwrap_or_else(|| bad_value(flag, value))
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad_value(flag, value),
                }
            }
            "--diogenes" => ctx.diogenes = value.into(),
            "--out" => ctx.out = value.into(),
            _ => bad_value(flag, value),
        }
        seen += 1;
    }
    if seen != 6 {
        usage("every flag is required, once");
    }
    ctx
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--setup-probe") {
        let paper = args.get(2).map(String::as_str) == Some("paper");
        let app = args.get(1).map(String::as_str).unwrap_or("");
        if let Err(e) = pipeline::setup_probe(app, paper) {
            eprintln!("perfbench: setup probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    let ctx = parse_args(&args);
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("perfbench: {}: {e}", ctx.out.display());
        std::process::exit(1);
    }
    eprintln!(
        "perfbench: workload {} seed {} for {}s, trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let mut out = Outcome::default();
    let run = match (ctx.workload.as_str(), ctx.trace) {
        ("cuibm_paper", false) => pipeline::run_untraced(&ctx, "cuibm", &mut out),
        ("als_paper", false) => pipeline::run_untraced(&ctx, "als", &mut out),
        ("cuibm_paper", true) => pipeline::run_traced(&ctx, "cuibm", &mut out),
        ("als_paper", true) => pipeline::run_traced(&ctx, "als", &mut out),
        (_, traced) => serve_mix::run(&ctx, &mut out, traced),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number ({})", m.name, m.value);
        std::process::exit(1);
    }
    if let Err(e) = finish(&ctx, out) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn finish(ctx: &Ctx, out: Outcome) -> Result<(), String> {
    let mut meta = match diogenes_bench::bench_meta(0, "pascal_like") {
        Json::Obj(fields) => fields,
        _ => Vec::new(),
    };
    // `jobs` is set per workload below; bench_meta's own is a placeholder.
    meta.retain(|(k, _)| k != "jobs");
    meta.extend([
        ("workload".to_string(), Json::Str(ctx.workload.clone())),
        ("seed".to_string(), Json::Int(ctx.seed as i128)),
        ("seconds".to_string(), Json::Float(ctx.seconds)),
        ("trace".to_string(), Json::Bool(ctx.trace)),
    ]);
    meta.extend(out.meta);

    println!("perfbench {} seed {} trace {}:", ctx.workload, ctx.seed, ctx.trace as u8);
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!("  correctness: {} failed of {} attempted", out.failed, out.attempted);

    let metrics_doc = Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                let v = Json::obj([
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Static(m.unit)),
                    ("samples", Json::Int(m.samples as i128)),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    );
    let mut doc = vec![
        ("meta".to_string(), Json::Obj(meta)),
        ("correct".to_string(), Json::Bool(out.failed == 0)),
        ("attempted".to_string(), Json::Int(out.attempted as i128)),
        ("failed".to_string(), Json::Int(out.failed as i128)),
        ("metrics".to_string(), metrics_doc),
    ];
    doc.extend(out.detail);
    let path =
        ctx.out.join(format!("{}-seed{}-trace{}.json", ctx.workload, ctx.seed, ctx.trace as u8));
    diogenes::write_json_doc(&path.to_string_lossy(), &Json::Obj(doc))?;
    println!("  result: {}", path.display());

    // The last line: exactly the four keys, every value with all digits.
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}
