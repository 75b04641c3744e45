//! Regenerate paper Figure 8: the refined estimate for fixing only the
//! subsequence (entries 10..23) of the cumf_als problem sequence —
//! evaluated from the already-collected data with no further runs.

use diogenes::{render_sequence, render_subsequence, run_diogenes, DiogenesConfig};
use diogenes_apps::{AlsConfig, CumfAls};

fn main() {
    let cfg = if diogenes_bench::paper_scale_from_env() {
        AlsConfig::paper_scale()
    } else {
        AlsConfig::test_scale()
    };
    eprintln!("figure8: running Diogenes on cumf_als...");
    let r = run_diogenes(&CumfAls::new(cfg), DiogenesConfig::new()).expect("pipeline");
    let n = r.families.first().map(|f| f.entries.len()).unwrap_or(0);
    eprintln!("(full sequence for reference)");
    eprint!("{}", render_sequence(&r, 0));
    println!();
    print!("{}", render_subsequence(&r, &r.graph(), 0, 10, n));
}
