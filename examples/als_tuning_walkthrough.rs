//! The §5.1 cumf_als workflow, end to end: run Diogenes, read the
//! sequence display (Fig. 6), refine a subsequence (Fig. 8), apply the
//! paper's fixes, and measure the real improvement against the estimate.
//!
//! Run with: `cargo run --release --example als_tuning_walkthrough`

use cuda_driver::uninstrumented_exec_time;
use diogenes::{
    render_overview, render_sequence, render_subsequence, run_diogenes, DiogenesConfig,
};
use diogenes_apps::{AlsConfig, AlsFixes, CumfAls};
use gpu_sim::CostModel;

fn main() {
    let cfg = AlsConfig::test_scale();
    let app = CumfAls::new(cfg.clone());

    println!("== step 1: run Diogenes on the unmodified application ==\n");
    let result = run_diogenes(&app, DiogenesConfig::new()).expect("pipeline");
    print!("{}", render_overview(&result));

    println!("\n== step 2: inspect the top problem sequence (Fig. 6) ==\n");
    print!("{}", render_sequence(&result, 0));

    println!("\n== step 3: refine to the easily-fixable subsequence (Fig. 8) ==");
    println!("   (no additional data collection required)\n");
    let n = result.families[0].entries.len();
    print!("{}", render_subsequence(&result, &result.graph(), 0, 10, n));

    println!("\n== step 4: apply the paper's fixes and re-measure ==\n");
    let cost = CostModel::pascal_like();
    let broken_ns = uninstrumented_exec_time(&app, cost.clone()).expect("runs");
    let fixed = CumfAls::new(AlsConfig { fixes: AlsFixes::all(), ..cfg });
    let fixed_ns = uninstrumented_exec_time(&fixed, cost).expect("runs");
    let saved = broken_ns.saturating_sub(fixed_ns);
    let est = result.report.analysis.total_benefit_ns();

    println!("  original build:   {:.3} ms", broken_ns as f64 / 1e6);
    println!("  fixed build:      {:.3} ms", fixed_ns as f64 / 1e6);
    println!(
        "  actual saving:    {:.3} ms ({:.1}% of execution)",
        saved as f64 / 1e6,
        saved as f64 * 100.0 / broken_ns as f64
    );
    println!(
        "  Diogenes estimate: {:.3} ms ({:.1}% of execution)",
        est as f64 / 1e6,
        result.report.analysis.percent(est)
    );
    let (lo, hi) = if est <= saved { (est, saved) } else { (saved, est) };
    println!(
        "  estimate accuracy: {:.0}% (paper reported 77% for cumf_als)",
        lo as f64 * 100.0 / hi as f64
    );
    assert!(fixed_ns < broken_ns, "the fixes must actually help");
}
