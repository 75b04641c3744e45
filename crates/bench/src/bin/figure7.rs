//! Regenerate paper Figure 7: the Diogenes overview display for cuIBM
//! (left) and the expansion of the cudaFree fold into enclosing template
//! functions (right).

use cuda_driver::ApiFn;
use diogenes::{render_fold_expansion, render_overview, run_diogenes, DiogenesConfig};
use diogenes_apps::{CuIbm, CuibmConfig};

fn main() {
    let cfg = if diogenes_bench::paper_scale_from_env() {
        CuibmConfig::paper_scale()
    } else {
        CuibmConfig::test_scale()
    };
    eprintln!("figure7: running Diogenes on cuIBM...");
    let r = run_diogenes(&CuIbm::new(cfg), DiogenesConfig::new()).expect("pipeline");
    println!("=== Overview (Fig. 7 left) ===");
    print!("{}", render_overview(&r));
    println!("\n=== Expansion of problems at cudaFree (Fig. 7 right) ===");
    print!("{}", render_fold_expansion(&r, &r.graph(), ApiFn::CudaFree));
}
