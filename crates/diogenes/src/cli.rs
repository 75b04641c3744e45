//! Terminal displays (paper §4, Figs 6–8).
//!
//! Diogenes has "a simple terminal-based command line interface to
//! explore data analyzed by FFM"; these renderers reproduce its three
//! views: the overview (benefit-sorted folds and sequences, Fig. 7
//! left), the fold expansion (Fig. 7 right), and the sequence /
//! subsequence listings (Figs. 6 and 8).

use std::collections::HashMap;
use std::fmt::Write as _;

use cuda_driver::ApiFn;
use ffm_core::{ExecGraph, Problem};
use gpu_sim::{fold_template_name, Ns};

use crate::seqfam::family_subsequence_benefit;
use crate::tool::DiogenesResult;

/// Render virtual nanoseconds the way the paper prints seconds.
pub fn fmt_secs(ns: Ns) -> String {
    format!("{:.3}s", ns as f64 / 1e9)
}

/// Resolve a `--jobs N` flag value to the worker count the tool will
/// use, and a human-readable description of where it came from, for the
/// startup banner. `None` (flag absent) falls back to the `DIOGENES_JOBS`
/// environment variable, then to the machine's core count.
pub fn resolve_jobs(flag: Option<usize>) -> (usize, String) {
    let jobs = ffm_core::effective_jobs(flag.unwrap_or(0));
    let origin = match flag {
        Some(n) if n != 0 => "--jobs".to_string(),
        _ if std::env::var(ffm_core::JOBS_ENV).is_ok() => format!("${}", ffm_core::JOBS_ENV),
        _ => "auto".to_string(),
    };
    (jobs, origin)
}

/// The overview display: benefit-sorted rows mixing per-API folds and
/// sequence families (paper Fig. 7, left panel).
pub fn render_overview(r: &DiogenesResult) -> String {
    let a = &r.report.analysis;
    let mut rows: Vec<(Ns, String)> = Vec::new();
    for g in &a.api_folds {
        rows.push((g.benefit_ns, g.label.resolve().to_string()));
    }
    for (i, f) in r.families.iter().enumerate() {
        let first = f
            .entries
            .first()
            .and_then(|e| {
                e.site.map(|s| format!("{} at {}", e.api.map(|a| a.name()).unwrap_or("?"), s))
            })
            .unwrap_or_default();
        rows.push((
            f.total_benefit_ns,
            format!("Sequence #{} starting at call {first} ({} ops)", i + 1, f.entries.len()),
        ));
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.0));
    let mut out = String::new();
    let _ = writeln!(out, "Diogenes Overview Display — {}", r.report.app_name);
    let _ = writeln!(out, "Time(s) (% of execution time)");
    for (ns, label) in rows.into_iter().take(r.config.overview_rows) {
        let _ = writeln!(out, "{:>12} ({:5.2}%) {}", fmt_secs(ns), r.percent(ns), label);
    }
    let _ = writeln!(out, "Back/Previous\nExit");
    out
}

/// The expansion of one API fold by enclosing function (paper Fig. 7,
/// right panel): template instances fold together, labeled by the first
/// instance's full name. `graph` is [`DiogenesResult::graph`].
pub fn render_fold_expansion(r: &DiogenesResult, graph: &ExecGraph, api: ApiFn) -> String {
    let a = &r.report.analysis;
    // Group per enclosing (parent) function, folded.
    let mut benefit_by_parent: HashMap<String, (Ns, String, Problem)> = HashMap::new();
    for nb in &a.benefit.per_node {
        let node = &graph.nodes[nb.node];
        if node.api != Some(api) {
            continue;
        }
        let Some(call_seq) = node.call_seq else { continue };
        let stack = &r.report.stage2.calls[call_seq].stack;
        let parent = stack
            .frames
            .len()
            .checked_sub(2)
            .and_then(|i| stack.frames.get(i))
            .map(|f| f.function.clone().into_owned())
            .unwrap_or_else(|| "<top level>".to_string());
        let key = fold_template_name(&parent);
        let e = benefit_by_parent.entry(key).or_insert((0, parent.clone(), node.problem));
        e.0 += nb.benefit_ns;
    }
    let mut rows: Vec<(Ns, String, Problem)> = benefit_by_parent.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.0));

    let total: Ns = rows.iter().map(|r| r.0).sum();
    let mut out = String::new();
    let _ = writeln!(out, "▸{}({:.2}%) Fold on {}", fmt_secs(total), r.percent(total), api.name());
    for (ns, name, problem) in rows {
        let _ = writeln!(out, "  {}({:.2}%) {}", fmt_secs(ns), r.percent(ns), name);
        let note = match problem {
            Problem::UnnecessarySync => "Conditionally unnecessary (see: conditions)",
            Problem::MisplacedSync => "Misplaced synchronization",
            Problem::UnnecessaryTransfer => "Duplicate transfer",
            Problem::None => "",
        };
        if !note.is_empty() {
            let _ = writeln!(out, "    {note}");
        }
    }
    out
}

/// The sequence listing (paper Fig. 6).
pub fn render_sequence(r: &DiogenesResult, family_idx: usize) -> String {
    let Some(f) = r.families.get(family_idx) else {
        return "no such sequence".to_string();
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Time Recoverable: {} ({:.2}% of execution time)",
        fmt_secs(f.total_benefit_ns),
        r.percent(f.total_benefit_ns)
    );
    let _ = writeln!(
        out,
        "Number of Sync Issues: {}  Number of Transfer Issues: {}",
        f.sync_issues / f.occurrences.max(1),
        f.transfer_issues / f.occurrences.max(1)
    );
    let _ = writeln!(out, "(pattern repeats {} times)", f.occurrences);
    let _ = writeln!(out, "Select start/ending subsequence to get refined estimate");
    for e in &f.entries {
        let api = e.api.map(|a| a.name()).unwrap_or("?");
        match e.site {
            Some(s) => {
                let _ = writeln!(out, "{:2}. {} in {} at line {}", e.index, api, s.file, s.line);
            }
            None => {
                let _ = writeln!(out, "{:2}. {}", e.index, api);
            }
        }
    }
    out
}

/// The subsequence refinement (paper Fig. 8). `graph` is
/// [`DiogenesResult::graph`].
pub fn render_subsequence(
    r: &DiogenesResult,
    graph: &ExecGraph,
    family_idx: usize,
    from: usize,
    to: usize,
) -> String {
    let Some(f) = r.families.get(family_idx) else {
        return "no such sequence".to_string();
    };
    let Some(benefit) = family_subsequence_benefit(graph, &graph.cpu_prefix(), f, from, to) else {
        return "invalid subsequence range".to_string();
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Time Recoverable In Subsequence: {}\n({:.2}% of execution time)",
        fmt_secs(benefit),
        r.percent(benefit)
    );
    for e in f.entries.iter().filter(|e| e.index >= from && e.index <= to) {
        let api = e.api.map(|a| a.name()).unwrap_or("?");
        match e.site {
            Some(s) => {
                let _ = writeln!(out, "{:2}. {} in {} at line {}", e.index, api, s.file, s.line);
            }
            None => {
                let _ = writeln!(out, "{:2}. {}", e.index, api);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::{run_diogenes, DiogenesConfig};
    use diogenes_apps::{AlsConfig, CuIbm, CuibmConfig, CumfAls};

    fn als() -> DiogenesResult {
        let mut cfg = AlsConfig::test_scale();
        cfg.iters = 4;
        run_diogenes(&CumfAls::new(cfg), DiogenesConfig::new()).unwrap()
    }

    #[test]
    fn fmt_secs_formats() {
        assert_eq!(fmt_secs(155_785_000_000), "155.785s");
        assert_eq!(fmt_secs(0), "0.000s");
    }

    #[test]
    fn overview_lists_folds_and_sequences() {
        let r = als();
        let o = render_overview(&r);
        assert!(o.contains("Fold on cudaFree"), "{o}");
        assert!(o.contains("Sequence #1 starting at call"), "{o}");
        assert!(o.contains("% of execution") || o.contains("%)"), "{o}");
    }

    #[test]
    fn sequence_listing_shows_fig6_shape() {
        let r = als();
        let s = render_sequence(&r, 0);
        assert!(s.contains("Time Recoverable:"), "{s}");
        assert!(s.contains("cudaMemcpy in als.cpp at line 738"), "{s}");
        assert!(s.contains("cudaFree in als.cpp at line 856"), "{s}");
        assert!(s.contains("23."), "{s}");
    }

    #[test]
    fn subsequence_renders_refined_estimate() {
        let r = als();
        let s = render_subsequence(&r, &r.graph(), 0, 10, 23);
        assert!(s.contains("Time Recoverable In Subsequence:"), "{s}");
        assert!(s.contains("10."), "{s}");
        assert!(!s.contains(" 9."), "entries before 10 excluded: {s}");
    }

    #[test]
    fn cuibm_fold_expansion_shows_template_functions() {
        let mut cfg = CuibmConfig::test_scale();
        cfg.cavity.steps = 3;
        let r = run_diogenes(&CuIbm::new(cfg), DiogenesConfig::new()).unwrap();
        let e = render_fold_expansion(&r, &r.graph(), ApiFn::CudaFree);
        assert!(e.contains("Fold on cudaFree"), "{e}");
        assert!(
            e.contains("thrust::detail::contiguous_storage"),
            "template parent functions listed: {e}"
        );
        assert!(e.contains("Conditionally unnecessary"), "{e}");
    }
}
