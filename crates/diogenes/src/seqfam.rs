//! Sequence families: merging per-iteration sequences.
//!
//! A loop produces one structurally identical problem sequence per
//! iteration. The paper's displays (Fig. 6: "Time Recoverable: 155.785s
//! ... 23 operations") report the *pattern* once with benefit summed over
//! every dynamic occurrence. A [`SequenceFamily`] is that merge: all
//! sequences whose (API, call-site) entry pattern is identical.

use cuda_driver::ApiFn;
use ffm_core::{carry_forward, Analysis, ExecGraph, Problem, Sequence};
use gpu_sim::{fnv1a_64, Ns, SourceLoc};

/// One displayed operation of a family (paper Fig. 6 line). A call whose
/// launch and wait are both problematic (a synchronous duplicate
/// transfer) is one displayed operation with both flags.
#[derive(Debug, Clone)]
pub struct FamilyEntry {
    /// 1-based display index.
    pub index: usize,
    pub api: Option<ApiFn>,
    pub site: Option<SourceLoc>,
    pub is_sync_issue: bool,
    pub is_transfer_issue: bool,
    /// First and last underlying graph nodes of this display entry in the
    /// representative sequence.
    pub first_node: usize,
    pub last_node: usize,
}

/// Sequences with identical entry patterns, merged.
#[derive(Debug, Clone)]
pub struct SequenceFamily {
    /// Stable pattern identity.
    pub pattern_key: u64,
    /// How many dynamic sequences share the pattern.
    pub occurrences: usize,
    /// Benefit summed over all occurrences.
    pub total_benefit_ns: Ns,
    /// Display entries (per driver call, launch+wait merged).
    pub entries: Vec<FamilyEntry>,
    /// Total problematic synchronizations across occurrences.
    pub sync_issues: usize,
    /// Total problematic transfers across occurrences.
    pub transfer_issues: usize,
    /// The representative (first) dynamic sequence.
    pub representative: Sequence,
}

/// Build the display entries of one sequence, merging launch+wait nodes
/// that came from the same traced call.
fn display_entries(seq: &Sequence) -> Vec<FamilyEntry> {
    let mut out: Vec<FamilyEntry> = Vec::new();
    let mut prev_call = None;
    for e in &seq.entries {
        let sync = e.problem.is_sync();
        let transfer = e.problem == Problem::UnnecessaryTransfer;
        let same_call = e.call_seq.is_some() && e.call_seq == prev_call;
        prev_call = e.call_seq;
        match out.last_mut() {
            Some(last) if same_call => {
                last.is_sync_issue |= sync;
                last.is_transfer_issue |= transfer;
                last.last_node = e.node;
            }
            _ => out.push(FamilyEntry {
                index: out.len() + 1,
                api: e.api,
                site: e.site,
                is_sync_issue: sync,
                is_transfer_issue: transfer,
                first_node: e.node,
                last_node: e.node,
            }),
        }
    }
    out
}

/// Pattern identity of a sequence: the (api, site, problem) list hashed.
fn pattern_key(seq: &Sequence) -> u64 {
    let mut h: u64 = 0x0fee_df0d_u64;
    for e in &seq.entries {
        let api = e.api.map(|a| a.name()).unwrap_or("?");
        let site = e.site.map(|s| s.addr()).unwrap_or(0);
        h = h
            .rotate_left(9)
            .wrapping_add(fnv1a_64(api.as_bytes()) ^ site ^ (e.problem as u64) << 3);
    }
    h
}

/// Merge an analysis' sequences into families, sorted by total benefit.
/// Needs no graph: each sequence entry carries its node's traced call.
pub fn merge_sequences(analysis: &Analysis) -> Vec<SequenceFamily> {
    let mut families: Vec<SequenceFamily> = Vec::new();
    for seq in &analysis.sequences {
        let key = pattern_key(seq);
        if let Some(f) = families.iter_mut().find(|f| f.pattern_key == key) {
            f.occurrences += 1;
            f.total_benefit_ns += seq.benefit_ns;
            f.sync_issues += seq.sync_issues();
            f.transfer_issues += seq.transfer_issues();
        } else {
            families.push(SequenceFamily {
                pattern_key: key,
                occurrences: 1,
                total_benefit_ns: seq.benefit_ns,
                entries: display_entries(seq),
                sync_issues: seq.sync_issues(),
                transfer_issues: seq.transfer_issues(),
                representative: seq.clone(),
            });
        }
    }
    families.sort_by_key(|f| std::cmp::Reverse(f.total_benefit_ns));
    families
}

/// Refined subsequence estimate on a family: evaluate display entries
/// `[from, to]` (1-based, inclusive) of the representative sequence and
/// scale by occurrence count (paper Fig. 8 — "does not require additional
/// data collection"). `cpu_prefix` is the graph's CPU prefix column
/// ([`ExecGraph::cpu_prefix`]), built once for any number of queries.
/// Problems outside the chosen display range are excluded via a node
/// mask on the carry-forward estimator — no graph clone per query.
pub fn family_subsequence_benefit(
    graph: &ExecGraph,
    cpu_prefix: &[Ns],
    family: &SequenceFamily,
    from: usize,
    to: usize,
) -> Option<Ns> {
    let first = family.entries.iter().find(|e| e.index == from)?;
    let last = family.entries.iter().find(|e| e.index == to)?;
    if last.first_node < first.first_node {
        return None;
    }
    let lo = first.first_node;
    let hi = last.last_node;
    let seq = &family.representative;
    // Only the representative's own entries outside [lo, hi] lose their
    // problem flag — nodes from other sequences are untouched, exactly
    // as the retired clone-and-clear path behaved. Entry nodes are
    // strictly increasing, so membership is a binary search and the
    // query allocates nothing.
    let keep = |n: usize| match seq.entries.binary_search_by_key(&n, |e| e.node) {
        Ok(_) => n >= lo && n <= hi,
        Err(_) => true,
    };
    let one = carry_forward(graph, cpu_prefix, lo, seq.end, keep);
    Some(one * family.occurrences as Ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::{run_diogenes, DiogenesConfig};
    use diogenes_apps::{AlsConfig, CumfAls};

    fn als_result() -> crate::tool::DiogenesResult {
        let mut cfg = AlsConfig::test_scale();
        cfg.iters = 5;
        run_diogenes(&CumfAls::new(cfg), DiogenesConfig::new()).unwrap()
    }

    #[test]
    fn iterations_merge_into_one_family() {
        let r = als_result();
        let f = &r.families[0];
        // The first iteration's uploads are first-time transfers (not
        // yet duplicates), so its sequence has a different pattern; the
        // remaining iterations share one family.
        assert_eq!(f.occurrences, 4, "families: {}", r.families.len());
        // Fig. 6 shape: 23 displayed operations per iteration
        // (5 memcpys + 16 frees + 2 device syncs).
        assert_eq!(f.entries.len(), 23, "entries {}", f.entries.len());
        // 5 transfers carry both flags.
        let both = f.entries.iter().filter(|e| e.is_sync_issue && e.is_transfer_issue).count();
        assert_eq!(both, 5);
    }

    #[test]
    fn family_benefit_is_sum_of_occurrences() {
        let r = als_result();
        let f = &r.families[0];
        let per_seq: Ns = r
            .report
            .analysis
            .sequences
            .iter()
            .filter(|s| pattern_key(s) == f.pattern_key)
            .map(|s| s.benefit_ns)
            .sum();
        assert_eq!(f.total_benefit_ns, per_seq);
    }

    #[test]
    fn masked_family_benefit_equals_boolean_mask_reference() {
        // Regression pin: the binary-search membership must reproduce an
        // explicit suppressed-problems mask bit for bit (the semantics
        // the retired clone-and-clear path defined), with no graph clone
        // on either side.
        let r = als_result();
        let f = &r.families[0];
        let graph = r.graph();
        let prefix = graph.cpu_prefix();
        for (from, to) in [(1, f.entries.len()), (10, f.entries.len()), (5, 12), (3, 3), (9, 2)] {
            let got = family_subsequence_benefit(&graph, &prefix, f, from, to);
            let reference = (|| {
                let first = f.entries.iter().find(|e| e.index == from)?;
                let last = f.entries.iter().find(|e| e.index == to)?;
                if last.first_node < first.first_node {
                    return None;
                }
                let (lo, hi) = (first.first_node, last.last_node);
                let mut keep = vec![true; graph.nodes.len()];
                for e in &f.representative.entries {
                    if e.node < lo || e.node > hi {
                        keep[e.node] = false;
                    }
                }
                let one = carry_forward(&graph, &prefix, lo, f.representative.end, |n| keep[n]);
                Some(one * f.occurrences as Ns)
            })();
            assert_eq!(got, reference, "range {from}..{to}");
        }
    }

    #[test]
    fn subsequence_is_monotone_in_range() {
        let r = als_result();
        let f = &r.families[0];
        let graph = r.graph();
        let prefix = graph.cpu_prefix();
        let full = family_subsequence_benefit(&graph, &prefix, f, 1, f.entries.len()).unwrap();
        let sub = family_subsequence_benefit(&graph, &prefix, f, 10, f.entries.len()).unwrap();
        assert!(sub <= full, "sub {sub} vs full {full}");
        assert!(sub > 0);
        // Paper Fig. 8: the 10..23 subsequence retains most of the value.
        assert!(sub as f64 > 0.3 * full as f64, "sub {sub} should retain much of full {full}");
    }
}

/// An automatically selected subsequence (paper §5.1: "We are working on
/// ways to automate the identification of the high-impact subsequences.
/// To properly automate subsequence generation, we need to be able to
/// estimate the complexity of fixing the problematic behavior and weight
/// it against the benefit that could be obtained.")
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubsequenceChoice {
    /// 1-based display-entry range, inclusive.
    pub from: usize,
    pub to: usize,
    /// Expected benefit of fixing only this range (all occurrences).
    pub benefit_ns: Ns,
    /// Distinct call sites that would have to be edited — the complexity
    /// proxy.
    pub sites_to_edit: usize,
}

impl SubsequenceChoice {
    /// Benefit minus the modeled fixing cost.
    pub fn score(&self, fix_cost_per_site_ns: Ns) -> i128 {
        self.benefit_ns as i128 - (self.sites_to_edit as i128 * fix_cost_per_site_ns as i128)
    }
}

/// Automatically pick the highest-value subsequence of a family: search
/// every contiguous display-entry range and maximize
/// `benefit − fix_cost_per_site × distinct_sites`. A zero cost returns
/// the full sequence; a large cost concentrates on the densest core —
/// exactly the trade the paper describes.
pub fn best_subsequence(
    graph: &ExecGraph,
    family: &SequenceFamily,
    fix_cost_per_site_ns: Ns,
) -> Option<SubsequenceChoice> {
    let n = family.entries.len();
    if n == 0 {
        return None;
    }
    // One prefix column for the whole O(n²) range search.
    let cpu_prefix = graph.cpu_prefix();
    let mut best: Option<SubsequenceChoice> = None;
    for from in 1..=n {
        for to in from..=n {
            let Some(benefit_ns) = family_subsequence_benefit(graph, &cpu_prefix, family, from, to)
            else {
                continue;
            };
            let sites_to_edit = family
                .entries
                .iter()
                .filter(|e| e.index >= from && e.index <= to)
                .filter_map(|e| e.site.map(|s| s.addr()))
                .collect::<std::collections::HashSet<_>>()
                .len();
            let cand = SubsequenceChoice { from, to, benefit_ns, sites_to_edit };
            let better = match &best {
                None => true,
                Some(b) => cand.score(fix_cost_per_site_ns) > b.score(fix_cost_per_site_ns),
            };
            if better {
                best = Some(cand);
            }
        }
    }
    best
}

#[cfg(test)]
mod autoseq_tests {
    use super::*;
    use crate::tool::{run_diogenes, DiogenesConfig};
    use diogenes_apps::{AlsConfig, CumfAls};

    fn als_result() -> crate::tool::DiogenesResult {
        let mut cfg = AlsConfig::test_scale();
        cfg.iters = 5;
        run_diogenes(&CumfAls::new(cfg), DiogenesConfig::new()).unwrap()
    }

    #[test]
    fn zero_cost_selects_the_full_sequence() {
        let r = als_result();
        let f = &r.families[0];
        let graph = r.graph();
        let c = best_subsequence(&graph, f, 0).unwrap();
        assert_eq!((c.from, c.to), (1, f.entries.len()));
        let full = family_subsequence_benefit(&graph, &graph.cpu_prefix(), f, 1, f.entries.len());
        assert_eq!(Some(c.benefit_ns), full);
    }

    #[test]
    fn high_cost_concentrates_on_fewer_sites() {
        let r = als_result();
        let f = &r.families[0];
        let graph = r.graph();
        let cheap = best_subsequence(&graph, f, 0).unwrap();
        let pricey = best_subsequence(&graph, f, cheap.benefit_ns / 8).unwrap();
        assert!(pricey.sites_to_edit < cheap.sites_to_edit, "pricey {pricey:?} vs cheap {cheap:?}");
        assert!(pricey.benefit_ns > 0);
    }

    #[test]
    fn choice_score_is_maximal_over_sampled_ranges() {
        let r = als_result();
        let f = &r.families[0];
        let cost = 50_000;
        let graph = r.graph();
        let prefix = graph.cpu_prefix();
        let best = best_subsequence(&graph, f, cost).unwrap();
        for from in [1usize, 5, 10] {
            for to in [12usize, 18, f.entries.len()] {
                if to < from {
                    continue;
                }
                if let Some(b) = family_subsequence_benefit(&graph, &prefix, f, from, to) {
                    let sites = f
                        .entries
                        .iter()
                        .filter(|e| e.index >= from && e.index <= to)
                        .filter_map(|e| e.site.map(|s| s.addr()))
                        .collect::<std::collections::HashSet<_>>()
                        .len();
                    let sc = SubsequenceChoice { from, to, benefit_ns: b, sites_to_edit: sites };
                    assert!(best.score(cost) >= sc.score(cost), "{best:?} vs {sc:?}");
                }
            }
        }
    }
}
