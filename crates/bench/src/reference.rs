//! The clone-and-mutate transcription of the paper's Fig. 5: the
//! differential oracle for the fold ([`ffm_core::BenefitFold`]) and the
//! "before" row of `bench_analysis`. The `ffm-core` unit tests compile
//! this same file, so the oracle has one copy.

use ffm_core::{BenefitOptions, BenefitReport, ExecGraph, NodeBenefit, Problem};
use gpu_sim::Ns;

/// `RemoveSyncronization` from Fig. 5 (spelling faithfully theirs).
fn remove_synchronization(g: &mut ExecGraph, node: usize) -> Ns {
    let dur = g.nodes[node].duration;
    let est = match g.next_sync_after(node) {
        Some(next_sync) => {
            let est = g.cpu_time_between(node, next_sync).min(dur);
            // The next synchronization grows by whatever the idle time
            // between the two could not absorb.
            g.nodes[next_sync].duration += dur - est;
            est
        }
        // No later synchronization: the program's final rendezvous,
        // bounded by the CPU time that remains to overlap.
        None => g.cpu_time_between(node, g.nodes.len()).min(dur),
    };
    g.nodes[node].duration = 0;
    est
}

/// `MisplacedSynchronization` from Fig. 5: moving the sync later by the
/// first-use gap converts up to that much wait into overlap.
fn move_synchronization(g: &mut ExecGraph, node: usize, opts: &BenefitOptions) -> Ns {
    let dur = g.nodes[node].duration;
    let first_use = g.nodes[node].first_use_ns.unwrap_or(0);
    g.nodes[node].duration = dur.saturating_sub(first_use);
    if opts.clamp_misplaced {
        first_use.min(dur)
    } else {
        first_use
    }
}

/// `RemoveMemoryTransfer` from Fig. 5: the CPU launch cost disappears.
fn remove_memory_transfer(g: &mut ExecGraph, node: usize) -> Ns {
    let est = g.nodes[node].duration;
    g.nodes[node].duration = 0;
    est
}

/// `ExpectedBenefit` from Fig. 5: evaluate every problematic node, in
/// program order, against a progressively mutated copy of the graph.
pub fn expected_benefit_reference(graph: &ExecGraph, opts: &BenefitOptions) -> BenefitReport {
    let mut g = graph.clone();
    let mut per_node = Vec::new();
    for idx in 0..g.nodes.len() {
        let problem = g.nodes[idx].problem;
        let benefit_ns = match problem {
            Problem::None => continue,
            Problem::UnnecessarySync => remove_synchronization(&mut g, idx),
            Problem::MisplacedSync => move_synchronization(&mut g, idx, opts),
            Problem::UnnecessaryTransfer => remove_memory_transfer(&mut g, idx),
        };
        per_node.push(NodeBenefit { node: idx, problem, benefit_ns });
    }
    let total_ns = per_node.iter().map(|b| b.benefit_ns).sum();
    let predicted_exec_ns = g.nodes.iter().map(|n| n.duration).sum();
    BenefitReport { per_node, total_ns, predicted_exec_ns }
}
