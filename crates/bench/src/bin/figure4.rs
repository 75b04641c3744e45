//! Regenerate paper Figure 4: the two outcomes of removing a problematic
//! synchronization — large benefit when CPU work between waits keeps the
//! GPU busy, small benefit when the next wait grows to absorb the
//! savings. Built directly on the execution-graph estimator.

use ffm_core::{expected_benefit, BenefitOptions, ExecGraph, NType, Node, Problem};
use gpu_sim::Ns;

fn node(ntype: NType, duration: Ns, problem: Problem) -> Node {
    Node {
        ntype,
        stime: 0,
        duration,
        problem,
        first_use_ns: None,
        call_seq: None,
        instance: None,
        api: None,
        site: None,
        is_transfer: false,
    }
}

fn graph(spec: &[(NType, Ns, Problem)]) -> ExecGraph {
    let mut t = 0;
    let nodes = spec
        .iter()
        .map(|&(nt, d, p)| {
            let mut n = node(nt, d, p);
            n.stime = t;
            t += d;
            n
        })
        .collect();
    ExecGraph { nodes, exec_time_ns: t, baseline_exec_ns: t }
}

fn show(title: &str, g: &ExecGraph) {
    let r = expected_benefit(g, &BenefitOptions::default());
    println!("--- {title} ---");
    println!("program duration before removal: {} ns", g.exec_time_ns);
    for nb in &r.per_node {
        println!(
            "  removing {:?} node (duration {} ns) -> estimated benefit {} ns",
            g.nodes[nb.node].ntype, // CWait
            10,
            nb.benefit_ns
        );
    }
    println!("predicted duration after removal: {} ns", r.predicted_exec_ns);
    println!("total estimated benefit: {} ns\n", r.total_ns);
}

fn main() {
    use NType::*;
    use Problem::*;
    println!("Figure 4: outcomes of removing the first wait (CWait0, 10 ns)\n");

    // Large benefit: plenty of CPU work (launches + work) between CWait0
    // and CWait1, so removing CWait0 converts fully into progress.
    let large = graph(&[
        (CWork, 8, None),
        (CLaunch, 2, None),
        (CWait, 10, UnnecessarySync),
        (CWork, 7, None),
        (CLaunch, 3, None),
        (CWait, 4, None),
        (CWork, 4, None),
    ]);
    show("synchronization removed with LARGE benefit", &large);

    // Small benefit: almost no CPU work between the waits; the second
    // wait grows to fill most of the removed time.
    let small = graph(&[
        (CWork, 8, None),
        (CLaunch, 2, None),
        (CWait, 10, UnnecessarySync),
        (CLaunch, 1, None),
        (CWait, 9, None),
        (CWork, 4, None),
    ]);
    show("synchronization removed with SMALL benefit", &small);
}
