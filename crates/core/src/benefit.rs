//! The expected-benefit algorithm (paper Fig. 5).
//!
//! Fixing a problematic operation rarely recovers its full duration: as
//! critical-path work showed, the *remaining* operations change behaviour
//! when one is removed. The paper's estimator models this on the CPU
//! graph alone. Removing a synchronization lets every launch between it
//! and the next synchronization start earlier, shrinking GPU idle time —
//! but the next synchronization then absorbs whatever the idle time could
//! not, capping the benefit:
//!
//! ```text
//! EstMaxGPUIdle = Σ duration(CWork/CLaunch nodes between Node and NextSync)
//! EstBenefit    = min(EstMaxGPUIdle, duration(Node))
//! duration(NextSync) += duration(Node) − EstBenefit
//! duration(Node)      = 0
//! ```
//!
//! Misplaced synchronizations recover up to their sync-to-first-use gap;
//! unnecessary transfers recover their CPU launch cost.

//! ### Implementation note: a fold over an append-only graph
//!
//! Fig. 5 is phrased as graph surgery — zero this duration, grow that
//! one — evaluated front to back. [`BenefitFold`] computes the identical
//! result without mutating the graph, one node at a time as nodes are
//! appended, because every mutation the algorithm performs is invisible
//! to the quantities later steps read:
//!
//! - `EstMaxGPUIdle` windows look strictly *forward* of the node under
//!   evaluation, and the only `CWork`/`CLaunch` durations the algorithm
//!   ever changes (zeroed transfers) lie at already-visited indices — so
//!   a prefix-sum column over the original durations stays exact for
//!   every window.
//! - Synchronization *growth* only ever lands on `CWait` nodes, which
//!   `EstMaxGPUIdle` never counts; the fold tracks accumulated growth in
//!   a column (`extra`) consulted when that sync is itself evaluated.
//!
//! A node resolves as soon as everything its estimate reads has been
//! appended. Steady state (buffers sized by an earlier graph), the fold
//! allocates nothing.

use gpu_sim::Ns;

use crate::graph::{prefix_cpu_time_between, ExecGraph, NType};
use crate::problem::Problem;

/// Estimator options.
#[derive(Debug, Clone)]
pub struct BenefitOptions {
    /// Clamp a misplaced synchronization's estimate to the wait it can
    /// actually shorten (`min(FirstUseTime, duration)`). The paper's
    /// Fig. 5 returns `FirstUseTime` unclamped while zeroing at most
    /// `duration` from the edge; the clamp keeps reported totals sound.
    /// Disable for the paper-exact ablation.
    pub clamp_misplaced: bool,
}

impl Default for BenefitOptions {
    fn default() -> Self {
        Self { clamp_misplaced: true }
    }
}

/// Expected benefit of one problematic node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBenefit {
    /// Node index in the analyzed graph.
    pub node: usize,
    pub problem: Problem,
    pub benefit_ns: Ns,
}

/// Result of running the estimator over a graph.
#[derive(Debug, Clone)]
pub struct BenefitReport {
    /// Per-node estimates, in graph order.
    pub per_node: Vec<NodeBenefit>,
    /// Sum of all estimates.
    pub total_ns: Ns,
    /// Predicted execution time after all problems are fixed (the sum of
    /// remaining node durations in the mutated graph).
    pub predicted_exec_ns: Ns,
}

impl BenefitReport {
    /// Benefit attributed to a specific node, if it was problematic.
    pub fn benefit_of(&self, node: usize) -> Option<Ns> {
        self.per_node.iter().find(|b| b.node == node).map(|b| b.benefit_ns)
    }
}

/// `ExpectedBenefit` from Fig. 5 over a whole graph: one
/// [`BenefitFold`] pass, finalized.
pub fn expected_benefit(graph: &ExecGraph, opts: &BenefitOptions) -> BenefitReport {
    let cpu_prefix = graph.cpu_prefix();
    let mut fold = BenefitFold::new();
    fold.finalize(graph, &cpu_prefix, opts);
    let total_duration: Ns = graph.nodes.iter().map(|n| n.duration).sum();
    BenefitReport {
        total_ns: fold.total_ns(),
        predicted_exec_ns: total_duration + fold.growth_ns() - fold.reclaim_ns(),
        per_node: fold.take_per_node(),
    }
}

/// Aggregates of resolved Fig. 5 steps. [`BenefitFold::complete_into`]
/// returns the pending suffix's share: what it adds when the graph is
/// treated as ending now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldTail {
    pub total_ns: Ns,
    pub growth_ns: Ns,
    pub reclaim_ns: Ns,
}

/// Where a Fig. 5 evaluation stands: the next node to resolve, the
/// next-`CWait` scan frontier, and the growth earlier removals pushed
/// onto later waits.
#[derive(Debug, Default)]
struct Walk {
    /// First unresolved node index.
    cursor: usize,
    /// Frontier of the next-`CWait` scan while blocked; never rescans.
    scan_from: usize,
    /// Accumulated synchronization growth (the `duration +=` edits of
    /// Fig. 5), for node `base + i` at `extra[i]`.
    extra: Vec<Ns>,
    base: usize,
    sums: FoldTail,
}

impl Walk {
    /// The one Fig. 5 step loop: resolve problematic nodes in graph
    /// order from `cursor`. With `ended` false, an `UnnecessarySync`
    /// whose next `CWait` has not been appended yet stops the walk; with
    /// `ended` true it is the program's final rendezvous, bounded by the
    /// CPU tail.
    fn run(
        &mut self,
        graph: &ExecGraph,
        cpu_prefix: &[Ns],
        opts: &BenefitOptions,
        ended: bool,
        out: &mut Vec<NodeBenefit>,
    ) {
        let n = graph.nodes.len();
        debug_assert_eq!(cpu_prefix.len(), n + 1);
        self.extra.resize(n - self.base, 0);
        while self.cursor < n {
            let idx = self.cursor;
            let node = &graph.nodes[idx];
            if node.problem == Problem::None {
                self.cursor += 1;
                continue;
            }
            // Effective duration = original + growth received from
            // earlier removals (Fig. 5's mutated duration).
            let dur = node.duration + self.extra[idx - self.base];
            let benefit_ns = match node.problem {
                Problem::None => unreachable!(),
                Problem::UnnecessarySync => {
                    self.scan_from = self.scan_from.max(idx + 1);
                    while self.scan_from < n && graph.nodes[self.scan_from].ntype != NType::CWait {
                        self.scan_from += 1;
                    }
                    let est = if self.scan_from < n {
                        let next_sync = self.scan_from;
                        let est = prefix_cpu_time_between(cpu_prefix, idx, next_sync).min(dur);
                        self.extra[next_sync - self.base] += dur - est;
                        self.sums.growth_ns += dur - est;
                        est
                    } else if ended {
                        prefix_cpu_time_between(cpu_prefix, idx, n).min(dur)
                    } else {
                        // The estimate needs the next synchronization,
                        // which has not been appended yet.
                        return;
                    };
                    self.sums.reclaim_ns += dur;
                    est
                }
                Problem::MisplacedSync => {
                    let first_use = node.first_use_ns.unwrap_or(0);
                    // The sync keeps `dur - min(first_use, dur)`.
                    self.sums.reclaim_ns += first_use.min(dur);
                    if opts.clamp_misplaced {
                        first_use.min(dur)
                    } else {
                        first_use
                    }
                }
                Problem::UnnecessaryTransfer => {
                    self.sums.reclaim_ns += dur;
                    dur
                }
            };
            self.sums.total_ns += benefit_ns;
            out.push(NodeBenefit { node: idx, problem: node.problem, benefit_ns });
            self.cursor += 1;
        }
    }
}

/// Append-only evaluator for the Fig. 5 estimator.
///
/// An `UnnecessarySync`'s estimate depends on the *next*
/// synchronization, so the fold keeps an evaluation cursor that trails
/// the append frontier: a node resolves as soon as everything its
/// estimate reads has been appended (for an `UnnecessarySync`, the next
/// `CWait`; for every other classification, immediately). Resolution
/// happens in graph order, so the resolved per-node estimates are always
/// a prefix of the whole-graph answer, and after
/// [`BenefitFold::finalize`] they are all of it.
///
/// The caller owns the growing CPU prefix-sum column (shared with
/// sequence evaluation) and passes it to every call. Steady state —
/// graph shapes already seen since the last [`BenefitFold::reset`] —
/// the fold allocates nothing.
#[derive(Debug, Default)]
pub struct BenefitFold {
    walk: Walk,
    per_node: Vec<NodeBenefit>,
    finished: bool,
}

impl BenefitFold {
    pub fn new() -> BenefitFold {
        BenefitFold::default()
    }

    /// Clear all state (keeping buffer capacity) for a fresh graph.
    pub fn reset(&mut self) {
        self.walk.extra.clear();
        self.walk = Walk { extra: std::mem::take(&mut self.walk.extra), ..Walk::default() };
        self.per_node.clear();
        self.finished = false;
    }

    /// Fold the nodes appended since the last call and advance the
    /// evaluation cursor as far as it can resolve. `cpu_prefix` must
    /// cover the whole graph (`len == nodes.len() + 1`).
    pub fn extend(&mut self, graph: &ExecGraph, cpu_prefix: &[Ns], opts: &BenefitOptions) {
        assert!(!self.finished, "extend after finalize");
        self.walk.run(graph, cpu_prefix, opts, false, &mut self.per_node);
    }

    /// Resolve every pending node under end-of-graph semantics. After
    /// this the fold holds the whole-graph answer.
    pub fn finalize(&mut self, graph: &ExecGraph, cpu_prefix: &[Ns], opts: &BenefitOptions) {
        assert!(!self.finished, "finalize called twice");
        self.walk.run(graph, cpu_prefix, opts, true, &mut self.per_node);
        self.finished = true;
    }

    /// Non-destructively evaluate the pending suffix as if the graph
    /// ended now, appending its per-node estimates to `out`. `scratch`
    /// is a caller-held fold whose buffers the evaluation reuses (the
    /// snapshot must not disturb this fold). Returns the pending
    /// contribution to the aggregates.
    pub fn complete_into(
        &self,
        graph: &ExecGraph,
        cpu_prefix: &[Ns],
        opts: &BenefitOptions,
        out: &mut Vec<NodeBenefit>,
        scratch: &mut BenefitFold,
    ) -> FoldTail {
        let base = self.walk.cursor;
        let w = &mut scratch.walk;
        w.cursor = base;
        w.scan_from = base;
        w.base = base;
        w.extra.clear();
        w.extra.extend_from_slice(&self.walk.extra[base..]);
        w.sums = FoldTail::default();
        w.run(graph, cpu_prefix, opts, true, out);
        w.sums
    }

    /// Resolved per-node estimates so far, in graph order.
    pub fn per_node(&self) -> &[NodeBenefit] {
        &self.per_node
    }

    /// Move the resolved per-node buffer out; only valid after
    /// [`BenefitFold::finalize`].
    pub fn take_per_node(&mut self) -> Vec<NodeBenefit> {
        assert!(self.finished, "take_per_node before finalize");
        std::mem::take(&mut self.per_node)
    }

    /// Sum of resolved estimates.
    pub fn total_ns(&self) -> Ns {
        self.walk.sums.total_ns
    }

    /// Net growth resolved syncs pushed onto later waits.
    pub fn growth_ns(&self) -> Ns {
        self.walk.sums.growth_ns
    }

    /// Total duration reclaimed from resolved nodes; the predicted
    /// execution time is `total_duration + growth_ns - reclaim_ns`.
    pub fn reclaim_ns(&self) -> Ns {
        self.walk.sums.reclaim_ns
    }
}

#[cfg(test)]
#[path = "../../bench/src/reference.rs"]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::expected_benefit_reference;
    use super::*;
    use crate::graph::{NType, Node};
    use crate::records::OpInstance;
    use gpu_sim::SourceLoc;

    /// Build a graph from (ntype, duration, problem) triples.
    fn graph(spec: &[(NType, Ns, Problem)]) -> ExecGraph {
        let mut t = 0;
        let nodes = spec
            .iter()
            .enumerate()
            .map(|(i, &(ntype, duration, problem))| {
                let n = Node {
                    ntype,
                    stime: t,
                    duration,
                    problem,
                    first_use_ns: Option::None,
                    call_seq: Some(i),
                    instance: Some(OpInstance { sig: i as u64, occ: 0 }),
                    api: Option::None,
                    site: Some(SourceLoc::new("t.cpp", i as u32 + 1)),
                    is_transfer: problem == Problem::UnnecessaryTransfer,
                };
                t += duration;
                n
            })
            .collect();
        let exec: Ns = spec.iter().map(|s| s.1).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    use NType::*;
    use Problem::*;

    #[test]
    fn large_benefit_when_cpu_work_fills_the_gap() {
        // Paper Fig. 4, "large benefit" shape: plenty of CPU work between
        // the removed wait and the next one, so the GPU keeps busy and
        // the next wait does not grow.
        let g = graph(&[
            (CWork, 8, None),
            (CLaunch, 2, None),
            (CWait, 10, UnnecessarySync), // remove me
            (CWork, 10, None),            // enough work to absorb
            (CLaunch, 2, None),
            (CWait, 4, None),
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 10, "full wait recovered");
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns - 10);
    }

    #[test]
    fn small_benefit_when_next_wait_absorbs_the_savings() {
        // Fig. 4 "small benefit" shape: little CPU work between waits, so
        // the second wait grows to fill most of what was removed.
        let g = graph(&[
            (CWork, 8, None),
            (CLaunch, 2, None),
            (CWait, 10, UnnecessarySync), // remove me
            (CWork, 3, None),             // only 3ns of absorbable idle
            (CWait, 4, None),
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 3, "benefit limited to CPU time between syncs");
        // The second wait grew by the unabsorbed 7ns.
        // predicted = exec - removed(10) + growth(7) = exec - 3.
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns - 3);
    }

    #[test]
    fn removing_final_sync_is_bounded_by_tail_work() {
        let g = graph(&[
            (CWork, 5, None),
            (CWait, 10, UnnecessarySync),
            (CWork, 4, None), // program tail
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 4);
    }

    #[test]
    fn misplaced_sync_recovers_first_use_gap() {
        let mut g = graph(&[(CWork, 5, None), (CWait, 20, MisplacedSync), (CWork, 50, None)]);
        g.nodes[1].first_use_ns = Some(8);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 8);
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns - 8);
    }

    #[test]
    fn misplaced_clamp_limits_to_wait_duration() {
        let mut g = graph(&[(CWork, 5, None), (CWait, 10, MisplacedSync), (CWork, 50, None)]);
        g.nodes[1].first_use_ns = Some(40); // gap longer than the wait
        let clamped = expected_benefit(&g, &BenefitOptions { clamp_misplaced: true });
        assert_eq!(clamped.total_ns, 10);
        let paper = expected_benefit(&g, &BenefitOptions { clamp_misplaced: false });
        assert_eq!(paper.total_ns, 40, "paper-exact returns FirstUseTime");
        // Both leave the same mutated graph (duration floor at 0).
        assert_eq!(clamped.predicted_exec_ns, paper.predicted_exec_ns);
    }

    #[test]
    fn transfer_removal_recovers_launch_cost() {
        let g = graph(&[(CWork, 5, None), (CLaunch, 12, UnnecessaryTransfer), (CWait, 3, None)]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.total_ns, 12);
    }

    #[test]
    fn consecutive_removals_interact_through_next_sync_growth() {
        // Two unnecessary syncs in a row with little CPU work between:
        // the second one's duration grows before it is evaluated, but
        // removal of the second is then bounded by the work after it.
        let g = graph(&[
            (CWait, 10, UnnecessarySync),
            (CWork, 2, None),
            (CWait, 5, UnnecessarySync),
            (CWork, 4, None),
            (CWait, 1, None),
        ]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        // First removal: idle=2 ⇒ est 2; second sync grows to 5+8=13.
        // Second removal: idle=4 ⇒ est 4; final sync grows by 9.
        assert_eq!(r.per_node[0].benefit_ns, 2);
        assert_eq!(r.per_node[1].benefit_ns, 4);
        assert_eq!(r.total_ns, 6);
    }

    #[test]
    fn clean_graph_reports_nothing() {
        let g = graph(&[(CWork, 10, None), (CWait, 5, None)]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert!(r.per_node.is_empty());
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.predicted_exec_ns, g.exec_time_ns);
    }

    /// Deterministic pseudo-random graphs covering every problem kind in
    /// every adjacency pattern, for differential testing of the fold
    /// against the mutating reference.
    fn scrambled(len: usize, seed: u64) -> ExecGraph {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = 0;
        let nodes: Vec<Node> = (0..len)
            .map(|i| {
                let (ntype, problem) = match next() % 8 {
                    0 | 1 => (CWait, UnnecessarySync),
                    2 => (CWait, None),
                    3 => (CWait, MisplacedSync),
                    4 => (CLaunch, UnnecessaryTransfer),
                    5 => (CLaunch, Problem::None),
                    _ => (CWork, Problem::None),
                };
                let duration = next() % 50;
                let n = Node {
                    ntype,
                    stime: t,
                    duration,
                    problem,
                    first_use_ns: (problem == MisplacedSync).then(|| next() % 60),
                    call_seq: Some(i),
                    instance: Some(OpInstance { sig: i as u64, occ: 0 }),
                    api: Option::None,
                    site: Some(SourceLoc::new("t.cpp", i as u32 + 1)),
                    is_transfer: problem == UnnecessaryTransfer,
                };
                t += duration;
                n
            })
            .collect();
        let exec: Ns = nodes.iter().map(|n| n.duration).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    /// The fold must reproduce the mutating reference exactly — per
    /// node, totals, and predicted time — for both clamp modes, and a
    /// reset fold must not leak state between graphs.
    #[test]
    fn fold_matches_mutating_reference() {
        let mut fold = BenefitFold::new();
        for (len, seed) in [(0, 1), (1, 2), (7, 3), (93, 4), (512, 5), (513, 6), (64, 7)] {
            let g = scrambled(len, seed);
            let prefix = g.cpu_prefix();
            for clamp in [true, false] {
                let opts = BenefitOptions { clamp_misplaced: clamp };
                let reference = expected_benefit_reference(&g, &opts);
                // Fresh-fold wrapper path.
                let wrapped = expected_benefit(&g, &opts);
                assert_eq!(wrapped.per_node, reference.per_node, "len={len} clamp={clamp}");
                assert_eq!(wrapped.total_ns, reference.total_ns);
                assert_eq!(wrapped.predicted_exec_ns, reference.predicted_exec_ns);
                // Reused-fold path (buffers carried over from prior runs).
                fold.reset();
                fold.finalize(&g, &prefix, &opts);
                assert_eq!(fold.per_node(), &reference.per_node[..], "reused len={len}");
                assert_eq!(fold.total_ns(), reference.total_ns);
                let total_duration: Ns = g.nodes.iter().map(|n| n.duration).sum();
                assert_eq!(
                    total_duration + fold.growth_ns() - fold.reclaim_ns(),
                    reference.predicted_exec_ns,
                    "reused predicted len={len} clamp={clamp}"
                );
            }
        }
    }

    /// The append-only fold must resolve to exactly the reference result
    /// for every windowing, and every intermediate snapshot (resolved +
    /// pending overlay) must equal the reference over the prefix graph.
    #[test]
    fn fold_matches_reference_for_any_windowing() {
        for (len, seed) in [(0usize, 1u64), (1, 2), (7, 3), (93, 4), (512, 5), (64, 7)] {
            let g = scrambled(len, seed);
            for clamp in [true, false] {
                let opts = BenefitOptions { clamp_misplaced: clamp };
                let reference = expected_benefit_reference(&g, &opts);
                for window in [1usize, 3, 16, 600] {
                    let mut fold = BenefitFold::new();
                    let mut partial = ExecGraph {
                        nodes: Vec::new(),
                        exec_time_ns: g.exec_time_ns,
                        baseline_exec_ns: g.baseline_exec_ns,
                    };
                    let mut prefix: Vec<Ns> = vec![0];
                    let mut scratch = BenefitFold::new();
                    let mut lo = 0;
                    while lo < len {
                        let hi = (lo + window).min(len);
                        for node in &g.nodes[lo..hi] {
                            let cpu = matches!(node.ntype, CWork | CLaunch);
                            let last = *prefix.last().unwrap();
                            prefix.push(last + if cpu { node.duration } else { 0 });
                            partial.nodes.push(node.clone());
                        }
                        fold.extend(&partial, &prefix, &opts);
                        // Snapshot check: resolved + pending == batch
                        // over the prefix graph.
                        let prefix_graph = ExecGraph {
                            nodes: g.nodes[..hi].to_vec(),
                            exec_time_ns: g.exec_time_ns,
                            baseline_exec_ns: g.baseline_exec_ns,
                        };
                        let pref = expected_benefit_reference(&prefix_graph, &opts);
                        let mut snap = fold.per_node().to_vec();
                        let tail =
                            fold.complete_into(&partial, &prefix, &opts, &mut snap, &mut scratch);
                        assert_eq!(snap, pref.per_node, "len={len} window={window} hi={hi}");
                        assert_eq!(fold.total_ns() + tail.total_ns, pref.total_ns);
                        let total_duration: Ns = partial.nodes.iter().map(|n| n.duration).sum();
                        assert_eq!(
                            total_duration + fold.growth_ns() + tail.growth_ns
                                - fold.reclaim_ns()
                                - tail.reclaim_ns,
                            pref.predicted_exec_ns,
                            "predicted len={len} window={window} hi={hi}"
                        );
                        lo = hi;
                    }
                    fold.finalize(&partial, &prefix, &opts);
                    assert_eq!(fold.per_node(), &reference.per_node[..], "w={window}");
                    assert_eq!(fold.total_ns(), reference.total_ns);
                    let total_duration: Ns = g.nodes.iter().map(|n| n.duration).sum();
                    assert_eq!(
                        total_duration + fold.growth_ns() - fold.reclaim_ns(),
                        reference.predicted_exec_ns
                    );
                }
            }
        }
    }

    #[test]
    fn fold_reset_reuses_buffers_cleanly() {
        let g = scrambled(64, 9);
        let opts = BenefitOptions::default();
        let reference = expected_benefit_reference(&g, &opts);
        let mut fold = BenefitFold::new();
        let prefix = g.cpu_prefix();
        for _ in 0..3 {
            fold.reset();
            fold.extend(&g, &prefix, &opts);
            fold.finalize(&g, &prefix, &opts);
            assert_eq!(fold.per_node(), &reference.per_node[..]);
            assert_eq!(fold.total_ns(), reference.total_ns);
            let total_duration: Ns = g.nodes.iter().map(|n| n.duration).sum();
            assert_eq!(
                total_duration + fold.growth_ns() - fold.reclaim_ns(),
                reference.predicted_exec_ns
            );
        }
    }

    #[test]
    fn benefit_of_lookup() {
        let g = graph(&[(CWait, 10, UnnecessarySync), (CWork, 20, None), (CWait, 1, None)]);
        let r = expected_benefit(&g, &BenefitOptions::default());
        assert_eq!(r.benefit_of(0), Some(10));
        assert!(r.benefit_of(1).is_none());
    }
}
