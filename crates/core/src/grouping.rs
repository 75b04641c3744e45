//! Node groupings (paper §3.5.2) and the stage 5 fold that produces them.
//!
//! Multiple problematic operations usually share one underlying cause, so
//! Diogenes groups them where a single fix would apply: at one call site
//! (**single point**), folded over every call of one API entry point
//! (**fold**, the Fig. 7 "Fold on cudaFree" rows), or across a contiguous
//! run of problematic operations (**sequence**, with carry-forward of savings
//! that one window's GPU idle time could not absorb). Sequences support
//! user-refined **subsequences** (paper Fig. 8).
//!
//! [`IncrementalAnalysis`] is the one implementation of stage 5: it folds
//! the classified graph in append order — the whole graph at once for
//! [`crate::analyze`], one window per epoch for the streaming driver —
//! into benefit estimates, groups and sequence runs.

use std::collections::HashMap;
use std::fmt::Write as _;

use cuda_driver::ApiFn;
use gpu_sim::{Ns, SourceLoc};

use crate::analysis::{Analysis, AnalysisConfig, ProblemOp};
use crate::benefit::{BenefitFold, BenefitReport, NodeBenefit};
use crate::graph::{prefix_cpu_time_between, Csr, ExecGraph, NType, Node};
use crate::intern::{intern, intern_static, Sym};
use crate::problem::Problem;

/// How a group was formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKind {
    SinglePoint,
    FoldedFunction,
    Sequence,
}

/// A group of problematic operations sharing a fix point.
#[derive(Debug, Clone)]
pub struct ProblemGroup {
    pub kind: GroupKind,
    /// Human-readable identity ("cudaFree in als.cpp at line 856",
    /// "Fold on cudaFree", ...), interned — resolve with
    /// [`Sym::resolve`]; exporters write it via [`crate::Json::Sym`].
    pub label: Sym,
    pub benefit_ns: Ns,
    /// Graph node indices of the members.
    pub nodes: Vec<usize>,
    pub sync_issues: usize,
    pub transfer_issues: usize,
}

/// Intern the composed site label for a node ("cudaFree in als.cpp at
/// line 856"). `buf` is a reusable compose buffer: once it has grown to
/// the longest label and every distinct label is in the intern table,
/// calls allocate nothing.
fn site_label_sym(graph: &ExecGraph, node: usize, buf: &mut String) -> Sym {
    let n = &graph.nodes[node];
    match (n.api, n.site) {
        (Some(api), Some(site)) => {
            buf.clear();
            let _ = write!(buf, "{} in {} at line {}", api.name(), site.file, site.line);
            intern(buf)
        }
        (Some(api), None) => intern_static(api.name()),
        _ => intern_static("<unknown>"),
    }
}

/// Intern the per-API fold label ("Fold on cudaFree").
fn fold_label_sym(graph: &ExecGraph, node: usize, buf: &mut String) -> Sym {
    buf.clear();
    let _ =
        write!(buf, "Fold on {}", graph.nodes[node].api.map(|a| a.name()).unwrap_or("<unknown>"));
    intern(buf)
}

/// Single-point grouping key: identical stack traces matched by address.
fn single_point_key(graph: &ExecGraph, node: usize) -> Option<u64> {
    graph.nodes[node].instance.map(|i| i.sig)
}

/// Per-API fold key (the Fig. 7 overview rows: "Fold on cudaFree").
fn api_key(graph: &ExecGraph, node: usize) -> Option<u64> {
    graph.nodes[node].api.map(|a| a.index() as u64)
}

/// Reusable working state for one grouping.
///
/// Dense `Vec`-indexed tables keyed by a small group id (`gid`, assigned
/// in first-appearance order) and a [`Csr`] member index built by
/// counting sort. A grouping pass is [`GroupScratch::begin`], one or more
/// [`GroupScratch::absorb`] calls, then [`GroupScratch::seal`]. All
/// buffers are retained between passes, so steady-state grouping —
/// repeat passes over same-shaped graphs — allocates nothing
/// (`bench_analysis --smoke` asserts this).
#[derive(Debug, Default, Clone)]
pub struct GroupScratch {
    /// Grouping key (sig / folded sig / API index) → gid.
    gid_of_key: HashMap<u64, u32>,
    /// gid → representative node (first member in benefit order).
    rep_node: Vec<usize>,
    /// gid → summed benefit.
    benefit: Vec<Ns>,
    /// gid → member problem tallies.
    sync_issues: Vec<usize>,
    transfer_issues: Vec<usize>,
    /// (gid, node) per benefit entry, in benefit order.
    pairs: Vec<(u32, usize)>,
    /// gid → member nodes, CSR layout.
    members: Csr,
    /// gids sorted for presentation (descending benefit, ties in
    /// first-appearance order).
    sorted: Vec<u32>,
    /// Compose buffer for label interning.
    label_buf: String,
}

/// Read-only view of one group inside a [`GroupScratch`].
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    pub benefit_ns: Ns,
    /// Member nodes, in benefit (graph) order.
    pub nodes: &'a [usize],
    /// Representative (first) member node, for labeling.
    pub rep_node: usize,
    pub sync_issues: usize,
    pub transfer_issues: usize,
}

impl GroupScratch {
    pub fn new() -> GroupScratch {
        GroupScratch::default()
    }

    /// Clear the accumulation tables (keeping capacity) for a fresh
    /// grouping pass.
    pub fn begin(&mut self) {
        self.gid_of_key.clear();
        self.rep_node.clear();
        self.benefit.clear();
        self.sync_issues.clear();
        self.transfer_issues.clear();
        self.pairs.clear();
    }

    /// Fold more benefit entries into the running tables, bucketed by
    /// `key`. Entries must arrive in benefit (graph) order across calls,
    /// so gid assignment — and therefore presentation tie-breaking and
    /// member order — does not depend on how the entries were batched.
    /// Steady state this allocates nothing: the tables grow only while
    /// new keys keep appearing.
    pub fn absorb(&mut self, entries: &[NodeBenefit], mut key: impl FnMut(usize) -> Option<u64>) {
        for nb in entries {
            let Some(k) = key(nb.node) else { continue };
            let next = self.rep_node.len() as u32;
            let gid = *self.gid_of_key.entry(k).or_insert(next);
            if gid == next {
                self.rep_node.push(nb.node);
                self.benefit.push(0);
                self.sync_issues.push(0);
                self.transfer_issues.push(0);
            }
            let g = gid as usize;
            self.benefit[g] += nb.benefit_ns;
            if nb.problem.is_sync() {
                self.sync_issues[g] += 1;
            } else if nb.problem == Problem::UnnecessaryTransfer {
                self.transfer_issues[g] += 1;
            }
            self.pairs.push((gid, nb.node));
        }
    }

    /// Build the CSR member index and the presentation order from the
    /// accumulated tables.
    pub fn seal(&mut self) {
        self.members.rebuild_from_pairs(self.rep_node.len(), &self.pairs);
        self.sorted.clear();
        self.sorted.extend(0..self.rep_node.len() as u32);
        // Unstable sort with the gid tiebreak ≡ stable sort by benefit:
        // gids are assigned in first-appearance order. In-place, so no
        // merge buffer allocation.
        let benefit = &self.benefit;
        self.sorted.sort_unstable_by_key(|&g| (std::cmp::Reverse(benefit[g as usize]), g));
    }

    /// Copy another scratch's accumulated state into this one, reusing
    /// this scratch's buffers. Used by snapshots: the running tables are
    /// copied, overlaid with still-pending entries, and sealed — without
    /// disturbing the incremental state.
    pub fn copy_from(&mut self, other: &GroupScratch) {
        self.gid_of_key.clone_from(&other.gid_of_key);
        self.rep_node.clone_from(&other.rep_node);
        self.benefit.clone_from(&other.benefit);
        self.sync_issues.clone_from(&other.sync_issues);
        self.transfer_issues.clone_from(&other.transfer_issues);
        self.pairs.clone_from(&other.pairs);
    }

    /// Number of groups found by the last [`GroupScratch::seal`].
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Group `i` in presentation (descending-benefit) order.
    pub fn group(&self, i: usize) -> GroupView<'_> {
        let gid = self.sorted[i] as usize;
        GroupView {
            benefit_ns: self.benefit[gid],
            nodes: self.members.row(gid),
            rep_node: self.rep_node[gid],
            sync_issues: self.sync_issues[gid],
            transfer_issues: self.transfer_issues[gid],
        }
    }

    /// Materialize owned [`ProblemGroup`]s from the sealed tables.
    fn materialize(
        &mut self,
        graph: &ExecGraph,
        kind: GroupKind,
        label: impl Fn(&ExecGraph, usize, &mut String) -> Sym,
    ) -> Vec<ProblemGroup> {
        let mut buf = std::mem::take(&mut self.label_buf);
        let groups = (0..self.len())
            .map(|i| {
                let v = self.group(i);
                ProblemGroup {
                    kind,
                    label: label(graph, v.rep_node, &mut buf),
                    benefit_ns: v.benefit_ns,
                    nodes: v.nodes.to_vec(),
                    sync_issues: v.sync_issues,
                    transfer_issues: v.transfer_issues,
                }
            })
            .collect();
        self.label_buf = buf;
        groups
    }
}

/// One entry of a sequence listing (paper Fig. 6).
#[derive(Debug, Clone)]
pub struct SeqEntry {
    /// 1-based position in the sequence display.
    pub index: usize,
    /// Graph node index.
    pub node: usize,
    /// Traced call the node came from (a call's launch and wait nodes
    /// share it; `None` for nodes without a call).
    pub call_seq: Option<usize>,
    pub api: Option<ApiFn>,
    pub site: Option<SourceLoc>,
    pub problem: Problem,
}

/// A contiguous run of problematic operations.
#[derive(Debug, Clone)]
pub struct Sequence {
    /// First graph node of the run (a problematic node).
    pub start: usize,
    /// Exclusive end: index of the terminating necessary synchronization
    /// (or `nodes.len()` when the run reaches the end of the program).
    pub end: usize,
    /// The problematic operations, in order.
    pub entries: Vec<SeqEntry>,
    /// Carry-forward benefit estimate for fixing the whole run.
    pub benefit_ns: Ns,
}

impl Sequence {
    pub fn sync_issues(&self) -> usize {
        self.entries.iter().filter(|e| e.problem.is_sync()).count()
    }

    pub fn transfer_issues(&self) -> usize {
        self.entries.iter().filter(|e| e.problem == Problem::UnnecessaryTransfer).count()
    }
}

/// The carry-forward estimator over nodes `[start, end)`.
///
/// Each removed synchronization's duration first tries to be absorbed by
/// the CPU work between it and the next synchronization; what cannot be
/// absorbed is *carried forward* to later windows instead of being dumped
/// into the next synchronization (the small modification to
/// `RemoveSyncronization` described in §3.5.2). Transfers contribute
/// their full CPU cost. Returns the total estimate.
///
/// `cpu_prefix` is the CPU prefix column ([`ExecGraph::cpu_prefix`]) of
/// the nodes the estimator may look at: a sync's window ends at the next
/// `CWait` among them, or at their end. The streaming fold passes the
/// column grown so far; a run closed at its terminating sync scores the
/// same as it would on the whole graph.
///
/// Nodes for which `mask` returns `false` count as unproblematic. Window
/// ends depend only on node types, which a mask never changes, so this
/// equals clearing those nodes' classifications on a copy of the graph
/// — the Fig. 8 subsequence refinement — without the copy.
pub fn carry_forward(
    graph: &ExecGraph,
    cpu_prefix: &[Ns],
    start: usize,
    end: usize,
    mask: impl Fn(usize) -> bool,
) -> Ns {
    let limit = cpu_prefix.len() - 1;
    let mut total: Ns = 0;
    let mut carry: Ns = 0;
    let mut scan = start;
    for idx in start..end.min(limit) {
        let node = &graph.nodes[idx];
        let problem = if mask(idx) { node.problem } else { Problem::None };
        match problem {
            Problem::UnnecessarySync => {
                scan = scan.max(idx + 1);
                while scan < limit && graph.nodes[scan].ntype != NType::CWait {
                    scan += 1;
                }
                let avail = prefix_cpu_time_between(cpu_prefix, idx, scan);
                let demand = node.duration + carry;
                let est = avail.min(demand);
                total += est;
                carry = demand - est;
            }
            Problem::MisplacedSync => {
                let est = node.first_use_ns.unwrap_or(0).min(node.duration + carry);
                total += est;
                carry = (node.duration + carry).saturating_sub(est);
            }
            Problem::UnnecessaryTransfer => {
                total += node.duration;
            }
            Problem::None => {}
        }
    }
    total
}

/// Is this node a *necessary* synchronization that terminates a run?
/// (A `CWait` with no problem, or a misplaced one — it must still
/// happen.)
fn is_terminator(n: &Node) -> bool {
    n.ntype == NType::CWait && matches!(n.problem, Problem::None | Problem::MisplacedSync)
}

/// Does this node start a run? Every problem except `MisplacedSync`
/// qualifies (a misplaced sync is still necessary, so it cannot open a
/// removable run — it can only appear inside one).
fn is_starter(n: &Node) -> bool {
    !matches!(n.problem, Problem::None | Problem::MisplacedSync)
}

/// Per-window statistics returned by [`IncrementalAnalysis::fold`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Graph nodes appended in this window.
    pub nodes: usize,
    /// Benefit entries that became resolvable in this window.
    pub resolved: usize,
}

/// One candidate run discovered by the sequence tracker: terminators
/// split the node array into segments, and each segment containing a
/// starter yields one maximal run, from its first starter to the
/// terminator (exclusive) or the end of the program.
#[derive(Debug, Clone, Copy)]
struct RunState {
    start: usize,
    /// Exclusive end (the terminator index).
    end: usize,
    /// Problem entries in `[start, end)`.
    entries: usize,
    /// Carry-forward estimate, computed at close time (only when
    /// `entries > 1`; runs below the display threshold keep 0).
    benefit_ns: Ns,
}

/// Stage 5 as an append-only state machine: it folds each window of
/// freshly appended (and already classified) graph nodes into running
/// benefit estimates, problem groups and sequence runs.
///
/// Every constituent is resolved in graph order — benefit via
/// [`BenefitFold`], groups via [`GroupScratch`] absorption in entry
/// order, runs closed at their terminators with [`carry_forward`] — so
/// the result does not depend on how the graph was windowed:
/// [`IncrementalAnalysis::finish`] after one fold over the whole graph
/// (what [`crate::analyze`] does) equals the finish of any windowed
/// fold (pinned by `streaming_identity` at the report-byte level).
/// Intermediate [`IncrementalAnalysis::snapshot`]s equal the analysis of
/// the graph prefix seen so far (pending entries are overlaid
/// non-destructively). The per-window fold itself performs zero
/// steady-state allocations; snapshots allocate (they materialize an
/// owned [`Analysis`]).
#[derive(Debug)]
pub struct IncrementalAnalysis {
    cfg: AnalysisConfig,
    /// Growing CPU prefix column (`len == nodes folded + 1`).
    cpu_prefix: Vec<Ns>,
    /// Sum of all folded node durations.
    total_duration: Ns,
    fold: BenefitFold,
    /// Benefit entries already absorbed into the group tables.
    absorbed: usize,
    /// Running group tables (single point by instance signature, per-API
    /// fold), fed in resolution order.
    sp: GroupScratch,
    af: GroupScratch,
    /// Closed candidate runs, in discovery order.
    runs: Vec<RunState>,
    open_start: Option<usize>,
    open_entries: usize,
    // Snapshot scratch, reused across epochs.
    snap_per_node: Vec<NodeBenefit>,
    snap_fold: BenefitFold,
    snap_sp: GroupScratch,
    snap_af: GroupScratch,
}

impl IncrementalAnalysis {
    pub fn new(cfg: &AnalysisConfig) -> IncrementalAnalysis {
        IncrementalAnalysis {
            cfg: cfg.clone(),
            cpu_prefix: vec![0],
            total_duration: 0,
            fold: BenefitFold::new(),
            absorbed: 0,
            sp: GroupScratch::new(),
            af: GroupScratch::new(),
            runs: Vec::new(),
            open_start: None,
            open_entries: 0,
            snap_per_node: Vec::new(),
            snap_fold: BenefitFold::new(),
            snap_sp: GroupScratch::new(),
            snap_af: GroupScratch::new(),
        }
    }

    /// Clear all state (keeping buffer capacity) for a fresh graph.
    pub fn reset(&mut self) {
        self.cpu_prefix.clear();
        self.cpu_prefix.push(0);
        self.total_duration = 0;
        self.fold.reset();
        self.absorbed = 0;
        self.sp.begin();
        self.af.begin();
        self.runs.clear();
        self.open_start = None;
        self.open_entries = 0;
    }

    /// Number of graph nodes folded so far.
    pub fn folded_nodes(&self) -> usize {
        self.cpu_prefix.len() - 1
    }

    /// Fold every node appended to `graph` since the last call. Nodes
    /// must already carry their problem classification
    /// ([`crate::problem::classify_range`] over the appended range).
    pub fn fold(&mut self, graph: &ExecGraph) -> WindowStats {
        let n = graph.nodes.len();
        let from = self.folded_nodes();
        debug_assert!(from <= n, "graph shrank between folds");
        for idx in from..n {
            let node = &graph.nodes[idx];
            let cpu = matches!(node.ntype, NType::CWork | NType::CLaunch);
            let last = *self.cpu_prefix.last().unwrap();
            self.cpu_prefix.push(last + if cpu { node.duration } else { 0 });
            self.total_duration += node.duration;
            if is_terminator(node) {
                if let Some(start) = self.open_start.take() {
                    let entries = self.open_entries;
                    self.open_entries = 0;
                    let benefit_ns = if entries > 1 {
                        carry_forward(graph, &self.cpu_prefix, start, idx, |_| true)
                    } else {
                        0
                    };
                    self.runs.push(RunState { start, end: idx, entries, benefit_ns });
                }
            } else if node.problem != Problem::None {
                if self.open_start.is_none() && is_starter(node) {
                    self.open_start = Some(idx);
                }
                if self.open_start.is_some() {
                    self.open_entries += 1;
                }
            }
        }
        self.fold.extend(graph, &self.cpu_prefix, &self.cfg.benefit);
        WindowStats { nodes: n - from, resolved: self.absorb_resolved(graph) }
    }

    /// Feed benefit entries resolved since the last call into the
    /// running group tables; returns how many there were.
    fn absorb_resolved(&mut self, graph: &ExecGraph) -> usize {
        let resolved = &self.fold.per_node()[self.absorbed..];
        self.sp.absorb(resolved, |i| single_point_key(graph, i));
        self.af.absorb(resolved, |i| api_key(graph, i));
        self.absorbed = self.fold.per_node().len();
        resolved.len()
    }

    /// Materialize the analysis of everything folded so far, as if the
    /// trace ended here. Non-destructive: pending benefit entries are
    /// evaluated into snapshot scratch and the running state is
    /// untouched, so folding can continue afterwards.
    pub fn snapshot(&mut self, graph: &ExecGraph, baseline_exec_ns: Ns) -> Analysis {
        debug_assert_eq!(graph.nodes.len(), self.folded_nodes(), "snapshot mid-append");
        self.assemble(graph, baseline_exec_ns)
    }

    /// Resolve everything pending under end-of-trace semantics and
    /// materialize the final analysis.
    pub fn finish(mut self, graph: &ExecGraph, baseline_exec_ns: Ns) -> Analysis {
        debug_assert_eq!(graph.nodes.len(), self.folded_nodes(), "finish before final fold");
        self.fold.finalize(graph, &self.cpu_prefix, &self.cfg.benefit);
        self.absorb_resolved(graph);
        let runs = self.runs.len() + usize::from(self.open_start.is_some());
        crate::telemetry::counter_add("grouping.candidate_runs", runs as u64);
        self.assemble(graph, baseline_exec_ns)
    }

    /// Shared assembly for snapshots and the final analysis: overlay
    /// pending benefit entries, rebuild the presentation tables, and
    /// materialize owned results in presentation order.
    fn assemble(&mut self, graph: &ExecGraph, baseline_exec_ns: Ns) -> Analysis {
        let n = graph.nodes.len();
        // Benefit: resolved entries + pending overlay.
        self.snap_per_node.clear();
        self.snap_per_node.extend_from_slice(self.fold.per_node());
        let tail = self.fold.complete_into(
            graph,
            &self.cpu_prefix,
            &self.cfg.benefit,
            &mut self.snap_per_node,
            &mut self.snap_fold,
        );
        let benefit = BenefitReport {
            per_node: self.snap_per_node.clone(),
            total_ns: self.fold.total_ns() + tail.total_ns,
            predicted_exec_ns: self.total_duration + self.fold.growth_ns() + tail.growth_ns
                - self.fold.reclaim_ns()
                - tail.reclaim_ns,
        };
        // Problems, sorted by descending benefit (stable: ties keep
        // graph order).
        let mut problems: Vec<ProblemOp> = benefit
            .per_node
            .iter()
            .map(|nb| {
                let node = &graph.nodes[nb.node];
                ProblemOp {
                    node: nb.node,
                    api: node.api,
                    site: node.site,
                    problem: nb.problem,
                    benefit_ns: nb.benefit_ns,
                }
            })
            .collect();
        problems.sort_by_key(|p| std::cmp::Reverse(p.benefit_ns));
        // Groups: running tables + pending overlay, sealed in snapshot
        // scratch so the incremental tables stay undisturbed.
        let pending = &self.snap_per_node[self.fold.per_node().len()..];
        self.snap_sp.copy_from(&self.sp);
        self.snap_sp.absorb(pending, |i| single_point_key(graph, i));
        self.snap_sp.seal();
        let single_point = self.snap_sp.materialize(graph, GroupKind::SinglePoint, site_label_sym);
        self.snap_af.copy_from(&self.af);
        self.snap_af.absorb(pending, |i| api_key(graph, i));
        self.snap_af.seal();
        let api_folds = self.snap_af.materialize(graph, GroupKind::FoldedFunction, fold_label_sym);
        // Sequences: closed runs plus the still-open run under
        // end-of-trace semantics.
        let sequence = |start: usize, end: usize, benefit_ns: Ns| Sequence {
            start,
            end,
            entries: (start..end)
                .filter(|&i| graph.nodes[i].problem != Problem::None)
                .enumerate()
                .map(|(k, i)| SeqEntry {
                    index: k + 1,
                    node: i,
                    call_seq: graph.nodes[i].call_seq,
                    api: graph.nodes[i].api,
                    site: graph.nodes[i].site,
                    problem: graph.nodes[i].problem,
                })
                .collect(),
            benefit_ns,
        };
        let mut sequences: Vec<Sequence> = self
            .runs
            .iter()
            .filter(|run| run.entries > 1)
            .map(|run| sequence(run.start, run.end, run.benefit_ns))
            .collect();
        if let Some(start) = self.open_start.filter(|_| self.open_entries > 1) {
            let benefit_ns = carry_forward(graph, &self.cpu_prefix, start, n, |_| true);
            sequences.push(sequence(start, n, benefit_ns));
        }
        // Stable sort: ties keep discovery (graph) order.
        sequences.sort_by_key(|s| std::cmp::Reverse(s.benefit_ns));
        // Savings per API (Table 2), accumulated in a flat
        // `ApiFn::COUNT`-sized table, sorted descending.
        let mut table: [(Option<ApiFn>, Ns); ApiFn::COUNT] = [(None, 0); ApiFn::COUNT];
        for nb in &benefit.per_node {
            if let Some(api) = graph.nodes[nb.node].api {
                let slot = &mut table[api.index()];
                slot.0 = Some(api);
                slot.1 += nb.benefit_ns;
            }
        }
        let mut by_api: Vec<(ApiFn, Ns)> =
            table.into_iter().filter_map(|(api, ns)| api.map(|a| (a, ns))).collect();
        by_api.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Analysis {
            graph_nodes: n,
            benefit,
            problems,
            single_point,
            api_folds,
            sequences,
            by_api,
            baseline_exec_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benefit::reference::expected_benefit_reference;
    use crate::benefit::{expected_benefit, BenefitOptions};
    use crate::records::OpInstance;

    fn node(
        ntype: NType,
        duration: Ns,
        problem: Problem,
        sig: u64,
        occ: u64,
        api: ApiFn,
        line: u32,
    ) -> Node {
        Node {
            ntype,
            stime: 0,
            duration,
            problem,
            first_use_ns: None,
            call_seq: None,
            instance: Some(OpInstance { sig, occ }),
            api: Some(api),
            site: Some(SourceLoc::new("als.cpp", line)),
            is_transfer: problem == Problem::UnnecessaryTransfer,
        }
    }

    fn sample_graph() -> ExecGraph {
        use NType::*;
        use Problem::*;
        // loop iteration pattern: [free WAIT][work][free WAIT][work][necessary sync]
        let nodes = vec![
            node(CWait, 10, UnnecessarySync, 11, 0, ApiFn::CudaFree, 856),
            node(CWork, 4, None, 0, 0, ApiFn::CudaMalloc, 1),
            node(CWait, 10, UnnecessarySync, 11, 1, ApiFn::CudaFree, 856),
            node(CWork, 4, None, 0, 1, ApiFn::CudaMalloc, 1),
            node(CLaunch, 6, UnnecessaryTransfer, 21, 0, ApiFn::CudaMemcpy, 738),
            node(CWait, 8, None, 31, 0, ApiFn::CudaDeviceSynchronize, 900),
            node(CWork, 50, None, 0, 2, ApiFn::CudaMalloc, 1),
        ];
        let exec = nodes.iter().map(|n| n.duration).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    /// Stage 5 over a classified graph: one fold, finished.
    fn analyze_graph(g: &ExecGraph) -> Analysis {
        let mut inc = IncrementalAnalysis::new(&AnalysisConfig::default());
        inc.fold(g);
        inc.finish(g, g.baseline_exec_ns)
    }

    #[test]
    fn single_point_groups_merge_same_site() {
        let g = sample_graph();
        let groups = analyze_graph(&g).single_point;
        let free = groups.iter().find(|gr| gr.label.resolve().contains("cudaFree")).unwrap();
        assert_eq!(free.nodes.len(), 2, "both cudaFree instances in one group");
        assert_eq!(free.sync_issues, 2);
        assert!(free.label.resolve().contains("als.cpp at line 856"));
    }

    #[test]
    fn groups_are_sorted_by_benefit() {
        let g = sample_graph();
        let groups = analyze_graph(&g).single_point;
        for w in groups.windows(2) {
            assert!(w[0].benefit_ns >= w[1].benefit_ns);
        }
    }

    #[test]
    fn fold_on_api_merges_across_sites() {
        let g = sample_graph();
        let folds = analyze_graph(&g).api_folds;
        let free = folds.iter().find(|f| f.label.resolve() == "Fold on cudaFree").unwrap();
        assert_eq!(free.nodes.len(), 2);
        let memcpy = folds.iter().find(|f| f.label.resolve() == "Fold on cudaMemcpy").unwrap();
        assert_eq!(memcpy.transfer_issues, 1);
    }

    #[test]
    fn sequence_spans_until_necessary_sync() {
        let g = sample_graph();
        let seqs = analyze_graph(&g).sequences;
        assert_eq!(seqs.len(), 1);
        let s = &seqs[0];
        assert_eq!(s.entries.len(), 3, "2 syncs + 1 transfer");
        assert_eq!(s.sync_issues(), 2);
        assert_eq!(s.transfer_issues(), 1);
        // Ends at the necessary cudaDeviceSynchronize (node 5).
        assert_eq!(s.end, 5);
        assert_eq!(s.entries[0].index, 1);
    }

    #[test]
    fn carry_forward_beats_pairwise_pessimism() {
        use NType::*;
        use Problem::*;
        // One big unnecessary sync whose window is small, followed by a
        // second window with lots of CPU work: carry-forward recovers in
        // the later window what the first could not absorb.
        let nodes = vec![
            node(CWait, 20, UnnecessarySync, 1, 0, ApiFn::CudaFree, 1),
            node(CWork, 2, None, 0, 0, ApiFn::CudaMalloc, 2),
            node(CWait, 1, UnnecessarySync, 2, 0, ApiFn::CudaFree, 3),
            node(CWork, 30, None, 0, 1, ApiFn::CudaMalloc, 4),
            node(CWait, 5, None, 3, 0, ApiFn::CudaDeviceSynchronize, 5),
        ];
        let exec = nodes.iter().map(|n| n.duration).sum();
        let g = ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec };
        // Plain Fig.5: first sync recovers only 2 (window), second 1+... the
        // growth model dumps 18 into the second sync, then window 30
        // absorbs min(30, 1+18)=19. Pairwise total = 2+19=21.
        let plain = expected_benefit(&g, &BenefitOptions::default());
        // Carry-forward: window1 absorbs 2, carry 18; window2 absorbs
        // min(30, 1+18)=19 ⇒ total 21. Equivalent here...
        let seq = carry_forward(&g, &g.cpu_prefix(), 0, 4, |_| true);
        assert_eq!(seq, 21);
        assert_eq!(plain.total_ns, 21);
    }

    #[test]
    fn carry_forward_does_not_exceed_total_waits_plus_transfers() {
        let g = sample_graph();
        let seqs = analyze_graph(&g).sequences;
        let s = &seqs[0];
        let max: Ns = s.entries.iter().map(|e| g.nodes[e.node].duration).sum();
        assert!(s.benefit_ns <= max);
        assert!(s.benefit_ns > 0);
    }

    /// Fig. 8 refinement of one sequence: [`carry_forward`] over only
    /// entries `[from_entry, to_entry]` (1-based, inclusive) of `seq`, every
    /// other problem in the window masked out. The production query,
    /// `diogenes::family_subsequence_benefit`, masks only the unchosen
    /// entries of a family's representative.
    fn subsequence_benefit(
        graph: &ExecGraph,
        cpu_prefix: &[Ns],
        seq: &Sequence,
        from_entry: usize,
        to_entry: usize,
    ) -> Option<Ns> {
        let first = seq.entries.iter().find(|e| e.index == from_entry)?;
        let last = seq.entries.iter().find(|e| e.index == to_entry)?;
        if last.node < first.node {
            return None;
        }
        // Only the chosen entries count; every other problem in the window is
        // masked out. The evaluation window extends to the sequence's
        // terminating sync so the final entry's removal can still be absorbed
        // by trailing work.
        let chosen = |node: usize| {
            seq.entries
                .binary_search_by_key(&node, |e| e.node)
                .map(|p| {
                    let e = &seq.entries[p];
                    e.index >= from_entry && e.index <= to_entry
                })
                .unwrap_or(false)
        };
        Some(carry_forward(graph, cpu_prefix, first.node, seq.end, chosen))
    }

    #[test]
    fn subsequence_estimates_subset() {
        let g = sample_graph();
        let prefix = g.cpu_prefix();
        let seqs = analyze_graph(&g).sequences;
        let s = &seqs[0];
        let full = s.benefit_ns;
        let sub = subsequence_benefit(&g, &prefix, s, 2, 3).unwrap();
        assert!(sub <= full);
        assert!(sub > 0);
        // Degenerate request
        assert!(subsequence_benefit(&g, &prefix, s, 9, 10).is_none());
    }

    /// Regression pin for the mask-predicate refinement path. The exact
    /// values were originally cross-checked against the retired
    /// clone-the-graph-and-clear-problems reference implementation; they
    /// are pinned here so the binary-search membership logic and the
    /// carry-forward estimator cannot drift.
    #[test]
    fn masked_subsequence_matches_pinned_reference_values() {
        let g = sample_graph();
        let prefix = g.cpu_prefix();
        let seqs = analyze_graph(&g).sequences;
        let s = &seqs[0];
        let expect = [
            ((1, 1), 4),  // first sync alone: window absorbs only 4
            ((1, 2), 14), // carry from sync 1 absorbed in sync 2's window
            ((1, 3), 20), // full sequence (equals s.benefit_ns)
            ((2, 2), 10),
            ((2, 3), 16),
            ((3, 3), 6), // the transfer alone
        ];
        for ((from, to), want) in expect {
            assert_eq!(
                subsequence_benefit(&g, &prefix, s, from, to),
                Some(want),
                "range {from}..={to}"
            );
        }
        assert_eq!(s.benefit_ns, 20);
    }

    /// Differential check of the binary-search membership against an
    /// explicit boolean mask, over scrambled graphs and every range — no
    /// graph clone anywhere.
    #[test]
    fn masked_subsequence_equals_boolean_mask_reference() {
        let g = scrambled_graph(300, 11);
        let prefix = g.cpu_prefix();
        for s in analyze_graph(&g).sequences.iter().take(8) {
            let n = s.entries.len();
            for from in 1..=n {
                for to in from..=n {
                    let masked = subsequence_benefit(&g, &prefix, s, from, to);
                    let mut keep = vec![false; g.nodes.len()];
                    for e in &s.entries {
                        if e.index >= from && e.index <= to {
                            keep[e.node] = true;
                        }
                    }
                    let first = s.entries.iter().find(|e| e.index == from).unwrap();
                    let want = Some(carry_forward(&g, &prefix, first.node, s.end, |i| keep[i]));
                    assert_eq!(masked, want, "range {from}..={to}");
                }
            }
        }
    }

    /// The retired single-pass run scan, kept verbatim as the reference
    /// for the fold's run tracking.
    fn reference_runs(graph: &ExecGraph) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut idx = 0;
        let n = graph.nodes.len();
        while idx < n {
            if graph.nodes[idx].problem == Problem::None
                || graph.nodes[idx].problem == Problem::MisplacedSync
            {
                idx += 1;
                continue;
            }
            let start = idx;
            let mut end = idx;
            while end < n {
                let node = &graph.nodes[end];
                let terminates = node.ntype == NType::CWait
                    && matches!(node.problem, Problem::None | Problem::MisplacedSync);
                if terminates {
                    break;
                }
                end += 1;
            }
            runs.push((start, end));
            idx = end.max(idx + 1);
        }
        runs
    }

    /// Deterministic pseudo-random graph: a mix of starters, terminators,
    /// misplaced syncs and plain work in every adjacency pattern.
    fn scrambled_graph(len: usize, seed: u64) -> ExecGraph {
        use NType::*;
        let mut state = seed | 1;
        let mut next = || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nodes: Vec<Node> = (0..len)
            .map(|i| {
                let (ntype, problem) = match next() % 6 {
                    0 => (CWait, Problem::UnnecessarySync),
                    1 => (CWait, Problem::None),          // terminator
                    2 => (CWait, Problem::MisplacedSync), // terminator
                    3 => (CLaunch, Problem::UnnecessaryTransfer),
                    4 => (CWork, Problem::None),
                    _ => (CWork, Problem::MisplacedSync), // skip, not a terminator
                };
                node(ntype, 5 + (next() % 20), problem, i as u64, 0, ApiFn::CudaFree, 1)
            })
            .collect();
        let exec = nodes.iter().map(|n| n.duration).sum();
        ExecGraph { nodes, exec_time_ns: exec, baseline_exec_ns: exec }
    }

    #[test]
    fn by_api_sums_member_benefits() {
        let g = sample_graph();
        let by_api = analyze_graph(&g).by_api;
        let of = |api: ApiFn| by_api.iter().find(|(a, _)| *a == api).map(|(_, ns)| *ns);
        assert!(of(ApiFn::CudaFree).unwrap() > 0);
        assert_eq!(of(ApiFn::CudaMemcpy), Some(6));
        assert_eq!(of(ApiFn::CudaDeviceSynchronize), None);
        // Presentation order: descending savings.
        for w in by_api.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    /// Reference grouping: a plain map from key to group, in
    /// first-appearance order, then a stable sort by descending benefit.
    fn reference_groups(
        graph: &ExecGraph,
        benefit: &BenefitReport,
        kind: GroupKind,
        key: impl Fn(&Node) -> Option<u64>,
        label: impl Fn(&Node) -> String,
    ) -> Vec<ProblemGroup> {
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, ProblemGroup> = HashMap::new();
        for nb in &benefit.per_node {
            let node = &graph.nodes[nb.node];
            let Some(k) = key(node) else { continue };
            let g = groups.entry(k).or_insert_with(|| {
                order.push(k);
                ProblemGroup {
                    kind,
                    label: intern(&label(node)),
                    benefit_ns: 0,
                    nodes: Vec::new(),
                    sync_issues: 0,
                    transfer_issues: 0,
                }
            });
            g.benefit_ns += nb.benefit_ns;
            g.nodes.push(nb.node);
            if nb.problem.is_sync() {
                g.sync_issues += 1;
            } else if nb.problem == Problem::UnnecessaryTransfer {
                g.transfer_issues += 1;
            }
        }
        let mut out: Vec<ProblemGroup> = order.iter().map(|k| groups.remove(k).unwrap()).collect();
        out.sort_by_key(|g| std::cmp::Reverse(g.benefit_ns));
        out
    }

    /// The stage 5 answer over an already-classified graph, built from
    /// literal references only: the mutating Fig. 5 transcription, the
    /// single-pass run scan plus the carry-forward estimator, and plain
    /// map groupings. The oracle for the incremental state machine.
    fn batch_analysis(graph: &ExecGraph) -> Analysis {
        let benefit = expected_benefit_reference(graph, &BenefitOptions::default());
        let mut problems: Vec<ProblemOp> = benefit
            .per_node
            .iter()
            .map(|nb| {
                let n = &graph.nodes[nb.node];
                ProblemOp {
                    node: nb.node,
                    api: n.api,
                    site: n.site,
                    problem: nb.problem,
                    benefit_ns: nb.benefit_ns,
                }
            })
            .collect();
        problems.sort_by_key(|p| std::cmp::Reverse(p.benefit_ns));
        let api_name = |n: &Node| n.api.map(|a| a.name()).unwrap_or("<unknown>");
        let single_point = reference_groups(
            graph,
            &benefit,
            GroupKind::SinglePoint,
            |n| n.instance.map(|i| i.sig),
            |n| match n.site {
                Some(s) if n.api.is_some() => {
                    format!("{} in {} at line {}", api_name(n), s.file, s.line)
                }
                _ => api_name(n).to_string(),
            },
        );
        let api_folds = reference_groups(
            graph,
            &benefit,
            GroupKind::FoldedFunction,
            |n| n.api.map(|a| a.index() as u64),
            |n| format!("Fold on {}", api_name(n)),
        );
        let prefix = graph.cpu_prefix();
        let mut sequences: Vec<Sequence> = reference_runs(graph)
            .into_iter()
            .filter_map(|(start, end)| {
                let entries: Vec<SeqEntry> = (start..end)
                    .filter(|&i| graph.nodes[i].problem != Problem::None)
                    .enumerate()
                    .map(|(k, i)| SeqEntry {
                        index: k + 1,
                        node: i,
                        call_seq: graph.nodes[i].call_seq,
                        api: graph.nodes[i].api,
                        site: graph.nodes[i].site,
                        problem: graph.nodes[i].problem,
                    })
                    .collect();
                (entries.len() > 1).then(|| Sequence {
                    start,
                    end,
                    entries,
                    benefit_ns: carry_forward(graph, &prefix, start, end, |_| true),
                })
            })
            .collect();
        sequences.sort_by_key(|s| std::cmp::Reverse(s.benefit_ns));
        let mut savings: HashMap<ApiFn, Ns> = HashMap::new();
        for nb in &benefit.per_node {
            if let Some(api) = graph.nodes[nb.node].api {
                *savings.entry(api).or_default() += nb.benefit_ns;
            }
        }
        let mut by_api: Vec<(ApiFn, Ns)> = savings.into_iter().collect();
        by_api.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Analysis {
            graph_nodes: graph.nodes.len(),
            benefit,
            problems,
            single_point,
            api_folds,
            sequences,
            by_api,
            baseline_exec_ns: graph.baseline_exec_ns,
        }
    }

    fn assert_same_analysis(got: &Analysis, want: &Analysis, ctx: &str) {
        assert_eq!(got.benefit.per_node, want.benefit.per_node, "{ctx}: per_node");
        assert_eq!(got.benefit.total_ns, want.benefit.total_ns, "{ctx}: total");
        assert_eq!(
            got.benefit.predicted_exec_ns, want.benefit.predicted_exec_ns,
            "{ctx}: predicted"
        );
        let op = |p: &ProblemOp| (p.node, p.api, p.problem, p.benefit_ns);
        assert_eq!(
            got.problems.iter().map(op).collect::<Vec<_>>(),
            want.problems.iter().map(op).collect::<Vec<_>>(),
            "{ctx}: problems"
        );
        for (which, a, b) in [
            ("single_point", &got.single_point, &want.single_point),
            ("api_folds", &got.api_folds, &want.api_folds),
        ] {
            assert_eq!(a.len(), b.len(), "{ctx}: {which} count");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.kind, y.kind, "{ctx}: {which} kind");
                assert_eq!(x.label.resolve(), y.label.resolve(), "{ctx}: {which} label");
                assert_eq!(x.benefit_ns, y.benefit_ns, "{ctx}: {which} benefit");
                assert_eq!(x.nodes, y.nodes, "{ctx}: {which} members");
                assert_eq!(x.sync_issues, y.sync_issues, "{ctx}: {which} syncs");
                assert_eq!(x.transfer_issues, y.transfer_issues, "{ctx}: {which} transfers");
            }
        }
        assert_eq!(got.sequences.len(), want.sequences.len(), "{ctx}: sequence count");
        for (x, y) in got.sequences.iter().zip(&want.sequences) {
            assert_eq!(
                (x.start, x.end, x.benefit_ns),
                (y.start, y.end, y.benefit_ns),
                "{ctx}: sequence span"
            );
            let entry = |e: &SeqEntry| (e.index, e.node, e.call_seq, e.api, e.problem);
            assert_eq!(
                x.entries.iter().map(entry).collect::<Vec<_>>(),
                y.entries.iter().map(entry).collect::<Vec<_>>(),
                "{ctx}: sequence entries"
            );
        }
        assert_eq!(got.by_api, want.by_api, "{ctx}: by_api");
        assert_eq!(got.baseline_exec_ns, want.baseline_exec_ns, "{ctx}: baseline");
    }

    /// Folding any windowing of a classified graph and finishing must
    /// equal the reference answer exactly — every field, every order.
    #[test]
    fn incremental_finish_matches_batch_for_any_windowing() {
        for (len, seed) in [(0usize, 1u64), (1, 2), (97, 3), (500, 7), (603, 11)] {
            let full = scrambled_graph(len, seed);
            let want = batch_analysis(&full);
            for window in [1usize, 3, 17, 1000] {
                let mut inc = IncrementalAnalysis::new(&AnalysisConfig::default());
                let mut growing = ExecGraph {
                    nodes: Vec::new(),
                    exec_time_ns: full.exec_time_ns,
                    baseline_exec_ns: full.baseline_exec_ns,
                };
                let mut lo = 0;
                while lo < len {
                    let hi = (lo + window).min(len);
                    growing.nodes.extend(full.nodes[lo..hi].iter().cloned());
                    let stats = inc.fold(&growing);
                    assert_eq!(stats.nodes, hi - lo);
                    lo = hi;
                }
                if len == 0 {
                    inc.fold(&growing);
                }
                let got = inc.finish(&growing, full.baseline_exec_ns);
                assert_same_analysis(&got, &want, &format!("len={len} seed={seed} w={window}"));
            }
        }
    }

    /// Snapshots must equal the batch analysis of the prefix seen so
    /// far — and must not disturb the running state (folding continues
    /// and still converges to the batch answer).
    #[test]
    fn incremental_snapshot_matches_batch_on_every_prefix() {
        let full = scrambled_graph(120, 5);
        for window in [7usize, 31] {
            let mut inc = IncrementalAnalysis::new(&AnalysisConfig::default());
            let mut growing = ExecGraph {
                nodes: Vec::new(),
                exec_time_ns: 0,
                baseline_exec_ns: full.baseline_exec_ns,
            };
            let mut lo = 0;
            while lo < full.nodes.len() {
                let hi = (lo + window).min(full.nodes.len());
                growing.nodes.extend(full.nodes[lo..hi].iter().cloned());
                growing.exec_time_ns = growing.nodes.iter().map(|n| n.duration).sum();
                inc.fold(&growing);
                let snap = inc.snapshot(&growing, growing.baseline_exec_ns);
                let want = batch_analysis(&growing);
                assert_same_analysis(&snap, &want, &format!("prefix={hi} w={window}"));
                lo = hi;
            }
            let want = batch_analysis(&growing);
            let got = inc.finish(&growing, want.baseline_exec_ns);
            assert_same_analysis(&got, &want, &format!("final w={window}"));
        }
    }

    /// `reset` must restore a clean state machine on retained buffers.
    #[test]
    fn incremental_reset_reuses_state_cleanly() {
        let g = scrambled_graph(200, 13);
        let want = batch_analysis(&g);
        let mut inc = IncrementalAnalysis::new(&AnalysisConfig::default());
        inc.fold(&g);
        let _ = inc.snapshot(&g, g.baseline_exec_ns);
        inc.reset();
        assert_eq!(inc.folded_nodes(), 0);
        let mut growing = ExecGraph {
            nodes: Vec::new(),
            exec_time_ns: g.exec_time_ns,
            baseline_exec_ns: g.baseline_exec_ns,
        };
        for chunk in g.nodes.chunks(9) {
            growing.nodes.extend(chunk.iter().cloned());
            inc.fold(&growing);
        }
        let got = inc.finish(&growing, g.baseline_exec_ns);
        assert_same_analysis(&got, &want, "after reset");
    }
}
