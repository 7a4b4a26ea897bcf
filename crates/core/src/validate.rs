//! Pre-dispatch graph sanitizer.
//!
//! Cpp-Taskflow documents that "a cyclic dependency graph results in
//! undefined behavior" — in practice a cycle dispatched to the executor
//! deadlocks, because no node on the cycle ever reaches join-counter zero.
//! rustflow instead *analyzes* the graph before handing it to the
//! executor: [`crate::Taskflow::validate`] returns structured
//! [`GraphDiagnostic`]s, and dispatching a graph with a fatal diagnostic
//! resolves the returned future with
//! [`RunError::InvalidGraph`](crate::RunError::InvalidGraph) instead of
//! wedging the worker pool.
//!
//! The work is split by who pays for it:
//!
//! * [`sweep`] runs at every freeze (first dispatch of a graph, every
//!   subflow spawn). It is one Kahn-style pass over the edges that releases
//!   nodes exactly as the executor's join counters will, and yields the
//!   source list and a fatal/not-fatal verdict. It hashes nothing, formats
//!   nothing and allocates two scratch vectors per graph.
//! * [`validate_graph`] builds the findings themselves (labels, duplicate
//!   `precede` edges, orphans, the label path of a cycle). It runs only when
//!   the sweep's verdict is fatal, or when [`crate::Taskflow::validate`] /
//!   [`crate::Taskflow::dump_with_diagnostics`] ask for it. The three-colour
//!   DFS that names a cycle runs only if the sweep left nodes unreleased.
//!
//! Both lean on every node recording its emplacement index
//! ([`Graph::index_of`]): "is this successor in this graph, and which one"
//! is an index read and a pointer compare.

use crate::graph::{Graph, Node, RawNode};
use std::fmt;

/// One finding of the pre-dispatch graph sanitizer.
///
/// `node` fields are indices into the taskflow's present graph in
/// emplacement order — the same order [`crate::Taskflow::dump`] emits
/// nodes — so tools can correlate findings with the DOT output.
///
/// Findings come out in a fixed order: node by node in emplacement order
/// (for one node: its self-edge, its foreign edge, its duplicate edges by
/// ascending target index, then its orphan finding), and a cycle last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphDiagnostic {
    /// A dependency cycle. Dispatching it would deadlock; fatal.
    Cycle {
        /// The cycle as task labels, closed (first label repeated at the
        /// end): `["A", "B", "A"]`. Unnamed tasks render as `task@<index>`.
        path: Vec<String>,
        /// Indices of the distinct nodes on the cycle, in path order.
        nodes: Vec<usize>,
    },
    /// A task that precedes itself — a one-node cycle; fatal.
    SelfEdge {
        /// The task's label (`task@<index>` when unnamed).
        label: String,
        /// The node's index.
        node: usize,
    },
    /// A task that precedes a task of *another* graph (a different
    /// taskflow). Running it would count down a join counter in a graph
    /// this run does not own; fatal. Reported once per source task,
    /// however many such edges it has. The graph on the receiving end is
    /// rejected at dispatch as well (its target could never become ready),
    /// though no finding of its own names the edge.
    ForeignEdge {
        /// Label of the edge's source task (`task@<index>` when unnamed).
        from: String,
        /// Index of the source node.
        from_node: usize,
    },
    /// The same `precede` edge was added more than once. Harmless to
    /// correctness (the join counter is armed from the accumulated
    /// in-degree), but almost always a bug in graph-building code.
    DuplicateEdge {
        /// Label of the edge's source task.
        from: String,
        /// Label of the edge's target task.
        to: String,
        /// Index of the source node.
        from_node: usize,
        /// Index of the target node.
        to_node: usize,
        /// How many copies of the edge exist (≥ 2).
        count: usize,
    },
    /// A task with no predecessors and no successors in a graph that has
    /// other tasks. It still runs — but it is disconnected from the
    /// dependency structure, which usually signals a forgotten `precede`.
    Orphan {
        /// The task's label (`task@<index>` when unnamed).
        label: String,
        /// The node's index.
        node: usize,
    },
}

impl GraphDiagnostic {
    /// `true` when a graph with this finding must not reach the executor:
    /// it cannot make progress (cycles, self-edges) or would reach into a
    /// graph it does not own (foreign edges). Such graphs are rejected at
    /// dispatch. Warnings (duplicate edges, orphans) do not block.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            GraphDiagnostic::Cycle { .. }
                | GraphDiagnostic::SelfEdge { .. }
                | GraphDiagnostic::ForeignEdge { .. }
        )
    }
}

impl fmt::Display for GraphDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphDiagnostic::Cycle { path, .. } => {
                write!(f, "dependency cycle: {}", path.join(" -> "))
            }
            GraphDiagnostic::SelfEdge { label, .. } => {
                write!(f, "task '{label}' precedes itself")
            }
            GraphDiagnostic::ForeignEdge { from, .. } => {
                write!(f, "task '{from}' precedes a task of another graph")
            }
            GraphDiagnostic::DuplicateEdge {
                from, to, count, ..
            } => write!(f, "duplicate edge '{from}' -> '{to}' ({count} copies)"),
            GraphDiagnostic::Orphan { label, .. } => {
                write!(f, "orphan task '{label}' (no predecessors or successors)")
            }
        }
    }
}

/// Label for diagnostics: the task's name, or `task@<index>` when unnamed.
unsafe fn diag_label(n: &Node, index: usize) -> String {
    // SAFETY: forwarding the caller's quiescence guarantee.
    let label = unsafe { n.label() };
    if label.is_empty() {
        format!("task@{index}")
    } else {
        label.to_string()
    }
}

/// What freezing a graph needs to know, from one pass over its edges.
pub(crate) struct Sweep {
    /// Addresses of the nodes with static in-degree zero, in emplacement
    /// order: what the executor publishes to start a run. (The vector
    /// keeps the sweep's queue capacity, one slot per node.)
    pub(crate) sources: Vec<usize>,
    /// Nodes the sweep never released: members of a cycle and everything
    /// downstream of one, or nodes waiting on a predecessor that is not in
    /// this graph. A run would never reach them.
    unreleased: usize,
    /// The sweep met a self-edge or an edge into another graph.
    stray_edge: bool,
}

impl Sweep {
    /// `true` when the graph must not reach the executor.
    pub(crate) fn is_fatal(&self) -> bool {
        self.stray_edge || self.unreleased > 0
    }
}

/// The freeze sweep: Kahn's algorithm driven by the same static in-degrees
/// the executor arms its join counters from, so "every node was released"
/// here means "every node becomes ready" there.
///
/// # Safety
/// Must be called in a quiescent phase: the build thread before dispatch,
/// or on a graph no worker is mutating. Every successor pointer must
/// target a live node.
pub(crate) unsafe fn sweep(graph: &Graph) -> Sweep {
    let n = graph.len();
    // Unreleased in-edges per node, by emplacement index.
    let mut pending: Vec<u32> = Vec::with_capacity(n);
    // The Kahn queue, never popped: sources first, then every released
    // node in release order; `next` is the read position.
    let mut released: Vec<usize> = Vec::with_capacity(n);
    for node in graph.iter_raw() {
        // SAFETY: quiescent phase per the caller's contract.
        let in_degree = unsafe { *(*node).structure.in_degree.get() };
        pending.push(in_degree);
        if in_degree == 0 {
            released.push(node as usize);
        }
    }
    let num_sources = released.len();
    let mut stray_edge = false;
    let mut next = 0;
    while let Some(&at) = released.get(next) {
        next += 1;
        let at = at as RawNode;
        // SAFETY: quiescent phase; `at` is a node of `graph`.
        for &succ in unsafe { (*at).structure.successors.get() }.iter() {
            // SAFETY: successors target live nodes per the caller's contract.
            match unsafe { graph.index_of(succ) } {
                Some(j) if succ != at => {
                    // Wrapping: an in-degree that undercounts its edges
                    // (only hand-wired test graphs can) must not panic here.
                    pending[j] = pending[j].wrapping_sub(1);
                    if pending[j] == 0 {
                        released.push(succ as usize);
                    }
                }
                _ => stray_edge = true,
            }
        }
    }
    let unreleased = n - released.len();
    released.truncate(num_sources);
    Sweep {
        sources: released,
        unreleased,
        stray_edge,
    }
}

/// Analyzes `graph` and returns every finding, in the order documented on
/// [`GraphDiagnostic`]. Callers filter with [`GraphDiagnostic::is_fatal`].
///
/// # Safety
/// Same contract as [`sweep`].
pub(crate) unsafe fn validate_graph(graph: &Graph) -> Vec<GraphDiagnostic> {
    let mut out = Vec::new();
    let n = graph.len();
    // In-graph, non-self targets of the node being scanned; reused.
    let mut targets: Vec<usize> = Vec::new();
    for (i, node) in graph.iter().enumerate() {
        let me = node as *const Node as RawNode;
        // SAFETY: quiescent phase per the caller's contract.
        let succs = unsafe { node.structure.successors.get() };
        let (mut self_edge, mut foreign_edge) = (false, false);
        targets.clear();
        for &succ in succs.iter() {
            if succ == me {
                self_edge = true;
            // SAFETY: successors target live nodes per the caller's contract.
            } else if let Some(j) = unsafe { graph.index_of(succ) } {
                targets.push(j);
            } else {
                foreign_edge = true;
            }
        }
        if self_edge {
            out.push(GraphDiagnostic::SelfEdge {
                // SAFETY: quiescent phase.
                label: unsafe { diag_label(node, i) },
                node: i,
            });
        }
        if foreign_edge {
            out.push(GraphDiagnostic::ForeignEdge {
                // SAFETY: quiescent phase.
                from: unsafe { diag_label(node, i) },
                from_node: i,
            });
        }
        targets.sort_unstable();
        for copies in targets.chunk_by(|a, b| a == b) {
            if let [j, _, ..] = *copies {
                let to = graph.get(j).expect("index_of returned an index in range");
                out.push(GraphDiagnostic::DuplicateEdge {
                    // SAFETY: quiescent phase.
                    from: unsafe { diag_label(node, i) },
                    to: unsafe { diag_label(to, j) },
                    from_node: i,
                    to_node: j,
                    count: copies.len(),
                });
            }
        }
        // SAFETY: quiescent phase.
        let in_degree = unsafe { *node.structure.in_degree.get() };
        if n > 1 && in_degree == 0 && succs.is_empty() {
            out.push(GraphDiagnostic::Orphan {
                // SAFETY: quiescent phase.
                label: unsafe { diag_label(node, i) },
                node: i,
            });
        }
    }
    // A cycle exists only if the sweep could not release every node.
    // SAFETY: forwarding the caller's contract.
    if unsafe { sweep(graph) }.unreleased > 0 {
        // SAFETY: forwarding the caller's contract.
        out.extend(unsafe { find_cycle(graph) });
    }
    out
}

/// Cycle search: iterative three-color DFS with an explicit path stack.
/// Self-edges and edges leaving the graph are skipped (reported by the
/// per-node scan); the first multi-node cycle found is reported with its
/// full label path and the search stops — one fatal finding is enough to
/// reject the dispatch.
///
/// # Safety
/// Same contract as [`sweep`].
unsafe fn find_cycle(graph: &Graph) -> Option<GraphDiagnostic> {
    let n = graph.len();
    let node = |i: usize| graph.get(i).expect("DFS indices are in range");
    // 0 = white, 1 = gray (on the current path), 2 = black.
    let mut color: Vec<u8> = vec![0; n];
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        // Stack of (node index, next successor position).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = 1;
        while let Some(&(at, pos)) = stack.last() {
            // SAFETY: quiescent phase per the caller's contract.
            let succs = unsafe { node(at).structure.successors.get() };
            let Some(&succ) = succs.get(pos) else {
                color[at] = 2;
                stack.pop();
                continue;
            };
            stack.last_mut().expect("nonempty").1 = pos + 1;
            // SAFETY: successors target live nodes per the caller's contract.
            let Some(j) = (unsafe { graph.index_of(succ) }) else {
                continue; // edge leaving this graph, reported separately
            };
            if j == at {
                continue; // self-edge, reported separately
            }
            match color[j] {
                0 => {
                    color[j] = 1;
                    stack.push((j, 0));
                }
                1 => {
                    // Found a back edge: the cycle is the path suffix
                    // starting at `j`.
                    let start = stack
                        .iter()
                        .position(|&(k, _)| k == j)
                        .expect("gray node is on the path");
                    let nodes: Vec<usize> = stack[start..].iter().map(|&(k, _)| k).collect();
                    let mut path: Vec<String> = nodes
                        .iter()
                        // SAFETY: quiescent phase.
                        .map(|&k| unsafe { diag_label(node(k), k) })
                        .collect();
                    path.push(path[0].clone());
                    return Some(GraphDiagnostic::Cycle { path, nodes });
                }
                _ => {}
            }
        }
    }
    None
}

/// The hash-map sanitizer this module used before the freeze sweep, kept
/// as the reference the property test below compares against. It knows
/// nothing of foreign edges (it skipped them) and emits one node's
/// duplicate edges in hash order.
#[cfg(test)]
mod oracle {
    use super::{diag_label, GraphDiagnostic};
    use crate::graph::{Graph, Node, RawNode};
    use std::collections::HashMap;

    pub(super) unsafe fn validate_graph(graph: &Graph) -> Vec<GraphDiagnostic> {
        let mut out = Vec::new();
        let n = graph.len();
        let nodes: Vec<&Node> = graph.iter().collect();
        let mut index_of: HashMap<RawNode, usize> = HashMap::with_capacity(n);
        for (i, node) in nodes.iter().enumerate() {
            index_of.insert(*node as *const Node as RawNode, i);
        }
        for (i, node) in nodes.iter().enumerate() {
            let me = *node as *const Node as RawNode;
            let succs = unsafe { node.structure.successors.get() };
            let mut copies: HashMap<RawNode, usize> = HashMap::new();
            for &s in succs.iter() {
                *copies.entry(s).or_insert(0) += 1;
            }
            if copies.contains_key(&me) {
                out.push(GraphDiagnostic::SelfEdge {
                    label: unsafe { diag_label(node, i) },
                    node: i,
                });
            }
            for (&s, &count) in copies.iter() {
                if count > 1 && s != me {
                    if let Some(&j) = index_of.get(&s) {
                        out.push(GraphDiagnostic::DuplicateEdge {
                            from: unsafe { diag_label(node, i) },
                            to: unsafe { diag_label(&*s, j) },
                            from_node: i,
                            to_node: j,
                            count,
                        });
                    }
                }
            }
            let in_degree = unsafe { *node.structure.in_degree.get() };
            if n > 1 && in_degree == 0 && succs.is_empty() {
                out.push(GraphDiagnostic::Orphan {
                    label: unsafe { diag_label(node, i) },
                    node: i,
                });
            }
        }
        let mut color: Vec<u8> = vec![0; n];
        'roots: for root in 0..n {
            if color[root] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = 1;
            while let Some(&(at, pos)) = stack.last() {
                let succs = unsafe { nodes[at].structure.successors.get() };
                if pos < succs.len() {
                    stack.last_mut().expect("nonempty").1 = pos + 1;
                    let Some(&j) = index_of.get(&succs[pos]) else {
                        continue;
                    };
                    if j == at {
                        continue;
                    }
                    match color[j] {
                        0 => {
                            color[j] = 1;
                            stack.push((j, 0));
                        }
                        1 => {
                            let start = stack
                                .iter()
                                .position(|&(k, _)| k == j)
                                .expect("gray node is on the path");
                            let on_cycle: Vec<usize> =
                                stack[start..].iter().map(|&(k, _)| k).collect();
                            let mut path: Vec<String> = on_cycle
                                .iter()
                                .map(|&k| unsafe { diag_label(nodes[k], k) })
                                .collect();
                            path.push(path[0].clone());
                            out.push(GraphDiagnostic::Cycle {
                                path,
                                nodes: on_cycle,
                            });
                            break 'roots;
                        }
                        _ => {}
                    }
                } else {
                    color[at] = 2;
                    stack.pop();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Work;
    use proptest::prelude::*;

    fn connect(a: RawNode, b: RawNode) {
        // SAFETY: single-threaded build phase.
        unsafe { Node::connect(a, b) };
    }

    fn name(n: RawNode, s: &str) {
        // SAFETY: single-threaded build phase.
        unsafe {
            *(*n).structure.name.get_mut() = crate::TaskLabel::new(s);
        }
    }

    /// A graph of `n` nodes named `t0..` wired with `edges`.
    fn graph_of(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<RawNode> = (0..n).map(|_| g.emplace(Work::empty())).collect();
        for (i, &node) in nodes.iter().enumerate() {
            name(node, &format!("t{i}"));
        }
        for &(u, v) in edges {
            connect(nodes[u], nodes[v]);
        }
        g
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        connect(a, b);
        assert!(unsafe { validate_graph(&g) }.is_empty());
        let swept = unsafe { sweep(&g) };
        assert!(!swept.is_fatal());
        assert_eq!(swept.sources, vec![a as usize]);
    }

    #[test]
    fn cycle_reports_label_path() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        let c = g.emplace(Work::empty());
        name(a, "A");
        name(b, "B");
        name(c, "C");
        connect(a, b);
        connect(b, c);
        connect(c, a);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(diags.len(), 1);
        match &diags[0] {
            GraphDiagnostic::Cycle { path, nodes } => {
                assert_eq!(path, &["A", "B", "C", "A"]);
                assert_eq!(nodes, &[0, 1, 2]);
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
        assert!(diags[0].is_fatal());
        assert_eq!(diags[0].to_string(), "dependency cycle: A -> B -> C -> A");
        assert!(unsafe { sweep(&g) }.is_fatal());
    }

    #[test]
    fn unnamed_cycle_uses_index_labels() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        connect(a, b);
        connect(b, a);
        let diags = unsafe { validate_graph(&g) };
        match &diags[0] {
            GraphDiagnostic::Cycle { path, .. } => {
                assert_eq!(path, &["task@0", "task@1", "task@0"]);
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
    }

    #[test]
    fn self_edge_is_fatal_and_not_double_reported() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        name(a, "loopy");
        connect(a, a);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0],
            GraphDiagnostic::SelfEdge {
                label: "loopy".into(),
                node: 0
            }
        );
        assert!(diags[0].is_fatal());
        assert!(unsafe { sweep(&g) }.is_fatal());
    }

    #[test]
    fn self_edge_on_a_released_node_is_still_fatal() {
        // `b` is released by `a`, then the sweep meets b -> b.
        let g = graph_of(2, &[(0, 1)]);
        let b = g.get(1).expect("two nodes") as *const Node as RawNode;
        // SAFETY: single-threaded build phase. Only the edge list grows, so
        // the in-degree does not hold `b` back and the sweep reaches it.
        unsafe { (*b).structure.successors.get_mut().push(b) };
        assert!(unsafe { sweep(&g) }.is_fatal());
    }

    #[test]
    fn duplicate_edge_counts_copies() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        name(a, "A");
        name(b, "B");
        connect(a, b);
        connect(a, b);
        connect(a, b);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(diags.len(), 1);
        match &diags[0] {
            GraphDiagnostic::DuplicateEdge {
                from, to, count, ..
            } => {
                assert_eq!((from.as_str(), to.as_str(), *count), ("A", "B", 3));
            }
            other => panic!("expected DuplicateEdge, got {other:?}"),
        }
        assert!(!diags[0].is_fatal());
        assert!(!unsafe { sweep(&g) }.is_fatal());
    }

    #[test]
    fn orphan_detected_only_in_multi_node_graphs() {
        let mut g = Graph::new();
        g.emplace(Work::empty());
        assert!(
            unsafe { validate_graph(&g) }.is_empty(),
            "singleton is fine"
        );
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        g.emplace(Work::empty()); // orphan
        connect(a, b);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(
            diags,
            vec![GraphDiagnostic::Orphan {
                label: "task@2".into(),
                node: 2
            }]
        );
    }

    #[test]
    fn empty_graph_is_clean() {
        let g = Graph::new();
        assert!(unsafe { validate_graph(&g) }.is_empty());
        let swept = unsafe { sweep(&g) };
        assert!(!swept.is_fatal());
        assert!(swept.sources.is_empty());
    }

    #[test]
    fn findings_come_out_in_source_then_target_order() {
        // Three duplicated edges (two of them out of one node, wired
        // highest target first), a self-edge and two orphans.
        let g = graph_of(
            7,
            &[
                (0, 3),
                (0, 1),
                (0, 3),
                (0, 2),
                (0, 1),
                (0, 1),
                (2, 3),
                (2, 3),
                (4, 4),
            ],
        );
        let dup = |from_node: usize, to_node: usize, count: usize| GraphDiagnostic::DuplicateEdge {
            from: format!("t{from_node}"),
            to: format!("t{to_node}"),
            from_node,
            to_node,
            count,
        };
        let expected = vec![
            dup(0, 1, 3),
            dup(0, 3, 2),
            dup(2, 3, 2),
            GraphDiagnostic::SelfEdge {
                label: "t4".into(),
                node: 4,
            },
            GraphDiagnostic::Orphan {
                label: "t5".into(),
                node: 5,
            },
            GraphDiagnostic::Orphan {
                label: "t6".into(),
                node: 6,
            },
        ];
        for _ in 0..8 {
            assert_eq!(unsafe { validate_graph(&g) }, expected);
        }
    }

    #[test]
    fn edge_into_another_graph_is_fatal() {
        let mut g = Graph::new();
        let mut other = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        let foreign = other.emplace(Work::empty());
        name(a, "A");
        connect(a, b);
        connect(a, foreign);
        connect(a, foreign);
        let diags = unsafe { validate_graph(&g) };
        assert_eq!(
            diags,
            vec![GraphDiagnostic::ForeignEdge {
                from: "A".into(),
                from_node: 0
            }]
        );
        assert!(diags[0].is_fatal());
        assert_eq!(
            diags[0].to_string(),
            "task 'A' precedes a task of another graph"
        );
        assert!(unsafe { sweep(&g) }.is_fatal());
        // The receiving graph can never release its target: rejected too.
        assert!(unsafe { sweep(&other) }.is_fatal());
    }

    /// Sorted `Debug` renderings of every non-cycle finding.
    fn non_cycle_findings(diags: &[GraphDiagnostic]) -> Vec<String> {
        let mut out: Vec<String> = diags
            .iter()
            .filter(|d| !matches!(d, GraphDiagnostic::Cycle { .. }))
            .map(|d| format!("{d:?}"))
            .collect();
        out.sort();
        out
    }

    /// Sorted members of the reported cycle, if any.
    fn cycle_members(diags: &[GraphDiagnostic]) -> Option<Vec<usize>> {
        diags.iter().find_map(|d| match d {
            GraphDiagnostic::Cycle { nodes, .. } => {
                let mut members = nodes.clone();
                members.sort_unstable();
                Some(members)
            }
            _ => None,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Seeded random graphs of 0–200 nodes: a forward DAG sparse enough
        /// to leave orphans, with repeated edges throughout and the odd
        /// injected back edge, reversed edge (a sure two-node cycle) and
        /// self-edge. The sweep-based sanitizer and the hash-map oracle
        /// must agree on the verdict, the findings and the cycle.
        #[test]
        fn agrees_with_the_hash_map_oracle((n, edges) in (0usize..=200).prop_flat_map(|n| {
            let m = n.max(1);
            (Just(n), collection::vec((0..m, 0..m, 0u8..200), 0..(2 * n + 2)))
        })) {
            let mut wired: Vec<(usize, usize)> = Vec::new();
            if n > 0 {
                for (u, v, kind) in edges {
                    let (lo, hi) = (u.min(v), u.max(v));
                    let previous = wired.last().copied();
                    let edge = match (kind, previous) {
                        (199, _) => (u, u),
                        (198, Some((from, to))) => (to, from),
                        (197, _) if lo != hi => (hi, lo),
                        (180..=196, Some(previous)) => previous,
                        (0..=179, _) if lo != hi => (lo, hi),
                        _ => continue,
                    };
                    wired.push(edge);
                }
            }
            let g = graph_of(n, &wired);
            // SAFETY: single-threaded test; nothing mutates `g`.
            let (new, old, swept) =
                unsafe { (validate_graph(&g), oracle::validate_graph(&g), sweep(&g)) };
            let fatal = old.iter().any(GraphDiagnostic::is_fatal);
            prop_assert_eq!(new.iter().any(GraphDiagnostic::is_fatal), fatal);
            prop_assert_eq!(swept.is_fatal(), fatal);
            prop_assert_eq!(non_cycle_findings(&new), non_cycle_findings(&old));
            prop_assert_eq!(cycle_members(&new), cycle_members(&old));
            let sources: Vec<usize> = g
                .iter_raw()
                // SAFETY: as above.
                .filter(|&p| unsafe { *(*p).structure.in_degree.get() } == 0)
                .map(|p| p as usize)
                .collect();
            prop_assert_eq!(swept.sources, sources);
        }
    }
}
