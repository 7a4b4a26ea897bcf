//! DOT (GraphViz) export of task dependency graphs (§III-G).
//!
//! "One of the biggest advantages of Cpp-Taskflow is the built-in support
//! for dumping a task dependency graph to a standard DOT format" — we
//! render top-level graphs as a `digraph` and runtime-spawned subflows as
//! nested `subgraph cluster_*` blocks, reproducing Figure 5 of the paper.
//!
//! [`graph_to_dot_annotated`] additionally paints nodes flagged by the
//! pre-dispatch sanitizer ([`crate::validate`]): members of a cycle and
//! sources of self- or foreign edges red, orphans orange, so `dump_with_diagnostics` output can be pasted straight
//! into GraphViz to *see* why a dispatch was rejected.

use crate::graph::{Graph, Node, RawNode};
use crate::validate::GraphDiagnostic;
use std::collections::{HashMap, HashSet};

/// Renders `graph` (recursively including spawned subflows) to DOT.
///
/// # Safety
/// Must be called in a quiescent phase: before dispatch, or after the
/// owning topology completed.
pub(crate) unsafe fn graph_to_dot(graph: &Graph, name: &str) -> String {
    // SAFETY: forwarding the caller's quiescence guarantee.
    unsafe { graph_to_dot_annotated(graph, name, &[]) }
}

/// Renders `graph` to DOT with sanitizer findings highlighted: nodes on a
/// cycle and nodes with a self-edge or an edge into another graph are
/// filled red, orphans orange, and self-edges drawn bold red.
///
/// # Safety
/// Same contract as [`graph_to_dot`].
pub(crate) unsafe fn graph_to_dot_annotated(
    graph: &Graph,
    name: &str,
    diagnostics: &[GraphDiagnostic],
) -> String {
    let mut hl: HashMap<RawNode, &'static str> = HashMap::new();
    let key = |i: usize| graph.get(i).map(|n| n as *const Node as RawNode);
    for d in diagnostics {
        match d {
            GraphDiagnostic::Cycle { nodes, .. } => {
                for n in nodes.iter().filter_map(|&i| key(i)) {
                    hl.insert(n, "red");
                }
            }
            GraphDiagnostic::SelfEdge { node, .. }
            | GraphDiagnostic::ForeignEdge {
                from_node: node, ..
            } => {
                if let Some(n) = key(*node) {
                    hl.insert(n, "red");
                }
            }
            GraphDiagnostic::Orphan { node, .. } => {
                if let Some(n) = key(*node) {
                    // A fatal finding wins over an orphan finding.
                    hl.entry(n).or_insert("orange");
                }
            }
            GraphDiagnostic::DuplicateEdge { .. } => {}
        }
    }
    let node = |key: RawNode, label: &str| {
        let fill = hl.get(&key).map_or(String::new(), |color| {
            format!(", style=filled, fillcolor={color}")
        });
        format!("label=\"{label}\"{fill}")
    };
    // A self-edge is drawn bold red.
    let mut edge = |from: RawNode, to: RawNode| if from == to { BOLD_RED } else { "" };
    let mut out = String::with_capacity(256 + graph.len() * 32);
    out.push_str(&format!("digraph {} {{\n", sanitize(name)));
    let mut walk = Walk {
        out: &mut out,
        cluster: 0,
        anchor_subflows: true,
        node: &node,
        edge: &mut edge,
    };
    // SAFETY: forwarding the caller's quiescence guarantee.
    unsafe { walk.graph(graph, 1) };
    out.push_str("}\n");
    out
}

/// Renders `graph` to DOT annotated with a profile: nodes heat-colored by
/// their share of total execution time (white → red) and labeled with
/// their aggregate timing, critical-path edges of the most recent
/// iteration drawn bold red. Critical-path hops that are not structural
/// edges (subflow spawn/join hops) are added as dashed red edges.
///
/// # Safety
/// Same contract as [`graph_to_dot`].
pub(crate) unsafe fn graph_to_dot_profiled(
    graph: &Graph,
    name: &str,
    report: &crate::profile::ProfileReport,
) -> String {
    // Per-node totals for the heat scale (static nodes only carry ids).
    let mut totals: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut max_total = 1u64;
    for n in &report.nodes {
        if let Some(id) = n.id {
            totals.insert(id, (n.total_us, n.count));
            max_total = max_total.max(n.total_us);
        }
    }
    let node = |key: RawNode, label: &str| {
        let (heat, timing) = match totals.get(&(key as u64)) {
            Some(&(total, count)) => (
                total as f64 / max_total as f64,
                format!("\\n{total}us / {count}x"),
            ),
            None => (0.0, String::new()),
        };
        // White → red on the GraphViz HSV wheel: hue 0, saturation = heat.
        format!("label=\"{label}{timing}\", fillcolor=\"0.0 {heat:.3} 1.0\"")
    };
    let mut structural: HashSet<(u64, u64)> = HashSet::new();
    let mut edge = |from: RawNode, to: RawNode| {
        let edge = (from as u64, to as u64);
        structural.insert(edge);
        if report.critical_edges.contains(&edge) {
            BOLD_RED
        } else {
            ""
        }
    };
    let mut out = String::with_capacity(256 + graph.len() * 64);
    out.push_str(&format!("digraph {} {{\n", sanitize(name)));
    out.push_str("  node [style=filled];\n");
    let mut walk = Walk {
        out: &mut out,
        cluster: 0,
        anchor_subflows: false,
        node: &node,
        edge: &mut edge,
    };
    // SAFETY: forwarding the caller's quiescence guarantee.
    unsafe { walk.graph(graph, 1) };
    // Critical hops with no structural edge (spawn/join through a
    // subflow), in path order.
    for &(from, to) in &report.critical_edges {
        if !structural.contains(&(from, to)) {
            out.push_str(&format!(
                "  n{from:x} -> n{to:x} [color=red, penwidth=2, style=dashed, constraint=false];\n"
            ));
        }
    }
    out.push_str("}\n");
    out
}

/// The attributes of a highlighted edge.
const BOLD_RED: &str = " [color=red, penwidth=2]";

/// The one walk behind every dump: each node in emplacement order with
/// its out-edges, then a `subgraph cluster_*` for the subflow it spawned.
/// The caller's closures say what each node and edge looks like.
struct Walk<'a> {
    out: &'a mut String,
    /// Clusters opened so far: the next one's number minus one.
    cluster: usize,
    /// Whether a cluster opens with a dotted edge from the subflow's
    /// parent to its first child.
    anchor_subflows: bool,
    /// A node's attributes, given its key and escaped label.
    node: &'a dyn Fn(RawNode, &str) -> String,
    /// An edge's attributes (with a leading space, or empty).
    edge: &'a mut dyn FnMut(RawNode, RawNode) -> &'static str,
}

impl Walk<'_> {
    /// Emits `graph`'s nodes, edges and subflow clusters at `depth`.
    ///
    /// # Safety
    /// Same contract as [`graph_to_dot`].
    unsafe fn graph(&mut self, graph: &Graph, depth: usize) {
        let pad = "  ".repeat(depth);
        for n in graph.iter() {
            let key = n as *const Node as RawNode;
            let id = node_id(n);
            // SAFETY: quiescent phase per the caller's contract.
            let label = unsafe { node_label(n) };
            let attrs = (self.node)(key, &label);
            self.out.push_str(&format!("{pad}{id} [{attrs}];\n"));
            // SAFETY: quiescent phase; successor pointers target live nodes.
            for &succ in unsafe { n.structure.successors.get() }.iter() {
                let attrs = (self.edge)(key, succ);
                // SAFETY: `succ` is a stable node address (see Graph).
                let succ_id = node_id(unsafe { &*succ });
                self.out
                    .push_str(&format!("{pad}{id} -> {succ_id}{attrs};\n"));
            }
            // SAFETY: quiescent phase per the caller's contract.
            let sub = unsafe { n.state.subgraph.get() };
            if !sub.is_empty() {
                self.cluster += 1;
                let cluster = self.cluster;
                self.out.push_str(&format!(
                    "{pad}subgraph cluster_{cluster} {{\n\
                     {pad}  label=\"Subflow_{label}\";\n{pad}  style=dashed;\n"
                ));
                if let Some(first) = sub.get(0).filter(|_| self.anchor_subflows) {
                    self.out.push_str(&format!(
                        "{pad}  {id} -> {} [style=dotted];\n",
                        node_id(first)
                    ));
                }
                // SAFETY: forwarding the caller's quiescence guarantee.
                unsafe { self.graph(sub, depth + 1) };
                self.out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

unsafe fn node_label(n: &Node) -> String {
    // SAFETY: forwarding the caller's quiescence guarantee.
    let label = unsafe { n.label() };
    if label.is_empty() {
        format!("{:p}", n as *const Node)
    } else {
        escape(label)
    }
}

fn node_id(n: &Node) -> String {
    format!("n{:x}", n as *const Node as usize)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn sanitize(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "taskflow".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Work;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        unsafe {
            *(*a).structure.name.get_mut() = crate::TaskLabel::new("A");
            Node::connect(a, b);
            let dot = graph_to_dot(&g, "demo");
            assert!(dot.starts_with("digraph demo {"));
            assert!(dot.contains("label=\"A\""));
            assert!(dot.contains(" -> "));
            assert!(dot.ends_with("}\n"));
        }
    }

    #[test]
    fn dot_renders_subflow_clusters() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        unsafe {
            *(*a).structure.name.get_mut() = crate::TaskLabel::new("A");
            (*a).state.subgraph.get_mut().emplace(Work::empty());
            let dot = graph_to_dot(&g, "demo");
            assert!(dot.contains("subgraph cluster_1"));
            assert!(dot.contains("Subflow_A"));
        }
    }

    #[test]
    fn annotated_dot_highlights_findings() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        g.emplace(Work::empty()); // orphan
        unsafe {
            *(*a).structure.name.get_mut() = crate::TaskLabel::new("A");
            *(*b).structure.name.get_mut() = crate::TaskLabel::new("B");
            Node::connect(a, b);
            Node::connect(b, a);
            let diags = vec![
                GraphDiagnostic::Cycle {
                    path: vec!["A".into(), "B".into(), "A".into()],
                    nodes: vec![0, 1],
                },
                GraphDiagnostic::Orphan {
                    label: String::new(),
                    node: 2,
                },
            ];
            let dot = graph_to_dot_annotated(&g, "demo", &diags);
            assert_eq!(dot.matches("fillcolor=red").count(), 2);
            assert_eq!(dot.matches("fillcolor=orange").count(), 1);
        }
    }

    #[test]
    fn self_edge_rendered_bold_red() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        unsafe {
            Node::connect(a, a);
            let dot = graph_to_dot(&g, "demo");
            assert!(dot.contains("color=red, penwidth=2"));
        }
    }

    #[test]
    fn names_are_escaped_and_sanitized() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(sanitize("my flow!"), "my_flow_");
        assert_eq!(sanitize(""), "taskflow");
    }
}
