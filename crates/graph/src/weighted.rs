//! Undirected node- and edge-weighted graphs.
//!
//! The NEWST model (Section IV-B of the paper) works on a connected,
//! undirected graph `G = (V, E, S, w, c)` where `w` assigns a positive weight
//! to every vertex and `c` a positive cost to every edge.  [`WeightedGraph`]
//! is that object: the RePaGer pipeline builds one from the sub-citation
//! graph, with node weights from Eq. (3) and edge costs from Eq. (2), and the
//! Steiner machinery in [`crate::steiner`] consumes it.
//!
//! # Storage
//!
//! The graph is stored in compressed sparse row (CSR) form: node `u`'s
//! neighbours are `entries[offsets[u]..offsets[u + 1]]`, one flat array of
//! `(neighbour, cost)` pairs in which every undirected edge appears once per
//! endpoint.  [`WeightedGraph::rebuild`] fills it from a list of edges in two
//! passes (validate and count, then place) plus an in-place compaction of
//! each row, and produces exactly the graph that calling
//! [`WeightedGraph::add_edge`] on each edge in turn would: the same per-node
//! neighbour order and the same cost bits.  A rebuild reuses the graph's
//! buffers, so a caller that keeps one graph per worker builds without
//! allocating once the buffers have grown.  `add_edge` itself splices into
//! the flat array, O(edges) per call, which suits small hand-built graphs.
//!
//! The validation of an edge (no self-loop, both endpoints in range, a
//! finite non-negative cost) lives in one place, `check_edge`, and so does
//! the parallel-edge rule, `keep_cheaper`: a repeated edge keeps the position
//! of its first occurrence and the cheapest cost seen.  Both the builder and
//! `add_edge` call them.

use crate::{GraphError, NodeId};
use serde::{Deserialize, Serialize};

/// The row of a node not yet seen in this build; no row has this id.
const UNSET: u32 = u32::MAX;

/// An undirected graph with positive node weights and positive edge costs.
///
/// Nodes are dense indices `0..node_count`.  Parallel edges are collapsed to
/// the cheapest cost seen; self-loops are rejected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedGraph {
    node_weights: Vec<f64>,
    /// `offsets[u]..offsets[u + 1]` is node `u`'s range of `entries`; the
    /// vector has `node_count + 1` elements.
    offsets: Vec<usize>,
    /// Every edge once per endpoint, as `(neighbour, cost)`, row by row.
    entries: Vec<(NodeId, f64)>,
    edge_count: usize,
}

impl Default for WeightedGraph {
    /// The graph with no nodes.
    fn default() -> Self {
        WeightedGraph::with_zero_weights(0)
    }
}

/// Reusable workspace of [`WeightedGraph::rebuild`]: for each node, the
/// row being compacted when it was last seen there and the index of its
/// first entry in that row.
#[derive(Debug, Clone, Default)]
pub struct CsrScratch {
    marks: Vec<(u32, u32)>,
    grow_events: u64,
}

impl CsrScratch {
    /// How many times a rebuild through this scratch had to grow one of
    /// its buffers or the graph's (each grown buffer counts once).
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }
}

/// Validates one edge `{a, b}` of cost `cost` for a graph of `node_count`
/// nodes: the checks, and their order, of every edge insertion.
fn check_edge(node_count: usize, a: NodeId, b: NodeId, cost: f64) -> Result<(), GraphError> {
    if a == b {
        return Err(GraphError::SelfLoop { node: a });
    }
    for node in [a, b] {
        if node.index() >= node_count {
            return Err(GraphError::NodeOutOfBounds { node, node_count });
        }
    }
    if !cost.is_finite() || cost < 0.0 {
        return Err(GraphError::InvalidWeight {
            what: format!("edge cost {cost}"),
        });
    }
    Ok(())
}

/// The parallel-edge rule: a repeated edge lowers the stored cost when it is
/// cheaper and leaves it unchanged otherwise.
#[inline]
fn keep_cheaper(current: &mut f64, cost: f64) {
    if cost < *current {
        *current = cost;
    }
}

/// Validates a vector of node weights.
fn check_node_weights(node_weights: &[f64]) -> Result<(), GraphError> {
    for (i, &w) in node_weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(GraphError::InvalidWeight {
                what: format!("node weight {w} at node n{i}"),
            });
        }
    }
    Ok(())
}

impl WeightedGraph {
    /// Creates a graph with the given per-node weights and no edges.
    ///
    /// Returns an error if any weight is negative or not finite.
    pub fn new(node_weights: Vec<f64>) -> Result<Self, GraphError> {
        check_node_weights(&node_weights)?;
        let n = node_weights.len();
        Ok(WeightedGraph {
            node_weights,
            offsets: vec![0; n + 1],
            entries: Vec::new(),
            edge_count: 0,
        })
    }

    /// Creates a graph of `node_count` nodes whose weights are all zero.
    pub fn with_zero_weights(node_count: usize) -> Self {
        WeightedGraph {
            node_weights: vec![0.0; node_count],
            offsets: vec![0; node_count + 1],
            entries: Vec::new(),
            edge_count: 0,
        }
    }

    /// Replaces this graph's contents with `node_weights` and `edges`: the
    /// graph [`WeightedGraph::new`] followed by one
    /// [`WeightedGraph::add_edge`] per edge, in order, would produce, and the
    /// same error for the first invalid weight or edge.  Once the buffers
    /// (and `scratch`'s) have grown to the largest graph seen, a rebuild
    /// does not allocate.
    ///
    /// The build runs in two passes over `edges`: the first validates each
    /// edge and counts each node's entries, the second places them row by
    /// row in edge order.  Each row is then compacted in place, so a
    /// parallel edge keeps its first position and the cheapest cost.  On
    /// error the graph is left empty.
    pub fn rebuild(
        &mut self,
        node_weights: impl IntoIterator<Item = f64>,
        edges: &[(NodeId, NodeId, f64)],
        scratch: &mut CsrScratch,
    ) -> Result<(), GraphError> {
        let before = self.capacities(scratch);
        let built = self.fill(node_weights, edges, scratch);
        if built.is_err() {
            self.node_weights.clear();
            self.offsets.clear();
            self.offsets.push(0);
            self.entries.clear();
            self.edge_count = 0;
        }
        let after = self.capacities(scratch);
        scratch.grow_events += before.iter().zip(&after).filter(|(b, a)| a > b).count() as u64;
        built
    }

    fn capacities(&self, scratch: &CsrScratch) -> [usize; 4] {
        [
            self.node_weights.capacity(),
            self.offsets.capacity(),
            self.entries.capacity(),
            scratch.marks.capacity(),
        ]
    }

    /// The two passes and the compaction of [`WeightedGraph::rebuild`].
    fn fill(
        &mut self,
        node_weights: impl IntoIterator<Item = f64>,
        edges: &[(NodeId, NodeId, f64)],
        scratch: &mut CsrScratch,
    ) -> Result<(), GraphError> {
        self.node_weights.clear();
        self.node_weights.extend(node_weights);
        check_node_weights(&self.node_weights)?;
        let n = self.node_count();

        // Pass 1: validate each edge in order and count its two entries;
        // then turn the counts into each row's start.
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(a, b, cost) in edges {
            check_edge(n, a, b, cost)?;
            self.offsets[a.index()] += 1;
            self.offsets[b.index()] += 1;
        }
        let mut start = 0;
        for slot in &mut self.offsets {
            let count = *slot;
            *slot = start;
            start += count;
        }

        // Pass 2: place every edge at both endpoints, in edge order, using
        // `offsets[u]` as row `u`'s cursor; afterwards `offsets[u]` is the
        // end of row `u`, i.e. the start of row `u + 1`.
        self.entries.clear();
        self.entries.resize(2 * edges.len(), (NodeId(0), 0.0));
        for &(a, b, cost) in edges {
            let at = &mut self.offsets[a.index()];
            self.entries[*at] = (b, cost);
            *at += 1;
            let at = &mut self.offsets[b.index()];
            self.entries[*at] = (a, cost);
            *at += 1;
        }

        // Compact each row in place: the first entry of a neighbour keeps
        // its place, a repeat only lowers its cost.  A row sees the edges
        // of a pair in edge order, as add_edge does, so both endpoints end
        // with the same cost.  `marks[v]` is `(row, index)` of `v`'s first
        // entry in the row being compacted.
        let marks = &mut scratch.marks;
        marks.clear();
        marks.resize(n, (UNSET, 0));
        let mut written = 0;
        let mut row_start = 0;
        for u in 0..n {
            let row = u as u32;
            let row_end = self.offsets[u];
            self.offsets[u] = written;
            for i in row_start..row_end {
                let (v, cost) = self.entries[i];
                let mark = &mut marks[v.index()];
                if mark.0 == row {
                    keep_cheaper(&mut self.entries[mark.1 as usize].1, cost);
                } else {
                    *mark = (row, written as u32);
                    self.entries[written] = (v, cost);
                    written += 1;
                }
            }
            row_start = row_end;
        }
        self.offsets[n] = written;
        self.entries.truncate(written);
        self.edge_count = written / 2;
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `node` is a valid node index.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// Validates a node index.
    pub fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count(),
            })
        }
    }

    /// The weight `w(node)` of a vertex.
    #[inline]
    pub fn node_weight(&self, node: NodeId) -> f64 {
        self.node_weights[node.index()]
    }

    /// Overwrites the weight of a vertex.
    pub fn set_node_weight(&mut self, node: NodeId, weight: f64) -> Result<(), GraphError> {
        self.check_node(node)?;
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight {
                what: format!("node weight {weight}"),
            });
        }
        self.node_weights[node.index()] = weight;
        Ok(())
    }

    /// The entry range of `node`'s row.
    #[inline]
    fn row(&self, node: NodeId) -> std::ops::Range<usize> {
        self.offsets[node.index()]..self.offsets[node.index() + 1]
    }

    /// The entry index of `b` in `a`'s row, if the edge `{a, b}` exists.
    fn position(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let row = self.row(a);
        let start = row.start;
        self.entries[row]
            .iter()
            .position(|&(n, _)| n == b)
            .map(|i| start + i)
    }

    /// The neighbours of `node` together with the cost of the connecting edge.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        &self.entries[self.row(node)]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.row(node).len()
    }

    /// The cost of the edge `{a, b}`, if present.
    pub fn edge_cost(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if !self.contains(a) {
            return None;
        }
        self.position(a, b).map(|at| self.entries[at].1)
    }

    /// Adds the undirected edge `{a, b}` with cost `cost`.
    ///
    /// If the edge already exists, its cost is lowered to `cost` when `cost`
    /// is cheaper (and left unchanged otherwise); this collapses parallel
    /// edges conservatively.  A new edge is appended to both endpoints'
    /// rows, which shifts every later row: O(edges) per call, so callers
    /// with more than a handful of edges build with
    /// [`WeightedGraph::rebuild`].
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, cost: f64) -> Result<(), GraphError> {
        check_edge(self.node_count(), a, b, cost)?;
        match self.position(a, b) {
            Some(at_a) => {
                let at_b = self
                    .position(b, a)
                    .expect("undirected edge stored on both endpoints");
                keep_cheaper(&mut self.entries[at_a].1, cost);
                keep_cheaper(&mut self.entries[at_b].1, cost);
            }
            None => {
                for (from, to) in [(a, b), (b, a)] {
                    let end = self.offsets[from.index() + 1];
                    self.entries.insert(end, (to, cost));
                    for offset in &mut self.offsets[from.index() + 1..] {
                        *offset += 1;
                    }
                }
                self.edge_count += 1;
            }
        }
        Ok(())
    }

    /// Overwrites the cost of an existing edge `{a, b}`.
    ///
    /// Unlike [`Self::add_edge`] (which keeps the cheaper of two parallel
    /// edges), this sets the cost unconditionally; it is used by extensions
    /// that re-weight an already-built graph, such as the semantic blending
    /// of `rpg-repager`.  Returns an error if the edge does not exist or the
    /// cost is invalid.
    pub fn set_edge_cost(&mut self, a: NodeId, b: NodeId, cost: f64) -> Result<(), GraphError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !cost.is_finite() || cost < 0.0 {
            return Err(GraphError::InvalidWeight {
                what: format!("edge cost {cost}"),
            });
        }
        match (self.position(a, b), self.position(b, a)) {
            (Some(at_a), Some(at_b)) => {
                self.entries[at_a].1 = cost;
                self.entries[at_b].1 = cost;
                Ok(())
            }
            _ => Err(GraphError::InvalidWeight {
                what: format!("edge {a}-{b} does not exist"),
            }),
        }
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all undirected edges as `(a, b, cost)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .filter(move |&&(b, _)| a < b)
                .map(move |&(b, c)| (a, b, c))
        })
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> f64 {
        self.node_weights.iter().sum()
    }

    /// Sum of all edge costs.
    pub fn total_edge_cost(&self) -> f64 {
        self.edges().map(|(_, _, c)| c).sum()
    }

    /// The cost of a tree (or any sub-graph given as an edge list) under the
    /// NEWST objective of Eq. (1): the sum of its edge costs plus the sum of
    /// the weights of every vertex incident to at least one of its edges.
    ///
    /// `extra_vertices` lets callers include vertices that carry weight but
    /// have no incident edge (e.g. a single-terminal "tree").
    pub fn subgraph_cost(&self, edges: &[(NodeId, NodeId)], extra_vertices: &[NodeId]) -> f64 {
        let mut in_tree = vec![false; self.node_count()];
        let mut cost = 0.0;
        for &(a, b) in edges {
            cost += self.edge_cost(a, b).unwrap_or(0.0);
            in_tree[a.index()] = true;
            in_tree[b.index()] = true;
        }
        for &v in extra_vertices {
            in_tree[v.index()] = true;
        }
        for (i, &included) in in_tree.iter().enumerate() {
            if included {
                cost += self.node_weights[i];
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(vec![1.0, 2.0, 3.0]).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 10.0).unwrap();
        g
    }

    #[test]
    fn construction_validates_weights() {
        assert!(WeightedGraph::new(vec![0.0, 1.0]).is_ok());
        assert!(WeightedGraph::new(vec![-1.0]).is_err());
        assert!(WeightedGraph::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn edge_costs_are_symmetric() {
        let g = triangle();
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(0)), Some(1.0));
        assert_eq!(g.edge_cost(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn parallel_edges_keep_minimum_cost() {
        let mut g = WeightedGraph::with_zero_weights(2);
        g.add_edge(NodeId(0), NodeId(1), 5.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 3.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 7.0).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(3.0));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(0)), Some(3.0));
    }

    #[test]
    fn self_loops_and_bad_costs_are_rejected() {
        let mut g = WeightedGraph::with_zero_weights(2);
        assert!(g.add_edge(NodeId(0), NodeId(0), 1.0).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(1), -1.0).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(1), f64::INFINITY).is_err());
    }

    #[test]
    fn edge_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|&(a, b, _)| a < b));
    }

    #[test]
    fn totals_sum_weights_and_costs() {
        let g = triangle();
        assert!((g.total_node_weight() - 6.0).abs() < 1e-12);
        assert!((g.total_edge_cost() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn subgraph_cost_counts_incident_vertices_once() {
        let g = triangle();
        // Tree {0-1, 1-2}: edges 1 + 2, vertices 1 + 2 + 3.
        let cost = g.subgraph_cost(&[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))], &[]);
        assert!((cost - 9.0).abs() < 1e-12);
    }

    #[test]
    fn subgraph_cost_includes_extra_vertices() {
        let g = triangle();
        let cost = g.subgraph_cost(&[], &[NodeId(2)]);
        assert!((cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn set_edge_cost_overwrites_in_both_directions() {
        let mut g = triangle();
        g.set_edge_cost(NodeId(0), NodeId(1), 7.5).unwrap();
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(7.5));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(0)), Some(7.5));
        // Raising is allowed, unlike add_edge's keep-minimum behaviour.
        g.set_edge_cost(NodeId(0), NodeId(1), 9.0).unwrap();
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(9.0));
    }

    #[test]
    fn set_edge_cost_rejects_missing_edges_and_bad_costs() {
        let mut g = triangle();
        assert!(g.set_edge_cost(NodeId(0), NodeId(0), 1.0).is_err());
        assert!(g.set_edge_cost(NodeId(0), NodeId(1), -1.0).is_err());
        let mut disconnected = WeightedGraph::with_zero_weights(3);
        disconnected.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(disconnected
            .set_edge_cost(NodeId(0), NodeId(2), 1.0)
            .is_err());
    }

    /// `edges` added one by one to a fresh graph, stopping at the first
    /// error, as the builder's oracle.
    pub(super) fn sequential(
        node_weights: Vec<f64>,
        edges: &[(NodeId, NodeId, f64)],
    ) -> Result<WeightedGraph, GraphError> {
        let mut g = WeightedGraph::new(node_weights)?;
        for &(a, b, cost) in edges {
            g.add_edge(a, b, cost)?;
        }
        Ok(g)
    }

    /// Node count, edge count and every row with its cost bits.
    pub(super) fn rows(g: &WeightedGraph) -> (usize, usize, Vec<Vec<(NodeId, u64)>>) {
        let rows = g
            .nodes()
            .map(|u| {
                g.neighbors(u)
                    .iter()
                    .map(|&(v, c)| (v, c.to_bits()))
                    .collect()
            })
            .collect();
        (g.node_count(), g.edge_count(), rows)
    }

    #[test]
    fn rebuild_matches_sequential_insertion() {
        let edges = [
            (NodeId(2), NodeId(0), 4.0),
            (NodeId(0), NodeId(1), 5.0),
            (NodeId(1), NodeId(0), 3.0),
            (NodeId(3), NodeId(2), 0.0),
            (NodeId(0), NodeId(2), 1.0),
            (NodeId(0), NodeId(1), 7.0),
        ];
        let mut built = WeightedGraph::default();
        built
            .rebuild([1.0; 5], &edges, &mut CsrScratch::default())
            .unwrap();
        let oracle = sequential(vec![1.0; 5], &edges).unwrap();
        assert_eq!(rows(&built), rows(&oracle));
        assert_eq!(built.edge_count(), 3);
        assert_eq!(
            built.neighbors(NodeId(0)),
            &[(NodeId(2), 1.0), (NodeId(1), 3.0)]
        );
        assert!(built.neighbors(NodeId(4)).is_empty());
    }

    #[test]
    fn rebuild_reuses_buffers_and_reports_the_first_error() {
        let mut g = WeightedGraph::default();
        let mut scratch = CsrScratch::default();
        g.rebuild([0.0; 3], &[(NodeId(0), NodeId(1), 1.0)], &mut scratch)
            .unwrap();
        let bad = [
            (NodeId(0), NodeId(1), 1.0),
            (NodeId(2), NodeId(2), 1.0),
            (NodeId(0), NodeId(7), 1.0),
        ];
        let err = g.rebuild([0.0; 3], &bad, &mut scratch).unwrap_err();
        assert_eq!(err, sequential(vec![0.0; 3], &bad).unwrap_err());
        assert_eq!((g.node_count(), g.edge_count()), (0, 0));
        let weights_err = g.rebuild([0.0, -1.0], &[], &mut scratch).unwrap_err();
        assert_eq!(
            weights_err,
            WeightedGraph::new(vec![0.0, -1.0]).unwrap_err()
        );
        // A failed build does not disturb the next one.
        g.rebuild(
            [0.0; 2],
            &[(NodeId(0), NodeId(1), 2.0), (NodeId(1), NodeId(0), 1.0)],
            &mut scratch,
        )
        .unwrap();
        assert_eq!(g.edge_cost(NodeId(1), NodeId(0)), Some(1.0));
    }

    #[test]
    fn set_node_weight_updates_value() {
        let mut g = triangle();
        g.set_node_weight(NodeId(0), 5.5).unwrap();
        assert_eq!(g.node_weight(NodeId(0)), 5.5);
        assert!(g.set_node_weight(NodeId(0), -1.0).is_err());
        assert!(g.set_node_weight(NodeId(99), 1.0).is_err());
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::tests::{rows, sequential};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The two-pass CSR build equals `add_edge` applied edge by edge:
        /// node and edge counts, every row's neighbour order and every
        /// cost's bits, over edge lists full of parallel edges, reversed
        /// duplicates and zero costs.  Invalid edges (self-loops, a node out
        /// of range, a negative or infinite cost) give the same error.
        #[test]
        fn csr_build_matches_sequential_add_edge(
            n in 1u32..12,
            raw in prop::collection::vec((0u32..13, 0u32..13, 0u32..6, 0u32..40), 0..60),
        ) {
            let costs = [0.0, 0.5, 1.0, 1.0 / 3.0, 2.0, 0.25];
            let edges: Vec<(NodeId, NodeId, f64)> = raw
                .iter()
                .map(|&(a, b, c, fault)| {
                    let (a, b) = (a % (n + 1), b % n);
                    let cost = match fault {
                        0 => -1.0,
                        1 => f64::INFINITY,
                        _ => costs[c as usize],
                    };
                    // Mostly valid: out-of-range `a` and self-loops stay rare.
                    let a = if fault < 20 && a == n { a - 1 } else { a };
                    let b = if a == b && fault > 4 { (b + 1) % n } else { b };
                    (NodeId(a), NodeId(b), cost)
                })
                .collect();
            let weights = vec![1.0; n as usize];
            let oracle = sequential(weights.clone(), &edges);
            let mut scratch = CsrScratch::default();
            let mut built = WeightedGraph::default();
            let result = built.rebuild(weights.iter().copied(), &edges, &mut scratch);
            match oracle {
                Ok(oracle) => {
                    prop_assert!(result.is_ok());
                    prop_assert_eq!(rows(&built), rows(&oracle));
                }
                Err(err) => prop_assert_eq!(result.unwrap_err(), err),
            }
            // Only the valid prefix, so every case also compares a graph.
            let valid = edges
                .iter()
                .take_while(|&&(a, b, c)| check_edge(n as usize, a, b, c).is_ok())
                .copied()
                .collect::<Vec<_>>();
            let oracle = sequential(weights.clone(), &valid).unwrap();
            built.rebuild(weights, &valid, &mut scratch).unwrap();
            prop_assert_eq!(rows(&built), rows(&oracle));
        }
    }
}
