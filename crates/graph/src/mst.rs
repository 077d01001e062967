//! Minimum spanning trees and union-find.
//!
//! Steps 2 and 4 of the Steiner heuristic (Algorithm 1 of the paper) each
//! compute a minimum spanning tree: first of the terminals' distance graph,
//! then of the sub-graph obtained by expanding its edges back into shortest
//! paths.  Kruskal's algorithm with a path-compressing union-find is used for
//! both.

use crate::{GraphError, NodeId, WeightedGraph};

/// Disjoint-set (union-find) structure over dense node indices, with path
/// compression and union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl Default for UnionFind {
    fn default() -> Self {
        UnionFind::new(0)
    }
}

impl UnionFind {
    /// Creates a union-find with `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Re-initialises to `n` singleton sets, reusing the existing buffers
    /// (no allocation when `n` fits the current capacity).
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.components = n;
    }

    /// Number of elements the buffers hold without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.parent.capacity().min(self.rank.capacity())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Finds the representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut current = x;
        while self.parent[current] as usize != current {
            let next = self.parent[current] as usize;
            self.parent[current] = root as u32;
            current = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// A minimum spanning forest of a [`WeightedGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanningForest {
    /// The chosen edges, each as `(a, b, cost)`.
    pub edges: Vec<(NodeId, NodeId, f64)>,
    /// Total edge cost of the forest.
    pub total_edge_cost: f64,
    /// Number of connected components the forest spans (1 for a connected
    /// input restricted to non-isolated nodes).
    pub component_count: usize,
}

impl SpanningForest {
    /// The forest's edges without their costs.
    pub fn edge_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.edges.iter().map(|&(a, b, _)| (a, b)).collect()
    }
}

/// Computes a minimum spanning forest of `graph` with Kruskal's algorithm,
/// considering only edge costs (node weights do not affect which spanning
/// tree of a fixed vertex set is minimal, since every spanning tree of the
/// same component touches the same vertices).
///
/// Ties are broken deterministically by `(cost, a, b)` so repeated runs pick
/// the same tree, which Algorithm 1's "pick an arbitrary one" permits.
pub fn minimum_spanning_forest(graph: &WeightedGraph) -> SpanningForest {
    let mut edges: Vec<(NodeId, NodeId, f64)> = graph.edges().collect();
    edges.sort_by(|x, y| {
        x.2.partial_cmp(&y.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.0.cmp(&y.0))
            .then(x.1.cmp(&y.1))
    });
    let mut uf = UnionFind::new(graph.node_count());
    let mut chosen = Vec::new();
    let mut total = 0.0;
    for (a, b, c) in edges {
        if uf.union(a.index(), b.index()) {
            chosen.push((a, b, c));
            total += c;
        }
    }
    SpanningForest {
        edges: chosen,
        total_edge_cost: total,
        component_count: uf.component_count(),
    }
}

/// Computes the minimum spanning tree of the sub-graph induced by `nodes`.
///
/// Edges with an endpoint outside `nodes` are ignored.  Returns an error if
/// any node is out of bounds.
pub fn mst_of_subset(
    graph: &WeightedGraph,
    nodes: &[NodeId],
) -> Result<SpanningForest, GraphError> {
    for &n in nodes {
        graph.check_node(n)?;
    }
    let mut in_subset = vec![false; graph.node_count()];
    for &n in nodes {
        in_subset[n.index()] = true;
    }
    let mut edges: Vec<(NodeId, NodeId, f64)> = graph
        .edges()
        .filter(|&(a, b, _)| in_subset[a.index()] && in_subset[b.index()])
        .collect();
    edges.sort_by(|x, y| {
        x.2.partial_cmp(&y.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.0.cmp(&y.0))
            .then(x.1.cmp(&y.1))
    });
    let mut uf = UnionFind::new(graph.node_count());
    let mut chosen = Vec::new();
    let mut total = 0.0;
    for (a, b, c) in edges {
        if uf.union(a.index(), b.index()) {
            chosen.push((a, b, c));
            total += c;
        }
    }
    // Count components among the subset only.
    let mut roots = std::collections::HashSet::new();
    for &n in nodes {
        roots.insert(uf.find(n.index()));
    }
    Ok(SpanningForest {
        edges: chosen,
        total_edge_cost: total,
        component_count: roots.len(),
    })
}

/// The reusable buffers of [`mst_of_subset_into`]: generation-stamped
/// subset membership (with each member's dense slot), the induced edge
/// list, and a union-find over the slots.
#[derive(Debug, Default, Clone)]
pub struct SubsetMstScratch {
    slot: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    edges: Vec<(f64, u32, u32)>,
    uf: UnionFind,
    grow_events: u64,
}

impl SubsetMstScratch {
    /// Number of times a buffer had to grow (i.e. allocate) since the
    /// scratch was created; flat across steady-state runs.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }
}

/// [`mst_of_subset`] over caller-provided buffers: appends the chosen edges
/// of the induced sub-graph's minimum spanning forest to `out` (cleared
/// first) and returns their total cost.
///
/// Edges are sorted by the same `(cost, a, b)` key and summed in the same
/// order, so `out` equals [`SpanningForest::edge_pairs`] of
/// [`mst_of_subset`] and the total is bit-identical to its
/// `total_edge_cost`.  A warm scratch runs without heap allocation.
pub fn mst_of_subset_into(
    graph: &WeightedGraph,
    nodes: &[NodeId],
    scratch: &mut SubsetMstScratch,
    out: &mut Vec<(NodeId, NodeId)>,
) -> Result<f64, GraphError> {
    for &n in nodes {
        graph.check_node(n)?;
    }
    let n = graph.node_count();
    if scratch.stamp.len() < n {
        if scratch.stamp.capacity() < n {
            scratch.grow_events += 1;
        }
        scratch.stamp.resize(n, 0);
        scratch.slot.resize(n, 0);
        // A subset of distinct nodes never needs more union-find slots.
        scratch.uf.reset(n);
    }
    if scratch.generation == u32::MAX {
        scratch.stamp.fill(0);
        scratch.generation = 0;
    }
    scratch.generation += 1;
    let gen = scratch.generation;
    for (s, &v) in nodes.iter().enumerate() {
        scratch.stamp[v.index()] = gen;
        scratch.slot[v.index()] = s as u32;
    }

    let edge_capacity = scratch.edges.capacity();
    scratch.edges.clear();
    for &a in nodes {
        for &(b, c) in graph.neighbors(a) {
            if a < b && scratch.stamp[b.index()] == gen {
                scratch.edges.push((c, a.0, b.0));
            }
        }
    }
    if scratch.edges.capacity() > edge_capacity {
        scratch.grow_events += 1;
    }
    // A node listed twice contributes its edges twice; the duplicates sort
    // next to each other and the second copy closes no new component.
    scratch.edges.sort_unstable_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.1.cmp(&y.1))
            .then(x.2.cmp(&y.2))
    });

    if scratch.uf.capacity() < nodes.len() {
        scratch.grow_events += 1;
    }
    scratch.uf.reset(nodes.len());
    out.clear();
    let mut total = 0.0;
    for &(c, a, b) in &scratch.edges {
        let (sa, sb) = (scratch.slot[a as usize], scratch.slot[b as usize]);
        if scratch.uf.union(sa as usize, sb as usize) {
            out.push((NodeId(a), NodeId(b)));
            total += c;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_with_diagonal() -> WeightedGraph {
        // 0 -1- 1
        // |     |
        // 4     2
        // |     |
        // 3 -3- 2   plus diagonal 0-2 with cost 10
        let mut g = WeightedGraph::with_zero_weights(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 3.0).unwrap();
        g.add_edge(NodeId(3), NodeId(0), 4.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 10.0).unwrap();
        g
    }

    #[test]
    fn union_find_tracks_components() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn mst_of_square_picks_cheapest_edges() {
        let g = square_with_diagonal();
        let mst = minimum_spanning_forest(&g);
        assert_eq!(mst.edges.len(), 3);
        assert!((mst.total_edge_cost - 6.0).abs() < 1e-12);
        assert_eq!(mst.component_count, 1);
        // The expensive diagonal and the cost-4 edge must not be chosen.
        assert!(!mst.edge_pairs().contains(&(NodeId(0), NodeId(2))));
        assert!(!mst.edge_pairs().contains(&(NodeId(3), NodeId(0))));
    }

    #[test]
    fn forest_of_disconnected_graph_has_multiple_components() {
        let mut g = WeightedGraph::with_zero_weights(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let mst = minimum_spanning_forest(&g);
        assert_eq!(mst.edges.len(), 2);
        assert_eq!(mst.component_count, 2);
    }

    #[test]
    fn subset_mst_ignores_outside_edges() {
        let g = square_with_diagonal();
        let mst = mst_of_subset(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(mst.edges.len(), 2);
        assert!((mst.total_edge_cost - 3.0).abs() < 1e-12);
        assert_eq!(mst.component_count, 1);
    }

    #[test]
    fn subset_mst_reports_disconnected_subsets() {
        let mut g = WeightedGraph::with_zero_weights(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        let mst = mst_of_subset(&g, &[NodeId(0), NodeId(2)]).unwrap();
        assert!(mst.edges.is_empty());
        assert_eq!(mst.component_count, 2);
    }

    #[test]
    fn subset_mst_rejects_bad_nodes() {
        let g = square_with_diagonal();
        assert!(mst_of_subset(&g, &[NodeId(9)]).is_err());
        let mut scratch = SubsetMstScratch::default();
        assert!(mst_of_subset_into(&g, &[NodeId(9)], &mut scratch, &mut Vec::new()).is_err());
    }

    #[test]
    fn subset_mst_into_matches_subset_mst() {
        // Tied costs exercise the (cost, a, b) tie-break; the reused
        // scratch must not leak one subset's membership into the next.
        let mut g = WeightedGraph::with_zero_weights(7);
        for (a, b, c) in [
            (0, 1, 2.0),
            (1, 2, 2.0),
            (0, 2, 2.0),
            (2, 3, 0.5),
            (3, 4, 1.25),
            (4, 5, 2.0),
            (0, 5, 1.25),
            (5, 6, 0.1),
            (1, 6, 3.0),
        ] {
            g.add_edge(NodeId(a), NodeId(b), c).unwrap();
        }
        let mut scratch = SubsetMstScratch::default();
        let mut out = Vec::new();
        for subset in [
            vec![0, 1, 2, 3, 4, 5, 6],
            vec![6, 2, 0, 1],
            vec![0, 3],
            vec![4, 4, 5, 3],
            vec![],
        ] {
            let nodes: Vec<NodeId> = subset.into_iter().map(NodeId).collect();
            let want = mst_of_subset(&g, &nodes).unwrap();
            let total = mst_of_subset_into(&g, &nodes, &mut scratch, &mut out).unwrap();
            assert_eq!(out, want.edge_pairs(), "subset {nodes:?}");
            assert_eq!(total.to_bits(), want.total_edge_cost.to_bits());
        }
        let warm = scratch.grow_events();
        mst_of_subset_into(
            &g,
            &[NodeId(0), NodeId(1), NodeId(2)],
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(
            scratch.grow_events(),
            warm,
            "a warm scratch does not allocate"
        );
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// An MST of a connected component has exactly (nodes in component - 1)
        /// edges, and its total cost is no larger than that of any spanning
        /// tree found by a greedy pass in insertion order.
        #[test]
        fn mst_edge_count_and_optimality(
            edges in prop::collection::vec((0u32..12, 0u32..12, 1u16..100), 1..80),
        ) {
            let mut g = WeightedGraph::with_zero_weights(12);
            for &(a, b, c) in &edges {
                if a != b {
                    g.add_edge(NodeId(a), NodeId(b), f64::from(c)).unwrap();
                }
            }
            let mst = minimum_spanning_forest(&g);

            // Edge count: nodes - components (only counting all 12 nodes,
            // isolated ones are their own components).
            let mut uf = UnionFind::new(12);
            for (a, b, _) in g.edges() {
                uf.union(a.index(), b.index());
            }
            prop_assert_eq!(mst.edges.len(), 12 - uf.component_count());

            // Compare against a greedy spanning forest in arbitrary order: the
            // MST must not cost more.
            let mut uf2 = UnionFind::new(12);
            let mut greedy_cost = 0.0;
            for (a, b, c) in g.edges() {
                if uf2.union(a.index(), b.index()) {
                    greedy_cost += c;
                }
            }
            prop_assert!(mst.total_edge_cost <= greedy_cost + 1e-9);
        }

        /// Union-find component count equals the number of distinct roots.
        #[test]
        fn union_find_roots_consistent(ops in prop::collection::vec((0usize..20, 0usize..20), 0..100)) {
            let mut uf = UnionFind::new(20);
            for (a, b) in ops {
                uf.union(a, b);
            }
            let roots: std::collections::HashSet<_> = (0..20).map(|i| uf.find(i)).collect();
            prop_assert_eq!(roots.len(), uf.component_count());
        }
    }
}
