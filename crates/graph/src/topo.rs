//! Topological utilities over the directed citation graph.
//!
//! A well-formed citation corpus is (almost) a DAG: a paper can only cite
//! papers published before it.  The reading-order assembly in `rpg-repager`
//! walks the generated Steiner tree from prerequisites to follow-ups, and
//! uses the utilities here to obtain a citation-consistent ordering and to
//! detect any cycles introduced by noisy data.

use crate::{CitationGraph, GraphError, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a topological sort attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoResult {
    /// The graph restricted to the requested nodes is acyclic; contains a
    /// topological order in which every paper appears *after* the papers it
    /// cites (prerequisites first).
    Acyclic(Vec<NodeId>),
    /// A cycle was detected; contains the nodes that could not be ordered.
    Cyclic(Vec<NodeId>),
}

impl TopoResult {
    /// Returns the order if acyclic.
    pub fn order(&self) -> Option<&[NodeId]> {
        match self {
            TopoResult::Acyclic(order) => Some(order),
            TopoResult::Cyclic(_) => None,
        }
    }

    /// Whether a full order was produced.
    pub fn is_acyclic(&self) -> bool {
        matches!(self, TopoResult::Acyclic(_))
    }
}

/// Kahn's algorithm restricted to the sub-graph induced by `nodes`.
///
/// The returned order lists *cited papers before citing papers*, i.e.
/// prerequisites first — the natural reading order of the paper's task.
/// Ties (papers with no ordering constraint between them) are broken by
/// ascending node id for determinism.
///
/// The nodes are numbered by their position in the sorted subset, and the
/// in-subset citations are collected once from each member's reference
/// list, so the search touches no hash table and never scans a cited-by
/// list.  A min-heap of positions holds the ready nodes; it pops the node
/// [`reference::reading_order`]'s sorted ready queue pops, so both return
/// the same order (and the same leftover on a cycle).
pub fn reading_order(graph: &CitationGraph, nodes: &[NodeId]) -> Result<TopoResult, GraphError> {
    for &n in nodes {
        graph.check_node(n)?;
    }
    let mut subset: Vec<NodeId> = nodes.to_vec();
    subset.sort_unstable();
    subset.dedup();

    // `pending[j]` counts the in-subset prerequisites (cited papers) of
    // `subset[j]`; `arcs` holds every in-subset citation as
    // `(prerequisite, dependent)` positions, grouped by prerequisite.
    let mut pending = vec![0u32; subset.len()];
    let mut arcs: Vec<(u32, u32)> = Vec::new();
    for (j, &citing) in subset.iter().enumerate() {
        for cited in graph.references(citing) {
            if let Ok(i) = subset.binary_search(cited) {
                pending[j] += 1;
                arcs.push((i as u32, j as u32));
            }
        }
    }
    arcs.sort_unstable();

    let mut ready: BinaryHeap<Reverse<u32>> = (0..subset.len() as u32)
        .filter(|&j| pending[j as usize] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(subset.len());
    while let Some(Reverse(i)) = ready.pop() {
        order.push(subset[i as usize]);
        // Every paper citing `subset[i]` loses one prerequisite.
        let first = arcs.partition_point(|&(p, _)| p < i);
        for &(_, j) in arcs[first..].iter().take_while(|&&(p, _)| p == i) {
            pending[j as usize] -= 1;
            if pending[j as usize] == 0 {
                ready.push(Reverse(j));
            }
        }
    }

    if order.len() == subset.len() {
        Ok(TopoResult::Acyclic(order))
    } else {
        // A node is ordered exactly when its count reached zero.
        let leftover = subset
            .into_iter()
            .zip(pending)
            .filter_map(|(n, p)| (p > 0).then_some(n))
            .collect();
        Ok(TopoResult::Cyclic(leftover))
    }
}

/// The reading order as first written, kept verbatim as the differential
/// oracle of [`reading_order`]: a `HashMap` of pending counts decremented
/// over every cited-by list, and a ready queue kept sorted by insertion.
pub mod reference {
    use super::TopoResult;
    use crate::{CitationGraph, GraphError, NodeId};
    use std::collections::VecDeque;

    /// Kahn's algorithm restricted to the sub-graph induced by `nodes`.
    ///
    /// The returned order lists *cited papers before citing papers*, i.e.
    /// prerequisites first — the natural reading order of the paper's task.
    /// Ties (papers with no ordering constraint between them) are broken by
    /// ascending node id for determinism.
    pub fn reading_order(
        graph: &CitationGraph,
        nodes: &[NodeId],
    ) -> Result<TopoResult, GraphError> {
        for &n in nodes {
            graph.check_node(n)?;
        }
        let mut subset: Vec<NodeId> = nodes.to_vec();
        subset.sort_unstable();
        subset.dedup();
        let in_subset = |n: NodeId| subset.binary_search(&n).is_ok();

        // in-subset out-degree = number of prerequisites (cited papers) inside the
        // subset that must come first.
        let mut pending: std::collections::HashMap<NodeId, usize> = subset
            .iter()
            .map(|&n| {
                let deps = graph
                    .references(n)
                    .iter()
                    .filter(|&&m| in_subset(m))
                    .count();
                (n, deps)
            })
            .collect();

        let mut ready: VecDeque<NodeId> = subset
            .iter()
            .copied()
            .filter(|&n| pending[&n] == 0)
            .collect();
        let mut order = Vec::with_capacity(subset.len());

        while let Some(n) = ready.pop_front() {
            order.push(n);
            // Every paper citing `n` inside the subset loses one prerequisite.
            for &citer in graph.cited_by(n) {
                if let Some(count) = pending.get_mut(&citer) {
                    *count -= 1;
                    if *count == 0 {
                        // Insert keeping ascending-id order among currently ready
                        // nodes for determinism.
                        let pos = ready.iter().position(|&r| r > citer).unwrap_or(ready.len());
                        ready.insert(pos, citer);
                    }
                }
            }
        }

        if order.len() == subset.len() {
            Ok(TopoResult::Acyclic(order))
        } else {
            let ordered: std::collections::HashSet<NodeId> = order.into_iter().collect();
            let leftover = subset
                .into_iter()
                .filter(|n| !ordered.contains(n))
                .collect();
            Ok(TopoResult::Cyclic(leftover))
        }
    }
}

/// Returns `true` if the whole graph is a DAG (no citation cycles).
pub fn is_dag(graph: &CitationGraph) -> bool {
    let all: Vec<NodeId> = graph.nodes().collect();
    matches!(reading_order(graph, &all), Ok(TopoResult::Acyclic(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// 2 cites 1, 1 cites 0; 3 cites 0.  Reading order must put 0 first.
    fn chain() -> CitationGraph {
        let mut b = GraphBuilder::new(4);
        b.add_citation(NodeId(2), NodeId(1)).unwrap();
        b.add_citation(NodeId(1), NodeId(0)).unwrap();
        b.add_citation(NodeId(3), NodeId(0)).unwrap();
        b.build()
    }

    #[test]
    fn prerequisites_come_first() {
        let g = chain();
        let order = reading_order(&g, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
            .unwrap()
            .order()
            .unwrap()
            .to_vec();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(NodeId(0)) < pos(NodeId(1)));
        assert!(pos(NodeId(1)) < pos(NodeId(2)));
        assert!(pos(NodeId(0)) < pos(NodeId(3)));
    }

    #[test]
    fn subset_ordering_ignores_outside_constraints() {
        let g = chain();
        let result = reading_order(&g, &[NodeId(2), NodeId(3)]).unwrap();
        let order = result.order().unwrap();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn cycles_are_reported() {
        let mut b = GraphBuilder::new(3);
        b.add_citation(NodeId(0), NodeId(1)).unwrap();
        b.add_citation(NodeId(1), NodeId(2)).unwrap();
        b.add_citation(NodeId(2), NodeId(0)).unwrap();
        let g = b.build();
        let result = reading_order(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert!(!result.is_acyclic());
        assert!(matches!(result, TopoResult::Cyclic(ref v) if v.len() == 3));
        assert!(!is_dag(&g));
    }

    #[test]
    fn matches_the_reference_on_a_dag_and_on_a_cycle_with_a_tail() {
        let g = chain();
        let nodes = [NodeId(3), NodeId(2), NodeId(0), NodeId(1), NodeId(3)];
        assert_eq!(
            reading_order(&g, &nodes).unwrap(),
            reference::reading_order(&g, &nodes).unwrap()
        );
        // 4 -> 1 -> 2 -> 3 -> 1 is a cycle fed by 4; 0 is independent.
        let mut b = GraphBuilder::new(5);
        for (citing, cited) in [(4, 1), (1, 2), (2, 3), (3, 1)] {
            b.add_citation(NodeId(citing), NodeId(cited)).unwrap();
        }
        let g = b.build();
        let all: Vec<NodeId> = g.nodes().collect();
        let result = reading_order(&g, &all).unwrap();
        assert_eq!(
            result,
            TopoResult::Cyclic(vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)])
        );
        assert_eq!(result, reference::reading_order(&g, &all).unwrap());
    }

    #[test]
    fn dag_detection_accepts_chain() {
        assert!(is_dag(&chain()));
    }

    #[test]
    fn duplicates_and_empty_sets_are_handled() {
        let g = chain();
        let order = reading_order(&g, &[NodeId(1), NodeId(1)]).unwrap();
        assert_eq!(order.order().unwrap(), &[NodeId(1)]);
        let empty = reading_order(&g, &[]).unwrap();
        assert_eq!(empty.order().unwrap().len(), 0);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let g = chain();
        assert!(reading_order(&g, &[NodeId(9)]).is_err());
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// For graphs that are DAGs by construction (edges always point from
        /// higher id to lower id, like "newer cites older"), the reading order
        /// contains every node exactly once and respects every edge.
        #[test]
        fn order_respects_all_citations(edges in prop::collection::vec((0u32..20, 0u32..20), 0..100)) {
            let mut b = GraphBuilder::new(20);
            for (u, v) in edges {
                let (hi, lo) = if u > v { (u, v) } else { (v, u) };
                if hi != lo {
                    b.add_citation(NodeId(hi), NodeId(lo)).unwrap();
                }
            }
            let g = b.build();
            let nodes: Vec<NodeId> = g.nodes().collect();
            let result = reading_order(&g, &nodes).unwrap();
            let order = result.order().expect("DAG by construction");
            prop_assert_eq!(order.len(), 20);
            let pos: std::collections::HashMap<NodeId, usize> =
                order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for (citing, cited) in g.edges() {
                prop_assert!(pos[&cited] < pos[&citing]);
            }
        }

        /// The heap-driven order equals the reference's on random subsets
        /// of random DAGs (`Acyclic`, same order) and of graphs with
        /// back-edges (`Cyclic`, same leftover), duplicates in the subset
        /// included.
        #[test]
        fn matches_the_reference_order(
            n in 1u32..24,
            edges in prop::collection::vec((0u32..24, 0u32..24), 0..120),
            back_edges in prop::collection::vec((0u32..24, 0u32..24), 0..3),
            subset in prop::collection::vec(0u32..24, 0..30),
        ) {
            for cyclic in [false, true] {
                let mut b = GraphBuilder::new(n as usize);
                for &(u, v) in &edges {
                    let (hi, lo) = (u.max(v) % n, u.min(v) % n);
                    if hi > lo {
                        b.add_citation(NodeId(hi), NodeId(lo)).unwrap();
                    }
                }
                if cyclic {
                    for &(u, v) in &back_edges {
                        let (lo, hi) = (u.min(v) % n, u.max(v) % n);
                        if hi > lo {
                            b.add_citation(NodeId(lo), NodeId(hi)).unwrap();
                        }
                    }
                }
                let g = b.build();
                let nodes: Vec<NodeId> = subset.iter().map(|&x| NodeId(x % n)).collect();
                let all: Vec<NodeId> = g.nodes().collect();
                for nodes in [&nodes, &all] {
                    prop_assert_eq!(
                        reading_order(&g, nodes).unwrap(),
                        reference::reading_order(&g, nodes).unwrap()
                    );
                }
            }
            let g = GraphBuilder::new(n as usize).build();
            prop_assert_eq!(
                reading_order(&g, &[NodeId(n)]).unwrap_err(),
                reference::reading_order(&g, &[NodeId(n)]).unwrap_err()
            );
        }
    }
}
