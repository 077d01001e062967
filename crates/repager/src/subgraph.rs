//! Sub-citation graph construction (Step 3 of the RePaGer pipeline).
//!
//! The whole citation graph is far too large to run a Steiner optimisation
//! over, and — per Observation II — almost everything relevant to a query
//! lives within two citation hops of the engine's top-K results.  This module
//! therefore builds the *sub-citation graph*: the weighted, undirected graph
//! induced by the 1st/2nd-order reference neighbourhood of the seed papers,
//! with Eq. (2) edge costs and Eq. (3) node weights.
//!
//! A build runs on dense ids end to end.  A generation-stamped, corpus-sized
//! array maps each paper to its local node (or marks it excluded, or
//! rejected by the year cut-off), so the breadth-first expansion, the
//! admission test and every later `local_of` lookup are one array read.
//! Eq. (2) is evaluated once per distinct in-text occurrence count, a `u8`,
//! through a 256-slot table, and the edges are laid out by
//! [`WeightedGraph::rebuild`] in CSR form.  [`SubGraph::build_with`] takes
//! every buffer from a [`PipelineScratch`] and
//! [`PipelineScratch::recycle_subgraph`] gives them back, so a warmed worker
//! builds without allocating.  [`reference::build`] is the construction as
//! first written, kept as the differential oracle.

use crate::config::RepagerConfig;
use crate::scratch::PipelineScratch;
use crate::weights::{edge_cost, NodeWeights};
use rpg_corpus::{Corpus, PaperId};
use rpg_graph::weighted::CsrScratch;
use rpg_graph::{GraphError, NodeId, WeightedGraph};

/// Slot values above every local id: an excluded paper not yet reached by
/// the expansion, an excluded paper it reached, and a reached paper
/// published after the cut-off.
const EXCLUDED: u32 = u32::MAX;
const EXCLUDED_REACHED: u32 = u32::MAX - 1;
const REJECTED: u32 = u32::MAX - 2;

/// The per-paper state of one build, indexed by corpus paper id: a local
/// node id, or one of the markers above.  A slot is valid only when its
/// stamp equals the current generation, so starting a build is O(1).
#[derive(Debug, Clone, Default)]
struct LocalIndex {
    /// `(stamp, value)` per corpus paper.
    slots: Vec<(u32, u32)>,
    generation: u32,
}

impl LocalIndex {
    /// Starts a build over a corpus of `papers` papers.
    fn begin(&mut self, papers: usize) {
        if self.slots.len() < papers {
            self.slots.resize(papers, (0, 0));
        }
        if self.generation == u32::MAX {
            self.slots.fill((0, 0));
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// The local node of `paper`, if this build admitted it.  Ids beyond
    /// the corpus never have one.
    #[inline]
    fn local(&self, paper: PaperId) -> Option<NodeId> {
        match self.slots.get(paper.index()) {
            Some(&(stamp, value)) if stamp == self.generation && value < REJECTED => {
                Some(NodeId(value))
            }
            _ => None,
        }
    }
}

/// The weighted sub-citation graph around a set of seed papers, with the
/// mapping between corpus paper ids and the dense local node ids used by the
/// graph algorithms.
#[derive(Debug, Clone, Default)]
pub struct SubGraph {
    /// The weighted undirected graph the Steiner machinery runs on.
    pub weighted: WeightedGraph,
    /// `papers[local]` is the corpus paper of local node `local`.
    papers: Vec<PaperId>,
    /// Reverse mapping from corpus paper to local node.
    index: LocalIndex,
    /// Hop distance of each local node from the seed set (0 for seeds).
    hops: Vec<u8>,
}

/// The build-only buffers of [`SubGraph::build_with`], kept in the
/// [`PipelineScratch`] together with the last recycled sub-graph.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubgraphBuffers {
    /// A returned sub-graph whose buffers the next build refills.
    spare: Option<SubGraph>,
    /// The breadth-first queue: every reached paper with its hop distance.
    queue: Vec<(PaperId, u8)>,
    /// The sub-graph's edges in insertion order, as local ids and costs.
    edges: Vec<(NodeId, NodeId, f64)>,
    csr: CsrScratch,
    /// Eq. (2) per in-text occurrence count (a `u8`), NaN until first
    /// needed in the current build.
    costs: Vec<f64>,
    grow_events: u64,
}

impl SubgraphBuffers {
    /// Buffer growth events so far, the CSR build's included.
    pub(crate) fn grow_events(&self) -> u64 {
        self.grow_events + self.csr.grow_events()
    }

    /// Takes back a sub-graph's buffers for the next build.
    pub(crate) fn recycle(&mut self, subgraph: SubGraph) {
        self.spare = Some(subgraph);
    }

    fn capacities(&self, subgraph: &SubGraph) -> [usize; 6] {
        [
            subgraph.papers.capacity(),
            subgraph.hops.capacity(),
            subgraph.index.slots.capacity(),
            self.queue.capacity(),
            self.edges.capacity(),
            self.costs.capacity(),
        ]
    }
}

impl SubGraph {
    /// Builds the sub-graph induced by the `expansion_hops`-order reference
    /// neighbourhood of `seeds`, restricted to papers published no later than
    /// `max_year` (when given) and excluding `exclude` (typically the survey
    /// the query came from).
    ///
    /// Thin wrapper over [`SubGraph::build_with`] with a fresh scratch.
    pub fn build(
        corpus: &Corpus,
        node_weights: &NodeWeights,
        seeds: &[PaperId],
        config: &RepagerConfig,
        max_year: Option<u16>,
        exclude: &[PaperId],
    ) -> Result<Self, GraphError> {
        let mut scratch = PipelineScratch::new();
        Self::build_with(
            corpus,
            node_weights,
            seeds,
            config,
            max_year,
            exclude,
            &mut scratch,
        )
    }

    /// [`SubGraph::build`] into buffers taken from `scratch`; hand the
    /// result back with [`PipelineScratch::recycle_subgraph`] once it is no
    /// longer needed, and the next build reuses them.  Each excluded paper
    /// is marked once, so an `exclude` list of any length costs O(1) per
    /// membership test; ids beyond the corpus never match.
    ///
    /// Returns exactly what [`reference::build`] returns: the same papers
    /// in the same local order, the same hops, and a graph with the same
    /// neighbour order and cost bits.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with(
        corpus: &Corpus,
        node_weights: &NodeWeights,
        seeds: &[PaperId],
        config: &RepagerConfig,
        max_year: Option<u16>,
        exclude: &[PaperId],
        scratch: &mut PipelineScratch,
    ) -> Result<Self, GraphError> {
        let graph = corpus.graph();
        for &seed in seeds {
            graph.check_node(seed.node())?;
        }
        let buffers = &mut scratch.subgraph;
        let mut sg = buffers.spare.take().unwrap_or_default();
        let before = buffers.capacities(&sg);

        // Every expansion stays inside the corpus, so sizing these three for
        // the whole corpus once means they never grow again.
        let papers = graph.node_count();
        sg.papers.clear();
        sg.papers.reserve(papers);
        sg.hops.clear();
        sg.hops.reserve(papers);
        buffers.queue.clear();
        buffers.queue.reserve(papers);
        sg.index.begin(papers);
        let generation = sg.index.generation;
        for &paper in exclude {
            if let Some(slot) = sg.index.slots.get_mut(paper.index()) {
                *slot = (generation, EXCLUDED);
            }
        }

        // The breadth-first expansion of `traversal::expand` over the
        // reference direction, admitting each paper as it is reached.
        let queue = &mut buffers.queue;
        for &seed in seeds {
            sg.reach(corpus, max_year, seed, 0, queue);
        }
        let mut head = 0;
        while let Some(&(paper, hop)) = queue.get(head) {
            head += 1;
            if hop == config.expansion_hops {
                continue;
            }
            for &cited in graph.references(paper.node()) {
                sg.reach(corpus, max_year, PaperId::from_node(cited), hop + 1, queue);
            }
        }

        // Every citation edge between two admitted papers becomes an
        // undirected weighted edge.
        let costs = &mut buffers.costs;
        costs.clear();
        costs.resize(usize::from(u8::MAX) + 1, f64::NAN);
        let edges = &mut buffers.edges;
        edges.clear();
        for (i, &paper) in sg.papers.iter().enumerate() {
            for reference in corpus.references_of(paper) {
                if let Some(local_b) = sg.index.local(reference.cited) {
                    let cost = &mut costs[usize::from(reference.occurrences)];
                    if cost.is_nan() {
                        *cost = edge_cost(reference.occurrences, config);
                    }
                    edges.push((NodeId::from_index(i), local_b, *cost));
                }
            }
        }
        let built = sg.weighted.rebuild(
            sg.papers
                .iter()
                .map(|&p| node_weights.node_weight(p, config)),
            edges,
            &mut buffers.csr,
        );
        let after = buffers.capacities(&sg);
        buffers.grow_events += before.iter().zip(&after).filter(|(b, a)| a > b).count() as u64;
        built.map(|()| sg)
    }

    /// Reaches `paper` at `hop` hops during the expansion: queues it on its
    /// first visit and admits it unless it is excluded or too recent.
    fn reach(
        &mut self,
        corpus: &Corpus,
        max_year: Option<u16>,
        paper: PaperId,
        hop: u8,
        queue: &mut Vec<(PaperId, u8)>,
    ) {
        let generation = self.index.generation;
        let slot = &mut self.index.slots[paper.index()];
        if slot.0 == generation {
            if slot.1 != EXCLUDED {
                return;
            }
            slot.1 = EXCLUDED_REACHED;
        } else if max_year.is_none_or(|cutoff| corpus.year(paper) <= cutoff) {
            *slot = (generation, self.papers.len() as u32);
            self.papers.push(paper);
            self.hops.push(hop);
        } else {
            *slot = (generation, REJECTED);
        }
        queue.push((paper, hop));
    }

    /// Number of papers (nodes) in the sub-graph.
    pub fn node_count(&self) -> usize {
        self.papers.len()
    }

    /// Number of undirected edges in the sub-graph.
    pub fn edge_count(&self) -> usize {
        self.weighted.edge_count()
    }

    /// The corpus paper of a local node.
    pub fn paper_of(&self, local: NodeId) -> PaperId {
        self.papers[local.index()]
    }

    /// The local node of a corpus paper, if the paper is in the sub-graph.
    #[inline]
    pub fn local_of(&self, paper: PaperId) -> Option<NodeId> {
        self.index.local(paper)
    }

    /// All papers in the sub-graph, in local-node order.
    pub fn papers(&self) -> &[PaperId] {
        &self.papers
    }

    /// The hop distance of a paper from the seed set, if present.
    pub fn hop_of(&self, paper: PaperId) -> Option<u8> {
        self.local_of(paper).map(|l| self.hops[l.index()])
    }

    /// Papers at exactly the given hop distance.
    pub fn papers_at_hop(&self, hop: u8) -> Vec<PaperId> {
        self.papers
            .iter()
            .zip(&self.hops)
            .filter_map(|(&p, &h)| (h == hop).then_some(p))
            .collect()
    }

    /// Translates a set of corpus papers into local nodes, silently dropping
    /// papers that are not part of the sub-graph.
    pub fn to_local(&self, papers: &[PaperId]) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(papers.len());
        self.to_local_into(papers, &mut out);
        out
    }

    /// [`SubGraph::to_local`] appending into a caller-provided buffer, so
    /// per-request translation on the hot path can reuse a scratch-owned
    /// vector instead of allocating (the buffer is cleared first).
    pub fn to_local_into(&self, papers: &[PaperId], out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(papers.iter().filter_map(|&p| self.local_of(p)));
    }

    /// Translates local nodes back into corpus papers.
    pub fn to_papers(&self, locals: &[NodeId]) -> Vec<PaperId> {
        locals.iter().map(|&l| self.paper_of(l)).collect()
    }
}

/// The sub-graph construction as first written, kept verbatim as the
/// differential oracle of [`SubGraph::build_with`]: `traversal::expand`, a
/// `HashMap` from paper to local node, one `powf` per edge, and one
/// `add_edge` per citation into per-node adjacency vectors — the
/// adjacency-list graph `WeightedGraph` used to be, reproduced here as
/// [`AdjacencyGraph`](reference::AdjacencyGraph) so the oracle does not
/// depend on the CSR builder.
pub mod reference {
    use crate::config::RepagerConfig;
    use crate::weights::{edge_cost, NodeWeights};
    use rpg_corpus::{Corpus, PaperId};
    use rpg_graph::traversal::{expand, Direction};
    use rpg_graph::{GraphError, NodeId};
    use std::collections::HashMap;

    /// The oracle's sub-graph: the fields of the sub-graph as first built.
    #[derive(Debug, Clone)]
    pub struct ReferenceSubGraph {
        /// The weighted undirected graph.
        pub weighted: AdjacencyGraph,
        /// `papers[local]` is the corpus paper of local node `local`.
        pub papers: Vec<PaperId>,
        /// Reverse mapping from corpus paper to local node.
        pub local_of: HashMap<PaperId, NodeId>,
        /// Hop distance of each local node from the seed set.
        pub hops: Vec<u8>,
    }

    /// An undirected weighted graph stored as one neighbour vector per node,
    /// with the edge insertion of the adjacency-list `WeightedGraph`.
    #[derive(Debug, Clone)]
    pub struct AdjacencyGraph {
        /// Per-node weights.
        pub node_weights: Vec<f64>,
        /// `adjacency[u]` lists `u`'s neighbours with the edge cost.
        pub adjacency: Vec<Vec<(NodeId, f64)>>,
        /// Number of undirected edges.
        pub edge_count: usize,
    }

    impl AdjacencyGraph {
        /// A graph with the given node weights and no edges.
        pub fn new(node_weights: Vec<f64>) -> Result<Self, GraphError> {
            for (i, &w) in node_weights.iter().enumerate() {
                if !w.is_finite() || w < 0.0 {
                    return Err(GraphError::InvalidWeight {
                        what: format!("node weight {w} at node n{i}"),
                    });
                }
            }
            let n = node_weights.len();
            Ok(AdjacencyGraph {
                node_weights,
                adjacency: vec![Vec::new(); n],
                edge_count: 0,
            })
        }

        fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
            if node.index() < self.node_weights.len() {
                Ok(())
            } else {
                Err(GraphError::NodeOutOfBounds {
                    node,
                    node_count: self.node_weights.len(),
                })
            }
        }

        /// Adds the undirected edge `{a, b}`, keeping the cheaper cost of a
        /// parallel edge.
        pub fn add_edge(&mut self, a: NodeId, b: NodeId, cost: f64) -> Result<(), GraphError> {
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            self.check_node(a)?;
            self.check_node(b)?;
            if !cost.is_finite() || cost < 0.0 {
                return Err(GraphError::InvalidWeight {
                    what: format!("edge cost {cost}"),
                });
            }
            let existing = self.adjacency[a.index()].iter().position(|&(n, _)| n == b);
            match existing {
                Some(pos_a) => {
                    let current = self.adjacency[a.index()][pos_a].1;
                    if cost < current {
                        self.adjacency[a.index()][pos_a].1 = cost;
                        let pos_b = self.adjacency[b.index()]
                            .iter()
                            .position(|&(n, _)| n == a)
                            .expect("undirected edge stored on both endpoints");
                        self.adjacency[b.index()][pos_b].1 = cost;
                    }
                }
                None => {
                    self.adjacency[a.index()].push((b, cost));
                    self.adjacency[b.index()].push((a, cost));
                    self.edge_count += 1;
                }
            }
            Ok(())
        }
    }

    /// Builds the sub-graph induced by the `expansion_hops`-order reference
    /// neighbourhood of `seeds`, restricted to papers published no later than
    /// `max_year` (when given) and excluding `exclude` (typically the survey
    /// the query came from).
    pub fn build(
        corpus: &Corpus,
        node_weights: &NodeWeights,
        seeds: &[PaperId],
        config: &RepagerConfig,
        max_year: Option<u16>,
        exclude: &[PaperId],
    ) -> Result<ReferenceSubGraph, GraphError> {
        let seed_nodes: Vec<NodeId> = seeds.iter().map(|p| p.node()).collect();
        let expansion = expand(
            corpus.graph(),
            &seed_nodes,
            config.expansion_hops,
            Direction::References,
        )?;

        let admitted = |paper: PaperId| -> bool {
            if exclude.contains(&paper) {
                return false;
            }
            match max_year {
                Some(cutoff) => corpus.year(paper) <= cutoff,
                None => true,
            }
        };

        let mut papers: Vec<PaperId> = Vec::with_capacity(expansion.len());
        let mut hops: Vec<u8> = Vec::with_capacity(expansion.len());
        for (node, hop) in expansion.nodes.iter().zip(&expansion.distances) {
            let paper = PaperId::from_node(*node);
            if admitted(paper) {
                papers.push(paper);
                hops.push(*hop);
            }
        }

        let local_of: HashMap<PaperId, NodeId> = papers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, NodeId::from_index(i)))
            .collect();

        let weights: Vec<f64> = papers
            .iter()
            .map(|&p| node_weights.node_weight(p, config))
            .collect();
        let mut weighted = AdjacencyGraph::new(weights)?;

        // Every citation edge between two admitted papers becomes an
        // undirected weighted edge.
        for (i, &paper) in papers.iter().enumerate() {
            let local_a = NodeId::from_index(i);
            for reference in corpus.references_of(paper) {
                if let Some(&local_b) = local_of.get(&reference.cited) {
                    weighted.add_edge(
                        local_a,
                        local_b,
                        edge_cost(reference.occurrences, config),
                    )?;
                }
            }
        }

        Ok(ReferenceSubGraph {
            weighted,
            papers,
            local_of,
            hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, Corpus, CorpusConfig};
    use rpg_graph::pagerank::pagerank_default;

    fn setup() -> (Corpus, NodeWeights) {
        let corpus = generate(&CorpusConfig {
            seed: 61,
            ..CorpusConfig::small()
        });
        let pr = pagerank_default(corpus.graph()).unwrap();
        let nw = NodeWeights::build(&corpus, &pr);
        (corpus, nw)
    }

    fn any_seeds(corpus: &Corpus, count: usize) -> Vec<PaperId> {
        // Use the most-cited research papers of one topic as stand-in seeds.
        let topic = corpus.survey_bank().iter().next().unwrap();
        let topic_id = corpus.paper(topic.paper).unwrap().topic;
        let mut candidates: Vec<PaperId> = corpus
            .research_papers()
            .iter()
            .filter(|p| p.topic == topic_id)
            .map(|p| p.id)
            .collect();
        candidates.sort_by_key(|&p| std::cmp::Reverse(corpus.citation_count(p)));
        candidates.truncate(count);
        candidates
    }

    #[test]
    fn subgraph_contains_all_seeds_at_hop_zero() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        for &s in &seeds {
            assert_eq!(sg.hop_of(s), Some(0));
        }
        assert_eq!(sg.papers_at_hop(0).len(), seeds.len());
    }

    #[test]
    fn expansion_adds_neighbours() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        assert!(sg.node_count() > seeds.len());
        assert!(sg.edge_count() > 0);
        assert!(!sg.papers_at_hop(1).is_empty());
    }

    #[test]
    fn deeper_expansion_is_larger() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let one_hop = SubGraph::build(
            &corpus,
            &nw,
            &seeds,
            &RepagerConfig {
                expansion_hops: 1,
                ..Default::default()
            },
            None,
            &[],
        )
        .unwrap();
        let two_hops = SubGraph::build(
            &corpus,
            &nw,
            &seeds,
            &RepagerConfig {
                expansion_hops: 2,
                ..Default::default()
            },
            None,
            &[],
        )
        .unwrap();
        assert!(two_hops.node_count() >= one_hop.node_count());
    }

    #[test]
    fn year_cutoff_and_exclusions_apply() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let excluded = seeds[0];
        let sg = SubGraph::build(
            &corpus,
            &nw,
            &seeds,
            &RepagerConfig::default(),
            Some(2015),
            &[excluded],
        )
        .unwrap();
        assert!(sg.local_of(excluded).is_none());
        for &p in sg.papers() {
            assert!(corpus.year(p) <= 2015);
        }
    }

    #[test]
    fn mapping_round_trips() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 8);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        for &p in sg.papers().iter().take(50) {
            let local = sg.local_of(p).unwrap();
            assert_eq!(sg.paper_of(local), p);
        }
        let locals = sg.to_local(&seeds);
        assert_eq!(sg.to_papers(&locals), seeds);
    }

    #[test]
    fn edge_costs_reflect_occurrences() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let config = RepagerConfig::default();
        let sg = SubGraph::build(&corpus, &nw, &seeds, &config, None, &[]).unwrap();
        // Every edge's cost must equal Eq. (2) applied to the corpus
        // connection strength of its endpoints.
        let mut checked = 0;
        for (a, b, cost) in sg.weighted.edges().take(200) {
            let pa = sg.paper_of(a);
            let pb = sg.paper_of(b);
            let expected = edge_cost(corpus.connection_strength(pa, pb), &config);
            assert!((cost - expected).abs() < 1e-12);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn unknown_paper_maps_to_none() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 5);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        assert!(sg.local_of(PaperId(u32::MAX)).is_none());
        assert!(sg.hop_of(PaperId(u32::MAX)).is_none());
    }
}
