//! Citation-graph substrate and graph algorithms for Reading Path Generation.
//!
//! This crate provides the graph layer that the RePaGer system (see the
//! `rpg-repager` crate) is built on:
//!
//! * [`CitationGraph`] — a compressed-sparse-row (CSR) directed graph storing
//!   the citation relation "paper *i* cites paper *j*" together with the
//!   reverse ("cited-by") adjacency, built through [`GraphBuilder`].
//! * [`traversal`] — breadth-first k-hop neighbourhood expansion, used to
//!   collect the 1st/2nd-order neighbours of seed papers (Observation II of
//!   the paper).
//! * [`pagerank`] — the PageRank score used as the structural half of the
//!   node weight in Eq. (3) of the paper.
//! * [`WeightedGraph`] — an undirected node- and edge-weighted graph view on
//!   which the Steiner machinery operates.
//! * [`dijkstra`] — shortest paths whose length accounts for both edge costs
//!   and the node weights of interior vertices.
//! * [`mst`] — Kruskal minimum spanning trees with a union-find.
//! * [`steiner`] — the Kou–Markowsky–Berman (KMB) heuristic generalised to
//!   node-edge weighted graphs, computed with Mehlhorn's single-search
//!   kernel; this is the optimisation engine behind the NEWST model
//!   (Algorithm 1 of the paper).
//! * [`components`] / [`topo`] — connectivity and ordering utilities used for
//!   sub-graph sanity checks and reading-order assignment.
//!
//! The crate is deliberately free of any corpus- or retrieval-specific
//! concepts: it only knows about node indices, edge costs, and node weights,
//! so it can be reused for any weighted-graph extraction problem (the paper
//! notes NEWST "is easy to transfer to solve other weighted graph related
//! problems").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod components;
pub mod csr;
pub mod dijkstra;
pub mod error;
pub mod ids;
pub mod mst;
pub mod pagerank;
pub mod steiner;
pub mod topo;
pub mod traversal;
pub mod weighted;

pub use builder::GraphBuilder;
pub use csr::CitationGraph;
pub use error::GraphError;
pub use ids::NodeId;
pub use weighted::WeightedGraph;
