//! Owned, shareable per-corpus artifacts.
//!
//! Everything the query pipeline needs that is a pure function of the corpus
//! — the engine index, the seed engine, global PageRank, and the Eq. (3)
//! node-weight table — is built once into a [`CorpusArtifacts`] and shared
//! across threads behind an `Arc`, so concurrent requests pay the build cost
//! exactly once.
//!
//! [`CorpusArtifacts::generate`] is the one in-process entry point of the
//! pipeline: it always runs the five stages (no result cache) on the calling
//! thread's reused [`PipelineScratch`]. Callers that own their scratch — a
//! batch worker, a benchmark loop — use
//! [`CorpusArtifacts::generate_with_scratch`]. Caching lives one layer up,
//! in `rpg-service`'s `CorpusRegistry`.
//!
//! ```
//! use rpg_repager::system::PathRequest;
//! use rpg_repager::CorpusArtifacts;
//!
//! let corpus = rpg_corpus::generate(&rpg_corpus::CorpusConfig::small());
//! let artifacts = CorpusArtifacts::build(corpus).unwrap();
//! let output = artifacts.generate(&PathRequest::new("graph neural networks", 20)).unwrap();
//! assert!(output.reading_list.len() <= 20);
//! ```

use crate::scratch::{with_thread_scratch, PipelineScratch};
use crate::stages::serve_request;
use crate::system::{PathRequest, RepagerError, RepagerOutput};
use crate::weights::NodeWeights;
use rpg_corpus::Corpus;
use rpg_engines::{EngineIndex, ScholarEngine};
use rpg_graph::pagerank::{pagerank_default, PageRankScores};
use rpg_graph::GraphError;
use std::sync::Arc;

/// The immutable per-corpus state shared by every request.
#[derive(Debug)]
pub struct CorpusArtifacts {
    corpus: Arc<Corpus>,
    index: Arc<EngineIndex>,
    scholar: ScholarEngine,
    pagerank: PageRankScores,
    node_weights: NodeWeights,
}

impl CorpusArtifacts {
    /// Builds all artifacts for a corpus: engine index, seed engine, global
    /// PageRank, and node weights.
    ///
    /// Errors if the corpus graph rejects the PageRank computation.
    pub fn build(corpus: impl Into<Arc<Corpus>>) -> Result<Arc<Self>, GraphError> {
        let corpus = corpus.into();
        let index = EngineIndex::build(&corpus);
        Self::with_index(corpus, index)
    }

    /// Builds the artifacts reusing an existing shared engine index (avoids
    /// re-indexing when baselines share the same corpus).
    pub fn with_index(
        corpus: Arc<Corpus>,
        index: Arc<EngineIndex>,
    ) -> Result<Arc<Self>, GraphError> {
        let scholar = ScholarEngine::from_index(index.clone());
        let pagerank = pagerank_default(corpus.graph())?;
        let node_weights = NodeWeights::build(&corpus, &pagerank);
        Ok(Arc::new(CorpusArtifacts {
            corpus,
            index,
            scholar,
            pagerank,
            node_weights,
        }))
    }

    /// Reassembles the artifacts from persisted parts (e.g. a decoded
    /// snapshot): the corpus, the engine index, and the PageRank scores are
    /// taken as-is; only the cheap derivations (seed engine, node weights)
    /// are recomputed.
    ///
    /// Errors if the score vector does not cover the corpus — the one
    /// cross-part invariant this layer can check cheaply.
    pub fn from_parts(
        corpus: Arc<Corpus>,
        index: Arc<EngineIndex>,
        pagerank: PageRankScores,
    ) -> Result<Arc<Self>, GraphError> {
        if pagerank.scores.len() != corpus.len() {
            return Err(GraphError::InvalidWeight {
                what: format!(
                    "{} PageRank scores for {} papers",
                    pagerank.scores.len(),
                    corpus.len()
                ),
            });
        }
        let scholar = ScholarEngine::from_index(index.clone());
        let node_weights = NodeWeights::build(&corpus, &pagerank);
        Ok(Arc::new(CorpusArtifacts {
            corpus,
            index,
            scholar,
            pagerank,
            node_weights,
        }))
    }

    /// The corpus the artifacts were built from.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The corpus as a shareable handle.
    pub fn corpus_arc(&self) -> Arc<Corpus> {
        self.corpus.clone()
    }

    /// The shared lexical engine index.
    pub fn index(&self) -> &Arc<EngineIndex> {
        &self.index
    }

    /// The seed search engine (Step 1).
    pub fn scholar(&self) -> &ScholarEngine {
        &self.scholar
    }

    /// Global PageRank scores (Step 2).
    pub fn pagerank(&self) -> &PageRankScores {
        &self.pagerank
    }

    /// The Eq. (3) node-weight table.
    pub fn node_weights(&self) -> &NodeWeights {
        &self.node_weights
    }

    /// Generates a reading path and reading list for one request on this
    /// thread's reused pipeline workspace. Never cached: every call runs the
    /// pipeline, so its `timings` describe this run.
    pub fn generate(&self, request: &PathRequest<'_>) -> Result<RepagerOutput, RepagerError> {
        with_thread_scratch(|scratch| self.generate_with_scratch(request, scratch))
    }

    /// As [`CorpusArtifacts::generate`], on a caller-owned workspace (a
    /// batch worker keeps one for its whole share of the requests).
    pub fn generate_with_scratch(
        &self,
        request: &PathRequest<'_>,
        scratch: &mut PipelineScratch,
    ) -> Result<RepagerOutput, RepagerError> {
        serve_request(
            &self.corpus,
            &self.scholar,
            &self.node_weights,
            request,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};

    #[test]
    fn artifacts_are_shareable_and_complete() {
        let corpus = generate(&CorpusConfig {
            seed: 31,
            ..CorpusConfig::small()
        });
        let n = corpus.len();
        let artifacts = CorpusArtifacts::build(corpus).unwrap();
        assert_eq!(artifacts.corpus().len(), n);
        assert_eq!(artifacts.index().len(), n);
        assert_eq!(artifacts.node_weights().len(), n);
        assert!(artifacts.pagerank().scores.len() == n);
        // Sharing across threads only needs the Arc to be Send + Sync.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&artifacts);
        // Threads sharing one Arc generate exactly what a serial run does.
        let surveys: Vec<_> = artifacts.corpus().survey_bank().iter().take(4).collect();
        fn request(survey: &rpg_corpus::Survey) -> PathRequest<'_> {
            PathRequest {
                max_year: Some(survey.year),
                ..PathRequest::new(&survey.query, 20)
            }
        }
        let serial: Vec<RepagerOutput> = surveys
            .iter()
            .map(|s| artifacts.generate(&request(s)).unwrap())
            .collect();
        let (surveys, serial) = (&surveys, &serial);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let shared = Arc::clone(&artifacts);
                scope.spawn(move || {
                    for (survey, expected) in surveys.iter().zip(serial) {
                        let output = shared.generate(&request(survey)).unwrap();
                        assert!(output.same_result(expected), "{:?}", survey.query);
                    }
                });
            }
        });
    }

    #[test]
    fn from_parts_matches_a_full_build() {
        let corpus = generate(&CorpusConfig {
            seed: 31,
            ..CorpusConfig::small()
        });
        let built = CorpusArtifacts::build(corpus).unwrap();
        let rebuilt = CorpusArtifacts::from_parts(
            built.corpus_arc(),
            built.index().clone(),
            built.pagerank().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.pagerank(), built.pagerank());
        assert_eq!(rebuilt.node_weights().len(), built.node_weights().len());
        for i in 0..built.corpus().len() {
            let id = rpg_corpus::PaperId(i as u32);
            assert_eq!(
                rebuilt.node_weights().pagerank(id),
                built.node_weights().pagerank(id)
            );
            assert_eq!(
                rebuilt.node_weights().venue(id),
                built.node_weights().venue(id)
            );
        }
    }

    #[test]
    fn from_parts_rejects_mismatched_scores() {
        let corpus = generate(&CorpusConfig {
            seed: 31,
            ..CorpusConfig::small()
        });
        let built = CorpusArtifacts::build(corpus).unwrap();
        let mut pagerank = built.pagerank().clone();
        pagerank.scores.pop();
        let err = CorpusArtifacts::from_parts(built.corpus_arc(), built.index().clone(), pagerank)
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidWeight { .. }));
    }
}
