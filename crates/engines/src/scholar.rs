//! The Google-Scholar-like engine.
//!
//! Google Scholar's observable behaviour in the paper's setting: keyword
//! matching dominated by the title, with heavily cited papers floating up.
//! This engine is also the seed-paper source for the RePaGer pipeline (Step 1
//! of Section IV-A), so it also ranks into a caller-provided
//! [`SearchScratch`] for the serving path's per-worker reuse.

use crate::engine::{
    EngineIndex, LexicalConfig, LexicalEngine, LexicalScoring, Query, SearchEngine,
};
use rpg_corpus::{Corpus, PaperId};
use rpg_textindex::SearchScratch;
use std::sync::Arc;

/// The simulated Google Scholar engine.
#[derive(Debug, Clone)]
pub struct ScholarEngine {
    inner: LexicalEngine,
}

impl ScholarEngine {
    /// The ranking configuration that characterises this engine: strong title
    /// bias plus a citation-count prior.
    pub fn config() -> LexicalConfig {
        LexicalConfig {
            scoring: LexicalScoring::Bm25,
            title_boost: 4.0,
            citation_weight: 0.35,
            recency_weight: 0.05,
        }
    }

    /// Builds the engine over a corpus.
    pub fn build(corpus: &Corpus) -> Self {
        Self::from_index(EngineIndex::build(corpus))
    }

    /// Builds the engine from an already-built shared index.
    pub fn from_index(index: Arc<EngineIndex>) -> Self {
        ScholarEngine {
            inner: LexicalEngine::new(index, "Google Scholar (simulated)", Self::config()),
        }
    }

    /// Convenience wrapper returning the top-K seed papers for RePaGer.
    pub fn seed_papers(&self, query: &Query<'_>) -> Vec<PaperId> {
        self.inner.search(query)
    }

    /// [`ScholarEngine::seed_papers`] with a caller-provided ranking
    /// scratch (the RePaGer seed stage passes its per-worker one).
    pub fn seed_papers_with(&self, query: &Query<'_>, scratch: &mut SearchScratch) -> Vec<PaperId> {
        self.inner.search_with(query, scratch)
    }
}

impl SearchEngine for ScholarEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn search(&self, query: &Query<'_>) -> Vec<PaperId> {
        self.inner.search(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig, LabelLevel};

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 33,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn returns_requested_number_of_seeds() {
        let c = corpus();
        let engine = ScholarEngine::build(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        let seeds = engine.seed_papers(&Query::simple(&survey.query, 30));
        assert!(seeds.len() <= 30);
        assert!(
            seeds.len() >= 10,
            "query '{}' found only {} seeds",
            survey.query,
            seeds.len()
        );
    }

    #[test]
    fn overlap_with_ground_truth_is_partial() {
        // Observation I: the engine's top results overlap the survey's
        // reference list only partially.  Sanity-check that the overlap is
        // neither zero for every survey (the engine does find on-topic
        // papers) nor complete (prerequisite papers are missed).
        let c = corpus();
        let engine = ScholarEngine::build(&c);
        let mut any_overlap = false;
        let mut any_miss = false;
        for survey in c.survey_bank().iter().take(10) {
            let exclude = [survey.paper];
            let results = engine.search(&Query {
                text: &survey.query,
                top_k: 30,
                max_year: Some(survey.year),
                exclude: &exclude,
            });
            let truth: std::collections::HashSet<_> =
                survey.label(LabelLevel::AtLeastOne).into_iter().collect();
            let hits = results.iter().filter(|p| truth.contains(p)).count();
            if hits > 0 {
                any_overlap = true;
            }
            if hits < truth.len() {
                any_miss = true;
            }
        }
        assert!(any_overlap, "engine never finds any ground-truth paper");
        assert!(
            any_miss,
            "engine implausibly finds the complete reference list"
        );
    }

    #[test]
    fn name_identifies_the_engine() {
        let c = corpus();
        let engine = ScholarEngine::build(&c);
        assert!(engine.name().contains("Scholar"));
    }

    #[test]
    fn shared_index_reuse_matches_direct_build() {
        let c = corpus();
        let idx = EngineIndex::build(&c);
        let a = ScholarEngine::from_index(idx);
        let b = ScholarEngine::build(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        assert_eq!(
            a.search(&Query::simple(&survey.query, 15)),
            b.search(&Query::simple(&survey.query, 15))
        );
    }
}
