//! The common retrieval interface and the shared corpus index.
//!
//! Every baseline (and the seed-paper stage of RePaGer itself) answers the
//! same question: *given a query string, return a ranked list of papers
//! published no later than a cut-off year*.  [`SearchEngine`] is that
//! interface; [`EngineIndex`] is the shared, pre-built index over a corpus
//! that the concrete engines borrow; [`LexicalEngine`] is the configurable
//! keyword-retrieval core that the three simulated academic search engines
//! are thin wrappers around.

use rpg_corpus::{Corpus, PaperId};
use rpg_textindex::bm25::{Bm25Index, Bm25Params};
use rpg_textindex::inverted::InvertedIndex;
use rpg_textindex::tfidf::{ScoredDoc, TfIdfIndex};
use rpg_textindex::SearchScratch;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A retrieval request.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// The query text (key phrases joined by spaces).
    pub text: &'a str,
    /// Number of papers to return.
    pub top_k: usize,
    /// Only papers published in or before this year are eligible (the
    /// evaluation restricts candidates to papers published before the survey,
    /// Section VI-A).  `None` disables the restriction.
    pub max_year: Option<u16>,
    /// Papers that must never be returned (e.g. the survey the query was
    /// derived from, to avoid data leakage).
    pub exclude: &'a [PaperId],
}

impl<'a> Query<'a> {
    /// A query with no year restriction and no exclusions.
    pub fn simple(text: &'a str, top_k: usize) -> Self {
        Query {
            text,
            top_k,
            max_year: None,
            exclude: &[],
        }
    }

    /// Whether a paper passes the year and exclusion filters.
    ///
    /// A linear scan of `exclude`: fine for the evaluation's one-survey
    /// lists.  The seed path marks the list once per query instead (see
    /// [`LexicalEngine::search_with`]).
    pub fn admits(&self, paper: PaperId, year: u16) -> bool {
        !self.exclude.contains(&paper) && self.admits_year(year)
    }

    /// Whether a paper published in `year` passes the year filter.
    pub fn admits_year(&self, year: u16) -> bool {
        match self.max_year {
            Some(cutoff) => year <= cutoff,
            None => true,
        }
    }
}

/// A retrieval method returning a ranked paper list for a query.
pub trait SearchEngine {
    /// Human-readable method name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Returns up to `query.top_k` papers ranked by decreasing relevance.
    fn search(&self, query: &Query<'_>) -> Vec<PaperId>;
}

/// The shared per-corpus index: inverted text index plus the per-paper
/// metadata the engines need for filtering and ranking priors.
#[derive(Debug)]
pub struct EngineIndex {
    inverted: InvertedIndex,
    years: Vec<u16>,
    citation_counts: Vec<u32>,
    is_survey: Vec<bool>,
}

impl EngineIndex {
    /// Builds the index over every paper of the corpus (titles + abstracts).
    pub fn build(corpus: &Corpus) -> Arc<Self> {
        let mut inverted = InvertedIndex::new();
        let mut years = Vec::with_capacity(corpus.len());
        let mut citation_counts = Vec::with_capacity(corpus.len());
        let mut is_survey = Vec::with_capacity(corpus.len());
        for paper in corpus.papers() {
            inverted.add_document(paper.id.0, &paper.title, &paper.abstract_text);
            years.push(paper.year);
            citation_counts.push(corpus.citation_count(paper.id) as u32);
            is_survey.push(paper.is_survey());
        }
        Arc::new(EngineIndex {
            inverted,
            years,
            citation_counts,
            is_survey,
        })
    }

    /// Assembles the index from a pre-built inverted index (e.g. decoded
    /// from a snapshot), rebuilding only the cheap per-paper metadata
    /// columns from the corpus.  The caller is responsible for the inverted
    /// index actually covering this corpus; `decode` paths guard that with
    /// checksums and a document-count check.
    pub fn with_inverted(corpus: &Corpus, inverted: InvertedIndex) -> Arc<Self> {
        let mut years = Vec::with_capacity(corpus.len());
        let mut citation_counts = Vec::with_capacity(corpus.len());
        let mut is_survey = Vec::with_capacity(corpus.len());
        for paper in corpus.papers() {
            years.push(paper.year);
            citation_counts.push(corpus.citation_count(paper.id) as u32);
            is_survey.push(paper.is_survey());
        }
        Arc::new(EngineIndex {
            inverted,
            years,
            citation_counts,
            is_survey,
        })
    }

    /// Number of indexed papers.
    pub fn len(&self) -> usize {
        self.years.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.years.is_empty()
    }

    /// The underlying inverted index.
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    /// Publication year of a paper (0 if unknown).
    pub fn year(&self, paper: PaperId) -> u16 {
        self.years.get(paper.index()).copied().unwrap_or(0)
    }

    /// Citation count of a paper at index-build time.
    pub fn citation_count(&self, paper: PaperId) -> u32 {
        self.citation_counts
            .get(paper.index())
            .copied()
            .unwrap_or(0)
    }

    /// Whether a paper is a survey.
    pub fn is_survey(&self, paper: PaperId) -> bool {
        self.is_survey.get(paper.index()).copied().unwrap_or(false)
    }
}

/// Which lexical scoring function a [`LexicalEngine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LexicalScoring {
    /// Okapi BM25 over title + abstract.
    Bm25,
    /// Log-TF-IDF over title + abstract.
    TfIdf,
}

/// Configuration of a lexical retrieval engine.  The three simulated academic
/// search engines differ only in these knobs, mirroring how real engines rank
/// with the same lexical core but different priors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LexicalConfig {
    /// Scoring function.
    pub scoring: LexicalScoring,
    /// Boost applied to title matches relative to abstract matches.
    pub title_boost: f64,
    /// Weight of the `ln(1 + citations)` prior added to the lexical score.
    pub citation_weight: f64,
    /// Weight of the recency prior `(year - 1990) / 30` added to the score.
    pub recency_weight: f64,
}

/// A keyword retrieval engine over an [`EngineIndex`].
#[derive(Debug, Clone)]
pub struct LexicalEngine {
    index: Arc<EngineIndex>,
    config: LexicalConfig,
    name: &'static str,
}

impl LexicalEngine {
    /// Creates a lexical engine with an explicit name and configuration.
    pub fn new(index: Arc<EngineIndex>, name: &'static str, config: LexicalConfig) -> Self {
        LexicalEngine {
            index,
            config,
            name,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> LexicalConfig {
        self.config
    }

    /// Ranks the query term-at-a-time into `scratch` and returns up to
    /// `query.top_k` papers.  The year/exclusion filters and the
    /// citation/recency priors apply while the candidates are collected, so
    /// only the top k are ever sorted.  The exclusion list is marked in the
    /// scratch once per query, so a hostile list of any length costs one
    /// pass over it.  The serving path keeps one scratch per worker;
    /// [`SearchEngine::search`] uses a fresh one.
    pub fn search_with(&self, query: &Query<'_>, scratch: &mut SearchScratch) -> Vec<PaperId> {
        let exclude = query.exclude.iter().map(|p| p.0);
        let keep = |s: ScoredDoc| {
            let paper = PaperId(s.doc);
            if !query.admits_year(self.index.year(paper)) {
                return None;
            }
            let citation_prior =
                self.config.citation_weight * f64::from(self.index.citation_count(paper)).ln_1p();
            let recency_prior = self.config.recency_weight
                * (f64::from(self.index.year(paper).saturating_sub(1990)) / 30.0);
            Some(ScoredDoc {
                doc: s.doc,
                score: s.score + citation_prior + recency_prior,
            })
        };
        let inverted = self.index.inverted();
        let ranked = match self.config.scoring {
            LexicalScoring::Bm25 => Bm25Index::new(
                inverted,
                Bm25Params {
                    title_boost: self.config.title_boost,
                    ..Default::default()
                },
            )
            .search_filtered(query.text, query.top_k, scratch, exclude, keep),
            LexicalScoring::TfIdf => TfIdfIndex::new(inverted, self.config.title_boost)
                .search_filtered(query.text, query.top_k, scratch, exclude, keep),
        };
        ranked.iter().map(|s| PaperId(s.doc)).collect()
    }
}

impl SearchEngine for LexicalEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn search(&self, query: &Query<'_>) -> Vec<PaperId> {
        self.search_with(query, &mut SearchScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 21,
            ..CorpusConfig::small()
        })
    }

    fn engine(corpus: &Corpus) -> LexicalEngine {
        LexicalEngine::new(
            EngineIndex::build(corpus),
            "test-engine",
            LexicalConfig {
                scoring: LexicalScoring::Bm25,
                title_boost: 3.0,
                citation_weight: 0.2,
                recency_weight: 0.0,
            },
        )
    }

    #[test]
    fn index_covers_every_paper() {
        let c = corpus();
        let idx = EngineIndex::build(&c);
        assert_eq!(idx.len(), c.len());
        assert!(!idx.is_empty());
        let any_survey = c.survey_bank().iter().next().unwrap().paper;
        assert!(idx.is_survey(any_survey));
        assert_eq!(idx.year(any_survey), c.year(any_survey));
    }

    #[test]
    fn with_inverted_matches_a_full_build() {
        let c = corpus();
        let built = EngineIndex::build(&c);
        let rebuilt = EngineIndex::with_inverted(&c, built.inverted().clone());
        assert_eq!(rebuilt.len(), built.len());
        for paper in c.papers() {
            assert_eq!(rebuilt.year(paper.id), built.year(paper.id));
            assert_eq!(
                rebuilt.citation_count(paper.id),
                built.citation_count(paper.id)
            );
            assert_eq!(rebuilt.is_survey(paper.id), built.is_survey(paper.id));
        }
        // The same engine over both indexes ranks identically.
        let survey = c.survey_bank().iter().next().unwrap();
        let config = LexicalConfig {
            scoring: LexicalScoring::Bm25,
            title_boost: 3.0,
            citation_weight: 0.2,
            recency_weight: 0.0,
        };
        let a = LexicalEngine::new(built, "a", config).search(&Query::simple(&survey.query, 20));
        let b = LexicalEngine::new(rebuilt, "b", config).search(&Query::simple(&survey.query, 20));
        assert_eq!(a, b);
    }

    #[test]
    fn query_filters_apply() {
        let q = Query {
            text: "x",
            top_k: 5,
            max_year: Some(2000),
            exclude: &[PaperId(3)],
        };
        assert!(q.admits(PaperId(1), 1999));
        assert!(!q.admits(PaperId(1), 2001));
        assert!(!q.admits(PaperId(3), 1999));
        let open = Query::simple("x", 5);
        assert!(open.admits(PaperId(3), 2030));
    }

    #[test]
    fn search_returns_topically_relevant_papers() {
        let c = corpus();
        let e = engine(&c);
        let survey = c
            .survey_bank()
            .iter()
            .find(|s| s.query.contains("hate"))
            .or_else(|| c.survey_bank().iter().next())
            .unwrap();
        let results = e.search(&Query::simple(&survey.query, 20));
        assert!(!results.is_empty());
        // The survey's own topic should dominate the top results.
        let survey_topic = c.paper(survey.paper).unwrap().topic;
        let same_topic = results
            .iter()
            .filter(|&&p| c.paper(p).map(|x| x.topic == survey_topic).unwrap_or(false))
            .count();
        assert!(
            same_topic * 2 >= results.len(),
            "only {same_topic}/{} results on topic for query '{}'",
            results.len(),
            survey.query
        );
    }

    #[test]
    fn year_cutoff_excludes_recent_papers() {
        let c = corpus();
        let e = engine(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        let results = e.search(&Query {
            text: &survey.query,
            top_k: 30,
            max_year: Some(2005),
            exclude: &[],
        });
        for p in results {
            assert!(c.year(p) <= 2005);
        }
    }

    #[test]
    fn exclusion_removes_the_survey_itself() {
        let c = corpus();
        let e = engine(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        let results = e.search(&Query {
            text: &survey.query,
            top_k: 50,
            max_year: None,
            exclude: &exclude,
        });
        assert!(!results.contains(&survey.paper));
    }

    #[test]
    fn top_k_truncates() {
        let c = corpus();
        let e = engine(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        assert!(e.search(&Query::simple(&survey.query, 7)).len() <= 7);
    }

    #[test]
    fn citation_prior_changes_ranking() {
        let c = corpus();
        let idx = EngineIndex::build(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        let flat = LexicalEngine::new(
            idx.clone(),
            "flat",
            LexicalConfig {
                scoring: LexicalScoring::Bm25,
                title_boost: 3.0,
                citation_weight: 0.0,
                recency_weight: 0.0,
            },
        );
        let cite_heavy = LexicalEngine::new(
            idx,
            "cite-heavy",
            LexicalConfig {
                scoring: LexicalScoring::Bm25,
                title_boost: 3.0,
                citation_weight: 5.0,
                recency_weight: 0.0,
            },
        );
        let a = flat.search(&Query::simple(&survey.query, 20));
        let b = cite_heavy.search(&Query::simple(&survey.query, 20));
        assert_ne!(a, b, "a large citation prior should reorder results");
    }
}
