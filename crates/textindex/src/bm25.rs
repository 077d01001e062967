//! Okapi BM25 ranking over an [`InvertedIndex`].
//!
//! The Google-Scholar-like and Microsoft-Academic-like simulated engines rank
//! with BM25 over a weighted combination of the title and body fields.
//! Ranking is term-at-a-time (see [`crate::taat`]); the pre-rewrite
//! per-document scorer survives as [`mod@reference`], the differential oracle.

use crate::inverted::InvertedIndex;
use crate::taat::{SearchScratch, TermModel};
use crate::tfidf::ScoredDoc;
use crate::DocId;
use serde::{Deserialize, Serialize};

/// BM25 hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bm25Params {
    /// Term-frequency saturation parameter (`k1`).
    pub k1: f64,
    /// Length-normalisation parameter (`b`).
    pub b: f64,
    /// Multiplier applied to title-field term frequencies before saturation.
    pub title_boost: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params {
            k1: 1.2,
            b: 0.75,
            title_boost: 2.5,
        }
    }
}

/// BM25 scorer over an inverted index.
#[derive(Debug, Clone)]
pub struct Bm25Index<'a> {
    index: &'a InvertedIndex,
    params: Bm25Params,
}

impl<'a> Bm25Index<'a> {
    /// Wraps an inverted index with the given parameters.
    pub fn new(index: &'a InvertedIndex, params: Bm25Params) -> Self {
        Bm25Index { index, params }
    }

    /// The parameters in use.
    pub fn params(&self) -> Bm25Params {
        self.params
    }

    /// BM25 inverse document frequency (with the usual +0.5 smoothing,
    /// floored at a small positive value so very common terms still count a
    /// little rather than negatively).
    pub fn idf(&self, term: &str) -> f64 {
        self.idf_for(self.index.combined_document_frequency(term))
    }

    fn idf_for(&self, df: usize) -> f64 {
        let n = self.index.doc_count() as f64;
        let df = df as f64;
        let raw = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        raw.max(0.01)
    }

    /// Ranks every document containing at least one query term, returning the
    /// top `limit` results.  Uses a fresh [`SearchScratch`]; serving paths
    /// keep one per worker and call [`Bm25Index::search_with`].
    pub fn search(&self, query: &str, limit: usize) -> Vec<ScoredDoc> {
        self.search_with(query, limit, &mut SearchScratch::new())
            .to_vec()
    }

    /// [`Bm25Index::search`] with a caller-provided scratch: one posting
    /// walk per query token into buffers that a warm scratch never grows.
    pub fn search_with<'s>(
        &self,
        query: &str,
        limit: usize,
        scratch: &'s mut SearchScratch,
    ) -> &'s [ScoredDoc] {
        self.search_filtered(query, limit, scratch, [], Some)
    }

    /// [`Bm25Index::search_with`] where the documents in `exclude` never
    /// rank, and `keep` filters and re-scores each other positive-scoring
    /// document before the top-`limit` cut (`None` drops it) — how an
    /// engine applies its eligibility filters and ranking priors without
    /// materialising the full ranking.  `exclude` is read once, so each
    /// document's exclusion test is O(1) however long the list.
    pub fn search_filtered<'s>(
        &self,
        query: &str,
        limit: usize,
        scratch: &'s mut SearchScratch,
        exclude: impl IntoIterator<Item = DocId>,
        keep: impl FnMut(ScoredDoc) -> Option<ScoredDoc>,
    ) -> &'s [ScoredDoc] {
        let p = self.params;
        let avg_len =
            self.index.average_body_len() + p.title_boost * self.index.average_title_len();
        scratch.accumulate(
            self.index,
            query,
            &Bm25Model {
                bm25: self,
                avg_len,
            },
        );
        scratch.top_k(limit, exclude, keep)
    }
}

/// BM25 as a [`TermModel`]: the expressions of [`reference::score`],
/// factored per term and per document.
struct Bm25Model<'b, 'a> {
    bm25: &'b Bm25Index<'a>,
    /// Collection-average field-combined length, computed once per query.
    avg_len: f64,
}

impl TermModel for Bm25Model<'_, '_> {
    fn title_boost(&self) -> f64 {
        self.bm25.params.title_boost
    }

    fn norm(&self, doc: DocId) -> f64 {
        // Postings only reference indexed documents, so the stats exist.
        let stats = self.bm25.index.doc_stats(doc).unwrap_or_default();
        let p = self.bm25.params;
        let doc_len = f64::from(stats.body_len) + p.title_boost * f64::from(stats.title_len);
        if self.avg_len > 0.0 {
            1.0 - p.b + p.b * doc_len / self.avg_len
        } else {
            1.0
        }
    }

    fn weight(&self, tf: f64, norm: f64) -> f64 {
        let k1 = self.bm25.params.k1;
        tf * (k1 + 1.0) / (tf + k1 * norm)
    }

    fn idf(&self, df: usize) -> f64 {
        self.bm25.idf_for(df)
    }
}

pub mod reference {
    //! The pre-rewrite BM25 ranking, kept verbatim as a differential
    //! oracle.
    //!
    //! [`search`] scores every disjunctive candidate independently with
    //! [`score`], which re-tokenises the query, scans a posting list per
    //! (document, term), rebuilds the combined document-frequency set per
    //! (document, term), and re-averages the collection's length statistics
    //! per document — then sorts every candidate before truncating.  The
    //! term-at-a-time [`Bm25Index::search`] must return bit-identical
    //! scores in the same order; the differential suites assert it and the
    //! bench reports the speedup against it.

    use super::Bm25Index;
    use crate::inverted::Field;
    use crate::tfidf::{sort_ranking, ScoredDoc};
    use crate::tokenize::tokenize;
    use crate::DocId;

    /// BM25 score of `doc` for `query`.
    pub fn score(bm25: &Bm25Index<'_>, query: &str, doc: DocId) -> f64 {
        let Some(stats) = bm25.index.doc_stats(doc) else {
            return 0.0;
        };
        let avg_len = bm25.index.average_body_len()
            + bm25.params.title_boost * bm25.index.average_title_len();
        let doc_len =
            f64::from(stats.body_len) + bm25.params.title_boost * f64::from(stats.title_len);
        let mut total = 0.0;
        for token in tokenize(query) {
            let tf_title = f64::from(bm25.index.term_frequency(Field::Title, &token.term, doc));
            let tf_body = f64::from(bm25.index.term_frequency(Field::Body, &token.term, doc));
            let tf = bm25.params.title_boost * tf_title + tf_body;
            if tf <= 0.0 {
                continue;
            }
            let norm = if avg_len > 0.0 {
                1.0 - bm25.params.b + bm25.params.b * doc_len / avg_len
            } else {
                1.0
            };
            let saturated = tf * (bm25.params.k1 + 1.0) / (tf + bm25.params.k1 * norm);
            total += bm25.idf(&token.term) * saturated;
        }
        total
    }

    /// Ranks every document containing at least one query term, returning the
    /// top `limit` results.
    pub fn search(bm25: &Bm25Index<'_>, query: &str, limit: usize) -> Vec<ScoredDoc> {
        let candidates = bm25.index.disjunctive_candidates(query);
        let mut scored: Vec<ScoredDoc> = candidates
            .into_iter()
            .map(|doc| ScoredDoc {
                doc,
                score: score(bm25, query, doc),
            })
            .filter(|s| s.score > 0.0)
            .collect();
        sort_ranking(&mut scored);
        scored.truncate(limit);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(
            0,
            "hate speech detection using natural language processing",
            "a survey of hate speech detection methods",
        );
        idx.add_document(
            1,
            "sentiment analysis of tweets",
            "classifiers for social media sentiment",
        );
        idx.add_document(
            2,
            "language models",
            "large pretrained language models for text",
        );
        idx.add_document(
            3,
            "hate crime statistics",
            "reports about hate crime trends over years",
        );
        idx
    }

    #[test]
    fn exact_topic_match_wins() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let results = bm25.search("hate speech detection", 10);
        assert_eq!(results[0].doc, 0);
    }

    #[test]
    fn scores_are_monotone_in_matched_terms() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let one_term = reference::score(&bm25, "hate", 0);
        let two_terms = reference::score(&bm25, "hate speech", 0);
        assert!(two_terms > one_term);
    }

    #[test]
    fn unknown_document_scores_zero() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        assert_eq!(reference::score(&bm25, "hate", 999), 0.0);
    }

    #[test]
    fn idf_is_positive_even_for_ubiquitous_terms() {
        let mut idx = InvertedIndex::new();
        for i in 0..5 {
            idx.add_document(i, "common term everywhere", "common term again");
        }
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        assert!(bm25.idf("common") > 0.0);
    }

    #[test]
    fn limit_and_empty_query_behave() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        assert_eq!(bm25.search("hate", 1).len(), 1);
        assert!(bm25.search("", 5).is_empty());
    }

    #[test]
    fn title_boost_changes_ranking() {
        let mut idx = InvertedIndex::new();
        // Doc 0 mentions the query only in its body, doc 1 only in its title.
        idx.add_document(
            0,
            "something unrelated entirely",
            "transformer architectures analysis",
        );
        idx.add_document(
            1,
            "transformer architectures analysis",
            "something unrelated entirely",
        );
        let no_boost = Bm25Index::new(
            &idx,
            Bm25Params {
                title_boost: 1.0,
                ..Default::default()
            },
        );
        let boosted = Bm25Index::new(
            &idx,
            Bm25Params {
                title_boost: 5.0,
                ..Default::default()
            },
        );
        let plain_order: Vec<_> = no_boost
            .search("transformer architectures", 2)
            .iter()
            .map(|s| s.doc)
            .collect();
        let boosted_results = boosted.search("transformer architectures", 2);
        assert_eq!(boosted_results[0].doc, 1, "title match must win with boost");
        // Without boost both have identical field-combined tf; ranking falls
        // back to the deterministic tie-break.
        assert_eq!(plain_order[0], 0);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// BM25 scores are finite, non-negative, and the search results are
        /// sorted in non-increasing score order.
        #[test]
        fn scores_and_order_are_sane(
            titles in prop::collection::vec("[a-z]{3,7}( [a-z]{3,7}){0,4}", 1..15),
            query in "[a-z]{3,7}( [a-z]{3,7}){0,2}",
        ) {
            let mut idx = InvertedIndex::new();
            for (i, t) in titles.iter().enumerate() {
                idx.add_document(i as DocId, t, t);
            }
            let bm25 = Bm25Index::new(&idx, Bm25Params::default());
            let results = bm25.search(&query, 50);
            for pair in results.windows(2) {
                prop_assert!(pair[0].score >= pair[1].score);
            }
            for r in &results {
                prop_assert!(r.score.is_finite() && r.score > 0.0);
            }
        }
    }
}
