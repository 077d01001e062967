//! TF-IDF scoring over an [`InvertedIndex`].
//!
//! Used by the AMiner-like simulated engine and as the document-weighting
//! basis for the embedding model in [`crate::embed`].  Ranking is
//! term-at-a-time (see [`crate::taat`]); the pre-rewrite per-document
//! scorer survives as [`mod@reference`], the differential oracle.

use crate::inverted::InvertedIndex;
use crate::taat::{SearchScratch, TermModel};
use crate::DocId;
use std::cmp::Ordering;

/// A scored document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// The document id.
    pub doc: DocId,
    /// Relevance score (higher is better).
    pub score: f64,
}

/// The ranking order: descending score, ties broken by ascending doc id so
/// rankings are deterministic.
pub fn ranking_order(a: &ScoredDoc, b: &ScoredDoc) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then(a.doc.cmp(&b.doc))
}

/// Sorts scored documents into [`ranking_order`].
pub fn sort_ranking(scores: &mut [ScoredDoc]) {
    scores.sort_by(ranking_order);
}

/// TF-IDF ranking over an inverted index.
///
/// The score of a document for a query is the sum over query terms of
/// `tf_weight * idf`, where title occurrences can be boosted relative to body
/// occurrences with `title_boost`.
#[derive(Debug, Clone)]
pub struct TfIdfIndex<'a> {
    index: &'a InvertedIndex,
    /// Multiplier applied to title term frequencies.
    pub title_boost: f64,
}

impl<'a> TfIdfIndex<'a> {
    /// Wraps an inverted index with a given title boost (1.0 = no boost).
    pub fn new(index: &'a InvertedIndex, title_boost: f64) -> Self {
        TfIdfIndex { index, title_boost }
    }

    /// Inverse document frequency of a term with add-one smoothing.
    pub fn idf(&self, term: &str) -> f64 {
        self.idf_for(self.index.combined_document_frequency(term))
    }

    fn idf_for(&self, df: usize) -> f64 {
        let n = self.index.doc_count() as f64;
        let df = df as f64;
        ((n + 1.0) / (df + 1.0)).ln() + 1.0
    }

    /// Ranks every document containing at least one query term, returning
    /// the top `limit` results.  Uses a fresh [`SearchScratch`]; serving
    /// paths keep one per worker and call [`TfIdfIndex::search_with`].
    pub fn search(&self, query: &str, limit: usize) -> Vec<ScoredDoc> {
        self.search_with(query, limit, &mut SearchScratch::new())
            .to_vec()
    }

    /// [`TfIdfIndex::search`] with a caller-provided scratch.
    pub fn search_with<'s>(
        &self,
        query: &str,
        limit: usize,
        scratch: &'s mut SearchScratch,
    ) -> &'s [ScoredDoc] {
        self.search_filtered(query, limit, scratch, [], Some)
    }

    /// [`TfIdfIndex::search_with`] where the documents in `exclude` never
    /// rank, and `keep` filters and re-scores each other positive-scoring
    /// document before the top-`limit` cut (`None` drops it).
    pub fn search_filtered<'s>(
        &self,
        query: &str,
        limit: usize,
        scratch: &'s mut SearchScratch,
        exclude: impl IntoIterator<Item = DocId>,
        keep: impl FnMut(ScoredDoc) -> Option<ScoredDoc>,
    ) -> &'s [ScoredDoc] {
        scratch.accumulate(self.index, query, self);
        scratch.top_k(limit, exclude, keep)
    }
}

/// Log-TF-IDF as a [`TermModel`]: the expressions of
/// [`reference::score`], factored per term.  No length normalisation.
impl TermModel for TfIdfIndex<'_> {
    fn title_boost(&self) -> f64 {
        self.title_boost
    }

    fn norm(&self, _doc: DocId) -> f64 {
        1.0
    }

    fn weight(&self, tf: f64, _norm: f64) -> f64 {
        1.0 + tf.ln()
    }

    fn idf(&self, df: usize) -> f64 {
        self.idf_for(df)
    }
}

pub mod reference {
    //! The pre-rewrite TF-IDF ranking, kept verbatim as a differential
    //! oracle: [`search`] scores every disjunctive candidate independently
    //! with [`score`] (one posting scan and one document-frequency set per
    //! document and term), then sorts every candidate before truncating.
    //! The term-at-a-time [`TfIdfIndex::search`] must match it bit for bit.

    use super::{sort_ranking, ScoredDoc, TfIdfIndex};
    use crate::inverted::Field;
    use crate::tokenize::tokenize;
    use crate::DocId;

    /// TF-IDF score of a single document for `query`.
    pub fn score(tfidf: &TfIdfIndex<'_>, query: &str, doc: DocId) -> f64 {
        let mut total = 0.0;
        for token in tokenize(query) {
            let tf_title = f64::from(tfidf.index.term_frequency(Field::Title, &token.term, doc));
            let tf_body = f64::from(tfidf.index.term_frequency(Field::Body, &token.term, doc));
            let tf = tfidf.title_boost * tf_title + tf_body;
            if tf > 0.0 {
                total += (1.0 + tf.ln()) * tfidf.idf(&token.term);
            }
        }
        total
    }

    /// Ranks every document containing at least one query term.
    pub fn search(tfidf: &TfIdfIndex<'_>, query: &str, limit: usize) -> Vec<ScoredDoc> {
        let candidates = tfidf.index.disjunctive_candidates(query);
        let mut scored: Vec<ScoredDoc> = candidates
            .into_iter()
            .map(|doc| ScoredDoc {
                doc,
                score: score(tfidf, query, doc),
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
            "hate speech detection survey",
            "methods for hate speech detection",
        );
        idx.add_document(
            1,
            "image classification",
            "deep networks for images and speech",
        );
        idx.add_document(
            2,
            "speech recognition",
            "acoustic models for speech and audio",
        );
        idx.add_document(3, "graph databases", "storage engines for graphs");
        idx
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        // "speech" appears in 3 documents, "hate" in 1.
        assert!(tfidf.idf("hate") > tfidf.idf("speech"));
        // Unknown terms have the highest idf.
        assert!(tfidf.idf("quantum") >= tfidf.idf("hate"));
    }

    #[test]
    fn relevant_documents_rank_higher() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        let results = tfidf.search("hate speech detection", 10);
        assert_eq!(results[0].doc, 0);
        assert!(results[0].score > results.last().unwrap().score);
    }

    #[test]
    fn title_boost_prefers_title_matches() {
        let idx = index();
        let plain = TfIdfIndex::new(&idx, 1.0);
        let boosted = TfIdfIndex::new(&idx, 3.0);
        // Doc 2 has "speech" in its title, doc 1 only in its body.
        let gap = |t: &TfIdfIndex<'_>| {
            reference::score(t, "speech", 2) - reference::score(t, "speech", 1)
        };
        let (plain_gap, boosted_gap) = (gap(&plain), gap(&boosted));
        assert!(boosted_gap > plain_gap);
    }

    #[test]
    fn limit_truncates_results() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        let results = tfidf.search("speech", 1);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn irrelevant_query_returns_nothing() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        assert!(tfidf.search("quantum chromodynamics", 10).is_empty());
        assert!(tfidf.search("", 10).is_empty());
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let mut idx = InvertedIndex::new();
        idx.add_document(5, "same title words", "");
        idx.add_document(3, "same title words", "");
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        let results = tfidf.search("same title", 10);
        assert_eq!(results[0].doc, 3);
        assert_eq!(results[1].doc, 5);
    }
}
