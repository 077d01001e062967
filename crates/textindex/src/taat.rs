//! Term-at-a-time (TAAT) query evaluation over an [`InvertedIndex`].
//!
//! The BM25 and TF-IDF rankers used to score each candidate document
//! separately: re-tokenise the query, scan a posting list per (doc, term),
//! rebuild a document-frequency set per (doc, term), and average the length
//! statistics of the whole collection per candidate.  Here one query costs
//! O(postings of its terms) instead: the query is tokenised once, and each
//! query token walks its title and body postings once into dense,
//! generation-stamped per-document slots of a reusable [`SearchScratch`].
//! The combined (title ∪ body) document frequency falls out of the stamps
//! of that same walk.
//!
//! Contributions are added per document in query-token order, duplicate
//! tokens included, using the same floating-point expressions as the
//! per-document scorers kept in `bm25::reference` / `tfidf::reference` —
//! so every score is bit-identical to theirs.  The top-k cut then selects
//! with `select_nth_unstable_by` and sorts only the k survivors.

use crate::inverted::{Field, InvertedIndex};
use crate::tfidf::{ranking_order, ScoredDoc};
use crate::tokenize::tokenize;
use crate::DocId;

/// The per-term half of a lexical scoring model: what the TAAT walk needs
/// to turn a document's field-combined term frequency into a score
/// contribution `idf(df) * weight(tf, norm)`.
pub(crate) trait TermModel {
    /// Multiplier applied to title term frequencies.
    fn title_boost(&self) -> f64;
    /// Per-document length normaliser, computed once per touched document
    /// per query.
    fn norm(&self, doc: DocId) -> f64;
    /// Weight of a positive field-combined term frequency.
    fn weight(&self, tf: f64, norm: f64) -> f64;
    /// Inverse document frequency from the term's combined document
    /// frequency.
    fn idf(&self, df: usize) -> f64;
}

/// One document's accumulator state.  The stamps say which generation the
/// other fields belong to, so starting a term or a query is an O(1)
/// counter bump rather than an O(N) clear.
#[derive(Debug, Clone, Copy, Default)]
struct DocSlot {
    /// Term generation in which `title_tf` was set.
    title_stamp: u32,
    /// Term generation in which this document got its contribution.
    done_stamp: u32,
    /// Query generation in which `norm` and `score` were initialised.
    query_stamp: u32,
    title_tf: u32,
    norm: f64,
    score: f64,
}

/// Reusable buffers for term-at-a-time ranking.
///
/// Not tied to one index: the per-document slots grow to the largest
/// document id seen and are reused across queries and indexes.  Every
/// buffer growth is counted in [`SearchScratch::allocations`], so a caller
/// that keeps one scratch per worker can observe that a warmed worker
/// allocates nothing here.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    slots: Vec<DocSlot>,
    term_gen: u32,
    query_gen: u32,
    /// Documents touched by the current query, in first-touch order.
    touched: Vec<DocId>,
    /// `(doc, weight)` pairs of the current term, awaiting its idf.
    hits: Vec<(DocId, f64)>,
    /// The ranked output of the last [`SearchScratch::top_k`].
    ranked: Vec<ScoredDoc>,
    allocations: u64,
}

impl SearchScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer growth (heap allocation) events so far.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Scores every document that contains a query term into the scratch,
    /// replacing the previous query's scores.
    pub(crate) fn accumulate(
        &mut self,
        index: &InvertedIndex,
        query: &str,
        model: &impl TermModel,
    ) {
        self.query_gen = next_generation(self.query_gen, &mut self.slots, |s| &mut s.query_stamp);
        self.touched.clear();
        // Size every buffer for the whole collection up front: with dense
        // doc ids (every corpus index) that is the only growth a worker
        // ever sees, whatever its queries.
        let n = index.doc_count();
        if self.slots.len() < n {
            self.slots.resize(n, DocSlot::default());
            self.touched.reserve(n);
            self.hits.reserve(n);
            self.ranked.reserve(n);
            self.allocations += 1;
        }
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return;
        }
        let boost = model.title_boost();
        let (touched_cap, hits_cap) = (self.touched.capacity(), self.hits.capacity());
        for token in &tokens {
            let title = index.postings(Field::Title, &token.term);
            let body = index.postings(Field::Body, &token.term);
            self.term_gen = next_generation(self.term_gen, &mut self.slots, |s| {
                s.title_stamp = 0;
                &mut s.done_stamp
            });
            let term = self.term_gen;
            self.hits.clear();
            let mut df = 0;
            // The first posting of a document wins, as in a linear lookup.
            for p in title {
                let slot = self.slot(p.doc);
                if slot.title_stamp != term {
                    slot.title_stamp = term;
                    slot.title_tf = p.term_frequency;
                    df += 1;
                }
            }
            for p in body {
                let slot = self.slot(p.doc);
                if slot.done_stamp == term {
                    continue;
                }
                slot.done_stamp = term;
                let tf_title = if slot.title_stamp == term {
                    slot.title_tf
                } else {
                    df += 1;
                    0
                };
                let tf = boost * f64::from(tf_title) + f64::from(p.term_frequency);
                self.hit(model, p.doc, tf);
            }
            for p in title {
                let slot = self.slot(p.doc);
                if slot.done_stamp == term {
                    continue;
                }
                slot.done_stamp = term;
                // No body posting: the reference adds a body tf of 0.0.
                let tf = boost * f64::from(slot.title_tf) + 0.0;
                self.hit(model, p.doc, tf);
            }
            let idf = model.idf(df);
            for &(doc, weight) in &self.hits {
                self.slots[doc as usize].score += idf * weight;
            }
        }
        self.count_growth(touched_cap, self.touched.capacity());
        self.count_growth(hits_cap, self.hits.capacity());
    }

    /// The top `limit` of the last query's positive-scoring documents under
    /// [`ranking_order`], leaving out the documents in `exclude`, after
    /// `keep` filters and re-scores each one (`None` drops it).  Selects
    /// before sorting, so only the survivors are sorted.
    ///
    /// An excluded document the query touched has its score zeroed, which
    /// drops it with the non-positive ones: one slot write per listed id,
    /// and ids the query never touched (or beyond the index) cost nothing
    /// more.
    pub(crate) fn top_k(
        &mut self,
        limit: usize,
        exclude: impl IntoIterator<Item = DocId>,
        mut keep: impl FnMut(ScoredDoc) -> Option<ScoredDoc>,
    ) -> &[ScoredDoc] {
        for doc in exclude {
            if let Some(slot) = self.slots.get_mut(doc as usize) {
                if slot.query_stamp == self.query_gen {
                    slot.score = 0.0;
                }
            }
        }
        let cap = self.ranked.capacity();
        self.ranked.clear();
        for &doc in &self.touched {
            let score = self.slots[doc as usize].score;
            if score > 0.0 {
                self.ranked.extend(keep(ScoredDoc { doc, score }));
            }
        }
        self.count_growth(cap, self.ranked.capacity());
        if limit == 0 {
            self.ranked.clear();
        } else if limit < self.ranked.len() {
            self.ranked.select_nth_unstable_by(limit - 1, ranking_order);
            self.ranked.truncate(limit);
        }
        self.ranked.sort_unstable_by(ranking_order);
        &self.ranked
    }

    /// The slot of `doc`, growing the slot table to cover it.
    fn slot(&mut self, doc: DocId) -> &mut DocSlot {
        let i = doc as usize;
        if i >= self.slots.len() {
            let cap = self.slots.capacity();
            self.slots.resize(i + 1, DocSlot::default());
            self.count_growth(cap, self.slots.capacity());
        }
        &mut self.slots[i]
    }

    /// Records a positive term frequency of `doc` for the current term,
    /// initialising the document's query state on its first touch.
    fn hit(&mut self, model: &impl TermModel, doc: DocId, tf: f64) {
        if tf <= 0.0 {
            return;
        }
        let query = self.query_gen;
        let slot = &mut self.slots[doc as usize];
        if slot.query_stamp != query {
            slot.query_stamp = query;
            slot.norm = model.norm(doc);
            slot.score = 0.0;
            self.touched.push(doc);
        }
        self.hits.push((doc, model.weight(tf, slot.norm)));
    }

    fn count_growth(&mut self, before: usize, after: usize) {
        if after != before {
            self.allocations += 1;
        }
    }
}

/// The generation after `current`, resetting every slot's stamp (through
/// `reset`, which returns the stamp field and may clear companion fields)
/// when the counter would wrap.
fn next_generation(
    current: u32,
    slots: &mut [DocSlot],
    mut reset: impl FnMut(&mut DocSlot) -> &mut u32,
) -> u32 {
    if current == u32::MAX {
        for slot in slots.iter_mut() {
            *reset(slot) = 0;
        }
        return 1;
    }
    current + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm25::{Bm25Index, Bm25Params};

    fn index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(3, "graph neural networks", "message passing on graphs");
        idx.add_document(40, "graph databases", "query engines for graph data");
        idx.add_document(7, "neural machine translation", "sequence models");
        idx
    }

    #[test]
    fn generations_survive_wraparound() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let mut scratch = SearchScratch::new();
        let expected = bm25.search_with("graph neural", 10, &mut scratch).to_vec();
        scratch.term_gen = u32::MAX;
        scratch.query_gen = u32::MAX;
        for slot in &mut scratch.slots {
            slot.title_stamp = u32::MAX;
            slot.done_stamp = u32::MAX;
            slot.query_stamp = u32::MAX;
        }
        assert_eq!(bm25.search_with("graph neural", 10, &mut scratch), expected);
        assert_eq!(bm25.search_with("graph neural", 10, &mut scratch), expected);
    }

    #[test]
    fn growth_is_counted_once_then_reused() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let mut scratch = SearchScratch::new();
        assert_eq!(scratch.allocations(), 0);
        bm25.search_with("graph neural networks", 10, &mut scratch);
        let warmed = scratch.allocations();
        assert!(warmed > 0, "the first query grows the buffers");
        for query in ["graph", "neural networks", "graph neural networks", ""] {
            bm25.search_with(query, 10, &mut scratch);
        }
        assert_eq!(scratch.allocations(), warmed, "a warmed scratch reuses");
    }

    #[test]
    fn excluded_documents_never_rank_and_do_not_outlive_their_query() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let mut scratch = SearchScratch::new();
        let all = bm25.search_with("graph neural", 10, &mut scratch).to_vec();
        let exclude = [all[0].doc, 999_999, all[0].doc, u32::MAX];
        let filtered = bm25
            .search_filtered("graph neural", 10, &mut scratch, exclude, Some)
            .to_vec();
        assert_eq!(filtered, &all[1..]);
        assert_eq!(bm25.search_with("graph neural", 10, &mut scratch), all);
    }

    #[test]
    fn top_k_keeps_the_ranking_order_prefix() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let mut scratch = SearchScratch::new();
        let all = bm25
            .search_with("graph neural", usize::MAX, &mut scratch)
            .to_vec();
        assert_eq!(all.len(), 3);
        for k in 0..=all.len() {
            assert_eq!(bm25.search_with("graph neural", k, &mut scratch), &all[..k]);
        }
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use crate::bm25::{self, Bm25Index, Bm25Params};
    use crate::tfidf::{self, ScoredDoc, TfIdfIndex};
    use crate::{DocId, InvertedIndex, SearchScratch};
    use proptest::prelude::*;

    fn bits(ranking: &[ScoredDoc]) -> Vec<(DocId, u64)> {
        ranking.iter().map(|s| (s.doc, s.score.to_bits())).collect()
    }

    proptest! {
        /// The term-at-a-time rankers are bit-identical to the reference
        /// scorers over random small indexes whose doc ids are sparse and
        /// whose terms may occur only in titles (`a`–`c`), only in bodies
        /// (`g`–`k`), or in both (`d`–`f`).
        #[test]
        fn matches_the_reference_scorers(
            docs in prop::collection::vec(
                (
                    1u32..40,
                    "([a-f]{2,3}( [a-f]{2,3}){0,4})?",
                    "([d-k]{2,3}( [d-k]{2,3}){0,6})?",
                ),
                1..12,
            ),
            queries in prop::collection::vec("([a-k]{2,3}( [a-k]{2,3}){0,4})?", 1..4),
            boost in 0usize..3,
        ) {
            let mut idx = InvertedIndex::new();
            let mut doc: DocId = 0;
            for (gap, title, body) in &docs {
                doc += gap;
                idx.add_document(doc, title, body);
            }
            let title_boost = [1.0, 2.5, 4.0][boost];
            let bm25 = Bm25Index::new(&idx, Bm25Params { title_boost, ..Default::default() });
            let tfidf = TfIdfIndex::new(&idx, title_boost);
            let mut scratch = SearchScratch::new();
            for query in &queries {
                for limit in [usize::MAX, 2] {
                    prop_assert_eq!(
                        bits(bm25.search_with(query, limit, &mut scratch)),
                        bits(&bm25::reference::search(&bm25, query, limit))
                    );
                    prop_assert_eq!(
                        bits(tfidf.search_with(query, limit, &mut scratch)),
                        bits(&tfidf::reference::search(&tfidf, query, limit))
                    );
                }
            }
        }
    }
}
