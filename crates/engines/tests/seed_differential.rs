//! Differential suite: the term-at-a-time rankers against the verbatim
//! pre-rewrite scorers (`bm25::reference`, `tfidf::reference`).
//!
//! Everything runs on the `rpg serve` default corpus (`CorpusConfig::small()`
//! with seed `0xDE40`) and its 48 survey queries, plus seeded random
//! vocabulary queries with duplicate, unknown and empty terms.  Scores must
//! agree bit for bit (`f64::to_bits`) and in document order, and each
//! simulated engine's filtered, prior-boosted top k must equal the
//! reference pipeline: reference scores → filters and priors → full sort →
//! take k.

use rpg_corpus::{generate, Corpus, CorpusConfig, PaperId};
use rpg_engines::engine::LexicalScoring;
use rpg_engines::{
    AminerEngine, EngineIndex, LexicalConfig, MsAcademicEngine, Query, ScholarEngine, SearchEngine,
};
use rpg_textindex::bm25::{self, Bm25Index, Bm25Params};
use rpg_textindex::tfidf::{self, sort_ranking, ScoredDoc, TfIdfIndex};
use rpg_textindex::{InvertedIndex, SearchScratch};
use std::sync::Arc;

const TITLE_BOOSTS: [f64; 3] = [1.0, 2.5, 4.0];

fn serve_corpus() -> Corpus {
    generate(&CorpusConfig {
        seed: 0xDE40,
        ..CorpusConfig::small()
    })
}

/// A tiny deterministic LCG for the random query mix.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// The 48 survey queries plus seeded random queries over the index
/// vocabulary: 0–4 terms, some repeated, some unknown to the index, some
/// wrapped in punctuation, and the empty query.  (The reference scorer is
/// slow in debug builds, which bounds the random mix.)
fn queries(corpus: &Corpus, index: &InvertedIndex) -> Vec<String> {
    let mut out: Vec<String> = corpus
        .survey_bank()
        .iter()
        .map(|s| s.query.clone())
        .collect();
    assert_eq!(out.len(), 48, "the serve corpus has 48 survey queries");
    let vocab: Vec<&str> = index.vocabulary().iter().map(|(_, t)| t).collect();
    let mut rng = Lcg(0x5EED);
    for _ in 0..24 {
        let mut terms: Vec<String> = Vec::new();
        for _ in 0..rng.below(5) {
            let term = match rng.below(8) {
                0 if !terms.is_empty() => terms[rng.below(terms.len())].clone(),
                1 => "zzqxunknown".to_string(),
                2 => format!("({}),", vocab[rng.below(vocab.len())]),
                _ => vocab[rng.below(vocab.len())].to_string(),
            };
            terms.push(term);
        }
        out.push(terms.join(" "));
    }
    out.push(String::new());
    out.push("the of and".to_string());
    out
}

fn assert_bit_identical(got: &[ScoredDoc], want: &[ScoredDoc], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: result count");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.doc, w.doc, "{context}: doc at rank {rank}");
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{context}: score of doc {} ({} vs {})",
            g.doc,
            g.score,
            w.score
        );
    }
}

#[test]
fn bm25_matches_the_reference_bit_for_bit() {
    let corpus = serve_corpus();
    let index = EngineIndex::build(&corpus);
    let inverted = index.inverted();
    // One scratch across every query and boost: stale state from an
    // earlier query must never leak into a later one.
    let mut scratch = SearchScratch::new();
    for title_boost in TITLE_BOOSTS {
        let bm25 = Bm25Index::new(
            inverted,
            Bm25Params {
                title_boost,
                ..Default::default()
            },
        );
        for query in queries(&corpus, inverted) {
            let want = bm25::reference::search(&bm25, &query, usize::MAX);
            let context = format!("bm25 boost {title_boost} query {query:?}");
            assert_bit_identical(&bm25.search(&query, usize::MAX), &want, &context);
            for limit in [0, 1, 30] {
                let got = bm25.search_with(&query, limit, &mut scratch);
                assert_bit_identical(got, &want[..limit.min(want.len())], &context);
            }
        }
    }
}

#[test]
fn tfidf_matches_the_reference_bit_for_bit() {
    let corpus = serve_corpus();
    let index = EngineIndex::build(&corpus);
    let inverted = index.inverted();
    let mut scratch = SearchScratch::new();
    for title_boost in TITLE_BOOSTS {
        let tfidf = TfIdfIndex::new(inverted, title_boost);
        for query in queries(&corpus, inverted) {
            let want = tfidf::reference::search(&tfidf, &query, usize::MAX);
            let context = format!("tf-idf boost {title_boost} query {query:?}");
            assert_bit_identical(&tfidf.search(&query, usize::MAX), &want, &context);
            for limit in [0, 1, 30] {
                let got = tfidf.search_with(&query, limit, &mut scratch);
                assert_bit_identical(got, &want[..limit.min(want.len())], &context);
            }
        }
    }
}

/// The pre-rewrite lexical ranking an engine configuration starts from:
/// every candidate, reference-scored and sorted.
fn reference_lexical(index: &EngineIndex, config: LexicalConfig, text: &str) -> Vec<ScoredDoc> {
    match config.scoring {
        LexicalScoring::Bm25 => bm25::reference::search(
            &Bm25Index::new(
                index.inverted(),
                Bm25Params {
                    title_boost: config.title_boost,
                    ..Default::default()
                },
            ),
            text,
            usize::MAX,
        ),
        LexicalScoring::TfIdf => tfidf::reference::search(
            &TfIdfIndex::new(index.inverted(), config.title_boost),
            text,
            usize::MAX,
        ),
    }
}

/// The pre-rewrite engine ranking over a reference lexical ranking:
/// filtered, prior-boosted, fully sorted, then cut to k.
fn reference_engine_search(
    index: &EngineIndex,
    config: LexicalConfig,
    lexical: &[ScoredDoc],
    query: &Query<'_>,
) -> Vec<PaperId> {
    let mut scored: Vec<ScoredDoc> = lexical
        .iter()
        .filter(|s| query.admits(PaperId(s.doc), index.year(PaperId(s.doc))))
        .map(|s| {
            let paper = PaperId(s.doc);
            let citation_prior =
                config.citation_weight * f64::from(index.citation_count(paper)).ln_1p();
            let recency_prior =
                config.recency_weight * (f64::from(index.year(paper).saturating_sub(1990)) / 30.0);
            ScoredDoc {
                doc: s.doc,
                score: s.score + citation_prior + recency_prior,
            }
        })
        .collect();
    sort_ranking(&mut scored);
    scored
        .into_iter()
        .take(query.top_k)
        .map(|s| PaperId(s.doc))
        .collect()
}

#[test]
fn engines_match_the_reference_pipeline_with_filters() {
    let corpus = serve_corpus();
    let index: Arc<EngineIndex> = EngineIndex::build(&corpus);
    let engines: [(Box<dyn SearchEngine>, LexicalConfig); 3] = [
        (
            Box::new(ScholarEngine::from_index(index.clone())),
            ScholarEngine::config(),
        ),
        (
            Box::new(MsAcademicEngine::from_index(index.clone())),
            MsAcademicEngine::config(),
        ),
        (
            Box::new(AminerEngine::from_index(index.clone())),
            AminerEngine::config(),
        ),
    ];
    let scholar = ScholarEngine::from_index(index.clone());
    let mut scratch = SearchScratch::new();
    for survey in corpus.survey_bank().iter() {
        let lexical: Vec<Vec<ScoredDoc>> = engines
            .iter()
            .map(|(_, config)| reference_lexical(&index, *config, &survey.query))
            .collect();
        // The survey itself plus a few of its references, so exclusion
        // bites inside the top k.
        let exclude: Vec<PaperId> = std::iter::once(survey.paper)
            .chain(survey.references.iter().take(3).map(|r| r.paper))
            .collect();
        for (max_year, exclude, top_k) in [
            (Some(survey.year), exclude.as_slice(), 30),
            (None, &[][..], 10),
            (Some(survey.year.saturating_sub(8)), exclude.as_slice(), 400),
        ] {
            let query = Query {
                text: &survey.query,
                top_k,
                max_year,
                exclude,
            };
            for ((engine, config), lexical) in engines.iter().zip(&lexical) {
                let want = reference_engine_search(&index, *config, lexical, &query);
                assert_eq!(
                    engine.search(&query),
                    want,
                    "{} on {:?} (max_year {max_year:?}, top_k {top_k})",
                    engine.name(),
                    survey.query
                );
            }
            assert_eq!(
                scholar.seed_papers_with(&query, &mut scratch),
                reference_engine_search(&index, engines[0].1, &lexical[0], &query),
                "seed papers through a reused scratch"
            );
        }
    }
}
