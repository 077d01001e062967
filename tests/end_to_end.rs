//! End-to-end integration tests across the workspace crates: corpus
//! generation → engines → RePaGer → evaluation metrics.

use rpg_corpus::LabelLevel;
use rpg_engines::{Query, ScholarEngine, SearchEngine};
use rpg_eval::metrics::{f1_score, precision};
use rpg_graph::topo;
use rpg_repager::render::output_to_text;
use rpg_repager::system::PathRequest;
use rpg_repager::{CorpusArtifacts, RepagerConfig, Variant};
use rpg_repro::demo_corpus;

#[test]
fn corpus_engines_and_repager_fit_together() {
    let corpus = demo_corpus();

    // The corpus is structurally sound: node ids align with paper ids and the
    // citation graph is a DAG.
    assert_eq!(corpus.graph().node_count(), corpus.len());
    assert!(topo::is_dag(corpus.graph()));
    assert!(!corpus.survey_bank().is_empty());

    // Every survey's ground truth consists of real corpus papers published no
    // later than the survey.
    for survey in corpus.survey_bank().iter() {
        for reference in &survey.references {
            let paper = corpus.paper(reference.paper).expect("reference resolves");
            assert!(
                paper.year <= survey.year + 1,
                "reference newer than the survey"
            );
        }
    }

    // The engine retrieves something for most survey queries.
    let scholar = ScholarEngine::build(&corpus);
    let mut answered = 0;
    for survey in corpus.survey_bank().iter().take(20) {
        if !scholar.search(&Query::simple(&survey.query, 10)).is_empty() {
            answered += 1;
        }
    }
    assert!(answered >= 15, "engine answered only {answered}/20 queries");

    // RePaGer produces a non-trivial, citation-consistent path for a survey
    // query and the flattened list scores above zero against the ground truth.
    let system = CorpusArtifacts::build(corpus.clone()).unwrap();
    let survey = corpus.survey_bank().iter().next().unwrap();
    let exclude = [survey.paper];
    let output = system
        .generate(&PathRequest {
            query: &survey.query,
            top_k: 30,
            max_year: Some(survey.year),
            exclude: &exclude,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        })
        .unwrap();
    assert!(!output.reading_list.is_empty());
    assert!(output.path.is_consistent());
    let truth = survey.label(LabelLevel::AtLeastOne);
    assert!(f1_score(&output.reading_list, &truth) > 0.0);

    // The rendered output mentions the path and at least one paper title.
    let text = output_to_text(&corpus, &output);
    assert!(text.contains("reading path"));
}

#[test]
fn repager_beats_a_random_baseline_on_precision() {
    let corpus = demo_corpus();
    let system = CorpusArtifacts::build(corpus.clone()).unwrap();
    let mut newst_precisions = Vec::new();
    let mut random_precisions = Vec::new();

    for (i, survey) in corpus.survey_bank().iter().take(8).enumerate() {
        let exclude = [survey.paper];
        let output = system
            .generate(&PathRequest {
                query: &survey.query,
                top_k: 30,
                max_year: Some(survey.year),
                exclude: &exclude,
                config: RepagerConfig::default(),
                variant: Variant::Newst,
            })
            .unwrap();
        if output.reading_list.is_empty() {
            continue;
        }
        let truth = survey.label(LabelLevel::AtLeastOne);
        newst_precisions.push(precision(&output.reading_list, &truth));

        // A deterministic "random" baseline: an arbitrary slice of eligible
        // papers of the same size.
        let eligible: Vec<_> = corpus
            .papers()
            .iter()
            .filter(|p| p.year <= survey.year && p.id != survey.paper)
            .map(|p| p.id)
            .collect();
        let start = (i * 97) % eligible.len().max(1);
        let arbitrary: Vec<_> = eligible
            .iter()
            .cycle()
            .skip(start)
            .take(output.reading_list.len())
            .copied()
            .collect();
        random_precisions.push(precision(&arbitrary, &truth));
    }

    let newst_mean: f64 = newst_precisions.iter().sum::<f64>() / newst_precisions.len() as f64;
    let random_mean: f64 = random_precisions.iter().sum::<f64>() / random_precisions.len() as f64;
    assert!(
        newst_mean > random_mean + 0.05,
        "NEWST precision {newst_mean:.3} does not clearly beat arbitrary selection {random_mean:.3}"
    );
}

#[test]
fn generation_is_reproducible_across_processes() {
    // demo_corpus is a pure function of its seed, and so is everything built
    // on top of it; two independent builds must agree.
    let a = demo_corpus();
    let b = demo_corpus();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    assert_eq!(a.survey_bank().len(), b.survey_bank().len());
    let sa = a.survey_bank().iter().next().unwrap();
    let sb = b.survey_bank().iter().next().unwrap();
    assert_eq!(sa.query, sb.query);
    assert_eq!(sa.references, sb.references);

    let system_a = CorpusArtifacts::build(a.clone()).unwrap();
    let system_b = CorpusArtifacts::build(b.clone()).unwrap();
    let exclude_a = [sa.paper];
    let exclude_b = [sb.paper];
    let out_a = system_a
        .generate(&PathRequest {
            query: &sa.query,
            top_k: 25,
            max_year: Some(sa.year),
            exclude: &exclude_a,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        })
        .unwrap();
    let out_b = system_b
        .generate(&PathRequest {
            query: &sb.query,
            top_k: 25,
            max_year: Some(sb.year),
            exclude: &exclude_b,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        })
        .unwrap();
    assert_eq!(out_a.reading_list, out_b.reading_list);
    assert_eq!(out_a.path.order, out_b.path.order);
}

#[test]
fn hostile_exclude_lists_answer_like_their_deduplicated_form() {
    let artifacts = CorpusArtifacts::build(rpg_corpus::generate(&rpg_corpus::CorpusConfig {
        seed: 0xDE40,
        ..rpg_corpus::CorpusConfig::small()
    }))
    .expect("artifacts build");
    let corpus = artifacts.corpus();
    let survey = corpus.survey_bank().iter().next().expect("survey bank");
    let papers = corpus.len() as u32;

    // 100k ids: the survey and every 9th paper over and over, interleaved
    // with ids beyond the corpus, including `u32::MAX`.
    let mut hostile = Vec::with_capacity(100_000);
    let mut i = 0u32;
    while hostile.len() < 100_000 {
        hostile.push(survey.paper);
        hostile.push(rpg_corpus::PaperId((i * 9) % papers));
        hostile.push(rpg_corpus::PaperId(papers + i));
        hostile.push(rpg_corpus::PaperId(u32::MAX - i % 3));
        i += 1;
    }
    let mut deduplicated: Vec<_> = hostile.iter().copied().filter(|p| p.0 < papers).collect();
    deduplicated.sort_unstable();
    deduplicated.dedup();
    assert!(deduplicated.len() > 1 && deduplicated.len() < hostile.len() / 10);

    for variant in [Variant::Newst, Variant::CandidatesOnly] {
        let respond = |exclude: &[rpg_corpus::PaperId]| {
            let request = PathRequest {
                max_year: Some(survey.year),
                exclude,
                variant,
                ..PathRequest::new(&survey.query, 30)
            };
            let output = artifacts.generate(&request).expect("request serves");
            for paper in output.seeds.initial.iter().chain(&output.reading_list) {
                assert!(
                    deduplicated.binary_search(paper).is_err(),
                    "{paper} excluded"
                );
            }
            serde_json::to_string(&rpg_server::api::output_result_value(&output))
                .expect("result encodes")
        };
        let expected = respond(&deduplicated);
        assert_eq!(respond(&hostile), expected, "{variant}");
        assert!(expected.contains("\"reading_list\":[") && expected.len() > 100);
    }
}
