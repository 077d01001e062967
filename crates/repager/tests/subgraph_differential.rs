//! Differential suite: the dense-id, scratch-owned sub-graph build
//! (`SubGraph::build_with`) against the construction it replaced, kept
//! verbatim as `subgraph::reference::build`.
//!
//! The instances are the 48 survey queries of the `rpg serve` corpus
//! (`CorpusConfig::small()` with seed `0xDE40`) on that corpus and on the
//! full corpus (`CorpusConfig::default()`), at `top_k` 10, 20, 30 and 40.
//! The seeds do not depend on `top_k`, so each `top_k` also varies what
//! does reach the build: the variant's configuration (edge and node weight
//! ablations change every cost and weight), the survey as an exclusion, and
//! the year cut-off.  Every build must agree bit for bit with the oracle:
//! the same papers in the same local order, the same hops and local ids,
//! the same node weight bits, and the same neighbours in the same order
//! with the same cost bits.  One scratch serves every build, and each
//! result is recycled into it, so the warm path is the one compared.

use rpg_corpus::{generate, Corpus, CorpusConfig, PaperId, Survey};
use rpg_graph::NodeId;
use rpg_repager::stages::SeedStage;
use rpg_repager::subgraph::{reference, SubGraph};
use rpg_repager::system::PathRequest;
use rpg_repager::{CorpusArtifacts, PipelineScratch, Stage, StageContext, Variant};

const TOP_KS: [usize; 4] = [10, 20, 30, 40];

fn serve_config() -> CorpusConfig {
    CorpusConfig {
        seed: 0xDE40,
        ..CorpusConfig::small()
    }
}

/// Asserts that `new` is bit-identical to the oracle's build.
fn assert_same(context: &str, corpus: &Corpus, new: &SubGraph, old: &reference::ReferenceSubGraph) {
    assert_eq!(new.papers(), &old.papers[..], "{context}: papers");
    assert_eq!(new.node_count(), old.papers.len(), "{context}: node count");
    assert_eq!(
        new.edge_count(),
        old.weighted.edge_count,
        "{context}: edges"
    );
    for (i, &paper) in old.papers.iter().enumerate() {
        let local = NodeId::from_index(i);
        assert_eq!(
            new.local_of(paper),
            Some(local),
            "{context}: local of {paper}"
        );
        assert_eq!(
            old.local_of.get(&paper),
            Some(&local),
            "{context}: oracle map"
        );
        assert_eq!(
            new.hop_of(paper),
            Some(old.hops[i]),
            "{context}: hop of {paper}"
        );
        assert_eq!(
            new.weighted.node_weight(local).to_bits(),
            old.weighted.node_weights[i].to_bits(),
            "{context}: weight of {paper}"
        );
        let bits = |row: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
            row.iter().map(|&(n, c)| (n, c.to_bits())).collect()
        };
        assert_eq!(
            bits(new.weighted.neighbors(local)),
            bits(&old.weighted.adjacency[i]),
            "{context}: row of {paper}"
        );
    }
    // Nothing outside the oracle's map has a local id.
    let outside = corpus
        .papers()
        .iter()
        .filter(|p| !old.local_of.contains_key(&p.id))
        .count();
    let unmapped = corpus
        .papers()
        .iter()
        .filter(|p| new.local_of(p.id).is_none())
        .count();
    assert_eq!(unmapped, outside, "{context}: unmapped papers");
    assert_eq!(new.local_of(PaperId(u32::MAX)), None);
}

/// Compares every instance on `config`'s corpus; returns how many ran.
fn assert_builds_agree(label: &str, config: &CorpusConfig, surveys: &[Survey]) -> usize {
    let artifacts = CorpusArtifacts::build(generate(config)).expect("artifacts build");
    let corpus = artifacts.corpus();
    let mut scratch = PipelineScratch::new();
    let mut compared = 0;
    for (i, survey) in surveys.iter().enumerate() {
        for (k, top_k) in TOP_KS.into_iter().enumerate() {
            let variant = Variant::ALL[(i + k) % Variant::ALL.len()];
            let exclude = [survey.paper];
            let request = PathRequest {
                max_year: (top_k != 30).then_some(survey.year),
                exclude: if k % 2 == 1 { &exclude } else { &[] },
                variant,
                ..PathRequest::new(&survey.query, top_k)
            };
            let config = request.variant.apply(request.config);
            let mut cx = StageContext {
                corpus,
                scholar: artifacts.scholar(),
                node_weights: artifacts.node_weights(),
                request: &request,
                config,
                scratch: &mut scratch,
            };
            let seeds = SeedStage.run(&mut cx, ()).expect("seed stage");
            let context = format!("{label}: {:?} top_k {top_k} {variant}", survey.query);
            let new = SubGraph::build_with(
                corpus,
                artifacts.node_weights(),
                &seeds,
                &config,
                request.max_year,
                request.exclude,
                &mut scratch,
            )
            .expect(&context);
            let old = reference::build(
                corpus,
                artifacts.node_weights(),
                &seeds,
                &config,
                request.max_year,
                request.exclude,
            )
            .expect(&context);
            assert_same(&context, corpus, &new, &old);
            assert!(new.edge_count() > 0, "{context}: an empty instance");
            scratch.recycle_subgraph(new);
            compared += 1;
        }
    }
    compared
}

#[test]
fn dense_build_matches_the_reference_on_every_serve_query_instance() {
    let serve = generate(&serve_config());
    let surveys: Vec<Survey> = serve.survey_bank().iter().cloned().collect();
    assert_eq!(surveys.len(), 48, "the serve corpus has 48 survey queries");
    let instances = surveys.len() * TOP_KS.len();
    assert_eq!(
        assert_builds_agree("small", &serve_config(), &surveys),
        instances
    );
    assert_eq!(
        assert_builds_agree("full", &CorpusConfig::default(), &surveys),
        instances
    );
}
