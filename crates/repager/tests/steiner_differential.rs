//! Differential suite: Mehlhorn's Steiner kernel (`steiner_tree_with`, the
//! one NEWST runs) against the KMB kernel it replaced, kept verbatim as
//! `steiner::kmb::steiner_tree_kmb_with`.
//!
//! The instances are the real NEWST ones: the 48 survey queries of the
//! `rpg serve` corpus (`CorpusConfig::small()` with seed `0xDE40`), each with
//! its survey's year as `max_year`, at `top_k` 10, 20, 30 and 40, run
//! through the seed, sub-graph and reallocation stages on both the serve
//! corpus and the full corpus (`CorpusConfig::default()`), then split into
//! one terminal group per sub-graph component exactly as
//! `newst::solve_with` splits them.  Every tree must agree bit for bit:
//! same nodes, same edges in order, same `total_cost` bits.

use rpg_corpus::{generate, CorpusConfig, Survey};
use rpg_graph::steiner::kmb::steiner_tree_kmb_with;
use rpg_graph::steiner::{steiner_tree_with, SteinerScratch};
use rpg_repager::newst::component_groups;
use rpg_repager::stages::{ReallocStage, SeedStage, SubgraphStage};
use rpg_repager::system::PathRequest;
use rpg_repager::{CorpusArtifacts, PipelineScratch, Stage, StageContext};

const TOP_KS: [usize; 4] = [10, 20, 30, 40];

fn serve_config() -> CorpusConfig {
    CorpusConfig {
        seed: 0xDE40,
        ..CorpusConfig::small()
    }
}

/// Runs every (query, top_k) instance on `config`'s corpus through both
/// kernels and returns how many multi-terminal instances were compared.
fn assert_kernels_agree(label: &str, config: &CorpusConfig, surveys: &[Survey]) -> usize {
    let artifacts = CorpusArtifacts::build(generate(config)).expect("artifacts build");
    let mut pipeline = PipelineScratch::new();
    let mut mehlhorn = SteinerScratch::new();
    let mut kmb = SteinerScratch::new();
    let mut compared = 0;
    for survey in surveys {
        for top_k in TOP_KS {
            let request = PathRequest {
                max_year: Some(survey.year),
                ..PathRequest::new(&survey.query, top_k)
            };
            let mut cx = StageContext {
                corpus: artifacts.corpus(),
                scholar: artifacts.scholar(),
                node_weights: artifacts.node_weights(),
                request: &request,
                config: request.variant.apply(request.config),
                scratch: &mut pipeline,
            };
            let seeds = SeedStage.run(&mut cx, ()).expect("seed stage");
            if seeds.is_empty() {
                continue;
            }
            let subgraph = SubgraphStage.run(&mut cx, seeds).expect("sub-graph stage");
            let realloc = ReallocStage.run(&mut cx, subgraph).expect("realloc stage");
            let locals = realloc.subgraph.to_local(&realloc.terminals);
            let graph = &realloc.subgraph.weighted;
            for group in component_groups(&realloc.subgraph, &locals, &mut pipeline) {
                let context = format!("{label}: {:?} top_k {top_k}, {group:?}", survey.query);
                let new = steiner_tree_with(graph, &group, &mut mehlhorn).expect(&context);
                let old = steiner_tree_kmb_with(graph, &group, &mut kmb).expect(&context);
                assert_eq!(new.nodes, old.nodes, "{context}: nodes");
                assert_eq!(new.edges, old.edges, "{context}: edges");
                assert_eq!(
                    new.total_cost.to_bits(),
                    old.total_cost.to_bits(),
                    "{context}: total_cost {} vs {}",
                    new.total_cost,
                    old.total_cost
                );
                compared += usize::from(group.len() > 1);
            }
        }
    }
    compared
}

#[test]
fn mehlhorn_matches_kmb_on_every_serve_query_instance() {
    let serve = generate(&serve_config());
    let surveys: Vec<Survey> = serve.survey_bank().iter().cloned().collect();
    assert_eq!(surveys.len(), 48, "the serve corpus has 48 survey queries");

    let small = assert_kernels_agree("small", &serve_config(), &surveys);
    let full = assert_kernels_agree("full", &CorpusConfig::default(), &surveys);
    // Every (query, top_k) pair contributes a multi-terminal tree on both
    // corpora, so no instance was skipped.
    let instances = surveys.len() * TOP_KS.len();
    assert!(
        small >= instances,
        "only {small} multi-terminal small instances"
    );
    assert!(
        full >= instances,
        "only {full} multi-terminal full instances"
    );
}
