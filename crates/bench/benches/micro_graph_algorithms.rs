//! Micro-benchmarks of the graph substrate: PageRank, Dijkstra, MST and the
//! Steiner heuristic that the NEWST model is built on.  These are not tied to
//! a specific table of the paper; they track the cost of the kernels that
//! dominate Table IV's running time.

use criterion::{criterion_group, criterion_main, Criterion};
use rpg_bench::{bench_threads, micro_corpus, BENCH_SURVEY_LIMIT};
use rpg_eval::experiments::ExperimentContext;
use rpg_graph::pagerank::pagerank_default;
use rpg_graph::steiner::{reference::steiner_tree_reference, steiner_tree, SteinerScratch};
use rpg_graph::{dijkstra, mst};
use rpg_repager::seeds::{reallocate, TerminalSelection};
use rpg_repager::subgraph::SubGraph;
use rpg_repager::weights::NodeWeights;
use rpg_repager::RepagerConfig;

fn micro(c: &mut Criterion) {
    let corpus = micro_corpus();
    let ctx = ExperimentContext::new(&corpus, 10, BENCH_SURVEY_LIMIT, bench_threads());

    let mut group = c.benchmark_group("micro_graph_algorithms");
    group.sample_size(20);

    group.bench_function("pagerank_full_corpus", |b| {
        b.iter(|| pagerank_default(corpus.graph()).unwrap().iterations)
    });

    // Build one realistic sub-graph + terminal set for the Steiner kernels.
    let config = RepagerConfig::default();
    let pagerank = pagerank_default(corpus.graph()).unwrap();
    let node_weights = NodeWeights::build(&corpus, &pagerank);
    let survey = &ctx.set.surveys[0];
    let seeds = ctx.artifacts.scholar().seed_papers(&rpg_engines::Query {
        text: &survey.query,
        top_k: 30,
        max_year: Some(survey.year),
        exclude: &[],
    });
    let subgraph = SubGraph::build(
        &corpus,
        &node_weights,
        &seeds,
        &config,
        Some(survey.year),
        &[],
    )
    .unwrap();
    let allocation = reallocate(&corpus, &subgraph, &seeds, &config);
    let terminals = allocation.terminals(TerminalSelection::Reallocated, &config);
    let local_terminals = subgraph.to_local(&terminals);
    println!(
        "\nmicro kernel instance: |V|={} |E|={} |S|={}",
        subgraph.node_count(),
        subgraph.edge_count(),
        local_terminals.len()
    );

    // Cold scratch: every iteration pays the kernel's buffer growth, the
    // configuration a one-shot caller sees.
    group.bench_function("steiner_tree_kmb", |b| {
        b.iter(|| {
            steiner_tree(&subgraph.weighted, &local_terminals)
                .unwrap()
                .node_count()
        })
    });
    // Warm reused scratch: the serving layer's steady state, where the
    // whole kernel runs without heap allocation.
    let mut scratch = SteinerScratch::new();
    group.bench_function("steiner_tree_kmb_warm_scratch", |b| {
        b.iter(|| {
            rpg_graph::steiner::steiner_tree_with(
                &subgraph.weighted,
                &local_terminals,
                &mut scratch,
            )
            .unwrap()
            .node_count()
        })
    });
    // The verbatim pre-rewrite kernel, the "before" of the BENCH_*.json
    // trajectory: full K² witness materialisation and HashMap pruning.
    group.bench_function("steiner_tree_kmb_reference", |b| {
        b.iter(|| {
            steiner_tree_reference(&subgraph.weighted, &local_terminals)
                .unwrap()
                .node_count()
        })
    });
    if let Some(&source) = local_terminals.first() {
        group.bench_function("dijkstra_single_source", |b| {
            b.iter(|| {
                dijkstra::single_source(&subgraph.weighted, source)
                    .unwrap()
                    .0
                    .len()
            })
        });
    }
    group.bench_function("minimum_spanning_forest", |b| {
        b.iter(|| mst::minimum_spanning_forest(&subgraph.weighted).edges.len())
    });

    group.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
