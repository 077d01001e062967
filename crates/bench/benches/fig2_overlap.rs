//! Regenerates Fig. 2 (overlap ratio of engine results and their citation
//! neighbourhoods against survey reference lists) and benchmarks the
//! neighbourhood-expansion kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use rpg_bench::{bench_corpus, bench_threads, BENCH_SURVEY_LIMIT};
use rpg_eval::experiments::{fig2_overlap, ExperimentContext};
use rpg_graph::traversal::{expand, Direction};

fn fig2(c: &mut Criterion) {
    let corpus = bench_corpus();
    let ctx = ExperimentContext::new(&corpus, 20, BENCH_SURVEY_LIMIT, bench_threads());

    // Regenerate the figure once and print it.
    let report = fig2_overlap::run(&ctx, &[30, 50], BENCH_SURVEY_LIMIT);
    println!("\n{}", fig2_overlap::format(&report));

    // Benchmark the kernel: a 2-hop expansion of 30 seeds over the full
    // citation graph.
    let survey = &ctx.set.surveys[0];
    let seeds = ctx.artifacts.scholar().seed_papers(&rpg_engines::Query {
        text: &survey.query,
        top_k: 30,
        max_year: Some(survey.year),
        exclude: &[],
    });
    let seed_nodes: Vec<_> = seeds.iter().map(|p| p.node()).collect();

    let mut group = c.benchmark_group("fig2_overlap");
    group.sample_size(20);
    group.bench_function("two_hop_expansion_30_seeds", |b| {
        b.iter(|| {
            expand(corpus.graph(), &seed_nodes, 2, Direction::References)
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, fig2);
criterion_main!(benches);
