//! The machine-readable perf trajectory: fixed-iteration micro-benchmarks
//! emitted as `BENCH_*.json`.
//!
//! `cargo bench` (Criterion) is great for interactive exploration but its
//! output is neither deterministic in shape nor easy to diff across PRs.
//! This module is the complement: a fixed-iteration runner over the same
//! kernel instances as `benches/micro_graph_algorithms.rs` and
//! `benches/service_throughput.rs`, reporting medians in a stable JSON
//! schema (`rpg-bench-report/v1`) that is committed per PR as the repo's
//! performance trajectory and regression-gated in CI (`rpg bench --check`).
//!
//! Two benches exist specifically to pin the PR 6 kernel rewrite:
//! `steiner_tree_kmb` runs the allocation-lean KMB kernel with a reused
//! [`SteinerScratch`], and `steiner_tree_kmb_reference` runs the verbatim
//! pre-rewrite implementation
//! ([`rpg_graph::steiner::reference::steiner_tree_reference`]) on the same
//! instance — so every report carries its own before/after pair and the
//! `--check` gate can assert the rewrite stays ahead *on the same host*,
//! independent of how fast the machine running CI happens to be.
//!
//! The PR 8 I/O-layer rewrite gets the same treatment: the
//! `serve_healthz_idle256_{poll,epoll}` pair measures one loopback HTTP
//! exchange while 256 idle keep-alive connections sit registered on the
//! event loops, once per readiness backend — the committed report shows
//! what moving the interest set into the kernel buys on the same host.
//!
//! PR 9's corpus snapshots pin their win the same way: the
//! `snapshot_artifacts_build` / `snapshot_artifacts_load` pair times a
//! tenant's full spec build (generation + artifacts) against decoding a
//! versioned snapshot of the same artifacts, and the report carries the
//! ratio as `snapshot_load_vs_build`.
//!
//! PR 10's observability layer pins its overhead with the
//! `serve_cache_hit_{untraced,traced}` pair: the same cache-hit
//! `POST /v1/generate` exchange with and without a caller-supplied
//! `x-rpg-trace-id` header, so the per-request tracing cost stays visible
//! in every committed report.
//!
//! The term-at-a-time seed ranking pins its win with the
//! `seed_bm25_taat` / `seed_bm25_reference` pair: the 48 survey queries of
//! the `rpg serve` corpus ranked by the Scholar engine's BM25, once through
//! a warm [`SearchScratch`] and once through the verbatim pre-rewrite scorer
//! ([`rpg_textindex::bm25::reference`]).  The report carries the ratio as
//! `seed_speedup_vs_reference`, and `--check` fails when the rewrite is not
//! faster — host-independent, like the KMB pair.
//!
//! The JSON encoder pins its fast paths with the `json_encode` /
//! `json_encode_reference` pair: the generate bodies of the same 48
//! queries, encoded by `serde_json::to_string` and by the verbatim
//! pre-rewrite `serde_json::reference` encoder. The report carries the
//! ratio as `json_encode_speedup_vs_reference` (gated like the seed pair),
//! plus `serve_hit_vs_healthz`: the loopback cache-hit exchange over the
//! idle-connection healthz exchange on the same backend, which `--check`
//! bounds by the "HTTP hit within 2x of healthz" target.
//!
//! Mehlhorn's Steiner kernel pins its win against the KMB kernel it
//! replaced: `steiner_tree_mehlhorn` times [`steiner_tree_with`] on the
//! same instance and warm-scratch setup as `steiner_tree_kmb`, which keeps
//! timing the verbatim KMB kernel
//! ([`rpg_graph::steiner::kmb::steiner_tree_kmb_with`]) so the
//! `kmb_speedup_vs_reference` ratio and the trajectory gate measure the same
//! code as before.  The report carries `mehlhorn_speedup_vs_kmb`, and
//! `--check` fails when Mehlhorn is not faster.
//!
//! The dense-id sub-graph build pins its win the same way: the
//! `subgraph_build` / `subgraph_build_reference` pair builds the sub-graphs
//! of the 48 survey queries of the `rpg serve` corpus, once through
//! [`SubGraph::build_with`] with a warm, recycled [`PipelineScratch`] and
//! once through the verbatim pre-rewrite construction
//! ([`rpg_repager::subgraph::reference::build`]).  The report carries the
//! ratio as `subgraph_speedup_vs_reference`, and `--check` fails when the
//! rewrite is not faster.

use crate::micro_corpus;
use rpg_corpus::{generate, Corpus, CorpusConfig};
use rpg_engines::{EngineIndex, Query, ScholarEngine};
use rpg_graph::dijkstra::{self, DijkstraScratch};
use rpg_graph::steiner::kmb::steiner_tree_kmb_with;
use rpg_graph::steiner::reference::steiner_tree_reference;
use rpg_graph::steiner::{steiner_tree_with, SteinerScratch};
use rpg_graph::{mst, NodeId, WeightedGraph};
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::seeds::{reallocate, TerminalSelection};
use rpg_repager::subgraph::{self, SubGraph};
use rpg_repager::system::PathRequest;
use rpg_repager::weights::NodeWeights;
use rpg_repager::{PipelineScratch, RepagerConfig};
use rpg_server::api::generate_response_value;
use rpg_server::{client, IoBackendChoice, Server, ServerConfig};
use rpg_service::{snapshot, CorpusRegistry, CorpusSpec};
use rpg_textindex::bm25::{self, Bm25Index, Bm25Params};
use rpg_textindex::SearchScratch;
use serde::value::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "rpg-bench-report/v1";

/// Iteration counts for one run of the reporter.
#[derive(Debug, Clone, Copy)]
pub struct Iterations {
    /// Measured iterations of each graph kernel bench.
    pub kernel: usize,
    /// Measured iterations of each end-to-end service bench.
    pub service: usize,
    /// Warm-up iterations discarded before measuring (also what makes the
    /// "allocation-free steady state" the thing being measured).
    pub warmup: usize,
}

impl Iterations {
    /// The full-fidelity profile used to produce committed `BENCH_*.json`
    /// artifacts.
    pub fn full() -> Self {
        Iterations {
            kernel: 80,
            service: 40,
            warmup: 5,
        }
    }

    /// The reduced profile for the CI `bench-smoke` job: enough samples for
    /// a stable median, small enough to stay in the seconds range.
    pub fn smoke() -> Self {
        Iterations {
            kernel: 25,
            service: 10,
            warmup: 2,
        }
    }
}

/// One measured bench: name, per-iteration medians and derived throughput.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable bench name (the key used by `--check`).
    pub name: String,
    /// Measured iterations (after warm-up).
    pub iters: usize,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: u64,
    /// Minimum observed nanoseconds per iteration.
    pub min_ns: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: u64,
    /// Iterations per second at the median (`1e9 / median_ns`).
    pub throughput_per_sec: f64,
}

/// A full report: host + instance metadata and every bench result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Free-form label for the trajectory point (e.g. `PR6`).
    pub label: String,
    /// Logical CPU count of the host that produced the numbers.
    pub host_cores: usize,
    /// Kernel instance metadata: sub-graph nodes/edges and terminal count.
    pub instance: (usize, usize, usize),
    /// The measured benches, in execution order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// The result with the given name, if measured.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// The reference-vs-rewrite speedup of the KMB kernel
    /// (`reference_median / rewrite_median`), when both benches ran.
    pub fn kmb_speedup(&self) -> Option<f64> {
        let new = self.result("steiner_tree_kmb")?.median_ns as f64;
        let old = self.result("steiner_tree_kmb_reference")?.median_ns as f64;
        (new > 0.0).then(|| old / new)
    }

    /// The KMB-over-Mehlhorn speedup of the Steiner kernel
    /// (`kmb_median / mehlhorn_median`), when both benches ran.
    pub fn mehlhorn_speedup(&self) -> Option<f64> {
        let new = self.result("steiner_tree_mehlhorn")?.median_ns as f64;
        let old = self.result("steiner_tree_kmb")?.median_ns as f64;
        (new > 0.0).then(|| old / new)
    }

    /// The reference-vs-rewrite speedup of seed ranking
    /// (`reference_median / taat_median`), when both benches ran.
    pub fn seed_speedup(&self) -> Option<f64> {
        let new = self.result("seed_bm25_taat")?.median_ns as f64;
        let old = self.result("seed_bm25_reference")?.median_ns as f64;
        (new > 0.0).then(|| old / new)
    }

    /// The reference-vs-rewrite speedup of the sub-graph build
    /// (`reference_median / build_median`), when both benches ran.
    pub fn subgraph_speedup(&self) -> Option<f64> {
        let new = self.result("subgraph_build")?.median_ns as f64;
        let old = self.result("subgraph_build_reference")?.median_ns as f64;
        (new > 0.0).then(|| old / new)
    }

    /// The spec-build-versus-snapshot-load speedup
    /// (`build_median / load_median`), when both benches ran — the
    /// startup/reload win the snapshot subsystem buys on this host.
    pub fn snapshot_load_speedup(&self) -> Option<f64> {
        let load = self.result("snapshot_artifacts_load")?.median_ns as f64;
        let build = self.result("snapshot_artifacts_build")?.median_ns as f64;
        (load > 0.0).then(|| build / load)
    }

    /// The pre-rewrite-over-current speedup of JSON encoding
    /// (`reference_median / encode_median`), when both benches ran.
    pub fn json_encode_speedup(&self) -> Option<f64> {
        let new = self.result("json_encode")?.median_ns as f64;
        let old = self.result("json_encode_reference")?.median_ns as f64;
        (new > 0.0).then(|| old / new)
    }

    /// A loopback cache hit over a loopback healthz exchange on the
    /// backend the cache-hit server runs (`IoBackendChoice::Auto`), when
    /// both benches ran.
    pub fn serve_hit_vs_healthz(&self) -> Option<f64> {
        let hit = self.result("serve_cache_hit_untraced")?.median_ns as f64;
        let healthz = self
            .result(&healthz_bench_name(IoBackendChoice::Auto))?
            .median_ns as f64;
        (healthz > 0.0).then(|| hit / healthz)
    }

    /// Renders the report as the `rpg-bench-report/v1` JSON value.
    pub fn to_value(&self) -> Value {
        let (nodes, edges, terminals) = self.instance;
        let mut fields = vec![
            ("schema".to_string(), Value::String(SCHEMA.to_string())),
            ("label".to_string(), Value::String(self.label.clone())),
            (
                "host".to_string(),
                Value::Object(vec![(
                    "cores".to_string(),
                    Value::Number(self.host_cores as f64),
                )]),
            ),
            (
                "instance".to_string(),
                Value::Object(vec![
                    ("nodes".to_string(), Value::Number(nodes as f64)),
                    ("edges".to_string(), Value::Number(edges as f64)),
                    ("terminals".to_string(), Value::Number(terminals as f64)),
                ]),
            ),
            (
                "results".to_string(),
                Value::Array(
                    self.results
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(r.name.clone())),
                                ("iters".to_string(), Value::Number(r.iters as f64)),
                                ("median_ns".to_string(), Value::Number(r.median_ns as f64)),
                                ("min_ns".to_string(), Value::Number(r.min_ns as f64)),
                                ("mean_ns".to_string(), Value::Number(r.mean_ns as f64)),
                                (
                                    "throughput_per_sec".to_string(),
                                    Value::Number(r.throughput_per_sec),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(speedup) = self.kmb_speedup() {
            fields.push((
                "kmb_speedup_vs_reference".to_string(),
                Value::Number(speedup),
            ));
        }
        if let Some(speedup) = self.mehlhorn_speedup() {
            fields.push((
                "mehlhorn_speedup_vs_kmb".to_string(),
                Value::Number(speedup),
            ));
        }
        if let Some(speedup) = self.seed_speedup() {
            fields.push((
                "seed_speedup_vs_reference".to_string(),
                Value::Number(speedup),
            ));
        }
        if let Some(speedup) = self.subgraph_speedup() {
            fields.push((
                "subgraph_speedup_vs_reference".to_string(),
                Value::Number(speedup),
            ));
        }
        if let Some(speedup) = self.snapshot_load_speedup() {
            fields.push(("snapshot_load_vs_build".to_string(), Value::Number(speedup)));
        }
        if let Some(speedup) = self.json_encode_speedup() {
            fields.push((
                "json_encode_speedup_vs_reference".to_string(),
                Value::Number(speedup),
            ));
        }
        if let Some(ratio) = self.serve_hit_vs_healthz() {
            fields.push(("serve_hit_vs_healthz".to_string(), Value::Number(ratio)));
        }
        Value::Object(fields)
    }

    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report serialises")
    }
}

/// Times `f` for `iters` measured iterations (after `warmup` discarded
/// ones) and folds the per-iteration samples into a [`BenchResult`].
///
/// `f` returns a value that is accumulated into a sink, so the optimiser
/// cannot elide the work.
pub fn run_bench<T: std::ops::Add<Output = T> + Default>(
    name: &str,
    iters: usize,
    warmup: usize,
    mut f: impl FnMut() -> T,
) -> BenchResult {
    let mut sink = T::default();
    for _ in 0..warmup {
        sink = sink + f();
    }
    let mut samples_ns: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let started = Instant::now();
        sink = sink + f();
        samples_ns.push(started.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(&sink);
    samples_ns.sort_unstable();
    let median_ns = samples_ns[samples_ns.len() / 2].max(1);
    let min_ns = *samples_ns.first().unwrap_or(&0);
    let mean_ns = samples_ns.iter().sum::<u64>() / samples_ns.len().max(1) as u64;
    BenchResult {
        name: name.to_string(),
        iters,
        median_ns,
        min_ns,
        mean_ns,
        throughput_per_sec: 1e9 / median_ns as f64,
    }
}

/// The kernel instance every graph bench runs on: the realistic sub-graph
/// and terminal set of the micro corpus's first survey (the same instance
/// as `benches/micro_graph_algorithms.rs`).
pub struct KernelInstance {
    /// The weighted sub-citation graph.
    pub graph: WeightedGraph,
    /// The compulsory terminals, as local node ids.
    pub terminals: Vec<NodeId>,
    /// Node/edge/terminal counts for the report header.
    pub shape: (usize, usize, usize),
}

/// Builds the canonical kernel instance from a corpus.
pub fn kernel_instance(corpus: &Corpus) -> KernelInstance {
    let config = RepagerConfig::default();
    let pagerank = rpg_graph::pagerank::pagerank_default(corpus.graph()).expect("pagerank");
    let node_weights = NodeWeights::build(corpus, &pagerank);
    let scholar = rpg_engines::ScholarEngine::from_index(rpg_engines::EngineIndex::build(corpus));
    let survey = corpus.survey_bank().iter().next().expect("survey bank");
    let seeds = scholar.seed_papers(&Query {
        text: &survey.query,
        top_k: 30,
        max_year: Some(survey.year),
        exclude: &[],
    });
    let subgraph = SubGraph::build(
        corpus,
        &node_weights,
        &seeds,
        &config,
        Some(survey.year),
        &[],
    )
    .expect("sub-graph builds");
    let allocation = reallocate(corpus, &subgraph, &seeds, &config);
    let paper_terminals = allocation.terminals(TerminalSelection::Reallocated, &config);
    let mut terminals = Vec::new();
    subgraph.to_local_into(&paper_terminals, &mut terminals);
    let shape = (
        subgraph.node_count(),
        subgraph.edge_count(),
        terminals.len(),
    );
    KernelInstance {
        graph: subgraph.weighted,
        terminals,
        shape,
    }
}

/// Runs the full reporter: graph kernels plus end-to-end service benches
/// over the micro corpus, in one process, at the given iteration profile.
pub fn run_report(label: &str, iters: Iterations) -> BenchReport {
    let corpus = micro_corpus();
    let instance = kernel_instance(&corpus);
    let graph = &instance.graph;
    let terminals = &instance.terminals;

    let mut results = Vec::new();

    // The allocation-lean KMB kernel with a warm, reused scratch — the
    // configuration the serving layer ran before Mehlhorn's kernel.
    let mut scratch = SteinerScratch::new();
    results.push(run_bench(
        "steiner_tree_kmb",
        iters.kernel,
        iters.warmup,
        || {
            steiner_tree_kmb_with(graph, terminals, &mut scratch)
                .expect("steiner solves")
                .node_count()
        },
    ));

    // Mehlhorn's kernel, the one the serving layer runs, with the same warm
    // scratch setup.
    let mut scratch = SteinerScratch::new();
    results.push(run_bench(
        "steiner_tree_mehlhorn",
        iters.kernel,
        iters.warmup,
        || {
            steiner_tree_with(graph, terminals, &mut scratch)
                .expect("steiner solves")
                .node_count()
        },
    ));

    // The verbatim pre-rewrite implementation on the same instance: fresh
    // Dijkstra workspace, full K² witness-path materialisation, iterative
    // HashMap pruning.  This is the "before" of the trajectory point.
    results.push(run_bench(
        "steiner_tree_kmb_reference",
        iters.kernel,
        iters.warmup,
        || {
            steiner_tree_reference(graph, terminals)
                .expect("reference solves")
                .node_count()
        },
    ));

    let mut dijkstra_scratch = DijkstraScratch::new();
    if let Some(&source) = terminals.first() {
        results.push(run_bench(
            "dijkstra_single_source",
            iters.kernel,
            iters.warmup,
            || {
                dijkstra::single_source_into(graph, source, &mut dijkstra_scratch)
                    .expect("dijkstra runs");
                graph.node_count()
            },
        ));
        results.push(run_bench(
            "dijkstra_to_targets",
            iters.kernel,
            iters.warmup,
            || {
                dijkstra::single_source_to_targets_into(
                    graph,
                    source,
                    terminals,
                    &mut dijkstra_scratch,
                )
                .expect("targeted dijkstra runs");
                terminals.len()
            },
        ));
    }

    results.push(run_bench(
        "minimum_spanning_forest",
        iters.kernel,
        iters.warmup,
        || mst::minimum_spanning_forest(graph).edges.len(),
    ));

    // End-to-end service path on the same corpus: the uncached cost is what
    // the kernel rewrite moves; the registry cache hit (the cache the server
    // uses) pins the fast path.
    let artifacts = CorpusArtifacts::build(corpus.clone()).expect("artifacts build");
    let registry = CorpusRegistry::new();
    registry.register_artifacts("default", artifacts.clone());
    let survey = corpus.survey_bank().iter().next().expect("survey bank");
    let exclude = [survey.paper];
    let request = PathRequest {
        max_year: Some(survey.year),
        exclude: &exclude,
        ..PathRequest::new(&survey.query, 30)
    };
    results.push(run_bench(
        "service_generate_uncached",
        iters.service,
        iters.warmup,
        || {
            artifacts
                .generate(&request)
                .expect("request serves")
                .reading_list
                .len()
        },
    ));
    registry
        .generate("default", &request)
        .expect("cache populates");
    results.push(run_bench(
        "service_generate_cache_hit",
        iters.service,
        iters.warmup,
        || {
            registry
                .generate("default", &request)
                .expect("cache hit serves")
                .output
                .reading_list
                .len()
        },
    ));

    // The PR 9 cold-start pair: building a tenant's artifacts from its
    // generation spec versus decoding a versioned snapshot of the same
    // artifacts.  Their ratio is emitted as `snapshot_load_vs_build` — the
    // startup/reload win snapshots buy a manifest-booted server.
    let spec = CorpusSpec::small(97);
    results.push(run_bench(
        "snapshot_artifacts_build",
        iters.service,
        iters.warmup,
        || {
            let corpus = spec.build_corpus().expect("spec builds");
            CorpusArtifacts::build(corpus)
                .expect("artifacts build")
                .corpus()
                .len()
        },
    ));
    let artifacts =
        CorpusArtifacts::build(spec.build_corpus().expect("spec builds")).expect("artifacts build");
    let fingerprint = rpg_service::spec_fingerprint(&spec);
    let bytes = snapshot::encode(&artifacts, fingerprint).expect("artifacts encode");
    results.push(run_bench(
        "snapshot_artifacts_load",
        iters.service,
        iters.warmup,
        || {
            snapshot::decode(&bytes, fingerprint)
                .expect("snapshot decodes")
                .corpus()
                .len()
        },
    ));

    let serve_corpus = generate(&CorpusConfig {
        seed: 0xDE40,
        ..CorpusConfig::small()
    });
    run_seed_benches(&serve_corpus, iters, &mut results);
    run_subgraph_benches(&serve_corpus, iters, &mut results);
    run_encode_benches(serve_corpus, iters, &mut results);
    run_idle_exchange_benches(iters, &mut results);
    run_traced_exchange_benches(&corpus, iters, &mut results);

    BenchReport {
        label: label.to_string(),
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        instance: instance.shape,
        results,
    }
}

/// The `seed_bm25_{taat,reference}` pair: one iteration ranks all 48
/// survey queries of the `rpg serve` corpus (`CorpusConfig::small()`, seed
/// `0xDE40`) with the Scholar engine's BM25 parameters, cut to the default
/// seed count — through a warm [`SearchScratch`], then through the verbatim
/// pre-rewrite scorer on the same index.
fn run_seed_benches(corpus: &Corpus, iters: Iterations, results: &mut Vec<BenchResult>) {
    let index = EngineIndex::build(corpus);
    let bm25 = Bm25Index::new(
        index.inverted(),
        Bm25Params {
            title_boost: ScholarEngine::config().title_boost,
            ..Default::default()
        },
    );
    let queries: Vec<&str> = corpus
        .survey_bank()
        .iter()
        .map(|s| s.query.as_str())
        .collect();
    let limit = RepagerConfig::default().seed_count;
    let mut scratch = SearchScratch::new();
    results.push(run_bench(
        "seed_bm25_taat",
        iters.service,
        iters.warmup,
        || {
            queries
                .iter()
                .map(|q| bm25.search_with(q, limit, &mut scratch).len())
                .sum::<usize>()
        },
    ));
    results.push(run_bench(
        "seed_bm25_reference",
        iters.service,
        iters.warmup,
        || {
            queries
                .iter()
                .map(|q| bm25::reference::search(&bm25, q, limit).len())
                .sum::<usize>()
        },
    ));
}

/// The `subgraph_build{,_reference}` pair: one iteration builds the
/// sub-graphs of all 48 survey queries of the `rpg serve` corpus (each
/// survey's year as `max_year`, the survey excluded, the engine's seeds
/// computed once up front) — through [`SubGraph::build_with`] with a warm
/// scratch that gets every sub-graph back, then through the verbatim
/// pre-rewrite [`subgraph::reference::build`].
fn run_subgraph_benches(corpus: &Corpus, iters: Iterations, results: &mut Vec<BenchResult>) {
    let artifacts = CorpusArtifacts::build(corpus.clone()).expect("serve corpus builds");
    let config = RepagerConfig::default();
    let instances: Vec<(Vec<rpg_corpus::PaperId>, u16, [rpg_corpus::PaperId; 1])> = corpus
        .survey_bank()
        .iter()
        .map(|survey| {
            let exclude = [survey.paper];
            let seeds = artifacts.scholar().seed_papers(&Query {
                text: &survey.query,
                top_k: config.seed_count,
                max_year: Some(survey.year),
                exclude: &exclude,
            });
            (seeds, survey.year, exclude)
        })
        .collect();
    let mut scratch = PipelineScratch::new();
    results.push(run_bench(
        "subgraph_build",
        iters.service,
        iters.warmup,
        || {
            instances
                .iter()
                .map(|(seeds, year, exclude)| {
                    let sg = SubGraph::build_with(
                        artifacts.corpus(),
                        artifacts.node_weights(),
                        seeds,
                        &config,
                        Some(*year),
                        exclude,
                        &mut scratch,
                    )
                    .expect("sub-graph builds");
                    let edges = sg.edge_count();
                    scratch.recycle_subgraph(sg);
                    edges
                })
                .sum::<usize>()
        },
    ));
    results.push(run_bench(
        "subgraph_build_reference",
        iters.service,
        iters.warmup,
        || {
            instances
                .iter()
                .map(|(seeds, year, exclude)| {
                    subgraph::reference::build(
                        artifacts.corpus(),
                        artifacts.node_weights(),
                        seeds,
                        &config,
                        Some(*year),
                        exclude,
                    )
                    .expect("sub-graph builds")
                    .weighted
                    .edge_count
                })
                .sum::<usize>()
        },
    ));
}

/// The `json_encode` / `json_encode_reference` pair: one iteration encodes
/// the `POST /v1/generate` bodies of all 48 survey queries of the
/// `rpg serve` corpus (top 30, each survey's year as `max_year`) — with
/// `serde_json::to_string`, then with the verbatim pre-rewrite
/// `serde_json::reference::to_string`, which also pays the deep copy the
/// old encoder made of every tree it was handed.
fn run_encode_benches(corpus: Corpus, iters: Iterations, results: &mut Vec<BenchResult>) {
    let artifacts = CorpusArtifacts::build(corpus).expect("serve corpus builds");
    let bodies: Vec<Value> = artifacts
        .corpus()
        .survey_bank()
        .iter()
        .map(|survey| {
            let request = PathRequest {
                max_year: Some(survey.year),
                ..PathRequest::new(&survey.query, 30)
            };
            let output = artifacts.generate(&request).expect("survey query serves");
            generate_response_value("default", &output, false)
        })
        .collect();
    results.push(run_bench(
        "json_encode",
        iters.service,
        iters.warmup,
        || {
            bodies
                .iter()
                .map(|body| serde_json::to_string(body).expect("body encodes").len())
                .sum::<usize>()
        },
    ));
    results.push(run_bench(
        "json_encode_reference",
        iters.service,
        iters.warmup,
        || {
            bodies
                .iter()
                .map(|body| {
                    serde_json::reference::to_string(body)
                        .expect("body encodes")
                        .len()
                })
                .sum::<usize>()
        },
    ));
}

/// Idle keep-alive connections held open while the per-backend exchange
/// benches run — enough registered descriptors that a readiness backend
/// paying O(registered) per wait (`poll`) shows it in the median, while an
/// O(ready) backend (`epoll`) stays flat.
const IDLE_CONNS: usize = 256;

/// The name of the idle-connection healthz bench of one backend.
fn healthz_bench_name(backend: IoBackendChoice) -> String {
    format!(
        "serve_healthz_idle{IDLE_CONNS}_{}",
        backend.resolve().as_str()
    )
}

/// The readiness backends this host offers, in report order.
pub fn available_backends() -> Vec<IoBackendChoice> {
    let mut backends = vec![IoBackendChoice::Poll];
    if cfg!(target_os = "linux") {
        backends.push(IoBackendChoice::Epoll);
    }
    backends
}

/// The `serve_healthz_idle256_{poll,epoll}` benches: spawn a real loopback
/// server per backend, park [`IDLE_CONNS`] keep-alive connections on its
/// event loops, and measure one `/v1/healthz` round-trip on a separate
/// probe connection. The pair in one report is the I/O-layer analogue of
/// the KMB rewrite pair — the same exchange, before/after backend, same
/// host — so a committed report carries its own evidence of what moving
/// the interest set into the kernel buys under idle-connection load.
fn run_idle_exchange_benches(iters: Iterations, results: &mut Vec<BenchResult>) {
    for backend in available_backends() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            drivers: 2,
            keep_alive: true,
            max_connections: IDLE_CONNS + 64,
            idle_timeout: Duration::from_secs(600),
            io_backend: backend,
            ..ServerConfig::default()
        };
        // An empty registry: `/v1/healthz` is answered inline on the event
        // loops, so the bench isolates the readiness layer from pipeline
        // cost.
        let server =
            Server::spawn(Arc::new(CorpusRegistry::new()), config).expect("bench server binds");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client::get(server.addr(), "/v1/healthz") {
                Ok(response) if response.status == 200 => break,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                other => panic!("bench server never became ready: {other:?}"),
            }
        }

        // One exchange per idle connection proves each is accepted and
        // registered with the poller (not parked in the listen backlog)
        // before the measurement starts.
        let mut idle: Vec<client::Conn> = (0..IDLE_CONNS)
            .map(|i| {
                client::Conn::connect(server.addr())
                    .unwrap_or_else(|e| panic!("idle connection {i} failed to open: {e}"))
            })
            .collect();
        for (i, conn) in idle.iter_mut().enumerate() {
            let response = conn
                .get("/v1/healthz")
                .unwrap_or_else(|e| panic!("idle connection {i} failed its exchange: {e}"));
            assert_eq!(response.status, 200, "idle connection {i}");
        }

        let mut probe = client::Conn::connect(server.addr()).expect("probe connection opens");
        results.push(run_bench(
            &healthz_bench_name(backend),
            iters.service,
            iters.warmup,
            || {
                let response = probe.get("/v1/healthz").expect("probe exchange");
                assert_eq!(response.status, 200);
                response.body.len()
            },
        ));
        drop(idle);
    }
}

/// The `serve_cache_hit_{untraced,traced}` pair: one loopback server with a
/// pre-warmed result cache, the same `POST /v1/generate` exchange measured
/// with and without a caller-supplied `x-rpg-trace-id` header. The delta is
/// the per-request cost of the observability layer (trace-ID parse, span
/// recorder, exemplar retention, echo header) on the fastest end-to-end
/// path the server has — committed per PR so that cost stays visible.
fn run_traced_exchange_benches(corpus: &Corpus, iters: Iterations, results: &mut Vec<BenchResult>) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        drivers: 1,
        keep_alive: true,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let registry = Arc::new(CorpusRegistry::new());
    registry
        .register("default", corpus.clone())
        .expect("bench corpus registers");
    let server = Server::spawn(registry, config).expect("bench server binds");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(server.addr(), "/v1/healthz") {
            Ok(response) if response.status == 200 => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("bench server never became ready: {other:?}"),
        }
    }

    let survey = corpus.survey_bank().iter().next().expect("survey bank");
    let body = format!(
        r#"{{"query": {:?}, "max_year": {}, "top_k": 30}}"#,
        survey.query, survey.year
    );
    let mut conn = client::Conn::connect(server.addr()).expect("bench connection opens");
    let warm = conn
        .post_json("/v1/generate", &body)
        .expect("cache warms end-to-end");
    assert_eq!(warm.status, 200, "cache warm-up exchange");

    results.push(run_bench(
        "serve_cache_hit_untraced",
        iters.service,
        iters.warmup,
        || {
            let response = conn.post_json("/v1/generate", &body).expect("exchange");
            assert_eq!(response.status, 200);
            response.body.len()
        },
    ));
    let trace_id = "00f0e1d2c3b4a596870123456789abcd";
    results.push(run_bench(
        "serve_cache_hit_traced",
        iters.service,
        iters.warmup,
        || {
            let response = conn
                .request_with(
                    "POST",
                    "/v1/generate",
                    Some(&body),
                    &[("x-rpg-trace-id", trace_id)],
                )
                .expect("traced exchange");
            assert_eq!(response.status, 200);
            assert_eq!(response.header("x-rpg-trace-id"), Some(trace_id));
            response.body.len()
        },
    ));
}

/// Parses a committed `rpg-bench-report/v1` JSON into `(name, median_ns)`
/// pairs.
pub fn parse_baseline(json: &str) -> Result<Vec<(String, u64)>, String> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| format!("baseline is not valid JSON: {e:?}"))?;
    if value.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("baseline is not a {SCHEMA} report"));
    }
    let results = value
        .get("results")
        .and_then(Value::as_array)
        .ok_or("baseline has no results array")?;
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or("result without a name")?;
        let median = r
            .get("median_ns")
            .and_then(Value::as_f64)
            .ok_or("result without median_ns")?;
        out.push((name.to_string(), median as u64));
    }
    Ok(out)
}

/// The most a loopback cache hit may cost over a loopback healthz exchange
/// on the same backend before [`check_regression`] fails.
pub const MAX_HIT_VS_HEALTHZ: f64 = 2.0;

/// The CI regression gate.
///
/// Four checks, all against numbers measured *in this run* or in the
/// committed baseline:
///
/// 1. **same-host invariant** — the rewritten KMB kernel must not be slower
///    than the pre-rewrite reference measured in the same process.  This is
///    completely host-independent and is the teeth of the ≥ speedup claim.
/// 2. **Mehlhorn, seed, sub-graph and encoder invariants** — likewise,
///    Mehlhorn's Steiner kernel must be faster than the KMB kernel, and the
///    term-at-a-time seed ranking, the dense-id sub-graph build and the JSON
///    encoder must each be faster than their in-process reference.
/// 3. **hit-versus-healthz bound** — a loopback cache-hit exchange may
///    cost at most [`MAX_HIT_VS_HEALTHZ`] times a loopback healthz
///    exchange on the same backend, a ratio host drift cancels out of.
/// 4. **trajectory gate** — the KMB median must not exceed
///    `max_regression ×` the committed baseline's median.  Absolute
///    nanoseconds differ between hosts, which is exactly why the threshold
///    is a generous factor (2× by default) rather than a tight bound.
pub fn check_regression(
    report: &BenchReport,
    baseline: &[(String, u64)],
    max_regression: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();

    if let Some(speedup) = report.kmb_speedup() {
        if speedup < 1.0 {
            failures.push(format!(
                "steiner_tree_kmb is slower than the in-process reference \
                 (speedup {speedup:.2}x < 1.0x)"
            ));
        }
    }

    if let Some(speedup) = report.mehlhorn_speedup() {
        if speedup <= 1.0 {
            failures.push(format!(
                "steiner_tree_mehlhorn is not faster than steiner_tree_kmb \
                 (speedup {speedup:.2}x <= 1.0x)"
            ));
        }
    }

    if let Some(speedup) = report.seed_speedup() {
        if speedup <= 1.0 {
            failures.push(format!(
                "seed_bm25_taat is not faster than the in-process reference \
                 (speedup {speedup:.2}x <= 1.0x)"
            ));
        }
    }

    if let Some(speedup) = report.subgraph_speedup() {
        if speedup <= 1.0 {
            failures.push(format!(
                "subgraph_build is not faster than the in-process reference \
                 (speedup {speedup:.2}x <= 1.0x)"
            ));
        }
    }

    if let Some(speedup) = report.json_encode_speedup() {
        if speedup <= 1.0 {
            failures.push(format!(
                "json_encode is not faster than the in-process reference \
                 (speedup {speedup:.2}x <= 1.0x)"
            ));
        }
    }

    if let Some(ratio) = report.serve_hit_vs_healthz() {
        if ratio > MAX_HIT_VS_HEALTHZ {
            failures.push(format!(
                "a loopback cache hit costs {ratio:.2}x a healthz exchange \
                 (> {MAX_HIT_VS_HEALTHZ:.1}x)"
            ));
        }
    }

    for gated in ["steiner_tree_kmb"] {
        let Some(current) = report.result(gated) else {
            continue;
        };
        let Some((_, baseline_ns)) = baseline.iter().find(|(n, _)| n == gated) else {
            failures.push(format!("baseline has no bench named {gated}"));
            continue;
        };
        let limit = *baseline_ns as f64 * max_regression;
        if current.median_ns as f64 > limit {
            failures.push(format!(
                "{gated} regressed: median {} ns > {:.0} ns \
                 ({}x over the {} ns baseline)",
                current.median_ns, limit, max_regression, baseline_ns
            ));
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> BenchReport {
        BenchReport {
            label: "test".to_string(),
            host_cores: 4,
            instance: (100, 200, 8),
            results: vec![
                BenchResult {
                    name: "steiner_tree_kmb".to_string(),
                    iters: 10,
                    median_ns: 1_000,
                    min_ns: 900,
                    mean_ns: 1_050,
                    throughput_per_sec: 1e6,
                },
                BenchResult {
                    name: "steiner_tree_kmb_reference".to_string(),
                    iters: 10,
                    median_ns: 4_000,
                    min_ns: 3_800,
                    mean_ns: 4_100,
                    throughput_per_sec: 2.5e5,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = fake_report();
        let json = report.to_json();
        let baseline = parse_baseline(&json).unwrap();
        assert_eq!(
            baseline,
            vec![
                ("steiner_tree_kmb".to_string(), 1_000),
                ("steiner_tree_kmb_reference".to_string(), 4_000),
            ]
        );
    }

    #[test]
    fn speedup_is_reference_over_rewrite() {
        let report = fake_report();
        assert!((report.kmb_speedup().unwrap() - 4.0).abs() < 1e-9);
        let value = report.to_value();
        assert!(
            value
                .get("kmb_speedup_vs_reference")
                .and_then(Value::as_f64)
                .unwrap()
                > 3.9
        );
    }

    #[test]
    fn check_passes_within_threshold_and_fails_beyond() {
        let report = fake_report();
        let baseline = vec![("steiner_tree_kmb".to_string(), 900u64)];
        // 1000 <= 900 * 2.0 → ok.
        check_regression(&report, &baseline, 2.0).unwrap();
        // 1000 > 900 * 1.05 → regression.
        let err = check_regression(&report, &baseline, 1.05).unwrap_err();
        assert!(err.contains("steiner_tree_kmb regressed"), "{err}");
    }

    #[test]
    fn check_fails_when_rewrite_is_slower_than_reference() {
        let mut report = fake_report();
        report.results[0].median_ns = 8_000; // slower than the 4 000 ns reference
        let baseline = vec![("steiner_tree_kmb".to_string(), 100_000u64)];
        let err = check_regression(&report, &baseline, 2.0).unwrap_err();
        assert!(
            err.contains("slower than the in-process reference"),
            "{err}"
        );
    }

    #[test]
    fn check_fails_when_seed_rewrite_is_not_faster_than_reference() {
        let mut report = fake_report();
        let seed = |name: &str, median_ns| BenchResult {
            name: name.to_string(),
            iters: 10,
            median_ns,
            min_ns: median_ns,
            mean_ns: median_ns,
            throughput_per_sec: 1e9 / median_ns as f64,
        };
        report.results.push(seed("seed_bm25_taat", 2_000));
        report.results.push(seed("seed_bm25_reference", 30_000));
        let baseline = vec![("steiner_tree_kmb".to_string(), 100_000u64)];
        check_regression(&report, &baseline, 2.0).unwrap();
        assert!((report.seed_speedup().unwrap() - 15.0).abs() < 1e-9);
        assert!(
            report
                .to_value()
                .get("seed_speedup_vs_reference")
                .and_then(Value::as_f64)
                .unwrap()
                > 14.9
        );
        // Equal medians are not a win.
        report.results.last_mut().unwrap().median_ns = 2_000;
        let err = check_regression(&report, &baseline, 2.0).unwrap_err();
        assert!(err.contains("seed_bm25_taat is not faster"), "{err}");
    }

    #[test]
    fn check_fails_when_mehlhorn_is_not_faster_than_kmb() {
        let mut report = fake_report();
        report.results.push(BenchResult {
            name: "steiner_tree_mehlhorn".to_string(),
            iters: 10,
            median_ns: 250,
            min_ns: 240,
            mean_ns: 260,
            throughput_per_sec: 4e6,
        });
        let baseline = vec![("steiner_tree_kmb".to_string(), 100_000u64)];
        check_regression(&report, &baseline, 2.0).unwrap();
        assert!((report.mehlhorn_speedup().unwrap() - 4.0).abs() < 1e-9);
        let value = report.to_value();
        let field = value
            .get("mehlhorn_speedup_vs_kmb")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((field - 4.0).abs() < 1e-9);
        // Equal medians are not a win.
        report.results[2].median_ns = 1_000;
        let err = check_regression(&report, &baseline, 2.0).unwrap_err();
        assert!(
            err.contains("steiner_tree_mehlhorn is not faster than steiner_tree_kmb"),
            "{err}"
        );
        // Without the Mehlhorn bench the ratio is unknown, and so ungated.
        report.results.pop();
        check_regression(&report, &baseline, 2.0).unwrap();
    }

    #[test]
    fn check_fails_when_the_encoder_is_not_faster_than_reference() {
        let mut report = fake_report();
        let bench = |name: &str, median_ns| BenchResult {
            name: name.to_string(),
            iters: 10,
            median_ns,
            min_ns: median_ns,
            mean_ns: median_ns,
            throughput_per_sec: 1e9 / median_ns as f64,
        };
        report.results.push(bench("json_encode", 1_000));
        report.results.push(bench("json_encode_reference", 3_000));
        report
            .results
            .push(bench("serve_cache_hit_untraced", 30_000));
        report
            .results
            .push(bench(&healthz_bench_name(IoBackendChoice::Auto), 20_000));
        let baseline = vec![("steiner_tree_kmb".to_string(), 100_000u64)];
        check_regression(&report, &baseline, 2.0).unwrap();
        let value = report.to_value();
        let field = |name: &str| value.get(name).and_then(Value::as_f64).unwrap();
        assert!((field("json_encode_speedup_vs_reference") - 3.0).abs() < 1e-9);
        assert!((field("serve_hit_vs_healthz") - 1.5).abs() < 1e-9);
        // Equal medians are not a win.
        report.results[2].median_ns = 3_000;
        let err = check_regression(&report, &baseline, 2.0).unwrap_err();
        assert!(err.contains("json_encode is not faster"), "{err}");
        assert!(!err.contains("cache hit"), "{err}");
    }

    #[test]
    fn check_fails_when_the_subgraph_build_is_not_faster_than_reference() {
        let mut report = fake_report();
        let bench = |name: &str, median_ns| BenchResult {
            name: name.to_string(),
            iters: 10,
            median_ns,
            min_ns: median_ns,
            mean_ns: median_ns,
            throughput_per_sec: 1e9 / median_ns as f64,
        };
        report.results.push(bench("subgraph_build", 1_000));
        report
            .results
            .push(bench("subgraph_build_reference", 4_000));
        let baseline = vec![("steiner_tree_kmb".to_string(), 100_000u64)];
        check_regression(&report, &baseline, 2.0).unwrap();
        let value = report.to_value();
        let field = value
            .get("subgraph_speedup_vs_reference")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((field - 4.0).abs() < 1e-9);
        // Equal medians are not a win.
        report.results[2].median_ns = 4_000;
        let err = check_regression(&report, &baseline, 2.0).unwrap_err();
        assert!(err.contains("subgraph_build is not faster"), "{err}");
        // Without the reference bench the ratio is unknown, and so ungated.
        report.results.pop();
        check_regression(&report, &baseline, 2.0).unwrap();
    }

    #[test]
    fn check_fails_when_a_cache_hit_costs_over_twice_a_healthz() {
        let mut report = fake_report();
        let bench = |name: &str, median_ns| BenchResult {
            name: name.to_string(),
            iters: 10,
            median_ns,
            min_ns: median_ns,
            mean_ns: median_ns,
            throughput_per_sec: 1e9 / median_ns as f64,
        };
        report
            .results
            .push(bench("serve_cache_hit_untraced", 40_000));
        report
            .results
            .push(bench(&healthz_bench_name(IoBackendChoice::Auto), 20_000));
        let baseline = vec![("steiner_tree_kmb".to_string(), 100_000u64)];
        // Exactly 2x is within the bound.
        check_regression(&report, &baseline, 2.0).unwrap();
        report.results[2].median_ns = 40_001;
        let err = check_regression(&report, &baseline, 2.0).unwrap_err();
        assert!(err.contains("cache hit costs 2.00x a healthz"), "{err}");
        // Without the healthz bench the ratio is unknown, and so ungated.
        report.results.pop();
        check_regression(&report, &baseline, 2.0).unwrap();
    }

    #[test]
    fn missing_baseline_bench_is_an_error() {
        let report = fake_report();
        let err = check_regression(&report, &[], 2.0).unwrap_err();
        assert!(err.contains("no bench named steiner_tree_kmb"), "{err}");
    }

    #[test]
    fn baseline_parser_rejects_other_schemas() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"schema": "something-else"}"#).is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn run_bench_produces_consistent_stats() {
        let result = run_bench("noop", 9, 1, || 1u64);
        assert_eq!(result.name, "noop");
        assert_eq!(result.iters, 9);
        assert!(result.median_ns >= 1);
        assert!(result.min_ns <= result.median_ns);
        assert!(result.throughput_per_sec > 0.0);
    }

    #[test]
    fn smoke_report_runs_end_to_end() {
        // A tiny-iteration full pass: every bench runs, the KMB pair is
        // present, and the speedup is computable.  This is the unit-level
        // guarantee behind the CI bench-smoke job.
        let iters = Iterations {
            kernel: 3,
            service: 2,
            warmup: 1,
        };
        let report = run_report("unit", iters);
        let mut expected = vec![
            "steiner_tree_kmb".to_string(),
            "steiner_tree_mehlhorn".to_string(),
            "steiner_tree_kmb_reference".to_string(),
            "dijkstra_single_source".to_string(),
            "dijkstra_to_targets".to_string(),
            "minimum_spanning_forest".to_string(),
            "service_generate_uncached".to_string(),
            "service_generate_cache_hit".to_string(),
            "snapshot_artifacts_build".to_string(),
            "snapshot_artifacts_load".to_string(),
            "seed_bm25_taat".to_string(),
            "seed_bm25_reference".to_string(),
            "subgraph_build".to_string(),
            "subgraph_build_reference".to_string(),
            "json_encode".to_string(),
            "json_encode_reference".to_string(),
        ];
        for backend in available_backends() {
            expected.push(healthz_bench_name(backend));
        }
        for name in &expected {
            assert!(report.result(name).is_some(), "bench {name} missing");
        }
        assert!(report.kmb_speedup().is_some());
        assert!(report.mehlhorn_speedup().is_some());
        assert!(report.seed_speedup().is_some());
        assert!(report.subgraph_speedup().is_some());
        assert!(report.json_encode_speedup().is_some());
        assert!(report.serve_hit_vs_healthz().is_some());
        assert!(
            report.snapshot_load_speedup().is_some(),
            "the snapshot cold-start pair must both run"
        );
        let parsed = parse_baseline(&report.to_json()).unwrap();
        assert_eq!(parsed.len(), report.results.len());
    }
}
