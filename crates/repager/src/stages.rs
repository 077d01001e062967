//! The RePaGer query path as an explicit five-stage pipeline.
//!
//! The five steps of Fig. 6 run as one [`Stage`] per step — [`SeedStage`] →
//! [`SubgraphStage`] → [`ReallocStage`] → [`SteinerStage`] →
//! [`RenderStage`] — driven by [`run_pipeline`], which times every stage
//! into a [`StageTimings`] so per-request hot spots are observable, and
//! threads a shared [`PipelineScratch`] through all five stages: the
//! term-at-a-time seed ranking, the dense-id CSR sub-graph build, the
//! co-occurrence counting, the component grouping and the Steiner kernel's
//! Voronoi search, and the render stage's rank keys all reuse one
//! per-worker workspace.  The sub-graph's buffers come from the scratch in
//! [`SubgraphStage`] and go back to it at the end of [`RenderStage`], so a
//! warmed worker runs a request without growing a buffer.
//!
//! The stages borrow the corpus artifacts through a [`StageContext`], which
//! [`serve_request`] builds once per request.

use crate::config::RepagerConfig;
use crate::newst::{self, NewstForest};
use crate::path::{self, ReadingPath};
use crate::scratch::PipelineScratch;
use crate::seeds::{reallocate_with, SeedAllocation};
use crate::subgraph::SubGraph;
use crate::system::{PathRequest, RepagerError, RepagerOutput};
use crate::weights::NodeWeights;
use rpg_corpus::{Corpus, PaperId};
use rpg_engines::{Query, ScholarEngine};
use rpg_graph::GraphError;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::time::{Duration, Instant};

/// Work counters of one pipeline run, recorded alongside the stage
/// durations.
///
/// They come from the before/after difference of the worker's
/// [`PipelineScratch::counters`] snapshot, so they attribute exactly the
/// work (and the buffer growth) this request caused.  On a warmed-up
/// worker, `scratch_allocations` is 0 for every request — the observable
/// form of the allocation-free kernel claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageCounters {
    /// Steiner solves run by the Steiner stage (one per terminal component).
    pub steiner_runs: u64,
    /// Closure witness paths actually expanded (K−1 per solve).
    pub steiner_paths_expanded: u64,
    /// Closure terminal pairs whose witness paths were never materialised.
    pub steiner_paths_skipped: u64,
    /// Non-terminal leaves pruned from the Steiner trees.
    pub steiner_pruned_leaves: u64,
    /// Scratch-buffer growth (heap allocation) events across all stages.
    pub scratch_allocations: u64,
    /// Seed-reallocation threshold relaxations / seed fallbacks taken.
    pub realloc_retries: u64,
}

impl StageCounters {
    /// Field-wise difference (`self - earlier`) between two cumulative
    /// snapshots.
    pub fn since(&self, earlier: &StageCounters) -> StageCounters {
        StageCounters {
            steiner_runs: self.steiner_runs - earlier.steiner_runs,
            steiner_paths_expanded: self.steiner_paths_expanded - earlier.steiner_paths_expanded,
            steiner_paths_skipped: self.steiner_paths_skipped - earlier.steiner_paths_skipped,
            steiner_pruned_leaves: self.steiner_pruned_leaves - earlier.steiner_pruned_leaves,
            scratch_allocations: self.scratch_allocations - earlier.scratch_allocations,
            realloc_retries: self.realloc_retries - earlier.realloc_retries,
        }
    }

    /// Field-wise sum, for service-level aggregation.
    pub fn add(&mut self, other: &StageCounters) {
        self.steiner_runs += other.steiner_runs;
        self.steiner_paths_expanded += other.steiner_paths_expanded;
        self.steiner_paths_skipped += other.steiner_paths_skipped;
        self.steiner_pruned_leaves += other.steiner_pruned_leaves;
        self.scratch_allocations += other.scratch_allocations;
        self.realloc_retries += other.realloc_retries;
    }

    /// The counters, labelled, in a stable reporting order.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("steiner_runs", self.steiner_runs),
            ("steiner_paths_expanded", self.steiner_paths_expanded),
            ("steiner_paths_skipped", self.steiner_paths_skipped),
            ("steiner_pruned_leaves", self.steiner_pruned_leaves),
            ("scratch_allocations", self.scratch_allocations),
            ("realloc_retries", self.realloc_retries),
        ]
    }
}

/// Wall-clock time of each pipeline stage of one request, plus the total.
///
/// The stage durations sum to slightly less than `total` (the difference is
/// pipeline bookkeeping: validation, timing itself, and the early-exit
/// branch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Step 1 — initial seed retrieval from the engine.
    pub seed: Duration,
    /// Steps 2+3 — weighted sub-citation graph construction.
    pub subgraph: Duration,
    /// Step 4 — seed reallocation by co-occurrence.
    pub realloc: Duration,
    /// Step 5 — the NEWST Steiner optimisation.
    pub steiner: Duration,
    /// Path assembly and reading-list ranking.
    pub render: Duration,
    /// End-to-end wall-clock time of the request.
    pub total: Duration,
    /// Work counters of the run (Steiner solves, lazy-path bookkeeping,
    /// scratch allocations, realloc retries).
    pub counters: StageCounters,
}

impl StageTimings {
    /// The five per-stage durations, labelled, in pipeline order.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        [
            ("seed", self.seed),
            ("subgraph", self.subgraph),
            ("realloc", self.realloc),
            ("steiner", self.steiner),
            ("render", self.render),
        ]
    }

    /// Sum of the five stage durations (≤ [`StageTimings::total`]).
    pub fn stage_sum(&self) -> Duration {
        self.seed + self.subgraph + self.realloc + self.steiner + self.render
    }
}

/// Everything a stage may read (and, for the scratch, mutate) while running
/// one request: the shared corpus artifacts, the request, and the
/// variant-applied configuration.
pub struct StageContext<'a> {
    /// The corpus being queried.
    pub corpus: &'a Corpus,
    /// The seed search engine.
    pub scholar: &'a ScholarEngine,
    /// PageRank + venue node weights (Eq. 3).
    pub node_weights: &'a NodeWeights,
    /// The request being served.
    pub request: &'a PathRequest<'a>,
    /// The request's configuration with the variant's ablations applied.
    pub config: RepagerConfig,
    /// Reusable per-worker workspace for every stage.
    pub scratch: &'a mut PipelineScratch,
}

/// One step of the pipeline: consumes the previous stage's output, produces
/// its own.
pub trait Stage {
    /// What the stage consumes.
    type Input;
    /// What the stage produces.
    type Output;

    /// The stage name as reported in timings and diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: Self::Input,
    ) -> Result<Self::Output, GraphError>;
}

/// Step 1: initial seed papers from the engine.
pub struct SeedStage;

impl Stage for SeedStage {
    type Input = ();
    type Output = Vec<PaperId>;

    fn name(&self) -> &'static str {
        "seed"
    }

    fn run(&self, cx: &mut StageContext<'_>, _input: ()) -> Result<Vec<PaperId>, GraphError> {
        let query = Query {
            text: cx.request.query,
            top_k: cx.config.seed_count,
            max_year: cx.request.max_year,
            exclude: cx.request.exclude,
        };
        Ok(cx.scholar.seed_papers_with(&query, &mut cx.scratch.search))
    }
}

/// Output of [`SubgraphStage`].
pub struct SubgraphStageOutput {
    /// The initial seeds (passed through for reallocation).
    pub seeds: Vec<PaperId>,
    /// The weighted sub-citation graph around them.
    pub subgraph: SubGraph,
}

/// Steps 2+3: the weighted sub-citation graph around the seeds.
pub struct SubgraphStage;

impl Stage for SubgraphStage {
    type Input = Vec<PaperId>;
    type Output = SubgraphStageOutput;

    fn name(&self) -> &'static str {
        "subgraph"
    }

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        seeds: Vec<PaperId>,
    ) -> Result<SubgraphStageOutput, GraphError> {
        let subgraph = SubGraph::build_with(
            cx.corpus,
            cx.node_weights,
            &seeds,
            &cx.config,
            cx.request.max_year,
            cx.request.exclude,
            cx.scratch,
        )?;
        Ok(SubgraphStageOutput { seeds, subgraph })
    }
}

/// Output of [`ReallocStage`].
pub struct ReallocStageOutput {
    /// The sub-citation graph (passed through).
    pub subgraph: SubGraph,
    /// Initial seeds, reallocated seeds and co-occurrence counts.
    pub allocation: SeedAllocation,
    /// The compulsory terminals under the variant's selection policy.
    pub terminals: Vec<PaperId>,
}

/// Step 4: seed reallocation by co-occurrence.
pub struct ReallocStage;

impl Stage for ReallocStage {
    type Input = SubgraphStageOutput;
    type Output = ReallocStageOutput;

    fn name(&self) -> &'static str {
        "realloc"
    }

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: SubgraphStageOutput,
    ) -> Result<ReallocStageOutput, GraphError> {
        let SubgraphStageOutput { seeds, subgraph } = input;
        let allocation = reallocate_with(cx.corpus, &subgraph, &seeds, &cx.config, cx.scratch);
        let terminals = allocation.terminals(cx.request.variant.terminal_selection(), &cx.config);
        Ok(ReallocStageOutput {
            subgraph,
            allocation,
            terminals,
        })
    }
}

/// Output of [`SteinerStage`].
pub struct SteinerStageOutput {
    /// The sub-citation graph (passed through).
    pub subgraph: SubGraph,
    /// The seed allocation (passed through).
    pub allocation: SeedAllocation,
    /// The terminal set (passed through for NEWST-C ranking).
    pub terminals: Vec<PaperId>,
    /// The Steiner forest (empty for the NEWST-C variant).
    pub forest: NewstForest,
}

/// Step 5: the NEWST Steiner optimisation (skipped by NEWST-C).
pub struct SteinerStage;

impl Stage for SteinerStage {
    type Input = ReallocStageOutput;
    type Output = SteinerStageOutput;

    fn name(&self) -> &'static str {
        "steiner"
    }

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: ReallocStageOutput,
    ) -> Result<SteinerStageOutput, GraphError> {
        let ReallocStageOutput {
            subgraph,
            allocation,
            terminals,
        } = input;
        let forest = if cx.request.variant.runs_steiner() {
            newst::solve_with(&subgraph, &terminals, cx.scratch)?
        } else {
            NewstForest::default()
        };
        Ok(SteinerStageOutput {
            subgraph,
            allocation,
            terminals,
            forest,
        })
    }
}

/// Final stage: assembles the structured reading path and the flattened
/// ranked reading list.
pub struct RenderStage;

impl Stage for RenderStage {
    type Input = SteinerStageOutput;
    type Output = RepagerOutput;

    fn name(&self) -> &'static str {
        "render"
    }

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: SteinerStageOutput,
    ) -> Result<RepagerOutput, GraphError> {
        let SteinerStageOutput {
            subgraph,
            allocation,
            terminals,
            forest,
        } = input;
        let reading_path = if cx.request.variant.runs_steiner() {
            path::assemble(cx.corpus, &forest)
        } else {
            ReadingPath::default()
        };
        let reading_list = ranked_reading_list(cx, &subgraph, &allocation, &terminals, &forest);
        let (subgraph_nodes, subgraph_edges) = (subgraph.node_count(), subgraph.edge_count());
        cx.scratch.recycle_subgraph(subgraph);
        Ok(RepagerOutput {
            reading_list,
            path: reading_path,
            forest,
            seeds: allocation,
            subgraph_nodes,
            subgraph_edges,
            timings: StageTimings::default(),
        })
    }
}

/// The sort key of a paper in the reading list: co-occurrence count
/// descending, then node weight ascending, then paper id.
pub(crate) type RankKey = (Reverse<usize>, u64, PaperId);

/// Builds the flattened top-K reading list.
///
/// Papers selected by the model (tree papers, or the terminals for NEWST-C)
/// come first, ranked by co-occurrence count and then by node weight
/// (cheaper = more important).  If the model selected fewer than `top_k`
/// papers, the list is padded with the remaining sub-graph candidates under
/// the same ranking, so that precision/F1 can be evaluated at any K as in
/// Fig. 8.
///
/// Each paper's key is computed once, before sorting.  The co-occurrence
/// map is spread over a dense per-local-node array first, and a sub-graph
/// paper's weight is read from the sub-graph, which holds the same Eq. (3)
/// value under the same configuration; so a key costs array reads, not
/// hash lookups.
fn ranked_reading_list(
    cx: &mut StageContext<'_>,
    subgraph: &SubGraph,
    allocation: &SeedAllocation,
    terminals: &[PaperId],
    forest: &NewstForest,
) -> Vec<PaperId> {
    let runs_steiner = cx.request.variant.runs_steiner();
    let top_k = cx.request.top_k;
    let core: Vec<PaperId> = if runs_steiner {
        forest.papers()
    } else {
        terminals.to_vec()
    };

    let scratch = &mut *cx.scratch;
    let before = scratch.rank_capacities();
    let cooc = &mut scratch.rank_cooc;
    cooc.clear();
    cooc.resize(subgraph.node_count(), 0);
    for (&paper, &count) in &allocation.cooccurrence {
        if let Some(local) = subgraph.local_of(paper) {
            cooc[local.index()] = count;
        }
    }
    let cooc = &scratch.rank_cooc;
    let (node_weights, config) = (cx.node_weights, &cx.config);
    let rank_key = |p: PaperId| -> RankKey {
        let (cooccurrence, weight) = match subgraph.local_of(p) {
            Some(local) => (cooc[local.index()], subgraph.weighted.node_weight(local)),
            None => (
                allocation.cooccurrence.get(&p).copied().unwrap_or(0),
                node_weights.node_weight(p, config),
            ),
        };
        (Reverse(cooccurrence), ordered_float(weight), p)
    };

    let keys = &mut scratch.rank_keys;
    keys.clear();
    keys.extend(core.iter().map(|&p| rank_key(p)));
    keys.sort_unstable();
    let mut list: Vec<PaperId> = keys.iter().map(|&(_, _, p)| p).collect();

    // NEWST-C returns the reallocated papers themselves ("due to the
    // inability of path generation"): it is not padded up to K, which is
    // why it trades recall (F1) for precision in Table III.  The Steiner
    // variants pad with the remaining sub-graph candidates so the list
    // can be evaluated at any K.
    if runs_steiner && list.len() < top_k {
        let listed = &mut scratch.rank_listed;
        listed.clear();
        listed.resize(subgraph.node_count(), false);
        for &p in &list {
            if let Some(local) = subgraph.local_of(p) {
                listed[local.index()] = true;
            }
        }
        keys.clear();
        keys.extend(
            subgraph
                .papers()
                .iter()
                .zip(listed.iter())
                .filter(|&(_, &listed)| !listed)
                .map(|(&p, _)| rank_key(p)),
        );
        keys.sort_unstable();
        list.extend(keys.iter().map(|&(_, _, p)| p));
    }
    list.truncate(top_k);
    let after = scratch.rank_capacities();
    scratch.note_growth(&before, &after);
    list
}

/// Total order wrapper for finite f64 sort keys.
fn ordered_float(x: f64) -> u64 {
    // Finite non-negative weights only; map to sortable bits.
    debug_assert!(x.is_finite() && x >= 0.0);
    x.to_bits()
}

/// Runs one stage, filling its timing slot and — when the scratch has a
/// span recorder armed — recording a `stage:<name>` span under the
/// caller's compute span. Spans are recorded even when the stage errors,
/// so a failed request's trace still shows where the time went.
fn timed_stage<T, E>(
    cx: &mut StageContext<'_>,
    slot: &mut Duration,
    span: &'static str,
    f: impl FnOnce(&mut StageContext<'_>) -> Result<T, E>,
) -> Result<T, E> {
    let started = Instant::now();
    let out = f(cx);
    *slot = started.elapsed();
    cx.scratch.record_span(span, started);
    out
}

/// Validates a request and drives the pipeline over borrowed corpus
/// artifacts.
///
/// This is the single entry point behind
/// [`CorpusArtifacts::generate`](crate::CorpusArtifacts::generate) and
/// [`CorpusArtifacts::generate_with_scratch`](crate::CorpusArtifacts::generate_with_scratch),
/// which every caller — the registry's miss path included — goes through.
pub fn serve_request(
    corpus: &Corpus,
    scholar: &ScholarEngine,
    node_weights: &NodeWeights,
    request: &PathRequest<'_>,
    scratch: &mut PipelineScratch,
) -> Result<RepagerOutput, RepagerError> {
    request.config.validate()?;
    let mut cx = StageContext {
        corpus,
        scholar,
        node_weights,
        request,
        config: request.variant.apply(request.config),
        scratch,
    };
    run_pipeline(&mut cx)
}

/// Returns [`RepagerError::DeadlineExceeded`] once the scratch's armed
/// cooperative deadline has passed — called between stages so a request
/// whose budget blew mid-compute sheds its remaining stages instead of
/// finishing work nobody will wait for. Stage boundaries are the natural
/// granularity: the stages themselves stay oblivious, and the heavy steps
/// (sub-graph build, Steiner solve) are each bracketed by a check.
fn deadline_gate(cx: &StageContext<'_>) -> Result<(), RepagerError> {
    if cx.scratch.deadline_expired() {
        return Err(RepagerError::DeadlineExceeded);
    }
    Ok(())
}

/// Drives the five stages for one request, recording per-stage timings.
///
/// Validation of the request's configuration is the caller's responsibility
/// ([`serve_request`] validates before building the [`StageContext`], so
/// the context always carries an applied, valid configuration).
pub fn run_pipeline(cx: &mut StageContext<'_>) -> Result<RepagerOutput, RepagerError> {
    let started = Instant::now();
    let mut timings = StageTimings::default();
    let counters_before = cx.scratch.counters();

    let seeds = timed_stage(cx, &mut timings.seed, "stage:seed", |cx| {
        SeedStage.run(cx, ())
    })?;
    if seeds.is_empty() {
        // No seeds: every downstream stage would be a no-op, so short-circuit
        // with an empty output (stage timings for the skipped stages stay 0).
        timings.total = started.elapsed();
        return Ok(RepagerOutput {
            reading_list: Vec::new(),
            path: ReadingPath::default(),
            forest: NewstForest::default(),
            seeds: SeedAllocation {
                initial: Vec::new(),
                reallocated: Vec::new(),
                cooccurrence: Default::default(),
            },
            subgraph_nodes: 0,
            subgraph_edges: 0,
            timings,
        });
    }

    deadline_gate(cx)?;
    let subgraph = timed_stage(cx, &mut timings.subgraph, "stage:subgraph", |cx| {
        SubgraphStage.run(cx, seeds)
    })?;
    deadline_gate(cx)?;
    let realloc = timed_stage(cx, &mut timings.realloc, "stage:realloc", |cx| {
        ReallocStage.run(cx, subgraph)
    })?;
    deadline_gate(cx)?;
    let steiner = timed_stage(cx, &mut timings.steiner, "stage:steiner", |cx| {
        SteinerStage.run(cx, realloc)
    })?;
    deadline_gate(cx)?;
    let mut output = timed_stage(cx, &mut timings.render, "stage:render", |cx| {
        RenderStage.run(cx, steiner)
    })?;

    timings.counters = cx.scratch.counters().since(&counters_before);
    timings.total = started.elapsed();
    output.timings = timings;
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_follow_pipeline_order() {
        assert_eq!(SeedStage.name(), "seed");
        assert_eq!(SubgraphStage.name(), "subgraph");
        assert_eq!(ReallocStage.name(), "realloc");
        assert_eq!(SteinerStage.name(), "steiner");
        assert_eq!(RenderStage.name(), "render");
        let timings = StageTimings::default();
        let labels: Vec<&str> = timings.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(labels, ["seed", "subgraph", "realloc", "steiner", "render"]);
    }

    #[test]
    fn stage_sum_adds_all_five_stages() {
        let timings = StageTimings {
            seed: Duration::from_millis(1),
            subgraph: Duration::from_millis(2),
            realloc: Duration::from_millis(3),
            steiner: Duration::from_millis(4),
            render: Duration::from_millis(5),
            total: Duration::from_millis(16),
            counters: StageCounters::default(),
        };
        assert_eq!(timings.stage_sum(), Duration::from_millis(15));
        assert!(timings.stage_sum() <= timings.total);
    }

    #[test]
    fn counter_snapshots_diff_and_sum_field_wise() {
        let a = StageCounters {
            steiner_runs: 3,
            steiner_paths_expanded: 6,
            steiner_paths_skipped: 9,
            steiner_pruned_leaves: 12,
            scratch_allocations: 15,
            realloc_retries: 1,
        };
        let b = StageCounters {
            steiner_runs: 5,
            steiner_paths_expanded: 10,
            steiner_paths_skipped: 15,
            steiner_pruned_leaves: 20,
            scratch_allocations: 15,
            realloc_retries: 2,
        };
        let delta = b.since(&a);
        assert_eq!(delta.steiner_runs, 2);
        assert_eq!(delta.scratch_allocations, 0);
        assert_eq!(delta.realloc_retries, 1);
        let mut sum = a;
        sum.add(&delta);
        assert_eq!(sum, b);
        let labels: Vec<&str> = b.fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels.contains(&"steiner_runs"));
        assert!(labels.contains(&"scratch_allocations"));
    }

    /// The `rpg serve` default corpus and its 48 survey queries, as the
    /// server's miss path runs them.
    fn serve_artifacts() -> std::sync::Arc<crate::artifacts::CorpusArtifacts> {
        crate::artifacts::CorpusArtifacts::build(rpg_corpus::generate(&rpg_corpus::CorpusConfig {
            seed: 0xDE40,
            ..rpg_corpus::CorpusConfig::small()
        }))
        .unwrap()
    }

    #[test]
    fn warmed_scratch_runs_the_seed_stage_without_allocating() {
        let artifacts = serve_artifacts();
        let bank = artifacts.corpus().survey_bank();
        assert_eq!(bank.iter().count(), 48);
        let mut scratch = PipelineScratch::new();
        let sweep = |scratch: &mut PipelineScratch| {
            let before = scratch.counters();
            for survey in bank.iter() {
                let exclude = [survey.paper];
                let request = PathRequest {
                    max_year: Some(survey.year),
                    exclude: &exclude,
                    ..PathRequest::new(&survey.query, 30)
                };
                let mut cx = StageContext {
                    corpus: artifacts.corpus(),
                    scholar: artifacts.scholar(),
                    node_weights: artifacts.node_weights(),
                    request: &request,
                    config: request.variant.apply(request.config),
                    scratch: &mut *scratch,
                };
                assert!(!SeedStage.run(&mut cx, ()).unwrap().is_empty());
            }
            scratch.counters().since(&before).scratch_allocations
        };
        assert!(
            sweep(&mut scratch) > 0,
            "the cold sweep grows the seed buffers"
        );
        assert_eq!(
            sweep(&mut scratch),
            0,
            "a warmed seed stage allocates nothing"
        );
    }

    #[test]
    fn warmed_scratch_runs_the_whole_pipeline_without_allocating() {
        let artifacts = serve_artifacts();
        let bank = artifacts.corpus().survey_bank();
        let mut scratch = PipelineScratch::new();
        // Every stage, the sub-graph build and the render included, reuses
        // the scratch: after one sweep nothing grows, whatever the order of
        // the queries or their `top_k`.
        let sweep = |scratch: &mut PipelineScratch, reverse: bool| {
            let before = scratch.counters();
            let mut surveys: Vec<_> = bank.iter().collect();
            if reverse {
                surveys.reverse();
            }
            for (i, survey) in surveys.into_iter().enumerate() {
                let exclude = [survey.paper];
                let request = PathRequest {
                    max_year: Some(survey.year),
                    exclude: &exclude,
                    ..PathRequest::new(&survey.query, [10, 20, 30, 40][i % 4])
                };
                let mut cx = StageContext {
                    corpus: artifacts.corpus(),
                    scholar: artifacts.scholar(),
                    node_weights: artifacts.node_weights(),
                    request: &request,
                    config: request.variant.apply(request.config),
                    scratch: &mut *scratch,
                };
                let output = run_pipeline(&mut cx).unwrap();
                assert!(!output.reading_list.is_empty());
            }
            scratch.counters().since(&before).scratch_allocations
        };
        assert!(
            sweep(&mut scratch, false) > 0,
            "the cold sweep grows buffers"
        );
        assert_eq!(
            sweep(&mut scratch, false),
            0,
            "a warmed pipeline allocates nothing"
        );
        assert_eq!(sweep(&mut scratch, true), 0, "in any query order");
    }

    #[test]
    fn reading_list_ranks_like_the_map_keyed_sort() {
        // The ranking as first written: the key looked up in the
        // co-occurrence map and the Eq. 3 table, tree papers first, then the
        // other sub-graph papers, each part sorted by that key.
        let artifacts = serve_artifacts();
        let mut scratch = PipelineScratch::new();
        for survey in artifacts.corpus().survey_bank().iter() {
            for (variant, top_k) in [
                (crate::Variant::Newst, 400),
                (crate::Variant::CandidatesOnly, 30),
            ] {
                let request = PathRequest {
                    max_year: Some(survey.year),
                    variant,
                    ..PathRequest::new(&survey.query, top_k)
                };
                let config = request.variant.apply(request.config);
                let mut cx = StageContext {
                    corpus: artifacts.corpus(),
                    scholar: artifacts.scholar(),
                    node_weights: artifacts.node_weights(),
                    request: &request,
                    config,
                    scratch: &mut scratch,
                };
                let seeds = SeedStage.run(&mut cx, ()).unwrap();
                let sg = SubgraphStage.run(&mut cx, seeds).unwrap();
                let realloc = ReallocStage.run(&mut cx, sg).unwrap();
                let steiner = SteinerStage.run(&mut cx, realloc).unwrap();
                let key = |p: PaperId| {
                    let cooc = steiner.allocation.cooccurrence.get(&p).copied();
                    let weight = artifacts.node_weights().node_weight(p, &config);
                    (std::cmp::Reverse(cooc.unwrap_or(0)), weight.to_bits(), p)
                };
                let mut expected = if variant.runs_steiner() {
                    steiner.forest.papers()
                } else {
                    steiner.terminals.clone()
                };
                expected.sort_by_key(|&p| key(p));
                if variant.runs_steiner() {
                    let mut rest: Vec<PaperId> = steiner
                        .subgraph
                        .papers()
                        .iter()
                        .copied()
                        .filter(|p| !expected.contains(p))
                        .collect();
                    rest.sort_by_key(|&p| key(p));
                    expected.extend(rest);
                }
                expected.truncate(top_k);
                let output = RenderStage.run(&mut cx, steiner).unwrap();
                assert_eq!(output.reading_list, expected, "{:?}", survey.query);
            }
        }
    }
}
