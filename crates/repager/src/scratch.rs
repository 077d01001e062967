//! The per-worker reusable workspace of the whole query pipeline.
//!
//! PR 1 gave the Steiner stage a shared Dijkstra workspace; this module
//! widens that idea to every allocating stage of the pipeline.  A
//! [`PipelineScratch`] bundles the seed engine's term-at-a-time
//! [`SearchScratch`], the sub-graph stage's buffers (the corpus-sized,
//! generation-stamped `local_of` array, the expansion queue, the edge list,
//! the Eq. 2 cost table and the CSR graph itself, handed back through
//! [`PipelineScratch::recycle_subgraph`]), the dense generation-stamped
//! counters of seed reallocation, the component flood-fill arrays and the
//! Steiner kernel's [`SteinerScratch`], and the render stage's rank-key
//! buffers.  A serving thread that keeps one scratch for its lifetime runs
//! all five stages without building hash tables or growing buffers per
//! request.
//!
//! The scratch also owns the pipeline's work counters: cumulative totals
//! that [`run_pipeline`](crate::stages::run_pipeline) snapshots before and
//! after each request to fill
//! [`StageTimings::counters`](crate::stages::StageTimings), making the
//! allocation discipline observable end to end (per response and, summed,
//! in `/v1/stats`).
//!
//! [`with_thread_scratch`] lends out one scratch per thread, so every
//! caller that does not manage its own — in-process generation through
//! [`CorpusArtifacts::generate`](crate::CorpusArtifacts::generate) and the
//! registry's miss path alike — reuses the same warmed buffers.

use crate::stages::{RankKey, StageCounters};
use crate::subgraph::{SubGraph, SubgraphBuffers};
use rpg_graph::steiner::SteinerScratch;
use rpg_graph::NodeId;
use rpg_obs::trace::StageTrace;
use rpg_textindex::SearchScratch;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static THREAD_SCRATCH: RefCell<PipelineScratch> = RefCell::new(PipelineScratch::new());
}

/// Runs `f` with this thread's shared pipeline workspace.
///
/// A caller that arms a deadline or a trace on it must disarm both before
/// returning: the next request served on this thread reuses the scratch.
///
/// # Panics
///
/// Panics if called re-entrantly from inside `f`.
pub fn with_thread_scratch<T>(f: impl FnOnce(&mut PipelineScratch) -> T) -> T {
    THREAD_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Reusable buffers + cumulative work counters for one serving worker.
///
/// Not tied to a corpus or sub-graph: buffers grow to the largest instance
/// seen and are reused across requests of any size, exactly like the graph
/// layer's scratches.
#[derive(Debug, Default, Clone)]
pub struct PipelineScratch {
    pub(crate) steiner: SteinerScratch,
    /// The sub-graph stage's buffers and the last recycled sub-graph.
    pub(crate) subgraph: SubgraphBuffers,
    /// The seed stage's term-at-a-time ranking buffers.
    pub(crate) search: SearchScratch,
    /// Terminal translation buffer of the NEWST adapter.
    pub(crate) local_terminals: Vec<NodeId>,
    /// Dense co-occurrence counts over sub-graph local node ids (valid
    /// where `cooc_stamp` matches `cooc_gen`).
    pub(crate) cooc_count: Vec<u32>,
    pub(crate) cooc_stamp: Vec<u32>,
    pub(crate) cooc_gen: u32,
    /// Local nodes touched by the current co-occurrence pass.
    pub(crate) touched: Vec<NodeId>,
    /// Group index per local node, and the flood-fill stack, of
    /// [`component_groups`](crate::newst::component_groups).
    pub(crate) group_of: Vec<u32>,
    pub(crate) flood: Vec<NodeId>,
    /// The render stage's ranking buffers: co-occurrence and "already
    /// listed" per local node, and the rank keys being sorted.
    pub(crate) rank_cooc: Vec<usize>,
    pub(crate) rank_listed: Vec<bool>,
    pub(crate) rank_keys: Vec<RankKey>,
    pub(crate) realloc_retries: u64,
    pub(crate) grow_events: u64,
    /// Cooperative wall-clock budget for the *current* request: the
    /// pipeline checks it between stages and sheds mid-compute once it
    /// passes. Carried here rather than on the request so every
    /// [`PathRequest`](crate::system::PathRequest) construction site stays
    /// untouched; callers set it per request via
    /// [`PipelineScratch::set_deadline`].
    deadline: Option<Instant>,
    /// Span-recording handle for the *current* request, armed per request
    /// exactly like the deadline (and for the same reason: request
    /// construction sites stay untouched). When armed, the pipeline
    /// records one span per stage under the caller's compute span.
    trace: Option<StageTrace>,
}

impl PipelineScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The Steiner kernel's workspace, for callers that run the Steiner solver
    /// directly (e.g. the bench harness).
    pub fn steiner_mut(&mut self) -> &mut SteinerScratch {
        &mut self.steiner
    }

    /// Takes back the buffers of a sub-graph built by
    /// [`SubGraph::build_with`], so the next build reuses them instead of
    /// allocating.  The pipeline does this once the render stage is done
    /// with the sub-graph.
    pub fn recycle_subgraph(&mut self, subgraph: SubGraph) {
        self.subgraph.recycle(subgraph);
    }

    /// Arms (or, with `None`, clears) the cooperative deadline the next
    /// pipeline run checks between stages. The deadline does not reset
    /// itself: a caller serving many requests through one scratch sets it
    /// per request.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Whether the armed deadline (if any) has passed.
    pub(crate) fn deadline_expired(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Arms (or, with `None`, clears) the span-recording handle the next
    /// pipeline run records its per-stage spans into. Like the deadline,
    /// it does not reset itself between requests.
    pub fn set_trace(&mut self, trace: Option<StageTrace>) {
        self.trace = trace;
    }

    /// Records a closed span (started at `started`, ending now) into the
    /// armed trace, if any. No-op when tracing is not armed.
    pub(crate) fn record_span(&self, name: &'static str, started: Instant) {
        if let Some(trace) = &self.trace {
            trace.record(name, started);
        }
    }

    /// Cumulative pipeline work counters (never reset); diff two snapshots
    /// with [`StageCounters::since`] to attribute work to one request.
    pub fn counters(&self) -> StageCounters {
        let s = self.steiner.counters();
        StageCounters {
            steiner_runs: s.runs,
            steiner_paths_expanded: s.paths_expanded,
            steiner_paths_skipped: s.paths_skipped,
            steiner_pruned_leaves: s.pruned_leaves,
            scratch_allocations: s.allocations
                + self.grow_events
                + self.search.allocations()
                + self.subgraph.grow_events(),
            realloc_retries: self.realloc_retries,
        }
    }

    /// Counts one grow event per buffer whose capacity went up, given the
    /// buffers' capacities before and after a stage used them.
    pub(crate) fn note_growth(&mut self, before: &[usize], after: &[usize]) {
        self.grow_events += before.iter().zip(after).filter(|(b, a)| a > b).count() as u64;
    }

    /// Capacities of the render stage's ranking buffers.
    pub(crate) fn rank_capacities(&self) -> [usize; 3] {
        [
            self.rank_cooc.capacity(),
            self.rank_listed.capacity(),
            self.rank_keys.capacity(),
        ]
    }

    /// Prepares the co-occurrence counters for a sub-graph of `n` local
    /// nodes: O(1) generation bump, O(n) buffer growth only on the first
    /// request that needs the larger size.
    pub(crate) fn begin_cooc(&mut self, n: usize) {
        if self.cooc_count.len() < n {
            if self.cooc_count.capacity() < n {
                self.grow_events += 1;
            }
            self.cooc_count.resize(n, 0);
            self.cooc_stamp.resize(n, 0);
        }
        if self.cooc_gen == u32::MAX {
            self.cooc_stamp.fill(0);
            self.cooc_gen = 0;
        }
        self.cooc_gen += 1;
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let scratch = PipelineScratch::new();
        assert_eq!(scratch.counters(), StageCounters::default());
    }

    #[test]
    fn begin_cooc_survives_generation_wraparound() {
        let mut scratch = PipelineScratch::new();
        scratch.begin_cooc(4);
        scratch.cooc_gen = u32::MAX;
        scratch.cooc_stamp.fill(u32::MAX);
        scratch.begin_cooc(4);
        assert_eq!(scratch.cooc_gen, 1);
        assert!(scratch.cooc_stamp.iter().all(|&s| s == 0));
    }

    #[test]
    fn growth_is_counted_once_per_enlargement() {
        let mut scratch = PipelineScratch::new();
        scratch.begin_cooc(8);
        let after_first = scratch.counters().scratch_allocations;
        assert!(after_first > 0);
        scratch.begin_cooc(8);
        scratch.begin_cooc(4);
        assert_eq!(scratch.counters().scratch_allocations, after_first);
        scratch.begin_cooc(64);
        assert!(scratch.counters().scratch_allocations > after_first);
    }
}
