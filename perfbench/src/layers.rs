//! The per-layer metrics of a traced run: the table that names them, the
//! span-tree analysis of `GET /v1/debug/requests`, and timed calls into
//! each layer's public functions.

use crate::load::{mean, quantile, trace_id, Client, Outcome, Sample};
use crate::workload::{distinct_keys, Op, Plan, Workload};
use rpg_repager::stages::{
    ReallocStage, RenderStage, SeedStage, Stage, StageContext, SteinerStage, SubgraphStage,
};
use rpg_repager::{CorpusArtifacts, PipelineScratch, RepagerOutput};
use rpg_server::api::{generate_response_value, GenerateRequest, ResolvedRequest};
use rpg_server::http::{Limits, RequestBuffer};
use rpg_service::CorpusRegistry;
use serde::value::Value;
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric as `(name, unit)`, in `BENCHMARK.json` order.
/// `perfbench/README.md` gives each one's source and the end-to-end metric
/// and workload it should move. A metric that does not apply to a workload
/// reads 0 there (e.g. stage self times on `hit_hot`, whose measured
/// requests run no stage).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_ms", "ms"),
    ("service.artifacts_build_ms", "ms"),
    ("service.warmup_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_lookup_us_p50", "us"),
    ("service.refresh_ms_p50", "ms"),
    ("server.queue_wait_us_p50", "us"),
    ("server.queue_wait_us_p99", "us"),
    ("server.compute_us_p50", "us"),
    ("server.write_us_p50", "us"),
    ("server.unspanned_us_p50", "us"),
    ("server.healthz_us_p50", "us"),
    ("server.http_parse_us", "us"),
    ("server.api_decode_us", "us"),
    ("server.api_render_us", "us"),
    ("server.api_serialize_us", "us"),
    ("server.response_bytes_mean", "bytes"),
    ("server.rejected_share", "ratio"),
    ("repager.seed_us_p50", "us"),
    ("repager.seed_us_p99", "us"),
    ("repager.subgraph_us_p50", "us"),
    ("repager.realloc_us_p50", "us"),
    ("repager.steiner_us_p50", "us"),
    ("repager.render_us_p50", "us"),
    ("repager.seed_direct_us_p50", "us"),
    ("repager.subgraph_direct_us_p50", "us"),
    ("repager.realloc_direct_us_p50", "us"),
    ("repager.steiner_direct_us_p50", "us"),
    ("repager.render_direct_us_p50", "us"),
    ("repager.subgraph_nodes_mean", "count"),
    ("repager.subgraph_edges_mean", "count"),
    ("repager.steiner_paths_expanded_mean", "count"),
    ("repager.scratch_allocations", "count"),
    ("engines.seed_candidates_mean", "count"),
    ("obs.trace_overhead_p50_ms", "ms"),
];

/// The five pipeline stages, in order.
const STAGES: [&str; 5] = ["seed", "subgraph", "realloc", "steiner", "render"];
/// The metric of each stage timed directly, in [`STAGES`] order.
const DIRECT: [&str; 5] = [
    "repager.seed_direct_us_p50",
    "repager.subgraph_direct_us_p50",
    "repager.realloc_direct_us_p50",
    "repager.steiner_direct_us_p50",
    "repager.render_direct_us_p50",
];

/// Per-layer values by name.
pub type Values = HashMap<&'static str, f64>;

/// One span of a traced request, as `/v1/debug/requests` reports it.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name (`queue_wait`, `compute`, `stage:seed`, ...).
    pub name: String,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// Index of the parent span, if nested.
    pub parent: Option<usize>,
}

/// The span tree of one traced request of a pass.
#[derive(Debug, Clone)]
pub struct TracedRequest {
    /// Position of the operation in its pass.
    pub index: usize,
    /// The request's spans.
    pub spans: Vec<SpanRec>,
}

impl TracedRequest {
    /// Summed duration of the spans named `name`; `None` when absent.
    fn duration(&self, name: &str) -> Option<f64> {
        let mut found = None;
        for span in self.spans.iter().filter(|span| span.name == name) {
            *found.get_or_insert(0.0) += span.duration_us;
        }
        found
    }

    /// Self time of the span named `name`: its duration minus the part its
    /// child spans cover. `None` when absent.
    fn self_time(&self, name: &str) -> Option<f64> {
        let index = self.spans.iter().position(|span| span.name == name)?;
        let children: f64 = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(index))
            .map(|span| span.duration_us)
            .sum();
        Some((self.spans[index].duration_us - children).max(0.0))
    }

    /// Whether any pipeline stage ran for this request.
    pub fn ran_stages(&self) -> bool {
        self.spans
            .iter()
            .any(|span| span.name.starts_with("stage:"))
    }
}

/// Fetches `/v1/debug/requests` and returns the span trees of every
/// operation of traced pass `pass`, retrying briefly while the last
/// responses' records are still being pushed.
pub fn collect_traces(
    client: &mut Client,
    pass: usize,
    ops: usize,
) -> Result<Vec<TracedRequest>, String> {
    let ids: HashMap<String, usize> = (0..ops)
        .map(|index| (trace_id(pass, index), index))
        .collect();
    let mut missing = ops;
    for attempt in 0..20 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (response, _) = client.exchange("GET", "/v1/debug/requests", None, &[])?;
        if response.status != 200 {
            return Err(format!("debug/requests status {}", response.status));
        }
        let value: Value = serde_json::from_str(&response.body)
            .map_err(|e| format!("debug/requests body: {e}"))?;
        let mut found: Vec<Option<TracedRequest>> = vec![None; ops];
        for record in value
            .get("requests")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let Some(&index) = record
                .get("trace_id")
                .and_then(Value::as_str)
                .and_then(|id| ids.get(id))
            else {
                continue;
            };
            found[index] = Some(TracedRequest {
                index,
                spans: parse_spans(record),
            });
        }
        missing = found.iter().filter(|found| found.is_none()).count();
        if missing == 0 {
            return Ok(found.into_iter().flatten().collect());
        }
    }
    Err(format!(
        "trace ring is missing {missing} of traced pass {pass}'s {ops} requests"
    ))
}

fn parse_spans(record: &Value) -> Vec<SpanRec> {
    record
        .get("spans")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|span| SpanRec {
            name: span
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            duration_us: span
                .get("duration_us")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            parent: span
                .get("parent")
                .and_then(Value::as_f64)
                .map(|parent| parent as usize),
        })
        .collect()
}

/// Span metrics over the traced generate requests: server time by span,
/// the client latency no span covers, and each stage's self time.
/// `samples` maps `(pass, index)` to the client's sample of that request.
pub fn span_metrics(
    traced: &[(usize, TracedRequest)],
    samples: &HashMap<(usize, usize), &Sample>,
    values: &mut Values,
) {
    let mut queue = Vec::new();
    let mut compute = Vec::new();
    let mut write = Vec::new();
    let mut unspanned = Vec::new();
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    for (pass, request) in traced {
        let Some(sample) = samples.get(&(*pass, request.index)) else {
            continue;
        };
        if !matches!(sample.op, Op::Generate(_)) {
            continue;
        }
        let q = request.duration("queue_wait").unwrap_or(0.0);
        let c = request.duration("compute").unwrap_or(0.0);
        let w = request.duration("response_write").unwrap_or(0.0);
        queue.push(q);
        compute.push(c);
        write.push(w);
        unspanned.push(sample.latency.as_secs_f64() * 1e6 - (q + c + w));
        for (samples, stage) in stages.iter_mut().zip(STAGES) {
            if let Some(us) = request.self_time(&format!("stage:{stage}")) {
                samples.push(us);
            }
        }
    }
    let p = |samples: &mut Vec<f64>, q: f64| quantile(samples, q).unwrap_or(0.0);
    values.insert("server.queue_wait_us_p50", p(&mut queue, 0.5));
    values.insert("server.queue_wait_us_p99", p(&mut queue, 0.99));
    values.insert("server.compute_us_p50", p(&mut compute, 0.5));
    values.insert("server.write_us_p50", p(&mut write, 0.5));
    values.insert("server.unspanned_us_p50", p(&mut unspanned, 0.5));
    let [seed, subgraph, realloc, steiner, render] = &mut stages[..] else {
        unreachable!("five stages");
    };
    values.insert("repager.seed_us_p50", p(seed, 0.5));
    values.insert("repager.seed_us_p99", p(seed, 0.99));
    values.insert("repager.subgraph_us_p50", p(subgraph, 0.5));
    values.insert("repager.realloc_us_p50", p(realloc, 0.5));
    values.insert("repager.steiner_us_p50", p(steiner, 0.5));
    values.insert("repager.render_us_p50", p(render, 0.5));
}

/// Metrics read from the measured responses themselves: body size, the
/// sub-graph shape of each served result, and the work counters of fresh
/// (uncached) runs.
pub fn response_metrics(outputs: &[Arc<RepagerOutput>], samples: &[Sample], values: &mut Values) {
    let mut bytes = Vec::new();
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    let mut expanded = Vec::new();
    let mut allocations = 0.0;
    for sample in samples {
        let (
            Op::Generate(key),
            Outcome::Generated {
                bytes: n, timings, ..
            },
        ) = (sample.op, &sample.outcome)
        else {
            continue;
        };
        bytes.push(*n as f64);
        // The check made `result` byte-identical to the reference, so the
        // reference output's shape is the response's.
        nodes.push(outputs[key].subgraph_nodes as f64);
        edges.push(outputs[key].subgraph_edges as f64);
        if let Some(counters) = timings
            .as_deref()
            .and_then(|t| serde_json::from_str::<Value>(t).ok())
            .and_then(|t| t.get("counters").cloned())
        {
            let counter = |name: &str| counters.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            expanded.push(counter("steiner_paths_expanded"));
            allocations += counter("scratch_allocations");
        }
    }
    values.insert("server.response_bytes_mean", mean(&bytes).unwrap_or(0.0));
    values.insert("repager.subgraph_nodes_mean", mean(&nodes).unwrap_or(0.0));
    values.insert("repager.subgraph_edges_mean", mean(&edges).unwrap_or(0.0));
    values.insert(
        "repager.steiner_paths_expanded_mean",
        mean(&expanded).unwrap_or(0.0),
    );
    values.insert("repager.scratch_allocations", allocations);
}

/// How long each in-process timing loop runs at least.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
/// Distinct keys the cache-lookup and stage timings cover at most.
const PROBE_KEYS: usize = 48;

/// Median per-operation time in microseconds of `sweep`, which performs
/// `ops` operations: sweeps repeat for [`PROBE_BUDGET`] (at least 5).
fn per_op_us(ops: usize, mut sweep: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (started.elapsed() < PROBE_BUDGET && times.len() < 100_000) {
        let t = Instant::now();
        sweep();
        times.push(t.elapsed().as_secs_f64() * 1e6 / ops.max(1) as f64);
    }
    quantile(&mut times, 0.5).unwrap_or(0.0)
}

/// Timed calls into each layer's public functions over the workload's
/// own requests: HTTP parse, request decode, response render and
/// serialization, an in-process cache hit, each pipeline stage, and the
/// seed engine's candidate count.
pub fn probe(
    workload: Workload,
    plan: &Plan,
    ops: &[Op],
    outputs: &[Arc<RepagerOutput>],
    artifacts: Arc<CorpusArtifacts>,
    addr: SocketAddr,
    values: &mut Values,
) -> Result<(), String> {
    let generates: Vec<usize> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Generate(key) => Some(*key),
            Op::Refresh(_) => None,
        })
        .collect();
    let n = generates.len();

    // The exact bytes the load generator writes for each generate.
    let wire: Vec<Vec<u8>> = generates
        .iter()
        .map(|&key| {
            let body = &plan.bodies[key];
            format!(
                "POST /v1/generate HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let limits = Limits::default();
    let mut buffer = RequestBuffer::new();
    values.insert(
        "server.http_parse_us",
        per_op_us(n, || {
            for bytes in &wire {
                buffer
                    .read_from(&mut bytes.as_slice())
                    .expect("reading from a slice cannot fail");
                black_box(buffer.try_parse(&limits, || {}).expect("request parses"));
            }
        }),
    );
    values.insert(
        "server.api_decode_us",
        per_op_us(n, || {
            for &key in &generates {
                let dto: GenerateRequest =
                    serde_json::from_str(black_box(&plan.bodies[key])).expect("body decodes");
                black_box(ResolvedRequest::resolve(&dto).expect("body resolves"));
            }
        }),
    );
    let served: Vec<(&str, &RepagerOutput)> = generates
        .iter()
        .map(|&key| (plan.keys[key].tenant, outputs[key].as_ref()))
        .collect();
    values.insert(
        "server.api_render_us",
        per_op_us(n, || {
            for &(tenant, output) in &served {
                black_box(generate_response_value(tenant, output, true));
            }
        }),
    );
    let rendered: Vec<Value> = served
        .iter()
        .map(|&(tenant, output)| generate_response_value(tenant, output, true))
        .collect();
    values.insert(
        "server.api_serialize_us",
        per_op_us(n, || {
            for value in &rendered {
                black_box(serde_json::to_string(value).expect("response serialises"));
            }
        }),
    );

    // A cached `CorpusRegistry::generate`, per call.
    let keys: Vec<usize> = distinct_keys(ops).into_iter().take(PROBE_KEYS).collect();
    let registry = CorpusRegistry::new();
    for tenant in workload.tenants() {
        registry.register_artifacts(*tenant, artifacts.clone());
    }
    let resolved: Vec<(&str, ResolvedRequest)> = keys
        .iter()
        .map(|&key| {
            let dto: GenerateRequest =
                serde_json::from_str(&plan.bodies[key]).map_err(|e| e.to_string())?;
            let resolved = ResolvedRequest::resolve(&dto).map_err(|e| e.message)?;
            Ok((plan.keys[key].tenant, resolved))
        })
        .collect::<Result<_, String>>()?;
    for (tenant, request) in &resolved {
        registry
            .generate(tenant, &request.as_path_request())
            .map_err(|e| e.to_string())?;
    }
    let mut lookups = Vec::new();
    let started = Instant::now();
    while lookups.len() < 5 * resolved.len() || started.elapsed() < PROBE_BUDGET {
        for (tenant, request) in &resolved {
            let request = request.as_path_request();
            let t = Instant::now();
            let served = registry
                .generate(tenant, &request)
                .map_err(|e| e.to_string())?;
            lookups.push(t.elapsed().as_secs_f64() * 1e6);
            if !served.cached {
                return Err("in-process cache lookup missed".to_string());
            }
        }
    }
    values.insert(
        "service.cache_lookup_us_p50",
        quantile(&mut lookups, 0.5).unwrap_or(0.0),
    );

    // Each stage's `run`, through a `StageContext`, per request.
    let mut scratch = PipelineScratch::new();
    let mut stage_us: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    for (round, (_, request)) in resolved.iter().take(4).chain(&resolved).enumerate() {
        let times = time_stages(&artifacts, request, &mut scratch)?;
        // The first four runs only warm the scratch.
        if round >= 4.min(resolved.len()) {
            for (samples, us) in stage_us.iter_mut().zip(times) {
                samples.push(us);
            }
        }
    }
    for (samples, name) in stage_us.iter_mut().zip(DIRECT) {
        values.insert(name, quantile(samples, 0.5).unwrap_or(0.0));
    }

    // The seed engine's disjunctive candidate set over the op mix.
    let mut candidates: HashMap<usize, f64> = HashMap::new();
    let counts: Vec<f64> = generates
        .iter()
        .map(|&key| {
            let query = plan.keys[key].query;
            *candidates.entry(query).or_insert_with(|| {
                let dto: GenerateRequest =
                    serde_json::from_str(&plan.bodies[key]).expect("body decodes");
                artifacts
                    .index()
                    .inverted()
                    .disjunctive_candidates(&dto.query)
                    .len() as f64
            })
        })
        .collect();
    values.insert("engines.seed_candidates_mean", mean(&counts).unwrap_or(0.0));
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times the five stages of one request, in microseconds.
fn time_stages(
    artifacts: &CorpusArtifacts,
    resolved: &ResolvedRequest,
    scratch: &mut PipelineScratch,
) -> Result<[f64; 5], String> {
    let request = resolved.as_path_request();
    request.config.validate().map_err(err)?;
    let mut cx = StageContext {
        corpus: artifacts.corpus(),
        scholar: artifacts.scholar(),
        node_weights: artifacts.node_weights(),
        request: &request,
        config: request.variant.apply(request.config),
        scratch,
    };
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let seeds = SeedStage.run(&mut cx, ()).map_err(err)?;
    let seed = us(t);
    let t = Instant::now();
    let subgraph = SubgraphStage.run(&mut cx, seeds).map_err(err)?;
    let sub = us(t);
    let t = Instant::now();
    let realloc = ReallocStage.run(&mut cx, subgraph).map_err(err)?;
    let re = us(t);
    let t = Instant::now();
    let steiner = SteinerStage.run(&mut cx, realloc).map_err(err)?;
    let st = us(t);
    let t = Instant::now();
    black_box(RenderStage.run(&mut cx, steiner).map_err(err)?);
    let render = us(t);
    Ok([seed, sub, re, st, render])
}

/// `(name, value, unit)` of every per-layer metric, in table order.
pub fn ordered(values: &Values) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"));
            (name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let value: Value = serde_json::from_str(&text).unwrap();
        let listed: Vec<(String, String)> = value
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let table: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name: &str, duration_us: f64, parent: Option<usize>| SpanRec {
            name: name.to_string(),
            duration_us,
            parent,
        };
        let request = TracedRequest {
            index: 0,
            spans: vec![
                span("queue_wait", 5.0, None),
                span("compute", 100.0, None),
                span("stage:seed", 60.0, Some(1)),
                span("stage:steiner", 30.0, Some(1)),
                span("response_write", 7.0, None),
            ],
        };
        assert_eq!(request.self_time("compute"), Some(10.0));
        assert_eq!(request.self_time("stage:seed"), Some(60.0));
        assert_eq!(request.duration("queue_wait"), Some(5.0));
        assert_eq!(request.duration("cache_hit"), None);
        assert!(request.ran_stages());
    }
}
