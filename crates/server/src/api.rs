//! The JSON API surface: request DTOs and the canonical response encoding.
//!
//! [`output_result_value`] is *the* encoding of a pipeline result. The
//! integration suite drives the same function over a direct
//! `CorpusArtifacts::generate` output and asserts byte-identical JSON against
//! the server's `result` field, so the HTTP layer provably adds nothing and
//! loses nothing.
//!
//! Determinism matters here: everything emitted is either an ordered
//! `Vec`-backed structure or explicitly sorted (the co-occurrence map is a
//! `HashMap` upstream and is emitted sorted by paper id).
//!
//! The server does not re-encode a cached result on every hit: it encodes
//! the cache-independent [`encode_result_tail`] once per cache entry and
//! splices it behind a per-request head ([`splice_generate_body`]). The
//! tests pin the spliced bytes to [`generate_response_value`] serialized,
//! which stays the reference encoding.

use rpg_corpus::PaperId;
use rpg_repager::stages::StageTimings;
use rpg_repager::system::{PathRequest, RepagerOutput};
use rpg_repager::{RepagerConfig, Variant};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Default reading-list length when a request omits `top_k`.
pub const DEFAULT_TOP_K: usize = 30;

/// Hard cap on `/v1/batch` fan-out, so one request body cannot queue
/// unbounded work behind one worker.
pub const MAX_BATCH: usize = 256;

/// Body of `POST /v1/generate` (and each element of `POST /v1/batch`).
///
/// Only `query` is required; everything else falls back to the service
/// defaults. `corpus` routes to a registry tenant and defaults to the
/// server's configured default corpus.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GenerateRequest {
    /// The research topic (key phrases joined by spaces).
    pub query: String,
    /// Reading-list length (default 30).
    pub top_k: Option<usize>,
    /// Only papers published in or before this year.
    pub max_year: Option<u16>,
    /// The corpus tenant to query (default corpus when omitted).
    pub corpus: Option<String>,
    /// Model variant by paper-table name (`"NEWST"`, `"NEWST-C"`, ...).
    pub variant: Option<String>,
    /// Number of initial seed papers.
    pub seed_count: Option<usize>,
    /// Paper ids excluded from every stage.
    pub exclude: Option<Vec<u32>>,
}

impl GenerateRequest {
    /// The tenant this request is admitted (and billed) under: its own
    /// `corpus` field, or the server's default corpus.
    pub fn tenant<'a>(&'a self, default: &'a str) -> &'a str {
        self.corpus.as_deref().unwrap_or(default)
    }
}

/// Body of `POST /v1/batch`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// The requests to serve; results come back in the same order.
    pub requests: Vec<GenerateRequest>,
}

impl BatchRequest {
    /// The tenant a whole batch is admitted under: the corpus *all* items
    /// agree on, or the default corpus for an empty or mixed-corpus batch.
    /// Mixed batches must not be billable to whichever tenant happens to be
    /// named first — that would let one client drain another tenant's
    /// queue budget. (Tenant identity is the self-declared `corpus` field,
    /// so attribution is advisory until requests carry authenticated
    /// principals; the fallback at least keeps it deterministic.)
    pub fn tenant<'a>(&'a self, default: &'a str) -> &'a str {
        let mut tenants = self.requests.iter().map(|r| r.tenant(default));
        match tenants.next() {
            Some(first) if tenants.all(|t| t == first) => first,
            _ => default,
        }
    }
}

/// Body of `PATCH /v1/admin/tenants/:name`: the runtime-retunable knobs of
/// one tenant's fair-queue lane. Omitted fields are left unchanged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantPatch {
    /// New deficit-round-robin weight (≥ 1).
    pub weight: Option<u64>,
    /// New per-tenant admission-queue bound (≥ 1).
    pub queue: Option<usize>,
    /// New in-flight compute cap (≥ 1).
    pub inflight: Option<usize>,
    /// New deadline budget in milliseconds (≥ 1).
    pub deadline_ms: Option<u64>,
    /// New slow-request exemplar threshold in milliseconds (0 retains an
    /// exemplar for every request).
    pub trace_slow_ms: Option<u64>,
}

/// A request-level problem discovered while interpreting a DTO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status to answer with.
    pub status: u16,
    /// Human-readable explanation, returned as `{"error": ...}`.
    pub message: String,
}

impl ApiError {
    /// A 400 with a message.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }

    /// The `{"error": ...}` body for this error.
    pub fn body(&self) -> String {
        error_body(&self.message)
    }
}

/// The per-item error encoding inside a `/v1/batch` response: items that
/// fail (validation, unknown corpus, per-tenant throttling) carry an
/// `error`/`status` object in their result slot while the surrounding
/// batch still answers `200`.
pub fn item_error_value(status: u16, message: &str) -> Value {
    Value::Object(vec![
        ("error".to_string(), Value::String(message.to_string())),
        ("status".to_string(), Value::Number(f64::from(status))),
    ])
}

/// [`item_error_value`], encoded.
pub fn item_error_body(status: u16, message: &str) -> String {
    serde_json::to_string(&item_error_value(status, message)).expect("item error serialises")
}

/// Renders `{"error": message}` (shared by every error response).
pub fn error_body(message: &str) -> String {
    serde_json::to_string(&Value::Object(vec![(
        "error".to_string(),
        Value::String(message.to_string()),
    )]))
    .expect("error body serialises")
}

/// The owned pieces of a validated request that a [`PathRequest`] borrows.
#[derive(Debug, Clone)]
pub struct ResolvedRequest {
    /// The query text.
    pub query: String,
    /// Flattened reading-list length.
    pub top_k: usize,
    /// Year cut-off.
    pub max_year: Option<u16>,
    /// Excluded papers.
    pub exclude: Vec<PaperId>,
    /// Model parameters.
    pub config: RepagerConfig,
    /// Model variant.
    pub variant: Variant,
}

impl ResolvedRequest {
    /// Validates a DTO into owned request parts.
    pub fn resolve(dto: &GenerateRequest) -> Result<Self, ApiError> {
        let variant = match dto.variant.as_deref() {
            None => Variant::Newst,
            Some(name) => Variant::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
                ApiError::bad_request(format!(
                    "unknown variant {name:?}; expected one of {}",
                    known.join(", ")
                ))
            })?,
        };
        let mut config = RepagerConfig::default();
        if let Some(seed_count) = dto.seed_count {
            config = config.with_seed_count(seed_count);
        }
        Ok(ResolvedRequest {
            query: dto.query.clone(),
            top_k: dto.top_k.unwrap_or(DEFAULT_TOP_K),
            max_year: dto.max_year,
            exclude: dto
                .exclude
                .iter()
                .flatten()
                .map(|&id| PaperId(id))
                .collect(),
            config,
            variant,
        })
    }

    /// The borrowing pipeline request over this resolved data.
    pub fn as_path_request(&self) -> PathRequest<'_> {
        PathRequest {
            query: &self.query,
            top_k: self.top_k,
            max_year: self.max_year,
            exclude: &self.exclude,
            config: self.config,
            variant: self.variant,
        }
    }
}

/// The canonical, deterministic JSON encoding of a pipeline result.
///
/// Excludes wall-clock timings (they never repeat) so that two runs of the
/// same request encode to byte-identical JSON.
pub fn output_result_value(output: &RepagerOutput) -> Value {
    let mut cooccurrence: Vec<(PaperId, usize)> = output
        .seeds
        .cooccurrence
        .iter()
        .map(|(&paper, &count)| (paper, count))
        .collect();
    cooccurrence.sort_unstable();
    Value::Object(vec![
        ("reading_list".to_string(), output.reading_list.to_value()),
        ("path".to_string(), output.path.to_value()),
        (
            "seeds".to_string(),
            Value::Object(vec![
                ("initial".to_string(), output.seeds.initial.to_value()),
                (
                    "reallocated".to_string(),
                    output.seeds.reallocated.to_value(),
                ),
                (
                    "cooccurrence".to_string(),
                    Value::Array(
                        cooccurrence
                            .into_iter()
                            .map(|(paper, count)| {
                                Value::Object(vec![
                                    ("paper".to_string(), paper.to_value()),
                                    ("count".to_string(), Value::Number(count as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "subgraph_nodes".to_string(),
            Value::Number(output.subgraph_nodes as f64),
        ),
        (
            "subgraph_edges".to_string(),
            Value::Number(output.subgraph_edges as f64),
        ),
    ])
}

/// Per-stage wall-clock times in integer microseconds, plus the run's work
/// counters (Steiner solves, lazy-path bookkeeping, scratch allocations,
/// realloc retries) under a nested `counters` object.
pub fn timings_value(timings: &StageTimings) -> Value {
    let mut fields: Vec<(String, Value)> = timings
        .stages()
        .iter()
        .map(|(name, duration)| {
            (
                format!("{name}_us"),
                Value::Number(duration.as_micros() as f64),
            )
        })
        .collect();
    fields.push((
        "total_us".to_string(),
        Value::Number(timings.total.as_micros() as f64),
    ));
    fields.push((
        "counters".to_string(),
        Value::Object(
            timings
                .counters
                .fields()
                .iter()
                .map(|&(name, value)| (name.to_string(), Value::Number(value as f64)))
                .collect(),
        ),
    ));
    Value::Object(fields)
}

/// The full `POST /v1/generate` response body.
pub fn generate_response_value(corpus: &str, output: &RepagerOutput, cached: bool) -> Value {
    Value::Object(vec![
        ("corpus".to_string(), Value::String(corpus.to_string())),
        ("cached".to_string(), Value::Bool(cached)),
        ("result".to_string(), output_result_value(output)),
        ("timings".to_string(), timings_value(&output.timings)),
    ])
}

/// The part of an encoded [`generate_response_value`] that depends only on
/// the output: `"result":…,"timings":…}`. A cache hit's `timings` describe
/// the run that populated the entry, so one encoding serves every hit.
pub fn encode_result_tail(output: &RepagerOutput) -> Box<str> {
    let result = serde_json::to_string(&output_result_value(output)).expect("result serialises");
    let timings =
        serde_json::to_string(&timings_value(&output.timings)).expect("timings serialise");
    format!("\"result\":{result},\"timings\":{timings}}}").into_boxed_str()
}

/// A `POST /v1/generate` body from its encoded tail: byte-identical to
/// `serde_json::to_string(&generate_response_value(corpus, output, cached))`
/// when `tail` is `encode_result_tail(output)`.
pub fn splice_generate_body(corpus: &str, cached: bool, tail: &str) -> String {
    let corpus = serde_json::to_string(&corpus).expect("corpus name serialises");
    let mut body = String::with_capacity(corpus.len() + tail.len() + 28);
    body.push_str("{\"corpus\":");
    body.push_str(&corpus);
    body.push_str(if cached {
        ",\"cached\":true,"
    } else {
        ",\"cached\":false,"
    });
    body.push_str(tail);
    body
}

/// The `POST /v1/batch` body from its encoded items, in order.
pub fn batch_body<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    let mut body = String::from("{\"results\":[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(item);
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_request_parses_with_defaults() {
        let dto: GenerateRequest =
            serde_json::from_str(r#"{"query": "graph neural networks"}"#).unwrap();
        assert_eq!(dto.query, "graph neural networks");
        assert_eq!(dto.top_k, None);
        let resolved = ResolvedRequest::resolve(&dto).unwrap();
        assert_eq!(resolved.top_k, DEFAULT_TOP_K);
        assert_eq!(resolved.variant, Variant::Newst);
        assert!(resolved.exclude.is_empty());
        let request = resolved.as_path_request();
        assert_eq!(request.query, "graph neural networks");
    }

    #[test]
    fn generate_request_parses_every_field() {
        let dto: GenerateRequest = serde_json::from_str(
            r#"{"query": "q", "top_k": 7, "max_year": 2015, "corpus": "aux",
                "variant": "newst-c", "seed_count": 12, "exclude": [3, 9]}"#,
        )
        .unwrap();
        let resolved = ResolvedRequest::resolve(&dto).unwrap();
        assert_eq!(resolved.top_k, 7);
        assert_eq!(resolved.max_year, Some(2015));
        assert_eq!(resolved.variant, Variant::CandidatesOnly);
        assert_eq!(resolved.config.seed_count, 12);
        assert_eq!(resolved.exclude, vec![PaperId(3), PaperId(9)]);
        assert_eq!(dto.corpus.as_deref(), Some("aux"));
    }

    #[test]
    fn unknown_variant_is_a_400() {
        let dto: GenerateRequest =
            serde_json::from_str(r#"{"query": "q", "variant": "steiner"}"#).unwrap();
        let err = ResolvedRequest::resolve(&dto).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("steiner"));
        assert!(err.body().starts_with(r#"{"error":"#));
    }

    #[test]
    fn missing_query_fails_to_parse() {
        assert!(serde_json::from_str::<GenerateRequest>(r#"{"top_k": 5}"#).is_err());
        assert!(serde_json::from_str::<GenerateRequest>("[]").is_err());
        assert!(serde_json::from_str::<GenerateRequest>("not json").is_err());
    }

    #[test]
    fn admission_tenant_falls_back_to_the_default() {
        let dto: GenerateRequest = serde_json::from_str(r#"{"query": "q"}"#).unwrap();
        assert_eq!(dto.tenant("default"), "default");
        let dto: GenerateRequest =
            serde_json::from_str(r#"{"query": "q", "corpus": "aux"}"#).unwrap();
        assert_eq!(dto.tenant("default"), "aux");

        let batch: BatchRequest = serde_json::from_str(r#"{"requests": []}"#).unwrap();
        assert_eq!(batch.tenant("default"), "default");
        let batch: BatchRequest = serde_json::from_str(
            r#"{"requests": [{"query": "a", "corpus": "aux"}, {"query": "b", "corpus": "aux"}]}"#,
        )
        .unwrap();
        assert_eq!(batch.tenant("default"), "aux");
        // A mixed-corpus batch is billed to the default tenant, never to
        // whichever tenant is named first.
        let mixed: BatchRequest = serde_json::from_str(
            r#"{"requests": [{"query": "a", "corpus": "aux"}, {"query": "b"}]}"#,
        )
        .unwrap();
        assert_eq!(mixed.tenant("default"), "default");
    }

    #[test]
    fn batch_request_parses() {
        let batch: BatchRequest =
            serde_json::from_str(r#"{"requests": [{"query": "a"}, {"query": "b", "top_k": 3}]}"#)
                .unwrap();
        assert_eq!(batch.requests.len(), 2);
        assert_eq!(batch.requests[1].top_k, Some(3));
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(
            error_body("queue full"),
            r#"{"error":"queue full"}"#.to_string()
        );
    }

    #[test]
    fn timings_render_in_microseconds() {
        let timings = StageTimings {
            seed: std::time::Duration::from_micros(10),
            total: std::time::Duration::from_micros(99),
            ..Default::default()
        };
        let value = timings_value(&timings);
        assert_eq!(value.get("seed_us").and_then(Value::as_f64), Some(10.0));
        assert_eq!(value.get("total_us").and_then(Value::as_f64), Some(99.0));
        assert_eq!(value.get("render_us").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn timings_carry_work_counters() {
        let timings = StageTimings {
            counters: rpg_repager::StageCounters {
                steiner_runs: 2,
                steiner_paths_skipped: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        let value = timings_value(&timings);
        let counters = value.get("counters").expect("counters object present");
        assert_eq!(
            counters.get("steiner_runs").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            counters
                .get("steiner_paths_skipped")
                .and_then(Value::as_f64),
            Some(7.0)
        );
        assert_eq!(
            counters.get("scratch_allocations").and_then(Value::as_f64),
            Some(0.0)
        );
    }
}
