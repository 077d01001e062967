//! Set-up: corpus, artifacts, server, first healthz, warm-up pass — and the
//! in-process reference results every response is checked against.

use crate::load::{Client, Measured, Phase};
use crate::workload::{Plan, SurveyQuery, Workload};
use rpg_corpus::{Corpus, CorpusConfig};
use rpg_repager::RepagerOutput;
use rpg_server::api::{output_result_value, GenerateRequest, ResolvedRequest};
use rpg_server::{Server, ServerConfig};
use rpg_service::CorpusRegistry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compute workers of the server under test.
pub const WORKERS: usize = 2;
/// How long set-up waits for the first healthz 200.
const HEALTHZ_DEADLINE: Duration = Duration::from_secs(10);

/// The `rpg serve` default corpus: the small configuration, seed 0xDE40.
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        seed: 0xDE40,
        ..CorpusConfig::small()
    }
}

/// The survey-bank queries of a corpus.
pub fn survey_queries(corpus: &Corpus) -> Vec<SurveyQuery> {
    corpus
        .survey_bank()
        .surveys
        .iter()
        .map(|survey| SurveyQuery {
            text: survey.query.clone(),
            year: survey.year,
        })
        .collect()
}

/// `ServerConfig::default()` with two workers. A traced server retains
/// every request's span tree (`trace_slow_ms` 0) in a ring of
/// `trace_ring` entries; an untraced one records no spans at all.
pub fn server_config(trace_ring: Option<usize>) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        trace_slow_ms: 0,
        trace_log_capacity: trace_ring.unwrap_or(0),
        ..ServerConfig::default()
    }
}

/// Wall time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// `rpg_corpus::generate`.
    pub generate: Duration,
    /// `CorpusRegistry::register` (the artifact build).
    pub build: Duration,
    /// `Server::spawn` up to the first healthz 200.
    pub spawn: Duration,
    /// The warm-up pass.
    pub warmup: Duration,
}

impl SetupTiming {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.generate + self.build + self.spawn + self.warmup
    }
}

/// A running server, warmed up, with its load-generator clients.
pub struct Fixture {
    /// Clients; declared before the server so they close first on drop.
    pub clients: Vec<Client>,
    /// The server under test.
    pub server: Server,
    /// What set-up cost.
    pub timing: SetupTiming,
    /// The warm-up pass.
    pub warmup: Measured,
    /// Health checks made while waiting for the server.
    pub healthz: crate::load::Tally,
}

/// Builds everything a user pays for before the first measured request.
pub fn set_up(
    workload: Workload,
    warmup: Phase<'_>,
    trace_ring: Option<usize>,
) -> Result<Fixture, String> {
    let mut timing = SetupTiming::default();
    let started = Instant::now();
    let corpus = rpg_corpus::generate(&corpus_config());
    timing.generate = started.elapsed();

    let started = Instant::now();
    let registry = Arc::new(CorpusRegistry::with_cache_capacity(
        workload.cache_capacity(),
    ));
    let tenants = workload.tenants();
    registry
        .register(tenants[0], corpus)
        .map_err(|e| format!("artifact build failed: {e}"))?;
    let artifacts = registry
        .artifacts(tenants[0])
        .expect("tenant registered above");
    for tenant in &tenants[1..] {
        registry.register_artifacts(*tenant, artifacts.clone());
    }
    for &(tenant, share) in workload.cache_shares() {
        if !registry.set_cache_share(tenant, Some(share)) {
            return Err(format!("cannot set cache share of {tenant}"));
        }
    }
    timing.build = started.elapsed();

    let started = Instant::now();
    let server = Server::spawn(registry, server_config(trace_ring))
        .map_err(|e| format!("server spawn failed: {e}"))?;
    let mut clients = Client::fleet(server.addr());
    let mut healthz = crate::load::Tally::default();
    loop {
        let result = clients[0]
            .exchange("GET", "/v1/healthz", None, &[])
            .and_then(|(response, _)| match response.status {
                200 => Ok(()),
                status => Err(format!("healthz status {status}")),
            });
        let up = result.is_ok();
        healthz.add_one(result);
        if up {
            break;
        }
        if started.elapsed() > HEALTHZ_DEADLINE {
            return Err("server never answered healthz 200".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    timing.spawn = started.elapsed();

    let started = Instant::now();
    let mut warmed = Measured::from_pass(0);
    warmed.run(&mut clients, warmup, 0.0, 0, |_, _, _| {});
    timing.warmup = started.elapsed();
    Ok(Fixture {
        clients,
        server,
        timing,
        warmup: warmed,
        healthz,
    })
}

/// The in-process reference answer of every key, computed once on a
/// cache-free registry over the same corpus.
pub struct Reference {
    /// The pipeline output per key.
    pub outputs: Vec<Arc<RepagerOutput>>,
    /// Serialized `output_result_value` per key.
    pub results: Vec<String>,
}

impl Reference {
    /// Runs every distinct request through `CorpusRegistry::generate`
    /// in-process, on [`WORKERS`] threads. Every tenant serves the same
    /// corpus, so keys that differ only in tenant share one answer.
    pub fn compute(corpus: Corpus, plan: &Plan) -> Result<Reference, String> {
        let registry = CorpusRegistry::with_cache_capacity(0);
        registry
            .register("reference", corpus)
            .map_err(|e| format!("reference artifact build failed: {e}"))?;
        let mut first_of: HashMap<(usize, usize), usize> = HashMap::new();
        for (key, k) in plan.keys.iter().enumerate() {
            first_of.entry((k.query, k.top_k)).or_insert(key);
        }
        let distinct: Vec<usize> = first_of.values().copied().collect();
        let chunk = distinct.len().div_ceil(WORKERS).max(1);
        let computed: HashMap<usize, Arc<RepagerOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .chunks(chunk)
                .map(|keys| {
                    let registry = &registry;
                    scope.spawn(move || {
                        keys.iter()
                            .map(|&key| {
                                Ok((key, generate(registry, "reference", &plan.bodies[key])?))
                            })
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("reference thread panicked"))
                .collect::<Result<Vec<_>, String>>()
                .map(|parts| parts.into_iter().flatten().collect())
        })?;
        let outputs: Vec<Arc<RepagerOutput>> = plan
            .keys
            .iter()
            .map(|k| computed[&first_of[&(k.query, k.top_k)]].clone())
            .collect();
        let results = outputs
            .iter()
            .map(|output| {
                serde_json::to_string(&output_result_value(output))
                    .map_err(|e| format!("reference result does not serialise: {e}"))
            })
            .collect::<Result<_, String>>()?;
        Ok(Reference { outputs, results })
    }
}

/// Decodes a request body the way the server does and serves it through
/// `registry` under `tenant`.
pub fn generate(
    registry: &CorpusRegistry,
    tenant: &str,
    body: &str,
) -> Result<Arc<RepagerOutput>, String> {
    let dto: GenerateRequest =
        serde_json::from_str(body).map_err(|e| format!("bad body {body}: {e:?}"))?;
    let resolved = ResolvedRequest::resolve(&dto).map_err(|e| e.message)?;
    registry
        .generate(tenant, &resolved.as_path_request())
        .map(|served| served.output)
        .map_err(|e| format!("in-process generate failed for {body}: {e}"))
}

/// The response prefix up to the `cached` flag, per key.
pub fn response_heads(plan: &Plan) -> Vec<String> {
    plan.keys
        .iter()
        .map(|key| {
            let tenant =
                serde_json::to_string(&serde::value::Value::String(key.tenant.to_string()))
                    .expect("tenant name serialises");
            format!("{{\"corpus\":{tenant},\"cached\":")
        })
        .collect()
}
