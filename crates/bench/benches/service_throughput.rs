//! Throughput of the `rpg-service` serving layer: serial single requests vs.
//! batched fan-out over worker threads, plus the cost of a registry cache
//! hit.
//!
//! The workload is the demo corpus's benchmark survey queries — the same
//! requests the evaluation loop issues — so the numbers reflect the shape of
//! real query traffic. The batch/serial pair measures the same request set
//! through `CorpusArtifacts::generate` (serial loop, one thread) and
//! `parallel::fan_out` over `generate_with_scratch` (all cores), which is
//! the speedup the serving layer exists to provide. `cache_hit` times a
//! `CorpusRegistry::generate` hit, the cache the server answers from.
//!
//! The loopback group drives the same requests end-to-end through the
//! `rpg-server` HTTP front end (TCP connect + JSON encode/decode + worker
//! pool), so the protocol overhead over in-process calls is directly
//! observable — on the hit path (`http_cache_hit`) it is almost pure
//! overhead, on the miss path (`http_uncached`) it amortises against the
//! pipeline. The `http_cache_hit_persistent` variant reuses one keep-alive
//! connection for every request, isolating the per-exchange TCP setup cost
//! that the close-per-exchange path (`http_cache_hit`) pays each time.

use criterion::{criterion_group, criterion_main, Criterion};
use rpg_bench::micro_corpus;
use rpg_repager::system::PathRequest;
use rpg_repager::{CorpusArtifacts, PipelineScratch};
use rpg_server::{client, Server, ServerConfig};
use rpg_service::{default_threads, parallel, CorpusRegistry};
use std::sync::Arc;

/// Runs every request once, fanned out over `threads` workers that each
/// reuse one pipeline workspace; returns the summed reading-list lengths.
fn generate_batch(
    artifacts: &CorpusArtifacts,
    requests: &[PathRequest<'_>],
    threads: usize,
) -> usize {
    parallel::fan_out(
        requests.len(),
        threads,
        PipelineScratch::new,
        |scratch, i| {
            artifacts
                .generate_with_scratch(&requests[i], scratch)
                .unwrap()
                .reading_list
                .len()
        },
    )
    .into_iter()
    .sum()
}

fn service_throughput(c: &mut Criterion) {
    let corpus = micro_corpus();
    let artifacts = CorpusArtifacts::build(corpus).expect("corpus artifacts build");
    let surveys: Vec<(String, u16)> = artifacts
        .corpus()
        .survey_bank()
        .iter()
        .take(12)
        .map(|s| (s.query.clone(), s.year))
        .collect();
    let requests: Vec<PathRequest<'_>> = surveys
        .iter()
        .map(|(query, year)| PathRequest {
            max_year: Some(*year),
            ..PathRequest::new(query, 30)
        })
        .collect();
    let threads = default_threads();
    println!(
        "\nservice throughput instance: {} survey queries, {} worker threads",
        requests.len(),
        threads
    );

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);

    group.bench_function("serial_uncached", |b| {
        b.iter(|| {
            requests
                .iter()
                .map(|r| artifacts.generate(r).unwrap().reading_list.len())
                .sum::<usize>()
        })
    });

    group.bench_function("batch_all_cores", |b| {
        b.iter(|| generate_batch(&artifacts, &requests, threads))
    });

    // Warm the registry cache once, then measure pure hit latency.
    let registry = CorpusRegistry::new();
    registry.register_artifacts("default", artifacts.clone());
    let warm = &requests[0];
    registry.generate("default", warm).unwrap();
    group.bench_function("cache_hit", |b| {
        b.iter(|| {
            registry
                .generate("default", warm)
                .unwrap()
                .output
                .reading_list
                .len()
        })
    });

    group.finish();

    // A quick self-check outside the timed region: batching must beat the
    // serial loop on multi-core hosts (informational, not an assertion, so a
    // loaded CI box cannot flake the bench run).
    let serial_started = std::time::Instant::now();
    for request in &requests {
        let _ = artifacts.generate(request).unwrap();
    }
    let serial = serial_started.elapsed();
    let batch_started = std::time::Instant::now();
    let _ = generate_batch(&artifacts, &requests, threads);
    let batch = batch_started.elapsed();
    println!(
        "serial {} queries: {serial:?}; batch over {threads} threads: {batch:?} ({:.2}x)",
        requests.len(),
        serial.as_secs_f64() / batch.as_secs_f64().max(1e-9),
    );
}

/// End-to-end over loopback HTTP: the same survey queries through
/// `rpg-server`, both one TCP connection per request (the old
/// `Connection: close` model, still available to clients that ask for it)
/// and many requests per persistent keep-alive connection.
fn http_loopback(c: &mut Criterion) {
    // One corpus, one artifacts build, shared by both registries (the
    // second registry has caching disabled to isolate the miss path).
    let corpus = micro_corpus();
    let artifacts = CorpusArtifacts::build(corpus.clone()).expect("artifacts build");
    let registry = Arc::new(CorpusRegistry::new());
    registry.register_artifacts("default", artifacts.clone());
    let uncached_registry = Arc::new(CorpusRegistry::with_cache_capacity(0));
    uncached_registry.register_artifacts("default", artifacts);
    let server = Server::spawn(
        registry,
        ServerConfig {
            workers: default_threads(),
            queue_capacity: 64,
            // Criterion decides the iteration counts and pauses between
            // samples, so the persistent variant must not trip the
            // per-connection budget or the idle reaper mid-measurement.
            max_requests_per_connection: usize::MAX,
            idle_timeout: std::time::Duration::from_secs(300),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let uncached_server = Server::spawn(
        uncached_registry,
        ServerConfig {
            workers: default_threads(),
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");

    let bodies: Vec<String> = corpus
        .survey_bank()
        .iter()
        .take(12)
        .map(|s| {
            format!(
                r#"{{"query": {:?}, "max_year": {}, "top_k": 30}}"#,
                s.query, s.year
            )
        })
        .collect();
    println!(
        "\nhttp loopback instance: {} survey queries against http://{}",
        bodies.len(),
        server.addr()
    );

    let mut group = c.benchmark_group("http_loopback");
    group.sample_size(10);

    // Warm the cache so this measures protocol overhead on the hit path.
    for body in &bodies {
        let response = client::post_json(server.addr(), "/v1/generate", body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }
    group.bench_function("http_cache_hit", |b| {
        let mut next = 0usize;
        b.iter(|| {
            let body = &bodies[next % bodies.len()];
            next += 1;
            let response = client::post_json(server.addr(), "/v1/generate", body).unwrap();
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });

    // The same cache-hit workload over pooled persistent connections: the
    // delta to `http_cache_hit` is the per-request connection setup.
    let pool = client::Pool::new(server.addr());
    group.bench_function("http_cache_hit_persistent", |b| {
        let mut next = 0usize;
        b.iter(|| {
            let body = &bodies[next % bodies.len()];
            next += 1;
            let response = pool.post_json("/v1/generate", body).unwrap();
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });

    // The same exchange while 256 idle keep-alive connections sit parked
    // on the event loops: the delta to `http_cache_hit_persistent` is what
    // an idle connection costs the active path (under the poll-based
    // loops it should be noise — idle sockets are slot-table entries, not
    // threads).
    let parked: Vec<client::Conn> = (0..256)
        .map(|_| client::Conn::connect(server.addr()).expect("parked connection opens"))
        .collect();
    group.bench_function("http_cache_hit_with_256_idle_conns", |b| {
        let mut next = 0usize;
        b.iter(|| {
            let body = &bodies[next % bodies.len()];
            next += 1;
            let response = pool.post_json("/v1/generate", body).unwrap();
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    drop(parked);

    group.bench_function("http_uncached", |b| {
        let mut next = 0usize;
        b.iter(|| {
            let body = &bodies[next % bodies.len()];
            next += 1;
            let response = client::post_json(uncached_server.addr(), "/v1/generate", body).unwrap();
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });

    // One batch request carrying all queries: the server fans out
    // internally, so this is the HTTP counterpart of `batch_all_cores`.
    let batch_body = format!(r#"{{"requests": [{}]}}"#, bodies.join(", "));
    group.bench_function("http_batch_uncached", |b| {
        b.iter(|| {
            let response =
                client::post_json(uncached_server.addr(), "/v1/batch", &batch_body).unwrap();
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });

    group.finish();

    // A quick self-check outside the timed region: on the cache-hit path a
    // persistent connection skips the TCP setup every close-per-exchange
    // request pays (informational, not an assertion, so a loaded CI box
    // cannot flake the bench run).
    let rounds = 200usize;
    let close_started = std::time::Instant::now();
    for i in 0..rounds {
        let body = &bodies[i % bodies.len()];
        let response = client::post_json(server.addr(), "/v1/generate", body).unwrap();
        assert_eq!(response.status, 200);
    }
    let close_per_exchange = close_started.elapsed();
    let mut conn = client::Conn::connect(server.addr()).expect("persistent connection opens");
    let persistent_started = std::time::Instant::now();
    for i in 0..rounds {
        let body = &bodies[i % bodies.len()];
        let response = conn.post_json("/v1/generate", body).unwrap();
        assert_eq!(response.status, 200);
    }
    let persistent = persistent_started.elapsed();
    println!(
        "cache-hit x{rounds}: close-per-exchange {close_per_exchange:?}; persistent {persistent:?} ({:.2}x)",
        close_per_exchange.as_secs_f64() / persistent.as_secs_f64().max(1e-9),
    );
}

criterion_group!(benches, service_throughput, http_loopback);
criterion_main!(benches);
