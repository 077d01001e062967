//! `rpg serve` benchmark: boots the real server in-process, drives one
//! named workload over HTTP from a closed-loop load generator, checks every
//! response against an in-process reference, and prints the end-to-end
//! metrics — or, with `--trace 1`, the per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hit_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! run's metadata (host, seed, request digest, counts per phase, server and
//! cache settings). A failed check exits 1 after printing both.

mod fixture;
mod layers;
mod load;
mod workload;

use fixture::{Reference, SetupTiming};
use load::{quantile, Client, Measured, Outcome, Phase, Tally, BLOCK_SAMPLES};
use rpg_repager::CorpusArtifacts;
use serde::value::Value;
use serde::Serialize;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use workload::{Op, Plan, Workload};

/// Set-ups per run; `setup_s` is their median, and each serves an equal
/// share of the measured passes.
const SETUPS: usize = 8;
/// Blocks each measured phase spans at least.
const MIN_BLOCKS: usize = 3;
/// Passes the printed request digest covers.
const DIGEST_PASSES: usize = 8;
/// Health checks after each pass of the untraced phase of a traced run.
const HEALTHZ_PER_PASS: usize = 4;
/// A run that has not finished by then is stuck (e.g. a server that
/// stopped answering); it exits without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: rpg-perfbench --workload miss_sweep|hit_hot|mixed_churn --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Detached on purpose: the process exit ends it, and it must be able
    // to end the process while the load generator is blocked.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("rpg-perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rpg-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.run_line);
            println!("{}", report.result_line);
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                for problem in &report.problems {
                    eprintln!("rpg-perfbench: FAILED CHECK: {problem}");
                }
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("rpg-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Request accounting per phase.
#[derive(Default, Serialize)]
struct Phases {
    warmup: Tally,
    measured: Tally,
    traced: Tally,
}

/// What stays fixed across a run's phases.
struct Bench<'a> {
    args: &'a Args,
    plan: &'a Plan,
    reference: &'a Reference,
    /// The warm-up pass. It is what fills `hit_hot`'s cache, so there it
    /// must miss.
    warmup: Phase<'a>,
    /// The measured passes.
    measured: Phase<'a>,
}

struct Report {
    run_line: String,
    result_line: String,
    problems: Vec<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let corpus = rpg_corpus::generate(&fixture::corpus_config());
    let (papers, queries) = (corpus.len(), fixture::survey_queries(&corpus));
    let plan = Plan::new(workload, &queries, args.seed);
    let reference = Reference::compute(corpus, &plan)?;
    let heads = fixture::response_heads(&plan);
    let measured = Phase {
        plan: &plan,
        traced: false,
        results: &reference.results,
        heads: &heads,
        cached: workload.expected_cached(),
    };
    let bench = Bench {
        args,
        plan: &plan,
        reference: &reference,
        warmup: Phase {
            cached: match workload {
                Workload::HitHot => Some(false),
                other => other.expected_cached(),
            },
            ..measured
        },
        measured,
    };

    let mut phases = Phases::default();
    let mut problems = Vec::new();
    let untraced = bench.measure_untraced(&mut phases)?;
    let e2e = EndToEnd::of(&plan, &untraced.measured, &untraced.setups);
    let hit_ratio = untraced.hit_ratio();
    match workload {
        Workload::MissSweep if untraced.hits > 0 => {
            problems.push(format!("miss_sweep served {} cache hits", untraced.hits))
        }
        Workload::HitHot if untraced.misses > 0 => problems.push(format!(
            "hit_hot missed the cache {} times",
            untraced.misses
        )),
        _ => {}
    }

    let mut traced_passes = 0;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let (values, passes) = bench.per_layer(&untraced, &e2e, &mut phases, &mut problems)?;
        traced_passes = passes;
        layers::ordered(&values)
    } else {
        e2e.metrics()
    };

    // Every failed request left its message in its phase's tally.
    let all = [&phases.warmup, &phases.measured, &phases.traced];
    let attempted: u64 = all.iter().map(|t| t.attempted).sum();
    let failed: u64 = all.iter().map(|t| t.failed).sum();
    problems.extend(all.iter().flat_map(|t| t.failures.iter().cloned()));

    let result = ResultLine {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: Value::Object(
            metrics
                .into_iter()
                .map(|(name, value, unit)| {
                    (name.to_string(), MetricValue { value, unit }.to_value())
                })
                .collect(),
        ),
    };
    let config = fixture::server_config(None);
    let run = RunLine {
        run: RunInfo {
            workload: workload.name(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            request_digest: format!("{:016x}", plan.digest(DIGEST_PASSES)),
            pass_len: plan.pass_len(),
            passes: untraced.measured.passes(),
            blocks: untraced.measured.blocks(&plan).len(),
            traced_passes,
            keys: plan.keys.len(),
            corpus: CorpusInfo {
                config: "small",
                seed: fixture::corpus_config().seed,
                papers,
                queries: queries.len(),
            },
            server: ServerInfo {
                workers: config.workers,
                drivers: config.drivers,
                queue_capacity: config.queue_capacity,
                tenant_queue_capacity: config.tenant_queue_capacity,
                max_requests_per_connection: config.max_requests_per_connection,
                keep_alive: config.keep_alive,
                clients: load::CLIENTS,
                measured_trace_log_capacity: config.trace_log_capacity,
                traced_trace_log_capacity: trace_ring(&plan),
                trace_slow_ms: config.trace_slow_ms,
            },
            cache: CacheInfo {
                capacity: workload.cache_capacity(),
                tenants: workload.tenants(),
                shares: workload.cache_shares(),
                hit_ratio,
            },
            phases,
            failed_share: MetricValue {
                value: e2e.failed_share,
                unit: "ratio",
            },
            setups_ms: untraced.setups.iter().map(SetupMs::of).collect(),
            problems: problems.clone(),
        },
    };
    Ok(Report {
        run_line: serde_json::to_string(&run).map_err(|e| e.to_string())?,
        result_line: serde_json::to_string(&result).map_err(|e| e.to_string())?,
        problems,
    })
}

/// What the untraced measurement produced.
struct Untraced {
    setups: Vec<SetupTiming>,
    measured: Measured,
    hits: u64,
    misses: u64,
    /// `/v1/stats` refusals over the measured passes (traced runs only; a
    /// failed stats read is a failed request of the measured phase).
    rejected: f64,
    /// Health-check latencies between passes (traced runs only), in µs.
    healthz_us: Vec<f64>,
    /// The last server's artifacts, for the in-process layer timings.
    artifacts: Arc<CorpusArtifacts>,
    addr: SocketAddr,
}

impl Untraced {
    fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl Bench<'_> {
    /// Boots [`SETUPS`] servers in turn — each a fresh set of threads and
    /// scratch — and measures an equal share of the run on each, so no single
    /// boot's thread placement decides the result.
    fn measure_untraced(&self, phases: &mut Phases) -> Result<Untraced, String> {
        let args = self.args;
        let mut setups = Vec::new();
        let mut measured = Measured::from_pass(1);
        let (mut hits, mut misses) = (0, 0);
        let mut rejected = 0.0;
        let mut healthz_us = Vec::new();
        let mut last = None;
        for segment in 1..=SETUPS {
            let mut fx = fixture::set_up(args.workload, self.warmup, None)?;
            phases.warmup.absorb(&fx.warmup.tally);
            phases.warmup.absorb(&fx.healthz);
            setups.push(fx.timing);
            let cache_before = fx.server.registry().cache_stats();
            let stats_before = args
                .trace
                .then(|| rejections(&mut fx.clients[0], &mut phases.measured));
            // The last segment also makes up any shortfall of blocks.
            let min_generates = if segment == SETUPS {
                MIN_BLOCKS * BLOCK_SAMPLES
            } else {
                0
            };
            measured.run(
                &mut fx.clients,
                self.measured,
                args.seconds * segment as f64 / SETUPS as f64,
                min_generates,
                |_, client, tally| {
                    if args.trace {
                        healthz_us.extend(healthz(client, tally));
                    }
                },
            );
            let cache_after = fx.server.registry().cache_stats();
            hits += cache_after.hits - cache_before.hits;
            misses += cache_after.misses - cache_before.misses;
            if let Some(before) = stats_before {
                let after = rejections(&mut fx.clients[0], &mut phases.measured);
                if let (Ok(before), Ok(after)) = (before, after) {
                    rejected += after - before;
                }
            }
            last = Some(fx);
        }
        phases.measured.absorb(&measured.tally);
        let last = last.expect("at least one set-up");
        Ok(Untraced {
            setups,
            measured,
            hits,
            misses,
            rejected,
            healthz_us,
            artifacts: last
                .server
                .registry()
                .artifacts(args.workload.tenants()[0])
                .expect("workload tenant is registered"),
            addr: last.server.addr(),
        })
    }

    /// The per-layer metrics: set-up steps and cache counters of the untraced
    /// run, span trees of a traced run of the same length, and timed calls
    /// into each layer. Returns the values and the traced passes.
    fn per_layer(
        &self,
        untraced: &Untraced,
        e2e: &EndToEnd,
        phases: &mut Phases,
        problems: &mut Vec<String>,
    ) -> Result<(layers::Values, usize), String> {
        let (args, plan) = (self.args, self.plan);
        let mut values = layers::Values::new();
        let median = |mut v: Vec<f64>| quantile(&mut v, 0.5).unwrap_or(0.0);
        let setup = |step: fn(&SetupTiming) -> Duration| {
            median(untraced.setups.iter().map(|t| ms(step(t))).collect())
        };
        values.insert("corpus.generate_ms", setup(|t| t.generate));
        values.insert("service.artifacts_build_ms", setup(|t| t.build));
        values.insert("service.warmup_ms", setup(|t| t.warmup));
        values.insert("service.cache_hit_ratio", untraced.hit_ratio());
        let refresh_ms = (untraced.measured.samples.iter())
            .filter(|s| s.outcome == Outcome::Refreshed)
            .map(|s| ms(s.latency));
        values.insert("service.refresh_ms_p50", median(refresh_ms.collect()));
        values.insert("server.healthz_us_p50", median(untraced.healthz_us.clone()));
        values.insert(
            "server.rejected_share",
            untraced.rejected / untraced.measured.tally.attempted.max(1) as f64,
        );
        layers::response_metrics(
            &self.reference.outputs,
            &untraced.measured.samples,
            &mut values,
        );

        // The traced phase: a server retaining every span tree.
        let mut fx = fixture::set_up(args.workload, self.warmup, Some(trace_ring(plan)))?;
        phases.warmup.absorb(&fx.warmup.tally);
        phases.warmup.absorb(&fx.healthz);
        let mut traces = Vec::new();
        let mut traced = Measured::from_pass(1);
        let phase = Phase {
            traced: true,
            ..self.measured
        };
        traced.run(
            &mut fx.clients,
            phase,
            args.seconds,
            MIN_BLOCKS * BLOCK_SAMPLES,
            |pass, client, tally| match layers::collect_traces(client, pass, plan.pass_len()) {
                Ok(requests) => {
                    traces.extend(requests.into_iter().map(|r| (pass, r)));
                    tally.add_one(Ok(()));
                }
                Err(e) => tally.add_one(Err(e)),
            },
        );
        drop(fx);
        phases.traced.absorb(&traced.tally);
        let sent = traced.passes() * plan.pass_len();
        if traces.len() != sent {
            problems.push(format!(
                "{} of {sent} traced requests had no span tree",
                sent - traces.len()
            ));
        }
        if args.workload == Workload::HitHot {
            let staged = traces.iter().filter(|(_, r)| r.ran_stages()).count();
            if staged > 0 {
                problems.push(format!(
                    "{staged} measured hit_hot requests ran pipeline stages"
                ));
            }
        }
        let samples: HashMap<(usize, usize), &load::Sample> = traced
            .samples
            .iter()
            .map(|s| ((s.pass, s.index), s))
            .collect();
        layers::span_metrics(&traces, &samples, &mut values);
        values.insert(
            "obs.trace_overhead_p50_ms",
            EndToEnd::of(plan, &traced, &[]).latency_p50_ms - e2e.latency_p50_ms,
        );
        layers::probe(
            args.workload,
            plan,
            &plan.pass(1),
            &self.reference.outputs,
            untraced.artifacts.clone(),
            untraced.addr,
            &mut values,
        )?;
        Ok((values, traced.passes()))
    }
}

/// Ring capacity of the traced server: two passes plus the probes between
/// them, so a pass's span trees are all still there when it is read.
fn trace_ring(plan: &Plan) -> usize {
    2 * plan.pass_len() + 64
}

/// Health checks on one connection; returns their latencies in µs.
fn healthz(client: &mut Client, tally: &mut Tally) -> Vec<f64> {
    let mut latencies = Vec::new();
    for _ in 0..HEALTHZ_PER_PASS {
        match client.exchange("GET", "/v1/healthz", None, &[]) {
            Ok((response, latency)) if response.status == 200 => {
                latencies.push(latency.as_secs_f64() * 1e6);
                tally.add_one(Ok(()));
            }
            Ok((response, _)) => tally.add_one(Err(format!("healthz status {}", response.status))),
            Err(e) => tally.add_one(Err(e)),
        }
    }
    latencies
}

/// `/v1/stats` refusals so far: acceptor `503`s plus tenant `429`s.
fn rejections(client: &mut Client, tally: &mut Tally) -> Result<f64, String> {
    let result = client
        .exchange("GET", "/v1/stats", None, &[])
        .and_then(|(response, _)| {
            let value: Value =
                serde_json::from_str(&response.body).map_err(|e| format!("stats body: {e}"))?;
            let field = |section: &str, name: &str| {
                value
                    .get(section)
                    .and_then(|s| s.get(name))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("stats lacks {section}.{name}"))
            };
            Ok(field("connections", "rejected_503")? + field("queue", "throttled_429")?)
        });
    tally.add_one(result.as_ref().map(|_| ()).map_err(Clone::clone));
    result
}

/// The end-to-end metrics of one measured phase.
struct EndToEnd {
    setup_s: f64,
    throughput_rps: f64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    failed_share: f64,
}

impl EndToEnd {
    /// Throughput and latencies are taken per block (each block's p99 has
    /// at least ten samples beyond it), and the phase reports the quartile
    /// of blocks least disturbed from outside: the upper quartile of
    /// throughput, the lower quartile of each latency. Other load on the
    /// host (vCPU steal) comes in bursts and only ever slows a block; over
    /// runs with 0.3–12% steal it spread the median over blocks twice as
    /// far as this quartile, while a change to the program moves every
    /// block.
    fn of(plan: &Plan, measured: &Measured, setups: &[SetupTiming]) -> EndToEnd {
        let mut setup: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();
        let per_pass = plan.pass_len();
        let mut throughput = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        for (first, end) in measured.blocks(plan) {
            let samples = &measured.samples[first * per_pass..end * per_pass];
            let wall: Duration = measured.pass_walls[first..end].iter().sum();
            let ok = samples.iter().filter(|s| s.ok()).count();
            throughput.push(ok as f64 / wall.as_secs_f64());
            let mut latencies: Vec<f64> = samples
                .iter()
                .filter(|s| s.ok() && matches!(s.op, Op::Generate(_)))
                .map(|s| ms(s.latency))
                .collect();
            p50.extend(quantile(&mut latencies, 0.5));
            p99.extend(quantile(&mut latencies, 0.99));
        }
        let ok = measured.samples.iter().filter(|s| s.ok()).count();
        let attempted = measured.samples.len().max(1);
        let median = |v: &mut Vec<f64>| quantile(v, 0.5).unwrap_or(0.0);
        EndToEnd {
            setup_s: median(&mut setup),
            throughput_rps: quantile(&mut throughput, 0.75).unwrap_or(0.0),
            latency_p50_ms: quantile(&mut p50, 0.25).unwrap_or(0.0),
            latency_p99_ms: quantile(&mut p99, 0.25).unwrap_or(0.0),
            failed_share: (measured.samples.len() - ok) as f64 / attempted as f64,
        }
    }

    /// `(name, value, unit)` of every end-to-end metric `BENCHMARK.json`
    /// lists. `failed_share` goes to the run line: it is 0 on a healthy
    /// run, and the result line carries the same counts as `attempted` and
    /// `failed`.
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("throughput_rps", self.throughput_rps, "req/s"),
            ("latency_p50_ms", self.latency_p50_ms, "ms"),
            ("latency_p99_ms", self.latency_p99_ms, "ms"),
        ]
    }
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

#[derive(Serialize)]
struct RunLine {
    run: RunInfo,
}

#[derive(Serialize)]
struct RunInfo {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    request_digest: String,
    pass_len: usize,
    passes: usize,
    blocks: usize,
    traced_passes: usize,
    keys: usize,
    corpus: CorpusInfo,
    server: ServerInfo,
    cache: CacheInfo,
    phases: Phases,
    failed_share: MetricValue,
    setups_ms: Vec<SetupMs>,
    problems: Vec<String>,
}

#[derive(Serialize)]
struct CorpusInfo {
    config: &'static str,
    seed: u64,
    papers: usize,
    queries: usize,
}

#[derive(Serialize)]
struct ServerInfo {
    workers: usize,
    drivers: usize,
    queue_capacity: usize,
    tenant_queue_capacity: usize,
    max_requests_per_connection: usize,
    keep_alive: bool,
    clients: usize,
    measured_trace_log_capacity: usize,
    traced_trace_log_capacity: usize,
    trace_slow_ms: u64,
}

#[derive(Serialize)]
struct CacheInfo {
    capacity: usize,
    tenants: &'static [&'static str],
    shares: &'static [(&'static str, usize)],
    hit_ratio: f64,
}

#[derive(Serialize)]
struct SetupMs {
    generate: f64,
    build: f64,
    spawn: f64,
    warmup: f64,
}

impl SetupMs {
    fn of(t: &SetupTiming) -> SetupMs {
        SetupMs {
            generate: ms(t.generate),
            build: ms(t.build),
            spawn: ms(t.spawn),
            warmup: ms(t.warmup),
        }
    }
}
