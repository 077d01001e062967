//! The closed-loop load generator and the per-response output check.
//!
//! Each client thread holds one keep-alive connection and sends its next
//! request only after the previous response's last byte arrived. A pass
//! hands the workload's operations out in order to whichever client is
//! free; a run is a whole number of passes.

use crate::workload::{Op, Plan};
use rpg_server::client::{ClientResponse, Conn};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Client threads, each with one connection: the core count of the
/// reference host, so the loop never holds more requests outstanding than
/// there are cores to serve them.
pub const CLIENTS: usize = 2;

/// One load-generator connection, reopened whenever the server announces
/// a close (or the exchange fails).
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    /// A client that connects lazily to `addr`.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// `CLIENTS` fresh clients.
    pub fn fleet(addr: SocketAddr) -> Vec<Client> {
        (0..CLIENTS).map(|_| Client::new(addr)).collect()
    }

    /// One exchange, timed from the request write to the last body byte.
    /// Connecting is not part of the exchange's latency.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> Result<(ClientResponse, Duration), String> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            slot => slot.insert(
                Conn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?,
            ),
        };
        let started = Instant::now();
        let result = conn.request_with(method, path, body, headers);
        let latency = started.elapsed();
        match result {
            Ok(response) => {
                if response.closes_connection() {
                    self.conn = None;
                }
                Ok((response, latency))
            }
            Err(e) => {
                self.conn = None;
                Err(format!("{method} {path}: {e}"))
            }
        }
    }
}

/// What a phase sends, and what it expects of each generate response.
#[derive(Clone, Copy)]
pub struct Phase<'a> {
    /// The workload's keys and passes.
    pub plan: &'a Plan,
    /// Whether every request carries the `x-rpg-trace-id` of [`trace_id`].
    pub traced: bool,
    /// Serialized `api::output_result_value` of each key.
    pub results: &'a [String],
    /// The fixed response prefix of each key's tenant, up to the `cached`
    /// flag: `{"corpus":"<tenant>","cached":`.
    pub heads: &'a [String],
    /// The `cached` flag every response must carry, if the phase promises
    /// one.
    pub cached: Option<bool>,
}

/// How one operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A checked generate response.
    Generated {
        /// The response's `cached` flag.
        cached: bool,
        /// Response body length.
        bytes: usize,
        /// The response's `timings` object, kept for fresh (uncached)
        /// results only, whose counters describe this request's run.
        timings: Option<String>,
    },
    /// A successful tenant refresh.
    Refreshed,
    /// A non-2xx status, a transport error or timeout, or a body that
    /// failed the output check.
    Failed(String),
}

/// One timed operation of a pass.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The pass's index in the workload's sequence.
    pub pass: usize,
    /// Position of the operation in its pass.
    pub index: usize,
    /// The operation.
    pub op: Op,
    /// Client-observed latency (zero when the exchange never completed).
    pub latency: Duration,
    /// The checked result.
    pub outcome: Outcome,
}

impl Sample {
    /// Whether the operation succeeded and passed its check.
    pub fn ok(&self) -> bool {
        !matches!(self.outcome, Outcome::Failed(_))
    }
}

/// The trace ID a traced phase stamps on operation `index` of pass `pass`.
pub fn trace_id(pass: usize, index: usize) -> String {
    format!("{:032x}", ((pass as u128 + 1) << 64) | (index as u128 + 1))
}

fn execute(client: &mut Client, phase: &Phase<'_>, pass: (usize, &[Op]), index: usize) -> Sample {
    let op = pass.1[index];
    let (path, body) = phase.plan.request(op);
    let id = phase.traced.then(|| trace_id(pass.0, index));
    let headers: Vec<(&str, &str)> = id
        .iter()
        .map(|id| ("x-rpg-trace-id", id.as_str()))
        .collect();
    let (outcome, latency) = match client.exchange("POST", &path, Some(body), &headers) {
        Err(e) => (Outcome::Failed(e), Duration::ZERO),
        Ok((response, latency)) => {
            let outcome = match (response.status, op) {
                (200, Op::Generate(key)) => check_generate(
                    &response.body,
                    &phase.heads[key],
                    &phase.results[key],
                    phase.cached,
                ),
                (200, Op::Refresh(tenant)) => check_refresh(&response.body, tenant),
                (status, _) => Outcome::Failed(format!("{path}: status {status}")),
            };
            (outcome, latency)
        }
    };
    Sample {
        pass: pass.0,
        index,
        op,
        latency,
        outcome,
    }
}

/// Checks a generate body against its reference: the tenant and `cached`
/// flag, then a `result` byte-identical to the in-process encoding. The
/// server emits `{"corpus":…,"cached":…,"result":…,"timings":…}` compactly
/// in that order, so the check is a prefix comparison, not a re-parse.
pub fn check_generate(body: &str, head: &str, result: &str, cached: Option<bool>) -> Outcome {
    let fail = |why: &str| Outcome::Failed(format!("generate: {why}"));
    let Some(rest) = body.strip_prefix(head) else {
        return fail("unexpected corpus or response shape");
    };
    let (flag, rest) = if let Some(rest) = rest.strip_prefix("true") {
        (true, rest)
    } else if let Some(rest) = rest.strip_prefix("false") {
        (false, rest)
    } else {
        return fail("missing cached flag");
    };
    if cached.is_some_and(|want| want != flag) {
        return fail(&format!("cached is {flag}, workload promises {}", !flag));
    }
    let Some(timings) = rest
        .strip_prefix(",\"result\":")
        .and_then(|rest| rest.strip_prefix(result))
        .and_then(|rest| rest.strip_prefix(",\"timings\":"))
        .and_then(|rest| rest.strip_suffix('}'))
    else {
        return fail("result differs from the in-process reference");
    };
    Outcome::Generated {
        cached: flag,
        bytes: body.len(),
        timings: (!flag).then(|| timings.to_string()),
    }
}

fn check_refresh(body: &str, tenant: &str) -> Outcome {
    let value: serde::value::Value = match serde_json::from_str(body) {
        Ok(value) => value,
        Err(e) => return Outcome::Failed(format!("refresh {tenant}: bad body: {e}")),
    };
    let refreshed = value.get("refreshed").and_then(|v| v.as_bool()) == Some(true);
    let corpus = value.get("corpus").and_then(|v| v.as_str()) == Some(tenant);
    if refreshed && corpus {
        Outcome::Refreshed
    } else {
        Outcome::Failed(format!("refresh {tenant}: unexpected body {body}"))
    }
}

/// Request accounting of one phase.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct Tally {
    /// Requests sent (or attempted, when the connection failed).
    pub attempted: u64,
    /// Requests that succeeded and passed their check.
    pub succeeded: u64,
    /// Requests that failed: non-2xx, transport errors, timeouts, and
    /// failed checks.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts every sample of a pass.
    pub fn add_pass(&mut self, samples: &[Sample]) {
        for sample in samples {
            self.add_one(match &sample.outcome {
                Outcome::Failed(why) => Err(why.clone()),
                _ => Ok(()),
            });
        }
    }

    /// Adds another tally's counts (and its first failures, up to five).
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures
            .extend(other.failures.iter().take(room).cloned());
    }

    /// Counts one exchange.
    pub fn add_one(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.succeeded += 1,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
            }
        }
    }
}

/// The measured part of a run: whole passes, possibly over several
/// servers.
#[derive(Default)]
pub struct Measured {
    /// Sequence index of the first pass.
    pub first_pass: usize,
    /// Wall time of each pass (between-pass work excluded).
    pub pass_walls: Vec<Duration>,
    /// Every sample of every pass, pass after pass.
    pub samples: Vec<Sample>,
    /// Request accounting.
    pub tally: Tally,
}

/// Generate latencies per block: enough that ten lie beyond the p99.
pub const BLOCK_SAMPLES: usize = 1000;

impl Measured {
    /// A measurement that starts at pass `first_pass` of the sequence
    /// (pass 0 is the warm-up pass).
    pub fn from_pass(first_pass: usize) -> Measured {
        Measured {
            first_pass,
            ..Measured::default()
        }
    }

    /// Passes replayed.
    pub fn passes(&self) -> usize {
        self.pass_walls.len()
    }

    /// Consecutive runs of whole passes holding at least
    /// [`BLOCK_SAMPLES`] generate requests each (a short tail joins the
    /// last block), as `(first pass, end pass)`.
    pub fn blocks(&self, plan: &Plan) -> Vec<(usize, usize)> {
        let per_block = BLOCK_SAMPLES.div_ceil(plan.generates_per_pass().max(1));
        let mut blocks: Vec<(usize, usize)> = (0..self.passes())
            .step_by(per_block)
            .map(|start| (start, (start + per_block).min(self.passes())))
            .collect();
        if blocks.len() > 1 && blocks[blocks.len() - 1].1 - blocks[blocks.len() - 1].0 < per_block {
            let (_, end) = blocks.pop().expect("more than one block");
            blocks.last_mut().expect("more than one block").1 = end;
        }
        blocks
    }

    /// Replays whole passes until the summed pass wall time reaches
    /// `wall_s` seconds and at least `min_generates` generate requests
    /// were measured in all.
    ///
    /// The client threads live for the whole call and meet at a barrier
    /// after each pass; then `between` runs on the first client (pass
    /// index, that client, the phase's tally) for out-of-band probes, which
    /// the measured wall time excludes.
    pub fn run(
        &mut self,
        clients: &mut [Client],
        phase: Phase<'_>,
        wall_s: f64,
        min_generates: usize,
        mut between: impl FnMut(usize, &mut Client, &mut Tally),
    ) {
        let plan = phase.plan;
        let generates_per_pass = plan.generates_per_pass();
        let mut wall: Duration = self.pass_walls.iter().sum();
        let next = AtomicUsize::new(0);
        let current = RwLock::new((0, Vec::new()));
        let stop = AtomicBool::new(false);
        let start = Barrier::new(clients.len());
        let end = Barrier::new(clients.len());
        let collected = Mutex::new(Vec::new());
        let (first, rest) = clients
            .split_first_mut()
            .expect("the load generator has clients");
        let drain = |client: &mut Client| {
            let current = current.read().expect("no client panicked");
            let (pass, ops) = (current.0, current.1.as_slice());
            let mut samples = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= ops.len() {
                    break samples;
                }
                samples.push(execute(client, &phase, (pass, ops), index));
            }
        };
        std::thread::scope(|scope| {
            for client in rest {
                let (start, end, stop, collected) = (&start, &end, &stop, &collected);
                scope.spawn(move || loop {
                    start.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let samples = drain(client);
                    collected
                        .lock()
                        .expect("no client panicked")
                        .extend(samples);
                    end.wait();
                });
            }
            loop {
                let index = self.first_pass + self.passes();
                *current.write().expect("no client panicked") = (index, plan.pass(index));
                next.store(0, Ordering::SeqCst);
                start.wait();
                let started = Instant::now();
                let mut samples = drain(first);
                end.wait();
                let pass_wall = started.elapsed();
                samples.append(&mut collected.lock().expect("no client panicked"));
                samples.sort_by_key(|sample| sample.index);
                wall += pass_wall;
                self.pass_walls.push(pass_wall);
                self.tally.add_pass(&samples);
                between(index, first, &mut self.tally);
                self.samples.extend(samples);
                let enough = self.passes() * generates_per_pass >= min_generates;
                if enough && wall.as_secs_f64() >= wall_s {
                    stop.store(true, Ordering::SeqCst);
                    start.wait();
                    break;
                }
            }
        });
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (sorts in place). `None` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
}

/// The arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: &str = "{\"corpus\":\"default\",\"cached\":";

    fn body(cached: bool, result: &str) -> String {
        format!("{HEAD}{cached},\"result\":{result},\"timings\":{{\"seed_us\":5}}}}")
    }

    #[test]
    fn check_accepts_the_reference_and_reads_the_flag() {
        let result = r#"{"reading_list":[1,2]}"#;
        match check_generate(&body(false, result), HEAD, result, Some(false)) {
            Outcome::Generated {
                cached, timings, ..
            } => {
                assert!(!cached);
                assert_eq!(timings.as_deref(), Some(r#"{"seed_us":5}"#));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            check_generate(&body(true, result), HEAD, result, None),
            Outcome::Generated {
                cached: true,
                timings: None,
                ..
            }
        ));
    }

    #[test]
    fn check_rejects_wrong_result_flag_or_tenant() {
        let result = r#"{"reading_list":[1,2]}"#;
        let other = r#"{"reading_list":[2,1]}"#;
        assert!(matches!(
            check_generate(&body(false, other), HEAD, result, None),
            Outcome::Failed(_)
        ));
        assert!(matches!(
            check_generate(&body(true, result), HEAD, result, Some(false)),
            Outcome::Failed(_)
        ));
        let alpha = "{\"corpus\":\"alpha\",\"cached\":";
        assert!(matches!(
            check_generate(&body(false, result), alpha, result, None),
            Outcome::Failed(_)
        ));
    }

    #[test]
    fn check_matches_the_server_encoding() {
        // The server's body is `generate_response_value` serialized; the
        // prefix check must accept exactly that encoding.
        let output = rpg_repager::RepagerOutput {
            reading_list: vec![rpg_corpus::PaperId(3)],
            path: Default::default(),
            forest: Default::default(),
            seeds: rpg_repager::seeds::SeedAllocation {
                initial: vec![rpg_corpus::PaperId(3)],
                reallocated: Vec::new(),
                cooccurrence: Default::default(),
            },
            subgraph_nodes: 4,
            subgraph_edges: 5,
            timings: Default::default(),
        };
        let result = serde_json::to_string(&rpg_server::api::output_result_value(&output)).unwrap();
        for cached in [false, true] {
            let served = serde_json::to_string(&rpg_server::api::generate_response_value(
                "default", &output, cached,
            ))
            .unwrap();
            assert!(matches!(
                check_generate(&served, HEAD, &result, Some(cached)),
                Outcome::Generated { .. }
            ));
        }
    }

    #[test]
    fn trace_ids_are_valid_and_distinct() {
        let a = trace_id(0, 0);
        assert_eq!(a.len(), 32);
        assert_ne!(a, trace_id(0, 1));
        assert_ne!(a, trace_id(1, 0));
        assert_ne!(a, "0".repeat(32));
    }

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), Some(2.5));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }
}
