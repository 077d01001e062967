//! The listener, event-driven connection layer, compute pool, and admission
//! control.
//!
//! Connections are served by a fixed pool of *event-loop driver threads*,
//! each owning a readiness set of nonblocking sockets behind the pluggable
//! [`sys::Poller`] trait (edge-triggered `epoll(7)` on Linux by default,
//! portable `poll(2)` otherwise or via `io_backend`) — an open connection
//! costs a few hundred bytes of state in a loop's slot table, not a thread,
//! so thousands of mostly-idle keep-alive connections ride on a handful of
//! threads. Each connection registers with its loop's poller once at
//! accept and changes interest only when its state machine transitions, so
//! a wait costs O(ready), not O(open connections), on the `epoll` backend.
//! One acceptor thread takes TCP connections off the listener,
//! enforces the `max_connections` bound (overflow gets an immediate `503`
//! off a dedicated rejector thread), and deals admitted sockets round-robin
//! to the loops through a wake-pipe-signalled inbox.
//!
//! Each connection is a state machine over the incremental
//! [`http::RequestBuffer`] parser:
//!
//! ```text
//! Idle → ReadingHead → ReadingBody → ComputeInFlight → Writing ─┐
//!  ↑                        (inline routes skip the queue)      │
//!  └──────────── keep-alive, budget remaining ──────────────────┤
//!                                                           Draining → closed
//! ```
//!
//! Idle and per-request read deadlines are enforced by the loop's poll
//! timeout (no timer threads, no peek slices); cheap endpoints
//! (`/v1/healthz`, `/v1/stats`, routing errors) are answered inline on the
//! loop, while pipeline work is classified by tenant and offered to the
//! weighted per-tenant [`FairQueue`], drained in deficit-round-robin order
//! by a fixed pool of *compute workers*. A worker's reply travels back to
//! the owning loop through its inbox plus a self-pipe wake, so the loop
//! never blocks on compute and a connection awaiting its response costs no
//! thread anywhere.
//!
//! Overload degrades into fast, explicit rejections instead of growing
//! buffers or latency — and it degrades per tenant: a connection stampede
//! past `max_connections` gets an immediate `503 Service Unavailable` off
//! the acceptor, a tenant that fills its own sub-queue gets `429 Too Many
//! Requests` while every other tenant keeps being served, and only a full
//! *global* request queue turns into a `503` for everyone.

use crate::api::{
    batch_body, encode_result_tail, error_body, item_error_body, splice_generate_body,
    timings_value, ApiError, BatchRequest, GenerateRequest, ResolvedRequest, TenantPatch,
    MAX_BATCH,
};
use crate::auth::{bearer_token, AuthTable, Principal, StoredKey};
use crate::histogram::TenantMetrics;
use crate::http::{self, Limits, Parse, Request, RequestBuffer, Response, ResponseEmitter};
use crate::queue::{Bounded, FairQueue, Rejection};
use crate::sys::{
    self, Event, IoBackend, IoBackendChoice, Poller, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL,
    POLLOUT, POLLRDHUP,
};
use rpg_obs::log as obs_log;
use rpg_obs::metrics::{Counter, Gauge, MetricsRegistry};
use rpg_obs::trace::{
    unix_ms_now, SharedRecorder, Span, SpanRecorder, StageTrace, TraceId, TraceLog, TraceRecord,
};
use rpg_repager::system::RepagerError;
use rpg_repager::TimingAggregate;
use rpg_service::{
    snapshot, valid_tenant_name, CorpusRegistry, Manifest, ManifestDiff, RegistryError,
    TenantConfig,
};
use serde::value::Value;
use serde::Deserialize;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The admission lane control-plane work (manifest reloads) is billed to —
/// reserved by tenant-name validation, so no real tenant can sit in it.
const ADMIN_LANE: &str = "__admin";

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Compute-worker threads draining the request queue (minimum 1).
    pub workers: usize,
    /// Event-loop driver threads, each multiplexing its share of the open
    /// connections over one `poll` set. `0` derives a small default from
    /// `workers` — connections no longer cost threads, so a handful of
    /// loops serves thousands of sockets.
    pub drivers: usize,
    /// Open-connection bound across all loops. Arrivals past it get an
    /// immediate `503` off the acceptor.
    pub max_connections: usize,
    /// Global request-queue bound across every tenant; overflow gets `503`.
    pub queue_capacity: usize,
    /// Per-tenant request-queue bound: a tenant stampede past this gets
    /// `429 Too Many Requests` without crowding out other tenants. Queue
    /// depth is fed by every open connection (each can have one request in
    /// flight), so under the event loop the throttle engages whenever a
    /// tenant keeps more than this many requests outstanding.
    pub tenant_queue_capacity: usize,
    /// Deficit-round-robin weights per tenant name; unlisted tenants weigh
    /// 1. A weight-2 tenant drains twice as fast when backlogged.
    pub tenant_weights: Vec<(String, u64)>,
    /// Tenant used when a request omits its `corpus` field.
    pub default_corpus: String,
    /// Whether to honour HTTP keep-alive. When `false` every response is
    /// `Connection: close` (the pre-persistent behaviour).
    pub keep_alive: bool,
    /// Exchanges served per connection before the server closes it, so one
    /// immortal socket cannot hold its slot forever (minimum 1).
    pub max_requests_per_connection: usize,
    /// How long a connection may sit idle between requests before its loop
    /// closes it.
    pub idle_timeout: Duration,
    /// Per-request wall-clock deadline: once the first byte of a request
    /// arrives, the whole head+body must follow within this long or the
    /// connection gets a `408` and a close — a slowloris trickling one
    /// byte per interval cannot reset it. On the response side it is the
    /// zero-progress bound: a reader that accepts no bytes for this long
    /// is cut off, while a slow-but-moving one keeps its connection.
    pub read_timeout: Duration,
    /// Value of the `Retry-After` header on `503`/`429` responses, in
    /// seconds.
    pub retry_after_secs: u32,
    /// Request size limits.
    pub limits: Limits,
    /// Whether requests must authenticate: `true` maps
    /// `Authorization: Bearer <key>` to a tenant principal, bills
    /// admission to it, rejects cross-tenant generates with `403` and
    /// guards the admin endpoints with `401`/`403`. `false` keeps the
    /// self-declared `corpus` field authoritative and leaves the admin
    /// endpoints open.
    pub auth_enabled: bool,
    /// The initial key table (usually [`AuthTable::from_manifest`]);
    /// swapped live by manifest reloads and edited by `PUT`/`DELETE`.
    pub auth: AuthTable,
    /// Per-tenant admission-bound overrides applied at spawn (manifest
    /// `queue` fields); retunable later via `PATCH /v1/admin/tenants`.
    pub tenant_bounds: Vec<(String, usize)>,
    /// Per-tenant in-flight compute caps applied at spawn. A tenant at its
    /// cap keeps queueing but its lane is skipped by the compute pool until
    /// a slot frees, so fairness extends past admission into the workers
    /// themselves. [`ServerConfig::with_manifest`] fills this for every
    /// manifest tenant: an explicit `inflight` field wins, otherwise the
    /// tenant gets its weighted share of the worker pool (minimum 1).
    pub tenant_inflight: Vec<(String, usize)>,
    /// Per-tenant deadline budgets in milliseconds (manifest `deadline_ms`
    /// fields): work still queued past its budget is shed with a `503`
    /// instead of computed into a result nobody is waiting for.
    pub tenant_deadlines: Vec<(String, u64)>,
    /// Deadline budget applied to requests whose tenant declares none and
    /// that carry no `x-rpg-deadline-ms` header. `None` means work never
    /// expires in the queue (the pre-shedding behaviour).
    pub default_deadline_ms: Option<u64>,
    /// Where `POST /v1/admin/reload` (and the CLI's `SIGHUP` handler)
    /// re-reads the manifest from. `None` disables wire-triggered reloads
    /// with a `409`.
    pub manifest_path: Option<String>,
    /// Which readiness backend the event loops ride on: `Auto` (the
    /// default) picks edge-triggered `epoll` on Linux and portable `poll`
    /// elsewhere; forcing `epoll` off Linux fails at spawn. Surfaced in
    /// `/v1/stats` under `connections.io_backend`.
    pub io_backend: IoBackendChoice,
    /// Completed requests at least this slow (milliseconds, head parse to
    /// last response byte) are retained as span-tree exemplars behind
    /// `GET /v1/debug/requests`. `0` retains every request. Tenants can
    /// override it with the manifest `trace_slow_ms` field.
    pub trace_slow_ms: u64,
    /// Per-tenant `trace_slow_ms` overrides (manifest `trace_slow_ms`
    /// fields); retunable later via `PATCH /v1/admin/tenants`.
    pub tenant_trace_slow: Vec<(String, u64)>,
    /// How many slow-request exemplars the trace ring retains (oldest
    /// evicted first). `0` disables span recording entirely — requests
    /// still get (and echo) trace IDs, but no span trees are kept.
    pub trace_log_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: rpg_service::default_threads(),
            drivers: 0,
            max_connections: 1024,
            queue_capacity: 64,
            tenant_queue_capacity: 8,
            tenant_weights: Vec::new(),
            default_corpus: "default".to_string(),
            keep_alive: true,
            max_requests_per_connection: 100,
            idle_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
            limits: Limits::default(),
            auth_enabled: false,
            auth: AuthTable::new(),
            tenant_bounds: Vec::new(),
            tenant_inflight: Vec::new(),
            tenant_deadlines: Vec::new(),
            default_deadline_ms: None,
            manifest_path: None,
            io_backend: IoBackendChoice::default(),
            trace_slow_ms: 0,
            tenant_trace_slow: Vec::new(),
            trace_log_capacity: 256,
        }
    }
}

impl ServerConfig {
    /// The event-loop pool size after resolving the `0 = auto` default.
    /// Loops multiplex, so the default stays small: one loop per four
    /// compute workers, between 1 and 4.
    fn driver_count(&self) -> usize {
        if self.drivers > 0 {
            self.drivers
        } else {
            (self.workers.max(1) / 4).clamp(1, 4)
        }
    }

    /// Folds a manifest's server-side tuning into the config: per-tenant
    /// DRR weights, queue bounds, in-flight caps, deadline budgets, the
    /// default tenant, and the key table. (The corpus side — building the
    /// tenants — is [`CorpusRegistry::apply_manifest`]'s job.) Set
    /// `workers` *before* calling this: the derived in-flight caps are each
    /// tenant's weighted share of the worker pool.
    pub fn with_manifest(mut self, manifest: &Manifest) -> ServerConfig {
        self.tenant_weights = manifest
            .tenants_sorted()
            .iter()
            .filter_map(|(name, config)| config.weight.map(|w| (name.to_string(), w)))
            .collect();
        self.tenant_bounds = manifest
            .tenants_sorted()
            .iter()
            .filter_map(|(name, config)| config.queue.map(|q| (name.to_string(), q)))
            .collect();
        self.tenant_inflight = manifest_inflight_caps(manifest, self.workers);
        self.tenant_deadlines = manifest
            .tenants_sorted()
            .iter()
            .filter_map(|(name, config)| config.deadline_ms.map(|d| (name.to_string(), d)))
            .collect();
        self.tenant_trace_slow = manifest
            .tenants_sorted()
            .iter()
            .filter_map(|(name, config)| config.trace_slow_ms.map(|ms| (name.to_string(), ms)))
            .collect();
        if let Some(default) = manifest.default_tenant() {
            self.default_corpus = default.to_string();
        }
        self.auth = AuthTable::from_manifest(manifest);
        self
    }
}

/// Resolves every manifest tenant's in-flight compute cap: the explicit
/// `inflight` field when present, otherwise the tenant's weighted share of
/// the worker pool (minimum 1), so a heavy tenant cannot occupy every
/// worker while a light one holds queued work.
fn manifest_inflight_caps(manifest: &Manifest, workers: usize) -> Vec<(String, usize)> {
    let workers = workers.max(1) as u64;
    let tenants = manifest.tenants_sorted();
    let total_weight: u64 = tenants
        .iter()
        .map(|(_, config)| config.weight.unwrap_or(1).max(1))
        .sum::<u64>()
        .max(1);
    tenants
        .iter()
        .map(|(name, config)| {
            let cap = config.inflight.unwrap_or_else(|| {
                let weight = config.weight.unwrap_or(1).max(1);
                ((workers * weight / total_weight).max(1)) as usize
            });
            (name.to_string(), cap)
        })
        .collect()
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Connections currently open (admitted and not yet closed).
    pub open_connections: u64,
    /// Requests rejected with `503` (connection overflow at the acceptor,
    /// or a full global request queue).
    pub rejected: u64,
    /// Requests rejected with `429` because their tenant's sub-queue was
    /// full.
    pub throttled: u64,
    /// HTTP exchanges completed (any status).
    pub handled: u64,
    /// `2xx` responses.
    pub ok: u64,
    /// `4xx` responses.
    pub client_errors: u64,
    /// `5xx` responses.
    pub server_errors: u64,
    /// Aggregated pipeline timings over every fresh (non-cached) run.
    pub pipeline: TimingAggregate,
}

/// The server-wide counters, every one a handle into the shared
/// [`MetricsRegistry`]: the request path bumps the same atomics that
/// `GET /metrics` and `/v1/stats` render, so the two views can never
/// disagree. The gauges and cache counters are *sampled* at scrape time
/// from their authoritative sources (the open-connection count, the fair
/// queue, the result cache) rather than double-bookkept on the hot path.
struct Counters {
    accepted: Counter,
    rejected: Counter,
    throttled: Counter,
    ok: Counter,
    client_errors: Counter,
    server_errors: Counter,
    open_connections: Gauge,
    queue_depth: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_entries: Gauge,
    timings: Mutex<TimingAggregate>,
}

impl Counters {
    fn registered(registry: &MetricsRegistry) -> Counters {
        let class = |class| {
            registry.counter(
                "rpg_responses_total",
                "HTTP responses completed, by status class.",
                &[("class", class)],
            )
        };
        Counters {
            accepted: registry.counter(
                "rpg_connections_accepted_total",
                "Connections accepted off the listener.",
                &[],
            ),
            rejected: registry.counter(
                "rpg_requests_rejected_total",
                "Requests rejected with 503: connection overflow or a full global queue.",
                &[],
            ),
            throttled: registry.counter(
                "rpg_requests_throttled_total",
                "Requests rejected with 429 because their tenant's sub-queue was full.",
                &[],
            ),
            ok: class("2xx"),
            client_errors: class("4xx"),
            server_errors: class("5xx"),
            open_connections: registry.gauge(
                "rpg_connections_open",
                "Connections currently open across all event loops.",
                &[],
            ),
            queue_depth: registry.gauge(
                "rpg_queue_depth",
                "Pipeline requests currently queued for compute, across all tenants.",
                &[],
            ),
            cache_hits: registry.counter(
                "rpg_cache_hits_total",
                "Requests answered from the result cache.",
                &[],
            ),
            cache_misses: registry.counter(
                "rpg_cache_misses_total",
                "Requests that ran the pipeline because no cached result matched.",
                &[],
            ),
            cache_entries: registry.gauge(
                "rpg_cache_entries",
                "Results currently held by the shared LRU cache.",
                &[],
            ),
            timings: Mutex::new(TimingAggregate::default()),
        }
    }
}

/// Pipeline work classified by tenant, queued for the compute pool. A
/// generate request travels in resolved form (corpus name + validated
/// parameters) so the driver-side validation is not repeated on the worker.
enum Work {
    Generate(String, ResolvedRequest),
    /// One item of a `/v1/batch` request: each item is admitted (and
    /// billed) under its own tenant, so a mixed-corpus batch consumes each
    /// tenant's budget separately and overflow turns into *per-item* `429`s
    /// inside the batch response instead of rejecting the whole batch. The
    /// ticket routes the item's result slot back to the shared assembly.
    BatchItem {
        ticket: BatchTicket,
        corpus: String,
        resolved: ResolvedRequest,
    },
    /// Rebuild one tenant's artifacts from its current corpus (the
    /// `/v1/corpora/:name/refresh` endpoint) — artifact builds are
    /// CPU-heavy, so they ride the compute queue like any pipeline run,
    /// billed to the tenant being refreshed.
    Refresh(String),
    /// Build a corpus from a wire-shipped spec and atomically swap it in
    /// under `name` (the `PUT /v1/corpora/:name` endpoint), billed to that
    /// tenant's lane.
    Put {
        name: String,
        config: Box<TenantConfig>,
    },
    /// Re-read the manifest file and apply it (the `POST /v1/admin/reload`
    /// endpoint). Corpus builds are CPU-heavy, so the whole apply rides the
    /// compute pool — the event loops never block on it.
    Reload,
}

/// The address a compute worker posts its response back to: the owning
/// event loop's inbox plus that loop's wake pipe. If a `Job` is ever
/// dropped unfulfilled, the `Drop` impl posts an error response instead,
/// so the connection can never be stranded in `ComputeInFlight`.
struct Reply {
    target: Option<(Arc<LoopShared>, usize)>,
}

impl Reply {
    fn new(to: Arc<LoopShared>, token: usize) -> Reply {
        Reply {
            target: Some((to, token)),
        }
    }

    fn send(mut self, response: Response) {
        if let Some((to, token)) = self.target.take() {
            to.push_reply(token, response);
        }
    }

    /// Disarms the reply (used when admission hands the job back): the
    /// rejection is answered inline, so nothing must be posted later.
    fn cancel(mut self) {
        self.target = None;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some((to, token)) = self.target.take() {
            to.push_reply(
                token,
                Response::json(500, error_body("request was dropped")),
            );
        }
    }
}

struct Job {
    work: Work,
    /// Where the response goes. Batch-item jobs carry `None`: their shared
    /// [`BatchAssembly`] owns the one reply for the whole batch.
    reply: Option<Reply>,
    /// Set by the owning event loop when the client hangs up while this
    /// work is queued or running (a reset observed in `ComputeInFlight`):
    /// the compute worker skips the pipeline run because nobody can
    /// receive the result.
    cancelled: Arc<AtomicBool>,
    /// The queue lane this job was admitted under; a worker releases the
    /// lane's in-flight slot once the job finishes (however it finishes).
    lane: String,
    /// When admission accepted the work — the origin of the tenant's
    /// queue-to-reply latency histogram.
    admitted_at: Instant,
    /// Absolute deadline: a worker popping the job past this point sheds
    /// it with a `503` instead of computing a result nobody awaits.
    deadline: Option<Instant>,
    /// The request's trace: its ID becomes the worker's logging context
    /// while the job runs, and its recorder (when armed) receives the
    /// `queue_wait`, `compute`, and per-stage spans.
    trace: RequestTrace,
}

/// The shared result collector of one `/v1/batch` request: per-item admission
/// means the items complete independently (across compute workers, or
/// instantly at admission for rejected items), and whichever fill lands last
/// joins the ordered, already-encoded items into the `results` array and
/// posts the batch's single reply.
struct BatchAssembly {
    slots: Mutex<Vec<Option<String>>>,
    remaining: AtomicUsize,
    reply: Mutex<Option<Reply>>,
}

impl BatchAssembly {
    fn new(items: usize, reply: Reply) -> Arc<BatchAssembly> {
        Arc::new(BatchAssembly {
            slots: Mutex::new(vec![None; items]),
            remaining: AtomicUsize::new(items),
            reply: Mutex::new(Some(reply)),
        })
    }

    /// A ticket filling slot `index`; dropping it unfilled records an
    /// error, so a dropped job can never strand the batch.
    fn ticket(self: &Arc<BatchAssembly>, index: usize) -> BatchTicket {
        BatchTicket {
            assembly: self.clone(),
            index,
            filled: false,
        }
    }

    fn fill(&self, index: usize, item: String) {
        {
            let mut slots = self.slots.lock().unwrap();
            debug_assert!(slots[index].is_none(), "batch slot filled twice");
            slots[index] = Some(item);
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            let items: Vec<String> = std::mem::take(&mut *self.slots.lock().unwrap())
                .into_iter()
                .map(|slot| slot.unwrap_or_else(|| item_error_body(500, "request was dropped")))
                .collect();
            if let Some(reply) = self.reply.lock().unwrap().take() {
                reply.send(Response::json(
                    200,
                    batch_body(items.iter().map(String::as_str)),
                ));
            }
        }
    }
}

/// One batch item's claim on its result slot.
struct BatchTicket {
    assembly: Arc<BatchAssembly>,
    index: usize,
    filled: bool,
}

impl BatchTicket {
    fn fill(mut self, item: String) {
        self.filled = true;
        self.assembly.fill(self.index, item);
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        if !self.filled {
            self.assembly
                .fill(self.index, item_error_body(500, "request was dropped"));
        }
    }
}

/// What the acceptor and the compute workers hand to an event loop.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    replies: Vec<(usize, Response)>,
}

/// One event loop's mailbox: an inbox of new connections and finished
/// compute replies, plus the self-pipe that kicks the loop out of `poll`
/// whenever either arrives.
struct LoopShared {
    wake: WakePipe,
    inbox: Mutex<Inbox>,
}

impl LoopShared {
    fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().unwrap().conns.push(stream);
        self.wake.wake();
    }

    fn push_reply(&self, token: usize, response: Response) {
        self.inbox.lock().unwrap().replies.push((token, response));
        self.wake.wake();
    }
}

struct Shared {
    registry: Arc<CorpusRegistry>,
    config: ServerConfig,
    /// Overflow connections waiting for their `503`. Writing the rejection
    /// happens off the acceptor thread so a slow overflow client cannot
    /// stall admission; this queue is bounded too — when even it is full,
    /// the connection is dropped outright.
    rejects: Bounded<TcpStream>,
    /// Parsed pipeline requests, per-tenant bounded, drained in DRR order.
    requests: FairQueue<Job>,
    /// The live key table; swapped by manifest reloads, edited by
    /// `PUT`/`DELETE`. Only consulted when `config.auth_enabled`.
    auth: RwLock<AuthTable>,
    /// Per-tenant latency histograms and shed/cancel counters, surfaced by
    /// `/v1/stats`. Entries appear lazily the first time a tenant's work
    /// reaches the compute pool.
    metrics: RwLock<HashMap<String, Arc<TenantMetrics>>>,
    /// Per-tenant deadline budgets (ms); retuned by manifest reloads and
    /// `PATCH /v1/admin/tenants`. Tenants absent here fall back to
    /// `config.default_deadline_ms`.
    deadlines: RwLock<HashMap<String, u64>>,
    /// Per-tenant slow-trace thresholds (ms); tenants absent here fall
    /// back to `config.trace_slow_ms`.
    trace_slow: RwLock<HashMap<String, u64>>,
    /// The unified metrics registry behind `GET /metrics` — every counter
    /// in [`Counters`] and every [`TenantMetrics`] handle points into it.
    obs: Arc<MetricsRegistry>,
    /// The ring of slow-request span-tree exemplars behind
    /// `GET /v1/debug/requests`.
    trace_log: Arc<TraceLog>,
    /// The event loops, indexed by the acceptor's round-robin.
    loops: Vec<Arc<LoopShared>>,
    /// The resolved readiness backend every driver runs on (reported by
    /// `/v1/stats`).
    io_backend: IoBackend,
    /// Connections admitted and not yet closed, across all loops.
    open_connections: AtomicUsize,
    shutdown: AtomicBool,
    counters: Counters,
    hold: test_hooks::ComputeHold,
}

/// A running HTTP front end over a [`CorpusRegistry`].
///
/// Dropping the server shuts it down: the listener stops accepting, open
/// connections finish their in-flight exchange, and every thread is joined.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    rejector: Option<JoinHandle<()>>,
    drivers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the acceptor, event-loop, and compute
    /// threads.
    pub fn spawn(registry: Arc<CorpusRegistry>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let driver_count = config.driver_count();
        let loops = (0..driver_count)
            .map(|_| {
                Ok(Arc::new(LoopShared {
                    wake: WakePipe::new()?,
                    inbox: Mutex::new(Inbox::default()),
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        // Build every driver's poller up front so an unbuildable backend
        // (epoll forced off Linux, fd exhaustion) fails the spawn instead
        // of a driver thread.
        let pollers = (0..driver_count)
            .map(|_| sys::new_poller(config.io_backend))
            .collect::<io::Result<Vec<_>>>()?;
        let io_backend = pollers[0].backend();
        let requests = FairQueue::with_weights(
            config.queue_capacity,
            config.tenant_queue_capacity,
            config.tenant_weights.clone(),
        );
        for (tenant, bound) in &config.tenant_bounds {
            requests.set_tenant_bound(tenant, *bound);
        }
        for (tenant, cap) in &config.tenant_inflight {
            requests.set_inflight_cap(tenant, *cap);
        }
        let deadlines = config.tenant_deadlines.iter().cloned().collect();
        let trace_slow = config.tenant_trace_slow.iter().cloned().collect();
        let obs = Arc::new(MetricsRegistry::new());
        let counters = Counters::registered(&obs);
        let trace_log = Arc::new(TraceLog::new(config.trace_log_capacity));
        let shared = Arc::new(Shared {
            registry,
            rejects: Bounded::new((config.queue_capacity * 4).clamp(16, 256)),
            requests,
            auth: RwLock::new(config.auth.clone()),
            metrics: RwLock::new(HashMap::new()),
            deadlines: RwLock::new(deadlines),
            trace_slow: RwLock::new(trace_slow),
            obs,
            trace_log,
            loops,
            io_backend,
            config,
            open_connections: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            counters,
            hold: test_hooks::ComputeHold::default(),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("rpg-accept".to_string())
                .spawn(move || accept_loop(listener, &shared))?
        };
        let rejector = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("rpg-reject".to_string())
                .spawn(move || rejector_loop(&shared))?
        };
        let drivers = pollers
            .into_iter()
            .enumerate()
            .map(|(i, poller)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rpg-loop-{i}"))
                    .spawn(move || {
                        let me = shared.loops[i].clone();
                        event_loop(&shared, &me, poller);
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rpg-worker-{i}"))
                    .spawn(move || compute_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            rejector: Some(rejector),
            drivers,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server routes to.
    pub fn registry(&self) -> &Arc<CorpusRegistry> {
        &self.shared.registry
    }

    /// Connections currently open across all event loops.
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Event-loop driver threads serving all connections — fixed at spawn,
    /// independent of how many connections are open.
    pub fn driver_threads(&self) -> usize {
        self.drivers.len()
    }

    /// The readiness backend the event loops resolved to at spawn.
    pub fn io_backend(&self) -> IoBackend {
        self.shared.io_backend
    }

    /// Pipeline requests currently queued for compute, across all tenants.
    pub fn request_depth(&self) -> usize {
        self.shared.requests.depth()
    }

    /// Queued requests per tenant seen so far.
    pub fn tenant_depths(&self) -> Vec<(String, usize)> {
        self.shared.requests.tenant_depths()
    }

    /// A copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        let counters = &self.shared.counters;
        let (ok, client_errors, server_errors) = (
            counters.ok.get(),
            counters.client_errors.get(),
            counters.server_errors.get(),
        );
        StatsSnapshot {
            accepted: counters.accepted.get(),
            open_connections: self.open_connections() as u64,
            rejected: counters.rejected.get(),
            throttled: counters.throttled.get(),
            handled: ok + client_errors + server_errors,
            ok,
            client_errors,
            server_errors,
            pipeline: *counters.timings.lock().unwrap(),
        }
    }

    /// Applies a validated manifest to the *running* server: the registry's
    /// tenant set is diffed (create/replace/remove with epoch bumps and
    /// exact-tenant cache eviction), fair-queue weights and bounds are
    /// retuned, removed tenants' queue lanes retire once drained, and the
    /// key table is swapped — all without dropping a connection. This is
    /// what `SIGHUP` and `POST /v1/admin/reload` ride on.
    ///
    /// Corpus builds happen on the calling thread; call it from a worker
    /// or the CLI's supervisor loop, not from an event loop.
    pub fn apply_manifest(&self, manifest: &Manifest) -> Result<ManifestDiff, String> {
        apply_manifest_to(&self.shared, manifest)
    }

    /// The test suite's compute hold (see [`test_hooks::ComputeHold`]).
    #[doc(hidden)]
    pub fn compute_hold(&self) -> &test_hooks::ComputeHold {
        &self.shared.hold
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // A held worker could never post the reply the drain waits for.
        self.shared.hold.release();
        // Unblock the acceptor's `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Event loops drain before the compute pool closes: a connection in
        // `ComputeInFlight` exits its loop only once a live compute worker
        // has posted its reply.
        for loop_shared in &self.shared.loops {
            loop_shared.wake.wake();
        }
        for driver in self.drivers.drain(..) {
            let _ = driver.join();
        }
        self.shared.requests.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.rejects.close();
        if let Some(rejector) = self.rejector.take() {
            let _ = rejector.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    // Round-robin target; the acceptor is single-threaded, so a local
    // counter suffices.
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                shared.counters.accepted.inc();
                if shared.open_connections.load(Ordering::SeqCst) >= shared.config.max_connections {
                    shared.counters.rejected.inc();
                    // Hand the 503 to the rejector thread; if even the
                    // reject queue is full, drop the connection — admission
                    // never blocks and never buffers unboundedly.
                    let _ = shared.rejects.try_push(stream);
                    continue;
                }
                shared.open_connections.fetch_add(1, Ordering::SeqCst);
                let target = &shared.loops[next % shared.loops.len()];
                next = next.wrapping_add(1);
                target.push_conn(stream);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure. Some of these (EMFILE) persist
                // until another thread frees a descriptor — back off briefly
                // instead of busy-spinning the acceptor at 100% CPU.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Answers the connections the acceptor would not admit.
///
/// Beyond the trace-ID sniff the request bytes are never read, so closing
/// immediately after the write would leave unread data in the receive
/// buffer — on close that triggers a TCP RST, which can destroy the `503`
/// before the client reads it. Hence the bounded drain after the write,
/// done here on a dedicated thread so the acceptor never blocks.
fn rejector_loop(shared: &Shared) {
    while let Some(stream) = shared.rejects.pop() {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
        // Even an overflow 503 carries a trace ID the client can quote: a
        // short bounded read of whatever request bytes have already arrived
        // recovers the caller's `x-rpg-trace-id` when it sent one (the
        // header is near the head start, so one early chunk usually holds
        // it); otherwise the response echoes a freshly minted ID.
        let trace_id = sniff_trace_id(&stream).unwrap_or_else(TraceId::mint);
        let response = Response::json(503, error_body("server is at capacity, retry shortly"))
            .with_header("retry-after", shared.config.retry_after_secs.to_string())
            .with_header("x-rpg-trace-id", trace_id.to_string());
        let _ = response.write_to(&mut &stream, false);
        // Half-close: the FIN lets the client finish reading the response
        // immediately; the drain then consumes its unread request bytes so
        // the final close doesn't RST.
        let _ = stream.shutdown(Shutdown::Write);
        drain_bounded(&stream);
    }
}

fn drain_bounded(stream: &TcpStream) {
    // Both a byte cap and a wall-clock deadline: without the deadline, a
    // client trickling one byte per (sub-timeout) interval could pin this
    // thread for as long as the byte cap lasts.
    let deadline = Instant::now() + Duration::from_secs(2);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut chunk = [0u8; 16 * 1024];
    let mut drained = 0usize;
    let mut stream = stream;
    while drained < DRAIN_BYTE_CAP && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Reads whatever head bytes the overflow client has already sent (one
/// bounded, short-deadline read — the rejector must never be pinned by a
/// slow sender) and scans them for an `x-rpg-trace-id` header, so even a
/// rejector-thread `503` echoes the caller's trace ID.
fn sniff_trace_id(stream: &TcpStream) -> Option<TraceId> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut head = [0u8; 4096];
    let n = (&mut &*stream).read(&mut head).ok().filter(|&n| n > 0)?;
    extract_trace_header(&head[..n])
}

/// Finds the value of an `x-rpg-trace-id` header inside raw head bytes
/// (case-insensitive name, as HTTP requires), returning it only when it
/// parses as a valid trace ID.
fn extract_trace_header(head: &[u8]) -> Option<TraceId> {
    const NAME: &[u8] = b"x-rpg-trace-id:";
    for line in head.split(|&b| b == b'\n') {
        if line.len() < NAME.len() || !line[..NAME.len()].eq_ignore_ascii_case(NAME) {
            continue;
        }
        let value = std::str::from_utf8(&line[NAME.len()..]).ok()?;
        return TraceId::parse(value.trim_matches(|c: char| c.is_ascii_whitespace()));
    }
    None
}

/// How many bytes a closing connection will read-and-discard so the final
/// close does not RST a response still in flight.
const DRAIN_BYTE_CAP: usize = 1024 * 1024;

/// How long a closing connection stays in `Draining` waiting for the
/// peer's FIN before giving up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// The per-connection state machine phase (see the module docs for the
/// transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between requests on a persistent connection; the idle deadline runs.
    Idle,
    /// The first bytes of a request arrived; the head terminator has not.
    ReadingHead,
    /// The head parsed cleanly; the `Content-Length` body is still short.
    ReadingBody,
    /// A request was admitted to the compute queue; the connection holds
    /// no poll interest and waits for the worker's reply via the wake
    /// pipe.
    ComputeInFlight,
    /// A response is being written; `POLLOUT` drives progress.
    Writing,
    /// The final response is written and the write side half-closed; reads
    /// are discarded until FIN so the close cannot RST the response.
    Draining,
}

/// Whether a connection survives the event that was just processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Keep,
    Close,
}

struct Connection {
    stream: TcpStream,
    parse: RequestBuffer,
    phase: Phase,
    /// The phase's deadline (`None` only in `ComputeInFlight`); the loop's
    /// poll timeout is the minimum over these.
    deadline: Option<Instant>,
    /// Requests parsed on this connection, against the per-connection
    /// budget.
    served: usize,
    /// Interim bytes (`100 Continue`) queued ahead of the response, with
    /// their write cursor. Responses themselves never land here — they
    /// stream through `emitter`.
    out: Vec<u8>,
    out_pos: usize,
    /// The response currently being emitted in bounded chunks; a partial
    /// write resumes mid-chunk on the next `POLLOUT`.
    emitter: Option<ResponseEmitter>,
    /// The interest mask currently installed in the poller (`None` = not
    /// registered). Compared against [`Connection::interest`] so only an
    /// actual change costs a syscall.
    registered: Option<i16>,
    /// The keep-alive decision made when the current request was parsed;
    /// applied once its response fully drains.
    keep_alive_after: bool,
    /// Bytes discarded so far in `Draining`.
    drained: usize,
    /// Set when a hangup in `ComputeInFlight` probes as a true reset: the
    /// client is gone, so the pending reply is dropped (and the slot
    /// closed) when it arrives instead of attempting a doomed write.
    abandoned: bool,
    /// Set when a hangup in `ComputeInFlight` probes as a *graceful* FIN
    /// (`shutdown(SHUT_WR)` client, still reading): the response is still
    /// owed and deliverable, so the connection merely stops hangup-watching
    /// — the level-triggered FIN would otherwise re-report every tick.
    half_closed: bool,
    /// Cancellation flag shared with the compute job(s) of the in-flight
    /// request; flipped when the client hangs up so queued work is skipped
    /// before it runs.
    cancel: Option<Arc<AtomicBool>>,
    /// The in-flight request's trace: set when its head finishes parsing,
    /// stamped onto the response as `x-rpg-trace-id`, and consumed when
    /// the response fully drains (where the request may be retained as a
    /// slow-trace exemplar).
    trace: Option<ConnTrace>,
}

/// The driver-side view of one request's trace.
struct ConnTrace {
    /// Client-supplied (`x-rpg-trace-id`) or freshly minted.
    id: TraceId,
    /// When the request head finished parsing — the span epoch, and the
    /// origin of the exemplar's wall-clock latency.
    started: Instant,
    /// When the response started writing (stamps the `response_write`
    /// span).
    write_started: Instant,
    /// The response status, captured when the response is staged.
    status: u16,
    /// The billing tenant, once admission resolved one.
    tenant: Option<String>,
    /// The span sink shared with the compute worker. `None` when the
    /// trace ring is disabled (`trace_log_capacity == 0`) — IDs still
    /// flow, spans are not recorded.
    recorder: Option<SharedRecorder>,
}

impl ConnTrace {
    fn new(id: TraceId, now: Instant, record_spans: bool) -> ConnTrace {
        ConnTrace {
            id,
            started: now,
            write_started: now,
            status: 0,
            tenant: None,
            recorder: record_spans.then(|| Arc::new(Mutex::new(SpanRecorder::with_epoch(now)))),
        }
    }
}

impl Connection {
    fn new(stream: TcpStream, now: Instant, idle_timeout: Duration) -> Connection {
        Connection {
            stream,
            parse: RequestBuffer::new(),
            phase: Phase::Idle,
            deadline: Some(now + idle_timeout),
            served: 0,
            out: Vec::new(),
            out_pos: 0,
            emitter: None,
            registered: None,
            keep_alive_after: false,
            drained: 0,
            abandoned: false,
            half_closed: false,
            cancel: None,
            trace: None,
        }
    }

    /// Whether interim bytes are still queued (the reading phases add
    /// `POLLOUT` interest for these).
    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Unwritten bytes across the interim buffer and the staged response —
    /// the `Writing` deadline refreshes only while this shrinks.
    fn out_remaining(&self) -> usize {
        (self.out.len() - self.out_pos)
            + self.emitter.as_ref().map_or(0, ResponseEmitter::remaining)
    }

    /// The poll interest for the current phase; `None` keeps the
    /// connection out of the poll set entirely.
    fn interest(&self) -> Option<i16> {
        match self.phase {
            Phase::Idle | Phase::ReadingHead | Phase::ReadingBody => {
                // Reading phases may still owe the client an interim
                // `100 Continue` that did not fit the socket buffer.
                let events = if self.out_pending() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                };
                Some(events)
            }
            Phase::Writing => Some(POLLOUT),
            Phase::Draining => Some(POLLIN),
            // Awaiting compute, the connection wants no I/O — but the
            // entry still reports `POLLHUP`/`POLLERR`, and `POLLRDHUP` is
            // requested so a graceful FIN is visible too. A hangup is then
            // *probed* (`sys::peek_peer`): a true reset cancels the queued
            // work, while a `shutdown(SHUT_WR)` client still gets its
            // reply. Either way the fd then leaves the set (both signals
            // are level-triggered and would re-report every tick).
            Phase::ComputeInFlight => (!self.abandoned && !self.half_closed).then_some(POLLRDHUP),
        }
    }

    /// Writes as much pending output as the socket accepts — interim
    /// bytes first, then the staged response chunk by chunk. `Ok(true)`
    /// means everything (including the emitter) fully drained. On
    /// `WouldBlock` the emitter's cursor holds the resume point, so no
    /// bytes are ever re-serialised.
    fn flush_out(&mut self) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        // Only interim `100 Continue`s pass through `out` now, so the
        // buffer stays tiny; clearing keeps the capacity for reuse.
        self.out.clear();
        self.out_pos = 0;
        while let Some(emitter) = self.emitter.as_mut() {
            let Some(chunk) = emitter.next_chunk() else {
                self.emitter = None;
                break;
            };
            match (&self.stream).write(chunk) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => emitter.advance(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Stages a response for emission behind any pending interim bytes and
    /// enters `Writing` (the caller's `advance` drives the flush). The
    /// response is consumed: its body becomes the emitter's, unserialised.
    ///
    /// This is the one place the `x-rpg-trace-id` header attaches, so
    /// every response — success, 4xx, 5xx, even connection-level errors
    /// that never had a parsed request (which get a minted ID here) —
    /// carries one.
    fn start_response(
        &mut self,
        response: Response,
        keep_alive: bool,
        now: Instant,
        shared: &Shared,
    ) {
        let trace = self
            .trace
            .get_or_insert_with(|| ConnTrace::new(TraceId::mint(), now, false));
        trace.status = response.status;
        trace.write_started = now;
        let response = response.with_header("x-rpg-trace-id", trace.id.to_string());
        self.emitter = Some(ResponseEmitter::new(response, keep_alive));
        self.keep_alive_after = keep_alive;
        self.phase = Phase::Writing;
        self.deadline = Some(now + shared.config.read_timeout);
    }
}

/// The wake pipe's token in the poller — never a valid slot index (slots
/// are bounded by `max_connections`).
const WAKE_TOKEN: usize = usize::MAX;

fn event_loop(shared: &Shared, me: &Arc<LoopShared>, mut poller: Box<dyn Poller>) {
    let mut slots: Vec<Option<Connection>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let poller = poller.as_mut();
    // The one permanent registration; everything else enters and leaves
    // the interest set with its connection.
    poller
        .register(me.wake.read_fd(), WAKE_TOKEN, POLLIN)
        .expect("a fresh poller accepts the wake pipe");
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        // 1. Harvest the inbox: new connections and finished compute
        // replies.
        let (new_conns, replies) = {
            let mut inbox = me.inbox.lock().unwrap();
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.replies),
            )
        };
        let now = Instant::now();
        for stream in new_conns {
            if shutting_down {
                shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            register(&mut slots, poller, stream, now, shared);
        }
        for (token, response) in replies {
            if let Some(conn) = slots.get_mut(token).and_then(Option::as_mut) {
                conn.cancel = None;
                if conn.abandoned {
                    // The client hung up mid-compute; the reply has nowhere
                    // to go — drop it and free the slot (which stayed
                    // reserved so the reply could not be misdelivered to a
                    // successor connection).
                    close_slot(&mut slots, poller, token, shared);
                    continue;
                }
                // Honour the keep-alive decision made at parse time, unless
                // the server started draining in the meantime.
                let keep_alive = conn.keep_alive_after && !shutting_down;
                record_response(shared, response.status);
                conn.start_response(response, keep_alive, now, shared);
                if advance(conn, shared, me, token, now) == Flow::Close {
                    close_slot(&mut slots, poller, token, shared);
                } else {
                    sync_interest(&mut slots, poller, token, shared);
                }
            }
        }
        // 2. On shutdown, connections with no response in flight close
        // immediately; `ComputeInFlight` and `Writing` finish their
        // exchange, `Draining` finishes its bounded drain.
        if shutting_down {
            for token in 0..slots.len() {
                let closable = matches!(
                    slots[token].as_ref().map(|c| c.phase),
                    Some(Phase::Idle | Phase::ReadingHead | Phase::ReadingBody)
                );
                if closable {
                    close_slot(&mut slots, poller, token, shared);
                }
            }
            if slots.iter().all(Option::is_none) {
                return;
            }
        }
        // 3. The earliest deadline still comes from a userspace scan — the
        // cheap O(n) walk; what the incremental interest set removed is
        // the O(n) *kernel* hand-off per tick.
        let mut next_deadline: Option<Instant> = None;
        for slot in &slots {
            if let Some(deadline) = slot.as_ref().and_then(|conn| conn.deadline) {
                next_deadline =
                    Some(next_deadline.map_or(deadline, |current| current.min(deadline)));
            }
        }
        // 4. Sleep until the earliest deadline, capped defensively so a
        // lost wake can never park the loop for long.
        let now = Instant::now();
        let timeout = next_deadline
            .map(|deadline| deadline.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(500))
            .min(Duration::from_millis(500));
        if poller.wait(&mut events, Some(timeout)).is_err() {
            // EINVAL et al. are programming errors; treated as a timeout
            // tick so the loop stays alive (deadlines still fire).
            std::thread::sleep(Duration::from_millis(1));
        }
        // 5. Dispatch readiness by token.
        let now = Instant::now();
        for &event in &events {
            if event.token == WAKE_TOKEN {
                // Fully drained, so the next wake byte is a fresh edge.
                me.wake.drain();
                continue;
            }
            let token = event.token;
            let Some(conn) = slots.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if conn.phase == Phase::ComputeInFlight {
                // The slot must outlive the pending reply (closing it would
                // let a successor connection receive this one's response),
                // so a hangup only *marks* the connection; the reply's
                // arrival frees the slot. The hangup bits alone cannot
                // distinguish a client that `shutdown(SHUT_WR)`'d and still
                // awaits its response from one whose connection reset — the
                // probe does: only a true reset cancels the queued work.
                if event.has(POLLHUP | POLLRDHUP | POLLERR | POLLNVAL) {
                    match sys::peek_peer(conn.stream.as_raw_fd()) {
                        sys::PeerProbe::Reset => {
                            conn.abandoned = true;
                            if let Some(cancel) = &conn.cancel {
                                cancel.store(true, Ordering::SeqCst);
                            }
                            shared.hold.note_reset();
                        }
                        // A graceful FIN (possibly behind pipelined bytes):
                        // the reply is still owed and deliverable.
                        sys::PeerProbe::Eof | sys::PeerProbe::Data => conn.half_closed = true,
                        sys::PeerProbe::Pending => {}
                    }
                }
                // Either verdict drops the hangup watch (under poll the
                // level-triggered FIN would re-report every tick).
                sync_interest(&mut slots, poller, token, shared);
                continue;
            }
            if event.has(POLLERR | POLLNVAL) {
                close_slot(&mut slots, poller, token, shared);
                continue;
            }
            if event.has(POLLIN | POLLOUT | POLLHUP | POLLRDHUP) {
                if handle_ready(conn, event, poller.edge_triggered(), shared, me, token, now)
                    == Flow::Close
                {
                    close_slot(&mut slots, poller, token, shared);
                } else {
                    sync_interest(&mut slots, poller, token, shared);
                }
            }
        }
        // 6. Enforce deadlines.
        let now = Instant::now();
        for token in 0..slots.len() {
            let expired = slots[token]
                .as_ref()
                .is_some_and(|conn| conn.deadline.is_some_and(|deadline| deadline <= now));
            if !expired {
                continue;
            }
            let conn = slots[token].as_mut().expect("expired slot is live");
            if expire(conn, shared, me, token, now) == Flow::Close {
                close_slot(&mut slots, poller, token, shared);
            } else {
                sync_interest(&mut slots, poller, token, shared);
            }
        }
    }
}

/// Reconciles a connection's installed interest with what its phase wants,
/// spending a syscall only on an actual change. This is also the
/// edge-triggered re-arm point: `modify` reports conditions that are
/// *already* true on the next wait, so calling this after every state
/// transition is what makes interest-on-transition safe under `EPOLLET` —
/// a response finishing while the socket was writable all along, or
/// pipelined bytes buffered behind a phase change, still surface.
fn sync_interest(
    slots: &mut [Option<Connection>],
    poller: &mut dyn Poller,
    token: usize,
    shared: &Shared,
) {
    let Some(conn) = slots[token].as_mut() else {
        return;
    };
    let desired = conn.interest();
    if conn.registered == desired {
        return;
    }
    let fd = conn.stream.as_raw_fd();
    let outcome = match (conn.registered, desired) {
        (None, Some(interest)) => poller.register(fd, token, interest),
        (Some(_), None) => poller.deregister(fd, token),
        (Some(_), Some(interest)) => poller.modify(fd, token, interest),
        (None, None) => Ok(()),
    };
    match outcome {
        Ok(()) => conn.registered = desired,
        Err(_) => {
            // An fd the kernel refuses to track cannot be served; the
            // failed transition also voids whatever registration it had.
            conn.registered = None;
            close_slot(slots, poller, token, shared);
        }
    }
}

fn register(
    slots: &mut Vec<Option<Connection>>,
    poller: &mut dyn Poller,
    stream: TcpStream,
    now: Instant,
    shared: &Shared,
) {
    if stream.set_nonblocking(true).is_err() {
        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    // Responses are small and latency-bound: never let Nagle hold one back
    // waiting for a delayed ACK on a persistent connection.
    let _ = stream.set_nodelay(true);
    let conn = Connection::new(stream, now, shared.config.idle_timeout);
    let token = match slots.iter().position(Option::is_none) {
        Some(at) => {
            slots[at] = Some(conn);
            at
        }
        None => {
            slots.push(Some(conn));
            slots.len() - 1
        }
    };
    // Enters the poll set once here; from now on only state transitions
    // touch it.
    sync_interest(slots, poller, token, shared);
}

fn close_slot(
    slots: &mut [Option<Connection>],
    poller: &mut dyn Poller,
    token: usize,
    shared: &Shared,
) {
    if let Some(conn) = slots[token].take() {
        if conn.registered.is_some() {
            // Deregister before the fd drops: the kernel removes epoll
            // entries with the last close anyway, but the poll backend
            // keys on the raw fd number, which the next accept may reuse.
            let _ = poller.deregister(conn.stream.as_raw_fd(), token);
        }
        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Feeds one readiness event into a connection and advances its state
/// machine as far as the buffered bytes allow.
fn handle_ready(
    conn: &mut Connection,
    event: Event,
    edge_triggered: bool,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    if event.has(POLLIN | POLLHUP | POLLRDHUP)
        && matches!(
            conn.phase,
            Phase::Idle | Phase::ReadingHead | Phase::ReadingBody
        )
    {
        loop {
            // Consume what the kernel has buffered in bursts of 16 chunks,
            // parsing between bursts so a huge body is bounded by the
            // request limits, not by how fast the client can send. Under
            // level-triggered poll one burst per tick suffices (leftovers
            // re-report); an edge-triggered backend must drain to
            // `WouldBlock` before waiting again, hence the outer loop.
            let mut peer_eof = false;
            let mut drained_dry = false;
            for _ in 0..16 {
                match conn.parse.read_from(&mut &conn.stream) {
                    Ok(0) => {
                        peer_eof = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        drained_dry = true;
                        break;
                    }
                    Err(_) => return Flow::Close,
                }
            }
            if peer_eof {
                // The peer's data and FIN may land in the same readiness
                // batch (write-then-shutdown is a legal client pattern), so
                // any fully buffered requests are served *first*; only what
                // remains after parsing counts as truncation.
                let flow = advance(conn, shared, me, token, now);
                if flow == Flow::Close
                    || !matches!(
                        conn.phase,
                        Phase::Idle | Phase::ReadingHead | Phase::ReadingBody
                    )
                {
                    // A response is in flight (or the connection is
                    // closing); the EOF is re-observed once that phase's
                    // transition re-arms readability.
                    return flow;
                }
                if conn.phase == Phase::Idle && !conn.parse.has_buffered() {
                    // Clean goodbye between requests.
                    return Flow::Close;
                }
                // A partial request was truncated mid-stream: tell the peer
                // why before closing — it may have half-closed and still be
                // reading (matching the blocking parser's `Incomplete`).
                let e = http::HttpError::Incomplete;
                let response = Response::json(e.status(), error_body(&e.message()));
                record_response(shared, response.status);
                conn.start_response(response, false, now, shared);
                break;
            }
            if advance(conn, shared, me, token, now) == Flow::Close {
                return Flow::Close;
            }
            if !edge_triggered || drained_dry {
                break;
            }
            if !matches!(
                conn.phase,
                Phase::Idle | Phase::ReadingHead | Phase::ReadingBody
            ) {
                // A response or compute is now in flight; whatever is still
                // unread surfaces when the phase transition back to reading
                // re-arms `POLLIN`.
                break;
            }
        }
    }
    advance(conn, shared, me, token, now)
}

/// Runs the state machine until it needs more I/O readiness, more compute,
/// or decides to close. This is the only place phases transition.
fn advance(
    conn: &mut Connection,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    loop {
        match conn.phase {
            Phase::Idle | Phase::ReadingHead | Phase::ReadingBody => {
                // An interim `100 Continue` may still be queued; push it
                // while the socket allows.
                if conn.out_pending() && conn.flush_out().is_err() {
                    return Flow::Close;
                }
                let mut wants_continue = false;
                match conn
                    .parse
                    .try_parse(&shared.config.limits, || wants_continue = true)
                {
                    Ok(Parse::Complete(request)) => {
                        if wants_continue {
                            conn.out.extend_from_slice(http::CONTINUE);
                        }
                        if handle_request(conn, &request, shared, me, token, now) == Flow::Close {
                            return Flow::Close;
                        }
                        // `ComputeInFlight` waits for the worker; `Writing`
                        // loops back in to flush.
                        if conn.phase == Phase::ComputeInFlight {
                            return Flow::Keep;
                        }
                    }
                    Ok(Parse::NeedHead) => {
                        if conn.phase == Phase::Idle && conn.parse.has_buffered() {
                            // First bytes of a new request: the per-request
                            // read deadline starts now.
                            conn.phase = Phase::ReadingHead;
                            conn.deadline = Some(now + shared.config.read_timeout);
                        }
                        return Flow::Keep;
                    }
                    Ok(Parse::NeedBody) => {
                        if wants_continue {
                            conn.out.extend_from_slice(http::CONTINUE);
                            if conn.flush_out().is_err() {
                                return Flow::Close;
                            }
                        }
                        if conn.phase == Phase::Idle {
                            // Head arrived in one gulp off an idle socket.
                            conn.deadline = Some(now + shared.config.read_timeout);
                        }
                        conn.phase = Phase::ReadingBody;
                        return Flow::Keep;
                    }
                    Err(e) => {
                        // Framing is lost after a parse error, so the
                        // connection always closes — which is also what
                        // keeps the conformance rejections (`501`
                        // Transfer-Encoding, duplicate Content-Length
                        // `400`) smuggling-proof.
                        let response = Response::json(e.status(), error_body(&e.message()));
                        record_response(shared, response.status);
                        conn.start_response(response, false, now, shared);
                    }
                }
            }
            Phase::Writing => {
                let progress_mark = conn.out_remaining();
                match conn.flush_out() {
                    Err(_) => return Flow::Close,
                    Ok(false) => {
                        // The deadline is progress-based, like the old
                        // per-write socket timeout: a slow-but-moving
                        // reader of a large response gets a fresh window
                        // with every accepted chunk, while a fully stalled
                        // one is still cut off after `read_timeout`.
                        if conn.out_remaining() < progress_mark {
                            conn.deadline = Some(now + shared.config.read_timeout);
                        }
                        return Flow::Keep;
                    }
                    Ok(true) => {
                        finish_trace(conn, shared, now);
                        if conn.keep_alive_after && !shared.shutdown.load(Ordering::SeqCst) {
                            conn.phase = Phase::Idle;
                            conn.deadline = Some(now + shared.config.idle_timeout);
                            // Pipelined bytes already buffered parse
                            // without waiting for the socket: loop
                            // straight back in.
                        } else {
                            // Half-close, then discard whatever the client
                            // still sends: closing with unread bytes in
                            // the kernel buffer triggers an RST that can
                            // destroy the final response in flight.
                            let _ = conn.stream.shutdown(Shutdown::Write);
                            conn.phase = Phase::Draining;
                            conn.deadline = Some(now + DRAIN_DEADLINE);
                            conn.drained = 0;
                            return Flow::Keep;
                        }
                    }
                }
            }
            Phase::Draining => {
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match (&conn.stream).read(&mut chunk) {
                        Ok(0) => return Flow::Close,
                        Ok(n) => {
                            conn.drained += n;
                            if conn.drained >= DRAIN_BYTE_CAP {
                                return Flow::Close;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flow::Keep,
                        Err(_) => return Flow::Close,
                    }
                }
            }
            Phase::ComputeInFlight => return Flow::Keep,
        }
    }
}

/// Handles a phase deadline firing.
fn expire(
    conn: &mut Connection,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    match conn.phase {
        // An idle keep-alive connection that outlived its welcome closes
        // silently, exactly like the blocking driver's idle wait did.
        Phase::Idle => Flow::Close,
        // Mid-request the client gets told why before the close: the whole
        // request must arrive within the read deadline, however slowly it
        // trickles.
        Phase::ReadingHead | Phase::ReadingBody => {
            let e = http::HttpError::Timeout;
            let response = Response::json(e.status(), error_body(&e.message()));
            record_response(shared, response.status);
            conn.start_response(response, false, now, shared);
            advance(conn, shared, me, token, now)
        }
        // A peer too slow to take its response (or its FIN) forfeits the
        // courtesy drain.
        Phase::Writing | Phase::Draining => Flow::Close,
        Phase::ComputeInFlight => Flow::Keep,
    }
}

fn record_response(shared: &Shared, status: u16) {
    let counters = &shared.counters;
    match status {
        200..=299 => counters.ok.inc(),
        400..=499 => counters.client_errors.inc(),
        _ => counters.server_errors.inc(),
    };
}

/// Completes a request's trace once its response fully drained: stamps the
/// `response_write` span and, when the request was slow enough for its
/// tenant's threshold, retains it as an exemplar in the trace ring.
fn finish_trace(conn: &mut Connection, shared: &Shared, now: Instant) {
    let Some(trace) = conn.trace.take() else {
        return;
    };
    let Some(recorder) = trace.recorder else {
        return;
    };
    let latency = now.saturating_duration_since(trace.started);
    let spans = match recorder.lock() {
        Ok(mut rec) => {
            rec.record_between(None, "response_write", trace.write_started, now);
            rec.spans().to_vec()
        }
        Err(_) => return,
    };
    let threshold_ms = trace
        .tenant
        .as_deref()
        .and_then(|tenant| shared.trace_slow.read().unwrap().get(tenant).copied())
        .unwrap_or(shared.config.trace_slow_ms);
    if latency < Duration::from_millis(threshold_ms) {
        return;
    }
    shared.trace_log.push(TraceRecord {
        id: trace.id,
        tenant: trace.tenant,
        status: trace.status,
        latency,
        unix_ms: unix_ms_now(),
        spans,
    });
}

/// Parses one request's routing outcome: answered inline on the loop, or
/// admitted to the compute queue with the reply addressed back here.
fn handle_request(
    conn: &mut Connection,
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    now: Instant,
) -> Flow {
    conn.served += 1;
    let config = &shared.config;
    let keep_alive = config.keep_alive
        && request.keep_alive
        && conn.served < config.max_requests_per_connection.max(1)
        && !shared.shutdown.load(Ordering::SeqCst);
    conn.keep_alive_after = keep_alive;
    // Resolve the request's trace identity first: accepted from a valid
    // `x-rpg-trace-id` header, minted otherwise — so even the rejection
    // paths below echo an ID. A malformed header is a 400 (silently
    // re-minting would break the caller's correlation, the one thing the
    // header exists for).
    let trace = match header_trace_id(request) {
        Ok(id) => RequestTrace {
            id: id.unwrap_or_else(TraceId::mint),
            recorder: None,
        },
        Err(response) => {
            conn.trace = Some(ConnTrace::new(TraceId::mint(), now, false));
            record_response(shared, response.status);
            conn.start_response(response, keep_alive, now, shared);
            return Flow::Keep;
        }
    };
    let mut conn_trace = ConnTrace::new(trace.id, now, shared.config.trace_log_capacity > 0);
    let trace = RequestTrace {
        id: trace.id,
        recorder: conn_trace.recorder.clone(),
    };
    // One cancellation flag per queued exchange, shared with every compute
    // job the request spawns: a mid-compute hangup flips it so the work is
    // skipped before it runs.
    let cancel = Arc::new(AtomicBool::new(false));
    // A panic inside a handler must never take the event loop down with
    // it — compute workers guard their side; this guards the loop's inline
    // routes.
    let routed = catch_unwind(AssertUnwindSafe(|| {
        route(request, shared, me, token, &cancel, &trace)
    }))
    .unwrap_or_else(|_| Routed::Inline(Response::json(500, error_body("internal error"))));
    match routed {
        Routed::Inline(response) => {
            conn.trace = Some(conn_trace);
            record_response(shared, response.status);
            conn.start_response(response, keep_alive, now, shared);
            Flow::Keep
        }
        Routed::Queued(tenant) => {
            conn_trace.tenant = tenant;
            conn.trace = Some(conn_trace);
            // Push any pending interim `100 Continue` now: the connection
            // holds no write interest while compute runs, and the client
            // deserves the interim response before the wait, not bundled
            // with the final one. A write failure here is the hangup case —
            // `POLLHUP`/`POLLERR` watching picks it up next tick.
            if conn.out_pending() {
                let _ = conn.flush_out();
            }
            conn.phase = Phase::ComputeInFlight;
            conn.deadline = None;
            conn.abandoned = false;
            conn.half_closed = false;
            conn.cancel = Some(cancel);
            Flow::Keep
        }
    }
}

/// Where a request went after routing.
enum Routed {
    /// Answered on the event loop without touching the compute pool.
    Inline(Response),
    /// Admitted to the fair queue under the named billing tenant (`None`
    /// for mixed-tenant batches); a compute worker will post the reply.
    Queued(Option<String>),
}

/// The worker-side slice of one request's trace, riding its [`Job`]s: the
/// ID (entered as the thread-local logging context while the job runs)
/// and the span sink shared with the owning connection.
#[derive(Clone)]
struct RequestTrace {
    id: TraceId,
    recorder: Option<SharedRecorder>,
}

/// Parses the client's `x-rpg-trace-id` header: `Ok(None)` when absent,
/// `Ok(Some(id))` for a well-formed ID. Anything else — wrong length,
/// non-hex, the reserved all-zero ID — is a `400` naming the header,
/// because silently substituting a minted ID would defeat the correlation
/// the caller asked for.
fn header_trace_id(request: &Request) -> Result<Option<TraceId>, Response> {
    let Some(raw) = request.header("x-rpg-trace-id") else {
        return Ok(None);
    };
    match TraceId::parse(raw.trim()) {
        Some(id) => Ok(Some(id)),
        None => Err(Response::json(
            400,
            error_body(&format!(
                "invalid x-rpg-trace-id {raw:?}: expected exactly 32 hex \
                 characters (and not all zero)"
            )),
        )),
    }
}

/// The authenticated identity of one request, or `None` when the server
/// runs with auth off (legacy self-declared tenancy).
fn authenticate(request: &Request, shared: &Shared) -> Option<Principal> {
    if !shared.config.auth_enabled {
        return None;
    }
    let bearer = bearer_token(request.header("authorization"));
    Some(shared.auth.read().unwrap().principal(bearer))
}

/// The `401` for requests that present no (valid) key while auth is on.
fn unauthorized() -> Response {
    Response::json(401, error_body("missing or invalid bearer key"))
        .with_header("www-authenticate", "Bearer")
}

/// Rejects non-admin principals: `401` for anonymous callers, `403` for
/// tenant keys (authenticated, but not entitled to the control plane).
/// `None` means the caller may proceed.
fn require_admin(principal: &Option<Principal>) -> Option<Response> {
    match principal {
        None | Some(Principal::Admin) => None,
        Some(Principal::Anonymous) => Some(unauthorized()),
        Some(Principal::Tenant(_)) => Some(Response::json(
            403,
            error_body("admin key required for this endpoint"),
        )),
    }
}

/// Rejects anonymous callers; any tenant or admin key passes. `None` means
/// the caller may proceed.
fn require_key(principal: &Option<Principal>) -> Option<Response> {
    match principal {
        Some(Principal::Anonymous) => Some(unauthorized()),
        _ => None,
    }
}

/// Routes one request: cheap endpoints inline on the loop, pipeline work
/// through the per-tenant fair queue. `cancel` rides along on queued work
/// so a client hangup can void it before it runs.
fn route(
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    cancel: &Arc<AtomicBool>,
    trace: &RequestTrace,
) -> Routed {
    let principal = authenticate(request, shared);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/generate") => {
            admit_generate(request, &principal, shared, me, token, cancel, trace)
        }
        ("POST", "/v1/batch") => admit_batch(request, &principal, shared, me, token, cancel, trace),
        ("GET", "/v1/healthz") => Routed::Inline(handle_healthz(shared)),
        ("GET", "/v1/stats") => Routed::Inline(handle_stats(shared)),
        ("GET", "/metrics") => Routed::Inline(handle_metrics(shared)),
        ("GET", "/v1/debug/requests") => Routed::Inline(
            require_admin(&principal).unwrap_or_else(|| handle_debug_requests(shared)),
        ),
        ("GET", "/v1/corpora") => Routed::Inline(
            require_key(&principal).unwrap_or_else(|| handle_corpora_list(shared, &principal)),
        ),
        ("POST", "/v1/admin/reload") => match require_admin(&principal) {
            Some(rejection) => Routed::Inline(rejection),
            None => admit_reload(request, shared, me, token, cancel, trace),
        },
        (method, path) => {
            if let Some(tenant) = admin_tenant_target(path) {
                return Routed::Inline(if method == "PATCH" {
                    require_admin(&principal)
                        .unwrap_or_else(|| handle_tenant_patch(tenant, &request.body, shared))
                } else {
                    Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "PATCH")
                });
            }
            if let Some(tenant) = refresh_target(path) {
                return match require_admin(&principal) {
                    Some(rejection) => Routed::Inline(rejection),
                    None if method == "POST" => {
                        admit_refresh(tenant, request, shared, me, token, cancel, trace)
                    }
                    None => Routed::Inline(
                        Response::json(405, error_body("method not allowed"))
                            .with_header("allow", "POST"),
                    ),
                };
            }
            if let Some(tenant) = snapshot_target(path) {
                return Routed::Inline(match require_admin(&principal) {
                    Some(rejection) => rejection,
                    None if method == "GET" => handle_snapshot_export(tenant, shared),
                    None => Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "GET"),
                });
            }
            if let Some(tenant) = corpus_target(path) {
                return match method {
                    "PUT" => match require_admin(&principal) {
                        Some(rejection) => Routed::Inline(rejection),
                        None => admit_put(tenant, request, shared, me, token, cancel, trace),
                    },
                    "DELETE" => Routed::Inline(
                        require_admin(&principal)
                            .unwrap_or_else(|| handle_corpus_delete(tenant, shared)),
                    ),
                    _ => Routed::Inline(
                        Response::json(405, error_body("method not allowed"))
                            .with_header("allow", "PUT, DELETE"),
                    ),
                };
            }
            Routed::Inline(match (method, path) {
                (_, "/v1/generate") | (_, "/v1/batch") | (_, "/v1/admin/reload") => {
                    Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "POST")
                }
                (_, "/v1/healthz")
                | (_, "/v1/stats")
                | (_, "/v1/corpora")
                | (_, "/metrics")
                | (_, "/v1/debug/requests") => {
                    Response::json(405, error_body("method not allowed"))
                        .with_header("allow", "GET")
                }
                _ => Response::json(404, error_body("no such endpoint")),
            })
        }
    }
}

/// The tenant named by a `/v1/corpora/:name/refresh` path, if this is one.
fn refresh_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/corpora/")
        .and_then(|rest| rest.strip_suffix("/refresh"))
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// The tenant named by a `/v1/corpora/:name/snapshot` path, if this is
/// one.
fn snapshot_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/corpora/")
        .and_then(|rest| rest.strip_suffix("/snapshot"))
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// The tenant named by a bare `/v1/corpora/:name` path, if this is one.
fn corpus_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/corpora/")
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// The tenant named by a `/v1/admin/tenants/:name` path, if this is one.
fn admin_tenant_target(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/admin/tenants/")
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

fn parse_body<T: Deserialize>(body: &[u8]) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, error_body("body is not UTF-8")))?;
    serde_json::from_str(text)
        .map_err(|e| Response::json(400, error_body(&format!("invalid request body: {e}"))))
}

/// How one request (or batch item) resolves to the tenant it is billed to.
enum Billing {
    /// Admit under this tenant.
    Tenant(String),
    /// Reject with this status/message (cross-tenant `403`, anonymous
    /// `401`).
    Reject(u16, String),
}

/// The tenant a request naming `corpus` is billed to, under the given
/// principal. With auth off the self-declared field stays authoritative;
/// with auth on a tenant key bills itself (its own corpus name is the only
/// one it may also spell out), and an admin key may target any corpus.
fn billing_tenant(corpus: Option<&str>, principal: &Option<Principal>, shared: &Shared) -> Billing {
    match principal {
        None => Billing::Tenant(corpus.unwrap_or(&shared.config.default_corpus).to_string()),
        Some(Principal::Admin) => {
            Billing::Tenant(corpus.unwrap_or(&shared.config.default_corpus).to_string())
        }
        Some(Principal::Tenant(own)) => match corpus {
            Some(named) if named != own => Billing::Reject(
                403,
                format!("key for tenant {own:?} cannot access corpus {named:?}"),
            ),
            _ => Billing::Tenant(own.clone()),
        },
        Some(Principal::Anonymous) => {
            Billing::Reject(401, "missing or invalid bearer key".to_string())
        }
    }
}

/// Validates a generate request on the loop (cheap), then queues it under
/// its (authenticated) tenant. Request-level errors never consume queue
/// budget.
fn admit_generate(
    request: &Request,
    principal: &Option<Principal>,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    cancel: &Arc<AtomicBool>,
    trace: &RequestTrace,
) -> Routed {
    let dto: GenerateRequest = match parse_body(&request.body) {
        Ok(dto) => dto,
        Err(response) => return Routed::Inline(response),
    };
    // Resolve before the corpus check so a bad variant is a 400 even for
    // an unknown corpus; the resolved form rides the job to the compute
    // worker so validation happens exactly once.
    let mut resolved = match ResolvedRequest::resolve(&dto) {
        Ok(resolved) => resolved,
        Err(e) => return Routed::Inline(Response::json(e.status, e.body())),
    };
    let tenant = match billing_tenant(dto.corpus.as_deref(), principal, shared) {
        Billing::Tenant(tenant) => tenant,
        Billing::Reject(401, _) => return Routed::Inline(unauthorized()),
        Billing::Reject(status, message) => {
            return Routed::Inline(Response::json(status, error_body(&message)))
        }
    };
    if !shared.registry.contains(&tenant) {
        let e = registry_error(RegistryError::UnknownCorpus(tenant));
        return Routed::Inline(Response::json(e.status, e.body()));
    }
    // A tenant may declare a default variant (manifest `variant` field);
    // it applies only when the request does not choose one itself.
    if dto.variant.is_none() {
        if let Some(variant) = shared.registry.default_variant(&tenant) {
            resolved.variant = variant;
        }
    }
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let deadline = effective_deadline(header_ms, &tenant, shared);
    let work = Work::Generate(tenant.clone(), resolved);
    submit(shared, &tenant, work, me, token, cancel, deadline, trace)
}

/// Admits a batch *per item*: every item is validated on the loop, billed
/// to its own (authenticated) tenant, and queued as its own fair-queue
/// entry — so a mixed-corpus batch draws on each tenant's budget
/// separately, and a tenant at capacity costs exactly its own items a
/// per-item `429` inside the `200` batch response instead of sinking the
/// whole batch.
fn admit_batch(
    request: &Request,
    principal: &Option<Principal>,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    cancel: &Arc<AtomicBool>,
    trace: &RequestTrace,
) -> Routed {
    let batch: BatchRequest = match parse_body(&request.body) {
        Ok(batch) => batch,
        Err(response) => return Routed::Inline(response),
    };
    if batch.requests.len() > MAX_BATCH {
        return Routed::Inline(Response::json(
            400,
            error_body(&format!(
                "batch of {} exceeds the {MAX_BATCH}-request limit",
                batch.requests.len()
            )),
        ));
    }
    if batch.requests.is_empty() {
        return Routed::Inline(Response::json(200, batch_body([])));
    }
    // An anonymous caller is a request-level 401, not 256 item errors.
    if matches!(principal, Some(Principal::Anonymous)) {
        return Routed::Inline(unauthorized());
    }
    // The deadline header covers the whole batch; a bad one is a
    // request-level 400 before any item is admitted.
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let assembly = BatchAssembly::new(batch.requests.len(), Reply::new(me.clone(), token));
    let retry_after = shared.config.retry_after_secs;
    for (index, dto) in batch.requests.iter().enumerate() {
        let ticket = assembly.ticket(index);
        let mut resolved = match ResolvedRequest::resolve(dto) {
            Ok(resolved) => resolved,
            Err(e) => {
                ticket.fill(item_error_body(e.status, &e.message));
                continue;
            }
        };
        let tenant = match billing_tenant(dto.corpus.as_deref(), principal, shared) {
            Billing::Tenant(tenant) => tenant,
            Billing::Reject(status, message) => {
                ticket.fill(item_error_body(status, &message));
                continue;
            }
        };
        if !shared.registry.contains(&tenant) {
            ticket.fill(item_error_body(404, &format!("unknown corpus {tenant:?}")));
            continue;
        }
        if dto.variant.is_none() {
            if let Some(variant) = shared.registry.default_variant(&tenant) {
                resolved.variant = variant;
            }
        }
        let job = Job {
            work: Work::BatchItem {
                ticket,
                corpus: tenant.clone(),
                resolved,
            },
            reply: None,
            cancelled: cancel.clone(),
            lane: tenant.clone(),
            admitted_at: Instant::now(),
            deadline: effective_deadline(header_ms, &tenant, shared),
            trace: trace.clone(),
        };
        match shared.requests.try_push(&tenant, job) {
            Ok(()) => {}
            Err(rejection) => {
                let (status, message) = match &rejection {
                    Rejection::TenantFull(_) => {
                        shared.counters.throttled.inc();
                        (
                            429,
                            format!("tenant {tenant:?} is at capacity, retry after {retry_after}s"),
                        )
                    }
                    Rejection::QueueFull(_) => {
                        shared.counters.rejected.inc();
                        (503, "server is at capacity, retry shortly".to_string())
                    }
                    Rejection::Closed(_) => (503, "server is shutting down".to_string()),
                };
                let job = rejection.into_inner();
                if let Work::BatchItem { ticket, .. } = job.work {
                    ticket.fill(item_error_body(status, &message));
                }
            }
        }
    }
    // The assembly owns the batch's reply; once the last item fills (which
    // may already have happened, if everything was rejected inline) the
    // assembled response travels the normal reply path. A mixed-corpus
    // batch has no single billing tenant for the exemplar record.
    Routed::Queued(None)
}

/// Queues an artifact rebuild for one tenant, billed to that tenant.
fn admit_refresh(
    tenant: &str,
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    cancel: &Arc<AtomicBool>,
    trace: &RequestTrace,
) -> Routed {
    if !shared.registry.contains(tenant) {
        let e = registry_error(RegistryError::UnknownCorpus(tenant.to_string()));
        return Routed::Inline(Response::json(e.status, e.body()));
    }
    let tenant = tenant.to_string();
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let deadline = effective_deadline(header_ms, &tenant, shared);
    let work = Work::Refresh(tenant.clone());
    submit(shared, &tenant, work, me, token, cancel, deadline, trace)
}

/// Queues a corpus-spec build-and-swap for one tenant (`PUT`), billed to
/// that tenant's lane (which the push creates for a brand-new tenant).
fn admit_put(
    tenant: &str,
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    cancel: &Arc<AtomicBool>,
    trace: &RequestTrace,
) -> Routed {
    if !valid_tenant_name(tenant) {
        return Routed::Inline(Response::json(
            400,
            error_body(&format!("invalid tenant name {tenant:?}")),
        ));
    }
    let config: TenantConfig = match parse_body(&request.body) {
        Ok(config) => config,
        Err(response) => return Routed::Inline(response),
    };
    // Cheap validation on the loop; the build itself runs on a worker.
    if let Err(e) = config
        .corpus_spec()
        .and_then(|spec| spec.corpus_config().map(|_| ()))
        .and_then(|()| config.default_variant().map(|_| ()))
    {
        return Routed::Inline(Response::json(400, error_body(&e.to_string())));
    }
    if config.weight == Some(0) || config.queue == Some(0) {
        return Routed::Inline(Response::json(
            400,
            error_body("weight and queue must be at least 1"),
        ));
    }
    if config.inflight == Some(0) || config.deadline_ms == Some(0) {
        return Routed::Inline(Response::json(
            400,
            error_body("inflight and deadline_ms must be at least 1"),
        ));
    }
    // A zero share would self-evict the tenant's cache entry on every
    // insert; reject it like the other zero-valued tuning knobs.
    if config.cache_share == Some(0) {
        return Routed::Inline(Response::json(
            400,
            error_body("cache_share must be at least 1"),
        ));
    }
    // Key rules match manifest validation: the wire path must not accept
    // (and then silently drop) keys the manifest would reject — an empty
    // key, or one already claimed by the admin set or another tenant.
    if shared.config.auth_enabled {
        let table = shared.auth.read().unwrap();
        for key in config.keys() {
            if key.is_empty() {
                return Routed::Inline(Response::json(
                    400,
                    error_body("api keys must be non-empty"),
                ));
            }
            match table.principal(Some(key)) {
                Principal::Admin => {
                    return Routed::Inline(Response::json(
                        400,
                        error_body(&format!("api key {key:?} is already an admin key")),
                    ));
                }
                Principal::Tenant(owner) if owner != tenant => {
                    return Routed::Inline(Response::json(
                        400,
                        error_body(&format!(
                            "api key {key:?} is already claimed by tenant {owner:?}"
                        )),
                    ));
                }
                _ => {}
            }
        }
        for hash in config.hashed_keys() {
            let Some(stored) = StoredKey::parse(hash) else {
                return Routed::Inline(Response::json(
                    400,
                    error_body(&format!(
                        "malformed key_hash {hash:?}: expected \
                         \"<salt-hex>:<digest-hex>\" from `rpg hash-key`"
                    )),
                ));
            };
            match table.encoded_owner(&stored) {
                Some(Principal::Admin) => {
                    return Routed::Inline(Response::json(
                        400,
                        error_body(&format!("key_hash {hash:?} is already an admin key")),
                    ));
                }
                Some(Principal::Tenant(owner)) if owner != tenant => {
                    return Routed::Inline(Response::json(
                        400,
                        error_body(&format!(
                            "key_hash {hash:?} is already claimed by tenant {owner:?}"
                        )),
                    ));
                }
                _ => {}
            }
        }
    }
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let deadline = effective_deadline(header_ms, tenant, shared);
    let work = Work::Put {
        name: tenant.to_string(),
        config: Box::new(config),
    };
    submit(shared, tenant, work, me, token, cancel, deadline, trace)
}

/// Queues a manifest re-read-and-apply, billed to the reserved admin lane.
fn admit_reload(
    request: &Request,
    shared: &Shared,
    me: &Arc<LoopShared>,
    token: usize,
    cancel: &Arc<AtomicBool>,
    trace: &RequestTrace,
) -> Routed {
    if shared.config.manifest_path.is_none() {
        return Routed::Inline(Response::json(
            409,
            error_body("server was started without --manifest; nothing to reload"),
        ));
    }
    let header_ms = match header_deadline_ms(request) {
        Ok(header_ms) => header_ms,
        Err(response) => return Routed::Inline(response),
    };
    let deadline = effective_deadline(header_ms, ADMIN_LANE, shared);
    submit(
        shared,
        ADMIN_LANE,
        Work::Reload,
        me,
        token,
        cancel,
        deadline,
        trace,
    )
}

/// The tenant's metrics cell, created (and registered into the shared
/// metrics registry, labelled with the tenant) on first touch.
fn tenant_metrics(shared: &Shared, tenant: &str) -> Arc<TenantMetrics> {
    if let Some(metrics) = shared.metrics.read().unwrap().get(tenant) {
        return metrics.clone();
    }
    shared
        .metrics
        .write()
        .unwrap()
        .entry(tenant.to_string())
        .or_insert_with(|| Arc::new(TenantMetrics::registered(&shared.obs, tenant)))
        .clone()
}

/// Parses and validates the client's `x-rpg-deadline-ms` header:
/// `Ok(None)` when absent, `Ok(Some(ms))` for a positive integer. Zero and
/// malformed values are a `400` with a pointed message — a zero budget is
/// already expired on arrival, so accepting it would shed every request as
/// a `503` billed to the tenant's `shed` counter, and silently ignoring
/// garbage would run the request with no deadline at all, the opposite of
/// what the caller asked for.
fn header_deadline_ms(request: &Request) -> Result<Option<u64>, Response> {
    let Some(raw) = request.header("x-rpg-deadline-ms") else {
        return Ok(None);
    };
    match raw.trim().parse::<u64>() {
        Ok(0) => Err(Response::json(
            400,
            error_body(
                "x-rpg-deadline-ms must be at least 1: a zero budget is already \
                 expired on arrival and every request would be shed",
            ),
        )),
        Ok(ms) => Ok(Some(ms)),
        Err(_) => Err(Response::json(
            400,
            error_body(&format!(
                "invalid x-rpg-deadline-ms {raw:?}: expected a positive integer \
                 millisecond budget"
            )),
        )),
    }
}

/// The absolute deadline a request admitted now must meet: the minimum of
/// the client's validated `x-rpg-deadline-ms` budget (see
/// [`header_deadline_ms`]) and the tenant's policy budget (manifest
/// `deadline_ms`, falling back to the server-wide default). `None` — no
/// header, no policy — means the work never expires queued.
fn effective_deadline(header_ms: Option<u64>, tenant: &str, shared: &Shared) -> Option<Instant> {
    let policy_ms = shared
        .deadlines
        .read()
        .unwrap()
        .get(tenant)
        .copied()
        .or(shared.config.default_deadline_ms);
    let budget_ms = match (header_ms, policy_ms) {
        (Some(header), Some(policy)) => Some(header.min(policy)),
        (header, policy) => header.or(policy),
    };
    budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// Offers work to the fair queue; turns per-tenant overflow into `429` and
/// global overflow into `503`, both answered inline without a reply ever
/// being owed.
#[allow(clippy::too_many_arguments)]
fn submit(
    shared: &Shared,
    tenant: &str,
    work: Work,
    me: &Arc<LoopShared>,
    token: usize,
    cancel: &Arc<AtomicBool>,
    deadline: Option<Instant>,
    trace: &RequestTrace,
) -> Routed {
    let job = Job {
        work,
        reply: Some(Reply::new(me.clone(), token)),
        cancelled: cancel.clone(),
        lane: tenant.to_string(),
        admitted_at: Instant::now(),
        deadline,
        trace: trace.clone(),
    };
    let retry_after = shared.config.retry_after_secs.to_string();
    match shared.requests.try_push(tenant, job) {
        Ok(()) => Routed::Queued(Some(tenant.to_string())),
        Err(Rejection::TenantFull(job)) => {
            cancel_reply(job);
            shared.counters.throttled.inc();
            Routed::Inline(
                Response::json(
                    429,
                    error_body(&format!("tenant {tenant:?} is at capacity, retry shortly")),
                )
                .with_header("retry-after", retry_after),
            )
        }
        Err(Rejection::QueueFull(job)) => {
            cancel_reply(job);
            shared.counters.rejected.inc();
            Routed::Inline(
                Response::json(503, error_body("server is at capacity, retry shortly"))
                    .with_header("retry-after", retry_after),
            )
        }
        Err(Rejection::Closed(job)) => {
            cancel_reply(job);
            Routed::Inline(Response::json(503, error_body("server is shutting down")))
        }
    }
}

/// Disarms the reply of a job the queue handed back: its rejection is
/// answered inline, so nothing may be posted later.
fn cancel_reply(job: Job) {
    if let Some(reply) = job.reply {
        reply.cancel();
    }
}

/// Pairs the in-flight charge `pop` took on a lane with its release, even
/// when the job panics on the way out. `run_job` guards the pipeline with
/// its own `catch_unwind`, but a panic in the reply/ticket/metrics code
/// *past* that guard would otherwise unwind through `compute_loop` —
/// killing the worker thread **and** leaking the lane's in-flight charge,
/// silently shrinking the tenant's concurrency cap for the life of the
/// process.
struct InflightGuard<'a> {
    requests: &'a FairQueue<Job>,
    lane: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.requests.release(&self.lane);
    }
}

fn compute_loop(shared: &Shared) {
    while let Some(job) = shared.requests.pop() {
        // Pairs with the in-flight charge `pop` took on the lane; a capped
        // tenant's next queued job becomes poppable only here, so the cap
        // bounds *compute occupancy*, not just queue depth. The drop guard
        // releases on the unwind path too, and the `catch_unwind` keeps the
        // worker pool at full strength across any escaped panic.
        let guard = InflightGuard {
            requests: &shared.requests,
            lane: job.lane.clone(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(job, shared)));
        drop(guard);
        if outcome.is_err() {
            obs_log::error(
                "server",
                "a compute job panicked past its pipeline guard; worker continues",
                &[],
            );
        }
    }
}

/// Opens a root-level span on a request's recorder, returning the handle
/// [`close_span`] needs. `None` when the trace carries no recorder (ring
/// disabled) — span recording must cost nothing then.
fn open_span(trace: &RequestTrace, name: &'static str) -> Option<(SharedRecorder, usize)> {
    let recorder = trace.recorder.as_ref()?;
    let index = recorder.lock().ok()?.open(None, name);
    Some((recorder.clone(), index))
}

fn close_span(open: &Option<(SharedRecorder, usize)>) {
    if let Some((recorder, index)) = open {
        if let Ok(mut rec) = recorder.lock() {
            rec.close(*index);
        }
    }
}

/// The pipeline-facing slice of a request's trace, with stage spans
/// parented under the given span (the worker's `compute` span).
fn stage_trace(
    trace: &RequestTrace,
    parent: &Option<(SharedRecorder, usize)>,
) -> Option<StageTrace> {
    let recorder = trace.recorder.as_ref()?;
    Some(StageTrace {
        recorder: recorder.clone(),
        parent: parent.as_ref().map(|(_, index)| *index),
    })
}

/// Fault-injection switches for the loopback test suite. Not part of the
/// public API.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};

    /// A per-server latch that parks compute workers after a non-batch
    /// job's compute and before its reply, so a test holds the worker
    /// pool busy exactly until it lets the work through, instead of
    /// hoping an expensive request outlasts the staging. It also counts
    /// the mid-compute client resets the event loops observed, so a test
    /// can wait for a hangup to register before letting work through,
    /// and carries the server's one-shot panic-after-reply switch.
    #[derive(Debug, Default)]
    pub struct ComputeHold {
        state: Mutex<HoldState>,
        changed: Condvar,
        resets: AtomicUsize,
        panic_after_reply: AtomicBool,
    }

    #[derive(Debug, Default)]
    struct HoldState {
        held: bool,
        /// Replies the held latch still lets through, one each.
        passes: usize,
    }

    impl ComputeHold {
        /// Parks every worker that finishes a compute from now on.
        pub fn hold(&self) {
            let mut state = self.lock();
            state.held = true;
            state.passes = 0;
        }

        /// Lets one parked (or the next) worker through while held.
        pub fn pass_one(&self) {
            self.lock().passes += 1;
            self.changed.notify_all();
        }

        /// Lets parked and future workers through.
        pub fn release(&self) {
            self.lock().held = false;
            self.changed.notify_all();
        }

        /// Mid-compute client resets observed so far.
        pub fn resets(&self) -> usize {
            self.resets.load(Ordering::SeqCst)
        }

        /// Makes this server's next non-batch job panic *after* its reply
        /// is sent — past `run_job`'s pipeline guard — exercising the
        /// worker's in-flight release guard. Self-disarms on first use.
        pub fn panic_after_next_reply(&self) {
            self.panic_after_reply.store(true, Ordering::SeqCst);
        }

        pub(crate) fn take_panic_after_reply(&self) -> bool {
            self.panic_after_reply.swap(false, Ordering::SeqCst)
        }

        pub(crate) fn wait(&self) {
            let mut state = self
                .changed
                .wait_while(self.lock(), |s| s.held && s.passes == 0)
                .expect("no thread panics holding the compute hold");
            if state.held {
                state.passes -= 1;
            }
        }

        pub(crate) fn note_reset(&self) {
            self.resets.fetch_add(1, Ordering::SeqCst);
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, HoldState> {
            self.state
                .lock()
                .expect("no thread panics holding the compute hold")
        }
    }
}

/// Executes one popped job end to end: the cancellation and deadline gates
/// first (a gone client or blown budget sheds the work before the pipeline
/// runs), then the guarded compute, the tenant's latency sample, and the
/// reply (sample first, so a client holding the response always finds it
/// reflected in /metrics and /v1/stats).
fn run_job(job: Job, shared: &Shared) {
    let Job {
        work,
        reply,
        cancelled,
        lane,
        admitted_at,
        deadline,
        trace,
    } = job;
    // Everything logged while this job runs — by the server, the service
    // layer, or the pipeline — carries the request's trace ID.
    let _log_scope = obs_log::trace_scope(trace.id);
    // Queue wait is the span from admission to this pop, whatever happens
    // next (shed, cancel, or compute).
    if let Some(recorder) = trace.recorder.as_ref() {
        if let Ok(mut rec) = recorder.lock() {
            rec.record(None, "queue_wait", admitted_at);
        }
    }
    let metrics = tenant_metrics(shared, &lane);
    let abandoned = cancelled.load(Ordering::SeqCst);
    let expired = !abandoned && deadline.is_some_and(|deadline| Instant::now() >= deadline);
    if expired {
        metrics.shed.inc();
    }
    match work {
        Work::BatchItem {
            ticket,
            corpus,
            resolved,
        } => {
            if abandoned {
                // Nobody can read the result; skip the pipeline run.
                metrics.cancelled.inc();
                ticket.fill(item_error_body(500, "client disconnected"));
                return;
            }
            if expired {
                ticket.fill(item_error_body(
                    503,
                    "deadline exceeded before compute, retry shortly",
                ));
                return;
            }
            // A panic inside the pipeline must never take the worker
            // thread down with it — the item gets an error slot and the
            // worker lives on.
            let compute = open_span(&trace, "compute");
            let stage = stage_trace(&trace, &compute);
            let body = catch_unwind(AssertUnwindSafe(|| {
                serve_resolved(&corpus, &resolved, shared, deadline, &metrics, stage)
            }))
            .unwrap_or_else(|_| {
                Err(ApiError {
                    status: 500,
                    message: "internal error".to_string(),
                })
            });
            close_span(&compute);
            // The sample lands before the ticket is filled so a client that
            // observes the response is guaranteed to observe the sample too
            // (/v1/stats and /metrics stay consistent with what was served).
            metrics.latency.record(admitted_at.elapsed());
            ticket.fill(match body {
                Ok(body) => body,
                Err(e) => item_error_body(e.status, &e.message),
            });
        }
        work => {
            let reply = reply.expect("non-batch work carries a reply");
            if abandoned {
                // The reply is still delivered so the owning loop can
                // free the connection's slot; the bytes are never
                // written because the slot is marked abandoned.
                metrics.cancelled.inc();
                reply.send(Response::json(500, error_body("client disconnected")));
                return;
            }
            if expired {
                reply.send(
                    Response::json(
                        503,
                        error_body("deadline exceeded before compute, retry shortly"),
                    )
                    .with_header("retry-after", shared.config.retry_after_secs.to_string()),
                );
                return;
            }
            let compute = open_span(&trace, "compute");
            let stage = stage_trace(&trace, &compute);
            let response = catch_unwind(AssertUnwindSafe(|| {
                execute(&work, shared, deadline, &metrics, stage)
            }))
            .unwrap_or_else(|_| Response::json(500, error_body("internal error")));
            close_span(&compute);
            shared.hold.wait();
            // Sample before the send: once the client holds the response it
            // must also find the sample in /metrics and /v1/stats.
            metrics.latency.record(admitted_at.elapsed());
            reply.send(response);
            if shared.hold.take_panic_after_reply() {
                panic!("test hook: panic after reply");
            }
        }
    }
}

fn execute(
    work: &Work,
    shared: &Shared,
    deadline: Option<Instant>,
    metrics: &TenantMetrics,
    stage: Option<StageTrace>,
) -> Response {
    match work {
        Work::Generate(corpus, resolved) => {
            match serve_resolved(corpus, resolved, shared, deadline, metrics, stage) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::json(e.status, e.body()),
            }
        }
        Work::BatchItem { .. } => unreachable!("batch items are executed by compute_loop"),
        Work::Refresh(tenant) => match shared.registry.refresh_in_place(tenant) {
            Ok(epoch) => json_200(&Value::Object(vec![
                ("corpus".to_string(), Value::String(tenant.clone())),
                ("epoch".to_string(), Value::Number(epoch as f64)),
                ("refreshed".to_string(), Value::Bool(true)),
            ])),
            Err(e) => {
                let e = registry_error(e);
                Response::json(e.status, e.body())
            }
        },
        Work::Put { name, config } => {
            let created = !shared.registry.contains(name);
            match shared.registry.register_spec(name.clone(), config) {
                Ok(epoch) => {
                    apply_tenant_tuning(shared, name, config);
                    json_200(&Value::Object(vec![
                        ("corpus".to_string(), Value::String(name.clone())),
                        ("epoch".to_string(), Value::Number(epoch as f64)),
                        ("created".to_string(), Value::Bool(created)),
                    ]))
                }
                Err(e) => Response::json(400, error_body(&format!("invalid corpus spec: {e}"))),
            }
        }
        Work::Reload => {
            let path = shared
                .config
                .manifest_path
                .as_deref()
                .expect("reload admitted only with a manifest path");
            match std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))
                .and_then(|text| {
                    Manifest::from_json(&text).map_err(|e| format!("invalid manifest {path}: {e}"))
                })
                .and_then(|manifest| apply_manifest_to(shared, &manifest))
            {
                Ok(diff) => json_200(&diff_value(&diff)),
                Err(message) => Response::json(400, error_body(&message)),
            }
        }
    }
}

/// Applies a manifest tenant's server-side tuning (queue weight/bound,
/// in-flight cap, deadline budget, bearer keys) to the running server.
fn apply_tenant_tuning(shared: &Shared, name: &str, config: &TenantConfig) {
    shared.requests.set_weight(name, config.weight.unwrap_or(1));
    shared.requests.set_tenant_bound(
        name,
        config.queue.unwrap_or(shared.config.tenant_queue_capacity),
    );
    match config.inflight {
        Some(cap) => shared.requests.set_inflight_cap(name, cap),
        None => shared.requests.clear_inflight_cap(name),
    }
    let mut deadlines = shared.deadlines.write().unwrap();
    match config.deadline_ms {
        Some(budget) => {
            deadlines.insert(name.to_string(), budget);
        }
        None => {
            deadlines.remove(name);
        }
    }
    drop(deadlines);
    let mut trace_slow = shared.trace_slow.write().unwrap();
    match config.trace_slow_ms {
        Some(threshold) => {
            trace_slow.insert(name.to_string(), threshold);
        }
        None => {
            trace_slow.remove(name);
        }
    }
    drop(trace_slow);
    if shared.config.auth_enabled {
        shared
            .auth
            .write()
            .unwrap()
            .grant_tenant_full(name, config.keys(), config.hashed_keys());
    }
}

/// Applies a whole manifest to a running server: the registry's tenant set
/// first (create/replace/remove — the CPU-heavy part), then queue tuning
/// (removed tenants' lanes retire once drained) and a key-table swap.
fn apply_manifest_to(shared: &Shared, manifest: &Manifest) -> Result<ManifestDiff, String> {
    let diff = shared
        .registry
        .apply_manifest(manifest)
        .map_err(|e| e.to_string())?;
    for (name, config) in manifest.tenants_sorted() {
        shared.requests.set_weight(name, config.weight.unwrap_or(1));
        shared.requests.set_tenant_bound(
            name,
            config.queue.unwrap_or(shared.config.tenant_queue_capacity),
        );
    }
    for (name, cap) in manifest_inflight_caps(manifest, shared.config.workers) {
        shared.requests.set_inflight_cap(&name, cap);
    }
    *shared.deadlines.write().unwrap() = manifest
        .tenants_sorted()
        .iter()
        .filter_map(|(name, config)| config.deadline_ms.map(|d| (name.to_string(), d)))
        .collect();
    *shared.trace_slow.write().unwrap() = manifest
        .tenants_sorted()
        .iter()
        .filter_map(|(name, config)| config.trace_slow_ms.map(|t| (name.to_string(), t)))
        .collect();
    if let Some(level) = manifest.log_level.as_deref() {
        // Validated by `Manifest::validate`, so parse can only fail if the
        // manifest bypassed validation; keep the current level in that case.
        if let Some(level) = obs_log::Level::parse(level) {
            obs_log::set_level(level);
        }
    }
    for name in &diff.removed {
        shared.requests.retire(name);
    }
    *shared.auth.write().unwrap() = AuthTable::from_manifest(manifest);
    Ok(diff)
}

/// The JSON rendering of a [`ManifestDiff`] (the `/v1/admin/reload`
/// response body).
fn diff_value(diff: &ManifestDiff) -> Value {
    let names = |list: &[String]| Value::Array(list.iter().cloned().map(Value::String).collect());
    Value::Object(vec![
        ("created".to_string(), names(&diff.created)),
        ("replaced".to_string(), names(&diff.replaced)),
        ("removed".to_string(), names(&diff.removed)),
        ("unchanged".to_string(), names(&diff.unchanged)),
    ])
}

fn registry_error(e: RegistryError) -> ApiError {
    match e {
        RegistryError::UnknownCorpus(name) => ApiError {
            status: 404,
            message: format!("unknown corpus {name:?}"),
        },
        RegistryError::Request(RepagerError::Config(e)) => ApiError {
            status: 400,
            message: format!("invalid configuration: {e}"),
        },
        RegistryError::Request(RepagerError::Graph(e)) => ApiError {
            status: 500,
            message: format!("pipeline failure: {e}"),
        },
        // Same shape as the pre-compute shed: overload-class, retryable.
        RegistryError::Request(RepagerError::DeadlineExceeded) => ApiError {
            status: 503,
            message: "deadline exceeded mid-compute, retry shortly".to_string(),
        },
    }
}

/// Runs an already-validated request against its corpus, shedding its
/// remaining pipeline stages if `deadline` passes mid-compute, and returns
/// the encoded generate body. The result's tail is encoded once per cache
/// entry: a miss fills the slot it just inserted, and every later hit
/// splices the stored bytes behind its own head.
fn serve_resolved(
    corpus: &str,
    resolved: &ResolvedRequest,
    shared: &Shared,
    deadline: Option<Instant>,
    metrics: &TenantMetrics,
    stage: Option<StageTrace>,
) -> Result<String, ApiError> {
    let served = shared
        .registry
        .generate_observed(corpus, &resolved.as_path_request(), deadline, stage)
        .map_err(|e| {
            if matches!(e, RegistryError::Request(RepagerError::DeadlineExceeded)) {
                // A mid-compute shed counts into the tenant's `shed` total
                // (kept comparable with pre-compute sheds) plus its own
                // distinguishing stat.
                metrics.shed.inc();
                metrics.shed_mid_compute.inc();
            }
            registry_error(e)
        })?;
    if !served.cached {
        shared
            .counters
            .timings
            .lock()
            .unwrap()
            .record(&served.output.timings);
    }
    let tail = served
        .encoded
        .get_or_init(|| encode_result_tail(&served.output));
    Ok(splice_generate_body(corpus, served.cached, tail))
}

/// `GET /v1/corpora`: the control-plane listing — epoch, corpus spec (when
/// known), cache occupancy and queue tuning per tenant. An admin key (or
/// auth-off) sees every tenant; a tenant key sees only its own row, so one
/// tenant's corpus recipe and tuning are never disclosed to another.
fn handle_corpora_list(shared: &Shared, principal: &Option<Principal>) -> Response {
    let own = match principal {
        Some(Principal::Tenant(name)) => Some(name.as_str()),
        _ => None,
    };
    let corpora: Vec<Value> = shared
        .registry
        .overview()
        .into_iter()
        .filter(|row| own.is_none_or(|own| row.name == own))
        .map(|row| {
            let spec = match &row.spec {
                Some(spec) => serde::Serialize::to_value(spec),
                None => Value::Null,
            };
            Value::Object(vec![
                ("name".to_string(), Value::String(row.name.clone())),
                ("epoch".to_string(), Value::Number(row.epoch as f64)),
                ("corpus".to_string(), spec),
                (
                    "cached_entries".to_string(),
                    Value::Number(row.cached_entries as f64),
                ),
                (
                    "cache_share".to_string(),
                    row.cache_share
                        .map_or(Value::Null, |share| Value::Number(share as f64)),
                ),
                (
                    "weight".to_string(),
                    Value::Number(shared.requests.weight(&row.name) as f64),
                ),
                (
                    "queue".to_string(),
                    Value::Number(shared.requests.tenant_bound(&row.name) as f64),
                ),
            ])
        })
        .collect();
    json_200(&Value::Object(vec![(
        "corpora".to_string(),
        Value::Array(corpora),
    )]))
}

/// `GET /v1/corpora/:name/snapshot` (admin-gated): exports the tenant's
/// live artifacts as a binary snapshot — the same container
/// `rpg snapshot build` writes, embedding the tenant's spec fingerprint
/// when it has a spec ([`snapshot::NO_SPEC_FINGERPRINT`] otherwise, so a
/// spec-less export can be inspected but never matches a manifest spec).
/// The body is streamed through the event loop's [`ResponseEmitter`] in
/// bounded chunks like every other large response.
fn handle_snapshot_export(tenant: &str, shared: &Shared) -> Response {
    let Some(artifacts) = shared.registry.artifacts(tenant) else {
        let e = registry_error(RegistryError::UnknownCorpus(tenant.to_string()));
        return Response::json(e.status, e.body());
    };
    let fingerprint = shared
        .registry
        .spec(tenant)
        .map(|spec| snapshot::spec_fingerprint(&spec))
        .unwrap_or(snapshot::NO_SPEC_FINGERPRINT);
    match snapshot::encode(&artifacts, fingerprint) {
        Ok(bytes) => Response::json(200, bytes)
            .with_header("content-type", "application/octet-stream")
            .with_header(
                "content-disposition",
                format!("attachment; filename=\"{tenant}.rpgsnap\""),
            ),
        Err(e) => Response::json(500, error_body(&format!("snapshot encode failed: {e}"))),
    }
}

/// `DELETE /v1/corpora/:name`: removes the tenant, evicts its cache
/// entries, retires its queue lane (draining queued work first) and
/// revokes its keys. Subsequent generates against it are `404`s.
fn handle_corpus_delete(tenant: &str, shared: &Shared) -> Response {
    if !shared.registry.remove(tenant) {
        return Response::json(404, error_body(&format!("unknown corpus {tenant:?}")));
    }
    shared.requests.retire(tenant);
    if shared.config.auth_enabled {
        shared.auth.write().unwrap().revoke_tenant(tenant);
    }
    json_200(&Value::Object(vec![
        ("corpus".to_string(), Value::String(tenant.to_string())),
        ("removed".to_string(), Value::Bool(true)),
    ]))
}

/// `PATCH /v1/admin/tenants/:name`: retunes a live tenant's DRR weight,
/// queue bound, in-flight cap and/or deadline budget without touching
/// queued work.
fn handle_tenant_patch(tenant: &str, body: &[u8], shared: &Shared) -> Response {
    let patch: TenantPatch = match parse_body(body) {
        Ok(patch) => patch,
        Err(response) => return response,
    };
    if !shared.registry.contains(tenant) {
        return Response::json(404, error_body(&format!("unknown corpus {tenant:?}")));
    }
    if patch.weight == Some(0) || patch.queue == Some(0) {
        return Response::json(400, error_body("weight and queue must be at least 1"));
    }
    if patch.inflight == Some(0) || patch.deadline_ms == Some(0) {
        return Response::json(
            400,
            error_body("inflight and deadline_ms must be at least 1"),
        );
    }
    if patch.weight.is_none()
        && patch.queue.is_none()
        && patch.inflight.is_none()
        && patch.deadline_ms.is_none()
        && patch.trace_slow_ms.is_none()
    {
        return Response::json(
            400,
            error_body(
                "nothing to change: set weight, queue, inflight, deadline_ms and/or trace_slow_ms",
            ),
        );
    }
    if let Some(weight) = patch.weight {
        shared.requests.set_weight(tenant, weight);
    }
    if let Some(bound) = patch.queue {
        shared.requests.set_tenant_bound(tenant, bound);
    }
    if let Some(cap) = patch.inflight {
        shared.requests.set_inflight_cap(tenant, cap);
    }
    if let Some(budget) = patch.deadline_ms {
        shared
            .deadlines
            .write()
            .unwrap()
            .insert(tenant.to_string(), budget);
    }
    if let Some(threshold) = patch.trace_slow_ms {
        // 0 is legal: it means "capture an exemplar for every request".
        shared
            .trace_slow
            .write()
            .unwrap()
            .insert(tenant.to_string(), threshold);
    }
    json_200(&Value::Object(vec![
        ("tenant".to_string(), Value::String(tenant.to_string())),
        (
            "weight".to_string(),
            Value::Number(shared.requests.weight(tenant) as f64),
        ),
        (
            "queue".to_string(),
            Value::Number(shared.requests.tenant_bound(tenant) as f64),
        ),
        (
            "inflight".to_string(),
            shared
                .requests
                .tenant_inflight_cap(tenant)
                .map_or(Value::Null, |cap| Value::Number(cap as f64)),
        ),
        (
            "deadline_ms".to_string(),
            shared
                .deadlines
                .read()
                .unwrap()
                .get(tenant)
                .map_or(Value::Null, |budget| Value::Number(*budget as f64)),
        ),
        (
            "trace_slow_ms".to_string(),
            shared
                .trace_slow
                .read()
                .unwrap()
                .get(tenant)
                .map_or(Value::Null, |threshold| Value::Number(*threshold as f64)),
        ),
    ]))
}

fn handle_healthz(shared: &Shared) -> Response {
    let corpora: Vec<Value> = shared
        .registry
        .tenants()
        .into_iter()
        .map(Value::String)
        .collect();
    json_200(&Value::Object(vec![
        ("status".to_string(), Value::String("ok".to_string())),
        ("corpora".to_string(), Value::Array(corpora)),
        (
            "workers".to_string(),
            Value::Number(shared.config.workers.max(1) as f64),
        ),
        ("queue".to_string(), queue_value(shared)),
    ]))
}

fn handle_stats(shared: &Shared) -> Response {
    let counters = &shared.counters;
    let cache = shared.registry.cache_stats();
    let aggregate = *counters.timings.lock().unwrap();
    let count = |counter: &Counter| Value::Number(counter.get() as f64);
    let handled = counters.ok.get() + counters.client_errors.get() + counters.server_errors.get();
    json_200(&Value::Object(vec![
        ("queue".to_string(), queue_value(shared)),
        (
            "connections".to_string(),
            Value::Object(vec![
                ("accepted".to_string(), count(&counters.accepted)),
                (
                    "open".to_string(),
                    Value::Number(shared.open_connections.load(Ordering::SeqCst) as f64),
                ),
                (
                    "drivers".to_string(),
                    Value::Number(shared.loops.len() as f64),
                ),
                (
                    "io_backend".to_string(),
                    Value::String(shared.io_backend.as_str().to_string()),
                ),
                (
                    "max".to_string(),
                    Value::Number(shared.config.max_connections as f64),
                ),
                ("rejected_503".to_string(), count(&counters.rejected)),
            ]),
        ),
        (
            "responses".to_string(),
            Value::Object(vec![
                ("handled".to_string(), Value::Number(handled as f64)),
                ("ok".to_string(), count(&counters.ok)),
                ("client_error".to_string(), count(&counters.client_errors)),
                ("server_error".to_string(), count(&counters.server_errors)),
            ]),
        ),
        (
            "cache".to_string(),
            Value::Object(vec![
                ("hits".to_string(), Value::Number(cache.hits as f64)),
                ("misses".to_string(), Value::Number(cache.misses as f64)),
                ("entries".to_string(), Value::Number(cache.entries as f64)),
                ("capacity".to_string(), Value::Number(cache.capacity as f64)),
            ]),
        ),
        (
            "pipeline".to_string(),
            Value::Object(vec![
                (
                    "requests".to_string(),
                    Value::Number(aggregate.requests as f64),
                ),
                ("sum".to_string(), timings_value(&aggregate.sums)),
                ("mean".to_string(), timings_value(&aggregate.means())),
            ]),
        ),
        ("tenants".to_string(), tenants_value(shared)),
    ]))
}

/// `GET /metrics`: the same registry `/v1/stats` reads, rendered as
/// Prometheus text exposition 0.0.4. Sampled gauges (connection/queue/cache
/// occupancy) are refreshed at scrape time so the scrape never waits on the
/// hot path to push them.
fn handle_metrics(shared: &Shared) -> Response {
    let counters = &shared.counters;
    counters
        .open_connections
        .set(shared.open_connections.load(Ordering::SeqCst) as i64);
    counters.queue_depth.set(shared.requests.depth() as i64);
    let cache = shared.registry.cache_stats();
    counters.cache_hits.set(cache.hits);
    counters.cache_misses.set(cache.misses);
    counters.cache_entries.set(cache.entries as i64);
    Response {
        status: 200,
        headers: vec![(
            "content-type".to_string(),
            "text/plain; version=0.0.4".to_string(),
        )],
        body: shared.obs.render().into_bytes(),
    }
}

/// `GET /v1/debug/requests` (admin-gated): the slow-request exemplar ring,
/// newest first, each entry carrying its full span tree.
fn handle_debug_requests(shared: &Shared) -> Response {
    let spans_value = |spans: &[Span]| {
        Value::Array(
            spans
                .iter()
                .map(|span| {
                    Value::Object(vec![
                        ("name".to_string(), Value::String(span.name.to_string())),
                        (
                            "start_us".to_string(),
                            Value::Number(span.start.as_micros() as f64),
                        ),
                        (
                            "duration_us".to_string(),
                            Value::Number(span.duration.as_micros() as f64),
                        ),
                        (
                            "parent".to_string(),
                            span.parent
                                .map_or(Value::Null, |parent| Value::Number(parent as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    };
    let requests: Vec<Value> = shared
        .trace_log
        .snapshot()
        .iter()
        .map(|record| {
            Value::Object(vec![
                ("trace_id".to_string(), Value::String(record.id.to_string())),
                (
                    "tenant".to_string(),
                    record
                        .tenant
                        .as_ref()
                        .map_or(Value::Null, |t| Value::String(t.clone())),
                ),
                ("status".to_string(), Value::Number(record.status as f64)),
                (
                    "latency_ms".to_string(),
                    Value::Number(record.latency.as_secs_f64() * 1e3),
                ),
                ("unix_ms".to_string(), Value::Number(record.unix_ms as f64)),
                ("spans".to_string(), spans_value(&record.spans)),
            ])
        })
        .collect();
    json_200(&Value::Object(vec![
        (
            "capacity".to_string(),
            Value::Number(shared.trace_log.capacity() as f64),
        ),
        ("requests".to_string(), Value::Array(requests)),
    ]))
}

/// The per-tenant overload section of `/v1/stats`: completed-request
/// latency quantiles (milliseconds, log2-bucket upper bounds) plus the
/// shed/cancelled counters and the tenant's live compute occupancy.
fn tenants_value(shared: &Shared) -> Value {
    let metrics = shared.metrics.read().unwrap();
    let mut names: Vec<&String> = metrics.keys().collect();
    names.sort();
    let ms = |duration: Option<Duration>| {
        duration.map_or(Value::Null, |d| Value::Number(d.as_secs_f64() * 1e3))
    };
    let rows = names
        .into_iter()
        .map(|name| {
            let tenant = &metrics[name];
            let latency = &tenant.latency;
            (
                name.clone(),
                Value::Object(vec![
                    (
                        "latency".to_string(),
                        Value::Object(vec![
                            ("count".to_string(), Value::Number(latency.count() as f64)),
                            ("mean".to_string(), ms(latency.mean())),
                            ("p50".to_string(), ms(latency.quantile(0.5))),
                            ("p99".to_string(), ms(latency.quantile(0.99))),
                            ("p999".to_string(), ms(latency.quantile(0.999))),
                        ]),
                    ),
                    ("shed".to_string(), Value::Number(tenant.shed.get() as f64)),
                    (
                        "shed_mid_compute".to_string(),
                        Value::Number(tenant.shed_mid_compute.get() as f64),
                    ),
                    (
                        "cancelled".to_string(),
                        Value::Number(tenant.cancelled.get() as f64),
                    ),
                    (
                        "in_flight".to_string(),
                        Value::Number(shared.requests.tenant_inflight(name) as f64),
                    ),
                ]),
            )
        })
        .collect();
    Value::Object(rows)
}

/// The request-queue section of `/v1/stats` and `/v1/healthz`: global
/// depth/bound, the `429` counter, and one entry per tenant seen so far
/// with its depth, bound, and DRR weight.
fn queue_value(shared: &Shared) -> Value {
    let requests = &shared.requests;
    let tenants: Vec<(String, Value)> = requests
        .tenant_depths()
        .into_iter()
        .map(|(name, depth)| {
            let weight = requests.weight(&name);
            let capacity = requests.tenant_bound(&name);
            let in_flight = requests.tenant_inflight(&name);
            let inflight_cap = requests
                .tenant_inflight_cap(&name)
                .map_or(Value::Null, |cap| Value::Number(cap as f64));
            (
                name,
                Value::Object(vec![
                    ("depth".to_string(), Value::Number(depth as f64)),
                    ("capacity".to_string(), Value::Number(capacity as f64)),
                    ("weight".to_string(), Value::Number(weight as f64)),
                    ("in_flight".to_string(), Value::Number(in_flight as f64)),
                    ("inflight".to_string(), inflight_cap),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("depth".to_string(), Value::Number(requests.depth() as f64)),
        (
            "capacity".to_string(),
            Value::Number(requests.capacity() as f64),
        ),
        (
            "throttled_429".to_string(),
            Value::Number(shared.counters.throttled.get() as f64),
        ),
        ("tenants".to_string(), Value::Object(tenants)),
    ])
}

fn json_200(value: &Value) -> Response {
    Response::json(
        200,
        serde_json::to_string(value).expect("response serialises"),
    )
}
