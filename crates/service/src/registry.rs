//! Multi-tenant corpus sharding: many named [`CorpusArtifacts`] behind one
//! `Send + Sync` handle.
//!
//! A [`CorpusRegistry`] routes requests to a tenant by corpus name, shares
//! one bounded result cache across all tenants (keys carry the tenant name,
//! so identical queries against different corpora never collide), and
//! supports **refresh**: swapping in a rebuilt corpus for one tenant bumps
//! that tenant's *epoch* — which participates in every cache key via
//! [`RequestFingerprint::with_epoch`] — and actively evicts exactly that
//! tenant's cached results, leaving every other tenant's entries intact.

use crate::cache::LruCache;
use crate::fingerprint::RequestFingerprint;
use crate::manifest::{CorpusSpec, Manifest, ManifestDiff, ManifestError, TenantConfig};
use crate::{CacheStats, DEFAULT_CACHE_CAPACITY};
use rpg_corpus::Corpus;
use rpg_graph::GraphError;
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::scratch::with_thread_scratch;
use rpg_repager::system::{PathRequest, RepagerError, RepagerOutput};
use rpg_repager::Variant;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An error serving a request through the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The named corpus is not registered.
    UnknownCorpus(String),
    /// The tenant was found but the request itself failed.
    Request(RepagerError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownCorpus(name) => write!(f, "unknown corpus {name:?}"),
            RegistryError::Request(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::UnknownCorpus(_) => None,
            RegistryError::Request(e) => Some(e),
        }
    }
}

impl From<RepagerError> for RegistryError {
    fn from(e: RepagerError) -> Self {
        RegistryError::Request(e)
    }
}

/// A write-once slot for the encoded form of one result. The registry
/// never looks inside; a front end stores whatever bytes it would
/// otherwise re-derive from the output on every hit.
pub type EncodedSlot = Arc<OnceLock<Box<str>>>;

/// A served result plus whether it came from the cache.
#[derive(Debug, Clone)]
pub struct Served {
    /// The (shared) output of the pipeline run that answered the request.
    pub output: Arc<RepagerOutput>,
    /// Whether the result was answered from the cache. A cached output's
    /// `timings` describe the run that populated the cache, not this hit.
    pub cached: bool,
    /// The encoding slot of this result. A miss gets the slot it just
    /// inserted into the cache, so filling it serves every later hit on
    /// the entry; a result that was not cached gets a slot of its own.
    pub encoded: EncodedSlot,
}

struct Tenant {
    artifacts: Arc<CorpusArtifacts>,
    epoch: u64,
    /// The declarative recipe the corpus was built from, when the tenant
    /// came from a manifest or a wire-side corpus spec — what
    /// [`CorpusRegistry::apply_manifest`] diffs against. `None` for tenants
    /// registered from a raw corpus.
    spec: Option<CorpusSpec>,
    /// Maximum shared-cache entries this tenant may occupy (`None` =
    /// limited only by global LRU pressure).
    cache_share: Option<usize>,
    /// Model variant served when a request omits one.
    default_variant: Option<Variant>,
}

/// One row of [`CorpusRegistry::overview`]: the control-plane view of a
/// tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOverview {
    /// The tenant name.
    pub name: String,
    /// Current corpus epoch (bumps on every refresh/replace).
    pub epoch: u64,
    /// The corpus spec, when the tenant was built from one.
    pub spec: Option<CorpusSpec>,
    /// Cached results currently held for this tenant.
    pub cached_entries: usize,
    /// The tenant's cache share, when bounded.
    pub cache_share: Option<usize>,
}

/// The cache key: tenant name plus the epoch-bound request fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TenantKey {
    corpus: String,
    fingerprint: RequestFingerprint,
}

/// One cached result: the pipeline output and its encoding slot.
#[derive(Debug, Clone)]
struct CacheEntry {
    output: Arc<RepagerOutput>,
    encoded: EncodedSlot,
}

/// The shared result cache plus each tenant's entry count, kept in step
/// with every insert, eviction and sweep so that enforcing a cache share
/// costs O(1) under the cache lock rather than a scan of every key.
struct ResultCache {
    lru: LruCache<TenantKey, CacheEntry>,
    per_tenant: HashMap<String, usize>,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            lru: LruCache::new(capacity),
            per_tenant: HashMap::new(),
        }
    }

    fn insert(&mut self, key: TenantKey, entry: CacheEntry) {
        if self.lru.capacity() > 0 && !self.lru.contains_key(&key) {
            match self.per_tenant.get_mut(&key.corpus) {
                Some(count) => *count += 1,
                None => {
                    self.per_tenant.insert(key.corpus.clone(), 1);
                }
            }
        }
        if let Some(evicted) = self.lru.insert(key, entry) {
            self.forget_one(&evicted.corpus);
        }
    }

    /// Evicts the least-recently-used entry of one tenant; false when the
    /// tenant has none.
    fn evict_lru_of(&mut self, corpus: &str) -> bool {
        match self.lru.evict_lru_where(|key| key.corpus == corpus) {
            Some(key) => {
                self.forget_one(&key.corpus);
                true
            }
            None => false,
        }
    }

    /// Drops every entry of the tenants `swept` selects.
    fn sweep(&mut self, swept: impl Fn(&str) -> bool) {
        self.lru.retain(|key, _| !swept(&key.corpus));
        self.per_tenant.retain(|corpus, _| !swept(corpus));
    }

    fn clear(&mut self) {
        self.lru.clear();
        self.per_tenant.clear();
    }

    fn entries_for(&self, corpus: &str) -> usize {
        self.per_tenant.get(corpus).copied().unwrap_or(0)
    }

    fn forget_one(&mut self, corpus: &str) {
        if let Some(count) = self.per_tenant.get_mut(corpus) {
            *count -= 1;
            if *count == 0 {
                self.per_tenant.remove(corpus);
            }
        }
    }
}

/// Builds a tenant's artifacts from its spec, preferring the spec's
/// configured snapshot when one loads and its embedded fingerprint matches
/// the spec. An unusable snapshot — missing file, corruption, or a
/// fingerprint from a different spec — degrades to the full build with one
/// warning; it can never serve stale or wrong data because
/// [`crate::snapshot::decode`] refuses any fingerprint mismatch.
fn artifacts_for_spec(
    name: &str,
    spec: &CorpusSpec,
) -> Result<Arc<CorpusArtifacts>, ManifestError> {
    if let Some(path) = &spec.snapshot {
        match crate::snapshot::try_load(path, crate::snapshot::spec_fingerprint(spec)) {
            Ok(artifacts) => return Ok(artifacts),
            Err(e) => rpg_obs::log::warn(
                "registry",
                "snapshot unusable; rebuilding from spec",
                &[
                    ("tenant", name),
                    ("snapshot", path),
                    ("cause", &e.to_string()),
                ],
            ),
        }
    }
    let corpus = spec.build_corpus()?;
    CorpusArtifacts::build(corpus)
        .map_err(|e| ManifestError::new(format!("artifact build failed: {e}")))
}

/// A thread-shareable registry of named corpora with one shared result
/// cache.
pub struct CorpusRegistry {
    tenants: RwLock<HashMap<String, Tenant>>,
    cache: Mutex<ResultCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CorpusRegistry {
    /// An empty registry with the default cache capacity.
    pub fn new() -> Self {
        Self::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty registry with an explicit shared-cache capacity
    /// (0 disables result caching for every tenant).
    pub fn with_cache_capacity(capacity: usize) -> Self {
        CorpusRegistry {
            tenants: RwLock::new(HashMap::new()),
            cache: Mutex::new(ResultCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Registers (or replaces) a corpus under a name, building its
    /// artifacts. Replacing an existing tenant behaves like
    /// [`CorpusRegistry::refresh`]: the epoch advances and the tenant's
    /// cached results are evicted.
    pub fn register(
        &self,
        name: impl Into<String>,
        corpus: impl Into<Arc<Corpus>>,
    ) -> Result<(), GraphError> {
        let artifacts = CorpusArtifacts::build(corpus)?;
        self.install(name.into(), artifacts, None);
        Ok(())
    }

    /// Registers (or replaces) a tenant from pre-built artifacts.
    pub fn register_artifacts(&self, name: impl Into<String>, artifacts: Arc<CorpusArtifacts>) {
        self.install(name.into(), artifacts, None);
    }

    /// Registers (or replaces) a tenant from a declarative
    /// [`TenantConfig`]: the corpus is generated from the config's spec,
    /// artifacts are built, and the spec plus tuning fields (cache share,
    /// default variant) are recorded on the tenant — the building block of
    /// both [`CorpusRegistry::apply_manifest`] and the wire-side
    /// `PUT /v1/corpora/:name`. Replacement semantics match
    /// [`CorpusRegistry::refresh`]: epoch bump and exact-tenant cache
    /// eviction.
    ///
    /// The corpus generation and artifact build are CPU-heavy and run
    /// without holding any registry lock, so concurrent serving continues
    /// until the final atomic swap.
    pub fn register_spec(
        &self,
        name: impl Into<String>,
        config: &TenantConfig,
    ) -> Result<u64, ManifestError> {
        let name = name.into();
        let spec = config.corpus_spec()?.clone();
        let default_variant = config.default_variant()?;
        let artifacts = artifacts_for_spec(&name, &spec)?;
        self.install(name.clone(), artifacts, Some(spec));
        {
            let mut tenants = self.tenants.write().unwrap();
            if let Some(tenant) = tenants.get_mut(&name) {
                tenant.cache_share = config.cache_share;
                tenant.default_variant = default_variant;
            }
        }
        Ok(self.epoch(&name).unwrap_or(0))
    }

    /// Applies a validated [`Manifest`] with a diff against the current
    /// tenant set: tenants new to the manifest are built and registered,
    /// tenants whose [`CorpusSpec`] changed are rebuilt and atomically
    /// swapped (epoch bump, exact-tenant cache eviction), tenants absent
    /// from the manifest are removed, and tenants with an unchanged spec
    /// keep their artifacts and cache while their tuning fields are
    /// re-applied. The manifest is authoritative: tenants registered
    /// outside it (including via `PUT`) are removed by the next apply.
    ///
    /// All corpus/artifact builds happen before anything is swapped, with
    /// no registry lock held — a failing build leaves the registry exactly
    /// as it was, and the event loops of a server sharing this registry
    /// never block on the builds.
    pub fn apply_manifest(&self, manifest: &Manifest) -> Result<ManifestDiff, ManifestError> {
        manifest.validate()?;
        // Phase 1: classify every manifest tenant against the current spec
        // snapshot.
        let current: HashMap<String, Option<CorpusSpec>> = {
            let tenants = self.tenants.read().unwrap();
            tenants
                .iter()
                .map(|(name, tenant)| (name.clone(), tenant.spec.clone()))
                .collect()
        };
        let mut diff = ManifestDiff::default();
        for (name, config) in manifest.tenants_sorted() {
            let spec = config.corpus_spec()?;
            match current.get(name) {
                Some(Some(existing)) if existing == spec => diff.unchanged.push(name.to_string()),
                Some(_) => diff.replaced.push(name.to_string()),
                None => diff.created.push(name.to_string()),
            }
        }
        diff.removed = current
            .keys()
            .filter(|name| manifest.tenant(name).is_none())
            .cloned()
            .collect();
        diff.removed.sort();
        // Phase 2: build everything that changed, before touching the
        // registry — an error here leaves the tenant set untouched. The
        // per-tenant builds are independent (corpus generation plus index
        // construction, the expensive part of a reload), so they fan out
        // over a worker pool; results come back in index order, keeping the
        // first-error report deterministic.
        let to_build: Vec<&String> = diff.created.iter().chain(&diff.replaced).collect();
        let built: Vec<(String, Arc<CorpusArtifacts>)> = crate::parallel::fan_out(
            to_build.len(),
            crate::default_threads().min(to_build.len().max(1)),
            || (),
            |(), i| {
                let name = to_build[i];
                let config = manifest.tenant(name).expect("classified tenant is listed");
                let artifacts = artifacts_for_spec(name, config.corpus_spec()?)
                    .map_err(|e| ManifestError::new(format!("tenant {name:?}: {e}")))?;
                Ok((name.clone(), artifacts))
            },
        )
        .into_iter()
        .collect::<Result<_, ManifestError>>()?;
        // Phase 3: commit under one write lock — epochs bump before the
        // cache sweep below, so the epoch-guarded insert in `generate`
        // cannot resurrect a pre-swap result.
        let mut vanished_unchanged: Vec<String> = Vec::new();
        {
            let mut tenants = self.tenants.write().unwrap();
            for (name, artifacts) in built {
                let config = manifest.tenant(&name).expect("built tenant is listed");
                let spec = Some(config.corpus_spec()?.clone());
                let default_variant = config.default_variant()?;
                match tenants.get_mut(&name) {
                    Some(tenant) => {
                        tenant.artifacts = artifacts;
                        tenant.epoch += 1;
                        tenant.spec = spec;
                        tenant.cache_share = config.cache_share;
                        tenant.default_variant = default_variant;
                    }
                    None => {
                        tenants.insert(
                            name,
                            Tenant {
                                artifacts,
                                epoch: 0,
                                spec,
                                cache_share: config.cache_share,
                                default_variant,
                            },
                        );
                    }
                }
            }
            for name in &diff.unchanged {
                let config = manifest.tenant(name).expect("unchanged tenant is listed");
                match tenants.get_mut(name) {
                    Some(tenant) => {
                        tenant.cache_share = config.cache_share;
                        tenant.default_variant = config.default_variant()?;
                    }
                    // Removed concurrently (a DELETE raced the unlocked
                    // builds of phase 2): the manifest still lists it, so
                    // it must come back — rebuilt below, after the lock.
                    None => vanished_unchanged.push(name.clone()),
                }
            }
            for name in &diff.removed {
                tenants.remove(name);
            }
        }
        // Phase 4: evict exactly the cache entries of tenants whose corpus
        // went away or changed.
        let swept: HashSet<&str> = diff
            .replaced
            .iter()
            .chain(&diff.removed)
            .map(String::as_str)
            .collect();
        if !swept.is_empty() {
            self.cache
                .lock()
                .unwrap()
                .sweep(|corpus| swept.contains(corpus));
        }
        // Phase 5: re-create manifest tenants that a concurrent removal
        // made vanish between the phase-1 snapshot and the commit; the
        // manifest is authoritative, so they are rebuilt rather than
        // silently skipped.
        for name in vanished_unchanged {
            let config = manifest.tenant(&name).expect("unchanged tenant is listed");
            self.register_spec(&name, config)
                .map_err(|e| ManifestError::new(format!("tenant {name:?}: {e}")))?;
            diff.unchanged.retain(|n| n != &name);
            diff.created.push(name);
        }
        diff.created.sort();
        Ok(diff)
    }

    /// Swaps in a rebuilt corpus for an existing tenant: bumps the tenant's
    /// epoch and evicts exactly that tenant's cached results.
    ///
    /// Errors with [`RegistryError::UnknownCorpus`] if the tenant does not
    /// exist (use [`CorpusRegistry::register`] to add tenants), and
    /// propagates artifact-build failures.
    pub fn refresh(&self, name: &str, corpus: impl Into<Arc<Corpus>>) -> Result<(), RegistryError> {
        if !self.contains(name) {
            return Err(RegistryError::UnknownCorpus(name.to_string()));
        }
        let artifacts = CorpusArtifacts::build(corpus)
            .map_err(|e| RegistryError::Request(RepagerError::Graph(e)))?;
        self.install(name.to_string(), artifacts, None);
        Ok(())
    }

    /// Rebuilds a tenant's artifacts from the corpus it already serves —
    /// what the HTTP `POST /v1/corpora/:name/refresh` endpoint rides on
    /// when no replacement corpus is shipped. Epoch-bump and cache-eviction
    /// semantics are exactly those of [`CorpusRegistry::refresh`]; returns
    /// the tenant's current epoch afterwards.
    ///
    /// The rebuild is epoch-guarded: if a concurrent [`refresh`] (or
    /// re-register) swapped in a *different* corpus while this rebuild ran,
    /// the stale in-place result is discarded instead of silently
    /// overwriting the newer corpus — the fresher refresh already bumped
    /// the epoch and swept the cache, so dropping the stale artifacts is
    /// the correct no-op.
    ///
    /// [`refresh`]: CorpusRegistry::refresh
    pub fn refresh_in_place(&self, name: &str) -> Result<u64, RegistryError> {
        let (artifacts, epoch, spec) = {
            let tenants = self.tenants.read().unwrap();
            let tenant = tenants
                .get(name)
                .ok_or_else(|| RegistryError::UnknownCorpus(name.to_string()))?;
            (tenant.artifacts.clone(), tenant.epoch, tenant.spec.clone())
        };
        // A spec with a configured snapshot reloads in O(read); anything
        // unusable about the snapshot degrades to the full rebuild below.
        let reloaded = spec
            .as_ref()
            .and_then(|spec| spec.snapshot.as_deref().map(|path| (spec, path)))
            .and_then(|(spec, path)| {
                match crate::snapshot::try_load(path, crate::snapshot::spec_fingerprint(spec)) {
                    Ok(artifacts) => Some(artifacts),
                    Err(e) => {
                        rpg_obs::log::warn(
                            "registry",
                            "snapshot unusable; rebuilding in place",
                            &[
                                ("tenant", name),
                                ("snapshot", path),
                                ("cause", &e.to_string()),
                            ],
                        );
                        None
                    }
                }
            });
        let rebuilt = match reloaded {
            Some(artifacts) => artifacts,
            None => CorpusArtifacts::build(artifacts.corpus_arc())
                .map_err(|e| RegistryError::Request(RepagerError::Graph(e)))?,
        };
        let (new_epoch, installed) = {
            let mut tenants = self.tenants.write().unwrap();
            match tenants.get_mut(name) {
                None => return Err(RegistryError::UnknownCorpus(name.to_string())),
                // Lost to a fresher refresh mid-rebuild: keep its corpus.
                Some(tenant) if tenant.epoch != epoch => (tenant.epoch, false),
                Some(tenant) => {
                    tenant.artifacts = rebuilt;
                    tenant.epoch += 1;
                    (tenant.epoch, true)
                }
            }
        };
        if installed {
            self.cache.lock().unwrap().sweep(|corpus| corpus == name);
        }
        Ok(new_epoch)
    }

    fn install(&self, name: String, artifacts: Arc<CorpusArtifacts>, spec: Option<CorpusSpec>) {
        let replaced = {
            let mut tenants = self.tenants.write().unwrap();
            match tenants.get_mut(&name) {
                Some(tenant) => {
                    tenant.artifacts = artifacts;
                    tenant.epoch += 1;
                    // The corpus is whatever was just swapped in: a stale
                    // spec must not make a later manifest apply believe the
                    // old recipe still serves.
                    tenant.spec = spec;
                    true
                }
                None => {
                    tenants.insert(
                        name.clone(),
                        Tenant {
                            artifacts,
                            epoch: 0,
                            spec,
                            cache_share: None,
                            default_variant: None,
                        },
                    );
                    false
                }
            }
        };
        if replaced {
            // The epoch bump already makes the old entries unreachable;
            // evicting them keeps the shared cache from carrying dead
            // weight until LRU pressure gets around to them.
            self.cache.lock().unwrap().sweep(|corpus| corpus == name);
        }
    }

    /// Removes a tenant and evicts its cached results. Returns whether the
    /// tenant existed.
    pub fn remove(&self, name: &str) -> bool {
        let existed = self.tenants.write().unwrap().remove(name).is_some();
        if existed {
            self.cache.lock().unwrap().sweep(|corpus| corpus == name);
        }
        existed
    }

    /// Whether a tenant with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tenants.read().unwrap().contains_key(name)
    }

    /// The registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().unwrap().len()
    }

    /// Whether the registry has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().unwrap().is_empty()
    }

    /// The current epoch of a tenant (0 until the first refresh).
    pub fn epoch(&self, name: &str) -> Option<u64> {
        self.tenants.read().unwrap().get(name).map(|t| t.epoch)
    }

    /// The artifacts currently serving a tenant.
    pub fn artifacts(&self, name: &str) -> Option<Arc<CorpusArtifacts>> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .map(|t| t.artifacts.clone())
    }

    /// The corpus spec a tenant was built from, when it has one.
    pub fn spec(&self, name: &str) -> Option<CorpusSpec> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .and_then(|t| t.spec.clone())
    }

    /// The model variant served when a request against this tenant omits
    /// one (`None` = the service-wide default).
    pub fn default_variant(&self, name: &str) -> Option<Variant> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .and_then(|t| t.default_variant)
    }

    /// Sets (or clears) a tenant's cache share. Returns whether the share
    /// was applied: the tenant must exist and a set share must be at least
    /// 1 — a zero share would make the eviction loop self-evict the
    /// tenant's entry on every insert, so it is rejected like the other
    /// zero-valued tuning knobs. Shrinking a share does not evict until
    /// the tenant's next cache insert.
    pub fn set_cache_share(&self, name: &str, share: Option<usize>) -> bool {
        if share == Some(0) {
            return false;
        }
        match self.tenants.write().unwrap().get_mut(name) {
            Some(tenant) => {
                tenant.cache_share = share;
                true
            }
            None => false,
        }
    }

    /// The control-plane view of every tenant, sorted by name — what
    /// `GET /v1/corpora` serves.
    pub fn overview(&self) -> Vec<TenantOverview> {
        let mut rows: Vec<TenantOverview> = {
            let tenants = self.tenants.read().unwrap();
            tenants
                .iter()
                .map(|(name, tenant)| TenantOverview {
                    name: name.clone(),
                    epoch: tenant.epoch,
                    spec: tenant.spec.clone(),
                    cached_entries: 0,
                    cache_share: tenant.cache_share,
                })
                .collect()
        };
        {
            let cache = self.cache.lock().unwrap();
            for row in &mut rows {
                row.cached_entries = cache.entries_for(&row.name);
            }
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Serves one request against a named corpus, consulting the shared
    /// cache first.
    pub fn generate(
        &self,
        corpus: &str,
        request: &PathRequest<'_>,
    ) -> Result<Served, RegistryError> {
        self.generate_with_deadline(corpus, request, None)
    }

    /// As [`CorpusRegistry::generate`], with a cooperative wall-clock
    /// deadline the pipeline checks *between stages*: once it passes, the
    /// remaining stages are shed and the request fails with
    /// [`RepagerError::DeadlineExceeded`]. A cache hit is free and is
    /// served even past the deadline.
    pub fn generate_with_deadline(
        &self,
        corpus: &str,
        request: &PathRequest<'_>,
        deadline: Option<std::time::Instant>,
    ) -> Result<Served, RegistryError> {
        self.generate_observed(corpus, request, deadline, None)
    }

    /// As [`CorpusRegistry::generate_with_deadline`], additionally arming
    /// the pipeline's span recorder: a fresh run records one span per
    /// stage into `trace`, a cache hit records a single `cache_hit` span.
    pub fn generate_observed(
        &self,
        corpus: &str,
        request: &PathRequest<'_>,
        deadline: Option<std::time::Instant>,
        trace: Option<rpg_obs::trace::StageTrace>,
    ) -> Result<Served, RegistryError> {
        let lookup_started = std::time::Instant::now();
        let (artifacts, epoch) = {
            let tenants = self.tenants.read().unwrap();
            let tenant = tenants
                .get(corpus)
                .ok_or_else(|| RegistryError::UnknownCorpus(corpus.to_string()))?;
            (tenant.artifacts.clone(), tenant.epoch)
        };
        let key = TenantKey {
            corpus: corpus.to_string(),
            fingerprint: RequestFingerprint::of(request).with_epoch(epoch),
        };
        if let Some(hit) = self.cache.lock().unwrap().lru.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(trace) = &trace {
                trace.record("cache_hit", lookup_started);
            }
            return Ok(Served {
                output: hit.output,
                cached: true,
                encoded: hit.encoded,
            });
        }
        let output = with_thread_scratch(|scratch| {
            scratch.set_deadline(deadline);
            scratch.set_trace(trace);
            let output = artifacts.generate_with_scratch(request, scratch);
            // Disarm before the scratch outlives this request — the
            // thread-local scratch serves unrelated (deadline-less,
            // untraced) requests next.
            scratch.set_deadline(None);
            scratch.set_trace(None);
            output
        })?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = CacheEntry {
            output: Arc::new(output),
            encoded: EncodedSlot::default(),
        };
        // A refresh may have raced the pipeline run: its sweep runs before
        // this insert, so a result keyed under the old epoch would sit in
        // the cache unreachable until LRU pressure evicts it. Insert only
        // if the tenant still serves the epoch the result was computed for,
        // holding the tenants lock across the insert so a concurrent
        // refresh cannot slip between the check and the insert (refresh
        // bumps the epoch under the write lock before it sweeps).
        {
            let tenants = self.tenants.read().unwrap();
            if let Some(tenant) = tenants.get(corpus).filter(|t| t.epoch == epoch) {
                let mut cache = self.cache.lock().unwrap();
                cache.insert(key, entry.clone());
                // A bounded cache share caps how much of the shared cache
                // one tenant may occupy: past it, the tenant evicts its
                // *own* least-recently-used entry instead of squeezing the
                // others.
                if let Some(share) = tenant.cache_share {
                    while cache.entries_for(corpus) > share {
                        if !cache.evict_lru_of(corpus) {
                            break;
                        }
                    }
                }
            }
        }
        Ok(Served {
            output: entry.output,
            cached: false,
            encoded: entry.encoded,
        })
    }

    /// Cache occupancy and hit/miss counters across all tenants.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: cache.lru.len(),
            capacity: cache.lru.capacity(),
        }
    }

    /// Number of cached results belonging to one tenant.
    pub fn cached_entries_for(&self, name: &str) -> usize {
        self.cache.lock().unwrap().entries_for(name)
    }

    /// Drops all cached results for every tenant (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.lock().unwrap().clear();
    }
}

impl Default for CorpusRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};

    fn corpus(seed: u64) -> Corpus {
        generate(&CorpusConfig {
            seed,
            ..CorpusConfig::small()
        })
    }

    fn registry_with_two_tenants() -> CorpusRegistry {
        let registry = CorpusRegistry::new();
        registry.register("alpha", corpus(0xA)).unwrap();
        registry.register("beta", corpus(0xB)).unwrap();
        registry
    }

    fn first_query(registry: &CorpusRegistry, tenant: &str) -> (String, u16) {
        let artifacts = registry.artifacts(tenant).unwrap();
        let survey = artifacts.corpus().survey_bank().iter().next().unwrap();
        (survey.query.clone(), survey.year)
    }

    #[test]
    fn routes_requests_to_the_named_tenant() {
        let registry = registry_with_two_tenants();
        assert_eq!(registry.tenants(), ["alpha", "beta"]);
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        let via_alpha = registry.generate("alpha", &request).unwrap();
        let via_beta = registry.generate("beta", &request).unwrap();
        // Same request, different corpora: the alpha corpus knows the
        // query's topic, and whatever beta returns is computed against its
        // own graph, not alpha's cached result.
        assert!(!via_alpha.output.reading_list.is_empty());
        assert!(!via_alpha.output.same_result(&via_beta.output));
        assert!(!via_beta.cached);
    }

    #[test]
    fn an_expired_deadline_sheds_the_pipeline_mid_compute() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        // A deadline captured before the pipeline starts is guaranteed
        // expired by the first inter-stage gate.
        let err = registry
            .generate_with_deadline("alpha", &request, Some(std::time::Instant::now()))
            .unwrap_err();
        assert_eq!(err, RegistryError::Request(RepagerError::DeadlineExceeded));
        // The shed run cached nothing, and the armed deadline does not
        // leak into the next (deadline-less) request on the same thread's
        // scratch.
        assert_eq!(registry.cache_stats().entries, 0);
        let served = registry.generate("alpha", &request).unwrap();
        assert!(!served.cached);
        assert!(!served.output.reading_list.is_empty());
    }

    #[test]
    fn a_cache_hit_is_served_even_past_its_deadline() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("alpha", &request).unwrap();
        let served = registry
            .generate_with_deadline("alpha", &request, Some(std::time::Instant::now()))
            .unwrap();
        assert!(served.cached, "a hit costs no compute, so nothing to shed");
    }

    #[test]
    fn invalid_requests_error_and_are_not_cached() {
        let registry = CorpusRegistry::new();
        registry.register("alpha", corpus(0xA)).unwrap();
        let bad = PathRequest {
            config: rpg_repager::RepagerConfig {
                seed_count: 0,
                ..Default::default()
            },
            ..PathRequest::new("anything", 10)
        };
        // The typed configuration error survives through the registry, and
        // a request that never ran the pipeline is neither cached nor
        // counted as a miss.
        assert!(matches!(
            registry.generate("alpha", &bad),
            Err(RegistryError::Request(RepagerError::Config(_)))
        ));
        let stats = registry.cache_stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0));
    }

    #[test]
    fn identical_queries_against_different_tenants_do_not_collide() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("alpha", &request).unwrap();
        registry.generate("beta", &request).unwrap();
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
        // Repeats hit per tenant.
        assert!(registry.generate("alpha", &request).unwrap().cached);
        assert!(registry.generate("beta", &request).unwrap().cached);
        assert_eq!(registry.cache_stats().hits, 2);
    }

    #[test]
    fn refresh_evicts_only_that_tenants_entries() {
        let registry = registry_with_two_tenants();
        let (alpha_query, alpha_year) = first_query(&registry, "alpha");
        let (beta_query, beta_year) = first_query(&registry, "beta");
        let alpha_request = PathRequest {
            max_year: Some(alpha_year),
            ..PathRequest::new(&alpha_query, 20)
        };
        let beta_request = PathRequest {
            max_year: Some(beta_year),
            ..PathRequest::new(&beta_query, 20)
        };
        registry.generate("alpha", &alpha_request).unwrap();
        registry.generate("beta", &beta_request).unwrap();
        assert_eq!(registry.cached_entries_for("alpha"), 1);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        registry.refresh("alpha", corpus(0xA2)).unwrap();
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.epoch("beta"), Some(0));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        // Beta still hits; alpha recomputes against the refreshed corpus.
        assert!(registry.generate("beta", &beta_request).unwrap().cached);
        assert!(!registry.generate("alpha", &alpha_request).unwrap().cached);
    }

    #[test]
    fn refresh_in_place_bumps_the_epoch_and_evicts_only_that_tenant() {
        let registry = registry_with_two_tenants();
        let (alpha_query, alpha_year) = first_query(&registry, "alpha");
        let (beta_query, beta_year) = first_query(&registry, "beta");
        let alpha_request = PathRequest {
            max_year: Some(alpha_year),
            ..PathRequest::new(&alpha_query, 20)
        };
        let beta_request = PathRequest {
            max_year: Some(beta_year),
            ..PathRequest::new(&beta_query, 20)
        };
        let before = registry.generate("alpha", &alpha_request).unwrap();
        registry.generate("beta", &beta_request).unwrap();

        assert_eq!(registry.refresh_in_place("alpha").unwrap(), 1);
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        // The rebuilt artifacts serve the same corpus, so the recomputed
        // answer matches the pre-refresh one — but it is a recomputation.
        let after = registry.generate("alpha", &alpha_request).unwrap();
        assert!(!after.cached);
        assert!(after.output.same_result(&before.output));

        assert!(matches!(
            registry.refresh_in_place("ghost"),
            Err(RegistryError::UnknownCorpus(name)) if name == "ghost"
        ));
    }

    #[test]
    fn refresh_of_unknown_tenant_is_an_error() {
        let registry = CorpusRegistry::new();
        assert!(matches!(
            registry.refresh("ghost", corpus(1)),
            Err(RegistryError::UnknownCorpus(name)) if name == "ghost"
        ));
        assert!(matches!(
            registry.generate("ghost", &PathRequest::new("anything", 5)),
            Err(RegistryError::UnknownCorpus(_))
        ));
    }

    #[test]
    fn reregistering_a_tenant_bumps_the_epoch_and_sweeps() {
        let registry = CorpusRegistry::new();
        registry.register("solo", corpus(7)).unwrap();
        let (query, year) = first_query(&registry, "solo");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("solo", &request).unwrap();
        assert_eq!(registry.cached_entries_for("solo"), 1);
        registry.register("solo", corpus(8)).unwrap();
        assert_eq!(registry.epoch("solo"), Some(1));
        assert_eq!(registry.cached_entries_for("solo"), 0);
    }

    #[test]
    fn remove_drops_tenant_and_its_cache_entries() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("alpha", &request).unwrap();
        assert!(registry.remove("alpha"));
        assert!(!registry.remove("alpha"));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert!(!registry.contains("alpha"));
        assert_eq!(registry.len(), 1);
        assert!(matches!(
            registry.generate("alpha", &request),
            Err(RegistryError::UnknownCorpus(_))
        ));
    }

    fn spec_manifest(tenants: &[(&str, u64)]) -> Manifest {
        let map: HashMap<String, TenantConfig> = tenants
            .iter()
            .map(|&(name, seed)| {
                (
                    name.to_string(),
                    TenantConfig::for_spec(CorpusSpec {
                        papers_per_topic: Some(20),
                        ..CorpusSpec::small(seed)
                    }),
                )
            })
            .collect();
        Manifest {
            admin_keys: None,
            admin_key_hashes: None,
            log_level: None,
            tenants: Some(map),
        }
    }

    fn cache_one(registry: &CorpusRegistry, tenant: &str) {
        let (query, year) = first_query(registry, tenant);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 10)
        };
        registry.generate(tenant, &request).unwrap();
    }

    #[test]
    fn apply_manifest_creates_replaces_and_removes_by_spec_diff() {
        let registry = CorpusRegistry::new();
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 1), ("beta", 2)]))
            .unwrap();
        assert_eq!(diff.created, ["alpha", "beta"]);
        assert!(!diff.is_noop());
        assert_eq!(registry.tenants(), ["alpha", "beta"]);
        assert_eq!(registry.spec("alpha").unwrap().seed, 1);

        cache_one(&registry, "alpha");
        cache_one(&registry, "beta");

        // Same manifest again: nothing rebuilt, cache intact.
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 1), ("beta", 2)]))
            .unwrap();
        assert!(diff.is_noop(), "{diff:?}");
        assert_eq!(diff.unchanged, ["alpha", "beta"]);
        assert_eq!(registry.cached_entries_for("alpha"), 1);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        // New seed for alpha: replaced, epoch bumped, only alpha's cache
        // swept; beta untouched.
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 9), ("beta", 2)]))
            .unwrap();
        assert_eq!(diff.replaced, ["alpha"]);
        assert_eq!(diff.unchanged, ["beta"]);
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.epoch("beta"), Some(0));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        // Beta dropped from the manifest: removed with its cache entries.
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 9)]))
            .unwrap();
        assert_eq!(diff.removed, ["beta"]);
        assert!(!registry.contains("beta"));
        assert_eq!(registry.cached_entries_for("beta"), 0);
        assert_eq!(registry.tenants(), ["alpha"]);
    }

    #[test]
    fn apply_manifest_replaces_tenants_registered_without_a_spec() {
        let registry = CorpusRegistry::new();
        registry.register("alpha", corpus(0xA)).unwrap();
        cache_one(&registry, "alpha");
        // A raw-registered tenant has no spec, so a manifest naming it must
        // rebuild it (the recipes cannot be proven equal).
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 1)]))
            .unwrap();
        assert_eq!(diff.replaced, ["alpha"]);
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.spec("alpha").unwrap().seed, 1);
    }

    #[test]
    fn apply_manifest_rejects_invalid_manifests_without_touching_tenants() {
        let registry = CorpusRegistry::new();
        registry.register("keep", corpus(3)).unwrap();
        let mut manifest = spec_manifest(&[("bad", 1)]);
        manifest
            .tenants
            .as_mut()
            .unwrap()
            .get_mut("bad")
            .unwrap()
            .weight = Some(0);
        assert!(registry.apply_manifest(&manifest).is_err());
        assert_eq!(registry.tenants(), ["keep"], "failed apply must be atomic");
    }

    #[test]
    fn register_spec_records_tuning_and_replaces_like_refresh() {
        let registry = CorpusRegistry::new();
        let mut config = TenantConfig::for_spec(CorpusSpec {
            papers_per_topic: Some(20),
            ..CorpusSpec::small(5)
        });
        config.variant = Some("NEWST-C".to_string());
        config.cache_share = Some(1);
        assert_eq!(registry.register_spec("solo", &config).unwrap(), 0);
        assert_eq!(
            registry.default_variant("solo"),
            Some(Variant::CandidatesOnly)
        );
        assert_eq!(registry.spec("solo").unwrap().seed, 5);
        // Replacing via a new spec bumps the epoch.
        config.corpus.as_mut().unwrap().seed = 6;
        assert_eq!(registry.register_spec("solo", &config).unwrap(), 1);
        let overview = registry.overview();
        assert_eq!(overview.len(), 1);
        assert_eq!(overview[0].name, "solo");
        assert_eq!(overview[0].epoch, 1);
        assert_eq!(overview[0].cache_share, Some(1));
        assert_eq!(overview[0].spec.as_ref().unwrap().seed, 6);
    }

    #[test]
    fn cache_share_caps_one_tenants_entries_only() {
        let registry = CorpusRegistry::new();
        registry.register("alpha", corpus(0xA)).unwrap();
        registry.register("beta", corpus(0xB)).unwrap();
        assert!(registry.set_cache_share("alpha", Some(1)));
        assert!(!registry.set_cache_share("ghost", Some(1)));
        let artifacts = registry.artifacts("alpha").unwrap();
        let queries: Vec<(String, u16)> = artifacts
            .corpus()
            .survey_bank()
            .iter()
            .take(3)
            .map(|s| (s.query.clone(), s.year))
            .collect();
        for (query, year) in &queries {
            let request = PathRequest {
                max_year: Some(*year),
                ..PathRequest::new(query, 10)
            };
            registry.generate("alpha", &request).unwrap();
        }
        cache_one(&registry, "beta");
        assert_eq!(
            registry.cached_entries_for("alpha"),
            1,
            "share of 1 keeps only the most recent entry"
        );
        assert_eq!(registry.cached_entries_for("beta"), 1);
        // The survivor is the most recent query: it still hits.
        let (query, year) = &queries[2];
        let request = PathRequest {
            max_year: Some(*year),
            ..PathRequest::new(query, 10)
        };
        assert!(registry.generate("alpha", &request).unwrap().cached);
    }

    /// Each tenant's entry count, by a full scan of the cached keys.
    fn scanned_counts(cache: &ResultCache) -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for key in cache.lru.keys() {
            *counts.entry(key.corpus.clone()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn per_tenant_counts_match_a_full_scan_through_every_mutation() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 10)
        };
        let output = registry.generate("alpha", &request).unwrap().output;
        let tenants = ["alpha", "beta", "a\"b\\c", "café"];
        let queries: Vec<String> = (0..12).map(|i| format!("q{i}")).collect();
        for seed in 1..=8u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let mut cache = ResultCache::new(1 + next(10));
            for step in 0..400 {
                let tenant = tenants[next(tenants.len())];
                match next(20) {
                    0..=13 => {
                        let key = TenantKey {
                            corpus: tenant.to_string(),
                            fingerprint: RequestFingerprint::of(&PathRequest::new(
                                &queries[next(queries.len())],
                                10,
                            ))
                            .with_epoch(next(2) as u64),
                        };
                        cache.insert(
                            key,
                            CacheEntry {
                                output: output.clone(),
                                encoded: EncodedSlot::default(),
                            },
                        );
                    }
                    14..=16 => {
                        cache.evict_lru_of(tenant);
                    }
                    17 | 18 => cache.sweep(|corpus| corpus == tenant),
                    _ => cache.clear(),
                }
                let scanned = scanned_counts(&cache);
                assert_eq!(cache.per_tenant, scanned, "seed {seed}, step {step}");
                for tenant in tenants {
                    assert_eq!(
                        cache.entries_for(tenant),
                        scanned.get(tenant).copied().unwrap_or(0)
                    );
                }
            }
        }
        let mut disabled = ResultCache::new(0);
        disabled.insert(
            TenantKey {
                corpus: "alpha".to_string(),
                fingerprint: RequestFingerprint::of(&request),
            },
            CacheEntry {
                output,
                encoded: EncodedSlot::default(),
            },
        );
        assert!(disabled.per_tenant.is_empty(), "capacity 0 stores nothing");
    }

    #[test]
    fn a_miss_hands_out_the_slot_its_hits_share() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 10)
        };
        let miss = registry.generate("alpha", &request).unwrap();
        assert!(miss.encoded.set("bytes".into()).is_ok());
        let hit = registry.generate("alpha", &request).unwrap();
        assert!(hit.cached);
        assert!(Arc::ptr_eq(&miss.encoded, &hit.encoded));
        assert_eq!(hit.encoded.get().map(|b| &**b), Some("bytes"));
        // After a refresh the recomputed result starts with an empty slot.
        registry.refresh_in_place("alpha").unwrap();
        let fresh = registry.generate("alpha", &request).unwrap();
        assert!(!fresh.cached);
        assert!(fresh.encoded.get().is_none());
        // Without a cache every result gets a slot of its own.
        let uncached = CorpusRegistry::with_cache_capacity(0);
        uncached.register("alpha", corpus(0xA)).unwrap();
        let a = uncached.generate("alpha", &request).unwrap();
        let b = uncached.generate("alpha", &request).unwrap();
        assert!(!Arc::ptr_eq(&a.encoded, &b.encoded));
    }

    #[test]
    fn spec_with_snapshot_loads_from_it() {
        let path = std::env::temp_dir().join(format!(
            "rpg-registry-snap-good-{}.rpgsnap",
            std::process::id()
        ));
        let spec = CorpusSpec {
            papers_per_topic: Some(20),
            ..CorpusSpec::small(777)
        };
        let artifacts = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
        let bytes =
            crate::snapshot::encode(&artifacts, crate::snapshot::spec_fingerprint(&spec)).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let registry = CorpusRegistry::new();
        let snap_spec = CorpusSpec {
            snapshot: Some(path.to_string_lossy().into_owned()),
            ..spec.clone()
        };
        registry
            .register_spec("from-snap", &TenantConfig::for_spec(snap_spec.clone()))
            .unwrap();
        registry
            .register_spec("from-spec", &TenantConfig::for_spec(spec))
            .unwrap();
        // Snapshot-loaded and spec-built tenants serve identical results.
        let (query, year) = first_query(&registry, "from-snap");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 15)
        };
        let a = registry.generate("from-snap", &request).unwrap();
        let b = registry.generate("from-spec", &request).unwrap();
        assert!(a.output.same_result(&b.output));
        // Refreshing in place reloads from the snapshot and bumps the epoch.
        assert_eq!(registry.refresh_in_place("from-snap").unwrap(), 1);
        let refreshed = registry.generate("from-snap", &request).unwrap();
        assert!(!refreshed.cached, "refresh must evict the tenant's cache");
        assert!(refreshed.output.same_result(&b.output));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unusable_snapshots_fall_back_to_a_full_build() {
        let spec = CorpusSpec {
            papers_per_topic: Some(20),
            ..CorpusSpec::small(778)
        };
        let artifacts = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
        // A snapshot whose fingerprint belongs to a *different* spec.
        let stale = std::env::temp_dir().join(format!(
            "rpg-registry-snap-stale-{}.rpgsnap",
            std::process::id()
        ));
        let wrong = crate::snapshot::spec_fingerprint(&CorpusSpec::small(1));
        std::fs::write(&stale, crate::snapshot::encode(&artifacts, wrong).unwrap()).unwrap();

        let registry = CorpusRegistry::new();
        for (tenant, path) in [
            ("stale-snap", stale.to_string_lossy().into_owned()),
            ("missing-snap", "/nonexistent/rpg.rpgsnap".to_string()),
        ] {
            let config = TenantConfig::for_spec(CorpusSpec {
                snapshot: Some(path),
                ..spec.clone()
            });
            registry.register_spec(tenant, &config).unwrap();
        }
        registry
            .register_spec("reference", &TenantConfig::for_spec(spec))
            .unwrap();
        let (query, year) = first_query(&registry, "reference");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 15)
        };
        let expected = registry.generate("reference", &request).unwrap();
        for tenant in ["stale-snap", "missing-snap"] {
            let served = registry.generate(tenant, &request).unwrap();
            assert!(
                served.output.same_result(&expected.output),
                "tenant {tenant} must have been rebuilt from its spec"
            );
        }
        std::fs::remove_file(&stale).ok();
    }

    #[test]
    fn zero_cache_shares_are_rejected() {
        let registry = registry_with_two_tenants();
        assert!(!registry.set_cache_share("alpha", Some(0)));
        assert!(registry.set_cache_share("alpha", Some(1)));
        assert!(registry.set_cache_share("alpha", None));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let registry = Arc::new(CorpusRegistry::new());
        registry.register("shared", corpus(3)).unwrap();
        let (query, year) = first_query(&registry, "shared");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 15)
        };
        let reference = registry.generate("shared", &request).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let registry = registry.clone();
                let request = request.clone();
                let expected = reference.output.clone();
                scope.spawn(move || {
                    let served = registry.generate("shared", &request).unwrap();
                    assert!(served.output.same_result(&expected));
                });
            }
        });
    }
}
