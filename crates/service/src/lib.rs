//! The concurrent serving layer for RePaGer (`rpg-service`).
//!
//! The pipeline itself is
//! [`CorpusArtifacts::generate`](rpg_repager::CorpusArtifacts::generate):
//! always uncached, on the calling thread's reused scratch. This crate adds
//! what a server needs around it:
//!
//! * **multi-tenant routing and result caching** — a [`CorpusRegistry`]
//!   holds named, `Arc`-shared [`rpg_repager::CorpusArtifacts`] and the one
//!   bounded LRU result cache, keyed by tenant and [`RequestFingerprint`];
//! * **batch execution** — [`parallel::fan_out`] spreads independent
//!   requests over scoped worker threads, each worker reusing one
//!   [`rpg_repager::PipelineScratch`] across everything it claims;
//! * **tenant manifests** ([`manifest`]) and **corpus snapshots**
//!   ([`snapshot`]) for declarative, cheap (re)starts.
//!
//! ```no_run
//! use rpg_repager::system::PathRequest;
//! use rpg_service::CorpusRegistry;
//!
//! let registry = CorpusRegistry::new();
//! registry
//!     .register("default", rpg_corpus::generate(&rpg_corpus::CorpusConfig::small()))
//!     .unwrap();
//! let request = PathRequest::new("graph neural networks", 20);
//! let served = registry.generate("default", &request).unwrap();
//! assert!(served.output.reading_list.len() <= 20);
//! assert!(registry.generate("default", &request).unwrap().cached);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod fingerprint;
pub mod manifest;
pub mod parallel;
pub mod registry;
pub mod snapshot;

pub use cache::LruCache;
pub use fingerprint::RequestFingerprint;
pub use manifest::{
    valid_tenant_name, CorpusSpec, Manifest, ManifestDiff, ManifestError, TenantConfig,
};
pub use registry::{CorpusRegistry, EncodedSlot, RegistryError, Served, TenantOverview};
pub use snapshot::{spec_fingerprint, SnapshotError, SnapshotInfo};

/// Default number of results the LRU cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cache hit/miss counters and occupancy of a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to run the pipeline.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum number of entries.
    pub capacity: usize,
}

/// Default worker-thread count for batch execution.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};
    use rpg_repager::system::{PathRequest, RepagerOutput};

    const TENANT: &str = "default";

    fn registry() -> CorpusRegistry {
        let registry = CorpusRegistry::new();
        registry
            .register(
                TENANT,
                generate(&CorpusConfig {
                    seed: 0xDE40,
                    ..CorpusConfig::small()
                }),
            )
            .unwrap();
        registry
    }

    fn survey_requests(registry: &CorpusRegistry, count: usize) -> Vec<(String, u16)> {
        registry
            .artifacts(TENANT)
            .unwrap()
            .corpus()
            .survey_bank()
            .iter()
            .take(count)
            .map(|s| (s.query.clone(), s.year))
            .collect()
    }

    #[test]
    fn repeated_request_is_served_from_the_cache() {
        let registry = registry();
        let (query, year) = survey_requests(&registry, 1).remove(0);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        let first = registry.generate(TENANT, &request).unwrap();
        assert!(!first.cached);
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let second = registry.generate(TENANT, &request).unwrap();
        assert!(second.cached);
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(first.output.reading_list, second.output.reading_list);
        assert!(first.output.same_result(&second.output));
    }

    #[test]
    fn concurrent_shared_service_yields_identical_outputs() {
        let registry = registry();
        let surveys = survey_requests(&registry, 4);
        // Serial reference outputs, computed straight from the artifacts
        // without the cache so the threaded runs below genuinely exercise
        // the pipeline on cache misses.
        let artifacts = registry.artifacts(TENANT).unwrap();
        let reference: Vec<RepagerOutput> = surveys
            .iter()
            .map(|(query, year)| {
                artifacts
                    .generate(&PathRequest {
                        max_year: Some(*year),
                        ..PathRequest::new(query, 20)
                    })
                    .unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for ((query, year), expected) in surveys.iter().zip(&reference) {
                        let served = registry
                            .generate(
                                TENANT,
                                &PathRequest {
                                    max_year: Some(*year),
                                    ..PathRequest::new(query, 20)
                                },
                            )
                            .unwrap();
                        assert!(served.output.same_result(expected));
                    }
                });
            }
        });
    }

    #[test]
    fn timings_are_populated_and_consistent() {
        let registry = registry();
        let (query, year) = survey_requests(&registry, 1).remove(0);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        let served = registry.generate(TENANT, &request).unwrap();
        let timings = served.output.timings;
        assert!(timings.total > std::time::Duration::ZERO);
        assert!(timings.stage_sum() <= timings.total);
        // The five stages cover the total minus bounded pipeline
        // bookkeeping. A strict ratio is flaky on loaded CI runners (a
        // scheduler stall between stages counts toward the total but no
        // stage), so allow a generous absolute gap.
        let gap = timings.total - timings.stage_sum();
        assert!(
            gap < std::time::Duration::from_millis(250),
            "non-stage overhead {gap:?} is too large for {:?} total",
            timings.total
        );
        for (name, duration) in timings.stages() {
            assert!(
                duration > std::time::Duration::ZERO,
                "stage {name} unrecorded"
            );
        }
    }
}
