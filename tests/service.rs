//! Integration tests for in-process serving over the demo corpus: shared
//! `CorpusArtifacts` under concurrency, batch/serial equivalence, stage
//! timings, and the registry's result cache.

use rpg_repager::system::{PathRequest, RepagerOutput};
use rpg_repager::{CorpusArtifacts, PipelineScratch};
use rpg_repro::demo_artifacts;
use rpg_service::{parallel, CorpusRegistry};
use std::sync::Arc;
use std::time::Duration;

fn demo_requests(artifacts: &CorpusArtifacts, count: usize) -> Vec<(String, u16)> {
    artifacts
        .corpus()
        .survey_bank()
        .iter()
        .take(count)
        .map(|s| (s.query.clone(), s.year))
        .collect()
}

#[test]
fn shared_service_across_threads_matches_serial_runs() {
    let artifacts = demo_artifacts();
    let surveys = demo_requests(&artifacts, 5);
    let serial: Vec<RepagerOutput> = surveys
        .iter()
        .map(|(query, year)| {
            artifacts
                .generate(&PathRequest {
                    max_year: Some(*year),
                    ..PathRequest::new(query, 25)
                })
                .unwrap()
        })
        .collect();

    // N threads hammer the same artifacts; every output must carry exactly
    // the result of the serial reference run.
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let artifacts = Arc::clone(&artifacts);
            let surveys = &surveys;
            let serial = &serial;
            scope.spawn(move || {
                // Stagger the per-thread order so threads collide on
                // different requests.
                for i in 0..surveys.len() {
                    let pick = (i + worker) % surveys.len();
                    let (query, year) = &surveys[pick];
                    let output = artifacts
                        .generate(&PathRequest {
                            max_year: Some(*year),
                            ..PathRequest::new(query, 25)
                        })
                        .unwrap();
                    assert!(
                        output.same_result(&serial[pick]),
                        "thread {worker} diverged on query {query:?}"
                    );
                }
            });
        }
    });
}

#[test]
fn batch_over_survey_queries_matches_the_serial_loop() {
    let artifacts = demo_artifacts();
    let surveys = demo_requests(&artifacts, 8);
    let requests: Vec<PathRequest<'_>> = surveys
        .iter()
        .map(|(query, year)| PathRequest {
            max_year: Some(*year),
            ..PathRequest::new(query, 30)
        })
        .collect();
    let serial: Vec<Vec<_>> = requests
        .iter()
        .map(|r| artifacts.generate(r).unwrap().reading_list)
        .collect();
    // A batch is a fan-out whose workers each reuse one pipeline workspace.
    let batched = parallel::fan_out(requests.len(), 4, PipelineScratch::new, |scratch, i| {
        artifacts.generate_with_scratch(&requests[i], scratch)
    });
    assert_eq!(batched.len(), serial.len());
    for (batch_result, serial_list) in batched.into_iter().zip(&serial) {
        assert_eq!(&batch_result.unwrap().reading_list, serial_list);
    }
}

#[test]
fn repeated_identical_request_hits_the_cache_with_identical_list() {
    let artifacts = demo_artifacts();
    let (query, year) = demo_requests(&artifacts, 1).remove(0);
    let registry = CorpusRegistry::new();
    registry.register_artifacts("demo", artifacts);
    let request = PathRequest {
        max_year: Some(year),
        ..PathRequest::new(&query, 30)
    };
    let first = registry.generate("demo", &request).unwrap();
    let before = registry.cache_stats();
    let second = registry.generate("demo", &request).unwrap();
    let after = registry.cache_stats();
    assert_eq!(
        after.hits,
        before.hits + 1,
        "second request must be a cache hit"
    );
    assert!(!first.cached && second.cached);
    assert_eq!(first.output.reading_list, second.output.reading_list);
    assert!(first.output.same_result(&second.output));
}

#[test]
fn outputs_expose_all_five_stage_timings() {
    let artifacts = demo_artifacts();
    let (query, year) = demo_requests(&artifacts, 1).remove(0);
    let output = artifacts
        .generate(&PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 30)
        })
        .unwrap();
    let timings = output.timings;
    let stages = timings.stages();
    assert_eq!(stages.len(), 5);
    for (name, duration) in stages {
        assert!(
            duration > Duration::ZERO,
            "stage {name} has no recorded time"
        );
    }
    assert!(timings.stage_sum() <= timings.total);
    // Stage timings sum to ≈ the total: only bounded pipeline bookkeeping
    // falls outside the five stages. An absolute gap keeps this stable on
    // loaded CI runners, where a scheduler stall between stages would break
    // a strict ratio.
    let gap = timings.total - timings.stage_sum();
    assert!(
        gap < Duration::from_millis(250),
        "non-stage overhead {gap:?} is too large for {:?} total",
        timings.total
    );
}
