//! Width integration tests.
//!
//! Widths are configured, not resized: the shards' default width is sized
//! from the host once, explicit widths are used as given, invalid widths are
//! refused at start, and nothing changes a width of a healthy engine — the
//! resize log stays empty. The supervisor's degradations, the only run-time
//! width changes, are covered in `tests/fault_injection.rs`; the engine at
//! host-derived default widths also rides in `tests/engine_equivalence.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cjoin_repro::cjoin::{shard_width_for, CjoinConfig, CjoinEngine, QueryHandle};
use cjoin_repro::query::{reference, JoinEngine, QueryOutcome};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::{SnapshotId, StarQuery};

const RESOLVE_TIMEOUT: Duration = Duration::from_secs(60);

fn wait_bounded(handle: &QueryHandle, what: &str) -> QueryOutcome {
    let start = Instant::now();
    loop {
        if let Some(outcome) = handle.try_result() {
            return outcome;
        }
        assert!(
            start.elapsed() < RESOLVE_TIMEOUT,
            "{what}: ticket did not resolve within {RESOLVE_TIMEOUT:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits (bounded) until every shard lane is empty.
fn assert_quiesces(engine: &CjoinEngine, what: &str) {
    let start = Instant::now();
    loop {
        let stats = engine.stats();
        if stats.queued_messages == 0 {
            return;
        }
        assert!(
            start.elapsed() < RESOLVE_TIMEOUT,
            "{what}: {} messages stuck in the lanes after {RESOLVE_TIMEOUT:?}",
            stats.queued_messages
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn test_data() -> SsbDataSet {
    SsbDataSet::generate(SsbConfig::for_tests(0.001, 901))
}

fn test_queries(data: &SsbDataSet, count: usize, seed: u64) -> Vec<StarQuery> {
    Workload::generate(data, WorkloadConfig::new(count, 0.05, seed))
        .queries()
        .to_vec()
}

/// The shards' default width is sized from the host once, by
/// [`shard_width_for`]; the scan axis defaults to the classic width 1. On up to
/// three cores the pipeline is one scan thread and two shards, the two threads
/// that used to sit downstream of the scan. The width is configured, not
/// resized: no event is logged.
#[test]
fn startup_sizing_collapses_to_classic_shape_when_cores_are_scarce() {
    let data = test_data();
    let catalog = data.catalog();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = CjoinConfig {
        max_concurrency: 16,
        ..CjoinConfig::default()
    };
    assert_eq!(config.distributor_shards, shard_width_for(cores));
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    let stats = engine.scheduler_stats();
    assert!(stats.auto_tune);
    assert_eq!(stats.available_parallelism, cores);
    assert!(stats.resizes.is_empty(), "{:?}", stats.resizes);
    assert_eq!(stats.stage_workers, 0, "there is no Stage");
    let shape = (stats.scan_workers, stats.distributor_shards);
    assert_eq!(shape, (1, shard_width_for(cores)));
    if cores <= 3 {
        assert_eq!(shape, (1, 2), "one scan thread, two shards");
    }
    // The spawned pipeline actually has that shape.
    let running = engine.stats();
    assert_eq!(
        (running.scan_workers.len(), running.distributor_shards.len()),
        shape
    );

    // The summary is visible through the engine-independent trait (and hence
    // the server stats RPC, which forwards it verbatim).
    let summary = (&engine as &dyn JoinEngine).scheduler_summary().unwrap();
    assert!(summary.auto_tune);
    assert_eq!(summary.available_parallelism, cores as u64);
    assert_eq!(summary.stage_workers, 0);
    assert_eq!(summary.distributor_shards, shard_width_for(cores) as u64);
    assert_eq!(summary.resizes, 0);
    engine.shutdown();
}

/// Explicitly configured widths are used as given: the pipeline spawns exactly
/// that shape, answers stay exact on it, and nothing is logged.
#[test]
fn pinned_knobs_behave_bit_identically() {
    let data = test_data();
    let catalog = data.catalog();
    let queries = test_queries(&data, 2, 92);
    let engine = CjoinEngine::start(
        Arc::clone(&catalog),
        CjoinConfig::default()
            .with_scan_workers(2)
            .with_distributor_shards(2)
            .with_max_concurrency(16),
    )
    .unwrap();

    let stats = engine.scheduler_stats();
    assert!(stats.resizes.is_empty(), "no resize on explicit widths");
    assert_eq!((stats.scan_workers, stats.distributor_shards), (2, 2));
    let running = engine.stats();
    assert_eq!(
        (running.scan_workers.len(), running.distributor_shards.len()),
        (2, 2)
    );

    for query in &queries {
        let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
        let result = wait_bounded(&engine.submit(query.clone()).unwrap(), &query.name).unwrap();
        assert!(
            result.approx_eq(&expected),
            "{} diverged at explicit widths: {:?}",
            query.name,
            result.diff(&expected)
        );
    }
    assert_quiesces(&engine, "explicit-width quiesce");
    assert_eq!(engine.scheduler_stats(), stats, "still no resize");
    engine.shutdown();
}

/// Invalid widths are refused by the configuration's own validation before
/// anything is spawned.
#[test]
fn invalid_widths_are_refused_at_start() {
    let data = test_data();
    let catalog = data.catalog();
    let valid = CjoinConfig {
        max_concurrency: 8,
        ..CjoinConfig::default()
    };
    for (config, what) in [
        (valid.clone().with_scan_workers(0), "scan workers 0"),
        (valid.clone().with_scan_workers(65), "scan workers 65"),
        (valid.clone().with_distributor_shards(0), "shards 0"),
        (valid.clone().with_distributor_shards(257), "shards 257"),
    ] {
        assert!(
            CjoinEngine::start(Arc::clone(&catalog), config).is_err(),
            "{what} accepted"
        );
    }
    let queries = test_queries(&data, 1, 93);
    let expected = reference::evaluate(&catalog, &queries[0], SnapshotId::INITIAL).unwrap();
    let engine = CjoinEngine::start(Arc::clone(&catalog), valid).unwrap();
    let result = engine.execute(queries[0].clone()).unwrap();
    assert!(result.approx_eq(&expected), "{:?}", result.diff(&expected));
    engine.shutdown();
}
