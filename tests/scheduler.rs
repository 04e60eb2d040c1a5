//! Resize integration tests.
//!
//! The invariant under attack: **a mid-flight resize never drops or duplicates
//! a tuple in any query's answer**. A resize drains the current pipeline
//! incarnation at a quiescent point and re-installs every in-flight query on
//! the new one at its original snapshot, restarting its pass — by §3.3's wrap
//! protocol any complete pass over the snapshot yields the exact answer, so
//! COUNT/SUM aggregates must stay oracle-identical across forced upscales and
//! downscales, and the pipeline must quiesce to `batches_in_flight == 0`
//! afterwards. Beside that: the host-derived default Stage width, explicit
//! widths used as given, refused resize requests, and the progress handle of a
//! re-installed query. The engine at host-derived default widths also rides in
//! `tests/engine_equivalence.rs`; supervision composition (panic downscale then
//! explicit upscale, a scan-worker death swept across a resize re-install)
//! lives in `tests/fault_injection.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cjoin_repro::cjoin::fault::{FaultPlan, FaultSite};
use cjoin_repro::cjoin::{
    stage_width_for, Axis, CjoinConfig, CjoinEngine, QueryHandle, ResizeReason,
};
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

fn assert_quiesces(engine: &CjoinEngine, what: &str) {
    let start = Instant::now();
    loop {
        let stats = engine.stats();
        if stats.batches_in_flight == 0 {
            return;
        }
        assert!(
            start.elapsed() < RESOLVE_TIMEOUT,
            "{what}: batches_in_flight stuck at {} after {RESOLVE_TIMEOUT:?}",
            stats.batches_in_flight
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

/// Forced upscale and downscale on every axis while queries are in flight:
/// every answer stays oracle-exact, every resize is recorded, and the pipeline
/// quiesces afterwards.
#[test]
fn mid_flight_resizes_never_drop_or_duplicate_tuples() {
    let data = test_data();
    let catalog = data.catalog();
    let queries = test_queries(&data, 4, 91);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference::evaluate(&catalog, q, SnapshotId::INITIAL).unwrap())
        .collect();

    // Slow the scan so the queries are reliably still mid-pass when the
    // resizes land; all axes left at their defaults (max_concurrency and
    // batch_size are not axes).
    let config = CjoinConfig {
        max_concurrency: 16,
        batch_size: 128,
        ..CjoinConfig::default()
    }
    .with_fault_plan(
        FaultPlan::seeded(17)
            .delay(FaultSite::ScanWorker, 1_000)
            .build(),
    );
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
    let baseline = engine.scheduler_stats();
    assert!(baseline.resizes.is_empty(), "{:?}", baseline.resizes);
    let stage0 = baseline.stage_workers;

    let handles: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();

    // Forced upscale on every axis mid-flight (scan and shards start at the
    // classic width 1 whatever the host; the stage axis grows one past its
    // host-derived default), then back down again.
    engine.request_resize(Axis::ScanWorkers, 2).unwrap();
    engine
        .request_resize(Axis::StageWorkers, stage0 + 1)
        .unwrap();
    engine.request_resize(Axis::DistributorShards, 2).unwrap();
    engine.request_resize(Axis::DistributorShards, 1).unwrap();
    engine.request_resize(Axis::StageWorkers, stage0).unwrap();
    engine.request_resize(Axis::ScanWorkers, 1).unwrap();

    for ((query, handle), expected) in queries.iter().zip(&handles).zip(&expected) {
        let result = wait_bounded(handle, &query.name).unwrap();
        assert!(
            result.approx_eq(expected),
            "{} diverged from oracle across resizes: {:?}",
            query.name,
            result.diff(expected)
        );
    }
    assert_quiesces(&engine, "post-resize quiesce");

    // Every forced resize is observable: six events with reason Forced, and
    // the final widths are back at the classic shape.
    let stats = engine.stats();
    let forced: Vec<_> = stats
        .scheduler
        .resizes
        .iter()
        .filter(|e| e.reason == ResizeReason::Forced)
        .collect();
    assert_eq!(
        forced.len(),
        6,
        "all six forced resizes recorded: {forced:?}"
    );
    assert_eq!(
        (
            stats.scheduler.scan_workers,
            stats.scheduler.stage_workers,
            stats.scheduler.distributor_shards
        ),
        (1, stage0, 1)
    );
    engine.shutdown();
}

/// A query carried across a resize starts a new pass on the new incarnation,
/// and its progress handle says so: the tracker restarts at the new front-end's
/// width instead of reporting the abandoned pass's rows and segments against
/// the width the query was submitted to.
#[test]
fn progress_restarts_with_the_pass_when_a_resize_reinstalls_the_query() {
    let data = test_data();
    let catalog = data.catalog();
    let query = test_queries(&data, 1, 93).remove(0);
    let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();

    // 3 ms per scan batch holds the query mid-pass across the resize.
    let config = CjoinConfig {
        max_concurrency: 16,
        batch_size: 128,
        ..CjoinConfig::default()
    }
    .with_scan_workers(1)
    .with_fault_plan(
        FaultPlan::seeded(19)
            .delay(FaultSite::ScanWorker, 3_000)
            .build(),
    );
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
    let handle = engine.submit(query.clone()).unwrap();
    let progress = Arc::clone(handle.progress());
    let sample = |what: &str| {
        let (done, total) = (progress.segments_completed(), progress.segments_total());
        assert!(
            done <= total,
            "{what}: {done} of {total} segments completed"
        );
        progress.rows_seen()
    };
    assert_eq!(progress.segments_total(), 1);

    let start = Instant::now();
    while sample("first pass") < progress.rows_total() / 2 {
        assert!(start.elapsed() < RESOLVE_TIMEOUT, "scan never advanced");
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = sample("before the resize");
    assert!(
        !progress.is_completed(),
        "the delay must hold the query mid-pass"
    );
    engine.request_resize(Axis::ScanWorkers, 2).unwrap();
    let after = sample("after the resize");
    assert!(
        after < before,
        "rows_seen kept the abandoned pass: {before} before the resize, {after} after"
    );
    assert_eq!(progress.segments_total(), 2);
    assert!(progress.fraction() < 1.0 && !progress.is_completed());

    let result = loop {
        sample("second pass");
        if let Some(outcome) = handle.try_result() {
            break outcome.unwrap();
        }
        assert!(start.elapsed() < RESOLVE_TIMEOUT, "query never resolved");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        result.approx_eq(&expected),
        "{} diverged from oracle across the resize: {:?}",
        query.name,
        result.diff(&expected)
    );
    assert!(progress.is_completed());
    assert_eq!(
        (progress.segments_completed(), progress.segments_total()),
        (2, 2)
    );
    assert_quiesces(&engine, "post-resize quiesce");
    engine.shutdown();
}

/// The Stage's default width is sized from the host once, by
/// [`stage_width_for`]; the scan and aggregation axes default to the classic
/// width 1. On up to three cores the whole pipeline is the paper's classic one
/// thread per stage. The width is configured, not resized: no event is logged.
#[test]
fn startup_sizing_collapses_to_classic_shape_when_cores_are_scarce() {
    let data = test_data();
    let catalog = data.catalog();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = CjoinConfig {
        max_concurrency: 16,
        ..CjoinConfig::default()
    };
    assert_eq!(config.worker_threads, stage_width_for(cores));
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    let stats = engine.scheduler_stats();
    assert!(stats.auto_tune);
    assert_eq!(stats.available_parallelism, cores);
    assert!(stats.resizes.is_empty(), "{:?}", stats.resizes);
    let shape = (
        stats.scan_workers,
        stats.stage_workers,
        stats.distributor_shards,
    );
    assert_eq!(shape, (1, stage_width_for(cores), 1));
    if cores <= 3 {
        assert_eq!(shape, (1, 1, 1), "classic one thread per stage");
    }
    // The spawned pipeline actually has that shape.
    let plan = engine.stage_plan();
    assert_eq!(
        (
            plan.scan_workers,
            plan.stage_workers,
            plan.distributor_shards
        ),
        shape
    );

    // The summary is visible through the engine-independent trait (and hence
    // the server stats RPC, which forwards it verbatim).
    let summary = (&engine as &dyn JoinEngine).scheduler_summary().unwrap();
    assert!(summary.auto_tune);
    assert_eq!(summary.available_parallelism, cores as u64);
    assert_eq!(summary.stage_workers, stage_width_for(cores) as u64);
    assert_eq!(summary.resizes, 0);
    engine.shutdown();
}

/// Explicitly configured widths are used as given: the pipeline spawns exactly
/// that shape and nothing is logged until a resize is requested.
#[test]
fn pinned_knobs_behave_bit_identically() {
    let data = test_data();
    let catalog = data.catalog();
    let queries = test_queries(&data, 2, 92);
    let engine = CjoinEngine::start(
        Arc::clone(&catalog),
        CjoinConfig::default()
            .with_worker_threads(2)
            .with_scan_workers(2)
            .with_distributor_shards(2)
            .with_max_concurrency(16),
    )
    .unwrap();

    let stats = engine.scheduler_stats();
    assert!(stats.resizes.is_empty(), "no resize on explicit widths");
    assert_eq!(
        (
            stats.scan_workers,
            stats.stage_workers,
            stats.distributor_shards
        ),
        (2, 2, 2)
    );
    let plan = engine.stage_plan();
    assert_eq!(
        (
            plan.scan_workers,
            plan.stage_workers,
            plan.distributor_shards
        ),
        (2, 2, 2)
    );

    // A forced resize works on explicit widths too, and answers stay exact
    // afterwards.
    engine.request_resize(Axis::DistributorShards, 1).unwrap();
    assert_eq!(engine.scheduler_stats().distributor_shards, 1);
    for query in &queries {
        let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
        let result = wait_bounded(&engine.submit(query.clone()).unwrap(), &query.name).unwrap();
        assert!(
            result.approx_eq(&expected),
            "{} diverged after an explicit-width resize: {:?}",
            query.name,
            result.diff(&expected)
        );
    }
    assert_quiesces(&engine, "explicit-width quiesce");
    engine.shutdown();
}

/// Invalid resize requests are refused by the configuration's own validation
/// and leave the widths and the resize log untouched; a request for the
/// running width is accepted and records nothing.
#[test]
fn invalid_resize_requests_are_refused() {
    let data = test_data();
    let catalog = data.catalog();
    let engine = CjoinEngine::start(
        Arc::clone(&catalog),
        CjoinConfig {
            max_concurrency: 8,
            ..CjoinConfig::default()
        },
    )
    .unwrap();
    let before = engine.scheduler_stats();
    for (axis, width) in [
        (Axis::ScanWorkers, 0),
        (Axis::ScanWorkers, 65),
        (Axis::StageWorkers, 0),
        (Axis::DistributorShards, 0),
        (Axis::DistributorShards, 257),
    ] {
        assert!(
            engine.request_resize(axis, width).is_err(),
            "{axis:?} to {width} accepted"
        );
        assert_eq!(engine.scheduler_stats(), before, "{axis:?} to {width}");
    }
    for axis in Axis::ALL {
        let running = *axis.width_in(&mut engine.config());
        engine.request_resize(axis, running).unwrap();
    }
    assert_eq!(
        engine.scheduler_stats(),
        before,
        "same-width requests record no event"
    );
    let queries = test_queries(&data, 1, 93);
    let expected = reference::evaluate(&catalog, &queries[0], SnapshotId::INITIAL).unwrap();
    let result = engine.execute(queries[0].clone()).unwrap();
    assert!(result.approx_eq(&expected), "{:?}", result.diff(&expected));
    engine.shutdown();
}
