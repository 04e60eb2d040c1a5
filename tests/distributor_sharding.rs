//! Oracle-backed test matrix for the sharded Distributor
//! (`CjoinConfig::distributor_shards`).
//!
//! Four suites pin down the shards, each of which runs the Filter chain and
//! then aggregates:
//!
//! 1. **Oracle equivalence** — fixed-seed randomized SSB workloads run under
//!    shards ∈ {1, 2, 4} × scan workers ∈ {1, 4} must produce results
//!    identical to the single-threaded reference evaluator (`AggValue::approx_eq`
//!    under the hood of `QueryResult::approx_eq`, so AVG merge order cannot flake
//!    the suite).
//! 2. **Lifecycle churn** — queries are admitted and finalized mid-scan from
//!    concurrent clients while the shards drain. The two control-tuple invariants
//!    are observable as: every result matches the oracle (a tuple reaching a shard
//!    before its query-start would be silently dropped from the aggregate), and
//!    every shard emitted exactly one partial per completed query (a query-end
//!    finalizes only once *all* shards have folded theirs into the merge slot). Post-quiesce,
//!    the admitted/completed counters balance and every lane is empty.
//! 3. **Counter consistency** — for a deterministic (sequential) workload the
//!    per-shard `ShardCounters` must sum to the pipeline totals, and a 4-shard run
//!    must count exactly what the single-shard run counts.
//! 4. **Lane order** — with the lanes kept full and queries ending and being
//!    cancelled mid-flight, across scan widths {1, 2, 4} × shards {1, 4} ×
//!    columnar {off, on}, no shard ever meets a tuple bit outside its query's
//!    start..end (`stray_bits == 0`), and every answer equals the reference.

use std::sync::Arc;

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine, PipelineStats};
use cjoin_repro::query::reference;
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{Row, RowId};
use cjoin_repro::SnapshotId;

fn config(shards: usize) -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(32)
        .with_batch_size(256)
        .with_distributor_shards(shards)
}

#[test]
fn sharded_results_match_the_oracle_across_the_knob_matrix() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 301));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(10, 0.05, 302));

    for shards in [1usize, 2, 4] {
        for scan_workers in [1usize, 4] {
            let engine = CjoinEngine::start(
                Arc::clone(&catalog),
                config(shards).with_scan_workers(scan_workers),
            )
            .unwrap();
            for query in workload.queries() {
                let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
                let result = engine.execute(query.clone()).unwrap();
                assert!(
                    result.approx_eq(&expected),
                    "[shards={shards} scan={scan_workers}] {}: {:?}",
                    query.name,
                    result.diff(&expected)
                );
            }
            let stats = engine.stats();
            assert_eq!(stats.distributor_shards.len(), shards);
            assert_eq!(stats.scan_workers.len(), scan_workers);
            assert_eq!(stats.queries_completed, 10);
            engine.shutdown();
        }
    }
}

#[test]
fn lifecycle_churn_under_sharding_holds_control_invariants_and_quiesces() {
    const SHARDS: usize = 4;
    const WAVES: u64 = 3;
    const PER_WAVE: usize = 10;

    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 311));
    let catalog = data.catalog();
    // Small maxConc forces id recycling across waves; shards keep draining while
    // queries are admitted and finalized mid-scan.
    let engine = CjoinEngine::start(
        Arc::clone(&catalog),
        config(SHARDS).with_max_concurrency(16),
    )
    .unwrap();
    let fact = catalog.fact_table().unwrap();
    let template_row = fact.row(RowId(0)).unwrap();

    for wave in 0..WAVES {
        let snapshot = catalog.snapshots().current();
        let workload = Workload::generate(&data, WorkloadConfig::new(PER_WAVE, 0.05, 313 + wave));
        let queries: Vec<_> = workload
            .queries()
            .iter()
            .map(|q| {
                let mut q = q.clone();
                q.snapshot = Some(snapshot);
                q.name = format!("wave{wave}-{}", q.name);
                q
            })
            .collect();

        // Concurrent admission: all handles in flight at once, then the warehouse
        // grows while the wave drains through the shards.
        let handles: Vec<_> = queries
            .iter()
            .map(|q| engine.submit(q.clone()).unwrap())
            .collect();
        let load_snapshot = catalog.snapshots().commit();
        fact.insert_batch_unchecked(
            (0..150).map(|_| Row::new(template_row.values().to_vec())),
            load_snapshot,
        );

        for (query, handle) in queries.iter().zip(handles) {
            let result = handle.wait().unwrap();
            let expected = reference::evaluate(&catalog, query, snapshot).unwrap();
            assert!(
                result.approx_eq(&expected),
                "{} diverged under sharded churn: {:?}",
                query.name,
                result.diff(&expected)
            );
        }
    }

    let stats = engine.stats();
    let total = WAVES * PER_WAVE as u64;
    assert_eq!(stats.queries_admitted, total);
    assert_eq!(stats.queries_completed, total);
    assert_eq!(engine.active_queries(), 0, "all ids recycled post-churn");
    assert_eq!(stats.queued_messages, 0, "the lanes are empty post-quiesce");
    // The end-barrier invariant in numbers: a query only completed because every
    // shard flushed exactly one partial for it — and the start-broadcast invariant:
    // a shard can only emit a partial for a query whose start tuple it saw, and
    // meets no tuple bit outside a query's start..end.
    for shard in &stats.distributor_shards {
        assert_eq!(
            shard.partials_emitted, total,
            "shard {} missed a merge barrier",
            shard.shard
        );
        assert_eq!(shard.stray_bits, 0, "shard {} met a stray bit", shard.shard);
    }
    assert_eq!(stats.shard_tuples_distributed(), stats.tuples_distributed);
    assert_eq!(stats.shard_routings(), stats.routings);
    engine.shutdown();
}

/// Runs the same workload sequentially (one query in flight at a time, so the
/// distributed-tuple counts are deterministic) and returns the quiesced stats.
///
/// Each dimension is half selected, so a few percent of the fact rows survive
/// every Filter and nearly every batch carries some. At 5 % per dimension only
/// a handful of rows survive in all; which batches hold them depends on where
/// each query's pass starts, and round-robin could hand them all to one shard.
fn run_sequential(shards: usize, seed: u64) -> PipelineStats {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 321));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(8, 0.5, seed));
    let engine = CjoinEngine::start(Arc::clone(&catalog), config(shards)).unwrap();
    for query in workload.queries() {
        let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
        let result = engine.execute(query.clone()).unwrap();
        assert!(result.approx_eq(&expected), "{}", query.name);
    }
    let stats = engine.stats();
    engine.shutdown();
    stats
}

#[test]
fn per_shard_counters_sum_to_the_single_shard_totals() {
    let single = run_sequential(1, 322);
    let sharded = run_sequential(4, 322);

    // Within each run the per-shard counters must sum to the pipeline totals.
    for stats in [&single, &sharded] {
        assert_eq!(
            stats.shard_tuples_distributed(),
            stats.tuples_distributed,
            "per-shard tuple counts sum to the total"
        );
        assert_eq!(
            stats.shard_routings(),
            stats.routings,
            "per-shard routing counts sum to the total"
        );
    }
    assert_eq!(single.distributor_shards.len(), 1);
    assert_eq!(sharded.distributor_shards.len(), 4);

    // Across runs the deterministic sequential workload distributes exactly the
    // same tuples regardless of sharding — the stats refactor must not change
    // what is counted, only where.
    assert_eq!(sharded.tuples_distributed, single.tuples_distributed);
    assert_eq!(sharded.routings, single.routings);
    assert_eq!(sharded.queries_completed, single.queries_completed);
    // And the sharded run actually spread work: with 8 queries over SSB data at
    // least two shards must have seen tuples.
    let active_shards = sharded
        .distributor_shards
        .iter()
        .filter(|s| s.tuples_distributed > 0)
        .count();
    assert!(
        active_shards >= 2,
        "sharding degenerated to one worker: {:?}",
        sharded.distributor_shards
    );
}

/// The lane-order test at the engine: per cell of scan widths {1, 2, 4} ×
/// shards {1, 4} × columnar {off, on}, a seeded wave of queries runs while a
/// per-message shard delay keeps every lane full, so the scan workers block
/// on their sends and each end tuple queues behind data. A seeded third of the
/// queries is cancelled mid-flight. Every answer must equal the reference (a
/// cancel can come too late), a cancelled query resolves `Cancelled` (its
/// truncated scan still ends in-band and frees its id), and no shard meets a
/// tuple bit outside its query's start..end.
#[test]
fn lane_order_holds_while_queries_end_and_cancel_mid_flight() {
    use cjoin_repro::cjoin::fault::{FaultPlan, FaultSite};
    use cjoin_repro::query::QueryError;
    use std::time::{Duration, Instant};

    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 331));
    let catalog = data.catalog();
    let mut seed = 0u64;
    for scan_workers in [1usize, 2, 4] {
        for shards in [1usize, 4] {
            for columnar in [false, true] {
                seed += 1;
                let what = format!("scan={scan_workers} shards={shards} columnar={columnar}");
                let workload = Workload::generate(&data, WorkloadConfig::new(6, 0.05, 340 + seed));
                let plan = FaultPlan::seeded(seed)
                    .delay(FaultSite::DistributorShard, 100)
                    .build();
                let engine = CjoinEngine::start(
                    Arc::clone(&catalog),
                    config(shards)
                        .with_batch_size(64)
                        .with_scan_workers(scan_workers)
                        .with_columnar_scan(columnar)
                        .with_fault_plan(plan),
                )
                .unwrap();
                let handles: Vec<_> = workload
                    .queries()
                    .iter()
                    .map(|q| engine.submit(q.clone()).unwrap())
                    .collect();
                std::thread::sleep(Duration::from_millis(seed % 4));
                let cancelled = |i: usize| (i as u64 + seed).is_multiple_of(3);
                for (i, handle) in handles.iter().enumerate() {
                    if cancelled(i) {
                        handle.cancel();
                    }
                }
                for (i, (query, handle)) in workload.queries().iter().zip(handles).enumerate() {
                    match handle.wait() {
                        Err(QueryError::Cancelled) if cancelled(i) => {}
                        Ok(result) => {
                            let expected =
                                reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
                            assert!(
                                result.approx_eq(&expected),
                                "[{what}] {}: {:?}",
                                query.name,
                                result.diff(&expected)
                            );
                        }
                        other => panic!("[{what}] {}: unexpected outcome {other:?}", query.name),
                    }
                }
                // A cancelled query's pipeline work ends after its ticket
                // resolved; its id comes back once its end reached every lane.
                let started = Instant::now();
                while engine.active_queries() > 0 {
                    assert!(
                        started.elapsed() < Duration::from_secs(60),
                        "[{what}] an id never came back"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                let stats = engine.stats();
                assert_eq!(stats.role_failures, 0, "[{what}]");
                assert_eq!(stats.queries_completed, 6, "[{what}] every query ends once");
                for shard in &stats.distributor_shards {
                    assert_eq!(shard.stray_bits, 0, "[{what}] shard {}", shard.shard);
                    assert_eq!(shard.partials_emitted, 6, "[{what}] shard {}", shard.shard);
                }
                engine.shutdown();
            }
        }
    }
}
