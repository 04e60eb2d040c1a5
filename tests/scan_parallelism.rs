//! Oracle-backed test matrix for the scan front-end's width
//! (`CjoinConfig::scan_workers`), run beside `tests/engine_equivalence.rs`'s
//! `scan_workers` {1,2,4} × `distributor_shards` {1,4} oracle matrix so a red
//! front-end is attributable at a glance.
//!
//! Three suites pin down the segment scan workers:
//!
//! 1. **Exactly-one-pass under churn** — queries admitted mid-scan (while other
//!    queries keep every segment cursor busy at unrelated offsets) must see every
//!    fact row exactly once across segments: their COUNT(*)/SUM aggregates over
//!    the whole table equal the reference answer exactly. A duplicated segment
//!    row inflates the count, a missed one deflates it, so the aggregate *is* the
//!    exactly-once oracle.
//! 2. **Counter consistency** — per-worker `ScanWorkerCounters` must sum to the
//!    pipeline totals, and a deterministic sequential workload must distribute
//!    exactly the same tuples under 4 scan workers as under one (the width
//!    only changes *who* scans, never *what* a query sees).
//! 3. **Lifecycle/quiesce** — admission waves, each query submitted from its
//!    own thread, across the scan-workers × distributor-shards grid get the
//!    reference answers and leave no residue: admitted == completed, ids are
//!    recycled, the shard lanes are empty, and every query observed all of its
//!    segment passes (`segments_completed == segments_total`).

use std::sync::Arc;

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine, PipelineStats};
use cjoin_repro::query::reference;
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{Row, RowId};
use cjoin_repro::{AggFunc, AggregateSpec, ColumnRef, SnapshotId, StarQuery};

fn config(scan_workers: usize) -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(32)
        .with_batch_size(256)
        .with_scan_workers(scan_workers)
}

/// A full-table aggregate whose exact value detects any duplicated or missed
/// fact row: COUNT(*) plus SUM over a fact column.
fn full_table_probe(name: &str) -> StarQuery {
    StarQuery::builder(name)
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .build()
}

#[test]
fn mid_scan_admission_sees_every_fact_row_exactly_once_across_segments() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 401));
    let catalog = data.catalog();
    let engine = CjoinEngine::start(Arc::clone(&catalog), config(4)).unwrap();

    // Keep every segment cursor busy at unrelated offsets: a rolling window of
    // background queries is always in flight while the probes are admitted.
    let background = Workload::generate(&data, WorkloadConfig::new(12, 0.05, 402));
    let mut in_flight = std::collections::VecDeque::new();
    let mut background_iter = background.queries().iter();
    for query in background_iter.by_ref().take(4) {
        in_flight.push_back(engine.submit(query.clone()).unwrap());
    }

    // Admit exactly-once probes mid-scan, interleaved with background churn.
    let mut probe_handles = Vec::new();
    let mut expected = Vec::new();
    for round in 0..6 {
        let probe = full_table_probe(&format!("probe{round}"));
        expected.push(reference::evaluate(&catalog, &probe, SnapshotId::INITIAL).unwrap());
        probe_handles.push(engine.submit(probe).unwrap());
        if let Some(handle) = in_flight.pop_front() {
            handle.wait().unwrap();
        }
        if let Some(query) = background_iter.next() {
            in_flight.push_back(engine.submit(query.clone()).unwrap());
        }
    }

    for (round, (handle, expected)) in probe_handles.into_iter().zip(expected).enumerate() {
        let progress = Arc::clone(handle.progress());
        assert_eq!(progress.segments_total(), 4);
        let result = handle.wait().unwrap();
        assert!(
            result.approx_eq(&expected),
            "probe {round} did not see every fact row exactly once: {:?}",
            result.diff(&expected)
        );
        assert_eq!(
            progress.segments_completed(),
            4,
            "probe {round} completed without all segment passes"
        );
        assert!(progress.is_completed());
    }
    for handle in in_flight {
        handle.wait().unwrap();
    }
    engine.shutdown();
}

/// Runs the same workload sequentially (one query in flight at a time, so the
/// distributed-tuple counts are deterministic) and returns the quiesced stats.
fn run_sequential(scan_workers: usize, seed: u64) -> PipelineStats {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 411));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(8, 0.05, seed));
    let engine = CjoinEngine::start(Arc::clone(&catalog), config(scan_workers)).unwrap();
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
fn per_worker_counters_sum_to_the_classic_totals() {
    let classic = run_sequential(1, 412);
    let sharded = run_sequential(4, 412);

    // Within each run the per-worker counters must sum to the pipeline totals.
    for stats in [&classic, &sharded] {
        assert_eq!(
            stats.scan_worker_tuples_scanned(),
            stats.tuples_scanned,
            "per-worker scanned-tuple counts sum to the total"
        );
        assert_eq!(
            stats.scan_worker_batches_sent(),
            stats.batches_sent,
            "per-worker batch counts sum to the total"
        );
        assert_eq!(
            stats.scan_worker_segment_passes(),
            stats.scan_passes,
            "per-worker pass counts sum to the total"
        );
    }
    assert_eq!(classic.scan_workers.len(), 1);
    assert_eq!(sharded.scan_workers.len(), 4);

    // Across runs the deterministic sequential workload distributes exactly the
    // same tuples regardless of how the scan is segmented — every query sees one
    // pass over the same table either way.
    assert_eq!(sharded.tuples_distributed, classic.tuples_distributed);
    assert_eq!(sharded.routings, classic.routings);
    assert_eq!(sharded.queries_completed, classic.queries_completed);
    // And the segmented front-end actually spread the scan: with page-aligned
    // segments over SSB data at least two workers must have produced tuples.
    let active_workers = sharded
        .scan_workers
        .iter()
        .filter(|w| w.tuples_scanned > 0)
        .count();
    assert!(
        active_workers >= 2,
        "scan sharding degenerated to one worker: {:?}",
        sharded.scan_workers
    );
}

#[test]
fn lifecycle_churn_across_the_scan_grid_quiesces_cleanly() {
    const WAVES: u64 = 2;
    const PER_WAVE: usize = 8;

    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 421));
    let catalog = data.catalog();
    for (scan_workers, shards) in [(2usize, 1usize), (4, 4)] {
        // Small maxConc forces id recycling across waves; the warehouse grows
        // mid-wave so the open-ended last segment absorbs appended rows.
        let engine = CjoinEngine::start(
            Arc::clone(&catalog),
            config(scan_workers)
                .with_max_concurrency(16)
                .with_distributor_shards(shards),
        )
        .unwrap();
        let fact = catalog.fact_table().unwrap();
        let template_row = fact.row(RowId(0)).unwrap();

        for wave in 0..WAVES {
            let snapshot = catalog.snapshots().current();
            let workload =
                Workload::generate(&data, WorkloadConfig::new(PER_WAVE, 0.05, 423 + wave));
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

            // One submitting thread per query: the admissions race each
            // other, the append below and the clean-ups that free the previous
            // wave's ids.
            std::thread::scope(|scope| {
                let submitters: Vec<_> = queries
                    .iter()
                    .map(|q| scope.spawn(|| engine.submit(q.clone()).unwrap()))
                    .collect();
                let load_snapshot = catalog.snapshots().commit();
                fact.insert_batch_unchecked(
                    (0..120).map(|_| Row::new(template_row.values().to_vec())),
                    load_snapshot,
                );

                for (query, submitter) in queries.iter().zip(submitters) {
                    let result = submitter.join().unwrap().wait().unwrap();
                    let expected = reference::evaluate(&catalog, query, snapshot).unwrap();
                    assert!(
                        result.approx_eq(&expected),
                        "[scan={scan_workers} shards={shards}] {} diverged under churn: {:?}",
                        query.name,
                        result.diff(&expected)
                    );
                }
            });
        }

        let stats = engine.stats();
        let total = WAVES * PER_WAVE as u64;
        assert_eq!(stats.queries_admitted, total);
        assert_eq!(stats.queries_completed, total);
        assert_eq!(engine.active_queries(), 0, "all ids recycled post-churn");
        assert_eq!(stats.queued_messages, 0, "the lanes are empty post-quiesce");
        assert_eq!(stats.scan_worker_tuples_scanned(), stats.tuples_scanned);
        assert_eq!(stats.scan_worker_batches_sent(), stats.batches_sent);
        engine.shutdown();
    }
}
