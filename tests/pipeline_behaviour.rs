//! Behavioural integration tests of the shared pipeline: work sharing, predictability,
//! run-time optimisation, ending a query early and mixed query/update workloads.
//! The rule for where a query ends over a compressed replica is covered in
//! depth by `tests/columnar_scan.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::bench::run_closed_loop;
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::{reference, AggregateSpec, Predicate};
use cjoin_repro::ssb::{schema::join_columns, SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{Row, RowId};
use cjoin_repro::{AggFunc, ColumnRef, SnapshotId, StarQuery};

fn engine_config() -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(128)
        .with_batch_size(512)
}

#[test]
fn concurrent_queries_share_scan_passes() {
    // 16 concurrent queries must complete in far fewer passes than 16 independent
    // scans — the headline sharing claim.
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.002, 301));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(16, 0.02, 61));
    let engine = CjoinEngine::start(Arc::clone(&catalog), engine_config()).unwrap();

    let handles: Vec<_> = workload
        .queries()
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.queries_completed, 16);
    // The data set is tiny, so the scan may complete a few extra passes while the 16
    // admissions trickle in; the point is that the pass count stays far below the 16
    // full scans a query-at-a-time engine would perform.
    assert!(
        stats.scan_passes <= 11,
        "16 concurrent queries shared the continuous scan, but it took {} passes",
        stats.scan_passes
    );
    assert!(stats.tuples_scanned < 12 * catalog.fact_table().unwrap().len() as u64);
    engine.shutdown();
}

#[test]
fn response_time_degrades_gracefully_with_concurrency() {
    // The predictability claim (Figure 6): going from 1 to 16 concurrent queries must
    // not blow response time up by anything near 16x. We allow a generous factor to
    // keep the test robust on loaded CI machines.
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.004, 302));
    let catalog = data.catalog();

    let measure = |n: usize| -> Duration {
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(n * 2, 0.01, 62).with_template("Q4.2"),
        );
        let engine = CjoinEngine::start(Arc::clone(&catalog), engine_config()).unwrap();
        let report = run_closed_loop(&engine, workload.queries(), n).unwrap();
        engine.shutdown();
        report.mean_response_of("Q4.2").unwrap()
    };

    let single = measure(1);
    let concurrent = measure(16);
    let factor = concurrent.as_secs_f64() / single.as_secs_f64().max(1e-9);
    assert!(
        factor < 8.0,
        "response time grew by {factor:.1}x from 1 to 16 concurrent queries \
         ({single:?} -> {concurrent:?}); CJOIN should degrade gracefully"
    );
}

#[test]
fn filter_order_adapts_to_the_query_mix() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.01, 303));
    let catalog = data.catalog();
    let engine = CjoinEngine::start(Arc::clone(&catalog), engine_config()).unwrap();

    // Queries that are extremely selective on part and unselective on date/supplier.
    let (d_key, d_fk) = join_columns("date").unwrap();
    let (p_key, p_fk) = join_columns("part").unwrap();
    let (s_key, s_fk) = join_columns("supplier").unwrap();
    let queries: Vec<StarQuery> = (0..12)
        .map(|i| {
            StarQuery::builder(format!("skew#{i}"))
                .join_dimension("date", d_fk, d_key, Predicate::True)
                .join_dimension(
                    "part",
                    p_fk,
                    p_key,
                    Predicate::eq("p_partkey", (i + 1) as i64),
                )
                .join_dimension("supplier", s_fk, s_key, Predicate::True)
                .aggregate(AggregateSpec::over(
                    AggFunc::Sum,
                    ColumnRef::fact("lo_revenue"),
                ))
                .build()
        })
        .collect();

    // The Filters live only while a wave runs (the last query to leave retires
    // them), and the order is re-derived on a timer: look at it before each
    // handle is waited for, and resubmit the wave until `part` leads.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut waves = 0;
    let mut part_leads = false;
    while !part_leads && Instant::now() < deadline {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| engine.submit(q.clone()).unwrap())
            .collect();
        for handle in handles {
            part_leads |= engine.filter_order().first().map(String::as_str) == Some("part");
            handle.wait().unwrap();
        }
        waves += 1;
    }
    assert!(
        part_leads,
        "the optimizer never promoted the highly selective part filter in {waves} waves"
    );
    assert!(engine.stats().filter_reorders > 0);
    engine.shutdown();
}

/// The same 1995 window over date-clustered data, with the replica's zone maps
/// and without: the replica ends the query at its last row group that can
/// match, so it scans fewer rows for the same answer.
#[test]
fn early_end_reduces_scanned_tuples_and_matches_results() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.004, 304).with_clustering());
    let catalog = data.catalog();

    let (d_key, d_fk) = join_columns("date").unwrap();
    let query = StarQuery::builder("year_1995")
        .fact_predicate(Predicate::between("lo_orderdate", 19950101, 19951231))
        .join_dimension(
            "date",
            d_fk,
            d_key,
            Predicate::between("d_year", 1995, 1995),
        )
        .group_by(ColumnRef::dim("date", "d_monthnuminyear"))
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .aggregate(AggregateSpec::count_star())
        .build();
    let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();

    let run = |replica: bool| {
        let config = engine_config().with_columnar_scan(replica);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        let result = engine.execute(query.clone()).unwrap();
        let scanned = engine.stats().tuples_scanned;
        engine.shutdown();
        (result, scanned)
    };
    let (full_result, full_scanned) = run(false);
    let (early_result, early_scanned) = run(true);

    assert!(full_result.approx_eq(&expected));
    assert!(
        early_result.approx_eq(&expected),
        "ending early changed the answer: {:?}",
        early_result.diff(&expected)
    );
    assert!(
        early_scanned < full_scanned,
        "the replica should end the query early ({early_scanned} vs {full_scanned} tuples)"
    );
}

#[test]
fn mixed_updates_and_queries_respect_snapshots() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.002, 305));
    let catalog = data.catalog();
    let engine = CjoinEngine::start(Arc::clone(&catalog), engine_config()).unwrap();
    let fact = catalog.fact_table().unwrap();

    let count_query = |name: &str, snapshot| {
        StarQuery::builder(name)
            .snapshot(snapshot)
            .aggregate(AggregateSpec::count_star())
            .build()
    };

    let base_rows = fact.len() as i128;
    let snap0 = catalog.snapshots().current();

    // Interleave three load batches with queries pinned to successive snapshots.
    let template = fact.row(RowId(0)).unwrap();
    let mut expected_counts = vec![base_rows];
    let mut snapshots = vec![snap0];
    for batch in 0..3 {
        let snapshot = catalog.snapshots().commit();
        let rows = (0..500).map(|_| Row::new(template.values().to_vec()));
        fact.insert_batch_unchecked(rows, snapshot);
        expected_counts.push(base_rows + 500 * (i128::from(batch) + 1));
        snapshots.push(snapshot);
    }

    // All four queries run concurrently in the shared pipeline, each seeing exactly
    // the data of its snapshot.
    let handles: Vec<_> = snapshots
        .iter()
        .enumerate()
        .map(|(i, &snapshot)| {
            engine
                .submit(count_query(&format!("count@{i}"), snapshot))
                .unwrap()
        })
        .collect();
    for (handle, expected) in handles.into_iter().zip(expected_counts) {
        let result = handle.wait().unwrap();
        let count = match result.rows().next().unwrap().1[0] {
            cjoin_repro::query::AggValue::Int(c) => c,
            ref other => panic!("expected integer count, got {other:?}"),
        };
        assert_eq!(count, expected);
    }
    engine.shutdown();
}

#[test]
fn stats_are_internally_consistent_after_a_workload() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.002, 306));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(12, 0.02, 63));
    let engine = CjoinEngine::start(Arc::clone(&catalog), engine_config()).unwrap();
    let report = run_closed_loop(&engine, workload.queries(), 6).unwrap();
    assert_eq!(report.timings.len(), 12);

    let stats = engine.stats();
    assert_eq!(stats.queries_admitted, 12);
    assert_eq!(stats.queries_completed, 12);
    assert!(stats.tuples_scanned > 0);
    assert!(stats.batches_sent > 0);
    assert!(stats.tuples_distributed <= stats.tuples_scanned);
    assert!(stats.survival_rate() <= 1.0);
    assert_eq!(
        (stats.control_barriers, stats.barrier_wait_ns),
        (0, 0),
        "a query's end travels in-band: no completion takes a drain barrier"
    );
    // Every filter's drop count is bounded by its input count.
    for f in &stats.filters {
        assert!(f.tuples_dropped <= f.tuples_in, "{f:?}");
        assert!(f.probes + f.skips <= f.tuples_in, "{f:?}");
    }
    engine.shutdown();
}

#[test]
fn steady_state_scan_path_recycles_batches_and_tuples() {
    // Regression for the pooled-allocator claim (§4): after warm-up the scan path
    // must serve (nearly) every batch from the pool and (nearly) every in-flight
    // tuple from in-place recycling — zero per-tuple heap allocation at steady
    // state. A long multi-pass workload leaves warm-up noise far behind.
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.002, 308));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(24, 0.02, 65));
    let engine = CjoinEngine::start(Arc::clone(&catalog), engine_config()).unwrap();
    let report = run_closed_loop(&engine, workload.queries(), 8).unwrap();
    assert_eq!(report.timings.len(), 24);

    let stats = engine.stats();
    let takes = stats.pool_hits + stats.pool_misses;
    assert!(takes > 0, "the preprocessor took batches from the pool");
    assert!(
        stats.pool_hit_rate() > 0.8,
        "pool hit rate should be ~1 after warm-up, got {:.3} ({} hits / {} misses)",
        stats.pool_hit_rate(),
        stats.pool_hits,
        stats.pool_misses
    );
    let tuples = stats.tuples_allocated + stats.tuples_recycled;
    assert!(tuples > 0, "tuples flowed through the pipeline");
    assert!(
        stats.tuple_recycle_rate() > 0.8,
        "steady-state tuples must be recycled in place, got {:.3} ({} allocated / {} recycled)",
        stats.tuple_recycle_rate(),
        stats.tuples_allocated,
        stats.tuples_recycled
    );
    // Fresh tuple allocations are a warm-up phenomenon, bounded by what the pool's
    // batches can hold — not proportional to the tuples scanned.
    assert!(
        stats.tuples_allocated < stats.tuples_scanned / 2,
        "{} allocations for {} scanned tuples",
        stats.tuples_allocated,
        stats.tuples_scanned
    );
    engine.shutdown();
}

#[test]
fn baseline_contention_grows_with_concurrency_while_cjoin_stays_flat() {
    // Shape check behind Figure 5: total work of the baseline grows ~linearly with
    // the number of queries while CJOIN's scan work stays nearly constant.
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.002, 307));
    let catalog = data.catalog();

    let cjoin_tuples = |n: usize| {
        let workload = Workload::generate(&data, WorkloadConfig::new(n, 0.02, 64));
        let engine = CjoinEngine::start(Arc::clone(&catalog), engine_config()).unwrap();
        let _ = run_closed_loop(&engine, workload.queries(), n).unwrap();
        let scanned = engine.stats().tuples_scanned;
        engine.shutdown();
        scanned
    };
    let baseline_tuples = |n: usize| {
        let workload = Workload::generate(&data, WorkloadConfig::new(n, 0.02, 64));
        let engine = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
        let _ = run_closed_loop(&engine, workload.queries(), n).unwrap();
        engine.io_stats().total_pages()
    };

    let cjoin_1 = cjoin_tuples(1).max(1);
    let cjoin_16 = cjoin_tuples(16);
    let baseline_1 = baseline_tuples(1).max(1);
    let baseline_16 = baseline_tuples(16);

    let cjoin_growth = cjoin_16 as f64 / cjoin_1 as f64;
    let baseline_growth = baseline_16 as f64 / baseline_1 as f64;
    assert!(
        baseline_growth > 12.0,
        "query-at-a-time I/O should grow ~linearly in n (grew {baseline_growth:.1}x)"
    );
    assert!(
        cjoin_growth < 6.0,
        "CJOIN scan volume should stay nearly flat in n (grew {cjoin_growth:.1}x)"
    );
}

/// Thread census (Linux): the live `cjoin-*` threads of an engine are exactly
/// the ones its scheduler widths name — scan workers and shards — plus the
/// supervisor. Query lifecycle has no thread of its own at any width, no Stage
/// thread sits between the scan and the shards, nothing samples the pipeline
/// to re-size it, and no manager thread cleans up or reorders. Runs
/// [`thread_census_in_a_process_of_its_own`] in a child
/// process: the other tests of this binary run engines on sibling threads, and
/// a census cannot tell whose `cjoin-scan-w0` it is looking at.
#[cfg(target_os = "linux")]
#[test]
fn thread_census_matches_the_scheduler_widths() {
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["thread_census_in_a_process_of_its_own", "--exact"])
        .args(["--ignored", "--test-threads=1", "--nocapture"])
        .output()
        .unwrap();
    assert!(
        child.status.success(),
        "census failed:\n{}\n{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}

#[cfg(target_os = "linux")]
#[test]
#[ignore = "needs the process to itself; run by thread_census_matches_the_scheduler_widths"]
fn thread_census_in_a_process_of_its_own() {
    use cjoin_repro::cjoin::pipeline::RoleKind;

    /// The kernel keeps 15 bytes of a thread name.
    fn comm(name: &str) -> String {
        name[..name.len().min(15)].to_string()
    }
    fn live() -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .filter(|name| name.starts_with("cjoin-"))
            .collect();
        names.sort();
        names
    }
    fn census(engine: &CjoinEngine, widths: (usize, usize)) {
        let stats = engine.scheduler_stats();
        let (scan, shards) = widths;
        assert_eq!((stats.scan_workers, stats.distributor_shards), widths);

        let mut roles: Vec<RoleKind> = (0..scan).map(RoleKind::ScanWorker).collect();
        roles.extend((0..shards).map(RoleKind::DistributorShard));
        let mut expected: Vec<String> = roles.iter().map(|r| comm(&r.thread_name())).collect();
        expected.push(comm("cjoin-supervisor"));
        expected.sort();

        // A thread names itself as it starts, just after `spawn` returns.
        let start = std::time::Instant::now();
        while live() != expected && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(live(), expected, "widths {widths:?}");
        for name in live() {
            assert!(
                !name.starts_with("cjoin-scan-coor")
                    && !name.starts_with("cjoin-stage")
                    && !name.starts_with("cjoin-dist-merg")
                    && !name.starts_with("cjoin-dist-rout")
                    && !name.starts_with("cjoin-tuner")
                    && !name.starts_with("cjoin-manager"),
                "a lifecycle, Stage, routing, tuning or manager thread is back: {name}"
            );
        }
    }

    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 309));
    let catalog = data.catalog();

    for (scan, shards) in [(1, 1), (2, 2), (1, 4), (4, 1)] {
        let engine = CjoinEngine::start(
            Arc::clone(&catalog),
            CjoinConfig::default()
                .with_max_concurrency(16)
                .with_scan_workers(scan)
                .with_distributor_shards(shards),
        )
        .unwrap();
        census(&engine, (scan, shards));
        engine.shutdown();
        assert_eq!(live(), Vec::<String>::new(), "shutdown joins every thread");
    }
}
