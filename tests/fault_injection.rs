//! Deterministic fault-injection matrix for the pipeline supervisor.
//!
//! Every test here attacks the same invariant from a different angle: **no
//! client ticket ever hangs**. A panic in any pipeline role must resolve every
//! affected in-flight query with a typed [`QueryError::StageFailed`] (or let it
//! complete correctly if the role died after the query's answer was sealed),
//! the engine must step the failed axis down from the width that was running
//! (its configuration is the one source of widths) and keep serving fresh
//! queries, and quiescing afterwards must leave every shard lane empty.
//!
//! The matrix crosses every [`FaultSite`] with the parallelism axes that change
//! how many threads each role has ({scan_workers 1,4} x {distributor_shards
//! 1,4} x {columnar on,off}). Every pipeline role — scan worker, distributor
//! shard (which runs the Filter chain, then aggregates) — exists in every
//! cell, so its site must fire there; the
//! WAL sites have no role in an engine without a log and never fire, and the
//! queries then must resolve `Ok` and match the oracle, which the harness
//! asserts rather than skips.

use std::time::{Duration, Instant};

use std::sync::Arc;

use cjoin_repro::cjoin::fault::{FaultPlan, FaultSite};
use cjoin_repro::cjoin::{shard_width_for, Axis, CjoinConfig, CjoinEngine, QueryHandle};
use cjoin_repro::query::{reference, QueryError, QueryOutcome, QueryResult};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{RowId, DEFAULT_ROW_GROUP_ROWS};
use cjoin_repro::{SnapshotId, StarQuery};

/// Generous bound on how long a ticket may take to resolve. The point is not
/// latency: it is that resolution is *bounded* even when the role serving the
/// query died. A hang shows up as a test failure here instead of a CI timeout.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(60);

/// Polls a ticket to resolution without ever blocking unboundedly.
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

/// Submits a query, retrying while the supervisor is mid-restart (a submit in
/// that window is refused with a typed error, never hung). Bounded like every
/// other wait in this file.
fn submit_with_retry(engine: &CjoinEngine, query: &StarQuery, what: &str) -> QueryHandle {
    let start = Instant::now();
    loop {
        match engine.submit(query.clone()) {
            Ok(handle) => return handle,
            Err(err) => assert!(
                start.elapsed() < RESOLVE_TIMEOUT,
                "{what}: submit kept failing: {err}"
            ),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn test_data() -> SsbDataSet {
    SsbDataSet::generate(SsbConfig::for_tests(0.001, 701))
}

fn test_queries(data: &SsbDataSet, seed: u64) -> Vec<StarQuery> {
    Workload::generate(data, WorkloadConfig::new(4, 0.05, seed))
        .queries()
        .to_vec()
}

fn assert_matches_oracle(result: &QueryResult, expected: &QueryResult, what: &str) {
    assert!(
        result.approx_eq(expected),
        "{what}: result diverged from oracle: {:?}",
        result.diff(expected)
    );
}

/// The tentpole matrix: a one-shot panic at every fault site, across the
/// parallelism configurations that change which threads exist. For every cell:
/// all in-flight tickets resolve in bounded time, `Ok` results match the
/// oracle, the engine serves a fresh correct query afterwards, and the pipeline
/// quiesces with every shard lane empty.
#[test]
fn panic_at_every_site_never_hangs_a_ticket_and_engine_recovers() {
    let data = test_data();
    let catalog = data.catalog();
    let queries = test_queries(&data, 11);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference::evaluate(&catalog, q, SnapshotId::INITIAL).unwrap())
        .collect();
    let fresh_query = test_queries(&data, 12).remove(0);
    let fresh_expected = reference::evaluate(&catalog, &fresh_query, SnapshotId::INITIAL).unwrap();

    let mut seed = 0u64;
    for site in FaultSite::ALL {
        for scan_workers in [1usize, 4] {
            for distributor_shards in [1usize, 4] {
                for columnar in [false, true] {
                    seed += 1;
                    let what = format!(
                        "site={site:?} scan_workers={scan_workers} \
                         shards={distributor_shards} columnar={columnar}"
                    );
                    // `panic_at_event(site, 3)` lets the role survive engine
                    // start and the first few batches, so the panic lands while
                    // queries are genuinely in flight rather than during spawn.
                    let plan = FaultPlan::seeded(seed).panic_at_event(site, 3).build();
                    let config = CjoinConfig::default()
                        .with_max_concurrency(16)
                        .with_batch_size(128)
                        .with_scan_workers(scan_workers)
                        .with_distributor_shards(distributor_shards)
                        .with_columnar_scan(columnar)
                        .with_fault_plan(Arc::clone(&plan));
                    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

                    // A submit that lands in the restart window is refused
                    // with a typed error — that is the contract (never a
                    // hang), so the harness counts it as a failed admission.
                    let mut failed = 0usize;
                    let mut handles = Vec::new();
                    for (i, q) in queries.iter().enumerate() {
                        match engine.submit(q.clone()) {
                            Ok(handle) => handles.push((i, handle)),
                            Err(_) => failed += 1,
                        }
                    }

                    for (i, handle) in &handles {
                        let i = *i;
                        match wait_bounded(handle, &what) {
                            Ok(result) => {
                                assert_matches_oracle(&result, &expected[i], &what);
                            }
                            Err(QueryError::StageFailed { role, detail }) => {
                                assert!(
                                    !role.is_empty() && !detail.is_empty(),
                                    "{what}: empty failure diagnostics"
                                );
                                failed += 1;
                            }
                            Err(other) => panic!("{what}: unexpected error {other}"),
                        }
                    }

                    // If any query was failed, the supervisor must record the
                    // role death and restart the pipeline. Tickets resolve
                    // *before* the respawn completes, so poll bounded.
                    if failed > 0 {
                        let start = Instant::now();
                        loop {
                            let stats = engine.stats();
                            if stats.role_failures >= 1 && stats.pipeline_restarts >= 1 {
                                break;
                            }
                            assert!(
                                start.elapsed() < RESOLVE_TIMEOUT,
                                "{what}: {failed} failed tickets but no recorded \
                                 role failure + restart"
                            );
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }

                    // The engine must stay serviceable after the fault: a fresh
                    // query on the (possibly degraded) pipeline is still exact.
                    // If the one-shot fault only reaches its trigger event now
                    // (e.g. a shard that had seen fewer than three messages),
                    // this very query absorbs it — the fault latch guarantees
                    // the retry runs on a clean pipeline.
                    let fresh_start = Instant::now();
                    let fresh = loop {
                        let outcome = wait_bounded(
                            &submit_with_retry(&engine, &fresh_query, &what),
                            &format!("{what} (post-failure query)"),
                        );
                        match outcome {
                            Ok(result) => break result,
                            Err(QueryError::StageFailed { .. }) => assert!(
                                fresh_start.elapsed() < RESOLVE_TIMEOUT,
                                "{what}: post-failure query kept failing"
                            ),
                            Err(other) => {
                                panic!("{what}: post-failure query failed: {other}")
                            }
                        }
                    };
                    assert_matches_oracle(&fresh, &fresh_expected, &format!("{what} (fresh)"));

                    assert_quiesces(&engine, &what);
                    engine.shutdown();
                    // The one-shot panic fires at the site's fourth event.
                    let hosted =
                        matches!(site, FaultSite::ScanWorker | FaultSite::DistributorShard);
                    assert_eq!(
                        plan.hits(site) > 3,
                        hosted,
                        "{what}: the site fires iff its role exists"
                    );
                }
            }
        }
    }
}

/// A ticket whose shard dies mid-query — the stage that runs the Filter chain
/// and the aggregation — must resolve with `Err(StageFailed)` in bounded time
/// instead of blocking `wait()` forever on a result channel nobody will ever
/// write to.
#[test]
fn dead_stage_resolves_ticket_with_stage_failed_in_bounded_time() {
    let data = test_data();
    let catalog = data.catalog();
    let query = test_queries(&data, 21).remove(0);

    // Slow the scan slightly so the query is still in flight when a shard
    // panics. The shards' third message is at the latest the first end tuple,
    // and the query needs every shard's, so the panic always lands first.
    let plan = FaultPlan::seeded(7)
        .delay(FaultSite::ScanWorker, 500)
        .panic_at_event(FaultSite::DistributorShard, 2)
        .build();
    let config = CjoinConfig::default()
        .with_max_concurrency(8)
        .with_batch_size(128)
        .with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    let start = Instant::now();
    let outcome = wait_bounded(&engine.submit(query).unwrap(), "dead-stage ticket");
    let elapsed = start.elapsed();
    match outcome {
        Err(QueryError::StageFailed { .. }) => {}
        other => panic!("expected StageFailed, got {other:?}"),
    }
    assert!(
        elapsed < RESOLVE_TIMEOUT,
        "StageFailed took {elapsed:?} to surface"
    );

    // The degradation ladder must collapse the shard axis. The ticket is
    // resolved *before* the supervisor finishes the restart (so clients never
    // wait on the respawn), hence the bounded poll here.
    let start = Instant::now();
    while engine.degradations().is_empty() {
        assert!(
            start.elapsed() < RESOLVE_TIMEOUT,
            "shard death never recorded a degradation step"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The engine must still answer queries on the degraded layout.
    let probe = test_queries(&data, 22).remove(0);
    let expected = reference::evaluate(&catalog, &probe, SnapshotId::INITIAL).unwrap();
    let result = wait_bounded(
        &submit_with_retry(&engine, &probe, "post-degradation probe"),
        "post-degradation probe",
    )
    .unwrap();
    assert_matches_oracle(&result, &expected, "post-degradation probe");
    engine.shutdown();
}

/// A query with an impossible deadline is reaped mid-scan with
/// `DeadlineExceeded`, while a concurrent unconstrained query sharing the same
/// scan pass stays bit-identical to the reference answer: cancellation releases
/// the victim's partial state without perturbing its neighbours.
#[test]
fn deadline_reap_leaves_concurrent_query_untouched() {
    let data = test_data();
    let catalog = data.catalog();
    let mut queries = test_queries(&data, 31);
    let mut victim = queries.remove(0);
    victim.deadline = Some(Duration::from_millis(30));
    let survivor = queries.remove(0);
    let expected = reference::evaluate(&catalog, &survivor, SnapshotId::INITIAL).unwrap();

    // Per-batch scan delay stretches the pass well past the victim's deadline
    // while keeping total runtime bounded for the survivor.
    let plan = FaultPlan::seeded(3)
        .delay(FaultSite::ScanWorker, 2_000)
        .build();
    let config = CjoinConfig::default()
        .with_max_concurrency(8)
        .with_batch_size(256)
        .with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    let victim_handle = engine.submit(victim).unwrap();
    let survivor_handle = engine.submit(survivor).unwrap();

    match wait_bounded(&victim_handle, "deadline victim") {
        Err(QueryError::DeadlineExceeded { deadline }) => {
            assert_eq!(deadline, Duration::from_millis(30));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let result = wait_bounded(&survivor_handle, "deadline survivor").unwrap();
    assert_matches_oracle(&result, &expected, "survivor next to reaped query");
    engine.shutdown();
}

/// A corrupted columnar row group is detected by its checksum on first decode,
/// quarantined, and served from the row store instead: the scan result stays
/// oracle-exact and the quarantine is visible in the stats.
#[test]
fn corrupt_row_group_is_quarantined_and_answers_stay_exact() {
    let data = test_data();
    let catalog = data.catalog();
    let queries = test_queries(&data, 41);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference::evaluate(&catalog, q, SnapshotId::INITIAL).unwrap())
        .collect();

    let plan = FaultPlan::seeded(5).corrupt_row_group(0).build();
    let config = CjoinConfig::default()
        .with_max_concurrency(8)
        .with_batch_size(256)
        .with_columnar_scan(true)
        .with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    for (i, query) in queries.iter().enumerate() {
        let result = wait_bounded(
            &engine.submit(query.clone()).unwrap(),
            "corrupt-group query",
        )
        .unwrap();
        assert_matches_oracle(&result, &expected[i], "corrupt-group query");
    }

    let stats = engine.stats();
    let columnar = stats.columnar.expect("columnar stats present");
    assert!(
        columnar.groups_quarantined >= 1,
        "corrupted group was never quarantined"
    );
    engine.shutdown();
}

/// Appends one row group's worth of copies of fact row 0 in one commit,
/// which completes exactly one group of the replica: the short last one or,
/// on a table whose length is a multiple of the group size, a new one.
fn append_one_group(engine: &CjoinEngine, catalog: &cjoin_repro::Catalog) {
    let row = catalog.fact_table().unwrap().row(RowId(0)).unwrap();
    let mut session = engine.ingest_session();
    for _ in 0..DEFAULT_ROW_GROUP_ROWS {
        session.append_fact(row.values().to_vec());
    }
    session.commit().unwrap();
}

/// A corrupt row group is quarantined once per scan worker, however often
/// the replica grows: each of three commits seals a group and hands the scan
/// worker a longer replica, which shares the corrupt group and with it the
/// verdict the worker already reached. A query after every seal scans the
/// corrupt group again and answers oracle-exactly at the current snapshot.
#[test]
fn a_corrupt_group_is_quarantined_once_across_seals() {
    let data = test_data();
    let catalog = data.catalog();
    let queries = test_queries(&data, 42);
    let plan = FaultPlan::seeded(5).corrupt_row_group(0).build();
    let config = CjoinConfig::default()
        .with_max_concurrency(8)
        .with_batch_size(256)
        .with_scan_workers(1)
        .with_columnar_scan(true)
        .with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    for round in 0..4 {
        if round > 0 {
            append_one_group(&engine, &catalog);
        }
        let snapshot = catalog.snapshots().current();
        for query in &queries {
            let expected = reference::evaluate(&catalog, query, snapshot).unwrap();
            let result = wait_bounded(&engine.submit(query.clone()).unwrap(), "after a seal");
            assert_matches_oracle(&result.unwrap(), &expected, &format!("round {round}"));
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.ingest.groups_sealed, 3);
    let columnar = stats.columnar.expect("columnar stats present");
    assert_eq!(
        columnar.groups_quarantined, 1,
        "one corrupt group, one worker"
    );
    engine.shutdown();
}

/// A supervised restart reads the engine's replica as it is: after a scan
/// worker dies at width 2, the respawned worker scans the very replica the
/// dead one did — every row group shared, nothing transcoded again — and a
/// commit after the restart grows it by one sealed group.
#[test]
fn a_scan_worker_restart_reuses_the_replica() {
    let data = test_data();
    let catalog = data.catalog();
    let plan = FaultPlan::seeded(13)
        .panic_at_event(FaultSite::ScanWorker, 3)
        .build();
    let config = CjoinConfig::default()
        .with_max_concurrency(8)
        .with_batch_size(128)
        .with_scan_workers(2)
        .with_columnar_scan(true)
        .with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
    let before = engine.columnar_replica().expect("columnar replica active");

    let probe = test_queries(&data, 62).remove(0);
    let expected = reference::evaluate(&catalog, &probe, SnapshotId::INITIAL).unwrap();
    match wait_bounded(
        &submit_with_retry(&engine, &probe, "doomed"),
        "doomed ticket",
    ) {
        Ok(_) | Err(QueryError::StageFailed { .. }) => {}
        other => panic!("expected Ok or StageFailed, got {other:?}"),
    }
    await_restart(&engine, "scan worker death");
    assert_eq!(engine.scheduler_stats().scan_workers, 1);
    let after = engine
        .columnar_replica()
        .expect("the replica survives at width 1");
    assert_eq!(after.row_groups().len(), before.row_groups().len());
    for (g, (old, new)) in before
        .row_groups()
        .iter()
        .zip(after.row_groups())
        .enumerate()
    {
        assert!(Arc::ptr_eq(old, new), "group {g} was encoded again");
    }
    let result = wait_bounded(
        &submit_with_retry(&engine, &probe, "post-restart probe"),
        "post-restart probe",
    );
    assert_matches_oracle(&result.unwrap(), &expected, "post-restart probe");

    append_one_group(&engine, &catalog);
    let grown = engine.columnar_replica().unwrap();
    assert_eq!(engine.stats().ingest.groups_sealed, 1);
    assert!(catalog.fact_table().unwrap().len() - grown.len() < DEFAULT_ROW_GROUP_ROWS);
    let full = before.len() / DEFAULT_ROW_GROUP_ROWS;
    for g in 0..full {
        assert!(Arc::ptr_eq(&before.row_groups()[g], &grown.row_groups()[g]));
    }
    assert_quiesces(&engine, "post-restart quiesce");
    engine.shutdown();
}

/// Waits (bounded) until the supervisor has recorded a role failure and
/// finished the respawn it owns.
fn await_restart(engine: &CjoinEngine, what: &str) {
    let start = Instant::now();
    loop {
        let stats = engine.stats();
        if stats.role_failures >= 1 && stats.pipeline_restarts >= 1 {
            return;
        }
        assert!(
            start.elapsed() < RESOLVE_TIMEOUT,
            "{what}: no role failure + restart was recorded"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A shard panic — inside the stage that runs the Filter chain — at shard
/// width 2 makes the supervisor step the axis down to 1, logged once as a note
/// and once as a resize event, and the engine must serve an oracle-exact query
/// on the degraded pipeline.
#[test]
fn stage_death_at_width_two_is_logged_and_serves_exact_answers() {
    let data = test_data();
    let catalog = data.catalog();
    let doomed = test_queries(&data, 51).remove(0);

    // The fault plan kills a shard on the shards' third message while the
    // scan is slowed enough to keep the query in flight.
    let plan = FaultPlan::seeded(11)
        .delay(FaultSite::ScanWorker, 500)
        .panic_at_event(FaultSite::DistributorShard, 2)
        .build();
    let config = CjoinConfig {
        max_concurrency: 8,
        batch_size: 128,
        ..CjoinConfig::default()
    }
    .with_distributor_shards(2)
    .with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
    assert_eq!(engine.scheduler_stats().distributor_shards, 2);

    // The doomed query resolves with StageFailed (or completes, if the panic
    // landed after its answer was sealed) — bounded either way.
    match wait_bounded(&engine.submit(doomed).unwrap(), "doomed ticket") {
        Ok(_) | Err(QueryError::StageFailed { .. }) => {}
        other => panic!("expected Ok or StageFailed, got {other:?}"),
    }
    await_restart(&engine, "shard death");
    assert_eq!(engine.degradations(), ["distributor-shards 2 → 1"]);
    let degraded = engine.scheduler_stats().resizes;
    assert_eq!(degraded.len(), 1, "{degraded:?}");
    assert_eq!(
        (degraded[0].axis, degraded[0].from, degraded[0].to),
        (Axis::DistributorShards, 2, 1)
    );
    assert_eq!(engine.scheduler_stats().distributor_shards, 1);

    // The degraded pipeline serves fresh queries oracle-exactly. The fault
    // plan's one-shot panic already fired, so these run clean.
    let probe = test_queries(&data, 52).remove(0);
    let expected = reference::evaluate(&catalog, &probe, SnapshotId::INITIAL).unwrap();
    let result = wait_bounded(
        &submit_with_retry(&engine, &probe, "post-restart probe"),
        "post-restart probe",
    )
    .unwrap();
    assert_matches_oracle(&result, &expected, "post-restart probe");
    assert_quiesces(&engine, "post-restart quiesce");
    engine.shutdown();
}

/// The supervisor steps down the width that was running. A default-config
/// engine runs [`shard_width_for`] the host shards, at least two, so a death
/// in the stage that runs the Filter chain steps that width down to 1, and
/// one note and one event are logged.
#[test]
fn stage_death_degrades_the_width_that_was_running() {
    let data = test_data();
    let catalog = data.catalog();
    let doomed = test_queries(&data, 53).remove(0);

    let plan = FaultPlan::seeded(13)
        .delay(FaultSite::ScanWorker, 500)
        .panic_at_event(FaultSite::DistributorShard, 2)
        .build();
    let config = CjoinConfig {
        max_concurrency: 8,
        batch_size: 128,
        ..CjoinConfig::default()
    }
    .with_fault_plan(plan);
    let running = config.distributor_shards;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(running, shard_width_for(cores));
    assert!(running >= 2);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    match wait_bounded(&engine.submit(doomed).unwrap(), "doomed ticket") {
        Ok(_) | Err(QueryError::StageFailed { .. }) => {}
        other => panic!("expected Ok or StageFailed, got {other:?}"),
    }
    await_restart(&engine, "shard death");
    assert_eq!(
        engine.degradations(),
        [format!("distributor-shards {running} → 1")]
    );
    assert_eq!(engine.scheduler_stats().resizes.len(), 1);
    assert_eq!(engine.scheduler_stats().distributor_shards, 1);

    let probe = test_queries(&data, 54).remove(0);
    let expected = reference::evaluate(&catalog, &probe, SnapshotId::INITIAL).unwrap();
    let result = wait_bounded(
        &submit_with_retry(&engine, &probe, "post-restart probe"),
        "post-restart probe",
    )
    .unwrap();
    assert_matches_oracle(&result, &expected, "post-restart probe");
    assert_quiesces(&engine, "post-restart quiesce");
    engine.shutdown();
}

/// A scan-worker death at width 2 degrades the scan to one worker, whose
/// segment is the whole table rather than half of it. The quote's cycle is one
/// worker's segment, so the supervisor forgets the two-worker pass timings
/// when it respawns at the new width: until the new worker completes a pass
/// there is no quote, as at engine start, instead of half a cycle.
#[test]
fn a_scan_width_change_forgets_the_old_widths_pass_timings() {
    const PANIC_AT: u64 = 400;
    let data = test_data();
    let catalog = data.catalog();
    let queries = test_queries(&data, 57);
    let plan = FaultPlan::seeded(17)
        .delay(FaultSite::ScanWorker, 300)
        .panic_at_event(FaultSite::ScanWorker, PANIC_AT)
        .build();
    let config = CjoinConfig::default()
        .with_max_concurrency(8)
        .with_batch_size(128)
        .with_scan_workers(2)
        .with_fault_plan(Arc::clone(&plan));
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    let warm = engine.submit(queries[0].clone()).unwrap();
    wait_bounded(&warm, "warm-up").unwrap();
    assert!(
        plan.hits(FaultSite::ScanWorker) < PANIC_AT,
        "warm-up reached the fault"
    );
    assert_eq!(engine.scheduler_stats().scan_workers, 2);
    assert!(
        engine.quote_eta().is_some(),
        "a completed pass gives a quote"
    );

    // No query runs after the one that meets the fault, and an idle scan
    // worker completes no pass, so nothing can publish a new timing.
    let start = Instant::now();
    while plan.hits(FaultSite::ScanWorker) <= PANIC_AT {
        let filler = submit_with_retry(&engine, &queries[1], "filler");
        match wait_bounded(&filler, "filler") {
            Ok(_) | Err(QueryError::StageFailed { .. }) => {}
            other => panic!("filler: unexpected outcome {other:?}"),
        }
        assert!(start.elapsed() < RESOLVE_TIMEOUT, "fault never fired");
    }
    await_restart(&engine, "scan-worker death");
    assert_eq!(engine.scheduler_stats().scan_workers, 1);
    assert_eq!(engine.quote_eta(), None, "the two-worker quote survived");
    assert_quiesces(&engine, "post-restart quiesce");
    engine.shutdown();
}

/// Shared-host slack on a `quote_eta` comparison: the 150 ms the engine's own
/// `idle_time_does_not_inflate_the_deadline_quote` allows over an honest quote.
const QUOTE_TOLERANCE: Duration = Duration::from_millis(150);

/// The most `quote_eta` may honestly read after a recovery that changed the
/// scan-worker width from `workers_before` to `workers_after`. The quoted
/// cycle is one worker's segment, so it scales with `table / width`: a fault
/// that degrades two workers to one doubles it. Only the host's slack is
/// added on top.
fn quote_bound(before: Duration, workers_before: usize, workers_after: usize) -> Duration {
    before * workers_before as u32 / workers_after.max(1) as u32 + QUOTE_TOLERANCE
}

/// One engine lifetime of the handoff-under-fault scenario: a warm-up query
/// (so `quote_eta` has a pre-fault value), then `queries` in flight across an
/// ingestion commit that seals a row group and hands the scan workers the
/// grown replica, with a scan worker scheduled to panic at ScanWorker event
/// `panic_at` (`None` = fault-free calibration run). Every query reads the
/// initial snapshot, so the appended rows change no expected answer. Asserts
/// the contract at every step and returns the ScanWorker event counts read
/// just before and just after the commit — the window the caller sweeps
/// `panic_at` over.
fn handoff_with_queries_in_flight(
    catalog: &Arc<cjoin_repro::Catalog>,
    queries: &[StarQuery],
    expected: &[QueryResult],
    scan_workers: usize,
    panic_at: Option<u64>,
) -> (u64, u64) {
    const MAX_CONCURRENCY: usize = 8;
    let what = format!("scan_workers={scan_workers} panic_at={panic_at:?}");
    let check = |outcome: QueryOutcome, i: usize, phase: &str| match outcome {
        Ok(result) => assert_matches_oracle(&result, &expected[i], &format!("{what} ({phase})")),
        Err(QueryError::StageFailed { role, detail }) => assert!(
            panic_at.is_some() && !role.is_empty() && !detail.is_empty(),
            "{what} ({phase}): StageFailed without a scheduled fault or diagnostics"
        ),
        Err(other) => panic!("{what} ({phase}): unexpected error {other}"),
    };

    // The scan delay keeps the queries in flight across the handoff.
    let mut plan = FaultPlan::seeded(panic_at.unwrap_or(0)).delay(FaultSite::ScanWorker, 300);
    if let Some(event) = panic_at {
        plan = plan.panic_at_event(FaultSite::ScanWorker, event);
    }
    let plan = plan.build();
    let config = CjoinConfig::default()
        .with_max_concurrency(MAX_CONCURRENCY)
        .with_batch_size(128)
        .with_scan_workers(scan_workers)
        .with_columnar_scan(true)
        .with_fault_plan(Arc::clone(&plan));
    let engine = CjoinEngine::start(Arc::clone(catalog), config).unwrap();

    let warm = submit_with_retry(&engine, &queries[0], &what);
    check(wait_bounded(&warm, &what), 0, "warm-up");
    let quote_before = engine.quote_eta();
    let workers_before = engine.scheduler_stats().scan_workers;

    let handles: Vec<QueryHandle> = queries
        .iter()
        .map(|q| submit_with_retry(&engine, q, &what))
        .collect();
    // One row group's worth of appended rows completes exactly one group
    // (the short last one, or a new one): the commit seals it and hands the
    // grown replica over. A commit needs no pipeline, so it succeeds even
    // while the supervisor is mid-restart.
    let row = catalog.fact_table().unwrap().row(RowId(0)).unwrap();
    let events_before = plan.hits(FaultSite::ScanWorker);
    let mut session = engine.ingest_session();
    for _ in 0..DEFAULT_ROW_GROUP_ROWS {
        session.append_fact(row.values().to_vec());
    }
    session.commit().unwrap();
    let events_after = plan.hits(FaultSite::ScanWorker);
    if panic_at.is_none() {
        assert_eq!(engine.stats().ingest.groups_sealed, 1, "{what}");
    }
    for (i, handle) in handles.iter().enumerate() {
        check(
            wait_bounded(handle, &what),
            i,
            "in flight across the handoff",
        );
    }

    if let Some(event) = panic_at {
        // Host jitter can leave the trigger ordinal unreached by the in-flight
        // phase; drive filler queries until the one-shot fault has fired, then
        // wait for the supervisor to finish the restart it owns.
        let start = Instant::now();
        while plan.hits(FaultSite::ScanWorker) <= event {
            let filler = submit_with_retry(&engine, &queries[0], &what);
            check(wait_bounded(&filler, &what), 0, "filler");
            assert!(
                start.elapsed() < RESOLVE_TIMEOUT,
                "{what}: fault never fired"
            );
        }
        await_restart(&engine, &what);
    }
    assert_quiesces(&engine, &what);

    let workers_after = engine.scheduler_stats().scan_workers;
    if let (Some(before), Some(after)) = (quote_before, engine.quote_eta()) {
        let bound = quote_bound(before, workers_before, workers_after);
        assert!(
            after <= bound,
            "{what}: quote rose from {before:?} ({workers_before} scan workers) to \
             {after:?} ({workers_after}) across the recovery, past {bound:?}"
        );
    }

    // No leaked id, no ghost bit: once cleanup has caught up, a full
    // `maxConc` of fresh queries is admitted at once and answers exactly.
    let start = Instant::now();
    while engine.active_queries() > 0 {
        assert!(
            start.elapsed() < RESOLVE_TIMEOUT,
            "{what}: {} queries never unregistered",
            engine.active_queries()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let fresh: Vec<(usize, QueryHandle)> = (0..MAX_CONCURRENCY)
        .map(|n| {
            let i = n % queries.len();
            let handle = engine
                .submit(queries[i].clone())
                .unwrap_or_else(|err| panic!("{what}: fresh submission {n} refused: {err}"));
            (i, handle)
        })
        .collect();
    for (i, handle) in &fresh {
        let result = wait_bounded(handle, &what)
            .unwrap_or_else(|err| panic!("{what}: fresh query failed: {err}"));
        assert_matches_oracle(&result, &expected[*i], &format!("{what} (fresh)"));
    }
    assert_quiesces(&engine, &what);
    engine.shutdown();
    (events_before, events_after)
}

/// A scan worker dying around a replica handoff is owned by the supervisor
/// alone: every query in flight across the sealing commit resolves — `Ok`
/// and oracle-exact, or `StageFailed` — no id leaks, and the respawned
/// pipeline serves a full `maxConc` of fresh queries exactly. Per front-end
/// width, a fault-free run measures which ScanWorker event ordinals the
/// commit spans; the panic is then swept across that span and a margin either
/// side, so it lands before the handoff, while the workers adopt the grown
/// replica, and just after.
#[test]
fn scan_worker_death_around_a_replica_handoff_is_owned_by_the_supervisor() {
    let data = test_data();
    let catalog = data.catalog();
    let queries: Vec<StarQuery> = test_queries(&data, 61)
        .into_iter()
        .map(|mut q| {
            q.snapshot = Some(SnapshotId::INITIAL);
            q
        })
        .collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference::evaluate(&catalog, q, SnapshotId::INITIAL).unwrap())
        .collect();
    let run = |scan_workers, panic_at| {
        handoff_with_queries_in_flight(&catalog, &queries, &expected, scan_workers, panic_at)
    };

    for scan_workers in [1usize, 2] {
        let (before, after) = run(scan_workers, None);
        let (lo, hi) = (before.saturating_sub(2), after + 2);
        let stride = ((hi - lo) / 6).max(1) as usize;
        for panic_at in (lo..=hi).step_by(stride) {
            run(scan_workers, Some(panic_at));
        }
    }
}
