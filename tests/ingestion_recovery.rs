//! Durability and crash-recovery oracle for near-real-time ingestion.
//!
//! The invariant under attack, from every angle this file can reach: **a
//! committed ingestion batch is atomic and durable, an uncommitted one is
//! invisible — before a crash, after a crash, and while queries are in
//! flight**. Concretely:
//!
//! * A batch becomes visible only after its WAL commit marker is durable, and
//!   then all at once (`commit_through` publishes the epoch after every row is
//!   in place).
//! * Restarting an engine on the surviving WAL yields answers bit-identical to
//!   an engine that never crashed: replay applies exactly the committed
//!   prefix.
//! * A torn write (simulated crash mid-append), a clean-but-uncommitted tail
//!   and a silent bit-flip each recover to the longest clean committed prefix,
//!   with the truncation visible in `IngestStats::recovery_truncations`.
//! * Under sustained ingest concurrent with query churn, across the
//!   parallelism matrix, no ticket hangs and every answer corresponds to a
//!   committed snapshot — never a partially applied batch.
//! * Sealing row groups into the columnar replica (a commit that completes a
//!   group encodes it and hands the grown replica to the running scan
//!   workers) never changes an answer and never restarts a query in flight.
//! * A query's snapshot stays pinned across a dimension re-keying mid-pass.
//!
//! Every sync policy is covered, and recovery is checked at every byte offset
//! of the log against shadow warehouses. The WAL byte-format unit tests ride
//! the workspace suite (`crates/storage/src/wal.rs`).

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cjoin_repro::cjoin::fault::{FaultPlan, FaultSite};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine, QueryHandle};
use cjoin_repro::query::{reference, AggValue, QueryOutcome, QueryResult};
use cjoin_repro::storage::{Column, Schema, SyncPolicy, Table, Value, DEFAULT_ROW_GROUP_ROWS};
use cjoin_repro::{AggFunc, AggregateSpec, Catalog, ColumnRef, Predicate, SnapshotId, StarQuery};

/// Bound on every wait in this file: a hang is a test failure, not a CI
/// timeout.
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

/// Submits with bounded retry: a submit refused during a supervisor restart
/// window is a typed error, never a hang.
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

fn temp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cjoin-ingest-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A tiny deterministic warehouse: `color(k, name)` with red/green/blue, and
/// `sales(fk, amount)` with `n_facts` rows cycling over the three keys. Every
/// restart in this file seeds a *fresh* catalog from this function, so any
/// state divergence after recovery can only come from the WAL.
fn warehouse(n_facts: usize) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let dim = Table::new(Schema::new(
        "color",
        vec![Column::int("k"), Column::str("name")],
    ));
    for (k, name) in [(1, "red"), (2, "green"), (3, "blue")] {
        dim.insert(vec![Value::int(k), Value::str(name)], SnapshotId::INITIAL)
            .unwrap();
    }
    let fact = Table::new(Schema::new(
        "sales",
        vec![Column::int("fk"), Column::int("amount")],
    ));
    for i in 0..n_facts {
        fact.insert(
            vec![Value::int((i % 3) as i64 + 1), Value::int(i as i64)],
            SnapshotId::INITIAL,
        )
        .unwrap();
    }
    catalog.add_table(Arc::new(dim));
    catalog.add_fact_table(Arc::new(fact));
    Arc::new(catalog)
}

/// SUM(amount) over facts joining the "red" dimension row — the probe every
/// test uses, because red facts only ever grow monotonically here, which makes
/// "this answer corresponds to a committed prefix" checkable as set
/// membership.
fn red_sum_query() -> StarQuery {
    StarQuery::builder("red_sum")
        .join_dimension("color", "fk", "k", Predicate::eq("name", "red"))
        .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")))
        .build()
}

fn sum_of(result: &QueryResult) -> i128 {
    match result.rows().next() {
        Some((_, values)) => match values[0] {
            AggValue::Int(v) => v,
            ref other => panic!("expected Int aggregate, got {other:?}"),
        },
        None => 0,
    }
}

fn ask(engine: &CjoinEngine, what: &str) -> QueryResult {
    match wait_bounded(&submit_with_retry(engine, &red_sum_query(), what), what) {
        Ok(result) => result,
        Err(err) => panic!("{what}: query failed: {err}"),
    }
}

fn oracle(catalog: &Catalog, snapshot: SnapshotId) -> QueryResult {
    reference::evaluate(catalog, &red_sum_query(), snapshot).unwrap()
}

fn assert_same(result: &QueryResult, expected: &QueryResult, what: &str) {
    assert!(
        result.approx_eq(expected),
        "{what}: result diverged: {:?}",
        result.diff(expected)
    );
}

fn wal_config() -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(8)
        .with_batch_size(64)
}

/// The base contract: a mixed batch (fact appends, a dimension upsert, a
/// dimension delete) commits atomically, the counters record it, and a fresh
/// engine recovering the WAL onto a fresh seed catalog answers bit-identically
/// to the engine that wrote it.
#[test]
fn durable_batches_are_atomic_visible_and_survive_restart() {
    let path = temp_wal("atomic");
    let catalog = warehouse(90);
    let engine = CjoinEngine::start(Arc::clone(&catalog), wal_config().with_wal(&path)).unwrap();

    let before = ask(&engine, "pre-ingest");
    assert_same(
        &before,
        &oracle(&catalog, SnapshotId::INITIAL),
        "pre-ingest",
    );

    // One batch mixing every mutation kind: two fact rows (coalesced into one
    // WAL record), a new "red" dimension key, a fact row referencing it (a
    // separate record — it follows a dimension mutation), and a delete.
    let mut session = engine.ingest_session();
    session
        .append_fact(vec![Value::int(1), Value::int(1_000)])
        .append_fact(vec![Value::int(2), Value::int(5)]);
    session.upsert_dimension("color", 0, vec![Value::int(4), Value::str("red")]);
    session.append_fact(vec![Value::int(4), Value::int(7)]);
    session.delete_dimension("color", 0, 3);
    assert_eq!(session.len(), 4, "fact rows coalesce per contiguous run");
    let receipt = session.commit().unwrap();
    assert_eq!(receipt.records, 4);
    assert!(receipt.epoch > 0 && receipt.wal_bytes > 0);

    let after = ask(&engine, "post-ingest");
    let committed = catalog.snapshots().current();
    assert_same(&after, &oracle(&catalog, committed), "post-ingest");
    assert_eq!(
        sum_of(&after),
        sum_of(&before) + 1_000 + 7,
        "both new red facts (old key and upserted key) count exactly once"
    );

    let stats = engine.stats().ingest;
    assert_eq!(stats.records_appended, 4);
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.recovery_truncations, 0);
    engine.shutdown();
    drop(engine);

    // Restart on a *fresh* seed catalog: everything beyond the seed must come
    // from WAL replay, and must match what the first engine answered.
    let recovered_catalog = warehouse(90);
    let recovered =
        CjoinEngine::start(Arc::clone(&recovered_catalog), wal_config().with_wal(&path)).unwrap();
    assert_eq!(recovered.stats().ingest.recovery_truncations, 0);
    let answer = ask(&recovered, "recovered");
    assert_same(&answer, &after, "recovered vs pre-crash");
    assert_same(
        &answer,
        &oracle(&recovered_catalog, recovered_catalog.snapshots().current()),
        "recovered vs oracle",
    );

    // The recovered log keeps accepting batches, with epochs strictly beyond
    // the replayed watermark (replayed epochs are never re-allocated).
    let mut session = recovered.ingest_session();
    session.append_fact(vec![Value::int(1), Value::int(50)]);
    let receipt2 = session.commit().unwrap();
    assert!(receipt2.epoch > receipt.epoch);
    assert_eq!(
        sum_of(&ask(&recovered, "post-recovery ingest")),
        sum_of(&after) + 50
    );
    recovered.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A torn write — the injected crash mid-append — under every sync policy:
/// the batch is invisible on the surviving engine, and a restart recovers
/// exactly the batches committed before the tear, counting one truncation.
#[test]
fn torn_write_crash_recovers_committed_prefix_under_every_sync_policy() {
    for (i, policy) in [
        SyncPolicy::EveryRecord,
        SyncPolicy::OnCommit,
        SyncPolicy::Never,
    ]
    .into_iter()
    .enumerate()
    {
        let what = format!("policy={policy:?}");
        let path = temp_wal(&format!("torn-{i}"));
        let catalog = warehouse(30);
        // Batch 1 is one WAL record (append ordinal 1); the tear fires on
        // ordinal 2 — batch 2's first record.
        let plan = FaultPlan::seeded(1).torn_write_at(2).build();
        let config = wal_config()
            .with_wal(&path)
            .with_wal_sync(policy)
            .with_fault_plan(plan);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

        let mut session = engine.ingest_session();
        session
            .append_fact(vec![Value::int(1), Value::int(100)])
            .append_fact(vec![Value::int(1), Value::int(101)]);
        session.commit().unwrap();
        let committed = ask(&engine, &format!("{what} committed batch"));

        let crash = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut session = engine.ingest_session();
            session.append_fact(vec![Value::int(1), Value::int(999_999)]);
            session.commit()
        }));
        let message = match crash {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(r) => panic!("{what}: torn write did not crash the commit: {r:?}"),
        };
        assert!(message.contains("torn"), "{what}: {message}");

        // The crashed batch never got a commit marker: invisible now...
        assert_same(
            &ask(&engine, &format!("{what} post-crash")),
            &committed,
            &format!("{what}: torn batch leaked into a live answer"),
        );
        engine.shutdown();
        drop(engine);

        // ...and invisible after recovery, which truncates the torn record.
        let recovered_catalog = warehouse(30);
        let recovered = CjoinEngine::start(
            Arc::clone(&recovered_catalog),
            wal_config().with_wal(&path).with_wal_sync(policy),
        )
        .unwrap();
        assert_eq!(
            recovered.stats().ingest.recovery_truncations,
            1,
            "{what}: torn tail not counted"
        );
        assert_same(
            &ask(&recovered, &format!("{what} recovered")),
            &committed,
            &format!("{what}: recovery diverged from the committed prefix"),
        );

        // The truncated log is clean again: ingestion resumes.
        let mut session = recovered.ingest_session();
        session.append_fact(vec![Value::int(1), Value::int(7)]);
        session.commit().unwrap();
        assert_eq!(
            sum_of(&ask(&recovered, &format!("{what} resumed"))),
            sum_of(&committed) + 7
        );
        recovered.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

/// Silent media corruption: a scheduled bit-flip lands inside the first
/// committed record. The live engine keeps answering from memory (the flip is
/// silent by design); recovery meets the checksum mismatch, truncates
/// everything from the flipped record on, and reports it.
#[test]
fn silent_byte_flip_truncates_at_replay_and_counts_a_recovery_truncation() {
    let path = temp_wal("bitflip");
    let catalog = warehouse(30);
    // Offset 20 is the first record's kind byte (12-byte header + 8-byte
    // epoch): inside the committed region, so replay truncates at offset 0.
    let plan = FaultPlan::seeded(2).flip_wal_byte(20).build();
    let config = wal_config().with_wal(&path).with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    for amount in [300, 400] {
        let mut session = engine.ingest_session();
        session.append_fact(vec![Value::int(1), Value::int(amount)]);
        session.commit().unwrap();
    }
    // The corruption is silent: the live engine still sees both batches.
    let live = ask(&engine, "live after flip");
    assert_same(
        &live,
        &oracle(&catalog, catalog.snapshots().current()),
        "live",
    );
    engine.shutdown();
    drop(engine);

    let recovered_catalog = warehouse(30);
    let recovered =
        CjoinEngine::start(Arc::clone(&recovered_catalog), wal_config().with_wal(&path)).unwrap();
    assert_eq!(recovered.stats().ingest.recovery_truncations, 1);
    // Both batches sat at or beyond the defect: recovery is seed-only.
    assert_same(
        &ask(&recovered, "recovered after flip"),
        &oracle(&recovered_catalog, SnapshotId::INITIAL),
        "recovery must fall back to the clean (empty) committed prefix",
    );
    recovered.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The crash-recovery oracle: kill the "process" at every commit boundary and
/// a dense sweep of mid-record offsets by truncating a copy of the WAL, then
/// recover a fresh engine on the cut and require its answer bit-identical to
/// a warehouse that ingested exactly the batches whose commit marker survived
/// the cut — no more, no less, never a partial batch.
#[test]
fn kill_at_every_offset_recovers_bit_identical_answers() {
    let path = temp_wal("sweep");
    let catalog = warehouse(12);
    let engine = CjoinEngine::start(
        Arc::clone(&catalog),
        wal_config()
            .with_wal(&path)
            .with_wal_sync(SyncPolicy::EveryRecord),
    )
    .unwrap();
    let batches: Vec<Vec<Value>> = (0..3)
        .map(|i| vec![Value::int(1), Value::int(1_000 * (i + 1))])
        .collect();
    let mut commit_ends = Vec::new();
    for row in &batches {
        let mut session = engine.ingest_session();
        session.append_fact(row.clone());
        commit_ends.push(session.commit().unwrap().wal_bytes);
    }
    engine.shutdown();
    drop(engine);

    let full = std::fs::read(&path).unwrap();
    assert_eq!(*commit_ends.last().unwrap(), full.len() as u64);
    // Every 5th byte, plus the exact commit boundaries and their neighbours
    // (the off-by-one cases that distinguish "marker durable" from "marker
    // torn").
    let mut cuts: Vec<u64> = (0..=full.len() as u64).step_by(5).collect();
    for &end in &commit_ends {
        cuts.extend([end.saturating_sub(1), end, end + 1]);
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.retain(|&c| c <= full.len() as u64);

    let copy = temp_wal("sweep-cut");
    for cut in cuts {
        let what = format!("cut at byte {cut}");
        std::fs::write(&copy, &full[..cut as usize]).unwrap();
        let survived = commit_ends.iter().filter(|&&end| end <= cut).count();

        // The never-crashed reference: a warehouse holding exactly the
        // batches whose commit marker fits inside the cut.
        let shadow = warehouse(12);
        for row in &batches[..survived] {
            shadow
                .fact_table()
                .unwrap()
                .insert(row.clone(), SnapshotId::INITIAL)
                .unwrap();
        }
        let expected = oracle(&shadow, SnapshotId::INITIAL);

        let recovered_catalog = warehouse(12);
        let recovered =
            CjoinEngine::start(Arc::clone(&recovered_catalog), wal_config().with_wal(&copy))
                .unwrap();
        let answer = ask(&recovered, &what);
        assert_same(&answer, &expected, &what);
        assert_same(
            &answer,
            &oracle(&recovered_catalog, recovered_catalog.snapshots().current()),
            &format!("{what}: engine vs oracle on the recovered catalog"),
        );
        recovered.shutdown();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&copy);
}

/// Sustained ingest concurrent with query churn, across the parallelism
/// matrix (scan workers x distributor shards x columnar, where every batch
/// appends a whole row group so each commit seals one): no ticket hangs, and
/// every answer equals a committed prefix sum — a partially visible batch
/// would produce a sum outside the set.
#[test]
fn sustained_ingest_with_query_churn_never_hangs_and_stays_prefix_consistent() {
    const BATCHES: i64 = 25;
    for (scan_workers, shards, columnar) in
        [(1, 1, false), (2, 1, false), (1, 2, true), (2, 2, true)]
    {
        let what = format!("scan={scan_workers} shards={shards} columnar={columnar}");
        let path = temp_wal(&format!("churn-{scan_workers}-{shards}-{columnar}"));
        let catalog = warehouse(600);
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(128)
            .with_scan_workers(scan_workers)
            .with_distributor_shards(shards)
            .with_columnar_scan(columnar)
            .with_wal(&path);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        let rows_per_batch = if columnar { DEFAULT_ROW_GROUP_ROWS } else { 1 };

        let seed_sum = sum_of(&oracle(&catalog, SnapshotId::INITIAL));
        // Every sum a query may legally observe. Each cumulative sum is
        // published *before* its commit, so the set always contains whatever
        // is visible; a non-prefix (partially applied) sum is caught.
        let valid_sums = Mutex::new(vec![seed_sum]);
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let feeder = scope.spawn(|| {
                let mut cumulative = seed_sum;
                for b in 0..BATCHES {
                    let amount = 10_000 + b;
                    cumulative += i128::from(amount) * rows_per_batch as i128;
                    valid_sums.lock().unwrap().push(cumulative);
                    let mut session = engine.ingest_session();
                    for _ in 0..rows_per_batch {
                        session.append_fact(vec![Value::int(1), Value::int(amount)]);
                    }
                    if b % 5 == 0 {
                        // Dimension churn that never touches the red key set.
                        session.upsert_dimension(
                            "color",
                            0,
                            vec![Value::int(10 + b), Value::str("yellow")],
                        );
                    }
                    session.commit().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
                done.store(true, Ordering::Release);
            });

            let mut asked = 0usize;
            while !done.load(Ordering::Acquire) {
                let sum = sum_of(&ask(&engine, &what));
                assert!(
                    valid_sums.lock().unwrap().contains(&sum),
                    "{what}: sum {sum} matches no committed prefix"
                );
                asked += 1;
            }
            assert!(asked > 0, "{what}: churn loop never ran a query");
            feeder.join().unwrap();
        });

        // Quiesced: the final answer equals the oracle over everything.
        assert_same(
            &ask(&engine, &format!("{what} final")),
            &oracle(&catalog, catalog.snapshots().current()),
            &format!("{what} final"),
        );
        let stats = engine.stats().ingest;
        assert_eq!(stats.commits, BATCHES as u64, "{what}");
        assert!(stats.records_appended >= BATCHES as u64, "{what}");
        let sealed = if columnar { BATCHES as u64 } else { 0 };
        assert_eq!(stats.groups_sealed, sealed, "{what}");
        engine.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

/// Sealing equivalence: four commits of one row group each seal four groups
/// (counted in `groups_sealed`) — and answers before, across and after each
/// handoff stay oracle-exact.
#[test]
fn tail_compaction_preserves_answers_and_is_counted() {
    let path = temp_wal("sealing");
    let catalog = warehouse(40);
    let config = wal_config().with_wal(&path).with_columnar_scan(true);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    for batch in 0..4 {
        let mut session = engine.ingest_session();
        for _ in 0..DEFAULT_ROW_GROUP_ROWS / 2 {
            session
                .append_fact(vec![Value::int(1), Value::int(batch * 2)])
                .append_fact(vec![Value::int(2), Value::int(batch * 2 + 1)]);
        }
        session.commit().unwrap();
        assert_same(
            &ask(&engine, "between seals"),
            &oracle(&catalog, catalog.snapshots().current()),
            "between seals",
        );
    }
    let stats = engine.stats();
    assert_eq!(
        stats.ingest.groups_sealed, 4,
        "four groups' worth of rows sealed four groups: {:?}",
        stats.ingest
    );
    assert!(stats.columnar.is_some(), "columnar replica active");
    engine.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Sealing a row group leaves a query in flight alone: the committing thread
/// hands the running scan workers the grown replica, so the query keeps its
/// pass — its progress never goes back — and answers exactly at its
/// snapshot, with no pipeline restart. The scan's byte accounting carries
/// across the handoff.
#[test]
fn a_tail_compaction_hands_the_running_scan_a_rebuilt_replica() {
    const FACTS: usize = 20_000;
    let catalog = warehouse(FACTS);
    // Slow each scan batch so the query is reliably mid-pass at the commit.
    let plan = FaultPlan::seeded(5)
        .delay(FaultSite::ScanWorker, 1_000)
        .build();
    let config = wal_config().with_columnar_scan(true).with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
    let expected = oracle(&catalog, catalog.snapshots().current());
    let handle = submit_with_retry(&engine, &red_sum_query(), "in flight");
    let progress = Arc::clone(handle.progress());
    let start = Instant::now();
    while progress.rows_seen() < progress.rows_total() / 4 {
        assert!(start.elapsed() < RESOLVE_TIMEOUT, "scan never advanced");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        !progress.is_completed(),
        "the delay must hold the query mid-pass"
    );
    let mut last = progress.rows_seen();

    // One group's worth of rows completes the replica's short last group.
    let mut session = engine.ingest_session();
    for amount in 0..DEFAULT_ROW_GROUP_ROWS as i64 {
        session.append_fact(vec![Value::int(1), Value::int(amount)]);
    }
    session.commit().unwrap();
    let at_commit = engine.stats();
    assert_eq!(at_commit.ingest.groups_sealed, 1);
    let replica = engine.columnar_replica().expect("columnar replica active");
    assert_eq!(
        replica.len(),
        (FACTS / DEFAULT_ROW_GROUP_ROWS + 1) * DEFAULT_ROW_GROUP_ROWS,
        "the grown replica covers every complete group"
    );

    let outcome = loop {
        let seen = progress.rows_seen();
        assert!(
            seen >= last,
            "rows_seen went back from {last} to {seen}: the pass restarted"
        );
        last = seen;
        if let Some(outcome) = handle.try_result() {
            break outcome;
        }
        assert!(start.elapsed() < RESOLVE_TIMEOUT, "query never resolved");
        std::thread::sleep(Duration::from_millis(1));
    };
    match outcome {
        Ok(result) => assert_same(&result, &expected, "in flight across the seal"),
        Err(err) => panic!("query in flight across the seal failed: {err}"),
    }
    let after = engine.stats();
    assert_eq!(after.pipeline_restarts, 0);
    assert!(after.scheduler.resizes.is_empty(), "{:?}", after.scheduler);
    let scanned = |stats: &cjoin_repro::cjoin::PipelineStats| {
        stats
            .columnar
            .as_ref()
            .expect("columnar stats")
            .rows_scanned
    };
    assert!(
        scanned(&after) >= scanned(&at_commit),
        "the byte accounting restarted at the handoff"
    );

    // A query admitted after the commit sees the appended rows.
    assert_same(
        &ask(&engine, "after the seal"),
        &oracle(&catalog, catalog.snapshots().current()),
        "after the seal",
    );
    engine.shutdown();
}

/// Snapshot isolation across dimension churn: a query admitted before an
/// upsert that *re-keys* the red dimension must answer from the old dimension
/// version for its whole pass — never a mix — while a query admitted after
/// sees only the new version.
#[test]
fn dimension_upsert_mid_pass_never_mixes_versions() {
    let catalog = warehouse(3_000);
    // Slow each scan batch slightly so the pinned query is reliably still
    // mid-pass when the dimension mutates under it.
    let plan = FaultPlan::seeded(3)
        .delay(FaultSite::ScanWorker, 1_500)
        .build();
    let config = wal_config()
        .with_wal(temp_wal("dim-churn"))
        .with_fault_plan(plan);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

    let pinned_snapshot = catalog.snapshots().current();
    let expected_pinned = oracle(&catalog, pinned_snapshot);
    let pinned = submit_with_retry(&engine, &red_sum_query(), "pinned query");

    // Re-key "red": key 1 stops being red, key 2 (green's facts) becomes red,
    // and a new fact lands on key 1 — all in one atomic batch.
    let mut session = engine.ingest_session();
    session.upsert_dimension("color", 0, vec![Value::int(1), Value::str("teal")]);
    session.upsert_dimension("color", 0, vec![Value::int(2), Value::str("red")]);
    session.append_fact(vec![Value::int(1), Value::int(500_000)]);
    session.commit().unwrap();

    match wait_bounded(&pinned, "pinned query") {
        Ok(result) => assert_same(
            &result,
            &expected_pinned,
            "pinned query leaked post-upsert dimension state",
        ),
        Err(err) => panic!("pinned query failed: {err}"),
    }

    // A fresh query sees the new world exactly: red is now the old green
    // facts, and the new fact (on the no-longer-red key 1) is excluded.
    let fresh = ask(&engine, "post-upsert query");
    assert_same(
        &fresh,
        &oracle(&catalog, catalog.snapshots().current()),
        "post-upsert query",
    );
    assert_ne!(
        sum_of(&fresh),
        sum_of(&expected_pinned),
        "the re-key must actually change the answer for new queries"
    );
    engine.shutdown();
}
