//! Oracle-backed tests for the compressed columnar scan front-end
//! (`CjoinConfig::columnar_scan`).
//!
//! Seven suites pin down the in-pipeline columnar path:
//!
//! 1. **Zone-map skip oracle** — an independently computed per-group min/max
//!    over the raw fact rows predicts *exactly* how many rows a clustered range
//!    query must skip via zone maps, and where its pass ends (after the last
//!    group its range overlaps); the engine's `rows_predicate_skipped` and
//!    `rows_scanned` counters must match it row for row.
//! 2. **Per-run predicate evaluation** — on a run-length-encoded column, the
//!    kernel answers whole runs with one probe, so `predicate_rows /
//!    predicate_probes` must be far above 1 (the row path's implicit ratio).
//! 3. **Late materialization** — only the columns the active query's predicate
//!    and aggregates touch may accrue bytes; every other fact column must stay
//!    at zero, and the per-column bills must sum to the total scan volume.
//! 4. **Mid-scan admission, exactly once** — full-table COUNT/SUM probes
//!    admitted while background churn keeps all four segment cursors busy must
//!    equal the reference exactly: a duplicated row-group row inflates the
//!    aggregate, a zone-map-skipped visible row deflates it.
//! 5. **Probe before materialise** — the front-end runs the chain's leading
//!    Filter on encoded foreign keys and builds rows only for survivors. Every
//!    outcome of that scan-side probe — a referencing query that selected no
//!    dimension row, a query that ignores the leading dimension, a key carrying
//!    two content versions, and the two fallbacks that bypass it (a quarantined
//!    row group, rows appended after the replica was built) — must leave
//!    results bit-identical to `reference::evaluate`, with one scan worker and
//!    with four; so must a pass that crosses from encoded chunks over the
//!    replica's frontier into row-store chunks and around the wrap, which must
//!    also agree with an engine that has no replica.
//! 6. **Where a query ends** — a clustered date window ends at its last row
//!    group that can match, short of the wrap, with the oracle's answer; a
//!    quarantined group after the window keeps it running and changes nothing;
//!    a query that can match everywhere runs exactly one pass; and a window
//!    admitted after an ingest commit still sees the appended rows, with and
//!    without a replica.
//! 7. **Growth by sealed row groups** — each commit encodes exactly the row
//!    groups it completed and shares every older one by `Arc`, leaving fewer
//!    than one group to the row store; a string the replica has never seen
//!    grows its dictionary, and queries admitted before and after the seal
//!    that brings it in answer exactly.

use std::sync::Arc;

use cjoin_repro::cjoin::fault::{FaultPlan, FaultSite};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::reference;
use cjoin_repro::query::CompareOp;
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{
    Catalog, Column, Row, RowId, Schema, Table, Value, DEFAULT_ROW_GROUP_ROWS,
};
use cjoin_repro::{
    AggFunc, AggregateSpec, ColumnRef, Predicate, QueryResult, SnapshotId, StarQuery,
};

fn config(scan_workers: usize) -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(32)
        .with_batch_size(256)
        .with_scan_workers(scan_workers)
        .with_columnar_scan(true)
}

#[test]
fn zone_map_skipping_matches_the_min_max_oracle_exactly() {
    // Cluster the fact table by lo_orderdate so row groups have tight date
    // ranges — the setup under which zone maps earn their keep.
    let data = SsbDataSet::generate(SsbConfig {
        cluster_by_orderdate: true,
        ..SsbConfig::for_tests(0.005, 601)
    });
    let catalog = data.catalog();
    let fact = catalog.fact_table().unwrap();

    let (lo, hi) = (19_930_101i64, 19_931_231i64);
    let query = StarQuery::builder("year93")
        .fact_predicate(Predicate::between("lo_orderdate", lo, hi))
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .build();
    let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();

    // Independent oracle: per DEFAULT_ROW_GROUP_ROWS-row group, the min/max of
    // lo_orderdate over the raw rows decides skippability. The pass ends after
    // the last group that is not disjoint; before that, every row of a
    // disjoint group must be skipped and every other row must be scanned.
    let date_col = fact.schema().column_index("lo_orderdate").unwrap();
    let mut dates = Vec::with_capacity(fact.len());
    fact.for_each_visible(SnapshotId(u64::MAX), |_, row| {
        dates.push(row.int(date_col));
    });
    let groups: Vec<(u64, bool)> = dates
        .chunks(DEFAULT_ROW_GROUP_ROWS)
        .map(|group| {
            let min = *group.iter().min().unwrap();
            let max = *group.iter().max().unwrap();
            (group.len() as u64, max < lo || min > hi)
        })
        .collect();
    let read = groups.iter().rposition(|&(_, disjoint)| !disjoint).unwrap() + 1;
    let expected_end: u64 = groups[..read].iter().map(|&(len, _)| len).sum();
    let expected_skipped: u64 = groups[..read]
        .iter()
        .filter(|&&(_, disjoint)| disjoint)
        .map(|&(len, _)| len)
        .sum();
    assert!(
        expected_skipped > 0 && expected_end < fact.len() as u64,
        "test setup must produce skippable groups on both sides of the range"
    );

    // A fresh engine idles at scan position 0 until the query is admitted and
    // stops scanning once it finalizes, so the counters cover exactly its pass.
    let engine = CjoinEngine::start(Arc::clone(&catalog), config(1)).unwrap();
    let result = engine.execute(query).unwrap();
    assert!(result.approx_eq(&expected), "{:?}", result.diff(&expected));

    let columnar = engine.stats().columnar.expect("columnar stats present");
    assert_eq!(
        columnar.rows_predicate_skipped, expected_skipped,
        "zone-map skipping must match the min/max oracle row for row"
    );
    assert!(columnar.row_groups_skipped > 0);
    assert_eq!(
        columnar.rows_scanned + columnar.rows_predicate_skipped,
        expected_end,
        "scanned and skipped rows partition the pass, which ends after the \
         last group that can match"
    );
    engine.shutdown();
}

#[test]
fn rle_predicates_evaluate_per_run_not_per_row() {
    // A fact column with 256-row runs: adaptive compression picks RLE, and the
    // encoded kernel must answer each run with a single probe.
    let catalog = Catalog::new();
    let fact = Table::new(Schema::new(
        "events",
        vec![Column::int("grp"), Column::int("rev")],
    ));
    fact.insert_batch_unchecked(
        (0..16_384i64).map(|i| Row::new(vec![Value::int(i / 256), Value::int(i % 97)])),
        SnapshotId::INITIAL,
    );
    catalog.add_fact_table(Arc::new(fact));
    let catalog = Arc::new(catalog);

    // 22..=41 straddles run values mid-group, so some groups are Maybe (probed
    // per run), some Always (no probes) and some Never (skipped outright).
    let query = StarQuery::builder("grp_range")
        .fact_predicate(Predicate::between("grp", 22, 41))
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("rev")))
        .build();
    let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();

    let engine = CjoinEngine::start(Arc::clone(&catalog), config(1)).unwrap();
    let result = engine.execute(query).unwrap();
    assert!(result.approx_eq(&expected), "{:?}", result.diff(&expected));

    let columnar = engine.stats().columnar.expect("columnar stats present");
    assert!(columnar.row_groups_skipped > 0, "Never groups are skipped");
    assert!(columnar.predicate_probes > 0, "Maybe groups are probed");
    assert!(
        columnar.rows_per_probe() > 32.0,
        "one probe must cover a whole RLE run, got {} rows/probe",
        columnar.rows_per_probe()
    );
    engine.shutdown();
}

#[test]
fn late_materialization_touches_only_the_needed_columns() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.002, 603));
    let catalog = data.catalog();
    let fact = catalog.fact_table().unwrap();
    let schema = fact.schema();

    let query = StarQuery::builder("narrow")
        .fact_predicate(Predicate::between("lo_orderdate", 19_940_101, 19_941_231))
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .build();
    let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();

    let engine = CjoinEngine::start(Arc::clone(&catalog), config(1)).unwrap();
    let result = engine.execute(query).unwrap();
    assert!(result.approx_eq(&expected), "{:?}", result.diff(&expected));

    let columnar = engine.stats().columnar.expect("columnar stats present");
    let needed = [
        schema.column_index("lo_orderdate").unwrap(),
        schema.column_index("lo_revenue").unwrap(),
    ];
    for (col, &bytes) in columnar.column_bytes.iter().enumerate() {
        if needed.contains(&col) {
            assert!(bytes > 0, "needed column {col} must be read");
        } else {
            assert_eq!(
                bytes,
                0,
                "column {col} ({}) is not needed by the query and must never be decoded",
                schema.column(col).name
            );
        }
    }
    assert_eq!(
        columnar.column_bytes.iter().sum::<u64>(),
        columnar.bytes_scanned,
        "per-column bills sum to the total scan volume"
    );
    engine.shutdown();
}

#[test]
fn mid_scan_admission_is_exactly_once_across_columnar_segments() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 604));
    let catalog = data.catalog();
    let engine = CjoinEngine::start(Arc::clone(&catalog), config(4)).unwrap();

    // Background churn keeps every segment cursor mid-pass while the probes
    // are admitted, so query-start boundaries land in the middle of row groups
    // and zone-map decisions interleave with per-query admission state.
    let background = Workload::generate(&data, WorkloadConfig::new(12, 0.05, 605));
    let mut in_flight = std::collections::VecDeque::new();
    let mut background_iter = background.queries().iter();
    for query in background_iter.by_ref().take(4) {
        in_flight.push_back(engine.submit(query.clone()).unwrap());
    }

    let mut probe_handles = Vec::new();
    let mut expected = Vec::new();
    for round in 0..6 {
        let probe = StarQuery::builder(format!("probe{round}"))
            .aggregate(AggregateSpec::count_star())
            .aggregate(AggregateSpec::over(
                AggFunc::Sum,
                ColumnRef::fact("lo_revenue"),
            ))
            .build();
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
        let result = handle.wait().unwrap();
        assert!(
            result.approx_eq(&expected),
            "probe {round} did not see every fact row exactly once: {:?}",
            result.diff(&expected)
        );
    }
    for handle in in_flight {
        handle.wait().unwrap();
    }
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// 5. Probe before materialise
// ---------------------------------------------------------------------------

/// `sales(color_fk, size_fk, amount)` over `color(k, name)` and
/// `size(k, label)`: 5 000 fact rows (five row groups, so four scan workers
/// each own at least one), every foreign key hitting a stored dimension row.
fn two_dimension_warehouse() -> Arc<Catalog> {
    let catalog = Catalog::new();
    let color = Table::new(Schema::new(
        "color",
        vec![Column::int("k"), Column::str("name")],
    ));
    for (k, name) in [(1, "red"), (2, "green"), (3, "blue"), (4, "black")] {
        color
            .insert(vec![Value::int(k), Value::str(name)], SnapshotId::INITIAL)
            .unwrap();
    }
    let size = Table::new(Schema::new(
        "size",
        vec![Column::int("k"), Column::str("label")],
    ));
    for (k, label) in [(1, "S"), (2, "M"), (3, "L")] {
        size.insert(vec![Value::int(k), Value::str(label)], SnapshotId::INITIAL)
            .unwrap();
    }
    let fact = Table::new(Schema::new(
        "sales",
        vec![
            Column::int("color_fk"),
            Column::int("size_fk"),
            Column::int("amount"),
        ],
    ));
    fact.insert_batch_unchecked(
        (0..5_000i64).map(|i| {
            Row::new(vec![
                Value::int(i % 4 + 1),
                Value::int(i % 3 + 1),
                Value::int(i),
            ])
        }),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(color));
    catalog.add_table(Arc::new(size));
    catalog.add_fact_table(Arc::new(fact));
    Arc::new(catalog)
}

/// COUNT(*) and SUM(amount) grouped by the joined dimensions' attributes, so a
/// wrong attached row shows up as a wrong group, not just a wrong total.
fn sales_by(name: &str, color: Option<Predicate>, size: Option<Predicate>) -> StarQuery {
    let mut query = StarQuery::builder(name);
    if let Some(predicate) = color {
        query = query
            .join_dimension("color", "color_fk", "k", predicate)
            .group_by(ColumnRef::dim("color", "name"));
    }
    if let Some(predicate) = size {
        query = query
            .join_dimension("size", "size_fk", "k", predicate)
            .group_by(ColumnRef::dim("size", "label"));
    }
    query
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")))
        .build()
}

fn small_config(scan_workers: usize) -> CjoinConfig {
    config(scan_workers).with_max_concurrency(8)
}

/// Submits every query at once (so they share chunks, and whichever dimension
/// leads the chain some of them reference it and some do not), then checks each
/// against the oracle at the snapshot current at submission.
fn assert_all_match_oracle(engine: &CjoinEngine, catalog: &Arc<Catalog>, queries: &[StarQuery]) {
    let snapshot = catalog.snapshots().current();
    let handles: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();
    for (query, handle) in queries.iter().zip(handles) {
        let expected = reference::evaluate(catalog, query, snapshot).unwrap();
        assert_eq!(handle.wait().unwrap(), expected, "query {}", query.name);
    }
}

/// The query mix of the suite: for either dimension, one query selects some of
/// its rows, one selects none of them, and one does not reference it at all.
fn probe_mix() -> Vec<StarQuery> {
    let none = || Predicate::eq("k", 99);
    vec![
        sales_by("color_some", Some(Predicate::between("k", 1, 2)), None),
        sales_by("size_some", None, Some(Predicate::eq("label", "M"))),
        sales_by(
            "both",
            Some(Predicate::eq("name", "blue")),
            Some(Predicate::between("k", 2, 3)),
        ),
        sales_by("color_none", Some(none()), None),
        sales_by("size_none", None, Some(none())),
        sales_by("no_dimension", None, None),
    ]
}

#[test]
fn scan_side_probe_handles_empty_selections_and_unreferencing_queries() {
    for scan_workers in [1, 4] {
        let catalog = two_dimension_warehouse();
        let engine = CjoinEngine::start(Arc::clone(&catalog), small_config(scan_workers)).unwrap();
        // Twice: the second round meets a chain the first one left behind
        // (possibly reordered, possibly with a Filter retired and re-created
        // on its dimension's old slot).
        for _ in 0..2 {
            assert_all_match_oracle(&engine, &catalog, &probe_mix());
        }
        engine.shutdown();
    }
}

#[test]
fn scan_side_probe_splits_tuples_whose_key_carries_two_versions() {
    for scan_workers in [1, 4] {
        let catalog = two_dimension_warehouse();
        // Slow every chunk a little so the pinned query is still mid-pass when
        // the dimension changes under it and the second query is admitted.
        let plan = FaultPlan::seeded(7)
            .delay(FaultSite::ScanWorker, 2_000)
            .build();
        let config = small_config(scan_workers).with_fault_plan(plan);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

        // Only `color` is ever joined here, so it is the leading Filter.
        let by_color = sales_by("pinned", Some(Predicate::between("k", 1, 2)), None);
        let before = catalog.snapshots().current();
        let expected_pinned = reference::evaluate(&catalog, &by_color, before).unwrap();
        let pinned = engine.submit(by_color.clone()).unwrap();

        let mut session = engine.ingest_session();
        session.upsert_dimension("color", 0, vec![Value::int(1), Value::str("crimson")]);
        session.commit().unwrap();

        // Admitted while `pinned` is in flight: key 1 now has two versions in
        // the hash table, one per query, and both queries' bits ride on the
        // same fact tuples.
        let after = catalog.snapshots().current();
        let mut fresh_query = by_color.clone();
        fresh_query.name = "fresh".into();
        let expected_fresh = reference::evaluate(&catalog, &fresh_query, after).unwrap();
        let fresh = engine.submit(fresh_query).unwrap();
        assert!(
            pinned.try_result().is_none(),
            "the pinned query must still be in flight for its key to carry two versions"
        );

        assert_eq!(pinned.wait().unwrap(), expected_pinned, "pinned query");
        assert_eq!(fresh.wait().unwrap(), expected_fresh, "fresh query");
        assert_ne!(
            expected_pinned, expected_fresh,
            "the upsert must change the grouping"
        );
        engine.shutdown();
    }
}

#[test]
fn quarantined_groups_and_the_hybrid_tail_bypass_the_scan_side_probe() {
    for scan_workers in [1, 4] {
        let catalog = two_dimension_warehouse();
        let plan = FaultPlan::seeded(5).corrupt_row_group(1).build();
        let config = small_config(scan_workers).with_fault_plan(plan);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

        // The first 120 rows complete the replica's short last group, which
        // the commit seals; the other 180 lie past the replica and are served
        // from the row store by the tail path.
        let mut session = engine.ingest_session();
        for i in 0..300i64 {
            session.append_fact(vec![
                Value::int(i % 4 + 1),
                Value::int(i % 3 + 1),
                Value::int(1_000_000 + i),
            ]);
        }
        session.commit().unwrap();

        assert_all_match_oracle(&engine, &catalog, &probe_mix());
        let columnar = engine.stats().columnar.expect("columnar stats present");
        assert!(
            columnar.groups_quarantined >= 1,
            "group 1 was never quarantined"
        );
        engine.shutdown();
    }
}

/// One pass over everything a chunk can be. The table grows by many row
/// groups before the first queries and by more than another one while
/// queries are in flight, and each commit seals the groups it completed, so
/// a pass runs through encoded chunks of the groups built at start and of
/// groups sealed since (some of them sealed mid-pass), over the replica's
/// frontier, through the row-store tail behind it (some of whose rows were
/// not there when the pass started) and around the wrap; queries are
/// installed while the cursor is in the groups built at start and while it is
/// in rows appended after start. Every answer is bit-identical to the
/// reference and to an engine without a replica that is fed the same queries
/// over the same catalog.
#[test]
fn one_pass_crosses_the_frontier_with_queries_installed_on_both_sides() {
    for scan_workers in [1, 4] {
        let catalog = two_dimension_warehouse();
        // Slow every chunk a little so the script below happens mid-pass.
        let slowed = |config: CjoinConfig| {
            let plan = FaultPlan::seeded(9)
                .delay(FaultSite::ScanWorker, 2_000)
                .build();
            CjoinEngine::start(Arc::clone(&catalog), config.with_fault_plan(plan)).unwrap()
        };
        let with_replica = slowed(small_config(scan_workers));
        let without = slowed(small_config(scan_workers).with_columnar_scan(false));
        // Submits `queries` to the engine with the replica, calls `then`, and
        // submits them to the other engine (at the same snapshot: nothing is
        // committed in between).
        let submit = |queries: &[&StarQuery], then: &dyn Fn()| {
            let snapshot = catalog.snapshots().current();
            let handles: Vec<_> = queries
                .iter()
                .map(|q| with_replica.submit((*q).clone()).unwrap())
                .collect();
            then();
            let mirrored = queries.iter().zip(handles).map(|(q, handle)| {
                let expected = reference::evaluate(&catalog, q, snapshot).unwrap();
                (expected, handle, without.submit((*q).clone()).unwrap())
            });
            mirrored.collect::<Vec<_>>()
        };
        let append = |rows: std::ops::Range<i64>| {
            let mut session = with_replica.ingest_session();
            for i in rows {
                session.append_fact(vec![
                    Value::int(i % 4 + 1),
                    Value::int(i % 3 + 1),
                    Value::int(1_000_000 + i),
                ]);
            }
            session.commit().unwrap();
        };
        let mix = probe_mix();

        append(0..20_000);
        // The first query of an idle engine is installed at each segment's
        // start — inside the replica — so the rows it has seen say where the
        // cursors are.
        let mut submitted = submit(&[&mix[5], &mix[0], &mix[2]], &|| ());
        let cursor = Arc::clone(submitted[0].1.progress());
        // Every segment but the last lies inside the 5 000 rows of the start,
        // so beyond that count the last worker's cursor is in appended rows.
        while cursor.rows_seen() <= 5_000 && !cursor.is_completed() {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        submitted.extend(submit(&[&mix[1]], &|| {
            assert!(
                !cursor.is_completed(),
                "scan_workers={scan_workers}: the first pass must still be in the \
                 appended rows when the next query is installed"
            )
        }));
        // The pass grows under the queries in flight.
        append(20_000..22_000);
        submitted.extend(submit(&[&mix[3], &mix[4]], &|| ()));

        for (expected, with_replica, without) in submitted {
            let name = with_replica.name().to_string();
            assert_eq!(
                with_replica.wait().unwrap(),
                expected,
                "scan_workers={scan_workers}, with a replica: {name}"
            );
            assert_eq!(
                without.wait().unwrap(),
                expected,
                "scan_workers={scan_workers}, without one: {name}"
            );
        }
        let stats = with_replica.stats();
        let volume = stats.columnar.expect("columnar stats present");
        assert!(volume.rows_scanned > 0);
        assert!(without.stats().columnar.is_none());
        with_replica.shutdown();
        without.shutdown();
    }
}

// ---------------------------------------------------------------------------
// 6. Where a query ends
// ---------------------------------------------------------------------------

/// COUNT(*) and SUM(lo_revenue) of the 1995 orders, by a fact predicate only.
fn orders_of_1995(name: &str) -> StarQuery {
    StarQuery::builder(name)
        .fact_predicate(Predicate::between("lo_orderdate", 19_950_101, 19_951_231))
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .build()
}

/// Runs `query` alone on a fresh engine (so its pass is the only one the
/// counters see) and returns the answer, `tuples_scanned` and the number of
/// quarantined row groups.
fn run_alone(
    catalog: &Arc<Catalog>,
    config: CjoinConfig,
    query: &StarQuery,
) -> (QueryResult, u64, u64) {
    let engine = CjoinEngine::start(Arc::clone(catalog), config).unwrap();
    let result = engine.execute(query.clone()).unwrap();
    let stats = engine.stats();
    let quarantined = stats.columnar.map_or(0, |c| c.groups_quarantined);
    engine.shutdown();
    (result, stats.tuples_scanned, quarantined)
}

/// A date window over date-clustered data ends at its last row group that can
/// match: the answer is the oracle's, with fewer rows scanned than one pass.
/// Without the replica the same query runs its full pass, and with it a
/// query that can match in every group still runs exactly one. A quarantined
/// group right after the window has untrusted zone maps, so the pass runs on
/// through it, and the answer does not change.
#[test]
fn a_clustered_window_ends_at_its_last_group() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.004, 606).with_clustering());
    let catalog = data.catalog();
    let fact = catalog.fact_table().unwrap();
    let rows = fact.len() as u64;
    let window = StarQuery::builder("year_1995")
        .fact_predicate(Predicate::between("lo_orderdate", 19_950_101, 19_951_231))
        .join_dimension(
            "date",
            "lo_orderdate",
            "d_datekey",
            Predicate::between("d_year", 1995, 1995),
        )
        .group_by(ColumnRef::dim("date", "d_monthnuminyear"))
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .aggregate(AggregateSpec::count_star())
        .build();
    let everywhere = StarQuery::builder("from_1992")
        .fact_predicate(Predicate::Compare {
            column: "lo_orderdate".into(),
            op: CompareOp::Ge,
            value: Value::int(19_920_101),
        })
        .aggregate(AggregateSpec::count_star())
        .build();
    let expected = reference::evaluate(&catalog, &window, SnapshotId::INITIAL).unwrap();
    let expected_everywhere =
        reference::evaluate(&catalog, &everywhere, SnapshotId::INITIAL).unwrap();
    // The group right after the window's last 1995 row.
    let date_col = fact.schema().column_index("lo_orderdate").unwrap();
    let last_in_window = (0..rows)
        .rev()
        .find(|&i| fact.row(RowId(i)).unwrap().int(date_col) <= 19_951_231)
        .unwrap();
    let after_window = (last_in_window / DEFAULT_ROW_GROUP_ROWS as u64 + 1) as usize;
    assert!(
        (after_window as u64 + 1) * (DEFAULT_ROW_GROUP_ROWS as u64) < rows,
        "test setup must leave groups after the one after the window"
    );

    for scan_workers in [1, 4] {
        let case = format!("scan_workers={scan_workers}");
        let (result, scanned, _) = run_alone(&catalog, config(scan_workers), &window);
        assert_eq!(result, expected, "{case}");
        assert!(scanned < rows, "{case}: {scanned} of {rows} rows scanned");

        let row_store = config(scan_workers).with_columnar_scan(false);
        let (result, full_pass, _) = run_alone(&catalog, row_store, &window);
        assert_eq!(result, expected, "{case}, no replica");
        assert!(
            full_pass >= rows,
            "{case}, no replica: {full_pass} of {rows} rows"
        );

        let (result, one_pass, _) = run_alone(&catalog, config(scan_workers), &everywhere);
        assert_eq!(result, expected_everywhere, "{case}, every group");
        assert_eq!(
            one_pass, rows,
            "{case}: a query every group can match runs one pass"
        );

        let plan = FaultPlan::seeded(29)
            .corrupt_row_group(after_window)
            .build();
        let corrupt = config(scan_workers).with_fault_plan(plan);
        let (result, longer, quarantined) = run_alone(&catalog, corrupt, &window);
        assert_eq!(result, expected, "{case}, group {after_window} quarantined");
        assert!(
            quarantined >= 1,
            "{case}: group {after_window} was never quarantined"
        );
        assert!(
            longer > scanned && longer < rows,
            "{case}: the pass runs through the quarantined group and no further \
             ({longer} rows vs {scanned} without it, {rows} in all)"
        );
    }
}

/// A window admitted after an ingest commit sees the rows that commit
/// appended: they are part of its snapshot, so no early end may stop short of
/// them, whether they sit in a row group the commit sealed, in the row-store
/// tail behind a replica, or there is no replica at all.
#[test]
fn a_window_admitted_after_an_ingest_commit_sees_the_appended_rows() {
    for columnar in [false, true] {
        for scan_workers in [1, 4] {
            let case = format!("columnar_scan={columnar}, scan_workers={scan_workers}");
            // A fresh warehouse per cell: each one appends to its fact table.
            let data = SsbDataSet::generate(SsbConfig::for_tests(0.004, 304).with_clustering());
            let catalog = data.catalog();
            let fact = catalog.fact_table().unwrap();
            let date_col = fact.schema().column_index("lo_orderdate").unwrap();
            let (_, row_of_1995) = fact
                .select(SnapshotId::INITIAL, |row| {
                    (19_950_101..=19_951_231).contains(&row.int(date_col))
                })
                .into_iter()
                .next()
                .expect("an order of 1995");
            let config = config(scan_workers).with_columnar_scan(columnar);
            let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
            // A group's worth: with a replica, the rows that complete its
            // short last group are sealed into it and the rest stay in the
            // row-store tail.
            let mut session = engine.ingest_session();
            for _ in 0..DEFAULT_ROW_GROUP_ROWS {
                session.append_fact(row_of_1995.values().to_vec());
            }
            session.commit().unwrap();

            let query = orders_of_1995("after_ingest");
            let expected =
                reference::evaluate(&catalog, &query, catalog.snapshots().current()).unwrap();
            assert_eq!(engine.execute(query).unwrap(), expected, "{case}");
            engine.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// 7. Growth by sealed row groups
// ---------------------------------------------------------------------------

/// COUNT(*) and SUM(lo_revenue) of the orders shipped by `mode`, by a fact
/// predicate only.
fn shipped_by(name: &str, mode: &str) -> StarQuery {
    StarQuery::builder(name)
        .fact_predicate(Predicate::eq("lo_shipmode", mode))
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .build()
}

/// Each commit encodes exactly the row groups it completed, and no other:
/// every group below the old frontier is the previous replica's, by `Arc`,
/// and fewer than one group of rows is left to the row store. Rows shipped by
/// a mode the replica has never seen first sit in that tail, then are sealed
/// into a group under a query admitted before the seal — whose predicate
/// compiled to "no row" against the old dictionary and must be compiled again
/// when its scan workers adopt the grown one — and a query admitted after it.
/// Both answer as `reference::evaluate` does at their snapshots.
#[test]
fn sealed_groups_grow_the_replica_and_its_dictionaries() {
    const G: usize = DEFAULT_ROW_GROUP_ROWS;
    for scan_workers in [1, 4] {
        let case = format!("scan_workers={scan_workers}");
        let data = SsbDataSet::generate(SsbConfig::for_tests(0.002, 707));
        let catalog = data.catalog();
        let fact = catalog.fact_table().unwrap();
        let mode = fact.schema().column_index("lo_shipmode").unwrap();
        let template = fact.row(RowId(0)).unwrap();
        // Slow every chunk so the query admitted before the seal is still
        // mid-pass when its workers adopt the grown replica.
        let plan = FaultPlan::seeded(17)
            .delay(FaultSite::ScanWorker, 2_000)
            .build();
        let config = config(scan_workers).with_fault_plan(plan);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        let mut replica = engine.columnar_replica().unwrap();
        // Appends `rows` copies of the template, every other one shipped by
        // DRONE if `drone`, and checks what the commit sealed.
        let mut commit = |rows: usize, drone: bool, sealed: u64| {
            let before = engine.stats().ingest.groups_sealed;
            let mut session = engine.ingest_session();
            for i in 0..rows {
                let mut values = template.values().to_vec();
                if drone && i % 2 == 0 {
                    values[mode] = Value::str("DRONE");
                }
                session.append_fact(values);
            }
            session.commit().unwrap();
            let grown = engine.columnar_replica().unwrap();
            let sealed_now = engine.stats().ingest.groups_sealed - before;
            assert_eq!(sealed_now, sealed, "{case}: groups sealed by {rows} rows");
            let tail = fact.len() - grown.len();
            assert!(tail < G, "{case}: {tail} rows past the replica");
            for g in 0..replica.len() / G {
                let (old, new) = (&replica.row_groups()[g], &grown.row_groups()[g]);
                assert!(Arc::ptr_eq(old, new), "{case}: group {g} encoded again");
            }
            replica = grown;
        };

        // Completes the short last group (or, on a whole number of groups,
        // one more): the table is a whole number of groups after it.
        commit(G - fact.len() % G, false, 1);
        commit(2 * G, false, 2);
        // Half a group, half of it DRONE: left in the row-store tail.
        let no_drone = catalog.snapshots().current();
        commit(G / 2, true, 0);

        let before_seal = shipped_by("admitted_before_the_seal", "DRONE");
        let snapshot = catalog.snapshots().current();
        let expected_before = reference::evaluate(&catalog, &before_seal, snapshot).unwrap();
        assert_ne!(
            expected_before,
            reference::evaluate(&catalog, &before_seal, no_drone).unwrap(),
            "the tail holds DRONE orders"
        );
        let in_flight = engine.submit(before_seal).unwrap();
        // The other half of the group: the commit seals it, DRONE rows and all.
        commit(G / 2, true, 1);
        assert!(
            in_flight.try_result().is_none(),
            "{case}: the query admitted before the seal must still be in flight"
        );

        let after_seal = shipped_by("admitted_after_the_seal", "DRONE");
        let expected_after =
            reference::evaluate(&catalog, &after_seal, catalog.snapshots().current()).unwrap();
        assert_eq!(
            engine.execute(after_seal).unwrap(),
            expected_after,
            "{case}"
        );
        assert_eq!(in_flight.wait().unwrap(), expected_before, "{case}");
        let dictionary = engine.columnar_replica().unwrap();
        assert!(dictionary
            .dictionary(mode)
            .unwrap()
            .code_of("DRONE")
            .is_some());
        engine.shutdown();
    }
}
