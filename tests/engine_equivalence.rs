//! Parameterized `JoinEngine` equivalence: the same star-query workload is run
//! through every engine implementation exclusively via `&dyn JoinEngine`, and
//! each engine's `QueryResult`s must be identical to the reference evaluator's.
//!
//! This is the contract the shared trait exists to enforce: engines differ in
//! *how* they evaluate (shared always-on pipeline vs. per-query plans), never in
//! *what* they answer. Adding a new engine to the workspace means adding one
//! constructor to `engines_under_test` — the assertions don't change.
//!
//! The CJOIN points of the matrix: `scan_workers` {1,2,4} × `distributor_shards`
//! {1,4} × `columnar_scan` {off,on}, and an engine at the host-derived default
//! widths. A red cell names its configuration in the
//! engine's `name()`.

use std::sync::Arc;

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::galaxy::{GalaxyEngine, Side};
use cjoin_repro::query::{reference, JoinEngine, Predicate};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{Catalog, Column, Row, Schema, Table, Value};
use cjoin_repro::{AggFunc, AggregateSpec, ColumnRef, SnapshotId, StarQuery};

fn cjoin_config() -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(32)
        .with_batch_size(256)
}

/// Constructs every engine under test over the same catalog, boxed behind the
/// shared trait. CJOIN appears once per point of the `scan_workers` ×
/// `distributor_shards` × `columnar_scan` matrix: one and several scan workers
/// rotating their batches over one and several shards, each read from the row
/// store and from the compressed replica — the bit-identical-results contract
/// of the storage-layout knob.
fn engines_under_test(catalog: &Arc<Catalog>) -> Vec<Box<dyn JoinEngine>> {
    let mut engines: Vec<Box<dyn JoinEngine>> = vec![
        Box::new(BaselineEngine::new(
            Arc::clone(catalog),
            BaselineConfig::default(),
        )),
        Box::new(BaselineEngine::new(
            Arc::clone(catalog),
            BaselineConfig::postgres_like(),
        )),
    ];
    for columnar in [false, true] {
        for shards in [1usize, 4] {
            for scan_workers in [1usize, 2, 4] {
                engines.push(Box::new(
                    CjoinEngine::start(
                        Arc::clone(catalog),
                        cjoin_config()
                            .with_columnar_scan(columnar)
                            .with_distributor_shards(shards)
                            .with_scan_workers(scan_workers),
                    )
                    .unwrap(),
                ));
            }
        }
    }
    // Host-derived default widths: every parallelism knob left at its
    // default, so there are as many shards as `shard_width_for` the host.
    engines.push(Box::new(
        CjoinEngine::start(
            Arc::clone(catalog),
            CjoinConfig {
                max_concurrency: 32,
                batch_size: 256,
                ..CjoinConfig::default()
            },
        )
        .unwrap(),
    ));
    engines
}

#[test]
fn every_engine_matches_the_reference_on_the_same_workload() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 71));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(10, 0.05, 72));

    for engine in engines_under_test(&catalog) {
        let mut completed = 0u64;
        for query in workload.queries() {
            let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
            let result = engine.execute(query).unwrap();
            assert!(
                result.approx_eq(&expected),
                "[{}] {}: {:?}",
                engine.name(),
                query.name,
                result.diff(&expected)
            );
            completed += 1;
        }
        let stats = engine.stats();
        assert_eq!(
            stats.queries_completed,
            completed,
            "[{}] completion counter tracks the workload",
            engine.name()
        );
        assert!(
            stats.queries_submitted >= stats.queries_completed,
            "[{}]",
            engine.name()
        );
        assert!(stats.fact_tuples_scanned > 0, "[{}]", engine.name());
        engine.shutdown();
    }
}

#[test]
fn engines_agree_under_concurrent_submission_through_tickets() {
    // The submit/wait split of the trait: queue everything first, collect later.
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 73));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(8, 0.05, 74));

    for engine in engines_under_test(&catalog) {
        let tickets: Vec<_> = workload
            .queries()
            .iter()
            .map(|q| engine.submit(q.clone()).unwrap())
            .collect();
        for (query, ticket) in workload.queries().iter().zip(tickets) {
            let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
            let result = ticket.wait().unwrap();
            assert!(
                result.approx_eq(&expected),
                "[{}] {}: {:?}",
                engine.name(),
                query.name,
                result.diff(&expected)
            );
        }
        engine.shutdown();
    }
}

#[test]
fn submitting_after_shutdown_fails_cleanly_for_pipeline_engines() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.0005, 75));
    let catalog = data.catalog();
    let engine: Box<dyn JoinEngine> =
        Box::new(CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap());
    engine.shutdown();
    engine.shutdown(); // idempotent
    let late = StarQuery::builder("late")
        .aggregate(AggregateSpec::count_star())
        .build();
    assert!(engine.submit(late).is_err());
}

#[test]
fn galaxy_engine_routes_star_queries_through_the_trait() {
    // A two-fact-table catalog; the GalaxyEngine serves both stars and must route
    // a plain star query to the side whose fact table it binds against.
    let catalog = Catalog::new();
    let customer = Table::new(Schema::new(
        "customer",
        vec![Column::int("c_custkey"), Column::str("c_region")],
    ));
    for (k, region) in [(1, "ASIA"), (2, "EUROPE"), (3, "ASIA")] {
        customer
            .insert(vec![Value::int(k), Value::str(region)], SnapshotId::INITIAL)
            .unwrap();
    }
    catalog.add_table(Arc::new(customer));
    let orders = Table::new(Schema::new(
        "orders",
        vec![Column::int("o_custkey"), Column::int("o_amount")],
    ));
    orders.insert_batch_unchecked(
        (0..90).map(|i| Row::new(vec![Value::int(i % 3 + 1), Value::int(i)])),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(orders));
    let shipments = Table::new(Schema::new(
        "shipments",
        vec![Column::int("s_custkey"), Column::int("s_weight")],
    ));
    shipments.insert_batch_unchecked(
        (0..60).map(|i| Row::new(vec![Value::int(i % 3 + 1), Value::int(2 * i)])),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(shipments));
    let catalog = Arc::new(catalog);

    let galaxy =
        GalaxyEngine::start(Arc::clone(&catalog), "orders", "shipments", cjoin_config()).unwrap();
    let engine: &dyn JoinEngine = &galaxy;

    // One star per side; each must be answered by the pipeline serving its fact
    // table and agree with the reference over that side's catalog view.
    let orders_star = StarQuery::builder("asia_orders")
        .join_dimension(
            "customer",
            "o_custkey",
            "c_custkey",
            Predicate::eq("c_region", "ASIA"),
        )
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("o_amount"),
        ))
        .aggregate(AggregateSpec::count_star())
        .build();
    let shipments_star = StarQuery::builder("europe_weight")
        .join_dimension(
            "customer",
            "s_custkey",
            "c_custkey",
            Predicate::eq("c_region", "EUROPE"),
        )
        .aggregate(AggregateSpec::over(
            AggFunc::Max,
            ColumnRef::fact("s_weight"),
        ))
        .build();

    let expected_orders = reference::evaluate(
        galaxy.engine(Side::A).catalog(),
        &orders_star,
        SnapshotId::INITIAL,
    )
    .unwrap();
    let expected_shipments = reference::evaluate(
        galaxy.engine(Side::B).catalog(),
        &shipments_star,
        SnapshotId::INITIAL,
    )
    .unwrap();

    let got_orders = engine.execute(&orders_star).unwrap();
    let got_shipments = engine.execute(&shipments_star).unwrap();
    assert!(
        got_orders.approx_eq(&expected_orders),
        "{:?}",
        got_orders.diff(&expected_orders)
    );
    assert!(
        got_shipments.approx_eq(&expected_shipments),
        "{:?}",
        got_shipments.diff(&expected_shipments)
    );
    let stats = engine.stats();
    assert_eq!(stats.queries_completed, 2);
    engine.shutdown();
}
