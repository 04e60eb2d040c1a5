//! Galaxy schema (§5 "Galaxy Schemata"): two fact tables — `orders` and `shipments` —
//! share conformed dimensions and are joined on the customer key. The query is
//! decomposed into two star sub-queries, each registered with the CJOIN operator of
//! its fact table, and the star results are piped into a fact-to-fact join operator.
//!
//! ```text
//! cargo run --release --example galaxy_schema
//! ```

use std::sync::Arc;

use cjoin_repro::cjoin::CjoinConfig;
use cjoin_repro::galaxy::{self, GalaxyAggregateSpec, GalaxyEngine, GalaxyQuery, Side, SideSpec};
use cjoin_repro::query::{AggFunc, AggregateSpec, ColumnRef, Predicate, StarQuery};
use cjoin_repro::storage::{Catalog, Column, Row, Schema, SnapshotId, Table, Value};

fn main() -> cjoin_repro::Result<()> {
    // ------------------------------------------------------------------
    // 1. Build a small galaxy: two fact tables sharing a customer dimension.
    // ------------------------------------------------------------------
    let catalog = Arc::new(Catalog::new());

    let customer = Table::new(Schema::new(
        "customer",
        vec![
            Column::int("c_custkey"),
            Column::str("c_region"),
            Column::str("c_segment"),
        ],
    ));
    for k in 0..200i64 {
        let region = ["ASIA", "EUROPE", "AMERICA"][(k % 3) as usize];
        let segment = ["consumer", "corporate"][(k % 2) as usize];
        customer.insert(
            vec![Value::int(k), Value::str(region), Value::str(segment)],
            SnapshotId::INITIAL,
        )?;
    }
    catalog.add_table(Arc::new(customer));

    // Fact table 1: orders placed by customers.
    let orders = Table::new(Schema::new(
        "orders",
        vec![
            Column::int("o_custkey"),
            Column::int("o_orderdate"),
            Column::int("o_amount"),
        ],
    ));
    orders.insert_batch_unchecked(
        (0..50_000i64).map(|i| {
            Row::new(vec![
                Value::int(i % 200),
                Value::int(19940101 + i % 365),
                Value::int(20 + i % 500),
            ])
        }),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(orders));

    // Fact table 2: shipments delivered to customers.
    let shipments = Table::new(Schema::new(
        "shipments",
        vec![
            Column::int("sh_custkey"),
            Column::int("sh_weight"),
            Column::int("sh_delay_days"),
        ],
    ));
    shipments.insert_batch_unchecked(
        (0..30_000i64).map(|i| {
            Row::new(vec![
                Value::int(i % 150),
                Value::int(1 + i % 40),
                Value::int(i % 9),
            ])
        }),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(shipments));

    // ------------------------------------------------------------------
    // 2. Start one always-on CJOIN pipeline per fact table.
    // ------------------------------------------------------------------
    let engine = GalaxyEngine::start(
        Arc::clone(&catalog),
        "orders",
        "shipments",
        CjoinConfig::default(),
    )?;
    println!(
        "galaxy engine started: {} orders rows, {} shipments rows\n",
        catalog.table("orders")?.len(),
        catalog.table("shipments")?.len()
    );

    // ------------------------------------------------------------------
    // 3. A fact-to-fact join query: order volume vs. shipment delays per region,
    //    restricted to Asian consumer customers on the order side.
    // ------------------------------------------------------------------
    let galaxy_query = GalaxyQuery::builder("orders_vs_shipments_by_region")
        .side_a(
            SideSpec::new("orders", "o_custkey")
                .fact_predicate(Predicate::between("o_orderdate", 19940101, 19940199))
                .join_dimension(
                    "customer",
                    "o_custkey",
                    "c_custkey",
                    Predicate::eq("c_segment", "consumer"),
                ),
        )
        .side_b(SideSpec::new("shipments", "sh_custkey"))
        .group_by(Side::A, ColumnRef::dim("customer", "c_region"))
        .aggregate(GalaxyAggregateSpec::count_star())
        .aggregate(GalaxyAggregateSpec::over(
            AggFunc::Sum,
            Side::A,
            ColumnRef::fact("o_amount"),
        ))
        .aggregate(GalaxyAggregateSpec::over(
            AggFunc::Avg,
            Side::B,
            ColumnRef::fact("sh_delay_days"),
        ))
        .aggregate(GalaxyAggregateSpec::over(
            AggFunc::Max,
            Side::B,
            ColumnRef::fact("sh_weight"),
        ))
        .build();

    // A plain star query over the orders fact table, submitted alongside: it shares
    // side A's pipeline with the galaxy sub-query.
    let star_query = StarQuery::builder("order_volume_by_segment")
        .join_dimension("customer", "o_custkey", "c_custkey", Predicate::True)
        .group_by(ColumnRef::dim("customer", "c_segment"))
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("o_amount"),
        ))
        .aggregate(AggregateSpec::count_star())
        .build();

    let galaxy_handle = engine.submit(galaxy_query.clone())?;
    let star_handle = engine.engine(Side::A).submit(star_query)?;

    // ------------------------------------------------------------------
    // 4. Collect the results and cross-check the galaxy result with the oracle.
    // ------------------------------------------------------------------
    let expected = galaxy::reference::evaluate(&catalog, &galaxy_query, SnapshotId::INITIAL)?;
    let galaxy_result = galaxy_handle.wait()?;
    println!("=== orders_vs_shipments_by_region ===");
    print!("{galaxy_result}");
    println!(
        "matches the nested-join reference oracle: {}\n",
        galaxy_result.approx_eq(&expected)
    );

    let star_result = star_handle.wait()?;
    println!("=== order_volume_by_segment (plain star query on side A) ===");
    print!("{star_result}");
    println!();

    // ------------------------------------------------------------------
    // 5. Show what each side's shared pipeline did.
    // ------------------------------------------------------------------
    for side in [Side::A, Side::B] {
        let stats = engine.engine(side).stats();
        println!(
            "side {} ({}): scanned {} tuples, admitted {} queries, completed {}",
            side.label(),
            engine.fact_table(side),
            stats.tuples_scanned,
            stats.queries_admitted,
            stats.queries_completed
        );
    }

    engine.shutdown();
    Ok(())
}
