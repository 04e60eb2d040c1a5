//! Quickstart: build a tiny star schema by hand, start the always-on CJOIN pipeline,
//! and run a few concurrent star queries against it. Each answer is checked
//! against the reference evaluator; a mismatch panics, so CI runs this example.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::{reference, AggFunc, AggregateSpec, ColumnRef, Predicate, StarQuery};
use cjoin_repro::storage::{Catalog, Column, Schema, SnapshotId, Table, Value};

fn main() -> cjoin_repro::Result<()> {
    // ------------------------------------------------------------------
    // 1. Build a miniature warehouse: sales fact table + two dimensions.
    // ------------------------------------------------------------------
    let catalog = Arc::new(Catalog::new());

    let region = Table::new(Schema::new(
        "region",
        vec![Column::int("r_key"), Column::str("r_name")],
    ));
    for (k, name) in [(1, "EUROPE"), (2, "ASIA"), (3, "AMERICA")] {
        region.insert(vec![Value::int(k), Value::str(name)], SnapshotId::INITIAL)?;
    }

    let product = Table::new(Schema::new(
        "product",
        vec![Column::int("p_key"), Column::str("p_category")],
    ));
    for (k, cat) in [
        (1, "widgets"),
        (2, "gadgets"),
        (3, "gizmos"),
        (4, "widgets"),
    ] {
        product.insert(vec![Value::int(k), Value::str(cat)], SnapshotId::INITIAL)?;
    }

    let sales = Table::new(Schema::new(
        "sales",
        vec![
            Column::int("s_regionkey"),
            Column::int("s_productkey"),
            Column::int("s_amount"),
        ],
    ));
    for i in 0..10_000i64 {
        sales.insert(
            vec![
                Value::int(i % 3 + 1),
                Value::int(i % 4 + 1),
                Value::int(10 + i % 90),
            ],
            SnapshotId::INITIAL,
        )?;
    }

    catalog.add_table(Arc::new(region));
    catalog.add_table(Arc::new(product));
    catalog.add_fact_table(Arc::new(sales));

    // ------------------------------------------------------------------
    // 2. Start the always-on CJOIN pipeline.
    // ------------------------------------------------------------------
    let engine = CjoinEngine::start(Arc::clone(&catalog), CjoinConfig::default())?;
    println!(
        "CJOIN pipeline started over {} fact rows\n",
        catalog.fact_table()?.len()
    );

    // ------------------------------------------------------------------
    // 3. Register several star queries; they all share one fact-table scan.
    // ------------------------------------------------------------------
    let revenue_by_region = StarQuery::builder("revenue_by_region")
        .join_dimension("region", "s_regionkey", "r_key", Predicate::True)
        .group_by(ColumnRef::dim("region", "r_name"))
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("s_amount"),
        ))
        .aggregate(AggregateSpec::count_star())
        .build();

    let widget_sales_in_europe = StarQuery::builder("widget_sales_in_europe")
        .join_dimension(
            "region",
            "s_regionkey",
            "r_key",
            Predicate::eq("r_name", "EUROPE"),
        )
        .join_dimension(
            "product",
            "s_productkey",
            "p_key",
            Predicate::eq("p_category", "widgets"),
        )
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("s_amount"),
        ))
        .aggregate(AggregateSpec::over(
            AggFunc::Avg,
            ColumnRef::fact("s_amount"),
        ))
        .build();

    let sales_by_category = StarQuery::builder("sales_by_category")
        .join_dimension("product", "s_productkey", "p_key", Predicate::True)
        .group_by(ColumnRef::dim("product", "p_category"))
        .aggregate(AggregateSpec::count_star())
        .build();

    // Submit all three at once: one shared plan evaluates them together.
    let queries = [revenue_by_region, widget_sales_in_europe, sales_by_category];
    let handles: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()))
        .collect::<cjoin_repro::Result<_>>()?;

    for (query, handle) in queries.iter().zip(handles) {
        let name = handle.name().to_string();
        let submission = handle.submission_time();
        let (result, response) = handle.wait_with_time()?;
        println!("=== {name} (admitted in {submission:?}, answered in {response:?}) ===");
        print!("{result}");
        println!();
        let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL)?;
        assert!(
            result.approx_eq(&expected),
            "{name} differs from the reference: {:?}",
            result.diff(&expected)
        );
    }

    // ------------------------------------------------------------------
    // 4. Inspect what the shared pipeline did.
    // ------------------------------------------------------------------
    let stats = engine.stats();
    println!("pipeline statistics:");
    println!("  fact tuples scanned:   {}", stats.tuples_scanned);
    println!("  scan passes completed: {}", stats.scan_passes);
    println!("  tuples to distributor: {}", stats.tuples_distributed);
    println!("  filter order:          {:?}", engine.filter_order());

    engine.shutdown();
    Ok(())
}
