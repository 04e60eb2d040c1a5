//! Fact-table partitioning (§5) without declared partitions: date-restricted
//! queries end early.
//!
//! The SSB `lineorder` table below is clustered by order date, as a
//! range-partitioned fact table is in practice, so the row groups of the
//! compressed replica (`CjoinConfig::columnar_scan`) cover disjoint date
//! ranges. With the replica, a query whose fact predicate restricts
//! `lo_orderdate` ends as soon as the continuous scan has covered the last row
//! group its range can match — the query no longer waits for a full
//! wrap-around of the scan. Without it, the same query runs its full pass.
//!
//! ```text
//! cargo run --release --example early_end
//! ```

use std::sync::Arc;

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::{AggFunc, AggregateSpec, ColumnRef, Predicate, QueryResult, StarQuery};
use cjoin_repro::ssb::{schema::join_columns, SsbConfig, SsbDataSet};
use cjoin_repro::storage::DEFAULT_ROW_GROUP_ROWS;

fn revenue_in_1994(name: &str) -> StarQuery {
    let (d_key, d_fk) = join_columns("date").unwrap();
    StarQuery::builder(name)
        // The fact predicate is what the zone maps test...
        .fact_predicate(Predicate::between("lo_orderdate", 19940101, 19941231))
        // ...while the date join provides the grouping attribute.
        .join_dimension(
            "date",
            d_fk,
            d_key,
            Predicate::between("d_year", 1994, 1994),
        )
        .group_by(ColumnRef::dim("date", "d_yearmonthnum"))
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .build()
}

fn run(
    with_replica: bool,
    catalog: &Arc<cjoin_repro::Catalog>,
) -> cjoin_repro::Result<(QueryResult, std::time::Duration, u64)> {
    let config = CjoinConfig::default().with_columnar_scan(with_replica);
    let engine = CjoinEngine::start(Arc::clone(catalog), config)?;
    let handle = engine.submit(revenue_in_1994(if with_replica {
        "revenue_1994_early_end"
    } else {
        "revenue_1994_full_scan"
    }))?;
    let (result, elapsed) = handle.wait_with_time()?;
    let scanned = engine.stats().tuples_scanned;
    engine.shutdown();
    println!(
        "  {} result groups, {} fact tuples scanned, {:?} response time",
        result.num_rows(),
        scanned,
        elapsed
    );
    Ok((result, elapsed, scanned))
}

fn main() -> cjoin_repro::Result<()> {
    let data = SsbDataSet::generate(SsbConfig::new(0.01, 13).with_clustering());
    let catalog = data.catalog();
    let rows = catalog.fact_table()?.len();
    println!(
        "lineorder: {rows} rows, clustered by order date, in {} row groups\n",
        rows.div_ceil(DEFAULT_ROW_GROUP_ROWS)
    );

    println!("query restricted to order year 1994, WITHOUT the replica:");
    let (full_result, full_time, full_scanned) = run(false, &catalog)?;

    println!("\nsame query WITH the replica's zone maps:");
    let (early_result, early_time, early_scanned) = run(true, &catalog)?;

    println!(
        "\nthe query ended after ~{:.0}% of the tuples the full wrap-around needed \
         ({} vs {} tuples; {:?} vs {:?})",
        100.0 * early_scanned as f64 / full_scanned.max(1) as f64,
        early_scanned,
        full_scanned,
        early_time,
        full_time,
    );
    assert_eq!(early_result, full_result, "ending early changed the answer");
    assert!(
        early_scanned < full_scanned,
        "the replica should end the query early ({early_scanned} vs {full_scanned} tuples)"
    );
    Ok(())
}
