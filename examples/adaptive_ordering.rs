//! Run-time filter ordering (§3.4) in action.
//!
//! The optimal order of CJOIN's Filters depends on the *current* query mix: the most
//! selective dimension should filter fact tuples first. This example registers a
//! skewed query mix — every query places a highly selective predicate on `part` but
//! barely filters `date` — and shows the engine reordering the filter chain from the
//! observed drop rates while queries are running (its supervisor thread re-derives
//! the order every 50 ms).
//!
//! ```text
//! cargo run --release --example adaptive_ordering
//! ```

use std::sync::Arc;
use std::time::Duration;

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::{AggFunc, AggregateSpec, ColumnRef, Predicate, StarQuery};
use cjoin_repro::ssb::{schema::join_columns, SsbConfig, SsbDataSet};

fn skewed_query(index: usize, num_parts: usize, date_keys: &[i64]) -> StarQuery {
    // Highly selective on part (one key), barely selective on date (80 % of days),
    // and unfiltered on supplier.
    let part_key = (index % num_parts + 1) as i64;
    let date_hi = date_keys[(date_keys.len() * 4 / 5).min(date_keys.len() - 1)];
    let (d_key, d_fk) = join_columns("date").unwrap();
    let (p_key, p_fk) = join_columns("part").unwrap();
    let (s_key, s_fk) = join_columns("supplier").unwrap();
    StarQuery::builder(format!("skewed#{index}"))
        .join_dimension(
            "date",
            d_fk,
            d_key,
            Predicate::between("d_datekey", date_keys[0], date_hi),
        )
        .join_dimension("part", p_fk, p_key, Predicate::eq("p_partkey", part_key))
        .join_dimension("supplier", s_fk, s_key, Predicate::True)
        .group_by(ColumnRef::dim("date", "d_year"))
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ))
        .build()
}

fn main() -> cjoin_repro::Result<()> {
    let data = SsbDataSet::generate(SsbConfig::new(0.05, 17));
    let catalog = data.catalog();

    let engine = CjoinEngine::start(Arc::clone(&catalog), CjoinConfig::default())?;

    // Register waves of skewed queries and watch the order while they are in
    // flight, capturing the per-filter statistics mid-run, before completed queries
    // are garbage-collected. The optimizer decides only once every Filter has seen a
    // few hundred tuples, and the last one sees only what `part` lets through, so a
    // wave can end before the first decision: then the next wave runs.
    let mut admission_order = None;
    let mut optimised_order = Vec::new();
    let mut mid_run_stats = engine.stats();
    for _ in 0..5 {
        let wave: Vec<_> = (0..16)
            .map(|i| engine.submit(skewed_query(i, data.num_parts(), data.date_keys())))
            .collect::<cjoin_repro::Result<_>>()?;
        admission_order.get_or_insert_with(|| engine.filter_order());
        while engine.active_queries() > 0 {
            std::thread::sleep(Duration::from_millis(10));
            let stats = engine.stats();
            if !stats.filters.is_empty() {
                mid_run_stats = stats;
                optimised_order = engine.filter_order();
            }
        }
        for handle in wave {
            let _ = handle.wait()?;
        }
        if optimised_order.first().map(String::as_str) == Some("part") {
            break;
        }
    }
    let admission_order = admission_order.unwrap_or_default();
    println!("filter order right after admission: {admission_order:?}");
    println!("filter order after run-time optimisation: {optimised_order:?}");

    println!("\nper-filter statistics observed mid-run:");
    for f in &mid_run_stats.filters {
        println!(
            "  {:<10} entries={:<6} probes={:<8} drop rate={:.1}%",
            f.dimension,
            f.entries,
            f.probes,
            f.drop_rate() * 100.0
        );
    }
    println!(
        "\nfilter reorders applied at run time: {}",
        engine.stats().filter_reorders
    );
    println!("(the most selective dimension — part, one key per query — should now sit first)");

    engine.shutdown();
    Ok(())
}
