//! Durable near-real-time ingestion under snapshot isolation (§2.1, §3.5).
//!
//! The full semi-stream scenario: a durable fact feed appends `lineorder`
//! batches through the write-ahead log while a dimension update stream mutates
//! `customer` rows — and a long-running report pinned to its admission
//! snapshot keeps returning consistent answers through all of it. Every batch
//! is logged, group-committed and only then made visible atomically. The
//! engine runs the compressed columnar scan, so the feed's 3 000 rows are
//! sealed into the read-optimised replica a row group at a time as their
//! commits complete groups. The example finishes by "crashing" (dropping the
//! engine), recovering a fresh warehouse from the WAL and showing the
//! recovered answer is identical. Every answer is checked against the
//! reference evaluator at its snapshot; a mismatch panics, so CI runs this
//! example.
//!
//! ```text
//! cargo run --release --example realtime_updates
//! ```

use std::sync::Arc;

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::{reference, AggFunc, AggregateSpec, ColumnRef, Predicate, StarQuery};
use cjoin_repro::ssb::{schema::join_columns, SsbConfig, SsbDataSet};
use cjoin_repro::storage::Value;

fn asia_revenue(name: &str, snapshot: Option<cjoin_repro::SnapshotId>) -> StarQuery {
    let (c_key, c_fk) = join_columns("customer").unwrap();
    let mut builder = StarQuery::builder(name)
        .join_dimension("customer", c_fk, c_key, Predicate::eq("c_region", "ASIA"))
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("lo_revenue"),
        ));
    if let Some(snapshot) = snapshot {
        builder = builder.snapshot(snapshot);
    }
    builder.build()
}

fn main() -> cjoin_repro::Result<()> {
    let ssb_config = SsbConfig::new(0.005, 5);
    let data = SsbDataSet::generate(ssb_config.clone());
    let catalog = data.catalog();

    let mut wal = std::env::temp_dir();
    wal.push(format!("cjoin-realtime-updates-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let config = CjoinConfig::default()
        .with_columnar_scan(true)
        .with_wal(&wal);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config.clone())?;

    // A long-running report pinned to the pre-ingest snapshot.
    let initial_snapshot = catalog.snapshots().current();
    let pinned = engine.submit(asia_revenue("report_before_feed", Some(initial_snapshot)))?;

    // Pick the feed's protagonists from the data: an ASIA customer whose new
    // orders the fresh report must count, and a non-ASIA customer about to be
    // moved into the region by the dimension stream.
    let customer = catalog.table("customer")?;
    let region = customer.schema().column_index("c_region")?;
    let asia_key = customer
        .select(initial_snapshot, |row| {
            row.get(region).as_str() == Ok("ASIA")
        })
        .first()
        .expect("an ASIA customer")
        .1
        .int(0);
    let (_, moved_row) = customer
        .select(initial_snapshot, |row| {
            row.get(region).as_str() != Ok("ASIA")
        })
        .swap_remove(0);
    let mut moved = moved_row.values().to_vec();
    let moved_key = moved[0].as_int()?;

    // The durable fact feed: three batches of new lineorder rows for the ASIA
    // customer, each logged to the WAL and group-committed. The receipt
    // arrives only once the batch is durable *and* atomically visible.
    let fact = catalog.fact_table()?;
    let template: Vec<Value> = fact
        .row(cjoin_repro::storage::RowId(0))
        .expect("row 0")
        .values()
        .to_vec();
    let custkey = fact.schema().column_index("lo_custkey")?;
    let revenue = fact.schema().column_index("lo_revenue")?;
    for batch in 0..3i64 {
        let mut session = engine.ingest_session();
        for i in 0..1_000i64 {
            let mut values = template.clone();
            values[custkey] = Value::int(asia_key);
            values[revenue] = Value::int(1_000 + batch * 1_000 + i);
            session.append_fact(values);
        }
        let receipt = session.commit()?;
        println!(
            "fact feed: committed batch {batch} as epoch {} ({} records, wal at {} bytes)",
            receipt.epoch, receipt.records, receipt.wal_bytes
        );
    }

    // The dimension update stream: a customer moves to ASIA. The upsert
    // versions the dimension row — the pinned report keeps joining the old
    // version, fresh queries join the new one (and start counting that
    // customer's existing orders).
    moved[region] = Value::str("ASIA");
    let mut session = engine.ingest_session();
    session.upsert_dimension("customer", 0, moved);
    let receipt = session.commit()?;
    println!(
        "dimension stream: customer {moved_key} -> ASIA committed as epoch {}\n",
        receipt.epoch
    );

    // A fresh ad-hoc query sees the feed and the moved customer; the pinned
    // report sees neither.
    let feed_snapshot = catalog.snapshots().current();
    let fresh = engine.submit(asia_revenue("report_after_feed", None))?;
    let pinned_result = pinned.wait()?;
    let fresh_result = fresh.wait()?;
    println!("pinned to snapshot {initial_snapshot:?} (before the feed):");
    print!("{pinned_result}");
    println!("\nreading snapshot {feed_snapshot:?} (after the feed):");
    print!("{fresh_result}");
    let expected =
        |name, snapshot| reference::evaluate(&catalog, &asia_revenue(name, None), snapshot);
    assert_eq!(
        pinned_result,
        expected("report_before_feed", initial_snapshot)?
    );
    assert_eq!(fresh_result, expected("report_after_feed", feed_snapshot)?);
    assert_ne!(pinned_result, fresh_result, "the feed changes the answer");

    let stats = engine.stats();
    println!("\ningest stats (durable path):");
    println!("  records appended: {}", stats.ingest.records_appended);
    println!("  batch commits:    {}", stats.ingest.commits);
    println!("  fsync time:       {} ns", stats.ingest.sync_ns);
    println!("  groups sealed:    {}", stats.ingest.groups_sealed);
    let replica = engine.columnar_replica().expect("the columnar scan is on");
    println!(
        "  replica:          {} of {} fact rows, {} row-store tail rows",
        replica.len(),
        fact.len(),
        fact.len() - replica.len()
    );
    assert!(
        stats.ingest.groups_sealed >= 2,
        "the feed crosses group edges"
    );
    engine.shutdown();
    drop(engine);

    // Crash-recovery: a fresh warehouse (same generator seed, none of the
    // ingested rows) replays the WAL at startup and answers identically.
    let recovered_data = SsbDataSet::generate(ssb_config);
    let recovered_catalog = recovered_data.catalog();
    let recovered_engine = CjoinEngine::start(Arc::clone(&recovered_catalog), config)?;
    let recovered_stats = recovered_engine.stats();
    println!("\nrecovered a fresh warehouse from the WAL:");
    println!(
        "  replay truncations: {}",
        recovered_stats.ingest.recovery_truncations
    );
    let recovered = recovered_engine
        .submit(asia_revenue("report_recovered", None))?
        .wait()?;
    print!("{recovered}");
    let recovered_snapshot = recovered_catalog.snapshots().current();
    assert_eq!(
        recovered,
        reference::evaluate(
            &recovered_catalog,
            &asia_revenue("report_recovered", None),
            recovered_snapshot
        )?
    );
    assert_eq!(recovered, fresh_result, "recovery changes no answer");
    println!("  recovered answer matches pre-crash and the reference evaluator");

    recovered_engine.shutdown();
    let _ = std::fs::remove_file(&wal);
    Ok(())
}
