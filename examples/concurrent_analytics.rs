//! The paper's motivating scenario: many analysts firing ad-hoc star queries at the
//! same warehouse at once ("workload fear", §1).
//!
//! Generates a laptop-scale Star Schema Benchmark instance, then runs the same
//! 64-query ad-hoc workload three ways — through the shared CJOIN pipeline, through
//! the independent-scan query-at-a-time baseline ("System X"), and through the
//! synchronized-scan baseline (PostgreSQL-like) — and compares throughput and
//! response-time behaviour. Every engine's answer to every query must have as
//! many groups as the reference evaluator's, or the example fails.
//!
//! ```text
//! cargo run --release --example concurrent_analytics
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::bench::{run_closed_loop, JoinEngine, RunReport};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::reference;
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::SnapshotId;

const CONCURRENCY: usize = 64;
const TOTAL_QUERIES: usize = 128;

fn main() -> cjoin_repro::Result<()> {
    // A ~60k-row lineorder instance (SSB scale factor 0.01).
    let data = SsbDataSet::generate(SsbConfig::new(0.01, 7));
    let catalog = data.catalog();
    println!(
        "SSB instance: {} lineorder rows, {} customers, {} suppliers, {} parts\n",
        catalog.fact_table()?.len(),
        data.num_customers(),
        data.num_suppliers(),
        data.num_parts()
    );

    // An ad-hoc workload: 128 queries drawn from the SSB templates, each selecting
    // ~1% of the dimensions it touches.
    let workload = Workload::generate(&data, WorkloadConfig::new(TOTAL_QUERIES, 0.01, 99));
    let expected_rows: HashMap<&str, usize> = workload
        .queries()
        .iter()
        .map(|q| {
            let rows = reference::evaluate(&catalog, q, SnapshotId::INITIAL)?.num_rows();
            Ok((q.name.as_str(), rows))
        })
        .collect::<cjoin_repro::Result<_>>()?;
    let check = |engine: &str, report: &RunReport| {
        assert_eq!(report.timings.len(), TOTAL_QUERIES, "{engine}");
        for timing in &report.timings {
            assert_eq!(
                timing.result_rows,
                expected_rows[timing.name.as_str()],
                "{engine}: {} has the wrong number of groups",
                timing.name
            );
        }
    };

    // --- CJOIN: one always-on shared plan -----------------------------------
    let cjoin = CjoinEngine::start(Arc::clone(&catalog), CjoinConfig::default())?;
    let cjoin_report = run_closed_loop(&cjoin, workload.queries(), CONCURRENCY)?;
    let stats = cjoin.stats();
    cjoin.shutdown();

    // --- Query-at-a-time baselines -------------------------------------------
    let system_x = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
    let system_x_report = run_closed_loop(&system_x, workload.queries(), CONCURRENCY)?;

    let postgres = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::postgres_like());
    let postgres_report = run_closed_loop(&postgres, workload.queries(), CONCURRENCY)?;

    // --- Report ---------------------------------------------------------------
    println!(
        "{:<28} {:>14} {:>16} {:>16}",
        "engine", "throughput", "mean response", "wall time"
    );
    for (name, report) in [
        (JoinEngine::name(&cjoin), &cjoin_report),
        (JoinEngine::name(&system_x), &system_x_report),
        (JoinEngine::name(&postgres), &postgres_report),
    ] {
        check(name, report);
        println!(
            "{:<28} {:>10.0} q/h {:>13.1} ms {:>13.1} ms",
            name,
            report.throughput_qph(),
            report.mean_response().as_secs_f64() * 1e3,
            report.wall_time.as_secs_f64() * 1e3,
        );
    }

    println!("\nwhat sharing bought (CJOIN internals):");
    println!("  scan passes over the fact table: {}", stats.scan_passes);
    println!(
        "  vs. {} full scans the query-at-a-time engines performed ({} queries each scanning once)",
        TOTAL_QUERIES * 2,
        TOTAL_QUERIES
    );
    println!(
        "  fact tuples scanned once, filtered for all queries: {}",
        stats.tuples_scanned
    );
    println!(
        "  (tuple, query) routings at the distributor:          {}",
        stats.routings
    );
    println!(
        "  filter order chosen at run time:                     {:?}",
        stats
            .filters
            .iter()
            .map(|f| format!("{} ({:.0}% drop)", f.dimension, f.drop_rate() * 100.0))
            .collect::<Vec<_>>()
    );
    Ok(())
}
