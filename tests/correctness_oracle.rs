//! The central correctness oracle: for generated SSB workloads, every query answered
//! by the shared CJOIN pipeline must produce exactly the same result as (a) the
//! query-at-a-time baseline engine and (b) the single-threaded reference evaluator.
//!
//! This is the cross-engine equivalent of the paper's implicit claim that CJOIN is a
//! drop-in physical operator: sharing changes performance, never answers.
//!
//! Both engines are driven exclusively through the shared [`JoinEngine`] trait —
//! the oracle harness does not know which engine it is talking to, so any future
//! engine plugs into the same assertions.

use std::sync::Arc;

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::query::{reference, JoinEngine};
use cjoin_repro::ssb::{classic_queries, SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::{SnapshotId, StarQuery};

fn data(sf: f64, seed: u64) -> SsbDataSet {
    SsbDataSet::generate(SsbConfig::for_tests(sf, seed))
}

fn cjoin_config() -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(64)
        .with_batch_size(512)
}

/// Runs `queries` through all evaluation paths and asserts agreement. The engines
/// are consumed only as `&dyn JoinEngine`.
fn assert_all_engines_agree(data: &SsbDataSet, queries: &[StarQuery]) {
    let catalog = data.catalog();
    let baseline = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::default());
    let oracle: &dyn JoinEngine = &baseline;

    // Compute the reference and baseline answers first, then compare CJOIN
    // against them.
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            let reference = reference::evaluate(&catalog, q, SnapshotId::INITIAL).unwrap();
            let baseline_result = oracle.execute(q).unwrap();
            assert!(
                baseline_result.approx_eq(&reference),
                "{}: baseline vs reference: {:?}",
                q.name,
                baseline_result.diff(&reference)
            );
            reference
        })
        .collect();

    let cjoin = CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap();
    let shared: &dyn JoinEngine = &cjoin;

    // Submit everything to CJOIN first so the queries genuinely share the pipeline.
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| shared.submit(q.clone()).unwrap())
        .collect();

    for ((query, expected), ticket) in queries.iter().zip(&expected).zip(tickets) {
        let cjoin_result = ticket.wait().unwrap();
        assert!(
            cjoin_result.approx_eq(expected),
            "{}: cjoin vs reference: {:?}",
            query.name,
            cjoin_result.diff(expected)
        );
    }
    shared.shutdown();
}

#[test]
fn classic_ssb_queries_agree_across_engines() {
    let data = data(0.002, 101);
    assert_all_engines_agree(&data, &classic_queries());
}

#[test]
fn generated_workload_agrees_across_engines() {
    let data = data(0.002, 102);
    let workload = Workload::generate(&data, WorkloadConfig::new(24, 0.03, 55));
    assert_all_engines_agree(&data, workload.queries());
}

#[test]
fn high_selectivity_workload_agrees_across_engines() {
    // 20 % selectivity loads many more dimension tuples into the shared hash tables.
    let data = data(0.002, 103);
    let workload = Workload::generate(&data, WorkloadConfig::new(12, 0.20, 56));
    assert_all_engines_agree(&data, workload.queries());
}

#[test]
fn single_template_workload_agrees_across_engines() {
    let data = data(0.002, 104);
    let workload = Workload::generate(
        &data,
        WorkloadConfig::new(16, 0.05, 57).with_template("Q4.2"),
    );
    assert_all_engines_agree(&data, workload.queries());
}

#[test]
fn sequential_resubmission_reuses_ids_and_stays_correct() {
    // Run the same workload twice through one engine instance: query-id recycling,
    // dimension-table garbage collection and re-admission must not corrupt results.
    let data = data(0.001, 105);
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(8, 0.05, 58));
    let cjoin = CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap();
    let engine: &dyn JoinEngine = &cjoin;

    for round in 0..2 {
        for query in workload.queries() {
            let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
            let result = engine.execute(query).unwrap();
            assert!(
                result.approx_eq(&expected),
                "round {round}, {}: {:?}",
                query.name,
                result.diff(&expected)
            );
        }
    }
    assert_eq!(engine.stats().queries_completed, 16);
    engine.shutdown();
}

#[test]
fn queries_arriving_mid_scan_get_complete_answers() {
    // Stagger submissions so later queries latch onto a scan that is already moving;
    // each must still see exactly one full pass (§3.3.1).
    let data = data(0.002, 106);
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(10, 0.05, 59));
    let cjoin = CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap();
    let engine: &dyn JoinEngine = &cjoin;

    let mut tickets = Vec::new();
    for (i, query) in workload.queries().iter().enumerate() {
        tickets.push(engine.submit(query.clone()).unwrap());
        if i % 3 == 0 {
            // Give the scan time to advance so admissions land mid-pass.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    for (query, ticket) in workload.queries().iter().zip(tickets) {
        let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
        let result = ticket.wait().unwrap();
        assert!(
            result.approx_eq(&expected),
            "{}: {:?}",
            query.name,
            result.diff(&expected)
        );
    }
    engine.shutdown();
}
