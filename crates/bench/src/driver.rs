//! Closed-loop multi-client workload driver.
//!
//! The paper's methodology (§6.1.3): a single client submits the first `n` queries of
//! the workload as a batch and then submits the next query whenever an outstanding
//! query finishes, so exactly `n` queries execute concurrently at all times. We model
//! that with `n` client threads pulling queries from a shared cursor — the effect is
//! identical (always `n` in flight) and it works unchanged for every engine: each
//! CJOIN client registers its query with the shared pipeline and blocks on the
//! result, each baseline client runs its own private plan.
//!
//! The driver is written against [`JoinEngine`], so any engine — current or future —
//! plugs into the same harness without driver changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cjoin_common::Result;
use cjoin_query::{JoinEngine, StarQuery};

/// Timing of one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTiming {
    /// Query name (`<template>#<index>` for generated workloads).
    pub name: String,
    /// Response time: submission to completed result.
    pub response_time: Duration,
    /// Number of result rows (groups), as a cheap sanity signal.
    pub result_rows: usize,
}

/// The outcome of one closed-loop workload run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-query timings, in completion order.
    pub timings: Vec<QueryTiming>,
    /// Wall-clock time from the first submission to the last completion.
    pub wall_time: Duration,
    /// The concurrency level the run was driven at.
    pub concurrency: usize,
}

impl RunReport {
    /// Queries completed per hour of wall-clock time.
    pub fn throughput_qph(&self) -> f64 {
        if self.wall_time.is_zero() {
            return 0.0;
        }
        self.timings.len() as f64 * 3600.0 / self.wall_time.as_secs_f64()
    }

    /// Mean response time across all queries.
    pub fn mean_response(&self) -> Duration {
        if self.timings.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.timings.iter().map(|t| t.response_time).sum();
        total / self.timings.len() as u32
    }

    /// Mean response time of queries whose name starts with `prefix` (e.g. `"Q4.2"`).
    pub fn mean_response_of(&self, prefix: &str) -> Option<Duration> {
        let matching: Vec<_> = self
            .timings
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .collect();
        if matching.is_empty() {
            return None;
        }
        let total: Duration = matching.iter().map(|t| t.response_time).sum();
        Some(total / matching.len() as u32)
    }

    /// Relative standard deviation (std-dev / mean) of the response times of queries
    /// whose name starts with `prefix`.
    pub fn response_rel_stddev_of(&self, prefix: &str) -> Option<f64> {
        let samples: Vec<f64> = self
            .timings
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.response_time.as_secs_f64())
            .collect();
        if samples.len() < 2 {
            return None;
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        if mean == 0.0 {
            return Some(0.0);
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Some(var.sqrt() / mean)
    }
}

/// Runs `queries` at a fixed concurrency level against `engine` and reports
/// per-query and aggregate timings.
///
/// # Errors
/// Returns the first query-execution error encountered (remaining clients finish
/// their current query and stop).
pub fn run_closed_loop(
    engine: &dyn JoinEngine,
    queries: &[StarQuery],
    concurrency: usize,
) -> Result<RunReport> {
    let concurrency = concurrency.clamp(1, queries.len().max(1));
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();

    let results: Vec<Result<Vec<QueryTiming>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || -> Result<Vec<QueryTiming>> {
                    let mut timings = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(query) = queries.get(index) else {
                            return Ok(timings);
                        };
                        let submit = Instant::now();
                        let result = engine.execute(query)?;
                        timings.push(QueryTiming {
                            name: query.name.clone(),
                            response_time: submit.elapsed(),
                            result_rows: result.num_rows(),
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let wall_time = started.elapsed();
    let mut timings = Vec::with_capacity(queries.len());
    for r in results {
        timings.extend(r?);
    }
    Ok(RunReport {
        timings,
        wall_time,
        concurrency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_baseline::{BaselineConfig, BaselineEngine};
    use cjoin_core::{CjoinConfig, CjoinEngine};
    use cjoin_ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
    use std::sync::Arc;

    fn tiny_data() -> SsbDataSet {
        SsbDataSet::generate(SsbConfig::for_tests(0.0005, 21))
    }

    #[test]
    fn closed_loop_runs_every_query_once() {
        let data = tiny_data();
        let workload = Workload::generate(&data, WorkloadConfig::new(8, 0.05, 3));
        let engine = BaselineEngine::new(data.catalog(), BaselineConfig::default());
        let report = run_closed_loop(&engine, workload.queries(), 4).unwrap();
        assert_eq!(report.timings.len(), 8);
        assert_eq!(report.concurrency, 4);
        assert!(report.wall_time > Duration::ZERO);
        assert!(report.throughput_qph() > 0.0);
        assert!(report.mean_response() > Duration::ZERO);
    }

    #[test]
    fn concurrency_is_clamped_to_workload_size() {
        let data = tiny_data();
        let workload = Workload::generate(&data, WorkloadConfig::new(2, 0.05, 3));
        let engine = BaselineEngine::new(data.catalog(), BaselineConfig::default());
        let report = run_closed_loop(&engine, workload.queries(), 64).unwrap();
        assert_eq!(report.concurrency, 2);
        assert_eq!(report.timings.len(), 2);
    }

    #[test]
    fn cjoin_and_baseline_engines_agree_on_results() {
        let data = tiny_data();
        let catalog = data.catalog();
        let workload = Workload::generate(&data, WorkloadConfig::new(6, 0.05, 9));
        let baseline = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::default());
        let cjoin = CjoinEngine::start(
            Arc::clone(&catalog),
            CjoinConfig::default().with_max_concurrency(16),
        )
        .unwrap();
        // Drive both engines through the shared trait, the way the harness does.
        let engines: [&dyn JoinEngine; 2] = [&baseline, &cjoin];
        for query in workload.queries() {
            let expected = engines[0].execute(query).unwrap();
            let got = engines[1].execute(query).unwrap();
            assert!(
                got.approx_eq(&expected),
                "{}: {:?}",
                query.name,
                got.diff(&expected)
            );
        }
        assert_eq!(engines[1].name(), "CJOIN");
        assert!(engines[0].name().contains("System X"));
        let cjoin_stats = engines[1].stats();
        assert_eq!(cjoin_stats.queries_completed, 6);
        let baseline_stats = engines[0].stats();
        assert_eq!(baseline_stats.queries_submitted, 6);
        assert_eq!(baseline_stats.queries_completed, 6);
        cjoin.shutdown();
    }

    #[test]
    fn per_template_statistics() {
        let report = RunReport {
            timings: vec![
                QueryTiming {
                    name: "Q4.2#0".into(),
                    response_time: Duration::from_millis(10),
                    result_rows: 1,
                },
                QueryTiming {
                    name: "Q4.2#1".into(),
                    response_time: Duration::from_millis(30),
                    result_rows: 1,
                },
                QueryTiming {
                    name: "Q3.1#2".into(),
                    response_time: Duration::from_millis(50),
                    result_rows: 1,
                },
            ],
            wall_time: Duration::from_millis(60),
            concurrency: 2,
        };
        assert_eq!(
            report.mean_response_of("Q4.2").unwrap(),
            Duration::from_millis(20)
        );
        assert_eq!(report.mean_response_of("Q1"), None);
        let rel = report.response_rel_stddev_of("Q4.2").unwrap();
        assert!(rel > 0.0 && rel < 1.0);
        assert_eq!(
            report.response_rel_stddev_of("Q3.1"),
            None,
            "one sample has no spread"
        );
        assert!((report.throughput_qph() - 3.0 * 3600.0 / 0.06).abs() < 1.0);
    }
}
