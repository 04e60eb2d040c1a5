//! Reproductions of the paper's evaluation (§6), one function per table / figure.
//!
//! Every function takes an explicit parameter struct (so the Criterion benches can
//! run scaled-down versions and the `experiments` binary can run paper-shaped
//! sweeps) and returns a [`Table`] holding the same rows/series the paper reports.
//! Absolute numbers differ from the paper — the substrate is an in-memory row store
//! on laptop-scale data — but the *shapes* (who wins, how each system scales with
//! concurrency / selectivity / data volume) are the reproduction target; see
//! the README for how to run the sweeps.

use std::sync::Arc;
use std::time::Duration;

use cjoin_baseline::{BaselineConfig, BaselineEngine};
use cjoin_common::Result;
use cjoin_core::{CjoinConfig, CjoinEngine};
use cjoin_query::StarQuery;
use cjoin_ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_storage::{Catalog, IoModel};

use crate::driver::run_closed_loop;
use crate::report::{fmt_f64, fmt_ms, Table};

/// Shared experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentParams {
    /// SSB scale factor used to generate the data set.
    pub scale_factor: f64,
    /// Predicate selectivity `s` of generated workload queries.
    pub selectivity: f64,
    /// Distributor shards given to the CJOIN pipeline: the threads that run
    /// the Filter chain and the aggregation.
    pub distributor_shards: usize,
    /// Number of queries executed per measured point, as a multiple of the
    /// concurrency level (the paper runs 2× the concurrency to reach steady state).
    pub queries_per_level_factor: usize,
    /// RNG seed for data and workload generation.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        Self {
            scale_factor: 0.01,
            selectivity: 0.01,
            distributor_shards: 4,
            queries_per_level_factor: 2,
            seed: 0xC70,
        }
    }
}

impl ExperimentParams {
    /// Small parameters for unit tests and Criterion benches.
    pub fn quick() -> Self {
        Self {
            scale_factor: 0.002,
            selectivity: 0.02,
            distributor_shards: 2,
            queries_per_level_factor: 1,
            seed: 0xC70,
        }
    }

    /// Generates the SSB data set for these parameters.
    pub fn data(&self) -> SsbDataSet {
        SsbDataSet::generate(SsbConfig::new(self.scale_factor, self.seed))
    }

    fn workload(&self, data: &SsbDataSet, num_queries: usize) -> Workload {
        Workload::generate(
            data,
            WorkloadConfig::new(num_queries, self.selectivity, self.seed ^ 0x9E37),
        )
    }

    fn cjoin_config(&self, concurrency: usize) -> CjoinConfig {
        // The id allocator keeps headroom above the driver's concurrency level.
        // A query's id is freed before its result is delivered, so `concurrency`
        // ids would do; the headroom keeps the bit-vector widths the experiments
        // have always run with.
        CjoinConfig::default()
            .with_distributor_shards(self.distributor_shards)
            .with_max_concurrency((concurrency * 2 + 16).max(32))
    }
}

fn start_cjoin(catalog: Arc<Catalog>, config: CjoinConfig) -> Result<CjoinEngine> {
    CjoinEngine::start(catalog, config)
}

/// Modelled disk-resident scan time for `passes` sequential passes over the fact
/// table (used to report the "with modelled disk" column; see the `cjoin-storage` `io` module).
fn modelled_scan_time(catalog: &Catalog, passes: f64, io: &IoModel) -> Duration {
    let pages = catalog.fact_table().map(|t| t.num_pages()).unwrap_or(0) as f64;
    Duration::from_secs_f64(pages * passes * io.sequential_page_us / 1e6)
}

// ---------------------------------------------------------------------------
// Figure 5 — throughput vs. number of concurrent queries
// ---------------------------------------------------------------------------

/// Figure 5: query throughput of CJOIN, the independent-scan baseline ("System X")
/// and the synchronized-scan baseline (PostgreSQL-like) as the number of concurrent
/// queries grows.
///
/// # Errors
/// Propagates engine errors.
pub fn fig5_concurrency_scaleup(
    params: &ExperimentParams,
    concurrency_levels: &[usize],
) -> Result<Table> {
    let data = params.data();
    let catalog = data.catalog();

    let mut table = Table::new(
        "Figure 5: throughput vs. concurrent queries (queries/hour)",
        vec!["n", "CJOIN", "System X", "PostgreSQL"],
    );
    for &n in concurrency_levels {
        let workload = params.workload(&data, n * params.queries_per_level_factor);

        let cjoin = start_cjoin(Arc::clone(&catalog), params.cjoin_config(n))?;
        let cjoin_report = run_closed_loop(&cjoin, workload.queries(), n)?;
        cjoin.shutdown();

        let system_x = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
        let system_x_report = run_closed_loop(&system_x, workload.queries(), n)?;

        let postgres = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::postgres_like());
        let postgres_report = run_closed_loop(&postgres, workload.queries(), n)?;

        table.push_row(vec![
            n.to_string(),
            fmt_f64(cjoin_report.throughput_qph()),
            fmt_f64(system_x_report.throughput_qph()),
            fmt_f64(postgres_report.throughput_qph()),
        ]);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Figure 6 — predictability of response time
// ---------------------------------------------------------------------------

/// Figure 6: average response time (and relative standard deviation) of queries from
/// the paper's reference template Q4.2 as the number of concurrent queries grows.
///
/// # Errors
/// Propagates engine errors.
pub fn fig6_predictability(
    params: &ExperimentParams,
    concurrency_levels: &[usize],
) -> Result<Table> {
    let data = params.data();
    let catalog = data.catalog();

    let mut table = Table::new(
        "Figure 6: Q4.2 response time vs. concurrent queries (milliseconds; rel. std-dev in %)",
        vec![
            "n",
            "CJOIN",
            "System X",
            "PostgreSQL",
            "CJOIN stddev%",
            "SysX stddev%",
            "PG stddev%",
        ],
    );
    for &n in concurrency_levels {
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(
                n * params.queries_per_level_factor,
                params.selectivity,
                params.seed ^ 0x42,
            )
            .with_template("Q4.2"),
        );

        let cjoin = start_cjoin(Arc::clone(&catalog), params.cjoin_config(n))?;
        let cjoin_report = run_closed_loop(&cjoin, workload.queries(), n)?;
        cjoin.shutdown();
        let system_x = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
        let system_x_report = run_closed_loop(&system_x, workload.queries(), n)?;
        let postgres = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::postgres_like());
        let postgres_report = run_closed_loop(&postgres, workload.queries(), n)?;

        let pct = |x: Option<f64>| fmt_f64(x.unwrap_or(0.0) * 100.0);
        table.push_row(vec![
            n.to_string(),
            fmt_ms(cjoin_report.mean_response_of("Q4.2").unwrap_or_default()),
            fmt_ms(system_x_report.mean_response_of("Q4.2").unwrap_or_default()),
            fmt_ms(postgres_report.mean_response_of("Q4.2").unwrap_or_default()),
            pct(cjoin_report.response_rel_stddev_of("Q4.2")),
            pct(system_x_report.response_rel_stddev_of("Q4.2")),
            pct(postgres_report.response_rel_stddev_of("Q4.2")),
        ]);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Tables 1–3 — query submission overhead
// ---------------------------------------------------------------------------

/// Submission-time statistics of one CJOIN run: mean admission time and mean
/// response time of the measured queries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubmissionStats {
    /// Mean time from submission until the query-start control tuple entered the
    /// pipeline (the paper's "submission time").
    pub mean_submission: Duration,
    /// Mean end-to-end response time.
    pub mean_response: Duration,
}

/// Measures CJOIN submission and response times for `queries` at the given
/// concurrency: the first `concurrency` queries are submitted as a batch (as in the
/// paper's client model) and every query's admission and completion are timed.
///
/// # Errors
/// Propagates engine errors.
pub fn cjoin_submission_stats(
    engine: &CjoinEngine,
    queries: &[StarQuery],
    concurrency: usize,
) -> Result<SubmissionStats> {
    let mut submission_total = Duration::ZERO;
    let mut response_total = Duration::ZERO;
    let mut completed = 0u32;

    // FIFO over the in-flight handles: the oldest query completes first (one scan
    // wrap-around each), so waiting front-to-back keeps `concurrency` queries
    // genuinely in flight for the whole run.
    let mut in_flight = std::collections::VecDeque::new();
    let mut iter = queries.iter();
    // Prime the pipeline with `concurrency` queries.
    for query in iter.by_ref().take(concurrency) {
        in_flight.push_back(engine.submit(query.clone())?);
    }
    // Closed loop: whenever one finishes, submit the next.
    while let Some(handle) = in_flight.pop_front() {
        submission_total += handle.submission_time();
        let (_, response) = handle.wait_with_time()?;
        response_total += response;
        completed += 1;
        if let Some(query) = iter.next() {
            in_flight.push_back(engine.submit(query.clone())?);
        }
    }
    if completed == 0 {
        return Ok(SubmissionStats::default());
    }
    Ok(SubmissionStats {
        mean_submission: submission_total / completed,
        mean_response: response_total / completed,
    })
}

/// Table 1: influence of concurrency on query submission time (CJOIN).
///
/// # Errors
/// Propagates engine errors.
pub fn tab1_submission_vs_concurrency(
    params: &ExperimentParams,
    concurrency_levels: &[usize],
) -> Result<Table> {
    let data = params.data();
    let catalog = data.catalog();
    let mut table = Table::new(
        "Table 1: query submission time vs. concurrency (CJOIN, Q4.2 workload)",
        vec!["n", "submission (ms)", "response (ms)"],
    );
    for &n in concurrency_levels {
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(
                n * params.queries_per_level_factor,
                params.selectivity,
                params.seed,
            )
            .with_template("Q4.2"),
        );
        let engine = start_cjoin(Arc::clone(&catalog), params.cjoin_config(n))?;
        let stats = cjoin_submission_stats(&engine, workload.queries(), n)?;
        engine.shutdown();
        table.push_row(vec![
            n.to_string(),
            fmt_ms(stats.mean_submission),
            fmt_ms(stats.mean_response),
        ]);
    }
    Ok(table)
}

/// Table 2: influence of predicate selectivity on query submission time (CJOIN).
///
/// # Errors
/// Propagates engine errors.
pub fn tab2_submission_vs_selectivity(
    params: &ExperimentParams,
    selectivities: &[f64],
    concurrency: usize,
) -> Result<Table> {
    let data = params.data();
    let catalog = data.catalog();
    let mut table = Table::new(
        "Table 2: query submission time vs. predicate selectivity (CJOIN)",
        vec!["selectivity (%)", "submission (ms)", "response (ms)"],
    );
    for &s in selectivities {
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(
                concurrency * params.queries_per_level_factor,
                s,
                params.seed,
            )
            .with_template("Q4.2"),
        );
        let engine = start_cjoin(Arc::clone(&catalog), params.cjoin_config(concurrency))?;
        let stats = cjoin_submission_stats(&engine, workload.queries(), concurrency)?;
        engine.shutdown();
        table.push_row(vec![
            fmt_f64(s * 100.0),
            fmt_ms(stats.mean_submission),
            fmt_ms(stats.mean_response),
        ]);
    }
    Ok(table)
}

/// Table 3: influence of the data scale factor on query submission time (CJOIN).
///
/// # Errors
/// Propagates engine errors.
pub fn tab3_submission_vs_sf(
    params: &ExperimentParams,
    scale_factors: &[f64],
    concurrency: usize,
) -> Result<Table> {
    let mut table = Table::new(
        "Table 3: query submission time vs. scale factor (CJOIN)",
        vec!["scale factor", "submission (ms)", "response (ms)"],
    );
    for &sf in scale_factors {
        let mut p = params.clone();
        p.scale_factor = sf;
        let data = p.data();
        let catalog = data.catalog();
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(
                concurrency * p.queries_per_level_factor,
                p.selectivity,
                p.seed,
            )
            .with_template("Q4.2"),
        );
        let engine = start_cjoin(Arc::clone(&catalog), p.cjoin_config(concurrency))?;
        let stats = cjoin_submission_stats(&engine, workload.queries(), concurrency)?;
        engine.shutdown();
        table.push_row(vec![
            format!("{sf}"),
            fmt_ms(stats.mean_submission),
            fmt_ms(stats.mean_response),
        ]);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Figure 7 — selectivity sweep
// ---------------------------------------------------------------------------

/// Figure 7: throughput of the three systems as the workload's predicate selectivity
/// grows (more dimension tuples selected per query).
///
/// # Errors
/// Propagates engine errors.
pub fn fig7_selectivity(
    params: &ExperimentParams,
    selectivities: &[f64],
    concurrency: usize,
) -> Result<Table> {
    let data = params.data();
    let catalog = data.catalog();
    let mut table = Table::new(
        "Figure 7: throughput vs. predicate selectivity (queries/hour)",
        vec!["selectivity (%)", "CJOIN", "System X", "PostgreSQL"],
    );
    for &s in selectivities {
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(
                concurrency * params.queries_per_level_factor,
                s,
                params.seed ^ 7,
            ),
        );
        let cjoin = start_cjoin(Arc::clone(&catalog), params.cjoin_config(concurrency))?;
        let cjoin_report = run_closed_loop(&cjoin, workload.queries(), concurrency)?;
        cjoin.shutdown();
        let system_x = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
        let system_x_report = run_closed_loop(&system_x, workload.queries(), concurrency)?;
        let postgres = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::postgres_like());
        let postgres_report = run_closed_loop(&postgres, workload.queries(), concurrency)?;
        table.push_row(vec![
            fmt_f64(s * 100.0),
            fmt_f64(cjoin_report.throughput_qph()),
            fmt_f64(system_x_report.throughput_qph()),
            fmt_f64(postgres_report.throughput_qph()),
        ]);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Figure 8 — data scale sweep
// ---------------------------------------------------------------------------

/// Figure 8: normalized throughput (throughput × scale factor) as the data volume
/// grows; ideal behaviour is a flat line.
///
/// # Errors
/// Propagates engine errors.
pub fn fig8_data_scale(
    params: &ExperimentParams,
    scale_factors: &[f64],
    concurrency: usize,
) -> Result<Table> {
    let mut table = Table::new(
        "Figure 8: normalized throughput vs. scale factor (queries/hour x sf)",
        vec!["scale factor", "CJOIN", "System X", "PostgreSQL"],
    );
    for &sf in scale_factors {
        let mut p = params.clone();
        p.scale_factor = sf;
        let data = p.data();
        let catalog = data.catalog();
        let workload = p.workload(&data, concurrency * p.queries_per_level_factor);

        let cjoin = start_cjoin(Arc::clone(&catalog), p.cjoin_config(concurrency))?;
        let cjoin_report = run_closed_loop(&cjoin, workload.queries(), concurrency)?;
        cjoin.shutdown();
        let system_x = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
        let system_x_report = run_closed_loop(&system_x, workload.queries(), concurrency)?;
        let postgres = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::postgres_like());
        let postgres_report = run_closed_loop(&postgres, workload.queries(), concurrency)?;

        table.push_row(vec![
            format!("{sf}"),
            fmt_f64(cjoin_report.throughput_qph() * sf),
            fmt_f64(system_x_report.throughput_qph() * sf),
            fmt_f64(postgres_report.throughput_qph() * sf),
        ]);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Design ablations
// ---------------------------------------------------------------------------

/// Ablation of a CJOIN design choice called out in §4: the number of threads
/// that run the Filter chain (here, the Distributor shards).
///
/// # Errors
/// Propagates engine errors.
pub fn ablations(params: &ExperimentParams, concurrency: usize) -> Result<Table> {
    let data = params.data();
    let catalog = data.catalog();
    let workload = params.workload(&data, concurrency * params.queries_per_level_factor);

    let mut table = Table::new(
        "Design ablations (queries/hour)",
        vec!["configuration", "throughput"],
    );
    let variants: Vec<(&str, CjoinConfig)> = vec![
        ("full design", params.cjoin_config(concurrency)),
        (
            "single shard",
            params.cjoin_config(concurrency).with_distributor_shards(1),
        ),
    ];
    for (name, config) in variants {
        let engine = start_cjoin(Arc::clone(&catalog), config)?;
        let report = run_closed_loop(&engine, workload.queries(), concurrency)?;
        engine.shutdown();
        table.push_row(vec![name.to_string(), fmt_f64(report.throughput_qph())]);
    }
    Ok(table)
}

/// Modelled disk-resident comparison for one concurrency level: how long one shared
/// circular scan pass takes vs. `n` independent (random-access) scans under the
/// spinning-disk I/O model. Complements Figure 5 with the I/O story that an
/// in-memory run cannot show directly.
pub fn modelled_io_comparison(
    params: &ExperimentParams,
    concurrency_levels: &[usize],
) -> Result<Table> {
    let data = params.data();
    let catalog = data.catalog();
    let io = IoModel::spinning_disk();
    let mut table = Table::new(
        "Modelled disk I/O time per workload pass (seconds, spinning-disk model)",
        vec!["n", "CJOIN shared scan", "independent scans", "ratio"],
    );
    for &n in concurrency_levels {
        // CJOIN: every concurrent query shares (at most) two passes over the table.
        let cjoin_io = modelled_scan_time(&catalog, 2.0, &io);
        // Query-at-a-time: n full scans, degraded to random access once n > 1.
        let pages = catalog.fact_table()?.num_pages() as f64;
        let per_page = if n > 1 {
            io.random_page_us
        } else {
            io.sequential_page_us
        };
        let baseline_io = Duration::from_secs_f64(pages * n as f64 * per_page / 1e6);
        let ratio = if cjoin_io.as_secs_f64() > 0.0 {
            baseline_io.as_secs_f64() / cjoin_io.as_secs_f64()
        } else {
            0.0
        };
        table.push_row(vec![
            n.to_string(),
            fmt_f64(cjoin_io.as_secs_f64()),
            fmt_f64(baseline_io.as_secs_f64()),
            fmt_f64(ratio),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_params_generate_small_data() {
        let p = ExperimentParams::quick();
        let data = p.data();
        assert!(data.catalog().fact_table().unwrap().len() <= 20_000);
    }

    #[test]
    fn fig5_quick_run_produces_all_rows() {
        let p = ExperimentParams::quick();
        let table = fig5_concurrency_scaleup(&p, &[1, 4]).unwrap();
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.columns.len(), 4);
        // Throughput cells must parse as positive numbers.
        for row in &table.rows {
            for cell in &row[1..] {
                assert!(cell.parse::<f64>().unwrap() > 0.0, "{cell}");
            }
        }
    }

    #[test]
    fn tab1_quick_run_reports_submission_times() {
        let p = ExperimentParams::quick();
        let table = tab1_submission_vs_concurrency(&p, &[2]).unwrap();
        assert_eq!(table.num_rows(), 1);
        let submission_ms: f64 = table.rows[0][1].parse().unwrap();
        let response_ms: f64 = table.rows[0][2].parse().unwrap();
        assert!(submission_ms >= 0.0);
        assert!(response_ms > 0.0);
        assert!(
            submission_ms < response_ms,
            "admission is cheaper than a full pass"
        );
    }

    #[test]
    fn modelled_io_comparison_shows_sharing_advantage() {
        let p = ExperimentParams::quick();
        let table = modelled_io_comparison(&p, &[1, 32]).unwrap();
        assert_eq!(table.num_rows(), 2);
        let ratio_1: f64 = table.rows[0][3].parse().unwrap();
        let ratio_32: f64 = table.rows[1][3].parse().unwrap();
        assert!(
            ratio_32 > ratio_1,
            "sharing advantage grows with concurrency"
        );
        assert!(ratio_32 > 10.0);
    }

    #[test]
    fn ablations_quick_run() {
        let p = ExperimentParams::quick();
        let table = ablations(&p, 4).unwrap();
        assert_eq!(table.num_rows(), 2);
        for row in &table.rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0);
        }
    }
}
