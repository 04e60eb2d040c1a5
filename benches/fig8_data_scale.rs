//! Figure 8 — influence of the data scale factor: one closed-loop workload run per
//! scale factor for CJOIN and the independent-scan baseline. The paper reports
//! *normalized* throughput (throughput × sf), which the `experiments fig8` binary
//! prints; here the raw wall time per workload is measured.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::bench::run_closed_loop;
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

const CONCURRENCY: usize = 16;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_data_scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));

    for scale_factor in [0.001f64, 0.002, 0.004] {
        let data = SsbDataSet::generate(SsbConfig::new(scale_factor, 95));
        let catalog = data.catalog();
        let workload = Workload::generate(&data, WorkloadConfig::new(CONCURRENCY, 0.01, 95));

        group.bench_with_input(
            BenchmarkId::new("cjoin", format!("sf{scale_factor}")),
            &scale_factor,
            |b, _| {
                b.iter(|| {
                    let engine = CjoinEngine::start(
                        Arc::clone(&catalog),
                        CjoinConfig::default().with_max_concurrency(32),
                    )
                    .unwrap();
                    let report = run_closed_loop(&engine, workload.queries(), CONCURRENCY).unwrap();
                    engine.shutdown();
                    report.timings.len()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("system_x", format!("sf{scale_factor}")),
            &scale_factor,
            |b, _| {
                b.iter(|| {
                    let engine =
                        BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
                    run_closed_loop(&engine, workload.queries(), CONCURRENCY)
                        .unwrap()
                        .timings
                        .len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
