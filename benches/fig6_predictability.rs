//! Figure 6 — predictability: response time of the paper's reference template (Q4.2)
//! as the level of concurrency grows. The benchmark measures the wall time of a
//! Q4.2-only closed-loop run; the per-query mean and standard deviation are reported
//! by the `experiments fig6` binary.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::bench::run_closed_loop;
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.002, 61));
    let catalog = data.catalog();

    let mut group = c.benchmark_group("fig6_predictability_q42");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for n in [1usize, 16, 64] {
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(n, 0.01, 61).with_template("Q4.2"),
        );
        group.bench_with_input(BenchmarkId::new("cjoin", n), &n, |b, &n| {
            b.iter(|| {
                let engine = CjoinEngine::start(
                    Arc::clone(&catalog),
                    CjoinConfig::default().with_max_concurrency(n.max(4)),
                )
                .unwrap();
                let report = run_closed_loop(&engine, workload.queries(), n).unwrap();
                engine.shutdown();
                report.mean_response_of("Q4.2")
            });
        });
        group.bench_with_input(BenchmarkId::new("system_x", n), &n, |b, &n| {
            b.iter(|| {
                let engine = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
                run_closed_loop(&engine, workload.queries(), n)
                    .unwrap()
                    .mean_response_of("Q4.2")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
