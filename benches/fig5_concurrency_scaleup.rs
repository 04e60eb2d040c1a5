//! Figure 5 — throughput as the number of concurrent queries grows, for CJOIN and the
//! two query-at-a-time baselines. Each measured point is one closed-loop run of an
//! `n`-query workload at concurrency `n`; throughput is `n / wall-time`.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::bench::run_closed_loop;
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.002, 51));
    let catalog = data.catalog();

    let mut group = c.benchmark_group("fig5_concurrency_scaleup");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for n in [1usize, 16, 64] {
        let workload = Workload::generate(&data, WorkloadConfig::new(n, 0.01, 51));
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("cjoin", n), &n, |b, &n| {
            b.iter(|| {
                let engine = CjoinEngine::start(
                    Arc::clone(&catalog),
                    CjoinConfig::default().with_max_concurrency(n.max(4)),
                )
                .unwrap();
                let report = run_closed_loop(&engine, workload.queries(), n).unwrap();
                engine.shutdown();
                report.timings.len()
            });
        });

        group.bench_with_input(BenchmarkId::new("system_x", n), &n, |b, &n| {
            b.iter(|| {
                let engine = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
                run_closed_loop(&engine, workload.queries(), n)
                    .unwrap()
                    .timings
                    .len()
            });
        });

        group.bench_with_input(BenchmarkId::new("postgresql", n), &n, |b, &n| {
            b.iter(|| {
                let engine =
                    BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::postgres_like());
                run_closed_loop(&engine, workload.queries(), n)
                    .unwrap()
                    .timings
                    .len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
