//! Figure 7 — throughput as the workload's predicate selectivity grows (each query
//! selects a larger fraction of every dimension it references, so the shared
//! dimension hash tables and the per-query baseline hash tables all grow).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::bench::run_closed_loop;
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

const CONCURRENCY: usize = 16;

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.002, 81));
    let catalog = data.catalog();

    let mut group = c.benchmark_group("fig7_selectivity");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for (label, selectivity) in [("0.1%", 0.001), ("1%", 0.01), ("10%", 0.10)] {
        let workload = Workload::generate(&data, WorkloadConfig::new(CONCURRENCY, selectivity, 81));
        group.bench_with_input(BenchmarkId::new("cjoin", label), &selectivity, |b, _| {
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
        });
        group.bench_with_input(BenchmarkId::new("system_x", label), &selectivity, |b, _| {
            b.iter(|| {
                let engine = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::system_x());
                run_closed_loop(&engine, workload.queries(), CONCURRENCY)
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
