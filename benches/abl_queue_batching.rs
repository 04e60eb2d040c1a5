//! Ablation — tuple batching (§4): the pipeline hands tuples between threads in
//! batches to amortise queue synchronisation. This benchmark varies the batch size.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cjoin_repro::bench::run_closed_loop;
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

const CONCURRENCY: usize = 16;

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.002, 113));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(CONCURRENCY, 0.02, 113));

    let mut group = c.benchmark_group("abl_queue_batching");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for batch_size in [32usize, 256, 2048] {
        group.bench_with_input(
            BenchmarkId::new("batch_size", batch_size),
            &batch_size,
            |b, &batch_size| {
                b.iter(|| {
                    let config = CjoinConfig::default()
                        .with_max_concurrency(32)
                        .with_batch_size(batch_size);
                    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
                    let report = run_closed_loop(&engine, workload.queries(), CONCURRENCY).unwrap();
                    engine.shutdown();
                    report.timings.len()
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
