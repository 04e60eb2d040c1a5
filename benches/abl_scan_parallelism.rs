//! Ablation — scan parallelism (the `scan_workers` knob): the continuous-scan
//! front-end as one scan worker versus 2 or 4 segment scan workers, at both a
//! 1-shard and a 4-shard aggregation stage. Each sample drives a fig5-style
//! closed-loop workload through a full `CjoinEngine`, so the measurement
//! includes the per-worker install sends and the in-band end-of-query
//! broadcasts, not just the raw segment cursors. The oracle-backed equivalence
//! of all `scan_workers` settings is asserted by `tests/scan_parallelism.rs`
//! and `tests/engine_equivalence.rs`; this bench only measures.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use cjoin_repro::bench::run_closed_loop;
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

const CONCURRENCY: usize = 8;

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.002, 0xC70));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(CONCURRENCY, 0.02, 0xC70));

    let mut group = c.benchmark_group("abl_scan_parallelism");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));

    for shards in [1usize, 4] {
        for scan_workers in [1usize, 2, 4] {
            group.bench_function(format!("scan_{scan_workers}_shards_{shards}"), |b| {
                b.iter(|| {
                    let config = CjoinConfig::default()
                        .with_max_concurrency(32)
                        .with_scan_workers(scan_workers)
                        .with_distributor_shards(shards);
                    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
                    let report = run_closed_loop(&engine, workload.queries(), CONCURRENCY).unwrap();
                    engine.shutdown();
                    report.timings.len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
