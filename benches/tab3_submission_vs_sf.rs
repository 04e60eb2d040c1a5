//! Table 3 — query submission overhead vs. data scale factor. Dimension tables grow
//! (sub-linearly) with the scale factor, but admission does not read them whole: it
//! evaluates `σ_cij(Dj)` only on the pages whose zone maps the predicate's page test
//! cannot rule out, so for the workload's key ranges over keys stored in key order
//! submission cost grows with the pages a predicate touches and the rows it selects
//! (and with them the hash-table loading), not with |Dj|, while the fixed costs stay
//! constant.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("tab3_submission_vs_sf");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for scale_factor in [0.001f64, 0.002, 0.004] {
        let data = SsbDataSet::generate(SsbConfig::new(scale_factor, 97));
        let catalog = data.catalog();
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(64, 0.01, 97).with_template("Q4.2"),
        );
        group.bench_with_input(
            BenchmarkId::new("admission", format!("sf{scale_factor}")),
            &scale_factor,
            |b, _| {
                let engine = CjoinEngine::start(
                    Arc::clone(&catalog),
                    CjoinConfig::default().with_max_concurrency(256),
                )
                .unwrap();
                let mut next = 0usize;
                b.iter(|| {
                    let query = &workload.queries()[next % workload.len()];
                    next += 1;
                    let handle = engine.submit(query.clone()).unwrap();
                    let submission = handle.submission_time();
                    let _ = handle.wait().unwrap();
                    submission
                });
                engine.shutdown();
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
