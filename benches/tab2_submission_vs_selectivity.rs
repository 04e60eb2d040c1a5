//! Table 2 — query submission overhead vs. predicate selectivity: higher selectivity
//! means more dimension tuples must be evaluated and loaded into the shared dimension
//! hash tables during admission (Algorithm 1 lines 11–16).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.002, 91));
    let catalog = data.catalog();

    let mut group = c.benchmark_group("tab2_submission_vs_selectivity");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for (label, selectivity) in [("0.1%", 0.001), ("1%", 0.01), ("10%", 0.10)] {
        let workload = Workload::generate(
            &data,
            WorkloadConfig::new(64, selectivity, 91).with_template("Q4.2"),
        );
        group.bench_with_input(
            BenchmarkId::new("admission", label),
            &selectivity,
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
