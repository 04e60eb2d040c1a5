//! Table 1 — query submission (admission) overhead vs. the number of concurrent
//! queries. Benchmarks the admission path alone: Algorithm 1 up to the insertion of
//! the query-start control tuple, with a varying number of queries already registered.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.002, 71));
    let catalog = data.catalog();

    let mut group = c.benchmark_group("tab1_submission_vs_n");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for already_registered in [0usize, 16, 64] {
        let background = Workload::generate(
            &data,
            WorkloadConfig::new(already_registered.max(1), 0.01, 71),
        );
        let probe = Workload::generate(
            &data,
            WorkloadConfig::new(32, 0.01, 72).with_template("Q4.2"),
        );
        group.bench_with_input(
            BenchmarkId::new("admission", already_registered),
            &already_registered,
            |b, &already_registered| {
                // Keep `already_registered` long-lived queries in the pipeline and
                // measure the admission latency of additional Q4.2 queries.
                let engine = CjoinEngine::start(
                    Arc::clone(&catalog),
                    CjoinConfig::default().with_max_concurrency(already_registered + 64),
                )
                .unwrap();
                let _background: Vec<_> = background
                    .queries()
                    .iter()
                    .take(already_registered)
                    .map(|q| engine.submit(q.clone()).unwrap())
                    .collect();
                let mut next = 0usize;
                b.iter(|| {
                    let query = &probe.queries()[next % probe.len()];
                    next += 1;
                    let handle = engine.submit(query.clone()).unwrap();
                    let submission = handle.submission_time();
                    // Wait so the pipeline does not accumulate unbounded queries.
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
