//! Ablation — §5 "Column Stores" / "Compressed Tables": one pass of the continuous
//! fact-table scan over (a) the row store, (b) a columnar replica materialising every
//! column, and (c) a columnar replica materialising only the four columns a typical
//! SSB query mix touches. The projected scan should move a small fraction of the
//! bytes and finish fastest; the experiment harness reports the byte volumes in
//! the experiments binary (`io` subcommand).
//!
//! A second group runs the scan *in the pipeline*: a running [`CjoinEngine`]
//! answers the same clustered date-range query with `columnar_scan` off (row
//! store) and on (encoded predicates + zone-map skipping + late
//! materialization), so the measured gap includes the full §3.3 admission and
//! aggregation protocol rather than the bare storage iterator.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet};
use cjoin_repro::storage::{
    ColumnarContinuousScan, ColumnarTable, CompressionPolicy, ContinuousScan, ScanBatch,
};
use cjoin_repro::{AggFunc, AggregateSpec, ColumnRef, Predicate, StarQuery};

fn bench(c: &mut Criterion) {
    let data = SsbDataSet::generate(SsbConfig::new(0.005, 7));
    let lineorder = data.catalog().fact_table().unwrap();
    let rows = lineorder.len();
    let columnar =
        Arc::new(ColumnarTable::from_table(&lineorder, CompressionPolicy::Adaptive).unwrap());
    let projection = columnar
        .projection_of(&["lo_orderdate", "lo_discount", "lo_quantity", "lo_revenue"])
        .unwrap();

    let mut group = c.benchmark_group("abl_columnar_scan");
    group.sample_size(10);

    group.bench_function("row_store_all_columns", |b| {
        b.iter(|| {
            let mut scan = ContinuousScan::new(Arc::clone(&lineorder)).with_batch_rows(4096);
            let mut batch = ScanBatch::default();
            let mut seen = 0usize;
            while seen < rows {
                scan.next_batch(&mut batch);
                seen += batch.len();
            }
            seen
        });
    });

    group.bench_function("columnar_all_columns", |b| {
        b.iter(|| {
            let mut scan = ColumnarContinuousScan::new(Arc::clone(&columnar)).with_batch_rows(4096);
            let mut batch = ScanBatch::default();
            let mut seen = 0usize;
            while seen < rows {
                scan.next_batch(&mut batch);
                seen += batch.len();
            }
            seen
        });
    });

    group.bench_function("columnar_projected_4_columns", |b| {
        b.iter(|| {
            let mut scan =
                ColumnarContinuousScan::with_projection(Arc::clone(&columnar), projection.clone())
                    .with_batch_rows(4096);
            let mut batch = ScanBatch::default();
            let mut seen = 0usize;
            while seen < rows {
                scan.next_batch(&mut batch);
                seen += batch.len();
            }
            seen
        });
    });

    group.finish();

    let clustered = SsbDataSet::generate(SsbConfig {
        cluster_by_orderdate: true,
        ..SsbConfig::new(0.005, 7)
    });
    let mut pipeline = c.benchmark_group("abl_columnar_scan_pipeline");
    pipeline.sample_size(10);
    for columnar in [false, true] {
        let engine = CjoinEngine::start(
            clustered.catalog(),
            CjoinConfig::default().with_columnar_scan(columnar),
        )
        .unwrap();
        let name = if columnar {
            "pipeline_columnar_date_range"
        } else {
            "pipeline_row_store_date_range"
        };
        pipeline.bench_function(name, |b| {
            b.iter(|| {
                let query = StarQuery::builder("probe")
                    .fact_predicate(Predicate::between("lo_orderdate", 19_940_101, 19_941_231))
                    .aggregate(AggregateSpec::count_star())
                    .aggregate(AggregateSpec::over(
                        AggFunc::Sum,
                        ColumnRef::fact("lo_revenue"),
                    ))
                    .build();
                engine.execute(query).unwrap()
            });
        });
        engine.shutdown();
    }
    pipeline.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
