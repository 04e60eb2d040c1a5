//! The five workloads and the two metric tables. `BENCHMARK.json` repeats
//! these names; a unit test keeps the two in step.

/// One workload: its data shape, query mix, load and front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub why: &'static str,
    pub scale_factor: f64,
    /// Fact table physically clustered by `lo_orderdate`.
    pub clustered: bool,
    /// Engine runs the compressed columnar scan; queries carry a seeded
    /// 90-day `lo_orderdate BETWEEN` fact predicate.
    pub columnar: bool,
    /// Per-dimension selectivity `s` of `WorkloadConfig`.
    pub selectivity: f64,
    /// Closed-loop depth: queries kept in flight by the one generator thread.
    pub inflight: usize,
    /// Queries go through `CjoinServer` on loopback, the engine logs to a WAL,
    /// and an open-loop ingest stream runs beside them on a second connection.
    pub served: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "scan_filter",
        why: "Paper Fig. 5 point: s=0.01, n=32, row scan; ~2e-5 of tuples survive, so scan, fact predicates and Filter probes do the work and aggregation none",
        scale_factor: 0.1,
        clustered: false,
        columnar: false,
        selectivity: 0.01,
        inflight: 32,
        served: false,
    },
    Spec {
        name: "agg_heavy",
        why: "Opposite split: s=0.4, n=16; ~44% of tuples survive, so router, shard aggregation and merger dominate and scan changes barely move it",
        scale_factor: 0.05,
        clustered: false,
        columnar: false,
        selectivity: 0.4,
        inflight: 16,
        served: false,
    },
    Spec {
        name: "columnar_clustered",
        why: "Columnar scan over date-clustered data with 90-day windows, n=8: encoded predicates, zone-map skipping, late materialisation; row-path changes must not move it",
        scale_factor: 0.1,
        clustered: true,
        columnar: true,
        selectivity: 0.05,
        inflight: 8,
        served: false,
    },
    Spec {
        name: "churn_admission",
        why: "Small scans (SF 0.01), n=64: fixed per-query cost (dimension predicate eval, register, control tuples, barriers) is the largest share; paper Tables 1-3",
        scale_factor: 0.01,
        clustered: false,
        columnar: false,
        selectivity: 0.01,
        inflight: 64,
        served: false,
    },
    Spec {
        name: "served_ingest",
        why: "churn_admission data, n=16 over the wire with WAL OnCommit, beside open-loop ingest at 10 commits/s: wire, server, WAL and versioned-probe paths",
        scale_factor: 0.01,
        clustered: false,
        columnar: false,
        selectivity: 0.01,
        inflight: 16,
        served: true,
    },
];

pub fn workload(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Queries generated per run (25 from each of the ten templates); the closed
/// loop cycles through them.
pub const QUERY_POOL: usize = 250;
/// Workload queries the oracle checks per pass.
pub const ORACLE_SAMPLE: usize = 32;
/// Width of the seeded `lo_orderdate` window on `columnar_clustered`, in days.
pub const DATE_WINDOW_DAYS: usize = 90;
/// Open-loop ingest on `served_ingest`: commits per second and their size.
pub const INGEST_COMMITS_PER_S: u64 = 10;
pub const INGEST_FACT_ROWS: usize = 16;
pub const INGEST_DIM_UPSERTS: usize = 2;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: what a user sees. Per-layer: the call or counter behind it
    /// and the end-to-end metric and workload it is predicted to move.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s", Lower, "data generation + replica transcode + engine/server start, until the first query is admitted (median of the run's five set-ups)"),
    m("throughput_qps", "queries/s", Higher, "median over the window's slices of completions per second"),
    m("response_p50_ms", "ms", Lower, "submit call to result in hand, median"),
    m("submit_p50_ms", "ms", Lower, "time inside submit (the paper's submission time), median"),
    m("ok_frac", "fraction", Higher, "1 - (errors + refusals + sheds + oracle mismatches) / operations attempted, queries and commits together"),
    m("peak_rss_mb", "MiB", Lower, "VmHWM of the workload process after its first set-up and its run, before the further set-ups"),
];

/// Reported by the traced run (`--trace 1`): group A from the layer drivers,
/// group B from counter deltas and the rig's spans over the traced window.
pub const PER_LAYER: &[Metric] = &[
    // A: layer drivers (timed loops over one public entry point).
    m("ssb.datagen_rows_per_s", "rows/s", Higher, "SsbDataSet::generate; moves setup_s everywhere"),
    m("storage.scan.rows_per_s", "rows/s", Higher, "ContinuousScan::next_batch, whole passes; throughput_qps on scan_filter, not columnar_clustered"),
    m("storage.columnar.transcode_rows_per_s", "rows/s", Higher, "ColumnarTable::from_table; setup_s on columnar_clustered"),
    m("storage.columnar.decode_rows_per_s", "rows/s", Higher, "ColumnarContinuousScan::next_batch, all columns; throughput_qps on columnar_clustered only"),
    m("storage.columnar.decode_proj2_rows_per_s", "rows/s", Higher, "same with a 2-column projection; throughput_qps on columnar_clustered only"),
    m("storage.columnar.bytes_per_row", "B/row", Lower, "total_encoded_bytes / rows; peak_rss_mb on columnar_clustered"),
    m("cjoin.colscan.pred_rows_per_s", "rows/s", Higher, "EncodedFactPredicate::eval_range over non-skipped row groups; throughput_qps, response_p50_ms on columnar_clustered only"),
    m("cjoin.colscan.zone_never_frac", "fraction", Higher, "EncodedFactPredicate::zone_verdict == Never share; same"),
    m("query.expr.pred_rows_per_s", "rows/s", Higher, "BoundPredicate::eval over row-store rows; throughput_qps on scan_filter"),
    m("cjoin.dimension.register_us", "us", Lower, "DimensionTable::register_query per workload query; submit_p50_ms, rig.submit_p95_ms, throughput_qps on churn_admission"),
    m("cjoin.dimension.unregister_us", "us", Lower, "DimensionTable::unregister_query; same"),
    m("cjoin.filter.tuples_per_s", "tuples/s", Higher, "FilterChain::process_batch, 32 workload queries, 1024-tuple batches; throughput_qps, response_p50_ms on scan_filter, little on agg_heavy"),
    m("cjoin.filter.driver_survive_frac", "fraction", Lower, "share of driver tuples leaving the chain; context for cjoin.filter.tuples_per_s"),
    m("cjoin.filter.versioned_tuples_per_s", "tuples/s", Higher, "same with every probed key carrying 2 versions (xmin/xmax split path); throughput_qps on served_ingest"),
    m("query.aggregate.accumulate_rows_per_s", "rows/s", Higher, "GroupedAggregator::accumulate on surviving rows; throughput_qps, rig.response_p95_ms on agg_heavy"),
    m("query.aggregate.merge_us", "us", Lower, "GroupedAggregator::merge of two partials; same"),
    m("query.aggregate.finalize_us", "us", Lower, "GroupedAggregator::finalize; same"),
    m("query.wire.encode_submit_ns", "ns", Lower, "Request::encode of a submit; response_p50_ms, throughput_qps on served_ingest only"),
    m("query.wire.decode_submit_ns", "ns", Lower, "Request::decode of a submit; same"),
    m("query.wire.encode_outcome_ns", "ns", Lower, "Response::encode of an outcome; same"),
    m("query.wire.decode_outcome_ns", "ns", Lower, "Response::decode of an outcome; same"),
    m("query.wire.submit_bytes", "bytes", Lower, "encoded submit frame payload; same"),
    m("query.wire.outcome_bytes", "bytes", Lower, "encoded outcome frame payload; same"),
    m("server.stats_rtt_us", "us", Lower, "RemoteEngine::server_stats round trip (framing + handler hand-off); response_p50_ms on served_ingest only"),
    m("client.execute_overhead_us", "us", Lower, "median RemoteEngine::execute - median in-process execute, one query alone; same"),
    m("storage.wal.append_rows_per_s", "rows/s", Higher, "WarehouseLog::append + commit under SyncPolicy::Never; commit_p50_ms on served_ingest"),
    m("storage.wal.commit_sync_us", "us", Lower, "WarehouseLog::commit under OnCommit (the sandbox's fsync, not a device's); same"),
    m("storage.wal.bytes_per_row", "B/row", Lower, "log bytes per appended fact row; same"),
    m("storage.wal.replay_rows_per_s", "rows/s", Higher, "WarehouseLog::replay_into; setup_s after a restart"),
    m("cjoin.engine.start_ms", "ms", Lower, "CjoinEngine::start (includes the replica transcode when columnar); setup_s"),
    m("cjoin.engine.submit_idle_us", "us", Lower, "submit with nothing else in flight; floor of submit_p50_ms everywhere"),
    // B: traced window (counter deltas of stats() and the rig's spans).
    m("cjoin.preprocessor.scan_rows_per_s", "rows/s", Higher, "d tuples_scanned / window; throughput_qps on the scan-bound workloads"),
    m("cjoin.preprocessor.passes_per_s", "1/s", Higher, "d scan_passes / window; same"),
    m("cjoin.preprocessor.rows_scanned_per_query", "rows", Lower, "d tuples_scanned / d queries_completed: rows examined per result; must not rise on any workload"),
    m("cjoin.preprocessor.barrier_wait_frac", "fraction", Lower, "d barrier_wait_ns / window: scan blocked on downstream; rig.submit_p95_ms, throughput_qps on churn_admission and agg_heavy"),
    m("cjoin.preprocessor.barriers_per_query", "count", Lower, "d control_barriers / d queries_completed; same"),
    m("cjoin.filter.survive_frac", "fraction", Lower, "d tuples_distributed / d tuples_scanned; tells scan_filter from agg_heavy"),
    m("cjoin.filter.probes_per_tuple", "count", Lower, "sum of per-filter probes / tuples entering the chain, sampled every 250 ms; same"),
    m("cjoin.distributor.tuples_per_s", "tuples/s", Higher, "d tuples_distributed / window; throughput_qps on agg_heavy"),
    m("cjoin.distributor.routings_per_tuple", "count", Lower, "d routings / d tuples_distributed; same"),
    m("cjoin.pool.hit_frac", "fraction", Higher, "batch-pool hits / takes over the window; peak_rss_mb, rig.response_p95_ms"),
    m("cjoin.pool.tuple_recycle_frac", "fraction", Higher, "tuples recycled / (recycled + allocated) over the window; same"),
    m("cjoin.colscan.groups_skipped_frac", "fraction", Higher, "rows zone-map-skipped / (skipped + scanned); throughput_qps on columnar_clustered"),
    m("cjoin.colscan.bytes_per_row", "B/row", Lower, "encoded bytes touched per produced row; same"),
    m("cjoin.colscan.rows_per_probe", "rows", Higher, "rows answered per predicate probe; same"),
    m("cjoin.scheduler.resizes", "count", Lower, "width changes inside the window: any makes that run's timings suspect"),
    m("cjoin.scheduler.scan_workers", "count", Higher, "auto-tuned scan width at window end (context, not a goal)"),
    m("cjoin.scheduler.stage_workers", "count", Higher, "auto-tuned stage width at window end (context, not a goal)"),
    m("cjoin.scheduler.distributor_shards", "count", Higher, "auto-tuned shard width at window end (context, not a goal)"),
    m("cjoin.engine.eta_err_p50_pct", "pct", Lower, "median |quote_eta() before submit - actual response| / actual; the paper's predictability claim"),
    m("cjoin.engine.ingest_sync_us_per_commit", "us", Lower, "d ingest.sync_ns / d commits; commit_p50_ms on served_ingest"),
    m("server.queued_frac", "fraction", Lower, "tenant submissions queued / admitted; ok_frac, rig.response_p95_ms on served_ingest"),
    m("server.shed_frac", "fraction", Lower, "tenant submissions shed / attempted; same"),
    m("rig.commit_p50_ms", "ms", Lower, "ingest commit, due time to durable-and-visible receipt, median; end-to-end in intent, listed here because only served_ingest has commits"),
    m("rig.response_p95_ms", "ms", Lower, "submit call to result in hand, 95th percentile over the untraced half-window; end-to-end in intent, listed here because run to run it moves by more than a bound can hold"),
    m("rig.submit_p95_ms", "ms", Lower, "time inside submit, 95th percentile over the untraced half-window; same"),
    m("rig.submit_self_ms", "ms", Lower, "median self time of the in-process submit span; decomposes response_p50_ms"),
    m("rig.wait_self_ms", "ms", Lower, "median self time of the in-process wait span; same"),
    m("rig.rpc_submit_ms", "ms", Lower, "median self time of the wire submit round trip; same on served_ingest"),
    m("rig.rpc_wait_ms", "ms", Lower, "median self time of the wire wait round trip; same"),
    m("rig.commit_self_ms", "ms", Lower, "median self time of the ingest round trip (send to receipt); decomposes rig.commit_p50_ms"),
    m("rig.ingest_gen_lag_ms", "ms", Lower, "median lateness of the open-loop generator; validity of rig.commit_p50_ms"),
    m("rig.trace_overhead_frac", "fraction", Lower, "1 - traced / untraced throughput_qps, halves of one window"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{} unit {}", metric.name, metric.unit);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what the
    /// rig emits. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(json.get("why").and_then(Json::as_str), Some(spec.why));
        }
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let rows = listed(key);
            assert_eq!(rows.len(), table.len(), "{key}");
            for (json, metric) in rows.iter().zip(table) {
                assert_eq!(json.get("name").and_then(Json::as_str), Some(metric.name));
                assert_eq!(json.get("unit").and_then(Json::as_str), Some(metric.unit));
                assert_eq!(
                    json.get("better").and_then(Json::as_str),
                    Some(metric.better.as_str())
                );
                let bound = json.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert!(
                        bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                        "{}",
                        metric.name
                    );
                } else {
                    assert!(bound.is_none(), "{}", metric.name);
                }
            }
        }
    }
}
