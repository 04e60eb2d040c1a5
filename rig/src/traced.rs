//! Group B of the per-layer metrics: what the engine's and server's public
//! counters, and the rig's own spans, say about the traced half-window.

use std::time::{Duration, Instant};

use cjoin_core::PipelineStats;
use cjoin_query::wire::{ServerStats, TenantStats};

use crate::drive::{CommitSample, Sample, TENANT};
use crate::run::{Metrics, WindowStats};
use crate::span::Recorder;
use crate::stats;

pub struct Window<'a> {
    pub before: &'a PipelineStats,
    pub after: &'a PipelineStats,
    pub server_before: Option<&'a ServerStats>,
    pub server_after: Option<&'a ServerStats>,
    pub samples: &'a [Sample],
    pub commits: &'a [CommitSample],
    pub from: Instant,
    pub to: Instant,
    /// The traced half-window and the untraced half before it.
    pub traced: &'a WindowStats,
    pub untraced: &'a WindowStats,
    pub probes_per_tuple: f64,
}

/// How often the traced half samples the per-filter counters.
pub const PROBE_SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Accumulates `sum of per-filter probes` against `tuples entering the chain`
/// (the largest per-filter `tuples_in`) over point samples of the filters'
/// current statistics interval.
#[derive(Debug, Default)]
pub struct ProbeSampler {
    probes: u64,
    entered: u64,
}

impl ProbeSampler {
    pub fn sample(&mut self, stats: &PipelineStats) {
        self.probes += stats.filters.iter().map(|f| f.probes).sum::<u64>();
        self.entered += stats.filters.iter().map(|f| f.tuples_in).max().unwrap_or(0);
    }

    pub fn probes_per_tuple(&self) -> f64 {
        ratio(self.probes as f64, self.entered as f64)
    }
}

/// `num / den`, or zero when the denominator is (a layer that did no work).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn tenant(stats: Option<&ServerStats>) -> TenantStats {
    stats
        .and_then(|s| s.tenants.iter().find(|t| t.tenant == TENANT))
        .cloned()
        .unwrap_or_default()
}

pub fn derive(out: &mut Metrics, w: &Window<'_>, recorder: &Recorder) {
    let (b, a) = (w.before, w.after);
    let seconds = (w.to - w.from).as_secs_f64();
    let d = |f: fn(&PipelineStats) -> u64| f(a).saturating_sub(f(b)) as f64;
    let scanned = d(|s| s.tuples_scanned);
    let distributed = d(|s| s.tuples_distributed);
    let completed = d(|s| s.queries_completed);

    out.insert("cjoin.preprocessor.scan_rows_per_s", scanned / seconds);
    out.insert(
        "cjoin.preprocessor.passes_per_s",
        d(|s| s.scan_passes) / seconds,
    );
    out.insert(
        "cjoin.preprocessor.rows_scanned_per_query",
        ratio(scanned, completed),
    );
    out.insert(
        "cjoin.preprocessor.barrier_wait_frac",
        d(|s| s.barrier_wait_ns) / 1e9 / seconds,
    );
    out.insert(
        "cjoin.preprocessor.barriers_per_query",
        ratio(d(|s| s.control_barriers), completed),
    );
    out.insert("cjoin.filter.survive_frac", ratio(distributed, scanned));
    out.insert("cjoin.filter.probes_per_tuple", w.probes_per_tuple);
    out.insert("cjoin.distributor.tuples_per_s", distributed / seconds);
    out.insert(
        "cjoin.distributor.routings_per_tuple",
        ratio(d(|s| s.routings), distributed),
    );
    let (hits, misses) = (d(|s| s.pool_hits), d(|s| s.pool_misses));
    out.insert("cjoin.pool.hit_frac", ratio(hits, hits + misses));
    let (recycled, allocated) = (d(|s| s.tuples_recycled), d(|s| s.tuples_allocated));
    out.insert(
        "cjoin.pool.tuple_recycle_frac",
        ratio(recycled, recycled + allocated),
    );

    if let (Some(cb), Some(ca)) = (&b.columnar, &a.columnar) {
        let rows = ca.rows_scanned.saturating_sub(cb.rows_scanned) as f64;
        let skipped = ca
            .rows_predicate_skipped
            .saturating_sub(cb.rows_predicate_skipped) as f64;
        let bytes = ca.bytes_scanned.saturating_sub(cb.bytes_scanned) as f64;
        let probes = ca.predicate_probes.saturating_sub(cb.predicate_probes) as f64;
        let probe_rows = ca.predicate_rows.saturating_sub(cb.predicate_rows) as f64;
        out.insert(
            "cjoin.colscan.groups_skipped_frac",
            ratio(skipped, skipped + rows),
        );
        out.insert("cjoin.colscan.bytes_per_row", ratio(bytes, rows));
        out.insert("cjoin.colscan.rows_per_probe", ratio(probe_rows, probes));
    }

    let resizes = a
        .scheduler
        .resizes
        .len()
        .saturating_sub(b.scheduler.resizes.len());
    out.insert("cjoin.scheduler.resizes", resizes as f64);
    out.insert(
        "cjoin.scheduler.scan_workers",
        a.scheduler.scan_workers as f64,
    );
    out.insert(
        "cjoin.scheduler.stage_workers",
        a.scheduler.stage_workers as f64,
    );
    out.insert(
        "cjoin.scheduler.distributor_shards",
        a.scheduler.distributor_shards as f64,
    );

    let in_window = |at: Instant| at >= w.from && at < w.to;
    let eta_errs: Vec<f64> = w
        .samples
        .iter()
        .filter(|s| s.ok && in_window(s.done))
        .filter_map(|s| s.eta_err_pct)
        .collect();
    out.insert("cjoin.engine.eta_err_p50_pct", stats::median(&eta_errs));
    out.insert(
        "cjoin.engine.ingest_sync_us_per_commit",
        ratio(
            a.ingest.sync_ns.saturating_sub(b.ingest.sync_ns) as f64 / 1e3,
            a.ingest.commits.saturating_sub(b.ingest.commits) as f64,
        ),
    );

    let (tb, ta) = (tenant(w.server_before), tenant(w.server_after));
    let admitted = ta.admitted.saturating_sub(tb.admitted) as f64;
    let shed = (ta.shed_at_cap + ta.shed_deadline).saturating_sub(tb.shed_at_cap + tb.shed_deadline)
        as f64;
    out.insert(
        "server.queued_frac",
        ratio(ta.queued.saturating_sub(tb.queued) as f64, admitted),
    );
    out.insert("server.shed_frac", ratio(shed, admitted + shed));

    let commits: Vec<&CommitSample> = w.commits.iter().filter(|c| in_window(c.due)).collect();
    let of = |f: fn(&CommitSample) -> f64| -> Vec<f64> { commits.iter().map(|c| f(c)).collect() };
    out.insert("rig.commit_p50_ms", stats::median(&of(|c| c.latency_ms)));
    out.insert("rig.ingest_gen_lag_ms", stats::median(&of(|c| c.lag_ms)));

    let selfs = recorder.self_times_ms();
    for (span, metric) in [
        ("submit", "rig.submit_self_ms"),
        ("wait", "rig.wait_self_ms"),
        ("rpc_submit", "rig.rpc_submit_ms"),
        ("rpc_wait", "rig.rpc_wait_ms"),
        ("commit", "rig.commit_self_ms"),
    ] {
        out.insert(metric, selfs.get(span).map_or(0.0, |v| stats::median(v)));
    }
    out.insert("rig.response_p95_ms", w.untraced.response_p95_ms);
    out.insert("rig.submit_p95_ms", w.untraced.submit_p95_ms);
    out.insert(
        "rig.trace_overhead_frac",
        1.0 - ratio(w.traced.throughput_qps, w.untraced.throughput_qps),
    );
}
