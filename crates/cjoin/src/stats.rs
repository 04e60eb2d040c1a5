//! Operator statistics.
//!
//! The experiments of §6 need visibility into what the pipeline is doing: tuples
//! scanned, tuples reaching the Distributor, per-Filter probe/drop counts, scan
//! passes, and query lifecycle counts. Counters are updated with relaxed atomics on
//! the hot path and snapshotted on demand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared atomic counters updated by the pipeline threads.
#[derive(Debug, Default)]
pub struct SharedCounters {
    /// Fact tuples read from the continuous scan.
    pub tuples_scanned: AtomicU64,
    /// Data batches the scan workers sent to the shard lanes.
    pub batches_sent: AtomicU64,
    /// Tuples that reached the Distributor with a non-zero bit-vector.
    pub tuples_distributed: AtomicU64,
    /// (tuple, query) routing events performed by the Distributor.
    pub routings: AtomicU64,
    /// Completed passes over the fact table.
    pub scan_passes: AtomicU64,
    /// Queries admitted (Algorithm 1 completed).
    pub queries_admitted: AtomicU64,
    /// Queries finalized (results delivered).
    pub queries_completed: AtomicU64,
    /// Filter-order changes applied by the run-time optimizer.
    pub filter_reorders: AtomicU64,
    /// In-flight tuples freshly heap-allocated by the Preprocessor (cold path;
    /// should stop growing once the batch pool is warm).
    pub tuples_allocated: AtomicU64,
    /// In-flight tuples reinitialised in place from a batch's spare pool
    /// (the zero-allocation steady-state path).
    pub tuples_recycled: AtomicU64,
    /// Supervised pipeline roles that died (panicked) and were handled.
    pub role_failures: AtomicU64,
    /// Pipeline respawns performed by the supervisor after a role failure.
    pub pipeline_restarts: AtomicU64,
    /// *Busy* nanoseconds of the most recently completed scan pass (written
    /// with `store`, not `add`): the measured pass time admission uses to
    /// pre-shed queries whose deadline cannot survive one more pass. Busy-only
    /// — the reporting scan worker excludes its idle sleeps, so an engine that
    /// sat idle mid-pass does not inflate the next deadline quote.
    pub last_pass_ns: AtomicU64,
    /// Rows the most recently completed scan pass covered (the reporting
    /// worker's segment; the whole table with one scan worker). Together with
    /// a live in-pass rate this turns `last_pass_ns` into a rate-based cycle
    /// estimate instead of a stale wall-clock sample.
    pub cycle_rows: AtomicU64,
    /// Rows the reporting scan worker has covered in the *current* pass so far
    /// (reset to zero at each wrap; written with `store`).
    pub pass_rows: AtomicU64,
    /// Busy nanoseconds the reporting scan worker has accumulated in the
    /// current pass so far (reset at each wrap; written with `store`).
    pub pass_busy_ns: AtomicU64,
    /// Exponentially weighted moving average (α = 1/8) of `submit`'s own time
    /// in nanoseconds — the submission time, up to the last install send —
    /// sampled after every submission whose installs all reached a worker.
    /// The deadline quote adds this to the cycle estimate so admission's cost
    /// does not cause under-shedding.
    pub install_ns_ewma: AtomicU64,
}

impl SharedCounters {
    /// Creates zeroed counters.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Forgets the pass timings the deadline quote extrapolates from
    /// (`last_pass_ns`, `cycle_rows`, `pass_rows`, `pass_busy_ns`). A pass is
    /// one worker's segment, so after the scan width changes the old width's
    /// pass would be read against the new one's segment; until a new worker
    /// completes a pass, `quote_eta` has no quote, as at engine start.
    pub fn forget_pass_timings(&self) {
        for counter in [
            &self.last_pass_ns,
            &self.cycle_rows,
            &self.pass_rows,
            &self.pass_busy_ns,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// Atomic counters owned by one Distributor shard.
///
/// Shard workers update *both* their own [`ShardCounters`] and the global
/// [`SharedCounters`] totals, so for any quiesced pipeline the per-shard values
/// sum exactly to the global `tuples_distributed` / `routings` counters — the
/// invariant `tests/distributor_sharding.rs` pins down.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Surviving tuples this shard accumulated.
    pub tuples_distributed: AtomicU64,
    /// (tuple, query) routing events this shard performed.
    pub routings: AtomicU64,
    /// Data batches this shard drained from its lane.
    pub batches_drained: AtomicU64,
    /// Per-query partial aggregations this shard emitted at query end.
    pub partials_emitted: AtomicU64,
    /// Set bits of surviving tuples that named no query this shard had seen
    /// start, or one it had already seen end. Zero in a correct pipeline,
    /// where every lane orders a query's start before its data and its data
    /// before its end.
    pub stray_bits: AtomicU64,
}

impl ShardCounters {
    /// Creates one zeroed counter set per shard.
    pub fn new_vec(shards: usize) -> Vec<Arc<Self>> {
        (0..shards).map(|_| Arc::new(Self::default())).collect()
    }

    /// A point-in-time snapshot of this shard's counters.
    pub fn snapshot(&self, shard: usize) -> DistributorShardStats {
        DistributorShardStats {
            shard,
            tuples_distributed: self.tuples_distributed.load(Ordering::Relaxed),
            routings: self.routings.load(Ordering::Relaxed),
            batches_drained: self.batches_drained.load(Ordering::Relaxed),
            partials_emitted: self.partials_emitted.load(Ordering::Relaxed),
            stray_bits: self.stray_bits.load(Ordering::Relaxed),
        }
    }
}

/// Atomic counters owned by one continuous-scan (Preprocessor) worker.
///
/// Scan workers update *both* their own `ScanWorkerCounters` and the global
/// [`SharedCounters`] totals, so for any quiesced pipeline the per-worker values
/// sum exactly to the global `tuples_scanned` / `batches_sent` / `scan_passes`
/// counters — the front-end mirror of the [`ShardCounters`] invariant, pinned
/// down by `tests/scan_parallelism.rs`. One entry per scan worker, so the stats
/// shape is uniform across `scan_workers` settings.
#[derive(Debug, Default)]
pub struct ScanWorkerCounters {
    /// Fact tuples this worker read from its segment cursor.
    pub tuples_scanned: AtomicU64,
    /// Data batches this worker sent to the shard lanes.
    pub batches_sent: AtomicU64,
    /// Completed passes over this worker's segment (whole-table passes for a
    /// single worker).
    pub segment_passes: AtomicU64,
}

impl ScanWorkerCounters {
    /// Creates one zeroed counter set per scan worker.
    pub fn new_vec(workers: usize) -> Vec<Arc<Self>> {
        (0..workers).map(|_| Arc::new(Self::default())).collect()
    }

    /// A point-in-time snapshot of this worker's counters.
    pub fn snapshot(&self, worker: usize) -> ScanWorkerStats {
        ScanWorkerStats {
            worker,
            tuples_scanned: self.tuples_scanned.load(Ordering::Relaxed),
            batches_sent: self.batches_sent.load(Ordering::Relaxed),
            segment_passes: self.segment_passes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time statistics of one continuous-scan worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanWorkerStats {
    /// Worker index in `[0, scan_workers)`.
    pub worker: usize,
    /// Fact tuples this worker read from its segment cursor.
    pub tuples_scanned: u64,
    /// Data batches this worker sent to the shard lanes.
    pub batches_sent: u64,
    /// Completed passes over this worker's segment.
    pub segment_passes: u64,
}

/// Point-in-time statistics of one Distributor shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributorShardStats {
    /// Shard index in `[0, distributor_shards)`.
    pub shard: usize,
    /// Surviving tuples this shard accumulated.
    pub tuples_distributed: u64,
    /// (tuple, query) routing events this shard performed.
    pub routings: u64,
    /// Data batches this shard drained from its lane.
    pub batches_drained: u64,
    /// Per-query partial aggregations this shard emitted at query end.
    pub partials_emitted: u64,
    /// Set bits that named no query started and not yet ended on this shard
    /// (zero in a correct pipeline; see [`ShardCounters::stray_bits`]).
    pub stray_bits: u64,
}

/// Point-in-time statistics of one Filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterStatsSnapshot {
    /// Dimension table the Filter covers.
    pub dimension: String,
    /// Dimension tuples currently stored in its hash table.
    pub entries: usize,
    /// Tuples that entered the Filter.
    pub tuples_in: u64,
    /// Tuples dropped by the Filter.
    pub tuples_dropped: u64,
    /// Hash probes performed.
    pub probes: u64,
    /// Probes avoided by the early-skip optimisation.
    pub skips: u64,
}

impl FilterStatsSnapshot {
    /// Observed drop rate.
    pub fn drop_rate(&self) -> f64 {
        if self.tuples_in == 0 {
            0.0
        } else {
            self.tuples_dropped as f64 / self.tuples_in as f64
        }
    }
}

/// Point-in-time statistics of the compressed columnar scan front-end
/// (`CjoinConfig::columnar_scan`): the byte-level scan volume and zone-map /
/// per-run evidence the rig's `cjoin.colscan.*` metrics are derived from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarScanStats {
    /// Bytes of encoded column data the scan actually touched (predicate
    /// columns billed per chunk, late-materialized columns per surviving row).
    pub bytes_scanned: u64,
    /// Rows the columnar scan produced.
    pub rows_scanned: u64,
    /// Row groups skipped outright because no active query's predicate could
    /// match their zone maps.
    pub row_groups_skipped: u64,
    /// Rows whose bytes were never touched thanks to zone-map skipping.
    pub rows_predicate_skipped: u64,
    /// Row groups quarantined by a failed checksum verification; their rows are
    /// served from the row store instead (graceful degradation, not data loss).
    pub groups_quarantined: u64,
    /// Predicate evaluations actually performed (one per run on RLE data).
    pub predicate_probes: u64,
    /// Rows those predicate evaluations covered; `predicate_rows /
    /// predicate_probes` is the average rows answered per probe (≫ 1 on
    /// RLE-encoded columns).
    pub predicate_rows: u64,
    /// Bytes touched per fact column (indexed by `ColumnId`).
    pub column_bytes: Vec<u64>,
}

impl ColumnarScanStats {
    /// Average rows answered per predicate probe (1.0 for plain encodings,
    /// ≫ 1 when run-length encoding lets one probe cover a whole run).
    pub fn rows_per_probe(&self) -> f64 {
        if self.predicate_probes == 0 {
            0.0
        } else {
            self.predicate_rows as f64 / self.predicate_probes as f64
        }
    }

    /// Average bytes of column data touched per produced row.
    pub fn bytes_per_row(&self) -> f64 {
        if self.rows_scanned == 0 {
            0.0
        } else {
            self.bytes_scanned as f64 / self.rows_scanned as f64
        }
    }
}

/// Atomic counters of the durable ingestion path (WAL + `IngestSession`).
#[derive(Debug, Default)]
pub struct IngestCounters {
    /// Mutation records appended to the WAL (commit markers not counted).
    pub records_appended: AtomicU64,
    /// Ingestion batches whose commit marker became durable.
    pub commits: AtomicU64,
    /// Cumulative nanoseconds spent waiting on WAL fsync (written with `store`
    /// from the log's own clock).
    pub sync_ns: AtomicU64,
    /// Logs truncated during crash recovery because a torn or corrupt record
    /// was found (0 or 1 per engine start; summed across restarts).
    pub recovery_truncations: AtomicU64,
    /// Row groups ingestion commits have encoded into the columnar replica
    /// since start (a short last group encoded again once full counts once).
    pub groups_sealed: AtomicU64,
}

impl IngestCounters {
    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> IngestStats {
        IngestStats {
            records_appended: self.records_appended.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            recovery_truncations: self.recovery_truncations.load(Ordering::Relaxed),
            groups_sealed: self.groups_sealed.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time statistics of the durable ingestion path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Mutation records appended to the WAL (commit markers not counted).
    pub records_appended: u64,
    /// Ingestion batches whose commit marker became durable.
    pub commits: u64,
    /// Cumulative nanoseconds spent waiting on WAL fsync.
    pub sync_ns: u64,
    /// Logs truncated during crash recovery (torn tail / corrupt record).
    pub recovery_truncations: u64,
    /// Row groups ingestion commits have encoded into the columnar replica
    /// since start.
    pub groups_sealed: u64,
}

/// Point-in-time statistics of the whole pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Fact tuples read from the continuous scan.
    pub tuples_scanned: u64,
    /// Data batches the scan workers sent to the shard lanes.
    pub batches_sent: u64,
    /// Tuples that reached the Distributor.
    pub tuples_distributed: u64,
    /// (tuple, query) routing events.
    pub routings: u64,
    /// Completed passes over the fact table.
    pub scan_passes: u64,
    /// Queries admitted so far.
    pub queries_admitted: u64,
    /// Queries completed so far.
    pub queries_completed: u64,
    /// Queries currently registered.
    pub active_queries: usize,
    /// Filter-order changes applied.
    pub filter_reorders: u64,
    /// Always 0: a query's end travels in-band behind its data, so no drain
    /// barrier is taken. Kept because the stats consumers read it by name.
    pub control_barriers: u64,
    /// Always 0, for the same reason as `control_barriers`.
    pub barrier_wait_ns: u64,
    /// Current filter order with per-filter statistics.
    pub filters: Vec<FilterStatsSnapshot>,
    /// Per-worker continuous-scan statistics (one entry per configured scan
    /// worker; a single entry when `scan_workers = 1`). The per-worker
    /// `tuples_scanned` / `batches_sent` / `segment_passes` values sum to the
    /// pipeline-wide totals above.
    pub scan_workers: Vec<ScanWorkerStats>,
    /// Per-shard Distributor statistics (one entry per configured shard; a single
    /// entry when `distributor_shards = 1`). The per-shard `tuples_distributed` /
    /// `routings` values sum to the pipeline-wide totals above.
    pub distributor_shards: Vec<DistributorShardStats>,
    /// Messages waiting in the shard lanes (zero whenever the pipeline is
    /// quiesced).
    pub queued_messages: usize,
    /// Batch-pool hits (recycled batches).
    pub pool_hits: u64,
    /// Batch-pool misses (fresh allocations).
    pub pool_misses: u64,
    /// In-flight tuples freshly heap-allocated by the Preprocessor.
    pub tuples_allocated: u64,
    /// In-flight tuples reinitialised in place from recycled spares.
    pub tuples_recycled: u64,
    /// Supervised pipeline roles that died (panicked) and were handled by the
    /// supervisor over the engine's lifetime.
    pub role_failures: u64,
    /// Pipeline respawns the supervisor performed after role failures (each
    /// possibly degrading one configuration axis; see the engine docs).
    pub pipeline_restarts: u64,
    /// Compressed columnar scan statistics (`None` unless the engine runs with
    /// `CjoinConfig::columnar_scan` enabled).
    pub columnar: Option<ColumnarScanStats>,
    /// Current per-axis widths, the resize log (the supervisor's
    /// degradations) and the host core count they were sized on.
    pub scheduler: crate::scheduler::SchedulerStats,
    /// Durable ingestion statistics (all zero unless the engine runs with a
    /// WAL configured via `CjoinConfig::wal_path`).
    pub ingest: IngestStats,
}

impl PipelineStats {
    /// Fraction of scanned tuples that survived all Filters.
    pub fn survival_rate(&self) -> f64 {
        if self.tuples_scanned == 0 {
            0.0
        } else {
            self.tuples_distributed as f64 / self.tuples_scanned as f64
        }
    }

    /// Fraction of batch-pool takes served without allocating (≈ 1 after warm-up).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Fraction of in-flight tuples served by in-place recycling rather than a
    /// fresh heap allocation (≈ 1 after warm-up; the "zero per-tuple allocation"
    /// steady-state claim in numbers).
    pub fn tuple_recycle_rate(&self) -> f64 {
        let total = self.tuples_allocated + self.tuples_recycled;
        if total == 0 {
            0.0
        } else {
            self.tuples_recycled as f64 / total as f64
        }
    }

    /// Sum of the per-shard `tuples_distributed` counters; equals
    /// [`PipelineStats::tuples_distributed`] on a quiesced pipeline.
    pub fn shard_tuples_distributed(&self) -> u64 {
        self.distributor_shards
            .iter()
            .map(|s| s.tuples_distributed)
            .sum()
    }

    /// Sum of the per-shard `routings` counters; equals
    /// [`PipelineStats::routings`] on a quiesced pipeline.
    pub fn shard_routings(&self) -> u64 {
        self.distributor_shards.iter().map(|s| s.routings).sum()
    }

    /// Sum of the per-scan-worker `tuples_scanned` counters; equals
    /// [`PipelineStats::tuples_scanned`] on a quiesced pipeline.
    pub fn scan_worker_tuples_scanned(&self) -> u64 {
        self.scan_workers.iter().map(|w| w.tuples_scanned).sum()
    }

    /// Sum of the per-scan-worker `batches_sent` counters; equals
    /// [`PipelineStats::batches_sent`] on a quiesced pipeline.
    pub fn scan_worker_batches_sent(&self) -> u64 {
        self.scan_workers.iter().map(|w| w.batches_sent).sum()
    }

    /// Sum of the per-scan-worker `segment_passes` counters; equals
    /// [`PipelineStats::scan_passes`] on a quiesced pipeline (with `N` scan
    /// workers the global counter counts *segment* passes, `N` per logical pass
    /// over the whole table).
    pub fn scan_worker_segment_passes(&self) -> u64 {
        self.scan_workers.iter().map(|w| w.segment_passes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_counters_accumulate() {
        let c = SharedCounters::new();
        SharedCounters::add(&c.tuples_scanned, 10);
        SharedCounters::add(&c.tuples_scanned, 5);
        assert_eq!(c.tuples_scanned.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn filter_snapshot_drop_rate() {
        let s = FilterStatsSnapshot {
            dimension: "date".into(),
            entries: 10,
            tuples_in: 200,
            tuples_dropped: 50,
            probes: 180,
            skips: 20,
        };
        assert!((s.drop_rate() - 0.25).abs() < 1e-12);
        let empty = FilterStatsSnapshot {
            dimension: "date".into(),
            entries: 0,
            tuples_in: 0,
            tuples_dropped: 0,
            probes: 0,
            skips: 0,
        };
        assert_eq!(empty.drop_rate(), 0.0);
    }

    #[test]
    fn pipeline_stats_survival_rate() {
        let stats = PipelineStats {
            tuples_scanned: 1000,
            batches_sent: 10,
            tuples_distributed: 250,
            routings: 400,
            scan_passes: 2,
            queries_admitted: 3,
            queries_completed: 1,
            active_queries: 2,
            filter_reorders: 1,
            control_barriers: 4,
            barrier_wait_ns: 1_000,
            filters: vec![],
            scan_workers: vec![
                ScanWorkerStats {
                    worker: 0,
                    tuples_scanned: 600,
                    batches_sent: 6,
                    segment_passes: 1,
                },
                ScanWorkerStats {
                    worker: 1,
                    tuples_scanned: 400,
                    batches_sent: 4,
                    segment_passes: 1,
                },
            ],
            distributor_shards: vec![
                DistributorShardStats {
                    shard: 0,
                    tuples_distributed: 100,
                    routings: 150,
                    batches_drained: 4,
                    partials_emitted: 1,
                    stray_bits: 0,
                },
                DistributorShardStats {
                    shard: 1,
                    tuples_distributed: 150,
                    routings: 250,
                    batches_drained: 6,
                    partials_emitted: 1,
                    stray_bits: 0,
                },
            ],
            queued_messages: 0,
            pool_hits: 5,
            pool_misses: 5,
            tuples_allocated: 100,
            tuples_recycled: 900,
            role_failures: 0,
            pipeline_restarts: 0,
            columnar: None,
            scheduler: crate::scheduler::SchedulerStats::default(),
            ingest: IngestStats::default(),
        };
        assert!((stats.survival_rate() - 0.25).abs() < 1e-12);
        assert!((stats.pool_hit_rate() - 0.5).abs() < 1e-12);
        assert!((stats.tuple_recycle_rate() - 0.9).abs() < 1e-12);
        assert_eq!(
            stats.shard_tuples_distributed(),
            stats.tuples_distributed,
            "per-shard counters sum to the pipeline total"
        );
        assert_eq!(stats.shard_routings(), stats.routings);
        assert_eq!(
            stats.scan_worker_tuples_scanned(),
            stats.tuples_scanned,
            "per-worker scan counters sum to the pipeline total"
        );
        assert_eq!(stats.scan_worker_batches_sent(), stats.batches_sent);
        assert_eq!(stats.scan_worker_segment_passes(), stats.scan_passes);
        let zero = PipelineStats {
            tuples_scanned: 0,
            pool_hits: 0,
            pool_misses: 0,
            tuples_allocated: 0,
            tuples_recycled: 0,
            ..stats
        };
        assert_eq!(zero.survival_rate(), 0.0);
        assert_eq!(zero.pool_hit_rate(), 0.0);
        assert_eq!(zero.tuple_recycle_rate(), 0.0);
    }
}
