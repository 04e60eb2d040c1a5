//! The public CJOIN engine: query admission, finalization and pipeline lifecycle.
//!
//! [`CjoinEngine::start`] builds the always-on pipeline (continuous scan →
//! Preprocessor → Distributor shards) and the supervisor thread. The scan
//! front-end is `CjoinConfig::scan_workers` scan workers, one by default, each
//! over its own segment of the fact table (see [`crate::preprocessor`]). The
//! shards are `CjoinConfig::distributor_shards` threads, sized from the host by
//! default, each fed whole batches by the scan workers and running the whole
//! Filter chain and the aggregation on them (see [`crate::pipeline`] and
//! [`crate::distributor`]). Queries are
//! registered at any time with [`CjoinEngine::submit`], which performs Algorithm 1 of
//! the paper on the caller's thread (the Pipeline Manager work runs concurrently with
//! the pipeline, which keeps flowing while dimension hash tables are updated) and
//! returns a [`QueryHandle`] whose [`QueryHandle::wait`] blocks until the continuous
//! scan has wrapped around the query's starting tuple and its result is complete.
//!
//! The paper's Pipeline Manager has no thread here. Its clean-up after a
//! finished query (§3.3.2, Algorithm 2: dimension hash tables, Filters, the
//! query id) runs on the aggregation shard that delivers the result, just
//! before it delivers, so an `Ok` result means the query is already cleaned
//! up. Its run-time re-optimisation of the Filter order from observed
//! selectivities (§3.4) runs on the supervisor's timer.
//!
//! # Supervision
//!
//! Every pipeline role runs under [`spawn_supervised`]: a panic becomes a
//! [`RoleFailure`] on the supervisor's channel instead of a silently dead
//! thread. The supervisor thread then:
//!
//! 1. takes the pipeline out of service (no new query can install against it),
//! 2. resolves every in-flight query to [`QueryError::StageFailed`] — *before*
//!    the teardown, so the first-wins latch in [`QueryRuntime`] guarantees an
//!    end tuple that still reaches a shard can never surface a truncated result
//!    as `Ok`,
//! 3. tears the old pipeline down without ever blocking on a dead consumer
//!    (see `teardown_core`),
//! 4. steps the failed axis down to width 1 — fewer threads running the same
//!    code (scan workers, distributor shards); a scan worker
//!    that dies at width 1 falls back from the columnar replica to the row
//!    store — and
//! 5. respawns the pipeline, leaving the engine serviceable for fresh queries.
//!
//! Resolution of every registered query is owned by exactly one party: the
//! pipeline on success, the supervisor (or engine shutdown) on failure. An
//! install a scan worker never received therefore does not roll itself back,
//! it lets the supervisor's registry drain fail it, so a query id is never
//! released twice.
//!
//! The same supervisor loop doubles as the deadline reaper: queries submitted
//! with [`StarQuery::deadline`] are resolved to
//! [`QueryError::DeadlineExceeded`] and retired from the scan once their
//! deadline passes, and admission pre-sheds queries whose deadline is already
//! shorter than the last observed full scan pass
//! ([`QueryError::ShedAtAdmission`]).
//!
//! # Widths and the replica
//!
//! The engine's current configuration is the one source of every width (see
//! [`crate::scheduler`]). Only the supervisor changes it at run time, by
//! stepping a failed axis down before it respawns the pipeline; the change is
//! recorded in a bounded resize log. A running pipeline is never replaced for
//! any other reason.
//!
//! With `CjoinConfig::columnar_scan`, the engine builds the columnar replica
//! once, at start; a respawned pipeline reads the same one. A commit, under
//! the ingest mutex, encodes the row groups its rows completed into a replica
//! that shares every older group, and hands it to the running scan workers,
//! which adopt it between two chunks (see [`crate::preprocessor`]). In-flight
//! queries keep their pass, their progress and their place in the scan.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use cjoin_common::{Error, FxHashMap, QueryId, QueryIdAllocator, QuerySet, Result};
use cjoin_query::{QueryError, QueryOutcome, QueryResult, StarQuery};
use cjoin_storage::{
    apply_record, segment_ranges, Catalog, ColumnarTable, CompressionPolicy, ContinuousScan, Row,
    ScanVolume, Value, WalRecord, WarehouseLog, DEFAULT_ROW_GROUP_ROWS,
};

use crate::colscan::ReplicaScan;
use crate::config::{host_cores, shard_width_for, CjoinConfig};
use crate::dimension::DimensionTable;
use crate::distributor::{Cleanup, Distributor, MergeSlots};
use crate::fault::{inject, FaultSite};
use crate::filter::FilterChain;
use crate::optimizer::reorder_filters;
use crate::pipeline::{spawn_supervised, RoleFailure, RoleKind, SupervisorEvent};
use crate::pool::BatchPool;
use crate::preprocessor::{
    send_to_workers, start_query, Preprocessor, PreprocessorCommand, PreprocessorContext,
};
use crate::progress::QueryProgress;
use crate::queue::{ShardQueues, ShardSenders};
use crate::scheduler::{Axis, ResizeEvent, ResizeLog, SchedulerStats};
use crate::stats::{
    ColumnarScanStats, FilterStatsSnapshot, IngestCounters, PipelineStats, ScanWorkerCounters,
    ShardCounters, SharedCounters,
};
use crate::tuple::QueryRuntime;

/// A registered query's admission-side bookkeeping (used by Algorithm 2 at cleanup).
#[derive(Debug)]
struct Registered {
    referenced_dims: Vec<String>,
}

/// State shared between admissions (caller threads), the shards that clean
/// finished queries up and the supervisor. Its place in the lock order is
/// stated once, in [`crate::distributor`].
#[derive(Debug)]
struct AdmissionState {
    allocator: QueryIdAllocator,
    registered: FxHashMap<u32, Registered>,
    /// Active queries' runtimes, for the supervisor (fail them all on a role
    /// death) and the deadline reaper.
    runtimes: FxHashMap<u32, Arc<QueryRuntime>>,
    /// `dim_slots[s]` = name of the dimension that owns in-flight-tuple slot
    /// `s`. A dimension is given a slot the first time a query joins it and
    /// keeps it for the engine's lifetime, however often its Filter is retired
    /// and re-created, so the slot count — and with it every pooled tuple's
    /// `dims` vector — is bounded by the number of distinct dimensions ever
    /// joined instead of growing with Filter churn. (Why a re-created Filter
    /// may inherit the slot: "Control-tuple ordering" in
    /// [`crate::preprocessor`].)
    dim_slots: Vec<String>,
}

impl AdmissionState {
    /// The slot of `dimension`, assigned on first use; publishes the new count
    /// to `slot_count` (what the scan front-end sizes tuples by).
    fn slot_of(&mut self, dimension: &str, slot_count: &AtomicUsize) -> usize {
        if let Some(slot) = self.dim_slots.iter().position(|d| d == dimension) {
            return slot;
        }
        self.dim_slots.push(dimension.to_string());
        slot_count.store(self.dim_slots.len(), Ordering::Release);
        self.dim_slots.len() - 1
    }
}

/// The admission work a query did on one dimension it joins (Algorithm 1,
/// lines 11–16): a clock-free measure of its submission cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionAdmission {
    /// The dimension table.
    pub dimension: String,
    /// Visible dimension rows `σ_cij` was evaluated on: those of the pages the
    /// predicate's page test could not rule out.
    pub rows_evaluated: u64,
    /// Keys registered into the dimension hash table: the rows `σ_cij` selected.
    pub keys_registered: u64,
}

/// Handle to a query registered with the CJOIN pipeline.
#[derive(Debug)]
pub struct QueryHandle {
    id: QueryId,
    name: String,
    result_rx: Receiver<QueryOutcome>,
    submitted_at: Instant,
    submission_time: Duration,
    admission: Vec<DimensionAdmission>,
    progress: Arc<QueryProgress>,
    /// Cancellation hooks: the runtime and the scan workers' command channels
    /// (`None` for queries shed at admission, which never entered the
    /// pipeline). The runtime is held weakly so the handle never pins the
    /// result channel of a query the pipeline already dropped.
    cancel: Option<(Weak<QueryRuntime>, Workers)>,
}

impl QueryHandle {
    /// The CJOIN-internal id assigned to the query.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The query's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time spent in admission: from submission until the query-start control
    /// tuple was on every lane and the install on every scan worker's channel
    /// (the paper's "submission time", Tables 1–3).
    pub fn submission_time(&self) -> Duration {
        self.submission_time
    }

    /// The admission work per joined dimension, in the query's clause order;
    /// empty for a query shed at admission.
    pub fn admission_work(&self) -> &[DimensionAdmission] {
        &self.admission
    }

    /// Blocks until the query resolves: its result on success, or a typed
    /// [`QueryError`] if a pipeline role died, the deadline passed, the query
    /// was cancelled, or it was shed at admission. Never hangs on a dead
    /// pipeline — the supervisor resolves in-flight queries on failure, and a
    /// torn-down pipeline dropping the runtime disconnects the channel.
    pub fn wait(self) -> QueryOutcome {
        match self.result_rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(QueryError::StageFailed {
                role: "pipeline".into(),
                detail: "pipeline shut down before the query completed".into(),
            }),
        }
    }

    /// Blocks until the query completes, returning the result together with the
    /// total response time (submission to completion).
    ///
    /// # Errors
    /// Fails with the query's typed [`QueryError`] (converted to [`Error`]) if
    /// it did not complete.
    pub fn wait_with_time(self) -> Result<(QueryResult, Duration)> {
        let started = self.submitted_at;
        let result = self.wait().map_err(Error::from)?;
        Ok((result, started.elapsed()))
    }

    /// Returns the outcome if it is already available, without blocking.
    pub fn try_result(&self) -> Option<QueryOutcome> {
        self.result_rx.try_recv().ok()
    }

    /// Cancels the query: the handle resolves to [`QueryError::Cancelled`] and
    /// the scan front-end retires the query at its next command boundary
    /// (partial state released through the normal finalize path, so
    /// exactly-once bookkeeping and id recycling are preserved). No-op if the
    /// query already resolved.
    pub fn cancel(&self) {
        let Some((runtime, workers)) = &self.cancel else {
            return;
        };
        let Some(runtime) = runtime.upgrade() else {
            return;
        };
        runtime.mark_cancelled();
        if runtime.resolve(Err(QueryError::Cancelled)) {
            send_to_workers(workers, || PreprocessorCommand::Cancel { id: self.id });
        }
    }

    /// The query's progress tracker (§3.2.3): the continuous scan position serves as
    /// a reliable progress indicator, and the observed rate gives an estimated time
    /// of completion.
    pub fn progress(&self) -> &Arc<QueryProgress> {
        &self.progress
    }
}

/// Each scan worker's own command channel, in worker order.
type Workers = Arc<[Sender<PreprocessorCommand>]>;

struct PipelineThreads {
    /// Scan front-end: one thread per scan worker.
    scan_workers: Vec<JoinHandle<()>>,
    /// Distributor shards: one thread per shard.
    distributors: Vec<JoinHandle<()>>,
}

/// One incarnation of the always-on pipeline: its threads, queues, per-core
/// counters and scan layout. The supervisor replaces the whole core after a
/// role failure; state that must survive restarts (filter chain, dimension
/// tables, admission registry, global counters) lives in [`EngineShared`].
struct PipelineCore {
    /// The scan workers' command channels; their number is the scan width.
    workers: Workers,
    /// Sender-only handle to the shard lanes: each shard worker is the sole
    /// receiver of its own.
    shards: ShardSenders,
    pool: Arc<BatchPool>,
    shard_counters: Vec<Arc<ShardCounters>>,
    scan_worker_counters: Vec<Arc<ScanWorkerCounters>>,
    /// The byte accounting of the scan workers' reads from the columnar
    /// replica (`None` when they have none).
    columnar: Option<Arc<ScanVolume>>,
    threads: PipelineThreads,
}

/// State shared by the engine facade, the pipeline core(s) and the supervisor;
/// everything here survives a pipeline restart.
struct EngineShared {
    catalog: Arc<Catalog>,
    /// The engine-lifetime concurrency cap (never degraded: bit-vector widths
    /// and the id allocator are sized by it).
    max_concurrency: usize,
    chain: Arc<FilterChain>,
    slot_count: Arc<AtomicUsize>,
    counters: Arc<SharedCounters>,
    admission: Arc<Mutex<AdmissionState>>,
    /// The current — possibly degraded — configuration: the one
    /// source of the widths every (re)spawn uses.
    config: Mutex<CjoinConfig>,
    /// Every width change since start. Lock order: after config.
    resizes: Mutex<ResizeLog>,
    /// `available_parallelism()` at engine start.
    cores: usize,
    /// Whether the engine started at the host-derived shard width.
    host_sized_shards: bool,
    /// The live pipeline; `None` while the supervisor is replacing it (or if a
    /// respawn failed, in which case submissions report the engine down).
    core: Mutex<Option<PipelineCore>>,
    shutdown_flag: Arc<AtomicBool>,
    failure_tx: Sender<SupervisorEvent>,
    /// Human-readable log of degradations the supervisor applied.
    degradations: Mutex<Vec<String>>,
    /// The write-ahead log behind the durable ingestion path (`None` without
    /// `CjoinConfig::wal_path`). Serializes ingestion batches: exactly one
    /// commit is in flight at a time, which is the single-writer premise of
    /// the log's concurrency argument. Nothing takes this lock while holding
    /// the core lock.
    ingest: Mutex<Option<WarehouseLog>>,
    /// Durable-ingestion counters surfaced through [`PipelineStats::ingest`].
    ingest_counters: IngestCounters,
    /// The columnar replica (`CjoinConfig::columnar_scan`): built at start,
    /// grown under the ingest and core locks by the commits that complete row
    /// groups, dropped by a fallback to the row store. Lock order: after core.
    replica: Mutex<Option<Arc<ColumnarTable>>>,
}

/// The CJOIN engine: one always-on pipeline over a catalog's fact table.
pub struct CjoinEngine {
    shared: Arc<EngineShared>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl CjoinEngine {
    /// Starts the always-on pipeline over `catalog`'s fact table.
    ///
    /// # Errors
    /// Fails if the configuration is invalid or the catalog has no fact table.
    pub fn start(catalog: Arc<Catalog>, config: CjoinConfig) -> Result<Self> {
        config.validate()?;
        // Durable ingestion: replay the WAL into the catalog *before* the
        // pipeline spawns, so the continuous scan (and the columnar replica,
        // which is built from the fact table right after) sees every recovered
        // row, and the snapshot watermark is already past every recovered
        // epoch. Replay truncates any torn tail, so the log then opens at a
        // clean record boundary for appending.
        let mut recovery_truncations = 0;
        let ingest_log = if let Some(path) = &config.wal_path {
            inject(&config.fault_plan, FaultSite::WalReplay);
            let report = WarehouseLog::replay_into(path, &catalog)?;
            if let (Some(at), Some(defect)) = (report.truncated_at, report.defect) {
                recovery_truncations = 1;
                eprintln!(
                    "cjoin: wal recovery truncated {} at byte {at} ({defect}); \
                     {} records of {} committed epochs recovered, {} uncommitted discarded",
                    path.display(),
                    report.records_applied,
                    report.epochs_committed,
                    report.uncommitted_discarded,
                );
            }
            Some(WarehouseLog::open(path, config.wal_sync)?)
        } else {
            None
        };
        // A configured fault plan's corrupt row groups have their bits flipped
        // before the replica is shared, so their checksums fail on first
        // decode and the scan quarantines them onto the row store.
        let replica = if config.columnar_scan {
            let fact = catalog.fact_table()?;
            let mut replica = ColumnarTable::from_table(&fact, CompressionPolicy::Adaptive)?;
            for &group in config.fault_plan.iter().flat_map(|p| p.corrupt_groups()) {
                replica.corrupt_group(group);
            }
            Some(Arc::new(replica))
        } else {
            None
        };
        let (failure_tx, failure_rx) = unbounded();
        let cores = host_cores();
        let shared = Arc::new(EngineShared {
            max_concurrency: config.max_concurrency,
            chain: Arc::new(FilterChain::new()),
            slot_count: Arc::new(AtomicUsize::new(0)),
            counters: SharedCounters::new(),
            admission: Arc::new(Mutex::new(AdmissionState {
                allocator: QueryIdAllocator::new(config.max_concurrency),
                registered: FxHashMap::default(),
                runtimes: FxHashMap::default(),
                dim_slots: Vec::new(),
            })),
            config: Mutex::new(config.clone()),
            resizes: Mutex::new(ResizeLog::default()),
            cores,
            host_sized_shards: config.distributor_shards == shard_width_for(cores),
            core: Mutex::new(None),
            shutdown_flag: Arc::new(AtomicBool::new(false)),
            failure_tx,
            degradations: Mutex::new(Vec::new()),
            catalog,
            ingest: Mutex::new(ingest_log),
            ingest_counters: IngestCounters::default(),
            replica: Mutex::new(replica),
        });
        shared
            .ingest_counters
            .recovery_truncations
            .store(recovery_truncations, Ordering::Relaxed);
        let core = Self::spawn_pipeline(&shared, &config)?;
        *shared.core.lock() = Some(core);
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cjoin-supervisor".into())
                .spawn(move || run_supervisor(shared, failure_rx))
                .map_err(|e| Error::invalid_state(format!("failed to spawn supervisor: {e}")))?
        };
        Ok(Self {
            shared,
            supervisor: Mutex::new(Some(supervisor)),
        })
    }

    /// Builds and spawns one pipeline incarnation against `config`.
    ///
    /// Engine-lifetime state (filter chain, dimension tables, admission
    /// registry, global counters) comes from `shared`, so queries admitted
    /// after a supervisor restart still see their registered dimensions;
    /// everything spawned here (threads, queues, scan layout, per-core
    /// counters) belongs to the returned [`PipelineCore`] and dies with it.
    fn spawn_pipeline(shared: &Arc<EngineShared>, config: &CjoinConfig) -> Result<PipelineCore> {
        /// Capacity, in messages, of each shard's lane.
        const QUEUE_CAPACITY: usize = 8;

        let fact = shared.catalog.fact_table()?;
        let failure_tx = shared.failure_tx.clone();

        let (scan_workers, shards) = (config.scan_workers, config.distributor_shards);
        let chain = Arc::clone(&shared.chain);
        let counters = Arc::clone(&shared.counters);
        let shard_counters = ShardCounters::new_vec(shards);
        let scan_worker_counters = ScanWorkerCounters::new_vec(scan_workers);
        // Enough pooled batches for every lane position plus the threads working
        // on one: each scan worker's working/leftover batches, and each shard's
        // lane and the batch it drains.
        let pool_capacity = 2 * scan_workers + shards * (QUEUE_CAPACITY + 1);
        let pool = BatchPool::new(pool_capacity);

        // `columnar_scan`: the engine's replica of the fact table; the scan
        // reads the chunks it covers from it and every other row (past its
        // last group, or quarantined) from the row store. A fallback to the
        // row store drops it.
        let replica = {
            let mut slot = shared.replica.lock();
            slot.take_if(|_| !config.columnar_scan);
            slot.clone()
        };
        let columnar = replica
            .as_ref()
            .map(|_| Arc::new(ScanVolume::with_columns(fact.schema().arity())));

        // The fact table's page range is split into one static segment per scan
        // worker; the last segment's end is open so appended rows are picked up on
        // the next pass. With a replica the boundaries are aligned to row groups
        // instead of heap pages, so zone-map skipping never has to split a group
        // between two workers.
        let segment_unit = if columnar.is_some() {
            DEFAULT_ROW_GROUP_ROWS
        } else {
            fact.rows_per_page()
        };
        let scan_ranges = segment_ranges(fact.len() as u64, segment_unit, scan_workers);

        // One lane per shard. The lanes' receivers go to the shard workers alone
        // (`shard_queues` drops at the end of this function), so a dead shard
        // surfaces to its producers as a send error rather than a blocked send.
        let shard_queues = ShardQueues::new(shards, QUEUE_CAPACITY);
        let shard_txs = shard_queues.senders();

        // Scan front-end: one worker per scan range, each with its own command
        // channel.
        let (workers, worker_rxs): (Vec<_>, Vec<_>) =
            scan_ranges.iter().map(|_| unbounded()).unzip();
        let mut scan_worker_handles = Vec::with_capacity(scan_workers);
        for (worker, (&(start, end), commands)) in scan_ranges.iter().zip(worker_rxs).enumerate() {
            let context = PreprocessorContext {
                worker,
                shards: shard_txs.clone(),
                pool: Arc::clone(&pool),
                slot_count: Arc::clone(&shared.slot_count),
                chain: Arc::clone(&chain),
                counters: Arc::clone(&counters),
                worker_counters: Arc::clone(&scan_worker_counters[worker]),
                config: config.clone(),
                snapshots: Arc::clone(shared.catalog.snapshots()),
            };
            let scan = ContinuousScan::new(Arc::clone(&fact)).with_segment(start, end);
            let replica = replica
                .as_ref()
                .zip(columnar.as_ref())
                .map(|(replica, volume)| ReplicaScan::new(Arc::clone(replica), Arc::clone(volume)));
            let mut preprocessor = Preprocessor::new(scan, replica, commands, context);
            scan_worker_handles.push(spawn_supervised(
                RoleKind::ScanWorker(worker),
                failure_tx.clone(),
                move || preprocessor.run(),
            ));
        }

        // The shards, over one set of merge slots: each runs the Filter chain
        // and aggregates its lane's batches. The shard that finishes a query
        // runs Algorithm 2 for it.
        let merge = MergeSlots::new(config.max_concurrency, shards);
        let cleanup: Cleanup = {
            let chain = Arc::clone(&chain);
            let admission = Arc::clone(&shared.admission);
            Arc::new(move |id| cleanup_query(id, &chain, &admission))
        };
        let mut distributor_handles = Vec::with_capacity(shards);
        for (shard, shard_counter) in shard_counters.iter().enumerate() {
            let mut distributor = Distributor::new(
                shard_queues.receiver(shard),
                Arc::clone(&chain),
                Arc::clone(&pool),
                Arc::clone(&counters),
                Arc::clone(shard_counter),
                Arc::clone(&merge),
                Arc::clone(&cleanup),
            )
            .with_faults(config.fault_plan.clone());
            distributor_handles.push(spawn_supervised(
                RoleKind::DistributorShard(shard),
                failure_tx.clone(),
                move || distributor.run(),
            ));
        }

        Ok(PipelineCore {
            workers: workers.into(),
            shards: shard_txs,
            pool,
            shard_counters,
            scan_worker_counters,
            columnar,
            threads: PipelineThreads {
                scan_workers: scan_worker_handles,
                distributors: distributor_handles,
            },
        })
    }

    /// The engine's current — possibly supervisor-degraded — configuration.
    pub fn config(&self) -> CjoinConfig {
        self.shared.config.lock().clone()
    }

    /// The catalog the engine runs over.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// Number of currently registered queries.
    pub fn active_queries(&self) -> usize {
        self.shared.admission.lock().registered.len()
    }

    /// Human-readable log of the graceful degradations the supervisor applied
    /// after role failures (empty while the pipeline runs at full layout).
    pub fn degradations(&self) -> Vec<String> {
        self.shared.degradations.lock().clone()
    }

    /// The completion-time quote admission sheds deadlines against: measured
    /// submission time (EWMA, see [`QueryHandle::submission_time`]) plus one
    /// full scan cycle at the scan's current rate. `None` until a first pass
    /// completes (nothing measured yet — deadline queries are then admitted
    /// optimistically).
    ///
    /// The cycle term prefers the *live* in-pass rate — rows covered and busy
    /// time accumulated in the current pass, extrapolated to the full cycle —
    /// once the pass has covered enough rows for the sample to mean something;
    /// otherwise it falls back to the last completed pass's busy time. Both
    /// clocks count only busy scan time, so an engine that idled mid-pass
    /// quotes its true scan cost instead of the idle-inflated wall time that
    /// used to over-shed, and the EWMA term covers admission's own cost, whose
    /// omission used to cause under-shedding.
    pub fn quote_eta(&self) -> Option<Duration> {
        let c = &self.shared.counters;
        let last_pass_ns = c.last_pass_ns.load(Ordering::Relaxed);
        let cycle_rows = c.cycle_rows.load(Ordering::Relaxed);
        let live_rows = c.pass_rows.load(Ordering::Relaxed);
        let live_busy_ns = c.pass_busy_ns.load(Ordering::Relaxed);
        // A live sample is trustworthy once it covers a quarter of the cycle
        // (and at least a batch or two, so a fresh pass doesn't extrapolate
        // from noise).
        let live_is_meaningful =
            cycle_rows > 0 && live_busy_ns > 0 && live_rows >= (cycle_rows / 4).max(128);
        let cycle_ns = if live_is_meaningful {
            (live_busy_ns as u128 * cycle_rows as u128 / live_rows as u128) as u64
        } else {
            last_pass_ns
        };
        if cycle_ns == 0 {
            return None;
        }
        let install_ns = c.install_ns_ewma.load(Ordering::Relaxed);
        Some(Duration::from_nanos(install_ns.saturating_add(cycle_ns)))
    }

    /// Registers a star query with the always-on pipeline (Algorithm 1) and returns a
    /// handle to wait for its result.
    ///
    /// # Errors
    /// Fails if the engine is shut down, the query does not bind against the catalog,
    /// the `maxConc` limit is reached, or the query joins a dimension through
    /// different key columns than an earlier query (role-playing dimensions are not
    /// supported by a single CJOIN operator).
    pub fn submit(&self, query: StarQuery) -> Result<QueryHandle> {
        if self.shared.shutdown_flag.load(Ordering::Acquire) {
            return Err(Error::invalid_state("engine is shut down"));
        }
        let submitted_at = Instant::now();
        let bound = query.bind(&self.shared.catalog)?;
        let snapshot = bound
            .snapshot
            .unwrap_or_else(|| self.shared.catalog.snapshots().current());

        // ---- Deadline admission control ----------------------------------------
        // A fresh query must wait for at least one full scan cycle, so if the
        // quoted completion estimate already exceeds the query's deadline,
        // admitting it would only burn shared-scan work on a result nobody can
        // use in time: shed it now, without touching any pipeline state. The
        // quote comes from `quote_eta` — install-latency EWMA plus one cycle at
        // the scan's *current measured rate* — not the raw last full-pass wall
        // time, which over-shed after idle periods and under-shed under
        // install backlog.
        if let Some(deadline) = query.deadline {
            if let Some(estimated) = self.quote_eta() {
                if estimated > deadline {
                    let (result_tx, result_rx) = bounded(1);
                    let _ = result_tx.send(Err(QueryError::ShedAtAdmission {
                        deadline,
                        estimated,
                    }));
                    return Ok(QueryHandle {
                        id: QueryId(u32::MAX),
                        name: query.name,
                        result_rx,
                        submitted_at,
                        submission_time: submitted_at.elapsed(),
                        admission: Vec::new(),
                        progress: Arc::new(QueryProgress::new(0, 1)),
                        cancel: None,
                    });
                }
            }
        }

        // ---- Algorithm 1, lines 11–16, first half: evaluate σ_cij(Dj) ----------
        // Before any lock: the snapshot is fixed above, so the rows are the ones
        // the locks would see, the shards' clean-ups never wait on a dimension
        // scan, and a failed lookup returns before any id is allocated. Each
        // dimension page's zone maps go through the predicate's page test first,
        // so a key range over keys stored in key order reads O(pages + selected
        // rows), not all of Dj; the rows, and their `RowId` order, are the full
        // scan's.
        let mut selections = Vec::with_capacity(bound.dimensions.len());
        let mut admission_work = Vec::with_capacity(bound.dimensions.len());
        for clause in &bound.dimensions {
            let dimension = self.shared.catalog.table(&clause.table)?;
            let evaluated = Cell::new(0u64);
            let rows: Vec<(i64, Row)> = dimension
                .select_where(
                    snapshot,
                    |page| clause.predicate.may_match_page(page),
                    |row| {
                        evaluated.set(evaluated.get() + 1);
                        clause.predicate.eval(row)
                    },
                )
                .into_iter()
                .map(|(_, row)| (row.int(clause.dim_key_column), row))
                .collect();
            admission_work.push(DimensionAdmission {
                dimension: clause.table.clone(),
                rows_evaluated: evaluated.get(),
                keys_registered: rows.len() as u64,
            });
            selections.push(rows);
        }
        let fact_rows = self.shared.catalog.fact_table()?.len() as u64;

        // Hold the core lock across admission + registration (NOT across the
        // sends that put the query into the pipeline — see below). Registering
        // under the lock means a concurrent supervisor restart either finishes
        // strictly before this query registers (and it installs cleanly on the
        // fresh pipeline), or observes it in the runtimes registry and resolves
        // it like any other in-flight query. A stale start or install can never
        // corrupt a recycled id: both go to *this* core's lanes and channels,
        // and the supervisor joins a dead core's threads before it releases
        // the core lock that any new allocation needs, so the messages are
        // fenced to the dead incarnation.
        let core_guard = self.shared.core.lock();
        let Some(core) = core_guard.as_ref() else {
            return Err(Error::invalid_state("pipeline is not running"));
        };

        // ---- Algorithm 1, lines 1–16: update dimension hash tables -------------
        let mut admission = self.shared.admission.lock();
        let id = admission.allocator.allocate()?;
        let others = QuerySet::from_bits(
            self.shared.max_concurrency,
            admission.registered.keys().map(|&k| k as usize),
        );

        let mut referenced_dims = Vec::with_capacity(bound.dimensions.len());
        let mut slot_map = Vec::with_capacity(bound.dimensions.len());
        let mut admit = || -> Result<()> {
            for (clause, rows) in bound.dimensions.iter().zip(&selections) {
                let dim_table = match self.shared.chain.find(&clause.table) {
                    Some(existing) => {
                        if existing.fact_fk_column != clause.fact_fk_column
                            || existing.dim_key_column != clause.dim_key_column
                        {
                            return Err(Error::invalid_state(format!(
                                "dimension '{}' is already registered with different join columns",
                                clause.table
                            )));
                        }
                        existing
                    }
                    None => {
                        let slot = admission.slot_of(&clause.table, &self.shared.slot_count);
                        let table = Arc::new(DimensionTable::new(
                            clause.table.clone(),
                            slot,
                            clause.fact_fk_column,
                            clause.dim_key_column,
                            self.shared.max_concurrency,
                            &others,
                        ));
                        self.shared.chain.push(Arc::clone(&table));
                        table
                    }
                };
                dim_table.register_query(id, rows);
                referenced_dims.push(clause.table.clone());
                slot_map.push(dim_table.slot);
            }
            Ok(())
        };
        if let Err(e) = admit() {
            // Roll back: clear whatever this query managed to register.
            for dim in self.shared.chain.snapshot() {
                let referenced = referenced_dims.contains(&dim.name);
                let empty = dim.unregister_query(id, referenced);
                if empty {
                    self.shared.chain.remove(&dim.name);
                }
            }
            let _ = admission.allocator.release(id);
            return Err(e);
        }
        // Dimensions in the pipeline that this query does not reference implicitly
        // accept every tuple for it: one bit of each one's `bDj`, no entry walk.
        for dim in self.shared.chain.snapshot() {
            if !referenced_dims.contains(&dim.name) {
                dim.register_unreferencing_query(id);
            }
        }

        let (result_tx, result_rx) = bounded(1);
        let progress = Arc::new(QueryProgress::new(fact_rows, core.workers.len() as u64));
        let runtime = Arc::new(QueryRuntime {
            id,
            name: query.name.clone(),
            bound: Arc::new(bound),
            slot_map,
            result_tx,
            resolved: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_at: query.deadline.map(|d| submitted_at + d),
            admitted_at: submitted_at,
            snapshot,
            progress: Arc::clone(&progress),
        });
        admission
            .registered
            .insert(id.0, Registered { referenced_dims });
        admission.runtimes.insert(id.0, Arc::clone(&runtime));
        let lanes = core.shards.clone();
        let workers = Arc::clone(&core.workers);
        drop(admission);
        drop(core_guard);

        // ---- Algorithm 1, lines 17–22: the query-start tuple, then the installs ----
        // Under no lock: a send can wait on a full lane, and a shard drains its
        // lane only as long as it can take the admission mutex to clean a
        // finished query up (see "Lock order" in `crate::distributor`).
        //
        // An install some worker never received is NOT rolled back here: the
        // query is in the runtimes registry, and a gone worker belongs to a core
        // the supervisor is replacing; it resolves and cleans every registered
        // query after a role death, shutdown resolves it. Rolling back here too
        // would release the id twice, corrupting whichever later query recycled
        // it. The returned handle resolves with the owner's outcome.
        let started = start_query(&runtime, &lanes, &workers, &self.shared.counters);
        let submission_time = submitted_at.elapsed();

        // Fold this submission time into the EWMA (α = 1/8) the deadline quote
        // charges for admission overhead. Only a query every worker was sent is
        // a sample; any other measured a pipeline that is going away.
        if started {
            let install_ns = submission_time.as_nanos() as u64;
            let ewma = &self.shared.counters.install_ns_ewma;
            let prev = ewma.load(Ordering::Relaxed);
            let next = if prev == 0 {
                install_ns
            } else {
                prev - prev / 8 + install_ns / 8
            };
            ewma.store(next, Ordering::Relaxed);
        }

        if runtime.deadline_at.is_some() {
            // Nudge the supervisor so the reaper tracks the fresh deadline
            // promptly; its bounded reap interval means a stream of these can
            // never starve reaping.
            let _ = self
                .shared
                .failure_tx
                .send(SupervisorEvent::DeadlineAdmitted);
        }

        Ok(QueryHandle {
            id,
            name: query.name,
            result_rx,
            submitted_at,
            submission_time,
            admission: admission_work,
            progress,
            cancel: Some((Arc::downgrade(&runtime), workers)),
        })
    }

    /// Convenience: submits a query and blocks until its result is available.
    ///
    /// # Errors
    /// Propagates submission errors and the query's typed [`QueryError`]
    /// (converted to [`Error`]).
    pub fn execute(&self, query: StarQuery) -> Result<QueryResult> {
        self.submit(query)?.wait().map_err(Error::from)
    }

    /// A point-in-time snapshot of pipeline statistics.
    pub fn stats(&self) -> PipelineStats {
        let filters = self
            .shared
            .chain
            .snapshot()
            .iter()
            .map(|f| {
                let (tuples_in, tuples_dropped, probes, skips) = f.stats.snapshot();
                FilterStatsSnapshot {
                    dimension: f.name.clone(),
                    entries: f.len(),
                    tuples_in,
                    tuples_dropped,
                    probes,
                    skips,
                }
            })
            .collect();
        let counters = &self.shared.counters;
        let core_guard = self.shared.core.lock();
        let core = core_guard.as_ref();
        PipelineStats {
            tuples_scanned: counters.tuples_scanned.load(Ordering::Relaxed),
            batches_sent: counters.batches_sent.load(Ordering::Relaxed),
            tuples_distributed: counters.tuples_distributed.load(Ordering::Relaxed),
            routings: counters.routings.load(Ordering::Relaxed),
            scan_passes: counters.scan_passes.load(Ordering::Relaxed),
            queries_admitted: counters.queries_admitted.load(Ordering::Relaxed),
            queries_completed: counters.queries_completed.load(Ordering::Relaxed),
            active_queries: self.active_queries(),
            filter_reorders: counters.filter_reorders.load(Ordering::Relaxed),
            control_barriers: 0,
            barrier_wait_ns: 0,
            filters,
            scan_workers: core
                .map(|c| {
                    c.scan_worker_counters
                        .iter()
                        .enumerate()
                        .map(|(worker, c)| c.snapshot(worker))
                        .collect()
                })
                .unwrap_or_default(),
            distributor_shards: core
                .map(|c| {
                    c.shard_counters
                        .iter()
                        .enumerate()
                        .map(|(shard, c)| c.snapshot(shard))
                        .collect()
                })
                .unwrap_or_default(),
            queued_messages: core.map_or(0, |c| c.shards.queued()),
            pool_hits: core.map_or(0, |c| c.pool.hits()),
            pool_misses: core.map_or(0, |c| c.pool.misses()),
            tuples_allocated: counters.tuples_allocated.load(Ordering::Relaxed),
            tuples_recycled: counters.tuples_recycled.load(Ordering::Relaxed),
            role_failures: counters.role_failures.load(Ordering::Relaxed),
            pipeline_restarts: counters.pipeline_restarts.load(Ordering::Relaxed),
            columnar: core
                .and_then(|c| c.columnar.as_ref())
                .map(|volume| ColumnarScanStats {
                    bytes_scanned: volume.bytes_scanned(),
                    rows_scanned: volume.rows_scanned(),
                    row_groups_skipped: volume.row_groups_skipped(),
                    rows_predicate_skipped: volume.rows_predicate_skipped(),
                    groups_quarantined: volume.groups_quarantined(),
                    predicate_probes: volume.predicate_probes(),
                    predicate_rows: volume.predicate_rows(),
                    column_bytes: volume.column_bytes(),
                }),
            scheduler: self.scheduler_stats(),
            ingest: self.shared.ingest_counters.snapshot(),
        }
    }

    /// The current per-axis widths, the resize log and the host they were
    /// sized on.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        let config = self.config();
        SchedulerStats {
            auto_tune: self.shared.host_sized_shards,
            available_parallelism: self.shared.cores,
            scan_workers: config.scan_workers,
            stage_workers: 0,
            distributor_shards: config.distributor_shards,
            resizes: self.shared.resizes.lock().events(),
        }
    }

    /// The read-optimised columnar replica of the fact table the scan workers
    /// read, when the engine runs with `CjoinConfig::columnar_scan` (for
    /// compression-ratio reporting by the experiment harness).
    pub fn columnar_replica(&self) -> Option<Arc<ColumnarTable>> {
        self.shared.replica.lock().clone()
    }

    /// Current filter order (dimension names), for diagnostics and tests.
    pub fn filter_order(&self) -> Vec<String> {
        self.shared.chain.order()
    }

    /// Opens an ingestion session. Mutations buffer in the session and are
    /// applied atomically — and, with `CjoinConfig::wal_path` configured,
    /// durably — by [`IngestSession::commit`]; dropping the session without
    /// committing discards the batch with no trace.
    pub fn ingest_session(&self) -> IngestSession<'_> {
        IngestSession {
            shared: &self.shared,
            records: Vec::new(),
        }
    }

    /// Shuts the pipeline down and joins all threads (including the
    /// supervisor). Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown_flag.store(true, Ordering::Release);
        let core = self.shared.core.lock().take();
        if let Some(core) = core {
            teardown_core(core, false);
        }
        // The supervisor observes the shutdown flag within one tick.
        if let Some(supervisor) = self.supervisor.lock().take() {
            let _ = supervisor.join();
        }
        // Resolve queries that were still in flight so their handles don't
        // block on a registry-pinned result channel (first-wins latch: queries
        // that completed during the drain already delivered their result).
        let leftover: Vec<Arc<QueryRuntime>> = {
            let mut admission = self.shared.admission.lock();
            admission.runtimes.drain().map(|(_, rt)| rt).collect()
        };
        for runtime in leftover {
            runtime.resolve(Err(QueryError::StageFailed {
                role: "engine".into(),
                detail: "engine shut down before the query completed".into(),
            }));
        }
    }
}

impl Drop for CjoinEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One buffered ingestion batch against a [`CjoinEngine`] (see
/// [`CjoinEngine::ingest_session`]).
///
/// The commit protocol makes the batch atomic under real snapshot isolation:
///
/// 1. every record is validated against the catalog (nothing unreplayable is
///    ever logged),
/// 2. a fresh *pending* epoch is allocated from the snapshot manager — pending
///    epochs are invisible: no query can be admitted at one,
/// 3. the records are appended to the WAL under that epoch and the epoch's
///    commit marker is made durable per the configured
///    [`cjoin_storage::SyncPolicy`],
/// 4. only then are the mutations applied to the tables (`xmin` = the epoch)
///    and the epoch published through the snapshot manager's committed
///    watermark.
///
/// A crash anywhere before step 4 leaves nothing visible: queries in flight
/// are pinned at older snapshots, recovery replays only epochs whose commit
/// marker survived, and an unpublished epoch has no rows. A crash after the
/// marker is durable replays the whole batch — never a part of it.
pub struct IngestSession<'a> {
    shared: &'a Arc<EngineShared>,
    records: Vec<WalRecord>,
}

impl IngestSession<'_> {
    /// Buffers one fact row for appending.
    pub fn append_fact(&mut self, row: Vec<Value>) -> &mut Self {
        // Contiguous fact rows share one WAL record; a dimension mutation in
        // between starts a new one, preserving the batch's mutation order.
        if let Some(WalRecord::FactAppend { rows }) = self.records.last_mut() {
            rows.push(row);
        } else {
            self.records.push(WalRecord::FactAppend { rows: vec![row] });
        }
        self
    }

    /// Buffers a dimension upsert: the row whose `key_column` equals the new
    /// row's key is replaced (old versions stay visible to older snapshots).
    pub fn upsert_dimension(
        &mut self,
        table: impl Into<String>,
        key_column: usize,
        row: Vec<Value>,
    ) -> &mut Self {
        self.records.push(WalRecord::DimUpsert {
            table: table.into(),
            key_column,
            row,
        });
        self
    }

    /// Buffers a dimension delete by key.
    pub fn delete_dimension(
        &mut self,
        table: impl Into<String>,
        key_column: usize,
        key: i64,
    ) -> &mut Self {
        self.records.push(WalRecord::DimDelete {
            table: table.into(),
            key_column,
            key,
        });
        self
    }

    /// Mutation records buffered so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the session holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Discards the batch without a trace (equivalent to dropping).
    pub fn abort(self) {}

    /// Commits the batch (see the type docs for the protocol), returning what
    /// became durable and visible.
    ///
    /// # Errors
    /// Fails — with nothing visible — if a record references a missing table
    /// or violates its schema, if the engine is shut down, or on WAL I/O
    /// errors.
    ///
    /// # Panics
    /// A configured [`FaultPlan`](crate::fault::FaultPlan) torn write or
    /// scheduled panic at a WAL site panics here by design, simulating a crash
    /// mid-commit; the batch is not visible and recovery discards its torn
    /// tail.
    pub fn commit(self) -> Result<cjoin_query::IngestReceipt> {
        let shared = self.shared;
        if shared.shutdown_flag.load(Ordering::Acquire) {
            return Err(Error::invalid_state("engine is shut down"));
        }
        // Validate everything before anything is logged, so the WAL never
        // carries a record replay cannot apply.
        for record in &self.records {
            validate_record(&shared.catalog, record)?;
        }
        let records = self.records.len() as u64;
        let plan = shared.config.lock().fault_plan.clone();
        let mut log_guard = shared.ingest.lock();
        let epoch = shared.catalog.snapshots().begin();
        let mut wal_bytes = 0;
        if let Some(log) = log_guard.as_mut() {
            let batch_start = log.len();
            for record in &self.records {
                inject(&plan, FaultSite::WalAppend);
                let before = log.len();
                let end = log.append(epoch, record)?;
                if let Some(plan) = &plan {
                    if plan.take_torn_write(plan.hits(FaultSite::WalAppend)) {
                        // Simulated crash: the record reaches the disk torn in
                        // half and the "process" dies before the commit marker.
                        let torn = before + (end - before) / 2;
                        let _ = log.truncate_to(torn);
                        panic!(
                            "injected torn WAL write: log torn at byte {torn} (epoch {})",
                            epoch.0
                        );
                    }
                }
            }
            inject(&plan, FaultSite::WalSync);
            wal_bytes = log.commit(epoch)?;
            shared
                .ingest_counters
                .sync_ns
                .store(log.sync_ns(), Ordering::Relaxed);
            // Scheduled silent corruption inside this batch's byte range fires
            // now — after the marker is durable, so replay meets a checksum
            // mismatch in an otherwise committed region and truncates there.
            if let Some(plan) = &plan {
                for &offset in plan.wal_byte_flips() {
                    if offset >= batch_start && offset < wal_bytes {
                        log.corrupt_byte(offset)?;
                    }
                }
            }
        }
        // Durable (or no log configured): apply under the still-pending epoch,
        // then publish it. In-flight queries are pinned at older snapshots and
        // never see the rows (MVCC `xmin`); queries admitted after the publish
        // see all of them — the batch is atomic.
        for record in &self.records {
            apply_record(&shared.catalog, epoch, record)?;
        }
        shared.catalog.snapshots().commit_through(epoch);
        shared
            .ingest_counters
            .records_appended
            .fetch_add(records, Ordering::Relaxed);
        shared
            .ingest_counters
            .commits
            .fetch_add(1, Ordering::Relaxed);
        seal_groups(shared);
        drop(log_guard);
        Ok(cjoin_query::IngestReceipt {
            epoch: epoch.0,
            records,
            wal_bytes,
        })
    }
}

/// Pre-commit validation: every record must be applicable to the catalog.
fn validate_record(catalog: &Catalog, record: &WalRecord) -> Result<()> {
    match record {
        WalRecord::FactAppend { rows } => {
            let fact = catalog.fact_table()?;
            for row in rows {
                fact.schema().validate_row(row)?;
            }
        }
        WalRecord::DimUpsert {
            table,
            key_column,
            row,
        } => {
            let dim = catalog.table(table)?;
            dim.schema().validate_row(row)?;
            row.get(*key_column)
                .ok_or_else(|| {
                    Error::invalid_state(format!(
                        "dimension upsert for '{table}' has no column {key_column}"
                    ))
                })?
                .as_int()?;
        }
        WalRecord::DimDelete { table, .. } => {
            catalog.table(table)?;
        }
        WalRecord::Commit => {}
    }
    Ok(())
}

/// Encodes the row groups a commit completed into the engine's replica and
/// hands the grown replica to the running scan workers, which adopt it
/// between two chunks. The caller holds the ingest mutex, so commits seal one
/// at a time. A group the encoder refuses stays in the row-store tail, where
/// the scan reads it exactly, and the next commit tries again.
fn seal_groups(shared: &EngineShared) {
    let Some(replica) = shared.replica.lock().clone() else {
        return;
    };
    let Ok(fact) = shared.catalog.fact_table() else {
        return;
    };
    let Ok(Some(grown)) = replica.with_sealed_groups(&fact) else {
        return;
    };
    let sealed = grown.len() / grown.group_rows() - replica.len() / replica.group_rows();
    let grown = Arc::new(grown);
    let core = shared.core.lock();
    let mut slot = shared.replica.lock();
    // A scan worker's failure may have fallen back to the row store meanwhile.
    if slot.is_none() {
        return;
    }
    *slot = Some(Arc::clone(&grown));
    shared
        .ingest_counters
        .groups_sealed
        .fetch_add(sealed as u64, Ordering::Relaxed);
    // A dead worker drops the replica unsent; the supervisor's respawn reads
    // the slot.
    if let Some(core) = core.as_ref() {
        send_to_workers(&core.workers, || {
            PreprocessorCommand::Replica(Arc::clone(&grown))
        });
    }
}

impl cjoin_query::QueryTicket for QueryHandle {
    fn wait(self: Box<Self>) -> QueryOutcome {
        QueryHandle::wait(*self)
    }

    fn cancel(&self) {
        QueryHandle::cancel(self);
    }
}

impl cjoin_query::JoinEngine for CjoinEngine {
    fn name(&self) -> &str {
        "CJOIN"
    }

    fn submit(&self, query: StarQuery) -> Result<Box<dyn cjoin_query::QueryTicket>> {
        let handle = CjoinEngine::submit(self, query)?;
        Ok(Box::new(handle))
    }

    fn stats(&self) -> cjoin_query::EngineStats {
        let stats = CjoinEngine::stats(self);
        cjoin_query::EngineStats {
            queries_submitted: stats.queries_admitted,
            queries_completed: stats.queries_completed,
            active_queries: stats.active_queries,
            fact_tuples_scanned: stats.tuples_scanned,
        }
    }

    fn quote_eta(&self) -> Option<Duration> {
        CjoinEngine::quote_eta(self)
    }

    fn scheduler_summary(&self) -> Option<cjoin_query::SchedulerSummary> {
        let s = self.scheduler_stats();
        Some(cjoin_query::SchedulerSummary {
            auto_tune: s.auto_tune,
            available_parallelism: s.available_parallelism as u64,
            scan_workers: s.scan_workers as u64,
            stage_workers: s.stage_workers as u64,
            distributor_shards: s.distributor_shards as u64,
            resizes: s.resizes.len() as u64,
        })
    }

    fn ingest(&self, batch: cjoin_query::IngestBatch) -> Result<cjoin_query::IngestReceipt> {
        let mut session = self.ingest_session();
        for row in batch.facts {
            session.append_fact(row);
        }
        for upsert in batch.dim_upserts {
            session.upsert_dimension(upsert.table, upsert.key_column, upsert.row);
        }
        for delete in batch.dim_deletes {
            session.delete_dimension(delete.table, delete.key_column, delete.key);
        }
        session.commit()
    }

    fn shutdown(&self) {
        CjoinEngine::shutdown(self);
    }
}

/// Algorithm 2: remove a finished query from every dimension hash table, drop empty
/// Filters, recycle the query id and drop the supervisor's runtime registration.
/// Run by the shard that finishes the query (see [`crate::distributor`]), and by
/// the supervisor for queries no pipeline will finish.
/// Idempotent: a second call for the same id finds nothing registered.
///
/// Each table clears the id's bit on the rows the query selected there and on
/// nothing else, so the admission lock is held for O(the query's selected rows):
/// a table the query ignored costs one `bDj` bit (see [`crate::dimension`]). A
/// Filter goes once no live query references its dimension, whether or not some
/// live query ignores it.
fn cleanup_query(id: QueryId, chain: &Arc<FilterChain>, admission: &Arc<Mutex<AdmissionState>>) {
    let mut admission = admission.lock();
    admission.runtimes.remove(&id.0);
    let Some(registered) = admission.registered.remove(&id.0) else {
        return;
    };
    for dim in chain.snapshot() {
        let referenced = registered.referenced_dims.contains(&dim.name);
        let empty = dim.unregister_query(id, referenced);
        if empty {
            chain.remove(&dim.name);
        }
    }
    let _ = admission.allocator.release(id);
}

/// How often the supervisor re-derives the Filter order (§3.4).
const REORDER_EVERY: Duration = Duration::from_millis(50);

/// The supervisor thread body: reacts to role deaths with [`handle_failure`],
/// runs the deadline reaper at a *bounded* interval, and re-derives the Filter
/// order from observed drop rates (§3.4) every [`REORDER_EVERY`]. The scan
/// thread, the busiest of the pipeline, does none of that work.
///
/// The bound is the fix for reaper starvation: the loop used to reap only on
/// the `recv_timeout` Timeout arm, so every received event reset the 10ms
/// window and a sustained event stream (admission nudges, failure cascades)
/// could postpone reaping indefinitely while overdue queries sat unresolved.
/// Now `next_reap` and `next_reorder` are absolute deadlines — events shorten
/// the wait but never push either back, so no channel traffic pattern can
/// delay them beyond one tick.
fn run_supervisor(shared: Arc<EngineShared>, failure_rx: Receiver<SupervisorEvent>) {
    const TICK: Duration = Duration::from_millis(10);
    let mut next_reap = Instant::now() + TICK;
    let mut next_reorder = Instant::now() + REORDER_EVERY;
    loop {
        if shared.shutdown_flag.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        if now >= next_reap {
            reap_deadlines(&shared);
            next_reap = now + TICK;
        }
        if now >= next_reorder {
            reorder_filters(&shared.chain, &shared.counters);
            next_reorder = now + REORDER_EVERY;
        }
        let wait = next_reap
            .min(next_reorder)
            .saturating_duration_since(Instant::now());
        match failure_rx.recv_timeout(wait) {
            Ok(SupervisorEvent::Failure(failure)) => handle_failure(&shared, failure, &failure_rx),
            // A deadline query was admitted: nothing to do beyond waking up —
            // the bounded reap above picks the fresh deadline up within one
            // tick even if nudges keep streaming in.
            Ok(SupervisorEvent::DeadlineAdmitted) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Resolves every registered query to [`QueryError::StageFailed`] and releases
/// its admission state (dimension registrations, id) — what is left to do for
/// the in-flight queries of a pipeline that can no longer run them.
fn fail_all_in_flight(shared: &EngineShared, role: &str, detail: &str) {
    let failed: Vec<(u32, Arc<QueryRuntime>)> = {
        let mut admission = shared.admission.lock();
        admission.runtimes.drain().collect()
    };
    for (_, runtime) in &failed {
        runtime.mark_cancelled();
        runtime.resolve(Err(QueryError::StageFailed {
            role: role.into(),
            detail: detail.into(),
        }));
    }
    for (id, _) in &failed {
        cleanup_query(QueryId(*id), &shared.chain, &shared.admission);
    }
}

/// Moves every role failure already queued on the supervisor's channel into
/// `roles`, counting each. Benign admission nudges drained alongside are
/// dropped — the bounded reap in [`run_supervisor`] covers any deadline they
/// announced.
fn drain_failures(
    shared: &EngineShared,
    failure_rx: &Receiver<SupervisorEvent>,
    roles: &mut Vec<RoleKind>,
) {
    while let Ok(event) = failure_rx.try_recv() {
        if let SupervisorEvent::Failure(extra) = event {
            shared
                .counters
                .role_failures
                .fetch_add(1, Ordering::Relaxed);
            roles.push(extra.role);
        }
    }
}

/// Fails all in-flight queries with a typed error, tears the dead pipeline
/// down, steps the failed axis down and respawns.
///
/// The ordering is load-bearing (see the module docs and [`crate::pipeline`]):
/// queries are resolved to [`QueryError::StageFailed`] *before* the teardown,
/// so the first-wins latch guarantees no truncated result is ever delivered
/// as `Ok`.
fn handle_failure(
    shared: &Arc<EngineShared>,
    failure: RoleFailure,
    failure_rx: &Receiver<SupervisorEvent>,
) {
    shared
        .counters
        .role_failures
        .fetch_add(1, Ordering::Relaxed);
    eprintln!(
        "cjoin: pipeline role '{}' died ({}); failing in-flight queries and restarting",
        failure.role, failure.detail
    );

    // Take the pipeline out of service first: submissions block on this lock,
    // so no new query can register against the dying core or install onto it.
    let mut core_guard = shared.core.lock();
    let core = core_guard.take();

    // Resolve every in-flight query BEFORE the teardown lets any end tuple through.
    fail_all_in_flight(shared, &failure.role.to_string(), &failure.detail);

    // Collapse a cascade (several roles dying around the same incident, e.g.
    // injected panics on both a scan worker and a shard) into one restart:
    // what is already queued, and what the teardown shakes loose.
    let mut roles = vec![failure.role];
    drain_failures(shared, failure_rx, &mut roles);
    if let Some(core) = core {
        teardown_core(core, true);
    }
    drain_failures(shared, failure_rx, &mut roles);

    if shared.shutdown_flag.load(Ordering::Acquire) {
        return;
    }

    // Step each failed axis down and respawn. The torn-down scan workers
    // published their last pass timings already, so a changed scan shape can
    // forget them before any new worker publishes.
    let config = {
        let mut config = shared.config.lock();
        let scan_shape = (config.scan_workers, config.columnar_scan);
        let pass = shared.counters.scan_passes.load(Ordering::Relaxed);
        for role in &roles {
            let axis = role.axis();
            let from = *axis.width_in(&mut config);
            if let Some(note) = degrade(&mut config, axis) {
                eprintln!("cjoin: degrading after '{role}' failure: {note}");
                shared.degradations.lock().push(note);
            }
            shared.resizes.lock().push(ResizeEvent {
                axis,
                from,
                to: *axis.width_in(&mut config),
                pass,
            });
        }
        if (config.scan_workers, config.columnar_scan) != scan_shape {
            shared.counters.forget_pass_timings();
        }
        config.clone()
    };
    match CjoinEngine::spawn_pipeline(shared, &config) {
        Ok(core) => {
            shared
                .counters
                .pipeline_restarts
                .fetch_add(1, Ordering::Relaxed);
            *core_guard = Some(core);
        }
        Err(e) => {
            eprintln!("cjoin: failed to respawn the pipeline after a role failure: {e}");
        }
    }
}

/// Steps `axis`, which hosted a failed role, down to width 1 — fewer threads,
/// the same code. A scan worker that dies at width 1 falls back from the
/// columnar replica to the row store instead. Returns a description of the
/// applied step, or `None` if there is nothing left to step down (the role is
/// respawned as-is).
fn degrade(config: &mut CjoinConfig, axis: Axis) -> Option<String> {
    let from = *axis.width_in(config);
    if from > 1 {
        *axis.width_in(config) = 1;
        Some(format!("{} {from} → 1", axis.label()))
    } else if axis == Axis::ScanWorkers && config.columnar_scan {
        config.columnar_scan = false;
        Some("fell back from the columnar replica scan to the row store".into())
    } else {
        None
    }
}

/// The deadline reaper (one supervisor tick): resolves overdue queries to
/// [`QueryError::DeadlineExceeded`] and retires them from the scan through the
/// normal cancel path, so partial state is released with exactly-once
/// bookkeeping and the id recycles through the closing shard as usual. Locks
/// as [`crate::distributor`]'s lock order says.
fn reap_deadlines(shared: &Arc<EngineShared>) {
    let now = Instant::now();
    let core_guard = shared.core.lock();
    let Some(core) = core_guard.as_ref() else {
        return;
    };
    let overdue: Vec<Arc<QueryRuntime>> = {
        let admission = shared.admission.lock();
        admission
            .runtimes
            .values()
            .filter(|rt| rt.deadline_at.is_some_and(|at| now >= at))
            .map(Arc::clone)
            .collect()
    };
    for runtime in overdue {
        let deadline = runtime
            .deadline_at
            .expect("reaper only selects queries with deadlines")
            .duration_since(runtime.admitted_at);
        runtime.mark_cancelled();
        if runtime.resolve(Err(QueryError::DeadlineExceeded { deadline })) {
            send_to_workers(&core.workers, || PreprocessorCommand::Cancel {
                id: runtime.id,
            });
        }
    }
}

/// Tears one pipeline incarnation down and joins every thread.
///
/// `failed == false` is the graceful path: a shutdown message flows through
/// every lane behind the data, so each shard drains its pending batches in
/// order.
///
/// `failed == true` is the failure path, which must never block on a lane
/// whose consumer is dead. It DROPS the engine-side lane senders before
/// joining: a scan worker blocked on a dead shard's full lane gets a send
/// error (the receiver died with the shard), every other lane keeps draining,
/// and once the scan workers have exited every shard sees its lane disconnect.
/// Every query a shard finished was cleaned up before the shard moved on, so
/// nothing is left to do once the shards are joined.
fn teardown_core(core: PipelineCore, failed: bool) {
    let PipelineCore {
        workers,
        shards,
        threads,
        ..
    } = core;
    // Stop the producers first so no new data enters the pipeline.
    send_to_workers(&workers, || PreprocessorCommand::Shutdown);
    drop(workers);
    let shards = (!failed).then_some(shards);
    // A panicked thread's `Err` join result is discarded throughout: its
    // payload already travelled to the supervisor as a [`RoleFailure`].
    for handle in threads.scan_workers {
        let _ = handle.join();
    }
    // Then one shutdown per shard: nothing can send data behind it any more.
    if let Some(shards) = &shards {
        shards.broadcast_shutdown();
    }
    for handle in threads.distributors {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_query::{reference, AggFunc, AggValue, AggregateSpec, ColumnRef, Predicate};
    use cjoin_storage::{Column, Schema, SnapshotId, Table, Value};

    /// A small synthetic star schema: fact(sales) with two dimensions.
    fn small_catalog(fact_rows: i64) -> Arc<Catalog> {
        let catalog = Catalog::new();
        let color = Table::new(Schema::new(
            "color",
            vec![Column::int("k"), Column::str("name")],
        ));
        for (k, name) in [(1, "red"), (2, "green"), (3, "blue")] {
            color
                .insert(vec![Value::int(k), Value::str(name)], SnapshotId::INITIAL)
                .unwrap();
        }
        let size = Table::new(Schema::new(
            "size",
            vec![Column::int("k"), Column::str("label")],
        ));
        for (k, label) in [(1, "small"), (2, "large")] {
            size.insert(vec![Value::int(k), Value::str(label)], SnapshotId::INITIAL)
                .unwrap();
        }
        let fact = Table::with_rows_per_page(
            Schema::new(
                "sales",
                vec![
                    Column::int("colorkey"),
                    Column::int("sizekey"),
                    Column::int("amount"),
                ],
            ),
            32,
        );
        fact.insert_batch_unchecked(
            (0..fact_rows).map(|i| {
                Row::new(vec![
                    Value::int(i % 3 + 1),
                    Value::int(i % 2 + 1),
                    Value::int(i),
                ])
            }),
            SnapshotId::INITIAL,
        );
        catalog.add_table(Arc::new(color));
        catalog.add_table(Arc::new(size));
        catalog.add_fact_table(Arc::new(fact));
        Arc::new(catalog)
    }

    fn test_config() -> CjoinConfig {
        CjoinConfig::default()
            .with_max_concurrency(32)
            .with_batch_size(64)
    }

    fn red_sum_query(name: &str) -> StarQuery {
        StarQuery::builder(name)
            .join_dimension("color", "colorkey", "k", Predicate::eq("name", "red"))
            .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")))
            .aggregate(AggregateSpec::count_star())
            .build()
    }

    #[test]
    fn single_query_matches_reference() {
        let catalog = small_catalog(300);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        let query = red_sum_query("red_sum");
        let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();
        let result = engine.execute(query).unwrap();
        assert!(
            result.approx_eq(&expected),
            "diff: {:?}",
            result.diff(&expected)
        );
        engine.shutdown();
    }

    #[test]
    fn concurrent_queries_share_the_pipeline_and_all_match_reference() {
        let catalog = small_catalog(600);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        let queries: Vec<StarQuery> = vec![
            red_sum_query("q_red"),
            StarQuery::builder("q_by_color")
                .join_dimension("color", "colorkey", "k", Predicate::True)
                .group_by(ColumnRef::dim("color", "name"))
                .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")))
                .build(),
            StarQuery::builder("q_two_dims")
                .join_dimension(
                    "color",
                    "colorkey",
                    "k",
                    Predicate::in_list("name", vec!["red", "blue"]),
                )
                .join_dimension("size", "sizekey", "k", Predicate::eq("label", "large"))
                .group_by(ColumnRef::dim("size", "label"))
                .aggregate(AggregateSpec::count_star())
                .build(),
            StarQuery::builder("q_fact_only")
                .aggregate(AggregateSpec::over(AggFunc::Max, ColumnRef::fact("amount")))
                .build(),
        ];
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference::evaluate(&catalog, q, SnapshotId::INITIAL).unwrap())
            .collect();
        let handles: Vec<_> = queries
            .into_iter()
            .map(|q| engine.submit(q).unwrap())
            .collect();
        assert!(engine.active_queries() >= 1);
        for (handle, expected) in handles.into_iter().zip(expected) {
            let name = handle.name().to_string();
            let result = handle.wait().unwrap();
            assert!(
                result.approx_eq(&expected),
                "{name} diverges from reference: {:?}",
                result.diff(&expected)
            );
        }
        // Each query was cleaned up before its result was delivered.
        assert_eq!(engine.active_queries(), 0);
        let stats = engine.stats();
        assert_eq!(stats.queries_admitted, 4);
        assert_eq!(stats.queries_completed, 4);
        assert!(stats.tuples_scanned >= 600);
        engine.shutdown();
    }

    #[test]
    fn query_ids_are_recycled_after_completion() {
        let catalog = small_catalog(120);
        let config = CjoinConfig::default()
            .with_max_concurrency(2)
            .with_batch_size(32);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        // More sequential queries than maxConc: ids must be recycled.
        for i in 0..5 {
            let result = engine.execute(red_sum_query(&format!("q{i}"))).unwrap();
            assert_eq!(result.num_rows(), 1);
        }
        engine.shutdown();
    }

    /// The shard that delivers a result has already run Algorithm 2: with
    /// `maxConc` 1, back-to-back queries find the id free and the Filter gone
    /// the moment the previous result arrives, with nothing to wait for.
    #[test]
    fn an_ok_result_means_the_query_is_already_cleaned_up() {
        let catalog = small_catalog(120);
        let config = test_config().with_max_concurrency(1).with_batch_size(32);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        for round in 0..200 {
            let result = engine.execute(red_sum_query(&format!("q{round}")));
            assert_eq!(result.unwrap().num_rows(), 1, "round {round}");
            assert_eq!(engine.active_queries(), 0, "round {round}: id still held");
            assert!(
                engine.filter_order().is_empty(),
                "round {round}: Filter still in the chain"
            );
        }
        engine.shutdown();
    }

    /// Regression: every (re)created Filter used to take a fresh dimension
    /// slot, so under Filter churn the slot count — and with it the `dims`
    /// vector of every pooled tuple, resized per tuple — grew with uptime. A
    /// dimension now owns one slot for the engine's lifetime.
    #[test]
    fn filter_churn_does_not_grow_dimension_slots() {
        let catalog = small_catalog(120);
        let config = test_config().with_batch_size(32);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        let expected =
            reference::evaluate(&catalog, &red_sum_query("red"), SnapshotId::INITIAL).unwrap();
        for round in 0..100 {
            // The query alone references `color`: its Filter is created at
            // admission and retired when the query is cleaned up, before its
            // result is delivered.
            let result = engine.execute(red_sum_query(&format!("q{round}"))).unwrap();
            assert_eq!(result, expected, "round {round}");
            assert!(engine.filter_order().is_empty(), "round {round}");
        }
        assert_eq!(engine.shared.slot_count.load(Ordering::Acquire), 1);
        assert_eq!(engine.shared.admission.lock().dim_slots, ["color"]);

        // A pooled tuple still carries the `dims` vector of its last trip.
        let pool = Arc::clone(&engine.shared.core.lock().as_ref().unwrap().pool);
        let mut batch = pool.take(1);
        let (tuple, recycled) = batch.next_slot(32);
        assert!(
            recycled,
            "the pool holds batches that went round the pipeline"
        );
        assert_eq!(
            tuple.dims.len(),
            1,
            "sized by distinct dimensions, not by churn"
        );
        engine.shutdown();
    }

    #[test]
    fn max_concurrency_is_enforced() {
        let catalog = small_catalog(50_000);
        let config = CjoinConfig::default()
            .with_max_concurrency(2)
            .with_batch_size(128);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        let _h1 = engine.submit(red_sum_query("a")).unwrap();
        let _h2 = engine.submit(red_sum_query("b")).unwrap();
        let err = engine.submit(red_sum_query("c")).unwrap_err();
        assert!(matches!(err, Error::TooManyConcurrentQueries { .. }));
        engine.shutdown();
    }

    #[test]
    fn sharded_distributor_produces_identical_results() {
        let catalog = small_catalog(500);
        let config = test_config().with_distributor_shards(4);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        assert_eq!(engine.scheduler_stats().distributor_shards, 4);
        let queries = vec![
            red_sum_query("scalar"),
            StarQuery::builder("grouped")
                .join_dimension("color", "colorkey", "k", Predicate::True)
                .group_by(ColumnRef::dim("color", "name"))
                .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")))
                .aggregate(AggregateSpec::over(AggFunc::Avg, ColumnRef::fact("amount")))
                .build(),
        ];
        for query in queries {
            let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();
            let result = engine.execute(query).unwrap();
            assert!(
                result.approx_eq(&expected),
                "diff: {:?}",
                result.diff(&expected)
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.distributor_shards.len(), 4);
        assert_eq!(stats.shard_tuples_distributed(), stats.tuples_distributed);
        assert_eq!(stats.shard_routings(), stats.routings);
        assert_eq!(stats.queued_messages, 0, "quiesced pipeline");
        engine.shutdown();
    }

    #[test]
    fn sharded_scan_front_end_produces_identical_results() {
        let catalog = small_catalog(700);
        let config = test_config()
            .with_scan_workers(4)
            .with_distributor_shards(2);
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        assert_eq!(engine.scheduler_stats().scan_workers, 4);
        let queries = vec![
            red_sum_query("scalar"),
            StarQuery::builder("grouped")
                .join_dimension("color", "colorkey", "k", Predicate::True)
                .group_by(ColumnRef::dim("color", "name"))
                .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")))
                .aggregate(AggregateSpec::count_star())
                .build(),
            StarQuery::builder("fact_only")
                .aggregate(AggregateSpec::over(AggFunc::Max, ColumnRef::fact("amount")))
                .build(),
        ];
        for query in queries {
            let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();
            let result = engine.execute(query).unwrap();
            assert!(
                result.approx_eq(&expected),
                "diff: {:?}",
                result.diff(&expected)
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.scan_workers.len(), 4);
        assert_eq!(stats.scan_worker_tuples_scanned(), stats.tuples_scanned);
        assert_eq!(stats.scan_worker_batches_sent(), stats.batches_sent);
        assert!(
            stats
                .scan_workers
                .iter()
                .filter(|w| w.tuples_scanned > 0)
                .count()
                >= 2,
            "the segmented scan actually spread work: {:?}",
            stats.scan_workers
        );
        assert_eq!(stats.queued_messages, 0, "quiesced pipeline");
        engine.shutdown();
    }

    #[test]
    fn unknown_table_is_rejected_and_id_released() {
        let catalog = small_catalog(50);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        let bad = StarQuery::builder("bad")
            .join_dimension("nonexistent", "colorkey", "k", Predicate::True)
            .aggregate(AggregateSpec::count_star())
            .build();
        assert!(engine.submit(bad).is_err());
        // The failed admission must not leak a query id.
        let good = engine.execute(red_sum_query("good")).unwrap();
        assert_eq!(good.num_rows(), 1);
        engine.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_cleanly() {
        let catalog = small_catalog(50);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        engine.shutdown();
        engine.shutdown(); // idempotent
        assert!(engine.submit(red_sum_query("late")).is_err());
    }

    #[test]
    fn snapshot_queries_see_consistent_data() {
        let catalog = small_catalog(100);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        // Commit an update that adds 10 more "red" rows at a later snapshot.
        let snap_before = catalog.snapshots().current();
        let fact = catalog.fact_table().unwrap();
        let snap_after = catalog.snapshots().commit();
        for i in 0..10 {
            fact.insert(
                vec![Value::int(1), Value::int(1), Value::int(1000 + i)],
                snap_after,
            )
            .unwrap();
        }
        let old = StarQuery::builder("old_snapshot")
            .snapshot(snap_before)
            .join_dimension("color", "colorkey", "k", Predicate::eq("name", "red"))
            .aggregate(AggregateSpec::count_star())
            .build();
        let new = StarQuery::builder("new_snapshot")
            .snapshot(snap_after)
            .join_dimension("color", "colorkey", "k", Predicate::eq("name", "red"))
            .aggregate(AggregateSpec::count_star())
            .build();
        let expected_old = reference::evaluate(&catalog, &old, snap_before).unwrap();
        let expected_new = reference::evaluate(&catalog, &new, snap_after).unwrap();
        let got_old = engine.execute(old).unwrap();
        let got_new = engine.execute(new).unwrap();
        assert!(got_old.approx_eq(&expected_old));
        assert!(got_new.approx_eq(&expected_new));
        // And they differ from each other by exactly the 10 inserted rows.
        let count = |r: &QueryResult| match r.rows().next().unwrap().1[0] {
            AggValue::Int(c) => c,
            _ => panic!("expected count"),
        };
        assert_eq!(count(&got_new) - count(&got_old), 10);
        engine.shutdown();
    }

    #[test]
    fn progress_reaches_completion_and_is_monotonic() {
        for columnar_scan in [false, true] {
            let catalog = small_catalog(5_000);
            let config = test_config().with_columnar_scan(columnar_scan);
            let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
            let handle = engine.submit(red_sum_query("tracked")).unwrap();
            let progress = Arc::clone(handle.progress());
            assert_eq!(progress.rows_total(), 5_000);

            let mut last = 0.0f64;
            for _ in 0..200 {
                let f = progress.fraction();
                assert!(
                    f >= last - 1e-9,
                    "progress must not go backwards ({f} < {last})"
                );
                last = f;
                if progress.is_completed() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let _ = handle.wait().unwrap();
            assert!(progress.is_completed());
            assert_eq!(progress.fraction(), 1.0);
            assert_eq!(progress.estimated_remaining(), Some(Duration::ZERO));
            // The chunk in which the wrap-around is detected is not the
            // query's: it was retired before that chunk was counted.
            assert_eq!(
                progress.rows_seen(),
                progress.rows_total(),
                "columnar_scan {columnar_scan}: one pass is exactly the table"
            );
            engine.shutdown();
        }
    }

    #[test]
    fn client_cancel_resolves_with_cancelled_and_engine_stays_serviceable() {
        let catalog = small_catalog(200_000);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        let handle = engine.submit(red_sum_query("doomed")).unwrap();
        handle.cancel();
        match handle.wait() {
            Err(QueryError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The cancelled query retires through the normal finalize path, so the
        // engine keeps serving fresh queries with exact results.
        let query = red_sum_query("after_cancel");
        let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();
        let result = engine.execute(query).unwrap();
        assert!(result.approx_eq(&expected), "{:?}", result.diff(&expected));
        engine.shutdown();
    }

    #[test]
    fn unreachable_deadline_is_shed_at_admission() {
        let catalog = small_catalog(300);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        // Pretend the last full scan pass took 10s; a 1ms deadline is hopeless.
        engine
            .shared
            .counters
            .last_pass_ns
            .store(10_000_000_000, Ordering::Relaxed);
        let doomed = StarQuery::builder("doomed")
            .join_dimension("color", "colorkey", "k", Predicate::eq("name", "red"))
            .aggregate(AggregateSpec::count_star())
            .deadline(Duration::from_millis(1))
            .build();
        let handle = engine.submit(doomed).unwrap();
        match handle.wait() {
            Err(QueryError::ShedAtAdmission {
                deadline,
                estimated,
            }) => {
                assert_eq!(deadline, Duration::from_millis(1));
                assert_eq!(estimated, Duration::from_secs(10));
            }
            other => panic!("expected ShedAtAdmission, got {other:?}"),
        }
        // Shedding touched no pipeline state: no id leaked, fresh queries run.
        assert_eq!(engine.active_queries(), 0);
        let result = engine.execute(red_sum_query("after_shed")).unwrap();
        assert_eq!(result.num_rows(), 1);
        engine.shutdown();
    }

    #[test]
    fn overdue_query_is_reaped_with_deadline_exceeded() {
        use crate::fault::{FaultPlan, FaultSite};
        let catalog = small_catalog(20_000);
        // Slow every scan step down so the pass takes much longer than the
        // deadline, deterministically.
        let config = test_config().with_fault_plan(
            FaultPlan::seeded(1)
                .delay(FaultSite::ScanWorker, 2_000)
                .build(),
        );
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
        let slow = StarQuery::builder("slow")
            .join_dimension("color", "colorkey", "k", Predicate::eq("name", "red"))
            .aggregate(AggregateSpec::count_star())
            .deadline(Duration::from_millis(40))
            .build();
        let started = Instant::now();
        let handle = engine.submit(slow).unwrap();
        match handle.wait() {
            Err(QueryError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::from_millis(40));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The reaper fires within a couple of ticks of the deadline, not after
        // the (much longer) full pass.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "reaper should not wait for the pass to finish"
        );
        engine.shutdown();
    }

    /// An install no worker received is not an admission-latency sample. The
    /// first query reaches the scan worker; then the worker is told to shut
    /// down on its own command channel, and once it has exited the second
    /// query's install finds the channel closed. Its `submit` sees the failed
    /// send, and the EWMA behind `quote_eta` must not move. The second query
    /// resolves when the engine shuts down; the first may have finished
    /// before the worker stopped.
    #[test]
    fn an_install_no_worker_received_is_not_a_latency_sample() {
        let catalog = small_catalog(300);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        let ewma = &engine.shared.counters.install_ns_ewma;

        let installed = engine.submit(red_sum_query("installed")).unwrap();
        let after_installed = ewma.load(Ordering::Relaxed);
        assert!(after_installed > 0, "a received install is a sample");

        {
            let core = engine.shared.core.lock();
            let core = core.as_ref().unwrap();
            assert!(send_to_workers(&core.workers, || {
                PreprocessorCommand::Shutdown
            }));
            while !core
                .threads
                .scan_workers
                .iter()
                .all(JoinHandle::is_finished)
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let lost = engine.submit(red_sum_query("lost")).unwrap();
        assert_eq!(ewma.load(Ordering::Relaxed), after_installed);
        assert!(lost.try_result().is_none(), "nobody resolved it yet");
        engine.shutdown();
        assert!(matches!(
            installed.wait(),
            Ok(_) | Err(QueryError::StageFailed { .. })
        ));
        assert!(matches!(lost.wait(), Err(QueryError::StageFailed { .. })));
    }

    /// Regression test for reaper starvation: the supervisor used to reap only
    /// on the `recv_timeout` *Timeout* arm, so any event stream with
    /// inter-arrival under the 10ms tick postponed reaping indefinitely — an
    /// overdue query would quietly run to completion instead of being
    /// reaped. With the bounded inter-reap interval, the flood below cannot
    /// starve the reaper and the overdue query resolves to DeadlineExceeded.
    #[test]
    fn reaper_fires_under_sustained_supervisor_channel_traffic() {
        use crate::fault::{FaultPlan, FaultSite};
        let catalog = small_catalog(20_000);
        let config = test_config().with_fault_plan(
            FaultPlan::seeded(1)
                .delay(FaultSite::ScanWorker, 2_000)
                .build(),
        );
        let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();

        // Flood the supervisor's channel with benign events far faster than
        // its reap tick, for the whole lifetime of the overdue query.
        let flood_tx = engine.shared.failure_tx.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flooder = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let _ = flood_tx.send(SupervisorEvent::DeadlineAdmitted);
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };

        let slow = StarQuery::builder("slow_under_flood")
            .join_dimension("color", "colorkey", "k", Predicate::eq("name", "red"))
            .aggregate(AggregateSpec::count_star())
            .deadline(Duration::from_millis(40))
            .build();
        let started = Instant::now();
        let handle = engine.submit(slow).unwrap();
        let outcome = handle.wait();
        stop.store(true, Ordering::Release);
        flooder.join().unwrap();

        match outcome {
            Err(QueryError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::from_millis(40));
            }
            other => panic!("expected DeadlineExceeded despite channel flood, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "reaper must fire at its bounded interval even under channel traffic"
        );
        engine.shutdown();
    }

    /// Regression test for ETA-quote drift: the pre-shed used to compare the
    /// raw wall-clock last-pass time against the deadline, so a pass that
    /// straddled an idle period (engine idle between queries, scan halted,
    /// clock running) inflated the estimate and over-shed perfectly feasible
    /// queries. The busy-only quote stays honest: a deadline of quote + ε is
    /// admitted and completes.
    #[test]
    fn idle_time_does_not_inflate_the_deadline_quote() {
        let catalog = small_catalog(300);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        // Complete a query, idle well past the deadline below, then complete
        // another: the pass that finishes the second query straddles the idle
        // gap, which a wall-clock pass timer would charge to the estimate.
        engine.execute(red_sum_query("warm")).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        engine.execute(red_sum_query("across_the_gap")).unwrap();

        let quote = engine.quote_eta().expect("completed passes give a quote");
        assert!(
            quote < Duration::from_millis(200),
            "busy-only quote must not include the 400ms idle gap, got {quote:?}"
        );

        // Oracle: deadline ≈ quote + ε is admitted and completes — under the
        // old wall-clock estimate (≥ 400ms) this deadline was shed.
        let deadline = quote + Duration::from_millis(150);
        let feasible = StarQuery::builder("feasible")
            .join_dimension("color", "colorkey", "k", Predicate::eq("name", "red"))
            .aggregate(AggregateSpec::count_star())
            .deadline(deadline)
            .build();
        let outcome = engine.submit(feasible).unwrap().wait();
        assert!(
            outcome.is_ok(),
            "deadline {deadline:?} over honest quote {quote:?} must complete, got {outcome:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn submission_time_is_recorded() {
        let catalog = small_catalog(200);
        let engine = CjoinEngine::start(Arc::clone(&catalog), test_config()).unwrap();
        let handle = engine.submit(red_sum_query("timed")).unwrap();
        assert!(handle.submission_time() > Duration::ZERO);
        assert_eq!(handle.name(), "timed");
        let (result, response_time) = handle.wait_with_time().unwrap();
        assert_eq!(result.num_rows(), 1);
        assert!(response_time >= Duration::ZERO);
        engine.shutdown();
    }
}
