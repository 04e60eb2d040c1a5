//! Stage layout and worker threads (§4).
//!
//! The Filters of the CJOIN pipeline are boxed into *Stages*; each Stage has its own
//! input queue and one or more worker threads. The paper studies three layouts:
//!
//! * **horizontal** — a single Stage containing the whole Filter sequence, with all
//!   worker threads assigned to it (each thread runs every Filter on disjoint
//!   batches). Best in the paper's measurements (Figure 4) and our default.
//! * **vertical** — one Stage per Filter with one thread each; batches hop from queue
//!   to queue, trading cache locality of the hash tables for inter-thread traffic.
//! * **hybrid** — several Stages, each covering a contiguous run of Filters.
//!
//! Because queries (and therefore Filters) come and go at run time, a Stage does not
//! own a fixed set of Filters; instead each worker snapshots the current filter chain
//! per batch and processes the contiguous slice assigned to its Stage. With a single
//! Stage this is the entire chain.
//!
//! Upstream of the Filter Stages sits the **scan front-end**:
//! `CjoinConfig::scan_workers` scan worker threads, each over its own segment of
//! the fact table (see [`crate::preprocessor`]). Downstream sits the
//! **aggregation stage**: `CjoinConfig::distributor_shards` aggregation shard
//! threads and, when there is more than one of them, a router thread in front
//! (see [`crate::distributor`]). The [`StagePlan`] records all three parts of the
//! thread layout so diagnostics and tests can reason about the whole pipeline.
//!
//! The supervised roles are therefore five ([`RoleKind`]): scan worker, Stage
//! worker, shard router, distributor shard, and the manager. Query lifecycle has
//! no thread of its own — worker 0 of the front-end emits a query's start tuple,
//! the scan worker that finishes the query's pass last emits its end tuple, and
//! the shard that drains that end tuple last delivers the result.
//!
//! # Supervision and barrier release on failure
//!
//! Every pipeline role is spawned through [`spawn_supervised`], which wraps the
//! role body in `catch_unwind` and reports a [`RoleFailure`] on the supervisor's
//! failure channel instead of silently unwinding the thread. The concurrency
//! argument above assumes every role *keeps draining its input queue*; a dead
//! role violates that, and two barriers would otherwise wait forever:
//!
//! * the scan front-end's **drain barrier** (the worker closing a query waits
//!   for `in_flight == 0`, and before that for its siblings to park) never
//!   terminates if a Stage worker or Distributor died holding batches, or a
//!   sibling died before parking, and
//! * the aggregation stage's **end-barrier** (a query finalizes when the last of
//!   the N shards contributes its partial) never completes if a shard died
//!   before contributing.
//!
//! Release-on-failure is therefore part of the pipeline contract: the
//! supervisor first resolves every in-flight query's outcome channel with
//! `QueryError::StageFailed` (so no client can observe a truncated `Ok`), then
//! *poisons* the pipeline — the drain barrier re-checks the poison flag in its
//! backoff loop and exits early, parked scan workers and a closer waiting for
//! them are released through the `ScanStall` shutdown path, and queue
//! senders/receivers are dropped so every surviving role's `recv()`/`send()`
//! returns a disconnect and the role exits its loop (nobody waits on the
//! end-barrier, so it needs no release: its half-filled merge slots die with the
//! pipeline incarnation). Only after every thread is joined does the supervisor
//! respawn the pipeline with the failed axis stepped down. Ordering matters:
//! outcomes are resolved *before* barriers are poisoned, so a poisoned barrier
//! can never let a finalize path deliver a result computed from a partial scan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{Receiver, Sender};

use crate::config::StageLayout;
use crate::dimension::DimensionTable;
use crate::fault::{self, FaultPlan, FaultSite};
use crate::filter::FilterChain;
use crate::scheduler::Axis;
use crate::tuple::Message;

/// Identity of one supervised pipeline role, used in thread names, failure
/// reports and [`cjoin_query::QueryError::StageFailed`] messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleKind {
    /// Scan worker `i`.
    ScanWorker(usize),
    /// Worker `worker` of filter Stage `stage`.
    StageWorker {
        /// Stage index in the [`StagePlan`].
        stage: usize,
        /// Worker index within the Stage.
        worker: usize,
    },
    /// The distributor shard router (only with more than one shard).
    ShardRouter,
    /// Distributor aggregation shard `i`.
    DistributorShard(usize),
    /// The pipeline manager (filter reordering, query cleanup).
    Manager,
}

impl RoleKind {
    /// The OS thread name the role runs under.
    pub fn thread_name(&self) -> String {
        match self {
            RoleKind::ScanWorker(i) => format!("cjoin-scan-w{i}"),
            RoleKind::StageWorker { stage, worker } => format!("cjoin-stage{stage}-w{worker}"),
            RoleKind::ShardRouter => "cjoin-dist-router".into(),
            RoleKind::DistributorShard(i) => format!("cjoin-distributor-s{i}"),
            RoleKind::Manager => "cjoin-manager".into(),
        }
    }

    /// The fault-injection site the role hosts ([`FaultSite`] is coarser than
    /// `RoleKind`: it does not distinguish worker indices, and the manager has
    /// no injection site).
    pub fn fault_site(&self) -> Option<FaultSite> {
        match self {
            RoleKind::ScanWorker(_) => Some(FaultSite::ScanWorker),
            RoleKind::StageWorker { .. } => Some(FaultSite::StageWorker),
            RoleKind::ShardRouter => Some(FaultSite::ShardRouter),
            RoleKind::DistributorShard(_) => Some(FaultSite::DistributorShard),
            RoleKind::Manager => None,
        }
    }

    /// The parallelism axis the role belongs to — the one the supervisor steps
    /// down after the role dies (the manager belongs to none).
    pub fn axis(&self) -> Option<Axis> {
        match self {
            RoleKind::ScanWorker(_) => Some(Axis::ScanWorkers),
            RoleKind::StageWorker { .. } => Some(Axis::StageWorkers),
            RoleKind::ShardRouter | RoleKind::DistributorShard(_) => Some(Axis::DistributorShards),
            RoleKind::Manager => None,
        }
    }
}

impl std::fmt::Display for RoleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoleKind::ScanWorker(i) => write!(f, "scan-worker-{i}"),
            RoleKind::StageWorker { stage, worker } => {
                write!(f, "stage-{stage}-worker-{worker}")
            }
            RoleKind::ShardRouter => f.write_str("shard-router"),
            RoleKind::DistributorShard(i) => write!(f, "distributor-shard-{i}"),
            RoleKind::Manager => f.write_str("manager"),
        }
    }
}

/// Report of a role thread that died by panic, sent to the supervisor.
#[derive(Debug, Clone)]
pub struct RoleFailure {
    /// Which role died.
    pub role: RoleKind,
    /// The panic payload, best effort (`&str`/`String` payloads are extracted,
    /// anything else is described generically).
    pub detail: String,
}

/// An event on the supervisor's channel.
///
/// The channel carries more than failures so the supervisor loop is the one
/// place that decides how to interleave recovery with housekeeping (the
/// deadline reaper). Benign traffic must never be able to starve the reaper:
/// the supervisor bounds its inter-reap interval regardless of how fast events
/// arrive (see `engine::run_supervisor`).
#[derive(Debug, Clone)]
pub enum SupervisorEvent {
    /// A supervised role died by panic; triggers resolve/teardown/respawn.
    Failure(RoleFailure),
    /// A query with a deadline was admitted. Purely a wake-up nudge so the
    /// reaper notices fresh deadlines promptly; carries no payload and
    /// requires no action beyond the loop's bounded reap.
    DeadlineAdmitted,
}

/// Renders a panic payload for a [`RoleFailure`].
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Spawns one pipeline role.
///
/// The role body runs under `catch_unwind`; a panic is converted into a
/// [`RoleFailure`] on `failure_tx` (best effort — if the supervisor is gone,
/// the failure is dropped and the thread just exits).
///
/// # Panics
/// Panics only if the OS refuses to spawn a thread.
pub fn spawn_supervised(
    role: RoleKind,
    failure_tx: Sender<SupervisorEvent>,
    f: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(role.thread_name())
        .spawn(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let failure = RoleFailure {
                    role,
                    detail: panic_detail(payload.as_ref()),
                };
                let _ = failure_tx.send(SupervisorEvent::Failure(failure));
            }
        })
        .expect("failed to spawn pipeline thread")
}

/// The thread layout derived from a [`StageLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Number of worker threads per Stage; `threads_per_stage.len()` is the number of
    /// Stages.
    pub threads_per_stage: Vec<usize>,
    /// Number of parallel aggregation (Distributor) shards downstream of the Stages.
    pub distributor_shards: usize,
    /// Number of parallel continuous-scan (Preprocessor) workers upstream of the
    /// Stages.
    pub scan_workers: usize,
}

impl StagePlan {
    /// Derives the plan from the configured layout and total worker-thread budget,
    /// with one aggregation shard and one scan worker.
    pub fn derive(layout: &StageLayout, worker_threads: usize) -> Self {
        let threads_per_stage = match layout {
            StageLayout::Horizontal => vec![worker_threads.max(1)],
            StageLayout::Vertical => vec![1; worker_threads.max(1)],
            StageLayout::Hybrid(groups) => {
                if groups.is_empty() {
                    vec![worker_threads.max(1)]
                } else {
                    groups.clone()
                }
            }
        };
        Self {
            threads_per_stage,
            distributor_shards: 1,
            scan_workers: 1,
        }
    }

    /// The same plan with `shards` aggregation shards.
    pub fn with_distributor_shards(mut self, shards: usize) -> Self {
        self.distributor_shards = shards.max(1);
        self
    }

    /// The same plan with `workers` scan workers.
    pub fn with_scan_workers(mut self, workers: usize) -> Self {
        self.scan_workers = workers.max(1);
        self
    }

    /// Number of Stages.
    pub fn num_stages(&self) -> usize {
        self.threads_per_stage.len()
    }

    /// Total number of Filter worker threads.
    pub fn total_threads(&self) -> usize {
        self.threads_per_stage.iter().sum()
    }

    /// Whether the aggregation stage has a router: a single shard reads the
    /// pipeline's output queue itself, several need a thread that splits it.
    pub fn has_router(&self) -> bool {
        self.distributor_shards > 1
    }

    /// Threads spawned for the aggregation stage: one per shard, plus the router.
    pub fn aggregation_threads(&self) -> usize {
        self.distributor_shards + usize::from(self.has_router())
    }

    /// Threads spawned for the scan front-end: one per scan worker.
    pub fn scan_threads(&self) -> usize {
        self.scan_workers
    }
}

/// Returns the contiguous slice of the filter chain snapshot that Stage
/// `stage_index` (of `num_stages`) is responsible for.
pub fn stage_slice(
    filters: &[Arc<DimensionTable>],
    stage_index: usize,
    num_stages: usize,
) -> &[Arc<DimensionTable>] {
    let len = filters.len();
    if num_stages <= 1 {
        return filters;
    }
    let lo = stage_index * len / num_stages;
    let hi = ((stage_index + 1) * len / num_stages).min(len);
    &filters[lo..hi]
}

/// Body of one Stage worker thread.
///
/// Data batches are run through the Stage's slice of the filter chain and forwarded —
/// even when they end up empty, so the Distributor's in-flight accounting (used by
/// the control-tuple drain barrier) stays exact. Control tuples do not travel through
/// Stages (they take the direct Preprocessor → Distributor path) but are forwarded
/// defensively if ever seen. A `Shutdown` message stops the worker without being
/// forwarded; the engine shuts each Stage down explicitly.
///
/// # One tracked path
///
/// A batch can meet a different filter chain at every hop. Query admission and
/// the run-time optimizer grow, shrink and reorder the chain *while the batch
/// travels*: between two Stages of a multi-Stage layout — where slice boundaries
/// computed from one snapshot need not line up with the next, so naive slicing
/// could apply a Filter twice or, worse, never — and, in every layout, between
/// the columnar scan front-end and the first Stage, because that front-end
/// probes the chain's leading Filter itself before it materialises a row (see
/// [`crate::preprocessor`]). Each batch therefore records which Filters already
/// processed it, by dimension slot ([`Batch::mark_filter_applied`]): whoever
/// probes a Filter marks the batch with the slot of the Filter *that actually
/// probed it*, every Stage skips marked Filters, and the **final Stage applies
/// every unmarked Filter of its snapshot** rather than just its slice, so no
/// Filter present at the end of the pipe is ever missed and none runs twice.
/// There is no untracked variant: a single-Stage layout is the final Stage of a
/// one-Stage pipe.
///
/// A Filter that enters the chain after a batch was produced (or after the scan
/// side chose that chunk's leading Filter) may run on the batch or not; both are
/// sound. The batch's tuples cannot carry the bit of the query whose admission
/// created the Filter — that bit is only set by the scan after the query is
/// installed, which follows its registration — and for every other registered
/// query the new Filter's `bDj` holds a 1, so the Filter passes their tuples
/// through unchanged and attaches nothing they read.
///
/// A dimension keeps its slot for the engine's lifetime, so a Filter re-created
/// for a dimension whose previous Filter was retired inherits that slot, and a
/// batch still in flight may carry the mark its predecessor left. That is the
/// case above once more: the predecessor was retired only after its last
/// referencing query ended, behind the drain barrier, so a batch marked by it
/// carries no bit of a query that references the dimension, and the successor —
/// admitted after the batch was produced — has nothing to do on it.
///
/// [`Batch::mark_filter_applied`]: crate::tuple::Batch::mark_filter_applied
#[allow(clippy::too_many_arguments)]
pub fn run_stage_worker(
    stage_index: usize,
    num_stages: usize,
    input: Receiver<Message>,
    output: Sender<Message>,
    chain: Arc<FilterChain>,
    early_skip: bool,
    batched_probing: bool,
    faults: Option<Arc<FaultPlan>>,
) {
    // Worker-local scratch, reused across batches so per-batch bookkeeping
    // allocates nothing at steady state.
    let mut todo_scratch: Vec<Arc<DimensionTable>> = Vec::new();
    while let Ok(msg) = input.recv() {
        match msg {
            Message::Data(mut batch) => {
                fault::inject(&faults, FaultSite::StageWorker);
                let filters = chain.snapshot();
                let last = stage_index + 1 == num_stages;
                let candidates: &[Arc<DimensionTable>] = if last {
                    &filters
                } else {
                    stage_slice(&filters, stage_index, num_stages)
                };
                todo_scratch.clear();
                todo_scratch.extend(
                    candidates
                        .iter()
                        .filter(|f| !batch.filter_applied(f.slot))
                        .cloned(),
                );
                for f in &todo_scratch {
                    batch.mark_filter_applied(f.slot);
                }
                FilterChain::process_batch(&todo_scratch, &mut batch, early_skip, batched_probing);
                if output.send(Message::Data(batch)).is_err() {
                    return;
                }
            }
            Message::Control(control) => {
                if output.send(Message::Control(control)).is_err() {
                    return;
                }
            }
            Message::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Batch, InFlightTuple};
    use cjoin_common::{QueryId, QuerySet};
    use cjoin_storage::{Row, RowId, Value};
    use crossbeam::channel::unbounded;

    #[test]
    fn horizontal_plan_has_one_stage() {
        let p = StagePlan::derive(&StageLayout::Horizontal, 5);
        assert_eq!(p.num_stages(), 1);
        assert_eq!(p.total_threads(), 5);
    }

    #[test]
    fn vertical_plan_has_one_thread_per_stage() {
        let p = StagePlan::derive(&StageLayout::Vertical, 4);
        assert_eq!(p.num_stages(), 4);
        assert_eq!(p.threads_per_stage, vec![1, 1, 1, 1]);
    }

    #[test]
    fn hybrid_plan_uses_explicit_groups() {
        let p = StagePlan::derive(&StageLayout::Hybrid(vec![2, 3]), 99);
        assert_eq!(p.num_stages(), 2);
        assert_eq!(p.total_threads(), 5);
        // Degenerate empty hybrid falls back to horizontal.
        let p = StagePlan::derive(&StageLayout::Hybrid(vec![]), 3);
        assert_eq!(p.num_stages(), 1);
        assert_eq!(p.total_threads(), 3);
    }

    #[test]
    fn zero_threads_still_yields_a_worker() {
        let p = StagePlan::derive(&StageLayout::Horizontal, 0);
        assert_eq!(p.total_threads(), 1);
    }

    #[test]
    fn aggregation_thread_budget_tracks_sharding() {
        let solo = StagePlan::derive(&StageLayout::Horizontal, 2);
        assert_eq!(solo.distributor_shards, 1);
        assert_eq!(solo.aggregation_threads(), 1, "one shard, no router");
        let sharded = StagePlan::derive(&StageLayout::Horizontal, 2).with_distributor_shards(4);
        assert_eq!(sharded.distributor_shards, 4);
        assert_eq!(sharded.aggregation_threads(), 5, "4 shards + router");
        // Degenerate zero clamps to the single-shard plan.
        let clamped = StagePlan::derive(&StageLayout::Horizontal, 2).with_distributor_shards(0);
        assert_eq!(clamped.distributor_shards, 1);
    }

    #[test]
    fn scan_thread_budget_tracks_the_front_end_sharding() {
        let solo = StagePlan::derive(&StageLayout::Horizontal, 2);
        assert_eq!(solo.scan_workers, 1);
        assert_eq!(solo.scan_threads(), 1);
        let sharded = StagePlan::derive(&StageLayout::Horizontal, 2).with_scan_workers(4);
        assert_eq!(sharded.scan_workers, 4);
        assert_eq!(sharded.scan_threads(), 4, "one thread per scan worker");
        // Degenerate zero clamps to one worker.
        let clamped = StagePlan::derive(&StageLayout::Horizontal, 2).with_scan_workers(0);
        assert_eq!(clamped.scan_workers, 1);
    }

    #[test]
    fn stage_slices_partition_the_chain() {
        let filters: Vec<Arc<DimensionTable>> = (0..5)
            .map(|i| {
                Arc::new(DimensionTable::new(
                    format!("d{i}"),
                    i,
                    0,
                    0,
                    4,
                    &QuerySet::new(4),
                ))
            })
            .collect();
        // Union of slices over all stages covers the chain exactly once, in order.
        for num_stages in 1..=6 {
            let mut covered = Vec::new();
            for s in 0..num_stages {
                covered.extend(
                    stage_slice(&filters, s, num_stages)
                        .iter()
                        .map(|f| f.name.clone()),
                );
            }
            assert_eq!(
                covered,
                vec!["d0", "d1", "d2", "d3", "d4"],
                "stages={num_stages}"
            );
        }
    }

    #[test]
    fn worker_forwards_filtered_batches_and_stops_on_shutdown() {
        let chain = Arc::new(FilterChain::new());
        // One filter that drops everything (no query registered => every bit cleared).
        let dim = DimensionTable::new("d", 0, 0, 0, 4, &QuerySet::new(4));
        dim.register_query(QueryId(0), &[(42, Row::new(vec![Value::int(42)]))]);
        chain.push(Arc::new(dim));

        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let worker = {
            let chain = Arc::clone(&chain);
            std::thread::spawn(move || {
                run_stage_worker(0, 1, in_rx, out_tx, chain, true, true, None)
            })
        };

        // A tuple relevant to query 0 whose fk misses the dimension table: dropped.
        let miss = InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(7)]),
            QuerySet::from_bits(4, [0]),
            1,
        );
        // A tuple that hits: survives.
        let hit = InFlightTuple::new(
            RowId(1),
            Row::new(vec![Value::int(42)]),
            QuerySet::from_bits(4, [0]),
            1,
        );
        in_tx
            .send(Message::Data(Batch::from(vec![miss, hit])))
            .unwrap();
        in_tx.send(Message::Shutdown).unwrap();
        worker.join().unwrap();

        match out_rx.try_recv().unwrap() {
            Message::Data(batch) => {
                assert_eq!(batch.len(), 1);
                assert_eq!(batch[0].row_id, RowId(1));
            }
            other => panic!("expected data, got {other:?}"),
        }
        assert!(out_rx.try_recv().is_err(), "shutdown is not forwarded");
    }

    /// Regression for the layout/shard matrix flake: with a vertical layout, a
    /// batch that passed Stage 0 while the chain had one Filter must still be
    /// processed by a Filter admitted (or reordered in) before it reaches the
    /// final Stage — the final Stage sweeps every not-yet-applied Filter instead
    /// of trusting its slice boundaries.
    #[test]
    fn final_stage_applies_filters_missed_by_shifted_slices() {
        let chain = Arc::new(FilterChain::new());
        // Filter A (slot 0, fact column 0) keeps only fk0 == 42 for query 0.
        let a = DimensionTable::new("a", 0, 0, 0, 4, &QuerySet::new(4));
        a.register_query(QueryId(0), &[(42, Row::new(vec![Value::int(42)]))]);
        chain.push(Arc::new(a));

        let tuple = |id: u64, k0: i64, k1: i64| {
            InFlightTuple::new(
                RowId(id),
                Row::new(vec![Value::int(k0), Value::int(k1)]),
                QuerySet::from_bits(4, [0]),
                2,
            )
        };
        // t0 is dropped by A, t1 by B (added below), t2 survives both.
        let batch = Batch::from(vec![tuple(0, 1, 7), tuple(1, 42, 1), tuple(2, 42, 7)]);

        // Stage 0 of 2: with a one-Filter chain its slice is empty, so the batch
        // passes through untouched (the pre-fix behavior as well).
        let (in0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let worker0 = {
            let chain = Arc::clone(&chain);
            std::thread::spawn(move || run_stage_worker(0, 2, rx0, tx1, chain, true, true, None))
        };
        in0.send(Message::Data(batch)).unwrap();
        in0.send(Message::Shutdown).unwrap();
        worker0.join().unwrap();

        // Between the Stages a second query's admission grows the chain: Filter B
        // (slot 1, fact column 1) keeps only fk1 == 7 for query 0.
        let b = DimensionTable::new("b", 1, 1, 0, 4, &QuerySet::new(4));
        b.register_query(QueryId(0), &[(7, Row::new(vec![Value::int(7)]))]);
        chain.push(Arc::new(b));

        // Stage 1 of 2 (the final Stage): its slice under the new snapshot is
        // [B] only, but it must also apply A, which the shifted slices skipped.
        let (tx2, rx2) = unbounded();
        let worker1 = {
            let chain = Arc::clone(&chain);
            std::thread::spawn(move || run_stage_worker(1, 2, rx1, tx2, chain, true, true, None))
        };
        worker1.join().unwrap();

        match rx2.try_recv().unwrap() {
            Message::Data(batch) => {
                assert_eq!(batch.len(), 1, "both Filters must have processed the batch");
                assert_eq!(batch[0].row_id, RowId(2));
                assert!(batch.filter_applied(0) && batch.filter_applied(1));
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn worker_forwards_empty_batches_for_in_flight_accounting() {
        let chain = Arc::new(FilterChain::new());
        let dim = DimensionTable::new("d", 0, 0, 0, 4, &QuerySet::new(4));
        dim.register_query(QueryId(0), &[(42, Row::new(vec![Value::int(42)]))]);
        chain.push(Arc::new(dim));
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let worker = std::thread::spawn(move || {
            run_stage_worker(0, 1, in_rx, out_tx, chain, true, true, None)
        });
        let miss = InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(7)]),
            QuerySet::from_bits(4, [0]),
            1,
        );
        in_tx.send(Message::Data(Batch::from(vec![miss]))).unwrap();
        in_tx.send(Message::Shutdown).unwrap();
        worker.join().unwrap();
        assert!(
            matches!(out_rx.try_recv().unwrap(), Message::Data(b) if b.is_empty()),
            "empty batch still forwarded"
        );
    }
}
