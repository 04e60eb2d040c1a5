//! The Stage and its worker threads (§4).
//!
//! The Filters of the CJOIN pipeline are boxed into *Stages*. The paper studies
//! three layouts — *horizontal* (one Stage holding the whole Filter sequence,
//! every worker thread running all of it on disjoint batches), *vertical* (one
//! Stage per Filter) and hybrids between them — and measures the horizontal one
//! best (Figure 4). This pipeline has that layout only: one Stage, with
//! `CjoinConfig::worker_threads` workers over one input queue. Because queries
//! (and therefore Filters) come and go at run time, a worker owns no fixed set
//! of Filters; it snapshots the current filter chain per batch and runs all of
//! it.
//!
//! Upstream of the Stage sits the **scan front-end**:
//! `CjoinConfig::scan_workers` scan worker threads, each over its own segment of
//! the fact table (see [`crate::preprocessor`]). Downstream sits the
//! **aggregation stage**: `CjoinConfig::distributor_shards` aggregation shard
//! threads, each reading its own queue (see [`crate::distributor`]). The Stage
//! is the last hop before aggregation, so each Stage worker hands every batch it
//! filtered, whole, to the next shard in its own rotation, and the scan
//! front-end broadcasts control tuples to every shard queue itself. The
//! [`StagePlan`] records the three widths so diagnostics and tests can reason
//! about the whole pipeline.
//!
//! The supervised roles are therefore three ([`RoleKind`]): scan worker, Stage
//! worker and distributor shard. Query lifecycle has no thread of its own —
//! worker 0 of the front-end emits a query's start tuple, the scan worker that
//! finishes the query's pass last emits its end tuple, and the shard that
//! drains that end tuple last cleans the query up (Algorithm 2) and delivers
//! the result. The engine's supervisor thread, outside the pipeline, re-derives
//! the Filter order (§3.4) on its timer.
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

use crate::config::CjoinConfig;
use crate::fault::{self, FaultPlan, FaultSite};
use crate::filter::FilterChain;
use crate::queue::ShardSenders;
use crate::scheduler::Axis;
use crate::tuple::Message;

/// Identity of one supervised pipeline role, used in thread names, failure
/// reports and [`cjoin_query::QueryError::StageFailed`] messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleKind {
    /// Scan worker `i`.
    ScanWorker(usize),
    /// Stage worker `i`.
    StageWorker(usize),
    /// Distributor aggregation shard `i`.
    DistributorShard(usize),
}

impl RoleKind {
    /// The OS thread name the role runs under.
    pub fn thread_name(&self) -> String {
        match self {
            RoleKind::ScanWorker(i) => format!("cjoin-scan-w{i}"),
            RoleKind::StageWorker(i) => format!("cjoin-stage-w{i}"),
            RoleKind::DistributorShard(i) => format!("cjoin-distributor-s{i}"),
        }
    }

    /// The parallelism axis the role belongs to — the one the supervisor steps
    /// down after the role dies.
    pub fn axis(&self) -> Axis {
        match self {
            RoleKind::ScanWorker(_) => Axis::ScanWorkers,
            RoleKind::StageWorker(_) => Axis::StageWorkers,
            RoleKind::DistributorShard(_) => Axis::DistributorShards,
        }
    }
}

impl std::fmt::Display for RoleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoleKind::ScanWorker(i) => write!(f, "scan-worker-{i}"),
            RoleKind::StageWorker(i) => write!(f, "stage-worker-{i}"),
            RoleKind::DistributorShard(i) => write!(f, "distributor-shard-{i}"),
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
/// deadline reaper, the Filter reordering). Benign traffic must never be able
/// to starve either: the supervisor keeps both on absolute deadlines regardless
/// of how fast events arrive (see `engine::run_supervisor`).
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

/// The thread layout of one pipeline incarnation: the width of each axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Continuous-scan (Preprocessor) workers upstream of the Stage.
    pub scan_workers: usize,
    /// Worker threads of the Stage, each running the whole Filter chain.
    pub stage_workers: usize,
    /// Aggregation (Distributor) shards downstream of the Stage.
    pub distributor_shards: usize,
}

impl StagePlan {
    /// The plan a pipeline spawned from `config` has: every width as
    /// configured, and at least 1.
    pub fn of(config: &CjoinConfig) -> Self {
        Self {
            scan_workers: config.scan_workers.max(1),
            stage_workers: config.worker_threads.max(1),
            distributor_shards: config.distributor_shards.max(1),
        }
    }
}

/// Body of one Stage worker thread.
///
/// Each data batch is run through the filter chain and handed, whole, to the
/// next aggregation shard in this worker's rotation — even when it ends up
/// empty, so the shards' in-flight accounting (used by the control-tuple drain
/// barrier) stays exact: a batch is one in-flight unit from the scan to the
/// shard that drains it. Control tuples do not travel through the Stage (the
/// scan front-end broadcasts them to the shard queues itself) but are broadcast
/// defensively if ever seen. A `Shutdown` message stops the worker without
/// being forwarded; the engine shuts the shards down explicitly. A shard whose
/// receiver is gone (it exited or died) stops the worker instead of blocking it.
///
/// # The scan's mark
///
/// A batch can meet a different filter chain at the Stage than at the scan.
/// Query admission and the run-time optimizer grow, shrink and reorder the
/// chain *while the batch travels*, and the columnar scan front-end probes the
/// chain's leading Filter itself before it materialises a row (see
/// [`crate::preprocessor`]). That front-end marks each batch with the slot of
/// the Filter *that actually probed it* ([`Batch::mark_filter_applied`]), and
/// the Stage applies every Filter of its own snapshot except the marked one, so
/// no Filter present at the end of the pipe is ever missed and none runs twice.
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
pub fn run_stage_worker(
    input: Receiver<Message>,
    output: ShardSenders,
    chain: Arc<FilterChain>,
    early_skip: bool,
    batched_probing: bool,
    faults: Option<Arc<FaultPlan>>,
) {
    let mut next_shard = 0;
    while let Ok(msg) = input.recv() {
        match msg {
            Message::Data(mut batch) => {
                fault::inject(&faults, FaultSite::StageWorker);
                let mut filters = chain.snapshot();
                filters.retain(|f| !batch.filter_applied(f.slot));
                FilterChain::process_batch(&filters, &mut batch, early_skip, batched_probing);
                let shard = next_shard;
                next_shard = (next_shard + 1) % output.num_shards();
                if output.send_to(shard, Message::Data(batch)).is_err() {
                    return;
                }
            }
            Message::Control(control) => output.broadcast_control(&control),
            Message::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use crate::queue::ShardQueues;
    use crate::tuple::{Batch, ControlTuple, InFlightTuple, QueryRuntime};
    use cjoin_common::{QueryId, QuerySet};
    use cjoin_query::{AggregateSpec, StarQuery};
    use cjoin_storage::{Catalog, Column, Row, RowId, Schema, SnapshotId, Table, Value};
    use crossbeam::channel::{bounded, unbounded};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    use std::time::Instant;

    /// A single-shard output over `tx`.
    fn one_shard(tx: Sender<Message>) -> ShardSenders {
        std::iter::once(tx).collect()
    }

    #[test]
    fn plan_is_the_configured_widths_each_at_least_one() {
        let config = CjoinConfig::default()
            .with_scan_workers(4)
            .with_worker_threads(5)
            .with_distributor_shards(2);
        let plan = StagePlan::of(&config);
        assert_eq!(
            (
                plan.scan_workers,
                plan.stage_workers,
                plan.distributor_shards
            ),
            (4, 5, 2)
        );
        let zero = CjoinConfig {
            scan_workers: 0,
            worker_threads: 0,
            distributor_shards: 0,
            ..CjoinConfig::default()
        };
        let plan = StagePlan::of(&zero);
        assert_eq!(
            (
                plan.scan_workers,
                plan.stage_workers,
                plan.distributor_shards
            ),
            (1, 1, 1),
            "degenerate zeros clamp to the classic single-thread shape"
        );
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
                run_stage_worker(in_rx, one_shard(out_tx), chain, true, true, None)
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

    /// The scan probed Filter A for a batch and marked it; before the batch
    /// reaches the Stage, a second query's admission grows the chain by Filter
    /// B. The Stage applies B and skips A: A's counters do not move, and a
    /// tuple A would drop survives, because A already ran where it was marked.
    #[test]
    fn stage_applies_the_grown_chain_except_the_scan_marked_filter() {
        let chain = Arc::new(FilterChain::new());
        // Filter A (slot 0, fact column 0) keeps only fk0 == 42 for query 0.
        let a = Arc::new(DimensionTable::new("a", 0, 0, 0, 4, &QuerySet::new(4)));
        a.register_query(QueryId(0), &[(42, Row::new(vec![Value::int(42)]))]);
        chain.push(Arc::clone(&a));

        let tuple = |id: u64, k0: i64, k1: i64| {
            InFlightTuple::new(
                RowId(id),
                Row::new(vec![Value::int(k0), Value::int(k1)]),
                QuerySet::from_bits(4, [0]),
                2,
            )
        };
        // t0 would be dropped by A, t1 is dropped by B, t2 passes both.
        let mut batch = Batch::from(vec![tuple(0, 1, 7), tuple(1, 42, 1), tuple(2, 42, 7)]);
        batch.mark_filter_applied(a.slot);

        // Filter B (slot 1, fact column 1) keeps only fk1 == 7 for query 0.
        let b = Arc::new(DimensionTable::new("b", 1, 1, 0, 4, &QuerySet::new(4)));
        b.register_query(QueryId(0), &[(7, Row::new(vec![Value::int(7)]))]);
        chain.push(Arc::clone(&b));

        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        in_tx.send(Message::Data(batch)).unwrap();
        in_tx.send(Message::Shutdown).unwrap();
        run_stage_worker(in_rx, one_shard(out_tx), chain, true, true, None);

        match out_rx.try_recv().unwrap() {
            Message::Data(batch) => {
                let ids: Vec<RowId> = batch.iter().map(|t| t.row_id).collect();
                assert_eq!(ids, [RowId(0), RowId(2)], "B applied, A skipped");
                assert!(batch.filter_applied(a.slot) && !batch.filter_applied(b.slot));
            }
            other => panic!("expected data, got {other:?}"),
        }
        assert_eq!(a.stats.snapshot(), (0, 0, 0, 0), "A never probed here");
        let (b_in, b_dropped, b_probes, _) = b.stats.snapshot();
        assert_eq!((b_in, b_dropped, b_probes), (3, 1, 3));
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
            run_stage_worker(in_rx, one_shard(out_tx), chain, true, true, None)
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

    /// A scalar COUNT(*) query's runtime, for control tuples.
    fn runtime(bit: u32) -> Arc<QueryRuntime> {
        let catalog = Catalog::new();
        let fact = Table::new(Schema::new("fact", vec![Column::int("fk")]));
        catalog.add_fact_table(Arc::new(fact));
        let bound = StarQuery::builder(format!("q{bit}"))
            .aggregate(AggregateSpec::count_star())
            .build()
            .bind(&catalog)
            .unwrap();
        Arc::new(QueryRuntime {
            id: QueryId(bit),
            name: format!("q{bit}"),
            bound: Arc::new(bound),
            slot_map: Vec::new(),
            result_tx: bounded(1).0,
            resolved: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_at: None,
            admitted_at: Instant::now(),
            snapshot: SnapshotId::INITIAL,
            progress: Arc::new(crate::progress::QueryProgress::new(0)),
        })
    }

    /// Stage-side dispatch: with the query's start
    /// already broadcast to three shard queues, six batches through one Stage
    /// worker each arrive whole on exactly one queue, behind the start, spread
    /// over more than one shard — and each is one in-flight unit, the one the
    /// scan counted, which the draining shard settles.
    #[test]
    fn stage_worker_dispatches_whole_batches_behind_the_broadcast_start() {
        let queues = ShardQueues::new(3, 16);
        let senders = queues.senders();
        senders.broadcast_control(&ControlTuple::QueryStart(runtime(0)));
        let (in_tx, in_rx) = unbounded();
        let in_flight = AtomicI64::new(0);
        for b in 0..6u64 {
            let batch: Batch = (0..2)
                .map(|t| {
                    InFlightTuple::new(
                        RowId(2 * b + t),
                        Row::new(vec![Value::int(1)]),
                        QuerySet::from_bits(4, [0]),
                        0,
                    )
                })
                .collect();
            in_flight.fetch_add(1, Ordering::AcqRel); // the scan's count
            in_tx.send(Message::Data(batch)).unwrap();
        }
        in_tx.send(Message::Shutdown).unwrap();
        run_stage_worker(
            in_rx,
            senders,
            Arc::new(FilterChain::new()),
            true,
            true,
            None,
        );
        assert_eq!(
            in_flight.load(Ordering::Acquire),
            6,
            "the Stage re-accounts nothing"
        );

        let mut seen = Vec::new();
        let mut used = 0;
        for s in 0..3 {
            let shard = queues.shard(s);
            match shard.recv_timeout(std::time::Duration::ZERO) {
                Ok(Some(Message::Control(ControlTuple::QueryStart(rt)))) => {
                    assert_eq!(rt.id, QueryId(0));
                }
                other => panic!("shard {s}: expected QueryStart first, got {other:?}"),
            }
            let before = seen.len();
            while let Ok(Some(msg)) = shard.recv_timeout(std::time::Duration::ZERO) {
                let Message::Data(batch) = msg else {
                    panic!("shard {s}: only data after the start");
                };
                let ids: Vec<u64> = batch.iter().map(|t| t.row_id.0).collect();
                assert_eq!(ids.len(), 2, "batches arrive whole");
                assert_eq!(ids[1], ids[0] + 1);
                seen.extend(ids);
                in_flight.fetch_sub(1, Ordering::AcqRel); // the shard's ack
            }
            used += usize::from(seen.len() > before);
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..12).collect::<Vec<u64>>(),
            "every batch on one queue"
        );
        assert!(used >= 2, "batches spread over {used} shard(s)");
        assert_eq!(in_flight.load(Ordering::Acquire), 0, "one unit per batch");
    }

    /// A shard whose receiver is gone stops the Stage worker, which would
    /// otherwise block on (or silently lose batches to) a dead consumer.
    #[test]
    fn stage_worker_exits_when_a_shard_receiver_is_dropped() {
        let queues = ShardQueues::new(2, 16);
        let senders = queues.senders();
        let live = queues.shard(0).receiver();
        drop(queues); // shard 1's only receiver
        let (in_tx, in_rx) = unbounded();
        for id in 0..4 {
            let tuple =
                InFlightTuple::new(RowId(id), Row::new(vec![]), QuerySet::from_bits(4, [0]), 0);
            in_tx.send(Message::Data(Batch::from(vec![tuple]))).unwrap();
        }
        // No shutdown: the worker must return on its own.
        run_stage_worker(
            in_rx,
            senders,
            Arc::new(FilterChain::new()),
            true,
            true,
            None,
        );
        assert_eq!(live.len(), 1, "the first batch reached shard 0");
        assert_eq!(in_tx.len(), 2, "the worker stopped at the dead shard");
    }
}
