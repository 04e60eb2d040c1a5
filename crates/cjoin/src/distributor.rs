//! The Distributor (§3.2.2), sharded into workers that each run the whole join.
//!
//! A shard consumes one lane of the pipeline. For each batch it first runs the
//! Filter chain ([`FilterChain::process_batch`], early skip and the batched
//! kernel always on), then, for each surviving fact tuple, inspects the query
//! bit-vector and routes the tuple to the aggregation operator of every query
//! whose bit is set. Group-by columns and aggregate inputs that live on
//! dimension tables are read through the dimension rows the Filters attached to
//! the tuple, so no re-probing is necessary.
//!
//! The stage is `CjoinConfig::distributor_shards` [`Distributor`] shard workers,
//! each owning its *own* per-query [`GroupedAggregator`] partials, over one shared
//! array of [`MergeSlots`] in which a finished query's partials meet. Each shard
//! reads its own lane, fed by the scan workers: each hands it whole batches in
//! its own rotation and broadcasts control tuples to every lane. Each shard
//! thus runs the paper's horizontal Stage (§4, Figure 4) and its Distributor
//! on its own batches, one thread hop after the scan.
//!
//! ## The Filter step and the scan's mark
//!
//! A batch can meet a different filter chain at the shard than at the scan.
//! Query admission and the run-time optimizer grow, shrink and reorder the
//! chain *while the batch waits in its lane*, and the columnar scan front-end
//! probes the chain's leading Filter itself before it materialises a row (see
//! [`crate::preprocessor`]). That front-end marks each batch with the slot of
//! the Filter *that actually probed it* ([`Batch::mark_filter_applied`]), and
//! the shard applies every Filter of its own snapshot except the marked one, so
//! no Filter present when the batch is drained is ever missed and none runs
//! twice. Why a Filter that entered or left the chain in between, or one that
//! inherited a retired Filter's slot, changes nothing for the batch is argued
//! under "Control-tuple ordering" in [`crate::preprocessor`].
//!
//! ## Query-major batches
//!
//! The paper's Distributor is tuple-major: for each tuple, for each set bit, feed
//! that query's operator. A worker here drains a batch **query-major** instead. It
//! first walks the batch once and, for each set bit that names a registered query,
//! appends the tuple's index to that query's `routed` list; it then visits each
//! query that got any, resolves its `slot_map` and aggregator once, and feeds it
//! its tuples. With 16 queries holding several hundred KB of group state each, the
//! tuple-major order evicted an aggregator's index and arenas between two uses;
//! query-major keeps one query's state hot across the whole batch and hoists the
//! per-routing `Arc<QueryRuntime>` deref out of the inner loop. Both passes cost
//! O(routings), like the tuple-major loop: hundreds of registered queries with one
//! bit per tuple pay nothing for the queries a batch does not carry.
//!
//! The two orders are equivalent. A query's result is a fold of a commutative,
//! associative aggregation over the set of tuples carrying its bit, so the order in
//! which *one* query sees the tuples of a batch does not matter, and queries share
//! no aggregation state, so the order *across* queries does not either. Reordering
//! stops at the batch boundary: control tuples arrive as their own messages between
//! batches, so every tuple of a batch is still accumulated after the query's start
//! tuple and before its end tuple, exactly as before. The routing events are the
//! same set of (tuple, registered bit) pairs, so the `routings` and
//! `tuples_distributed` counters keep their exact values.
//!
//! ## Routing
//!
//! Hash aggregation is commutative and associative, so *any* tuple→shard
//! assignment is correct as long as each surviving tuple reaches exactly one
//! shard. Each scan worker sends every batch it flushes, whole, to the next
//! shard in its own rotation, so dispatch costs one lane send per batch. The
//! price is locality: one group's tuples can land on several shards, so the
//! shards' partials of a query overlap, and [`MergeSlots`] merges them once per
//! query end — O(N × groups), the same merge that folds disjoint partials
//! (`end_barrier_waits_for_every_shard_and_the_last_one_delivers` feeds one
//! group to two shards).
//!
//! Why not route by group: hashing each surviving tuple's group-by key to pick
//! its shard keeps every group on one shard, but the key exists only after the
//! Filters attached the dimension rows, which happens on the shard itself.
//!
//! ## Control tuples and the end-barrier
//!
//! Control tuples drive query lifecycle and reach **every** shard (every shard
//! owns partial state for every query; each is broadcast to every lane):
//!
//! * *query start* creates the shard-local aggregation operator. Admission
//!   enqueues the start tuple on every lane before any worker
//!   installs the query — so before any data carrying the query's bit exists —
//!   and each lane is FIFO, so no shard can see a query's tuple before its
//!   start tuple (invariant 1).
//! * *query end* is enqueued on every lane by the scan worker whose segment
//!   finished the query's pass last, after every scan worker flushed each batch
//!   that can carry the bit (see "Control-tuple ordering" in
//!   [`crate::preprocessor`]). So when the end tuple reaches a shard, the shard
//!   has already drained every tuple of that query on its lane; it detaches
//!   its partial and folds it into the query's merge slot. The shard whose
//!   contribution is the `N`-th — the **end-barrier** — takes the merged state
//!   out of the slot, finalizes it, counts the completion, cleans the query up
//!   (the engine's [`Cleanup`], Algorithm 2, which frees the id) and delivers
//!   the result, in that order (invariant 2), so an `Ok` result means the
//!   query is already cleaned up. With one shard the first contribution is the
//!   last and the partial comes straight back. The slot is left empty and
//!   every other shard has dropped its state for the query, so a query reusing
//!   the id never meets an unfinished merge.
//!
//! Shutdown flows the same way: the engine sends one shutdown message to each
//! lane, after the scan workers have exited, and each shard exits.
//!
//! ## Lock order
//!
//! This is the one statement of the engine's lock order: the core lock, then
//! the admission mutex, then one Filter's entries lock at a time — and a lane
//! send under none of them.
//!
//! A shard takes each Filter's entries read lock to probe it — one
//! [`ProbeGuard`](crate::dimension::ProbeGuard) per Filter per batch, dropped
//! before the next Filter — and, when it finishes a query, the admission
//! mutex and then each Filter's entries write lock to clean it up. A shard
//! waiting for either drains nothing, and it never holds either while it
//! blocks: a shard sends nothing into the pipeline. So whoever holds one of
//! them must not wait on a lane:
//!
//! * `submit` evaluates σ_cij(Dj) before it takes any lock, and sends the
//!   query-start tuple on every lane and the install on every scan worker's
//!   command channel after releasing both the core lock and the admission
//!   mutex: a full lane drains only while its shard can take the admission
//!   mutex to clean a finished query up.
//! * The deadline reaper and `fail_all_in_flight` hold admission only for
//!   bookkeeping and clean-ups. The reaper sends its cancels under the core
//!   lock, on command channels, which never block.
//! * The supervisor joins a dead pipeline's shards under the core lock alone,
//!   which no shard takes.
//! * The scan's `probe_leading` guard is dropped before the scan flushes into
//!   a lane.
//!
//! ## Failure
//!
//! The end-barrier can wait forever if a role dies: a dead shard never
//! contributes its partial, so `received` never reaches `N`, and a dead scan
//! worker never marks its segment, so the end tuple is never sent. The barrier
//! polls no failure flag — instead the supervisor (see [`crate::pipeline`])
//! first resolves every in-flight query's outcome with a typed `StageFailed`
//! error through the [`QueryRuntime`]'s first-wins latch, *then* tears the
//! stage down. Nobody blocks on the end-barrier — a contributing shard leaves
//! its partial in the slot and moves on — so a half-filled slot holds no
//! thread; it dies with the pipeline incarnation that owns the [`MergeSlots`],
//! and the respawned stage starts with empty ones. Dropping the lanes
//! disconnects the surviving roles so they exit and can be joined. Because the
//! outcome latch was already taken, a partially-merged result can never be
//! delivered — result delivery goes through [`QueryRuntime::resolve`], which
//! silently discards the loser.
//!
//! [`Batch::mark_filter_applied`]: crate::tuple::Batch::mark_filter_applied

use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use cjoin_common::QueryId;
use cjoin_query::GroupedAggregator;
use cjoin_storage::Row;

use crate::fault::{self, FaultPlan, FaultSite};
use crate::filter::FilterChain;
use crate::pool::BatchPool;
use crate::stats::{ShardCounters, SharedCounters};
use crate::tuple::{Batch, ControlTuple, Message, QueryRuntime};

/// Algorithm 2 for a finished query, as the engine hands it to every shard:
/// the shard that completes the query's end-barrier runs it before it delivers
/// the result.
pub type Cleanup = Arc<dyn Fn(QueryId) + Send + Sync>;

/// One shard's aggregation state of one registered query.
struct QueryAggregation {
    runtime: Arc<QueryRuntime>,
    aggregator: GroupedAggregator,
    /// Scratch: indices of the current batch's tuples that carry this query's
    /// bit; empty between batches.
    routed: Vec<u32>,
}

/// Where the shards' partials of a finished query meet: one mutex-guarded slot
/// per query id, shared by every [`Distributor`] of the stage.
pub struct MergeSlots {
    slots: Vec<Mutex<MergeSlot>>,
    shards: usize,
}

#[derive(Default)]
struct MergeSlot {
    /// The partials contributed so far, merged.
    merged: Option<GroupedAggregator>,
    received: usize,
}

impl MergeSlots {
    /// Creates the slots of a stage of `shards` workers; `max_concurrency` is
    /// the pipeline's `maxConc`.
    pub fn new(max_concurrency: usize, shards: usize) -> Arc<Self> {
        Arc::new(Self {
            slots: (0..max_concurrency).map(|_| Mutex::default()).collect(),
            shards,
        })
    }

    /// Folds one shard's partial into `id`'s slot. The contribution that
    /// completes the end-barrier gets the merged state back and leaves the slot
    /// empty for the id's next query; every other one returns `None`.
    fn contribute(&self, id: QueryId, partial: GroupedAggregator) -> Option<GroupedAggregator> {
        let mut slot = self.slots[id.index()].lock();
        let merged = match slot.merged.take() {
            Some(mut merged) => {
                merged.merge(partial);
                merged
            }
            None => partial,
        };
        slot.received += 1;
        if slot.received < self.shards {
            slot.merged = Some(merged);
            return None;
        }
        slot.received = 0;
        Some(merged)
    }
}

/// A shard's Filter step: every Filter of the chain as it is now, in order,
/// except the one the scan marked as already applied (see the module docs).
pub(crate) fn run_filters(chain: &FilterChain, batch: &mut Batch) {
    let mut filters = chain.snapshot();
    filters.retain(|f| !batch.filter_applied(f.slot));
    FilterChain::process_batch(&filters, batch, true, true);
}

/// One shard: the Filter chain, then aggregation, for the batches on its lane.
pub struct Distributor {
    input: Receiver<Message>,
    chain: Arc<FilterChain>,
    pool: Arc<BatchPool>,
    counters: Arc<SharedCounters>,
    shard_counters: Arc<ShardCounters>,
    merge: Arc<MergeSlots>,
    cleanup: Cleanup,
    queries: Vec<Option<QueryAggregation>>,
    /// Scratch: bits of the registered queries the current batch carries, in order
    /// of first appearance; empty between batches.
    carried: Vec<usize>,
    faults: Option<Arc<FaultPlan>>,
}

impl Distributor {
    /// Creates one shard of a stage whose shards share `merge`. `input` is the
    /// shard's own lane, `chain` the Filters it runs on every batch; `cleanup`
    /// runs for each query this shard finishes.
    pub fn new(
        input: Receiver<Message>,
        chain: Arc<FilterChain>,
        pool: Arc<BatchPool>,
        counters: Arc<SharedCounters>,
        shard_counters: Arc<ShardCounters>,
        merge: Arc<MergeSlots>,
        cleanup: Cleanup,
    ) -> Self {
        Self {
            input,
            chain,
            pool,
            counters,
            shard_counters,
            queries: (0..merge.slots.len()).map(|_| None).collect(),
            merge,
            cleanup,
            carried: Vec::new(),
            faults: None,
        }
    }

    /// Attaches a fault-injection plan (supervision tests only).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Runs the worker loop until a shutdown message arrives or every sender is
    /// dropped.
    pub fn run(&mut self) {
        while let Ok(msg) = self.input.recv() {
            fault::inject(&self.faults, FaultSite::DistributorShard);
            match msg {
                Message::Data(batch) => self.handle_batch(batch),
                Message::Control(control) => self.handle_control(control),
                Message::Shutdown => break,
            }
        }
    }

    /// Runs one batch through the Filter chain except the Filter the scan
    /// marked (see the module docs), then routes the survivors query-major: one
    /// pass buckets tuple indices by registered query, the second walks each
    /// carried query's bucket.
    fn handle_batch(&mut self, mut batch: Batch) {
        run_filters(&self.chain, &mut batch);
        SharedCounters::add(&self.counters.tuples_distributed, batch.len() as u64);
        SharedCounters::add(&self.shard_counters.tuples_distributed, batch.len() as u64);
        SharedCounters::add(&self.shard_counters.batches_drained, 1);
        let mut stray = 0u64;
        for (index, tuple) in batch.iter().enumerate() {
            for bit in tuple.bits.iter() {
                // A bit of no started query (or past `maxConc`) routes nowhere.
                let Some(Some(state)) = self.queries.get_mut(bit) else {
                    stray += 1;
                    continue;
                };
                if state.routed.is_empty() {
                    self.carried.push(bit);
                }
                state.routed.push(index as u32);
            }
        }
        let mut routings = 0u64;
        // Batch-scoped scratch mapping a query's dimension clauses to attached
        // rows: refs borrow straight from the batch's tuples (no `Row` clones)
        // and the buffer is reused across routing events (no per-routing
        // allocation once it has capacity).
        let mut dims_scratch: Vec<Option<&Row>> = Vec::new();
        for bit in self.carried.drain(..) {
            let state = self.queries[bit]
                .as_mut()
                .expect("carried bits name registered queries");
            // slot_map[k] = pipeline slot of the query's k-th clause.
            let slot_map = state.runtime.slot_map.as_slice();
            routings += state.routed.len() as u64;
            for index in state.routed.drain(..) {
                let tuple = &batch[index as usize];
                dims_scratch.clear();
                dims_scratch.extend(
                    slot_map
                        .iter()
                        .map(|&slot| tuple.dims.get(slot).and_then(Option::as_ref)),
                );
                state.aggregator.accumulate(&tuple.row, &dims_scratch);
            }
        }
        SharedCounters::add(&self.counters.routings, routings);
        SharedCounters::add(&self.shard_counters.routings, routings);
        if stray > 0 {
            SharedCounters::add(&self.shard_counters.stray_bits, stray);
        }
        self.pool.put(batch);
    }

    fn handle_control(&mut self, control: ControlTuple) {
        match control {
            ControlTuple::QueryStart(runtime) => {
                let bit = runtime.id.index();
                let aggregator = GroupedAggregator::new(&runtime.bound);
                self.queries[bit] = Some(QueryAggregation {
                    runtime,
                    aggregator,
                    routed: Vec::new(),
                });
            }
            ControlTuple::QueryEnd(id) => {
                let Some(state) = self.queries[id.index()].take() else {
                    // A query end without a preceding start would violate the
                    // broadcast FIFO invariant; never happens in a running pipeline.
                    debug_assert!(false, "query end for unregistered query {id:?}");
                    return;
                };
                SharedCounters::add(&self.shard_counters.partials_emitted, 1);
                let Some(merged) = self.merge.contribute(id, state.aggregator) else {
                    return;
                };
                let result = merged.finalize();
                // Count and clean up before delivering the result: a client
                // that wakes on the result channel must observe its own
                // query in `queries_completed`, and its id already free.
                SharedCounters::add(&self.counters.queries_completed, 1);
                (self.cleanup)(id);
                // First-wins delivery: if the supervisor or the deadline
                // reaper already failed this query, the Ok outcome is
                // dropped here. The clean-up above ran either way.
                state.runtime.resolve(Ok(result));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::InFlightTuple;
    use cjoin_common::QuerySet;
    use cjoin_query::{AggFunc, AggValue, AggregateSpec, ColumnRef, Predicate, StarQuery};
    use cjoin_storage::{Catalog, Column, RowId, Schema, SnapshotId, Table, Value};
    use crossbeam::channel::{bounded, unbounded, Sender};
    use std::sync::atomic::Ordering;
    use std::time::Instant;

    /// A [`Cleanup`] that records the ids it runs for, in order.
    fn recorder() -> (Cleanup, Arc<Mutex<Vec<QueryId>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = Arc::clone(&seen);
        (Arc::new(move |id| record.lock().push(id)), seen)
    }

    /// Catalog: fact(fk, amount) + dim color(k, name).
    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        let fact = Table::new(Schema::new(
            "fact",
            vec![Column::int("fk"), Column::int("amount")],
        ));
        let dim = Table::new(Schema::new(
            "color",
            vec![Column::int("k"), Column::str("name")],
        ));
        dim.insert(vec![Value::int(1), Value::str("red")], SnapshotId::INITIAL)
            .unwrap();
        dim.insert(
            vec![Value::int(2), Value::str("green")],
            SnapshotId::INITIAL,
        )
        .unwrap();
        catalog.add_fact_table(Arc::new(fact));
        catalog.add_table(Arc::new(dim));
        catalog
    }

    fn runtime(
        catalog: &Catalog,
        bit: u32,
        group_by_dim: bool,
    ) -> (Arc<QueryRuntime>, Receiver<cjoin_query::QueryOutcome>) {
        let mut builder = StarQuery::builder(format!("q{bit}"))
            .join_dimension("color", "fk", "k", Predicate::True)
            .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")));
        if group_by_dim {
            builder = builder.group_by(ColumnRef::dim("color", "name"));
        }
        let bound = builder.build().bind(catalog).unwrap();
        let (tx, rx) = bounded(1);
        (
            Arc::new(QueryRuntime {
                id: QueryId(bit),
                name: format!("q{bit}"),
                bound: Arc::new(bound),
                slot_map: vec![0],
                result_tx: tx,
                resolved: std::sync::atomic::AtomicBool::new(false),
                cancelled: std::sync::atomic::AtomicBool::new(false),
                deadline_at: None,
                admitted_at: Instant::now(),
                snapshot: SnapshotId::INITIAL,
                progress: Arc::new(crate::progress::QueryProgress::new(0, 1)),
            }),
            rx,
        )
    }

    fn tuple(bits: &[usize], fk: i64, amount: i64, dim_name: Option<&str>) -> InFlightTuple {
        let mut t = InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(fk), Value::int(amount)]),
            QuerySet::from_bits(8, bits.iter().copied()),
            1,
        );
        if let Some(name) = dim_name {
            t.dims[0] = Some(Row::new(vec![Value::int(fk), Value::str(name)]));
        }
        t
    }

    /// A one-shard Distributor with an empty chain over a fresh lane that
    /// runs `cleanup`.
    fn harness_with(cleanup: Cleanup) -> (Distributor, Sender<Message>) {
        let (tx, rx) = unbounded();
        let d = Distributor::new(
            rx,
            Arc::new(FilterChain::new()),
            BatchPool::new(4),
            SharedCounters::new(),
            Arc::new(ShardCounters::default()),
            MergeSlots::new(8, 1),
            cleanup,
        );
        (d, tx)
    }

    /// [`harness_with`] a [`recorder`], whose record it also returns.
    fn harness() -> (Distributor, Sender<Message>, Arc<Mutex<Vec<QueryId>>>) {
        let (cleanup, cleaned) = recorder();
        let (d, tx) = harness_with(cleanup);
        (d, tx, cleaned)
    }

    /// The shard that delivers a result has already cleaned its query up: the
    /// clean-up runs while the outcome is still unresolved.
    #[test]
    fn routes_tuples_to_registered_queries_and_finalizes() {
        let catalog = catalog();
        let (rt, result_rx) = runtime(&catalog, 0, true);
        let cleaned = Arc::new(Mutex::new(Vec::new()));
        let cleanup: Cleanup = {
            let (rt, cleaned) = (Arc::clone(&rt), Arc::clone(&cleaned));
            Arc::new(move |id| {
                cleaned
                    .lock()
                    .push((id, rt.resolved.load(Ordering::Acquire)))
            })
        };
        let (mut d, tx) = harness_with(cleanup);

        tx.send(Message::Control(ControlTuple::QueryStart(rt)))
            .unwrap();
        tx.send(Message::Data(Batch::from(vec![
            tuple(&[0], 1, 10, Some("red")),
            tuple(&[0], 2, 20, Some("green")),
            tuple(&[0], 1, 5, Some("red")),
        ])))
        .unwrap();
        tx.send(Message::Control(ControlTuple::QueryEnd(QueryId(0))))
            .unwrap();
        tx.send(Message::Shutdown).unwrap();
        d.run();

        let result = result_rx.try_recv().unwrap().unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(
            result.aggregate_for(&[Value::str("red")]).unwrap()[0],
            AggValue::Int(15)
        );
        assert_eq!(
            result.aggregate_for(&[Value::str("green")]).unwrap()[0],
            AggValue::Int(20)
        );
        assert_eq!(
            *cleaned.lock(),
            [(QueryId(0), false)],
            "cleaned up once, before delivery"
        );
    }

    #[test]
    fn tuples_for_unregistered_bits_are_ignored() {
        let catalog = catalog();
        let (mut d, tx, _cleaned) = harness();
        let (rt, result_rx) = runtime(&catalog, 1, false);
        tx.send(Message::Control(ControlTuple::QueryStart(rt)))
            .unwrap();
        // An empty batch, a batch carrying only bits nobody registered (bit 5, and
        // bit 40 of a bit-vector wider than this worker's `maxConc` of 8), and a
        // tuple shared by bit 5 and the registered bit 1.
        let mut wide = tuple(&[], 2, 2000, Some("green"));
        wide.bits = QuerySet::from_bits(64, [40]);
        tx.send(Message::Data(Batch::new())).unwrap();
        tx.send(Message::Data(Batch::from(vec![
            tuple(&[5], 1, 1000, Some("red")),
            wide,
        ])))
        .unwrap();
        tx.send(Message::Data(Batch::from(vec![tuple(
            &[1, 5],
            1,
            7,
            Some("red"),
        )])))
        .unwrap();
        tx.send(Message::Control(ControlTuple::QueryEnd(QueryId(1))))
            .unwrap();
        tx.send(Message::Shutdown).unwrap();
        d.run();
        let result = result_rx.try_recv().unwrap().unwrap();
        assert_eq!(result.rows().next().unwrap().1[0], AggValue::Int(7));
        // Every batch is recycled, whatever it carried ...
        for _ in 0..3 {
            d.pool.take(1);
        }
        assert_eq!((d.pool.hits(), d.pool.misses()), (3, 0));
        // ... tuples count whether or not anyone claims them, routings only for
        // registered queries.
        assert_eq!(d.counters.tuples_distributed.load(Ordering::Relaxed), 3);
        assert_eq!(d.counters.routings.load(Ordering::Relaxed), 1);
        let shard = d.shard_counters.snapshot(0);
        assert_eq!(shard.batches_drained, 3);
        assert_eq!(shard.stray_bits, 3, "bit 5 twice, bit 40 once");
    }

    #[test]
    fn multiple_concurrent_queries_share_one_tuple() {
        let catalog = catalog();
        let (mut d, tx, cleaned) = harness();
        let (rt0, rx0) = runtime(&catalog, 0, false);
        let (rt1, rx1) = runtime(&catalog, 1, true);
        let (rt3, rx3) = runtime(&catalog, 3, true);
        for rt in [rt0, rt1, rt3] {
            tx.send(Message::Control(ControlTuple::QueryStart(rt)))
                .unwrap();
        }
        // One batch, the three queries' bits interleaved across its tuples; bit 5
        // is carried but was never registered.
        let tuples = vec![
            tuple(&[0, 1], 1, 100, Some("red")),
            tuple(&[3, 5], 2, 20, Some("green")),
            tuple(&[1, 3], 1, 3, Some("red")),
            tuple(&[5], 2, 999, Some("green")),
            tuple(&[0, 1, 3, 5], 2, 7, Some("green")),
            tuple(&[0], 1, 1, Some("red")),
        ];
        let registered_bits: u64 = tuples
            .iter()
            .map(|t| t.bits.iter().filter(|&b| b != 5).count() as u64)
            .sum();
        assert_eq!(registered_bits, 9);
        tx.send(Message::Data(Batch::from(tuples))).unwrap();
        for bit in [0, 1, 3] {
            tx.send(Message::Control(ControlTuple::QueryEnd(QueryId(bit))))
                .unwrap();
        }
        tx.send(Message::Shutdown).unwrap();
        d.run();

        let scalar = rx0.try_recv().unwrap().unwrap();
        assert_eq!(scalar.rows().next().unwrap().1[0], AggValue::Int(108));
        let by_name = |result: &cjoin_query::QueryResult, name: &str| {
            result.aggregate_for(&[Value::str(name)]).unwrap()[0].clone()
        };
        let q1 = rx1.try_recv().unwrap().unwrap();
        assert_eq!(q1.num_rows(), 2);
        assert_eq!(by_name(&q1, "red"), AggValue::Int(103));
        assert_eq!(by_name(&q1, "green"), AggValue::Int(7));
        let q3 = rx3.try_recv().unwrap().unwrap();
        assert_eq!(q3.num_rows(), 2);
        assert_eq!(by_name(&q3, "red"), AggValue::Int(3));
        assert_eq!(by_name(&q3, "green"), AggValue::Int(27));
        assert_eq!(*cleaned.lock(), [QueryId(0), QueryId(1), QueryId(3)]);

        // The counters the rig's `routings_per_tuple` and the sharding suite's
        // sum invariants read: one routing per (tuple, registered bit), one
        // tuple per tuple, globally and on the shard.
        assert_eq!(d.counters.routings.load(Ordering::Relaxed), registered_bits);
        assert_eq!(d.counters.tuples_distributed.load(Ordering::Relaxed), 6);
        let shard = d.shard_counters.snapshot(0);
        assert_eq!(shard.routings, registered_bits);
        assert_eq!(shard.tuples_distributed, 6);
        assert_eq!(shard.batches_drained, 1);
    }

    /// A `queries`-wide Distributor whose input already holds: the start of
    /// `queries` scalar SUM queries, `batches` batches of `batch_len` tuples, each
    /// tuple carrying exactly one bit (tuple `i` of every batch: bit
    /// `i * 7 % queries`, amount `i`), every query's end, and a shutdown. Returns
    /// the worker, ready to `run`, and each query's result channel.
    fn one_bit_per_tuple(
        queries: usize,
        batches: usize,
        batch_len: usize,
    ) -> (Distributor, Vec<Receiver<cjoin_query::QueryOutcome>>) {
        let catalog = catalog();
        let (tx, rx) = unbounded();
        let d = Distributor::new(
            rx,
            Arc::new(FilterChain::new()),
            BatchPool::new(4),
            SharedCounters::new(),
            Arc::new(ShardCounters::default()),
            MergeSlots::new(queries, 1),
            Arc::new(|_| {}),
        );
        let mut results = Vec::new();
        for bit in 0..queries {
            let (rt, result_rx) = runtime(&catalog, bit as u32, false);
            results.push(result_rx);
            tx.send(Message::Control(ControlTuple::QueryStart(rt)))
                .unwrap();
        }
        for _ in 0..batches {
            let batch: Batch = (0..batch_len)
                .map(|i| {
                    let mut t = tuple(&[], 1, i as i64, Some("red"));
                    t.bits = QuerySet::from_bits(queries, [i * 7 % queries]);
                    t
                })
                .collect();
            tx.send(Message::Data(batch)).unwrap();
        }
        for bit in 0..queries {
            tx.send(Message::Control(ControlTuple::QueryEnd(QueryId(
                bit as u32,
            ))))
            .unwrap();
        }
        tx.send(Message::Shutdown).unwrap();
        (d, results)
    }

    /// The regime CJOIN targets: hundreds of registered queries, each tuple
    /// claimed by few of them. Every tuple is routed exactly once.
    #[test]
    fn many_queries_with_one_bit_per_tuple() {
        let (mut d, results) = one_bit_per_tuple(256, 2, 1024);
        d.run();
        assert_eq!(d.counters.routings.load(Ordering::Relaxed), 2 * 1024);
        assert_eq!(
            d.counters.tuples_distributed.load(Ordering::Relaxed),
            2 * 1024
        );
        for (bit, result_rx) in results.iter().enumerate() {
            // 7 is odd, so `i * 7 % 256 == bit` has four solutions below 1024.
            let expected: usize = (0..1024).filter(|i| i * 7 % 256 == bit).sum();
            let result = result_rx.try_recv().unwrap().unwrap();
            assert_eq!(
                result.rows().next().unwrap().1[0],
                AggValue::Int(2 * expected as i128),
                "query {bit}"
            );
        }
    }

    /// Not a test: times the regime above at scale (the cost must follow the
    /// routings, not queries × tuples). `cargo test --release -p cjoin-core
    /// one_bit_per_tuple_timing -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing probe, prints instead of asserting"]
    fn one_bit_per_tuple_timing() {
        let (mut d, _results) = one_bit_per_tuple(256, 300, 1024);
        let started = Instant::now();
        d.run();
        println!(
            "256 queries, {} routings: {:?}",
            d.counters.routings.load(Ordering::Relaxed),
            started.elapsed()
        );
    }

    #[test]
    fn query_with_no_matching_tuples_still_delivers_a_result() {
        let catalog = catalog();
        let (mut d, tx, _cleaned) = harness();
        let (rt, result_rx) = runtime(&catalog, 0, true);
        tx.send(Message::Control(ControlTuple::QueryStart(rt)))
            .unwrap();
        tx.send(Message::Control(ControlTuple::QueryEnd(QueryId(0))))
            .unwrap();
        tx.send(Message::Shutdown).unwrap();
        d.run();
        let result = result_rx.try_recv().unwrap().unwrap();
        assert!(
            result.is_empty(),
            "grouped query with no input has no groups"
        );
    }

    #[test]
    fn dropped_result_receiver_does_not_wedge_the_pipeline() {
        let catalog = catalog();
        let (mut d, tx, cleaned) = harness();
        let (rt, result_rx) = runtime(&catalog, 0, false);
        drop(result_rx);
        tx.send(Message::Control(ControlTuple::QueryStart(rt)))
            .unwrap();
        tx.send(Message::Control(ControlTuple::QueryEnd(QueryId(0))))
            .unwrap();
        tx.send(Message::Shutdown).unwrap();
        d.run();
        assert_eq!(*cleaned.lock(), [QueryId(0)], "cleanup still runs");
    }

    #[test]
    fn exits_when_senders_disconnect() {
        let (mut d, tx, _cleaned) = harness();
        drop(tx);
        d.run(); // must return immediately rather than block forever
    }

    /// The scan probed Filter A for a batch and marked it; before the shard
    /// drains the batch, a second query's admission grows the chain by Filter
    /// B. The shard's Filter step applies B and skips A: A's counters do not
    /// move, and a tuple A would drop survives, because A already ran where it
    /// was marked.
    #[test]
    fn shard_applies_the_grown_chain_except_the_scan_marked_filter() {
        use crate::dimension::DimensionTable;
        let chain = FilterChain::new();
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

        run_filters(&chain, &mut batch);
        let ids: Vec<RowId> = batch.iter().map(|t| t.row_id).collect();
        assert_eq!(ids, [RowId(0), RowId(2)], "B applied, A skipped");
        assert!(batch.filter_applied(a.slot) && !batch.filter_applied(b.slot));
        assert_eq!(a.stats.snapshot(), (0, 0, 0, 0), "A never probed here");
        let (b_in, b_dropped, b_probes, _) = b.stats.snapshot();
        assert_eq!((b_in, b_dropped, b_probes), (3, 1, 3));
    }

    // ------------------------------------------------------------------
    // End-barrier
    // ------------------------------------------------------------------

    /// Invariant 2 at the unit level, for stages of 1, 2 and 4 shards: nothing is
    /// delivered before the last shard's contribution, that shard delivers the
    /// exact global result (counted, cleaned up, resolved), and the slot is
    /// left ready for the id's next query.
    #[test]
    fn end_barrier_waits_for_every_shard_and_the_last_one_delivers() {
        let catalog = catalog();
        // Shard `i` drains `rows[i]`; the last shard of every stage drains
        // nothing (an empty partial still counts towards the barrier).
        let rows: [&[(i64, &str, i64)]; 4] = [
            &[(1, "red", 10)],
            &[(2, "green", 20), (1, "red", 1)],
            &[(1, "red", 100)],
            &[],
        ];
        for shards in [1, 2, 4] {
            let merge = MergeSlots::new(8, shards);
            let counters = SharedCounters::new();
            let (cleanup, cleaned) = recorder();
            for round in 0..2 {
                let (rt, result_rx) = runtime(&catalog, 3, true);
                let mut expected = std::collections::BTreeMap::new();
                for shard in 0..shards {
                    let shard_rows = if shard + 1 == shards {
                        rows[3]
                    } else {
                        rows[shard]
                    };
                    let (tx, rx) = unbounded();
                    let shard_counters = Arc::new(ShardCounters::default());
                    let mut worker = Distributor::new(
                        rx,
                        Arc::new(FilterChain::new()),
                        BatchPool::new(4),
                        Arc::clone(&counters),
                        Arc::clone(&shard_counters),
                        Arc::clone(&merge),
                        Arc::clone(&cleanup),
                    );
                    tx.send(Message::Control(ControlTuple::QueryStart(Arc::clone(&rt))))
                        .unwrap();
                    tx.send(Message::Data(
                        shard_rows
                            .iter()
                            .map(|&(fk, name, amount)| {
                                *expected.entry(name).or_insert(0i128) += amount as i128;
                                tuple(&[3], fk, amount, Some(name))
                            })
                            .collect(),
                    ))
                    .unwrap();
                    tx.send(Message::Control(ControlTuple::QueryEnd(QueryId(3))))
                        .unwrap();
                    tx.send(Message::Shutdown).unwrap();

                    assert!(
                        result_rx.try_recv().is_err(),
                        "{shards} shards: no result before the barrier completes"
                    );
                    assert_eq!(
                        counters.queries_completed.load(Ordering::Relaxed),
                        round,
                        "{shards} shards: not counted before the barrier completes"
                    );
                    assert_eq!(cleaned.lock().len() as u64, round, "not cleaned up yet");
                    worker.run();
                    assert_eq!(shard_counters.partials_emitted.load(Ordering::Relaxed), 1);
                    assert_eq!(
                        shard_counters.tuples_distributed.load(Ordering::Relaxed),
                        shard_rows.len() as u64
                    );
                }
                let result = result_rx.try_recv().unwrap().unwrap();
                assert_eq!(result.num_rows(), expected.len());
                for (name, sum) in &expected {
                    assert_eq!(
                        result.aggregate_for(&[Value::str(name)]).unwrap()[0],
                        AggValue::Int(*sum),
                        "{shards} shards, group {name}"
                    );
                }
                assert_eq!(
                    counters.queries_completed.load(Ordering::Relaxed),
                    round + 1
                );
                assert_eq!(
                    *cleaned.lock(),
                    vec![QueryId(3); round as usize + 1],
                    "one clean-up per query"
                );
            }
            assert_eq!(
                counters.tuples_distributed.load(Ordering::Relaxed),
                2 * rows[..shards - 1]
                    .iter()
                    .map(|r| r.len() as u64)
                    .sum::<u64>(),
                "shards update the global totals too"
            );
        }
    }

    /// [`MergeSlots`] under contention: `SHARDS` threads each contribute one
    /// seeded partial per id per round, in a per-thread order of the ids, with
    /// a barrier between rounds (an id's next query starts only after the last
    /// one merged). Per (id, round) exactly one contribution gets the merged
    /// state back, and it equals the fold of that round's partials; afterwards
    /// every slot is empty and merges one more round the same way.
    #[test]
    fn merge_slots_deliver_each_merge_once_under_contention() {
        const SHARDS: usize = 4;
        const IDS: usize = 3;
        const ROUNDS: u64 = 200;
        let catalog = catalog();
        let bound = Arc::clone(&runtime(&catalog, 0, true).0.bound);
        // Shard `shard`'s partial of query `id` in `round`: up to seven rows.
        let partial = |id: usize, round: u64, shard: usize| {
            let mut seed = (round << 16) ^ ((id as u64) << 8) ^ shard as u64;
            let mut aggregator = GroupedAggregator::new(&bound);
            for _ in 0..cjoin_common::splitmix64(&mut seed) % 8 {
                let fk = 1 + (cjoin_common::splitmix64(&mut seed) % 2) as i64;
                let amount = (cjoin_common::splitmix64(&mut seed) % 1000) as i64;
                let name = if fk == 1 { "red" } else { "green" };
                let dim = Row::new(vec![Value::int(fk), Value::str(name)]);
                let fact = Row::new(vec![Value::int(fk), Value::int(amount)]);
                aggregator.accumulate(&fact, &[Some(&dim)]);
            }
            aggregator
        };
        let fold = |id: usize, round: u64| {
            let mut merged = partial(id, round, 0);
            for shard in 1..SHARDS {
                merged.merge(partial(id, round, shard));
            }
            merged.finalize()
        };

        let slots = MergeSlots::new(IDS, SHARDS);
        let barrier = std::sync::Barrier::new(SHARDS);
        let delivered: Vec<(usize, u64, cjoin_query::QueryResult)> = std::thread::scope(|scope| {
            let shards: Vec<_> = (0..SHARDS)
                .map(|shard| {
                    let (slots, barrier, partial) = (&slots, &barrier, &partial);
                    scope.spawn(move || {
                        let mut merged = Vec::new();
                        for round in 0..ROUNDS {
                            for k in 0..IDS {
                                let id = (k + shard + round as usize) % IDS;
                                let part = partial(id, round, shard);
                                if let Some(m) = slots.contribute(QueryId(id as u32), part) {
                                    merged.push((id, round, m.finalize()));
                                }
                            }
                            barrier.wait();
                        }
                        merged
                    })
                })
                .collect();
            shards
                .into_iter()
                .flat_map(|shard| shard.join().unwrap())
                .collect()
        });

        let mut seen = std::collections::BTreeSet::new();
        for (id, round, result) in delivered {
            assert!(
                seen.insert((id, round)),
                "id {id}, round {round}: merged twice"
            );
            assert_eq!(result, fold(id, round), "id {id}, round {round}");
        }
        assert_eq!(
            seen.len(),
            IDS * ROUNDS as usize,
            "a merge was never delivered"
        );
        for slot in &slots.slots {
            let slot = slot.lock();
            assert!(
                slot.merged.is_none() && slot.received == 0,
                "slot left non-empty"
            );
        }
        for id in 0..IDS {
            let qid = QueryId(id as u32);
            for shard in 0..SHARDS - 1 {
                assert!(slots.contribute(qid, partial(id, ROUNDS, shard)).is_none());
            }
            let last = slots.contribute(qid, partial(id, ROUNDS, SHARDS - 1));
            assert_eq!(
                last.expect("the last partial merges").finalize(),
                fold(id, ROUNDS)
            );
        }
    }
}
