//! The Preprocessor (§3.2.2, §3.3): the scan front-end, one or more scan workers
//! that each run the paper's Preprocessor over a segment of the fact table.
//!
//! The Preprocessor owns the continuous scan. For every fact tuple it:
//!
//! 1. initialises the query bit-vector `bτ` from the registered queries' fact-table
//!    predicates and snapshot visibility (§3.5 treats snapshot membership as a
//!    virtual fact predicate);
//! 2. detects query completion: when the scan wraps around a query's starting tuple,
//!    the query's bit is switched off and an *end-of-query* control tuple is emitted
//!    ahead of that tuple (§3.3.2);
//! 3. applies pending admissions: a newly registered query is installed between
//!    two chunks — its starting position is recorded, its bit joins the active mask,
//!    and a *query-start* control tuple is emitted (§3.3.1, Algorithm 1 lines 17–22);
//! 4. batches surviving tuples and hands each batch to a Distributor shard,
//!    which runs the Filter chain and aggregates it.
//!
//! The scan loop is allocation-free at steady state: the per-row bit-vector is
//! computed in a Preprocessor-owned scratch `QuerySet` (as is the list of queries
//! ending at a chunk start), and surviving rows are written into recycled
//! in-flight tuples obtained from the [`BatchPool`] via [`Batch::next_slot`] +
//! [`InFlightTuple::reset`](crate::tuple::InFlightTuple::reset), reusing their
//! bit-vector words and dimension-slot vectors in place (§4's specialized
//! allocator). The `tuples_allocated` / `tuples_recycled` counters expose this.
//!
//! It is also O(1) per row in the number of active queries: the positions where
//! queries end are indexed in an ordered `position → bits` map
//! (`Preprocessor::ends_at`), and the scan advances in chunks that never contain
//! one (see "Chunks" below), so end detection and `passed_start` flipping cost
//! one lookup and one range query per chunk and nothing per row — instead of
//! rescanning every active query per row.
//!
//! ## Scan workers (`CjoinConfig::scan_workers`)
//!
//! The fact table's page range is split into `N` static segments
//! ([`cjoin_storage::segment_ranges`]; one segment, the whole table, for
//! `N = 1`); each segment is owned by one worker — a [`Preprocessor`] on its own
//! thread — running the full per-row path above over its own circular segment
//! cursor, feeding the shard lanes concurrently with the other workers. No
//! thread owns the query lifecycle; the workers keep the paper's §3.3
//! guarantees among themselves:
//!
//! * **Admission** — every worker has its own command channel, and the
//!   engine's `submit` runs `start_query` on its own thread: it enqueues the
//!   query-start control tuple on every shard lane, then sends the install to
//!   every worker. Each worker installs the query at its own chunk boundary,
//!   recording where the query's pass over its segment ends. Cancels, replica
//!   handoffs and shutdown reach every worker the same way, one send each.
//! * **Exactly one pass** — each worker independently retires the query's bit the
//!   moment its segment cursor reaches the query's end in its segment: the
//!   starting tuple, one wrap later, or earlier, after the last row group that
//!   can match (see "Where a query ends"). From then on the worker never sets
//!   the bit, so no segment row is seen twice; and because every segment
//!   installs the bit at a boundary it was not yet produced past, no row the
//!   query can want is missed. The segment ranges partition the table, so the
//!   union over workers is at most one pass.
//! * **Completion** — a worker that retires a bit flushes what can still carry
//!   it and marks its segment complete on the query's [`QueryProgress`], which
//!   admission created split across the `N` segments. The worker whose mark is
//!   the `N`-th closes the query itself: it broadcasts the single end-of-query
//!   control tuple to every lane, in-band behind the data (see "Control-tuple
//!   ordering" below), and goes on scanning. Nobody parks and nobody waits. At
//!   width 1: install, scan, wrap, end.
//!
//! ## Chunks
//!
//! Every scan worker runs one lifecycle over one cursor, a
//! [`ContinuousScan`] restricted to its segment: fold the cursor into the
//! segment (a wrap-around starts a pass), retire the queries whose pass ends
//! at the cursor's position, mark the queries that start there as having
//! passed their start, produce one *chunk* of rows (the one produced from the
//! segment's start counts the pass), advance. Admission happens between two
//! chunks, so a query's starting position is always a chunk start.
//! `Preprocessor::process_next_chunk` is that step.
//!
//! A chunk starts at the cursor and ends at the nearest of: `batch_size` rows
//! on, the segment's end, the next position where a query ends, and — where a
//! replica covers the cursor — the edge of the replica's row group (the last
//! group ends at the replica's frontier). So a chunk never contains a query's
//! end, never straddles two row groups and never straddles the frontier.
//!
//! **Where a query ends.** Each worker decides at install, for its own
//! segment (`colscan::pass_end`). Without a replica, or without a fact
//! predicate, the query ends where it started, one wrap later (§3.3.2). With
//! both, it ends at the end of the last row group,
//! in pass order from the start, whose zone verdict is not `Never` — the
//! row-store tail and a group whose checksum fails always count as able to
//! match — or, if no row of the segment can match, at install. That end is
//! final only because rows appended after the install are invisible to the
//! query: its snapshot was already committed, and every later append carries
//! a larger `xmin`. A query pinned to a snapshot past the committed watermark
//! keeps the wrap. The end goes into `ends_at` where a wrapping query's start
//! goes, already passed, so the chunk-start step above retires the query the
//! first time the cursor gets there, and the chunk extent stops there.
//!
//! How a chunk's rows are read is decided per chunk from what the worker can
//! observe, not from a mode: a chunk inside a row group of a replica
//! (`CjoinConfig::columnar_scan` builds one) whose checksum verified is read
//! from the encoded data, in the four phases below; any other chunk — there
//! is no replica, the rows lie past its last row group, or the group is
//! quarantined — is read from the row store with
//! [`Table::read_range`](cjoin_storage::Table::read_range) and each row gets
//! its `bτ` from the active mask, snapshot visibility and the fact predicates
//! in turn (`Preprocessor::emit_materialized_rows`). The replica is a prefix
//! of the row store in whole row groups, so both give the same tuples; see
//! [`crate::colscan`] for why encoded evaluation and late materialisation are
//! exact.
//!
//! **The replica handoff.** A commit that completes a row group encodes it
//! into a replica that shares every older group by `Arc`, and sends that
//! replica on the command channel ([`PreprocessorCommand::Replica`]) to every
//! worker; each worker adopts it at its next command boundary, between two
//! chunks. The cursor, the active queries and where they end stay as they
//! are. Both replicas are prefixes of the same append-only row store, so a
//! chunk reads the same tuples from either; the longer one only moves rows
//! from the row store to the encoded side. An end decided against the old
//! replica stays exact: the rows it ruled out are the same rows under the new
//! one, and the rows it had to read as tail are simply read encoded now. Each
//! group the two replicas share keeps the checksum verdict the worker already
//! reached, and only a new group is verified. The encoded predicates are
//! compiled again, because a string column's dictionary only appends: a
//! grown one keeps every code, but may now hold a string a predicate names,
//! which compiled to "no row" before.
//!
//! Without a replica every query ends where it started, so only batch size,
//! segment end and query starts cut chunks, and a query start is itself a
//! chunk start of an earlier pass — the segment start plus a multiple of
//! `batch_size`, unless an append moved the end of that pass. So the chunks
//! are the batches [`ContinuousScan::next_batch`] would return, in the same
//! order, except where such a starting tuple falls inside one: that chunk ends
//! there and the next begins with the query's retirement.
//!
//! A chunk inside a verified row group is processed a phase at a time, and a
//! row exists only once something wants it:
//!
//! 1. **Verdicts.** Each active fact predicate is resolved once for the chunk:
//!    the group's zone maps decide it (`Never` removes the query's bit from the
//!    chunk's base mask, `Always` leaves nothing to test), or the query's
//!    install-time-compiled [`EncodedFactPredicate`] fills a match buffer over
//!    the encoded data. If no query can want any row the chunk is skipped.
//! 2. **Selection.** A selection vector of the rows whose `bτ` is non-zero
//!    after the match buffers and snapshot visibility, their bit-vectors side
//!    by side in one flat scratch (stride = words of `maxConc`). When every
//!    active query owns a match buffer, a row none of them matched costs its
//!    share of one OR over the buffers and nothing else.
//! 3. **Leading probe.** The chain's *leading* Filter — the first of
//!    [`FilterChain`]'s order at that moment, the one the run-time optimizer
//!    keeps most selective — is probed for the selected rows straight off the
//!    encoded foreign-key column: one bulk gather
//!    ([`IntEncoding::gather`](cjoin_storage::IntEncoding::gather)), one
//!    [`ProbeGuard`](crate::dimension::ProbeGuard) for the chunk, the §3.2.2
//!    early skip honoured, bits ANDed in place by the kernel the shards use
//!    (`filter::probe_bits`), the selection compacted to the survivors.
//! 4. **Materialisation.** `project_row` + `reset` for the survivors only — the
//!    union of columns the active queries' join keys, group-bys and aggregates
//!    read, positions preserved, the rest NULL — with the joined dimension row
//!    attached and every emitted batch marked
//!    ([`Batch::mark_filter_applied`]) with the slot of the Filter that probed
//!    it, so the shard runs the *rest* of the chain and never probes it again
//!    (the argument for chains that change between chunk and shard is under
//!    "Control-tuple ordering" below).
//!
//! **Why only the leading Filter.** The paper drops tuples as early as possible
//! (§3.2.2) and names tuple materialisation as the cost its allocator exists to
//! hide (§4); on a selective mix the first Filter discards most of what the
//! fact predicates let through, so probing it before phase 4 removes most of
//! the rows there are to build, while every further Filter moved to the scan
//! thread would move its probes onto the one thread that cannot be widened
//! without splitting the scan. The Filter is chosen per chunk and recorded per
//! batch, so reordering needs no coordination with the scan. When phase 3
//! cannot run — the chain is empty, no active query references the leading
//! dimension, or its foreign key is not a non-null integer column of the
//! replica — phase 4 materialises the whole selection unmarked and the shard
//! probes it. Chunks read from the row store are unmarked too.
//!
//! **Lock discipline.** The probe guard is the read lock of the dimension's
//! hash table, and a shard needs the same lock to make progress. Phase 3 takes
//! it and releases it before phase 4 begins; only phase 4 flushes (which can
//! block on a full lane). So the scan never blocks while holding it — with a
//! writer-preferring lock, a `register_query` / `unregister_query` queued
//! behind a guard held across a blocked flush would stall the shard's next
//! read, and the shard would never drain the lane the flush waits on.
//!
//! **Filter statistics.** The leading Filter's `tuples_in` / `probes` / `skips`
//! / `tuples_dropped` for a chunk are flushed once, from the scan side, so its
//! drop rate stays whole for `reorder_filters`, and "tuples entering the chain"
//! still means the tuples that met their first Filter.
//!
//! ## Control-tuple ordering
//!
//! §3.3.3 requires that a control tuple enqueued before (after) a fact tuple is
//! never processed by the Distributor after (before) that tuple. Every message
//! reaches a shard in one hop, scan worker → lane, and each lane is FIFO: the
//! vendored channel is a `Mutex<VecDeque>`, so a shard receives two pushes to
//! its lane in the order they took the lane's mutex, and that order agrees with
//! happens-before. Both halves of §3.3.3 follow, at every scan width and every
//! shard count, with no barrier:
//!
//! * **Start before data.** `start_query` pushes `QueryStart(q)` on every
//!   lane before it sends any worker the install, all on the submitting
//!   thread, and a worker sets `q`'s bit only after it has the install. So on
//!   every lane the start tuple is ahead of every batch that carries the bit.
//!   A reused id is no exception: Algorithm 2 frees an id only after the last
//!   shard has drained its previous query's end tuple, so the new start tuple
//!   lands behind that end on every lane.
//! * **Data before end.** A worker retires `q`'s bit at a chunk start or a
//!   command boundary, after the previous chunk's last flush, so every batch of
//!   its own that can carry the bit is already on a lane. Only then does it
//!   mark its segment complete on `q`'s [`QueryProgress`], a release
//!   increment. The closer's mark, the `N`-th, reads the count with acquire, so
//!   each other worker's pushes happen before the closer's
//!   `broadcast_control(QueryEnd)`, and the closer's own pushes precede it in
//!   program order. On every lane, every batch that carries the bit is ahead
//!   of the end tuple; a batch pushed later cannot carry it, because every
//!   worker retired the bit before it marked.
//!
//! At width 1 this is the paper's FIFO pipeline with the control tuple in
//! band: nothing stalls, nothing drains, nothing waits.
//!
//! **A dead worker.** A scan worker that dies never marks its segment, so no
//! end tuple is ever sent for a query it carried. Nobody waits for that end:
//! no other worker parks behind a closer, and a closer's broadcast does not
//! depend on any other worker being alive. The supervisor resolves every
//! in-flight query with `StageFailed` before it tears the incarnation down (see
//! [`crate::pipeline`]), so the end that never comes is owed to nobody. A dead
//! shard drops its lane's receiver, so a worker blocked on that full lane gets
//! a send error instead of waiting.
//!
//! **Filters that change while a batch waits.** A batch can meet a different
//! chain at its shard than the scan saw, and the shard skips only the Filter
//! whose slot the scan marked. That is exact:
//!
//! * A Filter that entered the chain after the batch was produced may run on
//!   it or not. The batch cannot carry the bit of the query whose admission
//!   created the Filter: the bit is set only after that query is installed,
//!   which follows its registration and comes at a chunk boundary after the
//!   batch's chunk. Every other registered query has a 1 in the new Filter's
//!   `bDj`, so the Filter passes their tuples through and attaches nothing
//!   they read.
//! * A Filter is retired only by the clean-up of the last query that
//!   references it, which runs after that query's end tuple reached every lane
//!   and the last shard drained it. Every batch that carries such a query's
//!   bit was ahead of the end on its lane, so it was drained before the Filter
//!   could go. A batch the shard drains after the retirement carries no bit of
//!   a query that referenced it.
//! * A dimension keeps its slot for the engine's lifetime, so a Filter
//!   re-created for a dimension whose previous Filter was retired inherits the
//!   slot, and a batch may carry the mark its predecessor left. By the point
//!   above, such a batch carries no bit of a query that referenced the
//!   predecessor. Nor can it carry the bit of a query registered with the
//!   successor: that query was admitted after the predecessor's retirement,
//!   after the scan chose the predecessor for the batch's chunk, so its
//!   install comes at a later chunk boundary. Its ids cannot be reused either:
//!   a bit the batch carries is released only by a clean-up behind that
//!   query's end, which the batch is ahead of. So the successor has nothing to
//!   do on the batch, and skipping it is exact.
//!
//! The pinned `control_barriers` and `barrier_wait_ns` statistics of the
//! drain barrier this replaced read 0.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender, TryRecvError};

use cjoin_common::{QueryId, QuerySet};
use cjoin_query::star::ColumnSource;
use cjoin_query::{BoundPredicate, BoundStarQuery};
use cjoin_storage::{
    ColumnId, ColumnarTable, ContinuousScan, EncodedColumn, Row, RowGroup, RowId, RowVersion,
    ScanStep, ScanVolume, SnapshotId, SnapshotManager,
};

use crate::colscan::{EncodedFactPredicate, PassEnd, ReplicaScan, ZoneVerdict};
use crate::config::CjoinConfig;
use crate::dimension::{DimEntry, DimensionTable};
use crate::fault::{self, FaultSite};
use crate::filter::{combine_versions, probe_bits, BatchLocalStats, FilterChain, ProbeOutcome};
use crate::pool::BatchPool;
use crate::progress::QueryProgress;
use crate::queue::ShardSenders;
use crate::stats::{ScanWorkerCounters, SharedCounters};
use crate::tuple::{Batch, ControlTuple, InFlightTuple, Message, QueryRuntime};

/// How long the scan sleeps when it has nothing to do (no registered query, or
/// an empty segment): the operator is always on but must not spin.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// A command to one scan worker, on that worker's own channel: every command
/// the engine (acting as the Pipeline Manager) gives the front-end is sent to
/// each worker.
#[derive(Debug)]
pub enum PreprocessorCommand {
    /// Install a freshly admitted query (Algorithm 1, lines 17–22). Sent by
    /// `start_query` after the query-start control tuple is on every lane.
    /// A worker reads the query's fact predicate and snapshot from the runtime.
    Install(Arc<QueryRuntime>),
    /// Cancel an in-flight query: finalize it immediately (retire its bit,
    /// emit the end-of-query control tuple behind its data as usual) so
    /// its partial state is released through the normal lifecycle machinery.
    /// The canceller marks the query cancelled and resolves its outcome
    /// *before* sending this, so the Distributor's eventual result for the
    /// truncated scan is discarded by the first-wins latch — exactly-once
    /// accounting is preserved because the control-tuple protocol is unchanged.
    /// The send happens without any lock, so by the time it arrives the query
    /// may have finished and a new one may run under the same id: a worker
    /// retires only a query whose runtime is marked cancelled. It may also
    /// arrive before the install: a worker retires a query that is already
    /// cancelled when it installs it.
    Cancel {
        /// The query to cancel.
        id: QueryId,
    },
    /// A replica grown by sealed row groups, adopted by each worker between
    /// two chunks (see "The replica handoff" in the module doc).
    Replica(Arc<ColumnarTable>),
    /// Shut the worker down: it stops producing and exits.
    Shutdown,
}

/// Sends `command()` to every scan worker's own channel, in worker order, and
/// returns whether every worker's receiver was still there. A worker that is
/// gone belongs to an incarnation the supervisor is tearing down.
pub(crate) fn send_to_workers(
    workers: &[Sender<PreprocessorCommand>],
    command: impl Fn() -> PreprocessorCommand,
) -> bool {
    let mut delivered = true;
    for tx in workers {
        delivered &= tx.send(command()).is_ok();
    }
    delivered
}

/// Algorithm 1, lines 17–22: puts an admitted query into the pipeline. Run
/// by the engine's `submit` on the caller's thread once it holds no lock (see
/// "Lock order" in [`crate::distributor`]). It enqueues the query-start
/// control tuple on every lane of the incarnation that registered the query,
/// *then* sends the install to each of its scan workers (see "Control-tuple
/// ordering" in the module doc), and counts the admission if every worker was
/// sent the install. `runtime`'s progress must be split across
/// `workers.len()` segments. Returns whether every worker was sent it.
pub(crate) fn start_query(
    runtime: &Arc<QueryRuntime>,
    lanes: &ShardSenders,
    workers: &[Sender<PreprocessorCommand>],
    counters: &SharedCounters,
) -> bool {
    lanes.broadcast_control(&ControlTuple::QueryStart(Arc::clone(runtime)));
    let sent = send_to_workers(workers, || {
        PreprocessorCommand::Install(Arc::clone(runtime))
    });
    if sent {
        SharedCounters::add(&counters.queries_admitted, 1);
    }
    sent
}

/// Everything a scan worker shares with the rest of the pipeline. Bundled so
/// the constructor stays readable as the front-end grows.
pub struct PreprocessorContext {
    /// This worker's index in the front-end. Worker 0 publishes the live
    /// in-pass counters.
    pub worker: usize,
    /// Every shard's lane: each batch goes to the next one in this worker's
    /// rotation, each control tuple to all of them.
    pub shards: ShardSenders,
    /// Pooled batch allocator.
    pub pool: Arc<BatchPool>,
    /// Number of dimension slots currently allocated (for tuple sizing).
    pub slot_count: Arc<AtomicUsize>,
    /// The filter chain the shards run. An encoded chunk probes its leading
    /// Filter itself, before it materialises a row.
    pub chain: Arc<FilterChain>,
    /// Global pipeline counters.
    pub counters: Arc<SharedCounters>,
    /// This worker's own counters (always sum to the global totals).
    pub worker_counters: Arc<ScanWorkerCounters>,
    /// Engine configuration.
    pub config: CjoinConfig,
    /// The catalog's snapshots. A query whose snapshot is committed at install
    /// cannot see a row appended after it, which is what lets the replica's
    /// zone maps end its pass early.
    pub snapshots: Arc<SnapshotManager>,
}

/// Per-query state kept by the Preprocessor while the query is active.
#[derive(Debug)]
struct ActiveQuery {
    /// The installed query (progress tracker, cancellation flag).
    runtime: Arc<QueryRuntime>,
    fact_predicate: Option<BoundPredicate>,
    /// The fact predicate compiled for evaluation over encoded column data
    /// (with a replica and a fact predicate only).
    encoded_predicate: Option<EncodedFactPredicate>,
    /// Fact columns this query's join keys, group-bys and aggregate inputs
    /// read (only with a replica): the refcounted inputs to the
    /// late-materialization projection.
    needs: Vec<ColumnId>,
    snapshot: SnapshotId,
    /// Row position (within this worker's segment) at which the query's
    /// segment pass completes: where it entered the operator, for a query
    /// that runs to the wrap, or the end of its last row group that can match.
    end_position: u64,
    /// False until the scan has produced the starting tuple once, for a query
    /// that ends where it started (the second encounter is the wrap-around);
    /// true from install for a query that ends elsewhere.
    passed_start: bool,
}

/// What the scan-side probe of the leading Filter (phase 3) owes a surviving
/// row once phase 4 has materialised it. Owned, not borrowed: the
/// [`ProbeGuard`](crate::dimension::ProbeGuard) is gone by then.
#[derive(Debug)]
enum Joined {
    /// Nothing to attach (probe skipped, or a miss a query ignoring the
    /// dimension survives).
    Nothing,
    /// The joining dimension row.
    Row(Row),
    /// The key's content versions: claimed-split on the materialised tuple.
    Versions(Vec<Arc<DimEntry>>),
}

/// Reusable buffers of a chunk: the rows read from the row store, and the
/// phases of an encoded chunk. Every vector is cleared, never shrunk, so the
/// steady state allocates nothing.
#[derive(Debug, Default)]
struct ChunkScratch {
    /// Match bitmaps of the encoded predicate kernels, one per owed test.
    match_bufs: Vec<Vec<bool>>,
    /// Columns whose encoded bytes this chunk read for all of its rows.
    touched: Vec<bool>,
    /// The chunk's rows, when it is read from the row store.
    tail_rows: Vec<(RowId, Row, RowVersion)>,
    /// Phase 1: the per-row tests phase 2 still owes, `(query bit, match
    /// buffer)` (a query whose zone verdict was `Always`, or that has no fact
    /// predicate, owes none; a `Never` verdict already removed the bit from
    /// `base`).
    tests: Vec<(usize, usize)>,
    /// Phase 1: words of the active mask minus the queries the zone maps ruled out.
    base: Vec<u64>,
    /// Phase 2: OR of the match buffers, when every active query has one.
    wanted: Vec<bool>,
    /// Phase 3: the leading Filter's foreign keys, decoded for the selection.
    values: Vec<i64>,
    /// Phase 2: the selection vector — chunk offsets of the rows whose `bτ` is
    /// non-zero — compacted by phase 3 to the probe's survivors.
    sel: Vec<u32>,
    /// The selected rows' bit-vectors, `base.len()` words each.
    sel_bits: Vec<u64>,
    /// Phase 3: per surviving row, what to attach once it is materialised
    /// (empty when the leading Filter was not probed scan-side).
    joined: Vec<Joined>,
}

#[inline]
fn clear_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] &= !(1u64 << (bit % 64));
}

/// The fact columns `bound`'s join keys, group-bys and aggregate inputs read —
/// the set an encoded chunk must materialise for tuples carrying its bit.
fn query_column_needs(bound: &BoundStarQuery) -> Vec<ColumnId> {
    let mut needs: Vec<ColumnId> = bound.dimensions.iter().map(|d| d.fact_fk_column).collect();
    let refs = bound
        .group_by
        .iter()
        .chain(bound.aggregates.iter().filter_map(|a| a.input.as_ref()));
    for col in refs {
        if let ColumnSource::Fact(c) = col.source {
            needs.push(c);
        }
    }
    needs.sort_unstable();
    needs.dedup();
    needs
}

/// `bound`'s fact predicate compiled for evaluation over `replica`'s encoded
/// columns.
///
/// # Panics
/// Never for a query the engine admits: `compile` gives up only on a column
/// the schema lacks, which `StarQuery::bind` already rejected, or on a string
/// column the replica stores as integers, which `ColumnarTable::from_table`
/// cannot build from the same schema.
fn compile_for(bound: &BoundStarQuery, replica: &ColumnarTable) -> EncodedFactPredicate {
    EncodedFactPredicate::compile(&bound.fact_predicate_raw, replica.schema(), replica)
        .expect("a bound fact predicate compiles against a replica built from the same schema")
}

/// One scan worker: owns a continuous scan over its segment of the fact table
/// and the active-query bookkeeping for it.
pub struct Preprocessor {
    /// The one cursor: position, segment bounds, wrap-around, passes.
    scan: ContinuousScan,
    /// The compressed replica, when the engine built one; chunks it covers are
    /// read encoded.
    replica: Option<ReplicaScan>,
    commands: Receiver<PreprocessorCommand>,
    worker: usize,
    shards: ShardSenders,
    /// The lane the next flushed batch goes to.
    next_shard: usize,
    pool: Arc<BatchPool>,
    slot_count: Arc<AtomicUsize>,
    chain: Arc<FilterChain>,
    counters: Arc<SharedCounters>,
    worker_counters: Arc<ScanWorkerCounters>,
    config: CjoinConfig,
    snapshots: Arc<SnapshotManager>,
    /// Busy time accumulated in the current scan pass, published to
    /// `SharedCounters::last_pass_ns` at each wrap, feeding admission's
    /// deadline ETA (the paper's predictability, measured rather than
    /// modelled). Deliberately *busy-only*: idle sleeps between queries are
    /// excluded, so a pass that straddled an idle period does not inflate the
    /// next deadline quote into over-shedding.
    pass_busy: Duration,
    /// Rows covered so far in the current scan pass (reset at each wrap).
    pass_rows_seen: u64,

    active_mask: QuerySet,
    queries: Vec<Option<ActiveQuery>>,
    /// Ordered index `end position → bits ending there` (a query that runs to
    /// the wrap ends at its start): one lookup and one range query per chunk
    /// replace the per-row scans over all active queries for both end
    /// detection and `passed_start` flipping.
    ends_at: BTreeMap<u64, Vec<usize>>,
    /// Bits of queries with a fact predicate or a non-default snapshot — the
    /// slow path of bit initialisation.
    special_bits: Vec<usize>,
    /// `special_index[bit]` = position of `bit` in `special_bits`, so finalize
    /// removes a special bit with one swap instead of an O(specials) retain.
    special_index: Vec<Option<usize>>,
    /// Scratch bit-vector the per-row `bτ` is computed in before being copied into a
    /// (usually recycled) in-flight tuple — reused across rows, never reallocated.
    bits_scratch: QuerySet,
    /// Scratch list of queries ending at the current chunk start — reused across
    /// chunks.
    ending_scratch: Vec<usize>,
    /// `col_needs[c]` = number of active queries reading fact column `c`
    /// (empty without a replica); the late-materialization projection is the
    /// set of columns with a non-zero count.
    col_needs: Vec<usize>,
    /// Cached sorted union of the active queries' needed columns.
    projection: Vec<ColumnId>,
    /// Buffers of the chunk being processed.
    chunk: ChunkScratch,
    shutdown: bool,
}

impl Preprocessor {
    /// Creates scan worker `ctx.worker` over `scan`, which must cover that
    /// worker's segment (see [`ContinuousScan::with_segment`]; with a `replica`,
    /// row-group-aligned segment bounds keep a group's zone maps with one
    /// worker). The scan's batch length is set to `ctx.config.batch_size`
    /// here, so its steps are the one source of a chunk's longest extent.
    /// The worker receives the engine's commands on `commands`, its own
    /// channel.
    pub fn new(
        scan: ContinuousScan,
        replica: Option<ReplicaScan>,
        commands: Receiver<PreprocessorCommand>,
        ctx: PreprocessorContext,
    ) -> Self {
        let max = ctx.config.max_concurrency;
        let col_needs = replica
            .as_ref()
            .map_or_else(Vec::new, |r| vec![0; r.replica.schema().arity()]);
        Self {
            scan: scan.with_batch_rows(ctx.config.batch_size),
            replica,
            commands,
            // Workers start their rotations on different lanes.
            next_shard: ctx.worker % ctx.shards.num_shards(),
            worker: ctx.worker,
            shards: ctx.shards,
            pool: ctx.pool,
            slot_count: ctx.slot_count,
            chain: ctx.chain,
            counters: ctx.counters,
            worker_counters: ctx.worker_counters,
            config: ctx.config,
            snapshots: ctx.snapshots,
            pass_busy: Duration::ZERO,
            pass_rows_seen: 0,
            active_mask: QuerySet::new(max),
            queries: (0..max).map(|_| None).collect(),
            ends_at: BTreeMap::new(),
            special_bits: Vec::new(),
            special_index: vec![None; max],
            bits_scratch: QuerySet::new(max),
            ending_scratch: Vec::new(),
            col_needs,
            projection: Vec::new(),
            chunk: ChunkScratch::default(),
            shutdown: false,
        }
    }

    /// Number of currently active queries (test/diagnostic helper).
    pub fn active_queries(&self) -> usize {
        self.active_mask.count()
    }

    /// Runs the Preprocessor loop until shutdown.
    ///
    /// On shutdown the Preprocessor simply stops producing; the engine is responsible
    /// for shutting down the Distributor shards afterwards.
    pub fn run(&mut self) {
        loop {
            self.apply_commands();
            if self.shutdown {
                return;
            }
            if !self.active_mask.is_empty() {
                fault::inject(&self.config.fault_plan, FaultSite::ScanWorker);
            }
            if self.active_mask.is_empty() {
                // The operator is "always on" but idles cheaply when no query is
                // registered instead of burning a scan.
                std::thread::sleep(IDLE_SLEEP);
                continue;
            }
            let step_started = Instant::now();
            self.process_next_chunk();
            self.note_busy(step_started.elapsed());
        }
    }

    /// Accumulates one scan step's elapsed time into the busy pass clock and,
    /// for the reporting worker, publishes the live in-pass progress counters
    /// the admission ETA quote extrapolates from.
    fn note_busy(&mut self, elapsed: Duration) {
        self.pass_busy += elapsed;
        if self.leads() {
            self.counters
                .pass_rows
                .store(self.pass_rows_seen, Ordering::Relaxed);
            self.counters
                .pass_busy_ns
                .store(self.pass_busy.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Whether this is worker 0: the one that publishes the live `pass_rows` /
    /// `pass_busy_ns` counters, so those are a consistent single-segment
    /// sample rather than an interleaving of workers racing `store`s.
    fn leads(&self) -> bool {
        self.worker == 0
    }

    // ------------------------------------------------------------------
    // Command handling (admission / shutdown)
    // ------------------------------------------------------------------

    fn apply_commands(&mut self) {
        loop {
            match self.commands.try_recv() {
                Ok(PreprocessorCommand::Install(runtime)) => self.install_query(runtime),
                Ok(PreprocessorCommand::Cancel { id }) => {
                    // A stale cancel names a query that already finished; the
                    // id's current query, if any, was never cancelled.
                    let bit = id.index();
                    let query = self.queries.get(bit).and_then(Option::as_ref);
                    if query.is_some_and(|q| q.runtime.is_cancelled()) {
                        self.finalize_query(bit);
                    }
                }
                Ok(PreprocessorCommand::Replica(replica)) => self.adopt_replica(replica),
                Ok(PreprocessorCommand::Shutdown) | Err(TryRecvError::Disconnected) => {
                    self.shutdown = true;
                    return;
                }
                Err(TryRecvError::Empty) => return,
            }
        }
    }

    /// Installs a query on this worker's segment between two chunks: tuples
    /// produced from here on carry its bit, until the cursor reaches the
    /// query's end (see "Where a query ends" in the module doc). A query that
    /// was cancelled before its install arrived is retired at once.
    fn install_query(&mut self, runtime: Arc<QueryRuntime>) {
        let bit = runtime.id.index();
        let snapshot = runtime.snapshot;
        let fact_predicate =
            (!runtime.bound.fact_predicate_is_true).then(|| runtime.bound.fact_predicate.clone());
        let start = self.scan.normalized_position();
        let special = fact_predicate.is_some() || snapshot != SnapshotId::INITIAL;
        // With a replica: compile the fact predicate for encoded evaluation
        // and register the query's column needs with the late-materialization
        // projection — both before any tuple can carry the new bit.
        let mut encoded_predicate = None;
        let mut needs = Vec::new();
        if let Some(r) = &self.replica {
            if fact_predicate.is_some() {
                encoded_predicate = Some(compile_for(&runtime.bound, &r.replica));
            }
            needs = query_column_needs(&runtime.bound);
        }
        // The watermark is read before the segment's length: every row the
        // snapshot can see was appended before its epoch was committed, so it
        // lies inside the bounds sampled here.
        let end = match (&mut self.replica, &encoded_predicate) {
            (Some(r), Some(predicate)) if snapshot <= self.snapshots.current() => {
                let (first, past_last) = self.scan.bounds();
                r.pass_end(predicate, first..past_last, start)
            }
            _ => PassEnd::Wrap,
        };
        for &c in &needs {
            self.col_needs[c] += 1;
        }
        if !needs.is_empty() {
            self.rebuild_projection();
        }
        let end_position = match end {
            PassEnd::At(position) => position,
            PassEnd::Wrap | PassEnd::Nothing => start,
        };
        // No row of this segment can match, or nobody wants the answer: the
        // pass is trivially complete, before any of its bits were produced.
        let retire = end == PassEnd::Nothing || runtime.is_cancelled();
        self.queries[bit] = Some(ActiveQuery {
            runtime,
            fact_predicate,
            encoded_predicate,
            needs,
            snapshot,
            end_position,
            passed_start: end_position != start,
        });
        self.active_mask.set(bit);
        self.ends_at.entry(end_position).or_default().push(bit);
        if special {
            self.special_index[bit] = Some(self.special_bits.len());
            self.special_bits.push(bit);
        }
        if retire {
            self.finalize_query(bit);
        }
    }

    /// Takes over a replica grown by sealed row groups between two chunks.
    /// Each active query's fact predicate is compiled again for it: a grown
    /// dictionary may hold strings the predicate names. Where each query ends
    /// stays as it was decided at install (see "The replica handoff" in the
    /// module doc). A worker that has no replica — it fell back to the row
    /// store — ignores the handoff.
    fn adopt_replica(&mut self, replica: Arc<ColumnarTable>) {
        let Some(r) = &mut self.replica else {
            return;
        };
        r.adopt(replica);
        for q in self.queries.iter_mut().flatten() {
            if q.fact_predicate.is_some() {
                q.encoded_predicate = Some(compile_for(&q.runtime.bound, &r.replica));
            }
        }
    }

    /// Retires a query on this worker's segment — its pass here is complete, or
    /// it was cancelled — and, if this was the last segment still to report,
    /// closes the query. Callers have flushed every tuple that can still carry
    /// the bit; from here on this worker never sets it.
    fn finalize_query(&mut self, bit: usize) {
        let Some(query) = self.queries[bit].take() else {
            return;
        };
        for &c in &query.needs {
            self.col_needs[c] -= 1;
        }
        if !query.needs.is_empty() {
            self.rebuild_projection();
        }
        self.active_mask.unset(bit);
        if let Some(entry) = self.ends_at.get_mut(&query.end_position) {
            entry.retain(|&b| b != bit);
            if entry.is_empty() {
                self.ends_at.remove(&query.end_position);
            }
        }
        if let Some(pos) = self.special_index[bit].take() {
            // O(1) swap-remove; re-point the bit that swapped into `pos`.
            self.special_bits.swap_remove(pos);
            if let Some(&moved) = self.special_bits.get(pos) {
                self.special_index[moved] = Some(pos);
            }
        }
        if query.runtime.progress.mark_segment_completed() {
            self.close_query(bit, &query.runtime.progress);
        }
    }

    /// Ends a query every segment has completed its pass for: the one
    /// end-of-query control tuple, on every lane.
    ///
    /// Invariant 2 (§3.3.2/§3.3.3): every worker has retired the bit, so batches
    /// produced from here on cannot carry it, and every batch that can is
    /// already on a lane, ahead of where this end tuple lands (see
    /// "Control-tuple ordering" in the module doc).
    fn close_query(&self, bit: usize, progress: &QueryProgress) {
        progress.mark_completed();
        self.shards
            .broadcast_control(&ControlTuple::QueryEnd(QueryId(bit as u32)));
    }

    // ------------------------------------------------------------------
    // Scan processing
    // ------------------------------------------------------------------

    /// Counts one pass start (including the first): once per chunk produced
    /// from the segment start, and once per visit of an empty segment.
    fn count_pass_start(&self) {
        SharedCounters::add(&self.counters.scan_passes, 1);
        SharedCounters::add(&self.worker_counters.segment_passes, 1);
    }

    /// Publishes the *busy* time and row count of the pass that just wrapped
    /// so admission can pre-shed queries whose deadline cannot survive one
    /// more pass (the measured flavour of the paper's completion-time
    /// estimate). Idle sleeps never enter `pass_busy` (see [`Self::note_busy`]),
    /// so a pass that straddled an idle gap reports its true scan cost — the
    /// fix for the over-shedding the wall-clock pass timer used to cause.
    fn record_pass_time(&mut self) {
        let busy = std::mem::take(&mut self.pass_busy);
        let rows = std::mem::take(&mut self.pass_rows_seen);
        if rows > 0 {
            self.counters
                .last_pass_ns
                .store(busy.as_nanos() as u64, Ordering::Relaxed);
            self.counters.cycle_rows.store(rows, Ordering::Relaxed);
        }
        if self.leads() {
            self.counters.pass_rows.store(0, Ordering::Relaxed);
            self.counters.pass_busy_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Recomputes the cached late-materialization projection from the per-column
    /// refcounts (called whenever a query's needs are added or removed).
    fn rebuild_projection(&mut self) {
        self.projection.clear();
        self.projection.extend(
            self.col_needs
                .iter()
                .enumerate()
                .filter_map(|(c, &n)| (n > 0).then_some(c)),
        );
    }

    /// Advances the scan by one chunk: the §3.3 lifecycle steps at the chunk
    /// start, then the chunk's rows — through the four encoded phases
    /// ([`Preprocessor::scan_encoded_chunk`]) when the chunk lies in a verified
    /// row group of a replica, from the row store otherwise. See the module
    /// doc's "Chunks" section for where the chunk's edges come from.
    fn process_next_chunk(&mut self) {
        let step = self.scan.step();
        if step.is_none_or(|step| step.wrapped) {
            // The finished pass's cost is published as soon as the cursor is
            // back at the start (a no-op when no rows were scanned since).
            self.record_pass_time();
        }
        let Some(ScanStep {
            position,
            end,
            wrapped,
        }) = step
        else {
            // Empty fact table (or empty segment): nothing will ever complete the
            // registered queries by wrap-around, so finalize them all immediately
            // (their results — or this segment's contributions — are empty) and
            // idle instead of spinning. Each visit reports a pass.
            self.count_pass_start();
            let bits: Vec<usize> = self.active_mask.iter().collect();
            for bit in bits {
                self.finalize_query(bit);
            }
            std::thread::sleep(IDLE_SLEEP);
            return;
        };

        // Registered end positions only ever coincide with chunk starts (the
        // extent clamp below guarantees it): queries that already passed their
        // start end here (at the wrap-around, §3.3.2, or after their last row
        // group that can match) — everything produced so far was flushed at
        // the previous chunk's end, so the end tuple lands behind it — and
        // the queries starting here pass their start now.
        let mut ending = std::mem::take(&mut self.ending_scratch);
        ending.clear();
        for &bit in self.ends_at.get(&position).into_iter().flatten() {
            if let Some(q) = &mut self.queries[bit] {
                if q.passed_start {
                    ending.push(bit);
                } else {
                    q.passed_start = true;
                }
            }
        }
        for bit in ending.drain(..) {
            self.finalize_query(bit);
        }
        self.ending_scratch = ending;
        if self.active_mask.is_empty() {
            // The cursor stays where it is, so the next query installed starts
            // here and its first chunk reports the same start again: a pass is
            // counted below, by the chunk that actually begins it.
            return;
        }
        if wrapped {
            self.count_pass_start();
        }

        // Taken out so `&mut self` methods stay callable; put back below.
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut replica = self.replica.take();

        // Chunk extent: the scan's step clamped it to the batch size and the
        // segment end; inside a replica so does the row group's edge (the last
        // group ends at the replica's frontier), whose checksum then decides
        // how the chunk is read; and the next registered end always does.
        let mut chunk_end = end;
        let mut encoded = None;
        if let Some(r) = replica
            .as_mut()
            .filter(|r| position < r.replica.len() as u64)
        {
            let g = r.replica.group_of(position);
            let group = &r.replica.row_groups()[g];
            chunk_end = chunk_end.min(group.start + group.len);
            if r.group_verified(g) {
                encoded = Some(&*r);
            }
        }
        if let Some((&boundary, _)) = self.ends_at.range(position + 1..chunk_end).next() {
            chunk_end = boundary;
        }
        let chunk_len = (chunk_end - position) as usize;

        match encoded {
            Some(r) => self.scan_encoded_chunk(r, position, chunk_len, &mut chunk),
            None => {
                // No replica, a row beyond its frontier (its group is not yet
                // complete) or a quarantined group: the live row store, a row at
                // a time. The replica is a prefix of the row store, so a
                // quarantined group's rows (and results) are identical, just
                // slower.
                self.note_rows_scanned(chunk_len as u64);
                chunk.tail_rows.clear();
                self.scan
                    .table()
                    .read_range(position, chunk_len, &mut chunk.tail_rows);
                self.emit_materialized_rows(&mut chunk.tail_rows);
                if let Some(r) = &replica {
                    let bytes = chunk_len as u64 * 8 * r.replica.schema().arity() as u64;
                    r.volume.record_scan(chunk_len as u64, bytes);
                }
            }
        }
        self.scan.advance(chunk_len as u64);
        self.replica = replica;
        self.chunk = chunk;
    }

    /// Counts `rows` scanned rows: every active query sees every scanned row
    /// exactly once per pass, so the count is also each query's progress
    /// increment (§3.2.3). With segment workers the per-segment counts sum to
    /// the whole table, so the shared tracker stays exact.
    fn note_rows_scanned(&mut self, rows: u64) {
        SharedCounters::add(&self.counters.tuples_scanned, rows);
        SharedCounters::add(&self.worker_counters.tuples_scanned, rows);
        self.pass_rows_seen += rows;
        for bit in self.active_mask.iter() {
            if let Some(q) = &self.queries[bit] {
                q.runtime.progress.advance(rows);
            }
        }
    }

    /// The encoded region: rows `position..position + chunk_len` of one
    /// verified row group, in the four phases of the module doc.
    fn scan_encoded_chunk(
        &mut self,
        r: &ReplicaScan,
        position: u64,
        chunk_len: usize,
        chunk: &mut ChunkScratch,
    ) {
        let (replica, volume) = (&*r.replica, &*r.volume);
        let group = &replica.row_groups()[replica.group_of(position)];
        let at = (position - group.start) as usize;
        self.note_rows_scanned(chunk_len as u64);

        // Phase 1: one verdict per query for the whole chunk.
        let Some(unconditional) = self.chunk_verdicts(volume, group, at, chunk_len, chunk) else {
            // Zone-map chunk skip: every active query's predicate is provably
            // false over this group.
            volume.record_group_skip(chunk_len as u64);
            return;
        };

        // Phase 2: the rows some query still wants, with their bit-vectors.
        self.select_rows(group, at, chunk_len, unconditional, chunk);

        // Phase 3: the leading Filter, before any row exists. Its read lock is
        // released inside; nothing below blocks while holding it.
        let probed = self.probe_leading(group, at, chunk_len, chunk);

        // Phase 4: rows for the survivors only.
        let materialised = self.materialise_selected(replica, position, probed, chunk);

        // Byte accounting: each column read for the whole chunk (predicates,
        // the probed foreign key) is billed once over the chunk;
        // materialisation bills the projected columns per row it built.
        let mut chunk_bytes = 0u64;
        let whole = chunk.touched.iter().enumerate().filter(|(_, t)| **t);
        let billed = whole
            .map(|(c, _)| (c, chunk_len as u64))
            .chain(self.projection.iter().map(|&c| (c, materialised)));
        for (c, rows) in billed {
            let bytes = r.col_bytes_per_row[c] * rows;
            volume.record_column(c, bytes);
            chunk_bytes += bytes;
        }
        volume.record_scan(chunk_len as u64, chunk_bytes);
    }

    /// Phase 1. Resolves each active fact predicate once for the whole chunk,
    /// rows `at..at + chunk_len` of `group`: a zone verdict where the maps
    /// decide, an encoded-kernel evaluation into a match bitmap otherwise.
    /// Leaves the chunk's base mask and owed row tests in `chunk`. Returns
    /// whether some active query wants every row before visibility (it has no
    /// fact predicate, or the zone maps prove it over the whole group); `None`
    /// means no query can want any row of the chunk.
    fn chunk_verdicts(
        &self,
        volume: &ScanVolume,
        group: &RowGroup,
        at: usize,
        chunk_len: usize,
        chunk: &mut ChunkScratch,
    ) -> Option<bool> {
        chunk.touched.clear();
        chunk.touched.resize(group.zones.len(), false);
        chunk.tests.clear();
        chunk.base.clear();
        chunk.base.extend_from_slice(self.active_mask.words());
        let mut unconditional = false;
        let mut bufs_used = 0usize;
        for bit in self.active_mask.iter() {
            let Some(q) = &self.queries[bit] else {
                continue;
            };
            let Some(encoded) = &q.encoded_predicate else {
                // No fact predicate.
                unconditional = true;
                continue;
            };
            match encoded.zone_verdict(&group.zones) {
                ZoneVerdict::Never => clear_bit(&mut chunk.base, bit),
                ZoneVerdict::Always => unconditional = true,
                ZoneVerdict::Maybe => {
                    if chunk.match_bufs.len() == bufs_used {
                        chunk.match_bufs.push(Vec::new());
                    }
                    let buf = &mut chunk.match_bufs[bufs_used];
                    buf.clear();
                    buf.resize(chunk_len, false);
                    encoded.eval_group(group, at, buf, volume);
                    for &c in encoded.columns() {
                        chunk.touched[c] = true;
                    }
                    chunk.tests.push((bit, bufs_used));
                    bufs_used += 1;
                }
            }
        }
        (unconditional || bufs_used > 0).then_some(unconditional)
    }

    /// Phase 2. Builds the selection vector: the chunk's rows whose `bτ` is
    /// non-zero after the owed row tests and snapshot visibility, with their
    /// bit-vectors side by side in `chunk.sel_bits`. Unless some query wants
    /// every row (`unconditional`), a row none of the match buffers matched
    /// costs its share of one OR over the buffers and nothing else.
    fn select_rows(
        &self,
        group: &RowGroup,
        at: usize,
        chunk_len: usize,
        unconditional: bool,
        chunk: &mut ChunkScratch,
    ) {
        chunk.sel.clear();
        chunk.sel_bits.clear();
        let ChunkScratch {
            match_bufs,
            tests,
            base,
            wanted,
            sel,
            sel_bits,
            ..
        } = chunk;

        let wanted: Option<&[bool]> = if unconditional {
            None
        } else {
            wanted.clear();
            wanted.resize(chunk_len, false);
            for &(_, b) in tests.iter() {
                for (w, &m) in wanted.iter_mut().zip(&match_bufs[b]) {
                    *w |= m;
                }
            }
            Some(wanted)
        };
        let check_visibility = !group.all_always_visible;

        for j in 0..chunk_len {
            if wanted.is_none_or(|w| w[j]) {
                let first_word = sel_bits.len();
                sel_bits.extend_from_slice(base);
                let bits = &mut sel_bits[first_word..];
                for &(bit, b) in tests.iter() {
                    if !match_bufs[b][j] {
                        clear_bit(bits, bit);
                    }
                }
                if check_visibility {
                    // Snapshot visibility as a virtual fact predicate (§3.5),
                    // from the version metadata the group was sealed with.
                    let version = group.version(at + j).expect("row in group");
                    if version != RowVersion::ALWAYS_VISIBLE {
                        for bit in self.active_mask.iter() {
                            if let Some(q) = &self.queries[bit] {
                                if !version.visible_at(q.snapshot) {
                                    clear_bit(bits, bit);
                                }
                            }
                        }
                    }
                }
                if bits.iter().all(|&w| w == 0) {
                    sel_bits.truncate(first_word);
                } else {
                    sel.push(j as u32);
                }
            }
        }
    }

    /// Phase 3. Runs the chain's *leading* Filter — whichever Filter is first
    /// in the order right now — for the selected rows straight off the encoded
    /// foreign-key column: one bulk gather, one [`ProbeGuard`] for the chunk,
    /// bits ANDed in place, the selection compacted to the survivors and what
    /// each is owed recorded in `chunk.joined`. Returns the Filter that probed
    /// (so the batches can be marked with *its* slot) and its statistics for
    /// the chunk, or `None` when the shard must run the Filter itself: the chain
    /// is empty, no active query references the dimension (every row would
    /// take the early skip), or the foreign key is not a non-null integer
    /// column of the replica.
    ///
    /// [`ProbeGuard`]: crate::dimension::ProbeGuard
    fn probe_leading(
        &self,
        group: &RowGroup,
        at: usize,
        chunk_len: usize,
        chunk: &mut ChunkScratch,
    ) -> Option<(Arc<DimensionTable>, BatchLocalStats)> {
        chunk.joined.clear();
        if chunk.sel.is_empty() {
            return None;
        }
        let dim = self.chain.leading()?;
        if dim.complement.contains_all(&self.active_mask) {
            return None;
        }
        let EncodedColumn::Int { data, nulls: None } = group.encoded_column(dim.fact_fk_column)
        else {
            return None;
        };
        chunk.values.clear();
        if chunk.sel.len() == chunk_len {
            data.decode_range(at, chunk_len, &mut chunk.values);
        } else {
            data.gather(at, &chunk.sel, &mut chunk.values);
        }
        chunk.touched[dim.fact_fk_column] = true;

        let words = chunk.base.len();
        let mut stats = BatchLocalStats {
            tuples_in: chunk.sel.len() as u64,
            ..BatchLocalStats::default()
        };
        let guard = dim.probe_batch();
        let mut kept = 0usize;
        for k in 0..chunk.sel.len() {
            let fk = chunk.values[k];
            let bits = &mut chunk.sel_bits[k * words..(k + 1) * words];
            let joined = match probe_bits(&dim, &guard, true, bits, || fk, &mut stats) {
                ProbeOutcome::Dropped => continue,
                ProbeOutcome::Kept => Joined::Nothing,
                ProbeOutcome::Joined(entry) => Joined::Row(entry.row.clone()),
                ProbeOutcome::Versions(versions) => Joined::Versions(versions.to_vec()),
            };
            chunk.joined.push(joined);
            chunk.sel[kept] = chunk.sel[k];
            chunk
                .sel_bits
                .copy_within(k * words..(k + 1) * words, kept * words);
            kept += 1;
        }
        drop(guard);
        chunk.sel.truncate(kept);
        chunk.sel_bits.truncate(kept * words);
        Some((dim, stats))
    }

    /// Phase 4. Late materialization for the survivors: only the union of
    /// columns the active queries read is decoded (positions are preserved,
    /// the rest are NULL, so downstream indices keep working), into recycled
    /// tuples. When phase 3 probed the leading Filter, its joined dimension row
    /// is attached (claimed-split for a multi-version key), every batch is
    /// marked with its slot so no shard probes it again, and its statistics for
    /// the chunk are flushed. Returns the number of rows materialised.
    fn materialise_selected(
        &mut self,
        replica: &ColumnarTable,
        position: u64,
        mut probed: Option<(Arc<DimensionTable>, BatchLocalStats)>,
        chunk: &mut ChunkScratch,
    ) -> u64 {
        let words = chunk.base.len();
        let num_slots = self.slot_count.load(Ordering::Acquire);
        let applied = probed.as_ref().map(|(dim, _)| dim.slot);
        let mut out: Batch = self.pool.take(self.config.batch_size);
        let mut splits: Vec<InFlightTuple> = Vec::new();
        let mut tuples_recycled = 0u64;
        let mut joined = chunk.joined.drain(..);
        for (k, &offset) in chunk.sel.iter().enumerate() {
            let i = position + u64::from(offset);
            self.bits_scratch
                .copy_from_words(&chunk.sel_bits[k * words..(k + 1) * words]);
            // Zero-allocation steady state: the slot reuses a spare tuple's
            // bit-vector words and dimension-slot vector in place.
            let (tuple, recycled) = out.next_slot(self.config.max_concurrency);
            let row = replica.project_row(i as usize, &self.projection);
            tuple.reset(RowId(i), row, &self.bits_scratch, num_slots);
            tuples_recycled += u64::from(recycled);
            if let (Some((dim, stats)), Some(joined)) = (&mut probed, joined.next()) {
                match joined {
                    Joined::Nothing => {}
                    Joined::Row(row) => {
                        tuple.ensure_slots(dim.slot + 1);
                        tuple.dims[dim.slot] = Some(row);
                    }
                    Joined::Versions(versions) => {
                        // `bDj` is read after phase 3's guard was dropped. Its
                        // bits change only for queries this tuple carries no
                        // bit of, so the combine sees what phase 3 would have.
                        if !combine_versions(dim, &versions, tuple, &mut splits) {
                            stats.tuples_dropped += 1;
                            out.truncate_live(out.len() - 1);
                        }
                        for split in splits.drain(..) {
                            out.push(split);
                        }
                    }
                }
            }
            if out.len() >= self.config.batch_size {
                out = self.flush_applied(out, applied);
            }
        }
        drop(joined);
        let materialised = chunk.sel.len() as u64;
        if let Some((dim, stats)) = &probed {
            stats.flush(&dim.stats);
        }
        if tuples_recycled > 0 {
            SharedCounters::add(&self.counters.tuples_recycled, tuples_recycled);
        }
        if materialised > tuples_recycled {
            SharedCounters::add(
                &self.counters.tuples_allocated,
                materialised - tuples_recycled,
            );
        }
        let leftover = self.flush_applied(out, applied);
        self.pool.put(leftover);
        materialised
    }

    /// [`Preprocessor::flush`] for a batch whose tuples the Filter at dimension
    /// slot `applied` has already processed (scan-side probe): the mark travels
    /// with the batch so its shard skips that Filter.
    fn flush_applied(&mut self, mut batch: Batch, applied: Option<usize>) -> Batch {
        if let Some(slot) = applied {
            batch.mark_filter_applied(slot);
        }
        self.flush(batch)
    }

    /// The per-row body of a chunk read from the row store: initialise `bτ`
    /// from the active mask, snapshot visibility and the special predicates,
    /// and copy the rows some query still wants into pooled tuples.
    fn emit_materialized_rows(&mut self, rows: &mut Vec<(RowId, Row, RowVersion)>) {
        let num_slots = self.slot_count.load(Ordering::Acquire);
        let mut out: Batch = self.pool.take(self.config.batch_size);
        let mut tuples_recycled = 0u64;
        let mut tuples_allocated = 0u64;
        for (row_id, row, version) in rows.drain(..) {
            self.bits_scratch.copy_from(&self.active_mask);
            if version != RowVersion::ALWAYS_VISIBLE {
                for bit in self.active_mask.iter() {
                    if let Some(q) = &self.queries[bit] {
                        if !version.visible_at(q.snapshot) {
                            self.bits_scratch.unset(bit);
                        }
                    }
                }
            }
            if !self.special_bits.is_empty() {
                self.apply_special_predicates(&row);
            }
            if !self.bits_scratch.is_empty() {
                let (slot, recycled) = out.next_slot(self.config.max_concurrency);
                slot.reset(row_id, row, &self.bits_scratch, num_slots);
                if recycled {
                    tuples_recycled += 1;
                } else {
                    tuples_allocated += 1;
                }
                if out.len() >= self.config.batch_size {
                    out = self.flush(out);
                }
            }
        }
        if tuples_recycled > 0 {
            SharedCounters::add(&self.counters.tuples_recycled, tuples_recycled);
        }
        if tuples_allocated > 0 {
            SharedCounters::add(&self.counters.tuples_allocated, tuples_allocated);
        }
        let leftover = self.flush(out);
        self.pool.put(leftover);
    }

    /// Applies fact predicates for the queries that have them (snapshot
    /// visibility has already been handled by the caller). Operates on
    /// `self.bits_scratch`, the reusable per-row bit-vector.
    fn apply_special_predicates(&mut self, row: &Row) {
        for &bit in &self.special_bits {
            let Some(q) = &self.queries[bit] else {
                continue;
            };
            if q.fact_predicate.as_ref().is_some_and(|p| !p.eval(row)) {
                self.bits_scratch.unset(bit);
            }
        }
    }

    /// Sends a non-empty batch, whole, to the next shard in this worker's
    /// rotation and returns a fresh batch. A send error means the shard is gone
    /// and the pipeline is tearing down; the batch is dropped.
    fn flush(&mut self, batch: Batch) -> Batch {
        if batch.is_empty() {
            return batch;
        }
        SharedCounters::add(&self.counters.batches_sent, 1);
        SharedCounters::add(&self.worker_counters.batches_sent, 1);
        let shard = self.next_shard;
        self.next_shard = (shard + 1) % self.shards.num_shards();
        let _ = self.shards.send_to(shard, Message::Data(batch));
        self.pool.take(self.config.batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShardQueues;
    use cjoin_common::splitmix64;
    use cjoin_query::{AggregateSpec, StarQuery};
    use cjoin_storage::{segment_ranges, Catalog, Column, Row, Schema, Table, Value};
    use crossbeam::channel::{bounded, unbounded};
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    /// `fact(fk, v)`, 16 rows a page, holding rows `0..rows` (`fk = i % 3`,
    /// `v = i`) at the initial snapshot.
    fn fact_table(rows: i64) -> Arc<Table> {
        let t = Table::with_rows_per_page(
            Schema::new("fact", vec![Column::int("fk"), Column::int("v")]),
            16,
        );
        append_rows(&t, 0..rows, SnapshotId::INITIAL);
        Arc::new(t)
    }

    fn append_rows(table: &Table, rows: std::ops::Range<i64>, snapshot: SnapshotId) {
        table.insert_batch_unchecked(
            rows.map(|i| Row::new(vec![Value::int(i % 3), Value::int(i)])),
            snapshot,
        );
    }

    /// A compressed replica of `table` as it is now.
    fn replica_of(table: &Table) -> Arc<ColumnarTable> {
        Arc::new(
            ColumnarTable::from_table(table, cjoin_storage::CompressionPolicy::Adaptive).unwrap(),
        )
    }

    /// A scan worker over `segment` of `table`, reading what `replica` (if
    /// any) covers from it.
    fn scan_worker(
        table: &Arc<Table>,
        replica: Option<&Arc<ColumnarTable>>,
        segment: (u64, Option<u64>),
        commands: Receiver<PreprocessorCommand>,
        ctx: PreprocessorContext,
    ) -> Preprocessor {
        let scan = ContinuousScan::new(Arc::clone(table)).with_segment(segment.0, segment.1);
        let replica = replica.map(|r| {
            let volume = Arc::new(ScanVolume::with_columns(table.schema().arity()));
            ReplicaScan::new(Arc::clone(r), volume)
        });
        Preprocessor::new(scan, replica, commands, ctx)
    }

    /// The context of a one-worker front-end over `lanes`; tests of wider
    /// ones overwrite `worker` and the shared counters.
    fn context(config: &CjoinConfig, lanes: ShardSenders) -> PreprocessorContext {
        PreprocessorContext {
            worker: 0,
            shards: lanes,
            pool: BatchPool::new(8),
            slot_count: Arc::new(AtomicUsize::new(1)),
            chain: Arc::new(FilterChain::new()),
            counters: SharedCounters::new(),
            worker_counters: Arc::new(ScanWorkerCounters::default()),
            config: config.clone(),
            snapshots: Arc::new(SnapshotManager::new()),
        }
    }

    /// One unbounded lane. Data and control share it, so its order is the
    /// emission order.
    fn one_lane() -> (ShardSenders, Receiver<Message>) {
        let (tx, rx) = unbounded();
        (std::iter::once(tx).collect(), rx)
    }

    /// Builds a one-worker front-end over `table` (and `replica`, if any)
    /// wired to one lane, returning the pieces the test drives directly.
    fn harness(
        table: Arc<Table>,
        replica: Option<Arc<ColumnarTable>>,
        config: &CjoinConfig,
    ) -> (Preprocessor, Sender<PreprocessorCommand>, Receiver<Message>) {
        let (cmd_tx, cmd_rx) = unbounded();
        let (lanes, rx) = one_lane();
        let ctx = context(config, lanes);
        let pre = scan_worker(&table, replica.as_ref(), (0, None), cmd_rx, ctx);
        (pre, cmd_tx, rx)
    }

    /// Takes what `rx` holds right now: the number of data tuples carrying
    /// `bit` (every data tuple for `None`), and the ids whose end tuple came.
    fn drain(rx: &Receiver<Message>, bit: Option<usize>) -> (usize, Vec<QueryId>) {
        let (mut tuples, mut ends) = (0, Vec::new());
        for msg in rx.try_iter() {
            match msg {
                Message::Data(batch) => {
                    tuples += batch
                        .iter()
                        .filter(|t| bit.is_none_or(|b| t.bits.get(b)))
                        .count();
                }
                Message::Control(ControlTuple::QueryEnd(id)) => ends.push(id),
                _ => {}
            }
        }
        (tuples, ends)
    }

    /// An unfiltered `count(*)` over `fact(fk, v)` as bit `bit`, its pass
    /// split across `segments` scan segments.
    fn dummy_runtime(bit: u32, segments: u64) -> Arc<QueryRuntime> {
        let catalog = Catalog::new();
        catalog.add_fact_table(fact_table(0));
        let query = StarQuery::builder(format!("q{bit}"))
            .aggregate(AggregateSpec::count_star())
            .build();
        runtime_for(&catalog, bit, query, SnapshotId::INITIAL, segments)
    }

    /// Admits `runtime` to a one-worker front-end the way `submit` does
    /// ([`start_query`] over the worker's lanes and channel), then lets the
    /// worker take the install.
    fn admit_to(
        pre: &mut Preprocessor,
        cmd_tx: &Sender<PreprocessorCommand>,
        runtime: Arc<QueryRuntime>,
    ) {
        let workers = std::slice::from_ref(cmd_tx);
        assert!(start_query(&runtime, &pre.shards, workers, &pre.counters));
        pre.apply_commands();
    }

    #[test]
    fn admission_emits_query_start_control() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(10);
        let (mut pre, cmd_tx, rx) = harness(fact_table(25), None, &config);
        let rt = dummy_runtime(0, 1);
        admit_to(&mut pre, &cmd_tx, rt);
        assert_eq!(pre.active_queries(), 1);
        match rx.try_recv().unwrap() {
            Message::Control(ControlTuple::QueryStart(rt)) => assert_eq!(rt.id, QueryId(0)),
            other => panic!("expected QueryStart, got {other:?}"),
        }
    }

    #[test]
    fn one_full_pass_then_query_end() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(10);
        let (mut pre, cmd_tx, rx) = harness(fact_table(25), None, &config);
        let rt = dummy_runtime(0, 1);
        admit_to(&mut pre, &cmd_tx, rt);

        // Nothing drains the lane in between: the end needs no consumer.
        let mut ends = Vec::new();
        let mut data_tuples = 0usize;
        for _ in 0..10 {
            pre.process_next_chunk();
            let (tuples, ended) = drain(&rx, None);
            data_tuples += tuples;
            ends.extend(ended);
            if !ends.is_empty() {
                break;
            }
        }
        assert_eq!(
            ends,
            [QueryId(0)],
            "query must finalize after one full pass"
        );
        assert_eq!(
            data_tuples, 25,
            "exactly one pass worth of tuples had the query's bit"
        );
        assert_eq!(pre.active_queries(), 0);
    }

    /// A `Cancel` is sent without a lock, so it can arrive after its query
    /// finished and a new query took the id. That query was never cancelled:
    /// the worker ignores the stale cancel and the query still ends after its
    /// full pass. A query that *was* cancelled retires at once.
    #[test]
    fn a_stale_cancel_does_not_truncate_the_ids_next_query() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(10);
        let (mut pre, cmd_tx, rx) = harness(fact_table(25), None, &config);
        let rt = dummy_runtime(0, 1);
        admit_to(&mut pre, &cmd_tx, rt);
        pre.process_next_chunk(); // rows 0..10
        let mut data_tuples = drain(&rx, None).0;
        cmd_tx
            .send(PreprocessorCommand::Cancel { id: QueryId(0) })
            .unwrap();
        pre.apply_commands();
        assert_eq!(pre.active_queries(), 1, "the stale cancel retired nothing");

        let mut ended = false;
        for _ in 0..10 {
            pre.process_next_chunk();
            let (tuples, ends) = drain(&rx, None);
            data_tuples += tuples;
            if !ends.is_empty() {
                ended = true;
                break;
            }
        }
        assert!(ended, "the query ends at its wrap");
        assert_eq!(data_tuples, 25, "after one full pass");

        let rt = dummy_runtime(0, 1);
        admit_to(&mut pre, &cmd_tx, Arc::clone(&rt));
        rt.mark_cancelled();
        cmd_tx
            .send(PreprocessorCommand::Cancel { id: QueryId(0) })
            .unwrap();
        pre.apply_commands();
        assert_eq!(pre.active_queries(), 0, "a cancelled query retires at once");
    }

    /// The reaper (or a client) can resolve a query and send its `Cancel`
    /// after `submit` registered it but before the install reaches a worker.
    /// The worker finds nothing to cancel then; when the install arrives it
    /// retires the query at once instead of scanning a pass for an answer
    /// nobody will read: its start tuple, its end tuple, and no data tuple
    /// carrying its bit.
    #[test]
    fn a_query_cancelled_before_its_install_scans_nothing() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(10);
        let (mut pre, cmd_tx, rx) = harness(fact_table(25), None, &config);
        let rt = dummy_runtime(0, 1);
        rt.mark_cancelled();
        cmd_tx
            .send(PreprocessorCommand::Cancel { id: QueryId(0) })
            .unwrap();
        pre.apply_commands();
        admit_to(&mut pre, &cmd_tx, rt);
        for _ in 0..5 {
            pre.process_next_chunk();
        }
        let emitted: Vec<String> = rx
            .try_iter()
            .map(|msg| match msg {
                Message::Control(ControlTuple::QueryStart(rt)) => format!("start {}", rt.id.0),
                Message::Control(ControlTuple::QueryEnd(id)) => format!("end {}", id.0),
                Message::Data(batch) => format!("{} tuples", batch.len()),
                Message::Shutdown => "shutdown".into(),
            })
            .collect();
        assert_eq!(emitted, ["start 0", "end 0"]);
        assert_eq!(pre.active_queries(), 0);
    }

    /// The last query retiring at the segment start leaves the cursor there, and
    /// the next query's first chunk revisits it: one pass start per real pass,
    /// with or without a replica.
    #[test]
    fn serial_queries_count_one_pass_start_each() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(10);
        let table = fact_table(25);
        for replica in [None, Some(replica_of(&table))] {
            let (mut pre, cmd_tx, _rx) = harness(Arc::clone(&table), replica, &config);
            for serial in 1..=3u64 {
                let rt = dummy_runtime(0, 1);
                admit_to(&mut pre, &cmd_tx, rt);
                let mut chunks = 0;
                while pre.active_queries() > 0 {
                    pre.process_next_chunk();
                    chunks += 1;
                }
                assert_eq!(chunks, 4, "three chunks of rows, then the retirement");
                let passes = pre.counters.scan_passes.load(Ordering::Relaxed);
                assert_eq!(passes, serial);
                let segment = &pre.worker_counters.segment_passes;
                assert_eq!(segment.load(Ordering::Relaxed), serial);
                assert_eq!(
                    pre.counters.cycle_rows.load(Ordering::Relaxed),
                    25,
                    "the finished pass is published at the wrap, not at the next query"
                );
            }
        }
    }

    #[test]
    fn query_registered_mid_scan_sees_exactly_one_pass() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(10);
        let (mut pre, cmd_tx, rx) = harness(fact_table(30), None, &config);

        // First query keeps the scan busy.
        let rt0 = dummy_runtime(0, 1);
        admit_to(&mut pre, &cmd_tx, rt0);
        pre.process_next_chunk(); // rows 0..10 for q0

        // Second query arrives mid-scan (position 10).
        let rt1 = dummy_runtime(1, 1);
        admit_to(&mut pre, &cmd_tx, rt1);

        let mut q1_tuples = drain(&rx, Some(1)).0;
        let mut q1_ended = false;
        for _ in 0..20 {
            pre.process_next_chunk();
            let (tuples, ends) = drain(&rx, Some(1));
            q1_tuples += tuples;
            if ends.contains(&QueryId(1)) {
                q1_ended = true;
                break;
            }
        }
        assert!(q1_ended);
        assert_eq!(
            q1_tuples, 30,
            "the mid-scan query sees each fact tuple exactly once"
        );
    }

    #[test]
    fn fact_predicate_clears_bits() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(100);
        let table = fact_table(30);
        let catalog = Catalog::new();
        catalog.add_fact_table(Arc::clone(&table));
        let (mut pre, cmd_tx, rx) = harness(table, None, &config);
        // Predicate: fk = 1 (10 of 30 rows).
        let query = StarQuery::builder("fk_is_1")
            .fact_predicate(cjoin_query::Predicate::eq("fk", 1))
            .aggregate(AggregateSpec::count_star())
            .build();
        let rt = runtime_for(&catalog, 0, query, SnapshotId::INITIAL, 1);
        admit_to(&mut pre, &cmd_tx, rt);

        let mut relevant = 0usize;
        for _ in 0..3 {
            pre.process_next_chunk();
            relevant += drain(&rx, None).0;
            if pre.active_queries() == 0 {
                break;
            }
        }
        assert_eq!(
            relevant, 10,
            "only rows satisfying the fact predicate are forwarded"
        );
    }

    #[test]
    fn shutdown_command_stops_the_loop() {
        let config = CjoinConfig::default().with_max_concurrency(4);
        let (mut pre, cmd_tx, rx) = harness(fact_table(5), None, &config);
        cmd_tx.send(PreprocessorCommand::Shutdown).unwrap();
        pre.run(); // returns instead of scanning forever
        assert!(rx.try_recv().is_err(), "nothing produced after shutdown");
    }

    #[test]
    fn snapshot_visibility_is_a_virtual_predicate() {
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(100);
        // Build a table where 5 rows are visible at snapshot 0 and 5 more at snapshot 1.
        let t = Table::new(Schema::new(
            "fact",
            vec![Column::int("fk"), Column::int("v")],
        ));
        for i in 0..5 {
            t.insert(vec![Value::int(i), Value::int(i)], SnapshotId(0))
                .unwrap();
        }
        for i in 5..10 {
            t.insert(vec![Value::int(i), Value::int(i)], SnapshotId(1))
                .unwrap();
        }
        let (mut pre, cmd_tx, rx) = harness(Arc::new(t), None, &config);
        // Query pinned at snapshot 0 must only see the first 5 rows.
        admit_to(&mut pre, &cmd_tx, dummy_runtime(0, 1));
        let mut forwarded = 0usize;
        for _ in 0..3 {
            pre.process_next_chunk();
            forwarded += drain(&rx, None).0;
            if pre.active_queries() == 0 {
                break;
            }
        }
        assert_eq!(forwarded, 5);
    }

    #[test]
    fn many_active_queries_share_one_boundary_lookup_per_batch() {
        // Regression shape for the O(active-queries)-per-row loops: all queries
        // installed at position 0 must still end after exactly one pass each.
        let config = CjoinConfig::default()
            .with_max_concurrency(16)
            .with_batch_size(10);
        let (mut pre, cmd_tx, rx) = harness(fact_table(30), None, &config);
        for bit in 0..8 {
            admit_to(&mut pre, &cmd_tx, dummy_runtime(bit, 1));
        }
        assert_eq!(pre.active_queries(), 8);

        let mut ended = 0usize;
        for _ in 0..10 {
            pre.process_next_chunk();
            ended += drain(&rx, None).1.len();
            if ended == 8 {
                break;
            }
        }
        assert_eq!(ended, 8, "every query ends after exactly one pass");
        assert_eq!(pre.active_queries(), 0);
    }

    /// The lane-order test: the whole front-end, scan worker threads at widths
    /// 1, 2 and 4 over 1 and 4 lanes, without a replica, with one frozen at row
    /// 40 (its frontier inside a segment at every width) and with a full one.
    /// Each lane holds two messages and its consumer sleeps a seeded while
    /// between messages, so the workers and the admitting threads keep
    /// blocking on full lanes. Three queries are admitted through
    /// [`start_query`], each from its own thread after a seeded delay, so the
    /// admissions race each other and the scan. Two run to their end; the
    /// third is cancelled from yet another thread, at a seeded moment that can
    /// fall before its admission, between its start tuple and its installs, or
    /// mid-pass. Every consumer checks, on its own lane and for each query,
    /// Start < every batch carrying its bit < End, and the two complete queries
    /// see each fact row exactly once across all lanes and segments.
    #[test]
    fn every_lane_orders_start_before_data_before_end() {
        const ROWS: i64 = 95;
        const SEEDS: u64 = 3;
        const BOUNDED: Duration = Duration::from_secs(20);
        for seed in 0..3 * 2 * 3 * SEEDS {
            let width = [1, 2, 4][(seed % 3) as usize];
            let lanes = [1, 4][(seed / 3 % 2) as usize];
            let frontier = [None, Some(40), Some(ROWS)][(seed / 6 % 3) as usize];
            let case = format!("seed {seed}: width {width}, {lanes} lanes, replica {frontier:?}");
            let config = CjoinConfig::default()
                .with_max_concurrency(8)
                .with_batch_size(10)
                .with_scan_workers(width);
            let table = fact_table(frontier.unwrap_or(ROWS));
            let replica = frontier.map(|_| replica_of(&table));
            append_rows(&table, table.len() as i64..ROWS, SnapshotId::INITIAL);
            let counters = SharedCounters::new();

            // One consumer per lane: checks the order and counts tuples per bit.
            let queues = ShardQueues::new(lanes, 2);
            let consumers: Vec<_> = (0..lanes)
                .map(|lane| {
                    let rx = queues.receiver(lane);
                    let mut rng = seed << 8 | lane as u64;
                    let case = case.clone();
                    std::thread::spawn(move || {
                        let (mut tuples, mut started, mut ends) =
                            ([0u64; 8], [false; 8], [0u32; 8]);
                        for msg in &rx {
                            if splitmix64(&mut rng).is_multiple_of(3) {
                                std::thread::sleep(Duration::from_micros(
                                    splitmix64(&mut rng) % 300,
                                ));
                            }
                            match msg {
                                Message::Control(ControlTuple::QueryStart(rt)) => {
                                    started[rt.id.index()] = true;
                                }
                                Message::Control(ControlTuple::QueryEnd(id)) => {
                                    assert!(
                                        started[id.index()],
                                        "{case}: end before start on lane {lane}"
                                    );
                                    ends[id.index()] += 1;
                                }
                                Message::Data(batch) => {
                                    for bit in batch.iter().flat_map(|t| t.bits.iter()) {
                                        assert!(
                                            started[bit],
                                            "{case}: data before start on lane {lane}"
                                        );
                                        assert_eq!(
                                            ends[bit], 0,
                                            "{case}: data after end on lane {lane}"
                                        );
                                        tuples[bit] += 1;
                                    }
                                }
                                Message::Shutdown => unreachable!("nobody sends it"),
                            }
                        }
                        (tuples, ends)
                    })
                })
                .collect();

            let ranges = segment_ranges(table.len() as u64, table.rows_per_page(), width);
            let (workers, commands): (Vec<_>, Vec<_>) = ranges.iter().map(|_| unbounded()).unzip();
            let workers: Arc<[Sender<PreprocessorCommand>]> = workers.into();
            let mut worker_handles = Vec::new();
            for (w, (&segment, commands)) in ranges.iter().zip(commands).enumerate() {
                let mut ctx = context(&config, queues.senders());
                ctx.worker = w;
                ctx.counters = Arc::clone(&counters);
                let mut worker = scan_worker(&table, replica.as_ref(), segment, commands, ctx);
                worker_handles.push(std::thread::spawn(move || worker.run()));
            }

            // One admitting thread per query and one cancelling query 2, each
            // starting after its own seeded delay.
            let mut rng = seed;
            let mut delay = || Duration::from_micros(splitmix64(&mut rng) % 2500);
            let runtimes: Vec<_> = (0..3).map(|bit| dummy_runtime(bit, width as u64)).collect();
            let mut callers = Vec::new();
            for rt in &runtimes {
                let (rt, lanes, workers) = (Arc::clone(rt), queues.senders(), Arc::clone(&workers));
                let (counters, pause) = (Arc::clone(&counters), delay());
                callers.push(std::thread::spawn(move || {
                    std::thread::sleep(pause);
                    assert!(start_query(&rt, &lanes, &workers, &counters));
                }));
            }
            let (rt, cancel_to, pause) = (Arc::clone(&runtimes[2]), Arc::clone(&workers), delay());
            callers.push(std::thread::spawn(move || {
                std::thread::sleep(pause);
                rt.mark_cancelled();
                send_to_workers(&cancel_to, || PreprocessorCommand::Cancel { id: rt.id });
            }));
            // The consumers end once every worker and admitting thread has
            // dropped its senders.
            drop(queues);
            for caller in callers {
                caller.join().unwrap();
            }
            let started = Instant::now();
            while !runtimes.iter().all(|rt| rt.progress.is_completed()) {
                assert!(started.elapsed() < BOUNDED, "{case}: a query never ended");
                std::thread::sleep(Duration::from_micros(200));
            }
            assert!(send_to_workers(&workers, || PreprocessorCommand::Shutdown));
            for h in worker_handles {
                h.join().unwrap();
            }

            let mut tuples = [0u64; 8];
            for consumer in consumers {
                let (lane_tuples, ends) = consumer.join().unwrap();
                assert_eq!(
                    ends[..3],
                    [1, 1, 1],
                    "{case}: one end tuple per query per lane"
                );
                for (total, n) in tuples.iter_mut().zip(lane_tuples) {
                    *total += n;
                }
            }
            assert_eq!(
                tuples[..2],
                [ROWS as u64; 2],
                "{case}: each fact row exactly once"
            );
            assert!(
                tuples[2] <= ROWS as u64,
                "{case}: the cancelled query saw a part"
            );
            for rt in &runtimes {
                assert_eq!(
                    (
                        rt.progress.segments_completed(),
                        rt.progress.segments_total()
                    ),
                    (width as u64, width as u64),
                    "{case}"
                );
            }
            assert_eq!(
                counters.queries_admitted.load(Ordering::Relaxed),
                3,
                "{case}"
            );
        }
    }

    /// What a worker emitted, in emission order.
    #[derive(Debug, PartialEq)]
    enum Emitted {
        /// A data batch: each tuple's row id and set bits.
        Batch(Vec<(u64, Vec<usize>)>),
        Start(QueryId),
        End(QueryId),
    }

    /// One scripted run of a width-1 worker — appends, a mid-pass install, two
    /// queries starting at one position, a fact predicate, a non-initial
    /// snapshot, two wrap-arounds — checked two ways. Each query must get
    /// exactly the rows it selects, once, in scan order from its starting
    /// tuple, and one end tuple. And a scan without a replica is the scan whose
    /// replica covers nothing: a worker with no replica and one whose replica
    /// was built while the table was empty must emit the same batches and
    /// control tuples in the same order.
    #[test]
    fn an_empty_replica_emits_what_no_replica_does() {
        let run = |with_replica: bool| -> Vec<Emitted> {
            let table = fact_table(0);
            let replica = with_replica.then(|| replica_of(&table));
            append_rows(&table, 0..70, SnapshotId::INITIAL);
            let catalog = Catalog::new();
            catalog.add_fact_table(Arc::clone(&table));
            let config = CjoinConfig::default()
                .with_max_concurrency(8)
                .with_batch_size(10);

            // The consumer stands in for the shard.
            let (lanes, rx) = one_lane();
            let (cmd_tx, cmd_rx) = unbounded();
            let ctx = context(&config, lanes);
            let mut pre = scan_worker(&table, replica.as_ref(), (0, None), cmd_rx, ctx);
            let consumer = std::thread::spawn(move || {
                let mut emitted = Vec::new();
                for msg in &rx {
                    emitted.push(match msg {
                        Message::Data(batch) => {
                            let tuples =
                                batch.iter().map(|t| (t.row_id.0, t.bits.iter().collect()));
                            Emitted::Batch(tuples.collect())
                        }
                        Message::Control(ControlTuple::QueryStart(rt)) => Emitted::Start(rt.id),
                        Message::Control(ControlTuple::QueryEnd(id)) => Emitted::End(id),
                        other => panic!("unexpected message {other:?}"),
                    });
                }
                emitted
            });

            let install = |pre: &mut Preprocessor, bit, predicate, snapshot| {
                let query = StarQuery::builder(format!("q{bit}"))
                    .fact_predicate(predicate)
                    .aggregate(AggregateSpec::count_star())
                    .build();
                admit_to(pre, &cmd_tx, runtime_for(&catalog, bit, query, snapshot, 1));
            };
            use cjoin_query::Predicate;

            install(&mut pre, 0, Predicate::eq("fk", 1), SnapshotId::INITIAL);
            for _ in 0..3 {
                pre.process_next_chunk();
            }
            // Mid-pass, at row 30: two queries, one at a later snapshot.
            install(&mut pre, 1, Predicate::True, SnapshotId(2));
            install(&mut pre, 2, Predicate::True, SnapshotId::INITIAL);
            pre.process_next_chunk();
            // The pass grows under the scan; only query 1 sees these rows.
            append_rows(&table, 70..95, SnapshotId(2));
            let mut installed_last = false;
            for _ in 0..100 {
                pre.process_next_chunk();
                if !installed_last && pre.scan.passes() == 1 && pre.scan.position() == 10 {
                    install(&mut pre, 3, Predicate::True, SnapshotId::INITIAL);
                    installed_last = true;
                }
            }
            assert!(installed_last);
            assert_eq!(pre.active_queries(), 0, "all four queries ended");
            assert_eq!(pre.scan.passes(), 2, "the last one in the third pass");
            // Queries 1 and 2 keep the scan going until it is back at row 30,
            // and query 3 from there to row 10 of the third pass.
            assert_eq!(
                pre.counters.tuples_scanned.load(Ordering::Relaxed),
                95 + 95 + 10
            );
            drop(pre);
            consumer.join().unwrap()
        };
        let without = run(false);
        let ends = |id| {
            without
                .iter()
                .filter(|e| **e == Emitted::End(QueryId(id)))
                .count()
        };
        assert_eq!([ends(0), ends(1), ends(2), ends(3)], [1; 4]);
        let tuples_of = |bit: usize| -> Vec<u64> {
            let batches = without.iter().filter_map(|e| match e {
                Emitted::Batch(tuples) => Some(tuples),
                _ => None,
            });
            let tuples = batches.flatten().filter(|(_, bits)| bits.contains(&bit));
            tuples.map(|(row, _)| *row).collect()
        };
        assert_eq!(
            tuples_of(0),
            (0..70).filter(|i| i % 3 == 1).collect::<Vec<_>>()
        );
        assert_eq!(tuples_of(1), (30..95).chain(0..30).collect::<Vec<_>>());
        assert_eq!(tuples_of(2), (30..70).chain(0..30).collect::<Vec<_>>());
        assert_eq!(tuples_of(3), (10..70).chain(0..10).collect::<Vec<_>>());
        assert_eq!(run(true), without);
    }

    /// A commit's sealed row groups reach a width-1 worker mid-pass as a
    /// longer replica. Query 0's string predicate matches only rows the first
    /// replica did not cover, so its code exists only in the grown dictionary;
    /// query 1 is installed after the handoff. Each query must get the rows,
    /// the order and the end tuple it gets with no handoff and with no replica
    /// at all.
    #[test]
    fn a_replica_handoff_mid_pass_changes_no_querys_rows() {
        use cjoin_query::Predicate;
        // `fact(fk, v, tag)`: rows 0..40 are tagged "old", rows 40..70 "new".
        let table = Arc::new(Table::with_rows_per_page(
            Schema::new(
                "fact",
                vec![Column::int("fk"), Column::int("v"), Column::str("tag")],
            ),
            16,
        ));
        let append = |rows: std::ops::Range<i64>| {
            table.insert_batch_unchecked(
                rows.map(|i| {
                    let tag = if i < 40 { "old" } else { "new" };
                    Row::new(vec![Value::int(i % 3), Value::int(i), Value::str(tag)])
                }),
                SnapshotId::INITIAL,
            );
        };
        append(0..40);
        let first = Arc::new(
            ColumnarTable::from_table_with_row_groups(
                &table,
                cjoin_storage::CompressionPolicy::Adaptive,
                10,
            )
            .unwrap(),
        );
        append(40..70);
        let grown = Arc::new(first.with_sealed_groups(&table).unwrap().unwrap());
        for (old, new) in first.row_groups().iter().zip(grown.row_groups()) {
            assert!(
                Arc::ptr_eq(old, new),
                "the grown replica shares every group"
            );
        }
        let catalog = Catalog::new();
        catalog.add_fact_table(Arc::clone(&table));
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(10);

        // Per query: its rows in emission order, then the number of its end
        // tuples.
        let run = |replica: Option<&Arc<ColumnarTable>>, handoff: Option<&Arc<ColumnarTable>>| {
            let (lanes, rx) = one_lane();
            let (cmd_tx, cmd_rx) = unbounded();
            let ctx = context(&config, lanes);
            let mut pre = scan_worker(&table, replica, (0, None), cmd_rx, ctx);
            let install = |pre: &mut Preprocessor, bit, predicate| {
                let query = StarQuery::builder(format!("q{bit}"))
                    .fact_predicate(predicate)
                    .aggregate(AggregateSpec::count_star())
                    .build();
                let runtime = runtime_for(&catalog, bit, query, SnapshotId::INITIAL, 1);
                admit_to(pre, &cmd_tx, runtime);
            };
            install(&mut pre, 0, Predicate::eq("tag", "new"));
            pre.process_next_chunk();
            pre.process_next_chunk();
            if let Some(grown) = handoff {
                cmd_tx
                    .send(PreprocessorCommand::Replica(Arc::clone(grown)))
                    .unwrap();
                pre.apply_commands();
                let adopted = pre.replica.as_ref().map(|r| r.replica.len());
                assert_eq!(adopted, Some(70), "the worker reads the grown replica");
            }
            install(&mut pre, 1, Predicate::True);
            let mut seen: [(Vec<u64>, usize); 2] = Default::default();
            for _ in 0..100 {
                pre.process_next_chunk();
                for msg in rx.try_iter() {
                    match msg {
                        Message::Data(batch) => {
                            for t in &batch {
                                for bit in t.bits.iter() {
                                    seen[bit].0.push(t.row_id.0);
                                }
                            }
                        }
                        Message::Control(ControlTuple::QueryEnd(id)) => seen[id.index()].1 += 1,
                        _ => {}
                    }
                }
            }
            assert_eq!(pre.active_queries(), 0, "both queries ended");
            seen
        };
        let plain = run(None, None);
        assert_eq!(plain[0], ((40..70).collect::<Vec<_>>(), 1));
        assert_eq!(plain[1], ((20..70).chain(0..20).collect::<Vec<_>>(), 1));
        assert_eq!(run(Some(&first), None), plain, "first replica, kept");
        assert_eq!(run(Some(&first), Some(&grown)), plain, "handed over");
    }

    // ------------------------------------------------------------------
    // Columnar front-end: probe before materialise
    // ------------------------------------------------------------------

    /// `fact(day, fk_a, fk_b)` over dimensions `a(k)` and `b(k)`: `day` grows
    /// with the row position (a date-clustered load, 100 rows a day), `fk_a`
    /// cycles over `keys_a` keys and `fk_b` over `keys_b`, out of step.
    fn star_catalog(rows: i64, keys_a: i64, keys_b: i64) -> Arc<Catalog> {
        let catalog = Catalog::new();
        for (name, keys) in [("a", keys_a), ("b", keys_b)] {
            let dim = Table::new(Schema::new(name, vec![Column::int("k")]));
            dim.insert_batch_unchecked(
                (0..keys).map(|k| Row::new(vec![Value::int(k)])),
                SnapshotId::INITIAL,
            );
            catalog.add_table(Arc::new(dim));
        }
        let fact = Table::new(Schema::new(
            "fact",
            vec![Column::int("day"), Column::int("fk_a"), Column::int("fk_b")],
        ));
        fact.insert_batch_unchecked(
            (0..rows).map(|i| {
                Row::new(vec![
                    Value::int(i / 100),
                    Value::int(i * 7 % keys_a),
                    Value::int(i / 3 % keys_b),
                ])
            }),
            SnapshotId::INITIAL,
        );
        catalog.add_fact_table(Arc::new(fact));
        Arc::new(catalog)
    }

    /// A runtime for `query` as bit `bit`, reading `snapshot`, its pass split
    /// across `segments` scan segments: what admission registers. Dimension
    /// slots: `b` = 1, any other = 0.
    fn runtime_for(
        catalog: &Catalog,
        bit: u32,
        query: StarQuery,
        snapshot: SnapshotId,
        segments: u64,
    ) -> Arc<QueryRuntime> {
        let bound = query.bind(catalog).unwrap();
        let slot_map = bound
            .dimensions
            .iter()
            .map(|d| usize::from(d.table == "b"))
            .collect();
        let (tx, _rx) = bounded(1);
        Arc::new(QueryRuntime {
            id: QueryId(bit),
            name: query.name,
            bound: Arc::new(bound),
            slot_map,
            result_tx: tx,
            resolved: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_at: None,
            admitted_at: Instant::now(),
            snapshot,
            progress: Arc::new(QueryProgress::new(0, segments)),
        })
    }

    /// The leading Filter is swapped by the optimizer between two chunks while
    /// the batches of the earlier chunks are still in their lane: the
    /// front-end marks each batch with the Filter that actually probed it, and
    /// the shard's Filter step runs exactly the rest — every Filter once per
    /// tuple that reaches it, none twice, none skipped.
    #[test]
    fn leading_filter_swap_between_chunks_applies_every_filter_exactly_once() {
        const ROWS: i64 = 64;
        const BATCH: usize = 16;
        let selected_a = |fk: i64| fk == 1 || fk == 2;
        let selected_b = |fk: i64| fk <= 1;
        let catalog = star_catalog(ROWS, 4, 3);
        let config = CjoinConfig::default()
            .with_max_concurrency(8)
            .with_batch_size(BATCH);

        // Query 0 joins both dimensions; the chain starts as [a, b].
        let chain = Arc::new(FilterChain::new());
        let filters: Vec<Arc<DimensionTable>> = [("a", 0usize, 1usize), ("b", 1, 2)]
            .into_iter()
            .map(|(name, slot, fk_column)| {
                let table = DimensionTable::new(name, slot, fk_column, 0, 8, &QuerySet::new(8));
                let keys: Vec<(i64, Row)> = (0..4i64)
                    .filter(|&k| {
                        if name == "a" {
                            selected_a(k)
                        } else {
                            selected_b(k)
                        }
                    })
                    .map(|k| (k, Row::new(vec![Value::int(k)])))
                    .collect();
                table.register_query(QueryId(0), &keys);
                let table = Arc::new(table);
                chain.push(Arc::clone(&table));
                table
            })
            .collect();
        let query = StarQuery::builder("both")
            .join_dimension("a", "fk_a", "k", cjoin_query::Predicate::True)
            .join_dimension("b", "fk_b", "k", cjoin_query::Predicate::True)
            .aggregate(AggregateSpec::count_star())
            .build();

        // The front-end reads a full replica and shares `chain` with the shard.
        let fact = catalog.fact_table().unwrap();
        let replica = replica_of(&fact);
        let (mut pre, cmd_tx, rx) = harness(fact, Some(replica), &config);
        pre.chain = Arc::clone(&chain);
        pre.slot_count = Arc::new(AtomicUsize::new(2));
        admit_to(
            &mut pre,
            &cmd_tx,
            runtime_for(&catalog, 0, query, SnapshotId::INITIAL, 1),
        );

        // Chunks 0 and 1 under [a, b], chunks 2 and 3 under [b, a]; nothing
        // has been taken off the lane yet.
        pre.process_next_chunk();
        pre.process_next_chunk();
        assert!(chain.reorder(&["b".into(), "a".into()]));
        pre.process_next_chunk();
        pre.process_next_chunk();

        let fks = |i: i64| (i * 7 % 4, i / 3 % 3);
        let half = ROWS / 2;
        // What each Filter must have seen: all rows of the chunks it led, and
        // the other Filter's survivors of the chunks it did not.
        let in_a = half + (half..ROWS).filter(|&i| selected_b(fks(i).1)).count() as i64;
        let in_b = half + (0..half).filter(|&i| selected_a(fks(i).0)).count() as i64;
        let (a_in, _, a_probes, a_skips) = filters[0].stats.snapshot();
        assert_eq!(a_in, half as u64, "a has only probed the chunks it led");

        assert_eq!((a_probes, a_skips), (half as u64, 0));

        let mut survivors = Vec::new();
        let mut batches = 0;
        for msg in rx.try_iter() {
            let Message::Data(mut batch) = msg else {
                continue;
            };
            crate::distributor::run_filters(&chain, &mut batch);
            batches += 1;
            assert!(
                batch.filter_applied(0) != batch.filter_applied(1),
                "the scan marked the one Filter it probed"
            );
            for tuple in batch.iter() {
                let (fk_a, fk_b) = fks(tuple.row_id.0 as i64);
                assert_eq!(
                    tuple.dims[0].as_ref().map(|r| r.int(0)),
                    Some(fk_a),
                    "a's row attached once, by whoever probed a"
                );
                assert_eq!(tuple.dims[1].as_ref().map(|r| r.int(0)), Some(fk_b));
                survivors.push(tuple.row_id.0 as i64);
            }
        }
        assert_eq!(batches, 4, "one batch per chunk");
        let expected: Vec<i64> = (0..ROWS)
            .filter(|&i| selected_a(fks(i).0) && selected_b(fks(i).1))
            .collect();
        assert_eq!(survivors, expected);
        assert_eq!(filters[0].stats.snapshot().0, in_a as u64, "a: tuples_in");
        assert_eq!(filters[1].stats.snapshot().0, in_b as u64, "b: tuples_in");
        for filter in &filters {
            let (tuples_in, _, probes, skips) = filter.stats.snapshot();
            assert_eq!((probes, skips), (tuples_in, 0), "one probe per tuple in");
        }
    }

    /// Timing probe for the front-end alone over encoded chunks: a
    /// date-clustered replica, eight registered 90-day-window queries joining
    /// one dimension at 5 % selectivity, `Preprocessor::run` into a lane that only drains.
    /// `cargo test --release -p cjoin-core columnar_probe_before_materialise_timing -- --ignored --nocapture`
    #[test]
    #[ignore = "timing probe; run with --ignored --nocapture"]
    fn columnar_probe_before_materialise_timing() {
        const ROWS: i64 = 400_000;
        const KEYS: i64 = 1_000;
        const QUERIES: u32 = 8;
        let catalog = star_catalog(ROWS, KEYS, 3);
        let config = CjoinConfig::default().with_max_concurrency(QUERIES as usize);
        let chain = Arc::new(FilterChain::new());
        let dim = Arc::new(DimensionTable::new(
            "a",
            0,
            1,
            0,
            QUERIES as usize,
            &QuerySet::new(QUERIES as usize),
        ));
        chain.push(Arc::clone(&dim));
        let fact = catalog.fact_table().unwrap();
        let replica = replica_of(&fact);
        let (mut pre, cmd_tx, rx) = harness(fact, Some(replica), &config);
        pre.chain = Arc::clone(&chain);
        pre.slot_count = Arc::new(AtomicUsize::new(2));
        let counters = Arc::clone(&pre.counters);

        let days = ROWS / 100;
        for q in 0..QUERIES {
            // Every query selects its own twentieth of the keys and a 90-day
            // window, the windows spread over the table.
            let keys: Vec<(i64, Row)> = (0..KEYS)
                .filter(|k| (k + i64::from(q)) % 20 == 0)
                .map(|k| (k, Row::new(vec![Value::int(k)])))
                .collect();
            dim.register_query(QueryId(q), &keys);
            let from = i64::from(q) * (days - 90) / i64::from(QUERIES);
            let query = StarQuery::builder(format!("window{q}"))
                .fact_predicate(cjoin_query::Predicate::between("day", from, from + 89))
                .join_dimension("a", "fk_a", "k", cjoin_query::Predicate::True)
                .aggregate(AggregateSpec::count_star())
                .build();
            admit_to(
                &mut pre,
                &cmd_tx,
                runtime_for(&catalog, q, query, SnapshotId::INITIAL, 1),
            );
        }

        let started = Instant::now();
        let scan = std::thread::spawn(move || pre.run());
        let (mut ended, mut materialised) = (0, 0u64);
        while ended < QUERIES {
            let (tuples, ends) = drain(&rx, None);
            materialised += tuples as u64;
            ended += ends.len() as u32;
            std::thread::yield_now();
        }
        let elapsed = started.elapsed();
        cmd_tx.send(PreprocessorCommand::Shutdown).unwrap();
        scan.join().unwrap();

        let scanned = counters.tuples_scanned.load(Ordering::Relaxed);
        let (tuples_in, dropped, probes, _) = dim.stats.snapshot();
        println!(
            "columnar front-end: {scanned} rows in {elapsed:?} = {:.1} M rows/s; \
             selected {tuples_in} ({:.4} of scanned), probed {probes}, dropped {dropped}, \
             materialised {materialised} ({:.4} of scanned)",
            scanned as f64 / elapsed.as_secs_f64() / 1e6,
            tuples_in as f64 / scanned as f64,
            materialised as f64 / scanned as f64,
        );
        assert_eq!(
            materialised,
            tuples_in - dropped,
            "rows exist only for survivors"
        );
        assert!(materialised > 0 && materialised < tuples_in);
    }
}
