//! In-flight tuples, batches and control tuples.
//!
//! The Preprocessor augments every fact tuple with a query bit-vector `bτ` (§3.2.2)
//! and, as the tuple passes through the Filters, pointers to its joining dimension
//! tuples are attached so the aggregation operators can read dimension attributes
//! without re-probing (§3.2.2, last paragraph). Tuples travel through the pipeline in
//! batches to amortise queue synchronisation (§4).
//!
//! Control tuples (`query start` / `query end`, §3.3) carry query lifecycle events
//! from the Preprocessor to every Distributor shard's lane, the same lanes the
//! data batches take. The pipeline guarantees they are never reordered relative
//! to data tuples (§3.3.3); see "Control-tuple ordering" in
//! [`crate::preprocessor`] for why the FIFO lanes are enough.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Sender;

use cjoin_common::{QueryId, QuerySet};
use cjoin_query::{BoundStarQuery, QueryOutcome};
use cjoin_storage::{Row, RowId, SnapshotId};

use crate::progress::QueryProgress;

/// A fact tuple flowing through the pipeline.
#[derive(Debug, Clone)]
pub struct InFlightTuple {
    /// Position of the tuple in the fact table.
    pub row_id: RowId,
    /// The fact row itself (cheap `Arc` clone of the stored row).
    pub row: Row,
    /// The query bit-vector `bτ`: bit `i` is set while the tuple is still relevant to
    /// query `i`.
    pub bits: QuerySet,
    /// Joining dimension rows attached by the Filters, indexed by dimension *slot*
    /// (see [`crate::dimension::DimensionTable::slot`]).
    pub dims: Vec<Option<Row>>,
}

impl InFlightTuple {
    /// Creates a tuple with no dimension rows attached.
    pub fn new(row_id: RowId, row: Row, bits: QuerySet, num_slots: usize) -> Self {
        Self {
            row_id,
            row,
            bits,
            dims: vec![None; num_slots],
        }
    }

    /// Creates a placeholder tuple whose buffers are sized for `max_concurrency`
    /// query bits. Used by [`Batch::next_slot`] to grow a batch's spare-tuple pool;
    /// the tuple must be [`reset`](InFlightTuple::reset) before use.
    fn new_spare(max_concurrency: usize) -> Self {
        Self {
            row_id: RowId(0),
            row: Row::new(Vec::new()),
            bits: QuerySet::new(max_concurrency),
            dims: Vec::new(),
        }
    }

    /// Reinitialises a recycled tuple in place, reusing its existing `bits` words
    /// and `dims` allocation. The bit-vector buffer is only reallocated if the
    /// capacity changed (it never does within one engine, whose `maxConc` is fixed);
    /// the dimension-slot vector reuses its capacity across recycles.
    pub fn reset(&mut self, row_id: RowId, row: Row, bits: &QuerySet, num_slots: usize) {
        self.row_id = row_id;
        self.row = row;
        if self.bits.capacity() == bits.capacity() {
            self.bits.copy_from(bits);
        } else {
            self.bits = bits.clone();
        }
        self.dims.clear();
        self.dims.resize(num_slots, None);
    }

    /// Ensures the dimension-slot vector can hold `num_slots` entries (a dimension's
    /// slot is assigned once, so the slot count only ever grows — up to the number
    /// of distinct dimensions the engine has joined).
    pub fn ensure_slots(&mut self, num_slots: usize) {
        if self.dims.len() < num_slots {
            self.dims.resize(num_slots, None);
        }
    }
}

/// A batch of data tuples with zero-allocation recycling.
///
/// A `Batch` keeps two regions in one backing vector: `tuples[..live]` are the
/// batch's current data tuples, and `tuples[live..]` are **spare** tuples left over
/// from the batch's previous trips through the pipeline. Dropping a tuple
/// ([`truncate_live`](Batch::truncate_live)) or finishing a batch
/// ([`recycle`](Batch::recycle)) only moves the `live` watermark — the spare tuples
/// keep their heap allocations (`bits` words, `dims` vector) and are reinitialised
/// in place by [`next_slot`](Batch::next_slot) + [`InFlightTuple::reset`] on the
/// batch's next fill. Combined with the [`BatchPool`](crate::pool::BatchPool), the
/// steady-state scan path performs no per-tuple heap allocation at all, which is the
/// paper's "specialized allocator for fact tuples" (§4).
#[derive(Debug, Clone, Default)]
pub struct Batch {
    tuples: Vec<InFlightTuple>,
    /// Number of live tuples at the front of `tuples`.
    live: usize,
    /// Slot of the dimension Filter the columnar scan front-end already probed
    /// for this batch, before it materialised the batch's tuples. The shard
    /// skips that Filter, because the chain can grow, shrink or be reordered
    /// between the chunk and the shard ("Control-tuple ordering" in
    /// [`crate::preprocessor`] also argues why a re-created Filter inheriting
    /// its dimension's slot is safe).
    applied_filter: Option<usize>,
}

impl Batch {
    /// Creates an empty batch with no spare tuples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch whose backing vector can hold `capacity` tuples.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            tuples: Vec::with_capacity(capacity),
            live: 0,
            applied_filter: None,
        }
    }

    /// Number of live tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the batch has no live tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Capacity of the backing vector (diagnostics / tests).
    pub fn capacity(&self) -> usize {
        self.tuples.capacity()
    }

    /// Number of spare (recyclable) tuples beyond the live region.
    pub fn spare_tuples(&self) -> usize {
        self.tuples.len() - self.live
    }

    /// Appends a fully-formed tuple, overwriting a spare if one is available.
    pub fn push(&mut self, tuple: InFlightTuple) {
        if self.live < self.tuples.len() {
            self.tuples[self.live] = tuple;
        } else {
            self.tuples.push(tuple);
        }
        self.live += 1;
    }

    /// Returns a mutable slot for the next tuple, recycling a spare when one is
    /// available. The second return value is `true` if the slot was recycled
    /// (no heap allocation) and `false` if a fresh tuple had to be allocated.
    /// The caller must [`reset`](InFlightTuple::reset) the slot before reading it.
    #[inline]
    pub fn next_slot(&mut self, max_concurrency: usize) -> (&mut InFlightTuple, bool) {
        let recycled = self.live < self.tuples.len();
        if !recycled {
            self.tuples.push(InFlightTuple::new_spare(max_concurrency));
        }
        let slot = &mut self.tuples[self.live];
        self.live += 1;
        (slot, recycled)
    }

    /// Shrinks the live region to `len` tuples; the dropped tuples become spares
    /// and keep their allocations.
    #[inline]
    pub fn truncate_live(&mut self, len: usize) {
        debug_assert!(len <= self.live);
        self.live = self.live.min(len);
    }

    /// Empties the live region, turning every tuple into a spare. This is the
    /// pool-recycling entry point: nothing is deallocated.
    pub fn recycle(&mut self) {
        self.live = 0;
        self.applied_filter = None;
    }

    /// Records that the scan front-end probed the Filter occupying dimension
    /// slot `slot` for this batch.
    pub fn mark_filter_applied(&mut self, slot: usize) {
        self.applied_filter = Some(slot);
    }

    /// Whether the Filter occupying dimension slot `slot` already processed this
    /// batch.
    pub fn filter_applied(&self, slot: usize) -> bool {
        self.applied_filter == Some(slot)
    }

    /// Swaps two live tuples (the filter loop's in-place survivor compaction).
    #[inline]
    pub fn swap(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.live && b < self.live);
        self.tuples.swap(a, b);
    }

    /// Iterates over the live tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, InFlightTuple> {
        self.tuples[..self.live].iter()
    }

    /// Iterates mutably over the live tuples.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, InFlightTuple> {
        self.tuples[..self.live].iter_mut()
    }

    /// The live tuples as a slice.
    pub fn as_slice(&self) -> &[InFlightTuple] {
        &self.tuples[..self.live]
    }
}

impl std::ops::Index<usize> for Batch {
    type Output = InFlightTuple;
    #[inline]
    fn index(&self, index: usize) -> &InFlightTuple {
        &self.tuples[..self.live][index]
    }
}

impl std::ops::IndexMut<usize> for Batch {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut InFlightTuple {
        &mut self.tuples[..self.live][index]
    }
}

impl From<Vec<InFlightTuple>> for Batch {
    fn from(tuples: Vec<InFlightTuple>) -> Self {
        Self {
            live: tuples.len(),
            tuples,
            applied_filter: None,
        }
    }
}

impl FromIterator<InFlightTuple> for Batch {
    fn from_iter<I: IntoIterator<Item = InFlightTuple>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a InFlightTuple;
    type IntoIter = std::slice::Iter<'a, InFlightTuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Everything the Distributor needs to run one registered query: its bound form, the
/// mapping from its dimension clauses to pipeline dimension slots, and the channel the
/// final result is delivered on.
#[derive(Debug)]
pub struct QueryRuntime {
    /// The CJOIN-internal query id (bit-vector index).
    pub id: QueryId,
    /// Query name (for diagnostics).
    pub name: String,
    /// The schema-bound query.
    pub bound: Arc<BoundStarQuery>,
    /// `slot_map[k]` = dimension slot holding the row joined by the query's `k`-th
    /// dimension clause.
    pub slot_map: Vec<usize>,
    /// Channel on which the query's outcome is delivered — the Distributor's
    /// result on success, or a typed [`cjoin_query::QueryError`] when the
    /// supervisor fails the query, a deadline fires, or the client cancels.
    pub result_tx: Sender<QueryOutcome>,
    /// First-wins resolution latch: set by whichever of {Distributor shard,
    /// supervisor, deadline reaper, client cancel} gets there first. A late
    /// Distributor result for an already-failed query is silently discarded.
    pub resolved: AtomicBool,
    /// Cooperative-cancellation flag: set together with a losing outcome so the
    /// scan front-end can retire the query's bit early instead of finishing the
    /// pass for a client that already went away.
    pub cancelled: AtomicBool,
    /// Absolute deadline derived from the query's relative deadline at
    /// submission; the supervisor's reaper cancels the query once this passes.
    pub deadline_at: Option<Instant>,
    /// When the query was admitted (start of Algorithm 1), for statistics.
    pub admitted_at: Instant,
    /// The storage snapshot the query was admitted against.
    pub snapshot: SnapshotId,
    /// Progress tracker shared with the query's [`QueryHandle`](crate::engine::QueryHandle).
    pub progress: Arc<QueryProgress>,
}

impl QueryRuntime {
    /// Delivers `outcome` to the waiting [`QueryHandle`](crate::engine::QueryHandle)
    /// if nobody resolved the query yet. Returns whether this call won the race;
    /// losers' outcomes are dropped, which is what keeps result delivery
    /// exactly-once when the Distributor, the supervisor and the deadline reaper
    /// all race to finish the same query.
    pub fn resolve(&self, outcome: QueryOutcome) -> bool {
        if self.resolved.swap(true, Ordering::AcqRel) {
            return false;
        }
        // The handle holds a bounded(1) receiver; a dropped receiver (client
        // went away) makes this a no-op, never an error.
        let _ = self.result_tx.send(outcome);
        true
    }

    /// Whether the query has been cancelled (deadline, client cancel, or
    /// supervisor failure) and the scan may retire its bit early.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Marks the query cancelled. Idempotent; callers still need to deliver an
    /// outcome via [`QueryRuntime::resolve`].
    pub fn mark_cancelled(&self) {
        self.cancelled.store(true, Ordering::Release);
    }
}

/// A lifecycle event travelling from the Preprocessor to the Distributor.
///
/// Control tuples are `Clone` because the scan front-end *broadcasts* them to
/// every aggregation shard's queue: each shard must set up (query start) or
/// flush (query end) its own partial state for the query. Cloning a
/// `QueryStart` is an `Arc` bump.
#[derive(Debug, Clone)]
pub enum ControlTuple {
    /// A new query has been installed; the Distributor must set up its aggregation
    /// operator before any of its result tuples arrive (§3.3.1).
    QueryStart(Arc<QueryRuntime>),
    /// The continuous scan has wrapped around the query's starting tuple; the
    /// Distributor finalizes the aggregation and emits the result (§3.3.2).
    QueryEnd(QueryId),
}

/// A message travelling through pipeline queues.
#[derive(Debug)]
pub enum Message {
    /// A batch of data tuples.
    Data(Batch),
    /// A control tuple (only ever enqueued when no data is in flight ahead of it).
    Control(ControlTuple),
    /// Orderly shutdown: each worker forwards it once and exits.
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_storage::Value;

    fn row() -> Row {
        Row::new(vec![Value::int(1), Value::int(2)])
    }

    #[test]
    fn new_tuple_has_empty_slots() {
        let t = InFlightTuple::new(RowId(3), row(), QuerySet::new(8), 2);
        assert_eq!(t.row_id, RowId(3));
        assert_eq!(t.dims.len(), 2);
        assert!(t.dims.iter().all(Option::is_none));
        assert!(t.bits.is_empty());
    }

    #[test]
    fn ensure_slots_grows_but_never_shrinks() {
        let mut t = InFlightTuple::new(RowId(0), row(), QuerySet::new(8), 1);
        t.dims[0] = Some(row());
        t.ensure_slots(3);
        assert_eq!(t.dims.len(), 3);
        assert!(t.dims[0].is_some());
        t.ensure_slots(2);
        assert_eq!(t.dims.len(), 3);
    }

    #[test]
    fn batch_push_truncate_and_recycle_keep_spares() {
        let mut b = Batch::new();
        for i in 0..4 {
            b.push(InFlightTuple::new(RowId(i), row(), QuerySet::new(8), 1));
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.spare_tuples(), 0);
        b.truncate_live(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.spare_tuples(), 3, "dropped tuples become spares");
        b.recycle();
        assert!(b.is_empty());
        assert_eq!(b.spare_tuples(), 4);
        // Refill through next_slot: the first four slots recycle, the fifth allocates.
        for i in 0..5 {
            let (slot, recycled) = b.next_slot(8);
            slot.reset(RowId(i), row(), &QuerySet::from_bits(8, [0]), 2);
            assert_eq!(recycled, i < 4, "slot {i}");
        }
        assert_eq!(b.len(), 5);
        assert!(b.iter().all(|t| t.bits.get(0) && t.dims.len() == 2));
    }

    #[test]
    fn reset_reuses_buffers_and_handles_capacity_changes() {
        let mut t = InFlightTuple::new(RowId(0), row(), QuerySet::from_bits(8, [0, 3]), 3);
        t.dims[1] = Some(row());
        t.reset(RowId(7), row(), &QuerySet::from_bits(8, [5]), 2);
        assert_eq!(t.row_id, RowId(7));
        assert_eq!(t.bits.iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(t.dims.len(), 2);
        assert!(t.dims.iter().all(Option::is_none), "stale rows are cleared");
        // Capacity change (only possible across engines) falls back to a clone.
        t.reset(RowId(8), row(), &QuerySet::from_bits(16, [9]), 1);
        assert_eq!(t.bits.capacity(), 16);
        assert!(t.bits.get(9));
    }

    #[test]
    fn control_tuples_are_broadcastable_clones() {
        let end = ControlTuple::QueryEnd(QueryId(3));
        assert!(matches!(end.clone(), ControlTuple::QueryEnd(QueryId(3))));
    }

    #[test]
    fn message_variants_are_constructible() {
        let batch = Batch::from(vec![InFlightTuple::new(
            RowId(0),
            row(),
            QuerySet::new(4),
            0,
        )]);
        let m = Message::Data(batch);
        assert!(matches!(m, Message::Data(b) if b.len() == 1));
        assert!(matches!(
            Message::Control(ControlTuple::QueryEnd(QueryId(2))),
            Message::Control(ControlTuple::QueryEnd(QueryId(2)))
        ));
        assert!(matches!(Message::Shutdown, Message::Shutdown));
    }
}
