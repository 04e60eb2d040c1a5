//! The Filter step and the ordered filter chain (§3.2.2).
//!
//! A Filter takes a batch of in-flight fact tuples and, for each tuple, probes its
//! dimension hash table with the tuple's foreign key, combines the tuple's bit-vector
//! with the matching entry's effective bit-vector `bits | bDj` (or with the
//! dimension's complement bitmap `bDj` alone on a miss), attaches the joining
//! dimension row for downstream aggregation, and drops the tuple if its bit-vector
//! became zero. An entry stores only the queries that select it; the queries that
//! ignore the dimension join every stored version through `bDj`, which the hit arm
//! ORs in (see [`crate::dimension`]).
//!
//! [`FilterChain`] holds the current *order* of Filters. The order is shared by all
//! worker threads and can be changed at run time by the optimizer (§3.4); workers
//! take a snapshot of the order once per batch, so a reordering simply applies from
//! the next batch onwards.
//!
//! ## Two hot-path implementations
//!
//! [`FilterChain::process_batch`] dispatches on its `batched_probing` argument.
//! The shards always pass `true` (and `early_skip = true`); the other settings
//! are the reference the tests compare the kernel against:
//!
//! * **batched**: a *filter-major* loop. For each Filter the entries read
//!   lock is taken once ([`DimensionTable::probe_batch`]), entries are borrowed
//!   instead of `Arc`-cloned, per-filter statistics accumulate in batch-local
//!   counters flushed with one `fetch_add` per counter per (batch, filter), the
//!   AND + emptiness test is fused into a single word pass, and survivors are
//!   compacted in place with stable swap-retention.
//! * **per-tuple** (reference): the tuple-major loop the paper's
//!   description starts from — one lock acquisition, one `Arc` clone and up to four
//!   atomic increments per tuple per Filter via [`apply_filter`].
//!
//! The per-bit-vector decision of the batched path — early skip, probe, then a
//! hit / multi-version / miss outcome — is `probe_bits`, which works on bare
//! bit-vector words so that the columnar scan front-end can run the chain's
//! leading Filter on rows it has not materialised yet (see
//! [`crate::preprocessor`]); the shards and the scan side share that one kernel.
//!
//! Both produce identical surviving tuples and statistics totals; the rig's
//! `cjoin.filter.tuples_per_s` measures the batched path. (When dimension churn
//! creates multi-version keys, split tuples are appended at the batch tail and the
//! two paths may order those splits differently — survivors, bits and attached
//! rows still agree, and downstream aggregation is order-insensitive.)

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::RwLock;

use cjoin_common::QuerySet;

use crate::dimension::{DimEntry, DimensionTable, FilterStats, ProbeGuard};
use crate::tuple::{Batch, InFlightTuple};

/// Combines a fact tuple with the content *versions* stored for its key when more
/// than one exists (a dimension row was upserted while queries referencing the old
/// contents are still live — see the snapshot-versioning notes in
/// [`crate::dimension`]).
///
/// Claimed-split: walking versions oldest-first, each version takes the tuple bits
/// of its effective vector `version.bits | bDj` that no earlier version claimed (a
/// referencing query's bit lives on exactly one version; an ignoring query's bit is
/// in `bDj`, so every version offers it and the first claims it, whose attached row
/// it never reads). The first version with a non-empty take keeps the tuple in
/// place; every later take becomes a **split** — a clone of the tuple carrying
/// that version's row in `dims[slot]` — so no downstream consumer ever sees one
/// tuple mixing two versions' attribute values. Bits claimed by no version are
/// dropped, exactly as a probe miss drops them. Returns whether the in-place
/// tuple survives; splits (which always survive) are appended to `splits` and
/// must be routed through the *remaining* filters by the caller.
pub(crate) fn combine_versions(
    dim: &DimensionTable,
    versions: &[Arc<DimEntry>],
    tuple: &mut InFlightTuple,
    splits: &mut Vec<InFlightTuple>,
) -> bool {
    debug_assert!(versions.len() > 1);
    let slot = dim.slot;
    let mut claimed = QuerySet::new(tuple.bits.capacity());
    let mut first: Option<(usize, QuerySet)> = None;
    for (vi, version) in versions.iter().enumerate() {
        let mut take = tuple.bits.clone();
        version.bits.and_or_into(&dim.complement, &mut take);
        take.and_not_assign(&claimed);
        if take.is_empty() {
            continue;
        }
        claimed.or_assign(&take);
        if first.is_none() {
            first = Some((vi, take));
        } else {
            // Clone the tuple's pre-combine state (the in-place tuple is only
            // mutated below, after the loop) with this version's row attached.
            let mut split = tuple.clone();
            split.bits = take;
            split.ensure_slots(slot + 1);
            split.dims[slot] = Some(version.row.clone());
            splits.push(split);
        }
    }
    match first {
        None => {
            tuple.bits.clear();
            false
        }
        Some((vi, take)) => {
            tuple.bits = take;
            tuple.ensure_slots(slot + 1);
            tuple.dims[slot] = Some(versions[vi].row.clone());
            true
        }
    }
}

/// What one Filter decided for one tuple's bit-vector.
pub(crate) enum ProbeOutcome<'g> {
    /// The bit-vector became zero: the tuple is dropped.
    Dropped,
    /// The tuple survives with nothing to attach: the probe was skipped, or the
    /// key missed and a query that ignores the dimension keeps the tuple.
    Kept,
    /// The tuple survives joined with this entry; the caller attaches its row.
    Joined(&'g DimEntry),
    /// The key has several content versions. The bit-vector is untouched: the
    /// caller runs [`combine_versions`] on the materialised tuple (and counts a
    /// drop if it does not survive).
    Versions(&'g [Arc<DimEntry>]),
}

/// One Filter applied to one bit-vector held as bare words: the §3.2.2 early
/// skip, then a probe of `guard` with the foreign key (`fk` is only called when
/// the probe happens), then the AND with the hit's effective `bδ`, its selecting
/// queries ORed with `bDj`, or, on a miss, with `bDj` alone. Both arms load the
/// complement words the early skip already read. Probe, skip and drop counts
/// accumulate in `stats`; `tuples_in` is the caller's, who knows the batch size.
#[inline]
pub(crate) fn probe_bits<'g>(
    dim: &DimensionTable,
    guard: &'g ProbeGuard<'_>,
    early_skip: bool,
    bits: &mut [u64],
    fk: impl FnOnce() -> i64,
    stats: &mut BatchLocalStats,
) -> ProbeOutcome<'g> {
    if early_skip && dim.complement.contains_all_words(bits) {
        stats.skips += 1;
        return ProbeOutcome::Kept;
    }
    stats.probes += 1;
    let (emptied, outcome) = match guard.get(fk()) {
        Some([entry]) => (
            entry.bits.and_or_words(&dim.complement, bits),
            ProbeOutcome::Joined(entry),
        ),
        Some(versions) => return ProbeOutcome::Versions(versions),
        None => (dim.complement.and_words(bits), ProbeOutcome::Kept),
    };
    if emptied {
        stats.tuples_dropped += 1;
        ProbeOutcome::Dropped
    } else {
        outcome
    }
}

/// Applies one Filter to a single tuple (the `batched_probing = false` reference).
///
/// Returns `true` if the tuple survives (non-zero bit-vector). `early_skip` enables
/// the §3.2.2 optimisation: when every query the tuple is still relevant to ignores
/// this dimension (`bτ AND ¬bDj == 0`), the probe is skipped entirely.
///
/// When the key has several content versions (dimension churn), the tuple is
/// claimed-split: extra surviving tuples — one per additional claiming version —
/// are appended to `splits`, and the caller must run them through the filters
/// *after* this one. A `false` return implies `splits` gained nothing.
#[inline]
pub fn apply_filter(
    dim: &DimensionTable,
    tuple: &mut InFlightTuple,
    early_skip: bool,
    splits: &mut Vec<InFlightTuple>,
) -> bool {
    let stats = &dim.stats;
    stats.tuples_in.fetch_add(1, Ordering::Relaxed);

    if early_skip && dim.complement.contains_all(&tuple.bits) {
        // No live query for this tuple references the dimension: forward as-is.
        stats.skips.fetch_add(1, Ordering::Relaxed);
        return true;
    }

    stats.probes.fetch_add(1, Ordering::Relaxed);
    let fk = tuple.row.int(dim.fact_fk_column);
    let versions = dim.probe_versions(fk);
    match versions.as_slice() {
        [] => {
            // The joining dimension tuple is not stored: it satisfies no registered
            // predicate, so only queries that ignore this dimension may keep the tuple.
            dim.complement.and_into(&mut tuple.bits);
            if tuple.bits.is_empty() {
                stats.tuples_dropped.fetch_add(1, Ordering::Relaxed);
                false
            } else {
                true
            }
        }
        [entry] => {
            entry.bits.and_or_into(&dim.complement, &mut tuple.bits);
            if tuple.bits.is_empty() {
                stats.tuples_dropped.fetch_add(1, Ordering::Relaxed);
                false
            } else {
                tuple.ensure_slots(dim.slot + 1);
                tuple.dims[dim.slot] = Some(entry.row.clone());
                true
            }
        }
        versions => {
            if combine_versions(dim, versions, tuple, splits) {
                true
            } else {
                stats.tuples_dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

/// The ordered sequence of Filters shared by all worker threads.
#[derive(Debug, Default)]
pub struct FilterChain {
    filters: RwLock<Vec<Arc<DimensionTable>>>,
}

impl FilterChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of Filters currently in the chain.
    pub fn len(&self) -> usize {
        self.filters.read().len()
    }

    /// Whether the chain has no Filters.
    pub fn is_empty(&self) -> bool {
        self.filters.read().is_empty()
    }

    /// Returns the Filter covering `dimension`, if present.
    pub fn find(&self, dimension: &str) -> Option<Arc<DimensionTable>> {
        self.filters
            .read()
            .iter()
            .find(|f| f.name == dimension)
            .cloned()
    }

    /// Appends a Filter (new Filters are appended; the optimizer may move them later,
    /// §3.3.1).
    pub fn push(&self, filter: Arc<DimensionTable>) {
        self.filters.write().push(filter);
    }

    /// Removes the Filter covering `dimension` (used when its hash table becomes
    /// empty after a query finishes, Algorithm 2).
    pub fn remove(&self, dimension: &str) -> bool {
        let mut filters = self.filters.write();
        let before = filters.len();
        filters.retain(|f| f.name != dimension);
        filters.len() != before
    }

    /// A point-in-time snapshot of the chain order.
    pub fn snapshot(&self) -> Vec<Arc<DimensionTable>> {
        self.filters.read().clone()
    }

    /// The Filter currently first in the order — the one the run-time optimizer
    /// keeps most selective, and the one the columnar scan front-end probes
    /// before it materialises a row.
    pub fn leading(&self) -> Option<Arc<DimensionTable>> {
        self.filters.read().first().cloned()
    }

    /// Current order as dimension names (diagnostics / tests).
    pub fn order(&self) -> Vec<String> {
        self.filters.read().iter().map(|f| f.name.clone()).collect()
    }

    /// Replaces the order with `new_order` (a permutation expressed as dimension
    /// names). Names not present in the chain are ignored; filters missing from
    /// `new_order` keep their relative order at the end. Returns `true` if the order
    /// changed.
    pub fn reorder(&self, new_order: &[String]) -> bool {
        let mut filters = self.filters.write();
        let old_names: Vec<String> = filters.iter().map(|f| f.name.clone()).collect();
        let mut remaining = std::mem::take(&mut *filters);
        let mut reordered: Vec<Arc<DimensionTable>> = Vec::with_capacity(remaining.len());
        for name in new_order {
            if let Some(pos) = remaining.iter().position(|f| &f.name == name) {
                reordered.push(remaining.remove(pos));
            }
        }
        // Whatever remains (not mentioned in new_order) keeps its old relative order.
        reordered.append(&mut remaining);
        let changed = reordered
            .iter()
            .map(|f| f.name.as_str())
            .ne(old_names.iter().map(String::as_str));
        *filters = reordered;
        changed
    }

    /// Runs a batch through the given filter sequence in order, dropping tuples whose
    /// bit-vector becomes zero. Returns the number of tuples dropped.
    ///
    /// `batched_probing` selects between the batch-vectorized filter-major hot path
    /// and the per-tuple baseline (see the module docs). Dropped tuples become batch
    /// spares and keep their allocations; the relative order of survivors is
    /// preserved by both paths.
    ///
    /// This is the body of a shard's Filter step: it is deliberately a free
    /// function over a snapshot of the order so that the shard can leave out the
    /// Filter the scan front-end already probed.
    pub fn process_batch(
        filters: &[Arc<DimensionTable>],
        batch: &mut Batch,
        early_skip: bool,
        batched_probing: bool,
    ) -> usize {
        let before = batch.len();
        if batched_probing {
            Self::process_batch_batched(filters, batch, early_skip);
        } else {
            Self::process_batch_per_tuple(filters, batch, early_skip);
        }
        // Multi-version splits can grow the batch past its input size, in which
        // case the net drop count floors at zero (per-filter drop statistics are
        // tracked exactly in FilterStats either way).
        before.saturating_sub(batch.len())
    }

    /// Filter-major batched hot path: one lock acquisition, borrowed entries and one
    /// stats flush per (batch, filter); fused AND + emptiness word pass per tuple.
    fn process_batch_batched(filters: &[Arc<DimensionTable>], batch: &mut Batch, early_skip: bool) {
        for dim in filters {
            let live = batch.len();
            if live == 0 {
                return;
            }
            let mut stats = BatchLocalStats {
                tuples_in: live as u64,
                ..BatchLocalStats::default()
            };
            let slot = dim.slot;
            let guard = dim.probe_batch();
            // Splits produced by multi-version keys (dimension churn): appended to
            // the batch tail after compaction, so the outer filter-major loop runs
            // them through the *remaining* filters — they already carry this
            // filter's outcome.
            let mut splits: Vec<InFlightTuple> = Vec::new();
            // Stable swap-retention: survivors are compacted to the front in order;
            // dropped tuples end up beyond `kept` and become recyclable spares.
            let mut kept = 0usize;
            for i in 0..live {
                let tuple = &mut batch[i];
                let row = &tuple.row;
                let outcome = probe_bits(
                    dim,
                    &guard,
                    early_skip,
                    tuple.bits.words_mut(),
                    || row.int(dim.fact_fk_column),
                    &mut stats,
                );
                let survives = match outcome {
                    ProbeOutcome::Dropped => false,
                    ProbeOutcome::Kept => true,
                    ProbeOutcome::Joined(entry) => {
                        tuple.ensure_slots(slot + 1);
                        tuple.dims[slot] = Some(entry.row.clone());
                        true
                    }
                    ProbeOutcome::Versions(versions) => {
                        let survives = combine_versions(dim, versions, tuple, &mut splits);
                        stats.tuples_dropped += u64::from(!survives);
                        survives
                    }
                };
                if survives {
                    if kept != i {
                        batch.swap(kept, i);
                    }
                    kept += 1;
                }
            }
            drop(guard);
            batch.truncate_live(kept);
            for split in splits {
                batch.push(split);
            }
            stats.flush(&dim.stats);
        }
    }

    /// Tuple-major baseline: per-tuple locking, `Arc` clones and atomic statistics
    /// (kept as the reference the batched path is tested against).
    fn process_batch_per_tuple(
        filters: &[Arc<DimensionTable>],
        batch: &mut Batch,
        early_skip: bool,
    ) {
        let live = batch.len();
        let mut kept = 0usize;
        // Worklist of (split tuple, index of the first filter it still needs).
        // Multi-version keys can split while a split is mid-chain, so this drains
        // FIFO until no filter produces further splits.
        let mut worklist: std::collections::VecDeque<(InFlightTuple, usize)> =
            std::collections::VecDeque::new();
        let mut splits: Vec<InFlightTuple> = Vec::new();
        for i in 0..live {
            let mut survives = true;
            for (fi, dim) in filters.iter().enumerate() {
                survives = apply_filter(dim, &mut batch[i], early_skip, &mut splits);
                for split in splits.drain(..) {
                    worklist.push_back((split, fi + 1));
                }
                if !survives {
                    break;
                }
            }
            if survives {
                if kept != i {
                    batch.swap(kept, i);
                }
                kept += 1;
            }
        }
        batch.truncate_live(kept);
        while let Some((mut tuple, start)) = worklist.pop_front() {
            let mut survives = true;
            for (fi, dim) in filters.iter().enumerate().skip(start) {
                survives = apply_filter(dim, &mut tuple, early_skip, &mut splits);
                for split in splits.drain(..) {
                    worklist.push_back((split, fi + 1));
                }
                if !survives {
                    break;
                }
            }
            if survives {
                batch.push(tuple);
            }
        }
    }
}

/// Per-(batch, filter) statistics accumulated in registers/stack and flushed to the
/// shared [`FilterStats`] atomics once, instead of up to four `fetch_add`s per tuple.
#[derive(Debug, Default)]
pub(crate) struct BatchLocalStats {
    pub(crate) tuples_in: u64,
    pub(crate) tuples_dropped: u64,
    pub(crate) probes: u64,
    pub(crate) skips: u64,
}

impl BatchLocalStats {
    #[inline]
    pub(crate) fn flush(&self, stats: &FilterStats) {
        if self.tuples_in > 0 {
            stats.tuples_in.fetch_add(self.tuples_in, Ordering::Relaxed);
        }
        if self.tuples_dropped > 0 {
            stats
                .tuples_dropped
                .fetch_add(self.tuples_dropped, Ordering::Relaxed);
        }
        if self.probes > 0 {
            stats.probes.fetch_add(self.probes, Ordering::Relaxed);
        }
        if self.skips > 0 {
            stats.skips.fetch_add(self.skips, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_common::{QueryId, QuerySet};
    use cjoin_storage::{Row, RowId, Value};

    /// Builds a dimension table named `name` at `slot`, reading the foreign key from
    /// fact column `fk_col`, with query 0 selecting the given keys and query 1 not
    /// referencing the dimension.
    fn dim(name: &str, slot: usize, fk_col: usize, selected_by_q0: &[i64]) -> Arc<DimensionTable> {
        let t = DimensionTable::new(name, slot, fk_col, 0, 8, &QuerySet::new(8));
        let rows: Vec<(i64, Row)> = selected_by_q0
            .iter()
            .map(|&k| {
                (
                    k,
                    Row::new(vec![Value::int(k), Value::str(format!("{name}-{k}"))]),
                )
            })
            .collect();
        t.register_query(QueryId(0), &rows);
        t.register_unreferencing_query(QueryId(1));
        Arc::new(t)
    }

    fn fact_tuple(fk1: i64, fk2: i64) -> InFlightTuple {
        InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(fk1), Value::int(fk2), Value::int(100)]),
            QuerySet::from_bits(8, [0, 1]),
            2,
        )
    }

    #[test]
    fn hit_keeps_selected_queries_and_attaches_row() {
        let d = dim("color", 0, 0, &[7]);
        let mut t = fact_tuple(7, 0);
        assert!(apply_filter(&d, &mut t, false, &mut Vec::new()));
        assert_eq!(t.bits.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(t.dims[0].is_some());
        assert_eq!(
            t.dims[0].as_ref().unwrap().get(1).as_str().unwrap(),
            "color-7"
        );
    }

    #[test]
    fn miss_keeps_only_unreferencing_queries() {
        let d = dim("color", 0, 0, &[7]);
        let mut t = fact_tuple(9, 0); // key 9 not selected by query 0
        assert!(apply_filter(&d, &mut t, false, &mut Vec::new()));
        assert_eq!(
            t.bits.iter().collect::<Vec<_>>(),
            vec![1],
            "only the ignoring query survives"
        );
        assert!(t.dims[0].is_none());
    }

    #[test]
    fn tuple_dropped_when_no_query_remains() {
        let d = DimensionTable::new("color", 0, 0, 0, 8, &QuerySet::new(8));
        d.register_query(QueryId(0), &[(7, Row::new(vec![Value::int(7)]))]);
        // Only query 0 is registered and it selects key 7 only.
        let mut t = InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(9)]),
            QuerySet::from_bits(8, [0]),
            1,
        );
        assert!(!apply_filter(&d, &mut t, false, &mut Vec::new()));
        assert!(t.bits.is_empty());
        assert_eq!(d.stats.tuples_dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn early_skip_avoids_probe_when_no_live_query_references_dimension() {
        let d = dim("color", 0, 0, &[7]);
        // Tuple only relevant to query 1, which ignores the dimension.
        let mut t = InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(9)]),
            QuerySet::from_bits(8, [1]),
            1,
        );
        assert!(apply_filter(&d, &mut t, true, &mut Vec::new()));
        let (_, _, probes, skips) = d.stats.snapshot();
        assert_eq!(probes, 0);
        assert_eq!(skips, 1);
        // Without early skip the probe happens but the outcome is identical.
        let mut t2 = InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(9)]),
            QuerySet::from_bits(8, [1]),
            1,
        );
        assert!(apply_filter(&d, &mut t2, false, &mut Vec::new()));
        assert_eq!(t2.bits.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn chain_processes_filters_in_sequence() {
        let d1 = dim("color", 0, 0, &[7]);
        let d2 = dim("size", 1, 1, &[3]);
        let chain = FilterChain::new();
        chain.push(Arc::clone(&d1));
        chain.push(Arc::clone(&d2));
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.order(), vec!["color", "size"]);

        for batched in [true, false] {
            let mut batch = Batch::from(vec![
                fact_tuple(7, 3), // joins both selected tuples: stays relevant to q0 and q1
                fact_tuple(7, 9), // second dimension miss: only q1 remains
                fact_tuple(9, 9), // both miss: only q1 remains
            ]);
            let dropped = FilterChain::process_batch(&chain.snapshot(), &mut batch, true, batched);
            assert_eq!(
                dropped, 0,
                "query 1 ignores both dimensions so nothing is dropped"
            );
            assert_eq!(batch[0].bits.iter().collect::<Vec<_>>(), vec![0, 1]);
            assert_eq!(batch[1].bits.iter().collect::<Vec<_>>(), vec![1]);
            assert_eq!(batch[2].bits.iter().collect::<Vec<_>>(), vec![1]);
            assert!(batch[0].dims[0].is_some() && batch[0].dims[1].is_some());
        }
    }

    #[test]
    fn chain_drops_tuples_relevant_to_no_query() {
        let d1 = DimensionTable::new("color", 0, 0, 0, 8, &QuerySet::new(8));
        d1.register_query(QueryId(0), &[(7, Row::new(vec![Value::int(7)]))]);
        let chain = FilterChain::new();
        chain.push(Arc::new(d1));
        for batched in [true, false] {
            let mut batch = Batch::from(vec![InFlightTuple::new(
                RowId(0),
                Row::new(vec![Value::int(9)]),
                QuerySet::from_bits(8, [0]),
                1,
            )]);
            let dropped = FilterChain::process_batch(&chain.snapshot(), &mut batch, true, batched);
            assert_eq!(dropped, 1);
            assert!(batch.is_empty());
            assert_eq!(batch.spare_tuples(), 1, "dropped tuple is kept as a spare");
        }
    }

    #[test]
    fn find_push_remove() {
        let chain = FilterChain::new();
        assert!(chain.is_empty());
        chain.push(dim("color", 0, 0, &[1]));
        chain.push(dim("size", 1, 1, &[1]));
        assert!(chain.find("color").is_some());
        assert!(chain.find("shape").is_none());
        assert!(chain.remove("color"));
        assert!(!chain.remove("color"));
        assert_eq!(chain.order(), vec!["size"]);
    }

    #[test]
    fn reorder_applies_permutation_and_keeps_unmentioned_filters() {
        let chain = FilterChain::new();
        chain.push(dim("a", 0, 0, &[1]));
        chain.push(dim("b", 1, 1, &[1]));
        chain.push(dim("c", 2, 2, &[1]));
        let changed = chain.reorder(&["c".into(), "a".into()]);
        assert!(changed);
        assert_eq!(chain.order(), vec!["c", "a", "b"]);
        // Unknown names are ignored.
        chain.reorder(&["zzz".into(), "b".into()]);
        assert_eq!(chain.order(), vec!["b", "c", "a"]);
    }

    #[test]
    fn filter_order_does_not_change_surviving_bits() {
        // The filtering invariant (§3.2.2) is order-independent; verify on a batch.
        let d1 = dim("color", 0, 0, &[7, 8]);
        let d2 = dim("size", 1, 1, &[3]);
        let make_batch = || -> Batch {
            Batch::from(vec![
                fact_tuple(7, 3),
                fact_tuple(8, 9),
                fact_tuple(1, 3),
                fact_tuple(2, 2),
            ])
        };
        for batched in [true, false] {
            let mut b1 = make_batch();
            FilterChain::process_batch(&[Arc::clone(&d1), Arc::clone(&d2)], &mut b1, true, batched);
            let mut b2 = make_batch();
            FilterChain::process_batch(&[Arc::clone(&d2), Arc::clone(&d1)], &mut b2, true, batched);
            let bits = |b: &Batch| -> Vec<Vec<usize>> {
                b.iter().map(|t| t.bits.iter().collect()).collect()
            };
            assert_eq!(bits(&b1), bits(&b2));
        }
    }

    #[test]
    fn dimension_churn_splits_tuples_instead_of_mixing_versions() {
        // Query 0 was admitted before an upsert changed key 7's attributes and
        // query 2 after it; query 1 ignores the dimension. A fact tuple joining
        // key 7 must reach downstream as per-version tuples: one carrying "old"
        // for queries 0 and 1, one carrying "new" for query 2 — never one tuple
        // with a mixed bit-set.
        let d = DimensionTable::new("color", 0, 0, 0, 8, &QuerySet::new(8));
        d.register_query(
            QueryId(0),
            &[(7, Row::new(vec![Value::int(7), Value::str("old")]))],
        );
        d.register_unreferencing_query(QueryId(1));
        d.register_query(
            QueryId(2),
            &[(7, Row::new(vec![Value::int(7), Value::str("new")]))],
        );
        let filters = [Arc::new(d)];
        for batched in [true, false] {
            for early_skip in [true, false] {
                let mut batch = Batch::from(vec![InFlightTuple::new(
                    RowId(0),
                    Row::new(vec![Value::int(7)]),
                    QuerySet::from_bits(8, [0, 1, 2]),
                    1,
                )]);
                let dropped = FilterChain::process_batch(&filters, &mut batch, early_skip, batched);
                assert_eq!(dropped, 0, "batched={batched}");
                assert_eq!(batch.len(), 2, "tuple split into one per version");
                let old = &batch[0];
                assert_eq!(old.bits.iter().collect::<Vec<_>>(), vec![0, 1]);
                assert_eq!(
                    old.dims[0].as_ref().unwrap().get(1).as_str().unwrap(),
                    "old"
                );
                let new = &batch[1];
                assert_eq!(new.bits.iter().collect::<Vec<_>>(), vec![2]);
                assert_eq!(
                    new.dims[0].as_ref().unwrap().get(1).as_str().unwrap(),
                    "new"
                );
            }
        }
    }

    #[test]
    fn single_version_path_is_unchanged_by_versioning() {
        // With exactly one version per key the split machinery must not engage:
        // no extra tuples, identical bits and stats to the pre-versioning path.
        let d = dim("color", 0, 0, &[7]);
        let mut batch = Batch::from(vec![fact_tuple(7, 0), fact_tuple(9, 0)]);
        let dropped = FilterChain::process_batch(&[Arc::clone(&d)], &mut batch, false, true);
        assert_eq!(dropped, 0);
        assert_eq!(batch.len(), 2, "no splits appeared");
        assert_eq!(d.stats.snapshot(), (2, 0, 2, 0));
    }

    #[test]
    fn batched_and_per_tuple_paths_agree_on_survivors_order_and_stats() {
        let make_dims = || (dim("color", 0, 0, &[7, 8]), dim("size", 1, 1, &[3]));
        let make_batch = || -> Batch {
            // Mix of hits, misses and tuples relevant only to the ignoring query.
            let mut tuples = vec![
                fact_tuple(7, 3),
                fact_tuple(8, 9),
                fact_tuple(1, 3),
                fact_tuple(2, 2),
                fact_tuple(8, 3),
            ];
            tuples.push(InFlightTuple::new(
                RowId(9),
                Row::new(vec![Value::int(1), Value::int(1), Value::int(0)]),
                QuerySet::from_bits(8, [0]),
                2,
            ));
            Batch::from(tuples)
        };
        let fingerprint = |b: &Batch| -> Vec<(u64, Vec<usize>, Vec<bool>)> {
            b.iter()
                .map(|t| {
                    (
                        t.row_id.0,
                        t.bits.iter().collect(),
                        t.dims.iter().map(Option::is_some).collect(),
                    )
                })
                .collect()
        };
        for early_skip in [true, false] {
            // Fresh dimension tables per arm so the statistics are comparable.
            let (b1_d1, b1_d2) = make_dims();
            let mut b1 = make_batch();
            let dropped1 = FilterChain::process_batch(
                &[Arc::clone(&b1_d1), Arc::clone(&b1_d2)],
                &mut b1,
                early_skip,
                true,
            );
            let (b2_d1, b2_d2) = make_dims();
            let mut b2 = make_batch();
            let dropped2 = FilterChain::process_batch(
                &[Arc::clone(&b2_d1), Arc::clone(&b2_d2)],
                &mut b2,
                early_skip,
                false,
            );
            assert_eq!(dropped1, dropped2, "early_skip={early_skip}");
            assert_eq!(
                fingerprint(&b1),
                fingerprint(&b2),
                "survivors, their order, bits and attached dims must match"
            );
            assert_eq!(
                b1_d1.stats.snapshot(),
                b2_d1.stats.snapshot(),
                "batch-local stats flush to identical totals (filter 1)"
            );
            assert_eq!(
                b1_d2.stats.snapshot(),
                b2_d2.stats.snapshot(),
                "batch-local stats flush to identical totals (filter 2)"
            );
        }
    }
}
