//! Dimension hash tables (§3.2.1).
//!
//! Each dimension table `Dj` referenced by at least one in-flight query is mapped to
//! a [`DimensionTable`]: a hash table keyed by the dimension's primary key that
//! stores the **union** of the dimension tuples selected by any live query. The
//! table keeps one complement bitmap `bDj` (`bDj[i] = 1` iff query `i` does **not**
//! reference `Dj`) — the bit-vector implicitly associated with every dimension
//! tuple *not* present in the hash table.
//!
//! ## Selecting queries only
//!
//! The paper's stored tuple carries `bδ` with `bδ[i] = 1` iff query `i` selects the
//! tuple **or** does not reference `Dj` at all. Here a stored entry's
//! [`DimEntry::bits`] holds only the first half — the queries whose `σ_cij(Dj)`
//! selected it — and the second half is `bDj` itself, so the paper's vector is
//! `bits | bDj`. The two encodings agree bit for bit on every query that has one:
//! a selecting query is in `bits` and never in `bDj`, an ignoring query is in `bDj`
//! and never in `bits`. The Filter (§3.2.2) therefore probes by foreign key and, on
//! a hit, ANDs the fact tuple's bit-vector with `bits | bDj`; on a miss, with `bDj`
//! — one more load of the complement word the early skip already reads.
//!
//! What the encoding buys is on the Pipeline Manager's side:
//!
//! - Algorithm 1 line 10 ([`DimensionTable::register_unreferencing_query`]) is one
//!   atomic bit set on `bDj`, where the paper walks every stored tuple.
//! - Algorithm 1 lines 11–16 ([`DimensionTable::register_query`]) touch the
//!   query's selected rows, and record their keys under the query's id.
//! - Algorithm 2 ([`DimensionTable::unregister_query`]) clears the id's bit on
//!   exactly those keys: O(selected rows), O(1) for a query that ignores `Dj`.
//! - An entry dies with its last *selecting* query, so the table holds the union
//!   of the live selections and no more. Under the paper's vector some ignoring
//!   query is nearly always live, and its bit kept every tuple ever selected.
//!   The only observable difference is that a key no live query selects now
//!   misses instead of hitting a stale entry: the ignoring queries keep the
//!   tuple either way, and they never read the row a hit would have attached.
//!
//! ## Snapshot-versioned entries (PR 10)
//!
//! Under durable ingestion a dimension row can be *upserted* while live queries
//! reference its old contents. Each key therefore maps to a small vector of
//! **content versions**: when a newly admitted query's snapshot selects a row whose
//! attribute values differ from every stored version of that key, a new version is
//! appended rather than overwriting — so a query admitted before the upsert keeps
//! joining against exactly the attribute values its snapshot selected, and a query
//! admitted after it sees only the new ones. A query's bit appears on **at most one
//! version per key** (the content its snapshot's `σ_cij(Dj)` returned); `bDj` is
//! ORed into every version, so the queries that do not reference the dimension
//! accept each one, which is harmless because they never read the attached row.
//! The single-version case — by far the common one — takes the exact
//! pre-versioning hot path; the multi-version combine is in
//! [`FilterChain::process_batch`](crate::filter::FilterChain::process_batch).
//!
//! Concurrency: entries are inserted/removed only by the Pipeline Manager (query
//! admission and finalization, Algorithms 1 and 2) under a write lock, while Filter
//! workers probe under a read lock taken **once per batch per filter** via
//! [`DimensionTable::probe_batch`], which returns a [`ProbeGuard`]. The guard hands
//! out *borrowed* `&DimEntry` references — no per-tuple `Arc` clone on the probe
//! path — and its lifetime bounds every borrow, so an entry can never be observed
//! after Algorithm 2 garbage-collects it: removal requires the write lock, which
//! cannot be acquired while any guard is alive. Bit flips on existing entries and on
//! the complement bitmap are atomic and require no lock, mirroring the paper's
//! argument that concurrent bit updates are safe because a query's bit only appears
//! in fact-tuple bit-vectors after the query is installed in the Preprocessor
//! (§3.3.1). That argument is also why `register_unreferencing_query` can be a
//! single `bDj` bit: the install follows the bit set, so every probe of a tuple
//! carrying the new query's bit ORs in a `bDj` that already holds it. At clean-up
//! the query's end tuple has reached every shard behind all of its data, so no
//! tuple carries the bit while Algorithm 2 clears it, and the id is recycled only
//! afterwards.
//! Holding the read lock across a batch does not change Algorithm 1/2 semantics:
//! admission's and clean-up's writes simply serialize at batch boundaries instead of
//! tuple boundaries, and a Filter already applies one point-in-time table state to
//! each tuple it processes. (The per-tuple [`DimensionTable::probe`] is kept for
//! the per-tuple reference path of
//! [`FilterChain::process_batch`](crate::filter::FilterChain::process_batch).)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use cjoin_common::{AtomicQuerySet, FxHashMap, QueryId, QuerySet};
use cjoin_storage::{ColumnId, Row};

/// One stored dimension tuple with its query bit-vector.
#[derive(Debug)]
pub struct DimEntry {
    /// The dimension row (shared with in-flight fact tuples that join with it).
    pub row: Row,
    /// The queries whose `σ_cij(Dj)` selected this version. The paper's `bδ`,
    /// which also holds every query that ignores the dimension, is `bits | bDj`
    /// (see the module docs); [`DimensionTable::entry_bits`] returns it.
    pub bits: AtomicQuerySet,
}

/// What the entries lock guards: the content versions per key, oldest first,
/// and per query id the keys it selected, so that Algorithm 2 visits only those.
#[derive(Debug)]
struct Entries {
    /// A key's vector is never empty while stored.
    by_key: FxHashMap<i64, Vec<Arc<DimEntry>>>,
    /// Indexed by query id; empty for an id that selected nothing here.
    keys_of: Vec<Vec<i64>>,
}

/// Statistics of one Filter, used for run-time ordering (§3.4) and the experiments.
#[derive(Debug, Default)]
pub struct FilterStats {
    /// Fact tuples that entered this Filter with a non-zero bit-vector.
    pub tuples_in: AtomicU64,
    /// Fact tuples whose bit-vector became zero at this Filter (dropped).
    pub tuples_dropped: AtomicU64,
    /// Hash-table probes actually performed.
    pub probes: AtomicU64,
    /// Probes avoided by the early-skip optimisation.
    pub skips: AtomicU64,
}

impl FilterStats {
    /// Observed drop rate (dropped / in); 0 when no tuple has been seen.
    pub fn drop_rate(&self) -> f64 {
        let tuples_in = self.tuples_in.load(Ordering::Relaxed);
        if tuples_in == 0 {
            0.0
        } else {
            self.tuples_dropped.load(Ordering::Relaxed) as f64 / tuples_in as f64
        }
    }

    /// Snapshot of (in, dropped, probes, skips).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.tuples_in.load(Ordering::Relaxed),
            self.tuples_dropped.load(Ordering::Relaxed),
            self.probes.load(Ordering::Relaxed),
            self.skips.load(Ordering::Relaxed),
        )
    }

    /// Resets all counters (done after each reordering decision so the order tracks
    /// the current query mix rather than the whole history).
    pub fn reset(&self) {
        self.tuples_in.store(0, Ordering::Relaxed);
        self.tuples_dropped.store(0, Ordering::Relaxed);
        self.probes.store(0, Ordering::Relaxed);
        self.skips.store(0, Ordering::Relaxed);
    }
}

/// The shared hash table for one dimension table.
#[derive(Debug)]
pub struct DimensionTable {
    /// Name of the dimension table this filter covers.
    pub name: String,
    /// Dimension slot index: position in the in-flight tuple's `dims` vector where
    /// this filter attaches the joining dimension row.
    pub slot: usize,
    /// Fact-table column holding the foreign key into this dimension.
    pub fact_fk_column: ColumnId,
    /// Dimension column holding the primary key.
    pub dim_key_column: ColumnId,
    /// `bDj`: queries that do **not** reference this dimension.
    pub complement: AtomicQuerySet,
    /// Queries that **reference** this dimension (joined it at admission). Kept in
    /// addition to the complement because a referencing query whose predicate selects
    /// zero dimension rows leaves no trace in `entries` — yet its Filter must stay in
    /// the pipeline to clear the query's bit from every fact tuple.
    referencing: AtomicQuerySet,
    /// Content versions per key (see the module docs on snapshot versioning) and
    /// each query's selected keys.
    entries: RwLock<Entries>,
    /// Per-filter statistics.
    pub stats: FilterStats,
    max_concurrency: usize,
}

impl DimensionTable {
    /// Creates an empty dimension hash table.
    ///
    /// `initial_complement` must be the set of currently registered queries — none of
    /// them references this dimension (otherwise the table would already exist), so
    /// they all get a 1 in `bDj`.
    pub fn new(
        name: impl Into<String>,
        slot: usize,
        fact_fk_column: ColumnId,
        dim_key_column: ColumnId,
        max_concurrency: usize,
        initial_complement: &QuerySet,
    ) -> Self {
        let complement = AtomicQuerySet::new(max_concurrency);
        complement.store_from(initial_complement);
        Self {
            name: name.into(),
            slot,
            fact_fk_column,
            dim_key_column,
            complement,
            referencing: AtomicQuerySet::new(max_concurrency),
            entries: RwLock::new(Entries {
                by_key: FxHashMap::default(),
                keys_of: vec![Vec::new(); max_concurrency],
            }),
            stats: FilterStats::default(),
            max_concurrency,
        }
    }

    /// The `maxConc` this table was created for.
    pub fn max_concurrency(&self) -> usize {
        self.max_concurrency
    }

    /// Number of stored dimension tuples: the keys some live query selects.
    pub fn len(&self) -> usize {
        self.entries.read().by_key.len()
    }

    /// Whether no dimension tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.read().by_key.is_empty()
    }

    // ------------------------------------------------------------------
    // Admission / finalization (Pipeline Manager side)
    // ------------------------------------------------------------------

    /// Registers that query `id` **references** this dimension and selects `rows`
    /// (the result of `σ_cij(Dj)`, Algorithm 1 lines 11–16).
    ///
    /// `rows` were selected at the query's snapshot: if a stored version of a key
    /// carries identical contents the query shares it, otherwise a new content
    /// version is appended (the key was upserted between the two queries'
    /// snapshots) — never overwritten, so concurrent queries each keep joining
    /// against the attribute values their own snapshot selected.
    ///
    /// A new version's bits start at `{id}`: the queries that ignore this
    /// dimension accept it through `bDj`, which the probe ORs in. The selected
    /// keys are recorded under `id` for [`DimensionTable::unregister_query`].
    pub fn register_query(&self, id: QueryId, rows: &[(i64, Row)]) {
        // The query references Dj, so it must not be in the complement bitmap.
        self.complement.unset(id.index());
        self.referencing.set(id.index());
        let mut entries = self.entries.write();
        let Entries { by_key, keys_of } = &mut *entries;
        let keys = &mut keys_of[id.index()];
        for (key, row) in rows {
            let versions = by_key.entry(*key).or_default();
            match versions.iter().find(|v| v.row == *row) {
                Some(version) => version.bits.set(id.index()),
                None => {
                    let bits = AtomicQuerySet::new(self.max_concurrency);
                    bits.set(id.index());
                    versions.push(Arc::new(DimEntry {
                        row: row.clone(),
                        bits,
                    }));
                }
            }
            keys.push(*key);
        }
    }

    /// Registers that query `id` does **not** reference this dimension
    /// (Algorithm 1 line 10): every tuple of `Dj` is implicitly acceptable to it.
    /// That is one bit of `bDj`, which the probe ORs into every stored version.
    pub fn register_unreferencing_query(&self, id: QueryId) {
        self.complement.set(id.index());
    }

    /// Removes query `id` from this dimension table (Algorithm 2). Returns `true`
    /// if the Filter can be removed from the pipeline: no stored entries *and* no
    /// live query references the dimension. The second condition matters when a
    /// referencing query's predicate selected zero dimension rows — its hash-table
    /// footprint is empty but its Filter must keep clearing the query's bit from
    /// fact tuples until the query finishes.
    ///
    /// The id's bit is cleared on the versions of the keys it selected only, and
    /// versions — and keys — left with no bits are garbage-collected: O(selected
    /// rows), and O(1) for a query that ignored the dimension. The keys are walked
    /// whatever `referenced` says, so a wrong flag cannot leave a stale bit for the
    /// next query that reuses the id.
    ///
    /// The freed id's bit is also cleared from the complement bitmap, so a later
    /// query reusing the id starts from a clean slate. (The paper's Algorithm 2
    /// sets `bDj[n] = 1` instead, treating a freed id as "does not reference"; the
    /// all-zero convention is equivalent while the id is unused, because no fact
    /// tuple carries the bit, and needs nothing undone at reuse.)
    pub fn unregister_query(&self, id: QueryId, referenced: bool) -> bool {
        self.complement.unset(id.index());
        if referenced {
            self.referencing.unset(id.index());
        }
        let mut entries = self.entries.write();
        let Entries { by_key, keys_of } = &mut *entries;
        for key in std::mem::take(&mut keys_of[id.index()]) {
            let Some(versions) = by_key.get_mut(&key) else {
                continue;
            };
            versions.retain(|entry| {
                entry.bits.unset(id.index());
                !entry.bits.is_empty()
            });
            if versions.is_empty() {
                by_key.remove(&key);
            }
        }
        by_key.is_empty() && self.referencing.is_empty()
    }

    /// Number of live queries that reference this dimension (diagnostics/tests).
    pub fn referencing_queries(&self) -> usize {
        self.referencing.count()
    }

    // ------------------------------------------------------------------
    // Probe (Filter worker side)
    // ------------------------------------------------------------------

    /// Probes the table for `key` and returns the matching entry, if present.
    ///
    /// This is the **per-tuple** probe: it takes the entries read lock and clones an
    /// `Arc` for every call. The batched hot path uses
    /// [`DimensionTable::probe_batch`] instead, which amortises the lock over a whole
    /// batch and borrows entries without cloning; this method remains as the
    /// per-tuple reference path and for point lookups in tests.
    ///
    /// The caller combines the fact tuple's bit-vector with the entry's `bits |
    /// bDj` (hit) or with [`DimensionTable::complement`] (miss) — see
    /// [`FilterChain::process_batch`](crate::filter::FilterChain::process_batch).
    ///
    /// Returns the **newest** content version of the key; point lookups that must
    /// see all versions use [`DimensionTable::probe_versions`].
    #[inline]
    pub fn probe(&self, key: i64) -> Option<Arc<DimEntry>> {
        self.entries
            .read()
            .by_key
            .get(&key)
            .and_then(|v| v.last().cloned())
    }

    /// Returns every stored content version of `key`, oldest first (empty on a
    /// miss). The per-tuple filter baseline uses this; the batched hot path
    /// borrows the versions through [`DimensionTable::probe_batch`] instead.
    #[inline]
    pub fn probe_versions(&self, key: i64) -> Vec<Arc<DimEntry>> {
        self.entries
            .read()
            .by_key
            .get(&key)
            .cloned()
            .unwrap_or_default()
    }

    /// Number of stored content versions for `key` (diagnostics / tests).
    pub fn version_count(&self, key: i64) -> usize {
        self.entries.read().by_key.get(&key).map_or(0, Vec::len)
    }

    /// Acquires the entries read lock **once** and returns a [`ProbeGuard`] for
    /// probing an entire batch of fact tuples against this table.
    ///
    /// While the guard is alive the Pipeline Manager's structural mutations
    /// (`register_query` inserts, `unregister_query` garbage collection) block on
    /// the write lock — they proceed between batches, exactly the granularity the
    /// paper's batch-amortised synchronisation argument (§4) calls for. Atomic bit
    /// flips on entries and on the complement bitmap are *not* blocked, so
    /// `register_unreferencing_query` and admission-time bit updates still interleave
    /// with probes, preserving Algorithm 1/2 semantics.
    #[inline]
    pub fn probe_batch(&self) -> ProbeGuard<'_> {
        ProbeGuard {
            entries: self.entries.read(),
        }
    }

    /// Returns a point-in-time snapshot of the newest version's effective
    /// bit-vector, the paper's `bδ`: its selecting queries plus `bDj` (test
    /// helper).
    pub fn entry_bits(&self, key: i64) -> Option<QuerySet> {
        let mut bits = self
            .entries
            .read()
            .by_key
            .get(&key)?
            .last()?
            .bits
            .snapshot();
        bits.or_assign(&self.complement.snapshot());
        Some(bits)
    }
}

/// A read guard over a dimension table's entries, held for the duration of one
/// batch-probe pass (see [`DimensionTable::probe_batch`]).
///
/// Lookups return `&DimEntry` borrows bounded by the guard's lifetime instead of
/// cloning the entry `Arc` per tuple — the per-probe cost is one hash lookup, with
/// zero reference-count traffic and zero lock operations.
pub struct ProbeGuard<'a> {
    entries: RwLockReadGuard<'a, Entries>,
}

impl ProbeGuard<'_> {
    /// Looks up the content versions stored for `key`, oldest first, without
    /// cloning. The slice is non-empty on a hit; in the overwhelmingly common
    /// single-version case it has length 1.
    #[inline]
    pub fn get(&self, key: i64) -> Option<&[Arc<DimEntry>]> {
        self.entries.by_key.get(&key).map(Vec::as_slice)
    }

    /// Number of stored entries visible to this guard.
    pub fn len(&self) -> usize {
        self.entries.by_key.len()
    }

    /// Whether the guarded table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.by_key.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_storage::Value;
    use std::collections::{BTreeMap, BTreeSet};

    fn row(key: i64, name: &str) -> Row {
        Row::new(vec![Value::int(key), Value::str(name)])
    }

    fn table_with_no_queries() -> DimensionTable {
        DimensionTable::new("color", 0, 1, 0, 8, &QuerySet::new(8))
    }

    /// The paper's `bδ` of one stored version: its selecting queries plus `bDj`.
    fn effective(t: &DimensionTable, entry: &DimEntry) -> Vec<usize> {
        let mut bits = entry.bits.snapshot();
        bits.or_assign(&t.complement.snapshot());
        bits.iter().collect()
    }

    #[test]
    fn register_query_inserts_selected_rows() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red")), (2, row(2, "green"))]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(t.entry_bits(1).unwrap().get(0));
        assert!(!t.entry_bits(1).unwrap().get(1));
        assert!(t.probe(3).is_none());
        assert!(
            !t.complement.get(0),
            "registering query references the dimension"
        );
    }

    #[test]
    fn second_query_shares_existing_entries() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red")), (2, row(2, "green"))]);
        t.register_query(QueryId(1), &[(2, row(2, "green")), (3, row(3, "blue"))]);
        assert_eq!(t.len(), 3, "union of both selections");
        let bits2 = t.entry_bits(2).unwrap();
        assert!(
            bits2.get(0) && bits2.get(1),
            "tuple 2 selected by both queries"
        );
        let bits1 = t.entry_bits(1).unwrap();
        assert!(bits1.get(0) && !bits1.get(1));
        let bits3 = t.entry_bits(3).unwrap();
        assert!(!bits3.get(0) && bits3.get(1));
    }

    #[test]
    fn unreferencing_query_accepts_all_tuples() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.register_unreferencing_query(QueryId(1));
        assert!(t.complement.get(1));
        assert!(!t.complement.get(0));
        // The existing entry's effective bits carry query 1's bit through bDj.
        let bits = t.entry_bits(1).unwrap();
        assert!(bits.get(0) && bits.get(1));
        // So do entries inserted later.
        t.register_query(QueryId(2), &[(5, row(5, "cyan"))]);
        let bits5 = t.entry_bits(5).unwrap();
        assert!(
            bits5.get(1),
            "query 1 ignores the dimension, accepts tuple 5"
        );
        assert!(bits5.get(2));
        assert!(
            !bits5.get(0),
            "query 0 references the dimension but did not select tuple 5"
        );
    }

    #[test]
    fn new_entry_bits_follow_paper_initialisation() {
        // Paper: bδ ← bDj; bδ[n] ← 1. The effective bits are the same vector.
        let t = table_with_no_queries();
        t.register_unreferencing_query(QueryId(3));
        t.register_query(QueryId(4), &[(9, row(9, "x"))]);
        let bits = t.entry_bits(9).unwrap();
        assert_eq!(bits.iter().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn unregister_referenced_query_garbage_collects() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red")), (2, row(2, "green"))]);
        t.register_query(QueryId(1), &[(2, row(2, "green"))]);
        let empty = t.unregister_query(QueryId(0), true);
        assert!(!empty);
        assert_eq!(
            t.len(),
            1,
            "tuple 1 had only query 0's bit and is collected"
        );
        assert!(t.probe(1).is_none());
        assert!(t.probe(2).is_some());
        assert!(!t.complement.get(0), "freed ids are cleared everywhere");

        let empty = t.unregister_query(QueryId(1), true);
        assert!(empty);
        assert!(t.is_empty());
    }

    #[test]
    fn an_entry_dies_with_its_last_selecting_query() {
        // Query 1 ignores the dimension. Under the paper's layout its bit kept
        // key 1 stored after query 0, the only query selecting it, finished.
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.register_unreferencing_query(QueryId(1));
        assert!(
            t.unregister_query(QueryId(0), true),
            "no live query references the dimension, so its Filter can go"
        );
        assert_eq!(t.len(), 0, "no live query selects key 1");
        assert!(t.probe(1).is_none());
        assert!(t.probe_batch().get(1).is_none(), "a probe of key 1 misses");
        assert!(t.complement.get(1), "query 1 still accepts every tuple");
    }

    #[test]
    fn unregister_unreferencing_query_clears_its_bits() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.register_unreferencing_query(QueryId(1));
        assert!(t.entry_bits(1).unwrap().get(1));
        t.unregister_query(QueryId(1), false);
        assert!(!t.entry_bits(1).unwrap().get(1));
        assert!(
            !t.complement.get(1),
            "freed ids are cleared from the complement too"
        );
        assert_eq!(t.len(), 1, "entry still selected by query 0");
    }

    #[test]
    fn id_reuse_does_not_inherit_stale_bits() {
        // Regression: query 0 finishes, another query inserts new entries while id 0
        // is free, then a new query reuses id 0 and references the dimension. The
        // interim entries must NOT carry bit 0.
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.unregister_query(QueryId(0), true);
        // Interim admission by another query while id 0 is unused.
        t.register_query(QueryId(1), &[(2, row(2, "green"))]);
        assert!(
            !t.entry_bits(2).unwrap().get(0),
            "free id must not appear on new entries"
        );
        // Id 0 is reused by a query selecting only key 3.
        t.register_query(QueryId(0), &[(3, row(3, "blue"))]);
        assert!(
            !t.entry_bits(2).unwrap().get(0),
            "reused id must not select unrelated entries"
        );
        assert!(t.entry_bits(3).unwrap().get(0));
    }

    #[test]
    fn empty_selection_keeps_the_filter_alive() {
        // Regression: query 1's predicate selects zero dimension rows. When query 0
        // (whose entries were the table's whole content) finishes first, the table's
        // hash map empties — but the Filter must NOT become removable, or query 1's
        // bit would never be cleared from fact tuples and its result would contain
        // rows instead of being empty.
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.register_query(QueryId(1), &[]); // predicate matched nothing
        assert_eq!(t.referencing_queries(), 2);
        let removable = t.unregister_query(QueryId(0), true);
        assert!(!removable, "query 1 still references the dimension");
        assert!(t.is_empty(), "hash table itself is empty");
        // Probing any key misses and the complement lacks bit 1, so the Filter
        // clears query 1's bit — exactly why it has to stay.
        assert!(t.probe(1).is_none());
        assert!(!t.complement.get(1));
        let removable = t.unregister_query(QueryId(1), true);
        assert!(removable, "last referencing query gone");
    }

    #[test]
    fn probe_returns_shared_entry() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        let a = t.probe(1).unwrap();
        let b = t.probe(1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.row.get(1).as_str().unwrap(), "red");
    }

    #[test]
    fn probe_batch_borrows_entries_without_cloning() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red")), (2, row(2, "green"))]);
        let guard = t.probe_batch();
        assert_eq!(guard.len(), 2);
        assert!(!guard.is_empty());
        let a = &guard.get(1).unwrap()[0];
        let b = &guard.get(1).unwrap()[0];
        assert!(Arc::ptr_eq(a, b), "borrows of the same entry alias");
        assert_eq!(a.row.get(1).as_str().unwrap(), "red");
        assert!(guard.get(99).is_none());
        // Atomic bit updates are visible through the guard (no lock needed for
        // them): the ignoring query joins the entry through bDj.
        t.register_unreferencing_query(QueryId(3));
        let entry = &guard.get(2).unwrap()[0];
        assert_eq!(effective(&t, entry), vec![0, 3]);
        assert!(
            !entry.bits.get(3),
            "the entry stores its selecting queries only"
        );
    }

    #[test]
    fn probe_batch_guard_blocks_structural_writes_until_dropped() {
        use std::sync::Arc as StdArc;
        let t = StdArc::new(table_with_no_queries());
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        let guard = t.probe_batch();
        let writer = {
            let t = StdArc::clone(&t);
            std::thread::spawn(move || {
                // Blocks until the guard is dropped, then garbage-collects entry 1.
                t.unregister_query(QueryId(0), true)
            })
        };
        // The entry stays valid for the whole guard lifetime even though a removal
        // is pending on the write lock.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(guard.get(1).unwrap()[0].row.get(0).as_int().unwrap(), 1);
        drop(guard);
        assert!(
            writer.join().unwrap(),
            "table empties once the guard is gone"
        );
        assert!(t.probe_batch().is_empty());
    }

    #[test]
    fn changed_contents_create_a_second_version_instead_of_mixing() {
        // Regression for the PR 10 dimension-churn hazard: query 0 is admitted,
        // the row's attributes are upserted, then query 2 is admitted selecting
        // the NEW contents. Query 0 must keep joining against "red", query 2
        // against "crimson" — never a mix.
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.register_unreferencing_query(QueryId(1));
        t.register_query(QueryId(2), &[(1, row(1, "crimson"))]);
        assert_eq!(t.len(), 1, "one key");
        assert_eq!(t.version_count(1), 2, "two content versions");
        let guard = t.probe_batch();
        let versions = guard.get(1).unwrap();
        // Each version's effective bits hold its own selecting query plus the
        // ignoring query 1, which accepts every version through bDj.
        assert_eq!(versions[0].row.get(1).as_str().unwrap(), "red");
        assert_eq!(effective(&t, &versions[0]), vec![0, 1]);
        assert_eq!(versions[1].row.get(1).as_str().unwrap(), "crimson");
        assert_eq!(effective(&t, &versions[1]), vec![1, 2]);
        drop(guard);
        // probe() returns the newest version.
        assert_eq!(t.probe(1).unwrap().row.get(1).as_str().unwrap(), "crimson");
    }

    #[test]
    fn identical_contents_share_a_version_across_queries() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.register_query(QueryId(2), &[(1, row(1, "red"))]);
        assert_eq!(t.version_count(1), 1, "same contents, shared version");
        let bits = t.entry_bits(1).unwrap();
        assert!(bits.get(0) && bits.get(2));
    }

    #[test]
    fn stale_versions_are_garbage_collected_with_their_last_query() {
        let t = table_with_no_queries();
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        t.register_query(QueryId(2), &[(1, row(1, "crimson"))]);
        assert_eq!(t.version_count(1), 2);
        assert!(!t.unregister_query(QueryId(0), true));
        assert_eq!(t.version_count(1), 1, "old version collected with query 0");
        assert_eq!(t.probe(1).unwrap().row.get(1).as_str().unwrap(), "crimson");
        assert!(t.unregister_query(QueryId(2), true));
        assert!(t.is_empty());
    }

    #[test]
    fn filter_stats_drop_rate_and_reset() {
        let s = FilterStats::default();
        assert_eq!(s.drop_rate(), 0.0);
        s.tuples_in.store(100, Ordering::Relaxed);
        s.tuples_dropped.store(25, Ordering::Relaxed);
        s.probes.store(80, Ordering::Relaxed);
        s.skips.store(20, Ordering::Relaxed);
        assert!((s.drop_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.snapshot(), (100, 25, 80, 20));
        s.reset();
        assert_eq!(s.snapshot(), (0, 0, 0, 0));
    }

    #[test]
    fn metadata_accessors() {
        let t = DimensionTable::new("part", 3, 5, 0, 16, &QuerySet::from_bits(16, [2]));
        assert_eq!(t.name, "part");
        assert_eq!(t.slot, 3);
        assert_eq!(t.fact_fk_column, 5);
        assert_eq!(t.dim_key_column, 0);
        assert_eq!(t.max_concurrency(), 16);
        assert!(
            t.complement.get(2),
            "pre-existing query 2 does not reference 'part'"
        );
    }

    #[test]
    fn concurrent_probes_and_registrations() {
        use std::sync::Arc as StdArc;
        let t = StdArc::new(table_with_no_queries());
        t.register_query(QueryId(0), &[(1, row(1, "red"))]);
        let probers: Vec<_> = (0..4)
            .map(|_| {
                let t = StdArc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let _ = t.probe(1);
                        let _ = t.probe(999);
                    }
                })
            })
            .collect();
        let writer = {
            let t = StdArc::clone(&t);
            std::thread::spawn(move || {
                for i in 1..5u32 {
                    t.register_query(
                        QueryId(i),
                        &[(i64::from(i) + 10, row(i64::from(i) + 10, "x"))],
                    );
                }
            })
        };
        for p in probers {
            p.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(t.len(), 5);
    }

    /// What a query id is doing in [`PaperModel`].
    #[derive(Clone)]
    enum Live {
        Free,
        Ignoring,
        /// Selecting these `(key, content)` rows.
        Selecting(Vec<(i64, i64)>),
    }

    /// The paper's §3.2.1 layout, kept plainly: every stored version's `bδ` holds
    /// its selecting queries *and* every query that ignores the dimension.
    struct PaperModel {
        complement: BTreeSet<usize>,
        /// Per key, `(content, bδ)` oldest first.
        versions: BTreeMap<i64, Vec<(i64, BTreeSet<usize>)>>,
        live: Vec<Live>,
    }

    impl PaperModel {
        fn register(&mut self, id: usize, rows: &[(i64, i64)]) {
            self.complement.remove(&id);
            for &(key, content) in rows {
                let versions = self.versions.entry(key).or_default();
                match versions.iter_mut().find(|(c, _)| *c == content) {
                    Some((_, bits)) => {
                        bits.insert(id);
                    }
                    None => {
                        let mut bits = self.complement.clone();
                        bits.insert(id);
                        versions.push((content, bits));
                    }
                }
            }
            self.live[id] = Live::Selecting(rows.to_vec());
        }

        fn register_unreferencing(&mut self, id: usize) {
            self.complement.insert(id);
            for (_, bits) in self.versions.values_mut().flatten() {
                bits.insert(id);
            }
            self.live[id] = Live::Ignoring;
        }

        /// Algorithm 2. Returns whether the Filter can go: no live query
        /// references the dimension, so whatever the table still stores carries
        /// `bDj` and nothing else.
        fn unregister(&mut self, id: usize) -> bool {
            self.complement.remove(&id);
            self.versions.retain(|_, versions| {
                versions.retain_mut(|(_, bits)| {
                    bits.remove(&id);
                    !bits.is_empty()
                });
                !versions.is_empty()
            });
            self.live[id] = Live::Free;
            !self.live.iter().any(|q| matches!(q, Live::Selecting(_)))
        }

        /// Checks `t` against the model: every version some live query selects
        /// is stored with the model's `bδ` as its effective bits, in any order
        /// (a version only ignoring queries kept is collected by `t`, so one
        /// re-selected later is appended), and nothing else is stored.
        fn check(&self, t: &DimensionTable, keys: i64, at: (u64, usize)) {
            let guard = t.probe_batch();
            let complement = t.complement.snapshot();
            for key in 0..keys {
                let mut got: Vec<(i64, Vec<usize>)> = guard
                    .get(key)
                    .unwrap_or_default()
                    .iter()
                    .map(|v| {
                        let mut bits = v.bits.snapshot();
                        bits.or_assign(&complement);
                        (v.row.get(1).as_int().unwrap(), bits.iter().collect())
                    })
                    .collect();
                got.sort();
                let mut want: Vec<(i64, Vec<usize>)> = self
                    .versions
                    .get(&key)
                    .into_iter()
                    .flatten()
                    .filter(|(_, bits)| !bits.is_subset(&self.complement))
                    .map(|(content, bits)| (*content, bits.iter().copied().collect()))
                    .collect();
                want.sort();
                assert_eq!(got, want, "(seed, step) {at:?}: key {key}");
            }
            let selected: BTreeSet<i64> = self
                .live
                .iter()
                .filter_map(|q| match q {
                    Live::Selecting(rows) => Some(rows.iter().map(|&(key, _)| key)),
                    _ => None,
                })
                .flatten()
                .collect();
            drop(guard);
            assert_eq!(t.len(), selected.len(), "(seed, step) {at:?}: stored keys");
        }
    }

    #[test]
    fn effective_bits_match_the_papers_layout_under_random_churn() {
        const MAXC: usize = 16;
        const KEYS: i64 = 12;
        for seed in 0..20u64 {
            let mut rng = 0x5E1E_C7ED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = |n: u64| cjoin_common::splitmix64(&mut rng) % n;
            let t = DimensionTable::new("d", 0, 0, 0, MAXC, &QuerySet::new(MAXC));
            let mut m = PaperModel {
                complement: BTreeSet::new(),
                versions: BTreeMap::new(),
                live: vec![Live::Free; MAXC],
            };
            for step in 0..5_000 {
                let id = draw(MAXC as u64) as usize;
                let qid = QueryId(id as u32);
                let at = (seed, step);
                let referenced = matches!(m.live[id], Live::Selecting(_));
                match m.live[id] {
                    Live::Ignoring | Live::Selecting(_) => {
                        let removable = t.unregister_query(qid, referenced);
                        assert_eq!(removable, m.unregister(id), "(seed, step) {at:?}");
                    }
                    // Admission's roll-back unregisters ids a table never saw.
                    Live::Free if draw(20) == 0 => {
                        let removable = t.unregister_query(qid, false);
                        assert_eq!(removable, m.unregister(id), "(seed, step) {at:?}");
                    }
                    Live::Free if draw(3) == 0 => {
                        t.register_unreferencing_query(qid);
                        m.register_unreferencing(id);
                    }
                    Live::Free => {
                        // Mostly the current contents; now and then an upserted
                        // one, so that keys collect several versions.
                        let mut rows: Vec<(i64, i64)> = Vec::new();
                        for key in 0..KEYS {
                            if draw(3) == 0 {
                                let content = if draw(5) == 0 { 1 + draw(3) } else { 0 };
                                rows.push((key, content as i64));
                            }
                        }
                        let dim_rows: Vec<(i64, Row)> = rows
                            .iter()
                            .map(|&(key, c)| (key, Row::new(vec![Value::int(key), Value::int(c)])))
                            .collect();
                        t.register_query(qid, &dim_rows);
                        m.register(id, &rows);
                    }
                }
                m.check(&t, KEYS, at);
            }
        }
    }
}
