//! In-memory paged row store.
//!
//! Rows live in insertion order, grouped into logical pages of
//! [`Table::rows_per_page`] rows. Each page keeps a zone map per integer column
//! — the [`IntZone`] min, max and has-NULL flag of every row stored on it —
//! widened under the write lock on every append and never narrowed: a delete
//! only stamps `xmax`, so the bounds stay a sound superset of the page's visible
//! rows at every snapshot. [`Table::select_where`] is the one scan loop; it asks a
//! caller-supplied page test about each page's zones before it visits the page's
//! rows, so a key-range predicate over keys stored in key order (every SSB
//! dimension) reads O(pages + selected rows), not O(|table|). [`Table::select`]
//! is the same loop with a test that accepts every page.

use parking_lot::RwLock;

use cjoin_common::Result;

use crate::row::{Row, RowId};
use crate::schema::{ColumnId, ColumnType, Schema};
use crate::snapshot::{RowVersion, SnapshotId};
use crate::value::Value;

/// Default number of rows per logical page.
///
/// With SSB `lineorder` rows of roughly 100 bytes this corresponds to the usual
/// 8 KiB heap page, so page-count-based I/O accounting matches what a row store
/// would do.
pub const DEFAULT_ROWS_PER_PAGE: usize = 80;

/// The bounds of one integer column over one page: the min and max of its
/// non-NULL values, and whether it holds a NULL. A page whose column holds no
/// non-NULL value keeps inverted bounds (`min > max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntZone {
    /// Smallest non-NULL value (`i64::MAX` when there is none).
    pub min: i64,
    /// Largest non-NULL value (`i64::MIN` when there is none).
    pub max: i64,
    /// Whether any value is NULL.
    pub has_null: bool,
}

impl IntZone {
    /// The bounds of no value at all.
    const EMPTY: IntZone = IntZone {
        min: i64::MAX,
        max: i64::MIN,
        has_null: false,
    };

    /// Whether a non-NULL `value` may lie within the bounds.
    #[inline]
    pub fn may_contain(&self, value: i64) -> bool {
        self.min <= value && value <= self.max
    }

    fn widen(&mut self, value: Option<&Value>) {
        match value {
            Some(Value::Int(v)) => {
                self.min = self.min.min(*v);
                self.max = self.max.max(*v);
            }
            Some(Value::Null) => self.has_null = true,
            // A schema-conforming row holds nothing else in an integer column.
            _ => {}
        }
    }
}

/// One page's zone maps, as a page test passed to [`Table::select_where`] sees
/// them.
#[derive(Debug, Clone, Copy)]
pub struct PageZones<'a> {
    int_columns: &'a [ColumnId],
    zones: &'a [IntZone],
}

impl PageZones<'_> {
    /// The page's bounds on `column`, or `None` if `column` is not an integer
    /// column of the table.
    #[inline]
    pub fn int(&self, column: ColumnId) -> Option<&IntZone> {
        self.int_columns
            .iter()
            .position(|&c| c == column)
            .map(|slot| &self.zones[slot])
    }
}

#[derive(Debug)]
struct StoredRow {
    row: Row,
    version: RowVersion,
}

#[derive(Debug, Default)]
struct TableInner {
    rows: Vec<StoredRow>,
    /// One [`IntZone`] per integer column per page, page-major.
    zones: Vec<IntZone>,
}

/// An append-only, multi-versioned, in-memory table.
///
/// * Reads never block reads; appends (used by the §3.5 update workloads) take a
///   short write lock.
/// * Rows are identified by their insertion position ([`RowId`]), which is the order
///   every scan uses — the stability CJOIN's wrap-around detection requires.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows_per_page: usize,
    /// The integer columns, in schema order: the columns pages keep zones for.
    int_columns: Vec<ColumnId>,
    inner: RwLock<TableInner>,
}

impl Table {
    /// Creates an empty table with the default page size.
    pub fn new(schema: Schema) -> Self {
        Self::with_rows_per_page(schema, DEFAULT_ROWS_PER_PAGE)
    }

    /// Creates an empty table with an explicit page size (rows per page).
    pub fn with_rows_per_page(schema: Schema, rows_per_page: usize) -> Self {
        assert!(rows_per_page > 0, "rows_per_page must be positive");
        let int_columns = (0..schema.arity())
            .filter(|&c| schema.columns()[c].ty == ColumnType::Int)
            .collect();
        Self {
            schema,
            rows_per_page,
            int_columns,
            inner: RwLock::new(TableInner::default()),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's name (from its schema).
    pub fn name(&self) -> &str {
        &self.schema.table
    }

    /// Rows per logical page.
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// Number of rows currently stored (all versions).
    pub fn len(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of logical pages currently occupied.
    pub fn num_pages(&self) -> u64 {
        (self.len() as u64).div_ceil(self.rows_per_page as u64)
    }

    /// Appends one row under the write lock, opening a page when the last one
    /// is full and widening the last page's zones by the row's values.
    fn push(&self, inner: &mut TableInner, row: Row, version: RowVersion) {
        let width = self.int_columns.len();
        if inner.rows.len().is_multiple_of(self.rows_per_page) {
            inner
                .zones
                .resize(inner.zones.len() + width, IntZone::EMPTY);
        }
        let page = inner.zones.len() - width;
        let values = row.values();
        for (zone, &column) in inner.zones[page..].iter_mut().zip(&self.int_columns) {
            zone.widen(values.get(column));
        }
        inner.rows.push(StoredRow { row, version });
    }

    /// Appends a row visible from `xmin` onwards, validating it against the schema.
    ///
    /// # Errors
    /// Returns a type-mismatch error if the row does not match the schema.
    pub fn insert(&self, values: Vec<Value>, xmin: SnapshotId) -> Result<RowId> {
        self.schema.validate_row(&values)?;
        let mut inner = self.inner.write();
        let id = RowId(inner.rows.len() as u64);
        self.push(&mut inner, Row::new(values), RowVersion::inserted_at(xmin));
        Ok(id)
    }

    /// Appends a batch of pre-validated rows (used by the SSB generator, which
    /// guarantees schema conformance and loads hundreds of thousands of rows).
    pub fn insert_batch_unchecked<I>(&self, rows: I, xmin: SnapshotId)
    where
        I: IntoIterator<Item = Row>,
    {
        let mut inner = self.inner.write();
        for row in rows {
            self.push(&mut inner, row, RowVersion::inserted_at(xmin));
        }
    }

    /// Marks a row as deleted as of snapshot `xmax`. Returns `false` if the row does
    /// not exist or was already deleted. The row's page keeps its zones: they
    /// still bound every stored row, which is all a page test relies on.
    pub fn delete(&self, id: RowId, xmax: SnapshotId) -> bool {
        let mut inner = self.inner.write();
        match inner.rows.get_mut(id.index()) {
            Some(stored) if stored.version.xmax.is_none() => {
                stored.version.xmax = Some(xmax);
                true
            }
            _ => false,
        }
    }

    /// Returns the row with the given id (regardless of visibility).
    pub fn row(&self, id: RowId) -> Option<Row> {
        self.inner
            .read()
            .rows
            .get(id.index())
            .map(|s| s.row.clone())
    }

    /// Returns the row and its version metadata.
    pub fn row_with_version(&self, id: RowId) -> Option<(Row, RowVersion)> {
        self.inner
            .read()
            .rows
            .get(id.index())
            .map(|s| (s.row.clone(), s.version))
    }

    /// Copies up to `max_rows` rows starting at position `start` into `out`,
    /// returning the number of rows copied. Rows of every version are returned;
    /// visibility filtering is the caller's concern (the CJOIN Preprocessor treats
    /// snapshot membership as a virtual predicate, §3.5).
    pub fn read_range(
        &self,
        start: u64,
        max_rows: usize,
        out: &mut Vec<(RowId, Row, RowVersion)>,
    ) -> usize {
        let inner = self.inner.read();
        let start = start as usize;
        if start >= inner.rows.len() {
            return 0;
        }
        let end = (start + max_rows).min(inner.rows.len());
        out.reserve(end - start);
        for (offset, stored) in inner.rows[start..end].iter().enumerate() {
            out.push((
                RowId((start + offset) as u64),
                stored.row.clone(),
                stored.version,
            ));
        }
        end - start
    }

    /// Visits every row visible at `snapshot` without materialising a copy.
    ///
    /// Holds the read lock for the duration of the visit; intended for dimension
    /// tables (small) and test oracles, not for the fact-table hot path.
    pub fn for_each_visible<F: FnMut(RowId, &Row)>(&self, snapshot: SnapshotId, f: F) {
        self.for_each_visible_where(snapshot, |_| true, f);
    }

    /// The one scan loop: visits, in [`RowId`] order, every row visible at
    /// `snapshot` on each page whose zones `page_may_match` accepts. A page test
    /// must accept every page holding a row the caller wants, so it may reject
    /// only pages whose bounds prove no row there qualifies.
    fn for_each_visible_where<P, F>(&self, snapshot: SnapshotId, page_may_match: P, mut f: F)
    where
        P: Fn(PageZones<'_>) -> bool,
        F: FnMut(RowId, &Row),
    {
        let inner = self.inner.read();
        let width = self.int_columns.len();
        for (page, rows) in inner.rows.chunks(self.rows_per_page).enumerate() {
            let zones = PageZones {
                int_columns: &self.int_columns,
                zones: &inner.zones[page * width..(page + 1) * width],
            };
            if !page_may_match(zones) {
                continue;
            }
            let first = page * self.rows_per_page;
            for (offset, stored) in rows.iter().enumerate() {
                if stored.version.visible_at(snapshot) {
                    f(RowId((first + offset) as u64), &stored.row);
                }
            }
        }
    }

    /// Collects the rows visible at `snapshot` that satisfy `pred`, in
    /// [`RowId`] order, evaluating `pred` only on the pages `page_may_match`
    /// accepts. With a sound page test (one that rejects a page only if no row
    /// on it can satisfy `pred`) the result equals [`Table::select`]'s.
    ///
    /// This is the access path used when a new CJOIN query is admitted: Algorithm 1
    /// evaluates `σ_cnj(Dj)` over each referenced dimension table and loads the
    /// matches into the dimension hash table.
    pub fn select_where<P, F>(
        &self,
        snapshot: SnapshotId,
        page_may_match: P,
        pred: F,
    ) -> Vec<(RowId, Row)>
    where
        P: Fn(PageZones<'_>) -> bool,
        F: Fn(&Row) -> bool,
    {
        let mut result = Vec::new();
        self.for_each_visible_where(snapshot, page_may_match, |id, row| {
            if pred(row) {
                result.push((id, row.clone()));
            }
        });
        result
    }

    /// Collects the rows visible at `snapshot` that satisfy `pred`, reading
    /// every page: [`Table::select_where`] with a page test that accepts all.
    pub fn select<F: Fn(&Row) -> bool>(&self, snapshot: SnapshotId, pred: F) -> Vec<(RowId, Row)> {
        self.select_where(snapshot, |_| true, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn test_table() -> Table {
        let schema = Schema::new("dim", vec![Column::int("d_key"), Column::str("d_name")]);
        Table::with_rows_per_page(schema, 4)
    }

    #[test]
    fn insert_and_read_back() {
        let t = test_table();
        let id0 = t
            .insert(vec![Value::int(1), Value::str("a")], SnapshotId::INITIAL)
            .unwrap();
        let id1 = t
            .insert(vec![Value::int(2), Value::str("b")], SnapshotId::INITIAL)
            .unwrap();
        assert_eq!(id0, RowId(0));
        assert_eq!(id1, RowId(1));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.row(id1).unwrap().int(0), 2);
        assert!(t.row(RowId(5)).is_none());
    }

    #[test]
    fn insert_validates_schema() {
        let t = test_table();
        assert!(t
            .insert(
                vec![Value::str("wrong"), Value::str("a")],
                SnapshotId::INITIAL
            )
            .is_err());
        assert!(t.insert(vec![Value::int(1)], SnapshotId::INITIAL).is_err());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn page_accounting() {
        let t = test_table();
        assert_eq!(t.num_pages(), 0);
        for i in 0..9 {
            t.insert(vec![Value::int(i), Value::str("x")], SnapshotId::INITIAL)
                .unwrap();
        }
        // 9 rows at 4 rows/page -> 3 pages.
        assert_eq!(t.num_pages(), 3);
        assert_eq!(t.rows_per_page(), 4);
    }

    #[test]
    fn read_range_honours_bounds() {
        let t = test_table();
        for i in 0..10 {
            t.insert(vec![Value::int(i), Value::str("x")], SnapshotId::INITIAL)
                .unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(t.read_range(8, 5, &mut out), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, RowId(8));
        assert_eq!(out[1].1.int(0), 9);
        out.clear();
        assert_eq!(t.read_range(100, 5, &mut out), 0);
    }

    #[test]
    fn delete_and_visibility() {
        let t = test_table();
        let id = t
            .insert(vec![Value::int(1), Value::str("a")], SnapshotId(1))
            .unwrap();
        assert!(t.delete(id, SnapshotId(3)));
        assert!(!t.delete(id, SnapshotId(4)), "double delete rejected");
        assert!(!t.delete(RowId(10), SnapshotId(4)), "unknown row rejected");

        let (_, version) = t.row_with_version(id).unwrap();
        assert!(!version.visible_at(SnapshotId(0)), "not yet inserted");
        assert!(version.visible_at(SnapshotId(2)));
        assert!(!version.visible_at(SnapshotId(3)), "deleted");
    }

    #[test]
    fn select_applies_snapshot_and_predicate() {
        let t = test_table();
        t.insert(vec![Value::int(1), Value::str("keep")], SnapshotId(0))
            .unwrap();
        t.insert(vec![Value::int(2), Value::str("drop")], SnapshotId(0))
            .unwrap();
        t.insert(vec![Value::int(3), Value::str("keep")], SnapshotId(5))
            .unwrap();

        let visible_now = t.select(SnapshotId(0), |r| r.get(1).as_str().unwrap() == "keep");
        assert_eq!(visible_now.len(), 1);
        assert_eq!(visible_now[0].1.int(0), 1);

        let visible_later = t.select(SnapshotId(5), |r| r.get(1).as_str().unwrap() == "keep");
        assert_eq!(visible_later.len(), 2);
    }

    #[test]
    fn for_each_visible_skips_deleted() {
        let t = test_table();
        let id = t
            .insert(vec![Value::int(1), Value::str("a")], SnapshotId(0))
            .unwrap();
        t.insert(vec![Value::int(2), Value::str("b")], SnapshotId(0))
            .unwrap();
        t.delete(id, SnapshotId(1));
        let mut seen = Vec::new();
        t.for_each_visible(SnapshotId(2), |_, r| seen.push(r.int(0)));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn insert_batch_unchecked_bulk_loads() {
        let t = test_table();
        t.insert_batch_unchecked(
            (0..100).map(|i| Row::new(vec![Value::int(i), Value::str("bulk")])),
            SnapshotId::INITIAL,
        );
        assert_eq!(t.len(), 100);
        assert_eq!(t.row(RowId(99)).unwrap().int(0), 99);
    }

    #[test]
    #[should_panic(expected = "rows_per_page")]
    fn zero_rows_per_page_panics() {
        let schema = Schema::new("t", vec![Column::int("a")]);
        let _ = Table::with_rows_per_page(schema, 0);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::sync::Arc;
        let t = Arc::new(test_table());
        for i in 0..100 {
            t.insert(vec![Value::int(i), Value::str("x")], SnapshotId::INITIAL)
                .unwrap();
        }
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..50 {
                        out.clear();
                        t.read_range(0, 100, &mut out);
                        assert!(out.len() >= 100);
                    }
                })
            })
            .collect();
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 100..200 {
                    t.insert(vec![Value::int(i), Value::str("y")], SnapshotId(1))
                        .unwrap();
                }
            })
        };
        for r in readers {
            r.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(t.len(), 200);
    }
}
