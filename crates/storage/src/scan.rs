//! Table scans.
//!
//! Two access paths are provided, matching the two engines in this workspace:
//!
//! * [`TableScan`] — a one-shot, snapshot-consistent scan used by the query-at-a-time
//!   baseline (each query performs its own full pass over the fact table).
//! * [`ContinuousScan`] — the circular, "always-on" scan that feeds the CJOIN
//!   Preprocessor (§3.1). It returns batches of rows in stable [`RowId`] order and
//!   wraps around forever; the caller observes wrap-arounds through
//!   [`ScanBatch::wrapped`] and the per-row positions, which is how query completion
//!   is detected (§3.3.2).
//!
//! Both scans record their page accesses into an optional [`IoStats`] so the
//! experiment harness can model disk behaviour (see [`crate::io`]).

use std::sync::Arc;

use crate::io::{AccessKind, IoStats};
use crate::row::{Row, RowId};
use crate::snapshot::{RowVersion, SnapshotId};
use crate::table::Table;

/// Default number of rows fetched per scan call.
pub const DEFAULT_SCAN_BATCH_ROWS: usize = 1024;

/// A batch of rows produced by a scan.
#[derive(Debug, Default)]
pub struct ScanBatch {
    /// The rows, in ascending [`RowId`] order, each with its visibility metadata.
    pub rows: Vec<(RowId, Row, RowVersion)>,
    /// True if this batch begins a new pass over the table (position wrapped to 0).
    pub wrapped: bool,
}

impl ScanBatch {
    /// Creates an empty batch with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            rows: Vec::with_capacity(cap),
            wrapped: false,
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Clears the batch for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.wrapped = false;
    }
}

/// One-shot, snapshot-consistent sequential scan.
///
/// The scanned length is fixed at construction time, so rows appended concurrently
/// (by update transactions) are not observed — the snapshot-isolation behaviour a
/// conventional engine provides.
#[derive(Debug)]
pub struct TableScan {
    table: Arc<Table>,
    snapshot: SnapshotId,
    position: u64,
    end: u64,
    batch_rows: usize,
    io: Option<Arc<IoStats>>,
    access_kind: AccessKind,
    buffer: Vec<(RowId, Row, RowVersion)>,
}

impl TableScan {
    /// Creates a scan over `table` as of `snapshot`.
    pub fn new(table: Arc<Table>, snapshot: SnapshotId) -> Self {
        let end = table.len() as u64;
        Self {
            table,
            snapshot,
            position: 0,
            end,
            batch_rows: DEFAULT_SCAN_BATCH_ROWS,
            io: None,
            access_kind: AccessKind::Sequential,
            buffer: Vec::new(),
        }
    }

    /// Records page accesses into `io` with the given access kind.
    ///
    /// A standalone scan is sequential; the baseline engine marks scans as
    /// [`AccessKind::Random`] when several independent scans interleave on the same
    /// device (the paper's query-at-a-time contention scenario).
    pub fn with_io(mut self, io: Arc<IoStats>, kind: AccessKind) -> Self {
        self.io = Some(io);
        self.access_kind = kind;
        self
    }

    /// Overrides the number of rows fetched per [`TableScan::next_batch`] call.
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "batch_rows must be positive");
        self.batch_rows = rows;
        self
    }

    /// Number of rows this scan will visit (before visibility filtering).
    pub fn total_rows(&self) -> u64 {
        self.end
    }

    /// Fetches the next batch of visible rows. Returns `None` once exhausted.
    pub fn next_batch(&mut self) -> Option<Vec<(RowId, Row)>> {
        while self.position < self.end {
            self.buffer.clear();
            let remaining = (self.end - self.position) as usize;
            let to_read = remaining.min(self.batch_rows);
            let read = self
                .table
                .read_range(self.position, to_read, &mut self.buffer);
            if read == 0 {
                break;
            }
            if let Some(io) = &self.io {
                let pages = (read as u64).div_ceil(self.table.rows_per_page() as u64);
                io.record(self.access_kind, pages);
            }
            self.position += read as u64;
            let visible: Vec<(RowId, Row)> = self
                .buffer
                .drain(..)
                .filter(|(_, _, v)| v.visible_at(self.snapshot))
                .map(|(id, row, _)| (id, row))
                .collect();
            if !visible.is_empty() {
                return Some(visible);
            }
            // Entire batch invisible under this snapshot: keep scanning.
        }
        None
    }

    /// Convenience: runs the scan to completion, invoking `f` for every visible row.
    pub fn for_each<F: FnMut(RowId, &Row)>(mut self, mut f: F) {
        while let Some(batch) = self.next_batch() {
            for (id, row) in &batch {
                f(*id, row);
            }
        }
    }
}

/// Splits the row range `[0, table_len)` into `n` page-aligned segments for the
/// sharded continuous scan (one segment per scan worker).
///
/// Every boundary between two segments is rounded down to a page multiple so each
/// worker reads whole pages, and the **last** segment's end is open (`None`): it
/// tracks the live table length, so rows appended after the split are picked up
/// on that segment's next pass — the same append semantics the unsegmented scan
/// has. Segments are static thereafter; with a small table some may be empty
/// (`start == end`), which callers must tolerate.
pub fn segment_ranges(table_len: u64, rows_per_page: usize, n: usize) -> Vec<(u64, Option<u64>)> {
    let n = n.max(1);
    let page = rows_per_page.max(1) as u64;
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0u64;
    for i in 1..n {
        // Floor to a page boundary; monotone in `i`, so starts never decrease.
        let boundary = ((i as u64 * table_len / n as u64) / page * page).min(table_len);
        let boundary = boundary.max(start);
        ranges.push((start, Some(boundary)));
        start = boundary;
    }
    ranges.push((start, None));
    ranges
}

/// Where the next rows of a [`ContinuousScan`] come from: its cursor folded
/// into the segment (see [`ContinuousScan::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanStep {
    /// Position of the next row.
    pub position: u64,
    /// One past the last row the caller may take from `position`: at most
    /// `batch_rows` rows on, clamped to the segment end (itself clamped to the
    /// live table length).
    pub end: u64,
    /// True if `position` starts a new pass (it is the segment start).
    pub wrapped: bool,
}

/// The circular fact-table scan feeding the CJOIN pipeline.
///
/// The scan has no notion of "end": every call to [`ContinuousScan::next_batch`]
/// returns the next run of rows and wraps to position 0 after the last row. Batches
/// never span the wrap point, so a batch with `wrapped == true` always starts at
/// [`RowId`] 0 — the Preprocessor uses this to detect that in-flight queries have
/// seen the whole table.
///
/// A scan can also be restricted to a *segment* of the table with
/// [`ContinuousScan::with_segment`]: it then circulates over `[start, end)` only,
/// wrapping back to `start`, which is how the sharded Preprocessor front-end gives
/// each scan worker its own independent cursor (see [`segment_ranges`]). An open
/// end (`None`) tracks the live table length, so an open-ended segment picks up
/// appended rows on its next pass exactly like the whole-table scan.
///
/// If the table (or segment) is empty the scan returns empty batches (and reports
/// `wrapped`), rather than spinning.
#[derive(Debug)]
pub struct ContinuousScan {
    table: Arc<Table>,
    position: u64,
    batch_rows: usize,
    io: Option<Arc<IoStats>>,
    /// Number of complete passes finished so far.
    passes: u64,
    /// First row of this scan's segment (0 for a whole-table scan).
    segment_start: u64,
    /// Fixed segment end, or `None` to track the live table length.
    segment_end: Option<u64>,
}

impl ContinuousScan {
    /// Creates a continuous scan over `table` starting at row 0.
    pub fn new(table: Arc<Table>) -> Self {
        Self {
            table,
            position: 0,
            batch_rows: DEFAULT_SCAN_BATCH_ROWS,
            io: None,
            passes: 0,
            segment_start: 0,
            segment_end: None,
        }
    }

    /// Restricts the scan to the row segment `[start, end)` (`end = None` tracks
    /// the live table length). The cursor is reset to `start`.
    pub fn with_segment(mut self, start: u64, end: Option<u64>) -> Self {
        if let Some(end) = end {
            assert!(start <= end, "segment start must not exceed its end");
        }
        self.segment_start = start;
        self.segment_end = end;
        self.position = start;
        self
    }

    /// Records page accesses (always sequential — that is the point of the shared
    /// circular scan) into `io`.
    pub fn with_io(mut self, io: Arc<IoStats>) -> Self {
        self.io = Some(io);
        self
    }

    /// Overrides the number of rows fetched per call.
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "batch_rows must be positive");
        self.batch_rows = rows;
        self
    }

    /// The table being scanned.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Current scan position (the [`RowId`] the next batch will start at).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// First row of this scan's segment (0 for a whole-table scan).
    pub fn segment_start(&self) -> u64 {
        self.segment_start
    }

    /// The position the next produced row will actually have: the raw cursor
    /// folded into the segment, i.e. the segment start when the cursor sits at
    /// (or beyond) the segment end awaiting its lazy wrap. This is the position
    /// the Preprocessor records as a query's starting tuple.
    pub fn normalized_position(&self) -> u64 {
        let (start, end) = self.bounds();
        if self.position >= end || self.position < start {
            start
        } else {
            self.position
        }
    }

    /// Number of completed passes over the table.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The segment's current effective bounds `[start, end)`, clamped to the live
    /// table length: what a pass starting now covers, unless rows are appended
    /// to an open-ended segment before it wraps.
    pub fn bounds(&self) -> (u64, u64) {
        let len = self.table.len() as u64;
        let end = self.segment_end.unwrap_or(len).min(len);
        (self.segment_start.min(end), end)
    }

    /// Folds the cursor into the segment and reports where the next rows come
    /// from, or `None` if the table (or segment) is empty. A cursor at or
    /// beyond the segment end wraps to the segment start here, lazily, and
    /// that is when the finished pass is counted; the pass's length is the
    /// one sampled by this call, so rows appended mid-pass extend it and a
    /// pass is always one well-defined full scan.
    ///
    /// The cursor does not move until [`ContinuousScan::advance`]: a caller
    /// reads any run of rows in `position..end` (at most `batch_rows` of them)
    /// itself and then advances past it, which is how the Preprocessor cuts
    /// its chunks.
    pub fn step(&mut self) -> Option<ScanStep> {
        let (start, end) = self.bounds();
        if start >= end {
            return None;
        }
        if self.position >= end || self.position < start {
            self.position = start;
            self.passes += 1;
        }
        Some(ScanStep {
            position: self.position,
            end: end.min(self.position + self.batch_rows as u64),
            wrapped: self.position == start,
        })
    }

    /// Moves the cursor past `rows` rows of the run the last
    /// [`ContinuousScan::step`] reported.
    pub fn advance(&mut self, rows: u64) {
        self.position += rows;
    }

    /// Fills `batch` with the next run of rows: one [`ContinuousScan::step`],
    /// the whole run it reports read, the cursor advanced past it.
    ///
    /// `batch.wrapped` is set when this batch starts a new pass (the segment
    /// start; position 0 for a whole-table scan) and on the empty batch of an
    /// empty table or segment, so callers never spin. The batch never crosses
    /// the wrap point.
    pub fn next_batch(&mut self, batch: &mut ScanBatch) {
        batch.clear();
        let Some(step) = self.step() else {
            batch.wrapped = true;
            return;
        };
        batch.wrapped = step.wrapped;
        let to_read = (step.end - step.position) as usize;
        let read = self
            .table
            .read_range(step.position, to_read, &mut batch.rows);
        if let Some(io) = &self.io {
            let pages = (read as u64).div_ceil(self.table.rows_per_page() as u64);
            io.record(AccessKind::Sequential, pages);
        }
        self.advance(read as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::Value;

    fn fact_table(rows: i64) -> Arc<Table> {
        let schema = Schema::new("fact", vec![Column::int("f_key"), Column::int("f_val")]);
        let table = Table::with_rows_per_page(schema, 10);
        table.insert_batch_unchecked(
            (0..rows).map(|i| Row::new(vec![Value::int(i), Value::int(i * 10)])),
            SnapshotId::INITIAL,
        );
        Arc::new(table)
    }

    #[test]
    fn table_scan_visits_all_rows_once() {
        let t = fact_table(95);
        let scan = TableScan::new(Arc::clone(&t), SnapshotId::INITIAL).with_batch_rows(16);
        let mut seen = Vec::new();
        scan.for_each(|id, row| {
            assert_eq!(id.index() as i64, row.int(0));
            seen.push(row.int(0));
        });
        assert_eq!(seen.len(), 95);
        assert_eq!(seen, (0..95).collect::<Vec<_>>());
    }

    #[test]
    fn table_scan_records_io() {
        let t = fact_table(95); // 10 rows/page -> 10 pages
        let io = Arc::new(IoStats::new());
        let scan = TableScan::new(Arc::clone(&t), SnapshotId::INITIAL)
            .with_io(Arc::clone(&io), AccessKind::Sequential)
            .with_batch_rows(1000);
        scan.for_each(|_, _| {});
        assert_eq!(io.sequential_pages(), 10);
        assert_eq!(io.random_pages(), 0);
    }

    #[test]
    fn table_scan_respects_snapshot() {
        let schema = Schema::new("fact", vec![Column::int("a")]);
        let table = Arc::new(Table::new(schema));
        table.insert(vec![Value::int(1)], SnapshotId(0)).unwrap();
        let old = table.insert(vec![Value::int(2)], SnapshotId(0)).unwrap();
        table.insert(vec![Value::int(3)], SnapshotId(5)).unwrap();
        table.delete(old, SnapshotId(3));

        let collect = |snap: SnapshotId| {
            let mut v = Vec::new();
            TableScan::new(Arc::clone(&table), snap).for_each(|_, r| v.push(r.int(0)));
            v
        };
        assert_eq!(collect(SnapshotId(0)), vec![1, 2]);
        assert_eq!(collect(SnapshotId(4)), vec![1]);
        assert_eq!(collect(SnapshotId(5)), vec![1, 3]);
    }

    #[test]
    fn table_scan_ignores_rows_added_after_creation() {
        let t = fact_table(10);
        let mut scan = TableScan::new(Arc::clone(&t), SnapshotId(10)).with_batch_rows(4);
        t.insert_batch_unchecked(
            (100..105).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
            SnapshotId::INITIAL,
        );
        let mut count = 0;
        while let Some(b) = scan.next_batch() {
            count += b.len();
        }
        assert_eq!(count, 10, "length pinned at scan creation");
        assert_eq!(scan.total_rows(), 10);
    }

    #[test]
    fn continuous_scan_wraps_and_counts_passes() {
        let t = fact_table(25);
        let mut scan = ContinuousScan::new(Arc::clone(&t)).with_batch_rows(10);
        let mut batch = ScanBatch::default();

        // Pass 1: batches of 10, 10, 5.
        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.rows[0].0, RowId(0));
        scan.next_batch(&mut batch);
        assert!(!batch.wrapped);
        assert_eq!(batch.len(), 10);
        scan.next_batch(&mut batch);
        assert_eq!(batch.len(), 5);
        assert_eq!(scan.passes(), 0);

        // Pass 2 starts: wrapped again, position resets.
        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(batch.rows[0].0, RowId(0));
        assert_eq!(scan.passes(), 1);
        assert_eq!(scan.position(), 10);
    }

    #[test]
    fn continuous_scan_batches_never_cross_wrap() {
        let t = fact_table(25);
        let mut scan = ContinuousScan::new(Arc::clone(&t)).with_batch_rows(10);
        let mut batch = ScanBatch::with_capacity(10);
        for _ in 0..20 {
            scan.next_batch(&mut batch);
            // Row ids within a batch are consecutive and ascending.
            for w in batch.rows.windows(2) {
                assert_eq!(w[1].0 .0, w[0].0 .0 + 1);
            }
        }
    }

    #[test]
    fn continuous_scan_same_order_every_pass() {
        let t = fact_table(30);
        let mut scan = ContinuousScan::new(Arc::clone(&t)).with_batch_rows(7);
        let mut batch = ScanBatch::default();
        let mut pass1 = Vec::new();
        let mut pass2 = Vec::new();
        // Collect two full passes.
        while pass1.len() < 30 {
            scan.next_batch(&mut batch);
            pass1.extend(batch.rows.iter().map(|(id, _, _)| *id));
        }
        while pass2.len() < 30 {
            scan.next_batch(&mut batch);
            pass2.extend(batch.rows.iter().map(|(id, _, _)| *id));
        }
        assert_eq!(
            pass1, pass2,
            "continuous scan must be order-stable across passes"
        );
    }

    #[test]
    fn continuous_scan_on_empty_table_reports_wrapped_empty_batches() {
        let schema = Schema::new("fact", vec![Column::int("a")]);
        let t = Arc::new(Table::new(schema));
        let mut scan = ContinuousScan::new(t);
        let mut batch = ScanBatch::default();
        scan.next_batch(&mut batch);
        assert!(batch.is_empty());
        assert!(batch.wrapped);
    }

    #[test]
    fn continuous_scan_picks_up_appends_on_later_passes() {
        let t = fact_table(10);
        let mut scan = ContinuousScan::new(Arc::clone(&t)).with_batch_rows(100);
        let mut batch = ScanBatch::default();
        scan.next_batch(&mut batch);
        assert_eq!(batch.len(), 10);
        // Append while the scan is "mid-pass" (position at end).
        t.insert_batch_unchecked(
            (10..15).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
            SnapshotId(1),
        );
        scan.next_batch(&mut batch);
        // The appended rows extend the current pass (position 10 < new len 15), so
        // they are returned before wrapping; the next pass then sees all 15.
        assert_eq!(batch.len(), 5);
        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(batch.len(), 15);
    }

    #[test]
    fn continuous_scan_records_sequential_io() {
        let t = fact_table(100); // 10 pages
        let io = Arc::new(IoStats::new());
        let mut scan = ContinuousScan::new(t)
            .with_io(Arc::clone(&io))
            .with_batch_rows(50);
        let mut batch = ScanBatch::default();
        for _ in 0..4 {
            scan.next_batch(&mut batch);
        }
        // Two passes of 10 pages each = 20 pages... 4 batches of 50 rows = 2 passes.
        assert_eq!(io.sequential_pages(), 20);
    }

    #[test]
    fn segment_ranges_cover_the_table_exactly_once_and_are_page_aligned() {
        for (len, rpp, n) in [
            (95u64, 10usize, 4usize),
            (100, 10, 3),
            (7, 10, 4),
            (0, 10, 2),
        ] {
            let ranges = segment_ranges(len, rpp, n);
            assert_eq!(ranges.len(), n);
            // Contiguous cover of [0, len): each start equals the previous end,
            // the first starts at 0, the last is open-ended.
            assert_eq!(ranges[0].0, 0);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, Some(w[1].0), "len={len} rpp={rpp} n={n}");
            }
            assert_eq!(ranges[n - 1].1, None);
            // Interior boundaries are page multiples.
            for &(start, _) in &ranges[1..] {
                assert_eq!(start % rpp as u64, 0, "len={len} rpp={rpp} n={n}");
            }
        }
        assert_eq!(segment_ranges(100, 10, 1), vec![(0, None)]);
    }

    #[test]
    fn segmented_scans_partition_every_pass() {
        let t = fact_table(95); // 10 rows per page
        let n = 4;
        let ranges = segment_ranges(t.len() as u64, t.rows_per_page(), n);
        let mut seen = vec![0u32; 95];
        for &(start, end) in &ranges {
            let mut scan = ContinuousScan::new(Arc::clone(&t))
                .with_batch_rows(7)
                .with_segment(start, end);
            let mut batch = ScanBatch::default();
            // Drive exactly one pass of this segment.
            let mut first = true;
            loop {
                scan.next_batch(&mut batch);
                if batch.wrapped && !first {
                    break;
                }
                first = false;
                for (id, _, _) in &batch.rows {
                    assert!(id.0 >= start, "row below segment start");
                    if let Some(end) = end {
                        assert!(id.0 < end, "row beyond segment end");
                    }
                    seen[id.0 as usize] += 1;
                }
                if batch.is_empty() {
                    break;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "one pass of every segment covers each row exactly once: {seen:?}"
        );
    }

    #[test]
    fn segmented_scan_wraps_to_its_segment_start() {
        let t = fact_table(30);
        let mut scan = ContinuousScan::new(Arc::clone(&t))
            .with_batch_rows(8)
            .with_segment(10, Some(20));
        let mut batch = ScanBatch::default();
        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(batch.rows[0].0, RowId(10));
        assert_eq!(batch.len(), 8);
        scan.next_batch(&mut batch);
        assert!(!batch.wrapped);
        assert_eq!(batch.len(), 2, "batches never cross the segment wrap");
        assert_eq!(scan.normalized_position(), 10, "cursor folds back to start");
        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(batch.rows[0].0, RowId(10));
        assert_eq!(scan.passes(), 1);
        assert_eq!(scan.segment_start(), 10);
    }

    #[test]
    fn empty_segment_reports_wrapped_empty_batches() {
        let t = fact_table(30);
        let mut scan = ContinuousScan::new(t).with_segment(12, Some(12));
        let mut batch = ScanBatch::default();
        scan.next_batch(&mut batch);
        assert!(batch.is_empty());
        assert!(batch.wrapped);
    }

    #[test]
    fn open_ended_segment_picks_up_appends_like_the_whole_table_scan() {
        let t = fact_table(20);
        let mut scan = ContinuousScan::new(Arc::clone(&t))
            .with_batch_rows(100)
            .with_segment(10, None);
        let mut batch = ScanBatch::default();
        scan.next_batch(&mut batch);
        assert_eq!(batch.len(), 10);
        t.insert_batch_unchecked(
            (20..25).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
            SnapshotId(1),
        );
        scan.next_batch(&mut batch);
        assert_eq!(batch.len(), 5, "growth extends the current pass");
        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(batch.len(), 15, "next pass sees the grown segment");
    }

    /// `next_batch` is `step` + `read_range` + `advance`: a caller that takes the
    /// steps itself (as the Preprocessor does) visits the same
    /// `(position, len, wrapped)` sequence over a segmented, growing table.
    #[test]
    fn stepping_by_hand_visits_the_batches_next_batch_does() {
        for (start, end) in [(0, None), (10, Some(40)), (30, None), (20, Some(20))] {
            let t = fact_table(50);
            let mut batched = ContinuousScan::new(Arc::clone(&t))
                .with_batch_rows(7)
                .with_segment(start, end);
            let mut stepped = ContinuousScan::new(Arc::clone(&t))
                .with_batch_rows(7)
                .with_segment(start, end);
            let mut batch = ScanBatch::default();
            let mut rows = Vec::new();
            for round in 0..40 {
                if round == 9 || round == 23 {
                    // Mid-pass growth: extends an open-ended segment's current pass.
                    let len = t.len() as i64;
                    t.insert_batch_unchecked(
                        (len..len + 11).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
                        SnapshotId(1),
                    );
                }
                assert_eq!(stepped.normalized_position(), batched.normalized_position());
                batched.next_batch(&mut batch);
                let by_batch = (
                    batch.rows.first().map(|(id, _, _)| id.0),
                    batch.len(),
                    batch.wrapped,
                );
                let by_hand = match stepped.step() {
                    None => (None, 0, true),
                    Some(step) => {
                        let len = (step.end - step.position) as usize;
                        rows.clear();
                        assert_eq!(t.read_range(step.position, len, &mut rows), len);
                        stepped.advance(len as u64);
                        (Some(step.position), len, step.wrapped)
                    }
                };
                assert_eq!(by_hand, by_batch, "segment {start}..{end:?}, round {round}");
                assert_eq!(stepped.passes(), batched.passes());
            }
        }
    }

    #[test]
    fn scan_batch_helpers() {
        let mut b = ScanBatch::with_capacity(8);
        assert!(b.is_empty());
        b.rows.push((
            RowId(0),
            Row::new(vec![Value::int(1)]),
            RowVersion::ALWAYS_VISIBLE,
        ));
        b.wrapped = true;
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(b.is_empty());
        assert!(!b.wrapped);
    }
}
