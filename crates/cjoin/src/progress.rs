//! Per-query progress tracking (§3.2.3).
//!
//! Because a CJOIN query completes at the latest when the continuous scan wraps around
//! its starting tuple, the scan position is a reliable progress indicator: the fraction
//! of the fact table seen since registration is at most the fraction of the query that
//! is done (a query the replica's zone maps end early completes sooner), and the
//! current processing rate gives an estimated time to completion. The paper
//! highlights this as a practical benefit for long-running ad-hoc analytics ("both of
//! these metrics can provide valuable feedback to users").
//!
//! A [`QueryProgress`] handle is created at admission, updated by the Preprocessor as
//! the scan advances, and readable at any time through
//! [`QueryHandle::progress`](crate::engine::QueryHandle::progress).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Progress of one registered query.
///
/// The pass is split across the front-end's `CjoinConfig::scan_workers`
/// segment workers, a width fixed when the tracker is created: each worker advances `rows_seen` by the rows of its own
/// segment (the segment rows sum to the table, so [`QueryProgress::fraction`]
/// stays exact) and marks its segment's pass complete when its cursor reaches
/// the query's end in that segment. The worker whose mark is the last one
/// outstanding closes the query (see [`crate::preprocessor`]).
#[derive(Debug)]
pub struct QueryProgress {
    /// Fact rows the scan has produced since the query was installed.
    rows_seen: AtomicU64,
    /// Fact rows one full pass needs to cover (table size at admission).
    rows_total: u64,
    /// Scan segments the pass is split across.
    segments_total: u64,
    /// Segments that have completed their pass; doubles as the front-end's
    /// count of segments still to report.
    segments_completed: AtomicU64,
    /// Set when the query's end-of-query control tuple has been emitted.
    completed: AtomicBool,
    /// When the query was installed.
    started: Instant,
}

impl QueryProgress {
    /// Creates a tracker for a query whose pass must cover `rows_total` fact
    /// rows, split across `segments` scan segments (at least one).
    pub fn new(rows_total: u64, segments: u64) -> Self {
        Self {
            rows_seen: AtomicU64::new(0),
            rows_total,
            segments_total: segments.max(1),
            segments_completed: AtomicU64::new(0),
            completed: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// Records that the scan produced `rows` more fact rows for this query.
    #[inline]
    pub fn advance(&self, rows: u64) {
        self.rows_seen.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records that one scan segment completed its pass for this query (by
    /// wrap-around, by reaching its last row group that can match, or by
    /// cancellation). Returns whether it was the
    /// last segment outstanding — exactly one caller sees `true`.
    ///
    /// AcqRel: the caller that sees `true` has acquired every earlier marker's
    /// writes, in particular their lane pushes of the batches they flushed
    /// before marking.
    pub fn mark_segment_completed(&self) -> bool {
        let done = self.segments_completed.fetch_add(1, Ordering::AcqRel) + 1;
        done == self.segments_total
    }

    /// Scan segments the pass is split across.
    pub fn segments_total(&self) -> u64 {
        self.segments_total
    }

    /// Segments that have completed their pass.
    pub fn segments_completed(&self) -> u64 {
        self.segments_completed.load(Ordering::Acquire)
    }

    /// Marks the query as completed.
    pub fn mark_completed(&self) {
        self.completed.store(true, Ordering::Release);
    }

    /// Fact rows seen so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen.load(Ordering::Relaxed)
    }

    /// Fact rows a full pass must cover.
    pub fn rows_total(&self) -> u64 {
        self.rows_total
    }

    /// Whether the query has completed.
    pub fn is_completed(&self) -> bool {
        self.completed.load(Ordering::Acquire)
    }

    /// Progress as a fraction in `[0, 1]`. Returns 1 once completed (also for
    /// queries the replica's zone maps end before they have seen the whole
    /// table).
    pub fn fraction(&self) -> f64 {
        if self.is_completed() {
            return 1.0;
        }
        if self.rows_total == 0 {
            return 0.0;
        }
        (self.rows_seen() as f64 / self.rows_total as f64).clamp(0.0, 1.0)
    }

    /// Time since the query was installed.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Estimated time remaining, extrapolated from the observed scan rate.
    ///
    /// Returns `None` until some progress has been observed, and `Some(ZERO)` once
    /// the query has completed.
    pub fn estimated_remaining(&self) -> Option<Duration> {
        if self.is_completed() {
            return Some(Duration::ZERO);
        }
        let seen = self.rows_seen();
        if seen == 0 || self.rows_total == 0 {
            return None;
        }
        let remaining_rows = self.rows_total.saturating_sub(seen);
        let rate = seen as f64 / self.elapsed().as_secs_f64().max(1e-9);
        Some(Duration::from_secs_f64(
            remaining_rows as f64 / rate.max(1e-9),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let p = QueryProgress::new(100, 1);
        assert_eq!(p.fraction(), 0.0);
        assert_eq!(p.rows_seen(), 0);
        assert_eq!(p.rows_total(), 100);
        assert!(!p.is_completed());
        assert!(p.estimated_remaining().is_none());

        p.advance(25);
        assert!((p.fraction() - 0.25).abs() < 1e-12);
        p.advance(25);
        assert!((p.fraction() - 0.5).abs() < 1e-12);
        assert!(p.estimated_remaining().is_some());
    }

    #[test]
    fn fraction_is_clamped_and_completion_wins() {
        let p = QueryProgress::new(10, 1);
        p.advance(50); // over-counting (e.g. table grew) must not exceed 1.0
        assert_eq!(p.fraction(), 1.0);

        let q = QueryProgress::new(1_000_000, 1);
        q.advance(1);
        q.mark_completed();
        assert_eq!(q.fraction(), 1.0);
        assert!(q.is_completed());
        assert_eq!(q.estimated_remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn empty_table_has_zero_progress_until_completed() {
        let p = QueryProgress::new(0, 1);
        assert_eq!(p.fraction(), 0.0);
        assert!(p.estimated_remaining().is_none());
        p.mark_completed();
        assert_eq!(p.fraction(), 1.0);
    }

    #[test]
    fn segment_completion_is_tracked_per_segment() {
        let p = QueryProgress::new(100, 4);
        assert_eq!(p.segments_total(), 4);
        assert_eq!(p.segments_completed(), 0);
        for done in 1..=4 {
            assert_eq!(
                p.mark_segment_completed(),
                done == 4,
                "only the last mark closes"
            );
            assert_eq!(p.segments_completed(), done);
        }
        assert!(!p.is_completed(), "marking segments does not complete");
        p.mark_completed();
        assert!(p.is_completed());
        // One segment closes on its first mark; zero clamps to one.
        assert!(QueryProgress::new(10, 1).mark_segment_completed());
        assert_eq!(QueryProgress::new(10, 0).segments_total(), 1);
    }

    #[test]
    fn estimated_remaining_shrinks_with_progress() {
        let p = QueryProgress::new(1000, 1);
        p.advance(100);
        std::thread::sleep(Duration::from_millis(5));
        let early = p.estimated_remaining().unwrap();
        p.advance(800);
        let late = p.estimated_remaining().unwrap();
        assert!(late < early, "{late:?} should be below {early:?}");
    }
}
