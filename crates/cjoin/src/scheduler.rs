//! Parallelism widths: the two axes and the log of width changes.
//!
//! Every width lives in one place, the engine's current
//! [`CjoinConfig`]. The shards' default width is sized from the host once,
//! when the configuration is built ([`crate::config::shard_width_for`]); the
//! scan axis defaults to the classic width 1. Nothing changes a
//! width at run time except the supervisor stepping a failed axis down. Each
//! such change is recorded as a [`ResizeEvent`], and [`SchedulerStats`] — in
//! [`crate::stats::PipelineStats`] and, summarised, over the server stats RPC —
//! reports the current widths beside that log.

use std::collections::VecDeque;

use crate::config::CjoinConfig;

/// A parallelism axis of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Continuous-scan (Preprocessor) workers — `CjoinConfig::scan_workers`.
    ScanWorkers,
    /// Aggregation (Distributor) shards — `CjoinConfig::distributor_shards`.
    DistributorShards,
}

impl Axis {
    /// The [`CjoinConfig`] field that holds this axis's width.
    pub fn width_in(self, config: &mut CjoinConfig) -> &mut usize {
        match self {
            Axis::ScanWorkers => &mut config.scan_workers,
            Axis::DistributorShards => &mut config.distributor_shards,
        }
    }

    /// Display name used in logs and over the stats RPC.
    pub fn label(self) -> &'static str {
        match self {
            Axis::ScanWorkers => "scan-workers",
            Axis::DistributorShards => "distributor-shards",
        }
    }
}

/// One recorded width change: the supervisor degraded the axis after a role
/// failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeEvent {
    /// The axis that changed.
    pub axis: Axis,
    /// Width before the change.
    pub from: usize,
    /// Width after the change.
    pub to: usize,
    /// `scan_passes` when the change was applied.
    pub pass: u64,
}

/// Point-in-time snapshot of the engine's widths and how they were reached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulerStats {
    /// Whether the engine started at the host-derived shard width
    /// ([`crate::config::shard_width_for`] of `available_parallelism`).
    pub auto_tune: bool,
    /// `available_parallelism()` observed at engine start.
    pub available_parallelism: usize,
    /// Current scan-worker width.
    pub scan_workers: usize,
    /// Always 0: the pipeline has no Stage. Kept because the stats consumers
    /// read it by name.
    pub stage_workers: usize,
    /// Current Distributor-shard width.
    pub distributor_shards: usize,
    /// Every width change since engine start, in order.
    pub resizes: Vec<ResizeEvent>,
}

/// Cap on recorded resize events (oldest dropped beyond this; a healthy
/// engine records a handful, so this only bounds pathological churn).
const MAX_EVENTS: usize = 256;

/// The width changes of one engine, oldest first, bounded at 256 events.
#[derive(Debug, Default)]
pub(crate) struct ResizeLog(VecDeque<ResizeEvent>);

impl ResizeLog {
    /// Records `event`, unless it changes nothing.
    pub(crate) fn push(&mut self, event: ResizeEvent) {
        if event.from == event.to {
            return;
        }
        if self.0.len() == MAX_EVENTS {
            self.0.pop_front();
        }
        self.0.push_back(event);
    }

    /// The recorded events, oldest first.
    pub(crate) fn events(&self) -> Vec<ResizeEvent> {
        self.0.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_log_skips_no_op_events_and_keeps_the_newest() {
        let event = |to| ResizeEvent {
            axis: Axis::ScanWorkers,
            from: 1,
            to,
            pass: 0,
        };
        let mut log = ResizeLog::default();
        log.push(event(1));
        assert!(log.events().is_empty(), "same-width change records nothing");
        for to in 2..MAX_EVENTS + 12 {
            log.push(event(to));
        }
        let events = log.events();
        assert_eq!(events.len(), MAX_EVENTS);
        assert_eq!(events[0].to, 12, "the oldest are dropped");
        assert_eq!(events[MAX_EVENTS - 1].to, MAX_EVENTS + 11);
    }
}
