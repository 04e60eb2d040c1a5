//! The elastic stage scheduler: self-tuning scan/stage/shard parallelism.
//!
//! On a small host every static `scan_workers`/`distributor_shards` step
//! *loses* throughput — the knobs are oblivious to the machine and the
//! workload. This module makes them earn their keep: a [`StageScheduler`] owns the *effective* width of each
//! parallelism axis (scan workers, filter-stage workers, Distributor shards),
//! sizes them at engine start from `std::thread::available_parallelism()`, and
//! re-sizes them at runtime from the live pipeline counters the engine already
//! collects (`barrier_wait_ns`, queue depths, pass durations) fed in as one
//! [`SchedulerTick`] per observation.
//!
//! # What the scheduler governs
//!
//! Only axes the user left alone. An axis is **governed** iff `auto_tune` is
//! on, the knob was not pinned by an explicit builder call
//! ([`crate::config::PinnedAxes`]), and its value equals the default (which
//! catches struct-update assignments too). Every explicitly configured
//! engine — the whole existing test/bench matrix — therefore behaves
//! bit-identically with the scheduler present.
//!
//! # Policy
//!
//! Each tick the policy compares the sample against the previous one and
//! reaches a [`BottleneckVerdict`]:
//!
//! * **Cores scarce** — the pipeline wants more threads than the host has:
//!   shrink the widest governed axis (on a 1-core host this and the startup
//!   sizing collapse everything to the classic single-threaded CJOIN shape).
//! * **Coordination overhead** — drain-barrier wait grew faster than a
//!   quarter of a pass: the fan-out is coordination, not compute; shrink it.
//! * **Stage/Distributor saturated** — an input queue is persistently ≥ ¾
//!   full: the stage behind it is the bottleneck; widen it if idle cores
//!   exist.
//! * **Scan starved** — queues run empty while queries are active: the scan
//!   cannot feed the pipeline; widen it if idle cores exist, otherwise shrink
//!   the starved downstream stages.
//!
//! # Hysteresis and the pass-boundary argument
//!
//! A resize is a heavyweight act: the engine drains the current pipeline
//! incarnation at a quiescent point and re-installs every in-flight query on
//! the new one, which restarts each query's pass (§3.3's wrap protocol makes
//! any complete pass over a query's snapshot produce the exact answer, so
//! correctness is indifferent to *where* the restart happens — the drain is
//! itself the natural pass boundary for every in-flight query). What hysteresis
//! must prevent is **livelock and oscillation**, not corruption:
//!
//! * a verdict must repeat for [`VERDICT_STREAK`] consecutive ticks before it
//!   acts — a transient queue spike never resizes anything;
//! * after any resize the policy holds off for [`COOLDOWN_TICKS`] ticks *and*
//!   until at least one full scan pass has completed ([`SchedulerTick::
//!   scan_passes`] advanced), so queries admitted before a resize finish
//!   before the next one can restart them — resizes can never starve query
//!   completion;
//! * opposing thresholds are far apart (widen at ¾-full, shrink at empty), so
//!   a stable workload reaches a fixed point instead of ping-ponging.
//!
//! Decisions, current widths and verdicts are exposed through
//! [`SchedulerStats`] in [`crate::stats::PipelineStats`] and over the server
//! stats RPC, so benches can show *why* the shape changed.

use parking_lot::Mutex;

use crate::config::CjoinConfig;

/// A resizable parallelism axis of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Continuous-scan (Preprocessor) workers — `CjoinConfig::scan_workers`.
    ScanWorkers,
    /// Stage worker threads — `CjoinConfig::worker_threads`.
    StageWorkers,
    /// Aggregation (Distributor) shards — `CjoinConfig::distributor_shards`.
    DistributorShards,
}

impl Axis {
    /// All axes, in scan→stage→distributor pipeline order.
    pub const ALL: [Axis; 3] = [
        Axis::ScanWorkers,
        Axis::StageWorkers,
        Axis::DistributorShards,
    ];

    fn index(self) -> usize {
        match self {
            Axis::ScanWorkers => 0,
            Axis::StageWorkers => 1,
            Axis::DistributorShards => 2,
        }
    }

    /// The [`CjoinConfig`] field that holds this axis's width.
    pub fn width_in(self, config: &mut CjoinConfig) -> &mut usize {
        match self {
            Axis::ScanWorkers => &mut config.scan_workers,
            Axis::StageWorkers => &mut config.worker_threads,
            Axis::DistributorShards => &mut config.distributor_shards,
        }
    }

    /// Display name used in logs and over the stats RPC.
    pub fn label(self) -> &'static str {
        match self {
            Axis::ScanWorkers => "scan-workers",
            Axis::StageWorkers => "stage-workers",
            Axis::DistributorShards => "distributor-shards",
        }
    }
}

/// What the tuning policy concluded about the pipeline on its last tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckVerdict {
    /// No axis stands out; leave the shape alone.
    Balanced,
    /// Queues run empty while queries are active: the scan cannot feed the
    /// pipeline fast enough.
    ScanStarved,
    /// The Stage's input queue is persistently deep.
    StageSaturated,
    /// A Distributor shard queue is persistently deep.
    DistributorSaturated,
    /// Drain-barrier wait grew out of proportion to the pass: the fan-out is
    /// coordination overhead, not useful parallelism.
    CoordinationOverhead,
    /// The host has fewer cores than the pipeline has threads.
    CoresScarce,
}

impl BottleneckVerdict {
    /// Display name used in logs and over the stats RPC.
    pub fn label(self) -> &'static str {
        match self {
            BottleneckVerdict::Balanced => "balanced",
            BottleneckVerdict::ScanStarved => "scan-starved",
            BottleneckVerdict::StageSaturated => "stage-saturated",
            BottleneckVerdict::DistributorSaturated => "distributor-saturated",
            BottleneckVerdict::CoordinationOverhead => "coordination-overhead",
            BottleneckVerdict::CoresScarce => "cores-scarce",
        }
    }
}

/// Why a width changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeReason {
    /// Startup sizing from `available_parallelism()`.
    Startup,
    /// The runtime tuning policy acted on a verdict.
    Policy(BottleneckVerdict),
    /// An explicit [`crate::engine::CjoinEngine::request_resize`] call.
    Forced,
    /// The supervisor degraded the axis after a role failure.
    Degraded,
}

/// One recorded width change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeEvent {
    /// The axis that changed.
    pub axis: Axis,
    /// Width before the change.
    pub from: usize,
    /// Width after the change.
    pub to: usize,
    /// Why it changed.
    pub reason: ResizeReason,
    /// `scan_passes` at decision time (0 for startup sizing).
    pub pass: u64,
}

/// One observation of the live pipeline, sampled by the engine's tuning
/// thread and fed to [`StageScheduler::tick`]. All counters are cumulative
/// engine-lifetime values; the policy works on deltas between consecutive
/// ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerTick {
    /// Completed full scan passes ([`crate::stats::SharedCounters`]).
    pub scan_passes: u64,
    /// Duration of the last completed pass, nanoseconds.
    pub last_pass_ns: u64,
    /// Cumulative drain-barrier wait, nanoseconds.
    pub barrier_wait_ns: u64,
    /// Current depth of the Stage's input queue, in batches.
    pub stage_queue_len: usize,
    /// Capacity of that queue, in batches.
    pub stage_queue_capacity: usize,
    /// Current depth of the deepest Distributor shard queue, in batches.
    pub distributor_queue_len: usize,
    /// Capacity of one shard queue, in batches.
    pub distributor_queue_capacity: usize,
    /// Queries currently registered.
    pub active_queries: usize,
    /// Batches currently in flight between pipeline threads.
    pub batches_in_flight: i64,
}

/// Point-in-time snapshot of the scheduler: the current shape, how it was
/// reached, and what the policy last concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerStats {
    /// Whether the runtime tuning policy is active for any axis.
    pub auto_tune: bool,
    /// `available_parallelism()` observed at engine start.
    pub available_parallelism: usize,
    /// Current scan-worker width.
    pub scan_workers: usize,
    /// Current stage-worker width.
    pub stage_workers: usize,
    /// Current Distributor-shard width.
    pub distributor_shards: usize,
    /// Which axes the scheduler governs (unpinned, default-valued knobs).
    pub governed: [bool; 3],
    /// Policy ticks observed so far.
    pub ticks: u64,
    /// The policy's latest verdict (`None` before the first tick).
    pub last_verdict: Option<BottleneckVerdict>,
    /// Every width change since engine start, in order.
    pub resizes: Vec<ResizeEvent>,
}

impl Default for SchedulerStats {
    fn default() -> Self {
        Self {
            auto_tune: false,
            available_parallelism: 1,
            scan_workers: 1,
            stage_workers: 1,
            distributor_shards: 1,
            governed: [false; 3],
            ticks: 0,
            last_verdict: None,
            resizes: Vec::new(),
        }
    }
}

/// A verdict must repeat this many consecutive ticks before the policy acts.
pub const VERDICT_STREAK: u32 = 3;
/// Ticks the policy holds off after any resize (forced or policy-driven).
pub const COOLDOWN_TICKS: u32 = 10;
/// Hard cap on scan workers (mirrors config validation).
const MAX_SCAN_WORKERS: usize = 64;
/// Hard cap on distributor shards (mirrors config validation).
const MAX_DISTRIBUTOR_SHARDS: usize = 256;
/// Cap on recorded resize events (oldest dropped beyond this; a healthy
/// engine records a handful, so this only bounds pathological churn).
const MAX_EVENTS: usize = 256;

#[derive(Debug)]
struct Inner {
    widths: [usize; 3],
    last_sample: Option<SchedulerTick>,
    last_verdict: Option<BottleneckVerdict>,
    /// The pending proposal and how many consecutive ticks reached it.
    streak: Option<(Axis, usize, BottleneckVerdict, u32)>,
    cooldown: u32,
    /// `scan_passes` at the last resize: the policy waits for at least one
    /// completed pass beyond this before resizing again.
    resize_pass_floor: u64,
    ticks: u64,
    events: Vec<ResizeEvent>,
}

/// Owns the effective per-axis parallelism widths of one engine and the
/// runtime tuning policy that adjusts them. Spawn/resize/teardown mechanics
/// stay in the engine (they need the pipeline core); the scheduler is the
/// single source of truth for *how wide* each axis should be.
#[derive(Debug)]
pub struct StageScheduler {
    auto_tune: bool,
    governed: [bool; 3],
    /// Per-axis upper bounds the policy may scale to.
    caps: [usize; 3],
    cores: usize,
    inner: Mutex<Inner>,
}

impl StageScheduler {
    /// Builds the scheduler for `config`, sizing governed axes from the
    /// detected `available_parallelism()`.
    pub fn new(config: &CjoinConfig) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_cores(config, cores)
    }

    /// Like [`StageScheduler::new`] with an explicit core count (tests).
    pub fn with_cores(config: &CjoinConfig, cores: usize) -> Self {
        let cores = cores.max(1);
        let defaults = CjoinConfig::default();
        // Governed = auto-tune on, not pinned by a builder call, and still at
        // the default value (catches struct-update assignments).
        let governed = [
            config.auto_tune
                && !config.pinned.scan_workers
                && config.scan_workers == defaults.scan_workers,
            config.auto_tune
                && !config.pinned.worker_threads
                && config.worker_threads == defaults.worker_threads,
            config.auto_tune
                && !config.pinned.distributor_shards
                && config.distributor_shards == defaults.distributor_shards,
        ];
        let caps = [
            cores.min(MAX_SCAN_WORKERS),
            // The configured value is the stage ceiling: startup may shrink
            // the default below it, the policy never grows past it.
            config.worker_threads.max(1),
            cores.min(MAX_DISTRIBUTOR_SHARDS),
        ];
        let mut widths = [
            config.scan_workers,
            config.worker_threads,
            config.distributor_shards,
        ];
        let mut events = Vec::new();
        if governed[Axis::StageWorkers.index()] {
            // Startup sizing: leave one core each for the scan and the
            // aggregation stage, never exceed the configured ceiling, never
            // drop below the classic single worker. On a 1-core host this is
            // exactly the paper's classic single-threaded shape.
            let sized = cores.saturating_sub(2).clamp(1, caps[1]);
            if sized != widths[1] {
                events.push(ResizeEvent {
                    axis: Axis::StageWorkers,
                    from: widths[1],
                    to: sized,
                    reason: ResizeReason::Startup,
                    pass: 0,
                });
                widths[1] = sized;
            }
        }
        // Governed scan/shard axes start at the classic width 1 (their
        // default); the runtime policy may widen them later when queues show
        // demand and idle cores exist, so no startup event fires for them.
        Self {
            auto_tune: config.auto_tune,
            governed,
            caps,
            cores,
            inner: Mutex::new(Inner {
                widths,
                last_sample: None,
                last_verdict: None,
                streak: None,
                cooldown: 0,
                resize_pass_floor: 0,
                ticks: 0,
                events,
            }),
        }
    }

    /// Whether the runtime tuning policy has anything to govern.
    pub fn any_governed(&self) -> bool {
        self.auto_tune && self.governed.iter().any(|&g| g)
    }

    /// Number of cores observed at engine start.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Current `(scan_workers, stage_workers, distributor_shards)` widths.
    pub fn widths(&self) -> (usize, usize, usize) {
        let w = self.inner.lock().widths;
        (w[0], w[1], w[2])
    }

    /// `config` with governed axes overridden by the scheduler's current
    /// widths — what the engine actually spawns a pipeline incarnation from.
    /// Pinned axes keep their (possibly supervisor-degraded) config values.
    pub fn effective_config(&self, config: &CjoinConfig) -> CjoinConfig {
        let mut effective = config.clone();
        let widths = self.inner.lock().widths;
        if self.governed[0] {
            effective.scan_workers = widths[0];
        }
        if self.governed[1] {
            effective.worker_threads = widths[1];
        }
        if self.governed[2] {
            effective.distributor_shards = widths[2];
        }
        effective
    }

    /// Records a committed width change (the engine calls this after the
    /// pipeline was actually re-spawned at the new width). Returns the
    /// previous width.
    pub fn commit_resize(&self, axis: Axis, to: usize, reason: ResizeReason, pass: u64) -> usize {
        let mut inner = self.inner.lock();
        let from = inner.widths[axis.index()];
        inner.widths[axis.index()] = to;
        if from != to {
            if inner.events.len() >= MAX_EVENTS {
                inner.events.remove(0);
            }
            inner.events.push(ResizeEvent {
                axis,
                from,
                to,
                reason,
                pass,
            });
        }
        // Any committed change restarts the hysteresis clock: hold the policy
        // off for a cooldown and at least one completed pass.
        inner.streak = None;
        inner.cooldown = COOLDOWN_TICKS;
        inner.resize_pass_floor = pass;
        from
    }

    /// One observation of the live pipeline. Returns a resize proposal —
    /// `(axis, target width, verdict)` — once a verdict has survived the
    /// hysteresis guards, `None` otherwise. The engine applies the proposal
    /// (pipeline swap + query re-install) and then calls
    /// [`StageScheduler::commit_resize`].
    pub fn tick(&self, sample: SchedulerTick) -> Option<(Axis, usize, BottleneckVerdict)> {
        let mut inner = self.inner.lock();
        inner.ticks += 1;
        let prev = inner.last_sample.replace(sample);
        let Some(prev) = prev else {
            return None; // need two samples for deltas
        };
        let (verdict, proposal) = self.propose(&inner.widths, &prev, &sample);
        inner.last_verdict = Some(verdict);
        if inner.cooldown > 0 {
            inner.cooldown -= 1;
            inner.streak = None;
            return None;
        }
        // Pass-boundary guard: queries admitted before the last resize must
        // complete a pass before the next resize can restart them.
        if sample.scan_passes <= inner.resize_pass_floor {
            inner.streak = None;
            return None;
        }
        let Some((axis, target)) = proposal else {
            inner.streak = None;
            return None;
        };
        let streak = match inner.streak {
            Some((a, t, v, n)) if a == axis && t == target && v == verdict => n + 1,
            _ => 1,
        };
        if streak >= VERDICT_STREAK {
            inner.streak = None;
            inner.cooldown = COOLDOWN_TICKS;
            Some((axis, target, verdict))
        } else {
            inner.streak = Some((axis, target, verdict, streak));
            None
        }
    }

    /// The pure policy: verdict plus (optionally) the one-step resize it
    /// implies for the current widths.
    fn propose(
        &self,
        widths: &[usize; 3],
        prev: &SchedulerTick,
        cur: &SchedulerTick,
    ) -> (BottleneckVerdict, Option<(Axis, usize)>) {
        if cur.active_queries == 0 {
            return (BottleneckVerdict::Balanced, None);
        }
        let governed = |axis: Axis| self.governed[axis.index()];
        let width = |axis: Axis| widths[axis.index()];
        // Rough thread demand: one thread per unit of each axis's width.
        let demand = widths.iter().sum::<usize>();
        let headroom = demand < self.cores;

        // 1. More threads than cores: shrink the widest governed axis.
        if demand > self.cores {
            let widest = Axis::ALL
                .into_iter()
                .filter(|&a| governed(a) && width(a) > 1)
                .max_by_key(|&a| width(a));
            if let Some(axis) = widest {
                return (
                    BottleneckVerdict::CoresScarce,
                    Some((axis, width(axis) - 1)),
                );
            }
        }

        // 2. Coordination overhead: barrier wait grew by more than a quarter
        // of a pass since the last tick. Only meaningful when a pass completed
        // in between (the barrier counter advances at control-tuple drains).
        let barrier_delta = cur.barrier_wait_ns.saturating_sub(prev.barrier_wait_ns);
        if cur.scan_passes > prev.scan_passes
            && cur.last_pass_ns > 0
            && barrier_delta * 4 > cur.last_pass_ns
        {
            for axis in [Axis::ScanWorkers, Axis::DistributorShards] {
                if governed(axis) && width(axis) > 1 {
                    return (
                        BottleneckVerdict::CoordinationOverhead,
                        Some((axis, width(axis) - 1)),
                    );
                }
            }
        }

        // 3. A persistently deep input queue marks the stage behind it as the
        // bottleneck; widen it when idle cores exist.
        let deep = |len: usize, cap: usize| cap > 0 && len * 4 >= cap * 3;
        if deep(cur.stage_queue_len, cur.stage_queue_capacity)
            && deep(prev.stage_queue_len, prev.stage_queue_capacity)
        {
            let target = width(Axis::StageWorkers) + 1;
            let act = governed(Axis::StageWorkers)
                && target <= self.caps[Axis::StageWorkers.index()]
                && headroom;
            return (
                BottleneckVerdict::StageSaturated,
                act.then_some((Axis::StageWorkers, target)),
            );
        }
        if deep(cur.distributor_queue_len, cur.distributor_queue_capacity)
            && deep(prev.distributor_queue_len, prev.distributor_queue_capacity)
        {
            let target = width(Axis::DistributorShards) + 1;
            let act = governed(Axis::DistributorShards)
                && target <= self.caps[Axis::DistributorShards.index()]
                && headroom;
            return (
                BottleneckVerdict::DistributorSaturated,
                act.then_some((Axis::DistributorShards, target)),
            );
        }

        // 4. Queues empty on consecutive ticks while queries are active: the
        // scan is the bottleneck. Widen it when cores allow; otherwise the
        // starved downstream fan-out is pure overhead — shrink it.
        if cur.stage_queue_len == 0
            && cur.distributor_queue_len == 0
            && prev.stage_queue_len == 0
            && prev.distributor_queue_len == 0
        {
            let target = width(Axis::ScanWorkers) + 1;
            if governed(Axis::ScanWorkers)
                && target <= self.caps[Axis::ScanWorkers.index()]
                && headroom
            {
                return (
                    BottleneckVerdict::ScanStarved,
                    Some((Axis::ScanWorkers, target)),
                );
            }
            for axis in [Axis::StageWorkers, Axis::DistributorShards] {
                if governed(axis) && width(axis) > 1 {
                    return (
                        BottleneckVerdict::CoordinationOverhead,
                        Some((axis, width(axis) - 1)),
                    );
                }
            }
            return (BottleneckVerdict::ScanStarved, None);
        }

        (BottleneckVerdict::Balanced, None)
    }

    /// Point-in-time snapshot for [`crate::stats::PipelineStats`] and the
    /// server stats RPC.
    pub fn snapshot(&self) -> SchedulerStats {
        let inner = self.inner.lock();
        SchedulerStats {
            auto_tune: self.auto_tune,
            available_parallelism: self.cores,
            scan_workers: inner.widths[0],
            stage_workers: inner.widths[1],
            distributor_shards: inner.widths[2],
            governed: self.governed,
            ticks: inner.ticks,
            last_verdict: inner.last_verdict,
            resizes: inner.events.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpinned() -> CjoinConfig {
        CjoinConfig::default()
    }

    fn tick_with(
        scheduler: &StageScheduler,
        sample: SchedulerTick,
        n: u32,
    ) -> Option<(Axis, usize, BottleneckVerdict)> {
        let mut out = None;
        for _ in 0..n {
            out = scheduler.tick(sample);
            if out.is_some() {
                break;
            }
        }
        out
    }

    #[test]
    fn one_core_startup_collapses_to_the_classic_shape() {
        let s = StageScheduler::with_cores(&unpinned(), 1);
        assert_eq!(s.widths(), (1, 1, 1));
        let stats = s.snapshot();
        assert_eq!(stats.governed, [true, true, true]);
        assert_eq!(stats.resizes.len(), 1, "stage axis collapsed at startup");
        assert_eq!(stats.resizes[0].reason, ResizeReason::Startup);
        assert_eq!(stats.resizes[0].from, 4);
        assert_eq!(stats.resizes[0].to, 1);
    }

    #[test]
    fn many_cores_keep_the_configured_stage_ceiling() {
        let s = StageScheduler::with_cores(&unpinned(), 16);
        // cores - 2 exceeds the default ceiling of 4, so the width stays 4
        // and no startup event fires.
        assert_eq!(s.widths(), (1, 4, 1));
        assert!(s.snapshot().resizes.is_empty());
    }

    #[test]
    fn pinned_axes_are_never_governed() {
        let config = CjoinConfig::default()
            .with_scan_workers(4)
            .with_worker_threads(2)
            .with_distributor_shards(4);
        let s = StageScheduler::with_cores(&config, 1);
        assert!(!s.any_governed());
        assert_eq!(s.widths(), (4, 2, 4), "explicit knobs are fixed overrides");
        let effective = s.effective_config(&config);
        assert_eq!(effective, config, "effective config is bit-identical");
    }

    #[test]
    fn struct_update_values_count_as_pinned() {
        let config = CjoinConfig {
            scan_workers: 2,
            ..CjoinConfig::default()
        };
        let s = StageScheduler::with_cores(&config, 8);
        assert!(!s.snapshot().governed[0]);
        assert_eq!(s.effective_config(&config).scan_workers, 2);
    }

    #[test]
    fn auto_tune_off_governs_nothing() {
        let s = StageScheduler::with_cores(&unpinned().with_auto_tune(false), 1);
        assert!(!s.any_governed());
        assert_eq!(s.widths(), (1, 4, 1), "no startup sizing without auto-tune");
    }

    #[test]
    fn saturated_stage_queue_upscales_only_after_a_streak() {
        let s = StageScheduler::with_cores(&unpinned(), 16);
        // A degradation shrank the stage axis below its ceiling; a
        // persistently deep stage queue then argues for scaling back out.
        s.commit_resize(Axis::StageWorkers, 2, ResizeReason::Degraded, 0);
        let busy = SchedulerTick {
            scan_passes: 5,
            stage_queue_len: 8,
            stage_queue_capacity: 8,
            active_queries: 4,
            ..SchedulerTick::default()
        };
        // One tick primes the delta window, the commit's cooldown burns off,
        // and the verdict must then survive VERDICT_STREAK consecutive ticks.
        for _ in 0..1 + COOLDOWN_TICKS + VERDICT_STREAK - 1 {
            assert!(s.tick(busy).is_none());
        }
        let (axis, target, verdict) = s.tick(busy).expect("streak complete");
        assert_eq!(axis, Axis::StageWorkers);
        assert_eq!(target, 3);
        assert_eq!(verdict, BottleneckVerdict::StageSaturated);
        // The engine commits; the event is recorded and the cooldown holds
        // the policy off afterwards.
        s.commit_resize(
            axis,
            target,
            ResizeReason::Policy(verdict),
            busy.scan_passes,
        );
        assert_eq!(s.widths().1, 3);
        assert!(
            tick_with(&s, busy, COOLDOWN_TICKS).is_none(),
            "cooldown suppresses immediate re-resize"
        );
    }

    #[test]
    fn thread_demand_beyond_cores_is_shrunk() {
        let s = StageScheduler::with_cores(&unpinned(), 3);
        // A forced resize pushed the pipeline to more threads than the host
        // has cores; the policy walks it back regardless of queue state.
        s.commit_resize(Axis::StageWorkers, 3, ResizeReason::Forced, 0);
        let busy = SchedulerTick {
            scan_passes: 1,
            stage_queue_len: 4,
            stage_queue_capacity: 8,
            active_queries: 1,
            ..SchedulerTick::default()
        };
        let (axis, target, verdict) =
            tick_with(&s, busy, 1 + COOLDOWN_TICKS + VERDICT_STREAK + 1).expect("proposal");
        assert_eq!(axis, Axis::StageWorkers);
        assert_eq!(target, 2);
        assert_eq!(verdict, BottleneckVerdict::CoresScarce);
    }

    /// Thread demand counts the threads a shape spawns: one per scan worker,
    /// Stage worker and shard. Four of them on four cores is not scarce.
    #[test]
    fn thread_demand_counts_each_shard_once() {
        let s = StageScheduler::with_cores(&unpinned(), 4);
        s.commit_resize(Axis::StageWorkers, 1, ResizeReason::Forced, 0);
        s.commit_resize(Axis::DistributorShards, 2, ResizeReason::Forced, 0);
        assert_eq!(s.widths(), (1, 1, 2));
        let steady = SchedulerTick {
            scan_passes: 1,
            stage_queue_len: 2,
            stage_queue_capacity: 8,
            distributor_queue_len: 2,
            distributor_queue_capacity: 8,
            active_queries: 2,
            ..SchedulerTick::default()
        };
        assert!(tick_with(&s, steady, 1 + COOLDOWN_TICKS + VERDICT_STREAK + 1).is_none());
        assert_eq!(s.snapshot().last_verdict, Some(BottleneckVerdict::Balanced));
    }

    #[test]
    fn resizes_wait_for_a_completed_pass() {
        let s = StageScheduler::with_cores(&unpinned(), 16);
        let busy = SchedulerTick {
            scan_passes: 3,
            stage_queue_len: 8,
            stage_queue_capacity: 8,
            active_queries: 2,
            ..SchedulerTick::default()
        };
        s.commit_resize(Axis::StageWorkers, 2, ResizeReason::Forced, 3);
        // scan_passes never advances past the resize floor: no proposal, ever.
        assert!(tick_with(&s, busy, COOLDOWN_TICKS + 8).is_none());
        // One completed pass later the policy may act again.
        let advanced = SchedulerTick {
            scan_passes: 4,
            ..busy
        };
        assert!(tick_with(&s, advanced, VERDICT_STREAK + 1).is_some());
    }

    #[test]
    fn empty_queues_with_no_headroom_shrink_the_fanout() {
        // 4 cores: startup sizes the stage axis to 2 (cores − 2). With queues
        // running empty while queries are active and no headroom to widen the
        // scan, the starved stage fan-out is pure overhead and shrinks back
        // toward the classic shape.
        let s = StageScheduler::with_cores(&unpinned(), 4);
        assert_eq!(s.widths(), (1, 2, 1));
        let starved = SchedulerTick {
            scan_passes: 1,
            stage_queue_capacity: 8,
            distributor_queue_capacity: 8,
            active_queries: 2,
            ..SchedulerTick::default()
        };
        let (axis, target, verdict) = tick_with(&s, starved, VERDICT_STREAK + 2).expect("proposal");
        assert_eq!(axis, Axis::StageWorkers);
        assert_eq!(target, 1);
        assert_eq!(verdict, BottleneckVerdict::CoordinationOverhead);
    }

    #[test]
    fn idle_engines_stay_put() {
        let s = StageScheduler::with_cores(&unpinned(), 16);
        let idle = SchedulerTick {
            stage_queue_capacity: 8,
            distributor_queue_capacity: 8,
            ..SchedulerTick::default()
        };
        assert!(tick_with(&s, idle, 20).is_none());
        assert_eq!(s.snapshot().last_verdict, Some(BottleneckVerdict::Balanced));
    }

    #[test]
    fn commit_records_events_and_is_idempotent_on_equal_width() {
        let s = StageScheduler::with_cores(&unpinned(), 16);
        s.commit_resize(Axis::ScanWorkers, 2, ResizeReason::Forced, 1);
        s.commit_resize(Axis::ScanWorkers, 2, ResizeReason::Forced, 1);
        let stats = s.snapshot();
        assert_eq!(stats.scan_workers, 2);
        assert_eq!(stats.resizes.len(), 1, "same-width commit records no event");
        assert_eq!(stats.resizes[0].axis, Axis::ScanWorkers);
        assert_eq!(stats.resizes[0].reason, ResizeReason::Forced);
    }
}
