//! Deterministic fault injection for supervision tests.
//!
//! A [`FaultPlan`] is a seeded, declarative schedule of faults — panics at
//! named pipeline sites, artificial queue delays, and corrupted columnar row
//! groups — attached to a [`CjoinConfig`](crate::config::CjoinConfig) before
//! the engine starts. The plan is deliberately *deterministic*: the same seed
//! and builder calls produce the same fault at the same site event count every
//! run, so a failing supervision test replays exactly.
//!
//! Cost when disabled: the config carries `Option<Arc<FaultPlan>>` defaulting
//! to `None`, and every injection point is a single branch on that `None`
//! ([`inject`]). No atomics are touched and nothing is allocated on the hot
//! path unless a plan is installed.
//!
//! Each scheduled panic fires **exactly once** per plan (a fired latch), at the
//! first site event whose ordinal reaches the seed-derived trigger. Delays fire
//! on every event at their site. Corrupted row groups are applied by the engine
//! to its columnar replica at build time, so the per-group checksums
//! ([`cjoin_storage::ColumnarTable::verify_group`]) catch real corruption, not
//! a simulated flag.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A named pipeline site where faults can be injected.
///
/// One variant per supervised role kind with an input loop, plus the WAL's
/// I/O points; the injection hook sits inside the role's main loop, so a
/// scheduled panic exercises exactly the thread-death path the supervisor must
/// recover from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A scan worker.
    ScanWorker,
    /// A distributor shard: the hook fires as the shard takes a message, so a
    /// panic lands in the role that runs both the Filter chain and the
    /// aggregation.
    DistributorShard,
    /// A WAL record append on the durable ingestion path.
    WalAppend,
    /// A WAL fsync (commit-marker durability point).
    WalSync,
    /// WAL replay during engine-start crash recovery.
    WalReplay,
}

impl FaultSite {
    /// All sites, for matrix tests.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::ScanWorker,
        FaultSite::DistributorShard,
        FaultSite::WalAppend,
        FaultSite::WalSync,
        FaultSite::WalReplay,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::ScanWorker => 0,
            FaultSite::DistributorShard => 1,
            FaultSite::WalAppend => 2,
            FaultSite::WalSync => 3,
            FaultSite::WalReplay => 4,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultSite::ScanWorker => "scan-worker",
            FaultSite::DistributorShard => "distributor-shard",
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalSync => "wal-sync",
            FaultSite::WalReplay => "wal-replay",
        };
        f.write_str(name)
    }
}

#[derive(Debug)]
struct PanicSpec {
    site: FaultSite,
    /// Site event ordinal at (or after) which the panic fires.
    at_event: u64,
    fired: AtomicBool,
}

#[derive(Debug, Clone, Copy)]
struct DelaySpec {
    site: FaultSite,
    delay: Duration,
}

/// A seeded, declarative fault schedule (see the module docs).
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    panics: Vec<PanicSpec>,
    delays: Vec<DelaySpec>,
    corrupt_groups: Vec<usize>,
    /// WAL-append ordinals at which the engine tears the log (truncates the
    /// record mid-write) and simulates a crash. One-shot each.
    torn_writes: Vec<(u64, AtomicBool)>,
    /// Absolute WAL byte offsets the engine silently bit-flips after its next
    /// commit — surfaces only at replay, as a checksum mismatch.
    byte_flips: Vec<u64>,
    hits: [AtomicU64; FaultSite::ALL.len()],
}

/// Plans are compared by their *schedule* (seed + declared faults), ignoring
/// runtime hit counts, so [`CjoinConfig`](crate::config::CjoinConfig) can keep
/// deriving `PartialEq`.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.corrupt_groups == other.corrupt_groups
            && self.byte_flips == other.byte_flips
            && self.torn_writes.len() == other.torn_writes.len()
            && self
                .torn_writes
                .iter()
                .zip(&other.torn_writes)
                .all(|(a, b)| a.0 == b.0)
            && self.panics.len() == other.panics.len()
            && self
                .panics
                .iter()
                .zip(&other.panics)
                .all(|(a, b)| a.site == b.site && a.at_event == b.at_event)
            && self.delays.len() == other.delays.len()
            && self
                .delays
                .iter()
                .zip(&other.delays)
                .all(|(a, b)| a.site == b.site && a.delay == b.delay)
    }
}

impl FaultPlan {
    /// Starts an empty plan whose trigger ordinals derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Schedules one panic at `site`, firing at a seed-derived early event
    /// ordinal (so different seeds exercise slightly different interleavings).
    pub fn panic_at(self, site: FaultSite) -> Self {
        // Keep the trigger small: the matrix tests want the fault to land while
        // queries are in flight, not after thousands of idle loop iterations.
        let at_event = self.seed % 4;
        self.panic_at_event(site, at_event)
    }

    /// Schedules one panic at `site`, firing at the first event whose ordinal
    /// is `>= at_event`.
    pub fn panic_at_event(mut self, site: FaultSite, at_event: u64) -> Self {
        self.panics.push(PanicSpec {
            site,
            at_event,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Adds `micros` of sleep to every event at `site` (queue-delay fault).
    pub fn delay(mut self, site: FaultSite, micros: u64) -> Self {
        self.delays.push(DelaySpec {
            site,
            delay: Duration::from_micros(micros),
        });
        self
    }

    /// Marks columnar row group `group` for bit-flip corruption at engine
    /// build time (checksum-quarantine fault).
    pub fn corrupt_row_group(mut self, group: usize) -> Self {
        self.corrupt_groups.push(group);
        self
    }

    /// Schedules a torn write: at the `at_append`-th WAL append (0-based, as
    /// counted by the [`FaultSite::WalAppend`] hit ordinal), the engine
    /// truncates the log mid-record and simulates a crash of the ingest
    /// session. One-shot, like scheduled panics.
    pub fn torn_write_at(mut self, at_append: u64) -> Self {
        self.torn_writes.push((at_append, AtomicBool::new(false)));
        self
    }

    /// Schedules a silent bit-flip of the WAL byte at `offset`, applied by the
    /// engine after its next durable commit. The corruption is *not* detected
    /// at write time — that is the point: it must surface at replay as a
    /// checksum-mismatch truncation.
    pub fn flip_wal_byte(mut self, offset: u64) -> Self {
        self.byte_flips.push(offset);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Row groups the engine must corrupt in its columnar replica.
    pub fn corrupt_groups(&self) -> &[usize] {
        &self.corrupt_groups
    }

    /// The plan's seed (diagnostics).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Events observed at `site` so far (test introspection).
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.hits[site.index()].load(Ordering::Relaxed)
    }

    /// Consumes (one-shot) a scheduled torn write due at WAL-append ordinal
    /// `event`. The engine calls this with the current
    /// [`FaultSite::WalAppend`] hit count; a `true` return means: tear the log
    /// now and simulate the crash.
    pub fn take_torn_write(&self, event: u64) -> bool {
        self.torn_writes
            .iter()
            .any(|(at, fired)| event >= *at && !fired.swap(true, Ordering::AcqRel))
    }

    /// WAL byte offsets scheduled for silent bit-flips.
    pub fn wal_byte_flips(&self) -> &[u64] {
        &self.byte_flips
    }

    /// Records one event at `site`: applies scheduled delays, then panics if an
    /// unfired panic's trigger ordinal has been reached.
    ///
    /// # Panics
    /// By design — this is the injection point the supervisor recovers from.
    pub fn hit(&self, site: FaultSite) {
        let event = self.hits[site.index()].fetch_add(1, Ordering::Relaxed);
        for d in &self.delays {
            if d.site == site {
                std::thread::sleep(d.delay);
            }
        }
        for p in &self.panics {
            if p.site == site && event >= p.at_event && !p.fired.swap(true, Ordering::AcqRel) {
                panic!(
                    "injected fault at {site} (event {event}, seed {})",
                    self.seed
                );
            }
        }
    }
}

/// The zero-cost-when-disabled injection hook: a single branch on `None`.
///
/// # Panics
/// Propagates a scheduled [`FaultPlan::hit`] panic.
#[inline]
pub fn inject(plan: &Option<Arc<FaultPlan>>, site: FaultSite) {
    if let Some(plan) = plan {
        plan.hit(site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_fires_exactly_once_at_seeded_event() {
        let plan = FaultPlan::seeded(7)
            .panic_at(FaultSite::DistributorShard)
            .build();
        // seed 7 -> trigger at event 3.
        for _ in 0..3 {
            plan.hit(FaultSite::DistributorShard);
        }
        let p = plan.clone();
        let err = std::panic::catch_unwind(move || p.hit(FaultSite::DistributorShard)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("distributor-shard"), "{msg}");
        // The latch prevents a second panic at the same site.
        plan.hit(FaultSite::DistributorShard);
        assert_eq!(plan.hits(FaultSite::DistributorShard), 5);
    }

    #[test]
    fn sites_are_independent_and_unplanned_sites_are_free() {
        let plan = FaultPlan::seeded(0).panic_at(FaultSite::ScanWorker).build();
        for _ in 0..100 {
            plan.hit(FaultSite::DistributorShard);
        }
        assert_eq!(plan.hits(FaultSite::DistributorShard), 100);
        assert!(std::panic::catch_unwind(move || plan.hit(FaultSite::ScanWorker)).is_err());
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        inject(&None, FaultSite::DistributorShard);
        let plan = FaultPlan::seeded(1).build();
        inject(&Some(Arc::clone(&plan)), FaultSite::DistributorShard);
        assert_eq!(plan.hits(FaultSite::DistributorShard), 1);
    }

    #[test]
    fn plans_compare_by_schedule_not_runtime_state() {
        let a = FaultPlan::seeded(3).panic_at(FaultSite::ScanWorker);
        let b = FaultPlan::seeded(3).panic_at(FaultSite::ScanWorker);
        a.hit(FaultSite::DistributorShard);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(4).panic_at(FaultSite::ScanWorker);
        assert_ne!(a, c);
    }

    #[test]
    fn wal_sites_are_injectable_and_displayed() {
        assert_eq!(FaultSite::ALL.len(), 5);
        let plan = FaultPlan::seeded(0).panic_at(FaultSite::WalSync).build();
        plan.hit(FaultSite::WalAppend);
        plan.hit(FaultSite::WalReplay);
        assert_eq!(plan.hits(FaultSite::WalAppend), 1);
        assert_eq!(plan.hits(FaultSite::WalReplay), 1);
        assert_eq!(FaultSite::WalAppend.to_string(), "wal-append");
        assert_eq!(FaultSite::WalSync.to_string(), "wal-sync");
        assert_eq!(FaultSite::WalReplay.to_string(), "wal-replay");
        assert!(std::panic::catch_unwind(move || plan.hit(FaultSite::WalSync)).is_err());
    }

    #[test]
    fn torn_writes_are_one_shot_and_byte_flips_recorded() {
        let plan = FaultPlan::seeded(0)
            .torn_write_at(2)
            .flip_wal_byte(17)
            .build();
        assert!(!plan.take_torn_write(0), "not due yet");
        assert!(!plan.take_torn_write(1));
        assert!(plan.take_torn_write(2), "due at its append ordinal");
        assert!(!plan.take_torn_write(3), "one-shot latch");
        assert_eq!(plan.wal_byte_flips(), &[17]);
        // Schedule equality ignores the fired latch.
        let a = FaultPlan::seeded(1).torn_write_at(5);
        let b = FaultPlan::seeded(1).torn_write_at(5);
        a.take_torn_write(5);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(1).torn_write_at(6));
    }

    #[test]
    fn delays_and_corruption_are_recorded() {
        let plan = FaultPlan::seeded(9)
            .delay(FaultSite::ScanWorker, 1)
            .corrupt_row_group(2)
            .corrupt_row_group(5)
            .build();
        plan.hit(FaultSite::ScanWorker);
        assert_eq!(plan.corrupt_groups(), &[2, 5]);
        assert_eq!(plan.seed(), 9);
    }
}
