//! The pipeline's thread layout (§4) and its supervision.
//!
//! The paper boxes the Filters into *Stages* and measures the *horizontal*
//! layout best (Figure 4): every worker thread runs the whole Filter sequence
//! on disjoint batches. Here those workers are the **Distributor shards**:
//! `CjoinConfig::distributor_shards` threads, each reading its own lane, each
//! running the whole join for the batches on it — the current Filter chain
//! (minus the one Filter the scan may already have probed), then aggregation
//! (see [`crate::distributor`]). That is HoneyComb's per-core layout: a batch
//! crosses one thread hop, scan → shard.
//!
//! Upstream sits the **scan front-end**: `CjoinConfig::scan_workers` scan
//! worker threads, each over its own segment of the fact table (see
//! [`crate::preprocessor`]). Each scan worker hands every batch it flushes,
//! whole, to the next shard in its own rotation, and broadcasts control tuples
//! to every lane itself, so a query's end travels in-band behind its data.
//!
//! The supervised roles are therefore two ([`RoleKind`]): scan worker and
//! distributor shard. Query lifecycle has no thread of its own — the
//! submitting thread enqueues a query's start tuple and hands the install to
//! every scan worker, the scan worker that finishes the query's pass last
//! emits its end tuple, and the shard that drains that end tuple last cleans
//! the query up (Algorithm 2) and delivers the result.
//! The engine's supervisor thread, outside the pipeline, re-derives the
//! Filter order (§3.4) on its timer.
//!
//! Which locks a role may hold while it sends on a lane is stated once, under
//! "Lock order" in [`crate::distributor`].
//!
//! # Supervision
//!
//! Every pipeline role is spawned through [`spawn_supervised`], which wraps the
//! role body in `catch_unwind` and reports a [`RoleFailure`] on the supervisor's
//! failure channel instead of silently unwinding the thread. Nothing in the
//! pipeline waits for another role to make progress except through a lane, so
//! a dead role can leave only two kinds of waiter behind:
//!
//! * the query's **end-barrier** (a query finalizes when the last of the N
//!   shards contributes its partial, and the closing scan worker only sends
//!   its end once every segment marked its pass complete) never completes if a
//!   shard or a scan worker died first, and
//! * a scan worker **blocked on a full lane** of a shard that died.
//!
//! The supervisor first resolves every in-flight query's outcome channel with
//! `QueryError::StageFailed` (so no client can observe a truncated `Ok`), then
//! tears the incarnation down: it sends every scan worker a shutdown command
//! and drops the engine's lane senders. A dead shard's receiver died with it,
//! so a scan worker blocked on its lane gets a send error; every other lane
//! keeps draining. Nobody blocks on the end-barrier — a contributing shard
//! leaves its partial in the slot and moves on — so its half-filled merge slots
//! die with the pipeline incarnation. Only after every thread is joined does
//! the supervisor respawn the pipeline with the failed axis stepped down.
//! Ordering matters: outcomes are resolved *before* the teardown, so an end
//! tuple that still reaches a shard can never deliver a result computed from a
//! partial scan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use crossbeam::channel::Sender;

use crate::scheduler::Axis;

/// Identity of one supervised pipeline role, used in thread names, failure
/// reports and [`cjoin_query::QueryError::StageFailed`] messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleKind {
    /// Scan worker `i`.
    ScanWorker(usize),
    /// Distributor shard `i`: the Filter chain, then aggregation.
    DistributorShard(usize),
}

impl RoleKind {
    /// The OS thread name the role runs under.
    pub fn thread_name(&self) -> String {
        match self {
            RoleKind::ScanWorker(i) => format!("cjoin-scan-w{i}"),
            RoleKind::DistributorShard(i) => format!("cjoin-distributor-s{i}"),
        }
    }

    /// The parallelism axis the role belongs to — the one the supervisor steps
    /// down after the role dies.
    pub fn axis(&self) -> Axis {
        match self {
            RoleKind::ScanWorker(_) => Axis::ScanWorkers,
            RoleKind::DistributorShard(_) => Axis::DistributorShards,
        }
    }
}

impl std::fmt::Display for RoleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoleKind::ScanWorker(i) => write!(f, "scan-worker-{i}"),
            RoleKind::DistributorShard(i) => write!(f, "distributor-shard-{i}"),
        }
    }
}

/// Report of a role thread that died by panic, sent to the supervisor.
#[derive(Debug, Clone)]
pub struct RoleFailure {
    /// Which role died.
    pub role: RoleKind,
    /// The panic payload, best effort (`&str`/`String` payloads are extracted,
    /// anything else is described generically).
    pub detail: String,
}

/// An event on the supervisor's channel.
///
/// The channel carries more than failures so the supervisor loop is the one
/// place that decides how to interleave recovery with housekeeping (the
/// deadline reaper, the Filter reordering). Benign traffic must never be able
/// to starve either: the supervisor keeps both on absolute deadlines regardless
/// of how fast events arrive (see `engine::run_supervisor`).
#[derive(Debug, Clone)]
pub enum SupervisorEvent {
    /// A supervised role died by panic; triggers resolve/teardown/respawn.
    Failure(RoleFailure),
    /// A query with a deadline was admitted. Purely a wake-up nudge so the
    /// reaper notices fresh deadlines promptly; carries no payload and
    /// requires no action beyond the loop's bounded reap.
    DeadlineAdmitted,
}

/// Renders a panic payload for a [`RoleFailure`].
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Spawns one pipeline role.
///
/// The role body runs under `catch_unwind`; a panic is converted into a
/// [`RoleFailure`] on `failure_tx` (best effort — if the supervisor is gone,
/// the failure is dropped and the thread just exits).
///
/// # Panics
/// Panics only if the OS refuses to spawn a thread.
pub fn spawn_supervised(
    role: RoleKind,
    failure_tx: Sender<SupervisorEvent>,
    f: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(role.thread_name())
        .spawn(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let failure = RoleFailure {
                    role,
                    detail: panic_detail(payload.as_ref()),
                };
                let _ = failure_tx.send(SupervisorEvent::Failure(failure));
            }
        })
        .expect("failed to spawn pipeline thread")
}
