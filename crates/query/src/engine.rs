//! The [`JoinEngine`] abstraction: one operator interface, many engines.
//!
//! Every engine in the workspace — the shared always-on CJOIN pipeline, the
//! query-at-a-time baseline, and the galaxy executor that composes two CJOIN
//! pipelines — answers the same class of star queries. This module defines the
//! contract they share, so harness code (the closed-loop workload driver, the
//! correctness-oracle tests, the examples) is written once against
//! `&dyn JoinEngine` and future engines (partitioned, async, multi-backend) drop
//! in without touching it. Robustness-oriented join work compares strategies the
//! same way: a single harness over interchangeable operators.
//!
//! The lifecycle is **submit → wait → shutdown**:
//!
//! * [`JoinEngine::submit`] admits a query and returns a [`QueryTicket`] — the
//!   engine-independent completion handle. Engines with an admission pipeline
//!   (CJOIN) return immediately and evaluate in the background; engines without
//!   one (the baseline) may evaluate synchronously and return a pre-resolved
//!   ticket, which preserves exactly the blocking behaviour a conventional
//!   query-at-a-time DBMS exhibits on its connection thread.
//! * [`QueryTicket::wait`] blocks until the result is available.
//! * [`JoinEngine::shutdown`] releases engine resources; it must be idempotent.
//!
//! [`JoinEngine::stats`] reports the engine-independent [`EngineStats`] counters
//! the harness uses for sanity checks and throughput accounting.

use std::fmt;
use std::time::Duration;

use cjoin_common::{Error, Result};
use cjoin_storage::Value;

use crate::result::QueryResult;
use crate::star::StarQuery;

/// Why an admitted query failed to deliver a result.
///
/// Distinguishing these outcomes is what makes supervision honest: a client
/// waiting on a ticket learns whether its query died with a pipeline role
/// ([`QueryError::StageFailed`]), ran out of time ([`QueryError::DeadlineExceeded`]),
/// was cancelled, or was shed at admission because its deadline was already
/// unreachable given the scan's current position and pass time.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A pipeline role (scan worker, filter stage, distributor shard, ...)
    /// died while the query was in flight. The engine degrades and stays
    /// serviceable, but this query's partial state was discarded.
    StageFailed {
        /// Display name of the role that failed (e.g. `distributor-shard-1`).
        role: String,
        /// Panic payload or disconnect detail, best effort.
        detail: String,
    },
    /// The query's deadline passed before it completed; it was cancelled
    /// mid-scan and its partial state released.
    DeadlineExceeded {
        /// The deadline the query was submitted with.
        deadline: Duration,
    },
    /// The query was cancelled by the client before completion.
    Cancelled,
    /// Admission control refused the query outright: its estimated completion
    /// time (current scan position + last pass time) already exceeded its
    /// deadline, so running it would only waste shared-scan work.
    ShedAtAdmission {
        /// The unreachable deadline.
        deadline: Duration,
        /// The admission-time completion estimate that exceeded it.
        estimated: Duration,
    },
    /// Any other engine failure (binding, admission, shutdown, ...).
    Engine(Error),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::StageFailed { role, detail } => {
                write!(f, "pipeline role '{role}' failed while query in flight: {detail}")
            }
            QueryError::DeadlineExceeded { deadline } => {
                write!(f, "query exceeded its deadline of {deadline:?} and was cancelled")
            }
            QueryError::Cancelled => write!(f, "query was cancelled"),
            QueryError::ShedAtAdmission {
                deadline,
                estimated,
            } => write!(
                f,
                "query shed at admission: estimated completion {estimated:?} exceeds deadline {deadline:?}"
            ),
            QueryError::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<Error> for QueryError {
    fn from(e: Error) -> Self {
        QueryError::Engine(e)
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Engine(inner) => inner,
            other => Error::invalid_state(other.to_string()),
        }
    }
}

/// Outcome of waiting on a [`QueryTicket`]: the result, or a typed failure.
pub type QueryOutcome = std::result::Result<QueryResult, QueryError>;

/// Completion handle for one submitted query.
///
/// Tickets are single-use: [`QueryTicket::wait`] consumes the ticket and yields
/// the query's result (or the engine's typed failure).
pub trait QueryTicket: Send {
    /// Blocks until the query completes and returns its outcome.
    ///
    /// Never hangs on a failed pipeline: supervision resolves every in-flight
    /// ticket with [`QueryError::StageFailed`] when a role dies.
    fn wait(self: Box<Self>) -> QueryOutcome;

    /// Requests cancellation of the query behind this ticket, best effort.
    ///
    /// A subsequent [`QueryTicket::wait`] resolves promptly — with
    /// [`QueryError::Cancelled`] if the cancel won, or with the query's real
    /// outcome if it raced completion. Engines that evaluate synchronously
    /// (the baseline's [`ReadyTicket`]) have nothing left to cancel, hence
    /// the default no-op.
    fn cancel(&self) {}
}

/// A ticket whose result was already computed at submission time, used by
/// engines that evaluate synchronously (e.g. the query-at-a-time baseline).
pub struct ReadyTicket(QueryOutcome);

impl ReadyTicket {
    /// Wraps an already-computed outcome.
    pub fn new(outcome: QueryOutcome) -> Self {
        Self(outcome)
    }
}

impl QueryTicket for ReadyTicket {
    fn wait(self: Box<Self>) -> QueryOutcome {
        self.0
    }
}

/// Engine-independent execution statistics.
///
/// Engines with richer internal telemetry (e.g. CJOIN's per-filter pipeline
/// stats) expose it through inherent methods; these are the counters every
/// engine can report and the harness relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries accepted by the engine since it started.
    pub queries_submitted: u64,
    /// Queries that ran to completion and delivered a result.
    pub queries_completed: u64,
    /// Queries currently admitted and not yet completed.
    pub active_queries: usize,
    /// Fact tuples read by the engine's scans (shared scans count each tuple
    /// once; per-query scans count it once per query).
    pub fact_tuples_scanned: u64,
}

/// A point-in-time summary of an engine's parallelism widths, when it has
/// them: the current width per pipeline axis, whether the shards started at
/// the host-derived default, and how many times a width changed.
///
/// Lives here (not in the CJOIN crate) so the server can report it over the
/// stats RPC through `&dyn JoinEngine` without depending on engine internals,
/// mirroring [`EngineStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerSummary {
    /// Whether the engine started at the host-derived shard width.
    pub auto_tune: bool,
    /// `std::thread::available_parallelism()` as observed at engine start.
    pub available_parallelism: u64,
    /// Current number of continuous-scan workers.
    pub scan_workers: u64,
    /// Always 0 for CJOIN, whose shards run the Filter chain; kept on the
    /// wire for the clients that read it.
    pub stage_workers: u64,
    /// Current number of aggregation (Distributor) shards.
    pub distributor_shards: u64,
    /// Total resize events since engine start (supervision degradations).
    pub resizes: u64,
}

/// One dimension row inserted or replaced by key (the row's `key_column`
/// value identifies the row it replaces).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DimUpsert {
    /// Dimension table name.
    pub table: String,
    /// Index of the column holding the dimension's key.
    pub key_column: usize,
    /// The new row.
    pub row: Vec<Value>,
}

/// One dimension row deleted by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DimDelete {
    /// Dimension table name.
    pub table: String,
    /// Index of the column holding the dimension's key.
    pub key_column: usize,
    /// Key of the row to delete.
    pub key: i64,
}

/// One atomic ingestion batch: fact appends plus dimension mutations that
/// become visible together under a single new snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestBatch {
    /// Rows appended to the fact table.
    pub facts: Vec<Vec<Value>>,
    /// Dimension rows inserted or replaced by key.
    pub dim_upserts: Vec<DimUpsert>,
    /// Dimension rows deleted by key.
    pub dim_deletes: Vec<DimDelete>,
}

impl IngestBatch {
    /// Total mutation records in the batch.
    pub fn len(&self) -> usize {
        self.facts.len() + self.dim_upserts.len() + self.dim_deletes.len()
    }

    /// Whether the batch carries no mutations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What an engine durably committed for one [`IngestBatch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The snapshot epoch the batch became visible under (queries admitted
    /// from now on see it; older snapshots never do).
    pub epoch: u64,
    /// Mutation records committed (the batch's length).
    pub records: u64,
    /// Logical WAL length after the batch's commit marker, in bytes (`0` for
    /// engines without a log).
    pub wal_bytes: u64,
}

/// The shared join-engine interface: submit / wait / shutdown / stats.
pub trait JoinEngine: Send + Sync {
    /// Short display name used in experiment tables and reports.
    fn name(&self) -> &str;

    /// Admits `query` and returns its completion ticket.
    ///
    /// # Errors
    /// Propagates engine-specific admission failures: binding errors, the
    /// engine's concurrency limit, or submission after shutdown.
    fn submit(&self, query: StarQuery) -> Result<Box<dyn QueryTicket>>;

    /// Convenience: submits `query` and blocks until its result is available.
    ///
    /// # Errors
    /// Propagates submission and wait errors (typed [`QueryError`] outcomes are
    /// flattened into [`cjoin_common::Error`] here; callers that care about the
    /// distinction should use [`JoinEngine::submit`] + [`QueryTicket::wait`]).
    fn execute(&self, query: &StarQuery) -> Result<QueryResult> {
        self.submit(query.clone())?.wait().map_err(Error::from)
    }

    /// Engine-independent execution counters.
    fn stats(&self) -> EngineStats;

    /// The engine's current completion-time estimate for a freshly admitted
    /// query: install latency plus one full scan cycle at the observed scan
    /// rate. `None` when the engine has no estimate yet (no completed pass) or
    /// does not model one (the baseline). Admission layers — CJOIN's own
    /// pre-shed and the server front door — quote deadlines against this.
    fn quote_eta(&self) -> Option<Duration> {
        None
    }

    /// The engine's width summary: current per-axis parallelism widths and
    /// the number of resizes. `None` for engines without resizable axes (the
    /// baseline, remote engines talking to an old server).
    fn scheduler_summary(&self) -> Option<SchedulerSummary> {
        None
    }

    /// Atomically applies one ingestion batch: every mutation becomes visible
    /// together under a single new snapshot, and — for engines with a
    /// write-ahead log — only after the batch's commit marker is durable.
    /// Queries already in flight (pinned at older snapshots) never observe any
    /// part of the batch.
    ///
    /// # Errors
    /// The default rejects ingestion (engines without a mutation path); other
    /// failures are engine-specific (schema mismatch, log I/O, shutdown). On
    /// error nothing of the batch is visible.
    fn ingest(&self, batch: IngestBatch) -> Result<IngestReceipt> {
        let _ = batch;
        Err(Error::invalid_state(format!(
            "engine '{}' does not support ingestion",
            self.name()
        )))
    }

    /// Releases the engine's resources (threads, pipelines). Idempotent; after
    /// shutdown, [`JoinEngine::submit`] fails.
    fn shutdown(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_ticket_returns_its_outcome() {
        let ok: Box<dyn QueryTicket> = Box::new(ReadyTicket::new(Ok(QueryResult::default())));
        assert!(ok.wait().is_ok());
        let err: Box<dyn QueryTicket> = Box::new(ReadyTicket::new(Err(QueryError::Engine(
            Error::invalid_state("boom"),
        ))));
        assert!(err.wait().is_err());
    }

    #[test]
    fn query_error_round_trips_through_common_error() {
        let e = QueryError::StageFailed {
            role: "distributor-shard-1".into(),
            detail: "injected panic".into(),
        };
        let common: Error = e.clone().into();
        assert!(common.to_string().contains("distributor-shard-1"));
        let engine = QueryError::Engine(Error::invalid_state("boom"));
        let common: Error = engine.into();
        assert!(common.to_string().contains("boom"));
    }

    #[test]
    fn deadline_errors_render_their_budgets() {
        let e = QueryError::ShedAtAdmission {
            deadline: Duration::from_millis(5),
            estimated: Duration::from_millis(40),
        };
        let msg = e.to_string();
        assert!(msg.contains("5ms") && msg.contains("40ms"), "{msg}");
        let e = QueryError::DeadlineExceeded {
            deadline: Duration::from_millis(7),
        };
        assert!(e.to_string().contains("7ms"));
    }

    #[test]
    fn engine_stats_default_is_zeroed() {
        let s = EngineStats::default();
        assert_eq!(s.queries_submitted, 0);
        assert_eq!(s.queries_completed, 0);
        assert_eq!(s.active_queries, 0);
        assert_eq!(s.fact_tuples_scanned, 0);
    }
}
