//! Star-query model for the CJOIN reproduction.
//!
//! The paper's workload is the class of *star queries* (§2.1): a fact table joined to
//! a set of dimension tables through key/foreign-key equi-joins, filtered by
//! per-dimension selection predicates and an optional fact predicate, then grouped
//! and aggregated. This crate provides:
//!
//! * [`Predicate`] / [`BoundPredicate`] — arbitrarily nested selection predicates over
//!   a single table's tuple variable (the paper allows any predicate shape as long as
//!   it references only one dimension).
//! * [`StarQuery`] and its builder — the query template of §2.1, plus
//!   [`BoundStarQuery`], the schema-resolved form shared by every engine in the
//!   workspace (CJOIN, the query-at-a-time baseline, and the reference oracle).
//! * [`AggFunc`] / [`GroupedAggregator`] — SQL aggregate evaluation with group-by.
//! * [`QueryResult`] — deterministic, comparable result sets.
//! * [`JoinEngine`] — the submit/wait/shutdown/stats contract shared by every
//!   engine in the workspace, so harnesses drive engines through `&dyn JoinEngine`.
//! * [`wire`] — the length-prefixed binary encoding of queries, results and
//!   typed outcomes spoken between `cjoin-client` and `cjoin-server`.
//! * [`reference::evaluate`] — a deliberately simple single-threaded evaluator used
//!   as the correctness oracle in tests.
//! * [`ZoneVerdict`] / [`IntLeaf`] — what an integer column's stored bounds prove
//!   about a predicate leaf, shared by the row store's page test and the
//!   columnar replica's row-group skipping.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod engine;
pub mod expr;
pub mod reference;
pub mod result;
pub mod star;
pub mod wire;
pub mod zone;

pub use aggregate::{AggFunc, AggValue, GroupedAggregator};
pub use engine::{
    DimDelete, DimUpsert, EngineStats, IngestBatch, IngestReceipt, JoinEngine, QueryError,
    QueryOutcome, QueryTicket, ReadyTicket, SchedulerSummary,
};
pub use expr::{BoundPredicate, CompareOp, Predicate};
pub use result::QueryResult;
pub use star::{
    AggregateSpec, BoundAggregateSpec, BoundColumnRef, BoundDimensionClause, BoundStarQuery,
    ColumnRef, DimensionClause, StarQuery, StarQueryBuilder, TableRef,
};
pub use zone::{IntLeaf, ZoneVerdict};
