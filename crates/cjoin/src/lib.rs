//! The CJOIN operator (Candea, Polyzotis, Vingralek — VLDB 2009).
//!
//! CJOIN evaluates **all concurrent star queries in a single, always-on physical
//! plan**: a continuous scan of the fact table feeds a Preprocessor, a sequence of
//! Filters (one per dimension table referenced by any in-flight query) and a
//! Distributor that routes surviving tuples to per-query aggregation operators.
//! Sharing is achieved through query bit-vectors: every in-flight fact tuple carries
//! one bit per registered query, every dimension hash-table entry carries the set of
//! queries that select it, and a Filter joins a fact tuple against *all* queries with
//! a single hash probe followed by a bitwise AND.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use cjoin_core::{CjoinConfig, CjoinEngine};
//! use cjoin_query::{AggFunc, AggregateSpec, ColumnRef, Predicate, StarQuery};
//! use cjoin_storage::{Catalog, Column, Schema, SnapshotId, Table, Value};
//!
//! // Build a tiny warehouse: one fact table, one dimension.
//! let catalog = Arc::new(Catalog::new());
//! let dim = Table::new(Schema::new("color", vec![Column::int("k"), Column::str("name")]));
//! for (k, name) in [(1, "red"), (2, "green")] {
//!     dim.insert(vec![Value::int(k), Value::str(name)], SnapshotId::INITIAL).unwrap();
//! }
//! let fact = Table::new(Schema::new("sales", vec![Column::int("fk"), Column::int("amount")]));
//! for (fk, amount) in [(1, 10), (2, 20), (1, 30)] {
//!     fact.insert(vec![Value::int(fk), Value::int(amount)], SnapshotId::INITIAL).unwrap();
//! }
//! catalog.add_table(Arc::new(dim));
//! catalog.add_fact_table(Arc::new(fact));
//!
//! // Start the always-on pipeline and register a query with it.
//! let engine = CjoinEngine::start(Arc::clone(&catalog), CjoinConfig::default()).unwrap();
//! let query = StarQuery::builder("red_total")
//!     .join_dimension("color", "fk", "k", Predicate::eq("name", "red"))
//!     .aggregate(AggregateSpec::over(AggFunc::Sum, ColumnRef::fact("amount")))
//!     .build();
//! let handle = engine.submit(query).unwrap();
//! let result = handle.wait().unwrap();
//! assert_eq!(result.rows().next().unwrap().1[0], cjoin_query::AggValue::Int(40));
//! engine.shutdown();
//! ```
//!
//! # Module map
//!
//! | module | paper section | responsibility |
//! |--------|---------------|----------------|
//! | [`config`] | §4 | pipeline configuration (maxConc, thread widths, batching) |
//! | [`mod@tuple`] | §3.1 | in-flight fact tuples, control tuples, batches |
//! | [`pool`] | §4 | pooled batch allocator ("specialized allocator for fact tuples") |
//! | [`queue`] | §4 | bounded batched tuple queues linking pipeline threads |
//! | [`dimension`] | §3.2.1 | dimension hash tables with per-entry query bit-vectors |
//! | [`filter`] | §3.2.2 | the Filter probe/AND/drop step and the ordered filter chain |
//! | [`preprocessor`] | §3.2.2, §3.3 | bit-vector initialisation, query start/end detection; sharded segment-scan front-end |
//! | [`colscan`] | §5 | compressed columnar scan: encoded-predicate kernel, zone-map skipping, late materialization |
//! | [`progress`] | §3.2.3 | per-query progress / estimated completion from the scan position |
//! | [`distributor`] | §3.2.2, §4 | the shards: the Filter chain, then routing to per-query aggregation operators |
//! | [`optimizer`] | §3.4 | run-time filter reordering from observed selectivities |
//! | [`pipeline`] | §4 | thread layout: scan workers and shards, supervision, lock order |
//! | [`engine`] | §3.3 | public API: admission (Algorithm 1), finalization (Algorithm 2) |
//! | [`scheduler`] | §4 | the scan and shard width axes and the log of width changes |
//! | [`fault`] | — | deterministic fault injection for supervision tests |
//! | [`stats`] | §6 | operator statistics used by the experiments |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod colscan;
pub mod config;
pub mod dimension;
pub mod distributor;
pub mod engine;
pub mod fault;
pub mod filter;
pub mod optimizer;
pub mod pipeline;
pub mod pool;
pub mod preprocessor;
pub mod progress;
pub mod queue;
pub mod scheduler;
pub mod stats;
pub mod tuple;

pub use config::{shard_width_for, CjoinConfig};
pub use engine::{CjoinEngine, DimensionAdmission, IngestSession, QueryHandle};
pub use fault::{FaultPlan, FaultSite};
pub use progress::QueryProgress;
pub use scheduler::{Axis, ResizeEvent, SchedulerStats};
pub use stats::{IngestStats, PipelineStats};
