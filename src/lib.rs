//! # cjoin-repro — CJOIN, reproduced in Rust
//!
//! A reproduction of **"A Scalable, Predictable Join Operator for Highly Concurrent
//! Data Warehouses"** (Candea, Polyzotis, Vingralek — VLDB 2009): the CJOIN operator,
//! the Star Schema Benchmark substrate it is evaluated on, a conventional
//! query-at-a-time baseline, and the experiment harness that regenerates every table
//! and figure of the paper's evaluation.
//!
//! This crate is a thin façade: it re-exports the workspace crates so that examples,
//! integration tests and downstream users can depend on a single crate.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`common`] | `cjoin-common` | query bit-vectors, fast hashing, ids, errors |
//! | [`storage`] | `cjoin-storage` | row store, continuous scan, snapshots, I/O model |
//! | [`query`] | `cjoin-query` | star-query model, predicates, aggregates, reference oracle |
//! | [`ssb`] | `cjoin-ssb` | Star Schema Benchmark generator, templates, workloads |
//! | [`cjoin`] | `cjoin-core` | the CJOIN operator and engine |
//! | [`baseline`] | `cjoin-baseline` | query-at-a-time hash-join baseline |
//! | [`galaxy`] | `cjoin-galaxy` | fact-to-fact join queries over two CJOIN pipelines (§5) |
//! | [`server`] | `cjoin-server` | TCP front door: wire protocol, multi-tenant admission |
//! | [`client`] | `cjoin-client` | `RemoteEngine`: a `JoinEngine` over the wire |
//! | [`mod@bench`] | `cjoin-bench` | experiment harness (figures 4–8, tables 1–3, ablations) |
//!
//! See `README.md` for a quickstart, the workspace layout, and how to reproduce
//! the paper's evaluation with the `experiments` binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Shared utilities: query bit-vectors, fast hashing, query ids, errors.
pub mod common {
    pub use cjoin_common::*;
}

/// Row-store substrate: tables, continuous scans, snapshots, I/O model.
pub mod storage {
    pub use cjoin_storage::*;
}

/// Star-query model: predicates, aggregates, results, reference evaluator.
pub mod query {
    pub use cjoin_query::*;
}

/// Star Schema Benchmark: data generator, query templates, workload generator.
pub mod ssb {
    pub use cjoin_ssb::*;
}

/// The CJOIN operator: shared always-on pipeline for concurrent star queries.
pub mod cjoin {
    pub use cjoin_core::*;
}

/// Conventional query-at-a-time baseline engine ("System X" / PostgreSQL stand-ins).
pub mod baseline {
    pub use cjoin_baseline::*;
}

/// Galaxy-schema (fact-to-fact join) queries evaluated as star sub-plans over CJOIN
/// operators (§5 "Galaxy Schemata").
pub mod galaxy {
    pub use cjoin_galaxy::*;
}

/// TCP front door: length-prefixed wire protocol, multi-tenant admission with
/// queue-or-shed backpressure, deadline-aware ETA quotes.
pub mod server {
    pub use cjoin_server::*;
}

/// Thin TCP client: `RemoteEngine` implements `JoinEngine` over the wire, so
/// harness code drives a served engine unchanged.
pub mod client {
    pub use cjoin_client::*;
}

/// Experiment harness reproducing the paper's evaluation.
pub mod bench {
    pub use cjoin_bench::*;
}

// Convenience re-exports of the most commonly used types.
pub use cjoin_baseline::{BaselineConfig, BaselineEngine};
pub use cjoin_client::RemoteEngine;
pub use cjoin_common::{Error, Result};
pub use cjoin_core::{CjoinConfig, CjoinEngine, QueryHandle};
pub use cjoin_galaxy::{GalaxyEngine, GalaxyQuery};
pub use cjoin_query::{
    AggFunc, AggregateSpec, ColumnRef, EngineStats, JoinEngine, Predicate, QueryResult,
    QueryTicket, StarQuery,
};
pub use cjoin_server::{CjoinServer, ServerConfig};
pub use cjoin_ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
pub use cjoin_storage::{Catalog, SnapshotId};
