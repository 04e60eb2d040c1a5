//! Galaxy-schema queries over CJOIN operators.
//!
//! §5 of the paper ("Galaxy Schemata") describes warehouses with several fact tables,
//! each the centre of its own star, where queries commonly join two fact tables. The
//! proposed evaluation strategy is to use the fact-to-fact join as a pivot: the query
//! is decomposed into two *star sub-queries*, one per fact table, each of which is
//! registered with the CJOIN operator that serves that fact table; the Distributor
//! then pipes the star results into a fact-to-fact join operator instead of a plain
//! aggregation operator.
//!
//! This crate implements exactly that plan shape:
//!
//! * [`GalaxyQuery`] — a two-sided query: each [`SideSpec`] is a star sub-query (fact
//!   table, dimension joins, predicates) plus the foreign-key column used as the
//!   fact-to-fact pivot; group-by columns and aggregates reference one side each.
//! * [`GalaxyQuery::decompose`] — rewrites the query into two [`cjoin_query::StarQuery`]s whose
//!   per-group output is *partially aggregated by pivot key* (sum/count/min/max per
//!   pivot value plus the group's row multiplicity) together with a [`MergePlan`].
//! * [`GalaxyEngine`] — owns one [`cjoin_core::CjoinEngine`] per fact table, registers the two
//!   star sub-queries concurrently (they share those engines' always-on pipelines
//!   with every other in-flight star query) and runs the fact-to-fact join operator
//!   ([`merge::merge_results`]) over their outputs.
//! * [`mod@reference`] — an independent nested-loop/hash-join oracle used by the tests to
//!   check that the decomposition is answer-preserving.
//!
//! The partial-aggregation-through-the-join rewrite is the standard "eager group-by"
//! transformation: because every aggregate in the supported query class is
//! decomposable (SUM/COUNT scale with the other side's multiplicity, MIN/MAX are
//! join-invariant, AVG is a SUM/COUNT pair), joining the per-pivot-key partial states
//! yields exactly the aggregates of the row-level join.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod merge;
pub mod query;
pub mod reference;

pub use executor::{split_catalog, GalaxyEngine, GalaxyHandle};
pub use merge::{merge_results, MergePlan};
pub use query::{
    DecomposedGalaxy, GalaxyAggregateSpec, GalaxyColumnRef, GalaxyQuery, GalaxyQueryBuilder, Side,
    SideSpec,
};
