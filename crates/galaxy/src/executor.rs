//! The galaxy execution engine: one CJOIN operator per fact table plus the
//! fact-to-fact join operator over their outputs.
//!
//! §5 of the paper: "it now becomes possible to register each Qi with the CJOIN
//! operator that handles the concurrent star queries on the corresponding fact table,
//! the difference being that the Distributor pipes the results of Qi to a
//! fact-to-fact join operator instead of an aggregation operator." [`GalaxyEngine`]
//! realises exactly that topology: it keeps an always-on [`CjoinEngine`] per fact
//! table, so the star sub-queries of every in-flight galaxy query (and any plain star
//! queries submitted alongside them) share those pipelines' I/O and computation.

use std::sync::Arc;

use cjoin_common::{Error, Result};
use cjoin_core::{CjoinConfig, CjoinEngine, QueryHandle};
use cjoin_query::{QueryResult, StarQuery};
use cjoin_storage::Catalog;

use crate::merge::{merge_results, MergePlan};
use crate::query::{GalaxyQuery, Side};

/// Builds a per-fact-table view of a galaxy catalog: a new [`Catalog`] that shares
/// every table of `source` (the `Arc`s are cloned, not the data) but designates
/// `fact_table` as its fact table.
///
/// A single [`CjoinEngine`] serves exactly one fact table; a galaxy schema therefore
/// needs one catalog view per fact table. Dimension tables are shared between the
/// views, the way a warehouse shares conformed dimensions between its stars.
///
/// # Errors
/// Fails if `fact_table` is not registered in `source`.
pub fn split_catalog(source: &Arc<Catalog>, fact_table: &str) -> Result<Arc<Catalog>> {
    let fact = source.table(fact_table)?;
    let view = Catalog::new();
    for name in source.table_names() {
        if name != fact_table {
            view.add_table(source.table(&name)?);
        }
    }
    view.add_fact_table(fact);
    Ok(Arc::new(view))
}

/// Handle to a galaxy query whose two star sub-queries are in flight.
#[derive(Debug)]
pub struct GalaxyHandle {
    name: String,
    handle_a: QueryHandle,
    handle_b: QueryHandle,
    plan: MergePlan,
}

impl GalaxyHandle {
    /// The query's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The CJOIN handles of the two star sub-queries (side A, side B), e.g. for
    /// progress reporting: each side's progress is its continuous scan position.
    pub fn side_handles(&self) -> (&QueryHandle, &QueryHandle) {
        (&self.handle_a, &self.handle_b)
    }

    /// Blocks until both star sub-queries complete, then runs the fact-to-fact join
    /// operator and returns the finalised result.
    ///
    /// # Errors
    /// Fails if either CJOIN pipeline shuts down before its sub-query completes.
    pub fn wait(self) -> Result<QueryResult> {
        let result_a = self.handle_a.wait()?;
        let result_b = self.handle_b.wait()?;
        Ok(merge_results(&result_a, &result_b, &self.plan))
    }
}

/// A galaxy-schema query engine: one always-on CJOIN pipeline per fact table.
pub struct GalaxyEngine {
    source: Arc<Catalog>,
    fact_tables: [String; 2],
    engines: [CjoinEngine; 2],
}

impl GalaxyEngine {
    /// Starts one CJOIN pipeline over each of the two fact tables of `catalog`.
    ///
    /// # Errors
    /// Fails if either fact table is missing from the catalog or the configuration is
    /// invalid.
    pub fn start(
        catalog: Arc<Catalog>,
        fact_table_a: &str,
        fact_table_b: &str,
        config: CjoinConfig,
    ) -> Result<Self> {
        if fact_table_a == fact_table_b {
            return Err(Error::invalid_config(
                "a galaxy engine needs two distinct fact tables; use CjoinEngine for a single star",
            ));
        }
        let catalog_a = split_catalog(&catalog, fact_table_a)?;
        let catalog_b = split_catalog(&catalog, fact_table_b)?;
        let engine_a = CjoinEngine::start(catalog_a, config.clone())?;
        let engine_b = CjoinEngine::start(catalog_b, config)?;
        Ok(Self {
            source: catalog,
            fact_tables: [fact_table_a.to_string(), fact_table_b.to_string()],
            engines: [engine_a, engine_b],
        })
    }

    /// The CJOIN engine serving `side`'s fact table. Plain star queries over that
    /// fact table can be submitted to it directly and will share the pipeline with
    /// the galaxy sub-queries.
    pub fn engine(&self, side: Side) -> &CjoinEngine {
        &self.engines[side.index()]
    }

    /// The fact table name served by `side`.
    pub fn fact_table(&self, side: Side) -> &str {
        &self.fact_tables[side.index()]
    }

    /// The shared source catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.source
    }

    /// Registers the two star sub-queries of `query` with their respective CJOIN
    /// pipelines and returns a handle for the fact-to-fact join.
    ///
    /// # Errors
    /// Fails if the query decomposition is invalid, a side references the wrong fact
    /// table, or either admission fails (e.g. the `maxConc` limit is reached).
    pub fn submit(&self, query: GalaxyQuery) -> Result<GalaxyHandle> {
        for side in [Side::A, Side::B] {
            let expected = self.fact_table(side);
            let got = &query.side(side).fact_table;
            if got != expected {
                return Err(Error::invalid_config(format!(
                    "galaxy query '{}': side {} references fact table '{}' but this engine serves '{}'",
                    query.name,
                    side.label(),
                    got,
                    expected
                )));
            }
        }
        let mut decomposed = query.decompose()?;
        // Pin both sides to one snapshot so they see the same database state even if
        // updates commit between the two admissions.
        if decomposed.star_a.snapshot.is_none() {
            let snapshot = self.source.snapshots().current();
            decomposed.star_a.snapshot = Some(snapshot);
            decomposed.star_b.snapshot = Some(snapshot);
        }
        let handle_a = self.submit_side(Side::A, decomposed.star_a)?;
        let handle_b = self.submit_side(Side::B, decomposed.star_b)?;
        Ok(GalaxyHandle {
            name: query.name,
            handle_a,
            handle_b,
            plan: decomposed.plan,
        })
    }

    /// Convenience: submits a galaxy query and blocks until its result is available.
    ///
    /// # Errors
    /// Propagates submission and wait errors.
    pub fn execute(&self, query: GalaxyQuery) -> Result<QueryResult> {
        self.submit(query)?.wait()
    }

    /// Shuts both pipelines down. Idempotent.
    pub fn shutdown(&self) {
        for engine in &self.engines {
            engine.shutdown();
        }
    }

    fn submit_side(&self, side: Side, star: StarQuery) -> Result<QueryHandle> {
        self.engines[side.index()].submit(star)
    }
}

impl cjoin_query::JoinEngine for GalaxyEngine {
    fn name(&self) -> &str {
        "GALAXY (2×CJOIN)"
    }

    /// Routes a plain star query to the side pipeline whose catalog it binds
    /// against, so star and galaxy queries share the same always-on operators.
    /// A query that binds against both sides (e.g. a fact-predicate-free
    /// `COUNT(*)` with no dimension joins) is ambiguous in a galaxy schema and
    /// is deterministically routed to side A.
    fn submit(&self, query: StarQuery) -> Result<Box<dyn cjoin_query::QueryTicket>> {
        let side = if query.bind(self.engines[Side::A.index()].catalog()).is_ok() {
            Side::A
        } else {
            Side::B
        };
        let handle = self.submit_side(side, query)?;
        Ok(Box::new(handle))
    }

    /// Sums the two side pipelines' counters. Galaxy queries contribute two
    /// submissions/completions each (one star sub-query per side).
    fn stats(&self) -> cjoin_query::EngineStats {
        let mut total = cjoin_query::EngineStats::default();
        for engine in &self.engines {
            let stats = engine.stats();
            total.queries_submitted += stats.queries_admitted;
            total.queries_completed += stats.queries_completed;
            total.active_queries += stats.active_queries;
            total.fact_tuples_scanned += stats.tuples_scanned;
        }
        total
    }

    fn shutdown(&self) {
        GalaxyEngine::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_query::{AggFunc, ColumnRef, Predicate};
    use cjoin_storage::{Column, Row, Schema, SnapshotId, Table, Value};

    use crate::query::{GalaxyAggregateSpec, SideSpec};

    /// A small galaxy: `orders` and `shipments` share a `customer` dimension and join
    /// on `custkey`.
    fn galaxy_catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();

        let customer = Table::new(Schema::new(
            "customer",
            vec![Column::int("c_custkey"), Column::str("c_region")],
        ));
        for (k, region) in [(1, "ASIA"), (2, "ASIA"), (3, "EUROPE"), (4, "AMERICA")] {
            customer
                .insert(vec![Value::int(k), Value::str(region)], SnapshotId::INITIAL)
                .unwrap();
        }
        catalog.add_table(Arc::new(customer));

        let orders = Table::new(Schema::new(
            "orders",
            vec![Column::int("o_custkey"), Column::int("o_amount")],
        ));
        orders.insert_batch_unchecked(
            (0..120).map(|i| Row::new(vec![Value::int(i % 4 + 1), Value::int(10 + i)])),
            SnapshotId::INITIAL,
        );
        catalog.add_table(Arc::new(orders));

        let shipments = Table::new(Schema::new(
            "shipments",
            vec![Column::int("s_custkey"), Column::int("s_weight")],
        ));
        shipments.insert_batch_unchecked(
            (0..90).map(|i| Row::new(vec![Value::int(i % 3 + 1), Value::int(i)])),
            SnapshotId::INITIAL,
        );
        catalog.add_table(Arc::new(shipments));

        Arc::new(catalog)
    }

    fn test_config() -> CjoinConfig {
        CjoinConfig::default()
            .with_max_concurrency(16)
            .with_batch_size(64)
    }

    fn cross_query() -> GalaxyQuery {
        GalaxyQuery::builder("orders_x_shipments")
            .side_a(SideSpec::new("orders", "o_custkey").join_dimension(
                "customer",
                "o_custkey",
                "c_custkey",
                Predicate::eq("c_region", "ASIA"),
            ))
            .side_b(SideSpec::new("shipments", "s_custkey"))
            .group_by(Side::A, ColumnRef::dim("customer", "c_region"))
            .aggregate(GalaxyAggregateSpec::count_star())
            .aggregate(GalaxyAggregateSpec::over(
                AggFunc::Sum,
                Side::B,
                ColumnRef::fact("s_weight"),
            ))
            .build()
    }

    #[test]
    fn split_catalog_shares_tables_and_designates_fact() {
        let source = galaxy_catalog();
        let view = split_catalog(&source, "orders").unwrap();
        assert_eq!(view.fact_table().unwrap().name(), "orders");
        assert!(Arc::ptr_eq(
            &view.table("customer").unwrap(),
            &source.table("customer").unwrap()
        ));
        assert_eq!(view.table_names().len(), 3);
        assert!(split_catalog(&source, "nonexistent").is_err());
    }

    #[test]
    fn galaxy_engine_matches_reference_oracle() {
        let catalog = galaxy_catalog();
        let engine =
            GalaxyEngine::start(Arc::clone(&catalog), "orders", "shipments", test_config())
                .unwrap();
        let query = cross_query();
        let expected = crate::reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();
        let result = engine.execute(query).unwrap();
        assert!(
            result.approx_eq(&expected),
            "diff: {:?}",
            result.diff(&expected)
        );
        assert!(!result.is_empty());
        engine.shutdown();
    }

    #[test]
    fn rejects_mismatched_fact_tables_and_duplicate_facts() {
        let catalog = galaxy_catalog();
        assert!(
            GalaxyEngine::start(Arc::clone(&catalog), "orders", "orders", test_config()).is_err()
        );

        let engine =
            GalaxyEngine::start(Arc::clone(&catalog), "orders", "shipments", test_config())
                .unwrap();
        let swapped = GalaxyQuery::builder("swapped")
            .side_a(SideSpec::new("shipments", "s_custkey"))
            .side_b(SideSpec::new("orders", "o_custkey"))
            .aggregate(GalaxyAggregateSpec::count_star())
            .build();
        assert!(engine.submit(swapped).is_err());
        assert_eq!(engine.fact_table(Side::A), "orders");
        assert_eq!(engine.fact_table(Side::B), "shipments");
        engine.shutdown();
    }

    #[test]
    fn plain_star_queries_share_the_side_pipelines() {
        let catalog = galaxy_catalog();
        let engine =
            GalaxyEngine::start(Arc::clone(&catalog), "orders", "shipments", test_config())
                .unwrap();

        // A plain star query on side A's engine runs alongside the galaxy query.
        let star = cjoin_query::StarQuery::builder("plain_star")
            .join_dimension(
                "customer",
                "o_custkey",
                "c_custkey",
                Predicate::eq("c_region", "EUROPE"),
            )
            .aggregate(cjoin_query::AggregateSpec::count_star())
            .build();
        let star_expected = cjoin_query::reference::evaluate(
            engine.engine(Side::A).catalog(),
            &star,
            SnapshotId::INITIAL,
        )
        .unwrap();

        let galaxy_handle = engine.submit(cross_query()).unwrap();
        let star_handle = engine.engine(Side::A).submit(star).unwrap();

        let galaxy_expected =
            crate::reference::evaluate(&catalog, &cross_query(), SnapshotId::INITIAL).unwrap();
        assert!(galaxy_handle.wait().unwrap().approx_eq(&galaxy_expected));
        assert!(star_handle.wait().unwrap().approx_eq(&star_expected));
        engine.shutdown();
    }

    #[test]
    fn handles_expose_names_and_side_progress() {
        let catalog = galaxy_catalog();
        let engine =
            GalaxyEngine::start(Arc::clone(&catalog), "orders", "shipments", test_config())
                .unwrap();
        let handle = engine.submit(cross_query()).unwrap();
        assert_eq!(handle.name(), "orders_x_shipments");
        let (a, b) = handle.side_handles();
        assert_eq!(a.name(), "orders_x_shipments#a");
        assert_eq!(b.name(), "orders_x_shipments#b");
        let _ = handle.wait().unwrap();
        engine.shutdown();
    }
}
