//! Star queries and their schema-bound form.
//!
//! A [`StarQuery`] is the template of §2.1: the fact table joined to a subset of the
//! dimension tables through key/foreign-key equi-joins, an optional selection
//! predicate per referenced dimension (`c_ij`), an optional fact predicate (`c_i0`),
//! a GROUP BY list, and a list of aggregates. Queries are written against table and
//! column *names*; [`StarQuery::bind`] resolves them against a
//! [`cjoin_storage::Catalog`] into a [`BoundStarQuery`] whose evaluation
//! requires only integer column indices — the form consumed by the CJOIN pipeline,
//! the query-at-a-time baseline, and the reference oracle alike.

use std::fmt;

use cjoin_common::{Error, Result};
use cjoin_storage::{Catalog, ColumnId, Row, SnapshotId, Value};

use crate::aggregate::AggFunc;
use crate::expr::{BoundPredicate, Predicate};

/// Refers to either the fact table or one of the query's dimension tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TableRef {
    /// The fact table.
    Fact,
    /// A dimension table, by name.
    Dimension(String),
}

/// A named column on the fact table or a dimension table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Which table the column lives on.
    pub table: TableRef,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// A column on the fact table.
    pub fn fact(column: impl Into<String>) -> Self {
        Self {
            table: TableRef::Fact,
            column: column.into(),
        }
    }

    /// A column on a dimension table.
    pub fn dim(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: TableRef::Dimension(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            TableRef::Fact => write!(f, "{}", self.column),
            TableRef::Dimension(t) => write!(f, "{t}.{}", self.column),
        }
    }
}

/// One fact-to-dimension join plus the dimension's selection predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionClause {
    /// Dimension table name.
    pub table: String,
    /// Foreign-key column on the fact table.
    pub fact_fk_column: String,
    /// Primary-key column on the dimension table.
    pub dim_key_column: String,
    /// Selection predicate on the dimension (`c_ij`); [`Predicate::True`] when the
    /// query joins the dimension without filtering it.
    pub predicate: Predicate,
}

/// One aggregate in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column; `None` means `COUNT(*)`.
    pub input: Option<ColumnRef>,
}

impl AggregateSpec {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        Self {
            func: AggFunc::Count,
            input: None,
        }
    }

    /// An aggregate over a column.
    pub fn over(func: AggFunc, input: ColumnRef) -> Self {
        Self {
            func,
            input: Some(input),
        }
    }
}

/// A star query, written against table/column names.
#[derive(Debug, Clone, PartialEq)]
pub struct StarQuery {
    /// Human-readable name (e.g. the SSB template the query was instantiated from).
    pub name: String,
    /// Selection predicate on the fact table (`c_i0`).
    pub fact_predicate: Predicate,
    /// Fact-to-dimension joins with their dimension predicates.
    pub dimensions: Vec<DimensionClause>,
    /// GROUP BY columns (possibly empty).
    pub group_by: Vec<ColumnRef>,
    /// Aggregates (the paper assumes at least one in the general case).
    pub aggregates: Vec<AggregateSpec>,
    /// Snapshot the query reads; `None` means "latest at admission time".
    pub snapshot: Option<SnapshotId>,
    /// Completion deadline, measured from submission. `None` means no deadline.
    ///
    /// Engines with predictable completion times (CJOIN) may pre-shed the query
    /// at admission when the deadline is already unreachable, and cancel it
    /// mid-scan once the deadline passes.
    pub deadline: Option<std::time::Duration>,
}

impl StarQuery {
    /// Starts building a query.
    pub fn builder(name: impl Into<String>) -> StarQueryBuilder {
        StarQueryBuilder::new(name)
    }

    /// Returns the dimension clause for `table`, if the query references it.
    pub fn dimension(&self, table: &str) -> Option<&DimensionClause> {
        self.dimensions.iter().find(|d| d.table == table)
    }

    /// Names of the referenced dimension tables, in clause order.
    pub fn dimension_names(&self) -> Vec<&str> {
        self.dimensions.iter().map(|d| d.table.as_str()).collect()
    }

    /// Resolves all names against the catalog.
    ///
    /// # Errors
    /// Fails if a table or column does not exist, or if a group-by / aggregate column
    /// references a dimension the query does not join.
    pub fn bind(&self, catalog: &Catalog) -> Result<BoundStarQuery> {
        let fact = catalog.fact_table()?;
        let fact_schema = fact.schema();

        let mut dimensions = Vec::with_capacity(self.dimensions.len());
        for clause in &self.dimensions {
            let dim = catalog.table(&clause.table)?;
            let dim_schema = dim.schema();
            dimensions.push(BoundDimensionClause {
                table: clause.table.clone(),
                fact_fk_column: fact_schema.column_index(&clause.fact_fk_column)?,
                dim_key_column: dim_schema.column_index(&clause.dim_key_column)?,
                predicate: clause.predicate.bind(dim_schema)?,
                predicate_is_true: clause.predicate.is_true(),
            });
        }

        let bind_column = |col: &ColumnRef| -> Result<BoundColumnRef> {
            match &col.table {
                TableRef::Fact => Ok(BoundColumnRef {
                    name: col.column.clone(),
                    source: ColumnSource::Fact(fact_schema.column_index(&col.column)?),
                }),
                TableRef::Dimension(table) => {
                    let clause_idx = self
                        .dimensions
                        .iter()
                        .position(|d| &d.table == table)
                        .ok_or_else(|| {
                            Error::invalid_state(format!(
                                "query '{}' references column {}.{} but does not join table {}",
                                self.name, table, col.column, table
                            ))
                        })?;
                    let dim = catalog.table(table)?;
                    Ok(BoundColumnRef {
                        name: format!("{}.{}", table, col.column),
                        source: ColumnSource::Dimension {
                            clause: clause_idx,
                            column: dim.schema().column_index(&col.column)?,
                        },
                    })
                }
            }
        };

        let group_by = self
            .group_by
            .iter()
            .map(&bind_column)
            .collect::<Result<Vec<_>>>()?;
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                Ok(BoundAggregateSpec {
                    func: a.func,
                    input: a.input.as_ref().map(&bind_column).transpose()?,
                    display: match &a.input {
                        Some(c) => format!("{}({})", a.func, c),
                        None => format!("{}(*)", a.func),
                    },
                })
            })
            .collect::<Result<Vec<_>>>()?;

        Ok(BoundStarQuery {
            name: self.name.clone(),
            snapshot: self.snapshot,
            fact_predicate: self.fact_predicate.bind(fact_schema)?,
            fact_predicate_is_true: self.fact_predicate.is_true(),
            fact_predicate_raw: self.fact_predicate.clone(),
            dimensions,
            group_by,
            aggregates,
        })
    }
}

/// Builder for [`StarQuery`].
#[derive(Debug, Clone)]
pub struct StarQueryBuilder {
    name: String,
    fact_predicate: Predicate,
    dimensions: Vec<DimensionClause>,
    group_by: Vec<ColumnRef>,
    aggregates: Vec<AggregateSpec>,
    snapshot: Option<SnapshotId>,
    deadline: Option<std::time::Duration>,
}

impl StarQueryBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fact_predicate: Predicate::True,
            dimensions: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            snapshot: None,
            deadline: None,
        }
    }

    /// Sets the fact-table predicate (`c_i0`).
    pub fn fact_predicate(mut self, predicate: Predicate) -> Self {
        self.fact_predicate = predicate;
        self
    }

    /// Adds a fact-to-dimension join with a selection predicate on the dimension.
    pub fn join_dimension(
        mut self,
        table: impl Into<String>,
        fact_fk_column: impl Into<String>,
        dim_key_column: impl Into<String>,
        predicate: Predicate,
    ) -> Self {
        self.dimensions.push(DimensionClause {
            table: table.into(),
            fact_fk_column: fact_fk_column.into(),
            dim_key_column: dim_key_column.into(),
            predicate,
        });
        self
    }

    /// Adds a GROUP BY column.
    pub fn group_by(mut self, column: ColumnRef) -> Self {
        self.group_by.push(column);
        self
    }

    /// Adds an aggregate.
    pub fn aggregate(mut self, spec: AggregateSpec) -> Self {
        self.aggregates.push(spec);
        self
    }

    /// Pins the query to a specific snapshot.
    pub fn snapshot(mut self, snapshot: SnapshotId) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// Sets a completion deadline, measured from submission.
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Finishes the query.
    pub fn build(self) -> StarQuery {
        StarQuery {
            name: self.name,
            fact_predicate: self.fact_predicate,
            dimensions: self.dimensions,
            group_by: self.group_by,
            aggregates: self.aggregates,
            snapshot: self.snapshot,
            deadline: self.deadline,
        }
    }
}

/// Where a bound column reads its value from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnSource {
    /// Column index on the fact row.
    Fact(ColumnId),
    /// Column index on the row joined by the given dimension clause.
    Dimension {
        /// Index into [`BoundStarQuery::dimensions`].
        clause: usize,
        /// Column index within the dimension row.
        column: ColumnId,
    },
}

static NULL_VALUE: Value = Value::Null;

/// A column reference resolved to physical positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundColumnRef {
    /// Display name (used for result headers).
    pub name: String,
    /// Resolved source.
    pub source: ColumnSource,
}

impl BoundColumnRef {
    /// Reads the column's value given a fact row and the joined dimension rows
    /// (indexed by clause position). Missing dimension rows read as NULL, which can
    /// only happen if a caller violates the join contract.
    #[inline]
    pub fn value<'a>(&self, fact: &'a Row, dims: &[Option<&'a Row>]) -> &'a Value {
        match &self.source {
            ColumnSource::Fact(idx) => fact.get(*idx),
            ColumnSource::Dimension { clause, column } => {
                match dims.get(*clause).copied().flatten() {
                    Some(row) => row.get(*column),
                    None => &NULL_VALUE,
                }
            }
        }
    }
}

/// An aggregate with its input resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundAggregateSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Resolved input column; `None` for `COUNT(*)`.
    pub input: Option<BoundColumnRef>,
    display: String,
}

impl BoundAggregateSpec {
    /// Human-readable label, e.g. `SUM(lo_revenue)`.
    pub fn label(&self) -> String {
        self.display.clone()
    }
}

/// A dimension clause resolved to column indices.
#[derive(Debug, Clone)]
pub struct BoundDimensionClause {
    /// Dimension table name.
    pub table: String,
    /// Foreign-key column index on the fact table.
    pub fact_fk_column: ColumnId,
    /// Key column index on the dimension table.
    pub dim_key_column: ColumnId,
    /// Bound dimension predicate.
    pub predicate: BoundPredicate,
    /// Whether the predicate is trivially TRUE (join without filtering).
    pub predicate_is_true: bool,
}

/// A star query fully resolved against a catalog.
#[derive(Debug, Clone)]
pub struct BoundStarQuery {
    /// Query name.
    pub name: String,
    /// Snapshot the query reads, if pinned.
    pub snapshot: Option<SnapshotId>,
    /// Bound fact predicate.
    pub fact_predicate: BoundPredicate,
    /// Whether the fact predicate is trivially TRUE.
    pub fact_predicate_is_true: bool,
    /// The unbound fact predicate, kept so a scan over a compressed replica can
    /// compile it against that replica's encodings.
    pub fact_predicate_raw: Predicate,
    /// Bound dimension clauses, in the order given by the query.
    pub dimensions: Vec<BoundDimensionClause>,
    /// Bound GROUP BY columns.
    pub group_by: Vec<BoundColumnRef>,
    /// Bound aggregates.
    pub aggregates: Vec<BoundAggregateSpec>,
}

impl BoundStarQuery {
    /// Returns the index of the clause joining `table`, if any.
    pub fn dimension_index(&self, table: &str) -> Option<usize> {
        self.dimensions.iter().position(|d| d.table == table)
    }
}

/// Helpers for constructing bound queries directly in unit tests of this crate.
#[doc(hidden)]
pub mod tests_support {
    use super::*;

    /// Builds a [`BoundStarQuery`] with no dimensions whose group-by columns are the
    /// given fact column indices and whose aggregates all read fact column 1.
    pub fn simple_bound_query(
        group_by_fact_cols: Vec<usize>,
        aggs: Vec<AggFunc>,
    ) -> BoundStarQuery {
        BoundStarQuery {
            name: "test".into(),
            snapshot: None,
            fact_predicate: BoundPredicate::always_true(),
            fact_predicate_is_true: true,
            fact_predicate_raw: Predicate::True,
            dimensions: Vec::new(),
            group_by: group_by_fact_cols
                .into_iter()
                .map(|c| BoundColumnRef {
                    name: format!("col{c}"),
                    source: ColumnSource::Fact(c),
                })
                .collect(),
            aggregates: aggs
                .into_iter()
                .map(|func| BoundAggregateSpec {
                    func,
                    input: Some(BoundColumnRef {
                        name: "col1".into(),
                        source: ColumnSource::Fact(1),
                    }),
                    display: format!("{func}(col1)"),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_storage::{Column, Schema, Table};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        let fact = Table::new(Schema::new(
            "lineorder",
            vec![
                Column::int("lo_orderkey"),
                Column::int("lo_custkey"),
                Column::int("lo_orderdate"),
                Column::int("lo_revenue"),
            ],
        ));
        let customer = Table::new(Schema::new(
            "customer",
            vec![
                Column::int("c_custkey"),
                Column::str("c_region"),
                Column::str("c_nation"),
            ],
        ));
        catalog.add_fact_table(Arc::new(fact));
        catalog.add_table(Arc::new(customer));
        catalog
    }

    fn query() -> StarQuery {
        StarQuery::builder("test_query")
            .fact_predicate(Predicate::between("lo_orderdate", 19940101, 19941231))
            .join_dimension(
                "customer",
                "lo_custkey",
                "c_custkey",
                Predicate::eq("c_region", "ASIA"),
            )
            .group_by(ColumnRef::dim("customer", "c_nation"))
            .aggregate(AggregateSpec::over(
                AggFunc::Sum,
                ColumnRef::fact("lo_revenue"),
            ))
            .aggregate(AggregateSpec::count_star())
            .build()
    }

    #[test]
    fn builder_populates_all_fields() {
        let q = query();
        assert_eq!(q.name, "test_query");
        assert_eq!(q.dimensions.len(), 1);
        assert_eq!(q.dimension_names(), vec!["customer"]);
        assert!(q.dimension("customer").is_some());
        assert!(q.dimension("supplier").is_none());
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.aggregates.len(), 2);
        assert!(q.snapshot.is_none());
        assert!(!q.fact_predicate.is_true());
    }

    #[test]
    fn bind_resolves_all_columns() {
        let c = catalog();
        let b = query().bind(&c).unwrap();
        assert_eq!(b.dimensions.len(), 1);
        assert_eq!(b.dimensions[0].fact_fk_column, 1);
        assert_eq!(b.dimensions[0].dim_key_column, 0);
        assert!(!b.dimensions[0].predicate_is_true);
        assert!(!b.fact_predicate_is_true);
        assert_eq!(b.group_by.len(), 1);
        assert_eq!(b.group_by[0].name, "customer.c_nation");
        assert_eq!(b.aggregates[0].label(), "SUM(lo_revenue)");
        assert_eq!(b.aggregates[1].label(), "COUNT(*)");
        assert_eq!(b.dimension_index("customer"), Some(0));
        assert_eq!(b.dimension_index("part"), None);
    }

    #[test]
    fn bind_rejects_unknown_tables_and_columns() {
        let c = catalog();
        let q = StarQuery::builder("bad")
            .join_dimension("nonexistent", "lo_custkey", "x_key", Predicate::True)
            .aggregate(AggregateSpec::count_star())
            .build();
        assert!(q.bind(&c).is_err());

        let q = StarQuery::builder("bad2")
            .join_dimension(
                "customer",
                "lo_custkey",
                "c_custkey",
                Predicate::eq("c_missing", 1),
            )
            .aggregate(AggregateSpec::count_star())
            .build();
        assert!(q.bind(&c).is_err());

        // Group-by over a dimension the query does not join.
        let q = StarQuery::builder("bad3")
            .group_by(ColumnRef::dim("customer", "c_nation"))
            .aggregate(AggregateSpec::count_star())
            .build();
        assert!(q.bind(&c).is_err());
    }

    #[test]
    fn bound_column_ref_reads_fact_and_dimension_values() {
        let c = catalog();
        let b = query().bind(&c).unwrap();
        let fact_row = Row::new(vec![
            Value::int(1),
            Value::int(7),
            Value::int(19940601),
            Value::int(500),
        ]);
        let dim_row = Row::new(vec![Value::int(7), Value::str("ASIA"), Value::str("CHINA")]);

        let group_val = b.group_by[0].value(&fact_row, &[Some(&dim_row)]);
        assert_eq!(group_val.as_str().unwrap(), "CHINA");

        let agg_input = b.aggregates[0].input.as_ref().unwrap();
        assert_eq!(
            agg_input
                .value(&fact_row, &[Some(&dim_row)])
                .as_int()
                .unwrap(),
            500
        );

        // Missing dimension row reads as NULL rather than panicking.
        assert!(b.group_by[0].value(&fact_row, &[None]).is_null());
        assert!(b.group_by[0].value(&fact_row, &[]).is_null());
    }

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::fact("lo_revenue").to_string(), "lo_revenue");
        assert_eq!(
            ColumnRef::dim("customer", "c_city").to_string(),
            "customer.c_city"
        );
    }

    #[test]
    fn snapshot_builder_option() {
        let q = StarQuery::builder("s")
            .snapshot(SnapshotId(4))
            .aggregate(AggregateSpec::count_star())
            .build();
        assert_eq!(q.snapshot, Some(SnapshotId(4)));
    }
}
