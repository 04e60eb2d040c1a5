//! Selection predicates.
//!
//! A predicate references the tuple variable of exactly one table (the paper's
//! `c_ij`), but within that restriction can be arbitrarily complex: comparisons,
//! ranges, IN-lists, and boolean combinations. Predicates are written against column
//! *names* and then [bound](Predicate::bind) against a concrete [`Schema`], which
//! resolves names to column indices once so that evaluation on the hot path is a
//! simple index access.
//!
//! NULL semantics are simplified to two-valued logic: any comparison involving NULL
//! evaluates to `false` (and `Not` negates that), which matches the behaviour star
//! schema workloads rely on in practice (SSB has no NULLs).
//!
//! A bound predicate also has a conservative page test,
//! [`BoundPredicate::may_match_page`], which [`cjoin_storage::Table::select_where`]
//! asks before it reads a page: it rejects a page only when the page's integer
//! bounds prove that no row on it satisfies the predicate.

use std::collections::BTreeSet;
use std::fmt;

use cjoin_common::Result;
use cjoin_storage::{ColumnId, PageZones, Row, Schema, Value};

use crate::zone::{IntLeaf, ZoneVerdict};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() || rhs.is_null() {
            return false;
        }
        match self {
            CompareOp::Eq => lhs == rhs,
            CompareOp::Ne => lhs != rhs,
            CompareOp::Lt => lhs < rhs,
            CompareOp::Le => lhs <= rhs,
            CompareOp::Gt => lhs > rhs,
            CompareOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A selection predicate over a single table's columns (by name).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true — the implicit predicate for tables a query does not filter
    /// (`c_ij ≡ TRUE` in the paper).
    True,
    /// `column <op> literal`
    Compare {
        /// Column name.
        column: String,
        /// Operator.
        op: CompareOp,
        /// Literal to compare against.
        value: Value,
    },
    /// `column BETWEEN low AND high` (inclusive on both ends).
    Between {
        /// Column name.
        column: String,
        /// Inclusive lower bound.
        low: Value,
        /// Inclusive upper bound.
        high: Value,
    },
    /// `column IN (v1, v2, ...)`
    InList {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// Conjunction. An empty conjunction is `TRUE`.
    And(Vec<Predicate>),
    /// Disjunction. An empty disjunction is `FALSE`.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor: `column = value`.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CompareOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor: `column BETWEEN low AND high`.
    pub fn between(
        column: impl Into<String>,
        low: impl Into<Value>,
        high: impl Into<Value>,
    ) -> Self {
        Predicate::Between {
            column: column.into(),
            low: low.into(),
            high: high.into(),
        }
    }

    /// Convenience constructor: `column IN (values...)`.
    pub fn in_list<V: Into<Value>>(column: impl Into<String>, values: Vec<V>) -> Self {
        Predicate::InList {
            column: column.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Convenience constructor: conjunction of two predicates, flattening nested
    /// conjunctions.
    pub fn and(self, other: Predicate) -> Self {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Returns `true` if this predicate is trivially `TRUE` (no filtering).
    pub fn is_true(&self) -> bool {
        match self {
            Predicate::True => true,
            Predicate::And(ps) => ps.iter().all(Predicate::is_true),
            _ => false,
        }
    }

    /// Collects the column names referenced by the predicate.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Predicate::True => {}
            Predicate::Compare { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::InList { column, .. } => {
                out.insert(column.clone());
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Resolves column names against `schema`, producing an evaluable predicate.
    ///
    /// # Errors
    /// Returns an unknown-column error if any referenced column is missing.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate> {
        let node = self.bind_node(schema)?;
        Ok(BoundPredicate { node })
    }

    fn bind_node(&self, schema: &Schema) -> Result<BoundNode> {
        Ok(match self {
            Predicate::True => BoundNode::True,
            Predicate::Compare { column, op, value } => BoundNode::Compare {
                column: schema.column_index(column)?,
                op: *op,
                value: value.clone(),
            },
            Predicate::Between { column, low, high } => BoundNode::Between {
                column: schema.column_index(column)?,
                low: low.clone(),
                high: high.clone(),
            },
            Predicate::InList { column, values } => BoundNode::InList {
                column: schema.column_index(column)?,
                values: values.clone(),
                ints: values
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
                    .map(|mut ints| {
                        ints.sort_unstable();
                        ints.dedup();
                        ints
                    }),
            },
            Predicate::And(ps) => BoundNode::And(
                ps.iter()
                    .map(|p| p.bind_node(schema))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Predicate::Or(ps) => BoundNode::Or(
                ps.iter()
                    .map(|p| p.bind_node(schema))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Predicate::Not(p) => BoundNode::Not(Box::new(p.bind_node(schema)?)),
        })
    }
}

#[derive(Debug, Clone)]
enum BoundNode {
    True,
    Compare {
        column: ColumnId,
        op: CompareOp,
        value: Value,
    },
    Between {
        column: ColumnId,
        low: Value,
        high: Value,
    },
    InList {
        column: ColumnId,
        values: Vec<Value>,
        /// `values` sorted and distinct, if every one is an integer: the form
        /// the page test reads.
        ints: Option<Vec<i64>>,
    },
    And(Vec<BoundNode>),
    Or(Vec<BoundNode>),
    Not(Box<BoundNode>),
}

impl BoundNode {
    fn eval(&self, row: &Row) -> bool {
        match self {
            BoundNode::True => true,
            BoundNode::Compare { column, op, value } => op.eval(row.get(*column), value),
            BoundNode::Between { column, low, high } => {
                let v = row.get(*column);
                if v.is_null() || low.is_null() || high.is_null() {
                    false
                } else {
                    v >= low && v <= high
                }
            }
            BoundNode::InList { column, values, .. } => {
                let v = row.get(*column);
                !v.is_null() && values.contains(v)
            }
            BoundNode::And(ps) => ps.iter().all(|p| p.eval(row)),
            BoundNode::Or(ps) => ps.iter().any(|p| p.eval(row)),
            BoundNode::Not(p) => !p.eval(row),
        }
    }

    fn may_match_page(&self, page: PageZones<'_>) -> bool {
        let int_leaf = |column: &ColumnId, leaf: IntLeaf<'_>| {
            page.int(*column)
                .is_none_or(|zone| leaf.verdict(zone) != ZoneVerdict::Never)
        };
        match self {
            BoundNode::Compare {
                column,
                op,
                value: Value::Int(v),
            } => int_leaf(column, IntLeaf::Cmp(*op, *v)),
            BoundNode::Between {
                column,
                low: Value::Int(lo),
                high: Value::Int(hi),
            } => int_leaf(column, IntLeaf::Between(*lo, *hi)),
            BoundNode::InList {
                column,
                ints: Some(ints),
                ..
            } => int_leaf(column, IntLeaf::In(ints)),
            BoundNode::And(ps) => ps.iter().all(|p| p.may_match_page(page)),
            BoundNode::Or(ps) => ps.iter().any(|p| p.may_match_page(page)),
            // `True`, `Not`, string leaves and NULL or cross-type literals.
            _ => true,
        }
    }
}

/// A predicate resolved against a concrete schema, ready for row evaluation.
#[derive(Debug, Clone)]
pub struct BoundPredicate {
    node: BoundNode,
}

impl BoundPredicate {
    /// Evaluates the predicate on a row of the schema it was bound against.
    #[inline]
    pub fn eval(&self, row: &Row) -> bool {
        self.node.eval(row)
    }

    /// Whether a page with the integer bounds `page` may hold a row the
    /// predicate accepts. Conservative: `And` needs every child to pass and
    /// `Or` any; integer `Compare`, `Between` and `InList` leaves are decided by
    /// [`IntLeaf::verdict`] on the leaf column's bounds (a leaf on a column the
    /// page keeps no bounds for passes); `Not`, string leaves and NULL or
    /// cross-type literals always pass.
    #[inline]
    pub fn may_match_page(&self, page: PageZones<'_>) -> bool {
        self.node.may_match_page(page)
    }

    /// A bound predicate that accepts every row.
    pub fn always_true() -> Self {
        BoundPredicate {
            node: BoundNode::True,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_storage::Column;

    fn schema() -> Schema {
        Schema::new(
            "d_date",
            vec![
                Column::int("d_datekey"),
                Column::int("d_year"),
                Column::str("d_month"),
            ],
        )
    }

    fn row(key: i64, year: i64, month: &str) -> Row {
        Row::new(vec![Value::int(key), Value::int(year), Value::str(month)])
    }

    #[test]
    fn compare_ops() {
        let s = schema();
        let r = row(19940115, 1994, "January");
        for (op, expect) in [
            (CompareOp::Eq, true),
            (CompareOp::Ne, false),
            (CompareOp::Le, true),
            (CompareOp::Ge, true),
            (CompareOp::Lt, false),
            (CompareOp::Gt, false),
        ] {
            let p = Predicate::Compare {
                column: "d_year".into(),
                op,
                value: Value::int(1994),
            };
            assert_eq!(p.bind(&s).unwrap().eval(&r), expect, "{op}");
        }
    }

    #[test]
    fn between_is_inclusive() {
        let s = schema();
        let p = Predicate::between("d_year", 1992, 1994);
        let b = p.bind(&s).unwrap();
        assert!(b.eval(&row(1, 1992, "x")));
        assert!(b.eval(&row(1, 1994, "x")));
        assert!(!b.eval(&row(1, 1995, "x")));
        assert!(!b.eval(&row(1, 1991, "x")));
    }

    #[test]
    fn in_list_matches_members() {
        let s = schema();
        let p = Predicate::in_list("d_month", vec!["January", "July"]);
        let b = p.bind(&s).unwrap();
        assert!(b.eval(&row(1, 1994, "July")));
        assert!(!b.eval(&row(1, 1994, "March")));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let p = Predicate::eq("d_year", 1994).and(Predicate::in_list("d_month", vec!["January"]));
        let b = p.bind(&s).unwrap();
        assert!(b.eval(&row(1, 1994, "January")));
        assert!(!b.eval(&row(1, 1994, "July")));

        let p = Predicate::Or(vec![
            Predicate::eq("d_year", 1992),
            Predicate::eq("d_year", 1993),
        ]);
        let b = p.bind(&s).unwrap();
        assert!(b.eval(&row(1, 1993, "x")));
        assert!(!b.eval(&row(1, 1994, "x")));

        let p = Predicate::Not(Box::new(Predicate::eq("d_year", 1994)));
        let b = p.bind(&s).unwrap();
        assert!(!b.eval(&row(1, 1994, "x")));
        assert!(b.eval(&row(1, 1990, "x")));
    }

    #[test]
    fn empty_and_or_identities() {
        let s = schema();
        assert!(Predicate::And(vec![])
            .bind(&s)
            .unwrap()
            .eval(&row(1, 1, "x")));
        assert!(!Predicate::Or(vec![])
            .bind(&s)
            .unwrap()
            .eval(&row(1, 1, "x")));
    }

    #[test]
    fn and_flattens_and_absorbs_true() {
        let p = Predicate::True.and(Predicate::eq("d_year", 1994));
        assert_eq!(p, Predicate::eq("d_year", 1994));
        let p = Predicate::eq("a", 1)
            .and(Predicate::eq("b", 2))
            .and(Predicate::eq("c", 3));
        match p {
            Predicate::And(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = Schema::new("t", vec![Column::int("a")]);
        let r = Row::new(vec![Value::Null]);
        assert!(!Predicate::eq("a", 1).bind(&s).unwrap().eval(&r));
        assert!(!Predicate::between("a", 0, 10).bind(&s).unwrap().eval(&r));
        assert!(!Predicate::in_list("a", vec![1]).bind(&s).unwrap().eval(&r));
        // NOT of an unknown comparison is true under our 2VL simplification.
        assert!(Predicate::Not(Box::new(Predicate::eq("a", 1)))
            .bind(&s)
            .unwrap()
            .eval(&r));
    }

    #[test]
    fn is_true_detection() {
        assert!(Predicate::True.is_true());
        assert!(Predicate::And(vec![Predicate::True, Predicate::True]).is_true());
        assert!(!Predicate::eq("a", 1).is_true());
    }

    #[test]
    fn columns_collects_all_references() {
        let p = Predicate::eq("a", 1)
            .and(Predicate::between("b", 1, 2))
            .and(Predicate::Or(vec![
                Predicate::in_list("c", vec![1]),
                Predicate::Not(Box::new(Predicate::eq("d", 2))),
            ]));
        let cols: Vec<_> = p.columns().into_iter().collect();
        assert_eq!(cols, vec!["a", "b", "c", "d"]);
        assert!(Predicate::True.columns().is_empty());
    }

    #[test]
    fn bind_unknown_column_fails() {
        let s = schema();
        assert!(Predicate::eq("missing", 1).bind(&s).is_err());
        assert!(Predicate::And(vec![Predicate::eq("missing", 1)])
            .bind(&s)
            .is_err());
    }

    #[test]
    fn always_true_bound_predicate() {
        assert!(BoundPredicate::always_true().eval(&row(1, 1, "x")));
    }

    #[test]
    fn compare_op_display() {
        assert_eq!(CompareOp::Eq.to_string(), "=");
        assert_eq!(CompareOp::Ge.to_string(), ">=");
    }
}
