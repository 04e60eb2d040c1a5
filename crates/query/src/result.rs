//! Query results.
//!
//! Results are stored as a map from group-by key to finalized aggregate values, with
//! deterministic (sorted) iteration so that equality comparisons across engines and
//! across runs are stable.

use std::collections::BTreeMap;
use std::fmt;

use cjoin_storage::Value;

use crate::aggregate::AggValue;

/// The result of one star query: a header plus one row per group.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    group_columns: Vec<String>,
    aggregate_columns: Vec<String>,
    rows: BTreeMap<Vec<Value>, Vec<AggValue>>,
}

impl QueryResult {
    /// Creates an empty result with the given header.
    pub fn new(group_columns: Vec<String>, aggregate_columns: Vec<String>) -> Self {
        Self {
            group_columns,
            aggregate_columns,
            rows: BTreeMap::new(),
        }
    }

    /// Builds a result from all of its rows at once: the rows are sorted and the
    /// map is built bottom-up in one pass, instead of one tree descent per
    /// [`insert`](QueryResult::insert). If a group key repeats, the last row wins,
    /// as with `insert`.
    pub fn from_rows(
        group_columns: Vec<String>,
        aggregate_columns: Vec<String>,
        rows: impl IntoIterator<Item = (Vec<Value>, Vec<AggValue>)>,
    ) -> Self {
        Self {
            group_columns,
            aggregate_columns,
            rows: rows.into_iter().collect(),
        }
    }

    /// Group-by column names.
    pub fn group_columns(&self) -> &[String] {
        &self.group_columns
    }

    /// Aggregate column labels.
    pub fn aggregate_columns(&self) -> &[String] {
        &self.aggregate_columns
    }

    /// Inserts (or replaces) a group's aggregate values.
    pub fn insert(&mut self, key: Vec<Value>, aggregates: Vec<AggValue>) {
        self.rows.insert(key, aggregates);
    }

    /// Number of result rows (groups).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows in deterministic (sorted group key) order.
    pub fn rows(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<AggValue>)> {
        self.rows.iter()
    }

    /// Looks up the aggregates for a specific group key.
    pub fn aggregate_for(&self, key: &[Value]) -> Option<&Vec<AggValue>> {
        self.rows.get(key)
    }

    /// Structural equality with per-value approximate float comparison.
    ///
    /// Used by tests and the experiment harness to check that CJOIN, the baseline
    /// engine and the reference oracle agree on every group and every aggregate.
    pub fn approx_eq(&self, other: &QueryResult) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        self.rows
            .iter()
            .zip(other.rows.iter())
            .all(|((ka, va), (kb, vb))| {
                ka == kb && va.len() == vb.len() && va.iter().zip(vb).all(|(a, b)| a.approx_eq(b))
            })
    }

    /// Describes the first difference from `other`, for test failure messages.
    pub fn diff(&self, other: &QueryResult) -> Option<String> {
        if self.rows.len() != other.rows.len() {
            return Some(format!(
                "row count differs: {} vs {}",
                self.rows.len(),
                other.rows.len()
            ));
        }
        for ((ka, va), (kb, vb)) in self.rows.iter().zip(other.rows.iter()) {
            if ka != kb {
                return Some(format!("group keys differ: {ka:?} vs {kb:?}"));
            }
            if va.len() != vb.len() {
                return Some(format!("aggregate count differs for group {ka:?}"));
            }
            for (i, (a, b)) in va.iter().zip(vb).enumerate() {
                if !a.approx_eq(b) {
                    return Some(format!("group {ka:?}, aggregate {i}: {a} vs {b}"));
                }
            }
        }
        None
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header: Vec<String> = self
            .group_columns
            .iter()
            .cloned()
            .chain(self.aggregate_columns.iter().cloned())
            .collect();
        writeln!(f, "{}", header.join(" | "))?;
        for (key, aggs) in &self.rows {
            let cells: Vec<String> = key
                .iter()
                .map(|v| v.to_string())
                .chain(aggs.iter().map(|a| a.to_string()))
                .collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(groups: &[(i64, i128)]) -> QueryResult {
        let mut r = QueryResult::new(vec!["g".into()], vec!["SUM(x)".into()]);
        for (g, s) in groups {
            r.insert(vec![Value::int(*g)], vec![AggValue::Int(*s)]);
        }
        r
    }

    #[test]
    fn insert_and_lookup() {
        let r = result_with(&[(1, 10), (2, 20)]);
        assert_eq!(r.num_rows(), 2);
        assert!(!r.is_empty());
        assert_eq!(
            r.aggregate_for(&[Value::int(2)]).unwrap()[0],
            AggValue::Int(20)
        );
        assert!(r.aggregate_for(&[Value::int(3)]).is_none());
        assert_eq!(r.group_columns(), &["g".to_string()]);
        assert_eq!(r.aggregate_columns(), &["SUM(x)".to_string()]);
    }

    #[test]
    fn rows_iterate_in_sorted_key_order() {
        let r = result_with(&[(5, 1), (1, 2), (3, 3)]);
        let keys: Vec<i64> = r.rows().map(|(k, _)| k[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn from_rows_matches_row_by_row_insert() {
        // Unsorted input with a repeated key: same map as inserting in that order.
        let groups = [(5, 1), (1, 2), (3, 3), (1, 9)];
        let bulk = QueryResult::from_rows(
            vec!["g".into()],
            vec!["SUM(x)".into()],
            groups
                .iter()
                .map(|&(g, s)| (vec![Value::int(g)], vec![AggValue::Int(s)])),
        );
        assert_eq!(bulk, result_with(&groups));
        assert_eq!(bulk.num_rows(), 3);
        assert_eq!(
            bulk.aggregate_for(&[Value::int(1)]).unwrap()[0],
            AggValue::Int(9)
        );
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = result_with(&[(1, 10), (2, 20)]);
        let b = result_with(&[(1, 10), (2, 20)]);
        assert!(a.approx_eq(&b));
        assert!(a.diff(&b).is_none());

        let c = result_with(&[(1, 10), (2, 21)]);
        assert!(!a.approx_eq(&c));
        assert!(a.diff(&c).unwrap().contains("aggregate 0"));

        let d = result_with(&[(1, 10)]);
        assert!(!a.approx_eq(&d));
        assert!(a.diff(&d).unwrap().contains("row count"));

        let e = result_with(&[(1, 10), (3, 20)]);
        assert!(a.diff(&e).unwrap().contains("group keys"));
    }

    #[test]
    fn float_aggregates_compare_approximately() {
        let mut a = QueryResult::new(vec![], vec!["AVG(x)".into()]);
        a.insert(vec![], vec![AggValue::Float(10.0)]);
        let mut b = QueryResult::new(vec![], vec!["AVG(x)".into()]);
        b.insert(vec![], vec![AggValue::Float(10.0 + 1e-13)]);
        assert!(a.approx_eq(&b));
    }

    #[test]
    fn display_renders_header_and_rows() {
        let r = result_with(&[(1, 10)]);
        let s = r.to_string();
        assert!(s.contains("g | SUM(x)"));
        assert!(s.contains("1 | 10"));
    }

    #[test]
    fn insert_replaces_existing_group() {
        let mut r = result_with(&[(1, 10)]);
        r.insert(vec![Value::int(1)], vec![AggValue::Int(99)]);
        assert_eq!(r.num_rows(), 1);
        assert_eq!(
            r.aggregate_for(&[Value::int(1)]).unwrap()[0],
            AggValue::Int(99)
        );
    }
}
