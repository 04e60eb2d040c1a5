//! The fact-to-fact join operator: merging two partially aggregated star results.
//!
//! Each star sub-query produced by [`crate::GalaxyQuery::decompose`] returns one row
//! per `(pivot key, side group-by columns)` combination, carrying the side-local
//! partial aggregates plus the group's row multiplicity. This module joins the two
//! results on the pivot key and finalises the galaxy query's aggregates:
//!
//! * `COUNT(*)` over the join = Σ multiplicity_A × multiplicity_B
//! * `SUM(col@A)` = Σ partial_sum_A × multiplicity_B (each A-row pairs with every
//!   B-row of the same pivot key), and symmetrically for side B
//! * `COUNT(col@A)` = Σ partial_count_A × multiplicity_B
//! * `MIN`/`MAX` are join-invariant: the minimum over the join equals the minimum of
//!   the per-pivot partial minima that actually find a join partner
//! * `AVG(col@A)` = `SUM(col@A)` / `COUNT(col@A)` computed from the partials above
//!
//! This is the role §5 assigns to the operator that the Distributor pipes star
//! results into, in place of a per-query aggregation operator.

use cjoin_common::FxHashMap;
use cjoin_query::{AggValue, QueryResult};
use cjoin_storage::Value;

use crate::query::Side;

/// How one output group-by column is read from the joined side results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeGroupColumn {
    /// Which side's group key carries the value.
    pub side: Side,
    /// Position within that side's group key (position 0 is the pivot).
    pub key_position: usize,
    /// Output column name.
    pub name: String,
}

/// How one output aggregate is computed from the side partials.
///
/// `partial` indices refer to positions within the owning side's aggregate list
/// (the multiplicity `COUNT(*)` appended by the decomposition is *not* counted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeAgg {
    /// `COUNT(*)` over the joined rows.
    CountStar,
    /// `COUNT(col)` on one side.
    CountColumn {
        /// Owning side.
        side: Side,
        /// Index of the side's `COUNT(col)` partial.
        partial: usize,
    },
    /// `SUM(col)` on one side.
    Sum {
        /// Owning side.
        side: Side,
        /// Index of the side's `SUM(col)` partial.
        partial: usize,
    },
    /// `MIN(col)` on one side.
    Min {
        /// Owning side.
        side: Side,
        /// Index of the side's `MIN(col)` partial.
        partial: usize,
    },
    /// `MAX(col)` on one side.
    Max {
        /// Owning side.
        side: Side,
        /// Index of the side's `MAX(col)` partial.
        partial: usize,
    },
    /// `AVG(col)` on one side, finalised from a SUM and a COUNT partial.
    Avg {
        /// Owning side.
        side: Side,
        /// Index of the side's `SUM(col)` partial.
        sum_partial: usize,
        /// Index of the side's `COUNT(col)` partial.
        count_partial: usize,
    },
}

/// The full plan for joining and finalising the two star sub-query results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    /// Output group-by columns, in the galaxy query's order.
    pub group_columns: Vec<MergeGroupColumn>,
    /// Output aggregates, in the galaxy query's order.
    pub aggregates: Vec<MergeAgg>,
    /// Output aggregate labels, parallel to `aggregates`.
    pub aggregate_labels: Vec<String>,
    /// Number of partial aggregates (excluding the multiplicity) per side.
    pub partial_counts: [usize; 2],
}

/// Running state of one output aggregate while pairs of side groups are combined.
#[derive(Debug, Clone)]
enum MergeAcc {
    Count(i128),
    Sum {
        sum: i128,
        seen: bool,
    },
    Extreme {
        current: Option<AggValue>,
        is_min: bool,
    },
    Avg {
        sum: i128,
        count: i128,
    },
}

impl MergeAcc {
    fn new(agg: &MergeAgg) -> Self {
        match agg {
            MergeAgg::CountStar | MergeAgg::CountColumn { .. } => MergeAcc::Count(0),
            MergeAgg::Sum { .. } => MergeAcc::Sum {
                sum: 0,
                seen: false,
            },
            MergeAgg::Min { .. } => MergeAcc::Extreme {
                current: None,
                is_min: true,
            },
            MergeAgg::Max { .. } => MergeAcc::Extreme {
                current: None,
                is_min: false,
            },
            MergeAgg::Avg { .. } => MergeAcc::Avg { sum: 0, count: 0 },
        }
    }

    fn finalize(&self) -> AggValue {
        match self {
            MergeAcc::Count(c) => AggValue::Int(*c),
            MergeAcc::Sum { sum, seen } => {
                if *seen {
                    AggValue::Int(*sum)
                } else {
                    AggValue::Null
                }
            }
            MergeAcc::Extreme { current, .. } => current.clone().unwrap_or(AggValue::Null),
            MergeAcc::Avg { sum, count } => {
                if *count == 0 {
                    AggValue::Null
                } else {
                    AggValue::Float(*sum as f64 / *count as f64)
                }
            }
        }
    }
}

/// Extracts the integer payload of a partial COUNT/SUM, treating NULL as "absent".
fn as_int(value: &AggValue) -> Option<i128> {
    match value {
        AggValue::Int(i) => Some(*i),
        _ => None,
    }
}

/// Compares two MIN/MAX partial values of the same type.
fn better(candidate: &AggValue, current: &AggValue, is_min: bool) -> bool {
    match (candidate, current) {
        (AggValue::Int(a), AggValue::Int(b)) => {
            if is_min {
                a < b
            } else {
                a > b
            }
        }
        (AggValue::Str(a), AggValue::Str(b)) => {
            if is_min {
                a < b
            } else {
                a > b
            }
        }
        // Mismatched or float partials cannot be produced by the decomposition.
        _ => false,
    }
}

/// Joins the two partially aggregated star results on the pivot key and finalises the
/// galaxy query's aggregates.
///
/// `result_a` / `result_b` must be the outputs of the star sub-queries produced by
/// [`crate::GalaxyQuery::decompose`] for the same plan.
pub fn merge_results(
    result_a: &QueryResult,
    result_b: &QueryResult,
    plan: &MergePlan,
) -> QueryResult {
    /// One partially aggregated group row: `(group key, aggregate states)`.
    type GroupRow<'a> = (&'a Vec<Value>, &'a Vec<AggValue>);
    // Index side B by pivot value (position 0 of its group key).
    let mut b_by_pivot: FxHashMap<&Value, Vec<GroupRow<'_>>> = FxHashMap::default();
    for (key, aggs) in result_b.rows() {
        b_by_pivot.entry(&key[0]).or_default().push((key, aggs));
    }

    let multiplicity = |aggs: &[AggValue]| -> i128 { aggs.last().and_then(as_int).unwrap_or(0) };

    let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<MergeAcc>> =
        std::collections::BTreeMap::new();

    for (key_a, aggs_a) in result_a.rows() {
        let Some(matches) = b_by_pivot.get(&key_a[0]) else {
            continue;
        };
        let mult_a = multiplicity(aggs_a);
        for (key_b, aggs_b) in matches {
            let mult_b = multiplicity(aggs_b);
            if mult_a == 0 || mult_b == 0 {
                continue;
            }

            // Assemble the output group key.
            let output_key: Vec<Value> = plan
                .group_columns
                .iter()
                .map(|col| match col.side {
                    Side::A => key_a[col.key_position].clone(),
                    Side::B => key_b[col.key_position].clone(),
                })
                .collect();

            let accs = groups
                .entry(output_key)
                .or_insert_with(|| plan.aggregates.iter().map(MergeAcc::new).collect());

            for (acc, agg) in accs.iter_mut().zip(&plan.aggregates) {
                // The partials of `side` together with the *other* side's multiplicity.
                let side_aggs = |side: Side| -> (&[AggValue], i128) {
                    match side {
                        Side::A => (aggs_a.as_slice(), mult_b),
                        Side::B => (aggs_b.as_slice(), mult_a),
                    }
                };
                match (acc, agg) {
                    (MergeAcc::Count(c), MergeAgg::CountStar) => *c += mult_a * mult_b,
                    (MergeAcc::Count(c), MergeAgg::CountColumn { side, partial }) => {
                        let (aggs, other) = side_aggs(*side);
                        if let Some(count) = as_int(&aggs[*partial]) {
                            *c += count * other;
                        }
                    }
                    (MergeAcc::Sum { sum, seen }, MergeAgg::Sum { side, partial }) => {
                        let (aggs, other) = side_aggs(*side);
                        if let Some(s) = as_int(&aggs[*partial]) {
                            *sum += s * other;
                            *seen = true;
                        }
                    }
                    (MergeAcc::Extreme { current, is_min }, MergeAgg::Min { side, partial })
                    | (MergeAcc::Extreme { current, is_min }, MergeAgg::Max { side, partial }) => {
                        let (aggs, _) = side_aggs(*side);
                        let candidate = &aggs[*partial];
                        if !matches!(candidate, AggValue::Null)
                            && current
                                .as_ref()
                                .is_none_or(|cur| better(candidate, cur, *is_min))
                        {
                            *current = Some(candidate.clone());
                        }
                    }
                    (
                        MergeAcc::Avg { sum, count },
                        MergeAgg::Avg {
                            side,
                            sum_partial,
                            count_partial,
                        },
                    ) => {
                        let (aggs, other) = side_aggs(*side);
                        if let Some(s) = as_int(&aggs[*sum_partial]) {
                            *sum += s * other;
                        }
                        if let Some(c) = as_int(&aggs[*count_partial]) {
                            *count += c * other;
                        }
                    }
                    (acc, agg) => unreachable!("accumulator/plan mismatch: {acc:?} vs {agg:?}"),
                }
            }
        }
    }

    QueryResult::from_rows(
        plan.group_columns.iter().map(|c| c.name.clone()).collect(),
        plan.aggregate_labels.clone(),
        groups
            .into_iter()
            .map(|(key, accs)| (key, accs.iter().map(MergeAcc::finalize).collect())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a side result with the given rows: `(key, partials + multiplicity)`.
    fn side_result(rows: Vec<(Vec<Value>, Vec<AggValue>)>) -> QueryResult {
        let key_width = rows.first().map_or(1, |(k, _)| k.len());
        let agg_width = rows.first().map_or(1, |(_, a)| a.len());
        let mut r = QueryResult::new(
            (0..key_width).map(|i| format!("k{i}")).collect(),
            (0..agg_width).map(|i| format!("p{i}")).collect(),
        );
        for (k, a) in rows {
            r.insert(k, a);
        }
        r
    }

    fn count_star_plan() -> MergePlan {
        MergePlan {
            group_columns: vec![],
            aggregates: vec![MergeAgg::CountStar],
            aggregate_labels: vec!["COUNT(*)".into()],
            partial_counts: [0, 0],
        }
    }

    #[test]
    fn count_star_multiplies_multiplicities() {
        // Pivot 1: 2 rows on A, 3 on B -> 6 joined rows. Pivot 2: A only -> dropped.
        let a = side_result(vec![
            (vec![Value::int(1)], vec![AggValue::Int(2)]),
            (vec![Value::int(2)], vec![AggValue::Int(5)]),
        ]);
        let b = side_result(vec![(vec![Value::int(1)], vec![AggValue::Int(3)])]);
        let merged = merge_results(&a, &b, &count_star_plan());
        assert_eq!(merged.num_rows(), 1);
        assert_eq!(merged.aggregate_for(&[]).unwrap()[0], AggValue::Int(6));
    }

    #[test]
    fn empty_join_produces_empty_result() {
        let a = side_result(vec![(vec![Value::int(1)], vec![AggValue::Int(2)])]);
        let b = side_result(vec![(vec![Value::int(9)], vec![AggValue::Int(3)])]);
        let merged = merge_results(&a, &b, &count_star_plan());
        assert!(merged.is_empty());
        assert_eq!(merged.aggregate_columns(), &["COUNT(*)".to_string()]);
    }

    #[test]
    fn sum_scales_with_other_side_multiplicity() {
        // Side A carries SUM partial 100 over 2 rows at pivot 1; side B has 3 rows.
        let plan = MergePlan {
            group_columns: vec![],
            aggregates: vec![MergeAgg::Sum {
                side: Side::A,
                partial: 0,
            }],
            aggregate_labels: vec!["SUM(a.v)".into()],
            partial_counts: [1, 0],
        };
        let a = side_result(vec![(
            vec![Value::int(1)],
            vec![AggValue::Int(100), AggValue::Int(2)],
        )]);
        let b = side_result(vec![(vec![Value::int(1)], vec![AggValue::Int(3)])]);
        let merged = merge_results(&a, &b, &plan);
        assert_eq!(merged.aggregate_for(&[]).unwrap()[0], AggValue::Int(300));
    }

    #[test]
    fn group_columns_come_from_their_side() {
        let plan = MergePlan {
            group_columns: vec![
                MergeGroupColumn {
                    side: Side::A,
                    key_position: 1,
                    name: "a.g".into(),
                },
                MergeGroupColumn {
                    side: Side::B,
                    key_position: 1,
                    name: "b.h".into(),
                },
            ],
            aggregates: vec![MergeAgg::CountStar],
            aggregate_labels: vec!["COUNT(*)".into()],
            partial_counts: [0, 0],
        };
        let a = side_result(vec![
            (vec![Value::int(1), Value::str("x")], vec![AggValue::Int(1)]),
            (vec![Value::int(1), Value::str("y")], vec![AggValue::Int(2)]),
        ]);
        let b = side_result(vec![
            (vec![Value::int(1), Value::str("p")], vec![AggValue::Int(1)]),
            (vec![Value::int(1), Value::str("q")], vec![AggValue::Int(4)]),
        ]);
        let merged = merge_results(&a, &b, &plan);
        assert_eq!(merged.num_rows(), 4);
        assert_eq!(
            merged.group_columns(),
            &["a.g".to_string(), "b.h".to_string()]
        );
        assert_eq!(
            merged
                .aggregate_for(&[Value::str("y"), Value::str("q")])
                .unwrap()[0],
            AggValue::Int(8)
        );
        assert_eq!(
            merged
                .aggregate_for(&[Value::str("x"), Value::str("p")])
                .unwrap()[0],
            AggValue::Int(1)
        );
    }

    #[test]
    fn min_max_ignore_multiplicity_and_nulls() {
        let plan = MergePlan {
            group_columns: vec![],
            aggregates: vec![
                MergeAgg::Min {
                    side: Side::A,
                    partial: 0,
                },
                MergeAgg::Max {
                    side: Side::A,
                    partial: 0,
                },
            ],
            aggregate_labels: vec!["MIN(a.v)".into(), "MAX(a.v)".into()],
            partial_counts: [1, 0],
        };
        let a = side_result(vec![
            (
                vec![Value::int(1)],
                vec![AggValue::Int(5), AggValue::Int(10)],
            ),
            (
                vec![Value::int(2)],
                vec![AggValue::Int(-3), AggValue::Int(1)],
            ),
            (vec![Value::int(3)], vec![AggValue::Null, AggValue::Int(1)]),
            // Pivot 4 has a larger value but no join partner: must not influence MAX.
            (
                vec![Value::int(4)],
                vec![AggValue::Int(999), AggValue::Int(1)],
            ),
        ]);
        let b = side_result(vec![
            (vec![Value::int(1)], vec![AggValue::Int(7)]),
            (vec![Value::int(2)], vec![AggValue::Int(1)]),
            (vec![Value::int(3)], vec![AggValue::Int(1)]),
        ]);
        let merged = merge_results(&a, &b, &plan);
        let aggs = merged.aggregate_for(&[]).unwrap();
        assert_eq!(aggs[0], AggValue::Int(-3));
        assert_eq!(aggs[1], AggValue::Int(5));
    }

    #[test]
    fn avg_combines_sum_and_count_partials() {
        let plan = MergePlan {
            group_columns: vec![],
            aggregates: vec![MergeAgg::Avg {
                side: Side::B,
                sum_partial: 0,
                count_partial: 1,
            }],
            aggregate_labels: vec!["AVG(b.v)".into()],
            partial_counts: [0, 2],
        };
        // Pivot 1: B sum=30 over 3 values, A multiplicity 2 -> contributes 60/6.
        // Pivot 2: B sum=10 over 1 value, A multiplicity 1 -> contributes 10/1.
        let a = side_result(vec![
            (vec![Value::int(1)], vec![AggValue::Int(2)]),
            (vec![Value::int(2)], vec![AggValue::Int(1)]),
        ]);
        let b = side_result(vec![
            (
                vec![Value::int(1)],
                vec![AggValue::Int(30), AggValue::Int(3), AggValue::Int(3)],
            ),
            (
                vec![Value::int(2)],
                vec![AggValue::Int(10), AggValue::Int(1), AggValue::Int(1)],
            ),
        ]);
        let merged = merge_results(&a, &b, &plan);
        let avg = &merged.aggregate_for(&[]).unwrap()[0];
        assert!(avg.approx_eq(&AggValue::Float(70.0 / 7.0)), "{avg:?}");
    }

    #[test]
    fn sum_of_all_null_partials_is_null() {
        let plan = MergePlan {
            group_columns: vec![],
            aggregates: vec![MergeAgg::Sum {
                side: Side::A,
                partial: 0,
            }],
            aggregate_labels: vec!["SUM(a.v)".into()],
            partial_counts: [1, 0],
        };
        let a = side_result(vec![(
            vec![Value::int(1)],
            vec![AggValue::Null, AggValue::Int(2)],
        )]);
        let b = side_result(vec![(vec![Value::int(1)], vec![AggValue::Int(3)])]);
        let merged = merge_results(&a, &b, &plan);
        assert_eq!(merged.aggregate_for(&[]).unwrap()[0], AggValue::Null);
    }

    #[test]
    fn string_group_keys_and_string_extremes() {
        let plan = MergePlan {
            group_columns: vec![MergeGroupColumn {
                side: Side::B,
                key_position: 1,
                name: "b.city".into(),
            }],
            aggregates: vec![MergeAgg::Min {
                side: Side::B,
                partial: 0,
            }],
            aggregate_labels: vec!["MIN(b.name)".into()],
            partial_counts: [0, 1],
        };
        let a = side_result(vec![(vec![Value::int(1)], vec![AggValue::Int(1)])]);
        let b = side_result(vec![
            (
                vec![Value::int(1), Value::str("LYON")],
                vec![AggValue::Str("alpha".into()), AggValue::Int(2)],
            ),
            (
                vec![Value::int(1), Value::str("NICE")],
                vec![AggValue::Str("beta".into()), AggValue::Int(1)],
            ),
        ]);
        let merged = merge_results(&a, &b, &plan);
        assert_eq!(merged.num_rows(), 2);
        assert_eq!(
            merged.aggregate_for(&[Value::str("LYON")]).unwrap()[0],
            AggValue::Str("alpha".into())
        );
    }
}
