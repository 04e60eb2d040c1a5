//! Randomized property tests over the core invariants:
//!
//! * For arbitrary small star-schema universes and arbitrary star queries, the CJOIN
//!   pipeline, the query-at-a-time baseline and the reference evaluator agree — the
//!   filtering invariant of §3.2.2 made executable.
//! * Query bit-vector algebra obeys the set laws the Filters rely on.
//! * Aggregate state merging is equivalent to single-pass accumulation.
//! * The aggregation kernel agrees with a group-by fold that shares no code with it.
//!
//! Cases are generated from a fixed-seed [`StdRng`], so every run explores the same
//! (broad) input space deterministically; on failure the assertion message carries
//! the case index, which pins down the failing input exactly.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::common::QuerySet;
use cjoin_repro::query::{reference, AggValue, AggregateSpec, GroupedAggregator, Predicate};
use cjoin_repro::storage::{Catalog, Column, Row, Schema, Table, Value};
use cjoin_repro::{AggFunc, ColumnRef, SnapshotId, StarQuery};

// ---------------------------------------------------------------------------
// Random star-schema universes and queries
// ---------------------------------------------------------------------------

/// A generated warehouse: 2 dimensions ("alpha", "beta") and a fact table whose rows
/// reference them by key, plus a measure column.
#[derive(Debug, Clone)]
struct Universe {
    alpha_names: Vec<String>,
    beta_sizes: Vec<i64>,
    fact: Vec<(i64, i64, i64)>, // (alpha_key, beta_key, amount); keys may dangle
}

/// A short random string over the letters a–d (the alpha-dimension name domain).
fn random_alpha_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=3usize);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..4u8)) as char)
        .collect()
}

fn random_universe(rng: &mut StdRng) -> Universe {
    let alpha_names: Vec<String> = (0..rng.gen_range(1..6usize))
        .map(|_| random_alpha_name(rng))
        .collect();
    let beta_sizes: Vec<i64> = (0..rng.gen_range(1..5usize))
        .map(|_| rng.gen_range(1i64..50))
        .collect();
    let a_max = alpha_names.len() as i64 + 1; // +1 allows dangling keys
    let b_max = beta_sizes.len() as i64 + 1;
    let fact = (0..rng.gen_range(1..120usize))
        .map(|_| {
            (
                rng.gen_range(1..=a_max),
                rng.gen_range(1..=b_max),
                rng.gen_range(0i64..1000),
            )
        })
        .collect();
    Universe {
        alpha_names,
        beta_sizes,
        fact,
    }
}

/// A generated query over the universe: optional predicates on either dimension,
/// optional fact predicate, group-by choice and a couple of aggregates.
#[derive(Debug, Clone)]
struct GeneratedQuery {
    alpha_pred_letter: Option<char>,
    beta_min_size: Option<i64>,
    fact_min_amount: Option<i64>,
    join_alpha: bool,
    join_beta: bool,
    group_by_alpha: bool,
}

fn random_query(rng: &mut StdRng) -> GeneratedQuery {
    GeneratedQuery {
        alpha_pred_letter: rng
            .gen_bool(0.5)
            .then(|| (b'a' + rng.gen_range(0..4u8)) as char),
        beta_min_size: rng.gen_bool(0.5).then(|| rng.gen_range(1i64..50)),
        fact_min_amount: rng.gen_bool(0.5).then(|| rng.gen_range(0i64..1000)),
        join_alpha: rng.gen_bool(0.5),
        join_beta: rng.gen_bool(0.5),
        group_by_alpha: rng.gen_bool(0.5),
    }
}

fn build_catalog(universe: &Universe) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let alpha = Table::new(Schema::new(
        "alpha",
        vec![Column::int("a_key"), Column::str("a_name")],
    ));
    for (i, name) in universe.alpha_names.iter().enumerate() {
        alpha
            .insert(
                vec![Value::int(i as i64 + 1), Value::str(name)],
                SnapshotId::INITIAL,
            )
            .unwrap();
    }
    let beta = Table::new(Schema::new(
        "beta",
        vec![Column::int("b_key"), Column::int("b_size")],
    ));
    for (i, size) in universe.beta_sizes.iter().enumerate() {
        beta.insert(
            vec![Value::int(i as i64 + 1), Value::int(*size)],
            SnapshotId::INITIAL,
        )
        .unwrap();
    }
    let fact = Table::with_rows_per_page(
        Schema::new(
            "facts",
            vec![
                Column::int("f_alpha"),
                Column::int("f_beta"),
                Column::int("f_amount"),
            ],
        ),
        16,
    );
    fact.insert_batch_unchecked(
        universe.fact.iter().map(|(a, b, amount)| {
            Row::new(vec![Value::int(*a), Value::int(*b), Value::int(*amount)])
        }),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(alpha));
    catalog.add_table(Arc::new(beta));
    catalog.add_fact_table(Arc::new(fact));
    Arc::new(catalog)
}

fn build_query(spec: &GeneratedQuery, index: usize) -> StarQuery {
    let mut builder = StarQuery::builder(format!("prop#{index}"));
    if let Some(min) = spec.fact_min_amount {
        builder = builder.fact_predicate(Predicate::Compare {
            column: "f_amount".into(),
            op: cjoin_repro::query::CompareOp::Ge,
            value: Value::int(min),
        });
    }
    if spec.join_alpha {
        let pred = match spec.alpha_pred_letter {
            Some(letter) => {
                Predicate::between("a_name", letter.to_string(), format!("{letter}zzz"))
            }
            None => Predicate::True,
        };
        builder = builder.join_dimension("alpha", "f_alpha", "a_key", pred);
    }
    if spec.join_beta {
        let pred = match spec.beta_min_size {
            Some(min) => Predicate::Compare {
                column: "b_size".into(),
                op: cjoin_repro::query::CompareOp::Ge,
                value: Value::int(min),
            },
            None => Predicate::True,
        };
        builder = builder.join_dimension("beta", "f_beta", "b_key", pred);
    }
    if spec.group_by_alpha && spec.join_alpha {
        builder = builder.group_by(ColumnRef::dim("alpha", "a_name"));
    }
    builder
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("f_amount"),
        ))
        .aggregate(AggregateSpec::over(
            AggFunc::Min,
            ColumnRef::fact("f_amount"),
        ))
        .build()
}

/// CJOIN and the baseline agree with the reference evaluator on arbitrary
/// universes and concurrent query mixes.
#[test]
fn engines_agree_on_random_workloads() {
    let mut rng = StdRng::seed_from_u64(0xC101);
    for case in 0..24 {
        let universe = random_universe(&mut rng);
        let num_queries = rng.gen_range(1..5usize);
        let catalog = build_catalog(&universe);
        let queries: Vec<StarQuery> = (0..num_queries)
            .map(|i| build_query(&random_query(&mut rng), i))
            .collect();

        let baseline = BaselineEngine::new(Arc::clone(&catalog), BaselineConfig::default());
        let engine = CjoinEngine::start(
            Arc::clone(&catalog),
            CjoinConfig::default()
                .with_max_concurrency(16)
                .with_batch_size(32),
        )
        .unwrap();

        // All queries run concurrently in the shared pipeline.
        let handles: Vec<_> = queries
            .iter()
            .map(|q| engine.submit(q.clone()).unwrap())
            .collect();
        for (query, handle) in queries.iter().zip(handles) {
            let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
            let (baseline_result, _) = baseline.execute(query).unwrap();
            let cjoin_result = handle.wait().unwrap();
            assert!(
                baseline_result.approx_eq(&expected),
                "case {case}: baseline diverged on {}: {:?}",
                query.name,
                baseline_result.diff(&expected)
            );
            assert!(
                cjoin_result.approx_eq(&expected),
                "case {case}: cjoin diverged on {}: {:?}",
                query.name,
                cjoin_result.diff(&expected)
            );
        }
        engine.shutdown();
    }
}

/// Bit-vector AND/OR/subset behave like the corresponding set operations.
#[test]
fn query_set_obeys_set_algebra() {
    let mut rng = StdRng::seed_from_u64(0xC102);
    for case in 0..256 {
        let capacity = rng.gen_range(1usize..200);
        let a_bits: Vec<usize> = (0..rng.gen_range(0..32usize))
            .map(|_| rng.gen_range(0usize..200))
            .filter(|&b| b < capacity)
            .collect();
        let b_bits: Vec<usize> = (0..rng.gen_range(0..32usize))
            .map(|_| rng.gen_range(0usize..200))
            .filter(|&b| b < capacity)
            .collect();
        let a = QuerySet::from_bits(capacity, a_bits.iter().copied());
        let b = QuerySet::from_bits(capacity, b_bits.iter().copied());

        use std::collections::BTreeSet;
        let sa: BTreeSet<usize> = a_bits.iter().copied().collect();
        let sb: BTreeSet<usize> = b_bits.iter().copied().collect();

        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(
            and.iter().collect::<Vec<_>>(),
            sa.intersection(&sb).copied().collect::<Vec<_>>(),
            "case {case}: intersection"
        );

        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(
            or.iter().collect::<Vec<_>>(),
            sa.union(&sb).copied().collect::<Vec<_>>(),
            "case {case}: union"
        );

        let mut and_not = a.clone();
        and_not.and_not_assign(&b);
        assert_eq!(
            and_not.iter().collect::<Vec<_>>(),
            sa.difference(&sb).copied().collect::<Vec<_>>(),
            "case {case}: difference"
        );

        assert_eq!(a.is_subset_of(&b), sa.is_subset(&sb), "case {case}: subset");
        assert_eq!(
            a.intersects(&b),
            !sa.is_disjoint(&sb),
            "case {case}: intersects"
        );
        assert_eq!(a.count(), sa.len(), "case {case}: count");
        assert_eq!(a.is_empty(), sa.is_empty(), "case {case}: is_empty");
    }
}

/// Merging partial aggregation states is equivalent to accumulating everything in
/// one pass (the property that would let the Distributor be parallelised).
#[test]
fn aggregate_merge_matches_single_pass() {
    let mut rng = StdRng::seed_from_u64(0xC103);
    for case in 0..256 {
        let values: Vec<(i64, i64)> = (0..rng.gen_range(1..80usize))
            .map(|_| (rng.gen_range(0i64..5), rng.gen_range(-1000i64..1000)))
            .collect();
        let split = rng.gen_range(0usize..80).min(values.len());

        // Group by fact column 0; aggregate COUNT / SUM / MIN / MAX / AVG over column 1.
        let query = cjoin_repro::query::star::tests_support::simple_bound_query(
            vec![0],
            vec![
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ],
        );

        let mut single = GroupedAggregator::new(&query);
        for (group, amount) in &values {
            single.accumulate(
                &Row::new(vec![Value::int(*group), Value::int(*amount)]),
                &[],
            );
        }

        let mut left = GroupedAggregator::new(&query);
        let mut right = GroupedAggregator::new(&query);
        for (group, amount) in &values[..split] {
            left.accumulate(
                &Row::new(vec![Value::int(*group), Value::int(*amount)]),
                &[],
            );
        }
        for (group, amount) in &values[split..] {
            right.accumulate(
                &Row::new(vec![Value::int(*group), Value::int(*amount)]),
                &[],
            );
        }
        left.merge(right);

        let a = single.finalize();
        let b = left.finalize();
        assert!(
            a.approx_eq(&b),
            "case {case}: merged aggregation diverged: {:?}",
            a.diff(&b)
        );
    }
}

/// One group's running aggregates in the naive oracle below, written out with no
/// reference to the library's aggregation code.
#[derive(Default)]
struct NaiveGroup {
    rows: u64,
    amounts: Vec<i64>,
    names: Vec<String>,
    labels: Vec<String>,
}

/// The aggregation kernel against a group-by oracle that shares no code with it.
///
/// `reference::evaluate`, the baseline and the CJOIN Distributor all aggregate
/// through [`GroupedAggregator`], so every engine-vs-engine oracle is blind to a
/// kernel bug (bad hash or equality, a group lost on index growth, a wrong merge).
/// Here the expected result comes from a `BTreeMap` fold written in this test, over
/// high-cardinality keys mixing `Int`, `Str` and `Null` on both the fact and the
/// dimension side, with all five aggregate functions.
#[test]
fn aggregation_kernel_matches_a_naive_group_by() {
    let catalog = Catalog::new();
    catalog.add_fact_table(Arc::new(Table::new(Schema::new(
        "facts",
        vec![
            Column::int("f_dim"),
            Column::int("f_tag"),
            Column::str("f_label"),
            Column::int("f_amount"),
        ],
    ))));
    catalog.add_table(Arc::new(Table::new(Schema::new(
        "dim",
        vec![Column::int("d_key"), Column::str("d_name")],
    ))));
    let amount = || ColumnRef::fact("f_amount");
    let query = StarQuery::builder("naive-oracle")
        .join_dimension("dim", "f_dim", "d_key", Predicate::True)
        .group_by(ColumnRef::dim("dim", "d_name"))
        .group_by(ColumnRef::fact("f_tag"))
        .group_by(ColumnRef::fact("f_label"))
        .aggregate(AggregateSpec::count_star())
        .aggregate(AggregateSpec::over(AggFunc::Count, amount()))
        .aggregate(AggregateSpec::over(AggFunc::Sum, amount()))
        .aggregate(AggregateSpec::over(AggFunc::Min, amount()))
        .aggregate(AggregateSpec::over(AggFunc::Max, amount()))
        .aggregate(AggregateSpec::over(AggFunc::Avg, amount()))
        .aggregate(AggregateSpec::over(
            AggFunc::Min,
            ColumnRef::dim("dim", "d_name"),
        ))
        .aggregate(AggregateSpec::over(
            AggFunc::Max,
            ColumnRef::fact("f_label"),
        ))
        .build()
        .bind(&catalog)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(0xC105);
    for case in 0..4 {
        // 300 dimension rows over 120 names: equal names sit in distinct
        // allocations, as they do after a dimension row is re-versioned.
        let dim_rows: Vec<Row> = (0..300)
            .map(|k| {
                let name = format!("name-{:03}", rng.gen_range(0..120u32));
                Row::new(vec![Value::int(k), Value::str(name)])
            })
            .collect();
        let labels = ["", "a", "b", "ab", "ba"];
        let joined: Vec<(Row, Option<&Row>)> = (0..6_000)
            .map(|_| {
                let dim = (!rng.gen_bool(0.05)).then(|| &dim_rows[rng.gen_range(0..300usize)]);
                let nullable_int = |rng: &mut StdRng, range: std::ops::Range<i64>| {
                    if rng.gen_bool(0.1) {
                        Value::Null
                    } else {
                        Value::int(rng.gen_range(range))
                    }
                };
                let tag = nullable_int(&mut rng, 0..40);
                let label = match rng.gen_range(0..=labels.len()) {
                    i if i < labels.len() => Value::str(labels[i]),
                    _ => Value::Null,
                };
                let amount = nullable_int(&mut rng, -1000..1000);
                let key = dim.map_or(Value::Null, |d| d.get(0).clone());
                (Row::new(vec![key, tag, label, amount]), dim)
            })
            .collect();

        // The oracle: fold into a BTreeMap keyed by the group-by values, keep the
        // raw inputs per group, and compute every aggregate from them at the end.
        let mut naive: std::collections::BTreeMap<Vec<Value>, NaiveGroup> = Default::default();
        for (fact, dim) in &joined {
            let name = dim.map_or(Value::Null, |d| d.get(1).clone());
            let group = naive
                .entry(vec![name.clone(), fact.get(1).clone(), fact.get(2).clone()])
                .or_default();
            group.rows += 1;
            if let Value::Int(amount) = fact.get(3) {
                group.amounts.push(*amount);
            }
            if let Value::Str(name) = &name {
                group.names.push(name.to_string());
            }
            if let Value::Str(label) = fact.get(2) {
                group.labels.push(label.to_string());
            }
        }
        assert!(naive.len() > 3_000, "case {case}: high cardinality");
        let mut expected = cjoin_repro::QueryResult::new(Vec::new(), Vec::new());
        for (key, group) in naive {
            let int = |v: Option<i64>| v.map_or(AggValue::Null, |v| AggValue::Int(v.into()));
            let text = |v: Option<&String>| v.map_or(AggValue::Null, |v| AggValue::Str(v.clone()));
            let sum: i128 = group.amounts.iter().map(|&a| i128::from(a)).sum();
            let seen = !group.amounts.is_empty();
            expected.insert(
                key,
                vec![
                    AggValue::Int(group.rows.into()),
                    AggValue::Int(group.amounts.len() as i128),
                    if seen {
                        AggValue::Int(sum)
                    } else {
                        AggValue::Null
                    },
                    int(group.amounts.iter().copied().min()),
                    int(group.amounts.iter().copied().max()),
                    if seen {
                        AggValue::Float(sum as f64 / group.amounts.len() as f64)
                    } else {
                        AggValue::Null
                    },
                    text(group.names.iter().min()),
                    text(group.labels.iter().max()),
                ],
            );
        }

        // (a) one aggregator over all rows.
        let feed = |agg: &mut GroupedAggregator, (fact, dim): &(Row, Option<&Row>)| {
            agg.accumulate(fact, &[*dim]);
        };
        let mut single = GroupedAggregator::new(&query);
        joined.iter().for_each(|row| feed(&mut single, row));
        let got = single.finalize();
        assert!(
            got.approx_eq(&expected),
            "case {case}: single aggregator diverged: {:?}",
            got.diff(&expected)
        );

        // (b) a random 2-4-way partition, merged in shuffled order.
        let ways = rng.gen_range(2..=4usize);
        let mut partials: Vec<GroupedAggregator> =
            (0..ways).map(|_| GroupedAggregator::new(&query)).collect();
        for row in &joined {
            feed(&mut partials[rng.gen_range(0..ways)], row);
        }
        for i in (1..ways).rev() {
            partials.swap(i, rng.gen_range(0..=i));
        }
        let mut merged = partials.pop().unwrap();
        partials.into_iter().for_each(|p| merged.merge(p));
        let got = merged.finalize();
        assert!(
            got.approx_eq(&expected),
            "case {case}: {ways}-way merge diverged: {:?}",
            got.diff(&expected)
        );
    }
}

/// COUNT(*) through the full CJOIN pipeline equals the number of fact rows
/// whatever the (dangling-key) fact content is, when no dimension is joined.
#[test]
fn unfiltered_count_equals_fact_cardinality() {
    let mut rng = StdRng::seed_from_u64(0xC104);
    for case in 0..16 {
        let universe = random_universe(&mut rng);
        let catalog = build_catalog(&universe);
        let engine = CjoinEngine::start(
            Arc::clone(&catalog),
            CjoinConfig::default()
                .with_max_concurrency(4)
                .with_batch_size(16),
        )
        .unwrap();
        let query = StarQuery::builder("count_all")
            .aggregate(AggregateSpec::count_star())
            .build();
        let result = engine.execute(query).unwrap();
        let count = match result.rows().next().unwrap().1[0] {
            AggValue::Int(c) => c,
            ref other => panic!("case {case}: unexpected {other:?}"),
        };
        assert_eq!(count, universe.fact.len() as i128, "case {case}");
        engine.shutdown();
    }
}
