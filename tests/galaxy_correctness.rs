//! Galaxy-schema integration tests (§5 "Galaxy Schemata"): fact-to-fact join queries
//! decomposed into star sub-queries over two CJOIN pipelines must produce exactly the
//! answers of an independent nested hash-join oracle, including when several galaxy
//! queries and plain star queries share the pipelines concurrently.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cjoin_repro::cjoin::CjoinConfig;
use cjoin_repro::galaxy::{
    reference, GalaxyAggregateSpec, GalaxyEngine, GalaxyQuery, Side, SideSpec,
};
use cjoin_repro::query::{AggFunc, AggregateSpec, ColumnRef, Predicate, StarQuery};
use cjoin_repro::storage::{Catalog, Column, Row, Schema, SnapshotId, Table, Value};

const REGIONS: [&str; 4] = ["ASIA", "EUROPE", "AMERICA", "AFRICA"];
const CHANNELS: [&str; 3] = ["web", "store", "phone"];

/// A randomized two-fact galaxy: `purchases` and `support_calls` share `customer` and
/// `channel` dimensions and join on the customer key.
fn random_galaxy(seed: u64, purchases_rows: usize, calls_rows: usize) -> Arc<Catalog> {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = Catalog::new();

    let num_customers = 60i64;
    let customer = Table::new(Schema::new(
        "customer",
        vec![Column::int("c_custkey"), Column::str("c_region")],
    ));
    for k in 0..num_customers {
        let region = REGIONS[rng.gen_range(0..REGIONS.len())];
        customer
            .insert(vec![Value::int(k), Value::str(region)], SnapshotId::INITIAL)
            .unwrap();
    }
    catalog.add_table(Arc::new(customer));

    let channel = Table::new(Schema::new(
        "channel",
        vec![Column::int("ch_key"), Column::str("ch_name")],
    ));
    for (k, name) in CHANNELS.iter().enumerate() {
        channel
            .insert(
                vec![Value::int(k as i64), Value::str(*name)],
                SnapshotId::INITIAL,
            )
            .unwrap();
    }
    catalog.add_table(Arc::new(channel));

    let purchases = Table::new(Schema::new(
        "purchases",
        vec![
            Column::int("p_custkey"),
            Column::int("p_chkey"),
            Column::int("p_amount"),
            Column::int("p_day"),
        ],
    ));
    purchases.insert_batch_unchecked(
        (0..purchases_rows).map(|_| {
            Row::new(vec![
                Value::int(rng.gen_range(0..num_customers)),
                Value::int(rng.gen_range(0..CHANNELS.len() as i64)),
                Value::int(rng.gen_range(1..500)),
                Value::int(rng.gen_range(1..366)),
            ])
        }),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(purchases));

    let calls = Table::new(Schema::new(
        "support_calls",
        vec![
            Column::int("sc_custkey"),
            Column::int("sc_chkey"),
            Column::int("sc_minutes"),
        ],
    ));
    calls.insert_batch_unchecked(
        (0..calls_rows).map(|_| {
            Row::new(vec![
                // Slightly different customer range so some customers never call.
                Value::int(rng.gen_range(0..num_customers + 10)),
                Value::int(rng.gen_range(0..CHANNELS.len() as i64)),
                Value::int(rng.gen_range(1..90)),
            ])
        }),
        SnapshotId::INITIAL,
    );
    catalog.add_table(Arc::new(calls));

    Arc::new(catalog)
}

fn config() -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(32)
        .with_batch_size(256)
}

/// A pool of structurally different galaxy queries over the random schema.
fn query_pool(seed: u64) -> Vec<GalaxyQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::new();
    for i in 0..8 {
        let region = REGIONS[rng.gen_range(0..REGIONS.len())];
        let channel = CHANNELS[rng.gen_range(0..CHANNELS.len())];
        let day_lo = rng.gen_range(1..200);
        let day_hi = day_lo + rng.gen_range(30..160);

        let side_a = SideSpec::new("purchases", "p_custkey")
            .fact_predicate(Predicate::between("p_day", day_lo, day_hi))
            .join_dimension(
                "customer",
                "p_custkey",
                "c_custkey",
                Predicate::eq("c_region", region),
            );
        let side_b = if i % 2 == 0 {
            SideSpec::new("support_calls", "sc_custkey").join_dimension(
                "channel",
                "sc_chkey",
                "ch_key",
                Predicate::eq("ch_name", channel),
            )
        } else {
            SideSpec::new("support_calls", "sc_custkey")
        };

        let mut builder = GalaxyQuery::builder(format!("g{i}"))
            .side_a(side_a)
            .side_b(side_b)
            .aggregate(GalaxyAggregateSpec::count_star())
            .aggregate(GalaxyAggregateSpec::over(
                AggFunc::Sum,
                Side::A,
                ColumnRef::fact("p_amount"),
            ))
            .aggregate(GalaxyAggregateSpec::over(
                AggFunc::Avg,
                Side::B,
                ColumnRef::fact("sc_minutes"),
            ))
            .aggregate(GalaxyAggregateSpec::over(
                AggFunc::Max,
                Side::B,
                ColumnRef::fact("sc_minutes"),
            ))
            .aggregate(GalaxyAggregateSpec::over(
                AggFunc::Min,
                Side::A,
                ColumnRef::fact("p_amount"),
            ));
        if i % 3 == 0 {
            builder = builder.group_by(Side::A, ColumnRef::dim("customer", "c_region"));
        }
        if i % 2 == 0 {
            builder = builder.group_by(Side::B, ColumnRef::dim("channel", "ch_name"));
        }
        queries.push(builder.build());
    }
    queries
}

#[test]
fn concurrent_galaxy_queries_match_the_oracle() {
    let catalog = random_galaxy(7, 4_000, 2_500);
    let engine =
        GalaxyEngine::start(Arc::clone(&catalog), "purchases", "support_calls", config()).unwrap();

    let queries = query_pool(11);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference::evaluate(&catalog, q, SnapshotId::INITIAL).unwrap())
        .collect();

    // Submit everything before waiting so the star sub-queries genuinely share the
    // two always-on pipelines.
    let handles: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();
    for ((query, handle), expected) in queries.iter().zip(handles).zip(expected) {
        let result = handle.wait().unwrap();
        assert!(
            result.approx_eq(&expected),
            "{}: {:?}",
            query.name,
            result.diff(&expected)
        );
    }

    // Each pipeline served all eight galaxy sub-queries.
    assert_eq!(engine.engine(Side::A).stats().queries_admitted, 8);
    assert_eq!(engine.engine(Side::B).stats().queries_admitted, 8);
    engine.shutdown();
}

#[test]
fn galaxy_and_star_queries_share_the_same_pipelines() {
    let catalog = random_galaxy(23, 3_000, 2_000);
    let engine =
        GalaxyEngine::start(Arc::clone(&catalog), "purchases", "support_calls", config()).unwrap();

    let galaxy_query = query_pool(29).remove(0);
    let star_a = StarQuery::builder("purchases_by_region")
        .join_dimension("customer", "p_custkey", "c_custkey", Predicate::True)
        .group_by(ColumnRef::dim("customer", "c_region"))
        .aggregate(AggregateSpec::over(
            AggFunc::Sum,
            ColumnRef::fact("p_amount"),
        ))
        .build();
    let star_b = StarQuery::builder("calls_by_channel")
        .join_dimension("channel", "sc_chkey", "ch_key", Predicate::True)
        .group_by(ColumnRef::dim("channel", "ch_name"))
        .aggregate(AggregateSpec::over(
            AggFunc::Avg,
            ColumnRef::fact("sc_minutes"),
        ))
        .aggregate(AggregateSpec::count_star())
        .build();

    let expected_galaxy =
        reference::evaluate(&catalog, &galaxy_query, SnapshotId::INITIAL).unwrap();
    let expected_a = cjoin_repro::query::reference::evaluate(
        engine.engine(Side::A).catalog(),
        &star_a,
        SnapshotId::INITIAL,
    )
    .unwrap();
    let expected_b = cjoin_repro::query::reference::evaluate(
        engine.engine(Side::B).catalog(),
        &star_b,
        SnapshotId::INITIAL,
    )
    .unwrap();

    let galaxy_handle = engine.submit(galaxy_query).unwrap();
    let star_a_handle = engine.engine(Side::A).submit(star_a).unwrap();
    let star_b_handle = engine.engine(Side::B).submit(star_b).unwrap();

    assert!(galaxy_handle.wait().unwrap().approx_eq(&expected_galaxy));
    assert!(star_a_handle.wait().unwrap().approx_eq(&expected_a));
    assert!(star_b_handle.wait().unwrap().approx_eq(&expected_b));
    engine.shutdown();
}

#[test]
fn galaxy_queries_respect_snapshot_isolation() {
    let catalog = random_galaxy(41, 1_500, 1_000);
    let engine =
        GalaxyEngine::start(Arc::clone(&catalog), "purchases", "support_calls", config()).unwrap();
    let query = query_pool(43).remove(1);

    // Result pinned to the initial snapshot.
    let mut pinned = query.clone();
    pinned.snapshot = Some(SnapshotId::INITIAL);
    let before_insert = engine.execute(pinned.clone()).unwrap();

    // Commit new purchases rows at a later snapshot.
    let later = catalog.snapshots().commit();
    let purchases = catalog.table("purchases").unwrap();
    purchases.insert_batch_unchecked(
        (0..500).map(|i| {
            Row::new(vec![
                Value::int(i % 60),
                Value::int(i % 3),
                Value::int(100),
                Value::int(50),
            ])
        }),
        later,
    );

    // Re-running the pinned query still matches the initial-snapshot oracle exactly.
    let after_insert = engine.execute(pinned.clone()).unwrap();
    let expected_initial = reference::evaluate(&catalog, &pinned, SnapshotId::INITIAL).unwrap();
    assert!(before_insert.approx_eq(&expected_initial));
    assert!(after_insert.approx_eq(&expected_initial));

    // An unpinned query sees the new snapshot and matches its oracle too.
    let mut latest = query;
    latest.snapshot = Some(later);
    let expected_latest = reference::evaluate(&catalog, &latest, SnapshotId::INITIAL).unwrap();
    let result_latest = engine.execute(latest).unwrap();
    assert!(result_latest.approx_eq(&expected_latest));
    engine.shutdown();
}

#[test]
fn resubmission_recycles_ids_across_both_pipelines() {
    let catalog = random_galaxy(53, 1_200, 900);
    let tight = CjoinConfig::default()
        .with_max_concurrency(4)
        .with_batch_size(128);
    let engine =
        GalaxyEngine::start(Arc::clone(&catalog), "purchases", "support_calls", tight).unwrap();

    // More sequential galaxy queries than maxConc on either side: ids must recycle.
    let queries = query_pool(59);
    for round in 0..2 {
        for query in &queries {
            let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
            let result = engine.execute(query.clone()).unwrap();
            assert!(
                result.approx_eq(&expected),
                "round {round}, {}: {:?}",
                query.name,
                result.diff(&expected)
            );
        }
    }
    engine.shutdown();
}
