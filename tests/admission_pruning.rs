//! Admission reads only the dimension pages its predicate can match.
//!
//! * `page_pruned_select_equals_the_full_scan` — a seeded equivalence test:
//!   `Table::select_where` with `BoundPredicate::may_match_page` returns exactly
//!   `Table::select`'s rows, in the same `RowId` order, over tables of 1, 4 and
//!   80 rows per page with NULL integers, string columns, upserted duplicate
//!   keys and deletes, at several snapshots, for every `Predicate` shape —
//!   `Not`, `Or`, `InList`, NULL and cross-type literals, empty and inverted
//!   ranges included.
//! * `admission_work_is_pages_plus_selected_rows_whatever_the_concurrency` —
//!   the per-query admission counters on `QueryHandle`: a key-range query
//!   evaluates its dimension predicate on at most its selected rows plus two
//!   pages' worth per dimension, and both counters are identical whether 1, 16
//!   or 64 queries are in flight. No clock is read.

use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine, DimensionAdmission, QueryHandle};
use cjoin_repro::query::{CompareOp, Predicate, StarQuery};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{
    apply_record, Catalog, Column, Row, RowId, Schema, SnapshotId, Table, Value, WalRecord,
};

const KEYS: i64 = 240;
const EPOCHS: u64 = 4;

fn schema() -> Schema {
    Schema::new(
        "dim",
        vec![
            Column::int("k"),
            Column::int("a"),
            Column::str("s"),
            Column::int("b"),
        ],
    )
}

fn random_row(rng: &mut StdRng, key: i64) -> Vec<Value> {
    let a = if rng.gen_bool(0.15) {
        Value::Null
    } else {
        Value::int(rng.gen_range(-50..50i64))
    };
    let s = if rng.gen_bool(0.1) {
        Value::Null
    } else {
        Value::str(["ASIA", "EUROPE", "AMERICA"][rng.gen_range(0..3usize)])
    };
    vec![
        Value::int(key),
        a,
        s,
        Value::int(key / 3 + rng.gen_range(0..4i64)),
    ]
}

/// A dimension of `KEYS` rows in key order (bulk-loaded when `bulk`, else row
/// by row), then `EPOCHS` epochs of upserts (a retired version plus a new one
/// for the same key, appended out of key order) and deletes, applied through
/// the WAL's record path.
fn random_table(rng: &mut StdRng, rows_per_page: usize, bulk: bool) -> (Catalog, Arc<Table>) {
    let catalog = Catalog::new();
    let table = Arc::new(Table::with_rows_per_page(schema(), rows_per_page));
    catalog.add_table(Arc::clone(&table));
    let rows: Vec<Vec<Value>> = (0..KEYS).map(|k| random_row(rng, k)).collect();
    if bulk {
        table.insert_batch_unchecked(rows.into_iter().map(Row::new), SnapshotId::INITIAL);
    } else {
        for row in rows {
            table.insert(row, SnapshotId::INITIAL).unwrap();
        }
    }
    for epoch in 1..=EPOCHS {
        for _ in 0..rng.gen_range(5..30usize) {
            // Keys past `KEYS` insert a row no earlier version retires.
            let key = rng.gen_range(0..KEYS + 20);
            let record = if rng.gen_bool(0.7) {
                WalRecord::DimUpsert {
                    table: "dim".into(),
                    key_column: 0,
                    row: random_row(rng, key),
                }
            } else {
                WalRecord::DimDelete {
                    table: "dim".into(),
                    key_column: 0,
                    key,
                }
            };
            apply_record(&catalog, SnapshotId(epoch), &record).unwrap();
        }
    }
    (catalog, table)
}

fn int_literal(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..10u32) {
        0 => Value::Null,
        1 => Value::str("EUROPE"),
        2 => Value::int(i64::MIN),
        3 => Value::int(i64::MAX),
        _ => Value::int(rng.gen_range(-60..KEYS + 30)),
    }
}

fn str_literal(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::int(rng.gen_range(-5..5i64)),
        2 => Value::str("ZZZ"),
        _ => Value::str(["ASIA", "EUROPE", "AMERICA"][rng.gen_range(0..3usize)]),
    }
}

fn random_leaf(rng: &mut StdRng) -> Predicate {
    let column = ["k", "a", "s", "b"][rng.gen_range(0..4usize)];
    let literal = |rng: &mut StdRng| {
        if column == "s" {
            str_literal(rng)
        } else {
            int_literal(rng)
        }
    };
    match rng.gen_range(0..4u32) {
        0 => Predicate::Compare {
            column: column.into(),
            op: [
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ][rng.gen_range(0..6usize)],
            value: literal(rng),
        },
        1 => {
            // Narrow ranges, empty ones (`lo = hi + 1`) and inverted ones.
            let low = literal(rng);
            let high = match (&low, rng.gen_range(0..4u32)) {
                (Value::Int(lo), 0) => Value::int(lo.saturating_sub(rng.gen_range(1..20i64))),
                (Value::Int(lo), 1) => Value::int(lo.saturating_sub(1)),
                (Value::Int(lo), 2) => Value::int(lo.saturating_add(rng.gen_range(0..12i64))),
                _ => literal(rng),
            };
            Predicate::Between {
                column: column.into(),
                low,
                high,
            }
        }
        2 => Predicate::InList {
            column: column.into(),
            values: (0..rng.gen_range(0..5usize))
                .map(|_| literal(rng))
                .collect(),
        },
        _ => Predicate::True,
    }
}

fn random_predicate(rng: &mut StdRng, depth: u32) -> Predicate {
    if depth == 0 || rng.gen_bool(0.4) {
        return random_leaf(rng);
    }
    let children = |rng: &mut StdRng| {
        (0..rng.gen_range(0..4usize))
            .map(|_| random_predicate(rng, depth - 1))
            .collect()
    };
    match rng.gen_range(0..3u32) {
        0 => Predicate::And(children(rng)),
        1 => Predicate::Or(children(rng)),
        _ => Predicate::Not(Box::new(random_predicate(rng, depth - 1))),
    }
}

/// After every epoch's upserts and deletes, at most one version of each key is
/// visible: the record path found and retired every earlier version.
fn assert_one_live_version_per_key(table: &Table) {
    for epoch in 0..=EPOCHS {
        let mut keys: Vec<i64> = table
            .select(SnapshotId(epoch), |_| true)
            .into_iter()
            .map(|(_, row)| row.int(0))
            .collect();
        let visible = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            visible,
            "a key has two live versions at {epoch}"
        );
    }
}

#[test]
fn page_pruned_select_equals_the_full_scan() {
    let mut rng = StdRng::seed_from_u64(0x2011E);
    let snapshots: Vec<SnapshotId> = (0..=EPOCHS + 1)
        .map(SnapshotId)
        .chain([SnapshotId(u64::MAX)])
        .collect();
    let (evaluated_full, evaluated_pruned) = (Cell::new(0u64), Cell::new(0u64));
    for rows_per_page in [1usize, 4, 80] {
        for bulk in [false, true] {
            let (_catalog, table) = random_table(&mut rng, rows_per_page, bulk);
            assert_one_live_version_per_key(&table);
            for _ in 0..150 {
                let pred = random_predicate(&mut rng, 3);
                let bound = pred.bind(table.schema()).unwrap();
                for &snapshot in &snapshots {
                    let full = table.select(snapshot, |row| {
                        evaluated_full.set(evaluated_full.get() + 1);
                        bound.eval(row)
                    });
                    let pruned = table.select_where(
                        snapshot,
                        |page| bound.may_match_page(page),
                        |row| {
                            evaluated_pruned.set(evaluated_pruned.get() + 1);
                            bound.eval(row)
                        },
                    );
                    let ids =
                        |rows: &[(RowId, Row)]| rows.iter().map(|(id, _)| *id).collect::<Vec<_>>();
                    assert_eq!(
                        ids(&pruned),
                        ids(&full),
                        "rows_per_page={rows_per_page} bulk={bulk} {snapshot:?}: {pred:?}"
                    );
                    assert_eq!(pruned, full);
                }
            }
        }
    }
    // The page test is not vacuous: the random key ranges skip pages.
    let (evaluated_full, evaluated_pruned) = (evaluated_full.get(), evaluated_pruned.get());
    assert!(
        evaluated_pruned * 10 < evaluated_full * 9,
        "page test pruned too little: {evaluated_pruned} of {evaluated_full} rows evaluated"
    );
}

/// One probe query's admission work with `n - 1` other queries admitted
/// before it and all `n` in flight.
fn probe_admission(
    catalog: &Arc<Catalog>,
    others: &[StarQuery],
    probe: &StarQuery,
    n: usize,
) -> Vec<DimensionAdmission> {
    let engine = CjoinEngine::start(
        Arc::clone(catalog),
        CjoinConfig::default().with_max_concurrency(64),
    )
    .unwrap();
    let mut handles: Vec<QueryHandle> = others[..n - 1]
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();
    let handle = engine.submit(probe.clone()).unwrap();
    let work = handle.admission_work().to_vec();
    handles.push(handle);
    for handle in handles {
        handle.wait().unwrap();
    }
    engine.shutdown();
    work
}

#[test]
fn admission_work_is_pages_plus_selected_rows_whatever_the_concurrency() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.01, 0xAD17));
    let catalog = data.catalog();
    let queries = Workload::generate(&data, WorkloadConfig::new(64, 0.01, 0xAD17))
        .queries()
        .to_vec();
    let probe = &queries[0];
    assert!(!probe.dimensions.is_empty());

    let mut seen: Option<Vec<DimensionAdmission>> = None;
    for n in [1usize, 16, 64] {
        let work = probe_admission(&catalog, &queries[1..], probe, n);
        assert_eq!(work.len(), probe.dimensions.len(), "n={n}");
        let mut bound_binds = false;
        for (clause, dim) in probe.dimensions.iter().zip(&work) {
            assert_eq!(dim.dimension, clause.table);
            let table = catalog.table(&clause.table).unwrap();
            let pages = 2 * table.rows_per_page() as u64;
            assert!(
                dim.rows_evaluated <= dim.keys_registered + pages,
                "n={n}: {} evaluated {} rows for {} selected (|D| = {})",
                dim.dimension,
                dim.rows_evaluated,
                dim.keys_registered,
                table.len()
            );
            bound_binds |= (table.len() as u64) > dim.keys_registered + pages;
        }
        assert!(
            bound_binds,
            "every dimension is too small for the bound to bind"
        );
        match &seen {
            Some(first) => assert_eq!(&work, first, "n={n}: admission work moved with n"),
            None => seen = Some(work),
        }
    }
}
