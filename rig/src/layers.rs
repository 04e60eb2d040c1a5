//! Group A of the per-layer metrics: timed loops over one public entry point
//! each, on inputs built from the workload's own data and queries. The engine
//! signatures called here are pinned by the rig (see the README): a refactor
//! that changes one must change the rig in a PR of its own.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cjoin_client::RemoteEngine;
use cjoin_common::{QueryId, QuerySet};
use cjoin_core::colscan::{EncodedFactPredicate, ZoneVerdict};
use cjoin_core::dimension::DimensionTable;
use cjoin_core::filter::FilterChain;
use cjoin_core::tuple::Batch;
use cjoin_query::wire::{AdmissionPolicy, Request, Response};
use cjoin_query::{BoundStarQuery, GroupedAggregator, JoinEngine, Predicate, StarQuery};
use cjoin_ssb::schema::{
    customer_schema, date_schema, lineorder_schema, part_schema, supplier_schema,
};
use cjoin_storage::{
    Catalog, ColumnarContinuousScan, ColumnarTable, CompressionPolicy, ContinuousScan, Row, RowId,
    ScanBatch, ScanVolume, SnapshotId, SyncPolicy, Table, Value, WalRecord, WarehouseLog,
};

use crate::drive::TENANT;
use crate::gen::below;
use crate::run::{Metrics, Rigged, RunOpts};
use crate::spec::{Spec, INGEST_FACT_ROWS};
use crate::stats;

/// Bit-vector width of the driver-built dimension tables.
const MAX_CONC: usize = 64;
/// Queries registered for the filter drivers.
const FILTER_QUERIES: usize = 32;
const BATCH_TUPLES: usize = 1024;
const DIMENSIONS: [&str; 4] = ["date", "customer", "supplier", "part"];

/// Runs `body` until `budget` has passed (at least once), returning the
/// seconds it took and the number of calls.
fn repeat(budget: Duration, mut body: impl FnMut()) -> (f64, u64) {
    let began = Instant::now();
    let mut calls = 0;
    loop {
        body();
        calls += 1;
        if began.elapsed() >= budget {
            return (began.elapsed().as_secs_f64(), calls);
        }
    }
}

/// Median duration of `body` in microseconds: at least `min` calls, then
/// until `budget` has passed.
fn median_us(budget: Duration, min: usize, mut body: impl FnMut()) -> f64 {
    let began = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || began.elapsed() < budget {
        let t = Instant::now();
        body();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&times)
}

pub fn run(
    out: &mut Metrics,
    spec: &Spec,
    rig: &Rigged,
    queries: &[StarQuery],
    opts: &RunOpts,
) -> Result<(), String> {
    let budget = opts.layer_budget();
    let fact = rig.catalog.fact_table().map_err(|e| e.to_string())?;
    let bound: Vec<BoundStarQuery> = queries
        .iter()
        .map(|q| q.bind(&rig.catalog).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // What each of the first 32 queries selects from each dimension it joins:
    // the input of both the registration and the filter drivers.
    let selected: Vec<Selected> = bound
        .iter()
        .take(FILTER_QUERIES)
        .map(|q| selected_rows(&rig.catalog, q))
        .collect();

    scan(out, &fact, budget);
    fact_predicate(out, &fact, &rig.data, opts.seed, budget);
    dimension_registration(out, &selected, budget);
    filter_chain(
        out,
        &fact,
        &selected[..FILTER_QUERIES / 2],
        opts.seed,
        budget,
    );
    aggregation(out, &rig.catalog, &fact, &bound, budget);
    submit_idle(out, rig, &queries[0], budget)?;
    if spec.columnar {
        columnar(out, &fact, queries, budget)?;
    }
    if let Some(server) = &rig.server {
        wire(out, rig, &queries[0], budget)?;
        served(out, rig, server.local_addr(), &queries[0], budget)?;
        wal(out, &fact, &opts.out_dir, opts.seed, budget)?;
    }
    Ok(())
}

/// `storage.scan.*`: whole passes of the continuous row scan.
fn scan(out: &mut Metrics, fact: &Arc<Table>, budget: Duration) {
    let mut scan = ContinuousScan::new(Arc::clone(fact));
    let mut batch = ScanBatch::with_capacity(BATCH_TUPLES);
    let mut rows = 0u64;
    let (secs, _) = repeat(budget, || {
        let pass = scan.passes();
        while scan.passes() == pass {
            scan.next_batch(&mut batch);
            rows += std::hint::black_box(&batch).len() as u64;
        }
    });
    out.insert("storage.scan.rows_per_s", rows as f64 / secs);
}

/// A seeded 90-day `lo_orderdate` window, the fact predicate shape the
/// columnar workload's queries carry.
fn date_window(data: &cjoin_ssb::SsbDataSet, rng: &mut u64) -> Predicate {
    let keys = data.date_keys();
    let width = crate::spec::DATE_WINDOW_DAYS.min(keys.len());
    let start = below(rng, keys.len() - width + 1);
    Predicate::between("lo_orderdate", keys[start], keys[start + width - 1])
}

/// `query.expr.*`: a bound fact predicate over materialised row-store rows.
fn fact_predicate(
    out: &mut Metrics,
    fact: &Arc<Table>,
    data: &cjoin_ssb::SsbDataSet,
    seed: u64,
    budget: Duration,
) {
    let mut rng = seed ^ 0xE5;
    let predicate = date_window(data, &mut rng)
        .bind(fact.schema())
        .expect("lo_orderdate is a fact column");
    let mut rows = Vec::new();
    fact.read_range(0, fact.len().min(65_536), &mut rows);
    let mut matched = 0u64;
    let (secs, calls) = repeat(budget, || {
        for (_, row, _) in &rows {
            matched += u64::from(predicate.eval(row));
        }
    });
    std::hint::black_box(matched);
    out.insert(
        "query.expr.pred_rows_per_s",
        (calls * rows.len() as u64) as f64 / secs,
    );
}

/// Per joined dimension, the rows one query selects, keyed as
/// `DimensionTable::register_query` wants them.
type Selected = Vec<(String, Vec<(i64, Row)>)>;

fn selected_rows(catalog: &Catalog, query: &BoundStarQuery) -> Selected {
    query
        .dimensions
        .iter()
        .map(|clause| {
            let table = catalog
                .table(&clause.table)
                .expect("bound dimension exists");
            let rows = table
                .select(SnapshotId::INITIAL, |row| clause.predicate.eval(row))
                .into_iter()
                .map(|(_, row)| (row.int(clause.dim_key_column), row))
                .collect();
            (clause.table.clone(), rows)
        })
        .collect()
}

fn dimension_tables(bits: &QuerySet) -> Vec<Arc<DimensionTable>> {
    let fact_schema = lineorder_schema();
    DIMENSIONS
        .iter()
        .enumerate()
        .map(|(slot, name)| {
            let (_, fk) = cjoin_ssb::schema::join_columns(name).expect("SSB dimension");
            let fk = fact_schema.column_index(fk).expect("SSB foreign key");
            Arc::new(DimensionTable::new(*name, slot, fk, 0, MAX_CONC, bits))
        })
        .collect()
}

fn table_for<'a>(tables: &'a [Arc<DimensionTable>], name: &str) -> &'a Arc<DimensionTable> {
    tables
        .iter()
        .find(|t| t.name == name)
        .expect("SSB queries join only SSB dimensions")
}

/// `cjoin.dimension.*`: admission's and finalisation's hash-table work, per
/// workload query (summed over the dimensions it joins).
fn dimension_registration(out: &mut Metrics, selected: &[Selected], budget: Duration) {
    let tables = dimension_tables(&QuerySet::new(MAX_CONC));
    let (mut register, mut unregister) = (Vec::new(), Vec::new());
    repeat(budget, || {
        for (i, clauses) in selected.iter().enumerate() {
            let t = Instant::now();
            for (table, rows) in clauses {
                table_for(&tables, table).register_query(QueryId(i as u32), rows);
            }
            register.push(t.elapsed().as_secs_f64() * 1e6);
        }
        for (i, clauses) in selected.iter().enumerate() {
            let t = Instant::now();
            for (table, _) in clauses {
                table_for(&tables, table).unregister_query(QueryId(i as u32), true);
            }
            unregister.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    out.insert("cjoin.dimension.register_us", stats::median(&register));
    out.insert("cjoin.dimension.unregister_us", stats::median(&unregister));
}

/// Registers `queries` in fresh dimension tables under ids `base..`; with
/// `alter` every selected row's last column is rewritten, so a key also
/// registered unaltered ends up with two content versions.
fn register_all(tables: &[Arc<DimensionTable>], queries: &[Selected], base: usize, alter: bool) {
    for (i, selected) in queries.iter().enumerate() {
        let id = QueryId((base + i) as u32);
        for table in tables {
            match selected.iter().find(|(name, _)| *name == table.name) {
                Some((_, rows)) if alter => {
                    let altered: Vec<(i64, Row)> = rows
                        .iter()
                        .map(|(key, row)| {
                            let mut values = row.values().to_vec();
                            *values.last_mut().expect("SSB rows have columns") =
                                Value::str("rig-v2");
                            (*key, Row::new(values))
                        })
                        .collect();
                    table.register_query(id, &altered);
                }
                Some((_, rows)) => table.register_query(id, rows),
                None => table.register_unreferencing_query(id),
            }
        }
    }
}

/// Times `FilterChain::process_batch` alone over 1024-tuple batches of real
/// fact rows, refilling (untimed) before every call. Returns
/// `(tuples per second, surviving fraction)`.
fn probe(tables: &[Arc<DimensionTable>], rows: &[(RowId, Row)], budget: Duration) -> (f64, f64) {
    let bits = QuerySet::from_bits(MAX_CONC, 0..FILTER_QUERIES);
    let mut batch = Batch::with_capacity(BATCH_TUPLES);
    let (mut busy, mut entered, mut survived) = (Duration::ZERO, 0u64, 0u64);
    let began = Instant::now();
    'budget: loop {
        for chunk in rows.chunks(BATCH_TUPLES) {
            batch.recycle();
            for (id, row) in chunk {
                let (slot, _) = batch.next_slot(MAX_CONC);
                slot.reset(*id, row.clone(), &bits, DIMENSIONS.len());
            }
            let t = Instant::now();
            FilterChain::process_batch(tables, &mut batch, true, true);
            busy += t.elapsed();
            entered += chunk.len() as u64;
            survived += batch.len() as u64;
            if began.elapsed() >= budget {
                break 'budget;
            }
        }
    }
    (
        entered as f64 / busy.as_secs_f64(),
        survived as f64 / entered as f64,
    )
}

/// `cjoin.filter.*`. Sixteen workload queries are registered twice, under 32
/// ids: with identical rows for the base figure (one version per key), with
/// the second copy's rows altered for the versioned one (two versions per
/// probed key, the xmin/xmax split path). Everything else is equal, so the
/// ratio of the two is the cost of versioning alone.
fn filter_chain(
    out: &mut Metrics,
    fact: &Arc<Table>,
    half: &[Selected],
    seed: u64,
    budget: Duration,
) {
    let mut rng = seed ^ 0xF17;
    let start = below(
        &mut rng,
        fact.len().saturating_sub(16 * BATCH_TUPLES).max(1),
    );
    let mut versions = Vec::new();
    fact.read_range(start as u64, 16 * BATCH_TUPLES, &mut versions);
    let rows: Vec<(RowId, Row)> = versions.into_iter().map(|(id, row, _)| (id, row)).collect();

    let empty = QuerySet::new(MAX_CONC);
    for (alter, rate, survive) in [
        (
            false,
            "cjoin.filter.tuples_per_s",
            Some("cjoin.filter.driver_survive_frac"),
        ),
        (true, "cjoin.filter.versioned_tuples_per_s", None),
    ] {
        let tables = dimension_tables(&empty);
        register_all(&tables, half, 0, false);
        register_all(&tables, half, half.len(), alter);
        let (tuples_per_s, survive_frac) = probe(&tables, &rows, budget);
        out.insert(rate, tuples_per_s);
        if let Some(name) = survive {
            out.insert(name, survive_frac);
        }
    }
}

/// Joined rows `accumulate` would receive for `query` out of `rows`; with
/// `filtered` only those passing the query's own predicates.
fn joined<'a>(
    catalog: &Catalog,
    query: &BoundStarQuery,
    rows: &'a [(RowId, Row)],
    filtered: bool,
) -> Vec<(&'a Row, Vec<Row>)> {
    let dims: Vec<std::collections::HashMap<i64, Row>> = query
        .dimensions
        .iter()
        .map(|clause| {
            let table = catalog
                .table(&clause.table)
                .expect("bound dimension exists");
            table
                .select(SnapshotId::INITIAL, |row| {
                    !filtered || clause.predicate.eval(row)
                })
                .into_iter()
                .map(|(_, row)| (row.int(clause.dim_key_column), row))
                .collect()
        })
        .collect();
    rows.iter()
        .filter(|(_, row)| !filtered || query.fact_predicate.eval(row))
        .filter_map(|(_, row)| {
            query
                .dimensions
                .iter()
                .zip(&dims)
                .map(|(clause, dim)| dim.get(&row.int(clause.fact_fk_column)).cloned())
                .collect::<Option<Vec<Row>>>()
                .map(|joined| (row, joined))
        })
        .collect()
}

/// `query.aggregate.*` on the first grouped workload query: its real
/// survivors among 16 Ki fact rows, or (where its selectivity leaves fewer
/// than 256, as on the `s = 0.01` workloads) every joined row.
fn aggregation(
    out: &mut Metrics,
    catalog: &Catalog,
    fact: &Arc<Table>,
    bound: &[BoundStarQuery],
    budget: Duration,
) {
    let query = bound
        .iter()
        .find(|q| !q.group_by.is_empty())
        .unwrap_or(&bound[0]);
    let mut versions = Vec::new();
    fact.read_range(0, fact.len().min(16_384), &mut versions);
    let rows: Vec<(RowId, Row)> = versions.into_iter().map(|(id, row, _)| (id, row)).collect();
    let mut survivors = joined(catalog, query, &rows, true);
    if survivors.len() < 256 {
        survivors = joined(catalog, query, &rows, false);
    }
    let refs: Vec<(&Row, Vec<Option<&Row>>)> = survivors
        .iter()
        .map(|(fact, dims)| (*fact, dims.iter().map(Some).collect()))
        .collect();
    let feed = |agg: &mut GroupedAggregator, part: &[(&Row, Vec<Option<&Row>>)]| {
        for (fact, dims) in part {
            agg.accumulate(fact, dims);
        }
    };

    let (secs, calls) = repeat(budget, || {
        let mut agg = GroupedAggregator::new(query);
        feed(&mut agg, &refs);
        std::hint::black_box(agg.num_groups());
    });
    out.insert(
        "query.aggregate.accumulate_rows_per_s",
        (calls * refs.len() as u64) as f64 / secs,
    );

    let (left, right) = refs.split_at(refs.len() / 2);
    let mut total = GroupedAggregator::new(query);
    feed(&mut total, left);
    let mut merges = Vec::new();
    repeat(budget, || {
        let mut partial = GroupedAggregator::new(query);
        feed(&mut partial, right);
        let t = Instant::now();
        total.merge(partial);
        merges.push(t.elapsed().as_secs_f64() * 1e6);
    });
    out.insert("query.aggregate.merge_us", stats::median(&merges));
    out.insert(
        "query.aggregate.finalize_us",
        median_us(budget, 3, || {
            std::hint::black_box(total.finalize());
        }),
    );
}

/// `cjoin.engine.submit_idle_us`: `submit` with nothing else in flight.
fn submit_idle(
    out: &mut Metrics,
    rig: &Rigged,
    query: &StarQuery,
    budget: Duration,
) -> Result<(), String> {
    let engine: &dyn JoinEngine = rig.engine.as_ref();
    let began = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || began.elapsed() < budget {
        let t = Instant::now();
        let ticket = engine.submit(query.clone()).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
        ticket.wait().map_err(|e| e.to_string())?;
    }
    out.insert("cjoin.engine.submit_idle_us", stats::median(&times));
    Ok(())
}

/// `storage.columnar.*` and `cjoin.colscan.*` on a replica built the way the
/// engine builds its own.
fn columnar(
    out: &mut Metrics,
    fact: &Arc<Table>,
    queries: &[StarQuery],
    budget: Duration,
) -> Result<(), String> {
    let t = Instant::now();
    let replica = Arc::new(
        ColumnarTable::from_table(fact, CompressionPolicy::Adaptive).map_err(|e| e.to_string())?,
    );
    out.insert(
        "storage.columnar.transcode_rows_per_s",
        replica.len() as f64 / t.elapsed().as_secs_f64(),
    );
    out.insert(
        "storage.columnar.bytes_per_row",
        replica.total_encoded_bytes() as f64 / replica.len().max(1) as f64,
    );

    let two = replica
        .projection_of(&["lo_orderdate", "lo_revenue"])
        .map_err(|e| e.to_string())?;
    for (name, mut scan) in [
        (
            "storage.columnar.decode_rows_per_s",
            ColumnarContinuousScan::new(Arc::clone(&replica)),
        ),
        (
            "storage.columnar.decode_proj2_rows_per_s",
            ColumnarContinuousScan::with_projection(Arc::clone(&replica), two),
        ),
    ] {
        let mut batch = ScanBatch::with_capacity(BATCH_TUPLES);
        let mut rows = 0u64;
        let (secs, _) = repeat(budget, || {
            scan.next_batch(&mut batch);
            rows += std::hint::black_box(&batch).len() as u64;
        });
        out.insert(name, rows as f64 / secs);
    }

    // Every row group, for each query's date window: the zone verdict first,
    // the encoded predicate only where the zone map cannot rule the group out.
    let volume = ScanVolume::new();
    let mut flags = vec![false; replica.group_rows()];
    let (mut groups, mut never, mut rows) = (0u64, 0u64, 0u64);
    let mut eval = Duration::ZERO;
    let began = Instant::now();
    'budget: for query in queries.iter().cycle() {
        let Some(pred) =
            EncodedFactPredicate::compile(&query.fact_predicate, fact.schema(), &replica)
        else {
            return Err(format!("'{}' has no encoded fact predicate", query.name));
        };
        for group in replica.row_groups() {
            groups += 1;
            if pred.zone_verdict(&group.zones) == ZoneVerdict::Never {
                never += 1;
                continue;
            }
            let out = &mut flags[..group.len as usize];
            let t = Instant::now();
            pred.eval_range(&replica, group.start as usize, out, &volume);
            eval += t.elapsed();
            rows += group.len;
            std::hint::black_box(&out);
        }
        if began.elapsed() >= budget {
            break 'budget;
        }
    }
    out.insert(
        "cjoin.colscan.pred_rows_per_s",
        rows as f64 / eval.as_secs_f64(),
    );
    out.insert(
        "cjoin.colscan.zone_never_frac",
        never as f64 / groups as f64,
    );
    Ok(())
}

/// `query.wire.*`: one workload query's submit frame and its outcome frame.
fn wire(
    out: &mut Metrics,
    rig: &Rigged,
    query: &StarQuery,
    budget: Duration,
) -> Result<(), String> {
    let submit = Request::Submit {
        tenant: TENANT.to_string(),
        policy: AdmissionPolicy::Queue,
        query: Box::new(query.clone()),
    };
    let result = rig
        .engine
        .execute(query.clone())
        .map_err(|e| e.to_string())?;
    let outcome = Response::Outcome(Ok(result));
    let (submit_bytes, outcome_bytes) = (submit.encode(), outcome.encode());
    let per_call_ns = |body: &mut dyn FnMut()| {
        let (secs, calls) = repeat(budget / 2, || {
            for _ in 0..64 {
                body();
            }
        });
        secs * 1e9 / (calls * 64) as f64
    };
    out.insert(
        "query.wire.encode_submit_ns",
        per_call_ns(&mut || {
            std::hint::black_box(submit.encode());
        }),
    );
    out.insert(
        "query.wire.decode_submit_ns",
        per_call_ns(&mut || {
            std::hint::black_box(Request::decode(&submit_bytes).is_ok());
        }),
    );
    out.insert(
        "query.wire.encode_outcome_ns",
        per_call_ns(&mut || {
            std::hint::black_box(outcome.encode());
        }),
    );
    out.insert(
        "query.wire.decode_outcome_ns",
        per_call_ns(&mut || {
            std::hint::black_box(Response::decode(&outcome_bytes).is_ok());
        }),
    );
    out.insert("query.wire.submit_bytes", submit_bytes.len() as f64);
    out.insert("query.wire.outcome_bytes", outcome_bytes.len() as f64);
    Ok(())
}

/// `server.stats_rtt_us` and `client.execute_overhead_us`, through the
/// published client (one connection per call, as its users get).
fn served(
    out: &mut Metrics,
    rig: &Rigged,
    addr: std::net::SocketAddr,
    query: &StarQuery,
    budget: Duration,
) -> Result<(), String> {
    let remote = RemoteEngine::connect(addr)
        .map_err(|e| e.to_string())?
        .with_tenant(TENANT);
    let mut failed = false;
    out.insert(
        "server.stats_rtt_us",
        median_us(budget, 3, || failed |= remote.server_stats().is_err()),
    );
    let local: &dyn JoinEngine = rig.engine.as_ref();
    let in_process = median_us(budget, 3, || failed |= local.execute(query).is_err());
    let over_wire = median_us(budget, 3, || failed |= remote.execute(query).is_err());
    out.insert("client.execute_overhead_us", over_wire - in_process);
    if failed {
        return Err("a served layer driver call failed".to_string());
    }
    Ok(())
}

/// `storage.wal.*` on a log of the workload's ingest shape: 16-row fact
/// appends, one commit each. Append rate without fsync, commit cost with it.
fn wal(
    out: &mut Metrics,
    fact: &Arc<Table>,
    dir: &Path,
    seed: u64,
    budget: Duration,
) -> Result<(), String> {
    let mut rng = seed ^ 0x3A1;
    let rows: Vec<Vec<Value>> = (0..INGEST_FACT_ROWS)
        .map(|_| {
            let id = RowId(below(&mut rng, fact.len()) as u64);
            fact.row(id).expect("row id in range").values().to_vec()
        })
        .collect();
    let record = WalRecord::FactAppend { rows };
    let path = dir.join(format!("layer-{}.wal", std::process::id()));
    let err = |e: cjoin_common::Error| e.to_string();

    let _ = std::fs::remove_file(&path);
    let mut log = WarehouseLog::open(&path, SyncPolicy::OnCommit).map_err(err)?;
    let mut epoch = 0u64;
    let mut failed = false;
    let mut commits = Vec::new();
    let began = Instant::now();
    while commits.len() < 3 || began.elapsed() < budget {
        epoch += 1;
        failed |= log.append(SnapshotId(epoch), &record).is_err();
        let t = Instant::now();
        failed |= log.commit(SnapshotId(epoch)).is_err();
        commits.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.insert("storage.wal.commit_sync_us", stats::median(&commits));
    drop(log);

    let _ = std::fs::remove_file(&path);
    let mut log = WarehouseLog::open(&path, SyncPolicy::Never).map_err(err)?;
    epoch = 0;
    let (secs, calls) = repeat(budget, || {
        epoch += 1;
        failed |= log.append(SnapshotId(epoch), &record).is_err();
        failed |= log.commit(SnapshotId(epoch)).is_err();
    });
    let appended = calls * INGEST_FACT_ROWS as u64;
    out.insert("storage.wal.append_rows_per_s", appended as f64 / secs);
    out.insert(
        "storage.wal.bytes_per_row",
        log.len() as f64 / appended as f64,
    );
    drop(log);

    // Replay needs only the schemas: an empty warehouse takes every append.
    let catalog = Catalog::new();
    catalog.add_fact_table(Arc::new(Table::new(lineorder_schema())));
    for schema in [
        date_schema(),
        customer_schema(),
        supplier_schema(),
        part_schema(),
    ] {
        catalog.add_table(Arc::new(Table::new(schema)));
    }
    let t = Instant::now();
    let report = WarehouseLog::replay_into(&path, &catalog).map_err(err)?;
    out.insert(
        "storage.wal.replay_rows_per_s",
        appended as f64 / t.elapsed().as_secs_f64(),
    );
    let _ = std::fs::remove_file(&path);
    if failed || report.records_applied != calls {
        return Err("a WAL layer driver call failed".to_string());
    }
    Ok(())
}
