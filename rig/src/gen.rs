//! Seeded inputs: the SSB instance, the query pool, and the ingest batches.
//! The engine sees only what is generated here; the same seed gives the same
//! inputs.

use cjoin_common::splitmix64;
use cjoin_query::{DimUpsert, IngestBatch, Predicate, StarQuery};
use cjoin_ssb::templates::workload_templates;
use cjoin_ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_storage::{Catalog, RowId, SnapshotId, Value};

use crate::spec::{Spec, DATE_WINDOW_DAYS, INGEST_DIM_UPSERTS, INGEST_FACT_ROWS, QUERY_POOL};

/// Uniform draw from `0..n` (`n > 0`) off a splitmix64 stream.
pub fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

pub fn ssb_config(spec: &Spec, seed: u64, scale_div: f64) -> SsbConfig {
    let config = SsbConfig::new(spec.scale_factor / scale_div, seed);
    if spec.clustered {
        config.with_clustering()
    } else {
        config
    }
}

/// The workload's query pool: the same number of queries from each of the ten
/// SSB templates, interleaved, so every seed gives the same template mix and
/// seeds differ only in the data and in where the predicates' ranges fall.
/// On the columnar workload every query gets a seeded 90-day `lo_orderdate`
/// window as its fact predicate, and a `date` clause (where it has one)
/// narrowed to the same window so results are not empty and the oracle check
/// is not vacuous.
pub fn queries(spec: &Spec, data: &SsbDataSet, seed: u64) -> Vec<StarQuery> {
    let templates = workload_templates();
    let per_template = QUERY_POOL / templates.len();
    let pools: Vec<Vec<StarQuery>> = templates
        .iter()
        .enumerate()
        .map(|(t, template)| {
            let config =
                WorkloadConfig::new(per_template, spec.selectivity, seed ^ 0x51C ^ t as u64)
                    .with_template(template.id);
            Workload::generate(data, config).queries().to_vec()
        })
        .collect();
    let mut queries: Vec<StarQuery> = (0..per_template)
        .flat_map(|i| pools.iter().map(move |pool| pool[i].clone()))
        .collect();
    if spec.columnar {
        let keys = data.date_keys();
        let width = DATE_WINDOW_DAYS.min(keys.len());
        let mut rng = seed ^ 0xDA7E;
        for query in &mut queries {
            let start = below(&mut rng, keys.len() - width + 1);
            let (lo, hi) = (keys[start], keys[start + width - 1]);
            query.fact_predicate = Predicate::between("lo_orderdate", lo, hi);
            for clause in &mut query.dimensions {
                if clause.table == "date" {
                    clause.predicate = Predicate::between("d_datekey", lo, hi);
                }
            }
        }
    }
    queries
}

/// Seeded positions of the queries the oracle checks.
pub fn oracle_sample(seed: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut rng = seed ^ 0x0AC1E;
    (0..count.min(pool))
        .map(|_| below(&mut rng, pool))
        .collect()
}

/// Produces the open-loop ingest stream's batches: fact rows copied from
/// seeded existing rows under fresh order keys (so every foreign key stays
/// valid), plus upserts that rewrite a non-key attribute of seeded customer
/// and part rows (so live queries meet keys with two content versions).
pub struct IngestGen {
    facts: Vec<Vec<Value>>,
    customers: Vec<Vec<Value>>,
    parts: Vec<Vec<Value>>,
    rng: u64,
    next_orderkey: i64,
}

impl IngestGen {
    pub fn new(catalog: &Catalog, seed: u64) -> Self {
        let mut rng = seed ^ 0x1265;
        let fact = catalog.fact_table().expect("SSB catalog has a fact table");
        let facts = (0..256)
            .map(|_| {
                let id = RowId(below(&mut rng, fact.len()) as u64);
                fact.row(id).expect("row id in range").values().to_vec()
            })
            .collect();
        let rows_of = |name: &str| {
            let mut rows = Vec::new();
            catalog
                .table(name)
                .expect("SSB dimension present")
                .for_each_visible(SnapshotId::INITIAL, |_, row| {
                    rows.push(row.values().to_vec())
                });
            rows
        };
        Self {
            facts,
            customers: rows_of("customer"),
            parts: rows_of("part"),
            rng,
            next_orderkey: 10_000_000_000,
        }
    }

    pub fn next_batch(&mut self) -> IngestBatch {
        let facts = (0..INGEST_FACT_ROWS)
            .map(|_| {
                let mut row = self.facts[below(&mut self.rng, self.facts.len())].clone();
                row[0] = Value::int(self.next_orderkey);
                self.next_orderkey += 1;
                row
            })
            .collect();
        let dim_upserts = (0..INGEST_DIM_UPSERTS)
            .map(|i| {
                // customer.c_phone (column 6) and part.p_name (column 1): no
                // SSB template filters or groups on either.
                let (table, rows, column) = if i % 2 == 0 {
                    ("customer", &self.customers, 6)
                } else {
                    ("part", &self.parts, 1)
                };
                let mut row = rows[below(&mut self.rng, rows.len())].clone();
                row[column] = Value::str(format!("rig-{:x}", splitmix64(&mut self.rng) >> 40));
                DimUpsert {
                    table: table.to_string(),
                    key_column: 0,
                    row,
                }
            })
            .collect();
        IngestBatch {
            facts,
            dim_upserts,
            dim_deletes: Vec::new(),
        }
    }
}
