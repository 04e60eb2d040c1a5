//! Churn stress test: sustained admission/finalization traffic with interleaved
//! updates, exercising query-id recycling, dimension-table garbage collection,
//! progress reporting and non-blocking result polling under load.
//!
//! This is the workload pattern the paper's always-on design targets: queries keep
//! arriving while others finish, the warehouse keeps growing, and the shared pipeline
//! must never return a stale or partial answer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cjoin_repro::cjoin::dimension::DimensionTable;
use cjoin_repro::cjoin::filter::{apply_filter, FilterChain};
use cjoin_repro::cjoin::tuple::{Batch, InFlightTuple};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::common::{splitmix64, QueryId, QuerySet};
use cjoin_repro::query::reference;
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::{Row, RowId, Value};

#[test]
fn sustained_query_churn_with_interleaved_updates_stays_correct() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 401));
    let catalog = data.catalog();
    // A small maxConc forces heavy id recycling across the churn.
    let config = CjoinConfig::default()
        .with_max_concurrency(16)
        .with_batch_size(256);
    let engine = CjoinEngine::start(Arc::clone(&catalog), config).unwrap();
    let fact = catalog.fact_table().unwrap();
    let template_row = fact.row(RowId(0)).unwrap();

    // Three waves of queries; between waves the warehouse grows by an update batch.
    // Every query is pinned to the snapshot current at its submission so the expected
    // answer is well defined even though the table keeps growing.
    for wave in 0..3u64 {
        let snapshot = catalog.snapshots().current();
        let workload = Workload::generate(&data, WorkloadConfig::new(10, 0.05, 77 + wave));

        let queries: Vec<_> = workload
            .queries()
            .iter()
            .map(|q| {
                let mut q = q.clone();
                q.snapshot = Some(snapshot);
                q.name = format!("wave{wave}-{}", q.name);
                q
            })
            .collect();

        // Submit the whole wave, then immediately start the next load batch so the
        // updates overlap with the in-flight queries.
        let handles: Vec<_> = queries
            .iter()
            .map(|q| engine.submit(q.clone()).unwrap())
            .collect();

        let load_snapshot = catalog.snapshots().commit();
        fact.insert_batch_unchecked(
            (0..200).map(|_| Row::new(template_row.values().to_vec())),
            load_snapshot,
        );

        for (query, handle) in queries.iter().zip(handles) {
            // Exercise the non-blocking and progress APIs while waiting.
            let progress = Arc::clone(handle.progress());
            let mut polled_result = None;
            for _ in 0..10_000 {
                assert!(progress.fraction() <= 1.0);
                if let Some(result) = handle.try_result() {
                    polled_result = Some(result);
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            let result = match polled_result {
                Some(outcome) => outcome.unwrap(),
                None => handle.wait().unwrap(),
            };
            assert!(progress.is_completed());

            let expected = reference::evaluate(&catalog, query, snapshot).unwrap();
            assert!(
                result.approx_eq(&expected),
                "{} diverged under churn: {:?}",
                query.name,
                result.diff(&expected)
            );
        }
    }

    let stats = engine.stats();
    assert_eq!(stats.queries_admitted, 30);
    assert_eq!(stats.queries_completed, 30);
    // Every query was cleaned up before its result arrived, so the pipeline is
    // fully clean: no registered queries left behind.
    assert_eq!(
        engine.active_queries(),
        0,
        "all ids recycled after the churn"
    );
    engine.shutdown();
}

/// Probe-under-mutation stress: Filter workers run the batched `probe_batch` hot
/// path while a Pipeline-Manager thread concurrently registers/unregisters queries
/// and the optimizer-style reordering permutes the chain (all from one fixed seed).
///
/// During the churn every surviving tuple must satisfy the filtering invariants
/// (bits only ever shrink, survivors are non-empty, survivor order is stable);
/// after the mutator quiesces, one batch processed under *both* settings of the
/// `batched_probing` knob must exactly match a single-threaded `apply_filter`
/// oracle over the final registered state, and once every registration is
/// undone every table must be empty.
#[test]
fn probe_batch_under_concurrent_registration_matches_oracle() {
    const MAXC: usize = 32;
    const DIMS: usize = 3;
    const KEYS: i64 = 40;
    // Queries 0..3 are permanently registered (they keep the chain populated and
    // tuples alive); ids 4..8 churn throughout the test.
    const STABLE_QUERIES: u32 = 4;
    const CHURN_IDS: std::ops::Range<u32> = 4..8;

    let empty = QuerySet::new(MAXC);
    let chain = Arc::new(FilterChain::new());
    let dims: Vec<Arc<DimensionTable>> = (0..DIMS)
        .map(|j| Arc::new(DimensionTable::new(format!("d{j}"), j, j, 0, MAXC, &empty)))
        .collect();
    let mut seed = 0xC70_2024u64;
    let selected_rows = |rng: &mut u64, j: usize| -> Vec<(i64, Row)> {
        (0..KEYS)
            .filter(|_| splitmix64(rng).is_multiple_of(3))
            .map(|k| (k, Row::new(vec![Value::int(k), Value::int(j as i64)])))
            .collect()
    };
    for (j, dim) in dims.iter().enumerate() {
        for q in 0..STABLE_QUERIES {
            dim.register_query(QueryId(q), &selected_rows(&mut seed, j));
        }
        chain.push(Arc::clone(dim));
    }

    // A template batch relevant to every id the test ever uses.
    let all_bits = QuerySet::from_bits(MAXC, 0..CHURN_IDS.end as usize);
    let template: Batch = (0..256)
        .map(|i| {
            let values: Vec<Value> = (0..DIMS)
                .map(|_| Value::int((splitmix64(&mut seed) % (KEYS as u64 * 2)) as i64))
                .collect();
            InFlightTuple::new(RowId(i), Row::new(values), all_bits.clone(), DIMS)
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let probers: Vec<_> = (0..3)
        .map(|w| {
            let chain = Arc::clone(&chain);
            let template = template.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut passes = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let mut batch = template.clone();
                    let snapshot = chain.snapshot();
                    FilterChain::process_batch(&snapshot, &mut batch, true, true);
                    // Invariants that hold under any interleaving with the manager:
                    // bits only shrink, survivors are non-empty, order is stable.
                    let mut last_row = None;
                    for t in batch.iter() {
                        assert!(!t.bits.is_empty(), "worker {w}: empty survivor");
                        assert!(
                            t.bits.is_subset_of(&template[t.row_id.0 as usize].bits),
                            "worker {w}: bits grew under churn"
                        );
                        if let Some(last) = last_row {
                            assert!(t.row_id.0 > last, "worker {w}: survivor order broke");
                        }
                        last_row = Some(t.row_id.0);
                    }
                    passes += 1;
                }
                passes
            })
        })
        .collect();

    // Manager thread: seeded churn of registrations, unregistrations and reorders.
    let mutator = {
        let chain = Arc::clone(&chain);
        let dims: Vec<Arc<DimensionTable>> = dims.clone();
        std::thread::spawn(move || {
            let mut rng = 0xFEED_5EEDu64;
            let mut registered: Vec<Option<bool>> = vec![None; CHURN_IDS.end as usize];
            for _ in 0..400 {
                let id = CHURN_IDS.start
                    + (splitmix64(&mut rng) % u64::from(CHURN_IDS.end - CHURN_IDS.start)) as u32;
                match registered[id as usize] {
                    None => {
                        // Register: referencing (with per-dim selections) or not.
                        let referencing = splitmix64(&mut rng).is_multiple_of(2);
                        for (j, dim) in dims.iter().enumerate() {
                            if referencing {
                                let rows: Vec<(i64, Row)> = (0..KEYS)
                                    .filter(|_| splitmix64(&mut rng).is_multiple_of(4))
                                    .map(|k| {
                                        (k, Row::new(vec![Value::int(k), Value::int(j as i64)]))
                                    })
                                    .collect();
                                dim.register_query(QueryId(id), &rows);
                            } else {
                                dim.register_unreferencing_query(QueryId(id));
                            }
                        }
                        registered[id as usize] = Some(referencing);
                    }
                    Some(referencing) => {
                        for dim in &dims {
                            dim.unregister_query(QueryId(id), referencing);
                        }
                        registered[id as usize] = None;
                    }
                }
                if splitmix64(&mut rng).is_multiple_of(4) {
                    // Optimizer-style reorder: a seeded permutation of the chain.
                    let mut order: Vec<String> = (0..DIMS).map(|j| format!("d{j}")).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
                    }
                    chain.reorder(&order);
                }
                std::thread::yield_now();
            }
            // Quiesce deterministically: unregister every churn id.
            for id in CHURN_IDS {
                if let Some(referencing) = registered[id as usize].take() {
                    for dim in &dims {
                        dim.unregister_query(QueryId(id), referencing);
                    }
                }
            }
        })
    };

    mutator.join().unwrap();
    stop.store(true, Ordering::Release);
    let total_passes: u64 = probers.into_iter().map(|p| p.join().unwrap()).sum();
    assert!(total_passes > 0, "probers made progress during the churn");

    // Post-quiesce determinism: both hot paths against the per-tuple oracle.
    let snapshot = chain.snapshot();
    let oracle: Vec<(u64, Vec<usize>)> = {
        let mut batch = template.clone();
        let live = batch.len();
        let mut out = Vec::new();
        let mut splits = Vec::new();
        for i in 0..live {
            let t = &mut batch[i];
            if snapshot
                .iter()
                .all(|dim| apply_filter(dim, t, true, &mut splits))
            {
                out.push((t.row_id.0, t.bits.iter().collect()));
            }
        }
        // Query churn never creates multiple content versions of a key, so the
        // claimed-split path must stay cold here.
        assert!(splits.is_empty(), "churn produced versioned-key splits");
        out
    };
    assert!(!oracle.is_empty(), "stable queries keep some tuples alive");
    for batched in [true, false] {
        let mut batch = template.clone();
        FilterChain::process_batch(&snapshot, &mut batch, true, batched);
        let got: Vec<(u64, Vec<usize>)> = batch
            .iter()
            .map(|t| (t.row_id.0, t.bits.iter().collect()))
            .collect();
        assert_eq!(got, oracle, "batched={batched} diverges from the oracle");
    }

    // Undo the stable registrations too: with every registration undone, no
    // table may still store a key. A bit left behind on a key the unregister
    // walk missed would keep it stored.
    for dim in &dims {
        for q in 0..STABLE_QUERIES {
            let removable = dim.unregister_query(QueryId(q), true);
            assert_eq!(removable, q + 1 == STABLE_QUERIES, "{}", dim.name);
        }
        assert!(
            dim.is_empty(),
            "{} still stores {} keys",
            dim.name,
            dim.len()
        );
        let guard = dim.probe_batch();
        assert!((0..KEYS * 2).all(|key| guard.get(key).is_none()));
    }
}
