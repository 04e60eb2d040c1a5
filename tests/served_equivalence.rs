//! Loopback client↔server equivalence: the engine-equivalence oracle, run
//! through the full socket path — `RemoteEngine` → TCP → `cjoin-server` →
//! engine — must be bit-identical to the reference evaluator *and* to the same
//! engine driven in-process.
//!
//! Because `RemoteEngine` implements `JoinEngine`, the assertions are the same
//! ones `tests/engine_equivalence.rs` makes; only the transport differs. A
//! reduced engine matrix keeps the suite fast while still covering both
//! baselines, the default widths, the sharded front-/back-end and the
//! columnar scan.

use std::sync::Arc;

use cjoin_repro::baseline::{BaselineConfig, BaselineEngine};
use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine};
use cjoin_repro::client::RemoteEngine;
use cjoin_repro::query::{reference, JoinEngine};
use cjoin_repro::server::{CjoinServer, ServerConfig};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet, Workload, WorkloadConfig};
use cjoin_repro::storage::Catalog;
use cjoin_repro::SnapshotId;

fn cjoin_config() -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(32)
        .with_batch_size(256)
}

/// A reduced slice of the engine-equivalence matrix: every *kind* of engine
/// and storage path, and several scan workers over several shards, without
/// the full cartesian sweep.
fn engines_under_test(catalog: &Arc<Catalog>) -> Vec<Box<dyn JoinEngine>> {
    vec![
        Box::new(BaselineEngine::new(
            Arc::clone(catalog),
            BaselineConfig::default(),
        )),
        Box::new(BaselineEngine::new(
            Arc::clone(catalog),
            BaselineConfig::postgres_like(),
        )),
        Box::new(CjoinEngine::start(Arc::clone(catalog), cjoin_config()).unwrap()),
        Box::new(
            CjoinEngine::start(
                Arc::clone(catalog),
                cjoin_config()
                    .with_distributor_shards(4)
                    .with_scan_workers(2),
            )
            .unwrap(),
        ),
        Box::new(
            CjoinEngine::start(
                Arc::clone(catalog),
                cjoin_config()
                    .with_distributor_shards(4)
                    .with_scan_workers(4),
            )
            .unwrap(),
        ),
        Box::new(
            CjoinEngine::start(
                Arc::clone(catalog),
                cjoin_config().with_columnar_scan(true).with_scan_workers(4),
            )
            .unwrap(),
        ),
    ]
}

/// Puts an engine behind its own ephemeral-port server and returns both the
/// server and a second handle to the engine for the in-process comparison run.
fn serve(engine: Box<dyn JoinEngine>) -> (CjoinServer, Arc<dyn JoinEngine>) {
    let engine: Arc<dyn JoinEngine> = Arc::from(engine);
    let server = CjoinServer::start(
        Arc::clone(&engine),
        // High cap: the oracle drives one tenant hard and admission policy is
        // tested elsewhere; here only result fidelity is under test.
        ServerConfig::default().with_tenant_inflight_cap(64),
    )
    .unwrap();
    (server, engine)
}

#[test]
fn served_results_are_bit_identical_to_reference_and_in_process() {
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 71));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(8, 0.05, 72));

    for engine in engines_under_test(&catalog) {
        let name = engine.name().to_string();
        let (server, local) = serve(engine);
        let client = RemoteEngine::connect(server.local_addr())
            .unwrap()
            .with_tenant("oracle")
            .with_name(format!("served-{name}"));

        for query in workload.queries() {
            let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
            let in_process = local.execute(query).unwrap();
            let served = client.execute(query).unwrap();
            assert!(
                served.approx_eq(&expected),
                "[served-{name}] {} vs reference: {:?}",
                query.name,
                served.diff(&expected)
            );
            assert!(
                served.approx_eq(&in_process),
                "[served-{name}] {} vs in-process: {:?}",
                query.name,
                served.diff(&in_process)
            );
        }

        // The server's per-tenant ledger saw every served query and nothing
        // is left in flight.
        let stats = server.stats();
        let tenant = stats
            .tenants
            .iter()
            .find(|t| t.tenant == "oracle")
            .expect("oracle tenant recorded");
        let n = workload.queries().len() as u64;
        assert_eq!(tenant.admitted, n, "[served-{name}]");
        assert_eq!(tenant.completed, n, "[served-{name}]");
        assert_eq!(tenant.in_flight, 0, "[served-{name}]");
        assert_eq!(
            tenant.shed_at_cap + tenant.shed_deadline,
            0,
            "[served-{name}]"
        );

        server.shutdown();
        // Fully stopped: fresh connections are refused (or cut before answer).
        assert!(RemoteEngine::connect(server.local_addr()).is_err());
    }
}

#[test]
fn served_tickets_interleave_like_in_process_tickets() {
    // The submit/wait split over the wire: queue everything first through
    // connection-scoped tickets, collect later, results must still match.
    let data = SsbDataSet::generate(SsbConfig::for_tests(0.001, 73));
    let catalog = data.catalog();
    let workload = Workload::generate(&data, WorkloadConfig::new(6, 0.05, 74));

    for engine in engines_under_test(&catalog) {
        let name = engine.name().to_string();
        let (server, _local) = serve(engine);
        let client = RemoteEngine::connect(server.local_addr())
            .unwrap()
            .with_tenant("interleave");

        let tickets: Vec<_> = workload
            .queries()
            .iter()
            .map(|q| client.submit(q.clone()).unwrap())
            .collect();
        for (query, ticket) in workload.queries().iter().zip(tickets) {
            let expected = reference::evaluate(&catalog, query, SnapshotId::INITIAL).unwrap();
            let result = ticket.wait().unwrap();
            assert!(
                result.approx_eq(&expected),
                "[served-{name}] {}: {:?}",
                query.name,
                result.diff(&expected)
            );
        }
        server.shutdown();
    }
}
