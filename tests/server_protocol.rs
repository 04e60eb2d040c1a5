//! Protocol-hardening and admission-policy tests for `cjoin-server`.
//!
//! The contract under test: whatever bytes arrive — seeded random garbage,
//! torn writes, hostile lengths — the server never panics and, wherever a
//! response is still possible, answers a *typed* protocol error while staying
//! fully serviceable. On top of that, per-tenant admission is observable:
//! shed-vs-queue decisions, backpressure queueing, deadline sheds at the front
//! door, wire-level cancellation, and clean shutdown with every server thread
//! joined (a leak hangs the suite).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cjoin_repro::cjoin::{CjoinConfig, CjoinEngine, FaultPlan, FaultSite};
use cjoin_repro::client::RemoteEngine;
use cjoin_repro::query::wire::{
    read_frame, write_frame, AdmissionPolicy, ProtocolErrorKind, Request, Response, MAX_FRAME_LEN,
};
use cjoin_repro::query::{reference, JoinEngine, QueryError};
use cjoin_repro::server::{CjoinServer, ServerConfig};
use cjoin_repro::ssb::{SsbConfig, SsbDataSet};
use cjoin_repro::{AggregateSpec, SnapshotId, StarQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_data(seed: u64) -> SsbDataSet {
    SsbDataSet::generate(SsbConfig::for_tests(0.0005, seed))
}

fn cjoin_config() -> CjoinConfig {
    CjoinConfig::default()
        .with_max_concurrency(32)
        .with_batch_size(256)
}

fn count_star(name: &str) -> StarQuery {
    StarQuery::builder(name)
        .aggregate(AggregateSpec::count_star())
        .build()
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream)
        .expect("reading server response")
        .expect("server closed instead of answering");
    Response::decode(&payload).expect("server response decodes")
}

#[test]
fn malformed_frames_answer_typed_errors_and_the_server_survives() {
    let data = small_data(91);
    let catalog = data.catalog();
    let engine: Arc<dyn JoinEngine> =
        Arc::new(CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap());
    let server = CjoinServer::start(engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // (a) Seeded random payloads, all on one connection: every frame gets a
    // typed protocol error and the connection stays usable.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC101);
    for round in 0..200 {
        let len = rng.gen_range(0usize..64);
        let mut payload = vec![0u8; len];
        for byte in payload.iter_mut() {
            *byte = rng.gen_range(0u64..256) as u8;
        }
        // Keep the fuzz on the malformed path: a random first byte that hits a
        // real request tag could legitimately parse (or shut the server down).
        if let Some(first) = payload.first_mut() {
            if (0x01..=0x06).contains(first) {
                *first = 0xAA;
            }
        }
        write_frame(&mut stream, &payload).unwrap();
        let response = read_response(&mut stream);
        assert!(
            matches!(response, Response::Protocol { .. }),
            "round {round}: expected a typed protocol error, got {response:?}"
        );
    }
    // Same connection, real request: still answered.
    write_frame(&mut stream, &Request::Stats.encode()).unwrap();
    assert!(matches!(read_response(&mut stream), Response::Stats(_)));

    // (b) Torn writes: cut a valid submit frame at hostile offsets (mid-header,
    // exactly after the header, mid-payload) and hang up. The server must shrug
    // each one off.
    let submit = Request::Submit {
        tenant: "torn".into(),
        policy: AdmissionPolicy::Shed,
        query: Box::new(count_star("torn")),
    }
    .encode();
    let mut framed = (submit.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&submit);
    for cut in [1usize, 3, 4, 5, framed.len() - 1] {
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(&framed[..cut]).unwrap();
        drop(torn);
    }

    // (c) A declared length over the frame cap: answered with a typed
    // FrameTooLarge, then the connection is closed (no way to resynchronize).
    let mut oversize = TcpStream::connect(addr).unwrap();
    oversize
        .write_all(&(MAX_FRAME_LEN + 1).to_le_bytes())
        .unwrap();
    match read_response(&mut oversize) {
        Response::Protocol { kind, .. } => assert_eq!(kind, ProtocolErrorKind::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(
        read_frame(&mut oversize).unwrap().is_none(),
        "server closes the connection after an oversized frame"
    );

    // (d) After all the abuse, a real query still round-trips correctly.
    let client = RemoteEngine::connect(addr).unwrap().with_tenant("sanity");
    let query = count_star("after_abuse");
    let expected = reference::evaluate(&catalog, &query, SnapshotId::INITIAL).unwrap();
    let got = client.execute(&query).unwrap();
    assert!(got.approx_eq(&expected), "{:?}", got.diff(&expected));

    server.shutdown();
}

#[test]
fn per_tenant_cap_sheds_or_queues_by_policy() {
    let data = small_data(92);
    let catalog = data.catalog();
    let engine: Arc<dyn JoinEngine> =
        Arc::new(CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap());
    let server = CjoinServer::start(
        engine,
        ServerConfig::default()
            .with_tenant_inflight_cap(1)
            .with_tenant_queue_cap(1)
            .with_poll_interval(Duration::from_millis(5)),
    )
    .unwrap();
    let addr = server.local_addr();

    // Fill the tenant's single in-flight slot (submitted, not yet waited).
    let shed_client = RemoteEngine::connect(addr)
        .unwrap()
        .with_tenant("acme")
        .with_policy(AdmissionPolicy::Shed);
    let first = shed_client.submit(count_star("first")).unwrap();

    // Shed policy at the cap: immediate typed refusal.
    let refused = shed_client.submit(count_star("refused")).unwrap();
    match refused.wait() {
        Err(QueryError::Engine(e)) => {
            assert!(e.to_string().contains("in-flight cap"), "{e}");
        }
        other => panic!("expected a cap shed, got {other:?}"),
    }

    // Queue policy at the cap: the submission parks as backpressure and is
    // admitted once the slot frees.
    let queue_client = RemoteEngine::connect(addr)
        .unwrap()
        .with_tenant("acme")
        .with_policy(AdmissionPolicy::Queue);
    let queued = thread::spawn(move || queue_client.execute(&count_star("queued")));
    thread::sleep(Duration::from_millis(150));
    let mid = server.stats();
    let acme = mid.tenants.iter().find(|t| t.tenant == "acme").unwrap();
    assert_eq!(acme.in_flight, 1, "first submission still holds the slot");
    assert_eq!(acme.queued, 1, "queued submission is parked");
    assert_eq!(acme.shed_at_cap, 1, "shed-policy refusal was counted");

    // A second queued submission overflows the size-1 queue and sheds.
    let overflow_client = RemoteEngine::connect(addr)
        .unwrap()
        .with_tenant("acme")
        .with_policy(AdmissionPolicy::Queue);
    let overflow = overflow_client.submit(count_star("overflow")).unwrap();
    match overflow.wait() {
        Err(QueryError::Engine(e)) => {
            assert!(e.to_string().contains("queue is full"), "{e}");
        }
        other => panic!("expected a queue-overflow shed, got {other:?}"),
    }

    // Deliver the first outcome; the parked submission gets the slot and runs.
    assert!(first.wait().is_ok());
    assert!(queued.join().unwrap().is_ok());

    let end = server.stats();
    let acme = end.tenants.iter().find(|t| t.tenant == "acme").unwrap();
    assert_eq!(acme.admitted, 2);
    assert_eq!(acme.completed, 2);
    assert_eq!(acme.queued, 1);
    assert_eq!(acme.shed_at_cap, 2);
    assert_eq!(acme.in_flight, 0);

    server.shutdown();
}

#[test]
fn unreachable_deadline_is_shed_at_the_front_door() {
    let data = small_data(93);
    let catalog = data.catalog();
    let engine: Arc<dyn JoinEngine> =
        Arc::new(CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap());
    let server = CjoinServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let client = RemoteEngine::connect(server.local_addr())
        .unwrap()
        .with_tenant("deadline");

    // Warm the engine's ETA model: one completed query records a full pass.
    client.execute(&count_star("warm")).unwrap();
    let quote = engine.quote_eta().expect("pass time recorded after warmup");

    // A deadline below any honest quote is shed at admission, server-side.
    let doomed = StarQuery::builder("doomed")
        .aggregate(AggregateSpec::count_star())
        .deadline(Duration::from_nanos(1))
        .build();
    match client.submit(doomed).unwrap().wait() {
        Err(QueryError::ShedAtAdmission {
            deadline,
            estimated,
        }) => {
            assert_eq!(deadline, Duration::from_nanos(1));
            assert!(estimated >= quote.min(estimated));
        }
        other => panic!("expected ShedAtAdmission, got {other:?}"),
    }

    // A comfortable deadline sails through and completes.
    let relaxed = StarQuery::builder("relaxed")
        .aggregate(AggregateSpec::count_star())
        .deadline(quote + Duration::from_secs(5))
        .build();
    assert!(client.submit(relaxed).unwrap().wait().is_ok());

    let stats = server.stats();
    let tenant = stats
        .tenants
        .iter()
        .find(|t| t.tenant == "deadline")
        .unwrap();
    assert_eq!(tenant.shed_deadline, 1);
    assert_eq!(tenant.completed, 2);

    server.shutdown();
}

#[test]
fn cancel_over_the_wire_resolves_to_cancelled() {
    let data = small_data(94);
    let catalog = data.catalog();
    // Slow the scan down so cancellation deterministically beats completion.
    let config = cjoin_config().with_fault_plan(
        FaultPlan::seeded(7)
            .delay(FaultSite::ScanWorker, 50_000)
            .build(),
    );
    let engine: Arc<dyn JoinEngine> =
        Arc::new(CjoinEngine::start(Arc::clone(&catalog), config).unwrap());
    let server = CjoinServer::start(engine, ServerConfig::default()).unwrap();
    let client = RemoteEngine::connect(server.local_addr())
        .unwrap()
        .with_tenant("cancel");

    let ticket = client.submit(count_star("slow")).unwrap();
    ticket.cancel();
    match ticket.wait() {
        Err(QueryError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    server.shutdown();
}

/// Ingestion over the wire: the receipt arrives only after the batch is
/// durable and visible server-side, so a query on the same client immediately
/// observes it — and a schema-invalid batch is refused with nothing applied.
#[test]
fn ingest_over_the_wire_is_durable_visible_and_atomic() {
    use cjoin_repro::query::{DimUpsert, IngestBatch};
    use cjoin_repro::storage::{Column, Schema, Table, Value};
    use cjoin_repro::Catalog;

    let catalog = Arc::new(Catalog::new());
    let dim = Table::new(Schema::new(
        "region",
        vec![Column::int("k"), Column::str("name")],
    ));
    dim.insert(vec![Value::int(1), Value::str("EU")], SnapshotId::INITIAL)
        .unwrap();
    catalog.add_table(Arc::new(dim));
    let fact = Table::new(Schema::new(
        "orders",
        vec![Column::int("fk"), Column::int("amount")],
    ));
    for i in 0..10 {
        fact.insert(vec![Value::int(1), Value::int(i)], SnapshotId::INITIAL)
            .unwrap();
    }
    catalog.add_fact_table(Arc::new(fact));

    let mut wal = std::env::temp_dir();
    wal.push(format!("cjoin-served-ingest-{}", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let engine: Arc<dyn JoinEngine> =
        Arc::new(CjoinEngine::start(Arc::clone(&catalog), cjoin_config().with_wal(&wal)).unwrap());
    let server = CjoinServer::start(engine, ServerConfig::default()).unwrap();
    let client = RemoteEngine::connect(server.local_addr())
        .unwrap()
        .with_tenant("feed");

    let count = |name: &str| {
        let result = client.execute(&count_star(name)).unwrap();
        let value = result.rows().next().unwrap().1[0].clone();
        value
    };
    let before = count("before_ingest");

    let receipt = client
        .ingest(IngestBatch {
            facts: vec![
                vec![Value::int(1), Value::int(100)],
                vec![Value::int(2), Value::int(200)],
            ],
            dim_upserts: vec![DimUpsert {
                table: "region".into(),
                key_column: 0,
                row: vec![Value::int(2), Value::str("APAC")],
            }],
            dim_deletes: vec![],
        })
        .unwrap();
    assert!(receipt.epoch > 0 && receipt.records >= 2 && receipt.wal_bytes > 0);

    // The receipt means durable *and* visible: the very next query sees both
    // fact rows.
    assert_eq!(
        count("after_ingest"),
        cjoin_repro::query::AggValue::Int(12),
        "served count must include the ingested rows (was {before:?} before)"
    );

    // A schema-invalid batch (wrong arity) is a typed refusal with nothing
    // applied — atomic over the wire too.
    let err = client
        .ingest(IngestBatch {
            facts: vec![vec![Value::int(1)]],
            dim_upserts: vec![],
            dim_deletes: vec![],
        })
        .unwrap_err();
    assert!(!err.to_string().is_empty());
    assert_eq!(
        count("after_refused"),
        cjoin_repro::query::AggValue::Int(12)
    );

    server.shutdown();
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn shutdown_request_stops_admission_and_joins_cleanly() {
    let data = small_data(95);
    let catalog = data.catalog();
    let engine: Arc<dyn JoinEngine> =
        Arc::new(CjoinEngine::start(Arc::clone(&catalog), cjoin_config()).unwrap());
    let server = CjoinServer::start(
        engine,
        ServerConfig::default().with_poll_interval(Duration::from_millis(5)),
    )
    .unwrap();
    let addr = server.local_addr();

    let client = RemoteEngine::connect(addr).unwrap();
    client.execute(&count_star("before")).unwrap();

    // Client-initiated shutdown: acknowledged, then the front door closes.
    client.shutdown();
    thread::sleep(Duration::from_millis(50));
    assert!(
        RemoteEngine::connect(addr).is_err(),
        "new sessions must be refused after a shutdown request"
    );

    // Owner-side shutdown is idempotent and joins every thread (a hang here
    // fails the test by timeout).
    server.shutdown();
    server.shutdown();
}
