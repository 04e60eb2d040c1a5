//! Load generation: one closed-loop generator thread that keeps `n` queries
//! outstanding (in process or pipelined on one connection), and the open-loop
//! ingest stream that runs beside it on `served_ingest`.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cjoin_core::CjoinEngine;
use cjoin_query::wire::{read_frame, write_frame, AdmissionPolicy, Request, Response};
use cjoin_query::{JoinEngine, QueryResult, QueryTicket, StarQuery};

use crate::gen::IngestGen;
use crate::span::Recorder;

pub const TENANT: &str = "rig";

/// One request/response exchange on a connection the rig owns.
fn roundtrip(stream: &mut TcpStream, request: &Request) -> Result<Response, String> {
    write_frame(stream, &request.encode()).map_err(|e| format!("send failed: {e}"))?;
    let payload = read_frame(stream)
        .map_err(|e| format!("receive failed: {e}"))?
        .ok_or("server closed the connection")?;
    Response::decode(&payload).map_err(|e| format!("undecodable response: {e}"))
}

pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Where the generator sends queries: straight into the engine, or through
/// the wire protocol on one connection (tickets are connection-scoped, so one
/// connection can carry every outstanding query).
pub enum Front {
    Local(Arc<CjoinEngine>),
    Wire(TcpStream),
}

pub enum Ticket {
    Local(Box<dyn QueryTicket>),
    Wire(u64),
    /// The server answered the submit with a final outcome (shed or refused).
    Refused(String),
}

impl Front {
    pub fn submit(&mut self, query: &StarQuery) -> Result<Ticket, String> {
        match self {
            Front::Local(engine) => JoinEngine::submit(engine.as_ref(), query.clone())
                .map(Ticket::Local)
                .map_err(|e| e.to_string()),
            Front::Wire(stream) => {
                let request = Request::Submit {
                    tenant: TENANT.to_string(),
                    policy: AdmissionPolicy::Queue,
                    query: Box::new(query.clone()),
                };
                match roundtrip(stream, &request)? {
                    Response::Submitted { ticket } => Ok(Ticket::Wire(ticket)),
                    Response::Outcome(Ok(_)) => Err("submit answered with a result".to_string()),
                    Response::Outcome(Err(e)) => Ok(Ticket::Refused(e.to_string())),
                    other => Err(format!("unexpected answer to submit: {other:?}")),
                }
            }
        }
    }

    pub fn wait(&mut self, ticket: Ticket) -> Result<QueryResult, String> {
        match (ticket, self) {
            (Ticket::Local(ticket), _) => ticket.wait().map_err(|e| e.to_string()),
            (Ticket::Wire(ticket), Front::Wire(stream)) => {
                match roundtrip(stream, &Request::Wait { ticket })? {
                    Response::Outcome(outcome) => outcome.map_err(|e| e.to_string()),
                    other => Err(format!("unexpected answer to wait: {other:?}")),
                }
            }
            (Ticket::Refused(why), _) => Err(why),
            (Ticket::Wire(_), Front::Local(_)) => Err("wire ticket on a local front".to_string()),
        }
    }
}

/// One completed (or failed) query as the generator saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the `submit` call began / when the result was in hand.
    pub submitted: Instant,
    pub done: Instant,
    pub submit_ms: f64,
    pub response_ms: f64,
    pub ok: bool,
    /// `|quote_eta() - response| / response` in percent, traced runs only.
    pub eta_err_pct: Option<f64>,
}

struct Pending {
    ticket: Result<Ticket, String>,
    submitted: Instant,
    submit_ms: f64,
    root: Option<u32>,
    op: u64,
    eta: Option<Duration>,
}

/// The closed loop: `depth` queries outstanding, waited first-in first-out
/// (every CJOIN query needs one scan wrap, so the oldest finishes first),
/// one resubmitted after each completion.
pub struct ClosedLoop<'a> {
    front: &'a mut Front,
    queries: &'a [StarQuery],
    depth: usize,
    next: usize,
    ops: u64,
    inflight: VecDeque<Pending>,
    pub samples: Vec<Sample>,
    /// Spans are recorded only while this is `Some`.
    pub recorder: Option<Recorder>,
    /// Quoted before each submit while tracing, for the ETA-error metric.
    eta_source: Option<Arc<CjoinEngine>>,
    /// Names of the submit and wait spans on this front.
    span_names: (&'static str, &'static str),
}

impl<'a> ClosedLoop<'a> {
    pub fn new(front: &'a mut Front, queries: &'a [StarQuery], depth: usize) -> Self {
        let span_names = match front {
            Front::Local(_) => ("submit", "wait"),
            Front::Wire(_) => ("rpc_submit", "rpc_wait"),
        };
        Self {
            span_names,
            front,
            queries,
            depth,
            next: 0,
            ops: 0,
            inflight: VecDeque::with_capacity(depth),
            samples: Vec::new(),
            recorder: None,
            eta_source: None,
        }
    }

    pub fn trace(&mut self, recorder: Recorder, eta_source: Arc<CjoinEngine>) {
        self.recorder = Some(recorder);
        self.eta_source = Some(eta_source);
    }

    /// Call after [`ClosedLoop::drain`], so every root span is closed.
    pub fn stop_trace(&mut self) -> Option<Recorder> {
        self.eta_source = None;
        self.recorder.take()
    }

    fn submit_next(&mut self) {
        let query = &self.queries[self.next % self.queries.len()];
        self.next += 1;
        self.ops += 1;
        let eta = self.eta_source.as_ref().and_then(|e| e.quote_eta());
        let submitted = Instant::now();
        let ticket = self.front.submit(query);
        let returned = Instant::now();
        let root = self.recorder.as_mut().map(|rec| {
            let root = rec.open("query", None, self.ops, submitted);
            rec.record(self.span_names.0, Some(root), self.ops, submitted, returned);
            root
        });
        self.inflight.push_back(Pending {
            ticket,
            submitted,
            submit_ms: (returned - submitted).as_secs_f64() * 1e3,
            root,
            op: self.ops,
            eta,
        });
    }

    /// Waits for the oldest outstanding query and records it.
    fn complete_oldest(&mut self) -> bool {
        let Some(pending) = self.inflight.pop_front() else {
            return false;
        };
        let wait_started = Instant::now();
        let outcome = pending.ticket.and_then(|ticket| self.front.wait(ticket));
        let done = Instant::now();
        if let Err(why) = &outcome {
            eprintln!("rig: query failed: {why}");
        }
        // Queries submitted before tracing began have no root to close.
        if let (Some(rec), Some(root)) = (self.recorder.as_mut(), pending.root) {
            rec.record(
                self.span_names.1,
                Some(root),
                pending.op,
                wait_started,
                done,
            );
            rec.close(root, done);
        }
        let response = done - pending.submitted;
        self.samples.push(Sample {
            submitted: pending.submitted,
            done,
            submit_ms: pending.submit_ms,
            response_ms: response.as_secs_f64() * 1e3,
            ok: outcome.is_ok(),
            eta_err_pct: pending.eta.map(|eta| {
                (eta.as_secs_f64() - response.as_secs_f64()).abs() / response.as_secs_f64() * 100.0
            }),
        });
        true
    }

    /// Runs the loop until `deadline`: top up to `depth`, wait the oldest.
    pub fn run_until(&mut self, deadline: Instant) {
        while Instant::now() < deadline {
            while self.inflight.len() < self.depth {
                self.submit_next();
            }
            self.complete_oldest();
        }
    }

    /// Waits out everything still in flight without resubmitting.
    pub fn drain(&mut self) {
        while self.complete_oldest() {}
    }
}

/// One ingest commit as the open-loop generator saw it.
#[derive(Debug, Clone)]
pub struct CommitSample {
    pub due: Instant,
    /// How late the generator issued the commit.
    pub lag_ms: f64,
    /// Due time to durable-and-visible receipt: a stall that delays later
    /// commits is charged to them.
    pub latency_ms: f64,
    pub ok: bool,
}

/// When commit `k` of an open-loop stream is due.
pub fn due_at(start: Instant, period: Duration, k: u64) -> Instant {
    start + Duration::from_nanos(period.as_nanos() as u64 * k)
}

/// Open-loop accounting for one operation: `(lag, latency)` in milliseconds,
/// both measured from the due time, not from when the generator got to it.
pub fn open_loop_account(due: Instant, sent: Instant, done: Instant) -> (f64, f64) {
    (
        sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        done.saturating_duration_since(due).as_secs_f64() * 1e3,
    )
}

pub struct IngestOutcome {
    pub commits: Vec<CommitSample>,
    pub recorder: Recorder,
}

pub struct IngestStream {
    stop: Arc<AtomicBool>,
    tracing: Arc<AtomicBool>,
    handle: JoinHandle<Result<IngestOutcome, String>>,
}

impl IngestStream {
    /// Starts the stream on its own connection: one commit every `period`,
    /// each sent at its due time or as soon after as the previous allows.
    pub fn start(
        addr: SocketAddr,
        mut batches: IngestGen,
        period: Duration,
    ) -> Result<Self, String> {
        let mut stream = connect(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let tracing = Arc::new(AtomicBool::new(false));
        let (stop_flag, trace_flag) = (Arc::clone(&stop), Arc::clone(&tracing));
        let handle = std::thread::Builder::new()
            .name("rig-ingest".to_string())
            .spawn(move || {
                let start = Instant::now();
                let mut recorder = Recorder::new(start);
                let mut commits = Vec::new();
                loop {
                    let k = commits.len() as u64;
                    let due = due_at(start, period, k);
                    // Sleep in short steps so a stop request is seen promptly.
                    loop {
                        if stop_flag.load(Ordering::Acquire) {
                            return Ok(IngestOutcome { commits, recorder });
                        }
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        std::thread::sleep((due - now).min(Duration::from_millis(5)));
                    }
                    let request = Request::Ingest {
                        tenant: TENANT.to_string(),
                        batch: Box::new(batches.next_batch()),
                    };
                    let sent = Instant::now();
                    let response = roundtrip(&mut stream, &request)?;
                    let done = Instant::now();
                    let ok = matches!(response, Response::Ingested(_));
                    if !ok {
                        eprintln!("rig: ingest commit {k} failed: {response:?}");
                    }
                    if trace_flag.load(Ordering::Relaxed) {
                        recorder.record("commit", None, k, sent, done);
                    }
                    let (lag_ms, latency_ms) = open_loop_account(due, sent, done);
                    commits.push(CommitSample {
                        due,
                        lag_ms,
                        latency_ms,
                        ok,
                    });
                }
            })
            .map_err(|e| format!("could not spawn the ingest thread: {e}"))?;
        Ok(Self {
            stop,
            tracing,
            handle,
        })
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Stops after the commit in progress and joins the thread.
    pub fn finish(self) -> Result<IngestOutcome, String> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .join()
            .map_err(|_| "the ingest thread panicked".to_string())?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let period = Duration::from_millis(100);
        // Commit 0 stalls for 250 ms, so commits 1 and 2 go out late.
        let done0 = start + Duration::from_millis(250);
        let (lag0, lat0) = open_loop_account(due_at(start, period, 0), start, done0);
        assert_eq!((lag0, lat0), (0.0, 250.0));
        let sent1 = done0;
        let done1 = sent1 + Duration::from_millis(10);
        let (lag1, lat1) = open_loop_account(due_at(start, period, 1), sent1, done1);
        assert!((lag1 - 150.0).abs() < 1e-9, "{lag1}");
        assert!(
            (lat1 - 160.0).abs() < 1e-9,
            "service took 10 ms, the stall 150: {lat1}"
        );
        let sent2 = done1;
        let (lag2, lat2) = open_loop_account(
            due_at(start, period, 2),
            sent2,
            sent2 + Duration::from_millis(10),
        );
        assert!((lag2 - 60.0).abs() < 1e-9 && (lat2 - 70.0).abs() < 1e-9);
        // An early generator is not credited: lag floors at zero.
        let (lag, _) = open_loop_account(done0, start, done0);
        assert_eq!(lag, 0.0);
    }

    #[test]
    fn due_times_do_not_drift() {
        let start = Instant::now();
        let period = Duration::from_millis(100);
        assert_eq!(due_at(start, period, 0), start);
        assert_eq!(
            due_at(start, period, 25) - start,
            Duration::from_millis(2_500)
        );
    }
}
