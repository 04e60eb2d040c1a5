//! One workload run: set-up, oracle check, warm-up, measured window, and the
//! numbers that come out of it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cjoin_core::{CjoinConfig, CjoinEngine, PipelineStats};
use cjoin_query::wire::ServerStats;
use cjoin_query::{reference, JoinEngine, StarQuery};
use cjoin_server::{CjoinServer, ServerConfig};
use cjoin_ssb::SsbDataSet;
use cjoin_storage::{Catalog, SyncPolicy};

use crate::drive::{connect, ClosedLoop, CommitSample, Front, IngestStream, Sample};
use crate::gen::{self, IngestGen};
use crate::json::Json;
use crate::span::Recorder;
use crate::spec::{Spec, END_TO_END, INGEST_COMMITS_PER_S, ORACLE_SAMPLE, PER_LAYER};
use crate::{layers, stats, traced};

/// Length of one throughput / tail-latency slice of the measured window.
const SLICE: Duration = Duration::from_secs(1);

/// Untimed warm-up before the window: caches filled, auto-tune settled.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `rig layers`: 1 s per layer driver instead of 0.2 s.
    pub long_layers: bool,
    /// Scale factors / 10, short warm-up, one set-up.
    pub smoke: bool,
    /// Corrupt one expected result, to show the oracle check can fail.
    pub corrupt_oracle: bool,
    pub out_dir: PathBuf,
}

impl RunOpts {
    pub fn warmup(&self) -> Duration {
        if self.smoke {
            WARMUP / 20
        } else {
            WARMUP
        }
    }

    /// Scale factors are divided by this.
    pub fn scale_div(&self) -> f64 {
        if self.smoke {
            10.0
        } else {
            1.0
        }
    }

    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// Time budget of each layer driver in a traced run.
    pub fn layer_budget(&self) -> Duration {
        Duration::from_millis(match (self.long_layers, self.smoke) {
            (true, _) => 1000,
            (false, false) => 200,
            (false, true) => 50,
        })
    }
}

/// A metric value with its unit, as printed and written.
pub type Metrics = BTreeMap<&'static str, f64>;

pub struct RunResult {
    pub spec: Spec,
    pub opts: RunOpts,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub window_s: f64,
    /// Completions behind the reported percentiles: the window's, or in a
    /// traced run its untraced half's.
    pub query_samples: usize,
    pub commit_samples: usize,
    pub host: Json,
}

/// A started workload: the warehouse, the engine over it, and the front door.
pub struct Rigged {
    pub data: SsbDataSet,
    pub catalog: Arc<Catalog>,
    pub engine: Arc<CjoinEngine>,
    pub server: Option<CjoinServer>,
    pub datagen_s: f64,
    pub engine_start_ms: f64,
    pub setup_s: f64,
}

impl Rigged {
    /// Data generation, engine (and server) start, and the first admission.
    /// Returns the generator's side too: its connection and its query pool.
    pub fn set_up(
        spec: &Spec,
        opts: &RunOpts,
        wal: &Path,
    ) -> Result<(Self, Front, Vec<StarQuery>), String> {
        let began = Instant::now();
        let data = SsbDataSet::generate(gen::ssb_config(spec, opts.seed, opts.scale_div()));
        let datagen_s = began.elapsed().as_secs_f64();
        let queries = gen::queries(spec, &data, opts.seed);
        let catalog = data.catalog();

        // Only knobs that survive the knob diet; widths are auto-tuned.
        let mut config = CjoinConfig::default()
            .with_max_concurrency((2 * spec.inflight).max(64))
            .with_columnar_scan(spec.columnar);
        if spec.served {
            let _ = std::fs::remove_file(wal);
            config = config.with_wal(wal).with_wal_sync(SyncPolicy::OnCommit);
        }
        let start_began = Instant::now();
        let engine =
            Arc::new(CjoinEngine::start(Arc::clone(&catalog), config).map_err(|e| e.to_string())?);
        let engine_start_ms = start_began.elapsed().as_secs_f64() * 1e3;

        let (server, mut front) = if spec.served {
            let server = CjoinServer::start(
                Arc::clone(&engine) as Arc<dyn JoinEngine>,
                ServerConfig::default().with_tenant_inflight_cap(2 * spec.inflight),
            )
            .map_err(|e| e.to_string())?;
            let front = Front::Wire(connect(server.local_addr())?);
            (Some(server), front)
        } else {
            (None, Front::Local(Arc::clone(&engine)))
        };
        let first = front.submit(&queries[0])?;
        let setup_s = began.elapsed().as_secs_f64();
        front.wait(first)?;
        let rig = Self {
            data,
            catalog,
            engine,
            server,
            datagen_s,
            engine_start_ms,
            setup_s,
        };
        Ok((rig, front, queries))
    }

    /// Closes the generator's connection, then stops the server (which stops
    /// the engine) or the engine, joining their threads.
    pub fn tear_down(self, front: Front) {
        drop(front);
        match &self.server {
            Some(server) => server.shutdown(),
            None => self.engine.shutdown(),
        }
    }
}

/// Runs sampled workload queries through the front door and compares each
/// result with the reference evaluator on the same catalog. Returns
/// `(checked, mismatched)`.
fn oracle_check(
    front: &mut Front,
    queries: &[StarQuery],
    catalog: &Catalog,
    seed: u64,
    depth: usize,
    corrupt: bool,
) -> (u64, u64) {
    let sample = gen::oracle_sample(seed, queries.len(), ORACLE_SAMPLE);
    let snapshot = catalog.snapshots().current();
    let mut mismatched = 0u64;
    for (wave_no, wave) in sample.chunks(depth).enumerate() {
        let tickets: Vec<_> = wave.iter().map(|&i| front.submit(&queries[i])).collect();
        for (pos, (&i, ticket)) in wave.iter().zip(tickets).enumerate() {
            let query = &queries[i];
            let got = ticket.and_then(|t| front.wait(t));
            let mut expected = reference::evaluate(catalog, query, snapshot);
            if corrupt && wave_no == 0 && pos == 0 {
                if let Ok(result) = expected.as_mut() {
                    result.insert(
                        vec![cjoin_storage::Value::str("rig-corruption")],
                        Vec::new(),
                    );
                }
            }
            let verdict = match (&got, &expected) {
                (Ok(got), Ok(expected)) if got.approx_eq(expected) => None,
                (Ok(got), Ok(expected)) => Some(
                    got.diff(expected)
                        .unwrap_or_else(|| "results differ".to_string()),
                ),
                (Err(e), _) => Some(format!("engine failed: {e}")),
                (_, Err(e)) => Some(format!("oracle failed: {e}")),
            };
            if let Some(why) = verdict {
                mismatched += 1;
                eprintln!("rig: ORACLE MISMATCH on '{}': {why}", query.name);
            }
        }
    }
    (sample.len() as u64, mismatched)
}

/// What a window of samples says. The p95s are reported per layer (by the
/// traced run, from its untraced half): run to run they move by more than any
/// bound the benchmark may set.
#[derive(Debug, Default, Clone)]
pub struct WindowStats {
    pub throughput_qps: f64,
    pub response_p50_ms: f64,
    pub response_p95_ms: f64,
    pub submit_p50_ms: f64,
    pub submit_p95_ms: f64,
    pub completed: usize,
    pub failed: usize,
}

/// Throughput is the median over whole slices of `[from, to)`, so that one
/// stalled second (a noisy neighbour) does not decide the run; the latency
/// percentiles are over every sample in the window.
pub fn window_stats(
    samples: &[Sample],
    from: Instant,
    to: Instant,
    slice: Duration,
) -> WindowStats {
    let slices = ((to - from).as_secs_f64() / slice.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let slice_s = (to - from).as_secs_f64() / slices as f64;
    let inside = |at: Instant| at >= from && at < to;
    let mut done_per_slice = vec![0usize; slices];
    let (mut response, mut submit) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for s in samples {
        if inside(s.done) {
            if s.ok {
                let k = ((s.done - from).as_secs_f64() / slice_s) as usize;
                done_per_slice[k.min(slices - 1)] += 1;
                response.push(s.response_ms);
            } else {
                failed += 1;
            }
        }
        if inside(s.submitted) {
            submit.push(s.submit_ms);
        }
    }
    stats::sort(&mut response);
    stats::sort(&mut submit);
    let rates: Vec<f64> = done_per_slice.iter().map(|&n| n as f64 / slice_s).collect();
    WindowStats {
        throughput_qps: stats::median(&rates),
        response_p50_ms: stats::median(&response),
        submit_p50_ms: stats::median(&submit),
        response_p95_ms: stats::quantile_sorted(&response, 0.95),
        submit_p95_ms: stats::quantile_sorted(&submit, 0.95),
        completed: response.len(),
        failed,
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_block(engine: &CjoinEngine) -> Json {
    let widths = engine.scheduler_stats();
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj()
        .with("available_parallelism", available)
        .with("auto_tune", widths.auto_tune)
        .with("scan_workers", widths.scan_workers)
        .with("stage_workers", widths.stage_workers)
        .with("distributor_shards", widths.distributor_shards)
        .with(
            "note",
            if available <= 2 {
                "every engine thread shares cores with the generator: widths > 1 measure coordination overhead, not scaling"
            } else {
                "width-dependent numbers are comparable only between hosts of equal parallelism"
            },
        )
}

struct Snapshot {
    at: Instant,
    pipeline: PipelineStats,
    server: Option<ServerStats>,
}

fn snapshot(rig: &Rigged) -> Snapshot {
    Snapshot {
        at: Instant::now(),
        pipeline: rig.engine.stats(),
        server: rig.server.as_ref().map(CjoinServer::stats),
    }
}

/// Runs one workload end to end and returns every number it produced.
pub fn run(spec: Spec, opts: RunOpts) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let wal = opts
        .out_dir
        .join(format!("wal-{}-{}.log", spec.name, std::process::id()));

    let (rig, mut front, queries) = Rigged::set_up(&spec, &opts, &wal)?;
    let mut setup_times = vec![rig.setup_s];

    let host = host_block(&rig.engine);
    let (mut checked, mut mismatched) = oracle_check(
        &mut front,
        &queries,
        &rig.catalog,
        opts.seed,
        spec.inflight,
        opts.corrupt_oracle,
    );

    let ingest = match &rig.server {
        Some(server) => Some(IngestStream::start(
            server.local_addr(),
            IngestGen::new(&rig.catalog, opts.seed),
            Duration::from_nanos(1_000_000_000 / INGEST_COMMITS_PER_S),
        )?),
        None => None,
    };

    let mut lp = ClosedLoop::new(&mut front, &queries, spec.inflight);
    lp.run_until(Instant::now() + opts.warmup());

    // Untraced: one window. Traced: the window's first half runs untraced as
    // the overhead reference, its second half with the span recorder on.
    let window = Duration::from_secs_f64(opts.seconds);
    let from = Instant::now();
    let mut marks = None;
    let mut probes = traced::ProbeSampler::default();
    if opts.trace {
        lp.run_until(from + window / 2);
        let before = snapshot(&rig);
        lp.trace(Recorder::new(before.at), Arc::clone(&rig.engine));
        if let Some(ingest) = &ingest {
            ingest.set_tracing(true);
        }
        // The run-time optimizer zeroes the per-filter counters every 50 ms,
        // so they cannot be differenced across the window; sample them.
        let mut tick = before.at;
        while tick < from + window {
            tick = (tick + traced::PROBE_SAMPLE_EVERY).min(from + window);
            lp.run_until(tick);
            probes.sample(&rig.engine.stats());
        }
        marks = Some((before, snapshot(&rig)));
    } else {
        lp.run_until(from + window);
    }
    let to = Instant::now();
    lp.drain();
    let mut recorder = lp.stop_trace();
    let samples = std::mem::take(&mut lp.samples);
    drop(lp);

    let mut commits: Vec<CommitSample> = Vec::new();
    if let Some(ingest) = ingest {
        let outcome = ingest.finish()?;
        commits = outcome.commits;
        if let Some(recorder) = recorder.as_mut() {
            recorder.append(outcome.recorder);
        }
        // Ingest has stopped and the loop is drained: the engine is quiesced,
        // so the reference evaluator and the engine see the same final state.
        let (c, m) = oracle_check(
            &mut front,
            &queries,
            &rig.catalog,
            opts.seed ^ 0xF1,
            spec.inflight,
            false,
        );
        checked += c;
        mismatched += m;
    }
    let window_commits: Vec<&CommitSample> = commits
        .iter()
        .filter(|c| c.due >= from && c.due < to)
        .collect();
    let failed_commits = window_commits.iter().filter(|c| !c.ok).count();

    let whole = window_stats(&samples, from, to, SLICE);
    let attempted = (whole.completed + whole.failed + window_commits.len()) as u64 + checked;
    let failed = (whole.failed + failed_commits) as u64 + mismatched;

    let mut end_to_end = Metrics::new();
    let mut per_layer = Metrics::new();
    // The samples behind the reported percentiles.
    let mut query_samples = whole.completed;
    if let Some((before, after)) = marks {
        let untraced = window_stats(&samples, from, before.at, SLICE);
        query_samples = untraced.completed;
        let traced_half = window_stats(&samples, before.at, after.at, SLICE);
        let recorder = recorder.expect("a traced run records spans");
        traced::derive(
            &mut per_layer,
            &traced::Window {
                before: &before.pipeline,
                after: &after.pipeline,
                server_before: before.server.as_ref(),
                server_after: after.server.as_ref(),
                samples: &samples,
                commits: &commits,
                from: before.at,
                to: after.at,
                traced: &traced_half,
                untraced: &untraced,
                probes_per_tuple: probes.probes_per_tuple(),
            },
            &recorder,
        );
        per_layer.insert("ssb.datagen_rows_per_s", {
            let rows = rig.catalog.fact_table().map_or(0, |t| t.len());
            rows as f64 / rig.datagen_s
        });
        per_layer.insert("cjoin.engine.start_ms", rig.engine_start_ms);
        let trace_file = opts.out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&trace_file, recorder.to_json().compact())
            .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
        layers::run(&mut per_layer, &spec, &rig, &queries, &opts)?;
        for metric in PER_LAYER {
            per_layer.entry(metric.name).or_insert(0.0);
        }
    } else {
        end_to_end.insert("throughput_qps", whole.throughput_qps);
        end_to_end.insert("response_p50_ms", whole.response_p50_ms);
        end_to_end.insert("submit_p50_ms", whole.submit_p50_ms);
        end_to_end.insert("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    }

    rig.tear_down(front);
    if !opts.trace {
        // Read before the further set-ups, so it is this workload's one
        // set-up and run and nothing the allocator kept from others.
        end_to_end.insert("peak_rss_mb", peak_rss_mb());
        // Set up several times more: `setup_s` is the median, so one slow
        // page-cache miss or scheduler hiccup does not decide it.
        while setup_times.len() < opts.setups() {
            let (rig, front, _) = Rigged::set_up(&spec, &opts, &wal)?;
            setup_times.push(rig.setup_s);
            rig.tear_down(front);
        }
        end_to_end.insert("setup_s", stats::median(&setup_times));
        debug_assert_eq!(end_to_end.len(), END_TO_END.len());
    }
    let _ = std::fs::remove_file(&wal);

    Ok(RunResult {
        spec,
        correct: mismatched == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        window_s: (to - from).as_secs_f64(),
        query_samples,
        commit_samples: window_commits.len(),
        host,
        opts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(from: Instant, done_ms: u64, response_ms: f64, ok: bool) -> Sample {
        let done = from + Duration::from_millis(done_ms);
        Sample {
            submitted: done - Duration::from_secs_f64(response_ms / 1e3),
            done,
            submit_ms: response_ms / 10.0,
            response_ms,
            ok,
            eta_err_pct: None,
        }
    }

    #[test]
    fn a_stalled_slice_does_not_decide_throughput() {
        let from = Instant::now() + Duration::from_secs(1);
        let to = from + Duration::from_secs(3);
        let mut samples = Vec::new();
        // 10 completions in each of slices 0 and 2, only 2 in the stalled slice 1.
        for k in 0..10 {
            samples.push(sample(from, 50 + k * 90, 5.0, true));
            samples.push(sample(from, 2_050 + k * 90, 5.0, true));
        }
        samples.push(sample(from, 1_100, 400.0, true));
        samples.push(sample(from, 1_900, 5.0, false));
        // Outside the window: ignored.
        samples.push(sample(from, 3_500, 5.0, true));
        let w = window_stats(&samples, from, to, Duration::from_secs(1));
        assert_eq!(w.completed, 21);
        assert_eq!(w.failed, 1);
        assert!(
            (w.throughput_qps - 10.0).abs() < 1e-9,
            "{}",
            w.throughput_qps
        );
        assert_eq!(w.response_p50_ms, 5.0);
        assert_eq!(w.response_p95_ms, 5.0, "one slow query in 21 is beyond p95");
    }
}
