//! The stable result schema: what a run writes to disk, prints for people,
//! and prints as its last line for the driver.

use std::path::Path;

use crate::json::Json;
use crate::run::{Metrics, RunResult};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats;

pub const SCHEMA: u64 = 1;

fn metrics_json(values: &Metrics, table: &[Metric]) -> Json {
    let mut out = Json::obj();
    for metric in table {
        if let Some(value) = values.get(metric.name) {
            out.set(
                metric.name,
                Json::obj().with("value", *value).with("unit", metric.unit),
            );
        }
    }
    out
}

/// `git describe` of the working directory, or `unknown` outside a repository
/// (the driver's checkout is not one).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    })
}

impl RunResult {
    /// The last line of standard output: exactly the keys the driver reads.
    pub fn driver_line(&self) -> String {
        let (values, table) = if self.opts.trace {
            (&self.per_layer, PER_LAYER)
        } else {
            (&self.end_to_end, &END_TO_END[..])
        };
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics_json(values, table))
            .compact()
    }

    /// The full record written to `result-<workload>[-trace].json`.
    pub fn to_json(&self) -> Json {
        let mut host = Json::obj().with("nproc", nproc());
        for (key, value) in self.host.fields() {
            host.set(key, value.clone());
        }
        Json::obj()
            .with("schema", SCHEMA)
            .with("workload", self.spec.name)
            .with("trace", self.opts.trace)
            .with("seed", self.opts.seed)
            .with("git", git_describe())
            .with("scale_div", self.opts.scale_div())
            .with("host", host)
            .with("warmup_s", self.opts.warmup().as_secs_f64())
            .with("setups", self.opts.setups())
            .with("layer_budget_s", self.opts.layer_budget().as_secs_f64())
            .with("window_s", self.window_s)
            .with(
                "samples",
                Json::obj()
                    .with("queries", self.query_samples)
                    .with("commits", self.commit_samples)
                    .with(
                        "highest_supported_percentile",
                        stats::highest_supported_percentile(self.query_samples)
                            .map_or(Json::Null, Json::Num),
                    ),
            )
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("end_to_end", metrics_json(&self.end_to_end, &END_TO_END))
            .with("per_layer", metrics_json(&self.per_layer, PER_LAYER))
    }

    pub fn file_name(&self) -> String {
        let suffix = if self.opts.trace { "-trace" } else { "" };
        format!("result-{}{suffix}.json", self.spec.name)
    }

    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Every metric of one run record by name, with unit and sample counts.
pub fn render(run: &Json) -> String {
    use std::fmt::Write as _;
    let text = |key: &str| run.get(key).and_then(Json::as_str).unwrap_or("?");
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    let host = run.get("host");
    let host_num = |key: &str| num(host.and_then(|h| h.get(key)));
    let samples = run.get("samples");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} ({}) seed {} git {} window {:.2} s ==",
        text("workload"),
        if run.get("trace") == Some(&Json::Bool(true)) {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        num(run.get("seed")),
        text("git"),
        num(run.get("window_s")),
    );
    let _ = writeln!(
        out,
        "   host: nproc {} available_parallelism {} widths scan/stage/shard {}/{}/{} -- {}",
        host_num("nproc"),
        host_num("available_parallelism"),
        host_num("scan_workers"),
        host_num("stage_workers"),
        host_num("distributor_shards"),
        host.and_then(|h| h.get("note"))
            .and_then(Json::as_str)
            .unwrap_or(""),
    );
    let _ = writeln!(
        out,
        "   samples: {} queries behind the percentiles (enough for up to p{}), {} commits in the window; attempted {} failed {} correct {}",
        num(samples.and_then(|s| s.get("queries"))),
        100.0 * num(samples.and_then(|s| s.get("highest_supported_percentile"))),
        num(samples.and_then(|s| s.get("commits"))),
        num(run.get("attempted")),
        num(run.get("failed")),
        run.get("correct") == Some(&Json::Bool(true)),
    );
    for section in ["end_to_end", "per_layer"] {
        for (name, metric) in run.get(section).map_or(&[][..], Json::fields) {
            let _ = writeln!(
                out,
                "   {name:<44} {:>16.4} {}",
                num(metric.get("value")),
                metric.get("unit").and_then(Json::as_str).unwrap_or(""),
            );
        }
    }
    out
}

/// Reads a result file: either one run record or a merged `{"runs": [...]}`.
pub fn read_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.to_vec(),
        None => vec![doc],
    })
}

pub fn write_merged(path: &Path, runs: Vec<Json>) -> Result<(), String> {
    let doc = Json::obj()
        .with("schema", SCHEMA)
        .with("runs", Json::Arr(runs));
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
