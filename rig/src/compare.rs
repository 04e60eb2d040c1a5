//! `rig compare`: two result files, one row per (workload, end-to-end metric),
//! judged against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::path::Path;

/// Runs per workload and side from which a verdict is given. The bounds in
/// `BENCHMARK.json` are calibrated for the median of this many runs; single
/// runs on a shared host differ by more than any bound (see the README).
pub const MIN_RUNS: usize = 5;

use crate::json::Json;
use crate::report::read_runs;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// No change beyond the bound, but the runs of one side spread wider than
    /// the bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }

    /// Whether the two sides differ by more than the bound.
    pub fn outside(self) -> bool {
        matches!(self, Verdict::Better | Verdict::Worse)
    }
}

/// Judges `new` against `base`. Returns the verdict and by how much `new` is
/// worse, as a share of the base median (negative when better).
pub fn judge(better: Better, bound: f64, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (b, n) = (stats::median(base), stats::median(new));
    let worse_by = match better {
        _ if b == 0.0 => 0.0,
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let spread = stats::iqr_over_median(base).max(stats::iqr_over_median(new));
    let verdict = if base.len().min(new.len()) < MIN_RUNS {
        // Too few runs to know either side's median or spread.
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

/// `ok_frac` is not a timing: any drop is worse, whatever the bound, and so
/// is a run on the new side whose outputs were wrong.
fn judge_ok_frac(base: &[f64], new: &[f64], new_incorrect: bool) -> Verdict {
    let lowest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    if new_incorrect || lowest(new) < lowest(base) {
        Verdict::Worse
    } else if lowest(new) > lowest(base) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The bound of each end-to-end metric, from the `BENCHMARK.json` the rig was
/// built beside.
pub fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let name = row.get("name").and_then(Json::as_str);
            let bound = row.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "an end_to_end entry lacks name or bound".to_string())
        })
        .collect()
}

fn of_workload<'a>(runs: &'a [Json], workload: &'a str) -> impl Iterator<Item = &'a Json> {
    runs.iter()
        .filter(move |run| run.get("workload").and_then(Json::as_str) == Some(workload))
}

/// Untraced values of `metric` on `workload`, one per run in the file.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    of_workload(runs, workload)
        .filter_map(|run| run.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How many pairings fell outside their bound in either direction, how many
/// of those got worse, and how many could not be resolved.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub outside: usize,
    pub worse: usize,
    pub unresolved: usize,
}

/// Prints the comparison, one row per (workload, end-to-end metric).
pub fn compare(base: &Path, new: &Path) -> Result<Tally, String> {
    let bounds = bounds()?;
    let (base_runs, new_runs) = (read_runs(base)?, read_runs(new)?);
    println!(
        "base = {}   new = {}   (ratio = new / base; bound = share of base the metric may worsen; verdicts need {MIN_RUNS} runs a side)",
        base.display(),
        new.display()
    );
    println!(
        "{:<20} {:<18} {:>5} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "base median", "new median", "ratio", "bound"
    );
    let mut tally = Tally::default();
    for workload in WORKLOADS {
        let new_incorrect = of_workload(&new_runs, workload.name).any(|run| {
            run.get("correct") != Some(&Json::Bool(true))
                || run.get("failed").and_then(Json::as_f64) != Some(0.0)
        });
        for metric in END_TO_END {
            let b = values(&base_runs, workload.name, metric.name);
            let n = values(&new_runs, workload.name, metric.name);
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let bound = *bounds
                .get(metric.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", metric.name))?;
            let verdict = if metric.name == "ok_frac" {
                judge_ok_frac(&b, &n, new_incorrect)
            } else {
                judge(metric.better, bound, &b, &n).0
            };
            tally.outside += usize::from(verdict.outside());
            tally.worse += usize::from(verdict == Verdict::Worse);
            tally.unresolved += usize::from(verdict == Verdict::Unresolved);
            let (bm, nm) = (stats::median(&b), stats::median(&n));
            println!(
                "{:<20} {:<18} {:>2}/{:<2} {:>14.4} {:>14.4} {:>8.4} {:>6.2}  {} ({} is better)",
                workload.name,
                metric.name,
                b.len(),
                n.len(),
                bm,
                nm,
                if bm == 0.0 { 0.0 } else { nm / bm },
                bound,
                verdict.as_str(),
                metric.better.as_str(),
            );
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `MIN_RUNS` runs around `centre`, a few per cent apart.
    fn runs(centre: f64) -> Vec<f64> {
        [0.98, 1.01, 1.0, 0.99, 1.02]
            .iter()
            .map(|f| f * centre)
            .collect()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        // Latency up 20 % against a 10 % bound: worse. Throughput up 20 %: better.
        let verdict = |better, new| judge(better, 0.1, &runs(10.0), &runs(new)).0;
        assert_eq!(verdict(Better::Lower, 12.0), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, 12.0), Verdict::Better);
        assert_eq!(verdict(Better::Higher, 8.0), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, 8.0), Verdict::Better);
        let (verdict, worse_by) = judge(Better::Lower, 0.1, &runs(10.0), &runs(10.5));
        assert_eq!(verdict, Verdict::WithinBound);
        assert!((worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn medians_are_compared_not_single_runs() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 30.0];
        let new = [10.2, 10.0, 10.1, 9.9, 10.0, 10.1, 9.95];
        assert_eq!(
            judge(Better::Lower, 0.1, &base, &new).0,
            Verdict::WithinBound
        );
    }

    #[test]
    fn too_few_runs_resolve_nothing() {
        // One run a side says nothing about either median, however far apart.
        assert_eq!(
            judge(Better::Lower, 0.1, &[10.0], &[10.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &[10.0], &[20.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &runs(10.0), &runs(10.0)[..MIN_RUNS - 1]).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let base = [8.0, 9.0, 10.0, 11.0, 12.0];
        let new = [8.5, 9.5, 10.0, 10.5, 12.5];
        assert_eq!(
            judge(Better::Lower, 0.1, &base, &new).0,
            Verdict::Unresolved
        );
        // A change beyond the bound is still reported as one.
        let slower: Vec<f64> = new.iter().map(|x| x * 1.5).collect();
        assert_eq!(judge(Better::Lower, 0.1, &base, &slower).0, Verdict::Worse);
    }

    #[test]
    fn a_zero_base_never_divides() {
        assert_eq!(
            judge(Better::Lower, 0.1, &[0.0; MIN_RUNS], &runs(5.0)).0,
            Verdict::WithinBound
        );
    }

    #[test]
    fn any_failure_is_worse_whatever_the_bound() {
        let clean = [1.0; MIN_RUNS];
        assert_eq!(judge_ok_frac(&clean, &clean, false), Verdict::WithinBound);
        // One failed operation in ten thousand, in one run of five.
        let mut one_failed = clean;
        one_failed[3] = 0.9999;
        assert_eq!(judge_ok_frac(&clean, &one_failed, false), Verdict::Worse);
        assert_eq!(judge_ok_frac(&one_failed, &clean, false), Verdict::Better);
        // An oracle mismatch on the new side, even with nothing else failing.
        assert_eq!(judge_ok_frac(&clean, &clean, true), Verdict::Worse);
    }
}
