//! `rig`: the repo's benchmark. See `README.md` beside `Cargo.toml`.

mod compare;
mod drive;
mod gen;
mod json;
mod layers;
mod report;
mod run;
mod span;
mod spec;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use run::RunOpts;
use spec::WORKLOADS;

const USAGE: &str = "\
usage:
  rig --workload <name> --seed <n> --seconds <s> --trace <0|1>
                                    one run; last stdout line is the result object
  rig all [flags]                   every workload, untraced then traced, one process each
  rig trace <workload> [flags]      the traced run (per-layer metrics, span file)
  rig layers <workload> [flags]     the traced run with 1 s per layer driver instead of 0.2 s
  rig compare <a.json> <b.json>     verdict per (workload, end-to-end metric)
  rig aa [--repeat <k>] [flags]     the untraced set k times per side on this binary, compared
  rig metrics                       the metric glossary: name, unit, direction, meaning
flags:
  --seed <n>            input seed (default 3073)
  --seconds <s>         measured window (default 10; 1 with --smoke)
  --smoke               scale factors / 10, 1 s windows, short warm-up, one set-up; asserts no bounds
  --corrupt-oracle      corrupt one expected result: the run must fail
  --repeat <k>          aa: runs per workload and side (default 5, the count the bounds are set for)
  --out <dir>           where results go (default $CARGO_TARGET_DIR/rig or target/rig)
workloads: scan_filter agg_heavy columnar_clustered churn_admission served_ingest";

/// Exit code when the run worked but its outputs were wrong or operations failed.
const EXIT_INCORRECT: u8 = 2;

struct Cli {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    /// `rig layers`: the traced run with the long layer-driver budget.
    long_layers: bool,
    smoke: bool,
    corrupt_oracle: bool,
    repeat: Option<usize>,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut cli = Cli {
        positional: Vec::new(),
        workload: None,
        seed: 3073,
        seconds: None,
        trace: false,
        long_layers: false,
        smoke: false,
        corrupt_oracle: false,
        repeat: None,
        out: target.join("rig"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => cli.seed = number(arg, value("a number")?)?,
            "--seconds" => cli.seconds = Some(number(arg, value("seconds")?)?),
            "--repeat" => cli.repeat = Some(number(arg, value("a count")?)?),
            "--trace" => cli.trace = number::<u8>(arg, value("0 or 1")?)? != 0,
            "--out" => cli.out = PathBuf::from(value("a directory")?),
            "--smoke" => cli.smoke = true,
            "--corrupt-oracle" => cli.corrupt_oracle = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if cli.seconds.is_some_and(|s| !s.is_finite() || s <= 0.0) || cli.repeat == Some(0) {
        return Err("--seconds and --repeat must be positive".to_string());
    }
    Ok(cli)
}

impl Cli {
    fn opts(&self) -> RunOpts {
        RunOpts {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.smoke { 1.0 } else { 10.0 }),
            trace: self.trace,
            long_layers: self.long_layers,
            smoke: self.smoke,
            corrupt_oracle: self.corrupt_oracle,
            out_dir: self.out.clone(),
        }
    }

    /// The flags a child process needs to repeat this invocation's settings.
    fn child_args(&self, workload: &str, trace: bool) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.opts().seconds.to_string(),
            "--trace".to_string(),
            u8::from(trace).to_string(),
            "--out".to_string(),
            self.out.display().to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_string());
        }
        if self.corrupt_oracle {
            args.push("--corrupt-oracle".to_string());
        }
        args
    }
}

/// One workload in this process. Prints the metrics for people on standard
/// error and the driver's object as the last line of standard output.
fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let spec = spec::workload(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let result = run::run(spec, cli.opts())?;
    result.write(&cli.out)?;
    eprint!("{}", report::render(&result.to_json()));
    println!("{}", result.driver_line());
    Ok(if result.correct && result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rig: {} of {} operations failed (oracle mismatches included)",
            result.failed, result.attempted
        );
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// Runs one workload in a child process (so set-up time and peak memory are
/// that workload's alone) and returns its result record.
fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the rig binary: {e}"))?;
    let status = Command::new(exe)
        .args(cli.child_args(workload, trace))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let suffix = if trace { "-trace" } else { "" };
    let file = cli.out.join(format!("result-{workload}{suffix}.json"));
    let run = report::read_runs(&file)
        .map_err(|e| format!("{workload} exited with {status} and left no result: {e}"))?
        .remove(0);
    Ok((run, status.success()))
}

/// `rig all`: every metric of every workload by name, with unit, plus the
/// oracle checks. Non-zero when any run failed or was incorrect.
fn all(cli: &Cli) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    let mut clean = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (run, ok) = run_child(cli, workload.name, trace)?;
            print!("{}", report::render(&run));
            clean &= ok;
            runs.push(run);
        }
    }
    let merged = cli.out.join("result.json");
    report::write_merged(&merged, runs)?;
    println!("wrote {}", merged.display());
    if !clean {
        println!("FAILED: at least one run had failed operations or an oracle mismatch");
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// `rig aa`: the untraced set `k` times per side on the same binary, side after
/// side; any pairing outside its bound (either way) is a failure of the
/// benchmark, not of the engine. Each side runs set by set, so a workload's
/// `k` runs are spread over the whole side and a slow phase of the host does
/// not fall on one workload alone.
fn aa(cli: &Cli) -> Result<ExitCode, String> {
    let repeat = cli
        .repeat
        .unwrap_or(if cli.smoke { 1 } else { compare::MIN_RUNS });
    let mut sides = Vec::new();
    for side in ["a", "b"] {
        let mut runs = Vec::new();
        for _ in 0..repeat {
            for workload in WORKLOADS {
                let (run, ok) = run_child(cli, workload.name, false)?;
                if !ok {
                    return Err(format!("the {} run was incorrect", workload.name));
                }
                runs.push(run);
            }
        }
        let file = cli.out.join(format!("result-aa-{side}.json"));
        report::write_merged(&file, runs)?;
        sides.push(file);
    }
    let tally = compare::compare(&sides[0], &sides[1])?;
    println!(
        "A/A: {} pairings outside their bound, {} unresolved",
        tally.outside, tally.unresolved
    );
    if repeat < compare::MIN_RUNS {
        println!(
            "A/A: {repeat} runs a side resolve nothing; the bounds are set for {}",
            compare::MIN_RUNS
        );
    }
    let passed = cli.smoke || (tally.outside == 0 && repeat >= compare::MIN_RUNS);
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(cli: &mut Cli) -> Result<ExitCode, String> {
    let positional = cli.positional.clone();
    let words: Vec<&str> = positional.iter().map(String::as_str).collect();
    match (words.as_slice(), cli.workload.clone()) {
        ([], Some(workload)) => run_one(cli, &workload),
        (["trace", workload], None) => {
            cli.trace = true;
            run_one(cli, workload)
        }
        (["layers", workload], None) => {
            cli.trace = true;
            cli.long_layers = true;
            run_one(cli, workload)
        }
        (["all"], None) => all(cli),
        (["metrics"], None) => {
            for (title, table) in [
                ("end-to-end", &spec::END_TO_END[..]),
                ("per-layer", spec::PER_LAYER),
            ] {
                println!("# {title}");
                for m in table {
                    println!("{}\t{}\t{}\t{}", m.name, m.unit, m.better.as_str(), m.note);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        (["aa"], None) => aa(cli),
        (["compare", a, b], None) => {
            let tally = compare::compare(Path::new(a), Path::new(b))?;
            Ok(if tally.worse == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|mut cli| dispatch(&mut cli)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rig: {message}");
            ExitCode::FAILURE
        }
    }
}
