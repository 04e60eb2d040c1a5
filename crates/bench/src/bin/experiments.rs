//! Command-line entry point that regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <all|fig5|fig6|fig7|fig8|tab1|tab2|tab3|ablations|io> [options]
//!
//! Options:
//!   --scale <f64>          SSB scale factor              (default 0.01)
//!   --selectivity <f64>    predicate selectivity s       (default 0.01)
//!   --threads <usize>      CJOIN shard threads           (default 4)
//!   --concurrency <list>   comma-separated n values      (default 1,32,64,128,256)
//!   --markdown             print Markdown tables instead of plain text
//! ```

use std::env;
use std::process::ExitCode;

use cjoin_bench::experiments::{
    ablations, fig5_concurrency_scaleup, fig6_predictability, fig7_selectivity, fig8_data_scale,
    modelled_io_comparison, tab1_submission_vs_concurrency, tab2_submission_vs_selectivity,
    tab3_submission_vs_sf, ExperimentParams,
};
use cjoin_bench::Table;
use cjoin_common::Result;

struct Options {
    experiment: String,
    params: ExperimentParams,
    concurrency: Vec<usize>,
    markdown: bool,
}

fn parse_args() -> std::result::Result<Options, String> {
    let mut args = env::args().skip(1);
    let experiment = args.next().unwrap_or_else(|| "all".to_string());
    let mut params = ExperimentParams::default();
    let mut concurrency = vec![1, 32, 64, 128, 256];
    let mut markdown = false;

    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                params.scale_factor = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --scale: {e}"))?;
            }
            "--selectivity" => {
                params.selectivity = args
                    .next()
                    .ok_or("--selectivity needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --selectivity: {e}"))?;
            }
            "--threads" => {
                params.distributor_shards = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?;
            }
            "--concurrency" => {
                let list = args.next().ok_or("--concurrency needs a value")?;
                concurrency = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|e| format!("invalid concurrency '{s}': {e}"))
                    })
                    .collect::<std::result::Result<Vec<usize>, String>>()?;
            }
            "--markdown" => markdown = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Options {
        experiment,
        params,
        concurrency,
        markdown,
    })
}

fn print_table(table: &Table, markdown: bool) {
    if markdown {
        println!("{}", table.to_markdown());
    } else {
        println!("{table}");
    }
}

fn run(options: &Options) -> Result<Vec<Table>> {
    let p = &options.params;
    let n = &options.concurrency;
    let mid_concurrency = n.get(n.len() / 2).copied().unwrap_or(32).min(128);
    let selectivities = [0.001, 0.01, 0.10];
    let scale_factors = [p.scale_factor / 10.0, p.scale_factor / 2.0, p.scale_factor];

    let mut tables = Vec::new();
    let experiment = options.experiment.as_str();
    let want = |name: &str| experiment == "all" || experiment == name;

    if want("fig5") {
        tables.push(fig5_concurrency_scaleup(p, n)?);
    }
    if want("fig6") {
        tables.push(fig6_predictability(p, n)?);
    }
    if want("tab1") {
        tables.push(tab1_submission_vs_concurrency(p, n)?);
    }
    if want("fig7") {
        tables.push(fig7_selectivity(p, &selectivities, mid_concurrency)?);
    }
    if want("tab2") {
        tables.push(tab2_submission_vs_selectivity(
            p,
            &selectivities,
            mid_concurrency,
        )?);
    }
    if want("fig8") {
        tables.push(fig8_data_scale(p, &scale_factors, mid_concurrency)?);
    }
    if want("tab3") {
        tables.push(tab3_submission_vs_sf(p, &scale_factors, mid_concurrency)?);
    }
    if want("ablations") {
        tables.push(ablations(p, mid_concurrency)?);
    }
    if want("io") {
        tables.push(modelled_io_comparison(p, n)?);
    }
    Ok(tables)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: experiments <all|fig5|fig6|fig7|fig8|tab1|tab2|tab3|ablations|io> \
                 [--scale F] [--selectivity S] [--threads T] [--concurrency 1,32,...] [--markdown]"
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# experiment={} scale={} selectivity={} threads={} concurrency={:?}",
        options.experiment,
        options.params.scale_factor,
        options.params.selectivity,
        options.params.distributor_shards,
        options.concurrency
    );
    match run(&options) {
        Ok(tables) => {
            if tables.is_empty() {
                eprintln!("error: unknown experiment '{}'", options.experiment);
                return ExitCode::FAILURE;
            }
            for table in &tables {
                print_table(table, options.markdown);
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
