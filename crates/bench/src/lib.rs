//! Experiment harness for the CJOIN reproduction.
//!
//! The paper's evaluation (§6) consists of four figures and three tables; this
//! crate contains the code that regenerates each of them at laptop scale:
//!
//! | experiment | paper | function |
//! |------------|-------|----------|
//! | Throughput vs. number of concurrent queries | Figure 5 | [`experiments::fig5_concurrency_scaleup`] |
//! | Predictability of Q4.2 response time vs. concurrency | Figure 6 | [`experiments::fig6_predictability`] |
//! | Submission time vs. concurrency | Table 1 | [`experiments::tab1_submission_vs_concurrency`] |
//! | Throughput vs. predicate selectivity | Figure 7 | [`experiments::fig7_selectivity`] |
//! | Submission time vs. selectivity | Table 2 | [`experiments::tab2_submission_vs_selectivity`] |
//! | Normalized throughput vs. scale factor | Figure 8 | [`experiments::fig8_data_scale`] |
//! | Submission time vs. scale factor | Table 3 | [`experiments::tab3_submission_vs_sf`] |
//! | Design ablations (early skip, worker threads) | §3–§4 design points | [`experiments::ablations`] |
//!
//! The same functions back the Criterion benches under `benches/` (with small
//! parameters) and the `experiments` binary (with paper-shaped sweeps):
//!
//! ```text
//! cargo run --release -p cjoin-bench --bin experiments -- all
//! cargo run --release -p cjoin-bench --bin experiments -- fig5 --scale 0.01 --concurrency 1,32,64,128,256
//! ```
//!
//! Performance claims are not made from this crate: the repeated-trial,
//! per-layer benchmark is the `rig/` package at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod experiments;
pub mod report;

pub use driver::{run_closed_loop, QueryTiming, RunReport};
pub use report::Table;

#[doc(no_inline)]
pub use cjoin_query::{EngineStats, JoinEngine, QueryTicket};
