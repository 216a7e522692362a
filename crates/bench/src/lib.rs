//! # vab-bench — the evaluation harness
//!
//! One function per table/figure of the paper's evaluation (reconstructed —
//! see DESIGN.md for the abstract-only caveat). Each returns a
//! [`vab_sim::metrics::CsvTable`] whose rows are the series the paper
//! plots; `run_all` prints them and writes them to `results/<name>.csv`
//! (`run_all --only <name>` for a subset).
//!
//! Every experiment takes an [`ExpConfig`] so integration tests can run the
//! same code with reduced trial counts.

pub mod chaos;
pub mod experiments;
pub mod network;
pub mod perf;
pub mod report;
pub mod serve;

pub use experiments::ExpConfig;
