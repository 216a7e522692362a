//! Regenerates the tables and figures of the evaluation, writing CSVs to
//! `results/` and printing each table. This is the one entry point for
//! every experiment in the registry:
//!
//! ```text
//! cargo run --release -p vab-bench --bin run_all          # full fidelity
//! cargo run --release -p vab-bench --bin run_all -- --quick
//! cargo run --release -p vab-bench --bin run_all -- --quick --only f7_ber_vs_range
//! VAB_OBS=jsonl cargo run --release -p vab-bench --bin run_all -- --quick
//! ```
//!
//! With `VAB_OBS=stderr|jsonl` each figure also reports its per-stage
//! wall-clock breakdown, and the run ends with a metrics snapshot in
//! `results/metrics.json` plus (for `jsonl`) a trace at
//! `results/trace.jsonl`.

fn main() {
    vab_bench::report::run_all_main();
}
