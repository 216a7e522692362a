//! # vab-obsctl — the analysis layer over `vab-obs` telemetry
//!
//! PR 2 (`vab-obs`) made every layer of the VAB stack emit JSONL event
//! traces, metrics snapshots and stage timings; this crate is what
//! *reads* them. It turns raw telemetry into decisions:
//!
//! * [`report`] — per-trial/session timeline reconstruction, event-rate
//!   tables, stage-latency percentiles and an indented stage tree of
//!   where campaign wall-time goes.
//! * [`anomaly`] — BER spikes, ARQ retransmit storms, brownout cascades
//!   and silence/re-inventory bursts, each with a ±N-event context
//!   window.
//! * [`perf`] — the `BENCH_<sha>.json` perf snapshot `run_all` writes:
//!   one type that renders and parses the file.
//! * [`gate`] — gates `BENCH_<sha>.json` perf snapshots against the
//!   committed `crates/bench/gate.json`: wall-time shares with a
//!   tolerance, so a slow channel realization or Viterbi decode cannot
//!   ship silently, and per-figure per-stage allocation counts pinned
//!   *exactly* (counts are work-derived and deterministic, so any drift
//!   is a behavior change). It is the workspace's one snapshot
//!   comparison: two runs compare as `gate --write --baseline ref.json
//!   A.json` then `gate --baseline ref.json B.json`.
//! * [`waterfall`] — reconstructs one job's cross-process span tree
//!   (client submit → wire → queue → execute → cache persist) from
//!   merged daemon+client JSONL traces, with skew-immune critical-path
//!   attribution.
//! * [`live`] — speaks the daemon's `metrics`/`watch` wire ops for
//!   `vab-obsctl tail`, and checks telemetry samples against the
//!   declarative `vab-slo/1` spec (`crates/bench/slo.json`).
//! * [`profile`] — per-stage allocation tables (self/cumulative
//!   allocs and bytes) from `VAB_PROFILE=1` metrics snapshots.
//! * [`flame`] — collapsed-stack flamegraph folding of the span tree,
//!   weighted by time or by allocations.
//!
//! Everything stays serde-free: the crate reads and writes JSON through
//! the shared `vab_util::json` parser/serializer, and analyzes only what
//! the workspace itself emitted.

pub mod anomaly;
pub mod flame;
pub mod gate;
pub mod live;
pub mod perf;
pub mod profile;
pub mod report;
pub mod trace;
pub mod waterfall;

pub use trace::{Trace, TraceEvent};
