//! # vab-benchmark — the repository's benchmark
//!
//! Five seeded workloads, each mapped to a cost centre of the evaluation
//! fleet, drive the layers only through their public functions and time
//! those calls from here. A run sets its workload up [`SETUPS`] times
//! (each set-up ends with the untimed, checked warm-up cycle 0), then runs
//! whole cycles `1, 2, …` until the requested time has passed. Cycle `k`
//! takes its inputs from `derive_seed(seed, k)`, so the same seed gives the
//! same work on every commit.
//!
//! An untraced run reports the end-to-end metrics of [`END_TO_END`]. A
//! traced run replays every cycle a second time built from finer public
//! calls under spans ([`trace`]), checks that the replay reproduces the
//! untraced output digest, and reports the per-layer metrics of
//! [`PER_LAYER`]. See `README.md` for what each metric means.

pub mod compare;
pub mod daemon;
pub mod mc;
pub mod ocean;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vab_util::json::Json;

use crate::trace::SpanRec;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Seed used when none is given, and the seed `goldens.json` pins.
pub const DEFAULT_SEED: u64 = 2023;
/// Monte Carlo threads and daemon pool workers, fixed so every machine
/// runs the same schedule.
pub const THREADS: usize = 2;
/// Timed cycles after which `peak_rss_mb` is read: a fixed amount of work,
/// so the figure does not grow with throughput (the daemon keeps a record
/// of every job it has served).
pub const RSS_CYCLES: u64 = 3;

const GOLDENS: &str = include_str!("../goldens.json");

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of an untraced run, reported by every workload.
pub const END_TO_END: &[MetricDef] =
    &[m("units_per_s", "1/s"), m("setup_s", "s"), m("peak_rss_mb", "MB")];

/// Metrics of a traced run. A layer that a workload never calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("link.encode.us", "us"),
    m("link.decode.us", "us"),
    m("link.decode.allocs", "count"),
    m("sim.trial.us", "us"),
    m("channel.realize.us", "us"),
    m("channel.realize.allocs", "count"),
    m("sim.transport.ms", "ms"),
    m("sim.transport.allocs", "count"),
    m("sim.sync_lost_frac", "ratio"),
    m("replay.bank_load.ms", "ms"),
    m("net.build.ms", "ms"),
    m("net.build.allocs", "count"),
    m("net.build.mb", "MB"),
    m("net.inventory.ms", "ms"),
    m("net.inventory.allocs", "count"),
    m("net.inventory.mb", "MB"),
    m("net.steady.ms", "ms"),
    m("net.steady.allocs", "count"),
    m("net.relayed_frac", "ratio"),
    m("svc.hit.latency_p50_ms", "ms"),
    m("svc.hit.latency_p99_ms", "ms"),
    m("svc.miss.latency_p50_ms", "ms"),
    m("svc.miss.latency_p99_ms", "ms"),
    m("svc.miss.wait_ms", "ms"),
    m("svc.execute.ms", "ms"),
    m("svc.cache_hit_ratio", "ratio"),
    m("svc.queue_full_per_job", "count"),
    m("svc.fetch_polls_per_job", "count"),
    m("bench.trace_overhead_frac", "ratio"),
    m("bench.span_coverage_frac", "ratio"),
];

/// True when `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Link-budget Monte Carlo, the engine behind most figures.
    LinkbudgetMc,
    /// Sample-level Monte Carlo on synthesized channels.
    WaveformSynth,
    /// Sample-level Monte Carlo on replayed channel banks.
    WaveformReplay,
    /// One 65,536-node ocean deployment per cycle.
    Ocean65k,
    /// The daemon under its documented callers, cold and re-run.
    DaemonBatch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::LinkbudgetMc,
        Workload::WaveformSynth,
        Workload::WaveformReplay,
        Workload::Ocean65k,
        Workload::DaemonBatch,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LinkbudgetMc => "linkbudget_mc",
            Workload::WaveformSynth => "waveform_synth",
            Workload::WaveformReplay => "waveform_replay",
            Workload::Ocean65k => "ocean_65k",
            Workload::DaemonBatch => "daemon_batch",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn setup(self, seed: u64, traced: bool) -> Result<Box<dyn Bench>, String> {
        use mc::{McBench, McKind};
        Ok(match self {
            Workload::LinkbudgetMc => Box::new(McBench::new(McKind::LinkBudget, seed)?),
            Workload::WaveformSynth => Box::new(McBench::new(McKind::Synth, seed)?),
            Workload::WaveformReplay => Box::new(McBench::new(McKind::Replay, seed)?),
            Workload::Ocean65k => Box::new(ocean::OceanBench::new(seed)),
            Workload::DaemonBatch => Box::new(daemon::DaemonBench::new(seed, traced)?),
        })
    }
}

/// What one cycle did.
#[derive(Debug)]
pub struct CycleOut {
    /// Units of work completed: trials, deployments or jobs.
    pub units: u64,
    /// Latency of each operation, ms: an operating point, a deployment, a
    /// job from submission to terminal fetch.
    pub op_ms: Vec<f64>,
    /// Operations that failed: panicked points or deployments, jobs not
    /// `done`.
    pub failed: u64,
    /// Digest over every output of the cycle.
    pub digest: u64,
    /// The outputs `goldens.json` pins for cycle 0.
    pub summary: Json,
    /// Spans of a traced cycle.
    pub spans: Vec<SpanRec>,
    /// Summed lifetime of the threads that ran a traced cycle's spans, ns:
    /// the time the spans could have covered.
    pub busy_ns: u64,
}

impl Default for CycleOut {
    fn default() -> Self {
        CycleOut {
            units: 0,
            op_ms: Vec::new(),
            failed: 0,
            digest: 0,
            summary: Json::Null,
            spans: Vec::new(),
            busy_ns: 0,
        }
    }
}

/// A workload once set up.
pub trait Bench {
    /// Runs cycle `k`, traced or not; both must produce the same digest.
    fn cycle(&mut self, k: u64, traced: bool) -> CycleOut;
    /// Checks on the warm-up cycle that hold for every seed.
    fn check_warmup(&self, warmup: &CycleOut) -> Vec<String>;
    /// Checks after the timed phase.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// This workload's per-layer metrics from the traced cycles' spans.
    fn layer_metrics(&self, spans: &[SpanRec]) -> Vec<(&'static str, f64)>;
}

/// Where the benchmark writes traces, banks and the daemon's cache.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed in the timed phase.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Sample counts and other context for the human reader.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Compares a warm-up summary with `goldens.json` when the seed is the
/// pinned one. Replay packet errors may move by one per range: the
/// replay engine's floating-point order is allowed to change.
fn golden_problem(workload: Workload, seed: u64, summary: &Json) -> Option<String> {
    let goldens = Json::parse(GOLDENS).expect("goldens.json is valid JSON");
    if goldens.u64_field("seed") != Some(seed) {
        return None;
    }
    let want = goldens.get(workload.name())?;
    let agrees = if workload == Workload::WaveformReplay {
        let packets = |v: &Json| -> Vec<f64> {
            let arr = v.get("packet_errors").and_then(Json::as_arr).unwrap_or_default();
            arr.iter().filter_map(Json::as_f64).collect()
        };
        let (w, g) = (packets(want), packets(summary));
        w.len() == g.len() && w.iter().zip(&g).all(|(a, b)| (a - b).abs() <= 1.0)
    } else {
        want == summary
    };
    (!agrees).then(|| {
        format!("cycle 0 gave {} where goldens.json has {}", summary.render(), want.render())
    })
}

/// Peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Runs `workload` for `duration` of timed cycles. `Err` means the
/// workload could not be set up at all.
pub fn run(
    workload: Workload,
    seed: u64,
    duration: Duration,
    traced: bool,
) -> Result<Report, String> {
    vab_util::threads::set_jobs(THREADS);
    let mut problems = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench: Option<Box<dyn Bench>> = None;
    let mut warm_digest = None;
    for _ in 0..SETUPS {
        drop(bench.take()); // tear the previous set-up down before timing the next
        let started = Instant::now();
        let mut b = workload.setup(seed, traced)?;
        let warmup = b.cycle(0, false);
        setup_s.push(started.elapsed().as_secs_f64());
        match warm_digest {
            None => {
                problems.extend(b.check_warmup(&warmup));
                problems.extend(golden_problem(workload, seed, &warmup.summary));
                eprintln!(
                    "cycle 0 of {} seed {seed}: {}",
                    workload.name(),
                    warmup.summary.render()
                );
                warm_digest = Some(warmup.digest);
            }
            Some(d) if d != warmup.digest => {
                problems.push("cycle 0 differs between set-ups of one seed".into());
            }
            Some(_) => {}
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    let (mut attempted, mut failed, mut units, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    let (mut op_ms, mut cycle_rates) = (Vec::new(), Vec::new());
    let (mut plain_wall, mut traced_wall, mut traced_units, mut busy_ns) =
        (0.0f64, 0.0f64, 0u64, 0u64);
    let mut spans = Vec::new();
    let mut peak_rss = None;
    let started = Instant::now();
    for k in 1.. {
        let t = Instant::now();
        let plain = bench.cycle(k, false);
        let cycle_s = t.elapsed().as_secs_f64();
        plain_wall += cycle_s;
        cycle_rates.push(plain.units as f64 / cycle_s);
        attempted += plain.op_ms.len() as u64;
        failed += plain.failed;
        units += plain.units;
        cycles += 1;
        op_ms.extend(&plain.op_ms);
        if cycles == RSS_CYCLES && !traced {
            peak_rss = Some(peak_rss_mb()?);
        }
        if traced {
            vab_obs::alloc::enable();
            let t = Instant::now();
            let mut replay = bench.cycle(k, true);
            traced_wall += t.elapsed().as_secs_f64();
            vab_obs::alloc::disable();
            attempted += replay.op_ms.len() as u64;
            failed += replay.failed;
            traced_units += replay.units;
            busy_ns += replay.busy_ns;
            if replay.digest != plain.digest && problems.len() < 8 {
                problems.push(format!("traced cycle {k} did not reproduce the untraced outputs"));
            }
            spans.append(&mut replay.spans);
        }
        if started.elapsed() >= duration {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    problems.extend(bench.finish());

    let mut notes = vec![format!(
        "{} seed {seed}: {cycles} cycles, {units} units, {} ops in {wall:.3} s; set-ups {setup_s:?} s",
        workload.name(),
        op_ms.len(),
    )];
    let metrics = if traced {
        let plain_rate = units as f64 / plain_wall;
        let traced_rate = traced_units as f64 / traced_wall;
        let mut layer = bench.layer_metrics(&spans);
        layer.push(("bench.trace_overhead_frac", 1.0 - traced_rate / plain_rate));
        layer.push(("bench.span_coverage_frac", trace::root_ns(&spans) as f64 / busy_ns as f64));
        let path = out_dir().join(format!("trace-{}-{seed}.jsonl", workload.name()));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", spans.len(), path.display()));
        PER_LAYER
            .iter()
            .map(|d| {
                let v = layer.iter().find(|(n, _)| *n == d.name).map_or(0.0, |&(_, v)| v);
                (d.name, v, d.unit)
            })
            .collect()
    } else {
        notes.push(format!(
            "op latency over n = {} ops: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            op_ms.len(),
            stats::median(&op_ms),
            stats::percentile(&op_ms, 90.0),
            stats::percentile(&op_ms, 99.0),
        ));
        // Throughput is the median over cycles, so a cycle slowed by
        // another tenant of the machine does not move it.
        let values = [
            stats::median(&cycle_rates),
            stats::median(&setup_s),
            match peak_rss {
                Some(mb) => mb,
                None => peak_rss_mb()?,
            },
        ];
        END_TO_END.iter().zip(values).map(|(d, v)| (d.name, v, d.unit)).collect()
    };
    Ok(Report { correct: problems.is_empty(), attempted, failed, metrics, problems, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_fit_the_grammar() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(d.name), "{}", d.name);
        }
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("p99 ms"));
        assert!(!valid_metric_name("a/b"));
        assert!(valid_metric_name("svc.hit.latency_p50_ms"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| (m.str_field("name").unwrap().into(), m.str_field("unit").unwrap().into()))
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter().map(|d| (d.name.into(), d.unit.into())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.str_field("name").unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fleet"), None);
    }
}
