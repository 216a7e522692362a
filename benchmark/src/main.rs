//! `vab-benchmark` — run, trace and compare the repository benchmark.
//!
//! ```text
//! vab-benchmark run <workload> [--seed N] [--seconds S] [--record FILE]
//! vab-benchmark trace <workload> [--seed N] [--seconds S] [--record FILE]
//! vab-benchmark all [--seed N] [--seconds S] [--record FILE]
//! vab-benchmark compare <setA.jsonl> <setB.jsonl>
//! vab-benchmark calibrate <set.jsonl>...
//! vab-benchmark --workload <workload> --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` prints one `name value unit` line per end-to-end metric, `trace`
//! one per per-layer metric; both end with one JSON result line and exit
//! non-zero when a check failed or an operation failed. `--record` appends
//! the result, tagged with workload, seed and mode, to a set file for
//! `compare` and `calibrate`. `all` runs every workload untraced and then
//! traced, each in a child process. `calibrate` prints the noise record
//! the bounds are set from (`calibration.json`). The last form is the one
//! `BENCHMARK.json` drives.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use vab_benchmark::compare;
use vab_benchmark::{Workload, DEFAULT_SEED};
use vab_util::json::Json;

/// Timed seconds per run when none are given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str =
    "usage: vab-benchmark run|trace <workload> [--seed N] [--seconds S] [--record FILE]
       vab-benchmark all [--seed N] [--seconds S] [--record FILE]
       vab-benchmark compare <setA.jsonl> <setB.jsonl>
       vab-benchmark calibrate <set.jsonl>...
       vab-benchmark --workload <workload> --seed N --seconds S --trace 0|1
workloads: linkbudget_mc waveform_synth waveform_replay ocean_65k daemon_batch";

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    record: Option<PathBuf>,
    workload: Option<String>,
    trace: Option<bool>,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = Some(s);
            }
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--workload" => args.workload = Some(value()?.clone()),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or(format!("unknown workload {name:?}"))
}

fn run_one(w: Workload, traced: bool, args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let outcome = vab_benchmark::run(w, seed, Duration::from_secs_f64(seconds), traced);
    if let Some(path) = &args.record {
        // A run that could not set up is recorded too, so `compare` sees it.
        let result = match &outcome {
            Ok(report) => report.json(),
            Err(e) => Json::obj([
                ("correct", Json::Bool(false)),
                ("attempted", Json::Num(0.0)),
                ("failed", Json::Num(0.0)),
                ("metrics", Json::Obj(Vec::new())),
                ("error", Json::Str(e.clone())),
            ]),
        };
        let mut record = vec![
            ("workload".to_string(), Json::Str(w.name().into())),
            ("seed".to_string(), Json::Str(seed.to_string())),
            ("trace".to_string(), Json::Num(if traced { 1.0 } else { 0.0 })),
        ];
        record.extend(result.as_obj().expect("the result is an object").iter().cloned());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(file, "{}", Json::Obj(record).render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let report = outcome?;
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", report.json().render());
    Ok(if report.correct && report.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs every workload untraced, then traced, each as a child process.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        for mode in ["run", "trace"] {
            let mut cmd = Command::new(&exe);
            cmd.args([mode, w.name()]);
            cmd.args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()]);
            cmd.args(["--seconds", &args.seconds.unwrap_or(DEFAULT_SECONDS).to_string()]);
            if let Some(path) = &args.record {
                cmd.arg("--record").arg(path);
            }
            println!("== {mode} {}", w.name());
            let status = cmd.status().map_err(|e| format!("cannot start {mode}: {e}"))?;
            if !status.success() {
                eprintln!("{mode} {} failed: {status}", w.name());
                ok = false;
            }
        }
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn rules() -> Result<std::collections::BTreeMap<String, compare::Rule>, String> {
    compare::rules(&read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))?)
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let rules = rules()?;
    let (set_a, set_b) = (compare::parse_set(&read(a)?)?, compare::parse_set(&read(b)?)?);
    let rows = compare::compare(&set_a, &set_b, &rules);
    print!("{}", compare::render(&rows));
    let failures = compare::failures(&set_a, &set_b, &rows);
    for f in &failures {
        println!("failed: {f}");
    }
    println!("{} failure(s)", failures.len());
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let args = parse(raw)?;
    let pos: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (pos.as_slice(), &args.workload) {
        ([], Some(w)) => run_one(workload(w)?, args.trace.unwrap_or(false), &args),
        (["run", w], None) => run_one(workload(w)?, false, &args),
        (["trace", w], None) => run_one(workload(w)?, true, &args),
        (["all"], None) => run_all(&args),
        (["compare", a, b], None) => run_compare(a, b),
        (["calibrate", sets @ ..], None) if !sets.is_empty() => {
            let sets = sets
                .iter()
                .map(|p| compare::parse_set(&read(p)?))
                .collect::<Result<Vec<_>, _>>()?;
            println!("{}", compare::calibrate(&sets, &rules()?).render());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("bad arguments".into()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vab-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
