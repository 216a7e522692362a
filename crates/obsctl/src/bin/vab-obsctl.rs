//! `vab-obsctl` — trace analytics, anomaly detection and perf-regression
//! gating for VAB telemetry.
//!
//! ```text
//! vab-obsctl report     <trace.jsonl> [metrics.json]
//! vab-obsctl anomalies  <trace.jsonl> [--context N]
//! vab-obsctl gate       <BENCH_<sha>.json> [--baseline <path>] [--write]
//! vab-obsctl profile    <metrics.json> [--top N]
//! vab-obsctl flame      <trace.jsonl> [--weight time|bytes|allocs] [--job <digest>]
//! vab-obsctl tail       --addr HOST:PORT [--once] [--json]
//!                       [--interval-ms N] [--count N]
//! vab-obsctl trace      --job <digest> <trace.jsonl> [more.jsonl ...] [--set]
//! vab-obsctl slo        --spec <slo.json> (--addr HOST:PORT | --sample <file>) [--json]
//! ```
//!
//! `tail` follows a live daemon's telemetry ring (`--once` prints a
//! single on-demand sample); `trace` reconstructs one job's
//! cross-process span waterfall from any number of JSONL traces (`--set`
//! prints the canonical span set the determinism gate compares); `slo`
//! checks a live sample — or a saved one — against a `vab-slo/1` spec.
//!
//! The profiling plane: `profile` renders the per-stage allocation table
//! from a `VAB_PROFILE=1` metrics snapshot; `flame` folds the span tree
//! into collapsed stacks for any flamegraph renderer.
//!
//! `gate` checks a `run_all` perf snapshot against the committed
//! `crates/bench/gate.json`: wall-time shares when the run was traced,
//! exact per-stage allocation counts when it was profiled (see
//! [`vab_obsctl::gate`]). `--write` re-pins the planes the snapshot
//! carries and keeps the other. It is also the two-run comparison:
//! `gate A.json --write --baseline ref.json`, then `gate B.json --baseline
//! ref.json`.
//!
//! Exit codes: `0` clean, `1` regression / threshold breach, `2` usage or
//! input error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vab_obs::metrics::Snapshot;
use vab_obsctl::anomaly::{self, AnomalyConfig};
use vab_obsctl::flame::{self, Weight};
use vab_obsctl::gate::{self, Gate};
use vab_obsctl::live::{self, SloSpec};
use vab_obsctl::perf::BenchSnapshot;
use vab_obsctl::profile;
use vab_obsctl::report;
use vab_obsctl::trace::Trace;
use vab_obsctl::waterfall::Waterfall;
use vab_util::json::Json;

/// Default location of the committed perf reference, relative to the
/// repo root (where CI and `run_all` execute).
const DEFAULT_GATE: &str = "crates/bench/gate.json";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         vab-obsctl report     <trace.jsonl> [metrics.json]\n  \
         vab-obsctl anomalies  <trace.jsonl> [--context N]\n  \
         vab-obsctl gate       <BENCH.json> [--baseline <path>] [--write]\n  \
         vab-obsctl profile    <metrics.json> [--top N]\n  \
         vab-obsctl flame      <trace.jsonl> [--weight time|bytes|allocs] [--job <digest>]\n  \
         vab-obsctl tail       --addr HOST:PORT [--once] [--json] [--interval-ms N] [--count N]\n  \
         vab-obsctl trace      --job <digest> <trace.jsonl> [more.jsonl ...] [--set]\n  \
         vab-obsctl slo        --spec <slo.json> (--addr HOST:PORT | --sample <file>) [--json]"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Extracts `--flag <value>` from `args`, removing both tokens.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                return Err(format!("{flag} needs a value"));
            }
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
    }
}

/// Extracts a bare `--flag`, removing it.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let trace = Trace::load(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    if trace.truncated_tail {
        eprintln!("warning: {path}: final line truncated mid-record; skipped");
    }
    if !trace.skipped_lines.is_empty() {
        eprintln!(
            "warning: {path}: skipped {} malformed line(s): {:?}",
            trace.skipped_lines.len(),
            trace.skipped_lines
        );
    }
    if trace.events.is_empty() {
        return Err(format!("{path}: no parseable events"));
    }
    Ok(trace)
}

fn cmd_report(mut args: Vec<String>) -> ExitCode {
    if args.is_empty() || args.len() > 2 {
        return usage();
    }
    let trace = match load_trace(&args.remove(0)) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let metrics = match args.pop() {
        None => None,
        Some(path) => match Snapshot::load(Path::new(&path)) {
            Ok(m) => Some(m),
            Err(e) => return fail(&e),
        },
    };
    print!("{}", report::render(&trace, metrics.as_ref()));
    ExitCode::SUCCESS
}

fn cmd_anomalies(mut args: Vec<String>) -> ExitCode {
    let mut cfg = AnomalyConfig::default();
    match take_flag_value(&mut args, "--context") {
        Ok(Some(n)) => match n.parse() {
            Ok(n) => cfg.context = n,
            Err(_) => return fail("--context needs an integer"),
        },
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    if args.len() != 1 {
        return usage();
    }
    let trace = match load_trace(&args[0]) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let found = anomaly::scan(&trace, &cfg);
    print!("{}", anomaly::render(&trace, &found, cfg.context));
    ExitCode::SUCCESS
}

fn cmd_gate(mut args: Vec<String>) -> ExitCode {
    let gate_path = match take_flag_value(&mut args, "--baseline") {
        Ok(p) => PathBuf::from(p.as_deref().unwrap_or(DEFAULT_GATE)),
        Err(e) => return fail(&e),
    };
    let write = take_flag(&mut args, "--write");
    if args.len() != 1 {
        return usage();
    }
    let doc = match std::fs::read_to_string(&args[0])
        .map_err(|e| format!("cannot read {}: {e}", args[0]))
        .and_then(|t| BenchSnapshot::parse(&t).map_err(|e| format!("{}: {e}", args[0])))
    {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    if write {
        // Re-pin the planes this snapshot carries; a first write starts
        // from the default tolerance and noise floor.
        let mut reference = if gate_path.exists() {
            match Gate::load(&gate_path) {
                Ok(g) => g,
                Err(e) => return fail(&e),
            }
        } else {
            Gate::default()
        };
        let (timing, alloc) = match reference.refresh(&doc) {
            Ok(planes) => planes,
            Err(e) => return fail(&e),
        };
        if let Err(e) = std::fs::write(&gate_path, reference.to_json()) {
            return fail(&format!("cannot write {}: {e}", gate_path.display()));
        }
        println!(
            "gate refreshed (timing: {}, alloc: {}) from {} run {} -> {}",
            if timing { "re-pinned" } else { "kept" },
            if alloc { "re-pinned" } else { "kept" },
            doc.mode,
            doc.sha,
            gate_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let reference = match Gate::load(&gate_path) {
        Ok(g) => g,
        Err(e) => return fail(&e),
    };
    if reference.mode != doc.mode {
        eprintln!(
            "warning: gate was captured in {:?} mode but the snapshot is {:?}",
            reference.mode, doc.mode
        );
    }
    let report = match gate::check(&doc, &reference) {
        Ok(r) => r,
        Err(e) => return fail(&format!("{}: {e}", args[0])),
    };
    print!("{}", report.render());
    if report.failures() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_profile(mut args: Vec<String>) -> ExitCode {
    let top: usize = match take_flag_value(&mut args, "--top") {
        Ok(Some(v)) => match v.parse() {
            Ok(v) => v,
            Err(_) => return fail("--top needs an integer"),
        },
        Ok(None) => 0,
        Err(e) => return fail(&e),
    };
    if args.len() != 1 {
        return usage();
    }
    let doc = match Snapshot::load(Path::new(&args[0])) {
        Ok(m) => m,
        Err(e) => return fail(&e),
    };
    match profile::render(&doc, top) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_flame(mut args: Vec<String>) -> ExitCode {
    let weight = match take_flag_value(&mut args, "--weight") {
        Ok(Some(w)) => match Weight::parse(&w) {
            Ok(w) => w,
            Err(e) => return fail(&e),
        },
        Ok(None) => Weight::TimeUs,
        Err(e) => return fail(&e),
    };
    let job = match take_flag_value(&mut args, "--job") {
        Ok(Some(d)) => match u64::from_str_radix(d.trim_start_matches("0x"), 16) {
            Ok(d) => Some(d),
            Err(_) => return fail("--job needs a hex job digest"),
        },
        Ok(None) => None,
        Err(e) => return fail(&e),
    };
    if args.len() != 1 {
        return usage();
    }
    let trace = match load_trace(&args[0]) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    match flame::collapse(&trace, weight, job) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_tail(mut args: Vec<String>) -> ExitCode {
    let addr = match take_flag_value(&mut args, "--addr") {
        Ok(Some(a)) => a,
        Ok(None) => return fail("tail needs --addr HOST:PORT"),
        Err(e) => return fail(&e),
    };
    let once = take_flag(&mut args, "--once");
    let raw = take_flag(&mut args, "--json");
    let interval_ms: u64 = match take_flag_value(&mut args, "--interval-ms") {
        Ok(Some(v)) => match v.parse() {
            Ok(v) => v,
            Err(_) => return fail("--interval-ms needs an integer"),
        },
        Ok(None) => 500,
        Err(e) => return fail(&e),
    };
    let count: Option<u64> = match take_flag_value(&mut args, "--count") {
        Ok(Some(v)) => match v.parse() {
            Ok(v) => Some(v),
            Err(_) => return fail("--count needs an integer"),
        },
        Ok(None) => None,
        Err(e) => return fail(&e),
    };
    if !args.is_empty() {
        return usage();
    }
    if once {
        return match live::fetch_sample(&addr) {
            Ok(sample) => {
                if raw {
                    println!("{}", sample.render());
                } else {
                    println!("{}", live::render_sample(None, &sample));
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }
    // Follow mode: long-poll the ring. `since` starts at 0 so the
    // watcher first replays the retained backlog, then tracks new ticks.
    let mut since = 0u64;
    let mut prev: Option<Json> = None;
    let mut printed = 0u64;
    loop {
        let (latest, samples) = match live::fetch_watch(&addr, since) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        since = latest.max(since);
        for sample in samples {
            if raw {
                println!("{}", sample.render());
            } else {
                println!("{}", live::render_sample(prev.as_ref(), &sample));
            }
            prev = Some(sample);
            printed += 1;
            if let Some(n) = count {
                if printed >= n {
                    return ExitCode::SUCCESS;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn cmd_trace(mut args: Vec<String>) -> ExitCode {
    let digest = match take_flag_value(&mut args, "--job") {
        Ok(Some(d)) => match u64::from_str_radix(d.trim_start_matches("0x"), 16) {
            Ok(d) => d,
            Err(_) => return fail("--job needs a hex job digest"),
        },
        Ok(None) => return fail("trace needs --job <digest>"),
        Err(e) => return fail(&e),
    };
    let set_only = take_flag(&mut args, "--set");
    if args.is_empty() {
        return fail("trace needs at least one trace.jsonl");
    }
    // Label each input by file name (distinct labels are required for a
    // deterministic merge; fall back to the full path on collision).
    let mut parts: Vec<(String, Trace)> = Vec::new();
    for path in &args {
        let trace = match load_trace(path) {
            Ok(t) => t,
            Err(e) => return fail(&e),
        };
        let base = Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        let label = if parts.iter().any(|(l, _)| *l == base) { path.clone() } else { base };
        parts.push((label, trace));
    }
    let merged = Trace::merge(parts.iter().map(|(l, t)| (l.as_str(), t.clone())));
    let waterfall = Waterfall::from_trace(&merged, digest);
    if waterfall.spans.is_empty() {
        return fail(&format!("no spans found for trace {digest:016x}"));
    }
    if set_only {
        for line in waterfall.canonical_set() {
            println!("{line}");
        }
    } else {
        print!("{}", waterfall.render());
    }
    ExitCode::SUCCESS
}

fn cmd_slo(mut args: Vec<String>) -> ExitCode {
    let spec_path = match take_flag_value(&mut args, "--spec") {
        Ok(Some(p)) => p,
        Ok(None) => return fail("slo needs --spec <slo.json>"),
        Err(e) => return fail(&e),
    };
    let json = take_flag(&mut args, "--json");
    let addr = match take_flag_value(&mut args, "--addr") {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let sample_path = match take_flag_value(&mut args, "--sample") {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if !args.is_empty() || (addr.is_some() == sample_path.is_some()) {
        return fail("slo needs exactly one of --addr or --sample");
    }
    let spec = match SloSpec::load(Path::new(&spec_path)) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let sample = if let Some(addr) = addr {
        match live::fetch_sample(&addr) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        }
    } else {
        let path = sample_path.expect("checked above");
        match std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|t| Json::parse(t.trim()).map_err(|e| format!("{path}: {e}")))
        {
            Ok(s) => s,
            Err(e) => return fail(&e),
        }
    };
    let checks = live::check(&spec, &sample);
    let (text, breaches) =
        if json { live::render_checks_json(&checks) } else { live::render_checks(&checks) };
    print!("{text}");
    if breaches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let cmd = argv.remove(0);
    match cmd.as_str() {
        "report" => cmd_report(argv),
        "anomalies" => cmd_anomalies(argv),
        "gate" => cmd_gate(argv),
        "profile" => cmd_profile(argv),
        "flame" => cmd_flame(argv),
        "tail" => cmd_tail(argv),
        "trace" => cmd_trace(argv),
        "slo" => cmd_slo(argv),
        _ => usage(),
    }
}
