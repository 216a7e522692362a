//! The `run_all` harness: regenerates registry experiments into
//! `results/<name>.csv` with the observability plumbing around them.
//!
//! On top of the tables it adds:
//!
//! - a config line (trial/bit/seed config, the observability mode resolved
//!   from `VAB_OBS`, and whether `VAB_PROFILE` allocation profiling is on),
//! - elapsed wall-clock per figure on stderr,
//! - when observability is on: a per-stage time breakdown, a metrics
//!   snapshot written to `results/metrics.json`, and a flushed trace,
//! - a machine-readable `BENCH_<sha>.json` perf snapshot keyed by registry
//!   name, the input of `vab-obsctl gate`.
//!
//! Usage: `--quick` for reduced trial counts, `--only <name>[,<name>…]` to
//! run a subset of the registry by name, `--jobs <n>` for the worker
//! count, `--json <path>` to override where the perf snapshot lands
//! (default `results/BENCH_<sha>.json`), `--serve <addr>` to go through a
//! `vab-svcd` daemon. Any other argument is a usage error (exit 2).

use std::path::{Path, PathBuf};
use std::time::Instant;

use vab_obs::metrics::Snapshot;
use vab_obs::ObsMode;
use vab_obsctl::perf::BenchSnapshot;

use crate::experiments::{self, ExpConfig, ExperimentFn};

const USAGE: &str = "usage: run_all [--quick] [--only <name>[,<name>...]] [--jobs <n>] \
                     [--json <path>] [--serve <addr>]";

/// Parsed `run_all` command line.
struct Args {
    quick: bool,
    jobs: Option<usize>,
    json: Option<String>,
    /// `--serve <addr>`: go through a `vab-svcd` daemon.
    serve: Option<String>,
    /// The registry entries to run, in order: the `--only` list, or the
    /// whole registry.
    figures: Vec<(&'static str, ExperimentFn)>,
}

/// Parses `argv` (without the program name). Every argument must be a
/// known flag; a value flag with no following value (or one followed by
/// another option) is an error, as is an unknown `--only` name.
fn try_parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        jobs: None,
        json: None,
        serve: None,
        figures: experiments::all_experiments_lazy(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || match it.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} needs a value")),
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--json" => args.json = Some(value()?),
            "--serve" => args.serve = Some(value()?),
            "--jobs" => {
                let n = value()?;
                args.jobs =
                    Some(n.parse().map_err(|_| format!("--jobs wants a count, got {n:?}"))?);
            }
            "--only" => {
                args.figures =
                    value()?.split(',').map(experiments::experiment).collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match try_parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn init_obs() -> ObsMode {
    match vab_obs::init_from_env() {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("warning: VAB_OBS sink unavailable ({e}); observability disabled");
            vab_obs::disable();
            ObsMode::Off
        }
    }
}

/// True when either plane records: events/timers (`VAB_OBS`) or the
/// allocation profile (`VAB_PROFILE`). Snapshots are worth capturing in
/// both cases.
fn recording() -> bool {
    vab_obs::enabled() || vab_obs::alloc::profiling()
}

/// Writes the perf snapshot to `override_path` or its default location,
/// reporting (but not dying on) IO errors.
fn write_perf(perf: &BenchSnapshot, override_path: Option<&str>) {
    let path = override_path.map(PathBuf::from).unwrap_or_else(|| perf.default_path());
    match perf.write(&path) {
        Ok(()) => eprintln!("perf snapshot: {}", path.display()),
        Err(e) => eprintln!("warning: could not write perf snapshot {}: {e}", path.display()),
    }
}

/// End-of-run observability epilogue: stage breakdown, allocation
/// profile, metrics snapshot, trace flush. A no-op when both the event
/// plane and allocation profiling are off.
fn finish(mode: &ObsMode) {
    if !recording() {
        return;
    }
    let snap = Snapshot::capture();
    if let Some(summary) = snap.stage_summary() {
        eprint!("{summary}");
    }
    // The same offender table as `vab-obsctl profile --top 15`.
    if let Ok(table) = vab_obsctl::profile::render(&snap, 15) {
        eprint!("{table}");
    }
    let path = Path::new("results/metrics.json");
    match snap.write_json(path) {
        Ok(()) => eprintln!("metrics snapshot: {}", path.display()),
        Err(e) => eprintln!("warning: could not write metrics snapshot: {e}"),
    }
    if vab_obs::enabled() {
        vab_obs::flush();
        if let ObsMode::Jsonl(p) = mode {
            eprintln!("trace: {}", p.display());
        }
    }
}

/// Per-stage difference between two snapshots: what ran *between* them.
/// Only stages that recorded new observations survive; counters, gauges
/// and general histograms are dropped (the delta is for stage timing and
/// per-stage allocation attribution).
fn stage_delta(before: &Snapshot, after: &Snapshot) -> Snapshot {
    let mut delta = Snapshot::default();
    for h in &after.stages {
        let prev = before.stages.iter().find(|p| p.name == h.name);
        let (p_count, p_sum) = prev.map_or((0, 0.0), |p| (p.count, p.sum));
        if h.count <= p_count {
            continue;
        }
        let mut d = h.clone();
        d.count = h.count - p_count;
        d.sum = h.sum - p_sum;
        if let Some(p) = prev {
            for (b, pb) in d.buckets.iter_mut().zip(&p.buckets) {
                *b = b.saturating_sub(*pb);
            }
        }
        delta.stages.push(d);
    }
    for a in &after.alloc_stages {
        let prev = before.alloc_stages.iter().find(|p| p.name == a.name);
        let mut d = a.clone();
        if let Some(p) = prev {
            d.calls = a.calls.saturating_sub(p.calls);
            d.self_allocs = a.self_allocs.saturating_sub(p.self_allocs);
            d.self_bytes = a.self_bytes.saturating_sub(p.self_bytes);
            d.cum_allocs = a.cum_allocs.saturating_sub(p.cum_allocs);
            d.cum_bytes = a.cum_bytes.saturating_sub(p.cum_bytes);
        }
        if d.calls > 0 || d.cum_allocs > 0 {
            delta.alloc_stages.push(d);
        }
    }
    delta
}

/// The `run_all` entry point: regenerates the selected tables and figures
/// (the whole registry by default) into `results/`, with a per-figure
/// stage-time breakdown when observability is on, and a final
/// `results/metrics.json` snapshot.
pub fn run_all_main() {
    let args = parse_args();
    if let Some(n) = args.jobs {
        vab_util::threads::set_jobs(n);
    }
    let cfg = if args.quick { ExpConfig::quick() } else { ExpConfig::full() };
    let mode = init_obs();
    let profiling = vab_obs::alloc::init_from_env();
    let out_dir = Path::new("results");
    std::fs::create_dir_all(out_dir).expect("create results/");
    if let Some(addr) = &args.serve {
        let names: Vec<&'static str> = args.figures.iter().map(|(n, _)| *n).collect();
        run_all_served(addr, &cfg, &names, out_dir, &mode);
        return;
    }
    let started = Instant::now();
    eprintln!(
        "run_all: {} (trials={}, bits={}, seed={})  obs={}  profile={}",
        if args.quick { "quick" } else { "full" },
        cfg.trials,
        cfg.bits,
        cfg.seed,
        mode.label(),
        if profiling { "on" } else { "off" }
    );
    let mut perf = crate::perf::snapshot(&cfg, args.quick);
    for &(name, run) in &args.figures {
        let before = recording().then(Snapshot::capture);
        let fig_started = Instant::now();
        let table = run(&cfg);
        let fig_elapsed = fig_started.elapsed();
        println!("==== {name} ====");
        print!("{}", table.to_pretty());
        println!();
        let path = out_dir.join(format!("{name}.csv"));
        table.write_csv(&path).expect("write CSV");
        eprintln!("[{name}] completed in {fig_elapsed:.2?}");
        let delta = match before {
            Some(before) => stage_delta(&before, &Snapshot::capture()),
            None => Snapshot::default(),
        };
        if let Some(summary) = delta.stage_summary() {
            eprint!("{summary}");
        }
        perf.push_figure(name, fig_elapsed.as_secs_f64(), table.len(), &delta);
    }
    eprintln!(
        "{} experiment(s) regenerated into results/ in {:.1?}",
        args.figures.len(),
        started.elapsed()
    );
    write_perf(&perf, args.json.as_deref());
    finish(&mode);
}

/// `run_all --serve <addr>`: regenerate the selected figures *through* a
/// `vab-svcd` daemon. Identical re-runs are cache hits — the second
/// invocation with the same config re-materializes every CSV without
/// recomputing physics.
fn run_all_served(
    addr: &str,
    cfg: &ExpConfig,
    names: &[&'static str],
    out_dir: &Path,
    mode: &ObsMode,
) {
    let started = Instant::now();
    eprintln!(
        "run_all: serving through {addr} (trials={}, bits={}, seed={})",
        cfg.trials, cfg.bits, cfg.seed
    );
    let figures = match crate::serve::serve_all(addr, cfg, names) {
        Ok(figures) => figures,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut cached = 0usize;
    let total = figures.len();
    for fig in figures {
        std::fs::write(out_dir.join(format!("{}.csv", fig.name)), &fig.csv).expect("write CSV");
        eprintln!("[{}] {}", fig.name, if fig.cached { "cache hit" } else { "computed" });
        cached += fig.cached as usize;
    }
    eprintln!(
        "all {total} experiments served into results/ in {:.1?} ({cached} cache hits)",
        started.elapsed()
    );
    finish(mode);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        try_parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn names(args: &Args) -> Vec<&'static str> {
        args.figures.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn defaults_run_the_whole_registry() {
        let args = parse(&[]).expect("no arguments is valid");
        assert!(!args.quick && args.jobs.is_none() && args.json.is_none());
        assert_eq!(args.figures.len(), experiments::all_experiments_lazy().len());
        let args = parse(&["--quick", "--jobs", "8", "--json", "p.json"]).expect("known flags");
        assert!(args.quick);
        assert_eq!(args.jobs, Some(8));
        assert_eq!(args.json.as_deref(), Some("p.json"));
    }

    #[test]
    fn only_selects_registry_entries_in_the_order_given() {
        let args = parse(&["--only", "fr1_replay_validation,t2_power_budget", "--quick"])
            .expect("valid selection");
        assert_eq!(names(&args), ["fr1_replay_validation", "t2_power_budget"]);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for bad in [&["--quik"][..], &["--csv", "x.csv"][..], &["f7_ber_vs_range"][..]] {
            let err = parse(bad).err().unwrap_or_else(|| panic!("{bad:?} must be rejected"));
            assert!(err.contains("unknown argument"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn unknown_only_name_lists_the_valid_names() {
        let err = parse(&["--only", "f7_ber_vs_range,fig_ber_vs_range"]).err().expect("rejected");
        assert!(err.contains("\"fig_ber_vs_range\""), "{err}");
        assert!(err.contains("fn3_capacity_scaling"), "valid names listed: {err}");
    }

    #[test]
    fn value_flags_need_a_value() {
        for bad in [&["--only"][..], &["--only", "--quick"][..], &["--json"][..], &["--jobs"][..]] {
            let err = parse(bad).err().unwrap_or_else(|| panic!("{bad:?} must be rejected"));
            assert!(err.contains("needs a value"), "{bad:?}: {err}");
        }
        assert!(parse(&["--jobs", "many"]).is_err());
    }
}
