//! The bench side of the service layer: the figure registry exposed as a
//! [`vab_svc::FigureRunner`], plus the `run_all --serve` path that
//! regenerates the whole evaluation fleet *through* a daemon so repeated
//! runs hit the content-addressed cache instead of recomputing physics.
//!
//! The dependency points this way on purpose: `vab-svc` knows nothing
//! about figures (it executes them through the trait object), and this
//! crate provides the registry, the daemon binary (`vab-svcd`) and the
//! client binary (`vab-svc`) on top.

use std::path::Path;
use std::sync::Arc;

use vab_svc::cache::ResultCache;
use vab_svc::client::{Client, ClientError};
use vab_svc::exec::{Executor, FigureRunner};
use vab_svc::JobSpec;

use crate::experiments::{self, ExpConfig};

/// Default location of the daemon's persistent cache tier.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// The evaluation-fleet registry as a figure runner: resolves registry
/// names (`f7_ber_vs_range`, `t2_power_budget`, …) and returns the
/// figure's CSV text.
pub struct BenchFigures;

impl FigureRunner for BenchFigures {
    fn run_figure(
        &self,
        name: &str,
        trials: usize,
        bits: usize,
        seed: u64,
    ) -> Result<String, String> {
        let (_, run) = experiments::experiment(name)?;
        let cfg = ExpConfig { trials, bits, seed };
        Ok(run(&cfg).to_csv())
    }
}

/// An executor wired to the full figure registry.
pub fn bench_executor() -> Executor {
    Executor::new().with_figures(Arc::new(BenchFigures))
}

/// Opens (creating if needed) the persistent result cache at `dir`,
/// falling back to a memory-only cache when the directory is unusable.
pub fn open_cache(dir: &Path, capacity: usize) -> Arc<ResultCache> {
    match ResultCache::persistent(capacity, dir) {
        Ok(cache) => Arc::new(cache),
        Err(e) => {
            eprintln!(
                "warning: cache dir {} unusable ({e}); falling back to in-memory cache",
                dir.display()
            );
            Arc::new(ResultCache::in_memory(capacity))
        }
    }
}

/// The figure [`JobSpec`] `run_all --serve` submits for registry entry
/// `name` under `cfg` — one canonical spec per (figure, config), so a
/// re-run with the same config is a pure cache hit.
pub fn figure_job(name: &str, cfg: &ExpConfig) -> JobSpec {
    JobSpec::Figure { name: name.to_string(), trials: cfg.trials, bits: cfg.bits, seed: cfg.seed }
}

/// Outcome of one figure served through the daemon.
pub struct ServedFigure {
    /// Registry name.
    pub name: &'static str,
    /// The figure's CSV payload.
    pub csv: String,
    /// Served from the cache rather than computed.
    pub cached: bool,
}

/// Runs the named registry figures through the daemon at `addr`: submits
/// them as a batch (with backpressure retries), then fetches each result
/// in submission order. Returns the figures in the order of `names`.
pub fn serve_all(
    addr: &str,
    cfg: &ExpConfig,
    names: &[&'static str],
) -> Result<Vec<ServedFigure>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut ids = Vec::with_capacity(names.len());
    for name in names {
        let job = figure_job(name, cfg);
        let resp =
            client.submit_with_retry(&job, None, 200).map_err(|e| format!("submit {name}: {e}"))?;
        let id = resp.str_field("id").ok_or_else(|| format!("no id for {name}"))?.to_string();
        let cached_at_submit =
            resp.str_field("status") == Some("done") && resp.bool_field("cached") == Some(true);
        ids.push((id, cached_at_submit));
    }
    let mut served = Vec::with_capacity(names.len());
    for (&name, (id, cached_at_submit)) in names.iter().zip(ids) {
        let resp = fetch_done(&mut client, &id).map_err(|e| format!("fetch {name}: {e}"))?;
        if resp.str_field("status") != Some("done") {
            return Err(format!(
                "{name} did not complete: {}",
                resp.str_field("error").unwrap_or("unknown failure")
            ));
        }
        let csv = resp
            .get("result")
            .and_then(|r| r.as_str())
            .ok_or_else(|| format!("{name}: result is not a CSV string"))?
            .to_string();
        let cached = cached_at_submit || resp.bool_field("cached") == Some(true);
        served.push(ServedFigure { name, csv, cached });
    }
    Ok(served)
}

/// Fetches until the job is terminal (the server blocks in 30 s windows;
/// figures at full config can take longer than one window).
fn fetch_done(client: &mut Client, id: &str) -> Result<vab_util::json::Json, ClientError> {
    loop {
        let resp = client.fetch_wait(id, 30_000)?;
        match resp.str_field("status") {
            Some("queued") | Some("running") => continue,
            _ => return Ok(resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_figures_runs_a_registry_entry() {
        let csv =
            BenchFigures.run_figure("t2_power_budget", 4, 64, 1).expect("registry figure runs");
        assert!(csv.lines().count() > 1, "CSV has a header and rows");
        assert!(BenchFigures.run_figure("no_such_figure", 4, 64, 1).is_err());
    }

    #[test]
    fn figure_jobs_share_an_address_per_config() {
        let cfg = ExpConfig { trials: 5, bits: 64, seed: 9 };
        assert_eq!(
            figure_job("f7_ber_vs_range", &cfg).digest(),
            figure_job("f7_ber_vs_range", &cfg).digest()
        );
        assert_ne!(
            figure_job("f7_ber_vs_range", &cfg).digest(),
            figure_job("f6_snr_vs_range", &cfg).digest()
        );
    }
}
