//! FN1/FN2/FN3 — spatial network campaigns sharded over the `vab-svc`
//! pool.
//!
//! The figures fan lists of [`JobSpec::NetTopology`] (FN1/FN2, paper
//! tier) or [`JobSpec::NetScale`] (FN3, ocean tier) jobs out across the
//! worker pool, so per-deployment reports are computed concurrently (one
//! thread per deployment — each is internally single-threaded and
//! seed-pure) and content-address cached: re-running a figure with the
//! same config hits the cache and reproduces byte-identical CSVs.
//! `run_all --serve` layers its own figure-level cache on top, but the
//! per-deployment entries here are shared across FN1, FN2, FN3 and
//! F14-style callers that request the same `(spec, seed)`.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use vab_net::{NetworkSpec, RoutePolicy, ScaleSpec};
use vab_sim::metrics::CsvTable;
use vab_svc::job::EnvSpec;
use vab_svc::{Executor, JobSpec, JobStatus, PoolConfig, ResultCache, SubmitError, WorkerPool};
use vab_util::json::Json;
use vab_util::rng::derive_seed;

use crate::experiments::ExpConfig;

/// How long a figure waits for any single topology job before giving up.
const JOB_TIMEOUT: Duration = Duration::from_secs(600);

/// Builds the service job for one river deployment, mirroring
/// [`NetworkSpec::river`] so the pool's content address matches the spec
/// the in-process path would use.
fn net_topology_job(spec: &NetworkSpec) -> JobSpec {
    JobSpec::NetTopology {
        n_nodes: spec.n_nodes,
        x_m: spec.volume.x_m,
        y_m: spec.volume.y_m,
        standoff_m: spec.volume.standoff_m,
        env: match spec.env {
            vab_net::NetEnv::River => EnvSpec::River,
            vab_net::NetEnv::Ocean { sea_state } => EnvSpec::Ocean { sea_state },
        },
        n_pairs: spec.n_pairs,
        seed: spec.seed,
    }
}

/// Builds the service job for one ocean-scale deployment. Geometry and
/// reader count are pure functions of `n_nodes` (see
/// [`ScaleSpec::ocean`]), so the job only carries the knobs that vary.
fn net_scale_job(spec: &ScaleSpec) -> JobSpec {
    JobSpec::NetScale { n_nodes: spec.n_nodes, policy: spec.policy, seed: spec.seed }
}

/// Runs a batch of deployment jobs (`NetTopology` or `NetScale`) through
/// a worker pool backed by `cache`, returning the parsed reports in
/// submission order.
///
/// Panics if a job fails or times out — figure generation has no useful
/// partial-result story, and the determinism tests rely on all-or-nothing.
fn run_topology_jobs(jobs: Vec<JobSpec>, cache: Arc<ResultCache>) -> Vec<Json> {
    let pool = WorkerPool::start(
        PoolConfig { workers: 0, queue_cap: jobs.len().max(8), retry_after_ms: 10 },
        Executor::new(),
        cache,
    );
    let mut digests = Vec::with_capacity(jobs.len());
    for job in jobs {
        loop {
            match pool.submit(job.clone(), None) {
                Ok(outcome) => {
                    digests.push(outcome.digest);
                    break;
                }
                Err(SubmitError::QueueFull { retry_after_ms }) => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                Err(SubmitError::ShuttingDown) => panic!("pool shut down mid-submission"),
            }
        }
    }
    let mut reports = Vec::with_capacity(digests.len());
    for digest in digests {
        let (status, payload) =
            pool.wait(digest, JOB_TIMEOUT).expect("topology job timed out or was dropped");
        match status {
            JobStatus::Done { .. } => {}
            other => panic!("topology job {digest:016x} ended {}", other.label()),
        }
        let payload = payload.expect("done job must carry a payload");
        let parsed = Json::parse(&payload).expect("payload must be valid JSON");
        let report = parsed.get("report").expect("deployment payload carries a report").clone();
        reports.push(report);
    }
    pool.shutdown();
    reports
}

/// The process-global in-memory cache the public FN1/FN2 entry points
/// share, so a `run_all` invocation computes each topology at most once.
fn global_cache() -> Arc<ResultCache> {
    static CACHE: OnceLock<Arc<ResultCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(ResultCache::in_memory(256))).clone()
}

/// Node counts for FN1 at a given fidelity (`cfg.trials` is the knob the
/// rest of the registry already uses; network size plays the same role).
fn fn1_populations(cfg: &ExpConfig) -> &'static [usize] {
    if cfg.trials >= 100 {
        &[4, 8, 16, 32, 64, 128, 256]
    } else if cfg.trials >= 20 {
        &[4, 8, 16, 32, 64]
    } else {
        &[2, 4, 8]
    }
}

/// Node counts for FN2 at a given fidelity.
fn fn2_populations(cfg: &ExpConfig) -> &'static [usize] {
    if cfg.trials >= 100 {
        &[16, 64, 256]
    } else if cfg.trials >= 20 {
        &[8, 32]
    } else {
        &[4, 8]
    }
}

/// Deployment-volume scale factors FN2 sweeps (1.0 = the default
/// 60 m × 40 m box; smaller boxes pack the same nodes denser).
const FN2_SCALES: [f64; 3] = [1.0, 0.5, 0.25];

/// Node counts for FN3 at a given fidelity. All are fourth powers, so
/// the reader law `n_readers = ⌈N¼⌉²` lands exactly on `√N` and the
/// measured points sit on the theoretical scaling anchors. Quick mode
/// still reaches N = 65,536 — the ocean tier runs it in seconds — so CI
/// smokes the full claimed scale.
fn fn3_populations(cfg: &ExpConfig) -> &'static [usize] {
    if cfg.trials >= 100 {
        &[256, 1296, 4096, 20736, 65536]
    } else if cfg.trials >= 20 {
        &[256, 4096, 65536]
    } else {
        &[256, 1296, 4096]
    }
}

/// **FN1** — inventoried-node count and time-to-full-inventory vs
/// population, with an explicit cache (testing seam).
pub fn fn1_with_cache(cfg: &ExpConfig, cache: Arc<ResultCache>) -> CsvTable {
    let master = derive_seed(cfg.seed, 0xF1);
    let specs: Vec<NetworkSpec> = fn1_populations(cfg)
        .iter()
        .map(|&n| NetworkSpec::river(n, derive_seed(master, n as u64)))
        .collect();
    let jobs = specs.iter().map(net_topology_job).collect();
    let reports = run_topology_jobs(jobs, cache);

    let mut t = CsvTable::new([
        "n_nodes",
        "inventoried",
        "coverage",
        "time_to_inventory_s",
        "inventory_slots",
        "inventory_collisions",
    ]);
    for (spec, report) in specs.iter().zip(&reports) {
        let inv = report.get("inventory").expect("report carries inventory");
        let discovered = inv.get("discovered").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        t.row([
            spec.n_nodes.to_string(),
            discovered.to_string(),
            format!("{:.4}", inv.f64_field("coverage").unwrap_or(0.0)),
            format!("{:.1}", inv.f64_field("time_s").unwrap_or(0.0)),
            format!("{:.0}", inv.f64_field("slots_used").unwrap_or(0.0)),
            format!("{:.0}", inv.f64_field("collisions").unwrap_or(0.0)),
        ]);
    }
    t
}

/// **FN2** — aggregate goodput and Jain fairness vs population and
/// deployment density, with an explicit cache (testing seam).
pub fn fn2_with_cache(cfg: &ExpConfig, cache: Arc<ResultCache>) -> CsvTable {
    let master = derive_seed(cfg.seed, 0xF2);
    let mut specs = Vec::new();
    for &n in fn2_populations(cfg) {
        for (si, &scale) in FN2_SCALES.iter().enumerate() {
            let mut spec =
                NetworkSpec::river(n, derive_seed(master, (n * FN2_SCALES.len() + si) as u64));
            spec.volume = spec.volume.scaled(scale);
            specs.push(spec);
        }
    }
    let jobs = specs.iter().map(net_topology_job).collect();
    let reports = run_topology_jobs(jobs, cache);

    let mut t =
        CsvTable::new(["n_nodes", "density_per_1000m3", "aggregate_goodput_bps", "jain_fairness"]);
    for (spec, report) in specs.iter().zip(&reports) {
        let steady = report.get("steady").expect("report carries steady state");
        t.row([
            spec.n_nodes.to_string(),
            format!("{:.2}", spec.density_per_1000m3()),
            format!("{:.1}", steady.f64_field("aggregate_goodput_bps").unwrap_or(0.0)),
            format!("{:.4}", steady.f64_field("jain_fairness").unwrap_or(0.0)),
        ]);
    }
    t
}

/// **FN3** — per-node and aggregate capacity vs population at ocean
/// scale, with an explicit cache (testing seam).
///
/// Each row is one [`ScaleSpec::ocean`] deployment under the VBF relay
/// policy; `theory_sqrt_bps` is the Θ(√n) aggregate-capacity law of
/// arxiv 1103.0266 anchored at the first measured point, so the
/// simulated curve can be read directly against the asymptotic order.
/// `SCALING.md` discusses the measured slope and its finite-N
/// prefactors (guard time ∝ N¼, mean hop count growing toward the rim).
pub fn fn3_with_cache(cfg: &ExpConfig, cache: Arc<ResultCache>) -> CsvTable {
    let master = derive_seed(cfg.seed, 0xF3);
    let specs: Vec<ScaleSpec> = fn3_populations(cfg)
        .iter()
        .map(|&n| {
            let mut s = ScaleSpec::ocean(n, derive_seed(master, n as u64));
            s.policy = RoutePolicy::Vbf;
            s
        })
        .collect();
    let jobs = specs.iter().map(net_scale_job).collect();
    let reports = run_topology_jobs(jobs, cache);

    let mut t = CsvTable::new([
        "n_nodes",
        "n_readers",
        "coverage",
        "per_node_bps",
        "aggregate_bps",
        "theory_sqrt_bps",
        "mean_hops",
    ]);
    let mut anchor: Option<(f64, f64)> = None;
    for (spec, report) in specs.iter().zip(&reports) {
        let inv = report.get("inventory").expect("report carries inventory");
        let steady = report.get("steady").expect("report carries steady state");
        let agg = steady.f64_field("aggregate_capacity_bps").unwrap_or(0.0);
        let (n0, agg0) = *anchor.get_or_insert((spec.n_nodes as f64, agg));
        t.row([
            spec.n_nodes.to_string(),
            spec.n_readers.to_string(),
            format!("{:.4}", inv.f64_field("coverage").unwrap_or(0.0)),
            format!("{:.4}", steady.f64_field("mean_goodput_bps").unwrap_or(0.0)),
            format!("{:.1}", agg),
            format!("{:.1}", agg0 * (spec.n_nodes as f64 / n0).sqrt()),
            format!("{:.2}", steady.f64_field("mean_hops").unwrap_or(0.0)),
        ]);
    }
    t
}

/// **FN1** — inventoried-node count and time-to-full-inventory vs
/// population, pool-sharded over the shared in-process cache.
pub fn fn1_network_inventory(cfg: &ExpConfig) -> CsvTable {
    fn1_with_cache(cfg, global_cache())
}

/// **FN2** — aggregate goodput and Jain fairness vs population and
/// deployment density, pool-sharded over the shared in-process cache.
pub fn fn2_network_goodput(cfg: &ExpConfig) -> CsvTable {
    fn2_with_cache(cfg, global_cache())
}

/// **FN3** — per-node and aggregate capacity vs population at ocean
/// scale, pool-sharded over the shared in-process cache.
pub fn fn3_capacity_scaling(cfg: &ExpConfig) -> CsvTable {
    fn3_with_cache(cfg, global_cache())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpConfig {
        ExpConfig { trials: 4, bits: 64, seed: 2023 }
    }

    #[test]
    fn fn1_reruns_hit_the_cache_and_match() {
        let cache = Arc::new(ResultCache::in_memory(64));
        let a = fn1_with_cache(&quick(), cache.clone());
        let misses_after_first = cache.stats().misses;
        let b = fn1_with_cache(&quick(), cache.clone());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(cache.stats().misses, misses_after_first, "second run must be all hits");
    }

    #[test]
    fn fn3_reruns_hit_the_cache_and_match() {
        let cache = Arc::new(ResultCache::in_memory(64));
        let a = fn3_with_cache(&quick(), cache.clone());
        let misses_after_first = cache.stats().misses;
        let b = fn3_with_cache(&quick(), cache.clone());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(cache.stats().misses, misses_after_first, "second run must be all hits");
    }

    #[test]
    fn fn3_aggregate_capacity_tracks_the_sqrt_n_order() {
        let t = fn3_with_cache(&quick(), Arc::new(ResultCache::in_memory(64)));
        assert!(t.len() >= 3, "need at least three anchors for a slope");
        let (mut n, mut agg) = (Vec::new(), Vec::new());
        for row in 0..t.len() {
            let nodes = crate::experiments::cell_f64(&t, row, 0);
            let a = crate::experiments::cell_f64(&t, row, 4);
            assert!(a > 0.0, "aggregate capacity must be positive at N={nodes}");
            n.push(nodes.ln());
            agg.push(a.ln());
        }
        assert!(
            agg.last() > agg.first(),
            "aggregate capacity must grow with the deployment: {agg:?}"
        );
        // Least-squares slope of ln(aggregate) on ln(N). Theory says 0.5;
        // finite-N prefactors (guard time ∝ N¼, hop count growing toward
        // the rim) flatten the measured slope — SCALING.md documents the
        // ±0.2 tolerance.
        let k = n.len() as f64;
        let (mx, my) = (n.iter().sum::<f64>() / k, agg.iter().sum::<f64>() / k);
        let num: f64 = n.iter().zip(&agg).map(|(x, y)| (x - mx) * (y - my)).sum();
        let den: f64 = n.iter().map(|x| (x - mx) * (x - mx)).sum();
        let slope = num / den;
        assert!((slope - 0.5).abs() <= 0.2, "slope {slope:.3} too far from the √n order");
    }

    #[test]
    fn fn2_fairness_and_goodput_are_sane() {
        let t = fn2_with_cache(&quick(), Arc::new(ResultCache::in_memory(64)));
        assert!(!t.is_empty());
        for row in 0..t.len() {
            let jain = crate::experiments::cell_f64(&t, row, 3);
            assert!(jain > 0.0 && jain <= 1.0, "jain out of range: {jain}");
        }
    }
}
