//! `ocean_65k`: one ocean-scale deployment of 65,536 nodes per cycle, FN3's
//! dominant point.
//!
//! The untimed entry point is `run_scale_deployment`; the traced cycle
//! composes the same deployment from `ScaleNetwork::build`,
//! `run_inventory` and `run_steady_state` and must render the identical
//! report.

use std::panic::AssertUnwindSafe;
use std::time::Instant;

use vab_net::{run_scale_deployment, ScaleNetwork, ScaleReport, ScaleSpec};
use vab_util::hash::fnv1a64;
use vab_util::json::Json;
use vab_util::rng::derive_seed;

use crate::trace::{span, stats_by_name, take_spans, SpanRec};
use crate::{Bench, CycleOut};

/// Nodes per deployment.
pub const NODES: usize = 65_536;

/// The `ocean_65k` workload.
pub struct OceanBench {
    seed: u64,
    relayed_frac: Vec<f64>,
}

impl OceanBench {
    /// Nothing to prepare: every cycle derives its own deployment.
    pub fn new(seed: u64) -> OceanBench {
        OceanBench { seed, relayed_frac: Vec::new() }
    }
}

fn deploy_traced(spec: &ScaleSpec, id: u64) -> ScaleReport {
    let net = span("net.build", id, || ScaleNetwork::build(spec));
    let inventory = span("net.inventory", id, || net.run_inventory());
    let steady = span("net.steady", id, || net.run_steady_state(&inventory));
    ScaleReport { spec: spec.clone(), horizon_m: net.horizon_m, inventory, steady }
}

impl Bench for OceanBench {
    fn cycle(&mut self, k: u64, traced: bool) -> CycleOut {
        let spec = ScaleSpec::ocean(NODES, derive_seed(self.seed, k));
        let started = Instant::now();
        let report = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if traced {
                deploy_traced(&spec, k)
            } else {
                run_scale_deployment(&spec)
            }
        }));
        let elapsed = started.elapsed();
        let mut out = CycleOut { op_ms: vec![elapsed.as_secs_f64() * 1e3], ..Default::default() };
        if traced {
            out.spans = take_spans();
            out.busy_ns = elapsed.as_nanos() as u64;
        }
        match report {
            Ok(report) => {
                if traced {
                    self.relayed_frac.push(report.inventory.n_relayed() as f64 / NODES as f64);
                }
                let rendered = report.to_json().render();
                out.units = 1;
                out.digest = fnv1a64(rendered.as_bytes());
                out.summary = Json::obj([
                    ("report_fnv1a64", Json::Str(format!("{:016x}", out.digest))),
                    ("coverage", Json::Num(report.inventory.coverage())),
                ]);
            }
            Err(_) => out.failed = 1,
        }
        out
    }

    fn check_warmup(&self, warmup: &CycleOut) -> Vec<String> {
        // Relays must reach nearly everyone at the canonical density.
        match warmup.summary.f64_field("coverage") {
            Some(c) if c >= 0.95 => Vec::new(),
            Some(c) => vec![format!("deployment coverage {c} below 0.95")],
            None => vec!["the warm-up deployment failed".into()],
        }
    }

    fn layer_metrics(&self, spans: &[SpanRec]) -> Vec<(&'static str, f64)> {
        let by_name = stats_by_name(spans);
        let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
        vec![
            ("net.build.ms", get("net.build").self_ms()),
            ("net.build.allocs", get("net.build").self_allocs()),
            ("net.build.mb", get("net.build").self_mb()),
            ("net.inventory.ms", get("net.inventory").self_ms()),
            ("net.inventory.allocs", get("net.inventory").self_allocs()),
            ("net.inventory.mb", get("net.inventory").self_mb()),
            ("net.steady.ms", get("net.steady").self_ms()),
            ("net.steady.allocs", get("net.steady").self_allocs()),
            ("net.relayed_frac", crate::stats::mean(&self.relayed_frac)),
        ]
    }
}
