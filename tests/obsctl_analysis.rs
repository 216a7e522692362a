//! Analysis-layer integration: the committed golden fixtures (generated
//! by `examples/gen_golden_trace.rs` from a real faulted workload) must
//! round-trip through the `vab-obsctl` library — trace reconstruction,
//! anomaly detection and stage quantiles — with the planted cross-layer
//! signatures all recovered.

use std::path::Path;

use vab_obsctl::anomaly::{self, AnomalyConfig, AnomalyKind};
use vab_obsctl::report::trial_timelines;
use vab_obsctl::trace::{MetricsDoc, Trace};

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn golden() -> Trace {
    Trace::load(&fixture("golden_trace.jsonl")).expect("golden trace parses")
}

#[test]
fn golden_trace_parses_clean_and_in_seq_order() {
    let trace = golden();
    assert!(trace.events.len() > 200, "fixture too small: {}", trace.events.len());
    assert!(!trace.truncated_tail, "committed fixture must be complete");
    assert!(trace.skipped_lines.is_empty(), "skipped: {:?}", trace.skipped_lines);
    // The JSONL sink shards its buffers, so on-disk order is arbitrary;
    // the parser must hand back seq order.
    assert!(trace.events.windows(2).all(|w| w[0].seq <= w[1].seq), "events not seq-sorted");
}

#[test]
fn golden_trace_covers_every_layer() {
    let trace = golden();
    let families = trace.family_counts();
    for family in [
        "fault.plan.fault_activated",
        "sim.campaign.deployment_done",
        "sim.session.exchange_done",
        "link.arq.retransmit",
        "mac.rate_adapt.rate_change",
        "mac.inventory.node_silent",
        "mac.inventory.reinventory",
        "harvest.pmu.brownout",
    ] {
        assert!(
            families.iter().any(|(f, n)| f == family && *n > 0),
            "fixture lacks {family}; families: {families:?}"
        );
    }
}

#[test]
fn timelines_reconstruct_the_faulted_campaign() {
    let trace = golden();
    let trials = trial_timelines(&trace);
    assert_eq!(trials.len(), 48, "one timeline per campaign deployment");
    assert!(trials.iter().all(|t| t.faulted), "every trial ran under a fault plan");
    assert!(trials.iter().all(|t| t.success.is_some()), "deployment outcomes recorded");
    let successes = trials.iter().filter(|t| t.success == Some(true)).count();
    assert!(
        (1..48).contains(&successes),
        "faulted campaign should be mixed, got {successes}/48 successes"
    );
}

#[test]
fn all_four_anomaly_classes_are_detected() {
    let trace = golden();
    let found = anomaly::scan(&trace, &AnomalyConfig::default());
    for kind in [
        AnomalyKind::BerSpike,
        AnomalyKind::RetransmitStorm,
        AnomalyKind::BrownoutCascade,
        AnomalyKind::SilenceBurst,
    ] {
        assert!(
            found.iter().any(|a| a.kind == kind),
            "generator planted a {kind:?} but the scan missed it; found: {found:?}"
        );
    }
}

#[test]
fn metrics_snapshot_quantiles_are_ordered() {
    let m = MetricsDoc::load(&fixture("golden_metrics.json")).expect("metrics parse");
    let active: Vec<_> = m.stages.iter().filter(|h| h.hist.count > 0).collect();
    assert!(!active.is_empty(), "fixture has no stage observations");
    for h in active {
        let (p50, p95, p99) = (
            h.percentile(0.50).expect("p50"),
            h.percentile(0.95).expect("p95"),
            h.percentile(0.99).expect("p99"),
        );
        assert!(p50 <= p95 && p95 <= p99, "{}: {p50} {p95} {p99}", h.hist.name);
        assert!(p50 > 0.0, "{}: degenerate p50", h.hist.name);
    }
}
