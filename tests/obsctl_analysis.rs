//! Analysis-layer integration: the committed golden fixtures (generated
//! by `examples/gen_golden_trace.rs` from a real faulted workload) must
//! round-trip through the `vab-obsctl` library — trace reconstruction,
//! anomaly detection and stage quantiles — with the planted cross-layer
//! signatures all recovered.

use std::path::Path;

use vab::obs::metrics::Snapshot;
use vab::util::json::Json;
use vab_obsctl::anomaly::{self, AnomalyConfig, AnomalyKind};
use vab_obsctl::report::trial_timelines;
use vab_obsctl::trace::Trace;

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
    let m = Snapshot::load(&fixture("golden_metrics.json")).expect("metrics parse");
    let active: Vec<_> = m.stages.iter().filter(|h| h.count > 0).collect();
    assert!(!active.is_empty(), "fixture has no stage observations");
    for h in &active {
        let (p50, p95, p99) = (
            h.percentile(0.50).expect("p50"),
            h.percentile(0.95).expect("p95"),
            h.percentile(0.99).expect("p99"),
        );
        assert!(p50 <= p95 && p95 <= p99, "{}: {p50} {p95} {p99}", h.name);
        assert!(p50 > 0.0, "{}: degenerate p50", h.name);
    }
    // The fixture predates bucket-only snapshots and still embeds
    // p50/p95/p99. Each must be exactly the bucket walk readers now use,
    // so dropping them from the writer changes no reported number.
    let text = std::fs::read_to_string(fixture("golden_metrics.json")).expect("fixture");
    let raw = Json::parse(&text).expect("fixture is JSON");
    let stages = raw.get("stages").and_then(Json::as_arr).expect("stages");
    let mut compared = 0;
    for (entry, h) in stages.iter().zip(&m.stages) {
        assert_eq!(entry.str_field("name"), Some(h.name.as_str()));
        for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let Some(embedded) = entry.f64_field(key) else { continue };
            let derived = h.percentile(q).expect("non-empty stage");
            assert_eq!(embedded.to_bits(), derived.to_bits(), "{} {key}", h.name);
            compared += 1;
        }
    }
    assert_eq!(compared, 3 * active.len(), "every active stage embeds its trio");
}
