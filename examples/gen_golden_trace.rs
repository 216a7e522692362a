//! Regenerates the committed golden telemetry fixtures under
//! `tests/fixtures/` — the compact cross-layer trace and metrics
//! snapshots that the `vab-obsctl` round-trip tests analyze.
//!
//! The workload is deliberately small but touches every event family the
//! analyzer cares about: a faulted Monte-Carlo campaign (deployments,
//! fault activations, stage timers), a waveform-level reader↔node
//! exchange (session events), an ARQ retransmit storm, BER-spike rate
//! fallbacks, a silence burst with re-inventory, and a brownout cascade.
//!
//! ```text
//! cargo run --release --example gen_golden_trace [out_dir]
//! ```
//!
//! Writes `golden_trace.jsonl` and `golden_metrics.json`.

use std::sync::Arc;

use vab::fault::FaultConfig;
use vab::harvest::budget::NodeMode;
use vab::harvest::pmu::Pmu;
use vab::link::arq::ArqSender;
use vab::link::frame::Frame;
use vab::mac::inventory::{reinventory, SilenceMonitor};
use vab::mac::rate_adapt::RateController;
use vab::node::array::VanAttaArray;
use vab::node::commands::Command;
use vab::node::node::{Node, NodeConfig};
use vab::obs::sink::JsonlSink;
use vab::sim::baseline::SystemKind;
use vab::sim::campaign::{run_campaign, CampaignConfig};
use vab::sim::scenario::Scenario;
use vab::sim::session::run_exchange;
use vab::util::rng::seeded;
use vab::util::units::{Hertz, Meters, Seconds, Watts};

const READER: u8 = 0x00;
const NODE: u8 = 0x42;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "tests/fixtures".into());
    let out = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(out).expect("create fixture dir");

    vab::obs::metrics::reset();
    let trace_path = out.join("golden_trace.jsonl");
    vab::obs::install(Arc::new(JsonlSink::create(&trace_path).expect("jsonl sink")));

    // 1. Faulted campaign: deployment outcomes, fault activations,
    //    Monte-Carlo losses and the per-stage timers underneath.
    let campaign = CampaignConfig {
        n_trials: 48,
        faults: Some(FaultConfig::with_intensity(0.6)),
        ..CampaignConfig::vab_default()
    };
    let report = run_campaign(&campaign);
    println!("campaign: {} deployments simulated", report.records.len());

    // 2. One waveform-level exchange for the session timeline.
    let mut node = Node::new(NodeConfig::new(NODE), VanAttaArray::vab_default(4, Hertz(18_500.0)));
    node.force_powered();
    node.queue_reading(vec![0x17, 0x2A]);
    let mut rng = seeded(2023);
    let scenario = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(100.0));
    let query = Frame::new(NODE, READER, 0, Command::Query.to_payload());
    let exch = run_exchange(&scenario, &mut node, &query, &mut rng);
    println!("session: downlink_ok={} uplink={}", exch.downlink_ok, exch.uplink_frame.is_ok());

    // 3. ARQ retransmit storm: one payload, corrupted ACKs, every timeout
    //    burns a retry until the sender drops the frame.
    let mut arq = ArqSender::new(8);
    arq.offer(vec![0xAB; 4]).expect("arq idle");
    for _ in 0..=8 {
        arq.on_corrupt_ack();
        arq.on_timeout();
    }

    // 4. Rate adaptation: climb on successes, then repeated BER spikes
    //    knock the node back down one rate at a time.
    let mut rc = RateController::with_policy(1, 1);
    for _ in 0..3 {
        rc.on_outcome(u32::from(NODE), true);
    }
    for _ in 0..3 {
        rc.on_ber_sample(u32::from(NODE), 0.5);
    }

    // 5. Silence burst + re-inventory: five nodes go quiet back-to-back,
    //    then the reader re-discovers the two still reachable.
    let mut silence = SilenceMonitor::new(2);
    for addr in 1..=5u8 {
        silence.on_poll(u32::from(addr), false);
        silence.on_poll(u32::from(addr), false);
    }
    let mut inv_rng = seeded(7);
    let report = reinventory(&[6, 7], &[1, 2], 4, 8, Seconds(0.5), Seconds(0.05), &mut inv_rng);
    println!("reinventory: {} nodes scheduled", report.discovered.len());

    // 6. Brownout cascade: charge the cap past wake, then starve it, six
    //    times over.
    let mut pmu = Pmu::vab_default();
    for _ in 0..6 {
        while !pmu.is_active() {
            pmu.step(Watts(5e-3), NodeMode::Sleep, Seconds(0.05));
        }
        while pmu.is_active() {
            pmu.step(Watts(0.0), NodeMode::Backscatter, Seconds(0.05));
        }
    }

    vab::obs::flush();
    vab::obs::disable();

    let snap = vab::obs::metrics::Snapshot::capture();
    snap.write_json(&out.join("golden_metrics.json")).expect("write golden metrics");

    let lines = std::fs::read_to_string(&trace_path).expect("trace").lines().count();
    println!("wrote {} ({lines} events) + metrics snapshot to {}", trace_path.display(), out_dir);
}
