//! A complete reader↔node session at the waveform level.
//!
//! Everything a deployment actually does, with no shortcuts on either leg:
//!
//! 1. the reader PIE-keys a command frame onto its carrier;
//! 2. the envelope crosses the water (multipath included) and the node's
//!    µW envelope detector slices and decodes it;
//! 3. the node state machine reacts; a `Query` makes it backscatter its
//!    coded reply on the modulation switch;
//! 4. the retro round trip, carrier leak and noise land at the reader,
//!    whose synchronizer/demodulator/decoder recover the frame.
//!
//! This is the path the `full_session` example and the deepest integration
//! tests drive.

use crate::chansource::SyntheticSource;
use crate::samplelevel::{decode_uplink, transport_uplink_via};
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use vab_acoustics::channel::ChannelModel;
use vab_core::node::{Node, NodeEvent};
use vab_fault::TrialFaults;
use vab_link::bits::bytes_to_bits;
use vab_link::frame::{Frame, FrameError};
use vab_phy::downlink::{pie_encode, PieParams};
use vab_util::complex::C64;
use vab_util::rng::complex_gaussian;

/// Everything that happened in one query/reply exchange.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Did the node's envelope detector decode the downlink command?
    pub downlink_ok: bool,
    /// What the node did.
    pub node_event_kind: &'static str,
    /// The reply frame recovered at the reader, if any.
    pub uplink_frame: Result<Frame, SessionError>,
}

/// Why an exchange produced no uplink frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The node never decoded the command (downlink lost).
    DownlinkLost,
    /// The node had nothing to say (not a query, or node not listening).
    NoReply,
    /// The reader's synchronizer never locked on the backscatter.
    SyncLost,
    /// The frame decoded but failed CRC/length checks.
    Frame(FrameError),
}

/// Runs one full exchange: `command` from the reader to `node` and back.
///
/// The downlink leg runs at the PIE envelope rate through the real channel;
/// the uplink leg reuses the sample-level backscatter transport. Both legs
/// add noise at the scenario's effective noise floor.
pub fn run_exchange(
    scenario: &Scenario,
    node: &mut Node,
    command: &Frame,
    rng: &mut StdRng,
) -> SessionOutcome {
    run_exchange_faulted(scenario, node, command, &TrialFaults::nominal(), rng)
}

/// [`run_exchange`] under injected faults:
///
/// * element faults rebuild the node's front end with the failed/stuck
///   switches applied (a dead pair stops contributing to the retro beam);
/// * resonance drift (`depth_scale`) and channel impairments (burst duty,
///   bubble fade) scale the modulated reflection amplitude;
/// * a surface-motion dropout suppresses the uplink entirely — the reader's
///   synchronizer never locks.
///
/// Protocol faults (corrupted ACKs, reader restarts) are *not* consumed
/// here: they live above the waveform exchange, in the caller's ARQ/MAC
/// loop.
fn run_exchange_faulted(
    scenario: &Scenario,
    node: &mut Node,
    command: &Frame,
    faults: &TrialFaults,
    rng: &mut StdRng,
) -> SessionOutcome {
    let _span = vab_obs::Span::enter("sim.session", "exchange");
    let pie = PieParams::vab_default();
    let base = scenario.front_end();
    let fe = base.with_element_faults(&faults.elements, scenario.carrier()).unwrap_or(base);
    let amp_scale =
        faults.depth_scale.max(0.0) * 10f64.powf(-faults.channel.extra_loss_db() / 20.0);

    // --- Downlink leg.
    let env = pie_encode(&bytes_to_bits(&command.to_bytes()), &pie);
    let source_amp = 10f64.powf(scenario.reader.source_level_db / 20.0);
    let tx: Vec<C64> = env.iter().map(|&e| C64::real(source_amp * e)).collect();
    let ch = ChannelModel::new(
        scenario.env.clone(),
        scenario.reader_pos,
        scenario.node_pos,
        scenario.carrier(),
    );
    let ir = ch.impulse_response(pie.fs, rng);
    // Ambient noise at the node (the node has no carrier leak problem —
    // the carrier IS its power and its signal).
    let ambient_sigma =
        (10f64.powf(scenario.env.noise_psd(scenario.carrier()).value() / 10.0) * pie.fs).sqrt();
    let incident: Vec<C64> = ir
        .apply_baseband(&tx)
        .into_iter()
        .map(|v| v + complex_gaussian(rng, ambient_sigma))
        .collect();
    let event = node.handle_downlink_waveform(&incident, &pie);
    let (downlink_ok, kind) = match &event {
        NodeEvent::Reply { .. } => (true, "reply"),
        NodeEvent::SlotAssigned(_) => (true, "slot_assigned"),
        // `None` is ambiguous (lost downlink vs. ignored command); the
        // caller knows which command it sent.
        NodeEvent::None => (false, "none"),
    };

    // --- Uplink leg, if the node replied.
    let uplink_frame = match event {
        NodeEvent::Reply { .. } if faults.channel.dropout => Err(SessionError::SyncLost),
        NodeEvent::Reply { channel_bits, .. } => {
            match transport_uplink_via(
                scenario,
                &fe,
                &channel_bits,
                amp_scale,
                &SyntheticSource,
                rng,
            ) {
                None => Err(SessionError::SyncLost),
                Some(up) => {
                    let bits = decode_uplink(&node.config.link, &up);
                    let bytes = vab_link::bits::bits_to_bytes(&bits);
                    Frame::from_bytes(&bytes).map_err(SessionError::Frame)
                }
            }
        }
        _ if !downlink_ok => Err(SessionError::DownlinkLost),
        _ => Err(SessionError::NoReply),
    };
    if matches!(node.state(), vab_core::node::NodeState::Replying) {
        node.reply_done();
    }
    vab_obs::event!(
        "sim.session",
        "exchange_done",
        downlink_ok = downlink_ok,
        node_event = kind,
        uplink_ok = uplink_frame.is_ok(),
    );
    SessionOutcome { downlink_ok, node_event_kind: kind, uplink_frame }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::SystemKind;
    use vab_core::array::VanAttaArray;
    use vab_core::commands::Command;
    use vab_core::node::NodeConfig;
    use vab_util::rng::seeded;
    use vab_util::units::{Hertz, Meters};

    fn node_at(addr: u8) -> Node {
        let mut n = Node::new(NodeConfig::new(addr), VanAttaArray::vab_default(4, Hertz(18_500.0)));
        n.force_powered();
        n
    }

    #[test]
    fn full_waveform_exchange_at_100m() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(100.0));
        let mut node = node_at(0x31);
        node.queue_reading(vec![0xCA, 0xFE]);
        let query = Frame::new(0x31, 0x00, 0, Command::Query.to_payload());
        let mut rng = seeded(501);
        let out = run_exchange(&s, &mut node, &query, &mut rng);
        assert!(out.downlink_ok, "downlink lost at 100 m");
        let frame = out.uplink_frame.expect("uplink decodes");
        assert_eq!(frame.payload, vec![0xCA, 0xFE]);
        assert_eq!(frame.src, 0x31);
        assert_eq!(frame.dest, 0x00);
    }

    #[test]
    fn exchange_at_the_headline_range() {
        // 300 m: the downlink PIE (huge SNR — it rides the full carrier) and
        // the coded uplink must both survive.
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(300.0));
        let mut node = node_at(0x32);
        node.queue_reading(vec![7; 8]);
        let query = Frame::new(0x32, 0x00, 0, Command::Query.to_payload());
        let mut rng = seeded(502);
        let out = run_exchange(&s, &mut node, &query, &mut rng);
        assert!(out.downlink_ok);
        let frame = out.uplink_frame.expect("uplink decodes at 300 m");
        assert_eq!(frame.payload, vec![7; 8]);
    }

    #[test]
    fn wrong_address_yields_no_reply() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(80.0));
        let mut node = node_at(0x31);
        let query = Frame::new(0x77, 0x00, 0, Command::Query.to_payload());
        let mut rng = seeded(503);
        let out = run_exchange(&s, &mut node, &query, &mut rng);
        // The waveform decoded fine but the command was not for this node.
        assert!(!out.downlink_ok);
        assert_eq!(out.uplink_frame, Err(SessionError::DownlinkLost));
    }

    #[test]
    fn dropout_fault_loses_the_uplink() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(100.0));
        let mut node = node_at(0x31);
        node.queue_reading(vec![0xAB]);
        let query = Frame::new(0x31, 0x00, 0, Command::Query.to_payload());
        let mut faults = TrialFaults::nominal();
        faults.channel.dropout = true;
        let mut rng = seeded(501); // known-good downlink seed at 100 m
        let out = run_exchange_faulted(&s, &mut node, &query, &faults, &mut rng);
        assert!(out.downlink_ok, "dropout hits the uplink leg only");
        assert_eq!(out.uplink_frame, Err(SessionError::SyncLost));
    }

    #[test]
    fn deep_fade_fault_breaks_a_marginal_exchange() {
        // 300 m works nominally (see exchange_at_the_headline_range); a
        // 25 dB bubble-cloud fade must take it down.
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(300.0));
        let mut node = node_at(0x32);
        node.queue_reading(vec![7; 8]);
        let query = Frame::new(0x32, 0x00, 0, Command::Query.to_payload());
        let mut faults = TrialFaults::nominal();
        faults.channel.fade_db = 25.0;
        let mut rng = seeded(502);
        let out = run_exchange_faulted(&s, &mut node, &query, &faults, &mut rng);
        assert!(out.uplink_frame.is_err(), "25 dB fade at 300 m must kill the frame");
    }

    #[test]
    fn nominal_faults_reproduce_the_unfaulted_exchange() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(100.0));
        let query = Frame::new(0x31, 0x00, 0, Command::Query.to_payload());
        let mut n1 = node_at(0x31);
        n1.queue_reading(vec![0xCA, 0xFE]);
        let a = run_exchange(&s, &mut n1, &query, &mut seeded(501));
        let mut n2 = node_at(0x31);
        n2.queue_reading(vec![0xCA, 0xFE]);
        let b =
            run_exchange_faulted(&s, &mut n2, &query, &TrialFaults::nominal(), &mut seeded(501));
        assert_eq!(a.downlink_ok, b.downlink_ok);
        assert_eq!(
            a.uplink_frame.expect("decodes").payload,
            b.uplink_frame.expect("decodes").payload
        );
    }

    #[test]
    fn pab_exchange_works_close_fails_far() {
        let near = Scenario::river(SystemKind::Pab, Meters(8.0));
        let mut node = node_at(0x31);
        node.queue_reading(vec![1]);
        node.config.link = vab_link::frame::LinkConfig::uncoded();
        let query = Frame::new(0x31, 0x00, 0, Command::Query.to_payload());
        let mut rng = seeded(504);
        let mut near_s = near.clone();
        near_s.link_override = Some(vab_link::frame::LinkConfig::uncoded());
        let out = run_exchange(&near_s, &mut node, &query, &mut rng);
        assert!(out.uplink_frame.is_ok(), "PAB at 8 m should work: {:?}", out.uplink_frame);

        // Far: 300 m is far beyond PAB's closed range.
        let mut far = Scenario::river(SystemKind::Pab, Meters(300.0));
        far.link_override = Some(vab_link::frame::LinkConfig::uncoded());
        node.queue_reading(vec![2]);
        let out = run_exchange(&far, &mut node, &query, &mut rng);
        assert!(out.uplink_frame.is_err(), "PAB at 300 m must fail");
    }
}
