//! The backscatter node state machine.
//!
//! A node is a [`VanAttaArray`] plus a few gates of control logic and a
//! power subsystem. It spends its life harvesting; when the reader
//! addresses it, it encodes a queued sensor reading into channel bits and
//! schedules them on the modulation switch. All timing is driven by the
//! caller (the simulator or MAC layer) through explicit events — the node
//! itself has no clock.

use crate::array::VanAttaArray;
use crate::commands::{Command, RATE_TABLE_BPS};
use std::collections::VecDeque;
use vab_harvest::budget::NodeMode;
use vab_harvest::pmu::Pmu;
use vab_link::frame::{Frame, LinkConfig, ADDR_BROADCAST};
use vab_util::units::{Db, Hertz, Seconds, Watts};

/// Static node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Link-layer address.
    pub address: u8,
    /// Channel coding configuration (must match the reader's).
    pub link: LinkConfig,
    /// Carrier frequency.
    pub carrier: Hertz,
    /// Initial uplink rate code (index into [`RATE_TABLE_BPS`]).
    pub rate_code: u8,
    /// Maximum queued readings before the oldest is dropped.
    pub queue_limit: usize,
}

impl NodeConfig {
    /// Standard configuration for address `address`.
    pub fn new(address: u8) -> Self {
        Self {
            address,
            link: LinkConfig::vab_default(),
            carrier: Hertz(18_500.0),
            rate_code: 0,
            queue_limit: 16,
        }
    }
}

/// Node operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Unpowered / charging.
    Dead,
    /// Powered, listening for downlink.
    Listening,
    /// Backscattering an uplink frame.
    Replying,
    /// Commanded sleep (remaining seconds).
    Sleeping,
}

/// What a node does in response to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent {
    /// Nothing observable.
    None,
    /// Backscatter these channel bits (already FEC-encoded, preamble added
    /// by the PHY).
    Reply {
        /// Channel bits to feed the modulation switch.
        channel_bits: Vec<bool>,
        /// Uplink bit rate to use.
        bit_rate: f64,
    },
    /// Node accepted a slot assignment.
    SlotAssigned(u8),
}

/// A deployed sensing node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Static configuration.
    pub config: NodeConfig,
    /// The acoustic front end.
    pub array: VanAttaArray,
    /// The power subsystem.
    pub pmu: Pmu,
    state: NodeState,
    readings: VecDeque<Vec<u8>>,
    seq: u8,
    sleep_remaining: f64,
    assigned_slot: Option<u8>,
    /// Frames transmitted (statistics).
    pub tx_frames: u64,
    /// Queries heard and answered.
    pub queries_answered: u64,
    /// Readings dropped to the queue limit.
    pub dropped_readings: u64,
}

impl Node {
    /// Creates a node with the given front end and a default PMU.
    pub fn new(config: NodeConfig, array: VanAttaArray) -> Self {
        Self {
            config,
            array,
            pmu: Pmu::vab_default(),
            state: NodeState::Dead,
            readings: VecDeque::new(),
            seq: 0,
            sleep_remaining: 0.0,
            assigned_slot: None,
            tx_frames: 0,
            queries_answered: 0,
            dropped_readings: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Current uplink bit rate.
    pub fn bit_rate(&self) -> f64 {
        RATE_TABLE_BPS[self.config.rate_code as usize]
    }

    /// Assigned TDMA slot, if any.
    pub fn assigned_slot(&self) -> Option<u8> {
        self.assigned_slot
    }

    /// Queues a sensor reading for the next query. Oldest readings drop
    /// when the queue is full (fresh data beats stale data for monitoring).
    pub fn queue_reading(&mut self, bytes: Vec<u8>) {
        if self.readings.len() >= self.config.queue_limit {
            self.readings.pop_front();
            self.dropped_readings += 1;
        }
        self.readings.push_back(bytes);
    }

    /// Advances the energy state by `dt` with incident acoustic level
    /// `incident_db_upa` at the array. Returns whether the node is powered.
    pub fn step_energy(&mut self, incident_db_upa: Db, dt: Seconds) -> bool {
        let p: Watts = self.array.harvest_power(self.config.carrier, incident_db_upa);
        let mode = match self.state {
            NodeState::Dead | NodeState::Sleeping => NodeMode::Sleep,
            NodeState::Listening => NodeMode::Listen,
            NodeState::Replying => NodeMode::Backscatter,
        };
        let powered = self.pmu.step(p, mode, dt);
        match (self.state, powered) {
            (NodeState::Dead, true) => self.state = NodeState::Listening,
            (s, false) if s != NodeState::Dead => self.state = NodeState::Dead,
            _ => {}
        }
        if self.state == NodeState::Sleeping {
            self.sleep_remaining -= dt.value();
            if self.sleep_remaining <= 0.0 {
                self.state = NodeState::Listening;
            }
        }
        powered
    }

    /// Forces the node awake with a charged capacitor (externally-powered
    /// deployments / long-range communication trials).
    pub fn force_powered(&mut self) {
        self.pmu = Pmu::vab_default();
        // Charge by feeding the PMU a strong source until it wakes.
        for _ in 0..10_000 {
            if self.pmu.step(Watts::from_uw(500.0), NodeMode::Sleep, Seconds(0.05)) {
                break;
            }
        }
        self.state = NodeState::Listening;
    }

    /// Handles a correctly-decoded downlink frame.
    pub fn handle_downlink(&mut self, frame: &Frame) -> NodeEvent {
        if self.state != NodeState::Listening {
            return NodeEvent::None;
        }
        if frame.dest != self.config.address && frame.dest != ADDR_BROADCAST {
            return NodeEvent::None;
        }
        let Some(cmd) = Command::from_payload(&frame.payload) else {
            return NodeEvent::None;
        };
        match cmd {
            Command::Query => {
                let payload = self.readings.pop_front().unwrap_or_default();
                let uplink = Frame::new(frame.src, self.config.address, self.seq, payload);
                let bits = self.config.link.encode(&uplink);
                self.state = NodeState::Replying;
                self.tx_frames += 1;
                self.queries_answered += 1;
                NodeEvent::Reply { channel_bits: bits, bit_rate: self.bit_rate() }
            }
            Command::Ack { seq } => {
                if seq == self.seq {
                    self.seq = self.seq.wrapping_add(1);
                }
                NodeEvent::None
            }
            Command::SetRate { rate_code } => {
                self.config.rate_code = rate_code;
                NodeEvent::None
            }
            Command::AssignSlot { slot } => {
                self.assigned_slot = Some(slot);
                NodeEvent::SlotAssigned(slot)
            }
            Command::Sleep { seconds } => {
                self.state = NodeState::Sleeping;
                self.sleep_remaining = seconds as f64;
                NodeEvent::None
            }
        }
    }

    /// Decodes a received downlink *waveform* (complex baseband envelope)
    /// with the node's envelope detector and PIE decoder, then dispatches
    /// the contained frame — the full low-power receive path a real node
    /// runs. Returns [`NodeEvent::None`] when no valid frame is present.
    pub fn handle_downlink_waveform(
        &mut self,
        baseband: &[vab_util::complex::C64],
        pie: &vab_phy::downlink::PieParams,
    ) -> NodeEvent {
        let detector = vab_phy::downlink::EnvelopeDetector::for_params(pie);
        let sliced = detector.slice(baseband);
        let Some(bits) = vab_phy::downlink::pie_decode(&sliced, pie) else {
            return NodeEvent::None;
        };
        let bytes = vab_link::bits::bits_to_bytes(&bits);
        match Frame::from_bytes(&bytes) {
            Ok(frame) => self.handle_downlink(&frame),
            Err(_) => NodeEvent::None,
        }
    }

    /// Marks the uplink transmission finished (the PHY/simulator calls this
    /// after the backscatter window ends).
    pub fn reply_done(&mut self) {
        if self.state == NodeState::Replying {
            self.state = NodeState::Listening;
        }
    }

    /// Current sequence number (next uplink frame).
    pub fn seq(&self) -> u8 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::VanAttaArray;

    fn node(addr: u8) -> Node {
        let mut n = Node::new(NodeConfig::new(addr), VanAttaArray::vab_default(4, Hertz(18_500.0)));
        n.force_powered();
        n
    }

    fn query_frame(dest: u8) -> Frame {
        Frame::new(dest, 0x00, 0, Command::Query.to_payload())
    }

    #[test]
    fn dead_until_powered() {
        let n = Node::new(NodeConfig::new(1), VanAttaArray::vab_default(2, Hertz(18_500.0)));
        assert_eq!(n.state(), NodeState::Dead);
    }

    #[test]
    fn force_powered_wakes() {
        let n = node(1);
        assert_eq!(n.state(), NodeState::Listening);
    }

    #[test]
    fn answers_query_with_queued_reading() {
        let mut n = node(7);
        n.queue_reading(vec![0xAA, 0xBB]);
        let ev = n.handle_downlink(&query_frame(7));
        let NodeEvent::Reply { channel_bits, bit_rate } = ev else {
            panic!("expected reply, got {ev:?}")
        };
        assert_eq!(bit_rate, 100.0);
        assert!(!channel_bits.is_empty());
        assert_eq!(n.state(), NodeState::Replying);
        // The reply decodes back to our reading at the reader.
        let decoded = n.config.link.decode(&channel_bits).expect("decodes");
        assert_eq!(decoded.payload, vec![0xAA, 0xBB]);
        assert_eq!(decoded.src, 7);
        n.reply_done();
        assert_eq!(n.state(), NodeState::Listening);
    }

    #[test]
    fn ignores_other_addresses_but_answers_broadcast() {
        let mut n = node(7);
        n.queue_reading(vec![1]);
        assert_eq!(n.handle_downlink(&query_frame(9)), NodeEvent::None);
        assert!(matches!(n.handle_downlink(&query_frame(ADDR_BROADCAST)), NodeEvent::Reply { .. }));
    }

    #[test]
    fn empty_queue_yields_empty_payload() {
        let mut n = node(3);
        let NodeEvent::Reply { channel_bits, .. } = n.handle_downlink(&query_frame(3)) else {
            panic!()
        };
        let decoded = n.config.link.decode(&channel_bits).expect("decodes");
        assert!(decoded.payload.is_empty());
    }

    #[test]
    fn ack_advances_sequence() {
        let mut n = node(5);
        assert_eq!(n.seq(), 0);
        let ack = Frame::new(5, 0, 0, Command::Ack { seq: 0 }.to_payload());
        n.handle_downlink(&ack);
        assert_eq!(n.seq(), 1);
        // Stale ACK does nothing.
        n.handle_downlink(&ack);
        assert_eq!(n.seq(), 1);
    }

    #[test]
    fn set_rate_changes_uplink_rate() {
        let mut n = node(2);
        let cmd = Frame::new(2, 0, 0, Command::SetRate { rate_code: 3 }.to_payload());
        n.handle_downlink(&cmd);
        assert_eq!(n.bit_rate(), 1000.0);
    }

    #[test]
    fn slot_assignment_recorded() {
        let mut n = node(2);
        let cmd = Frame::new(2, 0, 0, Command::AssignSlot { slot: 4 }.to_payload());
        assert_eq!(n.handle_downlink(&cmd), NodeEvent::SlotAssigned(4));
        assert_eq!(n.assigned_slot(), Some(4));
    }

    #[test]
    fn sleep_then_wake_via_energy_steps() {
        let mut n = node(2);
        let cmd = Frame::new(2, 0, 0, Command::Sleep { seconds: 1 }.to_payload());
        n.handle_downlink(&cmd);
        assert_eq!(n.state(), NodeState::Sleeping);
        // Queries ignored while asleep.
        assert_eq!(n.handle_downlink(&query_frame(2)), NodeEvent::None);
        // Strong field keeps it powered; time passes and it wakes.
        for _ in 0..30 {
            n.step_energy(Db(165.0), Seconds(0.05));
        }
        assert_eq!(n.state(), NodeState::Listening);
    }

    #[test]
    fn queue_limit_drops_oldest() {
        let mut n = node(1);
        n.config.queue_limit = 2;
        n.queue_reading(vec![1]);
        n.queue_reading(vec![2]);
        n.queue_reading(vec![3]);
        assert_eq!(n.readings.len(), 2);
        assert_eq!(n.dropped_readings, 1);
        let NodeEvent::Reply { channel_bits, .. } = n.handle_downlink(&query_frame(1)) else {
            panic!()
        };
        let decoded = n.config.link.decode(&channel_bits).expect("decodes");
        assert_eq!(decoded.payload, vec![2], "oldest (1) was dropped");
    }

    #[test]
    fn decodes_downlink_waveform_end_to_end() {
        use vab_link::bits::bytes_to_bits;
        use vab_phy::downlink::{pie_encode, PieParams};
        use vab_util::complex::C64;
        let mut n = node(0x11);
        n.queue_reading(vec![0x42]);
        // Reader side: frame → bits → PIE envelope → (clean) baseband.
        let frame = query_frame(0x11);
        let pie = PieParams::vab_default();
        let env = pie_encode(&bytes_to_bits(&frame.to_bytes()), &pie);
        let bb: Vec<C64> = env.iter().map(|&e| C64::from_polar(3.0 * e, 0.7)).collect();
        let ev = n.handle_downlink_waveform(&bb, &pie);
        assert!(matches!(ev, NodeEvent::Reply { .. }), "got {ev:?}");
    }

    #[test]
    fn garbage_waveform_is_ignored() {
        use vab_phy::downlink::PieParams;
        use vab_util::complex::C64;
        let mut n = node(0x11);
        let noise: Vec<C64> = (0..4000).map(|i| C64::real((i as f64 * 0.37).sin())).collect();
        assert_eq!(n.handle_downlink_waveform(&noise, &PieParams::vab_default()), NodeEvent::None);
    }

    #[test]
    fn corrupted_waveform_fails_crc_not_panics() {
        use vab_link::bits::bytes_to_bits;
        use vab_phy::downlink::{pie_encode, PieParams};
        use vab_util::complex::C64;
        let mut n = node(0x11);
        let frame = query_frame(0x11);
        let pie = PieParams::vab_default();
        let mut bits = bytes_to_bits(&frame.to_bytes());
        bits[13] = !bits[13]; // corrupt one payload bit pre-encoding
        let env = pie_encode(&bits, &pie);
        let bb: Vec<C64> = env.iter().map(|&e| C64::real(2.0 * e)).collect();
        assert_eq!(n.handle_downlink_waveform(&bb, &pie), NodeEvent::None);
    }

    #[test]
    fn starvation_kills_node() {
        let mut n = node(1);
        // No incident field at all: capacitor drains.
        let mut steps = 0;
        while n.state() != NodeState::Dead && steps < 2_000_000 {
            n.step_energy(Db(0.0), Seconds(1.0));
            steps += 1;
        }
        assert_eq!(n.state(), NodeState::Dead);
        assert_eq!(n.handle_downlink(&query_frame(1)), NodeEvent::None);
    }
}
