//! The VAB link frame.
//!
//! Wire layout (before whitening/FEC/interleaving):
//!
//! ```text
//! ┌──────┬──────┬─────┬─────┬───────────┬────────┐
//! │ dest │ src  │ seq │ len │ payload   │ CRC-16 │
//! │ 1 B  │ 1 B  │ 1 B │ 1 B │ len bytes │ 2 B    │
//! └──────┴──────┴─────┴─────┴───────────┴────────┘
//! ```
//!
//! The whole frame is whitened, FEC-encoded and interleaved according to the
//! [`LinkConfig`]; the PHY preamble is added by `vab-phy`.

use crate::bits::{bits_to_bytes, bytes_to_bits};
use crate::crc::crc16_ccitt;
use crate::fec::{conv_decode_soft, Fec};
use crate::interleave::Interleaver;
use crate::whiten::whiten;

/// Broadcast address.
pub const ADDR_BROADCAST: u8 = 0xFF;
/// Maximum payload length in bytes.
pub const MAX_PAYLOAD: usize = 64;

/// Frame header + payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination node address (0xFF = broadcast).
    pub dest: u8,
    /// Source address.
    pub src: u8,
    /// Sequence number (ARQ).
    pub seq: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame; panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn new(dest: u8, src: u8, seq: u8, payload: Vec<u8>) -> Self {
        assert!(payload.len() <= MAX_PAYLOAD, "payload too long");
        Self { dest, src, seq, payload }
    }

    /// Serialized (pre-coding) byte image including the CRC.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(6 + self.payload.len());
        bytes.push(self.dest);
        bytes.push(self.src);
        bytes.push(self.seq);
        bytes.push(self.payload.len() as u8);
        bytes.extend_from_slice(&self.payload);
        let crc = crc16_ccitt(&bytes);
        bytes.push((crc >> 8) as u8);
        bytes.push((crc & 0xFF) as u8);
        bytes
    }

    /// Parses and CRC-checks a byte image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < 6 {
            return Err(FrameError::TooShort);
        }
        let len = bytes[3] as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::BadLength);
        }
        let total = 4 + len + 2;
        if bytes.len() < total {
            return Err(FrameError::TooShort);
        }
        let body = &bytes[..4 + len];
        let want = crc16_ccitt(body);
        let got = ((bytes[4 + len] as u16) << 8) | bytes[5 + len] as u16;
        if want != got {
            return Err(FrameError::BadCrc);
        }
        Ok(Frame {
            dest: bytes[0],
            src: bytes[1],
            seq: bytes[2],
            payload: bytes[4..4 + len].to_vec(),
        })
    }
}

/// Framing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes for a complete frame.
    TooShort,
    /// Length field exceeds the maximum.
    BadLength,
    /// CRC mismatch.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame truncated"),
            FrameError::BadLength => write!(f, "length field out of range"),
            FrameError::BadCrc => write!(f, "CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Link-layer channel-coding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// FEC applied after whitening.
    pub fec: Fec,
    /// Interleaver applied after FEC (None disables).
    pub interleaver: Option<Interleaver>,
    /// Whether PN9 whitening is applied.
    pub whitening: bool,
}

impl LinkConfig {
    /// The default VAB uplink: convolutional FEC, 8×16 interleaver,
    /// whitening on.
    pub fn vab_default() -> Self {
        Self { fec: Fec::Conv, interleaver: Some(Interleaver::new(8, 16)), whitening: true }
    }

    /// Uncoded configuration (raw BER experiments).
    pub fn uncoded() -> Self {
        Self { fec: Fec::None, interleaver: None, whitening: false }
    }

    /// Encodes a frame into channel bits ready for the modulator.
    pub fn encode(&self, frame: &Frame) -> Vec<bool> {
        self.encode_bits(&bytes_to_bits(&frame.to_bytes()))
    }

    /// Whitens, FEC-encodes and interleaves raw bits into channel bits:
    /// one allocation per enabled stage, none for a copy of the input.
    pub fn encode_bits(&self, bits: &[bool]) -> Vec<bool> {
        let whitened;
        let plain = if self.whitening {
            whitened = whiten(bits);
            &whitened
        } else {
            bits
        };
        let coded = self.fec.encode(plain);
        match &self.interleaver {
            Some(il) => il.interleave(&coded),
            None => coded,
        }
    }

    /// Number of channel bits [`LinkConfig::encode`] produces for a frame
    /// with `payload_len` payload bytes.
    pub fn encoded_len(&self, payload_len: usize) -> usize {
        let raw = (6 + payload_len) * 8;
        let coded = self.fec.encoded_len(raw);
        match &self.interleaver {
            Some(il) => coded.div_ceil(il.block_len()) * il.block_len(),
            None => coded,
        }
    }

    /// Decodes channel bits back into a frame.
    pub fn decode(&self, channel_bits: &[bool]) -> Result<Frame, FrameError> {
        Frame::from_bytes(&bits_to_bytes(&self.decode_bits(channel_bits)))
    }

    /// The inverse of [`LinkConfig::encode_bits`] on hard decisions: drops
    /// a trailing partial interleaver block, deinterleaves, FEC-decodes
    /// ([`Fec::decode`]) and de-whitens.
    pub fn decode_bits(&self, channel_bits: &[bool]) -> Vec<bool> {
        let deinterleaved;
        let bits = match &self.interleaver {
            Some(il) => {
                deinterleaved = il.deinterleave(whole_blocks(il, channel_bits));
                &deinterleaved
            }
            None => channel_bits,
        };
        self.dewhiten(self.fec.decode(bits))
    }

    /// [`LinkConfig::decode_bits`] on soft metrics (positive meaning "probably
    /// 1") for the convolutional code: soft Viterbi
    /// ([`crate::fec::conv_decode_soft`]) replaces the hard FEC decode.
    pub fn decode_soft(&self, metrics: &[f64]) -> Vec<bool> {
        debug_assert_eq!(self.fec, Fec::Conv, "soft decoding is for the convolutional code");
        let bits = match &self.interleaver {
            Some(il) => conv_decode_soft(&il.deinterleave_soft(whole_blocks(il, metrics))),
            None => conv_decode_soft(metrics),
        };
        self.dewhiten(bits)
    }

    fn dewhiten(&self, bits: Vec<bool>) -> Vec<bool> {
        if self.whitening {
            whiten(&bits)
        } else {
            bits
        }
    }
}

/// The leading whole interleaver blocks of `symbols`.
fn whole_blocks<'a, T>(il: &Interleaver, symbols: &'a [T]) -> &'a [T] {
    &symbols[..symbols.len() / il.block_len() * il.block_len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use vab_util::rng::{random_bytes, seeded};

    #[test]
    fn frame_roundtrip_bytes() {
        let f = Frame::new(0x12, 0x01, 7, vec![1, 2, 3, 4]);
        let parsed = Frame::from_bytes(&f.to_bytes()).expect("clean parse");
        assert_eq!(parsed, f);
    }

    #[test]
    fn corrupted_frame_fails_crc() {
        let f = Frame::new(0x12, 0x01, 7, vec![9; 10]);
        let mut bytes = f.to_bytes();
        bytes[6] ^= 0x40;
        assert_eq!(Frame::from_bytes(&bytes), Err(FrameError::BadCrc));
    }

    #[test]
    fn truncated_frame_detected() {
        let f = Frame::new(1, 2, 3, vec![0; 20]);
        let bytes = f.to_bytes();
        assert_eq!(Frame::from_bytes(&bytes[..10]), Err(FrameError::TooShort));
        assert_eq!(Frame::from_bytes(&[]), Err(FrameError::TooShort));
    }

    #[test]
    fn absurd_length_field_rejected() {
        // Handcraft a header claiming 200 payload bytes.
        let bytes = vec![1, 2, 3, 200, 0, 0, 0, 0];
        assert_eq!(Frame::from_bytes(&bytes), Err(FrameError::BadLength));
    }

    #[test]
    fn empty_payload_is_valid() {
        let f = Frame::new(5, 6, 0, vec![]);
        assert_eq!(Frame::from_bytes(&f.to_bytes()).expect("parse"), f);
    }

    #[test]
    fn coded_roundtrip_all_configs() {
        let mut rng = seeded(61);
        for cfg in [
            LinkConfig::uncoded(),
            LinkConfig { fec: Fec::Repetition(3), interleaver: None, whitening: true },
            LinkConfig {
                fec: Fec::Hamming74,
                interleaver: Some(Interleaver::new(4, 7)),
                whitening: true,
            },
            LinkConfig::vab_default(),
        ] {
            let f = Frame::new(3, 1, 42, random_bytes(&mut rng, 16));
            let bits = cfg.encode(&f);
            assert_eq!(bits.len(), cfg.encoded_len(16), "{cfg:?} length mismatch");
            let decoded = cfg.decode(&bits).expect("clean channel decode");
            assert_eq!(decoded, f, "{cfg:?}");
        }
    }

    #[test]
    fn vab_config_survives_burst_errors() {
        let mut rng = seeded(62);
        let cfg = LinkConfig::vab_default();
        let f = Frame::new(3, 1, 9, random_bytes(&mut rng, 24));
        let mut bits = cfg.encode(&f);
        // A burst of 6 consecutive channel errors (surface fade).
        let start = rng.random_range(0..bits.len() - 6);
        for b in bits.iter_mut().skip(start).take(6) {
            *b = !*b;
        }
        let decoded = cfg.decode(&bits).expect("interleaver+Viterbi should absorb the burst");
        assert_eq!(decoded, f);
    }

    #[test]
    fn uncoded_config_fails_on_burst() {
        let mut rng = seeded(63);
        let cfg = LinkConfig::uncoded();
        let f = Frame::new(3, 1, 9, random_bytes(&mut rng, 24));
        let mut bits = cfg.encode(&f);
        for b in bits.iter_mut().skip(40).take(6) {
            *b = !*b;
        }
        assert!(cfg.decode(&bits).is_err());
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversized_payload_rejected() {
        let _ = Frame::new(1, 2, 3, vec![0; MAX_PAYLOAD + 1]);
    }
}
