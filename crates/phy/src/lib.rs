//! # vab-phy — physical layer: waveforms, modulation, demodulation
//!
//! The backscatter PHY of the reproduction:
//!
//! * the reader transmits a continuous-wave carrier (plus OOK-keyed downlink
//!   commands);
//! * the node piggybacks uplink data by toggling its reflection state,
//!   FM0-line-coded at 100–1000 bps;
//! * the reader receive chain strips the (enormous) un-modulated carrier,
//!   matched-filters the chips and decodes FM0 noncoherently.
//!
//! Everything here operates on either real passband waveforms or complex
//! baseband envelopes ([`vab_util::complex::C64`] sequences) around the
//! carrier; the channel crate accepts both.

pub mod ber;
pub mod carrier;
pub mod demod;
pub mod downlink;
pub mod fm0;
pub mod fsk;
pub mod modulation;
pub mod sync;
pub mod waveform;

pub use ber::{
    ber_coherent_bpsk, ber_noncoherent_orthogonal, ber_ook_noncoherent, required_ebn0_db,
};
pub use demod::Demodulator;
pub use downlink::{pie_decode, pie_encode, EnvelopeDetector, PieParams};
pub use fm0::{fm0_decode_hard, fm0_encode};
pub use fsk::{FskDemodulator, FskModulator, FskParams};
pub use modulation::{BackscatterModulator, ModParams};
pub use sync::Preamble;
