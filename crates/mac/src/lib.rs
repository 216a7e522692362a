//! # vab-mac — medium access for backscatter networks
//!
//! Backscatter MAC is reader-driven: nodes cannot hear each other and only
//! speak when illuminated, so the reader owns the schedule. The layers:
//!
//! * [`poll`] — round-robin polling of a known node population;
//! * [`tdma`] — slotted schedules for periodic monitoring (collision-free);
//! * [`aloha`] — framed slotted ALOHA with Q-style window adaptation for
//!   discovering an unknown population ([`inventory`]);
//! * [`rate_adapt`] — per-node uplink rate control over the rate table.
//!
//! Collisions are abstract here (any two respondents in a slot collide);
//! `vab-net` swaps in physical-layer capture through
//! [`AlohaReader::run_round_with`] without changing any of the policy code.
//! A round hands its resolver only the occupied slots, in slot order; an
//! empty slot is idle without a call, so a round past its O(w) offsets
//! pass costs O(respondents).
//!
//! Addresses are [`Addr`] (`u32`): inventory, TDMA and rate control all
//! operate on the full ocean-scale address space `vab-net` deploys
//! (10k–100k nodes). Only the wire format (`vab_link::frame::Frame`) keeps
//! the paper's one-byte address field — at scale each multi-reader cell
//! maps its members onto cell-local `u8` addresses (see `SCALING.md`).
//!
//! ## Example: inventory an unknown population, then schedule it
//!
//! ```
//! use vab_mac::{run_inventory, Addr, TdmaSchedule};
//! use vab_util::rng::seeded;
//! use vab_util::units::Seconds;
//!
//! // Ten hidden nodes, discovered by framed ALOHA from a window of 8 slots.
//! let population: Vec<Addr> = (1..=10).collect();
//! let report = run_inventory(
//!     &population,
//!     8,            // initial contention window
//!     100,          // round cap
//!     Seconds(1.0), // TDMA slot duration
//!     Seconds(0.2), // guard interval
//!     &mut seeded(7),
//! );
//! assert_eq!(report.discovered.len(), 10);
//! // Every discovered node holds a unique TDMA slot afterwards.
//! assert!(population.iter().all(|&a| report.schedule.slot_of(a).is_some()));
//! ```

#![warn(missing_docs)]

/// A node address as the MAC layer sees it.
///
/// Wide enough for ocean-scale deployments (10k–100k nodes); the physical
/// `Frame` address field stays `u8` per the paper's link format, with
/// cell-local mapping applied by the deployment layer.
pub type Addr = u32;

pub mod aloha;
pub mod inventory;
pub mod poll;
pub mod rate_adapt;
pub mod tdma;

pub use aloha::{AlohaReader, SlotOutcome};
pub use inventory::run_inventory;
pub use poll::PollingMac;
pub use rate_adapt::{RateController, RateDecision};
pub use tdma::TdmaSchedule;
