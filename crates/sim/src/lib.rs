//! # vab-sim — the end-to-end VAB experiment engine
//!
//! Replaces the paper's river/ocean testbed. Two simulation fidelities that
//! cross-validate:
//!
//! * **Link budget** ([`linkbudget`]) — the sonar equation plus closed-form
//!   modulation theory gives a per-trial channel-bit error probability;
//!   bits then flow through the *real* link-layer codecs. Fast enough for
//!   thousands-of-trial Monte Carlo sweeps ([`montecarlo`]).
//! * **Sample level** ([`samplelevel`]) — complex-baseband waveforms through
//!   the image-method multipath channel, the actual modulator, carrier
//!   leak, synchronizer and demodulator. Slow; used at a handful of
//!   operating points to validate the fast path.
//!
//! [`baseline`] defines the comparison systems (PAB-like single-element
//! backscatter, conventional non-retrodirective array); [`scenario`] wires
//! geometry + environment + system; [`metrics`] collects results and writes
//! CSV.
//!
//! ## Example: close a link budget for the canonical river trial
//!
//! ```
//! use vab_sim::{LinkBudget, Scenario, SystemKind};
//! use vab_util::units::Meters;
//!
//! let scenario = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(100.0));
//! let lb = LinkBudget::compute(&scenario);
//! assert!(lb.ebn0_db > 10.0, "a 100 m river link closes comfortably");
//! assert!(lb.uncoded_ber() < 1e-3);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod campaign;
pub mod chansource;
pub mod linkbudget;
pub mod metrics;
pub mod montecarlo;
pub mod samplelevel;
pub mod scenario;
pub mod session;

pub use baseline::SystemKind;
pub use campaign::{run_campaign, run_campaign_slice, CampaignConfig, CampaignReport};
pub use chansource::{BankSource, ChannelSource, RealizedChannel, ReplayStart, SyntheticSource};
pub use linkbudget::{LinkBudget, ReaderParams};
pub use metrics::CsvTable;
pub use montecarlo::{MonteCarloConfig, TrialEngine};
pub use scenario::Scenario;
pub use session::{run_exchange, SessionError, SessionOutcome};
