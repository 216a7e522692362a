//! Seed-derived fault schedules and the typed events they emit.

use crate::config::FaultConfig;
use rand::rngs::StdRng;
use rand::RngExt;
use vab_piezo::bvd::Bvd;
use vab_piezo::reflection::ModulationStates;
use vab_piezo::tolerance::{sample_transducer, Tolerances};
use vab_util::rng::{derive_seed, seeded};

/// Stream constant separating the fault plan's RNG lineage from the Monte
/// Carlo trial streams that share the same master seed.
pub const FAULT_STREAM: u64 = 0xFA01_7AB1E;

/// How a modulation switch fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchFault {
    /// Element disconnected: contributes nothing (kills its Van Atta pair's
    /// retro path).
    StuckOpen,
    /// Switch frozen in the reflect state: the element still scatters and
    /// harvests, but its pair no longer modulates.
    StuckShort,
}

/// One failed array element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementFault {
    /// Element index (0-based, into the full element list).
    pub element: usize,
    /// Failure mode.
    pub kind: SwitchFault,
}

/// An impulsive-noise burst (snapping-shrimp chorus peak, trawler pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstFault {
    /// SNR penalty while the burst is active, dB.
    pub penalty_db: f64,
    /// Fraction of the packet the burst covers.
    pub duty: f64,
}

/// Channel impairments for one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFaults {
    /// Impulsive burst, if one occurs.
    pub burst: Option<BurstFault>,
    /// Bubble-cloud fade depth, dB (0 = none).
    pub fade_db: f64,
    /// Surface-motion dropout: the reply is lost outright.
    pub dropout: bool,
}

impl ChannelFaults {
    /// Effective extra link loss in dB for link-budget-style engines: the
    /// fade plus the burst's duty-weighted penalty (a burst covering 30 %
    /// of the packet at 6 dB is modelled as a 1.8 dB average penalty).
    pub fn extra_loss_db(&self) -> f64 {
        self.fade_db + self.burst.map_or(0.0, |b| b.penalty_db * b.duty)
    }
}

/// Energy-subsystem faults for one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyFaults {
    /// Fraction of the harvest interval lost to a blackout (0 = none).
    pub blackout_frac: f64,
    /// Storage leakage-current multiplier (1 = nominal).
    pub leak_multiplier: f64,
    /// The node browns out mid-reply, truncating the uplink.
    pub brownout_mid_reply: bool,
}

/// Protocol-level faults for one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolFaults {
    /// The reader's ACK is corrupted in flight (sender sees a timeout).
    pub ack_corrupted: bool,
    /// The reader restarts and loses MAC/inventory state.
    pub reader_restart: bool,
}

/// Everything that breaks during one trial, fully determined by
/// `(master seed, trial index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialFaults {
    /// Failed array elements.
    pub elements: Vec<ElementFault>,
    /// Aggregate modulation-depth scale from per-element resonance drift
    /// (1.0 = no drift; multiplies the front end's modulation depth).
    pub depth_scale: f64,
    /// Channel impairments.
    pub channel: ChannelFaults,
    /// Energy faults.
    pub energy: EnergyFaults,
    /// Protocol faults.
    pub protocol: ProtocolFaults,
}

impl TrialFaults {
    /// The no-fault trial.
    pub fn nominal() -> Self {
        Self {
            elements: Vec::new(),
            depth_scale: 1.0,
            channel: ChannelFaults { burst: None, fade_db: 0.0, dropout: false },
            energy: EnergyFaults {
                blackout_frac: 0.0,
                leak_multiplier: 1.0,
                brownout_mid_reply: false,
            },
            protocol: ProtocolFaults { ack_corrupted: false, reader_restart: false },
        }
    }

    /// `true` when nothing is faulted this trial.
    fn is_nominal(&self) -> bool {
        self == &Self::nominal()
    }

    /// Total count of discrete fault events (for reporting).
    fn event_count(&self) -> usize {
        self.elements.len()
            + usize::from(self.channel.burst.is_some())
            + usize::from(self.channel.fade_db > 0.0)
            + usize::from(self.channel.dropout)
            + usize::from(self.energy.blackout_frac > 0.0)
            + usize::from(self.energy.leak_multiplier > 1.0)
            + usize::from(self.energy.brownout_mid_reply)
            + usize::from(self.protocol.ack_corrupted)
            + usize::from(self.protocol.reader_restart)
    }
}

/// A deterministic fault schedule over a campaign.
///
/// Construction derives a dedicated seed from the campaign master seed; the
/// faults of trial `t` are then a pure function of `(plan seed, t)` — no
/// shared mutable state — so campaigns sharded across any number of worker
/// threads reproduce bit-identically.
///
/// When the profile drifts resonance, construction also designs the nominal
/// co-designed load states and their depth once, at the profile's carrier.
/// Every trial scores its drifted transducers against them, so no trial
/// reruns the co-design search; the design draws no random numbers, so each
/// trial's stream is what it would be if the design ran inside the trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    /// The nominal states and their depth; `None` when drift is off.
    nominal: Option<(ModulationStates, f64)>,
}

impl FaultPlan {
    /// Builds the plan for a campaign with `master_seed`.
    pub fn new(master_seed: u64, cfg: FaultConfig) -> Self {
        let nominal = (cfg.resonance_drift > 0.0).then(|| {
            let bvd = Bvd::vab_default();
            let states = ModulationStates::vab(&bvd, cfg.carrier);
            (states, states.modulation_depth(&bvd, cfg.carrier))
        });
        Self { seed: derive_seed(master_seed, FAULT_STREAM), cfg, nominal }
    }

    /// The plan [`FaultPlan::new`] builds for `master_seed` and `cfg`, taking
    /// its nominal design from this plan when both drift resonance at the
    /// same carrier. The design depends on nothing else, so a sweep that
    /// builds many plans on one carrier derives them from one plan and runs
    /// the co-design search once.
    pub fn sharing_design(&self, master_seed: u64, cfg: FaultConfig) -> Self {
        match self.nominal {
            Some(nominal) if cfg.resonance_drift > 0.0 && cfg.carrier == self.cfg.carrier => {
                Self { seed: derive_seed(master_seed, FAULT_STREAM), cfg, nominal: Some(nominal) }
            }
            _ => Self::new(master_seed, cfg),
        }
    }

    /// The profile this plan samples from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Samples the faults for trial `trial` on a node with `n_elements`
    /// array elements. Pure: same arguments, same result, always.
    pub fn trial_faults(&self, trial: u64, n_elements: usize) -> TrialFaults {
        if self.cfg.is_off() {
            return TrialFaults::nominal();
        }
        let mut rng = seeded(derive_seed(self.seed, trial));
        let cfg = &self.cfg;

        // Array-element switch faults.
        let mut elements = Vec::new();
        for element in 0..n_elements {
            if rng.random::<f64>() < cfg.element_fail_prob {
                let kind = if rng.random::<f64>() < cfg.stuck_short_fraction {
                    SwitchFault::StuckShort
                } else {
                    SwitchFault::StuckOpen
                };
                elements.push(ElementFault { element, kind });
            }
        }

        // Per-element resonance drift → aggregate modulation-depth scale.
        let depth_scale = match self.nominal {
            Some(nominal) if n_elements > 0 => {
                drift_depth_scale(cfg, nominal, n_elements, &mut rng)
            }
            _ => 1.0,
        };

        // Channel impairments.
        let burst = if rng.random::<f64>() < cfg.burst_prob {
            Some(BurstFault {
                penalty_db: cfg.burst_penalty_db * (0.5 + 0.5 * rng.random::<f64>()),
                duty: 0.1 + 0.4 * rng.random::<f64>(),
            })
        } else {
            None
        };
        let fade_db = if rng.random::<f64>() < cfg.fade_prob {
            cfg.fade_depth_db * rng.random::<f64>()
        } else {
            0.0
        };
        let dropout = rng.random::<f64>() < cfg.dropout_prob;

        // Energy faults.
        let blackout_frac =
            if rng.random::<f64>() < cfg.blackout_prob { cfg.blackout_frac } else { 0.0 };
        let leak_multiplier =
            if rng.random::<f64>() < cfg.leak_prob { cfg.leak_multiplier } else { 1.0 };
        let brownout_mid_reply = rng.random::<f64>() < cfg.brownout_prob;

        // Protocol faults.
        let ack_corrupted = rng.random::<f64>() < cfg.ack_corrupt_prob;
        let reader_restart = rng.random::<f64>() < cfg.reader_restart_prob;

        let faults = TrialFaults {
            elements,
            depth_scale,
            channel: ChannelFaults { burst, fade_db, dropout },
            energy: EnergyFaults { blackout_frac, leak_multiplier, brownout_mid_reply },
            protocol: ProtocolFaults { ack_corrupted, reader_restart },
        };
        if !faults.is_nominal() {
            vab_obs::event!(
                "fault.plan",
                "fault_activated",
                trial = trial,
                events = faults.event_count(),
                element_faults = faults.elements.len(),
                fade_db = faults.channel.fade_db,
                burst = faults.channel.burst.is_some(),
                dropout = faults.channel.dropout,
                brownout_mid_reply = faults.energy.brownout_mid_reply,
                ack_corrupted = faults.protocol.ack_corrupted,
                reader_restart = faults.protocol.reader_restart,
            );
            vab_obs::metrics::inc("fault.activations", 1);
            vab_obs::metrics::inc("fault.events", faults.event_count() as u64);
        }
        faults
    }
}

/// Mean modulation-depth ratio across `n_elements` drift-perturbed
/// transducers, scored against the nominal co-designed `(states, depth)` —
/// the same "states trimmed once at design time" convention as
/// `vab_piezo::tolerance::depth_yield`.
fn drift_depth_scale(
    cfg: &FaultConfig,
    (states, nominal_depth): (ModulationStates, f64),
    n_elements: usize,
    rng: &mut StdRng,
) -> f64 {
    if nominal_depth <= 0.0 {
        return 1.0;
    }
    let nominal = Bvd::vab_default();
    let tol = Tolerances { resonance: cfg.resonance_drift, q_factor: 0.0, c0: 0.0, network: 0.0 };
    let mut sum = 0.0;
    for _ in 0..n_elements {
        let drifted = sample_transducer(&nominal, &tol, rng);
        sum += states.modulation_depth(&drifted, cfg.carrier);
    }
    (sum / n_elements as f64 / nominal_depth).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_plans_equal_fresh_ones() {
        let donor = FaultPlan::new(1, FaultConfig::with_intensity(1.0));
        let mut other_carrier = FaultConfig::with_intensity(0.6);
        other_carrier.carrier = vab_util::units::Hertz(other_carrier.carrier.value() * 1.1);
        for (seed, cfg) in [
            (2023, FaultConfig::with_intensity(0.4)),
            (2023 ^ 0xF19, FaultConfig::with_intensity(0.8)),
            (7, FaultConfig::off()),
            (9, other_carrier),
        ] {
            assert_eq!(donor.sharing_design(seed, cfg), FaultPlan::new(seed, cfg));
        }
        let undesigned = FaultPlan::new(1, FaultConfig::off());
        let cfg = FaultConfig::severe();
        assert_eq!(undesigned.sharing_design(3, cfg), FaultPlan::new(3, cfg));
    }

    #[test]
    fn trial_faults_are_pure() {
        let plan = FaultPlan::new(2023, FaultConfig::severe());
        for trial in [0u64, 1, 17, 1499] {
            assert_eq!(plan.trial_faults(trial, 8), plan.trial_faults(trial, 8));
        }
    }

    #[test]
    fn different_trials_differ() {
        let plan = FaultPlan::new(2023, FaultConfig::severe());
        let distinct =
            (0..50).filter(|&t| plan.trial_faults(t, 8) != plan.trial_faults(t + 1, 8)).count();
        assert!(distinct > 40, "only {distinct}/50 neighbouring trials differed");
    }

    #[test]
    fn off_plan_is_nominal() {
        let plan = FaultPlan::new(7, FaultConfig::off());
        for trial in 0..20 {
            assert!(plan.trial_faults(trial, 8).is_nominal());
        }
    }

    #[test]
    fn severe_plan_actually_faults() {
        let plan = FaultPlan::new(11, FaultConfig::severe());
        let events: usize = (0..200).map(|t| plan.trial_faults(t, 8).event_count()).sum();
        assert!(events > 200, "severe plan produced only {events} events in 200 trials");
    }

    #[test]
    fn fault_rate_grows_with_intensity() {
        let count = |intensity: f64| -> usize {
            let plan = FaultPlan::new(5, FaultConfig::with_intensity(intensity));
            (0..300).map(|t| plan.trial_faults(t, 8).event_count()).sum()
        };
        let (lo, mid, hi) = (count(0.1), count(0.5), count(1.0));
        assert!(lo < mid && mid < hi, "event counts not monotone: {lo}, {mid}, {hi}");
    }

    #[test]
    fn drift_erodes_depth_but_not_catastrophically() {
        let plan = FaultPlan::new(3, FaultConfig::severe());
        let mean: f64 = (0..100).map(|t| plan.trial_faults(t, 8).depth_scale).sum::<f64>() / 100.0;
        assert!(mean < 1.0, "drift should cost some depth on average: {mean}");
        assert!(mean > 0.6, "3 % drift should not destroy the link: {mean}");
    }

    #[test]
    fn extra_loss_composes_fade_and_burst() {
        let ch = ChannelFaults {
            burst: Some(BurstFault { penalty_db: 6.0, duty: 0.5 }),
            fade_db: 2.0,
            dropout: false,
        };
        assert!((ch.extra_loss_db() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn plan_is_independent_of_query_order() {
        let plan = FaultPlan::new(99, FaultConfig::with_intensity(0.6));
        let forward: Vec<_> = (0..32).map(|t| plan.trial_faults(t, 4)).collect();
        let mut backward: Vec<_> = (0..32).rev().map(|t| plan.trial_faults(t, 4)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    /// `f64::to_bits` of the drift depth scale for a few trials of a severe
    /// plan: how the nominal states are computed must not move a bit.
    #[test]
    fn drift_depth_scale_is_pinned_bit_for_bit() {
        let plan = FaultPlan::new(3, FaultConfig::severe());
        for (trial, want) in [
            (0u64, 0x3fef4ec23b366231u64),
            (1, 0x3ff035d2e269cd59),
            (2, 0x3ff01de2f49191e9),
            (17, 0x3fef898d9d0f1c86),
            (99, 0x3fefcc01e976fa5a),
        ] {
            assert_eq!(plan.trial_faults(trial, 8).depth_scale.to_bits(), want, "trial {trial}");
        }
    }
}
