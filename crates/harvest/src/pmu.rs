//! Power-management state machine.
//!
//! Cold start → active → brown-out, with hysteresis: the node wakes only
//! once the capacitor clears `v_on` and keeps running until it sags below
//! `v_off < v_on`. The caller advances time in steps, supplying harvested
//! power; the PMU draws the budget's mode power and reports whether the
//! node logic is running.

use crate::budget::{NodeMode, PowerBudget};
use crate::rectifier::Rectifier;
use crate::storage::StorageCap;
use vab_util::units::{Seconds, Volts, Watts};

/// PMU operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmuState {
    /// Accumulating charge; logic unpowered.
    ColdStart,
    /// Logic running.
    Active,
}

/// The node's power subsystem: rectifier → capacitor → budgeted load.
#[derive(Debug, Clone)]
pub struct Pmu {
    rectifier: Rectifier,
    cap: StorageCap,
    budget: PowerBudget,
    state: PmuState,
    v_on: Volts,
    v_off: Volts,
    /// Cumulative time spent powered, s.
    pub uptime: f64,
    /// Cumulative time, s.
    pub elapsed: f64,
    /// Number of brown-out events.
    pub brownouts: u64,
}

impl Pmu {
    /// Standard VAB node PMU: Schottky rectifier, 100 µF cap, wake at 2.4 V,
    /// brown-out at 1.8 V.
    pub fn vab_default() -> Self {
        Self::new(
            Rectifier::schottky_doubler(),
            StorageCap::vab_default(),
            PowerBudget::vab_node(),
            Volts(2.4),
            Volts(1.8),
        )
    }

    /// Creates a PMU; `v_on` must exceed `v_off` (hysteresis).
    pub fn new(
        rectifier: Rectifier,
        cap: StorageCap,
        budget: PowerBudget,
        v_on: Volts,
        v_off: Volts,
    ) -> Self {
        assert!(v_on.value() > v_off.value(), "need wake hysteresis");
        Self {
            rectifier,
            cap,
            budget,
            state: PmuState::ColdStart,
            v_on,
            v_off,
            uptime: 0.0,
            elapsed: 0.0,
            brownouts: 0,
        }
    }

    /// Present state.
    pub fn state(&self) -> PmuState {
        self.state
    }

    /// Capacitor voltage.
    pub fn voltage(&self) -> Volts {
        self.cap.voltage()
    }

    /// True when node logic is powered.
    pub fn is_active(&self) -> bool {
        self.state == PmuState::Active
    }

    /// Advances the PMU by `dt` with acoustic power `p_acoustic` available
    /// at the rectifier input and the node requesting `mode`. Returns
    /// whether the node logic ran during this step.
    pub fn step(&mut self, p_acoustic: Watts, mode: NodeMode, dt: Seconds) -> bool {
        self.elapsed += dt.value();
        let harvested = self.rectifier.dc_output(p_acoustic);
        let load = match self.state {
            PmuState::ColdStart => Watts(0.0),
            PmuState::Active => self.budget.total(mode),
        };
        self.cap.step(harvested, load, dt);
        match self.state {
            PmuState::ColdStart => {
                if self.cap.voltage().value() >= self.v_on.value() {
                    self.state = PmuState::Active;
                    vab_obs::event!(
                        "harvest.pmu",
                        "wake",
                        v = self.cap.voltage().value(),
                        t_s = self.elapsed,
                    );
                    vab_obs::metrics::inc("pmu.wakes", 1);
                }
                false
            }
            PmuState::Active => {
                if self.cap.voltage().value() < self.v_off.value() {
                    self.state = PmuState::ColdStart;
                    self.brownouts += 1;
                    vab_obs::event!(
                        "harvest.pmu",
                        "brownout",
                        v = self.cap.voltage().value(),
                        t_s = self.elapsed,
                        total = self.brownouts,
                    );
                    vab_obs::metrics::inc("pmu.brownouts", 1);
                    false
                } else {
                    self.uptime += dt.value();
                    true
                }
            }
        }
    }

    /// Fraction of elapsed time the node was powered.
    pub fn availability(&self) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.uptime / self.elapsed
        }
    }

    /// Predicted cold-start time from empty at constant acoustic input, or
    /// `None` if the input cannot reach `v_on`.
    pub fn cold_start_time(&self, p_acoustic: Watts) -> Option<Seconds> {
        let harvested = self.rectifier.dc_output(p_acoustic);
        self.cap.charge_time(self.v_on, harvested)
    }

    /// Sets the storage capacitor's parasitic leakage (fault injection:
    /// an aging or damaged cap drawing power continuously).
    pub fn set_leak(&mut self, leak: Watts) {
        self.cap.set_leak(leak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_then_active() {
        let mut pmu = Pmu::vab_default();
        assert_eq!(pmu.state(), PmuState::ColdStart);
        // Plenty of acoustic power: 100 µW in.
        let mut ran = false;
        for _ in 0..100_000 {
            ran = pmu.step(Watts::from_uw(100.0), NodeMode::Listen, Seconds(0.01));
            if ran {
                break;
            }
        }
        assert!(ran, "node should eventually wake");
        assert_eq!(pmu.state(), PmuState::Active);
    }

    #[test]
    fn cold_start_time_matches_prediction() {
        let mut pmu = Pmu::vab_default();
        let p = Watts::from_uw(50.0);
        let predicted = pmu.cold_start_time(p).expect("chargeable").value();
        let mut t = 0.0;
        while !pmu.is_active() && t < 10_000.0 {
            pmu.step(p, NodeMode::Sleep, Seconds(0.05));
            t += 0.05;
        }
        assert!((t - predicted).abs() < 0.05 * predicted + 0.1, "sim {t} vs predicted {predicted}");
    }

    #[test]
    fn brownout_on_starvation_and_recovery() {
        let mut pmu = Pmu::vab_default();
        // Wake it with strong input.
        while !pmu.is_active() {
            pmu.step(Watts::from_uw(200.0), NodeMode::Sleep, Seconds(0.05));
        }
        // Starve it in the most expensive mode.
        while pmu.is_active() {
            pmu.step(Watts(0.0), NodeMode::Backscatter, Seconds(0.05));
        }
        assert_eq!(pmu.brownouts, 1);
        assert_eq!(pmu.state(), PmuState::ColdStart);
        // Recovery after power returns.
        for _ in 0..1_000_000 {
            if pmu.step(Watts::from_uw(200.0), NodeMode::Sleep, Seconds(0.05)) {
                break;
            }
        }
        assert!(pmu.is_active());
    }

    #[test]
    fn sustained_operation_when_harvest_exceeds_load() {
        let mut pmu = Pmu::vab_default();
        // Listen draws ~7 µW; rectified 50 µW input comfortably sustains it.
        for _ in 0..200_000 {
            pmu.step(Watts::from_uw(50.0), NodeMode::Listen, Seconds(0.01));
        }
        assert!(pmu.is_active());
        assert_eq!(pmu.brownouts, 0);
        assert!(pmu.availability() > 0.9, "availability {}", pmu.availability());
    }

    #[test]
    fn insufficient_harvest_never_wakes() {
        let mut pmu = Pmu::vab_default();
        // Below the rectifier dead zone.
        for _ in 0..10_000 {
            assert!(!pmu.step(Watts(20e-9), NodeMode::Sleep, Seconds(0.1)));
        }
        assert_eq!(pmu.state(), PmuState::ColdStart);
        assert!(pmu.cold_start_time(Watts(20e-9)).is_none());
    }

    #[test]
    fn availability_zero_before_any_time() {
        assert_eq!(Pmu::vab_default().availability(), 0.0);
    }

    #[test]
    fn leaky_cap_raises_the_sustain_threshold() {
        // 50 µW rectifies to ~32 µW: comfortably above the ~7 µW listen
        // draw, so the nominal node sustains. A 40 µW leak injected after
        // wake-up turns the balance negative and browns the node out.
        let mut pmu = Pmu::vab_default();
        while !pmu.is_active() {
            pmu.step(Watts::from_uw(50.0), NodeMode::Sleep, Seconds(0.05));
        }
        pmu.set_leak(Watts::from_uw(40.0));
        let mut brownouts_seen = false;
        for _ in 0..400_000 {
            pmu.step(Watts::from_uw(50.0), NodeMode::Listen, Seconds(0.01));
            if pmu.brownouts > 0 {
                brownouts_seen = true;
                break;
            }
        }
        assert!(brownouts_seen, "heavy leakage must eventually brown the node out");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        let _ = Pmu::new(
            Rectifier::schottky_doubler(),
            StorageCap::vab_default(),
            PowerBudget::vab_node(),
            Volts(1.0),
            Volts(2.0),
        );
    }
}
