//! Uplink rate adaptation.
//!
//! The reader measures per-frame outcomes and walks each node up and down
//! the rate table (100/250/500/1000 bps) — conservative up, fast down,
//! like wireless rate control everywhere: a drifting boat changes the
//! link budget by tens of dB over minutes and a fixed rate wastes either
//! airtime (too slow) or frames (too fast).
//!
//! The controller is deliberately simple enough to audit: consecutive
//! successes above a threshold promote one step; any `fail_down` failures
//! within a window demote one step and reset.

use crate::Addr;
use std::collections::HashMap;
use vab_core::commands::RATE_TABLE_BPS;

/// BER above which a measurement counts as a spike (immediate fallback).
pub const BER_SPIKE: f64 = 1e-2;

/// BER below which a window counts as clean (eligible to probe back up).
pub const BER_CLEAN: f64 = 1e-4;

/// Clean windows required before probing one rate up.
pub const CLEAN_WINDOWS_TO_PROBE: u32 = 4;

/// Per-node rate-control state.
#[derive(Debug, Clone, Copy)]
struct NodeRate {
    /// Index into [`RATE_TABLE_BPS`].
    code: u8,
    /// Consecutive successes at the current rate.
    streak: u32,
    /// Consecutive failures at the current rate.
    fails: u32,
    /// Consecutive clean BER windows at the current rate.
    clean: u32,
}

/// Reader-side adaptive rate controller.
#[derive(Debug, Clone)]
pub struct RateController {
    nodes: HashMap<Addr, NodeRate>,
    /// Successes needed before promoting.
    up_after: u32,
    /// Consecutive failures that force a demotion.
    down_after: u32,
    /// BER spike threshold (≥ → immediate one-step fallback).
    ber_spike: f64,
    /// Clean-window BER threshold (≤ → counts toward a probe).
    ber_clean: f64,
    /// Clean windows needed before probing up.
    clean_to_probe: u32,
    /// Rate changes issued (statistics).
    pub changes: u64,
    /// BER-spike fallbacks issued (statistics).
    pub spike_fallbacks: u64,
}

/// What the controller wants done after an outcome report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDecision {
    /// Keep the current rate.
    Hold,
    /// Send a `SetRate` command with this rate code.
    Change {
        /// New index into [`RATE_TABLE_BPS`].
        rate_code: u8,
    },
}

impl RateController {
    /// Default policy: promote after 8 clean frames, demote after 2
    /// consecutive losses. Starts everyone at the most robust rate.
    pub fn new() -> Self {
        Self::with_policy(8, 2)
    }

    /// Custom thresholds.
    pub fn with_policy(up_after: u32, down_after: u32) -> Self {
        assert!(up_after >= 1 && down_after >= 1);
        Self {
            nodes: HashMap::new(),
            up_after,
            down_after,
            ber_spike: BER_SPIKE,
            ber_clean: BER_CLEAN,
            clean_to_probe: CLEAN_WINDOWS_TO_PROBE,
            changes: 0,
            spike_fallbacks: 0,
        }
    }

    /// Emits the rate-change event/metric for one decision.
    fn trace_change(addr: Addr, rate_code: u8, reason: &'static str) {
        vab_obs::event!(
            "mac.rate_adapt",
            "rate_change",
            addr = addr,
            rate_code = rate_code,
            rate_bps = RATE_TABLE_BPS[rate_code as usize],
            reason = reason,
        );
        vab_obs::metrics::inc("rate_adapt.changes", 1);
    }

    fn entry(&mut self, addr: Addr) -> &mut NodeRate {
        self.nodes.entry(addr).or_insert(NodeRate { code: 0, streak: 0, fails: 0, clean: 0 })
    }

    /// Current rate code for a node.
    pub fn rate_code(&self, addr: Addr) -> u8 {
        self.nodes.get(&addr).map(|n| n.code).unwrap_or(0)
    }

    /// Current rate in bps.
    pub fn rate_bps(&self, addr: Addr) -> f64 {
        RATE_TABLE_BPS[self.rate_code(addr) as usize]
    }

    /// Reports a frame outcome for `addr`; returns the control decision.
    pub fn on_outcome(&mut self, addr: Addr, success: bool) -> RateDecision {
        let (up_after, down_after) = (self.up_after, self.down_after);
        let max_code = (RATE_TABLE_BPS.len() - 1) as u8;
        let n = self.entry(addr);
        if success {
            n.fails = 0;
            n.streak += 1;
            if n.streak >= up_after && n.code < max_code {
                n.code += 1;
                n.streak = 0;
                self.changes += 1;
                Self::trace_change(addr, self.rate_code(addr), "outcome_up");
                return RateDecision::Change { rate_code: self.rate_code(addr) };
            }
        } else {
            n.streak = 0;
            n.fails += 1;
            if n.fails >= down_after && n.code > 0 {
                n.code -= 1;
                n.fails = 0;
                self.changes += 1;
                Self::trace_change(addr, self.rate_code(addr), "outcome_down");
                return RateDecision::Change { rate_code: self.rate_code(addr) };
            }
            n.fails = n.fails.min(down_after); // saturate at the floor rate
        }
        RateDecision::Hold
    }

    /// Reports a measured BER for a decoding window of `addr` — the
    /// spike/clean degradation path that complements the frame-outcome
    /// walk:
    ///
    /// * BER ≥ spike threshold → fall back one rate *immediately* (no
    ///   waiting for `down_after` consecutive frame losses — a noise storm
    ///   at 1000 bps costs whole frames while the outcome counter winds
    ///   up);
    /// * BER ≤ clean threshold for `clean_to_probe` consecutive windows →
    ///   probe one rate up (the impairment has passed);
    /// * anything between → hold and reset the clean streak.
    pub fn on_ber_sample(&mut self, addr: Addr, ber: f64) -> RateDecision {
        let (spike, clean, to_probe) = (self.ber_spike, self.ber_clean, self.clean_to_probe);
        let max_code = (RATE_TABLE_BPS.len() - 1) as u8;
        let n = self.entry(addr);
        if ber >= spike {
            n.clean = 0;
            n.streak = 0;
            n.fails = 0;
            if n.code > 0 {
                n.code -= 1;
                self.changes += 1;
                self.spike_fallbacks += 1;
                Self::trace_change(addr, self.rate_code(addr), "ber_spike");
                return RateDecision::Change { rate_code: self.rate_code(addr) };
            }
        } else if ber <= clean {
            n.clean += 1;
            if n.clean >= to_probe && n.code < max_code {
                n.code += 1;
                n.clean = 0;
                self.changes += 1;
                Self::trace_change(addr, self.rate_code(addr), "clean_probe");
                return RateDecision::Change { rate_code: self.rate_code(addr) };
            }
        } else {
            n.clean = 0;
        }
        RateDecision::Hold
    }
}

impl Default for RateController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_the_floor() {
        let rc = RateController::new();
        assert_eq!(rc.rate_code(7), 0);
        assert_eq!(rc.rate_bps(7), 100.0);
    }

    #[test]
    fn promotes_after_streak() {
        let mut rc = RateController::with_policy(3, 2);
        assert_eq!(rc.on_outcome(1, true), RateDecision::Hold);
        assert_eq!(rc.on_outcome(1, true), RateDecision::Hold);
        assert_eq!(rc.on_outcome(1, true), RateDecision::Change { rate_code: 1 });
        assert_eq!(rc.rate_bps(1), 250.0);
    }

    #[test]
    fn demotes_after_consecutive_failures() {
        let mut rc = RateController::with_policy(2, 2);
        // Climb to 500 bps.
        for _ in 0..4 {
            rc.on_outcome(1, true);
        }
        assert_eq!(rc.rate_code(1), 2);
        assert_eq!(rc.on_outcome(1, false), RateDecision::Hold);
        assert_eq!(rc.on_outcome(1, false), RateDecision::Change { rate_code: 1 });
        assert_eq!(rc.rate_code(1), 1);
    }

    #[test]
    fn single_failure_does_not_demote() {
        let mut rc = RateController::with_policy(2, 2);
        rc.on_outcome(1, true);
        rc.on_outcome(1, true); // now at code 1
        rc.on_outcome(1, false);
        assert_eq!(rc.rate_code(1), 1, "one loss must not demote");
        rc.on_outcome(1, true); // success resets the fail counter
        rc.on_outcome(1, false);
        assert_eq!(rc.rate_code(1), 1);
    }

    #[test]
    fn saturates_at_table_edges() {
        let mut rc = RateController::with_policy(1, 1);
        for _ in 0..10 {
            rc.on_outcome(1, true);
        }
        assert_eq!(rc.rate_code(1), 3, "caps at the top rate");
        for _ in 0..10 {
            rc.on_outcome(1, false);
        }
        assert_eq!(rc.rate_code(1), 0, "floors at the bottom rate");
    }

    #[test]
    fn nodes_are_independent() {
        let mut rc = RateController::with_policy(1, 1);
        rc.on_outcome(1, true);
        assert_eq!(rc.rate_code(1), 1);
        assert_eq!(rc.rate_code(2), 0);
    }

    #[test]
    fn ber_spike_falls_back_immediately() {
        let mut rc = RateController::with_policy(1, 4);
        for _ in 0..3 {
            rc.on_outcome(1, true);
        }
        assert_eq!(rc.rate_code(1), 3);
        // One spiked window demotes without waiting for 4 frame losses.
        assert_eq!(rc.on_ber_sample(1, 5e-2), RateDecision::Change { rate_code: 2 });
        assert_eq!(rc.spike_fallbacks, 1);
        // At the floor a spike holds (nowhere left to fall).
        let mut floor = RateController::new();
        assert_eq!(floor.on_ber_sample(2, 1.0), RateDecision::Hold);
        assert_eq!(floor.rate_code(2), 0);
    }

    #[test]
    fn clean_windows_probe_back_up() {
        let mut rc = RateController {
            ber_spike: 1e-2,
            ber_clean: 1e-4,
            clean_to_probe: 3,
            ..RateController::new()
        };
        rc.on_ber_sample(1, 0.0);
        rc.on_ber_sample(1, 0.0);
        assert_eq!(rc.on_ber_sample(1, 0.0), RateDecision::Change { rate_code: 1 });
        // A mid-band window resets the clean streak.
        rc.on_ber_sample(1, 0.0);
        rc.on_ber_sample(1, 1e-3);
        rc.on_ber_sample(1, 0.0);
        rc.on_ber_sample(1, 0.0);
        assert_eq!(rc.rate_code(1), 1, "streak must restart after a dirty window");
        assert_eq!(rc.on_ber_sample(1, 0.0), RateDecision::Change { rate_code: 2 });
    }

    #[test]
    fn spike_then_clean_recovers_the_rate() {
        let mut rc = RateController {
            ber_spike: 1e-2,
            ber_clean: 1e-4,
            clean_to_probe: 2,
            ..RateController::new()
        };
        rc.on_ber_sample(3, 0.0);
        rc.on_ber_sample(3, 0.0); // → code 1
        rc.on_ber_sample(3, 0.5); // spike → back to 0
        assert_eq!(rc.rate_code(3), 0);
        rc.on_ber_sample(3, 0.0);
        rc.on_ber_sample(3, 0.0);
        assert_eq!(rc.rate_code(3), 1, "clean windows win the rate back");
    }

    #[test]
    fn converges_to_channel_capacity() {
        // A channel that supports ≤ 500 bps: frames at 1000 bps always
        // fail, everything else succeeds. The controller must settle at
        // code 2 and oscillate gently around it.
        let mut rc = RateController::new();
        let mut at_rate = [0u32; 4];
        for _ in 0..400 {
            let code = rc.rate_code(9);
            let success = code < 3;
            rc.on_outcome(9, success);
            at_rate[code as usize] += 1;
        }
        assert!(at_rate[2] > 200, "should dwell at 500 bps, distribution {at_rate:?}");
        assert!(at_rate[0] < 40, "should not hide at the floor");
    }
}
