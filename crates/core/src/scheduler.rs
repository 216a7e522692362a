//! Harvest-aware duty-cycle scheduling.
//!
//! Past the battery-free sustain radius a node cannot listen continuously;
//! it must bank energy while sleeping and spend it in short listen/reply
//! windows. This module computes the sustainable schedule from first
//! principles (energy-neutral operation) and provides a planner the reader
//! uses to know *when* a far node will next be awake.

use vab_harvest::budget::{NodeMode, PowerBudget};
use vab_util::units::{Seconds, Watts};

/// Fraction of the harvested power the planner allows schedules to spend.
///
/// The remaining 10 % absorbs rectifier-efficiency drift, capacitor
/// leakage growth, and harvest estimation error — a schedule that needs
/// every harvested microwatt browns out on the first bad estimate.
pub const ENERGY_MARGIN: f64 = 0.9;

/// A periodic wake schedule: `period` seconds between wake-ups, each with a
/// listen window and (at most) one reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutySchedule {
    /// Wake-up period.
    pub period: Seconds,
    /// Listen window per wake-up.
    pub listen: Seconds,
    /// Reply (backscatter) window per wake-up.
    pub reply: Seconds,
}

/// Plans the most responsive energy-neutral schedule: the shortest wake
/// period such that `harvested` covers the average draw, for a fixed
/// listen window and reply window.
///
/// Returns `None` when even an arbitrarily long period cannot fund the
/// wake-ups (harvest below sleep floor + amortized wake cost → node dies).
pub fn plan_schedule(
    budget: &PowerBudget,
    harvested: Watts,
    listen: Seconds,
    reply: Seconds,
    max_period: Seconds,
) -> Option<DutySchedule> {
    let h = harvested.value() * ENERGY_MARGIN;
    let sleep = budget.total(NodeMode::Sleep).value();
    if h <= sleep {
        return None; // cannot even fund deep sleep
    }
    // Energy per wake-up beyond sleep baseline:
    let e_wake = (budget.total(NodeMode::Listen).value() - sleep) * listen.value()
        + (budget.total(NodeMode::Backscatter).value() - sleep) * reply.value();
    // Energy-neutral: h·T ≥ sleep·T + e_wake  →  T ≥ e_wake/(h − sleep).
    let t_min = e_wake / (h - sleep);
    let period = t_min.max(listen.value() + reply.value());
    if period > max_period.value() {
        return None;
    }
    Some(DutySchedule { period: Seconds(period), listen, reply })
}

/// The responsiveness frontier: wake period vs. harvested power, for
/// reporting (each row of the energy experiments).
pub fn min_period_s(
    budget: &PowerBudget,
    harvested: Watts,
    listen: Seconds,
    reply: Seconds,
) -> Option<f64> {
    plan_schedule(budget, harvested, listen, reply, Seconds(f64::INFINITY))
        .map(|s| s.period.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    fn budget() -> PowerBudget {
        PowerBudget::vab_node()
    }

    /// Whether `harvested` sustains `s` indefinitely (energy-neutral with
    /// the [`ENERGY_MARGIN`] headroom), with a relative tolerance so that a
    /// schedule planned exactly at the boundary still passes despite
    /// floating-point rounding.
    fn sustainable(s: &DutySchedule, budget: &PowerBudget, harvested: Watts) -> bool {
        harvested.value() * ENERGY_MARGIN >= average_power(s, budget).value() * (1.0 - 1e-9)
    }

    /// Average power drawn under `s`.
    fn average_power(s: &DutySchedule, budget: &PowerBudget) -> Watts {
        let p = s.period.value();
        budget.duty_cycled(s.listen.value() / p, s.reply.value() / p)
    }

    #[test]
    fn abundant_harvest_runs_continuously() {
        // 50 µW harvest ≫ 7 µW listen: the period collapses to the window.
        let s = plan_schedule(
            &budget(),
            Watts::from_uw(50.0),
            Seconds(2.0),
            Seconds(1.0),
            Seconds(3600.0),
        )
        .expect("sustainable");
        assert!(approx_eq(s.period.value(), 3.0, 1e-9), "period {}", s.period);
        assert!(sustainable(&s, &budget(), Watts::from_uw(50.0)));
    }

    #[test]
    fn scarce_harvest_stretches_the_period() {
        // 2 µW harvest: below the 6.95 µW listen draw — the node must sleep
        // most of the time.
        let s = plan_schedule(
            &budget(),
            Watts::from_uw(2.0),
            Seconds(2.0),
            Seconds(1.0),
            Seconds(3600.0),
        )
        .expect("sustainable with duty cycling");
        assert!(s.period.value() > 10.0, "period {}", s.period);
        assert!(s.listen.value() / s.period.value() < 0.2);
        assert!(sustainable(&s, &budget(), Watts::from_uw(2.0)));
        // And the schedule really is energy-neutral.
        assert!(average_power(&s, &budget()).value() <= 2e-6);
    }

    #[test]
    fn deeper_scarcity_means_longer_periods() {
        let period_at = |uw: f64| {
            min_period_s(&budget(), Watts::from_uw(uw), Seconds(2.0), Seconds(1.0)).expect("ok")
        };
        assert!(period_at(1.5) > period_at(3.0));
        assert!(period_at(3.0) > period_at(6.0));
    }

    #[test]
    fn below_sleep_floor_is_hopeless() {
        // Sleep draws 1.0 µW; harvesting 0.5 µW can never be neutral.
        assert!(plan_schedule(
            &budget(),
            Watts::from_uw(0.5),
            Seconds(1.0),
            Seconds(0.5),
            Seconds(1e6)
        )
        .is_none());
    }

    #[test]
    fn max_period_bound_is_respected() {
        // Sustainable only with a long period, but the caller caps it.
        let s =
            plan_schedule(&budget(), Watts::from_uw(1.5), Seconds(2.0), Seconds(1.0), Seconds(5.0));
        assert!(s.is_none(), "should refuse schedules beyond the responsiveness cap");
    }
}
