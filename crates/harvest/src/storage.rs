//! Storage capacitor dynamics.

use vab_util::units::{Joules, Seconds, Volts, Watts};

/// A storage capacitor integrated over time by the PMU.
#[derive(Debug, Clone, Copy)]
pub struct StorageCap {
    /// Capacitance, farads.
    pub capacitance: f64,
    /// Maximum (regulated) voltage.
    pub v_max: Volts,
    /// Present voltage.
    v: f64,
    /// Parasitic leakage drawn continuously, watts. Nominal caps model
    /// this as zero; fault injection steps it up to emulate an aging or
    /// damaged capacitor.
    leak: f64,
}

impl StorageCap {
    /// Creates a capacitor at 0 V.
    pub fn new(capacitance: f64, v_max: Volts) -> Self {
        assert!(capacitance > 0.0 && v_max.value() > 0.0);
        Self { capacitance, v_max, v: 0.0, leak: 0.0 }
    }

    /// The VAB node default: 100 µF to 3.0 V.
    pub fn vab_default() -> Self {
        Self::new(100e-6, Volts(3.0))
    }

    /// Present voltage.
    pub fn voltage(&self) -> Volts {
        Volts(self.v)
    }

    /// Stored energy `½CV²`.
    pub fn energy(&self) -> Joules {
        Joules(0.5 * self.capacitance * self.v * self.v)
    }

    /// Energy capacity at `v_max`.
    pub fn capacity(&self) -> Joules {
        Joules(0.5 * self.capacitance * self.v_max.value() * self.v_max.value())
    }

    /// Integrates net power (`harvest − load − leak`) over `dt`. Voltage
    /// clamps to `[0, v_max]` (a real PMU shunts surplus at `v_max`).
    /// Returns the actual energy delta applied.
    pub fn step(&mut self, harvest: Watts, load: Watts, dt: Seconds) -> Joules {
        let before = self.energy().value();
        let net = (harvest.value() - load.value() - self.leak) * dt.value();
        let e_new = (before + net).clamp(0.0, self.capacity().value());
        self.v = (2.0 * e_new / self.capacitance).sqrt();
        Joules(e_new - before)
    }

    /// Sets the parasitic leakage power (fault injection). Negative values
    /// clamp to zero.
    pub fn set_leak(&mut self, leak: Watts) {
        self.leak = leak.value().max(0.0);
    }

    /// Present parasitic leakage power.
    pub fn leak(&self) -> Watts {
        Watts(self.leak)
    }

    /// Time to charge from empty to `v_target` at constant net power.
    pub fn charge_time(&self, v_target: Volts, net: Watts) -> Option<Seconds> {
        if net.value() <= 0.0 {
            return None;
        }
        let e = 0.5 * self.capacitance * v_target.value().powi(2);
        Some(Seconds(e / net.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    #[test]
    fn charges_toward_vmax_and_clamps() {
        let mut c = StorageCap::new(1e-6, Volts(2.0));
        for _ in 0..1000 {
            c.step(Watts(1e-6), Watts(0.0), Seconds(0.01));
        }
        assert!(approx_eq(c.voltage().value(), 2.0, 1e-9), "v = {}", c.voltage());
        // Further charging does nothing.
        let delta = c.step(Watts(1e-6), Watts(0.0), Seconds(1.0));
        assert_eq!(delta.value(), 0.0);
    }

    #[test]
    fn discharges_under_load_and_floors_at_zero() {
        let mut c = StorageCap::vab_default();
        c.v = 3.0;
        let e0 = c.energy().value();
        c.step(Watts(0.0), Watts::from_uw(100.0), Seconds(1.0));
        assert!(approx_eq(e0 - c.energy().value(), 1e-4, 1e-9));
        // Massive load floors at zero, never negative.
        c.step(Watts(0.0), Watts(1.0), Seconds(10.0));
        assert_eq!(c.voltage().value(), 0.0);
        assert_eq!(c.energy().value(), 0.0);
    }

    #[test]
    fn energy_voltage_relation() {
        let mut c = StorageCap::new(100e-6, Volts(3.0));
        c.v = 2.0;
        assert!(approx_eq(c.energy().value(), 0.5 * 100e-6 * 4.0, 1e-12));
    }

    #[test]
    fn charge_time_matches_integration() {
        let mut c = StorageCap::new(10e-6, Volts(3.0));
        let net = Watts::from_uw(5.0);
        let predicted = c.charge_time(Volts(2.0), net).expect("positive net").value();
        let mut t = 0.0;
        while c.voltage().value() < 2.0 {
            c.step(net, Watts(0.0), Seconds(0.001));
            t += 0.001;
        }
        assert!(approx_eq(t, predicted, 0.01), "sim {t} vs predicted {predicted}");
    }

    #[test]
    fn no_charge_time_without_surplus() {
        let c = StorageCap::vab_default();
        assert!(c.charge_time(Volts(1.0), Watts(0.0)).is_none());
        assert!(c.charge_time(Volts(1.0), Watts(-1e-6)).is_none());
    }

    #[test]
    fn leakage_drains_the_cap() {
        let mut leaky = StorageCap::vab_default();
        let mut clean = StorageCap::vab_default();
        leaky.v = 3.0;
        clean.v = 3.0;
        leaky.set_leak(Watts::from_uw(5.0));
        for _ in 0..1000 {
            leaky.step(Watts(0.0), Watts(0.0), Seconds(0.01));
            clean.step(Watts(0.0), Watts(0.0), Seconds(0.01));
        }
        assert!(approx_eq(clean.voltage().value(), 3.0, 1e-9), "no self-discharge nominally");
        // 5 µW × 10 s = 50 µJ out of 450 µJ: v = sqrt(2·400e-6/100e-6) ≈ 2.83.
        assert!(approx_eq(leaky.voltage().value(), (2.0 * 400e-6 / 100e-6_f64).sqrt(), 1e-6));
        // Negative leak clamps to zero rather than becoming free energy.
        leaky.set_leak(Watts(-1.0));
        assert_eq!(leaky.leak().value(), 0.0);
    }
}
