//! Unit newtypes for the sonar-equation arithmetic.
//!
//! These are deliberately thin: a `f64` wrapper with a named accessor and
//! only the arithmetic that is dimensionally meaningful. They exist to make
//! function signatures self-documenting (`fn absorption(f: Hertz) -> DbPerKm`)
//! and to stop metres/kilometres and dB-power/dB-amplitude mixups at compile
//! time, without dragging in a dimensional-analysis framework.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Raw numeric value in the unit named by the type.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two like quantities.
        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }
    };
}

unit!(
    /// A level or level-difference in decibels. The *reference* is contextual
    /// (`dB re 1 µPa` for underwater pressure levels, plain ratio for gains).
    Db, "dB");
unit!(
    /// Distance in metres.
    Meters, "m");
unit!(
    /// Frequency in hertz.
    Hertz, "Hz");
unit!(
    /// Time in seconds.
    Seconds, "s");
unit!(
    /// Power in watts.
    Watts, "W");
unit!(
    /// Angle in degrees.
    Degrees, "deg");
unit!(
    /// Electrical resistance/reactance magnitude in ohms.
    Ohms, "Ω");
unit!(
    /// Voltage in volts.
    Volts, "V");
unit!(
    /// Energy in joules.
    Joules, "J");
unit!(
    /// Acoustic pressure in pascals.
    Pascals, "Pa");

impl Hertz {
    /// Construct from kilohertz.
    #[inline]
    pub fn from_khz(khz: f64) -> Self {
        Hertz(khz * 1e3)
    }

    /// Value in kilohertz.
    #[inline]
    pub fn khz(self) -> f64 {
        self.0 / 1e3
    }

    /// Period of one cycle.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds(1.0 / self.0)
    }
}

impl Meters {
    /// Value in kilometres.
    #[inline]
    pub fn km(self) -> f64 {
        self.0 / 1e3
    }
}

impl Degrees {
    /// Conversion to radians.
    #[inline]
    pub fn radians(self) -> f64 {
        self.0.to_radians()
    }
}

impl Watts {
    /// Construct from microwatts — the natural unit for backscatter nodes.
    #[inline]
    pub fn from_uw(uw: f64) -> Self {
        Watts(uw * 1e-6)
    }

    /// Value in microwatts.
    #[inline]
    pub fn uw(self) -> f64 {
        self.0 * 1e6
    }
}

impl Seconds {
    /// Value in milliseconds.
    #[inline]
    pub fn ms(self) -> f64 {
        self.0 * 1e3
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Power × time = energy.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// Energy ÷ power = time (e.g. how long a capacitor sustains a load).
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Energy ÷ time = average power.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

/// Wavelength of an acoustic wave: `c / f`.
#[inline]
pub fn wavelength(sound_speed_mps: f64, f: Hertz) -> Meters {
    Meters(sound_speed_mps / f.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn arithmetic_and_ratio() {
        let a = Meters(300.0);
        let b = Meters(20.0);
        assert_eq!((a - b).value(), 280.0);
        assert!(approx_eq(a / b, 15.0, 1e-12));
        assert_eq!((2.0 * b).value(), 40.0);
    }

    #[test]
    fn khz_helpers() {
        assert_eq!(Hertz::from_khz(18.5).value(), 18_500.0);
        assert!(approx_eq(Hertz(18_500.0).khz(), 18.5, 1e-12));
    }

    #[test]
    fn energy_power_time_relations() {
        let e = Watts::from_uw(100.0) * Seconds(10.0);
        assert!(approx_eq(e.value(), 1e-3, 1e-12));
        let t = e / Watts::from_uw(50.0);
        assert!(approx_eq(t.value(), 20.0, 1e-12));
        let p = e / Seconds(2.0);
        assert!(approx_eq(p.uw(), 500.0, 1e-9));
    }

    #[test]
    fn degrees_radians_roundtrip() {
        let d = Degrees(45.0);
        assert!(approx_eq(d.radians().to_degrees(), 45.0, 1e-12));
    }

    #[test]
    fn wavelength_at_vab_carrier() {
        // 18.5 kHz in 1500 m/s water → ~8.1 cm wavelength.
        let lam = wavelength(1500.0, Hertz::from_khz(18.5));
        assert!(approx_eq(lam.value(), 0.0811, 1e-3));
    }

    #[test]
    fn display_has_units() {
        assert_eq!(format!("{}", Meters(3.0)), "3 m");
        assert_eq!(format!("{}", Db(-12.5)), "-12.5 dB");
    }
}
