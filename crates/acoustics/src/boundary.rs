//! Boundary interactions: sea surface and bottom reflection.

use vab_util::complex::C64;

/// Acoustic properties of a half-space medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Medium {
    /// Density, kg/m³.
    pub density: f64,
    /// Compressional sound speed, m/s.
    pub sound_speed: f64,
}

impl Medium {
    /// Characteristic impedance ρc (Pa·s/m).
    pub fn impedance(&self) -> f64 {
        self.density * self.sound_speed
    }

    /// Water at nominal conditions.
    pub fn water() -> Self {
        Self { density: 1000.0, sound_speed: 1500.0 }
    }

    /// Air (for the water→air pressure-release surface).
    fn air() -> Self {
        Self { density: 1.225, sound_speed: 343.0 }
    }

    /// Typical river mud bottom.
    pub fn mud() -> Self {
        Self { density: 1400.0, sound_speed: 1520.0 }
    }

    /// Sandy coastal bottom.
    pub fn sand() -> Self {
        Self { density: 1900.0, sound_speed: 1650.0 }
    }
}

/// Rayleigh plane-wave reflection coefficient at a fluid–fluid interface for
/// a wave in `from` hitting `into` at `grazing_rad` grazing angle (measured
/// from the interface plane).
///
/// Returns a complex coefficient: beyond the critical angle the magnitude is
/// 1 with a phase shift (total internal reflection).
pub fn rayleigh_reflection(from: Medium, into: Medium, grazing_rad: f64) -> C64 {
    let theta = grazing_rad.clamp(1e-6, std::f64::consts::FRAC_PI_2);
    let z1 = from.impedance();
    // Snell: cos θ2 = (c2/c1)·cos θ1 (grazing-angle convention).
    let cos2 = (into.sound_speed / from.sound_speed) * theta.cos();
    if cos2.abs() <= 1.0 {
        let sin2 = (1.0 - cos2 * cos2).sqrt();
        let z2 = into.impedance();
        let num = z2 * theta.sin() - z1 * sin2;
        let den = z2 * theta.sin() + z1 * sin2;
        C64::real(num / den)
    } else {
        // Evanescent transmission: |R| = 1, phase from imaginary sin θ2.
        let sin2_im = (cos2 * cos2 - 1.0).sqrt();
        let z2 = into.impedance();
        let num = C64::new(z2 * theta.sin(), -z1 * sin2_im);
        let den = C64::new(z2 * theta.sin(), z1 * sin2_im);
        num / den
    }
}

/// Surface reflection coefficient with sea-state roughness loss.
///
/// A flat water–air surface is an almost perfect pressure-release reflector
/// (R ≈ −1). Roughness scatters energy out of the coherent path; the
/// coherent loss follows the Rayleigh roughness parameter
/// `Γ = 2·k·σ·sin(θ)` as `R_rough = R_flat · exp(−Γ²/2)`.
///
/// * `wave_height_rms_m` — RMS surface displacement σ
/// * `k` — acoustic wavenumber 2π/λ
pub fn surface_reflection(grazing_rad: f64, k: f64, wave_height_rms_m: f64) -> C64 {
    let flat = rayleigh_reflection(Medium::water(), Medium::air(), grazing_rad);
    let gamma = 2.0 * k * wave_height_rms_m * grazing_rad.sin();
    flat * (-gamma * gamma / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    /// A rock bottom.
    const ROCK: Medium = Medium { density: 2500.0, sound_speed: 3000.0 };

    #[test]
    fn water_air_is_pressure_release() {
        let r = rayleigh_reflection(Medium::water(), Medium::air(), 0.5);
        assert!(r.re < -0.99, "water→air should reflect with R ≈ −1, got {r}");
    }

    #[test]
    fn water_rock_is_strongly_reflective() {
        let r = rayleigh_reflection(Medium::water(), ROCK, 1.2);
        assert!(r.re > 0.3, "hard bottom should reflect strongly, got {r}");
    }

    #[test]
    fn mud_reflects_weaker_than_sand() {
        let g = 0.8;
        let mud = rayleigh_reflection(Medium::water(), Medium::mud(), g).abs();
        let sand = rayleigh_reflection(Medium::water(), Medium::sand(), g).abs();
        assert!(mud < sand, "mud {mud} vs sand {sand}");
    }

    #[test]
    fn beyond_critical_angle_total_reflection() {
        // Water→rock at very shallow grazing: cosθ2 > 1 → |R| = 1.
        let r = rayleigh_reflection(Medium::water(), ROCK, 0.05);
        assert!(approx_eq(r.abs(), 1.0, 1e-9), "|R| = {}", r.abs());
    }

    #[test]
    fn reflection_magnitude_bounded() {
        for g in [0.01, 0.3, 0.8, 1.5] {
            for m in [Medium::air(), Medium::mud(), Medium::sand(), ROCK] {
                let r = rayleigh_reflection(Medium::water(), m, g).abs();
                assert!(r <= 1.0 + 1e-9, "unphysical |R| = {r}");
            }
        }
    }

    #[test]
    fn rough_surface_reduces_coherent_reflection() {
        let k = vab_util::TAU / 0.081; // 18.5 kHz wavenumber
        let calm = surface_reflection(0.3, k, 0.0).abs();
        let rough = surface_reflection(0.3, k, 0.05).abs();
        let very_rough = surface_reflection(0.3, k, 0.25).abs();
        assert!(approx_eq(calm, 1.0, 1e-2));
        assert!(rough < calm);
        assert!(very_rough < 0.1, "heavy sea should kill the coherent path, got {very_rough}");
    }
}
