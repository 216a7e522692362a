//! Multipath channel: image-method arrivals and signal application.
//!
//! The shallow-water column (surface at z = 0, bottom at z = depth) acts as
//! a waveguide. The image method enumerates eigenray families by mirroring
//! the source across the two boundaries; each arrival carries a delay, a
//! complex amplitude (spreading + absorption + boundary losses) and bounce
//! counts. Surface-interacting arrivals pick up sea-state-dependent Doppler.
//!
//! Two application paths:
//! * **Passband** ([`ImpulseResponse::apply_passband`]): real waveform in,
//!   fractional-delayed scaled copies out. Used by the DSP validation runs.
//! * **Complex baseband** ([`ImpulseResponse::apply_baseband`]): complex
//!   envelope around the carrier; each tap contributes a complex gain
//!   `a·e^{-j2πf₀τ}` plus a per-arrival Doppler rotation. Used by the Monte
//!   Carlo engine.

use crate::boundary::{rayleigh_reflection, surface_reflection, Medium};
use crate::environment::Environment;
use crate::geometry::Position;
use rand::{Rng, RngExt};
use vab_util::complex::C64;
use vab_util::resample::fractional_delay;
use vab_util::units::{Hertz, Meters};
use vab_util::TAU;

/// One eigenray arrival.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Propagation delay, seconds.
    pub delay_s: f64,
    /// Complex pressure amplitude relative to the source level at 1 m
    /// (spreading, absorption and boundary reflections included).
    pub gain: C64,
    /// Number of surface bounces along the path.
    pub n_surface: u32,
    /// Number of bottom bounces along the path.
    pub n_bottom: u32,
    /// Path length, metres.
    pub path_m: f64,
    /// Surface-wave phase modulation of this arrival (zero for the
    /// direct/bottom-only paths in a static geometry).
    pub surface_mod: SurfaceMod,
}

/// Bounded sinusoidal phase modulation impressed by moving surface waves:
/// `φ(t) = β·sin(2π·f·t + φ₀)`.
///
/// A *statically deployed* node under ripples does not see sustained
/// frequency offsets — the surface displaces each bounce point by at most
/// the wave height, so the path-phase excursion is bounded by the Rayleigh
/// roughness parameter β = 2kσ·sin θ (per bounce). The effective Doppler
/// spread is ≈ β·f_wave.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SurfaceMod {
    /// Peak phase excursion, radians.
    pub beta_rad: f64,
    /// Dominant surface-wave frequency, Hz.
    pub freq_hz: f64,
    /// Random initial phase of the wave, radians.
    pub phi_rad: f64,
}

impl SurfaceMod {
    /// A static (no-motion) path.
    pub const STATIC: SurfaceMod = SurfaceMod { beta_rad: 0.0, freq_hz: 0.0, phi_rad: 0.0 };

    /// Instantaneous extra phase at time `t` seconds.
    #[inline]
    fn phase_at(&self, t: f64) -> f64 {
        if self.beta_rad == 0.0 {
            0.0
        } else {
            self.beta_rad * (TAU * self.freq_hz * t + self.phi_rad).sin()
        }
    }

    /// True when the path does not move.
    fn is_static(&self) -> bool {
        self.beta_rad == 0.0
    }

    /// Effective (RMS-ish) Doppler spread β·f of this modulation, Hz.
    pub fn doppler_spread_hz(&self) -> f64 {
        self.beta_rad * self.freq_hz
    }
}

impl Arrival {
    /// True for the direct (no-bounce) path.
    pub fn is_direct(&self) -> bool {
        self.n_surface == 0 && self.n_bottom == 0
    }
}

/// Image-method channel between two fixed points in an [`Environment`].
#[derive(Debug, Clone)]
pub struct ChannelModel {
    env: Environment,
    tx: Position,
    rx: Position,
    carrier: Hertz,
    /// Maximum total bounce count to enumerate.
    max_bounces: u32,
    /// Arrivals weaker than this fraction of the direct path are dropped.
    amplitude_floor: f64,
    /// Coherent loss per boundary interaction from non-specular scattering,
    /// dB (applied on top of the Rayleigh reflection coefficient).
    bounce_scattering_db: f64,
}

impl ChannelModel {
    /// Creates a channel between `tx` and `rx` at carrier `f`.
    ///
    /// The scenario builders only produce in-column geometries; the image
    /// method silently produces nonsense (or NaN delays) on others.
    pub fn new(env: Environment, tx: Position, rx: Position, carrier: Hertz) -> Self {
        Self {
            env,
            tx,
            rx,
            carrier,
            max_bounces: 4,
            amplitude_floor: 1e-3,
            bounce_scattering_db: 2.0,
        }
    }

    /// Environment reference.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Enumerates eigenray arrivals via the image method.
    ///
    /// `rng` supplies the per-arrival Doppler draw for surface paths; pass a
    /// seeded RNG for reproducibility.
    pub fn arrivals<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Arrival> {
        let c = self.env.sound_speed();
        let depth = self.env.depth.value();
        let alpha = self.env.absorption_db_per_km(self.carrier);
        let spreading = self.env.spreading;
        let lambda = c / self.carrier.value();
        let k_wave = TAU / lambda;
        let sigma_h = self.env.sea_state.wave_height_rms_m();
        let wave_freq = self.env.sea_state.wave_freq_hz();
        let scatter_amp = 10f64.powf(-self.bounce_scattering_db / 20.0);

        let horiz = self.tx.horizontal_range(&self.rx).value().max(1e-6);
        let zs = self.tx.z;
        let zr = self.rx.z;

        let mut out = Vec::new();
        let direct_len = self.tx.distance_to(&self.rx).value().max(1e-6);

        // Image method for a two-boundary waveguide. For order n ≥ 0 there
        // are four image families; their vertical offsets are the classic
        //   z1 = 2nD + zr − zs   (n_s = n,   n_b = n)
        //   z2 = 2nD + zr + zs   (n_s = n+1, n_b = n)    [first bounce: surface]
        //   z3 = 2(n+1)D − zr − zs (n_s = n, n_b = n+1)  [first bounce: bottom]
        //   z4 = 2(n+1)D − zr + zs (n_s = n+1, n_b = n+1)
        for n in 0..=self.max_bounces {
            let families: [(f64, u32, u32); 4] = [
                (2.0 * n as f64 * depth + zr - zs, n, n),
                (2.0 * n as f64 * depth + zr + zs, n + 1, n),
                (2.0 * (n + 1) as f64 * depth - zr - zs, n, n + 1),
                (2.0 * (n + 1) as f64 * depth - zr + zs, n + 1, n + 1),
            ];
            for &(dz, n_s, n_b) in &families {
                if n_s + n_b > self.max_bounces {
                    continue;
                }
                if n == 0 && n_s == 0 && n_b == 0 && dz.abs() < 1e-12 && (zr - zs).abs() > 1e-12 {
                    // degenerate guard; the direct path is family 1 at n = 0
                }
                let path = (horiz * horiz + dz * dz).sqrt().max(1e-6);
                let grazing = (dz.abs() / horiz).atan();

                // Spreading (amplitude) + absorption along the path.
                let spread_amp = 10f64.powf(-spreading.loss(Meters(path)).value() / 20.0);
                let absorb_amp = 10f64.powf(-alpha * path / 1000.0 / 20.0);

                // Boundary losses.
                let mut refl = C64::ONE;
                if n_s > 0 {
                    let rs = surface_reflection(grazing, k_wave, sigma_h);
                    for _ in 0..n_s {
                        refl *= rs;
                    }
                }
                if n_b > 0 {
                    let rb = rayleigh_reflection(Medium::water(), self.env.bottom, grazing);
                    for _ in 0..n_b {
                        refl *= rb;
                    }
                }

                // Non-specular scattering at each boundary interaction
                // removes energy from the coherent path (real boundaries
                // are never the ideal mirrors of the image method).
                let scatter = scatter_amp.powi((n_s + n_b) as i32);
                let gain = refl * (spread_amp * absorb_amp * scatter);
                if gain.abs() < self.amplitude_floor * direct_amp(direct_len, spreading, alpha) {
                    continue;
                }

                // Surface motion: only surface-touching paths move in a
                // static geometry. The per-bounce phase excursion is the
                // Rayleigh roughness parameter; bounces accumulate as a
                // random walk (√n).
                let surface_mod = if n_s > 0 && sigma_h > 0.0 {
                    let beta = 2.0 * k_wave * sigma_h * grazing.sin() * (n_s as f64).sqrt();
                    SurfaceMod {
                        beta_rad: beta,
                        freq_hz: wave_freq,
                        phi_rad: rng.random::<f64>() * TAU,
                    }
                } else {
                    SurfaceMod::STATIC
                };

                out.push(Arrival {
                    delay_s: path / c,
                    gain,
                    n_surface: n_s,
                    n_bottom: n_b,
                    path_m: path,
                    surface_mod,
                });
            }
        }
        out.sort_by(|a, b| a.delay_s.total_cmp(&b.delay_s));
        out.dedup_by(|a, b| {
            (a.delay_s - b.delay_s).abs() < 1e-9
                && a.n_surface == b.n_surface
                && a.n_bottom == b.n_bottom
        });
        out
    }

    /// Builds a sampled impulse response at rate `fs`.
    pub fn impulse_response<R: Rng + ?Sized>(&self, fs: f64, rng: &mut R) -> ImpulseResponse {
        ImpulseResponse { arrivals: self.arrivals(rng), fs, carrier: self.carrier }
    }
}

fn direct_amp(path: f64, spreading: crate::spreading::Spreading, alpha: f64) -> f64 {
    10f64.powf(-spreading.loss(Meters(path)).value() / 20.0)
        * 10f64.powf(-alpha * path / 1000.0 / 20.0)
}

/// Conjugation efficiency of a Van Atta retrodirective bounce path: the
/// fraction of a boundary-interacting arrival's power the array re-launches
/// coherently back along its own path. The direct path retro-reflects with
/// unit efficiency.
pub const RETRO_CONJ_EFF: f64 = 0.6;

/// The Van Atta round trip as a single *diagonal* channel.
///
/// A retrodirective node conjugates each arrival's phase, so every path
/// retraces itself: the round trip collapses to real positive taps
/// `η·|aᵢ|²` at delays `2τᵢ` (time-reversal property), pre-rotated so the
/// carrier phase the baseband application adds cancels out. Convolving the
/// one-way channel twice would instead create cross-path terms (down path
/// i, up path j) that a real Van Atta scatters away from the reader.
/// Surface motion is traversed twice, so the phase excursion doubles.
pub fn retro_round_trip(arrivals: &[Arrival], carrier: Hertz) -> Vec<Arrival> {
    arrivals
        .iter()
        .map(|a| {
            let eff = if a.is_direct() { 1.0 } else { RETRO_CONJ_EFF };
            let power_gain = eff * a.gain.norm_sq();
            let g = C64::real(power_gain) * C64::cis(TAU * carrier.value() * 2.0 * a.delay_s);
            Arrival {
                gain: g,
                delay_s: 2.0 * a.delay_s,
                surface_mod: SurfaceMod { beta_rad: 2.0 * a.surface_mod.beta_rad, ..a.surface_mod },
                ..*a
            }
        })
        .collect()
}

/// A sampled multipath impulse response ready to apply to waveforms.
#[derive(Debug, Clone)]
pub struct ImpulseResponse {
    arrivals: Vec<Arrival>,
    fs: f64,
    carrier: Hertz,
}

impl ImpulseResponse {
    /// Builds directly from arrivals (used by tests and the fading model).
    pub fn from_arrivals(arrivals: Vec<Arrival>, fs: f64, carrier: Hertz) -> Self {
        Self { arrivals, fs, carrier }
    }

    /// The arrival list, sorted by delay.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Sample rate the response was built for.
    pub fn sample_rate(&self) -> f64 {
        self.fs
    }

    /// Carrier frequency the response was built for.
    pub fn carrier(&self) -> Hertz {
        self.carrier
    }

    /// Number of baseband taps needed to represent the response as an FIR
    /// vector: the last arrival's integer delay plus interpolation slack.
    fn tap_count(&self) -> usize {
        let max_delay = self.arrivals.last().map_or(0.0, |a| a.delay_s);
        (max_delay * self.fs).ceil() as usize + 2
    }

    /// Samples the response as a baseband FIR tap vector with every
    /// surface-motion rotation **frozen at time `t`** — one snapshot of
    /// the time-varying impulse response. A bank of these snapshots is
    /// what the replay substrate stores; convolving with taps interpolated
    /// between snapshots reproduces [`ImpulseResponse::apply_baseband`] to
    /// within the snapshot spacing.
    ///
    /// The tap placement mirrors `apply_baseband`'s input-side linear
    /// interpolation exactly, so a static channel replayed through these
    /// taps matches the synthetic application to FFT rounding.
    pub fn baseband_taps_at(&self, t: f64) -> Vec<C64> {
        let mut taps = vec![C64::ZERO; self.tap_count().max(1)];
        for a in &self.arrivals {
            let tap = a.gain * C64::cis(-TAU * self.carrier.value() * a.delay_s);
            let rot = if a.surface_mod.is_static() {
                C64::ONE
            } else {
                C64::cis(a.surface_mod.phase_at(t))
            };
            let g = tap * rot;
            let d = a.delay_s * self.fs;
            let di = d.floor() as usize;
            let frac = d - di as f64;
            // apply_baseband interpolates on the input (contribution of
            // x[i] and x[i+1] lands at i + ⌊d⌋), which is tap weight
            // (1−frac) at ⌊d⌋ and frac at ⌊d⌋−1.
            if di < taps.len() {
                taps[di] += g.scale(1.0 - frac);
            }
            if frac != 0.0 && di >= 1 && di - 1 < taps.len() {
                taps[di - 1] += g.scale(frac);
            }
        }
        taps
    }

    /// Delay spread (last minus first arrival), seconds. Zero when fewer
    /// than two arrivals survive.
    pub fn delay_spread(&self) -> f64 {
        match (self.arrivals.first(), self.arrivals.last()) {
            (Some(f), Some(l)) => l.delay_s - f.delay_s,
            _ => 0.0,
        }
    }

    /// Coherent sum of tap gains at the carrier — the narrowband channel
    /// transfer coefficient H(f₀).
    pub fn narrowband_gain(&self) -> C64 {
        self.arrivals
            .iter()
            .map(|a| a.gain * C64::cis(-TAU * self.carrier.value() * a.delay_s))
            .sum()
    }

    /// Applies the channel to a **real passband** waveform sampled at the
    /// response's rate. Doppler is ignored here (used for calm-water DSP
    /// validation, where it is negligible over a packet).
    pub fn apply_passband(&self, x: &[f64]) -> Vec<f64> {
        if self.arrivals.is_empty() || x.is_empty() {
            return vec![0.0; x.len()];
        }
        let max_delay = self.arrivals.last().map_or(0.0, |a| a.delay_s);
        let out_len = x.len() + (max_delay * self.fs).ceil() as usize + 40;
        let mut y = vec![0.0; out_len];
        for a in &self.arrivals {
            // A real reflection coefficient scales; a complex one (total
            // internal reflection) is approximated by its real projection at
            // the carrier — exact for the passband CW case.
            let delayed = fractional_delay(x, a.delay_s * self.fs, 32);
            let scale_re = a.gain.re;
            let scale_im = a.gain.im;
            if scale_im.abs() < 1e-12 {
                for (i, v) in delayed.iter().enumerate() {
                    if i < out_len {
                        y[i] += scale_re * v;
                    }
                }
            } else {
                // Apply the complex gain as magnitude × extra phase delay at
                // the carrier: Δτ = −arg/2πf₀.
                let mag = a.gain.abs();
                let extra = -a.gain.arg() / (TAU * self.carrier.value());
                let shifted = fractional_delay(x, (a.delay_s + extra).max(0.0) * self.fs, 32);
                for (i, v) in shifted.iter().enumerate() {
                    if i < out_len {
                        y[i] += mag * v;
                    }
                }
            }
        }
        y
    }

    /// Applies the channel to a **complex baseband** envelope around the
    /// carrier. Each tap contributes `gain·e^{-j2πf₀τ}` with the envelope
    /// delayed by τ, and surface taps rotate at their Doppler shift.
    pub fn apply_baseband(&self, x: &[C64]) -> Vec<C64> {
        if self.arrivals.is_empty() || x.is_empty() {
            return vec![C64::ZERO; x.len()];
        }
        let max_delay = self.arrivals.last().map_or(0.0, |a| a.delay_s);
        let out_len = x.len() + (max_delay * self.fs).ceil() as usize + 2;
        let mut y = vec![C64::ZERO; out_len];
        for a in &self.arrivals {
            let tap = a.gain * C64::cis(-TAU * self.carrier.value() * a.delay_s);
            let d = a.delay_s * self.fs;
            let di = d.floor() as usize;
            let frac = d - di as f64;
            for (i, &xi) in x.iter().enumerate() {
                // Linear-interp fractional delay is fine at baseband where
                // the envelope is heavily oversampled.
                let contrib = if frac == 0.0 {
                    xi
                } else if i + 1 < x.len() {
                    xi * (1.0 - frac) + x[i + 1] * frac
                } else {
                    xi * (1.0 - frac)
                };
                let idx = i + di;
                if idx < out_len {
                    let rot = if a.surface_mod.is_static() {
                        C64::ONE
                    } else {
                        C64::cis(a.surface_mod.phase_at(idx as f64 / self.fs))
                    };
                    y[idx] += tap * rot * contrib;
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{Environment, SeaState};
    use vab_util::rng::seeded;

    const F: Hertz = Hertz(18_500.0);

    fn river_channel(range: f64) -> ChannelModel {
        ChannelModel::new(
            Environment::river(),
            Position::new(0.0, 0.0, 2.0),
            Position::new(range, 0.0, 2.0),
            F,
        )
    }

    #[test]
    fn direct_path_is_first_and_strongest() {
        let mut rng = seeded(1);
        let arr = river_channel(50.0).arrivals(&mut rng);
        assert!(!arr.is_empty());
        assert!(arr[0].is_direct());
        let direct = arr[0].gain.abs();
        for a in &arr[1..] {
            assert!(a.gain.abs() <= direct + 1e-12, "bounce path louder than direct");
        }
    }

    #[test]
    fn direct_delay_matches_geometry() {
        let mut rng = seeded(2);
        let ch = river_channel(100.0);
        let arr = ch.arrivals(&mut rng);
        let c = ch.environment().sound_speed();
        let want = 100.0 / c;
        assert!((arr[0].delay_s - want).abs() < 1e-6);
    }

    #[test]
    fn multipath_exists_in_shallow_water() {
        let mut rng = seeded(3);
        let arr = river_channel(50.0).arrivals(&mut rng);
        assert!(arr.len() >= 3, "shallow water must produce bounce paths, got {}", arr.len());
        assert!(arr.iter().any(|a| a.n_surface > 0));
        assert!(arr.iter().any(|a| a.n_bottom > 0));
    }

    #[test]
    fn arrivals_sorted_by_delay() {
        let mut rng = seeded(4);
        let arr = river_channel(75.0).arrivals(&mut rng);
        for w in arr.windows(2) {
            assert!(w[0].delay_s <= w[1].delay_s);
        }
    }

    #[test]
    fn longer_range_weaker_direct_path() {
        let mut rng = seeded(5);
        let near = river_channel(20.0).arrivals(&mut rng)[0].gain.abs();
        let far = river_channel(200.0).arrivals(&mut rng)[0].gain.abs();
        assert!(far < near / 3.0);
    }

    #[test]
    fn calm_sea_has_zero_doppler() {
        let mut rng = seeded(6);
        let mut env = Environment::ocean(SeaState::Calm);
        env.sea_state = SeaState::Calm;
        let ch =
            ChannelModel::new(env, Position::new(0.0, 0.0, 5.0), Position::new(80.0, 0.0, 5.0), F);
        for a in ch.arrivals(&mut rng) {
            assert!(a.surface_mod.is_static());
        }
    }

    #[test]
    fn rough_sea_surface_paths_carry_doppler() {
        let mut rng = seeded(7);
        let ch = ChannelModel::new(
            Environment::ocean(SeaState::Rippled),
            Position::new(0.0, 0.0, 5.0),
            Position::new(80.0, 0.0, 5.0),
            F,
        );
        let arr = ch.arrivals(&mut rng);
        let surface_paths: Vec<_> = arr.iter().filter(|a| a.n_surface > 0).collect();
        assert!(!surface_paths.is_empty(), "ripples should not kill the coherent surface path");
        assert!(surface_paths.iter().any(|a| !a.surface_mod.is_static()));
        // Static paths stay static.
        for a in arr.iter().filter(|a| a.n_surface == 0) {
            assert!(a.surface_mod.is_static());
        }
    }

    #[test]
    fn moderate_sea_destroys_coherent_surface_paths() {
        // At SS4 the Rayleigh roughness parameter is ≫ 1 at 18.5 kHz, so the
        // *coherent* surface bounce drops below the enumeration floor.
        let mut rng = seeded(17);
        let ch = ChannelModel::new(
            Environment::ocean(SeaState::Moderate),
            Position::new(0.0, 0.0, 5.0),
            Position::new(80.0, 0.0, 5.0),
            F,
        );
        let arr = ch.arrivals(&mut rng);
        assert!(
            arr.iter().all(|a| a.n_surface == 0),
            "coherent surface paths should vanish at SS4"
        );
        // The direct and bottom-bounce structure remains.
        assert!(arr.iter().any(|a| a.is_direct()));
    }

    #[test]
    fn passband_apply_delays_and_scales() {
        // Single artificial arrival: pure delay + scale.
        let arr = vec![Arrival {
            delay_s: 10.0 / 48000.0,
            gain: C64::real(0.5),
            n_surface: 0,
            n_bottom: 0,
            path_m: 1.0,
            surface_mod: SurfaceMod::STATIC,
        }];
        let ir = ImpulseResponse::from_arrivals(arr, 48000.0, F);
        let x = vec![0.0, 0.0, 1.0, 0.0, 0.0];
        let y = ir.apply_passband(&x);
        assert!(
            (y[12] - 0.5).abs() < 1e-9,
            "impulse should land at 12 scaled 0.5, y[12]={}",
            y[12]
        );
    }

    #[test]
    fn baseband_apply_includes_carrier_phase() {
        let tau = 1.0 / (4.0 * F.value()); // quarter carrier cycle
        let arr = vec![Arrival {
            delay_s: tau,
            gain: C64::ONE,
            n_surface: 0,
            n_bottom: 0,
            path_m: 1.0,
            surface_mod: SurfaceMod::STATIC,
        }];
        let fs = 4000.0; // envelope rate; tau ≪ one envelope sample
        let ir = ImpulseResponse::from_arrivals(arr, fs, F);
        let x = vec![C64::ONE; 8];
        let y = ir.apply_baseband(&x);
        // Steady-state gain should be e^{-jπ/2} = −j.
        let g = y[4];
        assert!((g.re).abs() < 1e-6 && (g.im + 1.0).abs() < 1e-6, "got {g}");
    }

    #[test]
    fn narrowband_gain_matches_baseband_steady_state() {
        // Calm water: no Doppler, so steady state must equal H(f₀) exactly.
        let mut rng = seeded(8);
        let mut env = Environment::river();
        env.sea_state = SeaState::Calm;
        let ch =
            ChannelModel::new(env, Position::new(0.0, 0.0, 2.0), Position::new(40.0, 0.0, 2.0), F);
        let ir = ch.impulse_response(4000.0, &mut rng);
        let h = ir.narrowband_gain();
        let x = vec![C64::ONE; 200];
        let y = ir.apply_baseband(&x);
        // Steady state after the delay spread has filled.
        let idx = y.len() - 50;
        assert!((y[idx] - h).abs() < 0.05 * h.abs().max(1e-9), "y={} h={}", y[idx], h);
    }

    #[test]
    fn delay_spread_positive_in_shallow_water() {
        let mut rng = seeded(9);
        let ir = river_channel(60.0).impulse_response(48000.0, &mut rng);
        assert!(ir.delay_spread() > 0.0);
        // Bounce geometry bound: extra path ≤ a few× depth at this range.
        assert!(ir.delay_spread() < 0.05);
    }

    #[test]
    fn frozen_taps_reproduce_static_baseband_application() {
        // Calm water: the TVIR snapshot at any time IS the channel, so
        // convolving with the sampled taps must reproduce apply_baseband.
        let mut rng = seeded(21);
        let mut env = Environment::river();
        env.sea_state = SeaState::Calm;
        let ch =
            ChannelModel::new(env, Position::new(0.0, 0.0, 2.0), Position::new(40.0, 0.0, 2.0), F);
        let ir = ch.impulse_response(4000.0, &mut rng);
        let taps = ir.baseband_taps_at(0.0);
        assert_eq!(taps.len(), ir.tap_count());
        let x: Vec<C64> =
            (0..300).map(|i| C64::new((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos())).collect();
        let direct = ir.apply_baseband(&x);
        let via_taps = vab_util::ola::convolve_fft_c64(&x, &taps);
        let scale = direct.iter().map(|v| v.abs()).fold(1e-12, f64::max);
        let n = direct.len().min(via_taps.len());
        // apply_baseband clips each arrival's fractional-interp share of
        // x[0] (a one-sample onset transient per arrival); the taps keep
        // it. Compare once every onset has filled.
        for i in taps.len()..n {
            assert!(
                (via_taps[i] - direct[i]).abs() < 1e-9 * scale,
                "i={i}: {} vs {}",
                via_taps[i],
                direct[i]
            );
        }
    }

    #[test]
    fn retro_round_trip_doubles_delays_with_real_positive_power_taps() {
        let mut rng = seeded(22);
        let arr = river_channel(60.0).arrivals(&mut rng);
        let rt = retro_round_trip(&arr, F);
        assert_eq!(rt.len(), arr.len());
        for (a, r) in arr.iter().zip(&rt) {
            assert!((r.delay_s - 2.0 * a.delay_s).abs() < 1e-15);
            let eff = if a.is_direct() { 1.0 } else { RETRO_CONJ_EFF };
            // The pre-rotation leaves the magnitude at η·|a|².
            assert!((r.gain.abs() - eff * a.gain.norm_sq()).abs() < 1e-12);
            assert!((r.surface_mod.beta_rad - 2.0 * a.surface_mod.beta_rad).abs() < 1e-15);
        }
    }
}
