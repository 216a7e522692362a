//! The channel seam: synthetic generation vs bank replay behind one trait.
//!
//! Every sample-level trial needs two propagation operators — the one-way
//! baseband channel (down- or uplink of a point-scatterer system) and the
//! Van Atta retrodirective *round trip* (a diagonal channel, not the
//! one-way response squared). [`ChannelSource`] is where a trial gets
//! them: [`SyntheticSource`] realizes a fresh image-method channel from
//! the trial RNG exactly as the engine always has, while [`BankSource`]
//! replays a recorded TVIR bank (`vab-replay`) starting at a random
//! offset into its snapshot timeline. Experiments thread a
//! `&dyn ChannelSource` through [`crate::montecarlo::GridPoint::with_source`]
//! and the rest of the DSP stack cannot tell the difference.

use crate::baseline::SystemKind;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::Arc;
use vab_acoustics::channel::{retro_round_trip, ImpulseResponse};
use vab_replay::{BankSpec, ReplayChannel, TvirBank};
use vab_util::complex::C64;

/// One trial's realized channel: both propagation operators, ready to
/// apply to complex-baseband envelopes. Both variants return the full
/// convolution (input length plus the channel's delay spread), the
/// synthetic `apply_baseband` convention.
#[derive(Debug, Clone)]
pub enum RealizedChannel {
    /// A freshly drawn image-method realization.
    Synthetic {
        /// One-way impulse response (reciprocal: reused both directions).
        ir: ImpulseResponse,
        /// Lazily built retrodirective round-trip response.
        retro: Option<ImpulseResponse>,
    },
    /// Replay of a recorded TVIR bank. Each convolver is built on first
    /// use (or by [`BankSource::realize`] for the one the trial's system
    /// applies) over the bank's shared rows. Boxed: a `ReplayChannel` owns
    /// its FFT plan and scratch, which would otherwise dwarf the synthetic
    /// variant.
    Replayed {
        /// The bank and this trial's start offset into it.
        start: ReplayStart,
        /// One-way replay convolver, once built.
        one_way: Option<Box<ReplayChannel>>,
        /// Van Atta round-trip replay convolver, once built.
        round_trip: Option<Box<ReplayChannel>>,
    },
}

/// Where a replayed trial starts: the bank's shared tap rows and the
/// trial's offset into its timeline.
#[derive(Debug, Clone)]
pub struct ReplayStart {
    rows: Arc<BankRows>,
    t0: f64,
}

impl ReplayStart {
    /// The one-way (`round_trip == false`) or round-trip replay convolver
    /// from this start, over the shared rows.
    fn channel(&self, round_trip: bool) -> Box<ReplayChannel> {
        let rows = &*self.rows;
        let taps = if round_trip { &rows.round_trip } else { &rows.one_way };
        Box::new(ReplayChannel::shared(taps.clone(), rows.dt, rows.fs, self.t0))
    }
}

/// A bank's tap rows as its trials replay them: moved out of the
/// [`TvirBank`] once, then shared by every trial's convolvers.
#[derive(Debug)]
struct BankRows {
    one_way: Arc<[Vec<C64>]>,
    round_trip: Arc<[Vec<C64>]>,
    /// Snapshot spacing, seconds.
    dt: f64,
    /// Bank sample rate, Hz.
    fs: f64,
}

impl RealizedChannel {
    /// Applies the one-way channel (full convolution).
    pub fn apply_one_way(&mut self, x: &[C64]) -> Vec<C64> {
        match self {
            RealizedChannel::Synthetic { ir, .. } => ir.apply_baseband(x),
            RealizedChannel::Replayed { start, one_way, .. } => {
                one_way.get_or_insert_with(|| start.channel(false)).apply(x)
            }
        }
    }

    /// Applies the Van Atta round-trip channel (each arrival retraces its
    /// own path: real positive power taps at doubled delays); full
    /// convolution.
    pub fn apply_round_trip(&mut self, x: &[C64]) -> Vec<C64> {
        match self {
            RealizedChannel::Synthetic { ir, retro } => {
                let retro = retro.get_or_insert_with(|| {
                    ImpulseResponse::from_arrivals(
                        retro_round_trip(ir.arrivals(), ir.carrier()),
                        ir.sample_rate(),
                        ir.carrier(),
                    )
                });
                retro.apply_baseband(x)
            }
            RealizedChannel::Replayed { start, round_trip, .. } => {
                round_trip.get_or_insert_with(|| start.channel(true)).apply(x)
            }
        }
    }
}

/// Where a sample-level trial's channel comes from. `Sync` because Monte
/// Carlo shards share one source across worker threads.
pub trait ChannelSource: Sync {
    /// Realizes the channel for one trial at baseband rate `fs`, drawing
    /// any randomness (path realization, replay start offset) from the
    /// trial RNG so results stay bit-reproducible across thread counts.
    fn realize(&self, scenario: &Scenario, fs: f64, rng: &mut StdRng) -> RealizedChannel;
}

/// The default source: a fresh image-method + surface-motion realization
/// per trial, identical to the engine's historical behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntheticSource;

impl ChannelSource for SyntheticSource {
    fn realize(&self, scenario: &Scenario, fs: f64, rng: &mut StdRng) -> RealizedChannel {
        let ch = vab_acoustics::channel::ChannelModel::new(
            scenario.env.clone(),
            scenario.reader_pos,
            scenario.node_pos,
            scenario.carrier(),
        );
        RealizedChannel::Synthetic { ir: ch.impulse_response(fs, rng), retro: None }
    }
}

/// Replays one recorded bank: every trial draws a uniform start offset
/// into the bank's snapshot span from the trial RNG, so trials sample
/// different stretches of the same recorded channel — the replay analogue
/// of "many packets through one deployment".
#[derive(Debug, Clone)]
pub struct BankSource {
    spec: BankSpec,
    rows: Arc<BankRows>,
}

impl BankSource {
    /// Wraps a bank for replay. Its tap rows move into storage that every
    /// trial's convolvers share, so a trial copies none of them.
    pub fn new(bank: TvirBank) -> Self {
        let TvirBank { spec, one_way, round_trip, .. } = bank;
        let rows = BankRows {
            one_way: one_way.into(),
            round_trip: round_trip.into(),
            dt: spec.snapshot_dt(),
            fs: spec.fs,
        };
        Self { spec, rows: Arc::new(rows) }
    }
}

impl ChannelSource for BankSource {
    /// Draws the start offset, then builds the one convolver the
    /// scenario's system applies: the Van Atta round trip for VAB, the
    /// one-way channel (both ways) for point scatterers. The other is
    /// built only if a caller applies it.
    fn realize(&self, scenario: &Scenario, fs: f64, rng: &mut StdRng) -> RealizedChannel {
        assert!(
            (fs - self.spec.fs).abs() < 1e-6,
            "trial baseband rate {fs} does not match bank rate {}",
            self.spec.fs
        );
        let span = self.spec.span_s;
        let t0 =
            if self.spec.n_snapshots > 1 && span > 0.0 { rng.random::<f64>() * span } else { 0.0 };
        let start = ReplayStart { rows: Arc::clone(&self.rows), t0 };
        let retro = matches!(scenario.system, SystemKind::Vab { .. });
        RealizedChannel::Replayed {
            one_way: (!retro).then(|| start.channel(false)),
            round_trip: retro.then(|| start.channel(true)),
            start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::SystemKind;
    use vab_replay::{BankSpec, WaterSpec};
    use vab_util::rng::seeded;
    use vab_util::units::Meters;

    fn test_wave(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::cis(i as f64 * 0.17).scale(1.0 + 0.2 * (i as f64 * 0.05).cos()))
            .collect()
    }

    #[test]
    fn synthetic_source_is_deterministic_per_seed() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(80.0));
        let fs = s.mod_params.baseband_fs();
        let x = test_wave(600);
        let src = SyntheticSource;
        let mut a = src.realize(&s, fs, &mut seeded(5));
        let mut b = src.realize(&s, fs, &mut seeded(5));
        assert_eq!(a.apply_round_trip(&x), b.apply_round_trip(&x));
        assert_eq!(a.apply_one_way(&x), b.apply_one_way(&x));
    }

    #[test]
    fn replayed_round_trip_matches_synthetic_on_a_calm_static_bank() {
        // A single-snapshot calm-ocean bank replays the *same* seeded
        // channel realization the synthetic source draws, and a mirror-calm
        // surface means no path moves — outputs must agree to FFT rounding
        // once past the filter's settle-in region (the direct
        // `apply_baseband` drops each arrival's fractional pre-onset
        // sample, the tap convolution keeps it).
        use vab_acoustics::environment::SeaState;
        let seed = 314;
        let s = Scenario::ocean(SystemKind::Vab { n_pairs: 4 }, Meters(60.0), SeaState::Calm);
        let fs = s.mod_params.baseband_fs();
        let spec = BankSpec {
            water: WaterSpec::Ocean { sea_state: 0 },
            range_m: 60.0,
            carrier_hz: s.carrier().value(),
            fs,
            n_snapshots: 1,
            span_s: 0.0,
            seed,
        };
        let bank = vab_replay::generate(&spec).unwrap();
        let n_taps = bank.round_trip[0].len();
        let x = test_wave(n_taps + 900);
        let mut replayed = BankSource::new(bank).realize(&s, fs, &mut seeded(seed));
        let mut synthetic = SyntheticSource.realize(&s, fs, &mut seeded(seed));
        let yr = replayed.apply_round_trip(&x);
        let ys = synthetic.apply_round_trip(&x);
        // Length conventions differ by a trailing zero-padding sample; the
        // populated region is identical.
        assert!(yr.len() >= x.len() && ys.len() >= x.len());
        let scale = ys.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1e-300);
        for i in n_taps..x.len() {
            assert!(
                (yr[i] - ys[i]).abs() < 1e-9 * scale,
                "replay diverges from synthetic at {i}: {:?} vs {:?}",
                yr[i],
                ys[i]
            );
        }
    }

    #[test]
    fn bank_replay_is_bit_reproducible_per_trial_seed() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 2 }, Meters(40.0));
        let fs = s.mod_params.baseband_fs();
        let spec = BankSpec {
            water: WaterSpec::River,
            range_m: 40.0,
            carrier_hz: s.carrier().value(),
            fs,
            n_snapshots: 3,
            span_s: 2.0,
            seed: 77,
        };
        let src = BankSource::new(vab_replay::generate(&spec).unwrap());
        let x = test_wave(500);
        let mut a = src.realize(&s, fs, &mut seeded(9));
        let mut b = src.realize(&s, fs, &mut seeded(9));
        assert_eq!(a.apply_round_trip(&x), b.apply_round_trip(&x));
        // A different trial seed starts elsewhere in the bank timeline.
        let mut c = src.realize(&s, fs, &mut seeded(10));
        assert_ne!(a.apply_round_trip(&x), c.apply_round_trip(&x));
    }

    #[test]
    fn bank_replay_builds_the_used_convolver_and_matches_a_copied_bank_bit_for_bit() {
        let spec = BankSpec {
            water: WaterSpec::River,
            range_m: 120.0,
            carrier_hz: 18_500.0,
            fs: Scenario::river(SystemKind::Pab, Meters(120.0)).mod_params.baseband_fs(),
            n_snapshots: 8,
            span_s: 1.0,
            seed: 21,
        };
        let bank = vab_replay::generate(&spec).unwrap();
        let src = BankSource::new(bank.clone());
        let x = test_wave(4_000);
        let bits =
            |v: &[C64]| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>();
        for (system, retro) in [(SystemKind::Vab { n_pairs: 4 }, true), (SystemKind::Pab, false)] {
            let s = Scenario::river(system, Meters(120.0));
            let mut realized = src.realize(&s, spec.fs, &mut seeded(3));
            let RealizedChannel::Replayed { one_way, round_trip, .. } = &realized else {
                panic!("a bank source replays");
            };
            assert_eq!((one_way.is_some(), round_trip.is_some()), (!retro, retro), "{system:?}");
            // The same start offset through channels over copied rows.
            let t0 = seeded(3).random::<f64>() * spec.span_s;
            let want_rt = bank.round_trip_channel(t0).apply(&x);
            let want_ow = bank.one_way_channel(t0).apply(&x);
            assert_eq!(bits(&realized.apply_round_trip(&x)), bits(&want_rt), "{system:?}");
            assert_eq!(bits(&realized.apply_one_way(&x)), bits(&want_ow), "{system:?}");
            // Built once, then reused: a second call replays the same bits.
            assert_eq!(bits(&realized.apply_one_way(&x)), bits(&want_ow), "{system:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match bank rate")]
    fn bank_replay_refuses_a_mismatched_sample_rate() {
        let spec = BankSpec {
            water: WaterSpec::River,
            range_m: 40.0,
            carrier_hz: 18_500.0,
            fs: 1600.0,
            n_snapshots: 1,
            span_s: 0.0,
            seed: 1,
        };
        let src = BankSource::new(vab_replay::generate(&spec).unwrap());
        let s = Scenario::river(SystemKind::Vab { n_pairs: 2 }, Meters(40.0));
        src.realize(&s, 999.0, &mut seeded(0));
    }
}
