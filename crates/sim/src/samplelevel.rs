//! Sample-level (waveform) simulation of one backscatter round trip.
//!
//! The honest path: complex-baseband envelopes through the image-method
//! channel in both directions, the node's actual Γ switching, carrier leak,
//! additive noise at the effective noise PSD, then the real synchronizer,
//! demodulator and link decoder. Used to validate the link-budget engine
//! and to exercise the full DSP stack in integration tests.

use crate::baseline::FrontEnd;
use crate::chansource::ChannelSource;
use crate::linkbudget::LinkBudget;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use vab_phy::carrier::remove_dc_sliding;
use vab_phy::demod::{count_bit_errors, Demodulator};
use vab_phy::modulation::BackscatterModulator;
use vab_phy::sync::Preamble;
use vab_util::complex::C64;
use vab_util::rng::{complex_gaussian, random_bits};

/// A synchronized, demodulated uplink: both decision domains for the
/// link-layer decoders.
#[derive(Debug, Clone)]
pub struct TransportedUplink {
    /// Hard channel-bit decisions (length = transmitted channel bits).
    pub hard_bits: Vec<bool>,
    /// Per-bit soft statistics (positive ⇒ 1), same length.
    pub soft_bits: Vec<f64>,
}

/// Transports `channel_bits` from the node to the reader at the waveform
/// level: preamble prepend → FM0 switch waveform → (retro) multipath round
/// trip over the channel `source` realizes → carrier leak + noise →
/// carrier strip → acquisition → per-bit demodulation. Returns `None` when
/// the synchronizer never locks.
///
/// `source` is the seam that lets the same DSP stack run on a freshly
/// synthesized channel ([`crate::chansource::SyntheticSource`]) or a replayed TVIR bank.
/// `amp_scale` scales the *modulated* reflection amplitude (1.0 for
/// nominal trials) — the waveform-level fault-injection hook. Resonance
/// drift across the array, bubble-cloud attenuation and impulsive-burst
/// penalties all reach the receiver as a weaker modulation sideband against
/// an unchanged noise floor, which is exactly what this models (the static
/// clutter and carrier leak are left untouched).
pub fn transport_uplink_via(
    scenario: &Scenario,
    fe: &FrontEnd,
    channel_bits: &[bool],
    amp_scale: f64,
    source: &dyn ChannelSource,
    rng: &mut StdRng,
) -> Option<TransportedUplink> {
    let preamble = Preamble::barker13();
    let rx = received_waveform(scenario, fe, &preamble, channel_bits, amp_scale, source, rng);

    // --- Receiver: carrier strip → sync → per-bit demod.
    let params = scenario.mod_params;
    let _demod_timer = vab_obs::time_stage("sim.demod");
    let cleaned = remove_dc_sliding(&rx, params.samples_per_bit() * 32);
    let (payload_start, _) = preamble.locate(&cleaned, &params, 2.5)?;
    let demod = Demodulator::new(params).without_dc_removal();
    let hard = demod.demodulate(&cleaned, payload_start, channel_bits.len());
    let mut soft = demod.soft_bits(&cleaned, payload_start, channel_bits.len());
    // Normalize so metric magnitudes are O(1) for soft decoders.
    let rms =
        (soft.iter().map(|m| m * m).sum::<f64>() / soft.len().max(1) as f64).sqrt().max(1e-300);
    for m in soft.iter_mut() {
        *m /= rms;
    }
    Some(TransportedUplink { hard_bits: hard, soft_bits: soft })
}

/// The reader's complex-baseband input for one uplink, before its
/// receiver runs: `preamble` and `channel_bits` switched by the node,
/// carried through the channel `source` realizes, plus the residual
/// carrier leak and noise.
fn received_waveform(
    scenario: &Scenario,
    fe: &FrontEnd,
    preamble: &Preamble,
    channel_bits: &[bool],
    amp_scale: f64,
    source: &dyn ChannelSource,
    rng: &mut StdRng,
) -> Vec<C64> {
    let params = scenario.mod_params;
    let fs = params.baseband_fs();
    let budget = LinkBudget::compute_with_front_end(scenario, fe);

    // --- Channel (reciprocal: one realization reused both ways).
    let mut realized = {
        let _t = vab_obs::time_stage("sim.channel_realization");
        source.realize(scenario, fs, rng)
    };

    // --- Node bit stream: preamble + coded payload.
    let mut tx_bits = preamble.bits().to_vec();
    tx_bits.extend_from_slice(channel_bits);

    // --- Incident field at the node (reader transmits CW).
    let source_amp = 10f64.powf(scenario.reader.source_level_db / 20.0);
    let modulator = BackscatterModulator::new(params);
    let chips = modulator.switch_waveform(&tx_bits);
    // The node waits for the field to establish before modulating.
    let direct_delay = scenario.range().value() / scenario.env.sound_speed();
    let lead = (direct_delay * fs).ceil() as usize + 64;
    let total = lead + chips.len() + 64;

    // --- Node reflection envelope (before the return trip).
    let mod_amp = fe.modulated_amplitude(scenario.incidence_angle()) * amp_scale.max(0.0);
    let array_gain = fe.array_gain(scenario.incidence_angle());
    // The un-modulated mean reflection also re-radiates with the array's
    // gain; it ends up as a DC-like clutter the receiver cancels.
    let clutter = fe.static_gamma() * array_gain;
    let gamma_at = |i: usize| -> C64 {
        let chip = if i >= lead && i - lead < chips.len() {
            chips[i - lead]
        } else {
            -1.0 // absorb state outside the packet
        };
        clutter + C64::real(chip * mod_amp)
    };

    // --- Round trip through the water.
    //
    // Retrodirective node (VAB): each arrival retraces its own path with
    // conjugated phase, so the round trip is a single *diagonal* channel
    // with real positive taps eta*|a_i|^2 at delays 2*tau_i (the
    // time-reversal property). Convolving the channel twice would instead
    // create cross-path terms (down path i, up path j) that a real Van
    // Atta scatters away from the reader - so we must not do that.
    //
    // Point-scatterer systems (PAB / conventional): the node multiplies the
    // *total* incident field and the uplink is a genuine second traversal
    // of the same channel.
    let transport_timer = vab_obs::time_stage("sim.waveform_transport");
    let uplink = match scenario.system {
        crate::baseline::SystemKind::Vab { .. } => {
            // The node modulates the carrier envelope directly; each path's
            // component carries the modulation back along itself (the
            // diagonal round-trip channel — see `retro_round_trip`).
            let node_signal: Vec<C64> = (0..total).map(|i| gamma_at(i) * source_amp).collect();
            realized.apply_round_trip(&node_signal)
        }
        _ => {
            let tx_envelope = vec![C64::real(source_amp); total];
            let incident = realized.apply_one_way(&tx_envelope);
            let reflected: Vec<C64> =
                incident.iter().enumerate().map(|(i, &x)| x * gamma_at(i)).collect();
            realized.apply_one_way(&reflected)
        }
    };
    let noise_sigma = (10f64.powf(budget.noise_psd_db / 10.0) * fs).sqrt();
    // Residual un-cancelled carrier: −50 dB of the direct coupling.
    let leak = C64::from_polar(source_amp * 10f64.powf(-50.0 / 20.0), 0.3);
    let rx: Vec<C64> =
        uplink.iter().map(|&v| v + leak + complex_gaussian(rng, noise_sigma)).collect();
    drop(transport_timer);
    rx
}

/// Decodes a transported uplink's channel bits back to information bits
/// using the link configuration (soft Viterbi for the convolutional code,
/// hard decoding otherwise).
pub fn decode_uplink(link: &vab_link::frame::LinkConfig, up: &TransportedUplink) -> Vec<bool> {
    if link.fec != vab_link::fec::Fec::Conv {
        return link.decode_bits(&up.hard_bits);
    }
    let mut soft = up.soft_bits.clone();
    // Impulsive-noise limiting: a snapping-shrimp transient produces a
    // huge (confidently wrong) metric that would dominate the Viterbi
    // path metric. Clip every metric to a few times the *median*
    // magnitude — medians ignore the snaps that inflate an RMS.
    let mut mags: Vec<f64> = soft.iter().map(|m| m.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let med = mags.get(mags.len() / 2).copied().unwrap_or(1.0).max(1e-300);
    let limit = 3.0 * med;
    for m in soft.iter_mut() {
        *m = m.clamp(-limit, limit);
    }
    link.decode_soft(&soft)
}

/// Runs one full waveform trial (encode → transport → decode) with random
/// payload bits, over the channel `source` realizes and with the modulated
/// amplitude scaled by `amp_scale` (see [`transport_uplink_via`]).
///
/// Returns `(info_bit_errors, packet_error, ebn0_db)` where the Eb/N0 is
/// the static link-budget value for reporting (the waveform itself carries
/// the actual fading).
pub fn run_sample_trial_via(
    scenario: &Scenario,
    fe: &FrontEnd,
    n_info_bits: usize,
    amp_scale: f64,
    source: &dyn ChannelSource,
    rng: &mut StdRng,
) -> (usize, bool, f64) {
    let budget = LinkBudget::compute_with_front_end(scenario, fe);
    let link = scenario.link_config();
    let info = random_bits(rng, n_info_bits);
    let channel_bits = link.encode_bits(&info);
    let Some(up) = transport_uplink_via(scenario, fe, &channel_bits, amp_scale, source, rng) else {
        return (n_info_bits, true, budget.ebn0_db); // sync lost: whole packet gone
    };
    let mut decoded = decode_uplink(&link, &up);
    decoded.truncate(n_info_bits);
    let errors = count_bit_errors(&info, &decoded);
    (errors, errors > 0, budget.ebn0_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::SystemKind;
    use crate::chansource::SyntheticSource;
    use crate::montecarlo::{run_point, MonteCarloConfig, TrialEngine};
    use crate::scenario::Scenario;
    use vab_util::rng::seeded;
    use vab_util::units::Meters;

    /// Acquisition's bounded pass decides real trial buffers on its own:
    /// at 100, 300 and 500 m in the river, at least 99% of carrier-stripped
    /// receive buffers never reach the exact scan.
    #[test]
    fn bounded_acquisition_decides_real_river_trial_buffers() {
        const TRIALS: u64 = 100;
        let preamble = Preamble::barker13();
        for range in [100.0, 300.0, 500.0] {
            let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(range));
            let fe = s.front_end();
            let params = s.mod_params;
            let mut decided = 0;
            for trial in 0..TRIALS {
                let mut rng = seeded(vab_util::rng::derive_seed(range as u64, trial));
                let bits = random_bits(&mut rng, 128);
                let rx =
                    received_waveform(&s, &fe, &preamble, &bits, 1.0, &SyntheticSource, &mut rng);
                let cleaned = remove_dc_sliding(&rx, params.samples_per_bit() * 32);
                if preamble.locate_fast(&cleaned, &params, 2.5).is_some() {
                    decided += 1;
                }
            }
            eprintln!("{range} m: the bounded pass decided {decided}/{TRIALS} buffers");
            assert!(decided * 100 >= 99 * TRIALS, "{range} m: {decided}/{TRIALS} decided");
        }
    }

    #[test]
    fn clean_short_range_trial_is_error_free() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(30.0));
        let fe = s.front_end();
        let mut rng = seeded(101);
        let (errors, pkt, _) = run_sample_trial_via(&s, &fe, 64, 1.0, &SyntheticSource, &mut rng);
        assert_eq!(errors, 0, "30 m river trial should be clean");
        assert!(!pkt);
    }

    #[test]
    fn pab_mostly_clean_at_very_short_range() {
        // A point-scatterer node can sit in a deterministic two-path null
        // at a specific geometry (that is exactly PAB's weakness), so test
        // across several ranges and require a clean majority.
        let mut clean = 0;
        for (i, d) in [6.0, 8.0, 10.0, 12.0, 14.0].iter().enumerate() {
            let s = Scenario::river(SystemKind::Pab, Meters(*d));
            let fe = s.front_end();
            let mut rng = seeded(102 + i as u64);
            let (errors, _, _) = run_sample_trial_via(&s, &fe, 64, 1.0, &SyntheticSource, &mut rng);
            if errors == 0 {
                clean += 1;
            }
        }
        assert!(clean >= 3, "only {clean}/5 short-range PAB geometries were clean");
    }

    #[test]
    fn extreme_range_fails() {
        let s = Scenario::river(SystemKind::Pab, Meters(2_000.0));
        let fe = s.front_end();
        let mut rng = seeded(103);
        let (errors, pkt, _) = run_sample_trial_via(&s, &fe, 64, 1.0, &SyntheticSource, &mut rng);
        assert!(pkt, "2 km PAB trial must fail");
        assert!(errors > 0);
    }

    #[test]
    fn sample_level_agrees_with_link_budget_at_high_snr() {
        // Both engines must report zero errors in the comfortable regime.
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(100.0));
        let mc_fast = MonteCarloConfig {
            trials: 8,
            bits_per_trial: 96,
            seed: 11,
            engine: TrialEngine::LinkBudget,
            threads: 2,
        };
        let mc_slow = MonteCarloConfig { engine: TrialEngine::SampleLevel, ..mc_fast };
        let fast = run_point(&s, &mc_fast);
        let slow = run_point(&s, &mc_slow);
        assert_eq!(fast.ber.errors(), 0, "link-budget engine");
        assert_eq!(slow.ber.errors(), 0, "sample-level engine");
    }

    #[test]
    fn ocean_waves_degrade_sample_trials() {
        // A moderate sea kills the coherent surface paths, costing the
        // retrodirective array several dB of multipath recombination gain -
        // at a marginal range that separates the two clearly.
        use vab_acoustics::environment::SeaState;
        let calm = Scenario::ocean(SystemKind::Vab { n_pairs: 4 }, Meters(170.0), SeaState::Calm);
        let rough =
            Scenario::ocean(SystemKind::Vab { n_pairs: 4 }, Meters(170.0), SeaState::Moderate);
        let fe_c = calm.front_end();
        let fe_r = rough.front_end();
        let mut errs_calm = 0;
        let mut errs_rough = 0;
        for seed in 0..12 {
            let (e, _, _) = run_sample_trial_via(
                &calm,
                &fe_c,
                64,
                1.0,
                &SyntheticSource,
                &mut seeded(200 + seed),
            );
            errs_calm += e;
            let (e, _, _) = run_sample_trial_via(
                &rough,
                &fe_r,
                64,
                1.0,
                &SyntheticSource,
                &mut seeded(200 + seed),
            );
            errs_rough += e;
        }
        assert!(
            errs_rough > errs_calm,
            "rough sea ({errs_rough}) should be worse than calm ({errs_calm})"
        );
    }
}
