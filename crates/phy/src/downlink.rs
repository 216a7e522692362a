//! The downlink: reader → node commands on an OOK-keyed carrier.
//!
//! A backscatter node cannot afford a real receiver; it decodes the
//! downlink with an **envelope detector** (rectifier + RC low-pass +
//! comparator) burning ~2 µW. That front end dictates the line code:
//! **pulse-interval encoding (PIE)**, the same choice EPC Gen2 RFID makes —
//! every symbol is a full-power interval followed by a short power-off
//! "pause"; the *length* of the full-power interval encodes the bit. PIE
//! keeps average power high (the node keeps harvesting during the
//! downlink!) and needs only a threshold and a counter to decode.
//!
//! Symbols (in units of the `tari` reference interval):
//! * `0` → high for 1·tari, low for 0.5·tari
//! * `1` → high for 2·tari, low for 0.5·tari
//! * frame delimiter → low for 2·tari (cannot appear inside data)

use vab_util::complex::C64;

/// PIE timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PieParams {
    /// Reference interval, seconds (Gen2-style: 25–100 µs in RF; acoustic
    /// links use milliseconds).
    pub tari_s: f64,
    /// Baseband sample rate used for waveform generation/detection.
    pub fs: f64,
}

impl PieParams {
    /// Acoustic default: 5 ms tari at 4 kHz envelope rate → ~130 bps
    /// average downlink (ample for commands).
    pub fn vab_default() -> Self {
        Self { tari_s: 5e-3, fs: 4000.0 }
    }

    fn tari_samples(&self) -> usize {
        (self.tari_s * self.fs).round() as usize
    }
}

/// Encodes bits into the carrier's on/off envelope (1.0 = full power).
/// A frame delimiter precedes the data.
pub fn pie_encode(bits: &[bool], p: &PieParams) -> Vec<f64> {
    let tari = p.tari_samples();
    let half = tari / 2;
    let mut env = Vec::with_capacity((bits.len() * 3 + 4) * tari);
    // Leading carrier so the node's detector can settle + charge.
    env.extend(std::iter::repeat_n(1.0, 2 * tari));
    // Delimiter: a long off period.
    env.extend(std::iter::repeat_n(0.0, 2 * tari));
    for &b in bits {
        let high = if b { 2 * tari } else { tari };
        env.extend(std::iter::repeat_n(1.0, high));
        env.extend(std::iter::repeat_n(0.0, half));
    }
    // Trailing carrier (back to harvesting).
    env.extend(std::iter::repeat_n(1.0, 2 * tari));
    env
}

/// The node's envelope detector: rectifier → single-pole RC low-pass →
/// hysteretic comparator. Operates on the *magnitude* of the complex
/// baseband (a real node rectifies the passband; at baseband that is the
/// envelope).
#[derive(Debug, Clone)]
pub struct EnvelopeDetector {
    /// Low-pass coefficient per sample (α = dt/RC).
    alpha: f64,
    /// Comparator thresholds relative to the tracked peak (hysteresis).
    hi_frac: f64,
    lo_frac: f64,
}

impl EnvelopeDetector {
    /// Detector matched to the PIE timing: RC ≈ tari/10 keeps edges sharp
    /// relative to the symbol scale.
    ///
    /// The comparator thresholds sit *low* relative to the tracked peak
    /// (12 % / 6 %): a PIE "off" is true silence from the projector, so the
    /// decision is on/off rather than strong/weak — and a slow narrowband
    /// fade of up to ~8× then passes straight through the slicer instead
    /// of blanking the frame.
    pub fn for_params(p: &PieParams) -> Self {
        // Fast RC (tari/20) so the envelope clears the low OFF threshold
        // well inside the half-tari symbol pause.
        let rc = p.tari_s / 20.0;
        let alpha = (1.0 / p.fs) / rc;
        Self { alpha: alpha.min(1.0), hi_frac: 0.12, lo_frac: 0.06 }
    }

    /// Converts a received complex baseband into a binary on/off stream.
    pub fn slice(&self, baseband: &[C64]) -> Vec<bool> {
        let mut lp = 0.0f64;
        let mut peak = 1e-12f64;
        let mut state = false;
        let mut out = Vec::with_capacity(baseband.len());
        for &x in baseband {
            let mag = x.abs();
            lp += self.alpha * (mag - lp);
            peak = peak.max(lp);
            // Slow peak decay tracks level changes over many symbols.
            peak *= 1.0 - self.alpha * 1e-2;
            if state {
                if lp < self.lo_frac * peak {
                    state = false;
                }
            } else if lp > self.hi_frac * peak {
                state = true;
            }
            out.push(state);
        }
        out
    }
}

/// Decodes a sliced on/off stream back into bits: debounces glitches
/// (multipath edge wiggle), finds the delimiter, then classifies each high
/// interval by length. Returns `None` when no delimiter is found.
pub fn pie_decode(sliced: &[bool], p: &PieParams) -> Option<Vec<bool>> {
    let tari = p.tari_samples() as f64;
    // Run-length encode.
    let mut runs: Vec<(bool, usize)> = Vec::new();
    for &s in sliced {
        match runs.last_mut() {
            Some((level, len)) if *level == s => *len += 1,
            _ => runs.push((s, 1)),
        }
    }
    // Debounce: multipath smearing can split a symbol with sub-tari/4
    // wiggles. Fold any run shorter than tari/4 into its predecessor and
    // re-merge until stable (the first run is kept — it is the pre-frame
    // idle level).
    let min_run = (tari / 4.0) as usize;
    loop {
        let mut merged: Vec<(bool, usize)> = Vec::with_capacity(runs.len());
        let mut changed = false;
        for &(level, len) in &runs {
            match merged.last_mut() {
                Some((prev_level, prev_len)) if *prev_level == level => {
                    *prev_len += len;
                    changed = true;
                }
                Some((prev_level, prev_len)) if len < min_run => {
                    // Absorb the glitch into the previous level.
                    let _ = prev_level;
                    *prev_len += len;
                    changed = true;
                }
                _ => merged.push((level, len)),
            }
        }
        runs = merged;
        if !changed {
            break;
        }
    }
    // Find the delimiter: an off-run of ≥ 1.5 tari.
    let delim = runs.iter().position(|&(level, len)| !level && len as f64 >= 1.5 * tari)?;
    // The final high run is the trailing carrier (the encoder always
    // appends one), not a data symbol.
    let last_high = runs.iter().rposition(|&(level, _)| level);
    let mut bits = Vec::new();
    let mut i = delim + 1;
    while i < runs.len() {
        let (level, len) = runs[i];
        if !level {
            // An off-run much longer than the symbol pause ends the frame.
            if len as f64 > 1.5 * tari && !bits.is_empty() {
                break;
            }
            i += 1;
            continue;
        }
        let high_tari = len as f64 / tari;
        if high_tari >= 2.6 {
            break; // fused trailing carrier, not a symbol
        }
        if Some(i) == last_high && high_tari >= 1.5 {
            break; // the trailing carrier itself
        }
        // Classify: ~1 tari → 0, ~2 tari → 1.
        bits.push(high_tari >= 1.5);
        i += 1;
    }
    Some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::{complex_gaussian, random_bits, seeded};

    fn p() -> PieParams {
        PieParams::vab_default()
    }

    fn to_baseband(env: &[f64], amp: f64, phase: f64) -> Vec<C64> {
        env.iter().map(|&e| C64::from_polar(amp * e, phase)).collect()
    }

    #[test]
    fn clean_roundtrip() {
        let bits = vec![true, false, false, true, true, false, true, false];
        let env = pie_encode(&bits, &p());
        let bb = to_baseband(&env, 1.0, 0.3);
        let det = EnvelopeDetector::for_params(&p());
        let sliced = det.slice(&bb);
        let decoded = pie_decode(&sliced, &p()).expect("delimiter found");
        assert_eq!(decoded, bits);
    }

    #[test]
    fn roundtrip_with_noise() {
        let mut rng = seeded(71);
        let bits = random_bits(&mut rng, 24);
        let env = pie_encode(&bits, &p());
        // 26 dB envelope SNR — generous, but the downlink rides the *full*
        // carrier (the same signal the node harvests µW from), so its SNR
        // at the node is enormous compared to the uplink's.
        let bb: Vec<C64> =
            env.iter().map(|&e| C64::real(20.0 * e) + complex_gaussian(&mut rng, 1.0)).collect();
        let det = EnvelopeDetector::for_params(&p());
        let decoded = pie_decode(&det.slice(&bb), &p()).expect("delimiter");
        assert_eq!(decoded, bits);
    }

    #[test]
    fn no_delimiter_no_decode() {
        let sliced = vec![true; 10_000];
        assert!(pie_decode(&sliced, &p()).is_none());
    }

    #[test]
    fn amplitude_scale_invariance() {
        // The comparator tracks its own peak: 20 dB level changes are fine.
        let bits = vec![false, true, true, false];
        let env = pie_encode(&bits, &p());
        for amp in [0.01, 1.0, 100.0] {
            let bb = to_baseband(&env, amp, 1.0);
            let det = EnvelopeDetector::for_params(&p());
            let decoded = pie_decode(&det.slice(&bb), &p()).expect("delimiter");
            assert_eq!(decoded, bits, "failed at amplitude {amp}");
        }
    }

    #[test]
    fn harvest_duty_is_high() {
        // PIE's raison d'être: the node keeps charging during commands.
        let bits = random_bits(&mut seeded(72), 64);
        let env = pie_encode(&bits, &p());
        let duty = env.iter().sum::<f64>() / env.len() as f64;
        assert!(duty > 0.65, "downlink power duty {duty}");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let env = pie_encode(&[], &p());
        let det = EnvelopeDetector::for_params(&p());
        let decoded =
            pie_decode(&det.slice(&to_baseband(&env, 1.0, 0.0)), &p()).expect("delimiter");
        assert!(decoded.is_empty());
    }
}
