//! Forward error correction.
//!
//! Three codes, matching what a µW-class node can actually afford to
//! *encode* (all three encoders are trivial shift-register logic; the heavy
//! Viterbi decoding runs on the reader):
//!
//! * repetition-n with majority decoding;
//! * Hamming(7,4) with single-error correction per block;
//! * convolutional K=7, rate ½ (the classic `(171, 133)` octal generators)
//!   with hard- or soft-decision Viterbi decoding.

/// Code selection carried in link configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fec {
    /// No coding.
    None,
    /// Repetition code with odd factor `n`.
    Repetition(usize),
    /// Hamming(7,4).
    Hamming74,
    /// Extended Golay(24,12): corrects 3 errors per 24-bit word.
    Golay24,
    /// Convolutional K=7 R=1/2 with Viterbi decoding.
    Conv,
}

impl Fec {
    /// Code rate (information bits per channel bit).
    pub fn rate(&self) -> f64 {
        match self {
            Fec::None => 1.0,
            Fec::Repetition(n) => 1.0 / *n as f64,
            Fec::Hamming74 => 4.0 / 7.0,
            Fec::Golay24 => 0.5,
            Fec::Conv => 0.5,
        }
    }

    /// Encodes information bits into channel bits.
    pub fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let _t = vab_obs::time_stage("fec.encode");
        match self {
            Fec::None => bits.to_vec(),
            Fec::Repetition(n) => repetition_encode(bits, *n),
            Fec::Hamming74 => hamming74_encode(bits),
            Fec::Golay24 => crate::golay::golay24_encode(bits),
            Fec::Conv => conv_encode(bits),
        }
    }

    /// Decodes channel bits back to information bits (hard decision).
    pub fn decode(&self, bits: &[bool]) -> Vec<bool> {
        let _t = vab_obs::time_stage("fec.decode");
        match self {
            Fec::None => bits.to_vec(),
            Fec::Repetition(n) => repetition_decode(bits, *n),
            Fec::Hamming74 => hamming74_decode(bits),
            Fec::Golay24 => crate::golay::golay24_decode(bits),
            Fec::Conv => conv_decode_hard(bits),
        }
    }

    /// Number of channel bits produced for `k` information bits.
    pub fn encoded_len(&self, k: usize) -> usize {
        match self {
            Fec::None => k,
            Fec::Repetition(n) => k * n,
            Fec::Hamming74 => k.div_ceil(4) * 7,
            Fec::Golay24 => k.div_ceil(12) * 24,
            Fec::Conv => (k + CONV_K - 1) * 2,
        }
    }
}

// --- Repetition --------------------------------------------------------

fn repetition_encode(bits: &[bool], n: usize) -> Vec<bool> {
    assert!(n >= 1 && n % 2 == 1, "repetition factor must be odd");
    let mut out = Vec::with_capacity(bits.len() * n);
    for &b in bits {
        out.extend(std::iter::repeat_n(b, n));
    }
    out
}

fn repetition_decode(bits: &[bool], n: usize) -> Vec<bool> {
    assert!(n >= 1 && n % 2 == 1, "repetition factor must be odd");
    bits.chunks(n).map(|c| c.iter().filter(|&&b| b).count() * 2 > c.len()).collect()
}

// --- Hamming(7,4) -------------------------------------------------------

/// Encodes 4-bit nibbles into 7-bit codewords `[d0 d1 d2 d3 p0 p1 p2]`.
/// Short tail nibbles are zero-padded (the framer carries the true length).
fn hamming74_encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(4) * 7);
    for chunk in bits.chunks(4) {
        let mut d = [false; 4];
        d[..chunk.len()].copy_from_slice(chunk);
        let p0 = d[0] ^ d[1] ^ d[2];
        let p1 = d[1] ^ d[2] ^ d[3];
        let p2 = d[0] ^ d[1] ^ d[3];
        out.extend_from_slice(&[d[0], d[1], d[2], d[3], p0, p1, p2]);
    }
    out
}

/// Decodes 7-bit blocks, correcting any single-bit error per block.
fn hamming74_decode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() / 7 * 4);
    for chunk in bits.chunks(7) {
        if chunk.len() < 7 {
            break; // incomplete trailing block carries no data
        }
        let mut w = [false; 7];
        w.copy_from_slice(chunk);
        // Syndromes of the three parity equations.
        let s0 = w[4] ^ w[0] ^ w[1] ^ w[2];
        let s1 = w[5] ^ w[1] ^ w[2] ^ w[3];
        let s2 = w[6] ^ w[0] ^ w[1] ^ w[3];
        // Map the syndrome to the erroneous position. Each position has a
        // unique signature (s0, s1, s2):
        // d0:(1,0,1) d1:(1,1,1) d2:(1,1,0) d3:(0,1,1) p0:(1,0,0) p1:(0,1,0) p2:(0,0,1)
        let flip = match (s0, s1, s2) {
            (true, false, true) => Some(0),
            (true, true, true) => Some(1),
            (true, true, false) => Some(2),
            (false, true, true) => Some(3),
            (true, false, false) => Some(4),
            (false, true, false) => Some(5),
            (false, false, true) => Some(6),
            (false, false, false) => None,
        };
        if let Some(i) = flip {
            w[i] = !w[i];
        }
        out.extend_from_slice(&w[..4]);
    }
    out
}

// --- Convolutional K=7 R=1/2 with Viterbi -------------------------------

/// Constraint length.
pub const CONV_K: usize = 7;
const G0: u32 = 0o171; // 1111001
const G1: u32 = 0o133; // 1011011
const STATES: usize = 1 << (CONV_K - 1);
/// Butterflies per trellis step: predecessors `(2j, 2j+1)` feed successors
/// `(j, j + HALF)`.
const HALF: usize = STATES / 2;

// Both generators tap the newest and the oldest register bit, so the two
// predecessors of a butterfly, and its two inputs, emit complementary
// output pairs. The decoder below relies on this.
const _: () = assert!(G0 & G1 & 1 != 0 && G0 & G1 & (1 << (CONV_K - 1)) != 0);

#[inline]
const fn parity(x: u32) -> bool {
    x.count_ones() % 2 == 1
}

/// Output pair `(o0 << 1) | o1` that even predecessor `2j` emits on input
/// 0. Odd predecessor `2j+1` on input 0, and `2j` on input 1, emit its
/// complement `3 − index`; `2j+1` on input 1 emits it again.
const BRANCH_INDEX: [usize; HALF] = {
    let mut table = [0; HALF];
    let mut j = 0;
    while j < HALF {
        let reg = (2 * j) as u32;
        table[j] = ((parity(reg & G0) as usize) << 1) | parity(reg & G1) as usize;
        j += 1;
    }
    table
};

/// Convolutional encoder; appends `K−1` zero tail bits to flush the
/// register, so output length is `2·(len + 6)`.
pub fn conv_encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity((bits.len() + CONV_K - 1) * 2);
    let mut reg: u32 = 0;
    for &b in bits.iter().chain(std::iter::repeat_n(&false, CONV_K - 1)) {
        reg = (reg >> 1) | ((b as u32) << (CONV_K - 1));
        out.push(parity(reg & G0));
        out.push(parity(reg & G1));
    }
    out
}

/// Hard-decision Viterbi: wraps the soft decoder with ±1 metrics.
fn conv_decode_hard(bits: &[bool]) -> Vec<bool> {
    let soft: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
    conv_decode_soft(&soft)
}

/// Sign of `m0` (`S0`) and of `m1` (`S1`) in the branch metric that even
/// predecessor `2j` emits on input 0: `+1.0` where [`BRANCH_INDEX`] sets
/// that output bit, `-1.0` where it clears it.
const BRANCH_SIGNS: [[f64; HALF]; 2] = {
    let mut signs = [[0.0; HALF]; 2];
    let mut j = 0;
    while j < HALF {
        signs[0][j] = if BRANCH_INDEX[j] & 2 != 0 { 1.0 } else { -1.0 };
        signs[1][j] = if BRANCH_INDEX[j] & 1 != 0 { 1.0 } else { -1.0 };
        j += 1;
    }
    signs
};

/// Soft-decision Viterbi decoder. Input is one metric per channel bit,
/// positive meaning "probably 1" (e.g. the demodulator's soft statistic).
/// A trailing odd metric is ignored. Returns the information bits (tail
/// removed).
///
/// The trellis runs as 32 radix-2 butterflies per step. Predecessors
/// `2j` and `2j+1` feed successors `j` (input 0) and `j + 32` (input 1).
/// Butterfly `j`'s "same" branch metric is `S0[j]·m0 + S1[j]·m1` with
/// ±1 signs from `BRANCH_SIGNS`, and its "flip" branch is the negation.
/// Add-compare-select keeps the odd predecessor only when its candidate
/// is strictly larger, so ties go to the even one. Path metrics ping-pong
/// between two stack arrays, two trellis steps per loop iteration (plus
/// one trailing step for an odd step count), so the arrays' roles are
/// fixed within the loop body. Each step records one `u64` decision word
/// whose bit `s` says "the odd predecessor won into state `s`".
/// Traceback from state 0 rebuilds the predecessor `((s & 31) << 1) | bit`
/// and reads the input bit as `s >> 5`. A call makes two allocations: the
/// decision words and the output.
///
/// On x86-64 the body runs compiled for the widest vector unit the CPU
/// has (AVX-512 or AVX2, detected at run time), else for the baseline
/// target; every build returns the same bits.
///
/// Contract: for finite metrics the output is identical, bit for bit, to
/// the scalar state-by-state decoder this replaced, ties included. Callers
/// pass finite metrics: `decode_uplink` sorts its soft statistics with
/// `expect("finite")` and clamps them to three times their median
/// magnitude, and the link-budget trials draw ±1 plus finite Gaussian
/// noise. Non-finite metrics never panic and still yield one bit per
/// information step, but `+∞ + −∞` makes NaN path metrics, so the decoded
/// bits are then unspecified.
pub fn conv_decode_soft(metrics: &[f64]) -> Vec<bool> {
    let _t = vab_obs::time_stage("fec.viterbi");
    wide::best()(metrics)
}

/// The body of [`conv_decode_soft`], inlined into each variant so that
/// every instruction set compiles the same source.
#[inline(always)]
fn decode(metrics: &[f64]) -> Vec<bool> {
    let n_steps = metrics.len() / 2;
    if n_steps < CONV_K {
        return Vec::new();
    }
    // The decoder state is the encoder register shifted down by one, i.e.
    // the last K−1 input bits, exactly mirroring [`conv_encode`]. The
    // encoder starts in state 0; every other state is unreachable.
    let mut a = [f64::NEG_INFINITY; STATES];
    let mut b = [f64::NEG_INFINITY; STATES];
    a[0] = 0.0;
    let mut decisions: Vec<u64> = Vec::with_capacity(n_steps);
    let mut two_steps = metrics.chunks_exact(4);
    for m in &mut two_steps {
        decisions.push(acs_step(&a, &mut b, m[0], m[1]));
        decisions.push(acs_step(&b, &mut a, m[2], m[3]));
    }
    if let [m0, m1, ..] = *two_steps.remainder() {
        decisions.push(acs_step(&a, &mut b, m0, m1));
    }
    // Traceback from state 0 (the tail flushes the encoder to 0).
    let n_info = n_steps - (CONV_K - 1);
    let (info, tail) = decisions.split_at(n_info);
    let prev = |state: usize, word: u64| ((state % HALF) << 1) | ((word >> state) & 1) as usize;
    let mut state = tail.iter().rev().fold(0, |s, &word| prev(s, word));
    let mut decoded = vec![false; n_info];
    for (bit, &word) in decoded.iter_mut().zip(info).rev() {
        *bit = state >= HALF;
        state = prev(state, word);
    }
    decoded
}

// [`decode`] compiled for AVX2 and AVX-512 as well, chosen at run time
// (see `vab_util::wide_bodies!`): each lane performs the same IEEE `f64`
// adds, subtracts, compares and selects as the baseline (SSE2) build, so
// every copy returns the same bits as [`decode`].
vab_util::wide_bodies!(mod wide for fn decode(metrics: &[f64]) -> Vec<bool>);

/// One add-compare-select step over all 32 butterflies: fills `next` from
/// `cur` and returns the step's decision word.
///
/// Butterflies go two at a time, so the even/odd split of `cur` is a pair
/// of lane shuffles, and the decision flags land in bytes that are packed
/// eight at a time. Against the reference decoder's branch metrics
/// `(±m0) + (±m1)`, every rewrite is exact: `±1.0 · m` is `±m`, `flip` is `−same`
/// because `(−x) + (−y) = −(x + y)` under round-to-nearest (up to the sign
/// of a zero sum, which no comparison sees and which a later nonzero
/// addend erases), and `odd − same` is `odd + flip` by definition.
#[inline(always)]
fn acs_step(cur: &[f64; STATES], next: &mut [f64; STATES], m0: f64, m1: f64) -> u64 {
    let [s0, s1] = &BRANCH_SIGNS;
    let (next_lo, next_hi) = next.split_at_mut(HALF);
    let mut lo_won = [0u8; HALF];
    let mut hi_won = [0u8; HALF];
    for (k, pair) in cur.chunks_exact(4).enumerate() {
        for (i, eo) in pair.chunks_exact(2).enumerate() {
            let j = 2 * k + i;
            let same = s0[j] * m0 + s1[j] * m1;
            let (even, odd) = (eo[0], eo[1]);
            let (lo_even, lo_odd) = (even + same, odd - same);
            let (hi_even, hi_odd) = (even - same, odd + same);
            let lo = lo_odd > lo_even;
            let hi = hi_odd > hi_even;
            next_lo[j] = if lo { lo_odd } else { lo_even };
            next_hi[j] = if hi { hi_odd } else { hi_even };
            lo_won[j] = lo as u8;
            hi_won[j] = hi as u8;
        }
    }
    pack_flags(&lo_won) | (pack_flags(&hi_won) << HALF)
}

/// Packs 32 bytes of 0/1 flags into a word whose bit `j` is byte `j`.
/// Eight bytes at a time: the multiply moves byte `i`'s low bit to bit
/// `56 + i` with no carries between the partial products.
#[inline(always)]
fn pack_flags(flags: &[u8; HALF]) -> u64 {
    let mut word = 0u64;
    for (k, bytes) in flags.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
        word |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngExt;
    use vab_util::rng::{random_bits, seeded};

    /// The scalar state-by-state soft Viterbi decoder that the butterfly
    /// decoder replaced, kept verbatim (minus its stage guard) as the oracle
    /// the butterfly must match bit for bit on finite input.
    fn conv_decode_soft_reference(metrics: &[f64]) -> Vec<bool> {
        let n_steps = metrics.len() / 2;
        if n_steps < CONV_K {
            return Vec::new();
        }
        // Trellis tables. The decoder state is the encoder register shifted
        // down by one — i.e. the last K−1 input bits. A step with input `inp`
        // reconstructs the full register `reg = state | inp << (K−1)`, emits the
        // two generator parities, and moves to `reg >> 1`, exactly mirroring
        // [`conv_encode`].
        let mut next_state = [[0usize; 2]; STATES];
        let mut outs = [[(false, false); 2]; STATES];
        for s in 0..STATES {
            for inp in 0..2 {
                let reg = (s as u32) | ((inp as u32) << (CONV_K - 1));
                outs[s][inp] = (parity(reg & G0), parity(reg & G1));
                next_state[s][inp] = (reg >> 1) as usize;
            }
        }
        const NEG: f64 = f64::NEG_INFINITY;
        let mut metric = vec![NEG; STATES];
        metric[0] = 0.0;
        // Survivor paths as packed input bits per step.
        let mut survivors: Vec<[u8; STATES]> = Vec::with_capacity(n_steps);
        let mut prev_state: Vec<[u16; STATES]> = Vec::with_capacity(n_steps);
        for step in 0..n_steps {
            let m0 = metrics[2 * step];
            let m1 = metrics[2 * step + 1];
            let mut new_metric = vec![NEG; STATES];
            let mut surv = [0u8; STATES];
            let mut prev = [0u16; STATES];
            for s in 0..STATES {
                if metric[s] == NEG {
                    continue;
                }
                for inp in 0..2 {
                    let (o0, o1) = outs[s][inp];
                    let branch = (if o0 { m0 } else { -m0 }) + (if o1 { m1 } else { -m1 });
                    let ns = next_state[s][inp];
                    let cand = metric[s] + branch;
                    if cand > new_metric[ns] {
                        new_metric[ns] = cand;
                        surv[ns] = inp as u8;
                        prev[ns] = s as u16;
                    }
                }
            }
            metric = new_metric;
            survivors.push(surv);
            prev_state.push(prev);
        }
        // Traceback from state 0 (the tail flushes the encoder to 0).
        let mut state = 0usize;
        let mut decoded = vec![false; n_steps];
        for step in (0..n_steps).rev() {
            decoded[step] = survivors[step][state] == 1;
            state = prev_state[step][state] as usize;
        }
        decoded.truncate(n_steps - (CONV_K - 1));
        decoded
    }

    /// Every body of the soft decoder this build carries, narrowest first:
    /// `Some` where this CPU can run it, `None` where it lacks the features.
    fn decoders() -> Vec<(&'static str, Option<wide::Body>)> {
        wide::all()
    }

    /// Asserts that [`conv_decode_soft`] and every body this CPU can run
    /// decode `soft` exactly as the reference does.
    fn assert_every_decoder_matches_reference(soft: &[f64], case: &str) {
        let want = conv_decode_soft_reference(soft);
        assert_eq!(conv_decode_soft(soft), want, "dispatched, {case}");
        for (name, body) in decoders() {
            if let Some(body) = body {
                assert_eq!(body(soft), want, "{name}, {case}");
            }
        }
    }

    #[test]
    fn repetition_roundtrip_and_correction() {
        let bits = vec![true, false, true, true, false];
        let mut coded = repetition_encode(&bits, 3);
        assert_eq!(coded.len(), 15);
        // Flip one chip per repeated group — all correctable.
        coded[0] = !coded[0];
        coded[4] = !coded[4];
        coded[14] = !coded[14];
        assert_eq!(repetition_decode(&coded, 3), bits);
    }

    #[test]
    fn hamming_roundtrip_clean() {
        let bits = random_bits(&mut seeded(41), 64);
        let coded = hamming74_encode(&bits);
        assert_eq!(coded.len(), 64 / 4 * 7);
        assert_eq!(hamming74_decode(&coded), bits);
    }

    #[test]
    fn hamming_corrects_any_single_error_per_block() {
        let bits = vec![true, false, true, true];
        let coded = hamming74_encode(&bits);
        for i in 0..7 {
            let mut c = coded.clone();
            c[i] = !c[i];
            assert_eq!(hamming74_decode(&c), bits, "failed to correct position {i}");
        }
    }

    #[test]
    fn hamming_pads_short_tail() {
        let bits = vec![true, true]; // half a nibble
        let decoded = hamming74_decode(&hamming74_encode(&bits));
        assert_eq!(&decoded[..2], &bits[..]);
        assert_eq!(decoded.len(), 4);
    }

    #[test]
    fn conv_roundtrip_clean() {
        let bits = random_bits(&mut seeded(42), 200);
        let coded = conv_encode(&bits);
        assert_eq!(coded.len(), (200 + 6) * 2);
        assert_eq!(conv_decode_hard(&coded), bits);
    }

    #[test]
    fn conv_corrects_scattered_errors() {
        let mut rng = seeded(43);
        let bits = random_bits(&mut rng, 300);
        let mut coded = conv_encode(&bits);
        // Flip ~4% of channel bits, scattered.
        let n_flips = coded.len() / 25;
        for _ in 0..n_flips {
            let i = rng.random_range(0..coded.len());
            coded[i] = !coded[i];
        }
        let decoded = conv_decode_hard(&coded);
        let errors = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "Viterbi should clean 4% scattered errors");
    }

    #[test]
    fn conv_soft_beats_hard_at_same_noise() {
        let mut rng = seeded(44);
        let trials = 40;
        let (mut hard_errs, mut soft_errs) = (0usize, 0usize);
        for _ in 0..trials {
            let bits = random_bits(&mut rng, 120);
            let coded = conv_encode(&bits);
            // AWGN on ±1 symbols at low SNR.
            let soft: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    let s = if b { 1.0 } else { -1.0 };
                    s + 1.1 * vab_util::rng::gaussian(&mut rng)
                })
                .collect();
            let hard_in: Vec<bool> = soft.iter().map(|&m| m >= 0.0).collect();
            let hd = conv_decode_hard(&hard_in);
            let sd = conv_decode_soft(&soft);
            hard_errs += hd.iter().zip(&bits).filter(|(a, b)| a != b).count();
            soft_errs += sd.iter().zip(&bits).filter(|(a, b)| a != b).count();
        }
        assert!(soft_errs < hard_errs, "soft ({soft_errs}) should beat hard ({hard_errs})");
    }

    #[test]
    fn fec_enum_dispatch_consistency() {
        let bits = random_bits(&mut seeded(45), 96);
        for fec in [
            Fec::None,
            Fec::Repetition(3),
            Fec::Repetition(5),
            Fec::Hamming74,
            Fec::Golay24,
            Fec::Conv,
        ] {
            let coded = fec.encode(&bits);
            assert_eq!(coded.len(), fec.encoded_len(bits.len()), "{fec:?} length");
            let decoded = fec.decode(&coded);
            assert_eq!(&decoded[..bits.len()], &bits[..], "{fec:?} roundtrip");
            assert!(fec.rate() > 0.0 && fec.rate() <= 1.0);
        }
    }

    #[test]
    fn conv_empty_and_tiny_inputs() {
        assert!(conv_decode_hard(&[]).is_empty());
        let one = conv_encode(&[true]);
        assert_eq!(conv_decode_hard(&one), vec![true]);
    }

    /// Channel metrics for a random `n_info`-bit codeword: `±1` per coded
    /// bit, then `channel` applied to each with the same generator.
    fn channel_metrics(
        seed: u64,
        n_info: usize,
        mut channel: impl FnMut(f64, &mut rand::rngs::StdRng) -> f64,
    ) -> Vec<f64> {
        let mut rng = seeded(seed);
        let coded = conv_encode(&random_bits(&mut rng, n_info));
        coded.iter().map(|&b| channel(if b { 1.0 } else { -1.0 }, &mut rng)).collect()
    }

    proptest! {
        #[test]
        fn butterfly_matches_reference_on_gaussian_metrics(
            n_info in 0usize..=600,
            sigma in 0usize..5,
            seed in any::<u64>(),
            stray in any::<bool>(),
        ) {
            // 1e6 is the link-budget trial's "channel gone" noise level.
            let sigma = [0.3, 0.8, 1.2, 2.0, 1e6][sigma];
            let mut soft = channel_metrics(seed, n_info, |s, rng| {
                s + sigma * vab_util::rng::gaussian(rng)
            });
            if stray {
                soft.push(0.5); // a trailing odd metric is ignored
            }
            let case = format!("{n_info} bits, sigma {sigma}, seed {seed}, stray {stray}");
            assert_every_decoder_matches_reference(&soft, &case);
        }

        #[test]
        fn butterfly_matches_reference_on_flipped_hard_metrics(
            n_info in 0usize..=600,
            flip_permille in 0u32..300,
            seed in any::<u64>(),
        ) {
            let p = flip_permille as f64 / 1000.0;
            let soft = channel_metrics(seed, n_info, |s, rng| {
                if rng.random::<f64>() < p { -s } else { s }
            });
            let case = format!("{n_info} bits, {flip_permille}‰ flips, seed {seed}");
            assert_every_decoder_matches_reference(&soft, &case);
        }

        #[test]
        fn butterfly_matches_reference_on_tied_small_integer_metrics(
            metrics in prop::collection::vec(-2i8..=2, 0..=2 * (600 + CONV_K - 1) + 1),
        ) {
            // Integer metrics (a fifth of them exact zeros) make equal path
            // metrics common: ties must go to the even predecessor.
            let soft: Vec<f64> = metrics.iter().map(|&m| m as f64).collect();
            assert_every_decoder_matches_reference(&soft, "small integer metrics");
        }
    }

    #[test]
    fn butterfly_matches_reference_on_constant_inputs() {
        for value in [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300] {
            for len in [0, 13, 14, 15, 2 * 64 + 12] {
                let soft = vec![value; len];
                assert_every_decoder_matches_reference(
                    &soft,
                    &format!("value {value}, {len} metrics"),
                );
            }
        }
    }

    /// Names the decoder bodies the oracle tests above ran on this CPU and
    /// the ones they skipped because it lacks their features; a skipped
    /// body is not checked here, so run the suite on such a CPU to check it.
    #[test]
    fn reports_which_decoder_bodies_the_oracle_tests_run() {
        let (ran, skipped): (Vec<_>, Vec<_>) =
            decoders().into_iter().partition(|(_, body)| body.is_some());
        let ran: Vec<_> = ran.iter().map(|(name, _)| *name).collect();
        let skipped: Vec<_> = skipped.iter().map(|(name, _)| *name).collect();
        eprintln!("soft Viterbi bodies run against the reference: {ran:?}; skipped: {skipped:?}");
        assert!(ran.contains(&"portable"), "the portable body runs everywhere");
    }

    /// Outside the finite-input contract the bits are unspecified, but the
    /// decoder must neither panic nor change the output length.
    #[test]
    fn non_finite_metrics_never_panic_and_keep_the_length() {
        let n_info = 64;
        let clean = channel_metrics(46, n_info, |s, _| s);
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for at in [0, 1, 2, 57, clean.len() - 1] {
                let mut soft = clean.clone();
                soft[at] = bad;
                assert_eq!(conv_decode_soft(&soft).len(), n_info, "{bad} at {at}");
            }
            assert_eq!(conv_decode_soft(&vec![bad; clean.len()]).len(), n_info, "all {bad}");
        }
        let mixed: Vec<f64> = (0..clean.len())
            .map(|i| [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.0][i % 4])
            .collect();
        assert_eq!(conv_decode_soft(&mixed).len(), n_info);
    }

    /// The speed gate, on a seeded noisy 512-bit frame, best of three: the
    /// portable body beats the scalar reference by at least 6×, so the
    /// fallback for CPUs without wide vectors cannot rot, and the
    /// dispatched decoder is no slower than the portable body. Prints the
    /// time of every body this CPU runs. Gated behind `VAB_BENCH=1`
    /// because wall-clock assertions have no place in the default suite;
    /// run it with `--release`.
    #[test]
    fn butterfly_meets_the_bench_speedup_target() {
        if std::env::var("VAB_BENCH").is_err() {
            eprintln!("skipped: set VAB_BENCH=1 to run the speedup gate");
            return;
        }
        use std::hint::black_box;
        use std::time::Instant;
        let soft = channel_metrics(47, 512, |s, rng| s + 0.8 * vab_util::rng::gaussian(rng));
        assert_every_decoder_matches_reference(&soft, "speed-gate frame");
        const CALLS: usize = 50;
        let best = |decode: wide::Body| {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..CALLS {
                        black_box(decode(black_box(&soft)));
                    }
                    t.elapsed().as_secs_f64() / CALLS as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let reference = best(conv_decode_soft_reference);
        let mut line =
            format!("viterbi {} steps: reference {:.1} us", soft.len() / 2, reference * 1e6);
        let mut portable = f64::NAN;
        for (name, body) in decoders() {
            match body {
                Some(body) => {
                    let us = best(body);
                    line += &format!(", {name} {:.1} us", us * 1e6);
                    if name == "portable" {
                        portable = us;
                    }
                }
                None => line += &format!(", {name} skipped (CPU lacks it)"),
            }
        }
        let dispatched = best(conv_decode_soft);
        eprintln!("{line}, dispatched {:.1} us", dispatched * 1e6);
        let speedup = reference / portable.max(1e-12);
        assert!(speedup >= 6.0, "portable butterfly Viterbi speedup {speedup:.2}x < 6x");
        assert!(
            dispatched <= portable,
            "dispatched decoder {:.1} us is slower than the portable body {:.1} us",
            dispatched * 1e6,
            portable * 1e6
        );
    }
}
