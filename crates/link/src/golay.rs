//! The extended binary Golay code (24, 12, 8).
//!
//! A classic for small-packet links: rate ½ like the convolutional code,
//! but block-oriented with *bounded* decoding cost — it corrects any ≤ 3
//! errors per 24-bit word with a handful of weight checks, which is a
//! plausible decode for a slightly smarter node (downlink FEC) as well as
//! the reader. Uses the standard quadratic-residue construction
//! `G = [I₁₂ | B]` with `B` symmetric and `B² = I` (both properties are
//! asserted by tests), enabling the textbook IMLD decoder.

/// The 12×12 `B` matrix, one row per `u16` (bit j = column j).
const B: [u16; 12] = [
    0b0111_1111_1111,
    0b1110_1110_0010,
    0b1101_1100_0101,
    0b1011_1000_1011,
    0b1111_0001_0110,
    0b1110_0010_1101,
    0b1100_0101_1011,
    0b1000_1011_0111,
    0b1001_0110_1110,
    0b1010_1101_1100,
    0b1101_1011_1000,
    0b1011_0111_0001,
];

#[inline]
fn weight(x: u32) -> u32 {
    x.count_ones()
}

/// Multiplies a 12-bit row vector by `B` (over GF(2)).
fn mul_b(v: u16) -> u16 {
    let mut out = 0u16;
    for (i, &row) in B.iter().enumerate() {
        if v >> (11 - i) & 1 == 1 {
            out ^= row;
        }
    }
    out
}

// NOTE on bit order: bit 11 of a `u16` word is "position 0" (leftmost),
// matching the row order of `B`. `mul_b` treats v as a row selector.

/// Encodes 12 information bits into a 24-bit codeword `(m, m·B)`,
/// packed as `(m << 12) | parity`.
fn golay24_encode_word(m: u16) -> u32 {
    let m = m & 0x0FFF;
    ((m as u32) << 12) | mul_b(m) as u32
}

/// Decodes a 24-bit word, correcting up to 3 bit errors.
/// Returns `(info_bits, corrected_errors)`, or `None` when the error
/// pattern is uncorrectable (≥ 4 errors detected).
fn golay24_decode_word(r: u32) -> Option<(u16, u32)> {
    let x = ((r >> 12) & 0x0FFF) as u16; // received info half
    let y = (r & 0x0FFF) as u16; // received parity half
    let s = mul_b(x) ^ y; // syndrome = e₁·B + e₂

    // Case 1: all errors in the parity half.
    if weight(s as u32) <= 3 {
        return Some((x, weight(s as u32)));
    }
    // Case 2: one error in the info half, ≤ 2 in parity.
    for (i, &row) in B.iter().enumerate() {
        let t = s ^ row;
        if weight(t as u32) <= 2 {
            let e1 = 1u16 << (11 - i);
            return Some((x ^ e1, 1 + weight(t as u32)));
        }
    }
    // Case 3: all errors in the info half (uses B² = I).
    let q = mul_b(s);
    if weight(q as u32) <= 3 {
        return Some((x ^ q, weight(q as u32)));
    }
    // Case 4: ≤ 2 errors in the info half, one in parity (uses B = Bᵀ).
    for (i, &row) in B.iter().enumerate() {
        let t = q ^ row;
        if weight(t as u32) <= 2 {
            return Some((x ^ t, 1 + weight(t as u32)));
        }
        let _ = i;
    }
    None
}

/// Encodes a bit stream: 12-bit blocks (zero-padded tail) → 24-bit words.
pub fn golay24_encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(12) * 24);
    for chunk in bits.chunks(12) {
        let mut m = 0u16;
        for (i, &b) in chunk.iter().enumerate() {
            if b {
                m |= 1 << (11 - i);
            }
        }
        let w = golay24_encode_word(m);
        for i in (0..24).rev() {
            out.push(w >> i & 1 == 1);
        }
    }
    out
}

/// Decodes a bit stream; uncorrectable words pass their info half through
/// unchanged (the CRC above catches them). Incomplete trailing words are
/// dropped.
pub fn golay24_decode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() / 24 * 12);
    for chunk in bits.chunks(24) {
        if chunk.len() < 24 {
            break;
        }
        let mut w = 0u32;
        for &b in chunk {
            w = (w << 1) | b as u32;
        }
        let m = match golay24_decode_word(w) {
            Some((m, _)) => m,
            None => ((w >> 12) & 0x0FFF) as u16,
        };
        for i in (0..12).rev() {
            out.push(m >> i & 1 == 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use vab_util::rng::{random_bits, seeded};

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn b_matrix_is_symmetric() {
        for i in 0..12 {
            for j in 0..12 {
                let a = B[i] >> (11 - j) & 1;
                let b = B[j] >> (11 - i) & 1;
                assert_eq!(a, b, "B not symmetric at ({i},{j})");
            }
        }
    }

    #[test]
    fn b_squared_is_identity() {
        for i in 0..12 {
            let unit = 1u16 << (11 - i);
            assert_eq!(mul_b(mul_b(unit)), unit, "B² ≠ I at row {i}");
        }
    }

    #[test]
    fn codewords_have_min_weight_8() {
        // Spot-check: every nonzero single-information-bit codeword and a
        // random sample must have weight ≥ 8 (the code's minimum distance).
        for i in 0..12 {
            let w = golay24_encode_word(1 << i);
            assert!(weight(w) >= 8, "weight {} for unit {i}", weight(w));
        }
        let mut rng = seeded(81);
        for _ in 0..500 {
            let m: u16 = rng.random_range(1..4096);
            let w = golay24_encode_word(m);
            assert!(weight(w) >= 8, "weight {} for m={m:03x}", weight(w));
        }
    }

    #[test]
    fn clean_word_roundtrip() {
        for m in [0u16, 1, 0xFFF, 0xABC, 0x555] {
            let (got, errs) = golay24_decode_word(golay24_encode_word(m)).expect("clean");
            assert_eq!(got, m);
            assert_eq!(errs, 0);
        }
    }

    #[test]
    fn corrects_every_single_and_double_error() {
        let m = 0x9A5u16;
        let c = golay24_encode_word(m);
        for i in 0..24 {
            let (got, errs) = golay24_decode_word(c ^ (1 << i)).expect("1 error");
            assert_eq!(got, m, "failed single error at {i}");
            assert_eq!(errs, 1);
            for j in (i + 1)..24 {
                let (got, errs) = golay24_decode_word(c ^ (1 << i) ^ (1 << j)).expect("2 errors");
                assert_eq!(got, m, "failed double error at {i},{j}");
                assert_eq!(errs, 2);
            }
        }
    }

    #[test]
    fn corrects_triple_errors_sampled() {
        let mut rng = seeded(82);
        let m = 0x3C7u16;
        let c = golay24_encode_word(m);
        for _ in 0..2000 {
            let mut e = 0u32;
            while weight(e) < 3 {
                e |= 1u32 << rng.random_range(0..24u32);
            }
            if weight(e) > 3 {
                continue;
            }
            let (got, errs) = golay24_decode_word(c ^ e).expect("3 errors correctable");
            assert_eq!(got, m, "failed triple error {e:06x}");
            assert_eq!(errs, 3);
        }
    }

    #[test]
    fn four_errors_detected_or_miscorrected_never_panic() {
        // d=8: 4 errors are never *silently* decoded to the wrong word at
        // distance ≤ 3 from another codeword... they are either flagged
        // (None) or land on a wrong word — both must be handled gracefully.
        let mut rng = seeded(83);
        let m = 0x0F0u16;
        let c = golay24_encode_word(m);
        let mut flagged = 0;
        let mut wrong = 0;
        for _ in 0..500 {
            let mut e = 0u32;
            while weight(e) < 4 {
                e |= 1u32 << rng.random_range(0..24u32);
            }
            if weight(e) > 4 {
                continue;
            }
            match golay24_decode_word(c ^ e) {
                None => flagged += 1,
                Some((got, _)) if got != m => wrong += 1,
                Some(_) => panic!("4 errors cannot decode correctly in a distance-8 code"),
            }
        }
        assert!(flagged > 0, "some 4-error patterns must be flagged");
        let _ = wrong;
    }

    #[test]
    fn stream_roundtrip_with_padding() {
        let bits = random_bits(&mut seeded(84), 100); // pads to 108
        let coded = golay24_encode(&bits);
        assert_eq!(coded.len(), 100usize.div_ceil(12) * 24);
        let decoded = golay24_decode(&coded);
        assert_eq!(&decoded[..100], &bits[..]);
    }

    #[test]
    fn stream_corrects_scattered_errors() {
        let mut rng = seeded(85);
        let bits = random_bits(&mut rng, 240);
        let mut coded = golay24_encode(&bits);
        // Up to 3 errors per 24-bit word: flip 2 per word deterministically.
        for w in 0..coded.len() / 24 {
            let a = w * 24 + rng.random_range(0..24usize);
            coded[a] = !coded[a];
            let b = w * 24 + rng.random_range(0..24usize);
            coded[b] = !coded[b];
        }
        let decoded = golay24_decode(&coded);
        assert_eq!(&decoded[..240], &bits[..]);
    }
}
