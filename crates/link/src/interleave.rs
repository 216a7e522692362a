//! Block interleaving.
//!
//! Surface-wave fades and impulsive snapping-shrimp noise hit the underwater
//! channel in bursts; a rows×cols block interleaver spreads a burst of up to
//! `rows` consecutive channel errors across different FEC codewords.

/// A rows×cols block interleaver. Bits fill the block row-by-row and drain
/// column-by-column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interleaver {
    /// Burst-tolerance dimension.
    pub rows: usize,
    /// Codeword-spread dimension.
    pub cols: usize,
}

impl Interleaver {
    /// Creates an interleaver. Both dimensions must be ≥ 1.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        Self { rows, cols }
    }

    /// Block size in bits.
    pub fn block_len(&self) -> usize {
        self.rows * self.cols
    }

    /// Interleaves; input is padded with `false` to a whole block. The
    /// output is the only allocation: it starts as all padding, and each
    /// input row is scattered into its column positions.
    pub fn interleave(&self, bits: &[bool]) -> Vec<bool> {
        let block = self.block_len();
        let mut out = vec![false; bits.len().div_ceil(block) * block];
        for (sent, chunk) in out.chunks_exact_mut(block).zip(bits.chunks(block)) {
            for (r, row) in chunk.chunks(self.cols).enumerate() {
                for (c, &bit) in row.iter().enumerate() {
                    sent[c * self.rows + r] = bit;
                }
            }
        }
        out
    }

    /// Inverse permutation. Input length must be a whole number of blocks.
    pub fn deinterleave(&self, bits: &[bool]) -> Vec<bool> {
        self.deinterleave_symbols(bits)
    }

    /// Inverse permutation over soft metrics (for soft-decision decoding
    /// after the channel). Input length must be a whole number of blocks.
    pub fn deinterleave_soft(&self, metrics: &[f64]) -> Vec<f64> {
        self.deinterleave_symbols(metrics)
    }

    /// Permutes every block straight into one output buffer (the single
    /// allocation), which starts as a copy of the input so no fill value
    /// is needed.
    fn deinterleave_symbols<T: Copy>(&self, symbols: &[T]) -> Vec<T> {
        let block = self.block_len();
        assert!(symbols.len().is_multiple_of(block), "deinterleave needs whole blocks");
        let mut out = symbols.to_vec();
        for (plain, chunk) in out.chunks_exact_mut(block).zip(symbols.chunks_exact(block)) {
            let mut i = 0;
            for c in 0..self.cols {
                for r in 0..self.rows {
                    plain[r * self.cols + c] = chunk[i];
                    i += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::{random_bits, seeded};

    /// Row-fill, column-drain on a 2×3 block, then a padded second block:
    /// rows `[1 1 0] [0 1 1]` drain as columns `10 11 01`.
    #[test]
    fn interleave_drains_the_row_filled_block_by_columns() {
        let il = Interleaver::new(2, 3);
        let bits = [true, true, false, false, true, true, true, false];
        let sent = [true, false, true, true, false, true, true, false, false, false, false, false];
        assert_eq!(il.interleave(&bits), sent);
    }

    #[test]
    fn roundtrip_exact_block() {
        let il = Interleaver::new(4, 8);
        let bits = random_bits(&mut seeded(51), 32);
        let rt = il.deinterleave(&il.interleave(&bits));
        assert_eq!(rt, bits);
    }

    #[test]
    fn roundtrip_with_padding() {
        let il = Interleaver::new(3, 5);
        let bits = random_bits(&mut seeded(52), 20); // pads to 30
        let rt = il.deinterleave(&il.interleave(&bits));
        assert_eq!(&rt[..20], &bits[..]);
        assert_eq!(rt.len(), 30);
    }

    #[test]
    fn burst_is_dispersed() {
        let il = Interleaver::new(8, 16);
        let bits = vec![false; 128];
        let mut tx = il.interleave(&bits);
        // Channel burst: 8 consecutive flips.
        for b in tx.iter_mut().take(40).skip(32) {
            *b = !*b;
        }
        let rx = il.deinterleave(&tx);
        // After deinterleaving, no 16-bit codeword window should contain
        // more than 1 error.
        for (w, window) in rx.chunks(16).enumerate() {
            let errs = window.iter().filter(|&&b| b).count();
            assert!(errs <= 1, "codeword {w} got {errs} errors");
        }
    }

    #[test]
    fn soft_deinterleave_matches_hard_permutation() {
        let il = Interleaver::new(4, 8);
        let bits = random_bits(&mut seeded(54), 32);
        let tx = il.interleave(&bits);
        let soft: Vec<f64> = tx.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let rx_soft = il.deinterleave_soft(&soft);
        let rx_hard = il.deinterleave(&tx);
        for (s, h) in rx_soft.iter().zip(&rx_hard) {
            assert_eq!(*s >= 0.0, *h);
        }
    }

    #[test]
    fn soft_deinterleave_round_trips_across_blocks() {
        // Five blocks, the last one padded. Each metric carries its sign
        // from the interleaved bit and a unique magnitude from its channel
        // position, so a dropped, duplicated or cross-block move shows.
        let il = Interleaver::new(4, 8);
        let block = il.block_len();
        let bits = random_bits(&mut seeded(55), 4 * block + 11);
        let tx = il.interleave(&bits);
        let soft: Vec<f64> = tx
            .iter()
            .enumerate()
            .map(|(k, &b)| if b { 1.0 + k as f64 } else { -1.0 - k as f64 })
            .collect();
        let rx = il.deinterleave_soft(&soft);
        assert_eq!(rx.len(), tx.len());
        let signs: Vec<bool> = rx.iter().map(|&m| m > 0.0).collect();
        assert_eq!(&signs[..bits.len()], &bits[..]);
        assert_eq!(signs, il.deinterleave(&tx));
        for (p, m) in rx.iter().enumerate() {
            let k = m.abs() as usize - 1;
            assert_eq!(k / block, p / block, "metric moved across blocks");
            let (r, c) = ((p % block) / il.cols, (p % block) % il.cols);
            assert_eq!(k % block, c * il.rows + r, "plain position {p}");
        }
    }

    #[test]
    fn identity_when_single_row() {
        let il = Interleaver::new(1, 7);
        let bits = random_bits(&mut seeded(53), 14);
        assert_eq!(il.interleave(&bits), bits);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn ragged_deinterleave_panics() {
        Interleaver::new(2, 4).deinterleave(&[true; 7]);
    }
}
