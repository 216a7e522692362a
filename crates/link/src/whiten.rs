//! PN9 data whitening.
//!
//! XORs the bit stream with the output of the standard 9-bit LFSR
//! (x⁹ + x⁵ + 1, all-ones seed — the same scrambler 802.15.4/CC11xx radios
//! use). Whitening removes long runs from pathological payloads so the FM0
//! waveform stays balanced and the sync correlator sees no fake preambles.

/// The PN9 keystream generator.
#[derive(Debug, Clone)]
pub struct Pn9 {
    state: u16,
}

impl Default for Pn9 {
    fn default() -> Self {
        Self::new()
    }
}

impl Pn9 {
    /// Standard all-ones initial state.
    pub fn new() -> Self {
        Self { state: 0x1FF }
    }

    /// Next keystream bit.
    fn next_bit(&mut self) -> bool {
        let out = self.state & 1 == 1;
        let fb = (self.state & 1) ^ ((self.state >> 5) & 1);
        self.state = (self.state >> 1) | (fb << 8);
        out
    }
}

/// Whitens (or de-whitens — the operation is an involution) a bit stream.
pub fn whiten(bits: &[bool]) -> Vec<bool> {
    let mut pn = Pn9::new();
    bits.iter().map(|&b| b ^ pn.next_bit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitening_is_involution() {
        let bits: Vec<bool> = (0..200).map(|i| i % 5 == 0).collect();
        assert_eq!(whiten(&whiten(&bits)), bits);
    }

    #[test]
    fn kills_long_runs() {
        let zeros = vec![false; 511];
        let w = whiten(&zeros);
        // Longest run in PN9 output is 9; assert nothing pathological.
        let mut longest = 0;
        let mut run = 0;
        let mut last = !w[0];
        for &b in &w {
            if b == last {
                run += 1;
            } else {
                run = 1;
                last = b;
            }
            longest = longest.max(run);
        }
        assert!(longest <= 9, "run of {longest}");
    }

    #[test]
    fn pn9_period_is_511() {
        let mut pn = Pn9::new();
        let first: Vec<bool> = (0..511).map(|_| pn.next_bit()).collect();
        let second: Vec<bool> = (0..511).map(|_| pn.next_bit()).collect();
        assert_eq!(first, second);
        // And it is not shorter: the two halves of a period differ.
        assert_ne!(&first[..255], &first[256..511]);
    }

    #[test]
    fn balanced_output() {
        let mut pn = Pn9::new();
        let ones = (0..511).filter(|_| pn.next_bit()).count();
        assert_eq!(ones, 256); // maximal-length LFSR property
    }
}
