//! Bit scrambling with the LTE Gold sequence (TS 36.211 §7.2).
//!
//! Uplink coded bits are scrambled with a length-31 Gold sequence seeded
//! from the UE identity and slot number, whitening the transmitted
//! spectrum and decorrelating inter-cell interference. The receiver
//! descrambles by flipping the signs of the corresponding LLRs.

/// Offset discarding the Gold sequence's low-correlation warm-up
/// (`N_C` in the standard).
const NC: usize = 1600;

/// The LTE pseudo-random (Gold) sequence generator.
///
/// # Example
///
/// ```
/// use lte_dsp::scrambling::GoldSequence;
///
/// let mut g = GoldSequence::new(0x1234);
/// let bits: Vec<u8> = (0..8).map(|_| g.next_bit()).collect();
/// let mut g2 = GoldSequence::new(0x1234);
/// let again: Vec<u8> = (0..8).map(|_| g2.next_bit()).collect();
/// assert_eq!(bits, again);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoldSequence {
    x1: u32,
    x2: u32,
}

impl GoldSequence {
    /// Creates the generator with initialisation value `c_init`
    /// (truncated to 31 bits), advanced past the `N_C = 1600` warm-up.
    pub fn new(c_init: u32) -> Self {
        let mut g = GoldSequence {
            x1: 1, // x1 starts at 0…01 per the standard
            x2: c_init & 0x7FFF_FFFF,
        };
        for _ in 0..NC {
            g.step();
        }
        g
    }

    /// Advances both LFSRs one step.
    #[inline]
    fn step(&mut self) {
        // x1(n+31) = (x1(n+3) + x1(n)) mod 2
        let new_x1 = ((self.x1 >> 3) ^ self.x1) & 1;
        // x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2
        let new_x2 = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        self.x1 = (self.x1 >> 1) | (new_x1 << 30);
        self.x2 = (self.x2 >> 1) | (new_x2 << 30);
    }

    /// The next scrambling bit `c(n) = (x1(n) + x2(n)) mod 2`.
    #[inline]
    pub fn next_bit(&mut self) -> u8 {
        let c = ((self.x1 ^ self.x2) & 1) as u8;
        self.step();
        c
    }

    /// Generates `n` scrambling bits.
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

/// The standard `c_init` for uplink shared-channel scrambling:
/// `n_rnti·2¹⁴ + q·2¹³ + ⌊n_s/2⌋·2⁹ + cell_id`.
pub fn pusch_c_init(n_rnti: u16, codeword: u8, subframe: u32, cell_id: u16) -> u32 {
    ((n_rnti as u32) << 14)
        | ((codeword as u32 & 1) << 13)
        | ((subframe % 10) << 9)
        | (cell_id as u32 % 504)
}

/// The Gold sequence generated 64 bits at a time — the word-parallel
/// form of [`GoldSequence`], producing the identical stream.
///
/// Both LFSRs advance 28 bits per step: for a 31-bit window `w` holding
/// `x(n)..x(n+30)`, every one of the next 28 outputs depends only on
/// bits already in the window, so `x1` advances as `(w>>3)^w` and `x2`
/// as `(w>>3)^(w>>2)^(w>>1)^w` on whole words. The `N_C = 1600` warm-up
/// is 57 steps of 28 bits plus one step of 4.
///
/// # Example
///
/// ```
/// use lte_dsp::scrambling::{GoldSequence, GoldWords};
///
/// let word = GoldWords::new(0x1234).next_word();
/// let mut g = GoldSequence::new(0x1234);
/// for k in 0..64 {
///     assert_eq!((word >> k) as u8 & 1, g.next_bit());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct GoldWords {
    x1: u32,
    x2: u32,
    /// Generated bits not yet handed out, oldest in bit 0.
    buf: u64,
    /// Number of valid bits in `buf` (always < 64 between calls).
    fill: u32,
}

/// Bits produced per word-parallel LFSR step.
const STEP: u32 = 28;
const STEP_MASK: u32 = (1 << STEP) - 1;

impl GoldWords {
    /// The generator for `c_init` (truncated to 31 bits), advanced past
    /// the `N_C = 1600` warm-up.
    pub fn new(c_init: u32) -> Self {
        let mut g = GoldWords {
            x1: 1,
            x2: c_init & 0x7FFF_FFFF,
            buf: 0,
            fill: 0,
        };
        for _ in 0..NC / STEP as usize {
            g.advance(STEP);
        }
        g.advance((NC % STEP as usize) as u32);
        g
    }

    /// Advances both LFSRs `n <= 28` steps.
    #[inline]
    fn advance(&mut self, n: u32) {
        let mask = (1u32 << n) - 1;
        let x1 = self.x1;
        let x2 = self.x2;
        let new1 = ((x1 >> 3) ^ x1) & mask;
        let new2 = ((x2 >> 3) ^ (x2 >> 2) ^ (x2 >> 1) ^ x2) & mask;
        self.x1 = (x1 >> n) | (new1 << (31 - n));
        self.x2 = (x2 >> n) | (new2 << (31 - n));
    }

    /// The next 64 scrambling bits, `c(n)` in bit 0.
    #[inline]
    pub fn next_word(&mut self) -> u64 {
        loop {
            let chunk = u64::from((self.x1 ^ self.x2) & STEP_MASK);
            self.advance(STEP);
            let fill = self.fill;
            self.buf |= chunk << fill;
            if fill + STEP >= 64 {
                let word = self.buf;
                self.fill = fill + STEP - 64;
                // The chunk's bits that did not fit (none when it ended
                // exactly on the word boundary).
                self.buf = (chunk >> (63 - fill)) >> 1;
                return word;
            }
            self.fill = fill + STEP;
        }
    }
}

/// Scrambles a bit vector in place (XOR with the sequence).
pub fn scramble_bits(bits: &mut [u8], c_init: u32) {
    let mut g = GoldWords::new(c_init);
    for chunk in bits.chunks_mut(64) {
        let c = g.next_word();
        for (k, b) in chunk.iter_mut().enumerate() {
            *b ^= (c >> k) as u8 & 1;
        }
    }
}

/// Descrambles soft values in place: flips the sign of every LLR whose
/// scrambling bit was 1. The flip is a sign-bit XOR, which equals
/// negation for every `f32`, NaN and ±0 included.
pub fn descramble_llrs(llrs: &mut [f32], c_init: u32) {
    let mut g = GoldWords::new(c_init);
    for chunk in llrs.chunks_mut(64) {
        let c = g.next_word();
        for (k, l) in chunk.iter_mut().enumerate() {
            *l = f32::from_bits(l.to_bits() ^ ((((c >> k) & 1) as u32) << 31));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = GoldSequence::new(7).bits(64);
        let b = GoldSequence::new(7).bits(64);
        let c = GoldSequence::new(8).bits(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sequence_is_balanced() {
        // A Gold sequence is nearly balanced: ~50 % ones.
        let bits = GoldSequence::new(0x0BAD_CAFE & 0x7FFF_FFFF).bits(20_000);
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        let frac = ones as f64 / bits.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "ones fraction {frac}");
    }

    #[test]
    fn low_autocorrelation() {
        let bits = GoldSequence::new(123).bits(8_192);
        // Map to ±1 and check a few cyclic lags.
        let s: Vec<i32> = bits.iter().map(|&b| 1 - 2 * b as i32).collect();
        for lag in [1usize, 7, 63, 1021] {
            let corr: i64 = (0..s.len())
                .map(|i| (s[i] * s[(i + lag) % s.len()]) as i64)
                .sum();
            assert!(
                corr.unsigned_abs() < (s.len() / 16) as u64,
                "lag {lag}: correlation {corr}"
            );
        }
    }

    #[test]
    fn scramble_is_an_involution() {
        let mut bits: Vec<u8> = (0..100).map(|i| (i % 3 == 0) as u8).collect();
        let original = bits.clone();
        scramble_bits(&mut bits, 42);
        assert_ne!(bits, original, "scrambling must change the bits");
        scramble_bits(&mut bits, 42);
        assert_eq!(bits, original, "double scramble is identity");
    }

    #[test]
    fn llr_descrambling_matches_bit_scrambling() {
        let c_init = 99;
        let clean_bits: Vec<u8> = (0..64).map(|i| (i % 5 < 2) as u8).collect();
        let mut tx = clean_bits.clone();
        scramble_bits(&mut tx, c_init);
        // Noiseless LLRs for the scrambled bits: +2 for 0, −2 for 1.
        let mut llrs: Vec<f32> = tx
            .iter()
            .map(|&b| if b == 0 { 2.0 } else { -2.0 })
            .collect();
        descramble_llrs(&mut llrs, c_init);
        let rx: Vec<u8> = llrs.iter().map(|&l| (l < 0.0) as u8).collect();
        assert_eq!(rx, clean_bits);
    }

    #[test]
    fn word_stream_equals_the_bit_serial_stream() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(0x601D);
        let mut inits = vec![0u32, 1, 0x1234, 0x7FFF_FFFF];
        inits.extend((0..20).map(|_| rng.next_u32()));
        for c_init in inits {
            let reference = GoldSequence::new(c_init).bits(86_400);
            let mut g = GoldWords::new(c_init);
            let words: Vec<u64> = (0..86_400usize.div_ceil(64))
                .map(|_| g.next_word())
                .collect();
            for (n, &bit) in reference.iter().enumerate() {
                assert_eq!(
                    (words[n / 64] >> (n % 64)) as u8 & 1,
                    bit,
                    "c_init {c_init:#x} n={n}"
                );
            }
            // Every prefix length scrambles like the bit-serial loop.
            for len in 0..=200 {
                let mut bits = vec![0u8; len];
                scramble_bits(&mut bits, c_init);
                assert_eq!(bits, reference[..len], "c_init {c_init:#x} len={len}");
            }
        }
    }

    #[test]
    fn descrambling_is_negation_for_every_value() {
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            1.5,
            -2.25,
        ];
        let llrs: Vec<f32> = (0..300).map(|i| specials[i % specials.len()]).collect();
        let mut fast = llrs.clone();
        descramble_llrs(&mut fast, 0x0BAD);
        let mut g = GoldSequence::new(0x0BAD);
        for (l, f) in llrs.iter().zip(&fast) {
            let want = if g.next_bit() == 1 { -*l } else { *l };
            assert_eq!(f.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn pusch_c_init_fields() {
        let c = pusch_c_init(0x1F, 1, 23, 100);
        assert_eq!(c & 0x1FF, 100); // cell id in low 9 bits
        assert_eq!((c >> 9) & 0xF, 3); // subframe 23 % 10
        assert_eq!((c >> 13) & 1, 1); // codeword
        assert_eq!(c >> 14, 0x1F); // rnti
    }

    #[test]
    fn different_subframes_use_different_sequences() {
        let a = GoldSequence::new(pusch_c_init(1, 0, 0, 0)).bits(32);
        let b = GoldSequence::new(pusch_c_init(1, 0, 1, 0)).bits(32);
        assert_ne!(a, b);
    }
}
