//! LTE cyclic redundancy checks (TS 36.212 §5.1.1).
//!
//! Transport blocks carry CRC-24A; code-block segments carry CRC-24B; the
//! 16- and 8-bit variants cover control channels. The benchmark's final
//! pipeline stage (Fig. 3) verifies the CRC of every decoded transport
//! block.
//!
//! Bits are processed MSB-first, matching the 3GPP bit ordering; the
//! registers start at zero (LTE uses all-zero initial state, unlike
//! Ethernet-style CRCs).
//!
//! Every entry point runs the same table-driven engine: the register is
//! held left-aligned in 32 bits, whole bytes go through slicing-by-8
//! tables (eight bytes per step, eight independent lookups), and a
//! trailing partial byte runs bit-serially. The tables are built at
//! compile time by a `const fn`, so there is no set-up cost and no lazy
//! initialisation. Bit-per-byte input ([`Crc::compute_bits`]) is packed
//! eight bits at a time on the way in.

use crate::bits::pack_msb8;

/// Slicing-by-8 lookup tables: `TABLES[k][b]` is the register
/// contribution of byte `b` followed by `k` zero bytes.
type Tables = [[u32; 256]; 8];

/// Builds the slicing tables for a `width`-bit polynomial, left-aligned
/// in a 32-bit register.
const fn build_tables(poly: u32, width: u32) -> Tables {
    let poly32 = poly << (32 - width);
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut reg = (b as u32) << 24;
        let mut k = 0;
        while k < 8 {
            reg = (reg << 1) ^ if reg & 0x8000_0000 != 0 { poly32 } else { 0 };
            k += 1;
        }
        t[0][b] = reg;
        b += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[s - 1][b];
            t[s][b] = (prev << 8) ^ t[0][(prev >> 24) as usize];
            b += 1;
        }
        s += 1;
    }
    t
}

/// A CRC generator polynomial of up to 24 bits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Crc {
    /// Polynomial without the leading `x^width` term.
    poly: u32,
    /// CRC width in bits.
    width: u32,
    /// Compile-time slicing tables for `poly`.
    tables: &'static Tables,
}

impl std::fmt::Debug for Crc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crc")
            .field("poly", &format_args!("{:#x}", self.poly))
            .field("width", &self.width)
            .finish()
    }
}

/// CRC-24A (`gCRC24A`, transport-block CRC): `0x864CFB`.
pub const CRC24A: Crc = Crc::new(0x86_4C_FB, 24, &build_tables(0x86_4C_FB, 24));
/// CRC-24B (`gCRC24B`, code-block CRC): `0x800063`.
pub const CRC24B: Crc = Crc::new(0x80_00_63, 24, &build_tables(0x80_00_63, 24));
/// CRC-16 (`gCRC16`): `0x1021` (CCITT).
pub const CRC16: Crc = Crc::new(0x1021, 16, &build_tables(0x1021, 16));
/// CRC-8 (`gCRC8`): `0x9B`.
pub const CRC8: Crc = Crc::new(0x9B, 8, &build_tables(0x9B, 8));

impl Crc {
    /// Pairs a polynomial (sans leading term) and width with its tables.
    ///
    /// # Panics
    ///
    /// Panics (at compile time for const uses) if `width` is 0 or > 24.
    const fn new(poly: u32, width: u32, tables: &'static Tables) -> Self {
        assert!(width >= 1 && width <= 24, "width must be in 1..=24");
        Crc {
            poly,
            width,
            tables,
        }
    }

    /// CRC width in bits.
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Folds eight stream bytes (first byte in the most significant
    /// position of `x`) into the left-aligned register.
    #[inline]
    fn fold8(&self, reg: u32, x: u64) -> u32 {
        let t = self.tables;
        let hi = (x >> 32) as u32 ^ reg;
        let lo = x as u32;
        t[7][(hi >> 24) as usize]
            ^ t[6][(hi >> 16) as usize & 0xFF]
            ^ t[5][(hi >> 8) as usize & 0xFF]
            ^ t[4][hi as usize & 0xFF]
            ^ t[3][(lo >> 24) as usize]
            ^ t[2][(lo >> 16) as usize & 0xFF]
            ^ t[1][(lo >> 8) as usize & 0xFF]
            ^ t[0][lo as usize & 0xFF]
    }

    /// Folds one stream byte into the left-aligned register.
    #[inline]
    fn fold1(&self, reg: u32, byte: u8) -> u32 {
        (reg << 8) ^ self.tables[0][((reg >> 24) as u8 ^ byte) as usize]
    }

    /// Folds the top `n < 8` bits of `byte` into the register, one bit
    /// at a time (branch-free).
    #[inline]
    fn fold_bits(&self, mut reg: u32, byte: u8, n: usize) -> u32 {
        let poly32 = self.poly << (32 - self.width);
        for k in 0..n {
            let fb = (reg >> 31) ^ u32::from((byte >> (7 - k)) & 1);
            reg = (reg << 1) ^ (poly32 & fb.wrapping_neg());
        }
        reg
    }

    /// The CRC value held in a left-aligned register.
    #[inline]
    fn finish(&self, reg: u32) -> u32 {
        reg >> (32 - self.width)
    }

    /// Computes the CRC of a bit slice (elements must be 0 or 1, MSB-first).
    ///
    /// # Panics
    ///
    /// Panics if any element is not 0 or 1 (debug builds only; release
    /// builds mask to the low bit).
    pub fn compute_bits(&self, bits: &[u8]) -> u32 {
        debug_assert!(bits.iter().all(|&b| b <= 1), "bits must be 0 or 1");
        let mut reg = 0u32;
        let mut words = bits.chunks_exact(64);
        for chunk in &mut words {
            let mut x = 0u64;
            for byte in chunk.chunks_exact(8) {
                x = (x << 8) | u64::from(pack_msb8(byte));
            }
            reg = self.fold8(reg, x);
        }
        let mut bytes = words.remainder().chunks_exact(8);
        for byte in &mut bytes {
            reg = self.fold1(reg, pack_msb8(byte));
        }
        let tail = bytes.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.finish(self.fold_bits(reg, pack_msb8(&last), tail.len()))
    }

    /// Computes the CRC of a byte slice (bits taken MSB-first within each
    /// byte).
    pub fn compute_bytes(&self, bytes: &[u8]) -> u32 {
        self.compute_packed(bytes, 8 * bytes.len())
    }

    /// Computes the CRC of the first `n_bits` bits of a packed stream
    /// (MSB-first within each byte) — the pass-through receiver's frame
    /// check, straight off the bit-packed deinterleaver output.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `n_bits` bits.
    pub fn compute_packed(&self, bytes: &[u8], n_bits: usize) -> u32 {
        assert!(n_bits <= 8 * bytes.len(), "bit count exceeds the buffer");
        let (whole, rest) = bytes.split_at(n_bits / 8);
        let mut reg = 0u32;
        let mut words = whole.chunks_exact(8);
        for chunk in &mut words {
            let x = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
            reg = self.fold8(reg, x);
        }
        for &byte in words.remainder() {
            reg = self.fold1(reg, byte);
        }
        if !n_bits.is_multiple_of(8) {
            reg = self.fold_bits(reg, rest[0], n_bits % 8);
        }
        self.finish(reg)
    }

    /// Appends the CRC parity bits (MSB-first) to a bit vector.
    pub fn append_bits(&self, bits: &mut Vec<u8>) {
        let crc = self.compute_bits(bits);
        for k in (0..self.width).rev() {
            bits.push(((crc >> k) & 1) as u8);
        }
    }

    /// Checks a bit vector whose tail carries the CRC parity.
    ///
    /// Returns `true` when the CRC matches (i.e. the whole sequence,
    /// including parity, divides the generator).
    pub fn check_bits(&self, bits: &[u8]) -> bool {
        if bits.len() < self.width as usize {
            return false;
        }
        self.compute_bits(bits) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
        bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |k| (b >> k) & 1))
            .collect()
    }

    /// The textbook bit-serial register the tables must reproduce.
    fn bit_serial(crc: Crc, bits: &[u8]) -> u32 {
        let top = 1u32 << (crc.width - 1);
        let mask = (1u64 << crc.width) as u32 - 1;
        let mut reg = 0u32;
        for &b in bits {
            let fb = ((reg & top) != 0) ^ ((b & 1) != 0);
            reg = (reg << 1) & mask;
            if fb {
                reg ^= crc.poly;
            }
        }
        reg
    }

    fn pack(bits: &[u8]) -> Vec<u8> {
        bits.chunks(8)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u8, |acc, (k, &b)| acc | (b << (7 - k)))
            })
            .collect()
    }

    #[test]
    fn tables_match_the_bit_serial_register() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let mut lengths: Vec<usize> = (0..=100).collect();
        lengths.extend((0..40).map(|_| (rng.next_u64() % 6145) as usize));
        lengths.push(6144);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            for &n in &lengths {
                let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
                let want = bit_serial(crc, &bits);
                assert_eq!(crc.compute_bits(&bits), want, "{crc:?} n={n}");
                assert_eq!(crc.compute_packed(&pack(&bits), n), want, "{crc:?} n={n}");
            }
        }
    }

    #[test]
    fn compute_packed_ignores_bits_past_the_count() {
        let bytes = [0xA5u8, 0xFF, 0x3C];
        let ones = [0xA5u8, 0xFF, 0x3F];
        for n in 0..=22 {
            assert_eq!(
                CRC24A.compute_packed(&bytes, n),
                CRC24A.compute_packed(&ones, n)
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn compute_packed_checks_the_bit_count() {
        CRC24A.compute_packed(&[0u8; 2], 17);
    }

    #[test]
    #[cfg(not(debug_assertions))] // debug builds assert instead
    fn release_masks_each_bit_to_its_low_bit() {
        let odd: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(37) | 2).collect();
        let masked: Vec<u8> = odd.iter().map(|b| b & 1).collect();
        assert_eq!(CRC24A.compute_bits(&odd), CRC24A.compute_bits(&masked));
    }

    #[test]
    fn bit_and_byte_paths_agree() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            let bytes: Vec<u8> = (0..64).map(|_| rng.next_u32() as u8).collect();
            assert_eq!(
                crc.compute_bytes(&bytes),
                crc.compute_bits(&bytes_to_bits(&bytes))
            );
        }
    }

    #[test]
    fn crc16_known_vector() {
        // CCITT "123456789" with zero initial value → 0x31C3.
        assert_eq!(CRC16.compute_bytes(b"123456789"), 0x31C3);
    }

    #[test]
    fn crc24a_zero_message_is_zero() {
        // All-zero input with zero init yields zero parity (linearity).
        assert_eq!(CRC24A.compute_bits(&[0; 100]), 0);
    }

    #[test]
    fn append_then_check_round_trip() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            for len in [1usize, 7, 40, 123] {
                let mut bits: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 1) as u8).collect();
                crc.append_bits(&mut bits);
                assert!(crc.check_bits(&bits));
            }
        }
    }

    #[test]
    fn detects_single_bit_errors_anywhere() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut bits: Vec<u8> = (0..128).map(|_| (rng.next_u64() & 1) as u8).collect();
        CRC24A.append_bits(&mut bits);
        for i in 0..bits.len() {
            bits[i] ^= 1;
            assert!(!CRC24A.check_bits(&bits), "missed error at bit {i}");
            bits[i] ^= 1;
        }
    }

    #[test]
    fn detects_burst_errors_up_to_width() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut bits: Vec<u8> = (0..256).map(|_| (rng.next_u64() & 1) as u8).collect();
        CRC24B.append_bits(&mut bits);
        // Any burst of length <= 24 is detected by a degree-24 generator
        // with nonzero constant term.
        for start in [0usize, 13, 100, 200] {
            for burst in [2usize, 8, 24] {
                for b in bits[start..start + burst].iter_mut() {
                    *b ^= 1;
                }
                assert!(!CRC24B.check_bits(&bits), "missed burst {burst}@{start}");
                for b in bits[start..start + burst].iter_mut() {
                    *b ^= 1;
                }
            }
        }
    }

    #[test]
    fn short_input_fails_check() {
        assert!(!CRC24A.check_bits(&[1, 0, 1]));
    }

    #[test]
    fn linearity_of_crc() {
        // CRC(a ^ b) == CRC(a) ^ CRC(b) for zero-init CRCs.
        let mut rng = Xoshiro256::seed_from_u64(5);
        let a: Vec<u8> = (0..96).map(|_| (rng.next_u64() & 1) as u8).collect();
        let b: Vec<u8> = (0..96).map(|_| (rng.next_u64() & 1) as u8).collect();
        let x: Vec<u8> = a.iter().zip(&b).map(|(p, q)| p ^ q).collect();
        assert_eq!(
            CRC24A.compute_bits(&x),
            CRC24A.compute_bits(&a) ^ CRC24A.compute_bits(&b)
        );
    }
}
