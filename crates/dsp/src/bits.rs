//! Bit-packing primitives for the hard-decision tail.
//!
//! The pass-through receiver carries decided bits packed in words from
//! the hard decision onward. These helpers convert between the one-bit-
//! per-byte form the transmitter and [`crate::crc::Crc::compute_bits`]
//! use and packed bytes, and transpose 32×32 bit blocks for the
//! sub-block deinterleaver ([`crate::interleave::deinterleave_packed`]).

/// Packs eight one-bit bytes (`bits[0]` first) into one MSB-first byte.
/// Each element is masked to its low bit.
///
/// # Panics
///
/// Panics if `bits.len() != 8`.
#[inline]
pub(crate) fn pack_msb8(bits: &[u8]) -> u8 {
    let x = u64::from_le_bytes(bits.try_into().expect("eight bits")) & 0x0101_0101_0101_0101;
    // Bit 8k (element k) lands on bit 63 − k; no two products collide
    // or carry, so the top byte is the packed value.
    (x.wrapping_mul(0x8040_2010_0804_0201) >> 56) as u8
}

/// `UNPACK_MSB[b]` holds byte `b`'s bits MSB-first, one per byte, in
/// little-endian order: `UNPACK_MSB[b].to_le_bytes()[k] == (b >> (7 − k)) & 1`.
const UNPACK_MSB: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            t[b] |= (((b >> (7 - k)) & 1) as u64) << (8 * k);
            k += 1;
        }
        b += 1;
    }
    t
};

/// Unpacks the first `out.len()` bits of an MSB-first byte stream into
/// one byte per bit, eight bits per table lookup.
///
/// # Panics
///
/// Panics if `bytes` holds fewer than `out.len()` bits.
pub fn unpack_msb_into(bytes: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 8 * bytes.len(), "bit count exceeds the buffer");
    let whole = out.len() / 8;
    let mut chunks = out.chunks_exact_mut(8);
    for (dst, &b) in (&mut chunks).zip(bytes) {
        dst.copy_from_slice(&UNPACK_MSB[b as usize].to_le_bytes());
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let last = UNPACK_MSB[bytes[whole] as usize].to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

/// Transposes a 32×32 bit matrix in place: bit `c` of `m[r]` moves to
/// bit `r` of `m[c]`. Five rounds of masked block swaps (16, 8, 4, 2, 1).
#[inline]
pub(crate) fn transpose32(m: &mut [u32; 32]) {
    let mut j = 16;
    let mut mask: u32 = 0x0000_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 32 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k + j] ^= t;
            m[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn pack_msb8_puts_the_first_bit_on_top() {
        assert_eq!(pack_msb8(&[1, 0, 0, 0, 0, 0, 0, 0]), 0x80);
        assert_eq!(pack_msb8(&[0, 0, 0, 0, 0, 0, 0, 1]), 0x01);
        assert_eq!(pack_msb8(&[1, 1, 0, 1, 0, 0, 1, 1]), 0b1101_0011);
        assert_eq!(pack_msb8(&[3, 2, 5, 4, 7, 6, 9, 8]), 0b1010_1010);
        for b in 0..=255u8 {
            let bits: Vec<u8> = (0..8).map(|k| (b >> (7 - k)) & 1).collect();
            assert_eq!(pack_msb8(&bits), b);
        }
    }

    #[test]
    fn unpack_inverts_pack_at_every_length() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let bytes: Vec<u8> = (0..16).map(|_| rng.next_u32() as u8).collect();
        for n in 0..=128 {
            let mut out = vec![9u8; n];
            unpack_msb_into(&bytes, &mut out);
            for (i, &bit) in out.iter().enumerate() {
                assert_eq!(bit, (bytes[i / 8] >> (7 - i % 8)) & 1, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn transpose32_matches_the_naive_transpose() {
        let mut rng = Xoshiro256::seed_from_u64(12);
        let mut m = [0u32; 32];
        for w in m.iter_mut() {
            *w = rng.next_u32();
        }
        let original = m;
        transpose32(&mut m);
        for (r, &row) in original.iter().enumerate() {
            for (c, &col) in m.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "r={r} c={c}");
            }
        }
        transpose32(&mut m);
        assert_eq!(m, original, "a transpose is an involution");
    }
}
