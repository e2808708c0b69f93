//! Soft symbol demapping (the `soft demap` kernel of Fig. 3).
//!
//! Produces per-bit log-likelihood ratios `LLR = ln P(b=0|y) − ln P(b=1|y)`
//! for equalised symbols, either exactly (log-sum-exp over the
//! constellation) or with the max-log approximation used by practical
//! receivers. A positive LLR favours bit 0.

use crate::complex::Complex32;
use crate::modulation::Modulation;

/// Exact LLRs for one equalised symbol under AWGN with noise variance
/// `noise_var` (per complex dimension pair, i.e. `E[|n|²]`).
///
/// Output length is [`Modulation::bits_per_symbol`], ordered `b0, b1, …`.
///
/// # Panics
///
/// Panics if `noise_var <= 0`.
pub fn exact_llr(modulation: Modulation, y: Complex32, noise_var: f32, out: &mut Vec<f32>) {
    assert!(noise_var > 0.0, "noise variance must be positive");
    let m = modulation.bits_per_symbol();
    let constellation = modulation.constellation();
    let inv = 1.0 / noise_var;
    for k in 0..m {
        let bit_mask = 1usize << (m - 1 - k);
        let mut num = f64::NEG_INFINITY; // log Σ over b_k = 0
        let mut den = f64::NEG_INFINITY; // log Σ over b_k = 1
        for (label, s) in constellation.iter().enumerate() {
            let metric = (-(y - *s).norm_sqr() * inv) as f64;
            if label & bit_mask == 0 {
                num = log_add(num, metric);
            } else {
                den = log_add(den, metric);
            }
        }
        out.push((num - den) as f32);
    }
}

/// Max-log LLRs for one equalised symbol: replaces the log-sum-exp with a
/// max, the standard receiver approximation.
///
/// # Panics
///
/// Panics if `noise_var <= 0`.
pub fn maxlog_llr(modulation: Modulation, y: Complex32, noise_var: f32, out: &mut Vec<f32>) {
    assert!(noise_var > 0.0, "noise variance must be positive");
    match modulation {
        // QPSK max-log is exactly linear in y.
        Modulation::Qpsk => {
            let a = 2.0 * std::f32::consts::SQRT_2 / noise_var;
            out.push(a * y.re);
            out.push(a * y.im);
        }
        Modulation::Qam16 => {
            let d = modulation.norm();
            axis_llr_2bit(y.re, d, noise_var, out);
            let i = out.len();
            axis_llr_2bit(y.im, d, noise_var, out);
            // Interleave: produced [i0 i1 q0 q1], need [b0=i0 b1=q0 b2=i1 b3=q1].
            let q0 = out[i];
            let i1 = out[i - 1];
            out[i - 1] = q0;
            out[i] = i1;
        }
        Modulation::Qam64 => {
            let d = modulation.norm();
            let base = out.len();
            axis_llr_3bit(y.re, d, noise_var, out);
            axis_llr_3bit(y.im, d, noise_var, out);
            // Reorder [i0 i1 i2 q0 q1 q2] → [i0 q0 i1 q1 i2 q2].
            let tmp = [
                out[base],
                out[base + 3],
                out[base + 1],
                out[base + 4],
                out[base + 2],
                out[base + 5],
            ];
            out[base..base + 6].copy_from_slice(&tmp);
        }
    }
}

/// Demaps a block of symbols with the max-log demapper.
pub fn demap_block(modulation: Modulation, symbols: &[Complex32], noise_var: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(symbols.len() * modulation.bits_per_symbol());
    demap_block_into(modulation, symbols, noise_var, &mut out);
    out
}

/// [`demap_block`] appending into a caller-owned buffer — the
/// zero-allocation hot path writes straight into an arena slice.
///
/// Dispatches to the AVX2 demapper when available (see [`crate::simd`]);
/// the vector path is bit-identical to the scalar loop below.
pub fn demap_block_into(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
    out: &mut Vec<f32>,
) {
    if crate::simd::demap_block_maxlog(modulation, symbols, noise_var, out) {
        return;
    }
    for &y in symbols {
        maxlog_llr(modulation, y, noise_var, out);
    }
}

/// Demaps a block of symbols with the exact log-sum-exp demapper — the
/// high-fidelity path the `DegradeDemap` overload policy falls back
/// from when a subframe is behind its deadline budget.
pub fn demap_block_exact(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(symbols.len() * modulation.bits_per_symbol());
    demap_block_exact_into(modulation, symbols, noise_var, &mut out);
    out
}

/// [`demap_block_exact`] appending into a caller-owned buffer.
pub fn demap_block_exact_into(
    modulation: Modulation,
    symbols: &[Complex32],
    noise_var: f32,
    out: &mut Vec<f32>,
) {
    for &y in symbols {
        exact_llr(modulation, y, noise_var, out);
    }
}

/// Packed hard decisions on *scrambled* LLRs, fused with descrambling.
///
/// On entry `words[i]` holds the scrambling bits `c` of LLRs
/// `64·i .. 64·i + 64` (bit `k` for LLR `64·i + k`, as
/// [`crate::scrambling::GoldWords`] produces them); on exit it holds the
/// hard decisions of the descrambled LLRs, bits past `llrs.len()`
/// cleared. Only the first `⌈llrs.len() / 64⌉` words are touched.
///
/// A decision is 1 unless the descrambled LLR is `>= 0.0`, bit for bit:
/// descrambling negates, so with `c = 1` the test is `l <= 0.0`. That
/// rule is *not* `sign ^ c` — `−0.0` decides 0 under either scrambling
/// bit and NaN decides 1 under either.
///
/// Dispatches whole words to the AVX2 kernel when available
/// ([`crate::simd`]); the scalar loop below gives identical bits.
///
/// # Panics
///
/// Panics if `words` is shorter than `⌈llrs.len() / 64⌉`.
pub fn decide_packed(llrs: &[f32], words: &mut [u64]) {
    let n_words = llrs.len().div_ceil(64);
    assert!(words.len() >= n_words, "decision buffer too short");
    let done = crate::simd::decide_packed(llrs, words);
    for (w, chunk) in words[done..n_words]
        .iter_mut()
        .zip(llrs[64 * done..].chunks(64))
    {
        let mut ge = 0u64;
        let mut le = 0u64;
        for (k, &l) in chunk.iter().enumerate() {
            ge |= u64::from(l >= 0.0) << k;
            le |= u64::from(l <= 0.0) << k;
        }
        let c = *w;
        *w = !((c & le) | (!c & ge)) & (u64::MAX >> (64 - chunk.len()));
    }
}

/// HARQ chase combining: accumulates a retransmission's LLRs into the
/// running per-bit sums.
///
/// Chase combining retransmits the identical encoded block; under
/// independent noise the per-bit LLRs of the attempts add, so the
/// combined stream carries the energy of every transmission. The kernel
/// is deliberately a plain element-wise add — the `harq_combining` bench
/// guards its cost.
///
/// # Panics
///
/// Panics if the slices differ in length (retransmissions of one
/// transport block always demap to the same bit count).
pub fn combine_llrs(acc: &mut [f32], update: &[f32]) {
    assert_eq!(
        acc.len(),
        update.len(),
        "chase combining requires identical LLR lengths"
    );
    for (a, &u) in acc.iter_mut().zip(update) {
        *a += u;
    }
}

/// Per-axis Gray-coded 2-bit PAM max-log LLRs (16-QAM axis with levels
/// ±d, ±3d): closed-form piecewise-linear expressions.
fn axis_llr_2bit(x: f32, d: f32, noise_var: f32, out: &mut Vec<f32>) {
    let levels = [(0b00, d), (0b01, 3.0 * d), (0b10, -d), (0b11, -3.0 * d)];
    push_axis_llrs::<2>(x, &levels, 1.0 / noise_var, out);
}

/// Per-axis Gray-coded 3-bit PAM max-log LLRs (64-QAM axis).
fn axis_llr_3bit(x: f32, d: f32, noise_var: f32, out: &mut Vec<f32>) {
    let inv = 1.0 / noise_var;
    let levels = [
        (0b000, 3.0 * d),
        (0b001, d),
        (0b010, 5.0 * d),
        (0b011, 7.0 * d),
        (0b100, -3.0 * d),
        (0b101, -d),
        (0b110, -5.0 * d),
        (0b111, -7.0 * d),
    ];
    push_axis_llrs::<3>(x, &levels, inv, out);
}

/// Shared max-log PAM demapper over an explicit (label, level) table.
fn push_axis_llrs<const BITS: usize>(
    x: f32,
    levels: &[(usize, f32)],
    inv_noise: f32,
    out: &mut Vec<f32>,
) {
    for k in 0..BITS {
        let mask = 1usize << (BITS - 1 - k);
        let mut best0 = f32::INFINITY;
        let mut best1 = f32::INFINITY;
        for &(label, level) in levels {
            let dist = (x - level) * (x - level);
            if label & mask == 0 {
                best0 = best0.min(dist);
            } else {
                best1 = best1.min(dist);
            }
        }
        out.push((best1 - best0) * inv_noise);
    }
}

fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    /// Unpacked decisions with all scrambling bits zero.
    fn decide_unscrambled(llrs: &[f32]) -> Vec<u8> {
        let mut words = vec![0u64; llrs.len().div_ceil(64)];
        decide_packed(llrs, &mut words);
        (0..llrs.len())
            .map(|i| (words[i / 64] >> (i % 64)) as u8 & 1)
            .collect()
    }

    fn maxlog_reference(m: Modulation, y: Complex32, nv: f32) -> Vec<f32> {
        // Set-based max-log over the full constellation — the executable
        // specification the fast per-axis demappers must match.
        let bits = m.bits_per_symbol();
        let c = m.constellation();
        let mut out = Vec::with_capacity(bits);
        for k in 0..bits {
            let mask = 1usize << (bits - 1 - k);
            let mut b0 = f32::INFINITY;
            let mut b1 = f32::INFINITY;
            for (label, s) in c.iter().enumerate() {
                let d = (y - *s).norm_sqr();
                if label & mask == 0 {
                    b0 = b0.min(d);
                } else {
                    b1 = b1.min(d);
                }
            }
            out.push((b1 - b0) / nv);
        }
        out
    }

    #[test]
    fn noiseless_llr_signs_recover_bits() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for m in Modulation::ALL {
            let bits: Vec<u8> = (0..m.bits_per_symbol() * 64)
                .map(|_| (rng.next_u64() & 1) as u8)
                .collect();
            let symbols = m.map_bits(&bits);
            let llrs = demap_block(m, &symbols, 0.01);
            assert_eq!(decide_unscrambled(&llrs), bits, "{m}");
        }
    }

    #[test]
    fn fast_maxlog_matches_set_based_reference() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for m in Modulation::ALL {
            for _ in 0..500 {
                let y = Complex32::new(3.0 * (rng.next_f32() - 0.5), 3.0 * (rng.next_f32() - 0.5));
                let nv = 0.05 + rng.next_f32();
                let mut fast = Vec::new();
                maxlog_llr(m, y, nv, &mut fast);
                let reference = maxlog_reference(m, y, nv);
                assert_eq!(fast.len(), reference.len());
                for (a, b) in fast.iter().zip(&reference) {
                    assert!(
                        (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                        "{m}: y={y:?} fast={a} ref={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_llr_close_to_maxlog_at_high_snr() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        for m in Modulation::ALL {
            let bits: Vec<u8> = (0..m.bits_per_symbol())
                .map(|_| (rng.next_u64() & 1) as u8)
                .collect();
            let y = m.map_bits(&bits)[0];
            let nv = 1e-3;
            let mut exact = Vec::new();
            exact_llr(m, y, nv, &mut exact);
            let mut approx = Vec::new();
            maxlog_llr(m, y, nv, &mut approx);
            for (a, b) in exact.iter().zip(&approx) {
                // At high SNR the dominant term wins; signs must agree and
                // magnitudes be within a few percent.
                assert_eq!(a.signum(), b.signum(), "{m}");
                assert!((a - b).abs() < 0.05 * a.abs().max(1.0), "{m}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn llr_scales_inversely_with_noise() {
        let y = Complex32::new(0.4, -0.2);
        let mut l1 = Vec::new();
        let mut l2 = Vec::new();
        maxlog_llr(Modulation::Qam16, y, 0.1, &mut l1);
        maxlog_llr(Modulation::Qam16, y, 0.2, &mut l2);
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a - 2.0 * b).abs() < 1e-4);
        }
    }

    #[test]
    fn qpsk_llr_is_linear() {
        let nv = 0.3;
        let mut out = Vec::new();
        maxlog_llr(Modulation::Qpsk, Complex32::new(0.5, -0.7), nv, &mut out);
        let a = 2.0 * std::f32::consts::SQRT_2 / nv;
        assert!((out[0] - a * 0.5).abs() < 1e-4);
        assert!((out[1] - a * -0.7).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_noise_panics() {
        let mut out = Vec::new();
        maxlog_llr(Modulation::Qpsk, Complex32::ONE, 0.0, &mut out);
    }

    #[test]
    fn packed_decision_threshold() {
        assert_eq!(
            decide_unscrambled(&[1.0, -0.5, 0.0, -0.0]),
            vec![0, 1, 0, 0]
        );
    }

    #[test]
    fn packed_decision_follows_the_descrambled_comparison() {
        let specials = [
            1.0f32,
            -0.5,
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 8.0,
        ];
        let mut rng = Xoshiro256::seed_from_u64(13);
        for n in [0usize, 1, 9, 63, 64, 65, 200, 640] {
            let llrs: Vec<f32> = (0..n)
                .map(|_| specials[(rng.next_u64() % specials.len() as u64) as usize])
                .collect();
            let c: Vec<u64> = (0..n.div_ceil(64) + 1).map(|_| rng.next_u64()).collect();
            let mut fast = c.clone();
            crate::simd::force_scalar(false);
            decide_packed(&llrs, &mut fast);
            let mut scalar = c.clone();
            crate::simd::force_scalar(true);
            decide_packed(&llrs, &mut scalar);
            crate::simd::force_scalar(false);
            assert_eq!(fast, scalar, "n={n}");
            for (i, &l) in llrs.iter().enumerate() {
                let flip = (c[i / 64] >> (i % 64)) & 1 == 1;
                let descrambled = if flip { -l } else { l };
                let want = if descrambled >= 0.0 { 0 } else { 1 };
                assert_eq!((fast[i / 64] >> (i % 64)) & 1, want, "n={n} i={i} l={l}");
            }
            if n % 64 != 0 {
                assert_eq!(fast[n / 64] >> (n % 64), 0, "tail bits must be clear");
            }
            assert_eq!(
                fast[n.div_ceil(64)],
                c[n.div_ceil(64)],
                "words past the end untouched"
            );
        }
    }

    #[test]
    fn combine_llrs_is_elementwise_addition() {
        let mut acc = vec![1.0, -2.0, 0.5, 0.0];
        combine_llrs(&mut acc, &[0.5, -1.0, -2.0, 3.0]);
        assert_eq!(acc, vec![1.5, -3.0, -1.5, 3.0]);
    }

    #[test]
    fn combining_opposed_weak_llrs_follows_the_stronger_vote() {
        // A weak wrong decision is outvoted by a stronger correct one —
        // the essence of chase combining.
        let mut acc = vec![-0.2]; // wrong lean for a transmitted 0
        combine_llrs(&mut acc, &[0.9]); // confident correct retransmission
        assert_eq!(decide_unscrambled(&acc), vec![0]);
    }

    #[test]
    #[should_panic(expected = "identical LLR lengths")]
    fn combine_llrs_rejects_length_mismatch() {
        let mut acc = vec![0.0; 3];
        combine_llrs(&mut acc, &[0.0; 4]);
    }
}
