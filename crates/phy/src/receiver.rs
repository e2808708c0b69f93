//! The complete per-user receive pipeline (Fig. 3) and its serial
//! reference implementation.
//!
//! [`process_user`] runs every stage in order on one thread — this is the
//! *serial version* the paper uses to verify the parallel benchmark
//! (§IV-D). The parallel runtime in `lte-uplink` calls the same kernels
//! ([`crate::estimator::estimate_path`], [`crate::combiner::combine_symbol`],
//! [`finish_user`]) as work-stealing tasks; because every task computes an
//! independent output block, serial and parallel results are bit-exact.

use std::cell::RefCell;

use lte_dsp::arena::ScratchArena;
use lte_dsp::bits::unpack_msb_into;
use lte_dsp::crc::CRC24A;
use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::{deinterleave_packed, subblock_cached, Interleaver};
use lte_dsp::llr::{decide_packed, demap_block, demap_block_into};
use lte_dsp::rate_match::RateMatcher;
use lte_dsp::scrambling::{descramble_llrs, GoldWords};
use lte_dsp::segmentation::Segmentation;
use lte_dsp::turbo::{TurboDecoder, TurboLlrs, TurboWorkspace};
use lte_dsp::Complex32;
use lte_obs::{Recorder, Stage};

use crate::combiner::{combine_symbol, combine_symbol_into, CombinerWeights, MmseScratch};
use crate::estimator::{estimate_path_into, estimate_slot, estimate_slot_traced, ChannelEstimate};
use crate::grid::UserInput;
use crate::params::{CellConfig, TurboMode, DATA_SYMBOLS_PER_SLOT, SLOTS_PER_SUBFRAME};
use crate::trace::StageTimer;
use crate::tx::FramePlan;

/// The outcome of processing one user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserResult {
    /// Decoded payload bits (CRC stripped).
    pub payload: Vec<u8>,
    /// Whether the CRC verified.
    pub crc_ok: bool,
}

impl UserResult {
    /// `true` when the payload matches the transmitted ground truth.
    pub fn matches(&self, ground_truth: &[u8]) -> bool {
        self.crc_ok && self.payload == ground_truth
    }
}

/// Per-worker decode-tail state: a small cache of constructed
/// decoder/rate-matcher pairs keyed on `(block size, iterations)` (QPP
/// interleaver construction is far too expensive to repeat per subframe),
/// the reusable SISO workspace, the LLR/bit staging buffers, and the
/// pass-through tail's packed buffers. With a warm cache neither tail
/// allocates.
#[derive(Default)]
pub struct TurboScratch {
    codecs: Vec<(usize, usize, TurboDecoder, RateMatcher)>,
    workspace: TurboWorkspace,
    llrs: TurboLlrs,
    block_bits: Vec<u8>,
    /// Gold words, then the hard decisions, in transmission order.
    decisions: Vec<u64>,
    /// Dummy-padded frame rows out of the bit transpose.
    rows: Vec<u32>,
    /// The deinterleaved frame, MSB-first bytes.
    frame: Vec<u8>,
}

impl TurboScratch {
    /// A fresh scratch; the codec cache fills on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rate-dematches and turbo-decodes one code block's share of the
    /// descrambled allocation, returning the decoded bits (borrowed
    /// from the internal staging buffer, valid until the next call).
    ///
    /// The deinterleave is fused into the rate-match scatter-add:
    /// `gather` is this block's slice of the allocation interleaver's
    /// inverse permutation, and the accumulator reads `src` through it
    /// instead of a pre-deinterleaved buffer — bit-exact versus the
    /// two-step path, minus one full pass over the allocation.
    fn decode_block_gathered(
        &mut self,
        k: usize,
        iterations: usize,
        src: &[f32],
        gather: &[u32],
    ) -> &[u8] {
        let pos = match self
            .codecs
            .iter()
            .position(|&(ck, ci, ..)| ck == k && ci == iterations)
        {
            Some(pos) => pos,
            None => {
                self.codecs.push((
                    k,
                    iterations,
                    TurboDecoder::new(k, iterations),
                    RateMatcher::new(k),
                ));
                self.codecs.len() - 1
            }
        };
        let (_, _, decoder, matcher) = &self.codecs[pos];
        matcher.accumulate_llrs_gather_into(src, gather, &mut self.llrs);
        decoder.decode_into(&self.llrs, &mut self.workspace, &mut self.block_bits);
        &self.block_bits
    }
}

/// Undoes rate matching, turbo-decodes and desegments one transport
/// block straight from the *descrambled* (still interleaved) LLR
/// stream, appending the reassembled bits to `bits`. The allocation
/// deinterleave is fused into each block's rate-match gather through
/// `interleaver`'s inverse permutation — no deinterleaved buffer is
/// ever materialised, which removes a full store/reload pass over the
/// allocation from the decode tail. Shared by the allocating and
/// arena-backed tails so their results are byte-identical by
/// construction. Per-block CRC-24B failures are absorbed here (a failed
/// block CRC implies the transport CRC-24A will fail too, matching
/// `desegment`'s contract).
fn decode_transport(
    turbo: &mut TurboScratch,
    descrambled: &[f32],
    interleaver: &Interleaver,
    iterations: usize,
    transport_bits: usize,
    bits: &mut Vec<u8>,
) {
    let shape = Segmentation::shape_for_len(transport_bits);
    let (n_blocks, k) = (shape.n_blocks, shape.block_size);
    // The per-block shares of crate::tx::rate_match_shares, computed
    // inline to keep this path allocation-free.
    let inverse = interleaver.inverse_permutation();
    let total = descrambled.len();
    debug_assert_eq!(inverse.len(), total);
    let base = total / n_blocks;
    let rem = total % n_blocks;
    let mut cursor = 0usize;
    for b in 0..n_blocks {
        let e = base + usize::from(b < rem);
        let gather = &inverse[cursor..cursor + e];
        cursor += e;
        let _block_ok = shape.desegment_block_into(
            b,
            turbo.decode_block_gathered(k, iterations, descrambled, gather),
            bits,
        );
    }
}

/// Runs the final, non-parallelisable tail of the pipeline: deinterleave →
/// soft demap has already produced `llrs` in transmission order; this
/// performs deinterleaving, turbo decode (or pass-through), and the CRC.
///
/// `llrs` must be ordered exactly as the transmitter's
/// [`crate::tx::split_bits`] chunks: slot-major, then symbol, then layer.
///
/// # Panics
///
/// Panics if `llrs.len()` does not equal the user's bits-per-subframe.
pub fn finish_user(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    llrs: &[f32],
) -> UserResult {
    finish_user_traced(cell, input, mode, llrs, &StageTimer::disabled())
}

/// [`finish_user`] with deinterleave / turbo / CRC trace spans.
///
/// # Panics
///
/// Panics if `llrs.len()` does not equal the user's bits-per-subframe.
pub fn finish_user_traced<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    llrs: &[f32],
    timer: &StageTimer<'_, R>,
) -> UserResult {
    let user = &input.config;
    let total = user.bits_per_subframe();
    assert_eq!(llrs.len(), total, "LLR count must match the allocation");
    let c_init = crate::tx::scrambling_init(cell, user);
    // This reference path builds its scratch fresh each call; the
    // steady-state path reuses a per-worker [`TurboScratch`].
    let mut turbo = TurboScratch::new();
    match (mode, FramePlan::for_user(user, mode)) {
        (TurboMode::Passthrough, FramePlan::Passthrough { payload_bits }) => {
            passthrough_tail(llrs, c_init, payload_bits, &mut turbo, Vec::new(), timer)
        }
        (TurboMode::Decode { iterations }, FramePlan::Coded { transport_bits, .. }) => {
            // Descramble only: the deinterleave is fused into the
            // per-block rate-match gather inside `decode_transport`, so
            // the deinterleaved buffer is never materialised.
            let descrambled = timer.time(Stage::Deinterleave, || {
                let mut llrs = llrs.to_vec();
                descramble_llrs(&mut llrs, c_init);
                llrs
            });
            let mut bits = timer.time(Stage::Turbo, || {
                let mut bits = Vec::new();
                decode_transport(
                    &mut turbo,
                    &descrambled,
                    &subblock_cached(total),
                    iterations,
                    transport_bits,
                    &mut bits,
                );
                bits
            });
            let crc_ok = timer.time(Stage::Crc, || check_transport(&mut bits, transport_bits));
            UserResult {
                payload: bits,
                crc_ok,
            }
        }
        _ => unreachable!("plan always matches mode"),
    }
}

/// [`finish_user`] with every working buffer drawn from `arena` and
/// `turbo` — the zero-allocation tail of the steady-state path. The
/// returned payload's storage also comes from the arena; callers that
/// want a fully allocation-free loop hand it back with
/// [`ScratchArena::recycle_u8`] once they are done with it.
///
/// Arithmetic and ordering match [`finish_user`] exactly, so results are
/// byte-identical.
///
/// # Panics
///
/// Panics if `llrs.len()` does not equal the user's bits-per-subframe.
pub fn finish_user_with_arena(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    llrs: &[f32],
    arena: &mut ScratchArena,
    turbo: &mut TurboScratch,
) -> UserResult {
    let user = &input.config;
    let total = user.bits_per_subframe();
    assert_eq!(llrs.len(), total, "LLR count must match the allocation");
    let c_init = crate::tx::scrambling_init(cell, user);
    match (mode, FramePlan::for_user(user, mode)) {
        (TurboMode::Passthrough, FramePlan::Passthrough { payload_bits }) => {
            let payload = arena.take_u8(payload_bits);
            passthrough_tail(
                llrs,
                c_init,
                payload_bits,
                turbo,
                payload,
                &StageTimer::disabled(),
            )
        }
        (TurboMode::Decode { iterations }, FramePlan::Coded { transport_bits, .. }) => {
            // Decode through the per-worker turbo scratch with the
            // deinterleave fused into each block's rate-match gather:
            // with a warm codec cache the whole tail — gather-dematch,
            // SISO iterations, desegmentation — reuses held buffers and
            // allocates nothing.
            let mut descrambled = arena.take_f32(total);
            descrambled.extend_from_slice(llrs);
            descramble_llrs(&mut descrambled, c_init);
            let mut bits = arena.take_u8(transport_bits);
            decode_transport(
                turbo,
                &descrambled,
                &subblock_cached(total),
                iterations,
                transport_bits,
                &mut bits,
            );
            arena.recycle_f32(descrambled);
            let crc_ok = check_transport(&mut bits, transport_bits);
            UserResult {
                payload: bits,
                crc_ok,
            }
        }
        _ => unreachable!("plan always matches mode"),
    }
}

/// Checks a decoded transport block's CRC-24A and strips it, leaving the
/// payload in `bits`.
fn check_transport(bits: &mut Vec<u8>, transport_bits: usize) -> bool {
    bits.truncate(transport_bits);
    let crc_ok = CRC24A.check_bits(bits);
    bits.truncate(transport_bits - 24);
    crc_ok
}

/// The pass-through tail, bit-packed from the hard decision onward: the
/// one implementation behind [`finish_user_traced`] and
/// [`finish_user_with_arena`].
///
/// `llrs` are the raw (still scrambled and interleaved) LLRs of a frame
/// of `llrs.len()` bits whose first `payload_bits + 24` bits are the
/// CRC-24A-protected payload; `c_init` seeds the scrambling sequence.
/// The decoded payload is written into `payload` (cleared first; pass an
/// arena buffer to stay allocation-free) and returned with the CRC
/// verdict. Every packed buffer lives in `turbo`.
///
/// Under [`Stage::Deinterleave`]: the Gold sequence 64 bits per word,
/// the fused descramble + hard decision ([`decide_packed`]), and the
/// bit-transpose deinterleave ([`deinterleave_packed`]). Under
/// [`Stage::Crc`]: the table-driven CRC-24A over the packed frame and
/// the table unpack of the payload to one byte per bit. The bits equal
/// descramble → deinterleave → `!(llr >= 0.0)` → bit-serial CRC for
/// every input, ±0 and NaN included.
///
/// # Panics
///
/// Panics if `payload_bits + 24 > llrs.len()`.
pub fn passthrough_tail<R: Recorder>(
    llrs: &[f32],
    c_init: u32,
    payload_bits: usize,
    turbo: &mut TurboScratch,
    mut payload: Vec<u8>,
    timer: &StageTimer<'_, R>,
) -> UserResult {
    let n = llrs.len();
    let frame_bits = payload_bits + 24;
    assert!(frame_bits <= n, "frame longer than the allocation");
    let TurboScratch {
        decisions,
        rows,
        frame,
        ..
    } = turbo;
    timer.time(Stage::Deinterleave, || {
        let mut gold = GoldWords::new(c_init);
        decisions.clear();
        decisions.extend((0..n.div_ceil(64)).map(|_| gold.next_word()));
        decide_packed(llrs, decisions);
        deinterleave_packed(decisions, n, rows, frame);
    });
    let crc_ok = timer.time(Stage::Crc, || {
        payload.clear();
        payload.resize(payload_bits, 0);
        unpack_msb_into(frame, &mut payload);
        CRC24A.compute_packed(frame, frame_bits) == 0
    });
    UserResult { payload, crc_ok }
}

/// Soft-demaps one combined (symbol, layer) block into LLRs.
pub fn demap_symbol(input: &UserInput, combined: &[Complex32]) -> Vec<f32> {
    demap_block(input.config.modulation, combined, input.noise_var)
}

/// [`demap_symbol`] appending into a caller-owned buffer.
pub fn demap_symbol_into(input: &UserInput, combined: &[Complex32], out: &mut Vec<f32>) {
    demap_block_into(input.config.modulation, combined, input.noise_var, out);
}

/// [`demap_symbol`] with the exact log-sum-exp demapper instead of the
/// max-log approximation — the fidelity the `DegradeDemap` overload
/// policy gives up when the receiver falls behind its deadline budget.
pub fn demap_symbol_exact(input: &UserInput, combined: &[Complex32]) -> Vec<f32> {
    lte_dsp::llr::demap_block_exact(input.config.modulation, combined, input.noise_var)
}

/// Processes one user end to end, serially — the reference path.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn process_user(cell: &CellConfig, input: &UserInput, mode: TurboMode) -> UserResult {
    let planner = FftPlanner::new();
    process_user_with_planner(cell, input, mode, &planner)
}

/// [`process_user`] with a shared FFT planner (avoids replanning when many
/// users share allocation sizes).
pub fn process_user_with_planner(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    planner: &FftPlanner,
) -> UserResult {
    process_user_traced(cell, input, mode, planner, &StageTimer::disabled())
}

/// The serial pipeline with every stage wrapped in a wall-clock trace
/// span: the estimation kernels (matched filter, IFFT, window, FFT),
/// combiner weights, per-symbol combining, demapping, and the serial
/// tail (deinterleave, turbo, CRC).
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn process_user_traced<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    planner: &FftPlanner,
    timer: &StageTimer<'_, R>,
) -> UserResult {
    let llrs = demodulate_user_traced(cell, input, planner, timer);
    // Stage 3: deinterleave → (turbo) decode → CRC.
    finish_user_traced(cell, input, mode, &llrs, timer)
}

/// Runs the demodulation front half of the pipeline — estimation,
/// combiner weights, antenna combining and soft demapping — and returns
/// the raw (still scrambled/interleaved) LLRs in transmission order.
///
/// This is the HARQ soft-combining boundary: retransmissions of one
/// transport block are scrambled identically, so their raw LLR streams
/// add element-wise ([`lte_dsp::llr::combine_llrs`]) before a single
/// [`finish_user`] pass descrambles and decodes the combination.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn demodulate_user(cell: &CellConfig, input: &UserInput, planner: &FftPlanner) -> Vec<f32> {
    demodulate_user_traced(cell, input, planner, &StageTimer::disabled())
}

/// [`demodulate_user`] with per-stage wall-clock trace spans.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn demodulate_user_traced<R: Recorder>(
    cell: &CellConfig,
    input: &UserInput,
    planner: &FftPlanner,
    timer: &StageTimer<'_, R>,
) -> Vec<f32> {
    input.validate();
    let user = &input.config;

    // Stage 1: channel estimation per slot (rx × layer tasks), then
    // combiner weights — data processing for a slot needs that slot's
    // estimate (§II-C).
    let weights: Vec<CombinerWeights> = (0..SLOTS_PER_SUBFRAME)
        .map(|slot| {
            let est = estimate_slot_traced(cell, input, slot, planner, timer);
            timer.time(Stage::Weights, || {
                CombinerWeights::mmse(&est, input.noise_var)
            })
        })
        .collect();

    // Stage 2: antenna combining + IFFT per (slot, symbol, layer), then
    // soft demapping, keeping the transmitter's bit order.
    let mut llrs = Vec::with_capacity(user.bits_per_subframe());
    #[allow(clippy::needless_range_loop)] // slot indexes input and weights in parallel
    for slot in 0..SLOTS_PER_SUBFRAME {
        for sym in 0..DATA_SYMBOLS_PER_SLOT {
            for layer in 0..user.layers {
                let combined = timer.time(Stage::Combining, || {
                    combine_symbol(input, &weights[slot], slot, sym, layer, planner)
                });
                let demapped = timer.time(Stage::Demap, || demap_symbol(input, &combined));
                llrs.extend(demapped);
            }
        }
    }
    llrs
}

/// Per-thread reusable state for the zero-allocation receive path: the
/// buffer arena plus the estimate, weight and matrix scratch the
/// pipeline reshapes in place every subframe.
///
/// One instance lives per worker thread (see [`UserScratch::with`]);
/// nothing here is shared, so there is no locking on the hot path.
#[derive(Default)]
pub struct UserScratch {
    /// Size-classed buffer pools and FFT working space.
    pub arena: ScratchArena,
    /// Cached turbo decoders, SISO workspace and LLR staging buffers.
    pub turbo: TurboScratch,
    est: ChannelEstimate,
    weights: Vec<CombinerWeights>,
    mmse: MmseScratch,
    combined: Vec<Complex32>,
    llrs: Vec<f32>,
}

thread_local! {
    static USER_SCRATCH: RefCell<UserScratch> = RefCell::new(UserScratch::default());
}

impl UserScratch {
    /// A fresh scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with this thread's scratch.
    ///
    /// The closure must not call [`UserScratch::with`] again (the
    /// `RefCell` would panic) — in particular it must not block on a
    /// work-stealing scope whose stolen tasks might re-enter the
    /// scratch. Keep each borrow confined to one task's straight-line
    /// work.
    pub fn with<T>(f: impl FnOnce(&mut UserScratch) -> T) -> T {
        USER_SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }

    /// Computes one slot's combiner weights from a flat
    /// `[rx][layer][subcarrier]` path buffer through this scratch's
    /// matrices — the parallel runtime's estimation tasks write such a
    /// buffer, and the user thread turns it into weights here without
    /// allocating any intermediates.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != n_rx * n_layers * n_sc` or
    /// `noise_var <= 0`.
    pub fn weights_from_flat_estimate(
        &mut self,
        n_rx: usize,
        n_layers: usize,
        n_sc: usize,
        flat: &[Complex32],
        noise_var: f32,
    ) -> CombinerWeights {
        assert_eq!(flat.len(), n_rx * n_layers * n_sc, "path buffer mismatch");
        self.est.reset(n_rx, n_layers, n_sc);
        for rx in 0..n_rx {
            for layer in 0..n_layers {
                let base = (rx * n_layers + layer) * n_sc;
                self.est
                    .path_mut(rx, layer)
                    .copy_from_slice(&flat[base..base + n_sc]);
            }
        }
        let mut weights = CombinerWeights::empty();
        weights.compute(&self.est, noise_var, &mut self.mmse);
        weights
    }
}

/// [`demodulate_user`] with all working state drawn from `scratch`,
/// appending the LLRs to `out` — the zero-allocation front half of the
/// steady-state path. Kernel order and arithmetic match the allocating
/// pipeline exactly, so the LLR stream is byte-identical.
///
/// `out` is cleared and refilled; its capacity is reused.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn demodulate_user_into(
    cell: &CellConfig,
    input: &UserInput,
    planner: &FftPlanner,
    scratch: &mut UserScratch,
    out: &mut Vec<f32>,
) {
    input.validate();
    let user = &input.config;
    let n_sc = user.subcarriers();

    // Stage 1: channel estimation per slot (rx × layer tasks), then
    // combiner weights — data processing for a slot needs that slot's
    // estimate (§II-C).
    scratch
        .weights
        .resize_with(SLOTS_PER_SUBFRAME, CombinerWeights::empty);
    for slot in 0..SLOTS_PER_SUBFRAME {
        scratch.est.reset(cell.n_rx, user.layers, n_sc);
        for rx in 0..cell.n_rx {
            for layer in 0..user.layers {
                estimate_path_into(
                    cell,
                    input,
                    slot,
                    rx,
                    layer,
                    planner,
                    &mut scratch.arena,
                    scratch.est.path_mut(rx, layer),
                );
            }
        }
        scratch.weights[slot].compute(&scratch.est, input.noise_var, &mut scratch.mmse);
    }

    // Stage 2: antenna combining + IFFT per (slot, symbol, layer), then
    // soft demapping, keeping the transmitter's bit order.
    out.clear();
    out.reserve(user.bits_per_subframe());
    for slot in 0..SLOTS_PER_SUBFRAME {
        for sym in 0..DATA_SYMBOLS_PER_SLOT {
            for layer in 0..user.layers {
                combine_symbol_into(
                    input,
                    &scratch.weights[slot],
                    slot,
                    sym,
                    layer,
                    planner,
                    &mut scratch.arena,
                    &mut scratch.combined,
                );
                demap_block_into(user.modulation, &scratch.combined, input.noise_var, out);
            }
        }
    }
}

/// [`process_user_with_planner`] running entirely on this thread's
/// [`UserScratch`] — the zero-allocation serial pipeline. After warmup
/// the only heap traffic is the returned payload, whose storage cycles
/// through the arena when the caller recycles it.
///
/// # Panics
///
/// Panics if `input` is internally inconsistent (see
/// [`UserInput::validate`]).
pub fn process_user_pooled(
    cell: &CellConfig,
    input: &UserInput,
    mode: TurboMode,
    planner: &FftPlanner,
) -> UserResult {
    UserScratch::with(|scratch| {
        let mut llrs = std::mem::take(&mut scratch.llrs);
        demodulate_user_into(cell, input, planner, scratch, &mut llrs);
        let result = finish_user_with_arena(
            cell,
            input,
            mode,
            &llrs,
            &mut scratch.arena,
            &mut scratch.turbo,
        );
        scratch.llrs = llrs;
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::UserConfig;
    use crate::tx::{synthesize_user, synthesize_user_over_channel, synthesize_user_with_mode};
    use lte_dsp::channel::MimoChannel;
    use lte_dsp::{Modulation, Xoshiro256};

    #[test]
    fn clean_channel_every_modulation_and_layer_count() {
        let cell = CellConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(100);
        for modulation in Modulation::ALL {
            // Higher-order constellations need more margin against MMSE
            // noise enhancement on random ill-conditioned 4×4 channels.
            let snr_db = match modulation {
                Modulation::Qpsk => 30.0,
                Modulation::Qam16 => 35.0,
                Modulation::Qam64 => 45.0,
            };
            for layers in 1..=4 {
                let user = UserConfig::new(4, layers, modulation);
                let input = synthesize_user(&cell, &user, snr_db, &mut rng);
                let result = process_user(&cell, &input, TurboMode::Passthrough);
                assert!(
                    result.matches(&input.ground_truth),
                    "{modulation} x{layers} failed (crc_ok={})",
                    result.crc_ok
                );
            }
        }
    }

    #[test]
    fn large_allocation_decodes() {
        let cell = CellConfig::default();
        let user = UserConfig::new(50, 2, Modulation::Qam64);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let input = synthesize_user(&cell, &user, 35.0, &mut rng);
        let result = process_user(&cell, &input, TurboMode::Passthrough);
        assert!(result.matches(&input.ground_truth));
    }

    #[test]
    fn turbo_decode_mode_round_trips() {
        let cell = CellConfig::default();
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let mode = TurboMode::Decode { iterations: 4 };
        let mut rng = Xoshiro256::seed_from_u64(8);
        let input = synthesize_user_with_mode(&cell, &user, mode, 25.0, &mut rng);
        let result = process_user(&cell, &input, mode);
        assert!(result.matches(&input.ground_truth));
    }

    #[test]
    fn turbo_decode_survives_lower_snr_than_passthrough() {
        // The coded mode should still pass CRC at an SNR where the uncoded
        // pass-through frame takes bit errors.
        let cell = CellConfig::default();
        let user = UserConfig::new(8, 1, Modulation::Qpsk);
        let snr_db = 3.0;
        let mut failures_plain = 0;
        let mut failures_coded = 0;
        for seed in 0..8 {
            let mut rng = Xoshiro256::seed_from_u64(1000 + seed);
            let channel = MimoChannel::randomize(cell.n_rx, 1, 3, &mut rng);
            let plain = synthesize_user_over_channel(
                &cell,
                &user,
                TurboMode::Passthrough,
                snr_db,
                &channel,
                &mut rng,
            );
            if !process_user(&cell, &plain, TurboMode::Passthrough).matches(&plain.ground_truth) {
                failures_plain += 1;
            }
            let mode = TurboMode::Decode { iterations: 6 };
            let coded =
                synthesize_user_over_channel(&cell, &user, mode, snr_db, &channel, &mut rng);
            if !process_user(&cell, &coded, mode).matches(&coded.ground_truth) {
                failures_coded += 1;
            }
        }
        assert!(
            failures_coded <= failures_plain,
            "coded {failures_coded} vs plain {failures_plain}"
        );
    }

    #[test]
    fn corrupted_input_fails_crc() {
        let cell = CellConfig::default();
        let user = UserConfig::new(4, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(55);
        let mut input = synthesize_user(&cell, &user, 35.0, &mut rng);
        // Zero out one whole data symbol on every antenna.
        for rx in 0..cell.n_rx {
            for z in input.slots[0].data[2].antenna_mut(rx) {
                *z = Complex32::ZERO;
            }
        }
        let result = process_user(&cell, &input, TurboMode::Passthrough);
        assert!(!result.crc_ok, "CRC must catch a destroyed symbol");
    }

    #[test]
    fn wrong_cell_identity_fails_to_decode() {
        // A subframe synthesized for one cell must not decode in a
        // neighbouring cell: the reference sequences (Zadoff–Chu root)
        // and scrambling (physical-cell identity) both differ.
        let a = CellConfig::with_identity(2, 3);
        let b = CellConfig::with_identity(2, 4);
        let user = UserConfig::new(6, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(42);
        let input = synthesize_user(&a, &user, 30.0, &mut rng);
        assert!(process_user(&a, &input, TurboMode::Passthrough).matches(&input.ground_truth));
        assert!(!process_user(&b, &input, TurboMode::Passthrough).crc_ok);
    }

    #[test]
    fn deterministic_results() {
        let cell = CellConfig::default();
        let user = UserConfig::new(10, 3, Modulation::Qam16);
        let input = synthesize_user(&cell, &user, 30.0, &mut Xoshiro256::seed_from_u64(77));
        let a = process_user(&cell, &input, TurboMode::Passthrough);
        let b = process_user(&cell, &input, TurboMode::Passthrough);
        assert_eq!(a, b);
    }

    #[test]
    fn pooled_pipeline_matches_allocating_pipeline_bitwise() {
        let cell = CellConfig::default();
        let planner = FftPlanner::new();
        let mut rng = Xoshiro256::seed_from_u64(31);
        for (prbs, layers, modulation) in [
            (4, 1, Modulation::Qpsk),
            (10, 2, Modulation::Qam16),
            (25, 4, Modulation::Qam64),
        ] {
            let user = UserConfig::new(prbs, layers, modulation);
            let input = synthesize_user(&cell, &user, 35.0, &mut rng);
            let fresh = process_user_with_planner(&cell, &input, TurboMode::Passthrough, &planner);
            let pooled = process_user_pooled(&cell, &input, TurboMode::Passthrough, &planner);
            assert_eq!(fresh, pooled, "{modulation} x{layers} prbs {prbs}");
        }
    }

    #[test]
    fn pooled_pipeline_matches_in_decode_mode() {
        let cell = CellConfig::default();
        let planner = FftPlanner::new();
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let mode = TurboMode::Decode { iterations: 4 };
        let mut rng = Xoshiro256::seed_from_u64(8);
        let input = synthesize_user_with_mode(&cell, &user, mode, 25.0, &mut rng);
        let fresh = process_user_with_planner(&cell, &input, mode, &planner);
        let pooled = process_user_pooled(&cell, &input, mode, &planner);
        assert_eq!(fresh, pooled);
        assert!(pooled.matches(&input.ground_truth));
    }

    #[test]
    fn finish_user_with_arena_matches_and_recycles() {
        let cell = CellConfig::default();
        let user = UserConfig::new(8, 2, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(17);
        let input = synthesize_user(&cell, &user, 35.0, &mut rng);
        let planner = FftPlanner::new();
        let llrs = demodulate_user(&cell, &input, &planner);
        let fresh = finish_user(&cell, &input, TurboMode::Passthrough, &llrs);
        let mut arena = ScratchArena::new();
        let mut turbo = TurboScratch::new();
        let mut storage = None;
        for _ in 0..3 {
            let pooled = finish_user_with_arena(
                &cell,
                &input,
                TurboMode::Passthrough,
                &llrs,
                &mut arena,
                &mut turbo,
            );
            assert_eq!(fresh, pooled);
            // The payload is the tail's only arena buffer: once recycled,
            // the next call must write into the same storage.
            let ptr = pooled.payload.as_ptr();
            assert_eq!(*storage.get_or_insert(ptr), ptr, "payload must be reused");
            arena.recycle_u8(pooled.payload);
        }
        assert!(arena.pooled_buffers() >= 1, "buffers must return to pool");
    }

    #[test]
    #[should_panic(expected = "LLR count")]
    fn finish_user_checks_llr_length() {
        let cell = CellConfig::default();
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let input = synthesize_user(&cell, &user, 30.0, &mut Xoshiro256::seed_from_u64(1));
        finish_user(&cell, &input, TurboMode::Passthrough, &[0.0; 10]);
    }

    #[test]
    fn traced_pipeline_matches_untraced_and_covers_every_stage() {
        use lte_obs::{Event, RingRecorder, Stage};

        let cell = CellConfig::default();
        let user = UserConfig::new(6, 2, Modulation::Qam16);
        let planner = FftPlanner::new();
        let stages_seen = |mode: TurboMode, seed: u64| {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let input = synthesize_user_with_mode(&cell, &user, mode, 30.0, &mut rng);
            let plain = process_user(&cell, &input, mode);
            let recorder = RingRecorder::new(1 << 16);
            let timer = StageTimer::new(&recorder);
            let traced = process_user_traced(&cell, &input, mode, &planner, &timer);
            assert_eq!(plain, traced, "tracing must not change results");
            assert!(traced.matches(&input.ground_truth));
            let mut seen = std::collections::BTreeSet::new();
            for ev in recorder.events() {
                if let Event::StageSpan {
                    stage,
                    start_ns,
                    end_ns,
                } = ev
                {
                    assert!(end_ns >= start_ns);
                    seen.insert(stage.name());
                }
            }
            seen
        };
        let front_and_tail = [
            Stage::MatchedFilter,
            Stage::Ifft,
            Stage::Window,
            Stage::Fft,
            Stage::Weights,
            Stage::Combining,
            Stage::Demap,
            Stage::Deinterleave,
            Stage::Crc,
        ];
        // Pass-through has no decoder: its hard decision runs under
        // Deinterleave, so no Turbo span appears.
        let passthrough = stages_seen(TurboMode::Passthrough, 21);
        for stage in front_and_tail {
            assert!(passthrough.contains(stage.name()), "no span for {stage}");
        }
        assert!(!passthrough.contains(Stage::Turbo.name()));
        let decode = stages_seen(TurboMode::Decode { iterations: 2 }, 22);
        for stage in front_and_tail.iter().chain(&[Stage::Turbo]) {
            assert!(decode.contains(stage.name()), "no span for {stage}");
        }
    }

    #[test]
    fn passthrough_tail_equals_the_byte_per_bit_reference() {
        // Odd frame lengths (n mod 32 != 0, so dummy padding is live)
        // and LLRs from the special values, against the unpacked chain:
        // descramble → deinterleave → `l >= 0.0` → bit-serial CRC.
        let specials = [
            2.0f32,
            -3.0,
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
        ];
        let mut rng = Xoshiro256::seed_from_u64(0x7A11);
        let mut turbo = TurboScratch::new();
        for n in [25usize, 31, 33, 95, 100, 257, 1000, 4097] {
            let llrs: Vec<f32> = (0..n)
                .map(|_| specials[(rng.next_u64() % specials.len() as u64) as usize])
                .collect();
            let c_init = rng.next_u32();
            let got = passthrough_tail(
                &llrs,
                c_init,
                n - 24,
                &mut turbo,
                Vec::new(),
                &StageTimer::disabled(),
            );
            let mut descrambled = llrs.clone();
            let mut gold = lte_dsp::scrambling::GoldSequence::new(c_init);
            for l in descrambled.iter_mut() {
                if gold.next_bit() == 1 {
                    *l = -*l;
                }
            }
            let frame: Vec<u8> = Interleaver::subblock(n)
                .invert(&descrambled)
                .iter()
                .map(|&l| if l >= 0.0 { 0 } else { 1 })
                .collect();
            assert_eq!(got.payload, frame[..n - 24], "n={n}");
            assert_eq!(got.crc_ok, CRC24A.check_bits(&frame), "n={n}");
        }
    }
}

/// Processes one user end to end *without* genie knowledge of the noise
/// variance: the receiver estimates it blindly from the out-of-window
/// taps of the reference symbol's channel impulse response (see
/// [`crate::estimator::estimate_noise_var`]) and uses the estimate for
/// MMSE regularisation and LLR scaling.
pub fn process_user_blind(cell: &CellConfig, input: &UserInput, mode: TurboMode) -> UserResult {
    let planner = FftPlanner::new();
    input.validate();
    let user = &input.config;
    // Average the blind estimate over both slots and all antennas.
    let mut noise = 0.0f64;
    for slot in 0..SLOTS_PER_SUBFRAME {
        for rx in 0..cell.n_rx {
            noise += crate::estimator::estimate_noise_var(cell, input, slot, rx, &planner) as f64;
        }
    }
    let noise_var = (noise / (SLOTS_PER_SUBFRAME * cell.n_rx) as f64).max(1e-9) as f32;

    let weights: Vec<CombinerWeights> = (0..SLOTS_PER_SUBFRAME)
        .map(|slot| {
            let est = estimate_slot(cell, input, slot, &planner);
            CombinerWeights::mmse(&est, noise_var)
        })
        .collect();
    let mut llrs = Vec::with_capacity(user.bits_per_subframe());
    for (slot, w) in weights.iter().enumerate() {
        for sym in 0..DATA_SYMBOLS_PER_SLOT {
            for layer in 0..user.layers {
                let combined = combine_symbol(input, w, slot, sym, layer, &planner);
                llrs.extend(demap_block(user.modulation, &combined, noise_var));
            }
        }
    }
    finish_user(cell, input, mode, &llrs)
}

#[cfg(test)]
mod blind_tests {
    use super::*;
    use crate::params::UserConfig;
    use crate::tx::synthesize_user;
    use lte_dsp::{Modulation, Xoshiro256};

    #[test]
    fn blind_receiver_matches_genie_at_moderate_snr() {
        let cell = CellConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut genie_ok = 0;
        let mut blind_ok = 0;
        for _ in 0..6 {
            let user = UserConfig::new(12, 2, Modulation::Qam16);
            let input = synthesize_user(&cell, &user, 25.0, &mut rng);
            if process_user(&cell, &input, TurboMode::Passthrough).matches(&input.ground_truth) {
                genie_ok += 1;
            }
            if process_user_blind(&cell, &input, TurboMode::Passthrough)
                .matches(&input.ground_truth)
            {
                blind_ok += 1;
            }
        }
        assert!(
            genie_ok >= 5,
            "genie baseline should mostly pass: {genie_ok}/6"
        );
        assert!(
            blind_ok + 1 >= genie_ok,
            "blind ({blind_ok}) must be within one block of genie ({genie_ok})"
        );
    }

    #[test]
    fn blind_receiver_rejects_noise() {
        let cell = CellConfig::with_antennas(2);
        let user = UserConfig::new(4, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(10);
        let input = synthesize_user(&cell, &user, -25.0, &mut rng);
        let result = process_user_blind(&cell, &input, TurboMode::Passthrough);
        assert!(!result.crc_ok);
    }
}
