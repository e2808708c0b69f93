//! Micro-benchmarks of the DSP kernels the receiver pipeline is built
//! from: FFTs across LTE sizes, the matched filter, soft demapping,
//! MMSE weights, turbo decoding, the bit-packed pass-through decode
//! tail, and the full serial per-user receive.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lte_dsp::arena::ScratchArena;
use lte_dsp::crc::CRC24A;
use lte_dsp::fft::{FftPlan, FftPlanner};
use lte_dsp::llr::demap_block;
use lte_dsp::matched_filter::matched_filter;
use lte_dsp::scrambling::GoldWords;
use lte_dsp::turbo::{TurboDecoder, TurboEncoder};
use lte_dsp::zadoff_chu::ReferenceSequence;
use lte_dsp::{Complex32, Modulation, Xoshiro256};
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::{demodulate_user, finish_user_with_arena, process_user, TurboScratch};
use lte_phy::tx::synthesize_user;
use lte_uplink::perf::steady_state_subframe;

fn random_block(n: usize, seed: u64) -> Vec<Complex32> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for prbs in [2usize, 10, 50, 100, 200] {
        let n = 12 * prbs;
        let plan = FftPlan::forward(n);
        let data = random_block(n, n as u64);
        let mut scratch = vec![Complex32::ZERO; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut work = data.clone();
                plan.process_with_scratch(&mut work, &mut scratch);
                black_box(work[0])
            })
        });
    }
    group.finish();
}

fn bench_matched_filter(c: &mut Criterion) {
    let n = 1200;
    let reference = ReferenceSequence::new(n, 7);
    let received = random_block(n, 3);
    let mut out = vec![Complex32::ZERO; n];
    c.bench_function("matched_filter_1200", |b| {
        b.iter(|| {
            matched_filter(&received, reference.samples(), &mut out);
            black_box(out[0])
        })
    });
}

fn bench_demap(c: &mut Criterion) {
    let symbols = random_block(1200, 9);
    let mut group = c.benchmark_group("soft_demap_1200");
    for m in Modulation::ALL {
        group.bench_function(m.to_string(), |b| {
            b.iter(|| black_box(demap_block(m, &symbols, 0.1)))
        });
    }
    group.finish();
}

fn bench_turbo(c: &mut Criterion) {
    let k = 1024;
    let mut rng = Xoshiro256::seed_from_u64(5);
    let bits: Vec<u8> = (0..k).map(|_| (rng.next_u64() & 1) as u8).collect();
    let encoder = TurboEncoder::new(k);
    let code = encoder.encode(&bits);
    let llrs = code.to_llrs(4.0);
    c.bench_function("turbo_encode_1024", |b| {
        b.iter(|| black_box(encoder.encode(&bits)))
    });
    let decoder = TurboDecoder::new(k, 5);
    c.bench_function("turbo_decode_1024_5it", |b| {
        b.iter(|| black_box(decoder.decode(&llrs)))
    });
}

/// The pass-through decode tail (Gold words, fused descramble +
/// decision, bit-transpose deinterleave, table CRC, payload unpack) on
/// each user of the steady-state subframe, plus its two bulk kernels
/// over one 86,400-bit allocation (50 PRBs × 2 layers × 64-QAM).
fn bench_decode_tail(c: &mut Criterion) {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    let mut group = c.benchmark_group("decode_tail");
    let mut rng = Xoshiro256::seed_from_u64(14);
    let mut arena = ScratchArena::new();
    let mut turbo = TurboScratch::new();
    for user in steady_state_subframe().users {
        let input = synthesize_user(&cell, &user, 30.0, &mut rng);
        let llrs = demodulate_user(&cell, &input, &planner);
        let name = format!(
            "passthrough_{}prb_{}layer_{}",
            user.prbs, user.layers, user.modulation
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let result = finish_user_with_arena(
                    &cell,
                    &input,
                    TurboMode::Passthrough,
                    &llrs,
                    &mut arena,
                    &mut turbo,
                );
                let ok = result.crc_ok;
                arena.recycle_u8(result.payload);
                black_box(ok)
            })
        });
    }
    const BITS: usize = 86_400;
    let mut words = vec![0u64; BITS.div_ceil(64)];
    group.bench_function("gold_words_86400", |b| {
        b.iter(|| {
            let mut gold = GoldWords::new(black_box(0x1234));
            for w in words.iter_mut() {
                *w = gold.next_word();
            }
            black_box(words[0])
        })
    });
    let frame: Vec<u8> = (0..BITS / 8).map(|_| rng.next_u32() as u8).collect();
    group.bench_function("crc24a_86400", |b| {
        b.iter(|| black_box(CRC24A.compute_packed(&frame, BITS)))
    });
    group.finish();
}

fn bench_full_user(c: &mut Criterion) {
    let cell = CellConfig::default();
    let planner = FftPlanner::new();
    let mut group = c.benchmark_group("serial_user_receive");
    group.sample_size(20);
    for (prbs, layers) in [(10usize, 1usize), (50, 2), (100, 4)] {
        let user = UserConfig::new(prbs, layers, Modulation::Qam16);
        let mut rng = Xoshiro256::seed_from_u64(11);
        let input = synthesize_user(&cell, &user, 30.0, &mut rng);
        let _ = &planner;
        group.bench_function(format!("{prbs}prb_{layers}layer"), |b| {
            b.iter(|| black_box(process_user(&cell, &input, TurboMode::Passthrough)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_matched_filter,
    bench_demap,
    bench_turbo,
    bench_decode_tail,
    bench_full_user
);
criterion_main!(benches);
