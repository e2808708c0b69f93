//! Regression guard for the zero-allocation hot path.
//!
//! Installs a counting [`GlobalAlloc`] wrapper and asserts the pooled
//! per-subframe receive performs **zero** heap allocations once every
//! cache the pipeline reads (FFT plans, sub-block interleavers, reference
//! sequences, thread-local scratch) is warm. Any new `Vec`/`Box` on the
//! steady-state path fails this test with the exact allocation count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lte_dsp::fft::FftPlanner;
use lte_dsp::interleave::prewarm_subblock;
use lte_dsp::{Modulation, Xoshiro256};
use lte_obs::{Counter, EblerAccumulator, Histogram, Stage};
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::{process_user_pooled, UserScratch};
use lte_phy::trace::StageHists;
use lte_phy::tx::{prewarm_references, synthesize_user, synthesize_user_with_mode};

/// Forwards to the system allocator, counting every allocation (fresh,
/// zeroed, and growing reallocations — the three ways the hot path could
/// touch the heap) per thread. The pooled path runs on the calling
/// thread, so each test reads only its own allocations, not those of
/// tests running beside it.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the current thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn run_once_with_mode(
    cell: &CellConfig,
    input: &lte_phy::grid::UserInput,
    mode: TurboMode,
    planner: &FftPlanner,
) {
    let result = process_user_pooled(cell, input, mode, planner);
    assert!(result.crc_ok, "steady-state subframe must pass CRC");
    // Return the payload buffer to the pool so the next subframe can
    // reuse it — exactly what the benchmark worker loop does.
    UserScratch::with(|s| s.arena.recycle_u8(result.payload));
}

fn run_once(cell: &CellConfig, input: &lte_phy::grid::UserInput, planner: &FftPlanner) {
    run_once_with_mode(cell, input, TurboMode::Passthrough, planner);
}

#[test]
fn steady_state_subframe_is_allocation_free() {
    let cell = CellConfig::default();
    let user = UserConfig::new(25, 2, Modulation::Qam16);
    let planner = FftPlanner::new();
    let mut rng = Xoshiro256::seed_from_u64(42);
    let input = synthesize_user(&cell, &user, 35.0, &mut rng);

    // Warm every cache the hot path reads, then let the scratch pools
    // grow to their steady-state sizes.
    planner.prewarm([user.prbs]);
    prewarm_subblock([user.bits_per_subframe()]);
    prewarm_references(&cell, &user);
    for _ in 0..3 {
        run_once(&cell, &input, &planner);
    }

    let before = allocations();
    for _ in 0..5 {
        run_once(&cell, &input, &planner);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state subframe processing hit the heap {delta} times"
    );
}

/// The same guarantee in turbo-decode mode: once the per-worker
/// [`lte_phy::receiver::TurboScratch`] codec cache and workspaces are
/// warm, the full decode tail — rate dematch, SISO iterations,
/// desegmentation, transport CRC — must not touch the heap. This is the
/// regression guard for the per-subframe `TurboDecoder::new` the decode
/// branch used to perform.
#[test]
fn steady_state_turbo_subframe_is_allocation_free() {
    let cell = CellConfig::default();
    let user = UserConfig::new(25, 2, Modulation::Qam16);
    let mode = TurboMode::Decode { iterations: 4 };
    let planner = FftPlanner::new();
    let mut rng = Xoshiro256::seed_from_u64(44);
    let input = synthesize_user_with_mode(&cell, &user, mode, 35.0, &mut rng);

    // Warm every cache the hot path reads — including the turbo codec
    // cache, whose QPP interleavers are built on the first decode.
    planner.prewarm([user.prbs]);
    prewarm_subblock([user.bits_per_subframe()]);
    prewarm_references(&cell, &user);
    for _ in 0..3 {
        run_once_with_mode(&cell, &input, mode, &planner);
    }

    let before = allocations();
    for _ in 0..5 {
        run_once_with_mode(&cell, &input, mode, &planner);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state turbo subframe processing hit the heap {delta} times"
    );
}

/// The soak path records continuous telemetry around every subframe:
/// a latency histogram sample, per-stage histogram samples, the EBLER
/// decode outcome, and window counters. All of that must stay off the
/// heap too, or long soaks would slowly churn the allocator.
#[test]
fn telemetry_recording_is_allocation_free() {
    let cell = CellConfig::default();
    let user = UserConfig::new(25, 2, Modulation::Qam16);
    let planner = FftPlanner::new();
    let mut rng = Xoshiro256::seed_from_u64(43);
    let input = synthesize_user(&cell, &user, 35.0, &mut rng);

    planner.prewarm([user.prbs]);
    prewarm_subblock([user.bits_per_subframe()]);
    prewarm_references(&cell, &user);

    // Construct every telemetry sink up front (construction allocates;
    // recording must not).
    let latency = Histogram::new();
    let stage_hists = StageHists::new();
    let ebler = EblerAccumulator::new(1);
    let subframes = Counter::new();

    for _ in 0..3 {
        run_once(&cell, &input, &planner);
    }

    let before = allocations();
    for round in 0..5u64 {
        let result = process_user_pooled(&cell, &input, TurboMode::Passthrough, &planner);
        latency.record(1_000 * (round + 1));
        stage_hists.record(Stage::Turbo, 500 + round);
        stage_hists.record(Stage::Crc, 50 + round);
        ebler.record_decode(0, result.crc_ok, (result.payload.len() * 8) as u64);
        subframes.add(1);
        UserScratch::with(|s| s.arena.recycle_u8(result.payload));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "telemetry-instrumented subframe processing hit the heap {delta} times"
    );
    assert_eq!(latency.snapshot().count, 5);
    assert_eq!(ebler.snapshot().total.ack, 5);
    assert_eq!(subframes.get(), 5);
}
