//! Single-threaded replays of a workload's own receiver inputs: the
//! reference results every run is checked against, the bare pooled
//! path (the serial baseline), the pooled path split into its front
//! and tail calls under spans, and the traced reference path whose
//! stage spans give the per-stage shares.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lte_dsp::fft::FftPlanner;
use lte_dsp::segmentation::Segmentation;
use lte_obs::{RingRecorder, Stage};
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, TurboMode, UserConfig};
use lte_phy::receiver::{
    demodulate_user_into, finish_user_with_arena, process_user_pooled, process_user_traced,
    process_user_with_planner, UserResult, UserScratch,
};
use lte_phy::tx::FramePlan;
use lte_phy::StageTimer;

use crate::stats::Metrics;
use crate::trace::{SpanLog, DRIVER, RX_POOLED, RX_TRACED};

/// One subframe of a replay: its cell and its users' inputs.
pub struct ReplaySubframe {
    pub cell: CellConfig,
    pub inputs: Vec<Arc<UserInput>>,
}

/// The ten receiver stages the traced path times, in pipeline order.
pub const STAGES: [Stage; 10] = [
    Stage::MatchedFilter,
    Stage::Ifft,
    Stage::Window,
    Stage::Fft,
    Stage::Weights,
    Stage::Combining,
    Stage::Demap,
    Stage::Deinterleave,
    Stage::Turbo,
    Stage::Crc,
];

/// Serial-reference results per distinct user configuration. A user's
/// result is a pure function of its synthesized input, and
/// `UplinkBenchmark` reuses one input per configuration, so this table
/// is the golden record of every subframe built from those inputs.
pub struct References {
    results: HashMap<UserConfig, UserResult>,
}

impl References {
    /// Runs the allocating serial reference path once per configuration.
    pub fn build(cell: &CellConfig, inputs: &[Arc<UserInput>], mode: TurboMode) -> Self {
        let planner = FftPlanner::new();
        let results = inputs
            .iter()
            .map(|i| (i.config, process_user_with_planner(cell, i, mode, &planner)))
            .collect();
        References { results }
    }

    /// The reference results of a subframe's users.
    pub fn row(&self, users: impl IntoIterator<Item = UserConfig>) -> Vec<UserResult> {
        users
            .into_iter()
            .map(|u| self.results[&u].clone())
            .collect()
    }

    /// Counts the users of `row` (configured as `users`) whose result is
    /// missing or differs from the reference.
    pub fn failures(&self, users: &[UserConfig], row: Option<&Vec<UserResult>>) -> u64 {
        users
            .iter()
            .enumerate()
            .filter(|&(j, u)| row.and_then(|r| r.get(j)) != self.results.get(u))
            .count() as u64
    }
}

/// Turbo bit-iterations and CRC-checked bits of one pass over `subframes`
/// — exact counts of kernel work, computed from the framing plans.
pub fn kernel_counts(subframes: &[ReplaySubframe], mode: TurboMode) -> (u64, u64) {
    let mut bit_iters = 0u64;
    let mut crc_bits = 0u64;
    for input in subframes.iter().flat_map(|s| &s.inputs) {
        match FramePlan::for_user(&input.config, mode) {
            FramePlan::Passthrough { payload_bits } => crc_bits += payload_bits as u64 + 24,
            FramePlan::Coded { transport_bits, .. } => {
                let shape = Segmentation::shape_for_len(transport_bits);
                let block_bits = (shape.n_blocks * shape.block_size) as u64;
                if let TurboMode::Decode { iterations } = mode {
                    bit_iters += block_bits * iterations as u64;
                }
                crc_bits += transport_bits as u64;
                if shape.n_blocks > 1 {
                    crc_bits += block_bits;
                }
            }
        }
    }
    (bit_iters, crc_bits)
}

/// Serial-reference results of every user of `subframes`.
pub fn golden(subframes: &[ReplaySubframe], mode: TurboMode) -> Vec<Vec<UserResult>> {
    let planner = FftPlanner::new();
    subframes
        .iter()
        .map(|sf| {
            sf.inputs
                .iter()
                .map(|i| process_user_with_planner(&sf.cell, i, mode, &planner))
                .collect()
        })
        .collect()
}

/// Receiver-layer figures of one replay set.
pub struct RxFigures {
    /// Bare pooled-path wall per subframe, µs.
    pub serial_us_per_sf: f64,
    /// Users whose bare-pass result differs from the reference.
    pub diverged: u64,
    /// Users replayed.
    pub users: u64,
}

/// Replays `subframes` through every receiver path, records spans into
/// `log` and pushes the receiver, kernel and tracing metrics. The bare
/// pass is checked against `expected`, one row per subframe.
pub fn receiver_layer(
    subframes: &[ReplaySubframe],
    mode: TurboMode,
    expected: &[Vec<UserResult>],
    log: &mut SpanLog,
    metrics: &mut Metrics,
) -> RxFigures {
    let planner = FftPlanner::new();
    let n = subframes.len() as f64;

    // Bare production path: a correctness pass that also warms this
    // thread's scratch and decoder caches, then the timed serial
    // baseline.
    let mut crc_fail = 0u64;
    let mut diverged = 0u64;
    let mut users = 0u64;
    for (sf, want) in subframes.iter().zip(expected) {
        let row: Vec<UserResult> = sf
            .inputs
            .iter()
            .map(|i| process_user_pooled(&sf.cell, i, mode, &planner))
            .collect();
        crc_fail += row.iter().filter(|r| !r.crc_ok).count() as u64;
        diverged += (0..row.len().max(want.len()))
            .filter(|&j| row.get(j) != want.get(j))
            .count() as u64;
        users += want.len() as u64;
    }
    let t = Instant::now();
    for sf in subframes {
        for input in &sf.inputs {
            std::hint::black_box(process_user_pooled(&sf.cell, input, mode, &planner));
        }
    }
    let bare_ns = t.elapsed().as_nanos() as f64;

    // The same path split into its two calls, one span each.
    let mut front_ns = 0u64;
    let mut tail_ns = 0u64;
    let mut llrs = Vec::new();
    let t = Instant::now();
    for (id, sf) in subframes.iter().enumerate() {
        let root = log.open("uplink.subframe", DRIVER, None, id as u32);
        for input in &sf.inputs {
            UserScratch::with(|scratch| {
                let front = log.open("phy.rx.front", RX_POOLED, Some(root), id as u32);
                demodulate_user_into(&sf.cell, input, &planner, scratch, &mut llrs);
                front_ns += log.close(front);
                let tail = log.open("phy.rx.tail", RX_POOLED, Some(root), id as u32);
                let result = finish_user_with_arena(
                    &sf.cell,
                    input,
                    mode,
                    &llrs,
                    &mut scratch.arena,
                    &mut scratch.turbo,
                );
                tail_ns += log.close(tail);
                std::hint::black_box(result);
            });
        }
        log.close(root);
    }
    let split_ns = t.elapsed().as_nanos() as f64;

    // The allocating reference path with a stage span around each kernel.
    let mut stage_ns = [0u64; STAGES.len()];
    let t = Instant::now();
    for (id, sf) in subframes.iter().enumerate() {
        let root = log.open("uplink.subframe", DRIVER, None, id as u32);
        for input in &sf.inputs {
            let user = log.open("phy.rx.traced", RX_TRACED, Some(root), id as u32);
            let recorder = RingRecorder::new(1 << 12);
            let epoch = log.now_ns();
            let timer = StageTimer::new(&recorder);
            std::hint::black_box(process_user_traced(&sf.cell, input, mode, &planner, &timer));
            log.close(user);
            log.adopt_stages(&recorder, epoch, user);
        }
        log.close(root);
    }
    let traced_ns = t.elapsed().as_nanos() as f64;
    for span in log.spans() {
        if let Some(k) = span.stage.and_then(|s| STAGES.iter().position(|&x| x == s)) {
            stage_ns[k] += span.end_ns - span.start_ns;
        }
    }

    let staged: u64 = stage_ns.iter().sum();
    for (stage, ns) in STAGES.iter().zip(stage_ns) {
        metrics.push(
            format!("phy.rx.stage.{}_share", stage.name()),
            ns as f64 / traced_ns,
            "ratio",
        );
    }
    // The remainder keeps the stage table summing to the replay's wall.
    metrics.push(
        "phy.rx.stage.other_share",
        (traced_ns - staged as f64) / traced_ns,
        "ratio",
    );
    metrics.push("phy.rx.traced_slowdown", traced_ns / bare_ns, "ratio");
    metrics.push("phy.rx.serial_us_per_sf", bare_ns / 1e3 / n, "us");
    metrics.push("phy.rx.front_us_per_sf", front_ns as f64 / 1e3 / n, "us");
    metrics.push("phy.rx.tail_us_per_sf", tail_ns as f64 / 1e3 / n, "us");
    metrics.push("phy.rx.crc_fail", crc_fail as f64, "count");
    let (bit_iters, crc_bits) = kernel_counts(subframes, mode);
    metrics.push("dsp.turbo.bit_iters", bit_iters as f64, "count");
    metrics.push("dsp.crc.bits", crc_bits as f64, "count");
    metrics.push("trace.overhead_ratio", split_ns / bare_ns, "ratio");
    RxFigures {
        serial_us_per_sf: bare_ns / 1e3 / n,
        diverged,
        users,
    }
}
