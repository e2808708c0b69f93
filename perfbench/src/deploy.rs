//! `deploy-coupled`: `run_deploy` with [`CELLS`] macro cells,
//! [`UES`] UEs under full-buffer traffic and a small nonzero inter-cell
//! coupling, so the interference-injection stage runs. The only
//! workload where synthesis and injection sit inside the timed loop, on
//! the coordinator thread, while the pool's workers are mostly idle.
//!
//! The load is a closed loop with one client: campaigns of one tick,
//! each on one of [`CAMPAIGNS`] seeds derived from the workload seed,
//! called back to back. A campaign's latency is its call's wall time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lte_phy::params::{CellConfig, TurboMode};
use lte_phy::tx::synthesize_user_with_mode;
use lte_uplink::serve::TrafficModel;
use lte_uplink::{run_deploy, DeployConfig, DeployReport};

use crate::cpu::{self, WorkerSampler};
use crate::replay::{self, ReplaySubframe};
use crate::stats::{self, Metrics};
use crate::trace::{SpanLog, DEPLOY, TX};
use crate::uplink::{
    push_arena, push_driver_cpu, push_percentiles, push_synthesis, LATENCY, SERIAL_PASSES,
    SERIAL_TIME, SETUPS,
};
use crate::Outcome;

/// Cells of the deployment.
pub const CELLS: usize = 4;
/// UE population across the cells.
pub const UES: usize = 20_000;
/// Inter-cell coupling amplitude, thousandths.
pub const COUPLING_MILLI: u32 = 10;
/// Distinct campaign seeds cycled through the timed loop.
const CAMPAIGNS: u64 = 8;
/// Ticks per campaign: one, so a call's wall time is one tick's latency.
const TICKS: u64 = 1;
/// Synthesis SNR of deploy traffic (the deploy driver's own).
const SNR_DB: f64 = 30.0;

/// The deploy workload's generated campaigns.
pub struct DeployWorkload {
    configs: Vec<DeployConfig>,
}

fn campaign_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn scheduled(report: &DeployReport) -> u64 {
    report.per_cell.iter().map(|c| c.scheduled).sum()
}

fn single_worker(cfg: &DeployConfig) -> DeployConfig {
    DeployConfig {
        workers: 1,
        ..cfg.clone()
    }
}

/// Counts one campaign's grants as attempted, and as failed when the
/// call errored or its report differs from `reference`; returns the
/// grants scheduled.
fn tally(
    cfg: &DeployConfig,
    report: &Result<DeployReport, String>,
    reference: &str,
    attempted: &mut u64,
    failed: &mut u64,
) -> u64 {
    match report {
        Ok(report) => {
            let n = scheduled(report);
            *attempted += n;
            if report.to_json() != reference {
                eprintln!(
                    "campaign seed {} diverges from its 1-worker report",
                    cfg.seed
                );
                *failed += n;
            }
            n
        }
        Err(e) => {
            eprintln!("campaign seed {} failed: {e}", cfg.seed);
            *attempted += 1;
            *failed += 1;
            0
        }
    }
}

impl DeployWorkload {
    /// Campaign configurations for `seed`.
    pub fn new(seed: u64) -> Self {
        let configs = (0..CAMPAIGNS)
            .map(|k| DeployConfig {
                workers: lte_sched::host_parallelism(),
                coupling_milli: COUPLING_MILLI,
                ..DeployConfig::new(CELLS, UES, TICKS, campaign_seed(seed, k))
            })
            .collect();
        DeployWorkload { configs }
    }

    /// Each campaign's report at one worker: the reference every run
    /// must reproduce byte for byte.
    fn references(&self) -> Result<Vec<String>, String> {
        self.configs
            .iter()
            .map(|c| run_deploy(&single_worker(c)).map(|r| r.to_json()))
            .collect()
    }

    /// The untraced run: end-to-end metrics.
    pub fn end_to_end(&self, seconds: u64) -> Result<Outcome, String> {
        let mut setups = Vec::with_capacity(SETUPS);
        for _ in 0..SETUPS {
            let t = Instant::now();
            run_deploy(&self.configs[0])?;
            setups.push(t.elapsed().as_secs_f64());
        }
        let refs = self.references()?;
        let cell_sfs = (CELLS as u64 * TICKS) as f64;
        let mut attempted = 0u64;
        let mut failed = 0u64;

        // Serial baseline: the same campaigns on one worker, whole passes
        // (at least SERIAL_PASSES, until SERIAL_TIME), each campaign at
        // its fastest pass and each report checked too.
        let mut fastest = vec![Duration::MAX; self.configs.len()];
        let (mut passes, mut spent) = (0, Duration::ZERO);
        while passes < SERIAL_PASSES || spent < SERIAL_TIME {
            for ((cfg, reference), best) in self.configs.iter().zip(&refs).zip(&mut fastest) {
                let t = Instant::now();
                let report = run_deploy(&single_worker(cfg));
                let took = t.elapsed();
                spent += took;
                *best = (*best).min(took);
                tally(cfg, &report, reference, &mut attempted, &mut failed);
            }
            passes += 1;
        }
        let serial_wall: Duration = fastest.iter().sum();

        // Timed region: cycles over every campaign; rates and CPU are the
        // best cycle's (see the single-cell workloads).
        let mut latencies = Vec::new();
        let (mut rates, mut grant_rates, mut cpu_per_sf) = (Vec::new(), Vec::new(), Vec::new());
        let mut timed = Duration::ZERO;
        let cycle_sfs = cell_sfs * self.configs.len() as f64;
        while timed < Duration::from_secs(seconds) {
            let (mut wall, mut grants) = (Duration::ZERO, 0u64);
            let cpu0 = cpu::process_cpu_ns();
            for (cfg, reference) in self.configs.iter().zip(&refs) {
                let t = Instant::now();
                let report = run_deploy(cfg);
                let took = t.elapsed();
                wall += took;
                latencies.push(took.as_nanos() as u64);
                grants += tally(cfg, &report, reference, &mut attempted, &mut failed);
            }
            let cpu_ns = cpu::process_cpu_ns() - cpu0;
            timed += wall;
            rates.push(cycle_sfs / wall.as_secs_f64());
            grant_rates.push(grants as f64 / wall.as_secs_f64());
            cpu_per_sf.push(cpu_ns as f64 / 1e6 / cycle_sfs);
        }

        latencies.sort_unstable();
        let mut notes = vec![format!(
            "timed: {:.2} s over {} campaigns",
            timed.as_secs_f64(),
            latencies.len()
        )];
        let mut m = Metrics::default();
        m.push("throughput_sfps", stats::max(&rates), "1/s");
        m.push("grants_per_s", stats::max(&grant_rates), "1/s");
        push_percentiles(&mut m, LATENCY, &latencies, &mut notes);
        m.push("cpu_ms_per_sf", stats::min(&cpu_per_sf), "ms");
        m.push("serial_sfps", cycle_sfs / serial_wall.as_secs_f64(), "1/s");
        m.push("setup_s", stats::median(&setups), "s");
        m.push("peak_rss_mib", cpu::peak_rss_mib(), "MiB");
        Ok(Outcome {
            metrics: m,
            attempted,
            failed,
            notes,
        })
    }

    /// The traced run: one pass over the campaigns with the CPU split
    /// between coordinator and workers, then the campaigns' traffic
    /// palette synthesized per cell and replayed through the receiver.
    pub fn traced(&self, log: &mut SpanLog) -> Result<Outcome, String> {
        let mut m = Metrics::default();
        let mut notes = Vec::new();
        let refs = self.references()?;
        run_deploy(&self.configs[0])?;

        let mut attempted = 0u64;
        let mut failed = 0u64;
        let (mut offered, mut sched, mut deferred, mut nack) = (0u64, 0u64, 0u64, 0u64);
        let arena0 = lte_dsp::arena::stats();
        let sampler = WorkerSampler::start();
        let (proc0, coord0) = (cpu::process_cpu_ns(), cpu::thread_cpu_ns());
        let t = Instant::now();
        let mut reports = Vec::with_capacity(self.configs.len());
        for (k, (cfg, reference)) in self.configs.iter().zip(&refs).enumerate() {
            let report = log.span("deploy.campaign", DEPLOY, None, k as u32, || {
                run_deploy(cfg)
            });
            sched += tally(cfg, &report, reference, &mut attempted, &mut failed);
            let report = report?;
            offered += report.per_cell.iter().map(|c| c.offered).sum::<u64>();
            deferred += report.per_cell.iter().map(|c| c.deferred).sum::<u64>();
            nack += report.aggregate.total.nack;
            reports.push(report);
        }
        let wall = t.elapsed();
        let (coord, proc) = (cpu::thread_cpu_ns() - coord0, cpu::process_cpu_ns() - proc0);
        let (workers_ns, sampler_ns) = sampler.finish();
        let arena1 = lte_dsp::arena::stats();

        // Replay of the deploy traffic shape: per campaign and cell as
        // many grants as the report scheduled, cycling the full-buffer
        // palette, synthesized through the transmitter (without the
        // neighbours' interference) and decoded serially.
        let mut replay_sfs = Vec::new();
        for (k, (cfg, report)) in self.configs.iter().zip(&reports).enumerate() {
            let mut rng = lte_dsp::Xoshiro256::seed_from_u64(cfg.seed);
            for c in &report.per_cell {
                let cell = CellConfig::with_identity(2, c.cell_id);
                let palette: Vec<_> = TrafficModel::FullBuffer
                    .arrivals(cfg.seed ^ c.cell_id as u64, 0)
                    .into_iter()
                    .flat_map(|sf| sf.users)
                    .collect();
                let mut inputs = Vec::new();
                for u in palette.iter().cycle().take(c.scheduled as usize) {
                    let input = log.span("phy.tx.synthesize", TX, None, k as u32, || {
                        synthesize_user_with_mode(
                            &cell,
                            u,
                            TurboMode::Passthrough,
                            SNR_DB,
                            &mut rng,
                        )
                    });
                    inputs.push(Arc::new(input));
                }
                replay_sfs.push(ReplaySubframe { cell, inputs });
            }
        }
        let expected = replay::golden(&replay_sfs, TurboMode::Passthrough);
        let figures =
            replay::receiver_layer(&replay_sfs, TurboMode::Passthrough, &expected, log, &mut m);
        attempted += figures.users;
        failed += figures.diverged;

        push_synthesis(&mut m, &log.durations("phy.tx.synthesize"));
        push_driver_cpu(&mut m, wall, coord, workers_ns, sampler_ns, proc);
        let workers = self.configs[0].workers as f64;
        let wall_ms = wall.as_secs_f64() * 1e3;
        // `run_deploy` keeps its pool private: busy time is the workers'
        // sampled CPU, and the pool's own counters are not observable.
        let busy_ms = workers_ns as f64 / 1e6;
        m.push("sched.pool.parks", 0.0, "count");
        m.push("sched.pool.busy_ms", busy_ms, "ms");
        m.push("sched.pool.idle_ms", wall_ms * workers - busy_ms, "ms");
        m.push(
            "sched.pool.activity",
            busy_ms / (wall_ms * workers),
            "ratio",
        );
        for name in [
            "sched.pool.tasks_per_sf",
            "sched.pool.steals",
            "sched.pool.steal_batches",
            "sched.pool.lifo_hits",
        ] {
            m.push(name, 0.0, "count");
        }
        let cell_sfs = (CELLS as u64 * TICKS) as f64 * self.configs.len() as f64;
        let serial_ms = figures.serial_us_per_sf / 1e3;
        m.push(
            "sched.pool.overhead_ratio",
            busy_ms / cell_sfs / serial_ms - 1.0,
            "ratio",
        );
        m.push(
            "sched.pool.efficiency",
            cell_sfs / wall_ms / (workers / serial_ms),
            "ratio",
        );
        m.push("uplink.dispatch_lag_p50_us", 0.0, "us");
        m.push("uplink.dispatch_lag_p99_us", 0.0, "us");
        m.push("uplink.pre_dispatch_ms", 0.0, "ms");
        m.push("deploy.offered", offered as f64, "count");
        m.push("deploy.scheduled", sched as f64, "count");
        m.push("deploy.deferred", deferred as f64, "count");
        m.push("deploy.nack", nack as f64, "count");
        push_arena(&mut m, arena0, arena1);
        notes.push(format!(
            "campaigns: {} × {CELLS} cells in {wall_ms:.1} ms",
            self.configs.len()
        ));
        Ok(Outcome {
            metrics: m,
            attempted,
            failed,
            notes,
        })
    }
}
