//! The executable benchmark (§IV of the paper).
//!
//! A maintenance loop creates input parameters and data for each
//! subframe and dispatches it to the worker pool every DELTA; each user
//! becomes a dependency-ordered task graph whose stages fan out into
//! work-stealing tasks (see [`crate::dispatch`]). The maintenance loop
//! bounds the pipelining of independent subframes with a configurable
//! in-flight window ([`BenchmarkConfig::max_in_flight`]) so latency
//! percentiles stay honest under backlog.
//!
//! Subframe input data are synthesised once per distinct user
//! configuration and reused (§IV-B1: data sets are "created for multiple
//! subframes and then reused across all dispatched subframes").

use std::sync::Arc;
use std::time::Duration;

use lte_dsp::Xoshiro256;
use lte_phy::grid::UserInput;
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::UserResult;
use lte_phy::verify::{GoldenRecord, VerifyError};
use lte_sched::{PoolConfig, PoolError, TaskPool};

use crate::dispatch::{Dispatcher, InputCache, Row, SYNTH_SNR_DB};

/// A power-governance hook invoked at every subframe dispatch boundary,
/// before the subframe's jobs are submitted (see
/// [`UplinkBenchmark::try_run_governed`]).
pub type GovernHook<'a> = &'a mut dyn FnMut(&TaskPool, usize, &SubframeConfig);

/// Benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchmarkConfig {
    /// Worker threads (the paper maps one per core).
    pub workers: usize,
    /// Dispatch interval (the paper's DELTA; configurable so the
    /// benchmark "can run on hardware that cannot sustain a rate of one
    /// subframe per millisecond").
    pub delta: Duration,
    /// SNR for the synthesised channels, in dB.
    pub snr_db: f64,
    /// Turbo stage mode.
    pub turbo: TurboMode,
    /// RNG seed for data synthesis.
    pub seed: u64,
    /// Upper bound on subframes simultaneously in flight. The task-graph
    /// dispatch never blocks a thread, so without a bound a slow host
    /// accumulates an unbounded backlog and the tail latencies lie about
    /// it; with a window of `w`, subframe *n* is held at the door until
    /// fewer than `w` earlier subframes remain open — the wait shows up
    /// as a later dispatch stamp, not as hidden queueing. `None` keeps
    /// the paper's blind dispatch.
    pub max_in_flight: Option<usize>,
    /// Pin worker `i` to CPU `i % host_cpus` (Linux only), removing OS
    /// migration noise from scaling measurements.
    pub pin_workers: bool,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            // Same helper (and same fallback) as PoolConfig::default, so
            // the benchmark and the pool can never disagree on workers.
            workers: lte_sched::host_parallelism(),
            delta: Duration::from_millis(5),
            snr_db: SYNTH_SNR_DB,
            turbo: TurboMode::Passthrough,
            seed: 42,
            max_in_flight: None,
            pin_workers: false,
        }
    }
}

/// Scheduler activity totals for one run, snapshotted from the pool the
/// run executed on — the observable face of the low-overhead stealing
/// machinery (LIFO slot, batched steals, parking).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolActivity {
    /// Tasks executed across all workers.
    pub executed_tasks: u64,
    /// Successful steals from other workers' deques.
    pub steals: u64,
    /// Steals that moved more than one task (steal-half batches).
    pub steal_batches: u64,
    /// Extra tasks moved by batched steals (beyond the popped one).
    pub batch_stolen_tasks: u64,
    /// Tasks executed straight from a worker's bounded LIFO slot.
    pub lifo_slot_hits: u64,
    /// Times any worker parked on the idle condvar.
    pub parks: u64,
    /// Workers successfully pinned to a CPU at startup.
    pub pinned_workers: u64,
}

impl PoolActivity {
    fn snapshot(pool: &TaskPool) -> Self {
        PoolActivity {
            executed_tasks: pool.executed_tasks(),
            steals: pool.steal_count(),
            steal_batches: pool.steal_batches(),
            batch_stolen_tasks: pool.batch_stolen_tasks(),
            lifo_slot_hits: pool.lifo_slot_hits(),
            parks: pool.parks(),
            pinned_workers: pool.pinned_workers(),
        }
    }
}

/// The outcome of a benchmark run.
#[derive(Debug)]
pub struct BenchmarkRun {
    /// Decoded results, `results[subframe][user]`.
    pub results: Vec<Vec<UserResult>>,
    /// Wall-clock duration of the parallel run.
    pub elapsed: Duration,
    /// Total useful processing time across workers (Eq. 1 sums).
    pub busy: Duration,
    /// Mean activity per Eq. 2 over the run.
    pub activity: f64,
    /// Fraction of delivered users whose CRC passed.
    pub crc_pass_rate: f64,
    /// Dispatch-to-completion latency per completed subframe, in
    /// nanoseconds (subframes with no users are absent).
    pub latencies_ns: Vec<u64>,
    /// Completion stamp per completed subframe, nanoseconds from run
    /// start, in dispatch order (same filtering as `latencies_ns`).
    pub completions_ns: Vec<u64>,
    /// Scheduler counters for the run's pool.
    pub pool: PoolActivity,
}

/// The benchmark: input synthesis, dispatch, parallel processing and
/// golden-reference verification.
///
/// # Example
///
/// ```
/// use lte_uplink::{BenchmarkConfig, UplinkBenchmark};
/// use lte_model::{ParameterModel, RampModel};
/// use lte_phy::CellConfig;
///
/// let mut bench = UplinkBenchmark::new(CellConfig::default(), BenchmarkConfig {
///     workers: 2,
///     ..BenchmarkConfig::default()
/// });
/// let subframes = RampModel::new(1).subframes(3);
/// let run = bench.run(&subframes);
/// assert_eq!(run.results.len(), 3);
/// bench.verify(&subframes, &run).expect("parallel must match serial");
/// ```
pub struct UplinkBenchmark {
    cell: CellConfig,
    cfg: BenchmarkConfig,
    /// Synthesised inputs, reused across subframes with identical user
    /// configurations, and the FFT planner they prewarm.
    inputs: InputCache,
    rng: Xoshiro256,
}

impl UplinkBenchmark {
    /// Creates a benchmark instance.
    pub fn new(cell: CellConfig, cfg: BenchmarkConfig) -> Self {
        UplinkBenchmark {
            cell,
            cfg,
            inputs: InputCache::new(cell, cfg.turbo, cfg.snr_db),
            rng: Xoshiro256::seed_from_u64(cfg.seed),
        }
    }

    /// The input data used for a user configuration (synthesised once,
    /// then reused — the paper's unique-input-data pool).
    pub fn input_for(&mut self, user: &UserConfig) -> Arc<UserInput> {
        self.inputs.get(user, &mut self.rng)
    }

    /// Runs the parallel benchmark over a subframe sequence.
    ///
    /// # Panics
    ///
    /// Panics when the worker pool cannot be constructed; use
    /// [`try_run`](UplinkBenchmark::try_run) to handle that gracefully.
    pub fn run(&mut self, subframes: &[SubframeConfig]) -> BenchmarkRun {
        self.try_run(subframes)
            .expect("failed to start the worker pool")
    }

    /// Runs the parallel benchmark over a subframe sequence.
    ///
    /// # Errors
    ///
    /// Returns the [`PoolError`] when the worker pool cannot be spawned.
    pub fn try_run(&mut self, subframes: &[SubframeConfig]) -> Result<BenchmarkRun, PoolError> {
        self.try_run_governed(subframes, None)
    }

    /// Runs the parallel benchmark with an optional power-governance
    /// hook called at every subframe dispatch boundary, *before* the
    /// subframe's jobs are submitted.
    ///
    /// The hook receives the pool, the subframe index and the subframe's
    /// configuration; a governor uses it to measure the closing window's
    /// activity and apply a new active-worker target
    /// (`lte_power::governed_boundary`). Capping workers changes only
    /// *where and when* work runs — never what is computed — so governed
    /// decoded output is byte-identical to an ungoverned run. After the
    /// dispatch loop drains, the pool is restored to full width so the
    /// final snapshot and any reuse see an ungoverned pool.
    ///
    /// # Errors
    ///
    /// Returns the [`PoolError`] when the worker pool cannot be spawned.
    pub fn try_run_governed(
        &mut self,
        subframes: &[SubframeConfig],
        mut governed: Option<GovernHook<'_>>,
    ) -> Result<BenchmarkRun, PoolError> {
        // Pre-synthesise inputs on the maintenance thread (the paper does
        // this at initialisation).
        let inputs: Vec<Vec<Arc<UserInput>>> = subframes
            .iter()
            .map(|sf| sf.users.iter().map(|u| self.input_for(u)).collect())
            .collect();
        let dispatcher = Dispatcher::new(
            PoolConfig {
                n_workers: self.cfg.workers,
                pin_workers: self.cfg.pin_workers,
            },
            Arc::clone(self.inputs.planner()),
            self.cfg.turbo,
            self.cfg.max_in_flight,
            1,
        )?;
        let pool = dispatcher.pool();
        let busy_start = pool.busy_nanos();
        // Maintenance loop: dispatch each subframe at its deadline.
        let mut rows: Vec<Arc<Row>> = Vec::with_capacity(subframes.len());
        for (sf_idx, sf_inputs) in inputs.iter().enumerate() {
            dispatcher.pace(self.cfg.delta, sf_idx as u64);
            // In-flight window: hold this subframe at the door until
            // fewer than `window` earlier subframes remain open. The
            // wait lands in the dispatch stamp, so the latency
            // percentiles see the queueing delay instead of hiding it.
            dispatcher.wait_for_slot(Duration::MAX);
            if let Some(hook) = governed.as_deref_mut() {
                hook(pool, sf_idx, &subframes[sf_idx]);
            }
            rows.extend(dispatcher.dispatch(&[(&self.cell, sf_inputs)]));
        }
        dispatcher.wait_all();
        if governed.is_some() {
            pool.set_active_workers(self.cfg.workers);
        }
        let elapsed = dispatcher.elapsed();
        let busy = Duration::from_nanos(pool.busy_nanos() - busy_start);
        let activity = busy.as_secs_f64() / (self.cfg.workers as f64 * elapsed.as_secs_f64());

        let (latencies_ns, completions_ns): (Vec<u64>, Vec<u64>) = rows
            .iter()
            .filter_map(|row| row.stamps())
            .map(|(dispatched, done)| (done.saturating_sub(dispatched), done))
            .unzip();
        let pool = PoolActivity::snapshot(pool);
        let results: Vec<Vec<UserResult>> = rows.into_iter().map(Row::harvest).collect();
        let total_users: usize = results.iter().map(|r| r.len()).sum();
        let passed: usize = results
            .iter()
            .flat_map(|r| r.iter())
            .filter(|r| r.crc_ok)
            .count();
        Ok(BenchmarkRun {
            crc_pass_rate: if total_users == 0 {
                1.0
            } else {
                passed as f64 / total_users as f64
            },
            results,
            elapsed,
            busy,
            activity,
            latencies_ns,
            completions_ns,
            pool,
        })
    }

    /// Verifies a parallel run against the serial golden reference
    /// (§IV-D).
    ///
    /// # Errors
    ///
    /// Returns the first divergence found.
    pub fn verify(
        &mut self,
        subframes: &[SubframeConfig],
        run: &BenchmarkRun,
    ) -> Result<(), VerifyError> {
        let inputs: Vec<Vec<UserInput>> = subframes
            .iter()
            .map(|sf| {
                sf.users
                    .iter()
                    .map(|u| (*self.input_for(u)).clone())
                    .collect()
            })
            .collect();
        let golden = GoldenRecord::build(&self.cell, &inputs, self.cfg.turbo);
        golden.verify(&run.results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_model::{ParameterModel, RampModel};

    fn quick_cfg() -> BenchmarkConfig {
        BenchmarkConfig {
            workers: 4,
            delta: Duration::from_millis(1),
            snr_db: 30.0,
            turbo: TurboMode::Passthrough,
            seed: 7,
            ..BenchmarkConfig::default()
        }
    }

    #[test]
    fn parallel_matches_serial_golden_reference() {
        let mut bench = UplinkBenchmark::new(CellConfig::with_antennas(2), quick_cfg());
        let subframes = RampModel::new(3).subframes(5);
        let run = bench.run(&subframes);
        bench
            .verify(&subframes, &run)
            .expect("parallel and serial must agree bit-exactly");
    }

    #[test]
    fn high_snr_run_passes_crc() {
        let mut bench = UplinkBenchmark::new(CellConfig::with_antennas(2), quick_cfg());
        // Small fixed allocation, clean channel.
        let subframes = vec![SubframeConfig::new(vec![UserConfig::new(
            4,
            1,
            lte_dsp::Modulation::Qpsk,
        )])];
        let run = bench.run(&subframes);
        assert_eq!(run.crc_pass_rate, 1.0);
    }

    #[test]
    fn input_cache_reuses_data() {
        let mut bench = UplinkBenchmark::new(CellConfig::default(), quick_cfg());
        let u = UserConfig::new(6, 2, lte_dsp::Modulation::Qam16);
        let a = bench.input_for(&u);
        let b = bench.input_for(&u);
        assert!(Arc::ptr_eq(&a, &b), "same config must reuse input data");
    }

    #[test]
    fn activity_is_positive_and_bounded() {
        let mut bench = UplinkBenchmark::new(CellConfig::with_antennas(2), quick_cfg());
        let subframes = RampModel::new(4).subframes(3);
        let run = bench.run(&subframes);
        assert!(run.activity > 0.0, "some work must have happened");
        // Helping threads can make busy/elapsed slightly exceed worker
        // count × wall in theory; sanity-bound it.
        assert!(run.activity < 1.5, "activity {} absurd", run.activity);
    }

    #[test]
    fn empty_subframe_sequence() {
        let mut bench = UplinkBenchmark::new(CellConfig::default(), quick_cfg());
        let run = bench.run(&[]);
        assert!(run.results.is_empty());
        assert_eq!(run.crc_pass_rate, 1.0);
    }

    #[test]
    fn zero_workers_is_a_clean_error() {
        let mut bench = UplinkBenchmark::new(
            CellConfig::default(),
            BenchmarkConfig {
                workers: 0,
                ..quick_cfg()
            },
        );
        assert!(matches!(
            bench.try_run(&RampModel::new(1).subframes(1)),
            Err(lte_sched::PoolError::ZeroWorkers)
        ));
    }

    #[test]
    fn windowed_pipeline_matches_golden_reference() {
        // A tight in-flight window with a zero dispatch interval keeps
        // several subframes in the pipeline at once; results must still
        // be byte-identical to the serial reference.
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                delta: Duration::ZERO,
                max_in_flight: Some(2),
                ..quick_cfg()
            },
        );
        let subframes = RampModel::new(3).subframes(6);
        let run = bench.run(&subframes);
        bench
            .verify(&subframes, &run)
            .expect("pipelined subframes must stay bit-exact");
        // Every subframe completed and carries a latency stamp.
        assert_eq!(run.latencies_ns.len(), 6);
    }

    #[test]
    fn window_of_one_serialises_subframes() {
        // With a window of 1 a subframe is only admitted after its
        // predecessor fully completed: completions are monotone in
        // dispatch order and nothing overlaps.
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                delta: Duration::ZERO,
                max_in_flight: Some(1),
                ..quick_cfg()
            },
        );
        let subframes = RampModel::new(2).subframes(4);
        let run = bench.run(&subframes);
        bench.verify(&subframes, &run).expect("bit-exact");
        for pair in run.completions_ns.windows(2) {
            assert!(pair[0] <= pair[1], "window=1 must serialise completions");
        }
    }
}
