//! The two single-cell workloads, driven through `UplinkBenchmark`.
//!
//! * `steady-saturate` — the Fig. 8 steady-state subframe (4 users,
//!   100 PRBs, pass-through) dispatched closed-loop: Δ = 0 with an
//!   in-flight window of [`STEADY_WINDOW`] subframes, so the window is
//!   the client count. The throughput ceiling; bound by the receiver
//!   tail (deinterleave + CRC), with turbo idle and synthesis cached.
//! * `ramp-paced` — the paper's ramp model sampled in its light region
//!   (from subframe [`RAMP_AT`]) with a 4-iteration turbo decode,
//!   dispatched open-loop every [`RAMP_DELTA`], below this receiver's
//!   capacity on a 2-core host. Many small, varying users; turbo
//!   dominates, workers park between subframes, and synthesizing
//!   hundreds of distinct configurations dominates set-up.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use lte_model::{ParameterModel, RampModel};
use lte_phy::params::{CellConfig, SubframeConfig, TurboMode, UserConfig};
use lte_phy::receiver::process_user_pooled;
use lte_uplink::perf::steady_state_subframe;
use lte_uplink::{BenchmarkConfig, BenchmarkRun, UplinkBenchmark};

use crate::cpu::{self, WorkerSampler};
use crate::replay::{self, References, ReplaySubframe};
use crate::stats::{self, Metrics};
use crate::trace::{SpanLog, TX};
use crate::Outcome;

/// Closed-loop clients of `steady-saturate`.
pub const STEADY_WINDOW: usize = 4;
/// Subframes per timed `try_run` of `steady-saturate`.
const STEADY_BATCH: usize = 400;
/// Unmeasured subframes ahead of each `steady-saturate` batch: every
/// `try_run` spawns fresh pool threads whose scratch arenas fill on
/// their first subframes, and those must not set the latency tail.
const STEADY_PREFIX: usize = 40;
/// Ramp position of `ramp-paced`: the light region of Fig. 10.
pub const RAMP_AT: usize = 6000;
/// Dispatch interval of `ramp-paced`: 50 subframes/s, about half of
/// what two workers sustain on this workload (its serial rate is ~57
/// subframes/s per core on a 2-core x86-64 host), so a slower spell of
/// the host does not tip the open loop into a growing queue.
pub const RAMP_DELTA: Duration = Duration::from_millis(20);
/// Subframes of `ramp-paced` dispatched ahead of the timed ones in the
/// same run (one second's worth), so the run's fresh pool threads have
/// built their per-thread decoder caches before anything is measured.
const RAMP_PREFIX: usize = 50;
/// Ramp subframes drawn per timed subframe: the timed sequence takes the
/// middle one of each group of this many in order of work, so every
/// seed's sequence has nearly the same work distribution and the
/// latency tail measures the receiver rather than which heavy subframes
/// a seed drew.
const RAMP_STRATA: usize = 8;
/// Turbo iterations of `ramp-paced`.
const RAMP_ITERATIONS: usize = 4;
/// Independent set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Timed subframes of the traced run: its serial receiver replays, and
/// its `ramp-paced` pool run after the prefix.
const TRACE_SUBFRAMES: usize = 120;
/// Minimum time the serial baseline spends in timed calls.
pub const SERIAL_TIME: Duration = Duration::from_secs(3);
/// Minimum timed passes of the serial baseline over its inputs.
pub const SERIAL_PASSES: usize = 2;

/// Which single-cell workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Steady,
    Ramp,
}

/// A single-cell workload's generated inputs and driver settings.
pub struct UplinkWorkload {
    shape: Shape,
    cell: CellConfig,
    cfg: BenchmarkConfig,
    /// Dispatched ahead of `sequence` in the same run, not measured.
    prefix: Vec<SubframeConfig>,
    /// The timed subframes (one closed-loop batch, repeated; or the
    /// whole open-loop run).
    sequence: Vec<SubframeConfig>,
    /// Leading subframes run once as each set-up's warm-up.
    warmup: usize,
    /// Every distinct user configuration, in first-seen order.
    distinct: Vec<UserConfig>,
}

/// Synthesis seed derived from the workload seed, so input data and the
/// ramp's parameter stream are independent draws.
fn data_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
}

impl UplinkWorkload {
    /// Generates the workload's inputs from `seed`, sized so one run's
    /// timed region covers about `seconds` seconds.
    pub fn new(shape: Shape, seed: u64, seconds: u64) -> Self {
        let workers = lte_sched::host_parallelism();
        let (cfg, prefix, sequence, warmup) = match shape {
            Shape::Steady => (
                BenchmarkConfig {
                    workers,
                    delta: Duration::ZERO,
                    turbo: TurboMode::Passthrough,
                    seed: data_seed(seed),
                    max_in_flight: Some(STEADY_WINDOW),
                    ..BenchmarkConfig::default()
                },
                vec![steady_state_subframe(); STEADY_PREFIX],
                vec![steady_state_subframe(); STEADY_BATCH],
                STEADY_PREFIX,
            ),
            Shape::Ramp => {
                let n = (seconds as u128 * 1000).div_ceil(RAMP_DELTA.as_millis()) as usize;
                let (prefix, sequence) = ramp_sequence(seed, n);
                (
                    BenchmarkConfig {
                        workers,
                        delta: RAMP_DELTA,
                        turbo: TurboMode::Decode {
                            iterations: RAMP_ITERATIONS,
                        },
                        seed: data_seed(seed),
                        max_in_flight: None,
                        ..BenchmarkConfig::default()
                    },
                    prefix,
                    sequence,
                    24,
                )
            }
        };
        let mut seen = HashSet::new();
        let distinct = prefix
            .iter()
            .chain(&sequence)
            .flat_map(|sf| sf.users.iter().copied())
            .filter(|u| seen.insert(*u))
            .collect();
        UplinkWorkload {
            shape,
            cell: CellConfig::default(),
            cfg,
            prefix,
            sequence,
            warmup,
            distinct,
        }
    }

    fn grants(subframes: &[SubframeConfig]) -> u64 {
        subframes.iter().map(|sf| sf.users.len() as u64).sum()
    }

    /// One set-up: a fresh driver, synthesis of every distinct input, and
    /// a warm-up run (pool spawn, cache prewarm, arena fill). Synthesis
    /// calls are timed into `log` when one is given.
    fn setup(
        &self,
        mut log: Option<&mut SpanLog>,
    ) -> Result<(UplinkBenchmark, BenchmarkRun), String> {
        let mut bench = UplinkBenchmark::new(self.cell, self.cfg);
        for (i, u) in self.distinct.iter().enumerate() {
            match log.as_deref_mut() {
                Some(log) => log.span("phy.tx.synthesize", TX, None, i as u32, || {
                    bench.input_for(u)
                }),
                None => bench.input_for(u),
            };
        }
        let warm = bench
            .try_run(self.warmup_subframes())
            .map_err(|e| format!("worker pool failed to start: {e}"))?;
        Ok((bench, warm))
    }

    fn warmup_subframes(&self) -> &[SubframeConfig] {
        &self.prefix[..self.warmup]
    }

    /// What one pool run dispatches: the prefix, then the timed part.
    fn dispatched(&self, timed: usize) -> Vec<SubframeConfig> {
        self.prefix
            .iter()
            .chain(&self.sequence[..timed])
            .cloned()
            .collect()
    }

    fn references(&self, bench: &mut UplinkBenchmark) -> References {
        let inputs: Vec<_> = self.distinct.iter().map(|u| bench.input_for(u)).collect();
        References::build(&self.cell, &inputs, self.cfg.turbo)
    }

    /// Checks one timed batch against the references: every grant of
    /// every subframe must be present and equal. A run whose completion
    /// stamps do not cover every subframe cannot be mapped onto due
    /// times, so all its grants count as failed.
    fn check(&self, batch: &[SubframeConfig], run: &BenchmarkRun, refs: &References) -> u64 {
        if run.completions_ns.len() != batch.len() || run.latencies_ns.len() != batch.len() {
            return Self::grants(batch);
        }
        batch
            .iter()
            .enumerate()
            .map(|(i, sf)| refs.failures(&sf.users, run.results.get(i)))
            .sum()
    }

    /// Per-subframe latencies of one batch: from dispatch on the closed
    /// loop, from the due time on the open loop.
    fn latencies(&self, run: &BenchmarkRun, n: usize) -> Vec<u64> {
        match self.shape {
            Shape::Steady => run.latencies_ns.clone(),
            Shape::Ramp => {
                stats::due_time(&run.completions_ns, self.cfg.delta.as_nanos() as u64, n)
                    .unwrap_or_default()
            }
        }
    }

    /// The untraced run: end-to-end metrics.
    pub fn end_to_end(&self, seconds: u64) -> Result<Outcome, String> {
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut setups = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            // Drop the previous set-up first so two never coexist.
            drop(last.take());
            let t = Instant::now();
            let built = self.setup(None)?;
            setups.push(t.elapsed().as_secs_f64());
            last = Some(built);
        }
        let (mut bench, warm) = last.expect("at least one set-up");
        let warm_sfs = self.warmup_subframes();
        attempted += Self::grants(warm_sfs);
        if let Err(e) = bench.verify(warm_sfs, &warm) {
            eprintln!("warm-up run diverges from the serial golden record: {e}");
            failed += Self::grants(warm_sfs);
        }
        let refs = self.references(&mut bench);

        // Timed region. The closed loop repeats prefix + batch until
        // `seconds` of run time; the open loop is one run of prefix +
        // sequence (sized to `seconds`). Each run is timed from the
        // dispatch of its first non-prefix subframe.
        let (mut rates, mut cpu_per_sf) = (Vec::new(), Vec::new());
        let mut latencies = Vec::new();
        let mut timed = Duration::ZERO;
        let dispatched = self.dispatched(self.sequence.len());
        while timed < Duration::from_secs(seconds) {
            let cpu0 = cpu::process_cpu_ns();
            let run = bench
                .try_run(&dispatched)
                .map_err(|e| format!("worker pool failed to start: {e}"))?;
            let cpu_ns = cpu::process_cpu_ns() - cpu0;
            attempted += Self::grants(&dispatched);
            failed += self.check(&dispatched, &run, &refs);
            let skip = self.prefix.len();
            let first = run.completions_ns.get(skip).zip(run.latencies_ns.get(skip));
            let measured_from = first.map_or(0, |(done, lat)| done.saturating_sub(*lat));
            let span = run
                .elapsed
                .saturating_sub(Duration::from_nanos(measured_from));
            timed += span;
            let done = run.completions_ns.len().saturating_sub(skip);
            rates.push(done as f64 / span.as_secs_f64());
            // Prefix subframes cost CPU too: CPU is per dispatched one.
            cpu_per_sf.push(cpu_ns as f64 / 1e6 / dispatched.len() as f64);
            let all = self.latencies(&run, dispatched.len());
            latencies.extend(all.iter().skip(skip));
            if self.shape == Shape::Ramp {
                break;
            }
        }
        // Rates and CPU are the best run's, as the repository's perf
        // harness takes the best of its passes: a shared host's speed
        // swings with its neighbours' load, and the fast end of several
        // runs tracks the program more steadily than a mean or median.
        // Latency percentiles pool every timed subframe, so a stall in
        // any run still reaches the tail.
        let rate = stats::max(&rates);

        latencies.sort_unstable();
        let mut notes = vec![format!(
            "timed: {:.2} s over {} runs, {} latency samples; {} distinct user configurations",
            timed.as_secs_f64(),
            rates.len(),
            latencies.len(),
            self.distinct.len()
        )];
        let mut m = Metrics::default();
        m.push("throughput_sfps", rate, "1/s");
        m.push(
            "grants_per_s",
            rate * Self::grants(&self.sequence) as f64 / self.sequence.len() as f64,
            "1/s",
        );
        push_percentiles(&mut m, LATENCY, &latencies, &mut notes);
        m.push("cpu_ms_per_sf", stats::min(&cpu_per_sf), "ms");
        m.push("serial_sfps", self.serial_sfps(&mut bench), "1/s");
        m.push("setup_s", stats::median(&setups), "s");
        m.push("peak_rss_mib", cpu::peak_rss_mib(), "MiB");
        Ok(Outcome {
            metrics: m,
            attempted,
            failed,
            notes,
        })
    }

    /// The serial baseline: subframes per second of the pooled path on
    /// this thread over the timed sequence. Each distinct input is timed
    /// over whole passes (see [`SERIAL_PASSES`], [`SERIAL_TIME`]); the
    /// sequence's serial time is the sum of its users' fastest calls.
    fn serial_sfps(&self, bench: &mut UplinkBenchmark) -> f64 {
        let planner = lte_dsp::fft::FftPlanner::new();
        let inputs: Vec<_> = self.distinct.iter().map(|u| bench.input_for(u)).collect();
        let decode = |input: &lte_phy::grid::UserInput| {
            std::hint::black_box(process_user_pooled(
                &self.cell,
                input,
                self.cfg.turbo,
                &planner,
            ));
        };
        // Whole passes over the configurations, at least SERIAL_PASSES
        // and until SERIAL_TIME; each call time is its fastest pass, as
        // for the parallel runs, which also drops the first pass's cold
        // decoder-cache builds.
        let mut call_ns: HashMap<UserConfig, f64> = HashMap::new();
        let (mut passes, mut spent) = (0, Duration::ZERO);
        while passes < SERIAL_PASSES || spent < SERIAL_TIME {
            for input in &inputs {
                let t = Instant::now();
                decode(input);
                let took = t.elapsed();
                spent += took;
                let ns = call_ns.entry(input.config).or_insert(f64::INFINITY);
                *ns = ns.min(took.as_nanos() as f64);
            }
            passes += 1;
        }
        let total_ns: f64 = self
            .sequence
            .iter()
            .flat_map(|sf| &sf.users)
            .map(|u| call_ns[u])
            .sum();
        self.sequence.len() as f64 / (total_ns / 1e9)
    }

    /// The traced run: per-layer metrics from one set-up with timed
    /// synthesis, one pool run with CPU attribution, and the receiver
    /// replays with spans.
    pub fn traced(&self, log: &mut SpanLog) -> Result<Outcome, String> {
        let mut notes = Vec::new();
        let mut m = Metrics::default();
        let (mut bench, _) = self.setup(Some(log))?;
        let refs = self.references(&mut bench);

        // One pool run, CPU attributed per thread.
        let batch = &self.dispatched(match self.shape {
            Shape::Steady => self.sequence.len(),
            Shape::Ramp => TRACE_SUBFRAMES.min(self.sequence.len()),
        })[..];
        let arena0 = lte_dsp::arena::stats();
        let sampler = WorkerSampler::start();
        let (proc0, coord0) = (cpu::process_cpu_ns(), cpu::thread_cpu_ns());
        let t = Instant::now();
        let run = bench
            .try_run(batch)
            .map_err(|e| format!("worker pool failed to start: {e}"))?;
        let wall = t.elapsed();
        let (coord, proc) = (cpu::thread_cpu_ns() - coord0, cpu::process_cpu_ns() - proc0);
        let (workers_ns, sampler_ns) = sampler.finish();
        let arena1 = lte_dsp::arena::stats();
        let mut attempted = Self::grants(batch);
        let mut failed = self.check(batch, &run, &refs);

        let replay: Vec<ReplaySubframe> = self.sequence[..TRACE_SUBFRAMES.min(self.sequence.len())]
            .iter()
            .map(|sf| ReplaySubframe {
                cell: self.cell,
                inputs: sf.users.iter().map(|u| bench.input_for(u)).collect(),
            })
            .collect();
        let expected: Vec<_> = replay
            .iter()
            .map(|sf| refs.row(sf.inputs.iter().map(|i| i.config)))
            .collect();
        let rx = replay::receiver_layer(&replay, self.cfg.turbo, &expected, log, &mut m);
        attempted += rx.users;
        failed += rx.diverged;

        push_synthesis(&mut m, &log.durations("phy.tx.synthesize"));
        push_driver_cpu(&mut m, wall, coord, workers_ns, sampler_ns, proc);

        let n = batch.len() as f64;
        let workers = self.cfg.workers as f64;
        let busy_ms = run.busy.as_secs_f64() * 1e3;
        let elapsed_ms = run.elapsed.as_secs_f64() * 1e3;
        let serial_ms_per_sf = rx.serial_us_per_sf / 1e3;
        m.push("sched.pool.parks", run.pool.parks as f64, "count");
        m.push("sched.pool.busy_ms", busy_ms, "ms");
        // Idle is the remainder, so busy + idle = wall × workers.
        m.push("sched.pool.idle_ms", elapsed_ms * workers - busy_ms, "ms");
        m.push("sched.pool.activity", run.activity, "ratio");
        m.push(
            "sched.pool.tasks_per_sf",
            run.pool.executed_tasks as f64 / n,
            "count",
        );
        m.push("sched.pool.steals", run.pool.steals as f64, "count");
        m.push(
            "sched.pool.steal_batches",
            run.pool.steal_batches as f64,
            "count",
        );
        m.push(
            "sched.pool.lifo_hits",
            run.pool.lifo_slot_hits as f64,
            "count",
        );
        m.push(
            "sched.pool.overhead_ratio",
            busy_ms / n / serial_ms_per_sf - 1.0,
            "ratio",
        );
        m.push(
            "sched.pool.efficiency",
            n / elapsed_ms / (workers / serial_ms_per_sf),
            "ratio",
        );

        let window = match self.shape {
            Shape::Steady => STEADY_WINDOW,
            Shape::Ramp => usize::MAX,
        };
        let mut lag = stats::dispatch_lag(
            &run.completions_ns,
            &run.latencies_ns,
            self.cfg.delta.as_nanos() as u64,
            window,
            batch.len(),
        )
        .unwrap_or_default();
        lag.sort_unstable();
        push_percentiles(
            &mut m,
            ["uplink.dispatch_lag_p50_us", "uplink.dispatch_lag_p99_us"],
            &lag,
            &mut notes,
        );
        // `try_run` outside its timed region: pool spawn, input lookup
        // and prewarm before the first dispatch, pool teardown after.
        m.push(
            "uplink.pre_dispatch_ms",
            (wall - run.elapsed).as_secs_f64() * 1e3,
            "ms",
        );
        for name in [
            "deploy.offered",
            "deploy.scheduled",
            "deploy.deferred",
            "deploy.nack",
        ] {
            m.push(name, 0.0, "count");
        }
        push_arena(&mut m, arena0, arena1);
        notes.push(format!(
            "pool run: {} subframes in {:.1} ms, {} workers",
            batch.len(),
            elapsed_ms,
            self.cfg.workers
        ));
        Ok(Outcome {
            metrics: m,
            attempted,
            failed,
            notes,
        })
    }
}

/// The `ramp-paced` subframes for `seed`: a one-second warm prefix
/// straight from the ramp model, and `n` timed subframes stratified by
/// work — drawn as [`RAMP_STRATA`]·`n`, the middle one taken from each
/// group of [`RAMP_STRATA`] in order of bits per subframe — and spread
/// evenly by work over the run.
fn ramp_sequence(seed: u64, n: usize) -> (Vec<SubframeConfig>, Vec<SubframeConfig>) {
    let mut model = RampModel::new(seed);
    model.seek(RAMP_AT);
    let prefix = model.subframes(RAMP_PREFIX);
    let pool = model.subframes(RAMP_STRATA * n);
    let work = |sf: &SubframeConfig| {
        sf.users
            .iter()
            .map(UserConfig::bits_per_subframe)
            .sum::<usize>()
    };
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by_key(|&i| (work(&pool[i]), i));
    let by_work: Vec<&SubframeConfig> = order
        .chunks(RAMP_STRATA)
        .map(|group| &pool[group[group.len() / 2]])
        .collect();
    // Spread the work ranks over the run with a golden-ratio stride, so
    // heavy subframes never arrive back to back by chance of the draw.
    let len = by_work.len();
    let stride = (len * 618 / 1000..)
        .find(|&s| gcd(s, len) == 1)
        .expect("some stride is coprime to the length");
    let mut sequence = vec![SubframeConfig::default(); len];
    for (rank, sf) in by_work.into_iter().enumerate() {
        sequence[rank * stride % len] = sf.clone();
    }
    (prefix, sequence)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The median and the ten-beyond tail of `sorted_ns` as the metrics
/// `names` (µs), with the tail's percentile and sample count noted.
pub fn push_percentiles(
    m: &mut Metrics,
    names: [&str; 2],
    sorted_ns: &[u64],
    notes: &mut Vec<String>,
) {
    let p50 = if sorted_ns.is_empty() {
        0
    } else {
        stats::percentile(sorted_ns, 500)
    };
    let tail = stats::tail(sorted_ns);
    m.push(names[0], p50 as f64 / 1e3, "us");
    m.push(names[1], tail.map_or(0, |t| t.value) as f64 / 1e3, "us");
    notes.push(match tail {
        Some(t) => format!("{}: p{} of {} samples", names[1], t.percentile, t.samples),
        None => format!("{}: too few samples ({})", names[1], sorted_ns.len()),
    });
}

/// The end-to-end latency pair.
pub const LATENCY: [&str; 2] = ["latency_p50_us", "latency_p99_us"];

/// Synthesis call count and mean cost.
pub fn push_synthesis(m: &mut Metrics, call_ns: &[u64]) {
    m.push("phy.tx.synth_calls", call_ns.len() as f64, "count");
    let mean = call_ns.iter().sum::<u64>() as f64 / call_ns.len().max(1) as f64;
    m.push("phy.tx.synth_us_per_call", mean / 1e3, "us");
}

/// CPU of one driver call split between the calling (coordinator)
/// thread and the pool workers; the remainder (sampler, other threads,
/// worker time after its last sample) is printed, not dropped.
pub fn push_driver_cpu(
    m: &mut Metrics,
    wall: Duration,
    coordinator_ns: u64,
    workers_ns: u64,
    sampler_ns: u64,
    process_ns: u64,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    m.push("driver.coordinator_cpu_ms", ms(coordinator_ns), "ms");
    m.push(
        "driver.coordinator_share",
        coordinator_ns as f64 / wall.as_nanos() as f64,
        "ratio",
    );
    m.push("driver.worker_cpu_ms", ms(workers_ns), "ms");
    m.push("driver.sampler_cpu_ms", ms(sampler_ns), "ms");
    m.push(
        "driver.cpu_other_ms",
        ms(process_ns) - ms(coordinator_ns) - ms(workers_ns) - ms(sampler_ns),
        "ms",
    );
}

/// Arena counters over the pool run.
pub fn push_arena(
    m: &mut Metrics,
    before: lte_dsp::arena::ArenaStats,
    after: lte_dsp::arena::ArenaStats,
) {
    let fresh = after.fresh - before.fresh;
    let reused = after.reused - before.reused;
    m.push("dsp.arena.fresh", fresh as f64, "count");
    m.push(
        "dsp.arena.reuse_ratio",
        reused as f64 / (fresh + reused).max(1) as f64,
        "ratio",
    );
}
