//! The dispatch core under every driver that decodes on the real pool
//! (`benchmark`, `serve`, `deploy`): the only code that moves users onto
//! the worker pool and collects their results.
//!
//! * `Dispatcher` owns the pool, the run clock, the in-flight window
//!   and the per-shard work counters.
//! * A `Row` is one dispatched subframe, or one cell's share of a
//!   deployment tick. Every user of every row completes through the same
//!   callback.
//! * `InputCache` is the paper's unique-input-data pool (§IV-B1: data
//!   sets are "created for multiple subframes and then reused across all
//!   dispatched subframes").
//! * [`spawn_user_graph`] runs one user as a dependency-ordered task
//!   graph: channel estimation per (slot, rx antenna, layer); combiner
//!   weights by each slot's last estimator; combining + IFFT + soft
//!   demap per (slot, symbol, layer); then the serial join
//!   (deinterleave, turbo, CRC). Each stage's completion *spawns* the
//!   next, so no thread blocks at a phase barrier and independent users
//!   — and rows — pipeline freely through the pool.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use lte_dsp::fft::FftPlanner;
use lte_dsp::llr::demap_block_into;
use lte_dsp::{Complex32, Xoshiro256};
use lte_obs::Histogram;
use lte_phy::combiner::{combine_symbol_into, CombinerWeights};
use lte_phy::estimator::estimate_path_into;
use lte_phy::grid::UserInput;
use lte_phy::params::{
    CellConfig, TurboMode, UserConfig, DATA_SYMBOLS_PER_SLOT, SLOTS_PER_SUBFRAME,
};
use lte_phy::receiver::{finish_user_with_arena, UserResult, UserScratch};
use lte_phy::tx::{prewarm_cell, synthesize_user_with_mode};
use lte_sched::{interleave_shards, PoolConfig, PoolError, PoolHandle, ShardCounters, TaskPool};

/// Synthesis SNR of every driver's generated traffic, in dB (clean
/// decodes).
pub(crate) const SYNTH_SNR_DB: f64 = 30.0;

/// One synthesized input per distinct user configuration, drawn from
/// the caller's RNG in the order configurations are first encountered —
/// so the encounter order fully determines every payload bit.
pub(crate) struct InputCache {
    cell: CellConfig,
    turbo: TurboMode,
    snr_db: f64,
    planner: Arc<FftPlanner>,
    inputs: HashMap<UserConfig, Arc<UserInput>>,
}

impl InputCache {
    /// An empty cache synthesizing for `cell` at `snr_db`.
    pub(crate) fn new(cell: CellConfig, turbo: TurboMode, snr_db: f64) -> Self {
        InputCache {
            cell,
            turbo,
            snr_db,
            planner: Arc::new(FftPlanner::new()),
            inputs: HashMap::new(),
        }
    }

    /// The FFT planner the cache prewarms, to hand to a [`Dispatcher`].
    pub(crate) fn planner(&self) -> &Arc<FftPlanner> {
        &self.planner
    }

    /// The input for `user`. A configuration seen for the first time is
    /// synthesized from `rng`, and every cache the steady-state path
    /// reads — FFT plans, sub-block interleaver, DM-RS references — is
    /// prewarmed so no worker ever takes a cache's write lock.
    pub(crate) fn get(&mut self, user: &UserConfig, rng: &mut Xoshiro256) -> Arc<UserInput> {
        if let Some(input) = self.inputs.get(user) {
            return Arc::clone(input);
        }
        prewarm_cell(&self.cell, std::slice::from_ref(user), &self.planner);
        let input = synthesize_user_with_mode(&self.cell, user, self.turbo, self.snr_db, rng);
        let input = Arc::new(input);
        self.inputs.insert(*user, Arc::clone(&input));
        input
    }
}

/// State shared between the dispatcher and every completion callback.
struct Shared {
    start: Instant,
    /// Upper bound on rows in flight (`None` = blind dispatch).
    window: Option<usize>,
    /// Dispatched-but-incomplete rows, with a condvar the completion
    /// callbacks signal. A condvar sleep (not a poll) keeps the
    /// dispatching thread off the CPU while it waits — on small hosts a
    /// polling dispatcher would steal cycles from the very workers it is
    /// waiting for.
    in_flight: Mutex<usize>,
    slot_freed: Condvar,
    /// Dispatch-to-completion latency of every completed row (ns).
    latency: Histogram,
    completed_rows: AtomicU64,
    shards: ShardCounters,
}

impl Shared {
    fn in_flight(&self) -> MutexGuard<'_, usize> {
        self.in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One dispatched row: a subframe, or one cell's share of a tick.
pub(crate) struct Row {
    shard: usize,
    slots: Vec<OnceLock<UserResult>>,
    open: AtomicUsize,
    dispatched_ns: u64,
    done_ns: OnceLock<u64>,
}

impl Row {
    /// `(dispatch, completion)` stamps in nanoseconds from the run
    /// start, once the row's last user is done (never for an empty row).
    pub(crate) fn stamps(&self) -> Option<(u64, u64)> {
        self.done_ns.get().map(|&done| (self.dispatched_ns, done))
    }

    /// The row's results in user order.
    ///
    /// # Panics
    ///
    /// Panics unless [`Dispatcher::wait_all`] has returned since the
    /// row's users were spawned.
    pub(crate) fn harvest(row: Arc<Row>) -> Vec<UserResult> {
        let row = Arc::into_inner(row).expect("pool drained, no outstanding references");
        row.slots
            .into_iter()
            .map(|s| s.into_inner().expect("every user completed"))
            .collect()
    }
}

/// The worker pool plus the bookkeeping every driver's dispatch loop
/// shares.
pub(crate) struct Dispatcher {
    pool: TaskPool,
    planner: Arc<FftPlanner>,
    turbo: TurboMode,
    shared: Arc<Shared>,
}

impl Dispatcher {
    /// Spawns the pool. `window` bounds rows in flight; `shards` is the
    /// number of shards rows are attributed to. The run clock starts
    /// once the pool is up.
    ///
    /// # Errors
    ///
    /// Returns the [`PoolError`] when the worker pool cannot be spawned.
    pub(crate) fn new(
        pool: PoolConfig,
        planner: Arc<FftPlanner>,
        turbo: TurboMode,
        window: Option<usize>,
        shards: usize,
    ) -> Result<Self, PoolError> {
        Ok(Dispatcher {
            pool: TaskPool::with_config(pool)?,
            planner,
            turbo,
            shared: Arc::new(Shared {
                start: Instant::now(),
                window: window.map(|w| w.max(1)),
                in_flight: Mutex::new(0),
                slot_freed: Condvar::new(),
                latency: Histogram::new(),
                completed_rows: AtomicU64::new(0),
                shards: ShardCounters::new(shards),
            }),
        })
    }

    /// The pool the rows run on.
    pub(crate) fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// Wall clock since the run started.
    pub(crate) fn elapsed(&self) -> Duration {
        self.shared.start.elapsed()
    }

    /// Dispatch-to-completion latency of every completed row.
    pub(crate) fn latency(&self) -> &Histogram {
        &self.shared.latency
    }

    /// Rows fully completed so far (an empty row completes on dispatch).
    pub(crate) fn completed_rows(&self) -> u64 {
        self.shared.completed_rows.load(Ordering::SeqCst)
    }

    /// Waits for `delta × tick` after the run start without pegging a
    /// host CPU: sleeps to within `SPIN_SLACK` of the deadline (OS timers
    /// overshoot by up to a timer tick), then spins the final stretch for
    /// precision.
    pub(crate) fn pace(&self, delta: Duration, tick: u64) {
        const SPIN_SLACK: Duration = Duration::from_micros(200);
        let deadline = self.shared.start + delta.saturating_mul(tick as u32);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let left = deadline - now;
            if left > SPIN_SLACK {
                std::thread::sleep(left - SPIN_SLACK);
            } else {
                break;
            }
        }
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    /// Holds the caller until fewer than `window` rows are in flight.
    /// Returns `false` when one wait exceeds `timeout` with the window
    /// still full (`Duration::MAX` waits indefinitely).
    pub(crate) fn wait_for_slot(&self, timeout: Duration) -> bool {
        let Some(window) = self.shared.window else {
            return true;
        };
        let mut count = self.shared.in_flight();
        while *count >= window {
            let (next, wait) = (self.shared.slot_freed)
                .wait_timeout(count, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            if wait.timed_out() && *next >= window {
                return false;
            }
            count = next;
        }
        true
    }

    /// Dispatches one row per `(cell, inputs)` shard, row `i` attributed
    /// to shard `i`: stamps each row's dispatch time, then spawns users
    /// round-robin across shards ([`interleave_shards`]) so no wide
    /// shard monopolises the head of the pool's queue. An empty row
    /// completes immediately.
    pub(crate) fn dispatch(&self, shards: &[(&CellConfig, &[Arc<UserInput>])]) -> Vec<Arc<Row>> {
        let counts: Vec<usize> = shards.iter().map(|(_, inputs)| inputs.len()).collect();
        let rows: Vec<Arc<Row>> = counts
            .iter()
            .enumerate()
            .map(|(shard, &users)| {
                // The open count is in place before any user can finish.
                if users == 0 {
                    self.shared.completed_rows.fetch_add(1, Ordering::SeqCst);
                } else {
                    *self.shared.in_flight() += 1;
                }
                Arc::new(Row {
                    shard,
                    slots: (0..users).map(|_| OnceLock::new()).collect(),
                    open: AtomicUsize::new(users),
                    dispatched_ns: self.elapsed().as_nanos() as u64,
                    done_ns: OnceLock::new(),
                })
            })
            .collect();
        let handle = self.pool.handle();
        for (shard, user) in interleave_shards(&counts) {
            let (shared, row) = (Arc::clone(&self.shared), Arc::clone(&rows[shard]));
            self.shared.shards.record_spawned(shard, 1);
            spawn_user_graph(
                &handle,
                shards[shard].0,
                &shards[shard].1[user],
                self.turbo,
                &self.planner,
                Box::new(move |result| complete(&shared, &row, user, result)),
            );
        }
        rows
    }

    /// Blocks until every spawned task has finished. Returns the drain
    /// proof: every shard's spawned users all completed.
    pub(crate) fn wait_all(&self) -> bool {
        self.pool.wait_all();
        self.shared.shards.all_drained()
    }
}

/// The one completion callback: fill the user's slot; on the row's last
/// user stamp completion, record the latency, count the row and release
/// its window slot.
fn complete(shared: &Shared, row: &Row, user: usize, result: UserResult) {
    row.slots[user]
        .set(result)
        .expect("each user slot is written once");
    shared.shards.record_completed(row.shard);
    if row.open.fetch_sub(1, Ordering::SeqCst) == 1 {
        let done = shared.start.elapsed().as_nanos() as u64;
        let _ = row.done_ns.set(done);
        shared
            .latency
            .record(done.saturating_sub(row.dispatched_ns));
        shared.completed_rows.fetch_add(1, Ordering::SeqCst);
        *shared.in_flight() -= 1;
        shared.slot_freed.notify_one();
    }
}

/// A flat buffer whose disjoint ranges are written concurrently by pool
/// tasks and read only after a completion counter joins every writer.
///
/// The paper's task decomposition makes the ranges disjoint by
/// construction — every (slot, rx, layer) or (slot, symbol, layer)
/// tuple maps to its own block — so tasks need neither a mutex to park
/// results in nor a per-task allocation to hold them.
struct SharedBuf<T> {
    cells: Vec<UnsafeCell<T>>,
}

// SAFETY: writers touch disjoint ranges (enforced by the dispatcher's
// index arithmetic), and readers only run after the pool scope joins
// all writers, which synchronises the stores.
unsafe impl<T: Send> Sync for SharedBuf<T> {}

impl<T: Copy> SharedBuf<T> {
    fn new(len: usize, fill: T) -> Self {
        let mut cells = Vec::new();
        cells.resize_with(len, || UnsafeCell::new(fill));
        SharedBuf { cells }
    }

    /// A mutable view of `start..start + len`.
    ///
    /// # Safety
    ///
    /// No other live reference may overlap the range for the lifetime
    /// of the returned slice.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.cells.len(), "range out of bounds");
        let base = UnsafeCell::raw_get(self.cells.as_ptr().add(start));
        std::slice::from_raw_parts_mut(base, len)
    }
}

/// A user's completion callback, run once on a worker thread.
type UserDone = Box<dyn FnOnce(UserResult) + Send>;

/// Shared state of one user's dependency-ordered task graph.
///
/// This replaces the old two-barrier design (estimate tasks → scope
/// join → weights on the user thread → combine tasks → scope join →
/// serial tail), where each user *blocked a worker* for its whole
/// pipeline. Here the last task of each stage spawns the next stage, so
/// no thread ever waits:
///
/// ```text
/// est(slot 0, rx, layer) ┐
///        …               ├─ last one → weights(0) → combine(0, sym, layer) ┐
/// est(slot 0, rx, layer) ┘                                  …              ├─┐
/// est(slot 1, rx, layer) ┐                                                 ┘ │
///        …               ├─ last one → weights(1) → combine(1, sym, layer) ┐ ├─ last → finish
/// est(slot 1, rx, layer) ┘                                  …              ├─┘
///                                                                          ┘
/// ```
///
/// Byte-identity with the serial reference holds because every task
/// computes the same arithmetic on the same inputs into its own
/// disjoint output range; the counters only decide *when* stages run,
/// never *what* they compute.
struct UserGraph {
    cell: CellConfig,
    input: Arc<UserInput>,
    turbo: TurboMode,
    planner: Arc<FftPlanner>,
    /// Flat `[slot][rx][layer][subcarrier]` channel-estimate buffer.
    est_buf: SharedBuf<Complex32>,
    /// Estimation tasks still outstanding, per slot.
    est_remaining: [AtomicUsize; SLOTS_PER_SUBFRAME],
    /// Per-slot combiner weights, set by the slot's last estimation task
    /// before any of the slot's combine tasks exist.
    weights: [OnceLock<CombinerWeights>; SLOTS_PER_SUBFRAME],
    /// Flat LLR buffer in the transmitter's bit order.
    llr_buf: SharedBuf<f32>,
    /// Combine tasks still outstanding across both slots.
    combine_remaining: AtomicUsize,
    /// Completion callback, taken exactly once by the join task.
    on_done: Mutex<Option<UserDone>>,
}

/// Spawns one user's dependency-ordered task graph onto the pool and
/// returns immediately; `on_done` runs on a worker thread once the
/// user's result is ready. [`TaskPool::wait_all`] covers every task of
/// the graph, including ones spawned after the call returns.
///
/// Steady-state allocation discipline: every task draws its working
/// buffers from its worker's thread-local [`UserScratch`] arena and
/// writes results into a shared flat buffer; the per-user cost is the
/// graph node (two flat buffers) and the boxed task closures.
pub fn spawn_user_graph(
    handle: &PoolHandle,
    cell: &CellConfig,
    input: &Arc<UserInput>,
    turbo: TurboMode,
    planner: &Arc<FftPlanner>,
    on_done: UserDone,
) {
    // The graph (and its two flat buffers) is built by a small *root*
    // task on whichever worker picks the user up, not at dispatch time:
    // under a deep admission backlog the dispatcher may queue hundreds
    // of subframes ahead of the workers, and eager construction would
    // hold every queued user's estimate and LLR buffers live at once.
    let cell = *cell;
    let input = Arc::clone(input);
    let planner = Arc::clone(planner);
    let root = handle.clone();
    handle.spawn(move || {
        let user = input.config;
        let n_rx = cell.n_rx;
        let n_layers = user.layers;
        let n_sc = user.subcarriers();
        let chunk_bits = n_sc * user.modulation.bits_per_symbol();
        let n_chunks = SLOTS_PER_SUBFRAME * DATA_SYMBOLS_PER_SLOT * n_layers;
        let graph = Arc::new(UserGraph {
            cell,
            input,
            turbo,
            planner,
            est_buf: SharedBuf::new(SLOTS_PER_SUBFRAME * n_rx * n_layers * n_sc, Complex32::ZERO),
            est_remaining: std::array::from_fn(|_| AtomicUsize::new(n_rx * n_layers)),
            weights: std::array::from_fn(|_| OnceLock::new()),
            llr_buf: SharedBuf::new(n_chunks * chunk_bits, 0f32),
            combine_remaining: AtomicUsize::new(n_chunks),
            on_done: Mutex::new(Some(on_done)),
        });
        for slot in 0..SLOTS_PER_SUBFRAME {
            for rx in 0..n_rx {
                for layer in 0..n_layers {
                    let graph = Arc::clone(&graph);
                    let inner = root.clone();
                    root.spawn(move || estimate_task(&inner, &graph, slot, rx, layer));
                }
            }
        }
    });
}

/// One channel-estimation task: (slot, rx, layer). The slot's last
/// estimator also computes the combiner weights — cache-hot over the
/// estimates it just joined — and fans out the slot's combine tasks.
fn estimate_task(
    handle: &PoolHandle,
    graph: &Arc<UserGraph>,
    slot: usize,
    rx: usize,
    layer: usize,
) {
    let user = &graph.input.config;
    let n_rx = graph.cell.n_rx;
    let n_layers = user.layers;
    let n_sc = user.subcarriers();
    let idx = (slot * n_rx + rx) * n_layers + layer;
    // SAFETY: each (slot, rx, layer) tuple owns its range.
    let out = unsafe { graph.est_buf.slice_mut(idx * n_sc, n_sc) };
    UserScratch::with(|s| {
        estimate_path_into(
            &graph.cell,
            &graph.input,
            slot,
            rx,
            layer,
            &graph.planner,
            &mut s.arena,
            out,
        );
    });
    if graph.est_remaining[slot].fetch_sub(1, Ordering::SeqCst) == 1 {
        let base = slot * n_rx * n_layers * n_sc;
        // SAFETY: the counter joined every writer of this slot's range;
        // other slots' writers touch disjoint ranges.
        let flat = unsafe { graph.est_buf.slice_mut(base, n_rx * n_layers * n_sc) };
        let w = UserScratch::with(|s| {
            s.weights_from_flat_estimate(n_rx, n_layers, n_sc, flat, graph.input.noise_var)
        });
        assert!(
            graph.weights[slot].set(w).is_ok(),
            "weights are computed once per slot"
        );
        for sym in 0..DATA_SYMBOLS_PER_SLOT {
            for layer in 0..n_layers {
                let graph = Arc::clone(graph);
                let inner = handle.clone();
                handle.spawn(move || combine_task(&inner, &graph, slot, sym, layer));
            }
        }
    }
}

/// One combine + demap task: (slot, symbol, layer), writing straight
/// into the flat LLR buffer in the transmitter's bit order. The last
/// one spawns the serial join.
fn combine_task(
    handle: &PoolHandle,
    graph: &Arc<UserGraph>,
    slot: usize,
    sym: usize,
    layer: usize,
) {
    let user = &graph.input.config;
    let n_sc = user.subcarriers();
    let chunk_bits = n_sc * user.modulation.bits_per_symbol();
    let idx = (slot * DATA_SYMBOLS_PER_SLOT + sym) * user.layers + layer;
    let weights = graph.weights[slot]
        .get()
        .expect("weights are set before the slot's combines are spawned");
    // SAFETY: each (slot, symbol, layer) tuple owns its range.
    let out = unsafe { graph.llr_buf.slice_mut(idx * chunk_bits, chunk_bits) };
    UserScratch::with(|s| {
        let mut combined = s.arena.take_c32(n_sc);
        combine_symbol_into(
            &graph.input,
            weights,
            slot,
            sym,
            layer,
            &graph.planner,
            &mut s.arena,
            &mut combined,
        );
        let mut llrs = s.arena.take_f32(chunk_bits);
        demap_block_into(user.modulation, &combined, graph.input.noise_var, &mut llrs);
        out.copy_from_slice(&llrs);
        s.arena.recycle_f32(llrs);
        s.arena.recycle_c32(combined);
    });
    if graph.combine_remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        let graph = Arc::clone(graph);
        handle.spawn(move || finish_task(&graph));
    }
}

/// The serial join: deinterleave → turbo (pass-through) → CRC on the
/// completed LLR buffer, then the completion callback.
fn finish_task(graph: &UserGraph) {
    let total = graph.input.config.bits_per_subframe();
    // SAFETY: the combine counter joined every writer; this task is the
    // only remaining accessor.
    let llrs = unsafe { graph.llr_buf.slice_mut(0, total) };
    let result = UserScratch::with(|s| {
        finish_user_with_arena(
            &graph.cell,
            &graph.input,
            graph.turbo,
            llrs,
            &mut s.arena,
            &mut s.turbo,
        )
    });
    let cb = graph
        .on_done
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("the join task runs once");
    cb(result);
}
