//! CPU-time and memory readers: the process and calling-thread CPU
//! clocks, per-thread run time from `/proc`, a sampler that follows the
//! pool's worker threads while a driver call runs, and peak RSS.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this crate builds for), and
    // both clock ids are defined by POSIX for every process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU consumed by the whole process (every thread,
/// including ones that have exited), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The kernel id of the calling thread (`/proc/thread-self`).
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Run time of thread `tid` of this process in nanoseconds (first field
/// of its `schedstat`), or `None` once the thread has exited.
pub fn task_run_ns(tid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The ids of this process's live threads.
fn task_ids() -> impl Iterator<Item = u32> {
    std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Follows every thread of the process except the caller and itself,
/// keeping each one's last-seen run time, so CPU spent by pool workers
/// that a driver call spawns and joins internally can be attributed.
/// Dropping it without [`finish`](Self::finish) still stops and joins
/// the sampler thread.
pub struct WorkerSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<(u64, u64)>>,
}

/// How often the sampler rereads `/proc/self/task`: a worker's run time
/// after its last sample is lost, and workers are parked by then.
const SAMPLE_PERIOD: Duration = Duration::from_millis(5);

impl WorkerSampler {
    /// Starts following the threads other than the calling one.
    pub fn start() -> Self {
        let coordinator = current_tid();
        // Threads alive now only count their run time from here on;
        // threads born later count from zero.
        let baseline: BTreeMap<u32, u64> = task_ids()
            .filter(|&tid| tid != coordinator)
            .filter_map(|tid| Some((tid, task_run_ns(tid)?)))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let me = current_tid();
            let mut last: BTreeMap<u32, u64> = BTreeMap::new();
            loop {
                let done = flag.load(Ordering::SeqCst);
                for tid in task_ids().filter(|&tid| tid != coordinator && tid != me) {
                    if let Some(ns) = task_run_ns(tid) {
                        last.insert(tid, ns);
                    }
                }
                if done {
                    break;
                }
                std::thread::sleep(SAMPLE_PERIOD);
            }
            let workers = last
                .iter()
                .map(|(tid, &ns)| ns.saturating_sub(baseline.get(tid).copied().unwrap_or(0)))
                .sum();
            (workers, thread_cpu_ns())
        });
        WorkerSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns `(worker_ns, sampler_ns)`: the run
    /// time of every other thread seen since [`start`](Self::start), and
    /// the sampler's own CPU.
    pub fn finish(mut self) -> (u64, u64) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("finish runs once")
            .join()
            .expect("sampler thread does not panic")
    }
}

impl Drop for WorkerSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn thread_clock_counts_only_this_thread() {
        let t0 = thread_cpu_ns();
        let p0 = process_cpu_ns();
        spin(Duration::from_millis(30));
        let busy = thread_cpu_ns() - t0;
        assert!(busy >= 20_000_000, "spinning 30 ms charged {busy} ns");
        // A sleeping helper thread adds (almost) nothing to this
        // thread's clock but the process clock sees everything.
        let t1 = thread_cpu_ns();
        std::thread::spawn(|| spin(Duration::from_millis(30)))
            .join()
            .expect("helper");
        assert!(thread_cpu_ns() - t1 < 10_000_000);
        assert!(process_cpu_ns() - p0 >= busy + 20_000_000);
    }

    #[test]
    fn schedstat_tracks_the_calling_thread() {
        let tid = current_tid();
        let a = task_run_ns(tid).expect("own schedstat");
        spin(Duration::from_millis(20));
        let b = task_run_ns(tid).expect("own schedstat");
        assert!(b - a >= 10_000_000, "schedstat advanced {} ns", b - a);
        assert_eq!(task_run_ns(u32::MAX), None);
    }

    #[test]
    fn sampler_attributes_worker_time() {
        let sampler = WorkerSampler::start();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            go_rx.recv().expect("start signal");
            spin(Duration::from_millis(60));
        });
        go_tx.send(()).expect("worker waits");
        worker.join().expect("worker");
        let (workers, _) = sampler.finish();
        // The final sample may miss up to one period of the worker's run.
        assert!(workers >= 40_000_000, "sampled {workers} ns");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.5);
    }
}
