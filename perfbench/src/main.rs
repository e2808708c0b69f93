//! `lte-perfbench` — the repository benchmark.
//!
//! ```text
//! lte-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `uplink` and `deploy` for why each was chosen):
//! `steady-saturate`, `ramp-paced`, `deploy-coupled`. The workload's
//! inputs are generated from `--seed`; the timed region lasts about
//! `--seconds`. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the traced replay instead, prints the per-layer metrics and
//! writes a Perfetto trace under `perfbench/out/`. Every run checks its
//! outputs; the last stdout line is the JSON result.

mod cpu;
mod deploy;
mod replay;
mod stats;
mod trace;
mod uplink;

use std::process::{Command, ExitCode};

use stats::Metrics;

/// What one run measured and checked.
pub struct Outcome {
    /// Metrics, in emission order.
    pub metrics: Metrics,
    /// Operations attempted (one per scheduled grant).
    pub attempted: u64,
    /// Operations that errored, went missing or diverged.
    pub failed: u64,
    /// Context lines printed ahead of the result.
    pub notes: Vec<String>,
}

const WORKLOADS: [&str; 3] = ["steady-saturate", "ramp-paced", "deploy-coupled"];

/// Metrics of every untraced run (`end_to_end` in BENCHMARK.json).
const END_TO_END: [&str; 8] = [
    "throughput_sfps",
    "grants_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "cpu_ms_per_sf",
    "serial_sfps",
    "setup_s",
    "peak_rss_mib",
];

/// Metrics of every traced run (`per_layer` in BENCHMARK.json).
const PER_LAYER: [&str; 45] = [
    "phy.rx.stage.matched_filter_share",
    "phy.rx.stage.ifft_share",
    "phy.rx.stage.window_share",
    "phy.rx.stage.fft_share",
    "phy.rx.stage.weights_share",
    "phy.rx.stage.combining_share",
    "phy.rx.stage.demap_share",
    "phy.rx.stage.deinterleave_share",
    "phy.rx.stage.turbo_share",
    "phy.rx.stage.crc_share",
    "phy.rx.stage.other_share",
    "phy.rx.traced_slowdown",
    "phy.rx.serial_us_per_sf",
    "phy.rx.front_us_per_sf",
    "phy.rx.tail_us_per_sf",
    "phy.rx.crc_fail",
    "dsp.turbo.bit_iters",
    "dsp.crc.bits",
    "trace.overhead_ratio",
    "phy.tx.synth_calls",
    "phy.tx.synth_us_per_call",
    "driver.coordinator_cpu_ms",
    "driver.coordinator_share",
    "driver.worker_cpu_ms",
    "driver.sampler_cpu_ms",
    "driver.cpu_other_ms",
    "sched.pool.parks",
    "sched.pool.busy_ms",
    "sched.pool.idle_ms",
    "sched.pool.activity",
    "sched.pool.tasks_per_sf",
    "sched.pool.steals",
    "sched.pool.steal_batches",
    "sched.pool.lifo_hits",
    "sched.pool.overhead_ratio",
    "sched.pool.efficiency",
    "uplink.dispatch_lag_p50_us",
    "uplink.dispatch_lag_p99_us",
    "uplink.pre_dispatch_ms",
    "deploy.offered",
    "deploy.scheduled",
    "deploy.deferred",
    "deploy.nack",
    "dsp.arena.fresh",
    "dsp.arena.reuse_ratio",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a tool's output, or `unknown` when it cannot run.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host descriptor printed with every result, so records from
/// different host classes or SIMD paths are never compared.
fn host_line(args: &Args) -> String {
    format!(
        "host: nproc={} simd={} rustc=\"{}\" git={} workload={} seed={} seconds={} trace={}",
        lte_sched::host_parallelism(),
        lte_dsp::simd::dispatch_label(),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short=12", "HEAD"]),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut log = trace::SpanLog::new();
    let outcome = if args.workload == "deploy-coupled" {
        let workload = deploy::DeployWorkload::new(args.seed);
        if args.trace {
            workload.traced(&mut log)
        } else {
            workload.end_to_end(args.seconds)
        }
    } else {
        let shape = if args.workload == "ramp-paced" {
            uplink::Shape::Ramp
        } else {
            uplink::Shape::Steady
        };
        let workload = uplink::UplinkWorkload::new(shape, args.seed, args.seconds);
        if args.trace {
            workload.traced(&mut log)
        } else {
            workload.end_to_end(args.seconds)
        }
    }?;
    let expected = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut emitted: Vec<&str> = outcome.metrics.names().collect();
    let mut want = expected.to_vec();
    emitted.sort_unstable();
    want.sort_unstable();
    assert_eq!(emitted, want, "a run emits exactly its mode's metrics");
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, log.perfetto())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            log.spans().len(),
            path.display()
        );
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lte-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&args));
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            print!("{}", outcome.metrics.table());
            println!(
                "{}",
                outcome.metrics.result_json(
                    outcome.failed == 0,
                    outcome.attempted.max(1),
                    outcome.failed
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lte-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level list of BENCHMARK.json.
    fn listed(doc: &str, key: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let list = &doc[start..];
        let list = &list[..list.find(']').expect("list closes")];
        list.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn emitted_metric_names_are_legal_unique_and_declared() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        for (names, key) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            assert!(names.iter().all(|n| stats::valid_metric_name(n)));
            let mut declared = listed(&doc, key);
            let mut ours: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            declared.sort();
            ours.sort();
            let before = ours.len();
            ours.dedup();
            assert_eq!(ours.len(), before, "{key} names are unique");
            assert_eq!(ours, declared, "{key} matches BENCHMARK.json");
        }
        // `ramp-paced` stays runnable by hand but is not declared: see
        // README.md.
        let workloads = listed(&doc, "workloads");
        assert!(!workloads.is_empty());
        assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    }
}
