//! Pinned output fingerprints of the three drivers that decode on the
//! real pool: the windowed batch benchmark, the serve loop and the
//! multi-cell deployment. Each value is a pure function of its
//! configuration (independent of worker count and host speed), so any
//! change to what these drivers compute — rather than when — shows up
//! here as a changed constant.

use std::time::Duration;

use lte_uplink_repro::model::{ParameterModel, RampModel};
use lte_uplink_repro::phy::params::{CellConfig, TurboMode};
use lte_uplink_repro::uplink::{
    fingerprint_results, run_deploy, run_serve, BenchmarkConfig, DeployConfig, ServeConfig,
    ServeControl, TrafficModel, UplinkBenchmark,
};

const BENCHMARK_FINGERPRINT: u64 = 0xa440_959a_bb14_9f09;
const SERVE_BURSTY_IOT_FINGERPRINT: u64 = 0x2567_9267_ee59_7a39;
const DEPLOY_ISOLATED_FINGERPRINT: u64 = 0x3c75_053d_628f_2878;
const DEPLOY_COUPLED_FINGERPRINT: u64 = 0x08f2_3f57_0f7d_21c3;

#[test]
fn windowed_benchmark_fingerprint_is_pinned_at_any_worker_count() {
    let subframes = RampModel::new(3).subframes(6);
    for workers in [1, 2] {
        let mut bench = UplinkBenchmark::new(
            CellConfig::with_antennas(2),
            BenchmarkConfig {
                workers,
                delta: Duration::ZERO,
                turbo: TurboMode::Passthrough,
                seed: 7,
                max_in_flight: Some(2),
                ..BenchmarkConfig::default()
            },
        );
        let run = bench.run(&subframes);
        assert_eq!(
            fingerprint_results(&run.results),
            BENCHMARK_FINGERPRINT,
            "{workers} worker(s): {:016x}",
            fingerprint_results(&run.results)
        );
    }
}

#[test]
fn bursty_iot_serve_fingerprint_is_pinned() {
    let mut cfg = ServeConfig::new(64, 7);
    cfg.params.traffic = TrafficModel::BurstyIot;
    let outcome = run_serve(&cfg, &ServeControl::new()).expect("serve campaign");
    assert_eq!(
        outcome.fingerprint, SERVE_BURSTY_IOT_FINGERPRINT,
        "{:016x}",
        outcome.fingerprint
    );
}

#[test]
fn deploy_fingerprints_are_pinned_isolated_and_coupled() {
    for (coupling_milli, want) in [
        (0, DEPLOY_ISOLATED_FINGERPRINT),
        (10, DEPLOY_COUPLED_FINGERPRINT),
    ] {
        let cfg = DeployConfig {
            coupling_milli,
            ..DeployConfig::new(3, 3000, 4, 7)
        };
        let report = run_deploy(&cfg).expect("deploy campaign");
        assert_eq!(
            report.fingerprint, want,
            "coupling {coupling_milli}: {:016x}",
            report.fingerprint
        );
    }
}
