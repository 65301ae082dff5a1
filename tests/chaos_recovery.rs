//! Fault-tolerance contracts: under deterministic chaos injection the
//! service must lose zero admitted requests, every successful answer
//! must be bit-identical to the fault-free run (retries and the
//! degrade-don't-drop fallback included — all backends agree on
//! outputs), and a quarantined device must be probed back to life
//! with its stranded work re-routed.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tempus::arith::IntPrecision;
use tempus::core::gemm::Matrix;
use tempus::models::netbuild;
use tempus::models::zoo::Model;
use tempus::nvdla::conv::ConvParams;
use tempus::nvdla::cube::{DataCube, KernelSet};
use tempus::runtime::{BackendKind, Job};
use tempus::serve::{
    FaultPlan, Request, ResponseOutcome, ServeConfig, ServeStats, StreamingService,
};

fn conv_job(id: u64, seed: u64) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = rng.random_range(2usize..=5);
    let k = rng.random_range(2usize..=5);
    let w = rng.random_range(4usize..=6);
    let features = DataCube::from_fn(w, w, c, |_, _, _| rng.random_range(-128..=127));
    let kernels = KernelSet::from_fn(k, 3, 3, c, |_, _, _, _| rng.random_range(-128..=127));
    Job::conv(
        id,
        format!("conv-{id}"),
        features,
        kernels,
        ConvParams::valid(),
    )
}

fn gemm_job(id: u64, seed: u64) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let (m, n, p) = (
        rng.random_range(2usize..=8),
        rng.random_range(2usize..=8),
        rng.random_range(2usize..=8),
    );
    let a = Matrix::from_fn(m, n, |_, _| rng.random_range(-128..=127));
    let b = Matrix::from_fn(n, p, |_, _| rng.random_range(-128..=127));
    Job::gemm(id, format!("gemm-{id}"), a, b)
}

/// The mixed workload every scenario serves: conv and GEMM jobs, most
/// fast, every third accurate (admission-headroomed so rejection never
/// muddies the zero-lost-requests ledger).
fn workload(n: u64, seed: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let job = if i % 2 == 0 {
                conv_job(i, seed ^ (i * 11))
            } else {
                gemm_job(i, seed ^ (i * 13))
            };
            if i % 3 == 0 {
                Request::accurate(job)
            } else {
                Request::fast(job)
            }
        })
        .collect()
}

/// Serves `requests` through `config`, asserting every single one is
/// answered `Done`; returns the per-job output digests and the final
/// stats.
fn serve_all(config: ServeConfig, requests: &[Request]) -> (BTreeMap<u64, u64>, ServeStats) {
    let service = StreamingService::start(config).expect("service starts");
    for request in requests {
        service.submit(request.clone()).expect("submit");
    }
    let mut digests = BTreeMap::new();
    for _ in 0..requests.len() {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("every admitted request must be answered");
        match response.outcome {
            ResponseOutcome::Done(result) => {
                digests.insert(response.job_id, result.output.digest());
            }
            other => panic!("job {} was lost to {other:?}", response.job_id),
        }
    }
    let (stats, leftovers) = service.shutdown();
    assert!(leftovers.is_empty(), "no surplus responses");
    assert_eq!(stats.completed, requests.len() as u64);
    (digests, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Acceptance property: at injected fault rates up to 10%, with
    /// either cycle-accurate backend serving the accurate fidelity,
    /// zero admitted requests are lost and every answer is
    /// bit-identical to the fault-free run.
    #[test]
    fn chaos_loses_nothing_and_answers_bit_identically(
        seed in any::<u64>(),
        rate in 0.0f64..0.10,
        nvdla_accurate in any::<bool>(),
    ) {
        let base = || {
            let mut config = ServeConfig::new()
                .with_workers(2)
                .with_admission(4, 64);
            if nvdla_accurate {
                config.accurate_backend = BackendKind::NvdlaCycleAccurate;
            }
            config
        };
        let requests = workload(24, seed);
        let (clean, clean_stats) = serve_all(base(), &requests);
        prop_assert_eq!(clean_stats.retries, 0);
        prop_assert_eq!(clean_stats.degraded, 0);

        let chaos_config = base().with_chaos(
            FaultPlan::new(seed, rate).with_weights(2, 2),
        );
        let (chaotic, _stats) = serve_all(chaos_config, &requests);
        prop_assert_eq!(
            chaotic, clean,
            "every answer must match the fault-free digests"
        );
    }
}

/// Degrade-don't-drop: with a zero retry budget and a 100% fault
/// rate, every cold execution faults once and is answered by the
/// functional fallback — flagged `degraded`, counted in the stats,
/// and still bit-identical to the fault-free run (all backends agree
/// on outputs).
#[test]
fn exhausted_retries_degrade_but_never_drop() {
    let requests = workload(8, 0xDE6E);
    let clean = serve_all(
        ServeConfig::new().with_workers(2).with_admission(4, 64),
        &requests,
    )
    .0;

    let config = ServeConfig::new()
        .with_workers(2)
        .with_admission(4, 64)
        // Transient faults only: a panic or stall would also recover,
        // but a pure backend-error mix keeps this test sub-second.
        .with_chaos(FaultPlan::new(7, 1.0).with_weights(0, 0))
        .with_retries(0);
    let service = StreamingService::start(config).expect("service starts");
    for request in &requests {
        service.submit(request.clone()).expect("submit");
    }
    let mut digests = BTreeMap::new();
    let mut degraded = 0u64;
    for _ in 0..requests.len() {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("answered");
        match response.outcome {
            ResponseOutcome::Done(result) => {
                if result.degraded {
                    degraded += 1;
                }
                digests.insert(response.job_id, result.output.digest());
            }
            other => panic!("job {} was lost to {other:?}", response.job_id),
        }
    }
    let (stats, _) = service.shutdown();
    assert_eq!(digests, clean, "degraded answers carry the right bits");
    assert!(
        degraded >= 1,
        "a 100% fault rate with no retry budget must degrade cold executions"
    );
    assert_eq!(stats.degraded, degraded);
    assert_eq!(stats.retries, 0, "retry budget was zero");
    assert_eq!(stats.failed, 0);
}

/// Speculative serving under total fault: every verify leg faults
/// and, with no retry budget, degrades to the functional backend. No
/// cycle-accurate execution ever completes, so nothing is verified.
/// Each client hears exactly one answer — the answer leg's or the
/// degraded leg's, whichever lands first — and only degraded answers
/// that reached a client count as degraded.
#[test]
fn degraded_verify_legs_audit_nothing() {
    let config = ServeConfig::new()
        .with_workers(2)
        .with_speculative()
        .with_chaos(FaultPlan::new(7, 1.0).with_weights(0, 0))
        .with_retries(0);
    let service = StreamingService::start(config).expect("service starts");
    for i in 0..8 {
        let request = Request::accurate(gemm_job(i, 0x5EC ^ i));
        service.submit(request).expect("submit");
    }
    let mut answered = BTreeMap::new();
    let mut degraded = 0u64;
    for _ in 0..8 {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("answered");
        match response.outcome {
            ResponseOutcome::Done(result) => degraded += u64::from(result.degraded),
            other => panic!("job {} was lost to {other:?}", response.job_id),
        }
        *answered.entry(response.job_id).or_insert(0) += 1;
    }
    let (stats, leftovers) = service.shutdown();
    assert!(leftovers.is_empty(), "no surplus responses");
    assert!(answered.values().all(|&n| n == 1), "{answered:?}");
    assert_eq!(stats.speculative_verified, 0, "nothing cycle-accurate ran");
    assert_eq!(stats.speculative_mismatches, 0);
    assert_eq!(stats.speculative_answers + degraded, 8);
    assert_eq!(stats.degraded, degraded);
}

/// Pinned-seed golden for the recovery ladder: a persistent outage on
/// device 1 of a 2-device fleet must trip the circuit breaker
/// (quarantine), roll the dead placements' grants back, re-route the
/// work to the surviving device, probe the outage on floor advances,
/// and revive the device once the probes report healthy — all while
/// losing zero requests.
#[test]
fn outage_quarantines_probes_and_revives_without_losing_requests() {
    let requests = workload(32, 0x0A7A6E);
    let clean = serve_all(
        ServeConfig::new()
            .with_workers(2)
            .with_admission(4, 64)
            .with_devices(2),
        &requests,
    )
    .0;

    let config = ServeConfig::new()
        .with_workers(2)
        .with_admission(4, 64)
        .with_devices(2)
        .with_chaos(FaultPlan::new(42, 0.0).with_outage(1, 2));
    let (chaotic, stats) = serve_all(config, &requests);
    assert_eq!(chaotic, clean, "re-routed work answers identically");

    let fleet = stats.fleet;
    assert!(stats.retries >= 1, "outage placements must be retried");
    assert_eq!(
        fleet.quarantines, 1,
        "three consecutive failures must quarantine device 1 exactly once"
    );
    assert!(
        fleet.rollbacks >= 1,
        "dead placements must hand their grants back"
    );
    assert!(
        fleet.probes >= 2,
        "a quarantined device is probed on floor advances (heals after 2)"
    );
    assert_eq!(fleet.revivals, 1, "the healed device must rejoin");
    assert_eq!(stats.failed, 0, "zero lost requests");
}

/// Disabled injection is the zero-overhead default: a `ServeConfig`
/// without a chaos plan serves bit-identically to the seed behaviour
/// — no retries, no degrades, no fleet health activity.
#[test]
fn disabled_injection_is_inert() {
    let requests = workload(12, 0x1D1E ^ 0x2025);
    let (_, stats) = serve_all(
        ServeConfig::new().with_workers(2).with_admission(4, 64),
        &requests,
    );
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.degraded, 0);
    assert!(!stats.drain_timed_out);
    assert_eq!(stats.drain_ns, 0, "no drain wait when work finishes first");
}

/// Bounded shutdown drain: with a stalled job in flight and a 1 ms
/// drain budget, shutdown must answer the straggler as failed and
/// return — surfacing the timeout in the stats — instead of blocking
/// on the wedged execution. The stall is structural, not a matter of
/// host speed: every attempt is an injected stall that naps for the
/// pool's fixed 1 s cap, far inside the 10 s watchdog.
#[test]
fn shutdown_drain_is_bounded_and_surfaced() {
    let layers = netbuild::network_prefix(Model::ResNet18, IntPrecision::Int8, 9, 200_000, 1, 64);
    let channels = netbuild::input_channels(&layers).expect("dense prefix");
    let input = netbuild::input_cube(8, 8, channels, IntPrecision::Int8, 9);
    let slow = Job::network(0, "slow", input, layers);

    let config = ServeConfig::new()
        .with_workers(1)
        .with_chaos(FaultPlan::new(3, 1.0).with_weights(0, 16))
        .with_watchdog(Duration::from_secs(10))
        .with_drain_timeout(Duration::from_millis(1));
    let service = StreamingService::start(config).expect("service starts");
    service.submit(Request::fast(slow)).expect("submit");
    // Give the dispatcher a beat to move the job onto the pool, then
    // pull the plug while it is mid-stall.
    std::thread::sleep(Duration::from_millis(30));
    let (stats, leftovers) = service.shutdown();
    assert!(stats.drain_timed_out, "the 1 ms drain bound must expire");
    assert!(stats.drain_ns >= 1_000_000, "the drain waited its bound");
    assert_eq!(stats.failed, 1, "the straggler is answered, not lost");
    assert!(
        leftovers
            .iter()
            .any(|r| matches!(r.outcome, ResponseOutcome::Failed(_))),
        "the straggler's failure response is delivered"
    );
}

/// All-arrays recovery keeps the one device ledger exact: on a
/// 1-device, whole-core service, injected transients are retried and
/// their grants rolled back, nothing is lost, every answer matches
/// the fault-free digests, and the placement count is a census of
/// the executions that answered a client — as under co-scheduling.
#[test]
fn all_arrays_rollbacks_keep_the_ledger_a_census_of_live_grants() {
    let requests = workload(24, 0xA11A);
    let base = ServeConfig::new().with_workers(2).with_arrays(4);
    let base = base.with_admission(4, 64);
    let (clean, _) = serve_all(base.clone(), &requests);
    let chaos = base.with_chaos(FaultPlan::new(11, 0.3).with_weights(0, 0));
    let (chaotic, stats) = serve_all(chaos, &requests);
    assert_eq!(chaotic, clean, "recovered answers carry the right bits");
    assert!(stats.retries >= 1, "a 30% transient rate must retry");
    let fleet = &stats.fleet;
    assert!(fleet.rollbacks >= 1 && fleet.quarantines == 0, "{fleet:?}");
    // Every request is unique, so each answered with one execution.
    let device = stats.device;
    assert_eq!(device.placements, requests.len() as u64);
    assert_eq!(device.granted_sum, 4 * device.placements);
    assert_eq!(fleet.devices[0], device);
}
