//! Serving-layer contracts: content-addressed cache hits must be
//! bit-identical to cold execution on every backend, the bounded
//! ingestion queue must reject/block rather than grow without bound,
//! and admission control must keep cycle-accurate jobs from starving
//! (or flooding) the service.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tempus::arith::IntPrecision;
use tempus::core::gemm::Matrix;
use tempus::models::netbuild;
use tempus::models::traffic::{generate, TraceConfig};
use tempus::models::zoo::Model;
use tempus::nvdla::conv::ConvParams;
use tempus::nvdla::cube::{DataCube, KernelSet};
use tempus::runtime::{BackendKind, EngineConfig, InferenceEngine, Job};
use tempus::serve::{
    CacheOutcome, Fidelity, RejectReason, Request, ResponseOutcome, ServeConfig, StreamingService,
    SubmitError,
};
use tempus::telemetry::{Clock, EventKind, Stage};

fn random_conv_job(id: u64, seed: u64) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = rng.random_range(2usize..=6);
    let k = rng.random_range(2usize..=6);
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

fn random_gemm_job(id: u64, seed: u64) -> Job {
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

/// Runs `job` twice through a fresh service configured so that the
/// requested fidelity lands on `kind`; returns
/// `(cold result, hit result)` after asserting the second response
/// was served from the cache.
fn cold_then_hit(
    job: &Job,
    kind: BackendKind,
) -> (tempus::serve::ServedResult, tempus::serve::ServedResult) {
    let mut config = ServeConfig::new().with_workers(1);
    let fidelity = match kind {
        BackendKind::FastFunctional => Fidelity::Fast,
        other => {
            config.accurate_backend = other;
            Fidelity::Accurate
        }
    };
    let service = StreamingService::start(config).expect("service starts");
    let mut results = Vec::new();
    for pass in 0..2u64 {
        let mut j = job.clone();
        j.id = pass;
        service
            .submit(Request {
                job: j,
                fidelity,
                deadline_cycles: None,
            })
            .expect("submit");
        let response = service
            .recv_response(Duration::from_secs(60))
            .expect("response arrives");
        match response.outcome {
            ResponseOutcome::Done(result) => results.push(result),
            other => panic!("pass {pass} did not complete: {other:?}"),
        }
    }
    let (stats, _) = service.shutdown();
    assert_eq!(stats.completed, 2);
    let hit = results.pop().unwrap();
    let cold = results.pop().unwrap();
    assert_eq!(cold.cache, CacheOutcome::Miss, "first pass must execute");
    assert_eq!(hit.cache, CacheOutcome::Hit, "second pass must hit");
    (cold, hit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance property: for random conv and GEMM jobs, on every
    /// backend, a cache hit returns bit-identical output and
    /// identical modelled cycles to a cold execution — both compared
    /// against an independent run through the batch engine.
    #[test]
    fn cache_hits_bit_identical_to_cold_execution_on_all_backends(seed in any::<u64>()) {
        for (idx, job) in [random_conv_job(0, seed), random_gemm_job(0, seed ^ 0xABCD)]
            .into_iter()
            .enumerate()
        {
            for kind in BackendKind::ALL {
                // Independent cold reference through the batch engine.
                let engine = InferenceEngine::new(
                    EngineConfig::new(kind).with_workers(1),
                ).unwrap();
                let reference = engine.run_batch(std::slice::from_ref(&job)).unwrap();
                let expected = &reference.results[0];

                let (cold, hit) = cold_then_hit(&job, kind);
                prop_assert_eq!(
                    cold.output.digest(), expected.output.digest(),
                    "job {} cold output must match the batch engine on {:?}", idx, kind
                );
                prop_assert_eq!(&hit.output, &cold.output,
                    "job {} hit must be bit-identical on {:?}", idx, kind);
                prop_assert_eq!(hit.sim_cycles, expected.sim_cycles);
                prop_assert_eq!(cold.sim_cycles, expected.sim_cycles);
            }
        }
    }
}

/// Same contract for whole-network jobs (SDP requantization chains),
/// on all three backends.
#[test]
fn cached_network_jobs_replay_bit_identically() {
    let layers = netbuild::network_prefix(Model::ResNet18, IntPrecision::Int8, 5, 200_000, 1, 64);
    let channels = netbuild::input_channels(&layers).expect("dense prefix");
    let input = netbuild::input_cube(5, 5, channels, IntPrecision::Int8, 5);
    let job = Job::network(0, "net", input, layers);
    let mut digests = Vec::new();
    for kind in BackendKind::ALL {
        let (cold, hit) = cold_then_hit(&job, kind);
        assert_eq!(hit.output, cold.output, "{kind:?}");
        assert_eq!(hit.sim_cycles, cold.sim_cycles, "{kind:?}");
        digests.push(cold.output.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "backends must agree on outputs: {digests:?}"
    );
}

/// Job ids are caller-assigned and may collide across fidelities:
/// outcomes must be matched back by (id, backend), never by id alone
/// — a fast result answering an accurate request would poison the
/// cache and corrupt the admission counters.
#[test]
fn duplicate_ids_across_fidelities_resolve_to_their_own_results() {
    let service = StreamingService::start(ServeConfig::new().with_workers(2)).expect("starts");
    let accurate_job = random_conv_job(7, 1234);
    let fast_job = random_gemm_job(7, 5678); // same id, different payload
    let expect = |job: &Job, kind: BackendKind| {
        let engine = InferenceEngine::new(EngineConfig::new(kind).with_workers(1)).unwrap();
        engine.run_batch(std::slice::from_ref(job)).unwrap().results[0]
            .output
            .digest()
    };
    let accurate_digest = expect(&accurate_job, BackendKind::TempusCycleAccurate);
    let fast_digest = expect(&fast_job, BackendKind::FastFunctional);
    assert_ne!(accurate_digest, fast_digest);

    service.submit(Request::accurate(accurate_job)).unwrap();
    service.submit(Request::fast(fast_job)).unwrap();
    for _ in 0..2 {
        let response = service
            .recv_response(Duration::from_secs(60))
            .expect("response arrives");
        assert_eq!(response.job_id, 7);
        let result = match response.outcome {
            ResponseOutcome::Done(result) => result,
            other => panic!("must complete: {other:?}"),
        };
        let expected = match response.class.fidelity {
            Fidelity::Fast => fast_digest,
            Fidelity::Accurate => accurate_digest,
        };
        assert_eq!(
            result.output.digest(),
            expected,
            "{:?} response must carry its own fidelity's output",
            response.class.fidelity
        );
    }
    let (stats, _) = service.shutdown();
    assert_eq!(stats.completed, 2);
}

/// Backpressure: with the worker pinned by a slow cycle-accurate job
/// and the in-flight cap at 1, the bounded ingestion queue must fill
/// and refuse (`try_submit` → `QueueFull`) instead of growing without
/// bound — and every accepted job must still complete.
#[test]
fn bounded_queue_refuses_instead_of_growing() {
    const QUEUE_CAPACITY: usize = 4;
    let mut config = ServeConfig::new()
        .with_workers(1)
        .with_queue_capacity(QUEUE_CAPACITY);
    config.max_in_flight = 1;
    config.micro_batch = 2;
    let service = StreamingService::start(config).expect("service starts");

    // A genuinely slow job: one cycle-accurate network layer.
    let layers = netbuild::network_prefix(Model::ResNet18, IntPrecision::Int8, 9, 200_000, 1, 64);
    let channels = netbuild::input_channels(&layers).expect("dense prefix");
    let input = netbuild::input_cube(8, 8, channels, IntPrecision::Int8, 9);
    service
        .submit(Request::accurate(Job::network(0, "slow", input, layers)))
        .expect("slow job accepted");

    // Flood the fast path while the worker is pinned. The queue holds
    // at most QUEUE_CAPACITY requests, so a Full refusal must appear
    // long before 3 * QUEUE_CAPACITY accepts.
    let mut accepted = 1u64;
    let mut saw_full = false;
    for i in 1..=(3 * QUEUE_CAPACITY as u64) {
        match service.try_submit(Request::fast(random_gemm_job(i, i))) {
            Ok(()) => accepted += 1,
            Err(SubmitError::QueueFull(_)) => {
                saw_full = true;
                break;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(
        saw_full,
        "queue must refuse once full ({accepted} accepted)"
    );

    // Every accepted request still completes, and the queue never
    // exceeded its bound.
    let mut completed = 0u64;
    while completed < accepted {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("accepted jobs drain");
        assert!(
            matches!(response.outcome, ResponseOutcome::Done(_)),
            "job {} must complete",
            response.job_id
        );
        completed += 1;
    }
    let (stats, _) = service.shutdown();
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.rejected, 0);
    assert!(
        stats.max_queue_depth <= QUEUE_CAPACITY,
        "queue depth {} exceeded capacity {QUEUE_CAPACITY}",
        stats.max_queue_depth
    );
}

/// In-flight coalescing: identical content keys submitted while the
/// first execution is running collapse onto that one execution —
/// exactly one cold run, everyone sharing its bit-identical result,
/// and the `coalesced` counter accounting for the riders.
#[test]
fn identical_inflight_requests_coalesce_onto_one_execution() {
    const DUPLICATES: u64 = 6;
    let features = DataCube::from_fn(8, 8, 8, |x, y, c| {
        ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7) % 255) - 127
    });
    let kernels = KernelSet::from_fn(8, 3, 3, 8, |k, r, s, c| {
        ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11) % 255) - 127
    });
    let job = Job::conv(0, "dup", features, kernels, ConvParams::valid());

    // Plenty of admission headroom: coalescing, not admission control,
    // must be what prevents duplicate executions.
    let service = StreamingService::start(ServeConfig::new().with_workers(2).with_admission(4, 8))
        .expect("service starts");
    for id in 0..DUPLICATES {
        let mut j = job.clone();
        j.id = id;
        service.submit(Request::accurate(j)).expect("submit");
    }

    let mut digests = Vec::new();
    let (mut misses, mut hits, mut coalesced) = (0u64, 0u64, 0u64);
    for _ in 0..DUPLICATES {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("responses drain");
        match response.outcome {
            ResponseOutcome::Done(result) => {
                digests.push(result.output.digest());
                match result.cache {
                    CacheOutcome::Miss => misses += 1,
                    CacheOutcome::Hit => hits += 1,
                    CacheOutcome::Coalesced => coalesced += 1,
                }
            }
            other => panic!("request did not complete: {other:?}"),
        }
    }
    let (stats, _) = service.shutdown();
    assert_eq!(misses, 1, "exactly one cold execution");
    assert_eq!(misses + hits + coalesced, DUPLICATES);
    assert!(
        coalesced >= 1,
        "duplicates submitted during a multi-ms accurate run must coalesce"
    );
    assert_eq!(stats.coalesced, coalesced);
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "shared result");
}

/// Admission control: cycle-accurate jobs beyond the in-flight cap
/// park in the bounded deferred queue; past that bound they are
/// rejected with `AccurateAdmissionFull` — while fast-path jobs keep
/// completing throughout.
#[test]
fn accurate_overflow_is_deferred_then_rejected_without_starving_fast_path() {
    let mut config = ServeConfig::new()
        .with_workers(2)
        .with_queue_capacity(64)
        .with_admission(1, 2);
    config.max_in_flight = 4;
    let service = StreamingService::start(config).expect("service starts");

    // 8 distinct slow accurate jobs: 1 runs, 2 defer, the rest must
    // be rejected as the deferred queue overflows.
    for i in 0..8u64 {
        service
            .submit(Request::accurate(random_conv_job(i, 7_000 + i)))
            .expect("accurate submit");
    }
    // Fast jobs submitted after the accurate flood must still finish.
    for i in 100..120u64 {
        service
            .submit(Request::fast(random_gemm_job(i, i)))
            .expect("fast submit");
    }

    let mut fast_done = 0;
    let mut accurate_done = 0;
    let mut rejected = 0;
    for _ in 0..28 {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("responses drain");
        match response.outcome {
            ResponseOutcome::Done(_) if response.class.fidelity == Fidelity::Fast => fast_done += 1,
            ResponseOutcome::Done(_) => accurate_done += 1,
            ResponseOutcome::Rejected(RejectReason::AccurateAdmissionFull) => rejected += 1,
            ResponseOutcome::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            ResponseOutcome::Failed(error) => panic!("unexpected failure: {error}"),
        }
    }
    let (stats, _) = service.shutdown();
    assert_eq!(fast_done, 20, "fast path must not starve");
    assert_eq!(accurate_done + rejected, 8);
    assert!(
        rejected >= 5,
        "deferred bound of 2 (+1 in flight) must reject the overflow, got {rejected}"
    );
    assert_eq!(stats.rejected, rejected);
    assert!(stats.max_deferred <= 2);
}

/// A kernel-rich conv the cost-aware planner shards across several
/// arrays (32 kernels = 4 groups on the small core).
fn wide_conv_job(id: u64, seed: u64) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = DataCube::from_fn(5, 5, 8, |_, _, _| rng.random_range(-128..=127));
    let kernels = KernelSet::from_fn(32, 3, 3, 8, |_, _, _, _| rng.random_range(-128..=127));
    Job::conv(
        id,
        format!("wide-{id}"),
        features,
        kernels,
        ConvParams::valid(),
    )
}

/// Co-scheduled serving is bit-identical to the all-arrays service on
/// mixed wide+narrow, mixed-fidelity traffic: the array-slot ledger
/// may grant each job fewer arrays, but every served output matches,
/// and the device account shows real packing (narrower grants than
/// the full core, non-trivial occupancy).
#[test]
fn co_scheduled_serving_is_bit_identical_to_all_arrays() {
    let run = |co: bool| {
        let mut config = ServeConfig::new()
            .with_engine(
                EngineConfig::new(BackendKind::FastFunctional)
                    .with_cores(
                        tempus::core::TempusConfig::nv_small(),
                        tempus::nvdla::config::NvdlaConfig::nv_small(),
                    )
                    .with_workers(2)
                    .with_arrays(4),
            )
            .with_admission(2, 8);
        if co {
            config = config.with_co_scheduling();
        }
        let service = StreamingService::start(config).expect("service starts");
        let mut submitted = 0u64;
        for i in 0..12u64 {
            let job = match i % 3 {
                0 => wide_conv_job(i, 9_000 + i),
                1 => random_conv_job(i, 9_100 + i),
                _ => random_gemm_job(i, 9_200 + i),
            };
            let request = if i % 4 == 0 {
                Request::accurate(job)
            } else {
                Request::fast(job)
            };
            service.submit(request).expect("submit");
            submitted += 1;
        }
        let mut digests = std::collections::BTreeMap::new();
        for _ in 0..submitted {
            let response = service
                .recv_response(Duration::from_secs(120))
                .expect("responses drain");
            match response.outcome {
                ResponseOutcome::Done(result) => {
                    if co {
                        assert!(result.arrays_granted >= 1 && result.arrays_granted <= 4);
                    } else {
                        assert_eq!(result.arrays_granted, 4, "all-arrays grants the core");
                    }
                    digests.insert(response.job_id, result.output.digest());
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let (stats, _) = service.shutdown();
        (digests, stats)
    };
    let (off_digests, off_stats) = run(false);
    let (on_digests, on_stats) = run(true);
    assert_eq!(
        off_digests, on_digests,
        "co-scheduling must not change any served output"
    );
    assert_eq!(off_stats.device.num_arrays, 4);
    assert!((off_stats.device.avg_arrays_granted() - 4.0).abs() < 1e-12);
    assert!(
        on_stats.device.avg_arrays_granted() < 4.0,
        "cost-aware grants must be narrower than the whole core"
    );
    assert!(on_stats.device.occupancy() > 0.0 && on_stats.device.occupancy() <= 1.0);
    // Wide convs really sharded: some class saw multi-array requests.
    assert!(
        on_stats.classes.iter().any(|c| c.arrays_granted > 1.0),
        "the wide convs should have been granted multiple arrays"
    );
}

/// All-arrays serving keeps its device account on the fleet ledger,
/// placed in dispatch order: three runs of one trace lay every
/// execution on the same device-cycle spans whatever order the
/// workers finish in, and the account is exactly the executed cycles
/// on both the functional and the Tempus backend.
#[test]
fn all_arrays_device_account_is_placed_at_dispatch() {
    let config = TraceConfig::new(24)
        .with_requests(40)
        .with_repeat_fraction(0.4);
    let trace = generate(&config.with_accurate_fraction(0.0));
    for (kind, fidelity) in [
        (BackendKind::FastFunctional, Fidelity::Fast),
        (BackendKind::TempusCycleAccurate, Fidelity::Accurate),
    ] {
        let run = || {
            let config = ServeConfig::new().with_workers(2).with_arrays(4);
            let service = StreamingService::start(config.with_admission(4, 64).with_tracing());
            let service = service.expect("service starts");
            for t in &trace {
                let request = Request {
                    fidelity,
                    ..Request::from_trace(t)
                };
                service.submit(request).expect("submit");
            }
            let (mut executed, mut served_cycles) = (Vec::new(), 0);
            for _ in 0..trace.len() {
                let response = service.recv_response(Duration::from_secs(120)).unwrap();
                let ResponseOutcome::Done(result) = response.outcome else {
                    panic!("request {} was not served", response.job_id);
                };
                if result.cache == CacheOutcome::Miss {
                    served_cycles += result.sim_cycles;
                    executed.push(Request::from_trace(&trace[response.job_id as usize]).job);
                }
            }
            let telemetry = service.telemetry();
            let (stats, _) = service.shutdown();
            let export = telemetry.export().expect("traced run exports");
            let mut spans: Vec<(u64, u64, u64)> = (export.events.iter())
                .filter(|e| e.kind == EventKind::Span)
                .filter(|e| export.tracks[e.track.0 as usize].clock == Clock::Device)
                .map(|e| (e.id, e.ts, e.dur))
                .collect();
            spans.sort_unstable();
            // Idle spans are the ledger's own gap record, one per gap.
            let idle = (export.events.iter())
                .filter(|e| e.kind == EventKind::Span && e.stage == Stage::ArrayIdle)
                .count() as u64;
            assert_eq!(idle, stats.device.idle_gap_count, "{kind:?}: idle spans");
            (spans, stats, executed, served_cycles)
        };
        let (spans, stats, executed, served_cycles) = run();
        assert!(
            !spans.is_empty() && executed.len() < trace.len(),
            "{kind:?}"
        );
        for _ in 0..2 {
            assert_eq!(run().0, spans, "{kind:?}: device spans must replay");
        }
        let (device, n) = (stats.device, executed.len() as u64);
        let account = (
            device.makespan_cycles,
            device.placements,
            device.granted_sum,
        );
        assert_eq!(account, (served_cycles, n, 4 * n), "{kind:?}");
        assert_eq!(device.level_residency[0], 4 * served_cycles);
        assert_eq!(stats.fleet.devices[0], device);
        // The batch engine folds the executed results through the same
        // whole-core ledger: the two accounts agree field for field.
        let engine = InferenceEngine::new(EngineConfig::new(kind).with_workers(2).with_arrays(4));
        let batch = engine.unwrap().run_batch(&executed).unwrap().aggregate;
        assert_eq!(device.busy_cycles, batch.total_array_cycles, "{kind:?}");
        assert_eq!(device, batch.device, "{kind:?}");
    }
}
