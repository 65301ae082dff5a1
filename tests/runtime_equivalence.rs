//! Runtime equivalence: the fast functional backend must produce
//! bit-identical outputs and *identical* closed-form latency to the
//! cycle-accurate Tempus Core, across random conv shapes, GEMM shapes
//! and model-zoo layers — and all three backends must agree on outputs
//! for large mixed batches (the engine's serving contract).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tempus::arith::IntPrecision;
use tempus::core::gemm::Matrix;
use tempus::core::TempusConfig;
use tempus::models::netbuild;
use tempus::models::zoo::Model;
use tempus::nvdla::config::NvdlaConfig;
use tempus::nvdla::conv::ConvParams;
use tempus::nvdla::cube::{DataCube, KernelSet};
use tempus::runtime::{
    BackendKind, EngineConfig, FunctionalBackend, InferenceBackend, InferenceEngine, Job,
    TempusBackend,
};

fn random_conv_job(
    id: u64,
    seed: u64,
    w: usize,
    h: usize,
    c: usize,
    k: usize,
    ksize: usize,
) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = DataCube::from_fn(w, h, c, |_, _, _| rng.random_range(-128..=127));
    let kernels = KernelSet::from_fn(k, ksize, ksize, c, |_, _, _, _| {
        rng.random_range(-128..=127)
    });
    Job::conv(
        id,
        format!("conv-{id}"),
        features,
        kernels,
        ConvParams::valid(),
    )
}

fn random_gemm_job(id: u64, seed: u64, m: usize, n: usize, p: usize) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::from_fn(m, n, |_, _| rng.random_range(-128..=127));
    let b = Matrix::from_fn(n, p, |_, _| rng.random_range(-128..=127));
    Job::gemm(id, format!("gemm-{id}"), a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn functional_equals_cycle_accurate_on_random_convs(
        seed in any::<u64>(),
        w in 3usize..7,
        h in 3usize..7,
        c in 1usize..10,
        k in 1usize..10,
        ksize in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let job = random_conv_job(0, seed, w, h, c, k, ksize);
        let mut accurate = TempusBackend::new(TempusConfig::nv_small(), (8, 8));
        let mut fast = FunctionalBackend::new(TempusConfig::nv_small(), (8, 8));
        let a = accurate.execute(&job).unwrap();
        let f = fast.execute(&job).unwrap();
        prop_assert_eq!(&a.output, &f.output);
        prop_assert_eq!(a.sim_cycles, f.sim_cycles);
    }

    #[test]
    fn functional_equals_cycle_accurate_on_random_gemms(
        seed in any::<u64>(),
        m in 1usize..12,
        n in 1usize..12,
        p in 1usize..12,
    ) {
        let job = random_gemm_job(0, seed, m, n, p);
        let mut accurate = TempusBackend::new(TempusConfig::nv_small(), (4, 4));
        let mut fast = FunctionalBackend::new(TempusConfig::nv_small(), (4, 4));
        let a = accurate.execute(&job).unwrap();
        let f = fast.execute(&job).unwrap();
        prop_assert_eq!(&a.output, &f.output);
        prop_assert_eq!(a.sim_cycles, f.sim_cycles);
    }
}

#[test]
fn functional_equals_cycle_accurate_on_model_zoo_layers() {
    // Whole-network jobs built from the zoo's quantized weights: the
    // functional path must track the cycle-accurate path through SDP
    // requantization chains, layer by layer.
    for (model, seed) in [(Model::ResNet18, 7u64), (Model::GoogleNet, 8u64)] {
        let layers = netbuild::network_prefix(model, IntPrecision::Int8, seed, 500_000, 2, 64);
        assert!(!layers.is_empty(), "{model:?} yields a dense prefix");
        let channels = netbuild::input_channels(&layers).unwrap();
        let input = netbuild::input_cube(6, 6, channels, IntPrecision::Int8, seed);
        let job = Job::network(0, format!("{model:?}"), input, layers);

        let mut accurate = TempusBackend::new(TempusConfig::paper_16x16(), (16, 16));
        let mut fast = FunctionalBackend::new(TempusConfig::paper_16x16(), (16, 16));
        let a = accurate.execute(&job).unwrap();
        let f = fast.execute(&job).unwrap();
        assert_eq!(a.output, f.output, "{model:?} outputs");
        assert_eq!(a.sim_cycles, f.sim_cycles, "{model:?} cycles");
    }
}

/// The engine's serving contract (acceptance criterion): a batch of
/// 100+ mixed conv/GEMM/network jobs across 4+ workers produces
/// bit-identical results on all three backends.
#[test]
fn mixed_batch_bit_identical_across_all_three_backends() {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for round in 0..49u64 {
        jobs.push(random_conv_job(
            id,
            1000 + round,
            4 + (round % 3) as usize,
            4,
            4,
            4,
            3,
        ));
        id += 1;
        jobs.push(random_gemm_job(
            id,
            2000 + round,
            5,
            4 + (round % 4) as usize,
            6,
        ));
        id += 1;
        if round % 10 == 0 {
            let layers = netbuild::network_prefix(
                Model::ResNet18,
                IntPrecision::Int8,
                round,
                200_000,
                1,
                64,
            );
            let channels = netbuild::input_channels(&layers).unwrap();
            let input = netbuild::input_cube(5, 5, channels, IntPrecision::Int8, round);
            jobs.push(Job::network(id, format!("net-{round}"), input, layers));
            id += 1;
        }
    }
    assert!(jobs.len() >= 100, "batch has {} jobs", jobs.len());

    let mut digests = Vec::new();
    let mut tempus_cycles = None;
    for kind in BackendKind::ALL {
        let engine = InferenceEngine::new(
            EngineConfig::new(kind)
                .with_workers(4)
                .with_cores(TempusConfig::nv_small(), NvdlaConfig::nv_small()),
        )
        .unwrap();
        let report = engine.run_batch(&jobs).unwrap();
        assert_eq!(report.aggregate.jobs, jobs.len() as u64);
        assert_eq!(report.workers.len(), 4);
        assert!(
            report.workers.iter().all(|w| w.jobs > 0),
            "all four workers must execute jobs"
        );
        digests.push(report.output_digest());
        match kind {
            BackendKind::TempusCycleAccurate => {
                tempus_cycles = Some(report.aggregate.total_sim_cycles);
            }
            BackendKind::FastFunctional => {
                assert_eq!(
                    Some(report.aggregate.total_sim_cycles),
                    tempus_cycles,
                    "functional cycles must equal cycle-accurate tempus cycles"
                );
                let cache = report.aggregate.schedule_cache.expect("functional caches");
                assert!(cache.latency_hits + cache.latency_misses > 0);
            }
            BackendKind::NvdlaCycleAccurate => {}
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "all three backends must produce bit-identical batches: {digests:?}"
    );
}

#[test]
fn schedule_cache_pays_off_across_repeated_layers() {
    // Same layer shape + weights repeated across a batch: the
    // per-worker latency memo must serve all repeats after the first.
    let template = random_conv_job(0, 99, 6, 6, 8, 8, 3);
    let jobs: Vec<Job> = (0..12)
        .map(|i| {
            let mut j = template.clone();
            j.id = i;
            j
        })
        .collect();
    let engine =
        InferenceEngine::new(EngineConfig::new(BackendKind::FastFunctional).with_workers(1))
            .unwrap();
    let report = engine.run_batch(&jobs).unwrap();
    let cache = report.aggregate.schedule_cache.unwrap();
    assert_eq!(cache.latency_misses, 1);
    assert_eq!(cache.latency_hits, 11);
}
