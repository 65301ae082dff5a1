//! Sharded multi-array equivalence: for random conv/GEMM jobs and
//! `num_arrays ∈ {1, 2, 3, 4, 8}`, sharded outputs AND summed
//! statistics must be bit-identical across all three backends to the
//! single-array engine, and the functional backend's closed-form
//! latency must reproduce the cycle-accurate sharded critical path
//! exactly. Golden digests for a pinned seed guard against silent
//! planner or merge drift.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tempus::core::gemm::{Matrix, TubGemm};
use tempus::core::schedule::ScheduleCache;
use tempus::core::{TempusConfig, TempusCore};
use tempus::models::netbuild;
use tempus::models::zoo::Model;
use tempus::nvdla::config::NvdlaConfig;
use tempus::nvdla::conv::ConvParams;
use tempus::nvdla::cube::{DataCube, KernelSet};
use tempus::nvdla::pipeline::ConvCore;
use tempus::runtime::{FunctionalBackend, InferenceBackend, Job, NvdlaBackend, TempusBackend};

const ARRAY_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

fn random_conv(seed: u64, w: usize, c: usize, k: usize, ksize: usize) -> (DataCube, KernelSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = DataCube::from_fn(w, w, c, |_, _, _| rng.random_range(-128..=127));
    let kernels = KernelSet::from_fn(k, ksize, ksize, c, |_, _, _, _| {
        rng.random_range(-128..=127)
    });
    (features, kernels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Tempus sharded engine is bit-identical to the single-array
    /// engine — outputs, merged `RunStats` and merged tub statistics —
    /// for every tested shard count, and the per-shard cycles sum to
    /// the single-array total.
    #[test]
    fn sharded_tempus_engine_matches_single_array(
        seed in any::<u64>(),
        w in 3usize..6,
        c in 1usize..34,
        k in 1usize..34,
        ksize in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let (features, kernels) = random_conv(seed, w, c, k, ksize);
        let params = ConvParams::valid();
        let mut single = TempusCore::new(TempusConfig::nv_small());
        let base = single.convolve(&features, &kernels, &params).unwrap();
        let base_tstats = single.last_tempus_stats();
        for arrays in ARRAY_COUNTS {
            let mut core = TempusCore::new(TempusConfig::nv_small());
            let run = core.convolve_sharded(&features, &kernels, &params, arrays).unwrap();
            prop_assert_eq!(&run.output, &base.output, "arrays={}", arrays);
            prop_assert_eq!(&run.stats, &base.stats, "arrays={}", arrays);
            prop_assert_eq!(core.last_tempus_stats(), base_tstats, "arrays={}", arrays);
            let per_shard = run.per_shard_cycles();
            prop_assert_eq!(per_shard.iter().sum::<u64>(), base.stats.cycles);
            prop_assert_eq!(
                run.critical_path_cycles,
                per_shard.iter().copied().max().unwrap() + run.reduction_cycles
            );
        }
    }

    /// The functional backend's closed-form sharded latency equals the
    /// cycle-accurate sharded critical path exactly, per shard, and
    /// both backends agree on outputs and shard accounting.
    #[test]
    fn functional_matches_cycle_accurate_sharding(
        seed in any::<u64>(),
        w in 3usize..6,
        c in 1usize..26,
        k in 1usize..26,
        ksize in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let (features, kernels) = random_conv(seed, w, c, k, ksize);
        let params = ConvParams::valid();
        let config = TempusConfig::nv_small();
        let mut cache = ScheduleCache::new();
        for arrays in ARRAY_COUNTS {
            let mut core = TempusCore::new(config);
            let run = core.convolve_sharded(&features, &kernels, &params, arrays).unwrap();
            let predicted = cache
                .predict_sharded(&features, &kernels, &params, &config, arrays)
                .unwrap();
            prop_assert_eq!(&predicted.plan, &run.plan, "arrays={}", arrays);
            prop_assert_eq!(&predicted.per_shard_cycles, &run.per_shard_cycles());
            prop_assert_eq!(predicted.critical_path_cycles, run.critical_path_cycles);
            prop_assert_eq!(predicted.reduction_cycles, run.reduction_cycles);
            prop_assert_eq!(predicted.total_array_cycles, run.stats.cycles);
        }
    }

    /// All three runtime backends agree under sharding: outputs
    /// bit-identical everywhere; Tempus and functional agree on the
    /// critical path, array-cycles, occupancy and balance bit-for-bit.
    #[test]
    fn all_three_backends_agree_on_sharded_convs(
        seed in any::<u64>(),
        w in 3usize..6,
        c in 1usize..20,
        k in 1usize..20,
    ) {
        let (features, kernels) = random_conv(seed, w, c, k, 3);
        let job = Job::conv(0, "conv", features, kernels, ConvParams::valid());
        for arrays in ARRAY_COUNTS {
            let mut tempus =
                TempusBackend::new(TempusConfig::nv_small(), (8, 8)).with_arrays(arrays);
            let mut fast =
                FunctionalBackend::new(TempusConfig::nv_small(), (8, 8)).with_arrays(arrays);
            let mut nvdla =
                NvdlaBackend::new(NvdlaConfig::nv_small(), (8, 8)).with_arrays(arrays);
            let t = tempus.execute(&job).unwrap();
            let f = fast.execute(&job).unwrap();
            let n = nvdla.execute(&job).unwrap();
            prop_assert_eq!(&t.output, &f.output, "arrays={}", arrays);
            prop_assert_eq!(&t.output, &n.output, "arrays={}", arrays);
            prop_assert_eq!(t.sim_cycles, f.sim_cycles, "arrays={}", arrays);
            prop_assert_eq!(t.total_array_cycles, f.total_array_cycles);
            prop_assert_eq!(t.shards, f.shards);
            prop_assert_eq!(t.shard_utilization.to_bits(), f.shard_utilization.to_bits());
        }
    }

    /// GEMM sharding: merged output and summed statistics bit-identical
    /// to the single-array engine, and the closed-form shard model
    /// exact.
    #[test]
    fn sharded_gemm_matches_single_array(
        seed in any::<u64>(),
        m in 1usize..20,
        n in 1usize..10,
        p in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, n, |_, _| rng.random_range(-128..=127));
        let b = Matrix::from_fn(n, p, |_, _| rng.random_range(-128..=127));
        let engine = TubGemm::new(4, 4, tempus::arith::IntPrecision::Int8);
        let single = engine.multiply(&a, &b).unwrap();
        for arrays in ARRAY_COUNTS {
            let run = engine.multiply_sharded(&a, &b, arrays).unwrap();
            prop_assert_eq!(&run.output, &single.output, "arrays={}", arrays);
            prop_assert_eq!(&run.stats, &single.stats, "arrays={}", arrays);
            let (plan, modelled) = engine.cost_profile(&a, &b).at(arrays);
            prop_assert_eq!(&plan, &run.plan);
            prop_assert_eq!(&modelled, &run.per_shard_cycles);
        }
    }
}

/// The NVDLA baseline under sharding: outputs bit-identical; the
/// merged cycle sum relates to the single-array run by the exact
/// pinned identity `single + (used - 1) × pipeline_depth` (each array
/// drains its own pipeline), with every other work counter equal.
#[test]
fn nvdla_sharded_statistics_relate_exactly() {
    let cfg = NvdlaConfig::nv_small();
    for (seed, c, k) in [(1u64, 24usize, 8usize), (2, 8, 24), (3, 17, 19)] {
        let (features, kernels) = random_conv(seed, 5, c, k, 3);
        let params = ConvParams::valid();
        let mut single = tempus::nvdla::pipeline::NvdlaConvCore::new(cfg);
        let base = single.convolve(&features, &kernels, &params).unwrap();
        for arrays in ARRAY_COUNTS {
            let mut core = tempus::nvdla::pipeline::NvdlaConvCore::new(cfg);
            let run = tempus::core::shard::convolve_sharded_with(
                &mut core,
                &features,
                &kernels,
                &params,
                arrays,
                |_| {},
            )
            .unwrap();
            assert_eq!(run.output, base.output, "arrays={arrays}");
            let used = run.plan.used_arrays() as u64;
            assert_eq!(
                run.stats.cycles,
                base.stats.cycles + (used - 1) * u64::from(cfg.cmac_pipeline_depth),
                "arrays={arrays}"
            );
            assert_eq!(run.stats.atomic_ops, base.stats.atomic_ops);
            assert_eq!(run.stats.stripes, base.stats.stripes);
            assert_eq!(run.stats.macs, base.stats.macs);
            assert_eq!(run.stats.gated_cell_cycles, base.stats.gated_cell_cycles);
            assert_eq!(run.stats.cbuf_reads, base.stats.cbuf_reads);
        }
    }
}

/// Whole-network jobs shard per layer; the three backends agree on
/// outputs and the two Tempus-latency backends agree on the summed
/// critical path.
#[test]
fn network_jobs_shard_equivalently() {
    let layers = netbuild::network_prefix(
        Model::ResNet18,
        tempus::arith::IntPrecision::Int8,
        9,
        200_000,
        2,
        64,
    );
    assert!(!layers.is_empty(), "resnet prefix exists");
    let channels = netbuild::input_channels(&layers).unwrap();
    let input = netbuild::input_cube(6, 6, channels, tempus::arith::IntPrecision::Int8, 7);
    let job = Job::network(0, "net", input, layers);
    let mut singles: Option<(u64, u64)> = None;
    for arrays in [1usize, 2, 4] {
        let mut tempus_b = TempusBackend::new(TempusConfig::nv_small(), (8, 8)).with_arrays(arrays);
        let mut fast = FunctionalBackend::new(TempusConfig::nv_small(), (8, 8)).with_arrays(arrays);
        let mut nvdla = NvdlaBackend::new(NvdlaConfig::nv_small(), (8, 8)).with_arrays(arrays);
        let t = tempus_b.execute(&job).unwrap();
        let f = fast.execute(&job).unwrap();
        let n = nvdla.execute(&job).unwrap();
        assert_eq!(t.output, f.output, "arrays={arrays}");
        assert_eq!(t.output, n.output, "arrays={arrays}");
        assert_eq!(t.sim_cycles, f.sim_cycles, "arrays={arrays}");
        assert_eq!(t.total_array_cycles, f.total_array_cycles);
        assert_eq!(t.shards, f.shards);
        match singles {
            None => singles = Some((t.sim_cycles, t.output.digest())),
            Some((single_cycles, digest)) => {
                assert_eq!(
                    t.output.digest(),
                    digest,
                    "outputs invariant in array count"
                );
                assert!(
                    t.sim_cycles < single_cycles,
                    "arrays={arrays}: sharding must cut the critical path"
                );
            }
        }
    }
}

/// Golden digests for a pinned seed: the planner, merge order and
/// latency model must stay exactly what they are today. If an
/// intentional change breaks these, re-pin after verifying the
/// equivalence properties above still pass.
#[test]
fn golden_sharded_digests_for_pinned_seed() {
    let (features, kernels) = random_conv(0xC0FFEE, 5, 19, 24, 3);
    let params = ConvParams::valid();
    let mut rows = Vec::new();
    for arrays in [1usize, 2, 4, 8] {
        let mut core = TempusCore::new(TempusConfig::nv_small());
        let run = core
            .convolve_sharded(&features, &kernels, &params, arrays)
            .unwrap();
        rows.push((
            arrays,
            run.output.content_hash(),
            run.critical_path_cycles,
            run.reduction_cycles,
            run.plan.used_arrays(),
        ));
    }
    // Outputs identical at every count; cycles strictly improving up
    // to the group limit.
    let digest = rows[0].1;
    assert!(rows.iter().all(|r| r.1 == digest));
    let expected: [(usize, u64, u64, usize); 4] = GOLDEN;
    for ((arrays, d, critical, reduction, used), (e_arrays, e_critical, e_reduction, e_used)) in
        rows.iter().zip(expected.iter())
    {
        assert_eq!(arrays, e_arrays, "row order");
        assert_eq!(*d, digest);
        assert_eq!(
            (*critical, *reduction, *used),
            (*e_critical, *e_reduction, *e_used),
            "arrays={arrays}: pinned critical path drifted"
        );
    }
    assert_eq!(digest, GOLDEN_DIGEST, "pinned output digest drifted");
}

/// Pinned `(arrays, critical_path_cycles, reduction_cycles, used)`:
/// 24 kernels = 3 kernel groups on `nv_small`, so 4 and 8 requested
/// arrays both settle on a 3-way kernel split.
const GOLDEN: [(usize, u64, u64, usize); 4] = [
    (1, 47232, 0, 1),
    (2, 31473, 0, 2),
    (4, 15759, 0, 3),
    (8, 15759, 0, 3),
];
/// Pinned output digest for the 0xC0FFEE case.
const GOLDEN_DIGEST: u64 = 0x5136_4139_BD24_63EC;
