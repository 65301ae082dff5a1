//! Array-slot scheduling equivalence: a job granted `g` arrays by the
//! co-scheduler is **bit-identical** — outputs, cycles, shard
//! accounting — to PR 4's path configured with `g` arrays, across all
//! three backends; batch-level digests are invariant to the granting
//! policy; and pinned goldens freeze the budget planner's width
//! decisions and the ledger's packing for a fixed seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tempus::core::shard::WidenPolicy;
use tempus::core::TempusConfig;
use tempus::nvdla::config::NvdlaConfig;
use tempus::nvdla::conv::ConvParams;
use tempus::nvdla::cube::{DataCube, KernelSet};
use tempus::runtime::{
    ArrayLedger, ArrayPlanner, BackendKind, EngineConfig, FunctionalBackend, InferenceBackend,
    InferenceEngine, Job, NvdlaBackend, TempusBackend,
};

fn random_conv_job(seed: u64, w: usize, c: usize, k: usize) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = DataCube::from_fn(w, w, c, |_, _, _| rng.random_range(-128..=127));
    let kernels = KernelSet::from_fn(k, 3, 3, c, |_, _, _, _| rng.random_range(-128..=127));
    Job::conv(0, "conv", features, kernels, ConvParams::valid())
}

fn random_gemm_job(seed: u64, m: usize, n: usize, p: usize) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = tempus::core::gemm::Matrix::from_fn(m, n, |_, _| rng.random_range(-128..=127));
    let b = tempus::core::gemm::Matrix::from_fn(n, p, |_, _| rng.random_range(-128..=127));
    Job::gemm(0, "gemm", a, b)
}

/// `execute_on(job, g)` on a backend configured for `configured`
/// arrays must be bit-identical to `execute(job)` on a backend
/// configured for `g` arrays — the contract that makes a granted
/// width fully determine the result, for every backend.
fn assert_grant_equivalence(job: &Job, configured: usize) {
    for granted in 1..=configured {
        let runs = [
            (
                TempusBackend::new(TempusConfig::nv_small(), (8, 8))
                    .with_arrays(configured)
                    .execute_on(job, granted)
                    .unwrap(),
                TempusBackend::new(TempusConfig::nv_small(), (8, 8))
                    .with_arrays(granted)
                    .execute(job)
                    .unwrap(),
            ),
            (
                FunctionalBackend::new(TempusConfig::nv_small(), (8, 8))
                    .with_arrays(configured)
                    .execute_on(job, granted)
                    .unwrap(),
                FunctionalBackend::new(TempusConfig::nv_small(), (8, 8))
                    .with_arrays(granted)
                    .execute(job)
                    .unwrap(),
            ),
            (
                NvdlaBackend::new(NvdlaConfig::nv_small(), (8, 8))
                    .with_arrays(configured)
                    .execute_on(job, granted)
                    .unwrap(),
                NvdlaBackend::new(NvdlaConfig::nv_small(), (8, 8))
                    .with_arrays(granted)
                    .execute(job)
                    .unwrap(),
            ),
        ];
        for (on, full) in runs {
            assert_eq!(on.output, full.output, "granted={granted}");
            assert_eq!(on.sim_cycles, full.sim_cycles, "granted={granted}");
            assert_eq!(
                on.total_array_cycles, full.total_array_cycles,
                "granted={granted}"
            );
            assert_eq!(on.shards, full.shards, "granted={granted}");
            assert_eq!(
                on.shard_utilization.to_bits(),
                full.shard_utilization.to_bits(),
                "granted={granted}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The grant-equivalence contract over random conv shapes
    /// (kernel-rich, channel-rich and tiny cases all land here).
    #[test]
    fn granted_convs_match_configured_backends(
        seed in any::<u64>(),
        w in 3usize..6,
        c in 1usize..24,
        k in 1usize..24,
    ) {
        assert_grant_equivalence(&random_conv_job(seed, w, c, k), 4);
    }

    /// The same contract over random GEMM shapes.
    #[test]
    fn granted_gemms_match_configured_backends(
        seed in any::<u64>(),
        m in 1usize..18,
        n in 1usize..8,
        p in 1usize..18,
    ) {
        assert_grant_equivalence(&random_gemm_job(seed, m, n, p), 4);
    }
}

fn mixed_batch(n: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                // Kernel-rich: the budget planner widens these.
                Job {
                    id: i,
                    ..random_conv_job(i ^ 0xA5, 5, 8, 32)
                }
            } else if i % 3 == 1 {
                Job {
                    id: i,
                    ..random_conv_job(i ^ 0x5A, 5, 6, 4)
                }
            } else {
                Job {
                    id: i,
                    ..random_gemm_job(i ^ 0x3C, 9, 6, 9)
                }
            }
        })
        .collect()
}

/// Batch digests are invariant to the array-granting policy: the
/// cost-aware co-scheduler may grant each job fewer arrays, but every
/// output stays bit-identical to the all-arrays run (and to the
/// single-array engine, by PR 4's theorem).
#[test]
fn batch_digests_are_policy_invariant() {
    let jobs = mixed_batch(18);
    let base = EngineConfig::new(BackendKind::FastFunctional)
        .with_cores(TempusConfig::nv_small(), NvdlaConfig::nv_small())
        .with_workers(3)
        .with_arrays(8);
    let all = InferenceEngine::new(base.clone()).unwrap();
    let co = InferenceEngine::new(base.with_co_scheduling()).unwrap();
    let all_report = all.run_batch(&jobs).unwrap();
    let co_report = co.run_batch(&jobs).unwrap();
    assert_eq!(all_report.output_digest(), co_report.output_digest());
    // Determinism: the co-scheduled batch reproduces itself exactly.
    let co_again = co.run_batch(&jobs).unwrap();
    assert_eq!(co_report.output_digest(), co_again.output_digest());
    assert_eq!(co_report.aggregate.device, co_again.aggregate.device);
    // The packed device finishes the batch no later than the
    // whole-core account, and grants stay within the pool.
    assert!(
        co_report.aggregate.device.makespan_cycles <= all_report.aggregate.device.makespan_cycles
    );
    assert!(co_report.aggregate.device.avg_arrays_granted() <= 8.0);
    for r in &co_report.results {
        assert!(r.arrays_granted >= 1 && r.arrays_granted <= 8);
        assert!(r.arrays_granted <= r.arrays_requested || r.arrays_requested == 0);
        assert!(r.shards <= r.arrays_granted);
    }
    // All-arrays results keep PR 4 semantics: full-width grants, no
    // array waits.
    for r in &all_report.results {
        assert_eq!(r.arrays_granted, 8);
        assert_eq!(r.array_wait_cycles, 0);
    }
}

/// Golden widths and packing for a pinned seed: the budget planner's
/// chosen widths and the ledger's makespan must stay exactly what
/// they are today. If an intentional policy change breaks this,
/// re-pin after verifying the equivalence properties above still
/// pass.
#[test]
fn golden_budget_plans_and_packing_for_pinned_seed() {
    let config = EngineConfig::new(BackendKind::FastFunctional)
        .with_cores(TempusConfig::nv_small(), NvdlaConfig::nv_small())
        .with_arrays(8);
    let mut planner = ArrayPlanner::new(&config, WidenPolicy::edge_default());
    let mut ledger = ArrayLedger::new(8);
    let jobs = [
        random_conv_job(0xC0FFEE, 5, 8, 32), // 4 kernel groups: wide
        random_gemm_job(0xC0FFEE, 9, 6, 9),  // small grid: narrow
        random_conv_job(0xC0FFEE, 5, 6, 4),  // single group: narrow
        random_conv_job(0xC0FFEE ^ 1, 5, 8, 32),
    ];
    let mut rows = Vec::new();
    for job in &jobs {
        let plan = planner.plan(job).unwrap();
        let placement = ledger.place(&plan, 0);
        rows.push((
            plan.arrays,
            plan.critical_path_cycles,
            placement.assignment.granted,
            placement.start_cycle,
        ));
    }
    assert_eq!(rows, GOLDEN_PLACEMENTS, "planner or ledger drifted");
    let summary = ledger.summary();
    assert_eq!(summary.makespan_cycles, GOLDEN_MAKESPAN);
    assert_eq!(summary.wait_cycles, GOLDEN_WAIT);
}

/// Pinned `(requested, critical_path, granted, start)` per placement:
/// the two wide convs (4 kernel groups) widen to 4 arrays; the
/// second one finds only 2 arrays idle and *waits* to gather 4 at
/// cycle 5148 because finishing gathered (5148 + 5337) beats
/// finishing shrunk on the idle pair (0 + ~10674).
const GOLDEN_PLACEMENTS: [(usize, u64, usize, u64); 4] = [
    (4, 5319, 4, 0),
    (1, 338, 1, 0),
    (1, 5148, 1, 0),
    (4, 5337, 4, 5148),
];
/// Pinned device makespan after the four placements.
const GOLDEN_MAKESPAN: u64 = 10485;
/// Pinned total gather-wait cycles (the second wide conv's gather).
const GOLDEN_WAIT: u64 = 5148;
