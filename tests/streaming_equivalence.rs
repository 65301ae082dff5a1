//! One execution path per payload: every backend stages GEMMs through
//! the same stream plan (the deepest window fitting the scratch budget,
//! the whole operand without one) and fuses network layers per output
//! row. The Tempus backend observes its scratch arena; the functional
//! and NVDLA backends report the same figure in closed form. These
//! tests pin that contract across every backend, width and budget, the
//! streamed engine's bit-identity at every tile depth, the
//! materialized network oracle, and the serving layer's scratch-budget
//! admission.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tempus::arith::IntPrecision;
use tempus::core::gemm::{Matrix, TubGemm};
use tempus::core::streaming::StreamPlan;
use tempus::models::netbuild;
use tempus::models::transformer::{projection_gemm, ProjectionKind, TransformerShape};
use tempus::models::zoo::Model;
use tempus::nvdla::config::NvdlaConfig;
use tempus::nvdla::conv::ConvParams;
use tempus::nvdla::cube::{DataCube, KernelSet};
use tempus::nvdla::fused::fused_layer_scratch;
use tempus::nvdla::network::{run_network, NetworkLayer};
use tempus::nvdla::pdp::PoolParams;
use tempus::nvdla::pipeline::NvdlaConvCore;
use tempus::runtime::{BackendKind, EngineConfig, InferenceEngine, Job, JobOutput, JobPayload};
use tempus::serve::{
    Fidelity, RejectReason, Request, ResponseOutcome, ServeConfig, StreamingService,
};

/// The tile depths the contract names: a one-step window, an odd
/// depth, an exact divisor of the inner dimension, and the whole
/// operand in one window.
fn tile_depths(n: usize) -> Vec<usize> {
    let divisor = (1..=n / 2)
        .rev()
        .find(|&d| n.is_multiple_of(d))
        .unwrap_or(1);
    let mut depths = vec![1, 3, divisor, n];
    depths.retain(|&d| d >= 1 && d <= n.max(1));
    depths.sort_unstable();
    depths.dedup();
    depths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Core contract: for random shapes and every named tile depth,
    /// the streamed cycle-accurate run matches the whole-operand run
    /// in output AND statistics, the output equals the golden
    /// product, and the observed arena high-water mark equals the
    /// closed-form prediction.
    #[test]
    fn streamed_gemm_bit_identical_across_tile_depths(
        seed in any::<u64>(),
        m in 1usize..12,
        n in 1usize..12,
        p in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, n, |_, _| rng.random_range(-128..=127));
        let b = Matrix::from_fn(n, p, |_, _| rng.random_range(-128..=127));
        let engine = TubGemm::new(4, 4, IntPrecision::Int8);
        let materialized = engine.multiply(&a, &b).unwrap();
        let golden = a.multiply(&b).unwrap();
        prop_assert_eq!(&materialized.output, &golden);
        for tile_k in tile_depths(n) {
            let plan = StreamPlan::new(tile_k);
            let streamed = engine.multiply_streamed(&a, &b, &plan).unwrap();
            prop_assert_eq!(&streamed.output, &materialized.output, "tile_k={}", tile_k);
            prop_assert_eq!(streamed.stats, materialized.stats, "tile_k={}", tile_k);
            prop_assert_eq!(
                streamed.stream.peak_scratch_elems,
                plan.peak_scratch_elems(&engine, m, n, p)
            );
        }
    }
}

/// A two-layer pooled network small enough for the cycle-accurate
/// backends in a debug build.
fn pooled_network(id: u64) -> Job {
    let input = DataCube::from_fn(6, 6, 4, |x, y, c| {
        ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7) % 255) - 127
    });
    let k1 = KernelSet::from_fn(8, 3, 3, 4, |k, r, s, c| {
        ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11) % 255) - 127
    });
    let k2 = KernelSet::from_fn(4, 3, 3, 8, |k, r, s, c| {
        ((k as i32 * 7 + r as i32 * 3 + s as i32 * 5 + c as i32) % 255) - 127
    });
    let layers = vec![
        NetworkLayer::conv_relu(
            "l1",
            k1,
            ConvParams::unit_stride_same(3),
            6,
            IntPrecision::Int8,
        ),
        NetworkLayer::conv_relu(
            "l2",
            k2,
            ConvParams::unit_stride_same(3),
            6,
            IntPrecision::Int8,
        )
        .with_pool(PoolParams::max(2)),
    ];
    Job::network(id, "pooled-net", input, layers)
}

/// Random GEMMs, transformer projections, a zoo network prefix and a
/// pooled two-layer network.
fn mixed_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for round in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(500 + round);
        let (m, n, p) = (
            rng.random_range(2usize..=10),
            rng.random_range(2usize..=10),
            rng.random_range(2usize..=10),
        );
        let a = Matrix::from_fn(m, n, |_, _| rng.random_range(-128..=127));
        let b = Matrix::from_fn(n, p, |_, _| rng.random_range(-128..=127));
        jobs.push(Job::gemm(id, format!("gemm-{id}"), a, b));
        id += 1;
    }
    let shape = TransformerShape::new(4, 16);
    for (i, &kind) in ProjectionKind::ALL.iter().enumerate() {
        let (a, b) = projection_gemm(&shape, kind, IntPrecision::Int8, 600 + i as u64);
        jobs.push(Job::gemm(id, format!("tf-{}", kind.name()), a, b));
        id += 1;
    }
    let layers = netbuild::network_prefix(Model::ResNet18, IntPrecision::Int8, 9, 200_000, 1, 64);
    let channels = netbuild::input_channels(&layers).unwrap();
    let input = netbuild::input_cube(5, 5, channels, IntPrecision::Int8, 9);
    jobs.push(Job::network(id, "net".to_string(), input, layers));
    jobs.push(pooled_network(id + 1));
    jobs
}

/// The materialized oracle for a network job: the output of
/// [`run_network`] and the widest fused ring, derived from the conv
/// output width of every layer.
fn network_oracle(input: &DataCube, layers: &[NetworkLayer]) -> (DataCube, u64) {
    let run = run_network(
        &mut NvdlaConvCore::new(NvdlaConfig::paper_16x16()),
        input,
        layers,
    )
    .unwrap();
    let (mut w, mut h) = (input.w(), input.h());
    let mut scratch = 0u64;
    for (layer, trace) in layers.iter().zip(&run.layers) {
        let (conv_w, _) = layer
            .conv
            .output_dims(w, h, layer.kernels.r(), layer.kernels.s())
            .unwrap();
        scratch = scratch.max(fused_layer_scratch(
            conv_w,
            layer.kernels.k(),
            layer.pool.as_ref(),
        ));
        (w, h) = (trace.output_shape.0, trace.output_shape.1);
    }
    (run.output, scratch)
}

/// Backend contract at widths {1, 3}, with no budget, a roomy budget
/// and the sub-floor budget 8:
/// (a) the three backends agree on outputs, and Tempus agrees with
///     Functional on cycles and shard fields;
/// (b) the GEMM scratch the functional and NVDLA backends model equals
///     the Tempus arena's observed high-water mark;
/// (c) network scratch agrees across backends and equals the widest
///     fused ring;
/// (d) every network output equals the materialized oracle.
#[test]
fn streamed_batches_bit_identical_across_all_three_backends() {
    let jobs = mixed_jobs();
    let mut digests = Vec::new();
    for arrays in [1usize, 3] {
        for budget in [None, Some(96), Some(8)] {
            let [tempus, nvdla, functional] = BackendKind::ALL.map(|kind| {
                InferenceEngine::new(EngineConfig {
                    scratch_budget_elems: budget,
                    ..EngineConfig::new(kind).with_workers(2).with_arrays(arrays)
                })
                .unwrap()
                .run_batch(&jobs)
                .unwrap()
            });
            for report in [&tempus, &nvdla, &functional] {
                digests.push(report.output_digest());
            }
            let rows = tempus
                .results
                .iter()
                .zip(&nvdla.results)
                .zip(&functional.results)
                .zip(&jobs);
            for (((t, n), f), job) in rows {
                let tag = format!("{} arrays={arrays} budget={budget:?}", job.name);
                assert_eq!(t.output, n.output, "{tag}");
                assert_eq!(t.output, f.output, "{tag}");
                assert_eq!(t.sim_cycles, f.sim_cycles, "{tag}");
                assert_eq!(t.total_array_cycles, f.total_array_cycles, "{tag}");
                assert_eq!(t.shards, f.shards, "{tag}");
                assert_eq!(
                    t.shard_utilization.to_bits(),
                    f.shard_utilization.to_bits(),
                    "{tag}"
                );
                assert!(t.peak_scratch_elems > 0, "{tag}");
                assert_eq!(n.peak_scratch_elems, t.peak_scratch_elems, "{tag}");
                assert_eq!(f.peak_scratch_elems, t.peak_scratch_elems, "{tag}");
                match &job.payload {
                    JobPayload::Gemm { a, b } => {
                        let engine = TubGemm::new(16, 16, IntPrecision::Int8);
                        let (m, k, p) = (a.rows(), a.cols(), b.cols());
                        let floor = StreamPlan::min_scratch_elems(&engine, m, k, p);
                        match budget {
                            Some(budget) if budget >= floor => {
                                assert!(t.peak_scratch_elems <= budget, "{tag}");
                            }
                            Some(_) => assert_eq!(t.peak_scratch_elems, floor, "{tag}"),
                            None => assert_eq!(
                                t.peak_scratch_elems,
                                StreamPlan::new(k).peak_scratch_elems(&engine, m, k, p),
                                "{tag}"
                            ),
                        }
                    }
                    JobPayload::Network { input, layers } => {
                        let (output, scratch) = network_oracle(input, layers);
                        assert_eq!(t.output, JobOutput::Cube(output), "{tag}");
                        assert_eq!(t.peak_scratch_elems, scratch, "{tag}");
                    }
                    JobPayload::Conv { .. } => unreachable!("no conv jobs in the batch"),
                }
            }
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "backends, widths or budgets disagree on the batch: {digests:?}"
    );
}

/// Pinned-seed transformer golden: the trace-scale block projections
/// at seed 7, streamed under a quarter-operand budget, must keep
/// producing these exact outputs (and match the materialized engine
/// in output and statistics).
#[test]
fn transformer_projection_streamed_golden() {
    let shape = TransformerShape::trace_default();
    let engine = TubGemm::new(16, 16, IntPrecision::Int8);
    let expected: [(ProjectionKind, u64); 3] = [
        (ProjectionKind::Attention, 0xd4b7_d390_e5ba_0b27),
        (ProjectionKind::MlpUp, 0x3f58_d1d6_d0aa_9b3e),
        (ProjectionKind::MlpDown, 0x865f_15ca_3a44_d756),
    ];
    for (kind, expected_hash) in expected {
        let (a, b) = projection_gemm(&shape, kind, IntPrecision::Int8, 7);
        let (m, n, p) = shape.dims(kind);
        let budget = ((m * n + n * p) / 4) as u64;
        let plan = StreamPlan::for_budget(&engine, m, n, p, budget)
            .expect("quarter-operand budget admits a plan");
        let streamed = engine.multiply_streamed(&a, &b, &plan).unwrap();
        let materialized = engine.multiply(&a, &b).unwrap();
        assert_eq!(streamed.output, materialized.output, "{}", kind.name());
        assert_eq!(streamed.stats, materialized.stats, "{}", kind.name());
        assert!(
            streamed.stream.peak_scratch_elems <= budget,
            "{}",
            kind.name()
        );
        assert_eq!(
            streamed.output.content_hash(),
            expected_hash,
            "{} drifted from the pinned golden",
            kind.name()
        );
    }
}

/// Serving contract: every response carries its execution's scratch,
/// a budget that admits the plan answers bit-identically to no budget
/// within it, and a scratch budget below a job's smallest plan
/// rejects it at admission instead of running it.
#[test]
fn serve_streams_with_scratch_accounting_and_budget_rejection() {
    let shape = TransformerShape::new(8, 32);
    let requests: Vec<Job> = (0..4u64)
        .map(|i| {
            let (a, b) = projection_gemm(
                &shape,
                ProjectionKind::Attention,
                IntPrecision::Int8,
                40 + i,
            );
            Job::gemm(i, format!("tf-{i}"), a, b)
        })
        .collect();
    let run = |config: ServeConfig| {
        let service = StreamingService::start(config).expect("service starts");
        let mut outcomes = Vec::new();
        for job in requests.iter().cloned() {
            service
                .submit(Request {
                    job,
                    fidelity: Fidelity::Fast,
                    deadline_cycles: None,
                })
                .expect("submit");
            let response = service
                .recv_response(Duration::from_secs(60))
                .expect("response arrives");
            outcomes.push((response.job_id, response.outcome));
        }
        let (stats, _) = service.shutdown();
        (outcomes, stats)
    };

    let (unbounded, stats) = run(ServeConfig::new().with_workers(2));
    assert_eq!(stats.completed, 4);
    assert!(stats.peak_scratch_elems > 0);
    assert_eq!(stats.rejected_scratch, 0);

    // A budget below the 8x32x32 projection's one-step floor: the job
    // must be rejected at admission, never executed.
    let (rejected, tight_stats) = run(ServeConfig::new().with_workers(1).with_scratch_budget(8));
    assert_eq!(tight_stats.rejected_scratch, 4);
    assert_eq!(tight_stats.completed, 0);
    for (id, outcome) in rejected {
        match outcome {
            ResponseOutcome::Rejected(RejectReason::ScratchBudgetExceeded {
                required_elems,
                budget_elems,
            }) => {
                assert!(required_elems > budget_elems, "job {id} floor vs budget");
                assert_eq!(budget_elems, 8);
            }
            other => panic!("job {id} was not scratch-rejected: {other:?}"),
        }
    }

    // A budget that admits the plan: completes with the honest peak,
    // inside the budget, and answers exactly as without one.
    let (admitted, roomy_stats) = run(ServeConfig::new().with_workers(1).with_scratch_budget(4096));
    assert_eq!(roomy_stats.rejected_scratch, 0);
    assert_eq!(roomy_stats.completed, 4);
    for ((uid, free), (id, outcome)) in unbounded.iter().zip(&admitted) {
        assert_eq!(uid, id);
        match (free, outcome) {
            (ResponseOutcome::Done(free), ResponseOutcome::Done(result)) => {
                assert_eq!(free.output.digest(), result.output.digest(), "job {id}");
                assert_eq!(free.sim_cycles, result.sim_cycles, "job {id}");
                assert!(free.peak_scratch_elems > 0, "job {id}");
                assert!(result.peak_scratch_elems > 0, "job {id}");
                assert!(result.peak_scratch_elems <= 4096, "job {id}");
            }
            other => panic!("job {id} did not complete under the roomy budget: {other:?}"),
        }
    }
}
