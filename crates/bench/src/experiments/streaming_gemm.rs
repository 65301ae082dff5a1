//! Streaming tiled GEMM on transformer-shaped workloads: the
//! cycle-accurate tubGEMM engine streamed through a bounded
//! double-buffered arena ([`TubGemm::multiply_streamed`]) against the
//! same engine's whole-operand window ([`TubGemm::multiply`]), with
//! **digest equality** and **O(tile) peak scratch** as the acceptance
//! gates (`results/BENCH_streaming_gemm.json`). The wall-clock ratio
//! is reported, not gated: on the 16×16 grid the quarter-operand
//! budget admits the whole-operand window, so both runs do the same
//! work.
//!
//! Every case is an LLM block silhouette from
//! [`tempus_models::transformer`] (attention projection, MLP
//! up/down), run under a scratch budget of **a quarter of the operand
//! footprint**: the whole-operand workload must complete inside it,
//! the observed arena high-water mark must equal the closed-form
//! [`StreamPlan::peak_scratch_elems`] prediction, and that figure
//! must not move when the operands grow — the streaming guarantee.
//! Digests chain each run's output with its observed cycle count, so
//! equal digests certify both the product and the latency.

use std::time::Instant;

use tempus_arith::IntPrecision;
use tempus_core::gemm::{Matrix, TubGemm};
use tempus_core::streaming::{StreamPlan, StreamStats};
use tempus_models::transformer::{self, ProjectionKind, TransformerShape};
use tempus_nvdla::cube::fnv1a;
use tempus_telemetry::json::{self, Fixed, Hex};

/// PE grid every case runs on (the paper's 16×16 array).
const GRID: (usize, usize) = (16, 16);

/// One transformer-projection workload's materialized-vs-streamed
/// measurement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamCase {
    /// Workload label (`preset projection m×n×p`).
    pub case: String,
    /// Product dimensions `A(m×n) × B(n×p)`.
    pub m: usize,
    /// Inner dimension.
    pub n: usize,
    /// Output columns.
    pub p: usize,
    /// Total operand footprint in elements (`m·n + n·p`).
    pub operand_elems: u64,
    /// Scratch budget the streamed run was admitted under
    /// (`operand_elems / 4`).
    pub budget_elems: u64,
    /// Window depth [`StreamPlan::for_budget`] chose for the budget.
    pub tile_k: usize,
    /// Observed arena high-water mark (must equal the closed-form
    /// prediction and fit the budget).
    pub peak_scratch_elems: u64,
    /// Closed-form [`StreamPlan::peak_scratch_elems`] prediction.
    pub model_scratch_elems: u64,
    /// Simulated datapath cycles (identical across paths by
    /// construction; reported for scale).
    pub sim_cycles: u64,
    /// Whole-operand-window run wall-clock, seconds.
    pub materialized_s: f64,
    /// Budget-bounded streamed run wall-clock, seconds.
    pub streamed_s: f64,
    /// Whole-operand-over-streamed wall-clock multiple (≥ 1 means
    /// the streamed run is not slower).
    pub speedup: f64,
    /// Digest over output and cycles, whole-operand window.
    pub materialized_digest: u64,
    /// Digest over output and cycles, streamed path.
    pub streamed_digest: u64,
}

impl StreamCase {
    /// `true` when the two paths agreed bit-for-bit (output and
    /// cycle model).
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.materialized_digest == self.streamed_digest
    }

    /// `true` when the observed peak equals the closed-form
    /// prediction, fits the budget, and the budget really was a
    /// quarter of the operand footprint or less.
    #[must_use]
    pub fn scratch_bounded(&self) -> bool {
        self.peak_scratch_elems == self.model_scratch_elems
            && self.peak_scratch_elems <= self.budget_elems
            && 4 * self.budget_elems <= self.operand_elems
    }

    /// `true` when quadrupling the inner dimension would not grow the
    /// arena — peak scratch is a function of the plan and grid alone
    /// once the operands exceed them.
    #[must_use]
    pub fn scratch_operand_invariant(&self) -> bool {
        let engine = TubGemm::new(GRID.0, GRID.1, IntPrecision::Int8);
        let plan = StreamPlan::new(self.tile_k);
        plan.peak_scratch_elems(&engine, self.m, 4 * self.n, self.p) == self.peak_scratch_elems
    }
}

/// The full experiment result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingGemmReport {
    /// Seed the workloads were generated from.
    pub seed: u64,
    /// Timed repetitions per case.
    pub reps: usize,
    /// Per-case rows.
    pub cases: Vec<StreamCase>,
}

impl StreamingGemmReport {
    /// `true` when every case agreed bit-for-bit.
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.cases.iter().all(StreamCase::digests_equal)
    }

    /// `true` when every case's peak scratch matched the model and
    /// fit its quarter-of-operand budget.
    #[must_use]
    pub fn scratch_bounded(&self) -> bool {
        self.cases.iter().all(StreamCase::scratch_bounded)
    }

    /// `true` when no case's arena would grow with the operands.
    #[must_use]
    pub fn scratch_operand_invariant(&self) -> bool {
        self.cases.iter().all(StreamCase::scratch_operand_invariant)
    }

    /// Geometric-mean materialized-over-streamed speedup.
    #[must_use]
    pub fn geomean_speedup(&self) -> f64 {
        if self.cases.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.cases.iter().map(|c| c.speedup.ln()).sum();
        (log_sum / self.cases.len() as f64).exp()
    }
}

/// Digest of one path: output values chained with the run's cycles.
fn product_digest(out: &Matrix, cycles: u64) -> u64 {
    fnv1a(
        out.as_slice()
            .iter()
            .map(|&v| u64::from(v as u32))
            .chain([cycles]),
    )
}

fn time_materialized(engine: &TubGemm, a: &Matrix, b: &Matrix, reps: usize) -> (f64, u64) {
    let mut digest = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        let run = engine.multiply(a, b).expect("gemm runs");
        digest = product_digest(&run.output, run.stats.cycles);
    }
    (start.elapsed().as_secs_f64(), digest)
}

fn time_streamed(
    engine: &TubGemm,
    a: &Matrix,
    b: &Matrix,
    plan: &StreamPlan,
    reps: usize,
) -> (f64, u64, u64, StreamStats) {
    let mut digest = 0u64;
    let mut cycles = 0u64;
    let mut stream = StreamStats::default();
    let start = Instant::now();
    for _ in 0..reps {
        let run = engine.multiply_streamed(a, b, plan).expect("gemm runs");
        digest = product_digest(&run.output, run.stats.cycles);
        cycles = run.stats.cycles;
        stream = run.stream;
    }
    (start.elapsed().as_secs_f64(), digest, cycles, stream)
}

/// Runs the experiment. `quick` shrinks workloads and repetitions for
/// CI smoke runs — digest equality and the scratch bound are the
/// invariants there, not timing.
#[must_use]
pub fn run(seed: u64, quick: bool) -> StreamingGemmReport {
    let reps = if quick { 1 } else { 2 };
    let presets: &[(&str, TransformerShape)] = if quick {
        &[("trace", TransformerShape::trace_default())]
    } else {
        &[
            ("gpt2_small", TransformerShape::gpt2_small()),
            ("bert_large", TransformerShape::bert_large()),
        ]
    };
    let engine = TubGemm::new(GRID.0, GRID.1, IntPrecision::Int8);
    let mut cases = Vec::new();
    for (pi, (preset, shape)) in presets.iter().enumerate() {
        for (ki, &kind) in ProjectionKind::ALL.iter().enumerate() {
            let (m, n, p) = shape.dims(kind);
            let (a, b) = transformer::projection_gemm(
                shape,
                kind,
                IntPrecision::Int8,
                seed.wrapping_add((pi * ProjectionKind::ALL.len() + ki) as u64),
            );
            let operand_elems = (m * n + n * p) as u64;
            let budget_elems = operand_elems / 4;
            let plan = StreamPlan::for_budget(&engine, m, n, p, budget_elems)
                .expect("quarter-operand budget admits a plan on transformer shapes");
            let (materialized_s, materialized_digest) = time_materialized(&engine, &a, &b, reps);
            let (streamed_s, streamed_digest, sim_cycles, stream) =
                time_streamed(&engine, &a, &b, &plan, reps);
            cases.push(StreamCase {
                case: format!("{preset} {} {m}x{n}x{p}", kind.name()),
                m,
                n,
                p,
                operand_elems,
                budget_elems,
                tile_k: plan.tile_k(),
                peak_scratch_elems: stream.peak_scratch_elems,
                model_scratch_elems: plan.peak_scratch_elems(&engine, m, n, p),
                sim_cycles,
                materialized_s,
                streamed_s,
                speedup: materialized_s / streamed_s.max(1e-12),
                materialized_digest,
                streamed_digest,
            });
        }
    }
    StreamingGemmReport { seed, reps, cases }
}

impl StreamingGemmReport {
    /// Machine-readable JSON summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("experiment", "streaming_gemm")
                .field("seed", self.seed)
                .field("reps", self.reps)
                .field("geomean_speedup", Fixed(self.geomean_speedup(), 2))
                .field("digests_equal", self.digests_equal())
                .field("scratch_bounded", self.scratch_bounded())
                .field(
                    "scratch_operand_invariant",
                    self.scratch_operand_invariant(),
                );
            o.array("cases", |a| {
                for c in &self.cases {
                    a.object(|o| {
                        o.field("case", &c.case)
                            .field("m", c.m)
                            .field("n", c.n)
                            .field("p", c.p)
                            .field("operand_elems", c.operand_elems)
                            .field("budget_elems", c.budget_elems)
                            .field("tile_k", c.tile_k)
                            .field("peak_scratch_elems", c.peak_scratch_elems)
                            .field("model_scratch_elems", c.model_scratch_elems)
                            .field("sim_cycles", c.sim_cycles)
                            .field("materialized_s", Fixed(c.materialized_s, 6))
                            .field("streamed_s", Fixed(c.streamed_s, 6))
                            .field("speedup", Fixed(c.speedup, 2))
                            .field("materialized_digest", Hex(c.materialized_digest))
                            .field("streamed_digest", Hex(c.streamed_digest))
                            .field("digests_equal", c.digests_equal())
                            .field("scratch_bounded", c.scratch_bounded());
                    });
                }
            });
        })
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "streaming_gemm: streamed vs materialized on transformer shapes, {} reps, \
             geomean speedup {:.1}x, digests equal: {}, scratch bounded: {}\n\n",
            self.reps,
            self.geomean_speedup(),
            self.digests_equal(),
            self.scratch_bounded(),
        );
        s.push_str(
            "| case | operand elems | budget | peak scratch | tile_k | \
             materialized s | streamed s | speedup | digests |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for c in &self.cases {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.4} | {:.4} | {:.1}x | {} |\n",
                c.case,
                c.operand_elems,
                c.budget_elems,
                c.peak_scratch_elems,
                c.tile_k,
                c.materialized_s,
                c.streamed_s,
                c.speedup,
                if c.digests_equal() { "equal" } else { "DRIFT" },
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_path_is_bit_identical_and_scratch_bounded_in_smoke_mode() {
        // The CI gate: digest equality and the O(tile) scratch bound
        // on every case. Timing is environment-dependent and not
        // asserted.
        let report = run(42, true);
        assert!(!report.cases.is_empty());
        for case in &report.cases {
            assert!(
                case.digests_equal(),
                "{}: paths diverged (mat {:016x} vs str {:016x})",
                case.case,
                case.materialized_digest,
                case.streamed_digest
            );
            assert!(case.scratch_bounded(), "{}: scratch exceeded", case.case);
            assert!(
                case.scratch_operand_invariant(),
                "{}: arena grew with operands",
                case.case
            );
            assert!(case.sim_cycles > 0);
        }
        let json = report.to_json();
        assert!(json.contains("\"digests_equal\": true"));
        assert!(json.contains("\"scratch_bounded\": true"));
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let report = StreamingGemmReport {
            cases: vec![StreamCase {
                tile_k: 1,
                ..StreamCase::default()
            }],
            ..StreamingGemmReport::default()
        };
        let committed = include_str!("../../../../results/BENCH_streaming_gemm.json");
        crate::assert_keys_match(&report.to_json(), committed);
    }
}
