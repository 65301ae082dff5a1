//! Simulation-core speed: the window-batched cycle-accurate engine
//! against the per-cycle reference it replaced, on identical conv and
//! GEMM workloads — reporting wall-clock speedup with **digest
//! equality over outputs and statistics** as the acceptance gate
//! (`results/BENCH_sim_speed.json`).
//!
//! The digests cover everything the per-cycle engine used to compute:
//! outputs, `stats.cycles`, pulse/gated PE-cycles, window statistics,
//! silent-PE averages and utilization. Equal digests prove the
//! batching changed only wall-clock, not semantics.

use std::time::Instant;

use tempus_arith::IntPrecision;
use tempus_core::gemm::{GemmRun, Matrix, TubGemm};
use tempus_core::{TempusConfig, TempusCore};
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{fnv1a, DataCube, KernelSet};
use tempus_nvdla::pipeline::{ConvCore, ConvRun};
use tempus_telemetry::json::{self, Fixed, Hex};

/// One workload's old-vs-new measurement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseRow {
    /// Workload label.
    pub case: String,
    /// `conv` or `gemm`.
    pub kind: &'static str,
    /// Modelled datapath cycles (identical across engines by
    /// construction; reported for scale).
    pub sim_cycles: u64,
    /// Per-cycle reference engine wall-clock, seconds.
    pub reference_s: f64,
    /// Window-batched engine wall-clock, seconds.
    pub windowed_s: f64,
    /// Reference-over-windowed wall-clock multiple.
    pub speedup: f64,
    /// Digest over outputs and statistics, reference engine.
    pub reference_digest: u64,
    /// Digest over outputs and statistics, window-batched engine.
    pub windowed_digest: u64,
}

impl CaseRow {
    /// `true` when the two engines agreed bit-for-bit.
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.reference_digest == self.windowed_digest
    }
}

/// The full experiment result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimSpeedReport {
    /// Seed the workloads were generated from.
    pub seed: u64,
    /// Timed repetitions per case.
    pub reps: usize,
    /// Per-case rows.
    pub cases: Vec<CaseRow>,
}

impl SimSpeedReport {
    /// `true` when every case agreed bit-for-bit.
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.cases.iter().all(CaseRow::digests_equal)
    }

    /// Geometric-mean speedup across cases.
    #[must_use]
    pub fn geomean_speedup(&self) -> f64 {
        if self.cases.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.cases.iter().map(|c| c.speedup.ln()).sum();
        (log_sum / self.cases.len() as f64).exp()
    }
}

/// Digest of a conv run: output values plus every reported statistic.
fn conv_digest(run: &ConvRun, core: &TempusCore) -> u64 {
    let ts = core.last_tempus_stats();
    fnv1a(
        run.output
            .as_slice()
            .iter()
            .map(|&v| u64::from(v as u32))
            .chain([
                run.stats.cycles,
                run.stats.atomic_ops,
                run.stats.stripes,
                run.stats.macs,
                run.stats.gated_cell_cycles,
                run.stats.cbuf_reads,
                run.stats.utilization.to_bits(),
                ts.total_window_cycles,
                u64::from(ts.max_window_cycles),
                ts.pe_pulse_cycles,
                ts.pe_gated_cycles,
                ts.avg_window_cycles.to_bits(),
                ts.avg_silent_pes.to_bits(),
            ]),
    )
}

/// Digest of a GEMM run: output values plus every statistic.
fn gemm_digest(run: &GemmRun) -> u64 {
    fnv1a(
        (0..run.output.rows())
            .flat_map(|i| (0..run.output.cols()).map(move |j| (i, j)))
            .map(|(i, j)| u64::from(run.output.get(i, j) as u32))
            .chain([
                run.stats.cycles,
                run.stats.steps,
                run.stats.tile_passes,
                run.stats.silent_pe_steps,
            ]),
    )
}

fn conv_case(w: usize, c: usize, k: usize, seed: i32) -> (DataCube, KernelSet) {
    let f = DataCube::from_fn(w, w, c, move |x, y, ch| {
        ((x as i32 * 31 + y as i32 * 17 + ch as i32 * 7 + seed) % 255) - 127
    });
    let kn = KernelSet::from_fn(k, 3, 3, c, move |k, r, s, ch| {
        ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + ch as i32 * 11 + seed) % 255) - 127
    });
    (f, kn)
}

fn gemm_case(m: usize, n: usize, p: usize, seed: i32) -> (Matrix, Matrix) {
    let a = Matrix::from_fn(m, n, move |i, j| {
        ((i as i32 * 31 + j as i32 * 17 + seed) % 255) - 127
    });
    let b = Matrix::from_fn(n, p, move |i, j| {
        ((i as i32 * 13 + j as i32 * 41 + seed * 3) % 255) - 127
    });
    (a, b)
}

fn time_conv(
    config: TempusConfig,
    f: &DataCube,
    kn: &KernelSet,
    params: &ConvParams,
    reps: usize,
    windowed: bool,
) -> (f64, u64, u64) {
    let mut core = TempusCore::new(config);
    let mut digest = 0u64;
    let mut cycles = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        let run = if windowed {
            core.convolve(f, kn, params).expect("conv runs")
        } else {
            core.convolve_reference(f, kn, params).expect("conv runs")
        };
        digest = conv_digest(&run, &core);
        cycles = run.stats.cycles;
    }
    (start.elapsed().as_secs_f64(), digest, cycles)
}

fn time_gemm(
    engine: &TubGemm,
    a: &Matrix,
    b: &Matrix,
    reps: usize,
    windowed: bool,
) -> (f64, u64, u64) {
    let mut digest = 0u64;
    let mut cycles = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        let run = if windowed {
            engine.multiply(a, b).expect("gemm runs")
        } else {
            engine.multiply_reference(a, b).expect("gemm runs")
        };
        digest = gemm_digest(&run);
        cycles = run.stats.cycles;
    }
    (start.elapsed().as_secs_f64(), digest, cycles)
}

/// Runs the experiment. `quick` shrinks workloads and repetitions for
/// CI smoke runs — digest equality is the invariant there, not
/// timing.
#[must_use]
pub fn run(seed: u64, quick: bool) -> SimSpeedReport {
    let reps = if quick { 1 } else { 3 };
    let mut cases = Vec::new();

    let conv_specs: &[(&str, TempusConfig, usize, usize, usize, ConvParams)] = &[
        (
            "conv nv_small 6x6x8 k8 int8",
            TempusConfig::nv_small(),
            6,
            8,
            8,
            ConvParams::unit_stride_same(3),
        ),
        (
            "conv paper16 8x8x19 k21 int8",
            TempusConfig::paper_16x16(),
            8,
            19,
            21,
            ConvParams::valid(),
        ),
    ];
    let conv_specs = if quick { &conv_specs[..1] } else { conv_specs };
    for (label, config, w, c, k, params) in conv_specs {
        let (f, kn) = conv_case(*w, *c, *k, seed as i32 + 3);
        let (reference_s, reference_digest, sim_cycles) =
            time_conv(*config, &f, &kn, params, reps, false);
        let (windowed_s, windowed_digest, _) = time_conv(*config, &f, &kn, params, reps, true);
        cases.push(CaseRow {
            case: (*label).to_string(),
            kind: "conv",
            sim_cycles,
            reference_s,
            windowed_s,
            speedup: reference_s / windowed_s.max(1e-12),
            reference_digest,
            windowed_digest,
        });
    }

    let gemm_specs: &[(&str, usize, usize, usize, usize, usize)] = &[
        ("gemm 48x32x40 grid 8x8 int8", 48, 32, 40, 8, 8),
        ("gemm 64x64x64 grid 16x16 int8", 64, 64, 64, 16, 16),
    ];
    let gemm_specs = if quick { &gemm_specs[..1] } else { gemm_specs };
    for (label, m, n, p, gm, gp) in gemm_specs {
        let (a, b) = gemm_case(*m, *n, *p, seed as i32 + 7);
        let engine = TubGemm::new(*gm, *gp, IntPrecision::Int8);
        let (reference_s, reference_digest, sim_cycles) = time_gemm(&engine, &a, &b, reps, false);
        let (windowed_s, windowed_digest, _) = time_gemm(&engine, &a, &b, reps, true);
        cases.push(CaseRow {
            case: (*label).to_string(),
            kind: "gemm",
            sim_cycles,
            reference_s,
            windowed_s,
            speedup: reference_s / windowed_s.max(1e-12),
            reference_digest,
            windowed_digest,
        });
    }

    SimSpeedReport { seed, reps, cases }
}

impl SimSpeedReport {
    /// Machine-readable JSON summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("experiment", "sim_speed")
                .field("seed", self.seed)
                .field("reps", self.reps)
                .field("geomean_speedup", Fixed(self.geomean_speedup(), 2))
                .field("digests_equal", self.digests_equal());
            o.array("cases", |a| {
                for c in &self.cases {
                    a.object(|o| {
                        o.field("case", &c.case)
                            .field("kind", c.kind)
                            .field("sim_cycles", c.sim_cycles)
                            .field("reference_s", Fixed(c.reference_s, 6))
                            .field("windowed_s", Fixed(c.windowed_s, 6))
                            .field("speedup", Fixed(c.speedup, 2))
                            .field("reference_digest", Hex(c.reference_digest))
                            .field("windowed_digest", Hex(c.windowed_digest))
                            .field("digests_equal", c.digests_equal());
                    });
                }
            });
        })
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "sim_speed: window-batched vs per-cycle engine, {} reps, \
             geomean speedup {:.1}x, digests equal: {}\n\n",
            self.reps,
            self.geomean_speedup(),
            self.digests_equal(),
        );
        s.push_str("| case | sim cycles | per-cycle s | windowed s | speedup | digests |\n");
        s.push_str("|---|---|---|---|---|---|\n");
        for c in &self.cases {
            s.push_str(&format!(
                "| {} | {} | {:.4} | {:.4} | {:.1}x | {} |\n",
                c.case,
                c.sim_cycles,
                c.reference_s,
                c.windowed_s,
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
    fn engines_agree_bit_for_bit_in_smoke_mode() {
        // The CI gate: digest equality across engines on every case.
        // Timing is environment-dependent and not asserted here; the
        // ≥10x wall-clock claim is validated by the full bench run
        // (results/BENCH_sim_speed.json).
        let report = run(42, true);
        assert!(!report.cases.is_empty());
        for case in &report.cases {
            assert!(
                case.digests_equal(),
                "{}: engines diverged (ref {:016x} vs win {:016x})",
                case.case,
                case.reference_digest,
                case.windowed_digest
            );
            assert!(case.sim_cycles > 0);
        }
        assert!(report.to_json().contains("\"digests_equal\": true"));
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let report = SimSpeedReport {
            cases: vec![CaseRow::default()],
            ..SimSpeedReport::default()
        };
        let committed = include_str!("../../../../results/BENCH_sim_speed.json");
        crate::assert_keys_match(&report.to_json(), committed);
    }
}
