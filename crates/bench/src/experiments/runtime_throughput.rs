//! Runtime throughput: jobs/sec per backend and worker-count scaling
//! for the batched inference engine, with a machine-readable JSON
//! summary (the `BENCH_runtime_throughput.json` trajectory).

use std::time::Instant;

use tempus_arith::IntPrecision;
use tempus_core::gemm::Matrix;
use tempus_core::TempusConfig;
use tempus_models::netbuild;
use tempus_models::zoo::Model;
use tempus_nvdla::config::NvdlaConfig;
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_runtime::{BackendKind, EngineConfig, InferenceEngine, Job};

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Backend measured.
    pub backend: &'static str,
    /// Worker threads.
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: u64,
    /// Batch wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Host throughput in jobs per second.
    pub jobs_per_sec: f64,
    /// Modelled datapath cycles over the batch.
    pub sim_cycles: u64,
    /// Batch output digest (must agree across backends).
    pub digest: u64,
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// One row per (backend, worker-count) measured.
    pub rows: Vec<ThroughputRow>,
    /// Functional-vs-cycle-accurate-Tempus wall-clock speedup at the
    /// reference worker count.
    pub functional_speedup: f64,
    /// Reference worker count used for the backend comparison.
    pub reference_workers: usize,
}

/// Builds the standard mixed batch: convolutions across several
/// shapes, GEMMs across tuGEMM-style shapes, and model-zoo network
/// prefixes. Deterministic in `seed`.
#[must_use]
pub fn mixed_batch(seed: u64, jobs: usize) -> Vec<Job> {
    let mut out = Vec::with_capacity(jobs);
    let mut id = 0u64;
    while out.len() < jobs {
        let i = id;
        let salt = seed.wrapping_mul(31).wrapping_add(i) as i32;
        match id % 5 {
            // Small conv layers in a few shapes.
            0 | 3 => {
                let w = 4 + (i % 3) as usize;
                let c = 4 + 4 * (i % 2) as usize;
                let features = DataCube::from_fn(w, w, c, move |x, y, ch| {
                    ((x as i32 * 31 + y as i32 * 17 + ch as i32 * 7 + salt) % 255) - 127
                });
                let kernels = KernelSet::from_fn(4, 3, 3, c, move |k, r, s, ch| {
                    ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + ch as i32 * 11 + salt) % 255)
                        - 127
                });
                out.push(Job::conv(
                    id,
                    format!("conv-{id}"),
                    features,
                    kernels,
                    ConvParams::valid(),
                ));
            }
            // tuGEMM-style GEMM shapes.
            1 | 4 => {
                let m = 6 + (i % 4) as usize;
                let n = 5 + (i % 3) as usize;
                let a = Matrix::from_fn(m, n, move |r, c| {
                    ((r as i32 * 31 + c as i32 * 17 + salt) % 255) - 127
                });
                let b = Matrix::from_fn(n, 6, move |r, c| {
                    ((r as i32 * 13 + c as i32 * 41 + salt) % 255) - 127
                });
                out.push(Job::gemm(id, format!("gemm-{id}"), a, b));
            }
            // Model-zoo network prefixes (one layer, real quantized
            // weight statistics).
            _ => {
                let model = if i.is_multiple_of(2) {
                    Model::ResNet18
                } else {
                    Model::GoogleNet
                };
                let layers =
                    netbuild::network_prefix(model, IntPrecision::Int8, seed + i, 200_000, 1, 64);
                if let Some(channels) = netbuild::input_channels(&layers) {
                    let input = netbuild::input_cube(5, 5, channels, IntPrecision::Int8, seed + i);
                    out.push(Job::network(id, format!("net-{id}"), input, layers));
                }
            }
        }
        id += 1;
    }
    out
}

/// Runs the experiment: every backend at `reference_workers`, plus a
/// worker-count scaling curve on the fast functional backend.
///
/// # Panics
///
/// Panics if a batch fails to execute or backends disagree on outputs
/// — both are contract violations worth failing loudly on.
#[must_use]
pub fn run(seed: u64, jobs: usize, worker_counts: &[usize]) -> ThroughputReport {
    let batch = mixed_batch(seed, jobs);
    let reference_workers = 4;
    let mut rows = Vec::new();

    let measure = |kind: BackendKind, workers: usize| -> ThroughputRow {
        let engine = InferenceEngine::new(
            EngineConfig::new(kind)
                .with_workers(workers)
                .with_seed(seed)
                .with_cores(TempusConfig::nv_small(), NvdlaConfig::nv_small()),
        )
        .expect("engine config valid");
        let start = Instant::now();
        let report = engine.run_batch(&batch).expect("batch executes");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        ThroughputRow {
            backend: kind.name(),
            workers,
            jobs: report.aggregate.jobs,
            wall_ms,
            jobs_per_sec: report.aggregate.jobs_per_sec,
            sim_cycles: report.aggregate.total_sim_cycles,
            digest: report.output_digest(),
        }
    };

    // Backend comparison at the reference worker count.
    for kind in BackendKind::ALL {
        rows.push(measure(kind, reference_workers));
    }
    let digests: Vec<u64> = rows.iter().map(|r| r.digest).collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "backends disagree on batch outputs"
    );

    // Worker scaling curve on the functional backend.
    for &workers in worker_counts {
        if workers != reference_workers {
            rows.push(measure(BackendKind::FastFunctional, workers));
        }
    }

    let tempus_ms = rows
        .iter()
        .find(|r| r.backend == BackendKind::TempusCycleAccurate.name())
        .map_or(f64::NAN, |r| r.wall_ms);
    let functional_ms = rows
        .iter()
        .find(|r| r.backend == BackendKind::FastFunctional.name() && r.workers == reference_workers)
        .map_or(f64::NAN, |r| r.wall_ms);

    ThroughputReport {
        rows,
        functional_speedup: tempus_ms / functional_ms,
        reference_workers,
    }
}

impl ThroughputReport {
    /// Machine-readable JSON summary (hand-rolled; the workspace has
    /// no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"experiment\": \"runtime_throughput\",\n");
        s.push_str(&format!(
            "  \"reference_workers\": {},\n",
            self.reference_workers
        ));
        s.push_str(&format!(
            "  \"functional_speedup_vs_cycle_accurate\": {:.2},\n",
            self.functional_speedup
        ));
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"backend\": \"{}\", \"workers\": {}, \"jobs\": {}, \
                 \"wall_ms\": {:.3}, \"jobs_per_sec\": {:.1}, \"sim_cycles\": {}, \
                 \"digest\": \"{:016x}\"}}{}\n",
                r.backend,
                r.workers,
                r.jobs,
                r.wall_ms,
                r.jobs_per_sec,
                r.sim_cycles,
                r.digest,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Human-readable markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = String::from("| backend | workers | jobs | wall ms | jobs/s | sim cycles |\n");
        s.push_str("|---|---|---|---|---|---|\n");
        for r in &self.rows {
            s.push_str(&format!(
                "| {} | {} | {} | {:.2} | {:.0} | {} |\n",
                r.backend, r.workers, r.jobs, r.wall_ms, r.jobs_per_sec, r.sim_cycles
            ));
        }
        s.push_str(&format!(
            "\nfunctional speedup vs cycle-accurate tempus at {} workers: {:.1}x\n",
            self.reference_workers, self.functional_speedup
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_deterministic_and_mixed() {
        let a = mixed_batch(3, 40);
        let b = mixed_batch(3, 40);
        assert_eq!(a.len(), 40);
        assert_eq!(a.len(), b.len());
        let kinds: Vec<&str> = a.iter().map(|j| j.payload.kind()).collect();
        assert!(kinds.contains(&"conv"));
        assert!(kinds.contains(&"gemm"));
        assert!(kinds.contains(&"network"));
    }

    #[test]
    fn functional_backend_outpaces_cycle_accurate() {
        // The acceptance bar for the runtime: ≥100 mixed jobs on ≥4
        // workers, identical outputs, and a clear wall-clock win for
        // the functional backend over cycle-accurate Tempus. The
        // window-batched simulation core closed most of the historic
        // ~500× gap (cycle-accurate is now allocation-free and
        // window-parallel, ~8× slower than closed-form on mixed
        // batches); 3× stays robust under CI noise while still
        // proving the closed-form path is the cheaper fidelity.
        let report = run(42, 100, &[4]);
        assert!(report.rows.iter().all(|r| r.jobs >= 100));
        assert!(
            report.functional_speedup >= 3.0,
            "speedup {:.1}x",
            report.functional_speedup
        );
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let report = run(7, 20, &[1, 4]);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"runtime_throughput\""));
        assert!(json.contains("\"jobs_per_sec\""));
        assert_eq!(json.matches("{\"backend\"").count(), report.rows.len());
        // Balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
