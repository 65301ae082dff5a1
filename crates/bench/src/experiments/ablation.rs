//! Ablation studies beyond the paper's tables: how Tempus Core's
//! design choices move latency and energy.
//!
//! Three ablations:
//!
//! 1. **2s-unary vs plain unary** — halved stream length (the tubGEMM
//!    insight the core inherits);
//! 2. **cache-overhead cycles** — the §III handshake cost per atomic
//!    op;
//! 3. **weight-magnitude clipping** — how clipping the quantization
//!    range (a compiler-side knob the paper's future work hints at)
//!    trades accuracy margin for latency.

use tempus_core::{latency, TempusConfig, TempusCore};
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::pipeline::ConvCore;
use tempus_profile::table::Table;

/// A deterministic medium-sized workload for the ablations.
#[must_use]
pub fn workload(max_magnitude: i32) -> (DataCube, KernelSet, ConvParams) {
    let features = DataCube::from_fn(8, 8, 16, |x, y, c| {
        ((x as i32 * 37 + y as i32 * 11 + c as i32 * 3) % 255) - 127
    });
    let kernels = KernelSet::from_fn(16, 3, 3, 16, move |k, r, s, c| {
        let v = ((k as i32 * 29 + r as i32 * 13 + s as i32 * 7 + c as i32 * 17) % 255) - 127;
        v.clamp(-max_magnitude, max_magnitude)
    });
    (features, kernels, ConvParams::unit_stride_same(3))
}

/// Ablation 1: 2s-unary halves the window versus plain unary (each
/// pulse worth 1, per tuGEMM). Returns
/// `(plain_unary_cycles, twos_unary_cycles)` averaged over the
/// workload's stripes, computed from the *real* encodings in
/// `tempus_arith` (both verified exact elsewhere).
#[must_use]
pub fn unary_encoding_ablation() -> (f64, f64) {
    use tempus_arith::plain_unary::PlainUnaryStream;
    use tempus_arith::{IntPrecision, TwosUnaryStream};
    let (_, k, _) = workload(127);
    let p = IntPrecision::Int8;
    // Average per-stripe window under each encoding: the stripe window
    // is the max stream length over the 16x16 tile; sample tiles from
    // the kernel set the same way the CSC does (per (r, s) tap).
    let mut plain_total = 0u64;
    let mut twos_total = 0u64;
    let mut stripes = 0u64;
    for r in 0..k.r() {
        for s in 0..k.s() {
            let mut plain_max = 0u32;
            let mut twos_max = 0u32;
            for kernel in 0..k.k() {
                for c in 0..k.c() {
                    let w = k.get(kernel, r, s, c);
                    plain_max = plain_max.max(PlainUnaryStream::encode(w, p).unwrap().cycles());
                    twos_max = twos_max.max(TwosUnaryStream::encode(w, p).unwrap().cycles());
                }
            }
            plain_total += u64::from(plain_max);
            twos_total += u64::from(twos_max);
            stripes += 1;
        }
    }
    (
        plain_total as f64 / stripes as f64,
        twos_total as f64 / stripes as f64,
    )
}

/// Ablation 2: sweep the cache-in/out overhead and report total cycles.
#[must_use]
pub fn cache_overhead_ablation() -> Table {
    let (f, k, p) = workload(127);
    let mut t = Table::new(["cache in/out", "total cycles", "slowdown vs binary"]);
    for (ci, co) in [(0u32, 0u32), (1, 1), (2, 2), (4, 4)] {
        let config = TempusConfig::paper_16x16().with_cache_overheads(ci, co);
        let b = latency::predict(&f, &k, &p, &config).expect("workload is valid");
        t.push_row([
            format!("{ci}/{co}"),
            b.total_cycles.to_string(),
            format!("{:.1}x", b.slowdown),
        ]);
    }
    t
}

/// Ablation 3: clip weight magnitudes (re-quantizing to a smaller
/// range) and measure simulated cycles + exactness against the
/// unclipped reference.
#[must_use]
pub fn clipping_ablation() -> Table {
    let mut t = Table::new(["max |w|", "sim cycles", "avg window", "output == golden"]);
    for max_mag in [127, 64, 32, 16, 8] {
        let (f, k, p) = workload(max_mag);
        let golden = tempus_nvdla::conv::direct_conv(&f, &k, &p).expect("valid");
        let mut core = TempusCore::new(TempusConfig::paper_16x16());
        let run = core.convolve(&f, &k, &p).expect("valid");
        t.push_row([
            max_mag.to_string(),
            run.stats.cycles.to_string(),
            format!("{:.1}", core.last_tempus_stats().avg_window_cycles),
            (run.output == golden).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twos_unary_halves_plain_unary() {
        let (plain, twos) = unary_encoding_ablation();
        assert!((plain / twos - 2.0).abs() < 0.05, "{plain} vs {twos}");
    }

    #[test]
    fn overhead_sweep_is_monotone() {
        let t = cache_overhead_ablation();
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        let cycles: Vec<u64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(cycles.windows(2).all(|w| w[1] > w[0]), "{cycles:?}");
    }

    #[test]
    fn clipping_cuts_cycles_and_stays_exact() {
        let t = clipping_ablation();
        let csv = t.to_csv();
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        let cycles: Vec<u64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(cycles.windows(2).all(|w| w[1] < w[0]), "{cycles:?}");
        assert!(rows.iter().all(|r| r[3] == "true"));
    }
}
