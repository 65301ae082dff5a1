//! Metric assembly and output: the result JSON, the machine stamp and
//! the per-request budget table of the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tempus_serve::percentile;

use crate::client::Tally;
use crate::layers::Counters;
use crate::spans::{SelfTime, Tracer};
use crate::workload::Workload;

/// The end-to-end metrics, in output order.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "p50_ms",
    "p95_ms",
    "slo_met_frac",
    "answered_frac",
    "saturated_rps",
    "sim_cycles_per_s",
    "device_makespan_cycles",
    "energy_uj_per_req",
    "peak_rss_mb",
];

/// Where the cycle-accurate layers show: no workload serves
/// cycle-accurate requests, so only the replay times them.
const CYCLE_ACCURATE: &str = "none end to end: replay only (all)";

/// The per-layer metrics, in output order, each with the end-to-end
/// metric it should move and the workload where it should show.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("traffic.generate_us_per_req", "setup_s (cold_fleet)"),
    (
        "job.content_key_us",
        "p50_ms, saturated_rps (edge_hot); saturated_rps (cold_fleet)",
    ),
    ("cache.get_ns", "p50_ms, saturated_rps (edge_hot)"),
    ("cache.insert_ns", "p50_ms, saturated_rps (edge_hot)"),
    ("cache.hit_frac", "p50_ms, saturated_rps (edge_hot)"),
    ("serve.queue_wait_p50_us", "p95_ms (all); p50_ms (edge_hot)"),
    ("serve.queue_wait_p99_us", "p95_ms (all); p50_ms (edge_hot)"),
    (
        "serve.hit_latency_p50_us",
        "p95_ms (all); p50_ms (edge_hot)",
    ),
    (
        "planner.plan_us",
        "saturated_rps, p50_ms, device_makespan_cycles, slo_met_frac (cold_fleet)",
    ),
    (
        "ledger.place_ns",
        "saturated_rps, p50_ms, device_makespan_cycles, slo_met_frac (cold_fleet)",
    ),
    (
        "fleet.admit_us",
        "saturated_rps, p50_ms, device_makespan_cycles, slo_met_frac (cold_fleet)",
    ),
    (
        "fleet.backfill_frac",
        "saturated_rps, p50_ms, device_makespan_cycles, slo_met_frac (cold_fleet)",
    ),
    (
        "fleet.reject_frac",
        "saturated_rps, p50_ms, device_makespan_cycles, slo_met_frac (cold_fleet)",
    ),
    (
        "backend.functional.conv_us",
        "p50_ms, saturated_rps (cold_fleet)",
    ),
    (
        "backend.functional.gemm_us",
        "p50_ms, saturated_rps (cold_fleet)",
    ),
    (
        "backend.functional.network_us",
        "p50_ms, saturated_rps (cold_fleet)",
    ),
    (
        "backend.functional.gemm_mmac_per_s",
        "p50_ms, saturated_rps (cold_fleet)",
    ),
    ("backend.tempus.conv_us", CYCLE_ACCURATE),
    ("backend.tempus.gemm_us", CYCLE_ACCURATE),
    ("backend.tempus.network_us", CYCLE_ACCURATE),
    ("backend.tempus.sim_cycles_per_s", CYCLE_ACCURATE),
    ("pool.overhead_us_per_job", "saturated_rps (cold_fleet)"),
    ("pool.scaling_nproc_over_1", "saturated_rps (cold_fleet)"),
    ("core.conv_sim_cycles_per_s", CYCLE_ACCURATE),
    ("core.gemm_sim_cycles_per_s", CYCLE_ACCURATE),
    ("arith.fold_window_ns", CYCLE_ACCURATE),
    ("client.send_lag_p99_ms", "validity of the open loop (all)"),
    (
        "bench.trace_overhead_frac",
        "none: cost of the spans themselves (all)",
    ),
];

#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.0.as_str())
    }

    /// One line per metric; layer metrics name the end-to-end
    /// metric they should move.
    pub fn print(&self, workload: &str, traced: bool) {
        for (name, value, unit) in &self.entries {
            let target = PER_LAYER
                .iter()
                .find(|l| traced && l.0 == name)
                .map_or(String::new(), |l| format!("  -> {}", l.1));
            println!("metric {workload} {name} = {value} {unit}{target}");
        }
    }
}

/// One run's result, as the last line of output reports it.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

impl Outcome {
    /// Several workloads' results as one, metric names prefixed with
    /// the workload.
    pub fn combine(outcomes: Vec<(Workload, Outcome)>) -> Outcome {
        let mut combined = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
        };
        for (workload, outcome) in outcomes {
            combined.correct &= outcome.correct;
            combined.attempted += outcome.attempted;
            combined.failed += outcome.failed;
            for (name, value, unit) in outcome.metrics.entries {
                combined
                    .metrics
                    .add(&format!("{}.{name}", workload.name()), value, unit);
            }
        }
        combined
    }

    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
pub fn percentile_ms(samples_ns: &[u64], q: f64) -> f64 {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, q) as f64 * 1e-6
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor has stolen from this host since boot, in
/// clock ticks (the `steal` field of `/proc/stat`); 0 where the host
/// does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The commit the checkout was made from, when it carries `.git`.
fn git_commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&format!(".git/{reference}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(String::from))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// What a result was measured on, so results from different machines
/// are never compared silently.
pub fn stamp(workload: Workload, seed: u64, seconds: f64, trace: bool, nproc: usize) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        workload.name(),
        u8::from(trace),
        rustc_version(),
        git_commit()
    )
}

pub struct LayerInputs<'a> {
    pub generate_us_per_req: f64,
    pub open: &'a Tally,
    /// Service-side latency of cache hits on the workload's payloads.
    pub hit_ns: &'a [u64],
    pub tracer: &'a Tracer,
    pub counters: &'a Counters,
    pub trace_overhead_frac: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
pub fn layer_metrics(inputs: &LayerInputs<'_>) -> Metrics {
    let times = inputs.tracer.self_times();
    let t = |name: &str| times.get(name).copied().unwrap_or_default();
    let c = inputs.counters;
    let mut m = Metrics::default();
    m.add(
        "traffic.generate_us_per_req",
        inputs.generate_us_per_req,
        "us",
    );
    m.add(
        "job.content_key_us",
        t("job.content_key").ns_per_call() * 1e-3,
        "us",
    );
    m.add("cache.get_ns", t("cache.get").ns_per_call(), "ns");
    m.add("cache.insert_ns", t("cache.insert").ns_per_call(), "ns");
    m.add(
        "cache.hit_frac",
        ratio(c.cache_hits as f64, c.cache_gets as f64),
        "frac",
    );
    m.add(
        "serve.queue_wait_p50_us",
        percentile_ms(&inputs.open.queue_ns, 50.0) * 1e3,
        "us",
    );
    m.add(
        "serve.queue_wait_p99_us",
        percentile_ms(&inputs.open.queue_ns, 99.0) * 1e3,
        "us",
    );
    m.add(
        "serve.hit_latency_p50_us",
        percentile_ms(inputs.hit_ns, 50.0) * 1e3,
        "us",
    );
    m.add(
        "planner.plan_us",
        t("planner.plan").ns_per_call() * 1e-3,
        "us",
    );
    m.add("ledger.place_ns", t("ledger.place").ns_per_call(), "ns");
    m.add(
        "fleet.admit_us",
        t("fleet.admit").ns_per_call() * 1e-3,
        "us",
    );
    let admissions = (c.admitted + c.rejections) as f64;
    m.add(
        "fleet.backfill_frac",
        ratio(c.backfills as f64, c.admitted as f64),
        "frac",
    );
    m.add(
        "fleet.reject_frac",
        ratio(c.rejections as f64, admissions),
        "frac",
    );
    for kind in ["conv", "gemm", "network"] {
        let name = format!("backend.functional.{kind}");
        m.add(&format!("{name}_us"), t(&name).ns_per_call() * 1e-3, "us");
    }
    let gemm = t("backend.functional.gemm");
    m.add(
        "backend.functional.gemm_mmac_per_s",
        ratio(c.gemm_macs as f64 * 1e3, gemm.ns as f64),
        "MMAC/s",
    );
    let mut tempus_ns = 0;
    for kind in ["conv", "gemm", "network"] {
        let name = format!("backend.tempus.{kind}");
        tempus_ns += t(&name).ns;
        m.add(&format!("{name}_us"), t(&name).ns_per_call() * 1e-3, "us");
    }
    m.add(
        "backend.tempus.sim_cycles_per_s",
        ratio(c.tempus_cycles as f64 * 1e9, tempus_ns as f64),
        "1/s",
    );
    let overhead_ns: u64 = c.pool_overhead_ns.iter().sum();
    m.add(
        "pool.overhead_us_per_job",
        ratio(overhead_ns as f64 * 1e-3, c.pool_overhead_ns.len() as f64),
        "us",
    );
    m.add(
        "pool.scaling_nproc_over_1",
        ratio(c.pool_batch_1_ns as f64, c.pool_batch_n_ns as f64),
        "ratio",
    );
    m.add(
        "core.conv_sim_cycles_per_s",
        ratio(c.core_conv_cycles as f64 * 1e9, t("core.conv").ns as f64),
        "1/s",
    );
    m.add(
        "core.gemm_sim_cycles_per_s",
        ratio(c.core_gemm_cycles as f64 * 1e9, t("core.gemm").ns as f64),
        "1/s",
    );
    m.add(
        "arith.fold_window_ns",
        t("arith.fold_window").ns_per_call(),
        "ns",
    );
    m.add(
        "client.send_lag_p99_ms",
        percentile_ms(&inputs.open.lag_ns, 99.0),
        "ms",
    );
    m.add(
        "bench.trace_overhead_frac",
        inputs.trace_overhead_frac,
        "frac",
    );
    m
}

/// Prints each layer's self time per call beside the end-to-end
/// budget, `1 / saturated_rps`, with the spans and distinct requests
/// behind each figure.
pub fn print_budget(tracer: &Tracer, saturated_rps: f64, workers: usize) {
    let times: BTreeMap<&str, SelfTime> = tracer.self_times();
    let budget_us = ratio(1e6, saturated_rps);
    println!("budget: 1/saturated_rps = {budget_us:.2} us per request ({workers} workers)");
    println!(
        "  {:<28} {:>7} {:>9} {:>14} {:>10}",
        "layer (self time)", "spans", "requests", "us/call", "x budget"
    );
    for (name, time) in &times {
        let spans: Vec<_> = tracer.spans().iter().filter(|s| s.name == *name).collect();
        let mut requests: Vec<u64> = spans.iter().map(|s| s.request).collect();
        requests.sort_unstable();
        requests.dedup();
        let us = time.ns_per_call() * 1e-3;
        println!(
            "  {name:<28} {:>7} {:>9} {us:>14.3} {:>10.3}",
            spans.len(),
            requests.len(),
            ratio(us, budget_us)
        );
    }
}
