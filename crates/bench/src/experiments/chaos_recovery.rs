//! Fault-recovery gate: replay the same seeded trace through the
//! serving stack fault-free and under deterministic chaos injection,
//! proving that (a) no admitted request is ever lost at fault rates
//! up to 10% — every one is answered `Done`, bit-identical to the
//! fault-free digests (retried or degraded answers included), (b) a
//! persistent device outage is quarantined, probed and revived with
//! its stranded work re-routed and zero ledger grants orphaned, and
//! (c) tail-latency inflation under recovery stays bounded
//! (`results/BENCH_chaos_recovery.json`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tempus_models::traffic::{generate, TraceConfig, TraceRequest};
use tempus_nvdla::cube::fnv1a;
use tempus_serve::{
    percentile, CacheOutcome, FaultPlan, Request, ResponseOutcome, ServeConfig, ServeStats,
    StreamingService,
};

/// Watchdog base deadline used by every chaos scenario: small enough
/// that injected stalls recover in milliseconds, large enough that no
/// healthy functional execution is ever cancelled. Unoptimized builds
/// run the functional backend roughly 10x slower (a quick-mode network
/// job takes ~11 ms alone on a 2-vCPU host, more with every worker
/// busy), so they get a 10x leash.
const WATCHDOG_MS: u64 = if cfg!(debug_assertions) { 100 } else { 10 };

/// One serving pass under one fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario label (`fault-free`, `rate-5pct`, ...).
    pub label: String,
    /// Injected fault rate (fraction of eligible executions).
    pub fault_rate: f64,
    /// Requests submitted.
    pub submitted: usize,
    /// Responses answered `Done`.
    pub done: u64,
    /// Responses answered `Failed` (must be 0 — degrade, don't drop).
    pub failed: u64,
    /// Responses answered `Rejected` (must be 0 — no deadlines here).
    pub rejected: u64,
    /// Submitted requests that never produced a response.
    pub lost: u64,
    /// Execution attempts retried after an infrastructure fault.
    pub retries: u64,
    /// Requests answered by the degrade-don't-drop fallback.
    pub degraded: u64,
    /// Fleet circuit-breaker quarantines.
    pub quarantines: u64,
    /// Deterministic revival probes sent to quarantined devices.
    pub probes: u64,
    /// Quarantined devices revived by a healthy probe.
    pub revivals: u64,
    /// Ledger grants rolled back from failed placements.
    pub rollbacks: u64,
    /// Live ledger placements at shutdown (must equal the cold
    /// executions: one surviving grant per successful execution,
    /// every failed attempt's grant rolled back — no orphans).
    pub live_placements: u64,
    /// Cold executions (`Done` answers served as cache misses) — the
    /// expected live grants.
    pub cold_executions: u64,
    /// Combined digest over every `Done` answer (job id + output).
    pub digest: u64,
    /// End-to-end p99 latency over every answered request, ms.
    pub p99_ms: f64,
    /// Wall seconds for the whole pass.
    pub wall_s: f64,
}

impl ChaosScenario {
    /// True when every submitted request was answered `Done`.
    #[must_use]
    pub fn lossless(&self) -> bool {
        self.lost == 0
            && self.failed == 0
            && self.rejected == 0
            && self.done == self.submitted as u64
    }

    /// True when every surviving ledger grant maps to exactly one
    /// successful execution — failed placements all handed their
    /// grants back.
    #[must_use]
    pub fn no_orphaned_grants(&self) -> bool {
        self.live_placements == self.cold_executions
    }
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRecoveryReport {
    /// Trace seed (also seeds every fault plan).
    pub seed: u64,
    /// Requests per pass.
    pub requests: usize,
    /// Fleet devices behind the dispatcher.
    pub devices: usize,
    /// PE arrays per device.
    pub arrays: usize,
    /// All scenarios, fault-free first.
    pub scenarios: Vec<ChaosScenario>,
}

impl ChaosRecoveryReport {
    /// The fault-free reference scenario.
    #[must_use]
    pub fn baseline(&self) -> &ChaosScenario {
        &self.scenarios[0]
    }

    /// True when every scenario answered every request `Done` with
    /// digests equal to the fault-free pass.
    #[must_use]
    pub fn zero_lost_and_bit_identical(&self) -> bool {
        let reference = self.baseline().digest;
        self.scenarios
            .iter()
            .all(|s| s.lossless() && s.digest == reference)
    }

    /// True when the worst chaos-scenario p99 stays inside the
    /// recovery budget: the fault-free p99 plus the full retry ladder
    /// (`max_retries + 1` watchdog deadlines, with 3x slack for the
    /// stall naps and scheduling noise).
    #[must_use]
    pub fn p99_inflation_bounded(&self) -> bool {
        let budget_ms = self.baseline().p99_ms * 3.0 + (4 * WATCHDOG_MS * 3) as f64;
        self.scenarios.iter().all(|s| s.p99_ms <= budget_ms)
    }
}

/// Replays `trace` through a fresh service, tolerating (and counting)
/// failures and rejections instead of panicking — the gates assert on
/// the counts.
fn replay(
    config: ServeConfig,
    label: &str,
    fault_rate: f64,
    trace: &[TraceRequest],
) -> ChaosScenario {
    let service = StreamingService::start(config).expect("service starts");
    let start = Instant::now();
    for t in trace {
        service
            .submit(Request::from_trace(t))
            .expect("service accepts (blocking submit)");
    }
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut done, mut failed, mut rejected) = (0u64, 0u64, 0u64);
    let mut cold_executions = 0u64;
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(trace.len());
    let mut answered = 0usize;
    while answered < trace.len() {
        let Some(response) = service.recv_response(Duration::from_secs(120)) else {
            break; // lost requests are counted, not panicked over
        };
        answered += 1;
        latencies_ns.push(response.total_ns);
        match response.outcome {
            ResponseOutcome::Done(result) => {
                done += 1;
                if result.cache == CacheOutcome::Miss {
                    cold_executions += 1;
                }
                digests.insert(response.job_id, result.output.digest());
            }
            ResponseOutcome::Failed(_) => failed += 1,
            ResponseOutcome::Rejected(_) => rejected += 1,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (stats, leftovers): (ServeStats, _) = service.shutdown();
    assert!(leftovers.is_empty(), "answered everything already");
    latencies_ns.sort_unstable();
    let fleet = &stats.fleet;
    ChaosScenario {
        label: label.to_string(),
        fault_rate,
        submitted: trace.len(),
        done,
        failed,
        rejected,
        lost: (trace.len() - answered) as u64,
        retries: stats.retries,
        degraded: stats.degraded,
        quarantines: fleet.quarantines,
        probes: fleet.probes,
        revivals: fleet.revivals,
        rollbacks: fleet.rollbacks,
        live_placements: stats.device.placements,
        cold_executions,
        digest: fnv1a(digests.iter().flat_map(|(&id, &d)| [id, d])),
        p99_ms: percentile(&latencies_ns, 99.0) as f64 * 1e-6,
        wall_s,
    }
}

/// Runs the gate on a 2-device, 4-array fleet: a fault-free baseline,
/// transient-fault sweeps at 5% and 10%, and a persistent outage of
/// device 1 that must be quarantined, probed and revived.
///
/// # Panics
///
/// Panics when any scenario loses a request, answers with the wrong
/// bits, or when the outage scenario fails to quarantine → probe →
/// revive with every dead grant rolled back. The (noise-sensitive)
/// p99-inflation gate is asserted by the report binary, not here.
#[must_use]
pub fn run(seed: u64, quick: bool) -> ChaosRecoveryReport {
    let requests = if quick { 60 } else { 160 };
    let devices = 2;
    let arrays = 4;
    let trace_config = TraceConfig::new(seed)
        .with_requests(requests)
        .with_repeat_fraction(0.3)
        .with_accurate_fraction(0.05)
        .with_wide_conv_fraction(0.25);
    let trace = generate(&trace_config);
    let config = || {
        ServeConfig::new()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_cache_capacity(8192)
            .with_arrays(arrays)
            .with_devices(devices)
            .with_admission(2, 64)
    };
    let chaos_config = |plan: FaultPlan| {
        config()
            .with_chaos(plan)
            .with_watchdog(Duration::from_millis(WATCHDOG_MS))
    };

    let mut scenarios = vec![replay(config(), "fault-free", 0.0, &trace)];
    for rate in [0.05f64, 0.10] {
        let label = format!("rate-{}pct", (rate * 100.0).round() as u32);
        scenarios.push(replay(
            chaos_config(FaultPlan::new(seed, rate)),
            &label,
            rate,
            &trace,
        ));
    }
    scenarios.push(replay(
        chaos_config(FaultPlan::new(seed, 0.0).with_outage(1, 2)),
        "outage-device-1",
        0.0,
        &trace,
    ));

    let report = ChaosRecoveryReport {
        seed,
        requests,
        devices,
        arrays,
        scenarios,
    };

    // Deterministic gates: zero lost requests, bit-identical answers,
    // no orphaned grants, and the full quarantine → probe → revive
    // ladder on the outage scenario.
    assert!(
        report.zero_lost_and_bit_identical(),
        "a scenario lost requests or answered with the wrong bits: {:?}",
        report
            .scenarios
            .iter()
            .map(|s| (s.label.as_str(), s.lost, s.failed, s.digest))
            .collect::<Vec<_>>()
    );
    for s in &report.scenarios {
        assert!(
            s.no_orphaned_grants(),
            "{}: {} live grants for {} successful executions",
            s.label,
            s.live_placements,
            s.cold_executions
        );
    }
    let outage = report.scenarios.last().expect("outage scenario");
    assert!(outage.retries >= 1, "outage placements must be retried");
    assert!(outage.rollbacks >= 1, "dead grants must be rolled back");
    assert_eq!(outage.quarantines, 1, "device 1 quarantines exactly once");
    assert!(outage.probes >= 2, "quarantine must be probed (heals at 2)");
    assert_eq!(outage.revivals, 1, "the healed device must rejoin");
    report
}

impl ChaosRecoveryReport {
    /// Machine-readable JSON summary (hand-rolled; the workspace has
    /// no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"experiment\": \"chaos_recovery\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"devices\": {},\n", self.devices));
        s.push_str(&format!("  \"arrays\": {},\n", self.arrays));
        s.push_str(&format!(
            "  \"zero_lost_and_bit_identical\": {},\n",
            self.zero_lost_and_bit_identical()
        ));
        s.push_str(&format!(
            "  \"p99_inflation_bounded\": {},\n",
            self.p99_inflation_bounded()
        ));
        s.push_str("  \"scenarios\": [\n");
        for (i, c) in self.scenarios.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"label\": \"{}\", \"fault_rate\": {:.2}, \"submitted\": {}, \
                 \"done\": {}, \"failed\": {}, \"rejected\": {}, \"lost\": {}, \
                 \"retries\": {}, \"degraded\": {}, \"quarantines\": {}, \"probes\": {}, \
                 \"revivals\": {}, \"rollbacks\": {}, \"live_placements\": {}, \
                 \"cold_executions\": {}, \"digest\": \"{:016x}\", \"p99_ms\": {:.3}, \
                 \"wall_s\": {:.4}}}{}\n",
                c.label,
                c.fault_rate,
                c.submitted,
                c.done,
                c.failed,
                c.rejected,
                c.lost,
                c.retries,
                c.degraded,
                c.quarantines,
                c.probes,
                c.revivals,
                c.rollbacks,
                c.live_placements,
                c.cold_executions,
                c.digest,
                c.p99_ms,
                c.wall_s,
                if i + 1 == self.scenarios.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "chaos_recovery: {} requests on {} devices x {} arrays; \
             zero lost + bit-identical: {}, p99 inflation bounded: {}\n\n",
            self.requests,
            self.devices,
            self.arrays,
            self.zero_lost_and_bit_identical(),
            self.p99_inflation_bounded(),
        );
        s.push_str(
            "| scenario | rate | done/lost | retries | degraded | quar/probe/revive | \
             rollbacks | grants live=cold | p99 ms | wall s |\n\
             |---|---|---|---|---|---|---|---|---|---|\n",
        );
        for c in &self.scenarios {
            s.push_str(&format!(
                "| {} | {:.0}% | {}/{} | {} | {} | {}/{}/{} | {} | {}={} | {:.2} | {:.3} |\n",
                c.label,
                c.fault_rate * 100.0,
                c.done,
                c.lost,
                c.retries,
                c.degraded,
                c.quarantines,
                c.probes,
                c.revivals,
                c.rollbacks,
                c.live_placements,
                c.cold_executions,
                c.p99_ms,
                c.wall_s,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_recovery_gate_holds_in_quick_mode() {
        // run() asserts the deterministic gates itself (zero lost,
        // bit-identical, no orphaned grants, quarantine ladder).
        let report = run(42, true);
        assert_eq!(report.scenarios.len(), 4);
        assert!(report.baseline().retries == 0 && report.baseline().degraded == 0);
        let faulted: u64 = report.scenarios[1..3]
            .iter()
            .map(|s| s.retries + s.degraded)
            .sum();
        assert!(faulted > 0, "5%/10% rates must actually inject faults");
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let report = run(7, true);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"chaos_recovery\""));
        assert!(json.contains("\"zero_lost_and_bit_identical\": true"));
        assert!(json.contains("\"scenarios\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
