//! Energy-latency Pareto co-scheduling: per-array DVFS domains,
//! power-capped admission and speculative answer-now-verify-later
//! serving, gated in `results/BENCH_dvfs_pareto.json`.
//!
//! Four sections:
//!
//! * **identity** — with the governor, the power cap and speculation
//!   all off, the serving stack replays a seeded trace bit-identically
//!   (equal output digests across two fresh services) with zero
//!   frequency changes and zero residency above the nominal ladder
//!   level — the "DVFS off means PR-state-quo" acceptance gate;
//! * **power** — a closed-form fleet stream under a cap at 60% of the
//!   uncapped peak power: admission walks the width × ladder grid and
//!   commits the lowest-energy deadline-feasible level, cutting
//!   planned energy ≥ 25% at ≤ 1.5× latency inflation with zero
//!   rejections;
//! * **speculative** — answer-now-verify-later serving answers
//!   accurate-fidelity requests from the bit-identical functional
//!   backend immediately, cutting accurate-class p50 ≥ 3× with zero
//!   digest mismatches and zero lost requests;
//! * **governor** — the occupancy-driven governor downshifts
//!   idle-heavy arrays on a sparse open-loop stream (frequency
//!   changes and sub-nominal residency both non-zero).

use std::collections::BTreeMap;
use std::time::Duration;

use tempus_core::shard::BudgetPlan;
use tempus_fleet::{FleetConfig, FleetOutcome, FleetScheduler};
use tempus_models::traffic::{generate, TraceConfig, TraceRequest};
use tempus_nvdla::cube::fnv1a;
use tempus_serve::{
    percentile, Fidelity, GovernorPolicy, Request, ResponseOutcome, ServeConfig, ServeStats,
    StreamingService,
};
use tempus_telemetry::json::{self, Fixed, Hex};

/// Nanoseconds per nominal device cycle (250 MHz).
const PERIOD_NS: f64 = 4.0;

/// Section A: bit-identity with every DVFS feature off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdentitySection {
    /// Requests replayed per run.
    pub requests: usize,
    /// Combined `(job id, output digest)` digest of the first run.
    pub digest_a: u64,
    /// Same digest from a second fresh service over the same trace.
    pub digest_b: u64,
    /// Governor frequency transitions across both runs (must be 0).
    pub freq_changes: u64,
    /// Device array-cycles held above ladder level 0 across both runs
    /// (must be 0 — everything runs at the nominal clock).
    pub upper_residency_cycles: u64,
}

/// One (frequency level, latency, energy) point of the plan's Pareto
/// frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParetoRow {
    /// DVFS ladder level.
    pub level: u8,
    /// Critical-path latency at the level, nominal device cycles.
    pub latency_cycles: u64,
    /// Total (dynamic + static) energy at the level, pJ.
    pub energy_pj: u64,
    /// Average power over the placement, mW.
    pub avg_power_mw: f64,
}

/// Section B: power-capped admission on a closed-form fleet stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerSection {
    /// Jobs admitted per run.
    pub jobs: usize,
    /// The fleet-wide power cap, mW (60% of the uncapped peak).
    pub cap_mw: f64,
    /// Peak concurrent power of the uncapped run, mW.
    pub uncapped_peak_power_mw: f64,
    /// Peak concurrent power of the capped run, mW.
    pub capped_peak_power_mw: f64,
    /// Planned energy of the uncapped run, pJ.
    pub uncapped_energy_pj: u64,
    /// Planned energy of the capped run, pJ.
    pub capped_energy_pj: u64,
    /// Fractional energy saving of the capped run (gate: ≥ 0.25).
    pub energy_drop: f64,
    /// Per-job latency of the uncapped run, device cycles.
    pub uncapped_latency_cycles: u64,
    /// Per-job latency of the capped run, device cycles.
    pub capped_latency_cycles: u64,
    /// Capped-over-uncapped latency multiple (gate: ≤ 1.5).
    pub latency_inflation: f64,
    /// The ladder level every capped placement committed at.
    pub chosen_level: u8,
    /// Admissions refused in the capped run (gate: 0).
    pub rejections: u64,
    /// The plan's full (latency, energy) Pareto frontier at width 1.
    pub frontier: Vec<ParetoRow>,
}

/// Section C: answer-now-verify-later serving.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeculativeSection {
    /// Requests replayed per pass.
    pub requests: usize,
    /// Accurate-fidelity requests in the trace.
    pub accurate: u64,
    /// `true` when baseline and speculative output digests agree on
    /// every job (the answer the client heard is bit-identical to the
    /// accurate execution's).
    pub digests_equal: bool,
    /// Baseline accurate-class median latency, ns.
    pub baseline_p50_ns: u64,
    /// Speculative accurate-class median latency, ns.
    pub speculative_p50_ns: u64,
    /// Baseline-over-speculative p50 multiple (gate: ≥ 3).
    pub p50_speedup: f64,
    /// Requests the client heard answered speculatively.
    pub answers: u64,
    /// Closed answer/verify rendezvous whose digests agreed.
    pub verified: u64,
    /// Closed rendezvous whose digests disagreed (gate: 0).
    pub mismatches: u64,
    /// Requests lost across both passes (gate: 0).
    pub failed: u64,
}

/// Section D: the occupancy-driven governor on a sparse stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GovernorSection {
    /// Jobs admitted.
    pub jobs: usize,
    /// Frequency transitions the governor committed (gate: ≥ 1).
    pub freq_changes: u64,
    /// Array-cycles held below the nominal clock (gate: > 0).
    pub downshifted_residency_cycles: u64,
}

/// The full experiment result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DvfsParetoReport {
    /// Trace seed.
    pub seed: u64,
    /// Section A.
    pub identity: IdentitySection,
    /// Section B.
    pub power: PowerSection,
    /// Section C.
    pub speculative: SpeculativeSection,
    /// Section D.
    pub governor: GovernorSection,
}

/// Replays `trace` closed-loop (submit as fast as backpressure
/// allows) through a fresh service, returning the combined output
/// digest, the accurate-class latencies (ns) and the post-shutdown
/// stats.
fn replay(config: ServeConfig, trace: &[TraceRequest]) -> (u64, Vec<u64>, ServeStats) {
    let service = StreamingService::start(config).expect("service starts");
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut accurate_ns: Vec<u64> = Vec::new();
    let mut outstanding = 0usize;
    let consume = |response: tempus_serve::Response,
                   digests: &mut BTreeMap<u64, u64>,
                   accurate_ns: &mut Vec<u64>| {
        match response.outcome {
            ResponseOutcome::Done(result) => {
                digests.insert(response.job_id, result.output.digest());
                if response.class.fidelity == Fidelity::Accurate {
                    accurate_ns.push(response.total_ns);
                }
            }
            ResponseOutcome::Rejected(reason) => panic!("request rejected: {reason:?}"),
            ResponseOutcome::Failed(error) => panic!("request failed: {error}"),
        }
    };
    for t in trace {
        service
            .submit(Request::from_trace(t))
            .expect("service accepts (blocking submit)");
        outstanding += 1;
        while let Some(response) = service.recv_response(Duration::ZERO) {
            outstanding -= 1;
            consume(response, &mut digests, &mut accurate_ns);
        }
    }
    while outstanding > 0 {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("responses drain");
        outstanding -= 1;
        consume(response, &mut digests, &mut accurate_ns);
    }
    let (stats, leftover) = service.shutdown();
    assert!(leftover.is_empty(), "every response was drained");
    let digest = fnv1a(digests.iter().flat_map(|(&id, &d)| [id, d]));
    (digest, accurate_ns, stats)
}

/// Section A: two fresh DVFS-default services over the same trace.
fn run_identity(seed: u64, requests: usize) -> IdentitySection {
    let trace = generate(
        &TraceConfig::new(seed)
            .with_requests(requests)
            .with_repeat_fraction(0.5)
            .with_accurate_fraction(0.03),
    );
    let config = || {
        ServeConfig::new()
            .with_workers(4)
            .with_arrays(4)
            .with_co_scheduling()
            .with_queue_capacity(64)
    };
    let (digest_a, _, stats_a) = replay(config(), &trace);
    let (digest_b, _, stats_b) = replay(config(), &trace);
    let upper = |s: &ServeStats| s.device.level_residency[1..].iter().copied().sum::<u64>();
    IdentitySection {
        requests,
        digest_a,
        digest_b,
        freq_changes: stats_a.device.freq_changes + stats_b.device.freq_changes,
        upper_residency_cycles: upper(&stats_a) + upper(&stats_b),
    }
}

/// The closed-form plan both power runs admit: 1000 critical-path
/// cycles with a calibrated 97 nJ dynamic / 3 nJ static energy split
/// — 100 nJ over 4 µs, a 25 mW nominal operating point.
fn energy_plan() -> BudgetPlan {
    let mut plan = BudgetPlan::single(1000);
    plan.widths[0].dynamic_energy_pj = 97_000;
    plan.widths[0].static_energy_pj = 3_000;
    plan
}

/// Section B: the same sparse stream uncapped, then under a cap at
/// 60% of the uncapped peak with a 1.5× deadline.
fn run_power(jobs: usize) -> PowerSection {
    let plan = energy_plan();
    let spacing = 2_500u64; // > any stretched duration: no overlap

    let mut uncapped = FleetScheduler::new(FleetConfig::new(1, 1));
    let mut uncapped_latency = 0u64;
    for i in 0..jobs {
        match uncapped.admit_at(&plan, None, i as u64 * spacing) {
            FleetOutcome::Placed(p) => uncapped_latency = uncapped_latency.max(p.latency_cycles()),
            FleetOutcome::Rejected(miss) => panic!("uncapped admission rejected: {miss:?}"),
        }
    }
    let uncapped_summary = uncapped.summary();

    let cap_mw = uncapped_summary.peak_power_mw * 0.6;
    let deadline = uncapped_latency * 3 / 2;
    let mut capped = FleetScheduler::new(FleetConfig::new(1, 1).with_power_cap(cap_mw));
    let mut capped_latency = 0u64;
    let mut chosen_level = 0u8;
    for i in 0..jobs {
        match capped.admit_at(&plan, Some(deadline), i as u64 * spacing) {
            FleetOutcome::Placed(p) => {
                capped_latency = capped_latency.max(p.latency_cycles());
                chosen_level = chosen_level.max(p.placement.freq_level);
            }
            FleetOutcome::Rejected(miss) => panic!("capped admission rejected: {miss:?}"),
        }
    }
    let capped_summary = capped.summary();

    let frontier = plan
        .pareto_at(1)
        .into_iter()
        .map(|p| ParetoRow {
            level: p.level,
            latency_cycles: p.latency_cycles,
            energy_pj: p.energy_pj,
            avg_power_mw: p.energy_pj as f64 / (p.latency_cycles as f64 * PERIOD_NS),
        })
        .collect();

    PowerSection {
        jobs,
        cap_mw,
        uncapped_peak_power_mw: uncapped_summary.peak_power_mw,
        capped_peak_power_mw: capped_summary.peak_power_mw,
        uncapped_energy_pj: uncapped_summary.planned_energy_pj,
        capped_energy_pj: capped_summary.planned_energy_pj,
        energy_drop: 1.0
            - capped_summary.planned_energy_pj as f64
                / uncapped_summary.planned_energy_pj.max(1) as f64,
        uncapped_latency_cycles: uncapped_latency,
        capped_latency_cycles: capped_latency,
        latency_inflation: capped_latency as f64 / uncapped_latency.max(1) as f64,
        chosen_level,
        rejections: capped_summary.rejections + uncapped_summary.rejections,
        frontier,
    }
}

/// Section C: the same accurate-heavy trace through a baseline and a
/// speculative service.
fn run_speculative(seed: u64, requests: usize) -> SpeculativeSection {
    // An interactive accurate burst: every request wants the
    // cycle-accurate answer for a whole-network payload — the shape
    // speculation exists for. Closed-loop, the baseline serializes
    // them behind the accurate admission cap (each request queues for
    // every simulation in front of it), while the speculative service
    // answers each request from the functional backend the moment it
    // is admitted or deferred. Network payloads only: conv/GEMM
    // micro-jobs finish in the same wall-clock band on both backends
    // and would only add noise to the p50 comparison.
    let mut trace_config = TraceConfig::new(seed ^ 0x5bec)
        .with_requests(requests)
        .with_repeat_fraction(0.0)
        .with_accurate_fraction(1.0);
    trace_config.conv_weight = 0.0;
    trace_config.gemm_weight = 0.0;
    trace_config.network_weight = 1.0;
    let trace = generate(&trace_config);
    let config = || {
        ServeConfig::new()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_admission(1, 64)
            .with_drain_timeout(Duration::from_secs(120))
    };
    let (base_digest, base_accurate, base_stats) = replay(config(), &trace);
    let (spec_digest, spec_accurate, spec_stats) = replay(config().with_speculative(), &trace);

    let mut base_sorted = base_accurate;
    base_sorted.sort_unstable();
    let mut spec_sorted = spec_accurate;
    spec_sorted.sort_unstable();
    let baseline_p50_ns = percentile(&base_sorted, 50.0);
    let speculative_p50_ns = percentile(&spec_sorted, 50.0);

    SpeculativeSection {
        requests,
        accurate: base_sorted.len() as u64,
        digests_equal: base_digest == spec_digest,
        baseline_p50_ns,
        speculative_p50_ns,
        p50_speedup: baseline_p50_ns as f64 / speculative_p50_ns.max(1) as f64,
        answers: spec_stats.speculative_answers,
        verified: spec_stats.speculative_verified,
        mismatches: spec_stats.speculative_mismatches,
        failed: base_stats.failed + spec_stats.failed,
    }
}

/// Section D: a sparse open-loop single-array stream under the edge
/// governor — the arrays idle ~90% of the time, so the governor walks
/// them down the ladder.
fn run_governor(jobs: usize) -> GovernorSection {
    let mut fleet = FleetScheduler::new(
        FleetConfig::new(1, 1).with_freq_governor(GovernorPolicy::edge_default()),
    );
    let plan = BudgetPlan::single(100);
    for i in 0..jobs {
        match fleet.admit_at(&plan, None, i as u64 * 1_000) {
            FleetOutcome::Placed(_) => {}
            FleetOutcome::Rejected(miss) => panic!("governor stream rejected: {miss:?}"),
        }
    }
    let combined = fleet.summary().combined();
    GovernorSection {
        jobs,
        freq_changes: combined.freq_changes,
        downshifted_residency_cycles: combined.level_residency[1..].iter().copied().sum(),
    }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics when a request is rejected or fails, or when an admission
/// the gates require is refused — all contract violations.
#[must_use]
pub fn run(seed: u64, quick: bool) -> DvfsParetoReport {
    let identity = run_identity(seed, if quick { 30 } else { 80 });
    let power = run_power(if quick { 6 } else { 12 });
    let speculative = run_speculative(seed, if quick { 24 } else { 60 });
    let governor = run_governor(if quick { 24 } else { 48 });
    DvfsParetoReport {
        seed,
        identity,
        power,
        speculative,
        governor,
    }
}

impl DvfsParetoReport {
    /// Gate (a): DVFS defaults replay bit-identically with zero
    /// frequency activity.
    #[must_use]
    pub fn identity_holds(&self) -> bool {
        self.identity.digest_a == self.identity.digest_b
            && self.identity.freq_changes == 0
            && self.identity.upper_residency_cycles == 0
    }

    /// Gate (b): the 60% power cap cuts planned energy ≥ 25% at
    /// ≤ 1.5× latency inflation with zero rejections, and the capped
    /// peak actually sits under the cap.
    #[must_use]
    pub fn power_gate_holds(&self) -> bool {
        self.power.energy_drop >= 0.25
            && self.power.latency_inflation <= 1.5 + 1e-9
            && self.power.rejections == 0
            && self.power.capped_peak_power_mw <= self.power.cap_mw + 1e-9
    }

    /// Gate (c): speculation cuts accurate-class p50 ≥ 3× at equal
    /// digests, with every closed rendezvous agreeing and zero lost
    /// requests.
    #[must_use]
    pub fn speculative_gate_holds(&self) -> bool {
        self.speculative.p50_speedup >= 3.0
            && self.speculative.digests_equal
            && self.speculative.mismatches == 0
            && self.speculative.answers > 0
            && self.speculative.verified >= self.speculative.answers
            && self.speculative.failed == 0
    }

    /// The governor demonstrably ran: transitions committed and
    /// sub-nominal residency accrued.
    #[must_use]
    pub fn governor_active(&self) -> bool {
        self.governor.freq_changes >= 1 && self.governor.downshifted_residency_cycles > 0
    }

    /// Machine-readable JSON summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("experiment", "dvfs_pareto")
                .field("seed", self.seed);
            let id = &self.identity;
            o.object("identity", |o| {
                o.field("requests", id.requests)
                    .field("digest", Hex(id.digest_a))
                    .field("digests_equal", id.digest_a == id.digest_b)
                    .field("freq_changes", id.freq_changes)
                    .field("upper_residency_cycles", id.upper_residency_cycles);
            });
            let p = &self.power;
            o.object("power", |o| {
                o.field("jobs", p.jobs)
                    .field("cap_mw", Fixed(p.cap_mw, 2))
                    .field("uncapped_peak_power_mw", Fixed(p.uncapped_peak_power_mw, 2))
                    .field("capped_peak_power_mw", Fixed(p.capped_peak_power_mw, 2))
                    .field("uncapped_energy_pj", p.uncapped_energy_pj)
                    .field("capped_energy_pj", p.capped_energy_pj)
                    .field("energy_drop", Fixed(p.energy_drop, 4))
                    .field("uncapped_latency_cycles", p.uncapped_latency_cycles)
                    .field("capped_latency_cycles", p.capped_latency_cycles)
                    .field("latency_inflation", Fixed(p.latency_inflation, 4))
                    .field("chosen_level", p.chosen_level)
                    .field("rejections", p.rejections);
                o.array("frontier", |a| {
                    for r in &p.frontier {
                        a.object(|o| {
                            o.field("level", r.level)
                                .field("latency_cycles", r.latency_cycles)
                                .field("energy_pj", r.energy_pj)
                                .field("avg_power_mw", Fixed(r.avg_power_mw, 2));
                        });
                    }
                });
            });
            let s = &self.speculative;
            o.object("speculative", |o| {
                o.field("requests", s.requests)
                    .field("accurate", s.accurate)
                    .field("digests_equal", s.digests_equal)
                    .field("baseline_p50_ns", s.baseline_p50_ns)
                    .field("speculative_p50_ns", s.speculative_p50_ns)
                    .field("p50_speedup", Fixed(s.p50_speedup, 2))
                    .field("answers", s.answers)
                    .field("verified", s.verified)
                    .field("mismatches", s.mismatches)
                    .field("failed", s.failed);
            });
            let g = &self.governor;
            o.object("governor", |o| {
                o.field("jobs", g.jobs)
                    .field("freq_changes", g.freq_changes)
                    .field(
                        "downshifted_residency_cycles",
                        g.downshifted_residency_cycles,
                    );
            });
            o.object("gates", |o| {
                o.field("identity", self.identity_holds())
                    .field("power", self.power_gate_holds())
                    .field("speculative", self.speculative_gate_holds())
                    .field("governor", self.governor_active());
            });
        })
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "dvfs_pareto: identity {}, power cap {:.1} mW saves {:.0}% energy at \
             {:.2}x latency (level {}), speculative p50 {:.1}x faster, governor \
             {} freq changes\n\n",
            if self.identity_holds() {
                "holds"
            } else {
                "VIOLATED"
            },
            self.power.cap_mw,
            self.power.energy_drop * 100.0,
            self.power.latency_inflation,
            self.power.chosen_level,
            self.speculative.p50_speedup,
            self.governor.freq_changes,
        );
        s.push_str("| level | latency cyc | energy pJ | avg mW |\n|---|---|---|---|\n");
        for r in &self.power.frontier {
            s.push_str(&format!(
                "| L{} | {} | {} | {:.2} |\n",
                r.level, r.latency_cycles, r.energy_pj, r.avg_power_mw
            ));
        }
        s.push_str(&format!(
            "\nspeculative: {} accurate requests, baseline p50 {:.3} ms vs \
             speculative {:.3} ms, {} answers / {} verified / {} mismatches\n\
             governor: {} sparse jobs, {} downshifted array-cycles\n",
            self.speculative.accurate,
            self.speculative.baseline_p50_ns as f64 * 1e-6,
            self.speculative.speculative_p50_ns as f64 * 1e-6,
            self.speculative.answers,
            self.speculative.verified,
            self.speculative.mismatches,
            self.governor.jobs,
            self.governor.downshifted_residency_cycles,
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_every_gate() {
        let report = run(42, true);
        assert!(report.identity_holds(), "identity: {:?}", report.identity);
        assert!(report.power_gate_holds(), "power: {:?}", report.power);
        assert!(
            report.speculative_gate_holds(),
            "speculative: {:?}",
            report.speculative
        );
        assert!(report.governor_active(), "governor: {:?}", report.governor);
        // The closed-form arithmetic is pinned: the 15 mW cap forces
        // L2 (3/2 stretch, 0.8 voltage) — 65.68 nJ per job at 1500
        // cycles against 100 nJ at 1000.
        assert_eq!(report.power.chosen_level, 2);
        assert_eq!(
            report.power.capped_energy_pj,
            65_680 * report.power.jobs as u64
        );
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let mut report = DvfsParetoReport::default();
        report.power.frontier.push(ParetoRow::default());
        let committed = include_str!("../../../../results/BENCH_dvfs_pareto.json");
        crate::assert_keys_match(&report.to_json(), committed);
    }
}
