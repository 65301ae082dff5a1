//! Fleet-scale serving: replay seeded traffic through the two-level
//! [`FleetScheduler`] across device counts and load levels and map
//! the goodput / SLO-compliance frontiers
//! (`results/BENCH_fleet_scaling.json`).
//!
//! Three acceptance gates:
//!
//! * **digest gate** — outputs are bit-identical across every device
//!   count (and to the 1-device reference, which PR 5 proved equal to
//!   the single-device ledger path);
//! * **backfill gate** — look-ahead backfilling strictly reduces the
//!   unreclaimed idle array-cycles left behind by gather waits,
//!   versus the plain FIFO picker, at equal output digests;
//! * **admission gate** — deadline-aware admission achieves strictly
//!   higher SLO compliance than drop-on-timeout at the highest load
//!   point (a timed-out job delivers no value; an admission-rejected
//!   job at least never occupied the arrays).

use std::collections::BTreeMap;

use tempus_core::shard::WidenPolicy;
use tempus_core::TempusConfig;
use tempus_fleet::{FleetConfig, FleetOutcome, FleetScheduler, FleetSummary};
use tempus_models::traffic::{generate, ClassDeadlines, TraceConfig, TraceRequest};
use tempus_nvdla::cube::fnv1a;
use tempus_runtime::{
    ArrayPlanner, BackendKind, EngineConfig, FunctionalBackend, InferenceBackend, Job,
};
use tempus_serve::Request;
use tempus_telemetry::json::{self, Fixed, Hex};

/// Per-class deadlines for the measured (scaling) axis, in device
/// cycles. Sized so every zero-load placement meets its class
/// deadline — narrow convs run up to ~21k cycles at width 1, GEMMs
/// under ~500, network prefixes get batch-tier slack — while deep
/// gather waits and queueing blow it.
fn replay_deadlines() -> ClassDeadlines {
    ClassDeadlines {
        fast: [25_000, 3_000, 2_000_000],
        accurate: [25_000, 3_000, 2_000_000],
    }
}

/// The admission axis's SLO: one interactive tier, 25k device cycles
/// = 100 us on the 250 MHz clock. A uniform deadline is what makes
/// the timeout-vs-admission comparison clean: admission keeps the
/// backlog bounded near the tier's deadline for *every* class, where
/// mixed tiers would only protect the loosest one.
fn interactive_deadline() -> ClassDeadlines {
    ClassDeadlines::uniform(25_000)
}

/// One device-count point on the scaling frontier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalingRow {
    /// Devices in the (fixed) fleet.
    pub devices: usize,
    /// Fleet makespan: the cycle the last device finishes.
    pub makespan_cycles: u64,
    /// Completed jobs per million device-cycles of makespan.
    pub goodput_jobs_per_mcycle: f64,
    /// Busy array-cycles over the fleet's `arrays x makespan` area.
    pub occupancy: f64,
    /// Gather-wait cycles across the fleet.
    pub total_wait_cycles: u64,
    /// Fraction of jobs whose admission-to-finish latency met their
    /// class deadline (measured, not enforced — every job runs).
    pub slo_compliance: f64,
    /// Combined digest over `(job id, output digest)` pairs — equal
    /// across rows proves device count never changes an output bit.
    pub digest: u64,
}

/// FIFO vs backfilling at a fixed device count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackfillRow {
    /// Devices in both fleets.
    pub devices: usize,
    /// Unreclaimed idle array-cycles under the FIFO picker.
    pub fifo_idle_gap_cycles: u64,
    /// Unreclaimed idle array-cycles with backfilling on.
    pub backfill_idle_gap_cycles: u64,
    /// Backfills the scheduler committed.
    pub backfills: u64,
    /// FIFO fleet makespan.
    pub fifo_makespan_cycles: u64,
    /// Backfilling fleet makespan (never worse: a backfill moves no
    /// busy-until clock).
    pub backfill_makespan_cycles: u64,
    /// Outputs stayed bit-identical across the two policies.
    pub digests_equal: bool,
}

/// One load level on the admission frontier: drop-on-timeout vs
/// deadline-aware admission at the same open-loop load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionRow {
    /// Arrival rate as a multiple of the fleet's measured service
    /// rate — above 1.0 the backlog grows without bound, and queueing
    /// delay is what blows deadlines.
    pub load: f64,
    /// Device cycles between consecutive arrivals at this load.
    pub interarrival_cycles: u64,
    /// SLO compliance when every job is admitted and late jobs simply
    /// time out (they still occupied the arrays).
    pub compliance_timeout: f64,
    /// SLO compliance under deadline-aware admission (rejected jobs
    /// count as misses, but never occupy the arrays).
    pub compliance_admission: f64,
    /// Jobs the admission path rejected up front.
    pub rejections: u64,
    /// Jobs meeting their deadline under drop-on-timeout.
    pub met_timeout: u64,
    /// Jobs meeting their deadline under deadline-aware admission.
    pub met_admission: u64,
}

/// The full experiment result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetScalingReport {
    /// Trace seed.
    pub seed: u64,
    /// Requests per trace.
    pub requests: usize,
    /// PE arrays per device.
    pub num_arrays: usize,
    /// Devices used for the backfill and admission comparisons.
    pub comparison_devices: usize,
    /// Device-count frontier (1 device first — the PR 5 reference).
    pub scaling: Vec<ScalingRow>,
    /// FIFO vs backfilling.
    pub backfill: BackfillRow,
    /// Load frontier, lightest first.
    pub admission: Vec<AdmissionRow>,
}

impl FleetScalingReport {
    /// `true` when every device count produced bit-identical outputs.
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.scaling.windows(2).all(|w| w[0].digest == w[1].digest)
    }

    /// `true` when backfilling reclaimed idle array-cycles at equal
    /// digests (the backfill gate).
    #[must_use]
    pub fn backfill_reclaims(&self) -> bool {
        self.backfill.digests_equal
            && self.backfill.backfill_idle_gap_cycles < self.backfill.fifo_idle_gap_cycles
    }

    /// `true` when deadline-aware admission beats drop-on-timeout on
    /// SLO compliance at the highest load point (the admission gate).
    #[must_use]
    pub fn admission_wins(&self) -> bool {
        self.admission
            .last()
            .is_some_and(|row| row.compliance_admission > row.compliance_timeout)
    }
}

/// The replayed trace: mixed wide+narrow, no repeats, fast fidelity
/// only (deterministic admission order), deadlines stamped per class.
fn mixed_trace(seed: u64, requests: usize, wide_fraction: f64) -> Vec<TraceRequest> {
    generate(
        &TraceConfig::new(seed)
            .with_requests(requests)
            .with_repeat_fraction(0.0)
            .with_accurate_fraction(0.0)
            .with_wide_conv_fraction(wide_fraction)
            .with_deadlines(replay_deadlines()),
    )
}

/// The admission axis's trace: interactive conv/GEMM traffic only —
/// the classes that carry tight SLOs. Whole-network prefixes are
/// batch work; their quasi-unbounded deadlines would let them crowd
/// the arrays in *both* admission modes at overload and mask the
/// comparison.
fn interactive_trace(seed: u64, requests: usize, wide_fraction: f64) -> Vec<TraceRequest> {
    generate(&TraceConfig {
        network_weight: 0.0,
        ..TraceConfig::new(seed)
            .with_requests(requests)
            .with_repeat_fraction(0.0)
            .with_accurate_fraction(0.0)
            .with_wide_conv_fraction(wide_fraction)
            .with_deadlines(interactive_deadline())
    })
}

/// One job of the replay, with its stamped deadline.
fn trace_jobs(trace: &[TraceRequest]) -> Vec<(Job, Option<u64>)> {
    trace
        .iter()
        .map(|t| {
            let r = Request::from_trace(t);
            (r.job, r.deadline_cycles)
        })
        .collect()
}

/// The outcome of one fleet replay.
#[derive(Debug, PartialEq)]
struct ReplayOutcome {
    /// Per-job `(granted, latency_cycles, deadline)` for placed jobs;
    /// `None` for admission rejections.
    placed: Vec<Option<(usize, u64, Option<u64>)>>,
    summary: FleetSummary,
}

/// Replays the jobs through a fresh fleet in trace order (all queued
/// at device time 0 — PR 5's queue semantics). `enforce_deadlines`
/// turns the stamped deadlines into admission constraints; otherwise
/// they are only measured against.
fn replay(
    jobs: &[(Job, Option<u64>)],
    engine: &EngineConfig,
    devices: usize,
    backfill: bool,
    enforce_deadlines: bool,
) -> ReplayOutcome {
    let mut planner = ArrayPlanner::new(engine, WidenPolicy::edge_default());
    let mut config = FleetConfig::new(devices, engine.num_arrays);
    if backfill {
        config = config.with_backfill();
    }
    let mut fleet = FleetScheduler::new(config);
    let mut placed = Vec::with_capacity(jobs.len());
    for (job, deadline) in jobs {
        let plan = planner.plan_or_single(job);
        let admitted = fleet.admit(&plan, if enforce_deadlines { *deadline } else { None });
        placed.push(match admitted {
            FleetOutcome::Placed(p) => Some((
                p.placement.assignment.granted,
                p.latency_cycles(),
                *deadline,
            )),
            FleetOutcome::Rejected(_) => None,
        });
    }
    ReplayOutcome {
        placed,
        summary: fleet.summary(),
    }
}

/// Replays the jobs as **open-loop traffic**: job `k` arrives at
/// `k * interarrival_cycles` of device time and is admitted through
/// [`FleetScheduler::admit_at`], so latency (and the deadline, when
/// `enforce_deadlines` is set) includes the queueing delay behind
/// whatever backlog has built up.
fn replay_paced(
    jobs: &[(Job, Option<u64>)],
    engine: &EngineConfig,
    devices: usize,
    interarrival_cycles: u64,
    enforce_deadlines: bool,
) -> ReplayOutcome {
    let mut planner = ArrayPlanner::new(engine, WidenPolicy::edge_default());
    let mut fleet = FleetScheduler::new(FleetConfig::new(devices, engine.num_arrays));
    let mut placed = Vec::with_capacity(jobs.len());
    for (k, (job, deadline)) in jobs.iter().enumerate() {
        let plan = planner.plan_or_single(job);
        let arrival = k as u64 * interarrival_cycles;
        let admitted = fleet.admit_at(
            &plan,
            if enforce_deadlines { *deadline } else { None },
            arrival,
        );
        placed.push(match admitted {
            FleetOutcome::Placed(p) => Some((
                p.placement.assignment.granted,
                p.latency_cycles(),
                *deadline,
            )),
            FleetOutcome::Rejected(_) => None,
        });
    }
    ReplayOutcome {
        placed,
        summary: fleet.summary(),
    }
}

/// Executes every placed job at its granted width and digests the
/// `(job id, output digest)` pairs in id order.
fn replay_digest(jobs: &[(Job, Option<u64>)], outcome: &ReplayOutcome, num_arrays: usize) -> u64 {
    let mut backend =
        FunctionalBackend::new(TempusConfig::nv_small(), (8, 8)).with_arrays(num_arrays);
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    for ((job, _), slot) in jobs.iter().zip(&outcome.placed) {
        if let Some((granted, _, _)) = slot {
            let result = backend
                .execute_on(job, (*granted).max(1))
                .expect("trace jobs are well-shaped");
            digests.insert(job.id, result.output.digest());
        }
    }
    fnv1a(digests.iter().flat_map(|(&id, &d)| [id, d]))
}

/// Jobs whose measured latency met their deadline (jobs without a
/// deadline always count as met; rejections never do).
fn met_deadlines(outcome: &ReplayOutcome) -> u64 {
    outcome
        .placed
        .iter()
        .filter(|slot| {
            slot.as_ref()
                .is_some_and(|(_, latency, deadline)| deadline.is_none_or(|d| *latency <= d))
        })
        .count() as u64
}

/// Runs the experiment. `quick` shrinks the trace for CI smoke runs —
/// the three gates are the invariant there, not timing.
#[must_use]
pub fn run(seed: u64, quick: bool) -> FleetScalingReport {
    let requests = if quick { 60 } else { 240 };
    let num_arrays = 8;
    let comparison_devices = 2;
    let device_axis: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let engine = EngineConfig::new(BackendKind::FastFunctional).with_arrays(num_arrays);

    // Scaling frontier: the base trace, deadlines measured only.
    let base = trace_jobs(&mixed_trace(seed, requests, 0.35));
    let scaling: Vec<ScalingRow> = device_axis
        .iter()
        .map(|&devices| {
            let outcome = replay(&base, &engine, devices, false, false);
            let combined = outcome.summary.combined();
            let completed = outcome.placed.iter().flatten().count() as u64;
            ScalingRow {
                devices,
                makespan_cycles: combined.makespan_cycles,
                goodput_jobs_per_mcycle: completed as f64 * 1e6
                    / combined.makespan_cycles.max(1) as f64,
                occupancy: combined.occupancy(),
                total_wait_cycles: combined.wait_cycles,
                slo_compliance: met_deadlines(&outcome) as f64 / base.len() as f64,
                digest: replay_digest(&base, &outcome, num_arrays),
            }
        })
        .collect();

    // Backfill gate: FIFO vs backfilling on the comparison fleet.
    let fifo = replay(&base, &engine, comparison_devices, false, false);
    let filled = replay(&base, &engine, comparison_devices, true, false);
    let backfill = BackfillRow {
        devices: comparison_devices,
        fifo_idle_gap_cycles: fifo.summary.combined().idle_gap_cycles,
        backfill_idle_gap_cycles: filled.summary.combined().idle_gap_cycles,
        backfills: filled.summary.backfills(),
        fifo_makespan_cycles: fifo.summary.combined().makespan_cycles,
        backfill_makespan_cycles: filled.summary.combined().makespan_cycles,
        digests_equal: replay_digest(&base, &fifo, num_arrays)
            == replay_digest(&base, &filled, num_arrays),
    };

    // Admission frontier: open-loop interactive arrivals at rising
    // load, timeout vs admission. The service rate is calibrated from
    // an unpaced FIFO replay of the same trace: `makespan / requests`
    // device-cycles per job at full utilization on the comparison
    // fleet.
    // The paced replays never execute payloads (planning and
    // admission only), so this axis affords a 4x longer trace — long
    // enough for overload to build a backlog well past the 25k-cycle
    // interactive deadline.
    let interactive = trace_jobs(&interactive_trace(seed ^ 0xF1EE7, requests * 4, 0.35));
    let saturated = replay(&interactive, &engine, comparison_devices, false, false);
    let service_per_job =
        (saturated.summary.combined().makespan_cycles / interactive.len() as u64).max(1);
    let admission: Vec<AdmissionRow> = [0.5, 1.0, 2.0]
        .iter()
        .map(|&load| {
            let interarrival = ((service_per_job as f64 / load) as u64).max(1);
            let timeout = replay_paced(
                &interactive,
                &engine,
                comparison_devices,
                interarrival,
                false,
            );
            let admitted = replay_paced(
                &interactive,
                &engine,
                comparison_devices,
                interarrival,
                true,
            );
            let met_timeout = met_deadlines(&timeout);
            let met_admission = met_deadlines(&admitted);
            AdmissionRow {
                load,
                interarrival_cycles: interarrival,
                compliance_timeout: met_timeout as f64 / interactive.len() as f64,
                compliance_admission: met_admission as f64 / interactive.len() as f64,
                rejections: admitted.summary.rejections,
                met_timeout,
                met_admission,
            }
        })
        .collect();

    FleetScalingReport {
        seed,
        requests,
        num_arrays,
        comparison_devices,
        scaling,
        backfill,
        admission,
    }
}

impl FleetScalingReport {
    /// Machine-readable JSON summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("experiment", "fleet_scaling")
                .field("seed", self.seed)
                .field("requests", self.requests)
                .field("num_arrays", self.num_arrays)
                .field("comparison_devices", self.comparison_devices)
                .field("digests_equal", self.digests_equal())
                .field("backfill_reclaims", self.backfill_reclaims())
                .field("admission_wins", self.admission_wins());
            o.array("scaling", |a| {
                for r in &self.scaling {
                    a.object(|o| {
                        o.field("devices", r.devices)
                            .field("makespan_cycles", r.makespan_cycles)
                            .field(
                                "goodput_jobs_per_mcycle",
                                Fixed(r.goodput_jobs_per_mcycle, 3),
                            )
                            .field("occupancy", Fixed(r.occupancy, 4))
                            .field("total_wait_cycles", r.total_wait_cycles)
                            .field("slo_compliance", Fixed(r.slo_compliance, 4))
                            .field("digest", Hex(r.digest));
                    });
                }
            });
            let b = &self.backfill;
            o.object("backfill", |o| {
                o.field("devices", b.devices)
                    .field("fifo_idle_gap_cycles", b.fifo_idle_gap_cycles)
                    .field("backfill_idle_gap_cycles", b.backfill_idle_gap_cycles)
                    .field("backfills", b.backfills)
                    .field("fifo_makespan_cycles", b.fifo_makespan_cycles)
                    .field("backfill_makespan_cycles", b.backfill_makespan_cycles)
                    .field("digests_equal", b.digests_equal);
            });
            o.array("admission", |a| {
                for r in &self.admission {
                    a.object(|o| {
                        o.field("load", Fixed(r.load, 2))
                            .field("interarrival_cycles", r.interarrival_cycles)
                            .field("compliance_timeout", Fixed(r.compliance_timeout, 4))
                            .field("compliance_admission", Fixed(r.compliance_admission, 4))
                            .field("rejections", r.rejections)
                            .field("met_timeout", r.met_timeout)
                            .field("met_admission", r.met_admission);
                    });
                }
            });
        })
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "fleet_scaling: {} requests on {}-array devices; digests equal \
             across device counts: {}, backfill reclaims idle cycles: {}, \
             deadline admission wins at peak load: {}\n\n",
            self.requests,
            self.num_arrays,
            self.digests_equal(),
            self.backfill_reclaims(),
            self.admission_wins(),
        );
        s.push_str("| devices | makespan cycles | goodput/Mcycle | occupancy | wait cycles | SLO compliance |\n");
        s.push_str("|---|---|---|---|---|---|\n");
        for r in &self.scaling {
            s.push_str(&format!(
                "| {} | {} | {:.1} | {:.0}% | {} | {:.0}% |\n",
                r.devices,
                r.makespan_cycles,
                r.goodput_jobs_per_mcycle,
                r.occupancy * 100.0,
                r.total_wait_cycles,
                r.slo_compliance * 100.0,
            ));
        }
        s.push_str(&format!(
            "\nbackfill ({} devices): idle gap cycles {} -> {} ({} backfills), \
             makespan {} -> {}\n\n",
            self.backfill.devices,
            self.backfill.fifo_idle_gap_cycles,
            self.backfill.backfill_idle_gap_cycles,
            self.backfill.backfills,
            self.backfill.fifo_makespan_cycles,
            self.backfill.backfill_makespan_cycles,
        ));
        s.push_str("| load | timeout compliance | admission compliance | rejections |\n");
        s.push_str("|---|---|---|---|\n");
        for r in &self.admission {
            s.push_str(&format!(
                "| {:.2}x | {:.0}% | {:.0}% | {} |\n",
                r.load,
                r.compliance_timeout * 100.0,
                r.compliance_admission * 100.0,
                r.rejections,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_gates_hold_in_smoke_mode() {
        let report = run(42, true);
        assert!(report.digests_equal(), "device count changed an output bit");
        assert!(report.to_json().contains("\"digests_equal\": true"));
        assert!(
            report.backfill_reclaims(),
            "backfilling must reclaim idle array-cycles at equal digests: {} -> {}",
            report.backfill.fifo_idle_gap_cycles,
            report.backfill.backfill_idle_gap_cycles,
        );
        assert!(
            report.admission_wins(),
            "deadline admission must beat drop-on-timeout at peak load: {:?}",
            report.admission.last(),
        );
        // A backfill never delays anyone, so the makespan never grows.
        assert!(report.backfill.backfill_makespan_cycles <= report.backfill.fifo_makespan_cycles);
        // More devices: makespan falls monotonically, goodput rises.
        for w in report.scaling.windows(2) {
            assert!(w[1].makespan_cycles <= w[0].makespan_cycles);
            assert!(w[1].goodput_jobs_per_mcycle >= w[0].goodput_jobs_per_mcycle);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let engine = EngineConfig::new(BackendKind::FastFunctional).with_arrays(8);
        let jobs = trace_jobs(&mixed_trace(7, 40, 0.35));
        let a = replay(&jobs, &engine, 3, true, true);
        let b = replay(&jobs, &engine, 3, true, true);
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.summary, b.summary);
        let c = replay_paced(&jobs, &engine, 3, 2000, true);
        let d = replay_paced(&jobs, &engine, 3, 2000, true);
        assert_eq!(c.placed, d.placed);
        assert_eq!(c.summary, d.summary);
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let report = FleetScalingReport {
            scaling: vec![ScalingRow::default()],
            admission: vec![AdmissionRow::default()],
            ..FleetScalingReport::default()
        };
        let committed = include_str!("../../../../results/BENCH_fleet_scaling.json");
        crate::assert_keys_match(&report.to_json(), committed);
    }
}
