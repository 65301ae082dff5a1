//! Per-class latency percentiles, SLO accounting and service
//! counters.

use std::fmt;

use tempus_fleet::FleetSummary;
use tempus_models::traffic::ClassDeadlines;
use tempus_runtime::stats::PERIOD_NS;
use tempus_runtime::DeviceSummary;
use tempus_telemetry::{Reservoir, SplitMix64, TelemetrySummary};

use crate::cache::ResultCacheStats;
use crate::class::{Fidelity, JobClass, PayloadKind};
use crate::request::RejectReason;

/// One completed request's array accounting, bundled so the recorder
/// and the dispatcher agree on what a completion carries.
#[derive(Debug, Clone, Copy)]
pub struct ArrayUse {
    /// PE arrays the execution occupied.
    pub shards: usize,
    /// Work balance across those arrays.
    pub utilization: f64,
    /// Arrays the array-slot scheduler granted.
    pub granted: usize,
    /// Device cycles spent waiting to gather the grant.
    pub wait_cycles: u64,
    /// Peak scratch elements of the execution (0 on conv jobs and
    /// cache hits).
    pub peak_scratch_elems: u64,
    /// Modelled energy of the execution, pJ (0 on cache hits and
    /// coalesced waiters — the energy was spent once, on the
    /// primary).
    pub energy_pj: f64,
    /// The switching share of `energy_pj`.
    pub dynamic_energy_pj: f64,
    /// The leakage share of `energy_pj`
    /// (`energy_pj == dynamic_energy_pj + static_energy_pj`).
    pub static_energy_pj: f64,
}

impl ArrayUse {
    /// The single-array default (cache hits on a 1-array socket,
    /// empty classes).
    #[must_use]
    pub fn single() -> Self {
        ArrayUse {
            shards: 1,
            utilization: 1.0,
            granted: 1,
            wait_cycles: 0,
            peak_scratch_elems: 0,
            energy_pj: 0.0,
            dynamic_energy_pj: 0.0,
            static_energy_pj: 0.0,
        }
    }
}

/// Per-class latency SLO targets, on end-to-end request latency
/// (admission to response), in nanoseconds.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    targets_ns: [u64; 6],
}

impl SloPolicy {
    /// Default targets: single-digit milliseconds on the fast path,
    /// generous sub-second/second budgets for cycle-accurate
    /// simulation (it is a debugging fidelity, not a latency one).
    #[must_use]
    pub fn edge_defaults() -> Self {
        let mut targets_ns = [0u64; 6];
        for class in JobClass::ALL {
            targets_ns[class.index()] = match (class.fidelity, class.payload) {
                (Fidelity::Fast, PayloadKind::Conv | PayloadKind::Gemm) => 5_000_000,
                (Fidelity::Fast, PayloadKind::Network) => 25_000_000,
                (Fidelity::Accurate, PayloadKind::Conv | PayloadKind::Gemm) => 500_000_000,
                (Fidelity::Accurate, PayloadKind::Network) => 4_000_000_000,
            };
        }
        SloPolicy { targets_ns }
    }

    /// Overrides one class's target (builder style).
    #[must_use]
    pub fn with_target(mut self, class: JobClass, target_ns: u64) -> Self {
        self.targets_ns[class.index()] = target_ns;
        self
    }

    /// The target for `class`, in ns.
    #[must_use]
    pub fn target_ns(&self, class: JobClass) -> u64 {
        self.targets_ns[class.index()]
    }

    /// The SLO targets converted to per-class **device-cycle
    /// deadlines** at the paper's 250 MHz clock (4 ns per cycle) —
    /// what deadline-aware fleet admission checks predicted finish
    /// times against, and what
    /// [`TraceConfig::with_deadlines`](tempus_models::traffic::TraceConfig::with_deadlines)
    /// stamps onto generated traffic.
    #[must_use]
    pub fn device_deadlines(&self) -> ClassDeadlines {
        let cycles = |i: usize| (self.targets_ns[i] as f64 / PERIOD_NS) as u64;
        ClassDeadlines {
            fast: [cycles(0), cycles(1), cycles(2)],
            accurate: [cycles(3), cycles(4), cycles(5)],
        }
    }
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy::edge_defaults()
    }
}

/// The one nearest-rank percentile definition the service and the
/// bench harness share, so their reported p50/p95/p99 agree on the
/// same data.
pub use tempus_telemetry::percentile;

/// One class's latency snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// The class.
    pub class: JobClass,
    /// Requests completed (cache hits included).
    pub completed: u64,
    /// Of the completed, answered from the result cache.
    pub cache_hits: u64,
    /// Of the completed, coalesced onto an identical in-flight
    /// execution (no core touched, no cache entry yet).
    pub coalesced: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Of the rejected, refused because the cycle-accurate admission
    /// cap (and its deferred queue) was full. The named split means
    /// capacity exhaustion and unattainable deadlines are separable
    /// without parsing reject reasons out of responses;
    /// `rejected == rejected_admission_cap + rejected_deadline`.
    pub rejected_admission_cap: u64,
    /// Of the rejected, refused because no device at any array width
    /// could meet the request's deadline.
    pub rejected_deadline: u64,
    /// Of the rejected, refused because the job cannot stream inside
    /// the configured scratch budget even at the minimal window;
    /// `rejected == rejected_admission_cap + rejected_deadline +
    /// rejected_scratch`.
    pub rejected_scratch: u64,
    /// Requests that failed with a substrate error.
    pub failed: u64,
    /// Execution attempts retried after an infrastructure fault
    /// (injected error, worker death, watchdog cancel). Counted per
    /// attempt, so one request surviving two faults adds two.
    pub retries: u64,
    /// Of the completed, answered by the degrade-don't-drop fallback
    /// (functional backend, injection off) after retries were
    /// exhausted.
    pub degraded: u64,
    /// Median end-to-end latency, ns.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Worst observed latency, ns.
    pub max_ns: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// The class's SLO target, ns.
    pub slo_target_ns: u64,
    /// Completed requests that exceeded the target.
    pub slo_violations: u64,
    /// Mean PE arrays occupied per completed request. Defaults to 1
    /// (the single-array socket) when nothing completed, so existing
    /// consumers of serialized snapshots stay schema-compatible.
    pub shards: f64,
    /// Mean arrays granted per completed request (1 when nothing
    /// completed). Under co-scheduling this can exceed `shards` only
    /// transiently — granted is the offered width, shards what the
    /// plan used.
    pub arrays_granted: f64,
    /// Mean device cycles spent waiting to gather granted arrays (0
    /// when nothing completed or without co-scheduling).
    pub avg_array_wait_cycles: f64,
    /// Total modelled energy spent answering this class, pJ (cache
    /// hits and coalesced waiters add nothing — their execution's
    /// energy is counted once, on the primary).
    pub energy_pj: f64,
    /// The switching share of `energy_pj`.
    pub dynamic_energy_pj: f64,
    /// The leakage share of `energy_pj`.
    pub static_energy_pj: f64,
    /// Of the completed, answered speculatively from the functional
    /// backend while the accurate execution verified asynchronously.
    pub speculative: u64,
}

impl ClassStats {
    /// Fraction of completed requests inside the SLO (1.0 when none
    /// completed).
    #[must_use]
    pub fn slo_compliance(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            1.0 - self.slo_violations as f64 / self.completed as f64
        }
    }
}

/// A point-in-time snapshot of the whole service.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Per-class records, in [`JobClass::ALL`] order (empty classes
    /// included with zero counts).
    pub classes: Vec<ClassStats>,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed (cache hits included).
    pub completed: u64,
    /// Requests that coalesced onto an identical in-flight execution
    /// instead of executing independently.
    pub coalesced: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Of the rejected, refused on the accurate admission cap (sums
    /// the per-class splits).
    pub rejected_admission_cap: u64,
    /// Of the rejected, refused on an unattainable deadline.
    pub rejected_deadline: u64,
    /// Of the rejected, refused on the streaming scratch budget (sums
    /// the per-class splits).
    pub rejected_scratch: u64,
    /// Largest per-execution scratch high-water mark observed, in
    /// elements (0 when only convs ran).
    pub peak_scratch_elems: u64,
    /// Submissions refused at the door with
    /// [`SubmitError::QueueFull`](crate::request::SubmitError) —
    /// backpressure refusals, counted separately from `rejected`
    /// because the request never entered the queue (and is handed
    /// back for retry rather than answered).
    pub queue_full_refusals: u64,
    /// Requests failed with substrate errors.
    pub failed: u64,
    /// Execution attempts retried after infrastructure faults (sums
    /// the per-class counts).
    pub retries: u64,
    /// Completed requests answered by the degrade-don't-drop fallback.
    pub degraded: u64,
    /// Requests answered speculatively (answer-now-verify-later):
    /// the client heard the functional backend's bit-identical result
    /// while the accurate execution verified asynchronously.
    pub speculative_answers: u64,
    /// Closed answer/verify rendezvous whose digests agreed. Only a
    /// rendezvous closed by a cycle-accurate result counts: a verify
    /// leg that degraded to the functional backend audits nothing.
    /// At quiescence `speculative_verified + speculative_mismatches`
    /// accounts for every speculative answer whose verify leg
    /// completed without degrading.
    pub speculative_verified: u64,
    /// Closed rendezvous whose digests disagreed — the equivalence
    /// contract keeps this at zero; anything else is a diverged
    /// backend.
    pub speculative_mismatches: u64,
    /// Total modelled energy across all classes, pJ.
    pub energy_pj: f64,
    /// The switching share of `energy_pj`.
    pub dynamic_energy_pj: f64,
    /// The leakage share of `energy_pj`.
    pub static_energy_pj: f64,
    /// Wall time the dispatcher spent draining in-flight jobs after
    /// the ingestion queue closed, ns (0 when shutdown found nothing
    /// in flight).
    pub drain_ns: u64,
    /// `true` when the bounded drain deadline expired with work still
    /// in flight; the stragglers were answered as failed.
    pub drain_timed_out: bool,
    /// Result-cache counters.
    pub cache: ResultCacheStats,
    /// Current ingestion-queue depth.
    pub queue_depth: usize,
    /// Deepest the ingestion queue has been.
    pub max_queue_depth: usize,
    /// Jobs currently dispatched to the pool and not yet completed.
    pub in_flight: usize,
    /// Deepest the deferred (admission-held) queue has been.
    pub max_deferred: usize,
    /// Mean per-request work balance across PE arrays (1.0 when the
    /// pool models a single array or shards are perfectly even).
    pub avg_shard_utilization: f64,
    /// Device-time view of the array pool: makespan, busy
    /// array-cycles (packing efficiency via
    /// [`DeviceSummary::occupancy`]), gather waits and grants — the
    /// fleet's ledgers viewed as one device
    /// ([`FleetSummary::combined`]). Jobs are placed at dispatch under
    /// either policy: cost-aware grants under co-scheduling, whole-core
    /// grants under the all-arrays policy.
    pub device: DeviceSummary,
    /// Per-device fleet account: device summaries, elastic
    /// joins/drains, deadline rejections, health actions. For a
    /// 1-device fleet `fleet.devices[0] == device`.
    pub fleet: FleetSummary,
    /// Service uptime at snapshot, ns.
    pub uptime_ns: u64,
    /// Completed requests per wall-clock second since start.
    pub throughput_per_sec: f64,
    /// Per-stage span histograms and the counter registry, when the
    /// service was started with tracing on (`None` otherwise). Every
    /// other field of this snapshot is identical with tracing on or
    /// off — the bit-identity gate in the bench harness asserts it.
    pub telemetry: Option<TelemetrySummary>,
}

impl ServeStats {
    /// The record for `class`.
    #[must_use]
    pub fn class(&self, class: JobClass) -> &ClassStats {
        &self.classes[class.index()]
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve: {} submitted, {} completed ({:.0}/s), {} coalesced, {} rejected, {} failed; \
             queue {}/{} peak, cache {}h/{}m ({:.0}% hit, {} evictions)",
            self.submitted,
            self.completed,
            self.throughput_per_sec,
            self.coalesced,
            self.rejected,
            self.failed,
            self.queue_depth,
            self.max_queue_depth,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.evictions,
        )?;
        if self.rejected + self.queue_full_refusals > 0 {
            writeln!(
                f,
                "  rejections: {} admission cap, {} deadline, {} scratch budget, \
                 {} queue-full refusals",
                self.rejected_admission_cap,
                self.rejected_deadline,
                self.rejected_scratch,
                self.queue_full_refusals,
            )?;
        }
        if self.peak_scratch_elems > 0 {
            writeln!(f, "  scratch: peak {} elems", self.peak_scratch_elems)?;
        }
        if self.energy_pj > 0.0 {
            writeln!(
                f,
                "  energy: {:.1} nJ ({:.1} dynamic, {:.1} static)",
                self.energy_pj * 1e-3,
                self.dynamic_energy_pj * 1e-3,
                self.static_energy_pj * 1e-3,
            )?;
        }
        if self.speculative_answers > 0 {
            writeln!(
                f,
                "  speculative: {} answered early, {} verified, {} mismatches",
                self.speculative_answers, self.speculative_verified, self.speculative_mismatches,
            )?;
        }
        if self.retries + self.degraded > 0 || self.drain_timed_out {
            writeln!(
                f,
                "  fault tolerance: {} retries, {} degraded answers, drain {:.1} ms{}",
                self.retries,
                self.degraded,
                self.drain_ns as f64 * 1e-6,
                if self.drain_timed_out {
                    " (timed out)"
                } else {
                    ""
                },
            )?;
        }
        if let Some(telemetry) = &self.telemetry {
            write!(f, "{telemetry}")?;
        }
        if self.device.num_arrays > 1 {
            writeln!(
                f,
                "  device: {} arrays, makespan {} cycles, {:.0}% packed, \
                 {:.1} arrays granted/placement, {} gather-wait cycles, \
                 {} idle-gap cycles ({} backfilled)",
                self.device.num_arrays,
                self.device.makespan_cycles,
                self.device.occupancy() * 100.0,
                self.device.avg_arrays_granted(),
                self.device.wait_cycles,
                self.device.idle_gap_cycles,
                self.device.backfills,
            )?;
        }
        let fleet = &self.fleet;
        if fleet.devices.len() > 1 || fleet.joins + fleet.drains + fleet.rejections > 0 {
            writeln!(
                f,
                "  fleet: {} device(s) active of {} (peak {}), {} joins, {} drains, \
                 {} deadline rejections",
                fleet.active_devices,
                fleet.devices.len(),
                fleet.peak_devices,
                fleet.joins,
                fleet.drains,
                fleet.rejections,
            )?;
        }
        if fleet.quarantines + fleet.probes + fleet.rollbacks > 0 {
            writeln!(
                f,
                "  fleet health: {} quarantines, {} probes, {} revivals, {} rollbacks",
                fleet.quarantines, fleet.probes, fleet.revivals, fleet.rollbacks,
            )?;
        }
        for c in &self.classes {
            if c.completed + c.rejected + c.failed == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:>16}: {:>6} done ({} cached), p50 {:.2} ms, p95 {:.2} ms, \
                 p99 {:.2} ms, slo {:.2} ms ({:.1}% met)",
                c.class.name(),
                c.completed,
                c.cache_hits,
                c.p50_ns as f64 * 1e-6,
                c.p95_ns as f64 * 1e-6,
                c.p99_ns as f64 * 1e-6,
                c.slo_target_ns as f64 * 1e-6,
                c.slo_compliance() * 100.0,
            )?;
        }
        Ok(())
    }
}

/// Latency samples kept per class: a bounded [`Reservoir`] with the
/// class's own random stream, so a long-lived service's memory and
/// snapshot cost stay constant. Counts, mean, max and SLO violations
/// are always exact.
#[derive(Debug)]
struct ClassAccum {
    reservoir: Reservoir,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    rng: SplitMix64,
}

impl ClassAccum {
    fn new(seed: u64) -> Self {
        ClassAccum {
            reservoir: Reservoir::default(),
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            rng: SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    fn record(&mut self, total_ns: u64) {
        self.count += 1;
        self.sum_ns += u128::from(total_ns);
        self.max_ns = self.max_ns.max(total_ns);
        self.reservoir.offer(total_ns, self.count, &mut self.rng);
    }
}

/// Mutable accumulator behind the service's stats mutex.
#[derive(Debug)]
pub(crate) struct StatsRecorder {
    latencies: [ClassAccum; 6],
    cache_hits: [u64; 6],
    coalesced: [u64; 6],
    rejected_admission_cap: [u64; 6],
    rejected_deadline: [u64; 6],
    rejected_scratch: [u64; 6],
    peak_scratch_elems: u64,
    failed: [u64; 6],
    retries: [u64; 6],
    degraded: [u64; 6],
    speculative: [u64; 6],
    pub(crate) speculative_verified: u64,
    pub(crate) speculative_mismatches: u64,
    energy_sum_pj: [f64; 6],
    dynamic_energy_sum_pj: [f64; 6],
    static_energy_sum_pj: [f64; 6],
    slo_violations: [u64; 6],
    shards_sum: [u64; 6],
    shard_util_sum: [f64; 6],
    granted_sum: [u64; 6],
    array_wait_sum: [u64; 6],
    pub(crate) submitted: u64,
    pub(crate) queue_full_refusals: u64,
    pub(crate) max_queue_depth: usize,
    pub(crate) max_deferred: usize,
    pub(crate) drain_ns: u64,
    pub(crate) drain_timed_out: bool,
    slo: SloPolicy,
}

impl StatsRecorder {
    pub(crate) fn new(slo: SloPolicy) -> Self {
        StatsRecorder {
            latencies: std::array::from_fn(|i| ClassAccum::new(i as u64)),
            cache_hits: [0; 6],
            coalesced: [0; 6],
            rejected_admission_cap: [0; 6],
            rejected_deadline: [0; 6],
            rejected_scratch: [0; 6],
            peak_scratch_elems: 0,
            failed: [0; 6],
            retries: [0; 6],
            degraded: [0; 6],
            speculative: [0; 6],
            speculative_verified: 0,
            speculative_mismatches: 0,
            energy_sum_pj: [0.0; 6],
            dynamic_energy_sum_pj: [0.0; 6],
            static_energy_sum_pj: [0.0; 6],
            slo_violations: [0; 6],
            shards_sum: [0; 6],
            shard_util_sum: [0.0; 6],
            granted_sum: [0; 6],
            array_wait_sum: [0; 6],
            submitted: 0,
            queue_full_refusals: 0,
            max_queue_depth: 0,
            max_deferred: 0,
            drain_ns: 0,
            drain_timed_out: false,
            slo,
        }
    }

    /// Records one retried execution attempt for `class`.
    pub(crate) fn record_retry(&mut self, class: JobClass) {
        self.retries[class.index()] += 1;
    }

    /// Records a completion answered by the degrade-don't-drop
    /// fallback (call alongside `record_completion`).
    pub(crate) fn record_degraded(&mut self, class: JobClass) {
        self.degraded[class.index()] += 1;
    }

    /// Records a completion answered speculatively from the
    /// functional backend (call alongside `record_completion`).
    pub(crate) fn record_speculative_answer(&mut self, class: JobClass) {
        self.speculative[class.index()] += 1;
    }

    pub(crate) fn record_completion(
        &mut self,
        class: JobClass,
        total_ns: u64,
        cached: bool,
        arrays: ArrayUse,
    ) {
        let i = class.index();
        self.latencies[i].record(total_ns);
        if cached {
            self.cache_hits[i] += 1;
        }
        if total_ns > self.slo.target_ns(class) {
            self.slo_violations[i] += 1;
        }
        self.shards_sum[i] += arrays.shards.max(1) as u64;
        self.shard_util_sum[i] += arrays.utilization;
        self.granted_sum[i] += arrays.granted.max(1) as u64;
        self.array_wait_sum[i] += arrays.wait_cycles;
        self.observe_energy(i, &arrays);
        self.observe_scratch(arrays.peak_scratch_elems);
    }

    /// Records a completion that coalesced onto an in-flight
    /// execution: counted as completed (latency, SLO) and as
    /// coalesced, but never as a cache hit — the cache had no entry
    /// yet when it arrived.
    pub(crate) fn record_coalesced(&mut self, class: JobClass, total_ns: u64, arrays: ArrayUse) {
        let i = class.index();
        self.latencies[i].record(total_ns);
        self.coalesced[i] += 1;
        if total_ns > self.slo.target_ns(class) {
            self.slo_violations[i] += 1;
        }
        self.shards_sum[i] += arrays.shards.max(1) as u64;
        self.shard_util_sum[i] += arrays.utilization;
        self.granted_sum[i] += arrays.granted.max(1) as u64;
        self.array_wait_sum[i] += arrays.wait_cycles;
        self.observe_energy(i, &arrays);
        self.observe_scratch(arrays.peak_scratch_elems);
    }

    /// Folds one completion's modelled energy into the per-class
    /// sums (cache hits and coalesced waiters carry zeros).
    fn observe_energy(&mut self, class_index: usize, arrays: &ArrayUse) {
        self.energy_sum_pj[class_index] += arrays.energy_pj;
        self.dynamic_energy_sum_pj[class_index] += arrays.dynamic_energy_pj;
        self.static_energy_sum_pj[class_index] += arrays.static_energy_pj;
    }

    /// Folds one execution's scratch high-water mark into the peak
    /// gauge.
    fn observe_scratch(&mut self, peak_scratch_elems: u64) {
        self.peak_scratch_elems = self.peak_scratch_elems.max(peak_scratch_elems);
    }

    /// Records a rejection under its reason, so the snapshot's named
    /// tallies stay in lock-step with the responses' reject reasons.
    pub(crate) fn record_rejection(&mut self, class: JobClass, reason: &RejectReason) {
        match reason {
            RejectReason::AccurateAdmissionFull => {
                self.rejected_admission_cap[class.index()] += 1;
            }
            RejectReason::DeadlineUnattainable { .. } => {
                self.rejected_deadline[class.index()] += 1;
            }
            RejectReason::ScratchBudgetExceeded { .. } => {
                self.rejected_scratch[class.index()] += 1;
            }
        }
    }

    pub(crate) fn record_failure(&mut self, class: JobClass) {
        self.failed[class.index()] += 1;
    }

    pub(crate) fn observe_queue_depth(&mut self, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    pub(crate) fn observe_deferred_depth(&mut self, depth: usize) {
        self.max_deferred = self.max_deferred.max(depth);
    }

    pub(crate) fn snapshot(
        &self,
        cache: ResultCacheStats,
        queue_depth: usize,
        in_flight: usize,
        fleet: FleetSummary,
        uptime_ns: u64,
        telemetry: Option<TelemetrySummary>,
    ) -> ServeStats {
        let classes: Vec<ClassStats> = JobClass::ALL
            .into_iter()
            .map(|class| {
                let i = class.index();
                let accum = &self.latencies[i];
                let sorted = accum.reservoir.sorted();
                ClassStats {
                    class,
                    completed: accum.count,
                    cache_hits: self.cache_hits[i],
                    coalesced: self.coalesced[i],
                    rejected: self.rejected_admission_cap[i]
                        + self.rejected_deadline[i]
                        + self.rejected_scratch[i],
                    rejected_admission_cap: self.rejected_admission_cap[i],
                    rejected_deadline: self.rejected_deadline[i],
                    rejected_scratch: self.rejected_scratch[i],
                    failed: self.failed[i],
                    retries: self.retries[i],
                    degraded: self.degraded[i],
                    p50_ns: percentile(&sorted, 50.0),
                    p95_ns: percentile(&sorted, 95.0),
                    p99_ns: percentile(&sorted, 99.0),
                    max_ns: accum.max_ns,
                    mean_ns: if accum.count == 0 {
                        0.0
                    } else {
                        accum.sum_ns as f64 / accum.count as f64
                    },
                    slo_target_ns: self.slo.target_ns(class),
                    slo_violations: self.slo_violations[i],
                    shards: if accum.count == 0 {
                        1.0
                    } else {
                        self.shards_sum[i] as f64 / accum.count as f64
                    },
                    arrays_granted: if accum.count == 0 {
                        1.0
                    } else {
                        self.granted_sum[i] as f64 / accum.count as f64
                    },
                    avg_array_wait_cycles: if accum.count == 0 {
                        0.0
                    } else {
                        self.array_wait_sum[i] as f64 / accum.count as f64
                    },
                    energy_pj: self.energy_sum_pj[i],
                    dynamic_energy_pj: self.dynamic_energy_sum_pj[i],
                    static_energy_pj: self.static_energy_sum_pj[i],
                    speculative: self.speculative[i],
                }
            })
            .collect();
        let completed: u64 = classes.iter().map(|c| c.completed).sum();
        let shard_util_total: f64 = self.shard_util_sum.iter().sum();
        ServeStats {
            submitted: self.submitted,
            completed,
            coalesced: classes.iter().map(|c| c.coalesced).sum(),
            rejected: classes.iter().map(|c| c.rejected).sum(),
            rejected_admission_cap: classes.iter().map(|c| c.rejected_admission_cap).sum(),
            rejected_deadline: classes.iter().map(|c| c.rejected_deadline).sum(),
            rejected_scratch: classes.iter().map(|c| c.rejected_scratch).sum(),
            peak_scratch_elems: self.peak_scratch_elems,
            queue_full_refusals: self.queue_full_refusals,
            failed: classes.iter().map(|c| c.failed).sum(),
            retries: classes.iter().map(|c| c.retries).sum(),
            degraded: classes.iter().map(|c| c.degraded).sum(),
            speculative_answers: classes.iter().map(|c| c.speculative).sum(),
            speculative_verified: self.speculative_verified,
            speculative_mismatches: self.speculative_mismatches,
            energy_pj: classes.iter().map(|c| c.energy_pj).sum(),
            dynamic_energy_pj: classes.iter().map(|c| c.dynamic_energy_pj).sum(),
            static_energy_pj: classes.iter().map(|c| c.static_energy_pj).sum(),
            drain_ns: self.drain_ns,
            drain_timed_out: self.drain_timed_out,
            cache,
            queue_depth,
            max_queue_depth: self.max_queue_depth,
            in_flight,
            max_deferred: self.max_deferred,
            avg_shard_utilization: if completed == 0 {
                1.0
            } else {
                shard_util_total / completed as f64
            },
            device: fleet.combined(),
            fleet,
            uptime_ns,
            throughput_per_sec: if uptime_ns == 0 {
                0.0
            } else {
                completed as f64 / (uptime_ns as f64 * 1e-9)
            },
            telemetry,
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of `rec` with every other subsystem at rest.
    fn at_rest(rec: &StatsRecorder, uptime_ns: u64) -> ServeStats {
        let (cache, fleet) = (ResultCacheStats::default(), FleetSummary::default());
        rec.snapshot(cache, 0, 0, fleet, uptime_ns, None)
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    fn two_arrays() -> ArrayUse {
        ArrayUse {
            shards: 2,
            utilization: 0.9,
            granted: 3,
            wait_cycles: 40,
            peak_scratch_elems: 96,
            energy_pj: 1_000.0,
            dynamic_energy_pj: 900.0,
            static_energy_pj: 100.0,
        }
    }

    #[test]
    fn reservoir_bounds_memory_with_exact_counters() {
        let class = JobClass::ALL[1];
        let mut rec = StatsRecorder::new(SloPolicy::edge_defaults().with_target(class, 10));
        let n = 3 * Reservoir::CAP as u64;
        for v in 1..=n {
            rec.record_completion(class, v, false, ArrayUse::single());
        }
        let accum = &rec.latencies[class.index()];
        assert_eq!(
            accum.reservoir.samples().len(),
            Reservoir::CAP,
            "reservoir is bounded"
        );
        let snap = at_rest(&rec, 1);
        let c = snap.class(class);
        assert_eq!(c.completed, n, "count stays exact past the bound");
        assert_eq!(c.max_ns, n, "max stays exact past the bound");
        assert!((c.mean_ns - (n + 1) as f64 / 2.0).abs() < 1e-6);
        assert_eq!(c.slo_violations, n - 10);
        // The sampled median of a uniform 1..=n stream lands near n/2.
        let mid = n as f64 / 2.0;
        assert!(
            (c.p50_ns as f64) > mid * 0.8 && (c.p50_ns as f64) < mid * 1.2,
            "sampled p50 {} should approximate {}",
            c.p50_ns,
            mid
        );
    }

    #[test]
    fn coalesced_completions_count_toward_latency_but_not_cache() {
        let class = JobClass::ALL[2];
        let slo = SloPolicy::edge_defaults().with_target(class, 1_000);
        let mut rec = StatsRecorder::new(slo);
        rec.record_completion(class, 500, false, two_arrays());
        rec.record_coalesced(class, 400, two_arrays());
        rec.record_coalesced(class, 2_000, two_arrays());
        let snap = at_rest(&rec, 1);
        let c = snap.class(class);
        assert_eq!(c.completed, 3);
        assert_eq!(c.coalesced, 2);
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.slo_violations, 1);
        assert_eq!(snap.coalesced, 2);
        assert_eq!(snap.completed, 3);
        // All three completions ran on 2 arrays at 0.9 balance,
        // granted 3 with a 40-cycle gather wait.
        assert!((c.shards - 2.0).abs() < 1e-12);
        assert!((snap.avg_shard_utilization - 0.9).abs() < 1e-12);
        assert!((c.arrays_granted - 3.0).abs() < 1e-12);
        assert!((c.avg_array_wait_cycles - 40.0).abs() < 1e-12);
        // Every execution reported a 96-element peak.
        assert_eq!(snap.peak_scratch_elems, 96);
        // Energy sums whatever the dispatcher attributes per
        // completion (it zeroes coalesced/cached energy itself; here
        // every record carried 1000 pJ, 900 dynamic + 100 static).
        assert!((c.energy_pj - 3_000.0).abs() < 1e-9);
        assert!((c.dynamic_energy_pj - 2_700.0).abs() < 1e-9);
        assert!((c.static_energy_pj - 300.0).abs() < 1e-9);
        assert!((snap.energy_pj - 3_000.0).abs() < 1e-9);
        assert!((snap.dynamic_energy_pj - 2_700.0).abs() < 1e-9);
        assert!((snap.static_energy_pj - 300.0).abs() < 1e-9);
        // Classes with no completions default to the single-array
        // socket so serialized snapshots stay schema-compatible.
        assert!((snap.classes[0].shards - 1.0).abs() < 1e-12);
        assert!((snap.classes[0].arrays_granted - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_tracks_slo_violations_per_class() {
        let class = JobClass::ALL[0];
        let slo = SloPolicy::edge_defaults().with_target(class, 1_000);
        let mut rec = StatsRecorder::new(slo);
        rec.record_completion(class, 500, false, ArrayUse::single());
        rec.record_completion(class, 1_500, true, ArrayUse::single());
        rec.record_completion(class, 2_000, false, ArrayUse::single());
        let snap = at_rest(&rec, 1_000_000_000);
        let c = snap.class(class);
        assert_eq!(c.completed, 3);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.slo_violations, 2);
        assert!((c.slo_compliance() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.p50_ns, 1_500);
        assert_eq!(c.max_ns, 2_000);
        assert!((snap.throughput_per_sec - 3.0).abs() < 1e-9);
    }
}
