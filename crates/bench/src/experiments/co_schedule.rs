//! Array-slot co-scheduling: replay a seeded mixed wide+narrow
//! traffic trace under the two array-granting policies and compare
//! device-time makespan, tail latency and packing efficiency — with
//! **bit-identical outputs across the policies** and a **≥ 1.3×
//! makespan win** as the acceptance gates
//! (`results/BENCH_co_schedule.json`).
//!
//! Two views of the same trace:
//!
//! * a **deterministic device-time replay** driving the runtime's own
//!   scheduler primitives ([`ArrayPlanner`] + [`ArrayLedger`])
//!   directly: all jobs queue at device time 0, all-arrays places
//!   each exclusively (PR 4's worker-granular semantics — every job
//!   owns the whole core in turn), cost-aware packs budget-planned
//!   widths onto disjoint array sets. Makespans, per-job device
//!   finish times and packing efficiency are bit-for-bit reproducible;
//! * two **service passes** through `tempus-serve` — co-scheduling
//!   off, then on — proving the dispatched results stay bit-identical
//!   and surfacing the live [`ServeStats`](tempus_serve::ServeStats)
//!   device account.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tempus_core::shard::WidenPolicy;
use tempus_models::traffic::{generate, TraceConfig, TraceRequest};
use tempus_nvdla::cube::fnv1a;
use tempus_runtime::{ArrayLedger, ArrayPlanner, EngineConfig, Job};
use tempus_serve::{percentile, Request, ResponseOutcome, ServeConfig, StreamingService};

/// One policy's deterministic device-time replay.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReplay {
    /// `all-arrays` or `cost-aware`.
    pub policy: &'static str,
    /// Device cycle the last job finishes.
    pub makespan_cycles: u64,
    /// Busy array-cycles over the `arrays × makespan` area.
    pub occupancy: f64,
    /// Device cycles jobs spent waiting to gather their arrays.
    pub total_wait_cycles: u64,
    /// Mean arrays granted per job.
    pub avg_arrays_granted: f64,
    /// Median device finish time over the queued jobs.
    pub p50_finish_cycles: u64,
    /// 95th-percentile device finish time — the device-time tail.
    pub p95_finish_cycles: u64,
}

/// One live pass through the streaming service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePass {
    /// `all-arrays` or `cost-aware`.
    pub policy: &'static str,
    /// Requests completed.
    pub completed: u64,
    /// Pass wall-clock, seconds.
    pub wall_s: f64,
    /// The service's device-time makespan account.
    pub device_makespan_cycles: u64,
    /// The service's packing efficiency.
    pub device_occupancy: f64,
    /// The service's total array gather-wait cycles.
    pub device_wait_cycles: u64,
    /// Mean arrays granted per placement.
    pub avg_arrays_granted: f64,
    /// Combined digest over `(job id, output digest)` pairs in id
    /// order — equality across policies proves bit-identical serving.
    pub digest: u64,
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct CoScheduleReport {
    /// Trace seed.
    pub seed: u64,
    /// Requests in the trace.
    pub requests: usize,
    /// PE arrays of the modelled device.
    pub num_arrays: usize,
    /// Wide (kernel-rich) convolutions in the trace.
    pub wide_convs: usize,
    /// Device replay under each policy (all-arrays first).
    pub device: Vec<DeviceReplay>,
    /// Service pass under each policy (all-arrays first).
    pub service: Vec<ServicePass>,
}

impl CoScheduleReport {
    /// `true` when the two service passes produced bit-identical
    /// outputs for every request.
    #[must_use]
    pub fn digests_equal(&self) -> bool {
        self.service[0].digest == self.service[1].digest
    }

    /// Device-time makespan improvement of cost-aware co-scheduling
    /// over all-arrays-per-job (the ≥ 1.3× acceptance gate).
    #[must_use]
    pub fn makespan_speedup(&self) -> f64 {
        self.device[0].makespan_cycles as f64 / self.device[1].makespan_cycles.max(1) as f64
    }

    /// Device-time p95 finish improvement.
    #[must_use]
    pub fn p95_speedup(&self) -> f64 {
        self.device[0].p95_finish_cycles as f64 / self.device[1].p95_finish_cycles.max(1) as f64
    }
}

/// The trace both views replay: mixed wide+narrow, no repeats (every
/// job executes — caching is `serve_latency`'s experiment), fast
/// fidelity only so admission order, and therefore placement order,
/// is deterministic.
fn mixed_trace(seed: u64, requests: usize) -> Vec<TraceRequest> {
    generate(
        &TraceConfig::new(seed)
            .with_requests(requests)
            .with_repeat_fraction(0.0)
            .with_accurate_fraction(0.0)
            .with_wide_conv_fraction(0.35),
    )
}

fn trace_jobs(trace: &[TraceRequest]) -> Vec<Job> {
    trace.iter().map(|t| Request::from_trace(t).job).collect()
}

/// The deterministic device-time replay: all jobs queue at cycle 0 in
/// trace order; finish times and the makespan fall out of the grant
/// policy alone.
fn device_replay(jobs: &[Job], config: &EngineConfig, co_schedule: bool) -> DeviceReplay {
    let mut planner = ArrayPlanner::new(config, WidenPolicy::edge_default());
    let mut ledger = ArrayLedger::new(config.num_arrays);
    let mut finishes = Vec::with_capacity(jobs.len());
    for job in jobs {
        let placement = if co_schedule {
            let plan = planner.plan_or_single(job);
            ledger.place(&plan, 0)
        } else {
            // The job owns the whole core for its exact full-width
            // critical path; only its real shard work counts as busy.
            let cost = planner.whole_core_cost(job);
            ledger.place_exclusive(cost.critical_path_cycles, cost.total_array_cycles, 0)
        };
        finishes.push(placement.start_cycle + placement.duration_cycles);
    }
    finishes.sort_unstable();
    let summary = ledger.summary();
    DeviceReplay {
        policy: if co_schedule {
            "cost-aware"
        } else {
            "all-arrays"
        },
        makespan_cycles: summary.makespan_cycles,
        occupancy: summary.occupancy(),
        total_wait_cycles: summary.wait_cycles,
        avg_arrays_granted: summary.avg_arrays_granted(),
        p50_finish_cycles: percentile(&finishes, 50.0),
        p95_finish_cycles: percentile(&finishes, 95.0),
    }
}

/// One pass through a fresh service instance under `co_schedule`.
fn service_pass(trace: &[TraceRequest], num_arrays: usize, co_schedule: bool) -> ServicePass {
    let mut config = ServeConfig::new()
        .with_workers(4)
        .with_queue_capacity(64)
        .with_cache_capacity(8192)
        .with_arrays(num_arrays);
    if co_schedule {
        config = config.with_co_scheduling();
    }
    let service = StreamingService::start(config).expect("service starts");
    let start = Instant::now();
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut outstanding = 0usize;
    let consume =
        |response: tempus_serve::Response, digests: &mut BTreeMap<u64, u64>| match response.outcome
        {
            ResponseOutcome::Done(result) => {
                digests.insert(response.job_id, result.output.digest());
            }
            ResponseOutcome::Rejected(reason) => panic!("request rejected: {reason:?}"),
            ResponseOutcome::Failed(error) => panic!("request failed: {error}"),
        };
    for t in trace {
        service
            .submit(Request::from_trace(t))
            .expect("service accepts (blocking submit)");
        outstanding += 1;
        while let Some(response) = service.recv_response(Duration::ZERO) {
            outstanding -= 1;
            consume(response, &mut digests);
        }
    }
    while outstanding > 0 {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("responses drain");
        outstanding -= 1;
        consume(response, &mut digests);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (stats, _leftover) = service.shutdown();
    ServicePass {
        policy: if co_schedule {
            "cost-aware"
        } else {
            "all-arrays"
        },
        completed: stats.completed,
        wall_s,
        device_makespan_cycles: stats.device.makespan_cycles,
        device_occupancy: stats.device.occupancy(),
        device_wait_cycles: stats.device.wait_cycles,
        avg_arrays_granted: stats.device.avg_arrays_granted(),
        digest: fnv1a(digests.iter().flat_map(|(&id, &d)| [id, d])),
    }
}

/// Runs the experiment. `quick` shrinks the trace for CI smoke runs —
/// the digest and makespan gates are the invariant there, not timing.
#[must_use]
pub fn run(seed: u64, quick: bool) -> CoScheduleReport {
    let requests = if quick { 60 } else { 240 };
    let num_arrays = 8;
    let trace = mixed_trace(seed, requests);
    let wide_convs = trace
        .iter()
        .filter(|t| match &t.payload {
            tempus_models::traffic::TracePayload::Conv { kernels, .. } => kernels.k() >= 32,
            _ => false,
        })
        .count();
    let jobs = trace_jobs(&trace);
    let engine =
        EngineConfig::new(tempus_runtime::BackendKind::FastFunctional).with_arrays(num_arrays);
    let device = vec![
        device_replay(&jobs, &engine, false),
        device_replay(&jobs, &engine, true),
    ];
    let service = vec![
        service_pass(&trace, num_arrays, false),
        service_pass(&trace, num_arrays, true),
    ];
    CoScheduleReport {
        seed,
        requests,
        num_arrays,
        wide_convs,
        device,
        service,
    }
}

impl CoScheduleReport {
    /// Machine-readable JSON summary (hand-rolled; the workspace has
    /// no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"experiment\": \"co_schedule\",\n  \"seed\": {},\n  \
             \"requests\": {},\n  \"num_arrays\": {},\n  \"wide_convs\": {},\n  \
             \"digests_equal\": {},\n  \"makespan_speedup\": {:.3},\n  \
             \"p95_speedup\": {:.3},\n  \"device\": [\n",
            self.seed,
            self.requests,
            self.num_arrays,
            self.wide_convs,
            self.digests_equal(),
            self.makespan_speedup(),
            self.p95_speedup(),
        );
        for (i, d) in self.device.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"policy\": \"{}\", \"makespan_cycles\": {}, \"occupancy\": {:.4}, \
                 \"total_wait_cycles\": {}, \"avg_arrays_granted\": {:.3}, \
                 \"p50_finish_cycles\": {}, \"p95_finish_cycles\": {}}}{}\n",
                d.policy,
                d.makespan_cycles,
                d.occupancy,
                d.total_wait_cycles,
                d.avg_arrays_granted,
                d.p50_finish_cycles,
                d.p95_finish_cycles,
                if i + 1 == self.device.len() { "" } else { "," },
            ));
        }
        s.push_str("  ],\n  \"service\": [\n");
        for (i, p) in self.service.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"policy\": \"{}\", \"completed\": {}, \"wall_s\": {:.6}, \
                 \"device_makespan_cycles\": {}, \"device_occupancy\": {:.4}, \
                 \"device_wait_cycles\": {}, \"avg_arrays_granted\": {:.3}, \
                 \"digest\": \"{:016x}\"}}{}\n",
                p.policy,
                p.completed,
                p.wall_s,
                p.device_makespan_cycles,
                p.device_occupancy,
                p.device_wait_cycles,
                p.avg_arrays_granted,
                p.digest,
                if i + 1 == self.service.len() { "" } else { "," },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "co_schedule: {} requests ({} wide convs) on {} arrays; \
             digests equal: {}, makespan win: {:.2}x, device p95 win: {:.2}x\n\n",
            self.requests,
            self.wide_convs,
            self.num_arrays,
            self.digests_equal(),
            self.makespan_speedup(),
            self.p95_speedup(),
        );
        s.push_str(
            "| view | policy | makespan cycles | occupancy | wait cycles | arrays/job | p95 finish |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|\n");
        for d in &self.device {
            s.push_str(&format!(
                "| device replay | {} | {} | {:.0}% | {} | {:.2} | {} |\n",
                d.policy,
                d.makespan_cycles,
                d.occupancy * 100.0,
                d.total_wait_cycles,
                d.avg_arrays_granted,
                d.p95_finish_cycles,
            ));
        }
        for p in &self.service {
            s.push_str(&format!(
                "| service pass | {} | {} | {:.0}% | {} | {:.2} | — |\n",
                p.policy,
                p.device_makespan_cycles,
                p.device_occupancy * 100.0,
                p.device_wait_cycles,
                p.avg_arrays_granted,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn co_scheduling_wins_makespan_at_equal_digests_in_smoke_mode() {
        // The CI gate: outputs bit-identical across the two policies
        // and a >= 1.3x device-time makespan win on the mixed trace.
        let report = run(42, true);
        assert!(
            report.wide_convs > 0,
            "the mixed trace must contain wide convs"
        );
        assert!(report.digests_equal(), "policies diverged in outputs");
        assert!(
            report.makespan_speedup() >= 1.3,
            "makespan win too small: {:.2}x",
            report.makespan_speedup()
        );
        assert!(
            report.p95_speedup() >= 1.0,
            "device-time p95 must not regress: {:.2}x",
            report.p95_speedup()
        );
        // Co-scheduling packs: higher occupancy, narrower grants.
        assert!(report.device[1].occupancy > report.device[0].occupancy);
        assert!(report.device[1].avg_arrays_granted < report.device[0].avg_arrays_granted);
        // The live service's device account must reproduce the
        // deterministic replay exactly: the all-arrays pass sums the
        // same functional critical paths the closed-form model
        // predicts, and the co-scheduled pass drives the identical
        // ledger in the identical placement order.
        for (d, s) in report.device.iter().zip(&report.service) {
            assert_eq!(
                d.makespan_cycles, s.device_makespan_cycles,
                "{}: service drifted from the device-time model",
                d.policy
            );
        }
    }

    #[test]
    fn device_replay_is_deterministic() {
        let jobs = trace_jobs(&mixed_trace(7, 30));
        let engine = EngineConfig::new(tempus_runtime::BackendKind::FastFunctional).with_arrays(8);
        assert_eq!(
            device_replay(&jobs, &engine, true),
            device_replay(&jobs, &engine, true)
        );
        assert_eq!(
            device_replay(&jobs, &engine, false),
            device_replay(&jobs, &engine, false)
        );
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let report = run(7, true);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"co_schedule\""));
        assert!(json.contains("\"digests_equal\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
