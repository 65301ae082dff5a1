//! The per-layer replay: a workload's own requests go through the
//! public function of each layer, one layer at a time, inside
//! benchmark-side spans. Every output the replay computes is checked
//! against the functional reference.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tempus_arith::{tub, IntPrecision, TwosUnaryStream};
use tempus_core::gemm::TubGemm;
use tempus_core::shard::{BudgetPlan, WidenPolicy};
use tempus_core::{TempusConfig, TempusCore};
use tempus_fleet::{FleetConfig, FleetOutcome, FleetScheduler};
use tempus_runtime::{
    ArrayLedger, ArrayPlanner, BackendKind, EngineConfig, InferenceBackend, JobOutput, JobPayload,
    TempusBackend, WorkerPool,
};
use tempus_serve::cache::{cache_key, CacheEntry, ResultCache};
use tempus_serve::Request;

use crate::spans::Tracer;
use crate::workload::{functional_backend, Reference, Workload, GEMM_GRID};

/// The fleet shape the planner, ledger and fleet layers replay every
/// workload's requests through: the `cold_fleet` service's.
const FLEET_DEVICES: usize = 2;
const FLEET_ARRAYS: usize = 8;
/// Passes over the cheap layers (key hashing, cache, ledger, folds),
/// so each is timed over many calls.
const CHEAP_PASSES: usize = 20;

/// What a replay pass counted besides span times.
#[derive(Debug, Default)]
pub struct Counters {
    pub mismatches: usize,
    pub gemm_macs: u64,
    pub tempus_cycles: u64,
    pub core_conv_cycles: u64,
    pub core_gemm_cycles: u64,
    pub cache_hits: u64,
    pub cache_gets: u64,
    pub admitted: u64,
    pub backfills: u64,
    pub rejections: u64,
    /// Per job: pool round trip minus the worker's own execute time, ns.
    pub pool_overhead_ns: Vec<u64>,
    pub pool_batch_1_ns: u64,
    pub pool_batch_n_ns: u64,
}

pub struct Replay<'a> {
    pub workload: Workload,
    pub requests: &'a [Request],
    pub refs: &'a [Reference],
    /// Indices into `requests` in arrival order: the key sequence the
    /// service's cache saw.
    pub arrivals: &'a [usize],
    pub workers: usize,
}

/// The span name of one job: `names` holds the conv, GEMM and network
/// names of a layer.
fn kind_span(payload: &JobPayload, names: [&'static str; 3]) -> &'static str {
    match payload {
        JobPayload::Conv { .. } => names[0],
        JobPayload::Gemm { .. } => names[1],
        JobPayload::Network { .. } => names[2],
    }
}

impl Replay<'_> {
    /// Counts a mismatch unless `output` and `cycles` equal request
    /// `i`'s reference: every replayed layer runs at the workload's
    /// device width, so its modelled cycles must match too.
    fn check(&self, counters: &mut Counters, i: usize, output: &JobOutput, cycles: u64) {
        let reference = self.refs[i];
        if output.digest() != reference.digest || cycles != reference.sim_cycles {
            counters.mismatches += 1;
        }
    }

    /// One pass over every layer. Returns the counters; span times
    /// land in `tracer`.
    pub fn run(&self, tracer: &mut Tracer) -> Result<Counters, String> {
        let mut counters = Counters::default();
        let arrays = self.workload.arrays();

        // Request digests, as the dispatcher hashes them on admission.
        for _ in 0..CHEAP_PASSES {
            for (i, request) in self.requests.iter().enumerate() {
                tracer.span("job.content_key", i as u64, 1, |_| {
                    black_box(black_box(&request.job).content_key())
                });
            }
        }

        // Functional kernels: their outputs also fill the cache below.
        let mut functional = functional_backend(arrays);
        let mut outputs = Vec::with_capacity(self.requests.len());
        for (i, request) in self.requests.iter().enumerate() {
            let name = kind_span(
                &request.job.payload,
                [
                    "backend.functional.conv",
                    "backend.functional.gemm",
                    "backend.functional.network",
                ],
            );
            let execution = tracer
                .span(name, i as u64, 1, |_| functional.execute(&request.job))
                .map_err(|e| format!("functional {}: {e}", request.job.name))?;
            if let JobPayload::Gemm { a, b } = &request.job.payload {
                counters.gemm_macs += (a.rows() * a.cols() * b.cols()) as u64;
            }
            self.check(&mut counters, i, &execution.output, execution.sim_cycles);
            outputs.push((execution.output, execution.sim_cycles));
        }

        self.replay_cache(tracer, &mut counters, &outputs);
        self.replay_scheduling(tracer, &mut counters);

        // The cycle-accurate backend, at the workload's device width.
        let mut tempus =
            TempusBackend::new(TempusConfig::paper_16x16(), GEMM_GRID).with_arrays(arrays);
        for (i, request) in self.requests.iter().enumerate() {
            let name = kind_span(
                &request.job.payload,
                [
                    "backend.tempus.conv",
                    "backend.tempus.gemm",
                    "backend.tempus.network",
                ],
            );
            let execution = tracer
                .span(name, i as u64, 1, |_| tempus.execute(&request.job))
                .map_err(|e| format!("tempus {}: {e}", request.job.name))?;
            counters.tempus_cycles += execution.sim_cycles;
            self.check(&mut counters, i, &execution.output, execution.sim_cycles);
        }

        self.replay_core(tracer, &mut counters)?;
        self.replay_folds(tracer);
        self.replay_pool(tracer, &mut counters)?;
        Ok(counters)
    }

    fn replay_cache(
        &self,
        tracer: &mut Tracer,
        counters: &mut Counters,
        outputs: &[(JobOutput, u64)],
    ) {
        let backend = BackendKind::FastFunctional;
        let keys: Vec<u64> = self
            .requests
            .iter()
            .map(|r| cache_key(r.job.content_key(), backend))
            .collect();
        // `cold_fleet` never repeats a key: look up keys the cache
        // does not hold, as its dispatcher does.
        let salt = match self.workload {
            Workload::EdgeHot => 0,
            _ => 0x5DEE_CE66_D1CE_5EED,
        };
        let lookups: Vec<u64> = self.arrivals.iter().map(|&i| keys[i] ^ salt).collect();
        for pass in 0..CHEAP_PASSES {
            let mut cache = ResultCache::new(tempus_serve::ServeConfig::new().cache_capacity);
            let entries: Vec<CacheEntry> = outputs
                .iter()
                .map(|(output, sim_cycles)| CacheEntry {
                    output: output.clone(),
                    sim_cycles: *sim_cycles,
                    energy_pj: 0.0,
                    shards: 1,
                    shard_utilization: 1.0,
                    arrays_granted: 1,
                })
                .collect();
            tracer.span("cache.insert", pass as u64, keys.len() as u64, |_| {
                for (&key, entry) in keys.iter().zip(entries) {
                    cache.insert(key, entry);
                }
            });
            tracer.span("cache.get", pass as u64, lookups.len() as u64, |_| {
                for &key in &lookups {
                    black_box(cache.get(black_box(key)));
                }
            });
            let stats = cache.stats();
            counters.cache_hits += stats.hits;
            counters.cache_gets += stats.hits + stats.misses;
        }
    }

    /// Width planning, array placement and fleet admission, in the
    /// `cold_fleet` service's order: plan, then admit.
    fn replay_scheduling(&self, tracer: &mut Tracer, counters: &mut Counters) {
        let engine = EngineConfig::new(BackendKind::FastFunctional).with_arrays(FLEET_ARRAYS);
        let mut planner = ArrayPlanner::new(&engine, WidenPolicy::edge_default());
        let plans: Vec<BudgetPlan> = self
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                tracer.span("planner.plan", i as u64, 1, |_| {
                    planner.plan_or_single(&r.job)
                })
            })
            .collect();
        for pass in 0..CHEAP_PASSES {
            let mut ledger = ArrayLedger::new(FLEET_ARRAYS);
            tracer.span("ledger.place", pass as u64, plans.len() as u64, |_| {
                for plan in &plans {
                    black_box(ledger.place(plan, 0));
                }
            });
        }
        let mut fleet =
            FleetScheduler::new(FleetConfig::new(FLEET_DEVICES, FLEET_ARRAYS).with_backfill());
        for (i, (plan, request)) in plans.iter().zip(self.requests).enumerate() {
            let outcome = tracer.span("fleet.admit", i as u64, 1, |_| {
                fleet.admit(plan, request.deadline_cycles)
            });
            if let FleetOutcome::Placed(placed) = outcome {
                counters.admitted += 1;
                counters.backfills += u64::from(placed.placement.backfilled);
            }
        }
        counters.rejections += fleet.summary().rejections;
    }

    fn replay_core(&self, tracer: &mut Tracer, counters: &mut Counters) -> Result<(), String> {
        let arrays = self.workload.arrays();
        let mut core = TempusCore::new(TempusConfig::paper_16x16());
        let gemm = TubGemm::new(GEMM_GRID.0, GEMM_GRID.1, IntPrecision::Int8);
        for (i, request) in self.requests.iter().enumerate() {
            match &request.job.payload {
                JobPayload::Conv {
                    features,
                    kernels,
                    params,
                } => {
                    let run = tracer
                        .span("core.conv", i as u64, 1, |_| {
                            core.convolve_sharded(features, kernels, params, arrays)
                        })
                        .map_err(|e| format!("core conv {}: {e}", request.job.name))?;
                    counters.core_conv_cycles += run.critical_path_cycles;
                    let cycles = run.critical_path_cycles;
                    self.check(counters, i, &JobOutput::Cube(run.output), cycles);
                }
                JobPayload::Gemm { a, b } => {
                    let run = tracer
                        .span("core.gemm", i as u64, 1, |_| {
                            gemm.multiply_sharded(a, b, arrays)
                        })
                        .map_err(|e| format!("core gemm {}: {e}", request.job.name))?;
                    counters.core_gemm_cycles += run.critical_path_cycles;
                    let cycles = run.critical_path_cycles;
                    self.check(counters, i, &JobOutput::Matrix(run.output), cycles);
                }
                JobPayload::Network { .. } => {}
            }
        }
        Ok(())
    }

    /// Window folds over the workload's own conv weights and
    /// activations: each weight's whole stream, then split in two
    /// windows as the window-batched PCU advances it.
    fn replay_folds(&self, tracer: &mut Tracer) {
        let mut operands: Vec<(i32, TwosUnaryStream)> = Vec::new();
        for request in self.requests {
            if let JobPayload::Conv {
                features, kernels, ..
            } = &request.job.payload
            {
                let activations = features.as_slice();
                for (j, &w) in kernels.as_slice().iter().enumerate() {
                    if let Ok(stream) = TwosUnaryStream::encode(w, IntPrecision::Int8) {
                        operands.push((activations[j % activations.len()], stream));
                    }
                }
            }
        }
        for pass in 0..CHEAP_PASSES {
            tracer.span(
                "arith.fold_window",
                pass as u64,
                3 * operands.len() as u64,
                |_| {
                    let mut acc = 0i64;
                    for &(activation, stream) in &operands {
                        let cycles = stream.cycles();
                        let half = cycles / 2;
                        acc += tub::fold_window(activation, black_box(stream), 0, cycles);
                        acc += tub::fold_window(activation, black_box(stream), 0, half);
                        acc -= tub::fold_window(activation, black_box(stream), half, cycles - half);
                    }
                    black_box(acc)
                },
            );
        }
    }

    /// The worker pool on the served backend: one job at a time for
    /// the round-trip overhead, then the whole sample on one worker
    /// and on every worker for the scaling ratio.
    fn replay_pool(&self, tracer: &mut Tracer, counters: &mut Counters) -> Result<(), String> {
        let backend = BackendKind::FastFunctional;
        let config = |workers: usize| {
            EngineConfig::new(backend)
                .with_workers(workers)
                .with_arrays(self.workload.arrays())
        };
        let collect = |pool: &WorkerPool| {
            pool.collect_timeout(Duration::from_secs(60))
                .ok_or_else(|| "worker pool stopped answering".to_string())?
                .result
                .map_err(|e| format!("pool job: {e}"))
        };
        let single = WorkerPool::spawn(config(1)).map_err(|e| e.to_string())?;
        for (i, request) in self.requests.iter().enumerate() {
            let job = request.job.clone();
            let started = Instant::now();
            let result = tracer.span("pool.round_trip", i as u64, 1, |_| {
                single.submit(job, backend).map_err(|e| e.to_string())?;
                collect(&single)
            })?;
            let round_trip = started.elapsed().as_nanos() as u64;
            counters
                .pool_overhead_ns
                .push(round_trip.saturating_sub(result.wall_ns));
            self.check(counters, i, &result.output, result.sim_cycles);
        }
        let batch = |pool: &WorkerPool| -> Result<u64, String> {
            let started = Instant::now();
            for request in self.requests {
                pool.submit(request.job.clone(), backend)
                    .map_err(|e| e.to_string())?;
            }
            for _ in self.requests {
                collect(pool)?;
            }
            Ok(started.elapsed().as_nanos() as u64)
        };
        counters.pool_batch_1_ns =
            tracer.span("pool.batch_1", 0, self.requests.len() as u64, |_| {
                batch(&single)
            })?;
        let _ = single.shutdown();
        let wide = WorkerPool::spawn(config(self.workers)).map_err(|e| e.to_string())?;
        counters.pool_batch_n_ns =
            tracer.span("pool.batch_n", 0, self.requests.len() as u64, |_| {
                batch(&wide)
            })?;
        let _ = wide.shutdown();
        Ok(())
    }
}
