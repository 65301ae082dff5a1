//! Incremental job submission: a persistent, self-healing worker pool.
//!
//! [`InferenceEngine::run_batch`](crate::engine::InferenceEngine)
//! accepts whole batches and blocks until every job drains — the
//! right shape for offline sweeps, the wrong one for continuous
//! traffic. [`WorkerPool`] keeps the same worker-owns-its-core
//! execution model but stays resident: jobs are submitted one at a
//! time (each tagged with the backend that should run it), workers
//! pull from a shared channel, and outcomes stream back as they
//! complete. Per-worker backends — and their CSC stripe-schedule
//! caches — persist across submissions, so repeated layer shapes keep
//! paying off across the whole service lifetime instead of per batch.
//!
//! The pool is the runtime layer of the fault-tolerance story:
//!
//! - per-job panics are caught ([`std::panic::catch_unwind`]) and
//!   surfaced as failed outcomes, never lost completions;
//! - a worker thread that dies outright is noticed on the next
//!   collect call and **respawned** with a fresh backend set;
//! - an optional per-job deadline **watchdog** cancels executions
//!   that exceed their backend-scaled deadline, synthesizing a
//!   [`RuntimeError::StuckJob`] outcome and discarding whatever the
//!   stuck attempt eventually produces;
//! - a [`FaultInjector`] hook (zero-overhead when disabled) lets the
//!   chaos layer deal deterministic faults to individual attempts.
//!
//! The serving layer (`tempus-serve`) builds its bounded ingestion
//! queue, admission control, retry policy and result cache on top of
//! this pool.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tempus_chaos::{FaultInjector, FaultKind};
use tempus_core::schedule::CacheStats;
use tempus_telemetry::{Clock, Counter, Stage, Telemetry, TraceSink};

use crate::backend::{BackendKind, InferenceBackend};
use crate::engine::{array_leakage_fraction, array_power_mw, EngineConfig};
use crate::error::RuntimeError;
use crate::job::{Job, JobResult};
use crate::ledger::ArrayAssignment;
use crate::stats::{WorkerStats, PERIOD_NS};

/// Locks a mutex, recovering the guard from a poisoned lock instead
/// of cascading the panic: the pool's shared maps stay usable for
/// every other thread even if one worker died mid-update (the data is
/// plain bookkeeping — worst case a stale in-flight entry, which the
/// watchdog or shutdown cleans up).
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One unit of work for the pool: a job, the backend that should
/// execute it (the pool serves mixed-fidelity traffic — fast
/// functional and cycle-accurate jobs share the same workers), the
/// array-slot grant it runs under, and its routing identity (device,
/// attempt) so retries and fault decisions are addressable.
#[derive(Debug, Clone)]
pub struct PoolTask {
    /// The job to execute.
    pub job: Job,
    /// Which backend executes it.
    pub backend: BackendKind,
    /// The array grant: the worker executes the job at
    /// `assignment.granted` arrays and stamps the assignment into the
    /// [`JobResult`].
    pub assignment: ArrayAssignment,
    /// Fleet device the execution was placed on (0 on single-device
    /// pools) — the fault plan keys persistent outages on it.
    pub device: usize,
    /// Execution attempt, starting at 0; retries increment it so the
    /// fault plan re-rolls instead of replaying the same fault.
    pub attempt: u32,
    /// Whether the fault injector may touch this attempt. The
    /// degrade-don't-drop fallback submits with `inject: false` so
    /// the last-resort answer cannot itself be failed.
    pub inject: bool,
    /// DVFS ladder level the placement's arrays run at (0 = nominal).
    /// The worker scales the result's energy split accordingly; the
    /// modelled cycle figures stay nominal (the ledger owns the
    /// period-scaled booking).
    pub freq_level: u8,
}

/// One completed (or failed) pool task.
#[derive(Debug)]
pub struct PoolOutcome {
    /// Id of the submitted job.
    pub job_id: u64,
    /// Backend that executed it.
    pub backend: BackendKind,
    /// Device the execution was placed on (echoed from the task).
    pub device: usize,
    /// Execution attempt (echoed from the task).
    pub attempt: u32,
    /// The result, or the substrate error that rejected the job.
    /// Errors are per-job: a failed job does not take its worker down.
    pub result: Result<JobResult, RuntimeError>,
}

fn kind_index(kind: BackendKind) -> usize {
    match kind {
        BackendKind::TempusCycleAccurate => 0,
        BackendKind::NvdlaCycleAccurate => 1,
        BackendKind::FastFunctional => 2,
    }
}

/// Cycle-accurate backends get a longer watchdog leash than the
/// functional backend: their honest latency is orders of magnitude
/// higher, and a watchdog that fires on honest work just converts
/// slow successes into retries.
const ACCURATE_WATCHDOG_SCALE: u32 = 20;

fn watchdog_deadline(base: Duration, kind: BackendKind) -> Duration {
    match kind {
        BackendKind::FastFunctional => base,
        _ => base * ACCURATE_WATCHDOG_SCALE,
    }
}

/// An execution currently running on some worker, tracked for the
/// watchdog.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    backend: BackendKind,
    device: usize,
    started: Instant,
    deadline: Duration,
}

/// State shared between the pool handle and its workers.
#[derive(Debug)]
struct PoolShared {
    injector: FaultInjector,
    /// Watchdog base deadline (functional backend; cycle-accurate
    /// kinds get [`ACCURATE_WATCHDOG_SCALE`]×). `None` disables the
    /// watchdog and all per-job registry bookkeeping.
    watchdog: Option<Duration>,
    /// Executions in flight, keyed by `(job id, attempt)`.
    inflight: Mutex<HashMap<(u64, u32), Inflight>>,
    /// Attempts cancelled by the watchdog: their eventual outcomes
    /// are dropped on collect.
    abandoned: Mutex<HashSet<(u64, u32)>>,
    respawns: AtomicU64,
    watchdog_cancels: AtomicU64,
}

/// Everything needed to (re)spawn a worker thread.
#[derive(Debug)]
struct SpawnCtx {
    config: EngineConfig,
    powers: [f64; 3],
    /// Static/leakage fraction of `powers`, per backend kind.
    leak_fracs: [f64; 3],
    task_rx: Arc<Mutex<Receiver<PoolTask>>>,
    outcome_tx: Sender<PoolOutcome>,
    telemetry: Telemetry,
}

/// A resident pool of inference workers accepting incremental job
/// submission.
///
/// Dropping the pool without calling [`WorkerPool::shutdown`] detaches
/// the worker threads; they exit once the task channel closes.
#[derive(Debug)]
pub struct WorkerPool {
    task_tx: Sender<PoolTask>,
    outcome_rx: Receiver<PoolOutcome>,
    handles: Mutex<Vec<(usize, JoinHandle<WorkerStats>)>>,
    /// Stats recovered from workers that died and were respawned.
    retired: Mutex<Vec<WorkerStats>>,
    /// Outcomes synthesized by the watchdog, drained ahead of the
    /// channel.
    synthesized: Mutex<VecDeque<PoolOutcome>>,
    shared: Arc<PoolShared>,
    ctx: SpawnCtx,
    num_arrays: usize,
}

impl WorkerPool {
    /// Spawns `config.workers` resident worker threads. Each worker
    /// lazily instantiates one backend per [`BackendKind`] it is asked
    /// to run, and keeps it (cores, schedule caches) for the pool's
    /// lifetime. The `config.backend` field is ignored — the backend
    /// is chosen per task.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoWorkers`] when `config.workers == 0`.
    pub fn spawn(config: EngineConfig) -> Result<Self, RuntimeError> {
        Self::spawn_traced(config, Telemetry::disabled())
    }

    /// Like [`WorkerPool::spawn`], with a telemetry hub: each worker
    /// records one wall-clock `execute` span per job on its own
    /// `worker{i}` track. With a disabled hub this is exactly
    /// [`WorkerPool::spawn`] — workers hold a no-op sink and pay one
    /// branch per job.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoWorkers`] when `config.workers == 0`.
    pub fn spawn_traced(config: EngineConfig, telemetry: Telemetry) -> Result<Self, RuntimeError> {
        Self::spawn_chaos(config, telemetry, FaultInjector::disabled(), None)
    }

    /// Like [`WorkerPool::spawn_traced`], with a fault injector and an
    /// optional per-job watchdog deadline. A disabled injector plus
    /// `watchdog: None` is exactly [`WorkerPool::spawn_traced`]: no
    /// registry bookkeeping, one `Option` branch per job.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoWorkers`] when `config.workers == 0`.
    pub fn spawn_chaos(
        config: EngineConfig,
        telemetry: Telemetry,
        injector: FaultInjector,
        watchdog: Option<Duration>,
    ) -> Result<Self, RuntimeError> {
        if config.workers == 0 {
            return Err(RuntimeError::NoWorkers);
        }
        // Calibrated per-cycle array power per backend kind, so the
        // pool's energy figures match the batch engine's.
        let powers: [f64; 3] = {
            let mut p = [0.0; 3];
            for kind in BackendKind::ALL {
                p[kind_index(kind)] = array_power_mw(&config, kind);
            }
            p
        };
        let leak_fracs: [f64; 3] = {
            let mut f = [0.0; 3];
            for kind in BackendKind::ALL {
                f[kind_index(kind)] = array_leakage_fraction(&config, kind);
            }
            f
        };
        let (task_tx, task_rx) = channel::<PoolTask>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (outcome_tx, outcome_rx) = channel::<PoolOutcome>();
        let shared = Arc::new(PoolShared {
            injector,
            watchdog,
            inflight: Mutex::new(HashMap::new()),
            abandoned: Mutex::new(HashSet::new()),
            respawns: AtomicU64::new(0),
            watchdog_cancels: AtomicU64::new(0),
        });
        let ctx = SpawnCtx {
            config,
            powers,
            leak_fracs,
            task_rx,
            outcome_tx,
            telemetry,
        };
        let handles = (0..ctx.config.workers)
            .map(|worker| (worker, spawn_worker(worker, &ctx, &shared)))
            .collect();
        let num_arrays = ctx.config.num_arrays.max(1);
        Ok(WorkerPool {
            task_tx,
            outcome_rx,
            handles: Mutex::new(handles),
            retired: Mutex::new(Vec::new()),
            synthesized: Mutex::new(VecDeque::new()),
            shared,
            ctx,
            num_arrays,
        })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        lock_clean(&self.handles).len()
    }

    /// PE arrays of the modelled device.
    #[must_use]
    pub fn num_arrays(&self) -> usize {
        self.num_arrays
    }

    /// Workers respawned after dying (injected or organic).
    #[must_use]
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Executions cancelled by the watchdog.
    #[must_use]
    pub fn watchdog_cancels(&self) -> u64 {
        self.shared.watchdog_cancels.load(Ordering::Relaxed)
    }

    /// Submits one job for execution on `backend` at the full
    /// configured array width (PR 4 semantics). Returns immediately;
    /// the outcome arrives via [`WorkerPool::try_collect`] /
    /// [`WorkerPool::collect_timeout`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::PoolClosed`] when every worker has
    /// exited (all threads panicked or the pool is shutting down).
    pub fn submit(&self, job: Job, backend: BackendKind) -> Result<(), RuntimeError> {
        self.submit_assigned(job, backend, ArrayAssignment::full(self.num_arrays))
    }

    /// Submits one job under an explicit array-slot grant: the worker
    /// executes it at `assignment.granted` arrays (bit-identical to a
    /// pool configured with that array count) and stamps the
    /// assignment into the result.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::PoolClosed`] when every worker has
    /// exited.
    pub fn submit_assigned(
        &self,
        job: Job,
        backend: BackendKind,
        assignment: ArrayAssignment,
    ) -> Result<(), RuntimeError> {
        self.submit_routed(PoolTask {
            job,
            backend,
            assignment,
            device: 0,
            attempt: 0,
            inject: true,
            freq_level: 0,
        })
    }

    /// Submits a fully-addressed task (device, attempt, injection
    /// eligibility) — the serving layer's retry path.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::PoolClosed`] when every worker has
    /// exited.
    pub fn submit_routed(&self, task: PoolTask) -> Result<(), RuntimeError> {
        self.task_tx
            .send(task)
            .map_err(|_| RuntimeError::PoolClosed)
    }

    /// Housekeeping run on every collect: respawn dead workers and
    /// fire the watchdog on overdue executions.
    fn maintain(&self) {
        // Respawn any worker thread that died (injected worker death
        // or an unwind that escaped the per-job catch). Its stats are
        // recovered so shutdown totals stay exact.
        {
            let mut handles = lock_clean(&self.handles);
            for slot in handles.iter_mut() {
                if !slot.1.is_finished() {
                    continue;
                }
                let worker = slot.0;
                let fresh = spawn_worker(worker, &self.ctx, &self.shared);
                let dead = std::mem::replace(&mut slot.1, fresh);
                lock_clean(&self.retired).push(dead.join().unwrap_or_default());
                self.shared.respawns.fetch_add(1, Ordering::Relaxed);
                self.ctx.telemetry.count(Counter::WorkerRespawns, 1);
                let track = self.ctx.telemetry.track("pool", Clock::Wall, 0);
                self.ctx.telemetry.sink().instant(
                    track,
                    Stage::Respawn,
                    self.ctx.telemetry.now_ns(),
                    worker as u64,
                    0,
                );
            }
        }
        // Watchdog: cancel overdue executions. The stuck attempt is
        // marked abandoned so its eventual outcome (stalled, not
        // dead) is discarded instead of double-completing the job.
        if self.shared.watchdog.is_some() {
            let now = Instant::now();
            let overdue: Vec<((u64, u32), Inflight)> = {
                let mut inflight = lock_clean(&self.shared.inflight);
                let keys: Vec<(u64, u32)> = inflight
                    .iter()
                    .filter(|(_, e)| now.duration_since(e.started) > e.deadline)
                    .map(|(&k, _)| k)
                    .collect();
                keys.into_iter()
                    .filter_map(|k| inflight.remove(&k).map(|e| (k, e)))
                    .collect()
            };
            for ((job_id, attempt), entry) in overdue {
                lock_clean(&self.shared.abandoned).insert((job_id, attempt));
                self.shared.watchdog_cancels.fetch_add(1, Ordering::Relaxed);
                self.ctx.telemetry.count(Counter::WatchdogCancels, 1);
                lock_clean(&self.synthesized).push_back(PoolOutcome {
                    job_id,
                    backend: entry.backend,
                    device: entry.device,
                    attempt,
                    result: Err(RuntimeError::StuckJob { job_id }),
                });
            }
        }
    }

    /// Filters outcomes of watchdog-abandoned attempts.
    fn admit_outcome(&self, outcome: PoolOutcome) -> Option<PoolOutcome> {
        let key = (outcome.job_id, outcome.attempt);
        if lock_clean(&self.shared.abandoned).remove(&key) {
            return None;
        }
        Some(outcome)
    }

    /// Collects one completed outcome without blocking.
    #[must_use]
    pub fn try_collect(&self) -> Option<PoolOutcome> {
        self.maintain();
        if let Some(synth) = lock_clean(&self.synthesized).pop_front() {
            return Some(synth);
        }
        while let Ok(outcome) = self.outcome_rx.try_recv() {
            if let Some(outcome) = self.admit_outcome(outcome) {
                return Some(outcome);
            }
        }
        None
    }

    /// Collects one completed outcome, waiting up to `timeout`.
    #[must_use]
    pub fn collect_timeout(&self, timeout: Duration) -> Option<PoolOutcome> {
        self.maintain();
        if let Some(synth) = lock_clean(&self.synthesized).pop_front() {
            return Some(synth);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.outcome_rx.recv_timeout(left) {
                Ok(outcome) => {
                    if let Some(outcome) = self.admit_outcome(outcome) {
                        return Some(outcome);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// Closes the task channel, drains the workers and returns their
    /// final records (including schedule-cache counters accumulated
    /// over the pool's whole lifetime, and the records of any workers
    /// that died and were respawned). Outcomes still in flight when
    /// shutdown is called are discarded — collect (or use
    /// [`WorkerPool::shutdown_drain`]) before shutting down.
    #[must_use]
    pub fn shutdown(self) -> Vec<WorkerStats> {
        drop(self.task_tx);
        let handles = std::mem::take(&mut *lock_clean(&self.handles));
        let mut stats: Vec<WorkerStats> = lock_clean(&self.retired).drain(..).collect();
        stats.extend(
            handles
                .into_iter()
                .map(|(_, h)| h.join().unwrap_or_default()),
        );
        stats
    }

    /// Graceful shutdown: closes the task channel, collects in-flight
    /// outcomes for up to `drain`, then joins the workers. Returns
    /// the worker records, the outcomes drained while shutting down,
    /// and whether the drain deadline expired with work still in
    /// flight (those workers are detached, not abandoned mid-job —
    /// they exit when their current job completes).
    #[must_use]
    pub fn shutdown_drain(self, drain: Duration) -> (Vec<WorkerStats>, Vec<PoolOutcome>, bool) {
        drop(self.task_tx);
        let deadline = Instant::now() + drain;
        let mut drained: Vec<PoolOutcome> = lock_clean(&self.synthesized).drain(..).collect();
        let handles = std::mem::take(&mut *lock_clean(&self.handles));
        let mut timed_out = false;
        for (_, handle) in &handles {
            // Wait for each worker to finish its current job, pulling
            // outcomes as they stream back so the channel never fills.
            while !handle.is_finished() {
                if Instant::now() >= deadline {
                    timed_out = true;
                    break;
                }
                if let Ok(outcome) = self.outcome_rx.recv_timeout(Duration::from_millis(1)) {
                    drained.push(outcome);
                }
            }
            if timed_out {
                break;
            }
        }
        let mut stats: Vec<WorkerStats> = lock_clean(&self.retired).drain(..).collect();
        for (_, handle) in handles {
            if timed_out && !handle.is_finished() {
                // Bounded drain: detach the straggler. It exits after
                // its current job since the task channel is closed.
                continue;
            }
            stats.push(handle.join().unwrap_or_default());
        }
        while let Ok(outcome) = self.outcome_rx.try_recv() {
            drained.push(outcome);
        }
        (stats, drained, timed_out)
    }
}

fn spawn_worker(
    worker: usize,
    ctx: &SpawnCtx,
    shared: &Arc<PoolShared>,
) -> JoinHandle<WorkerStats> {
    let config = ctx.config.clone();
    let powers = ctx.powers;
    let leak_fracs = ctx.leak_fracs;
    let task_rx = Arc::clone(&ctx.task_rx);
    let outcome_tx = ctx.outcome_tx.clone();
    let telemetry = ctx.telemetry.clone();
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        worker_loop(
            worker,
            &config,
            powers,
            leak_fracs,
            &task_rx,
            &outcome_tx,
            &telemetry,
            &shared,
        )
    })
}

#[allow(clippy::too_many_lines)]
#[allow(clippy::too_many_arguments)] // one slot per pool-shared resource handed to the thread
fn worker_loop(
    worker: usize,
    config: &EngineConfig,
    powers: [f64; 3],
    leak_fracs: [f64; 3],
    task_rx: &Mutex<Receiver<PoolTask>>,
    outcome_tx: &Sender<PoolOutcome>,
    telemetry: &Telemetry,
    shared: &PoolShared,
) -> WorkerStats {
    let mut backends: [Option<Box<dyn InferenceBackend>>; 3] = [None, None, None];
    let mut sink = telemetry.sink();
    let track = telemetry.track(&format!("worker{worker}"), Clock::Wall, 0);
    let mut stats = WorkerStats {
        worker,
        ..WorkerStats::default()
    };
    loop {
        // Holding the lock while blocked on recv serialises task
        // pickup, which is exactly the semantics we want: one waiter
        // takes the next task, the rest queue on the mutex. A
        // poisoned lock (a sibling died holding it) is recovered, not
        // propagated — the receiver itself is still sound.
        let task = lock_clean(task_rx).recv();
        let Ok(PoolTask {
            job,
            backend: kind,
            assignment,
            device,
            attempt,
            inject,
            freq_level,
        }) = task
        else {
            break; // channel closed: pool is shutting down
        };
        let inflight_key = (job.id, attempt);
        if let Some(base) = shared.watchdog {
            lock_clean(&shared.inflight).insert(
                inflight_key,
                Inflight {
                    backend: kind,
                    device,
                    started: Instant::now(),
                    deadline: watchdog_deadline(base, kind),
                },
            );
        }
        // Chaos hook: the seeded plan may fail this attempt before
        // (or instead of) executing it. Disabled injectors return
        // None in one branch.
        let fault = if inject {
            shared
                .injector
                .decide(job.id, attempt, device, kind_index(kind))
        } else {
            None
        };
        if let Some(fault) = fault {
            telemetry.count(Counter::FaultsInjected, 1);
            sink.instant(
                track,
                Stage::Fault,
                telemetry.now_ns(),
                job.id,
                fault as u64,
            );
            match fault {
                FaultKind::Transient | FaultKind::DeviceFault => {
                    if shared.watchdog.is_some() {
                        lock_clean(&shared.inflight).remove(&inflight_key);
                    }
                    let outcome = PoolOutcome {
                        job_id: job.id,
                        backend: kind,
                        device,
                        attempt,
                        result: Err(RuntimeError::InjectedFault {
                            job_id: job.id,
                            device,
                        }),
                    };
                    if outcome_tx.send(outcome).is_err() {
                        break;
                    }
                    continue;
                }
                FaultKind::WorkerPanic => {
                    // Report the failure, then die: the pool's
                    // maintenance pass must notice the dead thread
                    // and respawn it to restore capacity.
                    if shared.watchdog.is_some() {
                        lock_clean(&shared.inflight).remove(&inflight_key);
                    }
                    let _ = outcome_tx.send(PoolOutcome {
                        job_id: job.id,
                        backend: kind,
                        device,
                        attempt,
                        result: Err(RuntimeError::WorkerPanicked { worker }),
                    });
                    break;
                }
                FaultKind::Stall => {
                    // Wedge past the watchdog deadline, then proceed:
                    // the watchdog cancels this attempt and the
                    // honest (late) outcome is discarded on collect.
                    let nap = shared
                        .watchdog
                        .map_or(Duration::from_millis(20), |d| d * 3)
                        .min(Duration::from_secs(1));
                    std::thread::sleep(nap);
                }
            }
        }
        let start = Instant::now();
        let start_ns = telemetry.now_ns();
        // A panicking backend must not silently lose the outcome:
        // the serving layer above counts in-flight jobs, and a
        // missing completion would wedge its dispatch gate forever.
        let executed = {
            let backend = backends[kind_index(kind)].get_or_insert_with(|| {
                kind.instantiate(
                    config.tempus,
                    config.nvdla,
                    config.gemm_grid,
                    config.num_arrays,
                    config.scratch_budget_elems,
                )
            });
            catch_unwind(AssertUnwindSafe(|| {
                backend.execute_on(&job, assignment.granted.max(1))
            }))
        };
        let result = match executed {
            Ok(executed) => executed.map(|run| {
                let wall_ns = start.elapsed().as_nanos() as u64;
                stats.jobs += 1;
                stats.sim_cycles += run.sim_cycles;
                stats.wall_ns += wall_ns;
                sink.span(
                    track,
                    Stage::Execute,
                    start_ns,
                    wall_ns,
                    job.id,
                    run.window_cycles,
                );
                if run.window_cycles > 0 {
                    telemetry.count(Counter::WindowCycles, run.window_cycles);
                }
                // Calibrated nominal energy, split into its
                // dynamic/static shares, then scaled to the
                // placement's DVFS level: dynamic ∝ V², static
                // ∝ (period ×) · V. At level 0 every factor is
                // exactly 1.0, reproducing the pre-split figure
                // bit-for-bit.
                let nominal_pj =
                    powers[kind_index(kind)] * run.total_array_cycles as f64 * PERIOD_NS;
                let leak = leak_fracs[kind_index(kind)];
                let lvl = tempus_core::freq::level(freq_level);
                let vscale = lvl.vscale_permille as f64 / tempus_core::freq::VSCALE_ONE as f64;
                let stretch = f64::from(lvl.period_num) / f64::from(lvl.period_den.max(1));
                let dynamic_nom = nominal_pj * (1.0 - leak);
                let static_nom = nominal_pj - dynamic_nom;
                let dynamic_energy_pj = dynamic_nom * vscale * vscale;
                let static_energy_pj = static_nom * stretch * vscale;
                let energy_pj = if freq_level == 0 {
                    nominal_pj
                } else {
                    dynamic_energy_pj + static_energy_pj
                };
                JobResult {
                    job_id: job.id,
                    job_name: job.name.clone(),
                    kind: job.payload.kind(),
                    output: run.output,
                    sim_cycles: run.sim_cycles,
                    total_array_cycles: run.total_array_cycles,
                    shards: run.shards,
                    shard_utilization: run.shard_utilization,
                    arrays_requested: assignment.requested,
                    arrays_granted: assignment.granted.max(1),
                    array_wait_cycles: assignment.wait_cycles,
                    energy_pj,
                    dynamic_energy_pj,
                    static_energy_pj,
                    freq_level,
                    wall_ns,
                    worker,
                    per_shard_cycles: run.per_shard_cycles,
                    reduction_cycles: run.reduction_cycles,
                    window_cycles: run.window_cycles,
                    peak_scratch_elems: run.peak_scratch_elems,
                }
            }),
            Err(_) => {
                // The backend's internal state is suspect after an
                // unwind; drop it and re-instantiate on next use.
                backends[kind_index(kind)] = None;
                Err(RuntimeError::WorkerPanicked { worker })
            }
        };
        if shared.watchdog.is_some() {
            lock_clean(&shared.inflight).remove(&inflight_key);
        }
        let outcome = PoolOutcome {
            job_id: job.id,
            backend: kind,
            device,
            attempt,
            result,
        };
        if outcome_tx.send(outcome).is_err() {
            break; // collector gone: nothing left to work for
        }
    }
    let mut cache: Option<CacheStats> = None;
    for backend in backends.iter().flatten() {
        if let Some(cs) = backend.cache_stats() {
            cache.get_or_insert_with(CacheStats::default).merge(&cs);
        }
    }
    stats.schedule_cache = cache;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_chaos::FaultPlan;
    use tempus_core::gemm::Matrix;

    fn gemm_job(id: u64, salt: i32) -> Job {
        let a = Matrix::from_fn(5, 6, move |r, c| {
            ((r as i32 * 31 + c as i32 * 17 + salt) % 255) - 127
        });
        let b = Matrix::from_fn(6, 4, move |r, c| {
            ((r as i32 * 13 + c as i32 * 41 + salt) % 255) - 127
        });
        Job::gemm(id, format!("gemm-{id}"), a, b)
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = EngineConfig::new(BackendKind::FastFunctional).with_workers(0);
        assert!(matches!(
            WorkerPool::spawn(cfg),
            Err(RuntimeError::NoWorkers)
        ));
    }

    #[test]
    fn incremental_submission_round_trips() {
        let pool =
            WorkerPool::spawn(EngineConfig::new(BackendKind::FastFunctional).with_workers(2))
                .unwrap();
        for id in 0..10u64 {
            pool.submit(gemm_job(id, id as i32), BackendKind::FastFunctional)
                .unwrap();
        }
        let mut seen = Vec::new();
        while seen.len() < 10 {
            let outcome = pool
                .collect_timeout(Duration::from_secs(10))
                .expect("outcome arrives");
            seen.push(outcome.job_id);
            assert!(outcome.result.is_ok());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        let stats = pool.shutdown();
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 10);
    }

    #[test]
    fn mixed_fidelity_agrees_on_outputs() {
        let pool =
            WorkerPool::spawn(EngineConfig::new(BackendKind::FastFunctional).with_workers(2))
                .unwrap();
        let job = gemm_job(0, 3);
        pool.submit(job.clone(), BackendKind::FastFunctional)
            .unwrap();
        let mut fast = None;
        let mut accurate = None;
        pool.submit(Job { id: 1, ..job }, BackendKind::TempusCycleAccurate)
            .unwrap();
        for _ in 0..2 {
            let outcome = pool
                .collect_timeout(Duration::from_secs(10))
                .expect("outcome arrives");
            let result = outcome.result.unwrap();
            match outcome.backend {
                BackendKind::FastFunctional => fast = Some(result),
                BackendKind::TempusCycleAccurate => accurate = Some(result),
                BackendKind::NvdlaCycleAccurate => unreachable!(),
            }
        }
        let (f, a) = (fast.unwrap(), accurate.unwrap());
        assert_eq!(f.output.digest(), a.output.digest());
        assert_eq!(f.sim_cycles, a.sim_cycles);
    }

    #[test]
    fn job_errors_do_not_kill_workers() {
        let pool =
            WorkerPool::spawn(EngineConfig::new(BackendKind::FastFunctional).with_workers(1))
                .unwrap();
        let bad = Job::gemm(0, "mismatched", Matrix::zeros(2, 3), Matrix::zeros(4, 2));
        pool.submit(bad, BackendKind::FastFunctional).unwrap();
        let outcome = pool.collect_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(outcome.result, Err(RuntimeError::Arith(_))));
        // The worker survives and serves the next job.
        pool.submit(gemm_job(1, 0), BackendKind::FastFunctional)
            .unwrap();
        let outcome = pool.collect_timeout(Duration::from_secs(10)).unwrap();
        assert!(outcome.result.is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 1);
    }

    #[test]
    fn injected_transient_fault_fails_attempt_but_not_retry() {
        // Rate 1.0, all transient: attempt 0 always faults; a retry
        // submitted with inject: false must succeed.
        let injector = FaultInjector::enabled(FaultPlan::new(11, 1.0).with_weights(0, 0));
        let pool = WorkerPool::spawn_chaos(
            EngineConfig::new(BackendKind::FastFunctional).with_workers(1),
            Telemetry::disabled(),
            injector,
            None,
        )
        .unwrap();
        pool.submit(gemm_job(7, 1), BackendKind::FastFunctional)
            .unwrap();
        let outcome = pool.collect_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(
            outcome.result,
            Err(RuntimeError::InjectedFault { job_id: 7, .. })
        ));
        pool.submit_routed(PoolTask {
            job: gemm_job(7, 1),
            backend: BackendKind::FastFunctional,
            assignment: ArrayAssignment::full(1),
            device: 0,
            attempt: 1,
            inject: false,
            freq_level: 0,
        })
        .unwrap();
        let outcome = pool.collect_timeout(Duration::from_secs(10)).unwrap();
        assert!(outcome.result.is_ok());
        assert_eq!(outcome.attempt, 1);
        let _ = pool.shutdown();
    }

    #[test]
    fn dead_workers_are_respawned() {
        // Every injected fault is a worker death. The single worker
        // dies on the first job; the pool must respawn it so an
        // injection-exempt follow-up still completes.
        let injector = FaultInjector::enabled(FaultPlan::new(5, 1.0).with_weights(16, 0));
        let pool = WorkerPool::spawn_chaos(
            EngineConfig::new(BackendKind::FastFunctional).with_workers(1),
            Telemetry::disabled(),
            injector,
            None,
        )
        .unwrap();
        pool.submit(gemm_job(0, 2), BackendKind::FastFunctional)
            .unwrap();
        let outcome = pool.collect_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(
            outcome.result,
            Err(RuntimeError::WorkerPanicked { .. })
        ));
        // Collect calls run maintenance; wait for the respawn.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.respawns() == 0 && Instant::now() < deadline {
            let _ = pool.try_collect();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pool.respawns() >= 1);
        pool.submit_routed(PoolTask {
            job: gemm_job(1, 2),
            backend: BackendKind::FastFunctional,
            assignment: ArrayAssignment::full(1),
            device: 0,
            attempt: 1,
            inject: false,
            freq_level: 0,
        })
        .unwrap();
        let outcome = pool.collect_timeout(Duration::from_secs(10)).unwrap();
        assert!(outcome.result.is_ok());
        let _ = pool.shutdown();
    }

    #[test]
    fn watchdog_cancels_stalled_jobs_and_discards_late_outcome() {
        // Every injected fault is a stall; the watchdog (20ms base,
        // stall sleeps 3×) must synthesize a StuckJob failure and
        // later drop the honest-but-late outcome.
        let injector = FaultInjector::enabled(FaultPlan::new(3, 1.0).with_weights(0, 16));
        let pool = WorkerPool::spawn_chaos(
            EngineConfig::new(BackendKind::FastFunctional).with_workers(1),
            Telemetry::disabled(),
            injector,
            Some(Duration::from_millis(20)),
        )
        .unwrap();
        pool.submit(gemm_job(9, 4), BackendKind::FastFunctional)
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let outcome = loop {
            if let Some(o) = pool.try_collect() {
                break o;
            }
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(matches!(
            outcome.result,
            Err(RuntimeError::StuckJob { job_id: 9 })
        ));
        assert_eq!(pool.watchdog_cancels(), 1);
        // The stalled attempt's real outcome must be swallowed.
        assert!(pool.collect_timeout(Duration::from_millis(300)).is_none());
        let _ = pool.shutdown();
    }

    #[test]
    fn shutdown_drain_returns_inflight_outcomes() {
        let pool =
            WorkerPool::spawn(EngineConfig::new(BackendKind::FastFunctional).with_workers(2))
                .unwrap();
        for id in 0..8u64 {
            pool.submit(gemm_job(id, id as i32), BackendKind::FastFunctional)
                .unwrap();
        }
        let (stats, drained, timed_out) = pool.shutdown_drain(Duration::from_secs(10));
        assert!(!timed_out);
        assert_eq!(drained.len(), 8);
        assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 8);
    }
}
