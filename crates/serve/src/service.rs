//! The streaming service: bounded ingestion, admission control,
//! micro-batched dispatch, result caching, per-class SLO stats.
//!
//! ```text
//!  clients ──submit──▶ BoundedQueue (backpressure)
//!                         │ micro-batch drain, gated on in-flight cap
//!                         ▼
//!                    dispatcher thread
//!                    │  cache hit ───────────────▶ Response (no core)
//!                    │  key in flight ───────────▶ coalesce (waiter)
//!                    │  accurate, cap full ──────▶ deferred ──overflow──▶ Rejected
//!                    │                                │ slot frees: hit,
//!                    │                                ▼ coalesce or execute
//!                    │  miss ──────────────▶ place ──┐
//!                    │  speculative answer leg ──────┤
//!                    │  retry (backoff) ───▶ place ──┼──▶ launch ──▶ WorkerPool
//!                    │  degrade ───────────▶ place ──┘                  │
//!                    ▼                                                  │
//!                 outcomes ◀────────────────────────────────────────────┘
//!                    │ ok ────▶ cache insert ──▶ Response + waiter fan-out
//!                    └ fault ─▶ retry while the budget lasts, then degrade
//! ```
//!
//! One dispatcher thread owns the cache and all scheduling decisions;
//! workers stay lock-free on their cores. Backpressure is a chain:
//! the worker pool never holds more than `max_in_flight` jobs, the
//! dispatcher stops draining when that cap is reached, the bounded
//! ingestion queue then fills, and `submit` blocks (or `try_submit`
//! refuses) at the client. Admission control keeps the cycle-accurate
//! fidelity from starving the fast path: at most
//! `max_accurate_in_flight` accurate jobs occupy workers at once, the
//! overflow parks in a bounded deferred queue, and past that bound
//! accurate requests are rejected outright rather than queued without
//! bound.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tempus_chaos::{FaultInjector, FaultPlan};
use tempus_core::shard::WidenPolicy;
use tempus_fleet::{
    DeadlineMiss, ElasticPolicy, FleetConfig, FleetEvent, FleetOutcome, FleetScheduler,
    FleetSummary,
};
use tempus_runtime::pool::{PoolOutcome, PoolTask, WorkerPool};
use tempus_runtime::stats::PERIOD_NS;
use tempus_runtime::{
    ArrayAssignment, ArrayPlanner, ArrayPolicy, BackendKind, EngineConfig, GovernorPolicy, Job,
    JobResult, Placement, RuntimeError, WorkerStats,
};
use tempus_telemetry::{
    Clock, Counter, DeviceTimeline, PlacedSpan, Stage, Telemetry, TraceSink, TrackId,
    DEFAULT_RING_CAPACITY,
};

use crate::cache::{cache_key, CacheEntry, ResultCache, ResultCacheStats};
use crate::class::{Fidelity, JobClass};
use crate::queue::{BoundedQueue, PopResult, PushError};
use crate::request::{
    CacheOutcome, RejectReason, Request, Response, ResponseOutcome, ServedResult, SubmitError,
};
use crate::stats::{ArrayUse, ServeStats, SloPolicy, StatsRecorder};

/// Locks a mutex, recovering the guard from a poisoned lock instead
/// of cascading the panic: everything behind the service's mutexes is
/// plain counters/gauges, valid at every instruction boundary, and
/// one panicking thread must not take the whole service's
/// observability (or its shutdown path) down with it.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded ingestion-queue capacity — the backpressure boundary.
    pub queue_capacity: usize,
    /// Most requests drained from the queue per dispatch iteration
    /// (the micro-batch the dispatcher deals onto the pool).
    pub micro_batch: usize,
    /// Most jobs outstanding on the worker pool at once (all classes).
    pub max_in_flight: usize,
    /// Most cycle-accurate jobs outstanding at once (admission
    /// control; must be ≤ `max_in_flight`). Zero disallows accurate
    /// traffic: such requests are rejected, never deferred.
    pub max_accurate_in_flight: usize,
    /// Bound on the deferred queue holding admission-held accurate
    /// jobs; overflow is rejected.
    pub deferred_capacity: usize,
    /// Result-cache capacity, in entries.
    pub cache_capacity: usize,
    /// Backend serving [`Fidelity::Accurate`] requests
    /// (cycle-accurate Tempus by default; the NVDLA baseline is also
    /// valid).
    pub accurate_backend: BackendKind,
    /// Worker pool configuration (worker count, core configs, GEMM
    /// grid; the `backend` field is ignored — fidelity picks the
    /// backend per job).
    pub engine: EngineConfig,
    /// Per-class latency SLO targets.
    pub slo: SloPolicy,
    /// Simulated devices behind the dispatcher (each one an
    /// `arrays`-wide ledger); > 1 requires co-scheduling.
    pub devices: usize,
    /// Let narrow jobs backfill into idle array gaps (fleet
    /// co-scheduling only).
    pub backfill: bool,
    /// Elastic fleet sizing; `None` keeps the device count fixed.
    pub elastic: Option<ElasticPolicy>,
    /// Fleet-wide average-power budget in mW; admission then picks
    /// the lowest-energy deadline-feasible (width, frequency) point
    /// whose power fits under the cap. `None` (the default) admits on
    /// latency alone — bit-identical to the pre-DVFS scheduler.
    pub power_cap_mw: Option<f64>,
    /// Per-array DVFS governor down-clocking idle-heavy arrays;
    /// `None` (the default) pins every array at the nominal clock.
    pub freq_governor: Option<GovernorPolicy>,
    /// Answer-now-verify-later serving: accurate-fidelity requests
    /// are answered immediately from the bit-identical functional
    /// backend while the cycle-accurate execution verifies the
    /// digest asynchronously.
    pub speculative: bool,
    /// Record dual-clock trace spans (queue → admit → route → grant →
    /// execute → per-shard) into per-thread ring buffers. Off by
    /// default: a disabled service hands every layer a no-op recorder
    /// and pays one branch per would-be event.
    pub tracing: bool,
    /// Per-recorder ring capacity (events, drop-oldest past it) when
    /// tracing.
    pub trace_ring_capacity: usize,
    /// Deterministic fault injection: a seeded [`FaultPlan`] dealt to
    /// execution attempts by the worker pool. `None` (the default)
    /// hands every layer a disabled injector — one branch per job,
    /// bit-identical behaviour to a chaos-free build.
    pub chaos: Option<FaultPlan>,
    /// Per-job watchdog base deadline for the functional backend
    /// (cycle-accurate backends get a 20× leash). `None` disables the
    /// watchdog; [`ServeConfig::with_chaos`] defaults it on.
    pub watchdog: Option<Duration>,
    /// Most times one request may be re-executed after an
    /// infrastructure fault before the degrade-don't-drop fallback
    /// answers it.
    pub max_retries: u32,
    /// Bound on how long shutdown waits for in-flight jobs to drain
    /// before answering the stragglers as failed.
    pub drain_timeout: Duration,
}

impl ServeConfig {
    /// Defaults sized for the paper's 4-worker runtime: a 64-deep
    /// ingestion queue, 16-job micro-batches, 2× workers in flight,
    /// one accurate job at a time, a 4096-entry cache.
    #[must_use]
    pub fn new() -> Self {
        let engine = EngineConfig::new(BackendKind::FastFunctional);
        ServeConfig {
            queue_capacity: 64,
            micro_batch: 16,
            max_in_flight: engine.workers * 2,
            max_accurate_in_flight: 1,
            deferred_capacity: 32,
            cache_capacity: 4096,
            accurate_backend: BackendKind::TempusCycleAccurate,
            engine,
            slo: SloPolicy::edge_defaults(),
            devices: 1,
            backfill: false,
            elastic: None,
            power_cap_mw: None,
            freq_governor: None,
            speculative: false,
            tracing: false,
            trace_ring_capacity: DEFAULT_RING_CAPACITY,
            chaos: None,
            watchdog: None,
            max_retries: 3,
            drain_timeout: Duration::from_secs(5),
        }
    }

    /// Enables deterministic fault injection under `plan` (builder
    /// style), and turns the per-job watchdog on (50 ms functional
    /// base) unless one was configured already — injected stalls are
    /// only recoverable with a watchdog to cancel them.
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        if self.watchdog.is_none() {
            self.watchdog = Some(Duration::from_millis(50));
        }
        self
    }

    /// Overrides the per-job watchdog base deadline (builder style).
    #[must_use]
    pub fn with_watchdog(mut self, base: Duration) -> Self {
        self.watchdog = Some(base);
        self
    }

    /// Overrides the retry budget (builder style).
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the shutdown drain bound (builder style).
    #[must_use]
    pub fn with_drain_timeout(mut self, drain_timeout: Duration) -> Self {
        self.drain_timeout = drain_timeout;
        self
    }

    /// Enables dual-clock span tracing (builder style): the service
    /// creates a [`Telemetry`] hub, instruments the dispatcher, fleet
    /// and workers, and surfaces per-stage histograms in
    /// [`ServeStats::telemetry`]. Outputs and placements are
    /// bit-identical to an untraced run.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Overrides the per-recorder trace ring capacity (builder
    /// style); implies tracing.
    #[must_use]
    pub fn with_trace_ring_capacity(mut self, capacity: usize) -> Self {
        self.tracing = true;
        self.trace_ring_capacity = capacity.max(1);
        self
    }

    /// Overrides the worker count (builder style).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.engine.workers = workers;
        self.max_in_flight = workers.max(1) * 2;
        self
    }

    /// Overrides the modelled PE-array count per worker core (builder
    /// style): jobs shard across the arrays and the service reports
    /// per-class array occupancy in its stats.
    #[must_use]
    pub fn with_arrays(mut self, num_arrays: usize) -> Self {
        self.engine.num_arrays = num_arrays.max(1);
        self
    }

    /// Enables cost-aware array-slot co-scheduling (builder style):
    /// instead of every job owning the whole multi-array core, the
    /// budget planner picks each job's width and the dispatcher packs
    /// concurrent jobs onto disjoint array sets through the
    /// device-time ledger. A co-scheduling policy already set is
    /// kept.
    #[must_use]
    pub fn with_co_scheduling(mut self) -> Self {
        if !self.co_scheduling() {
            self.engine = self.engine.with_co_scheduling();
        }
        self
    }

    /// `true` when the dispatcher co-schedules array slots.
    #[must_use]
    pub fn co_scheduling(&self) -> bool {
        self.engine.scheduling.co_schedules()
    }

    /// Sets the scratch-arena budget in elements (builder style), a
    /// deployment setting: GEMMs size their tile arenas inside it
    /// (outputs and cycles unchanged), and scratch-aware admission
    /// rejects jobs whose smallest possible arena still exceeds it
    /// with [`RejectReason::ScratchBudgetExceeded`].
    #[must_use]
    pub fn with_scratch_budget(mut self, budget_elems: u64) -> Self {
        self.engine.scratch_budget_elems = Some(budget_elems);
        self
    }

    /// Overrides the ingestion-queue capacity (builder style).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the result-cache capacity (builder style).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the engine configuration (builder style), keeping
    /// `max_in_flight` in step with the worker count.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.max_in_flight = engine.workers.max(1) * 2;
        self.engine = engine;
        self
    }

    /// Overrides admission control (builder style).
    #[must_use]
    pub fn with_admission(
        mut self,
        max_accurate_in_flight: usize,
        deferred_capacity: usize,
    ) -> Self {
        self.max_accurate_in_flight = max_accurate_in_flight;
        self.deferred_capacity = deferred_capacity;
        self
    }

    /// Overrides the SLO policy (builder style).
    #[must_use]
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Puts `devices` simulated replicas behind the dispatcher
    /// (builder style). More than one device implies fleet
    /// co-scheduling, so this enables it.
    #[must_use]
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        if self.devices > 1 {
            self = self.with_co_scheduling();
        }
        self
    }

    /// Enables look-ahead backfilling into idle array gaps (builder
    /// style). Backfilling packs cost-aware grants, so this enables
    /// co-scheduling too.
    #[must_use]
    pub fn with_backfill(mut self) -> Self {
        self.backfill = true;
        self.with_co_scheduling()
    }

    /// Enables elastic fleet sizing under `policy` (builder style);
    /// implies co-scheduling.
    #[must_use]
    pub fn with_elastic(mut self, policy: ElasticPolicy) -> Self {
        self.elastic = Some(policy);
        self.with_co_scheduling()
    }

    /// Caps fleet-wide average power at `cap_mw` milliwatts (builder
    /// style): admission walks the width × frequency-ladder grid and
    /// commits the lowest-energy deadline-feasible point that fits
    /// under the cap. Power-aware admission walks cost-aware widths,
    /// so this enables co-scheduling too.
    #[must_use]
    pub fn with_power_cap(mut self, cap_mw: f64) -> Self {
        self.power_cap_mw = Some(cap_mw);
        self.with_co_scheduling()
    }

    /// Enables the per-array DVFS governor (builder style): arrays
    /// whose idle-fraction EWMA runs high are stepped down the
    /// frequency ladder, trading latency on idle-heavy arrays for
    /// leakage energy. Implies co-scheduling (the governor lives in
    /// the array-slot ledger).
    #[must_use]
    pub fn with_freq_governor(mut self, governor: GovernorPolicy) -> Self {
        self.freq_governor = Some(governor);
        self.with_co_scheduling()
    }

    /// Enables answer-now-verify-later serving (builder style):
    /// accurate-fidelity requests are answered immediately from the
    /// bit-identical functional backend, and the cycle-accurate
    /// execution verifies the answer's digest when it completes
    /// (surfaced as `speculative_answers` / `speculative_mismatches`
    /// in the stats — the equivalence contract keeps mismatches at
    /// zero).
    #[must_use]
    pub fn with_speculative(mut self) -> Self {
        self.speculative = true;
        self
    }

    /// The fleet shape the dispatcher schedules through.
    #[must_use]
    pub fn fleet_config(&self) -> FleetConfig {
        let mut fleet = FleetConfig::new(self.devices, self.engine.num_arrays);
        if self.backfill {
            fleet = fleet.with_backfill();
        }
        if let Some(policy) = self.elastic {
            fleet = fleet.with_elastic(policy);
        }
        if let Some(cap_mw) = self.power_cap_mw {
            fleet = fleet.with_power_cap(cap_mw);
        }
        if let Some(governor) = self.freq_governor {
            fleet = fleet.with_freq_governor(governor);
        }
        fleet
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

/// A request inside the service, stamped at admission.
struct Ingest {
    request: Request,
    accepted: Instant,
}

/// Which leg of a speculative answer-now-verify-later pair a pending
/// execution is (or `None` for ordinary dispatches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecRole {
    /// An ordinary execution: the one leg answers the client.
    None,
    /// The speculative answer leg: a functional-backend execution
    /// that answers the client immediately and leaves every durable
    /// side effect (cache insert, device accounting, waiter fan-out)
    /// to the verify leg.
    Answer,
    /// The accurate execution of a speculative pair: it verifies the
    /// answer leg's digest, owns the durable side effects, and only
    /// answers the client itself when it completes first.
    Verify,
}

/// A job dispatched to the pool, awaiting its outcome.
struct Pending {
    class: JobClass,
    key: u64,
    accepted: Instant,
    dispatched: Instant,
    /// The backend this attempt was launched on. Job ids are
    /// caller-assigned and may collide across fidelities, so outcomes
    /// match on (backend, attempt) — a fast outcome can never pop an
    /// accurate record.
    backend: BackendKind,
    /// The fleet placement the job runs under (`None` when unplaced,
    /// as an answer leg is) — kept so its device-cycle spans can be
    /// recorded at completion, when per-shard cycles are known.
    placed: Option<(usize, Placement)>,
    /// A copy of the job, kept only when recovery is possible
    /// (injection enabled or a watchdog armed) so a faulted attempt
    /// can be re-executed. `None` on fault-free configs — those pay
    /// no clone.
    job: Option<Job>,
    /// Which execution attempt this record covers; outcomes carry the
    /// same stamp, so a late (watchdog-cancelled) attempt can never
    /// answer a newer one.
    attempt: u32,
    /// `true` once the degrade-don't-drop fallback re-aimed this
    /// request at the functional backend with injection off.
    degraded: bool,
    /// This record's role in a speculative answer/verify pair.
    spec: SpecRole,
}

impl Pending {
    /// Whether this execution occupies an accurate admission slot.
    /// The answer leg runs functionally and takes none.
    fn holds_accurate_slot(&self) -> bool {
        self.class.fidelity == Fidelity::Accurate && self.spec != SpecRole::Answer
    }
}

/// Base retry backoff in device cycles; attempt `n` waits
/// `base << (n - 1)` cycles before its re-admission arrival, charging
/// recovery to the modelled clock deterministically.
const RETRY_BACKOFF_BASE_CYCLES: u64 = 1_000;

/// An admission-held accurate job awaiting a slot.
struct Held {
    job: Job,
    class: JobClass,
    key: u64,
    accepted: Instant,
    deadline_cycles: Option<u64>,
    /// `true` when a speculative answer leg was already submitted for
    /// this request (at deferral), so its dispatch becomes the verify
    /// leg without submitting a second answer.
    speculated: bool,
}

impl Held {
    /// The record of this request's first attempt on `backend`,
    /// unplaced and keeping no job copy.
    fn pending(&self, backend: BackendKind, spec: SpecRole) -> Pending {
        Pending {
            class: self.class,
            key: self.key,
            accepted: self.accepted,
            dispatched: Instant::now(),
            backend,
            placed: None,
            job: None,
            attempt: 0,
            degraded: false,
            spec,
        }
    }
}

/// A request coalesced onto an identical in-flight execution: it
/// holds no job (the work is already running) and is answered by
/// fan-out when that execution completes.
struct Waiter {
    job_id: u64,
    job_name: String,
    class: JobClass,
    accepted: Instant,
}

/// Most requests that may coalesce onto one in-flight execution.
/// Past this bound a duplicate falls through to the normal admission
/// path (cap, deferral, rejection), so a retry-storm on one hot key
/// cannot grow the waiter list — or the completion fan-out burst —
/// without limit.
const MAX_WAITERS_PER_KEY: usize = 64;

/// The running service: submit requests, receive responses, snapshot
/// stats, shut down.
pub struct StreamingService {
    ingress: Arc<BoundedQueue<Ingest>>,
    response_rx: Receiver<Response>,
    stats: Arc<Mutex<StatsRecorder>>,
    cache_stats: Arc<Mutex<ResultCacheStats>>,
    in_flight_gauge: Arc<AtomicUsize>,
    fleet_gauge: Arc<Mutex<FleetSummary>>,
    dispatcher: Option<JoinHandle<Vec<WorkerStats>>>,
    started: Instant,
    telemetry: Telemetry,
}

impl StreamingService {
    /// Starts the service: spawns the worker pool and the dispatcher
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoWorkers`] when the engine config has
    /// zero workers.
    ///
    /// # Panics
    ///
    /// Panics when `queue_capacity`, `micro_batch`, `max_in_flight`
    /// or `cache_capacity` is zero, or when the accurate backend is
    /// the functional one (that would defeat admission control's
    /// purpose but silently work; misconfiguration should be loud).
    pub fn start(config: ServeConfig) -> Result<Self, RuntimeError> {
        assert!(config.micro_batch > 0, "micro_batch must be >= 1");
        assert!(config.max_in_flight > 0, "max_in_flight must be >= 1");
        // Asserted here, on the caller's thread — ResultCache::new
        // repeats the check, but inside the dispatcher thread, where
        // a panic would surface as a hang instead.
        assert!(config.cache_capacity > 0, "cache_capacity must be >= 1");
        assert!(
            config.accurate_backend != BackendKind::FastFunctional,
            "the accurate fidelity must map to a cycle-accurate backend"
        );
        assert!(
            config.devices == 1 || config.co_scheduling(),
            "a multi-device fleet requires co-scheduling"
        );
        let telemetry = if config.tracing {
            Telemetry::enabled(config.trace_ring_capacity)
        } else {
            Telemetry::disabled()
        };
        let injector = config
            .chaos
            .map_or_else(FaultInjector::disabled, FaultInjector::enabled);
        let pool = WorkerPool::spawn_chaos(
            config.engine.clone(),
            telemetry.clone(),
            injector.clone(),
            config.watchdog,
        )?;
        let ingress = Arc::new(BoundedQueue::new(config.queue_capacity));
        let (response_tx, response_rx) = channel();
        let stats = Arc::new(Mutex::new(StatsRecorder::new(config.slo.clone())));
        let cache_stats = Arc::new(Mutex::new(ResultCacheStats::default()));
        let in_flight_gauge = Arc::new(AtomicUsize::new(0));
        // One planner prices every job for the fleet's ledgers: a
        // width plan (cost-aware) or the whole core (all-arrays,
        // which never reads the widening policy).
        let widen = match config.engine.scheduling {
            ArrayPolicy::CostAware(policy) => policy,
            ArrayPolicy::AllArrays => WidenPolicy::edge_default(),
        };
        let planner = ArrayPlanner::new(&config.engine, widen);
        let mut fleet = FleetScheduler::new(config.fleet_config());
        // The fleet logs its decisions (previews, routes, elastic
        // actions) only when someone will drain them into a trace.
        fleet.set_recording(telemetry.is_enabled());
        let fleet_gauge = Arc::new(Mutex::new(fleet.summary()));
        let dispatcher = {
            let ingress = Arc::clone(&ingress);
            let stats = Arc::clone(&stats);
            let cache_stats = Arc::clone(&cache_stats);
            let in_flight_gauge = Arc::clone(&in_flight_gauge);
            let fleet_gauge = Arc::clone(&fleet_gauge);
            let telemetry2 = telemetry.clone();
            std::thread::spawn(move || {
                let sink = telemetry2.sink();
                let dispatch_track = telemetry2.track("dispatcher", Clock::Wall, 0);
                // 250 MHz device clock: 4 ns = 4000 ps per cycle.
                let timeline = DeviceTimeline::new(&telemetry2, (PERIOD_NS * 1000.0) as u64);
                Dispatcher {
                    cache: ResultCache::new(config.cache_capacity),
                    config,
                    pool,
                    injector,
                    ingress,
                    response_tx,
                    stats,
                    cache_stats,
                    in_flight_gauge,
                    fleet_gauge,
                    planner,
                    fleet,
                    fleet_changed: false,
                    telemetry: telemetry2,
                    sink,
                    dispatch_track,
                    timeline,
                    deferred: VecDeque::new(),
                    pending: HashMap::new(),
                    inflight_waiters: HashMap::new(),
                    spec_digests: HashMap::new(),
                    in_flight: 0,
                    accurate_in_flight: 0,
                    ingress_closed: false,
                    drain_started: None,
                    drain_timed_out: false,
                }
                .run()
            })
        };
        Ok(StreamingService {
            ingress,
            response_rx,
            stats,
            cache_stats,
            in_flight_gauge,
            fleet_gauge,
            dispatcher: Some(dispatcher),
            started: Instant::now(),
            telemetry,
        })
    }

    /// The service's telemetry hub. Disabled (inert) unless the
    /// config asked for tracing; after [`StreamingService::shutdown`]
    /// the hub's `export()` holds the full merged trace.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Submits a request, **blocking** while the ingestion queue is
    /// at capacity — the backpressure path.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] when the service has been shut down.
    pub fn submit(&self, request: Request) -> Result<(), SubmitError> {
        let ingest = Ingest {
            request,
            accepted: Instant::now(),
        };
        match self.ingress.push(ingest) {
            Ok(depth) => {
                let mut stats = lock_clean(&self.stats);
                stats.submitted += 1;
                stats.observe_queue_depth(depth);
                Ok(())
            }
            Err(PushError::Closed(i) | PushError::Full(i)) => {
                Err(SubmitError::ShutDown(Box::new(i.request)))
            }
        }
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at
    /// capacity (the request is handed back for retry),
    /// [`SubmitError::ShutDown`] after shutdown.
    pub fn try_submit(&self, request: Request) -> Result<(), SubmitError> {
        let ingest = Ingest {
            request,
            accepted: Instant::now(),
        };
        match self.ingress.try_push(ingest) {
            Ok(depth) => {
                let mut stats = lock_clean(&self.stats);
                stats.submitted += 1;
                stats.observe_queue_depth(depth);
                Ok(())
            }
            Err(PushError::Full(i)) => {
                lock_clean(&self.stats).queue_full_refusals += 1;
                self.telemetry.count(Counter::RejectedQueueFull, 1);
                Err(SubmitError::QueueFull(Box::new(i.request)))
            }
            Err(PushError::Closed(i)) => Err(SubmitError::ShutDown(Box::new(i.request))),
        }
    }

    /// Receives one response, waiting up to `timeout`.
    #[must_use]
    pub fn recv_response(&self, timeout: Duration) -> Option<Response> {
        self.response_rx.recv_timeout(timeout).ok()
    }

    /// Point-in-time service snapshot.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let cache = *lock_clean(&self.cache_stats);
        let fleet = lock_clean(&self.fleet_gauge).clone();
        let stats = lock_clean(&self.stats);
        stats.snapshot(
            cache,
            self.ingress.len(),
            self.in_flight_gauge.load(Ordering::Relaxed),
            fleet,
            self.started.elapsed().as_nanos() as u64,
            self.telemetry.summary(),
        )
    }

    /// Shuts down: closes the ingestion queue, drains everything
    /// already admitted (deferred and in-flight jobs included),
    /// stops the pool and returns the final stats plus any responses
    /// not yet received.
    ///
    /// # Panics
    ///
    /// Panics if the dispatcher thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> (ServeStats, Vec<Response>) {
        self.ingress.close();
        let handle = self.dispatcher.take().expect("dispatcher running");
        let _worker_stats = handle.join().expect("dispatcher thread healthy");
        let mut leftovers = Vec::new();
        while let Ok(r) = self.response_rx.try_recv() {
            leftovers.push(r);
        }
        (self.stats(), leftovers)
    }
}

impl Drop for StreamingService {
    fn drop(&mut self) {
        self.ingress.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// The dispatcher: single owner of cache and scheduling state.
struct Dispatcher {
    config: ServeConfig,
    pool: WorkerPool,
    /// The seeded fault injector shared with the pool's workers —
    /// the dispatcher consults it for device probes. Disabled (one
    /// branch per call) unless the config carries a chaos plan.
    injector: FaultInjector,
    cache: ResultCache,
    ingress: Arc<BoundedQueue<Ingest>>,
    response_tx: Sender<Response>,
    stats: Arc<Mutex<StatsRecorder>>,
    cache_stats: Arc<Mutex<ResultCacheStats>>,
    in_flight_gauge: Arc<AtomicUsize>,
    fleet_gauge: Arc<Mutex<FleetSummary>>,
    /// The width planner: prices each job's width curve (cost-aware)
    /// or its whole-core cost (all-arrays). Every device models the
    /// same silicon, so one planner prices the whole fleet.
    planner: ArrayPlanner,
    /// The two-level fleet scheduler: device picker over per-device
    /// ledgers, plus backfilling, deadline admission and elastic
    /// sizing — the one device account under either array policy.
    /// Dispatch order fixes the placement order, so grants, starts
    /// and waits are deterministic for a deterministic admission
    /// sequence. A 1-device fleet is bit-identical to driving one
    /// ledger directly.
    fleet: FleetScheduler,
    /// Set when this loop turn changed the fleet account (a
    /// placement, rollback or probe); the fleet gauge is republished
    /// only then.
    fleet_changed: bool,
    /// The telemetry hub (inert when tracing is off).
    telemetry: Telemetry,
    /// The dispatcher thread's recorder.
    sink: Box<dyn TraceSink>,
    /// Wall-clock track the request-path spans (queue, admit,
    /// cache-hit, coalesce, reject) land on.
    dispatch_track: TrackId,
    /// Lowers committed placements onto per-device/per-array
    /// device-cycle tracks at completion.
    timeline: DeviceTimeline,
    deferred: VecDeque<Held>,
    /// Outcomes are matched back by job id; duplicate ids queue up.
    pending: HashMap<u64, VecDeque<Pending>>,
    /// One entry per in-flight execution, keyed by cache key; the
    /// value holds every request coalesced onto it. Presence of the
    /// key is what later identical requests test to avoid executing
    /// the same work twice.
    inflight_waiters: HashMap<u64, Vec<Waiter>>,
    /// Digest rendezvous for speculative pairs, keyed by (job id,
    /// cache key): whichever leg completes first deposits its output
    /// digest (`None` from a degraded verify leg, which has nothing
    /// to audit); the second compares and removes. An entry therefore
    /// also means "the client has been answered" to the verify leg's
    /// completion and failure paths.
    spec_digests: HashMap<(u64, u64), Option<u64>>,
    in_flight: usize,
    accurate_in_flight: usize,
    ingress_closed: bool,
    /// When the service went idle-but-for-in-flight work after the
    /// ingress closed — the start of the bounded shutdown drain.
    drain_started: Option<Instant>,
    /// Set when the drain bound expired and stragglers were answered
    /// as failed.
    drain_timed_out: bool,
}

impl Dispatcher {
    fn backend_for(&self, fidelity: Fidelity) -> BackendKind {
        match fidelity {
            Fidelity::Fast => BackendKind::FastFunctional,
            Fidelity::Accurate => self.config.accurate_backend,
        }
    }

    fn respond(&self, response: Response) {
        // A receiver that hung up just means nobody wants responses;
        // stats still record everything.
        let _ = self.response_tx.send(response);
    }

    fn publish_gauges(&mut self) {
        *lock_clean(&self.cache_stats) = self.cache.stats();
        self.in_flight_gauge
            .store(self.in_flight, Ordering::Relaxed);
        if std::mem::take(&mut self.fleet_changed) {
            *lock_clean(&self.fleet_gauge) = self.fleet.summary();
        }
    }

    /// Drains the fleet scheduler's decision log and lowers it onto
    /// the per-device trace tracks (device-cycle clock); the fleet
    /// records nothing when tracing is off. Every fleet change (a
    /// placement, rollback or probe) ends here, so this also marks
    /// the fleet gauge stale.
    fn lower_fleet_events(&mut self, job_id: u64) {
        self.fleet_changed = true;
        for event in self.fleet.drain_events() {
            match event {
                FleetEvent::Preview {
                    device,
                    finish_cycle,
                } => {
                    let track = self.timeline.device_track(device);
                    self.sink
                        .instant(track, Stage::Preview, finish_cycle, job_id, finish_cycle);
                }
                FleetEvent::Route {
                    device,
                    start_cycle,
                    granted,
                } => {
                    let track = self.timeline.device_track(device);
                    self.sink
                        .instant(track, Stage::Route, start_cycle, job_id, granted as u64);
                }
                FleetEvent::Backfill {
                    device,
                    start_cycle,
                } => {
                    let track = self.timeline.device_track(device);
                    self.sink
                        .instant(track, Stage::Backfill, start_cycle, job_id, 0);
                    self.telemetry.count(Counter::Backfills, 1);
                }
                // The rejection is recorded on the dispatcher's wall
                // track where the response is produced.
                FleetEvent::Reject { .. } => {}
                FleetEvent::Drain { device, cycle } => {
                    let track = self.timeline.device_track(device);
                    self.sink
                        .instant(track, Stage::Drain, cycle, device as u64, 0);
                    self.telemetry.count(Counter::ElasticDrains, 1);
                }
                FleetEvent::Revive { device, cycle } => {
                    let track = self.timeline.device_track(device);
                    self.sink
                        .instant(track, Stage::Revive, cycle, device as u64, 0);
                    self.telemetry.count(Counter::ElasticRevives, 1);
                }
                FleetEvent::Quarantine { device, cycle } => {
                    let track = self.timeline.device_track(device);
                    self.sink
                        .instant(track, Stage::Quarantine, cycle, device as u64, 0);
                    self.telemetry.count(Counter::Quarantines, 1);
                }
                FleetEvent::Probe {
                    device,
                    cycle,
                    healthy,
                } => {
                    let track = self.timeline.device_track(device);
                    self.sink.instant(
                        track,
                        Stage::Probe,
                        cycle,
                        device as u64,
                        u64::from(healthy),
                    );
                    self.telemetry.count(Counter::Probes, 1);
                }
                // The rollback's observable effect is the re-route
                // that follows; the fleet summary carries the count.
                FleetEvent::Rollback { .. } => {}
                FleetEvent::IdleGap {
                    device,
                    array,
                    from,
                    cycles,
                } => {
                    let track = self.timeline.array_track(device, array);
                    self.sink
                        .span(track, Stage::ArrayIdle, from, cycles, array as u64, 0);
                }
                FleetEvent::FreqChange {
                    device,
                    array,
                    level,
                    cycle,
                } => {
                    let track = self.timeline.device_track(device);
                    self.sink.instant(
                        track,
                        Stage::FreqChange,
                        cycle,
                        array as u64,
                        u64::from(level),
                    );
                    self.telemetry.count(Counter::FreqChanges, 1);
                }
            }
        }
    }

    /// Admits one popped request: answered without executing when it
    /// can be, otherwise dispatched, deferred or rejected.
    fn admit(&mut self, ingest: Ingest) {
        let Ingest { request, accepted } = ingest;
        let class = request.class();
        let key = cache_key(
            request.job.content_key(),
            self.backend_for(request.fidelity),
        );
        if self.sink.is_enabled() {
            // The queue span runs from acceptance to this pop.
            let waited = accepted.elapsed().as_nanos() as u64;
            let now = self.telemetry.now_ns();
            self.sink.span(
                self.dispatch_track,
                Stage::Queue,
                now.saturating_sub(waited),
                waited,
                request.job.id,
                0,
            );
        }
        let held = Held {
            job: request.job,
            class,
            key,
            accepted,
            deadline_cycles: request.deadline_cycles,
            speculated: false,
        };
        let Some(mut held) = self.answer_without_executing(held) else {
            return;
        };
        if class.fidelity == Fidelity::Accurate
            && self.accurate_in_flight >= self.config.max_accurate_in_flight
        {
            // A cap of zero disallows accurate traffic entirely:
            // deferring would park the job forever (promotion needs a
            // slot that can never open), so reject instead.
            if self.config.max_accurate_in_flight == 0
                || self.deferred.len() >= self.config.deferred_capacity
            {
                self.reject(held, RejectReason::AccurateAdmissionFull);
            } else {
                // Answer-now-verify-later pays off most here: the
                // accurate leg may park behind the admission cap for
                // a long time, but the client hears the functional
                // answer immediately; the deferred job verifies it
                // whenever its slot opens.
                if self.config.speculative {
                    let answer = held.pending(BackendKind::FastFunctional, SpecRole::Answer);
                    held.speculated = self.launch(held.job.clone(), answer);
                }
                self.deferred.push_back(held);
                lock_clean(&self.stats).observe_deferred_depth(self.deferred.len());
            }
            return;
        }
        self.dispatch(held);
    }

    /// Answers a request without executing it when it can: from the
    /// cache, or by coalescing onto an identical in-flight execution
    /// (same content key, same backend). Runs before admission
    /// control, so a coalesced accurate request never burns an
    /// admission slot; a full waiter list falls through. Hands the
    /// request back when it must execute.
    fn answer_without_executing(&mut self, held: Held) -> Option<Held> {
        if let Some(entry) = self.cache.get(held.key) {
            let total_ns = held.accepted.elapsed().as_nanos() as u64;
            self.sink.instant(
                self.dispatch_track,
                Stage::CacheHit,
                self.telemetry.now_ns(),
                held.job.id,
                0,
            );
            self.telemetry.count(Counter::CacheHits, 1);
            // A hit never touches the device, so it never waits for
            // arrays, allocates no scratch and spends no new energy.
            let arrays = ArrayUse {
                shards: entry.shards,
                utilization: entry.shard_utilization,
                granted: entry.arrays_granted,
                wait_cycles: 0,
                peak_scratch_elems: 0,
                energy_pj: 0.0,
                dynamic_energy_pj: 0.0,
                static_energy_pj: 0.0,
            };
            lock_clean(&self.stats).record_completion(held.class, total_ns, true, arrays);
            self.respond(Response {
                job_id: held.job.id,
                job_name: held.job.name,
                class: held.class,
                outcome: ResponseOutcome::Done(served(entry, arrays, CacheOutcome::Hit, false)),
                queue_ns: total_ns,
                total_ns,
            });
            return None;
        }
        match self.inflight_waiters.get_mut(&held.key) {
            Some(waiters) if waiters.len() < MAX_WAITERS_PER_KEY => {
                waiters.push(Waiter {
                    job_id: held.job.id,
                    job_name: held.job.name,
                    class: held.class,
                    accepted: held.accepted,
                });
                self.sink.instant(
                    self.dispatch_track,
                    Stage::Coalesce,
                    self.telemetry.now_ns(),
                    held.key,
                    0,
                );
                self.telemetry.count(Counter::Coalesced, 1);
                None
            }
            _ => Some(held),
        }
    }

    /// Refuses a request with `reason`. A request whose answer leg
    /// already responded cannot be refused — the client heard a
    /// successful answer — so it only drops its rendezvous entry and
    /// walks away: no verify leg will run.
    fn reject(&mut self, held: Held, reason: RejectReason) {
        if held.speculated {
            self.spec_digests.remove(&(held.job.id, held.key));
            return;
        }
        let (counter, detail) = match reason {
            RejectReason::AccurateAdmissionFull => (Counter::RejectedAdmissionCap, 0),
            RejectReason::DeadlineUnattainable {
                deadline_cycles, ..
            } => (Counter::RejectedDeadline, deadline_cycles),
            RejectReason::ScratchBudgetExceeded { required_elems, .. } => {
                (Counter::RejectedScratch, required_elems)
            }
        };
        let total_ns = held.accepted.elapsed().as_nanos() as u64;
        lock_clean(&self.stats).record_rejection(held.class, &reason);
        self.sink.instant(
            self.dispatch_track,
            Stage::Reject,
            self.telemetry.now_ns(),
            held.job.id,
            detail,
        );
        self.telemetry.count(counter, 1);
        self.respond(Response {
            job_id: held.job.id,
            job_name: held.job.name,
            class: held.class,
            outcome: ResponseOutcome::Rejected(reason),
            queue_ns: total_ns,
            total_ns,
        });
    }

    /// Hands a cache-missed job to the pool under an array-slot
    /// grant: cost-aware width plus device-time packing onto disjoint
    /// array sets when co-scheduling, the whole core otherwise (PR 4
    /// semantics — bit-identical results either way at equal granted
    /// widths).
    fn dispatch(&mut self, held: Held) {
        // Scratch-aware admission: under a configured arena budget,
        // a job whose smallest possible plan still exceeds it is
        // rejected up front — the alternative is silently overrunning
        // the budget the deployment sized its SRAM by.
        if let Some(budget_elems) = self.config.engine.scratch_budget_elems {
            let required_elems = self.config.engine.min_stream_scratch_elems(&held.job);
            if required_elems > budget_elems {
                let reason = RejectReason::ScratchBudgetExceeded {
                    required_elems,
                    budget_elems,
                };
                self.reject(held, reason);
                return;
            }
        }
        let admit_start = self.telemetry.now_ns();
        let placed = match self.place(&held.job, held.deadline_cycles, None) {
            Ok(placed) => placed,
            Err(miss) => {
                // No device at any width meets the deadline: reject
                // at admission instead of timing out.
                let reason = RejectReason::DeadlineUnattainable {
                    deadline_cycles: miss.deadline_cycles,
                    best_latency_cycles: miss.best_latency_cycles,
                };
                self.reject(held, reason);
                return;
            }
        };
        // The admission decision span: width planning, device pick,
        // deadline check — the dispatcher-side cost of scheduling.
        if self.sink.is_enabled() {
            let now = self.telemetry.now_ns();
            self.sink.span(
                self.dispatch_track,
                Stage::Admit,
                admit_start,
                now.saturating_sub(admit_start),
                held.job.id,
                placed.1.assignment.granted as u64,
            );
        }
        // Answer-now-verify-later: accurate requests get a second,
        // functional-backend leg that answers the client immediately;
        // the accurate execution becomes the verify leg. A request
        // speculated at deferral already has its answer leg out.
        let speculate = !held.speculated
            && self.config.speculative
            && held.class.fidelity == Fidelity::Accurate;
        let answer = speculate.then(|| {
            let record = held.pending(BackendKind::FastFunctional, SpecRole::Answer);
            (held.job.clone(), record)
        });
        let spec = if held.speculated || speculate {
            SpecRole::Verify
        } else {
            SpecRole::None
        };
        // Recovery needs the job back to re-execute it; fault-free
        // configs (no injection, no watchdog) skip the clone.
        let recoverable = self.injector.is_enabled() || self.config.watchdog.is_some();
        let record = Pending {
            placed: Some(placed),
            job: recoverable.then(|| held.job.clone()),
            ..held.pending(self.backend_for(held.class.fidelity), spec)
        };
        // The answer leg launches only once the verify leg is in
        // flight, so a Verify record always has its sibling; if the
        // answer launch fails (teardown), the verify record is
        // downgraded and answers the client itself.
        if self.launch(held.job, record) {
            if let Some((job, record)) = answer {
                self.launch(job, record);
            }
        }
    }

    /// Places one execution on the fleet: the cost-aware width plan,
    /// admitted under `deadline_cycles`, or the all-arrays whole-core
    /// cost, admitted unconditionally. `backoff` is `None` for an
    /// arrival at the fleet floor and `Some(cycles)` for a retry
    /// arriving that far past it (elastic sizing reads the admission
    /// latency measured from either reference).
    fn place(
        &mut self,
        job: &Job,
        deadline_cycles: Option<u64>,
        backoff: Option<u64>,
    ) -> Result<(usize, Placement), DeadlineMiss> {
        let arrival = backoff.map(|backoff| self.fleet.floor().saturating_add(backoff));
        let outcome = match self.config.engine.scheduling {
            ArrayPolicy::AllArrays => {
                let cost = self.planner.whole_core_cost(job);
                FleetOutcome::Placed(self.fleet.admit_exclusive(&cost, arrival.unwrap_or(0)))
            }
            ArrayPolicy::CostAware(_) => {
                let plan = self.planner.plan_or_single(job);
                match arrival {
                    None => self.fleet.admit(&plan, deadline_cycles),
                    Some(arrival) => self.fleet.admit_at(&plan, deadline_cycles, arrival),
                }
            }
        };
        self.lower_fleet_events(job.id);
        match outcome {
            FleetOutcome::Placed(placed) => Ok((placed.device, placed.placement)),
            FleetOutcome::Rejected(miss) => Err(miss),
        }
    }

    /// Starts one execution — a first attempt, a retry, a degrade or a
    /// speculative answer leg — as `record` describes it: backend,
    /// attempt and placement (the whole core when unplaced). A
    /// functional fallback (a degraded attempt or an answer leg) runs
    /// with injection off at the nominal clock. Returns `false` when
    /// the pool refused the task (teardown only), after failing the
    /// record like any other unrecoverable end.
    fn launch(&mut self, job: Job, record: Pending) -> bool {
        let fallback = record.degraded || record.spec == SpecRole::Answer;
        let (device, assignment, level) = match &record.placed {
            Some((device, p)) => (*device, p.assignment, p.freq_level),
            None => (0, ArrayAssignment::full(self.config.engine.num_arrays), 0),
        };
        let job_id = job.id;
        let task = PoolTask {
            job,
            backend: record.backend,
            assignment,
            device,
            attempt: record.attempt,
            inject: !fallback,
            freq_level: if fallback { 0 } else { level },
        };
        if self.pool.submit_routed(task).is_err() {
            self.fail_final(&record, job_id, &RuntimeError::PoolClosed);
            return false;
        }
        self.in_flight += 1;
        if record.holds_accurate_slot() {
            self.accurate_in_flight += 1;
        }
        // The answer leg leaves the waiter list to its verify sibling.
        if record.spec != SpecRole::Answer {
            self.inflight_waiters.entry(record.key).or_default();
        }
        self.pending.entry(job_id).or_default().push_back(record);
        true
    }

    /// Matches a pool outcome back to its pending record: memoizes,
    /// responds, frees slots.
    fn complete(&mut self, outcome: PoolOutcome) {
        let Some(entry) = self.pending.get_mut(&outcome.job_id) else {
            return; // unreachable: every submission is recorded
        };
        let Some(pos) = entry
            .iter()
            .position(|p| p.backend == outcome.backend && p.attempt == outcome.attempt)
        else {
            // A late outcome from a superseded attempt (its retry is
            // already in flight under a higher stamp): drop it.
            return;
        };
        let mut pending = entry.remove(pos).expect("position is in range");
        if entry.is_empty() {
            self.pending.remove(&outcome.job_id);
        }
        self.in_flight -= 1;
        if pending.holds_accurate_slot() {
            self.accurate_in_flight -= 1;
        }
        let queue_ns = (pending.dispatched - pending.accepted).as_nanos() as u64;
        let total_ns = pending.accepted.elapsed().as_nanos() as u64;
        match outcome.result {
            Ok(result) if pending.spec == SpecRole::Answer => {
                self.complete_answer_leg(&pending, result, queue_ns, total_ns);
            }
            Ok(mut result) => {
                if let Some((device, placement)) = &pending.placed {
                    // The device delivered: reset its circuit breaker.
                    self.fleet.report_success(*device);
                    // DVFS residency: array-cycles spent at the
                    // placement's ladder level (level 0 without a cap or
                    // governor — the counters then mirror busy cycles).
                    self.telemetry.count(
                        Counter::freq_residency(placement.freq_level as usize),
                        placement.arrays.len() as u64 * placement.duration_cycles,
                    );
                }
                // Speculative verify leg: if the answer leg got there
                // first the client is already answered — this completion
                // only closes the rendezvous and publishes the durable
                // side effects (cache, device accounting, waiter
                // fan-out). A degraded verify leg ran functionally: it
                // audits nothing.
                let answered = pending.spec == SpecRole::Verify
                    && self.rendezvous(
                        result.job_id,
                        pending.key,
                        (!pending.degraded).then(|| result.output.digest()),
                    );
                // Requests coalesced onto this execution share its
                // result: waiters fan out in arrival order, then the
                // primary.
                let waiters = self
                    .inflight_waiters
                    .remove(&pending.key)
                    .unwrap_or_default();
                // Device-cycle spans are recorded at completion, when the
                // backend's per-shard cycles are known: grant,
                // gather-wait and per-shard busy (reduction sub-span),
                // plus the window-batch and scratch counters.
                if let Some((device, p)) =
                    pending.placed.as_ref().filter(|_| self.sink.is_enabled())
                {
                    let span = PlacedSpan {
                        device: *device,
                        job_id: result.job_id,
                        arrays: &p.arrays,
                        start: p.start_cycle,
                        duration: p.duration_cycles,
                        wait_cycles: result.array_wait_cycles,
                        granted: result.arrays_granted as u64,
                        backfilled: p.backfilled,
                        per_shard_cycles: &result.per_shard_cycles,
                        reduction_cycles: result.reduction_cycles,
                    };
                    self.timeline.observe(&mut *self.sink, &span);
                    for (stage, value) in [
                        (Stage::Window, result.window_cycles),
                        (Stage::StreamWindow, result.peak_scratch_elems),
                    ] {
                        if value > 0 {
                            let track = self.timeline.device_track(*device);
                            self.sink.counter(track, stage, p.finish_cycle(), value);
                        }
                    }
                }
                let arrays = array_use(&result);
                let (job_id, job_name) = (result.job_id, std::mem::take(&mut result.job_name));
                let entry = memo(result);
                self.cache.insert(pending.key, entry.clone());
                // One guard for the completion and its whole fan-out: a
                // snapshot never observes a torn state with only some
                // waiters counted, and the dispatcher does not churn the
                // lock per waiter.
                let mut stats = lock_clean(&self.stats);
                // An already-answered verify leg recorded its completion
                // (and latency) at answer time; a degraded one that did
                // not answer its client served no degraded answer either.
                if !answered {
                    stats.record_completion(pending.class, total_ns, false, arrays);
                    if pending.degraded {
                        stats.record_degraded(pending.class);
                        self.telemetry.count(Counter::Degraded, 1);
                    }
                }
                for waiter in waiters {
                    let waiter_total_ns = waiter.accepted.elapsed().as_nanos() as u64;
                    // Waiters share the execution but did not wait for
                    // its arrays, and its energy was spent once — both
                    // are counted on the primary only.
                    let shared = ArrayUse {
                        wait_cycles: 0,
                        energy_pj: 0.0,
                        dynamic_energy_pj: 0.0,
                        static_energy_pj: 0.0,
                        ..arrays
                    };
                    stats.record_coalesced(waiter.class, waiter_total_ns, shared);
                    let done = served(
                        entry.clone(),
                        shared,
                        CacheOutcome::Coalesced,
                        pending.degraded,
                    );
                    self.respond(Response {
                        job_id: waiter.job_id,
                        job_name: waiter.job_name,
                        class: waiter.class,
                        outcome: ResponseOutcome::Done(done),
                        queue_ns: waiter_total_ns,
                        total_ns: waiter_total_ns,
                    });
                }
                drop(stats);
                // The primary responds last so it can take the output by
                // move — the common zero-waiter case pays only the
                // cache-insert clone. An already-answered verify leg
                // stays silent: its client heard the answer leg.
                if !answered {
                    let done = served(entry, arrays, CacheOutcome::Miss, pending.degraded);
                    self.respond(Response {
                        job_id,
                        job_name,
                        class: pending.class,
                        outcome: ResponseOutcome::Done(done),
                        queue_ns,
                        total_ns,
                    });
                }
            }
            Err(error) => {
                // Infrastructure faults (injected transients, worker
                // deaths, watchdog cancels) are the service's to
                // recover from; job-level errors (shape, precision)
                // are the caller's and fail through unchanged.
                let transient = matches!(
                    error,
                    RuntimeError::InjectedFault { .. }
                        | RuntimeError::WorkerPanicked { .. }
                        | RuntimeError::StuckJob { .. }
                );
                if transient {
                    // Charge the device's circuit breaker and pull
                    // the dead placement's grant back so its capacity
                    // re-opens for the re-route.
                    if let Some((device, placement)) = &pending.placed {
                        self.fleet.report_failure(*device);
                        self.fleet.rollback(*device, placement);
                        self.lower_fleet_events(outcome.job_id);
                    }
                    // Answer legs keep no job copy: they never retry.
                    if !pending.degraded {
                        if let Some(job) = pending.job.take() {
                            self.recover(pending, job);
                            return;
                        }
                    }
                }
                self.fail_final(&pending, outcome.job_id, &error);
            }
        }
    }

    /// A speculative answer leg completed: answer the client
    /// immediately from the bit-identical functional result and
    /// deposit the digest for the verify leg. Nothing durable happens
    /// here — cache insert, device accounting and waiter fan-out all
    /// belong to the verify leg. When the verify leg finished first,
    /// this completion only closes the rendezvous.
    fn complete_answer_leg(
        &mut self,
        pending: &Pending,
        mut result: JobResult,
        queue_ns: u64,
        total_ns: u64,
    ) {
        if self.rendezvous(result.job_id, pending.key, Some(result.output.digest())) {
            return;
        }
        self.telemetry.count(Counter::SpeculativeAnswers, 1);
        // The answer leg takes no grant, so it never waits for arrays.
        let arrays = ArrayUse {
            wait_cycles: 0,
            ..array_use(&result)
        };
        let mut stats = lock_clean(&self.stats);
        stats.record_speculative_answer(pending.class);
        stats.record_completion(pending.class, total_ns, false, arrays);
        drop(stats);
        self.respond(Response {
            job_id: result.job_id,
            job_name: std::mem::take(&mut result.job_name),
            class: pending.class,
            outcome: ResponseOutcome::Done(served(memo(result), arrays, CacheOutcome::Miss, false)),
            queue_ns,
            total_ns,
        });
    }

    /// Meets the two legs of a speculative pair on the output digest.
    /// The first leg to complete deposits its digest and returns
    /// `false` (it answers the client); the second compares and
    /// returns `true` (the client is already answered). A degraded
    /// verify leg brings `None`: only a rendezvous closed against a
    /// cycle-accurate digest counts as verified or mismatched. The
    /// equivalence contract keeps mismatches at zero; a non-zero
    /// count means a backend diverged and is worth an alarm.
    fn rendezvous(&mut self, job_id: u64, key: u64, digest: Option<u64>) -> bool {
        let Some(sibling) = self.spec_digests.remove(&(job_id, key)) else {
            self.spec_digests.insert((job_id, key), digest);
            return false;
        };
        if let (Some(a), Some(b)) = (sibling, digest) {
            let mut stats = lock_clean(&self.stats);
            if a == b {
                stats.speculative_verified += 1;
            } else {
                stats.speculative_mismatches += 1;
                self.telemetry.count(Counter::SpeculativeMismatches, 1);
            }
        }
        true
    }

    /// Relaunches a faulted attempt. The request was already admitted
    /// once, so re-admission carries no deadline and is never
    /// rejected; its waiters stay attached and fan out from whichever
    /// attempt finally answers. While the retry budget lasts, the
    /// attempt re-executes on its own backend after a deterministic
    /// backoff charged in device cycles (`base << attempt`, modelled
    /// as the re-admission's arrival cycle — the retry cannot start
    /// before it). Once it is spent, degrade-don't-drop: the
    /// functional backend answers with injection off. Outputs are
    /// bit-identical across backends, so the caller still receives
    /// the right bits; the response is flagged
    /// [`ServedResult::degraded`].
    fn recover(&mut self, pending: Pending, job: Job) {
        let attempt = pending.attempt + 1;
        let job_id = job.id;
        let backoff = (pending.attempt < self.config.max_retries)
            .then(|| RETRY_BACKOFF_BASE_CYCLES << pending.attempt);
        // Deadline-free admission places somewhere unless a power cap
        // leaves no room; the attempt then runs unplaced.
        let placed = self.place(&job, None, backoff).ok();
        let backend = match backoff {
            Some(backoff) => {
                if let Some((device, p)) = placed.as_ref().filter(|_| self.sink.is_enabled()) {
                    let track = self.timeline.device_track(*device);
                    self.sink.instant(
                        track,
                        Stage::Retry,
                        p.start_cycle,
                        job_id,
                        u64::from(attempt),
                    );
                }
                self.telemetry.count(Counter::Retries, 1);
                self.telemetry.count(Counter::RetryBackoffCycles, backoff);
                lock_clean(&self.stats).record_retry(pending.class);
                pending.backend
            }
            None => {
                self.sink.instant(
                    self.dispatch_track,
                    Stage::Degrade,
                    self.telemetry.now_ns(),
                    job_id,
                    u64::from(attempt),
                );
                BackendKind::FastFunctional
            }
        };
        let record = Pending {
            backend,
            placed,
            job: Some(job.clone()),
            attempt,
            degraded: backoff.is_none(),
            ..pending
        };
        self.launch(job, record);
    }

    /// Final failure: answers the primary and every waiter coalesced
    /// onto its execution. Only unrecoverable ends come here —
    /// job-level errors, a closed pool, or the drain bound expiring.
    fn fail_final(&mut self, pending: &Pending, job_id: u64, error: &RuntimeError) {
        // A failed answer leg is invisible to the client: if the
        // verify leg already answered, drop the rendezvous entry;
        // otherwise downgrade the verify record to an ordinary
        // execution so it answers the client itself instead of
        // waiting on a digest that will never arrive.
        if pending.spec == SpecRole::Answer {
            if self.spec_digests.remove(&(job_id, pending.key)).is_none() {
                let records = self.pending.get_mut(&job_id).into_iter().flatten();
                for p in records.filter(|p| p.key == pending.key && p.spec == SpecRole::Verify) {
                    p.spec = SpecRole::None;
                }
            }
            return;
        }
        // A verify leg whose answer sibling already responded must
        // not answer the same client again with a failure; only its
        // waiters (who heard nothing) are failed below.
        let answered = pending.spec == SpecRole::Verify
            && self.spec_digests.remove(&(job_id, pending.key)).is_some();
        let queue_ns = (pending.dispatched - pending.accepted).as_nanos() as u64;
        let total_ns = pending.accepted.elapsed().as_nanos() as u64;
        let waiters = self
            .inflight_waiters
            .remove(&pending.key)
            .unwrap_or_default();
        let mut stats = lock_clean(&self.stats);
        if !answered {
            stats.record_failure(pending.class);
            self.respond(Response {
                job_id,
                job_name: String::new(),
                class: pending.class,
                outcome: ResponseOutcome::Failed(error.clone()),
                queue_ns,
                total_ns,
            });
        }
        for waiter in waiters {
            let waiter_total_ns = waiter.accepted.elapsed().as_nanos() as u64;
            stats.record_failure(waiter.class);
            self.respond(Response {
                job_id: waiter.job_id,
                job_name: waiter.job_name,
                class: waiter.class,
                outcome: ResponseOutcome::Failed(error.clone()),
                queue_ns: waiter_total_ns,
                total_ns: waiter_total_ns,
            });
        }
    }

    /// Answers every still-pending execution (and its waiters) as
    /// failed: the shutdown drain bound expired and the stragglers
    /// must not hold the service's teardown hostage.
    fn abandon_inflight(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for (job_id, records) in pending {
            for record in records {
                self.fail_final(&record, job_id, &RuntimeError::StuckJob { job_id });
            }
        }
        self.in_flight = 0;
        self.accurate_in_flight = 0;
    }

    /// The dispatch loop. Returns the pool's final worker records.
    fn run(mut self) -> Vec<WorkerStats> {
        loop {
            let mut progressed = false;

            // 1. Collect every finished outcome.
            while let Some(outcome) = self.pool.try_collect() {
                self.complete(outcome);
                progressed = true;
            }

            // 1b. Probe quarantined devices — one deterministic probe
            //     per device per fleet-floor advance. A healthy probe
            //     revives the device for routing; an unhealthy one
            //     re-arms at the next floor boundary.
            for device in self.fleet.probe_candidates() {
                let healthy = self.injector.probe(device);
                self.fleet.record_probe(device, healthy);
                self.lower_fleet_events(device as u64);
                progressed = true;
            }

            // 2. Promote admission-held accurate jobs into free slots.
            //    While a job was deferred its twin may have finished
            //    (answer from the cache) or gone in flight (coalesce,
            //    without burning a slot — dispatching would duplicate
            //    the execution and clobber the waiter list).
            while !self.deferred.is_empty()
                && self.in_flight < self.config.max_in_flight
                && self.accurate_in_flight < self.config.max_accurate_in_flight
            {
                let held = self.deferred.pop_front().expect("non-empty");
                // A speculated held's answer leg already responded;
                // its dispatch is the verify leg and must execute —
                // answering again from the cache or coalescing onto a
                // twin would double-respond or orphan the rendezvous.
                // Otherwise a full waiter list executes independently:
                // the loop condition already reserved an admission slot.
                if held.speculated {
                    self.dispatch(held);
                } else if let Some(held) = self.answer_without_executing(held) {
                    self.dispatch(held);
                }
                progressed = true;
            }

            // 3. Drain a micro-batch from the bounded ingestion
            //    queue, gated on the in-flight cap — this gate is
            //    what propagates backpressure to the client.
            let mut drained = 0;
            while drained < self.config.micro_batch && self.in_flight < self.config.max_in_flight {
                match self.ingress.try_pop() {
                    PopResult::Item(ingest) => {
                        self.admit(ingest);
                        drained += 1;
                        progressed = true;
                    }
                    PopResult::TimedOut => break,
                    PopResult::Closed => {
                        self.ingress_closed = true;
                        break;
                    }
                }
            }

            // The fleet gauge republishes only on turns that changed it.
            self.publish_gauges();

            // 4. Ingress closed and every queue drained: done once
            //    in-flight work completes — but the wait is bounded.
            //    Past `drain_timeout` the stragglers are answered as
            //    failed rather than letting one wedged execution hold
            //    the whole teardown hostage.
            if self.ingress_closed && self.deferred.is_empty() && self.ingress.is_empty() {
                if self.in_flight == 0 {
                    if let Some(started) = self.drain_started {
                        lock_clean(&self.stats).drain_ns = started.elapsed().as_nanos() as u64;
                    }
                    break;
                }
                let started = *self.drain_started.get_or_insert_with(Instant::now);
                if started.elapsed() >= self.config.drain_timeout {
                    self.drain_timed_out = true;
                    self.abandon_inflight();
                    let mut stats = lock_clean(&self.stats);
                    stats.drain_ns = started.elapsed().as_nanos() as u64;
                    stats.drain_timed_out = true;
                    drop(stats);
                    break;
                }
            }

            // 5. Idle: block briefly on the likeliest wake-up source.
            if !progressed {
                if self.in_flight > 0 {
                    if let Some(outcome) = self.pool.collect_timeout(Duration::from_millis(1)) {
                        self.complete(outcome);
                    }
                } else {
                    match self.ingress.pop_timeout(Duration::from_millis(1)) {
                        PopResult::Item(ingest) => self.admit(ingest),
                        PopResult::Closed => self.ingress_closed = true,
                        PopResult::TimedOut => {}
                    }
                }
            }
        }
        self.publish_gauges();
        if self.drain_timed_out {
            // Something is wedged on a worker: give the pool a short
            // grace to join, then abandon it rather than block.
            let (stats, _late_outcomes, _timed_out) =
                self.pool.shutdown_drain(Duration::from_millis(100));
            stats
        } else {
            self.pool.shutdown()
        }
    }
}

/// The array accounting of one execution, as its primary records it.
fn array_use(result: &JobResult) -> ArrayUse {
    ArrayUse {
        shards: result.shards,
        utilization: result.shard_utilization,
        granted: result.arrays_granted,
        wait_cycles: result.array_wait_cycles,
        peak_scratch_elems: result.peak_scratch_elems,
        energy_pj: result.energy_pj,
        dynamic_energy_pj: result.dynamic_energy_pj,
        static_energy_pj: result.static_energy_pj,
    }
}

/// What the cache keeps of one execution.
fn memo(result: JobResult) -> CacheEntry {
    CacheEntry {
        output: result.output,
        sim_cycles: result.sim_cycles,
        energy_pj: result.energy_pj,
        shards: result.shards,
        shard_utilization: result.shard_utilization,
        arrays_granted: result.arrays_granted,
    }
}

/// Every `Done` payload: the producing execution's output and
/// figures (`entry`, live or memoized), plus what this response
/// adds. The gather wait and scratch are the ones `arrays` records
/// for it, so a hit reports neither and only the execution's own
/// request reports the wait.
fn served(
    entry: CacheEntry,
    arrays: ArrayUse,
    cache: CacheOutcome,
    degraded: bool,
) -> ServedResult {
    ServedResult {
        output: entry.output,
        sim_cycles: entry.sim_cycles,
        energy_pj: entry.energy_pj,
        shards: entry.shards,
        arrays_granted: entry.arrays_granted,
        array_wait_cycles: arrays.wait_cycles,
        cache,
        degraded,
        peak_scratch_elems: arrays.peak_scratch_elems,
    }
}
