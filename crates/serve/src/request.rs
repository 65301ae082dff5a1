//! Requests into and responses out of the streaming service.

use tempus_models::traffic::{TracePayload, TraceRequest};
use tempus_runtime::{Job, JobOutput, RuntimeError};

use crate::class::{Fidelity, JobClass, PayloadKind};

/// One request: a job plus the fidelity it should run at.
#[derive(Debug, Clone)]
pub struct Request {
    /// The job to execute.
    pub job: Job,
    /// Requested execution fidelity.
    pub fidelity: Fidelity,
    /// SLO-derived completion deadline in device cycles. Under
    /// fleet co-scheduling, deadline-aware admission narrows the
    /// job's array grant to meet it or rejects with
    /// [`RejectReason::DeadlineUnattainable`] — instead of letting
    /// the job blow its SLO in the queue. `None` (the default)
    /// admits unconditionally.
    pub deadline_cycles: Option<u64>,
}

impl Request {
    /// A fast-path (functional) request.
    #[must_use]
    pub fn fast(job: Job) -> Self {
        Request {
            job,
            fidelity: Fidelity::Fast,
            deadline_cycles: None,
        }
    }

    /// A cycle-accurate request (admission controlled).
    #[must_use]
    pub fn accurate(job: Job) -> Self {
        Request {
            job,
            fidelity: Fidelity::Accurate,
            deadline_cycles: None,
        }
    }

    /// Attaches a completion deadline in device cycles (builder
    /// style).
    #[must_use]
    pub fn with_deadline_cycles(mut self, cycles: u64) -> Self {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// The request's job class.
    #[must_use]
    pub fn class(&self) -> JobClass {
        JobClass {
            fidelity: self.fidelity,
            payload: PayloadKind::of(&self.job.payload),
        }
    }

    /// Lowers a generated trace request into a service request.
    #[must_use]
    pub fn from_trace(t: &TraceRequest) -> Self {
        let job = match &t.payload {
            TracePayload::Conv {
                features,
                kernels,
                params,
            } => Job::conv(
                t.id,
                t.name.clone(),
                features.clone(),
                kernels.clone(),
                *params,
            ),
            TracePayload::Gemm { a, b } => Job::gemm(t.id, t.name.clone(), a.clone(), b.clone()),
            TracePayload::Network { input, layers } => {
                Job::network(t.id, t.name.clone(), input.clone(), layers.clone())
            }
        };
        Request {
            job,
            fidelity: t.fidelity.into(),
            deadline_cycles: t.deadline_cycles,
        }
    }
}

/// Whether a completed request was answered from the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from the content-addressed cache; no core touched.
    Hit,
    /// Executed on the worker pool (and memoized).
    Miss,
    /// Coalesced onto an identical in-flight execution: the request
    /// arrived after the same content key was dispatched but before
    /// it completed, so it shared that execution's result instead of
    /// executing again.
    Coalesced,
}

/// The serving-facing result of a completed request.
#[derive(Debug, Clone)]
pub struct ServedResult {
    /// The computed output — bit-identical whether it came from the
    /// cache or a cold execution.
    pub output: JobOutput,
    /// Modelled datapath cycles of the (original) execution.
    pub sim_cycles: u64,
    /// Modelled energy of the (original) execution, in pJ. A cache
    /// hit reports the memoized execution's energy; the hit itself
    /// costs the accelerator nothing.
    pub energy_pj: f64,
    /// PE arrays the (original) execution occupied (1 on
    /// single-array backends).
    pub shards: usize,
    /// Arrays the array-slot scheduler granted the (original)
    /// execution — the width it ran at.
    pub arrays_granted: usize,
    /// Device cycles this request's execution waited to gather its
    /// granted arrays. Attributed once, to the request that triggered
    /// the execution: 0 for cache hits, coalesced waiters, and
    /// without co-scheduling.
    pub array_wait_cycles: u64,
    /// Cache hit or cold execution.
    pub cache: CacheOutcome,
    /// `true` when the answer came from the degrade-don't-drop
    /// fallback: retries were exhausted (or re-admission impossible)
    /// and the request was answered by the functional backend with
    /// fault injection disabled. The output is still bit-identical —
    /// all backends agree on outputs — but the execution did not run
    /// at the requested fidelity's backend.
    pub degraded: bool,
    /// Peak scratch high-water mark of the (original) execution in
    /// elements; 0 on conv jobs and cache hits.
    pub peak_scratch_elems: u64,
}

/// Why the service refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The cycle-accurate admission queue is full; retry later or
    /// drop fidelity.
    AccurateAdmissionFull,
    /// Deadline-aware admission found no device and no array width
    /// whose predicted finish meets the request's deadline — rejected
    /// up front instead of timing out in the queue. Carries the
    /// deadline and the best achievable latency, both in device
    /// cycles.
    DeadlineUnattainable {
        /// The deadline the request carried.
        deadline_cycles: u64,
        /// The best latency any device at any width could offer.
        best_latency_cycles: u64,
    },
    /// Scratch-budget admission found the job cannot stream inside
    /// the configured arena budget even at the one-step-window floor
    /// — rejected up front instead of silently overrunning the
    /// budget. Carries both figures in elements.
    ScratchBudgetExceeded {
        /// The smallest scratch any streaming plan needs for the job.
        required_elems: u64,
        /// The configured scratch budget.
        budget_elems: u64,
    },
}

/// How one request ended.
#[derive(Debug)]
pub enum ResponseOutcome {
    /// Completed (from cache or cold execution).
    Done(ServedResult),
    /// Refused by admission control (not executed).
    Rejected(RejectReason),
    /// The substrate rejected the job (shape/precision error).
    Failed(RuntimeError),
}

/// One response, correlated to its request by `job_id`.
#[derive(Debug)]
pub struct Response {
    /// Id of the originating job.
    pub job_id: u64,
    /// Job label.
    pub job_name: String,
    /// The request's class.
    pub class: JobClass,
    /// How it ended.
    pub outcome: ResponseOutcome,
    /// Time spent queued before dispatch (admission to dispatch), ns.
    pub queue_ns: u64,
    /// End-to-end latency (admission to response), ns.
    pub total_ns: u64,
}

impl Response {
    /// The served result, if the request completed.
    #[must_use]
    pub fn result(&self) -> Option<&ServedResult> {
        match &self.outcome {
            ResponseOutcome::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded ingestion queue is at capacity (backpressure); the
    /// request is handed back for retry.
    QueueFull(Box<Request>),
    /// The service is shut down; the request is handed back.
    ShutDown(Box<Request>),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => f.write_str("ingestion queue is full (backpressure)"),
            SubmitError::ShutDown(_) => f.write_str("service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}
