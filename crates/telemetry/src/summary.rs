//! Counter registry and per-stage duration histograms.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{EventKind, Stage, TraceEvent};
use crate::json::{self, Fixed};
use crate::reservoir::{percentile, Reservoir, SplitMix64};

/// Named counters maintained by the hub — cheap atomic increments
/// shared by every recorder, mirrored into [`TelemetrySummary`] and
/// (for the rejection reasons) into the serving layer's `ServeStats`
/// named fields so both JSON consumers agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Events accepted into a ring buffer.
    EventsRecorded,
    /// Events overwritten by drop-oldest ring wraparound.
    EventsDropped,
    /// Content-addressed cache hits.
    CacheHits,
    /// Requests coalesced onto an in-flight execution.
    Coalesced,
    /// Submissions refused because the bounded ingestion queue was
    /// full.
    RejectedQueueFull,
    /// Rejections because the accurate-admission cap (and its deferred
    /// queue) overflowed.
    RejectedAdmissionCap,
    /// Rejections because no device could meet the deadline.
    RejectedDeadline,
    /// Backfill take-rule firings.
    Backfills,
    /// Elastic scaling drain decisions.
    ElasticDrains,
    /// Elastic scaling revive decisions.
    ElasticRevives,
    /// Window-batch cycles accumulated from `TempusStats`.
    WindowCycles,
    /// Faults injected by the chaos plan (all kinds).
    FaultsInjected,
    /// Execution retries dispatched after a failure.
    Retries,
    /// Retry backoff charged to requests, in device cycles.
    RetryBackoffCycles,
    /// Requests answered by the functional fallback after the
    /// accurate path exhausted its retries (degrade-don't-drop).
    Degraded,
    /// Devices quarantined by the consecutive-failure circuit
    /// breaker.
    Quarantines,
    /// Probes sent to quarantined devices on floor boundaries.
    Probes,
    /// Dead workers respawned by the pool.
    WorkerRespawns,
    /// Executions cancelled by the per-job deadline watchdog.
    WatchdogCancels,
    /// Rejections because the job's smallest streaming plan exceeds
    /// the configured scratch budget.
    RejectedScratch,
    /// Per-array DVFS frequency transitions the governor committed.
    FreqChanges,
    /// Interactive requests answered immediately by the speculative
    /// functional leg (answer-now-verify-later).
    SpeculativeAnswers,
    /// Speculative answers whose accurate verification produced a
    /// **different** digest — expected zero under the bit-identity
    /// contract.
    SpeculativeMismatches,
    /// Device array-cycles held at DVFS ladder level 0 (nominal).
    FreqResidencyL0,
    /// Device array-cycles held at DVFS ladder level 1.
    FreqResidencyL1,
    /// Device array-cycles held at DVFS ladder level 2.
    FreqResidencyL2,
    /// Device array-cycles held at DVFS ladder level 3.
    FreqResidencyL3,
}

impl Counter {
    /// Every counter, in registry order (append-only: indices are
    /// positional and must stay stable across releases).
    pub const ALL: [Counter; 27] = [
        Counter::EventsRecorded,
        Counter::EventsDropped,
        Counter::CacheHits,
        Counter::Coalesced,
        Counter::RejectedQueueFull,
        Counter::RejectedAdmissionCap,
        Counter::RejectedDeadline,
        Counter::Backfills,
        Counter::ElasticDrains,
        Counter::ElasticRevives,
        Counter::WindowCycles,
        Counter::FaultsInjected,
        Counter::Retries,
        Counter::RetryBackoffCycles,
        Counter::Degraded,
        Counter::Quarantines,
        Counter::Probes,
        Counter::WorkerRespawns,
        Counter::WatchdogCancels,
        Counter::RejectedScratch,
        Counter::FreqChanges,
        Counter::SpeculativeAnswers,
        Counter::SpeculativeMismatches,
        Counter::FreqResidencyL0,
        Counter::FreqResidencyL1,
        Counter::FreqResidencyL2,
        Counter::FreqResidencyL3,
    ];

    /// Registry name — stable, snake_case, used as the JSON key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsRecorded => "events_recorded",
            Counter::EventsDropped => "events_dropped",
            Counter::CacheHits => "cache_hits",
            Counter::Coalesced => "coalesced",
            Counter::RejectedQueueFull => "rejected_queue_full",
            Counter::RejectedAdmissionCap => "rejected_admission_cap",
            Counter::RejectedDeadline => "rejected_deadline",
            Counter::Backfills => "backfills",
            Counter::ElasticDrains => "elastic_drains",
            Counter::ElasticRevives => "elastic_revives",
            Counter::WindowCycles => "window_cycles",
            Counter::FaultsInjected => "faults_injected",
            Counter::Retries => "retries",
            Counter::RetryBackoffCycles => "retry_backoff_cycles",
            Counter::Degraded => "degraded",
            Counter::Quarantines => "quarantines",
            Counter::Probes => "probes",
            Counter::WorkerRespawns => "worker_respawns",
            Counter::WatchdogCancels => "watchdog_cancels",
            Counter::RejectedScratch => "rejected_scratch",
            Counter::FreqChanges => "freq_changes",
            Counter::SpeculativeAnswers => "speculative_answers",
            Counter::SpeculativeMismatches => "speculative_mismatches",
            Counter::FreqResidencyL0 => "freq_residency_l0",
            Counter::FreqResidencyL1 => "freq_residency_l1",
            Counter::FreqResidencyL2 => "freq_residency_l2",
            Counter::FreqResidencyL3 => "freq_residency_l3",
        }
    }

    /// The residency counter for DVFS ladder level `level` (levels
    /// past the ladder clamp to the deepest).
    #[must_use]
    pub fn freq_residency(level: usize) -> Counter {
        match level {
            0 => Counter::FreqResidencyL0,
            1 => Counter::FreqResidencyL1,
            2 => Counter::FreqResidencyL2,
            _ => Counter::FreqResidencyL3,
        }
    }

    fn index(self) -> usize {
        Counter::ALL.iter().position(|&c| c == self).unwrap_or(0)
    }
}

/// The shared counter registry: one atomic cell per [`Counter`].
#[derive(Debug, Default)]
pub struct CounterRegistry {
    cells: [AtomicU64; Counter::ALL.len()],
}

impl CounterRegistry {
    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.cells[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.cells[counter.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of every counter as `(name, value)` pairs, registry
    /// order, zeros included (the registry is self-describing).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.get(c)))
            .collect()
    }
}

/// Streaming per-stage duration accumulator: exact count/sum/max plus
/// a seeded reservoir for percentiles. Recorders keep one locally
/// (lock-free) and merge into the hub's on flush, so histograms stay
/// exact in count even when the event ring drops oldest entries. One
/// random stream serves every stage's reservoir.
#[derive(Debug, Clone)]
pub struct StageAccum {
    counts: [u64; Stage::ALL.len()],
    sums: [u64; Stage::ALL.len()],
    maxes: [u64; Stage::ALL.len()],
    samples: Vec<Reservoir>,
    rng: SplitMix64,
}

impl Default for StageAccum {
    fn default() -> Self {
        StageAccum {
            counts: [0; Stage::ALL.len()],
            sums: [0; Stage::ALL.len()],
            maxes: [0; Stage::ALL.len()],
            samples: vec![Reservoir::default(); Stage::ALL.len()],
            rng: SplitMix64(0x51ED_2701_9E37_79B9),
        }
    }
}

impl StageAccum {
    /// Folds a span event's duration into the stage histogram
    /// (instants and counters don't carry durations and are skipped).
    pub fn observe(&mut self, event: &TraceEvent) {
        if event.kind != EventKind::Span {
            return;
        }
        let idx = event.stage.code() as usize;
        self.counts[idx] += 1;
        self.sums[idx] = self.sums[idx].saturating_add(event.dur);
        self.maxes[idx] = self.maxes[idx].max(event.dur);
        self.samples[idx].offer(event.dur, self.counts[idx], &mut self.rng);
    }

    /// Merges `other` into `self` (hub-side flush).
    pub fn merge(&mut self, other: &StageAccum) {
        for idx in 0..Stage::ALL.len() {
            self.counts[idx] += other.counts[idx];
            self.sums[idx] = self.sums[idx].saturating_add(other.sums[idx]);
            self.maxes[idx] = self.maxes[idx].max(other.maxes[idx]);
            for &sample in other.samples[idx].samples() {
                self.samples[idx].absorb(sample, &mut self.rng);
            }
        }
    }

    /// True when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Renders the per-stage summaries (stages with zero spans are
    /// omitted).
    #[must_use]
    pub fn summarize(&self, clock_of: impl Fn(Stage) -> &'static str) -> Vec<StageSummary> {
        let mut out = Vec::new();
        for (idx, &stage) in Stage::ALL.iter().enumerate() {
            if self.counts[idx] == 0 {
                continue;
            }
            let sorted = self.samples[idx].sorted();
            out.push(StageSummary {
                stage: stage.name(),
                unit: clock_of(stage),
                count: self.counts[idx],
                mean: self.sums[idx] as f64 / self.counts[idx] as f64,
                p50: percentile(&sorted, 50.0),
                p95: percentile(&sorted, 95.0),
                p99: percentile(&sorted, 99.0),
                max: self.maxes[idx],
            });
        }
        out
    }
}

/// One stage's duration histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage name ([`Stage::name`]).
    pub stage: &'static str,
    /// Duration unit: `wall_ns` or `device_cycles`.
    pub unit: &'static str,
    /// Spans observed (exact, even when the ring dropped events).
    pub count: u64,
    /// Mean duration.
    pub mean: f64,
    /// Median (nearest-rank over a bounded reservoir).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum observed duration (exact).
    pub max: u64,
}

/// The telemetry roll-up surfaced in `ServeStats` and the bench
/// report: per-stage duration histograms plus the counter registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySummary {
    /// Per-stage histograms, stage order, zero-count stages omitted.
    pub stages: Vec<StageSummary>,
    /// Counter registry snapshot (all counters, zeros included).
    pub counters: Vec<(&'static str, u64)>,
    /// Events lost to ring wraparound (also in `counters`).
    pub dropped_events: u64,
}

impl TelemetrySummary {
    /// Value of a named counter, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Histogram for `stage`, if any spans were recorded.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }

    /// The summary as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.array("stages", |a| {
                for s in &self.stages {
                    a.object(|r| {
                        r.field("stage", s.stage)
                            .field("unit", s.unit)
                            .field("count", s.count)
                            .field("mean", Fixed(s.mean, 1))
                            .field("p50", s.p50)
                            .field("p95", s.p95)
                            .field("p99", s.p99)
                            .field("max", s.max);
                    });
                }
            });
            o.object("counters", |c| {
                for &(name, value) in &self.counters {
                    c.field(name, value);
                }
            });
            o.field("dropped_events", self.dropped_events);
        })
    }
}

impl fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry:")?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<12} n={:<6} p50={:<8} p95={:<8} p99={:<8} max={:<8} ({})",
                s.stage, s.count, s.p50, s.p95, s.p99, s.max, s.unit
            )?;
        }
        let nonzero: Vec<String> = self
            .counters
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        if !nonzero.is_empty() {
            writeln!(f, "  counters: {}", nonzero.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TrackId;

    fn span(stage: Stage, dur: u64) -> TraceEvent {
        TraceEvent {
            track: TrackId(0),
            stage,
            kind: EventKind::Span,
            ts: 0,
            dur,
            id: 0,
            arg: 0,
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = CounterRegistry::default();
        reg.add(Counter::CacheHits, 3);
        reg.add(Counter::CacheHits, 2);
        reg.add(Counter::RejectedDeadline, 1);
        assert_eq!(reg.get(Counter::CacheHits), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), Counter::ALL.len());
        assert!(snap.contains(&("cache_hits", 5)));
        assert!(snap.contains(&("rejected_deadline", 1)));
        assert!(snap.contains(&("backfills", 0)));
    }

    #[test]
    fn accum_percentiles_cover_exact_small_sets() {
        let mut accum = StageAccum::default();
        for dur in 1..=100u64 {
            accum.observe(&span(Stage::Queue, dur));
        }
        let stages = accum.summarize(|_| "wall_ns");
        assert_eq!(stages.len(), 1);
        let q = &stages[0];
        assert_eq!(q.count, 100);
        assert_eq!(q.p50, 50);
        assert_eq!(q.p95, 95);
        assert_eq!(q.p99, 99);
        assert_eq!(q.max, 100);
        assert!((q.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn accum_merge_matches_single_stream_counts() {
        let mut a = StageAccum::default();
        let mut b = StageAccum::default();
        for dur in 0..50 {
            a.observe(&span(Stage::Execute, dur));
            b.observe(&span(Stage::Execute, dur + 50));
        }
        a.merge(&b);
        let stages = a.summarize(|_| "wall_ns");
        assert_eq!(stages[0].count, 100);
        assert_eq!(stages[0].max, 99);
    }

    #[test]
    fn instants_do_not_enter_histograms() {
        let mut accum = StageAccum::default();
        accum.observe(&TraceEvent {
            kind: EventKind::Instant,
            ..span(Stage::Reject, 0)
        });
        assert!(accum.is_empty());
    }

    #[test]
    fn reservoir_stays_bounded_past_capacity() {
        let mut accum = StageAccum::default();
        let n = Reservoir::CAP as u64 * 3;
        for dur in 0..n {
            accum.observe(&span(Stage::Shard, dur));
        }
        assert_eq!(
            accum.samples[Stage::Shard.code() as usize].samples().len(),
            Reservoir::CAP
        );
        let stages = accum.summarize(|_| "device_cycles");
        assert_eq!(stages[0].count, n);
        assert_eq!(stages[0].max, n - 1);
    }

    #[test]
    fn summary_json_shape() {
        let reg = CounterRegistry::default();
        reg.add(Counter::Backfills, 7);
        let mut accum = StageAccum::default();
        accum.observe(&span(Stage::Grant, 4));
        let summary = TelemetrySummary {
            stages: accum.summarize(|_| "device_cycles"),
            counters: reg.snapshot(),
            dropped_events: 0,
        };
        let json = summary.to_json();
        assert!(json.contains("\"backfills\": 7"));
        assert!(json.contains("\"stage\": \"grant\""));
        assert_eq!(summary.counter("backfills"), 7);
        assert!(summary.stage(Stage::Grant).is_some());
    }
}
