//! The trace event model: stages, clock domains, tracks.

/// Which clock a track's timestamps are measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clock {
    /// Host wall time in nanoseconds since the telemetry origin.
    Wall,
    /// Deterministic device cycles (the ledger/backend cycle model).
    Device,
}

impl Clock {
    /// Stable tag for serialization.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Clock::Wall => 0,
            Clock::Device => 1,
        }
    }

    /// Inverse of [`Clock::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Clock::Wall),
            1 => Some(Clock::Device),
            _ => None,
        }
    }

    /// Human-readable domain name (Perfetto `cat` field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall_ns",
            Clock::Device => "device_cycles",
        }
    }
}

/// The span/event taxonomy: one variant per pipeline stage a request
/// (or an array) can spend time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Wall span: accepted into the bounded queue → popped by the
    /// dispatcher.
    Queue,
    /// Wall span: popped → admission decision made.
    Admit,
    /// Wall instant: served from the content-addressed cache.
    CacheHit,
    /// Wall instant: coalesced onto an identical in-flight execution.
    Coalesce,
    /// Wall instant: rejected (`arg` carries the reason code — see
    /// [`crate::summary::Counter`] reject counters).
    Reject,
    /// Device instant: a fleet device preview (`arg` = projected
    /// finish cycle on that device).
    Preview,
    /// Device instant: routing choice (`arg` = chosen device).
    Route,
    /// Device instant: the backfill take-rule fired for this job.
    Backfill,
    /// Device instant: the ledger granted arrays (`arg` = granted
    /// width).
    Grant,
    /// Device span: waited past the earliest free array to gather the
    /// granted set.
    GatherWait,
    /// Device span: an array is busy with an unsharded job.
    ArrayBusy,
    /// Device span: one shard of a job on one array (`arg` = shard
    /// index).
    Shard,
    /// Device span: the cross-array reduction stage.
    Reduce,
    /// Device span: an idle gap opened on an array.
    ArrayIdle,
    /// Wall span: backend execution on a worker thread.
    Execute,
    /// Device instant: elastic scaling drained a device.
    Drain,
    /// Device instant: elastic scaling revived a draining device.
    Revive,
    /// Counter sample: window-batch cycles reported by `TempusStats`.
    Window,
    /// Wall instant: a fault was injected into an execution (`arg` =
    /// fault kind code).
    Fault,
    /// Device span: retry backoff charged to the request before its
    /// re-dispatch (`arg` = attempt number).
    Retry,
    /// Device instant: the circuit breaker quarantined a device.
    Quarantine,
    /// Device instant: a quarantined device was probed (`arg` = 1 if
    /// the probe reported healthy).
    Probe,
    /// Wall instant: the request fell back to the functional backend
    /// after exhausting retries (degrade-don't-drop).
    Degrade,
    /// Wall instant: the pool respawned a dead worker (`id` = worker
    /// index).
    Respawn,
    /// Counter sample: peak scratch elements of a GEMM or network
    /// execution (bounded tile arena / fused per-row ring).
    StreamWindow,
    /// Device instant: a device array's DVFS clock domain stepped
    /// (`arg` = new ladder level) — absent with the governor off.
    FreqChange,
}

impl Stage {
    /// Every stage, in serialization-code order (append-only: codes
    /// are positional and must stay stable across releases).
    pub const ALL: [Stage; 26] = [
        Stage::Queue,
        Stage::Admit,
        Stage::CacheHit,
        Stage::Coalesce,
        Stage::Reject,
        Stage::Preview,
        Stage::Route,
        Stage::Backfill,
        Stage::Grant,
        Stage::GatherWait,
        Stage::ArrayBusy,
        Stage::Shard,
        Stage::Reduce,
        Stage::ArrayIdle,
        Stage::Execute,
        Stage::Drain,
        Stage::Revive,
        Stage::Window,
        Stage::Fault,
        Stage::Retry,
        Stage::Quarantine,
        Stage::Probe,
        Stage::Degrade,
        Stage::Respawn,
        Stage::StreamWindow,
        Stage::FreqChange,
    ];

    /// Stable serialization code (index into [`Stage::ALL`]).
    #[must_use]
    pub fn code(self) -> u8 {
        Stage::ALL.iter().position(|&s| s == self).unwrap_or(0) as u8
    }

    /// Inverse of [`Stage::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Stage::ALL.get(code as usize).copied()
    }

    /// Short snake-case name (trace event name, summary key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Admit => "admit",
            Stage::CacheHit => "cache_hit",
            Stage::Coalesce => "coalesce",
            Stage::Reject => "reject",
            Stage::Preview => "preview",
            Stage::Route => "route",
            Stage::Backfill => "backfill",
            Stage::Grant => "grant",
            Stage::GatherWait => "gather_wait",
            Stage::ArrayBusy => "array_busy",
            Stage::Shard => "shard",
            Stage::Reduce => "reduce",
            Stage::ArrayIdle => "array_idle",
            Stage::Execute => "execute",
            Stage::Drain => "drain",
            Stage::Revive => "revive",
            Stage::Window => "window",
            Stage::Fault => "fault",
            Stage::Retry => "retry",
            Stage::Quarantine => "quarantine",
            Stage::Probe => "probe",
            Stage::Degrade => "degrade",
            Stage::Respawn => "respawn",
            Stage::StreamWindow => "stream_window",
            Stage::FreqChange => "freq_change",
        }
    }
}

/// How an event occupies its track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Duration event: `[ts, ts + dur)`.
    Span,
    /// Point event at `ts`.
    Instant,
    /// Counter sample: value `arg` at `ts`.
    Counter,
}

impl EventKind {
    /// Stable serialization code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            EventKind::Span => 0,
            EventKind::Instant => 1,
            EventKind::Counter => 2,
        }
    }

    /// Inverse of [`EventKind::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(EventKind::Span),
            1 => Some(EventKind::Instant),
            2 => Some(EventKind::Counter),
            _ => None,
        }
    }
}

/// Handle to a registered track (index into the hub's track table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u32);

/// A registered track: one timeline row in the exported trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackMeta {
    /// Display name (`worker0`, `dispatcher`, `dev1/arr3`, …).
    pub name: String,
    /// Clock domain of every event on this track.
    pub clock: Clock,
    /// Declared clock period in **picoseconds per cycle** for
    /// [`Clock::Device`] tracks (0 on wall tracks): the scale that
    /// places device-cycle events on the wall timeline.
    pub period_ps: u64,
}

/// One recorded event. `ts`/`dur` are nanoseconds on wall tracks and
/// cycles on device tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Track the event belongs to.
    pub track: TrackId,
    /// Pipeline stage.
    pub stage: Stage,
    /// Span, instant or counter sample.
    pub kind: EventKind,
    /// Start timestamp in the track's clock units.
    pub ts: u64,
    /// Duration in the track's clock units (0 for instants/counters).
    pub dur: u64,
    /// Correlation id — the job id for request stages, the array
    /// index for array stages.
    pub id: u64,
    /// Stage-specific argument (granted width, device index, shard
    /// index, counter value, …).
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_codes_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_code(stage.code()), Some(stage));
        }
        assert_eq!(Stage::from_code(200), None);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn clock_and_kind_codes_round_trip() {
        for clock in [Clock::Wall, Clock::Device] {
            assert_eq!(Clock::from_code(clock.code()), Some(clock));
        }
        for kind in [EventKind::Span, EventKind::Instant, EventKind::Counter] {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
        }
    }
}
