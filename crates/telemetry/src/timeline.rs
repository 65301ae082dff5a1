//! Lowers deterministic placements onto per-device/per-array trace
//! tracks: grant instants, gather-wait spans, and per-shard busy spans
//! with the reduction sub-span.
//!
//! The dispatcher owns one of these and feeds it every completed
//! placement; idle gaps between placements come from the ledger's own
//! gap record, lowered by the dispatcher onto [`DeviceTimeline::array_track`]
//! in placement order. All timestamps are device cycles straight from
//! the ledger/backend model, so the resulting tracks are bit-identical
//! run to run.

use std::collections::HashMap;

use crate::event::{Clock, Stage, TrackId};
use crate::hub::Telemetry;
use crate::ring::TraceSink;

/// One placed (and now accounted) job on a device, in device cycles.
#[derive(Debug, Clone, Copy)]
pub struct PlacedSpan<'a> {
    /// Fleet device index (0 on a single-device service).
    pub device: usize,
    /// Job id (correlates with the wall-clock request spans).
    pub job_id: u64,
    /// Arrays the ledger granted, identity order.
    pub arrays: &'a [usize],
    /// Start cycle on the device clock.
    pub start: u64,
    /// Critical-path duration in cycles (max shard + reduction).
    pub duration: u64,
    /// Cycles waited past the earliest free array to gather the set.
    pub wait_cycles: u64,
    /// Granted width.
    pub granted: u64,
    /// Whether the backfill take-rule placed this job into a gap.
    pub backfilled: bool,
    /// Per-shard busy cycles, one per granted array (may be empty
    /// when the backend ran unsharded).
    pub per_shard_cycles: &'a [u64],
    /// Cycles of the cross-array reduction stage (0 when unsharded).
    pub reduction_cycles: u64,
}

/// Per-device/per-array track builder (see module docs).
#[derive(Debug)]
pub struct DeviceTimeline {
    hub: Telemetry,
    period_ps: u64,
    device_tracks: HashMap<usize, TrackId>,
    array_tracks: HashMap<(usize, usize), TrackId>,
}

impl DeviceTimeline {
    /// Builds a timeline writing tracks to `hub`, declaring
    /// `period_ps` picoseconds per device cycle.
    #[must_use]
    pub fn new(hub: &Telemetry, period_ps: u64) -> Self {
        DeviceTimeline {
            hub: hub.clone(),
            period_ps,
            device_tracks: HashMap::new(),
            array_tracks: HashMap::new(),
        }
    }

    /// The `dev{device}` track (registered on first use) — the track
    /// fleet-level events (previews, routing, elastic actions) belong
    /// on.
    pub fn device_track(&mut self, device: usize) -> TrackId {
        let hub = &self.hub;
        let period = self.period_ps;
        *self
            .device_tracks
            .entry(device)
            .or_insert_with(|| hub.track(&format!("dev{device}"), Clock::Device, period))
    }

    /// The `dev{device}/arr{array}` track (registered on first use).
    pub fn array_track(&mut self, device: usize, array: usize) -> TrackId {
        let hub = &self.hub;
        let period = self.period_ps;
        *self
            .array_tracks
            .entry((device, array))
            .or_insert_with(|| hub.track(&format!("dev{device}/arr{array}"), Clock::Device, period))
    }

    /// Records one placement's device-side spans into `sink`.
    pub fn observe(&mut self, sink: &mut dyn TraceSink, placed: &PlacedSpan<'_>) {
        if !sink.is_enabled() {
            return;
        }
        let dev = self.device_track(placed.device);
        sink.instant(
            dev,
            Stage::Grant,
            placed.start,
            placed.job_id,
            placed.granted,
        );
        if placed.wait_cycles > 0 {
            sink.span(
                dev,
                Stage::GatherWait,
                placed.start.saturating_sub(placed.wait_cycles),
                placed.wait_cycles,
                placed.job_id,
                0,
            );
        }
        if placed.backfilled {
            sink.instant(dev, Stage::Backfill, placed.start, placed.job_id, 0);
        }
        if placed.reduction_cycles > 0 && placed.duration >= placed.reduction_cycles {
            sink.span(
                dev,
                Stage::Reduce,
                placed.start + placed.duration - placed.reduction_cycles,
                placed.reduction_cycles,
                placed.job_id,
                placed.arrays.len() as u64,
            );
        }
        for (pos, &array) in placed.arrays.iter().enumerate() {
            let track = self.array_track(placed.device, array);
            match placed.per_shard_cycles.get(pos) {
                Some(&shard_cycles) if placed.per_shard_cycles.len() > 1 => {
                    sink.span(
                        track,
                        Stage::Shard,
                        placed.start,
                        shard_cycles,
                        placed.job_id,
                        pos as u64,
                    );
                }
                _ => {
                    sink.span(
                        track,
                        Stage::ArrayBusy,
                        placed.start,
                        placed.duration,
                        placed.job_id,
                        0,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_become_grant_shard_and_reduce_spans() {
        let hub = Telemetry::enabled(256);
        let mut timeline = DeviceTimeline::new(&hub, 4000);
        let mut sink = hub.sink();
        timeline.observe(
            &mut sink,
            &PlacedSpan {
                device: 0,
                job_id: 11,
                arrays: &[0, 2],
                start: 100,
                duration: 60,
                wait_cycles: 20,
                granted: 2,
                backfilled: false,
                per_shard_cycles: &[50, 40],
                reduction_cycles: 10,
            },
        );
        drop(sink);
        let export = hub.export().unwrap();
        assert!(export.has_stage(Stage::Grant, Clock::Device));
        assert!(export.has_stage(Stage::GatherWait, Clock::Device));
        assert!(export.has_stage(Stage::Shard, Clock::Device));
        assert!(export.has_stage(Stage::Reduce, Clock::Device));
        let arr0 = export.track_events("dev0/arr0");
        assert_eq!(arr0.len(), 1);
        assert_eq!((arr0[0].ts, arr0[0].dur), (100, 50));
        let dev = export.track_events("dev0");
        let wait = dev.iter().find(|e| e.stage == Stage::GatherWait).unwrap();
        assert_eq!((wait.ts, wait.dur), (80, 20));
        let reduce = dev.iter().find(|e| e.stage == Stage::Reduce).unwrap();
        assert_eq!((reduce.ts, reduce.dur), (150, 10));
    }

    #[test]
    fn single_shard_jobs_render_as_plain_busy() {
        let hub = Telemetry::enabled(64);
        let mut timeline = DeviceTimeline::new(&hub, 4000);
        let mut sink = hub.sink();
        timeline.observe(
            &mut sink,
            &PlacedSpan {
                device: 1,
                job_id: 5,
                arrays: &[0],
                start: 10,
                duration: 40,
                wait_cycles: 0,
                granted: 1,
                backfilled: false,
                per_shard_cycles: &[40],
                reduction_cycles: 0,
            },
        );
        drop(sink);
        let export = hub.export().unwrap();
        assert!(export.has_stage(Stage::ArrayBusy, Clock::Device));
        assert!(!export.has_stage(Stage::Shard, Clock::Device));
    }

    #[test]
    fn disabled_hub_short_circuits() {
        let hub = Telemetry::disabled();
        let mut timeline = DeviceTimeline::new(&hub, 4000);
        let mut sink = hub.sink();
        timeline.observe(
            &mut sink,
            &PlacedSpan {
                device: 0,
                job_id: 0,
                arrays: &[0],
                start: 0,
                duration: 1,
                wait_cycles: 0,
                granted: 1,
                backfilled: false,
                per_shard_cycles: &[],
                reduction_cycles: 0,
            },
        );
        assert!(hub.export().is_none());
    }
}
