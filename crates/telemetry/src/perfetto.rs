//! Chrome/Perfetto `trace_event` JSON export and a lightweight shape
//! validator (the repo is serde-free: the export goes through
//! [`json`], the validator is hand-rolled).
//!
//! Track layout: wall-clock tracks (dispatcher, worker threads) live
//! under pid 1 ("service · wall clock"); device-cycle tracks (device
//! arrays) under pid 2 ("device · cycles"). Device timestamps are
//! scaled by each track's declared period so both clock domains render
//! on one timeline in `ui.perfetto.dev`.

use crate::event::{Clock, EventKind};
use crate::hub::TraceExport;
use crate::json::{self, Fixed};

/// Perfetto pid for wall-clock tracks.
pub const WALL_PID: u32 = 1;
/// Perfetto pid for device-cycle tracks.
pub const DEVICE_PID: u32 = 2;

impl TraceExport {
    /// Serializes the trace as Chrome `trace_event` JSON, loadable in
    /// `chrome://tracing` or `ui.perfetto.dev`.
    #[must_use]
    pub fn to_perfetto_json(&self) -> String {
        json::object(|o| {
            o.array("traceEvents", |a| {
                // Process + thread name metadata so both domains are
                // labelled.
                let mut meta = |name: &str, pid: u32, tid: usize, label: &str| {
                    a.object(|e| {
                        e.field("ph", "M")
                            .field("name", name)
                            .field("pid", pid)
                            .field("tid", tid)
                            .object("args", |x| {
                                x.field("name", label);
                            });
                    });
                };
                meta("process_name", WALL_PID, 0, "service (wall clock)");
                meta("process_name", DEVICE_PID, 0, "device (cycle clock)");
                for (idx, track) in self.tracks.iter().enumerate() {
                    match track.clock {
                        Clock::Wall => meta("thread_name", WALL_PID, idx + 1, &track.name),
                        Clock::Device => meta(
                            "thread_name",
                            DEVICE_PID,
                            idx + 1,
                            &format!("{} ({} ps/cycle)", track.name, track.period_ps),
                        ),
                    }
                }
                for event in &self.events {
                    let Some(track) = self.tracks.get(event.track.0 as usize) else {
                        continue;
                    };
                    // Both domains land on one µs timeline: wall ns
                    // straight through, device cycles via the declared
                    // period.
                    let (pid, scale_us) = match track.clock {
                        Clock::Wall => (WALL_PID, 1e-3),
                        Clock::Device => (DEVICE_PID, track.period_ps as f64 * 1e-6),
                    };
                    let name = event.stage.name();
                    let ph = match event.kind {
                        EventKind::Span => "X",
                        EventKind::Instant => "i",
                        EventKind::Counter => "C",
                    };
                    a.object(|e| {
                        e.field("ph", ph)
                            .field("name", name)
                            .field("cat", track.clock.name())
                            .field("ts", Fixed(event.ts as f64 * scale_us, 3));
                        match event.kind {
                            EventKind::Span => {
                                e.field("dur", Fixed(event.dur as f64 * scale_us, 3));
                            }
                            EventKind::Instant => {
                                e.field("s", "t");
                            }
                            EventKind::Counter => {}
                        }
                        e.field("pid", pid)
                            .field("tid", event.track.0 + 1)
                            .object("args", |x| {
                                if event.kind == EventKind::Counter {
                                    x.field(name, event.arg);
                                } else {
                                    x.field("id", event.id).field("arg", event.arg);
                                }
                            });
                    });
                }
            });
            o.field("displayTimeUnit", "ns").object("otherData", |x| {
                x.field("droppedEvents", self.dropped);
            });
        })
    }
}

/// JSON-schema-style shape check for an emitted Perfetto file: the
/// top level must hold a `traceEvents` array of objects, every object
/// must carry a valid `ph` plus numeric `ts`/`pid`/`tid` (metadata
/// events excepted), and within each `(pid, tid)` track the `ts`
/// sequence must be monotonically non-decreasing. Returns the number
/// of non-metadata events.
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn validate_perfetto(text: &str) -> Result<usize, String> {
    let start = text
        .find("\"traceEvents\"")
        .ok_or_else(|| "missing \"traceEvents\" key".to_string())?;
    let array_open = text[start..]
        .find('[')
        .map(|i| start + i)
        .ok_or_else(|| "\"traceEvents\" is not an array".to_string())?;

    let mut checked = 0usize;
    let mut last_ts: Vec<((u64, u64), f64)> = Vec::new();
    let mut depth = 0usize;
    let mut object_start = None;
    let mut end_of_array = None;
    for (offset, ch) in text[array_open..].char_indices() {
        match ch {
            '{' => {
                if depth == 0 {
                    object_start = Some(array_open + offset);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    let obj = &text
                        [object_start.take().ok_or("unbalanced braces")?..=array_open + offset];
                    checked += validate_event(obj, &mut last_ts)?;
                }
            }
            ']' if depth == 0 => {
                end_of_array = Some(offset);
                break;
            }
            _ => {}
        }
    }
    if end_of_array.is_none() {
        return Err("unterminated traceEvents array".to_string());
    }
    if checked == 0 {
        return Err("traceEvents holds no events".to_string());
    }
    Ok(checked)
}

/// Validates one event object; returns 1 for a real event, 0 for
/// metadata.
fn validate_event(obj: &str, last_ts: &mut Vec<((u64, u64), f64)>) -> Result<usize, String> {
    let ph = string_field(obj, "ph").ok_or_else(|| format!("event missing ph: {obj}"))?;
    match ph.as_str() {
        "M" => Ok(0),
        "X" | "i" | "C" | "B" | "E" => {
            let ts = number_field(obj, "ts").ok_or_else(|| format!("event missing ts: {obj}"))?;
            let pid =
                number_field(obj, "pid").ok_or_else(|| format!("event missing pid: {obj}"))?;
            let tid =
                number_field(obj, "tid").ok_or_else(|| format!("event missing tid: {obj}"))?;
            if ph == "X" && number_field(obj, "dur").is_none() {
                return Err(format!("complete event missing dur: {obj}"));
            }
            let key = (pid as u64, tid as u64);
            match last_ts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, prev)) => {
                    if ts + 1e-9 < *prev {
                        return Err(format!(
                            "track pid={} tid={}: ts {ts} after {prev} is not monotonic",
                            key.0, key.1
                        ));
                    }
                    *prev = ts;
                }
                None => last_ts.push((key, ts)),
            }
            Ok(1)
        }
        other => Err(format!("unknown ph {other:?}: {obj}")),
    }
}

/// Extracts `"key": "value"` from a flat JSON object string.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts `"key": <number>` from a flat JSON object string.
fn number_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '+' || c == '.' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Stage, TraceEvent, TrackId};
    use crate::ring::TraceSink;
    use crate::Telemetry;

    fn sample_export() -> TraceExport {
        let hub = Telemetry::enabled(256);
        let wall = hub.track("worker0", Clock::Wall, 0);
        let dev = hub.track("dev0/arr0", Clock::Device, 4000);
        {
            let mut sink = hub.sink();
            sink.span(wall, Stage::Execute, 1_000, 2_000, 7, 0);
            sink.span(dev, Stage::Shard, 10, 40, 7, 0);
            sink.instant(dev, Stage::Grant, 10, 7, 2);
            sink.counter(dev, Stage::Window, 50, 320);
        }
        hub.export().unwrap()
    }

    #[test]
    fn perfetto_json_is_shaped_and_scaled() {
        let export = sample_export();
        let json = export.to_perfetto_json();
        assert!(json.contains("\"traceEvents\""));
        // Wall ns → µs.
        assert!(
            json.contains("\"ts\": 1.000"),
            "wall ns scale to µs: {json}"
        );
        // 10 cycles at 4000 ps/cycle = 0.04 µs.
        assert!(
            json.contains("\"ts\": 0.040"),
            "cycles scale by period: {json}"
        );
        assert!(json.contains("service (wall clock)"));
        assert!(json.contains("device (cycle clock)"));
        assert!(json.contains("4000 ps/cycle"));
        let checked = validate_perfetto(&json).expect("validates");
        assert_eq!(checked, 4);
    }

    #[test]
    fn validator_rejects_broken_shapes() {
        assert!(validate_perfetto("{}").is_err());
        assert!(validate_perfetto("{\"traceEvents\": []}").is_err());
        assert!(
            validate_perfetto(
                "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}"
            )
            .is_err(),
            "complete event without dur"
        );
        assert!(
            validate_perfetto(
                "{\"traceEvents\": [{\"ph\": \"Z\", \"ts\": 1, \"pid\": 1, \"tid\": 1}]}"
            )
            .is_err(),
            "unknown phase"
        );
        let non_monotonic = "{\"traceEvents\": [\
            {\"ph\": \"i\", \"ts\": 5.0, \"pid\": 1, \"tid\": 1},\
            {\"ph\": \"i\", \"ts\": 2.0, \"pid\": 1, \"tid\": 1}]}";
        assert!(
            validate_perfetto(non_monotonic).is_err(),
            "ts must not rewind"
        );
        let ok = "{\"traceEvents\": [\
            {\"ph\": \"i\", \"ts\": 5.0, \"pid\": 1, \"tid\": 1},\
            {\"ph\": \"i\", \"ts\": 2.0, \"pid\": 1, \"tid\": 2}]}";
        assert_eq!(validate_perfetto(ok), Ok(2), "tracks are independent");
    }

    #[test]
    fn orphan_track_events_are_skipped_not_emitted() {
        let mut export = sample_export();
        export.events.push(TraceEvent {
            track: TrackId(99),
            stage: Stage::Queue,
            kind: crate::event::EventKind::Instant,
            ts: 0,
            dur: 0,
            id: 0,
            arg: 0,
        });
        let json = export.to_perfetto_json();
        assert_eq!(validate_perfetto(&json), Ok(4));
    }
}
