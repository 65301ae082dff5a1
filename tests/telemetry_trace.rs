//! Telemetry contracts: tracing is observationally free. Turning the
//! dual-clock recorder on must not change a single output bit, a
//! placement, or any deterministic serving statistic — on any
//! backend — and the exported Perfetto trace must cover every
//! pipeline stage on both clock domains.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use tempus::core::gemm::Matrix;
use tempus::models::traffic::{generate, TraceConfig, TraceRequest};
use tempus::runtime::{BackendKind, Job};
use tempus::serve::{Request, ResponseOutcome, ServeConfig, ServeStats, StreamingService};
use tempus::telemetry::perfetto::validate_perfetto;
use tempus::telemetry::{Clock, Counter, Stage, TraceExport, VcdSink};

/// The deterministic slice of `ServeStats` — everything that must be
/// bit-equal between a traced and an untraced run. Wall-clock
/// latencies, queue depths and cache-hit-vs-coalesce splits depend on
/// thread timing and are deliberately excluded.
#[derive(Debug, PartialEq)]
struct DeterministicStats {
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected_admission_cap: u64,
    rejected_deadline: u64,
    per_class: Vec<(String, u64, u64, u64, u64)>,
}

impl DeterministicStats {
    fn of(stats: &ServeStats) -> Self {
        DeterministicStats {
            submitted: stats.submitted,
            completed: stats.completed,
            failed: stats.failed,
            rejected_admission_cap: stats.rejected_admission_cap,
            rejected_deadline: stats.rejected_deadline,
            per_class: stats
                .classes
                .iter()
                .map(|c| {
                    (
                        c.class.name().to_string(),
                        c.completed,
                        c.rejected_admission_cap,
                        c.rejected_deadline,
                        c.failed,
                    )
                })
                .collect(),
        }
    }
}

/// Replays `trace` closed-loop through a fresh service, returning the
/// per-job output digests, the final stats, and (when tracing was on)
/// the exported trace. Rejections are tolerated — they must simply be
/// *identical* between runs.
fn replay(
    config: ServeConfig,
    trace: &[TraceRequest],
) -> (BTreeMap<u64, u64>, ServeStats, Option<TraceExport>) {
    let service = StreamingService::start(config).expect("service starts");
    let mut digests = BTreeMap::new();
    let mut outstanding = 0usize;
    let consume = |response: tempus::serve::Response, digests: &mut BTreeMap<u64, u64>| {
        if let ResponseOutcome::Done(result) = response.outcome {
            digests.insert(response.job_id, result.output.digest());
        }
    };
    for t in trace {
        service
            .submit(Request::from_trace(t))
            .expect("blocking submit succeeds");
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
    let telemetry = service.telemetry();
    let (stats, _leftover) = service.shutdown();
    (digests, stats, telemetry.export())
}

fn serve_config(accurate_backend: BackendKind, devices: usize) -> ServeConfig {
    let mut config = ServeConfig::new()
        .with_workers(2)
        .with_queue_capacity(32)
        .with_cache_capacity(1024);
    if accurate_backend != BackendKind::FastFunctional {
        config.accurate_backend = accurate_backend;
    }
    if devices > 1 {
        config = config.with_arrays(4).with_devices(devices).with_backfill();
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tracing on vs. off: bit-identical digests and identical
    /// deterministic stats on every backend.
    #[test]
    fn tracing_is_observationally_free(seed in 0u64..1000, devices in 1usize..=2) {
        for backend in [
            BackendKind::FastFunctional,
            BackendKind::TempusCycleAccurate,
            BackendKind::NvdlaCycleAccurate,
        ] {
            // FastFunctional exercises the all-fast path; the
            // cycle-accurate backends get a real accurate share.
            let accurate = if backend == BackendKind::FastFunctional { 0.0 } else { 0.15 };
            let trace = generate(
                &TraceConfig::new(seed)
                    .with_requests(30)
                    .with_repeat_fraction(0.4)
                    .with_accurate_fraction(accurate),
            );
            let (digests_off, stats_off, export_off) =
                replay(serve_config(backend, devices), &trace);
            let (digests_on, stats_on, export_on) =
                replay(serve_config(backend, devices).with_tracing(), &trace);

            prop_assert!(export_off.is_none(), "untraced run must not record");
            prop_assert!(stats_off.telemetry.is_none());
            let export = export_on.expect("traced run exports");
            prop_assert!(!export.events.is_empty());
            prop_assert!(stats_on.telemetry.is_some());

            prop_assert_eq!(&digests_off, &digests_on, "tracing changed an output digest");
            prop_assert_eq!(
                DeterministicStats::of(&stats_off),
                DeterministicStats::of(&stats_on),
                "tracing changed a deterministic statistic"
            );
        }
    }
}

/// The pinned-seed 4-device trace from the acceptance gate: every
/// pipeline stage present on its clock domain, valid Perfetto shape,
/// and a populated summary in `ServeStats`.
#[test]
fn pinned_seed_four_device_trace_covers_every_stage() {
    let trace = generate(
        &TraceConfig::new(42)
            .with_requests(120)
            .with_repeat_fraction(0.5)
            .with_accurate_fraction(0.03)
            .with_wide_conv_fraction(0.3),
    );
    let (digests, stats, export) = replay(
        serve_config(BackendKind::FastFunctional, 4).with_tracing(),
        &trace,
    );
    assert!(!digests.is_empty());
    let export = export.expect("traced run exports");

    for (stage, clock) in [
        (Stage::Queue, Clock::Wall),
        (Stage::Admit, Clock::Wall),
        (Stage::Execute, Clock::Wall),
        (Stage::Route, Clock::Device),
        (Stage::Grant, Clock::Device),
        (Stage::Shard, Clock::Device),
    ] {
        assert!(
            export.has_stage(stage, clock),
            "stage {} missing from the {} domain",
            stage.name(),
            clock.name()
        );
    }

    // Both clock domains present as tracks: wall worker/dispatcher
    // tracks plus device/array cycle tracks for all 4 devices.
    let device_tracks = export
        .tracks
        .iter()
        .filter(|t| t.clock == Clock::Device)
        .count();
    assert!(
        device_tracks >= 4,
        "expected >=4 device tracks, got {device_tracks}"
    );
    assert!(export.tracks.iter().any(|t| t.clock == Clock::Wall));

    // The Perfetto export passes the shape check (valid traceEvents,
    // per-track monotonic timestamps) and accounts for every event.
    let json = export.to_perfetto_json();
    let accepted = validate_perfetto(&json).expect("perfetto shape check");
    assert_eq!(accepted, export.events.len());

    // The summary rides along in the serve stats.
    let summary = stats.telemetry.expect("summary present");
    assert_eq!(summary.dropped_events, 0);
    assert!(summary
        .stages
        .iter()
        .any(|s| s.stage == Stage::Execute.name()));
    assert!(summary
        .counters
        .iter()
        .any(|&(name, n)| name == "events_recorded" && n > 0));

    // And the same export renders as VCD waveforms for the sim layer.
    let vcd = VcdSink::render_export(&export, "fleet", 4);
    assert!(vcd.contains("$enddefinitions"));
    assert!(vcd.contains("$var"));
}

/// A tiny ring must wrap (dropping oldest events) without corrupting
/// the export or the run itself.
#[test]
fn tiny_ring_drops_oldest_but_stays_well_formed() {
    let trace = generate(
        &TraceConfig::new(7)
            .with_requests(60)
            .with_repeat_fraction(0.3)
            .with_accurate_fraction(0.0),
    );
    let (digests, stats, export) = replay(
        serve_config(BackendKind::FastFunctional, 1)
            .with_trace_ring_capacity(8)
            .with_tracing(),
        &trace,
    );
    assert!(!digests.is_empty());
    let export = export.expect("traced run exports");
    assert!(export.dropped > 0, "a capacity-8 ring must wrap here");
    let summary = stats.telemetry.expect("summary present");
    assert_eq!(summary.dropped_events, export.dropped);
    validate_perfetto(&export.to_perfetto_json()).expect("wrapped trace still validates");
}

/// A deferred request answered from the cache at promotion is traced
/// like one answered at admission. With one accurate slot, B and its
/// twin B' park behind a slow A; B' is promoted only after B finished,
/// so it is served from the cache.
#[test]
fn promotion_cache_hits_are_counted() {
    let gemm = |id: u64, name: &str, n: usize| {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 255) as i32 - 127);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 255) as i32 - 127);
        Request::accurate(Job::gemm(id, name, a, b))
    };
    let config = ServeConfig::new()
        .with_workers(2)
        .with_admission(1, 8)
        .with_tracing();
    let service = StreamingService::start(config).expect("service starts");
    for request in [gemm(0, "a", 64), gemm(1, "b", 4), gemm(2, "b", 4)] {
        service.submit(request).expect("submit");
    }
    for _ in 0..3 {
        let response = service
            .recv_response(Duration::from_secs(120))
            .expect("answered");
        assert!(matches!(response.outcome, ResponseOutcome::Done(_)));
    }
    let telemetry = service.telemetry();
    let (stats, _) = service.shutdown();
    assert_eq!(stats.cache.hits, 1, "B' is served from B's cache entry");
    assert_eq!(telemetry.counter(Counter::CacheHits), stats.cache.hits);
}
