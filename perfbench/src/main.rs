//! Serving benchmark for the Tempus Core reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_fleet --seed 1 --seconds 40 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload with
//! tracing off. Set-up runs five times (`setup_s` is the median).
//! Then eight open-loop repetitions at a fixed offered rate, each
//! with its own draw of arrivals, alternate with eight closed-loop
//! saturation repetitions, each on a fresh service. Every timed metric
//! is the median over the half of the repetitions during which the
//! hypervisor stole the least CPU time from this host; the modelled
//! metrics are medians over all of them.
//! `--trace 1` replays the workload's own requests through each
//! layer's public function inside benchmark-side spans and reports
//! per-layer metrics, each naming the end-to-end metric it should
//! move. Every answer is checked against the functional backend's
//! reference; a mismatch fails the run. `--workload all` runs every
//! workload in turn. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; a `stamp`
//! line before it names the machine, build and seed.

mod client;
mod layers;
mod report;
mod spans;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use tempus_serve::{Request, ResponseOutcome, StreamingService};

use client::{Client, Tally};
use layers::Replay;
use report::{median, Metrics, Outcome};
use spans::Tracer;
use workload::{
    build_traffic, open_schedule, references, Arrival, Reference, SplitMix, Traffic, Workload,
};

/// How late the client may send, at the 99th percentile, in mean
/// arrival gaps: later than that, it has reshaped the arrival process
/// it was asked to offer, and the attempt measured the client or the
/// host, not the service.
const LAG_BOUND_GAPS: f64 = 4.0;
/// Open-loop attempts per repetition while the client runs late.
const OPEN_LOOP_ATTEMPTS: usize = 3;
/// Requests the closed loop keeps outstanding.
const CLOSED_WINDOW: usize = 64;

/// How much work one run does; scaled from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups timed per run (the median is `setup_s`).
    pub setups: usize,
    /// Open-loop and closed-loop repetitions per run.
    pub repeats: usize,
    /// Open-loop phase length, seconds of offered traffic.
    pub open_s: f64,
    /// Closed-loop phase length (`edge_hot`; `cold_fleet` replays its
    /// open-loop requests once).
    pub closed_s: f64,
    /// Requests of the workload the layer replay takes.
    pub replay_requests: usize,
    /// Flip one reference digest, to prove the check trips.
    pub corrupt_reference: bool,
}

impl Plan {
    pub fn for_run(seconds: f64, trace: bool) -> Self {
        Plan {
            setups: if trace { 1 } else { 5 },
            repeats: 8,
            open_s: seconds * 0.075,
            closed_s: seconds * 0.03,
            replay_requests: 48,
            corrupt_reference: false,
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?]
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Starts a service for `workload`; `edge_hot` then loads its whole
/// template pool into the cache, so every timed request hits.
fn start_service(workload: Workload, templates: &[Request]) -> Result<StreamingService, String> {
    let service = StreamingService::start(workload.serve_config(workers()))
        .map_err(|e| format!("service start: {e}"))?;
    if workload == Workload::EdgeHot {
        for template in templates {
            service
                .submit(template.clone())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        for _ in templates {
            let response = service
                .recv_response(Duration::from_secs(60))
                .ok_or("warm-up answer missing")?;
            if !matches!(response.outcome, ResponseOutcome::Done(_)) {
                return Err(format!("warm-up request {} not answered", response.job_id));
            }
        }
    }
    Ok(service)
}

/// Requests to generate for a run: the open-loop phase's.
fn timed_requests(workload: Workload, plan: &Plan) -> usize {
    ((plan.open_s * workload.offered_rps()).round() as usize).max(16)
}

/// Set-up: generate traffic and start a service, `plan.setups` times.
/// `edge_hot` sets up its whole pool each time and keeps the last;
/// `cold_fleet` generates one share of its unique requests per
/// set-up, each from its own seed, and sends them all. The last
/// service is kept.
fn set_up(
    workload: Workload,
    seed: u64,
    plan: &Plan,
) -> Result<(Traffic, StreamingService, Vec<f64>), String> {
    let requests = timed_requests(workload, plan);
    let mut times = Vec::new();
    let mut traffic: Option<Traffic> = None;
    let mut service: Option<StreamingService> = None;
    for i in 0..plan.setups {
        if let Some(old) = service.take() {
            let _ = old.shutdown();
        }
        let started = Instant::now();
        let chunk = match workload {
            Workload::EdgeHot => build_traffic(workload, seed, requests),
            _ => {
                let share = requests.div_ceil(plan.setups);
                build_traffic(workload, SplitMix::new(seed ^ i as u64).next_u64(), share)
            }
        };
        let started_service = start_service(workload, &chunk.templates)?;
        times.push(started.elapsed().as_secs_f64());
        service = Some(started_service);
        match (&mut traffic, workload) {
            (Some(all), Workload::ColdFleet) => {
                all.append(chunk, workload.mean_gap_ns());
            }
            _ => traffic = Some(chunk),
        }
    }
    Ok((
        traffic.ok_or("no set-up ran")?,
        service.ok_or("no set-up ran")?,
        times,
    ))
}

/// The open-loop phase. An attempt whose client ran late beyond
/// [`LAG_BOUND_GAPS`] is invalid, not slow: it is discarded, requests
/// and all, and rerun on a fresh service. When every attempt ran
/// late, the least late is kept and the run says so.
fn open_phase(
    workload: Workload,
    traffic: &Traffic,
    schedule: &[Arrival],
    refs: &[Reference],
    mut service: Option<StreamingService>,
) -> Result<(Tally, tempus_serve::ServeStats), String> {
    let bound_ms = LAG_BOUND_GAPS * workload.mean_gap_ns() as f64 * 1e-6;
    let mut least_late: Option<(f64, Tally, tempus_serve::ServeStats)> = None;
    for attempt in 1..=OPEN_LOOP_ATTEMPTS {
        let svc = match service.take() {
            Some(s) => s,
            None => start_service(workload, &traffic.templates)?,
        };
        let mut client = Client::new(&svc, &traffic.templates, refs, workload.checks_cycles());
        client.open_loop(schedule)?;
        let tally = client.tally;
        let (stats, _) = svc.shutdown();
        let lag_ms = report::percentile_ms(&tally.lag_ns, 99.0);
        // A wrong answer counts whether or not the timing is valid.
        if lag_ms <= bound_ms || tally.mismatches > 0 {
            return Ok((tally, stats));
        }
        eprintln!(
            "open loop attempt {attempt}: client lag p99 {lag_ms:.3} ms over the \
             {bound_ms:.3} ms bound; attempt invalid"
        );
        if least_late.as_ref().is_none_or(|(best, ..)| lag_ms < *best) {
            least_late = Some((lag_ms, tally, stats));
        }
    }
    let (lag_ms, tally, stats) = least_late.ok_or("no open-loop attempt ran")?;
    eprintln!("open loop: every attempt ran late; keeping the least late ({lag_ms:.3} ms)");
    Ok((tally, stats))
}

/// The closed-loop phase on a fresh service: completions per second
/// and modelled cycles answered per second, over the middle 80% of
/// completions (start-up and drain excluded).
fn closed_phase(
    workload: Workload,
    traffic: &Traffic,
    refs: &[Reference],
    seed: u64,
    seconds: f64,
) -> Result<(Tally, f64, f64), String> {
    let service = start_service(workload, &traffic.templates)?;
    let mut client = Client::new(&service, &traffic.templates, refs, workload.checks_cycles());
    match workload {
        Workload::EdgeHot => {
            let mut rng = SplitMix::new(seed ^ 0xC105_ED10);
            let pool = traffic.templates.len();
            let until = Instant::now() + Duration::from_secs_f64(seconds);
            client.closed_loop(
                std::iter::repeat_with(|| rng.below(pool)),
                CLOSED_WINDOW,
                Some(until),
            )?;
        }
        _ => {
            let count = traffic.templates.len();
            client.closed_loop(0..count, CLOSED_WINDOW, None)?;
        }
    }
    let tally = client.tally;
    let _ = service.shutdown();
    let done = &tally.completions;
    if done.len() < 10 {
        return Err("closed loop completed too few requests".into());
    }
    let (lo, hi) = (done.len() / 10, done.len() * 9 / 10);
    let span_s = (done[hi].0 - done[lo].0).as_secs_f64().max(1e-9);
    let rps = (hi - lo) as f64 / span_s;
    let cycles: u64 = done[lo + 1..=hi].iter().map(|c| c.1).sum();
    Ok((tally, rps, cycles as f64 / span_s))
}

/// One open-loop repetition's figures.
struct OpenFigures {
    p50_ms: f64,
    p95_ms: f64,
    slo_met_frac: f64,
    answered_frac: f64,
    makespan_cycles: u64,
    energy_uj_per_req: f64,
}

/// The tail percentile reported. A 99th percentile of one repetition
/// rests on its 16 slowest `cold_fleet` answers, which a single
/// scheduler stall of the host (tens of ms at 400 req/s) decides; the
/// 95th rests on 80.
const TAIL_PERCENTILE: f64 = 95.0;
/// Answered requests per tail window: each window's tail percentile
/// has at least fifty samples beyond it.
const TAIL_WINDOW: usize = 1000;

/// The median, over consecutive windows of at least [`TAIL_WINDOW`]
/// answers, of each window's tail percentile: the typical tail, which
/// one stall of the host does not decide.
fn windowed_tail_ms(latency_ns: &[u64]) -> f64 {
    let windows = (latency_ns.len() / TAIL_WINDOW).max(1);
    let n = latency_ns.len();
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let window = &latency_ns[w * n / windows..(w + 1) * n / windows];
            report::percentile_ms(window, TAIL_PERCENTILE)
        })
        .collect();
    median(&tails)
}

fn open_figures(open: &Tally, stats: &tempus_serve::ServeStats) -> OpenFigures {
    let sent = open.sent.max(1) as f64;
    // Summed in value order, so the modelled energy repeats exactly
    // whatever order the requests were sent in.
    let mut energies = open.energy_pj.clone();
    energies.sort_by(f64::total_cmp);
    let energy_pj: f64 = energies.iter().sum();
    OpenFigures {
        p50_ms: report::percentile_ms(&open.latency_ns, 50.0),
        p95_ms: windowed_tail_ms(&open.latency_ns),
        slo_met_frac: open.slo_met as f64 / sent,
        answered_frac: open.answered() as f64 / sent,
        makespan_cycles: stats.device.makespan_cycles,
        energy_uj_per_req: energy_pj / open.answered().max(1) as f64 * 1e-6,
    }
}

/// Runs `phase` and measures the CPU time the hypervisor stole from
/// this host meanwhile, in ticks per second.
fn with_steal<T>(phase: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let (ticks, started) = (report::steal_ticks(), Instant::now());
    let out = phase()?;
    let stolen = report::steal_ticks().saturating_sub(ticks) as f64;
    Ok((out, stolen / started.elapsed().as_secs_f64().max(1e-9)))
}

/// The half of the repetitions (rounded up) with the least stolen CPU
/// time, given each one's steal rate; earlier ones first on ties. On a
/// shared host a repetition whose threads kept waiting for a physical
/// CPU measured the neighbours, not the program.
fn least_stolen(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(steal.len().div_ceil(2));
    order
}

/// End-to-end run: set-up, then `plan.repeats` open-loop and
/// closed-loop repetitions, each on a fresh service (so `cold_fleet`
/// stays cold while reusing its requests). Each timed metric is the
/// median over the least-stolen half of the repetitions, each modelled
/// one the median over all.
pub fn run_end_to_end(workload: Workload, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let (traffic, service, setup_times) = set_up(workload, seed, plan)?;
    let mut refs = references(&traffic.templates, workload.arrays(), workers())?;
    if plan.corrupt_reference {
        refs[traffic.schedule[0].template].digest ^= 1;
    }
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    let mut first = Some(service);
    let (mut opens, mut open_steal) = (Vec::new(), Vec::new());
    let (mut closeds, mut closed_steal) = (Vec::new(), Vec::new());
    // Open and closed repetitions alternate, so each metric's median
    // samples the host across the whole run.
    for rep in 0..plan.repeats {
        let schedule = open_schedule(
            workload,
            seed,
            rep,
            traffic.templates.len(),
            traffic.schedule.len(),
        );
        let ((open, stats), steal) =
            with_steal(|| open_phase(workload, &traffic, &schedule, &refs, first.take()))?;
        let figures = open_figures(&open, &stats);
        println!(
            "open loop: {} sent at {:.0} req/s offered, {} answered, {} refused, {} rejected, {} failed; \
             p50 {:.3} ms, p95 {:.3} ms, client lag p99 {:.3} ms, host steal {steal:.1} ticks/s",
            open.sent,
            workload.offered_rps(),
            open.answered(),
            open.refused,
            open.rejected,
            open.failed,
            figures.p50_ms,
            figures.p95_ms,
            report::percentile_ms(&open.lag_ns, 99.0),
        );
        if open.answered() < 200 {
            eprintln!(
                "p95 rests on {} samples (fewer than 10 beyond it)",
                open.answered()
            );
        }
        attempted += open.sent;
        failed += open.unanswered();
        mismatches += open.mismatches;
        opens.push(figures);
        open_steal.push(steal);

        let ((closed, rps, cycles_per_s), steal) = with_steal(|| {
            closed_phase(workload, &traffic, &refs, seed ^ rep as u64, plan.closed_s)
        })?;
        println!(
            "closed loop: {} sent, window {CLOSED_WINDOW}, {rps:.1} req/s, host steal {steal:.1} ticks/s",
            closed.sent
        );
        attempted += closed.sent;
        failed += closed.unanswered();
        mismatches += closed.mismatches;
        closeds.push((rps, cycles_per_s));
        closed_steal.push(steal);
    }
    let quiet_opens = least_stolen(&open_steal);
    let quiet = |f: fn(&OpenFigures) -> f64| {
        median(
            &quiet_opens
                .iter()
                .map(|&i| f(&opens[i]))
                .collect::<Vec<_>>(),
        )
    };
    let all = |f: fn(&OpenFigures) -> f64| median(&opens.iter().map(f).collect::<Vec<_>>());
    let quiet_closeds = least_stolen(&closed_steal);
    let closed = |f: fn(&(f64, f64)) -> f64| {
        median(
            &quiet_closeds
                .iter()
                .map(|&i| f(&closeds[i]))
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup_times), "s");
    m.add("p50_ms", quiet(|o| o.p50_ms), "ms");
    m.add("p95_ms", quiet(|o| o.p95_ms), "ms");
    m.add("slo_met_frac", quiet(|o| o.slo_met_frac), "frac");
    m.add("answered_frac", quiet(|o| o.answered_frac), "frac");
    m.add("saturated_rps", closed(|c| c.0), "1/s");
    m.add("sim_cycles_per_s", closed(|c| c.1), "1/s");
    m.add(
        "device_makespan_cycles",
        all(|o| o.makespan_cycles as f64),
        "cycles",
    );
    m.add("energy_uj_per_req", all(|o| o.energy_uj_per_req), "uJ");
    m.add("peak_rss_mb", report::peak_rss_mb(), "MB");
    debug_assert!(m.names().eq(report::END_TO_END));
    Ok(Outcome {
        correct: mismatches == 0,
        attempted,
        failed,
        metrics: m,
    })
}

/// The replay sample: the workload's first requests in arrival order
/// (`edge_hot`: its whole pool), extended until every payload kind
/// appears at least three times.
fn replay_sample(workload: Workload, traffic: &Traffic, plan: &Plan) -> usize {
    let templates = &traffic.templates;
    if workload == Workload::EdgeHot {
        return templates.len();
    }
    let mut n = plan.replay_requests.min(templates.len());
    let count = |n: usize, kind: &str| {
        templates[..n]
            .iter()
            .filter(|r| r.job.payload.kind() == kind)
            .count()
    };
    while n < templates.len() && ["conv", "gemm", "network"].iter().any(|k| count(n, k) < 3) {
        n += 1;
    }
    n
}

/// Traced run: a short open loop for queue waits and client lag, a
/// short closed loop for the per-request budget, then the layer
/// replay with spans off and on.
pub fn run_traced(workload: Workload, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let (traffic, service, _) = set_up(workload, seed, plan)?;
    let generated = traffic.templates.len().max(1);
    let generate_us = traffic.generate_s * 1e6 / generated as f64;
    let mut refs = references(&traffic.templates, workload.arrays(), workers())?;
    if plan.corrupt_reference {
        refs[traffic.schedule[0].template].digest ^= 1;
    }

    let check_cycles = workload.checks_cycles();
    let mut client = Client::new(&service, &traffic.templates, &refs, check_cycles);
    client.open_loop(&traffic.schedule)?;
    let open = client.tally;
    // `cold_fleet` never hits: send some of its requests again to time
    // the hit path on its own payloads.
    let mut again = Client::new(&service, &traffic.templates, &refs, check_cycles);
    if workload != Workload::EdgeHot {
        again.closed_loop(0..traffic.templates.len().min(200), 1, None)?;
    }
    let hits = again.tally;
    let _ = service.shutdown();
    let (closed, saturated_rps, _) = closed_phase(workload, &traffic, &refs, seed, plan.closed_s)?;
    let hit_ns = if workload == Workload::EdgeHot {
        &open.hit_ns
    } else {
        &hits.hit_ns
    };

    let n = replay_sample(workload, &traffic, plan);
    let arrivals: Vec<usize> = match workload {
        Workload::EdgeHot => traffic
            .schedule
            .iter()
            .take(4096)
            .map(|a| a.template)
            .collect(),
        _ => (0..n).collect(),
    };
    let replay = Replay {
        workload,
        requests: &traffic.templates[..n],
        refs: &refs[..n],
        arrivals: &arrivals,
        workers: workers(),
    };
    // Spans off and on, interleaved; the overhead compares medians.
    let mut off_s = Vec::new();
    let mut on_s = Vec::new();
    let mut traced = None;
    for _ in 0..3 {
        let started = Instant::now();
        replay.run(&mut Tracer::new(false))?;
        off_s.push(started.elapsed().as_secs_f64());
        let mut tracer = Tracer::new(true);
        let started = Instant::now();
        let counters = replay.run(&mut tracer)?;
        on_s.push(started.elapsed().as_secs_f64());
        traced = Some((tracer, counters));
    }
    let (tracer, counters) = traced.ok_or("replay did not run")?;
    let (off, on) = (median(&off_s), median(&on_s));

    let m = report::layer_metrics(&report::LayerInputs {
        generate_us_per_req: generate_us,
        open: &open,
        hit_ns,
        tracer: &tracer,
        counters: &counters,
        trace_overhead_frac: (on - off) / off,
    });
    report::print_budget(&tracer, saturated_rps, workers());
    let phases = [&open, &hits, &closed];
    Ok(Outcome {
        correct: counters.mismatches == 0 && phases.iter().all(|t| t.mismatches == 0),
        attempted: phases.iter().map(|t| t.sent).sum(),
        failed: phases.iter().map(|t| t.unanswered()).sum(),
        metrics: m,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let plan = Plan::for_run(args.seconds, args.trace);
        println!(
            "stamp {}",
            report::stamp(workload, args.seed, args.seconds, args.trace, workers())
        );
        let run = if args.trace {
            run_traced(workload, args.seed, &plan)
        } else {
            run_end_to_end(workload, args.seed, &plan)
        };
        match run {
            Ok(outcome) => {
                outcome.metrics.print(workload.name(), args.trace);
                outcomes.push((workload, outcome));
            }
            Err(e) => {
                eprintln!("perfbench {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let combined = if outcomes.len() == 1 {
        outcomes.pop().expect("one outcome").1
    } else {
        Outcome::combine(outcomes)
    };
    println!("{}", combined.to_json());
    if combined.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: served outputs differ from the functional reference");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run small enough for a unit test.
    fn tiny() -> Plan {
        Plan {
            setups: 1,
            repeats: 1,
            open_s: 0.05,
            closed_s: 0.05,
            replay_requests: 6,
            corrupt_reference: false,
        }
    }

    fn names(outcome: &Outcome) -> Vec<&str> {
        outcome.metrics.names().collect()
    }

    #[test]
    fn every_metric_is_emitted_for_every_workload() {
        for workload in Workload::ALL {
            let e2e = run_end_to_end(workload, 7, &tiny()).expect("end-to-end run");
            assert!(e2e.correct, "{} answers must match", workload.name());
            assert_eq!(names(&e2e), report::END_TO_END, "{}", workload.name());
            let traced = run_traced(workload, 7, &tiny()).expect("traced run");
            assert!(traced.correct, "{} replay must match", workload.name());
            let layer: Vec<&str> = report::PER_LAYER.iter().map(|l| l.0).collect();
            assert_eq!(names(&traced), layer, "{}", workload.name());
        }
    }

    #[test]
    fn a_corrupted_digest_trips_the_check() {
        let plan = Plan {
            corrupt_reference: true,
            ..tiny()
        };
        for workload in Workload::ALL {
            let e2e = run_end_to_end(workload, 7, &plan).expect("end-to-end run");
            assert!(
                !e2e.correct,
                "{} must flag the corrupted reference",
                workload.name()
            );
            let traced = run_traced(workload, 7, &plan).expect("traced run");
            assert!(
                !traced.correct,
                "{} must flag the corrupted reference",
                workload.name()
            );
        }
    }

    #[test]
    fn least_stolen_keeps_the_quieter_half() {
        assert_eq!(least_stolen(&[5.0, 0.0, 9.0, 1.0, 0.0]), vec![1, 4, 3]);
        assert_eq!(least_stolen(&[0.0; 4]), vec![0, 1]);
    }

    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for name in report::END_TO_END {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        for (name, _) in report::PER_LAYER {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        for workload in Workload::ALL {
            assert!(listed(workload.name()), "{} missing", workload.name());
        }
    }

    #[test]
    fn output_is_one_json_object_with_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.add("p50_ms", 1.25, "ms");
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        }
        .to_json();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
    }
}
