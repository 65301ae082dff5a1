//! Stream a bursty seeded request trace through the `tempus-serve`
//! streaming service: bounded-queue ingestion with backpressure,
//! admission-controlled cycle-accurate jobs, a content-addressed
//! result cache, and per-class latency percentiles.
//!
//! The trace is then replayed against the warm cache to show the
//! memoization win: identical outputs, a large throughput multiple.
//!
//! ```text
//! cargo run --release --example serve_stream
//! cargo run --release --example serve_stream -- --arrays 8 --co-schedule
//! cargo run --release --example serve_stream -- --arrays 8 --devices 4 --backfill
//! ```
//!
//! `--arrays N` models a DLA with N PE arrays (jobs shard across
//! them); `--co-schedule` turns on the cost-aware array-slot
//! scheduler, which packs concurrent jobs onto disjoint array sets
//! instead of handing every job the whole core — the trace also
//! gains kernel-rich wide convolutions so there is something to pack.
//! `--devices N` puts N such devices behind the dispatcher (the
//! two-level fleet scheduler routes each job to the device with the
//! earliest predicted finish; implies `--co-schedule`), and
//! `--backfill` lets narrow jobs reclaim idle array gaps when that
//! provably delays nobody.
//!
//! `--trace-out trace.json` records the full dual-clock span trace
//! (wall-clock service spans + device-cycle array spans) and writes
//! it as Chrome/Perfetto `trace_event` JSON — open it at
//! <https://ui.perfetto.dev>. Tracing never changes the outputs: the
//! bit-identity assertion below still holds with it on.
//!
//! `--chaos-seed N` arms deterministic fault injection: workers
//! panic, backends throw transient errors, and accurate executions
//! stall, all as a pure function of the seed and each job's identity.
//! `--fault-rate F` (default 0.05) sets the per-attempt fault
//! probability. The service retries with deterministic backoff and
//! degrades to the functional backend rather than dropping — so the
//! bit-identity assertion below still holds under chaos, which is
//! the whole point:
//!
//! ```text
//! cargo run --release --example serve_stream -- --chaos-seed 42 --fault-rate 0.1
//! cargo run --release --example serve_stream -- --devices 2 --chaos-seed 7
//! ```
//!
//! Every GEMM and network execution reports its peak scratch (the
//! double-buffered GEMM tile arena or the widest fused per-row ring).
//! `--scratch-budget <elems>` caps the GEMM arena — outputs stay
//! bit-identical, so the assertion below still holds — and mixes
//! transformer-block GEMMs into the trace so there are LLM-shaped
//! operands to stage; jobs whose smallest plan cannot fit the budget
//! are rejected at admission instead of ever running:
//!
//! ```text
//! cargo run --release --example serve_stream -- --scratch-budget 4096
//! ```
//!
//! `--power-cap <mW>` caps fleet-wide average power: admission walks
//! the width × DVFS-ladder grid and commits the lowest-energy
//! deadline-feasible operating point under the cap (implies
//! `--co-schedule`). `--freq-levels N` arms the per-array DVFS
//! governor with the deepest N ladder levels: idle-heavy arrays step
//! down the frequency ladder, trading latency nobody was using for
//! leakage energy (also implies `--co-schedule`). `--speculative`
//! turns on answer-now-verify-later serving: accurate requests are
//! answered immediately from the bit-identical functional backend
//! while the cycle-accurate execution verifies the digest
//! asynchronously:
//!
//! ```text
//! cargo run --release --example serve_stream -- --arrays 4 --power-cap 50
//! cargo run --release --example serve_stream -- --arrays 4 --freq-levels 4
//! cargo run --release --example serve_stream -- --speculative
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tempus::models::traffic::{generate, TraceConfig};
use tempus::serve::{
    FaultPlan, GovernorPolicy, Request, ResponseOutcome, ServeConfig, StreamingService,
};

/// Drives one full pass of the trace through `service`, returning
/// (wall seconds, per-job output digests).
fn replay(
    service: &StreamingService,
    trace: &[tempus::models::traffic::TraceRequest],
) -> Result<(f64, BTreeMap<u64, u64>), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let mut digests = BTreeMap::new();
    let mut outstanding = 0usize;
    let drain = |service: &StreamingService,
                 digests: &mut BTreeMap<u64, u64>,
                 outstanding: &mut usize,
                 block: bool| {
        loop {
            let timeout = if block && *outstanding > 0 {
                Duration::from_secs(30)
            } else {
                Duration::ZERO
            };
            match service.recv_response(timeout) {
                Some(response) => {
                    *outstanding -= 1;
                    match response.outcome {
                        ResponseOutcome::Done(result) => {
                            digests.insert(response.job_id, result.output.digest());
                        }
                        ResponseOutcome::Rejected(reason) => {
                            println!("  request {} rejected: {reason:?}", response.job_id);
                        }
                        ResponseOutcome::Failed(error) => {
                            println!("  request {} failed: {error}", response.job_id);
                        }
                    }
                }
                None => break,
            }
            if *outstanding == 0 {
                break;
            }
        }
    };
    for t in trace {
        // Blocking submit: when the bounded queue is full this call
        // waits — backpressure instead of unbounded growth.
        service.submit(Request::from_trace(t))?;
        outstanding += 1;
        drain(service, &mut digests, &mut outstanding, false);
    }
    drain(service, &mut digests, &mut outstanding, true);
    Ok((start.elapsed().as_secs_f64(), digests))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let co_schedule = args.iter().any(|a| a == "--co-schedule");
    let backfill = args.iter().any(|a| a == "--backfill");
    let num_arrays = args
        .iter()
        .position(|a| a == "--arrays")
        .and_then(|i| args.get(i + 1))
        .map_or(Ok(1), |v| v.parse::<usize>())
        .map_err(|e| format!("--arrays expects a number: {e}"))?
        .max(1);
    let devices = args
        .iter()
        .position(|a| a == "--devices")
        .and_then(|i| args.get(i + 1))
        .map_or(Ok(1), |v| v.parse::<usize>())
        .map_err(|e| format!("--devices expects a number: {e}"))?
        .max(1);
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| {
            args.get(i + 1)
                .cloned()
                .ok_or("--trace-out expects a file path")
        })
        .transpose()?;
    let chaos_seed = args
        .iter()
        .position(|a| a == "--chaos-seed")
        .map(|i| {
            args.get(i + 1)
                .ok_or("--chaos-seed expects a number")?
                .parse::<u64>()
                .map_err(|e| format!("--chaos-seed expects a number: {e}"))
        })
        .transpose()?;
    let fault_rate = args
        .iter()
        .position(|a| a == "--fault-rate")
        .and_then(|i| args.get(i + 1))
        .map_or(Ok(0.05), |v| v.parse::<f64>())
        .map_err(|e| format!("--fault-rate expects a probability: {e}"))?;
    let scratch_budget = args
        .iter()
        .position(|a| a == "--scratch-budget")
        .map(|i| {
            args.get(i + 1)
                .ok_or("--scratch-budget expects an element count")?
                .parse::<u64>()
                .map_err(|e| format!("--scratch-budget expects an element count: {e}"))
        })
        .transpose()?;
    let speculative = args.iter().any(|a| a == "--speculative");
    let power_cap_mw = args
        .iter()
        .position(|a| a == "--power-cap")
        .map(|i| {
            args.get(i + 1)
                .ok_or("--power-cap expects milliwatts")?
                .parse::<f64>()
                .map_err(|e| format!("--power-cap expects milliwatts: {e}"))
        })
        .transpose()?;
    let freq_levels = args
        .iter()
        .position(|a| a == "--freq-levels")
        .map(|i| {
            args.get(i + 1)
                .ok_or("--freq-levels expects a level count")?
                .parse::<u8>()
                .map_err(|e| format!("--freq-levels expects a level count: {e}"))
        })
        .transpose()?;

    let mut trace_config = TraceConfig::new(42)
        .with_requests(400)
        .with_repeat_fraction(0.6)
        .with_accurate_fraction(0.04);
    if num_arrays > 1 || devices > 1 {
        // Give the multi-array device something to shard and the
        // co-scheduler something to pack around.
        trace_config = trace_config.with_wide_conv_fraction(0.25);
    }
    if scratch_budget.is_some() {
        // Give the scratch arena LLM-shaped operands to stage.
        trace_config = trace_config.with_transformer_fraction(0.2);
    }
    let trace = generate(&trace_config);
    let bursts = trace
        .windows(2)
        .filter(|w| w[0].arrival_ns == w[1].arrival_ns)
        .count();
    println!(
        "trace: {} requests, {} templates, {} same-instant (burst) arrivals, {:.1} ms span\n",
        trace.len(),
        trace.iter().map(|t| t.template).max().unwrap_or(0) + 1,
        bursts,
        trace.last().map_or(0.0, |t| t.arrival_ns as f64 * 1e-6),
    );

    let mut serve_config = ServeConfig::new()
        .with_workers(4)
        .with_queue_capacity(64)
        .with_cache_capacity(4096)
        .with_arrays(num_arrays);
    if co_schedule {
        serve_config = serve_config.with_co_scheduling();
    }
    if devices > 1 {
        serve_config = serve_config.with_devices(devices);
    }
    if backfill {
        serve_config = serve_config.with_backfill();
    }
    if trace_out.is_some() {
        serve_config = serve_config.with_tracing();
    }
    if let Some(budget) = scratch_budget {
        serve_config = serve_config.with_scratch_budget(budget);
        println!("scratch: arena budget {budget} elems (over-budget jobs rejected)\n");
    }
    if let Some(cap_mw) = power_cap_mw {
        serve_config = serve_config.with_power_cap(cap_mw);
        println!(
            "power: fleet-wide cap {cap_mw} mW (admission picks the lowest-energy \
             deadline-feasible ladder level)\n"
        );
    }
    if let Some(levels) = freq_levels {
        let mut governor = GovernorPolicy::edge_default();
        governor.max_level = levels.saturating_sub(1).min(governor.max_level);
        serve_config = serve_config.with_freq_governor(governor);
        println!(
            "dvfs: occupancy-driven governor armed, ladder levels L0..L{}\n",
            governor.max_level
        );
    }
    if speculative {
        serve_config = serve_config.with_speculative();
        println!(
            "speculative: accurate requests answered from the functional backend, \
             verified against the cycle-accurate digest asynchronously\n"
        );
    }
    if let Some(seed) = chaos_seed {
        serve_config = serve_config.with_chaos(FaultPlan::new(seed, fault_rate).with_weights(2, 2));
        println!(
            "chaos: armed with seed {seed}, fault rate {:.1}% per attempt (panics, \
             transient errors, stalls)\n",
            fault_rate * 100.0
        );
    }
    let fleet_scheduling = serve_config.co_scheduling();
    println!(
        "fleet: {devices} device(s) x {num_arrays} PE array(s), scheduling: {}{}\n",
        if fleet_scheduling {
            "cost-aware array slots (co-scheduled)"
        } else {
            "all arrays per job"
        },
        if backfill { " + backfilling" } else { "" }
    );
    let service = StreamingService::start(serve_config)?;

    println!("pass 1 (cold cache):");
    let (cold_s, cold_digests) = replay(&service, &trace)?;
    let cold_stats = service.stats();
    println!("  {}", cold_stats);

    println!("pass 2 (warm cache, same trace):");
    let warm_start_completed = cold_stats.completed;
    let (warm_s, warm_digests) = replay(&service, &trace)?;
    let telemetry = service.telemetry();
    let (final_stats, _) = service.shutdown();
    println!("  {}", final_stats);

    if chaos_seed.is_some() {
        println!(
            "\nrecovery: {} retries, {} degraded answers, {} failed",
            final_stats.retries, final_stats.degraded, final_stats.failed,
        );
        let fleet = &final_stats.fleet;
        println!(
            "fleet health: {} quarantines, {} rollbacks, {} probes, {} revivals",
            fleet.quarantines, fleet.rollbacks, fleet.probes, fleet.revivals,
        );
    }

    if scratch_budget.is_some() {
        println!(
            "\nscratch: peak {} elems, {} scratch rejections",
            final_stats.peak_scratch_elems, final_stats.rejected_scratch,
        );
    }

    if speculative {
        println!(
            "\nspeculative: {} answered early, {} verified, {} mismatches (must stay 0)",
            final_stats.speculative_answers,
            final_stats.speculative_verified,
            final_stats.speculative_mismatches,
        );
        assert_eq!(
            final_stats.speculative_mismatches, 0,
            "speculative answers must verify against the cycle-accurate digest"
        );
    }

    if power_cap_mw.is_some() || freq_levels.is_some() {
        let residency: Vec<String> = final_stats
            .device
            .level_residency
            .iter()
            .enumerate()
            .map(|(lvl, cycles)| format!("L{lvl}: {cycles}"))
            .collect();
        println!(
            "\ndvfs: {} freq changes, {:.1} nJ planned energy ({:.1} nJ dynamic), \
             array-cycle residency {{{}}}",
            final_stats.device.freq_changes,
            final_stats.energy_pj * 1e-3,
            final_stats.dynamic_energy_pj * 1e-3,
            residency.join(", "),
        );
        println!(
            "fleet power: peak {:.1} mW, planned {} pJ scheduled",
            final_stats.fleet.peak_power_mw, final_stats.fleet.planned_energy_pj,
        );
    }

    if let Some(path) = &trace_out {
        // Workers flush their rings on shutdown, so the export holds
        // the complete merged trace for both passes.
        let export = telemetry
            .export()
            .ok_or("tracing was enabled but no trace was recorded")?;
        std::fs::write(path, export.to_perfetto_json())?;
        println!(
            "\nwrote {} trace events on {} tracks to {path} (open at https://ui.perfetto.dev)",
            export.events.len(),
            export.tracks.len(),
        );
    }

    assert_eq!(
        cold_digests, warm_digests,
        "warm replay must be bit-identical to the cold run"
    );
    let warm_completed = final_stats.completed - warm_start_completed;
    let warm_hits = final_stats.cache.hits - cold_stats.cache.hits;
    println!(
        "cold pass: {:>8.1} req/s   warm pass: {:>8.1} req/s   ({:.1}x, {} of {} warm requests cached)",
        cold_digests.len() as f64 / cold_s,
        warm_digests.len() as f64 / warm_s,
        cold_s / warm_s,
        warm_hits,
        warm_completed,
    );
    println!(
        "\nwarm replay bit-identical to cold run across {} requests",
        warm_digests.len()
    );
    Ok(())
}
