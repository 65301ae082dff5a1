//! Regenerates every table and figure of the Tempus Core paper.
//!
//! ```text
//! cargo run --release -p tempus-bench --bin report            # everything
//! cargo run --release -p tempus-bench --bin report -- table2  # one experiment
//! cargo run --release -p tempus-bench --bin report -- --quick # bounded model generation
//! ```
//!
//! Output goes to stdout and to `results/` (markdown, CSV and SVG).

use std::path::PathBuf;

use tempus_bench::experiments::{
    ablation, chaos_recovery, co_schedule, dvfs_pareto, energy, fig1, fig4, fig5, fig6, fig7, fig8,
    fig9, fleet_scaling, headline, multi_array_scaling, runtime_throughput, serve_latency,
    sim_speed, streaming_gemm, table1, table2, table3, timing, trace_overhead,
};
use tempus_bench::{write_result, SEED};
use tempus_hwmodel::{PnrModel, SynthModel};

/// Every experiment name `report` accepts, in run order.
const EXPERIMENTS: [&str; 24] = [
    "fig1",
    "table1",
    "table2",
    "fig4",
    "fig5",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "energy",
    "fig9",
    "headline",
    "timing",
    "ablation",
    "runtime",
    "sim_speed",
    "streaming_gemm",
    "multi_array",
    "co_schedule",
    "fleet_scaling",
    "serve",
    "trace_overhead",
    "chaos_recovery",
    "dvfs_pareto",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|name| !EXPERIMENTS.contains(name))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {}\nvalid names: {}",
            unknown.join(", "),
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
    let run_all = selected.is_empty();
    let wants = |name: &str| {
        debug_assert!(
            EXPERIMENTS.contains(&name),
            "{name} missing from EXPERIMENTS"
        );
        run_all || selected.contains(&name)
    };
    // Full runs generate ~180M synthetic weights; --quick bounds each
    // model for smoke-testing the harness.
    let max_weights = if quick { 2_000_000 } else { usize::MAX };

    let results = PathBuf::from("results");
    let hw = SynthModel::nangate45();
    let pnr = PnrModel::new(hw.clone());
    // One headline metric per machine-readable BENCH_*.json written
    // this run, consolidated into results/BENCH_index.json at the end.
    let mut index: Vec<(&str, &str, f64)> = Vec::new();

    println!("== Tempus Core paper reproduction report ==");
    println!("(calibration provenance follows)\n");
    println!("{}", hw.calibration().provenance());

    if wants("fig1") {
        let t = fig1::to_table();
        println!("--- Fig. 1 (background, reprinted from ref. [8]) ---");
        println!("{}", t.to_markdown());
        write_result(&results, "fig1.md", &t.to_markdown()).expect("write fig1");
    }

    if wants("table1") {
        println!("--- Table I: word sparsity of INT8 CNNs ---");
        let rows = table1::run(SEED, max_weights);
        let t = table1::to_table(&rows);
        println!("{}", t.to_markdown());
        write_result(&results, "table1.md", &t.to_markdown()).expect("write table1");
        write_result(&results, "table1.csv", &t.to_csv()).expect("write table1 csv");
    }

    if wants("table2") {
        println!("--- Table II: single PE cell post-synthesis ---");
        let rows = table2::run(&hw);
        let area = table2::area_table(&rows);
        let power = table2::power_table(&rows);
        println!("{}", area.to_markdown());
        println!("{}", power.to_markdown());
        write_result(
            &results,
            "table2.md",
            &format!("{}\n{}", area.to_markdown(), power.to_markdown()),
        )
        .expect("write table2");
    }

    if wants("fig4") {
        println!("--- Fig. 4: 16x16 PE array post-synthesis ---");
        let rows = fig4::run(&hw);
        println!("{}", fig4::to_table(&rows).to_markdown());
        println!("{}", fig4::to_charts(&rows));
        write_result(&results, "fig4.md", &fig4::to_table(&rows).to_markdown())
            .expect("write fig4");
    }

    if wants("fig5") {
        println!("--- Fig. 5: CMAC vs PCU units across widths/precisions ---");
        let rows = fig5::run(&hw);
        println!("{}", fig5::to_table(&rows).to_markdown());
        write_result(&results, "fig5.md", &fig5::to_table(&rows).to_markdown())
            .expect("write fig5");
        write_result(&results, "fig5.csv", &fig5::to_table(&rows).to_csv())
            .expect("write fig5 csv");
    }

    if wants("table3") {
        println!("--- Table III: post-place-and-route, INT4 16x4 ---");
        let rows = table3::run(&pnr);
        println!("{}", table3::to_table(&rows).to_markdown());
        write_result(
            &results,
            "table3.md",
            &table3::to_table(&rows).to_markdown(),
        )
        .expect("write table3");
    }

    if wants("fig6") {
        println!("--- Fig. 6: layout plots (SVGs in results/) ---");
        let fig = fig6::run(&pnr);
        println!("{}", fig.to_ascii());
        write_result(&results, "fig6_cmac.svg", &fig.cmac.to_svg()).expect("write cmac svg");
        write_result(&results, "fig6_pcu.svg", &fig.pcu.to_svg()).expect("write pcu svg");
    }

    let fig7_profiles = if wants("fig7") || wants("energy") {
        Some(fig7::run(SEED, max_weights))
    } else {
        None
    };

    if wants("fig7") {
        let fig = fig7_profiles.as_ref().expect("computed above");
        println!("--- Fig. 7: weight-magnitude profiling (16x16 max pool) ---");
        println!("{}", fig7::summary_table(fig).to_markdown());
        write_result(&results, "fig7.md", &fig7::summary_table(fig).to_markdown())
            .expect("write fig7");
        write_result(
            &results,
            "fig7_mobilenetv2.csv",
            &fig7::histogram_csv(&fig.mobilenet),
        )
        .expect("write fig7 mnv2 csv");
        write_result(
            &results,
            "fig7_resnext101.csv",
            &fig7::histogram_csv(&fig.resnext),
        )
        .expect("write fig7 rnxt csv");
    }

    if wants("fig8") {
        println!("--- Fig. 8: sparsity profiling (silent PEs per tile) ---");
        let fig = fig8::run(SEED, max_weights);
        println!("{}", fig8::summary_table(&fig).to_markdown());
        write_result(
            &results,
            "fig8.md",
            &fig8::summary_table(&fig).to_markdown(),
        )
        .expect("write fig8");
        write_result(
            &results,
            "fig8_mobilenetv2.csv",
            &fig8::histogram_csv(&fig.mobilenet),
        )
        .expect("write fig8 mnv2 csv");
        write_result(
            &results,
            "fig8_resnext101.csv",
            &fig8::histogram_csv(&fig.resnext),
        )
        .expect("write fig8 rnxt csv");
    }

    if wants("energy") {
        println!("--- Section V-C: workload-dependent energy ---");
        let fig = fig7_profiles.as_ref().expect("computed above");
        let report = energy::run(&hw, fig);
        println!("{}", energy::to_table(&report).to_markdown());
        write_result(
            &results,
            "energy.md",
            &energy::to_table(&report).to_markdown(),
        )
        .expect("write energy");
    }

    if wants("fig9") {
        println!("--- Fig. 9: iso-area throughput improvements ---");
        let fig = fig9::run(&hw);
        println!("{}", fig9::to_table(&fig).to_markdown());
        write_result(&results, "fig9.md", &fig9::to_table(&fig).to_markdown()).expect("write fig9");
    }

    if wants("headline") {
        println!("--- Headline claims ---");
        let h = headline::run(&hw);
        println!("{}", headline::to_table(&h).to_markdown());
        println!("--- Latency-adjusted iso-area throughput (beyond the paper) ---");
        let lat = headline::latency_adjusted_table(&hw);
        println!("{}", lat.to_markdown());
        write_result(
            &results,
            "headline.md",
            &format!(
                "{}\n{}",
                headline::to_table(&h).to_markdown(),
                lat.to_markdown()
            ),
        )
        .expect("write headline");
    }

    if wants("timing") {
        println!("--- Timing closure at the fixed 4 ns clock (beyond the paper) ---");
        let t = timing::to_table(&timing::run());
        println!("{}", t.to_markdown());
        write_result(&results, "timing.md", &t.to_markdown()).expect("write timing");
    }

    if wants("ablation") {
        println!("--- Ablations (beyond the paper) ---");
        let (plain, twos) = ablation::unary_encoding_ablation();
        println!(
            "2s-unary vs plain unary average window: {twos:.1} vs {plain:.1} cycles (2x shorter)\n"
        );
        println!(
            "Cache-overhead sweep:\n{}",
            ablation::cache_overhead_ablation().to_markdown()
        );
        println!(
            "Weight-clipping sweep:\n{}",
            ablation::clipping_ablation().to_markdown()
        );
        write_result(
            &results,
            "ablations.md",
            &format!(
                "2s-unary vs plain unary: {twos:.1} vs {plain:.1} cycles\n\n{}\n{}",
                ablation::cache_overhead_ablation().to_markdown(),
                ablation::clipping_ablation().to_markdown()
            ),
        )
        .expect("write ablations");
    }

    if wants("runtime") {
        println!("--- Runtime throughput: batched engine, 3 backends (beyond the paper) ---");
        let jobs = if quick { 40 } else { 100 };
        let report = runtime_throughput::run(SEED, jobs, &[1, 2, 4, 8]);
        println!("{}", report.to_markdown());
        write_result(&results, "runtime_throughput.md", &report.to_markdown())
            .expect("write runtime markdown");
        write_result(&results, "BENCH_runtime_throughput.json", &report.to_json())
            .expect("write runtime json");
        index.push((
            "runtime_throughput",
            "functional_speedup",
            report.functional_speedup,
        ));
    }

    if wants("sim_speed") {
        println!("--- Simulation core: window-batched vs per-cycle engine (beyond the paper) ---");
        let report = sim_speed::run(SEED, quick);
        println!("{}", report.to_markdown());
        assert!(
            report.digests_equal(),
            "window-batched engine diverged from the per-cycle reference"
        );
        write_result(&results, "sim_speed.md", &report.to_markdown())
            .expect("write sim_speed markdown");
        write_result(&results, "BENCH_sim_speed.json", &report.to_json())
            .expect("write sim_speed json");
        index.push(("sim_speed", "geomean_speedup", report.geomean_speedup()));
    }

    if wants("streaming_gemm") {
        println!(
            "--- Streaming tiled GEMM: bounded-scratch vs materialized on transformer shapes \
             (beyond the paper) ---"
        );
        let report = streaming_gemm::run(SEED, quick);
        println!("{}", report.to_markdown());
        assert!(
            report.digests_equal(),
            "streamed path diverged from the materialized reference"
        );
        assert!(
            report.scratch_bounded(),
            "streamed peak scratch exceeded the quarter-operand budget or the closed-form model"
        );
        assert!(
            report.scratch_operand_invariant(),
            "streamed scratch arena grew with operand size"
        );
        write_result(&results, "streaming_gemm.md", &report.to_markdown())
            .expect("write streaming_gemm markdown");
        write_result(&results, "BENCH_streaming_gemm.json", &report.to_json())
            .expect("write streaming_gemm json");
        index.push((
            "streaming_gemm",
            "geomean_speedup",
            report.geomean_speedup(),
        ));
    }

    if wants("multi_array") {
        println!("--- Multi-array scaling: sharded cores vs array count (beyond the paper) ---");
        let report = multi_array_scaling::run(SEED, quick);
        println!("{}", report.to_markdown());
        assert!(
            report.digests_equal(),
            "sharded engine diverged from the single-array reference"
        );
        write_result(&results, "multi_array_scaling.md", &report.to_markdown())
            .expect("write multi_array markdown");
        write_result(
            &results,
            "BENCH_multi_array_scaling.json",
            &report.to_json(),
        )
        .expect("write multi_array json");
        index.push((
            "multi_array_scaling",
            "min_speedup_at_2_arrays",
            report.min_kernel_rich_speedup_at_2().unwrap_or(0.0),
        ));
    }

    if wants("co_schedule") {
        println!(
            "--- Array-slot co-scheduling: cost-aware packing vs all-arrays (beyond the paper) ---"
        );
        let report = co_schedule::run(SEED, quick);
        println!("{}", report.to_markdown());
        assert!(
            report.digests_equal(),
            "co-scheduled serving diverged from the all-arrays path"
        );
        assert!(
            report.makespan_speedup() >= 1.3,
            "co-scheduling makespan win fell below 1.3x"
        );
        write_result(&results, "co_schedule.md", &report.to_markdown())
            .expect("write co_schedule markdown");
        write_result(&results, "BENCH_co_schedule.json", &report.to_json())
            .expect("write co_schedule json");
        index.push(("co_schedule", "makespan_speedup", report.makespan_speedup()));
    }

    if wants("fleet_scaling") {
        println!(
            "--- Fleet-scale serving: multi-device scheduler frontiers (beyond the paper) ---"
        );
        let report = fleet_scaling::run(SEED, quick);
        println!("{}", report.to_markdown());
        assert!(
            report.digests_equal(),
            "fleet serving diverged from the single-device reference"
        );
        assert!(
            report.backfill_reclaims(),
            "backfilling failed to reclaim idle array-cycles at equal digests"
        );
        assert!(
            report.admission_wins(),
            "deadline-aware admission fell behind drop-on-timeout at peak load"
        );
        write_result(&results, "fleet_scaling.md", &report.to_markdown())
            .expect("write fleet_scaling markdown");
        write_result(&results, "BENCH_fleet_scaling.json", &report.to_json())
            .expect("write fleet_scaling json");
        index.push((
            "fleet_scaling",
            "peak_load_admission_compliance",
            report
                .admission
                .last()
                .map_or(0.0, |row| row.compliance_admission),
        ));
    }

    if wants("serve") {
        println!("--- Serving layer: streaming ingestion + result cache (beyond the paper) ---");
        let requests = if quick { 60 } else { 200 };
        let report = serve_latency::run(SEED, requests);
        println!("{}", report.to_markdown());
        write_result(&results, "serve_latency.md", &report.to_markdown())
            .expect("write serve markdown");
        write_result(&results, "BENCH_serve_latency.json", &report.to_json())
            .expect("write serve json");
        index.push(("serve_latency", "warm_speedup", report.warm_speedup));
    }

    if wants("trace_overhead") {
        println!("--- Telemetry: dual-clock tracing overhead + coverage (beyond the paper) ---");
        let report = trace_overhead::run(SEED, quick);
        println!("{}", report.to_markdown());
        // run() already asserts the deterministic gates (bit-identical
        // digests, Perfetto shape, full stage coverage); the wall-time
        // gate lives here.
        assert!(
            report.overhead_frac < 0.05,
            "tracing overhead {:.1}% breached the 5% budget",
            report.overhead_frac * 100.0
        );
        write_result(&results, "trace_overhead.md", &report.to_markdown())
            .expect("write trace_overhead markdown");
        write_result(&results, "BENCH_trace_overhead.json", &report.to_json())
            .expect("write trace_overhead json");
        index.push(("trace_overhead", "overhead_frac", report.overhead_frac));
    }

    if wants("chaos_recovery") {
        println!("--- Fault tolerance: chaos injection + recovery gate (beyond the paper) ---");
        let report = chaos_recovery::run(SEED, quick);
        println!("{}", report.to_markdown());
        // run() already asserts the deterministic gates (zero lost
        // requests, bit-identical digests, no orphaned grants, the
        // quarantine → probe → revive ladder); the tail-latency gate
        // lives here where the machine is quiet.
        assert!(
            report.p99_inflation_bounded(),
            "recovery inflated p99 beyond the retry-ladder budget"
        );
        write_result(&results, "chaos_recovery.md", &report.to_markdown())
            .expect("write chaos_recovery markdown");
        write_result(&results, "BENCH_chaos_recovery.json", &report.to_json())
            .expect("write chaos_recovery json");
        index.push((
            "chaos_recovery",
            "worst_p99_ms",
            report
                .scenarios
                .iter()
                .map(|s| s.p99_ms)
                .fold(0.0, f64::max),
        ));
    }

    if wants("dvfs_pareto") {
        println!(
            "--- Energy-latency Pareto co-scheduling: DVFS domains, power cap, speculation \
             (beyond the paper) ---"
        );
        let report = dvfs_pareto::run(SEED, quick);
        println!("{}", report.to_markdown());
        assert!(
            report.identity_holds(),
            "DVFS-off serving diverged from the reference path: {:?}",
            report.identity
        );
        assert!(
            report.power_gate_holds(),
            "power cap missed the ≥25% energy / ≤1.5x latency envelope: {:?}",
            report.power
        );
        assert!(
            report.speculative_gate_holds(),
            "speculative serving missed the ≥3x p50 / zero-mismatch gate: {:?}",
            report.speculative
        );
        assert!(
            report.governor_active(),
            "governor committed no frequency transitions on an idle-heavy stream: {:?}",
            report.governor
        );
        write_result(&results, "dvfs_pareto.md", &report.to_markdown())
            .expect("write dvfs_pareto markdown");
        write_result(&results, "BENCH_dvfs_pareto.json", &report.to_json())
            .expect("write dvfs_pareto json");
        index.push((
            "dvfs_pareto",
            "capped_energy_drop",
            report.power.energy_drop,
        ));
    }

    if !index.is_empty() {
        let mut json = String::from("{\n  \"index\": [\n");
        for (i, (experiment, metric, value)) in index.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"file\": \"BENCH_{experiment}.json\", \"experiment\": \"{experiment}\", \
                 \"metric\": \"{metric}\", \"value\": {value:.4}}}{}\n",
                if i + 1 == index.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        write_result(&results, "BENCH_index.json", &json).expect("write bench index");
        println!(
            "consolidated {} headline metrics into BENCH_index.json",
            index.len()
        );
    }

    println!("report complete; artifacts in results/");
}
