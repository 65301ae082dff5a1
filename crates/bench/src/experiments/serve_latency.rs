//! Serving-layer latency/throughput: replay a seeded bursty traffic
//! trace through `tempus-serve` cold (empty result cache) and warm
//! (same trace, populated cache), reporting per-class latency
//! percentiles, cache counters and the warm-over-cold throughput
//! multiple — with bit-identical outputs as the acceptance gate
//! (`results/BENCH_serve_latency.json`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tempus_models::traffic::{generate, TraceConfig, TraceRequest};
use tempus_nvdla::cube::fnv1a;
use tempus_serve::{
    percentile, JobClass, Request, ResponseOutcome, ServeConfig, SloPolicy, StreamingService,
};
use tempus_telemetry::json::{self, Fixed, Hex};

/// Per-class latency record for one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassRow {
    /// Class name (`fidelity/kind`).
    pub class: String,
    /// Requests of this class completed in the pass.
    pub completed: u64,
    /// Of those, answered from the result cache.
    pub cache_hits: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// The class's SLO target, ns.
    pub slo_target_ns: u64,
    /// Fraction of this pass's requests inside the SLO.
    pub slo_compliance: f64,
    /// Mean PE arrays occupied per completed request (1 on the
    /// single-array socket this bench replays; the field keeps the
    /// JSON schema aligned with `ServeStats`).
    pub shards: f64,
}

/// One replay pass (cold or warm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassReport {
    /// `cold` or `warm`.
    pub label: &'static str,
    /// Requests completed.
    pub requests: u64,
    /// Pass wall-clock, seconds.
    pub wall_s: f64,
    /// Requests per second.
    pub req_per_sec: f64,
    /// Cache hits during the pass.
    pub cache_hits: u64,
    /// Combined digest over `(job id, output digest)` pairs in id
    /// order — equality across passes proves bit-identical replay.
    pub digest: u64,
    /// Per-class latency rows (non-empty classes only).
    pub classes: Vec<ClassRow>,
}

/// The full experiment result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeLatencyReport {
    /// Trace seed.
    pub seed: u64,
    /// Requests per pass.
    pub requests: usize,
    /// Distinct templates in the trace.
    pub templates: usize,
    /// Cold pass (cache starts empty).
    pub cold: PassReport,
    /// Warm pass (same trace, cache populated by the cold pass).
    pub warm: PassReport,
    /// Warm-over-cold throughput multiple.
    pub warm_speedup: f64,
}

/// Replays `trace` closed-loop (submit as fast as backpressure
/// allows) and reports the pass from the responses themselves.
fn replay(service: &StreamingService, trace: &[TraceRequest], label: &'static str) -> PassReport {
    let start = Instant::now();
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut latencies: [Vec<u64>; 6] = Default::default();
    let mut cached: [u64; 6] = [0; 6];
    let mut shards_sum: [u64; 6] = [0; 6];
    let mut hits = 0u64;
    let mut outstanding = 0usize;
    let mut consume =
        |response: tempus_serve::Response, digests: &mut BTreeMap<u64, u64>| match response.outcome
        {
            ResponseOutcome::Done(result) => {
                digests.insert(response.job_id, result.output.digest());
                let i = response.class.index();
                latencies[i].push(response.total_ns);
                shards_sum[i] += result.shards.max(1) as u64;
                if result.cache == tempus_serve::CacheOutcome::Hit {
                    cached[i] += 1;
                    hits += 1;
                }
            }
            ResponseOutcome::Rejected(reason) => panic!("request rejected: {reason:?}"),
            ResponseOutcome::Failed(error) => panic!("request failed: {error}"),
        };
    for t in trace {
        service
            .submit(Request::from_trace(t))
            .expect("service accepts (blocking submit)");
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
    let wall_s = start.elapsed().as_secs_f64();
    let slo = SloPolicy::edge_defaults();
    let classes = JobClass::ALL
        .into_iter()
        .filter_map(|class| {
            let mut sorted = latencies[class.index()].clone();
            if sorted.is_empty() {
                return None;
            }
            sorted.sort_unstable();
            let target = slo.target_ns(class);
            let violations = sorted.iter().filter(|&&ns| ns > target).count();
            Some(ClassRow {
                class: class.name(),
                completed: sorted.len() as u64,
                cache_hits: cached[class.index()],
                p50_ns: percentile(&sorted, 50.0),
                p95_ns: percentile(&sorted, 95.0),
                p99_ns: percentile(&sorted, 99.0),
                slo_target_ns: target,
                slo_compliance: 1.0 - violations as f64 / sorted.len() as f64,
                shards: shards_sum[class.index()] as f64 / sorted.len() as f64,
            })
        })
        .collect();
    PassReport {
        label,
        requests: digests.len() as u64,
        wall_s,
        req_per_sec: digests.len() as f64 / wall_s,
        cache_hits: hits,
        digest: fnv1a(digests.iter().flat_map(|(&id, &d)| [id, d])),
        classes,
    }
}

/// Runs the experiment: one service, the same trace replayed cold
/// then warm.
///
/// # Panics
///
/// Panics when a request fails or the two passes' output digests
/// disagree — both contract violations.
#[must_use]
pub fn run(seed: u64, requests: usize) -> ServeLatencyReport {
    let trace_config = TraceConfig::new(seed)
        .with_requests(requests)
        .with_repeat_fraction(0.5)
        .with_accurate_fraction(0.03);
    let trace = generate(&trace_config);
    let service = StreamingService::start(
        ServeConfig::new()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_cache_capacity(8192),
    )
    .expect("service starts");
    let cold = replay(&service, &trace, "cold");
    let warm = replay(&service, &trace, "warm");
    let (_stats, _leftover) = service.shutdown();
    assert_eq!(
        cold.digest, warm.digest,
        "warm replay must be bit-identical to the cold run"
    );
    ServeLatencyReport {
        seed,
        requests,
        templates: trace.iter().map(|t| t.template).max().map_or(0, |m| m + 1),
        warm_speedup: warm.req_per_sec / cold.req_per_sec,
        cold,
        warm,
    }
}

impl ServeLatencyReport {
    /// Machine-readable JSON summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("experiment", "serve_latency")
                .field("seed", self.seed)
                .field("requests", self.requests)
                .field("templates", self.templates)
                .field("warm_speedup_vs_cold", Fixed(self.warm_speedup, 2))
                .field("digests_equal", self.cold.digest == self.warm.digest);
            o.array("passes", |a| {
                for p in [&self.cold, &self.warm] {
                    a.object(|o| {
                        o.field("label", p.label)
                            .field("requests", p.requests)
                            .field("wall_s", Fixed(p.wall_s, 4))
                            .field("req_per_sec", Fixed(p.req_per_sec, 1))
                            .field("cache_hits", p.cache_hits)
                            .field("digest", Hex(p.digest));
                        o.array("classes", |a| {
                            for c in &p.classes {
                                a.object(|o| {
                                    o.field("class", &c.class)
                                        .field("completed", c.completed)
                                        .field("cache_hits", c.cache_hits)
                                        .field("p50_ns", c.p50_ns)
                                        .field("p95_ns", c.p95_ns)
                                        .field("p99_ns", c.p99_ns)
                                        .field("slo_target_ns", c.slo_target_ns)
                                        .field("slo_compliance", Fixed(c.slo_compliance, 4))
                                        .field("shards", Fixed(c.shards, 2));
                                });
                            }
                        });
                    });
                }
            });
        })
    }

    /// Human-readable markdown summary.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut s = format!(
            "serve_latency: {} requests ({} templates), warm speedup {:.1}x, \
             digests equal: {}\n\n",
            self.requests,
            self.templates,
            self.warm_speedup,
            self.cold.digest == self.warm.digest,
        );
        s.push_str("| pass | class | done | cached | p50 ms | p95 ms | p99 ms | slo ms | met |\n");
        s.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for p in [&self.cold, &self.warm] {
            for c in &p.classes {
                s.push_str(&format!(
                    "| {} | {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.1} | {:.1}% |\n",
                    p.label,
                    c.class,
                    c.completed,
                    c.cache_hits,
                    c.p50_ns as f64 * 1e-6,
                    c.p95_ns as f64 * 1e-6,
                    c.p99_ns as f64 * 1e-6,
                    c.slo_target_ns as f64 * 1e-6,
                    c.slo_compliance * 100.0,
                ));
            }
        }
        s.push_str(&format!(
            "\ncold: {:.0} req/s over {:.2} s; warm: {:.0} req/s over {:.3} s\n",
            self.cold.req_per_sec, self.cold.wall_s, self.warm.req_per_sec, self.warm.wall_s
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_replay_is_faster_with_equal_digests() {
        // A warm-cache replay must beat the cold run at equal output
        // digests, with per-class percentiles reported. The bar was
        // 5× when cycle-accurate jobs cost hundreds of ms each; the
        // window-batched simulation core cut cold-pass cost by an
        // order of magnitude, so the cache's relative margin shrank
        // (observed ~4× now). 2× stays robust under CI noise while
        // still proving the cache carries the replay.
        let report = run(42, 120);
        assert_eq!(report.cold.digest, report.warm.digest);
        assert!(
            report.warm_speedup >= 2.0,
            "warm speedup {:.1}x",
            report.warm_speedup
        );
        assert_eq!(report.warm.cache_hits, report.warm.requests);
        assert!(!report.cold.classes.is_empty());
        for c in report.cold.classes.iter().chain(&report.warm.classes) {
            assert!(c.p50_ns <= c.p95_ns && c.p95_ns <= c.p99_ns);
        }
        let json = report.to_json();
        assert!(json.contains("\"digests_equal\": true"));
        assert_eq!(json.matches("\"label\"").count(), 2);
    }

    #[test]
    fn json_summary_is_well_formed_enough() {
        let pass = PassReport {
            classes: vec![ClassRow::default()],
            ..PassReport::default()
        };
        let report = ServeLatencyReport {
            cold: pass.clone(),
            warm: pass,
            ..ServeLatencyReport::default()
        };
        let committed = include_str!("../../../../results/BENCH_serve_latency.json");
        crate::assert_keys_match(&report.to_json(), committed);
    }
}
