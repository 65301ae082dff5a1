//! Deterministic seeded traffic-trace generation.
//!
//! The serving layer (`tempus-serve`) ingests continuous, bursty
//! request streams — nothing like the fixed batches the experiment
//! harness sweeps. This module generates such streams
//! deterministically: Poisson-ish arrivals (exponential interarrival
//! gaps from a seeded RNG, with occasional same-instant bursts), a
//! configurable mix of job classes (conv / GEMM / whole-network ×
//! fast-functional / cycle-accurate fidelity), and a tunable
//! *template repeat fraction* — the knob that models production
//! traffic where the same weights (and often the same inputs) recur
//! request after request, which is exactly what a content-addressed
//! result cache monetises.
//!
//! The generator is shared by the `serve_stream` example, the
//! `serve_latency` bench experiment and the workspace tests, so all
//! three exercise the same traffic shapes. For a fixed
//! [`TraceConfig`] the trace is bit-for-bit reproducible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tempus_arith::IntPrecision;
use tempus_core::gemm::Matrix;
use tempus_nvdla::conv::ConvParams;
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::network::NetworkLayer;

use crate::netbuild;
use crate::transformer::{self, TransformerShape};
use crate::zoo::Model;

/// Requested execution fidelity for one trace request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFidelity {
    /// Fast functional execution (golden outputs, closed-form
    /// latency) — the serving fast path.
    Fast,
    /// Cycle-accurate simulation — authoritative but orders of
    /// magnitude slower; the serving layer admission-controls these.
    Accurate,
}

/// What one trace request computes (mirrors the runtime's job
/// payloads without depending on `tempus-runtime`, which sits above
/// this crate).
#[derive(Debug, Clone)]
pub enum TracePayload {
    /// One convolution layer.
    Conv {
        /// Input feature cube.
        features: DataCube,
        /// Kernel weights.
        kernels: KernelSet,
        /// Convolution parameters.
        params: ConvParams,
    },
    /// One dense matrix product.
    Gemm {
        /// Left operand.
        a: Matrix,
        /// Right operand.
        b: Matrix,
    },
    /// A whole-network prefix from the model zoo.
    Network {
        /// Network input cube.
        input: DataCube,
        /// Layers in execution order.
        layers: Vec<NetworkLayer>,
    },
}

impl TracePayload {
    /// Short payload-kind tag (`conv`/`gemm`/`network`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TracePayload::Conv { .. } => "conv",
            TracePayload::Gemm { .. } => "gemm",
            TracePayload::Network { .. } => "network",
        }
    }
}

/// Per-class completion deadlines in **device cycles**, derived from
/// the serving layer's per-class SLO targets (nanoseconds over the
/// 4 ns cycle at the paper's 250 MHz clock). Attached to a trace via
/// [`TraceConfig::with_deadlines`]; deadline stamping draws no RNG
/// values, so seeded traces stay bit-identical with or without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassDeadlines {
    /// Deadlines for fast-functional `[conv, gemm, network]`.
    pub fast: [u64; 3],
    /// Deadlines for cycle-accurate `[conv, gemm, network]`.
    pub accurate: [u64; 3],
}

impl ClassDeadlines {
    /// The same deadline for every class.
    #[must_use]
    pub fn uniform(cycles: u64) -> Self {
        ClassDeadlines {
            fast: [cycles; 3],
            accurate: [cycles; 3],
        }
    }

    /// The deadline for one request's class.
    #[must_use]
    pub fn deadline_for(&self, fidelity: TraceFidelity, payload: &TracePayload) -> u64 {
        let kind = match payload {
            TracePayload::Conv { .. } => 0,
            TracePayload::Gemm { .. } => 1,
            TracePayload::Network { .. } => 2,
        };
        match fidelity {
            TraceFidelity::Fast => self.fast[kind],
            TraceFidelity::Accurate => self.accurate[kind],
        }
    }
}

/// One request in a generated trace.
#[derive(Debug, Clone)]
pub struct TraceRequest {
    /// Sequential request id (also the runtime job id downstream).
    pub id: u64,
    /// Arrival time relative to trace start, in nanoseconds.
    pub arrival_ns: u64,
    /// Human-readable label.
    pub name: String,
    /// Requested execution fidelity.
    pub fidelity: TraceFidelity,
    /// The computation.
    pub payload: TracePayload,
    /// Index of the template this request instantiated — requests
    /// sharing a template carry identical payloads, so downstream
    /// result caches will hit on the repeats.
    pub template: usize,
    /// SLO-derived completion deadline in device cycles, when the
    /// trace was generated with [`TraceConfig::with_deadlines`] —
    /// deadline-aware admission rejects requests that provably cannot
    /// meet it. `None` (the default) leaves admission unconstrained.
    pub deadline_cycles: Option<u64>,
}

/// Trace-generation parameters.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// RNG seed: fixes the whole trace.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Mean exponential interarrival gap, in nanoseconds.
    pub mean_interarrival_ns: u64,
    /// Probability that an arrival opens a burst of back-to-back
    /// (same-instant) requests.
    pub burst_prob: f64,
    /// Maximum burst length (uniform in `2..=burst_len`).
    pub burst_len: usize,
    /// Probability that a request replays an earlier template instead
    /// of minting a fresh one — the cache-hit driver.
    pub repeat_fraction: f64,
    /// Probability that a request asks for cycle-accurate fidelity.
    pub accurate_fraction: f64,
    /// Probability that a fresh convolution template is **wide**
    /// (kernel-rich: 32–48 kernels over 8–16 channels) instead of the
    /// default narrow shapes. Wide convs fill several kernel groups,
    /// so multi-array planners shard them — the knob that makes a
    /// trace mixed wide+narrow for array-slot scheduling studies.
    /// 0.0 (the default) draws no RNG values, so existing seeded
    /// traces stay bit-identical.
    pub wide_conv_fraction: f64,
    /// Probability that a fresh GEMM template is **transformer-shaped**
    /// (an attention-projection or MLP GEMM at
    /// [`TraceConfig::transformer`] dimensions) instead of the default
    /// tiny shapes. Transformer GEMMs are what the streaming tile
    /// arena exists for — large inner dimensions that would otherwise
    /// materialize whole operands in scratch. 0.0 (the default) draws
    /// no RNG values, so existing seeded traces stay bit-identical.
    pub transformer_fraction: f64,
    /// The block shape transformer-shaped GEMM templates instantiate.
    pub transformer: TransformerShape,
    /// Relative weight of convolution payloads in the fresh-template
    /// mix.
    pub conv_weight: f64,
    /// Relative weight of GEMM payloads.
    pub gemm_weight: f64,
    /// Relative weight of whole-network payloads.
    pub network_weight: f64,
    /// Working precision for all generated operands.
    pub precision: IntPrecision,
    /// Per-class deadlines stamped onto every request; `None` (the
    /// default) leaves [`TraceRequest::deadline_cycles`] unset.
    /// Stamping is a pure per-class lookup — it draws no RNG values,
    /// so existing seeded traces stay bit-identical either way.
    pub deadlines: Option<ClassDeadlines>,
}

impl TraceConfig {
    /// A bursty mixed default trace: 256 requests, 50 µs mean gap,
    /// 70% template repeats, 5% cycle-accurate, conv/GEMM-heavy with
    /// some whole networks.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TraceConfig {
            seed,
            requests: 256,
            mean_interarrival_ns: 50_000,
            burst_prob: 0.1,
            burst_len: 8,
            repeat_fraction: 0.7,
            accurate_fraction: 0.05,
            wide_conv_fraction: 0.0,
            transformer_fraction: 0.0,
            transformer: TransformerShape::trace_default(),
            conv_weight: 0.4,
            gemm_weight: 0.4,
            network_weight: 0.2,
            precision: IntPrecision::Int8,
            deadlines: None,
        }
    }

    /// Overrides the request count (builder style).
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Overrides the template repeat fraction (builder style).
    #[must_use]
    pub fn with_repeat_fraction(mut self, fraction: f64) -> Self {
        self.repeat_fraction = fraction;
        self
    }

    /// Overrides the cycle-accurate fraction (builder style).
    #[must_use]
    pub fn with_accurate_fraction(mut self, fraction: f64) -> Self {
        self.accurate_fraction = fraction;
        self
    }

    /// Overrides the mean interarrival gap (builder style).
    #[must_use]
    pub fn with_mean_interarrival_ns(mut self, ns: u64) -> Self {
        self.mean_interarrival_ns = ns;
        self
    }

    /// Overrides the wide-convolution fraction (builder style).
    #[must_use]
    pub fn with_wide_conv_fraction(mut self, fraction: f64) -> Self {
        self.wide_conv_fraction = fraction;
        self
    }

    /// Overrides the transformer-shaped GEMM fraction (builder style).
    #[must_use]
    pub fn with_transformer_fraction(mut self, fraction: f64) -> Self {
        self.transformer_fraction = fraction;
        self
    }

    /// Overrides the transformer block shape (builder style).
    #[must_use]
    pub fn with_transformer_shape(mut self, shape: TransformerShape) -> Self {
        self.transformer = shape;
        self
    }

    /// Stamps per-class deadlines onto every generated request
    /// (builder style).
    #[must_use]
    pub fn with_deadlines(mut self, deadlines: ClassDeadlines) -> Self {
        self.deadlines = Some(deadlines);
        self
    }
}

fn fresh_payload(rng: &mut StdRng, config: &TraceConfig) -> TracePayload {
    let lo = config.precision.min_value();
    let hi = config.precision.max_value();
    let total = config.conv_weight + config.gemm_weight + config.network_weight;
    let pick = rng.random::<f64>() * total;
    if pick < config.conv_weight {
        // Wide templates only draw RNG values when the knob is set,
        // so traces generated before the knob existed replay
        // bit-identically.
        let wide = config.wide_conv_fraction > 0.0 && rng.random_bool(config.wide_conv_fraction);
        let (w, c, k) = if wide {
            (
                rng.random_range(4usize..=5),
                8 * rng.random_range(1usize..=2),
                16 * rng.random_range(2usize..=3),
            )
        } else {
            (
                rng.random_range(4usize..=6),
                4 * rng.random_range(1usize..=2),
                4 * rng.random_range(1usize..=2),
            )
        };
        let values = move |rng: &mut StdRng| rng.random_range(lo..=hi);
        let features = {
            let mut vals: Vec<i32> = Vec::new();
            for _ in 0..w * w * c {
                vals.push(values(rng));
            }
            let mut it = vals.into_iter();
            DataCube::from_fn(w, w, c, |_, _, _| it.next().unwrap())
        };
        let kernels = {
            let mut vals: Vec<i32> = Vec::new();
            for _ in 0..k * 3 * 3 * c {
                vals.push(values(rng));
            }
            let mut it = vals.into_iter();
            KernelSet::from_fn(k, 3, 3, c, |_, _, _, _| it.next().unwrap())
        };
        let params = if rng.random_bool(0.5) {
            ConvParams::unit_stride_same(3)
        } else {
            ConvParams::valid()
        };
        TracePayload::Conv {
            features,
            kernels,
            params,
        }
    } else if pick < config.conv_weight + config.gemm_weight {
        // Transformer-shaped templates only draw RNG values when the
        // knob is set, so pre-knob seeded traces replay bit-for-bit.
        if config.transformer_fraction > 0.0 && rng.random_bool(config.transformer_fraction) {
            let kind = transformer::ProjectionKind::ALL[rng.random_range(0usize..3)];
            let gemm_seed = rng.random::<u64>();
            let (a, b) = transformer::projection_gemm(
                &config.transformer,
                kind,
                config.precision,
                gemm_seed,
            );
            return TracePayload::Gemm { a, b };
        }
        let m = rng.random_range(4usize..=8);
        let n = rng.random_range(4usize..=8);
        let p = rng.random_range(4usize..=8);
        let mut vals: Vec<i32> = Vec::new();
        for _ in 0..m * n + n * p {
            vals.push(rng.random_range(lo..=hi));
        }
        let mut it = vals.into_iter();
        let a = Matrix::from_fn(m, n, |_, _| it.next().unwrap());
        let b = Matrix::from_fn(n, p, |_, _| it.next().unwrap());
        TracePayload::Gemm { a, b }
    } else {
        let model = if rng.random_bool(0.5) {
            Model::ResNet18
        } else {
            Model::GoogleNet
        };
        let model_seed = rng.random::<u64>();
        let layers = netbuild::network_prefix(model, config.precision, model_seed, 200_000, 1, 64);
        match netbuild::input_channels(&layers) {
            Some(channels) => {
                let input = netbuild::input_cube(5, 5, channels, config.precision, model_seed);
                TracePayload::Network { input, layers }
            }
            // No dense prefix under the channel budget: degrade to a
            // small GEMM so the trace keeps its length.
            None => TracePayload::Gemm {
                a: Matrix::from_fn(4, 4, |r, c| (r as i32 - c as i32) * 3),
                b: Matrix::from_fn(4, 4, |r, c| (r as i32 + c as i32) - 3),
            },
        }
    }
}

/// Generates a trace. Deterministic: the same [`TraceConfig`] always
/// yields the identical request sequence (payloads, fidelities,
/// arrival times).
#[must_use]
pub fn generate(config: &TraceConfig) -> Vec<TraceRequest> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x007E_1105_5E2E_D0CE);
    // The request that minted each template: a repeat clones its
    // payload from there, so fresh payloads are never copied.
    let mut minted_by: Vec<usize> = Vec::new();
    let mut requests: Vec<TraceRequest> = Vec::with_capacity(config.requests);
    let mut clock_ns = 0u64;
    let mut burst_remaining = 0usize;
    for id in 0..config.requests as u64 {
        // Arrival process: exponential gaps, with occasional bursts
        // of simultaneous arrivals.
        if burst_remaining > 0 {
            burst_remaining -= 1;
        } else {
            let u: f64 = rng.random();
            let gap = -(1.0 - u).ln() * config.mean_interarrival_ns as f64;
            clock_ns = clock_ns.saturating_add(gap as u64);
            if config.burst_len >= 2 && rng.random_bool(config.burst_prob) {
                burst_remaining = rng.random_range(2usize..=config.burst_len) - 1;
            }
        }
        // Payload: replay an earlier template or mint a fresh one.
        let (payload, template) =
            if !minted_by.is_empty() && rng.random_bool(config.repeat_fraction) {
                let template = rng.random_range(0..minted_by.len());
                (requests[minted_by[template]].payload.clone(), template)
            } else {
                minted_by.push(requests.len());
                (fresh_payload(&mut rng, config), minted_by.len() - 1)
            };
        let fidelity = if rng.random_bool(config.accurate_fraction) {
            TraceFidelity::Accurate
        } else {
            TraceFidelity::Fast
        };
        let deadline_cycles = config.deadlines.map(|d| d.deadline_for(fidelity, &payload));
        requests.push(TraceRequest {
            id,
            arrival_ns: clock_ns,
            name: format!("{}-{id}", payload.kind()),
            fidelity,
            payload,
            template,
            deadline_cycles,
        });
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(payload: &TracePayload) -> u64 {
        match payload {
            TracePayload::Conv {
                features, kernels, ..
            } => features.content_hash() ^ kernels.content_hash(),
            TracePayload::Gemm { a, b } => a.content_hash() ^ b.content_hash(),
            TracePayload::Network { input, layers } => layers
                .iter()
                .fold(input.content_hash(), |acc, l| acc ^ l.content_hash()),
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let cfg = TraceConfig::new(9).with_requests(60);
        let a = generate(&cfg);
        let b = generate(&cfg);
        let c = generate(&TraceConfig::new(10).with_requests(60));
        assert_eq!(a.len(), 60);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_ns, y.arrival_ns);
            assert_eq!(x.fidelity, y.fidelity);
            assert_eq!(digest_of(&x.payload), digest_of(&y.payload));
        }
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.arrival_ns != y.arrival_ns
                || digest_of(&x.payload) != digest_of(&y.payload)),
            "different seeds must differ"
        );
    }

    #[test]
    fn arrivals_are_monotone_and_bursty() {
        let cfg = TraceConfig {
            burst_prob: 0.5,
            ..TraceConfig::new(3).with_requests(120)
        };
        let trace = generate(&cfg);
        let mut last = 0u64;
        let mut simultaneous = 0usize;
        for r in &trace {
            assert!(r.arrival_ns >= last, "arrivals must be non-decreasing");
            if r.arrival_ns == last && r.id > 0 {
                simultaneous += 1;
            }
            last = r.arrival_ns;
        }
        assert!(
            simultaneous > 0,
            "bursts must produce same-instant arrivals"
        );
    }

    #[test]
    fn repeats_share_templates_and_payload_bits() {
        let cfg = TraceConfig::new(5)
            .with_requests(80)
            .with_repeat_fraction(0.8);
        let trace = generate(&cfg);
        let mut by_template: std::collections::HashMap<usize, u64> =
            std::collections::HashMap::new();
        let mut repeats = 0usize;
        for r in &trace {
            let d = digest_of(&r.payload);
            if let Some(&prev) = by_template.get(&r.template) {
                assert_eq!(
                    prev, d,
                    "template {} must repeat bit-identically",
                    r.template
                );
                repeats += 1;
            } else {
                by_template.insert(r.template, d);
            }
        }
        assert!(
            repeats >= 30,
            "high repeat fraction must yield repeats, got {repeats}"
        );
    }

    #[test]
    fn wide_fraction_produces_kernel_rich_convs() {
        let narrow = TraceConfig::new(21).with_requests(120);
        let wide = TraceConfig::new(21)
            .with_requests(120)
            .with_wide_conv_fraction(0.5);
        let max_k = |trace: &[TraceRequest]| {
            trace
                .iter()
                .filter_map(|r| match &r.payload {
                    TracePayload::Conv { kernels, .. } => Some(kernels.k()),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        assert!(max_k(&generate(&narrow)) <= 8, "default convs stay narrow");
        assert!(
            max_k(&generate(&wide)) >= 32,
            "wide knob must mint kernel-rich convs"
        );
        // The default knob keeps pre-existing seeded traces
        // bit-identical: wide_conv_fraction == 0.0 draws no RNG.
        let a = generate(&narrow);
        let b = generate(&TraceConfig::new(21).with_requests(120));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(digest_of(&x.payload), digest_of(&y.payload));
        }
    }

    #[test]
    fn transformer_fraction_mints_large_inner_dim_gemms() {
        let plain = TraceConfig::new(17).with_requests(120);
        let llm = TraceConfig::new(17)
            .with_requests(120)
            .with_transformer_fraction(0.6)
            .with_transformer_shape(TransformerShape::new(8, 64));
        let max_inner = |trace: &[TraceRequest]| {
            trace
                .iter()
                .filter_map(|r| match &r.payload {
                    TracePayload::Gemm { a, .. } => Some(a.cols()),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        assert!(max_inner(&generate(&plain)) <= 8, "default GEMMs stay tiny");
        // MlpDown's inner dimension is d_ff = 4 × d_model = 256.
        assert!(
            max_inner(&generate(&llm)) >= 64,
            "transformer knob must mint d_model-scale inner dims"
        );
        // The default knob keeps pre-existing seeded traces
        // bit-identical: transformer_fraction == 0.0 draws no RNG.
        let a = generate(&plain);
        let b = generate(&TraceConfig::new(17).with_requests(120));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(digest_of(&x.payload), digest_of(&y.payload));
        }
    }

    #[test]
    fn deadline_stamping_leaves_traces_bit_identical() {
        let plain = TraceConfig::new(33)
            .with_requests(90)
            .with_accurate_fraction(0.2);
        let deadlines = ClassDeadlines {
            fast: [1_000, 2_000, 3_000],
            accurate: [10_000, 20_000, 30_000],
        };
        let stamped_cfg = plain.clone().with_deadlines(deadlines);
        let a = generate(&plain);
        let b = generate(&stamped_cfg);
        for (x, y) in a.iter().zip(&b) {
            // Same RNG stream: stamping is a pure lookup.
            assert_eq!(x.arrival_ns, y.arrival_ns);
            assert_eq!(x.fidelity, y.fidelity);
            assert_eq!(digest_of(&x.payload), digest_of(&y.payload));
            assert_eq!(x.deadline_cycles, None);
            assert_eq!(
                y.deadline_cycles,
                Some(deadlines.deadline_for(y.fidelity, &y.payload))
            );
        }
        // The per-class lookup routes by fidelity and payload kind.
        assert!(b
            .iter()
            .filter(|r| r.fidelity == TraceFidelity::Accurate)
            .all(|r| r.deadline_cycles.unwrap() >= 10_000));
    }

    /// Order-sensitive digest of everything a trace carries: ids,
    /// arrivals, labels, fidelities, payload bits (layer names and
    /// conv parameters included), template indices and deadlines.
    fn trace_digest(trace: &[TraceRequest]) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17)
        }
        fn bytes(h: u64, s: &str) -> u64 {
            s.bytes()
                .fold(mix(h, s.len() as u64), |h, b| mix(h, u64::from(b)))
        }
        trace.iter().fold(0xCBF2_9CE4_8422_2325, |h, r| {
            let h = mix(mix(h, r.id), r.arrival_ns);
            let h = mix(bytes(h, &r.name), r.fidelity as u64);
            let h = match &r.payload {
                TracePayload::Conv {
                    features,
                    kernels,
                    params,
                } => [0, features.content_hash(), kernels.content_hash()]
                    .into_iter()
                    .fold(mix(h, params.content_hash()), mix),
                TracePayload::Gemm { a, b } => {
                    mix(mix(mix(h, 1), a.content_hash()), b.content_hash())
                }
                TracePayload::Network { input, layers } => layers
                    .iter()
                    .fold(mix(mix(h, 2), input.content_hash()), |h, l| {
                        mix(bytes(h, &l.name), l.content_hash())
                    }),
            };
            mix(
                mix(h, r.template as u64),
                r.deadline_cycles.unwrap_or(u64::MAX),
            )
        })
    }

    #[test]
    fn generated_traffic_matches_pinned_digests() {
        // Every cold-fleet class (narrow and wide convs, small and
        // transformer GEMMs, networks) with deadlines on, and the
        // default mix with template repeats: any change to what the
        // generator draws, or in which order, moves these digests.
        let cold = TraceConfig::new(41)
            .with_requests(64)
            .with_repeat_fraction(0.0)
            .with_accurate_fraction(0.1)
            .with_transformer_fraction(0.5)
            .with_wide_conv_fraction(0.35)
            .with_deadlines(ClassDeadlines {
                fast: [500, 2_500, 12_000],
                accurate: [5_000, 25_000, 120_000],
            });
        let cold_trace = generate(&cold);
        let has = |f: &dyn Fn(&TracePayload) -> bool| cold_trace.iter().any(|r| f(&r.payload));
        let conv_k = |p: &TracePayload| match p {
            TracePayload::Conv { kernels, .. } => Some(kernels.k()),
            _ => None,
        };
        let gemm_n = |p: &TracePayload| match p {
            TracePayload::Gemm { a, .. } => Some(a.cols()),
            _ => None,
        };
        assert!(has(&|p| conv_k(p).is_some_and(|k| k <= 8)), "narrow conv");
        assert!(has(&|p| conv_k(p).is_some_and(|k| k >= 32)), "wide conv");
        assert!(has(&|p| gemm_n(p).is_some_and(|n| n <= 8)), "small GEMM");
        assert!(
            has(&|p| gemm_n(p).is_some_and(|n| n > 8)),
            "transformer GEMM"
        );
        assert!(has(&|p| p.kind() == "network"), "network");

        let mixed_trace = generate(&TraceConfig::new(42).with_requests(96));
        let templates: std::collections::HashSet<usize> =
            mixed_trace.iter().map(|r| r.template).collect();
        assert!(templates.len() < mixed_trace.len(), "default mix repeats");
        assert!(mixed_trace.iter().any(|r| r.payload.kind() == "network"));

        assert_eq!(
            (trace_digest(&cold_trace), trace_digest(&mixed_trace)),
            (0x9E8F_57B4_523F_7AD2, 0xDBF9_BEFE_C295_169F)
        );
    }

    #[test]
    fn class_mix_covers_all_kinds_and_fidelities() {
        let cfg = TraceConfig::new(11)
            .with_requests(150)
            .with_repeat_fraction(0.2)
            .with_accurate_fraction(0.3);
        let trace = generate(&cfg);
        let kinds: Vec<&str> = trace.iter().map(|r| r.payload.kind()).collect();
        assert!(kinds.contains(&"conv"));
        assert!(kinds.contains(&"gemm"));
        assert!(kinds.contains(&"network"));
        assert!(trace.iter().any(|r| r.fidelity == TraceFidelity::Fast));
        assert!(trace.iter().any(|r| r.fidelity == TraceFidelity::Accurate));
    }
}
