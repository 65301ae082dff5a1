//! The two serving workloads: traffic shape, service configuration
//! and the correctness references every served answer is checked
//! against.

use std::thread;

use tempus_core::TempusConfig;
use tempus_models::traffic::{generate, TraceConfig, TracePayload, TraceRequest};
use tempus_runtime::{FunctionalBackend, InferenceBackend, Job};
use tempus_serve::{Request, ServeConfig, SloPolicy};

/// Conv, GEMM and network templates in the `edge_hot` pool, all
/// loaded into the cache in set-up.
const EDGE_POOL: [usize; 3] = [64, 64, 32];
/// GEMM grid of every modelled core (the runtime default).
pub const GEMM_GRID: (usize, usize) = (16, 16);
/// Ingestion-queue depth: deep enough that a scheduler hiccup on a
/// small host does not turn into refusals at the offered rates.
const QUEUE_CAPACITY: usize = 1024;
/// Request classes of `cold_fleet` (see [`Workload::cold_mix`]).
pub const COLD_CLASSES: usize = 5;
/// Requests over which `cold_fleet`'s class mix is exact.
const COLD_BLOCK: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdgeHot,
    ColdFleet,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::EdgeHot, Workload::ColdFleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeHot => "edge_hot",
            Workload::ColdFleet => "cold_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mean gap between arrival instants, ns. `edge_hot` instants open
    /// a burst with probability 0.1 (2 to 8 requests, as in
    /// `traffic::generate`), so it offers 1.4 requests per mean gap;
    /// `cold_fleet` requests arrive one at a time (Poisson): a burst of
    /// unique heavy requests would make the tail a count of how many
    /// of them one seed happens to bunch together.
    pub fn mean_gap_ns(self) -> u64 {
        match self {
            Workload::EdgeHot => 100_000,
            Workload::ColdFleet => 2_500_000,
        }
    }

    /// Offered open-loop rate, requests per second.
    pub fn offered_rps(self) -> f64 {
        let per_instant = match self {
            Workload::EdgeHot => 1.4,
            Workload::ColdFleet => 1.0,
        };
        per_instant * 1e9 / self.mean_gap_ns() as f64
    }

    /// PE arrays per modelled device.
    pub fn arrays(self) -> usize {
        match self {
            Workload::EdgeHot => 1,
            Workload::ColdFleet => 8,
        }
    }

    /// Whether served `sim_cycles` must equal the functional
    /// closed-form cycles: true wherever every job runs at the full
    /// device width (no co-scheduled narrowing).
    pub fn checks_cycles(self) -> bool {
        self == Workload::EdgeHot
    }

    pub fn serve_config(self, workers: usize) -> ServeConfig {
        let base = ServeConfig::new()
            .with_workers(workers)
            .with_queue_capacity(QUEUE_CAPACITY)
            .with_arrays(self.arrays());
        match self {
            Workload::EdgeHot => base,
            Workload::ColdFleet => base.with_devices(2).with_co_scheduling().with_backfill(),
        }
    }

    /// The generator config of this workload's payloads (arrival times
    /// come from the benchmark's own schedules).
    pub fn trace_config(self, seed: u64, requests: usize) -> TraceConfig {
        let base = TraceConfig::new(seed)
            .with_requests(requests)
            .with_repeat_fraction(0.0)
            .with_accurate_fraction(0.0);
        match self {
            Workload::EdgeHot => base,
            Workload::ColdFleet => base
                .with_transformer_fraction(0.5)
                .with_wide_conv_fraction(0.35)
                .with_deadlines(SloPolicy::edge_defaults().device_deadlines()),
        }
    }

    /// Requests of each `cold_fleet` class in every block of
    /// [`COLD_BLOCK`]: narrow convs, wide convs, small GEMMs,
    /// transformer GEMMs and networks, in the proportions of
    /// [`Workload::trace_config`].
    pub fn cold_mix(self) -> [usize; COLD_CLASSES] {
        let c = self.trace_config(0, 0);
        let total = c.conv_weight + c.gemm_weight + c.network_weight;
        let share = |w: f64| (COLD_BLOCK as f64 * w / total).round() as usize;
        let (conv, gemm) = (share(c.conv_weight), share(c.gemm_weight));
        let wide = (conv as f64 * c.wide_conv_fraction).round() as usize;
        let transformer = (gemm as f64 * c.transformer_fraction).round() as usize;
        [
            conv - wide,
            wide,
            gemm - transformer,
            transformer,
            share(c.network_weight),
        ]
    }

    /// The generator config that mints only `cold_fleet` class
    /// `class` (an index into [`Workload::cold_mix`]).
    fn class_config(self, class: usize, seed: u64, requests: usize) -> TraceConfig {
        let one = |on: bool| f64::from(u8::from(on));
        TraceConfig {
            conv_weight: one(class <= 1),
            gemm_weight: one(class == 2 || class == 3),
            network_weight: one(class == 4),
            wide_conv_fraction: one(class == 1),
            transformer_fraction: one(class == 3),
            ..self.trace_config(seed, requests)
        }
    }
}

/// One timed request: when it is due and which template it sends.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_ns: u64,
    pub template: usize,
}

/// Everything set-up produces: the templates, the arrival schedule,
/// and how long generation took.
pub struct Traffic {
    pub templates: Vec<Request>,
    pub schedule: Vec<Arrival>,
    pub generate_s: f64,
}

impl Traffic {
    /// Appends `later`, due one mean gap after this traffic ends.
    pub fn append(&mut self, later: Traffic, mean_gap_ns: u64) {
        let offset = self.schedule.last().map_or(0, |a| a.due_ns + mean_gap_ns);
        let base = self.templates.len();
        self.schedule
            .extend(later.schedule.into_iter().map(|a| Arrival {
                due_ns: a.due_ns + offset,
                template: a.template + base,
            }));
        self.templates.extend(later.templates);
        self.generate_s += later.generate_s;
    }
}

/// SplitMix64: the benchmark's own seeded stream for the `edge_hot`
/// arrival schedule (the program only ever sees the requests).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Bursty arrival instants with the generator's shape: exponential
/// gaps, and with probability 0.1 an instant carries 2 to 8 requests.
fn bursty_schedule(
    rng: &mut SplitMix,
    requests: usize,
    mean_gap_ns: u64,
    pool: usize,
) -> Vec<Arrival> {
    let mut schedule = Vec::with_capacity(requests);
    let mut clock = 0u64;
    let mut burst_left = 0usize;
    while schedule.len() < requests {
        if burst_left > 0 {
            burst_left -= 1;
        } else {
            clock += (-(1.0 - rng.unit()).ln() * mean_gap_ns as f64) as u64;
            if rng.unit() < 0.1 {
                burst_left = 1 + rng.below(7);
            }
        }
        schedule.push(Arrival {
            due_ns: clock,
            template: rng.below(pool),
        });
    }
    schedule
}

/// One arrival per entry of `order`, at exponential gaps (Poisson).
fn poisson_schedule(
    rng: &mut SplitMix,
    order: impl IntoIterator<Item = usize>,
    mean_gap_ns: u64,
) -> Vec<Arrival> {
    let mut clock = 0u64;
    order
        .into_iter()
        .map(|template| {
            clock += (-(1.0 - rng.unit()).ln() * mean_gap_ns as f64) as u64;
            Arrival {
                due_ns: clock,
                template,
            }
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The open loop's arrivals in repetition `rep`: a fresh draw of the
/// workload's arrival process over the same `templates`, so each
/// repetition meets its own bunching of heavy requests. `edge_hot`
/// draws `len` bursty arrivals from its pool (repetition 0 is the
/// schedule set-up made); `cold_fleet` sends every template once, in a
/// seeded order.
pub fn open_schedule(
    workload: Workload,
    seed: u64,
    rep: usize,
    templates: usize,
    len: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ (rep as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    match workload {
        Workload::EdgeHot => bursty_schedule(&mut rng, len, workload.mean_gap_ns(), templates),
        Workload::ColdFleet => {
            let mut order: Vec<usize> = (0..templates).collect();
            shuffle(&mut order, &mut rng);
            poisson_schedule(&mut rng, order, workload.mean_gap_ns())
        }
    }
}

/// Lowers a generated request into a service request, moving the
/// payload instead of cloning it.
fn into_request(t: TraceRequest) -> Request {
    let job = match t.payload {
        TracePayload::Conv {
            features,
            kernels,
            params,
        } => Job::conv(t.id, t.name, features, kernels, params),
        TracePayload::Gemm { a, b } => Job::gemm(t.id, t.name, a, b),
        TracePayload::Network { input, layers } => Job::network(t.id, t.name, input, layers),
    };
    Request {
        job,
        fidelity: t.fidelity.into(),
        deadline_cycles: t.deadline_cycles,
    }
}

/// Generates a workload's traffic from its seed. `requests` is the
/// timed request count.
pub fn build_traffic(workload: Workload, seed: u64, requests: usize) -> Traffic {
    let started = std::time::Instant::now();
    let (templates, schedule) = match workload {
        Workload::EdgeHot => {
            // The default 40/40/20 conv/GEMM/network mix, drawn per
            // kind so every seed's pool has the same composition.
            let mut pool = Vec::with_capacity(EDGE_POOL.iter().sum());
            for (kind, &count) in EDGE_POOL.iter().enumerate() {
                let mut config =
                    workload.trace_config(SplitMix::new(seed ^ kind as u64).next_u64(), count);
                config.conv_weight = f64::from(u8::from(kind == 0));
                config.gemm_weight = f64::from(u8::from(kind == 1));
                config.network_weight = f64::from(u8::from(kind == 2));
                pool.extend(generate(&config).into_iter().map(into_request));
            }
            for (i, request) in pool.iter_mut().enumerate() {
                request.job.id = i as u64;
            }
            let mut rng = SplitMix::new(seed);
            let schedule = bursty_schedule(&mut rng, requests, workload.mean_gap_ns(), pool.len());
            (pool, schedule)
        }
        Workload::ColdFleet => {
            // Every block of requests holds each class in a fixed
            // count, spread evenly so that a partial block keeps the
            // proportions too: every seed offers the same mix, and the
            // seed decides the order, the payloads and the arrival gaps.
            let mut rng = SplitMix::new(seed);
            let mix = workload.cold_mix();
            let mut slots: Vec<(f64, usize)> = (0..COLD_CLASSES)
                .flat_map(|c| (0..mix[c]).map(move |k| ((k as f64 + 0.5) / mix[c] as f64, c)))
                .collect();
            slots.sort_by(|a, b| a.0.total_cmp(&b.0));
            let block: Vec<usize> = slots.into_iter().map(|(_, c)| c).collect();
            let mut classes: Vec<usize> = (0..requests).map(|i| block[i % block.len()]).collect();
            shuffle(&mut classes, &mut rng);
            let mut pools: Vec<_> = (0..COLD_CLASSES)
                .map(|c| {
                    let count = classes.iter().filter(|&&k| k == c).count();
                    let class_seed = SplitMix::new(seed ^ (c as u64 + 1)).next_u64();
                    generate(&workload.class_config(c, class_seed, count))
                        .into_iter()
                        .map(into_request)
                })
                .collect();
            let mut templates = Vec::with_capacity(requests);
            for (i, &class) in classes.iter().enumerate() {
                let mut request = pools[class]
                    .next()
                    .expect("a template per slot of its class");
                request.job.id = i as u64;
                templates.push(request);
            }
            let schedule = poisson_schedule(&mut rng, 0..requests, workload.mean_gap_ns());
            (templates, schedule)
        }
    };
    Traffic {
        templates,
        schedule,
        generate_s: started.elapsed().as_secs_f64(),
    }
}

/// The answer a template must produce, from the functional backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    pub sim_cycles: u64,
}

/// The functional backend every reference and replay uses.
pub fn functional_backend(arrays: usize) -> FunctionalBackend {
    FunctionalBackend::new(TempusConfig::paper_16x16(), GEMM_GRID).with_arrays(arrays)
}

/// Computes each template's reference answer at `arrays` arrays, split
/// over `threads` threads.
pub fn references(
    templates: &[Request],
    arrays: usize,
    threads: usize,
) -> Result<Vec<Reference>, String> {
    let chunk = templates.len().div_ceil(threads.max(1)).max(1);
    thread::scope(|scope| {
        let handles: Vec<_> = templates
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut backend = functional_backend(arrays);
                    part.iter()
                        .map(|r| {
                            backend
                                .execute(&r.job)
                                .map(|e| Reference {
                                    digest: e.output.digest(),
                                    sim_cycles: e.sim_cycles,
                                })
                                .map_err(|e| format!("reference for {}: {e}", r.job.name))
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut all = Vec::with_capacity(templates.len());
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "reference thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}
