//! The PE cell unit (PCU): Tempus Core's replacement for NVDLA's CMAC.
//!
//! The PCU holds `k` tub PE cells of `n` multipliers. Each atomic
//! operation occupies the array for the stripe's window
//! (`ceil(max|w|/2)` cycles) plus a small cache-in/out overhead;
//! partial sums are captured in output registers and "only forwarded to
//! the CACC once all partial sums have been generated across the cells"
//! (§III). A valid/ready skid buffer lets the CACC handoff overlap the
//! next window.
//!
//! # Execution engine
//!
//! The array state is kept **struct-of-arrays**: one flat `k·n` lane
//! array of encoded 2s-unary weight streams (plus their per-lane cycle
//! counts), one `n`-wide broadcast activation buffer and one `k`-wide
//! accumulator array — no per-multiplier objects, no per-cell `Vec`s in
//! the compute loop. Because a lane's contribution over any cycle
//! window is a closed-form fold of its pulse stream
//! ([`tempus_arith::tub::fold_window`]) and its activity split is
//! `active = min(window, stream.cycles())`, the engine can advance a
//! whole compute window in one call ([`Pcu::run_window`]) with zero
//! per-cycle work and zero heap allocation, while remaining
//! bit-identical — in outputs, cycle counts and activity statistics —
//! to ticking every multiplier every cycle ([`Pcu::tick`], which the
//! property tests still exercise cycle by cycle).

use tempus_arith::{tub, ArithError, IntPrecision, TwosUnaryStream};
use tempus_nvdla::cmac::PsumBundle;
use tempus_nvdla::csc::AtomicOp;
use tempus_sim::{ActivityCounter, Fifo};

/// PCU execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PcuState {
    /// No window in flight.
    Idle,
    /// Caching operands into the cells (cache-in).
    CacheIn { remaining: u32 },
    /// Running a multi-cycle window; `remaining` compute cycles left.
    Compute { remaining: u32 },
    /// Forwarding partial sums to the output buffer (cache-out).
    CacheOut { remaining: u32 },
}

/// The cycle-accurate PCU.
#[derive(Debug, Clone)]
pub struct Pcu {
    k: usize,
    n: usize,
    precision: IntPrecision,
    /// Encoded weight stream per lane, cell-major (`k·n` entries).
    streams: Vec<TwosUnaryStream>,
    /// Stream length per lane (`ceil(|w|/2)` cycles), cell-major.
    lane_cycles: Vec<u32>,
    /// Broadcast activation sliver of the op in flight (`n` entries).
    activations: Vec<i32>,
    /// Per-cell accumulators (`k` entries).
    acc: Vec<i64>,
    /// Compute cycles already consumed by the op in flight.
    op_cycle: u32,
    stripe_latency: u32,
    silent_lanes: usize,
    cache_in_cycles: u32,
    cache_out_cycles: u32,
    state: PcuState,
    current: Option<(usize, usize)>,
    output: Fifo<PsumBundle>,
    cycles: u64,
    ops_accepted: u64,
    windows_completed: u64,
    array_activity: ActivityCounter,
    pe_activity: ActivityCounter,
}

impl Pcu {
    /// Creates a PCU of `k` cells × `n` multipliers with the given
    /// cache-in/out overheads (the paper's "few extra cycles for
    /// caching in and out the values", §IV).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `n` is zero.
    #[must_use]
    pub fn new(
        k: usize,
        n: usize,
        precision: IntPrecision,
        cache_in_cycles: u32,
        cache_out_cycles: u32,
    ) -> Self {
        assert!(k > 0 && n > 0, "array dimensions must be nonzero");
        let zero = TwosUnaryStream::encode(0, precision).expect("zero always encodes");
        Pcu {
            k,
            n,
            precision,
            streams: vec![zero; k * n],
            lane_cycles: vec![0; k * n],
            activations: vec![0; n],
            acc: vec![0; k],
            op_cycle: 0,
            stripe_latency: 0,
            silent_lanes: k * n,
            cache_in_cycles,
            cache_out_cycles,
            state: PcuState::Idle,
            current: None,
            output: Fifo::new(2),
            cycles: 0,
            ops_accepted: 0,
            windows_completed: 0,
            array_activity: ActivityCounter::new(),
            pe_activity: ActivityCounter::new(),
        }
    }

    /// Number of PE cells.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Multipliers per cell.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Operating precision of the array.
    #[must_use]
    pub fn precision(&self) -> IntPrecision {
        self.precision
    }

    /// Caches one stripe's weight slivers into the flat lane arrays
    /// and records the array latency scan result (the largest weight
    /// magnitude bounds the whole array, §III).
    ///
    /// # Errors
    ///
    /// Returns shape or range errors from the temporal encoder.
    ///
    /// # Panics
    ///
    /// Panics if a window is in flight (drivers must drain first).
    pub fn load_weights(&mut self, cell_weights: &[Vec<i32>]) -> Result<(), ArithError> {
        assert!(
            matches!(self.state, PcuState::Idle),
            "weight load during an active window"
        );
        if cell_weights.len() != self.k {
            return Err(ArithError::LengthMismatch {
                lhs: cell_weights.len(),
                rhs: self.k,
            });
        }
        for sliver in cell_weights {
            if sliver.len() != self.n {
                return Err(ArithError::LengthMismatch {
                    lhs: sliver.len(),
                    rhs: self.n,
                });
            }
        }
        let mut latency = 0u32;
        let mut silent = 0usize;
        for (lane, &w) in cell_weights.iter().flatten().enumerate() {
            let stream = TwosUnaryStream::encode(w, self.precision)?;
            let cycles = stream.cycles();
            self.streams[lane] = stream;
            self.lane_cycles[lane] = cycles;
            latency = latency.max(cycles);
            silent += usize::from(stream.is_silent());
        }
        self.stripe_latency = latency;
        self.silent_lanes = silent;
        Ok(())
    }

    /// Stripe window length from the last weight scan, in compute
    /// cycles (0 when every weight is zero).
    #[must_use]
    pub fn stripe_latency(&self) -> u32 {
        self.stripe_latency
    }

    /// Total cycles one atomic op occupies the array under the current
    /// stripe: cache-in + window + cache-out.
    #[must_use]
    pub fn cycles_per_op(&self) -> u32 {
        self.cache_in_cycles + self.stripe_latency.max(1) + self.cache_out_cycles
    }

    /// `true` when a new atomic op can begin this cycle.
    #[must_use]
    pub fn ready(&self) -> bool {
        matches!(self.state, PcuState::Idle) && self.output.ready()
    }

    /// Begins an atomic op (drivers must check [`ready`](Pcu::ready)).
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::LengthMismatch`] for a wrong feature
    /// sliver width. Activation range is validated once at the engine
    /// boundary (`check_operands`), not per atomic op; debug builds
    /// keep an assertion.
    ///
    /// # Panics
    ///
    /// Panics if the PCU is not ready.
    pub fn begin(&mut self, op: &AtomicOp) -> Result<(), ArithError> {
        self.begin_op(op.out_x, op.out_y, &op.feature)
    }

    /// [`begin`](Pcu::begin) without the [`AtomicOp`] wrapper — the
    /// allocation-free entry point for the scratch-buffer command
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::LengthMismatch`] for a wrong feature
    /// sliver width.
    ///
    /// # Panics
    ///
    /// Panics if the PCU is not ready.
    pub fn begin_op(
        &mut self,
        out_x: usize,
        out_y: usize,
        feature: &[i32],
    ) -> Result<(), ArithError> {
        assert!(self.ready(), "begin() while busy");
        if feature.len() != self.n {
            return Err(ArithError::LengthMismatch {
                lhs: feature.len(),
                rhs: self.n,
            });
        }
        debug_assert!(
            feature.iter().all(|&a| self.precision.check(a).is_ok()),
            "activation outside {:?} reached the PCU; validate at the engine boundary",
            self.precision
        );
        self.activations.copy_from_slice(feature);
        self.acc.fill(0);
        self.op_cycle = 0;
        self.current = Some((out_x, out_y));
        self.ops_accepted += 1;
        self.state = if self.cache_in_cycles > 0 {
            PcuState::CacheIn {
                remaining: self.cache_in_cycles,
            }
        } else {
            PcuState::Compute {
                remaining: self.stripe_latency.max(1),
            }
        };
        Ok(())
    }

    /// Advances every lane by `q` compute cycles using the closed-form
    /// window fold — bit-identical to `q` single-cycle ticks of every
    /// multiplier, with the activity counters updated arithmetically.
    fn compute_cycles(&mut self, q: u32) {
        let c0 = self.op_cycle;
        let c1 = c0 + q;
        let mut active = 0u64;
        for (cell, acc) in self.acc.iter_mut().enumerate() {
            let base = cell * self.n;
            let mut cell_acc = 0i64;
            for lane in 0..self.n {
                let stream = self.streams[base + lane];
                cell_acc += tub::fold_window(self.activations[lane], stream, c0, q);
                let lc = self.lane_cycles[base + lane];
                active += u64::from(lc.min(c1) - lc.min(c0));
            }
            *acc += cell_acc;
        }
        self.pe_activity
            .record_window(active, u64::from(q) * (self.k * self.n) as u64);
        self.array_activity.record_active_n(u64::from(q));
        self.op_cycle = c1;
    }

    /// Advances one clock cycle; returns a partial-sum bundle when one
    /// leaves the output buffer this cycle.
    pub fn tick(&mut self) -> Option<PsumBundle> {
        self.cycles += 1;
        match self.state {
            PcuState::Idle => {}
            PcuState::CacheIn { remaining } => {
                self.state = if remaining > 1 {
                    PcuState::CacheIn {
                        remaining: remaining - 1,
                    }
                } else {
                    PcuState::Compute {
                        remaining: self.stripe_latency.max(1),
                    }
                };
            }
            PcuState::Compute { remaining } => {
                self.compute_cycles(1);
                self.state = if remaining > 1 {
                    PcuState::Compute {
                        remaining: remaining - 1,
                    }
                } else if self.cache_out_cycles > 0 {
                    PcuState::CacheOut {
                        remaining: self.cache_out_cycles,
                    }
                } else {
                    self.finish_window();
                    PcuState::Idle
                };
            }
            PcuState::CacheOut { remaining } => {
                if remaining > 1 {
                    self.state = PcuState::CacheOut {
                        remaining: remaining - 1,
                    };
                } else {
                    self.finish_window();
                    self.state = PcuState::Idle;
                }
            }
        }
        self.output.pop()
    }

    /// Fast-forwards until [`ready`](Pcu::ready), consuming whole
    /// state-machine phases per step instead of single cycles, and
    /// returns the cycles elapsed. Every partial-sum bundle that would
    /// have popped from the output buffer during those cycles is
    /// handed to `on_bundle` in the same order a per-cycle driver
    /// would have seen it.
    ///
    /// Bit-identical to `while !pcu.ready() { pcu.tick() }` in cycle
    /// count, bundle order, outputs and statistics — the window fold
    /// and the arithmetic activity split are exact — but O(k·n) per
    /// window instead of O(k·n·window), with no per-cycle allocation.
    pub fn run_window(&mut self, on_bundle: &mut impl FnMut(PsumBundle)) -> u64 {
        let mut consumed = 0u64;
        while !self.ready() {
            match self.state {
                PcuState::Idle => {
                    // Not ready with an idle array: the skid buffer is
                    // full; one tick pops one bundle.
                    self.cycles += 1;
                    consumed += 1;
                    if let Some(bundle) = self.output.pop() {
                        on_bundle(bundle);
                    }
                }
                PcuState::CacheIn { remaining } => {
                    self.cycles += u64::from(remaining);
                    consumed += u64::from(remaining);
                    self.pop_buffered(remaining, on_bundle);
                    self.state = PcuState::Compute {
                        remaining: self.stripe_latency.max(1),
                    };
                }
                PcuState::Compute { remaining } => {
                    self.cycles += u64::from(remaining);
                    consumed += u64::from(remaining);
                    // Buffered bundles pop during the first
                    // `remaining - 1` ticks; the window's own bundle
                    // is pushed on the final tick and pops after it.
                    self.pop_buffered(remaining - 1, on_bundle);
                    self.compute_cycles(remaining);
                    if self.cache_out_cycles > 0 {
                        self.state = PcuState::CacheOut {
                            remaining: self.cache_out_cycles,
                        };
                    } else {
                        self.finish_window();
                        self.state = PcuState::Idle;
                        if let Some(bundle) = self.output.pop() {
                            on_bundle(bundle);
                        }
                    }
                }
                PcuState::CacheOut { remaining } => {
                    self.cycles += u64::from(remaining);
                    consumed += u64::from(remaining);
                    self.pop_buffered(remaining - 1, on_bundle);
                    self.finish_window();
                    self.state = PcuState::Idle;
                    if let Some(bundle) = self.output.pop() {
                        on_bundle(bundle);
                    }
                }
            }
        }
        consumed
    }

    /// Pops at most `ticks` already-buffered bundles (one per cycle,
    /// oldest first), mirroring the per-cycle pop a tick loop does.
    fn pop_buffered(&mut self, ticks: u32, on_bundle: &mut impl FnMut(PsumBundle)) {
        for _ in 0..ticks {
            let Some(bundle) = self.output.pop() else {
                break;
            };
            on_bundle(bundle);
        }
    }

    fn finish_window(&mut self) {
        let (out_x, out_y) = self.current.take().expect("window without an op");
        let bundle = PsumBundle {
            out_x,
            out_y,
            sums: self.acc.clone(),
        };
        self.output
            .push(bundle)
            .unwrap_or_else(|_| panic!("output skid buffer overflow"));
        self.windows_completed += 1;
    }

    /// Drains any buffered bundles (end of stream).
    pub fn drain(&mut self) -> Vec<PsumBundle> {
        let mut out = Vec::new();
        while let Some(b) = self.output.pop() {
            out.push(b);
        }
        out
    }

    /// Silent multipliers (zero weights) under the current stripe.
    #[must_use]
    pub fn silent_pes(&self) -> usize {
        self.silent_lanes
    }

    /// Cycles ticked so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Atomic ops accepted so far.
    #[must_use]
    pub fn ops_accepted(&self) -> u64 {
        self.ops_accepted
    }

    /// Windows completed so far.
    #[must_use]
    pub fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// Merged per-multiplier pulse/gating statistics.
    #[must_use]
    pub fn pe_activity(&self) -> ActivityCounter {
        self.pe_activity
    }

    /// Array-level busy counter (cycles the array spent computing).
    #[must_use]
    pub fn array_activity(&self) -> ActivityCounter {
        self.array_activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempus_arith::dot;

    fn op(feature: Vec<i32>) -> AtomicOp {
        AtomicOp {
            out_x: 1,
            out_y: 2,
            feature,
        }
    }

    fn run_window(pcu: &mut Pcu, input: &AtomicOp) -> PsumBundle {
        pcu.begin(input).unwrap();
        let mut out = None;
        for _ in 0..pcu.cycles_per_op() + 4 {
            if let Some(b) = pcu.tick() {
                out = Some(b);
                break;
            }
        }
        out.expect("window must complete")
    }

    #[test]
    fn produces_exact_partial_sums() {
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(2, 4, p, 1, 1);
        let w0 = vec![3, -7, 0, 127];
        let w1 = vec![-128, 1, 64, -2];
        pcu.load_weights(&[w0.clone(), w1.clone()]).unwrap();
        let feat = vec![10, -20, 99, -128];
        let bundle = run_window(&mut pcu, &op(feat.clone()));
        assert_eq!(bundle.sums[0], dot::binary(&feat, &w0, p).unwrap());
        assert_eq!(bundle.sums[1], dot::binary(&feat, &w1, p).unwrap());
        assert_eq!(bundle.out_x, 1);
        assert_eq!(bundle.out_y, 2);
    }

    #[test]
    fn window_length_is_latency_plus_overheads() {
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(1, 2, p, 1, 1);
        pcu.load_weights(&[vec![10, -3]]).unwrap();
        assert_eq!(pcu.stripe_latency(), 5);
        assert_eq!(pcu.cycles_per_op(), 7);
        pcu.begin(&op(vec![1, 1])).unwrap();
        let mut cycles = 0;
        let mut got = None;
        while got.is_none() {
            got = pcu.tick();
            cycles += 1;
            assert!(cycles < 20, "window never completed");
        }
        assert_eq!(cycles, 7);
    }

    #[test]
    fn all_zero_stripe_still_takes_one_compute_cycle() {
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(1, 4, p, 1, 1);
        pcu.load_weights(&[vec![0, 0, 0, 0]]).unwrap();
        assert_eq!(pcu.stripe_latency(), 0);
        assert_eq!(pcu.cycles_per_op(), 3);
        let bundle = run_window(&mut pcu, &op(vec![5, 6, 7, 8]));
        assert_eq!(bundle.sums[0], 0);
        assert_eq!(pcu.silent_pes(), 4);
    }

    #[test]
    fn ready_goes_false_during_window() {
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(1, 1, p, 1, 1);
        pcu.load_weights(&[vec![4]]).unwrap();
        assert!(pcu.ready());
        pcu.begin(&op(vec![2])).unwrap();
        assert!(!pcu.ready());
        while pcu.tick().is_none() {}
        assert!(pcu.ready());
    }

    #[test]
    fn worst_case_int8_window_is_64_cycles() {
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(1, 1, p, 0, 0);
        pcu.load_weights(&[vec![-128]]).unwrap();
        assert_eq!(pcu.stripe_latency(), p.worst_case_tub_cycles());
        let bundle = run_window(&mut pcu, &op(vec![-128]));
        assert_eq!(bundle.sums[0], 16384);
    }

    #[test]
    fn activity_tracks_pulses_and_gating() {
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(1, 2, p, 0, 0);
        // Weights 6 (3 pulses) and 0 (silent): window = 3 cycles,
        // active PE pulses 3, silent PE gated 3.
        pcu.load_weights(&[vec![6, 0]]).unwrap();
        run_window(&mut pcu, &op(vec![1, 1]));
        let act = pcu.pe_activity();
        assert_eq!(act.active_cycles(), 3);
        assert_eq!(act.gated_cycles(), 3);
    }

    #[test]
    #[should_panic(expected = "begin() while busy")]
    fn begin_while_busy_panics() {
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(1, 1, p, 1, 1);
        pcu.load_weights(&[vec![3]]).unwrap();
        pcu.begin(&op(vec![1])).unwrap();
        pcu.begin(&op(vec![1])).unwrap();
    }

    /// The structural claim of the window-batched engine: for any
    /// stripe/feature sequence, `run_window` and a per-cycle tick loop
    /// are indistinguishable — same cycles, same bundles in the same
    /// order, same activity counters.
    #[test]
    fn run_window_is_bit_identical_to_tick_loop() {
        let p = IntPrecision::Int8;
        let stripes: [Vec<Vec<i32>>; 3] = [
            vec![vec![3, -7, 0], vec![127, -128, 1]],
            vec![vec![0, 0, 0], vec![0, 0, 0]],
            vec![vec![1, 2, -3], vec![64, -65, 9]],
        ];
        let features: [Vec<i32>; 3] = [vec![10, -20, 99], vec![-128, 127, 0], vec![1, -1, 7]];
        for (cache_in, cache_out) in [(1u32, 1u32), (0, 0), (2, 0), (0, 3)] {
            let mut ticked = Pcu::new(2, 3, p, cache_in, cache_out);
            let mut batched = ticked.clone();
            let mut tick_bundles = Vec::new();
            let mut batch_bundles = Vec::new();
            for stripe in &stripes {
                // Drain in-flight work before the weight swap, both ways.
                let mut tick_cycles = 0u64;
                while !ticked.ready() {
                    if let Some(b) = ticked.tick() {
                        tick_bundles.push(b);
                    }
                    tick_cycles += 1;
                }
                let batch_cycles = batched.run_window(&mut |b| batch_bundles.push(b));
                assert_eq!(tick_cycles, batch_cycles);
                tick_bundles.extend(ticked.drain());
                batch_bundles.extend(batched.drain());
                ticked.load_weights(stripe).unwrap();
                batched.load_weights(stripe).unwrap();
                for feature in &features {
                    let mut tick_cycles = 0u64;
                    while !ticked.ready() {
                        if let Some(b) = ticked.tick() {
                            tick_bundles.push(b);
                        }
                        tick_cycles += 1;
                    }
                    let batch_cycles = batched.run_window(&mut |b| batch_bundles.push(b));
                    assert_eq!(tick_cycles, batch_cycles);
                    ticked.begin_op(4, 5, feature).unwrap();
                    batched.begin_op(4, 5, feature).unwrap();
                }
            }
            let mut tick_cycles = 0u64;
            while !ticked.ready() {
                if let Some(b) = ticked.tick() {
                    tick_bundles.push(b);
                }
                tick_cycles += 1;
            }
            assert_eq!(
                tick_cycles,
                batched.run_window(&mut |b| batch_bundles.push(b))
            );
            tick_bundles.extend(ticked.drain());
            batch_bundles.extend(batched.drain());

            assert_eq!(tick_bundles, batch_bundles);
            assert_eq!(ticked.cycles(), batched.cycles());
            assert_eq!(ticked.pe_activity(), batched.pe_activity());
            assert_eq!(ticked.array_activity(), batched.array_activity());
            assert_eq!(ticked.windows_completed(), batched.windows_completed());
        }
    }

    #[test]
    fn mixed_tick_and_run_window_stay_consistent() {
        // Entering run_window mid-window (after a few manual ticks)
        // must still finish the op exactly.
        let p = IntPrecision::Int8;
        let mut pcu = Pcu::new(1, 2, p, 1, 1);
        pcu.load_weights(&[vec![9, -6]]).unwrap();
        pcu.begin(&op(vec![3, 4])).unwrap();
        assert!(pcu.tick().is_none()); // cache-in
        assert!(pcu.tick().is_none()); // first compute cycle
        let mut bundles = Vec::new();
        let consumed = pcu.run_window(&mut |b| bundles.push(b));
        assert_eq!(consumed, u64::from(pcu.cycles_per_op()) - 2);
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].sums[0], 9 * 3 - 6 * 4);
        let act = pcu.pe_activity();
        assert_eq!(act.active_cycles(), 5 + 3); // ceil(9/2) + ceil(6/2)
        assert_eq!(act.gated_cycles(), 2); // window 5, lane 2 drained after 3
    }
}
