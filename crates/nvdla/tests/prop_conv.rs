//! Property-based tests for the NVDLA substrate: golden references
//! must agree with each other, the cycle-accurate CMAC must agree with
//! both, and sequencer invariants must hold across random shapes.

use proptest::prelude::*;
use tempus_arith::IntPrecision;
use tempus_nvdla::config::NvdlaConfig;
use tempus_nvdla::conv::{direct_conv, im2col_conv, ConvParams, ConvRows};
use tempus_nvdla::csc::{CscCommand, CscSequencer};
use tempus_nvdla::cube::{DataCube, KernelSet};
use tempus_nvdla::pipeline::{ConvCore, NvdlaConvCore};

prop_compose! {
    fn conv_case()(
        w in 3usize..8,
        h in 3usize..8,
        c in 1usize..10,
        k in 1usize..10,
        ksize in prop_oneof![Just(1usize), Just(2usize), Just(3usize)],
        stride in 1usize..3,
        pad in 0usize..2,
        seed in any::<u32>(),
    ) -> (DataCube, KernelSet, ConvParams) {
        let features = DataCube::from_fn(w, h, c, |x, y, ch| {
            let v = x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ ch.wrapping_mul(7) ^ seed as usize;
            (v % 255) as i32 - 127
        });
        let kernels = KernelSet::from_fn(k, ksize, ksize, c, |ki, r, s, ch| {
            let v = ki.wrapping_mul(13) ^ r.wrapping_mul(5) ^ s.wrapping_mul(3)
                ^ ch.wrapping_mul(11) ^ seed as usize;
            (v % 255) as i32 - 127
        });
        (features, kernels, ConvParams::strided(stride, pad))
    }
}

prop_compose! {
    /// INT16 operands at the extremes, with stride, dilation and
    /// padding, down to inputs narrower than the kernel (whose taps
    /// wrap across input rows): features span the whole range, and
    /// each kernel holds one most-negative weight among small ones. The
    /// bound `r·s·c · 2^15 · 2^15` then exceeds `i32`, forcing the `i64`
    /// lane, while every true output stays inside `i32`
    /// (`2^30 + (r·s·c − 1) · 2^15 · 8 < 2^31`).
    fn int16_extreme_case()(
        w in 1usize..9,
        h in 1usize..9,
        c in 1usize..10,
        k in 1usize..6,
        ksize in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        dilation in 1usize..3,
        seed in any::<u32>(),
    ) -> (DataCube, KernelSet, ConvParams) {
        let p = IntPrecision::Int16;
        let mix = |v: usize| v.wrapping_mul(0x9e37_79b9) ^ (v >> 7) ^ seed as usize;
        let mut features = DataCube::from_fn(w, h, c, |x, y, ch| {
            (mix(x * 131 + y * 17 + ch * 7919) % 65536) as i32 - 32768
        });
        features.set(0, 0, 0, p.min_value());
        let mut kernels = KernelSet::from_fn(k, ksize, ksize, c, |ki, r, s, ch| {
            (mix(ki * 31 + r * 5 + s * 3 + ch * 11) % 16) as i32 - 8
        });
        for ki in 0..k {
            let at = mix(ki) % (ksize * ksize * c);
            kernels.set(ki, at / (ksize * c), at / c % ksize, at % c, p.min_value());
        }
        let params = ConvParams {
            stride_x: stride,
            stride_y: stride,
            pad_x: pad,
            pad_y: pad,
            dilation_x: dilation,
            dilation_y: dilation,
        };
        (features, kernels, params)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn direct_equals_im2col((f, k, params) in conv_case()) {
        if params.output_dims(f.w(), f.h(), k.r(), k.s()).is_err() {
            return Ok(());
        }
        prop_assert_eq!(
            direct_conv(&f, &k, &params).unwrap(),
            im2col_conv(&f, &k, &params).unwrap()
        );
    }

    #[test]
    fn direct_equals_im2col_at_int16_extremes((f, k, params) in int16_extreme_case()) {
        let Ok(rows) = ConvRows::new(&f, &k, &params) else {
            return Ok(());
        };
        let (out_w, out_h) = rows.out_dims();
        let direct = direct_conv(&f, &k, &params).unwrap();
        prop_assert_eq!(&direct, &im2col_conv(&f, &k, &params).unwrap());
        // Row-at-a-time evaluation reassembles the same cube.
        let mut row = vec![0i32; out_w * k.k()];
        for oy in 0..out_h {
            rows.row(oy, &mut row);
            for ox in 0..out_w {
                for kk in 0..k.k() {
                    prop_assert_eq!(row[ox * k.k() + kk], direct.get(ox, oy, kk));
                }
            }
        }
    }

    #[test]
    fn cmac_core_equals_golden((f, k, params) in conv_case()) {
        if params.output_dims(f.w(), f.h(), k.r(), k.s()).is_err() {
            return Ok(());
        }
        let golden = direct_conv(&f, &k, &params).unwrap();
        let mut core = NvdlaConvCore::new(NvdlaConfig::nv_small());
        let run = core.convolve(&f, &k, &params).unwrap();
        prop_assert_eq!(run.output, golden);
    }

    #[test]
    fn sequencer_counts_are_exact((f, k, params) in conv_case()) {
        let config = NvdlaConfig::nv_small();
        let Ok(seq) = CscSequencer::new(&f, &k, &params, &config) else {
            return Ok(());
        };
        let stripes = seq.stripe_count();
        let atomics = seq.atomic_op_count();
        let (mut loads, mut ops) = (0u64, 0u64);
        for cmd in seq {
            match cmd {
                CscCommand::LoadWeights(l) => {
                    loads += 1;
                    prop_assert_eq!(l.cell_weights.len(), config.atomic_k);
                    for sliver in &l.cell_weights {
                        prop_assert_eq!(sliver.len(), config.atomic_c);
                    }
                }
                CscCommand::Atomic(op) => {
                    ops += 1;
                    prop_assert_eq!(op.feature.len(), config.atomic_c);
                }
            }
        }
        prop_assert_eq!(loads, stripes);
        prop_assert_eq!(ops, atomics);
    }

    #[test]
    fn cycle_count_formula_holds((f, k, params) in conv_case()) {
        // Binary CC cycles = stripes (swap) + atomic ops + drain.
        if params.output_dims(f.w(), f.h(), k.r(), k.s()).is_err() {
            return Ok(());
        }
        let config = NvdlaConfig::nv_small();
        let seq = CscSequencer::new(&f, &k, &params, &config).unwrap();
        let expected = seq.stripe_count() + seq.atomic_op_count()
            + u64::from(config.cmac_pipeline_depth);
        let mut core = NvdlaConvCore::new(config);
        let run = core.convolve(&f, &k, &params).unwrap();
        prop_assert_eq!(run.stats.cycles, expected);
    }

    #[test]
    fn stats_are_internally_consistent((f, k, params) in conv_case()) {
        if params.output_dims(f.w(), f.h(), k.r(), k.s()).is_err() {
            return Ok(());
        }
        let mut core = NvdlaConvCore::new(NvdlaConfig::nv_small());
        let run = core.convolve(&f, &k, &params).unwrap();
        prop_assert!(run.stats.utilization >= 0.0 && run.stats.utilization <= 1.0);
        prop_assert_eq!(run.stats.cbuf_reads, run.stats.atomic_ops);
        prop_assert!(run.stats.macs <= run.stats.atomic_ops
            * (NvdlaConfig::nv_small().lanes() as u64));
    }

    #[test]
    fn output_dims_never_panic(
        w in 1usize..64, h in 1usize..64,
        r in 1usize..8, s in 1usize..8,
        stride in 1usize..4, pad in 0usize..4,
        dil in 1usize..3,
    ) {
        let params = ConvParams {
            stride_x: stride,
            stride_y: stride,
            pad_x: pad,
            pad_y: pad,
            dilation_x: dil,
            dilation_y: dil,
        };
        // Either a consistent Ok or a clean error — never a panic.
        if let Ok((ow, oh)) = params.output_dims(w, h, r, s) {
            prop_assert!(ow >= 1 && oh >= 1);
        }
    }
}

#[test]
fn int16_substrate_generalises() {
    // The substrate supports INT16 even though the paper stops at INT2.
    let p = IntPrecision::Int16;
    // Magnitudes bounded so 8-term dot products stay inside the i32
    // output cube (the substrate's accumulators are 34-48 bits, but
    // read-out is i32).
    let f = DataCube::from_fn(4, 4, 8, |x, y, c| {
        ((x * 1000 + y * 300 + c * 77) % 6000) as i32 - 3000
    });
    let k = KernelSet::from_fn(4, 1, 1, 8, |ki, _, _, c| {
        ((ki * 900 + c * 55) % 6000) as i32 - 3000
    });
    let params = ConvParams::valid();
    let golden = direct_conv(&f, &k, &params).unwrap();
    let mut core = NvdlaConvCore::new(NvdlaConfig::nv_small().with_precision(p));
    let run = core.convolve(&f, &k, &params).unwrap();
    assert_eq!(run.output, golden);
}

#[test]
#[should_panic(expected = "accumulator exceeds i32 output")]
fn direct_conv_panics_when_an_output_exceeds_i32() {
    // Two INT16 extreme products: 2 · 2^30 = 2^31 > i32::MAX.
    let f = DataCube::from_fn(2, 2, 2, |_, _, _| -32768);
    let k = KernelSet::from_fn(1, 1, 1, 2, |_, _, _, _| -32768);
    let _ = direct_conv(&f, &k, &ConvParams::valid());
}
