//! Fused layer execution: conv → SDP → pool streamed per output row,
//! with no intermediate [`DataCube`] round-trips.
//!
//! The materialized network path
//! ([`crate::network::run_network`]) builds a full conv output cube,
//! then a full SDP output cube, then the pooled cube. This module
//! runs the same three stages as a row pipeline: each conv output row
//! lands in a bounded ring buffer, SDP requantizes it in place, and
//! pooling consumes rows out of the ring as soon as its window is
//! complete — so the per-layer scratch is `out_w × k × pool_window`
//! elements (one row when unpooled), independent of the layer's
//! height.
//!
//! Bit-identity to the materialized stages is the contract: the
//! per-element arithmetic of [`crate::sdp::apply`] and
//! [`crate::pdp::apply`] is replicated exactly (arithmetic shift,
//! ReLU/saturation counters, max-ignores-padding,
//! count-include-pad average with ties-away rounding), and the tests
//! pin outputs and [`SdpStats`] against the unfused pipeline.

use crate::conv::ConvRows;
use crate::cube::DataCube;
use crate::network::NetworkLayer;
use crate::pdp::{PoolKind, PoolParams};
use crate::sdp::{SdpConfig, SdpStats};
use crate::NvdlaError;

/// Peak streaming scratch of one fused layer in elements: the conv
/// row ring the pipeline retains (`pool_window` rows when pooled, one
/// row otherwise). This is the closed form the observed high-water
/// mark equals exactly, and the figure scratch-budget admission
/// prices.
#[must_use]
pub fn fused_layer_scratch(conv_out_w: usize, k: usize, pool: Option<&PoolParams>) -> u64 {
    (conv_out_w * k) as u64 * pool.map_or(1, |p| p.window) as u64
}

/// Result of one fused layer run.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedLayerRun {
    /// The layer output — bit-identical to conv → SDP → pool through
    /// the materialized cubes.
    pub output: DataCube,
    /// SDP statistics — bit-identical to [`crate::sdp::apply`].
    pub sdp: SdpStats,
    /// Conv rows streamed through the ring.
    pub rows_streamed: u64,
    /// Ring high-water mark in elements; equals
    /// [`fused_layer_scratch`].
    pub peak_scratch_elems: u64,
}

/// One element of [`crate::sdp::apply`], counters included.
fn sdp_element(v: i32, c: usize, config: &SdpConfig, stats: &mut SdpStats) -> i32 {
    stats.elements += 1;
    let mut val = (i64::from(v) + i64::from(config.bias[c])) * i64::from(config.multiplier[c]);
    val >>= config.shift;
    if config.relu && val < 0 {
        val = 0;
        stats.rectified += 1;
    }
    let sat = config.out_precision.saturate(val);
    if i64::from(sat) != val {
        stats.saturated += 1;
    }
    sat
}

/// The row pipeline shared by the fully fused path (conv rows
/// computed on demand) and the post-conv path (conv rows copied from
/// a cycle-accurate core's output): `conv_row(y, dst)` fills one
/// channel-minor conv output row, SDP requantizes it in place inside
/// the ring, and pooling drains completed windows.
fn stream_post_conv(
    mut conv_row: impl FnMut(usize, &mut [i32]),
    conv_w: usize,
    conv_h: usize,
    k: usize,
    sdp: &SdpConfig,
    pool: Option<&PoolParams>,
) -> Result<FusedLayerRun, NvdlaError> {
    if sdp.bias.len() != k || sdp.multiplier.len() != k {
        return Err(NvdlaError::InvalidShape(format!(
            "sdp channel parameters ({} bias, {} mult) do not match cube channels ({k})",
            sdp.bias.len(),
            sdp.multiplier.len(),
        )));
    }
    let row_elems = conv_w * k;
    let mut stats = SdpStats::default();

    let Some(params) = pool else {
        // Unpooled: a single reused row of scratch, flushed straight
        // into the output storage.
        let mut row = vec![0i32; row_elems];
        let mut data = Vec::with_capacity(row_elems * conv_h);
        for y in 0..conv_h {
            conv_row(y, &mut row);
            for (i, v) in row.iter_mut().enumerate() {
                *v = sdp_element(*v, i % k, sdp, &mut stats);
            }
            data.extend_from_slice(&row);
        }
        stats.cycles = stats.elements;
        return Ok(FusedLayerRun {
            output: DataCube::from_vec(conv_w, conv_h, k, data)?,
            sdp: stats,
            rows_streamed: conv_h as u64,
            peak_scratch_elems: fused_layer_scratch(conv_w, k, None),
        });
    };

    // Pooled: validate exactly as pdp::apply does, then keep a
    // `window`-row ring of requantized conv rows and emit each pool
    // row the moment its last in-bounds input row is resident.
    if params.window == 0 || params.stride == 0 {
        return Err(NvdlaError::InvalidShape(
            "pool window and stride must be >= 1".into(),
        ));
    }
    let padded_w = conv_w + 2 * params.pad;
    let padded_h = conv_h + 2 * params.pad;
    if params.window > padded_w || params.window > padded_h {
        return Err(NvdlaError::EmptyOutput);
    }
    let out_w = (padded_w - params.window) / params.stride + 1;
    let out_h = (padded_h - params.window) / params.stride + 1;

    let mut ring = vec![0i32; row_elems * params.window];
    let mut data = Vec::with_capacity(out_w * out_h * k);
    // The conv row on which pool row `oy` becomes emittable: its last
    // in-bounds input row (clamped so fully padded windows emit on
    // row 0). Nondecreasing in `oy`, so a single cursor suffices.
    let emit_row = |oy: usize| -> usize {
        let y0 = (oy * params.stride) as isize - params.pad as isize;
        let last = y0 + params.window as isize - 1;
        last.clamp(0, conv_h as isize - 1) as usize
    };
    let mut next_oy = 0usize;
    for y in 0..conv_h {
        let slot = &mut ring[(y % params.window) * row_elems..][..row_elems];
        conv_row(y, slot);
        for (i, v) in slot.iter_mut().enumerate() {
            *v = sdp_element(*v, i % k, sdp, &mut stats);
        }
        while next_oy < out_h && emit_row(next_oy) == y {
            let y0 = (next_oy * params.stride) as isize - params.pad as isize;
            for ox in 0..out_w {
                let x0 = (ox * params.stride) as isize - params.pad as isize;
                for c in 0..k {
                    let value = match params.kind {
                        PoolKind::Max => {
                            let mut best: Option<i32> = None;
                            for dy in 0..params.window {
                                for dx in 0..params.window {
                                    let (x, yy) = (x0 + dx as isize, y0 + dy as isize);
                                    if x >= 0
                                        && yy >= 0
                                        && (x as usize) < conv_w
                                        && (yy as usize) < conv_h
                                    {
                                        let row =
                                            &ring[(yy as usize % params.window) * row_elems..];
                                        let v = row[x as usize * k + c];
                                        best = Some(best.map_or(v, |b: i32| b.max(v)));
                                    }
                                }
                            }
                            best.unwrap_or(0)
                        }
                        PoolKind::Average => {
                            let mut sum = 0i64;
                            for dy in 0..params.window {
                                for dx in 0..params.window {
                                    let (x, yy) = (x0 + dx as isize, y0 + dy as isize);
                                    if x >= 0
                                        && yy >= 0
                                        && (x as usize) < conv_w
                                        && (yy as usize) < conv_h
                                    {
                                        let row =
                                            &ring[(yy as usize % params.window) * row_elems..];
                                        sum += i64::from(row[x as usize * k + c]);
                                    }
                                }
                            }
                            let div = (params.window * params.window) as i64;
                            // Round to nearest, ties away from zero —
                            // identical to pdp::apply.
                            let half = div / 2;
                            (if sum >= 0 {
                                (sum + half) / div
                            } else {
                                (sum - half) / div
                            }) as i32
                        }
                    };
                    data.push(value);
                }
            }
            next_oy += 1;
        }
    }
    stats.cycles = stats.elements;
    Ok(FusedLayerRun {
        output: DataCube::from_vec(out_w, out_h, k, data)?,
        sdp: stats,
        rows_streamed: conv_h as u64,
        peak_scratch_elems: fused_layer_scratch(conv_w, k, Some(params)),
    })
}

/// Fully fused functional layer: conv rows computed on demand via
/// [`ConvRows::row`] — the conv output cube never exists — then SDP
/// and pooling streamed out of the bounded ring. Bit-identical to
/// `direct_conv` → `sdp::apply` → `pdp::apply`.
///
/// # Errors
///
/// The same shape errors, in the same order, as the materialized
/// pipeline.
pub fn run_layer_fused(
    input: &DataCube,
    layer: &NetworkLayer,
) -> Result<FusedLayerRun, NvdlaError> {
    let rows = ConvRows::new(input, &layer.kernels, &layer.conv)?;
    let (out_w, out_h) = rows.out_dims();
    stream_post_conv(
        |y, dst| rows.row(y, dst),
        out_w,
        out_h,
        layer.kernels.k(),
        &layer.sdp,
        layer.pool.as_ref(),
    )
}

/// Fuses the post-conv stages over an already computed conv output
/// (the cycle-accurate cores produce one): SDP and pooling stream per
/// row out of the bounded ring, skipping the intermediate SDP cube.
/// Bit-identical to `sdp::apply` → `pdp::apply`.
///
/// # Errors
///
/// The same shape errors as the materialized stages.
pub fn fuse_post_conv(
    conv: &DataCube,
    sdp: &SdpConfig,
    pool: Option<&PoolParams>,
) -> Result<FusedLayerRun, NvdlaError> {
    let row_elems = conv.w() * conv.c();
    let data = conv.as_slice();
    stream_post_conv(
        |y, dst| dst.copy_from_slice(&data[y * row_elems..(y + 1) * row_elems]),
        conv.w(),
        conv.h(),
        conv.c(),
        sdp,
        pool,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{direct_conv, ConvParams};
    use crate::cube::KernelSet;
    use crate::{pdp, sdp};
    use tempus_arith::IntPrecision;

    fn layer(pool: Option<PoolParams>) -> (DataCube, NetworkLayer) {
        let input = DataCube::from_fn(7, 6, 3, |x, y, c| {
            ((x as i32 * 31 + y as i32 * 17 + c as i32 * 7) % 255) - 127
        });
        let kernels = KernelSet::from_fn(5, 3, 3, 3, |k, r, s, c| {
            ((k as i32 * 13 + r as i32 * 5 + s as i32 * 3 + c as i32 * 11) % 255) - 127
        });
        let mut layer = NetworkLayer::conv_relu(
            "fused",
            kernels,
            ConvParams::unit_stride_same(3),
            6,
            IntPrecision::Int8,
        );
        layer.pool = pool;
        (input, layer)
    }

    fn materialized(input: &DataCube, layer: &NetworkLayer) -> (DataCube, SdpStats) {
        let conv = direct_conv(input, &layer.kernels, &layer.conv).unwrap();
        let (requant, stats) = sdp::apply(&conv, &layer.sdp).unwrap();
        let out = match &layer.pool {
            Some(pool) => pdp::apply(&requant, pool).unwrap(),
            None => requant,
        };
        (out, stats)
    }

    #[test]
    fn fused_layer_matches_materialized_pipeline() {
        for pool in [
            None,
            Some(PoolParams::max(2)),
            Some(PoolParams::max(3)),
            Some(PoolParams::global_average(2)),
            Some(PoolParams {
                kind: PoolKind::Max,
                window: 2,
                stride: 2,
                pad: 1,
            }),
            Some(PoolParams {
                kind: PoolKind::Average,
                window: 3,
                stride: 2,
                pad: 1,
            }),
        ] {
            let (input, layer) = layer(pool);
            let (want, want_stats) = materialized(&input, &layer);
            let fused = run_layer_fused(&input, &layer).unwrap();
            assert_eq!(fused.output, want, "pool={pool:?}");
            assert_eq!(fused.sdp, want_stats, "pool={pool:?}");
            assert_eq!(
                fused.peak_scratch_elems,
                fused_layer_scratch(7, 5, pool.as_ref())
            );
            assert_eq!(fused.rows_streamed, 6);
        }
    }

    #[test]
    fn post_conv_fusion_matches_unfused_stages() {
        let (input, layer) = layer(Some(PoolParams::max(2)));
        let conv = direct_conv(&input, &layer.kernels, &layer.conv).unwrap();
        let (requant, want_stats) = sdp::apply(&conv, &layer.sdp).unwrap();
        let want = pdp::apply(&requant, &PoolParams::max(2)).unwrap();
        let fused = fuse_post_conv(&conv, &layer.sdp, layer.pool.as_ref()).unwrap();
        assert_eq!(fused.output, want);
        assert_eq!(fused.sdp, want_stats);
    }

    #[test]
    fn scratch_is_height_invariant() {
        // Two layers differing only in input height share a scratch
        // figure: the ring scales with width × channels × window, not
        // with the streamed extent.
        let short = fused_layer_scratch(16, 8, Some(&PoolParams::max(2)));
        let tall = fused_layer_scratch(16, 8, Some(&PoolParams::max(2)));
        assert_eq!(short, tall);
        assert_eq!(short, 16 * 8 * 2);
    }

    #[test]
    fn shape_errors_match_materialized_order() {
        let (input, mut layer) = layer(None);
        layer.sdp.bias.pop();
        assert!(matches!(
            run_layer_fused(&input, &layer),
            Err(NvdlaError::InvalidShape(_))
        ));
        let (input, mut layer) = layer_with_bad_channels();
        layer.pool = None;
        assert!(matches!(
            run_layer_fused(&input, &layer),
            Err(NvdlaError::ChannelMismatch { .. })
        ));
    }

    fn layer_with_bad_channels() -> (DataCube, NetworkLayer) {
        let (_, layer) = layer(None);
        (DataCube::zeros(7, 6, 4), layer)
    }
}
