//! PDP: the pooling engine (part of NVDLA's post-processing unit,
//! §II-C). Supports max and average pooling with stride and padding.

use crate::cube::DataCube;
use crate::NvdlaError;

/// Pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum over the window (padding cells are ignored).
    Max,
    /// Average over the window (divisor = full window size, matching
    /// count-include-pad semantics common in quantized deployments).
    Average,
}

/// Pooling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolParams {
    /// Operator.
    pub kind: PoolKind,
    /// Window width/height.
    pub window: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl PoolParams {
    /// Non-overlapping max pooling with a `window`×`window` kernel.
    #[must_use]
    pub fn max(window: usize) -> Self {
        PoolParams {
            kind: PoolKind::Max,
            window,
            stride: window,
            pad: 0,
        }
    }

    /// Global average pooling over an `edge`×`edge` map.
    #[must_use]
    pub fn global_average(edge: usize) -> Self {
        PoolParams {
            kind: PoolKind::Average,
            window: edge,
            stride: edge,
            pad: 0,
        }
    }

    /// Output `(w, h)` of pooling a `w × h` plane — the shape half of
    /// [`apply`].
    ///
    /// # Errors
    ///
    /// Returns [`NvdlaError::InvalidShape`] for zero window/stride and
    /// [`NvdlaError::EmptyOutput`] when the window exceeds the padded
    /// input.
    pub fn output_dims(&self, w: usize, h: usize) -> Result<(usize, usize), NvdlaError> {
        if self.window == 0 || self.stride == 0 {
            return Err(NvdlaError::InvalidShape(
                "pool window and stride must be >= 1".into(),
            ));
        }
        let padded_w = w + 2 * self.pad;
        let padded_h = h + 2 * self.pad;
        if self.window > padded_w || self.window > padded_h {
            return Err(NvdlaError::EmptyOutput);
        }
        Ok((
            (padded_w - self.window) / self.stride + 1,
            (padded_h - self.window) / self.stride + 1,
        ))
    }

    /// Order-stable FNV-1a digest over the pooling configuration —
    /// cache-key material for the serving layer.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        crate::cube::fnv1a(
            [
                match self.kind {
                    PoolKind::Max => 1u64,
                    PoolKind::Average => 2,
                },
                self.window as u64,
                self.stride as u64,
                self.pad as u64,
            ]
            .into_iter(),
        )
    }
}

/// Applies pooling to each channel plane independently.
///
/// # Errors
///
/// Returns [`NvdlaError::InvalidShape`] for zero window/stride and
/// [`NvdlaError::EmptyOutput`] when the window exceeds the padded
/// input.
pub fn apply(cube: &DataCube, params: &PoolParams) -> Result<DataCube, NvdlaError> {
    let (out_w, out_h) = params.output_dims(cube.w(), cube.h())?;
    let mut out = DataCube::zeros(out_w, out_h, cube.c());
    for oy in 0..out_h {
        for ox in 0..out_w {
            for c in 0..cube.c() {
                let x0 = (ox * params.stride) as isize - params.pad as isize;
                let y0 = (oy * params.stride) as isize - params.pad as isize;
                let value = match params.kind {
                    PoolKind::Max => {
                        let mut best: Option<i32> = None;
                        for dy in 0..params.window {
                            for dx in 0..params.window {
                                let (x, y) = (x0 + dx as isize, y0 + dy as isize);
                                if x >= 0
                                    && y >= 0
                                    && (x as usize) < cube.w()
                                    && (y as usize) < cube.h()
                                {
                                    let v = cube.get(x as usize, y as usize, c);
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
                                sum += i64::from(cube.get_padded(
                                    x0 + dx as isize,
                                    y0 + dy as isize,
                                    c,
                                ));
                            }
                        }
                        let div = (params.window * params.window) as i64;
                        // Round to nearest, ties away from zero.
                        let half = div / 2;
                        (if sum >= 0 {
                            (sum + half) / div
                        } else {
                            (sum - half) / div
                        }) as i32
                    }
                };
                out.set(ox, oy, c, value);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_2x2() {
        let cube = DataCube::from_fn(4, 4, 1, |x, y, _| (y * 4 + x) as i32);
        let out = apply(&cube, &PoolParams::max(2)).unwrap();
        assert_eq!(out.w(), 2);
        assert_eq!(out.h(), 2);
        assert_eq!(out.get(0, 0, 0), 5);
        assert_eq!(out.get(1, 1, 0), 15);
    }

    #[test]
    fn max_pool_ignores_padding() {
        let cube = DataCube::from_fn(2, 2, 1, |_, _, _| -7);
        let params = PoolParams {
            kind: PoolKind::Max,
            window: 2,
            stride: 2,
            pad: 1,
        };
        let out = apply(&cube, &params).unwrap();
        // Corner window sees only the single real element, not zeros.
        assert_eq!(out.get(0, 0, 0), -7);
    }

    #[test]
    fn average_pool_rounds_to_nearest() {
        let cube = DataCube::from_fn(2, 2, 1, |x, y, _| (x + y) as i32); // 0,1,1,2
        let out = apply(&cube, &PoolParams::global_average(2)).unwrap();
        assert_eq!(out.get(0, 0, 0), 1);
        let neg = DataCube::from_fn(2, 2, 1, |_, _, _| -1);
        let out = apply(&neg, &PoolParams::global_average(2)).unwrap();
        assert_eq!(out.get(0, 0, 0), -1);
    }

    #[test]
    fn channels_pool_independently() {
        let cube = DataCube::from_fn(2, 2, 2, |x, y, c| ((x + y) as i32) * (c as i32 + 1));
        let out = apply(&cube, &PoolParams::max(2)).unwrap();
        assert_eq!(out.get(0, 0, 0), 2);
        assert_eq!(out.get(0, 0, 1), 4);
    }

    #[test]
    fn oversized_window_rejected() {
        let cube = DataCube::zeros(2, 2, 1);
        assert_eq!(
            apply(&cube, &PoolParams::max(3)),
            Err(NvdlaError::EmptyOutput)
        );
    }
}
