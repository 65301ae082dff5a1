//! Data cubes: NVDLA's W×H×C feature tensors and K×R×S×C kernel sets.

use std::fmt;

use tempus_arith::{ArithError, IntPrecision};

use crate::NvdlaError;

/// A W×H×C tensor of `i32` elements, channel-minor (NVDLA feeds
/// 1×1×n channel slivers to the MAC array, so `c` is the fastest
/// dimension in memory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataCube {
    w: usize,
    h: usize,
    c: usize,
    data: Vec<i32>,
}

impl DataCube {
    /// Creates a zero-filled cube.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(w: usize, h: usize, c: usize) -> Self {
        assert!(w > 0 && h > 0 && c > 0, "cube dimensions must be nonzero");
        DataCube {
            w,
            h,
            c,
            data: vec![0; w * h * c],
        }
    }

    /// Builds a cube element-wise from `f(x, y, c)`.
    #[must_use]
    pub fn from_fn(
        w: usize,
        h: usize,
        c: usize,
        mut f: impl FnMut(usize, usize, usize) -> i32,
    ) -> Self {
        let mut cube = DataCube::zeros(w, h, c);
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    let v = f(x, y, ch);
                    cube.set(x, y, ch, v);
                }
            }
        }
        cube
    }

    /// Builds a cube from a channel-minor vector.
    ///
    /// # Errors
    ///
    /// Returns [`NvdlaError::InvalidShape`] when `data.len() != w*h*c`.
    pub fn from_vec(w: usize, h: usize, c: usize, data: Vec<i32>) -> Result<Self, NvdlaError> {
        if data.len() != w * h * c {
            return Err(NvdlaError::InvalidShape(format!(
                "data length {} does not match {w}x{h}x{c}",
                data.len()
            )));
        }
        Ok(DataCube { w, h, c, data })
    }

    /// Width.
    #[must_use]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Height.
    #[must_use]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Channels.
    #[must_use]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the cube has no elements (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Order-stable FNV-1a digest over dimensions and contents.
    ///
    /// Two cubes share a digest iff they are equal (modulo the usual
    /// 64-bit collision caveat) — the runtime uses this to compare
    /// outputs across backends and key caches without cloning cubes.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        fnv1a(
            [self.w as u64, self.h as u64, self.c as u64]
                .into_iter()
                .chain(self.data.iter().map(|&v| v as u32 as u64)),
        )
    }

    #[inline]
    fn index(&self, x: usize, y: usize, c: usize) -> usize {
        debug_assert!(x < self.w && y < self.h && c < self.c);
        (y * self.w + x) * self.c + c
    }

    /// Element at `(x, y, c)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize, c: usize) -> i32 {
        self.data[self.index(x, y, c)]
    }

    /// Element at `(x, y, c)` with zero padding outside the cube —
    /// convolution's boundary behaviour.
    #[must_use]
    pub fn get_padded(&self, x: isize, y: isize, c: usize) -> i32 {
        if x < 0 || y < 0 || x >= self.w as isize || y >= self.h as isize {
            0
        } else {
            self.get(x as usize, y as usize, c)
        }
    }

    /// Sets the element at `(x, y, c)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: i32) {
        let idx = self.index(x, y, c);
        self.data[idx] = v;
    }

    /// A 1×1×n channel sliver at `(x, y)` starting at channel
    /// `c0`, zero-padded beyond both the spatial and channel extents —
    /// exactly what the CSC broadcasts per atomic op (§III).
    #[must_use]
    pub fn channel_sliver(&self, x: isize, y: isize, c0: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0; n];
        self.channel_sliver_into(x, y, c0, &mut out);
        out
    }

    /// Fills `out` with the 1×1×`out.len()` channel sliver at
    /// `(x, y)` starting at channel `c0` — the allocation-free variant
    /// of [`channel_sliver`](DataCube::channel_sliver) the sequencing
    /// hot path reuses one scratch buffer for.
    pub fn channel_sliver_into(&self, x: isize, y: isize, c0: usize, out: &mut [i32]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = if c0 + i < self.c {
                self.get_padded(x, y, c0 + i)
            } else {
                0
            };
        }
    }

    /// A copy of the channel range `[c_lo, c_hi)` as its own cube —
    /// the channel-group shard of a feature map the multi-array
    /// planner hands to one PE array.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or out of bounds.
    #[must_use]
    pub fn slice_channels(&self, c_lo: usize, c_hi: usize) -> DataCube {
        assert!(c_lo < c_hi && c_hi <= self.c, "invalid channel range");
        DataCube::from_fn(self.w, self.h, c_hi - c_lo, |x, y, ch| {
            self.get(x, y, c_lo + ch)
        })
    }

    /// Raw storage, channel-minor.
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Iterates over `(x, y, c, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, i32)> + '_ {
        let (w, c) = (self.w, self.c);
        self.data.iter().enumerate().map(move |(i, &v)| {
            let ch = i % c;
            let x = (i / c) % w;
            let y = i / (c * w);
            (x, y, ch, v)
        })
    }

    /// Validates every element against `precision`.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range element as an
    /// [`ArithError::OutOfRange`].
    pub fn check_precision(&self, precision: IntPrecision) -> Result<(), ArithError> {
        precision.check_all(&self.data)
    }

    /// Storage footprint in bytes at `precision` (ceil to whole bytes
    /// per element, as NVDLA packs INT4 two-per-byte only in some
    /// modes; we model byte-aligned storage).
    #[must_use]
    pub fn bytes(&self, precision: IntPrecision) -> usize {
        let bits = self.len() * precision.bits() as usize;
        bits.div_ceil(8)
    }
}

impl fmt::Display for DataCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataCube {}x{}x{}", self.w, self.h, self.c)
    }
}

/// A set of K convolution kernels, each R×S×C (NVDLA terms: R = kernel
/// height, S = kernel width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSet {
    k: usize,
    r: usize,
    s: usize,
    c: usize,
    /// Kernel-major, then (r, s) spatial, then channel-minor.
    data: Vec<i32>,
}

impl KernelSet {
    /// Creates a zero-filled kernel set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(k: usize, r: usize, s: usize, c: usize) -> Self {
        assert!(
            k > 0 && r > 0 && s > 0 && c > 0,
            "kernel dimensions must be nonzero"
        );
        KernelSet {
            k,
            r,
            s,
            c,
            data: vec![0; k * r * s * c],
        }
    }

    /// Builds a kernel set element-wise from `f(k, r, s, c)`.
    #[must_use]
    pub fn from_fn(
        k: usize,
        r: usize,
        s: usize,
        c: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> i32,
    ) -> Self {
        let mut set = KernelSet::zeros(k, r, s, c);
        for ki in 0..k {
            for ri in 0..r {
                for si in 0..s {
                    for ci in 0..c {
                        let v = f(ki, ri, si, ci);
                        set.set(ki, ri, si, ci, v);
                    }
                }
            }
        }
        set
    }

    /// Number of kernels (output channels).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Kernel height.
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Kernel width.
    #[must_use]
    pub fn s(&self) -> usize {
        self.s
    }

    /// Kernel channels.
    #[must_use]
    pub fn c(&self) -> usize {
        self.c
    }

    #[inline]
    fn index(&self, k: usize, r: usize, s: usize, c: usize) -> usize {
        debug_assert!(k < self.k && r < self.r && s < self.s && c < self.c);
        ((k * self.r + r) * self.s + s) * self.c + c
    }

    /// Weight at `(k, r, s, c)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[must_use]
    pub fn get(&self, k: usize, r: usize, s: usize, c: usize) -> i32 {
        self.data[self.index(k, r, s, c)]
    }

    /// Sets the weight at `(k, r, s, c)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn set(&mut self, k: usize, r: usize, s: usize, c: usize, v: i32) {
        let idx = self.index(k, r, s, c);
        self.data[idx] = v;
    }

    /// A 1×1×n weight sliver for kernel `k` at `(r, s)` starting at
    /// channel `c0`, zero-padded beyond the channel extent — the weight
    /// cube each PE cell caches (§III).
    #[must_use]
    pub fn weight_sliver(&self, k: usize, r: usize, s: usize, c0: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0; n];
        self.weight_sliver_into(k, r, s, c0, &mut out);
        out
    }

    /// Fills `out` with the 1×1×`out.len()` weight sliver for kernel
    /// `k` at `(r, s)` starting at channel `c0` — the allocation-free
    /// variant of [`weight_sliver`](KernelSet::weight_sliver).
    pub fn weight_sliver_into(&self, k: usize, r: usize, s: usize, c0: usize, out: &mut [i32]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = if c0 + i < self.c {
                self.get(k, r, s, c0 + i)
            } else {
                0
            };
        }
    }

    /// A copy of the kernel range `[k_lo, k_hi)` as its own set — the
    /// kernel-group shard the multi-array planner hands to one PE
    /// array.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or out of bounds.
    #[must_use]
    pub fn slice_kernels(&self, k_lo: usize, k_hi: usize) -> KernelSet {
        assert!(k_lo < k_hi && k_hi <= self.k, "invalid kernel range");
        KernelSet::from_fn(k_hi - k_lo, self.r, self.s, self.c, |k, r, s, c| {
            self.get(k_lo + k, r, s, c)
        })
    }

    /// A copy of the channel range `[c_lo, c_hi)` of every kernel —
    /// the channel-group shard matching
    /// [`DataCube::slice_channels`].
    ///
    /// # Panics
    ///
    /// Panics when the range is empty or out of bounds.
    #[must_use]
    pub fn slice_channels(&self, c_lo: usize, c_hi: usize) -> KernelSet {
        assert!(c_lo < c_hi && c_hi <= self.c, "invalid channel range");
        KernelSet::from_fn(self.k, self.r, self.s, c_hi - c_lo, |k, r, s, c| {
            self.get(k, r, s, c_lo + c)
        })
    }

    /// Raw storage.
    #[must_use]
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Validates every weight against `precision`.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range weight as an
    /// [`ArithError::OutOfRange`].
    pub fn check_precision(&self, precision: IntPrecision) -> Result<(), ArithError> {
        precision.check_all(&self.data)
    }

    /// Storage footprint in bytes at `precision`.
    #[must_use]
    pub fn bytes(&self, precision: IntPrecision) -> usize {
        (self.data.len() * precision.bits() as usize).div_ceil(8)
    }

    /// Total weight count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Order-stable FNV-1a digest over dimensions and weights — the
    /// runtime keys its per-worker latency memos on this.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        fnv1a(
            [self.k as u64, self.r as u64, self.s as u64, self.c as u64]
                .into_iter()
                .chain(self.data.iter().map(|&v| v as u32 as u64)),
        )
    }
}

/// FNV-1a over a word stream, byte by byte — the one digest
/// implementation the workspace shares, so cross-backend output
/// digests stay comparable.
pub fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

impl fmt::Display for KernelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KernelSet k={} {}x{}x{}", self.k, self.r, self.s, self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_round_trip() {
        let cube = DataCube::from_fn(3, 2, 4, |x, y, c| (x + 10 * y + 100 * c) as i32);
        assert_eq!(cube.get(2, 1, 3), 312);
        assert_eq!(cube.len(), 24);
        assert_eq!(cube.to_string(), "DataCube 3x2x4");
    }

    #[test]
    fn channel_minor_layout() {
        let cube = DataCube::from_fn(2, 2, 2, |x, y, c| (x + 10 * y + 100 * c) as i32);
        // (x=0,y=0,c=0), (x=0,y=0,c=1), (x=1,y=0,c=0), ...
        assert_eq!(&cube.as_slice()[..4], &[0, 100, 1, 101]);
    }

    #[test]
    fn padded_reads_are_zero_outside() {
        let cube = DataCube::from_fn(2, 2, 1, |_, _, _| 7);
        assert_eq!(cube.get_padded(-1, 0, 0), 0);
        assert_eq!(cube.get_padded(0, 2, 0), 0);
        assert_eq!(cube.get_padded(1, 1, 0), 7);
    }

    #[test]
    fn sliver_pads_channels() {
        let cube = DataCube::from_fn(2, 2, 3, |_, _, c| c as i32 + 1);
        assert_eq!(cube.channel_sliver(0, 0, 0, 5), vec![1, 2, 3, 0, 0]);
        assert_eq!(cube.channel_sliver(-1, 0, 0, 3), vec![0, 0, 0]);
        assert_eq!(cube.channel_sliver(1, 1, 2, 2), vec![3, 0]);
    }

    #[test]
    fn iter_visits_every_element_once() {
        let cube = DataCube::from_fn(3, 4, 5, |x, y, c| (x * 20 + y * 5 + c) as i32);
        let mut seen = [false; 60];
        for (x, y, c, v) in cube.iter() {
            assert_eq!(cube.get(x, y, c), v);
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn precision_check() {
        use tempus_arith::IntPrecision;
        let cube = DataCube::from_fn(2, 2, 1, |x, _, _| x as i32 * 100);
        assert!(cube.check_precision(IntPrecision::Int8).is_ok());
        assert!(cube.check_precision(IntPrecision::Int4).is_err());
    }

    #[test]
    fn bytes_account_for_precision() {
        use tempus_arith::IntPrecision;
        let cube = DataCube::zeros(4, 4, 4);
        assert_eq!(cube.bytes(IntPrecision::Int8), 64);
        assert_eq!(cube.bytes(IntPrecision::Int4), 32);
        assert_eq!(cube.bytes(IntPrecision::Int2), 16);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DataCube::from_vec(2, 2, 2, vec![0; 8]).is_ok());
        assert!(DataCube::from_vec(2, 2, 2, vec![0; 7]).is_err());
    }

    #[test]
    fn kernel_slivers() {
        let k = KernelSet::from_fn(2, 1, 1, 3, |k, _, _, c| (10 * k + c) as i32);
        assert_eq!(k.weight_sliver(1, 0, 0, 0, 4), vec![10, 11, 12, 0]);
        assert_eq!(k.get(0, 0, 0, 2), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_rejected() {
        let _ = DataCube::zeros(0, 1, 1);
    }

    #[test]
    fn slices_copy_the_right_ranges() {
        let cube = DataCube::from_fn(3, 2, 6, |x, y, c| (x * 100 + y * 10 + c) as i32);
        let s = cube.slice_channels(2, 5);
        assert_eq!((s.w(), s.h(), s.c()), (3, 2, 3));
        assert_eq!(s.get(1, 1, 0), cube.get(1, 1, 2));
        assert_eq!(s.get(2, 0, 2), cube.get(2, 0, 4));

        let k = KernelSet::from_fn(5, 2, 2, 4, |k, r, s, c| {
            (k * 1000 + r * 100 + s * 10 + c) as i32
        });
        let kk = k.slice_kernels(1, 4);
        assert_eq!((kk.k(), kk.r(), kk.s(), kk.c()), (3, 2, 2, 4));
        assert_eq!(kk.get(0, 1, 0, 3), k.get(1, 1, 0, 3));
        let kc = k.slice_channels(1, 3);
        assert_eq!((kc.k(), kc.c()), (5, 2));
        assert_eq!(kc.get(4, 1, 1, 1), k.get(4, 1, 1, 2));
    }

    #[test]
    #[should_panic(expected = "invalid channel range")]
    fn empty_slice_rejected() {
        let cube = DataCube::zeros(2, 2, 4);
        let _ = cube.slice_channels(2, 2);
    }

    #[test]
    fn content_hash_distinguishes_values_and_shapes() {
        let a = DataCube::from_fn(3, 2, 4, |x, y, c| (x + y + c) as i32);
        let b = DataCube::from_fn(3, 2, 4, |x, y, c| (x + y + c) as i32);
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = b.clone();
        c.set(0, 0, 0, 99);
        assert_ne!(a.content_hash(), c.content_hash());
        // Same flat data, different shape, must not collide.
        let flat = DataCube::from_vec(6, 1, 4, a.as_slice().to_vec()).unwrap();
        assert_ne!(a.content_hash(), flat.content_hash());

        let k1 = KernelSet::from_fn(2, 1, 1, 3, |k, _, _, c| (k + c) as i32);
        let mut k2 = k1.clone();
        assert_eq!(k1.content_hash(), k2.content_hash());
        k2.set(1, 0, 0, 2, -5);
        assert_ne!(k1.content_hash(), k2.content_hash());
    }
}
