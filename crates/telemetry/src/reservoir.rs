//! Bounded latency sampling: Vitter's Algorithm R over a deterministic
//! SplitMix64 stream, and the one nearest-rank percentile every
//! histogram in the workspace reports.
//!
//! A reservoir keeps at most [`Reservoir::CAP`] samples, so a
//! long-lived recorder's memory and snapshot cost stay constant while
//! percentiles remain exact below the bound and uniformly sampled
//! above it. The random stream is owned by the caller: one stream can
//! feed many reservoirs, or each reservoir can own its own.

/// The SplitMix64 generator (deterministic reservoir replacement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A bounded uniform sample of a stream of `u64` observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reservoir {
    samples: Vec<u64>,
}

impl Reservoir {
    /// Most samples kept.
    pub const CAP: usize = 4096;

    /// Offers the `seen`-th observation of the stream (1-based, this
    /// one included): Algorithm R keeps it with probability
    /// `CAP / seen` once the reservoir is full.
    pub fn offer(&mut self, value: u64, seen: u64, rng: &mut SplitMix64) {
        if self.samples.len() < Self::CAP {
            self.samples.push(value);
        } else {
            let j = rng.next_u64() % seen;
            if (j as usize) < Self::CAP {
                self.samples[j as usize] = value;
            }
        }
    }

    /// Folds one sample of another reservoir in: appended while there
    /// is room, else it replaces a uniformly chosen slot.
    pub fn absorb(&mut self, value: u64, rng: &mut SplitMix64) {
        if self.samples.len() < Self::CAP {
            self.samples.push(value);
        } else {
            let j = rng.next_u64() as usize % Self::CAP;
            self.samples[j] = value;
        }
    }

    /// The kept samples, in reservoir order.
    #[must_use]
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// The kept samples, ascending — the input [`percentile`] expects.
    #[must_use]
    pub fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted
    }
}

/// `q`-th percentile (0..=100) of an ascending-sorted sample by
/// nearest rank (0 for an empty sample).
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
