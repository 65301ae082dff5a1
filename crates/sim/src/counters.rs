/// Tracks how many cycles a block spent active versus clock-gated.
///
/// NVDLA's MAC cells support clock gating "during idle or underutilized
/// conditions" (§II-C) and Tempus Core keeps zero-weight PEs silent
/// (§V-C); this counter is how both models account for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounter {
    active: u64,
    gated: u64,
}

impl ActivityCounter {
    /// Creates a counter with no recorded cycles.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cycle in the active state.
    pub fn record_active(&mut self) {
        self.active += 1;
    }

    /// Records one cycle in the gated (idle) state.
    pub fn record_gated(&mut self) {
        self.gated += 1;
    }

    /// Records `n` cycles at once.
    pub fn record_active_n(&mut self, n: u64) {
        self.active += n;
    }

    /// Records one whole compute window in bulk: `active` active
    /// cycles and `window - active` gated ones. This is the counter
    /// update the window-batched simulation engine computes
    /// arithmetically (`active = min(window, stream_cycles)`) instead
    /// of ticking per cycle.
    ///
    /// # Panics
    ///
    /// Panics when `active > window` (debug builds only).
    pub fn record_window(&mut self, active: u64, window: u64) {
        debug_assert!(active <= window, "active {active} exceeds window {window}");
        self.active += active;
        self.gated += window - active;
    }

    /// Cycles spent active.
    #[must_use]
    pub fn active_cycles(self) -> u64 {
        self.active
    }

    /// Cycles spent gated.
    #[must_use]
    pub fn gated_cycles(self) -> u64 {
        self.gated
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: ActivityCounter) {
        self.active += other.active;
        self.gated += other.gated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_window_splits_active_and_gated() {
        let mut bulk = ActivityCounter::new();
        bulk.record_window(3, 10);
        let mut ticked = ActivityCounter::new();
        for c in 0..10u64 {
            if c < 3 {
                ticked.record_active();
            } else {
                ticked.record_gated();
            }
        }
        assert_eq!(bulk, ticked);
        bulk.record_window(0, 0);
        assert_eq!(bulk.active_cycles() + bulk.gated_cycles(), 10);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ActivityCounter::new();
        a.record_active_n(3);
        let mut b = ActivityCounter::new();
        b.record_window(0, 5);
        a.merge(b);
        assert_eq!(a.active_cycles(), 3);
        assert_eq!(a.gated_cycles(), 5);
    }
}
