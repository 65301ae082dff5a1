//! Cycle-accounting building blocks shared by the cycle-accurate
//! Tempus Core and NVDLA models.
//!
//! The paper validates its RTL in commercial simulators; the models in
//! this workspace run window-batched engines instead, and this crate
//! holds the few pieces they share:
//!
//! * [`Fifo`] — the bounded valid/ready buffer behind the PCU's
//!   multi-cycle handshaking logic (§III);
//! * [`ActivityCounter`] — active versus clock-gated cycle counts,
//!   feeding the workload-dependent energy evaluation (§V-C);
//! * [`VcdWriter`] / [`VcdValue`] — a minimal value-change-dump writer
//!   for waveform inspection of the cycle-accurate models.
//!
//! # Example
//!
//! ```
//! use tempus_sim::{ActivityCounter, Fifo};
//!
//! // A two-entry output buffer refuses a third bundle until one drains.
//! let mut out = Fifo::new(2);
//! out.push(1).unwrap();
//! out.push(2).unwrap();
//! assert_eq!(out.push(3), Err(3));
//! assert_eq!(out.pop(), Some(1));
//!
//! // A 5-cycle window in which a PE pulses for 3 cycles.
//! let mut pe = ActivityCounter::new();
//! pe.record_window(3, 5);
//! assert_eq!((pe.active_cycles(), pe.gated_cycles()), (3, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod handshake;
mod vcd;

pub use counters::ActivityCounter;
pub use handshake::Fifo;
pub use vcd::{VcdValue, VcdWriter};
