//! Experiment harness: regenerates every table and figure of the
//! Tempus Core paper from the models in this workspace.
//!
//! Each submodule of [`experiments`] owns one experiment the `report`
//! binary selects by name and returns printable tables (and SVGs for
//! Fig. 6). The `report` binary drives them all and writes
//! `results/`; the Criterion benches in `benches/` measure the same
//! computations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use std::fs;
use std::io;
use std::path::Path;

/// Writes `content` under the results directory, creating it if
/// needed.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_result(dir: &Path, name: &str, content: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(name), content)
}

/// Standard seed used by every experiment so results are reproducible
/// run to run.
pub const SEED: u64 = 42;
