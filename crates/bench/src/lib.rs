//! Experiment harness: regenerates every table and figure of the
//! Tempus Core paper from the models in this workspace.
//!
//! Each submodule of [`experiments`] owns one experiment the `report`
//! binary selects by name and returns printable tables (and SVGs for
//! Fig. 6). The `report` binary drives them all and writes
//! `results/`. Machine-readable reports go through the one JSON writer,
//! [`tempus_telemetry::json`].

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

/// Asserts that `json` has exactly the object keys of `committed`, a
/// report artifact under `results/`: the key set is the schema the
/// artifact's readers rely on.
#[cfg(test)]
pub(crate) fn assert_keys_match(json: &str, committed: &str) {
    let keys = |doc: &str| -> std::collections::BTreeSet<String> {
        (doc.match_indices("\": "))
            .filter_map(|(end, _)| doc[..end].rfind('"').map(|at| doc[at + 1..end].to_string()))
            .collect()
    };
    assert_eq!(keys(json), keys(committed));
}
