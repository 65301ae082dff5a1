//! Calibration maintenance tool: prints the fitted hardware-model
//! constants with their provenance, then re-measures the synthetic
//! weight statistics against their published targets. Run this after
//! touching `tempus_hwmodel::calibration` anchors or
//! `tempus_models::calib` shape parameters.
//!
//! ```text
//! cargo run --release --example calibrate            # quick (bounded models)
//! cargo run --release --example calibrate -- --full  # full 180M-weight zoo
//! ```

use tempus::arith::IntPrecision;
use tempus::hwmodel::SynthModel;
use tempus::models::zoo::Model;
use tempus::models::{calib, QuantizedModel};
use tempus::profile::{magnitude, sparsity};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let max_weights = if full { usize::MAX } else { 1_000_000 };

    let hw = SynthModel::nangate45();
    println!("{}", hw.calibration().provenance());

    println!(
        "model calibration targets vs measured ({}):",
        if full {
            "full zoo"
        } else {
            "bounded to 1M weights/model"
        }
    );
    for model in Model::ALL {
        let targets = calib::for_model(model);
        let quantized =
            QuantizedModel::generate_limited(model, IntPrecision::Int8, 42, max_weights);
        let mag = magnitude::profile_model(&quantized, 16, 16);
        let sil = sparsity::profile_model(&quantized, 16, 16, false);
        let latency_note = match calib::latency_target_cycles(model) {
            Some(target) => format!(
                "latency {:.1} cy (target {target:.0})",
                mag.average_latency_cycles()
            ),
            None => format!(
                "latency {:.1} cy (no published target)",
                mag.average_latency_cycles()
            ),
        };
        println!(
            "  {:<12} beta {:.2}: sparsity {:.2}% (target {:.2}%), {}, silent {:.1}/tile",
            model.name(),
            targets.beta,
            quantized.sparsity_pct(),
            targets.sparsity_pct,
            latency_note,
            sil.average_silent_pes(),
        );
    }
    println!(
        "\nretuning guide: beta moves the tile-max distribution (latency); the sparsity\n\
         target is pinned exactly by construction."
    );
}
