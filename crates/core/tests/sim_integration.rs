//! The cycle-accurate Tempus Core PCU driven the way a testbench
//! drives RTL: a per-cycle tick loop feeding atomic ops, a comparison
//! of its bundle stream against the binary CMAC's, and a waveform
//! capture through the VCD writer.

use tempus_arith::{dot, IntPrecision};
use tempus_core::pcu::Pcu;
use tempus_nvdla::cmac::PsumBundle;
use tempus_nvdla::csc::AtomicOp;
use tempus_sim::{VcdValue, VcdWriter};

/// Feeds `ops` into `pcu` one per ready cycle and ticks until every op
/// has produced its bundle (or 10,000 cycles pass, so a stalled PCU
/// fails the test instead of hanging it); returns the bundles and the
/// cycles ticked.
fn drive(pcu: &mut Pcu, ops: &[AtomicOp]) -> (Vec<PsumBundle>, u64) {
    let mut pending = ops.iter();
    let mut next = pending.next();
    let mut collected = Vec::new();
    let mut cycles = 0u64;
    while collected.len() < ops.len() && cycles < 10_000 {
        if let Some(op) = next.filter(|_| pcu.ready()) {
            pcu.begin(op).expect("operands validated by test");
            next = pending.next();
        }
        if let Some(bundle) = pcu.tick() {
            collected.push(bundle);
        }
        cycles += 1;
    }
    (collected, cycles)
}

#[test]
fn simulator_drives_pcu_to_completion() {
    let p = IntPrecision::Int8;
    let weights = vec![vec![3, -7, 0, 127], vec![-128, 1, 64, -2]];
    let mut pcu = Pcu::new(2, 4, p, 1, 1);
    pcu.load_weights(&weights).unwrap();

    let ops: Vec<AtomicOp> = (0..5)
        .map(|i| AtomicOp {
            out_x: i,
            out_y: 0,
            feature: vec![
                i as i32 * 3 - 5,
                10 - i as i32,
                -(i as i32),
                2 * i as i32 - 3,
            ],
        })
        .collect();

    let (collected, cycles) = drive(&mut pcu, &ops);

    // 5 ops x (1 cache-in + 64 worst-case window + 1 cache-out) upper
    // bound; actual windows are set by the stripe scan.
    assert!(cycles <= 5 * 66 + 10, "cycles {cycles}");
    assert_eq!(collected.len(), 5, "PCU must drain all ops");
    assert_eq!(pcu.cycles(), cycles);
    for (bundle, op) in collected.iter().zip(&ops) {
        for (cell, sum) in bundle.sums.iter().enumerate() {
            assert_eq!(*sum, dot::binary(&op.feature, &weights[cell], p).unwrap());
        }
    }
}

#[test]
fn vcd_capture_of_a_pcu_window() {
    let p = IntPrecision::Int8;
    let mut pcu = Pcu::new(1, 2, p, 1, 1);
    pcu.load_weights(&[vec![9, -4]]).unwrap();
    let op = AtomicOp {
        out_x: 0,
        out_y: 0,
        feature: vec![5, 6],
    };

    let mut vcd = VcdWriter::new("pcu_tb", 4);
    let ready = vcd.add_signal("ready", 1);
    let out_valid = vcd.add_signal("out_valid", 1);

    pcu.begin(&op).unwrap();
    let mut produced = false;
    for cycle in 0..20u64 {
        vcd.record(cycle, ready, VcdValue::Bit(pcu.ready()));
        let out = pcu.tick();
        vcd.record(cycle, out_valid, VcdValue::Bit(out.is_some()));
        if let Some(bundle) = out {
            assert_eq!(bundle.sums[0], 5 * 9 + 6 * (-4));
            produced = true;
            break;
        }
    }
    assert!(produced, "window must complete inside the capture");
    let text = vcd.finish();
    assert!(text.contains("$var wire 1 ! ready $end"));
    assert!(text.contains("#0"));
    // ready must go low while the window is in flight.
    assert!(text.contains("0!"));
}

#[test]
fn scoreboard_compares_pcu_against_cmac_stream() {
    use tempus_nvdla::cmac::BinaryCmac;

    let p = IntPrecision::Int8;
    let weights = vec![vec![2, -3, 5, 0], vec![7, 1, -1, 4], vec![0, 0, 0, 0]];
    let ops: Vec<AtomicOp> = (0..8)
        .map(|i| AtomicOp {
            out_x: i % 4,
            out_y: i / 4,
            feature: vec![
                (i as i32 * 11) % 100 - 50,
                (i as i32 * 7) % 90 - 40,
                -(i as i32),
                i as i32 * 2,
            ],
        })
        .collect();

    // Reference stream: the binary CMAC.
    let mut cmac = BinaryCmac::new(3, 4, p, 1);
    cmac.load_weights(&weights);
    let mut expected: Vec<PsumBundle> = ops.iter().filter_map(|op| cmac.step(Some(op))).collect();
    expected.extend(cmac.drain());

    // Observed stream: the PCU, one multi-cycle window per op.
    let mut pcu = Pcu::new(3, 4, p, 1, 1);
    pcu.load_weights(&weights).unwrap();
    let (mut observed, _) = drive(&mut pcu, &ops);
    observed.extend(pcu.drain());

    assert_eq!(expected.len(), 8);
    assert_eq!(observed, expected);
}
