//! Circuit-level checks of the transistor stamp: one element-local
//! (drain, gate, source) block per device must give the model's own
//! current when terminals coincide, and the dissipation reported by the
//! measure pass must add up to the energy a discharge releases.

use ftcam_circuit::analysis::{DcOperatingPoint, Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::Circuit;
use ftcam_devices::{Mosfet, TechCard};

/// A diode-connected NMOS (gate tied to drain) draws exactly its drain
/// current from the source that feeds it, whether the drain is pinned
/// (measure pass only) or a free node fed through a resistor (assembly
/// too).
#[test]
fn diode_connected_nmos_draws_its_drain_current() {
    let card = TechCard::hp45();
    let vdd = card.vdd;

    let mut ckt = Circuit::new();
    let d = ckt.node("d");
    ckt.pin(d, "VD", Waveform::dc(vdd)).unwrap();
    let nmos = Mosfet::new(card.nmos.clone(), d, d, ckt.ground());
    let expect = nmos.drain_current(vdd, vdd, 0.0);
    ckt.add(nmos);
    let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
    let got = op.pin_current("VD").unwrap();
    assert!(expect > 1e-6, "on-current {expect:.3e} A");
    assert!(
        (got - expect).abs() <= 1e-12 * expect,
        "pinned drain: {got:.6e} vs {expect:.6e} A"
    );

    let mut ckt = Circuit::new();
    let (rail, d) = (ckt.node("rail"), ckt.node("d"));
    ckt.pin(rail, "VDD", Waveform::dc(vdd)).unwrap();
    ckt.add(Resistor::new(rail, d, 10e3));
    let nmos = Mosfet::new(card.nmos.clone(), d, d, ckt.ground());
    ckt.add(nmos.clone());
    let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
    let vd = op.voltage("d").unwrap();
    let got = op.pin_current("VDD").unwrap();
    let expect = nmos.drain_current(vd, vd, 0.0);
    assert!(vd > 0.0 && vd < vdd, "v_d = {vd}");
    assert!(
        (got - expect).abs() <= 1e-6 * expect,
        "free drain: {got:.6e} vs {expect:.6e} A at v_d = {vd:.4} V"
    );
}

/// An NMOS discharging a capacitor dissipates the capacitor's stored
/// energy ½CV². The load is 1000× the device's own capacitances, so their
/// share stays well below the 1% tolerance.
#[test]
fn nmos_discharge_dissipates_half_cv_squared() {
    let card = TechCard::hp45();
    let (c, v0) = (200e-15, card.vdd);
    let mut ckt = Circuit::new();
    let (d, g) = (ckt.node("d"), ckt.node("g"));
    ckt.pin(g, "VG", Waveform::dc(card.vdd)).unwrap();
    ckt.add(Capacitor::with_initial_voltage(d, ckt.ground(), c, v0));
    ckt.add_labeled("mn", Mosfet::new(card.nmos.clone(), d, g, ckt.ground()));
    let opts = TransientOpts::new(2e-12, 20e-9).with_initial_voltages([(d, v0)]);
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    let v_end = res.trace("d").unwrap().last_value();
    assert!(v_end < 1e-3 * v0, "not discharged: {v_end} V");
    let energy = res.device_energy("mn").unwrap();
    let expect = 0.5 * c * v0 * v0;
    assert!(
        (energy - expect).abs() < 0.01 * expect,
        "dissipated {energy:.4e} J vs ½CV² = {expect:.4e} J"
    );
}
