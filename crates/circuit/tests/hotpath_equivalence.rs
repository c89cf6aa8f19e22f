//! Equivalence properties of the Newton loop's configurations.
//!
//! The hot path (static/dynamic partition + LU reuse) must be
//! *numerically equivalent* to the reference configuration of the same
//! loop, [`HotPath::legacy`] (every device restamped, every iteration
//! factorised), for any device mix. The two agree within Newton's own
//! convergence tolerance: the only differences are ulp-level stamp
//! reordering and chord iterations that converge to the same fixed point.

use ftcam_circuit::analysis::{Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, CurrentSource, Diode, Resistor, TimedSwitch};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, HotPath, NewtonSettings, NodeId};
use proptest::prelude::*;

/// Parameters of one randomized ladder circuit mixing every stamp class.
#[derive(Debug, Clone)]
struct LadderParams {
    stages: usize,
    r: f64,
    c: f64,
    vdd: f64,
    with_diode: bool,
    with_switch: bool,
    with_isource: bool,
}

fn ladder_params() -> impl Strategy<Value = LadderParams> {
    (
        2usize..6,
        1e3..1e5f64,
        1.0..20.0f64,
        0.4..1.2f64,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(stages, r, c_ff, vdd, with_diode, with_switch, with_isource)| LadderParams {
                stages,
                r,
                c: c_ff * 1e-15,
                vdd,
                with_diode,
                with_switch,
                with_isource,
            },
        )
}

/// Builds the ladder: a pulsed rail driving `stages` RC sections, with an
/// optional diode (Dynamic), timed switch (TimeVarying) and current
/// source (Linear, rhs-only) so every stamp class is exercised.
fn build_ladder(p: &LadderParams) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let rail = ckt.node("rail");
    let wave = Waveform::pulse(0.0, p.vdd, 50e-12, 50e-12, 50e-12, 600e-12);
    ckt.pin(rail, "VDD", wave).expect("pin rail");
    let mut nodes = Vec::new();
    let mut prev = rail;
    for i in 0..p.stages {
        let n = ckt.node(&format!("s{i}"));
        ckt.add(Resistor::new(prev, n, p.r));
        ckt.add(Capacitor::new(n, ckt.ground(), p.c));
        nodes.push(n);
        prev = n;
    }
    if p.with_diode {
        ckt.add(Diode::new(nodes[0], ckt.ground(), 1e-15));
    }
    if p.with_switch {
        let last = *nodes.last().expect("at least one stage");
        ckt.add(TimedSwitch::new(
            last,
            ckt.ground(),
            1e3,
            1e12,
            false,
            vec![(400e-12, true), (900e-12, false)],
        ));
    }
    if p.with_isource {
        ckt.add(CurrentSource::dc(ckt.ground(), nodes[0], 1e-6));
    }
    (ckt, nodes)
}

/// Runs the ladder transient under the given hot-path configuration and
/// returns the per-node traces plus the supply energy.
fn run_with(p: &LadderParams, hot_path: HotPath) -> (Vec<Vec<f64>>, f64) {
    let (mut ckt, nodes) = build_ladder(p);
    let opts = TransientOpts::new(10e-12, 1.2e-9)
        .with_newton(NewtonSettings::new().with_hot_path(hot_path));
    let result = Transient::new(opts).run(&mut ckt).expect("transient runs");
    let traces = nodes
        .iter()
        .enumerate()
        .map(|(i, _)| {
            result
                .trace(&format!("s{i}"))
                .expect("trace recorded")
                .values()
                .to_vec()
        })
        .collect();
    let energy = result.supply_energy("VDD").expect("supply energy");
    (traces, energy)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Incremental assembly (baseline snapshot + dynamic restamp + LU
    /// reuse) converges to the same solution as the legacy full-restamp
    /// loop for any mix of Linear / TimeVarying / Dynamic devices.
    #[test]
    fn incremental_matches_full_restamp(p in ladder_params()) {
        let hot = run_with(&p, HotPath::default());
        let legacy = run_with(&p, HotPath::legacy());
        for (h, l) in hot.0.iter().zip(legacy.0.iter()) {
            prop_assert_eq!(h.len(), l.len());
            for (a, b) in h.iter().zip(l.iter()) {
                prop_assert!(
                    (a - b).abs() < 1e-3,
                    "trace diverged: hot {a} vs legacy {b}"
                );
            }
        }
        let (eh, el) = (hot.1, legacy.1);
        prop_assert!(
            (eh - el).abs() <= 0.01 * el.abs().max(1e-18),
            "supply energy diverged: hot {eh:.3e} vs legacy {el:.3e}"
        );
    }

    /// Disabling only the chord/LU-reuse layer (keeping incremental
    /// assembly) also stays within tolerance — isolates the
    /// chord iteration as the only source of sub-tolerance drift.
    #[test]
    fn lu_reuse_stays_within_tolerance(p in ladder_params()) {
        let reused = run_with(&p, HotPath::default());
        let refactored = run_with(&p, HotPath { lu_reuse: false, ..HotPath::default() });
        for (h, l) in reused.0.iter().zip(refactored.0.iter()) {
            for (a, b) in h.iter().zip(l.iter()) {
                prop_assert!((a - b).abs() < 1e-3, "trace diverged: {a} vs {b}");
            }
        }
    }
}
