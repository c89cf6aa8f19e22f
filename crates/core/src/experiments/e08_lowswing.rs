//! E8 / Fig. 8 — the low-swing knob: energy/delay/margin vs precharge
//! fraction α (the design-space curve behind the EA-LS operating point).

use ftcam_cells::{CellError, FeFetTcam};
use ftcam_workloads::{Ternary, TernaryWord};

use crate::report::{Artifact, Figure};
use crate::Evaluator;

/// Parameters for the α sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Precharge fractions to sweep.
    pub alphas: Vec<f64>,
    /// Word width.
    pub width: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            alphas: vec![0.3, 0.5, 0.7, 1.0],
            width: 16,
        }
    }
}

impl Params {
    /// Paper-scale preset.
    pub fn full() -> Self {
        Self {
            alphas: vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            width: 64,
        }
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(eval: &Evaluator, params: &Params) -> Result<Artifact, CellError> {
    let stored: TernaryWord = (0..params.width)
        .map(|i| {
            if i % 2 == 0 {
                Ternary::One
            } else {
                Ternary::Zero
            }
        })
        .collect();
    let miss = stored.with_spread_mismatches(1);
    let timing = eval.timing().clone();

    // One job per α point — each point builds its own testbench.
    let points = eval.executor().run(&params.alphas, |_, &alpha| {
        let mut row = eval.testbench_with(Box::new(FeFetTcam::low_swing(alpha)), params.width)?;
        row.program_word(&stored)?;
        let hit = row.search(&stored, &timing)?;
        let missr = row.search(&miss, &timing)?;
        let energy = 0.5 * (hit.energy_total + missr.energy_total);
        let delay = hit.latency.max(missr.latency);
        Ok::<_, CellError>([
            energy * 1e15,
            delay * 1e9,
            hit.sense_margin.min(missr.sense_margin),
            energy * delay * 1e24, // fJ·ns
        ])
    })?;
    let column = |i: usize| points.iter().map(|p| p[i]).collect::<Vec<f64>>();
    let (e_fj, d_ns, m_v, edp) = (column(0), column(1), column(2), column(3));

    let mut fig = Figure::new(
        "fig8",
        "Low-swing trade-off vs precharge fraction α (V_pre = α·V_DD)",
        "precharge fraction α",
        "energy (fJ), delay (ns), margin (V), EDP (fJ·ns)",
        params.alphas.clone(),
    );
    fig.push_series("search energy (fJ)", e_fj);
    fig.push_series("search delay (ns)", d_ns);
    fig.push_series("sense margin (V)", m_v);
    fig.push_series("EDP (fJ·ns)", edp);
    fig.note("energy averaged over match and 1-bit-mismatch searches");
    Ok(Artifact::Figure(fig))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_and_margin_both_shrink_with_alpha() {
        let eval = Evaluator::quick();
        let params = Params {
            alphas: vec![0.4, 1.0],
            width: 8,
        };
        let Artifact::Figure(fig) = run(&eval, &params).unwrap() else {
            panic!("expected figure")
        };
        let energy = &fig.series[0].y;
        let margin = &fig.series[2].y;
        assert!(energy[0] < energy[1], "α = 0.4 must save energy");
        assert!(margin[0] < margin[1], "α = 0.4 must cost margin");
        assert!(margin[0] > 0.0, "still functional at α = 0.4");
    }
}
