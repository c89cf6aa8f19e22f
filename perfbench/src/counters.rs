//! The transient solver's process-wide counters, read as deltas.
//!
//! The counters are global, so a delta is exact only while no other thread
//! simulates; the benchmark runs one executor thread and reads deltas
//! around its own single-threaded calls.

use ftcam_circuit::{RecoveryStats, SolverPerf, StepStats};

use crate::metrics::Metrics;

/// One snapshot (or delta) of the step, solver and recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Circuit {
    /// Accepted/rejected steps, halvings, Newton iterations.
    pub steps: StepStats,
    /// Factorisations, substitutions, LU bypasses, reuse counters.
    pub solver: SolverPerf,
    /// Recovery-ladder activity and dense demotions.
    pub recovery: RecoveryStats,
}

impl Circuit {
    /// The process-wide totals now.
    pub fn global() -> Self {
        Self {
            steps: ftcam_circuit::global_step_stats(),
            solver: ftcam_circuit::global_solver_stats(),
            recovery: ftcam_circuit::global_recovery_stats(),
        }
    }

    /// Counter-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            steps: self.steps.since(&earlier.steps),
            solver: self.solver.since(&earlier.solver),
            recovery: self.recovery.since(&earlier.recovery),
        }
    }

    /// Adds another delta.
    pub fn add(&mut self, other: &Self) {
        self.steps += other.steps;
        self.solver += other.solver;
        self.recovery += other.recovery;
    }

    /// Records the `circuit.*` metrics for this delta spread over `per`
    /// rounds, with `host_s` the time spent in the calls that simulated.
    pub fn record(&self, m: &mut Metrics, per: f64, host_s: f64) {
        let (s, v, r) = (&self.steps, &self.solver, &self.recovery);
        let counts = [
            ("circuit.steps_accepted", s.accepted),
            ("circuit.steps_rejected", s.rejected),
            ("circuit.newton_iters", s.newton_iters),
            ("circuit.factorizations", v.factorizations),
            ("circuit.substitutions", v.substitutions),
            ("circuit.baseline_reuses", v.baseline_reuses),
            ("circuit.recovery_retries", r.retries()),
            ("circuit.tape_replays", v.tape_replays),
            ("circuit.tape_mismatches", v.tape_mismatches),
            ("circuit.dense_demotions", r.dense_demotions),
        ];
        for (name, count) in counts {
            m.set(name, count as f64 / per);
        }
        m.set("circuit.lu_bypass_ratio", v.bypass_rate());
        if s.accepted > 0 {
            m.set("circuit.host_us_per_step", host_s * 1e6 / s.accepted as f64);
        }
    }

    /// One-line summary for the report.
    pub fn summary(&self) -> String {
        format!(
            "{} accepted / {} rejected steps, {} Newton iterations, {} factorisations / \
             {} substitutions ({:.0}% LU bypass), {} recovery retries, {} dense demotions",
            self.steps.accepted,
            self.steps.rejected,
            self.steps.newton_iters,
            self.solver.factorizations,
            self.solver.substitutions,
            self.solver.bypass_rate() * 100.0,
            self.recovery.retries(),
            self.recovery.dense_demotions
        )
    }
}
