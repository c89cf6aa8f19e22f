//! Stamping and commit contexts passed to devices.
//!
//! The same [`StampCtx`] serves two modes:
//!
//! * **Assemble** — build the Newton-linearised MNA system `A·x = z`.
//! * **Measure** — after convergence, re-run the stamps to accumulate the
//!   exact terminal current flowing out of every node. Pinned-source nodes
//!   then directly yield the current each ideal source delivers, which feeds
//!   the energy meter; free nodes must sum to ≈ 0 (KCL), which doubles as an
//!   internal consistency check. Devices also report the power they
//!   dissipate at the converged point ([`StampCtx::dissipate`]), which
//!   feeds the per-device energy report.

use serde::{Deserialize, Serialize};

use crate::linalg::SystemMatrix;
use crate::node::NodeId;

/// Numerical integration method for reactive companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IntegrationMethod {
    /// First-order, L-stable. Damps the stiff precharge edges of TCAM
    /// testbenches without ringing; the project default.
    #[default]
    BackwardEuler,
    /// Second-order, A-stable. More accurate for smooth waveforms; used in
    /// cross-checking tests.
    Trapezoidal,
}

/// Classification of each node in the unknown map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarKind {
    /// The global reference; voltage is identically zero.
    Ground,
    /// Driven by an ideal pinned source; voltage known at every instant.
    Pinned(usize),
    /// A free node with an unknown voltage at column `usize`.
    Free(usize),
}

/// Mapping from circuit nodes to MNA unknowns.
#[derive(Debug, Clone)]
pub(crate) struct VarMap {
    pub kinds: Vec<VarKind>,
    pub n_free: usize,
    pub n_branches: usize,
}

impl VarMap {
    pub fn n_unknowns(&self) -> usize {
        self.n_free + self.n_branches
    }

    pub fn branch_col(&self, branch: usize) -> usize {
        self.n_free + branch
    }
}

/// Voltage of a node of kind `kind`, given candidate `x` and pinned values.
#[inline]
fn kind_v(kind: VarKind, x: &[f64], pinned: &[f64]) -> f64 {
    match kind {
        VarKind::Ground => 0.0,
        VarKind::Pinned(p) => pinned[p],
        VarKind::Free(col) => x[col],
    }
}

/// Voltage of `node` given the unknown map, candidate `x` and pinned values.
#[inline]
fn node_v(vars: &VarMap, x: &[f64], pinned: &[f64], node: NodeId) -> f64 {
    kind_v(vars.kinds[node.index()], x, pinned)
}

pub(crate) enum StampMode<'a> {
    Assemble {
        matrix: &'a mut SystemMatrix,
        rhs: &'a mut [f64],
    },
    Measure {
        /// Net current flowing out of each node into devices, indexed by
        /// node index (length = node count).
        current_out: &'a mut [f64],
        /// Dissipated power per device, indexed by device index.
        power: &'a mut [f64],
    },
}

/// The view a [`crate::Device`] gets of the system being assembled.
///
/// All stamping primitives follow the convention that a positive current
/// flows *from* the first node *to* the second node **through the device**.
pub struct StampCtx<'a> {
    pub(crate) mode: StampMode<'a>,
    pub(crate) vars: &'a VarMap,
    /// Candidate solution (free node voltages then branch currents).
    pub(crate) x: &'a [f64],
    /// Voltages of pinned nodes at the current time.
    pub(crate) pinned: &'a [f64],
    pub(crate) time: f64,
    /// `None` during DC analysis.
    pub(crate) dt: Option<f64>,
    pub(crate) method: IntegrationMethod,
    /// Index of the device being stamped (measure mode books its power).
    pub(crate) device: usize,
}

impl<'a> StampCtx<'a> {
    /// Candidate voltage of `node` at this Newton iteration.
    #[inline]
    pub fn v(&self, node: NodeId) -> f64 {
        node_v(self.vars, self.x, self.pinned, node)
    }

    /// Candidate current of branch unknown `branch`.
    #[inline]
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.x[self.vars.branch_col(branch)]
    }

    /// Absolute simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current step size; `None` during DC analysis.
    pub fn dt(&self) -> Option<f64> {
        self.dt
    }

    /// `true` while solving the DC operating point.
    pub fn is_dc(&self) -> bool {
        self.dt.is_none()
    }

    /// Active integration method.
    pub fn method(&self) -> IntegrationMethod {
        self.method
    }

    /// Stamps an element-local block over the `N` terminals `nodes`.
    ///
    /// `block` receives the candidate terminal voltages and returns the
    /// linearisation `(g, i)`: the current flowing out of terminal `k`
    /// into the device is `i[k] + Σ_j g[k][j]·v[j]`. Each terminal is
    /// resolved to its unknown once; assembly then adds `g[k][j]` at
    /// (row `k`, column `j`) for free terminals, moves pinned columns to
    /// the right-hand side with `i`, and drops ground. Terminals may
    /// coincide (a diode-connected transistor): their rows and columns
    /// simply accumulate. Every entry of `g` is stamped, zero or not, so
    /// the matrix structure does not depend on the operating point.
    pub fn stamp_local<const N: usize>(
        &mut self,
        nodes: [NodeId; N],
        block: impl FnOnce([f64; N]) -> ([[f64; N]; N], [f64; N]),
    ) {
        let kinds = nodes.map(|n| self.vars.kinds[n.index()]);
        let v = kinds.map(|k| kind_v(k, self.x, self.pinned));
        let (g, i) = block(v);
        match &mut self.mode {
            StampMode::Measure { current_out, .. } => {
                for k in 0..N {
                    let out = g[k]
                        .iter()
                        .zip(&v)
                        .fold(i[k], |acc, (gk, vj)| acc + gk * vj);
                    current_out[nodes[k].index()] += out;
                }
            }
            StampMode::Assemble { matrix, rhs } => {
                for k in 0..N {
                    let VarKind::Free(row) = kinds[k] else {
                        continue;
                    };
                    let mut z = -i[k];
                    for j in 0..N {
                        match kinds[j] {
                            VarKind::Free(col) => matrix.add(row, col, g[k][j]),
                            VarKind::Ground => {}
                            VarKind::Pinned(p) => z -= g[k][j] * self.pinned[p],
                        }
                    }
                    rhs[row] += z;
                }
            }
        }
    }

    /// Reports the power (watts) this device dissipates at the candidate
    /// point. Counted in measure mode, which runs once per accepted step at
    /// the converged solution; ignored during assembly.
    pub fn dissipate(&mut self, watts: f64) {
        if let StampMode::Measure { power, .. } = &mut self.mode {
            power[self.device] += watts;
        }
    }

    /// Stamps a conductance `g` between `a` and `b` (current `g·(v_a − v_b)`
    /// flows from `a` to `b` through the device).
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        self.stamp_local([a, b], |_| ([[g, -g], [-g, g]], [0.0; 2]));
    }

    /// Stamps an independent current `i` flowing from `from` to `to` through
    /// the device (the Norton/companion-model source term).
    pub fn stamp_current(&mut self, from: NodeId, to: NodeId, i: f64) {
        self.stamp_local([from, to], |_| ([[0.0; 2]; 2], [i, -i]));
    }

    /// Stamps an ideal voltage source of value `v` between `plus` and
    /// `minus` through branch unknown `branch`.
    pub fn stamp_branch_voltage(&mut self, branch: usize, plus: NodeId, minus: NodeId, v: f64) {
        let vars = self.vars;
        let (x, pinned) = (self.x, self.pinned);
        let bcol = vars.branch_col(branch);
        match &mut self.mode {
            StampMode::Measure { current_out, .. } => {
                let i = x[bcol];
                current_out[plus.index()] += i;
                current_out[minus.index()] -= i;
            }
            StampMode::Assemble { matrix, rhs } => {
                // KCL rows: branch current leaves `plus`, enters `minus`.
                if let VarKind::Free(row) = vars.kinds[plus.index()] {
                    matrix.add(row, bcol, 1.0);
                }
                if let VarKind::Free(row) = vars.kinds[minus.index()] {
                    matrix.add(row, bcol, -1.0);
                }
                // Branch row: v_plus − v_minus = v.
                let brow = bcol;
                rhs[brow] += v;
                for (node, sign) in [(plus, 1.0), (minus, -1.0)] {
                    match vars.kinds[node.index()] {
                        VarKind::Free(col) => matrix.add(brow, col, sign),
                        VarKind::Ground => {}
                        VarKind::Pinned(p) => rhs[brow] -= sign * pinned[p],
                    }
                }
            }
        }
    }
}

/// Read-only view of the committed solution handed to [`crate::Device::commit`].
pub struct CommitCtx<'a> {
    pub(crate) vars: &'a VarMap,
    pub(crate) x: &'a [f64],
    pub(crate) pinned: &'a [f64],
    pub(crate) time: f64,
    pub(crate) dt: Option<f64>,
    pub(crate) method: IntegrationMethod,
}

impl<'a> CommitCtx<'a> {
    /// Committed voltage of `node`.
    #[inline]
    pub fn v(&self, node: NodeId) -> f64 {
        node_v(self.vars, self.x, self.pinned, node)
    }

    /// Committed current of branch unknown `branch`.
    #[inline]
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.x[self.vars.branch_col(branch)]
    }

    /// Absolute simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The step that was just accepted; `None` right after DC.
    pub fn dt(&self) -> Option<f64> {
        self.dt
    }

    /// Active integration method.
    pub fn method(&self) -> IntegrationMethod {
        self.method
    }
}
