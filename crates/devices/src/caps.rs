//! Linear capacitances folded into the MOSFET and FeFET models.

use ftcam_circuit::{CommitCtx, IntegrationMethod, NodeId};

/// Terminal indices of the element-local `(drain, gate, source)` block.
pub(crate) const D: usize = 0;
pub(crate) const G: usize = 1;
pub(crate) const S: usize = 2;

/// One linear capacitance with its companion-model history.
#[derive(Debug, Clone)]
struct CapState {
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

impl CapState {
    fn new(c: f64) -> Self {
        Self {
            c,
            v_prev: 0.0,
            i_prev: 0.0,
        }
    }

    /// Companion conductance and history current at step `dt`.
    fn companion(&self, dt: f64, method: IntegrationMethod) -> (f64, f64) {
        match method {
            IntegrationMethod::BackwardEuler => {
                let g = self.c / dt;
                (g, -g * self.v_prev)
            }
            IntegrationMethod::Trapezoidal => {
                let g = 2.0 * self.c / dt;
                (g, -g * self.v_prev - self.i_prev)
            }
        }
    }

    /// Adds the companion model between local terminals `a` and `b`
    /// (`None` = ground) to the block `(g, i)`.
    fn stamp_into(
        &self,
        dt: f64,
        method: IntegrationMethod,
        a: usize,
        b: Option<usize>,
        g: &mut [[f64; 3]; 3],
        i: &mut [f64; 3],
    ) {
        if self.c <= 0.0 {
            return;
        }
        let (gc, ieq) = self.companion(dt, method);
        g[a][a] += gc;
        i[a] += ieq;
        if let Some(b) = b {
            g[a][b] -= gc;
            g[b][a] -= gc;
            g[b][b] += gc;
            i[b] -= ieq;
        }
    }

    /// Records the accepted voltage `v` across the capacitance.
    fn commit(&mut self, ctx: &CommitCtx<'_>, v: f64) {
        self.i_prev = match ctx.dt() {
            Some(dt) => {
                let (g, ieq) = self.companion(dt, ctx.method());
                g * v + ieq
            }
            None => 0.0,
        };
        self.v_prev = v;
    }
}

/// The four capacitances of a transistor: gate–source and gate–drain
/// (half the channel plus overlap each) and the drain and source
/// junctions to ground.
#[derive(Debug, Clone)]
pub(crate) struct GateStack {
    cgs: CapState,
    cgd: CapState,
    cdb: CapState,
    csb: CapState,
}

impl GateStack {
    pub fn new(c_gate: f64, c_junction: f64) -> Self {
        Self {
            cgs: CapState::new(c_gate),
            cgd: CapState::new(c_gate),
            cdb: CapState::new(c_junction),
            csb: CapState::new(c_junction),
        }
    }

    /// Sums the companion models into the `(drain, gate, source)` block;
    /// open circuits in DC (`dt == None`).
    pub fn stamp_into(
        &self,
        dt: Option<f64>,
        method: IntegrationMethod,
        g: &mut [[f64; 3]; 3],
        i: &mut [f64; 3],
    ) {
        let Some(dt) = dt else { return };
        self.cgs.stamp_into(dt, method, G, Some(S), g, i);
        self.cgd.stamp_into(dt, method, G, Some(D), g, i);
        self.cdb.stamp_into(dt, method, D, None, g, i);
        self.csb.stamp_into(dt, method, S, None, g, i);
    }

    /// Records the accepted terminal voltages `[drain, gate, source]`.
    pub fn commit(&mut self, ctx: &CommitCtx<'_>, nodes: [NodeId; 3]) {
        let [vd, vg, vs] = nodes.map(|n| ctx.v(n));
        self.cgs.commit(ctx, vg - vs);
        self.cgd.commit(ctx, vg - vd);
        self.cdb.commit(ctx, vd);
        self.csb.commit(ctx, vs);
    }

    /// Starts the history at the initial terminal voltages.
    pub fn init(&mut self, ctx: &CommitCtx<'_>, nodes: [NodeId; 3]) {
        let [vd, vg, vs] = nodes.map(|n| ctx.v(n));
        for (cap, v) in [
            (&mut self.cgs, vg - vs),
            (&mut self.cgd, vg - vd),
            (&mut self.cdb, vd),
            (&mut self.csb, vs),
        ] {
            cap.v_prev = v;
            cap.i_prev = 0.0;
        }
    }
}
