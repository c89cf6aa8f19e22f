//! Linear algebra for MNA systems: dense partial-pivot LU, sparse no-pivot
//! LU with reusable symbolic factorisation, and the [`SystemMatrix`]
//! dispatcher that picks between them and counts sparse→dense demotions.

mod dense;
mod sparse;

pub use dense::DenseMatrix;
pub use sparse::SparseMatrix;

use crate::error::CircuitError;

/// Unknown-count threshold above which assembly defaults to the sparse
/// backend (dense LU is faster below it and unconditionally robust).
pub const SPARSE_THRESHOLD: usize = 90;

/// Backend storage behind a [`SystemMatrix`].
///
/// The size asymmetry between the variants is deliberate: an analysis
/// owns exactly one long-lived `SystemMatrix`, so boxing the sparse
/// variant would buy nothing and cost an indirection on the hot path.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum Backend {
    Dense(DenseMatrix),
    Sparse(SparseMatrix),
}

/// The MNA system matrix behind an analysis, dense or sparse.
///
/// Stamping code only needs [`SystemMatrix::add`] / [`SystemMatrix::clear`]
/// / [`SystemMatrix::factor`] + [`SystemMatrix::substitute`] (or the
/// combined [`SystemMatrix::solve_in_place`]); the backend is chosen once
/// per analysis from the unknown count ([`SystemMatrix::auto`]). If the
/// no-pivot sparse factorisation ever hits a bad pivot, the matrix is
/// demoted to dense partial-pivot LU for that and all subsequent steps —
/// correctness never depends on the sparse path. Demotions are counted
/// here (surfaced through `RecoveryStats::dense_demotions`) and bump the
/// *epoch*, which invalidates baseline snapshots and cached factors.
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    backend: Backend,
    /// Bumped on structural growth and on demotion; value snapshots and
    /// cached factorisations are only valid within one epoch.
    epoch: u64,
    /// Sparse→dense fallback count for this matrix.
    demotions: u64,
}

impl SystemMatrix {
    /// Picks the backend appropriate for `n` unknowns.
    pub fn auto(n: usize) -> Self {
        if n >= SPARSE_THRESHOLD {
            Self::sparse(n)
        } else {
            Self::dense(n)
        }
    }

    /// Forces the dense backend (used by tests and the fallback path).
    pub fn dense(n: usize) -> Self {
        Self {
            backend: Backend::Dense(DenseMatrix::zeros(n)),
            epoch: 0,
            demotions: 0,
        }
    }

    /// Forces the sparse backend.
    pub fn sparse(n: usize) -> Self {
        Self {
            backend: Backend::Sparse(SparseMatrix::zeros(n)),
            epoch: 0,
            demotions: 0,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        match &self.backend {
            Backend::Dense(m) => m.dim(),
            Backend::Sparse(m) => m.dim(),
        }
    }

    /// `true` when the sparse backend is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse(_))
    }

    /// Structural/backing-store generation. Bumped whenever the value
    /// layout changes: sparse structural growth and sparse→dense demotion.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of sparse→dense demotions this matrix has performed.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Zeroes all values, keeping structure and factors.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Dense(m) => m.clear(),
            Backend::Sparse(m) => m.clear(),
        }
    }

    /// The backing value storage. Dense: row-major `n × n`; sparse: one
    /// entry per structural nonzero in insertion order. Together with
    /// [`SystemMatrix::restore_values`] this supports baseline snapshots
    /// of a partially assembled system.
    pub fn values(&self) -> &[f64] {
        match &self.backend {
            Backend::Dense(m) => m.values(),
            Backend::Sparse(m) => m.values(),
        }
    }

    /// Restores a value snapshot taken with [`SystemMatrix::values`].
    /// Slots created after the snapshot (sparse growth) are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is longer than the current value storage
    /// (impossible within one epoch — slots are append-only).
    pub fn restore_values(&mut self, baseline: &[f64]) {
        let vals = match &mut self.backend {
            Backend::Dense(m) => m.values_mut(),
            Backend::Sparse(m) => m.values_mut(),
        };
        vals[..baseline.len()].copy_from_slice(baseline);
        vals[baseline.len()..].fill(0.0);
    }

    /// Adds `value` at `(row, col)` — the stamping primitive.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        match &mut self.backend {
            Backend::Dense(m) => m.add(row, col, value),
            Backend::Sparse(m) => {
                if m.add(row, col, value) {
                    self.epoch += 1;
                }
            }
        }
    }

    /// `true` when a valid numeric factorisation is stored.
    pub fn is_factored(&self) -> bool {
        match &self.backend {
            Backend::Dense(m) => m.is_factored(),
            Backend::Sparse(m) => m.is_factored(),
        }
    }

    /// Factorises the current values, keeping them intact, and stores the
    /// factors for [`SystemMatrix::substitute`]. Falls back from sparse to
    /// dense on a bad pivot (permanently — the demotion is counted, the
    /// epoch bumps, and the global recovery ledger is notified).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] only when the dense
    /// partial-pivot factorisation itself fails (a genuinely singular
    /// system: floating node or broken topology).
    pub fn factor(&mut self) -> Result<(), CircuitError> {
        match &mut self.backend {
            Backend::Dense(m) => m.factor(),
            Backend::Sparse(m) => match m.factor() {
                Ok(()) => Ok(()),
                Err(CircuitError::SingularMatrix { .. }) => {
                    // Values are intact after a failed sparse factor;
                    // permanently demote to the robust dense path.
                    let mut dense = m.to_dense();
                    let result = dense.factor();
                    self.backend = Backend::Dense(dense);
                    self.epoch += 1;
                    self.demotions += 1;
                    crate::probe::record_global_demotion();
                    result
                }
                Err(e) => Err(e),
            },
        }
    }

    /// Test hook: demotes a sparse backend to dense exactly as a failed
    /// sparse factorisation would (values preserved, epoch bump, demotion
    /// counted), without needing a matrix the no-pivot LU actually
    /// rejects. Lets equivalence tests exercise the mid-run demotion path
    /// — baseline rebuild against the new slot scheme. No-op on a dense
    /// backend.
    #[cfg(test)]
    pub(crate) fn force_demote(&mut self) {
        if let Backend::Sparse(m) = &mut self.backend {
            let dense = m.to_dense();
            self.backend = Backend::Dense(dense);
            self.epoch += 1;
            self.demotions += 1;
            crate::probe::record_global_demotion();
        }
    }

    /// Solves `A·x = b` against the *stored* factors, overwriting `b`.
    /// The factors may be older than the current values — that is the
    /// point: chord Newton and per-step LU reuse substitute against a
    /// frozen Jacobian.
    ///
    /// # Panics
    ///
    /// Panics if no factorisation is stored.
    pub fn substitute(&mut self, b: &mut [f64]) {
        match &mut self.backend {
            Backend::Dense(m) => m.substitute(b),
            Backend::Sparse(m) => m.substitute(b),
        }
    }

    /// Computes `y = A·x` from the current values (not the factors).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        match &self.backend {
            Backend::Dense(m) => m.mul_vec_into(x, y),
            Backend::Sparse(m) => m.mul_vec_into(x, y),
        }
    }

    /// Factorises and solves `A·x = b` in place, falling back from sparse
    /// to dense on a bad pivot (and staying dense afterwards). Values
    /// survive; the factorisation stays stored.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] only when the dense
    /// partial-pivot factorisation itself fails (a genuinely singular
    /// system: floating node or broken topology).
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), CircuitError> {
        self.factor()?;
        self.substitute(b);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_picks_by_size() {
        assert!(!SystemMatrix::auto(10).is_sparse());
        assert!(SystemMatrix::auto(SPARSE_THRESHOLD).is_sparse());
    }

    #[test]
    fn sparse_falls_back_to_dense_on_bad_pivot() {
        // A permutation matrix defeats no-pivot LU but is trivially
        // solvable with partial pivoting.
        let mut m = SystemMatrix::sparse(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let mut x = vec![7.0, 9.0];
        m.solve_in_place(&mut x).expect("fallback solves");
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
        assert!(!m.is_sparse(), "demoted to dense after fallback");
        assert_eq!(m.demotions(), 1);
    }

    #[test]
    fn dense_and_sparse_agree_through_the_dispatcher() {
        let stamp = |m: &mut SystemMatrix| {
            m.add(0, 0, 3.0);
            m.add(1, 1, 4.0);
            m.add(0, 1, -1.0);
            m.add(1, 0, -2.0);
        };
        let mut d = SystemMatrix::dense(2);
        let mut s = SystemMatrix::sparse(2);
        stamp(&mut d);
        stamp(&mut s);
        let mut xd = vec![1.0, 2.0];
        let mut xs = vec![1.0, 2.0];
        d.solve_in_place(&mut xd).unwrap();
        s.solve_in_place(&mut xs).unwrap();
        assert!((xd[0] - xs[0]).abs() < 1e-12);
        assert!((xd[1] - xs[1]).abs() < 1e-12);
    }

    #[test]
    fn baseline_snapshot_restore_round_trips() {
        let mut m = SystemMatrix::sparse(3);
        m.add(0, 0, 1.0);
        m.add(1, 1, 2.0);
        let baseline = m.values().to_vec();
        m.add(1, 1, 5.0); // dynamic restamp on an existing slot
        m.add(2, 2, 7.0); // dynamic restamp growing a new slot
        m.restore_values(&baseline);
        assert_eq!(m.values(), &[1.0, 2.0, 0.0]);
    }

    #[test]
    fn substitute_reuses_factors_across_restamps() {
        let mut m = SystemMatrix::dense(2);
        m.add(0, 0, 2.0);
        m.add(1, 1, 4.0);
        m.factor().unwrap();
        // Restamp different values; substitution still uses the frozen
        // factors (that is the chord-Newton contract).
        m.clear();
        m.add(0, 0, 1000.0);
        m.add(1, 1, 1000.0);
        let mut x = vec![2.0, 4.0];
        m.substitute(&mut x);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // And mul_vec sees the *current* values.
        let mut y = vec![0.0, 0.0];
        m.mul_vec_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![1000.0, 1000.0]);
    }
}
