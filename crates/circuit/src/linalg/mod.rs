//! Linear algebra for MNA systems: a sparse fixed-order LU with reusable
//! symbolic factorisation and a pivot threshold, dense partial-pivot LU as
//! its fallback, and the [`SystemMatrix`] that starts every system sparse
//! and counts sparse→dense demotions.

mod dense;
mod sparse;

pub use dense::DenseMatrix;
pub use sparse::SparseMatrix;

use crate::error::CircuitError;

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

/// The MNA system matrix behind an analysis.
///
/// Stamping code only needs [`SystemMatrix::add`] / [`SystemMatrix::clear`]
/// / [`SystemMatrix::factor`] + [`SystemMatrix::substitute`] (or the
/// combined [`SystemMatrix::solve_in_place`]). Every system starts on the
/// sparse backend, whatever its size. If the fixed-order sparse
/// factorisation meets a pivot it does not trust (non-finite, below
/// `1e-300`, or below `1e-3` of its `U` row's largest entry), the matrix
/// is demoted to dense partial-pivot LU for that and all subsequent
/// steps, so correctness never rests on the fixed ordering. Demotions are
/// counted here (surfaced through `RecoveryStats::dense_demotions`) and
/// bump the *epoch*, which invalidates baseline snapshots and cached
/// factors.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::linalg::SystemMatrix;
///
/// let mut m = SystemMatrix::new(2);
/// m.add(0, 0, 2.0);
/// m.add(1, 1, 4.0);
/// let mut x = vec![2.0, 4.0];
/// m.solve_in_place(&mut x)?;
/// assert_eq!(x, vec![1.0, 1.0]);
/// assert!(m.is_sparse());
/// # Ok::<(), ftcam_circuit::CircuitError>(())
/// ```
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
    /// Creates an `n × n` system on the sparse backend.
    pub fn new(n: usize) -> Self {
        Self {
            backend: Backend::Sparse(SparseMatrix::zeros(n)),
            epoch: 0,
            demotions: 0,
        }
    }

    /// Replaces the sparse backend by a dense copy of its values, counting
    /// the demotion and bumping the epoch. No-op on a dense backend.
    fn demote(&mut self) {
        if let Backend::Sparse(m) = &self.backend {
            self.backend = Backend::Dense(m.to_dense());
            self.epoch += 1;
            self.demotions += 1;
            crate::probe::record_global_demotion();
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
    /// dense on an untrusted pivot (permanently — the demotion is counted, the
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
                // Values are intact after a failed sparse factor; demote
                // permanently to the robust dense path.
                Err(CircuitError::SingularMatrix { .. }) => {
                    self.demote();
                    self.factor()
                }
                other => other,
            },
        }
    }

    /// Test hook: demotes a sparse backend to dense exactly as a failed
    /// sparse factorisation would (values preserved, epoch bump, demotion
    /// counted), without needing a matrix the sparse LU actually
    /// rejects. Lets equivalence tests exercise the mid-run demotion path
    /// — baseline rebuild against the new slot scheme. No-op on a dense
    /// backend.
    #[cfg(test)]
    pub(crate) fn force_demote(&mut self) {
        self.demote();
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
    /// to dense on an untrusted pivot (and staying dense afterwards). Values
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
    fn every_size_starts_sparse_and_only_demotion_makes_it_dense() {
        for n in [1usize, 2, 10, 89, 90, 400] {
            let mut m = SystemMatrix::new(n);
            assert!(m.is_sparse(), "n = {n}");
            for i in 0..n {
                m.add(i, i, 2.0);
            }
            let mut x = vec![1.0; n];
            m.solve_in_place(&mut x).unwrap();
            assert!(m.is_sparse(), "n = {n}: a trusted solve stays sparse");
            assert_eq!(m.demotions(), 0);
        }
        // A permutation matrix has zero diagonals, which the fixed-order
        // LU cannot pivot on; partial pivoting solves it.
        let mut m = SystemMatrix::new(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let epoch = m.epoch();
        let mut x = vec![7.0, 9.0];
        m.solve_in_place(&mut x).expect("fallback solves");
        assert_eq!(x, vec![9.0, 7.0]);
        assert!(!m.is_sparse(), "demoted to dense after fallback");
        assert_eq!(m.demotions(), 1);
        assert!(m.epoch() > epoch, "demotion bumps the epoch");
        // Later factorisations stay dense and are not counted again.
        m.solve_in_place(&mut x).unwrap();
        assert_eq!(m.demotions(), 1);
    }

    #[test]
    fn tiny_relative_pivot_demotes_to_partial_pivoting() {
        // MNA-like: node 0 is a cut-off drain (0.1 pS to ground) whose row
        // carries a 100 µS transconductance from gate node 1, and node 0
        // in turn gates a transistor draining node 2; nodes 1–3 form a
        // resistive ladder. Degree ordering eliminates node 0 first, so
        // the fixed ordering meets a pivot of 1e-9 relative to its row.
        let a = [
            [1e-13, 1e-4, 0.0, 0.0],
            [0.0, 1.1e-3, -1e-3, 0.0],
            [1e-4, -1e-3, 2e-3, -1e-3],
            [0.0, 0.0, -1e-3, 2e-3],
        ];
        let b = [1e-4, 2e-4, -3e-4, 1e-4];
        let mut m = SystemMatrix::new(4);
        let mut dense = DenseMatrix::zeros(4);
        for (r, row) in a.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    m.add(r, c, v);
                    dense.add(r, c, v);
                }
            }
        }
        let mut x = b.to_vec();
        m.solve_in_place(&mut x).unwrap();
        // Normwise backward error against the bound partial pivoting
        // meets on a well-scaled system: ‖b − A·x‖∞ ≤ 8·n·ε·(‖A‖∞‖x‖∞ + ‖b‖∞).
        let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        let a_inf = a
            .iter()
            .map(|r| r.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let residual: Vec<f64> = a
            .iter()
            .zip(&b)
            .map(|(row, bi)| bi - row.iter().zip(&x).map(|(aij, xj)| aij * xj).sum::<f64>())
            .collect();
        let bound = 8.0 * 4.0 * f64::EPSILON * (a_inf * inf(&x) + inf(&b));
        assert!(
            inf(&residual) <= bound,
            "backward error {:e} above {bound:e}",
            inf(&residual)
        );
        assert_eq!(m.demotions(), 1, "the 1e-9 pivot must be refused");
        assert!(!m.is_sparse());
        let mut x_dense = b.to_vec();
        dense.solve_in_place(&mut x_dense).unwrap();
        assert_eq!(x, x_dense, "the demoted solve is partial pivoting");
    }

    #[test]
    fn baseline_snapshot_restore_round_trips() {
        let mut m = SystemMatrix::new(3);
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
        let mut m = SystemMatrix::new(2);
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
