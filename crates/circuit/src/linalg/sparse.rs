//! Sparse LU solver for every MNA system.
//!
//! The testbenches pin every driver, so their MNA matrices are
//! conductance matrices with a handful of nonzeros per row (each node
//! couples only to its neighbours plus a global match line). This module
//! implements the classic **up-looking row LU with a fixed ordering**:
//!
//! 1. a one-time *symbolic* pass orders the unknowns by degree and
//!    computes the pattern of every row of `L`/`U` including fill-in, as
//!    flat index arrays with per-row offsets;
//! 2. each *numeric* pass ([`SparseMatrix::factor`]) scatters a row into a
//!    dense workspace, eliminates against the already-factorised rows
//!    following the precomputed pattern, and gathers the results into the
//!    flat `L`/`U` value arrays — no per-solve allocation;
//! 3. [`SparseMatrix::substitute`] applies the stored factors to a
//!    right-hand side, so one factorisation can serve many solves (chord
//!    Newton, repeated linear steps).
//!
//! Because the sparsity pattern of an MNA system is fixed across Newton
//! iterations and time steps, the symbolic pass is paid once per analysis.
//!
//! The ordering never looks at values, so the factorisation checks each
//! pivot instead: a pivot is accepted only if it is finite, above
//! [`PIVOT_TOL`] and at least [`PIVOT_REL`] times the largest entry of
//! its `U` row (a row-wise threshold test in the spirit of SPICE3's
//! `pivrel` and KLU's threshold pivoting). Free nodes carry a positive
//! `gmin` diagonal and device stamps add non-negative diagonal
//! conductance, so conductance rows pass; a row that fails (a branch
//! equation with a structurally zero diagonal, or a transconductance that
//! dwarfs its row's self-conductance) is reported as
//! [`CircuitError::SingularMatrix`], and the caller demotes the system to
//! dense partial pivoting — see [`crate::linalg::SystemMatrix`].

use crate::error::CircuitError;

/// Threshold below which a pivot is treated as numerically singular.
const PIVOT_TOL: f64 = 1e-300;

/// Smallest accepted ratio of a pivot to the largest entry of its `U` row.
const PIVOT_REL: f64 = 1e-3;

/// `slot_of` marker for a coordinate with no structural entry yet.
const NO_SLOT: u32 = u32::MAX;

/// A sparse square matrix with a reusable fixed-order LU factorisation.
///
/// Value slots are assigned in first-insertion order and located through
/// a direct-addressed `n × n` table (`slot_of[row * n + col]`, the same
/// indexing the dense backend uses), so a stamp costs one array read and
/// no hashing. The table takes `4·n²` bytes: about 0.3 MB at the
/// 261–278 unknowns of a 64-bit row testbench.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    n: usize,
    /// Slot lookup: `slot_of[row * n + col]` is the index into `values`,
    /// or [`NO_SLOT`] when `(row, col)` is structurally zero.
    slot_of: Vec<u32>,
    /// Coordinates per slot, in insertion order.
    coords: Vec<(u32, u32)>,
    /// Current numeric values per slot.
    values: Vec<f64>,
    /// Symbolic factorisation, built lazily on first factor.
    symbolic: Option<Symbolic>,
    /// Flat `L` factor values (layout given by `Symbolic::l_off`).
    l_vals: Vec<f64>,
    /// Flat `U` factor values (layout given by `Symbolic::u_off`;
    /// `u_vals[u_off[i]]` is the diagonal of permuted row `i`).
    u_vals: Vec<f64>,
    /// Dense scatter workspace for the numeric pass.
    work: Vec<f64>,
    /// Permuted-rhs scratch for substitution.
    pb: Vec<f64>,
    /// Whether `l_vals`/`u_vals` hold a valid decomposition.
    factored: bool,
}

/// Precomputed elimination patterns (in permuted index space), stored as
/// flat index arrays: row `i` of a pattern is `idx[off[i]..off[i + 1]]`.
#[derive(Debug, Clone)]
struct Symbolic {
    /// Symmetric fill-reducing permutation: `perm[new] = old`. Hubs (the
    /// match line couples to every cell) are ordered last, where they
    /// cause no fill; static degree ordering captures this exactly for
    /// the star-shaped MNA graphs testbenches produce.
    perm: Vec<u32>,
    /// Strictly-lower column indices per permuted row (ascending): the
    /// pivots the row eliminates against, including fill.
    l_idx: Vec<u32>,
    /// Offsets of each permuted row into `l_idx` and the `L` values
    /// (`len == n + 1`).
    l_off: Vec<u32>,
    /// Upper column indices `≥ i` per permuted row `i` (ascending),
    /// including fill; the first entry of each row is the diagonal.
    u_idx: Vec<u32>,
    /// Offsets of each permuted row into `u_idx` and the `U` values
    /// (`len == n + 1`).
    u_off: Vec<u32>,
    /// `(permuted column, value-slot)` pairs of the structural nonzeros of
    /// `A` per permuted row (scatter list for the numeric pass).
    slots: Vec<(u32, u32)>,
    /// Offsets of each permuted row into `slots` (`len == n + 1`).
    s_off: Vec<u32>,
}

/// Concatenates per-row lists into one flat array plus `n + 1` offsets.
fn flatten<T: Copy>(rows: &[Vec<T>]) -> (Vec<T>, Vec<u32>) {
    let mut off = Vec::with_capacity(rows.len() + 1);
    off.push(0);
    let mut flat = Vec::with_capacity(rows.iter().map(Vec::len).sum());
    for row in rows {
        flat.extend_from_slice(row);
        off.push(flat.len() as u32);
    }
    (flat, off)
}

/// The index range of row `i` in a flat array with offsets `off`.
#[inline]
fn span(off: &[u32], i: usize) -> std::ops::Range<usize> {
    off[i] as usize..off[i + 1] as usize
}

impl SparseMatrix {
    /// Creates an `n × n` all-zero sparse matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            slot_of: vec![NO_SLOT; n * n],
            coords: Vec::new(),
            values: Vec::new(),
            symbolic: None,
            l_vals: Vec::new(),
            u_vals: Vec::new(),
            work: Vec::new(),
            pb: Vec::new(),
            factored: false,
        }
    }

    /// Zeroes all values, keeping the structure, the symbolic
    /// factorisation, and any stored numeric factors (chord Newton
    /// reassembles values while substituting against frozen factors).
    pub fn clear(&mut self) {
        self.values.fill(0.0);
    }

    /// The backing value storage, indexed by slot (insertion order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the backing value storage.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Adds `value` at `(row, col)` — the MNA stamping primitive.
    ///
    /// The first add at a new coordinate appends a slot, extends the
    /// structure and invalidates the symbolic and numeric factorisations;
    /// subsequent adds are one table read. Stamp patterns are fixed in
    /// MNA, so steady state is reached after the first assembly. Returns
    /// whether the structure grew.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) -> bool {
        // Without this check an out-of-range column would alias another
        // entry of the direct-addressed table.
        assert!(row < self.n && col < self.n, "index out of bounds");
        let at = row * self.n + col;
        let slot = self.slot_of[at];
        if slot != NO_SLOT {
            self.values[slot as usize] += value;
            return false;
        }
        self.slot_of[at] = self.values.len() as u32;
        self.coords.push((row as u32, col as u32));
        self.values.push(value);
        self.symbolic = None;
        self.factored = false;
        true
    }

    /// Dense copy of the current values (for the fallback path and tests).
    pub fn to_dense(&self) -> super::DenseMatrix {
        let mut dense = super::DenseMatrix::zeros(self.n);
        for (slot, &(r, c)) in self.coords.iter().enumerate() {
            dense.add(r as usize, c as usize, self.values[slot]);
        }
        dense
    }

    /// Computes `y = A·x` from the stamped values (not the factors).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` does not have length `n`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for (slot, &(r, c)) in self.coords.iter().enumerate() {
            y[r as usize] += self.values[slot] * x[c as usize];
        }
    }

    /// Builds (or reuses) the symbolic factorisation.
    fn ensure_symbolic(&mut self) {
        if self.symbolic.is_some() {
            return;
        }
        let n = self.n;
        // Static fill-reducing ordering: sort indices by structural degree
        // (off-diagonal nonzeros, symmetrised), lowest first. Leaves come
        // first, hubs last — optimal for the star/arrowhead graphs MNA
        // produces and never worse than natural order by more than the
        // degree tie-breaking.
        let mut degree = vec![0u32; n];
        for &(r, c) in &self.coords {
            if r != c {
                degree[r as usize] += 1;
                degree[c as usize] += 1;
            }
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&i| (degree[i as usize], i));
        let mut inv = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        // Row-wise structural pattern of P·A·Pᵀ, plus the scatter lists.
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut row_slots: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (slot, &(r, c)) in self.coords.iter().enumerate() {
            let (pr, pc) = (inv[r as usize], inv[c as usize]);
            rows[pr as usize].push(pc);
            row_slots[pr as usize].push((pc, slot as u32));
        }
        for r in rows.iter_mut() {
            r.sort_unstable();
            r.dedup();
        }
        let mut lower: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut upper: Vec<Vec<u32>> = Vec::with_capacity(n);
        // Boolean workspace + sorted-merge scratch.
        let mut mark = vec![false; n];
        let mut pattern: Vec<u32> = Vec::new();
        for (i, row_cols) in rows.iter().enumerate() {
            pattern.clear();
            for &c in row_cols {
                if !mark[c as usize] {
                    mark[c as usize] = true;
                    pattern.push(c);
                }
            }
            // Visit strictly-lower indices in ascending order, merging in
            // the fill each elimination introduces. Fill from row `k` lies
            // right of `k`, so one forward scan sees every lower index.
            let mut lo: Vec<u32> = Vec::new();
            for k in 0..i {
                if !mark[k] {
                    continue;
                }
                lo.push(k as u32);
                for &j in &upper[k][1..] {
                    if !mark[j as usize] {
                        mark[j as usize] = true;
                        pattern.push(j);
                    }
                }
            }
            let mut up: Vec<u32> = pattern
                .iter()
                .copied()
                .filter(|&c| c as usize >= i)
                .collect();
            up.sort_unstable();
            if up.first() != Some(&(i as u32)) {
                // Ensure a diagonal slot exists structurally.
                up.insert(0, i as u32);
            }
            for &c in &pattern {
                mark[c as usize] = false;
            }
            lower.push(lo);
            upper.push(up);
        }
        let (l_idx, l_off) = flatten(&lower);
        let (u_idx, u_off) = flatten(&upper);
        let (slots, s_off) = flatten(&row_slots);
        self.symbolic = Some(Symbolic {
            perm,
            l_idx,
            l_off,
            u_idx,
            u_off,
            slots,
            s_off,
        });
    }

    /// `true` when a valid factorisation is stored.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Factorises the current values into the persistent flat `L`/`U`
    /// arrays; the stamped values are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when a pivot is not
    /// finite, falls below [`PIVOT_TOL`], or is smaller than
    /// [`PIVOT_REL`] times the largest entry of its `U` row — the caller
    /// should fall back to dense partial-pivot LU. A failed factorisation
    /// invalidates any previously stored factors.
    pub fn factor(&mut self) -> Result<(), CircuitError> {
        self.ensure_symbolic();
        let Self {
            n,
            values,
            symbolic,
            l_vals,
            u_vals,
            work,
            factored,
            ..
        } = self;
        let sym = symbolic.as_ref().expect("just ensured");
        let n = *n;
        *factored = false;
        l_vals.clear();
        l_vals.resize(sym.l_idx.len(), 0.0);
        u_vals.clear();
        u_vals.resize(sym.u_idx.len(), 0.0);
        work.clear();
        work.resize(n, 0.0);

        for i in 0..n {
            // Scatter A[i, *].
            for &(c, slot) in &sym.slots[span(&sym.s_off, i)] {
                work[c as usize] += values[slot as usize];
            }
            // Eliminate against prior rows in ascending pivot order.
            for p in span(&sym.l_off, i) {
                let k = sym.l_idx[p] as usize;
                let uk = span(&sym.u_off, k);
                let factor = work[k] / u_vals[uk.start];
                work[k] = 0.0;
                l_vals[p] = factor;
                if factor != 0.0 {
                    for q in uk.start + 1..uk.end {
                        work[sym.u_idx[q] as usize] -= factor * u_vals[q];
                    }
                }
            }
            // Gather U[i, *], tracking the row's largest magnitude.
            let ui = span(&sym.u_off, i);
            let mut row_max = 0.0f64;
            for q in ui.clone() {
                let j = sym.u_idx[q] as usize;
                u_vals[q] = work[j];
                work[j] = 0.0;
                row_max = row_max.max(u_vals[q].abs());
            }
            let diag = u_vals[ui.start].abs();
            if !diag.is_finite() || diag < PIVOT_TOL || diag < PIVOT_REL * row_max {
                return Err(CircuitError::SingularMatrix { pivot: i });
            }
        }
        *factored = true;
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors, overwriting `b` with the
    /// solution. The factors stay valid for further substitutions.
    ///
    /// # Panics
    ///
    /// Panics if no factorisation is stored or `b.len()` differs from the
    /// dimension.
    pub fn substitute(&mut self, b: &mut [f64]) {
        assert!(self.factored, "substitute without a factorisation");
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        let sym = self.symbolic.as_ref().expect("factored implies symbolic");
        let pb = &mut self.pb;
        // Permute the right-hand side into elimination order.
        pb.clear();
        pb.extend(sym.perm.iter().map(|&old| b[old as usize]));
        // Forward substitution: L·y = P·b (L unit-diagonal).
        for i in 0..self.n {
            let mut acc = pb[i];
            for p in span(&sym.l_off, i) {
                acc -= self.l_vals[p] * pb[sym.l_idx[p] as usize];
            }
            pb[i] = acc;
        }
        // Back substitution: U·(P·x) = y.
        for i in (0..self.n).rev() {
            let ui = span(&sym.u_off, i);
            let mut acc = pb[i];
            for q in ui.start + 1..ui.end {
                acc -= self.u_vals[q] * pb[sym.u_idx[q] as usize];
            }
            pb[i] = acc / self.u_vals[ui.start];
        }
        // Un-permute the solution.
        for (new, &old) in sym.perm.iter().enumerate() {
            b[old as usize] = pb[new];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factorises and substitutes in one go.
    fn solve(m: &mut SparseMatrix, b: &mut [f64]) -> Result<(), CircuitError> {
        m.factor()?;
        m.substitute(b);
        Ok(())
    }

    fn solve_both(entries: &[(usize, usize, f64)], n: usize, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut sparse = SparseMatrix::zeros(n);
        let mut dense = super::super::DenseMatrix::zeros(n);
        for &(r, c, v) in entries {
            sparse.add(r, c, v);
            dense.add(r, c, v);
        }
        let mut xs = b.to_vec();
        solve(&mut sparse, &mut xs).expect("sparse solves");
        let mut xd = b.to_vec();
        dense.solve_in_place(&mut xd).expect("dense solves");
        (xs, xd)
    }

    #[test]
    fn matches_dense_on_tridiagonal() {
        let n = 12;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 4.0));
            if i + 1 < n {
                entries.push((i, i + 1, -1.0));
                entries.push((i + 1, i, -1.0));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let (xs, xd) = solve_both(&entries, n, &b);
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_dense_with_fill_in() {
        // Arrowhead: last row/col dense — maximal fill for no-pivot LU.
        let n = 10;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 3.0 + i as f64));
            if i + 1 < n {
                entries.push((i, n - 1, 0.5));
                entries.push((n - 1, i, 0.25));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let (xs, xd) = solve_both(&entries, n, &b);
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn random_mna_like_systems_match_dense() {
        // Diagonally dominant random sparse systems (the MNA regime).
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [5usize, 23, 61] {
            let mut entries = Vec::new();
            for i in 0..n {
                entries.push((i, i, 2.0 + 3.0 * next()));
                for _ in 0..3 {
                    let j = (next() * n as f64) as usize % n;
                    if j != i {
                        let v = 0.3 * (next() - 0.5);
                        entries.push((i, j, v));
                        // Keep dominance.
                        entries.push((i, i, v.abs()));
                    }
                }
            }
            let b: Vec<f64> = (0..n).map(|_| next() - 0.5).collect();
            let (xs, xd) = solve_both(&entries, n, &b);
            for (a, b) in xs.iter().zip(&xd) {
                assert!((a - b).abs() < 1e-9, "n = {n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn slots_follow_first_insertion_and_match_dense_assembly() {
        // Random coordinate streams with a hub row touching every column
        // (the match line) and repeated coordinates, from tiny to
        // wide-row sizes: slots are handed out in first-insertion order,
        // and the assembled values equal dense assembly bit for bit.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in [3usize, 45, 90, 133] {
            let hub = next() as usize % n;
            let mut stream: Vec<(usize, usize, f64)> = Vec::new();
            for _ in 0..4 * n {
                let (r, c) = (next() as usize % n, next() as usize % n);
                stream.push((r, c, (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5));
            }
            for c in 0..n {
                stream.push((hub, c, 1.0 / (c + 1) as f64));
            }
            // Replay a prefix: every coordinate in it is a repeat.
            let repeats: Vec<_> = stream[..n]
                .iter()
                .map(|&(r, c, v)| (r, c, -0.25 * v))
                .collect();
            stream.extend(repeats);

            let mut sparse = SparseMatrix::zeros(n);
            let mut dense = super::super::DenseMatrix::zeros(n);
            let mut first_seen: Vec<(u32, u32)> = Vec::new();
            for &(r, c, v) in &stream {
                let key = (r as u32, c as u32);
                let new = !first_seen.contains(&key);
                if new {
                    first_seen.push(key);
                }
                assert_eq!(sparse.add(r, c, v), new, "n = {n}: growth flag at {key:?}");
                dense.add(r, c, v);
            }
            assert_eq!(sparse.coords, first_seen, "n = {n}: slot order");
            for (slot, &(r, c)) in first_seen.iter().enumerate() {
                let at = r as usize * n + c as usize;
                assert_eq!(sparse.slot_of[at], slot as u32, "n = {n}: slot of {r},{c}");
            }
            let unused = sparse.slot_of.iter().filter(|&&s| s == NO_SLOT).count();
            assert_eq!(unused, n * n - first_seen.len(), "n = {n}: stray slots");
            let bits = |m: &super::super::DenseMatrix| -> Vec<u64> {
                m.values().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&sparse.to_dense()), bits(&dense), "n = {n}: to_dense");
        }
    }

    #[test]
    fn repeated_solves_reuse_structure() {
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 0, 2.0);
        m.add(1, 1, 2.0);
        m.add(2, 2, 2.0);
        m.add(0, 1, 1.0);
        let mut x = vec![3.0, 2.0, 4.0];
        solve(&mut m, &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        let nnz = m.values().len();
        // Re-stamp the same pattern: no structural growth, same answer.
        m.clear();
        m.add(0, 0, 2.0);
        m.add(1, 1, 2.0);
        m.add(2, 2, 2.0);
        m.add(0, 1, 1.0);
        assert_eq!(m.values().len(), nnz);
        let mut x = vec![3.0, 2.0, 4.0];
        solve(&mut m, &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pivot_is_reported_not_panicking() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        // Diagonals are structurally absent → first pivot is zero.
        let mut x = vec![1.0, 1.0];
        let err = solve(&mut m, &mut x).unwrap_err();
        assert!(matches!(err, CircuitError::SingularMatrix { .. }));
    }

    #[test]
    fn values_survive_failed_solve() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let mut x = vec![1.0, 1.0];
        let _ = solve(&mut m, &mut x);
        // The dense fallback can still read the original values.
        let dense = m.to_dense();
        assert_eq!(dense.get(0, 1), 1.0);
        assert_eq!(dense.get(1, 0), 1.0);
    }

    #[test]
    fn substitute_is_bit_identical_to_solve() {
        // Chord/LU-reuse soundness: a substitution against stored factors
        // must reproduce the direct solve exactly.
        let n = 8;
        let mut m = SparseMatrix::zeros(n);
        for i in 0..n {
            m.add(i, i, 3.0 + i as f64);
            if i + 1 < n {
                m.add(i, i + 1, -0.5);
                m.add(i + 1, i, -0.25);
            }
        }
        m.factor().unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let mut x1 = b.clone();
        m.substitute(&mut x1);
        let mut x2 = b.clone();
        solve(&mut m, &mut x2).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn growth_invalidates_factors() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        m.factor().unwrap();
        assert!(m.is_factored());
        assert!(m.add(0, 1, 0.5));
        assert!(!m.is_factored(), "structural growth drops stale factors");
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 0, 2.0);
        m.add(0, 2, 1.0);
        m.add(1, 1, -3.0);
        m.add(2, 0, 0.5);
        m.add(2, 2, 4.0);
        m.add(2, 2, 0.25); // duplicate add accumulates into one slot
        let x = vec![1.0, 2.0, -1.0];
        let (mut y, mut y_dense) = (vec![0.0; 3], vec![0.0; 3]);
        m.mul_vec_into(&x, &mut y);
        m.to_dense().mul_vec_into(&x, &mut y_dense);
        assert_eq!(y, y_dense);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn column_past_the_edge_panics_instead_of_aliasing() {
        // (0, n) would otherwise address slot_of entry (1, 0).
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 3, 1.0);
    }
}
