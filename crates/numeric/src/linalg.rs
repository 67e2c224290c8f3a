//! Dense and static-order LU factorization.
//!
//! Two factorizations live here. [`SymbolicLu`] is the hot path: a static
//! pivot order chosen from problem structure, compiled once into a flat
//! elimination program over a caller-owned value array, so a transient
//! analysis that refactors the same-shaped MNA Jacobian thousands of times
//! does no pivot search, index arithmetic or copying per factorization.
//!
//! [`Matrix`] with [`Matrix::lu_into`] is dense row-major LU with partial
//! pivoting in `O(n^3)`. It is the fallback when a value pattern defeats
//! the static order, the solver for systems analyzed without one (DC
//! operating points and sweeps), and the reference the static path is
//! tested against. The circuits in this workspace are small (a handful of
//! transistors), so dense partial pivoting stays simple and cache-friendly
//! there, with no failure modes beyond genuine singularity.

use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// A dense, row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use proxim_numeric::linalg::Matrix;
///
/// let mut a = Matrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let lu = a.lu().expect("diagonal matrix is nonsingular");
/// let x = lu.solve(&[2.0, 8.0]);
/// assert_eq!(x, vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major nested slice.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "row {i} has inconsistent length");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `v` to entry `(i, j)` — the fundamental MNA "stamp" operation.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self[(i, j)] += v;
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// LU-factorizes the matrix with partial pivoting.
    ///
    /// Allocates a fresh [`LuFactors`]; in hot loops prefer [`Matrix::lu_into`],
    /// which reuses a caller-owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot smaller than `1e-300` in
    /// magnitude is encountered, i.e. the matrix is numerically singular.
    pub fn lu(&self) -> Result<LuFactors, SingularMatrixError> {
        let mut out = LuFactors::empty();
        self.lu_into(&mut out)?;
        Ok(out)
    }

    /// LU-factorizes the matrix into a caller-owned [`LuFactors`] buffer,
    /// allocating nothing once `out` has reached this matrix's size.
    ///
    /// On error `out` holds a partially eliminated factorization and must
    /// not be used for solves (the next `lu_into` overwrites it fully).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot smaller than `1e-300` in
    /// magnitude is encountered, i.e. the matrix is numerically singular.
    pub fn lu_into(&self, out: &mut LuFactors) -> Result<(), SingularMatrixError> {
        assert_eq!(self.rows, self.cols, "LU requires a square matrix");
        let n = self.rows;
        out.n = n;
        out.sign = 1.0;
        out.lu.clear();
        out.lu.extend_from_slice(&self.data);
        out.perm.clear();
        out.perm.extend(0..n);
        let lu = &mut out.lu;

        for k in 0..n {
            // Find the pivot row.
            let mut p = k;
            let mut max = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(SingularMatrixError { pivot_index: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                out.perm.swap(k, p);
                out.sign = -out.sign;
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let f = lu[i * n + k] / pivot;
                lu[i * n + k] = f;
                if f != 0.0 {
                    for j in (k + 1)..n {
                        lu[i * n + j] -= f * lu[k * n + j];
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience: factorize and solve `A x = b` in one call.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if the matrix is numerically singular.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        Ok(self.lu()?.solve(b))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The error returned when LU factorization encounters a zero pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// The elimination step at which the pivot vanished.
    pub pivot_index: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at pivot {}", self.pivot_index)
    }
}

impl std::error::Error for SingularMatrixError {}

/// The structural occupancy of a square matrix: which entries *can* be
/// nonzero, independent of their values.
///
/// This is the input to the symbolic phase of the split LU
/// ([`SymbolicLu::analyze`]). Callers derive it from problem topology (for
/// MNA circuits, from the element stamps), not from a numeric matrix —
/// a cutoff transistor stamps an exact `0.0` but still occupies its slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    occ: Vec<bool>,
}

impl SparsityPattern {
    /// An empty `n x n` pattern.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            occ: vec![false; n * n],
        }
    }

    /// The matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Marks entry `(i, j)` as structurally nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    #[inline]
    pub fn mark(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "pattern index out of bounds");
        self.occ[i * self.n + j] = true;
    }

    /// Whether entry `(i, j)` is marked.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    #[inline]
    pub fn is_marked(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "pattern index out of bounds");
        self.occ[i * self.n + j]
    }

    /// Derives the pattern of a numeric matrix (nonzero entries marked).
    /// Mostly useful in tests; real callers should mark from topology.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn of_matrix(m: &Matrix) -> Self {
        assert_eq!(m.rows, m.cols, "pattern requires a square matrix");
        Self {
            n: m.rows,
            occ: m.data.iter().map(|&v| v != 0.0).collect(),
        }
    }

    /// Number of marked entries.
    pub fn nnz(&self) -> usize {
        self.occ.iter().filter(|&&b| b).count()
    }
}

/// Relative pivot-stability threshold of the static-order numeric phase:
/// the pre-chosen pivot must be at least this fraction of its column's
/// magnitude, or [`SymbolicLu::factor_in_place`] refuses and the caller
/// falls back to full partial pivoting. The bound limits element growth per
/// elimination step to `1/TAU`.
const STATIC_PIVOT_RTOL: f64 = 1e-3;

/// One pivot of the flat elimination program.
#[derive(Debug, Clone)]
struct Pivot {
    /// Slot of the diagonal entry.
    slot: usize,
    /// This pivot's entries in [`SymbolicLu::below`].
    below: Range<usize>,
    /// This pivot row's entries in [`SymbolicLu::upper`].
    upper: Range<usize>,
}

/// A filled entry below a pivot: the multiplier's slot, the elimination
/// position of its row, and its row's update pairs.
#[derive(Debug, Clone)]
struct Below {
    slot: usize,
    row: usize,
    /// This entry's `(ij, kj)` pairs in [`SymbolicLu::updates`].
    updates: Range<usize>,
}

/// The symbolic phase of a split LU factorization: a static row order plus
/// the fill pattern it induces, compiled once per topology into a flat
/// elimination program and reused across every numeric refactorization.
///
/// The numeric phase works on a caller-owned value array in the *static
/// layout*: row `perm[k]` of the matrix occupies `values[k * n..(k + 1) * n]`,
/// so entry `(i, j)` lives at [`Self::slot`]`(i, j)`. A caller that
/// assembles straight into that layout needs no copy before factoring.
/// [`Self::factor_in_place`] then runs with **no pivot search, no index
/// arithmetic and no structural-zero work**: per pivot it walks the pivot
/// slot, the slots below it, and the precomputed `(ij, kj)` update pairs.
/// For small repeatedly-factored systems (a transient analysis factors the
/// same-shaped Jacobian thousands of times) this is the dominant saving. A
/// per-column threshold check guards stability; when a value pattern would
/// make the static order unstable the numeric phase declines
/// deterministically and the caller uses [`Matrix::lu_into`] for that
/// solve.
///
/// # Example
///
/// ```
/// use proxim_numeric::linalg::{Matrix, SparsityPattern, SymbolicLu};
///
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
/// let sym = SymbolicLu::analyze(&SparsityPattern::of_matrix(&a), vec![0, 1]);
/// let mut values = vec![0.0; 4];
/// for i in 0..2 {
///     for j in 0..2 {
///         values[sym.slot(i, j)] = a[(i, j)];
///     }
/// }
/// assert!(sym.factor_in_place(&mut values));
/// let mut x = Vec::new();
/// sym.solve_factored(&values, &[9.0, 5.0], &mut x);
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// `perm[k]` = original row placed at elimination position `k`.
    perm: Vec<usize>,
    /// `pos[i]` = elimination position of original row `i` (`perm`'s
    /// inverse).
    pos: Vec<usize>,
    /// Whether a static-order factorization is structurally possible (every
    /// pivot position is occupied after fill). When `false`, the program is
    /// empty and [`Self::factor_in_place`] always declines.
    viable: bool,
    /// Filled nonzero count (after symbolic elimination), for telemetry.
    nnz: usize,
    /// The elimination program, one entry per pivot position.
    pivots: Vec<Pivot>,
    /// Filled entries below each pivot, pivot by pivot, top to bottom.
    below: Vec<Below>,
    /// `(ij, kj)` slot pairs: `values[ij] -= f * values[kj]`, in column
    /// order per eliminated row.
    updates: Vec<(usize, usize)>,
    /// Filled entries right of each pivot, as `(slot, column)`, for back
    /// substitution.
    upper: Vec<(usize, usize)>,
}

impl SymbolicLu {
    /// Runs the symbolic phase: permutes the pattern rows by `perm` (a
    /// static pivot order chosen by the caller from problem structure),
    /// propagates fill through Gaussian elimination in natural column
    /// order, and compiles the elimination program.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..pattern.n()`.
    pub fn analyze(pattern: &SparsityPattern, perm: Vec<usize>) -> Self {
        let n = pattern.n;
        assert_eq!(perm.len(), n, "pivot order must cover every row");
        let mut pos = vec![usize::MAX; n];
        for (k, &p) in perm.iter().enumerate() {
            assert!(
                p < n && pos[p] == usize::MAX,
                "pivot order must be a permutation"
            );
            pos[p] = k;
        }

        // Row-permuted working pattern.
        let mut occ = vec![false; n * n];
        for k in 0..n {
            let src = perm[k] * n;
            occ[k * n..(k + 1) * n].copy_from_slice(&pattern.occ[src..src + n]);
        }

        // Symbolic elimination: entry (i, j) fills when (i, k) and (k, j)
        // are occupied for some pivot k < min(i, j).
        let mut viable = true;
        for k in 0..n {
            if !occ[k * n + k] {
                viable = false;
                break;
            }
            for i in (k + 1)..n {
                if occ[i * n + k] {
                    for j in (k + 1)..n {
                        if occ[k * n + j] {
                            occ[i * n + j] = true;
                        }
                    }
                }
            }
        }

        let mut sym = Self {
            n,
            perm,
            pos,
            viable,
            nnz: 0,
            pivots: Vec::new(),
            below: Vec::new(),
            updates: Vec::new(),
            upper: Vec::new(),
        };
        if !viable {
            return sym;
        }
        sym.nnz = occ.iter().filter(|&&b| b).count();
        for k in 0..n {
            let cols: Vec<usize> = ((k + 1)..n).filter(|&j| occ[k * n + j]).collect();
            let below_start = sym.below.len();
            for i in ((k + 1)..n).filter(|&i| occ[i * n + k]) {
                let start = sym.updates.len();
                sym.updates
                    .extend(cols.iter().map(|&j| (i * n + j, k * n + j)));
                sym.below.push(Below {
                    slot: i * n + k,
                    row: i,
                    updates: start..sym.updates.len(),
                });
            }
            let upper_start = sym.upper.len();
            sym.upper.extend(cols.iter().map(|&j| (k * n + j, j)));
            sym.pivots.push(Pivot {
                slot: k * n + k,
                below: below_start..sym.below.len(),
                upper: upper_start..sym.upper.len(),
            });
        }
        sym
    }

    /// Where entry `(row, col)` of the matrix lives in the static layout.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn slot(&self, row: usize, col: usize) -> usize {
        self.pos[row] * self.n + col
    }

    /// Whether a static-order factorization is structurally possible.
    pub fn is_viable(&self) -> bool {
        self.viable
    }

    /// Filled nonzeros of the factorization (0 when not viable).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fill density `nnz / n²` (1.0 for an empty system).
    pub fn fill_ratio(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.nnz as f64 / (self.n * self.n) as f64
        }
    }

    /// The numeric phase: factorizes `values` (the matrix in the static
    /// layout, see [`Self::slot`]) in place by running the elimination
    /// program — no pivot search, no work on structural zeros. Entries
    /// outside the filled pattern are neither read nor written.
    ///
    /// Returns `true` on success, leaving `L` (unit diagonal implied) and
    /// `U` in `values` for [`Self::solve_factored`]. Returns `false` —
    /// leaving `values` partly eliminated and unusable — when the static
    /// order is structurally impossible or a pre-chosen pivot fails the
    /// stability threshold (smaller than `STATIC_PIVOT_RTOL` = 1e-3 of its
    /// column, or the whole column is numerically zero). The decision
    /// depends only on the values, so identical matrices take identical
    /// paths; callers fall back to [`Matrix::lu_into`], whose partial
    /// pivoting also owns the singularity diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than `n²`.
    pub fn factor_in_place(&self, values: &mut [f64]) -> bool {
        if !self.viable {
            return false;
        }
        assert!(values.len() >= self.n * self.n, "value array too short");
        for p in &self.pivots {
            let below = &self.below[p.below.clone()];
            let pivot = values[p.slot];
            let mut colmax = pivot.abs();
            for e in below {
                colmax = colmax.max(values[e.slot].abs());
            }
            // NaN-safe: any comparison with NaN is false, so a poisoned
            // column declines to the partial-pivot path.
            if !(colmax >= 1e-300 && pivot.abs() >= STATIC_PIVOT_RTOL * colmax) {
                return false;
            }
            for e in below {
                let f = values[e.slot] / pivot;
                values[e.slot] = f;
                if f != 0.0 {
                    for &(ij, kj) in &self.updates[e.updates.clone()] {
                        values[ij] -= f * values[kj];
                    }
                }
            }
        }
        true
    }

    /// Solves `A x = b` through values factored by
    /// [`Self::factor_in_place`], walking only the filled entries of `L`
    /// and `U`. `b` is in the matrix's own row order.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `values` do not match the analyzed dimension.
    pub fn solve_factored(&self, values: &[f64], b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n, "dimension mismatch in solve");
        // Permutation gather, then forward-substitute column-by-column
        // through the filled entries of L.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for (k, p) in self.pivots.iter().enumerate() {
            let xk = x[k];
            if xk != 0.0 {
                for e in &self.below[p.below.clone()] {
                    x[e.row] -= values[e.slot] * xk;
                }
            }
        }
        // Back-substitute through the filled entries of U.
        for (i, p) in self.pivots.iter().enumerate().rev() {
            let mut s = x[i];
            for &(slot, j) in &self.upper[p.upper.clone()] {
                s -= values[slot] * x[j];
            }
            x[i] = s / values[p.slot];
        }
    }
}

/// The result of LU factorization: `P A = L U` stored compactly.
///
/// Obtained from [`Matrix::lu`]; reusable for multiple right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
}

impl LuFactors {
    /// An empty buffer for [`Matrix::lu_into`] to factor into. Holds no
    /// usable factorization until then.
    pub fn empty() -> Self {
        Self {
            n: 0,
            lu: Vec::new(),
            perm: Vec::new(),
            sign: 1.0,
        }
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// Allocates the solution vector; in hot loops prefer
    /// [`LuFactors::solve_into`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-owned vector, allocating nothing once
    /// `x` has reached the matrix dimension.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    #[allow(clippy::needless_range_loop)] // textbook substitution indexing
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n, "dimension mismatch in solve");
        let n = self.n;
        // Apply the permutation, then forward-substitute through L.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        // Back-substitute through U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s / self.lu[i * n + i];
        }
    }

    /// The determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_identity() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solves_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = a.solve(&[1.0, 2.0]).unwrap_err();
        assert_eq!(err.pivot_index, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn determinant_of_triangular() {
        let a = Matrix::from_rows(&[&[2.0, 5.0], &[0.0, 3.0]]);
        let lu = a.lu().unwrap();
        assert!((lu.det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_flips_with_permutation() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = a.lu().unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn factors_reusable_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]);
        let lu = a.lu().unwrap();
        for b in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, -3.0, 2.0]] {
            let x = lu.solve(&b);
            assert!(residual_norm(&a, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn lu_into_reuses_buffers_and_matches_lu() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]);
        let fresh = a.lu().unwrap();
        let mut reused = LuFactors::empty();
        a.lu_into(&mut reused).unwrap();
        let b = [5.0, -3.0, 2.0];
        assert_eq!(fresh.solve(&b), reused.solve(&b));
        assert_eq!(fresh.det(), reused.det());

        // Refactor a different matrix into the same buffer.
        let a2 = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 2.0]]);
        a2.lu_into(&mut reused).unwrap();
        let x = reused.solve(&[2.0, 3.0, 4.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_into_matches_solve_across_sizes() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu().unwrap();
        // Pre-fill with stale, larger content to prove it is overwritten.
        let mut x = vec![9.0; 7];
        lu.solve_into(&[3.0, 5.0], &mut x);
        assert_eq!(x.len(), 2);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_into_failure_then_success_recovers() {
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut buf = LuFactors::empty();
        assert!(singular.lu_into(&mut buf).is_err());
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        a.lu_into(&mut buf).unwrap();
        let x = buf.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn stamp_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 0, 1.5);
        a.add(0, 0, 2.5);
        assert_eq!(a[(0, 0)], 4.0);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut a = Matrix::identity(3);
        a.clear();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 3);
        assert_eq!(a[(1, 1)], 0.0);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn random_well_conditioned_systems_solve_accurately() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for n in [1usize, 2, 3, 5, 8, 13] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                // Diagonal dominance keeps the system well conditioned.
                a[(i, i)] += n as f64;
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.solve(&b).unwrap();
            assert!(residual_norm(&a, &x, &b) < 1e-10, "n = {n}");
        }
    }

    /// An MNA-shaped test system: two resistive nodes plus a voltage-source
    /// constraint row whose diagonal is structurally zero. Row 2 is the
    /// constraint `v0 = V`, row 0 carries the branch current.
    fn mna_like(g0: f64, g01: f64, v: f64) -> (Matrix, Vec<f64>) {
        let a = Matrix::from_rows(&[
            &[g0 + g01, -g01, 1.0],
            &[-g01, g01 + 2e-3, 0.0],
            &[1.0, 0.0, 0.0],
        ]);
        (a, vec![0.0, 0.0, v])
    }

    /// `a` in `sym`'s static layout.
    fn static_values(sym: &SymbolicLu, a: &Matrix) -> Vec<f64> {
        let n = a.rows();
        let mut values = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                values[sym.slot(i, j)] = a[(i, j)];
            }
        }
        values
    }

    /// Factors `a` through the static order and solves `a x = b`, or
    /// `None` when the static order declines.
    fn static_solve(sym: &SymbolicLu, a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let mut values = static_values(sym, a);
        if !sym.factor_in_place(&mut values) {
            return None;
        }
        let mut x = vec![7.0; 9]; // stale content must be overwritten
        sym.solve_factored(&values, b, &mut x);
        Some(x)
    }

    #[test]
    fn symbolic_static_order_matches_dense_on_mna_shape() {
        // gmin-weak node diagonal (1e-12) against the vsource ±1 entries:
        // the natural order is numerically hopeless, but swapping the
        // branch row (2) with its node row (0) gives unit pivots.
        let (a, b) = mna_like(1e-12, 1e-3, 1.8);
        let pattern = SparsityPattern::of_matrix(&a);
        let sym = SymbolicLu::analyze(&pattern, vec![2, 1, 0]);
        assert!(sym.is_viable());
        let x = static_solve(&sym, &a, &b).expect("static order must hold");
        assert!(residual_norm(&a, &x, &b) < 1e-9);
        // And it must agree with the dense reference bit-for-bit when the
        // dense path happens to pick the same pivots — at minimum, to
        // solver tolerance always.
        let dense = a.solve(&b).unwrap();
        for (xs, xd) in x.iter().zip(&dense) {
            assert!((xs - xd).abs() < 1e-9);
        }
    }

    #[test]
    fn symbolic_fill_in_is_propagated() {
        // After the row swap the (0-position) constraint row is [1, 0, 0]
        // and elimination fills the branch-column diagonal of the moved
        // node row. nnz must exceed the raw pattern count.
        let (a, _) = mna_like(1e-12, 1e-3, 1.0);
        let pattern = SparsityPattern::of_matrix(&a);
        let raw = pattern.nnz();
        let sym = SymbolicLu::analyze(&pattern, vec![2, 1, 0]);
        assert!(sym.is_viable());
        assert!(
            sym.nnz() >= raw.saturating_sub(2),
            "fill analysis dropped entries"
        );
        assert!(sym.fill_ratio() <= 1.0);
    }

    #[test]
    fn symbolic_declines_when_static_pivot_is_weak() {
        // Identity order on the MNA shape: position 0 pivot is the gmin-weak
        // node diagonal (~1e-9) against a unit entry below it — fails the
        // threshold test.
        let (a, _) = mna_like(1e-12, 1e-9, 1.0);
        let sym = SymbolicLu::analyze(&SparsityPattern::of_matrix(&a), vec![0, 1, 2]);
        // Structurally position 2 has no diagonal under identity order
        // until fill; (2,2) fills from (2,0)*(0,2) so it is viable...
        if sym.is_viable() {
            assert!(
                static_solve(&sym, &a, &[0.0; 3]).is_none(),
                "weak pivot must decline"
            );
        }
    }

    #[test]
    fn symbolic_declines_on_structurally_deficient_order() {
        // [[0, 1], [1, 0]] with identity order: (0,0) empty, not viable.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let sym = SymbolicLu::analyze(&SparsityPattern::of_matrix(&a), vec![0, 1]);
        assert!(!sym.is_viable());
        assert!(static_solve(&sym, &a, &[2.0, 3.0]).is_none());
        // The swapped order succeeds with unit pivots.
        let sym = SymbolicLu::analyze(&SparsityPattern::of_matrix(&a), vec![1, 0]);
        assert!(sym.is_viable());
        let x = static_solve(&sym, &a, &[2.0, 3.0]).expect("unit pivots");
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn symbolic_solution_bitwise_stable_across_refactorization() {
        // Factoring the same values twice must produce identical bits —
        // what keeps characterization byte-identical across worker counts.
        let (a, b) = mna_like(1e-12, 7e-4, 1.3);
        let sym = SymbolicLu::analyze(&SparsityPattern::of_matrix(&a), vec![2, 1, 0]);
        let x1 = static_solve(&sym, &a, &b).expect("static order must hold");
        let x2 = static_solve(&sym, &a, &b).expect("static order must hold");
        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x1), bits(&x2));
    }

    #[test]
    fn symbolic_handles_random_dense_systems() {
        let mut state = 0x9e3779b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for n in [1usize, 2, 4, 8] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += n as f64;
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let sym = SymbolicLu::analyze(&SparsityPattern::of_matrix(&a), (0..n).collect());
            assert!(sym.is_viable());
            let x = static_solve(&sym, &a, &b).expect("diagonally dominant");
            assert!(residual_norm(&a, &x, &b) < 1e-10, "n = {n}");
        }
    }
}
