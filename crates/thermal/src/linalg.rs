//! Minimal dense linear algebra for small thermal networks.
//!
//! Thermal networks in this workspace have a handful of nodes, so a plain
//! Gaussian elimination with partial pivoting is both sufficient and
//! dependency-free. Public so model-validation tooling (`mpt-lint`'s
//! Hurwitz check) reuses the exact arithmetic the solver runs on.
//!
//! All routines operate on [`Mat`], a flat row-major matrix in one
//! contiguous allocation: no per-row `Vec` headers, no pointer chasing in
//! the inner loops, and the exact layout the batched fleet kernel streams
//! through. The arithmetic (loop order, pivot choice, zero-skips) is
//! unchanged from the historical `Vec<Vec<f64>>` implementation, so every
//! result is bit-identical to what the goldens pinned before the layout
//! change.

use std::ops::{Index, IndexMut};

/// A dense row-major matrix in one contiguous allocation.
///
/// `data[r * cols + c]` holds element `(r, c)`. Rows are contiguous, so
/// `row(i)` is a plain subslice and the mat-vec / mat-mat inner loops
/// stream linearly through memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// The `rows × cols` zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Copies a nested row-major `Vec<Vec<f64>>` (the layout platform
    /// specs still use) into contiguous storage. Every row must have the
    /// same length.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        debug_assert!(rows.iter().all(|r| r.len() == n_cols));
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a contiguous slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Consumes the matrix, returning its flat row-major buffer.
    #[must_use]
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Swaps rows `a` and `b` element-wise (no allocation).
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let cols = self.cols;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * cols);
        head[lo * cols..(lo + 1) * cols].swap_with_slice(&mut tail[..cols]);
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Solves `A·x = b` in place for a small dense system.
///
/// Returns `None` if the matrix is (numerically) singular.
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
pub fn solve(mut a: Mat, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    debug_assert!(a.rows() == n && a.cols() == n);
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[(i, col)]
                .abs()
                .partial_cmp(&a[(j, col)].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[(pivot, col)].abs() < 1e-14 {
            return None;
        }
        a.swap_rows(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let factor = a[(row, col)] / a[(col, col)];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[(row, k)] -= factor * a[(col, k)];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[(row, col)] * x[col];
        }
        x[row] = acc / a[(row, row)];
    }
    Some(x)
}

/// Solves `A·X = B` for a matrix right-hand side (column-by-column
/// semantics, implemented as one elimination over all columns).
///
/// Returns `None` if the matrix is (numerically) singular.
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
pub(crate) fn solve_multi(mut a: Mat, mut b: Mat) -> Option<Mat> {
    let n = a.rows();
    debug_assert!(b.rows() == n && a.cols() == n);
    let width = b.cols();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[(i, col)]
                .abs()
                .partial_cmp(&a[(j, col)].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[(pivot, col)].abs() < 1e-14 {
            return None;
        }
        a.swap_rows(col, pivot);
        b.swap_rows(col, pivot);
        for row in (col + 1)..n {
            let factor = a[(row, col)] / a[(col, col)];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[(row, k)] -= factor * a[(col, k)];
            }
            for k in 0..width {
                b[(row, k)] -= factor * b[(col, k)];
            }
        }
    }
    let mut x = Mat::zeros(n, width);
    for row in (0..n).rev() {
        for k in 0..width {
            let mut acc = b[(row, k)];
            for col in (row + 1)..n {
                acc -= a[(row, col)] * x[(col, k)];
            }
            x[(row, k)] = acc / a[(row, row)];
        }
    }
    Some(x)
}

/// Dense matrix product `A·B` written into `out` (which is zeroed first).
///
/// `out` must already have shape `a.rows() × b.cols()`; no allocation
/// happens here, which is what lets `expm`'s squaring loop ping-pong
/// between two fixed buffers.
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
pub(crate) fn mat_mul_into(a: &Mat, b: &Mat, out: &mut Mat) {
    let (m, inner, p) = (a.rows(), a.cols(), b.cols());
    debug_assert!(b.rows() == inner && out.rows() == m && out.cols() == p);
    out.data.fill(0.0);
    for i in 0..m {
        for k in 0..inner {
            let aik = a[(i, k)];
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let out_row = out.row_mut(i);
            for j in 0..p {
                out_row[j] += aik * b_row[j];
            }
        }
    }
}

/// The matrix exponential `exp(A)` by scaling-and-squaring.
///
/// `A` is scaled down by `2^s` until its infinity norm is at most 1/4,
/// the exponential of the scaled matrix is taken as a Taylor series
/// (which converges rapidly at that norm), and the result is squared `s`
/// times. Thermal-network state matrices are tiny (a handful of nodes)
/// and well-conditioned — all eigenvalues are real and negative — so
/// this classic scheme is accurate to near machine precision here.
///
/// Allocation discipline: the routine allocates exactly four matrices up
/// front (the scaled input, the result, the running Taylor term, and one
/// scratch buffer) and then ping-pongs between them — the Taylor loop and
/// the squaring loop perform no further allocation however many terms or
/// squarings the norm demands. The solver bench notes assert this.
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
#[must_use]
pub fn expm(a: &Mat) -> Mat {
    let n = a.rows();
    let norm = (0..n)
        .map(|i| a.row(i).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    let squarings = if norm > 0.25 {
        (norm / 0.25).log2().ceil().max(0.0) as u32
    } else {
        0
    };
    let scale = (0.5_f64).powi(squarings as i32);
    let mut scaled = a.clone();
    for v in &mut scaled.data {
        *v *= scale;
    }
    // Taylor series of the scaled matrix: converges in ~a dozen terms at
    // ‖M‖ ≤ 1/4.
    let mut result = Mat::identity(n);
    let mut term = Mat::identity(n);
    let mut scratch = Mat::zeros(n, n);
    for k in 1..=30 {
        mat_mul_into(&term, &scaled, &mut scratch);
        std::mem::swap(&mut term, &mut scratch);
        let inv_k = 1.0 / f64::from(k);
        let mut term_norm = 0.0_f64;
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                term[(i, j)] *= inv_k;
                result[(i, j)] += term[(i, j)];
                row_sum += term[(i, j)].abs();
            }
            term_norm = term_norm.max(row_sum);
        }
        if term_norm < 1e-18 {
            break;
        }
    }
    // Repeated squaring reuses the Taylor loop's scratch buffer as the
    // other half of a ping-pong pair: swap instead of reallocating.
    for _ in 0..squarings {
        mat_mul_into(&result, &result, &mut scratch);
        std::mem::swap(&mut result, &mut scratch);
    }
    result
}

/// Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, sorted
/// ascending.
///
/// The caller must pass a symmetric matrix (the routine reads both
/// triangles and rotates them together; asymmetry gives meaningless
/// results — check symmetry first). Convergence is quadratic once
/// off-diagonal mass is small; thermal networks are tiny, so the fixed
/// sweep cap is never a binding limit in practice.
///
/// This powers the Hurwitz check on thermal state matrices: for a
/// symmetric conductance matrix `G_full` and capacitance vector `C`, the
/// state matrix `A = −C⁻¹·G_full` is similar to `−S` with
/// `S_ij = G_full_ij / √(C_i·C_j)` symmetric, so `A` is Hurwitz iff every
/// eigenvalue of `S` is strictly positive.
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
#[must_use]
pub fn symmetric_eigenvalues(a: &Mat) -> Vec<f64> {
    let n = a.rows();
    let mut m = a.clone();
    for _sweep in 0..100 {
        let off: f64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| m[(i, j)] * m[(i, j)])
            .sum();
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if m[(p, q)].abs() < 1e-300 {
                    continue;
                }
                // Classic Jacobi rotation annihilating m[p][q].
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * m[(p, q)]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
            }
        }
    }
    let mut eigs: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    eigs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    eigs
}

// ---------------------------------------------------------------------------
// Interval arithmetic (the abstract domain of the MPT6xx verifier)
// ---------------------------------------------------------------------------

/// Relative outward-rounding inflation applied after every interval dot
/// product: `(n + 2)·ε` over-approximates the worst-case accumulated
/// relative error of an `n`-term fused multiply-add chain, so the widened
/// interval is guaranteed to contain the exactly-rounded result the
/// concrete solver computes.
fn dot_slack(terms: usize) -> f64 {
    (terms as f64 + 2.0) * f64::EPSILON
}

/// Widens `[lo, hi]` outward by the rounding slack of a `terms`-long
/// accumulation, guaranteeing the result brackets the exact value.
fn outward(lo: f64, hi: f64, terms: usize) -> (f64, f64) {
    let s = dot_slack(terms);
    let pad_lo = lo.abs() * s + f64::MIN_POSITIVE;
    let pad_hi = hi.abs() * s + f64::MIN_POSITIVE;
    (lo - pad_lo, hi + pad_hi)
}

/// One interval dot product `a · [x_lo, x_hi]` with sign-split coefficient
/// handling: a non-negative coefficient maps `[lo, hi]` to
/// `[a·lo, a·hi]`, a negative one swaps the endpoints. The result is
/// widened outward by the accumulated rounding slack, so it soundly
/// brackets every real dot product `a · x` with `x_lo ≤ x ≤ x_hi`.
#[must_use]
pub(crate) fn interval_dot(a: &[f64], x_lo: &[f64], x_hi: &[f64]) -> (f64, f64) {
    debug_assert_eq!(a.len(), x_lo.len());
    debug_assert_eq!(a.len(), x_hi.len());
    let mut lo = 0.0;
    let mut hi = 0.0;
    for (k, &c) in a.iter().enumerate() {
        if c >= 0.0 {
            lo += c * x_lo[k];
            hi += c * x_hi[k];
        } else {
            lo += c * x_hi[k];
            hi += c * x_lo[k];
        }
    }
    outward(lo, hi, a.len())
}

/// Interval mat-vec `M · [x_lo, x_hi]` over a flat row-major matrix,
/// writing outward-rounded per-row bounds into `out_lo`/`out_hi`.
///
/// This is the abstract transformer of the MPT6xx verifier: applied to the
/// exact discretization `Ad = exp(A·dt)` it propagates a guaranteed
/// per-node temperature envelope one tick forward.
pub fn interval_mat_vec(
    m: &[f64],
    n: usize,
    x_lo: &[f64],
    x_hi: &[f64],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
) {
    debug_assert_eq!(m.len(), n * n);
    for i in 0..n {
        let (lo, hi) = interval_dot(&m[i * n..(i + 1) * n], x_lo, x_hi);
        out_lo[i] = lo;
        out_hi[i] = hi;
    }
}

/// Interval product of two scalar intervals (used to scale fleet power
/// envelopes by the `leakage_scale · workload_mix` jitter interval).
#[must_use]
pub fn interval_mul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let products = [a.0 * b.0, a.0 * b.1, a.1 * b.0, a.1 * b.1];
    let lo = products.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = products.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    outward(lo, hi, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: &[&[f64]]) -> Mat {
        Mat::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn solves_identity() {
        let a = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = solve(a, vec![3.0, -4.0]).unwrap();
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2() {
        // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
        let a = mat(&[&[2.0, 1.0], &[1.0, -1.0]]);
        let x = solve(a, vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn needs_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = mat(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(a, vec![7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn mat_swap_rows_is_elementwise() {
        let mut m = mat(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn mat_mul_into_handles_rectangular_shapes() {
        // (2×3)·(3×2) = 2×2, checked against hand arithmetic.
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = mat(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let mut p = Mat::zeros(2, 2);
        mat_mul_into(&a, &b, &mut p);
        assert_eq!(p.rows(), 2);
        assert_eq!(p.cols(), 2);
        assert_eq!(p.into_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Mat::zeros(3, 3);
        assert_eq!(expm(&z), Mat::identity(3));
    }

    #[test]
    fn expm_matches_scalar_exponential_on_diagonal() {
        let a = mat(&[&[-0.5, 0.0], &[0.0, -3.0]]);
        let e = expm(&a);
        assert!((e[(0, 0)] - (-0.5_f64).exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - (-3.0_f64).exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-15 && e[(1, 0)].abs() < 1e-15);
    }

    #[test]
    fn expm_satisfies_semigroup_property() {
        // exp(A) · exp(A) == exp(2A) for a non-diagonal stable matrix.
        let a = mat(&[&[-2.0, 1.5], &[0.7, -1.2]]);
        let two_a = mat(&[&[-4.0, 3.0], &[1.4, -2.4]]);
        let e1 = expm(&a);
        let e2 = expm(&two_a);
        let mut prod = Mat::zeros(2, 2);
        mat_mul_into(&e1, &e1, &mut prod);
        for i in 0..2 {
            for j in 0..2 {
                assert!((prod[(i, j)] - e2[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_multi_matches_columnwise_solve() {
        let a = mat(&[&[2.0, 1.0], &[1.0, -1.0]]);
        let b = mat(&[&[5.0, 1.0], &[1.0, 2.0]]);
        let x = solve_multi(a.clone(), b.clone()).unwrap();
        for col in 0..2 {
            let rhs: Vec<f64> = (0..2).map(|row| b[(row, col)]).collect();
            let xc = solve(a.clone(), rhs).unwrap();
            for row in 0..2 {
                assert!((x[(row, col)] - xc[row]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn symmetric_eigenvalues_of_diagonal_matrix() {
        let a = mat(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let eigs = symmetric_eigenvalues(&a);
        assert!((eigs[0] - (-1.0)).abs() < 1e-12);
        assert!((eigs[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_eigenvalues_of_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = mat(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eigs = symmetric_eigenvalues(&a);
        assert!((eigs[0] - 1.0).abs() < 1e-12);
        assert!((eigs[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_eigenvalues_preserve_trace_and_detect_indefiniteness() {
        // Laplacian-like matrix plus a negative diagonal entry: trace is
        // invariant under the rotations, and the smallest eigenvalue is
        // bounded above by the smallest diagonal entry.
        let a = mat(&[&[-0.5, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let eigs = symmetric_eigenvalues(&a);
        let trace: f64 = eigs.iter().sum();
        assert!((trace - 6.5).abs() < 1e-10);
        assert!(eigs[0] < -0.5 + 1e-12, "min eigenvalue {:?}", eigs);
    }

    #[test]
    fn solve_multi_detects_singular() {
        let a = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve_multi(a, mat(&[&[1.0], &[2.0]])).is_none());
    }

    proptest! {
        #[test]
        fn prop_solution_satisfies_system(
            seed in proptest::collection::vec(-5.0_f64..5.0, 9),
            b in proptest::collection::vec(-5.0_f64..5.0, 3),
        ) {
            // Build a diagonally dominant (hence nonsingular) matrix.
            let mut a = Mat::zeros(3, 3);
            for i in 0..3 {
                let mut row_sum = 0.0;
                for j in 0..3 {
                    if i != j {
                        a[(i, j)] = seed[i * 3 + j];
                        row_sum += a[(i, j)].abs();
                    }
                }
                a[(i, i)] = row_sum + 1.0;
            }
            let x = solve(a.clone(), b.clone()).unwrap();
            for i in 0..3 {
                let lhs: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum();
                prop_assert!((lhs - b[i]).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_interval_dot_brackets_every_realization(
            coeffs in proptest::collection::vec(-3.0_f64..3.0, 4),
            lows in proptest::collection::vec(-10.0_f64..10.0, 4),
            widths in proptest::collection::vec(0.0_f64..5.0, 4),
            picks in proptest::collection::vec(0.0_f64..1.0, 4),
        ) {
            let x_lo: Vec<f64> = lows.clone();
            let x_hi: Vec<f64> = lows.iter().zip(&widths).map(|(l, w)| l + w).collect();
            let (lo, hi) = interval_dot(&coeffs, &x_lo, &x_hi);
            prop_assert!(lo <= hi);
            // Any concrete point inside the box lands inside the bounds.
            let x: Vec<f64> = x_lo
                .iter()
                .zip(&x_hi)
                .zip(&picks)
                .map(|((&l, &h), &t)| l + t * (h - l))
                .collect();
            let exact: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
            prop_assert!(lo <= exact && exact <= hi, "{lo} !<= {exact} !<= {hi}");
        }

        #[test]
        fn prop_interval_mul_brackets_every_realization(
            a_lo in -4.0_f64..4.0, a_w in 0.0_f64..3.0,
            b_lo in -4.0_f64..4.0, b_w in 0.0_f64..3.0,
            ta in 0.0_f64..1.0, tb in 0.0_f64..1.0,
        ) {
            let a = (a_lo, a_lo + a_w);
            let b = (b_lo, b_lo + b_w);
            let (lo, hi) = interval_mul(a, b);
            let x = a.0 + ta * (a.1 - a.0);
            let y = b.0 + tb * (b.1 - b.0);
            prop_assert!(lo <= x * y && x * y <= hi);
        }
    }

    #[test]
    fn interval_mat_vec_is_exact_on_points_modulo_slack() {
        // A degenerate (point) interval propagates to the concrete mat-vec
        // result, widened only by the outward rounding slack.
        let m = [0.5, -0.25, 0.1, 0.9];
        let x = [2.0, -3.0];
        let mut lo = [0.0; 2];
        let mut hi = [0.0; 2];
        interval_mat_vec(&m, 2, &x, &x, &mut lo, &mut hi);
        let exact = [0.5 * 2.0 - 0.25 * -3.0, 0.1 * 2.0 + 0.9 * -3.0];
        for i in 0..2 {
            assert!(lo[i] <= exact[i] && exact[i] <= hi[i]);
            assert!(hi[i] - lo[i] < 1e-12, "slack stays tiny: {}", hi[i] - lo[i]);
        }
    }

    #[test]
    fn interval_dot_swaps_endpoints_for_negative_coefficients() {
        let (lo, hi) = interval_dot(&[-2.0], &[1.0], &[3.0]);
        assert!(lo <= -6.0 && -6.0 <= hi);
        assert!(lo <= -2.0 && -2.0 <= hi);
        assert!(lo < -6.0 + 1e-9 && hi > -2.0 - 1e-9);
    }
}
