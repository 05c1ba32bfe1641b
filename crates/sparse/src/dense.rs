//! Dense `f64` vector kernels.
//!
//! These are the DAXPY / dot-product / norm primitives that dominate the
//! vector-update cost of the Krylov solvers (paper Section 3.1.2). They are
//! deliberately written over plain slices so the same kernels serve global
//! vectors, subdomain-local vectors, and Hessenberg columns, and so the
//! compiler can vectorize them.

/// `y <- alpha * x + y` (DAXPY).
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y <- alpha * x + beta * y`.
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// Euclidean inner product `<x, y>`.
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `||x||_2`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `x <- alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// `z <- x - y`, writing into a caller-provided buffer.
///
/// # Panics
/// Panics if the three slices have different lengths.
#[inline]
pub fn sub_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch");
    assert_eq!(x.len(), z.len(), "sub_into: output length mismatch");
    for ((zi, xi), yi) in z.iter_mut().zip(x).zip(y) {
        *zi = xi - yi;
    }
}

/// Copies `x` into `y`.
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// Component-wise multiplication `y_i <- d_i * x_i` (application of a diagonal
/// matrix).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn diag_mul_into(d: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(d.len(), x.len(), "diag_mul_into: length mismatch");
    assert_eq!(d.len(), y.len(), "diag_mul_into: output length mismatch");
    for ((yi, di), xi) in y.iter_mut().zip(d).zip(x) {
        *yi = di * xi;
    }
}

/// In-place component-wise multiplication `x_i <- d_i * x_i`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn diag_mul(d: &[f64], x: &mut [f64]) {
    assert_eq!(d.len(), x.len(), "diag_mul: length mismatch");
    for (xi, di) in x.iter_mut().zip(d) {
        *xi *= di;
    }
}

/// Fills `x` with zeros.
#[inline]
pub fn zero(x: &mut [f64]) {
    x.fill(0.0);
}

/// `len` zeros, written front to back rather than left as `vec![0.0; n]`'s
/// untouched zero pages. A large `vec![0.0; n]` is a fresh mapping whose
/// pages fault twice at their first `+=` — a read fault that maps the
/// shared zero page, then a copy-on-write fault — so a buffer that is
/// scattered into (assembly values, the factor's panels) takes one fault
/// per page here instead, and the strided writes after it take none (on
/// several rank threads at once those faults made the assembly's numeric
/// pass two to three times slower).
pub fn zeros(len: usize) -> Vec<f64> {
    let mut values = Vec::with_capacity(len);
    values.resize(len, 0.0);
    values
}

/// Solves the dense `n x n` system `A x = b` by LU with partial pivoting.
///
/// `a` is row-major and is consumed as scratch. Intended for small reference
/// systems (test oracles, Hessenberg least squares, polynomial construction)
/// — not a sparse-solver replacement.
///
/// # Panics
/// Panics on dimension mismatch or a numerically singular matrix.
pub fn solve_dense(n: usize, a: &mut [f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), n * n, "solve_dense: matrix length mismatch");
    assert_eq!(b.len(), n, "solve_dense: rhs length mismatch");
    let mut x = b.to_vec();
    for p in 0..n {
        // Partial pivot.
        let (piv, pmax) = (p..n)
            .map(|r| (r, a[r * n + p].abs()))
            .max_by(|u, v| u.1.partial_cmp(&v.1).expect("non-NaN pivot"))
            .expect("non-empty pivot column");
        assert!(pmax > 1e-300, "solve_dense: singular matrix at column {p}");
        if piv != p {
            for c in 0..n {
                a.swap(p * n + c, piv * n + c);
            }
            x.swap(p, piv);
        }
        let d = a[p * n + p];
        for r in (p + 1)..n {
            let f = a[r * n + p] / d;
            if f == 0.0 {
                continue;
            }
            for c in p..n {
                a[r * n + c] -= f * a[p * n + c];
            }
            x[r] -= f * x[p];
        }
    }
    for p in (0..n).rev() {
        for c in (p + 1)..n {
            x[p] -= a[p * n + c] * x[c];
        }
        x[p] /= a[p * n + p];
    }
    x
}

/// Eigendecomposition of a small dense symmetric matrix by the cyclic
/// Jacobi method.
///
/// `a` is row-major `n × n` (only assumed symmetric; the upper triangle is
/// trusted). Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted
/// ascending and `eigenvectors` row-major — row `k` is the unit eigenvector
/// of `eigenvalues[k]`. Deterministic: fixed sweep order, fixed rotation
/// convention, no data-dependent branching beyond the convergence test.
///
/// The dense spectrum reference of the scaling and element tests: the whole
/// spectrum of a small matrix (tens to a few hundred rows) that a Lanczos
/// estimate or a spectral bound is checked against — not a large-scale
/// eigensolver.
///
/// # Panics
/// Panics when `a.len() != n * n`.
pub fn sym_eigen_jacobi(n: usize, a: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(a.len(), n * n, "sym_eigen_jacobi: matrix length mismatch");
    let mut m = a.to_vec();
    // v starts as identity; rows accumulate Vᵀ so row k ends as eigenvector k.
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let scale: f64 = (0..n)
        .map(|i| m[i * n + i].abs())
        .fold(0.0f64, f64::max)
        .max(1e-300);
    let tol = 1e-14 * scale;
    for _sweep in 0..64 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off = off.max(m[p * n + q].abs());
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() <= tol {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                // Stable rotation (Golub & Van Loan): t = sign/(|θ|+√(θ²+1)).
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkq = m[k * n + q];
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mqk = m[q * n + k];
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vpk = v[p * n + k];
                    let vqk = v[q * n + k];
                    v[p * n + k] = c * vpk - s * vqk;
                    v[q * n + k] = s * vpk + c * vqk;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m[i * n + i]
            .partial_cmp(&m[j * n + j])
            .expect("non-NaN eigenvalue")
    });
    let eigenvalues: Vec<f64> = order.iter().map(|&i| m[i * n + i]).collect();
    let mut eigenvectors = vec![0.0; n * n];
    for (row, &i) in order.iter().enumerate() {
        eigenvectors[row * n..(row + 1) * n].copy_from_slice(&v[i * n..(i + 1) * n]);
    }
    (eigenvalues, eigenvectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-12 * (1.0 + a.abs() + b.abs()),
            "{a} vs {b}"
        );
    }

    #[test]
    fn jacobi_eigen_recovers_spectrum_of_a_laplacian_stencil() {
        // 1-D Laplacian tridiag(-1, 2, -1): λ_k = 2 - 2 cos(kπ/(n+1)).
        let n = 6;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 2.0;
            if i + 1 < n {
                a[i * n + i + 1] = -1.0;
                a[(i + 1) * n + i] = -1.0;
            }
        }
        let (vals, vecs) = sym_eigen_jacobi(n, &a);
        for k in 0..n {
            let exact =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert_close(vals[k], exact);
            // Residual ‖A v − λ v‖∞ per eigenpair.
            let v = &vecs[k * n..(k + 1) * n];
            for i in 0..n {
                let av: f64 = (0..n).map(|j| a[i * n + j] * v[j]).sum();
                assert!((av - vals[k] * v[i]).abs() < 1e-10);
            }
        }
        // Determinism: same input, bit-identical output.
        let (vals2, vecs2) = sym_eigen_jacobi(n, &a);
        assert_eq!(vals, vals2);
        assert_eq!(vecs, vecs2);
    }

    #[test]
    fn axpy_matches_reference() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_matches_reference() {
        let x = [1.0, 2.0];
        let mut y = [3.0, 4.0];
        axpby(2.0, &x, -1.0, &mut y);
        assert_eq!(y, [-1.0, 0.0]);
    }

    #[test]
    fn dot_and_norms() {
        let x = [3.0, -4.0];
        assert_close(dot(&x, &x), 25.0);
        assert_close(norm2(&x), 5.0);
    }

    #[test]
    fn empty_vectors_are_fine() {
        let x: [f64; 0] = [];
        assert_eq!(dot(&x, &x), 0.0);
        assert_eq!(norm2(&x), 0.0);
    }

    #[test]
    fn scale_and_zero() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
        zero(&mut x);
        assert_eq!(x, [0.0, 0.0]);
    }

    #[test]
    fn sub_into_matches_reference() {
        let x = [5.0, 7.0];
        let y = [1.0, 2.0];
        let mut z = [0.0; 2];
        sub_into(&x, &y, &mut z);
        assert_eq!(z, [4.0, 5.0]);
    }

    #[test]
    fn diag_mul_variants_agree() {
        let d = [2.0, 3.0, 4.0];
        let x = [1.0, 1.0, 1.0];
        let mut y = [0.0; 3];
        diag_mul_into(&d, &x, &mut y);
        assert_eq!(y, [2.0, 3.0, 4.0]);

        let mut x2 = x;
        diag_mul(&d, &mut x2);
        assert_eq!(x2, y);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_mismatched_lengths() {
        let x = [1.0];
        let mut y = [1.0, 2.0];
        axpy(1.0, &x, &mut y);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn solve_dense_identity() {
        let mut a = vec![1.0, 0.0, 0.0, 1.0];
        let x = solve_dense(2, &mut a, &[3.0, 4.0]);
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solve_dense_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let x = solve_dense(2, &mut a, &[5.0, 7.0]);
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn solve_dense_random_3x3() {
        let a0 = [2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let xe = [1.0, -2.0, 3.0];
        // b = A * xe
        let mut b = [0.0; 3];
        for r in 0..3 {
            for c in 0..3 {
                b[r] += a0[r * 3 + c] * xe[c];
            }
        }
        let mut a = a0.to_vec();
        let x = solve_dense(3, &mut a, &b);
        for (xi, ei) in x.iter().zip(&xe) {
            assert_close(*xi, *ei);
        }
    }

    #[test]
    #[should_panic(expected = "singular matrix")]
    fn solve_dense_rejects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        solve_dense(2, &mut a, &[1.0, 2.0]);
    }
}
