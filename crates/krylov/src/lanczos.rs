//! Lanczos spectrum estimation (Ritz values).
//!
//! The paper's Fig. 10 shows GLS convergence is governed by the quality of
//! the spectrum estimate `Θ`; after norm-1 scaling it settles for the safe
//! `Θ = (ε, 1)`. The practical instrument for a *sharper* estimate is a
//! short Lanczos run: for symmetric `A` the Krylov process produces a small
//! tridiagonal matrix whose eigenvalues (Ritz values) converge to `σ(A)`'s
//! extremes first. Thirty matvecs pin `λ_max` to several digits, but the
//! smallest Ritz value converges slowest: [`estimate_spectrum`]'s 30-step
//! floor `θ_min/2` lies 77× above the true `λ_min` on the scaled Mesh2
//! (3.67e-4 against 4.790e-6) and 36× above it on Mesh3. It is a cheap `Θ`
//! guess, not a bracket: GLS tolerates it (its least-squares objective
//! leaves the modes below the floor to the Krylov iteration, and Fig. 10's
//! Mesh2 run converges as fast as on `Θ = (ε, 1)`), Chebyshev does not (its
//! min-max bound holds only on the interval it is given). [`measure_spectrum`],
//! the one sequential spectrum measurement (`parfem spectrum`, Fig. 10's
//! measured `Θ`, the Chebyshev floor of the polynomial ablation), runs
//! `min(n, 400)` steps.
//!
//! Next to the symmetric tridiagonal QL sits the small **nonsymmetric**
//! kernel the deflated FGMRES restart needs for its harmonic Ritz pairs
//! (`m ≤ 50`): [`dense_eigenvalues`] (balancing, reduction to Hessenberg
//! form, Francis double-shift QR) and [`dense_eigenvector`] (inverse
//! iteration, in real arithmetic for complex pairs). Both work in
//! caller-provided scratch and never allocate.

use parfem_sparse::{dense, LinearOperator};

/// Runs `steps` Lanczos iterations on the symmetric operator `op` with full
/// reorthogonalization (robust for estimation purposes), returning the
/// tridiagonal coefficients `(alpha, beta)` with `alpha.len() == k` and
/// `beta.len() == k-1` for the `k ≤ steps` completed steps.
///
/// # Panics
/// Panics for a zero-dimensional operator.
pub fn lanczos_tridiagonal<Op: LinearOperator + ?Sized>(
    op: &Op,
    steps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = op.dim();
    assert!(n > 0, "lanczos: empty operator");
    let steps = steps.min(n);

    // Deterministic pseudo-random start.
    let mut state = 0x243f_6a88_85a3_08d3_u64;
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    let nv = dense::norm2(&v).max(1e-300);
    dense::scale(1.0 / nv, &mut v);

    let mut basis: Vec<Vec<f64>> = vec![v.clone()];
    let mut alpha = Vec::with_capacity(steps);
    let mut beta: Vec<f64> = Vec::with_capacity(steps.saturating_sub(1));
    let mut w = vec![0.0; n];

    for k in 0..steps {
        op.apply_into(&basis[k], &mut w);
        let a_k = dense::dot(&w, &basis[k]);
        alpha.push(a_k);
        // w -= alpha_k v_k + beta_{k-1} v_{k-1}; then full reorth.
        dense::axpy(-a_k, &basis[k], &mut w);
        if k > 0 {
            dense::axpy(-beta[k - 1], &basis[k - 1], &mut w);
        }
        for vb in &basis {
            let h = dense::dot(&w, vb);
            dense::axpy(-h, vb, &mut w);
        }
        let b_k = dense::norm2(&w);
        if k + 1 == steps {
            break;
        }
        if b_k < 1e-13 * alpha[0].abs().max(1.0) {
            break; // invariant subspace: Ritz values are exact
        }
        beta.push(b_k);
        let mut v_next = w.clone();
        dense::scale(1.0 / b_k, &mut v_next);
        basis.push(v_next);
    }
    (alpha, beta)
}

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `alpha`
/// and off-diagonal `beta`, by the implicit-shift QL algorithm, ascending.
///
/// # Panics
/// Panics on inconsistent lengths or failure to converge (more than 50
/// sweeps per eigenvalue — unreachable for well-formed input).
pub fn sym_tridiag_eigenvalues(alpha: &[f64], beta: &[f64]) -> Vec<f64> {
    let n = alpha.len();
    assert!(
        beta.len() + 1 == n || (n == 0 && beta.is_empty()),
        "tridiagonal shape mismatch"
    );
    if n == 0 {
        return Vec::new();
    }
    let mut d = alpha.to_vec();
    // e[0..n-1] sub-diagonal, e[n-1] scratch zero.
    let mut e = vec![0.0; n];
    e[..(n - 1)].copy_from_slice(beta);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "QL failed to converge");
            // Implicit shift from the 2x2 at the bottom of the block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                f = 0.0;
                let _ = f;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN eigenvalues"));
    d
}

/// Eigenvalues of the dense real `n × n` matrix `a` (row-major; destroyed)
/// by balancing, reduction to upper Hessenberg form with stabilised
/// elementary similarities, and the Francis double-shift QR iteration.
/// Eigenvalue `i` is `wr[i] + i·wi[i]`; a complex-conjugate pair occupies
/// two adjacent slots, negative imaginary part first. Returns `false` when
/// the input is not finite or the iteration fails to converge (30 sweeps
/// per eigenvalue). Allocation-free.
///
/// # Panics
/// Panics when `a` holds fewer than `n²` values or `wr`/`wi` fewer than `n`.
pub fn dense_eigenvalues(a: &mut [f64], n: usize, wr: &mut [f64], wi: &mut [f64]) -> bool {
    assert!(a.len() >= n * n && wr.len() >= n && wi.len() >= n);
    if !a[..n * n].iter().all(|v| v.is_finite()) {
        return false;
    }
    balance(a, n);
    to_hessenberg(a, n);
    hessenberg_qr(a, n, wr, wi) && wr[..n].iter().chain(&wi[..n]).all(|v| v.is_finite())
}

/// Scales rows and columns of `a` by powers of two so that each row and
/// its column have comparable norms (a similarity; the spectrum is exact).
fn balance(a: &mut [f64], n: usize) {
    const RADIX: f64 = 2.0;
    let mut done = false;
    while !done {
        done = true;
        for i in 0..n {
            let (mut r, mut c) = (0.0, 0.0);
            for j in (0..n).filter(|&j| j != i) {
                c += a[j * n + i].abs();
                r += a[i * n + j].abs();
            }
            if c == 0.0 || r == 0.0 {
                continue;
            }
            let s = c + r;
            let mut f = 1.0;
            while c < r / RADIX {
                f *= RADIX;
                c *= RADIX * RADIX;
            }
            while c > r * RADIX {
                f /= RADIX;
                c /= RADIX * RADIX;
            }
            if (c + r) / f < 0.95 * s {
                done = false;
                for j in 0..n {
                    a[i * n + j] /= f;
                    a[j * n + i] *= f;
                }
            }
        }
    }
}

/// Reduces `a` to upper Hessenberg form by Gaussian elimination with
/// pivoting (stabilised elementary similarities), zeroing below the
/// subdiagonal.
fn to_hessenberg(a: &mut [f64], n: usize) {
    for m in 1..n.saturating_sub(1) {
        let mut x = 0.0f64;
        let mut piv = m;
        for j in m..n {
            if a[j * n + m - 1].abs() > x.abs() {
                x = a[j * n + m - 1];
                piv = j;
            }
        }
        if piv != m {
            for j in (m - 1)..n {
                a.swap(piv * n + j, m * n + j);
            }
            for j in 0..n {
                a.swap(j * n + piv, j * n + m);
            }
        }
        if x != 0.0 {
            for i in (m + 1)..n {
                let y = a[i * n + m - 1] / x;
                if y != 0.0 {
                    for j in m..n {
                        a[i * n + j] -= y * a[m * n + j];
                    }
                    for j in 0..n {
                        a[j * n + m] += y * a[j * n + i];
                    }
                }
            }
        }
    }
    for i in 2..n {
        a[i * n..i * n + i - 1].fill(0.0);
    }
}

/// `|a|` carrying the sign of `b`.
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// All eigenvalues of the upper Hessenberg `a` (destroyed) by the Francis
/// double-shift QR iteration with exceptional shifts after 10 and 20
/// sweeps. Indices are one-based inside, as in the classical formulation.
fn hessenberg_qr(a: &mut [f64], n: usize, wr: &mut [f64], wi: &mut [f64]) -> bool {
    macro_rules! at {
        ($i:expr, $j:expr) => {
            a[($i - 1) * n + ($j - 1)]
        };
    }
    let mut anorm = 0.0;
    for i in 1..=n {
        for j in i.max(2) - 1..=n {
            anorm += at!(i, j).abs();
        }
    }
    let mut nn = n;
    let mut t = 0.0;
    while nn >= 1 {
        let mut its = 0;
        loop {
            // Look for a negligible subdiagonal element to split at.
            let mut l = nn;
            while l >= 2 {
                let mut s = at!(l - 1, l - 1).abs() + at!(l, l).abs();
                if s == 0.0 {
                    s = anorm;
                }
                if at!(l, l - 1).abs() + s == s {
                    at!(l, l - 1) = 0.0;
                    break;
                }
                l -= 1;
            }
            let mut x = at!(nn, nn);
            if l == nn {
                // One root found.
                wr[nn - 1] = x + t;
                wi[nn - 1] = 0.0;
                nn -= 1;
                break;
            }
            let mut y = at!(nn - 1, nn - 1);
            let mut w = at!(nn, nn - 1) * at!(nn - 1, nn);
            if l == nn - 1 {
                // Two roots found: a real pair or a complex-conjugate pair.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let z = q.abs().sqrt();
                x += t;
                if q >= 0.0 {
                    let z = p + sign(z, p);
                    wr[nn - 2] = x + z;
                    wr[nn - 1] = if z != 0.0 { x - w / z } else { x + z };
                    wi[nn - 2] = 0.0;
                    wi[nn - 1] = 0.0;
                } else {
                    wr[nn - 2] = x + p;
                    wr[nn - 1] = x + p;
                    wi[nn - 2] = -z;
                    wi[nn - 1] = z;
                }
                nn -= 2;
                break;
            }
            if its == 30 {
                return false;
            }
            if its == 10 || its == 20 {
                // Exceptional shift.
                t += x;
                for i in 1..=nn {
                    at!(i, i) -= x;
                }
                let s = at!(nn, nn - 1).abs() + at!(nn - 1, nn - 2).abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;
            // Form the shift; look for two consecutive small subdiagonals.
            let mut m = nn - 2;
            let (mut p, mut q, mut r);
            let mut z;
            loop {
                z = at!(m, m);
                r = x - z;
                let s = y - z;
                p = (r * s - w) / at!(m + 1, m) + at!(m, m + 1);
                q = at!(m + 1, m + 1) - z - r - s;
                r = at!(m + 2, m + 1);
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = at!(m, m - 1).abs() * (q.abs() + r.abs());
                let v = p.abs() * (at!(m - 1, m - 1).abs() + z.abs() + at!(m + 1, m + 1).abs());
                if u + v == v {
                    break;
                }
                m -= 1;
            }
            for i in (m + 2)..=nn {
                at!(i, i - 2) = 0.0;
                if i != m + 2 {
                    at!(i, i - 3) = 0.0;
                }
            }
            // Double QR step on rows l..=nn and columns m..=nn.
            for k in m..nn {
                if k != m {
                    p = at!(k, k - 1);
                    q = at!(k + 1, k - 1);
                    r = if k != nn - 1 { at!(k + 2, k - 1) } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if l != m {
                        at!(k, k - 1) = -at!(k, k - 1);
                    }
                } else {
                    at!(k, k - 1) = -s * x;
                }
                p += s;
                x = p / s;
                y = q / s;
                z = r / s;
                q /= p;
                r /= p;
                for j in k..=nn {
                    p = at!(k, j) + q * at!(k + 1, j);
                    if k != nn - 1 {
                        p += r * at!(k + 2, j);
                        at!(k + 2, j) -= p * z;
                    }
                    at!(k + 1, j) -= p * y;
                    at!(k, j) -= p * x;
                }
                for i in l..=nn.min(k + 3) {
                    p = x * at!(i, k) + y * at!(i, k + 1);
                    if k != nn - 1 {
                        p += z * at!(i, k + 2);
                        at!(i, k + 2) -= p * r;
                    }
                    at!(i, k + 1) -= p * q;
                    at!(i, k) -= p;
                }
            }
        }
    }
    true
}

/// LU factorization with partial pivoting of the row-major `dim × dim`
/// matrix in `lu`, in place; a pivot below `tiny` in magnitude is replaced
/// by `tiny` (the shifted systems of inverse iteration are singular by
/// design).
fn lu_factor(lu: &mut [f64], dim: usize, piv: &mut [usize], tiny: f64) {
    for col in 0..dim {
        let mut best = col;
        for r in col + 1..dim {
            if lu[r * dim + col].abs() > lu[best * dim + col].abs() {
                best = r;
            }
        }
        piv[col] = best;
        if best != col {
            for c in 0..dim {
                lu.swap(best * dim + c, col * dim + c);
            }
        }
        if lu[col * dim + col].abs() < tiny {
            lu[col * dim + col] = tiny;
        }
        let d = lu[col * dim + col];
        for r in col + 1..dim {
            let f = lu[r * dim + col] / d;
            lu[r * dim + col] = f;
            if f != 0.0 {
                for c in col + 1..dim {
                    lu[r * dim + c] -= f * lu[col * dim + c];
                }
            }
        }
    }
}

/// Solves `LU x = P b` in place with the factors of [`lu_factor`].
fn lu_solve(lu: &[f64], dim: usize, piv: &[usize], x: &mut [f64]) {
    for i in 0..dim {
        x.swap(i, piv[i]);
    }
    for i in 0..dim {
        let acc: f64 = (0..i).map(|j| lu[i * dim + j] * x[j]).sum();
        x[i] -= acc;
    }
    for i in (0..dim).rev() {
        let acc: f64 = (i + 1..dim).map(|j| lu[i * dim + j] * x[j]).sum();
        x[i] = (x[i] - acc) / lu[i * dim + i];
    }
}

/// Solves `a x = b` for the row-major `n × n` matrix `a` by Gaussian
/// elimination with partial pivoting, overwriting `b` with `x`; `lu` and
/// `piv` are scratch of `n²` and `n` entries. A vanishing pivot is
/// replaced by `ε·‖a‖`, so the result is finite for finite input unless
/// `a` is numerically singular. Allocation-free.
pub fn dense_solve(a: &[f64], n: usize, b: &mut [f64], lu: &mut [f64], piv: &mut [usize]) {
    lu[..n * n].copy_from_slice(&a[..n * n]);
    let norm = a[..n * n].iter().fold(0.0f64, |m, v| m.max(v.abs()));
    lu_factor(
        &mut lu[..n * n],
        n,
        piv,
        f64::EPSILON * norm.max(f64::MIN_POSITIVE),
    );
    lu_solve(&lu[..n * n], n, piv, &mut b[..n]);
}

/// An eigenvector of the dense real `n × n` matrix `a` (row-major) for its
/// eigenvalue `re + i·im` (as returned by [`dense_eigenvalues`]), by three
/// steps of inverse iteration, scaled to unit 2-norm. The real part lands in
/// `x[..n]`; for a complex eigenvalue the imaginary part lands in
/// `x[n..2n]`, the shifted complex system running as the real `2n × 2n`
/// system `[[A − re·I, im·I], [−im·I, A − re·I]]`. `lu`, `piv` and `x` are
/// scratch of `(2n)²`, `2n` and `2n` entries (`n²`, `n`, `n` suffice for a
/// real eigenvalue). Returns `false` on non-finite output. Allocation-free.
pub fn dense_eigenvector(
    a: &[f64],
    n: usize,
    (re, im): (f64, f64),
    lu: &mut [f64],
    piv: &mut [usize],
    x: &mut [f64],
) -> bool {
    let dim = if im == 0.0 { n } else { 2 * n };
    let norm = a[..n * n].iter().fold(0.0f64, |m, v| m.max(v.abs())) + re.abs() + im.abs();
    let (lu, x) = (&mut lu[..dim * dim], &mut x[..dim]);
    lu.fill(0.0);
    for i in 0..n {
        for j in 0..n {
            let v = a[i * n + j] - if i == j { re } else { 0.0 };
            lu[i * dim + j] = v;
            if dim > n {
                lu[(n + i) * dim + n + j] = v;
            }
        }
        if dim > n {
            lu[i * dim + n + i] = im;
            lu[(n + i) * dim + i] = -im;
        }
    }
    lu_factor(lu, dim, piv, f64::EPSILON * norm.max(f64::MIN_POSITIVE));
    for (i, xi) in x.iter_mut().enumerate() {
        *xi = 1.0 + (i as f64 * 0.618_033_988_75).fract();
    }
    for _ in 0..3 {
        lu_solve(lu, dim, piv, x);
        let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if !(scale.is_finite() && scale > 0.0) {
            return false;
        }
        x.iter_mut().for_each(|v| *v /= scale);
    }
    let nrm = dense::norm2(x);
    x.iter_mut().for_each(|v| *v /= nrm);
    nrm.is_finite()
}

/// Lanczos steps of a spectrum measurement ([`measure_spectrum`]). On the
/// paper's scaled Mesh7 (12 960 rows) this pins `λ_max` to nine digits and
/// `λ_min` to about four (`1.32469e-5` against `1.32443e-5` at 800 steps);
/// on Mesh2 and Mesh3 it reads `λ_min` as a full run does.
pub const MEASURE_STEPS: usize = 400;

/// The measured spectrum `(θ_min, θ_max)` of a symmetric operator: the
/// extreme Ritz values of `min(n, MEASURE_STEPS)` Lanczos steps, so the
/// exact extreme eigenvalues whenever `n ≤ MEASURE_STEPS`, and otherwise
/// inside `[λ_min, λ_max]` with `θ_min` the slower to converge.
///
/// # Panics
/// Panics for a zero-dimensional operator.
pub fn measure_spectrum<Op: LinearOperator + ?Sized>(op: &Op) -> (f64, f64) {
    ritz_extremes(op, MEASURE_STEPS)
}

/// A cheap spectrum guess `(θ_min/2, 1.02·θ_max)` from the extreme Ritz
/// values of `steps` Lanczos iterations. Ritz values lie inside the
/// spectrum, and the margins do not make the pair a bracket: the upper end
/// clears `λ_max` once `θ_max` has converged (a few dozen steps), but the
/// smallest Ritz value converges slowest, so at 30 steps the floor can sit
/// far above `λ_min` (77× on the scaled Mesh2). A `Θ` for GLS, not for
/// a method whose bound needs the true floor; [`measure_spectrum`]
/// measures.
pub fn estimate_spectrum<Op: LinearOperator + ?Sized>(op: &Op, steps: usize) -> (f64, f64) {
    let (lmin, lmax) = ritz_extremes(op, steps);
    (lmin * 0.5, lmax * 1.02)
}

/// The smallest and largest Ritz values of `steps` Lanczos steps.
fn ritz_extremes<Op: LinearOperator + ?Sized>(op: &Op, steps: usize) -> (f64, f64) {
    let (alpha, beta) = lanczos_tridiagonal(op, steps);
    let eigs = sym_tridiag_eigenvalues(&alpha, &beta);
    let lmin = *eigs.first().expect("at least one Ritz value");
    let lmax = *eigs.last().expect("at least one Ritz value");
    (lmin, lmax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_sparse::{CooMatrix, CsrMatrix};

    fn laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    fn laplacian_extremes(n: usize) -> (f64, f64) {
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        (2.0 - 2.0 * h.cos(), 2.0 - 2.0 * ((n as f64) * h).cos())
    }

    #[test]
    fn tridiag_eigenvalues_of_known_matrices() {
        // Diagonal matrix: eigenvalues are the diagonal.
        let eigs = sym_tridiag_eigenvalues(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(eigs.len(), 3);
        assert!((eigs[0] - 1.0).abs() < 1e-12);
        assert!((eigs[2] - 3.0).abs() < 1e-12);

        // 2x2 [[2, 1], [1, 2]]: eigenvalues 1, 3.
        let eigs = sym_tridiag_eigenvalues(&[2.0, 2.0], &[1.0]);
        assert!((eigs[0] - 1.0).abs() < 1e-12);
        assert!((eigs[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tridiag_eigenvalues_match_laplacian_closed_form() {
        // The full tridiagonal Laplacian: all eigenvalues known.
        let n = 12;
        let alpha = vec![2.0; n];
        let beta = vec![-1.0; n - 1];
        let eigs = sym_tridiag_eigenvalues(&alpha, &beta);
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        for (k, e) in eigs.iter().enumerate() {
            let exact = 2.0 - 2.0 * ((k as f64 + 1.0) * h).cos();
            assert!((e - exact).abs() < 1e-10, "eig {k}: {e} vs {exact}");
        }
    }

    #[test]
    fn lanczos_ritz_values_bracket_the_spectrum() {
        let a = laplacian(60);
        let (alpha, beta) = lanczos_tridiagonal(&a, 25);
        let eigs = sym_tridiag_eigenvalues(&alpha, &beta);
        let (lmin, lmax) = laplacian_extremes(60);
        // Ritz values are inside the spectrum...
        assert!(*eigs.first().unwrap() >= lmin - 1e-10);
        assert!(*eigs.last().unwrap() <= lmax + 1e-10);
        // ...and the top one converges fast (the Laplacian's top eigenvalues
        // cluster, so "fast" here means a few parts in a thousand).
        assert!(
            (eigs.last().unwrap() - lmax).abs() < 5e-3 * lmax,
            "top Ritz {} vs {}",
            eigs.last().unwrap(),
            lmax
        );
    }

    #[test]
    fn estimate_spectrum_brackets_with_margins() {
        let a = laplacian(40);
        let (lo, hi) = estimate_spectrum(&a, 30);
        let (lmin, lmax) = laplacian_extremes(40);
        assert!(lo <= lmin, "floor {lo} must not exceed lambda_min {lmin}");
        assert!(hi >= lmax, "cap {hi} must cover lambda_max {lmax}");
        assert!(hi < 1.2 * lmax, "cap {hi} not wildly loose");
    }

    #[test]
    fn lanczos_exact_on_small_operators() {
        // steps >= n: Ritz values equal the exact spectrum.
        let a = laplacian(6);
        let (alpha, beta) = lanczos_tridiagonal(&a, 6);
        let eigs = sym_tridiag_eigenvalues(&alpha, &beta);
        let h = std::f64::consts::PI / 7.0;
        for (k, e) in eigs.iter().enumerate() {
            let exact = 2.0 - 2.0 * ((k as f64 + 1.0) * h).cos();
            assert!((e - exact).abs() < 1e-8, "eig {k}: {e} vs {exact}");
        }
    }

    /// Largest component of `A x − θ x` for an eigenpair stacked as
    /// `[Re x; Im x]` (real part only for a real `θ`).
    fn eigen_residual(a: &[f64], n: usize, (re, im): (f64, f64), x: &[f64]) -> f64 {
        let at = |k: usize| if im == 0.0 && k >= n { 0.0 } else { x[k] };
        let mut worst = 0.0f64;
        for i in 0..n {
            let ar: f64 = (0..n).map(|j| a[i * n + j] * at(j)).sum();
            let ai: f64 = (0..n).map(|j| a[i * n + j] * at(n + j)).sum();
            let (u, w) = (at(i), at(n + i));
            worst = worst
                .max((ar - (re * u - im * w)).abs())
                .max((ai - (re * w + im * u)).abs());
        }
        worst
    }

    #[test]
    fn dense_eigen_finds_a_complex_conjugate_pair() {
        // Companion matrix of (x − 3)(x² − 2x + 5) = x³ − 5x² + 11x − 15:
        // eigenvalues 3 and 1 ± 2i.
        let a = [5.0, -11.0, 15.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0];
        let (mut wr, mut wi) = ([0.0; 3], [0.0; 3]);
        let mut work = a;
        assert!(dense_eigenvalues(&mut work, 3, &mut wr, &mut wi));
        let mut got: Vec<(f64, f64)> = wr.iter().copied().zip(wi).collect();
        got.sort_by(|p, q| p.1.total_cmp(&q.1));
        for (g, w) in got.iter().zip([(1.0, -2.0), (3.0, 0.0), (1.0, 2.0)]) {
            assert!(
                (g.0 - w.0).abs() < 1e-10 && (g.1 - w.1).abs() < 1e-10,
                "{g:?}"
            );
        }
        // The pair is adjacent, negative imaginary part first, exact conjugates.
        let neg = wi.iter().position(|&v| v < 0.0).expect("a complex pair");
        assert_eq!(wi[neg + 1], -wi[neg]);
        assert_eq!(wr[neg + 1], wr[neg]);
        let (mut lu, mut piv, mut x) = ([0.0; 36], [0usize; 6], [0.0; 6]);
        for i in (0..3).filter(|&i| wi[i] >= 0.0) {
            let theta = (wr[i], wi[i]);
            assert!(dense_eigenvector(&a, 3, theta, &mut lu, &mut piv, &mut x));
            let len = if theta.1 == 0.0 { 3 } else { 6 };
            assert!((dense::norm2(&x[..len]) - 1.0).abs() < 1e-12);
            let res = eigen_residual(&a, 3, theta, &x);
            assert!(res < 1e-10, "θ = {theta:?}: residual {res}");
        }
    }

    #[test]
    fn dense_eigen_recovers_a_known_real_spectrum() {
        // A = L B L⁻¹ with B upper triangular (spectrum = its diagonal) and
        // L unit lower triangular: a full nonsymmetric matrix, real spectrum.
        let n = 6;
        let diag = [4.0, -1.0, 0.5, 2.0, 7.0, -3.0];
        let mut b = vec![0.0; n * n];
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            b[i * n + i] = diag[i];
            l[i * n + i] = 1.0;
            for j in i + 1..n {
                b[i * n + j] = 0.3 * (i + 2 * j) as f64 - 1.0;
                l[j * n + i] = 0.5 * ((i + j) % 3) as f64 - 0.4;
            }
        }
        // L⁻¹ column by column through the dense solver.
        let (mut lu, mut piv) = (vec![0.0; 4 * n * n], vec![0usize; 2 * n]);
        let mut linv = vec![0.0; n * n];
        let mut col = vec![0.0; n];
        for c in 0..n {
            col.fill(0.0);
            col[c] = 1.0;
            dense_solve(&l, n, &mut col, &mut lu, &mut piv);
            for r in 0..n {
                linv[r * n + c] = col[r];
            }
        }
        let mul = |x: &[f64], y: &[f64]| -> Vec<f64> {
            let mut z = vec![0.0; n * n];
            for i in 0..n {
                for k in 0..n {
                    for j in 0..n {
                        z[i * n + j] += x[i * n + k] * y[k * n + j];
                    }
                }
            }
            z
        };
        let a = mul(&mul(&l, &b), &linv);
        let (mut wr, mut wi) = (vec![0.0; n], vec![0.0; n]);
        let mut work = a.clone();
        assert!(dense_eigenvalues(&mut work, n, &mut wr, &mut wi));
        assert!(
            wi.iter().all(|&v| v == 0.0),
            "spurious imaginary parts {wi:?}"
        );
        let mut sorted = wr.clone();
        sorted.sort_by(f64::total_cmp);
        let mut want = diag.to_vec();
        want.sort_by(f64::total_cmp);
        for (g, w) in sorted.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        let mut x = vec![0.0; 2 * n];
        for &theta in &wr {
            assert!(dense_eigenvector(
                &a,
                n,
                (theta, 0.0),
                &mut lu,
                &mut piv,
                &mut x
            ));
            let res = eigen_residual(&a, n, (theta, 0.0), &x);
            assert!(res < 1e-9, "θ = {theta}: residual {res}");
        }
    }

    #[test]
    fn dense_eigenvalues_reject_non_finite_input() {
        let mut a = [1.0, f64::NAN, 0.0, 2.0];
        let (mut wr, mut wi) = ([0.0; 2], [0.0; 2]);
        assert!(!dense_eigenvalues(&mut a, 2, &mut wr, &mut wi));
    }

    #[test]
    fn single_step_gives_rayleigh_quotient() {
        let a = CsrMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        let (alpha, beta) = lanczos_tridiagonal(&a, 1);
        assert_eq!(alpha.len(), 1);
        assert!(beta.is_empty());
        assert!(alpha[0] >= 1.0 && alpha[0] <= 3.0);
    }

    #[test]
    fn measured_spectrum_is_exact_below_the_step_count() {
        // n <= MEASURE_STEPS: the Ritz extremes are the eigenvalues.
        let a = laplacian(20);
        let (lo, hi) = measure_spectrum(&a);
        let (lmin, lmax) = laplacian_extremes(20);
        assert!((hi - lmax).abs() < 1e-10 * lmax, "top {hi} vs exact {lmax}");
        assert!(
            (lo - lmin).abs() < 1e-8 * lmin,
            "bottom {lo} vs exact {lmin}"
        );
    }

    #[test]
    fn measured_spectrum_of_a_diagonal_matrix() {
        let a = CsrMatrix::from_diagonal(&[1.0, 5.0, 3.0]);
        let (lo, hi) = measure_spectrum(&a);
        assert!(
            (lo - 1.0).abs() < 1e-12 && (hi - 5.0).abs() < 1e-12,
            "[{lo}, {hi}]"
        );
    }

    #[test]
    fn measured_spectrum_of_a_singular_operator() {
        // [1 -1; -1 1] has eigenvalues {0, 2}: a zero end is found, not
        // stepped around.
        let a = CsrMatrix::from_dense(2, 2, &[1.0, -1.0, -1.0, 1.0]);
        let (lo, hi) = measure_spectrum(&a);
        assert!(lo.abs() < 1e-12 && (hi - 2.0).abs() < 1e-12, "[{lo}, {hi}]");
    }

    #[test]
    fn measured_spectrum_stays_inside_beyond_the_step_count() {
        // n > MEASURE_STEPS: Ritz values lie inside [λ_min, λ_max], the top
        // one converged.
        let n = MEASURE_STEPS + 100;
        let a = laplacian(n);
        let (lo, hi) = measure_spectrum(&a);
        let (lmin, lmax) = laplacian_extremes(n);
        assert!(lo >= lmin - 1e-12 && hi <= lmax + 1e-12, "[{lo}, {hi}]");
        assert!((hi - lmax).abs() < 1e-6 * lmax, "top {hi} vs exact {lmax}");
    }
}
