//! Tuned hot-path kernels: unrolled CSR SpMV and the blocked Gram–Schmidt
//! primitives.
//!
//! Design rules (they are what the solver correctness tests rely on):
//!
//! 1. **Per-row arithmetic is fixed.** Every SpMV variant here accumulates a
//!    row as four independent partial sums over `chunks_exact(4)` combined
//!    as `(a0 + a1) + (a2 + a3)` plus a sequential remainder ([`row_dot`]).
//!    The full and row-subset SpMV, and the RDD halo product that adds one
//!    [`row_dot`] per halo row, therefore produce **bit-identical** row
//!    sums.
//! 2. **Blocked vector kernels preserve element order.** [`dot_block`]
//!    keeps one accumulator per basis vector and walks elements in order,
//!    so it equals the corresponding sequence of individual dot products
//!    bit-for-bit; [`axpy_block`] applies its updates to each element in
//!    block order, matching a sequence of individual AXPYs bit-for-bit;
//!    [`dot_block_weighted`] is [`dot_block`] with a per-element weight.
//!    The blocking only changes *memory traffic* (one pass over `w` instead
//!    of `K`), never floating-point semantics.
//! 3. No allocation anywhere; callers provide every buffer.
//!
//! [`crate::CsrMatrix`] forwards its `spmv_into` method to the raw-slice
//! entry point here; the overlapped distributed matvec calls
//! [`spmv_rows_indexed`] directly.

/// One CSR row dot product, 4-way unrolled.
///
/// The four partial accumulators are combined as `(a0 + a1) + (a2 + a3)`;
/// this is the single row-reduction order used by every SpMV variant in the
/// workspace (see the module docs).
#[inline(always)]
pub fn row_dot(cols: &[usize], vals: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), vals.len());
    let mut c4 = cols.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    for (c, v) in (&mut c4).zip(&mut v4) {
        a0 += v[0] * x[c[0]];
        a1 += v[1] * x[c[1]];
        a2 += v[2] * x[c[2]];
        a3 += v[3] * x[c[3]];
    }
    let mut acc = (a0 + a1) + (a2 + a3);
    for (&c, &v) in c4.remainder().iter().zip(v4.remainder()) {
        acc += v * x[c];
    }
    acc
}

/// `y[r] = A x` for the listed rows only, on raw CSR arrays.
///
/// `y` is full-length (`n_rows`); only the entries named in `rows` are
/// written, each with exactly the [`row_dot`] reduction — so computing a
/// partition of the rows in any number of calls is bit-identical to one
/// full [`spmv_raw`]. This is the kernel behind the overlapped distributed
/// matvec: interface rows are computed before the halo messages are
/// posted, interior rows while they fly.
///
/// # Panics
/// Panics if `y` does not cover all rows or an index is out of range.
pub fn spmv_rows_indexed(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    y: &mut [f64],
    rows: &[usize],
) {
    assert_eq!(
        y.len(),
        row_ptr.len() - 1,
        "spmv_rows_indexed: y length mismatch"
    );
    for &r in rows {
        let lo = row_ptr[r];
        let hi = row_ptr[r + 1];
        y[r] = row_dot(&col_idx[lo..hi], &values[lo..hi], x);
    }
}

/// `y = A x` on raw CSR arrays (all rows).
///
/// # Panics
/// Panics if `y` does not hold one entry per row.
pub fn spmv_raw(row_ptr: &[usize], col_idx: &[usize], values: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(y.len(), row_ptr.len() - 1, "spmv_raw: y length mismatch");
    for (r, yr) in y.iter_mut().enumerate() {
        let lo = row_ptr[r];
        let hi = row_ptr[r + 1];
        *yr = row_dot(&col_idx[lo..hi], &values[lo..hi], x);
    }
}

/// `K` simultaneous dot products `out[j] = <w, vs[j]>` in one pass over `w`.
///
/// Each product keeps its own accumulator and walks elements in order, so
/// the results are bit-identical to `K` separate [`crate::dense::dot`]
/// calls; the fusion saves `K - 1` passes over `w` in classical
/// Gram–Schmidt.
///
/// # Panics
/// Panics if any vector length differs from `w`.
#[inline]
pub fn dot_block<const K: usize>(w: &[f64], vs: [&[f64]; K]) -> [f64; K] {
    for v in vs {
        assert_eq!(v.len(), w.len(), "dot_block: length mismatch");
    }
    let mut acc = [0.0_f64; K];
    for (k, &wk) in w.iter().enumerate() {
        for j in 0..K {
            acc[j] += wk * vs[j][k];
        }
    }
    acc
}

/// Fused block AXPY `w += Σ_j coeffs[j] * vs[j]`, returning `Σ w_k²` of the
/// updated vector.
///
/// Updates are applied to each element in block order, so the result is
/// bit-identical to `K` consecutive [`crate::dense::axpy`] calls; the
/// returned sum of squares equals a subsequent `dot(w, w)` over the updated
/// vector, letting the Arnoldi step fuse its trailing `nrm2` into the final
/// projection block.
///
/// # Panics
/// Panics if any vector length differs from `w`.
#[inline]
pub fn axpy_block<const K: usize>(coeffs: [f64; K], vs: [&[f64]; K], w: &mut [f64]) -> f64 {
    for v in vs {
        assert_eq!(v.len(), w.len(), "axpy_block: length mismatch");
    }
    let mut sq = 0.0;
    for (k, wk) in w.iter_mut().enumerate() {
        let mut t = *wk;
        for j in 0..K {
            t += coeffs[j] * vs[j][k];
        }
        *wk = t;
        sq += t * t;
    }
    sq
}

/// The Gram–Schmidt dot pass: `out[i] = <w, vs[i]>` for the whole basis and
/// `out[vs.len()] = <w, w>`, through [`dot_block`] in blocks of four with
/// `w` itself as the last vector — `⌈(vs.len() + 1) / 4⌉` passes over `w`
/// instead of `vs.len() + 1`, each result bit-identical to its own
/// [`crate::dense::dot`]. This fills the batched-reduction buffer of the
/// FGMRES loop under plain (unweighted) inner products.
///
/// # Panics
/// Panics if `out` is shorter than `vs.len() + 1` or any vector length
/// differs from `w`.
pub fn dot_sweep(w: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
    let cnt = vs.len() + 1;
    assert!(out.len() >= cnt, "dot_sweep: output too short");
    let at = |i: usize| if i < vs.len() { vs[i].as_slice() } else { w };
    let mut i = 0;
    while i + 4 <= cnt {
        let d = dot_block(w, [at(i), at(i + 1), at(i + 2), at(i + 3)]);
        out[i..i + 4].copy_from_slice(&d);
        i += 4;
    }
    match cnt - i {
        1 => out[i] = dot_block(w, [at(i)])[0],
        2 => out[i..i + 2].copy_from_slice(&dot_block(w, [at(i), at(i + 1)])),
        3 => out[i..i + 3].copy_from_slice(&dot_block(w, [at(i), at(i + 1), at(i + 2)])),
        _ => {}
    }
}

/// `K` simultaneous weighted dot products `out[j] = Σ_k (w_k · vs[j]_k) · m_k`
/// in one pass over `w` and `m`.
///
/// One in-order accumulator per vector and the element expression
/// `(w·v)·m`, so each result is bit-identical to the one-vector form — the
/// multiplicity-weighted partial of the element-based decomposition.
///
/// # Panics
/// Panics if any vector length differs from `w`.
#[inline]
pub fn dot_block_weighted<const K: usize>(w: &[f64], vs: [&[f64]; K], m: &[f64]) -> [f64; K] {
    assert_eq!(
        m.len(),
        w.len(),
        "dot_block_weighted: weight length mismatch"
    );
    for v in vs {
        assert_eq!(v.len(), w.len(), "dot_block_weighted: length mismatch");
    }
    let mut acc = [0.0_f64; K];
    for (k, (&wk, &mk)) in w.iter().zip(m).enumerate() {
        for j in 0..K {
            acc[j] += wk * vs[j][k] * mk;
        }
    }
    acc
}

/// The weighted Gram–Schmidt dot pass: `out[i] = Σ_k (w_k · vs[i]_k) · m_k`
/// for the whole basis and `out[vs.len()] = Σ_k (w_k · w_k) · m_k`, through
/// [`dot_block_weighted`] in blocks of four with `w` itself as the last
/// vector — `⌈(vs.len() + 1) / 4⌉` passes over `w` and `m` instead of
/// `vs.len() + 1`, each result bit-identical to its own one-vector pass.
///
/// # Panics
/// Panics if `out` is shorter than `vs.len() + 1` or a length differs from
/// `w`.
pub fn dot_sweep_weighted(w: &[f64], vs: &[Vec<f64>], m: &[f64], out: &mut [f64]) {
    let cnt = vs.len() + 1;
    assert!(out.len() >= cnt, "dot_sweep_weighted: output too short");
    let at = |i: usize| if i < vs.len() { vs[i].as_slice() } else { w };
    let mut i = 0;
    while i + 4 <= cnt {
        let d = dot_block_weighted(w, [at(i), at(i + 1), at(i + 2), at(i + 3)], m);
        out[i..i + 4].copy_from_slice(&d);
        i += 4;
    }
    match cnt - i {
        1 => out[i] = dot_block_weighted(w, [at(i)], m)[0],
        2 => out[i..i + 2].copy_from_slice(&dot_block_weighted(w, [at(i), at(i + 1)], m)),
        3 => {
            out[i..i + 3].copy_from_slice(&dot_block_weighted(w, [at(i), at(i + 1), at(i + 2)], m))
        }
        _ => {}
    }
}

/// Sweeps `w -= Σ_i coeffs[i] * vs[i]` over a whole basis through
/// [`axpy_block`] in blocks of four, returning `Σ w_k²` of the updated
/// vector (or `dot(w, w)` when `coeffs` is empty).
///
/// Each block receives the negated coefficients, and IEEE-754 negation is
/// exact, so the result is bit-identical to `coeffs.len()` consecutive
/// `w[k] -= c * v[k]` subtraction loops; this is the fused Gram–Schmidt
/// projection-subtraction pass of the distributed FGMRES solvers.
///
/// # Panics
/// Panics if `vs` is shorter than `coeffs` or any vector length differs
/// from `w`.
pub fn axpy_sweep_neg(coeffs: &[f64], vs: &[Vec<f64>], w: &mut [f64]) -> f64 {
    let cnt = coeffs.len();
    assert!(vs.len() >= cnt, "axpy_sweep_neg: basis too short");
    if cnt == 0 {
        let mut sq = 0.0;
        for &x in w.iter() {
            sq += x * x;
        }
        return sq;
    }
    let mut sq = 0.0;
    let mut i = 0;
    while i + 4 <= cnt {
        sq = axpy_block(
            [-coeffs[i], -coeffs[i + 1], -coeffs[i + 2], -coeffs[i + 3]],
            [
                vs[i].as_slice(),
                vs[i + 1].as_slice(),
                vs[i + 2].as_slice(),
                vs[i + 3].as_slice(),
            ],
            w,
        );
        i += 4;
    }
    match cnt - i {
        1 => sq = axpy_block([-coeffs[i]], [vs[i].as_slice()], w),
        2 => {
            sq = axpy_block(
                [-coeffs[i], -coeffs[i + 1]],
                [vs[i].as_slice(), vs[i + 1].as_slice()],
                w,
            );
        }
        3 => {
            sq = axpy_block(
                [-coeffs[i], -coeffs[i + 1], -coeffs[i + 2]],
                [vs[i].as_slice(), vs[i + 1].as_slice(), vs[i + 2].as_slice()],
                w,
            );
        }
        _ => {}
    }
    sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::dense;

    /// Deterministic pseudo-random CSR matrix (xorshift) for kernel tests.
    fn random_csr(n: usize, seed: u64) -> CsrMatrix {
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut coo = crate::CooMatrix::new(n, n);
        for r in 0..n {
            coo.push(r, r, 4.0 + (rnd() % 8) as f64).unwrap();
            for _ in 0..(rnd() % 7) {
                let c = (rnd() as usize) % n;
                coo.push(r, c, ((rnd() % 1000) as f64 - 500.0) / 250.0)
                    .unwrap();
            }
        }
        coo.to_csr()
    }

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f64 - 1000.0) / 500.0
            })
            .collect()
    }

    /// The pre-optimization scalar SpMV: the reference the unrolled kernel
    /// must match to full accuracy (not bit-exactness — the unroll changes
    /// the row summation order by design).
    fn spmv_scalar(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let (row_ptr, col_idx, values) = a.raw_parts();
        let mut y = vec![0.0; a.n_rows()];
        for r in 0..a.n_rows() {
            let mut acc = 0.0;
            for k in row_ptr[r]..row_ptr[r + 1] {
                acc += values[k] * x[col_idx[k]];
            }
            y[r] = acc;
        }
        y
    }

    #[test]
    fn unrolled_spmv_matches_scalar_reference() {
        for n in [1, 2, 3, 5, 17, 64, 193] {
            let a = random_csr(n, 0x9E3779B9 + n as u64);
            let x = random_vec(n, 42 + n as u64);
            let mut y = vec![0.0; n];
            let (rp, ci, vals) = a.raw_parts();
            spmv_raw(rp, ci, vals, &x, &mut y);
            let reference = spmv_scalar(&a, &x);
            for (u, v) in y.iter().zip(&reference) {
                assert!((u - v).abs() <= 1e-12 * (1.0 + v.abs()), "{u} vs {v}");
            }
        }
    }

    #[test]
    fn indexed_row_subsets_reassemble_full_spmv_bit_for_bit() {
        for n in [1, 5, 64, 193] {
            let a = random_csr(n, 0xABCD + n as u64);
            let x = random_vec(n, 17 + n as u64);
            let (rp, ci, vals) = a.raw_parts();
            let mut full = vec![0.0; n];
            spmv_raw(rp, ci, vals, &x, &mut full);
            // Split rows into an arbitrary two-way partition (every third
            // row in one set, the rest in the other) and compute each side
            // separately.
            let (odd, even): (Vec<usize>, Vec<usize>) = (0..n).partition(|r| r % 3 == 0);
            let mut split = vec![f64::NAN; n];
            spmv_rows_indexed(rp, ci, vals, &x, &mut split, &odd);
            spmv_rows_indexed(rp, ci, vals, &x, &mut split, &even);
            assert_eq!(split, full, "n={n}");
        }
    }

    #[test]
    fn dot_block_is_bit_identical_to_separate_dots() {
        let n = 257;
        let w = random_vec(n, 11);
        let v0 = random_vec(n, 12);
        let v1 = random_vec(n, 13);
        let v2 = random_vec(n, 14);
        let v3 = random_vec(n, 15);
        let block = dot_block(&w, [&v0[..], &v1, &v2, &v3]);
        // dense::dot walks elements in order with one accumulator — the
        // same arithmetic dot_block performs per vector.
        assert_eq!(block[0], dense::dot(&w, &v0));
        assert_eq!(block[1], dense::dot(&w, &v1));
        assert_eq!(block[2], dense::dot(&w, &v2));
        assert_eq!(block[3], dense::dot(&w, &v3));
    }

    #[test]
    fn axpy_block_is_bit_identical_to_separate_axpys() {
        let n = 123;
        let v0 = random_vec(n, 21);
        let v1 = random_vec(n, 22);
        let v2 = random_vec(n, 23);
        let coeffs = [0.5, -1.25, 2.0];

        let mut fused = random_vec(n, 20);
        let mut manual = fused.clone();
        let sq = axpy_block(coeffs, [&v0[..], &v1, &v2], &mut fused);

        dense::axpy(coeffs[0], &v0, &mut manual);
        dense::axpy(coeffs[1], &v1, &mut manual);
        dense::axpy(coeffs[2], &v2, &mut manual);
        assert_eq!(fused, manual);
        assert_eq!(sq, dense::dot(&fused, &fused));
    }

    #[test]
    fn axpy_block_zero_vectors_is_identity_plus_norm() {
        let mut w = vec![3.0, -4.0];
        let sq = axpy_block::<0>([], [], &mut w);
        assert_eq!(w, vec![3.0, -4.0]);
        assert_eq!(sq, 25.0);
    }

    #[test]
    fn row_dot_empty_row_is_zero() {
        assert_eq!(row_dot(&[], &[], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn dot_sweep_is_bit_identical_to_separate_dots() {
        let n = 97;
        let w = random_vec(n, 31);
        // Cover every remainder size (0..=3) against the block width.
        for cnt in 0..=9 {
            let vs: Vec<Vec<f64>> = (0..cnt).map(|i| random_vec(n, 40 + i as u64)).collect();
            let mut out = vec![f64::NAN; cnt + 2];
            dot_sweep(&w, &vs, &mut out);
            for (i, v) in vs.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    dense::dot(&w, v).to_bits(),
                    "cnt={cnt} i={i}"
                );
            }
            assert_eq!(
                out[cnt].to_bits(),
                dense::dot(&w, &w).to_bits(),
                "cnt={cnt} <w, w>"
            );
        }
    }

    #[test]
    fn dot_sweep_weighted_is_bit_identical_to_separate_weighted_dots() {
        let n = 97;
        let w = random_vec(n, 31);
        // Weights 1, 1/2, 1/4 like inverse multiplicities.
        let m: Vec<f64> = (0..n).map(|i| 1.0 / (1 << (i % 3)) as f64).collect();
        let one = |v: &[f64]| -> f64 {
            let mut acc = 0.0;
            for k in 0..n {
                acc += w[k] * v[k] * m[k];
            }
            acc
        };
        // Every remainder size (0..=3) of `cnt + 1` against the block width.
        for cnt in 0..=9 {
            let vs: Vec<Vec<f64>> = (0..cnt).map(|i| random_vec(n, 40 + i as u64)).collect();
            let mut out = vec![f64::NAN; cnt + 2];
            dot_sweep_weighted(&w, &vs, &m, &mut out);
            for (i, v) in vs.iter().enumerate() {
                assert_eq!(out[i].to_bits(), one(v).to_bits(), "cnt={cnt} i={i}");
            }
            assert_eq!(out[cnt].to_bits(), one(&w).to_bits(), "cnt={cnt} <w, w>");
            assert!(out[cnt + 1].is_nan(), "wrote past cnt + 1");
        }
    }

    #[test]
    fn axpy_sweep_neg_is_bit_identical_to_subtraction_loops() {
        let n = 101;
        for cnt in 0..=9 {
            let vs: Vec<Vec<f64>> = (0..cnt).map(|i| random_vec(n, 60 + i as u64)).collect();
            let coeffs: Vec<f64> = (0..cnt).map(|i| (i as f64) * 0.75 - 2.0).collect();
            let mut fused = random_vec(n, 59);
            let mut manual = fused.clone();
            let sq = axpy_sweep_neg(&coeffs, &vs, &mut fused);
            for (c, v) in coeffs.iter().zip(&vs) {
                for (wk, vk) in manual.iter_mut().zip(v) {
                    *wk -= c * vk;
                }
            }
            assert_eq!(fused, manual, "cnt={cnt}");
            assert_eq!(sq, dense::dot(&fused, &fused), "cnt={cnt}");
        }
    }
}
