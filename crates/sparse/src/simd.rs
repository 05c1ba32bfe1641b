//! Hand-unrolled `f64x4`-style lane kernels (the `KernelPolicy::Simd`
//! variants of the hot vector primitives).
//!
//! Stable Rust has no `std::simd`, so these kernels express the lane
//! structure explicitly: four independent accumulators walked over
//! `chunks_exact(4)` of the operands. The optimizer maps each accumulator
//! to a vector lane; the explicit form guarantees the instruction-level
//! parallelism regardless of autovectorization.
//!
//! Reduction-order contract, per kernel:
//!
//! - [`dot_lanes`] / [`dot_many_lanes`] combine the four partial sums as
//!   `(a0 + a1) + (a2 + a3)` — the same tree as
//!   [`crate::kernels::row_dot`], but **different** from the scalar
//!   [`crate::kernels::dot_block`] (single sequential accumulator), so SIMD
//!   dots agree with the scalar reference to a pinned ULP bound.
//! - [`axpy_sweep_neg_lanes`] updates each element in exactly the scalar
//!   block order (the subtraction sequence per element is unchanged — the
//!   unrolling only regroups *elements*, never the per-element operation
//!   chain), so the updated vector is **bit-identical** to the scalar
//!   [`crate::kernels::axpy_sweep_neg`]; only the returned `Σw²` uses the
//!   lane tree and is ULP-bounded.
//! - [`spmv_lanes`] keeps the per-row [`crate::kernels::row_dot`]
//!   arithmetic verbatim (it unrolls across *rows*), so it is
//!   **bit-identical** to the scalar CSR SpMV.

use crate::kernels::row_dot;

/// Lane-tree dot product `⟨a, b⟩`: four partial sums over
/// `chunks_exact(4)` combined as `(a0 + a1) + (a2 + a3)` plus a sequential
/// remainder.
///
/// # Panics
/// Panics on length mismatches.
pub fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_lanes: length mismatch");
    let mut a4 = a.chunks_exact(4);
    let mut b4 = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (x, y) in (&mut a4).zip(&mut b4) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for (x, y) in a4.remainder().iter().zip(b4.remainder()) {
        acc += x * y;
    }
    acc
}

/// Four simultaneous lane-tree dot products sharing one pass over `w`
/// (sixteen independent accumulators: four lanes for each of the four
/// vectors).
fn dot4_lanes(w: &[f64], a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> [f64; 4] {
    debug_assert_eq!(w.len(), a.len());
    debug_assert_eq!(w.len(), b.len());
    debug_assert_eq!(w.len(), c.len());
    debug_assert_eq!(w.len(), d.len());
    let mut w4 = w.chunks_exact(4);
    let mut a4 = a.chunks_exact(4);
    let mut b4 = b.chunks_exact(4);
    let mut c4 = c.chunks_exact(4);
    let mut d4 = d.chunks_exact(4);
    let mut pa = [0.0f64; 4];
    let mut pb = [0.0f64; 4];
    let mut pc = [0.0f64; 4];
    let mut pd = [0.0f64; 4];
    for ((((x, ya), yb), yc), yd) in (&mut w4)
        .zip(&mut a4)
        .zip(&mut b4)
        .zip(&mut c4)
        .zip(&mut d4)
    {
        for l in 0..4 {
            pa[l] += x[l] * ya[l];
            pb[l] += x[l] * yb[l];
            pc[l] += x[l] * yc[l];
            pd[l] += x[l] * yd[l];
        }
    }
    let mut out = [
        (pa[0] + pa[1]) + (pa[2] + pa[3]),
        (pb[0] + pb[1]) + (pb[2] + pb[3]),
        (pc[0] + pc[1]) + (pc[2] + pc[3]),
        (pd[0] + pd[1]) + (pd[2] + pd[3]),
    ];
    let off = w.len() - w4.remainder().len();
    for (l, &x) in w4.remainder().iter().enumerate() {
        let k = off + l;
        out[0] += x * a[k];
        out[1] += x * b[k];
        out[2] += x * c[k];
        out[3] += x * d[k];
    }
    out
}

/// Two simultaneous lane-tree dot products sharing one pass over `w`.
fn dot2_lanes(w: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    debug_assert_eq!(w.len(), a.len());
    debug_assert_eq!(w.len(), b.len());
    let mut w4 = w.chunks_exact(4);
    let mut a4 = a.chunks_exact(4);
    let mut b4 = b.chunks_exact(4);
    let (mut p0, mut p1, mut p2, mut p3) = (0.0, 0.0, 0.0, 0.0);
    let (mut q0, mut q1, mut q2, mut q3) = (0.0, 0.0, 0.0, 0.0);
    for ((x, y), z) in (&mut w4).zip(&mut a4).zip(&mut b4) {
        p0 += x[0] * y[0];
        p1 += x[1] * y[1];
        p2 += x[2] * y[2];
        p3 += x[3] * y[3];
        q0 += x[0] * z[0];
        q1 += x[1] * z[1];
        q2 += x[2] * z[2];
        q3 += x[3] * z[3];
    }
    let mut p = (p0 + p1) + (p2 + p3);
    let mut q = (q0 + q1) + (q2 + q3);
    for ((x, y), z) in w4
        .remainder()
        .iter()
        .zip(a4.remainder())
        .zip(b4.remainder())
    {
        p += x * y;
        q += x * z;
    }
    (p, q)
}

/// Lane-tree dot products of `w` against every basis vector —
/// `out[i] = ⟨w, vs[i]⟩` — walking `w` once per *block of four* vectors
/// (sixteen accumulators live per pass).
///
/// The SIMD counterpart of [`crate::kernels::dot_sweep`] without its trailing
/// `⟨w, w⟩`; results are ULP-bounded against it (lane tree vs sequential
/// accumulator).
///
/// This is the reduction half of the SIMD classical Gram–Schmidt step,
/// where `Σw²` comes for free from [`axpy_sweep_neg_lanes`] afterwards.
///
/// # Panics
/// Panics if `out` is shorter than `vs.len()` or on length mismatches.
pub fn dot_many_lanes(w: &[f64], vs: &[Vec<f64>], out: &mut [f64]) {
    assert!(out.len() >= vs.len(), "dot_many_lanes: out too short");
    let mut i = 0;
    while i + 4 <= vs.len() {
        let d = dot4_lanes(w, &vs[i], &vs[i + 1], &vs[i + 2], &vs[i + 3]);
        out[i..i + 4].copy_from_slice(&d);
        i += 4;
    }
    if i + 2 <= vs.len() {
        let (p, q) = dot2_lanes(w, &vs[i], &vs[i + 1]);
        out[i] = p;
        out[i + 1] = q;
        i += 2;
    }
    if i < vs.len() {
        out[i] = dot_lanes(w, &vs[i]);
    }
}

/// One four-vector projection-subtraction pass: `w -= Σ c[j] · v_j`, four
/// elements per step, returning the lane-tree `Σ w²` of the values written.
fn axpy4_lanes(c: [f64; 4], v0: &[f64], v1: &[f64], v2: &[f64], v3: &[f64], w: &mut [f64]) -> f64 {
    debug_assert_eq!(w.len(), v0.len());
    debug_assert_eq!(w.len(), v1.len());
    debug_assert_eq!(w.len(), v2.len());
    debug_assert_eq!(w.len(), v3.len());
    let n = w.len();
    let mut w4 = w.chunks_exact_mut(4);
    let mut a4 = v0.chunks_exact(4);
    let mut b4 = v1.chunks_exact(4);
    let mut c4 = v2.chunks_exact(4);
    let mut d4 = v3.chunks_exact(4);
    let mut s = [0.0f64; 4];
    for ((((x, ya), yb), yc), yd) in (&mut w4)
        .zip(&mut a4)
        .zip(&mut b4)
        .zip(&mut c4)
        .zip(&mut d4)
    {
        for l in 0..4 {
            let t = ((x[l] - c[0] * ya[l]) - c[1] * yb[l]) - c[2] * yc[l] - c[3] * yd[l];
            x[l] = t;
            s[l] += t * t;
        }
    }
    let mut sq = (s[0] + s[1]) + (s[2] + s[3]);
    let rem = w4.into_remainder();
    let off = n - rem.len();
    for (l, wj) in rem.iter_mut().enumerate() {
        let k = off + l;
        let t = ((*wj - c[0] * v0[k]) - c[1] * v1[k]) - c[2] * v2[k] - c[3] * v3[k];
        *wj = t;
        sq += t * t;
    }
    sq
}

/// Tail projection-subtraction pass over one to three vectors, fused with
/// the lane-tree `Σ w²` of the updated vector.
fn axpy_tail_lanes(coeffs: &[f64], vs: &[Vec<f64>], w: &mut [f64]) -> f64 {
    let n = w.len();
    let mut s = [0.0f64; 4];
    let mut sq_tail = 0.0;
    match coeffs.len() {
        1 => {
            let (c0, v0) = (coeffs[0], vs[0].as_slice());
            let mut w4 = w.chunks_exact_mut(4);
            let mut a4 = v0.chunks_exact(4);
            for (x, ya) in (&mut w4).zip(&mut a4) {
                for l in 0..4 {
                    let t = x[l] - c0 * ya[l];
                    x[l] = t;
                    s[l] += t * t;
                }
            }
            let rem = w4.into_remainder();
            let off = n - rem.len();
            for (l, wj) in rem.iter_mut().enumerate() {
                let t = *wj - c0 * v0[off + l];
                *wj = t;
                sq_tail += t * t;
            }
        }
        2 => {
            let (c0, v0) = (coeffs[0], vs[0].as_slice());
            let (c1, v1) = (coeffs[1], vs[1].as_slice());
            let mut w4 = w.chunks_exact_mut(4);
            let mut a4 = v0.chunks_exact(4);
            let mut b4 = v1.chunks_exact(4);
            for ((x, ya), yb) in (&mut w4).zip(&mut a4).zip(&mut b4) {
                for l in 0..4 {
                    let t = (x[l] - c0 * ya[l]) - c1 * yb[l];
                    x[l] = t;
                    s[l] += t * t;
                }
            }
            let rem = w4.into_remainder();
            let off = n - rem.len();
            for (l, wj) in rem.iter_mut().enumerate() {
                let k = off + l;
                let t = (*wj - c0 * v0[k]) - c1 * v1[k];
                *wj = t;
                sq_tail += t * t;
            }
        }
        3 => {
            let (c0, v0) = (coeffs[0], vs[0].as_slice());
            let (c1, v1) = (coeffs[1], vs[1].as_slice());
            let (c2, v2) = (coeffs[2], vs[2].as_slice());
            let mut w4 = w.chunks_exact_mut(4);
            let mut a4 = v0.chunks_exact(4);
            let mut b4 = v1.chunks_exact(4);
            let mut c4 = v2.chunks_exact(4);
            for (((x, ya), yb), yc) in (&mut w4).zip(&mut a4).zip(&mut b4).zip(&mut c4) {
                for l in 0..4 {
                    let t = ((x[l] - c0 * ya[l]) - c1 * yb[l]) - c2 * yc[l];
                    x[l] = t;
                    s[l] += t * t;
                }
            }
            let rem = w4.into_remainder();
            let off = n - rem.len();
            for (l, wj) in rem.iter_mut().enumerate() {
                let k = off + l;
                let t = ((*wj - c0 * v0[k]) - c1 * v1[k]) - c2 * v2[k];
                *wj = t;
                sq_tail += t * t;
            }
        }
        k => unreachable!("axpy_tail_lanes: tail of {k} vectors"),
    }
    (s[0] + s[1]) + (s[2] + s[3]) + sq_tail
}

/// `w -= Σ coeffs[i] · vs[i]`, returning the lane-tree `Σ w²` of the
/// updated vector.
///
/// The SIMD counterpart of [`crate::kernels::axpy_sweep_neg`]: vectors are
/// grouped into the same blocks of four (plus one fused tail pass) and each
/// element sees the identical subtraction chain, so the updated `w` is
/// **bit-identical** to the scalar kernel; only the returned `Σ w²` — fused
/// into the final pass here too — uses the lane tree and is ULP-bounded.
///
/// # Panics
/// Panics on length mismatches.
pub fn axpy_sweep_neg_lanes(coeffs: &[f64], vs: &[Vec<f64>], w: &mut [f64]) -> f64 {
    assert_eq!(coeffs.len(), vs.len(), "axpy_sweep_neg_lanes: mismatch");
    let cnt = vs.len();
    if cnt == 0 {
        return dot_lanes(w, w);
    }
    let mut i = 0;
    let mut sq = 0.0;
    while i + 4 <= cnt {
        // Σw² of a non-final block is over intermediate values; the final
        // pass (full block or tail) overwrites it with the real norm.
        sq = axpy4_lanes(
            [coeffs[i], coeffs[i + 1], coeffs[i + 2], coeffs[i + 3]],
            &vs[i],
            &vs[i + 1],
            &vs[i + 2],
            &vs[i + 3],
            w,
        );
        i += 4;
    }
    if i < cnt {
        sq = axpy_tail_lanes(&coeffs[i..], &vs[i..], w);
    }
    sq
}

/// CSR SpMV unrolled two rows at a time, each row using the verbatim
/// [`row_dot`] reduction — **bit-identical** to the scalar
/// [`crate::kernels::spmv_raw`], with better load overlap on short rows.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn spmv_lanes(row_ptr: &[usize], col_idx: &[usize], values: &[f64], x: &[f64], y: &mut [f64]) {
    let n = row_ptr.len() - 1;
    assert_eq!(y.len(), n, "spmv_lanes: y length mismatch");
    let mut r = 0;
    while r + 2 <= n {
        let (lo0, mid, hi1) = (row_ptr[r], row_ptr[r + 1], row_ptr[r + 2]);
        let d0 = row_dot(&col_idx[lo0..mid], &values[lo0..mid], x);
        let d1 = row_dot(&col_idx[mid..hi1], &values[mid..hi1], x);
        y[r] = d0;
        y[r + 1] = d1;
        r += 2;
    }
    if r < n {
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        y[r] = row_dot(&col_idx[lo..hi], &values[lo..hi], x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    fn vecs(n: usize, k: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let w: Vec<f64> = (0..n).map(|_| next()).collect();
        let vs: Vec<Vec<f64>> = (0..k).map(|_| (0..n).map(|_| next()).collect()).collect();
        (w, vs)
    }

    #[test]
    fn dot_lanes_close_to_sequential() {
        let (w, vs) = vecs(1037, 1);
        let seq: f64 = w.iter().zip(&vs[0]).map(|(a, b)| a * b).sum();
        let got = dot_lanes(&w, &vs[0]);
        assert!((got - seq).abs() <= 1e-12 * (1.0 + seq.abs()));
    }

    #[test]
    fn axpy_sweep_lanes_updates_bit_identically() {
        for k in [1usize, 2, 3, 4, 6, 9] {
            let (w, vs) = vecs(257, k);
            let coeffs: Vec<f64> = (0..k).map(|i| 0.25 * (i as f64 + 1.0)).collect();
            let mut w_simd = w.clone();
            let mut w_ref = w.clone();
            let ww_simd = axpy_sweep_neg_lanes(&coeffs, &vs, &mut w_simd);
            let ww_ref = kernels::axpy_sweep_neg(&coeffs, &vs, &mut w_ref);
            assert_eq!(w_simd, w_ref, "k={k}: updated vector must be bit-identical");
            assert!((ww_simd - ww_ref).abs() <= 1e-11 * (1.0 + ww_ref.abs()));
        }
    }
}
