//! Micro-benches for the fused/unrolled sparse and dense kernels behind the
//! zero-allocation FGMRES hot path: fused `spmv_axpby` vs the unfused pair,
//! the row-partitioned threaded SpMV, the blocked Gram–Schmidt sweeps
//! (`dot_sweep` / `axpy_sweep_neg`) against their scalar loops, the
//! kernel-variant storage formats (SELL-C-σ, 2×2 block CSR, lane CSR)
//! against scalar CSR, and the lane Gram–Schmidt kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parfem::prelude::*;
use parfem_sparse::{dense, kernels, simd, BcsrMatrix, SellMatrix};
use std::hint::black_box;

fn bench_fused_spmv(c: &mut Criterion) {
    let p = CantileverProblem::paper_mesh(4);
    let sys = p.static_system();
    let a = sys.stiffness;
    let x = vec![1.0; a.n_cols()];
    let mut y = vec![0.5; a.n_rows()];
    let mut t = vec![0.0; a.n_rows()];

    let mut group = c.benchmark_group("kernels_spmv");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("axpby_fused", |b| {
        b.iter(|| {
            a.spmv_axpby(
                black_box(0.7),
                black_box(&x),
                black_box(0.3),
                black_box(&mut y),
            )
        })
    });
    group.bench_function("axpby_unfused", |b| {
        b.iter(|| {
            a.spmv_into(black_box(&x), black_box(&mut t));
            for (yi, ti) in y.iter_mut().zip(&t) {
                *yi = 0.7 * ti + 0.3 * *yi;
            }
        })
    });
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threaded", threads),
            &threads,
            |b, &threads| b.iter(|| a.par_spmv_into(black_box(&x), black_box(&mut t), threads)),
        );
    }
    group.finish();
}

fn bench_gram_schmidt_sweeps(c: &mut Criterion) {
    let n = 20_000usize;
    let k = 8usize;
    let vs: Vec<Vec<f64>> = (0..k)
        .map(|j| (0..n).map(|i| ((i + j) as f64).sin()).collect())
        .collect();
    let w0: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let coeffs: Vec<f64> = (0..k).map(|j| 0.1 * (j as f64 + 1.0)).collect();
    let mut out = vec![0.0; k];

    let mut group = c.benchmark_group("kernels_gram_schmidt");
    group.throughput(Throughput::Elements((n * k) as u64));
    group.bench_function("dot_sweep", |b| {
        b.iter(|| kernels::dot_sweep(black_box(&w0), black_box(&vs), black_box(&mut out)))
    });
    group.bench_function("dot_scalar", |b| {
        b.iter(|| {
            for (o, v) in out.iter_mut().zip(&vs) {
                *o = dense::dot(black_box(&w0), v);
            }
        })
    });
    let mut w = w0.clone();
    group.bench_function("axpy_sweep_neg", |b| {
        b.iter(|| {
            w.copy_from_slice(&w0);
            black_box(kernels::axpy_sweep_neg(
                black_box(&coeffs),
                black_box(&vs),
                &mut w,
            ))
        })
    });
    group.bench_function("axpy_scalar", |b| {
        b.iter(|| {
            w.copy_from_slice(&w0);
            for (cj, v) in coeffs.iter().zip(&vs) {
                dense::axpy(-cj, v, &mut w);
            }
            black_box(dense::dot(&w, &w))
        })
    });
    group.finish();
}

fn bench_kernel_variants(c: &mut Criterion) {
    let p = CantileverProblem::paper_mesh(4);
    let sys = p.static_system();
    let a = sys.stiffness;
    let x = vec![1.0; a.n_cols()];
    let mut y = vec![0.0; a.n_rows()];

    let sell = SellMatrix::from_csr(&a, 8, 64);
    let bcsr = BcsrMatrix::try_from_csr(&a);
    let (row_ptr, col_idx, values) = a.raw_parts();

    let mut group = c.benchmark_group("kernels_variants");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("spmv_csr_scalar", |b| {
        b.iter(|| a.spmv_into(black_box(&x), black_box(&mut y)))
    });
    group.bench_function("spmv_csr_lanes", |b| {
        b.iter(|| {
            simd::spmv_lanes(
                black_box(row_ptr),
                black_box(col_idx),
                black_box(values),
                black_box(&x),
                black_box(&mut y),
            )
        })
    });
    group.bench_function("spmv_sellcs_c8", |b| {
        b.iter(|| sell.spmv_into(black_box(&x), black_box(&mut y)))
    });
    // The 2-D cantilever mesh has 2 DOF per node, so the 2×2 block format
    // is admissible; skip silently only if a mesh change ever breaks that.
    if let Some(bcsr) = &bcsr {
        group.bench_function("spmv_bcsr_2x2", |b| {
            b.iter(|| bcsr.spmv_into(black_box(&x), black_box(&mut y)))
        });
    }
    group.finish();
}

fn bench_lane_gram_schmidt(c: &mut Criterion) {
    let n = 20_000usize;
    let k = 8usize;
    let vs: Vec<Vec<f64>> = (0..k)
        .map(|j| (0..n).map(|i| ((i + j) as f64).sin()).collect())
        .collect();
    let w0: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let coeffs: Vec<f64> = (0..k).map(|j| 0.1 * (j as f64 + 1.0)).collect();
    let mut out = vec![0.0; k];

    let mut group = c.benchmark_group("kernels_lane_gram_schmidt");
    group.throughput(Throughput::Elements((n * k) as u64));
    group.bench_function("dot_many_lanes", |b| {
        b.iter(|| simd::dot_many_lanes(black_box(&w0), black_box(&vs), black_box(&mut out)))
    });
    let mut w = w0.clone();
    group.bench_function("axpy_sweep_neg_lanes", |b| {
        b.iter(|| {
            w.copy_from_slice(&w0);
            black_box(simd::axpy_sweep_neg_lanes(
                black_box(&coeffs),
                black_box(&vs),
                &mut w,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fused_spmv,
    bench_gram_schmidt_sweeps,
    bench_kernel_variants,
    bench_lane_gram_schmidt
);
criterion_main!(benches);
