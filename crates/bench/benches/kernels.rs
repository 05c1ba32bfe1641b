//! Micro-benches for the unrolled sparse and dense kernels behind the
//! zero-allocation FGMRES hot path: the blocked Gram–Schmidt sweeps
//! (`dot_sweep` / `axpy_sweep_neg`) against their scalar loops, and the
//! 2×2 block-CSR SpMV against scalar CSR.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use parfem::prelude::*;
use parfem_sparse::{dense, kernels, BcsrMatrix};
use std::hint::black_box;

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

    let bcsr = BcsrMatrix::try_from_csr(&a);

    let mut group = c.benchmark_group("kernels_variants");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("spmv_csr_scalar", |b| {
        b.iter(|| a.spmv_into(black_box(&x), black_box(&mut y)))
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

criterion_group!(benches, bench_gram_schmidt_sweeps, bench_kernel_variants);
criterion_main!(benches);
