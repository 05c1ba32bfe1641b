//! Preconditioner application cost: GLS(m) and Neumann(m) are `m` SpMVs,
//! ILU(0) is one triangular sweep — the cost trade-off behind the paper's
//! Table 3 CPU-time discussion. The sparse LDLᵀ behind `direct` is timed in
//! `kernels.rs` (`ldlt_factor`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfem::precond::{GlsPrecond, Ilu0Precond, JacobiPrecond, NeumannPrecond, Preconditioner};
use parfem::prelude::*;
use parfem::sparse::scaling::scale_system;
use std::hint::black_box;

fn bench_precond(c: &mut Criterion) {
    let p = CantileverProblem::paper_mesh(4);
    let sys = p.static_system();
    let (a, _, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let v = vec![1.0; a.n_rows()];
    let mut z = vec![0.0; a.n_rows()];

    let mut group = c.benchmark_group("precond_apply_mesh4");
    for m in [3usize, 7, 10] {
        let gls = GlsPrecond::for_scaled_system(m);
        group.bench_with_input(BenchmarkId::new("gls", m), &gls, |b, pc| {
            b.iter(|| pc.apply_into(black_box(&a), black_box(&v), black_box(&mut z)))
        });
        let neu = NeumannPrecond::for_scaled_system(m);
        group.bench_with_input(BenchmarkId::new("neumann", m), &neu, |b, pc| {
            b.iter(|| pc.apply_into(black_box(&a), black_box(&v), black_box(&mut z)))
        });
    }
    let ilu = Ilu0Precond::factorize(&a).expect("spd system factorizes");
    group.bench_function("ilu0_solve", |b| {
        b.iter(|| ilu.apply_into(black_box(&a), black_box(&v), black_box(&mut z)))
    });
    let jac = JacobiPrecond::from_matrix(&a);
    group.bench_function("jacobi", |b| {
        b.iter(|| jac.apply_into(black_box(&a), black_box(&v), black_box(&mut z)))
    });
    group.finish();

    // Construction costs (the paper stresses polynomial construction is
    // negligible next to ILU factorization).
    let mut group = c.benchmark_group("precond_construct_mesh4");
    group.bench_function("gls7_construct", |b| {
        b.iter(|| black_box(GlsPrecond::for_scaled_system(7)))
    });
    group.bench_function("ilu0_factorize", |b| {
        b.iter(|| black_box(Ilu0Precond::factorize(&a).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_precond);
criterion_main!(benches);
