//! Preconditioner application cost: GLS(m) and Neumann(m) are `m` SpMVs,
//! ILU(0) is one triangular sweep — the cost trade-off behind the paper's
//! Table 3 CPU-time discussion. The sparse LDLᵀ behind `direct` is timed on
//! the block it factors in the `elas3d-rdd-direct` benchmark workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfem::dd::RddSystem;
use parfem::precond::{GlsPrecond, Ilu0Precond, JacobiPrecond, NeumannPrecond, Preconditioner};
use parfem::prelude::*;
use parfem::sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
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

    // The 3000-row diagonal block of the 18×9×9 hex cantilever split in two
    // x-slabs of nodes (rank 0 of the `elas3d-rdd-direct` workload).
    let hex = PhysicsProblem::cantilever(
        Physics::Elasticity3d,
        (18, 9, 9),
        Material::unit(),
        LoadCase::PullX(1.0),
    );
    let sys = hex.static_system();
    let (a, b, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let block = RddSystem::build_all(&a, &b, &hex.node_partition(2)).swap_remove(0);
    let factor = SparseLdlt::factor(&block.a_loc, DEFAULT_PIVOT_TOL);
    let mut x = block.b_loc.clone();
    let mut scratch = vec![0.0; x.len()];
    let mut group = c.benchmark_group("ldlt_hex_half_block");
    group.bench_function("ldlt_factorize_hex", |b| {
        b.iter(|| {
            black_box(SparseLdlt::factor(
                black_box(&block.a_loc),
                DEFAULT_PIVOT_TOL,
            ))
        })
    });
    group.bench_function("ldlt_solve_hex", |b| {
        b.iter(|| factor.solve_in_place_with(black_box(&mut x), black_box(&mut scratch)))
    });
    group.finish();
}

criterion_group!(benches, bench_precond);
criterion_main!(benches);
