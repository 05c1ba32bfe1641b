//! Full FGMRES solve cost per preconditioner — wall-clock companion to the
//! iteration-count comparisons of Figs. 11/13.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfem::prelude::*;
use std::hint::black_box;

fn bench_fgmres(c: &mut Criterion) {
    let p = CantileverProblem::paper_mesh(3);
    let sys = p.static_system();
    let cfg = GmresConfig {
        tol: 1e-6,
        max_iters: 20_000,
        ..Default::default()
    };

    let mut group = c.benchmark_group("fgmres_solve_mesh3");
    group.sample_size(10);
    for spec in ["gls:3", "gls:7", "gls:10", "neumann:20", "ilu0"] {
        let pc = PrecondSpec::parse(spec).unwrap();
        group.bench_with_input(BenchmarkId::new("precond", pc.name()), &pc, |b, pc| {
            b.iter(|| {
                let (u, h) = solve_system(black_box(&sys.stiffness), &sys.rhs, pc, &cfg).unwrap();
                assert!(h.converged());
                black_box(u)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fgmres);
criterion_main!(benches);
