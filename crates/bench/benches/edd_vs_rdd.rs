//! End-to-end parallel solve: element-based vs row-based decomposition at
//! P = 4 (wall-clock of the threaded run; modeled speedups come from the
//! fig17/table3 binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfem::prelude::*;
use std::hint::black_box;

fn bench_dd(c: &mut Criterion) {
    let p = CantileverProblem::paper_mesh(3);
    let cfg = SolverConfig::default();
    let epart = ElementPartition::strips_x(&p.mesh, 4);
    let npart = NodePartition::from_elements(&epart, &p.mesh).expect("strips keep a node each");

    let mut group = c.benchmark_group("dd_solve_mesh3_p4");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("edd", "enhanced"), |b| {
        b.iter(|| {
            let out = SolveSession::new(p.as_problem())
                .strategy(Strategy::Edd(black_box(&epart).clone()))
                .config(cfg.clone())
                .run()
                .expect("fault-free solve");
            assert!(out.history.converged());
            black_box(out.u)
        })
    });
    let basic_cfg = SolverConfig {
        variant: EddVariant::Basic,
        ..SolverConfig::default()
    };
    group.bench_function(BenchmarkId::new("edd", "basic"), |b| {
        b.iter(|| {
            let out = SolveSession::new(p.as_problem())
                .strategy(Strategy::Edd(black_box(&epart).clone()))
                .config(basic_cfg.clone())
                .run()
                .expect("fault-free solve");
            black_box(out.u)
        })
    });
    group.bench_function(BenchmarkId::new("rdd", "block_row"), |b| {
        b.iter(|| {
            let out = SolveSession::new(p.as_problem())
                .strategy(Strategy::Rdd(black_box(&npart).clone()))
                .config(cfg.clone())
                .run()
                .expect("fault-free solve");
            assert!(out.history.converged());
            black_box(out.u)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dd);
criterion_main!(benches);
