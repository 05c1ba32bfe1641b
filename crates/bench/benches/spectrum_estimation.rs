//! Spectrum-estimation cost on the paper's Mesh4 operator: the 30-step
//! Lanczos estimate of a Ritz-measured `Θ` and the full measurement
//! (`measure_spectrum`, `min(n, 400)` steps) behind `parfem spectrum`.

use criterion::{criterion_group, criterion_main, Criterion};
use parfem::krylov::lanczos;
use parfem::prelude::*;
use parfem::sparse::scaling::scale_system;
use std::hint::black_box;

fn bench_spectrum(c: &mut Criterion) {
    let p = CantileverProblem::paper_mesh(4);
    let sys = p.static_system();
    let (a, _, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();

    let mut group = c.benchmark_group("spectrum_estimation_mesh4");
    group.sample_size(20);
    group.bench_function("lanczos_30_steps", |b| {
        b.iter(|| black_box(lanczos::estimate_spectrum(&a, 30)))
    });
    group.bench_function("lanczos_measure_400_steps", |b| {
        b.iter(|| black_box(lanczos::measure_spectrum(&a)))
    });
    group.finish();
}

criterion_group!(benches, bench_spectrum);
criterion_main!(benches);
