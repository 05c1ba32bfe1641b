//! Interface-exchange overhead of the threaded message substrate: the real
//! (wall-clock) cost of one `⊕Σ_{∂Ω}` round at P = 2..4, versus the payload
//! size — measures the substrate's own overhead, which the virtual-time
//! model deliberately excludes. Every case runs the persistent-buffer forms
//! the solvers use (`exchange_into`, `allreduce_sum_into`,
//! `allreduce_sum_scalar`), so a warm round allocates nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfem_msg::{run_ranks, Communicator, MachineModel};
use std::hint::black_box;

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("interface_exchange");
    group.sample_size(20);
    for &len in &[64usize, 1024, 16384] {
        group.bench_with_input(BenchmarkId::new("pairwise_p2", len), &len, |b, &len| {
            b.iter(|| {
                let out = run_ranks(2, MachineModel::ideal(), |comm| {
                    let other = [1 - comm.rank()];
                    let data = [vec![comm.rank() as f64; len]];
                    let mut recv = [Vec::new()];
                    // Ten rounds per spawn to amortize thread start-up.
                    let mut acc = 0.0;
                    for _ in 0..10 {
                        comm.exchange_into(&other, &data, &mut recv);
                        acc += recv[0][0];
                    }
                    acc
                });
                black_box(out.results)
            })
        });
    }
    group.bench_function("allreduce_p4_batched_dots", |b| {
        b.iter(|| {
            let out = run_ranks(4, MachineModel::ideal(), |comm| {
                let mut v = vec![comm.rank() as f64; 26]; // one Arnoldi column of dots
                let mut acc = 0.0;
                for _ in 0..10 {
                    comm.allreduce_sum_into(&mut v);
                    acc += v[0];
                }
                acc
            });
            black_box(out.results)
        })
    });
    // The benchmark's `msg.exchange_us` / `msg.allreduce_us` probe: an
    // interface-sized exchange, then a scalar all-reduce, back to back.
    group.bench_function("exchange_then_scalar_allreduce_p2", |b| {
        b.iter(|| {
            let out = run_ranks(2, MachineModel::sgi_origin(), |comm| {
                let other = [1 - comm.rank()];
                let data = [vec![1.0; 200]];
                let mut recv = [Vec::new()];
                let mut acc = 0.0;
                for _ in 0..100 {
                    comm.exchange_into(&other, &data, &mut recv);
                    acc += comm.allreduce_sum_scalar(recv[0][0]);
                }
                acc
            });
            black_box(out.results)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exchange);
criterion_main!(benches);
