//! Micro-benches for the unrolled sparse and dense kernels behind the
//! zero-allocation FGMRES hot path: the blocked Gram–Schmidt sweeps
//! (`dot_sweep` / `dot_sweep_weighted` / `axpy_sweep_neg`) against their
//! scalar loops, the node-block SpMV against CSR on one EDD rank's matrix,
//! the coarse build's mode products one by one against one panel sweep, and
//! the sparse LDLᵀ's factorization and solve on one RDD rank's block.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use parfem::fem::SubdomainSystem;
use parfem::prelude::*;
use parfem_sparse::{dense, kernels, CsrMatrix};
use std::hint::black_box;

fn bench_gram_schmidt_sweeps(c: &mut Criterion) {
    let n = 20_000usize;
    let k = 8usize;
    let vs: Vec<Vec<f64>> = (0..k)
        .map(|j| (0..n).map(|i| ((i + j) as f64).sin()).collect())
        .collect();
    let w0: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let coeffs: Vec<f64> = (0..k).map(|j| 0.1 * (j as f64 + 1.0)).collect();
    let mut out = vec![0.0; k + 1];

    let mut group = c.benchmark_group("kernels_gram_schmidt");
    group.throughput(Throughput::Elements((n * k) as u64));
    group.bench_function("dot_sweep", |b| {
        b.iter(|| kernels::dot_sweep(black_box(&w0), black_box(&vs), black_box(&mut out)))
    });
    group.bench_function("dot_scalar", |b| {
        b.iter(|| {
            for (o, v) in out.iter_mut().zip(vs.iter().chain([&w0])) {
                *o = dense::dot(black_box(&w0), v);
            }
        })
    });
    let m: Vec<f64> = (0..n).map(|i| 1.0 / (1 + i % 2) as f64).collect();
    let mut out_w = vec![0.0; k + 1];
    group.bench_function("dot_sweep_weighted", |b| {
        b.iter(|| {
            kernels::dot_sweep_weighted(
                black_box(&w0),
                black_box(&vs),
                black_box(&m),
                black_box(&mut out_w),
            )
        })
    });
    group.bench_function("dot_weighted_per_vector", |b| {
        b.iter(|| {
            for (o, v) in out_w.iter_mut().zip(vs.iter().chain([&w0])) {
                *o = w0.iter().zip(v).zip(&m).map(|((a, b), w)| a * b * w).sum();
            }
            black_box(&out_w);
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

/// The local SpMV of one EDD rank in both storages, on the rank matrices of
/// the two EDD benchmark workloads: half of the 100×100 plane cantilever
/// (2×2 node blocks) and half of the 28×14×14 hex cantilever (3×3).
fn bench_kernel_variants(c: &mut Criterion) {
    use parfem::mesh::{DofMap, Edge, Face, HexMesh, QuadMesh};
    let mat = Material::unit();
    let quad = QuadMesh::cantilever(100, 100);
    let mut dm = DofMap::new(quad.n_nodes());
    dm.clamp_edge(&quad, Edge::Left);
    let loads = vec![0.0; dm.n_dofs()];
    let sub = &ElementPartition::strips_x(&quad, 2).subdomains_of(&quad)[0];
    let plane = SubdomainSystem::build(&quad, &dm, &mat, sub, &loads, false).k_local;

    let hex = HexMesh::cantilever(28, 14, 14);
    let mut dm = DofMap::with_dofs(hex.n_nodes(), 3);
    for node in hex.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let loads = vec![0.0; dm.n_dofs()];
    let sub = &ElementPartition::blocks_of(&hex, 2, 1).subdomains_of(&hex)[0];
    let solid = SubdomainSystem::build(&hex, &dm, &mat, sub, &loads, false).k_local;

    let mut group = c.benchmark_group("kernels_variants");
    for (blocks, csr_name, block_name) in [
        (&plane, "spmv_csr_plane", "spmv_bcsr_2x2"),
        (&solid, "spmv_csr_hex", "spmv_bcsr_3x3"),
    ] {
        // The subdomain is assembled into node blocks; the CSR reference is
        // the same pattern and values copied row by row.
        let blocks = blocks.as_blocks().expect("node-blocked local numbering");
        let a = &CsrMatrix::from_rows(blocks);
        let x: Vec<f64> = (0..a.n_cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y = vec![0.0; a.n_rows()];
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(csr_name, |bench| {
            bench.iter(|| a.spmv_into(black_box(&x), black_box(&mut y)))
        });
        group.bench_function(block_name, |bench| {
            bench.iter(|| blocks.spmv_into(black_box(&x), black_box(&mut y)))
        });
    }
    group.finish();
}

/// The rank coarse build's products on the matrix it sweeps: the node
/// blocks of one rank of the `elas3d-edd-twolevel` shape (half of the
/// 28×14×14 hex cantilever, 10 125 rows). Twelve dense-support modes, as a
/// rank holds under `rbm.s3`, multiplied one at a time (a width-1 panel per
/// mode, the mode-by-mode product) and as one 12-column panel; each column
/// has the same bits either way.
fn bench_coarse_panel(c: &mut Criterion) {
    use parfem::mesh::{DofMap, Face, HexMesh};
    use parfem_sparse::SparseRows;
    let hex = HexMesh::cantilever(28, 14, 14);
    let mut dm = DofMap::with_dofs(hex.n_nodes(), 3);
    for node in hex.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let loads = vec![0.0; dm.n_dofs()];
    let sub = &ElementPartition::blocks_of(&hex, 2, 1).subdomains_of(&hex)[0];
    let a = SubdomainSystem::build(&hex, &dm, &Material::unit(), sub, &loads, false).k_local;
    let (n, k) = (a.n_rows(), 12);
    let columns: Vec<Vec<f64>> = (0..k)
        .map(|c| (0..n).map(|g| ((g * (c + 3)) % 17) as f64 - 8.0).collect())
        .collect();
    let panel: Vec<f64> = (0..n * k).map(|e| columns[e % k][e / k]).collect();
    let (mut y, mut y_panel) = (vec![0.0; n], vec![0.0; n * k]);
    let mut group = c.benchmark_group("coarse_panel");
    group.throughput(Throughput::Elements((a.nnz() * k) as u64));
    group.bench_function("mode_by_mode_x12", |bench| {
        bench.iter(|| {
            for z in &columns {
                a.mul_panel(black_box(z), 1, black_box(&mut y));
            }
        })
    });
    group.bench_function("panel_12", |bench| {
        bench.iter(|| a.mul_panel(black_box(&panel), k, black_box(&mut y_panel)))
    });
    group.finish();
}

/// The one LDLᵀ on the block it factors in the `elas3d-rdd-direct`
/// benchmark workload: rank 0's 3000-row diagonal block of the 18×9×9 hex
/// cantilever split in two x-slabs. `factor` is the whole factorization —
/// the nested-dissection ordering (which has no entry point of its own),
/// the symbolic pass and the supernodal numeric phase — and `solve` one
/// allocation-free solve with the factor.
fn bench_ldlt_factor(c: &mut Criterion) {
    use parfem::dd::RddSystem;
    use parfem::sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
    use parfem::sparse::scaling::scale_system;
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
    let mut group = c.benchmark_group("ldlt_factor");
    group.bench_function("factor_hex_half_block", |bench| {
        bench.iter(|| {
            black_box(SparseLdlt::factor(
                black_box(&block.a_loc),
                DEFAULT_PIVOT_TOL,
            ))
        })
    });
    group.bench_function("solve_hex_half_block", |bench| {
        bench.iter(|| factor.solve_in_place_with(black_box(&mut x), black_box(&mut scratch)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gram_schmidt_sweeps,
    bench_kernel_variants,
    bench_coarse_panel,
    bench_ldlt_factor
);
criterion_main!(benches);
