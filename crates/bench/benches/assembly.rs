//! FEM assembly cost: global vs per-subdomain (unassembled) assembly.
//! The EDD strategy's setup advantage is skipping the assembled matrix
//! entirely (paper claim i).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfem::fem::{assembly, SubdomainSystem};
use parfem::prelude::*;
use std::hint::black_box;

fn bench_assembly(c: &mut Criterion) {
    let p = CantileverProblem::paper_mesh(4);
    let mut group = c.benchmark_group("assembly_mesh4");
    group.sample_size(20);

    group.bench_function("global_stiffness", |b| {
        b.iter(|| {
            black_box(assembly::assemble_stiffness(
                &p.mesh,
                &p.dof_map,
                &p.material,
            ))
        })
    });
    group.bench_function("global_with_bc_and_rhs", |b| {
        b.iter(|| {
            black_box(assembly::build_static(
                &p.mesh,
                &p.dof_map,
                &p.material,
                &p.loads,
            ))
        })
    });

    for parts in [2usize, 4, 8] {
        let subs = ElementPartition::strips_x(&p.mesh, parts).subdomains_of(&p.mesh);
        group.bench_with_input(
            BenchmarkId::new("all_subdomains", parts),
            &subs,
            |b, subs| {
                b.iter(|| {
                    let systems: Vec<SubdomainSystem> = subs
                        .iter()
                        .map(|s| {
                            SubdomainSystem::build(
                                &p.mesh,
                                &p.dof_map,
                                &p.material,
                                s,
                                &p.loads,
                                false,
                            )
                        })
                        .collect();
                    black_box(systems)
                })
            },
        );
    }
    group.finish();
}

/// One rank's share of the `elas3d-edd-twolevel` workload: the x-slab half
/// of the 28×14×14 hex cantilever (2744 elements, 9450 local dofs).
fn bench_hex_half_block(c: &mut Criterion) {
    use parfem::mesh::{DofMap, Face, HexMesh};
    let mesh = HexMesh::cantilever(28, 14, 14);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let loads = vec![0.0; dm.n_dofs()];
    let mat = Material::unit();
    let sub = &ElementPartition::blocks_of(&mesh, 2, 1).subdomains_of(&mesh)[0];
    let mut group = c.benchmark_group("assembly_hex_half_block");
    group.sample_size(20);
    group.bench_function("subdomain_build", |b| {
        b.iter(|| black_box(SubdomainSystem::build(&mesh, &dm, &mat, sub, &loads, false)))
    });
    group.finish();
}

criterion_group!(benches, bench_assembly, bench_hex_half_block);
criterion_main!(benches);
