//! The allocation totals on `solve_summary` cover the same window for both
//! strategies: the whole run, partitioning and assembly (on the host for RDD,
//! on the ranks for EDD) included. And the assembly itself allocates little
//! more than the matrix it returns.
//!
//! Runs under a counting allocator, so this binary holds nothing else.

use parfem_dd::{Problem, SolveSession, Strategy};
use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_mesh::{DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, QuadMesh};
use parfem_sparse::CsrMatrix;
use parfem_trace::alloc::{self, CountingAlloc};
use parfem_trace::{TraceReport, TraceSink};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes of the value and column arrays of `a` — a lower bound on what
/// building it allocates.
fn csr_bytes(a: &CsrMatrix) -> u64 {
    (a.nnz() * (size_of::<f64>() + size_of::<usize>())) as u64
}

/// `alloc_bytes` of the one `solve_summary` a traced run of `session` emits.
fn summary_alloc_bytes(session: SolveSession<'_>) -> u64 {
    let sink = TraceSink::recording();
    let out = session.trace(&sink).run().expect("fault-free solve");
    assert!(out.history.converged());
    let report = TraceReport::from_events(&sink.take_events());
    report
        .solve
        .expect("solve_summary")
        .alloc_bytes
        .expect("counting allocator installed")
}

#[test]
fn summary_allocations_include_host_assembly_for_edd_and_rdd() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let mesh = QuadMesh::cantilever(24, 8);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let problem = Problem::new(&mesh, &dm, &mat, &loads);

    // EDD: the same systems assembled by the caller (outside the window)
    // and by the session's ranks (inside it, summed into the summary with
    // everything else the rank threads allocate). The ranks do identical
    // work otherwise, so the difference is the partition + assembly.
    let part = ElementPartition::strips_x(&mesh, 3);
    let systems: Vec<SubdomainSystem> = part
        .subdomains(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
        .collect();
    let k_local_bytes: u64 = systems.iter().map(|s| csr_bytes(&s.k_local)).sum();
    let prebuilt = summary_alloc_bytes(SolveSession::from_systems(&systems, dm.n_dofs()));
    let assembled = summary_alloc_bytes(SolveSession::new(problem).strategy(Strategy::Edd(part)));
    assert!(
        assembled >= prebuilt + k_local_bytes,
        "EDD summary misses the assembly: {assembled} B with it, {prebuilt} B without, \
         k_local alone is {k_local_bytes} B"
    );

    // RDD: the window has always covered the global matrix.
    let global = assembly::build_static(&mesh, &dm, &mat, &loads);
    let rdd = summary_alloc_bytes(
        SolveSession::new(problem).strategy(Strategy::Rdd(NodePartition::strips_x(&mesh, 3))),
    );
    assert!(rdd >= csr_bytes(&global.stiffness));
}

/// The pattern-first assembly holds no transient larger than its result:
/// building one rank's share of the `elas3d-edd-twolevel` workload (an
/// x-slab half of the 28×14×14 hex cantilever) allocates at most three times
/// the bytes of the CSR arrays it returns. The triplet path it replaced
/// allocated more than ten times as much.
#[test]
fn hex_half_block_assembly_allocates_little_more_than_its_matrix() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let mesh = HexMesh::cantilever(28, 14, 14);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let loads = vec![0.0; dm.n_dofs()];
    let sub = &ElementPartition::blocks_of(&mesh, 2, 1).subdomains_of(&mesh)[0];
    let (sys, allocated) =
        alloc::measure(|| SubdomainSystem::build_hex(&mesh, &dm, &Material::unit(), sub, &loads));
    let k = &sys.k_local;
    let csr = csr_bytes(k) + ((k.n_rows() + 1) * size_of::<usize>()) as u64;
    eprintln!(
        "hex half block: {} B allocated, CSR arrays {csr} B ({:.2} x)",
        allocated.bytes,
        allocated.bytes as f64 / csr as f64
    );
    assert!(
        allocated.bytes <= 3 * csr,
        "assembly allocated {} B for a {csr} B matrix",
        allocated.bytes
    );
}
