//! The sparse LDLᵀ on real finite-element blocks: a fill pin, so an
//! ordering regression fails a test and not a benchmark, and the rigid-mode
//! count of floating subdomain blocks under the fill-reducing ordering.

use parfem_fem::assembly::{assemble_stiffness, build_static};
use parfem_fem::{Discretization, Material, Physics, SubdomainSystem};
use parfem_mesh::{
    Cells, DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, PartitionerSpec, QuadMesh,
};
use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
use parfem_sparse::{CooMatrix, CsrMatrix, SparseRows};
use std::time::Instant;

#[path = "../../sparse/tests/support/scalar_analysis.rs"]
mod scalar_analysis;

/// The diagonal block of `a` over `rows` (ascending global indices).
fn diagonal_block(a: &CsrMatrix, rows: &[usize]) -> CsrMatrix {
    let mut local = vec![usize::MAX; a.n_rows()];
    for (l, &g) in rows.iter().enumerate() {
        local[g] = l;
    }
    let mut coo = CooMatrix::new(rows.len(), rows.len());
    for (l, &g) in rows.iter().enumerate() {
        let (cols, vals) = a.row(g);
        for (&c, &v) in cols.iter().zip(vals) {
            if local[c] != usize::MAX {
                coo.push(l, local[c], v).unwrap();
            }
        }
    }
    coo.to_csr()
}

/// The rows of `nodes`' `dofs` components each, node by node.
fn node_rows(dm: &DofMap, nodes: &[usize], dofs: usize) -> Vec<usize> {
    (nodes.iter())
        .flat_map(|&n| (0..dofs).map(move |c| dm.dof(n, c)))
        .collect()
}

/// Holds the factor's supervariable analysis of `a` to the scalar
/// row-subtree reference under the same permutation, array by array.
fn assert_layout_is_scalar<A: SparseRows + ?Sized>(name: &str, a: &A) {
    let got = SparseLdlt::layout(a);
    let pattern: Vec<Vec<usize>> = (0..a.n_rows())
        .map(|i| a.row_entries(i).map(|(j, _)| j).collect())
        .collect();
    let want = scalar_analysis::scalar_analysis(&pattern, &got.perm);
    assert_eq!(got.first, want.first, "{name}: first");
    assert_eq!(got.row_ptr, want.row_ptr, "{name}: row_ptr");
    assert_eq!(got.rows, want.rows, "{name}: rows");
    assert_eq!(got.val_ptr, want.val_ptr, "{name}: val_ptr");
    assert_eq!(got.owner, want.owner, "{name}: owner");
}

/// FNV-1a of a permutation.
fn digest(perm: &[u32]) -> u64 {
    perm.iter().fold(0xcbf2_9ce4_8422_2325, |h, &p| {
        (h ^ u64::from(p)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The nodes of rank 0 of a P = 2 RDD run: the node partition of the two
/// element strips.
fn first_node_strip<M: Cells>(mesh: &M) -> Vec<usize> {
    let strips = PartitionerSpec::Strips.element_partition(mesh, 2);
    NodePartition::from_elements(&strips, mesh)
        .unwrap()
        .nodes_of(0)
}

/// The block row the `elas3d-rdd-direct` benchmark workload factors on rank
/// 0: the 18×9×9 hex cantilever, clamped at `x = 0`, split in two x-slabs of
/// nodes — 3000 rows, 300 of them Dirichlet identities.
#[test]
fn hex_half_block_fill_stays_under_the_pin() {
    let mesh = HexMesh::cantilever(18, 9, 9);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let loads = vec![0.0; dm.n_dofs()];
    let k = build_static(&mesh, &dm, &Material::unit(), &loads).stiffness;
    let dm = &dm;
    let rows: Vec<usize> = (first_node_strip(&mesh).iter())
        .flat_map(|&n| (0..3).map(move |c| dm.dof(n, c)))
        .collect();
    let block = diagonal_block(&k, &rows);
    assert_eq!(block.n_rows(), 3000);

    let t = Instant::now();
    let f = SparseLdlt::factor(&block, DEFAULT_PIVOT_TOL);
    eprintln!(
        "hex half block: nnz(L) = {}, fill = {:.2}, {} factor flops, {:.1} ms, \
         {} supernodes, largest front {}, root separator {} rows, {} bytes",
        f.nnz_l(),
        f.fill(),
        f.factor_flops(),
        t.elapsed().as_secs_f64() * 1e3,
        f.supernodes(),
        f.max_front(),
        f.separator(),
        f.bytes()
    );
    assert_eq!(f.n_skipped(), 0);
    // 917 544 stored entries under the RCM profile this replaced, 732 k in
    // the natural order, 580 k (190.3 M flops, a 594-row top front) under
    // the minimum degree that ordered the whole block before nested
    // dissection.
    assert!(f.nnz_l() <= 490_000, "nnz(L) = {}", f.nnz_l());
    // The counts are symbolic, so the supernodal numeric phase keeps them
    // to the entry; its panels take fewer bytes than the 7 016 612 of the
    // column storage (12 bytes per entry) and the 4 807 168 of the minimum
    // degree factor.
    assert_eq!((f.nnz_l(), f.factor_flops()), (479_331, 110_438_901));
    assert!(f.bytes() <= 4_100_000, "{} bytes", f.bytes());
    // The root separator is a plane of 90 nodes across the slab.
    assert_eq!(f.separator(), 270);

    let x: Vec<f64> = (0..3000).map(|i| (0.37 * i as f64).sin()).collect();
    let b = block.spmv(&x);
    let mut z = b.clone();
    f.solve_in_place(&mut z);
    let err = (z.iter().zip(&x)).fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    assert!(err < 1e-9, "solve error {err}");
}

/// A floating block carries exactly its rigid-body modes as skipped pivots,
/// whatever order the pivots are taken in: 6 for hex8 elasticity, 3 for
/// quad4 elasticity, 1 for heat conduction.
#[test]
fn floating_blocks_skip_exactly_their_rigid_modes() {
    let mat = Material::unit();
    let hex = HexMesh::cantilever(4, 3, 3);
    let k = assemble_stiffness(&hex, &DofMap::with_dofs(hex.n_nodes(), 3), &mat);
    assert_eq!(SparseLdlt::factor(&k, DEFAULT_PIVOT_TOL).n_skipped(), 6);

    let quad = QuadMesh::cantilever(7, 5);
    let k = assemble_stiffness(&quad, &DofMap::new(quad.n_nodes()), &mat);
    assert_eq!(SparseLdlt::factor(&k, DEFAULT_PIVOT_TOL).n_skipped(), 3);

    let heat = Discretization::new(&quad, Physics::Heat2d);
    let k = assemble_stiffness(heat, &DofMap::with_dofs(quad.n_nodes(), 1), &mat);
    assert_eq!(SparseLdlt::factor(&k, DEFAULT_PIVOT_TOL).n_skipped(), 1);
}

/// The pivot shift on a floating hex block is an exact solve: a skipped
/// pivot's column of `L` is zero, so `δ` in its place factors
/// `A + δ Σ e_i e_iᵀ` over the skipped indices `i`, which a dense solve
/// reproduces for any right-hand side (the dropped pivots themselves are
/// under `1e-12` of the diagonal).
#[test]
fn null_shift_on_a_floating_hex_block_matches_a_dense_solve() {
    let hex = HexMesh::cantilever(3, 2, 2);
    let k = assemble_stiffness(
        &hex,
        &DofMap::with_dofs(hex.n_nodes(), 3),
        &Material::unit(),
    );
    let mut f = SparseLdlt::factor(&k, DEFAULT_PIVOT_TOL);
    assert_eq!(f.n_skipped(), 6);
    assert!(f.supernodes() > 1, "the block spans several panels");
    let delta = f.diag_scale();
    f.set_null_shift(delta);

    let n = k.n_rows();
    let mut shifted = k.to_dense();
    for &i in f.skipped_modes() {
        shifted[i * n + i] += delta;
    }
    let b: Vec<f64> = (0..n).map(|i| (0.9 * i as f64).sin()).collect();
    let want = parfem_sparse::dense::solve_dense(n, &mut shifted, &b);
    let mut x = b;
    f.solve_in_place(&mut x);
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (xi, wi) in x.iter().zip(&want) {
        assert!((xi - wi).abs() < 1e-8 * scale, "{xi} vs {wi}");
    }
}

/// The nested-dissection permutation and root separator of four real
/// blocks, pinned to the row: an RDD hex half block, a 2-D elasticity node
/// strip, a floating EDD hex subdomain and a heat node strip. A change to
/// the graph bisection under the ordering must leave all four unmoved, and
/// the supervariable analysis of each must be the scalar one.
#[test]
fn dissection_permutations_stay_pinned() {
    let mat = Material::unit();
    let hex = HexMesh::cantilever(18, 9, 9);
    let mut hex_dm = DofMap::with_dofs(hex.n_nodes(), 3);
    for node in hex.face_nodes(Face::XMin) {
        hex_dm.clamp_node(node);
    }
    let loads = vec![0.0; hex_dm.n_dofs()];
    let k = build_static(&hex, &hex_dm, &mat, &loads).stiffness;
    let rows = node_rows(&hex_dm, &first_node_strip(&hex), 3);
    let hex_half = diagonal_block(&k, &rows);

    let quad = QuadMesh::cantilever(48, 48);
    let mut dm = DofMap::new(quad.n_nodes());
    dm.clamp_edge(&quad, Edge::Left);
    let k = build_static(&quad, &dm, &mat, &vec![0.0; dm.n_dofs()]).stiffness;
    let rows = node_rows(&dm, &first_node_strip(&quad), 2);
    let quad_strip = diagonal_block(&k, &rows);

    let box_mesh = HexMesh::cantilever(12, 6, 6);
    let dm = DofMap::with_dofs(box_mesh.n_nodes(), 3);
    let sub = &ElementPartition::blocks_of(&box_mesh, 2, 1).subdomains_of(&box_mesh)[0];
    let loads = vec![0.0; dm.n_dofs()];
    let k = SubdomainSystem::build(&box_mesh, &dm, &mat, sub, &loads, false).k_local;
    assert_layout_is_scalar("hex 12x6x6 P=2 floating EDD rank 0", &k);
    let floating = SparseLdlt::factor(&k, DEFAULT_PIVOT_TOL);
    assert_eq!(floating.n_skipped(), 6);

    let heat = QuadMesh::cantilever(40, 20);
    let mut dm = DofMap::with_dofs(heat.n_nodes(), 1);
    dm.clamp_edge(&heat, Edge::Left);
    let disc = Discretization::new(&heat, Physics::Heat2d);
    let k = build_static(disc, &dm, &mat, &vec![0.0; dm.n_dofs()]).stiffness;
    let rows = node_rows(&dm, &first_node_strip(&heat), 1);
    let heat_strip = diagonal_block(&k, &rows);

    for (name, block) in [
        ("hex 18x9x9 RDD half block", &hex_half),
        ("quad 48x48 P=2 node strip", &quad_strip),
        ("heat 40x20 P=2 node strip", &heat_strip),
    ] {
        assert_layout_is_scalar(name, block);
    }
    let factor = |a: &CsrMatrix| SparseLdlt::factor(a, DEFAULT_PIVOT_TOL);
    let cases = [
        (
            "hex 18x9x9 RDD half block",
            factor(&hex_half),
            0xbe9f_51c9_25d8_5535,
            270,
        ),
        (
            "quad 48x48 P=2 node strip",
            factor(&quad_strip),
            0xb922_b576_a67a_8992,
            48,
        ),
        (
            "hex 12x6x6 P=2 floating EDD rank 0",
            floating,
            0xd11c_0dd4_0613_733f,
            147,
        ),
        (
            "heat 40x20 P=2 node strip",
            factor(&heat_strip),
            0x50c9_77fb_e604_4913,
            21,
        ),
    ];
    for (name, f, want, separator) in cases {
        let got = (digest(f.permutation()), f.separator());
        assert_eq!(got, (want, separator), "{name}: {:#018x}", got.0);
    }
}
