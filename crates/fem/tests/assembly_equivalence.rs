//! The pattern-first assembly core against a triplet reference.
//!
//! The reference pushes the same dense element blocks, in ascending element
//! order, into a `CooMatrix` — whose `to_csr` sums duplicates in push order.
//! For every element family, partition shape and Dirichlet kind the core's
//! `row_ptr`, `col_idx`, value bits and right-hand-side bits must equal it:
//! the pattern and the summation-order contract (ascending element id), pinned.
//! A subdomain stiffness with 2 or 3 dofs per node is assembled straight into
//! node blocks: those must hold exactly what `BcsrMatrix::from_csr` makes of
//! the reference — fill zeros and masks included — and keep doing so once
//! scaled in place.

use parfem_fem::{assembly, hex8, physics, quad4, quad8s, tri3, Material, SubdomainSystem};
use parfem_mesh::{
    Cells, DofMap, ElementPartition, HexMesh, PartitionerSpec, Quad8Mesh, QuadMesh, Subdomain,
    TriMesh,
};
use parfem_sparse::scaling::inv_sqrt_scaling;
use parfem_sparse::{BcsrMatrix, CooMatrix, CsrMatrix, NodeMatrix};

/// Global nodes, dense stiffness and dense mass of one element.
type Element = (Vec<usize>, Vec<f64>, Vec<f64>);

/// The crate's subdomain build; the flag asks for the mass.
type Build<'a> = &'a dyn Fn(&DofMap, &Subdomain, &[f64], bool) -> SubdomainSystem;

fn assert_same_matrix(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
    let (g_ptr, g_col, g_val) = got.raw_parts();
    let (w_ptr, w_col, w_val) = want.raw_parts();
    assert_eq!(g_ptr, w_ptr, "{what}: row_ptr");
    assert_eq!(g_col, w_col, "{what}: col_idx");
    assert_same_bits(g_val, w_val, what);
}

/// Block storage bit for bit: pattern, masks, and every value, fill included.
fn assert_same_blocks(got: &BcsrMatrix, want: &BcsrMatrix, what: &str) {
    let (g_ptr, g_col, g_val) = got.raw_parts();
    let (w_ptr, w_col, w_val) = want.raw_parts();
    assert_eq!(got.block_size(), want.block_size(), "{what}: block size");
    assert_eq!(g_ptr, w_ptr, "{what}: brow_ptr");
    assert_eq!(g_col, w_col, "{what}: bcol_idx");
    assert_eq!(got.fill(), want.fill(), "{what}: fill masks");
    assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
    assert_same_bits(g_val, w_val, what);
}

/// A subdomain stiffness against its CSR reference: CSR for one dof per
/// node, the reference's node blocks otherwise.
fn assert_same_local(got: &NodeMatrix, want: &CsrMatrix, dpn: usize, what: &str) {
    match got {
        NodeMatrix::Csr(got) => {
            assert_eq!(dpn, 1, "{what}: CSR storage at {dpn} dofs per node");
            assert_same_matrix(got, want, what);
        }
        NodeMatrix::Blocks(got) => {
            let want = BcsrMatrix::from_csr(want, dpn).expect("node-blocked dimension");
            assert_same_blocks(got, &want, what);
        }
    }
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i}: {g:e} vs {w:e}"
        );
    }
}

fn element_dofs(dm: &DofMap, nodes: &[usize]) -> Vec<usize> {
    let dpn = dm.dofs_per_node();
    (nodes.iter())
        .flat_map(|&n| (0..dpn).map(move |c| dm.dof(n, c)))
        .collect()
}

/// Raw global assembly by triplets: every block pushed whole, element order.
fn reference_global(
    dm: &DofMap,
    blocks: impl Iterator<Item = (Vec<usize>, Vec<f64>)>,
) -> CsrMatrix {
    let mut coo = CooMatrix::new(dm.n_dofs(), dm.n_dofs());
    for (nodes, block) in blocks {
        coo.push_block(&element_dofs(dm, &nodes), &block).unwrap();
    }
    coo.to_csr()
}

/// `apply_dirichlet` by triplets (`rhs: Some`) and `apply_dirichlet_mass`
/// (`None`): the filtered rows re-sorted through a `CooMatrix`.
fn reference_dirichlet(k: &CsrMatrix, dm: &DofMap, mut rhs: Option<&mut [f64]>) -> CsrMatrix {
    let mut coo = CooMatrix::new(k.n_rows(), k.n_rows());
    for r in 0..k.n_rows() {
        if dm.is_fixed(r) {
            if let Some(rhs) = &mut rhs {
                coo.push(r, r, 1.0).unwrap();
                rhs[r] = dm.fixed_value(r);
            }
            continue;
        }
        let (cols, vals) = k.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if !dm.is_fixed(c) {
                coo.push(r, c, v).unwrap();
            } else if let Some(rhs) = &mut rhs {
                rhs[r] -= v * dm.fixed_value(c);
            }
        }
    }
    coo.to_csr()
}

/// The local distributed system of `sub` by triplets: per element, free
/// rows × free columns pushed, constrained columns lifted to the load; then
/// the `1/mult` constraint diagonals.
fn reference_subdomain(
    dm: &DofMap,
    sub: &Subdomain,
    loads: &[f64],
    element: &dyn Fn(usize) -> Element,
) -> (CsrMatrix, CsrMatrix, Vec<f64>) {
    let dpn = dm.dofs_per_node();
    let global_dofs = element_dofs(dm, &sub.nodes);
    let mult: Vec<f64> = (sub.multiplicity.iter())
        .flat_map(|&m| vec![m as f64; dpn])
        .collect();
    let n = global_dofs.len();
    let mut f: Vec<f64> = (0..n).map(|l| loads[global_dofs[l]] / mult[l]).collect();
    let mut k_coo = CooMatrix::new(n, n);
    let mut m_coo = CooMatrix::new(n, n);
    for &e in &sub.elements {
        let (nodes, ke, me) = element(e);
        let gdofs = element_dofs(dm, &nodes);
        let ldofs: Vec<usize> = (nodes.iter())
            .flat_map(|&g| {
                let l = sub.nodes.iter().position(|&n| n == g).unwrap();
                (0..dpn).map(move |c| l * dpn + c)
            })
            .collect();
        let nd = gdofs.len();
        for i in (0..nd).filter(|&i| !dm.is_fixed(gdofs[i])) {
            for j in 0..nd {
                if dm.is_fixed(gdofs[j]) {
                    f[ldofs[i]] -= ke[i * nd + j] * dm.fixed_value(gdofs[j]);
                } else {
                    k_coo.push(ldofs[i], ldofs[j], ke[i * nd + j]).unwrap();
                    m_coo.push(ldofs[i], ldofs[j], me[i * nd + j]).unwrap();
                }
            }
        }
    }
    for (l, &g) in global_dofs.iter().enumerate() {
        if dm.is_fixed(g) {
            k_coo.push(l, l, 1.0 / mult[l]).unwrap();
            f[l] = dm.fixed_value(g) / mult[l];
        }
    }
    (k_coo.to_csr(), m_coo.to_csr(), f)
}

/// A load vector with no two equal entries and no zeros.
fn loads_for(dm: &DofMap) -> Vec<f64> {
    (0..dm.n_dofs())
        .map(|d| ((d * 37 + 11) % 101) as f64 / 17.0 - 2.9)
        .collect()
}

/// Homogeneous (every dof of `nodes` clamped) and inhomogeneous (a distinct
/// non-zero value on every other dof of `nodes`, so some nodes stay partly
/// free) constraints over `n_nodes` nodes.
fn constraints(n_nodes: usize, dpn: usize, nodes: &[usize]) -> [(&'static str, DofMap); 2] {
    let mut clamped = DofMap::with_dofs(n_nodes, dpn);
    let mut lifted = DofMap::with_dofs(n_nodes, dpn);
    for (i, &n) in nodes.iter().enumerate() {
        clamped.clamp_node(n);
        for c in (0..dpn).filter(|c| (i + c) % 2 == 0) {
            lifted.fix_dof(lifted.dof(n, c), 0.01 * (1 + i + c) as f64);
        }
    }
    [("homogeneous", clamped), ("inhomogeneous", lifted)]
}

/// One element family on one mesh: what to compare, over which partitions.
struct Family<'a, M> {
    name: &'static str,
    mesh: &'a M,
    dpn: usize,
    /// Nodes carrying the Dirichlet constraints.
    support: Vec<usize>,
    element: &'a dyn Fn(usize) -> Element,
    /// The crate's raw global stiffness assembly.
    global: &'a dyn Fn(&DofMap) -> CsrMatrix,
    build: Build<'a>,
    has_mass: bool,
    partitions: Vec<(&'static str, ElementPartition)>,
}

fn check<M: Cells>(fam: Family<'_, M>) {
    let n_nodes = fam.mesh.n_cell_nodes();
    let blocks = || {
        (0..fam.mesh.n_cells()).map(|e| {
            let (nodes, ke, _) = (fam.element)(e);
            (nodes, ke)
        })
    };

    // Global, raw: the pattern holds no constraint.
    let free = DofMap::with_dofs(n_nodes, fam.dpn);
    let raw = (fam.global)(&free);
    assert_same_matrix(&raw, &reference_global(&free, blocks()), fam.name);

    let mut cross_points = false;
    for (kind, dm) in constraints(n_nodes, fam.dpn, &fam.support) {
        let loads = loads_for(&dm);
        let what = format!("{} / {kind}", fam.name);

        // Global, constrained: the row filter keeps entries and order.
        let (mut got_rhs, mut want_rhs) = (loads.clone(), loads.clone());
        let got = assembly::apply_dirichlet(&raw, &dm, &mut got_rhs);
        let want = reference_dirichlet(&raw, &dm, Some(&mut want_rhs));
        assert_same_matrix(&got, &want, &format!("{what} / apply_dirichlet"));
        assert_same_bits(&got_rhs, &want_rhs, &format!("{what} / global rhs"));
        assert_same_matrix(
            &assembly::apply_dirichlet_mass(&raw, &dm),
            &reference_dirichlet(&raw, &dm, None),
            &format!("{what} / apply_dirichlet_mass"),
        );

        // Per subdomain.
        for (shape, part) in &fam.partitions {
            for sub in part.subdomains_of(fam.mesh) {
                cross_points |= sub.multiplicity.iter().any(|&m| m >= 3);
                let what = format!("{what} / {shape} / rank {}", sub.rank);
                let sys = (fam.build)(&dm, &sub, &loads, fam.has_mass);
                let (k, m, f) = reference_subdomain(&dm, &sub, &loads, fam.element);
                assert_same_local(&sys.k_local, &k, fam.dpn, &format!("{what} / k_local"));
                assert_same_bits(&sys.f_local, &f, &format!("{what} / f_local"));
                assert_eq!(sys.m_local.is_some(), fam.has_mass);
                if let Some(m_local) = &sys.m_local {
                    assert_same_matrix(m_local, &m, &format!("{what} / m_local"));
                }
            }
        }
    }
    assert!(cross_points, "{}: no partition has a cross point", fam.name);
}

fn graph(mesh: &impl Cells, p: usize) -> (&'static str, ElementPartition) {
    ("graph", PartitionerSpec::Graph.element_partition(mesh, p))
}

fn quad4_family(name: &'static str, mesh: &QuadMesh, lumped: Option<bool>) {
    let mat = Material::unit();
    check(Family {
        name,
        mesh,
        dpn: 2,
        support: (0..=mesh.ny()).map(|j| mesh.node_at(0, j)).collect(),
        element: &|e| {
            let c = mesh.elem_coords(e);
            let me = match lumped {
                Some(true) => quad4::lumped_mass(&c, &mat).to_vec(),
                _ => quad4::consistent_mass(&c, &mat).to_vec(),
            };
            (
                mesh.elem_nodes(e).to_vec(),
                quad4::stiffness(&c, &mat).to_vec(),
                me,
            )
        },
        global: &|dm| assembly::assemble_stiffness(mesh, dm, &mat),
        build: &|dm, sub, loads, mass| {
            SubdomainSystem::build(mesh, dm, &mat, sub, loads, lumped.filter(|_| mass))
        },
        has_mass: lumped.is_some(),
        partitions: vec![
            ("strips", ElementPartition::strips_x(mesh, 3)),
            ("blocks", ElementPartition::blocks_of(mesh, 2, 2)),
            graph(mesh, 4),
        ],
    });
}

#[test]
fn quad4_elasticity_regular_and_distorted() {
    quad4_family("quad4", &QuadMesh::cantilever(6, 4), None);
    quad4_family(
        "quad4 distorted",
        &QuadMesh::distorted(6, 4, 6.0, 4.0, 0.3, 42),
        None,
    );
}

#[test]
fn quad4_consistent_and_lumped_mass() {
    let mesh = QuadMesh::distorted(5, 4, 5.0, 4.0, 0.25, 3);
    quad4_family("quad4 + consistent mass", &mesh, Some(false));
    quad4_family("quad4 + lumped mass", &mesh, Some(true));

    // The global mass: consistent blocks whole, lumped diagonals only.
    let mat = Material::unit();
    let dm = DofMap::new(mesh.n_nodes());
    let consistent = (0..mesh.n_elems()).map(|e| {
        let me = quad4::consistent_mass(&mesh.elem_coords(e), &mat);
        (mesh.elem_nodes(e).to_vec(), me.to_vec())
    });
    assert_same_matrix(
        &assembly::assemble_mass(&mesh, &dm, &mat, false),
        &reference_global(&dm, consistent),
        "global consistent mass",
    );
    let mut coo = CooMatrix::new(dm.n_dofs(), dm.n_dofs());
    for e in 0..mesh.n_elems() {
        let me = quad4::lumped_mass(&mesh.elem_coords(e), &mat);
        for (i, &d) in dm.elem_dofs(mesh.elem_nodes(e)).iter().enumerate() {
            coo.push(d, d, me[i * 9]).unwrap();
        }
    }
    assert_same_matrix(
        &assembly::assemble_mass(&mesh, &dm, &mat, true),
        &coo.to_csr(),
        "global lumped mass",
    );
}

#[test]
fn tri3_elasticity() {
    let mesh = TriMesh::from_quad_mesh(&QuadMesh::distorted(6, 4, 6.0, 4.0, 0.2, 5));
    let mat = Material::unit();
    check(Family {
        name: "tri3",
        mesh: &mesh,
        dpn: 2,
        support: (0..=mesh.ny()).map(|j| mesh.node_at(0, j)).collect(),
        element: &|e| {
            let c = mesh.elem_coords(e);
            (
                mesh.elem_nodes(e).to_vec(),
                tri3::stiffness(&c, &mat).to_vec(),
                tri3::consistent_mass(&c, &mat).to_vec(),
            )
        },
        global: &|dm| tri3::assemble_stiffness(&mesh, dm, &mat),
        build: &|dm, sub, loads, mass| {
            SubdomainSystem::build_tri(&mesh, dm, &mat, sub, loads, mass.then_some(false))
        },
        has_mass: true,
        partitions: vec![
            ("strips", ElementPartition::strips_x_tri(&mesh, 3)),
            ("blocks", ElementPartition::blocks_of(&mesh, 2, 2)),
            graph(&mesh, 4),
        ],
    });
}

#[test]
fn quad8_elasticity() {
    let mesh = Quad8Mesh::cantilever(4, 4);
    let mat = Material::unit();
    check(Family {
        name: "quad8",
        mesh: &mesh,
        dpn: 2,
        support: mesh.edge_nodes(parfem_mesh::Edge::Left),
        element: &|e| {
            let c = mesh.elem_coords(e);
            (
                mesh.elem_nodes(e).to_vec(),
                quad8s::stiffness(&c, &mat).to_vec(),
                quad8s::consistent_mass(&c, &mat).to_vec(),
            )
        },
        global: &|dm| quad8s::assemble_stiffness(&mesh, dm, &mat),
        build: &|dm, sub, loads, mass| {
            SubdomainSystem::build_quad8(&mesh, dm, &mat, sub, loads, mass.then_some(false))
        },
        has_mass: true,
        partitions: vec![
            ("strips", ElementPartition::strips_x_quad8(&mesh, 2)),
            ("blocks", ElementPartition::blocks_of(&mesh, 2, 2)),
            graph(&mesh, 4),
        ],
    });
}

#[test]
fn heat_quad4() {
    let mesh = QuadMesh::distorted(6, 5, 6.0, 5.0, 0.3, 9);
    let mat = Material::unit();
    check(Family {
        name: "heat quad4",
        mesh: &mesh,
        dpn: 1,
        support: (0..=mesh.ny()).map(|j| mesh.node_at(0, j)).collect(),
        element: &|e| {
            let ke = physics::heat_stiffness_quad4(&mesh.elem_coords(e), &mat);
            (mesh.elem_nodes(e).to_vec(), ke.to_vec(), vec![0.0; 16])
        },
        global: &|dm| assembly::assemble_stiffness_heat(&mesh, dm, &mat),
        build: &|dm, sub, loads, _| SubdomainSystem::build_heat(&mesh, dm, &mat, sub, loads),
        has_mass: false,
        partitions: vec![
            ("strips", ElementPartition::strips_x(&mesh, 3)),
            ("blocks", ElementPartition::blocks_of(&mesh, 2, 2)),
            graph(&mesh, 5),
        ],
    });
}

#[test]
fn hex8_elasticity() {
    let mesh = HexMesh::cantilever(4, 3, 2);
    let mat = Material::unit();
    check(Family {
        name: "hex8",
        mesh: &mesh,
        dpn: 3,
        support: mesh.face_nodes(parfem_mesh::Face::XMin),
        element: &|e| {
            let ke = hex8::stiffness(&mesh.elem_coords(e), &mat);
            (mesh.elem_nodes(e).to_vec(), ke.to_vec(), vec![0.0; 576])
        },
        global: &|dm| assembly::assemble_stiffness_hex(&mesh, dm, &mat),
        build: &|dm, sub, loads, _| SubdomainSystem::build_hex(&mesh, dm, &mat, sub, loads),
        has_mass: false,
        partitions: vec![
            ("strips", ElementPartition::blocks_of(&mesh, 2, 1)),
            ("blocks", ElementPartition::blocks_of(&mesh, 2, 2)),
            graph(&mesh, 4),
        ],
    });
}

/// The scaling an EDD rank applies, in place on the directly assembled
/// blocks, against the CSR reference scaled by `scale_symmetric`
/// (`a_rc·(d_r·d_c)`) and then copied into blocks: the same bits, fill zeros
/// included, and the same row sums the scaling is taken from.
fn check_scaled_blocks<M: Cells>(fam: Family<'_, M>) {
    let n_nodes = fam.mesh.n_cell_nodes();
    for (kind, dm) in constraints(n_nodes, fam.dpn, &fam.support) {
        let loads = loads_for(&dm);
        for (shape, part) in &fam.partitions {
            for sub in part.subdomains_of(fam.mesh) {
                let what = format!("{} / {kind} / {shape} / rank {}", fam.name, sub.rank);
                let mut sys = (fam.build)(&dm, &sub, &loads, false);
                let (mut k, _, _) = reference_subdomain(&dm, &sub, &loads, fam.element);
                assert!(k.n_rows() > 0, "{what}: empty subdomain");
                let sums = sys.k_local.row_abs_sums();
                assert_same_bits(&sums, &k.row_abs_sums(), &format!("{what} / row sums"));
                let d = inv_sqrt_scaling(&sums);
                sys.k_local.scale_symmetric(&d);
                k.scale_symmetric(&d);
                assert_same_local(&sys.k_local, &k, fam.dpn, &format!("{what} / scaled"));
            }
        }
    }
}

#[test]
fn node_blocks_scaled_in_place_hold_the_scaled_csr_bits() {
    let mat = Material::unit();
    let quad = QuadMesh::distorted(6, 4, 6.0, 4.0, 0.3, 42);
    check_scaled_blocks(Family {
        name: "quad4 blocks",
        mesh: &quad,
        dpn: 2,
        support: (0..=quad.ny()).map(|j| quad.node_at(0, j)).collect(),
        element: &|e| {
            let c = quad.elem_coords(e);
            let ke = quad4::stiffness(&c, &mat).to_vec();
            (quad.elem_nodes(e).to_vec(), ke, vec![0.0; 64])
        },
        global: &|dm| assembly::assemble_stiffness(&quad, dm, &mat),
        build: &|dm, sub, loads, _| SubdomainSystem::build(&quad, dm, &mat, sub, loads, None),
        has_mass: false,
        partitions: vec![
            ("strips", ElementPartition::strips_x(&quad, 3)),
            ("blocks", ElementPartition::blocks_of(&quad, 2, 2)),
            graph(&quad, 4),
        ],
    });
    let hex = HexMesh::cantilever(4, 3, 2);
    check_scaled_blocks(Family {
        name: "hex8 blocks",
        mesh: &hex,
        dpn: 3,
        support: hex.face_nodes(parfem_mesh::Face::XMin),
        element: &|e| {
            let ke = hex8::stiffness(&hex.elem_coords(e), &mat);
            (hex.elem_nodes(e).to_vec(), ke.to_vec(), vec![0.0; 576])
        },
        global: &|dm| assembly::assemble_stiffness_hex(&hex, dm, &mat),
        build: &|dm, sub, loads, _| SubdomainSystem::build_hex(&hex, dm, &mat, sub, loads),
        has_mass: false,
        partitions: vec![
            ("strips", ElementPartition::blocks_of(&hex, 2, 1)),
            ("blocks", ElementPartition::blocks_of(&hex, 2, 2)),
            graph(&hex, 4),
        ],
    });
}
