//! The pattern-first assembly core against a triplet reference, for every
//! (mesh, physics) pairing of the one table below: a new pairing needs one
//! new row.
//!
//! The reference pushes the same dense element blocks, in ascending element
//! order, into a `CooMatrix` — whose `to_csr` sums duplicates in push order.
//! For every pairing, partition shape and Dirichlet kind the core's
//! `row_ptr`, `col_idx`, value bits and right-hand-side bits must equal it:
//! the pattern and the summation-order contract (ascending element id), pinned.
//! The global raw assembly, the subdomain systems and one rank's owned rows
//! agree with each other: the union of the owned rows is the constrained
//! global matrix bit for bit, the subdomain sum `Σ Bₛᵀ K̂⁽ˢ⁾ Bₛ` is it up to
//! the order interface entries are summed in.
//! A subdomain stiffness with 2 or 3 dofs per node is assembled straight into
//! node blocks: those must hold exactly what `BcsrMatrix::from_csr` makes of
//! the reference — fill zeros and masks included — and keep doing so once
//! scaled in place.
//! Every elasticity element matrix is symmetric bit for bit (the kernels
//! compute the upper triangle and mirror it), and so is every matrix
//! assembled from them: the subdomain stiffness of an EDD rank and the
//! owned-column block of an RDD rank equal their transposes, pattern and
//! value bits, before and after scaling — the property that lets node
//! blocks store the upper triangle only.

use parfem_fem::{assembly, Discretization, Mass, Material, Physics, SubdomainSystem};
use parfem_mesh::{
    Cells, DofMap, Edge, ElementPartition, Face, GenericQuadMesh, HexMesh, PartitionerSpec,
    Quad8Mesh, QuadMesh, Subdomain, TriMesh,
};
use parfem_sparse::scaling::inv_sqrt_scaling;
use parfem_sparse::{BcsrMatrix, CooMatrix, CsrMatrix, NodeMatrix, SparseRows};

/// Global nodes, dense stiffness and dense mass of one element.
type Element = (Vec<usize>, Vec<f64>, Vec<f64>);

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

/// `a` equals its transpose: the same pattern, and entry `(c, r)` has the
/// bits of entry `(r, c)`.
fn assert_bitwise_symmetric(a: &impl SparseRows, what: &str) {
    let a = CsrMatrix::from_rows(a);
    assert_same_matrix(&a, &a.transpose(), &format!("{what}: bitwise symmetric"));
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
) -> (CsrMatrix, Vec<f64>) {
    let dpn = dm.dofs_per_node();
    let global_dofs = element_dofs(dm, &sub.nodes);
    let mult: Vec<f64> = (sub.multiplicity.iter())
        .flat_map(|&m| vec![m as f64; dpn])
        .collect();
    let n = global_dofs.len();
    let mut f: Vec<f64> = (0..n).map(|l| loads[global_dofs[l]] / mult[l]).collect();
    let mut k_coo = CooMatrix::new(n, n);
    for &e in &sub.elements {
        let (nodes, ke, _) = element(e);
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
    (k_coo.to_csr(), f)
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

/// The meshes the table discretizes.
struct Meshes {
    quad: QuadMesh,
    distorted: QuadMesh,
    massive: QuadMesh,
    generic: GenericQuadMesh,
    tri: TriMesh,
    quad8: Quad8Mesh,
    heat: QuadMesh,
    hex: HexMesh,
}

fn meshes() -> Meshes {
    Meshes {
        quad: QuadMesh::cantilever(6, 4),
        distorted: QuadMesh::distorted(6, 4, 6.0, 4.0, 0.3, 42),
        massive: QuadMesh::distorted(5, 4, 5.0, 4.0, 0.25, 3),
        generic: GenericQuadMesh::from_structured(&QuadMesh::distorted(5, 4, 5.0, 4.0, 0.25, 7)),
        tri: TriMesh::from_quad_mesh(&QuadMesh::distorted(6, 4, 6.0, 4.0, 0.2, 5)),
        quad8: Quad8Mesh::cantilever(4, 4),
        heat: QuadMesh::distorted(6, 5, 6.0, 5.0, 0.3, 9),
        hex: HexMesh::cantilever(4, 3, 2),
    }
}

/// One row of the table: a discretization, the nodes carrying its
/// Dirichlet constraints and the masses it assembles.
struct Pairing<'a> {
    name: &'static str,
    disc: Discretization<'a>,
    support: Vec<usize>,
    masses: &'static [Mass],
}

/// The one table: every supported (mesh, physics) pairing.
fn pairings(m: &Meshes) -> Vec<Pairing<'_>> {
    let left = |q: &QuadMesh| (0..=q.ny()).map(|j| q.node_at(0, j)).collect();
    let both = &[Mass::Consistent, Mass::Lumped];
    let row = |name, disc, support, masses| Pairing {
        name,
        disc,
        support,
        masses,
    };
    vec![
        row("quad4", (&m.quad).into(), left(&m.quad), &[]),
        row(
            "quad4 distorted",
            (&m.distorted).into(),
            left(&m.distorted),
            &[],
        ),
        row("quad4 + mass", (&m.massive).into(), left(&m.massive), both),
        row(
            "generic quad4",
            (&m.generic).into(),
            m.generic.nodes_at_min_x(1e-9),
            both,
        ),
        row("tri3", (&m.tri).into(), m.tri.edge_nodes(Edge::Left), both),
        row(
            "quad8",
            (&m.quad8).into(),
            m.quad8.edge_nodes(Edge::Left),
            &[Mass::Consistent],
        ),
        row(
            "heat quad4",
            Discretization::new(&m.heat, Physics::Heat2d),
            left(&m.heat),
            &[],
        ),
        row("hex8", (&m.hex).into(), m.hex.face_nodes(Face::XMin), &[]),
    ]
}

/// Nodes, stiffness and (`kind`) mass of element `e`, through the seam.
fn element(disc: &Discretization, e: usize, kind: Option<Mass>) -> Element {
    let (mat, nd) = (Material::unit(), disc.elem_dofs());
    let (mut ke, mut me) = (vec![0.0; nd * nd], vec![0.0; nd * nd]);
    disc.stiffness(e, &mat, &mut ke);
    if let Some(kind) = kind {
        disc.mass(e, &mat, kind, &mut me);
    }
    (disc.mesh().elem_nodes(e).to_vec(), ke, me)
}

/// Strips and 2 × 2 blocks where the mesh has a grid, and a graph partition.
fn partitions(disc: &Discretization) -> Vec<(&'static str, ElementPartition)> {
    let mesh = disc.mesh();
    let mut parts = Vec::new();
    if let Some((nx, _)) = mesh.grid_dims() {
        parts.push((
            "strips",
            ElementPartition::blocks_of(&mesh, nx.min(6) / 2, 1),
        ));
        parts.push(("blocks", ElementPartition::blocks_of(&mesh, 2, 2)));
    }
    parts.push(("graph", PartitionerSpec::Graph.element_partition(&mesh, 4)));
    parts
}

fn check(p: &Pairing) {
    let (disc, mat) = (&p.disc, Material::unit());
    let (mesh, dpn) = (disc.mesh(), disc.physics().dofs_per_node());
    let blocks = |kind: Option<Mass>| {
        (0..mesh.n_elems()).map(move |e| {
            let (nodes, ke, me) = element(disc, e, kind);
            (nodes, if kind.is_some() { me } else { ke })
        })
    };

    if dpn > 1 {
        for e in 0..mesh.n_elems() {
            let (nd, (_, ke, _)) = (disc.elem_dofs(), element(disc, e, None));
            for (k, v) in ke.iter().enumerate() {
                let mirror = ke[(k % nd) * nd + k / nd];
                assert_eq!(
                    v.to_bits(),
                    mirror.to_bits(),
                    "{}: kₑ of {e}, entry {k}",
                    p.name
                );
            }
        }
    }

    // Global, raw: the pattern holds no constraint.
    let free = DofMap::with_dofs(mesh.n_nodes(), dpn);
    let raw = assembly::assemble_stiffness(*disc, &free, &mat);
    assert_same_matrix(&raw, &reference_global(&free, blocks(None)), p.name);
    // The global mass: consistent blocks whole, lumped diagonals only.
    for &kind in p.masses {
        let mut want = reference_global(&free, blocks(Some(kind)));
        if kind == Mass::Lumped {
            let diagonal = (0..want.n_rows()).map(|r| (vec![r], vec![want.get(r, r)]));
            want = reference_global(&DofMap::with_dofs(free.n_dofs(), 1), diagonal);
        }
        let got = assembly::assemble_mass(*disc, &free, &mat, kind);
        assert_same_matrix(&got, &want, &format!("{} / global {kind:?} mass", p.name));
    }

    let mut cross_points = false;
    for (kind, dm) in constraints(mesh.n_nodes(), dpn, &p.support) {
        let loads = loads_for(&dm);
        let what = format!("{} / {kind}", p.name);

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
        check_owned_rows(disc, &dm, &loads, (&got, &got_rhs), &what);

        // Per subdomain, with the lumped mass where the pairing has one.
        let lumped = p.masses.contains(&Mass::Lumped);
        let m = lumped.then(|| {
            let m = assembly::assemble_mass(*disc, &dm, &mat, Mass::Lumped);
            assembly::apply_dirichlet_mass(&m, &dm).diagonal()
        });
        for (shape, part) in &partitions(disc) {
            let subs = part.subdomains_of(&mesh);
            let systems: Vec<SubdomainSystem> = (subs.iter())
                .map(|sub| SubdomainSystem::build(*disc, &dm, &mat, sub, &loads, lumped))
                .collect();
            for (sub, sys) in subs.iter().zip(&systems) {
                cross_points |= sub.multiplicity.iter().any(|&m| m >= 3);
                let what = format!("{what} / {shape} / rank {}", sub.rank);
                let element = |e| element(disc, e, None);
                let (k, f) = reference_subdomain(&dm, sub, &loads, &element);
                assert_same_local(&sys.k_local, &k, dpn, &format!("{what} / k_local"));
                if dpn > 1 {
                    assert_bitwise_symmetric(&sys.k_local, &format!("{what} / k_local"));
                }
                assert_same_bits(&sys.f_local, &f, &format!("{what} / f_local"));
                assert_eq!(sys.mass.is_some(), lumped, "{what}: a mass iff asked");
            }
            let what = format!("{what} / {shape}");
            check_subdomain_sum(&systems, &got, &got_rhs, &what);
            if let Some(m) = &m {
                check_mass_sum(&systems, m, &what);
            }
        }
    }
    assert!(cross_points, "{}: no partition has a cross point", p.name);
}

/// The union of three ranks' owned rows ([`assembly::assemble_owned`]) is
/// the constrained global system, every entry and right-hand side bit for
/// bit.
fn check_owned_rows(
    disc: &Discretization,
    dm: &DofMap,
    loads: &[f64],
    (k, f): (&CsrMatrix, &[f64]),
    what: &str,
) {
    let mut seen = vec![false; dm.n_dofs()];
    for rank in 0..3 {
        // Three contiguous node ranges.
        let owned = |n: usize| (n * 3) / dm.n_nodes() == rank;
        let (block, _) = assembly::assemble_owned(disc, dm, &Material::unit(), loads, owned, false);
        if dm.dofs_per_node() > 1 {
            assert_bitwise_symmetric(&block.a_loc, &format!("{what} / rank {rank} a_loc"));
        }
        for (i, &g) in block.rows.iter().enumerate() {
            let loc = block.a_loc.row_entries(i).map(|(c, v)| (block.rows[c], v));
            let (cols, vals) = block.a_ext.row(i);
            let ext = cols.iter().zip(vals).map(|(&c, &v)| (block.ext_dofs[c], v));
            let mut row: Vec<(usize, f64)> = loc.chain(ext).collect();
            row.sort_by_key(|&(c, _)| c);
            let (cols, vals): (Vec<usize>, Vec<f64>) = row.into_iter().unzip();
            let what = format!("{what} / owned row {g}");
            assert_eq!(cols, k.row(g).0, "{what}: columns");
            assert_same_bits(&vals, k.row(g).1, &what);
            assert_same_bits(&[block.rhs[i]], &[f[g]], &format!("{what} / rhs"));
            seen[g] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "{what}: every row owned once");
}

/// `Σ Bₛᵀ K̂⁽ˢ⁾ Bₛ` and `Σ Bₛᵀ f̂⁽ˢ⁾` against the constrained global system.
fn check_subdomain_sum(systems: &[SubdomainSystem], k: &CsrMatrix, f: &[f64], what: &str) {
    let n = k.n_rows();
    let (mut k_sum, mut f_sum) = (vec![0.0; n * n], vec![0.0; n]);
    for s in systems {
        for l in 0..s.n_local_dofs() {
            let g = s.global_dofs[l];
            f_sum[g] += s.f_local[l];
            for (c, v) in s.k_local.row_entries(l) {
                k_sum[g * n + s.global_dofs[c]] += v;
            }
        }
    }
    let scale = k.row_abs_sums().into_iter().fold(0.0, f64::max);
    for (idx, (a, b)) in k_sum.iter().zip(k.to_dense()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-13 * scale,
            "{what}: Σ K̂ entry {idx}: {a} vs {b}"
        );
    }
    for (g, (a, b)) in f_sum.iter().zip(f).enumerate() {
        assert!(
            (a - b).abs() <= 1e-13 * (1.0 + b.abs()),
            "{what}: Σ f̂ {g}: {a} vs {b}"
        );
    }
}

/// `Σ Bₛᵀ m̂⁽ˢ⁾` of the subdomains' lumped mass vectors against the
/// constrained global lumped diagonal `m`: bit for bit on a dof one
/// subdomain holds (its elements are summed in the same order), to 1e-13
/// relative on an interface dof, whose partial sums are added across
/// subdomains.
fn check_mass_sum(systems: &[SubdomainSystem], m: &[f64], what: &str) {
    let (mut sum, mut holders) = (vec![0.0; m.len()], vec![0usize; m.len()]);
    for s in systems {
        let local = s.mass.as_ref().expect("a lumped mass");
        for (&g, &v) in s.global_dofs.iter().zip(local) {
            sum[g] += v;
            holders[g] += 1;
        }
    }
    for (g, ((a, b), h)) in sum.iter().zip(m).zip(holders).enumerate() {
        match h {
            1 => assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: interior mass {g}: {a} vs {b}"
            ),
            _ => assert!(
                (a - b).abs() <= 1e-13 * b.abs(),
                "{what}: interface mass {g}: {a} vs {b}"
            ),
        }
    }
}

/// Checks the rows of the table named `names`.
fn check_named(names: &[&str]) {
    let m = meshes();
    let rows = pairings(&m);
    for name in names {
        check(
            rows.iter()
                .find(|p| p.name == *name)
                .expect("a row of the table"),
        );
    }
}

#[test]
fn quad4_elasticity_regular_and_distorted() {
    check_named(&["quad4", "quad4 distorted"]);
}

#[test]
fn quad4_consistent_and_lumped_mass() {
    check_named(&["quad4 + mass"]);
}

#[test]
fn generic_quad4_elasticity_and_mass() {
    check_named(&["generic quad4"]);
}

#[test]
fn tri3_elasticity() {
    check_named(&["tri3"]);
}

#[test]
fn quad8_elasticity() {
    check_named(&["quad8"]);
}

#[test]
fn heat_quad4() {
    check_named(&["heat quad4"]);
}

#[test]
fn hex8_elasticity() {
    check_named(&["hex8"]);
}

#[test]
fn every_row_of_the_table_is_checked() {
    let checked = [
        "quad4",
        "quad4 distorted",
        "quad4 + mass",
        "generic quad4",
        "tri3",
        "quad8",
        "heat quad4",
        "hex8",
    ];
    let m = meshes();
    for p in pairings(&m) {
        assert!(checked.contains(&p.name), "{} has no test", p.name);
    }
}

/// The scaling an EDD rank applies, in place on the directly assembled
/// blocks, against the CSR reference scaled by `scale_symmetric`
/// (`a_rc·(d_r·d_c)`) and then copied into blocks: the same bits, fill zeros
/// included, and the same row sums the scaling is taken from.
fn check_scaled_blocks(p: &Pairing) {
    let (disc, mat) = (&p.disc, Material::unit());
    let (mesh, dpn) = (disc.mesh(), disc.physics().dofs_per_node());
    for (kind, dm) in constraints(mesh.n_nodes(), dpn, &p.support) {
        let loads = loads_for(&dm);
        for (shape, part) in &partitions(disc) {
            for sub in part.subdomains_of(&mesh) {
                let what = format!("{} / {kind} / {shape} / rank {}", p.name, sub.rank);
                let mut sys = SubdomainSystem::build(*disc, &dm, &mat, &sub, &loads, false);
                let element = |e| element(disc, e, None);
                let (mut k, _) = reference_subdomain(&dm, &sub, &loads, &element);
                assert!(k.n_rows() > 0, "{what}: empty subdomain");
                let sums = sys.k_local.row_abs_sums();
                assert_same_bits(&sums, &k.row_abs_sums(), &format!("{what} / row sums"));
                let d = inv_sqrt_scaling(&sums);
                sys.k_local.scale_symmetric(&d);
                k.scale_symmetric(&d);
                assert_same_local(&sys.k_local, &k, dpn, &format!("{what} / scaled"));
                assert_bitwise_symmetric(&sys.k_local, &format!("{what} / scaled"));
            }
        }
    }
}

#[test]
fn node_blocks_scaled_in_place_hold_the_scaled_csr_bits() {
    let m = meshes();
    for p in pairings(&m)
        .iter()
        .filter(|p| p.disc.physics().dofs_per_node() > 1)
    {
        check_scaled_blocks(p);
    }
}
