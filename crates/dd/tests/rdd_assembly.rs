//! Rank-side RDD assembly against the global path, bit for bit.
//!
//! [`RddSystem::assemble`] builds a rank's block row from the elements that
//! touch its nodes, constrains it and scales it in place with its own row
//! sums and one halo exchange of the diagonal. Everything it returns —
//! `a_loc` (node blocks and fill masks at 2 or 3 DOFs per node, CSR for
//! heat), `a_ext`, `ext_dofs`, the halo lists, `b_loc` and `d` — must equal
//! what [`RddSystem::build_all`] cuts from `scale_system(build_static(..))`,
//! and `a_loc` must be [`BcsrMatrix::from_csr`] of the owned columns of the
//! scaled global rows, on every physics, partition shape and rank count,
//! with homogeneous and inhomogeneous Dirichlet data. With a mass shift ᾱ
//! the same holds for a Newmark step's effective matrix `ᾱ·M_lumped + K`.

use parfem_dd::{Problem, RddSystem};
use parfem_fem::assembly::{self, StaticSystem};
use parfem_fem::{Discretization, Mass, Material, Physics};
use parfem_mesh::{DofMap, Edge, Face, HexMesh, NodePartition, PartitionerSpec, QuadMesh};
use parfem_msg::{run_ranks, MachineModel};
use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
use parfem_sparse::scaling::scale_system;
use parfem_sparse::{BcsrMatrix, CsrMatrix, NodeMatrix};
use proptest::prelude::*;

enum Mesh {
    Quad(QuadMesh),
    Hex(HexMesh),
}

/// A cantilever of one physics: clamped (or, `inhomogeneous`, pulled to
/// prescribed non-zero values) at `x = 0`, loaded at `x = L` and inside.
struct Fixture {
    physics: Physics,
    mesh: Mesh,
    dm: DofMap,
    mat: Material,
    loads: Vec<f64>,
}

impl Fixture {
    fn new(physics: Physics, (nx, ny, nz): (usize, usize, usize), inhomogeneous: bool) -> Self {
        let dpn = physics.dofs_per_node();
        let (mesh, fixed_nodes) = match physics {
            Physics::Elasticity3d => {
                let m = HexMesh::cantilever(nx, ny, nz);
                let nodes = m.face_nodes(Face::XMin);
                (Mesh::Hex(m), nodes)
            }
            _ => {
                let m = QuadMesh::cantilever(nx, ny);
                let nodes = m.edge_nodes(Edge::Left);
                (Mesh::Quad(m), nodes)
            }
        };
        let n_nodes = match &mesh {
            Mesh::Quad(m) => m.n_nodes(),
            Mesh::Hex(m) => m.n_nodes(),
        };
        let mut dm = DofMap::with_dofs(n_nodes, dpn);
        for (k, &node) in fixed_nodes.iter().enumerate() {
            for c in 0..dpn {
                let value = if inhomogeneous {
                    0.01 * (1 + k + c) as f64
                } else {
                    0.0
                };
                dm.fix_dof(dm.dof(node, c), value);
            }
        }
        let mut loads: Vec<f64> = (0..dm.n_dofs())
            .map(|i| 0.001 * ((i * 37) % 11) as f64)
            .collect();
        match (&mesh, physics) {
            (Mesh::Quad(m), Physics::Elasticity2d) => {
                assembly::edge_load(m, &dm, Edge::Right, 0.3, -1.0, &mut loads)
            }
            (Mesh::Quad(m), _) => assembly::edge_source(m, &dm, Edge::Right, 1.0, &mut loads),
            (Mesh::Hex(m), _) => {
                assembly::face_load(m, &dm, Face::XMax, [0.2, 0.0, -1.0], &mut loads)
            }
        }
        Fixture {
            physics,
            mesh,
            dm,
            mat: Material::unit(),
            loads,
        }
    }

    fn disc(&self) -> Discretization<'_> {
        match &self.mesh {
            Mesh::Quad(m) => Discretization::new(m, self.physics),
            Mesh::Hex(m) => Discretization::new(m, self.physics),
        }
    }

    fn problem(&self) -> Problem<'_> {
        Problem::new(self.disc(), &self.dm, &self.mat, &self.loads)
    }

    /// The global constrained system, assembled by the sequential path.
    fn reference(&self) -> StaticSystem {
        assembly::build_static(self.disc(), &self.dm, &self.mat, &self.loads)
    }

    /// Partition shape 0: node strips; 1: contiguous node ranges; 2: a
    /// seeded scattered owner map — every part touches every other, with
    /// cross points everywhere; 3: the nodes of a block partition (cross
    /// points where four blocks meet); 4: the nodes of a graph partition.
    /// Shapes 0, 3 and 4 are what RDD derives from the `--partitioner`
    /// element cut.
    fn partition(&self, shape: usize, p: usize, seed: u64) -> NodePartition {
        let n = self.dm.n_nodes();
        let spec = match shape {
            0 => PartitionerSpec::Strips,
            3 => PartitionerSpec::Blocks,
            4 => PartitionerSpec::Graph,
            1 => return NodePartition::from_owner(p, (0..n).map(|i| (i * p) / n).collect()),
            _ => {
                let owner = (0..n).map(|i| match i < p {
                    true => i,
                    false => (mix(seed ^ i as u64) % p as u64) as usize,
                });
                return NodePartition::from_owner(p, owner.collect());
            }
        };
        let mesh = self.disc().mesh();
        let elements = spec.element_partition(&mesh, p);
        NodePartition::from_elements(&elements, &mesh)
            .unwrap_or_else(|e| panic!("{spec} P={p}: {e}"))
    }
}

/// SplitMix64's finalizer: a seeded, well-spread owner per node.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_csr(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
    assert_eq!(got.n_rows(), want.n_rows(), "{what}: rows");
    assert_eq!(got.n_cols(), want.n_cols(), "{what}: columns");
    let ((gp, gc, gv), (wp, wc, wv)) = (got.raw_parts(), want.raw_parts());
    assert_eq!(gp, wp, "{what}: row pointers");
    assert_eq!(gc, wc, "{what}: column indices");
    assert_eq!(bits(gv), bits(wv), "{what}: value bits");
}

fn assert_same_local(got: &NodeMatrix, want: &NodeMatrix, what: &str) {
    match (got, want) {
        (NodeMatrix::Csr(got), NodeMatrix::Csr(want)) => assert_same_csr(got, want, what),
        (NodeMatrix::Blocks(got), NodeMatrix::Blocks(want)) => {
            assert_eq!(got.block_size(), want.block_size(), "{what}: block size");
            assert_eq!(got.n_rows(), want.n_rows(), "{what}: rows");
            let ((gp, gc, gv), (wp, wc, wv)) = (got.raw_parts(), want.raw_parts());
            assert_eq!(gp, wp, "{what}: block row pointers");
            assert_eq!(gc, wc, "{what}: block columns");
            assert_eq!(
                bits(gv),
                bits(wv),
                "{what}: block value bits, fill zeros included"
            );
            assert_eq!(got.fill(), want.fill(), "{what}: fill masks");
            assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
        }
        _ => panic!("{what}: storage differs"),
    }
}

/// The owned columns of the global rows `rows` of `a`, renumbered by their
/// position among `rows`.
fn owned_columns(a: &CsrMatrix, rows: &[usize]) -> CsrMatrix {
    let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
    for &d in rows {
        let (c, v) = a.row(d);
        for (&c, &v) in c.iter().zip(v) {
            if let Ok(l) = rows.binary_search(&c) {
                cols.push(l);
                vals.push(v);
            }
        }
        row_ptr.push(cols.len());
    }
    CsrMatrix::from_raw_parts(rows.len(), rows.len(), row_ptr, cols, vals).unwrap()
}

/// Builds every rank's block row on the ranks and compares it with the
/// global split — of `K`, or with a `mass_shift` ᾱ of the Newmark step's
/// `ᾱM + K` over the lumped mass; returns the largest neighbour count of any
/// rank.
fn check(fx: &Fixture, part: &NodePartition, mass_shift: Option<f64>, what: &str) -> usize {
    let global = fx.reference();
    let mass = mass_shift.map(|_| {
        let m = assembly::assemble_mass(fx.disc(), &fx.dm, &fx.mat, Mass::Lumped);
        assembly::apply_dirichlet_mass(&m, &fx.dm).diagonal()
    });
    let k = match (mass_shift, &mass) {
        (Some(alpha), Some(m)) => {
            let mut k = NodeMatrix::Csr(global.stiffness.clone());
            k.add_diagonal(alpha, m);
            CsrMatrix::from_rows(&k)
        }
        _ => global.stiffness.clone(),
    };
    let (a, b, scaling) = scale_system(&k, &global.rhs).unwrap();
    let want = RddSystem::build_all(&a, &b, part);
    let problem = fx.problem();
    let out = run_ranks(part.n_parts(), MachineModel::ideal(), |comm| {
        RddSystem::assemble(comm, &problem, part, mass_shift)
    });
    let dpn = fx.physics.dofs_per_node();
    for ((got, d, got_mass), want) in out.results.iter().zip(&want) {
        let what = format!("{what} rank {}", want.rank);
        match (got_mass, &mass) {
            (Some(got), Some(m)) => {
                assert_eq!(bits(got), bits(&want.restrict(m)), "{what}: lumped mass")
            }
            (None, None) => {}
            _ => panic!("{what}: a mass without a shift, or none with one"),
        }
        assert_eq!(got.rank, want.rank, "{what}");
        assert_eq!(got.rows, want.rows, "{what}: rows");
        // The definition: the owned columns of the scaled global rows, in
        // node blocks at 2 or 3 DOFs per node and unchanged CSR at one.
        let cut = owned_columns(&a, &want.rows);
        match BcsrMatrix::from_csr(&cut, dpn) {
            Some(blocks) if dpn > 1 => assert_same_local(
                &got.a_loc,
                &NodeMatrix::Blocks(blocks),
                &format!("{what}: a_loc"),
            ),
            _ => assert_same_local(&got.a_loc, &NodeMatrix::Csr(cut), &format!("{what}: a_loc")),
        }
        assert_same_local(
            &got.a_loc,
            &want.a_loc,
            &format!("{what}: a_loc vs build_all"),
        );
        assert_same_csr(&got.a_ext, &want.a_ext, &format!("{what}: a_ext"));
        assert_eq!(got.ext_dofs, want.ext_dofs, "{what}: ext_dofs");
        assert_eq!(got.halo_rows, want.halo_rows, "{what}: halo_rows");
        assert_eq!(got.send_to, want.send_to, "{what}: send_to");
        assert_eq!(got.recv_from, want.recv_from, "{what}: recv_from");
        assert_eq!(bits(&got.b_loc), bits(&want.b_loc), "{what}: b_loc");
        let want_d = want.restrict(scaling.diagonal());
        assert_eq!(bits(d), bits(&want_d), "{what}: d");
    }
    want.iter().map(|s| s.send_to.len()).max().unwrap_or(0)
}

/// Every partition shape at every rank count, both kinds of Dirichlet data.
fn check_physics(physics: Physics, dims: (usize, usize, usize)) {
    let mut most_neighbours = 0;
    for inhomogeneous in [false, true] {
        let fx = Fixture::new(physics, dims, inhomogeneous);
        for p in [1, 2, 3, 4, 8] {
            // Strips need an element column per part.
            for shape in (0..5).filter(|&shape| shape != 0 || p <= dims.0) {
                let part = fx.partition(shape, p, 2026);
                let what = format!("{physics} P={p} shape={shape} inhomogeneous={inhomogeneous}");
                most_neighbours = most_neighbours.max(check(&fx, &part, None, &what));
            }
        }
    }
    // The scattered owner maps reach ranks with three or more neighbours.
    assert!(most_neighbours >= 3, "{physics}: {most_neighbours}");
}

#[test]
fn elasticity2d_rank_block_rows_equal_the_global_split() {
    check_physics(Physics::Elasticity2d, (9, 4, 1));
}

#[test]
fn heat2d_rank_block_rows_equal_the_global_split() {
    check_physics(Physics::Heat2d, (11, 5, 1));
}

#[test]
fn elasticity3d_rank_block_rows_equal_the_global_split() {
    check_physics(Physics::Elasticity3d, (7, 3, 2));
}

/// A Newmark step's rank block rows: the owned rows of the global
/// constrained `ᾱ·M_lumped + K`, scaled — the same sums in the same order
/// as the rank's `k_rr + ᾱ·m_r`, so bit for bit — and the lumped mass of the
/// owned rows, on plane and solid elasticity.
#[test]
fn effective_rank_block_rows_equal_the_global_split() {
    for (physics, dims) in [
        (Physics::Elasticity2d, (9, 4, 1)),
        (Physics::Elasticity3d, (7, 3, 2)),
    ] {
        for inhomogeneous in [false, true] {
            let fx = Fixture::new(physics, dims, inhomogeneous);
            for p in [1, 3, 4] {
                for shape in 0..3 {
                    let part = fx.partition(shape, p, 2026);
                    let what = format!("{physics} P={p} shape={shape} shifted");
                    check(&fx, &part, Some(37.5), &what);
                }
            }
        }
    }
}

/// Each rank's `a_loc` is in the storage its DOFs per node give it: node
/// blocks for both elasticities, CSR for heat.
#[test]
fn rank_block_rows_take_the_storage_of_their_dofs_per_node() {
    for (physics, dims, label) in [
        (Physics::Elasticity2d, (9, 4, 1), "bcsr2"),
        (Physics::Heat2d, (9, 4, 1), "csr"),
        (Physics::Elasticity3d, (5, 2, 2), "bcsr3"),
    ] {
        let fx = Fixture::new(physics, dims, false);
        let part = fx.partition(0, 3, 0);
        let problem = fx.problem();
        let out = run_ranks(3, MachineModel::ideal(), |comm| {
            RddSystem::assemble(comm, &problem, &part, None)
                .0
                .a_loc
                .kernel_label()
        });
        assert_eq!(out.results, vec![label; 3], "{physics}");
    }
}

/// The `direct` spec factors a rank's `a_loc` through its row view: from
/// the node blocks and from a CSR copy of the same rows, the ordering picks
/// the same permutation and the solves produce the same bits.
#[test]
fn an_rdd_block_factors_the_same_from_blocks_and_from_csr() {
    let fx = Fixture::new(Physics::Elasticity3d, (10, 4, 4), true);
    let global = fx.reference();
    let (a, b, _) = scale_system(&global.stiffness, &global.rhs).unwrap();
    let part = fx.partition(0, 2, 0);
    for sys in RddSystem::build_all(&a, &b, &part) {
        assert!(sys.a_loc.as_blocks().is_some());
        let csr = CsrMatrix::from_rows(&sys.a_loc);
        let from_blocks = SparseLdlt::factor(&sys.a_loc, DEFAULT_PIVOT_TOL);
        let from_csr = SparseLdlt::factor(&csr, DEFAULT_PIVOT_TOL);
        assert_eq!(from_blocks.permutation(), from_csr.permutation());
        assert_eq!(from_blocks.nnz_l(), from_csr.nnz_l());
        assert_eq!(from_blocks.factor_flops(), from_csr.factor_flops());
        let (mut x_blocks, mut x_csr) = (sys.b_loc.clone(), sys.b_loc.clone());
        from_blocks.solve_in_place(&mut x_blocks);
        from_csr.solve_in_place(&mut x_csr);
        assert_eq!(bits(&x_blocks), bits(&x_csr), "rank {}", sys.rank);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random physics, mesh size, rank count, partition shape, seed and
    /// Dirichlet data: the rank-built block rows equal the global split.
    #[test]
    fn rank_block_rows_equal_the_global_split(
        physics in 0usize..3,
        nx in 7usize..14,
        ny in 2usize..6,
        p_idx in 0usize..5,
        shape in 0usize..5,
        seed in 0u64..1000,
        inhomogeneous in 0usize..2,
    ) {
        let physics = Physics::ALL[physics];
        let p = [1usize, 2, 3, 4, 8][p_idx];
        prop_assume!(shape != 0 || p <= nx);
        let dims = match physics {
            Physics::Elasticity3d => (nx, ny.min(3), 2),
            _ => (nx, ny, 1),
        };
        let fx = Fixture::new(physics, dims, inhomogeneous == 1);
        let part = fx.partition(shape, p, seed);
        let what = format!("{physics} {dims:?} P={p} shape={shape} seed={seed} \
                            inhomogeneous={inhomogeneous}");
        check(&fx, &part, None, &what);
    }
}
