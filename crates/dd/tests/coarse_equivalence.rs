//! The rank-side coarse build against an independent reference.
//!
//! Every rank builds its share of the two-level coarse space from its own
//! unassembled matrix (EDD) or block row (RDD) and the live-mode exchanges.
//! The reference here shares none of that: the scaled operator is assembled
//! globally on the host (`common`), the parts are described in global dof
//! numbering, and the sequential `build_coarse_basis` runs over them. The
//! two must agree:
//!
//! - the Galerkin operator `A_c` entrywise to `1e-12 · ‖A_c‖_max`, and bit
//!   for bit between the ranks (it arrives by one deterministic reduce),
//! - the skipped-pivot sets exactly,
//! - every prolongation value to `1e-12` of the largest one, and — EDD — bit
//!   for bit on every rank that shares the dof (cross points included).

mod common;

use common::node_strips;

use parfem_dd::dist_vec::EddLayout;
use parfem_dd::scaling::DistributedScaling;
use parfem_dd::{
    build_rank_coarse, edd_part_geometry, rdd_part_geometry, CoarseBuildStats, CoarsePlan,
    EddOperator, EddVariant, RddOperator, RddSystem,
};
use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_mesh::{
    DofMap, Edge, ElementPartition, Face, HexMesh, NodePartition, PartitionerSpec, QuadMesh,
    Subdomain,
};
use parfem_msg::{run_ranks, Communicator, MachineModel};
use parfem_precond::twolevel::BuiltCoarse;
use parfem_precond::{build_coarse_basis, CoarseSpec};
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::scaling::scale_system;
use proptest::prelude::*;

/// What one rank built, with its mode entries renumbered to global dofs.
struct RankView {
    /// Global dofs this rank holds (EDD: its subdomain; RDD: its rows).
    dofs: Vec<usize>,
    a_c: Vec<f64>,
    skipped: Vec<usize>,
    /// `(mode id, [(global dof, value)])`.
    modes: Vec<(usize, Vec<(usize, f64)>)>,
    stats: CoarseBuildStats,
}

fn view(built: BuiltCoarse, stats: CoarseBuildStats, dofs: &[usize]) -> RankView {
    RankView {
        dofs: dofs.to_vec(),
        a_c: built.a_c.to_dense(),
        skipped: built.factor.skipped_modes().to_vec(),
        modes: (built.modes.entries_by_mode())
            .map(|(id, entries)| (id, entries.iter().map(|&(l, v)| (dofs[l], v)).collect()))
            .collect(),
        stats,
    }
}

fn coords3(mesh: &QuadMesh) -> Vec<[f64; 3]> {
    mesh.coords().iter().map(|c| [c[0], c[1], 0.0]).collect()
}

/// Runs the rank-side EDD build over `part` and the reference next to it.
fn edd_case(
    mesh: &QuadMesh,
    dm: &DofMap,
    part: &ElementPartition,
    spec: &CoarseSpec,
    overlap: bool,
) -> (Vec<RankView>, BuiltCoarse) {
    let mat = Material::unit();
    let loads = vec![0.0; dm.n_dofs()];
    let subs: Vec<Subdomain> = part.subdomains_of(mesh);
    let systems: Vec<SubdomainSystem> = subs
        .iter()
        .map(|s| SubdomainSystem::build(mesh, dm, &mat, s, &loads, false))
        .collect();
    let coords = coords3(mesh);
    let views = edd_rank_views(&systems, dm, &coords, spec, overlap);
    let dpn = dm.dofs_per_node();
    let (a, d) = common::edd_scaled_operator(&systems, dm.n_dofs());
    let (parts, mult) = common::edd_global_parts(&systems, dm.n_dofs(), &coords, dpn);
    let reference = build_coarse_basis(spec, &parts, &mult, &d, &a, DEFAULT_PIVOT_TOL);
    (views, reference)
}

/// The rank-side EDD build over subdomain systems the caller assembled.
fn edd_rank_views(
    systems: &[SubdomainSystem],
    dm: &DofMap,
    coords: &[[f64; 3]],
    spec: &CoarseSpec,
    overlap: bool,
) -> Vec<RankView> {
    let dpn = dm.dofs_per_node();
    let geos = edd_part_geometry(
        systems.iter().map(|s| s.global_dofs.as_slice()),
        |rank, l| dm.is_fixed(systems[rank].global_dofs[l]),
        coords,
        dpn,
    );
    let out = run_ranks(systems.len(), MachineModel::ideal(), |comm| {
        let sys = &systems[comm.rank()];
        let layout = EddLayout::from_system(sys);
        let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
        let a = sc.apply(sys.k_local.clone(), &mut sys.f_local.clone(), &layout);
        let op = EddOperator::new(a, layout, comm, EddVariant::Enhanced, overlap);
        let plan = CoarsePlan {
            spec,
            n_comp: dpn,
            geo: &geos[comm.rank()],
        };
        let (built, stats) = build_rank_coarse(&op, plan, &sys.multiplicity, &sc.d);
        view(built, stats, &sys.global_dofs)
    });
    out.results
}

/// Runs the rank-side RDD build over `node_part` and the reference.
fn rdd_case(
    mesh: &QuadMesh,
    dm: &DofMap,
    node_part: &NodePartition,
    spec: &CoarseSpec,
    overlap: bool,
) -> (Vec<RankView>, BuiltCoarse) {
    let mat = Material::unit();
    let loads = vec![0.0; dm.n_dofs()];
    let assembled = assembly::build_static(mesh, dm, &mat, &loads);
    let (a, b, sc) = scale_system(&assembled.stiffness, &assembled.rhs).unwrap();
    let systems = RddSystem::build_all(&a, &b, node_part);
    let coords = coords3(mesh);
    let geos = rdd_part_geometry(node_part, dm, &coords);
    let out = run_ranks(systems.len(), MachineModel::ideal(), |comm| {
        let sys = &systems[comm.rank()];
        let op = RddOperator::new(sys.clone(), comm, overlap);
        let plan = CoarsePlan {
            spec,
            n_comp: dm.dofs_per_node(),
            geo: &geos[comm.rank()],
        };
        let d_loc: Vec<f64> = sys.rows.iter().map(|&g| sc.diagonal()[g]).collect();
        let (built, stats) = build_rank_coarse(&op, plan, &vec![1.0; sys.n_local()], &d_loc);
        view(built, stats, &sys.rows)
    });
    let ones = vec![1.0; dm.n_dofs()];
    let parts = common::rdd_global_parts(node_part, dm, &coords);
    let reference = build_coarse_basis(spec, &parts, &ones, sc.diagonal(), &a, DEFAULT_PIVOT_TOL);
    (out.results, reference)
}

/// The agreement contract of the module docs. The bit-identity demand on
/// ranks holding the same dof bites under EDD; under RDD every dof has one
/// holder, so it is vacuous there.
fn check(views: &[RankView], reference: &BuiltCoarse, n_dofs: usize, what: &str) {
    let n_c = reference.info.n_modes;
    let a_ref = reference.a_c.to_dense();
    let a_max = a_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let skipped_ref = reference.factor.skipped_modes();
    for (r, v) in views.iter().enumerate() {
        assert_eq!(v.a_c.len(), n_c * n_c, "{what}: rank {r} coarse dimension");
        for (i, (got, want)) in v.a_c.iter().zip(&a_ref).enumerate() {
            assert!(
                (got - want).abs() <= 1e-12 * a_max,
                "{what}: rank {r} A_c[{},{}] = {got:e} vs reference {want:e} (max {a_max:e})",
                i / n_c,
                i % n_c
            );
        }
        let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&v.a_c),
            bits(&views[0].a_c),
            "{what}: rank {r} holds different A_c bits than rank 0"
        );
        assert_eq!(v.skipped, skipped_ref, "{what}: rank {r} skipped pivots");
        assert_eq!(v.stats.info.n_modes, n_c, "{what}: rank {r} mode count");
        assert_eq!(v.stats.info.skipped, skipped_ref.len());
    }

    // Prolongation values, mode by mode, as dense global columns.
    let mut ref_modes = vec![Vec::new(); n_c];
    for (m, col) in reference.modes.entries_by_mode() {
        ref_modes[m] = col;
    }
    let z_max = (ref_modes.iter().flatten()).fold(0.0f64, |m, &(_, v)| m.max(v.abs()));
    for (m, col) in ref_modes.iter().enumerate() {
        let mut want = vec![0.0; n_dofs];
        for &(g, v) in col {
            want[g] = v;
        }
        // First holder's value per dof, for the bit-identity check.
        let mut seen: Vec<Option<f64>> = vec![None; n_dofs];
        for (r, v) in views.iter().enumerate() {
            let mut got = vec![0.0; n_dofs];
            if let Some((_, entries)) = v.modes.iter().find(|(id, _)| *id == m) {
                for &(g, val) in entries {
                    got[g] = val;
                }
            }
            for &g in &v.dofs {
                assert!(
                    (got[g] - want[g]).abs() <= 1e-12 * z_max,
                    "{what}: rank {r} mode {m} dof {g}: {:e} vs reference {:e}",
                    got[g],
                    want[g]
                );
                match seen[g] {
                    None => seen[g] = Some(got[g]),
                    Some(first) => assert!(
                        first == got[g],
                        "{what}: mode {m} dof {g} differs between sharing ranks: \
                         {first:e} vs {:e} on rank {r}",
                        got[g]
                    ),
                }
            }
        }
    }
}

fn cantilever(nx: usize, ny: usize) -> (QuadMesh, DofMap) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    (mesh, dm)
}

/// A ragged node partition derived from a graph element partition: each
/// node goes to the lowest-numbered part among its elements' owners.
fn graph_node_partition(mesh: &QuadMesh, p: usize) -> NodePartition {
    let part = PartitionerSpec::Graph.element_partition(mesh, p);
    let mut owner = vec![usize::MAX; mesh.n_nodes()];
    for sub in part.subdomains_of(mesh) {
        for &n in &sub.nodes {
            owner[n] = owner[n].min(sub.rank);
        }
    }
    NodePartition::from_owner(p, owner)
}

/// The benchmark's configuration in small: `rbm.s3` over two strips, both
/// strategies, blocking and overlapped.
#[test]
fn rbm_s3_matches_the_reference_on_both_strategies() {
    let (mesh, dm) = cantilever(12, 4);
    let spec = CoarseSpec { passes: 3 };
    for overlap in [false, true] {
        let part = ElementPartition::strips_x(&mesh, 2);
        let (views, reference) = edd_case(&mesh, &dm, &part, &spec, overlap);
        check(&views, &reference, dm.n_dofs(), "edd strips");
        let node_part = node_strips(&mesh, 2);
        let (views, reference) = rdd_case(&mesh, &dm, &node_part, &spec, overlap);
        check(&views, &reference, dm.n_dofs(), "rdd strips");
    }
}

/// Strips two elements wide under five smoothing passes: a part's modes
/// cross its neighbours and become live two parts away — activation beyond
/// the first ring, on both strategies.
#[test]
fn modes_activate_beyond_the_first_ring_on_thin_strips() {
    let (mesh, dm) = cantilever(12, 2);
    let spec = CoarseSpec { passes: 5 };
    let mpp = 3;

    let part = ElementPartition::strips_x(&mesh, 6);
    let (views, reference) = edd_case(&mesh, &dm, &part, &spec, false);
    check(&views, &reference, dm.n_dofs(), "edd thin strips");
    // An interior strip has two neighbours: own + first ring is 3 parts.
    let live = views[2].stats.info.live_modes;
    assert!(
        live > 3 * mpp,
        "edd: rank 2 holds {live} live modes — no activation past the first ring"
    );

    let node_part = node_strips(&mesh, 6);
    let (views, reference) = rdd_case(&mesh, &dm, &node_part, &spec, false);
    check(&views, &reference, dm.n_dofs(), "rdd thin strips");
    let live = views[2].stats.info.live_modes;
    assert!(
        live > 3 * mpp,
        "rdd: rank 2 holds {live} live modes — no activation past the first ring"
    );
}

/// A fully constrained part contributes empty modes: numbering is kept,
/// the factorization pivots them out, and every rank agrees on which.
#[test]
fn fully_constrained_part_is_pivoted_out_identically() {
    let mesh = QuadMesh::cantilever(8, 2);
    let part = ElementPartition::strips_x(&mesh, 4);
    let mut dm = DofMap::new(mesh.n_nodes());
    for &n in &part.subdomains_of(&mesh)[0].nodes {
        dm.clamp_node(n);
    }
    for spec in [CoarseSpec { passes: 0 }, CoarseSpec { passes: 2 }] {
        let (views, reference) = edd_case(&mesh, &dm, &part, &spec, false);
        check(&views, &reference, dm.n_dofs(), "edd clamped part");
        let skipped = &views[0].skipped;
        assert!(
            [0, 1, 2].iter().all(|m| skipped.contains(m)),
            "part 0's three modes must be pivoted out, got {skipped:?}"
        );
        // Part 1's modes vanish on the clamped interface too, so nothing at
        // all is live on rank 0 — it still takes part in every exchange.
        assert_eq!(views[0].stats.info.live_modes, 0);
    }
}

/// Cross points: a 2×2 block partition has a node shared by four ranks, a
/// graph partition ragged ones. The rank-ordered interface sum must
/// leave the same bits on every sharer.
#[test]
fn cross_points_hold_identical_bits_on_every_sharer() {
    let (mesh, dm) = cantilever(8, 6);
    let spec = CoarseSpec { passes: 3 };
    let blocks = ElementPartition::blocks_of(&mesh, 2, 2);
    let (views, reference) = edd_case(&mesh, &dm, &blocks, &spec, false);
    check(&views, &reference, dm.n_dofs(), "edd blocks");
    let graph = PartitionerSpec::Graph.element_partition(&mesh, 8);
    let (views, reference) = edd_case(&mesh, &dm, &graph, &spec, false);
    check(&views, &reference, dm.n_dofs(), "edd graph");
    let nodes = graph_node_partition(&mesh, 8);
    let (views, reference) = rdd_case(&mesh, &dm, &nodes, &spec, false);
    check(&views, &reference, dm.n_dofs(), "rdd graph");
}

/// One rank: the build degenerates to the sequential one (no neighbours,
/// every exchange empty) and must still match it.
#[test]
fn single_rank_matches_the_sequential_build() {
    let (mesh, dm) = cantilever(6, 3);
    for spec in [CoarseSpec { passes: 0 }, CoarseSpec { passes: 2 }] {
        let part = ElementPartition::strips_x(&mesh, 1);
        let (views, reference) = edd_case(&mesh, &dm, &part, &spec, false);
        check(&views, &reference, dm.n_dofs(), "edd P=1");
        let (views, reference) = rdd_case(&mesh, &dm, &node_strips(&mesh, 1), &spec, false);
        check(&views, &reference, dm.n_dofs(), "rdd P=1");
    }
}

/// FNV-1a over a stream of u64 words (stable, dependency-free).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// `(A_c digest, modes digest, flops)` of a rank-side build: the bits of
/// `A_c` (rank 0's; `check` holds the others to them), every rank's smoothed
/// modes in rank order as `(id, global dof, value bits)`, and the flops the
/// build charged to the rank clocks, summed.
fn build_digest(views: &[RankView]) -> (u64, u64, u64) {
    let mut a_c = Fnv::new();
    views[0].a_c.iter().for_each(|v| a_c.word(v.to_bits()));
    let mut modes = Fnv::new();
    for v in views {
        for (id, entries) in &v.modes {
            modes.word(*id as u64);
            for &(g, val) in entries {
                modes.word(g as u64);
                modes.word(val.to_bits());
            }
        }
    }
    (a_c.0, modes.0, views.iter().map(|v| v.stats.flops).sum())
}

/// The rank-side build is pinned bit for bit — `A_c`, every rank's smoothed
/// modes and the flops charged — on the three shapes the block coarse build
/// runs: hex node blocks (`B = 3`) with own modes covering the rank, a
/// ragged quad graph partition (`B = 2`, cross points, modes arriving from
/// neighbours), and RDD block rows with ghost columns. The digests were
/// taken before the dense-support modes were multiplied as one panel. The
/// RDD digest was re-taken once, when the rank's `a_loc` became 2×2 node
/// blocks: the `λ̂` power iteration applies the operator, whose block rows
/// associate each row sum differently, so `ω`, the smoothed modes and the
/// flops of their non-zero entries (1 368 016 → 1 368 040) moved with it.
/// All three were re-taken once more when every elasticity element matrix
/// became the mirror of its upper triangle: the lower-triangle entries of
/// every rank matrix moved in their last bits, and with them `ω`, the
/// smoothed modes and the count of their non-zero entries (hex 13 332 906 →
/// 13 332 923, quad 1 849 073 → 1 849 175, RDD 1 368 040 → 1 368 064).
#[test]
fn rank_builds_keep_their_pinned_bits() {
    let spec = CoarseSpec { passes: 3 };

    let mesh = HexMesh::cantilever(12, 6, 6);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let mat = Material::unit();
    let loads = vec![0.0; dm.n_dofs()];
    let systems: Vec<SubdomainSystem> = (ElementPartition::blocks_of(&mesh, 2, 1))
        .subdomains_of(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
        .collect();
    let views = edd_rank_views(&systems, &dm, mesh.coords(), &spec, false);
    let hex = build_digest(&views);

    let (mesh, dm) = cantilever(32, 12);
    let graph = PartitionerSpec::Graph.element_partition(&mesh, 8);
    let (views, reference) = edd_case(&mesh, &dm, &graph, &spec, false);
    check(&views, &reference, dm.n_dofs(), "edd 32x12 graph");
    let quad = build_digest(&views);
    let (views, reference) = rdd_case(&mesh, &dm, &node_strips(&mesh, 8), &spec, false);
    check(&views, &reference, dm.n_dofs(), "rdd 32x12 strips");
    let rdd = build_digest(&views);

    let hex_want = (0xa3d1_cb37_054d_8911, 0xabed_323d_5c4e_7e52, 13_332_923);
    assert_eq!(hex, hex_want, "edd hex 12x6x6 P=2");
    let quad_want = (0x02ee_0532_7877_d60e, 0x4509_bb64_201a_c4e7, 1_849_175);
    assert_eq!(quad, quad_want, "edd quad 32x12 P=8 graph");
    let rdd_want = (0xc0b0_49a4_53cd_614b, 0xd5c4_9365_680a_dfe0, 1_368_064);
    assert_eq!(rdd, rdd_want, "rdd 32x12 P=8");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mesh size, part count, partitioner, smoothing depth and
    /// strategy: the rank-side build matches the reference.
    #[test]
    fn rank_build_matches_reference(
        nx in 6usize..13,
        ny in 2usize..6,
        p_idx in 0usize..5,
        shape in 0usize..3,
        passes in 0usize..6,
        rdd in 0usize..2,
    ) {
        let p = [1usize, 2, 3, 4, 8][p_idx];
        prop_assume!(p <= nx);
        let (mesh, dm) = cantilever(nx, ny);
        let spec = CoarseSpec { passes };
        let what = format!("{nx}x{ny} P={p} shape={shape} {spec} rdd={rdd}");
        let (views, reference) = if rdd == 1 {
            let node_part = match shape {
                0 | 1 => node_strips(&mesh, p),
                _ => graph_node_partition(&mesh, p),
            };
            rdd_case(&mesh, &dm, &node_part, &spec, false)
        } else {
            let part = match shape {
                0 => PartitionerSpec::Strips,
                1 => PartitionerSpec::Blocks,
                _ => PartitionerSpec::Graph,
            }
            .element_partition(&mesh, p);
            edd_case(&mesh, &dm, &part, &spec, false)
        };
        check(&views, &reference, dm.n_dofs(), &what);
    }
}
